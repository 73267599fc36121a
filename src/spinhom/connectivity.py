"""Structure of the periodic hard-phase graphs.

For each hard phase the strong bonds induce a periodic graph on a
sublattice of Z^d.  Components of the quotient graph on residues are
classified through their displacement subgroup H <= Z^d (generated by
the cycle displacements of the quotient component, in units of the
period): H = Z^d means the component lifts to a single infinite
component, H = {0} means the lifts are finite copies ("islands"), and
anything in between lifts to infinitely many infinite components.

A model is usable downstream when every hard phase has exactly one
infinite-unique component (its "core") and every other component is
finite.
"""

from __future__ import annotations

import math
import warnings
from collections import deque
from fractions import Fraction
from itertools import product
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from . import intlattice
from .model import LatticeModel, Offset, Residue, Site, Violation

CLASS_FINITE = "finite"
CLASS_UNIQUE = "infinite-unique"
CLASS_MULTIPLE = "infinite-multiple"

# the largest coarsening side :func:`coarsening_side` tries, in periods
COARSENING_CAP = 64


class PeriodicComponent(NamedTuple):
    phase: int
    residues: frozenset[Residue]
    # echelon basis rows of the displacement subgroup (units of one period)
    displacement_basis: tuple[tuple[int, ...], ...]
    classification: str
    # one concrete copy of the component, for finite components only
    lift_sites: tuple[Site, ...] | None = None
    # exact Euclidean diameter when it is an integer, else the integer ceiling
    lift_diameter: Fraction | None = None


class ConnectivitySummary(NamedTuple):
    period: int
    components: Mapping[int, tuple[PeriodicComponent, ...]]
    core_residues: Mapping[int, frozenset[Residue]]
    densities: Mapping[int, Fraction]
    island_radius: Fraction
    violations: tuple[Violation, ...]

    @property
    def passed(self) -> bool:
        return not self.violations

    def islands(self) -> list[PeriodicComponent]:
        return [c for j in sorted(self.components) for c in self.components[j] if c.classification == CLASS_FINITE]


def _ceil_sqrt(n: int) -> int:
    r = math.isqrt(n)
    return r if r * r == n else r + 1


def classify(model: LatticeModel) -> ConnectivitySummary:
    """Classify every hard component; records violations instead of raising."""
    dim, t = model.dimension, model.period
    components: dict[int, tuple[PeriodicComponent, ...]] = {}
    core: dict[int, frozenset[Residue]] = {}
    densities: dict[int, Fraction] = {}
    violations: list[Violation] = []
    radius = Fraction(0)

    for j in range(1, model.num_phases + 1):
        residues_j = sorted(r for r, lab in model.labels.items() if lab == j)
        comps: list[PeriodicComponent] = []
        pot: dict[Residue, Site] = {}
        for start in residues_j:
            if start in pot:
                continue
            pot[start] = start
            comp_res = [start]
            gens: list[tuple[int, ...]] = []
            queue = deque([start])
            while queue:
                r = queue.popleft()
                base = pot[r]
                for off in sorted(model.strong_offsets(r)):
                    lift = tuple(a + b for a, b in zip(base, off))
                    r2 = tuple(c % t for c in lift)
                    if r2 not in pot:
                        pot[r2] = lift
                        comp_res.append(r2)
                        queue.append(r2)
                    else:
                        diff = tuple((a - b) // t for a, b in zip(lift, pot[r2]))
                        if any(diff):
                            gens.append(diff)
            basis = intlattice.hermite_basis(gens, dim)
            if not basis:
                sites = tuple(sorted(pot[r] for r in comp_res))
                dsq = max(
                    (sum((a - b) ** 2 for a, b in zip(p, q)) for p in sites for q in sites),
                    default=0,
                )
                comps.append(
                    PeriodicComponent(
                        phase=j,
                        residues=frozenset(comp_res),
                        displacement_basis=(),
                        classification=CLASS_FINITE,
                        lift_sites=sites,
                        lift_diameter=Fraction(_ceil_sqrt(dsq)),
                    )
                )
            elif intlattice.is_full_lattice(basis, dim):
                comps.append(
                    PeriodicComponent(j, frozenset(comp_res), tuple(basis), CLASS_UNIQUE)
                )
            else:
                comps.append(
                    PeriodicComponent(j, frozenset(comp_res), tuple(basis), CLASS_MULTIPLE)
                )

        components[j] = tuple(comps)
        unique = [c for c in comps if c.classification == CLASS_UNIQUE]
        multiple = [c for c in comps if c.classification == CLASS_MULTIPLE]
        for c in multiple:
            violations.append(
                Violation(
                    "unique-infinite-component",
                    (j, tuple(sorted(c.residues))),
                    f"phase {j}: component {sorted(c.residues)} lifts to multiple infinite components (displacement rank {len(c.displacement_basis)} of {dim})",
                )
            )
        if len(unique) == 0 and residues_j:
            if not multiple:
                violations.append(
                    Violation(
                        "unique-infinite-component",
                        (j,),
                        f"phase {j} has no infinite component (all components are finite)",
                    )
                )
        elif len(unique) > 1:
            violations.append(
                Violation(
                    "unique-infinite-component",
                    (j,),
                    f"phase {j} has {len(unique)} disjoint infinite components under one label",
                )
            )
        core_j = unique[0].residues if len(unique) == 1 else frozenset()
        core[j] = core_j
        densities[j] = Fraction(len(core_j), t**dim)
        for c in comps:
            if c.classification == CLASS_FINITE and c.lift_diameter is not None:
                radius = max(radius, c.lift_diameter)

    return ConnectivitySummary(
        period=t,
        components=components,
        core_residues=core,
        densities=densities,
        island_radius=radius,
        violations=tuple(violations),
    )


# ---------------------------------------------------------------------------
# cubes, and boxes of sites: one range of coordinates per axis, sites
# numbered in C (lexicographic) order: the box layer of every lattice cell


def cube_range(m: int) -> range:
    """Integer points of [-m/2, m/2) along one axis (m consecutive values)."""
    lo = -(m // 2)
    return range(lo, lo + m)


def check_sides(sides: Sequence[int]) -> tuple[int, ...]:
    """The cube sides as a tuple; raises ValueError unless they strictly
    increase, are positive and number at least one, checked in that
    order.  The one rule for cube sides: a single side m is ``(m,)``."""
    sides = tuple(sides)
    if any(a >= b for a, b in zip(sides, sides[1:])):
        raise ValueError("cube sides must be strictly increasing")
    if any(t <= 0 for t in sides):
        raise ValueError("cube side must be positive")
    if not sides:
        raise ValueError("at least one cube side required")
    return sides


def residue_ids(model: LatticeModel, ranges: Sequence[range]) -> np.ndarray:
    """Residue number of every site of a box, in C order.

    Residues are numbered in C order over the period cell, the order in
    which ``model.residues()`` lists them.
    """
    t = model.period
    res = np.zeros((), dtype=np.int64)
    for r in ranges:
        res = res[..., None] * t + np.arange(r.start % t, r.start % t + len(r)) % t
    return res.ravel()


def halfspace(
    normal: Sequence[int], offset: Fraction, firsts: Sequence[np.ndarray], m: int = 0, closed: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Per cube [f_1, f_1 + m] x ... of the grid ``np.ix_(*firsts)``, whether
    it lies wholly in <x, normal> > offset (>= when ``closed``) and whether
    it lies in <x, normal> <= offset; m = 0 makes the cubes the sites.

    Over a cube the integer <x, normal> runs from ``low``, the sum of the
    per-axis minima, to ``low`` plus m times the 1-norm of the normal, so
    each answer is one comparison of ``low`` with floor(offset) or
    ceil(offset) - 1.
    The sums are int64 below 2**62, else Python ints (``dtype=object``).
    """
    norm = sum(abs(c) for c in normal)
    # one unit of cube width at least: a huge normal on a grid at 0 goes to Python ints
    reach = norm * (max((int(abs(f).max()) for f in firsts if f.size), default=0) + max(m, 1))
    dtype = np.int64 if reach < 2**62 else object
    low = sum(c * f + min(0, c * m) for c, f in zip(normal, np.ix_(*(np.asarray(f, dtype) for f in firsts))))
    floor = math.floor(offset)
    # every low lies in [-reach, reach], so a bound clamped to its range splits them alike
    cut, top = (max(-reach - 1, min(reach, b)) for b in (math.ceil(offset) - 1 if closed else floor, floor - m * norm))
    return low > cut, low <= top


def core_phases(model: LatticeModel) -> np.ndarray:
    """Per residue number, the hard phase whose core holds the residue, else 0.

    Raises ValueError when the model fails validation
    (:meth:`LatticeModel.check_valid`), so no cell is built on it.
    """
    model.check_valid()
    cores = model.summary.core_residues
    return np.array([j if r in cores.get(j, ()) else 0 for r, j in sorted(model.labels.items())])


def loose_residues(model: LatticeModel) -> np.ndarray:
    """Per residue number, whether the residue is hard but outside every
    core: the islands and infinite-multiple pieces.  Validates the model
    as :func:`core_phases` does."""
    hard = np.array([j != 0 for _, j in sorted(model.labels.items())])
    return hard & (core_phases(model) == 0)


def class_slices(
    model: LatticeModel, ranges: Sequence[range], res: Residue, off: Offset
) -> tuple[tuple[slice, ...], tuple[slice, ...]] | None:
    """Basic slices of a box's site grid (shape ``len(r)`` per axis) that
    cut out the sites at residue ``res`` whose neighbour at ``off`` is in
    the box, and those neighbours, in the same order; None when the box
    holds no such pair.

    Along each axis the kept sites are every ``period``-th index from the
    first one at the residue whose neighbour is in range, so both cuts
    are one stride-``period`` slice per axis, and ``grid[src]`` and
    ``grid[dst]`` are views.  At the zero offset the source cut is the
    residue's sub-grid.
    """
    t = model.period
    src, dst = [], []
    for r, o, axis in zip(res, off, ranges):
        n = len(axis)
        lo, hi = max(0, -o), min(n, n - o)
        first = lo + (r - axis.start - lo) % t
        if first >= hi:
            return None
        src.append(slice(first, hi, t))
        dst.append(slice(first + o, hi + o, t))
    return tuple(src), tuple(dst)


def box_pairs(
    model: LatticeModel, ranges: Sequence[range], classes: Sequence, inside: np.ndarray
) -> tuple:
    """The pairs of a box's (residue, offset) classes whose source the bool
    grid ``inside`` (shape ``len(r)`` per axis) marks; a pair with both
    ends inside is taken once, from its forward orientation (offset > 0).

    Returns the site numbers (C order) of the sources and of the targets,
    and each pair's class number: class by class, each class in C order
    of its sources.  The rule is applied to the :func:`class_slices`
    views of ``inside``, and only the kept pairs are numbered.
    """
    ends = [(np.empty(0, dtype=np.int64),) * 2]
    for res, off in classes:
        cut = class_slices(model, ranges, res, off)
        if cut is None:
            ends.append(ends[0])
            continue
        keep = inside[cut[0]] if off > (0,) * len(off) else inside[cut[0]] & ~inside[cut[1]]
        src = np.ravel_multi_index(
            [s.start + s.step * i for s, i in zip(cut[0], keep.nonzero())], inside.shape
        )
        # a target's site number is its source's plus one constant, that of the cut's first pair
        first = [np.ravel_multi_index([s.start for s in part], inside.shape) for part in cut]
        ends.append((src, src + (first[1] - first[0])))
    src, dst = (np.concatenate(x) for x in zip(*ends))
    return src, dst, np.repeat(np.arange(len(classes)), [x.size for x, _ in ends[1:]])


def strong_classes(model: LatticeModel, marked: np.ndarray) -> list:
    """The strong (residue, offset) classes of the residues that a bool
    array per residue number marks, in C order."""
    return [
        (res, off) for res, on in zip(model.residues(), marked) if on
        for off in sorted(model.strong_offsets(res))
    ]


def components(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Connected components of the sites 0..n-1 joined by the pairs (a[k], b[k]).

    Returns one label per site, the smallest site number of its
    component.  Union-find over the pair arrays: roots hook onto smaller
    roots, and pointer jumping flattens every tree between rounds.
    """
    parent = np.arange(n, dtype=np.int64)
    while True:
        ra, rb = parent[a], parent[b]
        link = ra != rb
        if not link.any():
            break
        np.minimum.at(parent, np.maximum(ra, rb)[link], np.minimum(ra, rb)[link])
        while not np.array_equal(up := parent[parent], parent):
            parent = up
    return parent


def box_components(model: LatticeModel, ranges: Sequence[range], marked: np.ndarray) -> np.ndarray:
    """Strong components of the sites of a box whose residues ``marked``
    marks: per site in C order, the smallest site of its component, or -1
    on an unmarked site.  The marks must hold every strong bond both ways,
    as a union of cores or the loose hard residues of a model that passes
    validation does (:func:`core_phases`)."""
    on = marked[residue_ids(model, ranges)]
    grid = on.reshape([len(r) for r in ranges])
    src, dst, _ = box_pairs(model, ranges, strong_classes(model, marked), grid)
    return np.where(on, components(on.size, src, dst), -1)


def excluded_set(model: LatticeModel, m: int) -> np.ndarray:
    """Island copies near the boundary of the centered cube Q_M, as a bool
    grid of shape ``(m,) * d`` over its sites in C order (index = site -
    ``cube_range(m).start``).

    Marks the sites in Q_M of every finite-component copy that meets
    Q_M but stays clear of the concentric cube of side m - R, where R is
    the island radius.  The copies of one island are its lift shifted by
    every period multiple that reaches into Q_M; with m - R = p / q, a
    site x lies in the inner cube iff -p <= 2 q x < p on every axis.
    """
    d, t = model.dimension, model.period
    out = np.zeros((m,) * d, dtype=bool)
    radius = model.summary.island_radius
    if radius == 0:
        return out
    if m <= radius:
        warnings.warn(
            f"cube side {m} does not exceed the island radius {radius}; "
            "the excluded set may cover the whole cube",
            stacklevel=2,
        )
    lo = cube_range(m).start
    inner = Fraction(m) - radius
    for comp in model.summary.islands():
        sites = np.array(comp.lift_sites, dtype=np.int64)
        # shifts s with some site + t s in [lo, lo + m) on each axis
        firsts = -((sites.max(axis=0) - lo) // t)
        lasts = (lo + m - 1 - sites.min(axis=0)) // t
        shifts = np.stack(
            np.meshgrid(*map(np.arange, firsts, lasts + 1), indexing="ij"), axis=-1
        ).reshape(-1, d)
        copies = sites + t * shifts[:, None, :]  # (shifts, k, d)
        twice = 2 * inner.denominator * copies
        near = ((-inner.numerator <= twice) & (twice < inner.numerator)).all(axis=2)
        inside = ((copies >= lo) & (copies < lo + m)).all(axis=2) & ~near.any(axis=1)[:, None]
        out[tuple((copies[inside] - lo).T)] = True
    return out


def coarsening_side(model: LatticeModel, phase: int) -> int:
    """Smallest multiple M of the period such that core sites sharing an
    M-cube are always connected within the concentric 3M-cube; raises
    RuntimeError when none is at most :data:`COARSENING_CAP` periods.

    Tested over all period^d translation classes of the cube lattice:
    for each, the strong components of the core sites of the 3M box come
    from :func:`box_components`.  Raises ValueError unless ``phase``
    numbers a hard phase of a model that passes validation.
    """
    model.check_phase(phase)
    t, d = model.period, model.dimension
    in_core = core_phases(model) == phase
    for mult in range(1, COARSENING_CAP + 1):
        m = mult * t
        inner = (slice(m, 2 * m),) * d
        for shift in product(range(t), repeat=d):
            box = [range(s - m, s + 2 * m) for s in shift]
            labels = box_components(model, box, in_core).reshape((3 * m,) * d)[inner]
            core_labels = labels[labels >= 0]
            if (core_labels != core_labels[:1]).any():
                break
        else:
            return m
    raise RuntimeError(
        f"coarsening side of phase {phase} exceeds {COARSENING_CAP} periods; "
        "the core connects too slowly for cube-based coarsening"
    )
