"""Directional surface energies of the strong phases.

For a hard phase j and a direction nu, the finite-size surface tension
is the minimal cost of the strong bonds broken by a transition layer
inside a rotated cube of side t, with the sharp-interface datum
+1 on <k, nu> > 0, -1 on <k, nu> <= 0 imposed outside the cube; the
value is normalized by t^(d-1).  Pairs with at least one endpoint in
the cube count, both orientations each.

The cube is realised exactly in an orthogonal frame aligned with nu,
half-open along every frame axis, so opposite faces are never
double-counted at any side.  The frame vectors are scaled to integers,
so the cube and its bonds are built on an integer grid.  Values are
exact rationals; minimisation is an s/t min-cut (strong couplings are
positive on a coercive model).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from .connectivity import ConnectivitySummary, classify, coarsening_side
from .ground_state import CellTerms, minimize
from .model import LatticeModel


def _rational_vector(direction: Sequence) -> tuple[Fraction, ...]:
    vec = tuple(Fraction(c) for c in direction)
    if not any(vec):
        raise ValueError("direction must be nonzero")
    return vec


def _primitive(vec: Sequence[Fraction]) -> tuple[int, ...]:
    """The primitive integer vector that is a positive multiple of ``vec``."""
    scale = math.lcm(*(c.denominator for c in vec))
    ints = [int(c * scale) for c in vec]
    g = math.gcd(*ints)
    return tuple(c // g for c in ints)


def canonical_direction(direction: Sequence) -> tuple[int, ...]:
    """Primitive integer vector, sign-normalised (first nonzero positive).

    Both nu and -nu, and any positive rational rescaling, map to the
    same key; the surface tension is symmetric and 0-homogeneous in nu.
    """
    ints = _primitive(_rational_vector(direction))
    first = next(c for c in ints if c)
    return ints if first > 0 else tuple(-c for c in ints)


def orthogonal_frame(direction: Sequence) -> list[tuple[Fraction, ...]]:
    """Exact orthogonal basis whose first vector is parallel to ``direction``.

    Gram-Schmidt over the rationals against the standard basis, without
    normalisation, so all coordinates stay exact.
    """
    first = _rational_vector(direction)
    d = len(first)
    frame: list[tuple[Fraction, ...]] = [first]
    for axis in range(d):
        if len(frame) == d:
            break
        v = [Fraction(1 if i == axis else 0) for i in range(d)]
        for w in frame:
            norm = sum(c * c for c in w)
            coef = sum(a * b for a, b in zip(v, w)) / norm
            v = [a - coef * b for a, b in zip(v, w)]
        if any(v):
            frame.append(tuple(v))
    if len(frame) != d:
        raise ValueError("failed to complete an orthogonal frame")
    return frame


def _cube_mask(frame: Sequence[tuple[int, ...]], side: int, bound: int) -> np.ndarray:
    """Sites of the half-open rotated cube on the grid [-bound, bound]^d.

    ``frame`` holds orthogonal integer vectors.  Along each w the slab is
    -side/2 <= <x, w>/|w| < side/2: with q = <x, w> and S = side^2 |w|^2,
    4q^2 <= S where q < 0 and 4q^2 < S where q > 0, that is
    -isqrt(S) <= 2q <= isqrt(S - 1).  The grid is tested one
    first-coordinate slab at a time, in int64, or in Python ints
    (``dtype=object``) when 2q could pass int64.  The result is a boolean
    array in C (lexicographic) order.
    """
    d = len(frame)
    n = 2 * bound + 1
    widest = max(sum(abs(c) for c in w) for w in frame)
    dtype = np.int64 if 2 * bound * widest < 2**62 else object
    coords = np.arange(-bound, bound + 1).astype(dtype)
    slabs = []  # per w: (first-coordinate weight, <rest, w> over the slab grid, bounds of 2q)
    for w in frame:
        rest = np.zeros((n,) * (d - 1), dtype=dtype)
        for axis in range(1, d):
            shape = [1] * (d - 1)
            shape[axis - 1] = n
            rest = rest + coords.reshape(shape) * w[axis]
        s_sq = side * side * sum(c * c for c in w)
        slabs.append((w[0], 2 * rest, -math.isqrt(s_sq), math.isqrt(s_sq - 1)))
    mask = np.empty((n,) * d, dtype=bool)
    for i, x0 in enumerate(range(-bound, bound + 1)):
        inside = np.ones((n,) * (d - 1), dtype=bool)
        for w0, rest2, lo, hi in slabs:
            q2 = rest2 + 2 * x0 * w0
            inside &= (q2 >= lo) & (q2 <= hi)
        mask[i] = inside
    return mask


def cell_value(
    model: LatticeModel,
    phase: int,
    direction: Sequence,
    side: int,
    summary: ConnectivitySummary | None = None,
) -> Fraction:
    """Surface tension estimate of one phase at one cube side.

    Warns (but still computes) when the side is too small for the cube
    coarse graining of the phase to be meaningful.
    """
    if not 1 <= phase <= model.num_phases:
        raise ValueError(f"phase must be in 1..{model.num_phases}, got {phase}")
    if side <= 0:
        raise ValueError("cube side must be positive")
    if summary is None:
        summary = classify(model)
    if not summary.core_residues.get(phase):
        raise ValueError(f"phase {phase} has no infinite-unique component")
    nu = _rational_vector(direction)
    if len(nu) != model.dimension:
        raise ValueError(f"direction must have {model.dimension} coordinates")
    try:
        needed = coarsening_side(model, phase, summary)
    except RuntimeError:
        needed = None
    if needed is not None and side < needed:
        warnings.warn(
            f"cube side {side} is below the coarsening side {needed} of phase {phase}",
            stacklevel=2,
        )
    frame = [_primitive(w) for w in orthogonal_frame(nu)]
    terms = _cell_instance(model, summary.core_residues[phase], frame, side)
    if not terms.size:
        raise ValueError(f"phase {phase} has no cluster sites in the cube of side {side}")
    solution = minimize(terms, method="cut")
    return solution.energy / side ** (model.dimension - 1)


def _cell_instance(
    model: LatticeModel, core: frozenset, frame: Sequence[tuple[int, ...]], side: int
) -> CellTerms:
    """The cut problem of one cube as term arrays: the core sites inside
    are free, their strong neighbours outside are fixed to the
    sharp-interface datum.

    Inside sites come first, in lexicographic order, then the outside
    ones, also sorted.  Pairs are built per (residue, offset) class on
    the cube grid; an inner pair is taken once, from its
    lexicographically smaller site.
    """
    d = model.dimension
    cell = (model.period,) * d
    bound = math.isqrt(d * side * side) // 2 + 2
    in_core = np.zeros(cell, dtype=bool)
    for res in core:
        in_core[res] = True
    axis_residues = np.arange(-bound, bound + 1) % model.period
    inside = _cube_mask(frame, side, bound) & in_core[np.ix_(*(axis_residues,) * d)]
    sites = np.argwhere(inside)  # grid indices, lexicographic
    site_class = np.ravel_multi_index(axis_residues[sites].T, cell)
    classes = [(res, off) for res in sorted(core) for off in sorted(model.strong_offsets(res))]
    pad = max((abs(c) for _, off in classes for c in off), default=0)
    padded = np.pad(inside, pad)
    # inside sites and their neighbours as flat indices of the padded grid
    flat = np.ravel_multi_index((sites + pad).T, padded.shape)
    number = np.full(padded.size, -1, dtype=np.int64)
    number[flat] = np.arange(flat.size)
    strides = [math.prod(padded.shape[k + 1:]) for k in range(d)]

    src, dst, pair_class = [], [], []
    for k, (res, off) in enumerate(classes):
        x = np.flatnonzero(site_class == np.ravel_multi_index(res, cell))
        y = flat[x] + sum(o * stride for o, stride in zip(off, strides))
        if off < (0,) * d:
            x, y = x[number[y] < 0], y[number[y] < 0]
        src.append(x)
        dst.append(y)
        pair_class.append(np.full(x.size, k, dtype=np.int64))
    empty = [np.empty(0, dtype=np.int64)]
    src, dst = np.concatenate(src + empty), np.concatenate(dst + empty)
    outer, outer_number = np.unique(dst[number[dst] < 0], return_inverse=True)
    v = number[dst]
    v[v < 0] = flat.size + outer_number

    outer_sites = np.array(np.unravel_index(outer, padded.shape), dtype=np.int64).T - pad - bound
    normal = frame[0]
    dtype = np.int64 if (bound + pad) * sum(abs(c) for c in normal) < 2**62 else object
    above = (outer_sites.astype(dtype) * np.array(normal, dtype=dtype)).sum(axis=1) > 0
    bonds = [2 * model.weights[c] for c in classes]
    scale = math.lcm(*(w.denominator for w in bonds))
    n = flat.size + outer.size
    datum = np.where(above, 1, -1).astype(np.int8)
    return CellTerms(
        fixed=np.concatenate([np.zeros(flat.size, dtype=np.int8), datum]),
        group=np.arange(n, dtype=np.int64),
        u=src,
        v=v,
        pair_class=np.concatenate(pair_class + empty),
        weights=tuple(w.numerator * (scale // w.denominator) for w in bonds),
        site_class=np.zeros(n, dtype=np.int64),
        h_plus=(0,),
        h_minus=(0,),
        scale=scale,
        sites=np.concatenate([sites - bound, outer_sites]),
    )


@dataclass(frozen=True)
class SurfaceRow:
    """Cell values of one (phase, direction) over increasing cube sides."""

    phase: int
    direction: tuple[int, ...]
    sides: tuple[int, ...]
    values: tuple[Fraction, ...]

    @property
    def estimate(self) -> Fraction:
        return self.values[-1]

    @property
    def increment(self) -> Fraction | None:
        """Last difference magnitude; the only convergence diagnostic offered."""
        if len(self.values) < 2:
            return None
        return abs(self.values[-1] - self.values[-2])


def _check_sides(sides: Sequence[int]) -> tuple[int, ...]:
    sides = tuple(sides)
    if len(sides) < 2:
        raise ValueError("at least two cube sides required")
    if any(a >= b for a, b in zip(sides, sides[1:])):
        raise ValueError("cube sides must be strictly increasing")
    return sides


def _surface_rows(
    model: LatticeModel,
    phases: Iterable[int],
    direction: Sequence,
    sides: tuple[int, ...],
    summary: ConnectivitySummary,
) -> list[SurfaceRow]:
    """Cell values of each phase in one direction, at every side."""
    rows = []
    for phase in phases:
        values = tuple(cell_value(model, phase, direction, t, summary) for t in sides)
        rows.append(SurfaceRow(phase, canonical_direction(direction), sides, values))
    return rows


def fhom_estimate(
    model: LatticeModel,
    phase: int,
    direction: Sequence,
    sides: Sequence[int],
    summary: ConnectivitySummary | None = None,
) -> SurfaceRow:
    """Cell values along at least two increasing sides; no extrapolation."""
    sides = _check_sides(sides)
    if summary is None:
        summary = classify(model)
    return _surface_rows(model, [phase], direction, sides, summary)[0]


def fhom_total(
    model: LatticeModel,
    direction: Sequence,
    sides: Sequence[int],
    summary: ConnectivitySummary | None = None,
) -> Fraction:
    """Sum over the phases of the per-phase estimates in one direction."""
    if summary is None:
        summary = classify(model)
    sides = _check_sides(sides)
    rows = _surface_rows(model, range(1, model.num_phases + 1), direction, sides, summary)
    return sum((row.estimate for row in rows), Fraction(0))


class SurfaceTable:
    """Per-phase surface tensions, keyed by canonical direction."""

    def __init__(self, num_phases: int, rows: Mapping[tuple[int, tuple[int, ...]], SurfaceRow]):
        self.num_phases = num_phases
        self._rows = {
            (phase, canonical_direction(direction)): row
            for (phase, direction), row in rows.items()
        }

    @classmethod
    def from_model(
        cls,
        model: LatticeModel,
        directions: Iterable[Sequence],
        sides: Sequence[int] | int,
        summary: ConnectivitySummary | None = None,
    ) -> "SurfaceTable":
        if isinstance(sides, int):
            sides = (sides,)
        sides = tuple(sides)
        if summary is None:
            summary = classify(model)
        phases = range(1, model.num_phases + 1)
        rows = {}
        for direction in directions:
            for row in _surface_rows(model, phases, canonical_direction(direction), sides, summary):
                rows[(row.phase, row.direction)] = row
        return cls(model.num_phases, rows)

    @classmethod
    def from_values(
        cls, num_phases: int, values: Mapping[tuple[int, Sequence], Fraction]
    ) -> "SurfaceTable":
        """Table of externally known values (closed forms), one side each."""
        rows = {}
        for (phase, direction), v in values.items():
            nu = canonical_direction(direction)
            rows[(phase, nu)] = SurfaceRow(phase, nu, (0,), (Fraction(v),))
        return cls(num_phases, rows)

    def row(self, phase: int, direction: Sequence) -> SurfaceRow:
        key = (phase, canonical_direction(direction))
        if key not in self._rows:
            raise KeyError(
                f"surface table has no entry for phase {key[0]} and direction {key[1]}"
            )
        return self._rows[key]

    def value(self, phase: int, direction: Sequence) -> Fraction:
        return self.row(phase, direction).estimate

    def total(self, direction: Sequence) -> Fraction:
        return sum(
            (self.value(j, direction) for j in range(1, self.num_phases + 1)), Fraction(0)
        )

    def rows(self) -> list[SurfaceRow]:
        return [self._rows[k] for k in sorted(self._rows)]
