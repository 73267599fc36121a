"""Bulk interaction density between the strong-phase states.

phi_M(z) is the minimal weak-bond plus forcing energy per site over the
centered discrete cube Q_M, with every strong component that touches the
infinite cluster of phase j frozen at the prescribed spin z_j and every
finite strong component free but constant.  phi_tilde_M(z) additionally
pins at +1 the finite components too close to the cube boundary for a
whole translate of them to fit; the two estimates sandwich the limit
density:

    phi_tilde_M(z) - c / M  <=  phi(z)  <=  phi_tilde_M(z)

with the explicit constant of :func:`island_error_constant`, and
phi_M(z) increases along doubling cube sides that stay aligned to the
period grid.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from .connectivity import ConnectivitySummary, classify, cube_range, excluded_set
from .ground_state import CellTerms, Solution, minimize
from .model import LatticeModel, Residue, Site


def _check_states(model: LatticeModel, states: Sequence[int]) -> tuple[int, ...]:
    states = tuple(int(s) for s in states)
    if len(states) != model.num_phases:
        raise ValueError(f"expected {model.num_phases} phase states, got {len(states)}")
    if any(s not in (1, -1) for s in states):
        raise ValueError("phase states must be +-1")
    return states


def _cube_residues(model: LatticeModel, m: int) -> np.ndarray:
    """Residue number of every site of Q_M, in C (lexicographic) order.

    Residues are numbered in sorted order, as ``model.residues()`` lists
    them.
    """
    t = model.period
    axis = np.array([c % t for c in cube_range(m)], dtype=np.int64)
    res = np.zeros((), dtype=np.int64)
    for _ in range(model.dimension):
        res = res[..., None] * t + axis
    return res.ravel()


def _class_pairs(model: LatticeModel, m: int, res: Residue, off) -> tuple[np.ndarray, np.ndarray]:
    """Sites of Q_M at residue ``res`` whose neighbour at ``off`` is in Q_M.

    Returns the site numbers (C order) and those of the neighbours.  The
    sites of one residue class form a grid of stride ``period`` along
    every axis, so the class is cut out axis by axis.
    """
    t = model.period
    lo = -(m // 2)
    index = np.zeros((), dtype=np.int64)
    step = 0
    for r, o in zip(res, off):
        a = np.arange((r - lo) % t, m, t)
        a = a[(a + o >= 0) & (a + o < m)]
        index = index[..., None] * m + a
        step = step * m + o
    src = index.ravel()
    return src, src + step


def hard_components_in_cube(
    model: LatticeModel, m: int, summary: ConnectivitySummary | None = None
) -> np.ndarray:
    """Connected pieces of each strong phase inside Q_M, one label per site.

    Sites are numbered in C (lexicographic) order.  A hard site's label
    is the number of the smallest site of its component; soft sites get
    -1.  Connectivity uses strong bonds with both endpoints in the cube,
    so a periodic component generally splinters near the boundary.  The
    components come from a union-find over the strong (residue, offset)
    class arrays: roots hook onto smaller roots, and pointer jumping
    flattens every tree between rounds.
    """
    residues = list(model.residues())
    hard = np.array([model.labels[r] != 0 for r in residues])[_cube_residues(model, m)]
    ends = [
        _class_pairs(model, m, r, off)
        for r in residues for off in sorted(model.strong_offsets(r))
    ]
    a = np.concatenate([src for src, _ in ends] + [np.empty(0, dtype=np.int64)])
    b = np.concatenate([dst for _, dst in ends] + [np.empty(0, dtype=np.int64)])
    parent = np.arange(hard.size, dtype=np.int64)
    while True:
        ra, rb = parent[a], parent[b]
        link = ra != rb
        if not link.any():
            break
        np.minimum.at(parent, np.maximum(ra, rb)[link], np.minimum(ra, rb)[link])
        while not np.array_equal(up := parent[parent], parent):
            parent = up
    return np.where(hard, parent, -1)


def build_phi_instance(
    model: LatticeModel,
    m: int,
    states: Sequence[int],
    summary: ConnectivitySummary | None = None,
    pinned: Iterable[Site] = (),
) -> CellTerms:
    """Term arrays of the cube problem whose minimum over Q_M defines phi_M(states).

    Sites are numbered in C (lexicographic) order of Q_M.  A strong
    component that meets the core of its phase is fixed at that phase's
    state; every other component is one free group, and soft sites are
    free on their own.  Each weak pair is taken once, from its
    lexicographically smaller site, at twice the bond weight (the model
    declares both orientations); forcing enters per residue.

    ``pinned`` sites (used by the island-corrected estimate) are fixed
    at +1 with their groups; they belong to finite components, so this
    never conflicts with the phase states imposed on the infinite
    clusters.
    """
    if m <= 0:
        raise ValueError("cube side must be positive")
    if summary is None:
        summary = classify(model)
    states = _check_states(model, states)
    d = model.dimension
    residues = list(model.residues())
    res_id = _cube_residues(model, m)

    labels = hard_components_in_cube(model, m, summary)
    hard = labels >= 0
    group = np.where(hard, labels, np.arange(labels.size))
    in_core = np.array([summary.in_core(model.labels[r], r) for r in residues])
    held = np.zeros(labels.size, dtype=bool)
    held[labels[hard & in_core[res_id]]] = True
    phase = np.array([model.labels[r] for r in residues])[res_id[group]]
    fixed = np.where(held[group], np.array((0,) + states)[phase], 0).astype(np.int8)

    pins = [tuple(x) for x in pinned]
    if pins:
        coords = np.array(pins, dtype=np.int64).reshape(len(pins), d) + m // 2
        outside = ((coords < 0) | (coords >= m)).any(axis=1)
        index = np.ravel_multi_index(np.where(outside[:, None], 0, coords).T, (m,) * d)
        bad = np.flatnonzero(outside | (fixed[index] == -1))
        if bad.size:
            k = bad[0]
            where = "is outside the cube" if outside[k] else "conflicts with a phase state"
            raise ValueError(f"pinned site {pins[k]} {where}")
        fixed[index] = 1

    classes = [
        (r, off) for r in residues for off in sorted(model.weak_offsets(r)) if off > (0,) * d
    ]
    ends = [_class_pairs(model, m, r, off) for r, off in classes]
    bonds = [2 * model.weights[c] for c in classes]
    h_plus = [model.forcing.get((r, 1), Fraction(0)) for r in residues]
    h_minus = [model.forcing.get((r, -1), Fraction(0)) for r in residues]
    scale = math.lcm(*(x.denominator for x in bonds + h_plus + h_minus))
    scaled = lambda xs: tuple(x.numerator * (scale // x.denominator) for x in xs)
    empty = [np.empty(0, dtype=np.int64)]
    return CellTerms(
        fixed=fixed,
        group=group,
        u=np.concatenate([src for src, _ in ends] + empty),
        v=np.concatenate([dst for _, dst in ends] + empty),
        pair_class=np.concatenate(
            [np.full(src.size, k, dtype=np.int64) for k, (src, _) in enumerate(ends)] + empty
        ),
        weights=scaled(bonds),
        site_class=res_id,
        h_plus=scaled(h_plus),
        h_minus=scaled(h_minus),
        scale=scale,
        sites=(cube_range(m),) * d,
    )


def phi_solution(
    model: LatticeModel,
    m: int,
    states: Sequence[int],
    summary: ConnectivitySummary | None = None,
    corrected: bool = False,
    method: str = "auto",
    cap: int | None = None,
    allow_anneal: bool = False,
    seed: int = 0,
) -> Solution:
    if summary is None:
        summary = classify(model)
    pinned = excluded_set(model, m, summary) if corrected else ()
    instance = build_phi_instance(model, m, states, summary, pinned)
    return minimize(instance, method=method, cap=cap, allow_anneal=allow_anneal, seed=seed)


def phi_m(model, m, states, summary=None, **solver) -> Fraction:
    """Plain finite-cube density phi_M(states), exact unless annealed."""
    sol = phi_solution(model, m, states, summary, corrected=False, **solver)
    return sol.energy / Fraction(m**model.dimension)


def phi_tilde_m(model, m, states, summary=None, **solver) -> Fraction:
    """Island-corrected density; upper bound for the limit density."""
    sol = phi_solution(model, m, states, summary, corrected=True, **solver)
    return sol.energy / Fraction(m**model.dimension)


def island_error_constant(
    model: LatticeModel, summary: ConnectivitySummary | None = None
) -> Fraction:
    """Explicit c with  phi_tilde_M - c / M <= phi <= phi_tilde_M.

    c = 2^d R (P a + 2 g) where R is the island radius, P the maximal
    weak degree, a the largest weak coupling magnitude and g the largest
    forcing magnitude.  Zero when the model has no finite components.
    """
    if summary is None:
        summary = classify(model)
    radius = summary.island_radius
    if radius == 0:
        return Fraction(0)
    weak = [
        abs(model.pair_weight(res, tuple(a + b for a, b in zip(res, off))))
        for res in model.residues()
        for off in model.weak_offsets(res)
    ]
    max_weak = max(weak, default=Fraction(0))
    per_site = model.max_weak_degree * max_weak + 2 * model.max_abs_forcing
    return 2**model.dimension * radius * per_site


@dataclass(frozen=True)
class PhiRow:
    """One cube side: both estimates and the derived bracket for the limit.

    The limit density lies in [plain, corrected + c/m]: finite cubes
    underestimate along side multiples, and the island-corrected value
    is within c/m of the limit.  A model without finite islands pins
    nothing, so there ``corrected`` equals ``plain`` (and c = 0).
    """

    m: int
    plain: Fraction
    corrected: Fraction
    lower: Fraction
    upper: Fraction


def phi_bracket(model, m, states, summary=None, **solver) -> PhiRow:
    """Both finite-cube estimates at one side, with the sandwich bracket.

    With island radius 0 the excluded set is empty, so the corrected cube
    problem is the plain one: it is solved once and ``corrected = plain``.
    """
    if summary is None:
        summary = classify(model)
    plain = phi_m(model, m, states, summary, **solver)
    if summary.island_radius == 0:
        corrected = plain
    else:
        corrected = phi_tilde_m(model, m, states, summary, **solver)
    c = island_error_constant(model, summary)
    return PhiRow(m=m, plain=plain, corrected=corrected,
                  lower=plain, upper=corrected + c / m)


def phi_estimate(
    model: LatticeModel,
    states: Sequence[int],
    m_list: Sequence[int],
    summary: ConnectivitySummary | None = None,
    **solver,
) -> list[PhiRow]:
    """Estimates over increasing cube sides, checking the doubling inequality.

    Whenever the list contains nested multiples m | m' whose centered
    cubes tile on the period grid, the plain values must satisfy
    phi_m' >= phi_m provided all weak couplings are nonnegative; a
    violation (possible with antiferromagnetic couplings, where the
    inequality genuinely fails) is reported as a warning, not an error,
    since both values remain correct.  Pairs whose sub-cube translates
    fall off the period grid are exempt: there the two sides solve
    genuinely different pinning patterns and small decreases are normal.
    """
    if not m_list:
        raise ValueError("at least one cube side required")
    if any(a >= b for a, b in zip(m_list, m_list[1:])):
        raise ValueError("cube sides must be strictly increasing")
    if summary is None:
        summary = classify(model)
    rows = [phi_bracket(model, m, states, summary, **solver) for m in m_list]
    t = model.period
    for i, small in enumerate(rows):
        for big in rows[i + 1 :]:
            if big.m % small.m or small.m % t:
                continue
            # restricting a big-cube minimizer to its sub-cubes needs every
            # translate of the small centered cube to land on the period
            # grid, otherwise the comparison is between different problems
            shift = small.m // 2 - big.m // 2
            if shift % t:
                continue
            if big.plain < small.plain:
                warnings.warn(
                    f"phi_{big.m}{tuple(states)} = {big.plain} < phi_{small.m}"
                    f"{tuple(states)} = {small.plain}; the doubling inequality "
                    "requires nonnegative weak couplings",
                    stacklevel=2,
                )
    return rows


class PhiTable:
    """Density estimates for every joint phase state, at increasing sides."""

    def __init__(self, num_phases: int, rows: Mapping[tuple[int, ...], Sequence[PhiRow]]):
        self.num_phases = num_phases
        self._rows = {
            _key(states): sorted(rs, key=lambda r: r.m) for states, rs in rows.items()
        }
        for states, rs in self._rows.items():
            if not rs:
                raise ValueError(f"no rows for states {states}")

    @classmethod
    def from_model(
        cls,
        model: LatticeModel,
        sides: Sequence[int],
        summary: ConnectivitySummary | None = None,
        **solver,
    ) -> "PhiTable":
        if summary is None:
            summary = classify(model)
        rows = {}
        for states in itertools.product((1, -1), repeat=model.num_phases):
            rows[states] = phi_estimate(model, states, sides, summary, **solver)
        return cls(model.num_phases, rows)

    def states(self) -> list[tuple[int, ...]]:
        return sorted(self._rows, reverse=True)

    def rows(self, states: Sequence[int]) -> list[PhiRow]:
        key = _key(states)
        if key not in self._rows:
            raise KeyError(f"density table has no entry for states {key}")
        return self._rows[key]

    def value(self, states: Sequence[int]) -> Fraction:
        """Best available estimate: corrected value at the largest side."""
        return self.rows(states)[-1].corrected

    def bracket(self, states: Sequence[int]) -> tuple[Fraction, Fraction]:
        row = self.rows(states)[-1]
        return row.lower, row.upper


def _key(states: Sequence[int]) -> tuple[int, ...]:
    return tuple(int(s) for s in states)
