"""Bulk interaction density between the strong-phase states.

phi_M(z) is the minimal weak-bond plus forcing energy per site over the
centered discrete cube Q_M, with every strong component that touches the
infinite cluster of phase j frozen at the prescribed spin z_j and every
finite strong component free but constant.  That cluster is made of
whole residue classes (the core of phase j), so a site of Q_M is held
at z_j exactly when its residue lies in that core; only the loose hard
sites, outside every core, need their strong components in the cube.
phi_tilde_M(z) solves the same built cube with the finite components
too close to its boundary for a whole translate to fit also pinned at
+1; the two estimates sandwich the limit density:

    phi_tilde_M(z) - c / M  <=  phi(z)  <=  phi_tilde_M(z)

with the explicit constant of :func:`island_error_constant`, and
phi_M(z) increases along doubling cube sides that stay aligned to the
period grid.
"""

from __future__ import annotations

import itertools
import warnings
from fractions import Fraction
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .connectivity import (
    box_components,
    box_pairs,
    check_sides,
    core_phases,
    cube_range,
    excluded_set,
    loose_residues,
    residue_ids,
)
from .ground_state import CellTerms, Solution, minimize, scaled_tables
from .model import LatticeModel


def _check_states(model: LatticeModel, states: Sequence[int]) -> tuple[int, ...]:
    states = tuple(states)
    if len(states) != model.num_phases:
        raise ValueError(f"expected {model.num_phases} phase states, got {len(states)}")
    return _key(states)


def hard_components_in_cube(model: LatticeModel, m: int) -> np.ndarray:
    """Connected pieces of the loose hard sites inside Q_M, one label per site.

    A hard site is loose when its residue lies outside every core
    (islands and infinite-multiple pieces).  The labels are those of
    :func:`connectivity.box_components` with the loose residues marked,
    so a periodic component generally splinters near the boundary.  On
    a model that passes validation, which :func:`core_phases` checks
    first, a strong bond never leaves a core.
    """
    return box_components(model, (cube_range(m),) * model.dimension, loose_residues(model))


def build_phi_instance(model: LatticeModel, m: int, states: Sequence[int]) -> CellTerms:
    """Term arrays of the cube problem whose minimum over Q_M defines phi_M(states).

    Sites are numbered in C (lexicographic) order of Q_M.  A site whose
    residue lies in the core of phase j is fixed at that phase's state,
    site by site; each strong component of the loose hard sites (from
    :func:`hard_components_in_cube`) is one free group, and soft sites
    are free on their own.  Each weak pair is taken once, from its
    lexicographically smaller site, at twice the bond weight (the model
    declares both orientations); forcing enters per residue.  The
    island-corrected problem is these terms after :func:`_pin_islands`.
    """
    if m <= 0:
        raise ValueError("cube side must be positive")
    states = _check_states(model, states)
    d = model.dimension
    box = (cube_range(m),) * d
    residues = list(model.residues())
    res_id = residue_ids(model, box)

    labels = hard_components_in_cube(model, m)
    group = np.where(labels >= 0, labels, np.arange(labels.size))
    fixed = np.array((0,) + states, dtype=np.int8)[core_phases(model)[res_id]]
    classes = [
        (r, off) for r in residues for off in sorted(model.weak_offsets(r)) if off > (0,) * d
    ]
    u, v, pair_class = box_pairs(model, box, classes, np.ones((m,) * d, dtype=bool))
    scale, weights, h_plus, h_minus = scaled_tables(
        [2 * model.weights[c] for c in classes],
        [model.forcing.get((r, 1), Fraction(0)) for r in residues],
        [model.forcing.get((r, -1), Fraction(0)) for r in residues],
    )
    return CellTerms(
        fixed=fixed,
        group=group,
        u=u,
        v=v,
        pair_class=pair_class,
        weights=weights,
        site_class=res_id,
        h_plus=h_plus,
        h_minus=h_minus,
        scale=scale,
    )


def _pin_islands(model: LatticeModel, m: int, terms: CellTerms) -> CellTerms:
    """``terms`` with the sites of the :func:`connectivity.excluded_set` grid,
    whole island copies of loose hard sites, also fixed at +1; ``terms``
    itself when the grid is empty."""
    grid = excluded_set(model, m).ravel()
    if not grid.any():
        return terms
    return terms._replace(fixed=np.where(grid, np.int8(1), terms.fixed))


def phi_solution(
    model: LatticeModel, m: int, states: Sequence[int], corrected: bool = False
) -> Solution:
    """The exact minimum of the cube problem of :func:`build_phi_instance`,
    island-corrected by :func:`_pin_islands` when ``corrected``."""
    terms = build_phi_instance(model, m, states)
    return minimize(_pin_islands(model, m, terms) if corrected else terms)


def phi_m(model, m, states) -> Fraction:
    """Plain finite-cube density phi_M(states), an exact cell minimum."""
    return phi_solution(model, m, states).energy / Fraction(m**model.dimension)


def island_error_constant(model: LatticeModel) -> Fraction:
    """Explicit c with  phi_tilde_M - c / M <= phi <= phi_tilde_M.

    c = 2^d R (P a + 2 g) where R is the island radius, P the maximal
    weak degree, a the largest weak coupling magnitude and g the largest
    forcing magnitude.  Zero when the model has no finite components.
    """
    radius = model.summary.island_radius
    if radius == 0:
        return Fraction(0)
    residues = list(model.residues())
    degree = max(len(model.weak_offsets(res)) for res in residues)
    max_weak = max(
        (abs(model.weights[res, off]) for res in residues for off in model.weak_offsets(res)),
        default=Fraction(0),
    )
    max_forcing = max((abs(g) for g in model.forcing.values()), default=Fraction(0))
    return 2**model.dimension * radius * (degree * max_weak + 2 * max_forcing)


class PhiRow(NamedTuple):
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


def phi_bracket(model, m, states) -> PhiRow:
    """Both finite-cube estimates at one side, with the sandwich bracket.

    The cube is built once; when the excluded set pins no site (always
    with island radius 0), the corrected cube problem is that cube, solved
    once, and ``corrected = plain``.
    """
    terms = build_phi_instance(model, m, states)
    pinned = _pin_islands(model, m, terms)
    plain = corrected = minimize(terms).energy / m**model.dimension
    if pinned is not terms:
        corrected = minimize(pinned).energy / m**model.dimension
    c = island_error_constant(model)
    return PhiRow(m=m, plain=plain, corrected=corrected,
                  lower=plain, upper=corrected + c / m)


def phi_estimate(
    model: LatticeModel,
    states: Sequence[int],
    m_list: Sequence[int],
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
    m_list = check_sides(m_list)
    if not m_list:
        raise ValueError("at least one cube side required")
    rows = [phi_bracket(model, m, states) for m in m_list]
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
    def from_model(cls, model: LatticeModel, sides: Sequence[int]) -> "PhiTable":
        rows = {}
        for states in itertools.product((1, -1), repeat=model.num_phases):
            rows[states] = phi_estimate(model, states, sides)
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


def _key(states: Sequence[int]) -> tuple[int, ...]:
    """The states as ints; raises ValueError unless each equals +1 or -1,
    before ``int`` could truncate one (-1.5 to -1)."""
    if any(s not in (1, -1) for s in states):
        raise ValueError("phase states must be +-1")
    return tuple(int(s) for s in states)
