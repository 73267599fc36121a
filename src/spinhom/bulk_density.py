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
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .connectivity import ConnectivitySummary, classify, cube_sites, excluded_set
from .ground_state import GroundStateInstance, Solution, minimize
from .model import LatticeModel, Site


def _check_states(model: LatticeModel, states: Sequence[int]) -> tuple[int, ...]:
    states = tuple(int(s) for s in states)
    if len(states) != model.num_phases:
        raise ValueError(f"expected {model.num_phases} phase states, got {len(states)}")
    if any(s not in (1, -1) for s in states):
        raise ValueError("phase states must be +-1")
    return states


def hard_components_in_cube(
    model: LatticeModel, m: int, summary: ConnectivitySummary | None = None
) -> list[tuple[int, frozenset]]:
    """Connected pieces of each strong phase inside Q_M.

    Connectivity uses strong bonds with both endpoints in the cube, so a
    periodic component generally splinters near the boundary.
    """
    sites = cube_sites(model.dimension, m)
    in_cube = set(sites)
    seen: set[Site] = set()
    out = []
    for x in sites:
        if x in seen:
            continue
        phase = model.label(model.residue_of(x))
        if phase == 0:
            continue
        comp = {x}
        queue = [x]
        while queue:
            u = queue.pop()
            for off in model.strong_offsets(model.residue_of(u)):
                v = tuple(a + b for a, b in zip(u, off))
                if v in in_cube and v not in comp:
                    comp.add(v)
                    queue.append(v)
        seen |= comp
        out.append((phase, frozenset(comp)))
    return out


def build_phi_instance(
    model: LatticeModel,
    m: int,
    states: Sequence[int],
    summary: ConnectivitySummary | None = None,
    pinned: Iterable[Site] = (),
) -> GroundStateInstance:
    """Quadratic instance whose minimum over Q_M defines phi_M(states).

    ``pinned`` sites (used by the island-corrected estimate) are frozen
    at +1; they belong to finite components, so this never conflicts
    with the phase states imposed on the infinite clusters.
    """
    if m <= 0:
        raise ValueError("cube side must be positive")
    if summary is None:
        summary = classify(model)
    states = _check_states(model, states)
    sites = cube_sites(model.dimension, m)
    in_cube = set(sites)

    groups = []
    fixed: dict[Site, int] = {}
    for phase, comp in hard_components_in_cube(model, m, summary):
        if any(summary.in_core(phase, x) for x in comp):
            for x in comp:
                fixed[x] = states[phase - 1]
        if len(comp) > 1:
            groups.append(comp)
    for x in pinned:
        x = tuple(x)
        if x not in in_cube:
            raise ValueError(f"pinned site {x} is outside the cube")
        if fixed.get(x, 1) != 1:
            raise ValueError(f"pinned site {x} conflicts with a phase state")
        fixed[x] = 1

    pair_terms = []
    unary_terms = {}
    for x in sites:
        res = model.residue_of(x)
        for off in model.weak_offsets(res):
            y = tuple(a + b for a, b in zip(x, off))
            if y in in_cube and x < y:
                pair_terms.append((x, y, 2 * model.pair_weight(x, y)))
        gp = model.forcing_value(x, 1)
        gm = model.forcing_value(x, -1)
        if gp or gm:
            unary_terms[x] = (gp, gm)

    return GroundStateInstance(
        variables=tuple(sites),
        pair_terms=tuple(pair_terms),
        unary_terms=unary_terms,
        fixed=fixed,
        groups=tuple(groups),
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
