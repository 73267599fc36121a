"""Directional surface energies of the strong phases.

For a hard phase j and a direction nu, the finite-size surface tension
is the minimal cost of the strong bonds broken by a transition layer
inside a rotated cube of side t, with the sharp-interface datum
+1 on <k, nu> > 0, -1 on <k, nu> <= 0 imposed outside the cube; the
value is normalized by t^(d-1).  Pairs with at least one endpoint in
the cube count, both orientations each.

The cube is realised exactly in a rational orthogonal frame aligned
with nu, half-open along every frame axis, so opposite faces are never
double-counted at any side.  Values are exact rationals; minimisation
is an s/t min-cut (strong couplings are positive on a coercive model).
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .connectivity import ConnectivitySummary, classify, coarsening_side
from .ground_state import GroundStateInstance, minimize
from .model import LatticeModel


def _rational_vector(direction: Sequence) -> tuple[Fraction, ...]:
    vec = tuple(Fraction(c) for c in direction)
    if not any(vec):
        raise ValueError("direction must be nonzero")
    return vec


def canonical_direction(direction: Sequence) -> tuple[int, ...]:
    """Primitive integer vector, sign-normalised (first nonzero positive).

    Both nu and -nu, and any positive rational rescaling, map to the
    same key; the surface tension is symmetric and 0-homogeneous in nu.
    """
    vec = _rational_vector(direction)
    scale = math.lcm(*(c.denominator for c in vec))
    ints = [int(c * scale) for c in vec]
    g = math.gcd(*(abs(c) for c in ints))
    ints = [c // g for c in ints]
    for c in ints:
        if c:
            if c < 0:
                ints = [-x for x in ints]
            break
    return tuple(ints)


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


def in_frame_cube(site: Sequence[int], frame: Sequence[tuple[Fraction, ...]], side: int) -> bool:
    """Exact membership in the half-open rotated cube of the given side.

    Along each frame vector w the slab is  -side/2 <= <x, w>/|w| < side/2,
    tested without square roots by comparing <x, w>^2 against
    side^2 |w|^2 / 4.
    """
    for w in frame:
        q = sum(int(c) * wc for c, wc in zip(site, w))
        lsq = Fraction(side * side, 4) * sum(wc * wc for wc in w)
        if q < 0 and q * q > lsq:
            return False
        if q > 0 and q * q >= lsq:
            return False
    return True


def _cube_sites(dimension: int, frame, side: int) -> list[tuple[int, ...]]:
    bound = math.isqrt(dimension * side * side) // 2 + 2
    return [
        site
        for site in itertools.product(range(-bound, bound + 1), repeat=dimension)
        if in_frame_cube(site, frame, side)
    ]


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
    frame = orthogonal_frame(nu)

    inside = [s for s in _cube_sites(model.dimension, frame, side) if summary.in_core(phase, s)]
    if not inside:
        raise ValueError(f"phase {phase} has no cluster sites in the cube of side {side}")
    inside_set = set(inside)
    pair_terms = []
    fixed: dict[tuple[int, ...], int] = {}
    for x in inside:
        for off in model.strong_offsets(model.residue_of(x)):
            y = tuple(a + b for a, b in zip(x, off))
            weight = model.pair_weight(x, y)
            if y in inside_set:
                if x < y:
                    pair_terms.append((x, y, 2 * weight))
            else:
                fixed[y] = 1 if sum(a * b for a, b in zip(y, nu)) > 0 else -1
                pair_terms.append((x, y, 2 * weight))

    variables = tuple(sorted(inside) + sorted(fixed))
    instance = GroundStateInstance(
        variables=variables,
        pair_terms=tuple(pair_terms),
        fixed=fixed,
    )
    solution = minimize(instance, method="cut")
    return solution.energy / side ** (model.dimension - 1)


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


def fhom_estimate(
    model: LatticeModel,
    phase: int,
    direction: Sequence,
    sides: Sequence[int],
    summary: ConnectivitySummary | None = None,
) -> SurfaceRow:
    """Cell values along at least two increasing sides; no extrapolation."""
    sides = tuple(sides)
    if len(sides) < 2:
        raise ValueError("at least two cube sides required")
    if any(a >= b for a, b in zip(sides, sides[1:])):
        raise ValueError("cube sides must be strictly increasing")
    if summary is None:
        summary = classify(model)
    values = tuple(cell_value(model, phase, direction, t, summary) for t in sides)
    return SurfaceRow(phase, canonical_direction(direction), sides, values)


def fhom_total(
    model: LatticeModel,
    direction: Sequence,
    sides: Sequence[int],
    summary: ConnectivitySummary | None = None,
) -> Fraction:
    """Sum over the phases of the per-phase estimates in one direction."""
    if summary is None:
        summary = classify(model)
    return sum(
        (
            fhom_estimate(model, j, direction, sides, summary).estimate
            for j in range(1, model.num_phases + 1)
        ),
        Fraction(0),
    )


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
        rows = {}
        for direction in directions:
            nu = canonical_direction(direction)
            for phase in range(1, model.num_phases + 1):
                values = tuple(cell_value(model, phase, nu, t, summary) for t in sides)
                rows[(phase, nu)] = SurfaceRow(phase, nu, sides, values)
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

    def directions(self) -> list[tuple[int, ...]]:
        return sorted({nu for _, nu in self._rows})

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
