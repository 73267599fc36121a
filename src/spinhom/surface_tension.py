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
so the cube and its bonds are built on an integer grid, the box holding
the cube and its neighbours; each face of the cube, and the datum, is
one :func:`connectivity.halfspace` test of that grid.  The cell's pairs
are the :func:`connectivity.box_pairs` of the core sites in the cube,
and its sites are only those the pairs touch (the free core sites and
their held neighbours), in the box's C order.
Values are exact rationals, each cell's minimum from
:func:`ground_state.minimize`: elimination for a cell of few free
sites, else an s/t min-cut, which never finds a cell frustrated on a
coercive model (its strong couplings are positive).
"""

from __future__ import annotations

import math
import warnings
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .connectivity import box_pairs, check_sides, coarsening_side, core_phases, halfspace, residue_ids, strong_classes
from .ground_state import CellTerms, minimize, scaled_tables
from .model import LatticeModel


def _rational_vector(direction: Sequence) -> tuple[Fraction, ...]:
    vec = tuple(Fraction(c) for c in direction)
    if not any(vec):
        raise ValueError("direction must be nonzero")
    return vec


def _primitive(vec: Sequence[Fraction | int]) -> tuple[int, ...]:
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


def orthogonal_frame(direction: Sequence) -> list[tuple[int, ...]]:
    """Orthogonal primitive integer vectors, the first a positive multiple
    of ``direction``.

    Fraction-free Gram-Schmidt against the standard basis: each step
    v <- |w|^2 v - <v, w> w is the rational step scaled by |w|^2 > 0, so
    every vector has the direction and sign of the rational process's.
    """
    frame = [_primitive(_rational_vector(direction))]
    d = len(frame[0])
    for axis in range(d):
        if len(frame) == d:
            break
        v = [int(i == axis) for i in range(d)]
        for w in frame:
            norm = sum(c * c for c in w)
            dot = sum(a * b for a, b in zip(v, w))
            v = [norm * a - dot * b for a, b in zip(v, w)]
        if any(v):
            frame.append(_primitive(v))
    if len(frame) != d:
        raise ValueError("failed to complete an orthogonal frame")
    return frame


def _cube_mask(frame: Sequence[tuple[int, ...]], side: int, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """Sites of the half-open rotated cube on the grid [-bound, bound]^d,
    and the sharp-interface datum <x, frame[0]> > 0 on the same grid.

    ``frame`` holds orthogonal integer vectors.  Along each w the slab is
    -side/2 <= <x, w>/|w| < side/2: with q = <x, w> and S = side^2 |w|^2,
    4q^2 <= S where q < 0 and 4q^2 < S where q > 0, that is the two
    closed faces 2q >= -isqrt(S) and 2q <= isqrt(S - 1), each one
    :func:`connectivity.halfspace` test.  The results are boolean arrays
    in C (lexicographic) order.
    """
    grid = [np.arange(-bound, bound + 1)] * len(frame)
    mask = np.ones((2 * bound + 1,) * len(frame), dtype=bool)
    for w in frame:
        s_sq = side * side * sum(c * c for c in w)
        mask &= halfspace(w, Fraction(-math.isqrt(s_sq), 2), grid, closed=True)[0]
        mask &= halfspace(w, Fraction(math.isqrt(s_sq - 1), 2), grid)[1]
    return mask, halfspace(frame[0], 0, grid)[0]


def _check_cell(
    model: LatticeModel, phase: int, direction: Sequence, side: int
) -> tuple[Fraction, ...]:
    """The direction of a cell as a rational vector; raises ValueError
    unless the model passes validation and the phase, the direction and
    the side make a cell."""
    model.check_valid()
    model.check_phase(phase)
    check_sides((side,))
    nu = _rational_vector(direction)
    if len(nu) != model.dimension:
        raise ValueError(f"direction must have {model.dimension} coordinates")
    return nu


def _check_core_sites(model: LatticeModel, phase: int, nu: Sequence[Fraction], side: int) -> None:
    """Raises ValueError when the cube of the cell holds no core site of
    the phase.

    Only sides up to ceil(sqrt(d) P) build the cell: a larger cube holds
    the axis-aligned cube [-P/2, P/2)^d, whose sites stand for every
    residue, so it holds a core site of every phase.
    """
    if side <= math.isqrt(model.dimension * model.period**2 - 1) + 1:
        _cell_terms(model, phase, nu, side)


def check_cells(model: LatticeModel, cells: Iterable[tuple[int, Sequence, int]]) -> None:
    """Check the cells ``(phase, direction, side)`` in order, as
    :func:`cell_value` does, before any of them is solved.

    Raises ValueError at the first invalid cell, after the warning of
    that cell.  Warns when a side is below the coarsening side of its
    phase, too small for the cube coarse graining of the phase to be
    meaningful; the coarsening side is computed once per phase, and a
    phase whose core connects too slowly to have one is not warned
    about.
    """
    coarsening: dict[int, int | None] = {}
    for phase, direction, side in cells:
        nu = _check_cell(model, phase, direction, side)
        if phase not in coarsening:
            try:
                coarsening[phase] = coarsening_side(model, phase)
            except RuntimeError:
                coarsening[phase] = None
        if coarsening[phase] is not None and side < coarsening[phase]:
            warnings.warn(
                f"cube side {side} is below the coarsening side {coarsening[phase]} of phase {phase}"
            )
        _check_core_sites(model, phase, nu, side)


def cell_value(model: LatticeModel, phase: int, direction: Sequence, side: int) -> Fraction:
    """Surface tension estimate of one phase at one cube side.

    Does not warn about the coarsening side; :func:`check_cells` does.
    """
    nu = _check_cell(model, phase, direction, side)
    terms = _cell_terms(model, phase, nu, side)
    return minimize(terms).energy / side ** (model.dimension - 1)


def _cell_terms(model: LatticeModel, phase: int, nu: Sequence[Fraction], side: int) -> CellTerms:
    """The cell of one phase, direction and side; raises ValueError when
    no core site of the phase lies in its cube, so no site is free."""
    terms = _cell_instance(model, core_phases(model) == phase, orthogonal_frame(nu), side)
    if terms.fixed.all():
        raise ValueError(f"phase {phase} has no cluster sites in the cube of side {side}")
    return terms


def _cell_instance(
    model: LatticeModel, in_core: np.ndarray, frame: Sequence[tuple[int, ...]], side: int
) -> CellTerms:
    """The cell problem of one cube as term arrays: its sites are the core
    sites in the cube and their strong neighbours, in C order.

    ``in_core`` tells, per residue number, whether the residue belongs
    to the phase's core.  The core sites inside the cube are free; every
    other site is held at the sharp-interface datum, +1 where
    <x, nu> > 0 and -1 elsewhere.  Pairs are the
    :func:`connectivity.box_pairs` of the core's strong classes with the
    free sites inside.  The box that holds the cube and those neighbours
    is only scratch: the pairs are renumbered onto the kept sites.
    """
    d = model.dimension
    classes = strong_classes(model, in_core)
    pad = max((abs(c) for _, off in classes for c in off), default=0)
    bound = math.isqrt(d * side * side) // 2 + 2 + pad
    box = (range(-bound, bound + 1),) * d
    inside, datum = _cube_mask(frame, side, bound)
    inside &= in_core[residue_ids(model, box)].reshape(inside.shape)
    u, v, pair_class = box_pairs(model, box, classes, inside)
    # every source is inside, so the kept sites are the inside ones and the targets
    kept = inside.ravel().copy()
    kept[v] = True
    sites = kept.nonzero()[0]
    fixed = np.where(datum.ravel()[sites], np.int8(1), np.int8(-1))
    fixed[inside.ravel()[sites]] = 0
    del kept, datum  # box-wide; gone before the pairs are renumbered
    u = np.searchsorted(sites, u)  # one at a time: one box-numbered pair array at most
    v = np.searchsorted(sites, v)
    scale, weights = scaled_tables([2 * model.weights[c] for c in classes])
    n = sites.size
    return CellTerms(
        fixed=fixed,
        group=np.arange(n, dtype=np.int64),
        u=u,
        v=v,
        pair_class=pair_class,
        weights=weights,
        site_class=np.zeros(n, dtype=np.int64),
        h_plus=(0,),
        h_minus=(0,),
        scale=scale,
    )


class SurfaceRow(NamedTuple):
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
        cls, model: LatticeModel, directions: Iterable[Sequence], sides: Sequence[int]
    ) -> "SurfaceTable":
        sides = check_sides(sides)
        directions = [canonical_direction(direction) for direction in directions]
        phases = range(1, model.num_phases + 1)
        check_cells(model, [(j, nu, t) for nu in directions for j in phases for t in sides])
        rows = {
            (j, nu): SurfaceRow(j, nu, sides, tuple(cell_value(model, j, nu, t) for t in sides))
            for nu in directions
            for j in phases
        }
        return cls(model.num_phases, rows)

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
