"""Discrete energies, coarse graining, recovery fields, and the limit functional.

The scaled energy of a spin field on the sites of (1/eps) Omega splits
into a strong part weighted eps^(d-1), a weak part weighted eps^d and a
forcing part weighted eps^d, all summed over ordered pairs inside the
domain.  The limit functional replaces the strong part by an anisotropic
interface integral (per-phase surface tensions) and the weak plus
forcing parts by a volume integral of the bulk density against the joint
phase states.  Targets are restricted to slabs and finite unions of
axis-aligned boxes, so every interface measure is computable in closed
form.  The volume integral is one exact slicing integral in every
dimension (:func:`_bulk_term`), so it stays an exact rational.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import namedtuple
from fractions import Fraction
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .bulk_density import PhiTable, phi_solution
from .connectivity import (
    box_components,
    check_sides,
    class_slices,
    coarsening_side,
    core_phases,
    loose_residues,
)
from .model import LatticeModel, Offset, Residue, SchemaError, is_json_int, number_str
from .surface_tension import SurfaceTable, canonical_direction


def _fraction(value, locus: str) -> Fraction:
    if is_json_int(value) or isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
    raise SchemaError(locus, f"expected an integer or a rational string, got {value!r}")


def _array(value, locus: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(locus, f"expected an array, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# domains and spin fields


class DomainSpec(namedtuple("DomainSpec", "lo hi")):
    """Open axis-aligned box with rational corners."""

    __slots__ = ()

    def __new__(cls, lo: tuple[Fraction, ...], hi: tuple[Fraction, ...]):
        if len(lo) != len(hi) or not lo:
            raise ValueError("domain corners must have equal positive length")
        for a, b in zip(lo, hi):
            if not a < b:
                raise ValueError("domain must have nonempty interior")
        return super().__new__(cls, lo, hi)

    @property
    def dimension(self) -> int:
        return len(self.lo)

    def site_ranges(self, eps: Fraction) -> list[range]:
        """Per-axis index ranges of the lattice sites strictly inside (1/eps) of the box."""
        if eps <= 0:
            raise ValueError("eps must be positive")
        out = []
        for a, b in zip(self.lo, self.hi):
            out.append(range(math.floor(a / eps) + 1, math.ceil(b / eps)))
        return out

    def to_json_dict(self) -> dict:
        return {
            "lo": [number_str(a) for a in self.lo],
            "hi": [number_str(b) for b in self.hi],
        }

    @classmethod
    def from_json_dict(cls, obj) -> "DomainSpec":
        if not isinstance(obj, Mapping) or "lo" not in obj or "hi" not in obj:
            raise SchemaError("omega", "expected an object with 'lo' and 'hi' lists")
        lo = tuple(
            _fraction(v, f"omega.lo[{i}]") for i, v in enumerate(_array(obj["lo"], "omega.lo"))
        )
        hi = tuple(
            _fraction(v, f"omega.hi[{i}]") for i, v in enumerate(_array(obj["hi"], "omega.hi"))
        )
        return cls(lo, hi)


class SiteValues(Mapping):
    """Read-only site -> spin view of a spin grid over a box of ranges."""

    def __init__(self, spins: np.ndarray, ranges: Sequence[range]):
        self._spins = spins
        self._ranges = tuple(ranges)

    def __getitem__(self, site) -> int:
        if not isinstance(site, tuple) or len(site) != len(self._ranges):
            raise KeyError(site)
        index = tuple(c - r.start for c, r in zip(site, self._ranges))
        if not all(0 <= i < n for i, n in zip(index, self._spins.shape)):
            raise KeyError(site)
        return int(self._spins[index])

    def __iter__(self):
        return itertools.product(*self._ranges)

    def __len__(self) -> int:
        return self._spins.size


class SpinField:
    """Spin values on exactly the sites of (1/eps) Omega.

    The spins are given as an array over ``omega.site_ranges(eps)`` in C
    order, which is the lexicographic site order, and stored as the
    read-only int8 array ``spins``; ``values`` is a site -> spin mapping
    view of it.
    """

    def __init__(self, eps: Fraction, omega: DomainSpec, spins: np.ndarray):
        self.eps = Fraction(eps)
        self.omega = omega
        self.ranges = omega.site_ranges(self.eps)
        shape = tuple(len(r) for r in self.ranges)
        spins = np.asarray(spins)
        if spins.shape != shape:
            raise ValueError(f"spin array has shape {spins.shape}, the domain sites {shape}")
        # on the caller's dtype: a value that the int8 cast would wrap to +-1 is refused
        bad = np.flatnonzero((spins != 1) & (spins != -1))
        if bad.size:
            index = np.unravel_index(bad[0], shape)
            site = tuple(r[int(i)] for r, i in zip(self.ranges, index))
            raise ValueError(f"spin at {site} must be +-1")
        self.spins = spins.astype(np.int8)
        self.spins.flags.writeable = False
        self.values = SiteValues(self.spins, self.ranges)

    def to_json_dict(self) -> dict:
        flat = self.spins.ravel()
        starts = np.flatnonzero(np.diff(flat, prepend=0))
        counts = np.diff(starts, append=flat.size)
        return {
            "eps": number_str(self.eps),
            "omega": self.omega.to_json_dict(),
            "spins_rle": [[int(c), int(flat[i])] for c, i in zip(counts, starts)],
        }

    @classmethod
    def from_json_dict(cls, obj) -> "SpinField":
        if not isinstance(obj, Mapping):
            raise SchemaError("$", "field document must be an object")
        for key in ("eps", "omega", "spins_rle"):
            if key not in obj:
                raise SchemaError("$", f"field document is missing {key!r}")
        eps = _fraction(obj["eps"], "eps")
        if eps <= 0:
            raise SchemaError("eps", f"must be positive, got {obj['eps']!r}")
        omega = DomainSpec.from_json_dict(obj["omega"])
        shape = tuple(len(r) for r in omega.site_ranges(eps))
        for i, pair in enumerate(_array(obj["spins_rle"], "spins_rle")):
            if (
                not isinstance(pair, Sequence)
                or len(pair) != 2
                or not all(is_json_int(c) for c in pair)
                or pair[0] <= 0
                or pair[1] not in (1, -1)
            ):
                raise SchemaError(f"spins_rle[{i}]", "expected [count, spin] with spin +-1")
        # the total is checked before decoding: a huge count must not allocate
        total = sum(pair[0] for pair in obj["spins_rle"])
        if total != math.prod(shape):
            raise SchemaError(
                "spins_rle",
                f"decodes to {total} spins but the domain has {math.prod(shape)} sites",
            )
        counts, spins = np.array(obj["spins_rle"], dtype=np.int64).reshape(-1, 2).T
        return cls(eps, omega, np.repeat(spins.astype(np.int8), counts).reshape(shape))


def load_field(path) -> SpinField:
    with open(path, "r", encoding="utf-8") as fh:
        return SpinField.from_json_dict(json.load(fh))


def save_field(field: SpinField, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(field.to_json_dict(), fh, indent=1, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# the scaled discrete energy


def f_eps(model: LatticeModel, field: SpinField) -> Fraction:
    """Exact scaled energy of a spin field (ordered-pair convention).

    Broken bonds are counted per (residue, offset) class on the two
    strided views of the spin grid that :func:`class_slices` cuts out
    for the class, and spins per (residue, spin) class on the residue's
    view (the zero offset); each count is weighted by its exact coupling
    or forcing value once.  No index array of the grid's size is built.
    """
    if field.omega.dimension != model.dimension:
        raise ValueError("field dimension does not match the model")
    strong = Fraction(0)
    weak = Fraction(0)
    for (res, off), w in model.weights.items():
        count = _broken(model, field, res, off)
        if off in model.strong_offsets(res):
            strong += 4 * w * count
        else:
            weak += 4 * w * count
    d = model.dimension
    forcing = Fraction(0)
    for (res, s), g in model.forcing.items():
        cut = class_slices(model, field.ranges, res, (0,) * d)
        if cut is not None:
            forcing += g * int(np.count_nonzero(field.spins[cut[0]] == s))
    eps = field.eps
    return eps ** (d - 1) * strong + eps**d * (weak + forcing)


def _broken(model: LatticeModel, field: SpinField, res: Residue, off: Offset) -> int:
    """Pairs of one (residue, offset) class inside the domain joining opposite spins."""
    cut = class_slices(model, field.ranges, res, off)
    if cut is None:
        return 0
    src, dst = cut
    return int(np.count_nonzero(field.spins[src] != field.spins[dst]))


def count_broken_strong(model: LatticeModel, field: SpinField) -> int:
    """Unordered strong bonds inside the domain joining opposite spins."""
    return sum(
        _broken(model, field, res, off)
        for res in model.residues() for off in model.strong_offsets(res)
        if off > (0,) * model.dimension
    )


# ---------------------------------------------------------------------------
# cubes of side m: cube z covers the sites z*m - m//2 + [0, m) on every axis


def _check_cube_side(model: LatticeModel, m: int) -> None:
    if m <= 0 or m % model.period:
        raise ValueError(f"cube side must be a positive multiple of {model.period}")


def _cube_axes(ranges: Sequence[range], m: int, before: int, after: int) -> list[range]:
    """Per axis, the z of the cubes whose sites, widened by ``before``
    sites below and ``after`` sites above, all lie in the axis range.

    The condition is an interval in z, so the kept cubes of every axis
    form one contiguous run and tile one box of the site grid.
    """
    half = m // 2
    return [
        range(-(-(r.start + half + before) // m), (r.stop - m - after + half) // m + 1)
        for r in ranges
    ]


def _cube_view(array: np.ndarray, ranges: Sequence[range], m: int, axes: Sequence[range]) -> np.ndarray:
    """The cubes ``axes`` (per-axis z runs) of a site array as a view of
    shape (n_1, ..., n_d, m, ..., m): cube index first, site in the cube
    last.  Writing to the view writes to ``array``."""
    half = m // 2
    d = len(axes)
    box = array[tuple(
        slice(z.start * m - half - r.start, z.stop * m - half - r.start)
        for z, r in zip(axes, ranges)
    )]
    split = box.reshape([k for z in axes for k in (len(z), m)])
    return split.transpose([*range(0, 2 * d, 2), *range(1, 2 * d, 2)])


class ExtensionResult(NamedTuple):
    field: SpinField
    phase: int
    m: int
    marked: tuple[tuple[int, ...], ...]

    @property
    def marked_count(self) -> int:
        return len(self.marked)


def extend(
    model: LatticeModel,
    phase: int,
    field: SpinField,
    m: int,
) -> ExtensionResult:
    """Coarse-grain a field over cubes of side m.

    On every cube whose concentric 3m cube lies fully inside the domain
    and where the field is constant on the infinite cluster of the given
    phase, the field is overwritten by that constant; such cubes where
    the cluster values disagree are reported as marked, in lexicographic
    order of z, and left as they are, as is everything near the boundary.

    The kept cubes tile one box of the site grid, taken as a view of
    shape (n_1, ..., n_d, m, ..., m); the minimum and maximum of the
    cluster spins of every cube are two reductions over its last d axes.
    The cluster mask is set residue by residue, on each core residue's
    strided view of the grid (:func:`class_slices` at the zero offset).
    Every kept cube holds cluster sites: m is a positive multiple of the
    period, so the cube holds every residue, and :func:`coarsening_side`
    has checked the phase and :func:`core_phases` the model, so the
    phase's core has a residue.
    Raises ValueError when m is below the phase's coarsening side, or
    when its core connects too slowly to have one.
    """
    _check_cube_side(model, m)
    try:
        side = coarsening_side(model, phase)
    except RuntimeError as exc:  # the core connects too slowly: no cube side coarsens it
        raise ValueError(str(exc)) from None
    if m < side:
        raise ValueError(f"cube side {m} is below the coarsening side {side} of phase {phase}")
    if field.omega.dimension != model.dimension:
        raise ValueError("field dimension does not match the model")
    ranges = field.ranges
    spins = field.spins.copy()
    core = np.zeros(spins.shape, dtype=bool)
    for res, j in zip(model.residues(), core_phases(model)):
        if j == phase and (cut := class_slices(model, ranges, res, (0,) * model.dimension)) is not None:
            core[cut[0]] = True
    # the concentric cube of side 3m lies within the sites
    axes = _cube_axes(ranges, m, m, m)
    d = len(axes)
    cube_core = _cube_view(core, ranges, m, axes)
    cube_spins = _cube_view(field.spins, ranges, m, axes)
    within = tuple(range(d, 2 * d))
    # +-2 where there is no cluster site: never the minimum or maximum of +-1
    low = np.where(cube_core, cube_spins, 2).min(axis=within)
    high = np.where(cube_core, cube_spins, -2).max(axis=within)
    origin = np.array([a.start for a in axes], dtype=np.int64)  # z of the grid's first cube
    uniform = low == high
    _cube_view(spins, ranges, m, axes)[uniform] = low[uniform].reshape((-1,) + (1,) * d)
    marked = tuple(map(tuple, (np.argwhere(~uniform) + origin).tolist()))
    return ExtensionResult(
        field=SpinField(field.eps, field.omega, spins),
        phase=phase,
        m=m,
        marked=marked,
    )


# ---------------------------------------------------------------------------
# piecewise-constant multiphase targets


class Slab(namedtuple("Slab", "normal offset")):
    """+1 where <x, normal> exceeds the offset, -1 on the other closed side."""

    __slots__ = ()

    def __new__(cls, normal: tuple[Fraction, ...], offset: Fraction):
        if not any(normal):
            raise ValueError("slab normal must be nonzero")
        return super().__new__(cls, normal, offset)

    def value_at(self, x: Sequence[Fraction]) -> int:
        dot = sum(a * b for a, b in zip(x, self.normal))
        return 1 if dot > self.offset else -1

    def integer_normal(self) -> tuple[int, ...]:
        scale = math.lcm(*(c.denominator for c in self.normal))
        return tuple(int(c * scale) for c in self.normal)

    def on_lattice(self, eps: Fraction, ranges: Sequence[range]) -> np.ndarray:
        """``value_at(eps * k)`` on the grid of sites k over ``ranges``, as
        int8: :meth:`on_cubes` of the cubes of side 0, the sites."""
        return self.on_cubes(eps, [np.arange(r.start, r.stop) for r in ranges], 0)

    def on_cubes(self, eps: Fraction, firsts: Sequence[np.ndarray], m: int) -> np.ndarray:
        """Per cube of a grid, +1 or -1 where ``value_at`` is that constant
        on the cube's closed footprint, 0 where it is not, as int8.

        The cubes are the products of the per-axis footprints
        eps [f, f + m], f in the integer array ``firsts[i]``.  The extremes
        of <x, normal> over a footprint sit at its corners, so they are
        sums of per-axis extremes, and the maximum is the minimum plus
        m times the 1-norm of the normal; +1 where the minimum exceeds the
        offset, -1 where the maximum does not.
        """
        normal = self.integer_normal()
        scale = math.lcm(*(c.denominator for c in self.normal))
        # <eps x, normal> > offset  iff  the integer <x / eps, scale normal>
        # exceeds floor(offset scale / eps); |<x / eps, scale normal>| <= reach
        # bounds the threshold and picks exact Python integers past int64
        bound = max((int(np.abs(f).max()) for f in firsts if f.size), default=0) + m
        reach = sum(abs(c) for c in normal) * bound
        threshold = max(-reach - 1, min(reach, math.floor(self.offset * scale / eps)))
        dtype = np.int64 if reach < 2**62 else object
        axes = np.ix_(*(f.astype(dtype) for f in firsts))
        low = sum(c * f + min(0, c * m) for c, f in zip(normal, axes))
        width = m * sum(abs(c) for c in normal)
        return (low > threshold).astype(np.int8) - (low <= threshold - width)


class Box(namedtuple("Box", "lo hi")):
    __slots__ = ()

    def __new__(cls, lo: tuple[Fraction, ...], hi: tuple[Fraction, ...]):
        if len(lo) != len(hi):
            raise ValueError("box corners must have equal length")
        for a, b in zip(lo, hi):
            if not a < b:
                raise ValueError("box must have nonempty interior")
        return super().__new__(cls, lo, hi)

    def contains(self, x: Sequence[Fraction]) -> bool:
        return all(a <= c < b for a, c, b in zip(self.lo, x, self.hi))

    def touches(self, other: "Box") -> bool:
        return all(
            max(a, c) <= min(b, d)
            for (a, b), (c, d) in zip(zip(self.lo, self.hi), zip(other.lo, other.hi))
        )


class Boxes(namedtuple("Boxes", "boxes")):
    """+1 on a finite union of axis boxes with pairwise disjoint closures."""

    __slots__ = ()

    def __new__(cls, boxes: tuple[Box, ...]):
        for i, a in enumerate(boxes):
            for b in boxes[i + 1 :]:
                if a.touches(b):
                    raise ValueError("boxes must have pairwise disjoint closures")
        return super().__new__(cls, boxes)

    def value_at(self, x: Sequence[Fraction]) -> int:
        return 1 if any(b.contains(x) for b in self.boxes) else -1

    def on_lattice(self, eps: Fraction, ranges: Sequence[range]) -> np.ndarray:
        """``value_at(eps * k)`` on the grid of sites k over ``ranges``, as int8."""
        out = np.full(tuple(len(r) for r in ranges), -1, dtype=np.int8)
        for b in self.boxes:
            # lo <= eps k < hi  iff  ceil(lo / eps) <= k < ceil(hi / eps)
            out[tuple(
                slice(min(max(math.ceil(lo / eps) - r.start, 0), len(r)),
                      min(max(math.ceil(hi / eps) - r.start, 0), len(r)))
                for lo, hi, r in zip(b.lo, b.hi, ranges)
            )] = 1
        return out

    def on_cubes(self, eps: Fraction, firsts: Sequence[np.ndarray], m: int) -> np.ndarray:
        """Per cube of a grid, as :meth:`Slab.on_cubes`: +1 where one box
        contains the cube's closed footprint, -1 where every box is apart
        from it, 0 otherwise.  A footprint that touches a box face from
        inside counts as contained, one that touches it from outside as
        apart.

        On each axis eps [f, f + m] lies in [lo, hi] iff
        ceil(lo / eps) <= f and f + m <= floor(hi / eps), and is apart from
        it iff f + m <= floor(lo / eps) or ceil(hi / eps) <= f; containing
        is an AND of the axis tests, being apart an OR.
        """
        shape = tuple(len(f) for f in firsts)
        # every f and f + m lie in (-reach, reach): clipping a bound there keeps the tests
        reach = max((int(np.abs(f).max()) for f in firsts if f.size), default=0) + m + 1

        def clip(bound: int) -> int:
            return max(-reach, min(reach, bound))

        axes = np.ix_(*firsts)
        contained = np.zeros(shape, dtype=bool)
        apart = np.ones(shape, dtype=bool)
        for b in self.boxes:
            inside = np.ones(shape, dtype=bool)
            outside = np.zeros(shape, dtype=bool)
            for lo, hi, f in zip(b.lo, b.hi, axes):
                inside = inside & (clip(math.ceil(lo / eps)) <= f) & (f + m <= clip(math.floor(hi / eps)))
                outside = outside | (f + m <= clip(math.floor(lo / eps))) | (clip(math.ceil(hi / eps)) <= f)
            contained |= inside
            apart &= outside
        return np.where(contained, 1, np.where(apart, -1, 0)).astype(np.int8)


class Constant(namedtuple("Constant", "value")):
    __slots__ = ()

    def __new__(cls, value: int):
        if value not in (1, -1):
            raise ValueError("constant phase value must be +-1")
        return super().__new__(cls, value)

    def value_at(self, x) -> int:
        return self.value

    def on_lattice(self, eps: Fraction, ranges: Sequence[range]) -> np.ndarray:
        return np.full(tuple(len(r) for r in ranges), self.value, dtype=np.int8)

    def on_cubes(self, eps: Fraction, firsts: Sequence[np.ndarray], m: int) -> np.ndarray:
        return np.full(tuple(len(f) for f in firsts), self.value, dtype=np.int8)


PhaseTarget = Slab | Boxes | Constant


class MultiphaseField(namedtuple("MultiphaseField", "phases")):
    __slots__ = ()

    def __new__(cls, phases: tuple[PhaseTarget, ...]):
        if not phases:
            raise ValueError("at least one phase target required")
        return super().__new__(cls, phases)

    def value_at(self, x: Sequence[Fraction]) -> tuple[int, ...]:
        return tuple(p.value_at(x) for p in self.phases)

    @classmethod
    def from_json_dict(cls, obj) -> "MultiphaseField":
        if not isinstance(obj, Mapping) or "phases" not in obj:
            raise SchemaError("$", "target document must be an object with a 'phases' list")
        phases: list[PhaseTarget] = []
        for i, spec in enumerate(_array(obj["phases"], "phases")):
            locus = f"phases[{i}]"
            if not isinstance(spec, Mapping) or len(spec) != 1:
                raise SchemaError(locus, "expected exactly one of slab/boxes/constant")
            if "slab" in spec:
                s = spec["slab"]
                if not isinstance(s, Mapping) or "normal" not in s or "offset" not in s:
                    raise SchemaError(f"{locus}.slab", "expected an object with 'normal' and 'offset'")
                normal = tuple(
                    _fraction(c, f"{locus}.slab.normal[{j}]")
                    for j, c in enumerate(_array(s["normal"], f"{locus}.slab.normal"))
                )
                phases.append(Slab(normal, _fraction(s["offset"], f"{locus}.slab.offset")))
            elif "boxes" in spec:
                boxes = []
                for j, b in enumerate(_array(spec["boxes"], f"{locus}.boxes")):
                    box = f"{locus}.boxes[{j}]"
                    if not isinstance(b, Mapping) or "lo" not in b or "hi" not in b:
                        raise SchemaError(box, "expected an object with 'lo' and 'hi' lists")
                    lo = tuple(_fraction(c, f"{box}.lo") for c in _array(b["lo"], f"{box}.lo"))
                    hi = tuple(_fraction(c, f"{box}.hi") for c in _array(b["hi"], f"{box}.hi"))
                    boxes.append(Box(lo, hi))
                phases.append(Boxes(tuple(boxes)))
            elif "constant" in spec:
                if not is_json_int(spec["constant"]) or spec["constant"] not in (1, -1):
                    raise SchemaError(f"{locus}.constant", "must be +-1")
                phases.append(Constant(spec["constant"]))
            else:
                raise SchemaError(locus, "expected one of slab/boxes/constant")
        return cls(tuple(phases))


# ---------------------------------------------------------------------------
# the limit functional


Interface = tuple[int, tuple[Fraction, ...], Fraction, "Box | None"]


def _interfaces(target: MultiphaseField, d: int) -> list[Interface]:
    """Every interface of ``target`` as (phase, normal, offset, clip): the
    plane <x, normal> = offset within the closed box ``clip``, or
    unclipped when ``clip`` is None.  A slab is one unclipped plane, a
    box 2d faces clipped to the box; phases come in order.

    Raises ValueError unless every normal has d coordinates, and
    NotImplementedError for a non-axis normal when d >= 3.
    """
    planes: list[Interface] = []
    for j, p in enumerate(target.phases, start=1):
        if isinstance(p, Slab):
            planes.append((j, p.normal, p.offset, None))
        elif isinstance(p, Boxes):
            for b in p.boxes:
                for axis in range(len(b.lo)):
                    unit = tuple(int(i == axis) for i in range(len(b.lo)))
                    planes += [(j, unit, b.lo[axis], b), (j, unit, b.hi[axis], b)]
    for j, normal, _, _ in planes:
        if len(normal) != d:
            raise ValueError(
                f"target phase {j} is {len(normal)}-dimensional, the domain {d}-dimensional"
            )
    if d >= 3 and any(sum(map(bool, normal)) > 1 for _, normal, _, _ in planes):
        raise NotImplementedError("interfaces with non-axis normals need dimension <= 2")
    return planes


def _check_target(
    model: LatticeModel, omega: DomainSpec, target: MultiphaseField
) -> list[Interface]:
    """The interfaces of ``target`` (:func:`_interfaces`) in ``omega``;
    raises ValueError unless the target has one phase per model phase
    and the domain has the model's dimension."""
    if len(target.phases) != model.num_phases:
        raise ValueError(f"target has {len(target.phases)} phases, model has {model.num_phases}")
    if omega.dimension != model.dimension:
        raise ValueError("domain dimension does not match the model")
    return _interfaces(target, omega.dimension)


def _measure(omega: DomainSpec, normal: Sequence, offset: Fraction, clip: Box | None):
    """H^(d-1) measure of the plane <x, normal> = offset inside the open
    domain and the closed box ``clip``: an exact rational for an axis
    normal, a float segment length for an oblique line (d = 2, unclipped)."""
    axes = [i for i, c in enumerate(normal) if c]
    if len(axes) == 1:
        axis = axes[0]
        if not omega.lo[axis] < offset / normal[axis] < omega.hi[axis]:
            return Fraction(0)
        lo, hi = omega.lo, omega.hi
        if clip is not None:
            lo, hi = tuple(map(max, lo, clip.lo)), tuple(map(min, hi, clip.hi))
        area = Fraction(1)
        for i in range(omega.dimension):
            if i != axis:
                area *= max(hi[i] - lo[i], Fraction(0))
        return area
    # the x-range of the line n0 x + n1 y = c where y lies in [lo1, hi1]
    (n0, n1), c = normal, offset
    ends = sorted((c - n1 * y) / n0 for y in (omega.lo[1], omega.hi[1]))
    dx = min(ends[1], omega.hi[0]) - max(ends[0], omega.lo[0])
    if dx <= 0:
        return Fraction(0)
    dy = n0 / n1 * dx
    return float(dx * dx + dy * dy) ** 0.5


def _bulk_term(omega: DomainSpec, target: MultiphaseField, phi: PhiTable) -> Fraction:
    """The integral of phi at the target's phase states over the domain, exactly.

    The integral over axes k, ..., d-1 at fixed x_0, ..., x_(k-1) = head
    is cut along axis k into strips, and each strip adds its width times
    the integral at its midpoint.  The cuts come from the interfaces
    restricted to head that still depend on an axis >= k:

    - when each of them is axis-aligned, at those normal to axis k (any d);
    - else two axes are left, as :func:`_interfaces` refuses a non-axis
      normal in dimension 3 or more: at the x_k of every crossing of two
      such lines, or of a line and a face x_(k+1) = lo or hi.

    Between two cuts no two interfaces of the section cross, so every
    cell of the section keeps its phase states and its bounding lines,
    and its measure is affine in x_k.  The section integral is then
    affine in x_k on each strip, and the midpoint rule is exact for it.
    """
    d = omega.dimension
    planes = [(normal, offset) for _, normal, offset, _ in _interfaces(target, d)]

    def integral(head: tuple[Fraction, ...]) -> Fraction:
        k = len(head)
        if k == d:
            return phi.value(target.value_at(head))
        live = [
            (n[k:], c - sum(a * x for a, x in zip(n, head)))
            for n, c in planes if any(n[k:])
        ]
        if all(sum(map(bool, n)) == 1 for n, _ in live):
            cuts = {c / n[0] for n, c in live if n[0]}
        else:
            lines = live + [((0, 1), omega.lo[k + 1]), ((0, 1), omega.hi[k + 1])]
            cuts = {
                (c * m[1] - e * n[1]) / det
                for (n, c), (m, e) in itertools.combinations(lines, 2)
                if (det := n[0] * m[1] - n[1] * m[0])
            }
        lo, hi = omega.lo[k], omega.hi[k]
        points = sorted({lo, hi} | {x for x in cuts if lo < x < hi})
        return sum(
            ((b - a) * integral(head + ((a + b) / 2,)) for a, b in zip(points, points[1:])),
            Fraction(0),
        )

    return integral(())


def f_hom(
    model: LatticeModel,
    omega: DomainSpec,
    target: MultiphaseField,
    surface: SurfaceTable,
    phi: PhiTable,
):
    """Interface term plus bulk term of the limit functional.

    The interface term sums, phase by phase, each interface's surface
    tension times its measure in the domain (:func:`_interfaces`,
    :func:`_measure`); each phase's sum is exact before it joins the
    total.  It is exact when every interface is axis-aligned; a 2D slab
    with an oblique normal contributes a float segment length and makes
    the result a float.  The bulk term is always an exact rational
    (:func:`_bulk_term`).  The inputs are checked by :func:`_check_target`.
    """
    interfaces = _check_target(model, omega, target)
    surface_total = Fraction(0)
    for j, group in itertools.groupby(interfaces, key=lambda face: face[0]):
        term = Fraction(0)
        for _, normal, offset, clip in group:
            area = _measure(omega, normal, offset, clip)
            if area:
                term += surface.value(j, normal) * area
        surface_total += term
    return surface_total + _bulk_term(omega, target, phi)


# ---------------------------------------------------------------------------
# recovery fields and convergence reports


def recovery_config(
    model: LatticeModel,
    omega: DomainSpec,
    target: MultiphaseField,
    eps,
    m: int,
    *,
    blocks: dict[tuple[int, tuple[int, ...]], np.ndarray] | None = None,
) -> SpinField:
    """Candidate minimizer: traces on the infinite clusters, optimal fill inside.

    Each cube of side m whose closed continuum footprint sits strictly
    inside the domain and on which every phase target is constant
    receives a translated copy of the island-corrected cube minimizer for
    the local phase states; sites of the infinite clusters always carry
    the target trace; everything else defaults to +1.  Last, each strong
    component of the loose hard sites takes the spin of its first site,
    so no island copy cut by a seam between cubes breaks a strong bond.

    A footprint eps [f, f + m] is strictly inside the domain iff its end
    sites f and f + m are sites, so the kept cubes tile one box of the
    site grid, taken as a view of shape (n_1, ..., n_d, m, ..., m).  Each
    phase target classifies the whole cube grid at once
    (:meth:`Slab.on_cubes`, :meth:`Boxes.on_cubes`); a cube is pasted
    when no phase reads 0 there, one ``view[mask] = block`` per distinct
    tuple of phase states.

    ``blocks`` caches the cube minimizers by (m, states); a caller that
    builds several fields of one model, as :func:`converge_report` does,
    passes one dict to solve each block once.
    """
    _check_cube_side(model, m)
    _check_target(model, omega, target)
    eps = Fraction(eps)
    if blocks is None:
        blocks = {}
    ranges = omega.site_ranges(eps)
    spins = np.ones(tuple(len(r) for r in ranges), dtype=np.int8)
    d = omega.dimension

    axes = _cube_axes(ranges, m, 0, 1)
    firsts = [np.arange(a.start, a.stop, dtype=np.int64) * m - m // 2 for a in axes]
    states = np.stack([p.on_cubes(eps, firsts, m) for p in target.phases])
    todo = (states != 0).all(axis=0)
    view = _cube_view(spins, ranges, m, axes)
    while todo.any():
        # the distinct state tuples in the order of their first cube
        column = states[(slice(None), *np.unravel_index(np.argmax(todo), todo.shape))]
        key = tuple(column.tolist())
        paste = todo & (states == column.reshape((-1,) + (1,) * d)).all(axis=0)
        if (m, key) not in blocks:
            blocks[m, key] = phi_solution(model, m, key, corrected=True).spins.reshape((m,) * d)
        view[paste] = blocks[m, key]
        todo &= ~paste

    # each core residue's sites, a strided view of the grid, carry its phase's trace
    cuts = [
        (j, cut[0]) for res, j in zip(model.residues(), core_phases(model))
        if j and (cut := class_slices(model, ranges, res, (0,) * d)) is not None
    ]
    for j, phase in enumerate(target.phases, start=1):
        on_core = [view for k, view in cuts if k == j]
        if on_core:
            trace = phase.on_lattice(eps, ranges)
            for view in on_core:
                spins[view] = trace[view]

    loose = loose_residues(model)
    if loose.any():
        first = box_components(model, ranges, loose)
        flat = spins.reshape(-1)
        on = first >= 0
        flat[on] = flat[first[on]]
    return SpinField(eps, omega, spins)


class ConvergenceRow(NamedTuple):
    eps: Fraction
    energy: Fraction
    gap: Fraction


class ConvergenceReport(NamedTuple):
    reference: Fraction
    m: int
    surface_side: int
    phi_side: int
    rows: tuple[ConvergenceRow, ...]

    @property
    def decreasing(self) -> bool:
        gaps = [r.gap for r in self.rows]
        return all(b <= a for a, b in zip(gaps, gaps[1:]))

    @property
    def final_relative(self):
        if not self.rows:
            raise ValueError("empty report")
        if self.reference == 0:
            return None
        return self.rows[-1].gap / abs(self.reference)


def target_directions(target: MultiphaseField, dimension: int) -> list[tuple[int, ...]]:
    """The sorted canonical normals of the interfaces of ``target``
    (:func:`_interfaces`): the normal of each slab, and the coordinate
    axes when some phase has a box."""
    return sorted({canonical_direction(n) for _, n, _, _ in _interfaces(target, dimension)})


def limit_tables(
    model: LatticeModel,
    omega: DomainSpec,
    target: MultiphaseField,
    surface_sides: Sequence[int],
    phi_sides: Sequence[int],
) -> tuple[SurfaceTable, PhiTable]:
    """The surface table at the target's normals and the bulk table that
    :func:`f_hom` reads for ``target``, built after every input is
    checked: the target (:func:`_check_target`), then both side lists
    (:func:`check_sides`).  So an input that is refused solves no cell."""
    _check_target(model, omega, target)
    surface_sides, phi_sides = check_sides(surface_sides), check_sides(phi_sides)
    surface = SurfaceTable.from_model(model, target_directions(target, omega.dimension), surface_sides)
    return surface, PhiTable.from_model(model, phi_sides)


def converge_report(
    model: LatticeModel,
    omega: DomainSpec,
    target: MultiphaseField,
    eps_list: Sequence,
    m: int,
    surface_side: int | None = None,
    phi_side: int | None = None,
) -> ConvergenceReport:
    """Energies of recovery fields along shrinking eps against the limit value.

    The pasting side m controls the construction only.  The reference
    value is assembled from tables at surface_side (default m) and
    phi_side; since the construction error shrinks like eps while the
    bulk table error shrinks like 1/side, phi_side defaults to the
    finest scale 1/min(eps), rounded up to a period multiple, so that
    the gap column is dominated by the eps-dependent part.  The eps
    list, m and the inputs of :func:`limit_tables` are all checked
    before any cell is solved.
    """
    eps_list = [Fraction(e) for e in eps_list]
    if not eps_list or any(a <= b for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("eps list must be strictly decreasing")
    if eps_list[-1] <= 0:
        raise ValueError("eps must be positive")
    _check_cube_side(model, m)
    if surface_side is None:
        surface_side = m
    if phi_side is None:
        need = math.ceil(1 / eps_list[-1])
        t = model.period
        phi_side = max(m, -(-need // t) * t)
    surface, phi = limit_tables(model, omega, target, (surface_side,), (phi_side,))
    reference = f_hom(model, omega, target, surface, phi)
    rows = []
    blocks: dict[tuple[int, tuple[int, ...]], np.ndarray] = {}
    for eps in eps_list:
        field = recovery_config(model, omega, target, eps, m, blocks=blocks)
        value = f_eps(model, field)
        rows.append(ConvergenceRow(eps=eps, energy=value, gap=abs(value - reference)))
    return ConvergenceReport(
        reference=reference, m=m, surface_side=surface_side, phi_side=phi_side,
        rows=tuple(rows),
    )
