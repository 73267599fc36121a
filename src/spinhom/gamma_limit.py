"""Discrete energies, coarse graining, recovery fields, and the limit functional.

The scaled energy of a spin field on the sites of (1/eps) Omega splits
into a strong part weighted eps^(d-1), a weak part weighted eps^d and a
forcing part weighted eps^d, all summed over ordered pairs inside the
domain.  The limit functional replaces the strong part by an anisotropic
interface integral (per-phase surface tensions) and the weak plus
forcing parts by a volume integral of the bulk density against the joint
phase states.  Targets are restricted to slabs and finite unions of
axis-aligned boxes, so every interface measure is computable in closed
form; volumes stay exact rationals throughout.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from . import geometry
from .bulk_density import PhiTable, phi_solution
from .connectivity import class_pairs, coarsening_side, core_phases, residue_ids
from .model import LatticeModel, Offset, Residue, SchemaError, Site, is_json_int, number_str
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


@dataclass(frozen=True)
class DomainSpec:
    """Open axis-aligned box with rational corners."""

    lo: tuple[Fraction, ...]
    hi: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.lo) != len(self.hi) or not self.lo:
            raise ValueError("domain corners must have equal positive length")
        for a, b in zip(self.lo, self.hi):
            if not a < b:
                raise ValueError("domain must have nonempty interior")

    @property
    def dimension(self) -> int:
        return len(self.lo)

    def volume(self) -> Fraction:
        vol = Fraction(1)
        for a, b in zip(self.lo, self.hi):
            vol *= b - a
        return vol

    def site_ranges(self, eps: Fraction) -> list[range]:
        """Per-axis index ranges of the lattice sites strictly inside (1/eps) of the box."""
        if eps <= 0:
            raise ValueError("eps must be positive")
        out = []
        for a, b in zip(self.lo, self.hi):
            out.append(range(math.floor(a / eps) + 1, math.ceil(b / eps)))
        return out

    def sites(self, eps: Fraction) -> list[Site]:
        return list(itertools.product(*self.site_ranges(eps)))

    def to_json_dict(self) -> dict:
        return {
            "lo": [number_str(a) for a in self.lo],
            "hi": [number_str(b) for b in self.hi],
        }

    @classmethod
    def from_json_dict(cls, obj, locus: str = "omega") -> "DomainSpec":
        if not isinstance(obj, Mapping) or "lo" not in obj or "hi" not in obj:
            raise SchemaError(locus, "expected an object with 'lo' and 'hi' lists")
        lo = tuple(
            _fraction(v, f"{locus}.lo[{i}]") for i, v in enumerate(_array(obj["lo"], f"{locus}.lo"))
        )
        hi = tuple(
            _fraction(v, f"{locus}.hi[{i}]") for i, v in enumerate(_array(obj["hi"], f"{locus}.hi"))
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

    The spins are stored as a read-only int8 array ``spins`` over
    ``omega.site_ranges(eps)`` in C order, which is the lexicographic site
    order; ``values`` is a site -> spin mapping view of it.  ``values`` may
    be given as such a mapping or as an array of that shape.
    """

    def __init__(self, eps: Fraction, omega: DomainSpec, values: Mapping[Site, int] | np.ndarray):
        self.eps = Fraction(eps)
        self.omega = omega
        self.ranges = omega.site_ranges(self.eps)
        shape = tuple(len(r) for r in self.ranges)
        if isinstance(values, np.ndarray):
            if values.shape != shape:
                raise ValueError(f"spin array has shape {values.shape}, the domain sites {shape}")
            spins = values
        else:
            if len(values) != math.prod(shape):
                raise ValueError("field values must cover the domain sites exactly")
            try:
                spins = np.array([values[k] for k in itertools.product(*self.ranges)])
            except KeyError:
                raise ValueError("field values must cover the domain sites exactly") from None
            spins = spins.reshape(shape)
        bad = np.flatnonzero(~np.isin(spins, (1, -1)))
        if bad.size:
            index = np.unravel_index(bad[0], shape)
            site = tuple(r[int(i)] for r, i in zip(self.ranges, index))
            raise ValueError(f"spin at {site} must be +-1")
        self.spins = spins.astype(np.int8)
        self.spins.flags.writeable = False
        self.values = SiteValues(self.spins, self.ranges)

    def sites(self) -> list[Site]:
        return list(itertools.product(*self.ranges))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SpinField)
            and self.eps == other.eps
            and self.omega == other.omega
            and np.array_equal(self.spins, other.spins)
        )

    @classmethod
    def constant(cls, eps, omega: DomainSpec, value: int = 1) -> "SpinField":
        eps = Fraction(eps)
        shape = tuple(len(r) for r in omega.site_ranges(eps))
        return cls(eps, omega, np.full(shape, value, dtype=np.int8))

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


def f_eps(model: LatticeModel, field: SpinField, omega: DomainSpec | None = None) -> Fraction:
    """Exact scaled energy of a spin field (ordered-pair convention).

    Broken bonds are counted per (residue, offset) class over the class
    pairs of the spin grid, and spins per residue class; each count is
    weighted by its exact coupling or forcing value once.
    """
    if omega is not None and omega != field.omega:
        raise ValueError("field domain does not match the requested domain")
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
    number = {res: k for k, res in enumerate(model.residues())}
    rid = residue_ids(model, field.ranges)
    spins = field.spins.ravel()
    counts = {s: np.bincount(rid[spins == s], minlength=len(number)).tolist() for s in (1, -1)}
    forcing = Fraction(0)
    for (res, s), g in model.forcing.items():
        forcing += g * counts[s][number[res]]
    d = model.dimension
    eps = field.eps
    return eps ** (d - 1) * strong + eps**d * (weak + forcing)


def _broken(model: LatticeModel, field: SpinField, res: Residue, off: Offset) -> int:
    """Pairs of one (residue, offset) class inside the domain joining opposite spins."""
    src, dst = class_pairs(model, field.ranges, res, off)
    spins = field.spins.ravel()
    return int(np.count_nonzero(spins[src] != spins[dst]))


def count_broken_strong(model: LatticeModel, field: SpinField) -> int:
    """Unordered strong bonds inside the domain joining opposite spins."""
    return sum(
        _broken(model, field, res, off)
        for res in model.residues() for off in model.strong_offsets(res)
        if off > (0,) * model.dimension
    )


# ---------------------------------------------------------------------------
# cubes of side m: cube z covers the sites z*m - m//2 + [0, m) on every axis


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


@dataclass(frozen=True)
class ExtensionResult:
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
    """
    if m <= 0 or m % model.period:
        raise ValueError(f"cube side must be a positive multiple of {model.period}")
    model.check_phase(phase)
    side = coarsening_side(model, phase)
    if m < side:
        raise ValueError(f"cube side {m} is below the coarsening side {side} of phase {phase}")
    ranges = field.ranges
    spins = field.spins.copy()
    core = core_phases(model)[residue_ids(model, ranges)].reshape(spins.shape) == phase
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
    empty = np.argwhere(low == 2)
    if empty.size:
        z = tuple((empty[0] + origin).tolist())
        raise RuntimeError(f"cube {z} contains no phase-{phase} cluster sites")
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


@dataclass(frozen=True)
class Slab:
    """+1 where <x, normal> exceeds the offset, -1 on the other closed side."""

    normal: tuple[Fraction, ...]
    offset: Fraction

    def __post_init__(self):
        if not any(self.normal):
            raise ValueError("slab normal must be nonzero")

    def value_at(self, x: Sequence[Fraction]) -> int:
        dot = sum(a * b for a, b in zip(x, self.normal))
        return 1 if dot > self.offset else -1

    def integer_normal(self) -> tuple[int, ...]:
        scale = math.lcm(*(c.denominator for c in self.normal))
        return tuple(int(c * scale) for c in self.normal)

    def on_lattice(self, eps: Fraction, ranges: Sequence[range]) -> np.ndarray:
        """``value_at(eps * k)`` on the grid of sites k over ``ranges``, as int8."""
        normal = self.integer_normal()
        scale = math.lcm(*(c.denominator for c in self.normal))
        # <eps k, normal> > offset  iff  the integer <k, scale normal> exceeds
        # floor(offset scale / eps); |<k, scale normal>| <= reach bounds the
        # threshold and picks exact Python integers past int64
        reach = sum(abs(c) * max(abs(r.start), abs(r.stop)) for c, r in zip(normal, ranges))
        threshold = max(-reach - 1, min(reach, math.floor(self.offset * scale / eps)))
        dtype = np.int64 if reach < 2**62 else object
        axes = np.ix_(*(np.arange(r.start, r.stop).astype(dtype) for r in ranges))
        dot = sum(c * k for c, k in zip(normal, axes))
        return np.where(dot > threshold, 1, -1).astype(np.int8)

    def on_cubes(self, eps: Fraction, firsts: Sequence[np.ndarray], m: int) -> np.ndarray:
        """Per cube of a grid, +1 or -1 where ``value_at`` is that constant
        on the cube's closed footprint, 0 where it is not, as int8.

        The cubes are the products of the per-axis footprints
        eps [f, f + m], f in the integer array ``firsts[i]``.  The extremes
        of <x, normal> over a footprint sit at its corners, so they are
        sums of per-axis extremes; +1 where the minimum exceeds the offset,
        -1 where the maximum does not, compared as in :meth:`on_lattice`.
        """
        normal = self.integer_normal()
        scale = math.lcm(*(c.denominator for c in self.normal))
        bound = max((int(np.abs(f).max()) for f in firsts if f.size), default=0) + m
        reach = sum(abs(c) for c in normal) * bound
        threshold = max(-reach - 1, min(reach, math.floor(self.offset * scale / eps)))
        dtype = np.int64 if reach < 2**62 else object
        axes = np.ix_(*(f.astype(dtype) for f in firsts))
        low = sum(c * f + min(0, c * m) for c, f in zip(normal, axes))
        high = sum(c * f + max(0, c * m) for c, f in zip(normal, axes))
        return np.where(low > threshold, 1, np.where(high <= threshold, -1, 0)).astype(np.int8)


@dataclass(frozen=True)
class Box:
    lo: tuple[Fraction, ...]
    hi: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.lo) != len(self.hi):
            raise ValueError("box corners must have equal length")
        for a, b in zip(self.lo, self.hi):
            if not a < b:
                raise ValueError("box must have nonempty interior")

    def contains(self, x: Sequence[Fraction]) -> bool:
        return all(a <= c < b for a, c, b in zip(self.lo, x, self.hi))

    def touches(self, other: "Box") -> bool:
        return all(
            max(a, c) <= min(b, d)
            for (a, b), (c, d) in zip(zip(self.lo, self.hi), zip(other.lo, other.hi))
        )


@dataclass(frozen=True)
class Boxes:
    """+1 on a finite union of axis boxes with pairwise disjoint closures."""

    boxes: tuple[Box, ...]

    def __post_init__(self):
        for i, a in enumerate(self.boxes):
            for b in self.boxes[i + 1 :]:
                if a.touches(b):
                    raise ValueError("boxes must have pairwise disjoint closures")

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


@dataclass(frozen=True)
class Constant:
    value: int

    def __post_init__(self):
        if self.value not in (1, -1):
            raise ValueError("constant phase value must be +-1")

    def value_at(self, x) -> int:
        return self.value

    def on_lattice(self, eps: Fraction, ranges: Sequence[range]) -> np.ndarray:
        return np.full(tuple(len(r) for r in ranges), self.value, dtype=np.int8)

    def on_cubes(self, eps: Fraction, firsts: Sequence[np.ndarray], m: int) -> np.ndarray:
        return np.full(tuple(len(f) for f in firsts), self.value, dtype=np.int8)


PhaseTarget = Slab | Boxes | Constant


@dataclass(frozen=True)
class MultiphaseField:
    phases: tuple[PhaseTarget, ...]

    def __post_init__(self):
        if not self.phases:
            raise ValueError("at least one phase target required")

    def value_at(self, x: Sequence[Fraction]) -> tuple[int, ...]:
        return tuple(p.value_at(x) for p in self.phases)

    def to_json_dict(self) -> dict:
        phases = []
        for p in self.phases:
            if isinstance(p, Slab):
                phases.append(
                    {
                        "slab": {
                            "normal": [number_str(c) for c in p.normal],
                            "offset": number_str(p.offset),
                        }
                    }
                )
            elif isinstance(p, Boxes):
                phases.append(
                    {
                        "boxes": [
                            {
                                "lo": [number_str(c) for c in b.lo],
                                "hi": [number_str(c) for c in b.hi],
                            }
                            for b in p.boxes
                        ]
                    }
                )
            else:
                phases.append({"constant": p.value})
        return {"phases": phases}

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


def load_target(path) -> MultiphaseField:
    with open(path, "r", encoding="utf-8") as fh:
        return MultiphaseField.from_json_dict(json.load(fh))


# ---------------------------------------------------------------------------
# the limit functional


def _axis_of(normal: Sequence[Fraction]) -> int | None:
    nonzero = [i for i, c in enumerate(normal) if c]
    return nonzero[0] if len(nonzero) == 1 else None


def _interval_overlap(a: Fraction, b: Fraction, c: Fraction, d: Fraction) -> Fraction:
    lo, hi = max(a, c), min(b, d)
    return hi - lo if hi > lo else Fraction(0)


def _slab_interface_measure(omega: DomainSpec, slab: Slab):
    """H^(d-1) measure of the slab interface inside the open box."""
    d = omega.dimension
    axis = _axis_of(slab.normal)
    if axis is not None:
        v = slab.offset / slab.normal[axis]
        if not omega.lo[axis] < v < omega.hi[axis]:
            return Fraction(0)
        area = Fraction(1)
        for i in range(d):
            if i != axis:
                area *= omega.hi[i] - omega.lo[i]
        return area
    if d == 2:
        seg = geometry.line_segment_in_box(slab.normal, slab.offset, omega.lo, omega.hi)
        if seg is None:
            return Fraction(0)
        return geometry.distance(*seg)
    raise NotImplementedError("interfaces with non-axis normals need dimension <= 2")


def _boxes_interface_terms(omega: DomainSpec, phase: int, target: Boxes, surface: SurfaceTable):
    d = omega.dimension
    total = Fraction(0)
    for box in target.boxes:
        for axis in range(d):
            unit = tuple(1 if i == axis else 0 for i in range(d))
            for v in (box.lo[axis], box.hi[axis]):
                if not omega.lo[axis] < v < omega.hi[axis]:
                    continue
                area = Fraction(1)
                for i in range(d):
                    if i != axis:
                        area *= _interval_overlap(box.lo[i], box.hi[i], omega.lo[i], omega.hi[i])
                if area:
                    total += surface.value(phase, unit) * area
    return total


def _axis_breakpoints(omega: DomainSpec, target: MultiphaseField) -> list[list[Fraction]] | None:
    """Per-axis cut coordinates when every interface is axis-aligned."""
    cuts: list[set[Fraction]] = [set() for _ in range(omega.dimension)]
    for p in target.phases:
        if isinstance(p, Constant):
            continue
        if isinstance(p, Slab):
            axis = _axis_of(p.normal)
            if axis is None:
                return None
            cuts[axis].add(p.offset / p.normal[axis])
        else:
            for b in p.boxes:
                for i in range(omega.dimension):
                    cuts[i].add(b.lo[i])
                    cuts[i].add(b.hi[i])
    out = []
    for i, cs in enumerate(cuts):
        pts = sorted({omega.lo[i], omega.hi[i]} | {c for c in cs if omega.lo[i] < c < omega.hi[i]})
        out.append(pts)
    return out


def _bulk_term(omega: DomainSpec, target: MultiphaseField, phi: PhiTable) -> Fraction:
    grid = _axis_breakpoints(omega, target)
    if grid is not None:
        total = Fraction(0)
        for cell in itertools.product(*(zip(pts, pts[1:]) for pts in grid)):
            center = tuple((a + b) / 2 for a, b in cell)
            vol = Fraction(1)
            for a, b in cell:
                vol *= b - a
            total += phi.value(target.value_at(center)) * vol
        return total
    if omega.dimension != 2:
        raise NotImplementedError("non-axis interfaces need dimension <= 2")
    polys = [geometry.box_polygon(omega.lo, omega.hi)]
    for p in target.phases:
        lines: list[tuple[tuple[Fraction, Fraction], Fraction]] = []
        if isinstance(p, Slab):
            lines.append(((p.normal[0], p.normal[1]), p.offset))
        elif isinstance(p, Boxes):
            for b in p.boxes:
                lines.append(((Fraction(1), Fraction(0)), b.lo[0]))
                lines.append(((Fraction(1), Fraction(0)), b.hi[0]))
                lines.append(((Fraction(0), Fraction(1)), b.lo[1]))
                lines.append(((Fraction(0), Fraction(1)), b.hi[1]))
        for normal, offset in lines:
            split = []
            for poly in polys:
                for sign in (1, -1):
                    piece = geometry.clip_polygon(poly, normal, offset, sign)
                    if len(piece) >= 3 and geometry.polygon_area(piece) > 0:
                        split.append(piece)
            polys = split
    total = Fraction(0)
    for poly in polys:
        z = target.value_at(geometry.polygon_centroid(poly))
        total += phi.value(z) * geometry.polygon_area(poly)
    return total


def f_hom(
    model: LatticeModel,
    omega: DomainSpec,
    target: MultiphaseField,
    surface: SurfaceTable,
    phi: PhiTable,
):
    """Interface term plus bulk term of the limit functional.

    Exact rational whenever every interface is axis-aligned or the
    dimension is 1; a 2D slab with an oblique normal contributes a float
    segment length and makes the result a float.
    """
    if len(target.phases) != model.num_phases:
        raise ValueError(
            f"target has {len(target.phases)} phases, model has {model.num_phases}"
        )
    if omega.dimension != model.dimension:
        raise ValueError("domain dimension does not match the model")
    surface_total = Fraction(0)
    for j, p in enumerate(target.phases, start=1):
        if isinstance(p, Constant):
            continue
        if isinstance(p, Slab):
            area = _slab_interface_measure(omega, p)
            if area:
                surface_total = surface_total + surface.value(j, p.integer_normal()) * area
        else:
            surface_total = surface_total + _boxes_interface_terms(omega, j, p, surface)
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
    the target trace; everything else defaults to +1.

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
    if m <= 0 or m % model.period:
        raise ValueError(f"cube side must be a positive multiple of {model.period}")
    if len(target.phases) != model.num_phases:
        raise ValueError("target phase count does not match the model")
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

    core = core_phases(model)[residue_ids(model, ranges)].reshape(spins.shape)
    for j, phase in enumerate(target.phases, start=1):
        on_core = core == j
        if on_core.any():
            spins[on_core] = phase.on_lattice(eps, ranges)[on_core]
    return SpinField(eps, omega, spins)


@dataclass(frozen=True)
class ConvergenceRow:
    eps: Fraction
    energy: Fraction
    gap: Fraction


@dataclass(frozen=True)
class ConvergenceReport:
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
    """Canonical normals of the interfaces of ``target``: the normal of
    each slab, and the coordinate axes when some phase has boxes."""
    dirs: set[tuple[int, ...]] = set()
    for p in target.phases:
        if isinstance(p, Slab):
            dirs.add(canonical_direction(p.integer_normal()))
        elif isinstance(p, Boxes) and p.boxes:
            for axis in range(dimension):
                dirs.add(tuple(1 if i == axis else 0 for i in range(dimension)))
    return sorted(dirs)


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
    the gap column is dominated by the eps-dependent part.
    """
    eps_list = [Fraction(e) for e in eps_list]
    if not eps_list or any(a <= b for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("eps list must be strictly decreasing")
    if eps_list[-1] <= 0:
        raise ValueError("eps must be positive")
    if surface_side is None:
        surface_side = m
    if phi_side is None:
        need = math.ceil(1 / eps_list[-1])
        t = model.period
        phi_side = max(m, -(-need // t) * t)
    directions = target_directions(target, omega.dimension)
    surface = SurfaceTable.from_model(model, directions, surface_side)
    phi = PhiTable.from_model(model, [phi_side])
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
