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

from . import geometry
from .bulk_density import PhiTable, phi_solution
from .connectivity import ConnectivitySummary, classify, coarsening_side
from .ground_state import Solution
from .model import LatticeModel, SchemaError, Site, number_str
from .surface_tension import SurfaceTable, canonical_direction


def _fraction(value, locus: str) -> Fraction:
    try:
        if isinstance(value, bool):
            raise ValueError
        if isinstance(value, (int, str)):
            return Fraction(value)
    except (ValueError, ZeroDivisionError):
        pass
    raise SchemaError(locus, f"expected an integer or a rational string, got {value!r}")


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
        lo = tuple(_fraction(v, f"{locus}.lo[{i}]") for i, v in enumerate(obj["lo"]))
        hi = tuple(_fraction(v, f"{locus}.hi[{i}]") for i, v in enumerate(obj["hi"]))
        return cls(lo, hi)


class SpinField:
    """Spin values on exactly the sites of (1/eps) Omega."""

    def __init__(self, eps: Fraction, omega: DomainSpec, values: Mapping[Site, int]):
        self.eps = Fraction(eps)
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        self.omega = omega
        sites = omega.sites(self.eps)
        if set(values) != set(sites):
            raise ValueError("field values must cover the domain sites exactly")
        for k, v in values.items():
            if v not in (1, -1):
                raise ValueError(f"spin at {k} must be +-1")
        self.values = dict(values)
        self._sites = sites

    def sites(self) -> list[Site]:
        return list(self._sites)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SpinField)
            and self.eps == other.eps
            and self.omega == other.omega
            and self.values == other.values
        )

    @classmethod
    def constant(cls, eps, omega: DomainSpec, value: int = 1) -> "SpinField":
        eps = Fraction(eps)
        return cls(eps, omega, {k: value for k in omega.sites(eps)})

    def to_json_dict(self) -> dict:
        rle: list[list[int]] = []
        for k in self._sites:
            v = self.values[k]
            if rle and rle[-1][1] == v:
                rle[-1][0] += 1
            else:
                rle.append([1, v])
        return {
            "eps": number_str(self.eps),
            "omega": self.omega.to_json_dict(),
            "spins_rle": rle,
        }

    @classmethod
    def from_json_dict(cls, obj) -> "SpinField":
        if not isinstance(obj, Mapping):
            raise SchemaError("$", "field document must be an object")
        for key in ("eps", "omega", "spins_rle"):
            if key not in obj:
                raise SchemaError("$", f"field document is missing {key!r}")
        eps = _fraction(obj["eps"], "eps")
        omega = DomainSpec.from_json_dict(obj["omega"])
        sites = omega.sites(eps)
        flat: list[int] = []
        for i, pair in enumerate(obj["spins_rle"]):
            if (
                not isinstance(pair, Sequence)
                or len(pair) != 2
                or not all(isinstance(c, int) for c in pair)
                or pair[0] <= 0
                or pair[1] not in (1, -1)
            ):
                raise SchemaError(f"spins_rle[{i}]", "expected [count, spin] with spin +-1")
            flat.extend([pair[1]] * pair[0])
        if len(flat) != len(sites):
            raise SchemaError(
                "spins_rle",
                f"decodes to {len(flat)} spins but the domain has {len(sites)} sites",
            )
        return cls(eps, omega, dict(zip(sites, flat)))


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
    """Exact scaled energy of a spin field (ordered-pair convention)."""
    if omega is not None and omega != field.omega:
        raise ValueError("field domain does not match the requested domain")
    if field.omega.dimension != model.dimension:
        raise ValueError("field dimension does not match the model")
    eps = field.eps
    values = field.values
    strong = Fraction(0)
    weak = Fraction(0)
    forcing = Fraction(0)
    for x in field.sites():
        res = model.residue_of(x)
        ux = values[x]
        for off in model.strong_offsets(res):
            y = tuple(a + b for a, b in zip(x, off))
            if y in values and values[y] != ux:
                strong += 4 * model.pair_weight(x, y)
        for off in model.weak_offsets(res):
            y = tuple(a + b for a, b in zip(x, off))
            if y in values and values[y] != ux:
                weak += 4 * model.pair_weight(x, y)
        forcing += model.forcing_value(x, ux)
    d = model.dimension
    return eps ** (d - 1) * strong + eps**d * (weak + forcing)


def count_broken_strong(model: LatticeModel, field: SpinField) -> int:
    """Unordered strong bonds inside the domain joining opposite spins."""
    values = field.values
    count = 0
    for x in field.sites():
        ux = values[x]
        for off in model.strong_offsets(model.residue_of(x)):
            y = tuple(a + b for a, b in zip(x, off))
            if x < y and y in values and values[y] != ux:
                count += 1
    return count


# ---------------------------------------------------------------------------
# coarse-graining (extension) operator


def _cube_of(site: Site, m: int) -> tuple[int, ...]:
    half = m // 2
    return tuple((k + half) // m for k in site)


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
    summary: ConnectivitySummary | None = None,
) -> ExtensionResult:
    """Coarse-grain a field over cubes of side m.

    On every cube whose concentric 3m cube lies fully inside the domain
    and where the field is constant on the infinite cluster of the given
    phase, the field is overwritten by that constant; such cubes where
    the cluster values disagree are reported as marked and left as they
    are, as is everything near the boundary.
    """
    if m <= 0 or m % model.period:
        raise ValueError(f"cube side must be a positive multiple of {model.period}")
    if summary is None:
        summary = classify(model)
    side = coarsening_side(model, phase, summary)
    if m < side:
        raise ValueError(f"cube side {m} is below the coarsening side {side} of phase {phase}")
    ranges = field.omega.site_ranges(field.eps)
    half = m // 2

    cubes: dict[tuple[int, ...], list[Site]] = {}
    for k in field.sites():
        cubes.setdefault(_cube_of(k, m), []).append(k)

    new_values = dict(field.values)
    marked = []
    for z in sorted(cubes):
        in_range = all(
            z[i] * m - half - m >= ranges[i].start and z[i] * m - half + 2 * m - 1 < ranges[i].stop
            for i in range(len(z))
        )
        if not in_range:
            continue
        members = cubes[z]
        core_values = {field.values[k] for k in members if summary.in_core(phase, k)}
        if len(core_values) == 1:
            fill = core_values.pop()
            for k in members:
                new_values[k] = fill
        elif core_values:
            marked.append(z)
        else:
            raise RuntimeError(f"cube {z} contains no phase-{phase} cluster sites")
    return ExtensionResult(
        field=SpinField(field.eps, field.omega, new_values),
        phase=phase,
        m=m,
        marked=tuple(marked),
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

    def constant_on_box(self, lo: Sequence[Fraction], hi: Sequence[Fraction]) -> int | None:
        corners = itertools.product(*zip(lo, hi))
        dots = [sum(a * b for a, b in zip(c, self.normal)) for c in corners]
        if min(dots) > self.offset:
            return 1
        if max(dots) <= self.offset:
            return -1
        return None

    def integer_normal(self) -> tuple[int, ...]:
        scale = math.lcm(*(c.denominator for c in self.normal))
        return tuple(int(c * scale) for c in self.normal)


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

    def constant_on_box(self, lo, hi) -> int | None:
        outside_all = True
        for b in self.boxes:
            if all(a >= c and bb <= d for a, bb, c, d in zip(lo, hi, b.lo, b.hi)):
                return 1
            if not any(bb <= c or d <= a for a, bb, c, d in zip(lo, hi, b.lo, b.hi)):
                outside_all = False
        return -1 if outside_all else None


@dataclass(frozen=True)
class Constant:
    value: int

    def __post_init__(self):
        if self.value not in (1, -1):
            raise ValueError("constant phase value must be +-1")

    def value_at(self, x) -> int:
        return self.value

    def constant_on_box(self, lo, hi) -> int:
        return self.value


PhaseTarget = Slab | Boxes | Constant


@dataclass(frozen=True)
class MultiphaseField:
    phases: tuple[PhaseTarget, ...]

    def __post_init__(self):
        if not self.phases:
            raise ValueError("at least one phase target required")

    def value_at(self, x: Sequence[Fraction]) -> tuple[int, ...]:
        return tuple(p.value_at(x) for p in self.phases)

    def constant_on_box(self, lo, hi) -> tuple[int, ...] | None:
        out = []
        for p in self.phases:
            v = p.constant_on_box(lo, hi)
            if v is None:
                return None
            out.append(v)
        return tuple(out)

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
        for i, spec in enumerate(obj["phases"]):
            locus = f"phases[{i}]"
            if not isinstance(spec, Mapping) or len(spec) != 1:
                raise SchemaError(locus, "expected exactly one of slab/boxes/constant")
            if "slab" in spec:
                s = spec["slab"]
                normal = tuple(
                    _fraction(c, f"{locus}.slab.normal[{j}]") for j, c in enumerate(s["normal"])
                )
                phases.append(Slab(normal, _fraction(s["offset"], f"{locus}.slab.offset")))
            elif "boxes" in spec:
                boxes = []
                for j, b in enumerate(spec["boxes"]):
                    lo = tuple(_fraction(c, f"{locus}.boxes[{j}].lo") for c in b["lo"])
                    hi = tuple(_fraction(c, f"{locus}.boxes[{j}].hi") for c in b["hi"])
                    boxes.append(Box(lo, hi))
                phases.append(Boxes(tuple(boxes)))
            elif "constant" in spec:
                if spec["constant"] not in (1, -1):
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
    if d == 1:
        v = slab.offset / slab.normal[0]
        return Fraction(1) if omega.lo[0] < v < omega.hi[0] else Fraction(0)
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
    summary: ConnectivitySummary | None = None,
    method: str = "auto",
    cap: int | None = None,
    allow_anneal: bool = False,
    seed: int = 0,
) -> SpinField:
    """Candidate minimizer: traces on the infinite clusters, optimal fill inside.

    Each cube of side m whose continuum footprint sits strictly inside
    the domain and on which every phase target is constant receives a
    translated copy of the island-corrected cube minimizer for the local
    phase states; sites of the infinite clusters always carry the target
    trace; everything else defaults to +1.
    """
    if m <= 0 or m % model.period:
        raise ValueError(f"cube side must be a positive multiple of {model.period}")
    if len(target.phases) != model.num_phases:
        raise ValueError("target phase count does not match the model")
    if summary is None:
        summary = classify(model)
    eps = Fraction(eps)
    sites = omega.sites(eps)
    values = {k: 1 for k in sites}
    half = m // 2

    cubes: dict[tuple[int, ...], list[Site]] = {}
    for k in sites:
        cubes.setdefault(_cube_of(k, m), []).append(k)

    cache: dict[tuple[int, ...], Solution] = {}
    for z in sorted(cubes):
        foot_lo = tuple(eps * (z[i] * m - half) for i in range(len(z)))
        foot_hi = tuple(eps * (z[i] * m - half + m) for i in range(len(z)))
        if not all(a < fa and fb < b for a, fa, fb, b in zip(omega.lo, foot_lo, foot_hi, omega.hi)):
            continue
        states = target.constant_on_box(foot_lo, foot_hi)
        if states is None:
            continue
        if states not in cache:
            cache[states] = phi_solution(
                model, m, states, summary, corrected=True,
                method=method, cap=cap, allow_anneal=allow_anneal, seed=seed,
            )
        assignment = cache[states].assignment
        for k in cubes[z]:
            values[k] = assignment[tuple(k[i] - z[i] * m for i in range(len(z)))]

    for k in sites:
        lab = model.label(model.residue_of(k))
        if lab > 0 and summary.in_core(lab, k):
            values[k] = target.phases[lab - 1].value_at(tuple(eps * c for c in k))
    return SpinField(eps, omega, values)


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


def _target_directions(target: MultiphaseField, dimension: int) -> list[tuple[int, ...]]:
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
    summary: ConnectivitySummary | None = None,
    surface_side: int | None = None,
    phi_side: int | None = None,
    method: str = "auto",
    cap: int | None = None,
    allow_anneal: bool = False,
    seed: int = 0,
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
    if summary is None:
        summary = classify(model)
    if surface_side is None:
        surface_side = m
    if phi_side is None:
        need = math.ceil(1 / eps_list[-1])
        t = model.period
        phi_side = max(m, -(-need // t) * t)
    solver = dict(method=method, cap=cap, allow_anneal=allow_anneal, seed=seed)
    directions = _target_directions(target, omega.dimension)
    surface = SurfaceTable.from_model(model, directions, surface_side, summary) \
        if directions else SurfaceTable(model.num_phases, {})
    phi = PhiTable.from_model(model, [phi_side], summary, **solver)
    reference = f_hom(model, omega, target, surface, phi)
    rows = []
    for eps in eps_list:
        field = recovery_config(model, omega, target, eps, m, summary, **solver)
        value = f_eps(model, field)
        rows.append(ConvergenceRow(eps=eps, energy=value, gap=abs(value - reference)))
    return ConvergenceReport(
        reference=reference, m=m, surface_side=surface_side, phi_side=phi_side,
        rows=tuple(rows),
    )
