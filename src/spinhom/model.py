"""Periodic lattice interaction models.

A model describes a T-periodic assignment of lattice sites to phases
(label 0 marks the weak/soft phase, labels 1..N the hard phases), a set
of bond offsets with rational coupling weights, and a periodic on-site
forcing term.  Bond weights attached to hard residues couple sites of
the same hard phase ("strong" bonds); all other declared bonds are
"weak".  Energies are accumulated over ordered site pairs, so every
undirected bond is declared in both directions and counted twice.

All numeric model data is kept as `fractions.Fraction` so downstream
minimisation and the structural inequalities can be asserted exactly.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterator, Mapping, NamedTuple

if TYPE_CHECKING:
    from .connectivity import ConnectivitySummary

Residue = tuple[int, ...]
Site = tuple[int, ...]
Offset = tuple[int, ...]


class SchemaError(ValueError):
    """Raised when a model document does not match the file schema."""

    def __init__(self, locus: str, message: str):
        super().__init__(f"{locus}: {message}")
        self.locus = locus
        self.reason = message


class Violation(NamedTuple):
    rule: str
    witness: tuple
    message: str


class ValidationReport(NamedTuple):
    violations: tuple[Violation, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class LatticeModel:
    """Validated-shape periodic model (parse-time schema only).

    Structural soundness (symmetry, closure of hard neighbourhoods,
    uniqueness of the infinite hard components, ...) is checked by
    :func:`validate`, not by the constructor.
    """

    dimension: int
    period: int
    num_phases: int
    labels: Mapping[Residue, int]
    # (phase, residue) -> offsets declared at that residue for that bond class.
    # Hard phases appear only at residues carrying their own label; phase 0
    # collects the weak offsets and may appear at any residue.
    neighborhoods: Mapping[tuple[int, Residue], frozenset[Offset]]
    # (residue, offset) -> coupling weight.  A given (residue, offset) pair
    # belongs to exactly one bond class, so the key needs no phase.
    weights: Mapping[tuple[Residue, Offset], Fraction]
    # (residue, spin) -> forcing value; absent pairs mean zero.
    forcing: Mapping[tuple[Residue, int], Fraction]
    coercivity_floor: Fraction | None = None

    # ---- basic lookups -------------------------------------------------

    def residues(self) -> Iterator[Residue]:
        return iter(sorted(self.labels))

    def strong_offsets(self, residue: Residue) -> frozenset[Offset]:
        lab = self.labels[residue]
        if lab == 0:
            return frozenset()
        return self.neighborhoods.get((lab, residue), frozenset())

    def weak_offsets(self, residue: Residue) -> frozenset[Offset]:
        return self.neighborhoods.get((0, residue), frozenset())

    def check_phase(self, phase: int) -> None:
        """Raise ValueError unless ``phase`` numbers a hard phase."""
        if not 1 <= phase <= self.num_phases:
            raise ValueError(f"phase must be in 1..{self.num_phases}, got {phase}")

    def check_valid(self) -> None:
        """Raise ValueError naming the first violation of :attr:`report`;
        every cell is built on a model that passes this check."""
        if not self.report.passed:
            first = self.report.violations[0]
            raise ValueError(f"the model fails validation ({first.rule}): {first.message}")

    # ---- computed diagnostics -----------------------------------------

    @functools.cached_property
    def summary(self) -> ConnectivitySummary:
        """The periodic components of the hard phases
        (:func:`connectivity.classify`), computed once per model object."""
        from . import connectivity  # local import; connectivity imports model

        return connectivity.classify(self)

    @functools.cached_property
    def report(self) -> ValidationReport:
        """:func:`validate` of the model, computed once per model object."""
        return validate(self)


# ---------------------------------------------------------------------------
# parsing


def is_json_int(value) -> bool:
    """A JSON integer: ``bool`` is an ``int`` subclass but not a number here."""
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_fraction(text, locus: str) -> Fraction:
    if is_json_int(text):
        return Fraction(text)
    if not isinstance(text, str):
        raise SchemaError(locus, f"expected a numeric string, got {text!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise SchemaError(locus, f"cannot parse {text!r} as a rational number") from None


def _parse_residue_key(key: str, dim: int, period: int, locus: str) -> Residue:
    parts = key.split(",")
    if len(parts) != dim:
        raise SchemaError(locus, f"residue key {key!r} has {len(parts)} coordinates, expected {dim}")
    try:
        coords = tuple(int(p) for p in parts)
    except ValueError:
        coords = None
    # int() also reads " 1", "+1" and "01"; only the canonical form is a key
    if coords is None or ",".join(map(str, coords)) != key:
        raise SchemaError(locus, f"residue key {key!r} is not a tuple of integers")
    for c in coords:
        if not 0 <= c < period:
            raise SchemaError(locus, f"residue key {key!r} outside [0, {period})^{dim}")
    return coords


def _parse_offset(raw, dim: int, locus: str) -> Offset:
    if not isinstance(raw, list) or len(raw) != dim or not all(is_json_int(c) for c in raw):
        raise SchemaError(locus, f"offset {raw!r} must be a length-{dim} integer array")
    off = tuple(raw)
    if all(c == 0 for c in off):
        raise SchemaError(locus, "offset must be nonzero")
    return off


def parse_model(document) -> LatticeModel:
    """Parse a model document (JSON text or an already-decoded mapping)."""
    if isinstance(document, (str, bytes)):
        try:
            doc = json.loads(document)
        except json.JSONDecodeError as exc:
            raise SchemaError("$", f"invalid JSON: {exc}") from None
    else:
        doc = document
    if not isinstance(doc, Mapping):
        raise SchemaError("$", "top level must be an object")

    for key in ("dimension", "period", "num_phases", "labels"):
        if key not in doc:
            raise SchemaError("$", f"missing required field {key!r}")

    dim = doc["dimension"]
    period = doc["period"]
    nph = doc["num_phases"]
    if not is_json_int(dim) or dim < 1:
        raise SchemaError("$.dimension", "must be a positive integer")
    if not is_json_int(period) or period < 1:
        raise SchemaError("$.period", "must be a positive integer")
    if not is_json_int(nph) or nph < 1:
        raise SchemaError("$.num_phases", "must be a positive integer")

    raw_labels = doc["labels"]
    if not isinstance(raw_labels, Mapping):
        raise SchemaError("$.labels", "must be an object")
    labels: dict[Residue, int] = {}
    for key, val in raw_labels.items():
        res = _parse_residue_key(key, dim, period, f"$.labels[{key!r}]")
        if res in labels:
            raise SchemaError(f"$.labels[{key!r}]", "duplicate residue")
        if not is_json_int(val) or not 0 <= val <= nph:
            raise SchemaError(f"$.labels[{key!r}]", f"label must be an integer in [0, {nph}]")
        labels[res] = val
    if len(labels) != period**dim:
        raise SchemaError("$.labels", f"expected {period ** dim} residues, got {len(labels)}")

    neighborhoods: dict[tuple[int, Residue], set[Offset]] = {}
    weights: dict[tuple[Residue, Offset], Fraction] = {}

    def add_bond(entry, idx: int, weak: bool):
        locus = f"$.{'weak' if weak else 'strong'}_bonds[{idx}]"
        if not isinstance(entry, Mapping):
            raise SchemaError(locus, "bond entry must be an object")
        for k in ("from", "offset", "weight"):
            if k not in entry:
                raise SchemaError(locus, f"missing field {k!r}")
        res = _parse_residue_key(entry["from"], dim, period, f"{locus}.from")
        off = _parse_offset(entry["offset"], dim, f"{locus}.offset")
        w = _parse_fraction(entry["weight"], f"{locus}.weight")
        if not weak and labels[res] == 0:
            raise SchemaError(locus, "strong bond declared at a residue labeled 0")
        if (res, off) in weights:
            raise SchemaError(locus, f"duplicate bond (from={entry['from']}, offset={list(off)})")
        phase = 0 if weak else labels[res]
        neighborhoods.setdefault((phase, res), set()).add(off)
        weights[(res, off)] = w

    for weak in (False, True):
        key = "weak_bonds" if weak else "strong_bonds"
        entries = doc.get(key, [])
        if not isinstance(entries, list):
            raise SchemaError(f"$.{key}", "must be an array")
        for idx, entry in enumerate(entries):
            add_bond(entry, idx, weak)

    forcing: dict[tuple[Residue, int], Fraction] = {}
    raw_forcing = doc.get("forcing", {})
    if not isinstance(raw_forcing, Mapping):
        raise SchemaError("$.forcing", "must be an object")
    for key, val in raw_forcing.items():
        res = _parse_residue_key(key, dim, period, f"$.forcing[{key!r}]")
        if not isinstance(val, Mapping):
            raise SchemaError(f"$.forcing[{key!r}]", "must be an object with 'plus'/'minus'")
        for name, spin in (("plus", 1), ("minus", -1)):
            if name in val:
                forcing[(res, spin)] = _parse_fraction(val[name], f"$.forcing[{key!r}].{name}")

    floor = None
    if doc.get("coercivity_floor") is not None:
        floor = _parse_fraction(doc["coercivity_floor"], "$.coercivity_floor")
        if floor <= 0:
            raise SchemaError("$.coercivity_floor", "must be positive")

    return LatticeModel(
        dimension=dim,
        period=period,
        num_phases=nph,
        labels=labels,
        neighborhoods={k: frozenset(v) for k, v in neighborhoods.items()},
        weights=weights,
        forcing=forcing,
        coercivity_floor=floor,
    )


def load_model(path) -> LatticeModel:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_model(fh.read())


def number_str(value: Fraction) -> str:
    """Exact string form; decimal when the denominator allows it."""
    num, den = value.numerator, value.denominator
    # den = 2^a 5^b r: a decimal with max(a, b) places when r = 1
    twos = (den & -den).bit_length() - 1
    rest, fives = den >> twos, 0
    while rest % 5 == 0:
        rest //= 5
        fives += 1
    if rest != 1:
        return f"{num}/{den}"
    exp = max(twos, fives)
    if exp == 0:
        return str(num)
    digits = str(abs(num) * 10**exp // den).rjust(exp + 1, "0")
    return f"{'-' * (num < 0)}{digits[:-exp]}.{digits[-exp:]}"


def serialize_model(model: LatticeModel) -> dict:
    """Emit the document form; parse(serialize(m)) == m."""
    res_key = lambda r: ",".join(str(c) for c in r)
    strong, weak = [], []
    for (res, off), w in sorted(model.weights.items()):
        entry = {"from": res_key(res), "offset": list(off), "weight": number_str(w)}
        if off in model.strong_offsets(res):
            strong.append(entry)
        else:
            weak.append(entry)
    forcing: dict[str, dict] = {}
    for (res, spin), g in sorted(model.forcing.items()):
        forcing.setdefault(res_key(res), {})["plus" if spin > 0 else "minus"] = number_str(g)
    doc = {
        "dimension": model.dimension,
        "period": model.period,
        "num_phases": model.num_phases,
        "labels": {res_key(r): model.labels[r] for r in sorted(model.labels)},
        "strong_bonds": strong,
        "weak_bonds": weak,
        "forcing": forcing,
    }
    if model.coercivity_floor is not None:
        doc["coercivity_floor"] = number_str(model.coercivity_floor)
    return doc


# ---------------------------------------------------------------------------
# validation


def _mod_residue(res: Residue, off: Offset, period: int) -> Residue:
    return tuple((a + b) % period for a, b in zip(res, off))


def validate(model: LatticeModel) -> ValidationReport:
    """Check every structural rule; returns a report, never raises.

    Rules: symmetry of weights under pair reversal, closure of hard
    neighbourhoods inside their own phase, weak-pair admissibility,
    non-empty phases, coerciveness on the infinite hard components, and
    uniqueness of those components (delegated to connectivity.classify).
    """
    out: list[Violation] = []
    t = model.period

    neg = lambda off: tuple(-c for c in off)
    for (res, off), w in sorted(model.weights.items()):
        partner = (_mod_residue(res, off, t), neg(off))
        w2 = model.weights.get(partner)
        if w2 is None:
            out.append(Violation("symmetry", (res, off), f"bond (from={res}, offset={off}) has no reverse declaration at {partner[0]}"))
        elif w2 != w:
            out.append(Violation("symmetry", (res, off), f"bond (from={res}, offset={off}) weight {w} differs from reverse weight {w2}"))

    structural_ok = not out
    for (phase, res), offs in sorted(model.neighborhoods.items()):
        if phase == 0:
            for off in sorted(offs):
                res2 = _mod_residue(res, off, t)
                l1, l2 = model.labels[res], model.labels[res2]
                if not (l1 * l2 == 0 or l1 != l2):
                    out.append(Violation("weak-admissibility", (res, off), f"weak bond (from={res}, offset={off}) joins two sites of hard phase {l1}"))
        else:
            for off in sorted(offs):
                res2 = _mod_residue(res, off, t)
                if model.labels[res2] != phase:
                    out.append(Violation("hard-closure", (res, off), f"strong bond (from={res}, offset={off}) leaves phase {phase} (target label {model.labels[res2]})"))
                    structural_ok = False
                elif neg(off) not in model.neighborhoods.get((phase, res2), frozenset()):
                    out.append(Violation("hard-closure", (res, off), f"strong bond (from={res}, offset={off}) lacks the reverse offset at {res2}"))
                    structural_ok = False

    phase_residues = {j: [r for r, l in model.labels.items() if l == j] for j in range(1, model.num_phases + 1)}
    for j, rs in sorted(phase_residues.items()):
        if not rs:
            out.append(Violation("empty-phase", (j,), f"phase {j} has no residues"))
            structural_ok = False

    if structural_ok:
        summary = model.summary
        out.extend(summary.violations)
        floor = model.coercivity_floor
        for j in range(1, model.num_phases + 1):
            for res in sorted(summary.core_residues.get(j, frozenset())):
                for off in sorted(model.strong_offsets(res)):
                    w = model.weights[(res, off)]
                    if floor is not None:
                        if w < floor:
                            out.append(Violation("coerciveness", (res, off), f"strong weight {w} at (from={res}, offset={off}) is below the floor {floor}"))
                    elif w <= 0:
                        out.append(Violation("coerciveness", (res, off), f"strong weight {w} at (from={res}, offset={off}) is not positive"))

    return ValidationReport(tuple(out))
