import itertools
import json
import random
from fractions import Fraction
from importlib import resources

import pytest

from spinhom.model import LatticeModel, parse_model, validate

FIXTURES = resources.files("spinhom").joinpath("fixtures")

FIXTURE_NAMES = [
    "chain_soft_even",
    "chain_soft_even_anti",
    "two_chains",
    "chain_two_weak_scales",
    "soft_inclusions_2d",
    "diagonal_2d",
    "islands_1d",
]


def fixture_document(name: str) -> dict:
    return json.loads(FIXTURES.joinpath(name + ".json").read_text())


def fixture_model(name: str) -> LatticeModel:
    return parse_model(fixture_document(name))


def one_weak_weight_changed(doc) -> None:
    """In a ``soft_inclusions_2d`` document, the weak bond from (0,0) at
    offset (1,0) no longer equals its reverse, which the cube reads
    instead (phi_8(-1) used to come out 53/16): the model fails
    validation."""
    (bond,) = [b for b in doc["weak_bonds"] if (b["from"], b["offset"]) == ("0,0", [1, 0])]
    bond["weight"] = "0.0625"


def strong_weights_negated(doc) -> None:
    """Every strong weight negated, so the surface tension came out
    negative (fhom --normal 1,2 --T 8,16 of ``soft_inclusions_2d`` used to
    print -15.75): the model fails validation."""
    for bond in doc["strong_bonds"]:
        bond["weight"] = "-" + bond["weight"]


# soft_inclusions_2d after each change above, with its first violation
INVALID_INCLUSIONS = [
    pytest.param(one_weak_weight_changed,
                 "(symmetry): bond (from=(0, 0), offset=(1, 0)) weight 1/16 differs from "
                 "reverse weight 3/80", id="weak-asymmetric"),
    pytest.param(strong_weights_negated,
                 "(coerciveness): strong weight -1/8 at (from=(0, 1), offset=(-1, 0)) is not positive",
                 id="strong-negative"),
]


def frus1d_document() -> dict:
    """The frustrated chain ``frus1d``: period 2, soft residue 0, a strong
    chain at +-2 on residue 1 (weight 1/8), antiferromagnetic weak bonds
    on residue 0 at +-2 (-1/8) and +-4 (-1/16), so that every three soft
    sites 0, 2, 4 form a frustrated triangle, and weak bonds 1/8 at +-1
    on both residues."""
    def bonds(res, offset, weight):
        return [{"from": res, "offset": [s * offset], "weight": weight} for s in (1, -1)]

    return {
        "dimension": 1,
        "period": 2,
        "num_phases": 1,
        "labels": {"0": 0, "1": 1},
        "strong_bonds": bonds("1", 2, "1/8"),
        "weak_bonds": (bonds("0", 2, "-1/8") + bonds("0", 4, "-1/16")
                       + bonds("0", 1, "1/8") + bonds("1", 1, "1/8")),
    }


def cubic_3d_document() -> dict:
    """Period-2 cubic lattice, one hard phase with a soft inclusion at the
    origin residue; axis-dependent weights and a diagonal bond."""
    residues = list(itertools.product(range(2), repeat=3))
    labels = {",".join(map(str, r)): (0 if r == (0, 0, 0) else 1) for r in residues}
    weights = {(1, 0, 0): "1", (0, 1, 0): "1/2", (0, 0, 1): "3/4", (1, 1, 0): "1/3"}
    strong = []
    for r in residues:
        if r == (0, 0, 0):
            continue
        for off, w in weights.items():
            for sign in (1, -1):
                o = tuple(sign * c for c in off)
                target = tuple((a + b) % 2 for a, b in zip(r, o))
                if target != (0, 0, 0):
                    strong.append({"from": ",".join(map(str, r)), "offset": list(o), "weight": w})
    return {
        "dimension": 3, "period": 2, "num_phases": 1, "labels": labels, "strong_bonds": strong,
    }


@pytest.fixture(params=FIXTURE_NAMES)
def any_model(request):
    return fixture_model(request.param)


def random_chain_model(rng: random.Random, nonneg_weak: bool = True) -> LatticeModel:
    """Small random two-residue chain with a hard sublattice on the odd sites.

    The even residue is soft (label 0) with probability one half, otherwise a
    second hard chain.  Weak couplings and forcing terms are random dyadics,
    strong couplings stay positive so the model always validates.
    """
    soft = rng.random() < 0.5
    labels = {"0": 0 if soft else 2, "1": 1}
    w1 = str(Fraction(rng.randrange(1, 5), 8))
    strong = [
        {"from": "1", "offset": [2], "weight": w1},
        {"from": "1", "offset": [-2], "weight": w1},
    ]
    if not soft:
        w0 = str(Fraction(rng.randrange(1, 5), 8))
        strong += [
            {"from": "0", "offset": [2], "weight": w0},
            {"from": "0", "offset": [-2], "weight": w0},
        ]
    lo = 0 if nonneg_weak else -4
    wv = Fraction(rng.randrange(lo, 5), 16)
    weak = []
    if wv:
        for res in ("0", "1"):
            weak += [
                {"from": res, "offset": [1], "weight": str(wv)},
                {"from": res, "offset": [-1], "weight": str(wv)},
            ]
    doc = {
        "dimension": 1,
        "period": 2,
        "num_phases": 1 if soft else 2,
        "labels": labels,
        "strong_bonds": strong,
        "weak_bonds": weak,
    }
    if rng.random() < 0.7:
        doc["forcing"] = {
            "0": {"plus": str(Fraction(rng.randrange(0, 4), 2)), "minus": "0"},
            "1": {"plus": "0", "minus": str(Fraction(rng.randrange(0, 4), 2))},
        }
    return parse_model(doc)


def random_valid_model_2d(rng: random.Random, num_phases: int):
    """Period-3 planar model that passes validation.  Residue (j - 1, 0)
    is bonded to its own translates along both axes, so its class is the
    core of phase j.  Each residue and offset of range 2 (one of each
    opposite pair) draws a bond with probability 0.08: a strong one when
    both ends carry the same hard phase (growing the core or making
    islands), else a nonnegative weak one when the range is 1.  Some
    residues get forcing.  Drawn again until the model validates (no
    strip, no second core)."""
    residues = list(itertools.product(range(3), repeat=2))
    key = lambda r: ",".join(map(str, r))
    while True:
        labels = {r: rng.randrange(num_phases + 1) for r in residues}
        strong, weak = [], []
        for j in range(1, num_phases + 1):
            labels[(j - 1, 0)] = j
            strong += [((j - 1, 0), off, "1") for off in ((3, 0), (-3, 0), (0, 3), (0, -3))]
        for r in residues:
            for off in itertools.product(range(-2, 3), repeat=2):
                if off <= (0, 0) or rng.random() >= 0.08:
                    continue
                target = tuple((a + b) % 3 for a, b in zip(r, off))
                if labels[r] and labels[r] == labels[target]:
                    bonds = strong
                elif max(map(abs, off)) == 1:
                    bonds = weak
                else:
                    continue
                w = str(Fraction(rng.randrange(1, 5), 8))
                bonds += [(r, off, w), (target, tuple(-c for c in off), w)]
        forcing = {
            key(r): {"plus": str(Fraction(rng.randrange(3), 4)), "minus": str(Fraction(rng.randrange(3), 4))}
            for r in residues if rng.random() < 0.3
        }
        entry = lambda r, off, w: {"from": key(r), "offset": list(off), "weight": w}
        model = parse_model({
            "dimension": 2, "period": 3, "num_phases": num_phases,
            "labels": {key(r): lab for r, lab in labels.items()},
            "strong_bonds": [entry(*b) for b in strong],
            "weak_bonds": [entry(*b) for b in weak],
            "forcing": forcing,
        })
        if validate(model).passed:
            return model
