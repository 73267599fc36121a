"""The benchmark workloads: CLI arguments as a function of (workload, seed), and output checks.

Each workload is one ``spinhom.cli.run(argv)`` call.  The phi workloads
ignore the seed; ``fhom-oblique-2d`` takes its normal and ``converge-2d``
its target box from it.  Seed 0 gives the reference invocations:

    phi soft_inclusions_2d.json --M 160 --z -1
    fhom diagonal_2d.json --normal 1,2 --T 128
    phi chain_two_weak_scales.json --M 8,16,24,32,40,44 --z -1
    converge soft_inclusions_2d.json --omega ... --target <box [1/4,3/4]^2>
             --eps 1/64,1/128,1/256 --M 8 --phi-side 16

The checks compare against closed forms of the fixtures only.  They
deliberately leave the ``phi_corrected``/``upper`` columns and the
converge energies unchecked: those carry the known defect of the phi
bracket, and fixing it must change them.
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

NAMES = ("phi-cut-2d", "fhom-oblique-2d", "phi-enum-1d", "converge-2d")

# All four give exactly 29/32 by the symmetry of diagonal_2d.
FHOM_NORMALS = ("1,2", "2,1", "-1,2", "2,-1")
# Box corners k/16 strictly inside (1/8, 7/8).
BOX_GRID = tuple(Fraction(k, 16) for k in range(3, 14))
DEFAULT_BOX = ((Fraction(1, 4), Fraction(3, 4)), (Fraction(1, 4), Fraction(3, 4)))


class CheckFailed(Exception):
    """The CLI output contradicts a closed form of the fixture."""


@dataclass(frozen=True)
class Job:
    fixture: str
    args: tuple[str, ...]            # CLI arguments after the model path
    check: Callable[[str], None]     # raises CheckFailed

    def argv(self, model_path: str) -> list[str]:
        return [self.args[0], model_path, *self.args[1:]]


def job(name: str, seed: int, toy: bool = False) -> Job:
    """The invocation of workload ``name``; ``toy`` shrinks it for the self-check."""
    if name == "phi-cut-2d":
        sides = (16,) if toy else (160,)
        return _phi_job("soft_inclusions_2d.json", sides, Fraction(33, 10), Fraction(3, 10))
    if name == "phi-enum-1d":
        sides = (8, 16) if toy else (8, 16, 24, 32, 40, 44)
        return _phi_job("chain_two_weak_scales.json", sides, Fraction(13, 4), Fraction(1, 2))
    if name == "fhom-oblique-2d":
        normal = FHOM_NORMALS[0] if seed == 0 else random.Random(seed).choice(FHOM_NORMALS)
        side = 64 if toy else 128
        args = ("fhom", f"--normal={normal}", "--T", str(side), "--jobs", "1")
        return Job("diagonal_2d.json", args, lambda out: _check_fhom(out, Fraction(29, 32)))
    if name == "converge-2d":
        box = DEFAULT_BOX if seed == 0 else _random_box(random.Random(seed))
        eps = ("1/32", "1/128") if toy else ("1/64", "1/128", "1/256")
        omega = {"lo": ["0", "0"], "hi": ["1", "1"]}
        target = {"phases": [{"boxes": [{
            "lo": [_decimal(lo) for lo, _ in box],
            "hi": [_decimal(hi) for _, hi in box],
        }]}]}
        args = (
            "converge", "--omega", json.dumps(omega), "--target", json.dumps(target),
            "--eps", ",".join(eps), "--M", "8", "--phi-side", "16",
        )
        return Job("soft_inclusions_2d.json", args, lambda out: _check_converge(out, eps))
    raise ValueError(f"unknown workload {name!r}")


def _phi_job(fixture: str, sides: tuple[int, ...], a: Fraction, b: Fraction) -> Job:
    args = ("phi", "--M", ",".join(map(str, sides)), "--z", "-1", "--jobs", "1")
    return Job(fixture, args, lambda out: _check_phi(out, sides, a, b))


def _random_box(rng: random.Random) -> tuple[tuple[Fraction, Fraction], ...]:
    return tuple(tuple(sorted(rng.sample(BOX_GRID, 2))) for _ in range(2))


def _decimal(value: Fraction) -> str:
    return str(float(value))  # exact: k/16 is a binary fraction


def _rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _check_phi(text: str, sides, a: Fraction, b: Fraction) -> None:
    """Every row's plain cube value is a - b/M."""
    rows = _rows(text)
    _require([int(r["m"]) for r in rows] == list(sides), f"rows {rows!r} do not match sides {sides}")
    for r in rows:
        m = int(r["m"])
        want = a - b / m
        _require(Fraction(r["phi"]) == want, f"phi at M={m} is {r['phi']}, expected {want}")


def _check_fhom(text: str, want: Fraction) -> None:
    rows = _rows(text)
    _require(len(rows) == 1, f"expected one row, got {rows!r}")
    _require(Fraction(rows[0]["value"]) == want,
             f"surface tension is {rows[0]['value']}, expected {want}")


def _check_converge(text: str, eps) -> None:
    """Each gap is |energy - reference| exactly; the finest gap is within 1%."""
    rows = _rows(text)
    _require([Fraction(r["eps"]) for r in rows] == [Fraction(e) for e in eps],
             f"rows {rows!r} do not match eps {eps}")
    for r in rows:
        energy, gap, reference = (Fraction(r[k]) for k in ("energy", "gap", "reference"))
        _require(gap == abs(energy - reference), f"gap {gap} != |{energy} - {reference}|")
    last = rows[-1]
    _require(Fraction(last["gap"]) <= Fraction(last["reference"]) / 100,
             f"final gap {last['gap']} exceeds 1% of the reference {last['reference']}")
