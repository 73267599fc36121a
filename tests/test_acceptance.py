"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single PASS/FAIL
line with the measured values (visible under ``pytest -s``); the pytest
verdict per test carries the same information in ``-v`` listings.
Tolerances are pinned in the assertions, not configurable.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from spinhom.bulk_density import (
    PhiTable,
    island_error_constant,
    phi_bracket,
    phi_estimate,
    phi_m,
)
from spinhom.connectivity import classify
from spinhom.gamma_limit import (
    DomainSpec,
    MultiphaseField,
    Slab,
    SpinField,
    converge_report,
    count_broken_strong,
    extend,
    f_hom,
)
from spinhom.surface_tension import SurfaceTable

from conftest import fixture_model, random_chain_model, FIXTURE_NAMES
from test_ground_state import random_instance
from test_helpers import in_core, solve, spin_grid

TOL = Fraction(5, 100)


def report(criterion: int, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}")
    assert ok, detail


def test_criterion_01_soft_chain_bracket():
    model = fixture_model("chain_soft_even")
    t0 = time.perf_counter()
    aligned = phi_bracket(model, 64, (1,))
    forced = phi_bracket(model, 64, (-1,))
    elapsed = time.perf_counter() - t0
    ok = (
        abs(aligned.plain) <= TOL
        and abs(aligned.corrected) <= TOL
        and abs(forced.plain - Fraction(7, 5)) <= TOL
        and abs(forced.corrected - Fraction(7, 5)) <= TOL
        and aligned.lower <= aligned.plain <= aligned.upper
        and forced.lower <= forced.plain <= forced.upper
        and elapsed < 1.0
    )
    report(
        1,
        ok,
        f"phi_64(+1) = {aligned.plain}, phi_64(-1) = {forced.plain} "
        f"(targets 0 and 1.4, tolerance 0.05) in {elapsed:.3f}s",
    )


def test_criterion_02_antiferromagnetic_background():
    model = fixture_model("chain_soft_even_anti")
    value = phi_m(model, 64, (-1,))
    ok = abs(value - (-1)) <= TOL
    report(2, ok, f"phi_64(-1) = {value} (target -1, tolerance 0.05)")


def test_criterion_03_two_phase_chain():
    model = fixture_model("two_chains")
    opposed = phi_m(model, 64, (1, -1))
    aligned = phi_m(model, 64, (1, 1))
    surface = SurfaceTable.from_model(model, [(1,)], (4, 8))
    phi = PhiTable.from_model(model, [8])
    omega = DomainSpec((Fraction(0),), (Fraction(1),))
    target = MultiphaseField(
        (Slab((Fraction(1),), Fraction(1, 2)), Slab((Fraction(1),), Fraction(1, 2)))
    )
    jump = f_hom(model, omega, target, surface, phi)
    ok = abs(opposed - 1) <= TOL and aligned == 0 and jump == 3
    report(
        3,
        ok,
        f"phi_64(1,-1) = {opposed}, phi_64(1,1) = {aligned}, "
        f"two-phase wall energy = {jump} (exact 3)",
    )


def test_criterion_04_two_weak_scales():
    model = fixture_model("chain_two_weak_scales")
    aligned = phi_m(model, 64, (1,))
    forced = phi_m(model, 64, (-1,))
    ok = aligned == 0 and abs(forced - Fraction(13, 4)) <= TOL
    report(4, ok, f"phi_64(+1) = {aligned}, phi_64(-1) = {forced} (target 3.25)")


def test_criterion_05_inclusion_lattice_wall():
    model = fixture_model("soft_inclusions_2d")
    t0 = time.perf_counter()
    row = SurfaceTable.from_model(model, [(1, 0)], (8, 16, 32)).row(1, (1, 0))
    elapsed = time.perf_counter() - t0
    ok = abs(row.estimate - Fraction(1, 2)) <= TOL and elapsed < 30.0
    report(
        5,
        ok,
        f"f_T(e1) = {[str(v) for v in row.values]} at T = 8, 16, 32 "
        f"(target 0.5) in {elapsed:.2f}s",
    )


def test_criterion_06_diagonal_lattice_walls():
    model = fixture_model("diagonal_2d")
    table = SurfaceTable.from_model(model, [(1, 0), (1, 1)], (16, 32))
    axis, diag = table.value(1, (1, 0)), table.value(1, (1, 1))
    ok = abs(axis - 1) <= TOL and abs(float(diag) - 2**-0.5) <= 0.05
    report(
        6,
        ok,
        f"f_32(e1) = {axis} (target 1), f_32(diag) = {diag} "
        f"(target 0.7071, tolerance 0.05)",
    )


def test_criterion_07_structural_inequalities():
    checked = 0
    for name in FIXTURE_NAMES:
        model = fixture_model(name)
        c = island_error_constant(model)
        nonneg_weak = all(
            model.weights[res, off] >= 0
            for res in model.labels
            for off in model.weak_offsets(res)
        )
        # doubling pair whose sub-cube translates stay on the period grid
        pair = (2 * model.period, 4 * model.period)
        for states in itertools.product((1, -1), repeat=model.num_phases):
            for m in (4, 8):
                row = phi_bracket(model, m, states)
                plain, corrected = row.plain, row.corrected
                assert corrected >= plain, (name, states, m)
                assert plain >= corrected - Fraction(c, m), (name, states, m)
                checked += 1
            if nonneg_weak:
                small, big = (phi_m(model, m, states) for m in pair)
                assert big >= small, (name, states, pair)
    rng = random.Random(20260819)
    for _ in range(50):
        model = random_chain_model(rng, nonneg_weak=True)
        c = island_error_constant(model)
        for states in itertools.product((1, -1), repeat=model.num_phases):
            values = {}
            for m in (4, 8):
                row = phi_bracket(model, m, states)
                plain, corrected = row.plain, row.corrected
                assert corrected >= plain
                assert plain >= corrected - Fraction(c, m)
                values[m] = plain
                checked += 1
            assert values[8] >= values[4]
    # the doubling step genuinely fails once weak couplings go negative
    anti = fixture_model("chain_soft_even_anti")
    with pytest.warns(UserWarning, match="doubling"):
        rows = phi_estimate(anti, (-1,), (4, 8))
    assert rows[0].plain == Fraction(-3, 4) > rows[1].plain == Fraction(-7, 8)
    report(
        7,
        True,
        f"{checked} bracket and monotonicity checks, plus the documented "
        f"negative-coupling counterexample phi_4 = -3/4 > phi_8 = -7/8",
    )


def test_criterion_08_solver_oracle():
    rng = random.Random(8888)
    for trial in range(200):
        inst = random_instance(rng, rng.randrange(2, 17), signed=False)
        enum = solve(inst.terms(), "enum")
        cut = solve(inst.terms(), "cut")
        assert cut.energy == enum.energy, f"trial {trial}"
    report(8, True, "200 random instances of up to 16 free spins: min-cut == enumeration")


def test_criterion_09_extension_bound():
    model = fixture_model("soft_inclusions_2d")
    s = classify(model)
    omega = DomainSpec((Fraction(0), Fraction(0)), (Fraction(1), Fraction(1)))
    eps = Fraction(1, 32)
    rng = random.Random(99)
    worst = Fraction(0)
    for _ in range(100):
        field = SpinField(eps, omega, spin_grid(omega, eps, lambda k: rng.choice([1, -1])))
        broken = count_broken_strong(model, field)
        res = extend(model, 1, field, 4)
        assert res.marked_count <= 9 * broken
        if broken:
            worst = max(worst, Fraction(res.marked_count, broken))
        again = extend(model, 1, res.field, 4)
        assert again.field.values == res.field.values
        assert again.marked == res.marked
        for k, v in field.values.items():
            if in_core(s, 1, k):
                assert res.field.values[k] == v
    report(
        9,
        True,
        f"100 random fields: marked cubes <= 9 * broken bonds "
        f"(worst ratio {float(worst):.3f}), extension idempotent, core preserved",
    )


def test_criterion_10_convergence_trend():
    model = fixture_model("chain_soft_even")
    omega = DomainSpec((Fraction(0),), (Fraction(1),))
    target = MultiphaseField((Slab((Fraction(1),), Fraction(1, 2)),))
    eps_list = (Fraction(1, 32), Fraction(1, 64), Fraction(1, 128))
    rep = converge_report(model, omega, target, eps_list, 4)
    gaps = [row.gap for row in rep.rows]
    strictly = all(b < a for a, b in zip(gaps, gaps[1:]))
    ok = strictly and rep.final_relative <= Fraction(1, 10)
    report(
        10,
        ok,
        f"gaps {[str(g) for g in gaps]} strictly decreasing, "
        f"final relative gap {float(rep.final_relative):.5f} <= 0.1",
    )
