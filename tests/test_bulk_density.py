"""Periodic bulk energy densities and their finite-size brackets."""

import itertools
import json
import warnings
from fractions import Fraction

import pytest

from spinhom import bulk_density
from spinhom.bulk_density import (
    PhiTable,
    build_phi_instance,
    island_error_constant,
    phi_bracket,
    phi_estimate,
    phi_m,
    phi_solution,
    phi_tilde_m,
)
from spinhom.connectivity import classify
from spinhom.ground_state import energy, fold_instance
from spinhom.model import parse_model

from conftest import fixture_document, fixture_model


def brute_phi(model, m, states, summary):
    """Reference density by full enumeration of the folded free groups."""
    inst = build_phi_instance(model, m, states, summary)
    folded = fold_instance(inst)
    reps = folded.free_reps
    best = None
    for bits in itertools.product((1, -1), repeat=len(reps)):
        rep_values = dict(zip(reps, bits))
        rep_values.update(folded.fixed_reps)
        assignment = {v: rep_values[folded.rep_of[v]] for v in inst.variables}
        e = energy(inst, assignment)
        if best is None or e < best:
            best = e
    return Fraction(best, m**model.dimension)


CASES = [
    ("chain_soft_even", (1,), 8, Fraction(0)),
    ("chain_soft_even", (-1,), 8, Fraction(27, 20)),
    ("chain_soft_even_anti", (-1,), 8, Fraction(-7, 8)),
    ("two_chains", (1, -1), 8, Fraction(7, 8)),
    ("two_chains", (1, 1), 8, Fraction(0)),
    ("chain_two_weak_scales", (-1,), 8, Fraction(51, 16)),
    ("soft_inclusions_2d", (-1,), 4, Fraction(129, 40)),
    ("diagonal_2d", (-1,), 4, Fraction(35, 16)),
]


@pytest.mark.parametrize("name,states,m,expected", CASES)
def test_phi_matches_enumeration_and_frozen_value(name, states, m, expected):
    model = fixture_model(name)
    s = classify(model)
    value = phi_m(model, m, states, s)
    assert value == expected
    assert value == brute_phi(model, m, states, s)


def test_phi_tilde_dominates_phi(any_model):
    model = any_model
    s = classify(model)
    m = 8 if model.dimension == 1 else 4
    for states in itertools.product((1, -1), repeat=model.num_phases):
        assert phi_tilde_m(model, m, states, s) >= phi_m(model, m, states, s)


def test_bracket_orders_lower_below_upper(any_model):
    model = any_model
    s = classify(model)
    m = 8 if model.dimension == 1 else 4
    for states in itertools.product((1, -1), repeat=model.num_phases):
        row = phi_bracket(model, m, states, s)
        assert row.m == m
        assert row.lower == row.plain
        assert row.lower <= row.upper
        c = island_error_constant(model, s)
        assert row.upper == row.corrected + Fraction(c, m)


def test_island_error_constant_values():
    for name in ("chain_soft_even", "two_chains", "soft_inclusions_2d", "diagonal_2d"):
        model = fixture_model(name)
        assert island_error_constant(model, classify(model)) == 0
    model = fixture_model("islands_1d")
    assert island_error_constant(model, classify(model)) == Fraction(21, 10)


def test_island_error_constant_ignores_strong_weights():
    doc = fixture_document("islands_1d")
    for bond in doc["strong_bonds"]:
        bond["weight"] = "1000"
    model = parse_model(doc)
    assert island_error_constant(model, classify(model)) == Fraction(21, 10)


def test_island_correction_sandwich_at_fixed_size():
    model = fixture_model("islands_1d")
    s = classify(model)
    m = 12
    plain = phi_m(model, m, (-1,), s)
    corrected = phi_tilde_m(model, m, (-1,), s)
    assert plain == 0
    assert corrected == Fraction(7, 120)
    c = island_error_constant(model, s)
    assert corrected - Fraction(c, m) <= plain <= corrected


@pytest.mark.parametrize("name,solves", [("chain_soft_even", 1), ("islands_1d", 2)])
def test_phi_bracket_solves_each_distinct_cube_once(monkeypatch, name, solves):
    """Without islands the corrected cube is the plain one and is not solved again."""
    instances = []
    real = bulk_density.minimize

    def counting(instance, **solver):
        instances.append(instance)
        return real(instance, **solver)

    monkeypatch.setattr(bulk_density, "minimize", counting)
    row = phi_bracket(fixture_model(name), 12, (-1,))
    assert len(instances) == solves
    assert (row.corrected == row.plain) == (solves == 1)


def test_phi_estimate_requires_increasing_sizes():
    model = fixture_model("chain_soft_even")
    with pytest.raises(ValueError):
        phi_estimate(model, (-1,), (8, 8))
    with pytest.raises(ValueError):
        phi_estimate(model, (-1,), (8, 4))


def test_phi_estimate_rows_and_doubling_warning():
    model = fixture_model("chain_soft_even_anti")
    s = classify(model)
    with pytest.warns(UserWarning, match="doubling"):
        rows = phi_estimate(model, (-1,), (4, 8), s)
    assert [r.m for r in rows] == [4, 8]
    assert rows[0].plain == Fraction(-3, 4)
    assert rows[1].plain == Fraction(-7, 8)


def test_phi_estimate_silent_on_nonnegative_weak_couplings():
    model = fixture_model("chain_soft_even")
    s = classify(model)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = phi_estimate(model, (-1,), (4, 8, 16), s)
    values = [r.plain for r in rows]
    assert values == sorted(values)


def test_phi_instance_structure_two_chains():
    model = fixture_model("two_chains")
    s = classify(model)
    inst = build_phi_instance(model, 4, (1, -1), s)
    assert set(inst.variables) == {(-2,), (-1,), (0,), (1,)}
    # every site is hard here, pinned to the state of its phase
    assert inst.fixed == {(-2,): -1, (0,): -1, (-1,): 1, (1,): 1}
    assert set(inst.groups) == {
        frozenset({(-2,), (0,)}),
        frozenset({(-1,), (1,)}),
    }


def test_phi_solution_exact_with_no_free_sites():
    model = fixture_model("two_chains")
    s = classify(model)
    sol = phi_solution(model, 8, (1, -1), s)
    assert sol.exact
    assert Fraction(sol.energy, 8) == Fraction(7, 8)


def test_phi_table_enumerates_all_states():
    model = fixture_model("two_chains")
    s = classify(model)
    table = PhiTable.from_model(model, [4, 8], s)
    assert table.states() == [(1, 1), (1, -1), (-1, 1), (-1, -1)]
    assert table.value((1, -1)) == Fraction(7, 8)
    assert table.value((1, 1)) == 0
    # symmetric under global spin flip: no forcing terms in this model
    assert table.value((-1, 1)) == table.value((1, -1))
    lo, hi = table.bracket((1, -1))
    assert lo <= table.value((1, -1)) <= hi
    with pytest.raises(KeyError):
        table.value((1,))


def test_phi_accepts_any_positive_size():
    # the cube minimization is well defined off the period grid too
    model = fixture_model("chain_soft_even")
    s = classify(model)
    assert phi_m(model, 7, (-1,), s) == brute_phi(model, 7, (-1,), s)
    with pytest.raises(ValueError):
        phi_m(model, 0, (-1,))
    with pytest.raises(ValueError):
        phi_m(model, -4, (-1,))


def test_phi_rejects_bad_state_vector():
    model = fixture_model("chain_soft_even")
    with pytest.raises(ValueError):
        phi_m(model, 8, (1, 1))
    with pytest.raises(ValueError):
        phi_m(model, 8, (2,))
