"""Parsing, serialization, and static validation of lattice models."""

import json
import pickle
from fractions import Fraction

import pytest

from spinhom import bulk_density, connectivity, surface_tension
from spinhom import model as model_module
from spinhom.bulk_density import build_phi_instance, phi_estimate, phi_m
from spinhom.connectivity import classify, coarsening_side
from spinhom.gamma_limit import (
    DomainSpec,
    MultiphaseField,
    SpinField,
    converge_report,
    extend,
    f_eps,
    recovery_config,
)
from spinhom.model import (
    SchemaError,
    number_str,
    parse_model,
    serialize_model,
    validate,
)
from spinhom.surface_tension import cell_value, check_cells

from conftest import FIXTURE_NAMES, INVALID_INCLUSIONS, fixture_document, fixture_model
from test_helpers import spin_grid


def minimal_doc():
    return {
        "dimension": 1,
        "period": 2,
        "num_phases": 1,
        "labels": {"0": 0, "1": 1},
        "strong_bonds": [
            {"from": "1", "offset": [2], "weight": "1/8"},
            {"from": "1", "offset": [-2], "weight": "1/8"},
        ],
        "weak_bonds": [
            {"from": "0", "offset": [1], "weight": "0.05"},
            {"from": "0", "offset": [-1], "weight": "0.05"},
            {"from": "1", "offset": [1], "weight": "0.05"},
            {"from": "1", "offset": [-1], "weight": "0.05"},
        ],
    }


def test_number_str_round_trips():
    cases = [
        Fraction(0),
        Fraction(1),
        Fraction(-1),
        Fraction(13, 10),
        Fraction(1, 20),
        Fraction(-1, 8),
        Fraction(415, 2),
        Fraction(1, 3),
        Fraction(-63, 64),
        Fraction(7, 4000),
        # denominators far past int64, of both signs, with and without an odd factor
        Fraction(-1, 2**69 * 5**39),
        Fraction(3**50, 2**69),
        Fraction(-(10**30) - 7, 5**39),
        Fraction(11, 2**69 * 5**39 * 3),
        Fraction(-13, 2**40 * 7),
    ]
    for q in cases:
        text = number_str(q)
        assert Fraction(text) == q, f"{q} rendered as {text!r}"
        # a decimal exactly when the denominator divides a power of ten
        assert ("/" in text) == ((q * 10**80).denominator != 1), text


def test_number_str_prefers_decimal_for_dyadic_like():
    assert number_str(Fraction(13, 10)) == "1.3"
    assert number_str(Fraction(1, 20)) == "0.05"
    assert number_str(Fraction(-1, 8)) == "-0.125"
    assert number_str(Fraction(1, 3)) == "1/3"
    assert number_str(Fraction(5)) == "5"


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_round_trip(name):
    doc = fixture_document(name)
    model = parse_model(doc)
    again = parse_model(serialize_model(model))
    assert again == model


def test_models_compare_by_their_fields_and_do_not_hash():
    doc = fixture_document("islands_1d")
    model = parse_model(doc)
    model.summary  # a cached value is not a field
    assert parse_model(doc) == model
    doc["weak_bonds"][0]["weight"] = "7"
    assert parse_model(doc) != model
    assert model != serialize_model(model)
    with pytest.raises(TypeError):
        hash(model)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixtures_validate_clean(name):
    report = validate(parse_model(fixture_document(name)))
    assert report.passed, report.violations


def test_parse_accepts_json_text():
    doc = minimal_doc()
    assert parse_model(json.dumps(doc)) == parse_model(doc)


def test_parse_rejects_bad_json_text():
    with pytest.raises(SchemaError):
        parse_model("{not json")


@pytest.mark.parametrize("key", ["dimension", "period", "num_phases", "labels"])
def test_missing_required_field(key):
    doc = minimal_doc()
    del doc[key]
    with pytest.raises(SchemaError, match=key):
        parse_model(doc)


def test_labels_must_cover_all_residues():
    doc = minimal_doc()
    del doc["labels"]["1"]
    with pytest.raises(SchemaError, match="expected 2 residues"):
        parse_model(doc)


def test_label_out_of_range():
    doc = minimal_doc()
    doc["labels"]["1"] = 7
    with pytest.raises(SchemaError, match="label must be an integer"):
        parse_model(doc)


def test_strong_bond_at_soft_residue_rejected():
    doc = minimal_doc()
    doc["strong_bonds"].append({"from": "0", "offset": [2], "weight": "1/8"})
    with pytest.raises(SchemaError, match="labeled 0"):
        parse_model(doc)


def test_duplicate_bond_rejected_across_kinds():
    doc = minimal_doc()
    doc["weak_bonds"].append({"from": "1", "offset": [2], "weight": "0.01"})
    with pytest.raises(SchemaError, match="duplicate bond"):
        parse_model(doc)


def test_zero_offset_rejected():
    doc = minimal_doc()
    doc["weak_bonds"][0]["offset"] = [0]
    with pytest.raises(SchemaError):
        parse_model(doc)


def test_bad_weight_string():
    doc = minimal_doc()
    doc["strong_bonds"][0]["weight"] = "eight"
    with pytest.raises(SchemaError, match="weight"):
        parse_model(doc)


@pytest.mark.parametrize(
    "mutate, locus",
    [
        (lambda d: d.__setitem__("dimension", True), "$.dimension"),
        (lambda d: d.__setitem__("period", 2.0), "$.period"),
        (lambda d: d.__setitem__("num_phases", True), "$.num_phases"),
        (lambda d: d["labels"].__setitem__("1", True), "$.labels['1']"),
        (lambda d: d["labels"].__setitem__("1", 1.0), "$.labels['1']"),
        (lambda d: d["strong_bonds"][0].__setitem__("weight", True), "$.strong_bonds[0].weight"),
        (lambda d: d["strong_bonds"][0].__setitem__("offset", [2.7]), "$.strong_bonds[0].offset"),
        (lambda d: d["strong_bonds"][0].__setitem__("offset", ["2"]), "$.strong_bonds[0].offset"),
        (lambda d: d["weak_bonds"][0].__setitem__("offset", [True]), "$.weak_bonds[0].offset"),
        (lambda d: d.__setitem__("strong_bonds", 5), "$.strong_bonds"),
        (lambda d: d.__setitem__("weak_bonds", {"0": []}), "$.weak_bonds"),
        (lambda d: d.__setitem__("strong_bonds", [5]), "$.strong_bonds[0]"),
        (lambda d: d.__setitem__("forcing", {"0": 5}), "$.forcing['0']"),
        (lambda d: d.__setitem__("labels", {"0": 0, "01": 1}), "$.labels['01']"),
        (lambda d: d["weak_bonds"][0].__setitem__("from", " 0"), "$.weak_bonds[0].from"),
    ],
)
def test_no_silent_coercion(mutate, locus):
    """Integer fields take JSON integers only (not booleans, floats or
    strings), and arrays and objects must be what the schema says."""
    doc = minimal_doc()
    mutate(doc)
    with pytest.raises(SchemaError) as info:
        parse_model(doc)
    assert info.value.locus == locus


def test_bad_residue_key():
    doc = minimal_doc()
    doc["labels"]["5"] = 1
    with pytest.raises(SchemaError):
        parse_model(doc)


def test_forcing_parsed_by_sign():
    doc = minimal_doc()
    doc["forcing"] = {"0": {"plus": "0", "minus": "2"}}
    model = parse_model(doc)
    assert model.forcing[((0,), 1)] == 0
    assert model.forcing[((0,), -1)] == 2


def test_coercivity_floor_must_be_positive():
    doc = minimal_doc()
    doc["coercivity_floor"] = "-1"
    with pytest.raises(SchemaError, match="positive"):
        parse_model(doc)


def test_validate_flags_missing_reverse_bond():
    doc = minimal_doc()
    doc["weak_bonds"].pop()  # drop the reverse of one weak bond
    report = validate(parse_model(doc))
    assert not report.passed
    assert any(v.rule == "symmetry" for v in report.violations)


def test_validate_flags_mismatched_reverse_weight():
    doc = minimal_doc()
    doc["weak_bonds"][1]["weight"] = "0.06"
    report = validate(parse_model(doc))
    assert any(v.rule == "symmetry" for v in report.violations)


def test_validate_flags_weak_bond_inside_one_hard_phase():
    doc = minimal_doc()
    doc["weak_bonds"] += [
        {"from": "1", "offset": [2], "weight": "0.01"},
        {"from": "1", "offset": [-2], "weight": "0.01"},
    ]
    doc["strong_bonds"] = [
        {"from": "1", "offset": [4], "weight": "1/8"},
        {"from": "1", "offset": [-4], "weight": "1/8"},
    ]
    report = validate(parse_model(doc))
    assert any(v.rule == "weak-admissibility" for v in report.violations)


def test_validate_flags_strong_bond_leaving_phase():
    doc = {
        "dimension": 1,
        "period": 2,
        "num_phases": 2,
        "labels": {"0": 2, "1": 1},
        "strong_bonds": [
            {"from": "1", "offset": [1], "weight": "1/8"},
            {"from": "0", "offset": [-1], "weight": "1/8"},
        ],
        "weak_bonds": [],
    }
    report = validate(parse_model(doc))
    assert any(v.rule == "hard-closure" for v in report.violations)


def test_validate_flags_empty_phase():
    doc = minimal_doc()
    doc["num_phases"] = 2  # phase 2 has no residues
    report = validate(parse_model(doc))
    assert any(v.rule == "empty-phase" for v in report.violations)


def test_validate_flags_nonpositive_strong_weight():
    doc = minimal_doc()
    doc["strong_bonds"][0]["weight"] = "-1/8"
    doc["strong_bonds"][1]["weight"] = "-1/8"
    report = validate(parse_model(doc))
    assert any(v.rule == "coerciveness" for v in report.violations)


def test_validate_flags_strong_weight_below_floor():
    doc = minimal_doc()
    doc["coercivity_floor"] = "1/4"
    report = validate(parse_model(doc))
    assert any(v.rule == "coerciveness" for v in report.violations)


# ---------------------------------------------------------------------------
# the model gate: one validation per model object, checked by every cell


def gate_model(change):
    """``soft_inclusions_2d`` after ``change`` edits its document."""
    doc = fixture_document("soft_inclusions_2d")
    change(doc)
    return parse_model(doc)


SQUARE = DomainSpec.from_json_dict({"lo": ["0", "0"], "hi": ["1", "1"]})
BOX = MultiphaseField.from_json_dict(
    {"phases": [{"boxes": [{"lo": ["0.25", "0.25"], "hi": ["0.75", "0.75"]}]}]}
)
CELL_ENTRIES = {
    "build_phi_instance": lambda m: build_phi_instance(m, 8, (-1,)),
    "phi_m": lambda m: phi_m(m, 8, (-1,)),
    "phi_estimate": lambda m: phi_estimate(m, (-1,), (8, 16)),
    "cell_value": lambda m: cell_value(m, 1, (1, 2), 16),
    "check_cells": lambda m: check_cells(m, [(1, (1, 2), 8), (1, (1, 2), 16)]),
    "coarsening_side": lambda m: coarsening_side(m, 1),
    "extend": lambda m: extend(m, 1, SpinField(Fraction(1, 32), SQUARE, spin_grid(SQUARE, Fraction(1, 32), 1)), 4),
    "recovery_config": lambda m: recovery_config(m, SQUARE, BOX, Fraction(1, 16), 4),
    "converge_report": lambda m: converge_report(m, SQUARE, BOX, ("1/8", "1/16"), 4),
}


@pytest.mark.parametrize("change, violation", INVALID_INCLUSIONS)
@pytest.mark.parametrize("entry", sorted(CELL_ENTRIES))
def test_cell_entries_refuse_a_model_that_fails_validation(monkeypatch, change, violation, entry):
    """Every library entry that builds a cell raises the one-line error of
    the CLI, naming the first violation, before any pair of a cell is built."""
    model = gate_model(change)

    def unbuilt(*args, **kwargs):
        raise AssertionError("a cell was built")

    for module in (connectivity, bulk_density, surface_tension):
        monkeypatch.setattr(module, "box_pairs", unbuilt)
    with pytest.raises(ValueError) as refused:
        CELL_ENTRIES[entry](model)
    assert str(refused.value) == f"the model fails validation {violation}"


@pytest.mark.parametrize("change, violation", INVALID_INCLUSIONS)
def test_reports_still_run_on_a_model_that_fails_validation(change, violation):
    """``validate``, ``classify`` and ``f_eps`` report on the model the
    cells refuse."""
    model = gate_model(change)
    report = validate(model)
    assert f"({report.violations[0].rule}): {report.violations[0].message}" == violation
    assert model.report == report
    assert classify(model).core_residues[1]
    field = SpinField(Fraction(1, 8), SQUARE, spin_grid(SQUARE, Fraction(1, 8), -1))
    assert f_eps(model, field) == Fraction(49, 16)  # 49 sites at forcing 4, times eps^2


def test_validate_runs_once_per_model_object(monkeypatch):
    """The cells of one model share its cached report; a pickled model,
    as a ``--jobs`` worker receives it, keeps the report and validates
    no more."""
    calls = []
    real = model_module.validate
    monkeypatch.setattr(model_module, "validate", lambda m: calls.append(m) or real(m))
    model = fixture_model("soft_inclusions_2d")
    phi_m(model, 4, (1,))
    cell_value(model, 1, (1, 2), 8)
    coarsening_side(model, 1)
    assert calls == [model]
    clone = pickle.loads(pickle.dumps(model))
    assert clone.report == model.report
    phi_m(clone, 4, (-1,))
    cell_value(clone, 1, (1, 0), 8)
    assert calls == [model]
