"""Parsing, serialization, and static validation of lattice models."""

import json
from fractions import Fraction

import pytest

from spinhom.model import (
    SchemaError,
    number_str,
    parse_model,
    serialize_model,
    validate,
)

from conftest import fixture_document, FIXTURE_NAMES


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
    ]
    for q in cases:
        text = number_str(q)
        assert Fraction(text) == q, f"{q} rendered as {text!r}"


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
