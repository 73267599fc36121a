"""The package's records are named tuples that behave as the frozen
dataclasses they replace: each keeps its ``Name(field=value, ...)`` repr,
survives a pickle round trip (the ``--jobs`` pool sends ``PhiRow`` and
``SurfaceRow`` lists between processes), refuses a field assignment,
and a validated target refuses bad input in every form of construction,
unpickling included."""

import pickle
import re
from fractions import Fraction

import numpy as np
import pytest

from spinhom.bulk_density import PhiRow, phi_bracket
from spinhom.connectivity import ConnectivitySummary, PeriodicComponent
from spinhom.gamma_limit import (
    Box,
    Boxes,
    Constant,
    ConvergenceReport,
    ConvergenceRow,
    DomainSpec,
    ExtensionResult,
    MultiphaseField,
    Slab,
    SpinField,
    extend,
)
from spinhom.ground_state import CellTerms, FoldedInstance, GroundStateInstance, Solution, fold_instance, minimize
from spinhom.model import ValidationReport, Violation, parse_model, validate
from spinhom.surface_tension import SurfaceRow

from conftest import fixture_document, fixture_model, one_weak_weight_changed

F = Fraction
UNIT = DomainSpec((F(0),), (F(1),))
SQUARE = DomainSpec((F(0), F(0)), (F(1), F(1)))


def _records() -> dict:
    """One instance of each record, built by the code that makes it where
    it can be."""
    islands = fixture_model("islands_1d")
    summary = islands.summary
    doc = fixture_document("soft_inclusions_2d")
    one_weak_weight_changed(doc)
    report = validate(parse_model(doc))
    terms = GroundStateInstance(
        variables=(0, 1, 2),
        pair_terms=((0, 1, F(1, 2)), (1, 2, F(1, 3))),
        unary_terms={0: (F(1), F(0))},
        fixed={2: -1},
    ).terms()
    field = SpinField(F(1, 8), SQUARE, np.ones((7, 7), dtype=np.int8))
    row = ConvergenceRow(eps=F(1, 8), energy=F(3), gap=F(1, 4))
    box = Box((F(1, 4), F(1, 4)), (F(1, 2), F(1, 2)))
    slab = Slab((F(1), F(2)), F(1, 2))
    return {
        "PhiRow": phi_bracket(islands, islands.period * 2, (-1,)),
        "SurfaceRow": SurfaceRow(phase=1, direction=(1, 2), sides=(4, 8), values=(F(3, 2), F(5, 4))),
        "ConvergenceRow": row,
        "ConvergenceReport": ConvergenceReport(F(3), 8, 8, 16, (row,)),
        "ExtensionResult": extend(fixture_model("soft_inclusions_2d"), 1, field, 4),
        "Violation": report.violations[0],
        "ValidationReport": report,
        "PeriodicComponent": summary.islands()[0],
        "ConnectivitySummary": summary,
        "CellTerms": terms,
        "Solution": minimize(terms),
        "FoldedInstance": fold_instance(terms),
        "DomainSpec": SQUARE,
        "Slab": slab,
        "Box": box,
        "Boxes": Boxes((box, Box((F(3, 4), F(0)), (F(1), F(1, 4))))),
        "Constant": Constant(-1),
        "MultiphaseField": MultiphaseField((slab, Constant(1))),
    }


RECORDS = _records()


def same(a, b) -> bool:
    """Equal values of one type; arrays by content and dtype, spin fields
    by their documents, records field by field (a record holding arrays
    is never compared with ``==``)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    if isinstance(a, SpinField):
        return a.to_json_dict() == b.to_json_dict()
    if hasattr(a, "_fields"):
        return all(same(x, y) for x, y in zip(a, b))
    return a == b


def test_every_record_is_covered():
    assert {type(r).__name__ for r in RECORDS.values()} == set(RECORDS)
    assert all(isinstance(r, tuple) for r in RECORDS.values())


@pytest.mark.parametrize("name", RECORDS)
def test_pickle_round_trip(name):
    record = RECORDS[name]
    back = pickle.loads(pickle.dumps(record))
    assert type(back) is type(record)
    assert same(back, record)
    if not isinstance(record, (CellTerms, Solution, FoldedInstance, ExtensionResult)):
        assert back == record


@pytest.mark.parametrize("name", RECORDS)
def test_repr_names_each_field(name):
    record = RECORDS[name]
    fields = ", ".join(f"{f}={getattr(record, f)!r}" for f in record._fields)
    assert repr(record) == f"{name}({fields})"


def test_repr_keeps_the_dataclass_form():
    assert repr(Constant(1)) == "Constant(value=1)"
    assert repr(ConvergenceRow(F(1, 2), F(1), F(0))) == (
        "ConvergenceRow(eps=Fraction(1, 2), energy=Fraction(1, 1), gap=Fraction(0, 1))"
    )


@pytest.mark.parametrize("name", RECORDS)
def test_fields_are_read_only(name):
    record = RECORDS[name]
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = None  # no instance __dict__


def test_field_defaults_and_order_are_kept():
    assert PhiRow._fields == ("m", "plain", "corrected", "lower", "upper")
    assert PeriodicComponent(1, frozenset(), (), "finite") == (1, frozenset(), (), "finite", None, None)
    assert ConnectivitySummary._fields[-1] == "violations"
    assert CellTerms._fields == (
        "fixed", "group", "u", "v", "pair_class", "weights", "site_class", "h_plus", "h_minus", "scale",
    )
    assert FoldedInstance._fields[0] == "instance" and FoldedInstance._fields[-1] == "scale"
    assert Solution._fields == ("spins", "energy", "method")
    assert ExtensionResult._fields == ("field", "phase", "m", "marked")
    assert ValidationReport._fields == ("violations",) and Violation._fields == ("rule", "witness", "message")
    assert ValidationReport(()).passed


TOUCHING = (Box((F(0),), (F(1, 2),)), Box((F(1, 2),), (F(1),)))

# (class, keyword arguments in field order, the exact message)
REFUSALS = [
    pytest.param(DomainSpec, {"lo": (F(0),), "hi": (F(0),)}, "domain must have nonempty interior",
                 id="domain-empty"),
    pytest.param(DomainSpec, {"lo": (F(0), F(0)), "hi": (F(1),)}, "domain corners must have equal positive length",
                 id="domain-lengths"),
    pytest.param(DomainSpec, {"lo": (), "hi": ()}, "domain corners must have equal positive length", id="domain-0d"),
    pytest.param(Slab, {"normal": (F(0), F(0)), "offset": F(1)}, "slab normal must be nonzero", id="slab-zero"),
    pytest.param(Box, {"lo": (F(1),), "hi": (F(1),)}, "box must have nonempty interior", id="box-empty"),
    pytest.param(Box, {"lo": (F(0), F(0)), "hi": (F(1),)}, "box corners must have equal length", id="box-lengths"),
    pytest.param(Boxes, {"boxes": TOUCHING}, "boxes must have pairwise disjoint closures", id="boxes-touching"),
    pytest.param(Constant, {"value": 0}, "constant phase value must be +-1", id="constant-zero"),
    pytest.param(MultiphaseField, {"phases": ()}, "at least one phase target required", id="multiphase-empty"),
]


@pytest.mark.parametrize("cls, kwargs, message", REFUSALS)
def test_constructor_refusals(cls, kwargs, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        cls(*kwargs.values())


@pytest.mark.parametrize("cls, kwargs, message", REFUSALS)
def test_keyword_construction_refuses_the_same(cls, kwargs, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        cls(**kwargs)


def test_keyword_construction_builds_the_same_record():
    assert Box(lo=(F(0),), hi=(F(1),)) == Box((F(0),), (F(1),))
    assert Slab(offset=F(1), normal=(F(1),)) == Slab((F(1),), F(1))
    assert MultiphaseField(phases=(Constant(value=1),)) == MultiphaseField((Constant(1),))


def test_unpickling_reruns_the_check():
    # a record that bypassed its constructor is refused when it is loaded
    forged = tuple.__new__(Constant, (0,))
    data = pickle.dumps(forged)
    with pytest.raises(ValueError, match=r"^constant phase value must be \+-1$"):
        pickle.loads(data)
    assert pickle.loads(pickle.dumps(UNIT)) == UNIT
