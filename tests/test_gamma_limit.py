"""Scaled energies, coarse extension, targets, and the limit functional."""

import itertools
import json
import math
import random
import re
import warnings
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from spinhom import gamma_limit
from spinhom.bulk_density import PhiTable, phi_solution
from spinhom.connectivity import classify, coarsening_side
from spinhom.gamma_limit import (
    Box,
    Boxes,
    Constant,
    DomainSpec,
    MultiphaseField,
    Slab,
    SpinField,
    converge_report,
    count_broken_strong,
    extend,
    f_eps,
    f_hom,
    load_field,
    recovery_config,
    save_field,
)
from spinhom.surface_tension import SurfaceTable
from spinhom.model import SchemaError, parse_model

from conftest import FIXTURE_NAMES, fixture_model, random_valid_model_2d
from test_helpers import (
    constant_on_box, cube_sites, forcing_value, in_core, phi_table, residue, spin_grid, surface_table,
)

UNIT = DomainSpec((Fraction(0),), (Fraction(1),))
SQUARE = DomainSpec((Fraction(0), Fraction(0)), (Fraction(1), Fraction(1)))


def test_domain_validation():
    with pytest.raises(ValueError):
        DomainSpec((Fraction(0),), (Fraction(0),))
    with pytest.raises(ValueError):
        DomainSpec((Fraction(0), Fraction(0)), (Fraction(1),))
    assert SQUARE.dimension == 2
    assert DomainSpec((Fraction(-1),), (Fraction(3),)).site_ranges(Fraction(1)) == [range(0, 3)]


def test_sites_are_strictly_inside():
    # boundary sites 0 and 8 sit on the closure, not the open box
    assert UNIT.site_ranges(Fraction(1, 8)) == [range(1, 8)]
    assert SQUARE.site_ranges(Fraction(1, 4)) == [range(1, 4), range(1, 4)]
    assert DomainSpec((Fraction(-1, 3),), (Fraction(5, 4),)).site_ranges(Fraction(1, 16)) == [range(-5, 20)]


def test_field_requires_exact_site_cover():
    eps = Fraction(1, 4)
    assert SpinField(eps, UNIT, np.array([1, -1, 1])).values == {(1,): 1, (2,): -1, (3,): 1}
    assert SpinField(eps, UNIT, [1, -1, 1]).spins.tolist() == [1, -1, 1]
    for spins in (np.ones(4, dtype=np.int8), np.ones(2, dtype=np.int8), np.ones((3, 1), dtype=np.int8)):
        with pytest.raises(ValueError, match=re.escape(f"spin array has shape {spins.shape}, the domain sites (3,)")):
            SpinField(eps, UNIT, spins)
    with pytest.raises(ValueError, match=r"spin at \(2,\)"):
        SpinField(eps, UNIT, np.array([1, 0, 1]))


def test_field_refuses_a_site_dict():
    # a site -> spin dict is no grid: it fails the shape check, even when it covers the sites
    for values in ({(1,): 1, (2,): -1, (3,): 1}, {}):
        with pytest.raises(ValueError, match=r"^spin array has shape \(\), the domain sites \(3,\)$"):
            SpinField(Fraction(1, 4), UNIT, values)


@pytest.mark.parametrize("spins, site", [
    (np.array([1, 257, -1]), 2),         # 257 wraps to 1 in int8
    (np.array([-1, 1, -255]), 3),        # -255 wraps to 1
    (np.array([2**40, -1, 257]), 1),     # 2**40 wraps to 0; the first bad site is named
    (np.array([1, -1, 0], dtype=np.int8), 3),
], ids=("257", "-255", "2**40", "int8-0"))
def test_field_checks_spins_before_the_int8_cast(spins, site):
    with pytest.raises(ValueError, match=rf"^spin at \({site},\) must be \+-1$"):
        SpinField(Fraction(1, 4), UNIT, spins)


def test_rle_total_is_checked_before_decoding():
    doc = {"eps": "1/4", "omega": {"lo": ["0"], "hi": ["1"]}, "spins_rle": [[10**12, 1]]}
    with pytest.raises(SchemaError, match="decodes to 1000000000000 spins but the domain has 3 sites"):
        SpinField.from_json_dict(doc)


def test_rle_rejects_booleans():
    # JSON true/false decode to bool, a subclass of int: neither is a count or a spin
    for rle in ([[True, 1], [2, True]], [[3, True]], [[False, 1], [3, 1]], [[3, 1.0]]):
        doc = {"eps": "1/4", "omega": {"lo": ["0"], "hi": ["1"]}, "spins_rle": rle}
        with pytest.raises(SchemaError, match=r"spins_rle\[\d\]: expected \[count, spin\]"):
            SpinField.from_json_dict(doc)


def test_field_save_load_round_trip(tmp_path):
    rng = random.Random(5)
    eps = Fraction(1, 16)
    spins = spin_grid(SQUARE, eps, lambda k: rng.choice([1, -1]))
    field = SpinField(eps, SQUARE, spins)
    path = tmp_path / "field.json"
    save_field(field, path)
    again = load_field(path)
    assert again.eps == eps
    assert again.omega == SQUARE
    assert np.array_equal(again.spins, spins)
    assert again.values == field.values


def test_f_eps_constant_field_counts_forcing_only():
    model = fixture_model("chain_soft_even")
    eps = Fraction(1, 8)
    field = SpinField(eps, UNIT, spin_grid(UNIT, eps, -1))
    # 7 interior sites, each paying the forcing value 2 at spin -1
    assert f_eps(model, field) == Fraction(7, 4)
    assert count_broken_strong(model, field) == 0
    assert f_eps(model, SpinField(eps, UNIT, spin_grid(UNIT, eps, 1))) == 0


def test_f_eps_single_flips():
    model = fixture_model("chain_soft_even")
    eps = Fraction(1, 8)
    # soft site: two weak pairs break, forcing drops by 2
    field = SpinField(eps, UNIT, spin_grid(UNIT, eps, lambda k: 1 if k == (4,) else -1))
    assert f_eps(model, field) == Fraction(8, 5)
    assert count_broken_strong(model, field) == 0

    # hard site: two strong pairs at unit cost stay unscaled
    field = SpinField(eps, UNIT, spin_grid(UNIT, eps, lambda k: 1 if k == (3,) else -1))
    assert f_eps(model, field) == Fraction(18, 5)
    assert count_broken_strong(model, field) == 2


def brute_f_eps(model, field):
    """Per-site reference for f_eps."""
    values = field.values
    strong = weak = forcing = Fraction(0)
    for x in values:
        res = residue(model, x)
        ux = values[x]
        for off in model.strong_offsets(res):
            y = tuple(a + b for a, b in zip(x, off))
            if y in values and values[y] != ux:
                strong += 4 * model.weights[res, off]
        for off in model.weak_offsets(res):
            y = tuple(a + b for a, b in zip(x, off))
            if y in values and values[y] != ux:
                weak += 4 * model.weights[res, off]
        forcing += forcing_value(model, x, ux)
    d = model.dimension
    return field.eps ** (d - 1) * strong + field.eps**d * (weak + forcing)


def brute_broken_strong(model, field, among=None):
    """Per-site reference for count_broken_strong; with ``among``, only
    the bonds from the sites whose residue it holds."""
    values = field.values
    count = 0
    for x in values:
        res = residue(model, x)
        if among is not None and res not in among:
            continue
        for off in model.strong_offsets(res):
            y = tuple(a + b for a, b in zip(x, off))
            if x < y and y in values and values[y] != values[x]:
                count += 1
    return count


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_f_eps_matches_per_site_reference(name):
    model = fixture_model(name)
    d = model.dimension
    rng = random.Random(FIXTURE_NAMES.index(name))
    eps = Fraction(1, 16)
    wide = DomainSpec((Fraction(-1, 3),) * d, (Fraction(5, 4),) * d)
    # one to three sites along the last axis: shorter than every bond reaching
    # across it, so those shifted slices are empty
    thin = [
        DomainSpec((Fraction(-1, 3),) * (d - 1) + (Fraction(0),), (Fraction(5, 4),) * (d - 1) + (hi,))
        for hi in (Fraction(1, 8), Fraction(3, 16), Fraction(1, 4))
    ]
    for omega in [wide, *thin]:
        for _ in range(4):
            field = SpinField(eps, omega, spin_grid(omega, eps, lambda k: rng.choice((1, -1))))
            assert f_eps(model, field) == brute_f_eps(model, field)
            assert count_broken_strong(model, field) == brute_broken_strong(model, field)
        for spin in (1, -1):
            field = SpinField(eps, omega, spin_grid(omega, eps, spin))
            assert f_eps(model, field) == brute_f_eps(model, field)


def test_one_sided_bonds_match_per_site_reference():
    # no reverse declarations: each ordered pair counts from its own side only
    model = parse_model({
        "dimension": 1, "period": 2, "num_phases": 1, "labels": {"0": 0, "1": 1},
        "strong_bonds": [{"from": "1", "offset": [2], "weight": "1/8"}],
        "weak_bonds": [{"from": "0", "offset": [-1], "weight": "1/3"}],
        "forcing": {"0": {"plus": "1/2"}, "1": {"minus": "1/5"}},
    })
    rng = random.Random(2)
    omega = DomainSpec((Fraction(-1, 3),), (Fraction(5, 4),))
    for _ in range(4):
        eps = Fraction(1, 16)
        field = SpinField(eps, omega, spin_grid(omega, eps, lambda k: rng.choice((1, -1))))
        assert f_eps(model, field) == brute_f_eps(model, field)
        assert count_broken_strong(model, field) == brute_broken_strong(model, field)


def brute_extend(model, phase, field, m, summary):
    """Per-site reference for extend: (spins, marked cubes)."""
    ranges = field.omega.site_ranges(field.eps)
    half = m // 2
    cubes = {}
    for k in field.values:
        cubes.setdefault(tuple((c + half) // m for c in k), []).append(k)
    values = dict(field.values)
    marked = []
    for z in sorted(cubes):
        if not all(
            c * m - half - m >= r.start and c * m - half + 2 * m - 1 < r.stop for c, r in zip(z, ranges)
        ):
            continue
        core = {field.values[k] for k in cubes[z] if in_core(summary, phase, k)}
        if len(core) == 1:
            fill = core.pop()
            values.update((k, fill) for k in cubes[z])
        else:
            marked.append(z)
    return values, tuple(marked)


@pytest.mark.parametrize(
    "name, omega, eps, m",
    [
        ("soft_inclusions_2d", SQUARE, Fraction(1, 32), 4),
        # some 3m cubes end exactly on the first and last sites of each axis
        ("soft_inclusions_2d", DomainSpec((Fraction(1, 32), Fraction(-3, 32)), (Fraction(7, 8), Fraction(13, 16))),
         Fraction(1, 32), 4),
        ("islands_1d", DomainSpec((Fraction(-1, 3),), (Fraction(5, 4),)), Fraction(1, 64), 8),
        ("two_chains", UNIT, Fraction(1, 48), 4),
        # sites 5..50: the 3m cubes of z = 2 and z = 5 overshoot them by one site
        ("islands_1d", DomainSpec((Fraction(1, 16),), (Fraction(51, 64),)), Fraction(1, 64), 8),
    ],
)
def test_extend_matches_per_site_reference(name, omega, eps, m):
    model = fixture_model(name)
    s = classify(model)
    rng = random.Random(7)
    for phase in range(1, model.num_phases + 1):
        for p_plus in (0.5, 0.95):
            field = SpinField(eps, omega, spin_grid(omega, eps, lambda k: 1 if rng.random() < p_plus else -1))
            res = extend(model, phase, field, m)
            assert (res.field.values, res.marked) == brute_extend(model, phase, field, m, s)


def test_extend_matches_per_site_reference_on_random_models():
    """Random valid two-phase period-3 models, each phase at its coarsening
    side (6 for phase 1 on seed 0, else 3): cubes of an odd side, cores
    with islands beside them."""
    eps = Fraction(1, 48)
    sides, filled, marked = [], 0, 0
    for seed in range(12):
        rng = random.Random(seed)
        model = random_valid_model_2d(rng, 2)
        s = classify(model)
        for phase in (1, 2):
            m = coarsening_side(model, phase)
            sides.append(m)
            for p_plus in (0.5, 0.97):
                field = SpinField(eps, SQUARE, spin_grid(SQUARE, eps, lambda k: 1 if rng.random() < p_plus else -1))
                res = extend(model, phase, field, m)
                assert (res.field.values, res.marked) == brute_extend(model, phase, field, m, s)
                filled += not np.array_equal(res.field.spins, field.spins)
                marked += bool(res.marked)
    assert len(sides) == 24 and set(sides) == {3, 6}
    assert filled and marked


def test_extend_argument_errors():
    model = fixture_model("chain_soft_even")
    field = SpinField(Fraction(1, 8), UNIT, spin_grid(UNIT, Fraction(1, 8), 1))
    with pytest.raises(ValueError, match="multiple"):
        extend(model, 1, field, 3)
    with pytest.raises(ValueError, match="positive"):
        extend(model, 1, field, 0)


def test_extend_fills_cubes_and_preserves_core():
    model = fixture_model("soft_inclusions_2d")
    s = classify(model)
    rng = random.Random(13)
    eps = Fraction(1, 32)
    for _ in range(10):
        field = SpinField(eps, SQUARE, spin_grid(SQUARE, eps, lambda k: rng.choice([1, -1])))
        broken = count_broken_strong(model, field)
        res = extend(model, 1, field, 4)
        assert res.marked_count <= 9 * broken
        # core spins survive extension everywhere
        for k, v in field.values.items():
            if in_core(s, 1, k):
                assert res.field.values[k] == v
        again = extend(model, 1, res.field, 4)
        assert again.field.values == res.field.values
        assert again.marked == res.marked


def test_extend_on_core_constant_field_marks_nothing():
    model = fixture_model("soft_inclusions_2d")
    s = classify(model)
    eps = Fraction(1, 16)
    rng = random.Random(3)
    field = SpinField(eps, SQUARE, spin_grid(SQUARE, eps, lambda k: 1 if in_core(s, 1, k) else rng.choice([1, -1])))
    res = extend(model, 1, field, 4)
    assert res.marked == ()
    # every processed cube is overwritten by the core value
    filled = [k for k, v in res.field.values.items() if v != field.values[k]]
    assert filled, "extension should overwrite soft sites somewhere"
    assert all(not in_core(s, 1, k) for k in filled)


def test_slab_geometry():
    slab = Slab((Fraction(1), Fraction(1)), Fraction(1))
    assert slab.value_at((Fraction(1), Fraction(1))) == 1
    assert slab.value_at((Fraction(1, 2), Fraction(1, 2))) == -1  # boundary is -1
    # the footprints [2, 3]^2 and [0, 2]^2 of cubes of side 1 and 2 at eps 1
    one = [np.array([2]), np.array([2])]
    two = [np.array([0]), np.array([0])]
    assert slab.on_cubes(Fraction(1), one, 1).tolist() == [[1]]
    assert slab.on_cubes(Fraction(1), two, 2).tolist() == [[0]]
    assert constant_on_box(slab, (Fraction(2), Fraction(2)), (Fraction(3), Fraction(3))) == 1
    assert constant_on_box(slab, (Fraction(0), Fraction(0)), (Fraction(2), Fraction(2))) is None
    assert Slab((Fraction(3, 5), Fraction(4, 5)), Fraction(0)).integer_normal() == (3, 4)
    with pytest.raises(ValueError):
        Slab((Fraction(0), Fraction(0)), Fraction(1))


@pytest.mark.parametrize(
    "normal, offset, eps, ranges",
    [
        ((1, 1), 1, Fraction(1, 4), (range(-2, 7), range(-3, 6))),  # sites on the plane
        ((Fraction(1, 3), Fraction(-2, 5)), Fraction(1, 7), Fraction(1, 6), (range(-5, 5), range(8))),
        ((1,), Fraction(1, 2), Fraction(1, 8), (range(-1, 12),)),
        ((1, 2, -3), Fraction(-1, 2), Fraction(1, 2), (range(-2, 3),) * 3),
        # |<k, normal>| may pass int64 here, so the grid is compared in Python ints
        ((1, 10**20), Fraction(1, 3), Fraction(1, 5), (range(-3, 4), range(-2, 3))),
        ((1,), 10**30, Fraction(1), (range(-3, 4),)),  # the plane far off the grid
    ],
)
def test_slab_on_lattice_is_value_at_on_every_site(normal, offset, eps, ranges):
    slab = Slab(tuple(Fraction(c) for c in normal), Fraction(offset))
    grid = slab.on_lattice(eps, ranges)
    assert grid.dtype == np.int8
    assert grid.shape == tuple(len(r) for r in ranges)
    for k in itertools.product(*ranges):
        at = tuple(c - r.start for c, r in zip(k, ranges))
        assert grid[at] == slab.value_at(tuple(eps * c for c in k))


def test_box_geometry():
    box = Box((Fraction(0), Fraction(0)), (Fraction(1), Fraction(2)))
    assert box.contains((Fraction(0), Fraction(1)))
    assert not box.contains((Fraction(1), Fraction(1)))
    with pytest.raises(ValueError):
        Box((Fraction(1),), (Fraction(1),))
    target = Boxes((box,))
    assert target.value_at((Fraction(1, 2), Fraction(1))) == 1
    assert target.value_at((Fraction(3), Fraction(1))) == -1


def test_target_json_round_trip():
    doc = json.loads('''{"phases": [
        {"slab": {"normal": ["1", "0.5"], "offset": "1/4"}},
        {"boxes": [{"lo": [0, "0"], "hi": ["1", 1]}]},
        {"constant": -1}
    ]}''')
    assert MultiphaseField.from_json_dict(doc) == MultiphaseField(
        (
            Slab((Fraction(1), Fraction(1, 2)), Fraction(1, 4)),
            Boxes((Box((Fraction(0), Fraction(0)), (Fraction(1), Fraction(1))),)),
            Constant(-1),
        )
    )
    with pytest.raises(SchemaError):
        MultiphaseField.from_json_dict({"phases": [{"slab": 1, "boxes": 2}]})
    with pytest.raises(SchemaError):
        MultiphaseField.from_json_dict({"phases": [{"constant": 0}]})


def test_f_hom_two_phase_slab_exact():
    model = fixture_model("two_chains")
    surface = SurfaceTable.from_model(model, [(1,)], (4, 8))
    phi = PhiTable.from_model(model, [8])
    target = MultiphaseField(
        (Slab((Fraction(1),), Fraction(1, 2)), Slab((Fraction(1),), Fraction(1, 2)))
    )
    assert f_hom(model, UNIT, target, surface, phi) == 3


def test_f_hom_mixed_slab_and_constant():
    model = fixture_model("two_chains")
    surface = SurfaceTable.from_model(model, [(1,)], (4, 8))
    phi = PhiTable.from_model(model, [8])
    target = MultiphaseField((Slab((Fraction(1),), Fraction(1, 2)), Constant(1)))
    # one wall of phase 1 plus half a box of the opposed-state density 7/8
    assert f_hom(model, UNIT, target, surface, phi) == Fraction(23, 16)


def test_f_hom_constant_target_is_bulk_only():
    model = fixture_model("chain_soft_even")
    omega = DomainSpec((Fraction(0),), (Fraction(2),))
    surface = SurfaceTable(model.num_phases, {})
    phi = PhiTable.from_model(model, [8])
    target = MultiphaseField((Constant(-1),))
    assert f_hom(model, omega, target, surface, phi) == Fraction(27, 10)


def test_f_hom_axis_slab_2d():
    model = fixture_model("soft_inclusions_2d")
    surface = SurfaceTable.from_model(model, [(1, 0)], (4, 8))
    phi = PhiTable.from_model(model, [8])
    target = MultiphaseField((Slab((Fraction(1), Fraction(0)), Fraction(1, 2)),))
    assert f_hom(model, SQUARE, target, surface, phi) == Fraction(341, 160)


def test_f_hom_box_target_2d():
    model = fixture_model("soft_inclusions_2d")
    surface = SurfaceTable.from_model(model, [(1, 0), (0, 1)], (4, 8))
    phi = PhiTable.from_model(model, [8])
    box = Box((Fraction(1, 4), Fraction(1, 4)), (Fraction(3, 4), Fraction(3, 4)))
    target = MultiphaseField((Boxes((box,)),))
    assert f_hom(model, SQUARE, target, surface, phi) == Fraction(1103, 320)


def test_f_hom_oblique_slab_2d():
    model = fixture_model("soft_inclusions_2d")
    surface = SurfaceTable.from_model(model, [(1, 1)], (4, 8))
    phi = PhiTable.from_model(model, [8])
    target = MultiphaseField((Slab((Fraction(1), Fraction(1)), Fraction(1)),))
    value = f_hom(model, SQUARE, target, surface, phi)
    wall = surface.value(1, (1, 1))
    bulk = phi.value((-1,))
    assert value == pytest.approx(float(wall) * math.sqrt(2.0) + float(bulk) / 2, rel=1e-12)


@pytest.mark.parametrize("slab, measure, plus", [
    (Slab((Fraction(1), Fraction(0)), Fraction(1, 2)), 1, Fraction(1, 2)),  # an axis segment
    (Slab((Fraction(1), Fraction(1)), Fraction(1)), float(2) ** 0.5, Fraction(1, 2)),  # the diagonal
    (Slab((Fraction(1), Fraction(2)), Fraction(1)), float(Fraction(5, 4)) ** 0.5, Fraction(3, 4)),
    (Slab((Fraction(1), Fraction(1)), Fraction(2)), 0, 0),  # through a corner only
    (Slab((Fraction(1), Fraction(0)), Fraction(7)), 0, 0),  # missing the square
])
def test_f_hom_slab_measure_2d(slab, measure, plus):
    """Unit tension and the densities 3 (state +1) and 5 (state -1): the
    slab's length in the unit square, plus 3 times the area ``plus`` of
    its +1 side and 5 times the rest."""
    model = fixture_model("soft_inclusions_2d")
    surface = surface_table(1, {(1, slab.normal): 1})
    phi = phi_table({(1,): 3, (-1,): 5})
    value = f_hom(model, SQUARE, MultiphaseField((slab,)), surface, phi)
    assert value == measure + (3 * plus + 5 * (1 - plus))
    assert isinstance(value, float) == isinstance(measure, float)


def test_f_hom_box_and_slab_3d_closed_form():
    """A box leaving the domain [0, 2] x [0, 1] x [0, 3] through its top,
    and a slab z > 3/2; f_hom reads only the model's phase count and
    dimension."""
    model = SimpleNamespace(num_phases=2, dimension=3)
    omega = DomainSpec((Fraction(0),) * 3, (Fraction(2), Fraction(1), Fraction(3)))
    box = Box((Fraction(1, 2), Fraction(1, 4), Fraction(1)), (Fraction(1), Fraction(3, 4), Fraction(4)))
    slab = Slab((Fraction(0), Fraction(0), Fraction(2)), Fraction(3))
    target = MultiphaseField((Boxes((box,)), slab))
    tension = {(1, (1, 0, 0)): 2, (1, (0, 1, 0)): 3, (1, (0, 0, 1)): 5, (2, (0, 0, 1)): 7}
    surface = surface_table(2, tension)
    phi = phi_table({(1, 1): 11, (1, -1): 13, (-1, 1): 17, (-1, -1): 19})
    # box faces: two x faces and two y faces of area 1 each, the z face
    # at 1 of area 1/4 (the one at 4 is outside); the slab plane, area 2
    faces = 2 * 2 + 2 * 3 + 5 * Fraction(1, 4) + 7 * 2
    # the box holds 1/2 of the volume, 3/8 of it above z = 3/2; the
    # domain holds 6, 3 above z = 3/2
    bulk = 11 * Fraction(3, 8) + 13 * Fraction(1, 8) + 17 * Fraction(21, 8) + 19 * Fraction(23, 8)
    assert f_hom(model, omega, target, surface, phi) == faces + bulk


def test_f_hom_refuses_an_oblique_interface_in_3d():
    model = SimpleNamespace(num_phases=1, dimension=3)
    omega = DomainSpec((Fraction(0),) * 3, (Fraction(1),) * 3)
    target = MultiphaseField((Slab((Fraction(1), Fraction(1), Fraction(0)), Fraction(1)),))
    surface = surface_table(1, {(1, (1, 1, 0)): 1})
    phi = phi_table({(1,): 1, (-1,): 1})
    with pytest.raises(NotImplementedError, match="need dimension <= 2"):
        f_hom(model, omega, target, surface, phi)
    with pytest.raises(NotImplementedError, match="need dimension <= 2"):
        gamma_limit._bulk_term(omega, target, phi)


@pytest.mark.parametrize("phase, size", [
    (Boxes((Box((Fraction(1, 4),), (Fraction(3, 4),)),)), 1),
    (Boxes((Box((Fraction(0),) * 3, (Fraction(1, 2),) * 3),)), 3),
    (Slab((Fraction(1),), Fraction(1, 2)), 1),
    (Slab((Fraction(1),) * 3, Fraction(1, 2)), 3),
])
def test_targets_must_match_the_domain_dimension(phase, size):
    model = fixture_model("soft_inclusions_2d")
    target = MultiphaseField((phase,))
    message = f"target phase 1 is {size}-dimensional, the domain 2-dimensional"
    surface = surface_table(1, {})
    phi = phi_table({(1,): 1, (-1,): 1})
    with pytest.raises(ValueError, match=message):
        gamma_limit.target_directions(target, 2)
    with pytest.raises(ValueError, match=message):
        f_hom(model, SQUARE, target, surface, phi)
    with pytest.raises(ValueError, match=message):
        recovery_config(model, SQUARE, target, Fraction(1, 8), 2)


@pytest.mark.parametrize("num_phases, omega, phase, message", [
    (2, SQUARE, Constant(1), "target has 1 phases, model has 2"),
    (1, UNIT, Constant(1), "domain dimension does not match the model"),
    (1, SQUARE, Slab((Fraction(1),), Fraction(1, 2)),
     "target phase 1 is 1-dimensional, the domain 2-dimensional"),
])
def test_check_target_messages(num_phases, omega, phase, message):
    model = SimpleNamespace(num_phases=num_phases, dimension=2)
    with pytest.raises(ValueError, match=f"^{message}$"):
        gamma_limit._check_target(model, omega, MultiphaseField((phase,)))


def test_interfaces_are_slab_planes_and_clipped_box_faces():
    half, one = Fraction(1, 2), Fraction(1)
    box = Box((Fraction(0), half), (half, one))
    target = MultiphaseField((Slab((one, -one), half), Constant(1), Boxes((box,)), Boxes(())))
    assert gamma_limit._interfaces(target, 2) == [
        (1, (one, -one), half, None),
        (3, (1, 0), Fraction(0), box), (3, (1, 0), half, box),
        (3, (0, 1), half, box), (3, (0, 1), one, box),
    ]
    assert gamma_limit.target_directions(target, 2) == [(0, 1), (1, -1), (1, 0)]


def test_recovery_config_energy_and_shape():
    model = fixture_model("chain_soft_even")
    target = MultiphaseField((Slab((Fraction(1),), Fraction(1, 2)),))
    eps = Fraction(1, 16)
    rec = recovery_config(model, UNIT, target, eps, 4)
    assert rec.eps == eps
    assert f_eps(model, rec) == Fraction(67, 40)
    # hard sites away from the interface carry the target state
    for k in rec.values:
        x = k[0] * eps
        if k[0] % 2 == 1 and abs(x - Fraction(1, 2)) > Fraction(1, 4):
            assert rec.values[k] == (1 if x > Fraction(1, 2) else -1)


# Hard columns at even x joined by hard rows at odd y; the soft sites
# (odd, even) prefer -1, so pasted cubes differ from the +1 default and are
# not symmetric under swapping the axes.
CROSSED_LINES = parse_model({
    "dimension": 2, "period": 2, "num_phases": 1,
    "labels": {"0,0": 1, "0,1": 1, "1,1": 1, "1,0": 0},
    "strong_bonds": [{"from": r, "offset": o, "weight": "1/8"} for r, o in [
        ("0,0", [0, 1]), ("0,0", [0, -1]), ("0,1", [0, 1]), ("0,1", [0, -1]),
        ("0,1", [1, 0]), ("0,1", [-1, 0]), ("1,1", [1, 0]), ("1,1", [-1, 0])]],
    "weak_bonds": [{"from": r, "offset": o, "weight": "1/40"} for r, o in [
        ("1,0", [1, 0]), ("1,0", [-1, 0]), ("1,0", [0, 1]), ("1,0", [0, -1]),
        ("0,0", [1, 0]), ("0,0", [-1, 0]), ("1,1", [0, 1]), ("1,1", [0, -1])]],
    "forcing": {"1,0": {"plus": "1"}},
})


@pytest.mark.parametrize(
    "model, omega, target, eps, m",
    [
        # at eps 1/32 some cube footprints touch the lower face in x and the
        # upper face in y; touching is not inside
        (CROSSED_LINES, DomainSpec((Fraction(-1, 16), Fraction(-1, 8)), (Fraction(3, 4), Fraction(13, 16))),
         Slab((Fraction(1), Fraction(2)), Fraction(3, 4)), Fraction(1, 32), 4),
        (fixture_model("soft_inclusions_2d"), SQUARE,
         Boxes((Box((Fraction(1, 5), Fraction(1, 8)), (Fraction(7, 10), Fraction(5, 8))),)), Fraction(1, 32), 4),
        (fixture_model("diagonal_2d"), SQUARE,
         Slab((Fraction(-1, 3), Fraction(1, 2)), Fraction(-1, 10)), Fraction(1, 24), 4),
        (fixture_model("islands_1d"), DomainSpec((Fraction(-1, 3),), (Fraction(5, 4),)),
         Slab((Fraction(1),), Fraction(1, 2)), Fraction(1, 64), 8),
        (fixture_model("islands_1d"), UNIT,
         Boxes((Box((Fraction(1, 3),), (Fraction(5, 8),)),)), Fraction(1, 64), 8),
        (fixture_model("chain_soft_even"), UNIT,
         Slab((Fraction(-1),), Fraction(-1, 3)), Fraction(1, 40), 4),
    ],
    ids=["crossed-oblique", "inclusions-box", "diagonal-oblique", "islands-slab", "islands-boxes", "chain-slab"],
)
def test_recovery_config_traces_core_and_pastes_cached_cubes(model, omega, target, eps, m):
    s = classify(model)
    field = MultiphaseField((target,))
    rec = recovery_config(model, omega, field, eps, m)
    half = m // 2
    cached = {}
    pasted = 0
    for k in rec.values:
        lab = model.labels[residue(model, k)]
        if lab and in_core(s, lab, k):
            assert rec.values[k] == target.value_at(tuple(eps * c for c in k)), k
            continue
        z = tuple((c + half) // m for c in k)
        lo = tuple(eps * (c * m - half) for c in z)
        hi = tuple(eps * (c * m - half + m) for c in z)
        states = None
        if all(a < b for a, b in zip(omega.lo, lo)) and all(a < b for a, b in zip(hi, omega.hi)):
            states = constant_on_box(field, lo, hi)
        if states is None:
            assert rec.values[k] == 1, k
            continue
        if states not in cached:
            spins = phi_solution(model, m, states, corrected=True).spins.tolist()
            cached[states] = dict(zip(cube_sites(model.dimension, m), spins))
        assert rec.values[k] == cached[states][tuple(a - b * m for a, b in zip(k, z))], k
        pasted += 1
    assert pasted and len(cached) == 2


def broken_loose_bonds(model, field):
    """Broken strong bonds between the loose hard sites of a field: hard
    sites outside every core, whose strong bonds stay among them."""
    cores = classify(model).core_residues
    loose = {r for r, j in model.labels.items() if j and r not in cores.get(j, ())}
    return brute_broken_strong(model, field, loose)


def test_recovery_fields_keep_loose_components_whole():
    """Pasted cubes meet at seams that cut island copies; every strong
    component of the loose hard sites is still constant in the field, on
    islands_1d (whose M = 4 and M = 12 cubes pin one copy and leave the
    next free) and on random 2D island models."""
    model = fixture_model("islands_1d")
    slab = MultiphaseField((Slab((Fraction(1),), Fraction(1, 2)),))
    for m, k in itertools.product((4, 8, 12), (16, 32, 64)):
        assert broken_loose_bonds(model, recovery_config(model, UNIT, slab, Fraction(1, k), m)) == 0

    box = Boxes((Box((Fraction(1, 4),) * 2, (Fraction(3, 4),) * 2),))
    oblique = Slab((Fraction(1), Fraction(2)), Fraction(1, 2))
    rng = random.Random(7)
    islands = 0
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "cube side .* does not exceed the island radius")
        for _ in range(6):
            num_phases = rng.choice((1, 2))
            model = random_valid_model_2d(rng, num_phases)
            if not model.summary.islands():
                continue
            islands += 1
            targets = [(box,), (oblique,)] if num_phases == 1 else [(box, oblique), (oblique, Constant(-1))]
            for phases, m, eps in itertools.product(targets, (3, 6), (Fraction(1, 16), Fraction(1, 32))):
                field = recovery_config(model, SQUARE, MultiphaseField(phases), eps, m)
                assert broken_loose_bonds(model, field) == 0
    assert islands >= 3


def test_converge_report_on_islands_decreases():
    """Recovery energies on islands_1d at M = 4 approach the limit like eps.
    A field that cuts an island copy at each seam between cubes breaks one
    strong bond per cube, and its energy grows like 1/eps instead."""
    model = fixture_model("islands_1d")
    target = MultiphaseField((Slab((Fraction(1),), Fraction(1, 2)),))
    report = converge_report(model, UNIT, target, (Fraction(1, 16), Fraction(1, 32), Fraction(1, 64)), 4)
    assert [r.energy for r in report.rows] == [Fraction("1.29375"), Fraction("1.190625"), Fraction("1.1390625")]
    assert report.decreasing


def test_converge_report_quick():
    model = fixture_model("chain_soft_even")
    target = MultiphaseField((Slab((Fraction(1),), Fraction(1, 2)),))
    report = converge_report(
        model, UNIT, target, (Fraction(1, 8), Fraction(1, 16)), 4)
    assert report.m == 4
    assert report.phi_side == 16
    assert report.reference == Fraction(27, 16)
    assert [r.eps for r in report.rows] == [Fraction(1, 8), Fraction(1, 16)]
    # the recovery energy of each row is reproducible
    rec = recovery_config(model, UNIT, target, Fraction(1, 8), 4)
    assert report.rows[0].energy == f_eps(model, rec)
    assert report.rows[0].gap == abs(report.rows[0].energy - report.reference)
    assert report.decreasing
    assert report.final_relative < Fraction(1, 10)


def test_converge_report_solves_each_block_once(monkeypatch):
    model = fixture_model("two_chains")
    target = MultiphaseField((Slab((Fraction(1),), Fraction(1, 3)), Constant(-1)))
    eps_list = (Fraction(1, 16), Fraction(1, 32), Fraction(1, 64))
    calls = []

    def counted(model, m, states, **kwargs):
        calls.append((m, states))
        return phi_solution(model, m, states, **kwargs)

    monkeypatch.setattr(gamma_limit, "phi_solution", counted)
    report = converge_report(model, UNIT, target, eps_list, 4, phi_side=8)
    # one solve per (m, states) for the whole report, not one per eps
    assert sorted(calls) == [(4, (-1, -1)), (4, (1, -1))]
    # the shared blocks change no field
    for eps, row in zip(eps_list, report.rows):
        assert row.energy == f_eps(model, recovery_config(model, UNIT, target, eps, 4))


def test_converge_report_rejects_empty_eps():
    model = fixture_model("chain_soft_even")
    target = MultiphaseField((Constant(1),))
    with pytest.raises(ValueError):
        converge_report(model, UNIT, target, (), 4)
