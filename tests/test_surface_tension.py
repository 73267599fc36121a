"""Directional interface energies from finite cell problems."""

import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from spinhom import surface_tension
from spinhom.bulk_density import build_phi_instance, phi_estimate
from spinhom.cli import run
from spinhom.connectivity import check_sides, classify, core_phases
from spinhom.ground_state import DEFAULT_ENUM_CAP
from spinhom.model import parse_model
from spinhom.surface_tension import (
    SurfaceTable,
    _cell_instance,
    _cube_mask,
    canonical_direction,
    cell_value,
    check_cells,
    orthogonal_frame,
)

from conftest import FIXTURE_NAMES, FIXTURES, cubic_3d_document, fixture_model
from test_helpers import box_cell_pairs, in_core, residue, solve, surface_table, traced


def in_frame_cube(site, frame, side) -> bool:
    """Exact membership in the half-open rotated cube of the given side.

    Along each frame vector w the slab is  -side/2 <= <x, w>/|w| < side/2,
    tested without square roots by comparing <x, w>^2 against
    side^2 |w|^2 / 4.  Per-site reference for ``_cube_mask``.
    """
    for w in frame:
        q = sum(int(c) * wc for c, wc in zip(site, w))
        lsq = Fraction(side * side, 4) * sum(wc * wc for wc in w)
        if q < 0 and q * q > lsq:
            return False
        if q > 0 and q * q >= lsq:
            return False
    return True


def test_canonical_direction_scaling_and_sign():
    assert canonical_direction((2, 4)) == (1, 2)
    assert canonical_direction((-2, -4)) == (1, 2)
    assert canonical_direction((0, -3)) == (0, 1)
    assert canonical_direction((Fraction(1, 2), Fraction(1, 3))) == (3, 2)
    assert canonical_direction((Fraction(-3, 7),)) == (1,)
    with pytest.raises(ValueError):
        canonical_direction((0, 0))


def test_orthogonal_frame_is_orthogonal_and_aligned():
    for direction in [(1, 0), (1, 1), (3, 4), (2, -5)]:
        frame = orthogonal_frame(direction)
        assert len(frame) == 2
        first = frame[0]
        # first row is a positive multiple of the direction
        ratios = {Fraction(a, b) for a, b in zip(first, direction) if b}
        assert len(ratios) == 1 and ratios.pop() > 0
        dot = sum(a * b for a, b in zip(frame[0], frame[1]))
        assert dot == 0
    frame3 = orthogonal_frame((1, 1, 1))
    for i in range(3):
        for j in range(i + 1, 3):
            assert sum(a * b for a, b in zip(frame3[i], frame3[j])) == 0


def test_frame_cube_is_half_open():
    frame = orthogonal_frame((1, 0))
    # side 4 along the first axis: -2 included, +2 excluded
    assert in_frame_cube((-2, 0), frame, 4)
    assert not in_frame_cube((2, 0), frame, 4)
    assert in_frame_cube((1, -2), frame, 4)
    assert not in_frame_cube((1, 2), frame, 4)

    frame = orthogonal_frame((3, 4))
    # boundary planes <x, (3,4)> = +-10 at side 4: negative face in, positive out
    assert in_frame_cube((-2, -1), frame, 4)
    assert not in_frame_cube((2, 1), frame, 4)


def test_frame_cube_axis_counts():
    frame = orthogonal_frame((0, 1))
    for side in (2, 3, 5, 8):
        count = sum(
            in_frame_cube((x, y), frame, side)
            for x in range(-10, 11)
            for y in range(-10, 11)
        )
        assert count == side * side


def reference_cube_sites(direction, side):
    """Lexicographic per-site scan of the rotated cube, exact in Fractions."""
    frame = orthogonal_frame(direction)
    d = len(frame)
    bound = math.isqrt(d * side * side) // 2 + 2
    return [
        site
        for site in itertools.product(range(-bound, bound + 1), repeat=d)
        if in_frame_cube(site, frame, side)
    ]


def integer_cube_sites(direction, side):
    d = len(direction)
    bound = math.isqrt(d * side * side) // 2 + 2
    frame = orthogonal_frame(direction)
    mask, _ = _cube_mask(frame, side, bound)
    return [tuple(int(c) - bound for c in site) for site in np.argwhere(mask)]


@pytest.mark.parametrize(
    "direction",
    [(1, 0), (0, 1), (1, 2), (2, 1), (-1, 2), (1, 1), (3, 5), (2, -5), (Fraction(1, 2), Fraction(-1, 3))],
)
def test_integer_cube_matches_fraction_scan_2d(direction):
    for side in (1, 2, 3, 4, 5, 8, 13, 16):
        assert integer_cube_sites(direction, side) == reference_cube_sites(direction, side)


@pytest.mark.parametrize("direction", [(1, 1, 1), (0, 0, 1), (1, 2, 3), (1, -1, 2), (-3, 1, 2)])
def test_integer_cube_matches_fraction_scan_3d(direction):
    for side in (1, 2, 3, 4, 5):
        assert integer_cube_sites(direction, side) == reference_cube_sites(direction, side)


def test_integer_cube_huge_normals():
    # (1, 10**10) stays on int64; for the others 2<x, w> may pass int64
    # (the 3D frame completes with vectors near 10**24), so they run in
    # Python ints (dtype=object); the datum is the sign of the exact <x, nu>
    for direction in [(1, 10**10), (1, 10**20), (10**19, -3), (1, 10**12, 7)]:
        d = len(direction)
        frame = orthogonal_frame(direction)
        for side in (2, 3, 4) if d == 3 else (1, 2, 3, 4, 5, 8):
            assert integer_cube_sites(direction, side) == reference_cube_sites(direction, side)
            bound = math.isqrt(d * side * side) // 2 + 2
            _, datum = _cube_mask(frame, side, bound)
            grid = itertools.product(range(-bound, bound + 1), repeat=d)
            assert datum.ravel().tolist() == [sum(a * b for a, b in zip(x, direction)) > 0 for x in grid]


def reference_cell_instance(model, phase, summary, direction, side):
    """The per-site cube build: core sites in the cube, each strong bond
    visited from every inside site, fixed datum from the sign of <y, nu>."""
    inside = [s for s in reference_cube_sites(direction, side) if in_core(summary, phase, s)]
    inside_set = set(inside)
    pair_terms, fixed = [], {}
    for x in inside:
        for off in model.strong_offsets(residue(model, x)):
            y = tuple(a + b for a, b in zip(x, off))
            weight = model.weights[residue(model, x), off]
            if y in inside_set:
                if x < y:
                    pair_terms.append((x, y, 2 * weight))
            else:
                fixed[y] = 1 if sum(a * b for a, b in zip(y, direction)) > 0 else -1
                pair_terms.append((x, y, 2 * weight))
    return tuple(sorted(inside) + sorted(fixed)), pair_terms, fixed


@pytest.mark.parametrize(
    "name, directions, sides",
    [
        ("diagonal_2d", [(1, 2), (2, -5), (-1, 2), (1, 1), (0, 1)], (4, 5, 8)),
        ("soft_inclusions_2d", [(1, 0), (3, 5), (2, -1)], (3, 6)),
        ("islands_1d", [(1,), (-1,)], (4, 7)),
        ("cubic_3d", [(1, 1, 1), (1, -2, 0), (0, 0, 1)], (2, 3)),
    ],
)
def test_cell_instance_matches_per_site_build(name, directions, sides):
    model = parse_model(cubic_3d_document()) if name == "cubic_3d" else fixture_model(name)
    summary = classify(model)
    in_core = core_phases(model) == 1
    for direction in directions:
        frame = orthogonal_frame(direction)
        for side in sides:
            terms = _cell_instance(model, in_core, frame, side)
            variables, pair_terms, fixed = reference_cell_instance(model, 1, summary, direction, side)
            # the cell's sites are the reference's variables (the free sites
            # and the held ends of their pairs) in C order
            sites = sorted(variables)
            assert terms.size == len(sites)
            got_pairs = [
                (sites[u], sites[v], Fraction(terms.weights[k], terms.scale))
                for u, v, k in zip(terms.u.tolist(), terms.v.tolist(), terms.pair_class.tolist())
            ]
            assert sorted(got_pairs) == sorted(pair_terms)
            # the pairs in the order of the box layer: class by class, each
            # class in C order of its sources
            for got, want in zip((terms.u, terms.v, terms.pair_class),
                                 box_cell_pairs(model, in_core, sites, terms)):
                assert got.dtype == want.dtype
                assert got.tolist() == want.tolist()
            free = [x for x, spin in zip(sites, terms.fixed) if not spin]
            assert free == [x for x in variables if x not in fixed]
            held = {x: int(spin) for x, spin in zip(sites, terms.fixed)}
            assert all(held[y] == spin for y, spin in fixed.items())
            # every site is its own group, and no site carries a forcing term
            assert terms.group.tolist() == list(range(terms.size))
            assert terms.site_class.tolist() == [0] * terms.size
            assert set(terms.h_plus) == set(terms.h_minus) == {0}


def test_cell_keeps_only_the_sites_its_terms_touch():
    """The 2D cell at (1,2) and side 128 keeps 8,581 of the 34,969 sites
    of its box: the 8,237 free ones and 344 held neighbours."""
    model = fixture_model("diagonal_2d")
    frame = orthogonal_frame((1, 2))
    terms = _cell_instance(model, core_phases(model) == 1, frame, 128)
    assert (terms.size, int((terms.fixed == 0).sum())) == (8581, 8237)
    touched = np.zeros(terms.size, dtype=bool)
    touched[terms.u] = touched[terms.v] = True
    assert touched.all()


def test_cell_build_peaks_near_its_term_arrays():
    """Under tracemalloc, the 3D cell at (1,1,1) and side 16 peaks at no
    more than 3 times the bytes of its term arrays: the pairs are numbered
    only once kept, so no pair array spans the box."""
    model = parse_model(cubic_3d_document())
    nu = (Fraction(1),) * 3
    surface_tension._cell_terms(model, 1, nu, 16)  # the model's cached tables
    terms, _, peak = traced(lambda: surface_tension._cell_terms(model, 1, nu, 16))
    arrays = (terms.fixed, terms.group, terms.u, terms.v, terms.pair_class, terms.site_class)
    assert peak <= 3 * sum(a.nbytes for a in arrays)


def test_cell_value_invariant_under_direction_rescaling():
    model = fixture_model("soft_inclusions_2d")
    base = cell_value(model, 1, (1, 0), 4)
    assert cell_value(model, 1, (2, 0), 4) == base
    assert cell_value(model, 1, (Fraction(1, 3), 0), 4) == base
    model = fixture_model("diagonal_2d")
    base = cell_value(model, 1, (1, 1), 8)
    assert cell_value(model, 1, (3, 3), 8) == base
    assert cell_value(model, 1, (Fraction(1, 2), Fraction(1, 2)), 8) == base


def test_cell_value_symmetric_under_direction_flip():
    model = fixture_model("soft_inclusions_2d")
    assert cell_value(model, 1, (1, 0), 4) == cell_value(model, 1, (-1, 0), 4)
    assert cell_value(model, 1, (1, 1), 4) == cell_value(model, 1, (-1, -1), 4)


def test_chain_wall_cost_independent_of_side():
    model = fixture_model("chain_soft_even")
    for side in (2, 3, 4, 7, 10):
        assert cell_value(model, 1, (1,), side) == 1


def test_two_chain_wall_costs():
    model = fixture_model("two_chains")
    assert cell_value(model, 1, (1,), 4) == 1
    assert cell_value(model, 2, (1,), 4) == 2
    assert SurfaceTable.from_model(model, [(1,)], (4, 8)).total((1,)) == 3


def test_inclusion_lattice_axis_wall():
    model = fixture_model("soft_inclusions_2d")
    for side in (4, 8, 12):
        assert cell_value(model, 1, (1, 0), side) == Fraction(1, 2)
        assert cell_value(model, 1, (0, 1), side) == Fraction(1, 2)


def test_diagonal_lattice_walls_decrease_with_side():
    model = fixture_model("diagonal_2d")
    axis = [cell_value(model, 1, (1, 0), side) for side in (8, 16, 32)]
    assert axis == [Fraction(9, 8), Fraction(17, 16), Fraction(33, 32)]
    diag = [cell_value(model, 1, (1, 1), side) for side in (8, 16, 32)]
    assert diag == [Fraction(5, 8), Fraction(11, 16), Fraction(23, 32)]


@pytest.mark.parametrize("normal", [(1, 2), (2, 1), (-1, 2), (2, -1)], ids=str)
def test_diagonal_lattice_oblique_cells_at_side_128(normal):
    """The cells of the ``fhom`` benchmark workload: every normal it draws
    gives 29/32 at T = 128 (the limit is 2/sqrt(5))."""
    assert cell_value(fixture_model("diagonal_2d"), 1, normal, 128) == Fraction(29, 32)


def test_cell_value_argument_errors():
    model = fixture_model("soft_inclusions_2d")
    with pytest.raises(ValueError):
        cell_value(model, 0, (1, 0), 4)
    with pytest.raises(ValueError):
        cell_value(model, 3, (1, 0), 4)
    with pytest.raises(ValueError):
        cell_value(model, 1, (0, 0), 4)
    with pytest.raises(ValueError):
        cell_value(model, 1, (1,), 4)
    with pytest.raises(ValueError):
        cell_value(model, 1, (1, 0), 0)


def test_fhom_estimate_warns_below_coarsening_side():
    """The coarsening check before the cells warns; a lone cell solve does not."""
    model = fixture_model("islands_1d")
    with pytest.warns(UserWarning, match="coarsening"):
        SurfaceTable.from_model(model, [(1,)], (2, 4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cell_value(model, 1, (1,), 2) == 1


def test_check_cells_warns_in_order_and_stops_at_the_first_invalid_cell():
    model = fixture_model("two_chains")
    cells = [(2, (1,), 1), (1, (1,), 4), (2, (1,), 4), (1, (1, 0), 4), (3, (1,), 4)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match="direction must have 1 coordinates"):
            check_cells(model, cells)
    assert [str(w.message) for w in caught] == [
        "cube side 1 is below the coarsening side 2 of phase 2",
    ]


def test_check_cells_finds_a_cube_without_core_sites_before_later_cells():
    """The cube of side 1 of two_chains holds site 0 only, a phase-2
    site: phase 1's cell fails after its own warning, before phase 2's
    cell is looked at."""
    model = fixture_model("two_chains")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match="phase 1 has no cluster sites in the cube of side 1"):
            check_cells(model, [(1, (1,), 1), (2, (1,), 1)])
    assert [str(w.message) for w in caught] == [
        "cube side 1 is below the coarsening side 2 of phase 1",
    ]
    with pytest.raises(ValueError, match="phase 1 has no cluster sites in the cube of side 1"):
        cell_value(model, 1, (1,), 1)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_core_site_check_agrees_with_the_built_cell(name):
    """The check builds no cell past ceil(sqrt(d) P); below it, it
    raises exactly where the built cell has no free site."""
    model = fixture_model(name)
    d = model.dimension
    directions = [(1,), (-2,)] if d == 1 else [(1, 0), (1, 1), (1, 2), (-3, 5)]
    for phase in range(1, model.num_phases + 1):
        if not model.summary.core_residues.get(phase):
            continue
        for nu in directions:
            frame = orthogonal_frame(nu)
            nu_q = tuple(Fraction(c) for c in nu)
            for side in range(1, 3 * model.period + 3):
                terms = _cell_instance(model, core_phases(model) == phase, frame, side)
                if not terms.fixed.all():
                    surface_tension._check_core_sites(model, phase, nu_q, side)
                else:
                    with pytest.raises(ValueError, match="no cluster sites"):
                        surface_tension._check_core_sites(model, phase, nu_q, side)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_cell_value_is_the_min_cut_energy(monkeypatch, name):
    """``cell_value`` solves through ``minimize``: a cell of at most
    DEFAULT_ENUM_CAP free sites is eliminated, a larger one cut, and every
    value equals the min-cut energy of the same cell."""
    model = fixture_model(name)
    d = model.dimension
    normals = [(1,), (-1,)] if d == 1 else [(1, 0), (0, 1), (1, 1), (1, 2), (2, -1), (3, 5)]
    methods = []
    real = surface_tension.minimize

    def recording(terms):
        solution = real(terms)
        methods.append(solution.method)
        return solution

    monkeypatch.setattr(surface_tension, "minimize", recording)
    for phase in range(1, model.num_phases + 1):
        in_core = core_phases(model) == phase
        for nu in normals:
            frame = orthogonal_frame(nu)
            for side in range(1, 9):
                terms = _cell_instance(model, in_core, frame, side)
                free = int((terms.fixed == 0).sum())
                if not free:
                    continue
                cut = solve(terms, "cut").energy
                assert cell_value(model, phase, nu, side) == cut / side ** (d - 1), (phase, nu, side)
                small = free <= DEFAULT_ENUM_CAP
                assert methods.pop() == ("enumeration" if small else "mincut"), (phase, nu, side)


def counting_coarsening_side(monkeypatch) -> list:
    calls = []
    real = surface_tension.coarsening_side

    def counting(model, phase):
        calls.append(phase)
        return real(model, phase)

    monkeypatch.setattr(surface_tension, "coarsening_side", counting)
    return calls


def test_coarsening_side_computed_once_per_phase(monkeypatch):
    """It depends on the model and the phase only, so ``fhom`` and
    ``SurfaceTable.from_model`` compute it once per phase, not per side
    or direction."""
    calls = counting_coarsening_side(monkeypatch)
    SurfaceTable.from_model(fixture_model("diagonal_2d"), [(1, 0), (1, 1)], (2, 4, 8))
    assert calls == [1]
    calls.clear()
    SurfaceTable.from_model(fixture_model("two_chains"), [(1,)], (4, 8))
    assert calls == [1, 2]
    calls.clear()
    assert run(["fhom", str(FIXTURES.joinpath("two_chains.json")), "--normal", "1",
                "--T", "4,8,16", "--jobs", "1"]) == 0
    assert calls == [1, 2]


def test_examples_compute_coarsening_side_once_per_checked_phase(monkeypatch, capsys):
    """Four ``fhom`` checks of one phase each and one ``fhom_total`` check
    over the two phases of ``two_chains``: six phases, not eleven sides."""
    calls = counting_coarsening_side(monkeypatch)
    assert run(["examples"]) == 0
    assert capsys.readouterr().out.endswith("15/15 checks passed\n")
    assert len(calls) == 6


def test_surface_table_without_directions_is_empty(monkeypatch):
    calls = counting_coarsening_side(monkeypatch)
    table = SurfaceTable.from_model(fixture_model("two_chains"), [], (4, 8))
    assert table.rows() == []
    assert table.num_phases == 2
    assert calls == []


@pytest.mark.parametrize("sides, message", [
    ((0,), "cube side must be positive"),
    ((-4, 2, 8), "cube side must be positive"),
    ((4, 0), "cube sides must be strictly increasing"),
    ((0, 0), "cube sides must be strictly increasing"),
    ((), "at least one cube side required"),
])
def test_check_sides_refuses_nonpositive_sides_after_the_order(sides, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        check_sides(sides)
    assert check_sides([2, 4]) == (2, 4)


def test_single_side_callers_and_tables_share_the_side_rule():
    """A single side is checked as the list of itself, an empty list is
    refused by every table."""
    model = fixture_model("chain_soft_even")
    with pytest.raises(ValueError, match="^cube side must be positive$"):
        cell_value(model, 1, (1,), 0)
    with pytest.raises(ValueError, match="^cube side must be positive$"):
        build_phi_instance(model, 0, (1,))
    with pytest.raises(ValueError, match="^at least one cube side required$"):
        SurfaceTable.from_model(model, [(1,)], [])
    with pytest.raises(ValueError, match="^at least one cube side required$"):
        phi_estimate(model, (1,), [])


def test_fhom_estimate_requires_increasing_sides():
    model = fixture_model("chain_soft_even")
    with pytest.raises(ValueError):
        SurfaceTable.from_model(model, [(1,)], (8, 4))
    # one side is a row too, with no increment to report
    assert SurfaceTable.from_model(model, [(1,)], (4,)).row(1, (1,)).increment is None
    row = SurfaceTable.from_model(model, [(1,)], (2, 4, 8)).row(1, (1,))
    assert row.estimate == 1
    assert row.increment == 0
    assert row.sides == (2, 4, 8)


def test_surface_table_round_trip():
    model = fixture_model("two_chains")
    table = SurfaceTable.from_model(model, [(1,)], (4, 8))
    assert [(row.phase, row.direction) for row in table.rows()] == [(1, (1,)), (2, (1,))]
    assert table.value(1, (1,)) == 1
    assert table.value(2, (1,)) == 2
    assert table.total((1,)) == 3
    # scaled query hits the same canonical row
    assert table.total((-3,)) == 3
    with pytest.raises(KeyError):
        table.row(1, (7, 7))


def test_surface_table_from_values():
    table = surface_table(2, {(1, (1,)): Fraction(1), (2, (1,)): Fraction(2)})
    assert table.total((1,)) == 3
    assert table.value(2, (1,)) == 2
