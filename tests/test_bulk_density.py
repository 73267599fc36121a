"""Periodic bulk energy densities and their finite-size brackets."""

import itertools
import json
import random
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

from spinhom import bulk_density, connectivity
from spinhom.bulk_density import (
    PhiTable,
    build_phi_instance,
    hard_components_in_cube,
    island_error_constant,
    phi_bracket,
    phi_estimate,
    phi_m,
    phi_solution,
)
from spinhom.connectivity import box_components, classify, cube_range, excluded_set
from spinhom.ground_state import (
    FrustratedInstance,
    GroundStateInstance,
    TooManyFreeGroups,
    energy,
)
from spinhom.model import parse_model

from conftest import FIXTURE_NAMES, fixture_document, fixture_model, random_chain_model, random_valid_model_2d
from test_ground_state import brute_argmin, group_assignments
from test_helpers import cube_sites, forcing_value, grid_sites, in_core, named, residue, solve


def reference_components(model, m):
    """Per-site BFS over the strong bonds inside Q_M (test-only oracle):
    (phase, frozenset of sites) per component, in order of first site."""
    sites = cube_sites(model.dimension, m)
    in_cube = set(sites)
    seen = set()
    out = []
    for x in sites:
        if x in seen:
            continue
        phase = model.labels[residue(model, x)]
        if phase == 0:
            continue
        comp = {x}
        queue = [x]
        while queue:
            u = queue.pop()
            for off in model.strong_offsets(residue(model, u)):
                v = tuple(a + b for a, b in zip(u, off))
                if v in in_cube and v not in comp:
                    comp.add(v)
                    queue.append(v)
        seen |= comp
        out.append((phase, frozenset(comp)))
    return out


def reference_phi_instance(model, m, states, summary, pinned=()):
    """The per-site cube instance (test-only oracle): site tuples,
    Fraction terms, a fixed dict and one group per strong component."""
    sites = cube_sites(model.dimension, m)
    in_cube = set(sites)
    groups = []
    fixed = {}
    for phase, comp in reference_components(model, m):
        if any(in_core(summary, phase, x) for x in comp):
            for x in comp:
                fixed[x] = states[phase - 1]
        if len(comp) > 1:
            groups.append(comp)
    for x in pinned:
        x = tuple(x)
        if x not in in_cube:
            raise ValueError(f"pinned site {x} is outside the cube")
        if fixed.get(x, 1) != 1:
            raise ValueError(f"pinned site {x} conflicts with a phase state")
        fixed[x] = 1
    pair_terms = []
    unary_terms = {}
    for x in sites:
        for off in model.weak_offsets(residue(model, x)):
            y = tuple(a + b for a, b in zip(x, off))
            if y in in_cube and x < y:
                pair_terms.append((x, y, 2 * model.weights[residue(model, x), off]))
        gp = forcing_value(model, x, 1)
        gm = forcing_value(model, x, -1)
        if gp or gm:
            unary_terms[x] = (gp, gm)
    return GroundStateInstance(
        variables=tuple(sites),
        pair_terms=tuple(pair_terms),
        unary_terms=unary_terms,
        fixed=fixed,
        groups=tuple(groups),
    )


def brute_phi(model, m, states, summary):
    """Reference density by full enumeration of the oracle's free groups."""
    inst = reference_phi_instance(model, m, states, summary)
    best = min(energy(inst, assignment) for assignment in group_assignments(inst))
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
    value = phi_m(model, m, states)
    assert value == expected
    assert value == brute_phi(model, m, states, s)


def test_phi_tilde_dominates_phi(any_model):
    model = any_model
    m = 8 if model.dimension == 1 else 4
    for states in itertools.product((1, -1), repeat=model.num_phases):
        assert phi_bracket(model, m, states).corrected >= phi_m(model, m, states)


def test_bracket_orders_lower_below_upper(any_model):
    model = any_model
    m = 8 if model.dimension == 1 else 4
    for states in itertools.product((1, -1), repeat=model.num_phases):
        row = phi_bracket(model, m, states)
        assert row.m == m
        assert row.lower == row.plain
        assert row.lower <= row.upper
        c = island_error_constant(model)
        assert row.upper == row.corrected + Fraction(c, m)


def test_island_error_constant_values():
    for name in ("chain_soft_even", "two_chains", "soft_inclusions_2d", "diagonal_2d"):
        model = fixture_model(name)
        assert island_error_constant(model) == 0
    model = fixture_model("islands_1d")
    assert island_error_constant(model) == Fraction(21, 10)


def test_island_error_constant_ignores_strong_weights():
    doc = fixture_document("islands_1d")
    for bond in doc["strong_bonds"]:
        bond["weight"] = "1000"
    model = parse_model(doc)
    assert island_error_constant(model) == Fraction(21, 10)


def test_island_correction_sandwich_at_fixed_size():
    model = fixture_model("islands_1d")
    m = 12
    plain = phi_m(model, m, (-1,))
    corrected = phi_bracket(model, m, (-1,)).corrected
    assert plain == 0
    assert corrected == Fraction(7, 120)
    c = island_error_constant(model)
    assert corrected - Fraction(c, m) <= plain <= corrected


@pytest.mark.parametrize("name,solves", [("chain_soft_even", 1), ("islands_1d", 2)])
def test_phi_bracket_solves_each_distinct_cube_once(monkeypatch, name, solves):
    """Without islands the corrected cube is the plain one and is not solved again."""
    instances = []
    real = bulk_density.minimize

    def counting(instance):
        instances.append(instance)
        return real(instance)

    monkeypatch.setattr(bulk_density, "minimize", counting)
    row = phi_bracket(fixture_model(name), 12, (-1,))
    assert len(instances) == solves
    assert (row.corrected == row.plain) == (solves == 1)


def test_phi_bracket_reuses_the_plain_cube_when_nothing_is_excluded(monkeypatch):
    """With islands but an empty excluded set (islands_1d at M = 40000), the
    corrected cube is the plain one and is solved once."""
    model = fixture_model("islands_1d")
    assert not excluded_set(model, 40000).any()
    solves = []
    real = bulk_density.minimize

    def counting(instance):
        solves.append(instance)
        return real(instance)

    monkeypatch.setattr(bulk_density, "minimize", counting)
    row = phi_bracket(model, 40000, (1,))
    assert len(solves) == 1
    assert row.corrected == row.plain == phi_m(model, 40000, (1,))
    assert row.upper == row.corrected + island_error_constant(model) / 40000


def test_phi_estimate_requires_increasing_sizes():
    model = fixture_model("chain_soft_even")
    with pytest.raises(ValueError):
        phi_estimate(model, (-1,), (8, 8))
    with pytest.raises(ValueError):
        phi_estimate(model, (-1,), (8, 4))


def test_phi_estimate_rows_and_doubling_warning():
    model = fixture_model("chain_soft_even_anti")
    with pytest.warns(UserWarning, match="doubling"):
        rows = phi_estimate(model, (-1,), (4, 8))
    assert [r.m for r in rows] == [4, 8]
    assert rows[0].plain == Fraction(-3, 4)
    assert rows[1].plain == Fraction(-7, 8)


def test_phi_estimate_silent_on_nonnegative_weak_couplings():
    model = fixture_model("chain_soft_even")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = phi_estimate(model, (-1,), (4, 8, 16))
    values = [r.plain for r in rows]
    assert values == sorted(values)


def test_phi_instance_structure_two_chains():
    model = fixture_model("two_chains")
    terms = build_phi_instance(model, 4, (1, -1))
    sites = cube_sites(1, 4)  # the cell order of the cube
    assert terms.size == len(sites)
    assert set(sites) == {(-2,), (-1,), (0,), (1,)}
    # every site is hard here, pinned to the state of its phase
    fixed = {x: int(spin) for x, spin in zip(sites, terms.fixed) if spin}
    assert fixed == {(-2,): -1, (0,): -1, (-1,): 1, (1,): 1}
    # held sites are fixed one by one, not grouped by component
    assert terms.group.tolist() == list(range(4))


def test_phi_solution_exact_with_no_free_sites():
    model = fixture_model("two_chains")
    sol = phi_solution(model, 8, (1, -1))
    assert sol.method == "enumeration"
    assert Fraction(sol.energy, 8) == Fraction(7, 8)


def test_phi_table_enumerates_all_states():
    model = fixture_model("two_chains")
    table = PhiTable.from_model(model, [4, 8])
    assert table.states() == [(1, 1), (1, -1), (-1, 1), (-1, -1)]
    assert table.value((1, -1)) == Fraction(7, 8)
    assert table.value((1, 1)) == 0
    # symmetric under global spin flip: no forcing terms in this model
    assert table.value((-1, 1)) == table.value((1, -1))
    row = table.rows((1, -1))[-1]
    assert row.lower <= table.value((1, -1)) <= row.upper
    with pytest.raises(KeyError):
        table.value((1,))


def test_phi_accepts_any_positive_size():
    # the cube minimization is well defined off the period grid too
    model = fixture_model("chain_soft_even")
    s = classify(model)
    assert phi_m(model, 7, (-1,)) == brute_phi(model, 7, (-1,), s)
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


# ---------------------------------------------------------------------------
# the array builder against the per-site oracles

ORACLE_SIDES = {1: (3, 6, 8, 11, 12, 13, 30), 2: (3, 6, 8, 13)}


def solve_both(model, m, states, summary, corrected, method):
    """(array-built solution, oracle solution), or the two exception types."""
    pinned = grid_sites(excluded_set(model, m)) if corrected else ()
    terms = build_phi_instance(model, m, states, corrected)
    inst = reference_phi_instance(model, m, states, summary, pinned)
    out = []
    for instance in (terms, inst.terms()):
        try:
            out.append(solve(instance, method))
        except (TooManyFreeGroups, FrustratedInstance) as exc:
            out.append(type(exc))
    return out


def assert_same_solution(got, want, sites):
    if isinstance(want, type):
        assert got is want
        return
    assert got.energy == want.energy
    assert got.method == want.method
    # the cube in C order over its sites, the oracle in sorted order of its variables
    cube = dict(zip(sites, got.spins.tolist()))
    oracle = dict(zip(sorted(sites), want.spins.tolist()))
    assert cube == oracle
    assert got.spins.dtype == np.int8 and not got.spins.flags.writeable
    assert got.spins.tolist() == [oracle[x] for x in sites]


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_array_build_matches_per_site_oracle(name):
    """Energy and full assignment of every cube solve, plain and island-corrected."""
    model = fixture_model(name)
    s = classify(model)
    for m in ORACLE_SIDES[model.dimension]:
        sites = cube_sites(model.dimension, m)
        for states in itertools.product((1, -1), repeat=model.num_phases):
            for corrected in (False, True):
                for method in ("auto", "cut", "enum"):
                    if corrected and 0 < m <= s.island_radius:
                        with pytest.warns(UserWarning, match="island radius"):
                            got, want = solve_both(model, m, states, s, corrected, method)
                    else:
                        got, want = solve_both(model, m, states, s, corrected, method)
                    assert_same_solution(got, want, sites)


def random_signed_model(rng: random.Random):
    """Period-3 chain: two soft residues between hard sites, signed weak
    bonds between neighbours and between soft sites three apart, so the
    free-free couplings need a gauge and may be frustrated."""
    weight = lambda: str(Fraction(rng.randrange(-4, 5), 8))
    strong = str(Fraction(rng.randrange(1, 5), 8))
    weak = []
    for res, off in (("0", 1), ("1", 1), ("2", 1), ("0", 3), ("1", 3)):
        w = weight()
        back = str((int(res) + off) % 3)
        weak += [
            {"from": res, "offset": [off], "weight": w},
            {"from": back, "offset": [-off], "weight": w},
        ]
    return parse_model({
        "dimension": 1, "period": 3, "num_phases": 1,
        "labels": {"0": 0, "1": 0, "2": 1},
        "strong_bonds": [
            {"from": "2", "offset": [3], "weight": strong},
            {"from": "2", "offset": [-3], "weight": strong},
        ],
        "weak_bonds": weak,
        "forcing": {r: {"plus": weight(), "minus": weight()} for r in ("0", "1")},
    })


def test_array_build_matches_oracle_on_random_signed_models():
    rng = random.Random(1313)
    outcomes = set()
    for trial in range(80):
        if trial % 2:
            model = random_chain_model(rng, nonneg_weak=False)
        else:
            model = random_signed_model(rng)
        s = classify(model)
        m = rng.choice((4, 5, 7, 9, 12))
        states = tuple(rng.choice((1, -1)) for _ in range(model.num_phases))
        sites = cube_sites(1, m)
        for method in ("enum", "cut"):
            got, want = solve_both(model, m, states, s, False, method)
            assert_same_solution(got, want, sites)
            outcomes.add(want if isinstance(want, type) else want.method)
    assert outcomes == {"enumeration", "mincut", FrustratedInstance}


def test_huge_denominators_take_the_object_path_exactly():
    doc = fixture_document("chain_soft_even")
    big, other = 2**61 - 1, 3**41
    for bond in doc["weak_bonds"]:
        # the parity of the bond's left site picks 3 or 4: both declarations of a bond agree
        left = int(bond["from"]) + min(bond["offset"][0], 0)
        bond["weight"] = f"{3 + left % 2}/{big}"
    doc["forcing"] = {"0": {"plus": f"1/{other}", "minus": f"-2/{other}"}}
    model = parse_model(doc)
    s = classify(model)
    for m in (5, 8):
        for states in ((1,), (-1,)):
            terms = build_phi_instance(model, m, states)
            assert terms.bound() >= 2**62
            inst = reference_phi_instance(model, m, states, s)
            best, first = brute_argmin(inst)
            sites = cube_sites(1, m)
            for method in ("enum", "cut"):
                sol = solve(terms, method)
                assert sol.energy == best
                assert dict(zip(sites, sol.spins.tolist())) == named(inst, solve(inst.terms(), method).spins)
            assert dict(zip(sites, solve(terms, "enum").spins.tolist())) == first
            assert phi_solution(model, m, states).energy == best


def loose_components(model, m):
    """The oracle's strong components of Q_M that hold no core site."""
    s = classify(model)
    return [
        comp for phase, comp in reference_components(model, m)
        if not any(in_core(s, phase, x) for x in comp)
    ]


def assert_loose_labels(model, m, labels):
    """In the labels of the sites of Q_M, each loose component carries the
    number of its smallest site; core and soft sites carry -1."""
    sites = cube_sites(model.dimension, m)
    assert labels.shape == (len(sites),)
    comps: dict = {}
    for x, label in zip(sites, labels.tolist()):
        if label >= 0:
            comps.setdefault(label, set()).add(x)
    assert {frozenset(c) for c in comps.values()} == set(loose_components(model, m))
    assert all(sites[label] == min(c) for label, c in comps.items())
    s = classify(model)
    for x, label in zip(sites, labels.tolist()):
        if label < 0:
            phase = model.labels[residue(model, x)]
            assert phase == 0 or in_core(s, phase, x)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_union_find_labels_are_the_bfs_components(name):
    model = fixture_model(name)
    for m in ORACLE_SIDES[model.dimension] + (31,):
        assert_loose_labels(model, m, hard_components_in_cube(model, m))


def test_union_find_gets_no_pairs_without_loose_residues(monkeypatch):
    """Models whose hard residues all lie in cores run the union-find on
    zero pairs."""
    seen = []
    real = connectivity.components
    monkeypatch.setattr(connectivity, "components", lambda n, a, b: seen.append(a.size) or real(n, a, b))
    for name in ("soft_inclusions_2d", "diagonal_2d"):
        labels = hard_components_in_cube(fixture_model(name), 12)
        assert (labels == -1).all()
    assert seen == [0, 0]
    hard_components_in_cube(fixture_model("islands_1d"), 12)
    assert seen[-1] > 0


def random_strong_graph_2d(rng: random.Random, bond: float = 0.25):
    """Period-3 planar model with a random set of hard residues and random
    symmetric strong bonds among them (up to range 2), each offset drawn
    with probability ``bond``: islands, strips and spanning clusters all
    occur, the first two mostly at small ``bond``."""
    residues = list(itertools.product(range(3), repeat=2))
    labels = {r: int(rng.random() < 0.6) for r in residues}
    labels[(0, 0)] = 1
    strong = set()
    for r in residues:
        if not labels[r]:
            continue
        for off in itertools.product(range(-2, 3), repeat=2):
            target = tuple((a + b) % 3 for a, b in zip(r, off))
            if any(off) and labels[target] and rng.random() < bond:
                strong.add((r, off))
                strong.add((target, tuple(-c for c in off)))
    key = lambda r: ",".join(map(str, r))
    return parse_model({
        "dimension": 2, "period": 3, "num_phases": 1,
        "labels": {key(r): lab for r, lab in labels.items()},
        "strong_bonds": [
            {"from": key(r), "offset": list(off), "weight": "1"} for r, off in sorted(strong)
        ],
    })


def test_union_find_labels_on_random_strong_graphs():
    """``box_components`` on the loose hard residues, those outside the
    cores of the summary.  Strip models fail validation, so
    ``hard_components_in_cube`` refuses them; the marks are taken here."""
    rng = random.Random(1414)
    loose = 0
    for trial in range(60):
        model = random_strong_graph_2d(rng, (0.25, 0.05, 0.1)[trial % 3])
        m = rng.choice((5, 9, 14))
        cores = model.summary.core_residues
        marks = np.array([j != 0 and r not in cores.get(j, ()) for r, j in sorted(model.labels.items())])
        assert_loose_labels(model, m, box_components(model, (cube_range(m),) * 2, marks))
        loose += bool(loose_components(model, m))
    assert loose >= 20  # islands and strips, not only spanning cores


def assert_fixed_matches_oracle(model, m):
    """Per-site ``fixed`` against the oracle's per-component one, for every
    state, without pins and with the island-corrected pins; then the
    solutions of the plain and the island-corrected cube."""
    s = classify(model)
    sites = cube_sites(model.dimension, m)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "cube side .* does not exceed the island radius")
        excluded = grid_sites(excluded_set(model, m))
        for states in itertools.product((1, -1), repeat=model.num_phases):
            for corrected, pins in ((False, ()), (True, excluded)):
                terms = build_phi_instance(model, m, states, corrected)
                inst = reference_phi_instance(model, m, states, s, pins)
                assert terms.fixed.tolist() == [inst.fixed.get(x, 0) for x in sites]
                assert_same_solution(solve(terms, "cut"), solve(inst.terms(), "cut"), sites)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixed_by_residue_matches_fixed_by_component(name):
    model = fixture_model(name)
    for m in ORACLE_SIDES[model.dimension]:
        assert_fixed_matches_oracle(model, m)


@pytest.mark.parametrize("num_phases", [1, 2])
def test_fixed_by_residue_matches_fixed_by_component_on_random_models(num_phases):
    rng = random.Random(1616 + num_phases)
    islands = 0
    for trial in range(15):
        model = random_valid_model_2d(rng, num_phases)
        assert_fixed_matches_oracle(model, rng.choice((4, 5, 7)))
        islands += bool(model.summary.islands())
    assert islands >= 4


def test_strong_bond_between_cores_is_refused():
    doc = fixture_document("two_chains")
    doc["weak_bonds"] = [b for b in doc["weak_bonds"] if b["from"] != "0" or b["offset"] != [1]]
    doc["strong_bonds"].append({"from": "0", "offset": [1], "weight": "1/8"})
    model = parse_model(doc)
    with pytest.raises(ValueError, match=re.escape(
        "the model fails validation (hard-closure): strong bond (from=(0,), offset=(1,)) "
        "leaves phase 2 (target label 1)"
    )):
        build_phi_instance(model, 4, (1, -1))


def test_states_other_than_plus_or_minus_one_are_refused():
    """A phase state is refused unless it equals +1 or -1, before ``int``
    could truncate it (-1.5 once gave phi_8(-1) = 261/80, and 1.9 gave
    phi_8(1) = 0); the density table reads its keys by the same rule."""
    model = fixture_model("soft_inclusions_2d")
    for bad in ((-1.5,), (1.9,), (0,), (Fraction(-1, 2),)):
        with pytest.raises(ValueError, match=r"phase states must be \+-1"):
            phi_m(model, 8, bad)
    assert phi_m(model, 8, (-1.0,)) == phi_m(model, 8, (-1,)) == Fraction(261, 80)
    table = PhiTable.from_model(model, (4,))
    assert table.value((-1.0,)) == table.value((-1,))
    for bad in ((-1.5,), (1.9,)):
        with pytest.raises(ValueError, match=r"phase states must be \+-1"):
            table.rows(bad)
