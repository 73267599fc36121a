"""Strong-bond connectivity: classification, cores, islands, coarsening."""

import math
import random
import re
import warnings
from collections import deque
from fractions import Fraction
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest

from spinhom import connectivity
from spinhom.connectivity import (
    CLASS_FINITE,
    CLASS_UNIQUE,
    box_pairs,
    class_slices,
    classify,
    coarsening_side,
    components,
    core_phases,
    cube_range,
    excluded_set,
    residue_ids,
)
from spinhom.model import parse_model

from conftest import FIXTURE_NAMES, fixture_model, random_chain_model, random_valid_model_2d
from test_helpers import cube_sites, grid_sites, in_core, residue


def strong_component(model, start, window):
    """BFS over strong bonds restricted to |coordinate| <= window."""
    t = model.period
    seen = {start}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        res = tuple(c % t for c in cur)
        for off in model.strong_offsets(res):
            nxt = tuple(a + b for a, b in zip(cur, off))
            if nxt not in seen and all(abs(c) <= window for c in nxt):
                seen.add(nxt)
                queue.append(nxt)
    return seen


def triple_island_doc():
    """Chain of period 6: one core residue, a three-site island, two soft."""
    return {
        "dimension": 1,
        "period": 6,
        "num_phases": 1,
        "labels": {"0": 1, "1": 1, "2": 1, "3": 1, "4": 0, "5": 0},
        "strong_bonds": [
            {"from": "0", "offset": [6], "weight": "1/8"},
            {"from": "0", "offset": [-6], "weight": "1/8"},
            {"from": "1", "offset": [1], "weight": "1/8"},
            {"from": "2", "offset": [-1], "weight": "1/8"},
            {"from": "2", "offset": [1], "weight": "1/8"},
            {"from": "3", "offset": [-1], "weight": "1/8"},
        ],
        "weak_bonds": [
            {"from": "4", "offset": [1], "weight": "1/32"},
            {"from": "5", "offset": [-1], "weight": "1/32"},
        ],
    }


def test_cube_range_covers_m_sites():
    for m in range(1, 9):
        r = cube_range(m)
        assert len(r) == m
        assert r.start == -(m // 2)


def test_fixture_classifications():
    s = classify(fixture_model("chain_soft_even"))
    assert s.passed
    assert [c.classification for c in s.components[1]] == [CLASS_UNIQUE]
    assert s.densities[1] == Fraction(1, 2)
    assert s.island_radius == 0

    s = classify(fixture_model("two_chains"))
    assert s.passed
    assert s.core_residues[1] == frozenset({(1,)})
    assert s.core_residues[2] == frozenset({(0,)})

    s = classify(fixture_model("soft_inclusions_2d"))
    assert s.passed
    assert s.densities[1] == Fraction(3, 4)
    comp = s.components[1][0]
    assert comp.classification == CLASS_UNIQUE
    assert len(comp.displacement_basis) == 2

    s = classify(fixture_model("diagonal_2d"))
    assert s.passed
    comp = s.components[1][0]
    assert comp.classification == CLASS_UNIQUE
    assert comp.residues == frozenset({(0, 0), (1, 1)})


def test_islands_fixture_summary():
    s = classify(fixture_model("islands_1d"))
    assert s.passed
    islands = s.islands()
    assert len(islands) == 1
    comp = islands[0]
    assert comp.classification == CLASS_FINITE
    assert comp.lift_sites is not None and len(comp.lift_sites) == 2
    assert comp.lift_diameter == 1
    assert s.island_radius == 1
    assert s.core_residues[1] == frozenset({(0,)})


def test_model_carries_its_summary():
    model = fixture_model("islands_1d")
    assert model.summary is model.summary
    assert model.summary == classify(model)


def test_triple_island_radius():
    from spinhom.model import parse_model

    s = classify(parse_model(triple_island_doc()))
    islands = s.islands()
    assert len(islands) == 1
    assert len(islands[0].lift_sites) == 3
    assert s.island_radius == 2


def test_in_core_matches_window_growth_oracle(any_model):
    """A residue is core iff its strong component keeps growing with the window."""
    model = any_model
    s = classify(model)
    t = model.period
    for res in product(range(t), repeat=model.dimension):
        j = model.labels[res]
        if j == 0:
            continue
        small = strong_component(model, res, 6 * t)
        large = strong_component(model, res, 12 * t)
        grows = len(large) > len(small)
        assert in_core(s, j, res) == grows, (res, len(small), len(large))


def test_in_core_random_chains():
    rng = random.Random(20260819)
    for _ in range(25):
        model = random_chain_model(rng)
        s = classify(model)
        for res in ((0,), (1,)):
            j = model.labels[res]
            if j == 0:
                continue
            small = strong_component(model, res, 12)
            large = strong_component(model, res, 24)
            assert in_core(s, j, res) == (len(large) > len(small))


def brute_excluded(model, m, summary):
    """Direct scan: islands straddling the cube rim, via component BFS."""
    t = model.period
    radius = summary.island_radius
    inner = Fraction(m) - radius
    out = set()
    for k in cube_sites(model.dimension, m):
        res = tuple(c % t for c in k)
        j = model.labels[res]
        if j == 0 or in_core(summary, j, k):
            continue
        comp = strong_component(model, k, 10 * m)
        if not any(
            all(-inner / 2 <= c < inner / 2 for c in member) for member in comp
        ):
            out.add(k)
    return frozenset(out)


def quiet_excluded_set(model, m):
    """``excluded_set``, without the warning of a side within the island radius."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "cube side .* does not exceed the island radius")
        return excluded_set(model, m)


@pytest.mark.parametrize("m", [1, 4, 5, 8, 12, 13, 16])
def test_excluded_set_matches_brute_scan(m):
    model = fixture_model("islands_1d")
    s = classify(model)
    grid = quiet_excluded_set(model, m)
    assert grid.shape == (m,) and grid.dtype == bool
    assert grid_sites(grid) == brute_excluded(model, m, s)


@pytest.mark.parametrize("m", [2, 5, 6, 12, 13, 18])
def test_excluded_set_triple_island(m):
    from spinhom.model import parse_model

    model = parse_model(triple_island_doc())
    s = classify(model)
    assert grid_sites(quiet_excluded_set(model, m)) == brute_excluded(model, m, s)


def l_island_2d_doc():
    """Period 3 in the plane: the core residue (2, 2) bonded along both
    axes, an L-shaped three-site island (0, 0), (0, 1), (1, 0) of
    diameter sqrt(2), so island radius 2, and soft sites elsewhere."""
    island = ((0, 0), (0, 1), (1, 0))
    strong = [("2,2", off) for off in ([3, 0], [-3, 0], [0, 3], [0, -3])]
    strong += [("0,0", [0, 1]), ("0,1", [0, -1]), ("0,0", [1, 0]), ("1,0", [-1, 0])]
    return {
        "dimension": 2,
        "period": 3,
        "num_phases": 1,
        "labels": {f"{a},{b}": int((a, b) in island + ((2, 2),)) for a in range(3) for b in range(3)},
        "strong_bonds": [{"from": r, "offset": off, "weight": "1/8"} for r, off in strong],
        "weak_bonds": [],
    }


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 9, 13, 14])
def test_excluded_set_2d_island(m):
    model = parse_model(l_island_2d_doc())
    s = classify(model)
    assert [len(c.lift_sites) for c in s.islands()] == [3]
    assert s.island_radius == 2
    grid = quiet_excluded_set(model, m)
    assert grid.shape == (m, m)
    want = brute_excluded(model, m, s)
    assert grid_sites(grid) == want
    # not vacuous: every other side, 1 and 2 within the radius included, excludes sites
    assert bool(want) == (m not in (3, 9))


def test_excluded_set_random_2d_islands():
    rng = random.Random(3232)
    seen = 0
    for _ in range(8):
        model = random_valid_model_2d(rng, 1 + rng.randrange(2))
        s = classify(model)
        for m in (2, 5, 8):
            want = brute_excluded(model, m, s)
            assert grid_sites(quiet_excluded_set(model, m)) == want
            seen += bool(want)
    assert seen >= 5


def test_excluded_set_empty_without_islands(any_model):
    model = any_model
    s = classify(model)
    if s.island_radius == 0:
        m = 8 if model.dimension == 1 else 4
        grid = excluded_set(model, m)
        assert grid.shape == (m,) * model.dimension
        assert not grid.any()


def test_excluded_set_small_cube_warns():
    model = fixture_model("islands_1d")
    with pytest.warns(UserWarning, match="island radius"):
        excluded_set(model, 1)


def test_single_site_islands_are_never_excluded():
    from spinhom.model import parse_model

    doc = {
        "dimension": 2,
        "period": 2,
        "num_phases": 1,
        "labels": {"0,0": 1, "0,1": 1, "1,0": 1, "1,1": 1},
        "strong_bonds": [
            {"from": "0,0", "offset": [0, 2], "weight": "1/8"},
            {"from": "0,0", "offset": [0, -2], "weight": "1/8"},
            {"from": "0,0", "offset": [2, 0], "weight": "1/8"},
            {"from": "0,0", "offset": [-2, 0], "weight": "1/8"},
            {"from": "0,0", "offset": [1, 0], "weight": "1/8"},
            {"from": "1,0", "offset": [-1, 0], "weight": "1/8"},
            {"from": "0,0", "offset": [0, 1], "weight": "1/8"},
            {"from": "0,1", "offset": [0, -1], "weight": "1/8"},
        ],
        "weak_bonds": [],
    }
    model = parse_model(doc)
    s = classify(model)
    assert [c.lift_sites for c in s.islands()] == [((1, 1),)]
    assert s.island_radius == 0
    assert not excluded_set(model, 8).any()


def verify_coarsening_property(model, phase, m, summary):
    """Any two core sites in a shifted m-cube connect inside the 3m-cube."""
    t = model.period
    dim = model.dimension
    for shift in product(range(t), repeat=dim):
        inner = [
            tuple(c + s for c, s in zip(site, shift))
            for site in product(range(m), repeat=dim)
            if in_core(summary, phase, tuple(c + s for c, s in zip(site, shift)))
        ]
        if len(inner) <= 1:
            continue
        lo = [s - m for s in shift]
        hi = [s + 2 * m for s in shift]
        seen = {inner[0]}
        queue = deque([inner[0]])
        while queue:
            cur = queue.popleft()
            res = tuple(c % t for c in cur)
            for off in model.strong_offsets(res):
                nxt = tuple(a + b for a, b in zip(cur, off))
                if (
                    nxt not in seen
                    and all(a <= c < b for c, a, b in zip(nxt, lo, hi))
                    and in_core(summary, phase, nxt)
                ):
                    seen.add(nxt)
                    queue.append(nxt)
        if not all(site in seen for site in inner):
            return False
    return True


@pytest.mark.parametrize(
    "name,phase", [("chain_soft_even", 1), ("islands_1d", 1), ("diagonal_2d", 1)]
)
def test_coarsening_side_property(name, phase):
    model = fixture_model(name)
    s = classify(model)
    m = coarsening_side(model, phase)
    assert m % model.period == 0
    assert verify_coarsening_property(model, phase, m, s)


def test_coarsening_side_rejects_coreless_phase():
    from spinhom.model import parse_model

    doc = triple_island_doc()
    doc["num_phases"] = 2
    doc["labels"]["1"] = doc["labels"]["2"] = doc["labels"]["3"] = 2
    model = parse_model(doc)
    s = classify(model)
    assert not s.passed
    assert any(v.rule == "unique-infinite-component" for v in s.violations)
    with pytest.raises(ValueError, match=re.escape(
        "the model fails validation (unique-infinite-component): phase 2 has no infinite "
        "component (all components are finite)"
    )):
        coarsening_side(model, 2)


def bfs_coarsening_side(model, phase, summary, cap_multiple=64):
    """The per-site build of :func:`coarsening_side`: the smallest multiple
    of the period whose cubes pass the breadth-first check above."""
    if not summary.core_residues.get(phase):
        raise ValueError(f"phase {phase} has no infinite-unique component")
    for mult in range(1, cap_multiple + 1):
        if verify_coarsening_property(model, phase, mult * model.period, summary):
            return mult * model.period
    raise RuntimeError(
        f"coarsening side of phase {phase} exceeds {cap_multiple} periods; "
        "the core connects too slowly for cube-based coarsening"
    )


def random_periodic_model(rng):
    """One hard phase on a random sublattice of period 2-4 in d = 1 or 2,
    with random symmetric strong bonds of length up to the period (twice
    the period in d = 1)."""
    d = rng.choice((1, 2))
    t = rng.choice((2, 3, 4))
    residues = list(product(range(t), repeat=d))
    labels = {r: int(rng.random() < 0.75) for r in residues}
    if d == 1:
        offsets = [(k,) for k in range(1, 2 * t + 1)]
    else:
        offsets = [(a, b) for a in range(t + 1) for b in range(-t, t + 1)
                   if (a, b) > (0, 0) and a + abs(b) <= t]
    bonds = set()
    for r in residues:
        for off in offsets:
            r2 = tuple((a + b) % t for a, b in zip(r, off))
            if labels[r] and labels[r2] and rng.random() < 0.25:
                bonds |= {(r, off), (r2, tuple(-c for c in off))}
    key = lambda r: ",".join(map(str, r))
    return parse_model({
        "dimension": d, "period": t, "num_phases": 1,
        "labels": {key(r): lab for r, lab in labels.items()},
        "strong_bonds": [{"from": key(r), "offset": list(off), "weight": "1/8"}
                         for r, off in sorted(bonds)],
    })


def random_cored_models(count, seed):
    rng = random.Random(seed)
    models = []
    while len(models) < count:
        model = random_periodic_model(rng)
        summary = classify(model)
        if summary.core_residues.get(1):
            models.append((model, summary))
    return models


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_coarsening_side_matches_bfs_on_fixtures(name):
    model = fixture_model(name)
    summary = classify(model)
    for phase in summary.core_residues:
        if summary.core_residues[phase]:
            want = bfs_coarsening_side(model, phase, summary)
            assert coarsening_side(model, phase) == want


def test_coarsening_side_matches_bfs_on_random_models():
    """On the models that pass validation; ``coarsening_side`` refuses
    the others, whose phase also has a component that lifts to several
    infinite ones."""
    sides, refused = [], 0
    for model, summary in random_cored_models(30, seed=7):
        if not model.report.passed:
            with pytest.raises(ValueError, match=r"^the model fails validation \("):
                coarsening_side(model, 1)
            refused += 1
            continue
        want = bfs_coarsening_side(model, 1, summary)
        assert coarsening_side(model, 1) == want
        sides.append((model.period, want))
    assert refused == 2
    assert any(side > period for period, side in sides)
    assert any(side == period for period, side in sides)


def test_coarsening_side_cap_error_matches_bfs(monkeypatch):
    model, summary = next(
        (m, s) for m, s in random_cored_models(30, seed=7)
        if bfs_coarsening_side(m, 1, s) > m.period
    )
    cap = bfs_coarsening_side(model, 1, summary) // model.period - 1
    with pytest.raises(RuntimeError) as want:
        bfs_coarsening_side(model, 1, summary, cap_multiple=cap)
    monkeypatch.setattr(connectivity, "COARSENING_CAP", cap)
    with pytest.raises(RuntimeError) as got:
        coarsening_side(model, 1)
    assert str(got.value) == str(want.value)


def brute_class_pairs(t, ranges, res, off):
    """Per site of the box at residue ``res`` whose neighbour at ``off`` is
    in the box, both site numbers in C order."""
    sites = list(product(*ranges))
    number = {site: i for i, site in enumerate(sites)}
    pairs = []
    for site in sites:
        nxt = tuple(c + o for c, o in zip(site, off))
        if all(c % t == r for c, r in zip(site, res)) and nxt in number:
            pairs.append((number[site], number[nxt]))
    return pairs


def test_box_pairs_match_per_site_scan():
    """``box_pairs`` under a random inside grid lists the scanned pairs of
    each class whose source is inside, those with both ends inside only at
    a forward offset, class by class; the sites that ``class_slices`` cuts
    out of a grid of site numbers list every scanned pair of a class, and
    at the zero offset the slices of each residue hold exactly the sites
    of that residue."""
    rng = random.Random(3)
    kinds = set()
    for _ in range(400):
        d = rng.randint(1, 3)
        t = rng.randint(1, 4)
        ranges = [range(lo, lo + rng.randint(0, 7)) for lo in (rng.randint(-9, 5) for _ in range(d))]
        shape = [len(r) for r in ranges]
        model = SimpleNamespace(period=t, dimension=d)
        grid = np.arange(math.prod(shape)).reshape(shape)
        density = rng.choice((0.0, 0.5, 1.0))
        inside = np.array([rng.random() < density for _ in range(grid.size)], dtype=bool).reshape(shape)
        flat = inside.ravel().tolist()
        classes, want = [], []
        for k in range(rng.randint(0, 4)):
            res = tuple(rng.randrange(t) for _ in range(d))
            off = tuple(rng.choice((0, rng.randint(-5, 5))) for _ in range(d))
            forward = off > (0,) * d
            kinds.add("forward" if forward else "zero" if not any(off) else "backward")
            scan = brute_class_pairs(t, ranges, res, off)
            classes.append((res, off))
            want += [(a, b, k) for a, b in scan if flat[a] and (forward or not flat[b])]
            cut = class_slices(model, ranges, res, off)
            assert (cut is None) == (not scan)
            if cut is not None:
                assert list(zip(grid[cut[0]].ravel().tolist(), grid[cut[1]].ravel().tolist())) == scan
        got = box_pairs(model, ranges, classes, inside)
        assert all(x.dtype == np.int64 for x in got)
        assert list(zip(*(x.tolist() for x in got))) == want
        rid = residue_ids(model, ranges)
        for k, r in enumerate(product(range(t), repeat=d)):
            on = np.zeros(grid.shape, dtype=bool)
            if (cut := class_slices(model, ranges, r, (0,) * d)) is not None:
                on[cut[0]] = True
            assert np.array_equal(on.ravel(), rid == k)
    assert kinds == {"zero", "forward", "backward"}


def test_residue_ids_match_residue_order():
    for name in ("soft_inclusions_2d", "islands_1d"):
        model = fixture_model(name)
        ranges = [range(-5, 3), range(2, 9)][: model.dimension]
        order = {r: k for k, r in enumerate(model.residues())}
        want = [order[residue(model, site)] for site in product(*ranges)]
        assert residue_ids(model, ranges).tolist() == want


def test_core_phases_per_residue(any_model):
    summary = classify(any_model)
    want = [
        next((j for j, core in summary.core_residues.items() if r in core), 0)
        for r in any_model.residues()
    ]
    assert core_phases(any_model).tolist() == want


def test_components_label_each_site_with_its_smallest_member():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(1, 40)
        edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, n))]
        a, b = (np.array(x, dtype=np.int64) for x in zip(*edges)) if edges else (
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        adjacent = {i: set() for i in range(n)}
        for u, v in edges:
            adjacent[u].add(v)
            adjacent[v].add(u)
        want = []
        for i in range(n):
            seen, queue = {i}, deque([i])
            while queue:
                for nxt in adjacent[queue.popleft()] - seen:
                    seen.add(nxt)
                    queue.append(nxt)
            want.append(min(seen))
        assert components(n, a, b).tolist() == want
