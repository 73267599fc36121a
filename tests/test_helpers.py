"""Support layers: integer lattices, max-flow, the scalar per-cube rule
that classifies phase targets on cubes, the polygon arrangement that
integrates a 2D target, and a d = 1 oracle for phi; also the solver,
memory-tracing, spin-grid and surface-cell pair helpers the other test modules
share."""

import collections
import itertools
import math
import random
import tracemalloc
import types
from fractions import Fraction

import numpy as np
import pytest

from spinhom import gamma_limit, ground_state, surface_tension
from spinhom.bulk_density import PhiRow, PhiTable, build_phi_instance, phi_bracket, phi_m
from spinhom.connectivity import core_phases, cube_range
from spinhom.gamma_limit import Box, Boxes, Constant, DomainSpec, MultiphaseField, Slab
from spinhom.ground_state import fold_instance, minimize, minimize_cut, minimize_enum
from spinhom.intlattice import hermite_basis, is_full_lattice
from spinhom.maxflow import FlowNetwork
from spinhom.model import parse_model, serialize_model
from spinhom.surface_tension import cell_value

from conftest import fixture_model, random_chain_model

F = Fraction


def solve(terms, method: str):
    """``minimize`` of the term arrays ``terms`` for "auto", else one
    exact solver ("enum" or "cut") on their fold."""
    if method == "auto":
        return minimize(terms)
    return {"enum": minimize_enum, "cut": minimize_cut}[method](fold_instance(terms))


def traced(build):
    """``build()`` under tracemalloc: its result, the bytes still held
    when it returns and the peak bytes while it ran, both above the start."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        result = build()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    return result, held - start, peak - start


def box_cell_pairs(model, in_core, sites, terms):
    """The pairs of a surface cell ``terms`` by a per-site scan of its
    sites ``sites`` (coordinates, in the cell's order): for each strong
    offset of each core residue in turn (residues in order, offsets
    sorted), each free site (inside the cube) at that residue in cell
    order, paired with its neighbour when that is held or at a forward
    offset.  Every such neighbour must be a site of the cell.  Returns
    ``u``, ``v`` and ``pair_class``."""
    d = model.dimension
    number = {site: i for i, site in enumerate(sites)}
    free = (terms.fixed == 0).tolist()
    classes = [
        (res, off) for res, core in zip(model.residues(), in_core) if core
        for off in sorted(model.strong_offsets(res))
    ]
    pairs = []
    for k, (res, off) in enumerate(classes):
        for i, site in enumerate(sites):
            if free[i] and residue(model, site) == res:
                j = number[tuple(c + o for c, o in zip(site, off))]
                if off > (0,) * d or not free[j]:
                    pairs.append((i, j, k))
    return tuple(np.array([p[e] for p in pairs], dtype=np.int64) for e in range(3))


def named(instance, spins) -> dict:
    """Variable -> spin, from spins in the cell order of a
    ``GroundStateInstance``: its variables sorted."""
    return dict(zip(sorted(instance.variables), spins.tolist()))


def spin_grid(omega, eps, spin) -> np.ndarray:
    """The int8 spin grid of a field over the sites of (1/eps) omega, in
    C order: ``spin(k)`` at each site k, called in that order, or the
    number ``spin`` everywhere."""
    ranges = omega.site_ranges(eps)
    shape = tuple(len(r) for r in ranges)
    if not callable(spin):
        return np.full(shape, spin, dtype=np.int8)
    return np.array([spin(k) for k in itertools.product(*ranges)], dtype=np.int8).reshape(shape)


def residue(model, site) -> tuple:
    """The residue class of ``site`` modulo the model's period."""
    return tuple(c % model.period for c in site)


def cube_sites(dim: int, m: int) -> list:
    """The sites of the centered cube Q_M as tuples, in C order."""
    return list(itertools.product(cube_range(m), repeat=dim))


def grid_sites(grid) -> frozenset:
    """The sites of Q_M that a bool grid over the cube (C order) marks."""
    return frozenset(
        x for x, on in zip(cube_sites(grid.ndim, grid.shape[0]), grid.ravel().tolist()) if on
    )


def in_core(summary, phase: int, site) -> bool:
    """Whether ``site`` lies in the core of ``phase`` of a ``classify`` summary."""
    res = tuple(c % summary.period for c in site)
    return res in summary.core_residues.get(phase, frozenset())


def forcing_value(model, site, spin: int) -> Fraction:
    """The forcing of ``site`` at ``spin``, zero when the model declares none."""
    return model.forcing.get((residue(model, site), spin), F(0))


def surface_table(num_phases: int, values) -> surface_tension.SurfaceTable:
    """A surface table of known values (closed forms), one side each, keyed
    by (phase, direction)."""
    rows = {}
    for (phase, direction), v in values.items():
        nu = surface_tension.canonical_direction(direction)
        rows[(phase, nu)] = surface_tension.SurfaceRow(phase, nu, (0,), (F(v),))
    return surface_tension.SurfaceTable(num_phases, rows)


def contains(basis, vector) -> bool:
    """Membership in the subgroup of an echelon basis, by elimination."""
    v = list(vector)
    for row in basis:
        lead = next(k for k, c in enumerate(row) if c != 0)
        if v[lead] % row[lead] != 0:
            return False
        q = v[lead] // row[lead]
        for k in range(len(v)):
            v[k] -= q * row[k]
    return not any(v)


def test_hermite_basis_known_groups():
    assert hermite_basis([(2, 0), (0, 2)], 2) == [(2, 0), (0, 2)]
    assert hermite_basis([(1, 1), (1, -1)], 2) == [(1, 1), (0, 2)]
    assert hermite_basis([], 2) == []
    assert hermite_basis([(0, 0)], 2) == []
    # redundant generators collapse
    assert hermite_basis([(3,), (5,)], 1) == [(1,)]


def test_full_lattice_detection():
    assert is_full_lattice(hermite_basis([(1, 1), (1, -1), (0, 1)], 2), 2)
    assert not is_full_lattice(hermite_basis([(1, 1), (1, -1)], 2), 2)
    assert not is_full_lattice(hermite_basis([(1, 0)], 2), 2)
    assert len(hermite_basis([(2, 4), (1, 2)], 2)) == 1


def reference_member(basis, vec) -> bool:
    """Membership by exact rational coordinates in the echelon basis."""
    if not basis:
        return not any(vec)
    if len(basis) == 1:
        (a, b), (x, y) = basis[0], vec
        if a:
            return x % a == 0 and F(x, a) * b == y
        return x == 0 and y % b == 0
    (a, b), (_, c) = basis  # echelon: second row is (0, c)
    x, y = vec
    if x % a:
        return False
    return (y - F(x, a) * b) % c == 0


def test_lattice_membership_matches_rational_solve():
    rng = random.Random(23)
    for _ in range(60):
        gens = [
            tuple(rng.randrange(-3, 4) for _ in range(2))
            for _ in range(rng.randrange(1, 4))
        ]
        basis = hermite_basis(gens, 2)
        # integer combinations of the generators are always members
        for _ in range(5):
            coeffs = [rng.randrange(-4, 5) for _ in gens]
            vec = tuple(
                sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(2)
            )
            assert contains(basis, vec)
        for vec in itertools.product(range(-5, 6), repeat=2):
            assert contains(basis, vec) == reference_member(basis, vec), (
                basis,
                vec,
            )


def brute_min_cut(n, edges, s, t):
    """Minimum s-t cut by enumerating all vertex bipartitions."""
    best = None
    others = [v for v in range(n) if v not in (s, t)]
    for bits in itertools.product((0, 1), repeat=len(others)):
        side = {s}
        side.update(v for v, b in zip(others, bits) if b)
        value = sum(c for u, v, c in edges if u in side and v not in side)
        if best is None or value < best:
            best = value
    return best


def network(n, edges):
    """:class:`FlowNetwork` of the arc pairs ``(u, v, cap)`` or
    ``(u, v, cap, rcap)``, in order."""
    tail, head, cap, rcap = ([e[k] if k < len(e) else 0 for e in edges] for k in range(4))
    return FlowNetwork(n, tail, head, cap, rcap)


def test_network_from_arrays():
    """Arc pair k is arcs 2k (forward) and 2k + 1 (reverse); each node's
    arcs are in arc order, and a scalar reverse capacity applies to all."""
    net = FlowNetwork(3, np.array([0, 1, 0]), np.array([1, 2, 2]), np.array([5, 6, 7]))
    assert net.n == 3
    assert net.to == [1, 0, 2, 1, 2, 0]
    assert net.cap == [5, 0, 6, 0, 7, 0]
    assert net.adj == [[0, 4], [1, 2], [3, 5]]
    huge = FlowNetwork(2, [0], [1], [3], [2**80])
    assert huge.cap == [3, 2**80] and all(type(c) is int for c in huge.cap)
    empty = FlowNetwork(2, [], [], [])
    assert (empty.to, empty.cap, empty.adj) == ([], [], [[], []])


def test_network_holds_one_int_per_node_and_arc_id():
    """``to`` and ``adj`` take their entries from one pool: a node id that
    heads many arcs, or equals an arc id, is one int object, also past
    the small ints that Python caches."""
    rng = random.Random(67)
    n, m = 600, 2000
    net = FlowNetwork(n, [rng.randrange(n) for _ in range(m)],
                      [rng.randrange(n) for _ in range(m)], [1] * m)
    ids = net.to + [eid for arcs in net.adj for eid in arcs]
    assert len({id(x) for x in ids}) == len(set(ids))


def test_network_build_peaks_near_what_it_keeps(monkeypatch):
    """Under tracemalloc, building the network of a surface cell peaks at
    no more than 1.5 times what the network keeps: each arc-sized
    temporary is freed before the next one is made."""
    model = fixture_model("diagonal_2d")
    frame = surface_tension.orthogonal_frame((1, 2))
    terms = surface_tension._cell_instance(model, core_phases(model) == 1, frame, 64)
    calls = []
    monkeypatch.setattr(ground_state, "FlowNetwork",
                        lambda *args: calls.append(args) or FlowNetwork(*args))
    minimize_cut(fold_instance(terms))
    (args,) = calls
    net, held, peak = traced(lambda: FlowNetwork(*args))
    assert net.n > 1000
    assert peak <= 1.5 * held


def test_fold_peaks_near_what_it_keeps():
    """Under tracemalloc, folding the ``phi`` cube of ``soft_inclusions_2d``
    at M = 64 peaks at no more than 4 times what the folded instance keeps:
    the held terms are counted per class and the pairs folded by kind, so
    no int64 temporary spans every site or every pair."""
    terms = build_phi_instance(fixture_model("soft_inclusions_2d"), 64, (-1,))
    folded, held, peak = traced(lambda: fold_instance(terms))
    assert folded.free_count > 1000
    assert peak <= 4 * held


def test_max_flow_matches_brute_cut():
    rng = random.Random(31)
    for _ in range(60):
        n = rng.randrange(3, 8)
        edges = []
        for u in range(n):
            for v in range(n):
                if u != v and rng.random() < 0.4:
                    edges.append((u, v, rng.randrange(0, 9)))
        net = network(n, edges)
        flow = net.max_flow(0, n - 1)
        assert flow == brute_min_cut(n, edges, 0, n - 1)
        # source side certifies the cut value
        side = net.source_side(0)
        assert 0 in side and (n - 1) not in side
        crossing = sum(c for u, v, c in edges if u in side and v not in side)
        assert crossing == flow


def test_max_flow_simple_paths():
    net = FlowNetwork(4, [0, 1, 0, 2], [1, 3, 2, 3], [3, 2, 2, 4])
    assert net.max_flow(0, 3) == 4
    net = FlowNetwork(2, [], [], [])
    assert net.max_flow(0, 1) == 0
    assert net.source_side(0) == {0}


def smallest_min_cut_side(n, edges, s, t):
    """The source set of the minimum cut with the fewest nodes, by enumeration.

    Minimum-cut source sets are closed under intersection, so this set is
    contained in every other one; the check guards the enumeration itself.
    """
    others = [v for v in range(n) if v not in (s, t)]
    sides = []
    for bits in itertools.product((0, 1), repeat=len(others)):
        side = {s} | {v for v, b in zip(others, bits) if b}
        sides.append((sum(c for u, v, c in edges if u in side and v not in side), side))
    best = min(value for value, _ in sides)
    minimal = [side for value, side in sides if value == best]
    smallest = min(minimal, key=len)
    assert all(smallest <= side for side in minimal)
    return smallest


def test_source_side_is_smallest_min_cut_source_set():
    rng = random.Random(47)
    for _ in range(150):
        n = rng.randrange(2, 9)
        edges = []
        for u in range(n):
            for v in range(n):
                if u != v and rng.random() < 0.45:
                    # small capacities make ties between cuts common
                    edges.append((u, v, rng.randrange(0, 4)))
        net = network(n, edges)
        net.max_flow(0, n - 1)
        assert net.source_side(0) == smallest_min_cut_side(n, edges, 0, n - 1)


def residual_reach(net, s):
    """Nodes reachable from s over arcs with residual capacity, by BFS."""
    seen, queue = {s}, [s]
    for u in queue:
        for eid in net.adj[u]:
            if net.cap[eid] > 0 and net.to[eid] not in seen:
                seen.add(net.to[eid])
                queue.append(net.to[eid])
    return seen


def test_source_side_is_the_residual_reach_of_the_source():
    """The final source tree is closed under residual arcs, on sparse and
    dense random networks with one-way and two-way arc pairs."""
    rng = random.Random(61)
    for trial in range(300):
        n = rng.randrange(2, 40)
        s, t = rng.sample(range(n), 2)
        density = rng.choice((0.05, 0.2, 0.5))
        edges = [
            (*rng.sample((u, v), 2), rng.randrange(0, 6), rng.choice((0, rng.randrange(0, 6))))
            for u in range(n) for v in range(u + 1, n) if rng.random() < density
        ]
        net = network(n, edges)
        net.max_flow(s, t)
        assert net.source_side(s) == residual_reach(net, s), f"trial {trial}"


def test_source_side_needs_a_max_flow_from_the_same_source():
    net = FlowNetwork(3, [0, 1], [1, 2], [1, 1])
    with pytest.raises(ValueError, match="needs a max_flow"):
        net.source_side(0)
    net.max_flow(0, 2)
    with pytest.raises(ValueError, match="needs a max_flow"):
        net.source_side(1)


def edmonds_karp(n, edges, s, t):
    """Maximum flow by shortest augmenting paths on a residual matrix, and
    the nodes reachable from s in the final residual graph."""
    residual = [dict() for _ in range(n)]
    for u, v, c in edges:
        residual[u][v] = residual[u].get(v, 0) + c
        residual[v].setdefault(u, 0)
    flow = 0
    while True:
        parent = {s: None}
        queue = [s]
        for u in queue:
            for v, c in residual[u].items():
                if c > 0 and v not in parent:
                    parent[v] = u
                    queue.append(v)
        if t not in parent:
            return flow, set(parent)
        path = []
        v = t
        while parent[v] is not None:
            path.append((parent[v], v))
            v = parent[v]
        push = min(residual[u][v] for u, v in path)
        for u, v in path:
            residual[u][v] -= push
            residual[v][u] += push
        flow += push


def test_max_flow_matches_edmonds_karp_on_grid():
    rng = random.Random(3)
    side = 20
    node = lambda i, j: i * side + j
    s, t = side * side, side * side + 1
    for _ in range(3):
        edges = []
        for i in range(side):
            edges.append((s, node(i, 0), rng.randrange(0, 12)))
            edges.append((node(i, side - 1), t, rng.randrange(0, 12)))
            for j in range(side):
                for di, dj in ((0, 1), (1, 0), (0, -1), (-1, 0), (1, 1)):
                    a, b = i + di, j + dj
                    if 0 <= a < side and 0 <= b < side:
                        edges.append((node(i, j), node(a, b), rng.choice((0, 1, 2, 3, 5))))
        want = edmonds_karp(side * side + 2, edges, s, t)
        # the insertion order changes the augmenting paths, not the result
        for order in range(2):
            if order:
                rng.shuffle(edges)
            net = network(side * side + 2, edges)
            assert (net.max_flow(s, t), net.source_side(s)) == want


def test_undirected_edges_match_two_directed_edges():
    """An arc pair ``(u, v, c, c)`` carries c both ways: same flow and
    source side as two directed arc pairs and as Edmonds-Karp."""
    rng = random.Random(59)
    for trial in range(200):
        n = rng.randrange(2, 10)
        s, t = 0, n - 1
        arcs = [(s, v, rng.randrange(0, 6)) for v in range(1, n) if rng.random() < 0.5]
        arcs += [(u, t, rng.randrange(0, 6)) for u in range(n - 1) if rng.random() < 0.5]
        links = [(u, v, rng.randrange(1, 5)) for u, v in itertools.combinations(range(1, n - 1), 2)
                 if rng.random() < 0.5]
        undirected = network(n, arcs + [(u, v, c, c) for u, v, c in links])
        directed = network(n, arcs + [arc for u, v, c in links for arc in ((u, v, c), (v, u, c))])
        want = edmonds_karp(n, arcs + links + [(v, u, c) for u, v, c in links], s, t)
        for net in (undirected, directed):
            assert (net.max_flow(s, t), net.source_side(s)) == want, f"trial {trial}"
        assert len(undirected.to) == len(directed.to) - 2 * len(links)


def flow_and_oracle(n, edges, s, t):
    """(max flow, source side) from :class:`FlowNetwork` and from
    :func:`edmonds_karp`, for arc pairs ``(u, v, cap, rcap)``."""
    net = network(n, edges)
    arcs = [(u, v, c) for u, v, c, _ in edges] + [(v, u, rc) for u, v, _, rc in edges]
    return (net.max_flow(s, t), net.source_side(s)), edmonds_karp(n, arcs, s, t)


@pytest.mark.parametrize("top", [4, 2**70], ids=["small", "huge"])
def test_max_flow_on_surface_cell_shaped_networks(top):
    """A diagonal grid with symmetric couplings, source arcs on the boundary
    half above an oblique line and sink arcs on the other half, as in the
    surface cell: many augmentations through a thin cut."""
    rng = random.Random(top % 1009)
    side = 30
    node = lambda i, j: i * side + j
    s, t = side * side, side * side + 1
    for normal in ((1, 2), (2, -1), (3, 5)):
        edges = []
        for i in range(side):
            for j in range(side):
                for a, b in ((i + 1, j + 1), (i + 1, j - 1)):
                    if a < side and 0 <= b < side:
                        c = rng.randint(1, top)
                        edges.append((node(i, j), node(a, b), c, c))
                if i in (0, side - 1) or j in (0, side - 1):
                    above = normal[0] * (2 * i - side + 1) + normal[1] * (2 * j - side + 1) > 0
                    c = rng.randint(1, top)
                    edges.append((s, node(i, j), c, 0) if above else (node(i, j), t, c, 0))
        got, want = flow_and_oracle(side * side + 2, edges, s, t)
        assert got == want, f"normal {normal}"


@pytest.mark.parametrize("top", [5, 2**70], ids=["small", "huge"])
def test_max_flow_with_terminal_arcs_on_many_nodes(top):
    """Terminal arcs on 30% of the nodes: augmentations orphan whole
    subtrees, which must be re-adopted or freed and regrown."""
    rng = random.Random(top % 1013)
    for trial in range(8):
        rows, cols = rng.randrange(3, 25), rng.randrange(3, 25)
        s, t = rows * cols, rows * cols + 1
        edges = []
        for i in range(rows):
            for j in range(cols):
                u = i * cols + j
                if i + 1 < rows:
                    edges.append((u, u + cols, rng.randint(0, top), rng.randint(0, top)))
                if j + 1 < cols:
                    edges.append((u, u + 1, rng.randint(0, top), rng.randint(0, top)))
                if rng.random() < 0.3:
                    c = rng.randint(1, top)
                    edges.append((s, u, c, 0) if rng.random() < 0.5 else (u, t, c, 0))
        got, want = flow_and_oracle(rows * cols + 2, edges, s, t)
        assert got == want, f"trial {trial}"


@pytest.mark.parametrize(
    "n, edges, flow, side",
    [
        (2, [], 0, {0}),
        # the sink is out of reach
        (4, [(0, 1, 5, 0), (2, 3, 5, 0), (2, 1, 7, 0)], 0, {0, 1}),
        (2, [(0, 1, 2**80, 0)], 2**80, {0}),
        (3, [(0, 1, 3, 0), (0, 1, 4, 0), (1, 2, 2, 1), (1, 2, 6, 0), (0, 2, 1, 0)], 8, {0}),
        (3, [(0, 1, 0, 0), (1, 2, 5, 0), (0, 2, 0, 9)], 0, {0}),
        (4, [(0, 1, 2, 0), (1, 3, 0, 0), (1, 2, 2, 0), (2, 3, 1, 0)], 1, {0, 1, 2}),
        # a 2 x 4 grid (nodes 1..8) where three augmentations orphan 11 nodes
        # and 10 of them leave their tree: a stamp kept from an earlier
        # augmentation, or written on a walk before it reaches the root,
        # lets an orphan adopt a neighbour whose chain ends at another
        # orphan, and the source side comes out as {0, 1, 2, 3, 6, 7, 8}
        (10, [(8, 4, 1, 3), (8, 1, 2, 5), (1, 5, 0, 3), (1, 2, 4, 3), (2, 6, 4, 3), (2, 3, 4, 2),
              (3, 7, 4, 3), (3, 9, 1, 0), (4, 5, 0, 3), (4, 9, 2, 0), (5, 6, 3, 1), (6, 7, 4, 4),
              (0, 6, 2, 0), (0, 7, 1, 0)], 3, {0}),
    ],
    ids=["no-arcs", "unreachable-sink", "direct-arc", "parallel-arcs", "zero-capacity",
         "zero-capacity-path", "adoption-stamps"],
)
def test_max_flow_edge_cases(n, edges, flow, side):
    got, want = flow_and_oracle(n, edges, 0, n - 1)
    assert got == want == (flow, side)


def flow_certificate(n, tail, head, cap, rcap, s, t) -> int:
    """The maximum s-t flow of ``FlowNetwork(n, tail, head, cap, rcap)``,
    certified without trusting the solver: each arc pair's flow is
    recovered from the residual capacities and checked against the
    capacities both ways, it is conserved at every node but s and t, the
    net outflow of s is the returned value, and the capacity leaving
    ``source_side(s)`` equals it, so no cut is smaller."""
    net = FlowNetwork(n, tail, head, cap, rcap)
    value = net.max_flow(s, t)
    tail, head = np.asarray(tail).tolist(), np.asarray(head).tolist()
    cap = np.broadcast_to(np.asarray(cap, dtype=object), len(tail)).tolist()
    rcap = np.broadcast_to(np.asarray(rcap, dtype=object), len(tail)).tolist()
    outflow = [0] * n
    for k, (a, b, c, rc) in enumerate(zip(tail, head, cap, rcap)):
        f = c - net.cap[2 * k]  # the flow a -> b, negative when it runs b -> a
        assert f == net.cap[2 * k + 1] - rc, k
        assert -rc <= f <= c, k
        outflow[a] += f
        outflow[b] -= f
    assert [x for v, x in enumerate(outflow) if v not in (s, t)] == [0] * (n - 2)
    assert outflow[s] == value == -outflow[t]
    side = net.source_side(s)
    assert s in side and t not in side
    leaving = sum(c for a, b, c in zip(tail, head, cap) if a in side and b not in side)
    leaving += sum(rc for a, b, rc in zip(tail, head, rcap) if b in side and a not in side)
    assert leaving == value
    return value


@pytest.mark.parametrize("top", [6, 2**70], ids=["small", "huge"])
def test_max_flow_certificate_on_random_networks(top):
    rng = random.Random(top % 1019)
    for trial in range(40):
        n = rng.randrange(2, 40)
        m = rng.randrange(0, 4 * n)
        tail = [rng.randrange(n) for _ in range(m)]
        head = [rng.randrange(n) for _ in range(m)]
        cap = [rng.randint(0, top) for _ in range(m)]
        rcap = [rng.randint(0, top) if rng.random() < 0.5 else 0 for _ in range(m)]
        s, t = rng.sample(range(n), 2)
        value = flow_certificate(n, tail, head, cap, rcap, s, t)
        if n <= 10:  # the checks themselves, against enumeration
            arcs = [*zip(tail, head, cap), *zip(head, tail, rcap)]
            assert value == brute_min_cut(n, arcs, s, t), trial
    # a scalar reverse capacity applies to every pair
    flow_certificate(3, [0, 1], [1, 2], [4, 3], 2, 0, 2)


def test_max_flow_certificate_on_a_surface_cell_network(monkeypatch):
    """The network of the surface cell of ``diagonal_2d`` at (1,2) and
    side 64, far past what the brute-force cut can check."""
    model = fixture_model("diagonal_2d")
    frame = surface_tension.orthogonal_frame((1, 2))
    terms = surface_tension._cell_instance(model, core_phases(model) == 1, frame, 64)
    calls = []
    monkeypatch.setattr(ground_state, "FlowNetwork",
                        lambda *args: calls.append(args) or FlowNetwork(*args))
    minimize_cut(fold_instance(terms))
    ((n, *arrays),) = calls
    assert n > 1000
    assert flow_certificate(n, *arrays, n - 2, n - 1) > 0


# ---------------------------------------------------------------------------
# phase targets on cubes


def constant_on_box(target, lo, hi):
    """The state of a phase target on the closed box [lo, hi] when it is
    constant there, else None; a tuple of states for a MultiphaseField.

    The scalar rule over Fractions, one box at a time: the oracle of the
    cube-grid classification ``on_cubes``.
    """
    if isinstance(target, MultiphaseField):
        states = tuple(constant_on_box(p, lo, hi) for p in target.phases)
        return None if None in states else states
    if isinstance(target, Constant):
        return target.value
    if isinstance(target, Slab):
        dots = [sum(a * b for a, b in zip(c, target.normal)) for c in itertools.product(*zip(lo, hi))]
        if min(dots) > target.offset:
            return 1
        if max(dots) <= target.offset:
            return -1
        return None
    outside_all = True
    for b in target.boxes:
        if all(a >= c and bb <= d for a, bb, c, d in zip(lo, hi, b.lo, b.hi)):
            return 1
        if not any(bb <= c or d <= a for a, bb, c, d in zip(lo, hi, b.lo, b.hi)):
            outside_all = False
    return -1 if outside_all else None


def random_target(rng: random.Random, d: int, eps: Fraction, m: int, corners):
    """A slab, boxes or a constant whose offsets and faces often fall on
    the footprint corners eps * corners, so that footprints touch them."""
    kind = rng.choice(("slab", "boxes", "constant"))
    if kind == "constant":
        return Constant(rng.choice((1, -1)))
    if kind == "slab":
        normal = [F(rng.randrange(-3, 4), rng.randrange(1, 4)) for _ in range(d)]
        if not any(normal):
            normal[0] = F(1)
        if rng.random() < 0.2:
            # past int64: the object path
            normal = [c * 2**70 for c in normal]
        corner = [eps * (rng.choice(corners) + rng.choice((0, m))) for _ in range(d)]
        offset = sum(a * b for a, b in zip(normal, corner))
        if rng.random() < 0.3:
            offset += F(rng.randrange(-5, 6), rng.randrange(1, 7))
        return Slab(tuple(normal), offset)
    boxes = []
    # boxes in disjoint windows of axis 0, so their closures are disjoint
    cuts = sorted(rng.sample(range(min(corners) - m, max(corners) + 2 * m), 4))
    for lo0, hi0 in ((cuts[0], cuts[1]), (cuts[2], cuts[3]))[: rng.randrange(0, 3)]:
        lo = [eps * lo0]
        hi = [eps * hi0]
        for _ in range(d - 1):
            a, b = sorted(rng.sample(range(min(corners) - m, max(corners) + 2 * m), 2))
            lo.append(eps * a)
            hi.append(eps * b)
        if d > 1 and rng.random() < 0.3:
            lo[-1] -= F(1, 7)
        boxes.append(Box(tuple(lo), tuple(hi)))
    return Boxes(tuple(boxes))


@pytest.mark.parametrize(
    "d, shift",
    [(1, 0), (2, 0), (1, 2**61), (2, 2**61), (1, 2**62), (2, 2**62)],
    ids=["1", "2", "1-near-int64", "2-near-int64", "1-past-int64", "2-past-int64"],
)
def test_on_cubes_matches_scalar_rule(d, shift):
    """Corners shifted by 2**61 keep the boxes' faces in int64 near its
    end and put most slab sums past it; shifted by 2**62 the faces are
    tested in Python ints too.  Both paths are checked against the
    scalar rule."""
    rng = random.Random(29 + d)
    for _ in range(150):
        eps = F(1, rng.randrange(1, 20))
        m = rng.randrange(1, 6)
        corners = range(shift + rng.randrange(-12, 6), shift + rng.randrange(7, 18))
        firsts = [np.array(sorted(rng.sample(corners, rng.randrange(1, min(6, len(corners))))), dtype=np.int64)
                  for _ in range(d)]
        target = random_target(rng, d, eps, m, list(corners))
        got = target.on_cubes(eps, firsts, m)
        assert got.dtype == np.int8 and got.shape == tuple(len(f) for f in firsts)
        for index in itertools.product(*(range(len(f)) for f in firsts)):
            first = [int(f[i]) for f, i in zip(firsts, index)]
            want = constant_on_box(target, [eps * f for f in first], [eps * (f + m) for f in first])
            assert got[index] == (want or 0), (target, eps, m, first)


def test_on_cubes_on_an_empty_grid():
    eps = F(1, 4)
    empty = [np.zeros(0, dtype=np.int64), np.arange(3)]
    box = Box((F(0), F(0)), (F(1), F(1)))
    for target in (Slab((F(1), F(1)), F(1)), Boxes((box,)), Boxes(()), Constant(-1)):
        assert target.on_cubes(eps, empty, 2).shape == (0, 3)
    # a normal past int64 on the empty grid and on the one site 0: Python ints, not an overflow
    huge = Slab((F(2**63), F(1)), F(0))
    assert huge.on_cubes(eps, empty, 0).shape == (0, 3)
    assert huge.on_cubes(eps, [np.zeros(1, dtype=np.int64)] * 2, 0).tolist() == [[huge.value_at((0, 0))]]
    assert huge.on_lattice(eps, [range(0, 1)] * 2).tolist() == [[huge.value_at((0, 0))]]


# ---------------------------------------------------------------------------
# the bulk integral of a 2D target


def phi_table(values) -> PhiTable:
    """A density table holding the given value for each tuple of states."""
    rows = {states: [PhiRow(1, F(v), F(v), F(v), F(v))] for states, v in values.items()}
    return PhiTable(len(next(iter(values))), rows)


def clip(poly, normal, offset, sign):
    """Sutherland-Hodgman: the part of a convex polygon where
    sign * (<x, normal> - offset) >= 0."""
    out = []
    for p, q in zip(poly, poly[1:] + poly[:1]):
        sp, sq = (sign * (v[0] * normal[0] + v[1] * normal[1] - offset) for v in (p, q))
        if sp >= 0:
            out.append(p)
        if sp * sq < 0:
            t = sp / (sp - sq)
            out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
    return out


def area(poly):
    """Shoelace area; 0 for fewer than three vertices."""
    return abs(sum(p[0] * q[1] - q[0] * p[1] for p, q in zip(poly, poly[1:] + poly[:1]))) / 2


def polygon_bulk(omega, target, phi):
    """The bulk integral of a 2D target: the domain rectangle cut into
    convex cells along every slab line and box face, each cell weighted
    by phi at the states of its vertex average, an interior point.

    The oracle of the slicing integral in ``gamma_limit``.
    """
    (x0, y0), (x1, y1) = omega.lo, omega.hi
    lines = []
    for p in target.phases:
        if isinstance(p, Slab):
            lines.append((p.normal, p.offset))
        elif isinstance(p, Boxes):
            for b in p.boxes:
                lines += [((1, 0), b.lo[0]), ((1, 0), b.hi[0]), ((0, 1), b.lo[1]), ((0, 1), b.hi[1])]
    cells = [[(x0, y0), (x1, y0), (x1, y1), (x0, y1)]]
    for normal, offset in lines:
        pieces = [clip(cell, normal, offset, sign) for cell in cells for sign in (1, -1)]
        cells = [piece for piece in pieces if area(piece) > 0]
    total = F(0)
    for cell in cells:
        center = (sum(p[0] for p in cell) / len(cell), sum(p[1] for p in cell) / len(cell))
        total += phi.value(target.value_at(center)) * area(cell)
    return total


def test_polygon_oracle_on_a_halved_square():
    square = DomainSpec((F(0), F(0)), (F(1), F(1)))
    phi = phi_table({(1,): 3, (-1,): 5})
    for slab, want in [
        (Slab((F(1), F(1)), F(1)), 4),  # the diagonal halves the square
        (Slab((F(1), F(0)), F(5)), 5),  # a line that misses it
        (Slab((F(1), F(1)), F(2)), 5),  # a line through a corner only
    ]:
        assert polygon_bulk(square, MultiphaseField((slab,)), phi) == want


def test_slicing_integral_matches_polygon_oracle():
    rng = random.Random(41)
    for _ in range(500):
        eps = F(1, rng.randrange(1, 9))
        m = rng.randrange(1, 4)
        corners = list(range(rng.randrange(-6, 2), rng.randrange(3, 9)))
        lo = tuple(eps * rng.choice(corners) for _ in range(2))
        omega = DomainSpec(lo, tuple(a + eps * rng.randrange(1, 8) for a in lo))
        n = rng.randrange(1, 4)
        target = MultiphaseField(tuple(random_target(rng, 2, eps, m, corners) for _ in range(n)))
        states = itertools.product((1, -1), repeat=n)
        phi = phi_table({z: F(rng.randrange(-9, 10), rng.randrange(1, 5)) for z in states})
        assert gamma_limit._bulk_term(omega, target, phi) == polygon_bulk(omega, target, phi), (
            omega, target)


# ---------------------------------------------------------------------------
# phi of a chain by minimum cycle mean


def chain_cores(model, states) -> dict:
    """Residue -> spin for the core residues of a d = 1 model, each at its
    phase's state.  Each phase's strong components come from a lifted
    breadth-first search over residues; a component is a core when its
    cycle displacements (in periods) have gcd 1, so that it lifts to one
    infinite chain."""
    p = model.period
    cores = {}
    for r in range(p):
        phase = model.labels[(r,)]
        if not phase or r in cores:
            continue
        lift, gcd = {r: r}, 0
        queue = [r]
        for a in queue:
            for (o,) in model.strong_offsets((a,)):
                x = lift[a] + o
                if x % p in lift:
                    gcd = math.gcd(gcd, (x - lift[x % p]) // p)
                else:
                    lift[x % p] = x
                    queue.append(x % p)
        if gcd == 1:
            cores.update(dict.fromkeys(lift, states[phase - 1]))
    return cores


def karp_phi(model, states) -> Fraction:
    """The bulk density phi(states) of a d = 1 model, independent of the
    cell builders: the minimum cycle mean (Karp 1978) of a transfer graph,
    divided by the period.

    A node is the spins of the last ceil(R/P) periods, R the bond range,
    with the core sites at their states.  An arc appends one period and
    breaks no strong bond; it costs the period's forcing plus 4w for each
    broken ordered weak pair whose later end lies in the new period.
    """
    p = model.period
    cores = chain_cores(model, states)
    offsets = [o for r in range(p) for (o,) in model.strong_offsets((r,)) | model.weak_offsets((r,))]
    width = p * -(-max(map(abs, offsets), default=1) // p)
    strong, weak = [], []
    for a in range(width + p):
        r = (a % p,)
        for (o,) in model.strong_offsets(r) | model.weak_offsets(r):
            if width <= max(a, a + o) and a + o < width + p:  # then a + o >= 0, as |o| <= width
                if (o,) in model.strong_offsets(r):
                    strong.append((a, a + o))
                else:
                    weak.append((a, a + o, 4 * model.weights[(r, (o,))]))

    def assignments(positions):
        free = [a for a in positions if a % p not in cores]
        for bits in itertools.product((1, -1), repeat=len(free)):
            spins = {a: cores[a % p] for a in positions if a % p in cores}
            spins.update(zip(free, bits))
            yield tuple(spins[a] for a in positions)

    nodes = list(assignments(range(width)))
    index = {x: i for i, x in enumerate(nodes)}
    arcs = []
    for u, window in enumerate(nodes):
        for period in assignments(range(p)):
            s = window + period
            if any(s[a] != s[b] for a, b in strong):
                continue
            cost = sum(model.forcing.get(((a % p,), s[a]), F(0)) for a in range(width, width + p))
            cost += sum(w for a, b, w in weak if s[a] != s[b])
            arcs.append((u, index[s[p:]], cost))
    # walks of exactly k arcs, starting anywhere: Karp's formula with a
    # source joined to every node by arcs of cost 0
    n = len(nodes)
    walks = [[F(0)] * n]
    for _ in range(n):
        step = [None] * n
        for u, v, cost in arcs:
            if walks[-1][u] is not None and (step[v] is None or walks[-1][u] + cost < step[v]):
                step[v] = walks[-1][u] + cost
        walks.append(step)
    mean = min(
        max((walks[n][v] - walks[k][v]) / (n - k) for k in range(n) if walks[k][v] is not None)
        for v in range(n) if walks[n][v] is not None
    )
    return mean / p


@pytest.mark.parametrize("name, states, want", [
    ("chain_soft_even", (-1,), F(7, 5)),
    ("chain_soft_even_anti", (1,), F(-1)),
    ("two_chains", (1, -1), F(1)),
    ("islands_1d", (1,), F(7, 40)),
    ("chain_two_weak_scales", (-1,), F(13, 4)),
])
def test_karp_oracle_gives_the_known_limits(name, states, want):
    assert karp_phi(fixture_model(name), states) == want


def test_cube_density_stays_below_the_oracle_on_random_chains():
    """The doubling inequality on period-aligned sides: with nonnegative
    weak couplings the cube density phi_M lies at or below the limit."""
    rng = random.Random(2024)
    for trial in range(40):
        model = random_chain_model(rng, nonneg_weak=True)
        p = model.period
        for states in itertools.product((1, -1), repeat=model.num_phases):
            limit = karp_phi(model, states)
            for m in (2 * p, 4 * p, 8 * p, 16 * p):
                assert phi_m(model, m, states) <= limit, (trial, states, m)


def bfs_gauge(n: int, pair_i, pair_j, pair_w):
    """The min-cut gauge by breadth-first search from each least group
    not yet reached, which takes +1: one spin per group making every
    coupling nonnegative, or None when the couplings are frustrated."""
    adj: list = [[] for _ in range(n)]
    for i, j, w in zip(pair_i, pair_j, pair_w):
        adj[i].append((j, w > 0))
        adj[j].append((i, w > 0))
    sigma = [0] * n
    for root in range(n):
        if sigma[root]:
            continue
        sigma[root] = 1
        queue = collections.deque([root])
        while queue:
            u = queue.popleft()
            for v, same in adj[u]:
                want = sigma[u] if same else -sigma[u]
                if not sigma[v]:
                    sigma[v] = want
                    queue.append(v)
                elif sigma[v] != want:
                    return None
    return sigma


def random_signed_graph(rng: random.Random):
    """Free groups and sorted couplings ``(n, i, j, w)``: a forest, a sparse
    or a dense graph, with nearly all, most or about half of its weights
    positive."""
    n = rng.randint(1, 24)
    pairs = list(itertools.combinations(range(n), 2))
    shape = rng.choice(["forest", "sparse", "dense"])
    if shape == "forest":
        chosen = sorted({tuple(sorted((g, rng.randrange(g)))) for g in range(1, n) if rng.random() < 0.8})
    else:
        chosen = sorted(rng.sample(pairs, min(len(pairs), rng.randint(0, 2 * n if shape == "sparse" else 6 * n))))
    negative = rng.choice([0.05, 0.2, 0.5])
    weights = [rng.randint(1, 5) * (-1 if rng.random() < negative else 1) for _ in chosen]
    return n, [i for i, _ in chosen], [j for _, j in chosen], weights


def test_gauge_matches_the_breadth_first_search():
    """The union-find gauge of the min-cut gives the reference search's
    sigma, element for element, and its frustration verdict."""
    rng = random.Random(17)
    verdicts = collections.Counter()
    for trial in range(2500):
        n, i, j, w = random_signed_graph(rng)
        # weights as int64, or as Python ints (a fold past 2**62)
        folded = types.SimpleNamespace(
            free_count=n, pair_i=np.array(i, dtype=np.int64), pair_j=np.array(j, dtype=np.int64),
            pair_w=np.array(w, dtype=rng.choice([np.int64, object])),
        )
        want = bfs_gauge(n, i, j, w)
        verdicts[want is None] += 1
        if want is None:
            with pytest.raises(ground_state.FrustratedInstance):
                ground_state._gauge(folded)
        else:
            sigma = ground_state._gauge(folded)
            assert sigma.dtype == np.int8 and sigma.tolist() == want, trial
    assert verdicts[True] >= 400 and verdicts[False] >= 1000, verdicts


def refined(model, k: int):
    """``model`` given with period kP: residue r takes the label, bonds and
    forcing of r mod P."""
    doc = serialize_model(model)
    p = model.period
    fine = [",".join(map(str, r)) for r in itertools.product(range(k * p), repeat=model.dimension)]
    coarse = {r: ",".join(str(int(c) % p) for c in r.split(",")) for r in fine}
    doc["period"] = k * p
    doc["labels"] = {r: doc["labels"][coarse[r]] for r in fine}
    for kind in ("strong_bonds", "weak_bonds"):
        doc[kind] = [{**bond, "from": r} for r in fine for bond in doc[kind] if bond["from"] == coarse[r]]
    doc["forcing"] = {r: doc["forcing"][coarse[r]] for r in fine if coarse[r] in doc["forcing"]}
    return parse_model(doc)


NORMALS = {1: [(1,), (-1,)], 2: [(1, 0), (1, 2), (2, -1), (1, 1)]}


@pytest.mark.parametrize("k", [2, 3])
def test_period_refinement_leaves_the_cube_cells_unchanged(any_model, k):
    """The same system given with period kP validates with the same island
    radius, and gives the same phi bracket and cube surface tension at
    every state, phase and normal tried."""
    model, p = any_model, any_model.period
    fine = refined(model, k)
    assert fine.period == k * p and fine.report.passed
    assert fine.summary.island_radius == model.summary.island_radius
    for states in itertools.product((1, -1), repeat=model.num_phases):
        for m in (k * p, 2 * k * p):
            assert phi_bracket(fine, m, states) == phi_bracket(model, m, states), (states, m)
    for phase in range(1, model.num_phases + 1):
        for normal in NORMALS[model.dimension]:
            for side in (2 * k * p, 4 * k * p):
                assert cell_value(fine, phase, normal, side) == cell_value(model, phase, normal, side), (
                    phase, normal, side)


def rational_frame(direction):
    """Gram-Schmidt over the rationals against the standard basis, without
    normalisation: the first vector is ``direction``, each next one the
    first basis vector not in the span, minus its projections."""
    first = tuple(Fraction(c) for c in direction)
    d = len(first)
    frame = [first]
    for axis in range(d):
        if len(frame) == d:
            break
        v = [Fraction(1 if i == axis else 0) for i in range(d)]
        for w in frame:
            coef = sum(a * b for a, b in zip(v, w)) / sum(c * c for c in w)
            v = [a - coef * b for a, b in zip(v, w)]
        if any(v):
            frame.append(tuple(v))
    return frame


def test_integer_frame_matches_the_rational_process():
    """Each vector of the fraction-free frame is the primitive integer
    positive multiple of the rational Gram-Schmidt vector, on seeded
    nonzero directions of dimension 1 to 3 with entries -9..9, every
    other one scaled by a positive fraction."""
    rng = random.Random(2027)
    checked = 0
    while checked < 1200:
        direction = tuple(rng.randint(-9, 9) for _ in range(rng.randint(1, 3)))
        if not any(direction):
            continue
        if checked % 2:
            scale = Fraction(rng.randint(1, 7), rng.randint(1, 7))
            direction = tuple(scale * c for c in direction)
        want = [surface_tension._primitive(w) for w in rational_frame(direction)]
        assert surface_tension.orthogonal_frame(direction) == want, direction
        checked += 1
