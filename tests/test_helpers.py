"""Support layers: rational plane geometry, integer lattices, max-flow,
and the scalar per-cube rule that classifies phase targets on cubes."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from spinhom.gamma_limit import Box, Boxes, Constant, MultiphaseField, Slab
from spinhom.geometry import (
    box_polygon,
    clip_polygon,
    distance,
    line_segment_in_box,
    polygon_area,
    polygon_centroid,
)
from spinhom.intlattice import contains, hermite_basis, is_full_lattice
from spinhom.maxflow import FlowNetwork

F = Fraction
UNIT_BOX = box_polygon((F(0), F(0)), (F(1), F(1)))


def test_polygon_area_and_centroid():
    assert polygon_area(UNIT_BOX) == 1
    assert polygon_area(list(reversed(UNIT_BOX))) == 1
    tri = [(F(0), F(0)), (F(4), F(0)), (F(0), F(3))]
    assert polygon_area(tri) == 6
    cx, cy = polygon_centroid(UNIT_BOX)
    assert (cx, cy) == (F(1, 2), F(1, 2))


def test_clip_polygon_halves_the_square():
    # diagonal cut x + y >= 1 keeps the upper-right triangle
    kept = clip_polygon(UNIT_BOX, (F(1), F(1)), F(1), 1)
    assert polygon_area(kept) == F(1, 2)
    other = clip_polygon(UNIT_BOX, (F(1), F(1)), F(1), -1)
    assert polygon_area(other) == F(1, 2)


def test_clip_polygon_line_misses():
    kept = clip_polygon(UNIT_BOX, (F(1), F(0)), F(5), 1)
    assert kept == []
    kept = clip_polygon(UNIT_BOX, (F(1), F(0)), F(5), -1)
    assert polygon_area(kept) == 1


def test_clip_areas_partition_randomly():
    rng = random.Random(17)
    for _ in range(50):
        normal = (F(rng.randrange(-4, 5)), F(rng.randrange(-4, 5)))
        if normal == (0, 0):
            continue
        offset = F(rng.randrange(-8, 9), 4)
        plus = clip_polygon(UNIT_BOX, normal, offset, 1)
        minus = clip_polygon(UNIT_BOX, normal, offset, -1)
        a = polygon_area(plus) if len(plus) >= 3 else F(0)
        b = polygon_area(minus) if len(minus) >= 3 else F(0)
        assert a + b == 1


def test_line_segment_in_box():
    seg = line_segment_in_box((F(1), F(0)), F(1, 2), (F(0), F(0)), (F(1), F(1)))
    assert seg is not None
    assert distance(*seg) == 1
    diag = line_segment_in_box((F(1), F(1)), F(1), (F(0), F(0)), (F(1), F(1)))
    assert diag is not None
    assert distance(*diag) == pytest.approx(2**0.5)
    # line through a corner only
    corner = line_segment_in_box((F(1), F(1)), F(2), (F(0), F(0)), (F(1), F(1)))
    assert corner is None
    assert line_segment_in_box((F(1), F(0)), F(7), (F(0), F(0)), (F(1), F(1))) is None
    with pytest.raises(ValueError):
        line_segment_in_box((F(0), F(0)), F(0), (F(0), F(0)), (F(1), F(1)))


def test_distance_exact_on_axes():
    assert distance((F(0), F(0)), (F(0), F(7, 3))) == F(7, 3)
    assert isinstance(distance((F(0), F(0)), (F(1), F(1))), float)


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
    ],
    ids=["no-arcs", "unreachable-sink", "direct-arc", "parallel-arcs", "zero-capacity",
         "zero-capacity-path"],
)
def test_max_flow_edge_cases(n, edges, flow, side):
    got, want = flow_and_oracle(n, edges, 0, n - 1)
    assert got == want == (flow, side)


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


@pytest.mark.parametrize("d", [1, 2])
def test_on_cubes_matches_scalar_rule(d):
    rng = random.Random(29 + d)
    for _ in range(150):
        eps = F(1, rng.randrange(1, 20))
        m = rng.randrange(1, 6)
        corners = range(rng.randrange(-12, 6), rng.randrange(7, 18))
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
