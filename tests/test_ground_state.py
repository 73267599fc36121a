"""Exact ground-state solvers against brute enumeration."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from spinhom import ground_state, surface_tension
from spinhom.bulk_density import build_phi_instance
from spinhom.ground_state import (
    FrustratedInstance,
    GroundStateInstance,
    TooManyFreeGroups,
    energy,
    fold_instance,
    minimize,
)

from conftest import FIXTURE_NAMES, fixture_model
from test_helpers import named, solve


def random_instance(rng: random.Random, n: int, signed: bool, with_structure: bool = True):
    """Random pairwise instance on n single-index variables.

    Pair weights are dyadic Fractions, nonnegative unless ``signed``.
    With ``with_structure`` a few variables are fixed and one pair is
    merged into a rigid group, exercising the folding layer.
    """
    variables = tuple((i,) for i in range(n))
    pairs = []
    for u, v in itertools.combinations(range(n), 2):
        if rng.random() < 0.35:
            lo = -8 if signed else 0
            w = Fraction(rng.randrange(lo, 9), 8)
            if w:
                pairs.append(((u,), (v,), w))
    unary = {}
    for i in range(n):
        if rng.random() < 0.6:
            unary[(i,)] = (
                Fraction(rng.randrange(-8, 9), 4),
                Fraction(rng.randrange(-8, 9), 4),
            )
    fixed = {}
    groups = []
    if with_structure and n >= 4:
        if rng.random() < 0.5:
            fixed[(0,)] = rng.choice([1, -1])
        if rng.random() < 0.5:
            groups.append(frozenset({(1,), (2,)}))
    return GroundStateInstance(
        variables=variables,
        pair_terms=tuple(pairs),
        unary_terms=unary,
        fixed=fixed,
        groups=tuple(groups),
    )


def free_keys(instance: GroundStateInstance, folded) -> list:
    """The first site of every free group, named as the instance names it."""
    keys = sorted(instance.variables)
    return [keys[r] for r in folded.free_reps.tolist()]


def spread(folded, bits) -> np.ndarray:
    """Spins of all sites, in cell order, from one spin per free group."""
    spins = folded.spin.copy()
    free = folded.node >= 0
    spins[free] = np.array(bits, dtype=np.int8)[folded.node[free]]
    return spins


def group_assignments(instance: GroundStateInstance):
    """Every assignment constant on the folded groups, free groups
    enumerated lexicographically (+1 before -1)."""
    folded = fold_instance(instance.terms())
    for bits in itertools.product((1, -1), repeat=folded.free_count):
        yield named(instance, spread(folded, bits))


def brute_spins(instance: GroundStateInstance) -> tuple[Fraction, np.ndarray]:
    """Minimum energy and the spins, in cell order, of the first minimizer
    in lexicographic order over the free groups (+1 before -1)."""
    folded = fold_instance(instance.terms())
    best = best_spins = None
    for bits in itertools.product((1, -1), repeat=folded.free_count):
        spins = spread(folded, bits)
        e = energy(instance, named(instance, spins))
        if best is None or e < best:
            best, best_spins = e, spins
    return best, best_spins


def brute_argmin(instance: GroundStateInstance) -> tuple[Fraction, dict]:
    """Minimum energy and the first minimizer in lexicographic order (+1 before -1)."""
    best, spins = brute_spins(instance)
    return best, named(instance, spins)


def brute_minimum(instance: GroundStateInstance) -> Fraction:
    return brute_argmin(instance)[0]


def test_cut_matches_brute_force_on_nonnegative_couplings():
    rng = random.Random(101)
    for trial in range(120):
        inst = random_instance(rng, rng.randrange(2, 11), signed=False)
        ref = brute_minimum(inst)
        sol = solve(inst.terms(), "cut")
        assert sol.energy == ref, f"trial {trial}"
        assert sol.method == "mincut"
        assert energy(inst, named(inst, sol.spins)) == sol.energy


def test_enum_matches_brute_force_on_signed_couplings():
    rng = random.Random(202)
    for trial in range(120):
        inst = random_instance(rng, rng.randrange(2, 9), signed=True)
        ref = brute_minimum(inst)
        sol = solve(inst.terms(), "enum")
        assert sol.energy == ref, f"trial {trial}"
        assert energy(inst, named(inst, sol.spins)) == sol.energy


def scaled_bound(instance: GroundStateInstance) -> int:
    """Largest magnitude of the integer energies the enumeration evaluates."""
    folded = fold_instance(instance.terms())
    total = sum(4 * abs(w) for w in folded.pair_w.tolist())
    unary = zip(folded.h_plus.tolist(), folded.h_minus.tolist())
    return total + sum(max(abs(hp), abs(hm)) for hp, hm in unary)


def test_enum_exact_on_coefficients_beyond_int64():
    rng = random.Random(707)
    denoms = (2**61 - 1, 3**41)
    for trial in range(60):
        n = rng.randrange(2, 9)
        variables = tuple((i,) for i in range(n))
        pairs = []
        for u, v in itertools.combinations(range(n), 2):
            if rng.random() < 0.5:
                pairs.append(((u,), (v,), Fraction(rng.randrange(-3, 4), rng.choice(denoms))))
        unary = {(0,): (Fraction(1, denoms[0]), Fraction(1, denoms[1]))}
        for i in range(1, n):
            hp = Fraction(rng.randrange(-2, 3), denoms[i % 2])
            # equal unaries leave both spin values tied unless couplings decide
            hm = hp if rng.random() < 0.5 else Fraction(rng.randrange(-2, 3), denoms[i % 2])
            unary[(i,)] = (hp, hm)
        inst = GroundStateInstance(variables=variables, pair_terms=tuple(pairs),
                                   unary_terms=unary)
        assert scaled_bound(inst) >= 2**62, f"trial {trial}"
        ref, first = brute_argmin(inst)
        sol = solve(inst.terms(), "enum")
        assert sol.energy == ref, f"trial {trial}"
        assert named(inst, sol.spins) == first, f"trial {trial}"


def fraction_fold(instance: GroundStateInstance):
    """The fold in exact rationals (test-only oracle): sorted free
    representatives, free-free couplings keyed by representative pairs,
    [h_plus, h_minus] per free representative, and the constant."""
    rep_of = {v: v for v in instance.variables}
    for g in instance.groups:
        rep_of.update((v, min(g)) for v in g)
    fixed_reps = {rep_of[v]: s for v, s in instance.fixed.items()}
    free_reps = sorted(set(rep_of.values()) - set(fixed_reps))
    unary = {r: [Fraction(0), Fraction(0)] for r in free_reps}
    constant = Fraction(0)
    for v, (hp, hm) in instance.unary_terms.items():
        rep = rep_of[v]
        if rep in fixed_reps:
            constant += hp if fixed_reps[rep] > 0 else hm
        else:
            unary[rep][0] += hp
            unary[rep][1] += hm
    couplings: dict = {}
    for u, v, w in instance.pair_terms:
        ru, rv = rep_of[u], rep_of[v]
        if ru == rv:
            continue
        if ru in fixed_reps and rv in fixed_reps:
            if fixed_reps[ru] != fixed_reps[rv]:
                constant += 4 * w
        elif ru in fixed_reps or rv in fixed_reps:
            free, s = (rv, fixed_reps[ru]) if ru in fixed_reps else (ru, fixed_reps[rv])
            unary[free][1 if s > 0 else 0] += 4 * w
        else:
            key = (min(ru, rv), max(ru, rv))
            couplings[key] = couplings.get(key, 0) + w
    return free_reps, couplings, unary, constant


def random_folding_instance(rng: random.Random) -> GroundStateInstance:
    """Groups, fixed spins, repeated, cancelling and zero-weight pairs, and
    denominators whose lcm is far past int64."""
    n = rng.randrange(1, 10)
    denoms = (1, 2, 3, 10, 2**61 - 1, 3**41)
    weight = lambda: Fraction(rng.randrange(-5, 6), rng.choice(denoms))
    variables = tuple((i,) for i in range(n))
    pairs = []
    for _ in range(rng.randrange(0, 3 * n)):
        u, v = rng.sample(variables, 2) if n > 1 else (variables[0], variables[0])
        w = weight()
        pairs.append((u, v, w))
        if rng.random() < 0.2:
            pairs.append((v, u, -w))
        if rng.random() < 0.1:
            pairs.append((u, v, Fraction(0)))
    unary = {v: (weight(), weight()) for v in variables if rng.random() < 0.6}
    order = list(variables)
    rng.shuffle(order)
    groups = []
    while len(order) >= 2 and rng.random() < 0.5:
        size = rng.randrange(2, min(4, len(order)) + 1)
        groups.append(frozenset(order[:size]))
        order = order[size:]
    fixed = {}
    for g in groups:
        if rng.random() < 0.4:
            spin = rng.choice((1, -1))
            fixed.update((v, spin) for v in g if rng.random() < 0.7)
    for v in order:
        if rng.random() < 0.25:
            fixed[v] = rng.choice((1, -1))
    return GroundStateInstance(variables=variables, pair_terms=tuple(pairs),
                               unary_terms=unary, fixed=fixed, groups=tuple(groups))


def test_fold_matches_fraction_oracle():
    """Every folded int, divided by the scale, is the exact rational fold."""
    rng = random.Random(808)
    for trial in range(300):
        inst = random_folding_instance(rng)
        folded = fold_instance(inst.terms())
        reps, couplings, unary, constant = fraction_fold(inst)
        scale = folded.scale
        assert free_keys(inst, folded) == reps, f"trial {trial}"
        for array in (folded.pair_w, folded.h_plus, folded.h_minus):
            assert array.dtype in (np.int64, object)
            assert all(type(x) is int for x in array.tolist())
        assert folded.pair_i.dtype == folded.pair_j.dtype == np.int64
        assert type(folded.constant) is int and type(scale) is int
        ij = list(zip(folded.pair_i.tolist(), folded.pair_j.tolist()))
        assert ij == sorted(ij)
        assert all(i < j for i, j in ij)
        got = {(reps[i], reps[j]): Fraction(w, scale)
               for (i, j), w in zip(ij, folded.pair_w.tolist())}
        assert got == {key: w for key, w in couplings.items() if w}, f"trial {trial}"
        forcing = zip(folded.h_plus.tolist(), folded.h_minus.tolist())
        assert [[Fraction(h, scale) for h in pair] for pair in forcing] == [
            unary[r] for r in reps
        ], f"trial {trial}"
        assert Fraction(folded.constant, scale) == constant, f"trial {trial}"


def real_cells():
    """Every fixture's ``phi`` cube at M = 16 in every state, and the
    ``diagonal_2d`` surface cell at normal (1,2) and T = 32."""
    for name in FIXTURE_NAMES:
        model = fixture_model(name)
        for states in itertools.product((1, -1), repeat=model.num_phases):
            yield f"{name} phi z={states}", build_phi_instance(model, 16, states)
    yield "diagonal_2d cell (1,2) T=32", surface_tension._cell_terms(
        fixture_model("diagonal_2d"), 1, (1, 2), 32)


def test_fold_agrees_with_evaluate_on_real_cells():
    """On real cells the folded energy of random spins of the free groups,
    ``constant + sum of forcing + sum of 4 w`` over the broken couplings,
    is the energy of the expanded spins.  These cells mix held-held pairs,
    pairs with a free end on either side and free-free pairs at sizes the
    random instances above never reach."""
    rng = np.random.default_rng(30)
    kinds = set()
    for label, terms in real_cells():
        folded = fold_instance(terms)
        free = folded.node >= 0
        free_u, free_v = free[terms.u], free[terms.v]
        for kind, mask in (("held-held", ~(free_u | free_v)), ("free u", free_u & ~free_v),
                           ("free v", free_v & ~free_u), ("free-free", free_u & free_v)):
            if mask.any():
                kinds.add(kind)
        for _ in range(8):
            x = rng.choice(np.array([1, -1], dtype=np.int8), size=folded.free_count)
            spins = folded.spin.copy()
            spins[free] = x[folded.node[free]]
            broken = x[folded.pair_i] != x[folded.pair_j]
            total = (folded.constant
                     + int(np.where(x > 0, folded.h_plus, folded.h_minus).sum())
                     + 4 * int(folded.pair_w[broken].sum()))
            assert Fraction(total, folded.scale) == terms.evaluate(spins), label
    assert kinds == {"held-held", "free u", "free v", "free-free"}


def frustrated_grid(side: int, seed: int = 8) -> GroundStateInstance:
    """Signed couplings on a triangulated grid, non-dyadic weights and
    unaries, one fixed corner and one group."""
    rng = random.Random(seed)
    variables = tuple((i, j) for i in range(side) for j in range(side))
    pairs = []
    for i, j in variables:
        for a, b in ((i + 1, j), (i, j + 1), (i + 1, j + 1)):
            if a < side and b < side:
                w = Fraction(rng.randrange(-9, 10), rng.choice((3, 7, 10)))
                pairs.append(((i, j), (a, b), w))
    unary = {v: (Fraction(rng.randrange(-5, 6), 9), Fraction(rng.randrange(-5, 6), 11))
             for v in variables if rng.random() < 0.5}
    return GroundStateInstance(variables=variables, pair_terms=tuple(pairs), unary_terms=unary,
                               fixed={(0, 0): -1}, groups=(frozenset({(2, 2), (2, 3)}),))


def transposed(instance: GroundStateInstance) -> GroundStateInstance:
    """The same instance with sites (i, j) renamed (j, i): another fold order."""
    t = lambda v: (v[1], v[0])
    return GroundStateInstance(
        variables=tuple(map(t, instance.variables)),
        pair_terms=tuple((t(u), t(v), w) for u, v, w in instance.pair_terms),
        unary_terms={t(v): h for v, h in instance.unary_terms.items()},
        fixed={t(v): s for v, s in instance.fixed.items()},
        groups=tuple(frozenset(map(t, g)) for g in instance.groups),
    )


def test_auto_eliminates_frustrated_grid():
    """100 sites, past the enumeration cap, frustrated, and of width 11 in
    row order: ``minimize`` eliminates it.  The minimum lies below the best of
    three seeded simulated-annealing runs on this grid, -26043/77, and
    does not depend on the fold order."""
    inst = frustrated_grid(10)
    with pytest.raises(FrustratedInstance):
        solve(inst.terms(), "cut")
    sol = minimize(inst.terms())
    assert sol.method == "enumeration"
    assert sol.energy == Fraction(-172031, 495) <= Fraction(-26043, 77)
    assert energy(inst, named(inst, sol.spins)) == sol.energy
    assert minimize(transposed(inst).terms()).energy == sol.energy


def test_cut_on_signed_couplings_matches_or_reports_frustration():
    rng = random.Random(303)
    agreed = frustrated = 0
    for _ in range(120):
        inst = random_instance(rng, rng.randrange(2, 9), signed=True)
        ref = brute_minimum(inst)
        try:
            sol = solve(inst.terms(), "cut")
        except FrustratedInstance:
            frustrated += 1
            continue
        agreed += 1
        assert sol.energy == ref
    assert agreed > 0 and frustrated > 0


def test_gauge_flip_preserves_minimum():
    """Flipping any sign pattern through couplings and unaries is a relabeling."""
    rng = random.Random(404)
    for _ in range(60):
        n = rng.randrange(2, 9)
        inst = random_instance(rng, n, signed=False, with_structure=False)
        flips = {v: rng.choice([1, -1]) for v in inst.variables}
        # relabeling t = flip * s keeps the spectrum: a pair broken under s is
        # unbroken under t when the endpoint flips disagree, so the weight
        # changes sign and the traded cost 4w moves into a constant
        gauged_pairs = []
        extra = Fraction(0)
        for u, v, w in inst.pair_terms:
            if flips[u] * flips[v] > 0:
                gauged_pairs.append((u, v, w))
            else:
                gauged_pairs.append((u, v, -w))
                extra += 4 * w
        gauged_unary = {}
        for v, (hp, hm) in inst.unary_terms.items():
            gauged_unary[v] = (hp, hm) if flips[v] > 0 else (hm, hp)
        gauged = GroundStateInstance(
            variables=inst.variables,
            pair_terms=tuple(gauged_pairs),
            unary_terms=gauged_unary,
        )
        for method in ("enum", "cut"):
            # for the cut, the gauged instance is exactly what the solver undoes
            assert (solve(gauged.terms(), method).energy + extra
                    == solve(inst.terms(), method).energy)


def test_solution_on_all_fixed_instance():
    inst = GroundStateInstance(
        variables=((0,), (1,)),
        pair_terms=(((0,), (1,), Fraction(1, 2)),),
        fixed={(0,): 1, (1,): -1},
    )
    for method in ("enum", "cut"):
        sol = solve(inst.terms(), method)
        assert sol.energy == 2
        assert named(inst, sol.spins) == {(0,): 1, (1,): -1}


def test_groups_force_rigid_moves():
    # two grouped variables tied by a negative pair to a fixed one
    inst = GroundStateInstance(
        variables=((0,), (1,), (2,)),
        pair_terms=(((0,), (1,), Fraction(1)), ((1,), (2,), Fraction(1))),
        fixed={(0,): 1},
        groups=(frozenset({(1,), (2,)}),),
    )
    sol = solve(inst.terms(), "cut")
    assert sol.energy == 0
    spins = named(inst, sol.spins)
    assert spins[(1,)] == spins[(2,)] == 1
    folded = fold_instance(inst.terms())
    assert folded.free_count == 1


def test_fixed_member_pins_whole_group():
    inst = GroundStateInstance(
        variables=((0,), (1,)),
        unary_terms={(1,): (Fraction(5), Fraction(0))},
        fixed={(0,): 1},
        groups=(frozenset({(0,), (1,)}),),
    )
    sol = solve(inst.terms(), "enum")
    assert named(inst, sol.spins)[(1,)] == 1
    assert sol.energy == 5


def assert_enum_is_lexicographic_argmin(instance: GroundStateInstance, label=""):
    ref, spins = brute_spins(instance)
    sol = solve(instance.terms(), "enum")
    assert sol.energy == ref, label
    assert sol.spins.tolist() == spins.tolist(), label
    assert sol.method == "enumeration"


def tied_instance(rng: random.Random, n: int, density: float) -> GroundStateInstance:
    """Signed couplings and forcing from {-1, 0, 1} / 2 on n variables, a
    fixed variable and a group when n allows: many minimizers tie."""
    small = lambda: Fraction(rng.randrange(-1, 2), 2)
    variables = tuple((i,) for i in range(n))
    pairs = tuple((u, v, small()) for u, v in itertools.combinations(variables, 2)
                  if rng.random() < density)
    unary = {}
    for v in variables:
        if rng.random() < 0.5:
            h = small()
            unary[v] = (h, h) if rng.random() < 0.5 else (h, small())
    fixed = {(0,): rng.choice((1, -1))} if n >= 3 and rng.random() < 0.3 else {}
    groups = (frozenset({(1,), (n - 1,)}),) if n >= 3 and rng.random() < 0.3 else ()
    return GroundStateInstance(variables=variables, pair_terms=pairs, unary_terms=unary,
                               fixed=fixed, groups=groups)


def test_enum_is_lexicographic_argmin_with_ties():
    rng = random.Random(1212)
    for trial in range(200):
        n = rng.randrange(0, 10) if trial % 50 else 12
        inst = tied_instance(rng, n, density=rng.choice((0.15, 0.4, 0.9)))
        assert_enum_is_lexicographic_argmin(inst, f"trial {trial}")


@pytest.mark.parametrize("denominators", [(5, 7), (2**61 - 1, 3**41)])
def test_enum_on_complete_graph(denominators):
    """Every context is every earlier group: the widest tables there are.
    Denominators of 2**61 - 1 and 3**41 put the scaled terms past 2**62."""
    rng = random.Random(1313)
    weight = lambda: Fraction(rng.randrange(-3, 4), rng.choice(denominators))
    variables = tuple((i,) for i in range(11))
    pairs = tuple((u, v, weight()) for u, v in itertools.combinations(variables, 2))
    unary = {v: (weight(), Fraction(0)) for v in variables}
    inst = GroundStateInstance(variables=variables, pair_terms=pairs, unary_terms=unary)
    assert (scaled_bound(inst) >= 2**62) == (denominators[0] > 2**60)
    assert_enum_is_lexicographic_argmin(inst)


def gauged_instance(rng: random.Random, n: int, denominators) -> GroundStateInstance:
    """Unfrustrated signed couplings on the first variables: nonnegative
    weights times the signs of a hidden gauge.  The other variables are
    coupled to nothing free (some only to a fixed variable), and about
    half of them carry equal forcing at both spins."""
    value = lambda lo, hi: Fraction(rng.randrange(lo, hi), rng.choice(denominators))
    variables = tuple((i,) for i in range(n))
    hidden = [rng.choice((1, -1)) for _ in range(n)]
    coupled = rng.randrange(0, n + 1)
    pairs = [((u,), (v,), value(1, 4) * hidden[u] * hidden[v])
             for u, v in itertools.combinations(range(coupled), 2) if rng.random() < 0.5]
    fixed = {}
    if coupled < n and rng.random() < 0.5:
        fixed[(n - 1,)] = rng.choice((1, -1))
        pairs += [((u,), (n - 1,), value(-3, 4)) for u in range(coupled, n - 1)
                  if rng.random() < 0.3]
    unary = {}
    for v in variables:
        h = value(-3, 4)
        unary[v] = (h, h) if v[0] >= coupled and rng.random() < 0.5 else (h, value(-3, 4))
    return GroundStateInstance(variables=variables, pair_terms=tuple(pairs),
                               unary_terms=unary, fixed=fixed)


@pytest.mark.parametrize("denominators", [(2, 4), (2**61 - 1, 3**41)], ids=["int64", "object"])
def test_cut_takes_the_spins_every_minimizer_shares(denominators):
    """With the gauge sigma, the groups the min-cut puts at +sigma are
    exactly those at +sigma in every minimizer (the smallest minimum-cut
    source set), uncoupled groups and forcing ties included: a tie goes
    to -sigma."""
    rng = random.Random(1515)
    kinds = set()
    for trial in range(150):
        inst = gauged_instance(rng, rng.randrange(1, 10), denominators)
        folded = fold_instance(inst.terms())
        sigma = ground_state._gauge(folded).tolist()
        best, shared = None, None
        for bits in itertools.product((1, -1), repeat=folded.free_count):
            e = energy(inst, named(inst, spread(folded, bits)))
            plus = {g for g, (b, s) in enumerate(zip(bits, sigma)) if b == s}
            if best is None or e < best:
                best, shared = e, plus
            elif e == best:
                shared &= plus
        sol = solve(inst.terms(), "cut")
        cut = {g for g, s in enumerate(sigma) if sol.spins[folded.free_reps[g]] == s}
        assert sol.energy == best, f"trial {trial}"
        assert cut == shared, f"trial {trial}"
        kinds.add("object" if folded.h_plus.dtype == object else "int64")
        if -1 in sigma:
            kinds.add("gauge")
        if folded.h_plus.size and (folded.h_plus == folded.h_minus).any():
            kinds.add("tie")
    assert {"gauge", "tie"} <= kinds
    assert ("object" in kinds) == (denominators[0] > 2**60)


def test_cut_on_bulk_cube_cell_needs_no_flow_network(monkeypatch):
    """The soft sites of soft_inclusions_2d touch only the held matrix, so
    every free group is uncoupled: the network keeps s and t alone."""
    networks = []

    class Recording(ground_state.FlowNetwork):
        def __init__(self, *args):
            super().__init__(*args)
            networks.append(self)

    monkeypatch.setattr(ground_state, "FlowNetwork", Recording)
    m = 16
    terms = build_phi_instance(fixture_model("soft_inclusions_2d"), m, (-1,))
    sol = solve(terms, "cut")
    assert fold_instance(terms).free_count == 64
    assert [(net.n, len(net.to) // 2) for net in networks] == [(2, 0)]
    assert sol.energy / m**2 == Fraction(33, 10) - Fraction(3, 10 * m)


def grid_instance(rng: random.Random, rows: int, cols: int) -> GroundStateInstance:
    """Signed bonds to the right, below and diagonally below on a grid
    numbered row by row, as a 2D cube cell is."""
    variables = tuple((i, j) for i in range(rows) for j in range(cols))
    pairs = []
    for i, j in variables:
        for a, b in ((i, j + 1), (i + 1, j), (i + 1, j - 1)):
            if a < rows and 0 <= b < cols:
                pairs.append(((i, j), (a, b), Fraction(rng.randrange(-3, 4), 4)))
    unary = {v: (Fraction(rng.randrange(-2, 3), 3), Fraction(rng.randrange(-2, 3), 3))
             for v in variables if rng.random() < 0.5}
    return GroundStateInstance(variables=variables, pair_terms=tuple(pairs), unary_terms=unary)


def test_enum_on_grid_order():
    rng = random.Random(1414)
    for trial in range(3):
        assert_enum_is_lexicographic_argmin(grid_instance(rng, 3, 4), f"trial {trial}")


def test_enum_without_free_groups():
    sol = solve(GroundStateInstance(variables=()).terms(), "enum")
    assert sol.energy == 0 and sol.spins.size == 0
    inst = GroundStateInstance(variables=((0,),), unary_terms={(0,): (Fraction(1), Fraction(0))},
                               fixed={(0,): 1})
    assert solve(inst.terms(), "enum").energy == 1


def chain_instance(rng: random.Random, n: int) -> GroundStateInstance:
    """A chain with nonnegative bonds to the next two variables."""
    variables = tuple((i,) for i in range(n))
    pairs = tuple(((i,), (j,), Fraction(rng.randrange(0, 10), 8))
                  for i in range(n) for j in (i + 1, i + 2) if j < n)
    unary = {v: (Fraction(rng.randrange(-9, 10), 5), Fraction(rng.randrange(-9, 10), 5))
             for v in variables}
    return GroundStateInstance(variables=variables, pair_terms=pairs, unary_terms=unary)


def frustrated_chain(rng: random.Random, n: int) -> GroundStateInstance:
    """A chain with negative bonds to the next two variables: every
    triangle of three neighbours is frustrated."""
    variables = tuple((i,) for i in range(n))
    pairs = tuple(((i,), (j,), Fraction(-rng.randrange(1, 10), 8))
                  for i in range(n) for j in (i + 1, i + 2) if j < n)
    unary = {v: (Fraction(rng.randrange(-9, 10), 5), Fraction(0)) for v in variables}
    return GroundStateInstance(variables=variables, pair_terms=pairs, unary_terms=unary)


def test_enum_solves_long_narrow_chain():
    """40 free groups, far past any exhaustive walk, but each context
    holds two groups; the min-cut checks the value."""
    rng = random.Random(1515)
    for trial in range(5):
        inst = chain_instance(rng, 40)
        sol = solve(inst.terms(), "enum")
        assert sol.method == "enumeration"
        assert sol.energy == solve(inst.terms(), "cut").energy, f"trial {trial}"


def test_enum_refuses_wide_contexts():
    """A complete graph of 40 groups needs tables of 2**40 entries."""
    variables = tuple((i,) for i in range(40))
    pairs = tuple((u, v, Fraction(1)) for u, v in itertools.combinations(variables, 2))
    inst = GroundStateInstance(variables=variables, pair_terms=pairs)
    with pytest.raises(TooManyFreeGroups, match=r"^40 free groups need elimination tables of 2\*\*40 entries"):
        solve(inst.terms(), "enum")
    assert minimize(inst.terms()).method == "mincut"


def test_enum_cap_enforced():
    """``minimize`` enumerates up to DEFAULT_ENUM_CAP free groups and runs
    the min-cut past it; ``minimize_enum`` takes a narrow cell of any size."""
    rng = random.Random(505)
    for n, method in ((ground_state.DEFAULT_ENUM_CAP, "enumeration"),
                      (ground_state.DEFAULT_ENUM_CAP + 1, "mincut")):
        inst = chain_instance(rng, n)
        sol = minimize(inst.terms())
        assert sol.method == method
        assert sol.energy == solve(inst.terms(), "enum").energy


def complete_graph(rng: random.Random, n: int, frustrated: bool) -> GroundStateInstance:
    """Every pair of n variables coupled: positive weights, or signs drawn
    at random (frustrated in all but a vanishing fraction of draws)."""
    variables = tuple((i,) for i in range(n))
    sign = lambda: rng.choice((1, -1)) if frustrated else 1
    pairs = tuple((u, v, Fraction(rng.randrange(1, 5), 4) * sign())
                  for u, v in itertools.combinations(variables, 2))
    unary = {v: (Fraction(rng.randrange(-4, 5), 4), Fraction(0)) for v in variables}
    return GroundStateInstance(variables=variables, pair_terms=pairs, unary_terms=unary)


def test_auto_solves_whatever_a_forced_solver_solves():
    """Past 24 free groups, ``minimize`` returns the energy of elimination
    or of the min-cut whenever either returns, and refuses with
    :class:`TooManyFreeGroups` only when both refuse."""
    rng = random.Random(1717)
    outcomes = set()
    for trial in range(24):
        if trial % 3 == 0:
            inst = frustrated_chain(rng, rng.randrange(25, 61))
        else:
            inst = complete_graph(rng, rng.randrange(25, 41), frustrated=trial % 3 == 2)
        energies = {}
        for name, solve in (("enum", ground_state.minimize_enum),
                            ("cut", ground_state.minimize_cut)):
            try:
                energies[name] = solve(fold_instance(inst.terms())).energy
            except (FrustratedInstance, TooManyFreeGroups):
                pass
        outcomes.add(tuple(sorted(energies)))
        if energies:
            assert {minimize(inst.terms()).energy} == set(energies.values()), f"trial {trial}"
        else:
            with pytest.raises(TooManyFreeGroups):
                minimize(inst.terms())
    assert outcomes == {("enum",), ("cut",), ()}


FOLD_CASES = {
    None: lambda: random_instance(random.Random(909), 6, signed=False),
    "chain40": lambda: chain_instance(random.Random(910), 40),
    "frustrated40": lambda: frustrated_chain(random.Random(911), 40),
}


@pytest.mark.parametrize(
    "case, solver",
    [(None, "enumeration"), ("chain40", "mincut"), ("frustrated40", "enumeration")],
    ids=["auto-None", "auto-chain40", "auto-frustrated40"],
)
def test_minimize_folds_once(monkeypatch, case, solver):
    folds = []
    real = ground_state.fold_instance

    def counting(instance):
        folds.append(instance)
        return real(instance)

    monkeypatch.setattr(ground_state, "fold_instance", counting)
    terms = FOLD_CASES[case]().terms()
    assert minimize(terms).method == solver
    assert folds == [terms]


def test_auto_raises_on_large_frustrated_without_anneal():
    """A frustrated cell whose contexts pass 24 groups has no exact solver:
    ``minimize`` refuses it with one message instead of guessing."""
    inst = frustrated_grid(30)
    with pytest.raises(FrustratedInstance):
        solve(inst.terms(), "cut")
    with pytest.raises(TooManyFreeGroups, match=r"^couplings are frustrated and 898 free groups "
                                                r"need elimination tables of 2\*\*"):
        minimize(inst.terms())


def test_instance_validation():
    with pytest.raises(ValueError, match="duplicate"):
        GroundStateInstance(variables=((0,), (0,)))
    with pytest.raises(ValueError, match="unknown variable"):
        GroundStateInstance(variables=((0,),), pair_terms=(((0,), (1,), Fraction(1)),))
    with pytest.raises(ValueError, match="fixed spin"):
        GroundStateInstance(variables=((0,),), fixed={(0,): 0})
    with pytest.raises(ValueError, match="two groups"):
        GroundStateInstance(
            variables=((0,), (1,), (2,)),
            groups=(frozenset({(0,), (1,)}), frozenset({(1,), (2,)})),
        )


def test_fold_names_the_site_of_a_clashing_group():
    """Sites (1,) and (2,) share a group but are fixed apart; the error
    names the group's first site by its number in cell order."""
    inst = GroundStateInstance(variables=((2,), (0,), (1,)), fixed={(1,): 1, (2,): -1},
                               groups=(frozenset({(1,), (2,)}),))
    with pytest.raises(ValueError, match="^group of site 1 carries conflicting fixed values$"):
        fold_instance(inst.terms())


def test_energy_validates_assignment():
    inst = GroundStateInstance(variables=((0,), (1,)), fixed={(0,): 1})
    with pytest.raises(ValueError, match="missing variable"):
        energy(inst, {(0,): 1})
    with pytest.raises(ValueError, match="violates fixed"):
        energy(inst, {(0,): -1, (1,): 1})
