"""Exact and approximate ground-state solvers against brute enumeration."""

import itertools
import random
from fractions import Fraction

import pytest

from spinhom import ground_state
from spinhom.ground_state import (
    FrustratedInstance,
    GroundStateInstance,
    TooManyFreeGroups,
    energy,
    fold_instance,
    minimize,
)


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


def brute_argmin(instance: GroundStateInstance) -> tuple[Fraction, dict]:
    """Minimum energy and the first minimizer in lexicographic order (+1 before -1)."""
    folded = fold_instance(instance)
    reps = folded.free_reps
    best = best_assignment = None
    for bits in itertools.product((1, -1), repeat=len(reps)):
        assignment = dict(instance.fixed)
        rep_values = dict(zip(reps, bits))
        rep_values.update(folded.fixed_reps)
        for v in instance.variables:
            assignment[v] = rep_values[folded.rep_of[v]]
        e = energy(instance, assignment)
        if best is None or e < best:
            best, best_assignment = e, assignment
    return best, best_assignment


def brute_minimum(instance: GroundStateInstance) -> Fraction:
    return brute_argmin(instance)[0]


def test_cut_matches_brute_force_on_nonnegative_couplings():
    rng = random.Random(101)
    for trial in range(120):
        inst = random_instance(rng, rng.randrange(2, 11), signed=False)
        ref = brute_minimum(inst)
        sol = minimize(inst, method="cut")
        assert sol.energy == ref, f"trial {trial}"
        assert sol.exact and sol.method == "mincut"
        assert energy(inst, sol.assignment) == sol.energy


def test_enum_matches_brute_force_on_signed_couplings():
    rng = random.Random(202)
    for trial in range(120):
        inst = random_instance(rng, rng.randrange(2, 9), signed=True)
        ref = brute_minimum(inst)
        sol = minimize(inst, method="enum")
        assert sol.energy == ref, f"trial {trial}"
        assert energy(inst, sol.assignment) == sol.energy


def scaled_bound(instance: GroundStateInstance) -> int:
    """Largest magnitude of the integer energies the enumeration evaluates."""
    folded = fold_instance(instance)
    total = sum(4 * abs(w) for _, _, w in folded.pairs)
    return total + sum(max(abs(hp), abs(hm)) for hp, hm in folded.unary)


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
        sol = minimize(inst, method="enum")
        assert sol.energy == ref, f"trial {trial}"
        assert sol.assignment == first, f"trial {trial}"


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
        folded = fold_instance(inst)
        reps, couplings, unary, constant = fraction_fold(inst)
        scale = folded.scale
        assert folded.free_reps == reps, f"trial {trial}"
        assert all(type(w) is int for _, _, w in folded.pairs)
        assert all(type(h) is int for pair in folded.unary for h in pair)
        assert type(folded.constant) is int and type(scale) is int
        assert folded.pairs == sorted(folded.pairs)
        assert all(i < j for i, j, _ in folded.pairs)
        got = {(reps[i], reps[j]): Fraction(w, scale) for i, j, w in folded.pairs}
        assert got == {key: w for key, w in couplings.items() if w}, f"trial {trial}"
        assert [[Fraction(h, scale) for h in pair] for pair in folded.unary] == [
            unary[r] for r in reps
        ], f"trial {trial}"
        assert Fraction(folded.constant, scale) == constant, f"trial {trial}"


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


# annealed states of frustrated_grid(10), row by row, for seeds 0-2
ANNEALED = {
    0: ("---++--+--++--+++--+-+--++---+--++--+++++--+++++--+++---+++++++++-+--------+----+--+-+++-+------++-+",
        Fraction(-1147978, 3465)),
    1: ("---++--+--++--+-+--+-+--+-+--+--++-++++++--+++++--+++---+++++++++-+--------+----+---++++-+------++-+",
        Fraction(-1168382, 3465)),
    2: ("---++--+--++--+++--+-+--++-++---++------+--++++-+++-+---+++-+---+-+-----++++----+--+--++-+---+++---+",
        Fraction(-26043, 77)),
}


def test_anneal_trajectory_is_pinned():
    """The float coefficients and the visiting order fix the trajectory,
    so a change to either moves these seed-dependent local minima."""
    inst = frustrated_grid(10)
    with pytest.raises(FrustratedInstance):
        minimize(inst, method="cut")
    for seed, (spins, value) in ANNEALED.items():
        sol = minimize(inst, method="anneal", seed=seed)
        assert "".join("+" if sol.assignment[v] > 0 else "-" for v in inst.variables) == spins
        assert sol.energy == value


def test_cut_on_signed_couplings_matches_or_reports_frustration():
    rng = random.Random(303)
    agreed = frustrated = 0
    for _ in range(120):
        inst = random_instance(rng, rng.randrange(2, 9), signed=True)
        ref = brute_minimum(inst)
        try:
            sol = minimize(inst, method="cut")
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
            assert (minimize(gauged, method=method).energy + extra
                    == minimize(inst, method=method).energy)


def test_solution_on_all_fixed_instance():
    inst = GroundStateInstance(
        variables=((0,), (1,)),
        pair_terms=(((0,), (1,), Fraction(1, 2)),),
        fixed={(0,): 1, (1,): -1},
    )
    for method in ("enum", "cut", "anneal"):
        sol = minimize(inst, method=method)
        assert sol.energy == 2
        assert sol.assignment == {(0,): 1, (1,): -1}
        assert sol.exact == (method != "anneal")


def test_groups_force_rigid_moves():
    # two grouped variables tied by a negative pair to a fixed one
    inst = GroundStateInstance(
        variables=((0,), (1,), (2,)),
        pair_terms=(((0,), (1,), Fraction(1)), ((1,), (2,), Fraction(1))),
        fixed={(0,): 1},
        groups=(frozenset({(1,), (2,)}),),
    )
    sol = minimize(inst, method="cut")
    assert sol.energy == 0
    assert sol.assignment[(1,)] == sol.assignment[(2,)] == 1
    folded = fold_instance(inst)
    assert folded.free_count == 1


def test_fixed_member_pins_whole_group():
    inst = GroundStateInstance(
        variables=((0,), (1,)),
        unary_terms={(1,): (Fraction(5), Fraction(0))},
        fixed={(0,): 1},
        groups=(frozenset({(0,), (1,)}),),
    )
    sol = minimize(inst, method="enum")
    assert sol.assignment[(1,)] == 1
    assert sol.energy == 5


def test_enum_cap_enforced():
    rng = random.Random(505)
    inst = random_instance(rng, 8, signed=False, with_structure=False)
    with pytest.raises(TooManyFreeGroups):
        minimize(inst, method="enum", cap=4)
    sol = minimize(inst, method="auto", cap=4)
    assert sol.method == "mincut"
    assert sol.energy == brute_minimum(inst)


@pytest.mark.parametrize(
    "method, cap",
    [("auto", None), ("auto", 2), ("enum", None), ("cut", None), ("anneal", None)],
)
def test_minimize_folds_once(monkeypatch, method, cap):
    folds = []
    real = ground_state.fold_instance

    def counting(instance):
        folds.append(instance)
        return real(instance)

    monkeypatch.setattr(ground_state, "fold_instance", counting)
    inst = random_instance(random.Random(909), 6, signed=False)
    minimize(inst, method=method, cap=cap)
    assert folds == [inst]


def test_auto_raises_on_large_frustrated_without_anneal():
    # odd antiferromagnetic triangle, forced past the enum cap
    inst = GroundStateInstance(
        variables=((0,), (1,), (2,)),
        pair_terms=(
            ((0,), (1,), Fraction(-1)),
            ((1,), (2,), Fraction(-1)),
            ((0,), (2,), Fraction(-1)),
        ),
    )
    with pytest.raises(FrustratedInstance, match="anneal"):
        minimize(inst, method="auto", cap=1)
    sol = minimize(inst, method="auto", cap=1, allow_anneal=True)
    assert sol.method == "annealing"
    assert not sol.exact
    assert sol.energy == brute_minimum(inst)  # tiny instance, annealing lands exactly


def test_anneal_never_beats_exact_and_is_seed_stable():
    rng = random.Random(606)
    for _ in range(30):
        inst = random_instance(rng, rng.randrange(2, 9), signed=True)
        ref = brute_minimum(inst)
        a1 = minimize(inst, method="anneal", seed=11)
        a2 = minimize(inst, method="anneal", seed=11)
        assert a1.energy >= ref
        assert a1.energy == a2.energy
        assert a1.assignment == a2.assignment
        assert energy(inst, a1.assignment) == a1.energy


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
    with pytest.raises(ValueError, match="unknown method"):
        minimize(GroundStateInstance(variables=()), method="magic")


def test_energy_validates_assignment():
    inst = GroundStateInstance(variables=((0,), (1,)), fixed={(0,): 1})
    with pytest.raises(ValueError, match="missing variable"):
        energy(inst, {(0,): 1})
    with pytest.raises(ValueError, match="violates fixed"):
        energy(inst, {(0,): -1, (1,): 1})
