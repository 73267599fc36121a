"""Exact minimisation of quadratic spin energies.

Instances are quadratic forms  sum_k w_k (x_u - x_v)^2 + sum_v h_v(x_v)
over +-1 variables, with optional fixed variables and equality groups
(all members of a group share one value).  Since (x_u - x_v)^2 is 0 or
4, everything reduces to a pseudo-boolean quadratic with exact rational
coefficients.

:func:`minimize` folds an instance once (groups merged, fixed variables
eliminated, every coefficient scaled to one integer scale) and hands the
:class:`FoldedInstance` to one of three solvers:

* :func:`minimize_enum` - exhaustive, lexicographic tie-break, capped;
* :func:`minimize_cut`  - s/t min-cut, exact via integer Dinic;
  applies to instances whose free-free couplings are nonnegative, or can
  be made so by flipping a deterministic subset of variables (a gauge);
* :func:`minimize_anneal` - seeded simulated annealing, no optimality
  guarantee, energy of the returned state re-evaluated exactly.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Hashable, Mapping

import numpy as np

from .maxflow import FlowNetwork

Var = Hashable

DEFAULT_ENUM_CAP = 24
_CHUNK = 1 << 18


class TooManyFreeGroups(RuntimeError):
    pass


class FrustratedInstance(ValueError):
    """Free-free couplings cannot be made nonnegative by any gauge flip."""


@dataclass(frozen=True)
class GroundStateInstance:
    """Variables must be mutually sortable (site tuples in practice)."""

    variables: tuple
    pair_terms: tuple[tuple[Var, Var, Fraction], ...] = ()
    unary_terms: Mapping[Var, tuple[Fraction, Fraction]] = field(default_factory=dict)
    fixed: Mapping[Var, int] = field(default_factory=dict)
    groups: tuple[frozenset, ...] = ()

    def __post_init__(self):
        known = set(self.variables)
        if len(known) != len(self.variables):
            raise ValueError("duplicate variables")
        for u, v, _ in self.pair_terms:
            if u not in known or v not in known:
                raise ValueError(f"pair term references unknown variable ({u!r}, {v!r})")
        for v in self.unary_terms:
            if v not in known:
                raise ValueError(f"unary term references unknown variable {v!r}")
        for v, s in self.fixed.items():
            if v not in known:
                raise ValueError(f"fixed value for unknown variable {v!r}")
            if s not in (1, -1):
                raise ValueError(f"fixed spin must be +-1, got {s!r}")
        seen: set = set()
        for g in self.groups:
            if not g:
                raise ValueError("empty group")
            for v in g:
                if v not in known:
                    raise ValueError(f"group member {v!r} is not a variable")
                if v in seen:
                    raise ValueError(f"variable {v!r} appears in two groups")
                seen.add(v)


@dataclass(frozen=True)
class Solution:
    assignment: Mapping[Var, int]
    energy: Fraction
    method: str
    exact: bool


def energy(instance: GroundStateInstance, assignment: Mapping[Var, int]) -> Fraction:
    """Exact energy of a complete assignment; validates structure."""
    for v in instance.variables:
        if v not in assignment:
            raise ValueError(f"assignment is missing variable {v!r}")
        if assignment[v] not in (1, -1):
            raise ValueError(f"assignment value for {v!r} must be +-1")
    for v, s in instance.fixed.items():
        if assignment[v] != s:
            raise ValueError(f"assignment violates fixed value of {v!r}")
    for g in instance.groups:
        vals = {assignment[v] for v in g}
        if len(vals) > 1:
            raise ValueError(f"assignment is not constant on group {sorted(g)!r}")
    total = Fraction(0)
    for u, v, w in instance.pair_terms:
        if assignment[u] != assignment[v]:
            total += 4 * w
    for v, (hp, hm) in instance.unary_terms.items():
        total += hp if assignment[v] > 0 else hm
    return total


# ---------------------------------------------------------------------------
# folding


@dataclass
class FoldedInstance:
    """An instance in solver form, on one integer scale.

    Free groups are numbered ``0..free_count-1`` in ``free_reps`` order.
    Every coefficient is an int equal to ``scale`` times its exact value:
    ``pairs`` holds the nonzero couplings ``(i, j, w)`` with ``i < j``,
    sorted, a broken pair costing ``4 w``; ``unary[i]`` is the
    ``(h_plus, h_minus)`` of group i.
    """

    instance: GroundStateInstance
    rep_of: dict
    members: dict           # rep -> sorted member list
    free_reps: list         # sorted
    fixed_reps: dict        # rep -> spin
    pairs: list
    unary: list
    constant: int
    scale: int

    @property
    def free_count(self) -> int:
        return len(self.free_reps)


def fold_instance(instance: GroundStateInstance) -> FoldedInstance:
    """Merge groups, eliminate fixed variables and scale every term once.

    ``scale`` is the lcm of the denominators of the input terms, so each
    term becomes an int on its own and all sums are exact int sums.
    """
    rep_of: dict = {}
    members: dict = {}
    for g in instance.groups:
        rep = min(g)
        for v in g:
            rep_of[v] = rep
        members[rep] = sorted(g)
    for v in instance.variables:
        if v not in rep_of:
            rep_of[v] = v
            members[v] = [v]

    fixed_reps: dict = {}
    for v, s in sorted(instance.fixed.items()):
        rep = rep_of[v]
        if fixed_reps.get(rep, s) != s:
            raise ValueError(f"group of {rep!r} carries conflicting fixed values")
        fixed_reps[rep] = s

    free_reps = sorted(r for r in members if r not in fixed_reps)
    index = {r: i for i, r in enumerate(free_reps)}
    denominators = {w.denominator for _, _, w in instance.pair_terms}
    for h in instance.unary_terms.values():
        denominators.update(x.denominator for x in h)
    scale = math.lcm(*denominators)

    unary = [[0, 0] for _ in free_reps]
    constant = 0
    for v, (hp, hm) in instance.unary_terms.items():
        rep = rep_of[v]
        hp = hp.numerator * (scale // hp.denominator)
        hm = hm.numerator * (scale // hm.denominator)
        if rep in fixed_reps:
            constant += hp if fixed_reps[rep] > 0 else hm
        else:
            h = unary[index[rep]]
            h[0] += hp
            h[1] += hm

    couplings: dict = {}
    for u, v, w in instance.pair_terms:
        ru, rv = rep_of[u], rep_of[v]
        if ru == rv:
            continue
        w = w.numerator * (scale // w.denominator)
        fu, fv = ru in fixed_reps, rv in fixed_reps
        if fu and fv:
            if fixed_reps[ru] != fixed_reps[rv]:
                constant += 4 * w
        elif fu or fv:
            free, s = (rv, fixed_reps[ru]) if fu else (ru, fixed_reps[rv])
            # w (x - s)^2 = 4w when x = -s
            unary[index[free]][1 if s > 0 else 0] += 4 * w
        else:
            i, j = index[ru], index[rv]
            key = (i, j) if i < j else (j, i)
            couplings[key] = couplings.get(key, 0) + w

    return FoldedInstance(
        instance=instance,
        rep_of=rep_of,
        members=members,
        free_reps=free_reps,
        fixed_reps=fixed_reps,
        pairs=sorted((i, j, w) for (i, j), w in couplings.items() if w),
        unary=[tuple(h) for h in unary],
        constant=constant,
        scale=scale,
    )


def _finish(folded: FoldedInstance, spins, method: str, exact: bool) -> Solution:
    """Solution from one spin per free group, its energy re-evaluated exactly."""
    values = dict(zip(folded.free_reps, spins))
    values.update(folded.fixed_reps)
    assignment = {v: values[rep] for rep, vs in folded.members.items() for v in vs}
    return Solution(
        assignment=assignment,
        energy=energy(folded.instance, assignment),
        method=method,
        exact=exact,
    )


# ---------------------------------------------------------------------------
# exhaustive enumeration


def minimize_enum(folded: FoldedInstance, cap: int) -> Solution:
    """Global minimum by exhaustive search over free groups.

    Tie-break: lexicographically smallest assignment over the sorted free
    representatives with +1 ordered before -1.
    """
    nfree = folded.free_count
    if nfree > cap:
        raise TooManyFreeGroups(f"{nfree} free groups exceeds the enumeration cap {cap}")

    pair_list = [(i, j, 4 * w) for i, j, w in folded.pairs]
    hp_arr = np.array([hp for hp, _ in folded.unary], dtype=object)
    hm_arr = np.array([hm for _, hm in folded.unary], dtype=object)
    bound = sum(abs(w) for _, _, w in pair_list) + sum(
        max(abs(hp), abs(hm)) for hp, hm in folded.unary
    )
    # coefficients too large for int64: same loop on python ints
    dtype = np.int64 if bound < 2**62 else object
    hp_vec = hp_arr.astype(dtype)
    dif_vec = (hm_arr - hp_arr).astype(dtype)
    base = hp_vec.sum()

    best_val = None
    best_index = None
    for start in range(0, 1 << nfree, _CHUNK):
        stop = min(start + _CHUNK, 1 << nfree)
        ids = np.arange(start, stop, dtype=np.int64)
        bits = [((ids >> (nfree - 1 - g)) & 1).astype(dtype, copy=False) for g in range(nfree)]
        e = np.full(ids.shape, base, dtype=dtype)
        for g in range(nfree):
            e += bits[g] * dif_vec[g]
        for i, j, w4 in pair_list:
            e += (bits[i] ^ bits[j]) * w4
        k = int(np.argmin(e))
        if best_val is None or e[k] < best_val:
            best_val = e[k]
            best_index = start + k

    spins = [-1 if (best_index >> (nfree - 1 - g)) & 1 else 1 for g in range(nfree)]
    return _finish(folded, spins, "enumeration", True)


# ---------------------------------------------------------------------------
# min-cut


def _gauge(n: int, pairs: list) -> list:
    """Deterministic sign flip making all free-free couplings nonnegative."""
    adj: list = [[] for _ in range(n)]
    for i, j, w in pairs:
        adj[i].append((j, w))
        adj[j].append((i, w))
    sigma = [0] * n
    for root in range(n):
        if sigma[root]:
            continue
        sigma[root] = 1
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v, w in adj[u]:
                want = sigma[u] * (1 if w > 0 else -1)
                if not sigma[v]:
                    sigma[v] = want
                    queue.append(v)
                elif sigma[v] != want:
                    raise FrustratedInstance(
                        "free-free couplings are frustrated (no gauge makes them "
                        "nonnegative); use minimize_enum or minimize_anneal"
                    )
    return sigma


def minimize_cut(folded: FoldedInstance) -> Solution:
    """Global minimum via s/t min-cut; exact (integer capacities).

    The gauge, the capacities and the constant are the folded ints,
    divided by the scale once for the cross-check.  Requires nonnegative
    couplings between free groups, possibly after a deterministic gauge
    flip; otherwise raises :class:`FrustratedInstance`.
    """
    n = folded.free_count
    sigma = _gauge(n, folded.pairs)
    net = FlowNetwork(n + 2)  # s = n, t = n + 1
    constant = folded.constant
    for i, (hp, hm) in enumerate(folded.unary):
        if sigma[i] < 0:
            hp, hm = hm, hp
        base = min(hp, hm)
        constant += base
        if hm - base:
            net.add_edge(n, i, hm - base)
        if hp - base:
            net.add_edge(i, n + 1, hp - base)
    for i, j, w in folded.pairs:
        if sigma[i] != sigma[j]:
            # flipping one endpoint trades the broken and unbroken pair
            # energies: w(s_u - s_v)^2 = 4w + (-w)(t_u - t_v)^2
            constant += 4 * w
            w = -w
        if w < 0:
            raise FrustratedInstance("internal gauge failure")  # unreachable
        net.add_edge(i, j, 4 * w, 4 * w)

    flow = net.max_flow(n, n + 1)
    side = net.source_side(n)
    spins = [s if i in side else -s for i, s in enumerate(sigma)]
    solution = _finish(folded, spins, "mincut", True)
    cut_energy = Fraction(constant + flow, folded.scale)
    if solution.energy != cut_energy:
        raise RuntimeError(
            f"min-cut value {cut_energy} disagrees with re-evaluated "
            f"energy {solution.energy}"
        )
    return solution


def minimize(
    instance: GroundStateInstance,
    method: str = "auto",
    cap: int | None = None,
    allow_anneal: bool = False,
    seed: int = 0,
) -> Solution:
    """Fold ``instance`` once and dispatch it to a solver.

    ``cap`` defaults to :data:`DEFAULT_ENUM_CAP`.  ``auto`` enumerates
    when the free-group count fits under the cap, otherwise runs the
    min-cut; frustrated instances then fall back to annealing only when
    ``allow_anneal`` is set, else the frustration error propagates with
    a hint.
    """
    if method not in ("auto", "enum", "cut", "anneal"):
        raise ValueError(f"unknown method {method!r}")
    if cap is None:
        cap = DEFAULT_ENUM_CAP
    folded = fold_instance(instance)
    if method == "enum" or (method == "auto" and folded.free_count <= cap):
        return minimize_enum(folded, cap)
    if method == "cut":
        return minimize_cut(folded)
    if method == "anneal":
        return minimize_anneal(folded, seed=seed)
    try:
        return minimize_cut(folded)
    except FrustratedInstance:
        if allow_anneal:
            return minimize_anneal(folded, seed=seed)
        raise FrustratedInstance(
            "instance is too large to enumerate and its couplings are frustrated; "
            "pass --anneal (allow_anneal=True) to accept an approximate minimum"
        ) from None


# ---------------------------------------------------------------------------
# simulated annealing


def minimize_anneal(
    folded: FoldedInstance,
    seed: int = 0,
    sweeps: int = 400,
    t_start: float = 3.0,
    t_end: float = 0.05,
) -> Solution:
    """Metropolis annealing over free groups; deterministic for a given seed.

    The returned energy is the exact re-evaluation of the best visited
    state, but no optimality is claimed (``exact=False``).
    """
    nfree = folded.free_count
    scale = folded.scale
    adj: list[list[tuple[int, float]]] = [[] for _ in range(nfree)]
    for i, j, w in folded.pairs:
        w4 = 4 * w / scale
        adj[i].append((j, w4))
        adj[j].append((i, w4))
    hp = [h / scale for h, _ in folded.unary]
    hm = [h / scale for _, h in folded.unary]

    rng = random.Random(seed)
    state = [1 if hp[i] <= hm[i] else -1 for i in range(nfree)]

    def total(st):
        e = sum(hp[i] if st[i] > 0 else hm[i] for i in range(nfree))
        e += sum(w4 for i in range(nfree) for j, w4 in adj[i] if j > i and st[i] != st[j])
        return e

    cur = total(state)
    best, best_state = cur, list(state)
    ratio = t_end / t_start
    for sweep in range(sweeps):
        temp = t_start * ratio ** (sweep / max(sweeps - 1, 1))
        for i in range(nfree):
            delta = (hm[i] - hp[i]) if state[i] > 0 else (hp[i] - hm[i])
            for j, w4 in adj[i]:
                delta += w4 if state[i] == state[j] else -w4
            if delta <= 0 or rng.random() < math.exp(-delta / temp):
                state[i] = -state[i]
                cur += delta
                if cur < best:
                    best, best_state = cur, list(state)
    return _finish(folded, best_state, "annealing", False)
