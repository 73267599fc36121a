"""Exact minimisation of quadratic spin energies.

Instances are quadratic forms  sum_k w_k (x_u - x_v)^2 + sum_v h_v(x_v)
over +-1 variables, with optional fixed variables and equality groups
(all members of a group share one value).  Since (x_u - x_v)^2 is 0 or
4, everything reduces to a pseudo-boolean quadratic with exact rational
coefficients.

:func:`minimize` folds an instance once (groups merged, fixed variables
eliminated) and hands the :class:`FoldedInstance` to one of three solvers:

* :func:`minimize_enum` - exhaustive, lexicographic tie-break, capped;
* :func:`minimize_cut`  - s/t min-cut, exact via integer-scaled Dinic;
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
    instance: GroundStateInstance
    rep_of: dict
    members: dict           # rep -> sorted member list
    free_reps: list         # sorted
    fixed_reps: dict        # rep -> spin
    pair_weights: dict      # (rep_u, rep_v) with rep_u < rep_v -> Fraction
    unary: dict             # free rep -> [h_plus, h_minus]
    constant: Fraction

    @property
    def free_count(self) -> int:
        return len(self.free_reps)


def fold_instance(instance: GroundStateInstance) -> FoldedInstance:
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
    unary = {r: [Fraction(0), Fraction(0)] for r in free_reps}
    constant = Fraction(0)
    for v, (hp, hm) in instance.unary_terms.items():
        rep = rep_of[v]
        if rep in fixed_reps:
            constant += hp if fixed_reps[rep] > 0 else hm
        else:
            unary[rep][0] += hp
            unary[rep][1] += hm

    pair_weights: dict = {}
    for u, v, w in instance.pair_terms:
        ru, rv = rep_of[u], rep_of[v]
        if ru == rv:
            continue
        fu, fv = ru in fixed_reps, rv in fixed_reps
        if fu and fv:
            if fixed_reps[ru] != fixed_reps[rv]:
                constant += 4 * w
        elif fu or fv:
            free, s = (rv, fixed_reps[ru]) if fu else (ru, fixed_reps[rv])
            # w (x - s)^2 = 4w when x = -s
            if s > 0:
                unary[free][1] += 4 * w
            else:
                unary[free][0] += 4 * w
        else:
            key = (ru, rv) if ru < rv else (rv, ru)
            pair_weights[key] = pair_weights[key] + w if key in pair_weights else w

    return FoldedInstance(
        instance=instance,
        rep_of=rep_of,
        members=members,
        free_reps=free_reps,
        fixed_reps=fixed_reps,
        pair_weights=pair_weights,
        unary=unary,
        constant=constant,
    )


def _expand(folded: FoldedInstance, rep_values: Mapping) -> dict:
    out = {}
    for rep, vs in folded.members.items():
        val = folded.fixed_reps.get(rep)
        if val is None:
            val = rep_values[rep]
        for v in vs:
            out[v] = val
    return out


def _finish(folded: FoldedInstance, rep_values: Mapping, method: str, exact: bool) -> Solution:
    assignment = _expand(folded, rep_values)
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

    reps = folded.free_reps
    idx = {r: i for i, r in enumerate(reps)}
    denoms = [w.denominator for w in folded.pair_weights.values()]
    for hp, hm in folded.unary.values():
        denoms += [hp.denominator, hm.denominator]
    scale = math.lcm(*denoms) if denoms else 1
    pair_list = [
        (idx[u], idx[v], int(4 * w * scale)) for (u, v), w in sorted(folded.pair_weights.items())
    ]
    hp_arr = np.array([int(folded.unary[r][0] * scale) for r in reps], dtype=object)
    hm_arr = np.array([int(folded.unary[r][1] * scale) for r in reps], dtype=object)
    bound = sum(abs(w) for _, _, w in pair_list) + int(
        sum(max(abs(a), abs(b)) for a, b in zip(hp_arr, hm_arr))
    )
    # coefficients too large for int64 after scaling: same loop on python ints
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

    rep_values = {
        r: (-1 if (best_index >> (nfree - 1 - g)) & 1 else 1) for g, r in enumerate(reps)
    }
    return _finish(folded, rep_values, "enumeration", True)


# ---------------------------------------------------------------------------
# min-cut


def _gauge(free_reps: list, weights: Mapping) -> dict:
    """Deterministic sign flip making all free-free couplings nonnegative."""
    adj: dict = {r: [] for r in free_reps}
    for (u, v), w in sorted(weights.items()):
        if w != 0:
            adj[u].append((v, w))
            adj[v].append((u, w))
    sigma: dict = {}
    for root in free_reps:
        if root in sigma:
            continue
        sigma[root] = 1
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v, w in adj[u]:
                want = sigma[u] * (1 if w > 0 else -1)
                if v not in sigma:
                    sigma[v] = want
                    queue.append(v)
                elif sigma[v] != want:
                    raise FrustratedInstance(
                        "free-free couplings are frustrated (no gauge makes them "
                        "nonnegative); use minimize_enum or minimize_anneal"
                    )
    return sigma


def minimize_cut(folded: FoldedInstance) -> Solution:
    """Global minimum via s/t min-cut; exact (integer-scaled capacities).

    Every folded coefficient is scaled to one common denominator once;
    the gauge, the capacities and the constant are then Python ints,
    divided by the scale once for the cross-check.  Requires nonnegative
    couplings between free groups, possibly after a deterministic gauge
    flip; otherwise raises :class:`FrustratedInstance`.
    """
    reps = folded.free_reps
    denoms = {folded.constant.denominator}
    denoms.update(w.denominator for w in folded.pair_weights.values())
    for hp, hm in folded.unary.values():
        denoms.update((hp.denominator, hm.denominator))
    scale = math.lcm(*denoms)

    def scaled(x: Fraction) -> int:
        return x.numerator * (scale // x.denominator)

    weights = {key: scaled(w) for key, w in folded.pair_weights.items()}
    sigma = _gauge(reps, weights)

    idx = {r: i for i, r in enumerate(reps)}
    n = folded.free_count
    net = FlowNetwork(n + 2)  # s = n, t = n + 1
    constant = scaled(folded.constant)
    for r in reps:
        hp, hm = (scaled(h) for h in folded.unary[r])
        if sigma[r] < 0:
            hp, hm = hm, hp
        base = min(hp, hm)
        constant += base
        if hm - base:
            net.add_edge(n, idx[r], hm - base)
        if hp - base:
            net.add_edge(idx[r], n + 1, hp - base)
    for (u, v), w in sorted(weights.items()):
        if sigma[u] * sigma[v] < 0:
            # flipping one endpoint trades the broken and unbroken pair
            # energies: w(s_u - s_v)^2 = 4w + (-w)(t_u - t_v)^2
            constant += 4 * w
            w = -w
        if w < 0:
            raise FrustratedInstance("internal gauge failure")  # unreachable
        if w:
            net.add_edge(idx[u], idx[v], 4 * w)
            net.add_edge(idx[v], idx[u], 4 * w)

    flow = net.max_flow(n, n + 1)
    side = net.source_side(n)
    rep_values = {r: sigma[r] * (1 if idx[r] in side else -1) for r in reps}
    solution = _finish(folded, rep_values, "mincut", True)
    cut_energy = Fraction(constant + flow, scale)
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
    reps = folded.free_reps
    idx = {r: i for i, r in enumerate(reps)}
    adj: list[list[tuple[int, float]]] = [[] for _ in range(nfree)]
    for (u, v), w in sorted(folded.pair_weights.items()):
        w4 = float(4 * w)
        adj[idx[u]].append((idx[v], w4))
        adj[idx[v]].append((idx[u], w4))
    hp = [float(folded.unary[r][0]) for r in reps]
    hm = [float(folded.unary[r][1]) for r in reps]

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
    rep_values = {r: best_state[idx[r]] for r in reps}
    return _finish(folded, rep_values, "annealing", False)
