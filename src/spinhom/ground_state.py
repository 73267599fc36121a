"""Exact minimisation of quadratic spin energies.

Instances are quadratic forms  sum_k w_k (x_u - x_v)^2 + sum_v h_v(x_v)
over +-1 variables, with optional fixed variables and equality groups
(all members of a group share one value).  Since (x_u - x_v)^2 is 0 or
4, everything reduces to a pseudo-boolean quadratic with exact rational
coefficients.

The cell builders emit an instance directly as :class:`CellTerms`: flat
integer term arrays on one scale, with no per-site Python objects.  A
:class:`GroundStateInstance` (sites, rational terms, fixed values and
groups as Python objects) is the public adapter; :func:`fold_instance`
converts it to term arrays first.

:func:`minimize` folds an instance once (groups merged, fixed variables
eliminated, terms summed per free group in numpy) and hands the
:class:`FoldedInstance` to one of three solvers:

* :func:`minimize_enum` - exhaustive, lexicographic tie-break, capped;
* :func:`minimize_cut`  - s/t min-cut, exact via integer Dinic;
  applies to instances whose free-free couplings are nonnegative, or can
  be made so by flipping a deterministic subset of variables (a gauge);
* :func:`minimize_anneal` - seeded simulated annealing, no optimality
  guarantee.

Every result's energy is re-evaluated exactly from the unfolded term
arrays (:meth:`CellTerms.evaluate`).
"""

from __future__ import annotations

import itertools
import math
import random
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Hashable, Mapping, Sequence

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


class SiteValues(Mapping):
    """Read-only site -> spin view of a spin grid over a box of ranges."""

    def __init__(self, spins: np.ndarray, ranges: Sequence[range]):
        self._spins = spins
        self._ranges = tuple(ranges)

    def __getitem__(self, site) -> int:
        if not isinstance(site, tuple) or len(site) != len(self._ranges):
            raise KeyError(site)
        index = tuple(c - r.start for c, r in zip(site, self._ranges))
        if not all(0 <= i < n for i, n in zip(index, self._spins.shape)):
            raise KeyError(site)
        return int(self._spins[index])

    def __iter__(self):
        return itertools.product(*self._ranges)

    def __len__(self) -> int:
        return self._spins.size


class KeyedValues(Mapping):
    """Read-only key -> spin view of a spin array, one key per entry.

    ``keys`` is a sequence, or an (n, d) integer array whose rows are
    site tuples; the key index is built on the first lookup.
    """

    def __init__(self, spins: np.ndarray, keys):
        self._spins = spins
        self._keys = keys
        self._index: dict | None = None

    def __getitem__(self, key) -> int:
        if self._index is None:
            self._index = {k: i for i, k in enumerate(self)}
        return int(self._spins[self._index[key]])

    def __iter__(self):
        if isinstance(self._keys, np.ndarray):
            return iter(map(tuple, self._keys.tolist()))
        return iter(self._keys)

    def __len__(self) -> int:
        return len(self._spins)


@dataclass(frozen=True, eq=False)
class CellTerms:
    """A cell's energy as flat integer term arrays, before folding.

    Sites are numbered ``0..n-1`` in cell order.  ``fixed[i]`` is the
    spin site i is held at, or 0 when it is free.  ``group[i]`` is the
    number of the first site of its equality group (i itself when it is
    alone); a fixed member holds its whole group.  Pair k joins ``u[k]``
    and ``v[k]`` with weight ``weights[pair_class[k]]``, a broken pair
    costing four times it; site i pays ``h_plus[site_class[i]]`` at +1
    and ``h_minus[site_class[i]]`` at -1.  Table entries are ints equal
    to ``scale`` times their exact values.  ``sites`` names the sites:
    a tuple of per-axis ranges for a box in C (lexicographic) order,
    otherwise one key per site (a list, or an (n, d) integer array of
    coordinates).
    """

    fixed: np.ndarray
    group: np.ndarray
    u: np.ndarray
    v: np.ndarray
    pair_class: np.ndarray
    weights: tuple[int, ...]
    site_class: np.ndarray
    h_plus: tuple[int, ...]
    h_minus: tuple[int, ...]
    scale: int
    sites: object

    @property
    def size(self) -> int:
        return len(self.fixed)

    def key(self, i: int):
        """The name of site i."""
        if isinstance(self.sites, tuple):
            index = np.unravel_index(i, [len(r) for r in self.sites])
            return tuple(r[int(k)] for r, k in zip(self.sites, index))
        key = self.sites[i]
        return tuple(int(c) for c in key) if isinstance(key, np.ndarray) else key

    def view(self, spins: np.ndarray) -> Mapping:
        """Read-only site -> spin mapping over a spin array in cell order."""
        if isinstance(self.sites, tuple):
            return SiteValues(spins.reshape([len(r) for r in self.sites]), self.sites)
        return KeyedValues(spins, self.sites)

    def bound(self) -> int:
        """Sum of the magnitudes of all terms: no partial sum of the
        scaled energy, folded or not, exceeds it."""
        pairs = np.bincount(self.pair_class, minlength=len(self.weights)).tolist()
        sites = np.bincount(self.site_class, minlength=len(self.h_plus)).tolist()
        total = 4 * sum(abs(w) * c for w, c in zip(self.weights, pairs))
        hs = zip(self.h_plus, self.h_minus, sites)
        return total + sum(max(abs(hp), abs(hm)) * c for hp, hm, c in hs)

    def evaluate(self, spins: np.ndarray) -> Fraction:
        """Exact energy of one spin per site: broken pairs and sites at
        each spin are counted per class, each count weighted once."""
        broken = spins[self.u] != spins[self.v]
        up = spins > 0
        pairs = np.bincount(self.pair_class[broken], minlength=len(self.weights))
        plus = np.bincount(self.site_class[up], minlength=len(self.h_plus))
        minus = np.bincount(self.site_class[~up], minlength=len(self.h_minus))
        total = 4 * sum(w * c for w, c in zip(self.weights, pairs.tolist()))
        total += sum(h * c for h, c in zip(self.h_plus, plus.tolist()))
        total += sum(h * c for h, c in zip(self.h_minus, minus.tolist()))
        return Fraction(total, self.scale)


@dataclass(frozen=True, eq=False)
class Solution:
    """A minimizer: ``spins`` is a read-only int8 array in cell order and
    ``assignment`` a read-only site -> spin view of it."""

    spins: np.ndarray
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


def _instance_terms(instance: GroundStateInstance) -> CellTerms:
    """Term arrays of an instance, its variables numbered in sorted order."""
    keys = sorted(instance.variables)
    index = {v: i for i, v in enumerate(keys)}
    group = np.arange(len(keys), dtype=np.int64)
    for g in instance.groups:
        members = [index[v] for v in g]
        group[members] = min(members)
    fixed = np.zeros(len(keys), dtype=np.int8)
    for v, s in instance.fixed.items():
        fixed[index[v]] = s
    terms = [w for _, _, w in instance.pair_terms]
    terms += [h for hs in instance.unary_terms.values() for h in hs]
    scale = math.lcm(*(x.denominator for x in terms))

    def classes(values) -> tuple[dict, np.ndarray]:
        table: dict = {}
        ids = [table.setdefault(x, len(table)) for x in values]
        return table, np.array(ids, dtype=np.int64)

    weights, pair_class = classes(w for _, _, w in instance.pair_terms)
    unary, _ = classes([(Fraction(0), Fraction(0))] + list(instance.unary_terms.values()))
    site_class = np.zeros(len(keys), dtype=np.int64)
    for v, h in instance.unary_terms.items():
        site_class[index[v]] = unary[h]
    scaled = lambda x: x.numerator * (scale // x.denominator)
    return CellTerms(
        fixed=fixed,
        group=group,
        u=np.array([index[u] for u, _, _ in instance.pair_terms], dtype=np.int64),
        v=np.array([index[v] for _, v, _ in instance.pair_terms], dtype=np.int64),
        pair_class=pair_class,
        weights=tuple(scaled(w) for w in weights),
        site_class=site_class,
        h_plus=tuple(scaled(hp) for hp, _ in unary),
        h_minus=tuple(scaled(hm) for _, hm in unary),
        scale=scale,
        sites=keys,
    )


@dataclass
class FoldedInstance:
    """An instance in solver form, on one integer scale.

    ``instance`` holds the unfolded term arrays.  Free groups are numbered
    ``0..free_count-1`` in the order of their first sites, whose numbers
    ``free_reps`` lists in increasing order.  ``node[i]`` is the free
    group of site i, or -1 where the site is held at ``spin[i]`` (0 on
    free sites).  Every coefficient is an int equal to ``scale`` times
    its exact value: ``pairs`` holds the nonzero couplings ``(i, j, w)``
    with ``i < j``, sorted, a broken pair costing ``4 w``; ``unary[i]`` is
    the ``(h_plus, h_minus)`` of group i.
    """

    instance: CellTerms
    node: np.ndarray
    spin: np.ndarray
    free_reps: np.ndarray
    pairs: list
    unary: list
    constant: int
    scale: int

    @property
    def free_count(self) -> int:
        return len(self.free_reps)


def fold_instance(instance: GroundStateInstance | CellTerms) -> FoldedInstance:
    """Merge groups, eliminate fixed sites and sum every term on the scale.

    A :class:`GroundStateInstance` is first converted to term arrays.
    The sums run in int64 when the terms' :meth:`CellTerms.bound` stays
    below 2**62, else in Python ints (``dtype=object``).
    """
    terms = instance if isinstance(instance, CellTerms) else _instance_terms(instance)
    n = terms.size
    group, fixed = terms.group, terms.fixed
    plus = np.bincount(group[fixed > 0], minlength=n) > 0
    minus = np.bincount(group[fixed < 0], minlength=n) > 0
    clash = np.flatnonzero(plus & minus)
    if clash.size:
        raise ValueError(f"group of {terms.key(int(clash[0]))!r} carries conflicting fixed values")
    spin = (plus.astype(np.int8) - minus.astype(np.int8))[group]
    free = spin == 0
    free_reps, free_node = np.unique(group[free], return_inverse=True)
    node = np.full(n, -1, dtype=np.int64)
    node[free] = free_node
    nfree = len(free_reps)

    dtype = np.int64 if terms.bound() < 2**62 else object
    hp = np.array(terms.h_plus, dtype=dtype)[terms.site_class]
    hm = np.array(terms.h_minus, dtype=dtype)[terms.site_class]
    held = ~free
    constant = int(np.where(spin[held] > 0, hp[held], hm[held]).sum())
    unary_p = np.zeros(nfree, dtype=dtype)
    unary_m = np.zeros(nfree, dtype=dtype)
    np.add.at(unary_p, free_node, hp[free])
    np.add.at(unary_m, free_node, hm[free])

    w = np.array(terms.weights, dtype=dtype)[terms.pair_class]
    iu, iv = node[terms.u], node[terms.v]
    su, sv = spin[terms.u], spin[terms.v]
    constant += int(4 * w[(iu < 0) & (iv < 0) & (su != sv)].sum())
    # w (x - s)^2 = 4w when the free end x takes -s
    one = (iu < 0) != (iv < 0)
    end = np.where(iu < 0, iv, iu)[one]
    s = np.where(iu < 0, su, sv)[one]
    w4 = 4 * w[one]
    np.add.at(unary_m, end[s > 0], w4[s > 0])
    np.add.at(unary_p, end[s < 0], w4[s < 0])

    inner = (iu >= 0) & (iv >= 0) & (iu != iv)
    key = np.minimum(iu, iv)[inner] * nfree + np.maximum(iu, iv)[inner]
    keys, at = np.unique(key, return_inverse=True)  # sorted: (i, j) in order
    couplings = np.zeros(keys.size, dtype=dtype)
    np.add.at(couplings, at, w[inner])
    keep = couplings != 0
    ij = keys[keep]
    pairs = list(zip((ij // nfree).tolist(), (ij % nfree).tolist(), couplings[keep].tolist()))

    return FoldedInstance(
        instance=terms,
        node=node,
        spin=spin,
        free_reps=free_reps,
        pairs=pairs,
        unary=list(zip(unary_p.tolist(), unary_m.tolist())),
        constant=constant,
        scale=terms.scale,
    )


def _finish(folded: FoldedInstance, spins, method: str, exact: bool) -> Solution:
    """Solution from one spin per free group, its energy re-evaluated
    exactly from the unfolded term arrays."""
    terms = folded.instance
    values = folded.spin.copy()
    free = folded.node >= 0
    values[free] = np.array(spins, dtype=np.int8)[folded.node[free]]
    held = terms.fixed != 0
    if not np.array_equal(values[held], terms.fixed[held]):
        raise RuntimeError("solution does not carry the spin of every fixed site")
    values.flags.writeable = False
    return Solution(
        spins=values,
        assignment=terms.view(values),
        energy=terms.evaluate(values),
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
    instance: GroundStateInstance | CellTerms,
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
