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
eliminated, terms summed per free group in numpy, couplings and forcing
kept as integer arrays) and hands the :class:`FoldedInstance` to one of
two exact solvers:

* :func:`minimize_enum` - min-sum elimination of the free groups in
  fold order, lexicographic tie-break; it costs ``n * 2**(width + 1)``,
  ``width`` being the widest context (the earlier groups coupled to a
  group or a later one), and refuses a cell whose tables would pass
  ``2**DEFAULT_ENUM_CAP`` entries;
* :func:`minimize_cut`  - s/t min-cut, exact via integer
  Boykov-Kolmogorov max-flow; applies to instances whose free-free
  couplings are nonnegative, or can be made so by flipping a
  deterministic subset of variables (a gauge sigma).  The gauge, the
  terminal capacities and the constant are computed on the folded
  arrays.  A free group with no free-free coupling is decided directly:
  it takes sigma when its forcing makes -sigma dearer, and -sigma
  otherwise, ties included, which is the smallest minimum-cut source
  set.  Only the coupled groups enter the flow network, built from arc
  arrays in one pass.

:func:`minimize` is the one solver entry of every cell, bulk or surface:
it eliminates an instance of at most :data:`DEFAULT_ENUM_CAP` free
groups, cuts a larger one, and eliminates it after all when the min-cut
finds it frustrated.  A frustrated instance too wide to eliminate is
refused: its minimum is NP-hard in general, and no approximate value is
returned in its place.  Every result's energy is re-evaluated exactly
from the unfolded term arrays (:meth:`CellTerms.evaluate`).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Hashable, Mapping, Sequence

import numpy as np

from .maxflow import FlowNetwork

Var = Hashable

DEFAULT_ENUM_CAP = 24


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
    to ``scale`` times their exact values.

    The cell order of each builder: the sites of the ``phi`` cube in C
    (lexicographic) order over the box; the sites of a surface cell
    inside the cube in lexicographic order, then those outside; the
    variables of a :class:`GroundStateInstance` in sorted order.
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

    @property
    def size(self) -> int:
        return len(self.fixed)

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


def scaled_tables(*tables: Sequence[Fraction]) -> tuple:
    """One integer scale for rational tables: the scale (the least common
    multiple of every denominator), then each table as ints equal to
    ``scale`` times its entries."""
    scale = math.lcm(*(x.denominator for table in tables for x in table))
    return scale, *(tuple(x.numerator * (scale // x.denominator) for x in t) for t in tables)


@dataclass(frozen=True, eq=False)
class Solution:
    """A minimizer: ``spins`` is a read-only int8 array in the cell order
    of :class:`CellTerms` (sorted variables for a
    :class:`GroundStateInstance`), ``method`` the solver that found it."""

    spins: np.ndarray
    energy: Fraction
    method: str


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

    def classes(values) -> tuple[dict, np.ndarray]:
        table: dict = {}
        ids = [table.setdefault(x, len(table)) for x in values]
        return table, np.array(ids, dtype=np.int64)

    weights, pair_class = classes(w for _, _, w in instance.pair_terms)
    unary, _ = classes([(Fraction(0), Fraction(0))] + list(instance.unary_terms.values()))
    site_class = np.zeros(len(keys), dtype=np.int64)
    for v, h in instance.unary_terms.items():
        site_class[index[v]] = unary[h]
    scale, weights, h_plus, h_minus = scaled_tables(
        weights, [hp for hp, _ in unary], [hm for _, hm in unary]
    )
    return CellTerms(
        fixed=fixed,
        group=group,
        u=np.array([index[u] for u, _, _ in instance.pair_terms], dtype=np.int64),
        v=np.array([index[v] for _, v, _ in instance.pair_terms], dtype=np.int64),
        pair_class=pair_class,
        weights=weights,
        site_class=site_class,
        h_plus=h_plus,
        h_minus=h_minus,
        scale=scale,
    )


@dataclass
class FoldedInstance:
    """An instance in solver form, on one integer scale.

    ``instance`` holds the unfolded term arrays.  Free groups are numbered
    ``0..free_count-1`` in the order of their first sites, whose numbers
    ``free_reps`` lists in increasing order.  ``node[i]`` is the free
    group of site i, or -1 where the site is held at ``spin[i]`` (0 on
    free sites).  Every coefficient is an integer equal to ``scale``
    times its exact value.  Coupling k joins groups ``pair_i[k] <
    pair_j[k]`` with the nonzero weight ``pair_w[k]``, a broken pair
    costing ``4 * pair_w[k]``; the pairs are sorted by ``(i, j)``.  Group
    g pays ``h_plus[g]`` at +1 and ``h_minus[g]`` at -1.  The group
    numbers are int64; the weights and the forcing are int64, or Python
    ints (``dtype=object``) when the terms' :meth:`CellTerms.bound`
    reaches 2**62.  ``constant`` is the energy of the held sites alone.
    """

    instance: CellTerms
    node: np.ndarray
    spin: np.ndarray
    free_reps: np.ndarray
    pair_i: np.ndarray
    pair_j: np.ndarray
    pair_w: np.ndarray
    h_plus: np.ndarray
    h_minus: np.ndarray
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
        raise ValueError(f"group of site {int(clash[0])} carries conflicting fixed values")
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

    return FoldedInstance(
        instance=terms,
        node=node,
        spin=spin,
        free_reps=free_reps,
        pair_i=ij // nfree,
        pair_j=ij % nfree,
        pair_w=couplings[keep],
        h_plus=unary_p,
        h_minus=unary_m,
        constant=constant,
        scale=terms.scale,
    )


def _finish(folded: FoldedInstance, spins, method: str) -> Solution:
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
    return Solution(spins=values, energy=terms.evaluate(values), method=method)


# ---------------------------------------------------------------------------
# exact elimination


def _eliminate(value, ctx: tuple, after: tuple, g: int, unary: tuple, below: list):
    """One backward step of the elimination.

    ``value`` holds, per spin assignment of ``after`` (the context of
    g + 1), the least energy of the terms reaching groups > g.  Returns
    two tables over ``ctx``, the context of g: where g is strictly better
    at -1, and the least energy of the terms reaching groups >= g.
    ``q1`` is freed on return, before the next step allocates.
    """
    shape = [2 if i in after else 1 for i in ctx]
    split = bool(after) and after[-1] == g  # then g is value's last axis
    q0, q1 = (np.empty((2,) * len(ctx), dtype=value.dtype) for _ in range(2))
    for b, (table, h) in enumerate(zip((q0, q1), unary)):
        table[...] = (value[..., b] if split else value).reshape(shape)
        table += h
        for i, w4 in below:
            # the pair is broken where x_i takes the other spin
            table[(slice(None),) * ctx.index(i) + (1 - b,)] += w4
    return q1 < q0, np.minimum(q0, q1, out=q0)


def minimize_enum(folded: FoldedInstance) -> Solution:
    """Global minimum over the free groups by exact min-sum elimination
    in fold order (nonserial dynamic programming).

    The context of group g is the set of groups i < g coupled to some
    j >= g.  A backward pass from g = n-1 to 0 builds, over g's context,
    the least energy of the terms reaching groups >= g with g at +1
    (``q0``) and at -1 (``q1``), keeps where -1 is strictly better, and
    passes ``min(q0, q1)`` on.  A forward pass then reads each group's
    spin off its context's spins.  Ties go to +1, so the result is the
    lexicographically smallest minimizer over the free groups in fold
    order.  The cost is ``n * 2**(width + 1)``, ``width`` being the
    widest context; a step whose two tables would hold more than
    ``2**DEFAULT_ENUM_CAP`` entries raises :class:`TooManyFreeGroups`
    before anything is allocated.
    """
    nfree = folded.free_count
    below: list = [[] for _ in range(nfree)]  # below[j]: (i, 4w) of pairs i < j
    reach = list(range(nfree))  # reach[i]: the last group coupled to i
    pairs = zip(folded.pair_i.tolist(), folded.pair_j.tolist(), folded.pair_w.tolist())
    for i, j, w in pairs:
        below[j].append((i, 4 * w))
        reach[i] = max(reach[i], j)
    contexts = [()]
    for g in range(nfree):
        contexts.append(tuple(i for i in (*contexts[g], g) if reach[i] > g))
    width = max(map(len, contexts))
    if width >= DEFAULT_ENUM_CAP:
        raise TooManyFreeGroups(
            f"{nfree} free groups need elimination tables of 2**{width + 1} entries, "
            f"more than 2**{DEFAULT_ENUM_CAP}"
        )
    unary = list(zip(folded.h_plus.tolist(), folded.h_minus.tolist()))
    bound = sum(abs(w4) for pairs in below for _, w4 in pairs)
    bound += sum(max(abs(hp), abs(hm)) for hp, hm in unary)
    # coefficients too large for int64: same tables of python ints
    dtype = np.int64 if bound < 2**62 else object

    value = np.zeros((), dtype=dtype)
    choose: list = [None] * nfree
    for g in reversed(range(nfree)):
        choose[g], value = _eliminate(value, contexts[g], contexts[g + 1], g,
                                      unary[g], below[g])
    bits: list = []
    for g in range(nfree):
        bits.append(int(choose[g][tuple(bits[i] for i in contexts[g])]))
    return _finish(folded, [1 - 2 * b for b in bits], "enumeration")


# ---------------------------------------------------------------------------
# min-cut


def _gauge(folded: FoldedInstance) -> np.ndarray:
    """Deterministic sign flip, one int8 per free group, making all
    free-free couplings nonnegative."""
    n = folded.free_count
    positive = folded.pair_w > 0
    if positive.all():
        return np.ones(n, dtype=np.int8)  # what the search below returns on such pairs
    adj: list = [[] for _ in range(n)]
    for i, j, same in zip(folded.pair_i.tolist(), folded.pair_j.tolist(), positive.tolist()):
        adj[i].append((j, same))
        adj[j].append((i, same))
    sigma = [0] * n
    for root in range(n):
        if sigma[root]:
            continue
        sigma[root] = 1
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v, same in adj[u]:
                want = sigma[u] if same else -sigma[u]
                if not sigma[v]:
                    sigma[v] = want
                    queue.append(v)
                elif sigma[v] != want:
                    raise FrustratedInstance(
                        "free-free couplings are frustrated: no gauge makes them nonnegative"
                    )
    return np.array(sigma, dtype=np.int8)


def _cut_network(nodes: np.ndarray, hp: np.ndarray, hm: np.ndarray,
                 pair_i: np.ndarray, pair_j: np.ndarray, w4: np.ndarray) -> FlowNetwork:
    """The flow network of the coupled groups ``nodes``, renumbered
    ``0..m-1``, with s = m and t = m + 1.

    A group costing ``hm > 0`` off the source side gets the arc s -> g,
    one costing ``hp > 0`` on it the arc g -> t; then each coupling is
    one arc pair carrying ``w4`` both ways.  Terminal arcs come in group
    order and the couplings after them in pair order, which fixes the
    search order of the max-flow.
    """
    m = nodes.size
    number = np.full(len(hp), -1, dtype=np.int64)
    number[nodes] = np.arange(m)
    hp, hm = hp[nodes], hm[nodes]
    from_s = hm > 0
    own = np.flatnonzero(from_s | (hp > 0))
    from_s = from_s[own]
    return FlowNetwork(
        m + 2,
        np.concatenate([np.where(from_s, m, own), number[pair_i]]),
        np.concatenate([np.where(from_s, own, m + 1), number[pair_j]]),
        np.concatenate([np.where(from_s, hm[own], hp[own]), w4]),
        np.concatenate([np.zeros(own.size, dtype=w4.dtype), w4]),
    )


def minimize_cut(folded: FoldedInstance) -> Solution:
    """Global minimum via s/t min-cut; exact (integer capacities).

    The gauge, the capacities and the constant are the folded integers,
    divided by the scale once for the cross-check.  Requires nonnegative
    couplings between free groups, possibly after a deterministic gauge
    flip sigma; otherwise raises :class:`FrustratedInstance`.  A group
    with no coupling is decided on its own: it takes sigma exactly when
    -sigma costs more, so a tie goes to -sigma, as in the smallest
    minimum-cut source set.  Only the coupled groups enter the flow
    network.
    """
    n = folded.free_count
    pair_i, pair_j, pair_w = folded.pair_i, folded.pair_j, folded.pair_w
    sigma = _gauge(folded)
    # in the gauge, group g costs hp at sigma[g] and hm at -sigma[g]
    flip = sigma < 0
    hp = np.where(flip, folded.h_minus, folded.h_plus)
    hm = np.where(flip, folded.h_plus, folded.h_minus)
    base = np.minimum(hp, hm)
    hp -= base
    hm -= base
    # flipping one endpoint trades the broken and unbroken pair energies:
    # w(s_u - s_v)^2 = 4w + (-w)(t_u - t_v)^2
    mixed = sigma[pair_i] != sigma[pair_j]
    constant = folded.constant + int(base.sum()) + 4 * int(pair_w[mixed].sum())
    w = np.where(mixed, -pair_w, pair_w)
    if (w < 0).any():
        raise FrustratedInstance("internal gauge failure")  # unreachable

    coupled = np.zeros(n, dtype=bool)
    coupled[pair_i] = coupled[pair_j] = True
    nodes = np.flatnonzero(coupled)
    source = hm > 0  # decides the uncoupled groups
    net = _cut_network(nodes, hp, hm, pair_i, pair_j, 4 * w)
    flow = net.max_flow(nodes.size, nodes.size + 1)
    reached = np.zeros(nodes.size + 2, dtype=bool)
    reached[list(net.source_side(nodes.size))] = True
    source[nodes] = reached[:nodes.size]
    solution = _finish(folded, np.where(source, sigma, -sigma), "mincut")
    cut_energy = Fraction(constant + flow, folded.scale)
    if solution.energy != cut_energy:
        raise RuntimeError(
            f"min-cut value {cut_energy} disagrees with re-evaluated "
            f"energy {solution.energy}"
        )
    return solution


def minimize(instance: GroundStateInstance | CellTerms) -> Solution:
    """Fold ``instance`` once and dispatch it to an exact solver.

    Enumerates when there are at most :data:`DEFAULT_ENUM_CAP` free
    groups, otherwise runs the min-cut, and eliminates the same folded
    instance when the min-cut finds it frustrated.  A frustrated
    instance too wide to eliminate raises :class:`TooManyFreeGroups`.
    """
    folded = fold_instance(instance)
    if folded.free_count <= DEFAULT_ENUM_CAP:
        return minimize_enum(folded)
    try:
        return minimize_cut(folded)
    except FrustratedInstance:
        pass
    try:
        return minimize_enum(folded)
    except TooManyFreeGroups as exc:
        raise TooManyFreeGroups(f"couplings are frustrated and {exc}") from None
