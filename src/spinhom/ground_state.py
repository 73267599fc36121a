"""Exact minimisation of quadratic spin energies.

Instances are quadratic forms  sum_k w_k (x_u - x_v)^2 + sum_v h_v(x_v)
over +-1 variables, with optional fixed variables and equality groups
(all members of a group share one value).  Since (x_u - x_v)^2 is 0 or
4, everything reduces to a pseudo-boolean quadratic with exact rational
coefficients.

The cell builders emit an instance directly as :class:`CellTerms`: flat
integer term arrays on one scale, with no per-site Python objects, and
every solver entry takes that form only.  A :class:`GroundStateInstance`
(sites, rational terms, fixed values and groups as Python objects) is
the reference form: :meth:`GroundStateInstance.terms` converts it to
term arrays, and :func:`energy` evaluates an assignment on it.

:func:`minimize` folds an instance once (groups merged, fixed variables
eliminated, the held terms counted per class, the pairs folded by kind,
terms summed per free group in numpy, couplings and forcing kept as
integer arrays) and hands the :class:`FoldedInstance` to one of two
exact solvers:

* :func:`minimize_enum` - min-sum elimination of the free groups in
  fold order, lexicographic tie-break; it costs ``n * 2**(width + 1)``,
  ``width`` being the widest context (the earlier groups coupled to a
  group or a later one), and refuses a cell whose tables would pass
  ``2**DEFAULT_ENUM_CAP`` entries;
* :func:`minimize_cut`  - s/t min-cut, exact via an integer max-flow
  (a greedy depth-first pass, then Boykov-Kolmogorov); applies to
  instances whose free-free couplings are nonnegative, or can be made
  so by flipping a deterministic subset of variables (a gauge sigma).
  The gauge, the terminal capacities and the constant are computed on
  the folded arrays.  A free group with no free-free coupling is decided directly:
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
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Hashable, Mapping, NamedTuple, Sequence

import numpy as np

from .connectivity import components
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

    def terms(self) -> CellTerms:
        """Term arrays of the instance, its variables numbered in sorted order."""
        keys = sorted(self.variables)
        index = {v: i for i, v in enumerate(keys)}
        group = np.arange(len(keys), dtype=np.int64)
        for g in self.groups:
            members = [index[v] for v in g]
            group[members] = min(members)
        fixed = np.zeros(len(keys), dtype=np.int8)
        for v, s in self.fixed.items():
            fixed[index[v]] = s

        def classes(values) -> tuple[dict, np.ndarray]:
            table: dict = {}
            ids = [table.setdefault(x, len(table)) for x in values]
            return table, np.array(ids, dtype=np.int64)

        weights, pair_class = classes(w for _, _, w in self.pair_terms)
        unary, _ = classes([(Fraction(0), Fraction(0))] + list(self.unary_terms.values()))
        site_class = np.zeros(len(keys), dtype=np.int64)
        for v, h in self.unary_terms.items():
            site_class[index[v]] = unary[h]
        scale, weights, h_plus, h_minus = scaled_tables(
            weights, [hp for hp, _ in unary], [hm for _, hm in unary]
        )
        return CellTerms(
            fixed=fixed,
            group=group,
            u=np.array([index[u] for u, _, _ in self.pair_terms], dtype=np.int64),
            v=np.array([index[v] for _, v, _ in self.pair_terms], dtype=np.int64),
            pair_class=pair_class,
            weights=weights,
            site_class=site_class,
            h_plus=h_plus,
            h_minus=h_minus,
            scale=scale,
        )


class CellTerms(NamedTuple):
    """A cell's energy as flat integer term arrays, before folding.

    Sites are numbered ``0..n-1`` in cell order.  ``fixed[i]`` is the
    spin site i is held at, or 0 when it is free.  ``group[i]`` is the
    number of the first site of its equality group (i itself when it is
    alone); a fixed member holds its whole group.  Pair k joins ``u[k]``
    and ``v[k]`` with weight ``weights[pair_class[k]]``, a broken pair
    costing four times it; site i pays ``h_plus[site_class[i]]`` at +1
    and ``h_minus[site_class[i]]`` at -1.  Table entries are ints equal
    to ``scale`` times their exact values.

    The cell order: every cell builder numbers its sites in the C
    (lexicographic) order of the cell's box, the ``phi`` cube every site
    of its box and the surface cell only the sites its terms touch;
    :meth:`GroundStateInstance.terms` numbers the variables in sorted order.
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
        total = 4 * _per_class(self.weights, self.pair_class[broken])
        total += _per_class(self.h_plus, self.site_class[up])
        total += _per_class(self.h_minus, self.site_class[~up])
        return Fraction(total, self.scale)


def _per_class(table: tuple[int, ...], classes: np.ndarray) -> int:
    """Sum of ``table[c]`` over the entries c of ``classes``: each class
    is counted, and each count weighted once in Python ints."""
    counts = np.bincount(classes, minlength=len(table)).tolist()
    return sum(x * c for x, c in zip(table, counts))


def scaled_tables(*tables: Sequence[Fraction]) -> tuple:
    """One integer scale for rational tables: the scale (the least common
    multiple of every denominator), then each table as ints equal to
    ``scale`` times its entries."""
    scale = math.lcm(*(x.denominator for table in tables for x in table))
    return scale, *(tuple(x.numerator * (scale // x.denominator) for x in t) for t in tables)


class Solution(NamedTuple):
    """A minimizer: ``spins`` is a read-only int8 array in the cell order
    of :class:`CellTerms` (the cell's sites in C order over its box, or
    the sorted variables of :meth:`GroundStateInstance.terms`), ``method`` the
    solver that found it."""

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


class FoldedInstance(NamedTuple):
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


def fold_instance(terms: CellTerms) -> FoldedInstance:
    """Merge groups, eliminate fixed sites and sum every term on the scale.

    The held terms are counted per class, as :meth:`CellTerms.evaluate`
    counts them: held sites per class and spin, broken held-held pairs
    per class.  Forcing is gathered for the free sites only.  The other
    pairs are folded by kind, each kind under its own mask: one pass per
    orientation of the pairs with one free end, then the free-free pairs
    keyed by their two groups.  So no int64 temporary spans every site or
    every pair.  The free sums run in int64 when the terms'
    :meth:`CellTerms.bound` stays below 2**62, else in Python ints
    (``dtype=object``).
    """
    n = terms.size
    group = terms.group
    spin = np.zeros(n, dtype=np.int8)  # first the held spin of each group's first site
    spin[group[terms.fixed > 0]] = 1
    minus = group[terms.fixed < 0]
    clash = minus[spin[minus] > 0]
    if clash.size:
        raise ValueError(f"group of site {int(clash.min())} carries conflicting fixed values")
    spin[minus] = -1
    del minus
    spin = spin[group]
    free = spin == 0
    free_reps, free_node = np.unique(group[free], return_inverse=True)
    node = np.full(n, -1, dtype=np.int64)
    node[free] = free_node
    nfree = len(free_reps)

    dtype = np.int64 if terms.bound() < 2**62 else object
    classes = terms.site_class[free]
    unary_p = np.zeros(nfree, dtype=dtype)
    unary_m = np.zeros(nfree, dtype=dtype)
    np.add.at(unary_p, free_node, np.array(terms.h_plus, dtype=dtype)[classes])
    np.add.at(unary_m, free_node, np.array(terms.h_minus, dtype=dtype)[classes])
    del free_node, classes
    constant = (_per_class(terms.h_plus, terms.site_class[spin > 0])
                + _per_class(terms.h_minus, terms.site_class[spin < 0]))

    u, v = terms.u, terms.v
    free_u, free_v = free[u], free[v]
    del free
    broken = ~(free_u | free_v) & (spin[u] != spin[v])
    constant += 4 * _per_class(terms.weights, terms.pair_class[broken])
    del broken
    weights = np.array(terms.weights, dtype=dtype)
    w4 = 4 * weights
    for free_end, held_end, one_free in ((u, v, free_u & ~free_v), (v, u, free_v & ~free_u)):
        held = spin[held_end]
        for forcing, s in ((unary_m, 1), (unary_p, -1)):
            # w (x - s)^2 = 4w when the free end x takes -s
            at = one_free & (held == s)
            np.add.at(forcing, node[free_end[at]], w4[terms.pair_class[at]])
    both = free_u & free_v
    iu, iv = node[u[both]], node[v[both]]
    inner = iu != iv
    key = np.minimum(iu, iv)[inner] * nfree + np.maximum(iu, iv)[inner]
    del iu, iv
    keys, pos = np.unique(key, return_inverse=True)  # sorted: (i, j) in order
    del key
    couplings = np.zeros(keys.size, dtype=dtype)
    np.add.at(couplings, pos, weights[terms.pair_class[both][inner]])
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
    # a table entry is a partial sum of the folded energy, which the
    # terms' bound holds, so the fold's dtype holds every entry
    value = np.zeros((), dtype=folded.h_plus.dtype)
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
    free-free couplings nonnegative.

    Union-find on the doubled groups: node 2g is group g at +1, node
    2g + 1 is g at -1, and each coupling joins the two copies it wants
    equal (the same spins for a positive weight, opposite ones for a
    negative weight).  The couplings are frustrated exactly when some
    group's two copies share a component.  Otherwise sigma[g] = +1
    exactly when node 2g's label is even: the least group r of a coupled
    set labels its own component 2r, the other one 2r + 1, so r keeps
    +1, as does every group alone."""
    n = folded.free_count
    positive = folded.pair_w > 0
    if positive.all():
        return np.ones(n, dtype=np.int8)  # what the union-find below returns on such pairs
    i, j = 2 * folded.pair_i, 2 * folded.pair_j + ~positive
    label = components(2 * n, np.concatenate([i, i + 1]), np.concatenate([j, j ^ 1]))
    if (label[0::2] == label[1::2]).any():
        raise FrustratedInstance(
            "free-free couplings are frustrated: no gauge makes them nonnegative"
        )
    return np.where(label[0::2] % 2 == 0, 1, -1).astype(np.int8)


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
    # the coupling capacities 4w, scaled in place so only one pair-sized array is made
    w4 = np.where(mixed, -pair_w, pair_w)
    if (w4 < 0).any():
        raise FrustratedInstance("internal gauge failure")  # unreachable
    w4 *= 4

    coupled = np.zeros(n, dtype=bool)
    coupled[pair_i] = coupled[pair_j] = True
    nodes = np.flatnonzero(coupled)
    source = hm > 0  # decides the uncoupled groups
    net = _cut_network(nodes, hp, hm, pair_i, pair_j, w4)
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


def minimize(instance: CellTerms) -> Solution:
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
