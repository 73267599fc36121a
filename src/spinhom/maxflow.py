"""Boykov-Kolmogorov max-flow on integer capacities.

A :class:`FlowNetwork` is built in one numpy pass from arrays of arc
pairs (tails, heads, capacities both ways); the search then runs on
Python lists.  Capacities are Python ints (callers scale exact
rationals to a common denominator first), so flow values are exact.

:meth:`FlowNetwork.max_flow` grows a search tree from the source and
one from the sink over residual arcs.  Where the trees touch, it
augments along the joined path; each tree arc the augmentation
saturates cuts its child off as an orphan, which re-attaches to a
neighbour of its own tree that still reaches the root, or else leaves
the tree.  The trees survive between augmentations, so a thin cut
through a large network (the surface cells) costs a few short walks per
augmentation instead of one search of the whole network per phase
(Boykov and Kolmogorov, IEEE PAMI 26, 2004).  The worst case is
pseudo-polynomial, O(m n^2 |C|) for a cut of value |C|; integer
capacities still guarantee that it stops at the exact maximum.

Whether a candidate parent still reaches its root is decided by a walk
up its parent chain.  Each push advances an augmentation counter, and s
and t are stamped with it; the walk stops at the first node stamped
with the current counter (the chain is valid) or at an orphan (it is
not).  A walk that reaches a stamped node then stamps every node it
passed, and an adopted orphan stamps itself.  The invariant: a node
stamped during one augmentation's adoption is never orphaned again in
that adoption.  Capacities do not change while orphans are adopted, a
node is orphaned only when its parent leaves the tree, and only an
orphan with no valid parent leaves; every node of a chain that reaches
the root has a parent, so none of them leaves.  A stamp is written only
once its chain is known to reach the root, and a stamp of an earlier
augmentation never counts.  So the walk answers what a walk to the root
would, and the parent rule is unchanged: the first neighbour in arc
order whose tree arc to the orphan has residual capacity and whose
chain reaches the root.  The trees, the augmenting paths, the flow and
the final source tree are those of walking every chain to the root;
only the walks are shorter.

The set of nodes reachable from the source in the residual graph after
:meth:`FlowNetwork.max_flow` is the same for every maximum flow: it is
the smallest source set of a minimum cut.  So the cut that
:meth:`FlowNetwork.source_side` reports does not depend on the algorithm
or on the order in which augmenting paths are found.  It is the final
source tree, which needs no second search (see :meth:`source_side`).
"""

from __future__ import annotations

from collections import deque

import numpy as np

_ROOT = -1  # parent marker of s and t
_ORPHAN = -2  # parent marker of a node cut off from its root


class FlowNetwork:
    """A network on nodes ``0..n-1`` built from arc-pair arrays.

    Arc pair k runs ``tail[k] -> head[k]`` with capacity ``cap[k]`` and
    back with ``rcap[k]`` (a scalar applies to every pair): an undirected
    coupling is one pair with the same capacity each way.  Arc ``2k``
    is the forward arc and ``2k + 1`` its reverse, so the arc paired with
    ``eid`` is ``eid ^ 1``.  ``to[eid]`` is the head of arc eid, ``cap``
    its residual capacity as a Python int, and ``adj[u]`` the arcs
    leaving u in increasing arc order (one stable sort by tail), so the
    search order follows the order of the pairs.  ``to`` and ``adj``
    take their entries from one pool of int objects, one per value
    below ``max(n, number of arcs)``: a node id is one object however
    many arcs it heads, and a node id and an arc id of equal value are
    the same object.  (``tolist()`` of an int64 array makes one int per
    entry; Python shares only the ints up to 256.)
    """

    def __init__(self, n: int, tail, head, cap, rcap=0):
        tail = np.asarray(tail, dtype=np.int64)
        head = np.asarray(head, dtype=np.int64)
        # each array-sized temporary is dropped before the next one is made
        caps = np.empty(2 * tail.size, dtype=object)  # Python ints, however large
        caps[0::2], caps[1::2] = cap, rcap
        self.cap: list[int] = caps.tolist()
        del caps
        pool = np.array(range(max(n, 2 * tail.size)), dtype=object)  # one int per id
        ends = np.empty(2 * tail.size, dtype=np.int64)
        ends[0::2], ends[1::2] = head, tail  # the head of every arc
        self.to: list[int] = pool[ends].tolist()
        ends[0::2], ends[1::2] = tail, head  # the tail of every arc
        stops = np.cumsum(np.bincount(ends, minlength=n)).tolist()
        order = np.argsort(ends, kind="stable")
        del ends
        order = pool[order]
        del pool
        order = order.tolist()
        self.adj: list[list[int]] = [order[a:b] for a, b in zip([0, *stops], stops)]
        self.n = n
        self._source_tree: tuple[int, list[int]] | None = None  # (s, tree) of max_flow

    def max_flow(self, s: int, t: int) -> int:
        """Push a maximum s-t flow into the residual capacities ``cap``
        and return its value."""
        adj, to, cap = self.adj, self.to, self.cap
        # tree: +1 source tree, -1 sink tree, 0 free.  parent[v] is the arc
        # from v to its parent; the source tree needs residual capacity on
        # its reverse (parent -> v), the sink tree on the arc itself.
        tree = [0] * self.n
        parent = [_ROOT] * self.n
        tree[s], tree[t] = 1, -1
        active = deque([s, t])
        queued = [False] * self.n
        queued[s] = queued[t] = True
        # stamp[v] == clock: v's chain reaches its root in this adoption
        stamp = [0] * self.n
        clock = 0
        flow = 0
        while active:
            u = active[0]
            bridge = -1  # an arc from the source tree into the sink tree
            if tree[u] > 0:
                for eid in adj[u]:
                    if cap[eid] > 0:
                        v = to[eid]
                        if not tree[v]:
                            tree[v] = 1
                            parent[v] = eid ^ 1
                            if not queued[v]:
                                queued[v] = True
                                active.append(v)
                        elif tree[v] < 0:
                            bridge = eid
                            break
            elif tree[u]:
                for eid in adj[u]:
                    if cap[eid ^ 1] > 0:
                        v = to[eid]
                        if not tree[v]:
                            tree[v] = -1
                            parent[v] = eid ^ 1
                            if not queued[v]:
                                queued[v] = True
                                active.append(v)
                        elif tree[v] > 0:
                            bridge = eid ^ 1
                            break
            if bridge < 0:
                # u is exhausted, or was freed while queued
                active.popleft()
                queued[u] = False
                continue

            # augment along s ~> to[bridge ^ 1] -> to[bridge] ~> t;
            # u stays at the head of the queue and is scanned again
            path = [bridge]
            v = to[bridge ^ 1]
            while parent[v] != _ROOT:
                path.append(parent[v] ^ 1)
                v = to[parent[v]]
            v = to[bridge]
            while parent[v] != _ROOT:
                path.append(parent[v])
                v = to[parent[v]]
            push = min([cap[eid] for eid in path])
            flow += push
            clock += 1
            stamp[s] = stamp[t] = clock
            # the orphans nearest the roots go first: a deeper one checked
            # earlier would see its candidates' chains end at the shallower
            # orphan and leave the tree for nothing
            orphans = deque()
            for eid in path:
                cap[eid] -= push
                cap[eid ^ 1] += push
                if not cap[eid] and eid != bridge:
                    child = to[eid] if tree[to[eid]] > 0 else to[eid ^ 1]
                    parent[child] = _ORPHAN
                    orphans.appendleft(child)

            while orphans:
                v = orphans.popleft()
                side = tree[v]
                # the tree arc between v and a neighbour w needs residual
                # capacity on eid ^ back: w -> v in the source tree, v -> w
                # in the sink tree
                back = 1 if side > 0 else 0
                # adopt the first such neighbour of v's tree, in arc order,
                # whose chain reaches the root; the walk up stops at a node
                # stamped in this adoption or at an orphan
                for eid in adj[v]:
                    if cap[eid ^ back] > 0 and tree[to[eid]] == side:
                        x = to[eid]
                        while stamp[x] != clock and parent[x] >= 0:
                            x = to[parent[x]]
                        if stamp[x] == clock:
                            x = to[eid]
                            while stamp[x] != clock:
                                stamp[x] = clock
                                x = to[parent[x]]
                            parent[v] = eid
                            stamp[v] = clock
                            break
                else:
                    # no valid parent: v leaves the tree, its neighbours there
                    # may grow into the gap and its children are orphaned
                    tree[v] = 0
                    for eid in adj[v]:
                        w = to[eid]
                        if tree[w] == side:
                            if cap[eid ^ back] > 0 and not queued[w]:
                                queued[w] = True
                                active.append(w)
                            if parent[w] == eid ^ 1:
                                parent[w] = _ORPHAN
                                orphans.append(w)
        self._source_tree = (s, tree)
        return flow

    def source_side(self, s: int) -> set[int]:
        """Nodes reachable from s in the residual graph after ``max_flow(s, t)``.

        They are the nodes of the final source tree.  Every tree node is
        reached from s along tree arcs with residual capacity, and the
        tree is closed under residual arcs: a node leaves the active
        queue only when every residual arc leaving it ends in the tree,
        it is queued again when such an arc's head leaves the tree, an
        augmentation adds residual capacity only to arcs within one tree
        or from the sink tree into the source tree, and ``max_flow``
        stops with the queue empty.
        """
        if self._source_tree is None or self._source_tree[0] != s:
            raise ValueError(f"source_side({s}) needs a max_flow from source {s} first")
        tree = self._source_tree[1]
        return {v for v in range(self.n) if tree[v] > 0}
