"""Dinic max-flow on integer capacities.

Capacities are Python ints (callers scale exact rationals to a common
denominator first), so flow values are exact.

The set of nodes :meth:`FlowNetwork.source_side` reaches after
:meth:`FlowNetwork.max_flow` is the same for every maximum flow: it is
the smallest source set of a minimum cut.  So the cut it reports does
not depend on the order in which augmenting paths are found.
"""

from __future__ import annotations

from collections import deque


class FlowNetwork:
    def __init__(self, n: int):
        self.n = n
        self.adj: list[list[int]] = [[] for _ in range(n)]
        # flat edge arrays: to, cap (residual), paired reverse edge is idx ^ 1
        self.to: list[int] = []
        self.cap: list[int] = []

    def add_edge(self, u: int, v: int, cap: int, rcap: int = 0):
        self.adj[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(cap)
        self.adj[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(rcap)

    def _bfs(self, s: int, t: int) -> list[int] | None:
        """Residual distances from s; nodes past t's level stay unlabelled
        (-1) since no shortest path uses them.  None when t is unreachable."""
        adj, to, cap = self.adj, self.to, self.cap
        level = [-1] * self.n
        level[s] = 0
        q = deque([s])
        while q:
            u = q.popleft()
            nxt = level[u] + 1
            for eid in adj[u]:
                if cap[eid] > 0:
                    v = to[eid]
                    if level[v] < 0:
                        level[v] = nxt
                        if v == t:
                            return level
                        q.append(v)
        return None

    def _blocking_flow(self, s: int, t: int, level: list[int]) -> int:
        """Augment along shortest paths until none is left (one Dinic phase).

        The current path survives an augmentation up to its first
        saturated edge, and the search resumes from that edge's tail.
        """
        adj, to, cap = self.adj, self.to, self.cap
        ptr = [0] * self.n
        total = 0
        path: list[int] = []
        u = s
        while True:
            if u == t:
                bottleneck = min([cap[eid] for eid in path])
                cut = -1
                for i, eid in enumerate(path):
                    cap[eid] -= bottleneck
                    cap[eid ^ 1] += bottleneck
                    if cut < 0 and cap[eid] == 0:
                        cut = i
                total += bottleneck
                del path[cut:]
                u = to[path[-1]] if path else s
                continue
            edges = adj[u]
            want = level[u] + 1
            for i in range(ptr[u], len(edges)):
                eid = edges[i]
                if cap[eid] > 0 and level[to[eid]] == want:
                    ptr[u] = i
                    path.append(eid)
                    u = to[eid]
                    break
            else:
                if u == s:
                    return total
                level[u] = -1  # dead end, prune
                path.pop()
                u = to[path[-1]] if path else s
                ptr[u] += 1

    def max_flow(self, s: int, t: int) -> int:
        flow = 0
        while (level := self._bfs(s, t)) is not None:
            flow += self._blocking_flow(s, t, level)
        return flow

    def source_side(self, s: int) -> set[int]:
        """Nodes reachable from s in the residual graph (call after max_flow)."""
        seen = {s}
        q = deque([s])
        while q:
            u = q.popleft()
            for eid in self.adj[u]:
                v = self.to[eid]
                if self.cap[eid] > 0 and v not in seen:
                    seen.add(v)
                    q.append(v)
        return seen
