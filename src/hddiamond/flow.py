"""Maximum flow and minimum s-t cut.

Dinic's algorithm on adjacency lists.  It only adds, subtracts, compares
and takes minima, so exact capacities give an exact flow;
:func:`hddiamond.fixed_schedule_rate` runs it on Python ints in both
arithmetics.  :data:`UNBOUNDED` (``math.inf``) marks an edge that can never
be cut: an infinite capacity is never decreased and never meets another
infinite value in a subtraction.
"""

from __future__ import annotations

from collections import deque

from .network import UNBOUNDED, LinkValue

__all__ = ["FlowGraph", "max_flow"]


class FlowGraph:
    """A directed graph with edge capacities.  Edge ``e`` and its residual
    twin ``e ^ 1`` are stored side by side; the twin starts at capacity 0."""

    def __init__(self, nodes: int) -> None:
        self.adj: list[list[int]] = [[] for _ in range(nodes)]
        self.to: list[int] = []
        self.cap: list[LinkValue] = []

    def add_node(self) -> int:
        self.adj.append([])
        return len(self.adj) - 1

    def add_edge(self, u: int, v: int, cap: LinkValue) -> None:
        self.adj[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(cap)
        self.adj[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(0)


def _levels(g: FlowGraph, s: int) -> list[int]:
    """Breadth-first distance from ``s`` over edges with residual capacity
    (-1 where unreachable)."""
    level = [-1] * len(g.adj)
    level[s] = 0
    queue = deque([s])
    adj, to, cap = g.adj, g.to, g.cap
    while queue:
        u = queue.popleft()
        nxt = level[u] + 1
        for e in adj[u]:
            v = to[e]
            if level[v] < 0 and cap[e] > 0:
                level[v] = nxt
                queue.append(v)
    return level


def _blocking_flow(g: FlowGraph, s: int, t: int, level: list[int]) -> LinkValue:
    """Augment along shortest residual paths until none is left at this
    level structure; returns the flow pushed (``UNBOUNDED`` as soon as a
    path has no finite edge)."""
    adj, to, cap = g.adj, g.to, g.cap
    it = [0] * len(adj)
    total: LinkValue = 0
    path: list[int] = []
    u = s
    while True:
        if u == t:
            f = min(cap[e] for e in path)
            if f == UNBOUNDED:
                return UNBOUNDED
            total += f
            keep = len(path)
            for i, e in enumerate(path):
                if cap[e] != UNBOUNDED:
                    cap[e] -= f
                    if cap[e] == 0 and i < keep:
                        keep = i
                if cap[e ^ 1] != UNBOUNDED:
                    cap[e ^ 1] += f
            # Resume from the tail of the first saturated edge.
            del path[keep:]
            u = to[path[-1]] if path else s
            continue
        edges = adj[u]
        i, end = it[u], len(edges)
        want = level[u] + 1
        while i < end:
            e = edges[i]
            if cap[e] > 0 and level[to[e]] == want:
                break
            i += 1
        it[u] = i
        if i < end:
            path.append(edges[i])
            u = to[edges[i]]
        elif u == s:
            return total
        else:
            level[u] = -1  # dead end for the rest of this phase
            u = to[path.pop() ^ 1]
            it[u] += 1


def max_flow(g: FlowGraph, s: int, t: int) -> tuple[LinkValue, list[bool]]:
    """Maximum ``s``-``t`` flow value and the minimal sink side of a minimum
    cut: the nodes that still reach ``t`` in the final residual graph, which
    lie inside every minimum cut's sink side.  If some path carries no finite
    capacity, the flow is ``UNBOUNDED``; every cut is then a minimum cut and
    the sink side is ``{t}`` alone.  Consumes the graph's capacities.
    """
    value: LinkValue = 0
    while True:
        level = _levels(g, s)
        if level[t] < 0:
            break
        pushed = _blocking_flow(g, s, t, level)
        if pushed == UNBOUNDED:
            return UNBOUNDED, [v == t for v in range(len(g.adj))]
        value += pushed
    sink_side = [False] * len(g.adj)
    sink_side[t] = True
    queue = deque([t])
    adj, to, cap = g.adj, g.to, g.cap
    while queue:
        v = queue.popleft()
        for e in adj[v]:
            u = to[e]
            if not sink_side[u] and cap[e ^ 1] > 0:
                sink_side[u] = True
                queue.append(u)
    return value, sink_side
