"""Least optimal potentials of an integer convex-cost tension problem.

The problem: integer potentials x in a box ``lower <= x <= upper`` and a
list of ``Tension`` arcs. Arc e holds its tension t = x[head] - x[tail] at
``floor`` or above and costs f_e(t), a convex piecewise-linear function
with integer kinks and integer slopes. ``least_optimal`` returns the least
x that minimizes the summed cost. It needs ``lower`` to be feasible, so the
problem always has an optimum.

It solves the dual, a min-cost circulation (Ahuja, Hochbaum and Orlin,
"Solving the convex cost integer dual network flow problem", Management
Science 49(7), 2003; Ahuja, Magnanti and Orlin, *Network Flows*, 1993),
by successive shortest paths, in ints only. Nodes are the potentials and a
root r whose potential is pinned at 0. Arc e becomes, from tail p to head
c:

- a constant flow slopes[0], the slope of f_e at its floor;
- an arc c -> p of cost -floor and unbounded capacity;
- per kink b_j, an arc p -> c of cost b_j and capacity slopes[j + 1] -
  slopes[j].

Each potential i gets an arc i -> r of cost -lower[i] and an arc r -> i of
cost upper[i], both unbounded. With potentials x, a residual arc u -> v of
cost w asks x[v] - x[u] <= w. On the unbounded arcs that is the floor and
the box. On a kink's arc it says that t is at most b_j while the arc has
room, and at least b_j while it carries flow: the flow on arc e is a slope
of f_e at t. So a circulation and potentials that satisfy every residual
arc's row are an optimal pair (complementary slackness), and the
circulation's value is minus f's total up to a constant.

Successive shortest paths keeps every residual arc's reduced cost w + x[u]
- x[v] at 0 or above. It starts from x = lower, with each kink's arc full
below the tension there and empty from it up, so every row holds. It then
sends each node's excess to a deficit, along a shortest path by reduced
cost, as much as the path's narrowest arc carries, and shifts the
potentials by the path lengths (Dijkstra, dense, on a few dozen nodes). The
flow is integral throughout, and each path cuts the total excess, so the
loop ends, with an optimal circulation.

By LP duality, an x is optimal exactly when it meets every residual arc's
row of one optimal circulation, with x[r] = 0. Those rows are difference
constraints, so the optimal set is closed under componentwise min, and
its least member is the longest-path solution from ``lower`` (Bellman-Ford,
at most one round per node, since the final potentials solve the system
and so it has no positive cycle). All its bounds are integers, so it is
integral, and it is the least optimal point of the problem's LP relaxation
as well.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tension:
    """The tension t = x[head] - x[tail], held at ``floor`` or above, and
    its cost: slope ``slopes[0]`` from ``floor`` to ``kinks[0]``,
    ``slopes[j]`` from ``kinks[j - 1]`` to ``kinks[j]``, and
    ``slopes[-1]`` past the last kink. Kinks rise strictly from above
    ``floor``, and slopes rise strictly. The default costs nothing."""

    tail: int
    head: int
    floor: int
    kinks: tuple[int, ...] = ()
    slopes: tuple[int, ...] = (0,)

    def cost(self, t: int) -> int:
        """The cost at tension ``t``, counted from 0 at ``floor``."""
        return self.slopes[0] * (t - self.floor) + sum(
            (above - below) * max(0, t - kink)
            for kink, below, above in zip(self.kinks, self.slopes, self.slopes[1:]))


def least_optimal(lower: list[int], upper: list[int], arcs: list[Tension]) -> list[int]:
    """Least x in the box that minimizes the arcs' summed cost (see the
    module docstring). Raises ``ValueError`` when ``lower`` misses an arc's
    floor or lies above ``upper``."""
    n = len(lower)
    root = n
    # Residual arcs in pairs, arc k and its reverse k ^ 1: head, room, cost.
    head: list[int] = []
    room: list[int] = []
    cost: list[int] = []
    out: list[list[int]] = [[] for _ in range(n + 1)]
    excess = [0] * (n + 1)
    # Paths never carry more in all than the starting excess, which is
    # below this: an arc this wide never fills.
    wide = 1 + sum(max(abs(s) for s in a.slopes) for a in arcs)

    def add(u: int, v: int, width: int, w: int, flow: int = 0) -> None:
        out[u].append(len(head))
        out[v].append(len(head) + 1)
        head.extend((v, u))
        room.extend((width - flow, flow))
        cost.extend((w, -w))
        excess[u] -= flow
        excess[v] += flow

    for a in arcs:
        p, c = a.tail, a.head
        t = lower[c] - lower[p]
        if t < a.floor:
            raise ValueError(f"lower bounds give arc {p} -> {c} tension {t} < {a.floor}")
        excess[p] -= a.slopes[0]
        excess[c] += a.slopes[0]
        add(c, p, wide, -a.floor)
        for b, below, above in zip(a.kinks, a.slopes, a.slopes[1:]):
            add(p, c, above - below, b, above - below if b < t else 0)
    for i in range(n):
        if lower[i] > upper[i]:
            raise ValueError(f"potential {i}: lower bound {lower[i]} > {upper[i]}")
        add(i, root, wide, -lower[i])
        add(root, i, wide, upper[i])

    pi = [*lower, 0]
    nodes = range(n + 1)
    while (s := next((u for u in nodes if excess[u] > 0), None)) is not None:
        dist: list[int | None] = [None] * (n + 1)
        via = [-1] * (n + 1)
        done = [False] * (n + 1)
        dist[s] = 0
        while True:
            u = min((v for v in nodes if not done[v] and dist[v] is not None),
                    key=dist.__getitem__)
            done[u] = True
            if excess[u] < 0:
                break
            for k in out[u]:
                v = head[k]
                if room[k] and not done[v]:
                    d = dist[u] + cost[k] + pi[u] - pi[v]
                    if dist[v] is None or d < dist[v]:
                        dist[v], via[v] = d, k
        # Every node reaches a deficit through the root, so u is one. Nodes
        # not settled are at least dist[u] away.
        for v in nodes:
            pi[v] += dist[v] if done[v] else dist[u]
        path = []
        v = u
        while v != s:
            path.append(via[v])
            v = head[via[v] ^ 1]
        flow = min(excess[s], -excess[u], *(room[k] for k in path))
        for k in path:
            room[k] -= flow
            room[k ^ 1] += flow
        excess[s] -= flow
        excess[u] += flow

    x = [*lower, 0]
    changed = True
    while changed:
        changed = False
        for u in nodes:
            for k in out[u]:
                if room[k] and x[head[k]] - cost[k] > x[u]:
                    x[u] = x[head[k]] - cost[k]
                    changed = True
    assert x[root] == 0, f"root potential {x[root]}"
    return x[:n]
