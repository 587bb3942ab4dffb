"""Exhaustive schedule search used to cross-check the optimizer.

Enumerates integer start-cycle vectors over a bounded horizon and scores
each candidate with the token simulator's per-edge record: a candidate is
feasible when every edge is stall-free, and its cost is the summed exact
peak occupancy. Nothing here consults the optimizer's constraint algebra,
so agreement between the two is a genuine two-route check.

**What the walk returns.** It is a depth-first walk over the stages in
topological order, each stage's starts in increasing order, so it meets
the vectors of the box [0, latest]^n in lexicographic order. It keeps a
vector only when its total is strictly below the incumbent's and returns
the last one kept: the lexicographically least optimal vector.
``candidates_tried`` counts the vectors kept. A feasible vector v is kept
exactly when its total is below that of every feasible vector before it,
which is a property of the vectors alone. So a prune changes neither the
result nor the count if every vector it skips fails that test, and if the
incumbent is still, at each point, the least total of all feasible vectors
before that point.

**Prunes.** Each of the three below skips only vectors that are not kept.
Three facts carry them. A feasible vector starts each stage j at least the
longest path of ``min_offset``s after each earlier stage r (``apart``), and
an edge's cost never falls as its consumer starts later (frees only move
later). The walk starts each stage at max(0, producer start +
``min_offset``) over its in-edges, the *start rule*; carried from the
placed starts through the unplaced stages in topological order, it gives a
lower bound E_j on each unplaced start, which only grows with any placed
start. Position c is a *cut* when no edge runs from before c to past it,
so every edge from before c into c or later ends at c; position 0 always
is one. The *block* after position i runs up to the next cut, or to the
last position. One pass of the start rule over the block per start serves
the bound and the shift.

- *Bound.* Every edge not yet placed is priced once, in a *unit*: an edge,
  or a pair q -> p -> j while p is unplaced, where p is fed by q alone and
  j by two or more (each edge in at most one pair). Each unit has one table
  by offset, from its least offset to the one from which its cost is flat.
  An edge's is its scored rows. The offsets of a pair add up to s_j - s_q,
  so at L = s_j - s_q it costs at least F(L) = min over x + y >= L of
  c_qp(x) + c_pj(y), x and y at least their ``min_offset``s; a pair's table
  is F, read off its edges' tables and flat from sat_qp + sat_pj on. A unit
  from a placed stage r (q of a pair) into the block is priced at E_j -
  s_r; any other unit at its *floor*, its price at the longest path from r
  to j. Past the next cut the bound reads floors alone, so its work per
  start stays within the block. As the current stage's start rises, its
  in-edge costs, the units from earlier stages and the floors cannot fall;
  once they reach the incumbent the loop stops. The units out of the
  current stage can fall (E_j - s_i shrinks as s_i grows), so their prices
  above their floors may only skip that one start. Every vector skipped
  costs at least the incumbent's total.
- *Horizon.* Below a stage started at s every descendant starts at least s
  plus the longest path of ``min_offset``s to it. A stage's loop ends
  where that would put a descendant past ``latest``: no vector the walk
  could reach lies below.
- *Shift.* Let c be a cut, and v a vector whose start at c lies above
  every in-edge's producer start plus ``min_offset``, and whose starts
  from c on are all at least 1. Then v with every start from c on one
  cycle earlier lies in the box, is feasible (edges from c on keep their
  offsets, and edges into c lose one cycle but stay at or above their
  ``min_offset``s), comes before v and costs no more, so v is not kept.
  At position i the walk checks this for the cuts c <= i with that room
  whose starts from c to i are all at least 1, reading E_j >= 1 on the
  block and, past the next cut c', the least start of c' from which the
  start rule puts every later stage at cycle 1 or later. Every larger
  start of i passes too (the bounds only grow, and at c = i so does the
  room on c's in-edges), so the loop stops. At c = 0 the shift is the
  translation v - min(v).

The incumbent stays right. The horizon prune skips no vector the walk
could reach. A vector skipped by the shift has an earlier one of no larger
total and a smaller sum of starts; following such shifts ends at a vector
the shift does not skip, which the walk has either met or skipped by the
bound, because its total already reached the incumbent's.

**Evaluation.** Each edge is scored on one record: the simulator's
``EdgeTicks`` for the edge with both stages started at 0, in the graph's
units of T ticks a cycle and L units a token (``PipelineGraph``).
``edge_ticks`` builds it from what the graph fixes alone (depths,
write end, overwrite delay, drain, volume, rates and kind); neither it nor
anything here reads ``EdgeModel``'s ``min_offset``, ``peak``, ``g`` or
``branches``.

The least feasible offset is read off the record in ticks. A Global
consumer may start once writing ends, at ``ceil(write_end / T)``, where
the writes at its start reach V. On any other edge the readable supply
and the demand are both ramps clamped to [0, V]: readable rises from 0 at
``write_start + T`` to V at ``write_end + T``, and demand from 0 at
``demand_start`` to V at ``demand_start + drain_end - overwrite_start``.
Two clamped ramps between the same levels satisfy demand <= readable
everywhere exactly when demand starts no earlier, and ends no earlier,
than the supply; the simulator's stall check (``EdgeTicks.stall``)
compares the two at all four of those ends, so it agrees. Moving the
consumer by the offset moves demand alone, so the least feasible offset is
``ceil((write_start + T - demand_start + max(0, (write_end - write_start)
- (drain_end - overwrite_start))) / T)``. The threshold is then scored
twice, at itself and one below, and must be feasible and infeasible:
feasibility only grows with the offset, so the two scorings prove it least
by the simulator's stall check alone. A failed probe is a
``ScheduleError("internal inconsistency: ...")``.

An offset of d cycles is scored on the record with only the consumer side
moved, by d*T ticks. The producer starts at 0 at every offset, so
``write_start``, ``write_end``, the writes and the readable supply are
those at 0; ``demand_start``, ``overwrite_start``, ``consumer_start`` and
``drain_end`` are each the consumer's start plus a span the graph fixes,
so each is its value at 0 plus d*T. The stall check is ``EdgeTicks.stall``
at the moved times. The peak is the largest occupancy over the moved
curves' kinks. The occupancy, max(0, writes - raw frees), is linear
between those kinks and constant outside them, so largest at one of them.
It is 0 at a root, where the writes equal the raw frees and both lie in
[0, V]; at ``write_start``, which has no writes yet; and at ``drain_end +
d*T``, where the raw frees are V. So the peak is the largest of 0 and the
occupancy at ``write_end`` and ``overwrite_start + d*T``, a multiple of
1/L.

Each edge's peak is scored at most once per offset and kept in its table
by offset from the threshold, whose first row is the threshold's score.
Rows from the threshold on are always feasible: the threshold passes, and
a later consumer meets the same supply with its demand no earlier (a
Global one, with every write done), so a row that fails the stall check
is a ``ScheduleError("internal inconsistency: ...")``. ``sat_offset``,
read off the record too, is the larger of the threshold and
``ceil((write_end - demand_start) / T)``. An offset above it reads its
row: from there the overwrite starts at or past the producer's write end
(``overwrite_delay`` is at least the consumer's depth), so the whole
volume V is resident at the write end and the peak is V, the most any
occupancy can reach. Rows are scored on first use, because a walk on a
tree uses a few offsets of ranges a hundred long.

The walk adds and compares integers, every peak in units of 1/L, and
the total is a ``Fraction`` again at the end.

**Budget.** A walk that scores ``MAX_SEARCH_NODES`` candidate starts stops
with ``SearchBudgetError``; ``verify`` then reports neither a match nor a
mismatch but an inconclusive verdict with the best total found.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import inf

from .graph import PipelineGraph
from .optimizer import (
    EdgeModel,
    ScheduleError,
    SearchLimitError,
    build_constraints,
    default_horizon,
    edge_models,
    solve,
)
from .simulator import edge_ticks

# Candidate starts the walk may score in one search. Over 7086 searches
# (the default horizon, 20 and 60 for each graph of `suite(200,
# start_seed=5000)`, `suite(100, shape="tree")`, `suite(1430,
# start_seed=30000)`, `suite(600, start_seed=20000)` and the benchmark's
# two seed-1 pools) the most was 180, a tree at its default horizon; 69 on
# the benchmark's diamond5_1, 91 on the 8-stage chain of two diamonds in
# the Tier-1 tests, and at most 1487 on 16 random chains of 2 to 5
# diamonds. A skip edge across diamonds leaves the graph one block, and
# such graphs reach the cap: 13 of the 100 chains of three diamonds with
# the skip edge s1 -> s8 that `tests/_pipegen.drawn` draws from
# `random.Random(f"skip18-{s}")`, s = 0..99, at the default horizon. There
# a node costs 1.0 to 2.0 us on two shared CPUs, so the cap ends a search
# in 4 to 8 seconds.
MAX_SEARCH_NODES = 4_000_000


class SearchBudgetError(Exception):
    """The walk scored ``MAX_SEARCH_NODES`` candidates before it finished:
    the best total found so far is an upper bound, not a proven minimum."""

    def __init__(self, nodes: int, best_total: Fraction | None, candidates: int):
        super().__init__(f"oracle search stopped after {nodes} nodes")
        self.nodes = nodes
        self.best_total = best_total
        self.candidates = candidates


class _EdgeEval:
    """Feasibility and exact peak for one edge as a function of the
    consumer-minus-producer start offset. Scored by the simulator's integer
    record at offset 0, never by ``EdgeModel``'s closed forms."""

    def __init__(self, model: EdgeModel):
        self.model = model
        e = model.edge
        t = self._ticks = edge_ticks(model, {e.producer: 0, e.consumer: 0})
        least = self._threshold_guess()
        ok, self.min_cost = self.evaluate(least)
        if not ok or self.evaluate(least - 1)[0]:
            raise ScheduleError(
                f"internal inconsistency: offset {least} is not the least that "
                f"edge {model.key} passes the stall check at")
        self.min_offset = least
        # Offset from which the overwrite starts at or past the producer's
        # write end: the whole volume is resident at once, so the peak and
        # the verdict stop changing, and later offsets read this one.
        self.sat_offset = max(least, -((t.demand_start - t.write_end) // t.ticks))

    def _threshold_guess(self) -> int:
        """The least offset at which the record at offset 0, its consumer
        side moved by it, passes the stall check (see the module
        docstring): a Global consumer starts once writing ends; any other
        starts demand, and finishes it, no earlier than the readable supply,
        which trails the writes by one cycle."""
        e = self._ticks
        if e.is_global:
            return -(-e.write_end // e.ticks)
        lag = max(0, (e.write_end - e.write_start) - (e.drain_end - e.overwrite_start))
        return -((e.demand_start - e.write_start - e.ticks - lag) // e.ticks)

    def evaluate(self, offset: int) -> tuple[bool, int]:
        """(passes the stall check, peak in the graph's units) at
        ``offset``: the curves at offset 0 with the consumer side moved by
        it (see the module docstring)."""
        e = self._ticks
        d = offset * e.ticks
        peak = max(e.occupancy(e.write_end, d), e.occupancy(e.overwrite_start + d, d))
        return e.stall(d) is None, peak


@dataclass
class OracleReport:
    matches: bool
    oracle_total: Fraction | None
    oracle_starts: dict[str, int] | None
    solver_total: Fraction | None
    solver_starts: dict[str, int] | None
    candidates_tried: int
    horizon: int
    # Nodes scored when the search ran out of ``MAX_SEARCH_NODES``; then
    # ``oracle_total`` is the best found, and the verdict is neither.
    budget_nodes: int | None = None

    def __str__(self) -> str:
        if self.budget_nodes is not None:
            best = "none" if self.oracle_total is None else self.oracle_total
            return f"inconclusive (budget): {self.budget_nodes} nodes, best total {best}"
        if self.solver_total is None and self.oracle_total is None:
            return f"both infeasible within horizon {self.horizon}: match"
        if self.solver_total is None or self.oracle_total is None:
            # One route found a schedule the other says does not exist.
            if self.solver_total is None:
                side, other = "solver", f"oracle total {self.oracle_total} at {self.oracle_starts}"
            else:
                side, other = "oracle", f"solver total {self.solver_total} at {self.solver_starts}"
            return (
                f"MISMATCH: {side} infeasible within horizon {self.horizon}, "
                f"{other} ({self.candidates_tried} candidates)"
            )
        verdict = "match" if self.matches else "MISMATCH"
        return (
            f"{verdict}: oracle total {self.oracle_total} at {self.oracle_starts}, "
            f"solver total {self.solver_total} at {self.solver_starts} "
            f"({self.candidates_tried} candidates, horizon {self.horizon})"
        )


def exhaustive_minimum(
    graph: PipelineGraph, horizon: int
) -> tuple[Fraction | None, dict[str, int] | None, int]:
    """Exact minimum total buffer over start vectors in [0, horizon]^n.

    Returns (total, starts, candidates_tried); total is None when no
    feasible vector exists within the horizon. Raises ``SearchBudgetError``
    once the walk has scored ``MAX_SEARCH_NODES`` candidate starts.
    """
    order = graph.topo_order
    pos = {sid: i for i, sid in enumerate(order)}
    evals = [_EdgeEval(m) for m in edge_models(graph)]
    in_edges = [[(pos[graph.edges[i].producer], evals[i]) for i in graph.in_edges[sid]]
                for sid in order]
    # Every optimum has a representative (shift the schedule so some stage
    # sits at cycle 0) in which each start is pinned through a chain of
    # edges, each contributing at most its saturation or earliest offset.
    span = 1 + sum(max(abs(ev.min_offset), abs(ev.sat_offset)) + 1 for ev in evals)
    latest = min(horizon, span)
    total, starts, tried = _walk(in_edges, latest, graph.unit)
    if total is None:
        return None, None, tried
    return Fraction(total, graph.unit), dict(zip(order, starts)), tried


def _walk(
    in_edges: list[list[tuple[int, _EdgeEval]]], latest: int, scale: int
) -> tuple[int | None, list[int] | None, int]:
    """The depth-first walk of ``exhaustive_minimum`` with every peak
    counted in units of 1/``scale`` element."""
    n = len(in_edges)
    # Each position's (producer, ``min_offset``) pairs.
    feeds = [[(p, ev.min_offset) for p, ev in ins] for ins in in_edges]

    def carried(bounds: list, first: int) -> list:
        """``bounds`` with the start rule carried from position ``first`` on:
        each position at least each producer's bound plus its ``min_offset``."""
        for j in range(first, n):
            for p, off in feeds[j]:
                if bounds[p] + off > bounds[j]:
                    bounds[j] = bounds[p] + off
        return bounds

    # The longest path of ``min_offset``s from each position to each later
    # one, -inf where there is none: every feasible vector starts j at
    # least that long after r.
    apart = [carried([-inf] * r + [0] + [-inf] * (n - r - 1), r + 1) for r in range(n)]
    # How far past a stage's start the start rule pushes its descendants,
    # and at least 0.
    reach = [max(0, *longest) for longest in apart]
    # Position c is a cut when no edge runs from before c to past it.
    cut = [True] * n
    for j in range(n):
        for p, _ in feeds[j]:
            for c in range(p + 1, j):
                cut[c] = False
    # The least start x of cut c from which the start rule puts every later
    # position at cycle 1 or later. From c on, the rule's bound on j is the
    # larger of x + apart[c][j] and its bound with x at -inf, ``rest``.
    need = [inf] * n
    for c in range(1, n):
        if cut[c]:
            rest = carried([0] * c + [-inf] + [0] * (n - c - 1), c + 1)
            need[c] = max([1] + [1 - apart[c][j] for j in range(c + 1, n) if rest[j] < 1])

    def scored(ev: _EdgeEval, offset: int) -> int:
        """A row: the peak at ``offset``, above the threshold."""
        ok, peak = ev.evaluate(offset)
        if not ok:
            raise ScheduleError(
                f"internal inconsistency: edge {ev.model.key} fails the stall check "
                f"at offset {offset}, above its least feasible offset {ev.min_offset}")
        return peak

    # The bound prices units. A unit is (first position r, last position j,
    # least offset, the offset from which its cost is flat, its cost by
    # offset from the least, None until read, the function that fills a
    # row, and its floor: its cost at apart[r][j]). Every lookup clamps the
    # offset to the flat one, indexes, and fills a missing row.
    def price(unit: tuple, d: int) -> int:
        """A unit's cost at offset ``d``."""
        lo, hi, table, fill = unit[2:6]
        k = (hi if d > hi else d) - lo
        c = table[k]
        if c is None:
            c = table[k] = fill(k)
        return c

    def with_floor(*unit) -> tuple:
        return unit + (price(unit, apart[unit[0]][unit[1]]),)

    def edge(p: int, j: int, ev: _EdgeEval) -> tuple:
        """The edge p -> j as a unit, row 0 the threshold's score."""
        off = ev.min_offset
        table = [ev.min_cost] + [None] * (ev.sat_offset - off)
        return with_floor(p, j, off, ev.sat_offset, table, lambda k: scored(ev, off + k))

    def pair(first: tuple, second: tuple) -> tuple:
        """The pair q -> p -> j as a unit, its cost F(L). Costs never fall with
        the offset, so x + y = L is enough; past ``sat_offset`` they are flat,
        so only the x in [L - sat_pj, sat_qp] and the two ends with one edge
        at its ``min_offset`` are read."""
        q, _, m1, t1, _, _, _ = first
        _, j, m2, t2, _, _, _ = second

        def fill(k: int) -> int:
            total = m1 + m2 + k
            cost = min(price(first, m1) + price(second, total - m1),
                       price(first, total - m2) + price(second, m2))
            for x in range(max(m1, total - t2), min(t1, total - m2) + 1):
                cost = min(cost, price(first, x) + price(second, total - x))
            return cost

        return with_floor(q, j, m1 + m2, t1 + t2, [None] * (t1 + t2 - m1 - m2 + 1), fill)

    # Each position's in-edges, and the pairs q -> p -> j keyed by p.
    edges = [[edge(p, j, ev) for p, ev in ins] for j, ins in enumerate(in_edges)]
    pairs = {}
    for j in range(n):
        for second in edges[j] if len(edges[j]) > 1 else ():
            p = second[0]
            if len(edges[p]) == 1 and p not in pairs:
                pairs[p] = pair(edges[p][0], second)
    # Per position i, built from the last one back so that ``nxt`` is the
    # next cut: the block after i, the positions up to the next cut (or the
    # last), each with its (producer, ``min_offset``) pairs and its longest
    # path from i for the start rule, and with the shift prune's least
    # start; the units into the block from a placed first position, priced
    # at the start rule's bound on j: those from before i, and those from i
    # itself; and ``floor``, the floors of every unplaced unit but those
    # from before i.
    plans = []
    nxt = n
    for i in range(n - 1, -1, -1):
        block = range(i + 1, min(nxt, n - 1) + 1)
        spread = [(j, feeds[j], apart[i][j]) for j in block]
        lifted = [(j, need[j] if j == nxt else 1) for j in block]
        before, out, floor = [], [], 0
        for j in range(i + 1, n):
            if j in pairs:
                # j's one in-edge is priced in j's pair.
                continue
            for unit in edges[j]:
                r = unit[0]
                if r > i and r in pairs and pairs[r][1] == j:
                    unit = pairs[r]
                    r = unit[0]
                if r < i and j in block:
                    before.append(unit)
                else:
                    floor += unit[6]
                    if r == i and j in block:
                        out.append(unit)
        plans.append((spread, lifted, before, out, floor))
        if cut[i]:
            nxt = i
    plans.reverse()
    budget = MAX_SEARCH_NODES

    best_total: int | None = None
    best_starts: list[int] | None = None
    tried = 0
    nodes = 0
    placed = [0] * n

    def place(i: int, partial: int, shiftable: bool) -> None:
        """Walk position i's starts. ``shiftable``: some cut c < i leaves
        its in-edges above their ``min_offset``s, and every start from c
        to i - 1 is at least 1."""
        nonlocal best_total, best_starts, tried, nodes
        if i == n:
            tried += 1
            if best_total is None or partial < best_total:
                best_total = partial
                best_starts = placed[:]
            return
        ins = edges[i]
        spread, lifted, before, out, floor = plans[i]
        pushed = -1
        for p, off in feeds[i]:
            if placed[p] + off > pushed:
                pushed = placed[p] + off
        at_cut = cut[i]
        # The start rule's bound on each stage j of the block is the larger
        # of start + apart[i][j] and its bound from the stages before i.
        lines = []
        for j, js, a in spread:
            b = 0
            for p, off in js:
                if p != i and placed[p] + off > b:
                    b = placed[p] + off
            placed[j] = b
            lines.append((j, a, b))
        # Past latest - reach[i] some descendant would start past latest.
        for start in range(max(0, pushed), latest - reach[i] + 1):
            placed[i] = start
            # The bounds on the block, kept where the starts go until the
            # walk places them.
            for j, a, b in lines:
                placed[j] = start + a if start + a > b else b
            shift = start > 0 and (shiftable or (at_cut and start > pushed))
            if shift:
                for j, least in lifted:
                    if placed[j] < least:
                        break
                else:
                    # Every vector below, shifted one cycle earlier from
                    # the cut on, is feasible, lex-smaller and no costlier.
                    break
            if nodes == budget:
                raise SearchBudgetError(
                    nodes, None if best_total is None else Fraction(best_total, scale),
                    tried)
            nodes += 1
            cost = partial
            for p, _, lo, hi, table, fill, _ in ins:
                d = start - placed[p]
                k = (hi if d > hi else d) - lo
                c = table[k]
                if c is None:
                    c = table[k] = fill(k)
                cost += c
            if best_total is not None:
                bound = cost + floor
                for r, j, lo, hi, table, fill, _ in before:
                    d = placed[j] - placed[r]
                    k = (hi if d > hi else d) - lo
                    c = table[k]
                    if c is None:
                        c = table[k] = fill(k)
                    bound += c
                if bound >= best_total:
                    # No term so far falls as the start rises.
                    break
                for _, j, lo, hi, table, fill, least in out:
                    d = placed[j] - start
                    k = (hi if d > hi else d) - lo
                    c = table[k]
                    if c is None:
                        c = table[k] = fill(k)
                    bound += c - least
                if bound >= best_total:
                    continue
            place(i + 1, cost, shift)

    place(0, 0, False)
    return best_total, best_starts, tried


def verify_against_oracle(
    graph: PipelineGraph, horizon: int | None = None
) -> OracleReport:
    """Compare the exact solver against exhaustive enumeration."""
    if horizon is None:
        horizon = default_horizon(graph)

    solver_total: Fraction | None = None
    solver_starts: dict[str, int] | None = None
    try:
        solution = solve(build_constraints(graph, horizon=horizon))
        solver_total = solution.total_buffer
        solver_starts = solution.start_cycles
    except SearchLimitError:
        raise
    except ScheduleError:
        pass

    budget_nodes = None
    try:
        oracle_total, oracle_starts, tried = exhaustive_minimum(graph, horizon)
    except SearchBudgetError as exc:
        oracle_total, oracle_starts, tried = exc.best_total, None, exc.candidates
        budget_nodes = exc.nodes
    return OracleReport(
        # A route that finds no schedule reports None, so two infeasible
        # verdicts match and one feasible verdict matches neither.
        matches=budget_nodes is None and solver_total == oracle_total,
        oracle_total=oracle_total,
        oracle_starts=oracle_starts,
        solver_total=solver_total,
        solver_starts=solver_starts,
        candidates_tried=tried,
        horizon=horizon,
        budget_nodes=budget_nodes,
    )
