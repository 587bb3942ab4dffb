"""kd-tree nearest-neighbor and range search with step-capped traversal.

The tree is a median-split bucket kd-tree (Friedman, Bentley and Finkel,
ACM TOMS 3(3), 1977). An internal node sorts its points stably along its
widest dimension (the lowest-numbered one on equal extents), gives the
first half (rounded down) to the left child and splits at the
upper-median coordinate. Tied coordinates keep the order of the parent's
sort, which is point index order only at the root. The build sorts each
level's slices of one permutation at once, by the key ``(node * n + rank)
* width + position``: ``rank`` is a coordinate's dense rank among its
dimension's distinct values, ``width`` the largest slice and ``position``
a point's place in its slice. The key orders by node, then coordinate,
and equal coordinates (``-0.0 == 0.0`` too) fall back to their place in
the parent's order, as in a stable sort of the coordinates. No two points
share a key, so any sort algorithm gives the same tree.

The tree is flat. Node ids number it in level order from the root, 0, and
index per-node lists: an internal node's children are ``child[i]`` and
``child[i] + 1``, and a leaf's split dimension is -1. The points are kept
once more in leaf order, as Python lists: ``index`` and, in ``coords``,
one list per axis. Each node's points are the slice ``[lo, hi)``, and a
leaf's, up to ``leaf_size`` of them, ascend by index. Both searches run
one loop over an explicit stack of (node, squared distance to its
splitting plane): depth-first, descending toward the query before
backtracking, and skipping a node whose plane lies strictly beyond the
current bound. For kNN the bound is the k-th best distance, infinite until
k points are held. Range search is the same loop with k the tree's size
and the radius squared as the starting bound, which then stays fixed: it
could only tighten once every point is held, and by then every node has
been visited. A leaf scan evaluates ``_squared_distances``' expression,
``dx*dx + dy*dy + dz*dz`` left to right, on Python floats: the same IEEE
double operations in the same order, so the same bits, with no numpy call
per leaf.

Every node visit (internal or leaf) costs one step; the root visit is step
one. A search given a step deadline stops the moment the budget is spent
and returns whatever it has found, flagged as truncated, so its latency is
input-independent. Without a deadline the result is exact.

Distances are squared Euclidean throughout; ordering ties break toward the
smaller point index, which makes results bit-comparable to brute force.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, isfinite

import numpy as np


@dataclass
class KdTree:
    # Per node; a leaf has split value 0.0 and child -1.
    split_dim: list[int]
    split_value: list[float]
    child: list[int]
    lo: list[int]
    hi: list[int]
    # Leaf order: point indices and one coordinate list per axis.
    index: list[int]
    coords: tuple[list[float], list[float], list[float]]
    node_count: int
    depth: int


def _squared_distances(points: np.ndarray, query: np.ndarray) -> np.ndarray:
    # One fixed evaluation order so tree search and brute force agree
    # bit for bit; the leaf scans repeat it on Python floats.
    d = points - query
    return d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1] + d[..., 2] * d[..., 2]


@dataclass
class SearchResult:
    """Neighbors as (point index, squared distance), ascending by
    (distance, index). ``steps_used`` counts node visits; ``truncated``
    marks a search stopped by its deadline with work left to do."""

    neighbors: list[tuple[int, float]]
    steps_used: int
    truncated: bool
    visited_points: list[int] | None = None


def kdtree_build(points: np.ndarray, leaf_size: int = 16) -> KdTree:
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 3:
        raise ValueError("points must have shape (n, 3)")
    if len(points) < 1:
        raise ValueError("cannot build a tree over zero points")
    if leaf_size < 1:
        raise ValueError("leaf_size must be >= 1")

    n = len(points)
    perm = np.arange(n, dtype=np.int64)
    # One row per axis, so a level's slices are contiguous for reduceat and
    # a coordinate's rank is one flat read, at ``dim * n + point``.
    by_axis = np.ascontiguousarray(points.T)
    rank = np.concatenate([np.unique(c, return_inverse=True)[1] for c in by_axis])
    lo, hi = np.zeros(1, dtype=np.int64), np.full(1, n, dtype=np.int64)
    levels, node_count = [], 0
    while len(lo):
        node_count += len(lo)
        dims, values, child = np.full(len(lo), -1), np.zeros(len(lo)), np.full(len(lo), -1)
        levels.append((dims, values, child, lo, hi))
        inner = hi - lo > leaf_size
        if not inner.any():
            break
        starts, sizes = lo[inner], (hi - lo)[inner]
        local = np.cumsum(sizes) - sizes
        offset = np.arange(sizes.sum()) - np.repeat(local, sizes)
        pos = np.repeat(starts, sizes) + offset
        idx = perm[pos]
        sub = by_axis.take(idx, axis=1)
        top = np.maximum.reduceat(sub, local, axis=1)
        split = np.argmax(top - np.minimum.reduceat(sub, local, axis=1), axis=0)
        segment = np.repeat(np.arange(len(starts)), sizes)
        # The sizes within a level differ by at most one, so s slices hold
        # width <= n / s + 1 points each and the key is below
        # s * width * n <= 2 * n**2: exact in int64 for n < 2**31.
        width = int(sizes.max())
        key = (segment * n + rank[split[segment] * n + idx]) * width + offset
        perm[pos] = idx[np.argsort(key)]
        mids = starts + sizes // 2
        dims[inner], values[inner] = split, by_axis[split, perm[mids]]
        child[inner] = node_count + 2 * np.arange(len(starts))
        lo = np.column_stack((starts, mids)).ravel()
        hi = np.column_stack((mids, starts + sizes)).ravel()
    dims, values, child, lo, hi = (np.concatenate(column) for column in zip(*levels))
    # Leaves tile [0, n): a position's leaf starts at the largest leaf ``lo``
    # <= it. The key is unique and below n**2.
    leaf_start = np.zeros(n, dtype=np.int64)
    leaf_start[lo[dims < 0]] = lo[dims < 0]
    index = perm[np.argsort(np.maximum.accumulate(leaf_start) * n + perm)]
    columns = (column.tolist() for column in (dims, values, child, lo, hi))
    coords = tuple(axis.take(index).tolist() for axis in by_axis)
    return KdTree(*columns, index=index.tolist(), coords=coords, node_count=node_count,
                  depth=len(levels))


def _search(
    tree: KdTree,
    query: np.ndarray,
    k: int,
    worst: float,
    deadline: int | None,
    visited: list[int] | None,
) -> SearchResult:
    """The one search loop: the ``k`` nearest points at squared distance at
    most ``worst``, which tightens to the k-th best once ``k`` are held.
    ``visited``, when a list, receives every point scanned."""
    if deadline is not None and deadline < 1:
        raise ValueError("deadline must be >= 1 when set")
    qs = np.asarray(query, dtype=np.float64).tolist()
    # A NaN distance is never `> worst`, so the scan below would keep it.
    if not all(map(isfinite, qs)):
        raise ValueError("query must be finite")
    qx, qy, qz = qs
    dims, values, child, lo, hi = tree.split_dim, tree.split_value, tree.child, tree.lo, tree.hi
    index, (xs, ys, zs) = tree.index, tree.coords
    # The best so far, keyed (-dist2, -index): appended until k are held,
    # then a max-heap.
    heap: list[tuple[float, int]] = []
    stack: list[tuple[int, float]] = [(0, 0.0)]
    steps, truncated = 0, False
    while stack:
        if deadline is not None and steps >= deadline:
            truncated = True
            break
        node, plane_d2 = stack.pop()
        if plane_d2 > worst:
            continue
        steps += 1
        dim = dims[node]
        if dim < 0:
            a, b = lo[node], hi[node]
            for idx, x, y, z in zip(index[a:b], xs[a:b], ys[a:b], zs[a:b]):
                dx, dy, dz = x - qx, y - qy, z - qz
                d2 = dx * dx + dy * dy + dz * dz
                # A point farther than the worst held cannot replace it.
                if d2 > worst:
                    continue
                if len(heap) < k:
                    heap.append((-d2, -idx))
                    if len(heap) == k:
                        heapq.heapify(heap)
                        worst = -heap[0][0]
                elif (-d2, -idx) > heap[0]:
                    heapq.heapreplace(heap, (-d2, -idx))
                    worst = -heap[0][0]
            if visited is not None:
                visited += index[a:b]
            continue
        gap = qs[dim] - values[node]
        left = child[node]
        near, far = (left, left + 1) if gap < 0 else (left + 1, left)
        stack.append((far, gap * gap))
        stack.append((near, 0.0))
    return SearchResult(
        neighbors=[(-idx, -d2) for d2, idx in sorted(heap, reverse=True)],
        steps_used=steps,
        truncated=truncated,
        visited_points=visited,
    )


def knn_search(
    tree: KdTree,
    query: np.ndarray,
    k: int,
    deadline: int | None = None,
    record_visited: bool = False,
) -> SearchResult:
    """k nearest neighbors of ``query``; exact when ``deadline`` is None.

    Asking for more neighbors than the tree holds returns every point.
    ``record_visited`` lists every point scanned, in scan order.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    return _search(tree, query, k, float("inf"), deadline, [] if record_visited else None)


def range_search(
    tree: KdTree,
    query: np.ndarray,
    radius: float,
    deadline: int | None = None,
) -> SearchResult:
    """All points within ``radius`` (inclusive) of ``query``, ascending by
    (distance, index); the deadline-capped variant returns the subset found
    within the step budget."""
    if not radius > 0:  # also rejects NaN, which would never prune
        raise ValueError("radius must be positive")
    return _search(tree, query, len(tree.index), radius * radius, deadline, None)


def brute_force_knn(points: np.ndarray, query: np.ndarray, k: int) -> list[tuple[int, float]]:
    """Reference answer: exhaustive (distance, index) ranking."""
    d2 = _squared_distances(points, np.asarray(query, dtype=np.float64))
    ranked = sorted((float(d), int(i)) for i, d in enumerate(d2))
    return [(idx, d) for d, idx in ranked[:k]]


def brute_force_range(
    points: np.ndarray, query: np.ndarray, radius: float
) -> list[tuple[int, float]]:
    d2 = _squared_distances(points, np.asarray(query, dtype=np.float64))
    hits = sorted((float(d), int(i)) for i, d in enumerate(d2) if d <= radius * radius)
    return [(idx, d) for d, idx in hits]


@dataclass
class DeadlineProfile:
    """Step statistics from uncapped searches plus the suggested cap."""

    deadline: int
    mean_steps: float
    steps: list[int] = field(repr=False, default_factory=list)


def profile_deadline(
    tree: KdTree,
    queries: np.ndarray,
    k: int,
    fraction,
) -> DeadlineProfile:
    """Run uncapped searches and suggest ceil(fraction * mean steps)."""
    frac = Fraction(fraction)
    if not (0 < frac <= 1):
        raise ValueError("fraction must be in (0, 1]")
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    if len(queries) == 0:
        raise ValueError("query set is empty")
    steps = [knn_search(tree, q, k).steps_used for q in queries]
    mean = Fraction(sum(steps), len(steps))
    return DeadlineProfile(
        deadline=ceil(frac * mean),
        mean_steps=float(mean),
        steps=steps,
    )
