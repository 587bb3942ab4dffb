"""kd-tree nearest-neighbor and range search with step-capped traversal.

The tree is a median-split bucket kd-tree. An internal node sorts its
points stably along its widest dimension (the lowest-numbered one on equal
extents), gives the first half (rounded down) to the left child and splits
at the upper-median coordinate. Tied coordinates keep the order of the
parent's sort, which is point index order only at the root. Leaves hold up
to ``leaf_size`` points, ascending by index, and node ids number the tree
in preorder. Each search is one loop over an explicit stack of (node, squared
distance to its splitting plane): depth-first, descending toward the query
before backtracking, and skipping a node whose plane lies strictly beyond the
current k-th best distance (or the radius).

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
from functools import cache
from math import ceil

import numpy as np


@dataclass
class KdNode:
    node_id: int
    # Internal nodes carry a split; leaves carry a bucket.
    split_dim: int = -1
    split_value: float = 0.0
    left: "KdNode | None" = None
    right: "KdNode | None" = None
    bucket: np.ndarray | None = None

    @property
    def is_leaf(self) -> bool:
        return self.bucket is not None


@dataclass
class KdTree:
    root: KdNode
    points: np.ndarray
    leaf_size: int
    node_count: int
    depth: int


def _squared_distances(points: np.ndarray, query: np.ndarray) -> np.ndarray:
    # One fixed evaluation order so tree search and brute force agree
    # bit for bit.
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

    @cache
    def subtree_nodes(m: int) -> int:
        # Nodes in the subtree over m points; preorder ids skip a left
        # subtree by this many.
        return 1 if m <= leaf_size else 1 + subtree_nodes(m // 2) + subtree_nodes(m - m // 2)

    # Each pass splits one level's internal nodes; ``order`` holds their
    # points, one contiguous segment per node, left to right.
    n = len(points)
    root = KdNode(node_id=0)
    level, order, sizes, depth = [root], np.arange(n, dtype=np.int64), np.array([n]), 1
    if n <= leaf_size:
        root.bucket, level = order, []
    while level:
        depth += 1
        starts = np.cumsum(sizes) - sizes
        sub = points[order]
        extents = np.maximum.reduceat(sub, starts) - np.minimum.reduceat(sub, starts)
        dims = np.argmax(extents, axis=1)
        segment = np.repeat(np.arange(len(level)), sizes)
        # Stable within a segment: tied coordinates keep the parent's order.
        order = order[np.lexsort((sub[np.arange(len(order)), dims[segment]], segment))]
        mids = sizes // 2
        values = points[order[starts + mids], dims]
        next_level = []
        for node, dim, value, start, mid, size in zip(
                level, dims.tolist(), values.tolist(), starts.tolist(), mids.tolist(),
                sizes.tolist()):
            node.split_dim, node.split_value = dim, value
            node.left = KdNode(node_id=node.node_id + 1)
            node.right = KdNode(node_id=node.node_id + 1 + subtree_nodes(mid))
            for child, lo, hi in ((node.left, start, start + mid),
                                  (node.right, start + mid, start + size)):
                if hi - lo > leaf_size:
                    next_level.append(child)
                else:
                    child.bucket = np.sort(order[lo:hi])
        child_sizes = np.column_stack((mids, sizes - mids)).ravel()
        inner = child_sizes > leaf_size
        level, order, sizes = next_level, order[np.repeat(inner, child_sizes)], child_sizes[inner]
    return KdTree(
        root=root,
        points=points,
        leaf_size=leaf_size,
        node_count=subtree_nodes(n),
        depth=depth,
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
    if deadline is not None and deadline < 1:
        raise ValueError("deadline must be >= 1 when set")
    q = np.asarray(query, dtype=np.float64)
    # Max-heap of the k best so far, keyed (-dist2, -index).
    heap: list[tuple[float, int]] = []
    visited: list[int] | None = [] if record_visited else None
    stack: list[tuple[KdNode, float]] = [(tree.root, 0.0)]
    steps = 0
    truncated = False
    while stack:
        if deadline is not None and steps >= deadline:
            truncated = True
            break
        node, plane_d2 = stack.pop()
        if len(heap) == k and plane_d2 > -heap[0][0]:
            continue
        steps += 1
        if node.is_leaf:
            bucket = node.bucket.tolist()
            d2s = _squared_distances(tree.points[node.bucket], q).tolist()
            for idx, d2 in zip(bucket, d2s):
                key = (-d2, -idx)
                if len(heap) < k:
                    heapq.heappush(heap, key)
                elif key > heap[0]:  # (d2, idx) < the worst held
                    heapq.heapreplace(heap, key)
            if visited is not None:
                visited.extend(bucket)
            continue
        gap = float(q[node.split_dim]) - node.split_value
        near, far = (node.left, node.right) if gap < 0 else (node.right, node.left)
        stack.append((far, gap * gap))
        stack.append((near, 0.0))
    return SearchResult(
        neighbors=[(-idx, -d2) for d2, idx in sorted(heap, reverse=True)],
        steps_used=steps,
        truncated=truncated,
        visited_points=visited,
    )


def range_search(
    tree: KdTree,
    query: np.ndarray,
    radius: float,
    deadline: int | None = None,
) -> SearchResult:
    """All points within ``radius`` (inclusive) of ``query``, ascending by
    (distance, index); the deadline-capped variant returns the subset found
    within the step budget."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    if deadline is not None and deadline < 1:
        raise ValueError("deadline must be >= 1 when set")
    q = np.asarray(query, dtype=np.float64)
    r2 = radius * radius
    hits: list[tuple[float, int]] = []
    stack: list[tuple[KdNode, float]] = [(tree.root, 0.0)]
    steps = 0
    truncated = False
    while stack:
        if deadline is not None and steps >= deadline:
            truncated = True
            break
        node, plane_d2 = stack.pop()
        if plane_d2 > r2:
            continue
        steps += 1
        if node.is_leaf:
            d2s = _squared_distances(tree.points[node.bucket], q)
            for idx, d2 in zip(node.bucket, d2s):
                if d2 <= r2:
                    hits.append((float(d2), int(idx)))
            continue
        gap = float(q[node.split_dim]) - node.split_value
        near, far = (node.left, node.right) if gap < 0 else (node.right, node.left)
        stack.append((far, gap * gap))
        stack.append((near, 0.0))
    hits.sort()
    return SearchResult(
        neighbors=[(idx, d2) for d2, idx in hits],
        steps_used=steps,
        truncated=truncated,
    )


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
