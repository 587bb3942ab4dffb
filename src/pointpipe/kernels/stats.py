"""Measurement helper: chunk-access counts."""

from __future__ import annotations

import numpy as np

from .grid import ChunkGrid
from .kdtree import KdTree, knn_search


def mean_chunks_accessed(grid: ChunkGrid, tree: KdTree, queries: np.ndarray, k: int) -> float:
    """Mean number of distinct grid cells whose points an exact kNN search
    touches.

    A cell counts as accessed when the traversal examined at least one
    point stored in it.
    """
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    counts = []
    for q in queries:
        res = knn_search(tree, q, k, record_visited=True)
        assert res.visited_points is not None
        cells = {int(grid.cell_of_point[i]) for i in res.visited_points}
        counts.append(len(cells))
    return float(np.mean(counts)) if counts else 0.0
