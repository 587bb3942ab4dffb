"""Measurement helper: chunk-access counts."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import ChunkGrid
from .kdtree import KdTree, knn_search


@dataclass
class ChunkAccessStats:
    mean_chunks: float
    per_query: list[int]
    total_cells: int


def chunk_access_stats(
    grid: ChunkGrid,
    tree: KdTree,
    queries: np.ndarray,
    k: int,
    deadline: int | None = None,
) -> ChunkAccessStats:
    """Mean number of distinct grid cells whose points a search touches.

    A cell counts as accessed when the traversal examined at least one
    point stored in it.
    """
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    counts = []
    for q in queries:
        res = knn_search(tree, q, k, deadline=deadline, record_visited=True)
        assert res.visited_points is not None
        cells = {int(grid.cell_of_point[i]) for i in res.visited_points}
        counts.append(len(cells))
    return ChunkAccessStats(
        mean_chunks=float(np.mean(counts)) if counts else 0.0,
        per_query=counts,
        total_cells=grid.cell_count,
    )
