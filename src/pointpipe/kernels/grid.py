"""Spatial chunking of point clouds.

Uniform grid partitioning with sliding chunk groups (a coarse-grained
stencil over cells), serial arrival-order splitting for sensor streams, and
bucketed sorting that reconstructs a global order from per-chunk sorts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import ceil

import numpy as np

from .cloud import PointCloud


# The most cells a grid may have, and the most (window, cell) pairs its
# windows may hold. At this size a ``split`` manifest has a million groups:
# writing it for a 1024x1024x1 grid peaks at about 550 MB.
MAX_GRID_CELLS = 2**20


@dataclass
class ChunkGrid:
    """Axis-aligned uniform cell grid with sliding window groups, as flat
    int64 arrays over n points, C cells and G windows of K = kx*ky*kz cells.

    Cell boundaries belong to the lower-indexed cell. A degenerate axis
    (zero extent) collapses to a single cell on that axis. A cell's linear
    id is ``(x * gy + y) * gz + z``, and windows are in the order of their
    corner cells. The cells are in CSR form: cell c holds
    ``cell_points[s:s + cell_sizes[c]]``, s the sum of the sizes before it.
    """

    dims: tuple[int, int, int]
    kernel: tuple[int, int, int]
    stride: tuple[int, int, int]
    cell_of_point: np.ndarray          # (n,) each point's cell
    cell_points: np.ndarray            # (n,) points by cell, ascending in each
    cell_sizes: np.ndarray             # (C,) points per cell
    origins: np.ndarray                # (G, 3) cell coordinate of each window corner
    windows: np.ndarray                # (G, K) cells of each window, by kernel offset
    group_sizes: np.ndarray            # (G,) points per window

    @property
    def cell_count(self) -> int:
        return len(self.cell_sizes)

    @cached_property
    def members(self) -> np.ndarray:
        """Every window's points, window-major and ascending within a window,
        built on first use: a manifest without member lists needs only the
        sizes. Each window's cell runs are gathered from ``cell_points`` and
        sorted by (window, point) keys, unique as a window's cells are
        disjoint."""
        runs = self.cell_sizes[self.windows].ravel()
        run_start = np.cumsum(self.cell_sizes) - self.cell_sizes
        skip = run_start[self.windows.ravel()] - (np.cumsum(runs) - runs)
        points = self.cell_points[np.repeat(skip, runs) + np.arange(runs.sum())]
        base = np.repeat(np.arange(len(self.windows)) * len(self.cell_of_point),
                         self.group_sizes)
        return np.sort(base + points) - base


def _axis_cells(coords: np.ndarray, lo: float, hi: float, g: int) -> np.ndarray:
    if g == 1 or hi <= lo:
        return np.zeros(len(coords), dtype=np.int64)
    # ceil(t) - 1 sends exact boundary values to the lower cell.
    t = (coords - lo) / (hi - lo) * g
    idx = np.ceil(t).astype(np.int64) - 1
    # t is off by a few ulps (7/25*25 rounds above 7), so the values that
    # land that close to a boundary are placed by exact rationals. The box
    # ends themselves give t = 0 and t = g exactly.
    span = Fraction(hi) - Fraction(lo)
    near = (np.abs(t - np.rint(t)) <= g * 2.0**-40) & (coords > lo) & (coords < hi)
    for i in np.flatnonzero(near):
        idx[i] = ceil((Fraction(coords[i]) - Fraction(lo)) * g / span) - 1
    return np.clip(idx, 0, g - 1)


def split_grid(
    cloud: PointCloud,
    dims: tuple[int, int, int],
    kernel: tuple[int, int, int] = (1, 1, 1),
    stride: tuple[int, int, int] = (1, 1, 1),
) -> ChunkGrid:
    """Partition the cloud's bounding box into ``dims`` cells and slide a
    ``kernel`` window with ``stride`` to form chunk groups."""
    if any(d < 1 for d in dims):
        raise ValueError("grid dims must be positive")
    if any(s < 1 for s in stride):
        raise ValueError("stride must be positive")
    pts = cloud.points
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    # Collapse degenerate axes rather than dividing a zero extent.
    dims = tuple(1 if hi[a] <= lo[a] else dims[a] for a in range(3))
    if any(not (1 <= kernel[a] <= dims[a]) for a in range(3)):
        raise ValueError(f"kernel {kernel} must fit within grid dims {dims}")
    gx, gy, gz = dims
    counts = [(dims[a] - kernel[a]) // stride[a] + 1 for a in range(3)]
    pairs = counts[0] * counts[1] * counts[2] * kernel[0] * kernel[1] * kernel[2]
    # Checked before any per-cell array is built.
    if gx * gy * gz > MAX_GRID_CELLS or pairs > MAX_GRID_CELLS:
        raise ValueError(f"grid {gx}x{gy}x{gz} needs {gx * gy * gz} cells and {pairs} "
                         f"(window, cell) pairs; at most {MAX_GRID_CELLS} of each")

    per_axis = [_axis_cells(pts[:, a], lo[a], hi[a], dims[a]) for a in range(3)]
    linear = (per_axis[0] * gy + per_axis[1]) * gz + per_axis[2]
    cell_sizes = np.bincount(linear, minlength=gx * gy * gz)
    origins = np.indices(counts).reshape(3, -1).T * stride
    offsets = np.indices(kernel).reshape(3, -1).T
    corner_ids = (origins[:, 0] * gy + origins[:, 1]) * gz + origins[:, 2]
    windows = corner_ids[:, None] + (offsets[:, 0] * gy + offsets[:, 1]) * gz + offsets[:, 2]
    return ChunkGrid(
        dims=dims,
        kernel=kernel,
        stride=stride,
        cell_of_point=linear,
        # One stable sort groups the points by cell, ascending within each.
        cell_points=np.argsort(linear, kind="stable"),
        cell_sizes=cell_sizes,
        origins=origins,
        windows=windows,
        group_sizes=cell_sizes[windows].sum(axis=1),
    )


def split_serial(cloud: PointCloud, points_per_chunk: int) -> list[np.ndarray]:
    """Split in arrival order: chunk i holds points [i*N, (i+1)*N)."""
    if points_per_chunk < 1:
        raise ValueError("points_per_chunk must be >= 1")
    n = len(cloud)
    return [
        np.arange(i, min(i + points_per_chunk, n), dtype=np.int64)
        for i in range(0, n, points_per_chunk)
    ]


def chunked_sort(
    cloud: PointCloud, axis: int, chunk_boundaries: list[float]
) -> np.ndarray:
    """Sort along ``axis`` by bucketing into contiguous intervals, sorting
    each bucket, and concatenating. Because the intervals partition the
    axis, the concatenation equals one global stable sort.

    Returns the permutation (point indices in sorted order); ties keep
    arrival order. Values equal to a boundary go to the lower bucket.
    Infinite cuts are legal; a NaN cut has no place in the order and is
    rejected.
    """
    if axis not in (0, 1, 2):
        raise ValueError("axis must be 0, 1, or 2")
    cuts = np.asarray(sorted(chunk_boundaries), dtype=np.float64)
    if np.isnan(cuts).any():
        raise ValueError("chunk boundaries must not be NaN")
    coords = cloud.points[:, axis]
    bucket = np.searchsorted(cuts, coords, side="left")
    # By bucket, then stably by coordinate within each bucket.
    return np.lexsort((coords, bucket))
