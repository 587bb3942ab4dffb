"""Spatial chunking of point clouds.

Uniform grid partitioning with sliding chunk groups (a coarse-grained
stencil over cells), serial arrival-order splitting for sensor streams, and
bucketed sorting that reconstructs a global order from per-chunk sorts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil

import numpy as np

from .cloud import PointCloud


@dataclass(frozen=True)
class ChunkGroup:
    origin: tuple[int, int, int]      # cell coordinate of the window corner
    cells: tuple[int, ...]            # linear cell ids inside the window
    points: np.ndarray                # member point indices, ascending


@dataclass
class ChunkGrid:
    """Axis-aligned uniform cell grid with sliding window groups.

    Cell boundaries belong to the lower-indexed cell. A degenerate axis
    (zero extent) collapses to a single cell on that axis.
    """

    dims: tuple[int, int, int]
    kernel: tuple[int, int, int]
    stride: tuple[int, int, int]
    cell_of_point: np.ndarray          # (n,) linear cell id per point
    cells: list[np.ndarray]            # point indices per linear cell
    groups: list[ChunkGroup]

    @property
    def cell_count(self) -> int:
        gx, gy, gz = self.dims
        return gx * gy * gz


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


def _segments(values: np.ndarray, sizes: np.ndarray) -> list[np.ndarray]:
    """Split ``values`` into consecutive pieces of the given sizes."""
    ends = np.cumsum(sizes).tolist()
    return [values[start:end] for start, end in zip([0, *ends], ends)]


def _window_members(
    per_axis: list[np.ndarray],
    counts: list[int],
    kernel: tuple[int, int, int],
    stride: tuple[int, int, int],
) -> list[np.ndarray]:
    """Point indices of every window, ascending, windows in origin order.

    A point in cell ``c`` on an axis lies in the window whose corner is
    ``c - d`` for each kernel offset ``d`` that leaves the corner on the
    stride lattice and inside the grid, so one pass per offset pairs every
    point with each window holding it.
    """
    n = len(per_axis[0])
    keys = []
    for d in np.ndindex(*kernel):
        inside = np.ones(n, dtype=bool)
        gid = 0
        for a in range(3):
            q, r = np.divmod(per_axis[a] - d[a], stride[a])
            inside &= (r == 0) & (q >= 0) & (q < counts[a])
            gid = gid * counts[a] + q
        keys.append(gid[inside] * n + np.flatnonzero(inside))
    # Keys are unique (a point sits in a window once), so sorting them
    # orders by window and then by point.
    keys = np.sort(np.concatenate(keys))
    gid, points = np.divmod(keys, n)
    return _segments(points, np.bincount(gid, minlength=counts[0] * counts[1] * counts[2]))


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

    per_axis = [_axis_cells(pts[:, a], lo[a], hi[a], dims[a]) for a in range(3)]
    gx, gy, gz = dims
    linear = (per_axis[0] * gy + per_axis[1]) * gz + per_axis[2]
    # One stable sort groups the points by cell, ascending within each.
    cells = _segments(np.argsort(linear, kind="stable"),
                      np.bincount(linear, minlength=gx * gy * gz))

    counts = [(dims[a] - kernel[a]) // stride[a] + 1 for a in range(3)]
    origins = np.indices(counts).reshape(3, -1).T * stride
    offsets = np.indices(kernel).reshape(3, -1).T
    corner_ids = (origins[:, 0] * gy + origins[:, 1]) * gz + origins[:, 2]
    windows = corner_ids[:, None] + (offsets[:, 0] * gy + offsets[:, 1]) * gz + offsets[:, 2]
    members = _window_members(per_axis, counts, kernel, stride)
    groups = [
        ChunkGroup(origin=tuple(origin), cells=tuple(window), points=points)
        for origin, window, points in zip(origins.tolist(), windows.tolist(), members)
    ]

    return ChunkGrid(
        dims=dims,
        kernel=kernel,
        stride=stride,
        cell_of_point=linear,
        cells=cells,
        groups=groups,
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
    """
    if axis not in (0, 1, 2):
        raise ValueError("axis must be 0, 1, or 2")
    cuts = np.asarray(sorted(chunk_boundaries), dtype=np.float64)
    coords = cloud.points[:, axis]
    bucket = np.searchsorted(cuts, coords, side="left")
    # By bucket, then stably by coordinate within each bucket.
    return np.lexsort((coords, bucket))
