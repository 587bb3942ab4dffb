"""Point cloud container and file formats.

Two interchange formats: whitespace-separated text with one ``x y z
[extra...]`` line per point, and a raw binary layout (little-endian uint64
point count, then count*3 float32 coordinates). Text lines may carry extra
columns, as many on every line; they are parsed as numbers and dropped.

``from_text`` reads text with no ``#`` in one ``np.loadtxt`` pass, which
splits and converts fields as ``str.split`` and ``float()`` do or raises, so
its values are the line parser's. Anything else, and every error, goes to
the line parser, the only one that skips comments and words the messages.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np


@dataclass
class PointCloud:
    points: np.ndarray  # (n, 3) float64

    def __post_init__(self) -> None:
        self.points = np.asarray(self.points, dtype=np.float64)
        if self.points.ndim != 2 or self.points.shape[1] != 3:
            raise ValueError("points must have shape (n, 3)")
        if len(self.points) < 1:
            raise ValueError("point cloud must contain at least one point")
        if not np.isfinite(self.points).all():
            raise ValueError("points must be finite")

    def __len__(self) -> int:
        return len(self.points)


def from_text(text: str) -> PointCloud:
    if "#" not in text and text.strip():  # blank text would make loadtxt warn
        try:  # a list of lines, so the line breaks are str.splitlines'
            table = np.loadtxt(text.splitlines(), dtype=np.float64, comments=None, ndmin=2)
        except ValueError:
            table = np.empty((0, 0))
        if table.shape[1] >= 3:
            return PointCloud(points=table[:, :3].copy())
    return _from_lines(text)


def _from_lines(text: str) -> PointCloud:
    points, width = [], None
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) < 3:
            raise ValueError(f"line {lineno}: expected at least x y z")
        if width is None:
            width = len(fields)
        elif len(fields) != width:
            raise ValueError(f"line {lineno}: inconsistent field count")
        try:
            values = [float(f) for f in fields]
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        points.append(values[:3])
    if not points:
        raise ValueError("no points in input")
    return PointCloud(points=np.array(points))


def from_binary(data: bytes) -> PointCloud:
    if len(data) < 8:
        raise ValueError("binary cloud truncated: missing count header")
    (count,) = struct.unpack_from("<Q", data, 0)
    expected = 8 + 12 * count
    if len(data) != expected:
        raise ValueError(
            f"binary cloud size mismatch: header says {count} points "
            f"({expected} bytes), got {len(data)} bytes"
        )
    coords = np.frombuffer(data, dtype="<f4", offset=8).astype(np.float64)
    return PointCloud(points=coords.reshape(count, 3))


def load(path: str, fmt: str = "text") -> PointCloud:
    if fmt == "text":
        with open(path, "r", encoding="utf-8") as fh:
            return from_text(fh.read())
    if fmt == "binary":
        with open(path, "rb") as fh:
            return from_binary(fh.read())
    raise ValueError(f"unknown cloud format {fmt!r}")

