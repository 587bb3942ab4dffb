"""Independent checks of the CLI's outputs, run outside the timed region.

The references are numpy computations of the benchmark's own. Squared
distances use the same float64 expression as ``kernels.kdtree`` so that ties
compare bit for bit; the program's own brute-force and ``--verify`` paths are
never used, because they are the code under test.
"""

from __future__ import annotations

import csv
import hashlib
import json

import numpy as np


def squared_distances(points: np.ndarray, query: np.ndarray) -> np.ndarray:
    d = points - query
    return d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1] + d[..., 2] * d[..., 2]


def ranked(d2: np.ndarray, idx: np.ndarray) -> list[tuple[int, float]]:
    """(index, dist2) ascending by (dist2, index)."""
    order = np.lexsort((idx, d2))
    return [(int(idx[i]), float(d2[i])) for i in order]


def knn_reference(points: np.ndarray, query: np.ndarray, k: int) -> list[tuple[int, float]]:
    d2 = squared_distances(points, query)
    if k < len(d2):
        kth = np.partition(d2, k - 1)[k - 1]
        cand = np.flatnonzero(d2 <= kth)
    else:
        cand = np.arange(len(d2))
    return ranked(d2[cand], cand)[:k]


def range_reference(points: np.ndarray, query: np.ndarray,
                    radius: float) -> list[tuple[int, float]]:
    d2 = squared_distances(points, query)
    cand = np.flatnonzero(d2 <= radius * radius)
    return ranked(d2[cand], cand)


def read_neighbors(path: str, queries: int) -> list[list[tuple[int, float, int, int]]]:
    """Per query: (point, dist2, steps, truncated) rows of a knn/range CSV."""
    out: list[list] = [[] for _ in range(queries)]
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            out[int(row["query"])].append(
                (int(row["point"]), float(row["dist2"]), int(row["steps"]),
                 int(row["truncated"])))
    return out


def check_exact(path: str, points: np.ndarray, queries: np.ndarray,
                reference) -> list[str]:
    """Compare every query's neighbour list with ``reference(points, q)``."""
    errors = []
    got = read_neighbors(path, len(queries))
    for qi, q in enumerate(queries):
        mine = [(p, d) for p, d, _, _ in got[qi]]
        if mine != reference(points, q):
            errors.append(f"query {qi}: result differs from the reference")
        if any(t for *_, t in got[qi]):
            errors.append(f"query {qi}: uncapped search reported truncation")
    return errors


def check_capped(path: str, points: np.ndarray, queries: np.ndarray, k: int,
                 deadline: int) -> tuple[list[str], float]:
    """Validity of a step-capped kNN result, and its recall@k against the
    exact reference."""
    errors = []
    got = read_neighbors(path, len(queries))
    hits = 0
    for qi, q in enumerate(queries):
        rows = got[qi]
        if len(rows) > k:
            errors.append(f"query {qi}: {len(rows)} neighbours for k={k}")
            continue
        idx = np.array([p for p, *_ in rows], dtype=np.int64)
        d2 = squared_distances(points[idx], q)
        if [(p, d) for p, d, _, _ in rows] != ranked(d2, idx):
            errors.append(f"query {qi}: wrong distances or order")
        if any(steps > deadline for _, _, steps, _ in rows):
            errors.append(f"query {qi}: steps past deadline {deadline}")
        truth = {p for p, _ in knn_reference(points, q, k)}
        hits += len(truth & set(idx.tolist()))
    return errors, hits / (k * len(queries))


def cell_ids(points: np.ndarray, dims: tuple[int, int, int]) -> np.ndarray:
    """Linear cell per point under the documented rule: the bounding box is
    cut into ``dims`` equal cells and a boundary belongs to the lower cell."""
    lo, hi = points.min(axis=0), points.max(axis=0)
    per_axis = []
    for a in range(3):
        if dims[a] == 1 or hi[a] <= lo[a]:
            per_axis.append(np.zeros(len(points), dtype=np.int64))
            continue
        t = (points[:, a] - lo[a]) / (hi[a] - lo[a]) * dims[a]
        per_axis.append(np.clip(np.ceil(t).astype(np.int64) - 1, 0, dims[a] - 1))
    return (per_axis[0] * dims[1] + per_axis[1]) * dims[2] + per_axis[2]


def check_split(path: str, points: np.ndarray, dims: tuple[int, int, int],
                kernel: tuple[int, int, int]) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    errors = []
    if tuple(doc["dims"]) != dims or tuple(doc["kernel"]) != kernel:
        return [f"manifest dims {doc['dims']} kernel {doc['kernel']}"]
    sizes = doc["cell_sizes"]
    expect = np.bincount(cell_ids(points, dims), minlength=int(np.prod(dims)))
    if sizes != expect.tolist():
        errors.append("cell sizes differ from the reference cell count")
    if sum(sizes) != len(points):
        errors.append(f"cell sizes add up to {sum(sizes)}, not {len(points)}")
    groups = doc["groups"]
    expect_groups = int(np.prod([d - k + 1 for d, k in zip(dims, kernel)]))
    if len(groups) != expect_groups:
        errors.append(f"{len(groups)} groups, expected {expect_groups}")
    for g in groups:
        if len(g["cells"]) != int(np.prod(kernel)) or \
                g["size"] != sum(sizes[c] for c in g["cells"]):
            errors.append(f"group at {g['origin']}: size does not match its cells")
            break
    return errors


def check_sort(path: str, points: np.ndarray, axis: int = 0) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        perm = np.array([int(v) for v in fh.read().split()], dtype=np.int64)
    if not np.array_equal(perm, np.argsort(points[:, axis], kind="stable")):
        return ["permutation differs from a global stable argsort"]
    return []


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return digest(fh.read())
