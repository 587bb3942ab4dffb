import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from pointpipe.graph import parse_pipeline

GOLDEN = Path(__file__).parent / "golden"


def reconvergent(name: str) -> str:
    """The reconvergent pipeline ``name``, checked in once as
    ``tests/golden/reconvergent/<name>/pipeline.json``."""
    return (GOLDEN / "reconvergent" / name / "pipeline.json").read_text()


KNN_STENCIL = """{
  "input_work": 24,
  "stages": [
    {"id": "knn", "kind": "Global", "i_shape": [1, 3], "o_shape": [4, 3], "o_freq": 8, "stage": 8},
    {"id": "stencil", "kind": "Stencil", "i_shape": [1, 3], "o_shape": [1, 1], "reuse": [2, 1], "stage": 2}
  ],
  "edges": [["knn", "stencil"]]
}"""

IMAGE_STENCIL = """{
  "input_work": 15,
  "stages": [
    {"id": "source", "kind": "Elementwise", "i_shape": [1, 1], "o_shape": [1, 1], "stage": 0},
    {"id": "stencil", "kind": "Stencil", "i_shape": [1, 3], "o_shape": [1, 1], "reuse": [3, 1], "stage": 2}
  ],
  "edges": [["source", "stencil"]]
}"""

IDENTICAL_RATES = """{
  "input_work": 8,
  "stages": [
    {"id": "a", "kind": "Elementwise", "i_shape": [1, 1], "o_shape": [1, 1], "stage": 0},
    {"id": "b", "kind": "Elementwise", "i_shape": [1, 1], "o_shape": [1, 1], "stage": 0}
  ],
  "edges": [["a", "b"]]
}"""

GLOBAL_EDGE = """{
  "input_work": 8,
  "stages": [
    {"id": "src", "kind": "Elementwise", "i_shape": [1, 1], "o_shape": [1, 1], "stage": 0},
    {"id": "sorter", "kind": "Global", "i_shape": [1, 1], "o_shape": [1, 1], "stage": 0}
  ],
  "edges": [["src", "sorter"]]
}"""

LOCAL_CHAIN = """{
  "input_work": 12,
  "stages": [
    {"id": "s1", "kind": "Elementwise", "i_shape": [1, 1], "o_shape": [1, 1], "stage": 0},
    {"id": "s2", "kind": "Reduction", "i_shape": [2, 1], "o_shape": [1, 1], "o_freq": 2, "stage": 1},
    {"id": "s3", "kind": "Elementwise", "i_shape": [1, 1], "o_shape": [1, 1], "stage": 0}
  ],
  "edges": [["s1", "s2"], ["s2", "s3"]]
}"""


# Two paths from "a" reconverge at "d": the closed form does not apply, and
# the saturated-edge search schedules it.
DIAMOND = reconvergent("diamond")


def naive_groups(grid):
    """Cells by one scan per cell, and each window's members as the sorted
    union of its cells, windows in origin order."""
    (gx, gy, gz), (kx, ky, kz), (sx, sy, sz) = grid.dims, grid.kernel, grid.stride
    cells = [np.flatnonzero(grid.cell_of_point == c) for c in range(gx * gy * gz)]
    groups = []
    for ox in range(0, gx - kx + 1, sx):
        for oy in range(0, gy - ky + 1, sy):
            for oz in range(0, gz - kz + 1, sz):
                window = [((ox + dx) * gy + oy + dy) * gz + oz + dz
                          for dx in range(kx) for dy in range(ky) for dz in range(kz)]
                members = np.sort(np.concatenate([cells[c] for c in window]))
                groups.append(((ox, oy, oz), tuple(window), members.tolist()))
    return [c.tolist() for c in cells], groups


@pytest.fixture
def knn_stencil():
    return parse_pipeline(KNN_STENCIL)


@pytest.fixture
def image_stencil():
    return parse_pipeline(IMAGE_STENCIL)


@pytest.fixture
def identical_rates():
    return parse_pipeline(IDENTICAL_RATES)


@pytest.fixture
def global_edge():
    return parse_pipeline(GLOBAL_EDGE)


@pytest.fixture
def local_chain():
    return parse_pipeline(LOCAL_CHAIN)
