import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from pointpipe.graph import parse_pipeline

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
DIAMOND = """{"input_work": 8, "stages": [
  {"id": "a", "kind": "Elementwise", "i_shape": [1, 1], "o_shape": [1, 1], "stage": 0},
  {"id": "b", "kind": "Elementwise", "i_shape": [1, 1], "o_shape": [1, 1], "stage": 2},
  {"id": "c", "kind": "Elementwise", "i_shape": [1, 1], "o_shape": [1, 1], "stage": 0},
  {"id": "d", "kind": "Elementwise", "i_shape": [2, 1], "o_shape": [2, 1], "stage": 0}
], "edges": [["a", "b"], ["a", "c"], ["b", "d"], ["c", "d"]]}"""


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
