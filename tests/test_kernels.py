"""The point kernels against brute force and against their documented rules."""

import os
import struct
import tempfile
import warnings
from fractions import Fraction
from math import ceil

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import naive_groups
from pointpipe.kernels import cloud
from pointpipe.kernels.cloud import PointCloud
from pointpipe.kernels.grid import chunked_sort, split_grid
from pointpipe.kernels.kdtree import (
    brute_force_knn,
    brute_force_range,
    kdtree_build,
    knn_search,
    range_search,
)
from pointpipe.kernels.prng import splitmix64, unit_uniform

EXAMPLES = settings(max_examples=80, deadline=None, derandomize=True, database=None)

# A coarse lattice: many exact ties in distance, on split planes and on cuts.
lattice = st.integers(0, 6).map(lambda v: v / 2)
points3 = st.tuples(lattice, lattice, lattice)
clouds = st.lists(points3, min_size=1, max_size=60).map(
    lambda p: np.array(p, dtype=np.float64))
leaf_sizes = st.integers(1, 8)
radii = st.integers(1, 8).map(lambda v: v / 2)


def _check_knn(pts, query, k, leaf_size):
    # k may exceed the cloud: then every point comes back.
    res = knn_search(kdtree_build(pts, leaf_size=leaf_size), np.array(query), k)
    assert res.neighbors == brute_force_knn(pts, query, k)
    assert not res.truncated


def _check_range(pts, query, radius, leaf_size):
    res = range_search(kdtree_build(pts, leaf_size=leaf_size), np.array(query), radius)
    assert res.neighbors == brute_force_range(pts, query, radius)
    assert not res.truncated


def _check_knn_deadline(pts, query, k, leaf_size, deadline):
    tree = kdtree_build(pts, leaf_size=leaf_size)
    q = np.array(query)
    full = knn_search(tree, q, k)
    capped = knn_search(tree, q, k, deadline=deadline, record_visited=True)
    assert capped.steps_used == min(deadline, full.steps_used)
    if deadline < full.steps_used:
        assert capped.truncated
    if deadline > full.steps_used:
        assert not capped.truncated
    if deadline >= full.steps_used:
        assert capped.neighbors == full.neighbors
    # A truncated search returns the k best of the points it scanned.
    seen = sorted(set(capped.visited_points))
    assert capped.neighbors == [(seen[i], d) for i, d in brute_force_knn(pts[seen], q, k)]


def _check_range_deadline(pts, query, radius, leaf_size, deadline):
    tree = kdtree_build(pts, leaf_size=leaf_size)
    q = np.array(query)
    full = range_search(tree, q, radius)
    capped = range_search(tree, q, radius, deadline=deadline)
    assert capped.steps_used == min(deadline, full.steps_used)
    if deadline < full.steps_used:
        assert capped.truncated
    if deadline > full.steps_used:
        assert not capped.truncated
    if deadline >= full.steps_used:
        assert capped.neighbors == full.neighbors
    assert set(capped.neighbors) <= set(full.neighbors)
    assert capped.neighbors == sorted(capped.neighbors, key=lambda n: (n[1], n[0]))


@EXAMPLES
@given(pts=clouds, query=points3, k=st.integers(1, 70), leaf_size=leaf_sizes)
def test_knn_equals_brute_force(pts, query, k, leaf_size):
    _check_knn(pts, query, k, leaf_size)


@EXAMPLES
@given(pts=clouds, query=points3, radius=radii, leaf_size=leaf_sizes)
def test_range_equals_brute_force(pts, query, radius, leaf_size):
    # Lattice radii put points exactly on the sphere: they are inside.
    _check_range(pts, query, radius, leaf_size)


@EXAMPLES
@given(pts=clouds, query=points3, k=st.integers(1, 8), leaf_size=leaf_sizes,
       deadline=st.integers(1, 30))
def test_knn_deadline_caps_steps_and_keeps_the_best_seen(pts, query, k, leaf_size, deadline):
    _check_knn_deadline(pts, query, k, leaf_size, deadline)


@EXAMPLES
@given(pts=clouds, query=points3, radius=radii, leaf_size=leaf_sizes,
       deadline=st.integers(1, 30))
def test_range_deadline_caps_steps_and_returns_a_subset(pts, query, radius, leaf_size,
                                                        deadline):
    _check_range_deadline(pts, query, radius, leaf_size, deadline)


def _cells_along_x(xs, g):
    """Cell of each x on a ``g``-cell grid; y and z have zero extent."""
    pts = np.zeros((len(xs), 3))
    pts[:, 0] = xs
    grid = split_grid(PointCloud(pts), (g, 5, 5))
    assert grid.dims == (g, 1, 1)
    return grid.cell_of_point.tolist()


@EXAMPLES
@given(g=st.integers(2, 64), lo=st.integers(-50, 50), width=st.integers(1, 9),
       ks=st.lists(st.integers(0, 64), min_size=1, max_size=20))
def test_grid_boundary_values_go_to_the_lower_cell(g, lo, width, ks):
    # Cell boundaries lo + k*width are integers, so exact in floats; a
    # point on boundary k belongs to cell k - 1, a point mid-cell to cell k.
    ks = [min(k, g) for k in ks]
    on = [lo + k * width for k in ks]
    mid = [lo + k * width + width / 2 for k in ks if k < g]
    cells = _cells_along_x([lo, lo + g * width, *on, *mid], g)
    assert cells[:2] == [0, g - 1]
    assert cells[2:2 + len(on)] == [max(k - 1, 0) for k in ks]
    assert cells[2 + len(on):] == [k for k in ks if k < g]


@EXAMPLES
@given(xs=st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=40), g=st.integers(2, 64))
def test_grid_cells_follow_the_exact_rule(xs, g):
    lo, hi = Fraction(min(xs)), Fraction(max(xs))
    if lo == hi:
        return
    want = [min(max(ceil((Fraction(x) - lo) * g / (hi - lo)) - 1, 0), g - 1) for x in xs]
    assert _cells_along_x(xs, g) == want


@EXAMPLES
@given(pts=clouds, axis=st.integers(0, 2), cuts=st.lists(lattice, max_size=6))
def test_chunked_sort_equals_global_stable_sort(pts, axis, cuts):
    perm = chunked_sort(PointCloud(pts), axis, cuts)
    assert np.array_equal(perm, np.argsort(pts[:, axis], kind="stable"))


@EXAMPLES
@given(pts=clouds, dims=st.tuples(*[st.integers(1, 6)] * 3),
       stride=st.tuples(*[st.integers(1, 3)] * 3), flat=st.sets(st.integers(0, 2)),
       data=st.data())
def test_split_grid_equals_the_naive_definition(pts, dims, stride, flat, data):
    # Few lattice points in up to 216 cells leave most cells empty; a flat
    # axis collapses to one cell.
    for a in flat:
        pts[:, a] = 1.0
    shape = split_grid(PointCloud(pts), dims).dims
    kernel = tuple(data.draw(st.integers(1, d)) for d in shape)
    grid = split_grid(PointCloud(pts), dims, kernel=kernel, stride=stride)
    cells, groups = naive_groups(grid)
    assert grid.cell_count == len(grid.cell_sizes) == len(cells)
    cell_runs = np.split(grid.cell_points, np.cumsum(grid.cell_sizes)[:-1])
    assert [c.tolist() for c in cell_runs] == cells
    members = np.split(grid.members, np.cumsum(grid.group_sizes)[:-1])
    assert [(tuple(o), tuple(w), m.tolist())
            for o, w, m in zip(grid.origins.tolist(), grid.windows.tolist(), members)] == groups
    assert grid.group_sizes.tolist() == [len(m) for _, _, m in groups]
    for column in (grid.cell_of_point, grid.cell_points, grid.cell_sizes, grid.origins,
                   grid.windows, grid.group_sizes, grid.members):
        assert column.dtype == np.int64


def test_grid_limit_is_inclusive_and_checked_before_the_cells(monkeypatch):
    two = PointCloud(np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]))
    monkeypatch.setattr("pointpipe.kernels.grid.MAX_GRID_CELLS", 12)
    assert split_grid(two, (2, 2, 3)).cell_count == 12
    assert split_grid(two, (3, 2, 2), kernel=(3, 2, 1)).windows.shape == (2, 6)

    def refuse(*args):
        raise AssertionError("cells built for a grid past the limit")

    monkeypatch.setattr("pointpipe.kernels.grid._axis_cells", refuse)
    # 13 cells; then 12 cells in 4 windows of 4.
    for dims, kernel in (((13, 1, 1), (1, 1, 1)), ((3, 2, 2), (2, 2, 1))):
        with pytest.raises(ValueError, match="at most 12 of each"):
            split_grid(two, dims, kernel=kernel)


def _recursive_kdtree(points, leaf_size):
    """The kd-tree as a recursive build, one stable argsort per node:
    (split dim, split value, bucket) in preorder, node count and depth."""
    nodes = []

    def build(indices, level):
        node = [-1, 0.0, None]
        nodes.append(node)
        if len(indices) <= leaf_size:
            node[2] = np.sort(indices).tolist()
            return level
        sub = points[indices]
        dim = int(np.argmax(sub.max(axis=0) - sub.min(axis=0)))
        order = indices[np.argsort(sub[:, dim], kind="stable")]
        mid = len(order) // 2
        node[0], node[1] = dim, float(points[order[mid], dim])
        return max(build(order[:mid], level + 1), build(order[mid:], level + 1))

    depth = build(np.arange(len(points), dtype=np.int64), 1)
    return [tuple(n) for n in nodes], len(nodes), depth


def _bucket(tree, node):
    return tree.index[tree.lo[node]:tree.hi[node]]


def _preorder(tree):
    assert type(tree.index) is list and all(type(i) is int for i in tree.index)
    out, stack = [], [0]
    while stack:
        node = stack.pop()
        bucket = None
        if tree.split_dim[node] < 0:
            bucket = _bucket(tree, node)
        else:
            stack += (tree.child[node] + 1, tree.child[node])
        out.append((tree.split_dim[node], tree.split_value[node], bucket))
    return out


@st.composite
def kd_clouds(draw):
    """Uniform clouds, coarse lattices (three values per axis on an uneven
    box, so ties straddle the medians below the root), clouds of a few
    duplicated points, float32-rounded clipped clusters (a ground plane at
    z near 0 and piles at the clip bounds, as in the benchmark's clustered
    frames), signed zeros, and all-equal points. Up to 1000 points, so
    trees reach past depth 6."""
    n = draw(st.integers(1, 1000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(
        ["uniform", "lattice", "duplicates", "clipped", "signed_zero", "equal"]))
    if kind == "uniform":
        return rng.uniform(-100, 100, (n, 3))
    if kind == "lattice":
        return rng.integers(0, 3, (n, 3)) * np.array([1.0, 2.0, 3.0])
    if kind == "clipped":
        pts = rng.normal(2.0, 3.0, (n, 3))
        pts[: n // 2, 2] = np.abs(rng.normal(0.0, 0.02, n // 2))
        return np.clip(pts, 0.0, 4.0).astype(np.float32).astype(np.float64)
    if kind == "signed_zero":
        return rng.choice([-0.0, 0.0, 0.5, -1.0], (n, 3))
    if kind == "equal":
        return np.full((n, 3), rng.normal())
    distinct = rng.uniform(-1, 1, (int(rng.integers(1, 6)), 3))
    return distinct[rng.integers(0, len(distinct), n)]


@EXAMPLES
@given(pts=kd_clouds(), leaf_size=st.integers(1, 17))
def test_kdtree_build_equals_the_recursive_build(pts, leaf_size):
    tree = kdtree_build(pts, leaf_size=leaf_size)
    nodes, count, depth = _recursive_kdtree(pts, leaf_size)
    assert _preorder(tree) == nodes
    assert (tree.node_count, tree.depth) == (count, depth)
    # The leaf-ordered coordinates are the points' own, bit for bit, as
    # Python floats.
    assert len(tree.coords) == 3
    assert all(type(v) is float for axis in tree.coords for v in axis)
    assert np.array(tree.coords).T.tobytes() == pts[tree.index].tobytes()


@st.composite
def kd_searches(draw):
    """A ``kd_clouds`` cloud and a query on one of its points, moved per
    axis by nothing, a signed zero or a step: exact ties in distance."""
    pts = draw(kd_clouds())
    shift = st.sampled_from([0.0, -0.0, 0.25, -1.0, 3.0])
    offset = np.array(draw(st.tuples(shift, shift, shift)))
    return pts, pts[draw(st.integers(0, len(pts) - 1))] + offset


kd_radii = st.sampled_from([0.01, 0.5, 2.0, 25.0])


@EXAMPLES
@given(case=kd_searches(), k=st.integers(1, 40), leaf_size=st.integers(1, 17))
def test_knn_equals_brute_force_on_kd_clouds(case, k, leaf_size):
    _check_knn(*case, k, leaf_size)


@EXAMPLES
@given(case=kd_searches(), radius=kd_radii, leaf_size=st.integers(1, 17))
def test_range_equals_brute_force_on_kd_clouds(case, radius, leaf_size):
    _check_range(*case, radius, leaf_size)


@EXAMPLES
@given(case=kd_searches(), k=st.integers(1, 8), leaf_size=st.integers(1, 17),
       deadline=st.integers(1, 30))
def test_knn_deadline_on_kd_clouds(case, k, leaf_size, deadline):
    _check_knn_deadline(*case, k, leaf_size, deadline)


@EXAMPLES
@given(case=kd_searches(), radius=kd_radii, leaf_size=st.integers(1, 17),
       deadline=st.integers(1, 30))
def test_range_deadline_on_kd_clouds(case, radius, leaf_size, deadline):
    _check_range_deadline(*case, radius, leaf_size, deadline)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("kind", ["overflow", "subnormal"])
def test_scan_distances_equal_brute_force_at_the_float_limits(kind, seed):
    # Near 1e154 a square overflows to inf, so many distances tie at inf.
    # Subnormal gaps (x) square to 0; gaps near 1e-160 (y) square to
    # subnormals that lose bits; gaps near 1e-155 (z) square to about the
    # least normal. The scan's Python floats must round exactly as brute
    # force's numpy arrays do.
    rng = np.random.default_rng(seed)
    if kind == "overflow":
        pts, radii = rng.uniform(-1.5e154, 1.5e154, (300, 3)), (1e154, 2e154, 3e154)
    else:
        scale = np.array([5e-324, 3e-160, 1.1e-155])
        pts = rng.integers(-6, 7, (300, 3)) * scale + rng.choice([0.0, 1e-310], 3)
        radii = (5e-324, 1e-159, 1e-154)
    queries = np.concatenate([pts[:3], pts[3:6] + pts[6:9]])
    with np.errstate(over="ignore", under="ignore"):
        for leaf_size in (1, 4, 16):
            tree = kdtree_build(pts, leaf_size=leaf_size)
            for q in queries:
                for k in (1, 7, 300):
                    assert knn_search(tree, q, k).neighbors == brute_force_knn(pts, q, k)
                for radius in radii:
                    assert range_search(tree, q, radius).neighbors == \
                        brute_force_range(pts, q, radius)
        d2 = [d for q in queries for _, d in brute_force_knn(pts, q, len(pts))]
    if kind == "overflow":
        assert float("inf") in d2 and min(d2) < 1e308
    else:
        assert 0.0 in d2 and any(0.0 < d < np.finfo(float).tiny for d in d2)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_searches_reject_a_non_finite_query(bad):
    tree = kdtree_build(np.random.default_rng(0).random((50, 3)))
    query = np.array([0.5, bad, 0.5])
    with pytest.raises(ValueError, match="query must be finite"):
        knn_search(tree, query, 3)
    with pytest.raises(ValueError, match="query must be finite"):
        range_search(tree, query, 0.1)


def test_kdtree_ties_keep_the_parents_order():
    # The root splits on x; its left child holds points 3, 2, 1, 0 in that
    # order and splits on z, where 1 and 2 tie: they stay in the root's x
    # order (2 before 1), not index order.
    pts = np.array([[0.3, 0, 0], [0.2, 0, 5], [0.1, 0, 5], [0, 0, 10],
                    [100, 0, 0], [101, 0, 0], [102, 0, 0], [103, 0, 0]])
    tree = kdtree_build(pts, leaf_size=2)
    left = tree.child[0]
    assert (tree.split_dim[left], tree.split_value[left]) == (2, 5.0)
    grandchild = tree.child[left]
    assert [_bucket(tree, grandchild), _bucket(tree, grandchild + 1)] == [[0, 2], [1, 3]]


@pytest.mark.parametrize("text, message", [
    ("1 2 3\n4 5\n", "line 2: expected at least x y z"),
    ("# xyz\n\n1 2 3 4\n5 6 7\n", "line 4: inconsistent field count"),
    ("1 2 3\r\n4 5 6.5.1\n", "line 2: could not convert string to float: '6.5.1'"),
    ("1 2 3\n4 5 1e\n", "line 2: could not convert string to float: '1e'"),
    ("# only a comment\n\n", "no points in input"),
])
def test_text_errors_name_the_line(text, message):
    with pytest.raises(ValueError) as err:
        cloud.from_text(text)
    assert str(err.value) == message


@pytest.mark.parametrize("text", ["", " ", "\n\n", " \t\r\n", "\x0b\x0c", "\x85\u2028",
                                  "\u3000\xa0\x1f"])
def test_blank_text_warns_nothing(text):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^no points in input$"):
            cloud.from_text(text)


def test_plain_text_skips_the_line_parser(monkeypatch):
    def refuse(text):
        raise AssertionError("line parser called")

    monkeypatch.setattr(cloud, "_from_lines", refuse)
    c = cloud.from_text("1 2 3 9\n-0.0 1e-3 5 8\n")  # the fourth column is dropped
    assert c.points.tolist() == [[1, 2, 3], [-0.0, 1e-3, 5]] and c.points.flags.c_contiguous


# Fields float() and numpy may read differently, or one of them not at all.
TOKENS = ["0", "1", "-2.5", "+7", "1e3", "1.", ".5", ".e1", "1e", "1e308", "1e400", "-1e400",
          "nan", "-nan", "nan(1)", "Infinity", "-iNF", "inf", "-0.0", "0x10", "1_0", "\u0661",
          "\uff11", "x", ",", "1,", "1.5.2", "#", "3#"]
SPACES = [" ", "  ", "\t", "\xa0", "\x1f", "\u3000"]
BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"]


@st.composite
def cloud_texts(draw):
    """Text clouds built mostly of plain numbers, mixed with odd fields,
    comments, blank lines, odd whitespace and every line break
    ``str.splitlines`` knows."""
    width = draw(st.sampled_from([3, 3, 4, 5, 2]))
    odd = draw(st.sampled_from([0, 0, 1, 4]))  # odd fields in 20
    field = st.integers(0, 19).flatmap(
        lambda i: st.sampled_from(TOKENS) if i < odd else st.floats(-1e6, 1e6).map(repr))
    kinds = ["row"] * 7 + ["other", "comment", "blank"] * draw(st.booleans())
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(kinds))
        if kind == "comment":
            lines.append("# " + draw(field))
        elif kind == "blank":
            lines.append(draw(st.sampled_from(["", *SPACES])))
        else:
            count = width if kind == "row" else draw(st.integers(0, 6))
            fields = draw(st.lists(field, min_size=count, max_size=count))
            gaps = draw(st.lists(st.sampled_from(SPACES), min_size=count + 1,
                                 max_size=count + 1))
            lines.append(gaps[0] + "".join(f + g for f, g in zip(fields, gaps[1:])))
    ends = draw(st.lists(st.sampled_from(BREAKS), min_size=len(lines), max_size=len(lines)))
    return "".join(line + end for line, end in zip(lines, ends))


def _parsed(parse, text):
    try:
        c = parse(text)
    except ValueError as exc:
        return str(exc)
    return c.points.tobytes()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(text=cloud_texts())
def test_text_fast_path_equals_the_line_parser(text):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _parsed(cloud.from_text, text) == _parsed(cloud._from_lines, text)


finite = st.floats(allow_nan=False, allow_infinity=False)


def _load_written(data: bytes, fmt):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "cloud")
        with open(path, "wb") as fh:
            fh.write(data)
        return cloud.load(path, fmt=fmt)


def _binary(points):
    return struct.pack("<Q", len(points)) + points.astype("<f4").tobytes()


@EXAMPLES
@given(rows=st.lists(st.lists(finite, min_size=3, max_size=3), min_size=1, max_size=20),
       attr_width=st.integers(0, 2), data=st.data())
def test_text_round_trip_is_exact(rows, attr_width, data):
    # Attribute columns are accepted and dropped.
    attrs = data.draw(st.lists(st.lists(finite, min_size=attr_width, max_size=attr_width),
                               min_size=len(rows), max_size=len(rows)))
    text = "".join(" ".join(map(repr, p + a)) + "\n" for p, a in zip(rows, attrs))
    back = _load_written(text.encode(), "text")
    assert back.points.tobytes() == np.array(rows).tobytes()


@EXAMPLES
@given(rows=st.lists(st.lists(st.floats(-1e30, 1e30), min_size=3, max_size=3),
                     min_size=1, max_size=20))
def test_binary_round_trip_keeps_float32_values(rows):
    # Binary stores float32: a float32 value comes back exactly, any other
    # as its float32 rounding.
    points = np.array(rows)
    as32 = points.astype(np.float32).astype(np.float64)
    back = _load_written(_binary(points), "binary")
    assert back.points.tobytes() == as32.tobytes()
    assert _load_written(_binary(back.points), "binary").points.tobytes() == as32.tobytes()



def _scalar_splitmix64(seed, count):
    """The generator one output at a time, on Python ints."""
    mask, x, out = (1 << 64) - 1, seed & ((1 << 64) - 1), []
    for _ in range(count):
        x = (x + 0x9E3779B97F4A7C15) & mask
        z = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


@pytest.mark.parametrize("seed", [0, 1, 7, 2**64 - 1, 12345678901234567])
def test_splitmix64_equals_the_scalar_generator(seed):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the uint64 wraps must stay silent
        raw, doubles = splitmix64(seed, 30000), unit_uniform(seed, 30000)
    reference = _scalar_splitmix64(seed, 30000)
    assert raw.dtype == np.uint64 and raw.tolist() == reference
    assert doubles.tolist() == [(v >> 11) * 2.0**-53 for v in reference]
