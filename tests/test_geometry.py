import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levelcurves import geometry
from levelcurves.geometry import SegmentIndex


def brute_distances(zs, polylines):
    """Minimum over every segment of every polyline, one dense matrix each."""
    out = np.full(zs.shape, np.inf)
    for p in polylines:
        p = np.asarray(p, dtype=complex)
        if p.size == 1:
            d = np.abs(zs - p[0])
        else:
            a = p[:-1][None, :]
            e = (p[1:] - p[:-1])[None, :]
            denom = e.real**2 + e.imag**2
            denom = np.where(denom == 0.0, 1.0, denom)
            # huge queries overflow to inf or NaN, as in the index's kernel
            with np.errstate(over="ignore", invalid="ignore"):
                w = zs[:, None] - a
                t = np.clip((w.real * e.real + w.imag * e.imag) / denom, 0.0, 1.0)
                d = np.min(np.abs(zs[:, None] - (a + t * e)), axis=1)
        out = np.minimum(out, d)
    return out


coords = st.floats(-1.0, 1.0, allow_nan=False, allow_subnormal=False)
points = st.builds(complex, coords, coords)


@st.composite
def scenes(draw):
    scale = 10.0 ** draw(st.integers(-6, 3))
    pool = draw(st.lists(points, min_size=1, max_size=12))
    # points drawn from a small pool repeat, so segments of zero length occur
    vertex = st.one_of(st.sampled_from(pool), points)
    polylines = draw(st.lists(st.lists(vertex, min_size=1, max_size=30), min_size=1, max_size=4))
    # vertices as queries: on a segment, and on the grid's lowest cell edges
    queries = draw(st.lists(st.one_of(points, st.sampled_from(pool)), min_size=1, max_size=40))
    far = draw(st.lists(st.builds(lambda z, k: z * 10.0**k, points, st.integers(1, 9)), max_size=5))
    huge = draw(st.lists(st.sampled_from([1e300, -1e300, 1e300j]), max_size=2))
    zs = np.array(queries + far + huge, dtype=complex) * scale
    return [np.array(p, dtype=complex) * scale for p in polylines], zs, draw(st.floats(0.0, 1.0))


@settings(max_examples=200, deadline=None)
@given(scene=scenes())
def test_index_matches_brute_force_exactly(scene):
    polylines, zs, frac = scene
    want = brute_distances(zs, polylines)
    upto = float(np.quantile(want, frac))
    index = SegmentIndex(polylines)
    # a tiny block budget sends small inputs through the grid search too
    for block in (8, geometry._BLOCK_PAIRS):
        with mock.patch.object(geometry, "_BLOCK_PAIRS", block):
            assert np.array_equal(index.distances(zs), want)
            assert np.array_equal(index.distances(zs, upto=upto), np.where(want <= upto, want, np.inf))
    if len({p.size for p in polylines}) == 1:
        assert np.array_equal(SegmentIndex(np.array(polylines)).distances(zs), want)


def test_grid_is_built_by_the_first_grid_search():
    rng = np.random.default_rng(8)
    line = np.cumsum(rng.normal(size=201) + 1j * rng.normal(size=201))
    zs = line[rng.integers(0, line.size, 400)] + rng.normal(size=400) + 1j * rng.normal(size=400)
    index = SegmentIndex([line])
    # 40 queries x 200 segments lie within _BLOCK_PAIRS: brute force, no grid
    small = index.distances(zs[:40])
    assert not hasattr(index, "_members")
    assert np.array_equal(small, index._brute(zs[:40]))
    index.max_distance(zs[:40])
    assert hasattr(index, "_members")
    # 400 x 200 pairs go through the grid, to the same floats
    assert zs.size * (line.size - 1) > geometry._BLOCK_PAIRS
    assert np.array_equal(index.distances(zs), index._brute(zs))


def test_empty_index_is_infinitely_far():
    assert np.all(SegmentIndex([]).distances([0j, 1 + 1j]) == np.inf)


def test_winding_blocks_match_one_block():
    square = np.array([0, 1, 1 + 1j, 1j, 0], dtype=complex)
    zs = np.array([0.5 + 0.5j, 2.0, -0.3 + 0.2j, 0.2 + 0.9j, 3j])
    whole = geometry.winding_number(square, zs)
    assert np.array_equal(np.round(whole), [1, 0, 0, 1, 0])
    with mock.patch.object(geometry, "_BLOCK_PAIRS", 8):
        assert np.array_equal(geometry.winding_number(square, zs), whole)
    assert geometry.winding_number(square[::-1], zs[:1])[0] == pytest.approx(-1.0)


def _random_scene(rng):
    """1-3 seeded random polylines of 1-200 points, and queries near them or far off."""
    lines = []
    for _ in range(rng.integers(1, 4)):
        n = int(rng.integers(1, 201))
        if rng.random() < 0.5:
            t = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
            lines.append(rng.uniform(0.2, 2.0) * np.exp(1j * t) + complex(*rng.normal(size=2)))
        else:
            lines.append(0.1 * np.cumsum(rng.normal(size=n) + 1j * rng.normal(size=n)))
    m = int(rng.integers(1, 200))
    pts = np.concatenate(lines)
    kind = rng.integers(3)
    if kind == 0:
        zs = pts[rng.integers(0, pts.size, m)] + 0.01 * (rng.normal(size=m) + 1j * rng.normal(size=m))
    elif kind == 1:
        # a shifted copy: many distances nearly tie, so the running maximum decides
        zs = pts + 0.01 * np.exp(2j * np.pi * rng.random())
    else:
        zs = 10.0 ** rng.uniform(-1.0, 3.0) * (rng.normal(size=m) + 1j * rng.normal(size=m))
    return lines, zs


def test_max_distance_is_the_max_of_distances_bitwise():
    rng = np.random.default_rng(14)
    for _ in range(150):
        lines, zs = _random_scene(rng)
        index = SegmentIndex(lines)
        top = float(np.max(index.distances(zs)))
        for upto in (top, np.nextafter(top, 0.0), float(np.median(index.distances(zs))), 0.0, np.inf):
            want = np.max(index.distances(zs, upto))
            # a small block budget splits the box passes and the brute force
            for block in (256, geometry._BLOCK_PAIRS):
                with mock.patch.object(geometry, "_BLOCK_PAIRS", block):
                    got = index.max_distance(zs, upto)
                assert got == want and type(got) is float


def _edge_scenes():
    """(polylines, index argument) for grids that are degenerate or tiny."""
    rng = np.random.default_rng(22)
    walk = np.cumsum(rng.normal(size=100) + 1j * rng.normal(size=100))
    pts = rng.uniform(-2.0, 2.0, 60) + 1j * rng.uniform(-2.0, 2.0, 60)
    return {
        "one segment": ([np.array([0.25 - 1j, 1.5 + 0.5j])], None),
        "one point": ([np.array([0.5 + 0.5j])], None),
        "horizontal": ([np.linspace(-3.0, 5.0, 40) + 2j, np.array([7.0 + 2j, 9.0 + 2j])], None),
        "vertical": ([3.0 + 1j * np.linspace(-5.0, 5.0, 40)], None),
        "point set": ([p[None] for p in pts], pts[:, None]),
        "walk": ([walk], None),
        # cells of 1e-230: a far query's cell coordinate overflows
        "tiny": ([np.array([3.4e-230j, 3.4e-230j, 0j])], None),
    }


@pytest.mark.parametrize("name", list(_edge_scenes()))
def test_index_edge_cases_match_brute_force_bitwise(name):
    polylines, arg = _edge_scenes()[name]
    index = SegmentIndex(polylines if arg is None else arg)
    index._build_grid()  # the first grid search would build it
    rng = np.random.default_rng(5)
    x0, y0, cell = index._x0, index._y0, index._cell
    # cell corners, points on vertical and on horizontal cell edges, points
    # near the data, finite far points and non-finite points
    u = x0 + np.arange(-1, index._nx + 2) * cell
    v = y0 + np.arange(-1, index._ny + 2) * cell
    near = np.concatenate(polylines).ravel()
    near = near[rng.integers(0, near.size, 50)] + 0.3 * (rng.normal(size=50) + 1j * rng.normal(size=50))
    finite = np.concatenate(
        [
            (u[:, None] + 1j * v[None, :]).ravel(),
            u + 1j * rng.uniform(v[0], v[-1], u.size),
            rng.uniform(u[0], u[-1], v.size) + 1j * v,
            near,
            [1e300, -1e300, 1e300j, -1e300j, 1e300 + 1e300j],
        ]
    )
    bad = np.array([complex(np.nan, 0.0), complex(np.inf, 0.0), complex(0.0, -np.inf), complex(np.nan, 1.0), complex(1.0, np.inf)])
    order = rng.permutation(finite.size + bad.size)
    zs = np.concatenate([finite, bad])[order]
    want = np.where(np.isfinite(zs), brute_distances(np.nan_to_num(zs), polylines), np.inf)
    exact = float(np.sort(want[np.isfinite(want)])[finite.size // 2])
    assert 0.0 < exact < np.inf
    fin = np.isfinite(zs)
    for upto in (0.0, exact, np.nextafter(exact, 0.0), np.inf):
        bounded = np.where(want <= upto, want, np.inf)
        # a tiny block budget sends every input through the grid search
        for block in (8, geometry._BLOCK_PAIRS):
            with mock.patch.object(geometry, "_BLOCK_PAIRS", block):
                assert np.array_equal(index.distances(zs, upto), bounded)
                assert index.max_distance(zs[fin], upto) == np.max(bounded[fin])
                assert index.max_distance(zs, upto) == np.inf


def _ulps(x: float, k: int) -> float:
    """x moved k ulps up (k > 0) or down."""
    for _ in range(abs(k)):
        x = float(np.nextafter(x, np.inf if k > 0 else -np.inf))
    return x


def _pruning_scenes():
    """(polylines, index argument) for the box pruning: the edge scenes, and a
    segment whose computed points reach 1.2e-38 beyond its box."""
    return {**_edge_scenes(), "rounding": ([np.array([1.0, 1.2e-38])], None)}


@pytest.mark.parametrize("name", list(_pruning_scenes()))
def test_bounded_query_is_pruned_at_the_padded_box_exactly(name):
    polylines, arg = _pruning_scenes()[name]
    index = SegmentIndex(polylines if arg is None else arg)
    x0, y0, x1, y1, slack = index._box
    pts = np.concatenate(polylines).ravel()
    spread = float(np.max(brute_distances(pts[:5] + 1.0, polylines)))
    for upto in (0.0, 1e-3 * spread, spread):
        # the pruning box's edges as the index computes them, and points a
        # few ulps inside and outside them
        pad = upto * (1.0 + 1e-12) + slack
        xs = [_ulps(e, k) for e in (x0 - pad, x1 + pad) for k in range(-3, 4)]
        ys = [_ulps(e, k) for e in (y0 - pad, y1 + pad) for k in range(-3, 4)]
        mid_x, mid_y = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
        edges = [complex(x, mid_y) for x in xs] + [complex(mid_x, y) for y in ys]
        corners = [complex(x, y) for x in xs for y in ys]
        odd = [complex(np.nan, mid_y), complex(mid_x, np.inf), complex(-np.inf, 0.0), 1e300, -1e300, 1e300j, -1e300j]
        zs = np.array(edges + corners + odd + [0j], dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):
            want = brute_distances(zs, polylines)
        bounded = np.where(want <= upto, want, np.inf)
        # a tiny block budget sends the queries left by the pruning to the
        # grid search, the default one to brute force
        for block in (8, geometry._BLOCK_PAIRS):
            with mock.patch.object(geometry, "_BLOCK_PAIRS", block):
                assert np.array_equal(index.distances(zs, upto), bounded), (upto, block)


def test_bounded_query_beyond_the_box_scores_no_pair():
    rng = np.random.default_rng(35)
    line = np.cumsum(rng.normal(size=201) + 1j * rng.normal(size=201))
    index = SegmentIndex([line])
    x0, y0, x1, y1, _ = index._box
    upto = 0.5
    # 500 queries beyond the box by more than upto, in every direction
    far = 1.0 + upto + rng.uniform(0.0, 5.0, 500)
    side = rng.integers(0, 4, 500)
    zs = np.where(side == 0, x0 - far, np.where(side == 1, x1 + far, rng.uniform(x0, x1, 500))) + 1j * np.where(
        side == 2, y0 - far, np.where(side == 3, y1 + far, rng.uniform(y0, y1, 500))
    )
    assert zs.size * (line.size - 1) > geometry._BLOCK_PAIRS
    scored = []
    kernel = SegmentIndex._kernel

    def counted(self, z, seg):
        out = kernel(self, z, seg)
        scored.append(out.size)
        return out

    with mock.patch.object(SegmentIndex, "_kernel", counted):
        d = index.distances(zs, upto)
    assert sum(scored) == 0 and np.all(d == np.inf)
    assert not hasattr(index, "_members")


def test_few_near_queries_score_no_more_pairs_than_a_grid_search():
    """Ten bounded queries near a 20,000-segment polyline make more than
    _BLOCK_PAIRS pairs, so they go to the grid search, never to a brute-force
    scan of all segments."""
    rng = np.random.default_rng(35)
    t = np.linspace(0.0, 2.0 * np.pi, 20_001)
    line = (1.0 + 0.3 * np.cos(7.0 * t)) * np.exp(1j * t)
    zs = line[rng.integers(0, t.size, 10)] + 1e-3 * (rng.normal(size=10) + 1j * rng.normal(size=10))
    assert zs.size * (line.size - 1) > geometry._BLOCK_PAIRS
    kernel = SegmentIndex._kernel

    def pairs(call):
        scored = []

        def counted(self, z, seg):
            out = kernel(self, z, seg)
            scored.append(out.size)
            return out

        with mock.patch.object(SegmentIndex, "_kernel", counted):
            d = call(SegmentIndex([line]))
        return d, sum(scored)

    for upto in (1e-2, 1e-4):
        d, scored = pairs(lambda index: index.distances(zs, upto))
        # the whole call as one grid search
        want, searched = pairs(lambda index: index._search(zs, upto))
        assert np.array_equal(d, np.where(want <= upto, want, np.inf))
        assert scored <= searched < 0.1 * zs.size * (line.size - 1)


def test_distances_memory_peak():
    """One call of 20,000 queries near a 20,000-point polyline: the candidate
    pairs are scored in blocks, so the peak stays small."""
    rng = np.random.default_rng(3)
    t = np.linspace(0.0, 2.0 * np.pi, 20_000)
    line = (1.0 + 0.3 * np.cos(7.0 * t)) * np.exp(1j * t)
    zs = line[rng.permutation(t.size)] + 0.02 * (rng.normal(size=t.size) + 1j * rng.normal(size=t.size))
    index = SegmentIndex([line])
    for upto in (np.inf, 1e-6):
        tracemalloc.start()
        try:
            d = index.distances(zs, upto)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.count_nonzero(np.isfinite(d)) == (t.size if upto == np.inf else 1)
        # the ring-by-ring search peaked at 10.5 MiB (upto inf) and 10.3 MiB
        # (upto 1e-6) here, the box search at 2.7 and 2.6 MiB, and the box
        # search with its pairs unsplit at 44 MiB
        assert peak < 6 * 2**20, (upto, peak)
