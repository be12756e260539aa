import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from levelcurves import LevelCurveError, RationalFn, geometry, parse_function_spec, trace_level_set
from levelcurves.funcspace import random_polynomial
from levelcurves.geometry import SegmentIndex, bounding_box
from levelcurves.gridcheck import (
    BLOCK,
    ORACLE_MARGIN_REL,
    ORACLE_N,
    PROXIMITY_FACTOR,
    ProximityReport,
    crossing_cells,
    grid_oracle_report,
)

# (spec, eps) of the verify-all fixtures
FIXTURES = {
    "lemniscate": ("poly:1,0,-1", 1.0),
    "z5m1": ("poly:1,0,0,0,0,-1", 1.0),
    "blaschke21": ("blaschke:0.36,-0.34+0.03i/0.05+0.02i", 0.5),
}


def _dense_crossing_cells(f, eps, box, n):
    """The raster on the whole meshgrid at once with a +/-1 sign grid, kept
    as the reference for the banded raster."""
    x0, y0, x1, y1 = box
    xs = np.linspace(x0, x1, n + 1)
    ys = np.linspace(y0, y1, n + 1)
    X, Y = np.meshgrid(xs, ys)
    V = f.abs_grid(X + 1j * Y)
    S = np.where(V >= eps, 1, -1)
    c00, c01, c10, c11 = S[:-1, :-1], S[:-1, 1:], S[1:, :-1], S[1:, 1:]
    ii, jj = np.nonzero(~((c00 == c01) & (c00 == c10) & (c00 == c11)))
    cx = 0.5 * (xs[jj] + xs[jj + 1])
    cy = 0.5 * (ys[ii] + ys[ii + 1])
    return cx + 1j * cy, math.hypot(xs[1] - xs[0], ys[1] - ys[0])


def _oracle_box(f, eps):
    """The raster box ``grid_oracle_report`` takes around the traced curves."""
    x0, y0, x1, y1 = bounding_box([a.points for c in trace_level_set(f, eps) for a in c.arcs])
    m = ORACLE_MARGIN_REL * max(x1 - x0, y1 - y0, 1e-9)
    return (x0 - m, y0 - m, x1 + m, y1 + m)


CASES = {
    **{name: (spec, eps, None, ORACLE_N) for name, (spec, eps) in FIXTURES.items()},
    # 221 rows is not a multiple of the band
    "lemniscate-220": ("poly:1,0,-1", 1.0, (-2.0, -1.4, 2.0, 1.4), 220),
    # the grid meets the poles +-0.5i, where |f| is inf
    "rat-poles": ("rat:1,0,0,-1/1,0,0.25", 2.0, (-2.5, -2.5, 2.5, 2.5), ORACLE_N),
}


@pytest.mark.parametrize("name", list(CASES))
def test_banded_raster_is_the_dense_raster_bitwise(name):
    spec, eps, box, n = CASES[name]
    f = parse_function_spec(spec)
    box = box or _oracle_box(f, eps)
    want_cells, want_diag = _dense_crossing_cells(f, eps, box, n)
    assert want_cells.size
    # the budget caps the undecided blocks evaluated per abs_grid call: one
    # block a call, 24, and the default 101
    for block in (8, 16_000, geometry._BLOCK_PAIRS):
        with mock.patch.object(geometry, "_BLOCK_PAIRS", block):
            cells, diag = crossing_cells(f, eps, box, n)
        assert cells.tobytes() == want_cells.tobytes()
        assert diag == want_diag


def _random_function(kind: str, rng: np.random.Generator) -> RationalFn:
    if kind == "poly":
        return RationalFn(random_polynomial(rng, int(rng.integers(2, 10))))
    if kind == "blaschke":
        # B1 / B2 with 1-4 and 0-3 zeros, uniform in the disk of radius 0.9
        n1, n2 = int(rng.integers(1, 5)), int(rng.integers(0, 4))
        if n1 == n2:
            reject()
        zs = 0.9 * np.sqrt(rng.uniform(size=n1 + n2)) * np.exp(2j * np.pi * rng.uniform(size=n1 + n2))
        return RationalFn.blaschke_ratio(zs[:n1], zs[n1:])
    # rat: a numerator of degree 1-6 over a denominator of degree 1-3
    return RationalFn(random_polynomial(rng, int(rng.integers(1, 7))), random_polynomial(rng, int(rng.integers(1, 4))))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(["poly", "blaschke", "rat"]),
    seed=st.integers(0, 2**32 - 1),
    level=st.sampled_from(["below", "above", "random"]),
    box_kind=st.sampled_from(["oracle", "points", "off-center"]),
    n=st.sampled_from([5, 37, 220, 600]),
)
def test_block_raster_is_the_dense_raster_bitwise(kind, seed, level, box_kind, n):
    rng = np.random.default_rng(seed)
    try:
        f = _random_function(kind, rng)
        crit = [f.abs_eval(c) for c, _ in f.critical_points]
    except LevelCurveError:
        reject()
    # a critical value times 1 -+ 1e-12, where the level set nearly pinches
    eps = float(np.exp(rng.normal())) if level == "random" or not crit else rng.choice(crit) * (
        1.0 - 1e-12 if level == "below" else 1.0 + 1e-12
    )
    # the zeros, poles and critical points, with a margin
    pts = np.array(f.distinguished_points())
    x0, y0, x1, y1 = pts.real.min(), pts.imag.min(), pts.real.max(), pts.imag.max()
    m = 0.3 * max(x1 - x0, y1 - y0, 1.0)
    box = (x0 - m, y0 - m, x1 + m, y1 + m)
    if box_kind == "oracle":
        try:
            box = _oracle_box(f, eps)
        except LevelCurveError:
            pass
    elif box_kind == "off-center":
        # an oblong box about a point near a distinguished one
        c = rng.choice(pts) + complex(*rng.uniform(-1.0, 1.0, 2))
        hx, hy = np.exp(rng.uniform(-5.0, 1.0, 2))
        box = (c.real - hx, c.imag - hy, c.real + hx, c.imag + hy)
    want_cells, want_diag = _dense_crossing_cells(f, eps, box, n)
    cells, diag = crossing_cells(f, eps, box, n)
    assert cells.tobytes() == want_cells.tobytes()
    assert diag == want_diag


def _evaluated_points(f, eps, box, n):
    """The crossing cells and every point ``f.abs_grid`` saw on the way."""
    seen = []
    grid = f.abs_grid

    def record(z):
        seen.append(np.ravel(z))
        return grid(z)

    f.abs_grid = record
    try:
        cells, _ = crossing_cells(f, eps, box, n)
    finally:
        del f.abs_grid
    return cells, np.concatenate(seen)


def test_a_block_holding_a_pole_is_evaluated():
    spec, eps, box, n = CASES["rat-poles"]
    f = parse_function_spec(spec)
    cells, seen = _evaluated_points(f, eps, box, n)
    xs, ys = np.linspace(box[0], box[2], n + 1), np.linspace(box[1], box[3], n + 1)
    for pole, _ in f.poles:
        # the grid points of the block whose rectangle holds the pole
        i, j = (int(np.searchsorted(v, t)) // BLOCK * BLOCK for v, t in ((ys, pole.imag), (xs, pole.real)))
        block = (xs[j : j + BLOCK + 1] + 1j * ys[i : i + BLOCK + 1, None]).ravel()
        assert block.size == (BLOCK + 1) ** 2
        assert np.isin(block, seen).all()
    assert cells.tobytes() == _dense_crossing_cells(f, eps, box, n)[0].tobytes()


@pytest.mark.parametrize("name", list(FIXTURES))
def test_raster_evaluates_the_undecided_blocks_only(name):
    spec, eps = FIXTURES[name]
    f = parse_function_spec(spec)
    _, seen = _evaluated_points(f, eps, _oracle_box(f, eps), ORACLE_N)
    # each undecided block is evaluated whole, edges shared with its neighbours included
    assert seen.size % (BLOCK + 1) ** 2 == 0
    # the 2,600 to 4,200 crossing cells lie in 480 to 810 of the 5,625 blocks
    assert seen.size < (ORACLE_N + 1) ** 2 / 4


def test_blocks_whose_bounds_overflow_are_evaluated():
    # |z|^2 passes the largest float all over the box, so every bound
    # overflows to hi = inf, and so does every value
    f = parse_function_spec("poly:1,0,-1")
    box, n = (1.35e154, -1e153, 1.45e154, 1e153), 37
    with np.errstate(all="ignore"):
        _, hi = f.abs_bounds([box[0]], 0.0, computed=True)
        cells, seen = _evaluated_points(f, 1.0, box, n)
        want_cells, _ = _dense_crossing_cells(f, 1.0, box, n)
    assert hi[0] == math.inf
    assert np.unique(seen).size == (n + 1) ** 2
    assert cells.tobytes() == want_cells.tobytes()


def _two_index_proximity(arcs, cells, diag):
    """The oracle's report from one index over the traced polylines and one
    over the crossing-cell centers, kept as the reference for the d-check."""
    trace_points = np.concatenate(arcs)
    return ProximityReport(
        max_cell_to_trace=SegmentIndex(arcs).max_distance(cells),
        max_trace_to_cell=SegmentIndex(cells[:, None]).max_distance(trace_points),
        threshold=PROXIMITY_FACTOR * diag,
        n_cells=int(cells.size),
        n_trace_points=int(trace_points.size),
    )


@pytest.mark.parametrize("name", [*FIXTURES, "rat-poles"])
def test_grid_oracle_is_the_two_index_formula_bitwise(name):
    spec, eps, _, _ = CASES[name]
    f = parse_function_spec(spec)
    comps = trace_level_set(f, eps)
    cells, diag = crossing_cells(f, eps, _oracle_box(f, eps))
    assert cells.size
    want = _two_index_proximity([a.points for c in comps for a in c.arcs], cells, diag)
    assert repr(grid_oracle_report(f, eps, comps)) == repr(want)


@pytest.mark.parametrize("name", list(FIXTURES))
def test_grid_oracle_memory_peak(name):
    spec, eps = FIXTURES[name]
    f = parse_function_spec(spec)
    comps = trace_level_set(f, eps)
    tracemalloc.start()
    try:
        rep = grid_oracle_report(f, eps, comps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.ok
    # the whole-grid raster peaked at 22 to 25 MB here
    assert peak < 8 * 2**20, peak
