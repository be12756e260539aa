import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from levelcurves import geometry, parse_function_spec, trace_level_set
from levelcurves.geometry import SegmentIndex, bounding_box
from levelcurves.gridcheck import (
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
    # one-row bands, bands of 3 and 9 rows that leave a short last band at
    # n = 600 and n = 220, and the default bands
    for block in (8, 16_000, geometry._BLOCK_PAIRS):
        with mock.patch.object(geometry, "_BLOCK_PAIRS", block):
            cells, diag = crossing_cells(f, eps, box, n)
        assert cells.tobytes() == want_cells.tobytes()
        assert diag == want_diag


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
