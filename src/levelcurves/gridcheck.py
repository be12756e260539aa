"""Marching-squares rasterization used as an independent check on the tracer.

The raster side never consults traced data, only f: it keeps whether
|f| >= eps at each grid point and marks cells whose corners straddle the
level.  Certified bounds of f from its Taylor shift
(``RationalFn.abs_bounds``) settle most blocks of the grid unevaluated: when
they put the computed |f| of every grid point of a block on one side of eps,
all the block's corners share a sign, so none of its cells crosses the level,
and the cells are those of the full raster, bit for bit.  The proximity
report is then the d-check (``metrics.hausdorff_between_curves``) between
the traced polylines and the crossing-cell centers, a point set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry
from .funcspace import RationalFn
from .geometry import bounding_box
from .metrics import hausdorff_between_curves

ORACLE_N = 600  # cells per side of the oracle raster
ORACLE_MARGIN_REL = 0.05  # raster margin around the traced curves, relative to their extent
PROXIMITY_FACTOR = 2.0  # both one-sided distances must stay within this many cell diagonals
BLOCK = 8  # cells per side of a raster block, decided by one disk bound


def crossing_cells(f: RationalFn, eps: float, box, n: int = ORACLE_N) -> tuple[np.ndarray, float]:
    """Centers of grid cells whose corner values straddle |f| = eps, in
    row-major order.

    The n x n cells are covered by blocks of BLOCK x BLOCK, and one batched
    ``f.abs_bounds(..., computed=True)`` call bounds the float ``f.abs_grid``
    returns anywhere on each block's circumscribed disk.  A block whose
    bounds are finite and lie at or above eps, or below it, is decided.  One
    that may hold a pole, or whose bounds overflow, has hi = inf and never
    is.  ``f.abs_grid`` runs on the grid points of the undecided blocks only,
    and a cell is a crossing cell when its corners do not all share a sign; a
    NaN counts as below the level.

    Returns (cell centers as complex array, cell diagonal length).
    """
    x0, y0, x1, y1 = box
    xs = np.linspace(x0, x1, n + 1)
    ys = np.linspace(y0, y1, n + 1)
    b = min(BLOCK, n)
    # the grid lines of each block in a row or column; the last block ends at
    # line n and may overlap the one before it
    lines = np.minimum(np.arange(0, n, b), n - b)[:, None] + np.arange(b + 1)
    cx, hx = _mid_and_half(xs[lines[:, 0]], xs[lines[:, -1]])
    cy, hy = _mid_and_half(ys[lines[:, 0]], ys[lines[:, -1]])
    # slack for the rounding of the half diagonal
    lo, hi = f.abs_bounds(cx + 1j * cy[:, None], np.hypot(hx, hy[:, None]) * (1.0 + 2.0**-40), computed=True)
    bi, bj = np.nonzero(~((hi < math.inf) & ((lo >= eps) | (hi < eps))))
    rows, cols = lines[bi], lines[bj]
    above = np.empty((bi.size, b + 1, b + 1), dtype=bool)
    # at most _BLOCK_PAIRS / 8 points a call, and at least one block, keep
    # each complex temporary, 16 bytes a point, within 128 KiB, below glibc's
    # default mmap threshold, so malloc reuses its memory from call to call
    step = max(1, geometry._BLOCK_PAIRS // 8 // (b + 1) ** 2)
    for s in range(0, bi.size, step):
        z = xs[cols[s : s + step, None, :]] + 1j * ys[rows[s : s + step, :, None]]
        above[s : s + step] = f.abs_grid(z) >= eps
    c00 = above[:, :-1, :-1]
    k, r, c = np.nonzero((c00 != above[:, :-1, 1:]) | (c00 != above[:, 1:, :-1]) | (c00 != above[:, 1:, 1:]))
    # row-major, and once each: a cell of two overlapping blocks comes twice
    keys = np.sort(rows[k, r] * n + cols[k, c])
    ii, jj = np.divmod(keys[np.diff(keys, prepend=-1) > 0], n)
    cx = 0.5 * (xs[jj] + xs[jj + 1])
    cy = 0.5 * (ys[ii] + ys[ii + 1])
    diag = math.hypot(xs[1] - xs[0], ys[1] - ys[0])
    return cx + 1j * cy, diag


def _mid_and_half(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The midpoints m of a and b, and the larger of |a - m| and |b - m|."""
    mid = 0.5 * (a + b)
    return mid, np.maximum(np.abs(a - mid), np.abs(b - mid))


@dataclass
class ProximityReport:
    max_cell_to_trace: float
    max_trace_to_cell: float
    threshold: float
    n_cells: int
    n_trace_points: int

    @property
    def ok(self) -> bool:
        return (
            self.max_cell_to_trace <= self.threshold
            and self.max_trace_to_cell <= self.threshold
        )


def grid_oracle_report(f: RationalFn, eps: float, components) -> ProximityReport:
    """Compare traced components of E_{f, eps} against a fresh rasterization."""
    arcs = [a for c in components for a in c.arcs]
    x0, y0, x1, y1 = bounding_box([a.points for a in arcs])
    m = ORACLE_MARGIN_REL * max(x1 - x0, y1 - y0, 1e-9)
    cells, diag = crossing_cells(f, eps, (x0 - m, y0 - m, x1 + m, y1 + m), ORACLE_N)
    rep = hausdorff_between_curves(arcs, cells[:, None])
    return ProximityReport(
        max_cell_to_trace=rep.d2,
        max_trace_to_cell=rep.d1,
        threshold=PROXIMITY_FACTOR * diag,
        n_cells=int(cells.size),
        n_trace_points=sum(a.points.size for a in arcs),
    )
