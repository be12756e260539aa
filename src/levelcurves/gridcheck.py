"""Marching-squares rasterization used as an independent check on the tracer.

The raster side never consults traced data: it evaluates |f| on a grid, a
band of rows at a time, keeps only whether |f| >= eps at each grid point,
and marks cells whose corners straddle the level.  The proximity report is
then the d-check (``metrics.hausdorff_between_curves``) between the traced
polylines and the crossing-cell centers, a point set.
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


def crossing_cells(f: RationalFn, eps: float, box, n: int = ORACLE_N) -> tuple[np.ndarray, float]:
    """Centers of grid cells whose corner values straddle |f| = eps.

    |f| is evaluated a band of rows at a time and only the sign grid
    |f| >= eps is kept.  A cell is a crossing cell when its corners do not
    all share a sign; a NaN counts as below the level.

    Returns (cell centers as complex array, cell diagonal length).
    """
    x0, y0, x1, y1 = box
    xs = np.linspace(x0, x1, n + 1)
    ys = np.linspace(y0, y1, n + 1)
    above = np.empty((n + 1, n + 1), dtype=bool)
    # a band of at most _BLOCK_PAIRS / 8 points keeps each complex temporary,
    # 16 bytes a point, within 128 KiB, below glibc's default mmap threshold,
    # so malloc reuses its memory from band to band; with 109-row bands at
    # ORACLE_N their pages went back to the system and were faulted in again
    # each band, about 4,300 page faults a raster
    rows = max(1, geometry._BLOCK_PAIRS // 8 // (n + 1))
    for i in range(0, n + 1, rows):
        above[i : i + rows] = f.abs_grid(xs + 1j * ys[i : i + rows, None]) >= eps
    c00 = above[:-1, :-1]
    mixed = (c00 != above[:-1, 1:]) | (c00 != above[1:, :-1]) | (c00 != above[1:, 1:])
    ii, jj = np.nonzero(mixed)
    cx = 0.5 * (xs[jj] + xs[jj + 1])
    cy = 0.5 * (ys[ii] + ys[ii + 1])
    diag = math.hypot(xs[1] - xs[0], ys[1] - ys[0])
    return cx + 1j * cy, diag


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
