"""Planar geometry helpers on complex-valued polylines.

Polylines are 1-D numpy arrays of complex points.  Closed polylines repeat
the first point at the end; the helpers below state which form they expect.

``SegmentIndex``, the package's one spatial index, answers each query from
the grid cells of a search box that doubles until the distance is exact, and
gives the same float as brute force; it builds the grid on its first grid
search, not before.  A query bounded by ``upto``, if larger than one box
pass, scores only the points within ``upto`` of the segments' bounding box:
the rest are ``inf`` at once.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np


def as_points(pts) -> np.ndarray:
    return np.asarray(pts, dtype=complex).ravel()


def polyline_length(pts) -> float:
    pts = as_points(pts)
    if pts.size < 2:
        return 0.0
    return float(np.sum(np.abs(np.diff(pts))))


def signed_area(closed_pts) -> float:
    """Shoelace area of a closed polyline (first point == last point)."""
    p = as_points(closed_pts)
    if p.size < 3:
        return 0.0
    x, y = p.real, p.imag
    return 0.5 * float(np.sum(x[:-1] * y[1:] - x[1:] * y[:-1]))


def nearest_on_segment(p: complex, a: complex, b: complex) -> complex:
    """The point of the segment [a, b] nearest to p."""
    d = b - a
    dd = d.real * d.real + d.imag * d.imag
    if dd == 0.0:
        return a
    t = ((p - a).real * d.real + (p - a).imag * d.imag) / dd
    t = min(max(t, 0.0), 1.0)
    return a + t * d


# Pairs scored in one block: bounds the temporaries of a query.  A box pass
# scores a sixteenth of it at a time.
_BLOCK_PAIRS = 1 << 16
# Queries whose search boxes are gathered together.
_BLOCK_QUERIES = 1024


def winding_number(closed_pts, zs) -> np.ndarray:
    """Total turn of the closed polyline around each query point, in full turns.

    Returned as floats; callers round and check the integer residue.  No
    query point may lie on the polyline.
    """
    p = as_points(closed_pts)
    zs = as_points(zs)
    out = np.empty(zs.shape)
    step = max(1, _BLOCK_PAIRS // max(1, p.size - 1))
    for s in range(0, zs.size, step):
        w = p[None, :] - zs[s : s + step, None]
        out[s : s + step] = np.sum(np.angle(w[:, 1:] / w[:, :-1]), axis=1) / (2.0 * np.pi)
    return out


def _ranges(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(k, value) for each value of the inclusive ranges [lo[k], hi[k]], in order of k."""
    n = np.maximum(hi - lo + 1, 0)
    k = np.repeat(np.arange(n.size), n)
    return k, lo[k] + np.arange(k.size) - np.repeat(np.cumsum(n) - n, n)


class SegmentIndex:
    """Exact nearest distances from query points to a fixed family of polylines.

    Each polyline contributes only its own segments; a one-point polyline is
    a point.  A 2-D array is a stack of equal-length polylines, so
    ``pts[:, None]`` indexes a point set.  The first grid search hashes each
    segment into the cells of a uniform grid that its bounding box meets;
    ``distances`` scores a call of at most _BLOCK_PAIRS pairs by brute force,
    so an index that sees only such calls never builds its grid.  With a
    finite ``upto`` that budget is _BLOCK_PAIRS / 16 pairs, one box pass; a
    larger bounded call gives ``inf`` at once to the queries farther than
    ``upto`` from the segments' box, padded as a search box is, and sends
    only the rest to the grid search, whose square is then at most
    ``upto`` wide.  A grid search answers a query in passes over the cells
    that meet a square of half-width r about it (one range of the hash per
    grid column), r first half a cell beyond the grid and at most ``upto``.
    A segment within r has its nearest point in a scanned cell, so a best
    candidate at most r is exact; otherwise r doubles up to ``upto``, and a
    square over the whole grid is one brute-force pass.  Every candidate
    goes through one formula, so a distance is the same float as the
    minimum over all segments.

    ``distances`` gives every distance; ``max_distance`` gives only the
    largest, as the one side of a Hausdorff distance needs.  It keeps the
    largest exact distance finished so far, stops a query as soon as its
    best candidate cannot raise it (the early break of Taha & Hanbury, IEEE
    TPAMI 37(11), 2015), and stops the whole search once one query is proven
    beyond the bound.
    """

    def __init__(self, polylines):
        if isinstance(polylines, np.ndarray) and polylines.ndim == 2:
            p = polylines.astype(complex)
            a, b = (p[:, :-1], p[:, 1:]) if p.shape[1] > 1 else (p, p)
        else:
            parts = [as_points(pts) for pts in polylines] + [np.empty(0, complex)]
            a = np.concatenate([p if p.size == 1 else p[:-1] for p in parts])
            b = np.concatenate([p if p.size == 1 else p[1:] for p in parts])
        a, b = a.ravel(), b.ravel()
        self._a = a
        self._d = b - a
        denom = self._d.real**2 + self._d.imag**2
        self._denom = np.where(denom == 0.0, 1.0, denom)
        # the segment ends, kept for the box and the grid: a + d need not be b
        self._b: np.ndarray | None = b

    @cached_property
    def _box(self) -> tuple[float, float, float, float, float]:
        """(x0, y0, x1, y1) around the segments, and 1e-12 of its size and
        offset: the slack for the rounding of cell coordinates and of the
        distance formula, added to every search box."""
        x, y = np.concatenate((self._a.real, self._b.real)), np.concatenate((self._a.imag, self._b.imag))
        x0, y0, x1, y1 = float(x.min()), float(y.min()), float(x.max()), float(y.max())
        return x0, y0, x1, y1, 1e-12 * (abs(x0) + abs(y0) + (x1 - x0) + (y1 - y0))

    def _build_grid(self) -> None:
        """Hash the segments into the grid, once; the first grid search calls it."""
        if self._b is None:
            return
        a, b, n = self._a, self._b, self._a.size
        lo_x, hi_x = np.minimum(a.real, b.real), np.maximum(a.real, b.real)
        lo_y, hi_y = np.minimum(a.imag, b.imag), np.maximum(a.imag, b.imag)
        self._x0, self._y0, x1, y1, self._slack = self._box
        w, h = x1 - self._x0, y1 - self._y0
        # about one cell per segment over the bounding box; coarser while
        # long segments would each be hashed into many cells
        cell = max(math.sqrt(w * h / n), max(w, h) / n) or 1.0
        while True:
            i0, i1 = self._cells(lo_x, self._x0, cell), self._cells(hi_x, self._x0, cell)
            j0, j1 = self._cells(lo_y, self._y0, cell), self._cells(hi_y, self._y0, cell)
            span_j = j1 - j0 + 1
            per_seg = (i1 - i0 + 1) * span_j
            if per_seg.sum() <= 4 * n + 64:
                break
            cell *= 2.0
        self._cell = cell
        self._nx, self._ny = int(i1.max()) + 1, int(j1.max()) + 1
        seg, k = _ranges(np.zeros(n, dtype=np.int64), per_seg - 1)
        cell_id = (i0[seg] + k // span_j[seg]) * self._ny + j0[seg] + k % span_j[seg]
        order = np.argsort(cell_id, kind="stable")
        self._members = seg[order]
        counts = np.bincount(cell_id, minlength=self._nx * self._ny)
        self._start = np.concatenate(([0], np.cumsum(counts)))
        self._b = None

    @staticmethod
    def _cells(x: np.ndarray, x0: float, cell: float, n: int | None = None) -> np.ndarray:
        """Grid coordinate of each x; with n, clipped to [0, n - 1] before the
        cast, so that a far coordinate cannot overflow."""
        u = (x - x0) / cell
        return np.floor(u if n is None else np.clip(u, 0, n - 1)).astype(np.int64)

    def _kernel(self, z: np.ndarray, seg) -> np.ndarray:
        """Distance from z to segment seg (arrays broadcast together).  A
        NaN, infinite or huge query overflows or gives NaN here, silently:
        its distance comes out NaN or inf, which the callers resolve."""
        a, d = self._a[seg], self._d[seg]
        with np.errstate(over="ignore", invalid="ignore"):
            w = z - a
            t = np.clip((w.real * d.real + w.imag * d.imag) / self._denom[seg], 0.0, 1.0)
            return np.abs(z - (a + t * d))

    def _brute(self, zs: np.ndarray) -> np.ndarray:
        out = np.empty(zs.shape)
        step = max(1, _BLOCK_PAIRS // self._a.size)
        for s in range(0, zs.size, step):
            out[s : s + step] = np.min(self._kernel(zs[s : s + step, None], slice(None)), axis=1)
        return out

    def distances(self, zs, upto: float = math.inf) -> np.ndarray:
        """Distance from each query point to the nearest segment.

        Exact wherever it is at most ``upto``; ``inf`` beyond it, so a
        threshold test can stop early.  With no segments every distance is
        ``inf``.
        """
        zs = as_points(zs)
        n = self._a.size
        if n == 0:
            return np.full(zs.shape, np.inf)
        if zs.size * n <= (_BLOCK_PAIRS if upto == math.inf else _BLOCK_PAIRS // 16):
            out = self._brute(zs)
        elif upto == math.inf:
            out = self._search(zs, upto)
        else:
            # beyond the padded box a query is beyond upto, as computed too
            x0, y0, x1, y1, slack = self._box
            pad = upto * (1.0 + 1e-12) + slack
            x, y = zs.real, zs.imag
            near = np.flatnonzero((x >= x0 - pad) & (x <= x1 + pad) & (y >= y0 - pad) & (y <= y1 + pad))
            out = np.full(zs.shape, np.inf)
            if near.size:
                out[near] = self._search(zs[near], upto)
        return np.where(out <= upto, out, np.inf)

    def max_distance(self, zs, upto: float = math.inf) -> float:
        """``max(self.distances(zs, upto))``, the same float, ``inf`` included.

        Always runs the grid search, which stops each query once it cannot
        raise the largest distance finished so far, and stops altogether once
        one query is proven beyond ``upto``.  zs must not be empty.
        """
        zs = as_points(zs)
        if self._a.size == 0:
            return math.inf
        out = self._search(zs, upto, running_max=True)
        return float(np.max(np.where(out <= upto, out, np.inf)))

    def _search(self, zs: np.ndarray, upto: float, running_max: bool = False) -> np.ndarray:
        """Distance from each query, exact where at most upto.

        With ``running_max`` only the largest distance is kept exact: a query
        stops with its best so far once that is at most the largest exact
        distance already finished, and the search returns as soon as one
        query is proven beyond upto, leaving that query's entry above upto.
        """
        self._build_grid()
        nx, ny, cell = self._nx, self._ny, self._cell
        best = np.full(zs.shape, np.inf)
        ok = np.isfinite(zs)
        if not ok.all():
            best[~ok] = self._brute(zs[~ok])
        x, y = zs.real, zs.imag
        # the first box reaches half a cell into the grid
        gap = np.maximum(self._x0 - x, x - (self._x0 + nx * cell))
        gap = np.maximum(gap, np.maximum(self._y0 - y, y - (self._y0 + ny * cell)))
        r = np.minimum(upto, 0.5 * cell + np.maximum(gap, 0.0))
        active = np.nonzero(ok)[0]
        top = -math.inf  # the largest exact distance finished so far
        while active.size:
            ra = r[active]
            # the rounding of cell coordinates and of the distance formula
            pad = ra * (1.0 + 1e-12) + self._slack
            xa, ya = x[active], y[active]
            # a far query's coordinate in tiny cells overflows to inf, which
            # the clip in _cells takes to the grid's edge
            with np.errstate(over="ignore"):
                i_lo, i_hi = self._cells(xa - pad, self._x0, cell, nx), self._cells(xa + pad, self._x0, cell, nx)
                j_lo, j_hi = self._cells(ya - pad, self._y0, cell, ny), self._cells(ya + pad, self._y0, cell, ny)
            whole = (i_lo == 0) & (i_hi == nx - 1) & (j_lo == 0) & (j_hi == ny - 1)
            done = active[whole]
            if done.size:
                best[done] = self._brute(zs[done])
            part = np.nonzero(~whole)[0]
            for s in range(0, part.size, _BLOCK_QUERIES):
                k = part[s : s + _BLOCK_QUERIES]
                self._scan_boxes(zs, active[k], i_lo[k], i_hi[k], j_lo[k], j_hi[k], best)
            # every segment within ra meets a scanned cell
            exact = whole | (best[active] <= ra)
            finished = exact | (ra >= upto)
            r[active] = np.minimum(2.0 * ra, upto)
            if running_max:
                found = best[active[exact]]
                if np.any(finished & ~exact) or np.any(found > upto):
                    return best
                top = max(top, float(np.max(found, initial=-math.inf)))
                finished |= best[active] <= top
            active = active[~finished]
        return best

    def _scan_boxes(self, zs, q, i_lo, i_hi, j_lo, j_hi, best) -> None:
        """Fold every segment in the cells of each query's box into best; the
        cells of one grid column are one range of ``_members``."""
        ny = self._ny
        owner, i = _ranges(i_lo, i_hi)
        lo = self._start[i * ny + j_lo[owner]]
        hi = self._start[i * ny + j_hi[owner] + 1]
        # split the columns so that one block holds about step pairs
        step = max(1, _BLOCK_PAIRS // 16)
        ends = np.cumsum(hi - lo)
        cuts = [0, *np.searchsorted(ends, np.arange(step, ends[-1], step)).tolist(), lo.size]
        for c0, c1 in zip(cuts[:-1], cuts[1:]):
            k, pos = _ranges(lo[c0:c1], hi[c0:c1] - 1)
            who = q[owner[c0:c1][k]]
            np.minimum.at(best, who, self._kernel(zs[who], self._members[pos]))


def points_to_polyline_distances(zs, pts) -> np.ndarray:
    """Distance from each point of zs to the polyline pts."""
    return SegmentIndex([pts]).distances(zs)


def horizontal_crossings(pts, y: float) -> list[complex]:
    """Points where the polyline crosses the horizontal line Im(z) == y."""
    p = as_points(pts)
    if p.size < 2:
        return []
    y0 = p[:-1].imag - y
    y1 = p[1:].imag - y
    hit = (y0 == 0.0) | (y0 * y1 < 0.0)
    out = []
    for i in np.nonzero(hit)[0]:
        if y0[i] == 0.0:
            out.append(complex(p[i]))
            continue
        t = y0[i] / (y0[i] - y1[i])
        out.append(complex(p[i] + t * (p[i + 1] - p[i])))
    return out


def bounding_box(pts_list):
    """(x0, y0, x1, y1) box around a list of polylines."""
    xs, ys = [], []
    for pts in pts_list:
        p = as_points(pts)
        if p.size:
            xs.extend((float(np.min(p.real)), float(np.max(p.real))))
            ys.extend((float(np.min(p.imag)), float(np.max(p.imag))))
    if not xs:
        raise ValueError("no points")
    return (min(xs), min(ys), max(xs), max(ys))
