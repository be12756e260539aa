"""Planar geometry helpers on complex-valued polylines.

Polylines are 1-D numpy arrays of complex points.  Closed polylines repeat
the first point at the end; the helpers below state which form they expect.
"""

from __future__ import annotations

import math

import numpy as np


def as_points(pts) -> np.ndarray:
    return np.asarray(pts, dtype=complex).ravel()


def polyline_length(pts) -> float:
    pts = as_points(pts)
    if pts.size < 2:
        return 0.0
    return float(np.sum(np.abs(np.diff(pts))))


def max_segment_length(pts) -> float:
    pts = as_points(pts)
    if pts.size < 2:
        return 0.0
    return float(np.max(np.abs(np.diff(pts))))


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


# Pairs evaluated in one block: bounds the temporaries of a query.
_BLOCK_PAIRS = 1 << 16
# Queries whose rings are scanned together.
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
    ``pts[:, None]`` indexes a point set.  Segments are hashed into a uniform
    grid sized from the data; a query scans rings of cells outward until no
    unscanned cell can hold anything nearer, or a brute-force pass in bounded
    blocks once that is cheaper.  Every candidate goes through one formula,
    so a distance is the same float as the minimum over all segments.

    ``distances`` gives every distance; ``max_distance`` gives only the
    largest, as the one side of a Hausdorff distance needs.  It keeps the
    running maximum of the distances finished so far, stops a query as soon
    as its best candidate cannot raise it (the early break of Taha &
    Hanbury, IEEE TPAMI 37(11), 2015), and stops the whole search once one
    query is proven beyond the bound.
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
        if a.size:
            self._build_grid(b)

    def _build_grid(self, b: np.ndarray) -> None:
        a, n = self._a, self._a.size
        lo_x, hi_x = np.minimum(a.real, b.real), np.maximum(a.real, b.real)
        lo_y, hi_y = np.minimum(a.imag, b.imag), np.maximum(a.imag, b.imag)
        self._x0, self._y0 = float(lo_x.min()), float(lo_y.min())
        w, h = float(hi_x.max()) - self._x0, float(hi_y.max()) - self._y0
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
        # rounding of cell coordinates and of the distance formula, kept off
        # the ring lower bound
        self._slack = 1e-12 * (abs(self._x0) + abs(self._y0) + w + h)

    @staticmethod
    def _cells(x: np.ndarray, x0: float, cell: float) -> np.ndarray:
        return np.floor((x - x0) / cell).astype(np.int64)

    def _kernel(self, z: np.ndarray, seg) -> np.ndarray:
        """Distance from z to segment seg (arrays broadcast together)."""
        a, d = self._a[seg], self._d[seg]
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
        if self._a.size == 0:
            return np.full(zs.shape, np.inf)
        if zs.size * self._a.size <= _BLOCK_PAIRS:
            out = self._brute(zs)
        else:
            out = self._search(zs, upto)
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

    def _ring(self, u, v, r):
        """(query position, cell id) of the grid cells at Chebyshev distance r from (u, v)."""
        nx, ny = self._nx, self._ny
        i_lo, i_hi = np.maximum(u - r, 0), np.minimum(u + r, nx - 1)
        j_lo, j_hi = np.maximum(v - r + 1, 0), np.minimum(v + r - 1, ny - 1)
        sides = r > 0
        owners, cells = [], []
        for j, on in ((v - r, True), (v + r, sides)):
            k, i = _ranges(i_lo, np.where(on & (j >= 0) & (j < ny), i_hi, -1))
            owners.append(k)
            cells.append(i * ny + j[k])
        for i, on in ((u - r, sides), (u + r, sides)):
            k, j = _ranges(j_lo, np.where(on & (i >= 0) & (i < nx), j_hi, -1))
            owners.append(k)
            cells.append(i[k] * ny + j)
        return np.concatenate(owners), np.concatenate(cells)

    def _search(self, zs: np.ndarray, upto: float, running_max: bool = False) -> np.ndarray:
        """Distance from each query, exact where at most upto.

        With ``running_max`` only the largest distance is kept exact: a query
        stops with its best so far once that is at most the largest exact
        distance already finished, and the search returns as soon as one
        query is proven beyond upto, leaving that query's entry above upto.
        """
        nx, ny, cell = self._nx, self._ny, self._cell
        best = np.full(zs.shape, np.inf)
        ok = np.isfinite(zs)
        best[~ok] = self._brute(zs[~ok])
        # cell coordinates; clipping a far query toward the grid only
        # shortens its distance to every cell, so the ring bound stays valid
        far = 2.0 * (nx + ny)
        u = np.floor(np.clip(np.nan_to_num((zs.real - self._x0) / cell), -far, nx + far)).astype(np.int64)
        v = np.floor(np.clip(np.nan_to_num((zs.imag - self._y0) / cell), -far, ny + far)).astype(np.int64)
        # first ring that meets the grid, and the ring that finishes it
        r = np.maximum(np.maximum(-u, u - nx + 1), np.maximum(-v, v - ny + 1)).clip(0)
        r_end = np.maximum(np.maximum(u, nx - 1 - u), np.maximum(v, ny - 1 - v))
        spent = np.zeros(zs.size, dtype=np.int64)
        # a query whose first ring already lies beyond upto scans nothing
        active = np.nonzero(ok & ((r - 1) * cell * (1.0 - 1e-12) - self._slack <= upto))[0]
        if running_max and active.size < np.count_nonzero(ok):
            return best
        top = -math.inf  # the largest exact distance finished so far
        while active.size:
            # once the rings have cost as much as scanning every segment
            costly = spent[active] >= self._a.size
            done = active[costly]
            best[done] = self._brute(zs[done])
            active = active[~costly]
            for s in range(0, active.size, _BLOCK_QUERIES):
                self._scan_ring(zs, active[s : s + _BLOCK_QUERIES], u, v, r, best, spent)
            ra = r[active]
            lower = ra * cell * (1.0 - 1e-12) - self._slack
            exact = (best[active] <= lower) | (ra >= r_end[active])
            finished = exact | (lower > upto)
            r[active] += 1
            if running_max:
                found = best[np.concatenate([done, active[exact]])]
                if np.any(finished & ~exact) or np.any(found > upto):
                    return best
                top = max(top, float(np.max(found, initial=-math.inf)))
                finished |= best[active] <= top
            active = active[~finished]
        return best

    def _scan_ring(self, zs, q, u, v, r, best, spent) -> None:
        """Fold the segments on the current ring of each query q into best."""
        owner, cells = self._ring(u[q], v[q], r[q])
        np.add.at(spent, q[owner], 1)
        lo, hi = self._start[cells], self._start[cells + 1]
        # split the cells so that one block holds about _BLOCK_PAIRS pairs
        ends = np.cumsum(hi - lo)
        cuts = np.searchsorted(ends, np.arange(_BLOCK_PAIRS, ends[-1] if ends.size else 0, _BLOCK_PAIRS))
        for c0, c1 in zip(np.r_[0, cuts], np.r_[cuts, cells.size]):
            k, pos = _ranges(lo[c0:c1], hi[c0:c1] - 1)
            who = q[owner[c0:c1][k]]
            np.minimum.at(best, who, self._kernel(zs[who], self._members[pos]))
            np.add.at(spent, who, 1)


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
