"""The two-sided distance d-check and the level-set continuity probe.

d-check(X, Y) = max(sup_x d(x, Y), sup_y d(X, y)), with the convention that
an empty side makes the distance infinite.  It is the package's one
two-sided distance: between traced curves, between point sets (a 2-D
array) and, in ``gridcheck``, between traced curves and the crossing cells
of the grid oracle.  It runs from the point samples of each side to the
polylines of the other.  A traced curve lies within its chord sag of its
polyline (see ``tracer.TracedArc``), so each distance is within the other
side's sag of the distance to the curve itself: the discretization error is
the larger sag, which the report carries.  Each side asks its index for the
largest distance only (``SegmentIndex.max_distance``), so a query stops as
soon as it cannot raise the side's maximum.  A bound ``upto`` keeps each
side exact up to it and reports ``inf`` beyond, so a threshold test stops
scanning early.

The continuity probe counts that margin: a height passes only if its
d-check plus the discretization is below delta, so the curves themselves,
not only their polylines, lie within delta.  It steers its eta search by
each trial's farthest pair of levels, where a failing trial fails first,
and audits the inner levels only of the etas whose farthest pair passed,
from the largest down, until one passes in full; if none does, the search
resumes below them.  Its d-checks
are exact up to delta only.  Its component is one side of every d-check, so
the component's cached index is built once per probe.  The curves near the
component at each audited level are traced from corrected seeds through the
seed loop of ``trace_level_set``.  Before any trace, a height is refuted by
certified bounds on |f| over the closed delta-disk about each component point
(``RationalFn.abs_bounds``): if |f| stays on one side of the height on one
such disk, no curve at that height comes within delta of that point, so the
height fails its d-check and is failed untraced.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import TraceError
from .funcspace import RationalFn
from .geometry import SegmentIndex, as_points
from .tracer import LevelCurveComponent, TracedArc, _LevelTracer, _domain_scale, _require_curve, _trace_seeds, trace_level_set

K_SAMPLES = 8  # audit heights per side of eps in one probe trial
ETA_FLOOR_REL = 1e-9  # the probe gives up once eta falls below this times eps
REFINE_ROUNDS = 6  # upward bisection steps after the first passing farthest pair


@dataclass
class HausdorffReport:
    d1: float
    d2: float
    d_check: float
    discretization: float = 0.0


def hausdorff(X, Y, upto: float = math.inf) -> HausdorffReport:
    """Two-sided distance between finite point sets, bounded by ``upto`` as
    in :func:`hausdorff_between_curves`."""
    return hausdorff_between_curves(as_points(X)[:, None], as_points(Y)[:, None], upto)


def hausdorff_between_curves(curves_a, curves_b, upto: float = math.inf) -> HausdorffReport:
    """d-check between two traced curves, each point to the other's polylines.

    Each side is a list of traced arcs, with one ``SegmentIndex`` over its
    polylines, or a ``LevelCurveComponent``, whose cached ``index`` serves
    every d-check against it; ``discretization`` is the larger sag of the
    two sides.  A 2-D array is a point set, ``pts[:, None]`` as
    ``SegmentIndex`` takes it, with no sag.  Each side is the largest
    distance from its points to the other side's polylines
    (``SegmentIndex.max_distance``): exact where it is at most ``upto`` and
    ``inf`` above it.
    """
    (xs, index_a, sag_a), (ys, index_b, sag_b) = _side(curves_a), _side(curves_b)
    if xs.size == 0 or ys.size == 0:
        return HausdorffReport(math.inf, math.inf, math.inf)
    # one side's index at a time: side a's is built once side b's is measured
    d1 = index_b().max_distance(xs, upto)
    d2 = index_a().max_distance(ys, upto)
    return HausdorffReport(d1, d2, max(d1, d2), discretization=max(sag_a, sag_b))


def _side(curve) -> tuple[np.ndarray, Callable[[], SegmentIndex], float]:
    """The points of one side of a d-check, a maker of its polylines' index and their sag bound."""
    if isinstance(curve, LevelCurveComponent):
        return curve.points, lambda: curve.index, curve.sag
    if isinstance(curve, np.ndarray):
        pts = as_points(curve)
        return pts, partial(SegmentIndex, pts[:, None]), 0.0
    lines = [a.points for a in curve]
    return np.concatenate(lines), partial(SegmentIndex, lines), max((a.sag for a in curve), default=0.0)


# ---------------------------------------------------------------------------
# continuity probe


@dataclass
class ContinuityCertificate:
    eps: float
    delta: float
    eta: float
    samples: list[tuple[float, float]] = field(default_factory=list)  # (zeta, achieved d-check)
    passed: bool = False

    def to_dict(self) -> dict:
        return {
            "eps": self.eps,
            "delta": self.delta,
            "eta": self.eta,
            "pass": self.passed,
            "samples": [{"zeta": z, "d_check": d} for z, d in self.samples],
        }


def _nearby_curves_union(
    f: RationalFn,
    zeta: float,
    component: LevelCurveComponent,
    delta: float,
) -> list[TracedArc]:
    """The arcs of the level curves at level zeta seeded near each edge midpoint.

    Each seed is corrected onto the level and kept within 4 delta + 1 of its
    midpoint; the seeds are then traced in order, skipping those on a curve
    already traced (``tracer._trace_seeds``).
    """
    tracer = _LevelTracer(f, zeta, _domain_scale(f, [component.arcs[0].points[0]]))
    seeds = []
    for arc in component.arcs:
        pts = arc.points
        mid = pts[len(pts) // 2]
        tangent = pts[min(len(pts) // 2 + 1, len(pts) - 1)] - pts[len(pts) // 2 - 1]
        if tangent == 0:
            continue
        normal = 1j * tangent / abs(tangent)
        for off in (0.0, 0.25 * delta, -0.25 * delta, 0.75 * delta, -0.75 * delta):
            z, _, _ = tracer.correct(mid + off * normal)
            if z is not None and abs(z - mid) <= 4.0 * delta + 1.0:
                seeds.append(z)
    comps = _trace_seeds(tracer, seeds)
    if not comps:
        raise TraceError(f"no level curves found near the component at level {zeta}")
    return [a for c in comps for a in c.arcs]


def continuity_probe(f: RationalFn, eps: float, delta: float) -> ContinuityCertificate:
    """Search for eta such that every zeta within eta of eps has level curves
    within delta of the longest component of the level set at eps.

    A trial of eta audits K_SAMPLES heights on each side of eps, zeta =
    eps +- eta k / K_SAMPLES, and a height passes iff its d-check plus its
    discretization is below delta: the d-check measures polylines, and each
    curve lies within its sag of its own.  The search decides on each trial's farthest pair (k = K_SAMPLES,
    + before -), where a failing trial fails first: it starts at eta0 = eps/2
    and halves until a farthest pair passes, then bisects upward for
    REFINE_ROUNDS steps.  Every eta whose farthest pair passed is a
    candidate.  The candidates' inner heights (k = K_SAMPLES - 1 down to 1)
    are then audited from the largest candidate down, and the first one
    whose 2 K_SAMPLES heights all pass is returned, so the returned eta
    always passed a full audit.  If no candidate passes, the descent resumes
    at half the smallest candidate under the same rule, down to
    ETA_FLOOR_REL * eps.

    An audit stops at its first failing height, and the d-checks are exact
    up to delta only, so a height at or beyond it fails without its distance
    being finished.  A height above min hi or below max lo, for the bounds
    lo <= |f| <= hi on the closed delta-disks about the component's polyline
    points, fails before any trace: the disk on which |f| stays on one side
    of it holds no point of its level set.  Such a height would fail its
    d-check too, so the search decides every trial as it would with no
    bound, and traces fewer levels.  The samples are reported nearest
    first: k ascending, + before -.  delta must lie in (0, inf).
    """
    if not 0.0 < delta < math.inf:
        raise ValueError(f"delta must be positive and finite, not {delta}")
    component = max(_require_curve(trace_level_set(f, eps)), key=lambda c: c.total_length())
    # L <= |f| on one delta-disk about a component point and |f| <= H on another
    lo, hi = f.abs_bounds(component.points, delta)
    L, H = float(lo.max()), float(hi.min())

    def audit(eta: float, ks) -> list[list[tuple[float, float]]] | None:
        """The (+, -) sample pairs at the heights k in ``ks``, or None at the
        first failing height.  eta <= eps/2 keeps every zeta positive."""
        pairs = []
        for k in ks:
            pair = []
            for sign in (+1.0, -1.0):
                zeta = eps + sign * eta * k / K_SAMPLES
                if zeta > H or zeta < L:
                    return None
                try:
                    union = _nearby_curves_union(f, zeta, component, delta)
                except TraceError:
                    return None
                rep = hausdorff_between_curves(union, component, upto=delta)
                if rep.d_check + rep.discretization >= delta:
                    return None
                pair.append((zeta, rep.d_check))
            pairs.append(pair)
        return pairs

    eta = eps / 2.0
    floor = ETA_FLOOR_REL * eps
    while True:
        while eta >= floor and (far := audit(eta, [K_SAMPLES])) is None:
            eta *= 0.5
        if eta < floor:
            return ContinuityCertificate(eps, delta, 0.0, [], False)
        candidates = [(eta, far)]  # ascending in eta
        lo, hi = eta, min(2.0 * eta, eps / 2.0)
        for _ in range(REFINE_ROUNDS):
            mid = 0.5 * (lo + hi)
            if mid <= lo or mid >= hi:
                break
            far = audit(mid, [K_SAMPLES])
            if far is not None:
                lo = mid
                candidates.append((mid, far))
            else:
                hi = mid
        for cand, far in reversed(candidates):
            inner = audit(cand, range(K_SAMPLES - 1, 0, -1))
            if inner is not None:
                samples = [s for pair in reversed(far + inner) for s in pair]
                return ContinuityCertificate(eps, delta, cand, samples, True)
        eta = candidates[0][0] * 0.5
