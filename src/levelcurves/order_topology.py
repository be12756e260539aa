"""Nesting order on level curves and the critical set.

A curve precedes another when it sits inside one of the other's bounded
faces.  The critical set collects every level curve through a critical point
(at a finite nonzero level), the zeros and poles as degenerate point members,
and any bounded boundary components of the domain.  It is finite, carries a
strict partial order, and has a unique maximal element.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .config import DEFAULT_TOLS, Tolerances
from .errors import TopologyError, TraceError
from .funcspace import DomainSpec, RationalFn
from .levelgraph import LevelGraph, build_graph, face_of_point
from .tracer import LevelCurveComponent, _LevelTracer, _domain_scale, trace_component
from . import geometry


class CurveKind(Enum):
    LEVEL_CURVE = "level_curve"
    BOUNDARY = "boundary"
    POINT = "point"


@dataclass
class CurveRef:
    """A level curve, boundary component, or degenerate single point."""

    kind: CurveKind
    level: float  # |f| on the set; 0.0 for zeros, inf for poles
    component: LevelCurveComponent | None = None
    point: complex | None = None
    boundary: np.ndarray | None = None
    label: str = ""
    _graph: LevelGraph | None = None

    def graph(self, tols: Tolerances = DEFAULT_TOLS) -> LevelGraph:
        if self.kind is not CurveKind.LEVEL_CURVE:
            raise TopologyError(f"{self.kind.value} has no face structure")
        if self._graph is None:
            self._graph = build_graph(self.component, tols)
        return self._graph

    def sample_points(self, n: int = 8) -> list[complex]:
        if self.kind is CurveKind.POINT:
            return [self.point]
        pts = self.component.points if self.kind is CurveKind.LEVEL_CURVE else self.boundary
        idx = np.linspace(0, len(pts) - 1, n).astype(int)
        return [complex(pts[i]) for i in idx]

    def all_points(self) -> np.ndarray:
        if self.kind is CurveKind.POINT:
            return np.array([self.point], dtype=complex)
        if self.kind is CurveKind.LEVEL_CURVE:
            return self.component.points
        return self.boundary

    @cached_property
    def index(self) -> geometry.SegmentIndex:
        """Nearest-distance index over the arcs (or the boundary, or the point)."""
        if self.kind is CurveKind.LEVEL_CURVE:
            return self.component.index
        return geometry.SegmentIndex([self.all_points()])

    def is_critical_curve(self) -> bool:
        return self.kind is CurveKind.LEVEL_CURVE and bool(self.component.vertices)


@dataclass
class CriticalSetC:
    """All components of the critical set, plus the order scaffolding."""

    components: list[CurveRef]

    def curves(self) -> list[CurveRef]:
        return [c for c in self.components if c.kind is CurveKind.LEVEL_CURVE]

    def __len__(self) -> int:
        return len(self.components)


# ---------------------------------------------------------------------------


def _membership_face(b: CurveRef, samples: list[complex], tols: Tolerances) -> int | None:
    """Face of b holding every sample, or None for the unbounded face.

    The samples vote (precedes passes eight, spread along a and clear of b's
    chords); disagreement is an error, never a silent guess.
    """
    g = b.graph(tols)
    faces = {face_of_point(g, z, tols) for z in samples}
    if len(faces) != 1:
        raise TopologyError(f"membership vote split across faces {sorted(faces)}")
    fid = faces.pop()
    return None if fid == g.unbounded_face.id else fid


def precedes(a: CurveRef, b: CurveRef, tols: Tolerances = DEFAULT_TOLS) -> bool:
    """True iff a lies inside one of the bounded faces of b."""
    if b.kind is CurveKind.POINT:
        return False
    if a is b:
        raise TopologyError("precedes() requires distinct, disjoint curves")
    pts = a.all_points()
    # a point of a farther from b than b's longest chord lies beyond every
    # chord's sagitta; the index reports it as inf and stops searching
    reach = b.component.max_segment() if b.kind is CurveKind.LEVEL_CURVE else 0.0
    dists = b.index.distances(pts, upto=max(reach, tols.trace_tol))
    d = float(np.min(dists))
    if d <= tols.trace_tol:
        raise TopologyError(f"curves too close to order (min distance {d:.3e})")
    if b.kind is CurveKind.BOUNDARY:
        # boundary refs only occur as the outer circle of the unit disk
        return bool(np.all(np.abs(pts) < 1.0))
    # vote with eight points of a that clear b's chords, spread along a; when
    # the two levels are close, fall back to the points farthest from b
    clear = np.flatnonzero(np.isinf(dists))
    if len(clear) >= 8:
        voters = clear[np.linspace(0, len(clear) - 1, 8).astype(int)]
    else:
        voters = np.argsort(-dists, kind="stable")[:8]
    return _membership_face(b, [complex(z) for z in pts[voters]], tols) is not None


# ---------------------------------------------------------------------------


def critical_level_curves(
    f: RationalFn,
    domain: DomainSpec | None = None,
    tols: Tolerances = DEFAULT_TOLS,
) -> CriticalSetC:
    """Enumerate the critical set: critical level curves, zeros, and poles.

    Critical points whose value is 0 or infinity sit on zero/pole members
    rather than on curves.  Components through several critical points are
    traced once.  For the supported domains no bounded boundary components
    exist; the unit circle is the outer boundary, not a member.
    """
    domain = domain or f.domain
    f.check_boundary_restriction()
    refs: list[CurveRef] = []
    for z, m in f.zeros:
        refs.append(CurveRef(CurveKind.POINT, 0.0, point=z, label=f"zero@{_fmt(z)}"))
    for p, m in f.poles:
        refs.append(CurveRef(CurveKind.POINT, math.inf, point=p, label=f"pole@{_fmt(p)}"))

    pending = [
        (c, m)
        for c, m in f.critical_points
        if domain.contains(c)
    ]
    traced: list[LevelCurveComponent] = []
    for c, m in pending:
        level = f.abs_eval(c)
        if not math.isfinite(level) or level <= tols.vertex_tol:
            continue  # the critical point is a zero/pole; covered by point members
        if any(any(abs(c - v) < 1e-10 for v, _ in comp.vertices) for comp in traced):
            continue  # another critical point already pulled in this component
        comp = trace_component(f, level, _launch_near(f, c, m, level, tols), tols)
        if not any(abs(c - v) < 1e-10 for v, _ in comp.vertices):
            raise TraceError(f"critical curve through {c} did not capture it as a vertex")
        traced.append(comp)

    for i, comp in enumerate(traced):
        refs.append(
            CurveRef(
                CurveKind.LEVEL_CURVE,
                comp.level,
                component=comp,
                label=f"critcurve@{comp.level:.6g}#{i}",
            )
        )
    if not refs:
        raise TopologyError("critical set is empty; the function must have zeros or poles")
    return CriticalSetC(refs)


def _launch_near(f: RationalFn, c: complex, m: int, level: float, tols: Tolerances) -> complex:
    """A seed point on the critical level just off the critical point c."""
    from .tracer import _vertex_rays

    scale = _domain_scale(f)
    rays, r_cap = _vertex_rays(f, c, m, level, scale)
    tracer = _LevelTracer(f, level, tols, scale)
    for theta in rays:
        z = c + 2.5 * r_cap * complex(math.cos(theta), math.sin(theta))
        out, _, _ = tracer.correct(z, max_iter=60)
        if out is not None and f.domain.contains(out):
            return out
    raise TraceError(f"no launch point found near critical point {c}")


def _fmt(z: complex) -> str:
    return f"{z.real:.4g}{z.imag:+.4g}i"


# ---------------------------------------------------------------------------


def separating_curve(
    f: RationalFn,
    L: CurveRef,
    K,
    tols: Tolerances = DEFAULT_TOLS,
    steps: int = 24,
) -> tuple[CurveRef, str]:
    """A non-critical level curve with L in one face and all of K in the other.

    K is a closed point set (array of complex).  The search walks a short
    transversal from L toward K, tracing the level curve through each probe
    point and certifying the separation by face tests.  Returns the curve and
    the placement of K ("bounded" or "unbounded" face).
    """
    K = np.atleast_1d(np.asarray(K, dtype=complex))
    L_pts = L.all_points()
    # nearest approach between L and K
    dists = L.index.distances(K)
    k_star = complex(K[int(np.argmax(-dists))])
    p_star = complex(L_pts[int(np.argmin(np.abs(L_pts - k_star)))])

    crit_levels = {round(f.abs_eval(c), 12) for c, _ in f.critical_points}
    crit_pts = [c for c, _ in f.critical_points]
    scale = _domain_scale(f)

    for t in np.linspace(0.04, 0.9, steps):
        z_probe = p_star + t * (k_star - p_star)
        level = f.abs_eval(z_probe)
        if not math.isfinite(level) or level <= 0:
            continue
        if abs(level - L.level) < 1e-9:
            continue
        if any(abs(level - cl) <= 10 * tols.vertex_tol for cl in crit_levels):
            continue
        try:
            comp = trace_component(f, level, z_probe, tols)
        except TraceError:
            continue
        if comp.vertices:
            continue
        cand = CurveRef(CurveKind.LEVEL_CURVE, level, component=comp, label="separator")
        # non-critical certificate: well clear of every critical point
        if crit_pts and np.min(comp.index.distances(crit_pts, upto=1e-5 * scale)) < 1e-5 * scale:
            continue
        try:
            k_face = _membership_face(cand, [complex(k) for k in K], tols)
            l_face = _membership_face(cand, L.sample_points(), tols)
        except TopologyError:
            continue
        if (k_face is None) != (l_face is None) or (
            k_face is not None and l_face is not None and k_face != l_face
        ):
            placement = "unbounded" if k_face is None else "bounded"
            return cand, placement
    raise TraceError(
        "no separating level curve found along the transversal; "
        "K may touch the critical set between the curves"
    )


def two_curve_critical_witness(
    f: RationalFn,
    L1: CurveRef,
    L2: CurveRef,
    C: CriticalSetC | None = None,
    tols: Tolerances = DEFAULT_TOLS,
) -> tuple[CurveRef, int, int]:
    """The critical level curve holding L1 and L2 in distinct bounded faces.

    Preconditions: L1 and L2 mutually exterior.  The theorem guarantees a
    witness inside the finite critical set, so exhaustion is a hard error.
    """
    if precedes(L1, L2, tols) or precedes(L2, L1, tols):
        raise TopologyError("curves are nested; the witness theorem needs mutual exteriority")
    if C is None:
        C = critical_level_curves(f, f.domain, tols)
    for ref in C.curves():
        if not ref.is_critical_curve():
            continue
        try:
            f1 = _membership_face(ref, L1.sample_points(), tols)
            f2 = _membership_face(ref, L2.sample_points(), tols)
        except TopologyError:
            continue
        if f1 is not None and f2 is not None and f1 != f2:
            return ref, f1, f2
    raise TopologyError(
        "no critical curve separates the two level curves; "
        "this contradicts the two-curve theorem and indicates a tracing defect"
    )


def maximal_component(
    f: RationalFn,
    domain: DomainSpec | None = None,
    C: CriticalSetC | None = None,
    tols: Tolerances = DEFAULT_TOLS,
) -> CurveRef:
    """The unique member of the critical set preceded by no other."""
    if C is None:
        C = critical_level_curves(f, domain, tols)
    maxima = []
    for a in C.components:
        dominated = False
        for b in C.components:
            if a is b or b.kind is not CurveKind.LEVEL_CURVE:
                continue
            if precedes(a, b, tols):
                dominated = True
                break
        if not dominated:
            maxima.append(a)
    if len(maxima) != 1:
        raise TopologyError(
            f"expected a unique maximal element of the critical set, found {len(maxima)}: "
            f"{[m.label for m in maxima]}"
        )
    return maxima[0]


def hasse_diagram(C: CriticalSetC, tols: Tolerances = DEFAULT_TOLS) -> list[tuple[int, int]]:
    """Covering pairs (i, j) meaning component i is directly below j."""
    n = len(C.components)
    below = [[False] * n for _ in range(n)]
    for i, a in enumerate(C.components):
        for j, b in enumerate(C.components):
            if i != j and b.kind is CurveKind.LEVEL_CURVE:
                below[i][j] = precedes(a, b, tols)
    edges = []
    for i in range(n):
        for j in range(n):
            if not below[i][j]:
                continue
            direct = not any(below[i][k] and below[k][j] for k in range(n))
            if direct:
                edges.append((i, j))
    return edges
