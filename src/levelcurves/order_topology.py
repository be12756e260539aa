"""Nesting order on level curves and the critical set.

A curve precedes another when it sits inside one of the other's bounded
faces.  The critical set collects every level curve through a critical point
(at a finite nonzero level) and the zeros and poles as degenerate point
members.  It is finite, carries a strict partial order, and has a unique
maximal element.

The order is computed once, when the critical set is built, as a forest:
each member's parent is the innermost (member, bounded face) holding it.
One rule decides who holds whom: eight points of the inner member, farther
from the outer curve's polyline than its chord sag, vote on the face by
winding number (:func:`_holding_faces`); the query that finds them shows
them off the curve, so they skip the face lookup's own.  The curves are
traced at a sag that serves most pairs; where two critical curves pass too
close for eight clear voters, the vote is taken again against a refined
copy of the outer one (``tracer._refined``), so only those pairs pay for
the finer sag.  The maximal element, the Hasse diagram and the annular
decomposition all read the forest; :func:`separating_curve` places its
point set by the same rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .config import DEFAULT_TOLS
from .errors import TopologyError, TraceError
from .funcspace import RationalFn
from .levelgraph import LevelGraph, _winding_faces, build_graph
from .tracer import _REFINE_ROUNDS, LevelCurveComponent, _critical_curve, _refined, trace_component
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
    label: str = ""

    def graph(self) -> LevelGraph:
        if self.kind is not CurveKind.LEVEL_CURVE:
            raise TopologyError(f"{self.kind.value} has no face structure")
        return build_graph(self.component)

    def all_points(self) -> np.ndarray:
        if self.kind is CurveKind.POINT:
            return np.array([self.point], dtype=complex)
        if self.kind is CurveKind.LEVEL_CURVE:
            return self.component.points
        raise TopologyError("the unit circle is not sampled")

    @cached_property
    def index(self) -> geometry.SegmentIndex:
        """Nearest-distance index over the arcs (or the point)."""
        if self.kind is CurveKind.LEVEL_CURVE:
            return self.component.index
        return geometry.SegmentIndex([self.all_points()])


@dataclass
class CriticalSetC:
    """All components of the critical set and their nesting forest.

    ``parent[i]`` is ``(j, face id)``: member j is the innermost level curve
    holding member i, in that bounded face of j.  It is None for the maximal
    member, the one root of the forest.
    """

    components: list[CurveRef]
    parent: list[tuple[int, int] | None]

    def curves(self) -> list[CurveRef]:
        return [c for c in self.components if c.kind is CurveKind.LEVEL_CURVE]

    def __len__(self) -> int:
        return len(self.components)


# ---------------------------------------------------------------------------


def _votes(g: LevelGraph, faces: np.ndarray, sizes) -> list[int | None]:
    """The face of g each member's voters all lie in, or None for the
    unbounded face; faces holds sizes[k] votes of member k after those of
    member k - 1.  Disagreement is an error, never a silent guess.
    """
    starts = np.cumsum(sizes) - sizes
    lo, hi = np.minimum.reduceat(faces, starts), np.maximum.reduceat(faces, starts)
    split = np.flatnonzero(lo != hi)
    if split.size:
        k = split[0]
        ids = sorted(set(faces[starts[k] : starts[k] + sizes[k]].tolist()))
        raise TopologyError(f"membership vote split across faces {ids}")
    return [None if fid == g.unbounded_face.id else fid for fid in lo.tolist()]


def _holding_faces(b: CurveRef, members: list[CurveRef]) -> list[int | None]:
    """The bounded face of b holding each member, or None where it is outside.

    This is the package's one membership rule for members: the nesting
    forest, :func:`precedes`, the two-curve witness and
    :func:`separating_curve` all decide by it.

    One distance query over all the members' points refuses any member within
    ``trace_tol`` of b (of the unit circle: by 1 - |z|).  Each member votes
    with eight of its points, spread along it, that lie farther from b's
    polyline than b's chord sag: the true curve stays within the sag of its
    chords, so such a point is in the same face of the curve as of the
    polyline.  Where a curve member has fewer than eight such points, all
    the members vote again against a refined copy of b (``tracer._refined``,
    up to ``_REFINE_ROUNDS`` times), whose sag is about 4 times smaller each
    round and whose faces are b's, ids included; b itself is not changed.
    Only a stored critical curve can be refined.  A member still short, or
    one that no copy can serve, raises
    :class:`TopologyError`; a point member votes with itself, so it too must
    lie clear of the sag.  That query has shown every voter off b, so the
    voters skip the on-curve query of
    :func:`~levelcurves.levelgraph.faces_of_points` and go through one
    winding pass; outside b's box they vote for the unbounded face unwound.
    """
    pts = [m.all_points() for m in members]
    zs = np.concatenate(pts)
    sizes = np.array([p.size for p in pts])
    need = np.minimum(8, sizes)
    for rounds in range(_REFINE_ROUNDS, -1, -1):
        clearance = b.component.sag if b.kind is CurveKind.LEVEL_CURVE else 0.0
        if b.kind is CurveKind.BOUNDARY:
            # boundary refs only occur as the outer circle of the unit disk
            dists = np.abs(1.0 - np.abs(zs))
        else:
            # a point farther than the clearance is reported as inf, and the
            # index stops searching there
            dists = b.index.distances(zs, upto=max(clearance, DEFAULT_TOLS.trace_tol))
        d = float(np.min(dists))
        if d <= DEFAULT_TOLS.trace_tol:
            raise TopologyError(f"curves too close to order (min distance {d:.3e})")
        if b.kind is CurveKind.BOUNDARY:
            return [0 if np.all(np.abs(p) < 1.0) else None for p in pts]
        clear = np.isinf(dists)
        counts = np.add.reduceat(clear, np.cumsum(sizes) - sizes)
        short = np.flatnonzero(counts < need)
        if not short.size:
            break
        finer = _refined(b.component) if rounds and b.kind is CurveKind.LEVEL_CURVE else None
        if finer is None:
            k = short[0]
            raise TopologyError(
                f"{members[k].label or members[k].kind.value} has {counts[k]} points clear of the chord sag "
                f"{clearance:.3e} of {b.label or 'the curve'}; {need[k]} are needed to vote"
            )
        b = _same_faces(b, finer)
    # clear points linspace(0, count - 1, 8) vote; a member of fewer points
    # has all clear and all vote
    pick = np.tile(np.arange(8), (sizes.size, 1))
    full = need == 8
    pick[full] = np.linspace(0, counts[full] - 1, 8, axis=1).astype(int)
    pick += (np.cumsum(counts) - counts)[:, None]
    voters = zs[np.flatnonzero(clear)[pick[np.arange(8) < need[:, None]]]]
    g = b.graph()
    return _votes(g, _winding_faces(g, voters), need)


def _same_faces(b: CurveRef, finer: LevelCurveComponent) -> CurveRef:
    """b with its component replaced by a refined copy, which must have b's
    faces: the same ids, boundary walks and bounded face."""
    ref = CurveRef(b.kind, b.level, component=finer, label=b.label)
    if [(fc.bounded, fc.edge_cycle) for fc in ref.graph().faces] != [
        (fc.bounded, fc.edge_cycle) for fc in b.graph().faces
    ]:
        raise TopologyError(f"the refined copy of {b.label or 'the curve'} has other faces")
    return ref


def precedes(a: CurveRef, b: CurveRef) -> bool:
    """True iff a lies inside one of the bounded faces of b."""
    if b.kind is CurveKind.POINT:
        return False
    if a is b:
        raise TopologyError("precedes() requires distinct, disjoint curves")
    return _holding_faces(b, [a])[0] is not None


def _nesting_forest(refs: list[CurveRef]) -> list[tuple[int, int] | None]:
    """The parent of each member: its innermost holder and the face holding it.

    Each level-curve member classifies all the others in one batch.  The
    parent is the holder that itself has the most holders.  Certificate: the
    parent's holders are exactly the member's other holders, so by induction
    every member's holders form one chain.
    """
    holders: list[dict[int, int]] = [{} for _ in refs]
    for j, b in enumerate(refs):
        if b.kind is not CurveKind.LEVEL_CURVE:
            continue
        others = [i for i in range(len(refs)) if i != j]
        for i, fid in zip(others, _holding_faces(b, [refs[i] for i in others])):
            if fid is not None:
                holders[i][j] = fid
    parent: list[tuple[int, int] | None] = []
    for i, held in enumerate(holders):
        if not held:
            parent.append(None)
            continue
        p = max(held, key=lambda j: len(holders[j]))
        if set(holders[p]) != set(held) - {p}:
            raise TopologyError(f"holders of {refs[i].label} are not nested around {refs[p].label}")
        parent.append((p, held[p]))
    return parent


# ---------------------------------------------------------------------------


def critical_level_curves(f: RationalFn) -> CriticalSetC:
    """Enumerate the critical set and its nesting forest.

    The members are the critical level curves, zeros and poles.  Critical
    points whose value is 0 or infinity sit on zero/pole members rather than
    on curves.  The curves are the ones stored on f (``tracer._critical_curve``):
    each traced once per function from the vertex of its first
    critical point, in the order of ``f.critical_points``, and shared with
    :func:`~levelcurves.tracer.trace_level_set` at the same level.  A
    component through several critical points is one member.  The domain's
    boundary is no member: on the unit disk the circle is the outer boundary
    of the decomposition, and the plane has none.
    """
    f.check_boundary_restriction()
    refs: list[CurveRef] = []
    for z, m in f.zeros:
        refs.append(CurveRef(CurveKind.POINT, 0.0, point=z, label=f"zero@{_fmt(z)}"))
    for p, m in f.poles:
        refs.append(CurveRef(CurveKind.POINT, math.inf, point=p, label=f"pole@{_fmt(p)}"))

    traced: list[LevelCurveComponent] = []
    for i in range(len(f.critical_points)):
        comp = _critical_curve(f, i)
        # None: a zero/pole, covered by point members; a component already
        # listed: another critical point pulled it in
        if comp is not None and all(comp is not t for t in traced):
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
    return CriticalSetC(refs, _nesting_forest(refs))


def _fmt(z: complex) -> str:
    return f"{z.real:.4g}{z.imag:+.4g}i"


# ---------------------------------------------------------------------------


def separating_curve(f: RationalFn, L: CurveRef, K) -> tuple[CurveRef, str]:
    """A non-critical level curve with L in one face and all of K in the other.

    Non-critical means that the traced component has no vertex: the tracer's
    on-level test (``RationalFn.critical_on_level``) puts no critical point
    on the curve.  K is a closed point set (array of complex).  The search
    walks a short transversal from L toward K, tracing the level curve
    through each probe point and certifying the separation by one call of
    :func:`_holding_faces`, the rule of :func:`precedes`: L votes, and each
    point of K votes as a point member, as K need not be connected.  A probe
    is skipped where the rule refuses L or a point of K (within the chord
    sag, say) or where K's points land in different faces.  Returns the
    curve and the placement of K ("bounded" or "unbounded" face).
    """
    K = np.atleast_1d(np.asarray(K, dtype=complex))
    k_refs = [CurveRef(CurveKind.POINT, 0.0, point=k) for k in K]
    L_pts = L.all_points()
    # nearest approach between L and K
    dists = L.index.distances(K)
    k_star = complex(K[int(np.argmax(-dists))])
    p_star = complex(L_pts[int(np.argmin(np.abs(L_pts - k_star)))])

    for t in np.linspace(0.04, 0.9, 24):
        z_probe = p_star + t * (k_star - p_star)
        level = f.abs_eval(z_probe)
        if not math.isfinite(level) or level <= 0:
            continue
        try:
            comp = trace_component(f, level, z_probe)
        except TraceError:
            continue
        if comp.vertices:
            continue
        cand = CurveRef(CurveKind.LEVEL_CURVE, level, component=comp, label="separator")
        try:
            l_face, *k_faces = _holding_faces(cand, [L] + k_refs)
        except TopologyError:
            continue
        if len(set(k_faces)) == 1 and k_faces[0] != l_face:
            return cand, "unbounded" if k_faces[0] is None else "bounded"
    raise TraceError(
        "no separating level curve found along the transversal; "
        "K may touch the critical set between the curves"
    )


def two_curve_critical_witness(
    f: RationalFn,
    L1: CurveRef,
    L2: CurveRef,
    C: CriticalSetC | None = None,
) -> tuple[CurveRef, int, int]:
    """The critical level curve holding L1 and L2 in distinct bounded faces.

    Preconditions: L1 and L2 mutually exterior.  The theorem guarantees a
    witness inside the finite critical set, so exhaustion is a hard error.
    """
    if precedes(L1, L2) or precedes(L2, L1):
        raise TopologyError("curves are nested; the witness theorem needs mutual exteriority")
    if C is None:
        C = critical_level_curves(f)
    for ref in C.curves():
        try:
            f1, f2 = _holding_faces(ref, [L1, L2])
        except TopologyError:
            continue
        if f1 is not None and f2 is not None and f1 != f2:
            return ref, f1, f2
    raise TopologyError(
        "no critical curve separates the two level curves; "
        "this contradicts the two-curve theorem and indicates a tracing defect"
    )


def maximal_component(f: RationalFn, C: CriticalSetC | None = None) -> CurveRef:
    """The unique member of the critical set preceded by no other."""
    if C is None:
        C = critical_level_curves(f)
    maxima = [a for a, p in zip(C.components, C.parent) if p is None]
    if len(maxima) != 1:
        raise TopologyError(
            f"expected a unique maximal element of the critical set, found {len(maxima)}: "
            f"{[m.label for m in maxima]}"
        )
    return maxima[0]


def hasse_diagram(C: CriticalSetC) -> list[tuple[int, int]]:
    """Covering pairs (i, j) meaning component i is directly below j."""
    return [(i, p[0]) for i, p in enumerate(C.parent) if p is not None]
