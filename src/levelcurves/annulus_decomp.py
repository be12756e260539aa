"""Annular decomposition of the domain and the conformal power map.

Removing the critical set (critical level curves, zeros, poles) from the
domain leaves finitely many components.  On each, f is conformally z^N: an
N-fold covering of an annulus of levels.  That is the covering argument,
which :func:`decompose` states and whose inputs it certifies completely: the
critical-point list is complete, the region holds no distinguished point,
its two boundary levels are known, and one loop's winding gives N.

phi = f^(1/M) carries every level loop of the region onto a circle, and is
built on K_LOOPS = 2 traced loops of the region: on each, phi = |f|^(1/M) *
e^(i*alpha/M), with alpha the running sum of the arg-f increments, which the
tracer orders to be positive.  One radial chain of short steps, phi's
preimage of a radial segment, runs from the region's outer boundary inward,
seeds both loops and carries alpha across; the loops and the chain form a
spanning tree whose every edge has its increment checked.  The basepoint,
where alpha is the principal arg of f, lies on the outer loop (K_LOOPS // 2
= 1).  On the two loops the theorem's consequences are re-checked, not
certified: N and the orientation agree across the levels (:func:`winding_N`),
and the power identity, the monotone turn of arg phi and the ordered |phi|
ranges hold (:func:`verify_phi`).  M = +N when arg f increases along
positively oriented level curves in the region (the inner boundary encloses
net zeros), M = -N for net poles; with this branch the power identity
f == phi^M holds exactly on both kinds.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from . import geometry
from .config import DEFAULT_TOLS
from .errors import CertificateError, TopologyError, TraceError
from .funcspace import RationalFn
from .levelgraph import build_graph, faces_of_points
from .order_topology import CriticalSetC, CurveKind, CurveRef, critical_level_curves, maximal_component
from .tracer import (
    _REFINE_ROUNDS,
    STEP_MAX_CORRECTION,
    STEP_MAX_ITER,
    WINDING_TOL,
    LevelCurveComponent,
    _LevelTracer,
    _refine,
    _trace_component_with,
    trace_level_set,
)

TWO_PI = 2.0 * math.pi
K_LOOPS = 2  # traced level loops per region
MAX_EDGE_TURN = 0.25 * math.pi  # largest arg-f increment on any edge of the tree


@dataclass
class PhiGrid:
    """phi sampled on the region's level loops, concatenated inner to outer."""

    points: np.ndarray  # each loop from its basepoint on, the closing point dropped
    f_vals: np.ndarray
    alpha: np.ndarray  # arg f continued along the loops and the radial chain
    basepoint_index: int  # alpha here is the principal arg of f
    levels: np.ndarray  # |f| on each loop, inner to outer
    offsets: np.ndarray  # loop k is points[offsets[k]:offsets[k + 1]]
    closure_discrepancy: float  # max over loops of |sum of arg-f increments - 2*pi*N|
    phi: np.ndarray | None = None  # set by build_phi for the region's M

    def loops(self) -> list[slice]:
        """The index range of each loop, inner to outer."""
        return [slice(a, b) for a, b in zip(self.offsets[:-1], self.offsets[1:])]


@dataclass
class AnnularRegion:
    """One component of the domain minus the critical set."""

    inner_boundary: CurveRef
    outer_boundary: CurveRef
    outer_face_id: int | None  # face of the outer graph holding the region
    eps1: float  # |f| on the inner boundary (0 for a zero, inf for a pole)
    eps2: float  # |f| on the outer boundary
    N: int = 0
    M: int = 0
    basepoint: complex = 0j
    phi_grid: PhiGrid | None = None
    label: str = ""

    def level_interval(self) -> tuple[float, float]:
        lo, hi = sorted((self.eps1, self.eps2))
        return lo, hi

    def image_radii(self) -> tuple[float, float]:
        """Open interval of |phi| on the region: between eps1^(1/M) and eps2^(1/M)."""
        return tuple(sorted((_power_radius(self.eps1, self.M), _power_radius(self.eps2, self.M))))

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "inner": self.inner_boundary.label,
            "outer": self.outer_boundary.label,
            "eps1": _json_float(self.eps1),
            "eps2": _json_float(self.eps2),
            "N": self.N,
            "M": self.M,
            "basepoint": [self.basepoint.real, self.basepoint.imag],
        }


def _json_float(x: float):
    return "inf" if math.isinf(x) else x


def _power_radius(eps: float, M: int) -> float:
    """eps^(1/M) with the 0/inf conventions of signed M."""
    if eps == 0.0:
        return 0.0 if M > 0 else math.inf
    if math.isinf(eps):
        return math.inf if M > 0 else 0.0
    return eps ** (1.0 / M)


# ---------------------------------------------------------------------------
# decomposition


def _outer_boundary(f: RationalFn, C: CriticalSetC):
    """The outer edge of the working domain as a CurveRef.

    On the unit disk this is the boundary circle with |f| == 1.  On the plane
    it is a traced level curve beyond every critical value, which makes the
    working domain satisfy the boundary restrictions exactly.
    """
    if f.disk:
        return CurveRef(CurveKind.BOUNDARY, 1.0, label="unit-circle"), None

    finite_levels = [
        ref.level for ref in C.components if math.isfinite(ref.level) and ref.level > 0
    ]
    eps_out = 4.0 * max([1.0] + finite_levels)
    comps = trace_level_set(f, eps_out)
    if len(comps) != 1 or comps[0].vertices:
        raise TopologyError(
            f"outer level {eps_out} is not a single simple curve; enlarge the level"
        )
    ref = CurveRef(
        CurveKind.LEVEL_CURVE, eps_out, component=comps[0], label=f"outer@{eps_out:.6g}"
    )
    g = ref.graph()
    return ref, g.bounded_faces[0].id


def decompose(f: RationalFn, C: CriticalSetC | None = None) -> list[AnnularRegion]:
    """All annular components of the domain minus the critical set.

    The regions are read off the nesting forest of the critical set: one per
    bounded face of each critical curve, between the curve and the face's
    direct child, and one between the maximal member, which
    ``maximal_component`` requires to be unique, and the outer boundary.
    Each bounded face must hold exactly one direct child; a face with two
    mutually exterior children would be a region whose complement has two
    bounded components, which the two-curve theorem forbids.

    On each region f is conformally z^N, by the covering argument:

    - the critical-point list is complete (:func:`_certify_critical_list`,
      checked first), so every critical point is a known point;
    - the region holds no zero, pole or critical point
      (:func:`_certify_region_clean`), so f is a local homeomorphism on it;
    - its boundaries lie on the levels eps1 and eps2 of the critical set,
      so f is proper onto the annulus eps1 < |w| < eps2, hence a finite
      covering of it;
    - its degree N is the winding of f along one loop (:func:`_certify_loop`
      in :func:`winding_N`).
    """
    _certify_critical_list(f)
    if C is None:
        C = critical_level_curves(f)

    top = maximal_component(f, C)
    children: dict[tuple[int, int], list[int]] = {}
    for i, p in enumerate(C.parent):
        if p is not None:
            children.setdefault(p, []).append(i)

    regions: list[AnnularRegion] = []
    for j, y in enumerate(C.components):
        if y.kind is not CurveKind.LEVEL_CURVE:
            continue
        g = y.graph()
        for face in g.bounded_faces:
            kids = children.get((j, face.id), [])
            if len(kids) != 1:
                raise TopologyError(
                    f"face {face.id} of {y.label} holds {len(kids)} direct critical-set "
                    "members; each annular region needs exactly one bounded complement"
                )
            inner = C.components[kids[0]]
            regions.append(
                AnnularRegion(
                    inner_boundary=inner,
                    outer_boundary=y,
                    outer_face_id=face.id,
                    eps1=inner.level,
                    eps2=y.level,
                    label=f"{inner.label}->{y.label}",
                )
            )

    outer_ref, outer_face = _outer_boundary(f, C)
    regions.append(
        AnnularRegion(
            inner_boundary=top,
            outer_boundary=outer_ref,
            outer_face_id=outer_face,
            eps1=top.level,
            eps2=outer_ref.level,
            label=f"{top.label}->{outer_ref.label}",
        )
    )

    for region in regions:
        _certify_region_clean(f, region)
        region.N, region.M = winding_N(f, region)
    regions.sort(key=lambda r: (min(r.eps1, r.eps2), max(r.eps1, r.eps2), r.label))
    return regions


def _certify_critical_list(f: RationalFn):
    """The critical points are all of f': the counts m of the certified
    clusters ``f.all_critical_points``, plus the pm - 1 roots that each pole
    of order pm >= 2 gives n'd - nd', are its degree."""
    found = sum(m for _, m in f.all_critical_points)
    at_poles = sum(pm - 1 for _, pm in f.denominator.roots())
    degree = f.derivative_numerator.degree
    if found + at_poles != degree:
        raise CertificateError(
            f"critical points account for {found} + {at_poles} at poles of the {degree} "
            f"roots of n'd - nd'; {degree - found - at_poles} missing"
        )


def _certify_region_clean(f: RationalFn, region: AnnularRegion):
    """No zero, pole or critical point lies in the region.

    A point on a boundary is told by identity, not by its level: the region's
    own boundary point and the vertices of its boundary curves are dropped
    first, as the critical set tells its curves apart.  A critical point whose
    |f| ties with a boundary's level to within an ulp would otherwise fall
    strictly inside the band.  The points strictly inside the region's level
    band go through one face lookup per boundary graph.
    """
    inner = region.inner_boundary
    pts = np.array([z for z, _ in f.zeros + f.poles + f.critical_points], dtype=complex)
    own = [inner.point] if inner.kind is CurveKind.POINT else []
    for b in (inner, region.outer_boundary):
        if b.kind is CurveKind.LEVEL_CURVE:
            own += [v for v, _ in b.component.vertices]
    pts = pts[~np.isin(pts, own)]
    lo, hi = region.level_interval()
    av = np.array([f.abs_eval(z) for z in pts])
    pts = pts[(lo < av) & (av < hi)]
    if pts.size and region.outer_boundary.kind is CurveKind.LEVEL_CURVE:
        g = region.outer_boundary.graph()
        pts = pts[faces_of_points(g, pts) == region.outer_face_id]
    if pts.size and inner.kind is CurveKind.LEVEL_CURVE:
        g = inner.graph()
        pts = pts[faces_of_points(g, pts) == g.unbounded_face.id]
    if pts.size:
        raise TopologyError(f"region {region.label} contains distinguished point {pts[0]}")


def _zeros_and_poles(f: RationalFn) -> tuple[np.ndarray, np.ndarray]:
    """The zeros and poles, and their multiplicities signed + for zeros, - for poles."""
    signed = f.zeros + [(p, -m) for p, m in f.poles]
    return np.array([z for z, _ in signed], dtype=complex), np.array([m for _, m in signed], dtype=int)


def _inside_inner(region: AnnularRegion, zp: np.ndarray) -> np.ndarray:
    """Which points of zp the inner boundary encloses (a point boundary: itself)."""
    inner = region.inner_boundary
    if inner.kind is CurveKind.POINT:
        return zp == inner.point
    g = inner.graph()
    return faces_of_points(g, zp) != g.unbounded_face.id


# ---------------------------------------------------------------------------
# the region's level loops


class _Loop(NamedTuple):
    points: np.ndarray  # from the basepoint on, the closing point dropped
    f_vals: np.ndarray
    turn: np.ndarray  # arg f turned from the basepoint to each point
    total: float  # arg f turned around the closed loop
    N: int
    orientation: int  # +1 counterclockwise


def _loop_levels(region: AnnularRegion) -> np.ndarray:
    """K_LOOPS levels strictly inside the region, inner to outer: geometric
    between eps1 and eps2, linear in |f| toward a zero and in 1/|f| toward a pole."""
    s = np.arange(1, K_LOOPS + 1) / (K_LOOPS + 1)
    if region.eps1 == 0.0:
        return region.eps2 * s
    if math.isinf(region.eps1):
        return region.eps2 / s
    return region.eps1 ** (1.0 - s) * region.eps2**s


def _certify_loop(
    f: RationalFn,
    region: AnnularRegion,
    tracer: _LevelTracer,
    comp: LevelCurveComponent,
    zp: np.ndarray,
    want: np.ndarray,
) -> _Loop:
    """The per-loop certificate: comp, traced by tracer, is the region's loop
    at its level, every arg-f increment lies in (0, MAX_EDGE_TURN), and the
    total is 2*pi*N for a nonzero integer N.

    A loop with an increment of MAX_EDGE_TURN or more is refined first
    (``tracer._refine``, up to ``_REFINE_ROUNDS`` times), each chord split at
    a corrected midpoint, which about halves its increment; the gate then
    decides on the refined loop.  A level strictly between the region's two
    levels has exactly one component in the region: a simple closed curve
    enclosing exactly the zeros and poles inside the inner boundary, ``want``
    of the points ``zp`` (:func:`_inside_inner`).  One face lookup on the
    loop's graph says which it encloses; those points lie off every loop.
    """
    where = f"level {comp.level} in region {region.label}"
    if comp.vertices or not comp.arcs[0].closed:
        raise TopologyError(f"{where} is not a simple loop")
    for rounds in range(_REFINE_ROUNDS, -1, -1):
        pts = comp.arcs[0].points
        vals = f.eval_grid(pts)
        inc = np.angle(vals[1:] / vals[:-1])
        if not (rounds and np.max(inc) >= MAX_EDGE_TURN):
            break
        comp = _refine(tracer, comp)
    if region.outer_boundary.kind is CurveKind.BOUNDARY and np.any(np.abs(pts) >= 1.0):
        raise TopologyError(f"{where} leaves the unit disk")
    g = build_graph(comp)
    enclosed = faces_of_points(g, zp) != g.unbounded_face.id
    if not np.array_equal(enclosed, want):
        raise TopologyError(f"{where} encloses the zeros and poles {zp[enclosed]}, not the region's {zp[want]}")
    if not (np.all(inc > 0.0) and np.all(inc < MAX_EDGE_TURN)):
        raise CertificateError(
            f"arg f increment in [{inc.min():.3g}, {inc.max():.3g}] leaves (0, pi/4) on {where}"
        )
    turn = np.cumsum(inc)
    total = float(turn[-1])
    n = round(total / TWO_PI)
    if n == 0 or abs(total - TWO_PI * n) > WINDING_TOL:
        raise TopologyError(f"winding {total / TWO_PI:.8f} at level {comp.level} is not a nonzero integer")
    orientation = 1 if geometry.signed_area(pts) > 0 else -1
    return _Loop(pts[:-1], vals[:-1], np.concatenate([[0.0], turn[:-1]]), total, n, orientation)


def _outer_start(region: AnnularRegion) -> tuple[complex, float]:
    """A point on the region's outer boundary, and log|f| there.

    On the unit circle the point 1, where |f| = 1.  On a level curve the
    middle point of the first arc around the region's face, away from the
    vertices: the region is the one side of that arc where |f| moves toward
    the loop levels, so a radial step from it walks into the region.
    """
    outer = region.outer_boundary
    if outer.kind is CurveKind.BOUNDARY:
        return 1.0 + 0j, 0.0
    g = outer.graph()
    edge, _ = g.faces[region.outer_face_id].edge_cycle[0]
    pts = g.edges[edge].points
    return complex(pts[pts.size // 2]), math.log(outer.level)


def _radial_step(f: RationalFn, tracer: _LevelTracer, z: complex, alpha: float, log_from: float):
    """From z on |f| = exp(log_from) to the tracer's level across the loops.

    Each step predicts z + dlog / (f'/f), which moves log|f| by dlog and
    keeps arg f, and corrects with ``_LevelTracer.correct``.  Like a march
    step, it stays below 0.4 times its distance to each off-level saddle,
    down to a quarter of that saddle's neck width at the tracer's level, so
    it cannot jump across a neck into a neighbouring region.  A step is
    accepted under the march's rule (STEP_MAX_ITER, STEP_MAX_CORRECTION)
    with an arg-f increment below MAX_EDGE_TURN, and halved otherwise.
    Returns the point reached and alpha carried there.
    """
    now, fz, ld = log_from, f.eval(z), f.abs_and_log_deriv(z)[1]
    s = tracer.log_eps - now
    while True:
        rest = tracer.log_eps - now
        s = math.copysign(min(abs(s), abs(rest)), rest)
        reach = min((max(0.4 * abs(z - c), 0.25 * r_neck) for c, r_neck in tracer._necks), default=math.inf)
        if abs(s / ld) > reach:
            s *= reach / abs(s / ld)
        step = s / ld
        on = tracer if s == rest else _LevelTracer(f, math.exp(now + s), tracer.scale)
        z_new, _, ld_new = on.correct(z + step, STEP_MAX_ITER)
        if z_new is not None and abs(z_new - (z + step)) <= STEP_MAX_CORRECTION * abs(step):
            f_new = f.eval(z_new)
            inc = cmath.phase(f_new / fz)
            if abs(inc) < MAX_EDGE_TURN:
                z, fz, ld, alpha = z_new, f_new, ld_new, alpha + inc
                if on is tracer:
                    return z, alpha
                now = on.log_eps
                continue
        s *= 0.5
        if abs(s / ld) < tracer.h_min:
            raise TraceError(f"radial step underflow near {z} toward level {tracer.eps}")


def winding_N(f: RationalFn, region: AnnularRegion) -> tuple[int, int]:
    """Winding integer N of f along the level loops of the region, and M.

    Traces the region's K_LOOPS loops and keeps them on the region as its
    PhiGrid.  The loops are phi's preimages of circles, and one chain of
    radial steps, phi's preimage of a radial segment, seeds them all: it
    starts on the outer boundary (:func:`_outer_start`), and each loop,
    outermost first, starts where the chain reaches its level.  Every loop
    passes :func:`_certify_loop`, and N and the orientation must agree on all
    of them.  M = +-N, positive when arg f increases along the positively
    oriented curve, and M must be the signed count of the zeros (+) and poles
    (-) inside the inner boundary.  alpha is shifted by the multiple of 2*pi
    that makes it the principal arg of f at the basepoint, the point of
    smallest |arg f| (ties by |z|) on loop K_LOOPS // 2, the outer loop.
    """
    levels = _loop_levels(region)
    z, log_from = _outer_start(region)
    alpha = cmath.phase(f.eval(z))
    zp, mult = _zeros_and_poles(f)
    want = _inside_inner(region, zp)
    loops: list[_Loop | None] = [None] * K_LOOPS
    starts: list[float] = [0.0] * K_LOOPS  # alpha at each loop's first point
    for k in range(K_LOOPS - 1, -1, -1):
        tracer = _LevelTracer(f, levels[k], f.scale)
        seed, alpha = _radial_step(f, tracer, z, alpha, log_from)
        loops[k] = _certify_loop(f, region, tracer, _trace_component_with(tracer, seed), zp, want)
        starts[k], z, log_from = alpha, complex(loops[k].points[0]), tracer.log_eps
    a = K_LOOPS // 2
    mid = loops[a]
    theta = np.angle(mid.f_vals)
    b = int(np.lexsort((np.abs(mid.points), np.abs(theta)))[0])
    shift = TWO_PI * round((theta[b] - starts[a] - mid.turn[b]) / TWO_PI)
    if len({(lp.N, lp.orientation) for lp in loops}) != 1:
        raise TopologyError(
            f"winding disagrees across levels: {[(lp.N, lp.orientation) for lp in loops]}"
        )
    n, m = loops[0].N, loops[0].orientation * loops[0].N
    s = int(np.sum(mult[want]))
    if s != m:
        raise TopologyError(
            f"region {region.label}: winding {m} disagrees with enclosed zero-pole count {s}"
        )
    offsets = np.cumsum([0] + [lp.points.size for lp in loops])
    grid = PhiGrid(
        points=np.concatenate([lp.points for lp in loops]),
        f_vals=np.concatenate([lp.f_vals for lp in loops]),
        alpha=np.concatenate([s + shift + lp.turn for s, lp in zip(starts, loops)]),
        basepoint_index=int(offsets[a] + b),
        levels=levels,
        offsets=offsets,
        closure_discrepancy=max(abs(lp.total - TWO_PI * n) for lp in loops),
    )
    region.phi_grid = grid
    region.basepoint = complex(grid.points[grid.basepoint_index])
    return n, m


# ---------------------------------------------------------------------------
# the conformal map


def build_phi(f: RationalFn, region: AnnularRegion) -> PhiGrid:
    """phi = |f|^(1/M) e^(i*alpha/M) on the region's level loops, for the region's M.

    The loops and alpha come from :func:`winding_N`, traced once per region;
    they are traced here only when the region has none yet.
    """
    if region.phi_grid is None:
        region.N, region.M = winding_N(f, region)
    grid = region.phi_grid
    grid.phi = np.abs(grid.f_vals) ** (1.0 / region.M) * np.exp(1j * grid.alpha / region.M)
    return grid


# ---------------------------------------------------------------------------
# verification


@dataclass
class PhiCertificate:
    """The measurements of a passed :func:`verify_phi`; a failed gate raises instead."""

    max_power_residual: float
    power_gate: float
    closure_discrepancy: float
    radii: tuple[float, float]
    boundary_inner_gap: float
    boundary_outer_gap: float
    level_image_spread: float
    n_mesh: int  # loop samples

    def to_dict(self) -> dict:
        return {
            **asdict(self),
            "radii": [_json_float(r) for r in self.radii],
            "boundary_inner_gap": _json_float(self.boundary_inner_gap),
            "boundary_outer_gap": _json_float(self.boundary_outer_gap),
        }


def verify_phi(f: RationalFn, region: AnnularRegion) -> PhiCertificate:
    """Re-check phi on the region's two level loops: the power identity,
    |phi| inside the image annulus, and injectivity, which is exact on the
    loops.

    That f is conformally z^N on the whole region is the covering argument
    :func:`decompose` certifies; these gates re-check its consequences where
    phi is sampled.  On each loop arg phi turns monotonically through exactly
    one full turn, in steps below pi/(4|M|), so phi is one-to-one on it; the
    loops' |phi| ranges are disjoint and ordered, so the two loops land on
    distinct circles.  A failed gate raises :class:`CertificateError` where
    it is decided; a returned :class:`PhiCertificate` holds measurements only.
    """
    grid = build_phi(f, region)
    M = region.M

    power = grid.phi**M
    max_f = float(np.max(np.abs(grid.f_vals)))
    residual = float(np.max(np.abs(power - grid.f_vals)))
    gate = DEFAULT_TOLS.phi_tol * (1.0 + max_f)
    if residual > gate:
        raise CertificateError(f"power identity fails: {residual:.3e} > {gate:.3e}")

    r_lo, r_hi = region.image_radii()
    mods = np.abs(grid.phi)
    if not (np.all(mods > r_lo) and np.all(mods < r_hi)):
        raise CertificateError(
            f"|phi| escapes the annulus ({r_lo}, {r_hi}): "
            f"range [{mods.min():.6g}, {mods.max():.6g}]"
        )

    for sl, level in zip(grid.loops(), grid.levels):
        ph = grid.phi[sl]
        steps = math.copysign(1.0, M) * np.angle(np.roll(ph, -1) / ph)
        turn = float(np.sum(steps))
        monotone = np.all(steps > 0.0) and np.all(steps < MAX_EDGE_TURN / abs(M))
        if not monotone or abs(turn - TWO_PI) > WINDING_TOL:
            raise CertificateError(
                f"phi does not turn once monotonically around the loop at level {level}: "
                f"total {turn / TWO_PI:.8f} turns"
            )
    lo = np.array([mods[sl].min() for sl in grid.loops()])
    hi = np.array([mods[sl].max() for sl in grid.loops()])
    if not (np.all(hi[:-1] < lo[1:]) or np.all(lo[:-1] > hi[1:])):
        raise CertificateError("the |phi| ranges of distinct loops overlap")

    def gap(level: float, eps: float) -> float:
        return abs(_power_radius(level, M) - _power_radius(eps, M))

    return PhiCertificate(
        max_power_residual=residual,
        power_gate=gate,
        closure_discrepancy=grid.closure_discrepancy,
        radii=(r_lo, r_hi),
        boundary_inner_gap=gap(grid.levels[0], region.eps1),
        boundary_outer_gap=gap(grid.levels[-1], region.eps2),
        level_image_spread=float(np.max(hi - lo)),
        n_mesh=int(grid.points.size),
    )
