"""Predictor-corrector tracing of the level set {z : |f(z)| = eps}.

The curve is followed along the tangent direction i * conj(f'/f) (arg f
increases in the stored direction).  The predictor steps along a circular
arc: the tangent turned by half the last step's turn per unit length times
the step, which costs no evaluation.  The corrector brings the point back
onto the level set.  One corrector, ``_LevelTracer.correct``, serves every
on-level point: Newton on log|f| = log eps with a second-order (Chebyshev)
term.  The point it starts from takes one fused Horner pass
(``RationalFn.abs_and_log_derivative``, which also gives (f'/f)'), and each
update is checked by a pass that forms only |f| and f'/f
(``RationalFn.abs_and_log_deriv``, the same floats); the fused pass runs
again only at a point that needs one more update.  So a march step takes
one or two updates, each costing two evaluations (the fused pass at the
predicted or updated point and the check of the update), and the f'/f of an
accepted point gives the next step's tangent.  The step length follows the
chord sag: each accepted step estimates its sagitta from the corrector's
distance to the tangent point and from the tangent turn, a step whose
estimate exceeds 4 * SAG_REL * scale is halved, and the next step is scaled
by sqrt(SAG_REL * scale / estimate) within [0.5, 2].  A predicted step moves
arg f by at most MAX_ARG_STEP, as |f'/f| at its start predicts it; the
accepted chord may move it by more where |f'/f| grows along the step.  A
step stays short of on-level vertices and of the necks of off-level
saddles; the march measures its distance to them only when its arc length
since the last measurement could have brought it within reach.  Every arc
records a sag bound that the polyline's consumers use as their margin.  A
consumer that needs a finer margin than SAG_REL gives asks for a refined
copy (:func:`_refine`): every march chord split at a corrected midpoint,
which cuts the sag bound by about 4 per round.

A critical point lies on the level eps when eps is within the certified
rounding window of |f(c)| (``RationalFn.critical_on_level``, the one on-level
test).  Such points are branch points: an arc ends when it enters the capture
ball of such a vertex, and new arcs are launched along the mult+1 outgoing
ones of the 2*(mult+1) rays of the local model f(c) + a*(z - c)^(mult+1).
Arcs between vertices are launched only from vertices, so for a given tracer
a branched component's polylines do not depend on the seed it was traced
from.  A level off a critical value whose neck the march cannot resolve is
refused before any march (NECK_MIN_STEPS, LEVEL_MIN_GATES), never snapped
onto the vertex.  So is an unbounded level, eps = |f(inf)| within rounding:
every other level set lies in the disk of ``_seed_box``, so an arc needs no
limit on its reach, only the point budget MAX_ARC_POINTS.  The vertex rays
and the necks of off-level saddles read the local model a from
``RationalFn.critical_models``: the coefficient of order mult+1 of f's
Taylor series at c, computed once per function.

The component through each critical point is traced once per function, from
its vertex at the point's own level, and kept on the function
(``_critical_curve``); the critical set and every level set on which that
point lies hand out the same object.  A traced level set is
certified complete by the argument principle: its arcs must turn arg f by
2*pi times the zeros or the poles of the domain, so a component missed by
the seeds, or traced twice, is an error rather than a short or long list.
:func:`trace_level_set` gathers the stored critical curves at the level and,
if their turn is short, the components through the seeds of one ray from
each zero and pole: every bounded face of a component holds a zero or a
pole, so such a ray crosses every component.  The seeds come from
:func:`find_seeds` and its batched ``_ray_crossings``, which samples each
ray from its anchor outward and narrows all the crossings of a call
together in ten 32-way rounds, one grid evaluation each.  The rays run out
past a disk that holds the whole level set (``_seed_box``); their first
samples do not depend on the level and are kept on the function.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import geometry
from .config import DEFAULT_TOLS
from .errors import TraceError
from .funcspace import RationalFn, is_inf

TWO_PI = 2.0 * math.pi

# relative strength of the local perturbation |a| r^(m+1) / eps at capture range
_CAPTURE_LEVEL = 1e-6
# per-arc hard point budget; hit only by runaway arcs
MAX_ARC_POINTS = 200_000
# a predicted step is accepted after at most STEP_MAX_ITER corrector updates
# that land within STEP_MAX_CORRECTION times its length of the tangent point
STEP_MAX_ITER = 3
STEP_MAX_CORRECTION = 0.6
# chord sag the step controller aims at, relative to the domain scale; a
# step whose sag estimate exceeds 4 times this is halved
SAG_REL = 1e-3
# largest arg-f increment h * |f'/f| of one predicted step, in radians; the
# increment of the accepted chord is not bounded by it
MAX_ARG_STEP = 0.5
# predictor step floor, relative to the domain scale
MIN_STEP_REL = 1e-6
# a level off a critical value is refused when the saddle's neck half-width
# is below NECK_MIN_STEPS step floors, where the step floor cannot stay
# inside the neck, or when |log(eps / |f(c)|)| is at most LEVEL_MIN_GATES
# corrector gates tau, where the corrector cannot tell the two levels apart
NECK_MIN_STEPS = 4.0
LEVEL_MIN_GATES = 4.0
# how far a winding sum may sit from an integer multiple of 2*pi
WINDING_TOL = 1e-6
# how many rounds of :func:`_refine` a consumer may ask for before it refuses
_REFINE_ROUNDS = 2


@dataclass
class TracedArc:
    """One traced polyline of a level-curve component.

    ``points`` are ordered so that arg f increases along the arc.  Vertex ids
    index into the owning component's vertex list; a closed arc has neither.
    ``start_ray``/``end_ray`` are the ray slots the arc's ends occupy at
    those vertices: indices into the vertex's 2(m+1) rays of the local model,
    which run counterclockwise, so the arcs in a vertex's slots, in slot
    order, are its rotation system.

    ``sag`` is the largest tangent-triangle bound h/2 * tan(turn/2) over the
    march steps, for a chord of length h whose end tangents differ by
    ``turn``: a step with no inflection inside it keeps the curve within the
    triangle of its chord and end tangents, so every point of the curve lies
    within ``sag`` of its chord and every chord point within ``sag`` of the
    curve.  A closed arc ends on the chord from its last march point back to
    its start, which replaces the last step and may be split at corrected
    midpoints; its bound, from the tangents at both ends, is in ``sag`` too.
    The short segments at a vertex follow the local model's rays and are not
    march steps.

    ``turn`` is the arg-f turn along the arc, kept by :func:`_certify_turn`
    once it has checked the arc's increments.
    """

    points: np.ndarray
    sag: float
    start_vertex: int | None = None
    end_vertex: int | None = None
    closed: bool = False
    start_ray: int | None = None
    end_ray: int | None = None
    turn: float | None = field(default=None, init=False, compare=False, repr=False)

    def length(self) -> float:
        return geometry.polyline_length(self.points)


@dataclass
class LevelCurveComponent:
    """A connected component of E_{f, eps} as polylines plus branch points."""

    arcs: list[TracedArc]
    vertices: list[tuple[complex, int]]
    level: float
    # the planar embedding, kept by ``levelgraph.build_graph`` like ``index``;
    # it holds no reference back to the component, so no cycle keeps it alive
    embedding: tuple | None = field(default=None, init=False, compare=False, repr=False)
    # a stored critical curve's function, weakly, since f keeps the curve in
    # ``f.critical_curves``: :func:`_refined` corrects on its level
    _fn: weakref.ref | None = field(default=None, init=False, compare=False, repr=False)

    @property
    def points(self) -> np.ndarray:
        return np.concatenate([a.points for a in self.arcs])

    def total_length(self) -> float:
        return sum(a.length() for a in self.arcs)

    @property
    def sag(self) -> float:
        """The largest chord-sag bound over the arcs (see :class:`TracedArc`)."""
        return max(a.sag for a in self.arcs)

    @cached_property
    def index(self) -> geometry.SegmentIndex:
        return geometry.SegmentIndex([a.points for a in self.arcs])


@dataclass
class _Vertex:
    position: complex
    mult: int
    rays: list[float]
    r_cap: float

    def ray_slot(self, z: complex) -> int | None:
        """The ray slot of a point z near the vertex: its nearest ray, if the
        direction of z lies within pi/(3(m+1)), a third of the ray spacing,
        of it, else None.  Both ends of every arc take their slot here, so
        two arc ends in distinct slots lie at least that far apart."""
        w = z - self.position
        ang = math.atan2(w.imag, w.real)
        diffs = [abs(_wrap_angle(ang - r)) for r in self.rays]
        k = diffs.index(min(diffs))
        return k if diffs[k] <= math.pi / (3.0 * (self.mult + 1)) else None


def _wrap_angle(a: float) -> float:
    return (a + math.pi) % TWO_PI - math.pi


def _vertex_rays(f: RationalFn, c: complex, m: int, a: complex) -> list[float]:
    """Outgoing ray angles of the level curve at a vertex with local model a."""
    fc = f.eval(c)
    n = m + 1
    base = (math.pi / 2.0 - math.atan2(a.imag, a.real) + math.atan2(fc.imag, fc.real)) / n
    return sorted(_wrap_angle(base + k * math.pi / n) for k in range(2 * n))


def _capture_radius(m: int, a: complex, eps: float, scale: float) -> float:
    """Radius where the local perturbation |a| r^(m+1) is _CAPTURE_LEVEL * eps,
    kept within [1e-6, 5e-2] * scale."""
    n = m + 1
    r_cap = (_CAPTURE_LEVEL * eps / (n * abs(a))) ** (1.0 / n)
    return min(max(r_cap, 1e-6 * scale), 5e-2 * scale)


class _LevelTracer:
    """Shared state for tracing one level of one function.

    Built at a level :func:`_check_level` admits, it refuses one it cannot
    trace before any march: an unbounded level set or one past the floats
    (the refusals of :func:`_seed_box`), a neck below NECK_MIN_STEPS step
    floors, and a level within LEVEL_MIN_GATES gates of a critical value."""

    # the fixed certificate gates; ``bench/spans.py`` reads ``tols.trace_tol``
    tols = DEFAULT_TOLS

    def __init__(self, f: RationalFn, eps: float, scale: float):
        _seed_box(f, eps)
        self.f = f
        self.eps = eps
        self.scale = scale
        self.log_eps = math.log(eps)
        self.tau = 0.25 * DEFAULT_TOLS.trace_tol / max(1.0, eps)
        self.sag_target = SAG_REL * scale
        self.h_min = MIN_STEP_REL * scale
        self.vertices: list[_Vertex] = []
        # (c, r_neck) for each off-level saddle.  Near a critical point c at
        # another level the curve passes a neck of width about
        # r_neck = (|eps - |f(c)|| / |a|)^(1/(m+1)), inf where a is unknown;
        # a longer step can jump across it onto the other branch.  Multiple
        # zeros and poles are no saddles.
        self._necks: list[tuple[complex, float]] = []
        for i, (c, m, a) in enumerate(f.critical_models):
            if f.critical_on_level(i, eps):
                if a is None:
                    raise TraceError(f"degenerate local model at critical point {c}")
                self.vertices.append(_Vertex(c, m, _vertex_rays(f, c, m, a), _capture_radius(m, a, eps, scale)))
                continue
            av = f.abs_eval(c)
            if not 0.0 < av < math.inf:
                continue
            r_neck = (abs(eps - av) / abs(a)) ** (1.0 / (m + 1)) if a is not None else math.inf
            if abs(math.log(eps / av)) <= LEVEL_MIN_GATES * self.tau:
                cause = f"the corrector cannot tell eps from |f(c)| within {LEVEL_MIN_GATES:g} tau ({self.tau:.3g})"
            elif r_neck < NECK_MIN_STEPS * self.h_min:
                cause = f"the march cannot stay inside a neck below {NECK_MIN_STEPS:g} h_min ({self.h_min:.3g})"
            else:
                self._necks.append((c, r_neck))
                continue
            raise TraceError(
                f"level {eps!r} is refused near critical point {c}: |f(c)| = {av!r}, "
                f"neck half-width {r_neck:.3g}; {cause}"
            )

    # -- Newton correction onto the level set

    def correct(self, z: complex, max_iter: int = 60):
        """Newton on log|f| = log eps with a second-order term: up to max_iter
        updates, then a residual check.

        Each update moves along the gradient direction n = conj(f'/f)/|f'/f|
        of log|f|, where g = log|f| - log eps grows at rate |f'/f| with
        curvature Re((f'/f)' n^2).  The Newton step s = -g/|f'/f| gets the
        Chebyshev term -Re((f'/f)' n^2) s^2 / (2 |f'/f|), and stays plain
        Newton when that term exceeds half the step.  Returns (z on the level,
        updates made, f'/f at z), or (None, updates, None) when the iteration
        hits a zero or pole, a vanishing gradient, or ends off the level.  The
        start point takes one fused pass (``RationalFn.abs_and_log_derivative``),
        since a predicted point is almost never on the level; each update is
        checked with a pass that forms only |f| and f'/f
        (``RationalFn.abs_and_log_deriv``), and the fused pass runs again at
        an updated point only when it needs one more update.  Both passes give
        the same |f| and f'/f, so the gate and the updates read the same
        floats either way.  On Python complex whatever the type of the seed.
        """
        z = complex(z)
        evaluate, check = self.f.abs_and_log_derivative, self.f.abs_and_log_deriv
        log, inf = math.log, math.inf
        log_eps, tau = self.log_eps, self.tau
        it = 0
        av, ld, dld = evaluate(z)
        while True:
            if not 0.0 < av < inf:
                return None, it, None
            g = log(av) - log_eps
            if -tau <= g <= tau:
                return z, it, ld
            r = abs(ld)
            if it == max_iter or not 0.0 < r < inf:
                return None, it, None
            if dld is None:
                dld = evaluate(z)[2]
            n = ld.conjugate() / r
            s = -g / r
            second = 0.5 * (dld * n * n).real * s * s / r
            if abs(second) <= 0.5 * abs(s):
                s -= second
            z = z + s * n
            it += 1
            av, ld = check(z)
            dld = None

    # -- single march from a point to closure or a vertex

    def march(self, z0: complex, ld0: complex, origin_vertex: int | None = None):
        """Follow the curve from z0 on the level, where f'/f = ld0, along
        increasing arg f; returns (points, end_vertex_idx or None, sag).

        ``None`` end means the arc closed back onto its start.  Only
        vertex-free launches (origin_vertex is None) may close.  An arc
        between vertices is kept only when launched from its start vertex
        (see :func:`_trace_component_with`).
        The predictor follows a circular arc: it turns the tangent at the
        last point by half the signed turn per unit length of the last step
        times the step, so one corrector update usually lands on the level.
        The sag estimate and the STEP_MAX_CORRECTION guard measure the
        corrected point from the tangent point, whatever the predictor.  Each
        accepted point's f'/f from the corrector gives the next tangent, and
        its modulus, taken once per point, both normalises that tangent and
        bounds the next step's arg-f increment.  ``sag`` is the largest
        tangent-triangle bound of the steps and of the closing chord (see
        :class:`TracedArc`).
        """
        pts = [z0]
        append = pts.append
        n_pts = 1
        h = 1e-3 * self.scale
        sag = 0.0
        arc_len = 0.0
        z = start = z0
        t = t_start = _tangent(ld0, z0)
        t_re, t_im = t.real, t.imag
        # |f'/f| at the last point: it normalises the tangent there and
        # bounds the arg-f increment of the next step
        r = r0 = abs(ld0)
        # signed tangent turn per unit length over the last step
        bend = 0.0
        correct = self.correct
        sag_target = self.sag_target
        sag_cap = 4.0 * sag_target
        h_min = self.h_min
        cos, sin, tan, atan2, sqrt, inf = math.cos, math.sin, math.tan, math.atan2, math.sqrt, math.inf
        may_close = origin_vertex is None
        # (position, floor) of every on-level vertex and every neck: a step
        # stays below 0.4 times its distance to each, down to the floor, so a
        # march can never jump across a capture ball or a neck.  The origin
        # vertex joins the list, and the capture checks, only beyond
        # origin_guard of arc length.
        origin_guard = 4.0 * self.vertices[origin_vertex].r_cap if origin_vertex is not None else 0.0
        limits = [(c, 0.25 * r_neck) for c, r_neck in self._necks]
        captures = []
        for idx, v in enumerate(self.vertices):
            if idx != origin_vertex:
                limits.append((v.position, 0.5 * v.r_cap))
                captures.append((v.position, v.r_cap, idx))
        away = origin_vertex is None
        # The limit loop changes h_eff only for a limit nearer than 2.5 h_eff,
        # so it runs only when the arc may have come that near since it last
        # ran: ``near`` is the distance from the point where it last ran to
        # the nearest limit (0 forces a run) and ``travel`` the sum of the
        # chords marched since, which bounds how far the arc has moved.  The
        # skip test (travel + 2.5 h_eff) (1 + 1e-9) < near leaves room for
        # rounding: the computed moduli and the sum of at most MAX_ARC_POINTS
        # chords are within (MAX_ARC_POINTS + 12) u < 1e-10 of the exact
        # ones, so every skipped 0.4 * abs(z - p) is at least h_eff.
        near = 0.0
        travel = 0.0

        # below, each min or max of two floats is a comparison that picks the
        # operand the builtin would, so the floats stay the same
        while n_pts < MAX_ARC_POINTS:
            # arg f moves by about h |f'/f| along a step
            h_eff = MAX_ARG_STEP / r
            if h_eff > h:
                h_eff = h
            if not (travel + 2.5 * h_eff) * (1.0 + 1e-9) < near:
                near, travel = inf, 0.0
                for p, floor in limits:
                    dist = abs(z - p)
                    if dist < near:
                        near = dist
                    d = 0.4 * dist
                    if d < h_eff:
                        if floor <= d:
                            h_eff = d
                        elif floor < h_eff:
                            h_eff = floor
            if h_eff < h_min:
                h_eff = h_min

            # predictor-corrector with step halving
            while True:
                ht = h_eff * t
                phi = 0.5 * bend * h_eff
                z_new, iters, ld_new = correct(z + ht * complex(cos(phi), sin(phi)), STEP_MAX_ITER)
                if z_new is not None:
                    # the corrector's move from the tangent point
                    off = abs(z_new - (z + ht))
                    if off <= STEP_MAX_CORRECTION * h_eff:
                        # the unit tangent i * conj(f'/f) and its turn from t
                        r_new = abs(ld_new)
                        if not 0.0 < r_new < inf:
                            raise TraceError(f"vanishing level-set gradient at {z_new}")
                        t_new = (1j * ld_new.conjugate()) / r_new
                        n_re, n_im = t_new.real, t_new.imag
                        signed_turn = atan2(t_re * n_im - t_im * n_re, t_re * n_re + t_im * n_im)
                        turn = abs(signed_turn)
                        if turn <= 0.5:
                            # the chord's sagitta: a quarter of the corrector's
                            # move, or that of a circular arc turning by turn
                            sag_est = 0.5 * h_eff * tan(0.25 * turn)
                            if not sag_est > 0.25 * off:
                                sag_est = 0.25 * off
                            if sag_est <= sag_cap:
                                break
                h_eff *= 0.5
                if h_eff < h_min:
                    raise TraceError(
                        f"step size underflow near {z} at level {self.eps}: "
                        "curvature too stiff for the configured step bounds"
                    )

            step_len = abs(z_new - z)
            step_sag = 0.5 * step_len * tan(0.5 * turn)
            if step_sag > sag:
                sag = step_sag
            arc_len += step_len
            travel += step_len
            append(z_new)
            n_pts += 1

            # the sagitta grows as h^2: aim the next step at the target,
            # within [0.5, 2]
            if sag_est == 0.0:
                grow = 2.0
            else:
                # sag_est <= 4 sag_target, so grow >= 0.5 after rounding
                grow = sqrt(sag_target / sag_est)
                if not grow < 2.0:
                    grow = 2.0
            if iters >= STEP_MAX_ITER and grow > 0.6:
                grow = 0.6
            h = h_eff * grow
            if h_min > h:
                h = h_min

            if not away and arc_len >= origin_guard:
                origin = self.vertices[origin_vertex]
                limits.append((origin.position, 0.5 * origin.r_cap))
                captures = [(v.position, v.r_cap, idx) for idx, v in enumerate(self.vertices)]
                away = True
                near = 0.0

            # vertex capture: endpoint inside the ball, or segment passing
            # through it; the segment test runs only when the endpoint is
            # within reach of the ball
            for p, r_cap, idx in captures:
                d = abs(z_new - p)
                if d < r_cap or (
                    d < 0.8 * r_cap + step_len
                    and abs(p - geometry.nearest_on_segment(p, z, z_new)) < 0.8 * r_cap
                ):
                    append(p)
                    return pts, idx, sag

            # closure: segment passes the start after having left it.  The
            # chord from z to start replaces the step; its tangent-triangle
            # bound comes from the tangents at z and at start.  A chord
            # longer than a step may move arg f by more than MAX_ARG_STEP, so
            # it is then split at corrected midpoints (``split_chord``); the
            # triangle of the whole chord holds every piece.
            if (
                may_close
                and abs(z_new - start) < 2.0 * step_len
                and arc_len > 6.0 * step_len
                and n_pts > 8
                and abs(start - geometry.nearest_on_segment(start, z, z_new)) < 0.75 * step_len
            ):
                close_turn = abs(_turn(t, t_start))
                sag = max(sag, 0.5 * abs(start - z) * tan(0.5 * close_turn))
                pts[-1:-1] = self.split_chord(z, r, start, r0)
                pts[-1] = start
                return pts, None, sag

            bend = signed_turn / step_len
            z, t, r = z_new, t_new, r_new
            t_re, t_im = n_re, n_im

        raise TraceError(f"arc exceeded {MAX_ARC_POINTS} points at level {self.eps}")

    def midpoint(self, a: complex, b: complex) -> tuple[complex, complex]:
        """The midpoint of the chord from a to b corrected onto the level, and
        f'/f there: the one way a chord is split, so the new point carries the
        corrector's residual certificate like every march point."""
        mid, _, ld = self.correct(0.5 * (a + b))
        if mid is None:
            raise TraceError(f"could not split the chord from {a} to {b} on level {self.eps}")
        return mid, ld

    def split_chord(self, a: complex, r_a: float, b: complex, r_b: float) -> list[complex]:
        """The corrected midpoints (:meth:`midpoint`), in order from a to b,
        that cut the chord from a to b into pieces each of which moves arg f
        by at most MAX_ARG_STEP, as |f'/f| at its ends (r_a and r_b)
        predicts it; none where the whole chord does."""
        if abs(b - a) * max(r_a, r_b) <= MAX_ARG_STEP:
            return []
        if abs(b - a) < self.h_min:
            raise TraceError(f"could not split the chord from {a} to {b} on level {self.eps} below h_min")
        mid, ld = self.midpoint(a, b)
        r = abs(ld)
        return self.split_chord(a, r_a, mid, r) + [mid] + self.split_chord(mid, r, b, r_b)

    def launch_from_vertex(self, v_idx: int, ray_idx: int):
        v = self.vertices[v_idx]
        theta = v.rays[ray_idx]
        z = v.position + v.r_cap * complex(math.cos(theta), math.sin(theta))
        z_corr, _, ld = self.correct(z)
        if z_corr is None:
            raise TraceError(
                f"could not launch from vertex {v.position} along ray {theta:.4f}"
            )
        if v.ray_slot(z_corr) != ray_idx:
            raise TraceError(
                f"departure from vertex {v.position} drifted off ray {theta:.4f}"
            )
        return z_corr, ld

    def arrival_ray(self, v_idx: int, z_outside: complex) -> int:
        v = self.vertices[v_idx]
        k = v.ray_slot(z_outside)
        if k is None:
            raise TraceError(f"arrival at vertex {v.position} from {z_outside} drifted off its rays")
        return k


def _turn(a: complex, b: complex) -> float:
    """Signed angle from the unit vector a to the unit vector b, in (-pi, pi]."""
    return math.atan2(a.real * b.imag - a.imag * b.real, a.real * b.real + a.imag * b.imag)


def _tangent(ld: complex, z: complex) -> complex:
    """Unit tangent i * conj(f'/f) at z, along increasing arg f."""
    if ld == 0 or is_inf(ld):
        raise TraceError(f"vanishing level-set gradient at {z}")
    t = 1j * ld.conjugate()
    return t / abs(t)


def _domain_scale(f: RationalFn, extra_points=()) -> float:
    """``f.scale`` widened by the moduli of the extra points and their
    distances to the distinguished points and to each other."""
    e = np.array(extra_points, dtype=complex)
    if not e.size:
        return f.scale
    p = np.concatenate([np.array(f.distinguished_points(), dtype=complex), e])
    return max(f.scale, float(np.max(np.abs(e))), float(np.max(np.abs(e[:, None] - p[None, :]))))


# ---------------------------------------------------------------------------
# public operations


def trace_component(f: RationalFn, eps: float, seed: complex) -> LevelCurveComponent:
    """Trace the full component of E_{f, eps} through (the correction of) seed."""
    _check_level(f, eps)
    return _trace_component_with(_LevelTracer(f, eps, _domain_scale(f, [seed])), seed)


def _trace_component_with(tracer: _LevelTracer, seed: complex) -> LevelCurveComponent:
    """The component of the tracer's level through (the correction of) seed.

    A component without vertices is one closed arc, marched from the seed.
    A component with vertices is a balanced directed graph: each vertex of
    multiplicity m has m+1 outgoing and m+1 arriving rays, so a sweep along
    the outgoing rays from any one of its vertices reaches every arc.  Arcs
    between vertices are launched only from vertices: a seed inside a
    capture ball starts the sweep from that vertex, and a seed whose march
    reaches a vertex drops that march and starts the sweep there.  So, for a
    given tracer, a branched component's polylines do not depend on the
    seed, and the tracer is never changed by a trace.
    """
    eps = tracer.eps
    z0, _, ld0 = tracer.correct(seed)
    if z0 is None:
        raise TraceError(f"seed {seed} did not converge onto level {eps}")

    # a seed inside a capture ball is re-launched from that vertex instead
    start_vertex = None
    for idx, v in enumerate(tracer.vertices):
        if abs(z0 - v.position) < 2.0 * v.r_cap:
            start_vertex = idx
            break
    if start_vertex is None:
        pts, start_vertex, sag = tracer.march(z0, ld0)
        if start_vertex is None:
            return LevelCurveComponent([TracedArc(np.array(pts, dtype=complex), sag, closed=True)], [], eps)

    # breadth-first sweep over the outgoing vertex rays; each traced arc
    # fills its departure and arrival slots, and every vertex has m+1 of each
    arcs_raw: list[tuple[list[complex], int, int, int, int, float]] = []
    used_vertices = [start_vertex]
    filled: set[tuple[int, int]] = set()
    qi = 0
    while qi < len(used_vertices):
        v_idx = used_vertices[qi]
        qi += 1
        v = tracer.vertices[v_idx]
        for ray_idx in range(len(v.rays)):
            if (v_idx, ray_idx) in filled:
                continue
            z_start, ld = tracer.launch_from_vertex(v_idx, ray_idx)
            t = _tangent(ld, z_start)
            radial = complex(math.cos(v.rays[ray_idx]), math.sin(v.rays[ray_idx]))
            dot = t.real * radial.real + t.imag * radial.imag
            if abs(dot) < 0.5:
                raise TraceError(
                    f"ambiguous march direction on ray {ray_idx} at vertex {v.position}"
                )
            if dot < 0:
                continue  # arg f increases into the vertex: this is an arrival slot
            filled.add((v_idx, ray_idx))
            pts, end, sag = tracer.march(z_start, ld, origin_vertex=v_idx)
            if end is None:
                raise TraceError("arc from a vertex closed without reaching a vertex")
            arr_ray = tracer.arrival_ray(end, pts[-2])
            if (end, arr_ray) in filled and not (end == v_idx and arr_ray == ray_idx):
                raise TraceError(
                    f"arrival ray {arr_ray} at vertex {tracer.vertices[end].position} already used"
                )
            filled.add((end, arr_ray))
            # orientation: stored points run along increasing arg f, and a
            # launched march already does; prepend the vertex itself
            arcs_raw.append(([v.position] + pts, v_idx, ray_idx, end, arr_ray, sag))
            if end not in used_vertices:
                used_vertices.append(end)

    for v_idx in used_vertices:
        v = tracer.vertices[v_idx]
        if any((v_idx, ray_idx) not in filled for ray_idx in range(len(v.rays))):
            raise TraceError(
                f"vertex {v.position} has unmatched rays after the sweep; "
                "an incident arc was not traced"
            )

    # renumber component vertices deterministically
    used_sorted = sorted(
        used_vertices,
        key=lambda i: (
            round(tracer.vertices[i].position.real, 12),
            round(tracer.vertices[i].position.imag, 12),
        ),
    )
    remap = {old: new for new, old in enumerate(used_sorted)}
    vertices = [
        (tracer.vertices[i].position, tracer.vertices[i].mult) for i in used_sorted
    ]

    arcs = [
        TracedArc(np.array(pts, dtype=complex), sag, remap[a], remap[b], start_ray=ka, end_ray=kb)
        for pts, a, ka, b, kb, sag in arcs_raw
    ]
    arcs.sort(key=lambda arc: (arc.start_vertex, arc.start_ray))

    return LevelCurveComponent(arcs, vertices, eps)


def _critical_curve(f: RationalFn, i: int) -> LevelCurveComponent | None:
    """The component through critical point i of f, at that point's level.

    Traced once per i and kept in ``f.critical_curves``, so every caller
    gets the same object; its point arrays are read-only.  None where
    0 or inf lies in the critical point's window (``f.critical_windows``):
    it may be a zero or a pole.  A critical point that is a vertex of the
    curve of an earlier critical point gets that curve; otherwise its curve
    is traced from the vertex at its level |f(c)| and scale ``f.scale``.  A
    curve holds the point as a vertex only if ``f.critical_on_level`` holds
    at the curve's level, which lies in the earlier point's window, so the
    entry depends on f and i, not on the order of the calls.
    """
    if i not in f.critical_curves:
        f.critical_curves[i] = _trace_critical_curve(f, i)
    return f.critical_curves[i]


def _trace_critical_curve(f: RationalFn, i: int) -> LevelCurveComponent | None:
    c = f.critical_points[i][0]
    lo, hi = f.critical_windows[i]
    if lo == 0.0 or hi == math.inf:
        return None  # 0 or inf lies in the window
    for j, (lo_j, hi_j) in enumerate(f.critical_windows[:i]):
        # curve j's level lies in j's window: only a window meeting i's can hold it
        if lo_j <= hi and lo <= hi_j:
            comp = _critical_curve(f, j)
            if comp is not None and f.critical_on_level(i, comp.level):
                if any(c == v for v, _ in comp.vertices):
                    return comp
    # c lies in its own capture ball, so the trace launches from the vertex
    level = f.abs_eval(c)
    comp = _trace_component_with(_LevelTracer(f, level, f.scale), c)
    if not any(c == v for v, _ in comp.vertices):
        raise TraceError(f"critical curve through {c} did not capture it as a vertex")
    for arc in comp.arcs:
        arc.points.flags.writeable = False
    comp._fn = weakref.ref(f)
    return comp


def _refined(comp: LevelCurveComponent) -> LevelCurveComponent | None:
    """:func:`_refine` of a stored critical curve, whose function it reaches
    weakly; None where comp is no stored critical curve or f is gone."""
    f = comp._fn() if comp._fn is not None else None
    if f is None:
        return None
    # a critical curve is traced at f.scale, which only the tracer's refusals read
    return _refine(_LevelTracer(f, comp.level, f.scale), comp)


def _refine(tracer: _LevelTracer, comp: LevelCurveComponent) -> LevelCurveComponent:
    """A copy of comp, traced at the tracer's level, with every march chord
    split at its corrected midpoint (``_LevelTracer.midpoint``).

    The copy keeps comp's vertices, its arcs in order with their vertex ids,
    ray slots and ``closed`` flags, and the segments at a vertex, which are
    not march steps.  Each arc's ``sag`` is the largest tangent-triangle bound
    (see :class:`TracedArc`) of its new chords, from f'/f at their ends: a
    split halves a chord and about halves its turn, so the bound falls by
    about 4.  comp itself is left as it is, since its ``index`` and
    ``embedding`` are cached from its points.
    """
    log_derivative = tracer.f.log_derivative
    arcs = []
    for arc in comp.arcs:
        pts = arc.points
        # the march points: all of a closed arc, the others' without their vertices
        lo, hi = (0, len(pts)) if arc.closed else (1, len(pts) - 1)
        march = pts[lo:hi].tolist()
        lds = [log_derivative(z) for z in march]
        zs, zs_ld = [march[0]], [lds[0]]
        for a, b, ld_b in zip(march, march[1:], lds[1:]):
            mid, ld = tracer.midpoint(a, b)
            zs += (mid, b)
            zs_ld += (ld, ld_b)
        z = np.array(zs)
        # the tangent i * conj(f'/f) at each point; the turn of a chord is the
        # angle between the tangents at its ends
        t = 1j * np.conj(np.array(zs_ld))
        turn = np.abs(np.angle(t[1:] * np.conj(t[:-1])))
        sag = float(np.max(0.5 * np.abs(np.diff(z)) * np.tan(0.5 * turn)))
        points = np.concatenate([pts[:lo], z, pts[hi:]])
        arcs.append(TracedArc(points, sag, arc.start_vertex, arc.end_vertex, arc.closed, arc.start_ray, arc.end_ray))
    fine = LevelCurveComponent(arcs, comp.vertices, comp.level)
    fine._fn = comp._fn
    return fine


def find_seeds(f: RationalFn, eps: float) -> list[complex]:
    """Seed points on E_{f, eps} from one ray cast from every zero and pole.

    Every bounded face of a component holds a zero or a pole, so one ray
    from each zero/pole crosses every component in the plane.  The rays of
    all anchors are searched together (``_ray_crossings``), each sampled from
    its anchor itself, where |f| is 0 or inf, out to 1.6 times the width of
    the seed box, past the disk that holds the level set.  Every in-domain
    crossing, narrowed to 2^-50 of its sample interval, is a seed, in anchor
    and distance order.
    The tracer corrects each seed it starts from.  Duplicates are fine;
    tracing deduplicates.  The seeds, which may be none, are not checked for
    completeness here: :func:`trace_level_set` certifies what it traces.
    """
    _check_level(f, eps)
    reach = 2.0 * _seed_box(f, eps)[2]

    anchors = [z for z, _ in f.zeros] + [z for z, _ in f.poles]
    ts = np.concatenate([[0.0], np.geomspace(1e-6 * reach, 1.6 * reach, 400)])
    crossings = map(complex, _ray_crossings(f, eps, anchors, ts))
    return [z for z in crossings if f.in_domain(z)]


def _check_level(f: RationalFn, eps: float):
    if eps <= 0 or not math.isfinite(eps):
        raise TraceError(f"eps must be in (0, inf), got {eps}")
    if f.disk and abs(eps - 1.0) < 1e-6:
        raise TraceError("eps coincides with |f| on the unit circle")


def _seed_box(f: RationalFn, eps: float):
    """The box (x0, y0, x1, y1) in which :func:`find_seeds` casts its rays.

    On the unit disk it is the disk's box.  On the plane it is the square
    about a disk |z| <= R that holds the whole level set: with f = n/d, a
    point where |f| = eps is a root of n - eps w d for some |w| = 1 (of
    eps d - w n when deg n < deg d), whose coefficients c_0, ..., c_N have
    |c_k| <= B_k = |n_k| + eps |d_k| and |c_N| >= L = | |n_N| - eps |d_N| |.
    Fujiwara's bound (Tohoku Math. J. 10, 1916), R = 2 max_k (B_k / L)^(1 /
    (N - k)) with B_0 halved, is raised by 1e-12 relative and then to a power
    of two, so that the levels of f share a few disks and their ray samples.
    Refused: L = 0 within rounding, where eps is |f(inf)| and the level set
    is unbounded, and an R whose rays would leave the floats.
    """
    if f.disk:
        return (-1.0, -1.0, 1.0, 1.0)
    n = [abs(c) for c in f.numerator.coeffs.tolist()]
    d = [eps * abs(c) for c in f.denominator.coeffs.tolist()]
    if len(n) < len(d):
        n, d = d, n
    d += [0.0] * (len(n) - len(d))
    # L lowered by the rounding of n[-1] and d[-1], 2 ulps each; nan, refused below, on overflow
    lead = abs(n[-1] - d[-1]) - 2.0**-50 * (n[-1] + d[-1])
    if lead <= 0.0:
        raise TraceError(f"level {eps!r} is |f(inf)| within rounding: the level set is unbounded")
    deg = len(n) - 1
    bound = 2 * (1 + 1e-12) * max(((n[k] + d[k]) / (lead if k else 2 * lead)) ** (1 / (deg - k)) for k in range(deg))
    # the rays of find_seeds reach 3.2 R, which must stay finite
    if not bound <= 2.0**1021:
        raise TraceError(f"level {eps!r} has no finite seed disk: its root bound is {bound:.3g}")
    r = math.ldexp(1.0, math.frexp(bound)[1])
    return (-r, -r, r, r)


# the angle of every seed ray: off the axes and the diagonals, on which
# symmetric inputs such as z^n - 1 line up their zeros and critical points
_RAY_ANGLE = TWO_PI * 0.21 / 8
# each round of the ray search splits every bracket into _RAY_SPLIT parts in
# one grid evaluation; _RAY_ROUNDS rounds shrink it by 32^10 = 2^50.  Few,
# wide rounds: the cost of a round is mostly numpy's fixed cost per call
_RAY_SPLIT = 32
_RAY_ROUNDS = 10


def _ray_crossings(f, eps, anchors, ts):
    """Crossings of |f| = eps on the rays p + t e^(i _RAY_ANGLE), t in ts.

    One ray per anchor p.  Sign changes of |f| - eps between consecutive
    samples are bracketed with one grid evaluation.  Then _RAY_ROUNDS rounds
    shrink every bracket together: one grid evaluation at the _RAY_SPLIT - 1
    interior points of each splits it into _RAY_SPLIT equal parts, and the
    part ending at the first sign change from the lo end is kept, or the last
    part where there is none.  The crossing is the midpoint of the last
    bracket, 2^-50 of a sample interval wide, as after 50 halvings.  Returns
    the points, in anchor, then distance order.  The first samples depend on
    f, not on eps: they are kept in ``f.ray_samples``, keyed by the anchors
    and ts, so the levels of f that share a seed box sample them once.
    """
    origins = np.asarray(anchors, dtype=complex)
    direction = np.exp(1j * _RAY_ANGLE)
    key = (origins.tobytes(), ts.tobytes())
    vals = f.ray_samples.get(key)
    # far out on a ray |f| may pass the floats: an overflowed sample reads
    # inf, on the far side of eps, or nan, which has no sign, so it neither
    # makes nor breaks a bracket
    if vals is None:
        with np.errstate(over="ignore", invalid="ignore"):
            vals = f.ray_samples[key] = f.abs_grid(origins[:, None] + direction * ts)
    sgn = np.sign(vals - eps)
    a, i = np.nonzero(sgn[:, :-1] * sgn[:, 1:] < 0)
    side = sgn[a, i, None]
    origin = origins[a, None]
    lo, hi = ts[i, None], ts[i + 1, None]
    row = np.arange(a.size)[:, None]
    split = np.arange(1, _RAY_SPLIT) / _RAY_SPLIT
    for _ in range(_RAY_ROUNDS):
        # hi - lo is exact where lo = 0 or hi <= 2 lo (Sterbenz): the first
        # sample interval [0, t1] is the one, every other the other, and each
        # part kept stays so.  The points thus stay in [lo, hi] and in order
        t = np.concatenate([lo, lo + (hi - lo) * split, hi], axis=1)
        with np.errstate(over="ignore", invalid="ignore"):
            same = np.sign(f.abs_grid(origin + t[:, 1:-1] * direction) - eps) == side
        # the count of leading points on the lo side of eps: the kept part
        # starts at point n and ends at the first point past the change
        n = np.cumprod(same, axis=1).sum(axis=1, keepdims=True)
        lo, hi = t[row, n], t[row, n + 1]
    return (origin + 0.5 * (lo + hi) * direction)[:, 0]


def trace_level_set(f: RationalFn, eps: float) -> list[LevelCurveComponent]:
    """All components of E_{f, eps} in the domain of f, each traced once.

    The result is certified by the argument principle (:func:`_certify_turn`):
    the arcs must turn arg f by 2*pi times the zeros, or the poles, that the
    domain holds.  The components are gathered in one pass:

    - the stored curve (``_critical_curve``) of every critical point on the
      level (``f.critical_on_level``), the same objects the critical set
      holds, each with its own ``level``;
    - if their turn is short, the components through the seeds of
      :func:`find_seeds`, traced by one tracer at the scale of the seeds.
      Seeds on a component already gathered are dropped.

    A turn beyond the count means a component traced twice, and a turn short
    of it a component missed; either raises :class:`TraceError`.  The count
    is complete on the plane and on the unit disk.  Where it is 0 and no seed
    is found, the level set is empty: ``[]``.
    """
    _check_level(f, eps)
    components: list[LevelCurveComponent] = []
    for i in range(len(f.critical_points)):
        if f.critical_on_level(i, eps):
            comp = _critical_curve(f, i)
            if all(comp is not d for d in components):
                components.append(comp)
    if not (components and _certify_turn(f, eps, components, last=False)):
        seeds = find_seeds(f, eps)
        if seeds:
            components += _trace_seeds(_LevelTracer(f, eps, _domain_scale(f, seeds)), seeds, components)
        _certify_turn(f, eps, components)
    components.sort(key=lambda c: _lower_left(c.points))
    return components


def _require_curve(components: list) -> list:
    """``components``; an empty level set has no curve to measure or draw."""
    if not components:
        raise TraceError("the level set is empty: there is no curve to measure or draw")
    return components


def _lower_left(pts: np.ndarray) -> tuple[float, float]:
    """The sort key of a component: the corner of its bounding box, rounded."""
    return round(float(np.min(pts.real)), 9), round(float(np.min(pts.imag)), 9)


def _trace_seeds(tracer: _LevelTracer, seeds, traced=()) -> list[LevelCurveComponent]:
    """One new component per seed, in seed order, skipping the seeds that lie
    on a component of ``traced`` or on one traced from an earlier seed."""
    pending = list(seeds)
    for comp in traced:
        pending = _off(comp, pending)
    components: list[LevelCurveComponent] = []
    while pending:
        components.append(_trace_component_with(tracer, pending[0]))
        pending = _off(components[-1], pending[1:])
    return components


def _off(comp: LevelCurveComponent, zs) -> list[complex]:
    """The points of zs that do not lie on comp (see :func:`_near`)."""
    return [z for z, hit in zip(zs, _near(comp, zs)) if not hit]


def _certify_turn(f: RationalFn, eps: float, components, last: bool = True) -> bool:
    """Raise unless the arcs turn arg f by 2*pi times the domain's zeros or poles.

    Each arc runs along increasing arg f, so {|f| < eps} lies on its left and
    the arcs together are the oriented boundary of that set in the domain.
    When |f| > eps on the domain's outer edge the set is bounded and holds
    every zero, and the argument principle makes the turn 2*pi times the
    zeros; otherwise the arcs bound {|f| > eps}, which holds every pole, and
    the turn is 2*pi times the poles.  The modulus principles give the side:
    |f| = 1 on the unit circle, and on the plane |f| tends to inf, 0 or
    |f(inf)| as deg(num) - deg(den) is positive, negative or zero.  Every
    increment must lie in (0, pi), so that the sum of the increments is the
    turn.

    Returns True when the turn is complete.  A turn short of the count
    returns False unless ``last``, when it raises too: the components found
    so far may be a subset of the level set.  A turn beyond the count always
    raises, since it means a component was traced twice.
    """
    num, den = f.numerator, f.denominator
    gap = num.degree - den.degree
    above = eps < 1.0 if f.disk else gap > 0 or (gap == 0 and abs(num.coeffs[-1] / den.coeffs[-1]) > eps)
    want = sum(m for _, m in (f.zeros if above else f.poles))
    # one evaluation for every arc not yet counted, sliced per arc
    fresh = [arc for comp in components for arc in comp.arcs if arc.turn is None]
    if fresh:
        vals = f.eval_grid(np.concatenate([arc.points for arc in fresh]))
        ends = np.cumsum([arc.points.size for arc in fresh]).tolist()
        for arc, start, end in zip(fresh, [0] + ends, ends):
            v = vals[start:end]
            inc = np.angle(v[1:] / v[:-1])
            if not np.all((inc > 0.0) & (inc < math.pi)):
                raise TraceError(f"arg f is not increasing in steps below pi along an arc at level {eps}")
            arc.turn = float(np.sum(inc))
    turn = 0.0
    for comp in components:
        for arc in comp.arcs:
            turn += arc.turn
    if abs(turn - TWO_PI * want) <= WINDING_TOL:
        return True
    if last or turn > TWO_PI * want:
        # a counted zero with computed |f| >= eps (pole, <= eps) has no sample inside its loop
        for z, _ in f.zeros if above else f.poles:
            av = f.abs_eval(z)
            if turn < TWO_PI * want and (av >= eps if above else av <= eps):
                raise TraceError(
                    f"the level set at {eps} is short of a loop about the {'zero' if above else 'pole'} {z}, "
                    f"where the computed |f| is {av!r}: double precision cannot resolve it"
                )
        raise TraceError(
            f"the level set at {eps} turns arg f by {turn / TWO_PI:.6f} turns, but the domain "
            f"holds {want} {'zeros' if above else 'poles'}: a component is missing or traced twice"
        )
    return False


def _near(comp: LevelCurveComponent, zs) -> np.ndarray:
    """Which points of zs lie within twice comp's chord sag, i.e. on it already.

    Every point of comp's curve lies within the sag of its polyline; the
    factor 2 is margin.
    """
    if not len(zs):
        return np.zeros(0, dtype=bool)
    gap = max(2.0 * comp.sag, 1e-12)
    return comp.index.distances(zs, upto=gap) < gap


# ---------------------------------------------------------------------------
# export helpers (shared with the CLI)


def components_to_csv_rows(components) -> list[tuple[int, int, float, float]]:
    rows = []
    for ci, comp in enumerate(components):
        for ai, arc in enumerate(comp.arcs):
            for p in arc.points:
                rows.append((ci, ai, float(p.real), float(p.imag)))
    return rows


def component_to_dict(comp: LevelCurveComponent) -> dict:
    return {
        "level": comp.level,
        "vertices": [
            {"re": c.real, "im": c.imag, "mult": m} for c, m in comp.vertices
        ],
        "arcs": [
            {
                "start_vertex": a.start_vertex,
                "end_vertex": a.end_vertex,
                "closed": a.closed,
                "points": [[p.real, p.imag] for p in a.points],
            }
            for a in comp.arcs
        ],
    }
