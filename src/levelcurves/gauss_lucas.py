"""Gauss-Lucas verification and the level-curve product-inequality replay.

check_gauss_lucas certifies that every critical point of a polynomial lies
inside the convex hull of its zeros, with a signed-distance tolerance since
roots are floating point.  A violation is a hard failure, not a report row.

replay_level_curve_argument re-enacts the mechanics used to prove the
containment: normalize so the declared critical point sits at x > 1 with all
declared zeros strictly inside the unit disk, pick two points at the same
height s with 1 < Re(z1) < Re(z2), and show prod |z1 - w_i| < prod |z2 - w_i|
strictly.  On a genuine level curve such a pair would force equal moduli, so
a strict inequality convicts corrupted input data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import geometry
from .config import DEFAULT_TOLS
from .errors import CertificateError
from .funcspace import Polynomial, RationalFn
from .tracer import trace_component

# cross products below COLLINEAR_TOL * scale^2 count as collinear in the hull
COLLINEAR_TOL = 1e-12
# c must clear the hull by NORMALIZE_MARGIN * max(1, max|zero|) to be normalized
NORMALIZE_MARGIN = 1e-6
# declared zeros of a corrupted instance
CORRUPTED_ZEROS = 5


@dataclass
class HullReport:
    zeros: list[complex]
    hull: list[complex]  # counterclockwise, minimal; may degenerate to 1-2 points
    critical_points: list[complex]
    max_signed_distance: float

    def to_dict(self) -> dict:
        return {
            "zeros": [[z.real, z.imag] for z in self.zeros],
            "hull": [[z.real, z.imag] for z in self.hull],
            "critical_points": [[z.real, z.imag] for z in self.critical_points],
            "max_signed_distance": self.max_signed_distance,
        }


def convex_hull(points) -> list[complex]:
    """Monotone-chain hull, counterclockwise without collinear repeats.

    Degenerate inputs collapse to a single point or a two-point segment.
    """
    pts = sorted(set((round(p.real, 14), round(p.imag, 14)) for p in points))
    pts = [complex(x, y) for x, y in pts]
    if len(pts) <= 2:
        return pts
    scale = max(abs(p) for p in pts) + 1.0

    def cross(o, a, b):
        return (a - o).real * (b - o).imag - (a - o).imag * (b - o).real

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and cross(out[-2], out[-1], p) <= COLLINEAR_TOL * scale * scale:
                out.pop()
            out.append(p)
        return out

    lower = half(pts)
    upper = half(reversed(pts))
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        # collinear zero set: keep the two extreme points
        return [pts[0], pts[-1]] if len(pts) > 1 else pts
    return hull


def hull_signed_distance(hull: list[complex], z: complex) -> float:
    """Signed distance of z to the hull: negative strictly inside.

    Full-dimensional hulls use the max of outward half-plane distances.
    Degenerate hulls (point or segment) have empty interior, so the value is
    the plain Euclidean distance (always >= 0).
    """
    if len(hull) < 3:
        return float(geometry.SegmentIndex([hull]).distances([z])[0])
    best = -math.inf
    n = len(hull)
    for i in range(n):
        a, b = hull[i], hull[(i + 1) % n]
        edge = b - a
        nrm = abs(edge)
        # outward normal of a CCW edge points right of the edge direction
        outward = complex(edge.imag, -edge.real) / nrm
        d = (z - a).real * outward.real + (z - a).imag * outward.imag
        best = max(best, d)
    return best


def check_gauss_lucas(p: Polynomial) -> HullReport:
    """Certify hull containment of the critical points of p.

    Raises :class:`CertificateError` if any critical point sits outside the
    hull of the zeros beyond hull_tol * scale.
    """
    if not isinstance(p.degree, int) or p.degree < 2:
        raise ValueError("polynomial degree must be at least 2")
    zeros = [z for z, m in p.roots() for _ in range(m)]
    crit = [z for z, m in p.deriv().roots() for _ in range(m)]
    hull = convex_hull(zeros)
    scale = max(1.0, max(abs(z) for z in zeros))
    worst = max(hull_signed_distance(hull, c) for c in crit)
    if worst > DEFAULT_TOLS.hull_tol * scale:
        raise CertificateError(
            f"critical point escapes the zero hull by {worst:.3e} "
            f"(gate {DEFAULT_TOLS.hull_tol * scale:.3e})"
        )
    return HullReport(zeros, hull, crit, worst)


# ---------------------------------------------------------------------------
# proof-mechanics replay


@dataclass
class ReplayWitness:
    applicable: bool
    reason: str = ""
    s: float = 0.0
    z1: complex = 0j
    z2: complex = 0j
    product1: float = 0.0
    product2: float = 0.0
    margin: float = 0.0
    pair_source: str = ""  # "curve" when both points sit on supplied curve data
    normalized_zeros: list[complex] = field(default_factory=list)
    normalized_c: complex = 0j

    @property
    def inequality_strict(self) -> bool:
        return self.applicable and self.product1 < self.product2

    def to_dict(self) -> dict:
        return {
            "applicable": self.applicable,
            "reason": self.reason,
            "s": self.s,
            "z1": [self.z1.real, self.z1.imag],
            "z2": [self.z2.real, self.z2.imag],
            "product1": self.product1,
            "product2": self.product2,
            "margin": self.margin,
            "pair_source": self.pair_source,
        }


def _normalize_outside_hull(zeros: list[complex], c: complex):
    """Affine map sending the zeros strictly into the unit disk and c to (1, inf).

    Exists exactly when c is outside the hull: separate c from the hull by
    the perpendicular bisector line at the nearest hull point, then fit the
    hull-side half-plane slab into a large disk tangent to that line.
    Returns (map, inverse) as coefficient pairs for w -> (w - shift) * rot / s.
    """
    hull = convex_hull(zeros)
    d = hull_signed_distance(hull, c)
    if d <= NORMALIZE_MARGIN * max(1.0, max(abs(z) for z in zeros)):
        return None

    # nearest hull point
    if len(hull) == 1:
        q = hull[0]
    elif len(hull) == 2:
        q = geometry.nearest_on_segment(c, hull[0], hull[1])
    else:
        q = min(
            (geometry.nearest_on_segment(c, hull[i], hull[(i + 1) % len(hull)]) for i in range(len(hull))),
            key=lambda p: abs(c - p),
        )
    d_eu = abs(c - q)
    u = (c - q) / d_eu
    mid = q + 0.5 * d_eu * u

    # frame where the separating line is the imaginary axis and c sits at +d/2
    zs = [(z - mid) * u.conjugate() for z in zeros]
    cc = (c - mid) * u.conjugate()
    half_gap = cc.real  # = d_eu / 2
    spread = max(abs(z) for z in zs)
    radius = ((half_gap + spread) ** 2 + spread**2) / d_eu + 2.0 * half_gap
    scale = radius * (1.0 + half_gap / (8.0 * radius))

    def fwd(w: complex) -> complex:
        return ((w - mid) * u.conjugate() + radius) / scale

    zs_n = [fwd(z) for z in zeros]
    c_n = fwd(c)
    if any(abs(z) >= 1.0 for z in zs_n) or not (c_n.imag == 0.0 or abs(c_n.imag) < 1e-12) or c_n.real <= 1.0:
        return None
    return fwd, zs_n, complex(c_n.real, 0.0)


def _abs_product(zeros: list[complex], z: complex) -> float:
    return float(np.prod([abs(z - w) for w in zeros]))


def replay_level_curve_argument(p: Polynomial, c: complex, curve_points=None) -> ReplayWitness:
    """Replay the product-inequality step of the hull-containment proof.

    For a genuine polynomial (c inside the hull) the answer is the
    "not applicable" marker.  Otherwise the declared-critical input is
    normalized, a level curve through c is traced (or ``curve_points`` are
    mapped through the same normalization), and two points at a common
    height right of Re = 1 exhibit the strict product inequality.
    """
    zeros = [z for z, m in p.roots() for _ in range(m)]
    norm = _normalize_outside_hull(zeros, c)
    if norm is None:
        return ReplayWitness(False, reason="critical point inside hull; theorem satisfied")
    fwd, zs_n, c_n = norm

    if curve_points is not None:
        pts = fwd(np.asarray(curve_points, dtype=complex).ravel())
    else:
        p_n = Polynomial.from_roots(zs_n)
        fn = RationalFn(p_n)
        eps = abs(p_n(c_n))
        comp = trace_component(fn, eps, c_n)
        pts = comp.points

    pair = next(_replay_pairs(pts, c_n), None)
    if pair is None:
        raise CertificateError("replay found no admissible height; curve data too sparse")
    height, z1, z2, source = pair
    p1 = _abs_product(zs_n, z1)
    p2 = _abs_product(zs_n, z2)
    return ReplayWitness(
        True,
        s=height,
        z1=z1,
        z2=z2,
        product1=p1,
        product2=p2,
        margin=p2 - p1,
        pair_source=source,
        normalized_zeros=zs_n,
        normalized_c=c_n,
    )


def _replay_pairs(pts: np.ndarray, c_n: complex):
    """(height, z1, z2, source) candidates for the replay, in search order.

    First the same-height pairs on the curve with Re > 1 ("curve"); then,
    with no genuine pair, the on-curve crossing nearest c stepped right along
    its height, the direction in which the product strictly grows ("ray").
    """
    y_lo = float(np.min(pts.imag))
    y_hi = float(np.max(pts.imag))
    for s in np.linspace(0.08, 0.9, 24) * max(abs(y_lo), abs(y_hi), 1e-6):
        for sign in (+1.0, -1.0):
            height = sign * s
            if not (y_lo < height < y_hi) or height == 0.0:
                continue
            crossings = [z for z in geometry.horizontal_crossings(pts, height) if z.real > 1.0]
            if len(crossings) >= 2:
                crossings.sort(key=lambda z: z.real)
                z1, z2 = crossings[0], crossings[-1]
                if z2.real - z1.real < 1e-9:
                    continue
                yield height, z1, z2, "curve"
    for s in np.linspace(0.02, 0.5, 16) * max(abs(c_n.real) - 1.0, 1e-3):
        for sign in (+1.0, -1.0):
            height = sign * s
            crossings = [z for z in geometry.horizontal_crossings(pts, height) if z.real > 1.0]
            if crossings:
                z1 = min(crossings, key=lambda z: abs(z - c_n))
                yield height, z1, z1 + 0.5 * max(z1.real - 1.0, 0.5), "ray"


def corrupted_instance(rng: np.random.Generator):
    """A deliberately inconsistent (polynomial, declared critical point, curve).

    The declared zeros live in the unit disk while the supplied "level curve"
    is traced from a different polynomial with a zero pair right of Re = 1,
    so same-height curve points with Re > 1 exist and the product inequality
    convicts the instance.
    """
    r = rng.uniform(0.15, 0.75, CORRUPTED_ZEROS)
    th = rng.uniform(0.0, 2.0 * math.pi, CORRUPTED_ZEROS)
    declared = [complex(a * math.cos(b), a * math.sin(b)) for a, b in zip(r, th)]
    p = Polynomial.from_roots(declared)

    spread = rng.uniform(0.2, 0.45)
    center = complex(rng.uniform(1.6, 2.0), 0.0)
    q = Polynomial.from_roots([center + 1j * spread, center - 1j * spread])
    c = center + complex(rng.uniform(0.35, 0.6), 0.0)
    comp = trace_component(RationalFn(q), abs(q(c)), c)
    return p, c, comp.points
