"""Gauss-Lucas verification and the level-curve product-inequality replay.

check_gauss_lucas certifies that every critical point of a polynomial lies
inside the convex hull of its zeros, with a signed-distance tolerance beyond
the radii of the certified root disks.  A violation is a hard failure, not a
report row.

replay_level_curve_argument re-enacts the mechanics used to prove the
containment: normalize so the declared critical point sits at x > 1 with all
declared zeros strictly inside the unit disk, take two points of the supplied
curve at the same height s with 1 < Re(z1) < Re(z2), and show
prod |z1 - w_i| < prod |z2 - w_i| strictly.  The search for s is complete on
the supplied polyline.  On a genuine level curve such a pair would force
equal moduli, so a genuine curve has none, and a strict inequality convicts
corrupted input data.
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

    Each root is known only to its certified disk (``RootCluster.radius``),
    so a critical cluster may sit outside the hull of the zero centers by its
    radius plus the largest zero radius.  Raises :class:`CertificateError` if
    one sits farther out than that by more than hull_tol * scale.
    """
    if not isinstance(p.degree, int) or p.degree < 2:
        raise ValueError("polynomial degree must be at least 2")
    zero_clusters, crit_clusters = p.roots(), p.deriv().roots()
    zeros = [z for z, m in zero_clusters for _ in range(m)]
    crit = [z for z, m in crit_clusters for _ in range(m)]
    hull = convex_hull(zeros)
    scale = max(1.0, max(abs(z) for z in zeros))
    spread = max(z.radius for z in zero_clusters)
    dist = [hull_signed_distance(hull, c[0]) for c in crit_clusters]
    excess = max(d - c.radius - spread for d, c in zip(dist, crit_clusters))
    if excess > DEFAULT_TOLS.hull_tol * scale:
        raise CertificateError(
            f"critical point escapes the zero hull by {excess:.3e} beyond the cluster radii "
            f"(gate {DEFAULT_TOLS.hull_tol * scale:.3e})"
        )
    return HullReport(zeros, hull, crit, max(dist))


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
        }


def _normalize_outside_hull(zeros: list[complex], c: complex):
    """Affine map sending the zeros strictly into the unit disk and c to (1, inf).

    Exists exactly when c is outside the hull: separate c from the hull by
    the perpendicular bisector line at the nearest hull point, then fit the
    hull-side half-plane slab into a large disk tangent to that line.
    Returns (map, mapped zeros, mapped c), or None when c does not clear the hull.
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


def replay_level_curve_argument(p: Polynomial, c: complex, curve_points) -> ReplayWitness:
    """Replay the product-inequality step of the hull-containment proof.

    For a genuine polynomial (c inside the hull) the answer is the
    "not applicable" marker, before the curve is read.  Otherwise
    ``curve_points`` are mapped through the normalization, and two of their
    crossings at one height right of Re = 1 exhibit the strict product
    inequality.  The search for that height is complete on the polyline
    (:func:`_same_height_pair`); a curve with no such height raises
    :class:`CertificateError`.
    """
    zeros = [z for z, m in p.roots() for _ in range(m)]
    norm = _normalize_outside_hull(zeros, c)
    if norm is None:
        return ReplayWitness(False, reason="critical point inside hull; theorem satisfied")
    fwd, zs_n, c_n = norm

    pair = _same_height_pair(fwd(np.asarray(curve_points, dtype=complex).ravel()))
    if pair is None:
        raise CertificateError("the curve has no two points at one height right of Re = 1")
    height, z1, z2 = pair
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
        normalized_zeros=zs_n,
        normalized_c=c_n,
    )


def _same_height_pair(pts: np.ndarray):
    """(height, z1, z2): the leftmost and rightmost crossing right of Re = 1
    at the height where they lie farthest apart, or None if no height has two.

    The crossings right of Re = 1 change only at the height of a point and
    at the height where a segment crosses Re = 1, so one height inside each
    open interval between those breakpoints sees every case.
    """
    a, b = pts[:-1], pts[1:]
    cut = (a.real - 1.0) * (b.real - 1.0) < 0.0
    t = (1.0 - a.real[cut]) / (b.real[cut] - a.real[cut])
    breaks = np.unique(np.concatenate([pts.imag, a.imag[cut] + t * (b.imag[cut] - a.imag[cut])]))
    best = None
    for height in 0.5 * (breaks[:-1] + breaks[1:]):
        xs = [z for z in geometry.horizontal_crossings(pts, height) if z.real > 1.0]
        xs.sort(key=lambda z: z.real)
        if len(xs) >= 2 and (best is None or xs[-1].real - xs[0].real > best[2].real - best[1].real):
            best = (float(height), xs[0], xs[-1])
    return best


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
