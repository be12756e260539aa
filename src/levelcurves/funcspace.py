"""Function space: polynomials, rational functions, Blaschke-product ratios.

A RationalFn is immutable after construction and caches its distinguished
points (zeros, poles, critical points with multiplicities), the local model
and the certified window of |f| at each critical point, and the samples of
|f| that the seed search takes whatever the level.  The local model and
the certified |f| bounds (``RationalFn.abs_bounds``) both read one batched
Taylor shift of numerator and denominator (``_taylor_shift``).  Its domain
is the unit disk for a Blaschke ratio and the plane otherwise.  Values at
poles are reported through the point-at-infinity flag ``INF`` rather than
NaN.

The function-spec grammar shared with the CLI:

    poly:c_n,...,c_0            coefficients, highest degree first
    rat:<poly>/<poly>           numerator / denominator coefficient lists
    blaschke:a1,a2,.../b1,b2,...  zeros of B1 / zeros of B2, all inside the disk

Complex literals use ``a+bi`` (or ``j``) notation, e.g. ``-0.4i``, ``1+2i``.
"""

from __future__ import annotations

import math
from functools import cached_property, partial

import numpy as np
import numpy.polynomial.polynomial as npoly

from .config import DEFAULT_TOLS
from .errors import FunctionSpecError, RootFindingError

INF = complex(math.inf, 0.0)

# coefficients below TRIM_REL times the largest are dropped by Polynomial.trim
TRIM_REL = 1e-13
# Aberth iteration budget
ABERTH_MAX_ITER = 400

def is_inf(z: complex) -> bool:
    return not (math.isfinite(z.real) and math.isfinite(z.imag))


# ---------------------------------------------------------------------------
# polynomials


class Polynomial:
    """Complex polynomial stored with ascending coefficients.

    The zero polynomial has ``degree == -inf``.  Trailing coefficients that
    are exactly zero are trimmed; approximate trimming is explicit via
    :meth:`trim`.
    """

    __slots__ = ("coeffs", "_rev", "_roots", "_deriv")

    def __init__(self, coeffs):
        c = np.atleast_1d(np.asarray(coeffs, dtype=complex)).ravel()
        n = c.size
        while n > 1 and c[n - 1] == 0:
            n -= 1
        self.coeffs = c[:n].copy()
        self.coeffs.setflags(write=False)
        # descending Python complex values for the scalar Horner passes
        self._rev = tuple(complex(c) for c in self.coeffs[::-1])
        self._roots = None
        self._deriv = None

    @classmethod
    def from_roots(cls, roots, leading: complex = 1.0) -> "Polynomial":
        c = np.array([leading], dtype=complex)
        for r in roots:
            c = npoly.polymul(c, np.array([-r, 1.0], dtype=complex))
        return cls(c)

    @property
    def degree(self):
        if self.coeffs.size == 1 and self.coeffs[0] == 0:
            return float("-inf")
        return self.coeffs.size - 1

    @property
    def is_zero(self) -> bool:
        return self.coeffs.size == 1 and self.coeffs[0] == 0

    def __call__(self, z):
        if isinstance(z, np.ndarray):
            # numpy's polyval Horner without its set-up, the same floats: it
            # starts from c_n + z * 0 too, and multiplies out of place
            acc = self.coeffs[-1] + z * 0
            for c in self._rev[1:]:
                acc = c + acc * z
            return acc
        acc = 0j
        for c in self._rev:
            acc = acc * z + c
        return acc

    def value_and_derivs(self, z: complex) -> tuple[complex, complex, complex]:
        """p(z), p'(z) and p''(z) from one Horner pass (TAOCP vol. 2, 4.6.4)."""
        p = dp = hp = 0j
        for c in self._rev:
            hp = hp * z + dp
            dp = dp * z + p
            p = p * z + c
        return p, dp, 2.0 * hp

    def value_and_deriv(self, z: complex) -> tuple[complex, complex]:
        """p(z) and p'(z): the recurrence of :meth:`value_and_derivs` without
        its p'' accumulator, so the same two floats."""
        p = dp = 0j
        for c in self._rev:
            dp = dp * z + p
            p = p * z + c
        return p, dp

    def deriv(self) -> "Polynomial":
        """p', built once per polynomial: the same object on every call."""
        if self._deriv is None:
            self._deriv = Polynomial(npoly.polyder(self.coeffs) if self.coeffs.size > 1 else [0.0])
        return self._deriv

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        return Polynomial(npoly.polymul(self.coeffs, other.coeffs))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return Polynomial(npoly.polysub(self.coeffs, other.coeffs))

    def trim(self) -> "Polynomial":
        m = float(np.max(np.abs(self.coeffs)))
        if m == 0.0:
            return Polynomial([0.0])
        c = self.coeffs.copy()
        c[np.abs(c) <= TRIM_REL * m] = 0.0
        return Polynomial(c)

    def roots(self) -> list[RootCluster]:
        """The certified root clusters (z, m) of :func:`find_roots`, each with
        its disk's radius: m is a certified count of roots in that disk, not a
        proven m-fold root.  Found once per polynomial; a fresh list on every
        call."""
        if self._roots is None:
            self._roots = tuple(find_roots(self.coeffs))
        return list(self._roots)

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)})"


def _aberth(coeffs: np.ndarray) -> np.ndarray:
    """Simultaneous (Ehrlich-Aberth) iteration on a monic polynomial.

    ``coeffs`` ascending with nonzero leading and nonzero constant term
    (zero roots must be factored out by the caller).
    """
    c = coeffs / coeffs[-1]
    n = c.size - 1
    dc = npoly.polyder(c)
    # Cauchy bound start circle with an asymmetry offset so symmetric
    # configurations (roots of unity) do not stall
    radius = 1.0 + float(np.max(np.abs(c[:-1])))
    angles = 2.0 * np.pi * (np.arange(n) + 0.353) / n + 0.41
    z = radius * 0.7 * np.exp(1j * angles)

    for _ in range(ABERTH_MAX_ITER):
        pz = npoly.polyval(z, c)
        dpz = npoly.polyval(z, dc)
        dpz = np.where(dpz == 0, 1e-300, dpz)
        newton = pz / dpz
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, 1.0)
        inv = 1.0 / diff
        np.fill_diagonal(inv, 0.0)
        denom = 1.0 - newton * inv.sum(axis=1)
        denom = np.where(denom == 0, 1e-300, denom)
        step = newton / denom
        z = z - step
        if np.max(np.abs(step)) < 1e-14 * (1.0 + np.max(np.abs(z))):
            break
    return z


class RootCluster(tuple):
    """A root cluster ``(z, m)`` of a polynomial with the radius of its
    certified disk: exactly m roots, counted with multiplicity, lie in
    |w - z| < ``radius`` (see :func:`find_roots`).  It compares, unpacks and
    prints as the pair (z, m)."""

    def __new__(cls, z: complex, m: int, radius: float):
        self = super().__new__(cls, (z, m))
        self.radius = radius
        return self

    def __getnewargs__(self):
        return (*self, self.radius)


def find_roots(coeffs) -> list[RootCluster]:
    """All roots of a polynomial, as clusters (z, m) whose disks of radius
    ``RootCluster.radius`` are disjoint and hold exactly m roots each by
    Pellet's test (:func:`_pellet_radii`), so the counts sum to the degree.
    m is a certified count in a disk, not a proven m-fold root: roots closer
    than double precision can tell apart form one cluster.  Exact zero roots
    are factored out first, as one cluster at 0; the others start as Aberth
    roots, one cluster each, merged by :func:`_certified_clusters`.
    """
    c = np.atleast_1d(np.asarray(coeffs, dtype=complex)).ravel()
    n = c.size
    while n > 1 and c[n - 1] == 0:
        n -= 1
    c = c[:n]
    if n == 1:
        return []

    scale = float(np.max(np.abs(c)))
    work = c / scale
    work[np.abs(work) <= 1e-14] = 0.0

    zero_mult = 0
    while work.size > 1 and work[0] == 0:
        work = work[1:]
        zero_mult += 1

    derivs = [work, npoly.polyder(work)]
    clusters = [(_polish(z, 1, derivs), [(z, 1)]) for z in (_aberth(work) if work.size > 1 else [])]
    if zero_mult:
        clusters.append((0j, [(0j, zero_mult)]))
    return _certified_clusters(clusters, work, partial(_pellet_radii, c))


def _certified_clusters(clusters, coeffs: np.ndarray, radii_of) -> list[RootCluster]:
    """Merge clusters (center, members (z, m)) until ``radii_of(centers,
    counts, gaps)``, gaps being the distances to the nearest other center,
    gives each a radius, not nan.  Each round the uncertified cluster nearest
    another joins it, at the weighted mean of their members polished on the
    ascending ``coeffs`` (:func:`_polish`), or at 0 with the exact zero root
    of :func:`find_roots`.  A lone uncertified cluster raises
    :class:`RootFindingError`.
    """
    while True:
        centers = np.array([z for z, _ in clusters], dtype=complex)
        counts = np.array([sum(m for _, m in g) for _, g in clusters])
        dist = np.abs(centers[:, None] - centers[None, :])
        np.fill_diagonal(dist, math.inf)
        gaps = dist.min(axis=1)
        radii = radii_of(centers, counts, gaps)
        bad = np.isnan(radii)
        if not bad.any():
            out = [RootCluster(complex(z), int(m), float(r)) for z, m, r in zip(centers, counts, radii)]
            return sorted(out, key=lambda rm: (round(rm[0].real, 12), round(rm[0].imag, 12)))
        if len(clusters) == 1:
            raise RootFindingError(f"no radius certifies the cluster of {counts[0]} about {centers[0]}")
        i = int(np.argmin(np.where(bad, gaps, math.inf)))
        i, j = sorted((i, int(np.argmin(dist[i]))))
        g = sorted(clusters.pop(j)[1] + clusters.pop(i)[1], key=lambda zm: (zm[0].real, zm[0].imag))
        m = sum(k for _, k in g)
        derivs = [npoly.polyder(coeffs, k) for k in range(m + 1)]
        clusters.append((0j if any(z == 0 for z, _ in g) else _polish(sum(z * k for z, k in g) / m, m, derivs), g))


def _polish(z: complex, m: int, derivs: list[np.ndarray]) -> complex:
    """8 Newton steps from z on derivs[m - 1]: a cluster of m roots about z
    is a simple root of the (m-1)th derivative.  derivs is the chain p, p',
    p'', ... of p, to order m at least."""
    target, dtarget = derivs[m - 1], derivs[m]
    for _ in range(8):
        dv = npoly.polyval(z, dtarget)
        if dv == 0:
            break
        step = npoly.polyval(z, target) / dv
        z = z - step
        if abs(step) < 1e-15 * (1.0 + abs(z)):
            break
    return z


def _pellet_radii(coeffs: np.ndarray, centers: np.ndarray, counts: np.ndarray, gaps: np.ndarray) -> np.ndarray:
    """For each center c with count k, the smallest rung r of its ladder at
    which Pellet's test certifies exactly k roots of the polynomial with
    ascending ``coeffs`` (one column per center, or one for all) in
    |z - c| < r; nan where no rung does.  With the Taylor shift
    p(c + w) = sum_j b_j w^j of :func:`_taylor_shift`, |b_k| r^k - sum_{j != k}
    |b_j| r^j must exceed :func:`_rounding_allowance`: then b_k w^k outweighs
    the rest on |w| = r (Rouche; Becker, Sagraloff, Sharma & Yap, J. Symbolic
    Comput. 86, 2018; Rump, J. Comput. Appl. Math. 156, 2003).  The ladder's
    53 rungs, the mantissa length, halve from half the gap to the nearest
    other center, which keeps the disks disjoint, to about u times it; a lone
    center (gap inf) starts at twice the Cauchy bound 1 + max_{j<n} |b_j / b_n|
    of its shift.
    """
    n = len(coeffs) - 1
    mods = np.abs(np.array(_taylor_shift(coeffs, centers)))
    top = np.where(np.isinf(gaps), 2.0 * (1.0 + mods[:-1].max(axis=0) / mods[-1]), gaps / 2)
    rungs = np.finfo(float).nmant + 1
    ladder = top[:, None] * 2.0 ** -np.arange(rungs)
    signed = np.where(np.arange(n + 1)[:, None] == counts, mods, -mods)
    margin = np.zeros(ladder.shape)
    with np.errstate(all="ignore"):
        for s in signed[::-1]:
            margin = margin * ladder + s[:, None]
        ok = margin > _rounding_allowance(coeffs[..., None], centers[:, None], ladder)
    # the rungs descend, so the last one that passes is the smallest
    last = rungs - 1 - np.argmax(ok[:, ::-1], axis=1)
    return np.where(ok.any(axis=1), ladder[np.arange(centers.size), last], np.nan)


def _taylor_shift(coeffs: np.ndarray, centers: np.ndarray) -> list[np.ndarray]:
    """The Taylor shift p(c + w) = sum_k b_k w^k of the polynomial p with
    ascending ``coeffs`` a_0, ..., a_n to each of ``centers``: the list
    b_0, ..., b_n, each an array over the centers.

    It comes from the Horner recurrences ``b_i <- b_i + c b_{i+1}`` (i = n-1
    down to j, for j = 0 to n-1), batched over the centers (von zur Gathen &
    Gerhard, "Fast algorithms for Taylor shifts and certain difference
    equations", ISSAC 1997).
    """
    n = len(coeffs) - 1
    b = [np.full(centers.shape, a) for a in coeffs]
    for j in range(n):
        for i in range(n - 1, j - 1, -1):
            b[i] = b[i] + centers * b[i + 1]
    return b


def _rounding_allowance(coeffs: np.ndarray, centers: np.ndarray, radius) -> np.ndarray:
    """gamma_N S, where S = sum_i |a_i| (|c| + r)^i, N = 12 (n + 1),
    gamma_N = N u / (1 - N u) and u = 2^-53: a bound on the rounding error of
    a sum sum_k +-|b_k| r^k formed by Horner from the computed Taylor shift
    b_0, ..., b_n of the ascending ``coeffs`` a_0, ..., a_n to each center c
    (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed., 3.1
    and 5.1).

    The count: each term C(i, k) a_i c^(i-k) of b_k meets i - k complex
    products, each within (1 + u)^3 (Higham, Lemma 3.5), and at most i + 1
    complex sums, so the computed b_k is off by at most gamma_{4n+1} sum_i
    C(i, k) |a_i| |c|^(i-k), and these bounds weighted by r^k sum to S;
    forming the moduli (hypot, within an ulp), the powers of r and the sum
    takes at most 2n + 4 more roundings; and S is computed within
    (1 + u)^(5n+5), since |c| + r carries three roundings into each power.
    (4n + 1) + (2n + 4) + (5n + 5) <= N.
    """
    n = len(coeffs) - 1
    x = np.abs(centers) + radius
    majorant = np.full(centers.shape, abs(coeffs[-1]))
    for a in coeffs[-2::-1]:
        majorant = majorant * x + abs(a)
    big_n = 12 * (n + 1)
    return big_n * 2.0**-53 / (1.0 - big_n * 2.0**-53) * majorant


def _modulus_bounds(coeffs: np.ndarray, centers: np.ndarray, radius, passes: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Bounds ``lo <= |p(z)| <= hi`` on the closed disk of radius r about each
    center c, for the polynomial p with ascending ``coeffs`` a_0, ..., a_n.

    With the Taylor shift p(c + w) = sum_k b_k w^k of :func:`_taylor_shift`,
    on |w| <= r,

        |b_0| - sum_{k>=1} |b_k| r^k  <=  |p(c + w)|  <=  |b_0| + sum_{k>=1} |b_k| r^k,

    each side widened by ``passes`` times :func:`_rounding_allowance`: once
    for the shift, and once more to enclose the value a Horner pass computes
    at z, whose error is within gamma_{4n+1} sum_i |a_i| |z|^i (Higham 3.5
    and 5.1), below the allowance for |z| <= |c| + r.
    """
    b = _taylor_shift(coeffs, centers)
    tail = np.zeros(centers.shape)
    for bk in b[:0:-1]:
        tail = (tail + np.abs(bk)) * radius
    allowance = passes * _rounding_allowance(coeffs, centers, radius)
    head = np.abs(b[0])
    return head - tail - allowance, head + tail + allowance


# ---------------------------------------------------------------------------
# rational functions


class RationalFn:
    """Ratio of two coprime polynomials with cached distinguished points.

    Instances are immutable apart from their caches of what depends on f
    alone (distinguished points, local models, critical windows, critical
    curves, and the seed search's ray samples); every method is pure, so
    sharing across threads is safe.
    Construction rejects constant functions and numerator / denominator
    pairs with a common root: a pair of root clusters whose certified disks
    meet.
    """

    # the fixed certificate gates; ``bench/run.py`` reads ``f.tols.hull_tol``
    tols = DEFAULT_TOLS

    def __init__(
        self,
        numerator: Polynomial,
        denominator: Polynomial | None = None,
        blaschke_degrees: tuple[int, int] | None = None,
        spec: str | None = None,
    ):
        if denominator is None:
            denominator = Polynomial([1.0])
        if numerator.is_zero or denominator.is_zero:
            raise FunctionSpecError("numerator and denominator must be nonzero")
        if numerator.degree == 0 and denominator.degree == 0:
            raise FunctionSpecError("constant functions are not allowed")
        self.numerator = numerator
        self.denominator = denominator
        self.blaschke_degrees = blaschke_degrees
        self.spec = spec
        # |den| when the denominator is constant, so the scalar passes skip it
        self._const_den = abs(complex(denominator.coeffs[0])) if denominator.degree == 0 else None
        # the component through each critical point, filled by
        # ``tracer._critical_curve`` and keyed by the critical point's index
        self.critical_curves: dict = {}
        # the first samples of |f| along the seed rays, which do not depend on
        # the level, keyed by the anchors and distances (``tracer._ray_crossings``)
        self.ray_samples: dict = {}
        self._check_coprime()

    # -- construction helpers

    @classmethod
    def from_polynomial(cls, coeffs_desc, **kw) -> "RationalFn":
        return cls(Polynomial(list(reversed(list(coeffs_desc)))), **kw)

    @classmethod
    def blaschke_ratio(cls, zeros1, zeros2, spec=None) -> "RationalFn":
        """f = B1/B2 for finite Blaschke products with the given zeros."""
        zeros1 = [complex(a) for a in zeros1]
        zeros2 = [complex(b) for b in zeros2]
        for a in zeros1 + zeros2:
            if abs(a) >= 1.0:
                raise FunctionSpecError(f"Blaschke zero {a} must lie strictly inside the unit disk")
        if len(zeros1) == len(zeros2):
            # equal degrees force a level curve through the boundary circle
            raise FunctionSpecError("deg(B1) == deg(B2) violates the boundary restriction")
        num = Polynomial([1.0])
        den = Polynomial([1.0])
        for a in zeros1:
            num = num * Polynomial([-a, 1.0])
            den = den * Polynomial([1.0, -a.conjugate()])
        for b in zeros2:
            num = num * Polynomial([1.0, -b.conjugate()])
            den = den * Polynomial([-b, 1.0])
        return cls(
            num.trim(),
            den.trim(),
            blaschke_degrees=(len(zeros1), len(zeros2)),
            spec=spec,
        )

    def _check_coprime(self):
        # a shared root cannot be told from two roots whose certified disks meet
        for a in self.numerator.roots():
            for b in self.denominator.roots():
                if abs(a[0] - b[0]) < a.radius + b.radius:
                    raise FunctionSpecError(f"numerator and denominator share a root near {a[0]}")

    def check_boundary_restriction(self):
        """Reject configurations whose level curves touch the domain boundary.

        On the unit disk this requires |f| - 1 to be one-signed on a thin
        collar just inside the circle; the global structure operations
        (nesting order, decomposition) call this before relying on it.
        """
        if not self.disk:
            return
        theta = np.linspace(0.0, 2.0 * np.pi, 257)[:-1]
        ring = 0.999 * np.exp(1j * theta)
        vals = np.abs(self.eval_grid(ring)) - 1.0
        if not (np.all(vals > 0) or np.all(vals < 0)):
            raise FunctionSpecError(
                "a level curve of |f| = 1 meets the unit circle; "
                "the boundary restriction fails for this Blaschke ratio"
            )

    # -- the domain: the unit disk for a Blaschke ratio, the plane otherwise

    @property
    def disk(self) -> bool:
        return self.blaschke_degrees is not None

    def in_domain(self, z: complex) -> bool:
        return not is_inf(z) and (not self.disk or abs(z) < 1.0)

    # -- evaluation

    def eval(self, z: complex) -> complex:
        nv = self.numerator(z)
        dv = self.denominator(z)
        if dv == 0:
            return INF
        return nv / dv

    def eval_grid(self, z: np.ndarray) -> np.ndarray:
        nv = self.numerator(z)
        # a constant denominator divides as its complex value, which on
        # finite z is what its Horner pass gives at every point
        dv = self.denominator(z) if self._const_den is None else self.denominator.coeffs[0]
        with np.errstate(divide="ignore", invalid="ignore"):
            out = nv / dv
        bad = dv == 0
        if np.any(bad):
            out = np.where(bad, INF, out)
        return out

    def abs_eval(self, z: complex) -> float:
        dv = self.denominator(z)
        if dv == 0:
            return math.inf
        return abs(self.numerator(z)) / abs(dv)

    def abs_grid(self, z: np.ndarray) -> np.ndarray:
        nv = np.abs(self.numerator(z))
        if self._const_den is not None:
            # numpy's complex abs, which can differ from Python's in the last
            # bit, as the two-pass formula below takes it
            return nv / np.abs(self.denominator.coeffs[0])
        dv = np.abs(self.denominator(z))
        with np.errstate(divide="ignore", invalid="ignore"):
            out = nv / dv
        return np.where(dv == 0.0, np.inf, out)

    def abs_and_log_derivative(self, z: complex) -> tuple[float, complex, complex]:
        """(|f|, f'/f, (f'/f)') from one Horner pass over numerator and denominator.

        With L = p'/p for each of them, f'/f = L_num - L_den and
        (f'/f)' = (p''/p - L^2)_num - (p''/p - L^2)_den, stable away from
        roots.  A constant denominator, as in every polynomial, contributes
        nothing and skips its pass.  At a pole the pass returns
        (inf, INF, INF), at a zero (0.0, INF, INF).
        """
        nv, n1, n2 = self.numerator.value_and_derivs(z)
        dc = self._const_den
        if dc is not None:
            if nv == 0:
                return 0.0, INF, INF
            ld = n1 / nv
            return abs(nv) / dc, ld, n2 / nv - ld * ld
        dv, d1, d2 = self.denominator.value_and_derivs(z)
        if dv == 0:
            return math.inf, INF, INF
        if nv == 0:
            return 0.0, INF, INF
        l_num, l_den = n1 / nv, d1 / dv
        return abs(nv) / abs(dv), l_num - l_den, (n2 / nv - l_num * l_num) - (d2 / dv - l_den * l_den)

    def abs_and_log_deriv(self, z: complex) -> tuple[float, complex]:
        """(|f|, f'/f): the pass of :meth:`abs_and_log_derivative` without
        (f'/f)', from ``Polynomial.value_and_deriv``, so the same two floats.
        At a pole it returns (inf, INF), at a zero (0.0, INF).
        """
        nv, n1 = self.numerator.value_and_deriv(z)
        dc = self._const_den
        if dc is not None:
            if nv == 0:
                return 0.0, INF
            return abs(nv) / dc, n1 / nv
        dv, d1 = self.denominator.value_and_deriv(z)
        if dv == 0:
            return math.inf, INF
        if nv == 0:
            return 0.0, INF
        return abs(nv) / abs(dv), n1 / nv - d1 / dv

    def log_derivative(self, z: complex) -> complex:
        return self.abs_and_log_deriv(z)[1]

    def abs_bounds(self, centers, radius, computed: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """Certified bounds ``lo <= |f(z)| <= hi`` for every z in the closed
        disk of radius ``radius`` (>= 0, a scalar or one per center) about
        each of ``centers``.

        Numerator and denominator are shifted to each center (see
        :func:`_modulus_bounds`); then ``lo = lo_num / hi_den``, or 0 where
        ``lo_num <= 0`` (the disk may hold a zero), and ``hi = hi_num /
        lo_den``, or inf where ``lo_den <= 0`` (it may hold a pole).  Each
        quotient is rounded outward by one ulp.  A bound that overflows is
        vacuous: 0 or inf.

        With ``computed`` the bounds enclose instead the float that
        :meth:`abs_grid` returns at every such z: the moduli are widened for
        its Horner passes (``passes=2``) and the quotient by 2^-49 relative,
        for its complex abs (within an ulp) and its division.
        """
        centers = np.asarray(centers, dtype=complex)
        passes = 2 if computed else 1
        with np.errstate(all="ignore"):
            lo_num, hi_num = _modulus_bounds(self.numerator.coeffs, centers, radius, passes)
            lo_den, hi_den = _modulus_bounds(self.denominator.coeffs, centers, radius, passes)
            lo = np.where((lo_num > 0) & (hi_den < math.inf), np.nextafter(lo_num / hi_den, 0.0), 0.0)
            hi = np.where((lo_den > 0) & (hi_num < math.inf), np.nextafter(hi_num / lo_den, math.inf), math.inf)
            if computed:
                lo, hi = lo * (1.0 - 2.0**-49), hi * (1.0 + 2.0**-49)
        return lo, hi

    @cached_property
    def derivative_numerator(self) -> Polynomial:
        """Numerator of f' before removal of pole factors: n'd - nd'.  Where
        that is n' to the bit, as for a polynomial whose n' loses no
        coefficient to the trim, it is ``numerator.deriv()`` itself, so the
        critical points and ``gauss_lucas.check_gauss_lucas`` share its root clusters."""
        n, d = self.numerator, self.denominator
        w = (n.deriv() * d - n * d.deriv()).trim()
        return n.deriv() if w.coeffs.tobytes() == n.deriv().coeffs.tobytes() else w

    # -- distinguished points

    @cached_property
    def zeros(self) -> list[tuple[complex, int]]:
        return [
            (z, m) for z, m in self.numerator.roots() if self.in_domain(z)
        ]

    @cached_property
    def poles(self) -> list[tuple[complex, int]]:
        return [
            (z, m) for z, m in self.denominator.roots() if self.in_domain(z)
        ]

    @cached_property
    def all_critical_points(self) -> list[tuple[complex, int]]:
        """Zeros of f' in the plane as vertices (c, m) of the local model
        f - f(c) = a (z - c)^(m+1) + ...

        They start as the root clusters of n'd - nd', less the spurious roots
        at multiple poles.  Each carries a disk about c where Pellet's test
        (:func:`_pellet_radii`) certifies exactly m + 1 roots of n - f(c) d; a
        critical point no disk certifies has neighbours that f cannot tell
        apart from it in double precision, and is merged with them
        (:func:`_certified_clusters`).
        """
        w = self.derivative_numerator
        if w.is_zero:
            raise FunctionSpecError("f' vanishes identically; f is constant")
        roots = w.roots()
        # a pole of order pm >= 2 is a root of n'd - nd' of order pm - 1: the
        # critical cluster nearest the pole among those whose disks meet its
        # disk gives up that count
        drop = [0] * len(roots)
        for p in self.denominator.roots():
            if p[1] >= 2:
                meets = [i for i, z in enumerate(roots) if abs(z[0] - p[0]) < z.radius + p.radius]
                if not meets:
                    raise RootFindingError(f"no critical cluster meets the pole {p[0]} of order {p[1]}")
                drop[min(meets, key=lambda i: abs(roots[i][0] - p[0]))] += p[1] - 1
        crit = [(z, [(z, m - d)]) for (z, m), d in zip(roots, drop) if m > d]
        if not crit:
            return []
        size = max(self.numerator.coeffs.size, self.denominator.coeffs.size)
        num, den = (np.pad(q.coeffs, (0, size - q.coeffs.size))[:, None] for q in (self.numerator, self.denominator))

        def radii_of(centers, counts, gaps):
            with np.errstate(all="ignore"):
                level = num - self.numerator(centers) / self.denominator(centers) * den
                return _pellet_radii(level, centers, counts + 1, gaps)

        return _certified_clusters(crit, w.coeffs, radii_of)

    @cached_property
    def critical_points(self) -> list[tuple[complex, int]]:
        """Critical points inside the associated domain."""
        return [(z, m) for z, m in self.all_critical_points if self.in_domain(z)]

    def distinguished_points(self) -> list[complex]:
        return [z for z, _ in self.zeros] + [z for z, _ in self.poles] + [
            z for z, _ in self.critical_points
        ]

    @cached_property
    def scale(self) -> float:
        """Size of the distinguished points: the largest of 1, their moduli
        and their pairwise distances."""
        pts = self.distinguished_points()
        if not pts:
            return 1.0
        p = np.array(pts, dtype=complex)
        return max(1.0, float(np.max(np.abs(p))), float(np.max(np.abs(p[:, None] - p[None, :]))))

    @cached_property
    def critical_models(self) -> list[tuple[complex, int, complex | None]]:
        """(c, m, a) for each critical point c of multiplicity m, where
        f(z) - f(c) = a (z - c)^(m+1) + ...

        Numerator and denominator are shifted to every c at once by
        :func:`_taylor_shift`, the shift behind :meth:`abs_bounds`, and a is
        the coefficient q_(m+1) of their quotient series n(c + w) / d(c + w)
        = sum_k q_k w^k, from q_k = (n_k - sum_{j=1..k} d_j q_(k-j)) / d_0.
        a is None where d(c) = 0, or where a is 0 or not finite.
        """
        cs = np.array([c for c, _ in self.critical_points], dtype=complex)
        top = max([m + 1 for _, m in self.critical_points], default=0)
        num, den = (_taylor_shift(p.coeffs, cs) + [0j] * top for p in (self.numerator, self.denominator))
        q = []
        with np.errstate(all="ignore"):
            for k in range(top + 1):
                q.append((num[k] - sum(den[j] * q[k - j] for j in range(1, k + 1))) / den[0])
        out = []
        for i, (c, m) in enumerate(self.critical_points):
            a = complex(q[m + 1][i])
            out.append((c, m, None if a == 0 or is_inf(a) else a))
        return out

    @cached_property
    def critical_windows(self) -> list[tuple[float, float]]:
        """Certified (lo, hi) about |f(c)| at each critical point c: the
        rounding of |f(c)|, from :meth:`abs_bounds` at radius 0."""
        lo, hi = self.abs_bounds([c for c, _ in self.critical_points], 0.0)
        return list(zip(lo.tolist(), hi.tolist()))

    def critical_on_level(self, i: int, eps: float) -> bool:
        """The package's one on-level test: critical point i lies on the
        level eps iff eps is in its window, which holds neither 0 nor inf."""
        lo, hi = self.critical_windows[i]
        return 0.0 < lo <= eps <= hi < math.inf

    def __repr__(self):
        if self.spec:
            return f"RationalFn({self.spec!r})"
        return f"RationalFn({list(self.numerator.coeffs)}, {list(self.denominator.coeffs)})"


# ---------------------------------------------------------------------------
# spec grammar


def _parse_complex(token: str) -> complex:
    t = token.strip().replace("i", "j")
    if not t:
        raise FunctionSpecError("empty complex literal")
    try:
        return complex(t)
    except ValueError as exc:
        raise FunctionSpecError(f"bad complex literal {token!r}") from exc


def _parse_coeff_list(body: str) -> list[complex]:
    items = [tok for tok in body.split(",") if tok.strip()]
    if not items:
        raise FunctionSpecError(f"empty coefficient list in {body!r}")
    return [_parse_complex(tok) for tok in items]


def parse_function_spec(spec: str) -> RationalFn:
    """Parse the shared ``poly:`` / ``rat:`` / ``blaschke:`` grammar."""
    s = spec.strip()
    if s.startswith("poly:"):
        coeffs = _parse_coeff_list(s[len("poly:"):])
        return RationalFn.from_polynomial(coeffs, spec=s)
    if s.startswith("rat:"):
        body = s[len("rat:"):]
        if "/" not in body:
            raise FunctionSpecError("rat: spec needs <poly>/<poly>")
        num_s, den_s = body.split("/", 1)
        num = Polynomial(list(reversed(_parse_coeff_list(num_s))))
        den = Polynomial(list(reversed(_parse_coeff_list(den_s))))
        return RationalFn(num, den, spec=s)
    if s.startswith("blaschke:"):
        body = s[len("blaschke:"):]
        if "/" not in body:
            raise FunctionSpecError("blaschke: spec needs zeros1/zeros2")
        z1_s, z2_s = body.split("/", 1)
        z1 = _parse_coeff_list(z1_s) if z1_s.strip() else []
        z2 = _parse_coeff_list(z2_s) if z2_s.strip() else []
        if not z1 and not z2:
            raise FunctionSpecError("blaschke: spec needs at least one zero")
        return RationalFn.blaschke_ratio(z1, z2, spec=s)
    raise FunctionSpecError(f"unknown function spec {spec!r}")


def random_polynomial(rng: np.random.Generator, degree: int) -> Polynomial:
    """Random polynomial with coefficients in the complex unit box."""
    coeffs = rng.uniform(-1.0, 1.0, degree + 1) + 1j * rng.uniform(-1.0, 1.0, degree + 1)
    while abs(coeffs[-1]) < 0.25:
        coeffs[-1] = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
    return Polynomial(coeffs)
