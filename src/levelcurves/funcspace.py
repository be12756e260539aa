"""Function space: polynomials, rational functions, Blaschke-product ratios.

A RationalFn is immutable after construction and caches its distinguished
points (zeros, poles, critical points with multiplicities) and the local
model at each critical point.  Its domain is the unit disk for a Blaschke
ratio and the plane otherwise.  Values at poles are reported through the
point-at-infinity flag ``INF`` rather than NaN.

The function-spec grammar shared with the CLI:

    poly:c_n,...,c_0            coefficients, highest degree first
    rat:<poly>/<poly>           numerator / denominator coefficient lists
    blaschke:a1,a2,.../b1,b2,...  zeros of B1 / zeros of B2, all inside the disk

Complex literals use ``a+bi`` (or ``j``) notation, e.g. ``-0.4i``, ``1+2i``.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np
import numpy.polynomial.polynomial as npoly

from .config import DEFAULT_TOLS
from .errors import FunctionSpecError, RootFindingError

INF = complex(math.inf, 0.0)

# coefficients below TRIM_REL times the largest are dropped by Polynomial.trim
TRIM_REL = 1e-13
# Aberth iteration budget
ABERTH_MAX_ITER = 400
# root clustering distance, relative to the root magnitude scale
ROOT_CLUSTER_REL = 1e-7
# residual scale for reported roots: |p(root)| <= ROOT_RESIDUAL * (1 + max|coeff|)
ROOT_RESIDUAL = 1e-9


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

    __slots__ = ("coeffs", "_rev", "_roots")

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

    def deriv(self) -> "Polynomial":
        if self.coeffs.size == 1:
            return Polynomial([0.0])
        return Polynomial(npoly.polyder(self.coeffs))

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

    def roots(self) -> list[tuple[complex, int]]:
        """Roots with multiplicities, residual-checked and clustered; found once
        per polynomial, and a fresh list on every call."""
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


def find_roots(coeffs) -> list[tuple[complex, int]]:
    """All roots of a polynomial with multiplicities.

    Exact zero roots are factored out first (they carry exact multiplicity),
    the rest go through Aberth iteration, distance clustering, and a Newton
    polish of each cluster on the appropriate derivative.  Raises
    :class:`RootFindingError` when a reported root fails its residual gate.
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

    raw: list[complex] = []
    if work.size > 1:
        raw = list(_aberth(work))

    derivs = [work]
    for _ in range(work.size - 1):
        derivs.append(npoly.polyder(derivs[-1]))

    clusters = _merge_multiple_roots(_cluster_points(raw), derivs)
    out: list[tuple[complex, int]] = []
    if zero_mult:
        out.append((0j, zero_mult))

    residual_cap = ROOT_RESIDUAL * (1.0 + float(np.max(np.abs(work))))
    for center, mult in clusters:
        z = _polish(center, mult, derivs, 8)
        res = abs(npoly.polyval(z, work))
        if res > residual_cap * max(1.0, abs(z)) ** max(work.size - 1, 1):
            raise RootFindingError(f"root candidate {z} has residual {res:.3e} above gate")
        out.append((complex(z), mult))

    out.sort(key=lambda rm: (round(rm[0].real, 12), round(rm[0].imag, 12)))
    return out


def _polish(z: complex, m: int, derivs: list[np.ndarray], iters: int) -> complex:
    """Newton from z on derivs[m - 1]: a multiplicity-m root is a simple root of
    the (m-1)th derivative.  derivs is the chain p, p', p'', ... of p."""
    target = derivs[m - 1]
    dtarget = derivs[m] if m < len(derivs) else np.array([0j])
    for _ in range(iters):
        dv = npoly.polyval(z, dtarget)
        if dv == 0:
            break
        step = npoly.polyval(z, target) / dv
        z = z - step
        if abs(step) < 1e-15 * (1.0 + abs(z)):
            break
    return z


def _merge_multiple_roots(clusters, derivs: list[np.ndarray]):
    """Merge root clusters that are indistinguishable from one multiple root.

    A multiplicity-m root under coefficient noise eta scatters by eta^(1/m),
    so candidates within (1e3*eps_mach)^(1/m) of each other are tried as one
    root of multiplicity m.  The merge is accepted only when the polished
    center annihilates p and its first m-1 derivatives to noise level, which
    a genuinely separated simple cluster cannot do.
    """
    if len(clusters) < 2:
        return clusters
    noise = 1e3 * np.finfo(float).eps

    def radius(m, scale):
        return noise ** (1.0 / m) * scale

    def verify(center, m):
        c = _polish(center, m, derivs, 10)
        zscale = max(1.0, abs(c))
        for j in range(m):
            gate = 1e-8 * (1.0 + float(np.max(np.abs(derivs[j])))) * zscale ** max(
                derivs[j].size - 1, 1
            )
            if abs(npoly.polyval(c, derivs[j])) > gate:
                return None
        return c

    merged = True
    while merged and len(clusters) > 1:
        merged = False
        for i, (ci, mi) in enumerate(clusters):
            others = sorted(
                (abs(cj - ci), j) for j, (cj, _) in enumerate(clusters) if j != i
            )
            scale = max(1.0, abs(ci))
            for k in range(len(others), 0, -1):
                group = [i] + [j for _, j in others[:k]]
                m_total = sum(clusters[j][1] for j in group)
                if others[k - 1][0] > radius(m_total, scale):
                    continue
                center = sum(clusters[j][0] * clusters[j][1] for j in group) / m_total
                polished = verify(center, m_total)
                if polished is None:
                    continue
                clusters = [clusters[j] for j in range(len(clusters)) if j not in group]
                clusters.append((polished, m_total))
                merged = True
                break
            if merged:
                break
    return clusters


def _cluster_points(points) -> list[tuple[complex, int]]:
    if not points:
        return []
    pts = sorted(points, key=lambda z: (z.real, z.imag))
    scale = max(1.0, max(abs(z) for z in pts))
    tol = ROOT_CLUSTER_REL * scale
    groups: list[list[complex]] = []
    for z in pts:
        for g in groups:
            if abs(z - g[0]) < tol or abs(z - sum(g) / len(g)) < tol:
                g.append(z)
                break
        else:
            groups.append([z])
    return [(sum(g) / len(g), len(g)) for g in groups]


# ---------------------------------------------------------------------------
# rational functions


class RationalFn:
    """Ratio of two coprime polynomials with cached distinguished points.

    Instances are immutable apart from their caches of what depends on f
    alone (distinguished points, local models, critical curves); every
    method is pure, so sharing across threads is safe.  Construction rejects
    constant functions and numerator / denominator pairs with a
    (numerically) common root.
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
        # |den| when the denominator is constant, so the fused pass skips it
        self._const_den = abs(complex(denominator.coeffs[0])) if denominator.degree == 0 else None
        # the component through each critical point, filled by
        # ``tracer._critical_curve`` and keyed by the critical point's index
        self.critical_curves: dict = {}
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
        nz = [r for r, _ in self.numerator.roots()]
        dz = [r for r, _ in self.denominator.roots()]
        scale = max(
            [1.0]
            + [abs(r) for r in nz]
            + [abs(r) for r in dz]
        )
        for a in nz:
            for b in dz:
                if abs(a - b) < 1e-9 * scale:
                    raise FunctionSpecError(
                        f"numerator and denominator share a root near {a}"
                    )

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

    def log_derivative(self, z: complex) -> complex:
        return self.abs_and_log_derivative(z)[1]

    @cached_property
    def derivative_numerator(self) -> Polynomial:
        """Numerator of f' before removal of pole factors: n'd - nd'."""
        n, d = self.numerator, self.denominator
        return (n.deriv() * d - n * d.deriv()).trim()

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
        """Zeros of f' in the plane with multiplicities (pole factors removed)."""
        w = self.derivative_numerator
        if w.is_zero:
            raise FunctionSpecError("f' vanishes identically; f is constant")
        roots = w.roots()
        # a pole of order m contributes an (m-1)-fold spurious root of n'd - nd'
        poles_all = self.denominator.roots()
        scale = max([1.0] + [abs(p) for p, _ in poles_all])
        out = []
        for z, m in roots:
            drop = 0
            for p, pm in poles_all:
                if pm >= 2 and abs(z - p) < 1e-7 * scale:
                    drop = pm - 1
                    break
            if m > drop:
                out.append((z, m - drop))
            elif drop == 0:
                out.append((z, m))
        return out

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

        a comes from discrete Cauchy integration on a 64-point circle of
        radius 1e-2 * max(1, |c|), at most a fifth of the distance to the
        nearest other distinguished point and at least 1e-8 * scale; exact
        derivatives of a rational function are avoided on purpose.  a is
        None where the integral degenerates to 0 or to a non-finite value.
        """
        pts = self.distinguished_points()
        k = 64
        w = np.exp(2j * np.pi * np.arange(k) / k)
        out = []
        for c, m in self.critical_points:
            others = [p for p in pts if abs(p - c) > 1e-12]
            rho = 1e-2 * max(1.0, abs(c))
            if others:
                rho = min(rho, 0.2 * min(abs(p - c) for p in others))
            rho = max(rho, 1e-8 * self.scale)
            vals = self.eval_grid(c + rho * w) - self.eval(c)
            a = np.sum(vals * w ** (-(m + 1))) / (k * rho ** (m + 1))
            out.append((c, m, None if a == 0 or is_inf(a) else complex(a)))
        return out

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
