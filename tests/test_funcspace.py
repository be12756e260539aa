import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from levelcurves import (
    FunctionSpecError,
    LevelCurveError,
    Polynomial,
    RationalFn,
    check_gauss_lucas,
    critical_level_curves,
    parse_function_spec,
)
from levelcurves import funcspace
from levelcurves.funcspace import INF, find_roots, random_polynomial


def test_eval_constant_term():
    f = parse_function_spec("poly:1,0,0,0,0,-1")
    assert f.eval(0) == -1


def test_eval_square():
    f = parse_function_spec("poly:1,0,0")
    assert abs(f.eval(1 + 1j) - 2j) < 1e-15


def test_blaschke_boundary_modulus():
    # |(z - 1/2) / (1 - z/2)| == 1 on the circle, checked by direct arithmetic
    f = parse_function_spec("blaschke:0.5/")
    for k in range(8):
        z = np.exp(2j * np.pi * (k + 0.3) / 8)
        direct = abs((z - 0.5) / (1 - 0.5 * z))
        assert abs(abs(f.eval(z)) - 1.0) < 1e-12
        assert abs(abs(f.eval(z)) - direct) < 1e-12


def test_derivative_power_rule():
    # f'/f = 5 z^4 / (z^5 - 1) and 2 / z
    f = parse_function_spec("poly:1,0,0,0,0,-1")
    assert abs(f.log_derivative(2) - 80 / 31) < 1e-12
    g = parse_function_spec("poly:1,0,0")
    assert abs(g.log_derivative(1j) + 2j) < 1e-12


def test_derivative_finite_difference_oracle():
    rng = np.random.default_rng(5)
    h = 1e-5
    for _ in range(100):
        deg = int(rng.integers(2, 8))
        f = RationalFn(random_polynomial(rng, deg))
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        central = (f.eval(z + h) - f.eval(z - h)) / (2 * h) / f.eval(z)
        exact = f.log_derivative(z)
        assert abs(central - exact) <= 1e-6 * (1 + abs(exact))


def _two_pass_reference(f, z):
    """(|f|, f'/f) by the formula the fused pass replaced: polyval on the
    numerator, the denominator and their derivatives."""
    n, d = f.numerator, f.denominator
    nv, dv = npoly.polyval(z, n.coeffs), npoly.polyval(z, d.coeffs)
    ld = npoly.polyval(z, n.deriv().coeffs) / nv - npoly.polyval(z, d.deriv().coeffs) / dv
    return abs(nv) / abs(dv), ld


_roots = st.lists(
    st.builds(lambda r, t: r * complex(math.cos(t), math.sin(t)),
              st.floats(0.0, 0.9), st.floats(0.0, 2 * math.pi)),
    min_size=1,
    max_size=6,
)


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(["poly", "rat", "blaschke"]),
    a=_roots,
    b=_roots,
    lead=st.complex_numbers(min_magnitude=0.2, max_magnitude=3.0),
    z=st.complex_numbers(max_magnitude=2.0),
)
def test_fused_pass_matches_two_pass_reference(kind, a, b, lead, z):
    # random poly:, rat: and Blaschke inputs, z at least 0.05 from every
    # zero and pole of the numerator and denominator (in the plane)
    try:
        if kind == "poly":
            f, sing = RationalFn(Polynomial.from_roots(a, lead)), a
        elif kind == "rat":
            f, sing = RationalFn(Polynomial.from_roots(a, lead), Polynomial.from_roots(b)), a + b
        elif len(a) != len(b):
            f = RationalFn.blaschke_ratio(a, b)
            sing = a + b + [1 / w.conjugate() for w in a + b if w != 0]
        else:
            reject()
    except LevelCurveError:
        reject()
    if min(abs(z - s) for s in sing) < 0.05:
        reject()
    av, ld, _ = f.abs_and_log_derivative(z)
    ref_av, ref_ld = _two_pass_reference(f, z)
    # relative to the running-error scale of Horner (sum |c_k| |z|^k over |p(z)|);
    # both passes stay within a few units of roundoff of it, the bound is 1e-13
    size = [(npoly.polyval(abs(z), np.abs(p.coeffs)) / abs(p(z)),
             npoly.polyval(abs(z), np.abs(p.deriv().coeffs)) / abs(p(z)))
            for p in (f.numerator, f.denominator)]
    assert abs(av - ref_av) <= 1e-13 * ref_av * (size[0][0] + size[1][0])
    assert abs(ld - ref_ld) <= 1e-13 * (size[0][1] + size[1][1])
    assert f.log_derivative(z) == ld


def test_fused_pass_at_zero_and_pole():
    f = parse_function_spec("poly:1,0,-1")
    assert f.abs_and_log_derivative(1.0) == (0.0, INF, INF)
    g = parse_function_spec("rat:1,1/1,-2")
    assert g.abs_and_log_derivative(2.0) == (math.inf, INF, INF)
    assert g.abs_and_log_derivative(-1.0) == (0.0, INF, INF)
    assert g.log_derivative(2.0) == INF


def test_check_pass_at_zero_and_pole():
    # the pass without (f'/f)' flags zeros and poles as the fused pass does
    f = parse_function_spec("poly:1,0,-1")
    assert f.abs_and_log_deriv(1.0) == (0.0, INF)
    assert f.abs_and_log_deriv(-1.0) == (0.0, INF)
    g = parse_function_spec("rat:1,1/1,-2")
    assert g.abs_and_log_deriv(2.0) == (math.inf, INF)
    assert g.abs_and_log_deriv(-1.0) == (0.0, INF)
    h = RationalFn.blaschke_ratio([0.5], [0.0, -0.25j])
    assert h.abs_and_log_deriv(0.5) == (0.0, INF)
    assert h.abs_and_log_deriv(-0.25j) == (math.inf, INF)


def _check_pass_functions(rng):
    """Seeded polynomials, rat: specs (constant and non-constant
    denominators) and Blaschke ratios."""
    def coeff_list(n):
        return ",".join(f"{complex(*rng.uniform(-1, 1, 2))}".strip("()").replace("j", "i") for _ in range(n))

    fs = []
    for k in range(40):
        fs.append(RationalFn(random_polynomial(rng, int(rng.integers(1, 9)))))
        fs.append(parse_function_spec(f"rat:{coeff_list(int(rng.integers(2, 7)))}/{coeff_list(int(rng.integers(1, 4)))}"))
        zeros = [complex(*rng.uniform(-0.6, 0.6, 2)) for _ in range(int(rng.integers(1, 5)))]
        poles = [complex(*rng.uniform(-0.6, 0.6, 2)) for _ in range(len(zeros) + 1 - 2 * (k % 2))]
        fs.append(RationalFn.blaschke_ratio(zeros, poles))
    return fs


def test_check_pass_is_the_fused_pass_bitwise():
    # (|f|, f'/f) from the pass without (f'/f)' are the fused pass's floats,
    # bit for bit, at seeded points in the plane and next to the zeros and
    # poles; Polynomial.value_and_deriv likewise gives value_and_derivs' p, p'
    rng = np.random.default_rng(36)
    for f in _check_pass_functions(rng):
        near = [z + 1e-7 * complex(*rng.normal(size=2)) for z, _ in f.zeros + f.poles]
        zs = [complex(*rng.uniform(-3, 3, 2)) for _ in range(20)] + near
        for z in zs:
            got, want = f.abs_and_log_deriv(z), f.abs_and_log_derivative(z)[:2]
            assert repr(got) == repr(want)
            for p in (f.numerator, f.denominator):
                assert repr(p.value_and_deriv(z)) == repr(p.value_and_derivs(z)[:2])


@pytest.mark.parametrize("n", [1, 2, 5])
def test_log_derivative_slope_of_a_power(n):
    # f = z^n: f'/f = n/z and (f'/f)' = -n/z^2
    f = RationalFn(Polynomial([0.0] * n + [1.0]))
    for z in (0.3 + 0.4j, -1.7 + 0.2j, 2.5j):
        _, ld, dld = f.abs_and_log_derivative(z)
        assert abs(ld - n / z) <= 1e-14 * abs(n / z)
        assert abs(dld + n / z**2) <= 1e-13 * abs(n / z**2)


def test_log_derivative_slope_near_a_finite_pole():
    # f = (z - 1) / (z - 2)^2: f'/f = 1/(z-1) - 2/(z-2), (f'/f)' = -1/(z-1)^2 + 2/(z-2)^2.
    # Horner on the expanded (z - 2)^2 = z^2 - 4z + 4 loses about 8/|z - 2|^2
    # units of roundoff near the pole, so the bound is 1e-10
    f = parse_function_spec("rat:1,-1/1,-4,4")
    for z in (2.01 + 0.0j, 1.9 - 0.05j, -0.5 + 1j, 1.5 + 0.5j):
        av, ld, dld = f.abs_and_log_derivative(z)
        assert av == pytest.approx(abs(z - 1) / abs(z - 2) ** 2, rel=1e-10)
        assert abs(ld - (1 / (z - 1) - 2 / (z - 2))) <= 1e-10 * (abs(1 / (z - 1)) + abs(2 / (z - 2)))
        want = -1 / (z - 1) ** 2 + 2 / (z - 2) ** 2
        assert abs(dld - want) <= 1e-10 * (abs(1 / (z - 1) ** 2) + abs(2 / (z - 2) ** 2))


def test_log_derivative_slope_central_difference():
    rng = np.random.default_rng(11)
    h = 1e-5
    for k in range(60):
        num = random_polynomial(rng, int(rng.integers(2, 8)))
        den = random_polynomial(rng, int(rng.integers(0, 4))) if k % 2 else None
        f = RationalFn(num, den)
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        _, _, dld = f.abs_and_log_derivative(z)
        central = (f.log_derivative(z + h) - f.log_derivative(z - h)) / (2 * h)
        assert abs(central - dld) <= 1e-5 * (1 + abs(dld))


@pytest.mark.parametrize("spec", ["poly:1,0,0,0,0,-1", "poly:2-1i,0.3,-1,0.5i", "rat:1,0,-1/2-1i"])
def test_constant_denominator_skips_its_pass_exactly(monkeypatch, spec):
    f = parse_function_spec(spec)
    assert f._const_den is not None
    rng = np.random.default_rng(3)
    zs = rng.uniform(-2, 2, 40) + 1j * rng.uniform(-2, 2, 40)
    short = [f.abs_and_log_derivative(complex(z)) for z in zs]
    check = [f.abs_and_log_deriv(complex(z)) for z in zs]
    monkeypatch.setattr(f, "_const_den", None)
    assert [f.abs_and_log_derivative(complex(z)) for z in zs] == short
    assert [f.abs_and_log_deriv(complex(z)) for z in zs] == check


def test_critical_points_z5m1():
    f = parse_function_spec("poly:1,0,0,0,0,-1")
    assert f.critical_points == [(0j, 4)]


def test_critical_points_simple():
    f = parse_function_spec("poly:1,0,-1")
    assert f.critical_points == [(0j, 1)]


def test_critical_points_closed_form():
    f = parse_function_spec("poly:1,0,-1,0")  # z^3 - z
    got = sorted(z.real for z, m in f.critical_points)
    want = [-1 / math.sqrt(3), 1 / math.sqrt(3)]
    assert max(abs(a - b) for a, b in zip(got, want)) < 1e-10
    for z, _ in f.critical_points:
        assert abs(3 * z**2 - 1) < 1e-10


def test_zeros_roots_of_unity():
    f = parse_function_spec("poly:1,0,0,0,0,-1")
    zeros, poles = f.zeros, f.poles
    assert poles == []
    assert len(zeros) == 5
    for z, m in zeros:
        assert m == 1
        assert abs(z**5 - 1) < 1e-10


def test_one_over_z():
    f = parse_function_spec("rat:1/1,0")
    zeros, poles = f.zeros, f.poles
    assert zeros == []
    assert poles == [(0j, 1)]
    assert f.eval(0j) == INF


def test_blaschke_zeros_poles_domain_filtered():
    f = parse_function_spec("blaschke:0.3,-0.4i/0.5")
    zeros, poles = f.zeros, f.poles
    assert sorted((round(z.real, 6), round(z.imag, 6)) for z, _ in zeros) == [
        (0.0, -0.4),
        (0.3, 0.0),
    ]
    # only the pole inside the disk survives the domain filter
    assert [(round(p.real, 6), round(p.imag, 6)) for p, _ in poles] == [(0.5, 0.0)]
    # circle reflections land outside the disk and are excluded: the zeros
    # of B1 reflect to poles of f, the zero of B2 reflects to a zero at 2
    refl_poles = [r for r, _ in f.denominator.roots() if abs(r) > 1]
    assert any(abs(r - 10.0 / 3.0) < 1e-9 for r in refl_poles)
    assert any(abs(r + 2.5j) < 1e-9 for r in refl_poles)
    refl_zeros = [r for r, _ in f.numerator.roots() if abs(r) > 1]
    assert any(abs(r - 2.0) < 1e-9 for r in refl_zeros)


def test_root_residual_invariant():
    rng = np.random.default_rng(17)
    for _ in range(60):
        p = random_polynomial(rng, int(rng.integers(2, 10)))
        scale = 1 + float(np.max(np.abs(p.coeffs)))
        for z, m in p.roots():
            assert abs(p(z)) <= 1e-9 * scale * max(1.0, abs(z)) ** p.degree


def test_multiplicity_conservation():
    rng = np.random.default_rng(23)
    for _ in range(40):
        f = RationalFn(random_polynomial(rng, int(rng.integers(3, 8))))
        w = f.derivative_numerator
        assert sum(m for _, m in f.all_critical_points) == w.degree


def test_multiple_roots_clustered():
    p = Polynomial.from_roots([1.0, 1.0, 1.0, -2.0])
    roots = dict(p.roots())
    assert len(roots) == 2
    for r, m in roots.items():
        if abs(r - 1) < 1e-5:
            assert m == 3
        else:
            assert m == 1 and abs(r + 2) < 1e-8


def test_constant_rejected():
    with pytest.raises(FunctionSpecError):
        parse_function_spec("poly:3")


def test_common_root_rejected():
    with pytest.raises(FunctionSpecError):
        parse_function_spec("rat:1,-1/1,-1")


def test_equal_degree_blaschke_rejected():
    # the ratio of same-degree products forces a level curve through the circle
    with pytest.raises(FunctionSpecError):
        parse_function_spec("blaschke:0.5/-0.5")


def test_blaschke_zero_outside_disk_rejected():
    with pytest.raises(FunctionSpecError):
        parse_function_spec("blaschke:1.5/")


def test_blaschke_unit_modulus_sampled():
    f = parse_function_spec("blaschke:0.3,-0.4i/0.5")
    theta = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    vals = np.abs(f.eval_grid(np.exp(1j * theta)))
    assert np.max(np.abs(vals - 1.0)) < 1e-10


def test_parse_complex_literals():
    f = parse_function_spec("poly:1,-1.5-0.5i,2i")
    np.testing.assert_allclose(f.numerator.coeffs, [2j, -1.5 - 0.5j, 1.0])


def test_parse_rejects_garbage():
    for bad in ("poly:", "spam:1,2", "rat:1,2", "blaschke:/", "poly:1,zap"):
        with pytest.raises(FunctionSpecError):
            parse_function_spec(bad)


def test_domain_specs():
    plane = parse_function_spec("poly:1,0,-1")
    disk = parse_function_spec("blaschke:0.5/")
    assert not plane.disk and disk.disk
    assert plane.in_domain(1e6 + 1j) and not plane.in_domain(INF)
    assert disk.in_domain(0.999 + 0j)
    assert not disk.in_domain(1.0 + 0j) and not disk.in_domain(INF)


def test_zero_polynomial_degree_sentinel():
    assert Polynomial([0.0]).degree == float("-inf")
    assert Polynomial([0.0, 0.0]).is_zero


def test_find_roots_trailing_zero_factoring():
    # 5 z^4: exact zero root of multiplicity 4
    assert find_roots([0, 0, 0, 0, 5.0]) == [(0j, 4)]


@pytest.mark.parametrize("degree", range(10))
def test_array_evaluation_is_polyval_bitwise(degree):
    # Polynomial.__call__ on an array runs numpy's polyval Horner without its
    # set-up: the same floats, dtype and shape on real and complex points,
    # one-point arrays included, and on the (anchor, ray, distance) grid of
    # _ray_crossings
    rng = np.random.default_rng(degree)
    coeffs = rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)
    rays = np.exp(2j * np.pi * (np.arange(8) + 0.21) / 8)
    ray_grid = rng.normal(size=3)[:, None, None] + rays[:, None] * np.geomspace(1e-6, 3.2, 400)
    for c in (coeffs, coeffs.real):
        p = Polynomial(c)
        for shape in [(1,), (2,), (7,), (400,), (5, 9), (3, 8, 400)]:
            x = rng.normal(scale=2.0, size=shape)
            for z in (x, x + 1j * rng.normal(scale=2.0, size=shape), ray_grid):
                got, want = p(z), npoly.polyval(z, p.coeffs)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()


CONSTANT_DENOMINATOR_SPECS = [
    "poly:1,0,0,0,0,-1",
    "poly:2-1i,0.5,3i,-1",
    # numpy's |c| of this constant differs from Python's in the last bit
    "rat:1,2i,-1/-0.005677696061279298-0.04526492921104459i",
    "rat:1,0,1/-2.5",
]


@pytest.mark.parametrize("spec", CONSTANT_DENOMINATOR_SPECS)
def test_abs_grid_with_a_constant_denominator_is_the_two_pass_formula(spec):
    f = parse_function_spec(spec)
    rng = np.random.default_rng(5)
    for shape in [(1,), (33,), (3, 8, 400)]:
        z = rng.normal(scale=2.0, size=shape) + 1j * rng.normal(scale=2.0, size=shape)
        nv = np.abs(npoly.polyval(z, f.numerator.coeffs))
        dv = np.abs(npoly.polyval(z, f.denominator.coeffs))
        assert f.abs_grid(z).tobytes() == np.where(dv == 0.0, np.inf, nv / dv).tobytes()


@pytest.mark.parametrize("spec", CONSTANT_DENOMINATOR_SPECS)
def test_eval_grid_with_a_constant_denominator_is_the_two_pass_formula(spec):
    f = parse_function_spec(spec)
    rng = np.random.default_rng(6)
    for shape in [(1,), (33,), (3, 8, 400)]:
        z = rng.normal(scale=2.0, size=shape) + 1j * rng.normal(scale=2.0, size=shape)
        # finite inputs, contiguous and strided; the Horner pass of the
        # constant is c + z * 0, which is c at every finite z
        for zz in (z, z[..., ::3], z.real + 0j):
            nv = npoly.polyval(zz, f.numerator.coeffs)
            dv = npoly.polyval(zz, f.denominator.coeffs)
            assert f.eval_grid(zz).tobytes() == (nv / dv).tobytes()


@pytest.mark.parametrize("spec", ["poly:1,-2,0.5+1i,3", "rat:1,0,-1/1,0.5i,0.25"])
def test_each_polynomial_is_root_found_once(monkeypatch, spec):
    calls = []

    def counted(coeffs):
        calls.append(coeffs)
        return find_roots(coeffs)

    monkeypatch.setattr(funcspace, "find_roots", counted)
    f = parse_function_spec(spec)
    assert f.zeros and f.critical_points
    check_gauss_lucas(f.numerator)
    # the numerator, the denominator, the numerator of f' and the derivative
    # that check_gauss_lucas takes; for a polynomial the numerator of f' is
    # that derivative, found once
    want = 3 if f.denominator.degree == 0 else 4
    assert len(calls) == want
    zeros = f.numerator.roots()
    got = f.numerator.roots()
    got[0] = (0j, 7)
    got.append((1j, 1))
    assert f.numerator.roots() == zeros
    assert len(calls) == want


def _sqrt_bounds(x: Fraction) -> tuple[Fraction, Fraction]:
    """Fractions within 2^-200 below and above sqrt(x)."""
    s = math.isqrt(x.numerator * 4**200 // x.denominator)
    return Fraction(s, 2**200), Fraction(s + 1, 2**200)


def _exact_shift(coeffs, c: complex) -> list[tuple[Fraction, Fraction]]:
    """The exact Taylor shift b_0, ..., b_n of the float coefficients to the
    float c, each b_k as (real, imaginary) Fractions."""
    cr, ci = Fraction(c.real), Fraction(c.imag)
    b = [(Fraction(a.real), Fraction(a.imag)) for a in coeffs]
    n = len(b) - 1
    for j in range(n):
        for i in range(n - 1, j - 1, -1):
            (br, bi), (nr, ni) = b[i], b[i + 1]
            b[i] = (br + cr * nr - ci * ni, bi + cr * ni + ci * nr)
    return b


def _exact_modulus_bounds(coeffs, c: complex, r: float) -> tuple[Fraction, Fraction]:
    """Enclosures from below of |b_0| - sum_{k>=1} |b_k| r^k and from above
    of |b_0| + sum_{k>=1} |b_k| r^k, where b is the exact Taylor shift of the
    float coefficients to c."""
    rr = Fraction(r)
    mods = [_sqrt_bounds(br * br + bi * bi) for br, bi in _exact_shift(coeffs, c)]
    lower = mods[0][0] - sum(hi * rr**k for k, (_, hi) in enumerate(mods) if k)
    upper = mods[0][1] + sum(hi * rr**k for k, (_, hi) in enumerate(mods) if k)
    return lower, upper


coords = st.floats(-1.5, 1.5, allow_nan=False, allow_subnormal=False)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(["poly", "blaschke"]),
    seed=st.integers(0, 2**32 - 1),
    degree=st.integers(2, 12),
    centers=st.lists(st.builds(complex, coords, coords), min_size=1, max_size=4),
    radius=st.one_of(st.just(0.0), st.floats(1e-6, 2.0)),
)
def test_abs_bounds_enclose_the_exact_shift_and_the_disk(kind, seed, degree, centers, radius):
    rng = np.random.default_rng(seed)
    if kind == "poly":
        f = RationalFn(random_polynomial(rng, degree))
    else:
        # B1 / B2 with 1-4 and 0-3 zeros, uniform in the disk of radius 0.9
        n1, n2 = int(rng.integers(1, 5)), int(rng.integers(0, 4))
        if n1 == n2:
            reject()
        zs = 0.9 * np.sqrt(rng.uniform(size=n1 + n2)) * np.exp(2j * np.pi * rng.uniform(size=n1 + n2))
        f = RationalFn.blaschke_ratio(zs[:n1], zs[n1:])
    lo, hi = f.abs_bounds(np.array(centers), radius)
    ring = np.exp(2j * np.pi * np.arange(16) / 16)
    for c, low, high in zip(centers, lo, hi):
        lo_num, hi_num = _exact_modulus_bounds(f.numerator.coeffs, c, radius)
        lo_den, hi_den = _exact_modulus_bounds(f.denominator.coeffs, c, radius)
        assert Fraction(low) <= (lo_num / hi_den if lo_num > 0 else 0)
        assert high == math.inf or (lo_den > 0 and Fraction(high) >= hi_num / lo_den)
        # the center, a middle ring and the boundary circle
        disk = c + radius * np.concatenate([[0.0, 1.0], 0.5 * ring, ring])
        assert np.all((low <= f.abs_grid(disk)) & (f.abs_grid(disk) <= high))


def test_abs_bounds_at_zeros_and_poles():
    # z^2 - 1 has zeros at +-1; the Blaschke ratio has a pole at 0.05+0.02i
    lemniscate = parse_function_spec("poly:1,0,-1")
    lo, hi = lemniscate.abs_bounds(np.array([0.9, 1.0, -1.0, 0.0]), np.array([0.2, 0.0, 1e-3, 0.5]))
    assert list(lo[:3]) == [0.0, 0.0, 0.0] and 0.0 < lo[3] <= 0.75 and np.all(hi < math.inf)
    f = parse_function_spec("blaschke:0.36,-0.34+0.03i/0.05+0.02i")
    lo, hi = f.abs_bounds(np.array([0.05, 0.05 + 0.02j, 0.6]), 0.05)
    assert hi[0] == math.inf and hi[1] == math.inf and hi[2] < math.inf
    assert lo[2] > 0.0
    # z^2 shifted to a point c of the unit circle is c^2 + 2c w + w^2, so the
    # bounds on |w| <= 0.05 are 1 -+ (0.1 + 0.0025), each widened by under 1e-14
    lo, hi = parse_function_spec("poly:1,0,0").abs_bounds(np.array([1.0, 1j]), 0.05)
    assert np.all((lo <= 0.8975) & (lo > 0.8975 - 1e-14) & (hi >= 1.1025) & (hi < 1.1025 + 1e-14))


def _pellet_holds_exactly(coeffs, c: complex, k: int, r: float) -> bool:
    """Pellet's inequality |b_k| r^k > sum_{j != k} |b_j| r^j on the exact
    Taylor shift b of the float coefficients to the float c, with |b_k| taken
    from below and the other moduli from above."""
    rr = Fraction(r)
    mods = [
        (Fraction(0), Fraction(0)) if br == bi == 0 else _sqrt_bounds(br * br + bi * bi)
        for br, bi in _exact_shift(coeffs, c)
    ]
    return mods[k][0] * rr**k > sum(hi * rr**j for j, (_, hi) in enumerate(mods) if j != k)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(["random", "multiple", "cluster"]),
    seed=st.integers(0, 2**32 - 1),
    degree=st.integers(2, 15),
)
def test_root_disks_pass_pellet_in_exact_arithmetic(kind, seed, degree):
    rng = np.random.default_rng(seed)
    if kind == "random":
        p = random_polynomial(rng, degree)
    else:
        # k of the roots planted at one center, at 0 one time in five: equal
        # (a k-fold root) or on a circle 1e-7 to 1e-2 wide (a cluster)
        roots = rng.uniform(-1, 1, degree) + 1j * rng.uniform(-1, 1, degree)
        k = int(rng.integers(2, min(degree, 5) + 1))
        center = roots[0] if rng.uniform() < 0.8 else 0j
        spread = 0.0 if kind == "multiple" else 10 ** rng.uniform(-7, -2)
        roots[:k] = center + spread * np.exp(2j * np.pi * rng.uniform(size=k))
        p = Polynomial.from_roots(roots, rng.uniform(0.5, 2.0))
    disks = p.roots()
    assert sum(m for _, m in disks) == p.degree
    for d in disks:
        assert _pellet_holds_exactly(p.coeffs, d[0], d[1], d.radius), d
    for a, b in combinations(disks, 2):
        dr, di = Fraction(a[0].real) - Fraction(b[0].real), Fraction(a[0].imag) - Fraction(b[0].imag)
        assert dr * dr + di * di >= (Fraction(a.radius) + Fraction(b.radius)) ** 2, (a, b)


def test_three_roots_that_double_precision_cannot_separate_are_one_cluster():
    # 2e-5 apart, |b_1| r of each root stays below the rounding allowance at
    # every radius that keeps the disks apart: one certified disk holds all
    # three (3e-5 apart, they are certified one by one)
    cluster = [0.3 + 0.2j + 2e-5 / math.sqrt(3) * np.exp(2j * np.pi * t / 3) for t in range(3)]
    p = Polynomial.from_roots(cluster + [-0.7 + 0.1j, 0.5 - 0.9j])
    (c, m), *_ = [d for d in p.roots() if abs(d[0] - (0.3 + 0.2j)) < 1e-3]
    assert m == 3
    assert sorted(m for _, m in p.roots()) == [1, 1, 3]


# (spec, all critical points): each denominator has a double or triple pole,
# whose spurious roots of n'd - nd' are dropped
POLE_RULE_CASES = [
    ("rat:1,-1/1,-4,4", [(0j, 1)]),
    ("rat:1/1,-3,3,-1", []),
    (
        "rat:1,0,0,1/1,-2.2,1.21",
        [
            (-0.0832208590586099 - 0.7550064926437283j, 1),
            (-0.08322085905860988 + 0.7550064926437283j, 1),
            (3.4664417181172196 + 0j, 1),
        ],
    ),
    (
        "rat:1,2,3,4,5/1,-1.4,0.49",
        [
            (-1.3856674878712658 - 6.908934844075556e-77j, 1),
            (-0.3170534356680887 - 1.3446984975374843j, 1),
            (-0.3170534356680887 + 1.3446984975374843j, 1),
            (2.419774359207443 - 9.956824444577827e-60j, 1),
        ],
    ),
    (
        "blaschke:0.3,0.2i,0.5/0.1+0.1i,0.1+0.1i",
        [
            (-2.953856195296744 - 1.2293321239671153j, 1),
            (-0.28856047482772657 - 0.12009273233333267j, 1),
            (0.14177825484143552 + 0.38380396853744486j, 1),
            (0.3831623290679662 - 0.005576397637826603j, 1),
            (0.8469097925524764 + 2.292645933174978j, 1),
            (2.609307234164871 - 0.03797485711174582j, 1),
            (4.999999999999996 + 4.999999999999982j, 1),
        ],
    ),
]


@pytest.mark.parametrize("spec,want", POLE_RULE_CASES)
def test_spurious_roots_at_multiple_poles_are_dropped(spec, want):
    f = parse_function_spec(spec)
    assert f.all_critical_points == want
    # n'd - nd' has a root of order pm - 1 at each pole of order pm >= 2
    w = f.derivative_numerator.roots()
    for p, pm in f.denominator.roots():
        if pm >= 2:
            assert any(abs(z - p) < 1e-6 for z, _ in w)
            assert all(abs(z - p) > 1e-6 for z, _ in f.all_critical_points)


# the Blaschke ratio of a double zero 3e-3 from a pole: its derivative
# numerator also has a root near |z| = 1e5, so a cluster distance relative to
# the largest root would be 1e-2 and merge two simple critical points
DOUBLE_ZERO_NEAR_A_POLE = (
    [1.8936205382480023e-06 + 9.819073340042092e-06j] * 2 + [-0.16830128075653625 + 0.7421047765550758j],
    [-0.0020553810104348784 + 0.002365831794946803j, 0.5349782044865122 + 0.2623481824646632j],
)


def test_double_zero_near_a_pole_has_four_simple_critical_points():
    f = RationalFn.blaschke_ratio(*DOUBLE_ZERO_NEAR_A_POLE)
    want = [
        -0.14811571481791225 + 0.39760697352569596j,
        -0.004111289797460159 + 0.004743497281626962j,
        1.8936205382480031e-06 + 9.819073340042095e-06j,
        0.5238133833629314 + 0.85183304667633j,
    ]
    assert [m for _, m in f.critical_points] == [1, 1, 1, 1]
    assert max(abs(c - w) for (c, _), w in zip(f.critical_points, want)) < 1e-12
    # the last one sits 1e-16 inside the unit circle with |f(c)| = 1, so the
    # level curve |f| = 1 meets the circle
    with pytest.raises(FunctionSpecError, match="boundary restriction fails"):
        critical_level_curves(f)


def _exact_local_model(f: RationalFn, c: complex, m: int) -> tuple[Fraction, Fraction]:
    """The coefficient of w^(m+1) in n(c + w) / d(c + w), from the exact
    shifts of the float coefficients to the float c, by exact series division."""
    zero = (Fraction(0), Fraction(0))
    num, den = (_exact_shift(p.coeffs, c) + [zero] * (m + 2) for p in (f.numerator, f.denominator))
    dr, di = den[0]
    d0 = dr * dr + di * di
    q = []
    for k in range(m + 2):
        tr, ti = num[k]
        for j in range(1, k + 1):
            (ar, ai), (br, bi) = den[j], q[k - j]
            tr, ti = tr - (ar * br - ai * bi), ti - (ar * bi + ai * br)
        q.append(((tr * dr + ti * di) / d0, (ti * dr - tr * di) / d0))
    return q[m + 1]


def test_local_model_matches_the_exact_series(corpus30, lemniscate_fn, z5m1, blaschke_21):
    cluster = parse_function_spec("poly:1,-4,6,-4,1.0000001")
    for f in corpus30 + [lemniscate_fn, z5m1, blaschke_21, cluster]:
        assert [(c, m) for c, m, _ in f.critical_models] == f.critical_points
        for c, m, a in f.critical_models:
            er, ei = _exact_local_model(f, c, m)
            dr, di = Fraction(a.real) - er, Fraction(a.imag) - ei
            assert dr * dr + di * di <= Fraction(1, 10**24) * (er * er + ei * ei), (f, c, a)


@pytest.mark.parametrize("spec", ["poly:1,0,0,0,0,-1", "poly:1,-4,6,-4,1.0000001"])
def test_local_model_of_a_multiple_critical_point_is_exact(spec):
    # z^5 - 1 has a 4-fold critical point at 0, and (z - 1)^4 + 1e-7 a triple
    # one at 1: both shifts give a = 1 with no rounding
    assert parse_function_spec(spec).critical_models[0][2] == 1.0
