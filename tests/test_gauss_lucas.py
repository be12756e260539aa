import math

import numpy as np
import pytest

from levelcurves import (
    CertificateError,
    Polynomial,
    RationalFn,
    check_gauss_lucas,
    replay_level_curve_argument,
    trace_component,
)
from levelcurves.funcspace import random_polynomial
from levelcurves.gauss_lucas import _normalize_outside_hull, convex_hull, corrupted_instance, hull_signed_distance
from levelcurves.geometry import horizontal_crossings


def test_z3_minus_z_critical_points_on_segment_hull():
    p = Polynomial([0, -1, 0, 1])  # z^3 - z
    rep = check_gauss_lucas(p)
    got = sorted(c.real for c in rep.critical_points)
    assert max(abs(a - b) for a, b in zip(got, [-1 / math.sqrt(3), 1 / math.sqrt(3)])) < 1e-9
    # collinear zeros make a degenerate (empty-interior) hull, so the signed
    # distance bottoms out at 0 rather than going negative
    assert 0.0 <= rep.max_signed_distance <= 1e-8


def test_pure_power_degenerate_hull():
    p = Polynomial([0, 0, 0, 0, 1])  # z^4
    rep = check_gauss_lucas(p)
    assert rep.hull == [0j]
    assert rep.max_signed_distance <= 1e-10


def test_z5m1_strictly_inside_pentagon():
    p = Polynomial([-1, 0, 0, 0, 0, 1])
    rep = check_gauss_lucas(p)
    assert len(rep.hull) == 5
    assert rep.max_signed_distance < -0.5  # the centroid sits deep inside


def test_random_corpus_containment():
    rng = np.random.default_rng(1)
    for _ in range(120):
        p = random_polynomial(rng, int(rng.integers(2, 11)))
        rep = check_gauss_lucas(p)
        scale = max(1.0, max(abs(z) for z in rep.zeros))
        assert rep.max_signed_distance <= 1e-8 * scale


def test_violation_is_hard_error(monkeypatch):
    # sanity that the gate actually raises: corrupt the hull test by shrinking
    p = Polynomial([0, -1, 1])  # z^2 - z, critical point 1/2
    import levelcurves.gauss_lucas as gl

    orig = gl.convex_hull

    def shrunk(points):
        return [0.01 * v for v in orig(points)]

    monkeypatch.setattr(gl, "convex_hull", shrunk)
    with pytest.raises(CertificateError):
        gl.check_gauss_lucas(p)


def test_monotone_product_along_horizontal_rays():
    rng = np.random.default_rng(6)
    for _ in range(50):
        zeros = rng.uniform(-0.7, 0.7, 5) + 1j * rng.uniform(-0.7, 0.7, 5)
        s = rng.uniform(-0.9, 0.9)
        xs = np.sort(rng.uniform(1.0 + 1e-6, 4.0, 6))
        prods = [np.prod(np.abs(x + 1j * s - zeros)) for x in xs]
        assert all(a < b for a, b in zip(prods, prods[1:]))


def test_replay_not_applicable_inside_hull():
    p = Polynomial([0, -1, 0, 1])
    w = replay_level_curve_argument(p, 1 / math.sqrt(3), curve_points=[])
    assert not w.applicable
    assert "inside hull" in w.reason


def test_replay_not_applicable_for_all_genuine_critical_points():
    rng = np.random.default_rng(30)
    for _ in range(50):
        p = random_polynomial(rng, int(rng.integers(3, 8)))
        for c, _ in p.deriv().roots():
            w = replay_level_curve_argument(p, c, curve_points=[])
            assert not w.applicable


def test_replay_on_corrupted_instances_strict():
    rng = np.random.default_rng(77)
    for _ in range(10):
        p, c, curve = corrupted_instance(rng)
        w = replay_level_curve_argument(p, c, curve_points=curve)
        assert w.applicable
        assert w.z1.real > 1.0 and w.z2.real > w.z1.real
        assert abs(w.z1.imag - w.z2.imag) < 1e-9
        assert w.product1 < w.product2


def test_replay_pair_lies_on_the_supplied_curve():
    # draw 18 had on-curve pairs only at heights a sampled search missed
    rng = np.random.default_rng(77)
    for _ in range(25):
        p, c, curve = corrupted_instance(rng)
        w = replay_level_curve_argument(p, c, curve_points=curve)
        fwd = _normalize_outside_hull([z for z, m in p.roots() for _ in range(m)], c)[0]
        crossings = horizontal_crossings(fwd(curve), w.s)
        assert w.z1 in crossings and w.z2 in crossings
        assert 1.0 < w.z1.real < w.z2.real
        assert w.product1 < w.product2


def test_replay_refuses_a_genuine_level_curve():
    # on a level curve of p no two points share a height right of Re = 1
    rng = np.random.default_rng(40)
    for _ in range(10):
        # four zeros uniform in |z| < 0.9, c outside their hull
        zeros = 0.9 * np.sqrt(rng.uniform(0, 1, 4)) * np.exp(2j * np.pi * rng.uniform(0, 1, 4))
        p = Polynomial.from_roots(zeros)
        c = complex(rng.uniform(1.5, 3.0), rng.uniform(-0.5, 0.5))
        curve = trace_component(RationalFn(p), abs(p(c)), c).points
        with pytest.raises(CertificateError, match="no two points at one height right of Re = 1"):
            replay_level_curve_argument(p, c, curve_points=curve)


def test_hull_helpers():
    square = [1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j, 0j, 0.5 + 0.5j]
    hull = convex_hull(square)
    assert len(hull) == 4
    assert hull_signed_distance(hull, 0j) == pytest.approx(-1.0)
    assert hull_signed_distance(hull, 3 + 0j) == pytest.approx(2.0)
