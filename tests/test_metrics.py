import math

import numpy as np
import pytest

from levelcurves import continuity_probe, hausdorff, parse_function_spec
from levelcurves.metrics import hausdorff_between_curves


def test_identity_distance_zero():
    rng = np.random.default_rng(0)
    X = rng.normal(size=40) + 1j * rng.normal(size=40)
    r = hausdorff(X, X)
    assert r.d_check == 0.0 and r.d1 == 0.0 and r.d2 == 0.0


def test_empty_side_is_infinite():
    assert hausdorff([], [0j]).d_check == math.inf
    assert hausdorff([1j], []).d_check == math.inf
    assert hausdorff([], []).d_check == math.inf


def test_concentric_circles():
    t = np.linspace(0, 2 * np.pi, 1001)[:-1]
    X = np.exp(1j * t)
    Y = 1.1 * np.exp(1j * t)
    r = hausdorff(X, Y)
    assert 0.1 - 1e-12 <= r.d_check <= 0.1 + 2 * np.pi / 1000


def test_pseudometric_properties():
    rng = np.random.default_rng(8)
    for _ in range(100):
        sizes = rng.integers(1, 25, size=3)
        X, Y, Z = (rng.normal(size=s) + 1j * rng.normal(size=s) for s in sizes)
        dxy = hausdorff(X, Y).d_check
        dyx = hausdorff(Y, X).d_check
        assert dxy == dyx
        assert hausdorff(X, X).d_check == 0.0
        dxz = hausdorff(X, Z).d_check
        dzy = hausdorff(Z, Y).d_check
        assert dxy <= dxz + dzy + 1e-12


def test_refinement_never_inflates_much():
    # refining the sampling of both curves changes d-check by at most one step
    t_coarse = np.linspace(0, 2 * np.pi, 101)[:-1]
    t_fine = np.linspace(0, 2 * np.pi, 1001)[:-1]
    Y_c, Y_f = 1.3 * np.exp(1j * t_coarse), 1.3 * np.exp(1j * t_fine)
    X_c, X_f = np.exp(1j * t_coarse), np.exp(1j * t_fine)
    d_coarse = hausdorff(X_c, Y_c).d_check
    d_fine = hausdorff(X_f, Y_f).d_check
    step = 2 * np.pi * 1.3 / 100
    assert d_fine <= d_coarse + step


def test_between_curves_reports_discretization():
    t = np.linspace(0, 2 * np.pi, 51)[:-1]
    rep = hausdorff_between_curves(np.exp(1j * t), 2 * np.exp(1j * t))
    assert rep.discretization > 0
    assert rep.d_check >= 1.0 - 1e-9


def test_probe_square_function():
    f = parse_function_spec("poly:1,0,0")
    cert = continuity_probe(f, 1.0, 0.05)
    assert cert.passed
    # |zeta^(1/2) - 1| < 0.05 holds on (0.9, 1.1), so eta >= 0.05 must verify
    assert cert.eta >= 0.05
    assert len(cert.samples) == 16
    assert all(d < 0.05 for _, d in cert.samples)


def test_probe_huge_delta_trivial():
    f = parse_function_spec("poly:1,0,0")
    cert = continuity_probe(f, 1.0, 50.0)
    assert cert.passed and cert.eta == pytest.approx(0.5)


def test_probe_certificate_dict():
    f = parse_function_spec("poly:1,0,0")
    d = continuity_probe(f, 1.0, 0.3).to_dict()
    assert set(d) == {"eps", "delta", "eta", "pass", "samples"}
