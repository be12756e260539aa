import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from levelcurves import (
    CertificateError,
    build_phi,
    decompose,
    parse_function_spec,
    verify_phi,
    winding_N,
)
from levelcurves.annulus_decomp import AnnularRegion, _comb, _edge_ends, _finish_phi, _wrap
from levelcurves.config import DEFAULT_TOLS
from levelcurves.order_topology import CurveKind, CurveRef


def certify_all(f, regions):
    out = []
    for r in regions:
        build_phi(f, r)
        out.append(verify_phi(f, r))
    return out


@pytest.fixture(scope="module")
def z5_regions(z5m1):
    return decompose(z5m1)


@pytest.fixture(scope="module")
def z3_region():
    f = parse_function_spec("poly:1,0,0,0")
    (r,) = decompose(f)
    build_phi(f, r)
    return f, r


@pytest.fixture(scope="module")
def blaschke_regions(blaschke_21):
    return decompose(blaschke_21)


def test_square_single_region():
    f = parse_function_spec("poly:1,0,0")
    regions = decompose(f)
    assert len(regions) == 1
    r = regions[0]
    assert r.inner_boundary.kind is CurveKind.POINT
    assert r.eps1 == 0.0
    assert r.N == 2 and r.M == 2


def test_square_phi_is_identity_up_to_branch():
    f = parse_function_spec("poly:1,0,0")
    (r,) = decompose(f)
    grid = build_phi(f, r)
    # phi^2 == z^2 exactly; the basepoint fixes one square-root branch, so
    # phi == omega * z for a single second root of unity omega
    omega = grid.phi[grid.basepoint_index] / grid.points[grid.basepoint_index]
    assert abs(omega**2 - 1.0) < 1e-10
    assert float(np.max(np.abs(grid.phi - omega * grid.points))) < 1e-10
    assert float(np.max(np.abs(grid.phi**2 - grid.f_vals))) < 1e-10


def test_cube_winding_three(z3_region):
    f, r = z3_region
    assert r.N == 3 and r.M == 3
    cert = verify_phi(f, r)
    assert cert.max_power_residual <= cert.power_gate


def test_z5m1_all_regions(z5m1, z5_regions):
    regions = z5_regions
    assert len(regions) == 6
    petals = [r for r in regions if r.eps1 == 0.0]
    outer = [r for r in regions if r.eps1 != 0.0]
    assert len(petals) == 5 and len(outer) == 1
    assert all(r.N == 1 and r.M == 1 for r in petals)
    assert outer[0].N == 5 and outer[0].M == 5

    for cert in certify_all(z5m1, regions):
        assert cert.max_power_residual <= cert.power_gate
        assert cert.tree_discrepancy <= 1e-6
        assert cert.cycle_discrepancy <= 1e-6
        assert cert.radii_ok and cert.injectivity_ok


def test_petal_phi_equals_f_when_N_is_one(z5m1, z5_regions):
    petal = next(r for r in z5_regions if r.eps1 == 0.0)
    grid = build_phi(z5m1, petal)
    assert float(np.max(np.abs(grid.phi - grid.f_vals))) < 1e-12


def test_pole_region_sign():
    f = parse_function_spec("rat:1/1,0")  # 1/z
    (r,) = decompose(f)
    assert math.isinf(r.eps1)
    assert r.N == 1 and r.M == -1
    grid = build_phi(f, r)
    cert = verify_phi(f, r)
    assert cert.max_power_residual <= cert.power_gate
    # the branch of f^(1/M) = f^(-1) is the identity here
    assert float(np.max(np.abs(grid.phi - grid.points))) < 1e-10
    lo, hi = cert.radii
    assert lo == 0.0 and hi == pytest.approx(r.eps2 ** (1.0 / r.M))


def test_blaschke_region_inventory(blaschke_21, blaschke_regions):
    regions = blaschke_regions
    assert len(regions) == 5
    by_kind = {}
    for r in regions:
        key = (r.inner_boundary.kind, math.isinf(r.eps1))
        by_kind.setdefault(key, []).append(r)
    zero_petals = by_kind[(CurveKind.POINT, False)]
    pole_petals = by_kind[(CurveKind.POINT, True)]
    assert len(zero_petals) == 2 and len(pole_petals) == 1
    assert all(r.M == 1 for r in zero_petals)
    assert pole_petals[0].M == -1
    # the region between the two critical curves encloses both zeros
    mid = [
        r
        for r in regions
        if r.inner_boundary.kind is CurveKind.LEVEL_CURVE
        and r.outer_boundary.kind is CurveKind.LEVEL_CURVE
    ]
    assert len(mid) == 1 and mid[0].N == 2 and mid[0].M == 2
    # outer annulus to the unit circle: 2 zeros - 1 pole
    rim = [r for r in regions if r.outer_boundary.kind is CurveKind.BOUNDARY]
    assert len(rim) == 1 and rim[0].N == 1 and rim[0].M == 1 and rim[0].eps2 == 1.0


def test_blaschke_certificates(blaschke_21, blaschke_regions):
    regions = blaschke_regions
    for r, cert in zip(regions, certify_all(blaschke_21, regions)):
        max_f = float(np.max(np.abs(r.phi_grid.f_vals)))
        assert cert.max_power_residual <= 1e-8 * (1.0 + max_f)
        assert cert.tree_discrepancy <= 1e-6 and cert.cycle_discrepancy <= 1e-6
        lo, hi = cert.radii
        mods = np.abs(r.phi_grid.phi)
        assert np.all(mods > lo) and np.all(mods < hi)


def test_winding_consistent_across_levels(z5m1, z5_regions):
    outer = next(r for r in z5_regions if r.eps1 != 0.0)
    # winding_N itself checks three levels agree; run it fresh
    n, m = winding_N(z5m1, outer, return_sign=True)
    assert (n, m) == (5, 5)


def test_image_coverage_z3(z3_region):
    f, r = z3_region
    grid = r.phi_grid
    lo, hi = r.image_radii()
    mods = np.sort(np.abs(grid.phi))
    # |phi| sweeps the annulus: interior gaps at the mesh scale, and the
    # unreachable sliver at the punctured end stays within the 15%-width
    # exclusion rule plus one spacing
    gaps = np.diff(np.concatenate([mods, [hi]]))
    assert float(np.max(gaps)) / (hi - lo) < 0.05
    assert mods[0] / (hi - lo) < 0.2


def test_level_curve_images_share_modulus(z5m1, z5_regions):
    outer = next(r for r in z5_regions if r.eps1 != 0.0)
    grid = build_phi(z5m1, outer)
    cert = verify_phi(z5m1, outer)
    assert cert.level_image_spread <= 1e-9


def _flood_fill(mask):
    """Reference labelling: a flood fill from each unvisited point in row-major
    order, and the largest component (the first one found on a tie)."""
    labels = np.full(mask.shape, -1)
    best: list[tuple[int, int]] = []
    ny, nx = mask.shape
    for i0 in range(ny):
        for j0 in range(nx):
            if not mask[i0, j0] or labels[i0, j0] >= 0:
                continue
            stack = [(i0, j0)]
            labels[i0, j0] = labels.max() + 1
            comp = []
            while stack:
                i, j = stack.pop()
                comp.append((i, j))
                for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    a, b = i + di, j + dj
                    if 0 <= a < ny and 0 <= b < nx and mask[a, b] and labels[a, b] < 0:
                        labels[a, b] = labels[i0, j0]
                        stack.append((a, b))
            if len(comp) > len(best):
                best = comp
    largest = np.zeros_like(mask)
    for i, j in best:
        largest[i, j] = True
    return labels, largest


masks = st.tuples(st.integers(1, 14), st.integers(1, 14)).flatmap(lambda shape: arrays(bool, shape))


@settings(max_examples=300, deadline=None)
@given(mask=masks, slope=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)))
def test_comb_labels_match_flood_fill(mask, slope):
    rows, cols = np.indices(mask.shape)
    exact = slope[0] * cols + slope[1] * rows  # every increment below pi
    labels, alpha = _comb(mask, _wrap(exact))
    want, largest = _flood_fill(mask)
    assert np.all(labels[~mask] == -1) and np.all(np.isnan(alpha[~mask]))
    if not mask.any():
        return
    # the same partition, numbered in the same row-major order
    assert np.array_equal(np.unique(labels[mask], return_inverse=True)[1], want[mask])
    # build_phi's choice: the largest component, the first one on a tie
    assert np.array_equal(labels == np.argmax(np.bincount(labels[mask])), largest)
    # the column-run tree (a transposed, non-contiguous view) finds the same
    # components, and on each one both trees recover the unwrapped field up
    # to one multiple of 2*pi
    labels_t, alpha_t = (a.T for a in _comb(mask.T, _wrap(exact).T))
    pairs = set(zip(labels[mask], labels_t[mask]))
    assert len(pairs) == len(set(labels[mask])) == len(set(labels_t[mask]))
    for k in np.unique(labels[mask]):
        for part in ((alpha - exact)[labels == k], (alpha_t - exact)[labels == k]):
            assert np.max(np.abs(part - part[0])) < 1e-9
            assert abs(part[0] / (2 * math.pi) - round(part[0] / (2 * math.pi))) < 1e-9


def _power_annulus(planted=None, n=121):
    """(z - c)^5 on a grid annulus 0.3 < |z - c| < 1 around c, optionally
    times (z - planted) with a small disk around the planted zero left out."""
    c = 0.2 - 0.1j
    xs = np.linspace(c.real - 1.1, c.real + 1.1, n)
    ys = np.linspace(c.imag - 1.1, c.imag + 1.1, n)
    h = xs[1] - xs[0]
    Z = xs[None, :] + 1j * ys[:, None]
    mask = (np.abs(Z - c) > 0.3) & (np.abs(Z - c) < 1.0)
    f_grid = (Z - c) ** 5
    if planted is not None:
        mask &= np.abs(Z - planted) > 4.0 * h
        f_grid = f_grid * (Z - planted)
    f_grid = np.where(mask, f_grid, 0.0)
    region = AnnularRegion(
        inner_boundary=CurveRef(CurveKind.POINT, 0.0, point=c),
        outer_boundary=CurveRef(CurveKind.BOUNDARY, 1.0),
        outer_face_id=None,
        eps1=0.0,
        eps2=1.0,
    )
    labels, alpha = _comb(mask, np.angle(f_grid))
    assert set(np.unique(labels[mask])) == {labels[mask][0]}  # one component
    return region, Z, mask, f_grid, alpha, h


def test_every_edge_residue_vanishes_mod_2pi_N():
    region, Z, mask, f_grid, alpha, h = _power_annulus()
    grid = _finish_phi(region, Z, mask, f_grid, alpha, h, 5, 5, DEFAULT_TOLS)
    n_edges = np.sum(mask[:, :-1] & mask[:, 1:]) + np.sum(mask[:-1] & mask[1:])
    assert grid.n_cycle_samples == n_edges
    assert grid.cycle_discrepancy <= 1e-12 and grid.tree_discrepancy <= 1e-12
    # the tree does not close around the hole: some edges carry +-10*pi, which
    # only the reduction mod 2*pi*N forgives
    t0, t1 = _edge_ends(np.angle(f_grid), mask)
    a0, a1 = _edge_ends(alpha, mask)
    residue = (a0 + _wrap(t1 - t0) - a1) / (10 * math.pi)
    assert np.max(np.abs(residue - np.round(residue))) <= 1e-12
    assert np.max(np.abs(residue)) == pytest.approx(1.0)
    assert float(np.max(np.abs(grid.phi**5 - grid.f_vals))) <= 1e-12


def test_planted_zero_fails_the_cycle_certificate():
    # one more zero inside the annulus: loops around it turn by 2*pi, which
    # is not a multiple of 2*pi*N = 10*pi, and every edge is checked
    region, Z, mask, f_grid, alpha, h = _power_annulus(planted=0.8 - 0.1j)
    with pytest.raises(CertificateError, match=r"cycles 6\.28e\+00"):
        _finish_phi(region, Z, mask, f_grid, alpha, h, 5, 5, DEFAULT_TOLS)
    assert region.phi_grid is None
