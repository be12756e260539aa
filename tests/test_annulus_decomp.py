import dataclasses
import math

import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest
from conftest import build_corpus

from levelcurves import (
    CertificateError,
    Polynomial,
    RationalFn,
    TopologyError,
    TraceError,
    build_phi,
    decompose,
    parse_function_spec,
    trace_component,
    verify_phi,
    winding_N,
)
from levelcurves.annulus_decomp import (
    AnnularRegion,
    _certify_loop,
    _certify_region_clean,
    _inside_inner,
    _zeros_and_poles,
)
from levelcurves import annulus_decomp
from levelcurves.funcspace import random_polynomial
from levelcurves.order_topology import CurveKind
from levelcurves.tracer import MAX_ARG_STEP, _LevelTracer


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
        assert cert.closure_discrepancy <= 1e-6


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
        assert cert.closure_discrepancy <= 1e-6
        lo, hi = cert.radii
        mods = np.abs(r.phi_grid.phi)
        assert np.all(mods > lo) and np.all(mods < hi)


@pytest.mark.parametrize("spec", ["poly:1,0,-1", "blaschke:0.36,-0.34+0.03i/0.05+0.02i"])
def test_build_phi_traces_a_region_without_loops_alike(spec):
    """A region that has no level loops yet gets them from build_phi itself,
    the same loops, winding and phi that decompose's winding_N gave."""
    f = parse_function_spec(spec)
    for r in decompose(f):
        want = build_phi(f, r)
        bare = dataclasses.replace(r, N=0, M=0, basepoint=0j, phi_grid=None)
        got = build_phi(f, bare)
        assert (bare.N, bare.M, bare.basepoint) == (r.N, r.M, r.basepoint)
        assert got.points.tobytes() == want.points.tobytes()
        assert got.phi.tobytes() == want.phi.tobytes()


def test_two_poles_inside_one_critical_curve_on_the_disk():
    # the critical curve at |f| = 9.58 holds both poles; a loop chain started
    # next to a pole underflows here
    f = parse_function_spec("blaschke:0.2709-0.4540i/0.4286-0.4842i,0.4313-0.6621i")
    regions = decompose(f)
    assert [(r.N, r.M) for r in regions] == [(1, 1), (1, -1), (2, -2), (1, -1), (1, -1)]
    certify_all(f, regions)


@pytest.mark.parametrize("spacing", [2e-5, 1e-4])
def test_critical_points_f_cannot_tell_apart_are_one_vertex(spacing):
    # f' has three simple roots about `spacing` apart, which Pellet's test
    # tells apart, but f - f(c) varies below its rounding across them: they
    # form one vertex of order 3, and the annuli certify
    cluster = [0.1 + 0.1j + spacing * np.exp(2j * np.pi * k / 3) for k in range(3)]
    coeffs = npoly.polyint(npoly.polyfromroots(cluster + [-0.6 + 0.3j, 0.5 + 0.6j]))
    coeffs[0] = 0.3 - 0.2j
    f = RationalFn(Polynomial(coeffs))
    assert [m for _, m in f.derivative_numerator.roots()] == [1, 1, 1, 1, 1]
    assert [m for _, m in f.critical_points] == [1, 3, 1]
    certify_all(f, decompose(f))


@pytest.mark.xfail(
    strict=True,
    raises=TraceError,
    reason="TraceError: could not launch from vertex (-1.888387378385972-0.9622048344853161j) along ray 2.8015",
)
def test_degree_20_draw_decomposes():
    # the fourth of random_polynomial(default_rng(7), d) for d = 15, 15, 15,
    # 20, 20, 20; the other five decompose and pass verify_phi
    rng = np.random.default_rng(7)
    for d in (15, 15, 15):
        random_polynomial(rng, d)
    f = RationalFn(random_polynomial(rng, 20))
    certify_all(f, decompose(f))


def test_blaschke_loops_keep_within_the_loop_gate(monkeypatch):
    # the march bounds a step's arg-f increment only from |f'/f| at its
    # start, and a loop at level 0.8442 has an increment of 0.876, past the
    # loop gate's pi/4; the loop certificate refines that loop, and the gate
    # holds on the refined copy
    refined = []
    refine = annulus_decomp._refine
    monkeypatch.setattr(annulus_decomp, "_refine", lambda tracer, comp: refined.append(comp.level) or refine(tracer, comp))
    f = parse_function_spec("blaschke:-0.7020-0.2053i,0.4791+0.2988i,0.2663+0.3733i/-0.6622-0.1817i")
    for r in decompose(f):
        verify_phi(f, r)
    assert any(abs(level - 0.8442) < 1e-4 for level in refined)


def test_z15_minus_1_decomposes():
    # at a tenfold finer sag face 1 of the critical curve wound -2 times
    # around a zero.  The vertex 0 of multiplicity 14 has its capture radius
    # clamped to 5e-2 of the scale, and at SAG_REL the march's steps near it
    # are longer: this passes by the step length, which the failure depends
    # on, not by a capture radius made right for such a vertex
    regions = decompose(parse_function_spec("poly:1" + ",0" * 14 + ",-1"))
    assert sorted((r.N, r.M) for r in regions) == [(1, 1)] * 15 + [(15, 15)]


def test_winding_consistent_across_levels(z5m1, z5_regions):
    outer = next(r for r in z5_regions if r.eps1 != 0.0)
    # winding_N itself checks that all its loops agree; run it fresh
    n, m = winding_N(z5m1, outer)
    assert (n, m) == (5, 5)


def test_image_coverage_z3(z3_region):
    f, r = z3_region
    grid = r.phi_grid
    lo, hi = r.image_radii()
    radii = [float(np.mean(np.abs(grid.phi[sl]))) for sl in grid.loops()]
    # one circle per loop, strictly nested from the inner boundary outward
    assert lo < radii[0] and np.all(np.diff(radii) > 0) and radii[-1] < hi
    for sl in grid.loops():
        ph = grid.phi[sl]
        gaps = np.angle(np.roll(ph, -1) / ph)
        assert np.all(gaps > 0) and np.all(gaps < math.pi / (4 * abs(r.M)))
        assert np.sum(gaps) == pytest.approx(2 * math.pi)


def test_level_curve_images_share_modulus(z5m1, z5_regions):
    outer = next(r for r in z5_regions if r.eps1 != 0.0)
    build_phi(z5m1, outer)
    cert = verify_phi(z5m1, outer)
    assert cert.level_image_spread <= 1e-9


def test_planted_branch_mismatch_fails():
    # z^2 with M = 1: phi = f passes the power identity, but alpha/M sweeps
    # 4*pi around every loop, so phi is two-to-one there
    f = parse_function_spec("poly:1,0,0")
    (r,) = decompose(f)
    r.N, r.M = 2, 1
    with pytest.raises(CertificateError, match="does not turn once"):
        verify_phi(f, r)


def _z2_region():
    f = parse_function_spec("poly:1,0,0")
    (r,) = decompose(f)
    return f, r


def test_planted_alpha_shift_fails_the_power_identity():
    f, r = _z2_region()
    r.phi_grid.alpha[3] += 0.1
    with pytest.raises(CertificateError, match="power identity fails"):
        verify_phi(f, r)


def test_planted_loop_beyond_the_outer_level_escapes_the_annulus():
    f, r = _z2_region()
    grid = r.phi_grid
    grid.f_vals[grid.loops()[-1]] *= 2.0 * r.eps2 / grid.levels[-1]
    with pytest.raises(CertificateError, match="escapes the annulus"):
        verify_phi(f, r)


def test_planted_loops_on_one_level_overlap():
    f, r = _z2_region()
    grid = r.phi_grid
    grid.f_vals[grid.loops()[0]] *= grid.levels[1] / grid.levels[0]
    with pytest.raises(CertificateError, match="ranges of distinct loops overlap"):
        verify_phi(f, r)


def test_sibling_petal_loop_fails_enclosed_set(z5m1, z5_regions):
    petals = [r for r in z5_regions if r.eps1 == 0.0]
    here, sibling = petals[0], petals[1]
    loop = trace_component(z5m1, 0.5, 1.1 * sibling.inner_boundary.point)
    zp, _ = _zeros_and_poles(z5m1)
    tracer = _LevelTracer(z5m1, 0.5, z5m1.scale)
    assert _certify_loop(z5m1, sibling, tracer, loop, zp, _inside_inner(sibling, zp)).N == 1
    with pytest.raises(TopologyError, match="encloses the zeros and poles"):
        _certify_loop(z5m1, here, tracer, loop, zp, _inside_inner(here, zp))


def test_region_holding_a_critical_point_is_refused(z5m1, z5_regions):
    # from the zero 1 straight out to the outer boundary: the band (0, eps_out)
    # holds the critical point 0, where |f(0)| = 1
    petal = next(r for r in z5_regions if r.eps1 == 0.0 and r.inner_boundary.point == pytest.approx(1.0))
    outer = next(r for r in z5_regions if r.eps1 != 0.0)
    planted = AnnularRegion(
        inner_boundary=petal.inner_boundary,
        outer_boundary=outer.outer_boundary,
        outer_face_id=outer.outer_face_id,
        eps1=0.0,
        eps2=outer.eps2,
        label="zero@1->outer",
    )
    with pytest.raises(TopologyError, match="contains distinguished point"):
        _certify_region_clean(z5m1, planted)


def test_inner_boundary_clears_the_zeros_it_encloses(z5m1, z5_regions):
    # with the band opened down to 0, the zeros whose |f| reads 2.2e-16 and
    # 2.8e-16 fall strictly inside it and inside the outer face; only the
    # inner boundary's face lookup clears them, as the petals' interiors
    outer = next(r for r in z5_regions if r.label == "critcurve@1#0->outer@4")
    opened = dataclasses.replace(outer, eps1=0.0)
    assert sum(0.0 < z5m1.abs_eval(z) < opened.eps2 for z, _ in z5m1.zeros) == 2
    _certify_region_clean(z5m1, opened)


def test_incomplete_critical_list_is_refused():
    # f' = 3z^2 - 3 has two simple roots; a list that misses one would let a
    # region hold an unseen critical point
    f = parse_function_spec("poly:1,0,-3,1")
    f.__dict__["all_critical_points"] = f.all_critical_points[1:]
    assert "critical_points" not in vars(f)
    with pytest.raises(CertificateError, match="1 missing"):
        decompose(f)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the march bounds a step's arg-f increment only from |f'/f| at its start, and "
    "never checks the step it made: 19 of the loop's 86 chords exceed MAX_ARG_STEP",
)
def test_march_keeps_each_chord_within_max_arg_step():
    # the loop of the region between the saddles -0.3205 (|f| = 0.95021) and
    # -0.488 (|f| = 0.95392), at the level where decompose's pi/4 gate saw
    # increments up to 0.804 while it traced 8 loops per region.  The whole
    # level set cannot be traced here: the corrector cannot land the seed on
    # the loop of radius 4e-10 about the zero 70.1
    f = parse_function_spec(
        "poly:0.02152207288173195,-1.5092262959174658,0.024636521891160987,0.8125416961203998,"
        "0.7807870336863958,0.8181502040703489,0.35872203290802274,1.0"
    )
    eps = 0.9530924676793712
    lo, hi = -0.488, -0.3205  # |f| falls through eps on this segment
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if f.abs_eval(complex(mid)) > eps else (lo, mid)
    comp = trace_component(f, eps, complex(lo))
    for arc in comp.arcs:
        vals = f.eval_grid(arc.points)
        assert np.max(np.angle(vals[1:] / vals[:-1])) <= MAX_ARG_STEP


def _worst_branch_jump(grid, M):
    """Largest |phi| step from a point of a loop to the nearest point of the
    loop inside it, over the gap between two branches of f^(1/M) there."""
    worst = 0.0
    loops = grid.loops()
    for a, b in zip(loops, loops[1:]):
        za, zb = grid.points[a], grid.points[b]
        near = np.argmin(np.abs(zb[:, None] - za[None, :]), axis=1)
        jump = np.abs(grid.phi[b] - grid.phi[a][near])
        r = min(np.abs(grid.phi[a]).min(), np.abs(grid.phi[b]).min())
        worst = max(worst, float(jump.max()) / (2.0 * r * math.sin(math.pi / abs(M))))
    return worst


def test_adjacent_loops_share_one_branch(z3_region, z5m1, z5_regions):
    outer = next(r for r in z5_regions if r.eps1 != 0.0)
    build_phi(z5m1, outer)
    for f, r in (z3_region, (z5m1, outer)):
        grid = r.phi_grid
        assert _worst_branch_jump(grid, r.M) < 0.5
        # alpha off by 2*pi on one interior loop puts that loop on the next branch
        loops = grid.loops()
        sl = loops[(len(loops) - 1) // 2]
        grid.alpha[sl] += 2 * math.pi
        try:
            assert _worst_branch_jump(build_phi(f, r), r.M) > 0.5
        finally:
            grid.alpha[sl] -= 2 * math.pi
            build_phi(f, r)


@pytest.mark.parametrize(
    "n,seed,index,count",
    [
        (30, 20260810, 8, 11),  # acceptance corpus function 8
        (5, 10, 4, 13),  # with the thin region between levels 1.06714 and 1.06729
        (30, 20260810, 15, 9),  # a closing chord turned arg f by 0.90 rad
        (30, 1, 24, 13),  # a closing chord turned arg f by 0.83 rad
        (30, 20260810, 14, 11),  # one half of a closing chord split once turned arg f by 0.94 rad
    ],
)
def test_corpus_regions_certify(n, seed, index, count):
    # all once failed: a loop sample inside a boundary chord's sagitta was
    # taken for a point outside the region, the thin region had no mesh, and
    # an unsplit closing chord broke the pi/4 gate on one loop
    f = build_corpus(n, seed=seed)[index]
    regions = decompose(f)
    assert len(regions) == count
    for cert in certify_all(f, regions):
        assert cert.closure_discrepancy <= 1e-6


@pytest.mark.parametrize(
    "spec,inventory",
    [
        (
            "poly:-1.284580778805345,1.0988127684144084,0.24754574096284754,0.3476505985155095,"
            "-0.8135155419815723,-0.20695643620832396,1.0",
            [1, 1, 1, 1, 1, 1, 3, 4, 6],
        ),
        (
            "poly:-0.454209119721369,0.698059671998619,-0.5156498276026669,0.9616782115907366,"
            "1.6929555515236436,1.0",
            [1, 1, 1, 1, 1, 2, 4, 5],
        ),
    ],
)
def test_tied_conjugate_critical_values(spec, inventory):
    # real coefficients: the |f| of two conjugate critical points differ by
    # an ulp, so the partner of the one that set a boundary's level falls
    # strictly inside the band although it is a vertex of that boundary
    f = parse_function_spec(spec)
    vals = sorted(f.abs_eval(c) for c, _ in f.critical_points)
    assert any(0.0 < b - a < 1e-12 for a, b in zip(vals, vals[1:]))
    regions = decompose(f)
    assert sorted(r.N for r in regions) == inventory
    assert all(r.N == r.M for r in regions)
    certify_all(f, regions)
