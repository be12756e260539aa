"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Tolerances are pinned here, not configured elsewhere.
"""

import math
import time

import numpy as np
import pytest

from levelcurves import (
    CurveRef,
    build_graph,
    build_phi,
    check_gauss_lucas,
    continuity_probe,
    critical_level_curves,
    decompose,
    face_count,
    face_of_point,
    maximal_component,
    parse_function_spec,
    replay_level_curve_argument,
    trace_level_set,
    two_curve_critical_witness,
    verify_phi,
)
from levelcurves.funcspace import random_polynomial
from levelcurves.gauss_lucas import corrupted_instance
from levelcurves.gridcheck import grid_oracle_report
from levelcurves.order_topology import CurveKind


def report(num, name, t0, budget):
    dt = time.time() - t0
    assert dt < budget, f"criterion {num} exceeded runtime budget: {dt:.1f}s"
    print(f"ACCEPTANCE {num:02d} {name}: PASS ({dt:.1f}s / budget {budget:.0f}s)")


@pytest.fixture(scope="module")
def corpus_traces(corpus30):
    """Critical-level traces and graphs for the corpus; cost booked to criterion 3."""
    state = {"functions": corpus30, "graphs": [], "elapsed": None, "C": {}}
    t0 = time.time()
    for fi, f in enumerate(corpus30):
        for c, m in f.critical_points:
            level = f.abs_eval(c)
            for comp in trace_level_set(f, level):
                state["graphs"].append((fi, build_graph(comp)))
    state["elapsed"] = time.time() - t0
    return state


def test_criterion_01_circle_law():
    t0 = time.time()
    for n in (1, 2, 3, 5):
        coeffs = "1," + ",".join("0" * n)
        f = parse_function_spec(f"poly:{coeffs}")
        for eps in (0.25, 1.0, 4.0):
            comps = trace_level_set(f, eps)
            assert len(comps) == 1
            radius = eps ** (1.0 / n)
            dev = float(np.max(np.abs(np.abs(comps[0].points) - radius)))
            assert dev < 1e-6, f"z^{n} eps={eps}: radial deviation {dev:.2e}"
    report(1, "circle law", t0, 1.0)


def test_criterion_02_z5m1_fixture(z5m1):
    t0 = time.time()
    comps = trace_level_set(z5m1, 1.0)
    assert len(comps) == 1
    g = build_graph(comps[0])
    assert len(g.vertices) == 1
    v, mult = g.vertices[0]
    assert abs(v) < 1e-6 and mult == 4
    assert len(g.edges) == 5
    assert face_count(g) == (5, 6)
    assert g.degree(0) == 10

    lo = trace_level_set(z5m1, 0.5)
    assert len(lo) == 5
    roots = [z for z, _ in z5m1.zeros]
    for comp in lo:
        glo = build_graph(comp)
        inside = [r for r in roots if face_of_point(glo, r) != glo.unbounded_face.id]
        assert len(inside) == 1

    hi = trace_level_set(z5m1, 1.5)
    assert len(hi) == 1
    ghi = build_graph(hi[0])
    assert all(face_of_point(ghi, r) != ghi.unbounded_face.id for r in roots)
    report(2, "z^5-1 critical fixture", t0, 10.0)


def test_criterion_03_face_count_formula(corpus_traces):
    t0 = time.time() - corpus_traces["elapsed"]
    assert len(corpus_traces["functions"]) == 30
    assert corpus_traces["graphs"]
    for fi, g in corpus_traces["graphs"]:
        mult_sum = sum(m for _, m in g.vertices)
        bounded = sum(1 for fc in g.faces if fc.bounded)
        assert bounded == mult_sum + 1
        assert len(g.faces) == mult_sum + 2
    report(3, f"face-count formula on {len(corpus_traces['graphs'])} graphs", t0, 120.0)


def test_criterion_04_degree_and_edge_laws(z5m1, corpus_traces):
    t0 = time.time()
    graphs = [g for _, g in corpus_traces["graphs"]]
    graphs.append(build_graph(trace_level_set(z5m1, 1.0)[0]))
    violations = 0
    for g in graphs:
        for vi, (c, m) in enumerate(g.vertices):
            if g.degree(vi) != 2 * (m + 1):
                violations += 1
        for ei in range(len(g.edges)):
            if g.dart_face[(ei, 0)] == g.dart_face[(ei, 1)]:
                violations += 1
    assert violations == 0
    report(4, f"degree/edge laws on {len(graphs)} graphs", t0, 120.0)


def test_criterion_05_gauss_lucas():
    t0 = time.time()
    rng = np.random.default_rng(424242)
    for _ in range(500):
        p = random_polynomial(rng, int(rng.integers(2, 11)))
        rep = check_gauss_lucas(p)
        scale = max(1.0, max(abs(z) for z in rep.zeros))
        assert rep.max_signed_distance <= 1e-8 * scale
    rng2 = np.random.default_rng(777)
    for _ in range(10):
        p, c, curve = corrupted_instance(rng2)
        w = replay_level_curve_argument(p, c, curve_points=curve)
        assert w.applicable and w.product1 < w.product2
    report(5, "Gauss-Lucas 500 + 10 corrupted replays", t0, 30.0)


def test_criterion_06_continuity(z5m1):
    t0 = time.time()
    cert = continuity_probe(z5m1, 1.0, 0.1)
    assert cert.passed and cert.eta > 0
    assert len(cert.samples) == 16
    assert all(d < 0.1 for _, d in cert.samples)

    fsq = parse_function_spec("poly:1,0,0")
    cert2 = continuity_probe(fsq, 1.0, 0.05)
    assert cert2.passed and cert2.eta >= 0.05
    report(6, "continuity probes", t0, 60.0)


def test_criterion_07_two_curve_witness(corpus_traces):
    t0 = time.time()
    done = 0
    for f in corpus_traces["functions"]:
        if done >= 50:
            break
        lo_level = 0.6 * min(f.abs_eval(c) for c, _ in f.critical_points)
        comps = trace_level_set(f, lo_level)
        refs = [
            CurveRef(CurveKind.LEVEL_CURVE, lo_level, component=c, label=f"o{i}")
            for i, c in enumerate(comps)
        ]
        C = corpus_traces["C"].setdefault(id(f), critical_level_curves(f))
        for i in range(len(refs)):
            for j in range(i + 1, len(refs)):
                if done >= 50:
                    break
                w, f1, f2 = two_curve_critical_witness(f, refs[i], refs[j], C)
                assert f1 != f2
                g = w.graph()
                for ref, fid in ((refs[i], f1), (refs[j], f2)):
                    pts = ref.all_points()
                    samples = pts[np.linspace(0, len(pts) - 1, 8).astype(int)]
                    assert all(face_of_point(g, complex(s)) == fid for s in samples)
                done += 1
    assert done == 50
    report(7, "two-curve witnesses on 50 pairs", t0, 120.0)


def test_criterion_08_unique_maximal(corpus_traces):
    t0 = time.time()
    for f in corpus_traces["functions"]:
        C = corpus_traces["C"].setdefault(id(f), critical_level_curves(f))
        maximal_component(f, C=C)  # raises on zero or two maximal elements
    report(8, "unique maximal element on 30 functions", t0, 120.0)


def test_criterion_09_annulus_phi(z5m1, blaschke_21):
    t0 = time.time()
    cases = [
        (parse_function_spec("poly:1,0,0"), {(0.0, 2, 2)}),
        (parse_function_spec("poly:1,0,0,0"), {(0.0, 3, 3)}),
        (z5m1, {(0.0, 1, 1), (1.0, 5, 5)}),
        (blaschke_21, None),
    ]
    for f, expected in cases:
        regions = decompose(f)
        inventory = []
        for region in regions:
            build_phi(f, region)
            cert = verify_phi(f, region)
            grid = region.phi_grid
            max_f = float(np.max(np.abs(grid.f_vals)))
            assert cert.max_power_residual <= 1e-8 * (1.0 + max_f)
            assert grid.closure_discrepancy <= 1e-6
            lo, hi = region.image_radii()
            mods = np.abs(grid.phi)
            assert np.all(mods > lo) and np.all(mods < hi)
            inventory.append(
                (region.eps1 if math.isfinite(region.eps1) else math.inf, region.N, region.M)
            )
        if expected is not None:
            assert {(e, n, m) for e, n, m in inventory} >= expected
        else:
            # Blaschke 2/1: two zero petals, one pole petal with M = -N,
            # the middle annulus with N = 2, the rim with N = 1
            assert sorted(m for _, _, m in inventory) == [-1, 1, 1, 1, 2]
    report(9, "annulus decomposition and phi", t0, 120.0)


def test_criterion_10_grid_oracle(z5m1, lemniscate_fn, blaschke_21):
    t0 = time.time()
    fixtures = [
        (parse_function_spec("poly:1,0"), 1.0),
        (parse_function_spec("poly:1,0,0"), 4.0),
        (parse_function_spec("poly:1,0,0,0"), 1.0),
        (z5m1, 0.5),
        (z5m1, 1.0),
        (z5m1, 1.5),
        (lemniscate_fn, 1.0),
        (blaschke_21, 0.5),
    ]
    for f, eps in fixtures:
        comps = trace_level_set(f, eps)
        rep = grid_oracle_report(f, eps, comps)
        assert rep.ok, (
            f"{f!r} eps={eps}: cell->trace {rep.max_cell_to_trace:.4g}, "
            f"trace->cell {rep.max_trace_to_cell:.4g}, threshold {rep.threshold:.4g}"
        )
    report(10, "grid-oracle equivalence on 8 fixtures", t0, 120.0)
