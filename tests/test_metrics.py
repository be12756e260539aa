import math
from unittest import mock

import numpy as np
import pytest
from conftest import build_corpus
from hypothesis import given, settings
from hypothesis import strategies as st

from levelcurves import (
    RationalFn,
    TraceError,
    continuity_probe,
    geometry,
    hausdorff,
    metrics,
    parse_function_spec,
    trace_level_set,
)
from levelcurves.geometry import SegmentIndex
from levelcurves.metrics import (
    K_SAMPLES,
    REFINE_ROUNDS,
    ContinuityCertificate,
    HausdorffReport,
    hausdorff_between_curves,
)
from levelcurves.tracer import _LevelTracer, _domain_scale, _near, _trace_component_with


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
    # |z^2| = 1 and |z^2| = 4 are the circles of radius 1 and 2
    f = parse_function_spec("poly:1,0,0")
    (inner,), (outer,) = trace_level_set(f, 1.0), trace_level_set(f, 4.0)
    rep = hausdorff_between_curves(inner.arcs, outer)
    assert rep.discretization == max(inner.sag, outer.sag) > 0
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


coords = st.floats(-1.0, 1.0, allow_nan=False, allow_subnormal=False)
point_sets = st.lists(st.builds(complex, coords, coords), max_size=30)


def _two_index_hausdorff(X, Y):
    """(d1, d2, d-check) between point sets, each side by an index over the
    other set, kept as the reference for the d-check on point sets."""
    xs, ys = np.array(X, dtype=complex), np.array(Y, dtype=complex)
    if not xs.size or not ys.size:
        return math.inf, math.inf, math.inf
    d1 = SegmentIndex(ys[:, None]).max_distance(xs)
    d2 = SegmentIndex(xs[:, None]).max_distance(ys)
    return d1, d2, max(d1, d2)


@settings(max_examples=200, deadline=None)
@given(X=point_sets, Y=point_sets, frac=st.floats(0.0, 1.5), pick=st.integers(0, 3))
def test_bounded_hausdorff_is_exact_up_to_the_bound(X, Y, frac, pick):
    full = _two_index_hausdorff(X, Y)
    # the bound lands on d1 or d2 exactly, or anywhere up to past d-check
    upto = [full[0], full[1], frac * full[2], frac][pick] if X and Y else frac
    # a 2-D array is a point set
    stacks = np.array(X, dtype=complex)[:, None], np.array(Y, dtype=complex)[:, None]
    # a tiny block budget sends small inputs through the grid search too
    for block in (8, geometry._BLOCK_PAIRS):
        with mock.patch.object(geometry, "_BLOCK_PAIRS", block):
            reps = hausdorff(X, Y, upto), hausdorff_between_curves(*stacks, upto)
        for rep in reps:
            assert rep.discretization == 0.0
            for got, want in zip((rep.d1, rep.d2, rep.d_check), full):
                assert got == (want if want <= upto else math.inf)


def _nearest_first_probe(f, eps, delta):
    """The probe's search with every trial audited in full, nearest first
    (k = 1..K_SAMPLES), with unbounded d-checks plus the discretization: the reference for the
    farthest-pair search and its deferred inner audits."""
    component = max(trace_level_set(f, eps), key=lambda c: c.total_length())

    def trial(eta):
        samples = []
        for k in range(1, K_SAMPLES + 1):
            for sign in (+1.0, -1.0):
                zeta = eps + sign * eta * k / K_SAMPLES
                try:
                    union = metrics._nearby_curves_union(f, zeta, component, delta)
                except TraceError:
                    return False, samples
                rep = hausdorff_between_curves(union, component.arcs)
                samples.append((zeta, rep.d_check))
                if rep.d_check + rep.discretization >= delta:
                    return False, samples
        return True, samples

    eta, best = eps / 2.0, None
    while eta >= metrics.ETA_FLOOR_REL * eps:
        ok, samples = trial(eta)
        if ok:
            best, best_samples = eta, samples
            break
        eta *= 0.5
    if best is None:
        return ContinuityCertificate(eps, delta, 0.0, [], False)
    lo, hi = best, min(2.0 * best, eps / 2.0)
    for _ in range(REFINE_ROUNDS):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        ok, samples = trial(mid)
        if ok:
            lo, best, best_samples = mid, mid, samples
        else:
            hi = mid
    return ContinuityCertificate(eps, delta, best, best_samples, True)


def _corpus_f20():
    f = build_corpus(21)[20]
    return f, 0.6 * min(f.abs_eval(c) for c, _ in f.critical_points)


@pytest.mark.parametrize(
    "case",
    [
        lambda: (parse_function_spec("poly:1,0,0"), 1.0, 0.05),
        lambda: (parse_function_spec("poly:1,0,-1"), 1.0, 0.1),
        # a non-dyadic eps, where a sort by |zeta - eps| would swap the +/- pairs
        lambda: (*_corpus_f20(), 0.1),
        # its refinement passes trials below the returned eta, whose inner audits are skipped
        lambda: (parse_function_spec("poly:1,0,0,0,0,-1"), 1.0, 0.1),
    ],
    ids=["z2", "lemniscate", "corpus-f20", "z5m1"],
)
def test_probe_matches_nearest_first_reference(case):
    f, eps, delta = case()
    got = continuity_probe(f, eps, delta).to_dict()
    want = _nearest_first_probe(f, eps, delta).to_dict()
    assert got["pass"] and (got["eta"], got["pass"]) == (want["eta"], want["pass"])
    assert [s["zeta"] for s in got["samples"]] == [s["zeta"] for s in want["samples"]]
    for g, w in zip(got["samples"], want["samples"]):
        assert abs(g["d_check"] - w["d_check"]) <= 1e-11


def _interleaved_union(f, zeta, component, delta):
    """The union traced with each seed checked against every component so
    far as soon as it is corrected, kept as the reference for the seed loop."""
    tracer = _LevelTracer(f, zeta, _domain_scale(f, [component.points[0]]))
    comps = []
    for arc in component.arcs:
        pts = arc.points
        mid = pts[len(pts) // 2]
        tangent = pts[min(len(pts) // 2 + 1, len(pts) - 1)] - pts[len(pts) // 2 - 1]
        if tangent == 0:
            continue
        normal = 1j * tangent / abs(tangent)
        for off in (0.0, 0.25 * delta, -0.25 * delta, 0.75 * delta, -0.75 * delta):
            z, _, _ = tracer.correct(mid + off * normal)
            if z is None or any(_near(c, [z])[0] for c in comps):
                continue
            if abs(z - mid) > 4.0 * delta + 1.0:
                continue
            comps.append(_trace_component_with(tracer, z))
    return [a for c in comps for a in c.arcs]


BENCH_PROBES = {
    "lemniscate": ("poly:1,0,-1", 1.0, 0.1),
    "z2": ("poly:1,0,0", 1.0, 0.05),
    "z5m1": ("poly:1,0,0,0,0,-1", 1.0, 0.1),
}


@pytest.mark.parametrize("name", list(BENCH_PROBES))
def test_union_matches_interleaved_reference(name):
    spec, eps, delta = BENCH_PROBES[name]
    f = parse_function_spec(spec)
    component = max(trace_level_set(f, eps), key=lambda c: c.total_length())
    # both sides of eps; z^5-1 has five loops just below 1 and one curve just above
    for zeta in (eps * (1.0 + s * r) for r in (1e-5, 0.02, 0.1) for s in (1.0, -1.0)):
        got = metrics._nearby_curves_union(f, zeta, component, delta)
        want = _interleaved_union(f, zeta, component, delta)
        assert len(got) == len(want)
        assert all(np.array_equal(g.points, w.points) for g, w in zip(got, want))
        if name == "z5m1" and abs(zeta - eps) < 1e-4:
            assert len(got) == (5 if zeta < eps else 1)


# the eta each bench probe certifies, which moves with the chord sag SAG_REL
PINNED_ETAS = {"lemniscate": 0.0084228515625, "z2": 0.08984375, "z5m1": 4.76837158203125e-06}


@pytest.mark.parametrize("name", list(PINNED_ETAS))
def test_bench_probe_results_are_pinned(name):
    spec, eps, delta = BENCH_PROBES[name]
    eta = PINNED_ETAS[name]
    cert = continuity_probe(parse_function_spec(spec), eps, delta)
    # eta comes from bisection on eps / 2, an exact binary fraction of it
    assert cert.passed and cert.eta == eta
    assert len(cert.samples) == 2 * K_SAMPLES


def _count_unions(monkeypatch) -> list[float]:
    """The levels the probe traces near its component, in call order."""
    zetas = []
    traced = metrics._nearby_curves_union

    def counted(f, zeta, *args):
        zetas.append(zeta)
        return traced(f, zeta, *args)

    monkeypatch.setattr(metrics, "_nearby_curves_union", counted)
    return zetas


_abs_bounds = RationalFn.abs_bounds


def _vacuous_bounds(f, centers, radius):
    """``RationalFn.abs_bounds`` with nothing known on the probe's disks:
    0 <= |f| <= inf.  The radius-0 windows of the on-level test
    (``RationalFn.critical_windows``) are left as they are."""
    if radius == 0.0:
        return _abs_bounds(f, centers, radius)
    n = len(centers)
    return np.zeros(n), np.full(n, math.inf)


def test_failing_trial_stops_at_its_farthest_level(monkeypatch):
    f = parse_function_spec("poly:1,0,0")
    zetas = _count_unions(monkeypatch)
    with monkeypatch.context() as m:
        # with no disk bound every height the search decides is traced
        m.setattr(RationalFn, "abs_bounds", _vacuous_bounds)
        cert = continuity_probe(f, 1.0, 0.05)
    assert cert.passed
    # the eta = 0.5 trial fails at its farthest level 1.5, so the next height
    # decided is already the farthest level of the eta = 0.25 trial, not 1 - 0.5
    assert zetas[:2] == [1.5, 1.25]
    assert len(zetas) < 100
    # |z^2| <= 1.05^2 + eps on the delta-disks about the unit circle, so the
    # disk bound refutes both heights untraced, and the result is the same
    zetas.clear()
    assert continuity_probe(f, 1.0, 0.05) == cert
    (component,) = trace_level_set(f, 1.0)
    assert max(f.abs_bounds(component.points, 0.05)[1]) < 1.25
    assert 1.5 not in zetas and 1.25 not in zetas


def test_probe_audits_inner_heights_of_the_returned_eta_only(monkeypatch):
    zetas = _count_unions(monkeypatch)
    spec, eps, delta = BENCH_PROBES["z5m1"]
    cert = continuity_probe(parse_function_spec(spec), eps, delta)
    assert cert.passed
    # the search decides 26 heights, one or two per farthest pair, and the
    # returned eta's 14 inner heights make 40; the disk bound refutes 16 of
    # them untraced, so 24 are traced
    # (test_refuted_heights_fail_their_full_audit checks the 40)
    assert len(zetas) == 24
    assert all(z in zetas for z, _ in cert.samples)


# (heights the search decides, heights it traces) with the disk bound
DECIDED_AND_TRACED = {"lemniscate": (30, 23), "z2": (30, 27), "z5m1": (40, 24), "corpus-f20": (16, 16)}


@pytest.mark.parametrize("name", list(DECIDED_AND_TRACED))
def test_refuted_heights_fail_their_full_audit(monkeypatch, name):
    if name == "corpus-f20":
        f, eps, delta = (*_corpus_f20(), 0.1)
    else:
        spec, eps, delta = BENCH_PROBES[name]
        f = parse_function_spec(spec)
    zetas = _count_unions(monkeypatch)
    with monkeypatch.context() as m:
        m.setattr(RationalFn, "abs_bounds", _vacuous_bounds)
        want = continuity_probe(f, eps, delta).to_dict()
    decided = list(zetas)
    zetas.clear()
    assert continuity_probe(f, eps, delta).to_dict() == want
    traced = list(zetas)
    assert (len(decided), len(traced)) == DECIDED_AND_TRACED[name]
    component = max(trace_level_set(f, eps), key=lambda c: c.total_length())
    lo, hi = f.abs_bounds(component.points, delta)
    refuted = [z for z in decided if z > hi.min() or z < lo.max()]
    # the traced heights are the decided ones, in order, less the refuted
    assert traced == [z for z in decided if z not in refuted]
    for zeta in refuted:
        try:
            union = metrics._nearby_curves_union(f, zeta, component, delta)
        except TraceError:
            continue
        assert hausdorff_between_curves(union, component, upto=delta).d_check >= delta


@pytest.mark.parametrize("delta", [0.0, -0.1, math.nan, math.inf])
def test_probe_rejects_a_delta_outside_zero_to_inf(delta):
    with pytest.raises(ValueError, match="delta"):
        continuity_probe(parse_function_spec("poly:1,0,0"), 1.0, delta)


def test_probe_falls_back_when_an_inner_height_fails(monkeypatch):
    spec, eps, delta = BENCH_PROBES["z2"]
    planted_eta = 0.08984375  # the eta returned without the planted failure
    planted = eps + 1.0 * planted_eta * 3 / K_SAMPLES
    zetas = _count_unions(monkeypatch)
    dcheck = metrics.hausdorff_between_curves

    def failing_at_planted(union, component, upto=math.inf):
        if zetas[-1] == planted:
            return HausdorffReport(math.inf, math.inf, math.inf)
        return dcheck(union, component, upto)

    monkeypatch.setattr(metrics, "hausdorff_between_curves", failing_at_planted)
    cert = continuity_probe(parse_function_spec(spec), eps, delta)
    # the largest candidate fails at its planted inner height, and a smaller
    # candidate is returned after its own full audit
    assert planted in zetas
    assert cert.passed and cert.eta < planted_eta
    assert len(cert.samples) == 2 * K_SAMPLES
    assert all(d < delta for _, d in cert.samples)
    heights = [eps + sign * cert.eta * k / K_SAMPLES for k in range(1, K_SAMPLES + 1) for sign in (1.0, -1.0)]
    assert [z for z, _ in cert.samples] == heights
