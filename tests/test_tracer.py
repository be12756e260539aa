import math
import warnings

import numpy as np
import pytest
from conftest import build_corpus
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from levelcurves import (
    DEFAULT_TOLS,
    RationalFn,
    TraceError,
    critical_level_curves,
    find_seeds,
    parse_function_spec,
    trace_component,
    trace_level_set,
)
from levelcurves import geometry, tracer
from levelcurves.funcspace import random_polynomial
from levelcurves.gridcheck import grid_oracle_report
from levelcurves.tracer import _domain_scale, _LevelTracer, _ray_crossings, _seed_box


def on_level_residual(f, comp):
    return max(float(np.max(np.abs(f.abs_grid(a.points) - comp.level))) for a in comp.arcs)


def test_find_seeds_circle():
    f = parse_function_spec("poly:1,0,0")
    seeds = find_seeds(f, 4.0)
    assert seeds
    assert any(abs(abs(s) - 2.0) < 1e-9 for s in seeds)


def test_find_seeds_z5m1_subcritical():
    f = parse_function_spec("poly:1,0,0,0,0,-1")
    seeds = find_seeds(f, 0.5)
    assert len(seeds) >= 5
    roots = [z for z, _ in f.zeros]
    # at least one seed close to each root's oval
    for r in roots:
        assert min(abs(s - r) for s in seeds) < 0.4


def test_trace_circle_radial_deviation():
    f = parse_function_spec("poly:1,0,0")
    comp = trace_component(f, 4.0, 2.0 + 0j)
    assert len(comp.arcs) == 1 and comp.arcs[0].closed and not comp.vertices
    assert float(np.max(np.abs(np.abs(comp.arcs[0].points) - 2.0))) < 1e-6


def test_trace_z5m1_critical_structure():
    f = parse_function_spec("poly:1,0,0,0,0,-1")
    comp = trace_component(f, 1.0, 2.0 ** 0.2 + 0j)
    assert len(comp.vertices) == 1
    v, m = comp.vertices[0]
    assert abs(v) < 1e-9 and m == 4
    assert len(comp.arcs) == 5
    assert all(a.start_vertex == 0 and a.end_vertex == 0 for a in comp.arcs)


def test_trace_lemniscate_structure():
    f = parse_function_spec("poly:1,0,-1")
    comps = trace_level_set(f, 1.0)
    assert len(comps) == 1
    comp = comps[0]
    # Euler bookkeeping: edges = sum(mult) + V = 1 + 1 = 2
    assert len(comp.vertices) == 1 and comp.vertices[0][1] == 1
    assert len(comp.arcs) == 2


def test_level_set_counts():
    f = parse_function_spec("poly:1,0,0,0,0,-1")
    assert len(trace_level_set(f, 0.5)) == 5
    assert len(trace_level_set(f, 1.5)) == 1
    f2 = parse_function_spec("poly:1,0,0")
    assert len(trace_level_set(f2, 0.7)) == 1


def test_on_level_invariant():
    for spec, eps in (("poly:1,0,0", 4.0), ("poly:1,0,-1", 1.0), ("poly:1,0,0,0,0,-1", 1.0)):
        f = parse_function_spec(spec)
        for comp in trace_level_set(f, eps):
            assert on_level_residual(f, comp) <= DEFAULT_TOLS.trace_tol


def test_closed_arc_endpoints_coincide():
    f = parse_function_spec("poly:1,0,0")
    comp = trace_component(f, 1.0, 1.0 + 0j)
    pts = comp.arcs[0].points
    assert abs(pts[0] - pts[-1]) <= DEFAULT_TOLS.trace_tol


def _corpus_f10_critical_levels():
    f = build_corpus(11)[10]
    return [pytest.param(f, f.abs_eval(c), id=f"corpus-f10-crit{k}") for k, (c, _) in enumerate(f.critical_points)]


SAG_CASES = [
    pytest.param(parse_function_spec("poly:1,0,-1"), 1.0, id="lemniscate-1"),
    pytest.param(parse_function_spec("poly:1,0,0,0,0,-1"), 0.5, id="z5m1-0.5"),
    pytest.param(parse_function_spec("poly:1,0,0,0,0,-1"), 1.0, id="z5m1-1"),
    pytest.param(parse_function_spec("blaschke:0.36,-0.34+0.03i/0.05+0.02i"), 0.5, id="blaschke21-0.5"),
    *_corpus_f10_critical_levels(),
]


@pytest.mark.parametrize("f,eps", SAG_CASES)
def test_recorded_sag_bounds_the_measured_sag(f, eps):
    # the distance from each chord midpoint to the curve (the midpoint
    # corrected onto the level) stays within the arc's recorded sag, and the
    # controller keeps that sag near its target
    scale = _domain_scale(f, find_seeds(f, eps))
    corrector = _LevelTracer(f, eps, scale)
    for comp in trace_level_set(f, eps):
        for arc in comp.arcs:
            assert arc.sag <= 10.0 * tracer.SAG_REL * scale
            for mid in 0.5 * (arc.points[1:] + arc.points[:-1]):
                z, _, _ = corrector.correct(mid, max_iter=60)
                assert z is not None and abs(z - mid) <= arc.sag


@pytest.mark.parametrize("f,eps", SAG_CASES)
def test_closing_chord_within_recorded_sag(f, eps):
    # a closed arc ends on the chord from its last march point back to its
    # start, which is no march step; the arc's sag must bound it as well
    scale = _domain_scale(f, find_seeds(f, eps))
    corrector = _LevelTracer(f, eps, scale)
    closed = [arc for comp in trace_level_set(f, eps) for arc in comp.arcs if arc.closed]
    for arc in closed:
        assert arc.points[-1] == arc.points[0]
        mid = 0.5 * (arc.points[-2] + arc.points[-1])
        z, _, _ = corrector.correct(mid, max_iter=60)
        assert z is not None and abs(z - mid) <= arc.sag


BUDGET_CASES = [
    ("poly:1,0,0,0,0,-1", 0.5, 265),
    ("poly:1,0,0,0,0,-1", 1.0, 357),
    ("poly:1,0,-1", 1.0, 220),
    ("blaschke:0.36,-0.34+0.03i/0.05+0.02i", 0.5, 209),
]


@pytest.mark.parametrize("spec,eps,points", BUDGET_CASES)
def test_step_controller_point_budget(spec, eps, points):
    # the counts the sag-driven step controller traced when it was written; a
    # controller whose step stops growing spends several times as many
    comps = trace_level_set(parse_function_spec(spec), eps)
    assert sum(c.points.size for c in comps) <= 1.25 * points


@pytest.mark.parametrize("spec,eps,points", BUDGET_CASES)
def test_one_corrector_update_per_step(monkeypatch, spec, eps, points):
    # the arc predictor and the second-order corrector land a step with one
    # update: two fused evaluations per point (the predicted point and the
    # check of the update), against about three with a tangent predictor
    evaluate = RationalFn.abs_and_log_derivative
    calls = []

    def counted(self, z):
        calls.append(z)
        return evaluate(self, z)

    monkeypatch.setattr(RationalFn, "abs_and_log_derivative", counted)
    comps = trace_level_set(parse_function_spec(spec), eps)
    assert len(calls) <= 2.2 * sum(c.points.size for c in comps)


@pytest.mark.parametrize("eps,count", [(1.0 - 1e-6, 2), (1.0 + 1e-6, 1)])
def test_near_critical_levels_of_the_lemniscate(eps, count):
    # just below the saddle value the two ovals come about 2e-3 apart, within
    # a few chord sags; a seed on one oval must not be taken for the other
    assert len(trace_level_set(parse_function_spec("poly:1,0,-1"), eps)) == count


@pytest.mark.parametrize("spec,seed", [("rat:1,-1/1,1", 1j), ("rat:1,0,-1/1,0,2", 0.5 + 1j)])
def test_unbounded_level_curve_raises(spec, seed):
    # |f| tends to eps at infinity, so the level curve through the seed is
    # unbounded; an arc must not come back from infinity as a closed loop
    with pytest.raises(TraceError, match="unbounded level curve"):
        trace_component(parse_function_spec(spec), 1.0, seed)


def test_components_disjoint():
    f = parse_function_spec("poly:1,0,0,0,0,-1")
    comps = trace_level_set(f, 0.5)
    for i in range(len(comps)):
        for j in range(i + 1, len(comps)):
            d = np.min(comps[j].index.distances(comps[i].points))
            assert d > 1e-3


def test_branch_completeness():
    # arc-endpoints snapped to a vertex == 2 * (mult + 1)
    f = parse_function_spec("poly:1,0,0,0,0,-1")
    comp = trace_level_set(f, 1.0)[0]
    ends = sum((a.start_vertex == 0) + (a.end_vertex == 0) for a in comp.arcs)
    assert ends == 2 * (4 + 1)


def test_orientation_increasing_arg():
    f = parse_function_spec("poly:1,0,0")
    comp = trace_component(f, 1.0, 1.0 + 0j)
    vals = f.eval_grid(comp.arcs[0].points)
    inc = np.angle(vals[1:] / vals[:-1])
    assert np.all(inc > 0)


def _segments_intersect(a0, a1, b0, b1) -> bool:
    def orient(p, q, r):
        v = (q - p).real * (r - p).imag - (q - p).imag * (r - p).real
        return int(v > 1e-14) - int(v < -1e-14)

    return orient(a0, a1, b0) != orient(a0, a1, b1) and orient(b0, b1, a0) != orient(b0, b1, a1)


def self_intersections(arcs, exclusion_centers=(), exclusion_radius: float = 0.0):
    """Pairs of crossing segments across a family of polylines.

    Crossings with both segments inside ``exclusion_radius`` of one of the
    ``exclusion_centers`` are ignored (vertex stars legitimately cross there),
    as are adjacent segments of the same polyline.  Only segments sharing a
    cell of a :class:`SegmentIndex` reach the exact test.
    """
    segs = [(arc_id, i, p[i], p[i + 1]) for arc_id, p in enumerate(arcs) for i in range(p.size - 1)]
    index = geometry.SegmentIndex(arcs)

    def excluded(p0, p1):
        return any(abs(p0 - c) < exclusion_radius and abs(p1 - c) < exclusion_radius for c in exclusion_centers)

    hits = set()
    for members in np.split(index._members, index._start[1:-1]):
        for ii in range(len(members)):
            for jj in range(ii + 1, len(members)):
                sa, sb = segs[members[ii]], segs[members[jj]]
                if sa[0] == sb[0] and abs(sa[1] - sb[1]) <= 1:
                    continue
                if not _segments_intersect(sa[2], sa[3], sb[2], sb[3]):
                    continue
                if excluded(sa[2], sa[3]) and excluded(sb[2], sb[3]):
                    continue
                hits.add((sa[0], sa[1], sb[0], sb[1]))
    return sorted(hits)


def test_simplicity_away_from_vertices():
    f = parse_function_spec("poly:1,0,0,0,0,-1")
    comp = trace_level_set(f, 1.0)[0]
    arcs = [a.points for a in comp.arcs]
    hits = self_intersections(
        arcs, exclusion_centers=[v for v, _ in comp.vertices], exclusion_radius=0.05
    )
    assert hits == []


def test_grid_oracle_lemniscate():
    f = parse_function_spec("poly:1,0,-1")
    comps = trace_level_set(f, 1.0)
    rep = grid_oracle_report(f, 1.0, comps)
    assert rep.ok, (rep.max_cell_to_trace, rep.max_trace_to_cell, rep.threshold)


def test_bad_eps_rejected():
    f = parse_function_spec("poly:1,0")
    with pytest.raises(TraceError):
        find_seeds(f, -1.0)
    with pytest.raises(TraceError):
        find_seeds(f, 0.0)


def test_disk_eps_one_rejected():
    f = parse_function_spec("blaschke:0.3,-0.4i/0.5")
    with pytest.raises(TraceError):
        find_seeds(f, 1.0)


def test_blaschke_trace_stays_in_disk():
    f = parse_function_spec("blaschke:0.36,-0.34+0.03i/0.05+0.02i")
    comps = trace_level_set(f, 0.5)
    for comp in comps:
        assert np.max(np.abs(comp.points)) < 1.0


def test_near_critical_warning():
    f = parse_function_spec("poly:1,0,-1")
    # a level just off the critical value passes close to the saddle
    with pytest.warns(UserWarning, match="off-level critical point"):
        trace_level_set(f, 1.0 + 5e-6)


def test_step_cap_near_off_level_saddle():
    # the seed lies 0.006 from the saddle at -0.39377+0.32399i, whose level
    # 1.26845 is just below eps: the component squeezes through the saddle's
    # neck around zeros 1 and 2, and an uncapped step jumped across the neck
    # onto a false loop around zero 1 alone
    f = build_corpus(21, seed=9)[20]
    comp = trace_component(f, 1.2684832, -0.389039805200021 + 0.325409050796736j)
    (arc,) = comp.arcs
    assert arc.closed and not comp.vertices
    w = np.round(geometry.winding_number(arc.points, [z for z, _ in f.zeros]))
    assert w.tolist() == [0, 1, 1, 0, 0]
    vals = f.eval_grid(arc.points)
    assert np.sum(np.angle(vals[1:] / vals[:-1])) == pytest.approx(4 * math.pi)


def _scalar_ray_crossings(f, eps, p, theta, ts):
    """One ray, one bracket at a time, bisected with scalar evaluations: the
    search the batched ``_ray_crossings`` replaced (its domain filter and hit
    cap now live in find_seeds and are left out)."""
    direction = complex(math.cos(theta), math.sin(theta))
    vals = f.abs_grid(p + ts * direction)
    with np.errstate(divide="ignore"):
        sgn = np.sign(np.log(np.where(vals > 0, vals, 1e-300)) - math.log(eps))
    hits = []
    for i in np.nonzero(sgn[:-1] * sgn[1:] < 0)[0]:
        lo, hi = ts[i], ts[i + 1]
        for _ in range(50):
            mid = 0.5 * (lo + hi)
            v = f.abs_eval(p + mid * direction)
            if (v - eps) * (vals[i] - eps) > 0:
                lo = mid
            else:
                hi = mid
        hits.append(p + 0.5 * (lo + hi) * direction)
    return hits


@pytest.mark.parametrize(
    "spec,eps",
    [
        ("poly:1,0,0,0,0,-1", 0.5),
        ("poly:1,0,0,0,0,-1", 1.0),
        ("poly:1,0,0,0,0,-1", 1.5),
        ("poly:1,0,-1", 0.7),
        ("blaschke:0.36,-0.34+0.03i/0.05+0.02i", 0.5),
        ("rat:1,0,-1/1,0.5i,0.25", 0.5),
    ],
)
def test_batched_ray_search_matches_scalar_reference(spec, eps):
    f = parse_function_spec(spec)
    x0, y0, x1, y1 = _seed_box(f, eps)
    reach = max(x1 - x0, y1 - y0)
    ts = np.geomspace(1e-6 * reach, 1.6 * reach, 400)
    anchors = [z for z, _ in f.zeros] + [z for z, _ in f.poles]
    for phase in (0.21, 0.37):
        pts, a, k = _ray_crossings(f, eps, anchors, phase, ts)
        assert list(zip(a, k)) == sorted(zip(a, k))  # anchor, then ray order
        total = 0
        for ai, p in enumerate(anchors):
            for ki in range(8):
                want = _scalar_ray_crossings(f, eps, p, 2 * math.pi * (ki + phase) / 8, ts)
                got = pts[(a == ai) & (k == ki)]
                assert len(got) == len(want)
                # same crossings in the same order: outward along the ray
                assert np.all(np.abs(got - np.array(want, dtype=complex)) <= 1e-12 * reach)
                total += len(want)
        assert total == len(pts) > 0


def test_corrector_returns_python_complex():
    f = parse_function_spec("poly:1,0,0")
    tracer = _LevelTracer(f, 1.0, _domain_scale(f))
    # one seed off the level, one already on it
    for seed in (1.1 + 0.1j, 1.0 + 0.0j):
        z, it, ld = tracer.correct(np.complex128(seed))
        assert type(z) is complex and type(ld) is complex
        assert (z, it, ld) == tracer.correct(seed)


# levels off every critical value (1; 0.68 and 0.70; 0.84).  f = z / (z^3 + 0.5)
# vanishes at infinity, so its arcs count its 3 poles: on one loop per pole at
# 5.0, and at 0.3 on the two edges of a ring around the zero
CERTIFIED_LEVELS = [
    ("poly:1,0,-1", 0.5),
    ("poly:1,0,0,0,0,-1", 0.5),
    ("blaschke:0.36,-0.34+0.03i/0.05+0.02i", 0.5),
    ("rat:1,0/1,0,0,0.5", 0.3),
    ("rat:1,0/1,0,0,0.5", 5.0),
]


# the points of each arc of each component, as the march traced them when its
# loop was last rewritten with bit-identical output: at CERTIFIED_LEVELS, and
# 1e-4 below the saddle value 1 of the lemniscate and of z^5 - 1, where the
# necks bound the step.  A change to any one of its step decisions moves them
ARC_POINTS = list(
    zip(CERTIFIED_LEVELS, [[[78], [78]], [[54]] * 5, [[124], [114]], [[192], [57]], [[56]] * 3])
) + [
    (("poly:1,0,-1", 1 - 1e-4), [[109], [108]]),
    (("poly:1,0,0,0,0,-1", 1 - 1e-4), [[85], [84], [84], [86], [83]]),
]


@pytest.mark.parametrize("level,points", ARC_POINTS)
def test_points_per_arc(level, points):
    spec, eps = level
    comps = trace_level_set(parse_function_spec(spec), eps)
    assert [[arc.points.size for arc in comp.arcs] for comp in comps] == points


def assert_seeds_need_no_correction(f, eps):
    """Every seed is a fixed point of the corrector, so the tracer starts
    from the seed itself."""
    corrector = _LevelTracer(f, eps, _domain_scale(f))
    for s in find_seeds(f, eps):
        assert corrector.correct(s, 0)[:2] == (s, 0)


@pytest.mark.parametrize("spec,eps", CERTIFIED_LEVELS)
def test_seeds_need_no_correction(spec, eps):
    assert_seeds_need_no_correction(parse_function_spec(spec), eps)


@pytest.mark.parametrize("spec,eps", CERTIFIED_LEVELS)
def test_missing_component_fails_the_turn_count(monkeypatch, spec, eps):
    f = parse_function_spec(spec)
    dropped = trace_level_set(f, eps)[0]
    seeds_of = tracer.find_seeds

    def seeds_off_one_component(*args):
        seeds = seeds_of(*args)
        return [z for z, on in zip(seeds, tracer._near(dropped, seeds)) if not on]

    monkeypatch.setattr(tracer, "find_seeds", seeds_off_one_component)
    with pytest.raises(TraceError, match="missing or traced twice"):
        trace_level_set(f, eps)


@pytest.mark.parametrize("spec,eps", [CERTIFIED_LEVELS[0], CERTIFIED_LEVELS[4]])
def test_duplicate_component_fails_the_turn_count(monkeypatch, spec, eps):
    # one ray per anchor may put a single seed on each component, so every
    # seed is fed twice and the deduplication is turned off
    f = parse_function_spec(spec)
    seeds_of = tracer.find_seeds
    monkeypatch.setattr(tracer, "find_seeds", lambda *args: [z for z in seeds_of(*args) for _ in range(2)])
    monkeypatch.setattr(tracer, "_near", lambda comp, zs: np.zeros(len(zs), dtype=bool))
    with pytest.raises(TraceError, match="missing or traced twice"):
        trace_level_set(f, eps)


def _rays_cast(monkeypatch, keep=lambda rays, seeds: seeds):
    """Record the rays of every find_seeds call; keep filters its seeds."""
    seeds_of = tracer.find_seeds
    cast = []

    def recorded(f, eps, rays=range(8)):
        cast.append(tuple(rays))
        return keep(tuple(rays), seeds_of(f, eps, rays))

    monkeypatch.setattr(tracer, "find_seeds", recorded)
    return cast


@pytest.mark.parametrize("spec,eps", CERTIFIED_LEVELS)
def test_component_missed_by_the_first_ray_is_traced_from_the_others(monkeypatch, spec, eps):
    f = parse_function_spec(spec)
    want = trace_level_set(f, eps)
    missed = want[-1]
    cast = _rays_cast(monkeypatch, lambda rays, seeds: tracer._off(missed, seeds) if rays == (0,) else seeds)
    got = trace_level_set(f, eps)
    assert cast == [(0,), tuple(range(1, 8))]
    assert len(got) == len(want)
    assert [len(c.vertices) for c in got] == [len(c.vertices) for c in want]
    assert np.all(tracer._near(missed, got[-1].points))


@pytest.mark.parametrize("spec,eps", CERTIFIED_LEVELS)
def test_planted_surplus_raises_before_the_other_rays(monkeypatch, spec, eps):
    f = parse_function_spec(spec)
    cast = _rays_cast(monkeypatch, lambda rays, seeds: seeds + seeds[:1])
    monkeypatch.setattr(tracer, "_near", lambda comp, zs: np.zeros(len(zs), dtype=bool))
    with pytest.raises(TraceError, match="missing or traced twice"):
        trace_level_set(f, eps)
    assert cast == [(0,)]


def _noncritical_level(f, u):
    """A level at fraction u of a log-range around the critical values, at
    least 5% (relative) from each of them and, on the disk, from 1.  Critical
    values within ``vertex_tol`` of 0 sit on multiple zeros and bound the
    range from below.  Without poles in the disk the level stays below 1,
    where its level set is not empty."""
    vals = [f.abs_eval(c) for c, _ in f.critical_points]
    vals = [v for v in vals if DEFAULT_TOLS.vertex_tol < v < math.inf] + ([1.0] if f.blaschke_degrees else [])
    assume(vals)
    lo = max(math.log(min(vals)) - 1.0, math.log(1e3 * DEFAULT_TOLS.vertex_tol))
    hi = 0.0 if f.blaschke_degrees and not f.poles else math.log(max(vals)) + 1.0
    eps = math.exp(lo + u * (hi - lo))
    return eps if all(abs(math.log(eps / v)) > 0.05 for v in vals) else None


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(["poly", "blaschke"]),
    seed=st.integers(0, 2**32 - 1),
    degree=st.integers(2, 12),
    u=st.floats(0.0, 1.0),
)
def test_random_levels_pass_the_turn_count(kind, seed, degree, u):
    rng = np.random.default_rng(seed)
    if kind == "poly":
        f = RationalFn(random_polynomial(rng, degree))
    else:
        # B1 / B2 with 1-4 and 0-3 zeros, uniform in the disk of radius 0.9
        n1, n2 = int(rng.integers(1, 5)), int(rng.integers(0, 4))
        assume(n1 != n2)
        zs = 0.9 * np.sqrt(rng.uniform(size=n1 + n2)) * np.exp(2j * np.pi * rng.uniform(size=n1 + n2))
        f = RationalFn.blaschke_ratio(zs[:n1], zs[n1:])
    eps = _noncritical_level(f, u)
    assume(eps is not None)
    assert trace_level_set(f, eps)
    assert_seeds_need_no_correction(f, eps)


def test_local_models_are_computed_once_per_critical_point(monkeypatch):
    f = parse_function_spec("poly:1,0,0,0,0,-1")
    prop = RationalFn.__dict__["critical_models"]
    compute = prop.func
    computed = []

    def counting(self):
        out = compute(self)
        computed.extend(out)
        return out

    monkeypatch.setattr(prop, "func", counting)
    for eps in (0.5, 1.0, 2.0):
        trace_level_set(f, eps)
    critical_level_curves(f)
    assert [(c, m) for c, m, _ in computed] == f.critical_points


def test_degenerate_local_model(monkeypatch):
    # the lemniscate's saddle at 0 sits on level 1 and off levels 0.5 and 2
    f = parse_function_spec("poly:1,0,-1")
    monkeypatch.setattr(f, "critical_models", [(c, m, None) for c, m in f.critical_points])
    with pytest.raises(TraceError, match="degenerate local model"):
        trace_level_set(f, 1.0)
    assert len(trace_level_set(f, 0.5)) == 2
    assert len(trace_level_set(f, 2.0)) == 1


@pytest.mark.parametrize(
    "spec,counts",
    [("poly:1,0,-1", (2, 1, 0, 0)), ("poly:1,0,0,0,0,-1", (5, 1, 5, 1))],
)
def test_near_critical_warning_counts(spec, counts):
    # one warning per traced component passing within ten capture radii of
    # the off-level saddle, at levels just below and above its value 1
    f = parse_function_spec(spec)
    got = []
    for eps in (1 - 1e-6, 1 + 1e-6, 1 - 1e-4, 1 + 1e-4):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            trace_level_set(f, eps)
        got.append(sum(1 for w in caught if "off-level critical point" in str(w.message)))
    assert tuple(got) == counts
