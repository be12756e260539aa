import math
import random

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
from levelcurves.funcspace import Polynomial, random_polynomial
from levelcurves.gridcheck import grid_oracle_report
from levelcurves.tracer import (
    _RAY_ANGLE,
    _domain_scale,
    _LevelTracer,
    _ray_crossings,
    _seed_box,
    _trace_component_with,
)


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


def _arc_bytes(comp):
    return comp.vertices, [
        (a.points.tobytes(), a.sag, a.start_vertex, a.end_vertex, a.start_angle, a.end_angle) for a in comp.arcs
    ]


@pytest.mark.parametrize("spec", ["poly:1,0,0,0,0,-1", "poly:1,0,-1", "poly:1,0,-3,0"])
def test_branched_component_does_not_depend_on_the_seed(spec):
    # every arc between vertices is launched from a vertex, so a seed in the
    # middle of any arc gives the component traced from the vertex itself
    f = parse_function_spec(spec)
    c = f.critical_points[0][0]
    eps = f.abs_eval(c)
    ref = _trace_component_with(_LevelTracer(f, eps, f.scale), c)
    assert ref.vertices and ref.arcs
    for arc in ref.arcs:
        seed = arc.points[len(arc.points) // 2]
        comp = _trace_component_with(_LevelTracer(f, eps, f.scale), seed)
        assert _arc_bytes(comp) == _arc_bytes(ref)


@pytest.mark.parametrize("seed", [0j, 1.5 + 0j])
def test_a_tracer_traces_a_component_twice_alike(seed):
    # the tracer keeps no state between traces
    f = parse_function_spec("poly:1,0,0,0,0,-1")
    t = _LevelTracer(f, 1.0, f.scale)
    first = _trace_component_with(t, seed)
    assert len(first.arcs) == 5
    assert _arc_bytes(_trace_component_with(t, seed)) == _arc_bytes(first)


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
                z, _, _ = corrector.correct(mid)
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
        z, _, _ = corrector.correct(mid)
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
    # update: two evaluations per point, against about three with a tangent
    # predictor.  Only the predicted point takes the fused pass with (f'/f)';
    # the check of the update takes the pass without it
    calls = {"abs_and_log_derivative": 0, "abs_and_log_deriv": 0}
    for name in calls:
        evaluate = getattr(RationalFn, name)

        def counted(self, z, name=name, evaluate=evaluate):
            calls[name] += 1
            return evaluate(self, z)

        monkeypatch.setattr(RationalFn, name, counted)
    comps = trace_level_set(parse_function_spec(spec), eps)
    n = sum(c.points.size for c in comps)
    assert sum(calls.values()) <= 2.2 * n
    assert calls["abs_and_log_derivative"] <= 1.2 * n


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
    index._build_grid()  # the first grid search would build it

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
    search the batched ``_ray_crossings`` replaced (its domain filter now
    lives in find_seeds and is left out)."""
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


def _seed_ts(f, eps):
    """The distances at which find_seeds samples its rays: the anchor itself,
    then 400 geometric steps out to 1.6 times the width of the seed box."""
    x0, y0, x1, y1 = _seed_box(f, eps)
    reach = max(x1 - x0, y1 - y0)
    return reach, np.concatenate([[0.0], np.geomspace(1e-6 * reach, 1.6 * reach, 400)])


@pytest.mark.parametrize(
    "spec,eps",
    [
        ("poly:1,0,0,0,0,-1", 0.5),
        ("poly:1,0,0,0,0,-1", 1.0),
        ("poly:1,0,0,0,0,-1", 1.5),
        ("poly:1,0,-1", 0.7),
        ("blaschke:0.36,-0.34+0.03i/0.05+0.02i", 0.5),
        ("rat:1,0,-1/1,0.5i,0.25", 0.5),
    ]
    # ten of the acceptance corpus at every critical level, the levels that
    # send the benchmark's corpus pass through find_seeds
    + [(f"corpus30[{i}]", "critical") for i in range(0, 30, 3)],
)
def test_batched_ray_search_matches_scalar_reference(spec, eps, corpus30):
    if eps == "critical":
        f = corpus30[int(spec[9:-1])]
        levels = [f.abs_eval(c) for c, _ in f.critical_points]
    else:
        f, levels = parse_function_spec(spec), [eps]
    for eps in levels:
        reach, ts = _seed_ts(f, eps)
        anchors = [z for z, _ in f.zeros] + [z for z, _ in f.poles]
        got = _ray_crossings(f, eps, anchors, ts)
        # the same crossings in the same order: by anchor, then outward
        want = [z for p in anchors for z in _scalar_ray_crossings(f, eps, p, _RAY_ANGLE, ts)]
        assert len(got) == len(want) > 0
        assert np.all(np.abs(got - np.array(want, dtype=complex)) <= 1e-12 * reach)


def test_ray_search_makes_eleven_grid_passes(monkeypatch):
    # one pass over the ray samples, then one per round for all brackets
    f = parse_function_spec("poly:1,0,0,0,0,-1")
    sizes = []
    abs_grid = f.abs_grid
    monkeypatch.setattr(f, "abs_grid", lambda z: sizes.append(np.size(z)) or abs_grid(z))
    ts = np.concatenate([[0.0], np.geomspace(1e-6, 3.0, 400)])
    pts = _ray_crossings(f, 0.5, [z for z, _ in f.zeros], ts)
    assert len(sizes) == 11
    assert sizes == [5 * 401] + [31 * len(pts)] * 10


def test_every_crossing_of_a_ray_is_a_seed():
    # zeros at 0, d, 2d and 3d on the seed ray of the first: below every
    # critical value each zero has its own loop, so the ray from 0 crosses the
    # level 7 times, that from d 5 times, and so on; every crossing is a seed
    d = complex(math.cos(_RAY_ANGLE), math.sin(_RAY_ANGLE))
    f = RationalFn(Polynomial.from_roots([0, d, 2 * d, 3 * d]))
    eps = 0.9 * min(f.abs_eval(c) for c, _ in f.critical_points)
    reach, ts = _seed_ts(f, eps)
    hits = {p: _scalar_ray_crossings(f, eps, p, _RAY_ANGLE, ts) for p, _ in f.zeros}
    assert sorted(len(h) for h in hits.values()) == [1, 3, 5, 7]
    want = [z for h in hits.values() for z in h if f.in_domain(z)]
    seeds = find_seeds(f, eps)
    assert len(seeds) == len(want) == 16
    assert np.all(np.abs(np.array(seeds) - np.array(want)) <= 1e-12 * reach)


def test_ray_from_a_zero_seeds_its_tightest_loop():
    # at this level the loop about the zero 70.1 of this degree-7 polynomial
    # has a radius of 3.7e-10, inside the first sample after the anchor; the
    # sample at the zero itself brackets it
    f = parse_function_spec(
        "poly:0.02152207288173195,-1.5092262959174658,0.024636521891160987,0.8125416961203998,"
        "0.7807870336863958,0.8181502040703489,0.35872203290802274,1.0"
    )
    (zero,) = [z for z, _ in f.zeros if abs(z - 70.1) < 0.1]
    assert min(abs(s - zero) for s in find_seeds(f, 0.9530924676793712)) < 1e-9


def _seed_radius(f, eps):
    x0, y0, x1, y1 = _seed_box(f, eps)
    assert x0 == y0 == -x1 and y1 == x1
    return x1


# one rational function for each sign of deg(num) - deg(den), at levels on
# both sides of their critical values
DISK_CASES = [
    ("rat:1,0,0,-1/1,0.5", [0.6597111598592994, 1.3194223197185988, 3.8773599486044033, 7.75]),
    ("rat:1,0,-1/1,0,0.25", [0.8, 1.2, 2.0, 4.0, 8.0]),
    ("rat:1,0/1,0,0,0.5", [0.3, 0.41997368329829105, 0.8399473665965821, 5.0]),
]


def _assert_within_seed_disk(f, eps):
    r = _seed_radius(f, eps)
    for comp in trace_level_set(f, eps):
        assert float(np.max(np.abs(comp.points))) <= r, (f.spec, eps, r)


def test_level_set_lies_in_the_seed_disk(corpus30, lemniscate_fn, z5m1, blaschke_21):
    # Fujiwara's bound holds the whole level set: every traced point lies in
    # the disk about 0 whose square find_seeds searches, a power of two
    for f in corpus30:
        for c, _ in f.critical_points:
            _assert_within_seed_disk(f, f.abs_eval(c))
    for f, levels in [(lemniscate_fn, [0.5, 1.0, 2.0]), (z5m1, [0.5, 1.0, 1.5]), (blaschke_21, [0.5, 2.0])]:
        for eps in levels:
            _assert_within_seed_disk(f, eps)
    for spec, levels in DISK_CASES:
        f = parse_function_spec(spec)
        for eps in levels:
            _assert_within_seed_disk(f, eps)
            r = _seed_radius(f, eps)
            assert math.frexp(r)[0] == 0.5


@pytest.mark.parametrize("eps,count", [(0.8, 2), (1.2, 1)])
def test_bounded_levels_near_the_value_at_infinity_trace(eps, count):
    # |f| tends to 1 at infinity; a level within a factor 1.5 of it is still
    # bounded: two loops about the zeros +-1 below it, one about the poles
    # +-0.5i above it, and the turn count passes
    f = parse_function_spec("rat:1,0,-1/1,0,0.25")
    comps = trace_level_set(f, eps)
    assert len(comps) == count
    _assert_on_level(f, comps, eps)
    assert _seed_radius(f, eps) == 4.0


def test_level_at_the_value_at_infinity_is_refused():
    f = parse_function_spec("rat:1,0,-1/1,0,0.25")
    with pytest.raises(TraceError, match=r"level 1\.0 is \|f\(inf\)\| within rounding: the level set is unbounded"):
        trace_level_set(f, 1.0)


@pytest.mark.parametrize(
    "spec,eps",
    [
        # the bound is eps itself, beyond 2^1021
        ("poly:1,0", 1e308),
        # eps |d_1| overflows
        ("rat:1,0,0/1e10,1", 1e300),
        # deg num < deg den: B_0 / (2 L) = 1 / (2 eps) overflows
        ("rat:1/1,0,0", 5e-324),
    ],
)
def test_an_infinite_seed_disk_is_refused(spec, eps):
    with pytest.raises(TraceError, match="has no finite seed disk"):
        trace_level_set(parse_function_spec(spec), eps)


def test_a_zero_below_double_precision_is_named():
    # the zero -38.4397 of this degree-12 polynomial has a computed |f| of
    # 16.69, above the level, so its loop has no sample inside and the
    # turn count is one zero short: the refusal names that zero
    f = RationalFn.from_polynomial(
        [
            0.02346986700210718, 0.9065326969925227, 0.1843502960917469, 0.6423816261599686,
            -0.12562552377649316, -0.1452186003579008, -0.6043715973887431, 0.2689797008294248,
            0.8305326830170328, 0.3752623263731485, 0.9729226824008628, 0.8460874247809098, 1.0,
        ]
    )
    with pytest.raises(TraceError, match=r"loop about the zero \(-38\.4396\S*\), where the computed \|f\| is 16\.6858"):
        trace_level_set(f, 0.26858191068782444)


SEED_CACHE_LEVELS = [
    # the plane: levels whose seed disks have radius 2 to 2048, some shared
    ("poly:1,0,0,0,0,-1", [0.5, 1.0, 1.5, 30.0, 1e4, 1e7]),
    ("rat:1,0/1,0,0,0.5", [5.0, 0.3, 1e-3, 1e-6]),
    # |f| tends to 1 at infinity: 0.9 and 2.0 are bounded, 1.0 is refused
    ("rat:1,0,-1/1,0.5i,0.25", [0.5, 2.0, 0.9, 1.0]),
    # the unit disk
    ("blaschke:0.36,-0.34+0.03i/0.05+0.02i", [0.5, 2.0, 0.2]),
]


@pytest.mark.parametrize("spec,levels", SEED_CACHE_LEVELS)
def test_seed_samples_kept_on_f_leave_the_seeds_unchanged(monkeypatch, spec, levels):
    # the first ray samples are kept on f: a level's seeds, or its refusal,
    # are the same whichever levels of f came before it
    def seeds(f, eps):
        try:
            return find_seeds(f, eps)
        except TraceError as exc:
            return str(exc)

    cold = [seeds(parse_function_spec(spec), eps) for eps in levels]
    f = parse_function_spec(spec)
    assert [seeds(f, eps) for eps in levels] == cold
    assert [seeds(f, eps) for eps in levels[::-1]] == cold[::-1]
    backwards = parse_function_spec(spec)
    assert [seeds(backwards, eps) for eps in levels[::-1]] == cold[::-1]
    # once warm, a level samples no first ray grid: its grid passes are the
    # ten narrowing rounds
    sizes = []
    abs_grid = f.abs_grid
    monkeypatch.setattr(f, "abs_grid", lambda z: sizes.append(np.size(z)) or abs_grid(z))
    assert seeds(f, levels[0]) == cold[0]
    assert len(sizes) == 10


def test_ray_search_keeps_a_bracket_that_straddles_eps():
    # g(w) = (w - 1)(w - 2)(w - 3) = +-0.1 three times on [0.5, 2.05], near
    # 0.95, 1.05 and 1.9.  Turned onto the seed ray, f(z) = (z - d)(z - 2d)(z - 3d)
    # with d = e^(i _RAY_ANGLE) has |f(t d)| = |g(t)|: one sample interval
    # of the ray from 0 holds three crossings
    d = complex(math.cos(_RAY_ANGLE), math.sin(_RAY_ANGLE))
    f = RationalFn(Polynomial.from_roots([d, 2 * d, 3 * d]))
    eps, ts = 0.1, np.array([0.5, 2.05])
    (p,) = _ray_crossings(f, eps, [0j], ts)
    crossings = [r.real for s in (1, -1) for r in np.roots([1, -6, 11, -6 - s * eps]) if abs(r.imag) < 1e-9]
    crossings = sorted(c for c in crossings if ts[0] < c < ts[1])
    assert len(crossings) == 3
    t = (p / d).real
    assert abs(p - t * d) <= 1e-15 and min(abs(t - c) for c in crossings) < 1e-12
    # the last bracket is 2^-50 of the sample interval wide, and |f| - eps
    # changes sign across it
    half = 0.5 * (ts[1] - ts[0]) * 2.0**-50
    lo, hi = f.abs_grid(np.array([t - half, t + half]) * d) - eps
    assert lo * hi < 0


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
# loop was last rewritten with bit-identical output: at CERTIFIED_LEVELS; 1e-4
# below the saddle value 1 of the lemniscate and of z^5 - 1; 1e-5 either side
# of it for z^5 - 1, where the saddle's neck limits the step (5 and 13 steps);
# and at the critical value 2 / 3^1.5 of z^3 - z, whose two vertices limit the
# steps of the arcs that approach them (96 steps).  A change to any one of its
# step decisions moves them
ARC_POINTS = list(
    zip(CERTIFIED_LEVELS, [[[78], [78]], [[54]] * 5, [[124], [114]], [[192], [57]], [[56]] * 3])
) + [
    (("poly:1,0,-1", 1 - 1e-4), [[109], [108]]),
    (("poly:1,0,0,0,0,-1", 1 - 1e-4), [[85], [84], [84], [86], [83]]),
    (("poly:1,0,0,0,0,-1", 1 - 1e-5), [[82], [81], [81], [85], [81]]),
    (("poly:1,0,0,0,0,-1", 1 + 1e-5), [[390]]),
    (("poly:1,0,-1,0", 0.3849001794597505), [[61, 86, 86, 61]]),
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


@pytest.mark.parametrize("spec,eps", CERTIFIED_LEVELS)
def test_duplicate_component_fails_the_turn_count(monkeypatch, spec, eps):
    # one ray per anchor may put a single seed on each component, so every
    # seed is fed twice and the deduplication is turned off
    f = parse_function_spec(spec)
    seeds_of = tracer.find_seeds
    monkeypatch.setattr(tracer, "find_seeds", lambda *args: [z for z in seeds_of(*args) for _ in range(2)])
    monkeypatch.setattr(tracer, "_near", lambda comp, zs: np.zeros(len(zs), dtype=bool))
    with pytest.raises(TraceError, match="missing or traced twice"):
        trace_level_set(f, eps)


@pytest.mark.parametrize("spec,eps", CERTIFIED_LEVELS)
def test_planted_surplus_raises_before_the_other_rays(monkeypatch, spec, eps):
    # one surplus seed, not every seed twice: the turn count raises from the
    # single seeding pass, and no further rays are cast to look again
    f = parse_function_spec(spec)
    seeds_of = tracer.find_seeds
    calls = []

    def seeds_with_surplus(*args):
        calls.append(args)
        seeds = seeds_of(*args)
        return seeds + seeds[:1]

    monkeypatch.setattr(tracer, "find_seeds", seeds_with_surplus)
    monkeypatch.setattr(tracer, "_near", lambda comp, zs: np.zeros(len(zs), dtype=bool))
    with pytest.raises(TraceError, match="missing or traced twice"):
        trace_level_set(f, eps)
    assert len(calls) == 1


def _noncritical_level(f, u):
    """A level at fraction u of a log-range around the critical values, at
    least 5% (relative) from each of them and, on the disk, from 1.  Critical
    points whose window holds 0 (``RationalFn.critical_windows``) sit on
    multiple zeros and are left out; the range stays above 1e-4.  Without
    poles in the disk the level stays below 1, where its level set is not
    empty."""
    vals = [f.abs_eval(c) for (c, _), (lo, _) in zip(f.critical_points, f.critical_windows) if lo > 0.0]
    vals = [v for v in vals if v < math.inf] + ([1.0] if f.blaschke_degrees else [])
    assume(vals)
    lo = max(math.log(min(vals)) - 1.0, math.log(1e-4))
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


def _assert_on_level(f, comps, eps):
    for comp in comps:
        residual = float(np.max(np.abs(f.abs_grid(comp.points) - eps)))
        assert residual <= DEFAULT_TOLS.trace_tol, (f, eps, residual)


def test_every_point_meets_the_trace_tolerance(corpus30):
    # every polyline point, vertices included, lies within trace_tol of the
    # level asked for: at every critical level of the corpus, 1e-8 off the
    # critical values of a few corpus functions, and just off the fixtures'
    # saddle value 1, where a vertex snapped onto the saddle would miss by
    # the distance to 1
    for f in corpus30:
        for c, _ in f.critical_points:
            v = f.abs_eval(c)
            _assert_on_level(f, trace_level_set(f, v), v)
    for f in corpus30[:3]:
        for c, _ in f.critical_points:
            for eps in (f.abs_eval(c) * (1.0 - 1e-8), f.abs_eval(c) * (1.0 + 1e-8)):
                _assert_on_level(f, trace_level_set(f, eps), eps)
    for spec in ("poly:1,0,-1", "poly:1,0,0,0,0,-1"):
        f = parse_function_spec(spec)
        for eps in (1.0 - 5e-8, 1.0 + 5e-8, 1.0 - 1e-7):
            comps = trace_level_set(f, eps)
            assert not any(comp.vertices for comp in comps)
            _assert_on_level(f, comps, eps)


@pytest.mark.parametrize("fn", ["poly:1,0,-1", "poly:1,0,0,0,0,-1", 0, 1, 2])
def test_near_critical_levels_trace_or_are_refused(corpus30, fn):
    # a level a relative 1e-8, 1e-10 or 1e-12 off a critical value v is
    # regular: it traces with no vertex and the component count of
    # v(1 +- 1e-4), or is refused before any march with the named cause.  It
    # is never snapped onto the vertex, and never fails inside the march
    # ("step size underflow", a turn count off).  At 1e-8 every neck is
    # resolved.
    f = corpus30[fn] if isinstance(fn, int) else parse_function_spec(fn)
    for c, _ in f.critical_points:
        v = f.abs_eval(c)
        for sign in (1.0, -1.0):
            want = len(trace_level_set(f, v * (1.0 + sign * 1e-4)))
            for r in (1e-8, 1e-10, 1e-12):
                eps = v * (1.0 + sign * r)
                try:
                    comps = trace_level_set(f, eps)
                except TraceError as exc:
                    assert r < 1e-8 and "is refused near critical point" in str(exc), exc
                    assert "cannot tell eps from |f(c)|" in str(exc) or "cannot stay inside a neck" in str(exc)
                    continue
                assert not any(comp.vertices for comp in comps), eps
                assert len(comps) == want, eps


@pytest.mark.parametrize("seed", [11, 29, 43])
@pytest.mark.parametrize("coeffs", [[1, 0, -1], [1, 0, 0, 0, 0, -1]], ids=["lemniscate", "z5m1"])
def test_rotated_fixtures_hand_out_the_stored_critical_curve(coeffs, seed):
    # the fixtures turned by the angles the benchmark draws from these seeds;
    # |f| at the turned saddle rounds 1 to 4 ulps below 1, inside its
    # certified window, so the level set at 1 is the stored critical curve
    theta = random.Random(seed).uniform(0.0, 2.0 * math.pi)
    r = complex(math.cos(theta), math.sin(theta))
    f = RationalFn.from_polynomial([a * r**j for j, a in enumerate(coeffs)])
    assert f.critical_on_level(0, 1.0)
    (comp,) = trace_level_set(f, 1.0)
    assert comp is f.critical_curves[0]
    assert comp.level == f.abs_eval(f.critical_points[0][0])


@pytest.mark.xfail(
    strict=True,
    raises=TraceError,
    reason="step size underflow near the weak pole: its loop, of radius 1.2e-6, is too tight for steps "
    "of at least h_min = 1e-6",
)
def test_loop_about_a_weak_pole_is_traced():
    # the pole -0.00206+0.00237i lies 3e-3 from a double zero, so |f| is only
    # 1.24 at 1e-5 from it and its loop at level 10 is about 1e-6 wide, while
    # levels 0.5 and 2 trace.  The sample at the pole itself seeds the loop,
    # but the march cannot follow it with steps of at least h_min
    f = RationalFn.blaschke_ratio(
        [1.8936205382480023e-06 + 9.819073340042092e-06j] * 2 + [-0.16830128075653625 + 0.7421047765550758j],
        [-0.0020553810104348784 + 0.002365831794946803j, 0.5349782044865122 + 0.2623481824646632j],
    )
    try:
        comps = trace_level_set(f, 10.0)
    except TraceError as exc:
        assert str(exc).startswith("step size underflow near (-0.0020541")
        raise
    assert len(comps) == 2
