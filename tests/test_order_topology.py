import numpy as np
import pytest
from conftest import build_corpus

from levelcurves import (
    TopologyError,
    TraceError,
    critical_level_curves,
    maximal_component,
    parse_function_spec,
    precedes,
    separating_curve,
    trace_level_set,
    two_curve_critical_witness,
)
from levelcurves import DEFAULT_TOLS, geometry, order_topology, tracer
from levelcurves.order_topology import CurveKind, CurveRef, hasse_diagram


def ref_of(comp, level, label=""):
    return CurveRef(CurveKind.LEVEL_CURVE, level, component=comp, label=label)


@pytest.fixture(scope="module")
def z5(z5m1):
    return z5m1


@pytest.fixture(scope="module")
def z5_ovals(z5):
    return [ref_of(c, 0.5, f"oval{i}") for i, c in enumerate(trace_level_set(z5, 0.5))]


@pytest.fixture(scope="module")
def z5_big(z5):
    return ref_of(trace_level_set(z5, 1.5)[0], 1.5, "big")


@pytest.fixture(scope="module")
def z5_C(z5):
    return critical_level_curves(z5)


def test_precedes_nesting(z5_ovals, z5_big):
    assert precedes(z5_ovals[0], z5_big)
    assert not precedes(z5_big, z5_ovals[0])


def test_precedes_mutually_exterior(z5_ovals):
    assert not precedes(z5_ovals[0], z5_ovals[1])
    assert not precedes(z5_ovals[1], z5_ovals[0])


def test_precedes_same_curve_rejected(z5_ovals):
    with pytest.raises(TopologyError):
        precedes(z5_ovals[0], z5_ovals[0])


def test_a_split_membership_vote_is_refused(z5_ovals, z5_big, monkeypatch):
    # the big circle's one bounded face holds every voter of the oval; the
    # patched winding pass puts the first of them in the unbounded face
    winding = order_topology._winding_faces

    def split(g, zs):
        faces = winding(g, zs)
        faces[0] = g.unbounded_face.id
        return faces

    monkeypatch.setattr(order_topology, "_winding_faces", split)
    with pytest.raises(TopologyError, match=r"membership vote split across faces \[0, 1\]"):
        precedes(z5_ovals[0], z5_big)


def test_unit_circle_holds_by_modulus():
    circle = CurveRef(CurveKind.BOUNDARY, 1.0, label="unit-circle")

    def at(z):
        return CurveRef(CurveKind.POINT, 0.0, point=z)

    # the midpoint of a chord of the 721-gon, 9.5e-6 inside the circle
    t = np.pi / 720
    assert precedes(at(np.cos(t) * np.exp(1j * t)), circle)
    assert not precedes(at(1.5j), circle)
    with pytest.raises(TopologyError, match="too close"):
        precedes(at(1.0 - 1e-10), circle)


def test_strict_partial_order(z5, z5_ovals, z5_big, z5_C):
    family = z5_ovals + [z5_big] + z5_C.curves()
    n = len(family)
    rel = [[False] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j:
                rel[i][j] = precedes(family[i], family[j])
    for i in range(n):
        for j in range(n):
            if rel[i][j]:
                assert not rel[j][i]  # asymmetry
            for k in range(n):
                if rel[i][j] and rel[j][k]:
                    assert rel[i][k]  # transitivity


def test_critical_set_z5m1(z5_C):
    curves = z5_C.curves()
    assert len(curves) == 1
    assert abs(curves[0].level - 1.0) < 1e-9
    points = [r for r in z5_C.components if r.kind is CurveKind.POINT]
    assert len(points) == 5 and all(r.level == 0.0 for r in points)


def test_critical_set_pure_power():
    f = parse_function_spec("poly:1,0,0,0")
    C = critical_level_curves(f)
    # the only critical point is the zero itself, so no critical curves
    assert C.curves() == []
    assert len(C.components) == 1
    assert C.components[0].kind is CurveKind.POINT


def test_critical_set_blaschke(blaschke_21):
    C = critical_level_curves(blaschke_21)
    assert len(C.curves()) == 2
    kinds = sorted(r.label.split("@")[0] for r in C.components)
    assert kinds.count("zero") == 2 and kinds.count("pole") == 1


def test_separating_curve_around_zero(z5, z5_C):
    crit = z5_C.curves()[0]
    sep, placement = separating_curve(z5, crit, [1 + 0j])
    assert not sep.component.vertices
    assert 0 < sep.level < 1
    assert placement == "bounded"
    # certified: separator lies between, so the zero is inside it
    assert precedes(CurveRef(CurveKind.POINT, 0.0, point=1 + 0j), sep)


@pytest.mark.parametrize("s", [1.0, 1e-10, 1e-12, 1e6])
def test_separating_curve_concentric(s):
    # f = s z^2 and L = the circle at level 4s: the search is scale-free, so
    # every s finds the same separator
    f = parse_function_spec(f"poly:{s!r},0,0")
    circle = ref_of(trace_level_set(f, 4.0 * s)[0], 4.0 * s)
    sep, placement = separating_curve(f, circle, [0j])
    assert sep.level / s == pytest.approx(3.6864, abs=1e-4)
    assert placement == "bounded"


def test_separating_curve_exterior_K(z5, z5_ovals):
    # K = the other four roots, in the unbounded face of the oval around 1
    oval1 = next(r for r in z5_ovals if min(abs(p - 1) for p in r.component.points) < 0.3)
    K = [z for z, _ in z5.zeros if abs(z - 1) > 0.1]
    sep, placement = separating_curve(z5, oval1, K)
    # fourth-bullet rule: K was in the unbounded face of bounded L, so it
    # stays in the unbounded face of the separator
    assert placement == "unbounded"


def test_separating_curve_is_noncritical(z5, z5_C):
    crit = z5_C.curves()[0]
    sep, _ = separating_curve(z5, crit, [1 + 0j])
    d = float(np.min(sep.index.distances([c for c, _ in z5.critical_points])))
    assert d > 1e-4


def test_two_curve_witness_z5(z5, z5_ovals, z5_C):
    w, f1, f2 = two_curve_critical_witness(z5, z5_ovals[0], z5_ovals[1], z5_C)
    assert abs(w.level - 1.0) < 1e-9
    assert f1 != f2


def test_two_curve_witness_lemniscate(lemniscate_fn):
    ovals = trace_level_set(lemniscate_fn, 0.5)
    assert len(ovals) == 2
    r1, r2 = (ref_of(c, 0.5) for c in ovals)
    w, f1, f2 = two_curve_critical_witness(lemniscate_fn, r1, r2)
    assert abs(w.level - 1.0) < 1e-9
    assert f1 != f2


def test_two_curve_witness_nested_rejected(z5, z5_ovals, z5_big):
    with pytest.raises(TopologyError, match="nested"):
        two_curve_critical_witness(z5, z5_ovals[0], z5_big)


def test_maximal_z5(z5, z5_C):
    m = maximal_component(z5, C=z5_C)
    assert m.kind is CurveKind.LEVEL_CURVE and abs(m.level - 1.0) < 1e-9


def test_maximal_lemniscate(lemniscate_fn):
    m = maximal_component(lemniscate_fn)
    assert m.kind is CurveKind.LEVEL_CURVE
    assert abs(m.level - 1.0) < 1e-9


def test_maximal_blaschke_nested(blaschke_21):
    C = critical_level_curves(blaschke_21)
    m = maximal_component(blaschke_21, C=C)
    assert m.kind is CurveKind.LEVEL_CURVE
    # the outer critical curve separates the pole from the zeros
    inner = [c for c in C.curves() if c is not m][0]
    assert precedes(inner, m)


def test_order_ignores_junction_chords():
    # z^3 - 3z: both critical points (+-1) sit on level 2, so the critical
    # curve has two vertices; its arcs joined end to start would make a
    # chord through the zero at 0
    f = parse_function_spec("poly:1,0,-3,0")
    C = critical_level_curves(f)
    crit = C.curves()[0]
    zero = next(r for r in C.components if r.kind is CurveKind.POINT and abs(r.point) < 1e-9)
    assert len(crit.component.vertices) == 2
    assert precedes(zero, crit)
    assert maximal_component(f, C=C) is crit


def test_membership_votes_from_far_points():
    # corpus seed 1, function 3 (degree 6): the critical curves at levels
    # 0.67705 and 0.67760 come within 2e-4 of each other, so sample points of
    # the lower one near that pass can lie on the wrong side of the other's
    # polyline; only points farther from it than its chord sag vote.  Fewer
    # than 8 are, so the lower one votes against a refined copy of the other
    f = build_corpus(4, seed=1)[3]
    C = critical_level_curves(f)
    lo, hi = (next(r for r in C.curves() if abs(r.level - lvl) < 1e-5) for lvl in (0.67705, 0.67760))
    d = hi.index.distances(lo.all_points())
    assert float(np.min(d)) < 2e-4
    assert np.count_nonzero(d > hi.component.sag) < 8
    fine = tracer._refined(hi.component)
    assert np.count_nonzero(fine.index.distances(lo.all_points()) > fine.sag) >= 8
    assert precedes(lo, hi) and not precedes(hi, lo)
    top = maximal_component(f, C=C)
    assert top.kind is CurveKind.LEVEL_CURVE and top.component.vertices
    assert abs(top.level - 1.34328) < 1e-5


# the parents of the corpus functions whose nesting votes need a refined
# copy, as they were when every curve was traced at a tenfold finer sag
_REFINED_ORDER = {
    "seed1f3": [(6, 2), (6, 1), (8, 2), (7, 1), (9, 1), (10, 1), (7, 2), (9, 2), None, (10, 2), (8, 1)],
    "seed5f0": [(6, 2), (7, 1), (8, 2), (9, 2), (9, 1), (10, 1), (7, 2), None, (6, 1), (10, 2), (8, 1)],
    "seed10f4": [(7, 2), (8, 1), (9, 2), (8, 2), (11, 2), (11, 1), (12, 1), (9, 1), (10, 2), (12, 2), (7, 1), (10, 1), None],
}
_REFINED_CASES = {
    "seed1f3": lambda: build_corpus(4, seed=1)[3],
    "seed5f0": lambda: build_corpus(1, seed=5)[0],
    "seed10f4": lambda: build_corpus(5, seed=10)[4],
}


@pytest.mark.parametrize("name", list(_REFINED_ORDER))
def test_refined_votes_keep_the_order(name, monkeypatch):
    refined = []
    real = tracer._refined
    monkeypatch.setattr(order_topology, "_refined", lambda comp: refined.append(comp) or real(comp))
    f = _REFINED_CASES[name]()
    C = critical_level_curves(f)
    assert refined
    assert C.parent == _REFINED_ORDER[name]
    assert hasse_diagram(C) == [(i, p[0]) for i, p in enumerate(_REFINED_ORDER[name]) if p is not None]
    # the refined curves are stored ones, which their copies leave as a
    # fresh trace gives them
    assert all(any(comp is c for c in f.critical_curves.values()) for comp in refined)
    fresh = _REFINED_CASES[name]()
    for i, comp in f.critical_curves.items():
        again = tracer._critical_curve(fresh, i)
        assert (comp is None) == (again is None)
        if comp is not None:
            assert [a.points.tobytes() for a in comp.arcs] == [a.points.tobytes() for a in again.arcs]
            assert comp.sag == again.sag


def test_member_without_clear_voters_raises(z5, z5_ovals, z5_big, monkeypatch):
    # with a sag above its distance to every oval point, the big curve has no
    # certified voter left, and the vote raises instead of guessing
    big = z5_big.component
    oval = z5_ovals[0]
    reach = float(np.max(big.index.distances(oval.all_points())))
    recorded = type(big).sag.fget
    monkeypatch.setattr(type(big), "sag", property(lambda c: 2.0 * reach if c is big else recorded(c)))
    with pytest.raises(TopologyError, match="oval0 has 0 points clear"):
        precedes(oval, z5_big)


def test_hasse_diagram_z5(z5_C):
    edges = hasse_diagram(z5_C)
    curve_idx = next(
        i for i, r in enumerate(z5_C.components) if r.kind is CurveKind.LEVEL_CURVE
    )
    assert sorted(edges) == sorted(
        (i, curve_idx) for i in range(len(z5_C.components)) if i != curve_idx
    )


def _pairwise_order(C):
    """The order as it was computed before the nesting forest: every pair
    through precedes, an O(n^3) covering pass and a scan for the maximal
    member.  Kept as the reference for the forest."""
    n = len(C.components)
    below = [[False] * n for _ in range(n)]
    for i, a in enumerate(C.components):
        for j, b in enumerate(C.components):
            if i != j and b.kind is CurveKind.LEVEL_CURVE:
                below[i][j] = precedes(a, b)
    edges = [
        (i, j)
        for i in range(n)
        for j in range(n)
        if below[i][j] and not any(below[i][k] and below[k][j] for k in range(n))
    ]
    maxima = [i for i in range(n) if not any(below[i])]
    return edges, maxima


_FOREST_CASES = {
    "z5m1": lambda: parse_function_spec("poly:1,0,0,0,0,-1"),
    "lemniscate": lambda: parse_function_spec("poly:1,0,-1"),
    "blaschke21": lambda: parse_function_spec("blaschke:0.36,-0.34+0.03i/0.05+0.02i"),
    "z3m3z": lambda: parse_function_spec("poly:1,0,-3,0"),
    # corpus functions whose evenly spaced membership samples split the vote
    "seed1f3": lambda: build_corpus(4, seed=1)[3],
    "seed5f0": lambda: build_corpus(1, seed=5)[0],
    "seed11f10": lambda: build_corpus(11, seed=11)[10],
}


@pytest.mark.parametrize("make", list(_FOREST_CASES.values()), ids=list(_FOREST_CASES))
def test_forest_matches_pairwise_order(make):
    f = make()
    C = critical_level_curves(f)
    edges, maxima = _pairwise_order(C)
    assert hasse_diagram(C) == edges
    assert [C.components.index(maximal_component(f, C=C))] == maxima
    for i, p in enumerate(C.parent):
        if p is not None:
            j, fid = p
            assert j == next(b for a, b in edges if a == i)
            assert fid in {fc.id for fc in C.components[j].graph().bounded_faces}


def test_forest_certificate_rejects_crossed_holders(blaschke_21, monkeypatch):
    # plant a defect: the outer critical curve no longer holds the inner one,
    # so the zeros inside the inner curve have two mutually exterior holders
    C = critical_level_curves(blaschke_21)
    outer = maximal_component(blaschke_21, C=C)
    inner = next(c for c in C.curves() if c is not outer)
    i_in, i_out = C.components.index(inner), C.components.index(outer)
    assert sum(1 for p in C.parent if p is not None and p[0] == i_in) == 2
    assert C.parent[i_in][0] == i_out
    real = order_topology._holding_faces

    def planted(b, members):
        faces = real(b, members)
        if b.label == outer.label:
            faces = [None if m.label == inner.label else fid for m, fid in zip(members, faces)]
        return faces

    monkeypatch.setattr(order_topology, "_holding_faces", planted)
    with pytest.raises(TopologyError, match="not nested"):
        critical_level_curves(blaschke_21)


def _faces_of_points_reference(graph, zs):
    """faces_of_points as it was before the face-box skip, kept as the
    reference: one on-curve query, then every point wound around every
    bounded face."""
    zs = geometry.as_points(zs)
    d = graph.component.index.distances(zs, upto=DEFAULT_TOLS.trace_tol)
    on = np.flatnonzero(d <= DEFAULT_TOLS.trace_tol)
    if on.size:
        raise TopologyError(f"point {zs[on[0]]} lies on the traced curve (distance {d[on[0]]:.2e})")
    faces = graph.bounded_faces
    inside = np.zeros((len(faces), zs.size), dtype=bool)
    for row, f in zip(inside, faces):
        w = geometry.winding_number(f.polygon, zs)
        k = np.round(w)
        bad = np.flatnonzero(np.abs(w - k) > 0.25)
        if bad.size:
            raise TopologyError(f"ambiguous winding {w[bad[0]]:.3f} of face {f.id} around {zs[bad[0]]}")
        bad = np.flatnonzero(np.abs(k) > 1)
        if bad.size:
            raise TopologyError(f"face {f.id} winds {int(k[bad[0]])} times around {zs[bad[0]]}")
        row[:] = k != 0
    many = np.flatnonzero(inside.sum(axis=0) > 1)
    if many.size:
        j = many[0]
        claims = [f.id for f, row in zip(faces, inside) if row[j]]
        raise TopologyError(f"point {zs[j]} claimed by faces {claims}")
    out = np.full(zs.shape, graph.unbounded_face.id)
    for f, row in zip(faces, inside):
        out[row] = f.id
    return out


def _holding_faces_reference(b, members, cast=None):
    """_holding_faces as it was before the voters skipped the on-curve query:
    a loop over the members, and every voter through the full face lookup.
    A member short of clear voters sends every member to vote again against
    b refined, up to _REFINE_ROUNDS times.  The voters go to the list cast, if
    one is given."""
    pts = [m.all_points() for m in members]
    for rounds in range(tracer._REFINE_ROUNDS, -1, -1):
        try:
            voters = _clear_voters_reference(b, members, pts)
            break
        except TopologyError as exc:
            finer = tracer._refined(b.component) if rounds and "are needed to vote" in str(exc) else None
            if finer is None:
                raise
            b = CurveRef(b.kind, b.level, component=finer, label=b.label)
    if b.kind is CurveKind.BOUNDARY:
        return voters
    if cast is not None:
        cast.append(np.concatenate(voters))
    g = b.graph()
    out = []
    for fs in np.split(_faces_of_points_reference(g, np.concatenate(voters)), np.cumsum([v.size for v in voters])[:-1]):
        ids = set(fs.tolist())
        if len(ids) != 1:
            raise TopologyError(f"membership vote split across faces {sorted(ids)}")
        fid = ids.pop()
        out.append(None if fid == g.unbounded_face.id else fid)
    return out


def _clear_voters_reference(b, members, pts):
    """Each member's voters against b, or, for the boundary, the faces."""
    clearance = b.component.sag if b.kind is CurveKind.LEVEL_CURVE else 0.0
    if b.kind is CurveKind.BOUNDARY:
        dists = np.abs(1.0 - np.abs(np.concatenate(pts)))
    else:
        dists = b.index.distances(np.concatenate(pts), upto=max(clearance, DEFAULT_TOLS.trace_tol))
    d = float(np.min(dists))
    if d <= DEFAULT_TOLS.trace_tol:
        raise TopologyError(f"curves too close to order (min distance {d:.3e})")
    if b.kind is CurveKind.BOUNDARY:
        return [0 if np.all(np.abs(p) < 1.0) else None for p in pts]
    voters = []
    for m, p, dp in zip(members, pts, np.split(dists, np.cumsum([p.size for p in pts])[:-1])):
        clear = np.flatnonzero(np.isinf(dp))
        need = min(8, p.size)
        if clear.size < need:
            raise TopologyError(
                f"{m.label or m.kind.value} has {clear.size} points clear of the chord sag "
                f"{clearance:.3e} of {b.label or 'the curve'}; {need} are needed to vote"
            )
        voters.append(p[clear[np.linspace(0, clear.size - 1, need).astype(int)]])
    return voters


def _outcome(fn, *args):
    try:
        return fn(*args)
    except TopologyError as exc:
        return str(exc)


def _assert_holders_match_reference(C, monkeypatch):
    """Every curve member classifies all the others as the reference does,
    from the same voters."""
    voters, want_voters = [], []
    winding = order_topology._winding_faces
    monkeypatch.setattr(order_topology, "_winding_faces", lambda g, zs: voters.append(zs) or winding(g, zs))
    for j, b in enumerate(C.components):
        if b.kind is CurveKind.LEVEL_CURVE:
            others = [m for i, m in enumerate(C.components) if i != j]
            want = _outcome(_holding_faces_reference, b, others, want_voters)
            assert _outcome(order_topology._holding_faces, b, others) == want, b.label
    assert len(voters) == len(want_voters)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(voters, want_voters))
    monkeypatch.undo()


@pytest.mark.parametrize("make", list(_FOREST_CASES.values()), ids=list(_FOREST_CASES))
def test_holding_faces_match_the_full_scan(make, monkeypatch):
    _assert_holders_match_reference(critical_level_curves(make()), monkeypatch)


def _order_outcome(f, C, rotated_levels):
    """Parents, Hasse edges, the maximal member and the two-curve witness."""
    top = maximal_component(f, C=C)
    out = [C.parent, hasse_diagram(C), C.components.index(top)]
    comps = trace_level_set(f, rotated_levels)
    if len(comps) >= 2:
        a, b = (ref_of(c, rotated_levels, f"o{i}") for i, c in enumerate(comps[:2]))
        ref, f1, f2 = two_curve_critical_witness(f, a, b, C)
        out.append((ref.label, f1, f2))
    return out


@pytest.mark.parametrize("seed", [20260810, 1])
def test_corpus_order_matches_the_full_scan(seed, monkeypatch):
    for f in build_corpus(30, seed=seed)[::3]:
        C = critical_level_curves(f)
        _assert_holders_match_reference(C, monkeypatch)
        lo = 0.6 * min(f.abs_eval(c) for c, _ in f.critical_points)
        got = _order_outcome(f, C, lo)
        with monkeypatch.context() as m:
            m.setattr(order_topology, "_holding_faces", _holding_faces_reference)
            ref_C = order_topology.CriticalSetC(C.components, order_topology._nesting_forest(C.components))
            want = _order_outcome(f, ref_C, lo)
        assert got == want


def test_planted_defects_raise_as_the_full_scan(z5, z5_ovals, z5_big, blaschke_21, monkeypatch):
    # the sag of test_member_without_clear_voters_raises: no voter left
    big = z5_big.component
    oval = z5_ovals[0]
    reach = float(np.max(big.index.distances(oval.all_points())))
    recorded = type(big).sag.fget
    with monkeypatch.context() as m:
        m.setattr(type(big), "sag", property(lambda c: 2.0 * reach if c is big else recorded(c)))
        want = _outcome(_holding_faces_reference, z5_big, [oval])
        assert "oval0 has 0 points clear" in want
        assert _outcome(order_topology._holding_faces, z5_big, [oval]) == want
    # the crossed holders of test_forest_certificate_rejects_crossed_holders
    C = critical_level_curves(blaschke_21)
    outer = maximal_component(blaschke_21, C=C)
    inner = next(c for c in C.curves() if c is not outer)

    def planted(real):
        def holding(b, members):
            faces = real(b, members)
            if b.label == outer.label:
                faces = [None if m.label == inner.label else fid for m, fid in zip(members, faces)]
            return faces

        return holding

    messages = []
    for real in (order_topology._holding_faces, _holding_faces_reference):
        with monkeypatch.context() as m:
            m.setattr(order_topology, "_holding_faces", planted(real))
            messages.append(_outcome(order_topology._nesting_forest, C.components))
    assert "not nested" in messages[0] and messages[0] == messages[1]


def _store_cases():
    corpus_f = build_corpus(30)[3]
    return [
        pytest.param("poly:1,0,-1", id="lemniscate"),
        pytest.param("poly:1,0,0,0,0,-1", id="z5m1"),
        # the saddles +-i share |f| = 2 and one curve, which the second one reuses
        pytest.param("poly:1,0,3,0", id="z3+3z"),
        # conjugate saddles on one curve, their |f| an ulp apart
        pytest.param(
            "poly:-1.284580778805345,1.0988127684144084,0.24754574096284754,0.3476505985155095,"
            "-0.8135155419815723,-0.20695643620832396,1.0",
            id="tied-real",
        ),
        pytest.param("poly:" + ",".join(repr(complex(a)) for a in corpus_f.numerator.coeffs[::-1]), id="corpus-3"),
    ]


def _critical_set_dump(C):
    return (
        [(m.label, m.level, m.kind) for m in C.components],
        C.parent,
        [[a.points.tobytes() for a in m.component.arcs] for m in C.curves()],
    )


@pytest.mark.parametrize("spec", _store_cases())
def test_stored_critical_curves_do_not_depend_on_call_order(spec):
    # a fresh f, and one that first traced every critical level (lowest
    # first), give the same critical set bit for bit
    fresh = critical_level_curves(parse_function_spec(spec))
    f = parse_function_spec(spec)
    levels = sorted(f.abs_eval(c) for c, _ in f.critical_points)
    for level in levels:
        trace_level_set(f, level)
    C = critical_level_curves(f)
    assert _critical_set_dump(C) == _critical_set_dump(fresh)
    # a level set at a critical value hands out the critical set's object,
    # also where that curve was traced at the level of another critical point
    for c, _ in f.critical_points:
        (member,) = [m for m in C.curves() if any(abs(c - v) < 1e-10 for v, _ in m.component.vertices)]
        comps = trace_level_set(f, f.abs_eval(c))
        assert any(comp is member.component for comp in comps)
    # a level a relative 1e-9 off a critical value is traced anew at its own
    # level with no vertex, or refused with a named cause; never snapped
    stored = [m.component for m in C.curves()]
    for level in levels:
        near = level * (1.0 + 1e-9)
        try:
            comps = trace_level_set(f, near)
        except TraceError as exc:
            assert "is refused near critical point" in str(exc), exc
            continue
        assert all(comp.level == near and not comp.vertices for comp in comps)
    assert all(not a.points.flags.writeable for s in stored for a in s.arcs)
