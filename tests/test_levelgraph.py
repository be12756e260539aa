import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levelcurves import (
    DEFAULT_TOLS,
    TopologyError,
    build_graph,
    critical_level_curves,
    face_count,
    face_of_point,
    parse_function_spec,
    trace_level_set,
    zeros_per_face,
)
from levelcurves import geometry
from levelcurves.gridcheck import crossing_cells
from levelcurves.levelgraph import _assert_laws, faces_of_points


def test_z5m1_graph_counts(z5m1):
    g = build_graph(trace_level_set(z5m1, 1.0)[0])
    assert len(g.vertices) == 1
    assert len(g.edges) == 5
    assert face_count(g) == (5, 6)
    assert g.degree(0) == 10  # 2 * (mult + 1) with mult = 4


def test_build_graph_rejects_a_degree_violation(z5m1):
    """Each of the five loops of z^5-1 at 1 leaves and returns to the vertex
    0 of multiplicity 4, so dropping one leaves 8 of its 10 ray slots filled."""
    comp = trace_level_set(z5m1, 1.0)[0]
    bad = dataclasses.replace(comp, arcs=comp.arcs[1:])
    with pytest.raises(TopologyError, match=r"vertex 0j has degree 8, expected 2\*\(mult\+1\) = 10"):
        build_graph(bad)


def test_build_graph_rejects_a_closed_arc_beside_vertices(z5m1):
    comp = trace_level_set(z5m1, 1.0)[0]
    loop = dataclasses.replace(comp.arcs[0], start_vertex=None, end_vertex=None, closed=True)
    bad = dataclasses.replace(comp, arcs=[loop] + comp.arcs[1:])
    with pytest.raises(TopologyError, match="component mixes closed arcs with vertices"):
        build_graph(bad)


def test_build_graph_rejects_two_arc_ends_in_one_ray_slot(lemniscate_fn):
    # the lemniscate's two arcs leave its vertex 0 by different slots; moving
    # the second arc's start into the first's slot leaves 3 of its 4 filled
    comp = trace_level_set(lemniscate_fn, 1.0)[0]
    a, b = comp.arcs
    bad = dataclasses.replace(comp, arcs=[a, dataclasses.replace(b, start_ray=a.start_ray)])
    with pytest.raises(TopologyError, match=r"vertex 0j has degree 3, expected 2\*\(mult\+1\) = 4"):
        build_graph(bad)
    # a copy of an arc in its own slots fills no empty one: the face walk,
    # which never returns to the overwritten arc's darts, refuses it
    with pytest.raises(TopologyError, match="face walk re-entered a visited dart"):
        build_graph(dataclasses.replace(comp, arcs=[a, b, a]))


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda arc: [arc, arc], "vertex-free component must be a single closed arc"),
        (
            lambda arc: [dataclasses.replace(arc, points=np.array([0, 1, 0], dtype=complex))],
            "closed curve has zero area",
        ),
    ],
)
def test_build_graph_rejects_a_malformed_closed_curve(lemniscate_fn, edit, message):
    # at 0.5 the lemniscate is two closed curves, one about each zero
    comp = trace_level_set(lemniscate_fn, 0.5)[0]
    assert not comp.vertices and len(comp.arcs) == 1
    with pytest.raises(TopologyError, match=message):
        build_graph(dataclasses.replace(comp, arcs=edit(comp.arcs[0])))


def test_law_check_rejects_a_face_count_violation(z5m1):
    """One more multiplicity at each vertex keeps V, E and F, and the
    face-count law, the one count of the faces, refuses the graph."""
    g = build_graph(trace_level_set(z5m1, 1.0)[0])
    bad = dataclasses.replace(g, vertices=[(c, m + 1) for c, m in g.vertices])
    with pytest.raises(TopologyError, match=r"face enumeration \(5, 6\) disagrees with formula \(6, 7\)"):
        _assert_laws(bad)


def test_simple_closed_curve_convention():
    f = parse_function_spec("poly:1,0,0")
    g = build_graph(trace_level_set(f, 4.0)[0])
    assert len(g.vertices) == 0
    assert len(g.edges) == 1 and g.edges[0].closed
    assert face_count(g) == (1, 2)


def test_lemniscate_graph(lemniscate_fn):
    g = build_graph(trace_level_set(lemniscate_fn, 1.0)[0])
    assert len(g.vertices) == 1
    assert len(g.edges) == 2
    assert face_count(g) == (2, 3)


def test_lemniscate_flood_fill_oracle(lemniscate_fn):
    # independent bounded-region count: flood fill the complement of the
    # rasterized curve band on a grid and count interior basins
    comps = trace_level_set(lemniscate_fn, 1.0)
    cells, diag = crossing_cells(lemniscate_fn, 1.0, (-2.0, -1.4, 2.0, 1.4), 220)
    n = 220
    xs = np.linspace(-2.0, 2.0, n)
    ys = np.linspace(-1.4, 1.4, n)
    blocked = np.zeros((n, n), dtype=bool)
    ix = np.clip(np.searchsorted(xs, cells.real), 0, n - 1)
    iy = np.clip(np.searchsorted(ys, cells.imag), 0, n - 1)
    blocked[iy, ix] = True
    seen = np.zeros_like(blocked)
    basins = 0
    for i0 in range(n):
        for j0 in range(n):
            if blocked[i0, j0] or seen[i0, j0]:
                continue
            stack = [(i0, j0)]
            seen[i0, j0] = True
            touches_border = False
            while stack:
                i, j = stack.pop()
                if i in (0, n - 1) or j in (0, n - 1):
                    touches_border = True
                for a, b in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)):
                    if 0 <= a < n and 0 <= b < n and not blocked[a, b] and not seen[a, b]:
                        seen[a, b] = True
                        stack.append((a, b))
            if not touches_border:
                basins += 1
    g = build_graph(comps[0])
    assert basins == face_count(g)[0] == 2


def test_face_of_point_roots(z5m1):
    g = build_graph(trace_level_set(z5m1, 1.0)[0])
    faces = {face_of_point(g, z) for z, _ in z5m1.zeros}
    assert len(faces) == 5
    assert all(f != g.unbounded_face.id for f in faces)
    assert face_of_point(g, 40 + 40j) == g.unbounded_face.id


def test_face_of_point_lemniscate_lobes(lemniscate_fn):
    g = build_graph(trace_level_set(lemniscate_fn, 1.0)[0])
    assert face_of_point(g, 1 + 0j) != face_of_point(g, -1 + 0j)


def test_face_of_point_on_curve_rejected(lemniscate_fn):
    g = build_graph(trace_level_set(lemniscate_fn, 1.0)[0])
    p = g.component.arcs[0].points[len(g.component.arcs[0].points) // 2]
    with pytest.raises(TopologyError):
        face_of_point(g, complex(p))


def test_zeros_per_face_fixtures(z5m1):
    g1 = build_graph(trace_level_set(z5m1, 1.0)[0])
    m1 = zeros_per_face(g1, z5m1)
    for fc in g1.bounded_faces:
        assert len(m1[fc.id]) == 1

    g2 = build_graph(trace_level_set(z5m1, 1.5)[0])
    m2 = zeros_per_face(g2, z5m1)
    assert len(m2[g2.bounded_faces[0].id]) == 5

    fsq = parse_function_spec("poly:1,0,0")
    g3 = build_graph(trace_level_set(fsq, 1.0)[0])
    m3 = zeros_per_face(g3, fsq)
    (entry,) = m3[g3.bounded_faces[0].id]
    assert entry[1] == 2  # the double zero


def test_admissibility_restrictions(z5m1, lemniscate_fn):
    for f in (z5m1, lemniscate_fn):
        g = build_graph(trace_level_set(f, 1.0)[0])
        for vi in range(len(g.vertices)):
            deg = g.degree(vi)
            assert deg % 2 == 0 and deg >= 4
        for ei in range(len(g.edges)):
            assert g.dart_face[(ei, 0)] != g.dart_face[(ei, 1)]


def segment_crosses_polyline(a: complex, b: complex, pts) -> bool:
    """Exact test: does the open segment [a, b] cross any segment of the polyline pts?"""
    p0, p1 = pts[:-1], pts[1:]

    def orient(o, d, q):
        return d.real * (q - o).imag - d.imag * (q - o).real

    hit = (np.sign(orient(a, b - a, p0)) != np.sign(orient(a, b - a, p1))) & (
        np.sign(orient(p0, p1 - p0, a)) != np.sign(orient(p0, p1 - p0, b))
    )
    return bool(np.any(hit))


def test_face_membership_total_and_consistent(z5m1):
    g = build_graph(trace_level_set(z5m1, 1.0)[0])
    rng = np.random.default_rng(4)
    pts = []
    while len(pts) < 1000:
        z = complex(rng.uniform(-1.8, 1.8), rng.uniform(-1.8, 1.8))
        if g.component.index.distances([z])[0] > 5e-3:
            pts.append(z)
    ids = [face_of_point(g, z) for z in pts]
    assert all(isinstance(i, int) for i in ids)

    # points joined by a segment that avoids the curve share a face
    arcs = [a.points for a in g.component.arcs]
    checked = 0
    for i in range(0, 900, 7):
        a, b = pts[i], pts[i + 1]
        if not any(segment_crosses_polyline(a, b, arc) for arc in arcs):
            assert ids[i] == ids[i + 1]
            checked += 1
    assert checked > 10


def test_face_representatives_valid():
    """Each bounded face's representative is a zero or pole of f that the
    face lookup puts in that face; the unbounded face's lies in it too."""
    for spec, eps in (
        ("poly:1,0,0,0,0,-1", 1.0),
        ("poly:1,0,-1", 1.0),
        ("blaschke:0.36,-0.34+0.03i/0.05+0.02i", 0.5),
    ):
        f = parse_function_spec(spec)
        held = [z for z, _ in f.zeros] + [p for p, _ in f.poles]
        for comp in trace_level_set(f, eps):
            g = build_graph(comp)
            for fc in g.to_dict(f)["faces"]:
                rep = complex(fc["rep_re"], fc["rep_im"])
                assert face_of_point(g, rep) == fc["id"]
                assert (rep in held) == fc["bounded"]


def test_graph_json_schema(lemniscate_fn):
    g = build_graph(trace_level_set(lemniscate_fn, 1.0)[0])
    d = g.to_dict(lemniscate_fn)
    assert set(d) == {"level", "vertices", "edges", "faces"}
    assert d["vertices"][0].keys() == {"id", "re", "im", "mult"}
    assert d["edges"][0].keys() == {"id", "v_from", "v_to", "closed", "polyline_id"}
    assert d["faces"][0].keys() == {"id", "bounded", "edge_cycle", "rep_re", "rep_im"}
    assert sum(1 for fc in d["faces"] if not fc["bounded"]) == 1
    # the two bounded faces are represented by the zeros +-1 they hold
    reps = sorted((fc["rep_re"], fc["rep_im"]) for fc in d["faces"] if fc["bounded"])
    assert reps == [(-1.0, 0.0), (1.0, 0.0)]


def test_a_bounded_face_without_zero_or_pole_is_refused(lemniscate_fn):
    """Against z^2 - 100, whose zeros +-10 lie outside it, the lemniscate's
    bounded faces hold nothing: the face placement and the graph's JSON both
    refuse it."""
    g = build_graph(trace_level_set(lemniscate_fn, 1.0)[0])
    far = parse_function_spec("poly:1,0,-100")
    with pytest.raises(TopologyError, match="bounded face 1 contains no zero or pole"):
        zeros_per_face(g, far)
    with pytest.raises(TopologyError, match="bounded face 1 contains no zero or pole"):
        g.to_dict(far)


def _face_of_point_reference(graph, z):
    """The scalar face lookup as it was before the batched one, kept as the
    reference: one distance query and one winding number per face, per point."""
    d = graph.component.index.distances([z], upto=DEFAULT_TOLS.trace_tol)[0]
    if d <= DEFAULT_TOLS.trace_tol:
        raise TopologyError(f"point {z} lies on the traced curve (distance {d:.2e})")
    hits = []
    for f in graph.faces:
        if not f.bounded:
            continue
        w = geometry.winding_number(f.polygon, [z])[0]
        k = round(w)
        if abs(w - k) > 0.25:
            raise TopologyError(f"ambiguous winding {w:.3f} of face {f.id} around {z}")
        if k != 0:
            if abs(k) != 1:
                raise TopologyError(f"face {f.id} winds {k} times around {z}")
            hits.append(f.id)
    if len(hits) > 1:
        raise TopologyError(f"point {z} claimed by faces {hits}")
    if hits:
        return hits[0]
    return graph.unbounded_face.id


def _outcome(fn, *args):
    try:
        return fn(*args)
    except TopologyError as exc:
        return str(exc)


@pytest.fixture(scope="module")
def critical_graphs(z5m1, blaschke_21):
    return [c.graph() for f in (z5m1, blaschke_21) for c in critical_level_curves(f).curves()]


@settings(max_examples=150, deadline=None)
@given(
    which=st.integers(0, 2),
    uv=st.lists(st.tuples(st.floats(-0.2, 1.2), st.floats(-0.2, 1.2)), min_size=1, max_size=30),
    on_curve=st.one_of(st.none(), st.floats(0.0, 1.0)),
)
def test_batched_face_lookup_matches_scalar(critical_graphs, which, uv, on_curve):
    g = critical_graphs[which]
    x0, y0, x1, y1 = geometry.bounding_box([g.component.points])
    zs = [complex(x0 + u * (x1 - x0), y0 + v * (y1 - y0)) for u, v in uv]
    if on_curve is not None:
        pts = g.component.points
        zs.append(complex(pts[int(on_curve * (len(pts) - 1))]))
    ref = [_outcome(_face_of_point_reference, g, z) for z in zs]
    if on_curve is not None:
        assert "lies on the traced curve" in ref[-1]
    # one point at a time: the same face id or the same error
    assert [_outcome(lambda z: int(faces_of_points(g, [z])[0]), z) for z in zs] == ref
    assert [_outcome(face_of_point, g, z) for z in zs] == ref
    # all points at once: the same face ids, or an error when any point has one
    if all(isinstance(r, int) for r in ref):
        assert faces_of_points(g, zs).tolist() == ref
    else:
        with pytest.raises(TopologyError):
            faces_of_points(g, zs)


@pytest.fixture(scope="module")
def fixture_graphs(z5m1, lemniscate_fn, blaschke_21):
    return [c.graph() for f in (z5m1, lemniscate_fn, blaschke_21) for c in critical_level_curves(f).curves()]


def _wind_every_face(graph, zs):
    """The face of each point by winding it around every bounded face."""
    out = np.full(zs.shape, graph.unbounded_face.id)
    for f in graph.bounded_faces:
        out[np.round(geometry.winding_number(f.polygon, zs)) != 0] = f.id
    return out


def test_face_lookup_skips_only_what_a_face_box_decides(fixture_graphs):
    rng = np.random.default_rng(35)
    for g in fixture_graphs:
        zs = []
        for f in g.bounded_faces:
            x0, y0, x1, y1 = f.box
            w, h = x1 - x0, y1 - y0
            u, v = rng.uniform(size=(2, 40))
            zs += list(x0 + u * w + 1j * (y0 + v * h))  # inside the box
            # on its edges, and beyond them by up to half its size
            zs += list(rng.choice([x0, x1], 20) + 1j * (y0 + v[:20] * h))
            zs += list(x0 + u[:20] * w + 1j * rng.choice([y0, y1], 20))
            left = rng.random(20) < 0.5
            zs += list(np.where(left, x0 - 0.5 * w * u[:20], x1 + 0.5 * w * u[:20]) + 1j * (y0 + v[20:] * h))
            zs += list(x0 + u[20:] * w + 1j * np.where(left, y0 - 0.5 * h * v[:20], y1 + 0.5 * h * v[:20]))
        zs = np.array(zs)
        # drop the few points within trace_tol of the curve, which are refused
        zs = zs[g.component.index.distances(zs) > DEFAULT_TOLS.trace_tol]
        want = _wind_every_face(g, zs)
        assert set(want.tolist()) == {fc.id for fc in g.faces}
        assert np.array_equal(faces_of_points(g, zs), want)
        assert [face_of_point(g, z) for z in zs[::25]] == want[::25].tolist()
        # a point of the polyline in the batch is still refused
        on = g.component.points[rng.integers(0, g.component.points.size)]
        with pytest.raises(TopologyError, match="lies on the traced curve"):
            faces_of_points(g, np.insert(zs, zs.size // 2, on))


@pytest.mark.parametrize("z", [complex(np.nan, 0.0), complex(0.0, np.inf), complex(-np.inf, np.nan)])
def test_face_lookup_refuses_non_finite_points(fixture_graphs, z):
    g = fixture_graphs[0]
    with pytest.raises(TopologyError, match="is not finite"):
        face_of_point(g, z)
    # the same answer in a pass of more points than one winding block
    zs = np.full(geometry._BLOCK_PAIRS, 10.0 + 10.0j)
    zs[zs.size // 2] = z
    with pytest.raises(TopologyError, match="is not finite"):
        faces_of_points(g, zs)
