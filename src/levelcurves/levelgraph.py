"""Planar-graph structure of a traced level-curve component.

A component with vertices becomes an embedded multigraph: vertices are the
captured critical points, edges the traced arcs, and the rotation system at
each vertex comes from the outgoing tangent angles of the incident arc ends.
Faces are the orbits of the next-dart walk; the unbounded face is the one
whose boundary walk is oriented against all the others.

A component without vertices is kept as a single closed edge with V == 0 and
two faces, so the face-count formula reads literally with an empty vertex sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import geometry
from .config import DEFAULT_TOLS
from .errors import TopologyError
from .funcspace import RationalFn
from .tracer import LevelCurveComponent

# minimum angular separation of incident arcs in a rotation system (rad)
ANGLE_TOL = 1e-4


@dataclass
class Face:
    id: int
    bounded: bool
    edge_cycle: list[tuple[int, int]]  # (edge id, +1 forward / -1 reverse)
    polygon: np.ndarray  # closed boundary walk

    @cached_property
    def rep_point(self) -> complex:
        """A point of the face: one the bounded face's walk winds around, or
        the corner beyond the unbounded face's walk."""
        if self.bounded:
            return _interior_point(self.polygon)
        x0, y0, x1, y1 = self.box
        return complex(x0 - (x1 - x0) - 1.0, y0 - (y1 - y0) - 1.0)

    @cached_property
    def box(self) -> tuple[float, float, float, float]:
        """(x0, y0, x1, y1) around the boundary walk."""
        x, y = self.polygon.real, self.polygon.imag
        return float(x.min()), float(y.min()), float(x.max()), float(y.max())


@dataclass
class LevelGraph:
    """Embedded planar graph of one level-curve component."""

    level: float
    vertices: list[tuple[complex, int]]  # (position, mult)
    edges: list  # TracedArc refs
    faces: list[Face]
    component: LevelCurveComponent
    dart_face: dict = field(default_factory=dict)  # (edge id, dir) -> face id

    @property
    def unbounded_face(self) -> Face:
        return next(f for f in self.faces if not f.bounded)

    @property
    def bounded_faces(self) -> list[Face]:
        return [f for f in self.faces if f.bounded]

    def degree(self, v_idx: int) -> int:
        deg = 0
        for e in self.edges:
            if e.start_vertex == v_idx:
                deg += 1
            if e.end_vertex == v_idx:
                deg += 1
        return deg

    def to_dict(self) -> dict:
        return {
            "level": self.level,
            "vertices": [
                {"id": i, "re": c.real, "im": c.imag, "mult": m}
                for i, (c, m) in enumerate(self.vertices)
            ],
            "edges": [
                {
                    "id": i,
                    "v_from": e.start_vertex,
                    "v_to": e.end_vertex,
                    "closed": e.closed,
                    "polyline_id": i,
                }
                for i, e in enumerate(self.edges)
            ],
            "faces": [
                {
                    "id": f.id,
                    "bounded": f.bounded,
                    "edge_cycle": [[eid, d] for eid, d in f.edge_cycle],
                    "rep_re": f.rep_point.real,
                    "rep_im": f.rep_point.imag,
                }
                for f in self.faces
            ],
        }


# ---------------------------------------------------------------------------


def build_graph(comp: LevelCurveComponent) -> LevelGraph:
    """Embed a traced component and enumerate its faces.

    All structural laws are asserted here: vertex degree 2*(mult+1), every
    edge adjacent to two distinct faces, the face-count formula, and Euler's
    relation.  A violation raises :class:`TopologyError`.  The embedding is
    found once per component and kept on it (``comp.embedding``), like its
    ``index``; every graph of the component shares its lists and faces, and
    none may change them.
    """
    if comp.embedding is None:
        g = _embed(comp)
        comp.embedding = g.vertices, g.edges, g.faces, g.dart_face
        return g
    vertices, edges, faces, dart_face = comp.embedding
    return LevelGraph(comp.level, vertices, edges, faces, comp, dart_face)


def _embed(comp: LevelCurveComponent) -> LevelGraph:
    if not comp.vertices:
        return _closed_curve_graph(comp)

    n_v = len(comp.vertices)
    edges = list(comp.arcs)

    # stubs[(v)] = sorted list of (angle, edge id, end flag 0=start 1=end)
    stubs: list[list[tuple[float, int, int]]] = [[] for _ in range(n_v)]
    for ei, e in enumerate(edges):
        if e.closed or e.start_vertex is None or e.end_vertex is None:
            raise TopologyError("component mixes closed arcs with vertices")
        stubs[e.start_vertex].append((e.start_angle, ei, 0))
        stubs[e.end_vertex].append((e.end_angle, ei, 1))

    for vi, (c, m) in enumerate(comp.vertices):
        want = 2 * (m + 1)
        if len(stubs[vi]) != want:
            raise TopologyError(
                f"vertex {c} has degree {len(stubs[vi])}, expected 2*(mult+1) = {want}"
            )
        stubs[vi].sort()
        angles = [s[0] for s in stubs[vi]]
        for k in range(len(angles)):
            gap = (angles[(k + 1) % len(angles)] - angles[k]) % (2.0 * math.pi)
            if gap < ANGLE_TOL:
                raise TopologyError(
                    f"rotation ambiguity at vertex {c}: incident arcs separated by {gap:.2e} rad"
                )

    # darts: (edge id, dir) with dir 0 = start->end, 1 = end->start.
    # stub_of_tail / stub_of_head locate the dart among the vertex rotations.
    stub_index: dict[tuple[int, int], tuple[int, int]] = {}
    for vi, lst in enumerate(stubs):
        for pos, (_, ei, flag) in enumerate(lst):
            stub_index[(ei, flag)] = (vi, pos)

    def next_dart(dart):
        ei, d = dart
        head_flag = 1 if d == 0 else 0
        vi, pos = stub_index[(ei, head_flag)]
        lst = stubs[vi]
        _, ei2, flag2 = lst[(pos + 1) % len(lst)]
        return (ei2, 0 if flag2 == 0 else 1)

    all_darts = [(ei, d) for ei in range(len(edges)) for d in (0, 1)]
    seen = set()
    walks: list[list[tuple[int, int]]] = []
    for start in all_darts:
        if start in seen:
            continue
        walk = []
        cur = start
        while True:
            walk.append(cur)
            seen.add(cur)
            cur = next_dart(cur)
            if cur == start:
                break
            if cur in seen:
                raise TopologyError("face walk re-entered a visited dart; embedding corrupt")
        walks.append(walk)

    faces = _materialize_faces(walks, edges)

    graph = LevelGraph(comp.level, list(comp.vertices), edges, faces, comp)
    for f in faces:
        for k, (eid, d) in enumerate(f.edge_cycle):
            graph.dart_face[(eid, 0 if d > 0 else 1)] = f.id

    _assert_laws(graph)
    return graph


def _closed_curve_graph(comp: LevelCurveComponent) -> LevelGraph:
    if len(comp.arcs) != 1 or not comp.arcs[0].closed:
        raise TopologyError("vertex-free component must be a single closed arc")
    pts = np.asarray(comp.arcs[0].points)
    if geometry.signed_area(pts) == 0.0:
        raise TopologyError("closed curve has zero area")
    faces = [Face(0, True, [(0, 1)], pts), Face(1, False, [(0, -1)], pts[::-1])]
    g = LevelGraph(comp.level, [], [comp.arcs[0]], faces, comp)
    g.dart_face[(0, 0)] = 0
    g.dart_face[(0, 1)] = 1
    return g


def _materialize_faces(walks, edges) -> list[Face]:
    polys = []
    areas = []
    cycles = []
    for walk in walks:
        pieces = []
        cycle = []
        for ei, d in walk:
            p = edges[ei].points
            pieces.append(p[:-1] if d == 0 else p[::-1][:-1])
            cycle.append((ei, 1 if d == 0 else -1))
        poly = np.concatenate(pieces + [pieces[0][:1]])
        polys.append(poly)
        areas.append(geometry.signed_area(poly))
        cycles.append(cycle)

    total = sum(areas)
    scale2 = max(abs(a) for a in areas)
    if abs(total) > 1e-6 * max(scale2, 1e-12):
        raise TopologyError(f"face areas do not cancel (sum {total:.3e}); embedding corrupt")

    neg = [i for i, a in enumerate(areas) if a < 0]
    pos = [i for i, a in enumerate(areas) if a > 0]
    if len(neg) == 1 and len(pos) >= 1:
        unbounded_idx = neg[0]
    elif len(pos) == 1 and len(neg) >= 1:
        unbounded_idx = pos[0]
    else:
        raise TopologyError(
            f"cannot identify the unbounded face from walk orientations {areas}"
        )

    return [Face(i, i != unbounded_idx, cycles[i], polys[i]) for i in range(len(walks))]


def _interior_point(poly) -> complex:
    """A point with nonzero winding of the given closed walk around it."""
    p = np.asarray(poly)
    n = p.size - 1
    h = geometry.max_segment_length(p)
    index = geometry.SegmentIndex([p])
    for frac in (0.25, 0.5, 0.75, 0.1, 0.9, 0.35, 0.65):
        idx = max(1, int(n * frac))
        a, b = p[idx - 1], p[idx]
        if a == b:
            continue
        tangent = (b - a) / abs(b - a)
        normal = 1j * tangent
        mid = 0.5 * (a + b)
        for delta in (2.0 * h, 0.5 * h, 0.1 * h, 5.0 * h, 20.0 * h):
            for side in (+1.0, -1.0):
                cand = mid + side * delta * normal
                if index.distances([cand], upto=0.45 * delta)[0] < 0.45 * delta:
                    continue
                w = geometry.winding_number(p, [cand])[0]
                if abs(w - round(w)) > 0.05:
                    continue
                if round(w) != 0:
                    return complex(cand)
    raise TopologyError("could not place an interior representative point")


def _assert_laws(graph: LevelGraph):
    V = len(graph.vertices)
    E = len(graph.edges)
    F = len(graph.faces)

    if F != E - V + 2:
        raise TopologyError(f"Euler violation: F={F}, E={E}, V={V}")
    face_count(graph)  # its two counts leave exactly one unbounded face
    for ei in range(E):
        fa = graph.dart_face.get((ei, 0))
        fb = graph.dart_face.get((ei, 1))
        if fa is None or fb is None or fa == fb:
            raise TopologyError(f"edge {ei} not adjacent to two distinct faces")


# ---------------------------------------------------------------------------


def face_count(graph: LevelGraph) -> tuple[int, int]:
    """(bounded, total) face counts, re-checked against the vertex formula."""
    bounded = sum(1 for f in graph.faces if f.bounded)
    total = len(graph.faces)
    mult_sum = sum(m for _, m in graph.vertices)
    if bounded != mult_sum + 1 or total != mult_sum + 2:
        raise TopologyError(
            f"face enumeration ({bounded}, {total}) disagrees with formula "
            f"({mult_sum + 1}, {mult_sum + 2})"
        )
    return bounded, total


def face_of_point(graph: LevelGraph, z: complex) -> int:
    """The face id of one point, as :func:`faces_of_points` gives it."""
    return int(faces_of_points(graph, [z])[0])


def faces_of_points(graph: LevelGraph, zs) -> np.ndarray:
    """Face id containing each point of zs, by the winding of each bounded
    face's boundary walk: one on-curve distance query, then one winding pass
    (:func:`_winding_faces`), which skips the points outside a face's box.

    A point that is not finite, a point on the traced curve, a non-integer
    or multiple winding, and a point claimed by two faces are each a
    :class:`TopologyError`.
    """
    zs = geometry.as_points(zs)
    odd = np.flatnonzero(~np.isfinite(zs))
    if odd.size:
        raise TopologyError(f"point {zs[odd[0]]} is not finite")
    d = graph.component.index.distances(zs, upto=DEFAULT_TOLS.trace_tol)
    on = np.flatnonzero(d <= DEFAULT_TOLS.trace_tol)
    if on.size:
        raise TopologyError(f"point {zs[on[0]]} lies on the traced curve (distance {d[on[0]]:.2e})")
    return _winding_faces(graph, zs)


def _winding_faces(graph: LevelGraph, zs: np.ndarray) -> np.ndarray:
    """The face of each point of zs, none of which may lie on the curve.

    Outside a bounded face's bounding box its winding is 0 and is not
    computed.
    """
    faces = graph.bounded_faces
    inside = np.zeros((len(faces), zs.size), dtype=bool)
    for row, f in zip(inside, faces):
        x0, y0, x1, y1 = f.box
        near = np.flatnonzero((zs.real >= x0) & (zs.real <= x1) & (zs.imag >= y0) & (zs.imag <= y1))
        p = zs[near]
        w = geometry.winding_number(f.polygon, p)
        k = np.round(w)
        bad = np.flatnonzero(np.abs(w - k) > 0.25)
        if bad.size:
            raise TopologyError(f"ambiguous winding {w[bad[0]]:.3f} of face {f.id} around {p[bad[0]]}")
        bad = np.flatnonzero(np.abs(k) > 1)
        if bad.size:
            raise TopologyError(f"face {f.id} winds {int(k[bad[0]])} times around {p[bad[0]]}")
        row[near] = k != 0
    many = np.flatnonzero(inside.sum(axis=0) > 1)
    if many.size:
        j = many[0]
        claims = [f.id for f, row in zip(faces, inside) if row[j]]
        raise TopologyError(f"point {zs[j]} claimed by faces {claims}")
    out = np.full(zs.shape, graph.unbounded_face.id)
    for f, row in zip(faces, inside):
        out[row] = f.id
    return out


def zeros_per_face(graph: LevelGraph, f: RationalFn) -> dict:
    """Map face id -> list of (point, mult, kind) for zeros and poles inside.

    Every bounded face must receive at least one entry; an empty bounded face
    means the tracing missed structure and is a hard error.
    """
    out: dict[int, list] = {fc.id: [] for fc in graph.faces}
    points = [(z, m, "zero") for z, m in f.zeros] + [(p, m, "pole") for p, m in f.poles]
    for entry, fid in zip(points, faces_of_points(graph, [z for z, _, _ in points])):
        out[int(fid)].append(entry)
    for fc in graph.faces:
        if fc.bounded and not out[fc.id]:
            raise TopologyError(
                f"bounded face {fc.id} contains no zero or pole; "
                "maximum modulus forbids this, tracing is incomplete"
            )
    return out
