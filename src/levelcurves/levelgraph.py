"""Planar-graph structure of a traced level-curve component.

A component with vertices becomes an embedded multigraph: vertices are the
captured critical points, edges the traced arcs, and the rotation system at
each vertex is the tracer's ray slots: each arc end occupies one of the
vertex's 2(m+1) rays, numbered counterclockwise (``TracedArc.start_ray``,
``end_ray``).
Faces are the orbits of the next-dart walk; the unbounded face is the one
whose boundary walk is oriented against all the others.

A component without vertices is kept as a single closed edge with V == 0 and
two faces, so the face-count formula reads literally with an empty vertex sum.

By the maximum modulus principle every bounded face holds a zero or a pole
of f.  :func:`zeros_per_face` places them and refuses a bounded face that
holds none; the first one a bounded face holds is its representative point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import geometry
from .config import DEFAULT_TOLS
from .errors import TopologyError
from .funcspace import RationalFn
from .tracer import LevelCurveComponent


@dataclass
class Face:
    id: int
    bounded: bool
    edge_cycle: list[tuple[int, int]]  # (edge id, +1 forward / -1 reverse)
    polygon: np.ndarray  # closed boundary walk

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

    def to_dict(self, f: RationalFn) -> dict:
        """The graph as JSON.  Each bounded face's representative is the first
        zero or pole of f it holds (zeros first, in the order of ``f.zeros``
        and ``f.poles``), placed by :func:`zeros_per_face`, which refuses a
        bounded face that holds none; the unbounded face's is the corner
        beyond its box.
        """
        held = zeros_per_face(self, f)
        x0, y0, x1, y1 = self.unbounded_face.box
        beyond = complex(x0 - (x1 - x0) - 1.0, y0 - (y1 - y0) - 1.0)
        reps = {fc.id: held[fc.id][0][0] if fc.bounded else beyond for fc in self.faces}
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
                    "id": fc.id,
                    "bounded": fc.bounded,
                    "edge_cycle": [[eid, d] for eid, d in fc.edge_cycle],
                    "rep_re": reps[fc.id].real,
                    "rep_im": reps[fc.id].imag,
                }
                for fc in self.faces
            ],
        }


# ---------------------------------------------------------------------------


def build_graph(comp: LevelCurveComponent) -> LevelGraph:
    """Embed a traced component and enumerate its faces.

    All structural laws are asserted here: vertex degree 2*(mult+1), every
    edge adjacent to two distinct faces, and the face-count formula, which is
    Euler's relation.  A violation raises :class:`TopologyError`.  The embedding is
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
    """The graph of a component.  A vertex's rotation is the row of its
    2(m+1) counterclockwise ray slots, filled from the arcs' ``start_ray`` and
    ``end_ray``: the face walk leaves it by the slot after the one it arrived
    in, and a row with an empty slot fails the degree law."""
    if not comp.vertices:
        return _closed_curve_graph(comp)

    edges = list(comp.arcs)

    # rows[v][k] = (edge id, 0 if the edge leaves v by slot k, 1 if it ends there),
    # which is also the dart (edge id, dir) leaving v by slot k, with dir 0
    # along the edge and 1 against it
    rows: list[list] = [[None] * (2 * (m + 1)) for _, m in comp.vertices]
    for ei, e in enumerate(edges):
        if e.closed or e.start_vertex is None or e.end_vertex is None:
            raise TopologyError("component mixes closed arcs with vertices")
        for flag, (vi, k) in enumerate(((e.start_vertex, e.start_ray), (e.end_vertex, e.end_ray))):
            rows[vi][k] = (ei, flag)

    for (c, _), row in zip(comp.vertices, rows):
        if None in row:
            raise TopologyError(
                f"vertex {c} has degree {len(row) - row.count(None)}, expected 2*(mult+1) = {len(row)}"
            )

    def next_dart(dart):
        e = edges[dart[0]]
        vi, k = (e.end_vertex, e.end_ray) if dart[1] == 0 else (e.start_vertex, e.start_ray)
        row = rows[vi]
        return row[(k + 1) % len(row)]

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

    # the bounded faces' walks, at least two, run clockwise, and the
    # unbounded face's walk about them counterclockwise
    pos = [i for i, a in enumerate(areas) if a > 0]
    if len(pos) != 1 or not any(a < 0 for a in areas):
        raise TopologyError(
            f"cannot identify the unbounded face from walk orientations {areas}"
        )
    unbounded_idx = pos[0]

    return [Face(i, i != unbounded_idx, cycles[i], polys[i]) for i in range(len(walks))]


def _assert_laws(graph: LevelGraph):
    # with _embed's degree law E = sum(m) + V, so its total is Euler's F = E - V + 2
    face_count(graph)  # its two counts leave exactly one unbounded face
    for ei in range(len(graph.edges)):
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
    """Map face id -> list of (point, mult, kind) for zeros and poles inside,
    zeros first, in the order of ``f.zeros`` and ``f.poles``.

    Every bounded face must receive at least one entry; an empty bounded face
    means the tracing missed structure and is a hard error.  The first entry
    is the face's representative in :meth:`LevelGraph.to_dict`.
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
