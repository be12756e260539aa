"""Annular decomposition of the domain and the conformal power map.

Removing the critical set (critical level curves, zeros, poles) from the
domain leaves finitely many components, each conformally an annulus.  On
each component the map phi is a branch of f^(1/M): |f|^(1/M) * e^(i*alpha/M)
with alpha a continued argument of f on a grid mesh of the region.  alpha is
unwrapped along the mesh rows and the row runs are joined by column edges
(one spanning tree); a second tree that joins the columns by row edges and
the residue of every mesh edge certify it mod 2*pi*N.  M = +N when arg f
increases along positively oriented level curves in the region (the inner
boundary encloses net zeros), M = -N for net poles; with this branch the
power identity f == phi^M holds exactly on both kinds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry
from .config import DEFAULT_TOLS, Tolerances
from .errors import CertificateError, TopologyError, TraceError
from .funcspace import DomainKind, DomainSpec, RationalFn
from .levelgraph import face_of_point, faces_of_points
from .order_topology import (
    CriticalSetC,
    CurveKind,
    CurveRef,
    _membership_face,
    critical_level_curves,
)
from .tracer import _LevelTracer, _domain_scale, _ray_crossings, _trace_component_with, trace_level_set

TWO_PI = 2.0 * math.pi
MESH_SIZES = (48, 72, 108, 162, 243)
MAX_EDGE_TURN = 0.25 * math.pi
MIN_MESH_POINTS = 64  # a coarser mesh with fewer region points is refined


@dataclass
class PhiGrid:
    """Sampled conformal map on a region mesh."""

    points: np.ndarray  # complex mesh points
    f_vals: np.ndarray
    alpha: np.ndarray  # arg f continued on the row-run tree, alpha[basepoint] = principal arg
    phi: np.ndarray
    spacing: float
    basepoint_index: int
    tree_discrepancy: float  # alpha against the column-run tree, reduced mod 2*pi*N
    cycle_discrepancy: float  # worst residue of any mesh edge on the row-run tree, mod 2*pi*N
    n_cycle_samples: int  # mesh edges checked: all of them


@dataclass
class AnnularRegion:
    """One component of the domain minus the critical set."""

    inner_boundary: CurveRef
    outer_boundary: CurveRef
    outer_face_id: int | None  # face of the outer graph holding the region
    eps1: float  # |f| on the inner boundary (0 for a zero, inf for a pole)
    eps2: float  # |f| on the outer boundary
    N: int = 0
    M: int = 0
    basepoint: complex = 0j
    phi_grid: PhiGrid | None = None
    label: str = ""

    def level_interval(self) -> tuple[float, float]:
        lo, hi = sorted((self.eps1, self.eps2))
        return lo, hi

    def image_radii(self) -> tuple[float, float]:
        """Open interval of |phi| on the region: between eps1^(1/M) and eps2^(1/M)."""
        return tuple(sorted((_power_radius(self.eps1, self.M), _power_radius(self.eps2, self.M))))

    def contains(self, z: complex, f: RationalFn, tols: Tolerances = DEFAULT_TOLS) -> bool:
        av = f.abs_eval(z)
        lo, hi = self.level_interval()
        if not (lo < av < hi):
            return False
        if self.outer_boundary.kind is CurveKind.BOUNDARY:
            if abs(z) >= 1.0:
                return False
        else:
            g = self.outer_boundary.graph(tols)
            if face_of_point(g, z, tols) != self.outer_face_id:
                return False
        if self.inner_boundary.kind is CurveKind.LEVEL_CURVE:
            if _membership_face(self.inner_boundary, [z], tols) is not None:
                return False
        return True

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "inner": self.inner_boundary.label,
            "outer": self.outer_boundary.label,
            "eps1": _json_float(self.eps1),
            "eps2": _json_float(self.eps2),
            "N": self.N,
            "M": self.M,
            "basepoint": [self.basepoint.real, self.basepoint.imag],
        }


def _json_float(x: float):
    return "inf" if math.isinf(x) else x


def _power_radius(eps: float, M: int) -> float:
    """eps^(1/M) with the 0/inf conventions of signed M."""
    if eps == 0.0:
        return 0.0 if M > 0 else math.inf
    if math.isinf(eps):
        return math.inf if M > 0 else 0.0
    return eps ** (1.0 / M)


# ---------------------------------------------------------------------------
# decomposition


def _outer_boundary(f: RationalFn, domain: DomainSpec, C: CriticalSetC, tols: Tolerances):
    """The outer edge of the working domain as a CurveRef.

    On the unit disk this is the boundary circle with |f| == 1.  On the plane
    (or a rectangle window) it is a traced level curve beyond every critical
    value, which makes the working domain satisfy the boundary restrictions
    exactly.
    """
    if domain.kind is DomainKind.UNIT_DISK:
        theta = np.linspace(0.0, TWO_PI, 721)
        circle = np.exp(1j * theta)
        return CurveRef(CurveKind.BOUNDARY, 1.0, boundary=circle, label="unit-circle"), None

    finite_levels = [
        ref.level for ref in C.components if math.isfinite(ref.level) and ref.level > 0
    ]
    eps_out = 4.0 * max([1.0] + finite_levels)
    comps = trace_level_set(f, eps_out, DomainSpec.plane(), tols)
    if len(comps) != 1 or comps[0].vertices:
        raise TopologyError(
            f"outer level {eps_out} is not a single simple curve; enlarge the level"
        )
    ref = CurveRef(
        CurveKind.LEVEL_CURVE, eps_out, component=comps[0], label=f"outer@{eps_out:.6g}"
    )
    g = ref.graph(tols)
    return ref, g.bounded_faces[0].id


def decompose(
    f: RationalFn,
    domain: DomainSpec | None = None,
    C: CriticalSetC | None = None,
    tols: Tolerances = DEFAULT_TOLS,
) -> list[AnnularRegion]:
    """All annular components of the domain minus the critical set.

    The regions are read off the nesting forest of the critical set: one per
    bounded face of each critical curve, between the curve and the face's
    direct child, and one between the maximal member and the outer boundary.
    Each bounded face must hold exactly one direct child; a face with two
    mutually exterior children would be a region whose complement has two
    bounded components, which the two-curve theorem forbids.
    """
    domain = domain or f.domain
    if C is None:
        C = critical_level_curves(f, domain, tols)

    members = C.components
    roots = [i for i, p in enumerate(C.parent) if p is None]
    if len(roots) != 1:
        raise TopologyError(
            f"critical set has {len(roots)} maximal members; expected exactly one"
        )

    children: dict[tuple[int, int], list[int]] = {}
    for i, p in enumerate(C.parent):
        if p is not None:
            children.setdefault(p, []).append(i)

    regions: list[AnnularRegion] = []
    for j, y in enumerate(members):
        if y.kind is not CurveKind.LEVEL_CURVE:
            continue
        g = y.graph(tols)
        for face in g.bounded_faces:
            kids = children.get((j, face.id), [])
            if len(kids) != 1:
                raise TopologyError(
                    f"face {face.id} of {y.label} holds {len(kids)} direct critical-set "
                    "members; each annular region needs exactly one bounded complement"
                )
            inner = members[kids[0]]
            regions.append(
                AnnularRegion(
                    inner_boundary=inner,
                    outer_boundary=y,
                    outer_face_id=face.id,
                    eps1=inner.level,
                    eps2=y.level,
                    label=f"{inner.label}->{y.label}",
                )
            )

    outer_ref, outer_face = _outer_boundary(f, domain, C, tols)
    top = members[roots[0]]
    regions.append(
        AnnularRegion(
            inner_boundary=top,
            outer_boundary=outer_ref,
            outer_face_id=outer_face,
            eps1=top.level,
            eps2=outer_ref.level,
            label=f"{top.label}->{outer_ref.label}",
        )
    )

    for region in regions:
        _certify_region_clean(f, region, tols)
        region.N, region.M = winding_N(f, region, tols, return_sign=True)
        s = _enclosed_zero_pole_count(f, region, tols)
        if s == 0 or abs(s) != region.N or (s > 0) != (region.M > 0):
            raise TopologyError(
                f"region {region.label}: winding {region.M} disagrees with enclosed "
                f"zero-pole count {s}"
            )
    regions.sort(key=lambda r: (min(r.eps1, r.eps2), max(r.eps1, r.eps2), r.label))
    return regions


def _certify_region_clean(f: RationalFn, region: AnnularRegion, tols: Tolerances):
    inner = region.inner_boundary
    for z, _ in f.zeros + f.poles + f.critical_points:
        if inner.kind is CurveKind.POINT and abs(z - inner.point) < 1e-10:
            continue  # the region's own degenerate boundary point
        if region.contains(z, f, tols):
            raise TopologyError(
                f"region {region.label} contains distinguished point {z}"
            )


def _enclosed_zero_pole_count(f: RationalFn, region: AnnularRegion, tols: Tolerances) -> int:
    inner = region.inner_boundary
    signed = f.zeros + [(p, -m) for p, m in f.poles]
    if inner.kind is CurveKind.POINT:
        return sum(m for z, m in signed if abs(z - inner.point) < 1e-10)
    g = inner.graph(tols)
    faces = faces_of_points(g, [z for z, _ in signed], tols)
    return sum(m for (_, m), fid in zip(signed, faces) if fid != g.unbounded_face.id)


# ---------------------------------------------------------------------------
# winding


def _probe_on_level(f, region, zeta, tols) -> complex:
    """A point of the region on |f| = zeta, found by ray search from the inner side."""
    inner = region.inner_boundary
    anchors = (
        [inner.point]
        if inner.kind is CurveKind.POINT
        else [complex(p) for p in inner.all_points()[:: max(1, len(inner.all_points()) // 12)]]
    )
    scale = _domain_scale(f)
    tracer = _LevelTracer(f, zeta, tols, scale)
    ts = np.geomspace(1e-6 * scale, 4.0 * scale, 300)
    for crossing in _ray_crossings(f, zeta, anchors, 0.37, ts)[0]:
        z, _, _ = tracer.correct(complex(crossing), max_iter=50)
        if z is not None and region.contains(z, f, tols):
            return z
    raise TraceError(f"no probe point at level {zeta} inside region {region.label}")


def winding_N(
    f: RationalFn,
    region: AnnularRegion,
    tols: Tolerances = DEFAULT_TOLS,
    return_sign: bool = False,
):
    """Winding integer of f along level curves inside the region.

    Traced on three distinct levels; all three must agree, land on integers
    within tolerance, and be nonzero.  The sign (returned as M) is positive
    when arg f increases along the positively oriented curve.
    """
    lo, hi = region.level_interval()
    if lo == 0.0 and math.isinf(hi):
        raise TopologyError("region cannot span both a zero and a pole level")
    if lo == 0.0:
        zetas = [hi * t for t in (0.15, 0.3, 0.5)]
    elif math.isinf(hi):
        zetas = [lo * t for t in (2.0, 4.0, 8.0)]
    else:
        zetas = [lo ** (1 - t) * hi**t for t in (0.35, 0.5, 0.65)]

    scale = _domain_scale(f)
    results = []
    for zeta in zetas:
        seed = _probe_on_level(f, region, zeta, tols)
        tracer = _LevelTracer(f, zeta, tols, scale)
        comp = _trace_component_with(tracer, seed)
        if comp.vertices or not comp.arcs[0].closed:
            raise TraceError(f"level {zeta} inside region {region.label} is not a simple loop")
        pts = comp.arcs[0].points
        for sample in pts[:: max(1, len(pts) // 6)]:
            if not region.contains(complex(sample), f, tols):
                raise TraceError(
                    f"level curve at {zeta} escapes region {region.label}"
                )
        vals = f.eval_grid(pts)
        turns = float(np.sum(np.angle(vals[1:] / vals[:-1]))) / TWO_PI
        k = round(turns)
        if abs(turns - k) > tols.winding_int_tol or k == 0:
            raise TopologyError(
                f"winding {turns:.8f} at level {zeta} is not a nonzero integer"
            )
        # stored arcs run along increasing arg f, so the raw turn count is +|N|;
        # the geometric orientation supplies the sign of M
        orientation = 1.0 if geometry.signed_area(pts) > 0 else -1.0
        results.append((abs(k), int(orientation * abs(k))))
    ns = {n for n, _ in results}
    ms = {m for _, m in results}
    if len(ns) != 1 or len(ms) != 1:
        raise TopologyError(f"winding disagrees across levels: {results}")
    n, m = results[0]
    return (n, m) if return_sign else n


# ---------------------------------------------------------------------------
# the conformal map


def _region_box(region: AnnularRegion, tols: Tolerances):
    if region.outer_boundary.kind is CurveKind.BOUNDARY:
        return (-1.0, -1.0, 1.0, 1.0)
    g = region.outer_boundary.graph(tols)
    face = next(fc for fc in g.faces if fc.id == region.outer_face_id)
    return geometry.bounding_box([face.polygon], margin=0.0)


def _mesh_mask(f, region, Z, tols) -> np.ndarray:
    lo, hi = region.level_interval()
    vals = f.abs_grid(Z)
    mask = np.isfinite(vals) & (vals > lo) & (vals < hi)

    flat = Z.ravel()
    sel = np.nonzero(mask.ravel())[0]
    if sel.size == 0:
        return np.zeros_like(mask)

    if region.outer_boundary.kind is CurveKind.BOUNDARY:
        keep = np.abs(flat[sel]) < 1.0
    else:
        g = region.outer_boundary.graph(tols)
        face = next(fc for fc in g.faces if fc.id == region.outer_face_id)
        w = geometry.winding_number(face.polygon, flat[sel])
        keep = np.abs(np.round(w)) == 1
        # stay off the boundary walk itself
        keep &= geometry.SegmentIndex([face.polygon]).distances(flat[sel], upto=1e-12) > 1e-12

    inner = region.inner_boundary
    if inner.kind is CurveKind.LEVEL_CURVE:
        gi = inner.graph(tols)
        for fc in gi.bounded_faces:
            w = geometry.winding_number(fc.polygon, flat[sel])
            keep &= np.abs(np.round(w)) == 0

    m2 = np.zeros(flat.shape, dtype=bool)
    m2[sel] = keep
    return m2.reshape(Z.shape)


def _comb(mask: np.ndarray, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """4-connected component labels of mask, and theta continued over each.

    Each row run of mask is unwrapped by a cumulative sum of wrapped
    increments (Itoh's 1-D unwrapping).  One column edge per linked pair of
    runs joins them, and a breadth-first walk over the runs, not the points,
    sets each run's offset and label.  A component is labelled by its first
    run, so labels grow in row-major order; its first run keeps its own
    theta.  Cells outside mask get label -1 and value nan.
    """
    start = mask.copy()
    start[:, 1:] &= ~mask[:, :-1]
    first = np.flatnonzero(start)  # first cell of each run, in row-major order
    run = np.cumsum(start.ravel()) - 1
    cells = np.flatnonzero(mask)
    th = theta.ravel()
    inc = np.where(mask[:, 1:] & mask[:, :-1], _wrap(np.diff(theta, axis=1)), 0.0)
    along = np.cumsum(np.pad(inc, ((0, 0), (1, 0))), axis=1).ravel()
    local = np.zeros(mask.size)
    local[cells] = along[cells] - along[first[run[cells]]]

    # the leftmost column edge of each linked pair of runs, both directions
    tail = np.flatnonzero(mask[:-1] & mask[1:])
    tail = tail[np.unique(run[tail] * first.size + run[tail + mask.shape[1]], return_index=True)[1]]
    head = tail + mask.shape[1]
    jump = local[tail] + _wrap(th[head] - th[tail]) - local[head]
    src = np.concatenate([run[tail], run[head]])
    order = np.argsort(src, kind="stable")
    dst = np.concatenate([run[head], run[tail]])[order].tolist()
    dlt = np.concatenate([jump, -jump])[order].tolist()
    ptr = np.searchsorted(src[order], np.arange(first.size + 1)).tolist()

    label = [-1] * first.size
    offset = th[first].tolist()
    for root in range(first.size):
        if label[root] >= 0:
            continue
        label[root] = root
        queue = [root]
        for u in queue:  # the queue grows as the walk goes: breadth first
            for k in range(ptr[u], ptr[u + 1]):
                v = dst[k]
                if label[v] < 0:
                    label[v] = root
                    offset[v] = offset[u] + dlt[k]
                    queue.append(v)

    labels = np.full(mask.shape, -1)
    alpha = np.full(mask.shape, np.nan)
    labels[mask] = np.array(label, dtype=int)[run[cells]]
    alpha[mask] = np.array(offset)[run[cells]] + local[cells]
    return labels, alpha


def _edge_ends(a: np.ndarray, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a at the tail and head of each 4-neighbor edge of mask: row edges, then column edges."""
    row, col = mask[:, :-1] & mask[:, 1:], mask[:-1] & mask[1:]
    return np.concatenate([a[:, :-1][row], a[:-1][col]]), np.concatenate([a[:, 1:][row], a[1:][col]])


def build_phi(
    f: RationalFn,
    region: AnnularRegion,
    tols: Tolerances = DEFAULT_TOLS,
) -> PhiGrid:
    """Construct phi = f^(1/M) on a mesh by spanning-tree argument continuation.

    The mesh is refined until every 4-neighbor edge carries an arg-f increment
    below pi/4, so the continued argument is unambiguous.  The tree joins the
    mesh rows by column edges (see :func:`_comb`).  Path independence is
    certified mod 2*pi*N on a second tree that joins the columns by row
    edges (every mesh point) and on the residue of every mesh edge, which
    covers a generating set of the mesh graph's cycles.
    """
    if region.N == 0 or region.M == 0:
        region.N, region.M = winding_N(f, region, tols, return_sign=True)
    N, M = region.N, region.M
    x0, y0, x1, y1 = _region_box(region, tols)

    excl_center = None
    excl_mult = 1
    if region.inner_boundary.kind is CurveKind.POINT:
        excl_center = region.inner_boundary.point
        for z, m in f.zeros + f.poles:
            if abs(z - excl_center) < 1e-10:
                excl_mult = m
        width = _inner_width(region, excl_center, tols)

    last_error = None
    for n in MESH_SIZES:
        xs = np.linspace(x0, x1, n)
        ys = np.linspace(y0, y1, n)
        h = max(xs[1] - xs[0], ys[1] - ys[0])
        Z = xs[None, :] + 1j * ys[:, None]
        if excl_center is not None:
            # keep arg increments near the zero/pole under pi/4, and make the
            # excluded puncture small against the annulus width so the image
            # coverage reaches toward the inner radius
            r_excl = (2.0 * excl_mult + 2.0) * h
            if r_excl > 0.15 * width and n != MESH_SIZES[-1]:
                last_error = f"mesh {n}x{n}: puncture {r_excl:.3g} too wide for annulus {width:.3g}"
                continue
        mask = _mesh_mask(f, region, Z, tols)
        if excl_center is not None:
            mask &= np.abs(Z - excl_center) > r_excl
        # corridors between curve branches pinch off at critical points; a
        # grid edge there could shortcut across an excluded petal tip, so
        # carve out a disk wide enough that sectors stay grid-separated
        for c, m in f.critical_points:
            r_crit = 3.0 * h / math.sin(math.pi / (m + 1)) + 2.0 * h
            mask &= np.abs(Z - c) > r_crit
        if mask.sum() < 16:
            last_error = f"mesh {n}x{n} has too few region points"
            continue
        f_grid = np.zeros(Z.shape, dtype=complex)
        f_grid[mask] = f.eval_grid(Z[mask])
        labels, alpha = _comb(mask, np.angle(f_grid))
        # the largest component; on a tie the first in row-major order
        mask = labels == np.argmax(np.bincount(labels[mask]))
        count = int(mask.sum())
        if count < MIN_MESH_POINTS and n != MESH_SIZES[-1]:
            last_error = f"mesh {n}x{n}: only {count} points"
            continue

        try:
            return _finish_phi(region, Z, mask, f_grid, alpha, h, N, M, tols)
        except CertificateError as exc:
            # too coarse for the arg increments, or a residual continuation
            # defect: an edge still crossed the excluded set; a finer mesh
            # separates the corridors
            last_error = f"mesh {n}x{n}: {exc}"

    raise CertificateError(f"could not mesh region {region.label}: {last_error}")


def _inner_width(region: AnnularRegion, center: complex, tols: Tolerances) -> float:
    if region.outer_boundary.kind is CurveKind.BOUNDARY:
        return 1.0 - abs(center)
    g = region.outer_boundary.graph(tols)
    face = next(fc for fc in g.faces if fc.id == region.outer_face_id)
    return float(geometry.SegmentIndex([face.polygon]).distances([center])[0])


def _wrap(a):
    return (a + math.pi) % TWO_PI - math.pi


def _finish_phi(region, Z, mask, f_grid, alpha, h, N, M, tols) -> PhiGrid:
    """Certify alpha, continued by :func:`_comb` on the connected mask, and store phi."""
    theta = np.angle(f_grid)
    t0, t1 = _edge_ends(theta, mask)
    inc = _wrap(t1 - t0)
    if np.max(np.abs(inc)) >= MAX_EDGE_TURN:
        raise CertificateError(f"arg increment {np.max(np.abs(inc)):.3f} too large")

    points = Z[mask]
    f_vals = f_grid[mask]
    # basepoint: smallest |arg f| among the mid-band mesh points, ties by |w|
    mod = np.abs(f_vals)
    lo_q, hi_q = np.quantile(mod, [0.35, 0.65])
    band = np.nonzero((mod >= lo_q) & (mod <= hi_q))[0]
    if band.size == 0:
        band = np.arange(points.size)
    order = np.lexsort((np.abs(points[band]), np.abs(theta[mask][band])))
    base = int(band[order[0]])
    at_base = np.flatnonzero(mask)[base]

    alpha = alpha - alpha.flat[at_base] + theta.flat[at_base]
    alpha2 = _comb(mask.T, theta.T)[1].T
    alpha2 = alpha2 - alpha2.flat[at_base] + alpha.flat[at_base]

    period = TWO_PI * N
    tree_disc = float(np.max(np.abs(_mod_residue(alpha[mask] - alpha2[mask], period))))
    # a spanning tree's fundamental cycles generate every cycle of the mesh
    # graph, so the residues of all edges certify path independence
    a0, a1 = _edge_ends(alpha, mask)
    cyc_disc = float(np.max(np.abs(_mod_residue(a0 + inc - a1, period))))

    if tree_disc > tols.winding_int_tol or cyc_disc > tols.winding_int_tol:
        raise CertificateError(
            f"argument continuation is path dependent beyond 2*pi*N: "
            f"tree {tree_disc:.2e}, cycles {cyc_disc:.2e}"
        )

    alpha = alpha[mask]
    phi = np.abs(f_vals) ** (1.0 / M) * np.exp(1j * alpha / M)
    grid = PhiGrid(
        points=points,
        f_vals=f_vals,
        alpha=alpha,
        phi=phi,
        spacing=h,
        basepoint_index=base,
        tree_discrepancy=tree_disc,
        cycle_discrepancy=cyc_disc,
        n_cycle_samples=int(inc.size),
    )
    region.basepoint = complex(points[base])
    region.phi_grid = grid
    return grid


def _mod_residue(x: np.ndarray, period: float) -> np.ndarray:
    return x - period * np.round(x / period)


# ---------------------------------------------------------------------------
# verification


@dataclass
class PhiCertificate:
    max_power_residual: float
    power_gate: float
    tree_discrepancy: float
    cycle_discrepancy: float
    radii: tuple[float, float]
    radii_ok: bool
    injectivity_ok: bool
    boundary_inner_gap: float
    boundary_outer_gap: float
    level_image_spread: float
    n_mesh: int

    @property
    def ok(self) -> bool:
        return (
            self.max_power_residual <= self.power_gate
            and self.radii_ok
            and self.injectivity_ok
        )

    def to_dict(self) -> dict:
        return {
            "max_power_residual": self.max_power_residual,
            "power_gate": self.power_gate,
            "tree_discrepancy": self.tree_discrepancy,
            "cycle_discrepancy": self.cycle_discrepancy,
            "radii": [_json_float(r) for r in self.radii],
            "radii_ok": self.radii_ok,
            "injectivity_ok": self.injectivity_ok,
            "boundary_inner_gap": _json_float(self.boundary_inner_gap),
            "boundary_outer_gap": _json_float(self.boundary_outer_gap),
            "level_image_spread": self.level_image_spread,
            "n_mesh": self.n_mesh,
        }


def verify_phi(
    f: RationalFn,
    region: AnnularRegion,
    tols: Tolerances = DEFAULT_TOLS,
) -> PhiCertificate:
    """Certify the constructed map: power identity, injectivity proxy,
    image-annulus confinement, and sampled boundary limits.

    Any gate failure raises :class:`CertificateError`.
    """
    if region.phi_grid is None:
        build_phi(f, region, tols)
    grid = region.phi_grid
    M = region.M

    power = grid.phi**M
    max_f = float(np.max(np.abs(grid.f_vals)))
    residual = float(np.max(np.abs(power - grid.f_vals)))
    gate = tols.phi_tol * (1.0 + max_f)
    if residual > gate:
        raise CertificateError(f"power identity fails: {residual:.3e} > {gate:.3e}")

    r_lo, r_hi = region.image_radii()
    mods = np.abs(grid.phi)
    radii_ok = bool(np.all(mods > r_lo) and np.all(mods < r_hi))
    if not radii_ok:
        raise CertificateError(
            f"|phi| escapes the annulus ({r_lo}, {r_hi}): "
            f"range [{mods.min():.6g}, {mods.max():.6g}]"
        )

    # injectivity proxy on a point sample
    rng = np.random.default_rng(99)
    take = min(400, grid.points.size)
    sel = rng.choice(grid.points.size, size=take, replace=False)
    zp = grid.points[sel]
    fp = grid.phi[sel]
    dz = np.abs(zp[:, None] - zp[None, :])
    dphi = np.abs(fp[:, None] - fp[None, :])
    scale_phi = 1.0 + float(np.max(np.abs(fp[np.isfinite(fp)])))
    sep = dz > 1.5 * grid.spacing
    bad = sep & (dphi <= 10.0 * tols.phi_tol * scale_phi)
    injective = not bool(np.any(bad))
    if not injective:
        raise CertificateError("phi image collision: distinct mesh points map together")

    inner_gap, outer_gap = _boundary_gaps(f, region, grid, tols)
    level_spread = _level_image_spread(grid)

    return PhiCertificate(
        max_power_residual=residual,
        power_gate=gate,
        tree_discrepancy=grid.tree_discrepancy,
        cycle_discrepancy=grid.cycle_discrepancy,
        radii=(r_lo, r_hi),
        radii_ok=radii_ok,
        injectivity_ok=injective,
        boundary_inner_gap=inner_gap,
        boundary_outer_gap=outer_gap,
        level_image_spread=level_spread,
        n_mesh=int(grid.points.size),
    )


def _boundary_gaps(f, region, grid: PhiGrid, tols) -> tuple[float, float]:
    """Sampled radial-limit check: |phi| near each boundary approaches its radius.

    Returns the worst gap between |phi| on the mesh layer nearest each
    boundary and the boundary radius; infinite radii report 0 (nothing to
    approach).  Degenerate point boundaries are checked at the exclusion ring.
    """
    r1 = _power_radius(region.eps1, region.M)
    r2 = _power_radius(region.eps2, region.M)

    def layer_gap(boundary: CurveRef, radius: float) -> float:
        if not math.isfinite(radius) or radius == 0.0:
            return 0.0
        d = boundary.index.distances(grid.points)
        cut = np.quantile(d, 0.05)
        layer = grid.phi[d <= cut + 1e-15]
        if layer.size == 0:
            return math.inf
        return float(np.min(np.abs(np.abs(layer) - radius)))

    return layer_gap(region.inner_boundary, r1), layer_gap(region.outer_boundary, r2)


def _level_image_spread(grid: PhiGrid) -> float:
    """Spread of |phi| among mesh points sharing (nearly) one |f| level."""
    mod_f = np.abs(grid.f_vals)
    med = float(np.median(mod_f))
    band = np.abs(mod_f - med) <= 1e-9 * max(1.0, med)
    if band.sum() < 2:
        return 0.0
    sel = np.abs(grid.phi[band])
    return float(np.max(sel) - np.min(sel))
