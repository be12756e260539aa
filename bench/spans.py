"""Spans and counters for the traced benchmark run.

The tracing lives entirely in the benchmark: ``install`` wraps functions of
the ``levelcurves`` modules from outside and ``uninstall`` puts the originals
back.  The package binds names at import time (``from .tracer import
trace_component`` and so on), so a wrapper is rebound in every
``levelcurves`` module namespace that holds the original object, not only in
the module that defines it.

Spans carry a name, a start, an end, a parent and a job id and stay in memory
until the run ends.  The per-point ``RationalFn`` methods get counters only,
no spans, to keep the overhead down.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from contextlib import contextmanager, nullcontext

# (module, function) -> span name.  The tracer's private worker is what every
# component trace goes through (trace_level_set, the public trace_component,
# the continuity probe and the decomposition), so it carries the
# ``tracer.trace_component`` name and the public wrapper is left alone.
SPANNED = {
    ("funcspace", "find_roots"): "funcspace.find_roots",
    ("tracer", "trace_level_set"): "tracer.trace_level_set",
    ("tracer", "find_seeds"): "tracer.find_seeds",
    ("tracer", "_trace_component_with"): "tracer.trace_component",
    ("levelgraph", "build_graph"): "levelgraph.build_graph",
    ("levelgraph", "face_of_point"): "levelgraph.face_of_point",
    ("levelgraph", "zeros_per_face"): "levelgraph.zeros_per_face",
    ("gauss_lucas", "check_gauss_lucas"): "gauss_lucas.check_gauss_lucas",
    ("metrics", "continuity_probe"): "metrics.continuity_probe",
    ("metrics", "hausdorff_between_curves"): "metrics.hausdorff_between_curves",
    ("order_topology", "critical_level_curves"): "order_topology.critical_level_curves",
    ("order_topology", "maximal_component"): "order_topology.maximal_component",
    ("order_topology", "precedes"): "order_topology.precedes",
    ("order_topology", "two_curve_critical_witness"): "order_topology.two_curve_critical_witness",
    ("annulus_decomp", "decompose"): "annulus_decomp.decompose",
    ("annulus_decomp", "winding_N"): "annulus_decomp.winding_N",
    ("annulus_decomp", "build_phi"): "annulus_decomp.build_phi",
    ("annulus_decomp", "verify_phi"): "annulus_decomp.verify_phi",
    ("geometry", "points_to_polyline_distances"): "geometry.points_to_polyline_distances",
    ("gridcheck", "grid_oracle_report"): "gridcheck.grid_oracle_report",
}

# RationalFn methods that run once per point or per grid; counters only.
COUNTED = ("abs_eval", "log_derivative", "abs_grid", "eval_grid")
GRID_METHODS = ("abs_grid", "eval_grid")

# The three verify-all fixtures get one span each, opened by the benchmark.
CLI_FIXTURES = ("lemniscate", "z5m1", "blaschke21")

HOOK = "bench.hook"


class Recorder:
    """In-memory spans plus named counters and maxima for one traced run."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, job]
        self.counts: dict[str, float] = {}
        self.maxima: dict[str, float] = {}
        self.job = None
        self.abs_grid = None
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.job])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def add(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def peak(self, name: str, value: float) -> None:
        if value > self.maxima.get(name, -math.inf):
            self.maxima[name] = value


def span(rec: Recorder | None, name: str):
    """A span when tracing, a no-op otherwise."""
    return rec.span(name) if rec is not None else nullcontext()


# ---------------------------------------------------------------------------
# facts taken from results, recorded outside the measured span


def _size(points) -> int:
    return points.size if hasattr(points, "size") else len(points)


def _after_find_seeds(rec, args, kwargs, out):
    rec.add("tracer.find_seeds.seeds", len(out))


def _after_trace_level_set(rec, args, kwargs, out):
    rec.add("tracer.trace_level_set.components", len(out))


def _after_trace_component(rec, args, kwargs, out):
    tracer = args[0]
    pts = out.points
    rec.add("tracer.points", len(pts))
    if len(pts):
        resid = float(abs(rec.abs_grid(tracer.f, pts) - out.level).max())
        rec.peak("tracer.residual_ratio_max", resid / tracer.tols.trace_tol)


def _after_check_gauss_lucas(rec, args, kwargs, out):
    tols = kwargs.get("tols", args[1] if len(args) > 1 else sys.modules["levelcurves"].DEFAULT_TOLS)
    scale = max(1.0, max(abs(z) for z in out.zeros))
    rec.peak("gauss_lucas.hull_ratio_max", out.max_signed_distance / (tols.hull_tol * scale))


def _after_continuity_probe(rec, args, kwargs, out):
    for _, d in out.samples:
        rec.peak("metrics.dcheck_ratio_max", d / out.delta)


def _after_verify_phi(rec, args, kwargs, out):
    rec.add("annulus_decomp.mesh_points.sum", out.n_mesh)
    rec.peak("annulus_decomp.mesh_points.max", out.n_mesh)
    rec.peak("annulus_decomp.power_residual_ratio_max", out.max_power_residual / out.power_gate)


def _after_distances(rec, args, kwargs, out):
    zs, pts = args[0], args[1]
    n_seg = max(_size(pts) - 1, 1)
    rec.add("geometry.points_to_polyline_distances.pairs", _size(zs) * n_seg)


def _after_grid_oracle(rec, args, kwargs, out):
    rec.add("gridcheck.crossing_cells", out.n_cells)


AFTER = {
    "tracer.find_seeds": _after_find_seeds,
    "tracer.trace_level_set": _after_trace_level_set,
    "tracer.trace_component": _after_trace_component,
    "gauss_lucas.check_gauss_lucas": _after_check_gauss_lucas,
    "metrics.continuity_probe": _after_continuity_probe,
    "annulus_decomp.verify_phi": _after_verify_phi,
    "geometry.points_to_polyline_distances": _after_distances,
    "gridcheck.grid_oracle_report": _after_grid_oracle,
}

# ---------------------------------------------------------------------------
# install / uninstall


def _spanned(rec: Recorder, name: str, fn):
    after = AFTER.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if after is not None:
            hook = rec.open(HOOK)
            try:
                after(rec, args, kwargs, out)
            finally:
                rec.close(hook)
        return out

    return wrapper


def _counted(rec: Recorder, name: str, fn, grid: bool):
    key = f"funcspace.{name}.calls"

    @functools.wraps(fn)
    def wrapper(self, z):
        counts = rec.counts
        counts[key] = counts.get(key, 0) + 1
        if grid:
            counts["funcspace.grid.points"] = counts.get("funcspace.grid.points", 0) + getattr(z, "size", 1)
        return fn(self, z)

    return wrapper


def _package_modules():
    return [m for n, m in list(sys.modules.items()) if n == "levelcurves" or n.startswith("levelcurves.")]


def install(rec: Recorder):
    """Wrap the traced functions; return the undo list for ``uninstall``."""
    undo = []
    modules = _package_modules()
    for (mod_name, fn_name), name in SPANNED.items():
        original = getattr(sys.modules[f"levelcurves.{mod_name}"], fn_name)
        wrapped = _spanned(rec, name, original)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    undo.append((mod, attr, original))
                    setattr(mod, attr, wrapped)
    cls = sys.modules["levelcurves.funcspace"].RationalFn
    # the unwrapped evaluator, so residual checks do not count as work
    rec.abs_grid = cls.abs_grid
    for meth in COUNTED:
        original = cls.__dict__[meth]
        undo.append((cls, meth, original))
        setattr(cls, meth, _counted(rec, meth, original, meth in GRID_METHODS))
    return undo


def uninstall(undo) -> None:
    for target, attr, original in reversed(undo):
        setattr(target, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics from the spans


def _span_table(rec: Recorder):
    """Inclusive time (outermost spans of a name only), self time and calls per name."""
    spans = rec.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    incl: dict[str, float] = {}
    self_t: dict[str, float] = {}
    calls: dict[str, int] = {}
    for i, (name, start, end, parent, _) in enumerate(spans):
        dur = end - start
        self_t[name] = self_t.get(name, 0.0) + dur - child_time[i]
        calls[name] = calls.get(name, 0) + 1
        p = parent
        while p is not None and spans[p][0] != name:
            p = spans[p][3]
        if p is None:
            incl[name] = incl.get(name, 0.0) + dur
    return incl, self_t, calls


def layer_metrics(rec: Recorder) -> dict[str, tuple[float, str]]:
    """Every per-layer metric by name, as (value, unit)."""
    incl, self_t, calls = _span_table(rec)
    c = rec.counts
    mx = rec.maxima
    out: dict[str, tuple[float, str]] = {}

    def put(name, value, unit):
        out[name] = (float(value), unit)

    def s(name):
        return incl.get(name, 0.0)

    def n(name):
        return calls.get(name, 0)

    put("funcspace.abs_eval.calls", c.get("funcspace.abs_eval.calls", 0), "count")
    put("funcspace.log_derivative.calls", c.get("funcspace.log_derivative.calls", 0), "count")
    put("funcspace.grid.points", c.get("funcspace.grid.points", 0), "count")
    put("funcspace.find_roots.s", s("funcspace.find_roots"), "s")

    seeds = c.get("tracer.find_seeds.seeds", 0)
    points = c.get("tracer.points", 0)
    put("tracer.trace_level_set.calls", n("tracer.trace_level_set"), "count")
    put("tracer.trace_level_set.self_s", self_t.get("tracer.trace_level_set", 0.0), "s")
    put("tracer.find_seeds.s", s("tracer.find_seeds"), "s")
    put("tracer.find_seeds.seeds", seeds, "count")
    put("tracer.seed_yield", c.get("tracer.trace_level_set.components", 0) / seeds if seeds else 0.0, "ratio")
    put("tracer.trace_component.calls", n("tracer.trace_component"), "count")
    put("tracer.trace_component.s", s("tracer.trace_component"), "s")
    put("tracer.points", points, "count")
    put("tracer.us_per_point", 1e6 * s("tracer.trace_component") / points if points else 0.0, "us")
    put("tracer.residual_ratio_max", mx.get("tracer.residual_ratio_max", 0.0), "ratio")
    put("tracer.near_critical_warnings", c.get("tracer.near_critical_warnings", 0), "count")

    put("levelgraph.build_graph.calls", n("levelgraph.build_graph"), "count")
    put("levelgraph.build_graph.s", s("levelgraph.build_graph"), "s")
    put("levelgraph.face_of_point.calls", n("levelgraph.face_of_point"), "count")
    put("levelgraph.face_of_point.s", s("levelgraph.face_of_point"), "s")
    put("levelgraph.zeros_per_face.s", s("levelgraph.zeros_per_face"), "s")

    put("gauss_lucas.check_gauss_lucas.calls", n("gauss_lucas.check_gauss_lucas"), "count")
    put("gauss_lucas.check_gauss_lucas.s", s("gauss_lucas.check_gauss_lucas"), "s")
    put("gauss_lucas.hull_ratio_max", mx.get("gauss_lucas.hull_ratio_max", 0.0), "ratio")

    put("metrics.continuity_probe.s", s("metrics.continuity_probe"), "s")
    put("metrics.hausdorff_between_curves.calls", n("metrics.hausdorff_between_curves"), "count")
    put("metrics.hausdorff_between_curves.s", s("metrics.hausdorff_between_curves"), "s")
    put("metrics.dcheck_ratio_max", mx.get("metrics.dcheck_ratio_max", 0.0), "ratio")

    put("order_topology.critical_level_curves.calls", n("order_topology.critical_level_curves"), "count")
    put("order_topology.critical_level_curves.s", s("order_topology.critical_level_curves"), "s")
    put("order_topology.maximal_component.s", s("order_topology.maximal_component"), "s")
    put("order_topology.precedes.calls", n("order_topology.precedes"), "count")
    put("order_topology.two_curve_critical_witness.s", s("order_topology.two_curve_critical_witness"), "s")

    put("annulus_decomp.decompose.self_s", self_t.get("annulus_decomp.decompose", 0.0), "s")
    put("annulus_decomp.winding_N.calls", n("annulus_decomp.winding_N"), "count")
    put("annulus_decomp.winding_N.s", s("annulus_decomp.winding_N"), "s")
    put("annulus_decomp.build_phi.s", s("annulus_decomp.build_phi"), "s")
    put("annulus_decomp.verify_phi.s", s("annulus_decomp.verify_phi"), "s")
    put("annulus_decomp.mesh_points.sum", c.get("annulus_decomp.mesh_points.sum", 0), "count")
    put("annulus_decomp.mesh_points.max", mx.get("annulus_decomp.mesh_points.max", 0), "count")
    put("annulus_decomp.power_residual_ratio_max", mx.get("annulus_decomp.power_residual_ratio_max", 0.0), "ratio")

    pairs = c.get("geometry.points_to_polyline_distances.pairs", 0)
    put("geometry.points_to_polyline_distances.calls", n("geometry.points_to_polyline_distances"), "count")
    put("geometry.points_to_polyline_distances.s", s("geometry.points_to_polyline_distances"), "s")
    put("geometry.points_to_polyline_distances.pairs", pairs, "count")
    # one complex128 per point x segment pair in the dense kernel: computed, not measured
    put("geometry.points_to_polyline_distances.bytes_computed", 16 * pairs, "B")

    put("gridcheck.grid_oracle_report.s", s("gridcheck.grid_oracle_report"), "s")
    put("gridcheck.crossing_cells", c.get("gridcheck.crossing_cells", 0), "count")

    for fixture in CLI_FIXTURES:
        put(f"cli.verify_all.{fixture}.s", s(f"cli.verify_all.{fixture}"), "s")
    put("cli.self_s", sum(self_t.get(f"cli.verify_all.{f}", 0.0) for f in CLI_FIXTURES), "s")
    return out
