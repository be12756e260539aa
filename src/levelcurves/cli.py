"""Command-line frontend.

Subcommands: trace, graph, gauss-lucas, continuity, order, decompose,
verify-all.  JSON is the canonical output (schema levelcurve/1); CSV and SVG
are derived artifacts.  Exit codes: 0 all certificates pass, 1 usage error,
2 numerical failure, 3 theorem-certificate violation.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from .config import DEFAULT_TOLS
from .errors import (
    CertificateError,
    FunctionSpecError,
    LevelCurveError,
    RootFindingError,
    TopologyError,
    TraceError,
)
from .funcspace import Polynomial, parse_function_spec, random_polynomial
from .gauss_lucas import check_gauss_lucas, corrupted_instance, replay_level_curve_argument
from .gridcheck import grid_oracle_report
from .levelgraph import build_graph, zeros_per_face
from .metrics import continuity_probe
from .order_topology import critical_level_curves, hasse_diagram, maximal_component
from .annulus_decomp import decompose, verify_phi
from .svgout import render_svg
from .tracer import component_to_dict, components_to_csv_rows, trace_level_set

SCHEMA = "levelcurve/1"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_CERTIFICATE = 3

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; nothing changes it."""
    ap = argparse.ArgumentParser(
        prog="levelcurve",
        description="Level curves of rational functions: tracing, structure, certificates.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, eps=False, delta=False, svg=False):
        p.add_argument("--fn", required=True, help="function spec (poly:/rat:/blaschke:)")
        if eps:
            p.add_argument("--eps", type=float, required=True)
        if delta:
            p.add_argument("--delta", type=float, required=True)
        p.add_argument("--out", default=None, help="JSON output path (trace writes CSV to a .csv path)")
        if svg:
            p.add_argument("--svg", default=None, help="also write an SVG rendering here")

    common(sub.add_parser("trace", help="trace the level set as polylines"), eps=True, svg=True)
    common(sub.add_parser("graph", help="planar graph of each component"), eps=True, svg=True)

    gl = sub.add_parser("gauss-lucas", help="hull containment of critical points")
    gl.add_argument("--poly", required=True, help="poly: spec of the polynomial")
    gl.add_argument("--corpus", type=int, default=0, help="also check N random polynomials")
    gl.add_argument("--corrupted", type=int, default=0, help="run N corrupted replays")
    gl.add_argument("--seed", type=int, default=0)
    gl.add_argument("--out", default=None)

    common(sub.add_parser("continuity", help="level-set continuity probe"), eps=True, delta=True)
    common(sub.add_parser("order", help="critical set, nesting order, maximal element"))
    d = sub.add_parser("decompose", help="annular decomposition and the map phi")
    common(d)
    d.add_argument("--emit-phi", default=None, help="CSV path for the phi samples on the level loops")
    common(sub.add_parser("verify-all", help="run the full invariant suite"), eps=True, svg=True)
    return ap


def _emit(payload: dict, args) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _write_csv(rows, header, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(v) if isinstance(v, float) else str(v) for v in row) + "\n")


def _maybe_svg(args, components, graphs=None):
    if args.svg:
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(render_svg(components, graphs))


# ---------------------------------------------------------------------------
# subcommands


def _cmd_trace(args) -> int:
    f = parse_function_spec(args.fn)
    comps = trace_level_set(f, args.eps)
    if args.out and args.out.endswith(".csv"):
        _write_csv(
            components_to_csv_rows(comps),
            ("component_id", "arc_id", "re", "im"),
            args.out,
        )
    else:
        _emit(
            {
                "schema": SCHEMA,
                "kind": "trace",
                "fn": args.fn,
                "eps": args.eps,
                "components": [component_to_dict(c) for c in comps],
            },
            args,
        )
    _maybe_svg(args, comps)
    return EXIT_OK


def _cmd_graph(args) -> int:
    f = parse_function_spec(args.fn)
    comps = trace_level_set(f, args.eps)
    graphs = [build_graph(c) for c in comps]
    payload = {
        "schema": SCHEMA,
        "kind": "graph",
        "fn": args.fn,
        "eps": args.eps,
        "components": [g.to_dict() for g in graphs],
    }
    _emit(payload, args)
    _maybe_svg(args, comps, graphs)
    return EXIT_OK


def _cmd_gauss_lucas(args) -> int:
    f = parse_function_spec(args.poly)
    if not f.denominator.degree == 0:
        raise FunctionSpecError("gauss-lucas needs a polynomial (poly: spec)")
    poly = Polynomial(f.numerator.coeffs / f.denominator.coeffs[0])

    reports = [check_gauss_lucas(poly).to_dict()]
    if args.corpus:
        rng = np.random.default_rng(args.seed)
        polys = [random_polynomial(rng, int(rng.integers(2, 11))) for _ in range(args.corpus)]
        reports.extend(check_gauss_lucas(p).to_dict() for p in polys)

    replays = []
    if args.corrupted:
        rng = np.random.default_rng(args.seed + 1)
        for _ in range(args.corrupted):
            p, c, curve = corrupted_instance(rng)
            w = replay_level_curve_argument(p, c, curve_points=curve)
            if not w.inequality_strict:
                raise CertificateError("corrupted replay failed to produce a strict inequality")
            replays.append(w.to_dict())

    _emit(
        {"schema": SCHEMA, "kind": "gauss-lucas", "reports": reports, "replays": replays},
        args,
    )
    return EXIT_OK


def _cmd_continuity(args) -> int:
    f = parse_function_spec(args.fn)
    cert = continuity_probe(f, args.eps, args.delta)
    _emit({"schema": SCHEMA, "kind": "continuity", "fn": args.fn, **cert.to_dict()}, args)
    return EXIT_OK if cert.passed else EXIT_CERTIFICATE


def _cmd_order(args) -> int:
    f = parse_function_spec(args.fn)
    C = critical_level_curves(f)
    edges = hasse_diagram(C)
    maximal = maximal_component(f, C)
    payload = {
        "schema": SCHEMA,
        "kind": "order",
        "fn": args.fn,
        "components": [
            {"id": i, "kind": ref.kind.value, "level": "inf" if ref.level == float("inf") else ref.level, "label": ref.label}
            for i, ref in enumerate(C.components)
        ],
        "hasse": [[a, b] for a, b in edges],
        "maximal": C.components.index(maximal),
    }
    _emit(payload, args)
    return EXIT_OK


def _cmd_decompose(args) -> int:
    f = parse_function_spec(args.fn)
    regions = decompose(f)
    certs = [verify_phi(f, region) for region in regions]
    payload = {
        "schema": SCHEMA,
        "kind": "decompose",
        "fn": args.fn,
        "regions": [
            {**r.to_dict(), "certificate": c.to_dict()} for r, c in zip(regions, certs)
        ],
    }
    _emit(payload, args)
    if args.emit_phi:
        rows = []
        for r in regions:
            for w, ph in zip(r.phi_grid.points, r.phi_grid.phi):
                rows.append((float(w.real), float(w.imag), float(ph.real), float(ph.imag)))
        _write_csv(rows, ("w_re", "w_im", "phi_re", "phi_im"), args.emit_phi)
    return EXIT_OK


def _cmd_verify_all(args) -> int:
    f = parse_function_spec(args.fn)
    checks: list[tuple[str, bool, str]] = []

    def run(name, fn):
        try:
            detail = fn()
            checks.append((name, True, detail or ""))
        except LevelCurveError as exc:
            checks.append((name, False, str(exc)))

    comps = trace_level_set(f, args.eps)
    graphs = []

    def check_trace():
        for c in comps:
            for arc in c.arcs:
                res = np.max(np.abs(f.abs_grid(arc.points) - args.eps))
                if res > DEFAULT_TOLS.trace_tol:
                    raise TraceError(f"on-level residual {res:.2e}")
        return f"{len(comps)} component(s)"

    def check_graphs():
        graphs.extend(build_graph(c) for c in comps)
        return f"{sum(len(g.faces) for g in graphs)} faces"

    def check_faces_nonempty():
        for g in graphs:
            zeros_per_face(g, f)
        return ""

    def check_grid():
        rep = grid_oracle_report(f, args.eps, comps)
        if not rep.ok:
            raise CertificateError(
                f"grid oracle: cell->trace {rep.max_cell_to_trace:.3g}, "
                f"trace->cell {rep.max_trace_to_cell:.3g} vs {rep.threshold:.3g}"
            )
        return f"{rep.n_cells} crossing cells"

    def check_gl():
        if f.denominator.degree == 0 and isinstance(f.numerator.degree, int) and f.numerator.degree >= 2:
            rep = check_gauss_lucas(f.numerator)
            return f"max signed distance {rep.max_signed_distance:.2e}"
        return "skipped (not a polynomial of degree >= 2)"

    C = None  # traced by check_order; decompose traces it itself if that failed

    def check_order():
        nonlocal C
        C = critical_level_curves(f)
        maximal_component(f, C)
        return f"|C| = {len(C)}"

    def check_decompose():
        regions = decompose(f, C=C)
        for region in regions:
            verify_phi(f, region)
        return f"{len(regions)} region(s)"

    run("on-level-residuals", check_trace)
    run("graph-structure-laws", check_graphs)
    run("faces-hold-zeros", check_faces_nonempty)
    run("grid-oracle", check_grid)
    run("gauss-lucas", check_gl)
    run("order-and-maximal", check_order)
    run("annulus-phi", check_decompose)

    payload = {
        "schema": SCHEMA,
        "kind": "verify-all",
        "fn": args.fn,
        "eps": args.eps,
        "checks": [{"name": n, "pass": ok, "detail": d} for n, ok, d in checks],
    }
    _emit(payload, args)
    _maybe_svg(args, comps, graphs or None)
    return EXIT_OK if all(ok for _, ok, _ in checks) else EXIT_CERTIFICATE


_COMMANDS = {
    "trace": _cmd_trace,
    "graph": _cmd_graph,
    "gauss-lucas": _cmd_gauss_lucas,
    "continuity": _cmd_continuity,
    "order": _cmd_order,
    "decompose": _cmd_decompose,
    "verify-all": _cmd_verify_all,
}


def main(argv=None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    # a level and a distance are positive and finite
    for flag in ("eps", "delta"):
        value = getattr(args, flag, None)
        if value is not None and not 0.0 < value < math.inf:
            print(f"error: --{flag} must be positive and finite, not {value}", file=sys.stderr)
            return EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except FunctionSpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CertificateError, TopologyError) as exc:
        print(f"certificate violation: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATE
    except (TraceError, RootFindingError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
