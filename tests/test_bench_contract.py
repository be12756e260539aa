"""The package names the benchmark harness in ``bench/`` reads.

``bench/spans.py`` wraps package functions by name and its hooks read
``_LevelTracer.tols`` and ``levelcurves.DEFAULT_TOLS``; ``bench/run.py``
reads ``RationalFn.tols``.  A rename or deletion breaks the benchmark, so it
is caught here.
"""

import importlib.util
import sys
from pathlib import Path

import levelcurves
from levelcurves import Polynomial, RationalFn, parse_function_spec
from levelcurves.tracer import _LevelTracer

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_gates_read_by_the_harness_exist():
    assert RationalFn(Polynomial([1, 0, 1])).tols.hull_tol == levelcurves.DEFAULT_TOLS.hull_tol
    assert _LevelTracer.tols.trace_tol == levelcurves.DEFAULT_TOLS.trace_tol


def test_spans_wrap_and_hook_the_package():
    spans = _spans()
    # every name is looked up before install wraps any, so a missing one
    # fails here without leaving the package half wrapped
    for mod_name, fn_name in spans.SPANNED:
        assert hasattr(sys.modules[f"levelcurves.{mod_name}"], fn_name), (mod_name, fn_name)
    assert all(meth in vars(RationalFn) for meth in spans.COUNTED)
    rec = spans.Recorder()
    undo = spans.install(rec)
    try:
        # looked up at call time, so the wrappers run with their hooks
        levelcurves.trace_level_set(parse_function_spec("poly:1,0,-1"), 1.0)
        levelcurves.check_gauss_lucas(Polynomial([1, 0, 1]))
    finally:
        spans.uninstall(undo)
    assert {"tracer.residual_ratio_max", "gauss_lucas.hull_ratio_max"} <= set(rec.maxima)
    assert rec.counts["tracer.points"] > 0
