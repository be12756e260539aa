"""The package names the benchmark harness in ``bench/`` reads.

``bench/spans.py`` wraps package functions by name and its hooks read
``_LevelTracer.tols``, ``levelcurves.DEFAULT_TOLS`` and the
``PhiCertificate`` fields ``n_mesh``, ``max_power_residual`` and
``power_gate``; ``bench/run.py`` reads ``RationalFn.tols``.  A rename or
deletion breaks the benchmark, so it is caught here, and one job of each
workload of ``bench/run.py`` runs on the package as it is.
"""

import importlib.util
import os
import sys
from pathlib import Path
from unittest import mock

import pytest

import levelcurves
import levelcurves.cli
from levelcurves import Polynomial, RationalFn, parse_function_spec
from levelcurves.tracer import _LevelTracer

BENCH = Path(__file__).resolve().parents[1] / "bench"
SPANS = BENCH / "spans.py"


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
        f = parse_function_spec("poly:1,0,0")
        for region in levelcurves.decompose(f):
            levelcurves.verify_phi(f, region)
    finally:
        spans.uninstall(undo)
    assert {
        "tracer.residual_ratio_max",
        "gauss_lucas.hull_ratio_max",
        "annulus_decomp.power_residual_ratio_max",
    } <= set(rec.maxima)
    assert rec.counts["tracer.points"] > 0
    # the verify_phi hook reads the PhiCertificate fields by name
    assert rec.counts["annulus_decomp.mesh_points.sum"] > 0


@pytest.fixture
def run(monkeypatch):
    """``bench/run.py`` as it is; it imports ``spans`` from its own directory
    and pins the BLAS thread variables, which are restored after loading."""
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    mod = importlib.util.module_from_spec(spec)
    with mock.patch.dict(os.environ):
        spec.loader.exec_module(mod)
    return mod


def test_one_job_per_workload_passes(run, monkeypatch, tmp_path):
    lc = levelcurves
    ((_, coeffs),) = run.corpus_inputs(lc, 29, 1)
    assert run.corpus_job(lc, None, coeffs) == []
    monkeypatch.setattr(run, "TMP", tmp_path)
    assert run.verify_all_job(lc, None, run.FIXTURES[0]) == []
    _, *probe = next(p for p in run.PROBES if p[0] == "z2")
    assert run.continuity_job(lc, None, tuple(probe)) == []
