#!/usr/bin/env python3
"""levelcurves benchmark: time to certified results on three workloads.

    python3 bench/run.py --workload corpus-levels --seed 20260810 --seconds 30 --trace 0
    python3 bench/run.py --workload all        # every workload, one process each

Each workload is a closed loop: one caller runs its jobs back to back, in one
process, with no worker threads.  ``--seconds`` sets the number of passes over
the job list (one pass per nominal pass time, at least one), so the amount of
work depends on the flag and never on how fast the program is.  Every pass
runs the same job list.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one untraced
and one traced pass over the same inputs and prints the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give every metric by name with its unit, the environment and any failed job.
"""

import argparse
import functools
import gc
import importlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import spans

# BLAS and OpenMP pools pinned to one thread; numpy is first imported later,
# with the package.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TMP = ROOT / ".bench_tmp"

SETUP_REPEATS = 21
CORPUS_PER_PASS = 30
ACCEPTANCE_SEED = 20260810

# (name, spec, eps) for verify-all, as written in the README and the tests
FIXTURES = (
    ("lemniscate", "poly:1,0,-1", 1.0),
    ("z5m1", "poly:1,0,0,0,0,-1", 1.0),
    ("blaschke21", "blaschke:0.36,-0.34+0.03i/0.05+0.02i", 0.5),
)
# (name, spec, eps, delta) for the continuity probe
PROBES = (
    ("lemniscate", "poly:1,0,-1", 1.0, 0.1),
    ("z2", "poly:1,0,0", 1.0, 0.05),
    ("z5m1", "poly:1,0,0,0,0,-1", 1.0, 0.1),
)


# ---------------------------------------------------------------------------
# inputs


def corpus_inputs(lc, seed: int, per_pass: int, corpus_seed: int = ACCEPTANCE_SEED):
    """Seeded random polynomials, generated and filtered as the acceptance corpus
    is, each turned by its own angle drawn from ``seed``.

    The corpus comes from ``corpus_seed``: degrees 3 to 7, resampled while
    critical values sit at the zero level or within 1e-4 of each other, or
    critical points crowd within 2e-2.  The first ``per_pass`` functions of
    the acceptance seed are the acceptance corpus.  Function k becomes
    p(e^{i t_k} z): its zeros and level sets turn by -t_k while its critical
    values, and so the hygiene rules, stay as they were.  Seed 0 turns
    nothing.  A fresh corpus per seed would make the run's cost follow the
    corpus's degree mix, which moves the pass time by about 20% from seed to
    seed; turning a fixed corpus keeps the work the same size.  The jobs get
    coefficients only and build their own functions.
    """
    import numpy as np

    rng = np.random.default_rng(corpus_seed)
    out = []
    while len(out) < per_pass:
        deg = int(rng.integers(3, 8))
        p = lc.random_polynomial(rng, deg)
        try:
            f = lc.RationalFn(p)
        except lc.LevelCurveError:
            continue
        crit = f.critical_points
        vals = sorted(f.abs_eval(c) for c, _ in crit)
        if any(v < 1e-3 for v in vals):
            continue
        if any(b - a < 1e-4 for a, b in zip(vals, vals[1:])):
            continue
        pts = [c for c, _ in crit]
        if len(pts) > 1 and min(abs(a - b) for i, a in enumerate(pts) for b in pts[i + 1 :]) < 2e-2:
            continue
        out.append((f"f{len(out)}.deg{deg}", p.coeffs.copy()))
    turns = corpus_rotations(seed, len(out))
    # ascending coefficients: c_j z^j becomes c_j e^{i j t} z^j
    return [(label, coeffs * np.exp(1j * t * np.arange(len(coeffs)))) for (label, coeffs), t in zip(out, turns)]


def rotation(seed: int) -> float:
    """Seed 0 runs the fixtures as written; any other seed rotates them by an
    angle drawn from it."""
    return 0.0 if seed == 0 else random.Random(seed).uniform(0.0, 2.0 * math.pi)


def corpus_rotations(seed: int, n: int) -> list[float]:
    """One angle per corpus function; none at seed 0."""
    rng = random.Random(seed)
    return [0.0 if seed == 0 else rng.uniform(0.0, 2.0 * math.pi) for _ in range(n)]


def _literal(z: complex) -> str:
    return "0" if z == 0 else f"{z.real:.17g}{z.imag:+.17g}i"


def rotate_spec(spec: str, theta: float) -> str:
    """The spec of f(e^{-i theta} z) up to a unimodular factor: zeros and poles
    turn by theta and |f| keeps its level sets, turned."""
    if theta == 0.0:
        return spec
    kind, body = spec.split(":", 1)
    r = complex(math.cos(theta), math.sin(theta))
    parse = lambda tok: complex(tok.strip().replace("i", "j"))  # noqa: E731
    if kind == "poly":
        # coefficient of z^(n-j) times e^{i j theta}
        return "poly:" + ",".join(_literal(parse(t) * r**j) for j, t in enumerate(body.split(",")))
    if kind == "blaschke":
        sides = [",".join(_literal(parse(t) * r) for t in side.split(",") if t.strip()) for side in body.split("/")]
        return "blaschke:" + "/".join(sides)
    raise ValueError(f"no rotation rule for {spec!r}")


def fixture_inputs(lc, seed: int, per_pass: int):
    theta = rotation(seed)
    jobs = []
    for name, spec, eps in FIXTURES[:per_pass]:
        spec = rotate_spec(spec, theta)
        lc.parse_function_spec(spec)
        jobs.append((name, (name, spec, eps)))
    return jobs


def probe_inputs(lc, seed: int, per_pass: int):
    theta = rotation(seed)
    jobs = []
    for name, spec, eps, delta in PROBES[:per_pass]:
        spec = rotate_spec(spec, theta)
        lc.parse_function_spec(spec)
        jobs.append((name, (spec, eps, delta)))
    return jobs


# ---------------------------------------------------------------------------
# jobs: each returns the output checks that failed.  A job whose program call
# raises LevelCurveError or Refused failed without a wrong output.


class Refused(Exception):
    """The program reported a failure without raising: a non-zero verify-all
    exit code, or a continuity certificate that did not pass."""


def corpus_job(lc, rec, coeffs) -> list[str]:
    bad = []
    f = lc.RationalFn(lc.Polynomial(coeffs))
    levels = [f.abs_eval(c) for c, _ in f.critical_points]
    for level in levels:
        for comp in lc.trace_level_set(f, level):
            g = lc.build_graph(comp)
            mult = sum(m for _, m in g.vertices)
            bounded = sum(1 for fc in g.faces if fc.bounded)
            if bounded != mult + 1:
                bad.append(f"level {level:.6g}: {bounded} bounded faces, sum(mult) + 1 = {mult + 1}")
            for vi, (_, m) in enumerate(g.vertices):
                if g.degree(vi) != 2 * (m + 1):
                    bad.append(f"level {level:.6g}: vertex degree {g.degree(vi)} != 2*({m}+1)")
    lo = 0.6 * min(levels)
    comps = lc.trace_level_set(f, lo)
    C = lc.critical_level_curves(f)
    lc.maximal_component(f, C=C)
    if len(comps) >= 2:
        kind = lc.order_topology.CurveKind.LEVEL_CURVE
        a, b = (lc.CurveRef(kind, lo, component=c, label=f"o{i}") for i, c in enumerate(comps[:2]))
        _, f1, f2 = lc.two_curve_critical_witness(f, a, b, C)
        if f1 == f2:
            bad.append(f"two-curve witness puts both curves in face {f1}")
    rep = lc.check_gauss_lucas(f.numerator)
    gate = f.tols.hull_tol * max(1.0, max(abs(z) for z in rep.zeros))
    if rep.max_signed_distance > gate:
        bad.append(f"critical point {rep.max_signed_distance:.3e} outside the zero hull (gate {gate:.3e})")
    return bad


def verify_all_job(lc, rec, payload) -> list[str]:
    name, spec, eps = payload
    out = TMP / f"{name}.json"
    out.unlink(missing_ok=True)
    with spans.span(rec, f"cli.verify_all.{name}"):
        code = lc.cli.main(["verify-all", "--fn", spec, "--eps", repr(eps), "--out", str(out)])
    checks = json.loads(out.read_text(encoding="utf-8"))["checks"] if out.exists() else []
    failing = [f"{c['name']}: {c['detail']}" for c in checks if c["pass"] is not True]
    if code != 0:
        raise Refused(f"verify-all exit code {code}; " + "; ".join(failing))
    if not checks:
        return ["exit code 0 without checks in the JSON"]
    return [f"exit code 0 with a failing check {c}" for c in failing]


def continuity_job(lc, rec, payload) -> list[str]:
    spec, eps, delta = payload
    cert = lc.continuity_probe(lc.parse_function_spec(spec), eps, delta)
    if not cert.passed:
        raise Refused(f"continuity certificate did not pass (eta {cert.eta})")
    bad = []
    if not cert.eta > 0:
        bad.append(f"eta = {cert.eta}")
    if not cert.samples:
        bad.append("no samples")
    bad.extend(f"zeta {z:.9g}: d = {d:.4g} >= delta {delta}" for z, d in cert.samples if not d < delta)
    return bad


@dataclass(frozen=True)
class Workload:
    make_inputs: object
    job: object
    per_pass: int
    nominal_pass_s: float  # one pass at the seed commit, on a 2-core box


WORKLOADS = {
    "corpus-levels": Workload(corpus_inputs, corpus_job, CORPUS_PER_PASS, 19.0),
    "fixtures-verify-all": Workload(fixture_inputs, verify_all_job, len(FIXTURES), 17.0),
    "continuity-probe": Workload(probe_inputs, continuity_job, len(PROBES), 22.0),
}


# ---------------------------------------------------------------------------
# running


@dataclass
class Tally:
    latencies: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    wrong: int = 0  # jobs whose output failed a check, or that crashed outside LevelCurveError
    warnings: int = 0
    notes: list = field(default_factory=list)


def run_pass(lc, wl: Workload, jobs, rec, tally: Tally) -> float:
    t_pass = time.perf_counter()
    for label, payload in jobs:
        if rec is not None:
            rec.job = label
        with warnings.catch_warnings(record=True) as caught:
            # near-critical diagnostics are recorded and counted, not silenced
            warnings.simplefilter("always", UserWarning)
            t = time.perf_counter()
            try:
                bad = wl.job(lc, rec, payload)
                why = "; ".join(bad[:3])
            except (lc.LevelCurveError, Refused) as exc:
                bad, why = None, f"{type(exc).__name__}: {exc}"
            except Exception:  # a crash is a failed job; the run carries on and reports it
                bad, why = ["crashed"], traceback.format_exc(limit=-3).replace("\n", " | ")
            tally.latencies.append(time.perf_counter() - t)
        tally.warnings += sum(1 for w in caught if issubclass(w.category, UserWarning))
        tally.attempted += 1
        if bad is None or bad:
            tally.failed += 1
            tally.wrong += bad is not None
            tally.notes.append(f"job {label} failed: {why}")
    return time.perf_counter() - t_pass


def import_package():
    """Import levelcurves (and its CLI) from this checkout, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "levelcurves" or n.startswith("levelcurves.")]:
        del sys.modules[name]
    lc = importlib.import_module("levelcurves")
    importlib.import_module("levelcurves.cli")
    return lc


def tail(latencies):
    """Highest percentile with at least 10 jobs beyond it (the maximum below 11 jobs)."""
    xs = sorted(latencies)
    k = len(xs) - 10 if len(xs) > 10 else len(xs)
    return xs[k - 1], 100.0 * k / len(xs)


def rusage():
    return resource.getrusage(resource.RUSAGE_SELF)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        path = ROOT / ".git" / ref[5:]
        if path.exists():
            return path.read_text(encoding="utf-8").strip()
        packed = (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8")
        for line in packed.splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(name, seed, corpus_seed, passes, per_pass, trace) -> dict:
    import numpy

    env = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "passes": passes,
        "jobs_per_pass": per_pass,
        "loop": "closed, one caller, no worker threads",
        "process": "one process per workload: peak_rss_mb and process.* cover this workload alone",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
    }
    if name == "corpus-levels":
        env["corpus_seed"] = corpus_seed
        env["rotation_rad"] = [round(t, 6) for t in corpus_rotations(seed, per_pass)]
    else:
        env["rotation_rad"] = rotation(seed)
    return env


def measure(name: str, seed: int, corpus_seed: int, seconds: float, trace: bool, jobs_cap: int | None):
    wl = WORKLOADS[name]
    make_inputs = wl.make_inputs
    if name == "corpus-levels":
        make_inputs = functools.partial(corpus_inputs, corpus_seed=corpus_seed)
    per_pass = min(wl.per_pass, jobs_cap) if jobs_cap else wl.per_pass
    passes = 1 if trace else max(1, round(seconds / wl.nominal_pass_s))
    lines = []
    TMP.mkdir(exist_ok=True)
    try:
        if not trace:
            setup = []
            for _ in range(SETUP_REPEATS):
                gc.collect()
                t = time.perf_counter()
                lc = import_package()
                jobs = make_inputs(lc, seed, per_pass)
                setup.append(time.perf_counter() - t)
            tally = Tally()
            walls = []
            for _ in range(passes):
                gc.collect()
                walls.append(run_pass(lc, wl, jobs, None, tally))
            metrics = {
                "setup_s": (statistics.median(setup), "s"),
                "wall_s": (statistics.median(walls), "s"),
                "peak_rss_mb": (rusage().ru_maxrss / 1024.0, "MB"),
            }
            if name == "corpus-levels":
                # job latency follows the corpus's degree mix, not a steady figure to gate on
                p_tail, pct = tail(tally.latencies)
                lines.append(f"# job_p50_s {statistics.median(tally.latencies)!r} s (not gated)")
                lines.append(f"# job_tail_s {p_tail!r} s: p{pct:.1f} of n={len(tally.latencies)} jobs (not gated)")
            lines.append(f"# wall_s is the median of {passes} pass(es): " + ", ".join(f"{w:.3f}" for w in walls))
        else:
            lc = import_package()
            rec = spans.Recorder()
            undo = spans.install(rec)
            try:
                rec.job = "setup"
                jobs = make_inputs(lc, seed, per_pass)
            finally:
                spans.uninstall(undo)
            tally = Tally()
            plain_wall = run_pass(lc, wl, jobs, None, tally)
            plain_warnings = tally.warnings
            undo = spans.install(rec)
            try:
                traced_wall = run_pass(lc, wl, jobs, rec, tally)
            finally:
                spans.uninstall(undo)
            rec.add("tracer.near_critical_warnings", tally.warnings - plain_warnings)
            metrics = spans.layer_metrics(rec)
            ru = rusage()
            metrics["process.cpu_user_s"] = (ru.ru_utime, "s")
            metrics["process.cpu_sys_s"] = (ru.ru_stime, "s")
            metrics["process.minflt"] = (float(ru.ru_minflt), "count")
            metrics["trace.overhead"] = (traced_wall / plain_wall, "ratio")
            lines.append(
                f"# traced pass {traced_wall:.3f} s, untraced pass {plain_wall:.3f} s, "
                f"{len(rec.spans)} spans in memory"
            )
    finally:
        shutil.rmtree(TMP, ignore_errors=True)
    lines.insert(0, "# env " + json.dumps(environment(name, seed, corpus_seed, passes, per_pass, trace), sort_keys=True))
    frac = tally.failed / tally.attempted
    lines.append(f"# fail_frac {tally.failed}/{tally.attempted} = {frac:.4g}")
    lines.append(f"# near-critical warnings recorded: {tally.warnings}")
    lines.extend("# " + note for note in tally.notes)
    for key in sorted(metrics):
        value, unit = metrics[key]
        lines.append(f"{key} {value!r} {unit}")
    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return lines, result


def run_all(args) -> int:
    """Every workload in its own process, then one summary table."""
    code = 0
    rows = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
        cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        cmd += ["--seed", str(args.seed)]
        if name == "corpus-levels":
            cmd += ["--corpus-seed", str(args.corpus_seed)]
        if args.jobs:
            cmd += ["--jobs", str(args.jobs)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, check=False)
        sys.stdout.write(f"## {name}\n{proc.stdout}")
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            code = proc.returncode
            continue
        rows[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    keys = sorted({k for r in rows.values() for k in r["metrics"]})
    print("## summary")
    print("metric".ljust(52) + "".join(n.rjust(22) for n in rows))
    for key in ["fail_frac", *keys]:
        cells = []
        for r in rows.values():
            if key == "fail_frac":
                cells.append(f"{r['failed']}/{r['attempted']}")
            elif key in r["metrics"]:
                m = r["metrics"][key]
                cells.append(f"{m['value']:.6g} {m['unit']}")
            else:
                cells.append("-")
        print(key.ljust(52) + "".join(c.rjust(22) for c in cells))
    print(json.dumps(rows, sort_keys=True))
    return code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0, help="workload seed; 0 turns no input")
    ap.add_argument(
        "--corpus-seed",
        type=int,
        default=ACCEPTANCE_SEED,
        help="seed of the corpus-levels polynomials (default: the acceptance seed); --seed turns them",
    )
    ap.add_argument("--seconds", type=float, default=30.0, help="run length; sets the number of passes")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--jobs", type=int, default=None, help="cap on jobs per pass (self-test)")
    args = ap.parse_args(argv)

    if not (SRC / "levelcurves" / "__init__.py").is_file():
        print(f"error: no levelcurves package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, str(SRC))
    pkg = Path(import_package().__file__).resolve()
    if not pkg.is_relative_to(SRC.resolve()):
        print(f"error: levelcurves was imported from {pkg}, not from {SRC}", file=sys.stderr)
        return 2
    lines, result = measure(args.workload, args.seed, args.corpus_seed, args.seconds, bool(args.trace), args.jobs)
    print("\n".join(lines))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
