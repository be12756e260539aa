#!/usr/bin/env python3
"""Self-test of the benchmark at reduced size.

    python3 bench/selftest.py

Runs every workload of BENCHMARK.json with one job per pass, untraced and
traced, and checks that:

- the run exits 0 and its last line has exactly the keys ``correct``,
  ``attempted``, ``failed`` and ``metrics``, with correct outputs;
- the metrics printed are exactly the ``end_to_end`` (untraced) or
  ``per_layer`` (traced) metrics of BENCHMARK.json, with their units;
- every metric name uses only letters, digits, ``_``, ``.`` and ``-``;
- in a directory holding only BENCHMARK.json and the benchmark's files, the
  run exits non-zero and prints no result.

Exits 0 when every check holds and prints one line per problem otherwise.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
BARE = ROOT / ".bench_selftest"


def run(spec, cwd, workload, trace):
    cmd = [sys.executable, *spec["command"][1:]]
    cmd += ["--workload", workload, "--seed", "0"]
    cmd += ["--seconds", "1", "--trace", str(trace), "--jobs", "1"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600, check=False)


def check_run(spec, workload, trace, problems):
    key = "per_layer" if trace else "end_to_end"
    tag = f"{workload} --trace {trace}"
    proc = run(spec, ROOT, workload, trace)
    if proc.returncode != 0:
        problems.append(f"{tag}: exit code {proc.returncode}: {proc.stderr.strip()[-500:]}")
        return
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != RESULT_KEYS:
        problems.append(f"{tag}: result keys {sorted(result)}")
        return
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{tag}: correct={result['correct']} failed={result['failed']} attempted={result['attempted']}")
    want = {m["name"]: m["unit"] for m in spec[key]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    for name in sorted(want.keys() - got.keys()):
        problems.append(f"{tag}: metric {name} missing from the output")
    for name in sorted(got.keys() - want.keys()):
        problems.append(f"{tag}: metric {name} printed but not in BENCHMARK.json {key}")
    for name in sorted(want.keys() & got.keys()):
        if want[name] != got[name]:
            problems.append(f"{tag}: {name} has unit {got[name]}, BENCHMARK.json says {want[name]}")
        value = result["metrics"][name]["value"]
        if not isinstance(value, (int, float)) or value != value:
            problems.append(f"{tag}: {name} = {value!r} is not a number")
        if f"\n{name} " not in "\n" + proc.stdout:
            problems.append(f"{tag}: {name} has no line of its own in the output")


def check_bare(spec, problems):
    """Without the program's sources the run must fail without a result."""
    shutil.rmtree(BARE, ignore_errors=True)
    try:
        BARE.mkdir()
        shutil.copy2(ROOT / "BENCHMARK.json", BARE / "BENCHMARK.json")
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, BARE / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(spec, BARE, spec["workloads"][0]["name"], 0)
        if proc.returncode == 0:
            problems.append("bare directory: exit code 0")
        if proc.stdout.strip():
            problems.append(f"bare directory: printed {proc.stdout.strip()[:200]!r}")
    finally:
        shutil.rmtree(BARE, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for key in ("end_to_end", "per_layer"):
        for m in spec[key]:
            if not NAME.fullmatch(m["name"]):
                problems.append(f"{key}: bad metric name {m['name']!r}")
            if not UNIT.fullmatch(m["unit"]):
                problems.append(f"{key}: bad unit {m['unit']!r} for {m['name']}")
    for wl in spec["workloads"]:
        for trace in (0, 1):
            check_run(spec, wl["name"], trace, problems)
    check_bare(spec, problems)
    for p in problems:
        print(p)
    print(f"selftest: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
