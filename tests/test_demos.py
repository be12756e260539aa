"""Every demo script runs to completion, on a copy of ``demos/``, and each file
it writes under ``output/`` equals the tracked one of the same name."""

import os
import pathlib
import shutil
import subprocess
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent
DEMOS = REPO / "demos"


def _snapshot(root: pathlib.Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("script", sorted(p.name for p in DEMOS.glob("run_*.py")))
def test_demo_runs(tmp_path, script):
    before = _snapshot(DEMOS)
    copy = tmp_path / "demos"
    # without its outputs, so that every file under output/ is one the script wrote
    shutil.copytree(DEMOS, copy, ignore=shutil.ignore_patterns("__pycache__", "output"))
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    run = subprocess.run(
        [sys.executable, script], cwd=copy, env=env, capture_output=True, text=True, timeout=300
    )
    assert run.returncode == 0, run.stderr
    # the script writes into the copy only
    assert _snapshot(DEMOS) == before
    # and what it writes is the tracked output of the same name
    for name, data in _snapshot(copy / "output").items():
        assert data == before.get(f"output/{name}"), name
