import importlib
import inspect
import json
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

import levelcurves
from levelcurves.cli import _build_parser, main
from levelcurves.gauss_lucas import _normalize_outside_hull, corrupted_instance
from levelcurves.geometry import horizontal_crossings


def run(args, tmp_path, name="out.json"):
    out = tmp_path / name
    rc = main(args + ["--out", str(out)])
    data = json.loads(out.read_text()) if out.exists() else None
    return rc, data


def test_trace_circle(tmp_path):
    rc, data = run(["trace", "--fn", "poly:1,0", "--eps", "2"], tmp_path)
    assert rc == 0
    assert data["schema"] == "levelcurve/1"
    assert len(data["components"]) == 1
    pts = np.array(
        [complex(a, b) for arc in data["components"][0]["arcs"] for a, b in arc["points"]]
    )
    assert float(np.max(np.abs(np.abs(pts) - 2.0))) < 1e-6
    assert data["components"][0]["arcs"][0]["closed"]


def test_trace_csv(tmp_path):
    out = tmp_path / "pts.csv"
    rc = main(["trace", "--fn", "poly:1,0", "--eps", "1", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "component_id,arc_id,re,im"
    assert len(lines) > 50


def test_graph_z5m1(tmp_path):
    rc, data = run(["graph", "--fn", "poly:1,0,0,0,0,-1", "--eps", "1"], tmp_path)
    assert rc == 0
    g = data["components"][0]
    assert len(g["vertices"]) == 1
    assert len(g["edges"]) == 5
    assert sum(1 for fc in g["faces"] if fc["bounded"]) == 5


def test_graph_svg(tmp_path):
    svg = tmp_path / "fig.svg"
    rc = main(
        ["graph", "--fn", "poly:1,0,-1", "--eps", "1", "--out", str(tmp_path / "g.json"), "--svg", str(svg)]
    )
    assert rc == 0
    text = svg.read_text()
    assert text.startswith("<svg") and "path" in text


def test_gauss_lucas_corpus(tmp_path):
    # seed 76 replays draw 18 of default_rng(77), whose on-curve pairs lie
    # only at heights a sampled search misses
    for corpus, corrupted, seed in ((8, 3, 5), (0, 50, 76)):
        rc, data = run(
            [
                "gauss-lucas", "--poly", "poly:1,0,0,-1",
                "--corpus", str(corpus), "--corrupted", str(corrupted), "--seed", str(seed),
            ],
            tmp_path,
        )
        assert rc == 0
        assert len(data["reports"]) == corpus + 1
        assert len(data["replays"]) == corrupted
        assert all(r["product1"] < r["product2"] for r in data["replays"])
        # each pair is two crossings of its mapped curve at its height
        rng = np.random.default_rng(seed + 1)
        for r in data["replays"]:
            p, c, curve = corrupted_instance(rng)
            fwd = _normalize_outside_hull([z for z, m in p.roots() for _ in range(m)], c)[0]
            crossings = horizontal_crossings(fwd(curve), r["s"])
            assert complex(*r["z1"]) in crossings and complex(*r["z2"]) in crossings
            assert "pair_source" not in r


def test_continuity(tmp_path):
    rc, data = run(
        ["continuity", "--fn", "poly:1,0,0", "--eps", "1", "--delta", "0.05"], tmp_path
    )
    assert rc == 0
    assert data["pass"] and data["eta"] >= 0.05


def test_order(tmp_path):
    rc, data = run(["order", "--fn", "poly:1,0,0,0,0,-1"], tmp_path)
    assert rc == 0
    maximal = data["components"][data["maximal"]]
    assert maximal["kind"] == "level_curve"
    assert len(data["hasse"]) == 5


def test_svg_only_where_it_renders(tmp_path, capsys):
    # continuity, order and decompose draw nothing, so they refuse --svg
    svg = str(tmp_path / "x.svg")
    assert main(["order", "--fn", "poly:1,0,0", "--svg", svg]) == 1
    assert main(["decompose", "--fn", "poly:1,0,0", "--svg", svg]) == 1
    assert main(["continuity", "--fn", "poly:1,0,0", "--eps", "1", "--delta", "0.05", "--svg", svg]) == 1
    assert "unrecognized arguments: --svg" in capsys.readouterr().err
    assert not (tmp_path / "x.svg").exists()


def test_decompose(tmp_path):
    phi_csv = tmp_path / "phi.csv"
    out = tmp_path / "d.json"
    rc = main(
        ["decompose", "--fn", "poly:1,0,0", "--out", str(out), "--emit-phi", str(phi_csv)]
    )
    assert rc == 0
    data = json.loads(out.read_text())
    (region,) = data["regions"]
    assert region["N"] == 2 and region["M"] == 2
    assert region["certificate"]["max_power_residual"] <= region["certificate"]["power_gate"]
    header = phi_csv.read_text().splitlines()[0]
    assert header == "w_re,w_im,phi_re,phi_im"


def test_verify_all_lemniscate(tmp_path):
    rc, data = run(["verify-all", "--fn", "poly:1,0,-1", "--eps", "1"], tmp_path)
    assert rc == 0
    names = {c["name"] for c in data["checks"]}
    assert {
        "on-level-residuals",
        "graph-structure-laws",
        "faces-hold-zeros",
        "grid-oracle",
        "gauss-lucas",
        "order-and-maximal",
        "annulus-phi",
    } <= names
    assert all(c["pass"] for c in data["checks"])


@pytest.mark.parametrize(
    "spec",
    [
        # z^5 - 1 turned by 3.9138 and by 5.6903 rad: a sampled injectivity
        # proxy once refused the correct petal maps near the critical point 0
        "poly:1+0i,0,0,0,0,-0.75214984908684024-0.65899211263765789i",
        "poly:1+0i,0,0,0,0,0.9843454098364216+0.17625014647927711i",
    ],
)
def test_verify_all_rotated_z5m1(tmp_path, spec):
    rc, data = run(["verify-all", "--fn", spec, "--eps", "1"], tmp_path)
    assert rc == 0
    assert all(c["pass"] for c in data["checks"])


def test_determinism_byte_identical(tmp_path):
    rc1, _ = run(["graph", "--fn", "poly:1,0,-1", "--eps", "1"], tmp_path, "a.json")
    rc2, _ = run(["graph", "--fn", "poly:1,0,-1", "--eps", "1"], tmp_path, "b.json")
    assert rc1 == rc2 == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_exit_codes(tmp_path, capsys):
    assert main(["trace", "--fn", "poly:zap", "--eps", "1"]) == 1
    # a level the tracer cannot resolve is a numerical failure, refused with its cause
    assert main(["trace", "--fn", "poly:1,0,0,0,0,-1", "--eps", "1.00000000001"]) == 2
    assert main(["nonsense"]) == 1
    # the domain is the function's own; there is no flag to override it
    assert main(["trace", "--fn", "blaschke:0.36,-0.34+0.03i/0.05+0.02i", "--eps", "0.5", "--domain", "plane"]) == 1
    # the certificate gates are fixed; there is no flag to loosen one
    assert main(["trace", "--fn", "poly:1,0", "--eps", "1", "--tol-trace", "1e-6"]) == 1
    # the probe's delta is a distance and its disks' radius: positive and finite
    capsys.readouterr()
    for delta in ("0", "-1", "nan", "inf"):
        assert main(["continuity", "--fn", "poly:1,0,0", "--eps", "1", "--delta", delta]) == 1
        out, err = capsys.readouterr()
        assert not out and len(err.strip().splitlines()) == 1 and "--delta" in err
    # so is the level, on every subcommand that takes one
    for cmd in ("trace", "graph", "continuity", "verify-all"):
        delta = ["--delta", "0.1"] if cmd == "continuity" else []
        for eps in ("0", "-1", "nan", "inf"):
            assert main([cmd, "--fn", "poly:1,0,0", "--eps", eps, *delta]) == 1
            out, err = capsys.readouterr()
            assert not out and len(err.strip().splitlines()) == 1 and "--eps" in err


def test_no_function_takes_tolerances():
    # every module reads the gates from config.DEFAULT_TOLS
    taking = []
    for info in pkgutil.iter_modules(levelcurves.__path__):
        mod = importlib.import_module(f"levelcurves.{info.name}")
        for name, obj in vars(mod).items():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            members = [(name, obj)]
            if inspect.isclass(obj):
                members += [(f"{name}.{attr}", value) for attr, value in vars(obj).items()]
            for qualname, fn in members:
                fn = getattr(fn, "__func__", fn)  # classmethods and staticmethods
                if inspect.isfunction(fn) and "tols" in inspect.signature(fn).parameters:
                    taking.append(f"{mod.__name__}.{qualname}")
    assert not taking


def test_readme_flags_exist():
    # every flag the README documents is accepted by some subcommand
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    subparsers = next(a for a in _build_parser()._actions if a.choices).choices.values()
    accepted = {opt for p in subparsers for a in p._actions for opt in a.option_strings}
    assert documented and documented <= accepted, documented - accepted


def test_readme_names_exist():
    # every name the "What is in the box" table gives its module resolves
    # there; only backticked dotted names with an uppercase letter or an
    # underscore are names (`f^(1/M)` and `phi` are math)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## What is in the box", 1)[1].split("\n## ", 1)[0]
    # the contents cell may hold `|f| = eps`, so the row is not split on "|"
    rows = re.findall(r"^\| `(levelcurves\.\w+)` \| (.*) \|$", section, flags=re.M)
    names = [
        (module, name)
        for module, contents in rows
        for name in re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)`", contents)
        if re.search(r"[A-Z_]", name)
    ]
    assert len(rows) >= 10 and names
    for module, name in names:
        obj = importlib.import_module(module)
        for part in name.split("."):
            assert hasattr(obj, part), f"README names {name} in {module}, which has no such attribute"
            obj = getattr(obj, part)
