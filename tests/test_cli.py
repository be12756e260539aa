import ast
import importlib
import inspect
import json
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

import levelcurves
from levelcurves import cli, gridcheck, parse_function_spec, trace_level_set
from levelcurves.cli import _build_parser, main
from levelcurves.errors import LevelCurveError
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


def test_graph_refuses_a_bounded_face_without_zero_or_pole(tmp_path, capsys, monkeypatch):
    # the lemniscate's curve handed in for z^2 - 100, whose zeros lie outside
    # it: the graph is refused as verify-all's faces-hold-zeros check refuses
    # it, and no JSON is written
    lemniscate = trace_level_set(parse_function_spec("poly:1,0,-1"), 1.0)
    monkeypatch.setattr(cli, "trace_level_set", lambda f, eps: lemniscate)
    rc, data = run(["graph", "--fn", "poly:1,0,-100", "--eps", "1"], tmp_path)
    assert rc == 3 and data is None
    assert capsys.readouterr().err.startswith("certificate violation: bounded face 1 contains no zero or pole")


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
    capsys.readouterr()
    assert main(["trace", "--fn", "poly:0", "--eps", "1"]) == 1
    out, err = capsys.readouterr()
    assert not out and err == "error: numerator and denominator must be nonzero\n"
    # a level the tracer cannot resolve is a numerical failure, refused with its cause
    assert main(["trace", "--fn", "poly:1,0,0,0,0,-1", "--eps", "1.00000000001"]) == 2
    assert main(["nonsense"]) == 1
    # the domain is the function's own; there is no flag to override it
    assert main(["trace", "--fn", "blaschke:0.36,-0.34+0.03i/0.05+0.02i", "--eps", "0.5", "--domain", "plane"]) == 1
    # the certificate gates are fixed; there is no flag to loosen one
    assert main(["trace", "--fn", "poly:1,0", "--eps", "1", "--tol-trace", "1e-6"]) == 1
    # a numerator and denominator with a common root are refused by name
    capsys.readouterr()
    assert main(["trace", "--fn", "rat:1,0,-1/1,-1", "--eps", "1"]) == 1
    assert "share a root near (1+0j)" in capsys.readouterr().err
    # Gauss-Lucas needs a polynomial of degree at least 2
    assert main(["gauss-lucas", "--poly", "poly:1,0"]) == 1
    out, err = capsys.readouterr()
    assert not out and err == "error: polynomial degree must be at least 2\n"
    # and a polynomial, not a ratio
    assert main(["gauss-lucas", "--poly", "rat:1,0,1/1,2"]) == 1
    out, err = capsys.readouterr()
    assert not out and err == "error: gauss-lucas needs a polynomial (poly: spec)\n"
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


def test_an_empty_level_set_is_traced_as_none(tmp_path, capsys):
    # |B| < 1 on the disk: the level 2 is empty, and the probe needs a curve
    rc, data = run(["trace", "--fn", "blaschke:0.3,0.5/", "--eps", "2"], tmp_path)
    assert rc == 0 and data["components"] == []
    capsys.readouterr()
    assert main(["continuity", "--fn", "blaschke:0.3,0.5/", "--eps", "2", "--delta", "0.1"]) == 2
    out, err = capsys.readouterr()
    assert not out and err.startswith("numerical failure: the level set is empty")


def test_a_refusal_exits_alike_from_every_command(tmp_path, capsys):
    # order, decompose and the two checks of verify-all that need the critical
    # set refuse it with one line, and verify-all still writes every check. A
    # critical cluster of the Blaschke ratio may lie on the unit circle, a
    # usage error; the critical set of the rat: ratio has three maximal
    # members, a certificate violation
    for spec, code, cause in (
        ("blaschke:0.6,-0.5+0.3i/0.2-0.6i", 1, "error: the critical cluster at"),
        ("rat:1,0,-1/1,0,0.25", 3, "certificate violation: expected a unique maximal element"),
    ):
        capsys.readouterr()
        assert main(["order", "--fn", spec]) == code
        err = capsys.readouterr().err
        assert err.startswith(cause) and len(err.splitlines()) == 1
        assert main(["decompose", "--fn", spec]) == code
        assert capsys.readouterr().err == err
        rc, data = run(["verify-all", "--fn", spec, "--eps", "0.5"], tmp_path)
        assert rc == code and capsys.readouterr().err == err
        failed = [c for c in data["checks"] if not c["pass"]]
        assert len(data["checks"]) == 7 and [c["name"] for c in failed] == ["order-and-maximal", "annulus-phi"]
        assert failed[0]["detail"] == failed[1]["detail"]


def test_a_failed_continuity_probe_writes_its_json_then_refuses(tmp_path, capsys):
    rc, data = run(["continuity", "--fn", "poly:1,0,-1", "--eps", "1", "--delta", "1e-5"], tmp_path)
    assert rc == 3 and data["pass"] is False and data["eta"] == 0.0
    err = capsys.readouterr().err
    assert err.startswith("certificate violation: ") and len(err.splitlines()) == 1


def test_a_failed_grid_oracle_refuses_with_its_detail(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(gridcheck, "PROXIMITY_FACTOR", 1e-3)
    rc, data = run(["verify-all", "--fn", "poly:1,0,-1", "--eps", "1"], tmp_path)
    failed = [c for c in data["checks"] if not c["pass"]]
    assert rc == 3 and [c["name"] for c in failed] == ["grid-oracle"]
    assert capsys.readouterr().err == f"certificate violation: {failed[0]['detail']}\n"


def test_verify_all_exits_with_the_code_of_its_first_failed_check(tmp_path):
    # the lemniscate scaled by 2^23 misses the absolute on-level gate 1e-9:
    # one ulp of eps is 1.9e-9, so only a sample whose |f| rounds to eps
    # exactly passes it, and the failure is numerical
    rc, data = run(["verify-all", "--fn", "poly:8388608,0,-8388608", "--eps", "8388608"], tmp_path)
    assert rc == 2
    assert [c["name"] for c in data["checks"] if not c["pass"]][0] == "on-level-residuals"


def test_verify_all_raises_its_first_failed_check_before_rendering(tmp_path, capsys):
    # on an empty level set the grid oracle fails first; no SVG is drawn
    svg = tmp_path / "empty.svg"
    rc, data = run(["verify-all", "--fn", "blaschke:0.3,0.5/", "--eps", "2", "--svg", str(svg)], tmp_path)
    failed = [c for c in data["checks"] if not c["pass"]]
    assert rc == 2 and [c["name"] for c in failed] == ["grid-oracle"]
    assert capsys.readouterr().err == f"numerical failure: {failed[0]['detail']}\n"
    assert not svg.exists()


def test_readme_quick_start_prints_what_it_says(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    first, *regions = capsys.readouterr().out.splitlines()
    assert first == re.search(r"# (\d+ \d+ \d+)\n", code).group(1)
    counts = sorted(tuple(line.split()[1:3]) for line in regions)
    assert counts == [("1", "1")] * 5 + [("5", "5")]


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


def test_every_refusal_is_a_levelcurve_error():
    # the CLI's one table gives an exit code to each LevelCurveError, so
    # every exception the package builds and raises is one; only two checks
    # of a library call's own arguments raise ValueError
    allowed = {("metrics", "continuity_probe"), ("geometry", "bounding_box")}
    value_errors, foreign = set(), []
    for info in pkgutil.iter_modules(levelcurves.__path__):
        mod = importlib.import_module(f"levelcurves.{info.name}")
        owner = {}
        # breadth first, so a nested function overwrites its enclosing one
        for fn in ast.walk(ast.parse(Path(mod.__file__).read_text())):
            if isinstance(fn, ast.FunctionDef):
                for node in ast.walk(fn):
                    if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                        owner[node] = fn.name
        for node, name in owner.items():
            cls = eval(ast.unparse(node.exc.func), vars(mod))
            if cls is ValueError and (info.name, name) in allowed:
                value_errors.add((info.name, name))
            elif not issubclass(cls, LevelCurveError):
                foreign.append(f"{info.name}.{name}:{node.lineno} raises {cls.__name__}")
    assert not foreign
    assert value_errors == allowed


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


def test_documented_constants_exist():
    # every backticked constant name (`NAME` or `NAME = value`) in the README
    # and in the tolerance block's docstring is defined by some module
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    docs = readme + levelcurves.config.__doc__
    names = set(re.findall(r"`([A-Z][A-Z0-9_]{3,})(?: = [^`]*)?`", docs))
    modules = [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(levelcurves.__path__, "levelcurves.")
    ]
    assert names
    for name in sorted(names):
        assert any(name in vars(m) for m in modules), f"the docs name {name}, which no module defines"
