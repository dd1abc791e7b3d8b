"""CLI behavior: determinism, exit codes, report schema."""

import json
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import wamalgam
from conftest import child_env
from wamalgam.errors import TruncationWarning


def run_cli(args, cwd):
    return subprocess.run([sys.executable, "-m", "wamalgam", *args],
                          capture_output=True, text=True, cwd=cwd,
                          env=child_env())


def load_report(path):
    return json.loads(path.read_text())


def test_child_imports_package_under_test(tmp_path):
    r = subprocess.run(
        [sys.executable, "-c", "import wamalgam; print(wamalgam.__file__)"],
        capture_output=True, text=True, cwd=tmp_path, env=child_env())
    assert r.returncode == 0, r.stderr
    assert Path(r.stdout.strip()).resolve() == Path(wamalgam.__file__).resolve()


def test_verify_cor_conv_lp_deterministic(tmp_path):
    a_dir = tmp_path / "a"
    b_dir = tmp_path / "b"
    r1 = run_cli(["verify", "cor_conv_Lp", "--seed", "7", "--out", str(a_dir)],
                 tmp_path)
    r2 = run_cli(["verify", "cor_conv_Lp", "--seed", "7", "--out", str(b_dir)],
                 tmp_path)
    assert r1.returncode == 0 and r2.returncode == 0, r1.stderr + r2.stderr
    ta = (a_dir / "verify-cor_conv_Lp.json").read_text()
    tb = (b_dir / "verify-cor_conv_Lp.json").read_text()
    strip = lambda t: "\n".join(l for l in t.splitlines() if '"timestamp"' not in l)
    assert strip(ta) == strip(tb)
    rep = json.loads(ta)
    assert rep["results"]["passed"]
    assert rep["results"]["c_emp"] <= 1 + 1e-9
    assert rep["seed"] == 7
    assert rep["version"]
    assert "config" in rep and "grid" in rep and "timestamp" in rep


def test_doubling_failure_exit_code(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"weight": {"family": "exponential"}}))
    r = run_cli(["doubling", "--config", str(cfg), "--out", str(tmp_path)],
                tmp_path)
    assert r.returncode == 2, r.stderr
    rep = load_report(tmp_path / "doubling.json")
    assert not rep["results"]["verdict"]["passed"]
    assert rep["results"]["verdict"]["witness"]["radii"]


def test_doubling_pass(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"weight": {"family": "shifted-power", "s": 2.0}}))
    r = run_cli(["doubling", "--config", str(cfg), "--out", str(tmp_path)],
                tmp_path)
    assert r.returncode == 0, r.stderr
    rep = load_report(tmp_path / "doubling.json")
    assert rep["results"]["verdict"]["passed"]


def test_norm_singleton_window_on_z(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "group": {"kind": "lattice", "n": 1},
        "grid": {"lo": -8, "hi": 8},
        "window": {"lo": 0, "hi": 0},
        "local": "linf",
        "component": {"type": "lp", "p": 1.0},
        "function": {"kind": "sequence", "entries": {"0": 1, "1": 1}},
    }))
    r = run_cli(["norm", "--config", str(cfg), "--out", str(tmp_path)], tmp_path)
    assert r.returncode == 0, r.stderr
    rep = load_report(tmp_path / "norm.json")
    assert rep["results"]["value"] == pytest.approx(2.0)


def test_norm_axb_n2_runs_on_its_default_grid(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"group": {"kind": "axb", "n": 2}}))
    r = run_cli(["norm", "--config", str(cfg), "--out", str(tmp_path)], tmp_path)
    assert r.returncode == 0, r.stderr
    assert load_report(tmp_path / "norm.json")["results"]["value"] > 0


def test_norm_axb_n3_default_grid_exceeds_the_stencil_budget(tmp_path):
    """80^3 x 48 grid points times the ball's 2,053 rows and one scale part:
    refused before any slide, naming both counts and the key that sets them."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"group": {"kind": "axb", "n": 3}}))
    r = run_cli(["norm", "--config", str(cfg), "--out", str(tmp_path)], tmp_path)
    assert r.returncode == 1
    assert "Traceback" not in r.stderr
    for needle in ("24,576,000 grid points", "2,054 stencil parts", "grid.x_cells"):
        assert needle in r.stderr


def test_norm_budget_is_checked_before_sampling(tmp_path, capsys, monkeypatch):
    """The grid and window alone set the stencil's size, so an over-budget
    stencil is refused before the function is sampled."""
    from wamalgam import cli

    def unreachable(*args, **kwargs):
        raise AssertionError("build_function was reached")

    monkeypatch.setattr(cli, "build_function", unreachable)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"group": {"kind": "axb", "n": 3}}))
    assert cli.main(["norm", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    for needle in ("24,576,000 grid points", "2,054 stencil parts", "grid.x_cells"):
        assert needle in err


@pytest.mark.parametrize("relation, metadata", [
    ("thm_conv_b", {"kind": "euclidean", "lo": [-16.0], "hi": [16.0], "cells": [256]}),
    ("axb_relation", {"kind": "axb", "x_lo": [-6.0], "x_hi": [6.0], "x_cells": [80],
                      "a_lo": 0.125, "a_hi": 8.0, "a_cells": 48}),
])
def test_verify_report_records_its_default_grid(tmp_path, relation, metadata):
    from wamalgam import cli

    assert cli.main(["verify", relation, "--refine", "1", "--seed", "7",
                     "--out", str(tmp_path)]) in (0, 2)
    assert load_report(tmp_path / f"verify-{relation}.json")["grid"] == metadata


def test_verify_accepts_the_rows_own_group(tmp_path):
    """A group equal to the row's own is no error, and a configured grid is
    the one the report records."""
    from wamalgam import cli

    grid = {"x_lo": -4.0, "x_hi": 4.0, "x_cells": 16, "a_lo": 0.25, "a_hi": 4.0,
            "a_cells": 8}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"group": {"kind": "axb", "n": 1}, "grid": grid,
                               "family": {"count": 2}}))
    assert cli.main(["verify", "axb_relation", "--refine", "1", "--config", str(cfg),
                     "--out", str(tmp_path)]) in (0, 2)
    rep = load_report(tmp_path / "verify-axb_relation.json")
    assert rep["grid"] == {key: [v] if key.startswith("x_") else v
                           for key, v in grid.items()} | {"kind": "axb"}


def test_config_error_exit_code(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"weight": {"family": "nonsense"}}))
    r = run_cli(["doubling", "--config", str(cfg), "--out", str(tmp_path)],
                tmp_path)
    assert r.returncode == 1, r.stderr
    assert "config.weight.family" in r.stderr


def test_malformed_json_diagnostic(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{broken")
    r = run_cli(["doubling", "--config", str(cfg), "--out", str(tmp_path)],
                tmp_path)
    assert r.returncode == 1, r.stderr
    assert "line" in r.stderr


def test_unknown_relation_usage_error(tmp_path):
    r = run_cli(["verify", "nonsense"], tmp_path)
    assert r.returncode == 2, r.stderr  # argparse usage failure


def test_refine_below_one_is_a_usage_error(tmp_path, capsys):
    from wamalgam import cli

    with pytest.raises(SystemExit) as exit_:
        cli.main(["verify", "cor_conv_Lp", "--refine", "0", "--out", str(tmp_path)])
    assert exit_.value.code == 2
    assert "--refine: expected an integer >= 1, got '0'" in capsys.readouterr().err


def test_refine_outside_verify_is_a_usage_error(tmp_path, capsys):
    from wamalgam import cli

    with pytest.raises(SystemExit) as exit_:
        cli.main(["norm", "--refine", "5", "--out", str(tmp_path)])
    assert exit_.value.code == 2
    assert "--refine" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, config, key", [
    (["verify", "cor_conv_Lp"], {"p": "abc"}, "config.p"),
    (["verify", "cor_conv_Lp"], {"p": 0}, "config.p"),
    (["norm"], {"grid": {"cells": "x"}}, "config.grid.cells"),
    (["norm"], {"group": {"n": "two"}}, "config.group.n"),
    (["doubling"], {"weight": {"family": "power", "s": "x"}}, "config.weight.s"),
    (["norm"], {"windw": 1}, "config.windw: unknown key"),
    (["doubling"], [1], "config: expected an object, got list"),
    (["verify", "cor_conv_Lp"], {"weighted": "no"}, "config.weighted"),
    (["equivalence"], {"family": {"count": 0}}, "config.family.count"),
    (["norm"], {"group": {"kind": "axb"}, "component": {"type": "lpq", "q": "x"}},
     "config.component.q"),
    (["axb", "discrete-norm"], {"q": "x"}, "config.q"),
    (["norm"], {"group": {"n": 2}, "function": {"kind": "indicator", "lo": [0],
                                                "hi": [1]}}, "config.function.lo"),
    (["norm"], {"group": {"kind": "lattice"}, "grid": {"lo": -3.7, "hi": 3.7}},
     "config.grid.lo"),
    (["verify", "thm_conv_b"], {"grid": {"lo": 16, "hi": -16, "cells": 64}},
     "config.grid: grid window is empty"),
    (["norm"], {"group": {"n": 2}, "grid": {"cells": [16, 16, 16]}},
     "config.grid.cells"),
    (["norm"], {"group": {"n": 2}, "window": {"radius": [1, 1, 1]}},
     "config.window.radius"),
    (["norm"], {"group": {"kind": "axb"}, "grid": {"x_cells": 16, "a_cells": 8},
                "function": {"kind": "sequence"}}, "config.function.kind"),
    (["norm"], {"group": {"n": 2}, "grid": {"cells": 8},
                "function": {"kind": "sequence"}}, "config.function.kind"),
    (["norm"], {"group": {"kind": "axb"}, "grid": {"x_cells": 16, "a_cells": 8},
                "window": {"radius": [0.5]}}, "config.window.radius"),
    (["verify", "axb_relation"], {"group": {"kind": "lattice"}}, "config.group.kind"),
    (["verify", "axb_relation"], {"group": {"kind": "axb", "n": 2}}, "config.group.n"),
    (["verify", "thm_conv_b"], {"group": {"kind": "axb"}}, "config.group.kind"),
    (["verify", "cor_conv_Lp"], {"grid": {"cells": 64}}, "config.grid"),
    (["verify", "cor_conv_Lp"], {"group": {"kind": "lattice"}}, "config.group"),
    (["norm"], {"group": {"kind": "axb"}, "grid": {"cells": 16}},
     "config.grid.cells: an ax+b grid reads x_lo, x_hi, x_cells, a_lo, a_hi, a_cells"),
    (["norm"], {"window": {"beta": 2}},
     "config.window.beta: a box window reads radius, lo, hi"),
    (["norm"], {"component": {"type": "lp", "q": 3}},
     "config.component.q: an lp component reads type, p, weight"),
    (["axb", "discrete-norm"], {"group": {"kind": "lattice"}},
     "config.group.kind: axb discrete-norm runs on kind 'axb', got 'lattice'"),
    (["axb", "tilde-v"], {"group": {"kind": "euclidean"}},
     "config.group.kind: axb tilde-v runs on kind 'axb', got 'euclidean'"),
    (["axb", "translation-bound"], {"group": {"kind": "lattice"}},
     "config.group.kind: axb translation-bound runs on kind 'axb', got 'lattice'"),
    (["norm"], {"function": {"kind": "indicator", "entries": {"0": 1},
                             "family": "gaussian-bumps"}},
     "config.function.entries: an indicator function reads kind, lo, hi"),
    (["convolve"], {"group": {"kind": "lattice"}, "grid": {"lo": -8, "hi": 8},
                    "f": {"kind": "sequence", "lo": 0}},
     "config.f.lo: a sequence function reads kind, entries"),
    (["convolve"], {"g": {"kind": "bumps", "entries": {"0": 1}}},
     "config.g.entries: a bumps function reads kind, family"),
    *[(["verify", "thm_conv_b"], {key: value}, f"config.{key}: verify thm_conv_b "
       "reads p, weight, group, grid, family.count")
      for key, value in (("window", {"radius": 2.0}), ("local", "l1"),
                         ("component", {"p": 3}), ("q", 2.0), ("weighted", True))],
    *[(["norm"], {key: value}, f"config.{key}: norm reads group, grid, window, "
       "local, component, function")
      for key, value in (("weight", {"family": "power", "s": 1.0}),
                         ("lattice_spacing", 0.5), ("centers", [0.0]))],
    (["convolve"], {"lattice_spacing": 0.5},
     "config.lattice_spacing: convolve reads group, grid, f, g"),
    (["verify", "thm_conv_b"], {"family": {"kind": "piecewise-constant"}},
     "config.family.kind: verify thm_conv_b reads p, weight, group, grid, "
     "family.count"),
    (["verify", "cor_conv_Lp"], {"family": {"count": 2}},
     "config.family: verify cor_conv_Lp reads p, weighted"),
    (["axb", "translation-bound"], {"y": [3.0, 4.0]},
     "config.y: expected a number or a list of 1, one per axis, got a list of 2"),
    (["axb", "translation-bound"], {"group": {"n": 2}, "y": [1.0, 1.0, 1.0]},
     "config.y: expected a number or a list of 2, one per axis, got a list of 3"),
    (["doubling"], {"weight": {"family": "table", "knots": [0, 1], "values": [1]}},
     "config.weight.values: expected a list of positive numbers, one per knot, got [1]"),
    (["doubling"], {"weight": {"family": "table", "knots": [], "values": []}},
     "config.weight.knots: expected a non-empty list of increasing numbers"),
    (["doubling"], {"weight": {"family": "table", "knots": [0], "values": []}},
     "config.weight.values: expected a list of positive numbers, one per knot, got []"),
    (["doubling"], {"weight": {"family": "table", "knots": [1, 0], "values": [1, 2]}},
     "config.weight.knots: expected a non-empty list of increasing numbers"),
    (["doubling"], {"weight": {"family": "table", "knots": [0, 1], "values": [1, 0]}},
     "config.weight.values"),
    (["doubling"], {"weight": {"family": "table", "knots": [0, 1]}},
     "config.weight.values: missing required key"),
    (["doubling"], {"weight": {"family": "power", "s": 1.0, "c": 2.0}},
     "config.weight.c: a power weight reads family, s"),
    (["doubling"], {"weight": {"family": "power"}},
     "config.weight.s: missing required key"),
    (["doubling"], {"weight": {"family": "constant", "c": -1.0}}, "config.weight.c"),
    (["norm"], {"component": {"weight": {"family": "exponential", "s": 1.0}}},
     "config.component.weight.s: an exponential weight reads family, rate"),
    (["doubling"], {"centers": []}, "config.centers: expected a non-empty list"),
    (["doubling"], {"radii": []}, "config.radii: expected a non-empty list"),
    (["axb", "discrete-norm"], {"lattice": {"j_range": [2, -2]}},
     "config.lattice.j_range: expected a list [lo, hi] of integers with lo <= hi"),
    (["axb", "tilde-v"], {"lattice": {"k_range": [3, -3]}},
     "config.lattice.k_range: expected a list [lo, hi] of integers with lo <= hi"),
    (["axb", "tilde-v"], {"lattice": {"b0": 1.0}}, "config.lattice.b0"),
    (["norm"], {"group": {"kind": "axb", "n": 2}, "function": {"kind": "bumps"}},
     "config.function.kind: a bumps function does not sample config.group.kind 'axb' "
     "with n = 2"),
    (["equivalence"], {"group": {"kind": "axb"}},
     "config.group.kind: equivalence runs on kind 'euclidean', got 'axb'"),
    (["equivalence"], {"family": {"kind": "atom-cloud"}},
     "config.family.kind: family 'atom-cloud' draws measures, not functions"),
    (["norm"], {"window": {"radius": 1, "lo": 0}},
     "config.window.lo: a box window reads radius, or lo and hi, not both"),
    (["verify", "cor_conv_Lp"], {"p": "inf"},
     "config.p: expected a finite positive number, got 'inf'"),
    *[(argv, {"component": {"type": "lpq"}}, "config.component.type: mixed-norm "
       "components require config.group.kind 'axb', got 'euclidean'")
      for argv in (["norm"], ["equivalence"])],
    (["norm"], {"group": {"kind": "lattice"}, "component": {"type": "lpq"}},
     "config.component.type: mixed-norm components require config.group.kind 'axb', "
     "got 'lattice'"),
    (["doubling"], {"group": {"n": 3}},
     "config.group.n: expected n = 1 or 2, where ball integrals run, got 3"),
    *[(["axb", sub], {"group": {"kind": "axb", "n": 3}},
       "config.group.n: expected n = 1 or 2, where ball integrals run, got 3")
      for sub in ("tilde-v", "discrete-norm")],
    *[(argv, {"group": {"n": 3}}, "config.grid: control function: 134,217,728 grid "
       "points times 1 stencil parts exceed the budget of 100,000,000; lower "
       "config.grid.cells") for argv in (["norm"], ["equivalence"])],
    (["norm"], {"group": {"kind": "axb"}, "grid": {"x_lo": -1e308, "x_hi": 1e308}},
     "config.grid: grid window is too wide: x_hi - x_lo overflows"),
    (["norm"], {"grid": {"lo": -1e308, "hi": 1e308}},
     "config.grid: grid window is too wide: hi - lo overflows"),
    (["doubling"], {"weight": {"family": "power", "s": -1}},
     "config.weight: ball integral of weight power over ball([0.0], 0.5) does not "
     "converge"),
    (["axb", "tilde-v"], {"weight": {"family": "power", "s": -3}},
     "config.weight: ball integral of weight power over ball([-4.0], 4.0) does not "
     "converge"),
    (["verify", "axb_relation"], {"weight": {"family": "exponential"}},
     "config.weight: weight failed doubling certification"),
    (["norm"], {"group": {"n": 2}, "grid": {"lo": -1e200, "hi": 1e200, "cells": 64}},
     "config.grid: grid window is too wide: the cell volume"),
    (["norm"], {"group": {"kind": "axb", "n": 2},
                "grid": {"x_lo": -1e200, "x_hi": 1e200}},
     "config.grid: grid window is too wide: the cell volume"),
])
def test_bad_config_names_the_key(tmp_path, capsys, monkeypatch, argv, config, key):
    """Bad values, unknown keys and over-budget grids exit 1 with their key
    path, before a command builds a BUPU or samples anything."""
    from wamalgam import cli

    def unreachable(*args, **kwargs):
        raise AssertionError("build_bupu was reached")

    # a 512^3 BUPU would take 8 GiB
    monkeypatch.setattr(cli, "build_bupu", unreachable)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert cli.main([*argv, "--config", str(cfg), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err and err.count("\n") == 1
    assert [path.name for path in tmp_path.iterdir()] == ["cfg.json"]


def test_axb_translation_bound(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"y": [0.0], "b": 2.0, "p": 1.0, "q": 1.0,
                               "alpha": 1.0}))
    r = run_cli(["axb", "translation-bound", "--config", str(cfg),
                 "--out", str(tmp_path)], tmp_path)
    assert r.returncode == 0, r.stderr
    rep = load_report(tmp_path / "axb-translation-bound.json")
    assert rep["results"]["value"] == pytest.approx(4.0)


def test_config_table_matches_the_parser_and_readme():
    """The config table has one row per command and subcommand of the
    parser, and README's command table lists each row's sections and fixed
    group values."""
    import re

    from wamalgam import cli
    from wamalgam.config import COMMANDS

    parser = cli.build_parser()
    [subparsers] = [a for a in parser._actions if a.dest == "command"]
    commands = set()
    for name, sub in subparsers.choices.items():
        [choices] = [a.choices for a in sub._actions if not a.option_strings] or [None]
        commands |= {f"{name} {choice}" for choice in choices} if choices else {name}
    assert set(COMMANDS) == commands - {"report"}
    for name, relation in cli.RELATIONS.items():
        group = relation.grid.group if relation.grid else None
        assert COMMANDS[f"verify {name}"][1] == (
            {"kind": group.kind, "n": group.n} if group else {})
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `([^`]+)` \| (.+) \| (.+) \|$", readme, re.MULTILINE)
    assert {command: (tuple(re.findall(r"`([^`]+)`", reads)), runs_on)
            for command, reads, runs_on in rows} == {
        command: (reads, ", ".join(f"{k} {v!r}" for k, v in fixed.items()) or "any")
        for command, (reads, fixed) in COMMANDS.items()}


def test_config_forms_match_their_builders():
    """A weight form reads its family's parameters, and a grid form the
    keys of its defaults."""
    import inspect

    from wamalgam import cli
    from wamalgam.components import WEIGHT_FAMILIES
    from wamalgam.config import SECTIONS

    weights = SECTIONS["weight"].forms
    assert set(weights) == set(WEIGHT_FAMILIES)
    for family, form in weights.items():
        params = inspect.signature(WEIGHT_FAMILIES[family]).parameters
        assert list(form.keys) == ["family", *params]
        assert set(form.required) == {k for k, v in params.items()
                                      if v.default is inspect.Parameter.empty}
    grids = SECTIONS["grid"].forms
    assert {kind: set(form.keys) for kind, form in grids.items()} == {
        kind: set(defaults) for kind, (_, defaults) in cli.GRIDS.items()}


def test_axb_translation_bound_reads_a_number_on_every_axis(tmp_path):
    """At n = 2 a number y is the point (y, y)."""
    from wamalgam import cli

    values = []
    for y in (1.0, [1.0, 1.0]):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"group": {"kind": "axb", "n": 2}, "y": y}))
        assert cli.main(["axb", "translation-bound", "--config", str(cfg),
                         "--out", str(tmp_path)]) == 0
        values.append(load_report(tmp_path / "axb-translation-bound.json")
                      ["results"]["value"])
    assert values[0] == values[1] == pytest.approx(1.0 + 2**0.5)


def test_axb_tilde_v_csv(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "grid": {"x_lo": -4, "x_hi": 4, "x_cells": 32, "a_lo": 0.25,
                 "a_hi": 4.0, "a_cells": 16},
        "lattice": {"a0": 1.0, "b0": 2.0, "k_range": [-2, 2],
                    "j_range": [0, 1]},
    }))
    r = run_cli(["axb", "tilde-v", "--config", str(cfg), "--out",
                 str(tmp_path)], tmp_path)
    assert r.returncode == 0, r.stderr
    lines = (tmp_path / "axb-tilde-v.csv").read_text().strip().splitlines()
    assert lines[0] == "k,j,x,a,value"
    assert len(lines) == 1 + 10  # 5 spatial points on each of 2 levels


def test_convolve_csv(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "group": {"kind": "lattice", "n": 1},
        "grid": {"lo": -8, "hi": 8},
        "f": {"kind": "sequence", "entries": {"0": 1, "1": 1}},
        "g": {"kind": "sequence", "entries": {"0": 1, "1": 1}},
    }))
    r = run_cli(["convolve", "--config", str(cfg), "--out", str(tmp_path)],
                tmp_path)
    assert r.returncode == 0, r.stderr
    lines = (tmp_path / "convolve.csv").read_text().strip().splitlines()
    assert lines[0] == "x0,re,im"
    values = {float(l.split(",")[0]): float(l.split(",")[1]) for l in lines[1:]}
    assert values[0.0] == 1.0 and values[1.0] == 2.0 and values[2.0] == 1.0


def test_report_roundtrip(tmp_path):
    r0 = run_cli(["verify", "cor_conv_Lp", "--seed", "1", "--out", str(tmp_path)],
                 tmp_path)
    assert r0.returncode == 0, r0.stderr
    r = run_cli(["report", str(tmp_path / "verify-cor_conv_Lp.json")], tmp_path)
    assert r.returncode == 0, r.stderr
    assert "command: verify" in r.stdout


def test_equivalence_sweep(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "grid": {"lo": -12, "hi": 12, "cells": 384},
        "component": {"type": "lp", "p": 0.5},
        "family": {"count": 12},
    }))
    r = run_cli(["equivalence", "--config", str(cfg), "--seed", "3",
                 "--out", str(tmp_path)], tmp_path)
    assert r.returncode == 0, r.stderr
    rep = load_report(tmp_path / "equivalence.json")
    assert rep["results"]["bracket_constant"] <= 10.0


@pytest.mark.parametrize("relation", ["thm_conv_a", "thm_conv_b", "thm_convYvee"])
def test_verify_general_relations(tmp_path, relation):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "grid": {"lo": -12.0, "hi": 12.0, "cells": 192},
        "family": {"count": 4},
        "p": 1.0,
    }))
    r = run_cli(["verify", relation, "--config", str(cfg), "--seed", "5",
                 "--refine", "2", "--out", str(tmp_path)], tmp_path)
    assert r.returncode == 0, r.stderr
    rep = load_report(tmp_path / f"verify-{relation}.json")
    assert rep["results"]["passed"]
    assert len(rep["results"]["refinement_trace"]) == 2


def test_csv_format_flattens_results(tmp_path):
    r = run_cli(["verify", "cor_conv_Lp", "--seed", "2", "--format", "csv",
                 "--out", str(tmp_path)], tmp_path)
    assert r.returncode == 0, r.stderr
    lines = (tmp_path / "verify-cor_conv_Lp.csv").read_text().splitlines()
    assert lines[0] == "key,value"
    keys = {l.split(",")[0] for l in lines[1:]}
    assert "results.c_emp" in keys and "results.passed" in keys


def test_verify_axb_relation(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "grid": {"x_lo": -5.0, "x_hi": 5.0, "x_cells": 48, "a_lo": 0.2,
                 "a_hi": 5.0, "a_cells": 28},
        "family": {"count": 2},
        "p": 1.0, "q": 1.0,
    }))
    r = run_cli(["verify", "axb_relation", "--config", str(cfg), "--seed", "4",
                 "--refine", "1", "--out", str(tmp_path)], tmp_path)
    assert r.returncode == 0, r.stderr
    rep = load_report(tmp_path / "verify-axb_relation.json")
    assert rep["results"]["passed"]
    assert rep["results"]["relation"] == "axb_relation"


def test_report_refuses_non_finite_values(tmp_path):
    from wamalgam.cli import finalize_report
    from wamalgam.errors import NonFiniteSampleError

    results = {"lower": 1.5, "bound": {"upper": float("inf")}}
    with pytest.raises(NonFiniteSampleError, match=r"results\.bound\.upper"):
        finalize_report("estimate", {}, 7, None, results, tmp_path)
    assert not (tmp_path / "estimate.json").exists()


def test_non_finite_report_exits_1_without_traceback(tmp_path, monkeypatch, capsys):
    from wamalgam import cli

    def nan_command(cfg, args):
        cli.finalize_report("doubling", cfg, args.seed, None,
                            {"verdict": {"c": float("nan")}}, args.out)
        return 0

    monkeypatch.setattr(cli, "cmd_doubling", nan_command)
    assert cli.main(["doubling", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "results.verdict.c" in err and "Traceback" not in err



@pytest.mark.parametrize("extra", [
    {},
    {"function": {"kind": "indicator", "lo": 0, "hi": 1}},
    {"function": {"kind": "indicator", "lo": [0, 0], "hi": [1, 1]}},
    {"window": {"lo": -0.5, "hi": 0.5}},
    {"window": {"lo": [-0.5, -0.5], "hi": [0.5, 0.5]}},
])
def test_numbers_hold_on_every_axis_of_the_plane(tmp_path, extra):
    """A number as an indicator or window bound holds on every axis."""
    from wamalgam import cli

    cfg = tmp_path / "plane.json"
    cfg.write_text(json.dumps({"group": {"n": 2},
                               "grid": {"lo": -4, "hi": 4, "cells": 16}, **extra}))
    assert cli.main(["norm", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    # the indicator of [0, 1]^2 holds 2x2 cell midpoints at spacing 1/2; its
    # control function for the box of radius 1/2 is 1 on the 4x4 midpoints
    # within 1/2 of them, of area 1/4 each
    assert load_report(tmp_path / "norm.json")["results"]["value"] == 4.0


def test_equivalence_on_the_plane(tmp_path):
    cfg = tmp_path / "plane.json"
    cfg.write_text(json.dumps({"group": {"kind": "euclidean", "n": 2},
                               "grid": {"lo": -6, "hi": 6, "cells": 48},
                               "family": {"count": 3}}))
    r = run_cli(["equivalence", "--config", str(cfg), "--seed", "7",
                 "--out", str(tmp_path)], tmp_path)
    assert r.returncode == 0, r.stderr
    rep = load_report(tmp_path / "equivalence.json")
    assert rep["grid"]["cells"] == [48, 48]
    assert rep["results"]["family_size"] == 3
    assert rep["results"]["bracket_constant"] >= 1.0


@pytest.mark.parametrize("family, message", [
    ("piecewise-constant", "config.family.kind: family 'piecewise-constant' is "
                           "one-dimensional, but config.group.n is 2"),
    ("no-such-family", "config.family.kind: unknown family 'no-such-family'"),
])
def test_equivalence_family_errors_name_the_key(tmp_path, family, message):
    cfg = tmp_path / "plane.json"
    cfg.write_text(json.dumps({"group": {"kind": "euclidean", "n": 2},
                               "grid": {"lo": -6, "hi": 6, "cells": 48},
                               "family": {"count": 3, "kind": family}}))
    r = run_cli(["equivalence", "--config", str(cfg), "--out", str(tmp_path)],
                tmp_path)
    assert r.returncode == 1
    assert message in r.stderr and "Traceback" not in r.stderr


def test_n_dimensional_families_take_n():
    import inspect

    from wamalgam.families import FAMILY_BUILDERS, N_DIMENSIONAL_FAMILIES

    assert N_DIMENSIONAL_FAMILIES == {
        kind for kind, builder in FAMILY_BUILDERS.items()
        if "n" in inspect.signature(builder).parameters}


def test_measure_families_draw_measures():
    from wamalgam.families import (FAMILY_BUILDERS, MEASURE_FAMILIES, MeasureSpec,
                                   generator)

    assert MEASURE_FAMILIES == {kind for kind, builder in FAMILY_BUILDERS.items()
                                if isinstance(builder(generator(0)), MeasureSpec)}


def _bumps_config(tmp_path, command, group, family=None):
    """A config of ``command`` whose functions are all ``bumps``."""
    bumps = {"kind": "bumps"}
    if family is not None:
        bumps["family"] = family
    grid = {"x_cells": 16, "a_cells": 8} if group["kind"] == "axb" else {"cells": 16}
    keys = ("function",) if command == "norm" else ("f", "g")
    cfg = tmp_path / "bumps.json"
    cfg.write_text(json.dumps({"group": group, "grid": grid} | dict.fromkeys(keys, bumps)))
    return cfg


@pytest.mark.parametrize("command", ["norm", "convolve"])
@pytest.mark.parametrize("group, samples", [
    pytest.param({"kind": "euclidean", "n": 2}, 16 * 16, id="plane"),
    pytest.param({"kind": "axb", "n": 1}, 16 * 8, id="axb"),
])
def test_bumps_function_on_its_group(tmp_path, command, group, samples):
    """A ``bumps`` function is drawn in the group's dimension: the default
    family on the plane (16² grid) and on ax+b."""
    from wamalgam import cli

    cfg = _bumps_config(tmp_path, command, group)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        assert cli.main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 0
    results = load_report(tmp_path / f"{command}.json")["results"]
    if command == "norm":
        assert results["value"] > 0
    else:
        assert results["samples"] == samples and results["max_abs"] > 0


@pytest.mark.parametrize("command, key", [("norm", "function"), ("convolve", "f")])
@pytest.mark.parametrize("group, family, message", [
    pytest.param({"kind": "euclidean", "n": 2}, "piecewise-constant",
                 "family 'piecewise-constant' is one-dimensional, "
                 "but config.group.n is 2", id="plane-one-dimensional"),
    pytest.param({"kind": "euclidean", "n": 2}, "no-such-family",
                 "unknown family 'no-such-family'", id="plane-unknown"),
    pytest.param({"kind": "axb", "n": 1}, "gaussian-bumps",
                 "family 'gaussian-bumps' does not sample config.group.kind 'axb'",
                 id="axb-gaussian-bumps"),
    pytest.param({"kind": "euclidean", "n": 1}, "atom-cloud",
                 "family 'atom-cloud' draws measures, not functions",
                 id="line-measures"),
])
def test_bumps_family_errors_name_the_key(tmp_path, capsys, command, key, group,
                                          family, message):
    from wamalgam import cli

    cfg = _bumps_config(tmp_path, command, group, family)
    assert cli.main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert f"config.{key}.family: {message}" in capsys.readouterr().err
