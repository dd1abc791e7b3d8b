"""CLI behavior: determinism, exit codes, report schema."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import wamalgam
from conftest import child_env


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


def test_axb_translation_bound(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"y": [0.0], "b": 2.0, "p": 1.0, "q": 1.0,
                               "alpha": 1.0}))
    r = run_cli(["axb", "translation-bound", "--config", str(cfg),
                 "--out", str(tmp_path)], tmp_path)
    assert r.returncode == 0, r.stderr
    rep = load_report(tmp_path / "axb-translation-bound.json")
    assert rep["results"]["value"] == pytest.approx(4.0)


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


def test_axb_verify_subcommand(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "grid": {"x_lo": -5.0, "x_hi": 5.0, "x_cells": 48, "a_lo": 0.2,
                 "a_hi": 5.0, "a_cells": 28},
        "family": {"count": 2},
        "p": 1.0, "q": 1.0,
    }))
    r = run_cli(["axb", "verify", "--config", str(cfg), "--seed", "4",
                 "--refine", "1", "--out", str(tmp_path)], tmp_path)
    assert r.returncode == 0, r.stderr
    rep = load_report(tmp_path / "axb-verify.json")
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
