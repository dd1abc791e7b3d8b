"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single pass line (visible with ``pytest -s`` or in the
captured-output section) and asserts its runtime budget.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import child_env
from wamalgam import (
    AmalgamSpace,
    AxbGrid,
    AxbWindow,
    BoxWindow,
    DiscreteSequence,
    MixedLpq,
    SampledFunction,
    UniformGrid,
    WeightedLp,
    amalgam_norm,
    build_axb_lattice,
    build_bupu,
    check_doubling,
    compute_ball_weights,
    constant_weight,
    demonstrate_lp_failure,
    discrete_amalgam_norm,
    euclidean_lattice,
    exponential_weight,
    generator,
    is_overflow,
    lpq_discrete_norm,
    p_exponent_from_quasi_constant,
    power_weight,
    quasi_constant_from_p_exponent,
    quasi_norm,
    sequence_norm,
    shifted_power_weight,
    verify_axb_convolution,
)
from wamalgam.families import axb_bump_sum, gaussian_bump_sum
from wamalgam.relations import exhaustive_lp_algebra


def _report(number, budget, elapsed, detail=""):
    line = f"[criterion {number:2d}] PASS in {elapsed:6.2f}s (budget {budget}s)"
    if detail:
        line += f"  {detail}"
    print(line)
    assert elapsed < budget


def test_criterion_01_discrete_reduction_exactness(z_grid):
    start = time.time()
    rng = generator(101)
    weights = [None, shifted_power_weight(1.0)]
    for p in (0.5, 1.0, 2.0):
        for w in weights:
            Y = WeightedLp(p, w)
            for _ in range(100):
                values = np.zeros(z_grid.shape)
                support = rng.integers(-10, 11, rng.integers(1, 8))
                values[support + 16] = rng.uniform(-3, 3, len(support))
                F = SampledFunction(z_grid, values)
                for local in ("linf", "l1", "m"):
                    got = amalgam_norm(F, BoxWindow.origin(1), local, Y)
                    want = quasi_norm(Y, F)
                    assert got == pytest.approx(want, rel=1e-12)
    _report(1, 5, time.time() - start)


def test_criterion_02_lp_algebra_exhaustive():
    start = time.time()
    checked = 0
    for p in (0.5, 1.0):
        for weighted in (False, True):
            rec = exhaustive_lp_algebra(p, weighted)
            assert rec["violations"] == 0
            checked += rec["pairs_checked"]
    _report(2, 60, time.time() - start, f"{checked} pairs, zero violations")


def test_criterion_03_norm_equivalence_bracket(line_grid):
    start = time.time()
    X = euclidean_lattice(line_grid, 1.0)
    bupu = build_bupu(X, BoxWindow.centered(1.0, 1), grid=line_grid)
    window = BoxWindow.centered(0.5, 1)
    details = []
    for Y in (WeightedLp(0.5), WeightedLp(1.0, shifted_power_weight(1.0))):
        rng = generator(103)
        ratios = []
        for _ in range(200):
            F = gaussian_bump_sum(rng).sample(line_grid)
            cont = amalgam_norm(F, window, "linf", Y)
            disc = discrete_amalgam_norm(F, bupu, "linf", Y)
            ratios.append(disc / cont)
        ratios = np.asarray(ratios)
        c200 = max(ratios.max(), 1.0 / ratios.min())
        assert c200 <= 10.0
        more = []
        for _ in range(200):
            F = gaussian_bump_sum(rng).sample(line_grid)
            cont = amalgam_norm(F, window, "linf", Y)
            disc = discrete_amalgam_norm(F, bupu, "linf", Y)
            more.append(disc / cont)
        all_ratios = np.concatenate([ratios, more])
        c400 = max(all_ratios.max(), 1.0 / all_ratios.min())
        assert abs(c400 - c200) < 0.10 * c200
        details.append(f"{Y.describe()}: C*={c200:.3f}")
    _report(3, 120, time.time() - start, "; ".join(details))


def test_criterion_04_window_independence(line_grid):
    start = time.time()
    Q1 = BoxWindow.centered(0.25, 1)
    Q2 = BoxWindow.centered(1.0, 1)
    for p in (0.5, 1.0):
        Y = WeightedLp(p)
        bound = 4.0 ** (1.0 / p)
        rng = generator(104)
        for _ in range(100):
            F = gaussian_bump_sum(rng).sample(line_grid)
            n1 = amalgam_norm(F, Q1, "linf", Y)
            n2 = amalgam_norm(F, Q2, "linf", Y)
            ratio = n2 / n1
            assert 1.0 - 1e-9 <= ratio <= bound * (1 + 1e-9)
    _report(4, 60, time.time() - start)


def test_criterion_05_doubling_classifier():
    start = time.time()
    centers = [0.0, 1.5, -3.0]
    radii = [0.5, 1.0, 2.0, 4.0]
    for weight in (constant_weight(1.0), power_weight(0.5), power_weight(1.0),
                   shifted_power_weight(2.0), shifted_power_weight(-2.0)):
        rec = check_doubling(weight, centers, radii)
        assert rec["passed"], weight.name
    rec = check_doubling(exponential_weight(), [0.0, 2.0], [1.0, 2.0])
    assert not rec["passed"] and rec["witness"]["radii"]
    alphas = []
    for n in (1, 2):
        rec = check_doubling(constant_weight(1.0),
                             [np.zeros(n), np.full(n, 1.0)], radii)
        assert abs(rec["alpha"] - n) <= 0.05
        alphas.append(rec["alpha"])
    _report(5, 30, time.time() - start,
            f"alpha(1)={alphas[0]:.3f}, alpha(2)={alphas[1]:.3f}")


def test_criterion_06_axb_discrete_norm(axb, axb_grid):
    start = time.time()
    lattice = build_axb_lattice(0.5, 2.0, j_range=(-2, 2), grid=axb_grid,
                                x_extent=6.0)
    U1, U2 = AxbWindow(1.0, 2.0), AxbWindow(2.0, 4.0)
    details = []
    for weight in (None, shifted_power_weight(2.0)):
        v = weight if weight is not None else constant_weight(1.0)
        cert = check_doubling(v, [0.0, 1.5, -3.0], [0.25, 0.5, 1.0, 2.0])
        assert cert["passed"]
        c, alpha = cert["c"], cert["alpha"]
        table = compute_ball_weights(v, lattice)
        for p, q in ((1.0, 1.0), (0.5, 1.0), (1.0, math.inf)):
            Y = MixedLpq(p, q, weight, n=1)
            rng = generator(106)
            r1, r2 = [], []
            for _ in range(50):
                lam = np.abs(rng.standard_normal(len(lattice)))
                display = lpq_discrete_norm(lam, table, p, q)
                n1 = sequence_norm(DiscreteSequence(lam, lattice, Y, U1),
                                   axb_grid)
                n2 = sequence_norm(DiscreteSequence(lam, lattice, Y, U2),
                                   axb_grid)
                r1.append(n1 / display)
                r2.append(n2 / display)
            r1, r2 = np.asarray(r1), np.asarray(r2)
            # both brackets are finite and tame
            assert max(r1.max() / r1.min(), r2.max() / r2.min()) <= 10.0
            # drift between the two windows: the doubling factor
            # (c (s/r)^alpha)^{1/p} governs the weight content; the window
            # geometry contributes an exactly computable factor independent
            # of v (scale-cell Haar mass for finite q, level multiplicity
            # of overlapping scale bands for the sup norm)
            if q == math.inf:
                geometry = np.log(4.0) / np.log(2.0)
            else:
                geometry = (((4.0 - 0.25) / (2.0 - 0.5))) ** (1.0 / q)
            allowed = (c * 2.0**alpha) ** (1.0 / p) * geometry
            drift = float((r2 / r1).max())
            assert drift <= allowed * (1 + 1e-6)
            details.append(f"p={p},q={q},v={v.name}: drift {drift:.2f}"
                           f" <= {allowed:.2f}")
    _report(6, 120, time.time() - start, "; ".join(details[:2]) + ", ...")


def test_criterion_07_axb_convolution_relation(axb_grid):
    start = time.time()
    traces = []
    for weight in (constant_weight(1.0), shifted_power_weight(1.0)):
        rng = generator(107)
        left = [axb_bump_sum(rng) for _ in range(4)]
        right = [axb_bump_sum(rng) for _ in range(4)]
        report = verify_axb_convolution(weight, 1.0, 1.0, left, right,
                                        grid=axb_grid, levels=2)
        assert np.isfinite(report.c_emp) and report.c_emp > 0
        t = report.refinement_trace
        assert abs(t[1] - t[0]) <= 0.25 * t[0]
        traces.append(f"{weight.name}: C_emp={t[0]:.3f}->{t[1]:.3f}")
    _report(7, 180, time.time() - start, "; ".join(traces))


def test_criterion_08_lp_failure_demo():
    start = time.time()
    rep = demonstrate_lp_failure()
    assert abs(rep["lp_norm"] - 16.0) <= 0.16
    assert all(g >= 1.8 for g in rep["convolution_growth"])
    assert len(rep["convolution_growth"]) == 3
    assert is_overflow(rep["amalgam_norm"])
    _report(8, 30, time.time() - start,
            f"L^(1/2) norm {rep['lp_norm']:.3f}, growth "
            f"{[round(g, 2) for g in rep['convolution_growth']]}")


def test_criterion_09_p_exponent_and_r_triangle(line_grid, axb_grid):
    start = time.time()
    for p in (0.3, 0.5, 0.7, 1.0):
        C = quasi_constant_from_p_exponent(p)
        assert abs(p_exponent_from_quasi_constant(C) - p) <= 1e-12
    components = [
        WeightedLp(0.5), WeightedLp(1.0), WeightedLp(2.0),
        WeightedLp(1.0, shifted_power_weight(1.0)),
        WeightedLp(0.5, shifted_power_weight(2.0)),
        MixedLpq(1.0, 1.0, n=1), MixedLpq(0.5, 1.0, n=1),
        MixedLpq(1.0, math.inf, n=1),
    ]
    rng = generator(109)
    for component in components:
        r = component.p_exponent
        grid = axb_grid if isinstance(component, MixedLpq) else line_grid
        for _ in range(100):
            F = SampledFunction(grid, rng.standard_normal(grid.shape))
            G = SampledFunction(grid, rng.standard_normal(grid.shape))
            nf, ng = quasi_norm(component, F), quasi_norm(component, G)
            nfg = quasi_norm(component, F + G)
            assert nfg**r <= (nf**r + ng**r) * (1 + 1e-10)
    _report(9, 30, time.time() - start)


def test_criterion_10_cli_determinism(tmp_path):
    start = time.time()
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        proc = subprocess.run(
            [sys.executable, "-m", "wamalgam", "verify", "cor_conv_Lp",
             "--seed", "7", "--out", str(out)],
            capture_output=True, text=True, cwd=tmp_path, env=child_env())
        assert proc.returncode == 0, proc.stderr
        outs.append((out / "verify-cor_conv_Lp.json").read_text())
    strip = lambda t: "\n".join(l for l in t.splitlines()
                                if '"timestamp"' not in l)
    assert strip(outs[0]) == strip(outs[1])
    assert json.loads(outs[0])["results"]["c_emp"] <= 1 + 1e-9
    _report(10, 60, time.time() - start)
