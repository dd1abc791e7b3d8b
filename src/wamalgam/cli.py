"""Batch front-end: config-driven computations with JSON/CSV reports.

Commands: norm, doubling, equivalence, convolve, verify, axb, report.
Configs are JSON; every report embeds the exact config used, the grid
metadata, the seed, and the library version, and is serialized with
sorted keys so that identical configs and seeds give byte-identical
output up to the timestamp field. Exit status: 0 on pass, 2 when a
property check reports a failure verdict, 1 on usage or config errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .amalgam import AmalgamSpace, amalgam_norm, discrete_amalgam_norm
from .axb import (
    compute_ball_weights,
    lpq_discrete_norm,
    right_translation_bound,
    verify_axb_convolution,
)
from .components import (
    MixedLpq,
    WeightedLp,
    WEIGHT_FAMILIES,
    check_doubling,
    is_overflow,
)
from .convolution import (
    convolve,
    space_norm,
    reflected_space_norm,
    verify_embedding,
)
from .discretization import build_axb_lattice, build_bupu, euclidean_lattice
from .errors import ConfigError, NonFiniteSampleError, WamalgamError
from .families import (
    FAMILY_BUILDERS,
    N_DIMENSIONAL_FAMILIES,
    build_family,
    delta_comb,
    generator,
)
from .groups import (
    AxbGrid,
    AxbGroup,
    Euclidean,
    IntegerLattice,
    LatticeGrid,
    SampledFunction,
    UniformGrid,
)
from .windows import AxbWindow, BoxWindow

RELATIONS = ("cor_conv_Lp", "thm_conv_a", "thm_conv_b", "thm_convYvee",
             "axb_relation")
AXB_SUBCOMMANDS = ("tilde-v", "discrete-norm", "translation-bound", "verify")


# ---------------------------------------------------------------------------
# Config handling


def _get(cfg, path, default=None, required=False, kind=None):
    node = cfg
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            if required:
                raise ConfigError(f"config.{path}: missing required key")
            return default
        node = node[part]
    if kind is not None and not isinstance(node, kind):
        raise ConfigError(
            f"config.{path}: expected {getattr(kind, '__name__', kind)}, "
            f"got {type(node).__name__}"
        )
    return node


def build_group(cfg):
    kind = _get(cfg, "group.kind", "euclidean")
    n = int(_get(cfg, "group.n", 1))
    if kind == "euclidean":
        return Euclidean(n)
    if kind == "lattice":
        return IntegerLattice(n)
    if kind == "axb":
        return AxbGroup(n)
    raise ConfigError(f"config.group.kind: unknown kind {kind!r}")


def build_grid(cfg, group):
    g = _get(cfg, "grid", {}, kind=dict)
    try:
        if isinstance(group, Euclidean):
            return UniformGrid(group, g.get("lo", -8.0), g.get("hi", 8.0),
                               g.get("cells", 512))
        if isinstance(group, IntegerLattice):
            return LatticeGrid(group, g.get("lo", -16), g.get("hi", 16))
        return AxbGrid(group, g.get("x_lo", -6.0), g.get("x_hi", 6.0),
                       g.get("x_cells", 80), g.get("a_lo", 0.125),
                       g.get("a_hi", 8.0), g.get("a_cells", 48))
    except WamalgamError as exc:
        raise ConfigError(f"config.grid: {exc}") from exc


def build_window(cfg, group, key="window"):
    w = _get(cfg, key, {}, kind=dict)
    try:
        if isinstance(group, AxbGroup):
            return AxbWindow(w.get("radius", 0.5), w.get("beta", 1.5))
        if "lo" in w or "hi" in w:
            lo = np.atleast_1d(w.get("lo", 0.0)).astype(float)
            hi = np.atleast_1d(w.get("hi", 1.0)).astype(float)
            return BoxWindow(tuple(lo), tuple(hi))
        return BoxWindow.centered(w.get("radius", 0.5), group.n)
    except WamalgamError as exc:
        raise ConfigError(f"config.{key}: {exc}") from exc


def build_weight(cfg, key="weight"):
    w = _get(cfg, key, None)
    if w is None:
        return None
    family = _get({key: w}, f"{key}.family", required=True)
    if family not in WEIGHT_FAMILIES:
        raise ConfigError(f"config.{key}.family: unknown family {family!r}; "
                          f"choose from {sorted(WEIGHT_FAMILIES)}")
    params = {k: v for k, v in w.items() if k != "family"}
    try:
        return WEIGHT_FAMILIES[family](**params)
    except TypeError as exc:
        raise ConfigError(f"config.{key}: bad parameters for {family}: {exc}")


def build_component(cfg, group, key="component"):
    c = _get(cfg, key, {}, kind=dict)
    ctype = c.get("type", "lp")
    weight = build_weight({key: c.get("weight")}, key) if c.get("weight") else None
    if ctype == "lp":
        p = c.get("p", 1.0)
        p = math.inf if p in ("inf", "Infinity") else float(p)
        return WeightedLp(p, weight)
    if ctype == "lpq":
        q = c.get("q", 1.0)
        q = math.inf if q in ("inf", "Infinity") else float(q)
        return MixedLpq(float(c.get("p", 1.0)), q, weight,
                        n=group.n if isinstance(group, AxbGroup) else 1)
    raise ConfigError(f"config.{key}.type: unknown component type {ctype!r}")


def build_family_on(cfg, group, count, seed):
    """``count`` specs of the config's ``family.kind`` on R^n or Z^n, n = group.n."""
    kind = _get(cfg, "family.kind", "gaussian-bumps")
    if kind not in FAMILY_BUILDERS:
        raise ConfigError(f"config.family.kind: unknown family {kind!r}; "
                          f"choose from {sorted(FAMILY_BUILDERS)}")
    if kind in N_DIMENSIONAL_FAMILIES:
        return build_family(kind, count, seed, n=group.n)
    if group.n != 1:
        raise ConfigError(f"config.family.kind: family {kind!r} is one-dimensional, "
                          f"but config.group.n is {group.n}")
    return build_family(kind, count, seed)


def build_function(cfg, grid, seed, key="function"):
    f = _get(cfg, key, {}, kind=dict)
    kind = f.get("kind", "indicator")
    if kind == "indicator":
        lo = np.atleast_1d(f.get("lo", 0.0)).astype(float)
        hi = np.atleast_1d(f.get("hi", 1.0)).astype(float)

        def fn(*coords):
            mask = np.ones(np.broadcast_shapes(*[np.shape(c) for c in coords]),
                           dtype=bool)
            for axis, coord in enumerate(coords):
                mask = mask & (coord >= lo[axis]) & (coord <= hi[axis])
            return mask.astype(float)

        return SampledFunction.sample(grid, fn)
    if kind == "sequence":
        entries = f.get("entries", {"0": 1.0})
        spec = delta_comb({int(k): float(v) for k, v in entries.items()})
        return spec.sample(grid)
    if kind == "bumps":
        family = f.get("family", "gaussian-bumps")
        spec = build_family(family, 1, seed)[0]
        return spec.sample(grid)
    raise ConfigError(f"config.{key}.kind: unknown function kind {kind!r}")


# ---------------------------------------------------------------------------
# Reports


def finalize_report(command, cfg, seed, grid, results, out_dir, name=None,
                    fmt="json"):
    report = {
        "command": command,
        "config": cfg,
        "seed": seed,
        "version": __version__,
        "grid": grid.metadata() if grid is not None else None,
        "results": results,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{name or command}.json"
    path.write_text(_dumps_report(report) + "\n")
    if fmt == "csv":
        rows = sorted(_flatten("results", results))
        write_csv(out_dir / f"{name or command}.csv", ["key", "value"], rows)
    return report, path


def _dumps_report(report):
    """The report as JSON; a non-finite float raises, naming its key path."""
    try:
        return json.dumps(report, sort_keys=True, indent=2, default=_json_default,
                          allow_nan=False)
    except ValueError:
        for key in sorted(report):
            for path, value in _flatten(key, report[key]):
                arr = np.asarray(value)
                if arr.dtype.kind in "fc" and not np.all(np.isfinite(arr)):
                    raise NonFiniteSampleError(
                        f"{path}: non-finite value {value} has no JSON form"
                    ) from None
        raise


def _flatten(prefix, node):
    if isinstance(node, dict):
        for k in sorted(node):
            yield from _flatten(f"{prefix}.{k}", node[k])
    elif isinstance(node, (list, tuple)):
        for i, v in enumerate(node):
            yield from _flatten(f"{prefix}[{i}]", v)
    else:
        yield (prefix, "OVERFLOW" if is_overflow(node) else node)


def _json_default(obj):
    if is_overflow(obj):
        return "OVERFLOW"
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def write_csv(path, header, rows):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


# ---------------------------------------------------------------------------
# Commands


def cmd_norm(cfg, args):
    group = build_group(cfg)
    grid = build_grid(cfg, group)
    window = build_window(cfg, group)
    component = build_component(cfg, group)
    local = _get(cfg, "local", "linf")
    F = build_function(cfg, grid, args.seed)
    value = amalgam_norm(F, window, local, component)
    results = {
        "space": f"W({local},{component.describe()})",
        "window": window.descriptor(),
        "value": "OVERFLOW" if is_overflow(value) else float(value),
    }
    report, path = finalize_report("norm", cfg, args.seed, grid, results, args.out,
                                   fmt=args.format)
    print(f"norm: {results['value']}  -> {path}")
    return 0


def cmd_doubling(cfg, args):
    weight = build_weight(cfg) or WEIGHT_FAMILIES["constant"](1.0)
    n = int(_get(cfg, "group.n", 1))
    centers = [np.full(n, c) for c in _get(cfg, "centers", [0.0, 1.5, -3.0])]
    radii = _get(cfg, "radii", [0.5, 1.0, 2.0, 4.0])
    record = check_doubling(weight, centers, radii)
    results = {"weight": weight.certificate_record(), "verdict": record}
    report, path = finalize_report("doubling", cfg, args.seed, None, results,
                                   args.out, fmt=args.format)
    print(f"doubling: {'pass' if record['passed'] else 'fail'}  -> {path}")
    return 0 if record["passed"] else 2


def cmd_equivalence(cfg, args):
    group = build_group(cfg)
    if not isinstance(group, Euclidean):
        raise ConfigError("config.group.kind: equivalence sweep ships for euclidean")
    grid = build_grid(cfg, group)
    window = build_window(cfg, group)
    component = build_component(cfg, group)
    local = _get(cfg, "local", "linf")
    spacing = float(_get(cfg, "lattice_spacing", 1.0))
    X = euclidean_lattice(grid, spacing)
    bupu = build_bupu(X, BoxWindow.centered(spacing, group.n), grid=grid)
    count = int(_get(cfg, "family.count", 50))
    specs = build_family_on(cfg, group, count, args.seed)
    ratios = []
    for spec in specs:
        F = spec.sample(grid)
        cont = amalgam_norm(F, window, local, component)
        disc = discrete_amalgam_norm(F, bupu, local, component)
        if is_overflow(cont) or is_overflow(disc) or cont <= 0:
            continue
        ratios.append(disc / cont)
    if not ratios:
        raise ConfigError("config.family: every sample overflowed or vanished")
    ratios = np.asarray(ratios)
    bracket = float(max(ratios.max(), 1.0 / ratios.min()))
    results = {
        "space": f"W({local},{component.describe()})",
        "ratios_min": float(ratios.min()),
        "ratios_max": float(ratios.max()),
        "bracket_constant": bracket,
        "family_size": int(len(ratios)),
    }
    report, path = finalize_report("equivalence", cfg, args.seed, grid, results,
                                   args.out, fmt=args.format)
    print(f"equivalence bracket C* = {bracket:.4f}  -> {path}")
    return 0


def cmd_convolve(cfg, args):
    group = build_group(cfg)
    grid = build_grid(cfg, group)
    F = build_function(cfg, grid, args.seed, key="f")
    G = build_function(cfg, grid, args.seed + 1, key="g")
    out = convolve(F, G)
    pts = grid.points()
    rows = [list(p) + [float(np.real(v)), float(np.imag(v))]
            for p, v in zip(pts, out.values.ravel())]
    header = [f"x{k}" for k in range(pts.shape[1])] + ["re", "im"]
    csv_path = write_csv(Path(args.out) / "convolve.csv", header, rows)
    results = {"samples": int(len(rows)), "csv": str(csv_path),
               "max_abs": float(np.abs(out.values).max())}
    report, path = finalize_report("convolve", cfg, args.seed, grid, results,
                                   args.out, fmt=args.format)
    print(f"convolve: {len(rows)} samples -> {csv_path}")
    return 0


def _exhaustive_lp_algebra(p, weighted, support_len=4, offset=-1,
                           values=(-1, 0, 1, 2)):
    """Exhaustive l^p_w algebra check over short integer sequences."""
    grids = np.meshgrid(*([np.array(values)] * support_len), indexing="ij")
    seqs = np.stack([g.ravel() for g in grids], axis=-1).astype(float)
    conv = np.zeros((len(seqs), len(seqs), 2 * support_len - 1))
    for i in range(support_len):
        conv[:, :, i:i + support_len] += seqs[:, None, i, None] * seqs[None, :, :]
    coords_f = np.arange(offset, offset + support_len)
    coords_c = np.arange(2 * offset, 2 * offset + 2 * support_len - 1)
    wf = (1.0 + np.abs(coords_f)) if weighted else np.ones(support_len)
    wc = (1.0 + np.abs(coords_c)) if weighted else np.ones(2 * support_len - 1)
    norm_f = np.sum(np.abs(seqs * wf) ** p, axis=1) ** (1.0 / p)
    norm_c = np.sum(np.abs(conv * wc) ** p, axis=2) ** (1.0 / p)
    products = norm_f[:, None] * norm_f[None, :]
    nonzero = products > 0
    ratios = np.where(nonzero, norm_c / np.where(nonzero, products, 1.0), 0.0)
    violations = int(np.sum(ratios > 1.0 + 1e-9))
    return {
        "p": p,
        "weighted": weighted,
        "pairs_checked": int(nonzero.sum()),
        "violations": violations,
        "c_emp": float(ratios.max()),
    }


def cmd_verify(cfg, args):
    relation = args.relation
    if relation not in RELATIONS:
        raise ConfigError(f"relation: unknown relation {relation!r}; "
                          f"choose from {RELATIONS}")
    levels = max(1, args.refine)
    if relation == "cor_conv_Lp":
        p = float(_get(cfg, "p", 0.5))
        weighted = bool(_get(cfg, "weighted", False))
        rec = _exhaustive_lp_algebra(p, weighted)
        results = {
            "relation": relation,
            "passed": rec["violations"] == 0,
            "c_emp": rec["c_emp"],
            "refinement_trace": [rec["c_emp"]],
            "detail": rec,
        }
        grid = None
    else:
        report = _run_relation(relation, cfg, args.seed, levels)
        results = report.as_record()
        results["passed"] = report.passed
        grid = None
    rep, path = finalize_report("verify", cfg, args.seed, grid, results,
                                args.out, name=f"verify-{relation}",
                                fmt=args.format)
    status = "pass" if results["passed"] else "fail"
    print(f"verify {relation}: {status} (C_emp = {results['c_emp']:.6g}) -> {path}")
    return 0 if results["passed"] else 2


def _run_relation(relation, cfg, seed, levels):
    if relation == "axb_relation":
        group = AxbGroup(int(_get(cfg, "group.n", 1)))
        grid = build_grid({"grid": _get(cfg, "grid", {})}, group)
        weight = build_weight(cfg) or WEIGHT_FAMILIES["constant"](1.0)
        p = float(_get(cfg, "p", 1.0))
        q = float(_get(cfg, "q", 1.0))
        count = int(_get(cfg, "family.count", 6))
        left = build_family("axb-bumps", count, seed)
        right = build_family("axb-bumps", count, seed + 1)
        return verify_axb_convolution(weight, p, q, left, right, grid=grid,
                                      levels=levels)
    group = Euclidean(1)
    grid = build_grid({"grid": _get(cfg, "grid", {"cells": 256, "lo": -16.0,
                                                  "hi": 16.0})}, group)
    window = BoxWindow.centered(0.5, 1)
    p = float(_get(cfg, "p", 1.0))
    weight = build_weight(cfg) or WEIGHT_FAMILIES["shifted-power"](1.0)
    Y = WeightedLp(p, weight)
    target = AmalgamSpace("linf", Y, window)
    count = int(_get(cfg, "family.count", 8))
    bound_weight = WEIGHT_FAMILIES["shifted-power"](abs(weight.params.get("s", 1.0)))
    if relation == "thm_conv_a":
        left = build_family("atom-cloud", count, seed, group=group)
        right = build_family("gaussian-bumps", count, seed + 1,
                             center_range=(-4.0, 4.0))
        left_space = AmalgamSpace("m", Y, window)
        right_space = AmalgamSpace("linf", WeightedLp(min(1.0, p), bound_weight),
                                   window)
        return verify_embedding(relation, left, right, grid=grid,
                                target_norm=space_norm(target),
                                left_norm=space_norm(left_space),
                                right_norm=space_norm(right_space),
                                levels=levels, family="measures * bumps")
    if relation == "thm_conv_b":
        left = build_family("gaussian-bumps", count, seed,
                            center_range=(-4.0, 4.0))
        right = build_family("gaussian-bumps", count, seed + 1,
                             center_range=(-4.0, 4.0))
        right_space = AmalgamSpace("linf", WeightedLp(min(1.0, p), bound_weight),
                                   window)
        return verify_embedding(relation, left, right, grid=grid,
                                target_norm=space_norm(target),
                                left_norm=space_norm(target),
                                right_norm=space_norm(right_space),
                                levels=levels, family="bumps * bumps")
    # thm_convYvee
    left = build_family("gaussian-bumps", count, seed, center_range=(-4.0, 4.0))
    right = build_family("gaussian-bumps", count, seed + 1,
                         center_range=(-4.0, 4.0))
    left_space = AmalgamSpace("linf", WeightedLp(min(1.0, p), bound_weight),
                              window)
    return verify_embedding(relation, left, right, grid=grid,
                            target_norm=space_norm(target),
                            left_norm=space_norm(left_space),
                            right_norm=reflected_space_norm(target),
                            levels=levels, family="bumps * reflected bumps")


def cmd_axb(cfg, args):
    sub = args.subcommand
    if sub not in AXB_SUBCOMMANDS:
        raise ConfigError(f"axb subcommand: unknown {sub!r}; "
                          f"choose from {AXB_SUBCOMMANDS}")
    n = int(_get(cfg, "group.n", 1))
    if sub == "translation-bound":
        value = right_translation_bound(
            _get(cfg, "y", [0.0]), float(_get(cfg, "b", 1.0)),
            float(_get(cfg, "p", 1.0)), float(_get(cfg, "q", 1.0)),
            float(_get(cfg, "alpha", 1.0)), n)
        rep, path = finalize_report("axb", cfg, args.seed, None,
                                    {"subcommand": sub, "value": value},
                                    args.out, name="axb-translation-bound",
                                    fmt=args.format)
        print(f"translation bound: {value:.6g} -> {path}")
        return 0
    group = AxbGroup(n)
    grid = build_grid(cfg, group)
    if sub == "verify":
        weight = build_weight(cfg) or WEIGHT_FAMILIES["constant"](1.0)
        p = float(_get(cfg, "p", 1.0))
        q = float(_get(cfg, "q", 1.0))
        count = int(_get(cfg, "family.count", 6))
        left = build_family("axb-bumps", count, args.seed)
        right = build_family("axb-bumps", count, args.seed + 1)
        report = verify_axb_convolution(weight, p, q, left, right, grid=grid,
                                        levels=max(1, args.refine))
        results = report.as_record()
        rep, path = finalize_report("axb", cfg, args.seed, grid, results,
                                    args.out, name="axb-verify",
                                    fmt=args.format)
        print(f"axb verify: {'pass' if report.passed else 'fail'} "
              f"(C_emp = {report.c_emp:.6g}) -> {path}")
        return 0 if report.passed else 2
    lat = _get(cfg, "lattice", {}, kind=dict)
    X = build_axb_lattice(
        float(lat.get("a0", 0.5)), float(lat.get("b0", 2.0)),
        tuple(lat.get("k_range", [-10, 10])), tuple(lat.get("j_range", [-2, 2])),
        grid=grid, n=n)
    weight = build_weight(cfg) or WEIGHT_FAMILIES["constant"](1.0)
    table = compute_ball_weights(weight, X)
    if sub == "tilde-v":
        rows = [[str(k), j, *x[:-1], x[-1], v]
                for (k, j), x, v in zip(X.labels, X.points, table.values)]
        csv_path = write_csv(Path(args.out) / "axb-tilde-v.csv",
                             ["k", "j", "x", "a", "value"], rows)
        rep, path = finalize_report("axb", cfg, args.seed, grid,
                                    {"subcommand": sub, "entries": len(rows),
                                     "csv": str(csv_path)},
                                    args.out, name="axb-tilde-v",
                                    fmt=args.format)
        print(f"tilde-v: {len(rows)} entries -> {csv_path}")
        return 0
    # discrete-norm
    p = float(_get(cfg, "p", 1.0))
    qraw = _get(cfg, "q", 1.0)
    q = math.inf if qraw in ("inf", "Infinity") else float(qraw)
    rng = generator(args.seed)
    lam = np.abs(rng.standard_normal(len(X)))
    value = lpq_discrete_norm(lam, table, p, q, n)
    rep, path = finalize_report("axb", cfg, args.seed, grid,
                                {"subcommand": sub, "value": value,
                                 "coefficients": int(len(lam))},
                                args.out, name="axb-discrete-norm",
                                fmt=args.format)
    print(f"discrete norm: {value:.6g} -> {path}")
    return 0


def cmd_report(cfg, args):
    path = Path(args.path)
    if not path.exists():
        raise ConfigError(f"report path {path} does not exist")
    text = path.read_text()
    data = json.loads(text)
    # schema round-trip: parse -> serialize -> parse must be the identity
    if json.loads(json.dumps(data, sort_keys=True)) != data:
        raise ConfigError(f"report {path} does not round-trip")
    print(f"report {path}")
    for key in ("command", "seed", "version", "timestamp"):
        print(f"  {key}: {data.get(key)}")
    results = data.get("results", {})
    for key in sorted(results)[:12]:
        val = results[key]
        if isinstance(val, (dict, list)):
            val = f"<{type(val).__name__} of {len(val)}>"
        print(f"  results.{key}: {val}")
    return 0


# ---------------------------------------------------------------------------
# Entry point


def _add_common_flags(parser, suppress=False):
    d = argparse.SUPPRESS if suppress else None
    parser.add_argument("--config", type=str,
                        default=d if suppress else None,
                        help="path to a JSON config file")
    parser.add_argument("--out", type=str,
                        default=d if suppress else "reports",
                        help="output directory for reports")
    parser.add_argument("--seed", type=int, default=d if suppress else 0,
                        help="PCG64 seed")
    parser.add_argument("--refine", type=int, default=d if suppress else 2,
                        help="number of grid resolutions for verification")
    parser.add_argument("--format", choices=("json", "csv"),
                        default=d if suppress else "json",
                        help="primary report format")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="wamalgam",
        description="Wiener amalgam space computations on concrete groups",
    )
    _add_common_flags(parser)
    sub = parser.add_subparsers(dest="command", required=True)
    names = ("norm", "doubling", "equivalence", "convolve")
    for name in names:
        p = sub.add_parser(name)
        _add_common_flags(p, suppress=True)
    p_verify = sub.add_parser("verify")
    p_verify.add_argument("relation", choices=RELATIONS)
    _add_common_flags(p_verify, suppress=True)
    p_axb = sub.add_parser("axb")
    p_axb.add_argument("subcommand", choices=AXB_SUBCOMMANDS)
    _add_common_flags(p_axb, suppress=True)
    p_report = sub.add_parser("report")
    p_report.add_argument("path")
    _add_common_flags(p_report, suppress=True)
    return parser


def load_config(args):
    if args.config is None:
        return {}
    path = Path(args.config)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: invalid JSON at line {exc.lineno}, "
                          f"column {exc.colno}: {exc.msg}")


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "norm": cmd_norm,
        "doubling": cmd_doubling,
        "equivalence": cmd_equivalence,
        "convolve": cmd_convolve,
        "verify": cmd_verify,
        "axb": cmd_axb,
        "report": cmd_report,
    }
    try:
        cfg = load_config(args)
        return handlers[args.command](cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except WamalgamError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
