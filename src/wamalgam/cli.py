"""Batch front-end: config-driven computations with JSON/CSV reports.

Commands: norm, doubling, equivalence, convolve, verify, axb, report.
Configs are JSON; every report embeds the exact config used, the grid
metadata, the seed, and the library version, and is serialized with
sorted keys so that identical configs and seeds give byte-identical
output up to the timestamp field. ``main`` types the config once against
the command's row of the config table (``config.check_config``); each
command reads that typed config and returns its grid, results, summary
line and verdict, and ``main`` writes the report. Exit status: 0 on pass,
2 when a property check reports a failure verdict or argparse a usage
error, 1 on config or run errors.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .amalgam import AmalgamSpace, budgeted_stencil, equivalence_pairs
from .axb import compute_ball_weights, lpq_discrete_norm, right_translation_bound
from .components import (
    MixedLpq,
    WeightedLp,
    WEIGHT_FAMILIES,
    check_doubling,
    constant_weight,
    is_overflow,
)
from .config import GROUPS, check_config
from .convolution import convolve
from .discretization import build_axb_lattice, build_bupu, euclidean_lattice
from .errors import (
    ConfigError,
    EmptyGridError,
    NonFiniteSampleError,
    WamalgamError,
    WeightDomainError,
)
from .families import N_DIMENSIONAL_FAMILIES, build_family, delta_comb, generator
from .groups import AxbGrid, AxbGroup, LatticeGrid, SampledFunction, UniformGrid
from .relations import RELATIONS, RelationSettings
from .windows import AxbWindow, BoxWindow


# ---------------------------------------------------------------------------
# Builders over a config typed by ``check_config``


# group kind -> its grid's class and the default of each key
GRIDS = {
    "euclidean": (UniformGrid, {"lo": -8.0, "hi": 8.0, "cells": 512}),
    "lattice": (LatticeGrid, {"lo": -16, "hi": 16}),
    "axb": (AxbGrid, {"x_lo": -6.0, "x_hi": 6.0, "x_cells": 80, "a_lo": 0.125,
                      "a_hi": 8.0, "a_cells": 48}),
}


def build_grid(cfg):
    group = cfg["group"]
    grid_class, defaults = GRIDS[group["kind"]]
    try:
        return grid_class(GROUPS[group["kind"]](group["n"]),
                          **(defaults | cfg.get("grid", {})))
    except WamalgamError as exc:
        raise ConfigError(f"config.grid: {exc}") from exc


# group kind -> how to shrink its grid when a stencil is over budget
SHRINK = {
    "euclidean": "lower config.grid.cells",
    "lattice": "narrow config.grid.lo to config.grid.hi",
    "axb": "lower config.grid.x_cells, which sets both counts",
}


def check_budget(window, grid):
    """Refuse at ``config.grid`` a window whose stencil on the grid is over
    the control functions' budget (``budgeted_stencil``); the grid and
    window alone decide it, so a command checks before it builds more."""
    try:
        budgeted_stencil(window, grid)
    except EmptyGridError as exc:
        raise ConfigError(f"config.grid: {exc}; {SHRINK[grid.group.kind]}") from exc


def build_window(cfg, group):
    w = cfg.get("window", {})
    try:
        if isinstance(group, AxbGroup):
            return AxbWindow(w.get("radius", 0.5), w.get("beta", 1.5))
        if "lo" in w or "hi" in w:
            return BoxWindow(tuple(np.broadcast_to(w.get("lo", 0.0), (group.n,))),
                             tuple(np.broadcast_to(w.get("hi", 1.0), (group.n,))))
        return BoxWindow.centered(w.get("radius", 0.5), group.n)
    except WamalgamError as exc:
        raise ConfigError(f"config.window: {exc}") from exc


def build_weight(w):
    """The weight that the config section ``w`` describes; None if absent."""
    if w is None:
        return None
    return WEIGHT_FAMILIES[w["family"]](**{k: v for k, v in w.items() if k != "family"})


def refusing_weight(run, *args):
    """``run(*args)``, reporting at ``config.weight`` a weight that its ball
    integrals or its doubling certificate refuse."""
    try:
        return run(*args)
    except WeightDomainError as exc:
        raise ConfigError(f"config.weight: {exc}") from exc


def build_component(cfg, group):
    c = cfg.get("component", {})
    weight = build_weight(c.get("weight"))
    if c.get("type", "lp") == "lp":
        return WeightedLp(c.get("p", 1.0), weight)
    return MixedLpq(c.get("p", 1.0), c.get("q", 1.0), weight, n=group.n)


def build_family_on(kind, group, count, seed):
    """``count`` specs of the family ``kind`` drawn for ``group``; None picks
    ``axb-bumps`` on ax+b and ``gaussian-bumps`` elsewhere."""
    kind = kind or ("axb-bumps" if group.kind == "axb" else "gaussian-bumps")
    n = {"n": group.n} if kind in N_DIMENSIONAL_FAMILIES else {}
    return build_family(kind, count, seed, **n)


def build_function(cfg, grid, seed, key="function"):
    f = cfg.get(key, {})
    kind = f.get("kind", "indicator")
    if kind == "indicator":
        axes = len(grid.shape)
        lo = np.broadcast_to(f.get("lo", 0.0), (axes,))
        hi = np.broadcast_to(f.get("hi", 1.0), (axes,))

        def fn(*coords):
            mask = np.ones(np.broadcast_shapes(*[np.shape(c) for c in coords]),
                           dtype=bool)
            for axis, coord in enumerate(coords):
                mask = mask & (coord >= lo[axis]) & (coord <= hi[axis])
            return mask.astype(float)

        return SampledFunction.sample(grid, fn)
    if kind == "sequence":
        return delta_comb(f.get("entries", {0: 1.0})).sample(grid)
    return build_family_on(f.get("family"), grid.group, 1, seed)[0].sample(grid)


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
# Commands: each returns (grid, results, summary, passed) for ``main`` to report


def cmd_norm(cfg, args):
    grid = build_grid(cfg)
    window = build_window(cfg, grid.group)
    check_budget(window, grid)
    space = AmalgamSpace(cfg.get("local", "linf"), build_component(cfg, grid.group), window)
    value = space.norm(build_function(cfg, grid, args.seed))
    results = {
        "space": space.describe(),
        "window": window.descriptor(),
        "value": "OVERFLOW" if is_overflow(value) else float(value),
    }
    return grid, results, f"norm: {results['value']}", True


def cmd_doubling(cfg, args):
    weight = build_weight(cfg.get("weight")) or constant_weight(1.0)
    centers = [np.full(cfg["group"]["n"], c)
               for c in cfg.get("centers", [0.0, 1.5, -3.0])]
    record = refusing_weight(check_doubling, weight, centers,
                             cfg.get("radii", [0.5, 1.0, 2.0, 4.0]))
    results = {"weight": weight.certificate_record(), "verdict": record}
    status = "pass" if record["passed"] else "fail"
    return None, results, f"doubling: {status}", record["passed"]


def cmd_equivalence(cfg, args):
    grid = build_grid(cfg)
    group = grid.group
    window = build_window(cfg, group)
    check_budget(window, grid)
    space = AmalgamSpace(cfg.get("local", "linf"), build_component(cfg, group), window)
    spacing = cfg.get("lattice_spacing", 1.0)
    X = euclidean_lattice(grid, spacing)
    bupu = build_bupu(X, BoxWindow.centered(spacing, group.n), grid=grid)
    family = cfg.get("family", {})
    specs = build_family_on(family.get("kind"), group, family.get("count", 50),
                            args.seed)
    ratios = [disc / cont for cont, disc in equivalence_pairs(
        space, bupu, (spec.sample(grid) for spec in specs))]
    if not ratios:
        raise ConfigError("config.family: every sample overflowed or vanished")
    ratios = np.asarray(ratios)
    bracket = float(max(ratios.max(), 1.0 / ratios.min()))
    results = {
        "space": space.describe(),
        "ratios_min": float(ratios.min()),
        "ratios_max": float(ratios.max()),
        "bracket_constant": bracket,
        "family_size": int(len(ratios)),
    }
    return grid, results, f"equivalence bracket C* = {bracket:.4f}", True


def cmd_convolve(cfg, args):
    grid = build_grid(cfg)
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
    return grid, results, f"convolve: {len(rows)} samples", True


def cmd_verify(cfg, args):
    relation = RELATIONS[args.relation]
    grid = build_grid(cfg) if "grid" in cfg else relation.grid
    results = refusing_weight(relation.run, RelationSettings(
        seed=args.seed, levels=args.refine, p=cfg.get("p"), q=cfg.get("q", 1.0),
        weighted=cfg.get("weighted", False),
        weight=build_weight(cfg.get("weight")), grid=grid,
        count=cfg.get("family", {}).get("count")))
    status = "pass" if results["passed"] else "fail"
    return (grid, results, f"verify {relation.name}: {status} "
            f"(C_emp = {results['c_emp']:.6g})", results["passed"])


def cmd_axb(cfg, args):
    sub = args.subcommand
    n = cfg["group"]["n"]
    p, q = cfg.get("p", 1.0), cfg.get("q", 1.0)
    if sub == "translation-bound":
        y = np.broadcast_to(cfg.get("y", 0.0), (n,))
        value = right_translation_bound(y, cfg.get("b", 1.0), p, q,
                                        cfg.get("alpha", 1.0), n)
        return None, {"subcommand": sub, "value": value}, \
            f"translation bound: {value:.6g}", True
    grid = build_grid(cfg)
    lat = cfg.get("lattice", {})
    X = build_axb_lattice(lat.get("a0", 0.5), lat.get("b0", 2.0),
                          lat.get("k_range", [-10, 10]), lat.get("j_range", [-2, 2]),
                          grid=grid, n=n)
    weight = build_weight(cfg.get("weight")) or constant_weight(1.0)
    table = refusing_weight(compute_ball_weights, weight, X)
    if sub == "tilde-v":
        rows = [[str(k), j, *x[:-1], x[-1], v]
                for (k, j), x, v in zip(X.labels, X.points, table.values)]
        csv_path = write_csv(Path(args.out) / "axb-tilde-v.csv",
                             ["k", "j", "x", "a", "value"], rows)
        results = {"subcommand": sub, "entries": len(rows), "csv": str(csv_path)}
        return grid, results, f"tilde-v: {len(rows)} entries", True
    lam = np.abs(generator(args.seed).standard_normal(len(X)))
    value = lpq_discrete_norm(lam, table, p, q, n)
    results = {"subcommand": sub, "value": value, "coefficients": int(len(lam))}
    return grid, results, f"discrete norm: {value:.6g}", True


def show_report(path):
    """Print the header and the first results of the report at ``path``."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"report path {path} does not exist")
    data = json.loads(path.read_text())
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


def _levels(text):
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return int(text)


@functools.cache
def build_parser():
    """The CLI's parser, built on the first call and shared after it."""
    parser = argparse.ArgumentParser(
        prog="wamalgam",
        description="Wiener amalgam space computations on concrete groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, positional, choices in (
            ("norm", None, None), ("doubling", None, None),
            ("equivalence", None, None), ("convolve", None, None),
            ("verify", "relation", tuple(RELATIONS)),
            ("axb", "subcommand", ("tilde-v", "discrete-norm", "translation-bound")),
            ("report", "path", None)):
        p = sub.add_parser(name)
        if positional:
            p.add_argument(positional, choices=choices)
        p.add_argument("--config", help="path to a JSON config file")
        p.add_argument("--out", default="reports", help="output directory for reports")
        p.add_argument("--seed", type=int, default=0, help="PCG64 seed")
        if name == "verify":
            p.add_argument("--refine", type=_levels, default=2,
                           help="number of grid resolutions for verification")
        p.add_argument("--format", choices=("json", "csv"), default="json",
                       help="primary report format")
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
    args = build_parser().parse_args(argv)
    try:
        if args.command == "report":
            return show_report(args.path)
        cfg = load_config(args)
        # looked up per call, so a test can stand in for a command
        command = globals()[f"cmd_{args.command}"]
        sub = getattr(args, "relation", None) or getattr(args, "subcommand", None)
        typed = check_config(cfg, f"{args.command} {sub}" if sub else args.command)
        grid, results, summary, passed = command(typed, args)
        name = f"{args.command}-{sub}" if sub else None
        _, path = finalize_report(args.command, cfg, args.seed, grid, results,
                                  args.out, name=name, fmt=args.format)
        print(f"{summary} -> {path}")
        return 0 if passed else 2
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except WamalgamError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
