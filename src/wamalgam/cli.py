"""Batch front-end: config-driven computations with JSON/CSV reports.

Commands: norm, doubling, equivalence, convolve, verify, axb, report.
Configs are JSON; every report embeds the exact config used, the grid
metadata, the seed, and the library version, and is serialized with
sorted keys so that identical configs and seeds give byte-identical
output up to the timestamp field. ``main`` checks the config against
``config.CONFIG_SCHEMA`` once, and against ``READS``, the keys the command
reads; each command returns its grid, results, summary line and verdict,
and ``main`` writes the report. Exit status: 0 on pass, 2 when a property
check reports a failure verdict or argparse a usage error, 1 on config or
run errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .amalgam import AmalgamSpace, amalgam_norm, budgeted_stencil, equivalence_pairs
from .axb import compute_ball_weights, lpq_discrete_norm, right_translation_bound
from .components import (
    MixedLpq,
    WeightedLp,
    WEIGHT_FAMILIES,
    check_doubling,
    constant_weight,
    is_overflow,
)
from .config import GROUPS, validate_config
from .convolution import convolve
from .discretization import build_axb_lattice, build_bupu, euclidean_lattice
from .errors import ConfigError, NonFiniteSampleError, WamalgamError
from .families import (
    N_DIMENSIONAL_FAMILIES,
    FunctionSpec,
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
from .relations import RELATIONS, RelationSettings
from .windows import AxbWindow, BoxWindow


# ---------------------------------------------------------------------------
# Builders over a config checked by ``validate_config`` and ``check_reads``

_LINE_ROW = ("p", "weight", "group", "grid", "family.count")
# command -> the config keys it reads: a whole section, or "section.key"
READS = {
    "norm": ("group", "grid", "window", "local", "component", "function"),
    "doubling": ("group.n", "weight", "centers", "radii"),
    "equivalence": ("group", "grid", "window", "local", "component",
                    "lattice_spacing", "family"),
    "convolve": ("group", "grid", "f", "g"),
    "verify cor_conv_Lp": ("p", "weighted"),
    "verify thm_conv_a": _LINE_ROW,
    "verify thm_conv_b": _LINE_ROW,
    "verify thm_convYvee": _LINE_ROW,
    "verify axb_relation": _LINE_ROW + ("q",),
    "axb tilde-v": ("group", "grid", "lattice", "weight"),
    "axb discrete-norm": ("group", "grid", "lattice", "weight", "p", "q"),
    "axb translation-bound": ("group", "y", "b", "p", "q", "alpha"),
}


def check_reads(cfg, command):
    """Refuse the first key of ``cfg`` that ``command`` does not read."""
    reads = READS[command]
    for key, value in cfg.items():
        nested = any(r.startswith(f"{key}.") for r in reads)
        for path in [f"{key}.{k}" for k in value] if nested else [key]:
            if path not in reads:
                raise ConfigError(f"config.{path}: {command} reads {', '.join(reads)}")


def build_group(cfg):
    group = cfg.get("group", {})
    return GROUPS[group.get("kind", "euclidean")](group.get("n", 1))


def _per_axis(value, axes, key):
    """``value``, the config at ``key``: a number, or a list of one per axis."""
    if isinstance(value, list) and len(value) != axes:
        raise ConfigError(f"config.{key}: expected a number or a list of {axes}, "
                          f"one per axis, got a list of {len(value)}")
    return value


def _section(cfg, key, what, reads, axes):
    """The config at ``key``. A key that ``what`` does not read (it reads
    ``reads``) or a list of the wrong length (``_per_axis``) raises."""
    section = cfg.get(key, {})
    for k, value in section.items():
        if k not in reads:
            raise ConfigError(f"config.{key}.{k}: {what} reads {', '.join(reads)}")
        _per_axis(value, axes, f"{key}.{k}")
    return section


# group kind -> its grid's name, class and keys, each with its default
GRIDS = {
    "euclidean": ("a euclidean grid", UniformGrid, {"lo": -8.0, "hi": 8.0, "cells": 512}),
    "lattice": ("a lattice grid", LatticeGrid, {"lo": -16, "hi": 16}),
    "axb": ("an ax+b grid", AxbGrid, {"x_lo": -6.0, "x_hi": 6.0, "x_cells": 80,
                                     "a_lo": 0.125, "a_hi": 8.0, "a_cells": 48}),
}


def build_grid(cfg, group):
    what, grid_class, defaults = GRIDS[group.kind]
    g = _section(cfg, "grid", what, tuple(defaults), group.n)
    if isinstance(group, IntegerLattice):
        for key in ("lo", "hi"):
            if np.any(np.mod(g.get(key, 0), 1)):
                raise ConfigError(f"config.grid.{key}: a lattice needs integral "
                                  f"bounds, got {g[key]!r}")
    try:
        return grid_class(group, **(defaults | g))
    except WamalgamError as exc:
        raise ConfigError(f"config.grid: {exc}") from exc


def build_window(cfg, group):
    on_axb = isinstance(group, AxbGroup)
    if on_axb and isinstance(cfg.get("window", {}).get("radius"), list):
        raise ConfigError("config.window.radius: the ax+b window's ball has one "
                          "radius, expected a number, got a list")
    w = _section(cfg, "window", "an ax+b window" if on_axb else "a box window",
                 ("radius", "beta") if on_axb else ("radius", "lo", "hi"), group.n)
    try:
        if on_axb:
            return AxbWindow(w.get("radius", 0.5), w.get("beta", 1.5))
        if "lo" in w or "hi" in w:
            return BoxWindow(tuple(np.broadcast_to(w.get("lo", 0.0), (group.n,))),
                             tuple(np.broadcast_to(w.get("hi", 1.0), (group.n,))))
        return BoxWindow.centered(w.get("radius", 0.5), group.n)
    except WamalgamError as exc:
        raise ConfigError(f"config.window: {exc}") from exc


def build_weight(w, key):
    """The weight described by ``w``, the config at ``key``; None if absent."""
    if w is None:
        return None
    if "family" not in w:
        raise ConfigError(f"config.{key}.family: missing required key")
    params = {k: v for k, v in w.items() if k != "family"}
    try:
        return WEIGHT_FAMILIES[w["family"]](**params)
    except TypeError as exc:
        raise ConfigError(f"config.{key}: bad parameters for {w['family']}: {exc}")


def build_component(cfg, group):
    kind = cfg.get("component", {}).get("type", "lp")
    c = _section(cfg, "component", f"an {kind} component", ("type", "p", "weight")
                 if kind == "lp" else ("type", "p", "q", "weight"), group.n)
    weight = build_weight(c.get("weight"), "component.weight")
    if kind == "lp":
        return WeightedLp(c.get("p", 1.0), weight)
    return MixedLpq(c.get("p", 1.0), c.get("q", 1.0), weight,
                    n=group.n if isinstance(group, AxbGroup) else 1)


def build_family_on(kind, group, count, seed, key):
    """``count`` specs of the family ``kind``, named at config ``key``, drawn
    for ``group``: the n-dimensional families on R^n or Z^n with n = group.n,
    the one-dimensional ones on R or Z, and ``axb-bumps`` on ax+b with n = 1.
    None picks ``axb-bumps`` on ax+b and ``gaussian-bumps`` elsewhere."""
    on_axb = group.kind == "axb"
    kind = kind or ("axb-bumps" if on_axb else "gaussian-bumps")
    if on_axb != (kind == "axb-bumps"):
        raise ConfigError(f"config.{key}: family {kind!r} does not sample "
                          f"config.group.kind {group.kind!r}")
    if kind in N_DIMENSIONAL_FAMILIES:
        return build_family(kind, count, seed, n=group.n)
    if group.n != 1:
        raise ConfigError(f"config.{key}: family {kind!r} is one-dimensional, "
                          f"but config.group.n is {group.n}")
    return build_family(kind, count, seed)


# function kind -> its name and the keys it reads
FUNCTIONS = {"indicator": ("an indicator function", ("kind", "lo", "hi")),
             "sequence": ("a sequence function", ("kind", "entries")),
             "bumps": ("a bumps function", ("kind", "family"))}


def build_function(cfg, grid, seed, key="function"):
    kind = cfg.get(key, {}).get("kind", "indicator")
    axes = len(grid.shape)
    f = _section(cfg, key, *FUNCTIONS[kind], axes)
    if kind == "indicator":
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
        if len(grid.shape) != 1:
            raise ConfigError(f"config.{key}.kind: a sequence samples R or Z with n = 1, "
                              f"not config.group.kind {grid.group.kind!r} with n = "
                              f"{grid.group.n}")
        return delta_comb(f.get("entries", {0: 1.0})).sample(grid)
    [spec] = build_family_on(f.get("family"), grid.group, 1, seed, f"{key}.family")
    if not isinstance(spec, FunctionSpec):
        raise ConfigError(f"config.{key}.family: family {f['family']!r} draws "
                          f"measures, not functions")
    return spec.sample(grid)


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
    group = build_group(cfg)
    grid = build_grid(cfg, group)
    window = build_window(cfg, group)
    component = build_component(cfg, group)
    local = cfg.get("local", "linf")
    budgeted_stencil(window, grid)  # before sampling, which the budget may refuse
    F = build_function(cfg, grid, args.seed)
    value = amalgam_norm(F, window, local, component)
    results = {
        "space": f"W({local},{component.describe()})",
        "window": window.descriptor(),
        "value": "OVERFLOW" if is_overflow(value) else float(value),
    }
    return grid, results, f"norm: {results['value']}", True


def cmd_doubling(cfg, args):
    weight = build_weight(cfg.get("weight"), "weight") or constant_weight(1.0)
    n = cfg.get("group", {}).get("n", 1)
    centers = [np.full(n, c) for c in cfg.get("centers", [0.0, 1.5, -3.0])]
    record = check_doubling(weight, centers, cfg.get("radii", [0.5, 1.0, 2.0, 4.0]))
    results = {"weight": weight.certificate_record(), "verdict": record}
    status = "pass" if record["passed"] else "fail"
    return None, results, f"doubling: {status}", record["passed"]


def cmd_equivalence(cfg, args):
    group = build_group(cfg)
    if not isinstance(group, Euclidean):
        raise ConfigError("config.group.kind: equivalence sweep ships for euclidean")
    grid = build_grid(cfg, group)
    window = build_window(cfg, group)
    component = build_component(cfg, group)
    local = cfg.get("local", "linf")
    spacing = cfg.get("lattice_spacing", 1.0)
    X = euclidean_lattice(grid, spacing)
    bupu = build_bupu(X, BoxWindow.centered(spacing, group.n), grid=grid)
    family = cfg.get("family", {})
    specs = build_family_on(family.get("kind"), group, family.get("count", 50),
                            args.seed, "family.kind")
    space = AmalgamSpace(local, component, window)
    ratios = [disc / cont for cont, disc in equivalence_pairs(
        space, bupu, (spec.sample(grid) for spec in specs))]
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
    return grid, results, f"equivalence bracket C* = {bracket:.4f}", True


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
    return grid, results, f"convolve: {len(rows)} samples", True


def cmd_verify(cfg, args):
    relation = RELATIONS[args.relation]
    grid = relation.grid
    for key, value in cfg.get("group", {}).items():
        own = getattr(grid.group, key)
        if value != own:
            raise ConfigError(f"config.group.{key}: verify {relation.name} runs on "
                              f"{key} {own!r}, got {value!r}")
    if "grid" in cfg:
        grid = build_grid(cfg, grid.group)
    results = relation.run(RelationSettings(
        seed=args.seed, levels=args.refine, p=cfg.get("p"), q=cfg.get("q", 1.0),
        weighted=cfg.get("weighted", False),
        weight=build_weight(cfg.get("weight"), "weight"), grid=grid,
        count=cfg.get("family", {}).get("count")))
    status = "pass" if results["passed"] else "fail"
    return (grid, results, f"verify {relation.name}: {status} "
            f"(C_emp = {results['c_emp']:.6g})", results["passed"])


def cmd_axb(cfg, args):
    sub = args.subcommand
    kind = cfg.get("group", {}).get("kind", "axb")
    if kind != "axb":
        raise ConfigError(f"config.group.kind: axb {sub} runs on kind 'axb', "
                          f"got {kind!r}")
    n = cfg.get("group", {}).get("n", 1)
    p, q = cfg.get("p", 1.0), cfg.get("q", 1.0)
    if sub == "translation-bound":
        y = np.broadcast_to(_per_axis(cfg.get("y", 0.0), n, "y"), (n,))
        value = right_translation_bound(y, cfg.get("b", 1.0), p, q,
                                        cfg.get("alpha", 1.0), n)
        return None, {"subcommand": sub, "value": value}, \
            f"translation bound: {value:.6g}", True
    grid = build_grid(cfg, AxbGroup(n))
    lat = cfg.get("lattice", {})
    X = build_axb_lattice(lat.get("a0", 0.5), lat.get("b0", 2.0),
                          lat.get("k_range", [-10, 10]), lat.get("j_range", [-2, 2]),
                          grid=grid, n=n)
    weight = build_weight(cfg.get("weight"), "weight") or constant_weight(1.0)
    table = compute_ball_weights(weight, X)
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


def build_parser():
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
        typed = validate_config(cfg)
        check_reads(typed, f"{args.command} {sub}" if sub else args.command)
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
