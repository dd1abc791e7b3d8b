"""The CLI's config table, ``COMMANDS`` and ``SECTIONS``, and its walker.

``COMMANDS`` names the sections that each command reads (``section.key``
for one key of a section) and the ``group`` values that it fixes.
``SECTIONS`` types each section: a check of one value, a ``Form`` of typed
keys, or ``Forms``, one form per value of a choice; ``NARROWED`` types a
section more narrowly for one command. ``check_config`` resolves the
group, then walks a config through the table once. A check
takes the value, the resolved group and the keys of its section typed
before it, and returns the typed value or raises ``ValueError``.
"""

from __future__ import annotations

import math
import re
from typing import NamedTuple

from .errors import ConfigError
from .families import FAMILY_BUILDERS, MEASURE_FAMILIES, N_DIMENSIONAL_FAMILIES
from .groups import AxbGroup, Euclidean, IntegerLattice

GROUPS = {"euclidean": Euclidean, "lattice": IntegerLattice, "axb": AxbGroup}


class Form(NamedTuple):
    """Keys and their checks, in checking order. Another key raises, naming
    ``name`` and ``reads`` (the keys by default); ``required`` keys must be given."""
    name: str
    keys: dict
    required: tuple = ()
    reads: tuple = ()


class Forms(NamedTuple):
    """One ``Form`` per value of the section's ``key`` (``default`` when
    absent, required when None), or per group kind when ``key`` is None."""
    key: str | None
    forms: dict
    default: str | None = None


def _number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _check(test, what, convert=None):
    """A check passing the values that satisfy ``test``, through ``convert``."""
    def checked(value, *_):
        if not test(value):
            raise ValueError(f"expected {what}, got {value!r}")
        return value if convert is None else convert(value)
    return checked


def _list_of(check, what="a non-empty list", valid=lambda *_: True):
    """A non-empty list of values passing ``check`` that ``valid(items, section)``
    accepts."""
    def checked(value, group, section):
        items = isinstance(value, list) and [check(x, group, section) for x in value]
        if not items or not valid(items, section):
            raise ValueError(f"expected {what}, got {value!r}")
        return items
    return checked


def _per_axis(check, scale_axis=False):
    """One value for every axis, or a list of one per axis: the group's n
    axes, and ax+b's scale axis too when ``scale_axis``."""
    def checked(value, group, section):
        if not isinstance(value, list):
            return check(value, group, section)
        axes = group["n"] + (scale_axis and group["kind"] == "axb")
        if len(value) != axes:
            raise ValueError(f"expected a number or a list of {axes}, one per axis, "
                             f"got a list of {len(value)}")
        return [check(x, group, section) for x in value]
    return checked


def _choice(options, noun):
    def checked(value, *_):
        if not isinstance(value, str) or value not in options:
            raise ValueError(f"unknown {noun} {value!r}; choose from {sorted(options)}")
        return value
    return checked


_real = _check(lambda v: _number(v) and math.isfinite(v), "a finite number", float)
_positive = _check(lambda v: _number(v) and 0 < v < math.inf,
                   "a finite positive number", float)
# float() reads "inf" and "Infinity" as infinity
_exponent = _check(lambda v: v in ("inf", "Infinity") or _number(v) and v > 0,
                   'a positive number or "inf"', float)
_integral = _check(lambda v: _number(v) and float(v).is_integer(), "an integral number",
                   float)
_count = _check(lambda v: isinstance(v, int) and _number(v) and v >= 1,
                "an integer >= 1")
_range = _list_of(_check(lambda v: isinstance(v, int) and _number(v), "an integer"),
                  "a list [lo, hi] of integers with lo <= hi",
                  lambda r, _: len(r) == 2 and r[0] <= r[1])
_chosen = _check(lambda v: True, "")  # the key that picked the form, checked there


def _family(kind, group, _):
    """A family that draws functions on the group: ``axb-bumps`` on ax+b and
    only there, and a one-dimensional family only with n = 1."""
    _choice(FAMILY_BUILDERS, "family")(kind)
    if kind in MEASURE_FAMILIES:
        raise ValueError(f"family {kind!r} draws measures, not functions")
    if (group["kind"] == "axb") != (kind == "axb-bumps"):
        raise ValueError(f"family {kind!r} does not sample config.group.kind "
                         f"{group['kind']!r}")
    if kind not in N_DIMENSIONAL_FAMILIES and group["n"] != 1:
        raise ValueError(f"family {kind!r} is one-dimensional, but config.group.n "
                         f"is {group['n']}")
    return kind


def _function_kind(kind, group, _):
    """A sequence samples R or Z, and bumps sample ax+b, only with n = 1."""
    axb, n = group["kind"] == "axb", group["n"]
    if (kind == "sequence" and (axb or n != 1)) or (kind == "bumps" and axb and n != 1):
        raise ValueError(f"a {kind} function does not sample config.group.kind "
                         f"{group['kind']!r} with n = {n}")
    return kind


def _on_axb(kind, group, _):
    """A mixed-norm component type, which reads an x and a scale axis."""
    if group["kind"] != "axb":
        raise ValueError(f"mixed-norm components require config.group.kind 'axb', "
                         f"got {group['kind']!r}")
    return kind


_WEIGHT = Forms("family", {
    "constant": Form("a constant weight", {"family": _chosen, "c": _positive}),
    "power": Form("a power weight", {"family": _chosen, "s": _real}, ("s",)),
    "shifted-power": Form("a shifted-power weight", {"family": _chosen, "s": _real},
                          ("s",)),
    "exponential": Form("an exponential weight", {"family": _chosen, "rate": _real}),
    "table": Form("a table weight", {
        "family": _chosen,
        "knots": _list_of(_real, "a non-empty list of increasing numbers",
                          lambda k, _: all(a < b for a, b in zip(k, k[1:]))),
        "values": _list_of(_positive, "a list of positive numbers, one per knot",
                           lambda v, section: len(v) == len(section["knots"])),
        "name": _check(lambda v: isinstance(v, str), "a string")}, ("knots", "values")),
})
_FUNCTION = Forms("kind", {
    "indicator": Form("an indicator function", {
        "kind": _chosen, "lo": _per_axis(_real, True), "hi": _per_axis(_real, True)}),
    "sequence": Form("a sequence function", {"kind": _function_kind, "entries": _check(
        lambda v: isinstance(v, dict) and all(re.fullmatch(r"-?\d+", k) for k in v),
        "an object with integer keys",
        lambda v: {int(k): _real(x) for k, x in v.items()})}),
    "bumps": Form("a bumps function", {"kind": _function_kind, "family": _family}),
}, "indicator")


def _not_beside(key, check):
    """``check``, for a key that ``key``, checked before it, excludes."""
    def checked(value, group, section):
        if key in section:
            raise ValueError(f"a box window reads {key}, or lo and hi, not both")
        return check(value, group, section)
    return checked


_BOX_WINDOW = Form("a box window", {
    "radius": _per_axis(_positive), "lo": _not_beside("radius", _per_axis(_real)),
    "hi": _not_beside("radius", _per_axis(_real))})

SECTIONS = {
    "group": Form("a group", {"kind": _choice(GROUPS, "kind"), "n": _count}),
    "grid": Forms(None, {
        "euclidean": Form("a euclidean grid", {
            "lo": _per_axis(_real), "hi": _per_axis(_real), "cells": _per_axis(_count)}),
        "lattice": Form("a lattice grid", {"lo": _per_axis(_integral),
                                           "hi": _per_axis(_integral)}),
        "axb": Form("an ax+b grid", {
            "x_lo": _per_axis(_real), "x_hi": _per_axis(_real),
            "x_cells": _per_axis(_count), "a_lo": _positive, "a_hi": _positive,
            "a_cells": _count})}),
    "window": Forms(None, {"euclidean": _BOX_WINDOW, "lattice": _BOX_WINDOW, "axb": Form(
        "an ax+b window", {"radius": _positive, "beta": _positive})}),
    "local": _choice(("linf", "l1", "m"), "local component"),
    "component": Forms("type", {
        "lp": Form("an lp component", {"type": _chosen, "p": _exponent,
                                       "weight": _WEIGHT}),
        "lpq": Form("an lpq component", {"type": _on_axb, "p": _exponent, "q": _exponent,
                                         "weight": _WEIGHT})}, "lp"),
    "weight": _WEIGHT, "function": _FUNCTION, "f": _FUNCTION, "g": _FUNCTION,
    "family": Form("a family", {"kind": _family, "count": _count}),
    "p": _exponent, "q": _exponent,
    "weighted": _check(lambda v: isinstance(v, bool), "true or false"),
    "centers": _list_of(_real), "radii": _list_of(_positive),
    "lattice_spacing": _positive,
    "lattice": Form("an ax+b lattice", {
        "a0": _positive, "b0": _check(lambda v: _number(v) and 1 < v < math.inf,
                                      "a number > 1", float),
        "k_range": _range, "j_range": _range}),
    "y": _per_axis(_real), "b": _positive, "alpha": _real,
}

_ROW = ("p", "weight", "group", "grid", "family.count")
_LINE, _AXB = {"kind": "euclidean", "n": 1}, {"kind": "axb"}
# command -> (the sections it reads, the group values it fixes)
COMMANDS = {
    "norm": (("group", "grid", "window", "local", "component", "function"), {}),
    "doubling": (("group.n", "weight", "centers", "radii"), {}),
    "equivalence": (("group", "grid", "window", "local", "component",
                     "lattice_spacing", "family"), {"kind": "euclidean"}),
    "convolve": (("group", "grid", "f", "g"), {}),
    "verify cor_conv_Lp": (("p", "weighted"), {}),
    "verify thm_conv_a": (_ROW, _LINE),
    "verify thm_conv_b": (_ROW, _LINE),
    "verify thm_convYvee": (_ROW, _LINE),
    "verify axb_relation": (_ROW + ("q",), _AXB | {"n": 1}),
    "axb tilde-v": (("group", "grid", "lattice", "weight"), _AXB),
    "axb discrete-norm": (("group", "grid", "lattice", "weight", "p", "q"), _AXB),
    "axb translation-bound": (("group", "y", "b", "p", "q", "alpha"), _AXB),
}
# (command, section or section.key) -> the narrower check of what the command
# reads: cor_conv_Lp sums |x|^p, which has no meaning at p = inf, and ball
# integrals run at n = 1 and 2 only
_BALL_N = _check(lambda v: isinstance(v, int) and _number(v) and 1 <= v <= 2,
                 "n = 1 or 2, where ball integrals run")
_BALL_GROUP = SECTIONS["group"]._replace(keys=SECTIONS["group"].keys | {"n": _BALL_N})
# The R relations need v to be w-moderate, v(x + y) <= C w(x) v(y); no w
# bounds a power weight |x|^s that vanishes (s > 0) or has a pole (s < 0) at 0
_LINE_WEIGHT = _WEIGHT._replace(forms=_WEIGHT.forms | {"power": Form(
    "a power weight", {"family": _chosen, "s": _check(
        lambda v: _number(v) and v == 0, "s = 0 (|x|^s with s != 0 vanishes or has a "
        "pole at 0, so no weight w makes it w-moderate, as R's relations need)", float)},
        ("s",))})
NARROWED = {("verify cor_conv_Lp", "p"): _positive, ("doubling", "group.n"): _BALL_N,
            ("axb tilde-v", "group"): _BALL_GROUP,
            ("axb discrete-norm", "group"): _BALL_GROUP,
            **{(f"verify {row}", "weight"): _LINE_WEIGHT
               for row in ("thm_conv_a", "thm_conv_b", "thm_convYvee")}}


def check_config(cfg, command):
    """``cfg`` typed for ``command``, with ``group`` resolved: its given values
    over the command's fixed ones over kind euclidean, n = 1."""
    reads, fixed = COMMANDS[command]
    if not isinstance(cfg, dict):
        raise ConfigError(f"config: expected an object, got {type(cfg).__name__}")
    for key in cfg:
        if key not in SECTIONS:
            raise ConfigError(f"config.{key}: unknown key")
    sections = {}
    for name in reads:
        section, _, key = name.partition(".")
        check = NARROWED.get((command, name))
        sections[section] = (Form(command, {key: check or SECTIONS[section].keys[key]},
                                  reads=reads) if key else check or SECTIONS[section])
    form = Form(command, sections, reads=reads)
    given = _walk({"group": cfg["group"]} if "group" in cfg else {}, form, "config",
                  None).get("group", {})
    for key, own in fixed.items():
        if given.get(key, own) != own:
            raise ConfigError(f"config.group.{key}: {command} runs on {key} {own!r}, "
                              f"got {given[key]!r}")
    group = {"kind": "euclidean", "n": 1} | fixed | given
    return _walk(cfg, form, "config", group) | {"group": group}


def _walk(value, spec, path, group, section=None):
    """``value``, the config at ``path``, typed by ``spec``."""
    if not isinstance(spec, (Form, Forms)):
        try:
            return spec(value, group, section)
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from None
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected an object, got {type(value).__name__}")
    if isinstance(spec, Forms):
        choice = value.get(spec.key, spec.default) if spec.key else group["kind"]
        if choice is None:
            raise ConfigError(f"{path}.{spec.key}: missing required key")
        spec = spec.forms[_walk(choice, _choice(spec.forms, spec.key),
                                f"{path}.{spec.key}", group)]
    for key in value:
        if key not in spec.keys:
            raise ConfigError(f"{path}.{key}: {spec.name} reads "
                              f"{', '.join(spec.reads or spec.keys)}")
    typed = {}
    for key, check in spec.keys.items():
        if key in value:
            typed[key] = _walk(value[key], check, f"{path}.{key}", group, typed)
        elif key in spec.required:
            raise ConfigError(f"{path}.{key}: missing required key")
    return typed
