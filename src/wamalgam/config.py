"""The CLI's config schema and its one validator.

``CONFIG_SCHEMA`` nests like a config: each key maps to the keys of its
section or to a check, which returns the value in its typed form or raises
``ValueError``. It types every key that some command reads; ``cli.READS``
then refuses each key that the command being run does not read, so a
config serves one command.
"""

from __future__ import annotations

import math
import re

from .components import WEIGHT_FAMILIES
from .errors import ConfigError
from .families import FAMILY_BUILDERS
from .groups import AxbGroup, Euclidean, IntegerLattice

GROUPS = {"euclidean": Euclidean, "lattice": IntegerLattice, "axb": AxbGroup}


def _number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _check(test, what, convert=None):
    """A check passing the values that satisfy ``test``, through ``convert``."""
    def checked(value):
        if not test(value):
            raise ValueError(f"expected {what}, got {value!r}")
        return value if convert is None else convert(value)
    return checked


def _list_of(check, length=None):
    what = f"a list of {length}" if length else "a list"
    return _check(lambda v: isinstance(v, list) and length in (None, len(v)), what,
                  lambda v: [check(x) for x in v])


def _per_axis(check):
    """One value, or a list of them, one per axis."""
    return lambda v: _list_of(check)(v) if isinstance(v, list) else check(v)


def _choice(options, noun):
    def checked(value):
        if not isinstance(value, str) or value not in options:
            raise ValueError(f"unknown {noun} {value!r}; choose from {sorted(options)}")
        return value
    return checked


_real = _check(lambda v: _number(v) and math.isfinite(v), "a finite number", float)
_positive = _check(lambda v: _number(v) and 0 < v < math.inf, "a positive number",
                   float)
# float() reads "inf" and "Infinity" as infinity
_exponent = _check(lambda v: v in ("inf", "Infinity") or _number(v) and v > 0,
                   'a positive number or "inf"', float)
_integer = _check(lambda v: _number(v) and isinstance(v, int), "an integer")
_count = _check(lambda v: _number(v) and isinstance(v, int) and v >= 1,
                "an integer >= 1")
_family = _choice(FAMILY_BUILDERS, "family")

_WEIGHT = {"family": _choice(WEIGHT_FAMILIES, "family"), "c": _real, "s": _real,
           "rate": _real, "knots": _list_of(_real), "values": _list_of(_real),
           "name": _check(lambda v: isinstance(v, str), "a string")}
_FUNCTION = {
    "kind": _choice(("indicator", "sequence", "bumps"), "function kind"),
    "lo": _per_axis(_real), "hi": _per_axis(_real), "family": _family,
    "entries": _check(
        lambda v: isinstance(v, dict) and all(re.fullmatch(r"-?\d+", k) for k in v),
        "an object with integer keys", lambda v: {int(k): _real(x) for k, x in v.items()}),
}

CONFIG_SCHEMA = {
    "group": {"kind": _choice(GROUPS, "kind"), "n": _count},
    "grid": {"lo": _per_axis(_real), "hi": _per_axis(_real), "cells": _per_axis(_count),
             "x_lo": _per_axis(_real), "x_hi": _per_axis(_real),
             "x_cells": _per_axis(_count), "a_lo": _positive, "a_hi": _positive,
             "a_cells": _count},
    "window": {"radius": _per_axis(_positive), "beta": _positive,
               "lo": _per_axis(_real), "hi": _per_axis(_real)},
    "local": _choice(("linf", "l1", "m"), "local component"),
    "component": {"type": _choice(("lp", "lpq"), "component type"),
                  "p": _exponent, "q": _exponent, "weight": _WEIGHT},
    "weight": _WEIGHT,
    "function": _FUNCTION,
    "f": _FUNCTION,
    "g": _FUNCTION,
    "family": {"kind": _family, "count": _count},
    "p": _exponent,
    "q": _exponent,
    "weighted": _check(lambda v: isinstance(v, bool), "true or false"),
    "centers": _list_of(_real),
    "radii": _list_of(_positive),
    "lattice_spacing": _positive,
    "lattice": {"a0": _positive, "b0": _positive, "k_range": _list_of(_integer, 2),
                "j_range": _list_of(_integer, 2)},
    "y": _per_axis(_real),
    "b": _positive,
    "alpha": _real,
}


def validate_config(cfg):
    """``cfg`` with every value in its typed form. An unknown key, a bad
    value or a section that is not an object raises one ``ConfigError``
    that names the key path of each."""
    errors = []
    typed = _walk(cfg, CONFIG_SCHEMA, "config", errors)
    if errors:
        raise ConfigError("\n".join(errors))
    return typed


def _walk(node, schema, path, errors):
    if not isinstance(node, dict):
        errors.append(f"{path}: expected an object, got {type(node).__name__}")
        return {}
    out = {}
    for key, value in node.items():
        check = schema.get(key)
        if check is None:
            errors.append(f"{path}.{key}: unknown key")
        elif isinstance(check, dict):
            out[key] = _walk(value, check, f"{path}.{key}", errors)
        else:
            try:
                out[key] = check(value)
            except ValueError as exc:
                errors.append(f"{path}.{key}: {exc}")
    return out
