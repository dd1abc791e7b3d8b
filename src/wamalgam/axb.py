"""Mixed-norm machinery specific to the affine ax+b group.

Covers the closed-form discrete norm for (L^{p,q}(v))_d over affine
lattices (inner weighted l^p over spatial indices with ball integrals of
the weight, outer l^q over scale levels with the scale-cell Haar factor)
and the right-translation operator bound for doubling weights. The
convolution relation that uses the bound is ax+b's set of spaces in
``relations.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .components import WeightFunction, ball_integral
from .errors import IndexMismatchError, InvalidExponentError, WeightDomainError


@dataclass
class BallWeightTable:
    """Ball integrals of a spatial weight over an affine lattice.

    Entry i is the integral of the weight over the ball centered at the
    spatial part of lattice point i with radius the point's scale
    coordinate.
    """

    lattice: object
    values: np.ndarray
    source: WeightFunction

    def __post_init__(self):
        if len(self.values) != len(self.lattice):
            raise IndexMismatchError("table length does not match the lattice")
        if np.any(self.values <= 0):
            raise WeightDomainError("ball integrals must be positive")

    @property
    def scales(self):
        return self.lattice.points[:, -1]


def compute_ball_weights(weight, lattice):
    """Tabulate ``int_{ball(x_i, a_i)} v`` over the lattice."""
    pts = lattice.points
    vals = np.empty(len(pts))
    for i, p in enumerate(pts):
        vals[i] = ball_integral(weight, p[:-1], p[-1])
        if not np.isfinite(vals[i]) or vals[i] <= 0:
            raise WeightDomainError(f"weight not integrable on ball({p[:-1]}, {p[-1]})")
    return BallWeightTable(lattice, vals, weight)


def lpq_discrete_norm(coefficients, table, p, q, n=1):
    """Closed-form discrete mixed norm over an affine lattice.

    ``( sum_j ( sum_k |c_{k,j}|^p w_{k,j} )^{q/p} a_j^{-n} )^{1/q}`` with
    the supremum over levels when q is infinite.
    """
    if not (0 < p < math.inf):
        raise InvalidExponentError("p must lie in (0, inf)")
    if not (q > 0):
        raise InvalidExponentError("q must be positive")
    coefficients = np.asarray(coefficients)
    if coefficients.shape[0] != len(table.values):
        raise IndexMismatchError("coefficients do not match the ball-weight table")
    scales = table.scales
    inner = {}
    for c, w, a in zip(np.abs(coefficients), table.values, scales):
        inner[a] = inner.get(a, 0.0) + float(c) ** p * w
    if q == math.inf:
        return max(v ** (1.0 / p) for v in inner.values())
    total = sum(v ** (q / p) * a ** (-float(n)) for a, v in inner.items())
    return total ** (1.0 / q)


def right_translation_bound(y, b, p, q, alpha, n=1):
    """Weight dominating the measure-action norm on W(L^inf, L^{p,q}(v)).

    ``b^{n(1+1/q)} (1 + |y|/b)^{alpha/p}`` where alpha is a certified
    doubling exponent of v; at the identity the bound is one.
    """
    if b <= 0:
        raise InvalidExponentError("scale coordinate must be positive")
    y_norm = np.linalg.norm(np.atleast_1d(np.asarray(y, dtype=float)))
    return float(_translation_bound(y_norm, b, p, q, alpha, n))


def _translation_bound(y_norm, b, p, q, alpha, n):
    inv_q = 0.0 if q == math.inf else 1.0 / q
    return b ** (n * (1.0 + inv_q)) * (1.0 + y_norm / b) ** (alpha / p)


def translation_bound_weight(p, q, alpha, n=1):
    """The bound packaged as a group-domain weight on ax+b coordinates."""

    def evaluate(pts):
        pts = np.asarray(pts, dtype=float)
        return _translation_bound(np.linalg.norm(pts[..., :-1], axis=-1),
                                  pts[..., -1], p, q, alpha, n)

    return WeightFunction("right-translation-bound", evaluate, domain="group",
                          params={"p": p, "q": q, "alpha": alpha, "n": n})

