"""Concrete locally compact groups, adapted grids, and Haar quadrature.

Group elements are plain coordinate arrays of shape ``(..., dim)``:
``dim = n`` for the Euclidean group and the integer lattice, and
``dim = n + 1`` for the affine ``ax+b`` group, whose last coordinate is
the (strictly positive) dilation parameter.  All group operations are
vectorized over leading axes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as _iter_product

import numpy as np

from .errors import (
    DimensionMismatchError,
    EmptyGridError,
    InvalidElementError,
    NonFiniteSampleError,
)

_EPS = 1e-12


def _as_points(g, dim):
    g = np.asarray(g, dtype=float)
    if g.shape == () and dim == 1:
        g = g.reshape(1)
    if g.shape[-1] != dim:
        raise DimensionMismatchError(
            f"expected coordinate arrays with last axis {dim}, got shape {g.shape}"
        )
    return g


class GroupSpec:
    """Group law, inverse, identity, left-Haar density and modular function."""

    kind: str
    n: int
    dim: int

    def multiply(self, g, h):
        raise NotImplementedError

    def inverse(self, g):
        raise NotImplementedError

    @property
    def identity(self):
        raise NotImplementedError

    def haar_density(self, g):
        """Density of the left Haar measure w.r.t. coordinate Lebesgue/counting measure."""
        raise NotImplementedError

    def modular(self, g):
        raise NotImplementedError

    def check_element(self, g):
        """Validate element invariants; returns the coordinate array."""
        return _as_points(g, self.dim)

    def __eq__(self, other):
        return (
            isinstance(other, GroupSpec)
            and self.kind == other.kind
            and self.n == other.n
        )

    def __hash__(self):
        return hash((self.kind, self.n))

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n})"


class Euclidean(GroupSpec):
    """(R^n, +) with Lebesgue measure; unimodular."""

    kind = "euclidean"

    def __init__(self, n=1):
        self.n = int(n)
        self.dim = self.n

    def multiply(self, g, h):
        g = self.check_element(g)
        h = self.check_element(h)
        return g + h

    def inverse(self, g):
        return -self.check_element(g)

    @property
    def identity(self):
        return np.zeros(self.dim)

    def haar_density(self, g):
        g = self.check_element(g)
        return np.ones(g.shape[:-1])

    def modular(self, g):
        g = self.check_element(g)
        return np.ones(g.shape[:-1])


class IntegerLattice(GroupSpec):
    """(Z^n, +) with counting measure; unimodular and discrete."""

    kind = "lattice"

    def __init__(self, n=1):
        self.n = int(n)
        self.dim = self.n

    def check_element(self, g):
        g = _as_points(g, self.dim)
        if not np.allclose(g, np.round(g), atol=1e-9):
            raise InvalidElementError("lattice elements must have integral coordinates")
        return np.round(g)

    def multiply(self, g, h):
        return self.check_element(g) + self.check_element(h)

    def inverse(self, g):
        return -self.check_element(g)

    @property
    def identity(self):
        return np.zeros(self.dim)

    def haar_density(self, g):
        g = self.check_element(g)
        return np.ones(g.shape[:-1])

    def modular(self, g):
        g = self.check_element(g)
        return np.ones(g.shape[:-1])


class AxbGroup(GroupSpec):
    """Affine group R^n x R_+^* with law (x,a)(y,b) = (x + a y, a b).

    Left Haar measure is ``da/a^{n+1} dx`` and the modular function is
    ``a^{-n}``, so the group is non-unimodular for every n >= 1.
    """

    kind = "axb"

    def __init__(self, n=1):
        self.n = int(n)
        self.dim = self.n + 1

    def check_element(self, g):
        g = _as_points(g, self.dim)
        if np.any(g[..., -1] <= 0):
            raise InvalidElementError("axb elements need a strictly positive scale")
        return g

    def multiply(self, g, h):
        g = self.check_element(g)
        h = self.check_element(h)
        out = np.empty(np.broadcast_shapes(g.shape, h.shape))
        a = g[..., -1:]
        out[..., :-1] = g[..., :-1] + a * h[..., :-1]
        out[..., -1] = g[..., -1] * h[..., -1]
        return out

    def inverse(self, g):
        g = self.check_element(g)
        out = np.empty_like(g)
        out[..., :-1] = -g[..., :-1] / g[..., -1:]
        out[..., -1] = 1.0 / g[..., -1]
        return out

    @property
    def identity(self):
        e = np.zeros(self.dim)
        e[-1] = 1.0
        return e

    def haar_density(self, g):
        g = self.check_element(g)
        return g[..., -1] ** (-(self.n + 1))

    def modular(self, g):
        g = self.check_element(g)
        return g[..., -1] ** (-float(self.n))


def element(group, *coords):
    """Build a validated element from scalar coordinates."""
    return group.check_element(np.array(coords, dtype=float))


# ---------------------------------------------------------------------------
# Grids


class Grid:
    """Tensor-product grid adapted to a group, with Haar quadrature weights.

    ``axes`` hold the coordinate values per axis; ``interp_axes`` hold the
    coordinates in which multilinear interpolation is performed (identical
    to ``axes`` except on the axb group, where the scale axis interpolates
    in log-coordinates), and ``interp_steps`` their cell widths. Every
    interpolation axis is uniform, so the difference of two grid points is
    a whole number of steps per axis.

    Two interpolators share ``_axis_locate``: ``interpolate`` evaluates at
    scattered group points (a 2^d-corner sum), and ``interpolate_along``
    is one 2-tap pass along a single axis at 1-D queries. Multilinear
    interpolation on a tensor of queries is that pass folded over the
    axes, which is how convolution tabulates G on the offsets: on ax+b the
    scale axis once per convolution, the x axes once per source scale row.

    Grids compare by value: two grids are equal when they have the same
    type and the same ``metadata()``.
    """

    group: GroupSpec
    axes: tuple
    interp_axes: tuple
    interp_steps: tuple
    weights: np.ndarray
    shape: tuple

    def points(self):
        """All grid points as an (N, dim) array, C-ordered like ``values.ravel()``."""
        mesh = np.meshgrid(*self.axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def mesh(self):
        """Broadcastable coordinate arrays, one per axis."""
        return np.meshgrid(*self.axes, indexing="ij", sparse=True)

    @property
    def size(self):
        return int(np.prod(self.shape))

    def __eq__(self, other):
        return other is self or (type(other) is type(self)
                                 and other.metadata() == self.metadata())

    def __hash__(self):
        return hash((type(self), self.shape))

    def refine(self, factor=2):
        raise NotImplementedError

    def axis_queries(self, pts):
        """Per-axis interpolation coordinates for raw group points."""
        return [pts[..., k] for k in range(len(self.axes))]

    def interpolate(self, values, pts):
        """Multilinear interpolation of ``values`` at group points ``pts``.

        Points outside the grid window evaluate to zero (all sampled
        functions are treated as compactly supported in their window).
        """
        queries = self.axis_queries(np.asarray(pts, dtype=float))
        idx, frac, inside = [], [], None
        for ax, step, q in zip(self.interp_axes, self.interp_steps, queries):
            i0, f, ins = _axis_locate(ax, step, q)
            idx.append(i0)
            frac.append(f)
            inside = ins if inside is None else (inside & ins)
        out = np.zeros(np.broadcast_shapes(*[f.shape for f in frac]), dtype=values.dtype)
        for corner in _iter_product((0, 1), repeat=len(idx)):
            w = np.ones_like(out, dtype=float)
            gather = []
            for c, i0, f, ax in zip(corner, idx, frac, self.interp_axes):
                w = w * (f if c else (1.0 - f))
                gather.append(np.minimum(i0 + c, len(ax) - 1))
            out = out + w * values[tuple(gather)]
        return np.where(inside, out, 0.0)

    def interpolate_along(self, values, k, q):
        """Linear interpolation of ``values`` along axis ``k`` at the 1-D
        interpolation coordinates ``q``; the other axes are kept as they
        are. Queries outside the window along ``k`` give zero."""
        i0, frac, inside = _axis_locate(self.interp_axes[k], self.interp_steps[k], q)
        i0, frac = i0[inside], frac[inside]
        frac = frac.reshape((-1,) + (1,) * (values.ndim - 1 - k))
        lo = np.take(values, i0, axis=k)
        hi = np.take(values, np.minimum(i0 + 1, values.shape[k] - 1), axis=k)
        shape = values.shape[:k] + (len(q),) + values.shape[k + 1:]
        out = np.zeros(shape, dtype=np.result_type(values, 1.0))
        out[(slice(None),) * k + (inside,)] = (1.0 - frac) * lo + frac * hi
        return out


def _axis_locate(axis, step, q):
    """Locate queries on a uniform axis: lower index, fraction, inside mask."""
    m = len(axis)
    t = (q - axis[0]) / step
    # the window extends half a cell beyond the first/last midpoints
    inside = (t >= -0.5 - 1e-9) & (t <= m - 0.5 + 1e-9)
    tc = np.clip(t, 0.0, m - 1.0)
    i0 = np.clip(np.floor(tc).astype(int), 0, max(m - 2, 0))
    frac = tc - i0
    return i0, frac, inside


class UniformGrid(Grid):
    """Midpoint-rule tensor grid on a Euclidean window ``[lo, hi]^n``."""

    def __init__(self, group, lo, hi, cells):
        if not isinstance(group, Euclidean):
            raise InvalidElementError("UniformGrid requires a Euclidean group")
        self.group = group
        self.lo = np.broadcast_to(np.asarray(lo, dtype=float), (group.n,)).copy()
        self.hi = np.broadcast_to(np.asarray(hi, dtype=float), (group.n,)).copy()
        self.cells = tuple(np.broadcast_to(np.asarray(cells, dtype=int), (group.n,)))
        if any(c <= 0 for c in self.cells):
            raise EmptyGridError("grid needs at least one cell per axis")
        self.steps = (self.hi - self.lo) / np.array(self.cells)
        self.axes = tuple(
            self.lo[k] + (np.arange(self.cells[k]) + 0.5) * self.steps[k]
            for k in range(group.n)
        )
        self.interp_axes = self.axes
        self.interp_steps = tuple(self.steps)
        self.shape = tuple(self.cells)
        cell_volume = float(np.prod(self.steps))
        self.weights = np.full(self.shape, cell_volume)

    def refine(self, factor=2):
        return UniformGrid(self.group, self.lo, self.hi,
                           [c * factor for c in self.cells])

    def metadata(self):
        return {
            "kind": "euclidean",
            "lo": self.lo.tolist(),
            "hi": self.hi.tolist(),
            "cells": [int(c) for c in self.cells],
        }


class LatticeGrid(Grid):
    """Integer lattice points in a box window, counting-measure weights."""

    def __init__(self, group, lo, hi):
        if not isinstance(group, IntegerLattice):
            raise InvalidElementError("LatticeGrid requires an IntegerLattice group")
        self.group = group
        self.lo = np.broadcast_to(np.asarray(lo, dtype=int), (group.n,)).copy()
        self.hi = np.broadcast_to(np.asarray(hi, dtype=int), (group.n,)).copy()
        if np.any(self.hi < self.lo):
            raise EmptyGridError("lattice window is empty")
        self.axes = tuple(
            np.arange(self.lo[k], self.hi[k] + 1, dtype=float)
            for k in range(group.n)
        )
        self.interp_axes = self.axes
        self.shape = tuple(len(ax) for ax in self.axes)
        self.steps = np.ones(group.n)
        self.interp_steps = tuple(self.steps)
        self.weights = np.ones(self.shape)

    def refine(self, factor=2):
        # the lattice has no finer scale; refinement enlarges the window
        center = (self.lo + self.hi) / 2.0
        half = (self.hi - self.lo) / 2.0
        lo = np.floor(center - factor * half).astype(int)
        hi = np.ceil(center + factor * half).astype(int)
        return LatticeGrid(self.group, lo, hi)

    def index_of(self, pts):
        """Exact indices of lattice points; -1 where outside the window."""
        pts = self.group.check_element(pts)
        idx = np.round(pts - self.lo).astype(int)
        ok = np.all((idx >= 0) & (idx <= self.hi - self.lo), axis=-1)
        return idx, ok

    def interpolate(self, values, pts):
        idx, ok = self.index_of(pts)
        idx = np.clip(idx, 0, np.array(self.shape) - 1)
        out = values[tuple(np.moveaxis(idx, -1, 0))]
        return np.where(ok, out, 0.0)

    def metadata(self):
        return {
            "kind": "lattice",
            "lo": self.lo.tolist(),
            "hi": self.hi.tolist(),
        }


class AxbGrid(Grid):
    """Uniform x-grid times geometric (log-uniform) scale grid on ax+b.

    Quadrature weights follow the midpoint rule in (x, log a) coordinates,
    where the left Haar measure has density a^{-n}: every weight is
    strictly positive.
    """

    def __init__(self, group, x_lo, x_hi, x_cells, a_lo, a_hi, a_cells):
        if not isinstance(group, AxbGroup):
            raise InvalidElementError("AxbGrid requires an AxbGroup")
        if a_lo <= 0 or a_hi <= a_lo:
            raise InvalidElementError("scale window needs 0 < a_lo < a_hi")
        self.group = group
        n = group.n
        self.x_lo = np.broadcast_to(np.asarray(x_lo, dtype=float), (n,)).copy()
        self.x_hi = np.broadcast_to(np.asarray(x_hi, dtype=float), (n,)).copy()
        self.x_cells = tuple(np.broadcast_to(np.asarray(x_cells, dtype=int), (n,)))
        self.a_lo, self.a_hi, self.a_cells = float(a_lo), float(a_hi), int(a_cells)
        if any(c <= 0 for c in self.x_cells) or self.a_cells <= 0:
            raise EmptyGridError("grid needs at least one cell per axis")
        self.x_steps = (self.x_hi - self.x_lo) / np.array(self.x_cells)
        x_axes = tuple(
            self.x_lo[k] + (np.arange(self.x_cells[k]) + 0.5) * self.x_steps[k]
            for k in range(n)
        )
        self.u_lo, self.u_hi = np.log(self.a_lo), np.log(self.a_hi)
        self.u_step = (self.u_hi - self.u_lo) / self.a_cells
        self.u_axis = self.u_lo + (np.arange(self.a_cells) + 0.5) * self.u_step
        a_axis = np.exp(self.u_axis)
        self.axes = x_axes + (a_axis,)
        self.interp_axes = x_axes + (self.u_axis,)
        self.interp_steps = tuple(self.x_steps) + (self.u_step,)
        self.shape = tuple(self.x_cells) + (self.a_cells,)
        cell_volume = float(np.prod(self.x_steps)) * self.u_step
        self.weights = np.broadcast_to(
            cell_volume * a_axis ** (-float(n)), self.shape
        ).copy()

    def axis_queries(self, pts):
        qs = [pts[..., k] for k in range(self.group.n)]
        qs.append(np.log(np.maximum(pts[..., -1], 1e-300)))
        return qs

    def refine(self, factor=2):
        return AxbGrid(
            self.group, self.x_lo, self.x_hi,
            [c * factor for c in self.x_cells],
            self.a_lo, self.a_hi, self.a_cells * factor,
        )

    def metadata(self):
        return {
            "kind": "axb",
            "x_lo": self.x_lo.tolist(),
            "x_hi": self.x_hi.tolist(),
            "x_cells": [int(c) for c in self.x_cells],
            "a_lo": self.a_lo,
            "a_hi": self.a_hi,
            "a_cells": self.a_cells,
        }


# ---------------------------------------------------------------------------
# Sampled functions and Haar quadrature


@dataclass
class SampledFunction:
    """Function tabulated on a grid; arithmetic is pointwise."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.shape != self.grid.shape:
            raise DimensionMismatchError(
                f"values shape {self.values.shape} != grid shape {self.grid.shape}"
            )

    @classmethod
    def sample(cls, grid, fn):
        """Tabulate ``fn`` over the grid; ``fn`` receives broadcast coordinates."""
        vals = np.asarray(fn(*grid.mesh()))
        if not np.iscomplexobj(vals):
            vals = vals.astype(float)
        return cls(grid, np.broadcast_to(vals, grid.shape).copy())

    def eval_at(self, pts):
        return self.grid.interpolate(self.values, pts)

    def __abs__(self):
        return SampledFunction(self.grid, np.abs(self.values))

    def _coerce(self, other):
        if isinstance(other, SampledFunction):
            if other.grid != self.grid:
                raise DimensionMismatchError("operands live on different grids")
            return other.values
        return other

    def __add__(self, other):
        return SampledFunction(self.grid, self.values + self._coerce(other))

    def __sub__(self, other):
        return SampledFunction(self.grid, self.values - self._coerce(other))

    def __mul__(self, other):
        return SampledFunction(self.grid, self.values * self._coerce(other))

    __rmul__ = __mul__

    def copy(self):
        return SampledFunction(self.grid, self.values.copy())


def haar_integral(F):
    """Quadrature approximation of the left-Haar integral of ``F``."""
    if F.grid.size == 0:
        raise EmptyGridError("cannot integrate over an empty grid")
    if not np.all(np.isfinite(F.values)):
        raise NonFiniteSampleError("samples contain non-finite values")
    return np.sum(F.values * F.grid.weights)
