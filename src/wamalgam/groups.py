"""Concrete locally compact groups, adapted grids, and Haar quadrature.

Group elements are plain coordinate arrays of shape ``(..., dim)``:
``dim = n`` for the Euclidean group and the integer lattice, and
``dim = n + 1`` for the affine ``ax+b`` group, whose last coordinate is
the (strictly positive) dilation parameter.  All group operations are
vectorized over leading axes.

Each group writes its law once, coordinate-wise: ``multiply_coords``,
``inverse_coords`` and ``modular_coords`` take one array per coordinate,
any shapes that broadcast, such as a grid's ``mesh()``. The ``(..., dim)``
methods ``multiply``, ``inverse`` and ``modular`` validate their elements
and call them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import product as _iter_product

import numpy as np

from .errors import (
    DimensionMismatchError,
    EmptyGridError,
    InvalidElementError,
    NonFiniteSampleError,
)


def _as_points(g, dim):
    g = np.asarray(g, dtype=float)
    if g.shape == () and dim == 1:
        g = g.reshape(1)
    if g.shape[-1] != dim:
        raise DimensionMismatchError(
            f"expected coordinate arrays with last axis {dim}, got shape {g.shape}"
        )
    return g


def _coords(g):
    """The coordinates of an ``(..., dim)`` array, one view each."""
    return [g[..., k] for k in range(g.shape[-1])]


class GroupSpec:
    """Group law, inverse, identity and modular function."""

    kind: str
    n: int
    dim: int

    def multiply_coords(self, g, h):
        """The law ``g h`` on coordinates: ``g``, ``h`` and the result hold
        ``dim`` broadcastable arrays, one per coordinate."""
        raise NotImplementedError

    def inverse_coords(self, g):
        """``g^{-1}`` on coordinates, as in ``multiply_coords``."""
        raise NotImplementedError

    def modular_coords(self, g):
        """The modular function at coordinates ``g``: one broadcast array."""
        raise NotImplementedError

    def multiply(self, g, h):
        g, h = self.check_element(g), self.check_element(h)
        return np.stack(self.multiply_coords(_coords(g), _coords(h)), axis=-1)

    def inverse(self, g):
        return np.stack(self.inverse_coords(_coords(self.check_element(g))), axis=-1)

    @property
    def identity(self):
        raise NotImplementedError

    def modular(self, g):
        return self.modular_coords(_coords(self.check_element(g)))

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


class _Additive(GroupSpec):
    """(R^n, +) or (Z^n, +): coordinate addition, with the coordinate
    measure as Haar measure; unimodular."""

    def __init__(self, n=1):
        self.n = int(n)
        self.dim = self.n

    def multiply_coords(self, g, h):
        return [a + b for a, b in zip(g, h)]

    def inverse_coords(self, g):
        return [-a for a in g]

    def modular_coords(self, g):
        return np.ones(np.broadcast_shapes(*map(np.shape, g)))

    @property
    def identity(self):
        return np.zeros(self.dim)


def _integral_coords(g):
    """``g`` rounded to whole numbers; raises unless it is within 1e-9 of them."""
    if not np.allclose(g, np.round(g), atol=1e-9):
        raise InvalidElementError("lattice elements must have integral coordinates")
    return np.round(g)


class Euclidean(_Additive):
    """(R^n, +) with Lebesgue measure; unimodular."""

    kind = "euclidean"


class IntegerLattice(_Additive):
    """(Z^n, +) with counting measure; unimodular and discrete."""

    kind = "lattice"

    def check_element(self, g):
        return _integral_coords(_as_points(g, self.dim))


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

    def multiply_coords(self, g, h):
        a = g[-1]
        return [x + a * y for x, y in zip(g[:-1], h[:-1])] + [a * h[-1]]

    def inverse_coords(self, g):
        a = g[-1]
        return [-x / a for x in g[:-1]] + [1.0 / a]

    def modular_coords(self, g):
        return g[-1] ** (-float(self.n))

    @property
    def identity(self):
        e = np.zeros(self.dim)
        e[-1] = 1.0
        return e


def element(group, *coords):
    """Build a validated element from scalar coordinates."""
    return group.check_element(np.array(coords, dtype=float))


# ---------------------------------------------------------------------------
# Grids


def tensor_points(axes):
    """All points of the tensor product of 1-D ``axes`` as an (N, len(axes))
    array, in C order over the axes."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


class Grid:
    """Tensor-product grid adapted to a group, with Haar quadrature weights.

    ``axes`` hold the coordinate values per axis; ``interp_axes`` hold the
    coordinates in which multilinear interpolation is performed (identical
    to ``axes`` except on the axb group, where the scale axis interpolates
    in log-coordinates), and ``interp_steps`` their cell widths. Every
    interpolation axis is uniform, so the difference of two grid points is
    a whole number of steps per axis.

    Interpolation reads per-axis queries: the interpolation coordinates
    that ``axis_queries`` makes of group coordinates, one array per axis,
    which ``_axis_locate`` locates axis by axis. ``interpolate`` sums the
    2^d corners of the rule that ``corners`` gives, a flat gather and a
    weight each, at the shape the queries broadcast to. Scattered points give one query per point on
    every axis. A group law applied to ``mesh()`` gives N_k queries on
    axis k wherever it acts on each axis alone (every translation on R^n
    and Z^n, left translations on ax+b), so ``amalgam.translate`` and
    ``involution`` locate N_k queries per axis, not the N grid points.
    BUPU members at a measure's atoms read the same corners.
    ``interpolate_along`` is one 2-tap pass along a single axis by the rule
    that ``locate_along`` gives for 1-D queries, which may gather into and
    write to a caller's buffers. Multilinear interpolation on a tensor of
    queries is that pass folded over the axes, which is how convolution
    tabulates G on the offsets: on ax+b the scale axis once per
    convolution, the x axes once per source scale row, at the queries that
    ``window_range`` finds inside the window, located once per convolution.

    ``weight_factors`` splits ``weights`` into ``(x_volume, scale_weights)``,
    the factor along the last axis: ``u_step * a^{-n}`` on ax+b, else 1.
    ``weights`` itself, one float per grid point, is built on first use.

    Grids compare by value: two grids are equal when they have the same
    type and the same ``metadata()``.
    """

    group: GroupSpec
    axes: tuple
    interp_axes: tuple
    interp_steps: tuple
    weights: np.ndarray
    weight_factors: tuple
    shape: tuple

    def points(self):
        """All grid points as an (N, dim) array, C-ordered like ``values.ravel()``."""
        return tensor_points(self.axes)

    def mesh(self):
        """Broadcastable coordinate arrays, one per axis."""
        return np.meshgrid(*self.axes, indexing="ij", sparse=True)

    @property
    def size(self):
        return int(math.prod(self.shape))

    def __eq__(self, other):
        return other is self or (type(other) is type(self)
                                 and other.metadata() == self.metadata())

    def __hash__(self):
        return hash((type(self), self.shape))

    def refine(self, factor=2):
        raise NotImplementedError

    def axis_queries(self, coords):
        """Per-axis interpolation coordinates of group coordinates ``coords``,
        one broadcastable array per coordinate (``_coords`` of a point array,
        or a group law's result on ``mesh()``)."""
        return list(coords)

    def corners(self, queries):
        """Multilinear interpolation at per-axis ``queries`` (``axis_queries``)
        as a corner rule ``(base, corners, inside)``. ``corners`` lists
        ``(offset, factors)`` per grid corner: the corner's flat indices into
        ``values.ravel()`` are ``base + offset``, and its weight is the
        product of the per-axis ``factors`` (``corner_weight``). ``inside``
        masks the queries in the grid window. The arrays broadcast to the
        queries' shape.

        A lower index is at most the last cell's, so a corner's index is the
        lower corner's plus one stride per upper axis (none on an axis of
        one point, where the upper tap is the lower one).
        """
        strides = [math.prod(self.shape[k + 1:]) for k in range(len(self.shape))]
        base, taps, inside = 0, [], None
        for ax, step, q, stride in zip(self.interp_axes, self.interp_steps,
                                       queries, strides):
            i0, f, ins = _axis_locate(ax, step, q)
            base = base + i0 * stride
            taps.append(((0, 1.0 - f), (stride if len(ax) > 1 else 0, f)))
            inside = ins if inside is None else (inside & ins)
        corners = [(sum(u for u, _ in corner), [f for _, f in corner])
                   for corner in _iter_product(*taps)]
        return base, corners, inside

    def interpolate(self, values, queries):
        """Multilinear interpolation of ``values`` at per-axis ``queries``
        (``axis_queries``), at the shape they broadcast to.

        Queries outside the grid window evaluate to zero (all sampled
        functions are treated as compactly supported in their window).
        Each corner is gathered and weighted in buffers that the next
        corner reuses.
        """
        base, corners, inside = self.corners(queries)
        dtype = np.result_type(values, np.float64)
        flat = np.ravel(values).astype(dtype, copy=False)
        out = np.zeros(inside.shape, dtype)
        term, w = np.empty_like(out), np.empty(inside.shape)
        for offset, factors in corners:
            np.take(flat[offset:], base, out=term, mode="clip")
            out += np.multiply(corner_weight(factors, w), term, out=term)
        np.copyto(out, 0.0, where=~inside)
        return out

    def locate_along(self, k, q):
        """The 2-tap rule of the 1-D interpolation coordinates ``q`` along
        axis ``k``: per query the lower index and the fraction, and the
        positions of the queries outside the window, which
        ``interpolate_along`` sets to zero."""
        i0, frac, inside = _axis_locate(self.interp_axes[k], self.interp_steps[k], q)
        return i0, frac, np.flatnonzero(~inside)

    def interpolate_along(self, values, rule, axis, out=None, work=None):
        """Linear interpolation of ``values`` along its axis ``axis`` by a
        ``rule`` from ``locate_along`` on the grid axis that ``axis`` holds;
        the other axes are kept as they are. The result is written to ``out``
        when it is given. The lower and upper taps are gathered into
        ``work`` when it is given, a flat array of ``values``' float dtype
        with room for two results, and the result is then a view of it when
        ``out`` is not given."""
        values = np.asarray(values, dtype=np.result_type(values, 1.0))
        i0, frac, outside = rule
        frac = frac.reshape((-1,) + (1,) * (values.ndim - 1 - axis))
        before = (slice(None),) * axis
        shape = values.shape[:axis] + i0.shape + values.shape[axis + 1:]
        if work is None:
            lo, hi = np.empty(shape, values.dtype), np.empty(shape, values.dtype)
        else:
            size = math.prod(shape)
            lo, hi = work[:size].reshape(shape), work[size:2 * size].reshape(shape)
        np.take(values, i0, axis, out=lo, mode="clip")
        np.take(values, i0 + 1, axis, out=hi, mode="clip")  # clipped to the last index
        if out is None:
            out = lo
        np.multiply(1.0 - frac, lo, out=out)
        out += np.multiply(frac, hi, out=hi)
        if len(outside):
            out[before + (outside,)] = 0.0
        return out

    def window_range(self, k, q):
        """``(start, stop)`` per leading index of ``q``, whose coordinates
        increase along its last axis: the queries from ``start`` to ``stop``
        are the ones in the window along axis ``k``, which
        ``interpolate_along`` does not zero."""
        t, lo, hi = _axis_cells(self.interp_axes[k], self.interp_steps[k], q)
        return (t < lo).sum(axis=-1), (t <= hi).sum(axis=-1)


def corner_weight(factors, out=None):
    """The product of a corner's per-axis weight ``factors``, left to right,
    written to ``out`` when it is given; one factor is returned as it is."""
    w = factors[0]
    for f in factors[1:]:
        w = np.multiply(w, f, out=out)
    return w


def _axis_cells(axis, step, q):
    """Queries in steps from the first midpoint, and the window's bounds in
    the same unit: it extends half a cell beyond the first/last midpoints."""
    return (q - axis[0]) / step, -0.5 - 1e-9, len(axis) - 0.5 + 1e-9


def _axis_locate(axis, step, q):
    """Locate queries on a uniform axis: lower index, fraction, inside mask."""
    m = len(axis)
    t, lo, hi = _axis_cells(axis, step, q)
    inside = (t >= lo) & (t <= hi)
    # np.clip, as minimum and maximum without its per-call overhead
    t = np.minimum(np.maximum(t, 0.0), m - 1.0)
    # the lower index as a whole float, at most the last cell's (t >= 0)
    low = np.minimum(np.floor(t), max(m - 2, 0))
    frac = t - low
    del t  # free the clipped queries before the index array is made
    return low.astype(np.intp), frac, inside


def _window_steps(lo, hi, cells, lo_name, hi_name):
    """Widths of ``cells`` cells per axis from ``lo`` to ``hi``, and the cell
    volume, their product: both finite, or raises."""
    if not np.all(lo < hi):
        raise EmptyGridError(f"grid window is empty: it needs {lo_name} < {hi_name} "
                             f"on every axis, got {lo.tolist()} and {hi.tolist()}")
    with np.errstate(over="ignore"):
        steps = (hi - lo) / np.array(cells)
        volume = float(np.prod(steps))
    if not np.all(np.isfinite(steps)):
        raise InvalidElementError(f"grid window is too wide: {hi_name} - {lo_name} "
                                  f"overflows, got {lo.tolist()} and {hi.tolist()}")
    if not np.isfinite(volume):
        raise InvalidElementError(f"grid window is too wide: the cell volume, the "
                                  f"product of the cell widths {steps.tolist()}, "
                                  f"overflows")
    return steps, volume


def _integral(bound, name, n):
    """``bound`` broadcast to ``n`` integers; a fractional bound raises."""
    values = np.broadcast_to(np.asarray(bound, dtype=float), (n,))
    if not np.all(np.isfinite(values) & (values == np.round(values))):
        raise InvalidElementError(f"lattice bound {name} must be integral, got "
                                  f"{values.tolist()}")
    return values.astype(int)


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
        self.steps, volume = _window_steps(self.lo, self.hi, self.cells, "lo", "hi")
        self.axes = tuple(
            self.lo[k] + (np.arange(self.cells[k]) + 0.5) * self.steps[k]
            for k in range(group.n)
        )
        self.interp_axes = self.axes
        self.interp_steps = tuple(self.steps)
        self.shape = tuple(self.cells)
        self.weight_factors = (volume, 1.0)

    @cached_property
    def weights(self):
        return np.full(self.shape, self.weight_factors[0])

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
        self.lo, self.hi = (_integral(bound, name, group.n)
                            for bound, name in ((lo, "lo"), (hi, "hi")))
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
        self.weight_factors = (1.0, 1.0)

    @cached_property
    def weights(self):
        return np.ones(self.shape)

    def refine(self, factor=2):
        # the lattice has no finer scale; refinement enlarges the window
        center = (self.lo + self.hi) / 2.0
        half = (self.hi - self.lo) / 2.0
        lo = np.floor(center - factor * half).astype(int)
        hi = np.ceil(center + factor * half).astype(int)
        return LatticeGrid(self.group, lo, hi)

    def corners(self, queries):
        """The exact lookup of lattice points as a corner rule: one corner,
        weight 1. Raises off the lattice (``check_element``)."""
        index, ok = 0, None
        for q, lo, hi, m in zip(queries, self.lo, self.hi, self.shape):
            i = np.round(_integral_coords(q) - lo).astype(int)
            inside = (i >= 0) & (i <= hi - lo)
            ok = inside if ok is None else ok & inside
            index = index * m + np.clip(i, 0, m - 1)
        return index, [(0, [1.0])], ok

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
        self.x_steps, x_volume = _window_steps(self.x_lo, self.x_hi, self.x_cells,
                                               "x_lo", "x_hi")
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
        self.weight_factors = (x_volume, self.u_step * a_axis ** (-float(n)))

    @cached_property
    def weights(self):
        x_volume, a_axis, n = self.weight_factors[0], self.axes[-1], self.group.n
        return np.broadcast_to(x_volume * self.u_step * a_axis ** (-float(n)),
                               self.shape).copy()

    def axis_queries(self, coords):
        return [*coords[:-1], np.log(np.maximum(coords[-1], 1e-300))]

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
        """Interpolated values at the group points ``pts``, ``(..., dim)``."""
        grid = self.grid
        pts = _as_points(pts, grid.group.dim)
        return grid.interpolate(self.values, grid.axis_queries(_coords(pts)))

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
