"""Translations and involutions on the grid's mesh against the dense-points route.

``translate`` and ``involution`` apply the group law to ``Grid.mesh()``,
one broadcastable array per axis, and interpolate from per-axis queries,
so an action on each axis alone locates N_k queries per axis. The route
they replaced built every grid point as an ``(N, dim)`` array, applied the
``(..., dim)`` law to it and interpolated at the scattered points, 2^d
corners gathered by per-axis index tuples. It is kept here as the
reference: every point sees the same arithmetic in the same corner order,
so the results are equal bit for bit.
"""

import tracemalloc
from itertools import product

import numpy as np
import pytest

from wamalgam import (
    AxbGrid,
    AxbGroup,
    Euclidean,
    IntegerLattice,
    LatticeGrid,
    SampledFunction,
    UniformGrid,
    involution,
    translate,
)
from wamalgam.groups import _axis_locate

GRIDS = {
    "R1": UniformGrid(Euclidean(1), -4.0, 4.0, 64),
    "R2": UniformGrid(Euclidean(2), [-4.0, -3.0], [4.0, 5.0], [48, 40]),
    "R2-one-cell": UniformGrid(Euclidean(2), -1.0, 1.0, [1, 24]),
    "Z2": LatticeGrid(IntegerLattice(2), [-6, -5], [6, 7]),
    "axb1": AxbGrid(AxbGroup(1), -6.0, 6.0, 40, 0.125, 8.0, 24),
    "axb2": AxbGrid(AxbGroup(2), -4.0, 4.0, [16, 12], 0.25, 4.0, 10),
}

SHIFTS = {
    "R1": [[0.37], [-2.9]],
    "R2": [[0.37, -1.21], [3.3, 2.05]],
    "R2-one-cell": [[0.2, -0.13], [0.0, 0.41]],
    "Z2": [[2, -3], [-7, 1]],
    "axb1": [[0.7, 1.3], [-2.2, 0.41]],
    "axb2": [[0.7, -0.4, 1.3], [-1.1, 0.9, 0.6]],
}


# ---------------------------------------------------------------------------
# The dense-points route


def _reference_multiply(group, g, h):
    if isinstance(group, AxbGroup):
        g, h = np.broadcast_arrays(g, h)
        out = np.empty(g.shape)
        out[..., :-1] = g[..., :-1] + g[..., -1:] * h[..., :-1]
        out[..., -1] = g[..., -1] * h[..., -1]
        return out
    return group.check_element(g) + group.check_element(h)


def _reference_inverse(group, g):
    if isinstance(group, AxbGroup):
        out = np.empty_like(g)
        out[..., :-1] = -g[..., :-1] / g[..., -1:]
        out[..., -1] = 1.0 / g[..., -1]
        return out
    return -group.check_element(g)


def _reference_modular(group, g):
    if isinstance(group, AxbGroup):
        return g[..., -1] ** (-float(group.n))
    return np.ones(g.shape[:-1])


def _reference_interpolate(grid, values, pts):
    """Interpolation at scattered ``(..., dim)`` points, corner by corner."""
    pts = np.asarray(pts, dtype=float)
    if isinstance(grid, LatticeGrid):
        pts = grid.group.check_element(pts)
        idx = np.round(pts - grid.lo).astype(int)
        inside = np.all((idx >= 0) & (idx <= grid.hi - grid.lo), axis=-1)
        idx = np.clip(idx, 0, np.array(grid.shape) - 1)
        corners = [(tuple(np.moveaxis(idx, -1, 0)), 1.0)]
    else:
        queries = [pts[..., k] for k in range(len(grid.axes))]
        if isinstance(grid, AxbGrid):
            queries[-1] = np.log(np.maximum(pts[..., -1], 1e-300))
        idx, frac, inside = [], [], None
        for ax, step, q in zip(grid.interp_axes, grid.interp_steps, queries):
            i0, f, ins = _axis_locate(ax, step, q)
            idx.append(i0)
            frac.append(f)
            inside = ins if inside is None else (inside & ins)
        corners = []
        for corner in product((0, 1), repeat=len(idx)):
            w, gather = 1.0, []
            for c, i0, f, ax in zip(corner, idx, frac, grid.interp_axes):
                w = w * (f if c else (1.0 - f))
                gather.append(np.minimum(i0 + c, len(ax) - 1))
            corners.append((tuple(gather), w))
    out = np.zeros(inside.shape, dtype=values.dtype)
    for index, w in corners:
        out = out + w * values[index]
    return np.where(inside, out, 0.0)


def _reference_translate(F, g, direction):
    grid, group = F.grid, F.grid.group
    g = group.check_element(np.asarray(g, dtype=float))
    pts = grid.points()
    factor = 1.0
    if direction == "left":
        args = _reference_multiply(group, _reference_inverse(group, g), pts)
    elif direction == "right":
        args = _reference_multiply(group, pts, g)
    else:
        ginv = _reference_inverse(group, g)
        args = _reference_multiply(group, pts, ginv)
        factor = float(_reference_modular(group, ginv))
    return factor * _reference_interpolate(grid, F.values, args).reshape(grid.shape)


def _reference_involution(F, kind):
    grid, group = F.grid, F.grid.group
    inv = _reference_inverse(group, grid.points())
    vals = _reference_interpolate(grid, F.values, inv).reshape(grid.shape)
    if kind in ("conj_reverse", "adjoint"):
        vals = np.conj(vals)
    if kind == "adjoint":
        vals = vals * _reference_modular(group, inv).reshape(grid.shape)
    return vals


# ---------------------------------------------------------------------------


def _same(a, b):
    """Equal arrays, bit for bit: the sign of every zero included."""
    a, b = np.asarray(a), np.asarray(b)
    return (a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)
            and a.tobytes() == b.tobytes())


def _function(grid, seed, complex_values=False):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(grid.shape)
    if complex_values:
        values = values + 1j * rng.standard_normal(grid.shape)
    return SampledFunction(grid, values)


@pytest.mark.parametrize("name", list(GRIDS))
@pytest.mark.parametrize("direction", ["left", "right", "measure"])
@pytest.mark.parametrize("complex_values", [False, True])
def test_translate_matches_the_dense_route(name, direction, complex_values):
    grid = GRIDS[name]
    F = _function(grid, 3, complex_values)
    for g in SHIFTS[name]:
        out = translate(F, g, direction, coverage_warn=0.0)
        assert _same(out.values, _reference_translate(F, g, direction))


@pytest.mark.parametrize("name", list(GRIDS))
@pytest.mark.parametrize("kind", ["reverse", "conj_reverse", "adjoint"])
@pytest.mark.parametrize("complex_values", [False, True])
def test_involution_matches_the_dense_route(name, kind, complex_values):
    F = _function(GRIDS[name], 4, complex_values)
    assert _same(involution(F, kind).values, _reference_involution(F, kind))


@pytest.mark.parametrize("name", list(GRIDS))
def test_eval_at_matches_the_dense_route(name):
    grid = GRIDS[name]
    F = _function(grid, 5)
    rng = np.random.default_rng(6)
    pts = grid.points()[rng.choice(grid.size, 60)]
    if isinstance(grid, LatticeGrid):
        pts = pts + rng.integers(-9, 10, pts.shape)  # some fall outside
    elif isinstance(grid, AxbGrid):
        pts = pts * rng.uniform(0.5, 1.8, pts.shape)
    else:
        pts = pts + rng.uniform(-1.5, 1.5, pts.shape)
    assert _same(F.eval_at(pts), _reference_interpolate(grid, F.values, pts))
    # one point, and a block of points with two leading axes
    assert _same(F.eval_at(pts[7]), _reference_interpolate(grid, F.values, pts[7]))
    block = pts[:24].reshape(4, 6, -1)
    assert _same(F.eval_at(block), _reference_interpolate(grid, F.values, block))


def _peak_ratio(F, g, direction):
    translate(F, g, direction, coverage_warn=0.0)  # warm-up
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        translate(F, g, direction, coverage_warn=0.0)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    return peak / F.values.nbytes


def test_translation_memory_stays_a_few_arrays():
    """A translation holds the result, one gather and one weight buffer, the
    flat lower-corner indices and per-axis queries; the dense route peaked
    at 13.1x the values on the same 256^2 R^2 translation."""
    plane = UniformGrid(Euclidean(2), -8.0, 8.0, 256)
    F = SampledFunction.sample(plane, lambda x, y: np.exp(-x * x - y * y / 4.0))
    assert _peak_ratio(F, [1.37, -1.52], "right") < 6.0
    axb = AxbGrid(AxbGroup(1), -6.0, 6.0, 320, 0.125, 8.0, 192)
    G = SampledFunction.sample(axb, lambda x, a: np.exp(-x * x - np.log(a) ** 2))
    assert _peak_ratio(G, [0.7, 1.3], "left") < 6.0
