"""The sliding-window kernels behind the control functions on box and ax+b
windows, against brute force and the per-row loops they replace."""

import tracemalloc

import numpy as np
import pytest

from wamalgam import AxbGrid, AxbGroup, AxbWindow, SampledFunction, control_function
from wamalgam.amalgam import _sliding_max, _sliding_sum
from wamalgam.windows import _TOL


def _brute(values, axis, lo, hi, reduce):
    """``reduce`` over the offsets lo..hi along ``axis``, one at a time,
    with zeros outside the array."""
    V = np.moveaxis(values, axis, 0)
    m = len(V)
    out = np.empty(V.shape)
    for i in range(m):
        out[i] = reduce([V[i + d] if 0 <= i + d < m else np.zeros(V.shape[1:])
                         for d in range(lo, hi + 1)], axis=0)
    return np.moveaxis(out, 0, axis)


def _windows(m, rng):
    """Windows on an axis of m indices: the listed edge cases, then random."""
    yield from [(0, 0), (3, 3), (-3, -3), (1, m + 2), (-m - 2, -1), (2, 4),
                (-5, -2), (-m - 4, m + 4), (-2 * m, 0), (m, 2 * m), (-1, 1)]
    for _ in range(20):
        lo = int(rng.integers(-2 * m - 2, 2 * m + 3))
        yield lo, int(rng.integers(lo, lo + 3 * m + 3))


def test_sliding_max_equals_brute_force(rng):
    for _ in range(40):
        shape = tuple(rng.integers(1, 8, rng.integers(1, 4)))
        values = rng.standard_normal(shape)
        axis = int(rng.integers(len(shape)))
        for lo, hi in _windows(shape[axis], rng):
            assert np.array_equal(_sliding_max(values, axis, lo, hi),
                                  _brute(values, axis, lo, hi, np.max))


def test_sliding_sum_matches_brute_force(rng):
    for _ in range(40):
        shape = tuple(rng.integers(1, 8, rng.integers(1, 4)))
        values = rng.standard_normal(shape)
        axis = int(rng.integers(len(shape)))
        for lo, hi in _windows(shape[axis], rng):
            assert np.allclose(_sliding_sum(values, axis, lo, hi),
                               _brute(values, axis, lo, hi, np.sum),
                               rtol=1e-13, atol=1e-13)


def test_per_column_windows_equal_each_column_alone(rng):
    """Windows that vary along the other axis read each column exactly as a
    window of that column alone would."""
    for _ in range(60):
        m, cols = (int(k) for k in rng.integers(1, 24, 2))
        values = rng.standard_normal((m, cols))
        lo = rng.integers(-2 * m - 2, 2 * m + 3, cols)
        hi = lo + rng.integers(0, 3 * m + 3, cols)
        maxima, sums = _sliding_max(values, 0, lo, hi), _sliding_sum(values, 0, lo, hi)
        for j in range(cols):
            window = int(lo[j]), int(hi[j])
            assert np.array_equal(maxima[:, j], _brute(values[:, j], 0, *window, np.max))
            assert np.array_equal(sums[:, j], _sliding_sum(values[:, j], 0, *window))


# Reference kernels: a sliding-window view reduced at once, a cumulative
# sum over a copy padded by the whole window, and the ax+b control as one
# pass per scale row.

def _reference_max(values, axis, lo, hi):
    m = values.shape[axis]
    pad_l, pad_r = max(0, -lo), max(0, hi)
    padding = [(0, 0)] * values.ndim
    padding[axis] = (pad_l, pad_r)
    S = np.lib.stride_tricks.sliding_window_view(np.pad(values, padding),
                                                 hi - lo + 1, axis=axis)
    index = [slice(None)] * S.ndim
    index[axis] = slice(lo + pad_l, lo + pad_l + m)
    return S[tuple(index)].max(axis=-1)


def _reference_sum(values, axis, lo, hi):
    m = values.shape[axis]
    pad_l, pad_r = max(0, -lo), max(0, hi)
    padding = [(0, 0)] * values.ndim
    padding[axis] = (pad_l + 1, pad_r)
    cs = np.cumsum(np.pad(values, padding), axis=axis)
    upper = [slice(None)] * cs.ndim
    lower = [slice(None)] * cs.ndim
    upper[axis] = slice(hi + pad_l + 1, hi + pad_l + 1 + m)
    lower[axis] = slice(lo + pad_l, lo + pad_l + m)
    return cs[tuple(upper)] - cs[tuple(lower)]


def _reference_axb_control(F, window, local):
    grid = F.grid
    absF = np.abs(F.values)
    d_u = int(np.floor(np.log(window.beta) / grid.u_step * (1 + _TOL) + _TOL))
    a_axis = grid.axes[-1]
    hx = float(grid.x_steps[0])
    if local == "linf":
        staged = _reference_max(absF, 1, -d_u, d_u)
    else:
        staged = _reference_sum(absF * (grid.u_step * a_axis ** -1.0), 1, -d_u, d_u)
    out = np.empty_like(staged)
    for j, a in enumerate(a_axis):
        d_x = int(np.floor(window.radius * a / hx * (1 + _TOL) + _TOL))
        if local == "linf":
            out[:, j] = _reference_max(staged[:, j], 0, -d_x, d_x)
        else:
            out[:, j] = _reference_sum(staged[:, j], 0, -d_x, d_x)
    return out if local == "linf" else out * hx


@pytest.mark.parametrize("local", ["linf", "l1"])
@pytest.mark.parametrize("cells, radius, beta", [
    ((80, 48), 0.5, 1.5), ((160, 96), 0.5, 1.5), ((37, 21), 1.3, 2.5),
    ((64, 32), 0.1, 1.1), ((16, 8), 20.0, 4.0)])
def test_axb_control_equals_the_per_row_loop(rng, local, cells, radius, beta):
    grid = AxbGrid(AxbGroup(1), -6, 6, cells[0], 0.125, 8.0, cells[1])
    F = SampledFunction(grid, rng.standard_normal(grid.shape)
                        + 1j * rng.standard_normal(grid.shape))
    window = AxbWindow(radius, beta)
    assert np.array_equal(control_function(F, window, local).values,
                          _reference_axb_control(F, window, local))


@pytest.mark.parametrize("kernel", [_sliding_max, _sliding_sum])
def test_box_kernels_equal_the_reference_kernels(rng, kernel):
    reference = _reference_max if kernel is _sliding_max else _reference_sum
    for _ in range(40):
        shape = tuple(rng.integers(1, 12, rng.integers(1, 3)))
        values = np.abs(rng.standard_normal(shape))
        axis = int(rng.integers(len(shape)))
        for lo, hi in _windows(shape[axis], rng):
            assert np.array_equal(kernel(values, axis, lo, hi),
                                  reference(values, axis, lo, hi))


@pytest.mark.parametrize("axis", [0, 1])
def test_sliding_max_memory_stays_linear(rng, axis):
    """A window longer than the axis costs a few copies of the input, not one
    per offset."""
    values = rng.random((256, 256))
    tracemalloc.start()
    try:
        _sliding_max(values, axis, -300, 300)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * values.nbytes
