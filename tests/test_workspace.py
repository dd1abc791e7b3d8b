"""The kernels keep their workspace across calls: after one call, a call on
the same shapes allocates no padded slide table, second fold buffer,
per-column gather buffer, row table, 2-tap workspace or spectrum. Each
call's traced peak is bounded by the arrays it must hold, listed in each
test, plus 64 kB."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from wamalgam import BoxWindow, Euclidean, SampledFunction, UniformGrid, control_function
from wamalgam import convolution
from wamalgam.amalgam import _reduce_rows, budgeted_stencil
from wamalgam.discretization import build_bupu, euclidean_lattice
from wamalgam.errors import TruncationWarning

from test_row_loop import _AXB160, _axb_pairs

_SLACK = 64 * 1024
_GRID = UniformGrid(Euclidean(2), -8.0, 8.0, 256)


def _second_peak(call):
    """The traced peak of ``call()`` run after one untraced call."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _function(rng):
    return SampledFunction(_GRID, rng.standard_normal(_GRID.shape))


@pytest.mark.parametrize("local", ["linf", "l1"])
def test_control_function_holds_only_its_outputs(rng, local):
    """A box control function holds the magnitudes and one output per
    slide, the last of which is the result."""
    F, window = _function(rng), BoxWindow.centered(0.5, 2)
    [[part]] = budgeted_stencil(window, _GRID)
    held = (1 + len(part)) * _GRID.size * 8
    assert len(part) == 2
    assert _second_peak(lambda: control_function(F, window, local)) <= held + _SLACK


@pytest.mark.parametrize("local", ["linf", "l1"])
def test_row_reduction_holds_one_gather(rng, local):
    """A reduction over the BUPU's operator holds the magnitudes, the one
    gather of its 262,144 entries (2 MB) and the result."""
    F = _function(rng)
    bupu = build_bupu(euclidean_lattice(_GRID, 1.0), BoxWindow.centered(1.0, 2), grid=_GRID)
    op = bupu.operator
    held = _GRID.size * 8 + len(op.indices) * 8 + len(op) * 8
    assert len(op.indices) == 262_144
    assert _second_peak(lambda: _reduce_rows(F, _GRID, op, local)) <= held + _SLACK


def test_row_loop_holds_no_spectrum(monkeypatch):
    """The row loop of a 160 x 96 ax+b convolution holds F w and the output
    grid, the scale-tabulated table, the located rules and the inverse
    transform: the spectra of F w, of the rows' sum and of a row, the row
    table and the 2-tap workspace are the workspace's. (The set-up before
    the loop peaks on its query matrices, which no kernel holds.)"""
    [(F, G)] = _axb_pairs(_AXB160)[:1]
    seen = {}
    row_convolution = convolution._row_convolution

    def traced(fw, j0, table, size, xs, na):
        tracemalloc.reset_peak()
        out = row_convolution(fw, j0, table, size, xs, na)
        seen.update(table=table, size=size, na=na, peak=tracemalloc.get_traced_memory()[1])
        return out

    monkeypatch.setattr(convolution, "_row_convolution", traced)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        _second_peak(lambda: convolution.convolve(F, G))
    table, size, na = seen["table"], seen["size"], seen["na"]
    spectrum = math.prod(size[:-1]) * (size[-1] // 2 + 1) * 16
    held = (2 * F.grid.size * 8 + table._table.nbytes
            + sum(i0.nbytes + frac.nbytes for i0, frac, _ in table._rules)
            + na * math.prod(size) * 8)
    assert (1 + na + table.width) * spectrum > 2 * _SLACK
    assert seen["peak"] <= held + _SLACK


def test_nested_blocks_do_not_overlap():
    """A block inside another carves after the other's arrays, and the
    buffer it grows leaves the enclosing block's arrays as they are."""
    from wamalgam.workspace import scratch

    with scratch(((3,), float)) as (outer,):
        outer[:] = 1.0
        with scratch(((1 << 16,), complex), ((5,), np.intp)) as (inner, index):
            inner[:] = 2.0
            index[:] = 3
            assert not np.shares_memory(outer, inner)
            assert not np.shares_memory(inner, index)
        assert np.array_equal(outer, np.ones(3))
