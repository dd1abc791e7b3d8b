"""The row loop of ``convolve`` against the per-row loop it replaced.

``_reference_row_convolution`` keeps the earlier loop: each scale row
locates its own queries and gathers its 2-tap lower and upper samples by
fancy indexing, one x axis at a time, and its table takes one ``rfftn``
(``fftn`` when complex). The row loop locates every row's queries once
per convolution, gathers into one workspace and transforms each table
axis by axis; it does the same arithmetic in the same order, so every
convolution here is equal entry for entry.
"""

import math
import tracemalloc
import warnings

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
    convolve,
)
from wamalgam import convolution
from wamalgam.convolution import _steps
from wamalgam.errors import TruncationWarning
from wamalgam.families import build_family
from wamalgam.groups import _axis_locate

_AXB80 = AxbGrid(AxbGroup(1), -6.0, 6.0, 80, 0.125, 8.0, 48)
_AXB160 = _AXB80.refine(2)


def _two_tap(grid, values, k, q, axis):
    """The 2-tap pass along ``axis`` (grid axis k) at coordinates ``q``,
    located here and gathered by fancy indexing."""
    values = np.asarray(values, dtype=np.result_type(values, 1.0))
    i0, frac, inside = _axis_locate(grid.interp_axes[k], grid.interp_steps[k], q)
    frac = frac.reshape((-1,) + (1,) * (values.ndim - 1 - axis))
    before = (slice(None),) * axis
    lo = values[before + (i0,)]
    hi = values[before + (np.minimum(i0 + 1, values.shape[axis] - 1),)]
    out = (1.0 - frac) * lo
    out += frac * hi
    out[before + (~inside,)] = 0.0
    return out


def _reference_tables(grid, table, size):
    """Each reaching row's table, as ``_Table.tables`` yields it, with the
    row's x queries (its reaching offsets over its scale ``a_j``) located
    and interpolated row by row."""
    buf = np.zeros([table.width] + list(size), table.dtype)
    first = [s - o for s, o in zip(table.start, table._origin)]
    for r, lo, hi, c0, x in table._plan:
        j = table._j0 + r
        scale = grid.axes[-1][j] if isinstance(grid, AxbGrid) else 1.0
        block = table._table[lo:hi]
        if not isinstance(grid, LatticeGrid):
            for k, (a, b) in enumerate(x):
                q = _steps(grid.interp_axes[k], first[k] + a, first[k] + b) / scale
                block = _two_tap(table._G.grid, block, k, q, axis=k + 1)
        K = buf[:hi - lo]
        K[...] = 0.0
        x_span = tuple(slice(a - o, b - o) for (a, b), o in zip(x, table._origin))
        K[(slice(None),) + x_span] = block
        yield j, slice(lo - c0, hi - c0), K


def _reference_row_convolution(grid, rows):
    """The row loop on F's ``grid``: one transform of F w, one ``rfftn``
    (``fftn``) per row table, one inverse of the summed spectra. Appends
    each row's index to ``rows``."""
    def row_convolution(fw, j0, table, size, xs, na):
        fft, ifft = ((np.fft.fftn, np.fft.ifftn) if table.dtype.kind == "c"
                     else (np.fft.rfftn, np.fft.irfftn))
        FW = fft(fw, size, xs)
        spec = np.zeros((na,) + FW.shape[1:], FW.dtype)
        for j, cols, K in _reference_tables(grid, table, size):
            rows.append(j)
            spec[cols] += FW[j - j0] * fft(K, axes=xs)
        return ifft(spec, size, xs)
    return row_convolution


def _axb_pairs(grid):
    return [(f.sample(grid), g.sample(grid)) for f, g in zip(
        build_family("axb-bumps", 6, 7), build_family("axb-bumps", 6, 8))]


def _gauss(grid, centre, widths):
    coords = grid.mesh()
    if isinstance(grid, AxbGrid):
        coords = list(coords[:-1]) + [np.log(coords[-1])]
    value = np.exp(-sum(w * (c - m) ** 2 for c, m, w in zip(coords, centre, widths)))
    return SampledFunction(grid, value * np.ones(grid.shape))


def _case(name):
    """``[(F, G), ...]`` for one named case."""
    if name in ("axb 80x48", "axb 160x96"):
        return _axb_pairs(_AXB80 if name == "axb 80x48" else _AXB160)
    if name.startswith("axb 80x48, "):
        [(F, G)] = _axb_pairs(_AXB80)[:1]
        phase = np.exp(1j * _AXB80.mesh()[0])
        if name.endswith("complex F"):
            return [(SampledFunction(_AXB80, F.values * phase), G)]
        if name.endswith("complex G"):
            return [(F, SampledFunction(_AXB80, G.values * phase))]
        rows = np.zeros(_AXB80.shape)
        rows[:, [5, 20, 33]] = 1.0
        return [(F, SampledFunction(_AXB80, G.values * rows))]
    if name == "axb n=2 24x24x16":
        grid = AxbGrid(AxbGroup(2), -3, 3, 24, 0.25, 4.0, 16)
        F = _gauss(grid, (0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
        G = _gauss(grid, (0.3, 0.0, 0.0), (2.0, 1.0, 2.0))
        complex_g = SampledFunction(grid, G.values * (1 + 0.5j * grid.mesh()[0]))
        return [(F, G), (F, complex_g)]
    if name in ("R 256", "R 2048"):
        grid = UniformGrid(Euclidean(1), -16, 16, int(name[2:]))
        bumps = [build_family("gaussian-bumps", 3, s, center_range=(-4.0, 4.0)) for s in (7, 8)]
        return [(f.sample(grid), g.sample(grid)) for f, g in zip(*bumps)]
    if name == "R2":
        grid = UniformGrid(Euclidean(2), -4, 4, 64)
        return [(_gauss(grid, (0.0, 0.0), (1.0, 2.0)), _gauss(grid, (1.0, 0.0), (1.0, 1.0)))]
    grid = LatticeGrid(IntegerLattice(1), -40, 40)
    rng = np.random.default_rng(3)
    near = [np.abs(grid.axes[0]) < r for r in (10, 7)]
    return [tuple(SampledFunction(grid, rng.random(grid.shape) * m) for m in near)]


CASES = ["axb 80x48", "axb 160x96", "axb 80x48, complex F", "axb 80x48, complex G",
         "axb 80x48, G on three scale rows", "axb n=2 24x24x16", "R 256", "R 2048", "R2",
         "Z, non-integral values"]


@pytest.mark.parametrize("case", CASES)
def test_row_loop_equals_the_reference_loop(monkeypatch, case):
    """Every entry and the dtype match the per-row loop, on every group."""
    rows = []
    for F, G in _case(case):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            got = convolve(F, G).values
            with monkeypatch.context() as patch:
                patch.setattr(convolution, "_row_convolution",
                              _reference_row_convolution(F.grid, rows))
                want = convolve(F, G).values
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    assert rows


def test_row_loop_allocates_no_table_per_row(monkeypatch):
    """The traced peak of a 160 x 96 ax+b convolution is the memory its
    buffers hold plus 64 kB. The buffers are F w and the output grid, the
    scale-tabulated table, the located rules, the spectra of F w, of the
    rows' sum and of one row; then either the row loop's FFT buffer,
    workspace and numpy's fixed iterator buffer of the broadcast product,
    or the inverse transform. A 2-tap temporary the size of a row's table
    is 160 kB or more here."""
    [(F, G)] = _axb_pairs(_AXB160)[:1]
    seen = {}
    row_convolution = convolution._row_convolution

    def capture(fw, j0, table, size, xs, na):
        seen.update(fw=fw, table=table, size=size, na=na)
        return row_convolution(fw, j0, table, size, xs, na)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        with monkeypatch.context() as patch:
            patch.setattr(convolution, "_row_convolution", capture)
            convolve(F, G)
        tracemalloc.start()
        try:
            convolve(F, G)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    table, size, na = seen["table"], seen["size"], seen["na"]
    spectrum = math.prod(size[:-1]) * (size[-1] // 2 + 1) * 16
    held = (2 * F.grid.size * 8 + table._table.nbytes
            + sum(i0.nbytes + frac.nbytes for i0, frac, _ in table._rules)
            + (len(seen["fw"]) + na + table.width) * spectrum)
    widest = max((hi - lo) * math.prod(b - a for a, b in x) for _, lo, hi, _, x in table._plan)
    rows = table.width * math.prod(size) * 8 + 2 * widest * 8 + np.getbufsize() * 16
    inverse = na * math.prod(size) * 8
    assert widest * 8 >= 160_000
    assert peak <= held + max(rows, inverse) + 64 * 1024
