"""Convolution's offset tables against scattered interpolation.

``convolve`` tabulates G on the whole-step offsets between grid points by
one 2-tap pass per axis; these tests rebuild each row's table from the
group points it stands for, with the 2^d-corner ``Grid.interpolate``.
"""

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
)
from wamalgam.convolution import _offset_tables


def _reference(grid, G, row):
    """G at the meshed query points of one row's table, in group coordinates."""
    n = grid.group.n
    offsets = [(np.arange(2 * N - 1) - (N - 1)) * h
               for N, h in zip(grid.shape, grid.interp_steps)]
    if isinstance(grid, AxbGrid):
        j = row[-1].start
        na = grid.shape[-1]
        a_j = grid.axes[-1][j]
        queries = [d / a_j for d in offsets[:n]]
        queries.append(np.exp(offsets[n][na - 1 - j:2 * na - 1 - j]))
    else:
        assert row == (...,)
        queries = offsets
    pts = np.stack(np.meshgrid(*queries, indexing="ij"), axis=-1)
    return G.grid.interpolate(G.values, pts)


def _tables(F_grid, G_grid, seed, complex_g=False):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(G_grid.shape)
    if complex_g:
        values = values + 1j * rng.standard_normal(G_grid.shape)
    G = SampledFunction(G_grid, values)
    fw = np.ones(F_grid.shape)
    return G, list(_offset_tables(F_grid, fw, G))


E1, E2 = Euclidean(1), Euclidean(2)
A1, A2 = AxbGroup(1), AxbGroup(2)

# (F's grid, G's grid). Where G's window is smaller, F's offsets run past
# it, and those listed land on its half-cell edge: +-3 on R (step 0.5),
# u = +-log 2 on ax+b (scale step log(2) / 2), x = +-2 at the row a = 1.
FLOAT_CASES = {
    "R": (UniformGrid(E1, -4, 4, 16), UniformGrid(E1, -4, 4, 16)),
    "R, G window edge on offsets": (UniformGrid(E1, -4, 4, 16),
                                    UniformGrid(E1, -3, 3, 12)),
    "R, G on another step": (UniformGrid(E1, -4, 4, 16),
                             UniformGrid(E1, -3, 3, 9)),
    "R2": (UniformGrid(E2, -3, 3, (8, 6)),
           UniformGrid(E2, [-2.0, -2.5], [2.0, 2.5], (8, 5))),
    "axb n=1": (AxbGrid(A1, -4, 4, 16, 0.25, 4.0, 8),
                AxbGrid(A1, -4, 4, 16, 0.25, 4.0, 8)),
    "axb n=1, G window edge on offsets": (AxbGrid(A1, -4, 4, 16, 0.25, 4.0, 8),
                                          AxbGrid(A1, -2, 2, 8, 0.5, 2.0, 4)),
    "axb n=1, row a = 1": (AxbGrid(A1, -4, 4, 16, 1 / 3, 3.0, 9),
                           AxbGrid(A1, -2, 2, 8, 0.5, 2.0, 5)),
    "axb n=1, G on another grid": (AxbGrid(A1, -4, 4, 12, 0.25, 4.0, 8),
                                   AxbGrid(A1, -3, 2, 10, 0.4, 3.0, 6)),
    "axb n=2": (AxbGrid(A2, [-2, -2], [2, 2], (6, 5), 0.5, 2.0, 4),
                AxbGrid(A2, [-2, -2], [2, 2], (6, 5), 0.5, 2.0, 4)),
    "axb n=2, G on another grid": (AxbGrid(A2, [-2, -2], [2, 2], (6, 5), 0.5, 2.0, 4),
                                   AxbGrid(A2, [-1.5, -2], [2, 1], (5, 4),
                                           0.6, 1.8, 3)),
}


@pytest.mark.parametrize("case", sorted(FLOAT_CASES))
def test_table_matches_scattered_interpolation(case):
    F_grid, G_grid = FLOAT_CASES[case]
    G, tables = _tables(F_grid, G_grid, seed=len(case))
    expected_rows = F_grid.shape[-1] if isinstance(F_grid, AxbGrid) else 1
    assert len(tables) == expected_rows
    for row, K in tables:
        want = _reference(F_grid, G, row)
        assert K.shape == want.shape
        assert np.abs(K - want).max() <= 1e-13 * np.abs(want).max()


def test_table_reaches_past_the_window_and_its_edge():
    """The edge cases above are live: some queries sit on G's half-cell
    edge (nonzero there) and some beyond it (exactly zero)."""
    F_grid, G_grid = FLOAT_CASES["R, G window edge on offsets"]
    G, [(_, K)] = _tables(F_grid, G_grid, seed=3)
    offsets = (np.arange(31) - 15) * 0.5
    assert K[offsets == 3.0] == G.values[-1] and K[offsets == -3.0] == G.values[0]
    assert np.all(K[np.abs(offsets) > 3.0] == 0.0)


def test_complex_table_matches_scattered_interpolation():
    F_grid, G_grid = FLOAT_CASES["axb n=1, G on another grid"]
    G, tables = _tables(F_grid, G_grid, seed=5, complex_g=True)
    for row, K in tables:
        want = _reference(F_grid, G, row)
        assert np.iscomplexobj(K)
        assert np.abs(K - want).max() <= 1e-13 * np.abs(want).max()


def test_rows_without_support_are_skipped():
    F_grid, G_grid = FLOAT_CASES["axb n=1"]
    G = SampledFunction(G_grid, np.ones(G_grid.shape))
    fw = np.zeros(F_grid.shape)
    fw[3, 2] = fw[7, 5] = 1.0
    rows = [row[-1].start for row, _ in _offset_tables(F_grid, fw, G)]
    assert rows == [2, 5]


@pytest.mark.parametrize("n", [1, 2])
def test_lattice_table_is_exact(n):
    """On Z^n the table holds G's samples bit for bit, including zeros
    beyond G's window, which here is smaller than F's."""
    group = IntegerLattice(n)
    F_grid = LatticeGrid(group, [-6] * n, [5] * n)
    G_grid = LatticeGrid(group, [-4] + [-3] * (n - 1), [3] + [4] * (n - 1))
    rng = np.random.default_rng(11)
    G = SampledFunction(G_grid, rng.integers(-2**40, 2**40, G_grid.shape).astype(float))
    [(row, K)] = list(_offset_tables(F_grid, np.ones(F_grid.shape), G))
    assert np.array_equal(K, _reference(F_grid, G, row))
    assert np.count_nonzero(K) == G_grid.size
