"""Convolution's offset tables against scattered interpolation.

``convolve`` tabulates G on the whole-step offsets through which the
support box of F w reaches F's window, by one 2-tap pass per axis, scale
axis first; these tests rebuild each row's table from the group points it
stands for, with the 2^d-corner ``Grid.interpolate``, on every reaching
offset. A row tabulates only part of them: the columns and x queries it
leaves out must be exactly zero there.
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
from wamalgam.convolution import _Table, _support_box
from wamalgam.groups import Grid
from wamalgam.workspace import scratch


def _reach(grid, fw):
    """Per x axis, the offsets ``[lo, hi)`` in steps that reach the window
    from the support box of ``fw`` (scale axis first)."""
    box = _support_box(fw)
    return [(1 - f.stop, N - f.start) for f, N in zip(box[1:], grid.shape)]


def _reference(grid, G, j, reach):
    """G at the meshed query points of scale row j's table window on the
    offsets ``reach``, in group coordinates, scale axis first (a column axis
    of length 1 off ax+b)."""
    offsets = [np.arange(lo, hi) * h for (lo, hi), h in zip(reach, grid.interp_steps)]
    if not isinstance(grid, AxbGrid):
        assert j == 0
        return G.eval_at(_mesh(offsets))[None]
    na = grid.shape[-1]
    a_j = grid.axes[-1][j]
    queries = [d / a_j for d in offsets]
    queries.append(np.exp((np.arange(na) - j) * grid.interp_steps[-1]))
    return np.moveaxis(G.eval_at(_mesh(queries)), -1, 0)


def _mesh(queries):
    return np.stack(np.meshgrid(*queries, indexing="ij"), axis=-1)


def _sources(grid, box=None):
    """A source on every point of ``grid``, or of the sub-box ``box`` (in
    grid layout), scale axis first."""
    fw = np.zeros(grid.shape)
    fw[box or ...] = 1.0
    return np.moveaxis(fw, -1, 0) if isinstance(grid, AxbGrid) else fw[None]


def _tables(F_grid, G_grid, seed, box=None, complex_g=False):
    """G, the sources, the ``_Table`` and its rows, as ``{j: (cols, K)}``,
    each table copied out of the shared buffer, which holds exactly the
    table's offsets per x axis."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(G_grid.shape)
    if complex_g:
        values = values + 1j * rng.standard_normal(G_grid.shape)
    G = SampledFunction(G_grid, values)
    fw = _sources(F_grid, box)
    table = _Table(F_grid, fw, _support_box(fw), G)
    return G, fw, table, {j: (cols, K.copy()) for j, cols, K in _row_tables(table)}


def _row_tables(table):
    """``table.tables`` in a workspace block, each row's table at the
    table's own extent."""
    with scratch(*table.buffers(table.shape)) as buffers:
        yield from table.tables(*buffers)


def _embedded(table, reach, cols, K, columns):
    """Row table ``K`` on the output ``cols``, zero elsewhere, on every
    reaching offset."""
    full = np.zeros((columns,) + tuple(hi - lo for lo, hi in reach), K.dtype)
    x = tuple(slice(s - lo, s - lo + m) for s, m, (lo, _) in zip(table.start, table.shape, reach))
    full[(cols,) + x] = K
    return full


def _check_rows(F_grid, G, fw, table, tables):
    """Every row with a source that reaches G has a table. On every
    reaching offset it equals the reference to 1e-13 of the peak, and the
    reference is exactly zero wherever the row writes nothing."""
    reach = _reach(F_grid, fw)
    for j in range(len(fw)):
        want = _reference(F_grid, G, j, reach)
        if not np.any(fw[j]):
            assert j not in tables
            continue
        if j not in tables:
            assert not np.any(want), j
            continue
        cols, K = tables[j]
        assert K.shape == (cols.stop - cols.start,) + tuple(table.shape)
        assert np.iscomplexobj(K) == np.iscomplexobj(G.values)
        full = _embedded(table, reach, cols, K, len(want))
        assert not np.any(want[full == 0]), j
        assert np.abs(full - want).max() <= 1e-13 * np.abs(want).max()


E1, E2 = Euclidean(1), Euclidean(2)
A1, A2 = AxbGroup(1), AxbGroup(2)

# (F's grid, G's grid, the box of F's sources or None for every point).
# Where G's window is smaller, F's offsets run past it, and those listed
# land on its half-cell edge: +-3 on R (step 0.5), u = +-log 2 on ax+b
# (scale step log(2) / 2), x = +-2 at the row a = 1. Sources on part of the
# window reach fewer than the 2N - 1 offsets between grid points.
FLOAT_CASES = {
    "R": (UniformGrid(E1, -4, 4, 16), UniformGrid(E1, -4, 4, 16), None),
    "R, G window edge on offsets": (UniformGrid(E1, -4, 4, 16),
                                    UniformGrid(E1, -3, 3, 12), None),
    "R, G on another step": (UniformGrid(E1, -4, 4, 16),
                             UniformGrid(E1, -3, 3, 9), None),
    "R, F on part of its window": (UniformGrid(E1, -4, 4, 16),
                                   UniformGrid(E1, -3, 3, 9), (slice(5, 9),)),
    "R2": (UniformGrid(E2, -3, 3, (8, 6)),
           UniformGrid(E2, [-2.0, -2.5], [2.0, 2.5], (8, 5)), None),
    "R2, F on part of its window": (UniformGrid(E2, -3, 3, (8, 6)),
                                    UniformGrid(E2, [-2.0, -2.5], [2.0, 2.5], (8, 5)),
                                    (slice(0, 3), slice(2, 6))),
    "axb n=1": (AxbGrid(A1, -4, 4, 16, 0.25, 4.0, 8),
                AxbGrid(A1, -4, 4, 16, 0.25, 4.0, 8), None),
    "axb n=1, G window edge on offsets": (AxbGrid(A1, -4, 4, 16, 0.25, 4.0, 8),
                                          AxbGrid(A1, -2, 2, 8, 0.5, 2.0, 4), None),
    "axb n=1, row a = 1": (AxbGrid(A1, -4, 4, 16, 1 / 3, 3.0, 9),
                           AxbGrid(A1, -2, 2, 8, 0.5, 2.0, 5), None),
    "axb n=1, G on another grid": (AxbGrid(A1, -4, 4, 12, 0.25, 4.0, 8),
                                   AxbGrid(A1, -3, 2, 10, 0.4, 3.0, 6), None),
    "axb n=1, F on part of its window": (AxbGrid(A1, -4, 4, 16, 0.25, 4.0, 8),
                                         AxbGrid(A1, -3, 2, 10, 0.4, 3.0, 6),
                                         (slice(9, 14), slice(2, 5))),
    "axb n=2": (AxbGrid(A2, [-2, -2], [2, 2], (6, 5), 0.5, 2.0, 4),
                AxbGrid(A2, [-2, -2], [2, 2], (6, 5), 0.5, 2.0, 4), None),
    "axb n=2, G on another grid": (AxbGrid(A2, [-2, -2], [2, 2], (6, 5), 0.5, 2.0, 4),
                                   AxbGrid(A2, [-1.5, -2], [2, 1], (5, 4),
                                           0.6, 1.8, 3), None),
    "axb n=2, F on part of its window": (AxbGrid(A2, [-2, -2], [2, 2], (6, 5), 0.5, 2.0, 4),
                                         AxbGrid(A2, [-1.5, -2], [2, 1], (5, 4),
                                                 0.6, 1.8, 3),
                                         (slice(1, 3), slice(3, 5), slice(1, 3))),
}


@pytest.mark.parametrize("case", sorted(FLOAT_CASES))
def test_table_matches_scattered_interpolation(case):
    F_grid, G_grid, box = FLOAT_CASES[case]
    G, fw, table, tables = _tables(F_grid, G_grid, seed=len(case), box=box)
    assert sorted(tables) == table.rows == [j for j in range(len(fw)) if np.any(fw[j])]
    _check_rows(F_grid, G, fw, table, tables)
    if box is not None:
        reach = _reach(F_grid, fw)
        assert all(hi - lo < 2 * N - 1 for (lo, hi), N in zip(reach, F_grid.shape))


def test_table_reaches_past_the_window_and_its_edge():
    """The edge cases above are live: the queries at the table's ends sit
    on G's half-cell edge (nonzero there), and those beyond it, which the
    table leaves out, are exactly zero."""
    F_grid, G_grid, _ = FLOAT_CASES["R, G window edge on offsets"]
    G, fw, table, tables = _tables(F_grid, G_grid, seed=3)
    [K] = tables[0][1]
    offsets = (np.arange(table.shape[0]) + table.start[0]) * 0.5
    assert offsets[0] == -3.0 and offsets[-1] == 3.0
    assert K[0] == G.values[0] and K[-1] == G.values[-1]
    reach = (np.arange(31) - 15) * 0.5
    beyond = reach[np.abs(reach) > 3.0]
    assert beyond.size == 18
    assert np.all(G.eval_at(beyond[:, None]) == 0.0)


def test_complex_table_matches_scattered_interpolation():
    F_grid, G_grid, _ = FLOAT_CASES["axb n=1, G on another grid"]
    G, fw, table, tables = _tables(F_grid, G_grid, seed=5, complex_g=True)
    _check_rows(F_grid, G, fw, table, tables)


def test_rows_without_support_are_skipped():
    F_grid, G_grid, _ = FLOAT_CASES["axb n=1"]
    fw = np.zeros(F_grid.shape[::-1])
    fw[2, 3] = fw[5, 7] = 1.0
    G = SampledFunction(G_grid, np.ones(G_grid.shape))
    table = _Table(F_grid, fw, _support_box(fw), G)
    rows = [j for j, _, _ in _row_tables(table)]
    assert rows == table.rows == [2, 5]


@pytest.mark.parametrize("n", [1, 2])
def test_lattice_table_is_exact(monkeypatch, n):
    """On Z^n the table holds G's samples bit for bit, with no
    interpolation, and is zero beyond G's window, which here is smaller
    than F's; cut to G's support box, it drops G's zero edge."""
    group = IntegerLattice(n)
    F_grid = LatticeGrid(group, [-6] * n, [5] * n)
    G_grid = LatticeGrid(group, [-4] + [-3] * (n - 1), [3] + [4] * (n - 1))
    rng = np.random.default_rng(11)
    G = SampledFunction(G_grid, rng.integers(-2**40, 2**40, G_grid.shape).astype(float))
    monkeypatch.setattr(Grid, "interpolate_along", None)
    fw = _sources(F_grid)
    reach = _reach(F_grid, fw)
    for edge in (False, True):
        if edge:
            G.values[0] = 0.0
        table = _Table(F_grid, fw, _support_box(fw), G)
        [(j, cols, K)] = list(_row_tables(table))
        assert j == 0 and cols == slice(0, 1)
        assert np.array_equal(table.values, K)
        assert table.start == [G_grid.lo[0] + edge] + G_grid.lo.tolist()[1:]
        full = _embedded(table, reach, cols, K, 1)
        assert np.array_equal(full, _reference(F_grid, G, j, reach))
        assert np.count_nonzero(K) == np.count_nonzero(G.values) == K.size
