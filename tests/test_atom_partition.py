"""The atom partition against the ``np.unique`` refinement it replaced.

``_atom_partition`` refines the labels one row at a time: row i gives its
points with old label l the label fresh + rank of l among the row's old
labels. It finds the ranks with two relabel tables; the refinement kept
here takes them from ``np.unique``'s inverse. The numbering must be the
same, because every per-atom sum runs in atom order.
"""

import numpy as np
import pytest

from wamalgam import (
    AxbGrid,
    AxbGroup,
    AxbWindow,
    BoxWindow,
    Euclidean,
    IntegerLattice,
    LatticeGrid,
    UniformGrid,
    WellSpreadSet,
    build_axb_lattice,
    build_bupu,
    euclidean_lattice,
)
from wamalgam.discretization import AtomPartition, _atom_partition

from oracles import integer_lattice_set


def _reference_partition(op):
    labels = np.zeros(op.size, dtype=np.intp)
    fresh = 1
    for row in op:
        old, inverse = np.unique(labels[row], return_inverse=True)
        labels[row] = fresh + inverse
        fresh += len(old)
    used = np.zeros(fresh, dtype=bool)
    used[labels] = True
    count = int(np.count_nonzero(used))
    labels = (np.cumsum(used) - 1).astype(np.min_scalar_type(count - 1))[labels]
    is_point = np.zeros(op.size, dtype=bool)
    point = np.empty(count, dtype=np.intp)
    point[labels] = np.arange(op.size)
    is_point[point] = True
    hits = np.flatnonzero(is_point[op.indices])
    return AtomPartition(labels, np.searchsorted(hits, op.indptr),
                         labels[op.indices[hits]], count)


def _operator(name):
    if name.startswith("box") or name == "moved-box" or name == "hat-bupu":
        grid = UniformGrid(Euclidean(2), -4.0, 4.0, [64, 48])
        X = euclidean_lattice(grid, 1.0)
        window = BoxWindow.centered(1.0, 2)
        if name == "moved-box":
            window = window.right_cover((0.37, -0.61))
        if name == "hat-bupu":
            return build_bupu(X, window, grid=grid).operator
        if name == "box-offset":
            X = euclidean_lattice(grid, 0.75, origin=0.3)
        return X.cell_masks(window, grid)
    if name == "axb-cover":
        grid = AxbGrid(AxbGroup(1), -4.0, 4.0, 64, 0.25, 4.0, 40)
        X = build_axb_lattice(0.5, 2.0, j_range=(-1, 1), grid=grid, x_extent=3.0)
        window = AxbWindow(0.5, 1.5).right_cover([0.7, 1.3])
        return X.cell_masks(window, grid)
    if name == "lattice":
        grid = LatticeGrid(IntegerLattice(2), -9, 9)
        X = WellSpreadSet(np.array([[i, j] for i in range(-9, 10, 3)
                                    for j in range(-9, 10, 2)], dtype=float), grid=grid)
        return X.cell_masks(BoxWindow((-1.0, -2.0), (2.0, 1.0)), grid)
    if name == "lattice-every-point":
        # one row per grid point: many small rows, many labels
        grid = LatticeGrid(IntegerLattice(2), -12, 12)
        return integer_lattice_set(grid).cell_masks(BoxWindow.centered(1.0, 2), grid)
    raise ValueError(name)


@pytest.mark.parametrize("name", ["box", "box-offset", "moved-box", "hat-bupu",
                                  "axb-cover", "lattice", "lattice-every-point"])
def test_partition_matches_the_unique_refinement(name):
    op = _operator(name)
    got, want = _atom_partition(op), _reference_partition(op)
    assert got.count == want.count > 1
    for field in ("labels", "indptr", "indices"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and np.array_equal(a, b), field


def test_partition_of_an_operator_without_rows():
    grid = UniformGrid(Euclidean(1), 0.0, 1.0, 8)
    op = WellSpreadSet(np.zeros((0, 1)), grid=grid).cell_masks(
        BoxWindow.centered(0.5, 1), grid)
    got, want = _atom_partition(op), _reference_partition(op)
    assert got.count == want.count == 1
    assert np.array_equal(got.labels, want.labels)
