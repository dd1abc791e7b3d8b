"""Oracles and bound slacks that only the tests use: Haar measures of
windows, covers of one box by translates of another, the lattice points
of a grid as a well-spread set, and a BUPU's members and their sum as
dense sampled functions."""

import numpy as np

from wamalgam import Euclidean, IntegerLattice, SampledFunction, WellSpreadSet
from wamalgam.errors import InvalidElementError
from wamalgam.groups import tensor_points
from wamalgam.windows import _TOL


def window_haar_measure(window, grid, base=None):
    """Quadrature Haar measure of ``base . window`` (defaults to identity)."""
    if base is None:
        base = grid.group.identity
    mask = window.contains(np.asarray(base, dtype=float), grid.points())
    return float(np.sum(grid.weights * mask.reshape(grid.shape)))


def cover_by_translates(big, small, group):
    """Translates ``y_j`` with ``big`` contained in the union of ``small . y_j``.

    Implemented for boxes on abelian groups: tile the big box by copies of
    the small box. Used for window-robustness bounds.
    """
    if not isinstance(group, (Euclidean, IntegerLattice)):
        raise InvalidElementError("covering helper supports abelian box windows only")
    lo_b, hi_b = np.asarray(big.lo), np.asarray(big.hi)
    lo_s, hi_s = np.asarray(small.lo), np.asarray(small.hi)
    width_s = hi_s - lo_s
    if np.any(width_s <= 0):
        raise InvalidElementError("small window must have positive volume")
    counts = np.maximum(1, np.ceil((hi_b - lo_b) / width_s - _TOL).astype(int))
    axes = []
    for k in range(len(counts)):
        # bases chosen so translates small + y tile [lo_b, hi_b] on axis k
        starts = lo_b[k] + np.arange(counts[k]) * width_s[k]
        starts = np.minimum(starts, hi_b[k] - width_s[k])
        axes.append(starts - lo_s[k])
    offsets = tensor_points(axes)
    if isinstance(group, IntegerLattice):
        offsets = np.round(offsets)
    return offsets


def integer_lattice_set(grid):
    """All points of a LatticeGrid as a well-spread set."""
    return WellSpreadSet(grid.points(), grid=grid)


def dense_member(bupu, i):
    """Member i of a BUPU as a dense SampledFunction, from its operator's row."""
    op = bupu.operator
    row = slice(op.indptr[i], op.indptr[i + 1])
    out = np.zeros(bupu.grid.size)
    out[op.indices[row]] = op.values[row]
    return SampledFunction(bupu.grid, out.reshape(bupu.grid.shape))


def member_sum(bupu):
    """The pointwise sum of a BUPU's members as a dense SampledFunction."""
    op = bupu.operator
    total = np.bincount(op.indices, weights=op.values, minlength=op.size)
    return SampledFunction(bupu.grid, total.reshape(bupu.grid.shape))
