"""Oracles and bound slacks that only the tests use: Haar measures of
windows, covers of one box by translates of another, the lattice points
of a grid as a well-spread set, a BUPU's members and their sum as dense
sampled functions, and the operator-norm estimator with one sequence norm
per coefficient vector."""

import numpy as np

from wamalgam import (
    DiscreteSequence,
    Euclidean,
    IntegerLattice,
    OperatorNormBound,
    SampledFunction,
    WellSpreadSet,
    is_overflow,
    sequence_norm,
    translate,
)
from wamalgam.amalgam import _unclipped_cells
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


def per_vector_operator_norm(space, g, direction, grid, test_family, well_spread,
                             bracket_constant):
    """``estimate_translation_operator_norm`` at its default 32 random
    vectors and ``default_rng(0)``, scoring each coefficient vector with its
    own two ``sequence_norm`` calls: the reference for the stacked route."""
    group = grid.group
    g = group.check_element(np.asarray(g, dtype=float))
    lower = 0.0
    for F in test_family:
        base = space.norm(F)
        shifted = space.norm(translate(F, g, direction, coverage_warn=0.0))
        if is_overflow(base) or is_overflow(shifted) or base <= 0:
            continue
        lower = max(lower, shifted / base)
    rng = np.random.default_rng(0)
    modular_factor = 1.0
    if direction == "left":
        base_X, base_U = well_spread.translated(group.inverse(g)), space.window
        moved_X, moved_U = well_spread, space.window
    else:
        gg = g if direction == "right" else group.inverse(g)
        if direction == "measure":
            modular_factor = float(group.modular(gg))
        base_X, base_U = well_spread, space.window
        moved_X, moved_U = well_spread, space.window.right_cover(gg)
    ok = _unclipped_cells(base_X, base_U, grid) & _unclipped_cells(
        moved_X, moved_U, grid)
    vectors = [np.abs(rng.standard_normal(len(well_spread))) * ok for _ in range(32)]
    vectors.extend(np.eye(len(well_spread))[ok])
    ratio = 0.0
    Y = space.global_component
    for lam in vectors:
        num = sequence_norm(DiscreteSequence(lam, moved_X, Y, moved_U), grid)
        den = sequence_norm(DiscreteSequence(lam, base_X, Y, base_U), grid)
        if is_overflow(num) or is_overflow(den) or den <= 0:
            continue
        ratio = max(ratio, num / den)
    ratio *= modular_factor
    upper = bracket_constant**2 * ratio if ratio > 0 else np.inf
    return OperatorNormBound(lower=lower, upper=float(max(upper, lower)),
                             sequence_ratio=float(ratio),
                             bracket=float(bracket_constant), direction=direction,
                             g=tuple(g.tolist()),
                             cells_scanned=int(np.count_nonzero(ok)))
