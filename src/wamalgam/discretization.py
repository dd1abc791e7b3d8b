"""Well-spread point sets, covering certificates, and partitions of unity.

Point families are stored with the ambient grid they discretize. Density
and separation certificates are numerical: density is probed on the
grid, separation is an exact all-pairs intersection count of translated
windows, with closed sets so touching boundaries count as overlapping and
the constants stay conservative.

The layer works through one sparse operator per (X, window, grid): row i of
a ``CellOperator`` holds the sorted flat grid indices of the cell
``x_i . window``, stored CSR-style (``indptr``, ``indices``). Windows are
read only through their methods, so no line here branches on a window's
or a grid's type, and a window is given base points and the grid's axes,
never the group. One builder, ``_product_rows``, writes the rows in place
from per-factor arrays: ``window.axis_masks(bases, axes)`` (boolean, the
factors of ``contains``) for cells, and ``window.axis_hats(bases, axes)``
(float, the factors of the hat) for BUPU members, which also keep the
product of the factors' values. A factor is one grid axis, or for the
affine windows the raveled x sub-grid and the scale axis, so a cell row is
bit-identical to ``contains`` on all grid points. The builder asks the
window for the factors of a whole block of base points at once, so the
temporaries stay one block, and writes each row as one outer sum of its
supports' flat strides and one outer product of their values. A right
translate is covered by ``window.right_cover(g)``: a box moved by g, or on
ax+b an ``AxbCoverWindow``, whose rows are built the same way.
Separation counts come from ``window.overlaps``.

A ``Bupu`` holds its members once, as one ``CellOperator`` with values
(``bupu.operator``); ``member_indices`` and ``member_values`` are read-only
views of its rows. A local norm weights |F| on the grid (l1), gathers it
once over the operator's entries, multiplies by the members' values and
takes one ``reduceat``. Step
functions ``sum_i c_i chi_{x_i . window}`` are constant on the atoms of the
cover, the sets of grid points covered by the same rows; the operator
builds its ``AtomPartition`` once, on first use, and a step function is one
``np.bincount`` over the atoms the rows cover. ``verify_bupu`` stays an
independent per-point check.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property, reduce

import numpy as np

from .errors import DensityError, EmptyGridError, InvalidElementError
from .groups import tensor_points

_TOL = 1e-9
# entries of one block array: the factor entries and divisions of the hat
# and cell builders, and the weights of the atom sums of a stack of vectors
_OWNER_BLOCK = 1 << 16


@dataclass(frozen=True, eq=False)
class CellOperator:
    """Sparse |X| x N operator over a grid of N points, stored CSR-style.

    Row i is ``indices[indptr[i]:indptr[i+1]]``, sorted flat grid indices;
    ``values`` holds the row entries' values (a BUPU's members) or is None
    for a 0/1 membership operator. Iterating yields the rows. ``atoms``,
    built on first use, groups the grid points by the rows covering them;
    step functions of the rows (``scatter``, ``sequence_norm``) are
    computed per atom, and the atoms keep their per-p measures.
    """

    indptr: np.ndarray
    indices: np.ndarray
    size: int
    values: np.ndarray | None = None

    def __len__(self):
        return len(self.indptr) - 1

    def __getitem__(self, i):
        return self.indices[self.indptr[i]:self.indptr[i + 1]]

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    @cached_property
    def counts(self):
        return np.diff(self.indptr)

    @cached_property
    def atoms(self):
        """The atoms of the cover: grid points grouped by their covering rows.

        Built once per operator, on first use, by ``_atom_partition``.
        """
        return _atom_partition(self)

    def reduce(self, ufunc, entries):
        """Per-row ``ufunc.reduceat`` of per-entry values; empty rows give 0."""
        out = np.zeros(len(self), dtype=entries.dtype)
        full = self.counts > 0
        if full.any():
            out[full] = ufunc.reduceat(entries, self.indptr[:-1][full])
        return out

    def scatter(self, coefficients):
        """Flat ``sum_i c_i chi_{row i}`` over the grid: per-atom sums, gathered."""
        atoms = self.atoms
        return atoms.sums(coefficients)[atoms.labels]


@dataclass(eq=False)
class AtomPartition:
    """Grid points grouped by the set of rows of a ``CellOperator`` covering them.

    ``labels[x]`` is the atom of grid point x; the points no row covers form
    one atom of their own. Atom ``a`` lies inside row i or misses it, and
    the atoms row i covers are ``indices[indptr[i]:indptr[i+1]]`` (CSR). A
    step function ``sum_i c_i chi_{row i}`` is constant on every atom.
    """

    labels: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    count: int
    _measures: dict = field(default_factory=dict, repr=False)

    def sums(self, coefficients):
        """Per-atom ``sum_i c_i`` over the rows covering the atom, for one
        vector of row coefficients or for each vector of a (V, rows) stack.

        A block of vectors takes one ``np.bincount`` over the flat bins
        ``v * count + atom``, with the weights in row order within each
        vector; a block holds at most ``_OWNER_BLOCK`` weights, or one
        vector. ``np.bincount`` adds in entry order, so each atom sums its
        rows in row order, as every grid point of it did in a per-point
        sum, and a vector's sums are bit-identical alone or in a stack.
        """
        coefficients = np.asarray(coefficients)
        if coefficients.ndim == 1:
            return self.sums(coefficients[None])[0]
        entries = len(self.indices)
        block = max(1, _OWNER_BLOCK // max(entries, 1))
        # one vector's bins are its atoms: no offsets to add
        bins = self.indices if len(coefficients) == 1 else (
            np.arange(min(block, len(coefficients)))[:, None] * self.count
            + self.indices).ravel()
        out = np.empty((len(coefficients), self.count))
        for start in range(0, len(coefficients), block):
            rows = coefficients[start:start + block]
            out[start:start + len(rows)] = np.bincount(
                bins[:len(rows) * entries],
                weights=np.repeat(rows, self.lengths, axis=1).ravel(),
                minlength=len(rows) * self.count).reshape(len(rows), self.count)
        return out

    @cached_property
    def lengths(self):
        """The number of atoms each row covers."""
        return np.diff(self.indptr)

    def measure(self, p, weight, quadrature):
        """Per-atom ``sum_{x in a} w(x)^p mu(x)``, or ``max_{x in a} w(x)`` at p = inf.

        ``weight`` (None for w = 1) and ``quadrature`` (mu) are arrays on
        the operator's grid. One result is kept per p while ``weight`` is
        the same array: pass the read-only array ``WeightFunction.on_grid``
        returns, which it keeps for the last grid.
        """
        cached = self._measures.get(p)
        if cached is not None and cached[0] is weight:
            return cached[1]
        if p == np.inf and weight is None:
            out = np.ones(self.count)
        elif p == np.inf:
            out = np.zeros(self.count)
            np.maximum.at(out, self.labels, weight.ravel())
        else:
            mass = quadrature.ravel()
            if weight is not None:
                mass = weight.ravel() ** p * mass
            out = np.bincount(self.labels, weights=mass, minlength=self.count)
        self._measures[p] = (weight, out)
        return out


def _atom_partition(op):
    """The ``AtomPartition`` of ``op``, by refining one row at a time.

    Points share a label exactly when the rows seen so far cover both or
    neither: row i gives its points with old label l the fresh label of
    the pair (l, i), fresh plus the rank of l among the row's old labels
    (the inverse of ``np.unique``). Two relabel tables over the labels find
    the ranks in O(row) and a sort of the row's distinct labels: ``at[l]``
    keeps one position of label l in the row, so the positions p with
    ``at[old[p]] == p`` hold each old label once, and ``to[l]`` is the new
    label. A row adds at most one label per entry, so the tables need one
    slot per entry and one. The labels in use are then renumbered
    0..count-1 and stored in the smallest unsigned type. Each row covers an
    atom whole, so the entries at one point per atom give the atoms of
    every row. The temporaries stay O(grid + fresh labels), with no array
    over all entries but one boolean mask.
    """
    labels = np.zeros(op.size, dtype=np.intp)
    fresh = 1
    at, to = (np.empty(len(op.indices) + 1, dtype=np.intp) for _ in range(2))
    positions = np.arange(op.counts.max(initial=0))
    for row in op:
        old = labels[row]
        place = positions[:len(old)]
        at[old] = place
        distinct = np.sort(old[at[old] == place])
        to[distinct] = fresh + positions[:len(distinct)]
        labels[row] = to[old]
        fresh += len(distinct)
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


def _product_rows(points, factors, grid):
    """The ``CellOperator`` whose row i is the product of the supports of the
    per-factor arrays ``factors(x_i, grid.axes)``.

    A factor is one grid axis or an affine window's raveled x sub-grid; C
    order over the factors is C order on the grid. Float factors (hats)
    also give the row's values, the products of the factors' values on the
    supports. Those are positive: a hat value is at least 2^-53, and a row
    multiplies a few of them.

    The window is called once per block of points: the first block is one
    point, which gives the factors' lengths, and the others hold about
    ``_OWNER_BLOCK`` factor entries. Each factor's supports are split by
    row, so every row's length is known before any row is written; a row
    is one outer sum of its supports' flat strides (indices) and one outer
    product of their values, left to right.
    """
    counts, columns, on_support = [], [], []
    valued, start, block = False, 0, 1
    while start < len(points):
        arrays = factors(points[start:start + block], grid.axes)
        if start == 0:
            lengths = [f.shape[1] for f in arrays]
            strides = np.cumprod([1] + lengths[:0:-1])[::-1]
            valued = arrays[0].dtype != bool
        masks = [f > 0 for f in arrays]
        counts.append([np.count_nonzero(m, axis=1) for m in masks])
        columns.append([np.nonzero(m)[1] * s for m, s in zip(masks, strides)])
        if valued:
            on_support.append([f[m] for f, m in zip(arrays, masks)])
        start += block
        block = max(1, _OWNER_BLOCK // sum(lengths))
    counts = [np.concatenate(c) for c in zip(*counts)] or [np.zeros(0, dtype=np.intp)]
    indptr = np.zeros(len(points) + 1, dtype=np.intp)
    np.cumsum(np.prod(counts, axis=0), out=indptr[1:])
    indices = np.empty(indptr[-1], dtype=np.intp)
    values = np.empty(indptr[-1]) if valued else None
    offsets = [np.concatenate([[0], np.cumsum(c)]).tolist() for c in counts]
    columns = [np.concatenate(c) for c in zip(*columns)]
    on_support = [np.concatenate(v) for v in zip(*on_support)]
    bounds = indptr.tolist()
    for i in np.flatnonzero(np.diff(indptr)).tolist():
        row = slice(bounds[i], bounds[i + 1])
        parts = [slice(o[i], o[i + 1]) for o in offsets]
        indices[row] = reduce(np.add.outer, [c[k] for c, k in zip(columns, parts)]).ravel()
        if valued:
            values[row] = reduce(np.multiply.outer,
                                 [v[k] for v, k in zip(on_support, parts)]).ravel()
    return CellOperator(indptr, indices, grid.size, values)


def _grid_point(grid, flat):
    """Coordinates of the grid point with C-order flat index ``flat``."""
    idx = np.unravel_index(flat, grid.shape)
    return np.array([ax[i] for ax, i in zip(grid.axes, idx)])


@dataclass
class WellSpreadSet:
    """Indexed point family with cached covering/separation certificates."""

    points: np.ndarray
    grid: object = None
    labels: np.ndarray | None = None

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        self._mask_cache = {}

    def __len__(self):
        return len(self.points)

    def cell_masks(self, window, grid):
        """The ``CellOperator`` of the translates ``x_i . window``, cached by
        the window's and the grid's values (windows are frozen dataclasses)."""
        key = (window, grid)
        if key not in self._mask_cache:
            self._mask_cache[key] = _product_rows(self.points, window.axis_masks,
                                                  grid)
        return self._mask_cache[key]

    def translated(self, g):
        """The point family ``g . x_i``."""
        g = np.asarray(g, dtype=float)
        moved = self.grid.group.multiply(g[None, :], self.points)
        return WellSpreadSet(moved, grid=self.grid, labels=self.labels)


def check_relatively_separated(X, window):
    """Exact maximum overlap count of the translates ``x_i . window``."""
    if len(X) == 0:
        raise EmptyGridError("separation check needs a nonempty point set")
    return int(window.overlaps(X.points).sum(axis=0).max())


def check_density(X, window):
    """Verify that the translates ``x_i . window`` cover the grid of X.

    Returns the covering certificate; raises DensityError naming the first
    uncovered grid point otherwise.
    """
    grid = X.grid
    if grid is None:
        raise EmptyGridError("density check needs a point set with a grid")
    covered = np.zeros(grid.size, dtype=bool)
    covered[X.cell_masks(window, grid).indices] = True
    if not covered.all():
        missing = _grid_point(grid, int(np.argmin(covered)))
        raise DensityError(
            f"point set is not dense for window {window.descriptor()}", missing
        )
    return {"window": window.descriptor(), "probes": grid.size, "covered": True}


def euclidean_lattice(grid, spacing, origin=0.0):
    """Points ``origin + spacing * Z^n`` clipped to the grid window."""
    lo = np.atleast_1d(grid.lo)
    hi = np.atleast_1d(grid.hi)
    origin = np.broadcast_to(np.asarray(origin, dtype=float), lo.shape)
    spacing = np.broadcast_to(np.asarray(spacing, dtype=float), lo.shape)
    axes = []
    for k in range(len(lo)):
        kmin = int(np.ceil((lo[k] - origin[k]) / spacing[k] - _TOL))
        kmax = int(np.floor((hi[k] - origin[k]) / spacing[k] + _TOL))
        axes.append(origin[k] + spacing[k] * np.arange(kmin, kmax + 1))
    return WellSpreadSet(tensor_points(axes), grid=grid)


def build_axb_lattice(a0, b0, k_range=None, j_range=(0, 0), grid=None, n=1,
                      x_extent=None):
    """Affine lattice ``(a0 b0^{-j} k, b0^{-j})`` for k in Z^n, j in Z.

    The spatial spacing scales with the level, so the family is well
    spread; density for ``AxbWindow(r, beta)`` holds whenever
    ``r >= a0 * sqrt(n) / 2`` and ``beta >= sqrt(b0)``; ``check_density``
    certifies it numerically on the grid. ``k_range`` fixes the
    index range on every level; ``x_extent`` instead keeps the spatial
    extent constant by widening the index range on finer levels.
    """
    if a0 <= 0 or b0 <= 1:
        raise InvalidElementError("need a0 > 0 and b0 > 1")
    if k_range is None and x_extent is None:
        raise InvalidElementError("need k_range or x_extent")
    js = np.arange(j_range[0], j_range[1] + 1)
    pts = []
    labels = []
    for j in js:
        scale = float(b0) ** (-float(j))
        if x_extent is not None:
            kmax = int(np.ceil(x_extent / (a0 * scale)))
            krange_j = (-kmax, kmax)
        else:
            krange_j = k_range
        ks = [np.arange(krange_j[0], krange_j[1] + 1) for _ in range(n)]
        kvecs = tensor_points(ks)
        block = np.empty((len(kvecs), n + 1))
        block[:, :-1] = a0 * scale * kvecs
        block[:, -1] = scale
        pts.append(block)
        labels.extend((tuple(kv), int(j)) for kv in kvecs)
    return WellSpreadSet(np.concatenate(pts, axis=0), grid=grid,
                         labels=np.array(labels, dtype=object))


# ---------------------------------------------------------------------------
# Bounded uniform partitions of unity


class _RowViews(Sequence):
    """Read-only views ``data[indptr[i]:indptr[i+1]]`` of one CSR array's rows."""

    def __init__(self, indptr, data):
        self._indptr, self._data = indptr, data

    def __len__(self):
        return len(self._indptr) - 1

    def __getitem__(self, i):
        i = range(len(self))[i]
        row = self._data[self._indptr[i]:self._indptr[i + 1]]
        row.flags.writeable = False
        return row


@dataclass
class Bupu:
    """Partition of unity subordinate to ``x_i . size_window``.

    ``operator`` holds the members, one ``CellOperator`` row each: flat grid
    indices and values, nonnegative, bounded by one, and summing to one at
    every grid point. ``member_indices`` and ``member_values`` are read-only
    per-member views of it.
    """

    base_set: WellSpreadSet
    size_window: object
    grid: object
    operator: CellOperator

    def __len__(self):
        return len(self.operator)

    @property
    def member_indices(self):
        return _RowViews(self.operator.indptr, self.operator.indices)

    @property
    def member_values(self):
        return _RowViews(self.operator.indptr, self.operator.values)


def build_bupu(X, window, grid=None):
    """Partition of unity subordinate to ``x_i . window``.

    The members are the hats ``window.axis_hats`` gives, renormalized by
    their pointwise sum: tensor products of 1-D hats for boxes, and for
    ``AxbWindow`` an x-ball hat times a log-scale hat. Raises DensityError
    (naming an uncovered grid point) when X is not dense enough for the
    window. A hat costs its factors' lengths plus its support per member;
    the build holds the operator, the pointwise sum and one block of
    divisions.
    """
    grid = grid if grid is not None else X.grid
    if grid is None:
        raise EmptyGridError("building a BUPU needs a grid")
    op = _product_rows(X.points, window.axis_hats, grid)
    total = np.bincount(op.indices, weights=op.values, minlength=grid.size)
    uncovered = np.flatnonzero(total <= 0)
    if uncovered.size:
        raise DensityError(
            "point set is not dense for the requested BUPU size window",
            _grid_point(grid, uncovered[0]),
        )
    for start in range(0, len(op.indices), _OWNER_BLOCK):
        block = slice(start, start + _OWNER_BLOCK)
        op.values[block] /= total[op.indices[block]]
    return Bupu(X, window, grid, op)


def bupu_to_csv(bupu, path):
    """Export a BUPU as a CSV table: member index, support box, values.

    One row per (member, grid point) pair restricted to the member's
    support; the support box columns give the coordinate bounds of the
    size-window translate.
    """
    import csv

    pts = bupu.grid.points()
    dim = pts.shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["member"]
        header += [f"support_lo{k}" for k in range(dim)]
        header += [f"support_hi{k}" for k in range(dim)]
        header += [f"x{k}" for k in range(dim)] + ["value"]
        writer.writerow(header)
        for i, (idx, vals) in enumerate(zip(bupu.member_indices,
                                            bupu.member_values)):
            if idx.size == 0:
                continue
            support = pts[idx]
            lo = support.min(axis=0)
            hi = support.max(axis=0)
            for p, v in zip(support, vals):
                writer.writerow([i, *lo, *hi, *p, v])
    return path


def verify_bupu(bupu):
    """Re-check the three partition-of-unity conditions independently."""
    tol = 1e-12  # rounding, per member in the sum
    pts = bupu.grid.points()
    total = np.zeros(len(pts))
    for i, (idx, vals) in enumerate(zip(bupu.member_indices, bupu.member_values)):
        if np.any(vals < -tol) or np.any(vals > 1 + tol):
            return {"passed": False, "reason": f"member {i} leaves [0, 1]"}
        if idx.size:
            inside = bupu.size_window.contains(bupu.base_set.points[i], pts[idx])
            if not np.all(inside):
                return {"passed": False, "reason": f"member {i} leaks its support"}
        total[idx] += vals
    err = float(np.abs(total - 1.0).max())
    return {"passed": err <= tol * max(1.0, len(bupu)), "sum_error": err}
