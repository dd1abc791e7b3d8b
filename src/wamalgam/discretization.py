"""Well-spread point sets, covering certificates, and partitions of unity.

Point families are stored with the ambient grid they discretize. Density
and separation certificates are numerical: density is probed on the grid
(or a refined probe grid), separation is an exact all-pairs intersection
count of translated windows, with closed sets so touching boundaries count
as overlapping and the constants stay conservative.

The layer works through one sparse operator per (X, window, grid): row i of
a ``CellOperator`` holds the sorted flat grid indices of the cell
``x_i . window``, stored CSR-style (``indptr``, ``indices``). Rows are built
by index arithmetic wherever the window factorizes over the grid's tensor
axes, which ``window.axis_masks`` reports: boxes and their right
translates on R^n and Z^n, and the affine windows at n = 1. There the
comparisons of ``contains`` run on the 1-D axis arrays and the row is the
flat index set of their product, bit-identical to ``contains`` on all grid
points; ax+b windows with n >= 2 test every grid point. Step functions are
one ``np.bincount`` of the rows, local norms a ``reduceat`` over one gather,
and a BUPU keeps its members in the same form (with values).
``verify_bupu`` stays an independent per-point check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DensityError, EmptyGridError, InvalidElementError
from .groups import AxbGrid, SampledFunction
from .windows import AxbWindow, BoxWindow

_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class CellOperator:
    """Sparse |X| x N operator over a grid of N points, stored CSR-style.

    Row i is ``indices[indptr[i]:indptr[i+1]]``, sorted flat grid indices;
    ``values`` holds the row entries' values (a BUPU's members) or is None
    for a 0/1 membership operator. Iterating yields the rows.
    """

    indptr: np.ndarray
    indices: np.ndarray
    size: int
    values: np.ndarray | None = None

    @classmethod
    def from_rows(cls, rows, size, values=None):
        indptr = np.zeros(len(rows) + 1, dtype=np.intp)
        np.cumsum([len(r) for r in rows], out=indptr[1:])
        indices = (np.concatenate(rows).astype(np.intp, copy=False) if rows
                   else np.empty(0, dtype=np.intp))
        if values is not None:
            values = np.concatenate(values) if values else np.empty(0)
        return cls(indptr, indices, int(size), values)

    def __len__(self):
        return len(self.indptr) - 1

    def __getitem__(self, i):
        return self.indices[self.indptr[i]:self.indptr[i + 1]]

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    @cached_property
    def counts(self):
        return np.diff(self.indptr)

    def reduce(self, ufunc, entries):
        """Per-row ``ufunc.reduceat`` of per-entry values; empty rows give 0."""
        out = np.zeros(len(self), dtype=entries.dtype)
        full = self.counts > 0
        if full.any():
            out[full] = ufunc.reduceat(entries, self.indptr[:-1][full])
        return out

    def scatter(self, coefficients):
        """Flat ``sum_i c_i chi_{row i}`` over the grid, skipping rows with c_i = 0.

        ``np.bincount`` adds in entry order, so every grid point sums its
        rows in row order.
        """
        rows = np.flatnonzero(coefficients)
        entries = (self.indices if len(rows) == len(self) else
                   np.concatenate([self[i] for i in rows] or [self.indices[:0]]))
        return np.bincount(entries,
                           weights=np.repeat(coefficients[rows], self.counts[rows]),
                           minlength=self.size)


def _cell_operator(points, window, grid):
    """The rows ``x_i . window``: by index arithmetic, or by ``contains``.

    ``contains`` on every grid point builds the rows of a window that does
    not factor over the grid's axes. A factorized row is the product of
    its per-axis index sets, so its length is known before it is built
    and it is written in place.
    """
    group = grid.group
    masks = [window.axis_masks(group, x, grid.axes) for x in points]
    if any(m is None for m in masks):
        pts = grid.points()
        return CellOperator.from_rows(
            [np.flatnonzero(window.contains(group, x, pts)) for x in points], grid.size)
    support = [[np.flatnonzero(m) for m in axis_masks] for axis_masks in masks]
    indptr = np.zeros(len(points) + 1, dtype=np.intp)
    np.cumsum([np.prod([len(s) for s in sub]) for sub in support], out=indptr[1:])
    indices = np.empty(indptr[-1], dtype=np.intp)
    for i, sub in enumerate(support):
        indices[indptr[i]:indptr[i + 1]] = np.ravel_multi_index(
            np.ix_(*sub), grid.shape).ravel()
    return CellOperator(indptr, indices, grid.size)


def _grid_point(grid, flat):
    """Coordinates of the grid point with C-order flat index ``flat``."""
    idx = np.unravel_index(flat, grid.shape)
    return np.array([ax[i] for ax, i in zip(grid.axes, idx)])


@dataclass
class WellSpreadSet:
    """Indexed point family with cached covering/separation certificates."""

    points: np.ndarray
    grid: object = None
    density_window: object = None
    separation_constants: dict = field(default_factory=dict)
    labels: np.ndarray | None = None

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        self._mask_cache = {}

    def __len__(self):
        return len(self.points)

    def cell_masks(self, window, grid):
        """The ``CellOperator`` of the translates ``x_i . window`` (cached)."""
        key = (window.key(), grid)
        if key not in self._mask_cache:
            self._mask_cache[key] = _cell_operator(self.points, window, grid)
        return self._mask_cache[key]

    def translated(self, g, side="left"):
        """The point family ``g . x_i`` (or ``x_i . g``)."""
        group = self.grid.group
        g = np.asarray(g, dtype=float)
        if side == "left":
            moved = group.multiply(g[None, :], self.points)
        else:
            moved = group.multiply(self.points, g[None, :])
        return WellSpreadSet(moved, grid=self.grid,
                             density_window=self.density_window,
                             labels=self.labels)


def check_relatively_separated(X, window):
    """Exact maximum overlap count of the translates ``x_i . window``.

    Stores the constant in ``X.separation_constants`` keyed by the window.
    """
    if len(X) == 0:
        raise EmptyGridError("separation check needs a nonempty point set")
    pts = X.points
    group = X.grid.group if X.grid is not None else None
    if isinstance(window, BoxWindow):
        lo = np.asarray(window.lo)
        hi = np.asarray(window.hi)
        # x + [lo,hi] meets y + [lo,hi]  iff  |x - y| <= hi - lo componentwise
        width = hi - lo
        diff = np.abs(pts[:, None, :] - pts[None, :, :])
        meets = np.all(diff <= width + _TOL * (1 + np.abs(width)), axis=-1)
    elif isinstance(window, AxbWindow):
        meets = _axb_window_overlaps(pts, window)
    else:
        raise InvalidElementError(f"unsupported window type {type(window).__name__}")
    count = int(meets.sum(axis=0).max())
    X.separation_constants[window.key()] = count
    return count


def _axb_window_overlaps(pts, window):
    """Pairwise overlap of affine translates ball(x, a r) x (a/b, a b)."""
    x = pts[:, :-1]
    a = pts[:, -1]
    r = window.radius
    beta = window.beta
    dist = np.linalg.norm(x[:, None, :] - x[None, :, :], axis=-1)
    balls = dist <= r * (a[:, None] + a[None, :]) * (1 + _TOL)
    dlog = np.abs(np.log(a[:, None]) - np.log(a[None, :]))
    scales = dlog <= 2 * np.log(beta) * (1 + _TOL)
    return balls & scales


def check_density(X, window, probe_grid=None):
    """Verify that the translates ``x_i . window`` cover the probe grid.

    Returns the covering certificate; raises DensityError naming the first
    uncovered probe point otherwise.
    """
    grid = probe_grid if probe_grid is not None else X.grid
    if grid is None:
        raise EmptyGridError("density check needs a probe grid")
    covered = np.zeros(grid.size, dtype=bool)
    covered[X.cell_masks(window, grid).indices] = True
    if not covered.all():
        missing = _grid_point(grid, int(np.argmin(covered)))
        raise DensityError(
            f"point set is not dense for window {window.descriptor()}", missing
        )
    cert = {"window": window.descriptor(), "probes": grid.size, "covered": True}
    X.density_window = window
    return cert


def integer_lattice_set(grid):
    """All points of a LatticeGrid as a well-spread set."""
    return WellSpreadSet(grid.points(), grid=grid)


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
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    return WellSpreadSet(pts, grid=grid)


def build_axb_lattice(a0, b0, k_range=None, j_range=(0, 0), grid=None, n=1,
                      density_window=None, x_extent=None):
    """Affine lattice ``(a0 b0^{-j} k, b0^{-j})`` for k in Z^n, j in Z.

    The spatial spacing scales with the level, so the family is well
    spread; density for ``AxbWindow(r, beta)`` holds whenever
    ``r >= a0 * sqrt(n) / 2`` and ``beta >= sqrt(b0)`` and is certified
    numerically when a density window is supplied. ``k_range`` fixes the
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
        mesh = np.meshgrid(*ks, indexing="ij")
        kvecs = np.stack([m.ravel() for m in mesh], axis=-1)
        block = np.empty((len(kvecs), n + 1))
        block[:, :-1] = a0 * scale * kvecs
        block[:, -1] = scale
        pts.append(block)
        labels.extend((tuple(kv), int(j)) for kv in kvecs)
    X = WellSpreadSet(np.concatenate(pts, axis=0), grid=grid,
                      labels=np.array(labels, dtype=object))
    if density_window is not None and grid is not None:
        check_density(X, density_window)
    return X


# ---------------------------------------------------------------------------
# Bounded uniform partitions of unity


@dataclass
class Bupu:
    """Partition of unity subordinate to ``x_i . size_window``.

    Members are stored sparsely as flat grid indices plus values; they are
    nonnegative, bounded by one, and sum to one at every grid point.
    ``operator`` holds all members as one ``CellOperator`` with values.
    """

    base_set: WellSpreadSet
    size_window: object
    grid: object
    member_indices: list
    member_values: list

    def __len__(self):
        return len(self.member_indices)

    @cached_property
    def operator(self):
        return CellOperator.from_rows(self.member_indices, self.grid.size,
                                      self.member_values)

    def member(self, i):
        """Member i as a dense SampledFunction."""
        out = np.zeros(self.grid.shape)
        out.reshape(-1)[self.member_indices[i]] = self.member_values[i]
        return SampledFunction(self.grid, out)

    def total(self):
        op = self.operator
        total = np.bincount(op.indices, weights=op.values, minlength=op.size)
        return SampledFunction(self.grid, total.reshape(self.grid.shape))

    def member_value_at(self, i, pts):
        """Member i at arbitrary points, interpolated multilinearly (``eval_at``)."""
        return self.member(i).eval_at(pts)


def _bupu_from_operator(X, window, grid, op):
    """A Bupu whose member lists are views of the rows of ``op``."""
    rows = range(len(op))
    bupu = Bupu(X, window, grid, [op[i] for i in rows],
                [op.values[op.indptr[i]:op.indptr[i + 1]] for i in rows])
    bupu.operator = op
    return bupu


def _hat(t):
    return np.maximum(0.0, 1.0 - np.abs(t))


def _box_hat_factors(point, window, coords):
    """Per-axis factors of the tensor hat supported in ``point . window``.

    ``coords[k]`` holds coordinates along axis k; degenerate axes collapse
    to indicators.
    """
    lo = np.asarray(window.lo)
    hi = np.asarray(window.hi)
    center = point + (lo + hi) / 2.0
    half = (hi - lo) / 2.0
    return [_hat((c - center[k]) / half[k]) if half[k] > 0
            else (np.abs(c - center[k]) <= _TOL).astype(float)
            for k, c in enumerate(coords)]


def _raw_hat_values(group, point, window, grid_pts):
    """Tensor hat supported exactly in ``point . window``, at every point."""
    if isinstance(window, BoxWindow):
        factors = _box_hat_factors(point, window, grid_pts.T)
        vals = factors[0]
        for f in factors[1:]:
            vals = vals * f
        return vals
    if isinstance(window, AxbWindow):
        x0, a0 = point[:-1], point[-1]
        half_x = window.radius * a0
        half_u = np.log(window.beta)
        dx = np.linalg.norm(grid_pts[:, :-1] - x0, axis=-1)
        du = np.log(grid_pts[:, -1]) - np.log(a0)
        return _hat(dx / half_x) * _hat(du / half_u)
    raise InvalidElementError(f"unsupported window type {type(window).__name__}")


def _box_hat_row(point, window, grid):
    """Support and values of a box hat: the product of its per-axis hats."""
    factors = _box_hat_factors(point, window, grid.axes)
    support = [np.flatnonzero(f > 0) for f in factors]
    vals = factors[0][support[0]]
    for f, s in zip(factors[1:], support[1:]):
        vals = np.multiply.outer(vals, f[s])
    idx, vals = _positive(vals.ravel())
    return np.ravel_multi_index(np.ix_(*support), grid.shape).ravel()[idx], vals


def _positive(vals):
    """Flat indices and values of the positive entries."""
    idx = np.flatnonzero(vals > 0)
    return idx, vals[idx]


def build_bupu(X, window, grid=None, kind="hat"):
    """Partition of unity subordinate to ``x_i . window``.

    ``kind="hat"`` builds tensor-product piecewise-linear hats renormalized
    by their pointwise sum; ``kind="voronoi"`` assigns each grid point to
    its nearest lattice point, giving a {0,1}-valued partition. Raises
    DensityError (naming an uncovered grid point) when X is not dense
    enough for the window. Box hats cost the sum of the axis lengths plus
    their support per member; other windows evaluate every grid point.
    """
    grid = grid if grid is not None else X.grid
    if grid is None:
        raise EmptyGridError("building a BUPU needs a grid")
    if kind == "voronoi":
        pts = grid.points()
        owner = _voronoi_owner(X, grid, pts)
        indptr = np.zeros(len(X) + 1, dtype=np.intp)
        np.cumsum(np.bincount(owner, minlength=len(X)), out=indptr[1:])
        op = CellOperator(indptr, np.argsort(owner, kind="stable"), grid.size,
                          np.ones(grid.size))
        bupu = _bupu_from_operator(X, window, grid, op)
        _check_supports(bupu, window, pts)
        return bupu

    if isinstance(window, BoxWindow):
        rows = [_box_hat_row(x, window, grid) for x in X.points]
    else:
        pts = grid.points()
        rows = [_positive(_raw_hat_values(grid.group, x, window, pts))
                for x in X.points]
    op = CellOperator.from_rows([idx for idx, _ in rows], grid.size,
                                [vals for _, vals in rows])
    del rows
    total = np.bincount(op.indices, weights=op.values, minlength=grid.size)
    uncovered = np.flatnonzero(total <= 0)
    if uncovered.size:
        raise DensityError(
            "point set is not dense for the requested BUPU size window",
            _grid_point(grid, uncovered[0]),
        )
    np.divide(op.values, total[op.indices], out=op.values)
    return _bupu_from_operator(X, window, grid, op)


# entries of the squared-distance block that _voronoi_owner holds at once
_OWNER_BLOCK = 1 << 16


def _voronoi_owner(X, grid, pts):
    """Index of the nearest lattice point, in grid-adapted coordinates.

    Grid points are taken in blocks of about ``_OWNER_BLOCK / |X|`` rows,
    so the distance array stays small; each row's distances and ``argmin``
    (first minimum on ties) are those of the whole array.
    """
    if isinstance(grid, AxbGrid):
        q = np.column_stack([pts[:, :-1], np.log(pts[:, -1])])
        c = np.column_stack([X.points[:, :-1], np.log(X.points[:, -1])])
    else:
        q, c = pts, X.points
    rows = max(1, _OWNER_BLOCK // max(len(c), 1))
    owner = np.empty(len(q), dtype=np.intp)
    for start in range(0, len(q), rows):
        block = q[start:start + rows, None, :]
        d2 = np.sum((block - c[None, :, :]) ** 2, axis=-1)
        owner[start:start + rows] = np.argmin(d2, axis=1)
    return owner


def _check_supports(bupu, window, pts):
    group = bupu.grid.group
    for i, (idx, vals) in enumerate(zip(bupu.member_indices, bupu.member_values)):
        if idx.size == 0:
            continue
        inside = window.contains(group, bupu.base_set.points[i], pts[idx])
        if not np.all(inside | (vals <= _TOL)):
            raise DensityError(
                "voronoi cell leaks outside its size window",
                pts[idx[int(np.argmin(inside))]],
            )


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


def verify_bupu(bupu, tol=1e-12):
    """Re-check the three partition-of-unity conditions independently."""
    pts = bupu.grid.points()
    total = np.zeros(len(pts))
    group = bupu.grid.group
    for i, (idx, vals) in enumerate(zip(bupu.member_indices, bupu.member_values)):
        if np.any(vals < -tol) or np.any(vals > 1 + tol):
            return {"passed": False, "reason": f"member {i} leaves [0, 1]"}
        if idx.size:
            inside = bupu.size_window.contains(group, bupu.base_set.points[i], pts[idx])
            if not np.all(inside):
                return {"passed": False, "reason": f"member {i} leaks its support"}
        total[idx] += vals
    err = float(np.abs(total - 1.0).max())
    return {"passed": err <= tol * max(1.0, len(bupu)), "sum_error": err}
