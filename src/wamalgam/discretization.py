"""Well-spread point sets, covering certificates, and partitions of unity.

Point families are stored with the ambient grid they discretize. Density
and separation certificates are numerical: density is probed on the grid
(or a refined probe grid), separation is an exact all-pairs intersection
count of translated windows, with closed sets so touching boundaries count
as overlapping and the constants stay conservative.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DensityError, EmptyGridError, InvalidElementError
from .groups import AxbGrid, SampledFunction
from .windows import AxbWindow, BoxWindow

_TOL = 1e-9


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
        """Flat grid indices of each translate ``x_i . window`` (cached)."""
        key = (window.key(), grid)
        if key not in self._mask_cache:
            pts = grid.points()
            masks = []
            for x in self.points:
                m = window.contains(grid.group, x, pts)
                masks.append(np.flatnonzero(m))
            self._mask_cache[key] = masks
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
    pts = grid.points()
    covered = np.zeros(len(pts), dtype=bool)
    for x in X.points:
        covered |= window.contains(grid.group, x, pts)
        if covered.all():
            break
    if not covered.all():
        missing = pts[int(np.argmin(covered))]
        raise DensityError(
            f"point set is not dense for window {window.descriptor()}", missing
        )
    cert = {"window": window.descriptor(), "probes": int(len(pts)), "covered": True}
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
    """

    base_set: WellSpreadSet
    size_window: object
    grid: object
    member_indices: list
    member_values: list

    def __len__(self):
        return len(self.member_indices)

    def member(self, i):
        """Member i as a dense SampledFunction."""
        out = np.zeros(self.grid.shape)
        out.reshape(-1)[self.member_indices[i]] = self.member_values[i]
        return SampledFunction(self.grid, out)

    def total(self):
        out = np.zeros(self.grid.shape)
        flat = out.reshape(-1)
        for idx, vals in zip(self.member_indices, self.member_values):
            flat[idx] += vals
        return SampledFunction(self.grid, out)

    def member_value_at(self, i, pts):
        """Nearest-grid evaluation of member i at arbitrary points."""
        dense = self.member(i)
        return dense.eval_at(pts)


def _hat(t):
    return np.maximum(0.0, 1.0 - np.abs(t))


def _raw_hat_values(group, point, window, grid_pts):
    """Tensor hat supported exactly in ``point . window``."""
    if isinstance(window, BoxWindow):
        lo = np.asarray(window.lo)
        hi = np.asarray(window.hi)
        center = point + (lo + hi) / 2.0
        half = (hi - lo) / 2.0
        if np.any(half <= 0):
            # degenerate axes collapse to indicators on those axes
            vals = np.ones(len(grid_pts))
            for k in range(len(lo)):
                if half[k] > 0:
                    vals *= _hat((grid_pts[:, k] - center[k]) / half[k])
                else:
                    vals *= np.abs(grid_pts[:, k] - center[k]) <= _TOL
            return vals
        return np.prod(_hat((grid_pts - center) / half), axis=-1)
    if isinstance(window, AxbWindow):
        x0, a0 = point[:-1], point[-1]
        half_x = window.radius * a0
        half_u = np.log(window.beta)
        dx = np.linalg.norm(grid_pts[:, :-1] - x0, axis=-1)
        du = np.log(grid_pts[:, -1]) - np.log(a0)
        return _hat(dx / half_x) * _hat(du / half_u)
    raise InvalidElementError(f"unsupported window type {type(window).__name__}")


def build_bupu(X, window, grid=None, kind="hat"):
    """Partition of unity subordinate to ``x_i . window``.

    ``kind="hat"`` builds tensor-product piecewise-linear hats renormalized
    by their pointwise sum; ``kind="voronoi"`` assigns each grid point to
    its nearest lattice point, giving a {0,1}-valued partition. Raises
    DensityError (naming an uncovered grid point) when X is not dense
    enough for the window.
    """
    grid = grid if grid is not None else X.grid
    if grid is None:
        raise EmptyGridError("building a BUPU needs a grid")
    pts = grid.points()
    n_pts = len(pts)
    if kind == "voronoi":
        owner = _voronoi_owner(X, grid, pts)
        member_indices, member_values = [], []
        for i in range(len(X)):
            idx = np.flatnonzero(owner == i)
            member_indices.append(idx)
            member_values.append(np.ones(len(idx)))
        bupu = Bupu(X, window, grid, member_indices, member_values)
        _check_supports(bupu, window, pts)
        return bupu

    raw_indices, raw_values = [], []
    total = np.zeros(n_pts)
    for x in X.points:
        vals = _raw_hat_values(grid.group, x, window, pts)
        idx = np.flatnonzero(vals > 0)
        raw_indices.append(idx)
        raw_values.append(vals[idx])
        total[idx] += vals[idx]
    uncovered = np.flatnonzero(total <= 0)
    if uncovered.size:
        raise DensityError(
            "point set is not dense for the requested BUPU size window",
            pts[uncovered[0]],
        )
    member_values = [v / total[idx] for idx, v in zip(raw_indices, raw_values)]
    return Bupu(X, window, grid, raw_indices, member_values)


def _voronoi_owner(X, grid, pts):
    """Index of the nearest lattice point, in grid-adapted coordinates."""
    if isinstance(grid, AxbGrid):
        q = np.column_stack([pts[:, :-1], np.log(pts[:, -1])])
        c = np.column_stack([X.points[:, :-1], np.log(X.points[:, -1])])
    else:
        q, c = pts, X.points
    d2 = np.sum((q[:, None, :] - c[None, :, :]) ** 2, axis=-1)
    return np.argmin(d2, axis=1)


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
