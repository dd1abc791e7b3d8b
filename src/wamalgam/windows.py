"""Relatively compact neighborhood descriptors and their group translates.

Two concrete shapes cover all three groups: closed coordinate boxes on the
Euclidean group and the integer lattice (acting by addition), and the
canonical affine neighborhoods ``ball(0, r) x (1/beta, beta)`` on the ax+b
group (acting by the group law, so a translate of the scale interval is
again a scale interval and the spatial ball dilates with the base scale).
Boundaries count as inside throughout; midpoint grids never place a point
on a generic boundary, so indicator assemblies stay exact.

``right_cover(g)`` gives a window whose translates hold the right translates
``x . U . g``: where the group adds, a box's right translate is the box
moved by g; on ax+b it mixes x and a and is no window here, so
``AxbWindow`` covers it by an ``AxbCoverWindow``.

A window answers for its own shape, so callers never branch on its type.
It knows the group it acts on, so no method takes one: ``contains(base,
queries)`` tests points, and the factor methods take base points and the
grid's axes.

- ``axis_masks`` gives the factors of ``contains`` over a tensor grid: one
  mask per axis for boxes, and for the affine windows a ball mask over the
  raveled x sub-grid and a scale mask;
- ``axis_hats`` gives the factors of the hat supported in the translate,
  in the same layout (``BoxWindow`` and ``AxbWindow``);
- both factor methods take one base point or a stack of m of them, shape
  (m, dim), and then return (m, length) arrays, one row per base; the
  affine windows build the raveled x sub-grid once per call;
- ``overlaps`` is the exact pairwise test of which translates meet
  (``BoxWindow`` and ``AxbWindow``);
- ``stencil`` writes ``contains`` as grid index offsets: stages of disjoint
  parts, each a list of slides ``(axis, lo, hi)`` over the offsets lo..hi
  (integers, or one per scale column). A box is one part of a slide per
  axis; an affine window is the scale slide, then one part per row of its
  x ball, whose parts of equal half-widths end in the same row slide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, InvalidElementError
from .groups import AxbGroup, Euclidean, IntegerLattice, tensor_points

_TOL = 1e-9


def _hat(t):
    return np.maximum(0.0, 1.0 - np.abs(t))


def _per_axis(base):
    """Coordinate k of a base point, or of a stack of m of them, for each
    k: an array that broadcasts against an axis, (1,) or (m, 1)."""
    return np.moveaxis(np.asarray(base, dtype=float)[..., None], -2, 0)


@dataclass(frozen=True)
class BoxWindow:
    """Closed box ``prod_k [lo_k, hi_k]`` around the identity of R^n or Z^n."""

    lo: tuple
    hi: tuple

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)
        if lo.shape != hi.shape:
            raise DimensionMismatchError("box bounds differ in dimension")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise InvalidElementError("windows must be relatively compact")
        if np.any(hi < lo):
            raise InvalidElementError("box window has hi < lo")

    @classmethod
    def centered(cls, radius, n=1):
        r = np.broadcast_to(np.asarray(radius, dtype=float), (n,))
        return cls(tuple(-r), tuple(r))

    @classmethod
    def interval(cls, lo, hi):
        return cls((float(lo),), (float(hi),))

    @classmethod
    def origin(cls, n=1):
        return cls((0.0,) * n, (0.0,) * n)

    def _bounds(self):
        """Closed bounds of the relative coordinates, widened by ``_TOL``."""
        lo = np.asarray(self.lo)
        hi = np.asarray(self.hi)
        scale = np.maximum(np.abs(lo), np.abs(hi)) + 1.0
        return lo - _TOL * scale, hi + _TOL * scale

    def contains(self, base, queries):
        """Mask of ``queries`` lying in ``base . window`` (vectorized)."""
        base = np.asarray(base, dtype=float)
        rel = np.asarray(queries, dtype=float) - base
        if rel.shape[-1] != len(self.lo):
            raise DimensionMismatchError("window dimension does not match points")
        lo, hi = self._bounds()
        return np.all((rel >= lo) & (rel <= hi), axis=-1)

    def axis_masks(self, base, axes):
        """Per-axis factors of ``contains`` on the tensor grid with ``axes``."""
        if len(axes) != len(self.lo):
            raise DimensionMismatchError("window dimension does not match points")
        lo, hi = self._bounds()
        return [((ax - b) >= l) & ((ax - b) <= h)
                for ax, b, l, h in zip(axes, _per_axis(base), lo, hi)]

    def axis_hats(self, base, axes):
        """Per-axis factors of the hat supported in ``base . window``: the
        hat of the distance to the center in half-widths, or on a degenerate
        axis the indicator of the center."""
        lo = np.asarray(self.lo)
        hi = np.asarray(self.hi)
        return [_hat((c - (b + mid)) / half) if half > 0
                else (np.abs(c - (b + mid)) <= _TOL).astype(float)
                for c, b, mid, half in zip(axes, _per_axis(base), (lo + hi) / 2.0,
                                           (hi - lo) / 2.0)]

    def overlaps(self, points):
        """Pairwise mask: ``x . window`` meets ``y . window`` for rows x, y
        of ``points``, which holds iff ``|x - y| <= hi - lo`` componentwise."""
        width = np.asarray(self.hi) - np.asarray(self.lo)
        diff = np.abs(points[:, None, :] - points[None, :, :])
        return np.all(diff <= width + _TOL * (1 + np.abs(width)), axis=-1)

    def stencil(self, grid):
        """One part: along axis k, the offsets d with ``lo_k <= d step_k <= hi_k``."""
        if not isinstance(grid.group, (Euclidean, IntegerLattice)):
            raise InvalidElementError(f"a box acts on R^n or Z^n, not {grid.group}")
        if len(grid.steps) != len(self.lo):
            raise DimensionMismatchError("window dimension does not match points")
        slides = []
        for k, (lo, hi, step) in enumerate(zip(self.lo, self.hi, grid.steps)):
            d_lo, d_hi = math.ceil(lo / step - _TOL), math.floor(hi / step + _TOL)
            if d_hi < d_lo:
                raise InvalidElementError(
                    f"window axis {k} spans no grid offsets at spacing {step}; "
                    "refine the grid or widen the window")
            slides.append((k, d_lo, d_hi))
        return [[slides]]

    def right_cover(self, g):
        """The right translate ``window . g``, the box moved by g: ``q g^{-1}``
        lies in ``base . window`` iff q lies in ``base`` plus the moved box."""
        g = np.asarray(g, dtype=float)
        if g.shape != (len(self.lo),):
            raise DimensionMismatchError("window dimension does not match points")
        return BoxWindow(tuple((np.asarray(self.lo) + g).tolist()),
                         tuple((np.asarray(self.hi) + g).tolist()))

    def descriptor(self):
        return {"shape": "box", "lo": list(self.lo), "hi": list(self.hi)}


class _AffineWindow:
    """Membership in an affine window: a ball test in x and a scale test in a."""

    def contains(self, base, queries):
        base = np.asarray(base, dtype=float)
        q = np.asarray(queries, dtype=float)
        bx, ba = base[..., :-1], base[..., -1]
        qx, qa = q[..., :-1], q[..., -1]
        dist = np.linalg.norm(qx - bx, axis=-1)
        return self._in_ball(dist, ba) & self._in_scales(qa, ba)

    def axis_masks(self, base, axes):
        """Factors of ``contains`` on an (x, a) grid: the ball mask over the
        raveled x sub-grid and the scale mask.

        The distance is the same ``np.linalg.norm`` over the x coordinates
        that ``contains`` takes, so the masks are bit-identical to it.
        """
        base = np.asarray(base, dtype=float)
        dist = np.linalg.norm(tensor_points(axes[:-1]) - base[..., None, :-1], axis=-1)
        ba = base[..., -1:]
        return [self._in_ball(dist, ba), self._in_scales(axes[-1], ba)]

    def stencil(self, grid):
        """The scale slide, then the x ball as rows along the last x axis, one
        part per offset of the other x axes on the grid; at a base scale whose
        ball misses the part, its row reads the zeros m past the axis."""
        if not isinstance(grid.group, AxbGroup):
            raise InvalidElementError(f"affine windows act on ax+b, not {grid.group}")
        n, m = grid.group.n, grid.a_cells
        d = np.arange(1 - m, m)
        d = d[self._in_scales(np.exp(d * grid.u_step), 1.0)]
        scale = (n, d.min(), d.max()) if len(d) else (n, m, m)
        a, steps = grid.axes[-1], grid.x_steps
        # offsets along each x axis alone that meet the ball at the largest scale
        reach = [np.count_nonzero(self._in_ball(np.arange(cells) * h, a[-1])) - 1
                 for cells, h in zip(grid.x_cells, steps)]
        shape = [2 * r + 1 for r in reach[:-1]] + [reach[-1] + 1]
        offsets = np.indices(shape).reshape(n, -1).T - (reach[:-1] + [0])
        dist = np.linalg.norm(offsets * steps, axis=-1).reshape(-1, shape[-1])
        # the half-width of each part's row at each base scale, -1 if empty
        half = np.count_nonzero(self._in_ball(dist[..., None], a), axis=1) - 1
        past = grid.x_cells[-1]
        # parts with the same half-widths (o and -o at least) share one row
        # slide object, so that a fold may run it once
        slides = {}
        rows = [[(k, c, c) for k, c in enumerate(o)]
                + [slides.setdefault(w.tobytes(), (n - 1, np.where(w < 0, past, -w),
                                                   np.where(w < 0, past, w)))]
                for o, w in zip(offsets[::shape[-1], :-1].tolist(), half)
                if w.max() >= 0]
        return [[[scale]], rows]


@dataclass(frozen=True)
class AxbWindow(_AffineWindow):
    """Affine neighborhood ``ball(0, radius) x (1/beta, beta)`` on ax+b.

    The translate by a base point (x, a) is ``ball(x, a*radius) x (a/beta,
    a*beta)``: membership tests stay separable in (x, log a).
    """

    radius: float
    beta: float

    def __post_init__(self):
        if self.radius <= 0 or self.beta <= 1:
            raise InvalidElementError("need radius > 0 and beta > 1")

    def _in_ball(self, dist, ba):
        return dist <= self.radius * ba * (1 + _TOL)

    def _in_scales(self, qa, ba):
        return np.abs(np.log(qa) - np.log(ba)) <= np.log(self.beta) * (1 + _TOL)

    def axis_hats(self, base, axes):
        """Factors of the hat supported in ``base . window`` on an (x, a)
        grid: ``hat(|x - x0| / (r a0))`` on the raveled x sub-grid and
        ``hat(log(a / a0) / log beta)`` on the scale axis."""
        base = np.asarray(base, dtype=float)
        dx = np.linalg.norm(tensor_points(axes[:-1]) - base[..., None, :-1], axis=-1)
        a0 = base[..., -1:]
        du = np.log(axes[-1]) - np.log(a0)
        return [_hat(dx / (self.radius * a0)), _hat(du / np.log(self.beta))]

    def overlaps(self, points):
        """Pairwise mask: ``ball(x, a r) x (a/beta, a beta)`` meets the
        translate by another row of ``points``."""
        x = points[:, :-1]
        a = points[:, -1]
        dist = np.linalg.norm(x[:, None, :] - x[None, :, :], axis=-1)
        balls = dist <= self.radius * (a[:, None] + a[None, :]) * (1 + _TOL)
        dlog = np.abs(np.log(a[:, None]) - np.log(a[None, :]))
        scales = dlog <= 2 * np.log(self.beta) * (1 + _TOL)
        return balls & scales

    def right_cover(self, g):
        """A cover of the right translate ``window . g``, g = (y, b): the
        same-centre set ``ball(0, beta |y| + radius) x b (1/beta, beta)``,
        the form that the doubling bound controls cell by cell."""
        y = np.asarray(g[:-1], dtype=float)
        b = float(g[-1])
        return AxbCoverWindow(self.beta * float(np.linalg.norm(y)) + self.radius,
                              b / self.beta, b * self.beta)

    def descriptor(self):
        return {"shape": "axb", "radius": self.radius, "beta": self.beta}


@dataclass(frozen=True)
class AxbCoverWindow(_AffineWindow):
    """Scale-linked cover set: ``ball(x, a * radius_mult) x a*(s_lo, s_hi)``.

    Contains the right translate ``(x,a) . U(r, beta) . (y, b)`` when built
    with ``radius_mult = beta |y| + r`` and ``(s_lo, s_hi) = b (1/beta,
    beta)`` (``AxbWindow.right_cover``); the inflated ball keeps its center,
    which is what makes the doubling bound applicable cell by cell.
    """

    radius_mult: float
    scale_lo: float
    scale_hi: float

    def _in_ball(self, dist, ba):
        return dist <= self.radius_mult * ba * (1 + _TOL)

    def _in_scales(self, qa, ba):
        ratio = qa / ba
        return (ratio >= self.scale_lo * (1 - _TOL)) & (
            ratio <= self.scale_hi * (1 + _TOL))

    def _unsupported(self, *args):
        raise InvalidElementError(f"unsupported window type {type(self).__name__}: "
                                  "it has no hats and no overlap test")

    axis_hats = overlaps = _unsupported

    def descriptor(self):
        return {"shape": "axb-cover", "radius_mult": self.radius_mult,
                "scale_lo": self.scale_lo, "scale_hi": self.scale_hi}
