"""Global components Y, weight certification, and discrete sequence spaces.

Two families of global components are shipped: weighted L^p over any of the
three groups, and mixed-norm L^{p,q}(v) over the ax+b group where the
weight v lives on the spatial factor R^n and is treated as a measure
``v(x) dx``. Quasi-norms are evaluated by Haar quadrature on the grid the
function is sampled on; divergent results surface as a dedicated overflow
signal instead of a float infinity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    GroupMismatchError,
    IndexMismatchError,
    InvalidExponentError,
    NonFiniteSampleError,
    WeightDomainError,
)
from .groups import AxbGrid, SampledFunction


class OverflowSignal:
    """Marker for a quasi-norm that exceeded its overflow guard."""

    def __repr__(self):
        return "OVERFLOW"

    def __bool__(self):
        return False


OVERFLOW = OverflowSignal()

DEFAULT_OVERFLOW_GUARD = 1e12


def is_overflow(value):
    return isinstance(value, OverflowSignal)


# ---------------------------------------------------------------------------
# Weights


@dataclass
class WeightFunction:
    """Positive weight with optional certification records.

    ``domain`` is "base" for weights on R^n (evaluated on spatial
    coordinates) and "group" for weights on full group coordinates.
    """

    name: str
    evaluator: object
    domain: str = "base"
    params: dict = field(default_factory=dict)
    submultiplicative: dict | None = None
    doubling: dict | None = None
    _tabulated: tuple | None = field(default=None, init=False, repr=False,
                                     compare=False)

    def __call__(self, pts):
        pts = np.asarray(pts, dtype=float)
        vals = np.asarray(self.evaluator(pts), dtype=float)
        if np.any(~np.isfinite(vals)) or np.any(vals <= 0):
            raise WeightDomainError(f"weight {self.name} must be finite and positive")
        return vals

    def on_grid(self, grid):
        """Weight values over a grid, respecting the weight's domain.

        The values on the last grid are kept (read-only), so repeated norms
        on one grid evaluate the weight once.
        """
        if self._tabulated is not None and self._tabulated[0] == grid:
            return self._tabulated[1]
        pts = grid.points()
        if self.domain == "base" and isinstance(grid, AxbGrid):
            pts = pts[..., :-1]
        vals = self(pts).reshape(grid.shape)
        vals.flags.writeable = False
        self._tabulated = (grid, vals)
        return vals

    def certificate_record(self):
        rec = {"name": self.name, "params": self.params, "domain": self.domain}
        if self.submultiplicative is not None:
            rec["submultiplicative"] = self.submultiplicative
        if self.doubling is not None:
            rec["doubling"] = self.doubling
        return rec


def _norm_last(pts):
    pts = np.asarray(pts, dtype=float)
    if pts.ndim == 0:
        return np.abs(pts)
    return np.linalg.norm(pts, axis=-1)


def constant_weight(c=1.0):
    c = float(c)
    return WeightFunction("constant", lambda p: np.full(np.shape(_norm_last(p)), c),
                          params={"c": c})


def power_weight(s):
    """|x|^s; integrable near 0 for s > -n, a pole or zero at the origin."""
    s = float(s)
    return WeightFunction("power", lambda p: _norm_last(p) ** s, params={"s": s})


def shifted_power_weight(s):
    """(1 + |x|)^s, the standard polynomial weight family."""
    s = float(s)
    return WeightFunction("shifted-power", lambda p: (1.0 + _norm_last(p)) ** s,
                          params={"s": s})


def exponential_weight(rate=1.0):
    """exp(rate * |x|); submultiplicative but never doubling."""
    rate = float(rate)
    return WeightFunction("exponential", lambda p: np.exp(rate * _norm_last(p)),
                          params={"rate": rate})


def table_weight(knots, values, name="table"):
    """Piecewise-linear weight of |x| tabulated on increasing knots."""
    knots = np.asarray(knots, dtype=float)
    values = np.asarray(values, dtype=float)

    def evaluate(p):
        return np.interp(_norm_last(p), knots, values)

    return WeightFunction(name, evaluate, params={"knots": knots.tolist(),
                                                  "values": values.tolist()})


WEIGHT_FAMILIES = {
    "constant": constant_weight,
    "power": power_weight,
    "shifted-power": shifted_power_weight,
    "exponential": exponential_weight,
    "table": table_weight,
}


# ---------------------------------------------------------------------------
# Global components


@dataclass
class WeightedLp:
    """L^p_w over a group: ``||F w | L^p||`` against left Haar measure."""

    p: float
    weight: WeightFunction | None = None
    group: object = None

    def __post_init__(self):
        if not (self.p > 0):
            raise InvalidExponentError("p must be positive")

    @property
    def p_exponent(self):
        return min(1.0, self.p)

    def describe(self):
        w = self.weight.name if self.weight is not None else "1"
        return f"L^{self.p}_{w}"


@dataclass
class MixedLpq:
    """Mixed-norm L^{p,q}(v) over ax+b: inner L^p(v dx) in x, outer L^q in scale."""

    p: float
    q: float
    weight: WeightFunction | None = None
    n: int = 1

    def __post_init__(self):
        if not (0 < self.p < math.inf):
            raise InvalidExponentError("p must lie in (0, inf) for mixed norms")
        if not (self.q > 0):
            raise InvalidExponentError("q must be positive")

    @property
    def p_exponent(self):
        return min(1.0, self.p, self.q)

    def describe(self):
        v = self.weight.name if self.weight is not None else "1"
        return f"L^{{{self.p},{self.q}}}({v})"


def quasi_norm(component, F, overflow_guard=DEFAULT_OVERFLOW_GUARD):
    """Quadrature evaluation of the component's quasi-norm of ``F``.

    Returns OVERFLOW when the result exceeds ``overflow_guard`` or the
    power sums leave the floating range, and raises NonFiniteSampleError
    when a sample is NaN: an undefined sample is not a divergence.
    """
    if np.isnan(F.values).any():
        raise NonFiniteSampleError("samples contain NaN")
    if isinstance(component, MixedLpq):
        return _mixed_norm(component, F, overflow_guard)
    return _weighted_lp_norm(component, F, overflow_guard)


def _guarded(value, guard):
    if not np.isfinite(value) or value > guard:
        return OVERFLOW
    return float(value)


def _weighted_lp_norm(component, F, guard):
    if component.group is not None and F.grid.group != component.group:
        raise GroupMismatchError(
            f"function on {F.grid.group} fed to component over {component.group}"
        )
    absF = np.abs(F.values)
    if component.weight is not None:
        absF = absF * component.weight.on_grid(F.grid)
    p = component.p
    if p == math.inf:
        return _guarded(absF.max(initial=0.0), guard)
    with np.errstate(over="ignore"):
        total = np.sum(absF**p * F.grid.weights)
        return _guarded(total ** (1.0 / p), guard)


def _mixed_norm(component, F, guard):
    grid = F.grid
    if not isinstance(grid, AxbGrid):
        raise GroupMismatchError("mixed-norm components require ax+b grids")
    if grid.group.n != component.n:
        raise GroupMismatchError("mixed-norm dimension does not match the grid")
    absF = np.abs(F.values)
    n = component.n
    x_volume = float(np.prod(grid.x_steps))
    if component.weight is not None:
        vvals = component.weight(grid.points()[:, :-1]).reshape(grid.shape)
    else:
        vvals = 1.0
    x_axes = tuple(range(n))
    with np.errstate(over="ignore"):
        inner = np.sum(absF**component.p * vvals, axis=x_axes) * x_volume
        a_axis = grid.axes[-1]
        if component.q == math.inf:
            return _guarded(np.max(inner, initial=0.0) ** (1.0 / component.p), guard)
        scale_weights = grid.u_step * a_axis ** (-float(n))
        total = np.sum(inner ** (component.q / component.p) * scale_weights)
        return _guarded(total ** (1.0 / component.q), guard)


# ---------------------------------------------------------------------------
# Quasi-norm constant vs p-exponent


def p_exponent_from_quasi_constant(C, convention="standard"):
    """Exponent p with equivalent p-norm for a quasi-norm constant C >= 1.

    The shipped relation is ``C = 2^{1/p} - 1``; the Aoki-Rolewicz
    normalization ``C = 2^{1/p - 1}`` sits behind ``convention="aoki"``.
    """
    if C < 1:
        raise InvalidExponentError("quasi-norm constants satisfy C >= 1")
    if convention == "standard":
        return 1.0 / math.log2(C + 1.0)
    if convention == "aoki":
        return 1.0 / (math.log2(C) + 1.0)
    raise InvalidExponentError(f"unknown convention {convention!r}")


def quasi_constant_from_p_exponent(p, convention="standard"):
    if not (0 < p <= 1):
        raise InvalidExponentError("p-exponents lie in (0, 1]")
    if convention == "standard":
        return 2.0 ** (1.0 / p) - 1.0
    if convention == "aoki":
        return 2.0 ** (1.0 / p - 1.0)
    raise InvalidExponentError(f"unknown convention {convention!r}")


# ---------------------------------------------------------------------------
# Submultiplicativity


def check_submultiplicative(weight, group, sample_points, tol=1e-12):
    """Check w(xy) <= w(x) w(y) over all pairs from ``sample_points``.

    Returns a record with ``passed``, the maximal observed ratio, and the
    first violating pair if any. On pass the certificate is attached to
    the weight.
    """
    pts = np.asarray(sample_points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    x = pts[:, None, :]
    y = pts[None, :, :]
    xy = group.multiply(x, y)
    wx = weight(x)
    wy = weight(y)
    wxy = weight(xy)
    ratio = wxy / (wx * wy)
    worst = float(ratio.max())
    record = {"passed": worst <= 1.0 + tol, "max_ratio": worst,
              "pairs_checked": int(pts.shape[0] ** 2)}
    if record["passed"]:
        weight.submultiplicative = record
    else:
        i, j = np.argwhere(ratio > 1.0 + tol)[0]
        record["counterexample"] = {
            "x": pts[i].tolist(),
            "y": pts[j].tolist(),
            "w_xy": float(wxy[i, j]),
            "w_x_w_y": float(wx[i, 0] * wy[0, j]),
        }
    return record


# ---------------------------------------------------------------------------
# Ball integrals and the doubling condition


# relative change of a ball integral allowed when its cells are doubled: at
# 64 cells per radius a pole |x|^-n at the centre moves it by about 10%, a
# smooth weight by 3/4 of its O(h^2) midpoint error (3% for exp|x| at h = 1)
_BALL_REFINEMENT_TOL = 0.05
# rounding slack in the fitted doubling constants
_DOUBLING_ROUNDING = 1e-9


def ball_integral(weight, center, radius, cells_per_radius=64):
    """Midpoint quadrature of the weight over a Euclidean ball.

    The mesh scales with the radius (fixed number of cells per radius), so
    ratios of ball integrals of homogeneous weights are quadrature-exact.
    In dimension >= 2 the ball is integrated as an iterated integral with
    exact chord lengths, which keeps the boundary error smooth.

    The value is checked against the same rule on twice as many cells per
    radius. When the two differ by more than 5%, the quadrature has not
    converged: the weight has a pole that is not locally integrable
    (``|x|^s`` with ``s <= -n`` at a point of the ball), or it varies too
    fast for the mesh. Then ``WeightDomainError`` is raised; otherwise the
    value on ``cells_per_radius`` cells is returned.
    """
    center = np.atleast_1d(np.asarray(center, dtype=float))
    value = _midpoint_ball(weight, center, radius, cells_per_radius)
    fine = _midpoint_ball(weight, center, radius, 2 * cells_per_radius)
    if not abs(fine - value) <= _BALL_REFINEMENT_TOL * abs(fine):
        raise WeightDomainError(
            f"ball integral of weight {weight.name} over ball({center.tolist()}, "
            f"{radius}) does not converge: {value!r} on {cells_per_radius} "
            f"cells per radius, {fine!r} on {2 * cells_per_radius} (not "
            f"locally integrable, or too few cells for the weight)")
    return value


def _midpoint_ball(weight, center, radius, cells_per_radius):
    n = center.shape[0]
    m = 2 * int(cells_per_radius)
    h = 2.0 * radius / m
    offs = -radius + (np.arange(m) + 0.5) * h
    if n == 1:
        vals = weight((center[0] + offs)[:, None])
        return float(np.sum(vals) * h)
    if n == 2:
        chord = np.sqrt(np.maximum(radius**2 - offs**2, 0.0))
        total = 0.0
        for u, half in zip(offs, chord):
            if half <= 0:
                continue
            h2 = 2.0 * half / m
            ys = -half + (np.arange(m) + 0.5) * h2
            pts = np.stack([np.full(m, center[0] + u), center[1] + ys], axis=-1)
            total += np.sum(weight(pts)) * h2 * h
        return float(total)
    raise WeightDomainError("ball integrals implemented for n in {1, 2}")


def check_doubling(weight, centers, radii, scales=(2.0, 4.0), cells_per_radius=64,
                   growth_factor=1.5, growth_octaves=4):
    """Fit doubling constants (c, alpha) or report unbounded ratio growth.

    Over every (center, radius, scale) triple the ratio
    ``int_{B(x, t r)} v / int_{B(x, r)} v`` is computed; alpha comes from a
    least-squares fit of log ratio against log t, and c absorbs the largest
    residual slack. Failure is declared when, for some center, the
    log-ratio at t = 2 grows by more than ``growth_factor`` across each of
    ``growth_octaves`` consecutive radius octaves. A fit with ``c < 1`` or
    ``alpha < 0`` (beyond rounding) is rejected too: for a positive weight
    a larger ball never holds less mass, so such a fit means the quadrature
    missed mass. ``ball_integral`` raises ``WeightDomainError`` on a weight
    that is not locally integrable.
    """
    centers = [np.atleast_1d(np.asarray(c, dtype=float)) for c in centers]
    radii = np.asarray(sorted(radii), dtype=float)
    scales = np.asarray(sorted(scales), dtype=float)
    if np.any(scales < 1):
        raise WeightDomainError("doubling scales must satisfy t >= 1")

    base = np.empty((len(centers), len(radii)))
    scaled = np.empty((len(centers), len(radii), len(scales)))
    for i, x in enumerate(centers):
        for j, r in enumerate(radii):
            base[i, j] = ball_integral(weight, x, r, cells_per_radius)
            if base[i, j] <= 0 or not np.isfinite(base[i, j]):
                raise WeightDomainError(f"weight not integrable on ball({x}, {r})")
            for k, t in enumerate(scales):
                scaled[i, j, k] = ball_integral(weight, x, t * r, cells_per_radius)
    ratios = scaled / base[:, :, None]

    # rejection rule: sustained growth of the t=2 log-ratio along octaves
    octave_report = _octave_growth(weight, centers, radii, cells_per_radius,
                                   growth_factor, growth_octaves)
    failing = [rec for rec in octave_report
               if rec["max_growth_run"] >= growth_octaves]
    if failing:
        worst = max(failing, key=lambda rec: rec["max_growth_run"])
        return {"passed": False, "witness": worst, "octave_scan": octave_report}

    logt = np.log(scales)
    logr = np.log(np.maximum(ratios, 1e-300))
    fitted = float(np.sum(logr * logt)
                   / (logr.shape[0] * logr.shape[1] * np.sum(logt**2)))
    alpha = max(fitted, 0.0)
    c = float(np.max(ratios / scales[None, None, :] ** alpha))
    if fitted < -_DOUBLING_ROUNDING or c < 1.0 - _DOUBLING_ROUNDING:
        return {"passed": False, "c": c, "alpha": fitted,
                "reason": "fit has c < 1 or alpha < 0: larger balls hold less mass"}
    with np.errstate(divide="ignore", invalid="ignore"):
        per_triple = np.log(np.maximum(ratios, 1e-300)) / logt
    record = {
        "passed": True,
        "c": c,
        "alpha": alpha,
        "alpha_max": float(np.max(per_triple)),
        "triples_checked": int(ratios.size),
    }
    weight.doubling = record
    return record


def _octave_growth(weight, centers, radii, cells_per_radius,
                   growth_factor, growth_octaves):
    """Growth of the t=2 doubling log-ratio along radius octaves per center."""
    r0 = float(np.min(radii))
    octaves = [r0 * 2.0**k for k in range(growth_octaves + 2)]
    report = []
    for x in centers:
        logratios = []
        for r in octaves:
            b = ball_integral(weight, x, r, cells_per_radius)
            d = ball_integral(weight, x, 2.0 * r, cells_per_radius)
            logratios.append(np.log(max(d / b, 1e-300)))
        growth = [logratios[k + 1] / logratios[k] if logratios[k] > 0 else 0.0
                  for k in range(len(octaves) - 1)]
        run = best = 0
        for g in growth:
            run = run + 1 if g > growth_factor else 0
            best = max(best, run)
        report.append({
            "center": np.atleast_1d(x).tolist(),
            "radii": octaves,
            "log_ratios_t2": [float(v) for v in logratios],
            "growth_factors": [float(g) for g in growth],
            "max_growth_run": best,
        })
    return report


# ---------------------------------------------------------------------------
# Discrete sequence spaces Y_d


@dataclass
class DiscreteSequence:
    """Coefficients over a well-spread set, normed through the component.

    The norm places |coefficient_i| on the cell ``x_i . window`` and takes
    the component's quasi-norm of the resulting step function.
    """

    coefficients: np.ndarray
    well_spread: object
    component: object
    window: object

    def __post_init__(self):
        self.coefficients = np.asarray(self.coefficients)
        if self.coefficients.shape[0] != len(self.well_spread.points):
            raise IndexMismatchError(
                f"{self.coefficients.shape[0]} coefficients for "
                f"{len(self.well_spread.points)} points"
            )


def assemble_step_function(X, window, coefficients, grid):
    """Step function ``sum_i |c_i| chi_{x_i . window}`` sampled on the grid."""
    coefficients = np.asarray(coefficients)
    if coefficients.shape[0] != len(X.points):
        raise IndexMismatchError("coefficient count does not match the point set")
    out = X.cell_masks(window, grid).scatter(np.abs(coefficients))
    return SampledFunction(grid, out.reshape(grid.shape))


def sequence_norm(seq, grid=None, overflow_guard=DEFAULT_OVERFLOW_GUARD):
    """Y_d quasi-norm of a coefficient sequence."""
    if grid is None:
        grid = seq.well_spread.grid
    if grid is None:
        raise IndexMismatchError(
            "sequence norm needs a grid: pass one or attach it to the point set"
        )
    step = assemble_step_function(seq.well_spread, seq.window, seq.coefficients, grid)
    return quasi_norm(seq.component, step, overflow_guard)
