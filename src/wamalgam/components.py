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
    """Marker for a quasi-norm that exceeded ``OVERFLOW_GUARD``."""

    def __repr__(self):
        return "OVERFLOW"

    def __bool__(self):
        return False


OVERFLOW = OverflowSignal()

# every quasi-norm above this value is reported as OVERFLOW
OVERFLOW_GUARD = 1e12


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
    """Mixed-norm L^{p,q}(v) over ax+b: inner L^p(v dx) in x, outer L^q in scale.

    v lives on R^n, so its ``domain`` must be "base".
    """

    p: float
    q: float
    weight: WeightFunction | None = None
    n: int = 1

    def __post_init__(self):
        if not (0 < self.p < math.inf):
            raise InvalidExponentError("p must lie in (0, inf) for mixed norms")
        if not (self.q > 0):
            raise InvalidExponentError("q must be positive")
        if self.weight is not None and self.weight.domain != "base":
            raise WeightDomainError(
                f"mixed-norm weight {self.weight.name} must live on R^n (domain "
                f"'base'), not on domain {self.weight.domain!r}")

    @property
    def p_exponent(self):
        return min(1.0, self.p, self.q)

    def describe(self):
        v = self.weight.name if self.weight is not None else "1"
        return f"L^{{{self.p},{self.q}}}({v})"


def quasi_norm(component, F):
    """Quadrature evaluation of the component's quasi-norm of ``F``.

    Returns OVERFLOW when the result exceeds ``OVERFLOW_GUARD`` or the
    power sums leave the floating range, and raises NonFiniteSampleError
    when a sample is NaN: an undefined sample is not a divergence.
    """
    if np.isnan(F.values).any():
        raise NonFiniteSampleError("samples contain NaN")
    if isinstance(component, MixedLpq):
        return _mixed_norm(component, F)
    return _weighted_lp_norm(component, F)


def _guarded(value):
    if not np.isfinite(value) or value > OVERFLOW_GUARD:
        return OVERFLOW
    return float(value)


def _lp_sum(values, mass, p):
    """``(sum values^p mass)^(1/p)`` over the last axis, or ``max values mass``
    at p = inf: one guarded value per row of ``values``.

    Each row's root is a scalar power: numpy's array power may round it
    differently.
    """
    if p == math.inf:
        return [_guarded(t) for t in np.max(values * mass, axis=-1, initial=0.0).flat]
    with np.errstate(over="ignore"):
        return [_guarded(t ** (1.0 / p))
                for t in np.sum(values**p * mass, axis=-1).flat]


def _weighted_lp_norm(component, F):
    absF = np.abs(F.values)
    if component.weight is not None:
        absF = absF * component.weight.on_grid(F.grid)
    # at p = inf a point's mass is 1: the weight is in absF
    mass = F.grid.weights.ravel() if component.p < math.inf else 1.0
    return _lp_sum(absF.ravel(), mass, component.p)[0]


def _mixed_norm(component, F):
    grid = F.grid
    if not isinstance(grid, AxbGrid):
        raise GroupMismatchError("mixed-norm components require ax+b grids")
    if grid.group.n != component.n:
        raise GroupMismatchError("mixed-norm dimension does not match the grid")
    absF = np.abs(F.values)
    x_volume, scale_weights = grid.weight_factors
    vvals = component.weight.on_grid(grid) if component.weight is not None else 1.0
    x_axes = tuple(range(component.n))
    with np.errstate(over="ignore"):
        inner = np.sum(absF**component.p * vvals, axis=x_axes) * x_volume
        if component.q == math.inf:
            return _guarded(np.max(inner, initial=0.0) ** (1.0 / component.p))
        total = np.sum(inner ** (component.q / component.p) * scale_weights)
        return _guarded(total ** (1.0 / component.q))


# ---------------------------------------------------------------------------
# Quasi-norm constant vs p-exponent


def p_exponent_from_quasi_constant(C):
    """Exponent p with equivalent p-norm for a quasi-norm constant C >= 1,
    by the Aoki-Rolewicz relation ``C = 2^{1/p - 1}``."""
    if C < 1:
        raise InvalidExponentError("quasi-norm constants satisfy C >= 1")
    return 1.0 / (math.log2(C) + 1.0)


def quasi_constant_from_p_exponent(p):
    """The Aoki-Rolewicz constant ``C = 2^{1/p - 1}`` of a p-norm: L^p's own
    quasi-norm constant for 0 < p <= 1."""
    if not (0 < p <= 1):
        raise InvalidExponentError("p-exponents lie in (0, 1]")
    return 2.0 ** (1.0 / p - 1.0)


# ---------------------------------------------------------------------------
# Submultiplicativity


def check_submultiplicative(weight, group, sample_points):
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
    violations = np.argwhere(ratio > 1.0 + 1e-12)  # beyond rounding
    record = {"passed": not len(violations), "max_ratio": float(ratio.max()),
              "pairs_checked": int(pts.shape[0] ** 2)}
    if record["passed"]:
        weight.submultiplicative = record
    else:
        i, j = violations[0]
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
# check_doubling's dilations t, and its rejection rule: growth of the t = 2
# log-ratio by more than _GROWTH_FACTOR over _GROWTH_OCTAVES octaves in a row
_DOUBLING_SCALES = np.array([2.0, 4.0])
_GROWTH_FACTOR, _GROWTH_OCTAVES = 1.5, 4


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


def check_doubling(weight, centers, radii):
    """Fit doubling constants (c, alpha) or report unbounded ratio growth.

    Over every (center, radius, scale t in ``_DOUBLING_SCALES``) triple
    the ratio ``int_{B(x, t r)} v / int_{B(x, r)} v`` is computed; alpha
    comes from a least-squares fit of log ratio against log t, and c absorbs
    the largest residual slack. Failure is declared when, for some center,
    the log-ratio at t = 2 grows by more than ``_GROWTH_FACTOR`` across each
    of ``_GROWTH_OCTAVES`` consecutive radius octaves. A fit with ``c < 1`` or
    ``alpha < 0`` (beyond rounding) is rejected too: for a positive weight
    a larger ball never holds less mass, so such a fit means the quadrature
    missed mass. ``ball_integral`` raises ``WeightDomainError`` on a weight
    that is not locally integrable.
    """
    centers = [np.atleast_1d(np.asarray(c, dtype=float)) for c in centers]
    radii = np.asarray(sorted(radii), dtype=float)

    base = np.empty((len(centers), len(radii)))
    scaled = np.empty((len(centers), len(radii), len(_DOUBLING_SCALES)))
    for i, x in enumerate(centers):
        for j, r in enumerate(radii):
            base[i, j] = ball_integral(weight, x, r)
            if base[i, j] <= 0 or not np.isfinite(base[i, j]):
                raise WeightDomainError(f"weight not integrable on ball({x}, {r})")
            for k, t in enumerate(_DOUBLING_SCALES):
                scaled[i, j, k] = ball_integral(weight, x, t * r)
    ratios = scaled / base[:, :, None]

    # rejection rule: sustained growth of the t=2 log-ratio along octaves
    octave_report = _octave_growth(weight, centers, radii)
    failing = [rec for rec in octave_report
               if rec["max_growth_run"] >= _GROWTH_OCTAVES]
    if failing:
        worst = max(failing, key=lambda rec: rec["max_growth_run"])
        return {"passed": False, "witness": worst, "octave_scan": octave_report}

    logt = np.log(_DOUBLING_SCALES)
    logr = np.log(np.maximum(ratios, 1e-300))
    fitted = float(np.sum(logr * logt)
                   / (logr.shape[0] * logr.shape[1] * np.sum(logt**2)))
    alpha = max(fitted, 0.0)
    c = float(np.max(ratios / _DOUBLING_SCALES[None, None, :] ** alpha))
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


def _octave_growth(weight, centers, radii):
    """Growth of the t=2 doubling log-ratio along radius octaves per center."""
    r0 = float(np.min(radii))
    octaves = [r0 * 2.0**k for k in range(_GROWTH_OCTAVES + 2)]
    report = []
    for x in centers:
        # ball(x, 2r) of one octave is ball(x, r) of the next
        balls = [ball_integral(weight, x, r0 * 2.0**k)
                 for k in range(_GROWTH_OCTAVES + 3)]
        logratios = [np.log(max(d / b, 1e-300)) for b, d in zip(balls, balls[1:])]
        growth = [logratios[k + 1] / logratios[k] if logratios[k] > 0 else 0.0
                  for k in range(len(octaves) - 1)]
        run = best = 0
        for g in growth:
            run = run + 1 if g > _GROWTH_FACTOR else 0
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


def _coefficient_array(coefficients, X):
    """``coefficients`` as an array, which must be 1-D with one entry per point."""
    coefficients = np.asarray(coefficients)
    if coefficients.shape != (len(X.points),):
        raise IndexMismatchError(
            f"coefficients of shape {coefficients.shape} for {len(X.points)} "
            f"points: need one coefficient per point, as a 1-D array"
        )
    return coefficients


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
        self.coefficients = _coefficient_array(self.coefficients, self.well_spread)


def assemble_step_function(X, window, coefficients, grid):
    """Step function ``sum_i |c_i| chi_{x_i . window}`` sampled on the grid."""
    coefficients = _coefficient_array(coefficients, X)
    out = X.cell_masks(window, grid).scatter(np.abs(coefficients))
    return SampledFunction(grid, out.reshape(grid.shape))


def sequence_norm(seq, grid=None):
    """Y_d quasi-norm of a coefficient sequence, on ``grid`` or the grid of
    its point set: the one-row case of ``sequence_norms``."""
    if grid is None:
        grid = seq.well_spread.grid
    if grid is None:
        raise IndexMismatchError(
            "sequence norm needs a grid: pass one or attach it to the point set"
        )
    return sequence_norms(seq.coefficients[None], seq.well_spread, seq.component,
                          seq.window, grid)[0]


def sequence_norms(coefficients, X, component, window, grid):
    """Y_d quasi-norms of a (V, |X|) stack of coefficient vectors, one per row.

    Row v is normed as ``DiscreteSequence(coefficients[v], X, component,
    window)``. The step function ``s = sum_i |c_i| chi_{x_i . window}`` is
    constant on the atoms of the cover (``CellOperator.atoms``). For
    ``WeightedLp`` the norm is taken on the atoms, as
    ``(sum_a s_a^p m_a)^(1/p)`` with ``m_a = sum_{x in a} w(x)^p mu(x)``,
    and as ``max_a s_a max_{x in a} w(x)`` at p = inf. The atoms keep
    ``m_a`` per p and weight array, and ``AtomPartition.sums`` takes the
    whole stack at once, so a call costs O(atoms + atom entries) per row
    with one set-up, not O(grid); each row's norm is bit-identical to its
    norm alone and agrees with the norm of the step function on the grid
    up to rounding (exactly at p = inf). ``MixedLpq`` takes its norm of
    each row's step function on the grid.
    """
    coefficients = np.asarray(coefficients)
    if coefficients.ndim != 2 or coefficients.shape[1] != len(X.points):
        raise IndexMismatchError(
            f"coefficients of shape {coefficients.shape} for {len(X.points)} "
            f"points: need one row of one coefficient per point, as a 2-D array"
        )
    if isinstance(component, MixedLpq):
        return [quasi_norm(component, assemble_step_function(X, window, row, grid))
                for row in coefficients]
    atoms = X.cell_masks(window, grid).atoms
    values = atoms.sums(np.abs(coefficients))
    if np.isnan(values).any():
        raise NonFiniteSampleError("samples contain NaN")
    weight = component.weight.on_grid(grid) if component.weight is not None else None
    return _lp_sum(values, atoms.measure(component.p, weight, grid.weights),
                   component.p)
