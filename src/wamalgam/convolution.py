"""Group convolution by Haar quadrature and embedding verification.

Convolution is the Haar quadrature ``(F*G)(z) = sum_y F(y) G(y^{-1} z)
w(y)`` over the support of F. Every grid is uniform in its interpolation
coordinates, so ``y^{-1} z`` only takes values at whole-step offsets
between grid points: G is interpolated into a table ``K`` on those
offsets, and the quadrature is the middle of the linear convolution of
``F w`` with ``K`` along the x axes. It is computed by FFT at a
power-of-two length of at least ``2N - 1`` per axis, so the circular
convolution does not wrap around; complex factors use the complex
transform, real ones the real transform.

The table is multilinear interpolation of G, built by one 2-tap pass
per axis (``Grid.interpolate_along``). On R^n and Z^n there is one table
and one transform. On ax+b, ``y^{-1} z`` scales the x offsets by ``1/a``
of the source's scale row but not the scale offsets, so the scale axis
is tabulated once per convolution, on all ``2Na - 1`` offsets. Each row
of F's support then takes the ``Na`` columns its sources reach and
interpolates them along x at its own scaled offsets; the transform runs
along x for all of those columns at once.

On the integer lattice the offsets are integers and ``K`` holds G's
samples. When F and G are integer-valued the FFT result is rounded, but
only after an error bound computed from the inputs certifies that every
entry is within 1/2 of the exact sum; otherwise both factors are split
into base-2^k digits small enough for the bound, and the rounded digit
convolutions are summed. The result is exact whenever
``sum_y |F(y) G(y^{-1} z)| < 2^53`` at every output point z.

Embedding checks compare the target amalgam norm of F*G against the
product of factor norms over a test family and track the empirical
constant under grid refinement.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .amalgam import DiscreteMeasure, amalgam_norm, control_function, involution, translate
from .components import (
    DEFAULT_OVERFLOW_GUARD,
    OVERFLOW,
    is_overflow,
    quasi_norm,
)
from .errors import GroupMismatchError, TruncationWarning
from .groups import AxbGrid, LatticeGrid, SampledFunction

_SUPPORT_CUTOFF = 1e-14


def convolve(F, G):
    """Haar convolution of two sampled functions, on F's grid."""
    if F.grid.group != G.grid.group:
        raise GroupMismatchError("convolution factors live on different groups")
    grid = F.grid
    n = grid.group.n
    vals = F.values
    cutoff = _SUPPORT_CUTOFF
    if not isinstance(grid, LatticeGrid):
        cutoff *= max(1.0, np.abs(vals).max())
    fw = np.where(np.abs(vals) > cutoff, vals * grid.weights, 0.0)
    # source i adds fw[i] times table entries [N - 1 - i, 2N - 1 - i) (see
    # _offset_tables). Summed over i, that is entries [N - 1, 2N - 1) of
    # the linear convolution fw * K along the x axes, which a circular one
    # of length >= 2N - 1 holds without wrap-around.
    xs = tuple(range(n))
    # power-of-two lengths: the ones _fft_error_bound covers
    size = [1 << int(2 * N - 2).bit_length() for N in grid.shape[:n]]
    keep = tuple(slice(N - 1, 2 * N - 1) for N in grid.shape[:n])
    exact = isinstance(grid, LatticeGrid) and _integral(fw) and _integral(G.values)
    convolve_x = _exact_convolution if exact else _fft_convolve
    out = np.zeros(grid.shape, dtype=np.result_type(fw, G.values))
    for row, K in _offset_tables(grid, fw, G):
        out += convolve_x(fw[row], K, xs, size)[keep]
    result = SampledFunction(grid, out)
    _warn_truncation(result)
    return result


def _offset_tables(grid, fw, G):
    """Yield ``(row, K)``: the sources ``fw[row]`` and G's table ``K`` on
    the whole-step offsets between points of ``grid``, as they read it.

    Every interpolation axis is uniform, so x_l - x_i = (l - i) h: entry k
    of an axis' offsets is (k - N + 1) h. The table is multilinear
    interpolation of G there, one 2-tap pass per axis. The axes after x
    (ax+b's scale axis) are read at the same offsets by every source, so
    they are interpolated once. R^n and Z^n have one row, all of ``fw``,
    reading the whole table. On ax+b, y^{-1} z = ((z_x - y_x) / a_j,
    z_a / a_j): the sources of scale row j read x offsets scaled by 1/a_j,
    and output column m reads a-offset m - j, so their table is columns
    [Na - 1 - j, 2Na - 1 - j), interpolated along x at ``offsets / a_j``.
    Rows without support are skipped.
    """
    n = grid.group.n
    offsets = [np.concatenate((ax[0] - ax[:0:-1], ax - ax[0]))
               for ax in grid.interp_axes]
    table = G.values
    for k in range(n, len(offsets)):
        table = G.grid.interpolate_along(table, k, offsets[k])
    # (sources, x-offset scale, table columns) per row
    rows = [((...,), 1.0, ())]
    if isinstance(grid, AxbGrid):
        na = grid.shape[-1]
        rows = [((..., slice(j, j + 1)), grid.axes[-1][j],
                 (slice(na - 1 - j, 2 * na - 1 - j),))
                for j in np.flatnonzero(np.any(fw, axis=tuple(range(n))))]
    for row, scale, cols in rows:
        K = table[(...,) + cols]
        for k in range(n):
            K = G.grid.interpolate_along(K, k, offsets[k] / scale)
        yield row, K


def _fft_convolve(a, b, axes, size):
    """Circular convolution of ``a`` and ``b`` at lengths ``size`` over ``axes``."""
    if np.iscomplexobj(a) or np.iscomplexobj(b):
        spec = np.fft.fftn(a, size, axes) * np.fft.fftn(b, size, axes)
        return np.fft.ifftn(spec, size, axes)
    spec = np.fft.rfftn(a, size, axes) * np.fft.rfftn(b, size, axes)
    return np.fft.irfftn(spec, size, axes)


def _integral(a):
    """True when every entry is a finite real integer."""
    return not np.iscomplexobj(a) and bool(np.all(np.mod(a, 1.0) == 0))


def _fft_error_bound(a, b, size):
    """Bound on every entry's error in ``_fft_convolve(a, b)`` (real or complex).

    Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed.
    (SIAM 2002), Theorem 24.2: the radix-2 Cooley-Tukey FFT of length L
    computes y = F x with ``||y_hat - y||_2 <= delta ||y||_2``, where
    ``delta = l eta / (1 - l eta)``, ``l = log2 L``, ``eta = mu + gamma_4
    (sqrt(2) + mu)``, ``gamma_4 = 4u / (1 - 4u)`` and mu bounds the error of
    the twiddle factors (taken as u). An n-D transform is 1-D transforms
    along each axis, whose factors ``1 / (1 - l_k eta)`` multiply to at most
    ``1 / (1 - l eta)`` with ``l = log2`` of the total length.

    With A = F a, B = F b: ``||A||_inf <= ||a||_1``, ``||A||_2 = sqrt(L)
    ||a||_2`` and the inverse transform divides 2-norms by ``sqrt(L)``. The
    two spectra's errors, the complex products' rounding (``sqrt(2)
    gamma_2`` relative, Higham Lemma 3.5, at most delta / 2 here) and the
    inverse transform's error then add up to at most ``4 delta S`` in the
    2-norm, so in every entry, with ``S = max(||a||_1 ||b||_2, ||a||_2
    ||b||_1)``, as long as ``delta sqrt(L) < 0.1`` (any L below 2^60).
    numpy computes power-of-two lengths with radix-4 and real-data passes,
    which regroup the radix-2 butterflies; the bound is doubled to cover
    that regrouping. On random integer inputs the measured error stays
    below 1/500 of the returned bound.
    """
    u = 2.0 ** -53
    gamma4 = 4 * u / (1 - 4 * u)
    eta = u + gamma4 * (np.sqrt(2.0) + u)
    l_eta = max(1.0, np.log2(np.prod(size, dtype=float))) * eta
    delta = l_eta / (1 - l_eta)
    a1, a2 = np.abs(a).sum(), np.sqrt(np.sum(np.abs(a) ** 2))
    b1, b2 = np.abs(b).sum(), np.sqrt(np.sum(np.abs(b) ** 2))
    return 2 * 4 * delta * max(a1 * b2, a2 * b1)


def _exact_convolution(a, b, axes, size):
    """Circular convolution of integer-valued arrays, rounded only where
    ``_fft_error_bound`` certifies an error below 1/2."""
    if _fft_error_bound(a, b, size) < 0.5:
        return np.rint(_fft_convolve(a, b, axes, size))
    # digits below 2^k in magnitude on the same supports have norms at most
    # 2^k times the supports' indicators, so the bound scales by 4^k
    unit = _fft_error_bound(a != 0, b != 0, size)
    k = int(np.floor(np.log2(0.5 / unit) / 2))
    if k < 1:
        raise OverflowError("no digit width certifies an exact lattice convolution")
    out = 0.0
    for p, a_digit in enumerate(_digits(a, k)):
        for q, b_digit in enumerate(_digits(b, k)):
            digit = np.rint(_fft_convolve(a_digit, b_digit, axes, size))
            # a power-of-two scale of an integer is exact; each partial sum
            # is bounded by sum |a| |b| at that entry
            out = out + np.ldexp(digit, k * (p + q))
    return out


def _digits(a, k):
    """Signed base-2^k digits of an integer-valued array: ``a = sum_p
    2^(kp) d_p`` with ``|d_p| < 2^k``, each step exact in float64."""
    sign, rest = np.sign(a), np.abs(a)
    digits = []
    while rest.any():
        low = np.mod(rest, 2.0 ** k)
        digits.append(sign * low)
        rest = (rest - low) / 2.0 ** k
    return digits


def convolve_point(F, G, z):
    """Single-point quadrature of the convolution, (F*G)(z)."""
    grid = F.grid
    group = grid.group
    pts = grid.points()
    args = group.multiply(group.inverse(pts), np.asarray(z, dtype=float))
    gvals = G.eval_at(args)
    return complex(np.sum(F.values.ravel() * gvals * grid.weights.ravel()))


def convolve_measure(mu, G):
    """Convolution of a discrete measure with a sampled function."""
    grid = G.grid
    out = np.zeros(grid.shape, dtype=complex)
    for z, mass in mu.atoms:
        out = out + mass * translate(G, z, "left", coverage_warn=0.0).values
    if mu.density is not None:
        # the sum below is checked for truncation once, with the atoms
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            out = out + convolve(mu.density, G).values
    if not np.iscomplexobj(G.values) and all(m.imag == 0 for _, m in mu.atoms):
        out = out.real
    result = SampledFunction(grid, out)
    _warn_truncation(result)
    return result


def _truncation_ratio(out):
    """Largest absolute value on the window's edge over the peak (0 if none)."""
    vals = np.abs(out.values)
    peak = vals.max(initial=0.0)
    if peak <= 0:
        return 0.0
    edge = 0.0
    for ax in range(vals.ndim):
        edge = max(edge, vals.take(0, axis=ax).max(initial=0.0),
                   vals.take(-1, axis=ax).max(initial=0.0))
    return float(edge / peak)


def _warn_truncation(out):
    """Warn when the computed convolution carries mass at the window edge."""
    ratio = _truncation_ratio(out)
    if ratio > 1e-8:
        warnings.warn(
            f"convolution support reaches the window boundary "
            f"(edge/peak = {ratio:.2e}); result is truncated",
            TruncationWarning,
            stacklevel=3,
        )


# ---------------------------------------------------------------------------
# Embedding verification


@dataclass
class EmbeddingReport:
    """Empirical record for one convolution embedding relation."""

    relation: str
    family: str
    pairs: list = field(default_factory=list)
    c_emp: float = 0.0
    refinement_trace: list = field(default_factory=list)
    passed: bool = False
    growth_tolerance: float = 0.25
    failures: list = field(default_factory=list)
    truncation: list = field(default_factory=list)

    def as_record(self):
        return {
            "relation": self.relation,
            "family": self.family,
            "pairs": self.pairs,
            "c_emp": self.c_emp,
            "refinement_trace": self.refinement_trace,
            "passed": self.passed,
            "growth_tolerance": self.growth_tolerance,
            "failures": self.failures,
            "truncation": self.truncation,
        }


def space_norm(space, overflow_guard=DEFAULT_OVERFLOW_GUARD):
    """Norm evaluator for a Wiener amalgam space."""

    def norm(obj):
        return amalgam_norm(obj, space.window, space.local,
                            space.global_component, overflow_guard)

    return norm


def estimator_weight_on_line(space, grid, knots, direction="measure", *,
                             well_spread=None, test_family=(), rng=None,
                             bracket_constant=1.0, name="operator-norm-upper"):
    """Weight on R built from translation-operator upper certificates.

    Tabulates the upper bound of the operator norm at ``|x|`` knots and
    interpolates linearly; feeding it to the right-hand factor of an
    embedding only strengthens the hypothesis, so the verified inequality
    stays sound.
    """
    from .amalgam import estimate_translation_operator_norm
    from .components import table_weight

    knots = np.asarray(sorted(set(float(abs(k)) for k in knots)))
    uppers = []
    for k in knots:
        if k == 0.0:
            uppers.append(1.0)
            continue
        # both signs: on the line the inverse of a knot is its mirror, so
        # the same sweep serves bounds for T_x and T_{x^{-1}}
        bound = 0.0
        for sign in (1.0, -1.0):
            ob = estimate_translation_operator_norm(
                space, np.array([sign * k]), direction, grid=grid,
                well_spread=well_spread, test_family=test_family, rng=rng,
                bracket_constant=bracket_constant)
            bound = max(bound, ob.upper)
        uppers.append(bound)
    uppers = np.maximum.accumulate(np.asarray(uppers))  # monotone envelope
    return table_weight(knots, uppers, name=name)


def reflected_space_norm(space, overflow_guard=DEFAULT_OVERFLOW_GUARD):
    """Evaluator for the reflected space: the amalgam norm of W(B, Y-reflected)
    applied through both reversals, ``||K(G-reversed)- reversed||_Y``."""

    def norm(G):
        rev = involution(G, "reverse")
        K = control_function(rev, space.window, space.local)
        back = involution(K, "reverse")
        return quasi_norm(space.global_component, back, overflow_guard)

    return norm


def verify_embedding(relation, left_specs, right_specs, *, grid,
                     target_norm, left_norm, right_norm,
                     levels=2, refine_factor=2, growth_tolerance=0.25,
                     family="", pairing="zip"):
    """Empirically verify ``||F*G||_target <= C ||F||_left ||G||_right``.

    Samples every (F, G) pair on the base grid and on ``levels - 1``
    refinements, records per-pair ratios, and passes when the empirical
    constant is finite and does not grow by more than ``growth_tolerance``
    under one refinement. Overflow signals are recorded as failure
    witnesses rather than raised. Truncation does not change the verdict:
    each level records the largest edge/peak ratio of its convolutions in
    ``truncation``, and each level-0 pair its own ratio.
    """
    if pairing == "zip":
        pair_list = list(zip(left_specs, right_specs))
    else:
        pair_list = [(f, g) for f in left_specs for g in right_specs]
    report = EmbeddingReport(relation=relation, family=family,
                             growth_tolerance=growth_tolerance)
    grids = [grid]
    for _ in range(levels - 1):
        grids.append(grids[-1].refine(refine_factor))
    for level, gr in enumerate(grids):
        c_emp = 0.0
        truncation = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            for idx, (fs, gs) in enumerate(pair_list):
                F = fs.sample(gr)
                G = gs.sample(gr)
                conv = (convolve_measure(F, G) if isinstance(F, DiscreteMeasure)
                        else convolve(F, G))
                edge = _truncation_ratio(conv)
                truncation = max(truncation, edge)
                t = target_norm(conv)
                lf = left_norm(F)
                rf = right_norm(G)
                if any(is_overflow(v) for v in (t, lf, rf)):
                    report.failures.append({"pair": idx, "level": level,
                                            "reason": "overflow"})
                    continue
                if lf <= 0 or rf <= 0:
                    continue
                ratio = t / (lf * rf)
                c_emp = max(c_emp, ratio)
                if level == 0:
                    report.pairs.append({
                        "pair": idx,
                        "target": float(t),
                        "product": float(lf * rf),
                        "ratio": float(ratio),
                        "truncation": edge,
                    })
        report.refinement_trace.append(float(c_emp))
        report.truncation.append(truncation)
    report.c_emp = report.refinement_trace[0]
    finite = all(np.isfinite(v) for v in report.refinement_trace)
    stable = all(
        report.refinement_trace[k + 1]
        <= (1 + growth_tolerance) * report.refinement_trace[k]
        for k in range(len(report.refinement_trace) - 1)
    )
    report.passed = finite and stable and not report.failures
    return report


# ---------------------------------------------------------------------------
# The p < 1 failure demonstration


def graded_lp_norm(exponent_p, singularity_power, upper=1.0, x_min=1e-12,
                   cells=4000):
    """L^p quasi-norm of ``x^s`` on (0, upper] by log-graded midpoint rule.

    The geometric mesh resolves the power singularity: the substitution
    u = log x turns the integrand into a smooth exponential.
    """
    u_lo, u_hi = np.log(x_min), np.log(upper)
    du = (u_hi - u_lo) / cells
    u = u_lo + (np.arange(cells) + 0.5) * du
    integrand = np.exp(u * (singularity_power * exponent_p + 1.0))
    return float(np.sum(integrand) * du) ** (1.0 / exponent_p)


def demonstrate_lp_failure(p=0.5, base_cells=1000, levels=3, refine_factor=4,
                           growth_threshold=1.8, overflow_guard=DEFAULT_OVERFLOW_GUARD):
    """Show why plain L^p, p < 1, carries no convolution: quadratures of
    ``(x^{-3/2} chi_(0,1]) * chi_[0,1]`` diverge under refinement while the
    L^{1/2} quasi-norm stays at its analytic value, and the amalgam space
    with local sup control rejects the singular factor outright.

    Returns a report whose ``amalgam_norm`` entry is the overflow signal
    when the refinement ladder shows sustained growth.
    """
    from .components import WeightedLp
    from .groups import Euclidean, UniformGrid
    from .windows import BoxWindow

    group = Euclidean(1)
    singular = lambda x: np.where(x > 0, np.abs(x) ** -1.5, 0.0) * (x <= 1.0)

    lp_norm = graded_lp_norm(p, -1.5)

    conv_values = []
    w_norms = []
    cells = base_cells
    for _ in range(levels + 1):
        grid = UniformGrid(group, -2.0, 2.0, cells)
        F = SampledFunction(grid, singular(grid.axes[0]).reshape(grid.shape))
        box = SampledFunction.sample(grid, lambda x: ((x >= 0) & (x <= 1)).astype(float))
        conv_values.append(abs(convolve_point(F, box, np.array([1.0]))))
        wn = amalgam_norm(F, BoxWindow.centered(0.25, 1), "linf", WeightedLp(p),
                          overflow_guard=overflow_guard)
        w_norms.append(wn)
        cells *= refine_factor
    growth = [conv_values[k + 1] / conv_values[k] for k in range(levels)]

    finite_w = [v for v in w_norms if not is_overflow(v)]
    w_growth = [finite_w[k + 1] / finite_w[k] for k in range(len(finite_w) - 1)]
    diverges = any(is_overflow(v) for v in w_norms) or (
        len(w_growth) >= levels - 1
        and all(g >= growth_threshold for g in w_growth)
    )
    return {
        "p": p,
        "lp_norm": lp_norm,
        "lp_norm_analytic": (1.0 / (1.0 - 0.75)) ** (1.0 / p) if p == 0.5 else None,
        "convolution_values": [float(v) for v in conv_values],
        "convolution_growth": [float(g) for g in growth],
        "growth_threshold": growth_threshold,
        "convolution_diverges": all(g >= growth_threshold for g in growth),
        "amalgam_norm": OVERFLOW if diverges else w_norms[-1],
        "amalgam_norm_trace": [repr(v) if is_overflow(v) else float(v)
                               for v in w_norms],
    }
