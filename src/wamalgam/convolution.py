"""Group convolution by Haar quadrature and embedding verification.

Convolution is the Haar quadrature ``(F*G)(z) = sum_y F(y) G(y^{-1} z)
w(y)`` over the support of F. Every grid is uniform in its interpolation
coordinates, so ``y^{-1} z`` only takes values at whole-step offsets
between grid points: G is interpolated into a table ``K`` on those
offsets, and the quadrature is the middle of the linear convolution of
``F w`` with ``K`` along the x axes. Complex factors use the complex
transform, real ones the real transform.

The table is multilinear interpolation of G, built by one 2-tap pass
per axis (``Grid.interpolate_along``). Arrays are laid out scale axis
first and x axes last, so each table is contiguous along the axes being
transformed; R^n and Z^n have a scale axis of length 1 and one row. On
ax+b, ``y^{-1} z`` scales the x offsets by ``1/a`` of the source's scale
row but not the scale offsets, so the scale axis is tabulated once per
convolution, on all ``2Na - 1`` offsets. Each row j of F's support then
reads a window of ``Na`` of those columns and interpolates them along x
at its own scaled offsets (``_row_tables``). A row touches only part of
its window: the span from its first to its last column that is not all
zero, and along x only the queries inside G's window. Everything else in
its table is exactly zero, so leaving it out changes no bit, and a row
whose window meets no nonzero column does no work at all. On the default
``axb_relation`` families, where F and G share a grid, rows touch about
70% of their window's columns and 40% of its x queries.

The transform along x is linear, so the rows need not be inverted one by
one: ``F w`` is transformed once for all its columns, each row adds the
product of its source column's spectrum and its table's spectrum into
one sum, and a single inverse transform of that sum gives the result.
All of it runs in one workspace per convolution: one zero-padded table
buffer, which each row writes into and re-zeroes only where the previous
row wrote, one spectrum buffer that the row's transform writes with
``out=``, and the sum. A convolution costs one forward transform of
``F w``, one inverse, and per row that reaches G one transform of as many
table columns as it touches (``Na`` at most), with 2-tap passes over
those columns at the x queries inside G's window. These transforms use
the smallest length ``2^a 3^b 5^c >= 2N - 1`` per axis: that is enough
for the circular convolution not to wrap around, and numpy's FFT runs
such lengths by radix-2, 3 and 5 passes, e.g. 160 points for an 80-point
axis, not 256.

On the integer lattice the offsets are integers and ``K`` would hold
just G's samples. When F and G are integer-valued no table is built:
``_lattice_convolution`` convolves the support box of ``F w`` directly
with the support box of the part of G that can reach F's window, and
writes the entries that land in F's window. The lengths are powers of
two, because ``_exact_convolution``'s error bound is the radix-2 one: per
axis the smallest at which no entry that lands in F's window wraps
around, so at most the one of ``2N - 1`` and 4096, not 8192, for supports
of 1999 points on a window of 4001. The FFT result is rounded, but only
after that bound, computed from the inputs, certifies that every entry
is within 1/2 of the exact sum; otherwise both factors are split into
base-2^k digits small enough for the bound, and the rounded digit
convolutions are summed. The result is exact whenever ``sum_y |F(y)
G(y^{-1} z)| < 2^53`` at every output point z.

Embedding checks compare the target amalgam norm of F*G against the
product of factor norms over a test family and track the empirical
constant under grid refinement.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import asdict, dataclass, field

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
    if isinstance(grid, LatticeGrid) and _integral(fw) and _integral(G.values):
        out = _lattice_convolution(fw, G)
    else:
        # the scale axis first, one source row per scale (one row on R^n, Z^n)
        axb = isinstance(grid, AxbGrid)
        fw = np.moveaxis(fw, -1, 0) if axb else fw[None]
        # source i adds fw[i] times table entries [N - 1 - i, 2N - 1 - i) (see
        # _row_tables). Summed over i, that is entries [N - 1, 2N - 1) of the
        # linear convolution fw * K along the x axes, which a circular one of
        # length >= 2N - 1 holds without wrap-around.
        xs = tuple(range(1, n + 1))
        keep = (...,) + tuple(slice(N - 1, 2 * N - 1) for N in grid.shape[:n])
        out = _row_convolution(grid, fw, G, xs)[keep]
        out = (np.moveaxis(out, 0, -1) if axb else out[0]).copy()
    result = SampledFunction(grid, out)
    _warn_truncation(result)
    return result


def _row_convolution(grid, fw, G, xs):
    """Sum over the rows of ``_row_tables`` of the circular convolutions of
    the row's column of ``fw`` (scale axis first) with its table along
    ``xs``: one forward transform of ``fw``, one of each table, and one
    inverse of the summed spectra, scale axis first.

    The lengths are the smallest 5-smooth ones of at least ``2N - 1``.
    """
    size = [_smooth_length(int(2 * N - 1)) for N in grid.shape[:len(xs)]]
    if np.iscomplexobj(fw) or np.iscomplexobj(G.values):
        fft, ifft = np.fft.fftn, np.fft.ifftn
    else:
        fft, ifft = np.fft.rfftn, np.fft.irfftn
    FW = fft(fw, size, xs)
    spec = np.zeros_like(FW)
    term = np.empty_like(FW)
    for j, cols, K in _row_tables(grid, fw, G, size):
        rows = term[:len(K)]
        spec[cols] += np.multiply(FW[j], fft(K, axes=xs, out=rows), out=rows)
    return ifft(spec, size, xs)


def _row_tables(grid, fw, G, size):
    """Yield ``(j, cols, K)`` for the scale rows j of ``fw`` (scale axis
    first) that have support and reach G: ``K`` holds G's table for the
    output columns ``cols``, scale axis first, zero-padded to ``size``
    along the x axes. ``K`` is a view of one buffer that the next row
    overwrites.

    Every interpolation axis is uniform, so x_l - x_i = (l - i) h: entry k
    of an axis' offsets is (k - N + 1) h. The table is multilinear
    interpolation of G there, one 2-tap pass per axis. The scale axis is
    read at the same offsets by every row, so it is interpolated once, on
    all ``2Na - 1`` of them. R^n and Z^n have one row, reading the whole
    table. On ax+b, y^{-1} z = ((z_x - y_x) / a_j, z_a / a_j): the sources
    of scale row j read x offsets scaled by 1/a_j, and output column m
    reads scale offset m - j, which is table column m + Na - 1 - j. So row
    j's window is columns [Na - 1 - j, 2Na - 1 - j), interpolated along x
    at ``offsets / a_j``, of which only the span of nonzero columns and the
    x queries inside G's window are written (the rest is exactly zero).
    """
    n = grid.group.n
    na = len(fw)
    offsets = _offsets(grid)
    if isinstance(grid, AxbGrid):
        table = G.grid.interpolate_along(np.moveaxis(G.values, -1, 0), n, offsets[n], axis=0)
        scales = grid.axes[-1]
    else:
        table, scales = G.values[None], np.ones(1)
    cols = table.reshape(len(table), -1).any(axis=1).nonzero()[0]
    # per x axis: each row's queries, and the range of them in G's window
    queries = [d / scales[:, None] for d in offsets[:n]]
    inside = [G.grid.window_range(k, q) for k, q in enumerate(queries)]
    buf = np.zeros([na] + list(size), np.result_type(fw, table))
    written = None
    for j in fw.reshape(na, -1).any(axis=1).nonzero()[0]:
        start = na - 1 - j
        first, stop = cols.searchsorted((start, start + na))
        box = [slice(a[j], b[j]) for a, b in inside]
        if first == stop or any(s.start == s.stop for s in box):
            continue
        lo, hi = cols[first], cols[stop - 1] + 1
        if written:
            buf[written] = 0.0
        written = (slice(0, hi - lo), *box)
        block = table[lo:hi]
        for k, (q, s) in enumerate(zip(queries, box)):
            block = G.grid.interpolate_along(block, k, q[j, s], axis=k + 1,
                                             out=buf[written] if k == n - 1 else None)
        yield j, slice(lo - start, hi - start), buf[:hi - lo]


def _offsets(grid):
    """The whole-step offsets between points of ``grid``, per interpolation
    axis."""
    return [np.concatenate((ax[0] - ax[:0:-1], ax - ax[0])) for ax in grid.interp_axes]


def _lattice_convolution(fw, G):
    """Exact convolution on Z^n of integer-valued ``fw`` with G's integer
    samples, on fw's window.

    Only the support box of ``fw`` and the support box of the part of G
    that reaches fw's window from it are convolved. Entry m of their linear
    convolution is the sum at fw index ``f0 + g0 + G.lo + m``, with f0 and
    g0 the boxes' lower corners as indices of their own windows. Per axis
    the length is the smallest power of two at which no entry that lands in
    fw's window wraps around; it is at most the one of ``2N - 1``.
    """
    out = np.zeros(fw.shape)
    fbox = _support_box(fw)
    if fbox is None:
        return out
    # G index g reaches fw's window when 0 <= f + G.lo + g < N for some f in the box
    g_lo = G.grid.lo.tolist()
    reach = tuple(slice(max(0, 1 - f.stop - lo), max(0, N - f.start - lo))
                  for f, lo, N in zip(fbox, g_lo, fw.shape))
    near = G.values[reach]
    gbox = _support_box(near)
    if gbox is None:
        return out
    size, take, put = [], [], []
    for f, r, g, lo, N in zip(fbox, reach, gbox, g_lo, fw.shape):
        na, nb = f.stop - f.start, g.stop - g.start
        shift = f.start + r.start + g.start + lo
        first, stop = max(0, -shift), min(na + nb - 1, N - shift)
        # the boxes fit, and entries [first, stop) do not wrap around
        size.append(1 << (max(na, nb, stop, na + nb - 1 - first) - 1).bit_length())
        take.append(slice(first, stop))
        put.append(slice(shift + first, shift + stop))
    conv = _exact_convolution(fw[fbox], near[gbox], tuple(range(fw.ndim)), size)
    out[tuple(put)] = conv[tuple(take)]
    return out


def _support_box(a):
    """Per axis, the slice from the first to the last index at which ``a``
    is nonzero; None when ``a`` is all zero."""
    box = []
    for k in range(a.ndim):
        nonzero = np.flatnonzero(a.any(axis=tuple(j for j in range(a.ndim) if j != k)))
        if not nonzero.size:
            return None
        box.append(slice(int(nonzero[0]), int(nonzero[-1]) + 1))
    return tuple(box)


@functools.lru_cache(maxsize=256)
def _smooth_length(n):
    """Smallest ``2^a 3^b 5^c >= n`` (n >= 1)."""
    best = 1 << (n - 1).bit_length()
    odd5 = 1
    while odd5 < best:
        odd = odd5
        while odd < best:
            length = odd
            while length < n:
                length *= 2
            best = min(best, length)
            odd *= 3
        odd5 *= 5
    return best


def _fft_convolve(a, b, axes, size):
    """Circular convolution of real ``a`` and ``b`` at lengths ``size`` over ``axes``."""
    spec = np.fft.rfftn(a, size, axes) * np.fft.rfftn(b, size, axes)
    return np.fft.irfftn(spec, size, axes)


def _integral(a):
    """True when every entry is a finite real integer."""
    if np.iscomplexobj(a):
        return False
    a = np.asarray(a, dtype=float)  # bool arrays have no subtraction
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, which is nonzero
        return not (a - np.trunc(a)).any()


def _fft_error_bound(a, b, size):
    """Bound on every entry's error in ``_fft_convolve(a, b)``.

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
    below 1/500 of the returned bound. The bound is for radix-2 lengths
    only, so any other length raises ``ValueError``.
    """
    if any(L < 1 or L & (L - 1) for L in size):
        raise ValueError(f"certified FFT lengths must be powers of two, got {list(size)}")
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
    ``_fft_error_bound`` certifies an error below 1/2; ``size`` must be
    powers of two."""
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
        return asdict(self)


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
                     target_norm, left_norm, right_norm, levels=2, family=""):
    """Empirically verify ``||F*G||_target <= C ||F||_left ||G||_right``.

    Samples the pairs ``zip(left_specs, right_specs)`` on the base grid and
    on ``levels - 1`` refinements by 2, records per-pair ratios, and passes
    when every level compared a pair and the empirical constant is finite
    and grows by at most the report's ``growth_tolerance`` under one
    refinement. Overflow signals and levels that compared no pair are
    recorded as failure witnesses rather than raised. Truncation does not
    change the verdict: each level records the largest edge/peak ratio of
    its convolutions in ``truncation``, and each level-0 pair its own ratio.
    """
    pair_list = list(zip(left_specs, right_specs))
    report = EmbeddingReport(relation=relation, family=family)
    grids = [grid]
    for _ in range(levels - 1):
        grids.append(grids[-1].refine(2))
    for level, gr in enumerate(grids):
        c_emp = 0.0
        truncation = 0.0
        compared = 0
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
                compared += 1
                if level == 0:
                    report.pairs.append({
                        "pair": idx,
                        "target": float(t),
                        "product": float(lf * rf),
                        "ratio": float(ratio),
                        "truncation": edge,
                    })
        if not compared:
            report.failures.append({"level": level, "reason": "no pair compared"})
        report.refinement_trace.append(float(c_emp))
        report.truncation.append(truncation)
    report.c_emp = report.refinement_trace[0]
    finite = all(np.isfinite(v) for v in report.refinement_trace)
    stable = all(
        report.refinement_trace[k + 1]
        <= (1 + report.growth_tolerance) * report.refinement_trace[k]
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
