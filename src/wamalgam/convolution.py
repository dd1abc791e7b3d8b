"""Group convolution by Haar quadrature and embedding verification.

Convolution is the Haar quadrature ``(F*G)(z) = sum_y F(y) G(y^{-1} z)
w(y)`` over the support of F. Every grid is uniform in its interpolation
coordinates, so ``y^{-1} z`` only takes values at whole-step offsets
between grid points. Every group runs one route, on ``F w`` laid out
scale axis first and x axes last (one row on R^n and Z^n):

1. Support box of ``F w``, cut at the support cutoff.
2. Reaching offsets: per x axis, offset d reaches F's window from box
   indices [f.start, f.stop) when 0 <= i + d < N for some i there, so d
   runs from ``1 - f.stop`` to ``N - 1 - f.start``, not over all ``2N - 1``.
3. Table (``_Table``): on Z^n, G's samples at those offsets, cut to their
   support box; elsewhere multilinear interpolation of G, one 2-tap pass
   per axis (``Grid.interpolate_along``) by rules (lower index and
   fraction) that ``Grid.locate_along`` gives once per convolution and x
   axis, for all rows' queries inside G's window at once. On ax+b,
   ``y^{-1} z`` scales the x offsets by ``1/a`` of the source's scale row
   but not the scale offsets, so the scale axis is tabulated once, on the
   scale offsets that reach from the box, and scale row j reads a window
   of ``Na`` of those columns, interpolated along x at its offsets
   ``/ a_j``. A row writes only the span of its window's nonzero columns
   and, along x, its queries inside G's window: the rest of its table is
   exactly zero, and a row that meets no nonzero column does no work. The
   table's x extent is the union of its rows' queries inside G's window.
4. Placement (``_placement``): per axis, the smallest transform length at
   which the box and the table fit and no entry of their convolution that
   lands in F's window wraps around, at most the one of ``2N - 1`` (4096,
   not 8192, for supports of 1999 points on a window of 4001); ``take``
   and ``put`` slices move those entries into F's window.
5. Kernel: integer-valued F w and table on Z^n run ``_exact_convolution``
   at power-of-two lengths, which its radix-2 error bound covers, exact
   whenever ``sum_y |F(y) G(y^{-1} z)| < 2^53`` at every output point z.
   Everything else runs the row loop (``_row_convolution``) at
   ``2^a 3^b 5^c`` lengths: ``F w`` is transformed once, each row adds the
   product of its source's spectrum and its table's spectrum into one sum,
   and one inverse transform of the sum gives the result. The rows share
   one zero-padded table buffer, which each re-zeroes only where the
   previous row wrote, one 2-tap workspace and one spectrum buffer: a
   row's 2-tap passes read its slice of the located rules, gather the
   lower and upper samples into the 2-tap workspace (which at n >= 2 also
   holds the passes before the last) and write the last pass into the
   table buffer, and its table is transformed along the last x axis into
   the spectrum buffer, then in place along the others, as ``rfftn`` does
   without its per-call set-up. ``F w``'s transform and the sum's inverse
   run axis by axis in the same way. These buffers and the spectra of
   ``F w`` and of the sum are the thread's kept workspace
   (``workspace``), so the row loop on the shapes of an earlier one
   allocates only the inverse transform. Complex factors
   use the complex transform, real ones the real.

Embedding checks compare the target amalgam norm of F*G against the
product of factor norms over a test family and track the empirical
constant under grid refinement.
"""

from __future__ import annotations

import functools
import math
import warnings
from bisect import bisect_left
from dataclasses import asdict, dataclass, field

import numpy as np

from .amalgam import DiscreteMeasure, amalgam_norm, translate
from .components import OVERFLOW, is_overflow
from .errors import GroupMismatchError, TruncationWarning
from .groups import AxbGrid, LatticeGrid, SampledFunction
from .workspace import scratch

_SUPPORT_CUTOFF = 1e-14


def convolve(F, G):
    """Haar convolution of two sampled functions, on F's grid."""
    if F.grid.group != G.grid.group:
        raise GroupMismatchError("convolution factors live on different groups")
    grid = F.grid
    vals = F.values
    cutoff = _SUPPORT_CUTOFF
    if not isinstance(grid, LatticeGrid):
        cutoff *= max(1.0, np.abs(vals).max())
    fw = np.where(np.abs(vals) > cutoff, vals * grid.weights, 0.0)
    out = np.zeros(grid.shape, np.result_type(fw, G.values))
    box = _support_box(fw)
    # the scale axis first, one source row per scale (one row on R^n, Z^n)
    if isinstance(grid, AxbGrid):
        fw, out_rows = np.moveaxis(fw, -1, 0), np.moveaxis(out, -1, 0)
        box = box and box[-1:] + box[:-1]
    else:
        fw, out_rows, box = fw[None], out[None], box and (slice(0, 1),) + box
    table = box and _Table(grid, fw, box, G)
    if table and table.rows:
        exact = isinstance(grid, LatticeGrid) and _integral(fw[box]) and _integral(table.values)
        size, take, put = _placement(box[1:], table.start, table.shape, out_rows.shape[1:], exact)
        xs = tuple(range(1, fw.ndim))
        if exact:
            conv = _exact_convolution(fw[box], table.values, xs, size)
        else:
            conv = _row_convolution(fw[box], box[0].start, table, size, xs, len(out_rows))
        out_rows[(slice(None),) + put] = conv[(slice(None),) + take]
    result = SampledFunction(grid, out)
    _warn_truncation(result)
    return result


class _Table:
    """G on the whole-step offsets through which ``fw[box]`` (F w, scale
    axis first) reaches F's window: per x axis, ``start`` is the offset (in
    steps) of its first entry and ``shape`` its length. ``rows`` lists the
    scale rows that reach G, and ``tables(size)`` yields each one's table.
    On Z^n, ``values`` is the whole table, G's samples cut to their support
    box, with a scale axis of length 1."""

    def __init__(self, grid, fw, box, G):
        n, js = grid.group.n, box[0]
        # offset d reaches F's window from box index i when 0 <= i + d < N
        reach = [(1 - f.stop, int(N) - f.start) for f, N in zip(box[1:], grid.shape)]
        self._G, self._j0, self._rules, plan = G, js.start, (), []
        if isinstance(grid, LatticeGrid):
            # offset d is G's index d - G.lo
            g_lo = G.grid.lo.tolist()
            first = [max(a, g) for (a, _), g in zip(reach, g_lo)]
            near = G.values[tuple(slice(f - g, max(0, b - g))
                                  for f, g, (_, b) in zip(first, g_lo, reach))]
            gbox = _support_box(near)
            if gbox:
                self.values = self._table = near[gbox][None]
                self.start = [f + s.start for f, s in zip(first, gbox)]
                self.shape, self._origin = list(self.values.shape[1:]), [0] * n
                plan = [(0, 0, 1, 0, [(0, m) for m in self.shape])]
        else:
            # row j's queries along x are the offsets scaled by 1 / a_j
            offsets = [_steps(ax, a, b) for ax, (a, b) in zip(grid.interp_axes, reach)]
            if isinstance(grid, AxbGrid):
                # output column m of row j reads scale offset m - j, which is
                # table column m + js.stop - 1 - j
                na = grid.shape[-1]
                u = _steps(grid.interp_axes[n], 1 - js.stop, na - js.start)
                self._table = G.grid.interpolate_along(np.moveaxis(G.values, -1, 0),
                                                       G.grid.locate_along(n, u), axis=0)
                scales = grid.axes[-1][js]
            else:
                na, self._table, scales = 1, G.values[None], np.ones(1)
            queries = [d / scales[:, None] for d in offsets]
            inside = [[e.tolist() for e in G.grid.window_range(k, q)]
                      for k, q in enumerate(queries)]
            cols = self._table.reshape(len(self._table), -1).any(axis=1).nonzero()[0].tolist()
            for r in fw[box].reshape(len(scales), -1).any(axis=1).nonzero()[0].tolist():
                c0 = js.stop - 1 - js.start - r
                first, stop = bisect_left(cols, c0), bisect_left(cols, c0 + na)
                # the row's queries inside G's window, as reaching-offset indices
                x = [(a[r], b[r]) for a, b in inside]
                if first < stop and all(a < b for a, b in x):
                    plan.append((r, cols[first], cols[stop - 1] + 1, c0, x))
            if plan:
                self._origin = [min(x[k][0] for *_, x in plan) for k in range(n)]
                self.shape = [max(x[k][1] for *_, x in plan) - o
                              for k, o in enumerate(self._origin)]
                self.start = [a + o for (a, _), o in zip(reach, self._origin)]
                # per x axis, the rule of every row's span, rows one after
                # another; the spans are inside G's window, so no query is
                # outside and a row's rule is a slice of it. The query
                # matrix is freed first, so that locating the spans does not
                # raise the set-up's peak memory
                spans = [np.concatenate([q[r, slice(*x[k])] for r, *_, x in plan])
                         for k, q in enumerate(queries)]
                del queries
                self._rules = [G.grid.locate_along(k, q) for k, q in enumerate(spans)]
        self._plan, self.rows = plan, [js.start + r for r, *_ in plan]
        self.width = max((hi - lo for _, lo, hi, *_ in plan), default=0)
        self.dtype = np.result_type(fw, G.values)

    def tables(self, size):
        """Yield ``(j, cols, K)`` per reaching row j: ``K`` is its table for
        the output columns ``cols``, scale axis first, zero-padded to ``size``
        along x, in one workspace buffer that the next row overwrites. The
        rows' 2-tap passes gather into one more, which at n >= 2 also holds
        the passes before the last, in alternate halves."""
        # one pass's result, the largest over the rows and the x axes
        gx, part = self._table.shape[1:], 0
        for _, lo, hi, _, x in self._plan:
            for k in range(len(self._rules)):
                part = max(part, (hi - lo) * math.prod(b - a for a, b in x[:k + 1])
                           * math.prod(gx[k + 1:]))
        with scratch(((self.width, *size), self.dtype),
                     ((2 * part * min(len(self._rules), 2),), self._table.dtype)) as (
                         buf, work):
            buf[...] = 0.0
            halves = (work[:2 * part], work[2 * part:])
            spans, written = [0] * len(self._rules), None
            for r, lo, hi, c0, x in self._plan:
                if written:
                    buf[written] = 0.0
                written = (slice(0, hi - lo),) + tuple(
                    slice(a - o, b - o) for (a, b), o in zip(x, self._origin))
                block = self._table[lo:hi]
                if not self._rules:  # Z^n: G's samples, no interpolation
                    buf[written] = block
                for k, ((i0, frac, outside), (a, b)) in enumerate(zip(self._rules, x)):
                    s, spans[k] = spans[k], spans[k] + b - a
                    block = self._G.grid.interpolate_along(
                        block, (i0[s:spans[k]], frac[s:spans[k]], outside), k + 1,
                        out=buf[written] if k == len(x) - 1 else None, work=halves[k % 2])
                yield self._j0 + r, slice(lo - c0, hi - c0), buf[:hi - lo]


def _steps(axis, lo, hi):
    """``axis[d] - axis[0]`` of a uniform axis for d from lo to hi - 1, and
    ``axis[0] - axis[-d]`` for d < 0 (|d| < len(axis))."""
    m = len(axis) - 1
    return np.concatenate((axis[0] - axis[:0:-1], axis - axis[0]))[m + lo:m + hi]


def _placement(fbox, start, shape, window, certified):
    """Per x axis, the transform length and the ``take`` and ``put`` slices
    for the convolution of F w on ``fbox`` with a table of ``shape`` entries
    from offset ``start``, whose entry m lands at F index ``f.start + start
    + m``: the smallest length, a power of two when ``certified`` and
    5-smooth otherwise, at which both fit and nothing in F's window wraps."""
    size, take, put = [], [], []
    for f, s, nb, N in zip(fbox, start, shape, window):
        na, shift = f.stop - f.start, f.start + s
        first, stop = max(0, -shift), min(na + nb - 1, N - shift)
        # the boxes fit, and entries [first, stop) do not wrap around
        need = max(na, nb, stop, na + nb - 1 - first)
        size.append(1 << (need - 1).bit_length() if certified else _smooth_length(need))
        take.append(slice(first, stop))
        put.append(slice(shift + first, shift + stop))
    return size, tuple(take), tuple(put)


def _row_convolution(fw, j0, table, size, xs, na):
    """Sum over ``table``'s rows of the circular convolutions, at lengths
    ``size`` along ``xs``, of the row's column of ``fw`` (F w on its support
    box, scale axis first, from row j0) with its table: one forward
    transform of ``fw``, one of each table, and one inverse of the spectra
    summed into ``na`` output columns. The spectra and the tables' buffers
    are the workspace's. Each transform is ``rfftn``'s or ``irfftn``'s
    (``fftn``'s or ``ifftn``'s when complex), axis by axis in their order,
    written in place but for the first axis of a forward transform, which
    pads, and the last of the inverse, which gives the result."""
    complex_ = table.dtype.kind == "c"
    fftn, ifftn = (np.fft.fftn, np.fft.ifftn) if complex_ else (np.fft.rfftn, np.fft.irfftn)
    spectrum = (*size[:-1], size[-1] if complex_ else size[-1] // 2 + 1)
    with scratch(((len(fw), *spectrum), complex), ((na, *spectrum), complex),
                 ((table.width, *spectrum), complex)) as (FW, spec, term):
        # F w's transform along the last x axis, padded with zeros along the others
        fftn(fw, size[-1:], xs[-1:], out=FW[(slice(None),) + tuple(
            slice(0, m) for m in fw.shape[1:-1])])
        for ax in xs[:-1]:
            FW[(slice(None),) * ax + (slice(fw.shape[ax], None),)] = 0.0
        _transform_inner_axes(FW, xs)
        spec[...] = 0.0
        for j, cols, K in table.tables(size):
            rows = (np.fft.fft if complex_ else np.fft.rfft)(K, axis=-1, out=term[:len(K)])
            _transform_inner_axes(rows, xs)
            spec[cols] += np.multiply(FW[j - j0], rows, out=rows)
        # ifftn takes the axes from last to first, irfftn from first to last
        inner, final = (xs[:0:-1], xs[:1]) if complex_ else (xs[:-1], xs[-1:])
        for ax in inner:
            np.fft.ifft(spec, axis=ax, out=spec)
        return ifftn(spec, [size[ax - 1] for ax in final], final)


def _transform_inner_axes(a, xs):
    """``fft`` along the x axes but the last, from last to first, in place:
    what ``rfftn`` and ``fftn`` do after the last axis."""
    for ax in xs[-2::-1]:
        np.fft.fft(a, axis=ax, out=a)


def _support_box(a):
    """Per axis, the slice from the first to the last index at which ``a``
    is nonzero; None when ``a`` is all zero."""
    if not a.size:
        return None
    box, nonzero = [], a != 0
    for k in range(a.ndim):
        others = tuple(j for j in range(a.ndim) if j != k)
        line = nonzero.any(axis=others) if others else nonzero
        first = int(line.argmax())
        if not line[first]:
            return None
        box.append(slice(first, len(line) - int(line[::-1].argmax())))
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


def estimator_weight_on_line(space, grid, knots, direction="measure", *,
                             well_spread=None, rng=None, bracket_constant=1.0):
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
                well_spread=well_spread, rng=rng, bracket_constant=bracket_constant)
            bound = max(bound, ob.upper)
        uppers.append(bound)
    uppers = np.maximum.accumulate(np.asarray(uppers))  # monotone envelope
    return table_weight(knots, uppers, name="operator-norm-upper")


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


def graded_lp_norm(exponent_p, singularity_power):
    """L^p quasi-norm of ``x^s`` on (0, 1] by log-graded midpoint rule.

    The geometric mesh resolves the power singularity: the substitution
    u = log x turns the integrand into a smooth exponential.
    """
    u_lo, cells = np.log(1e-12), 4000
    du = -u_lo / cells
    u = u_lo + (np.arange(cells) + 0.5) * du
    integrand = np.exp(u * (singularity_power * exponent_p + 1.0))
    return float(np.sum(integrand) * du) ** (1.0 / exponent_p)


def demonstrate_lp_failure():
    """Show why plain L^p, p < 1, carries no convolution: quadratures of
    ``(x^{-3/2} chi_(0,1]) * chi_[0,1]`` diverge under refinement while the
    L^{1/2} quasi-norm stays at its analytic value 16, and the amalgam space
    with local sup control rejects the singular factor outright.

    Returns a report whose ``amalgam_norm`` entry is the overflow signal
    when the refinement ladder shows sustained growth.
    """
    from .components import WeightedLp
    from .groups import Euclidean, UniformGrid
    from .windows import BoxWindow

    group = Euclidean(1)
    singular = lambda x: np.where(x > 0, np.abs(x) ** -1.5, 0.0) * (x <= 1.0)

    # the exponent, the refinements by 4 and the growth under one of them
    # that counts as divergence
    p, levels, threshold = 0.5, 3, 1.8
    lp_norm = graded_lp_norm(p, -1.5)

    conv_values = []
    w_norms = []
    cells = 1000
    for _ in range(levels + 1):
        grid = UniformGrid(group, -2.0, 2.0, cells)
        F = SampledFunction(grid, singular(grid.axes[0]).reshape(grid.shape))
        box = SampledFunction.sample(grid, lambda x: ((x >= 0) & (x <= 1)).astype(float))
        conv_values.append(abs(convolve_point(F, box, np.array([1.0]))))
        wn = amalgam_norm(F, BoxWindow.centered(0.25, 1), "linf", WeightedLp(p))
        w_norms.append(wn)
        cells *= 4
    growth = [conv_values[k + 1] / conv_values[k] for k in range(levels)]

    finite_w = [v for v in w_norms if not is_overflow(v)]
    w_growth = [finite_w[k + 1] / finite_w[k] for k in range(len(finite_w) - 1)]
    diverges = any(is_overflow(v) for v in w_norms) or (
        len(w_growth) >= levels - 1
        and all(g >= threshold for g in w_growth)
    )
    return {
        "p": p,
        "lp_norm": lp_norm,
        # (int_0^1 x^{-3/4} dx)^{1/p} = 4^2
        "lp_norm_analytic": 16.0,
        "convolution_values": [float(v) for v in conv_values],
        "convolution_growth": [float(g) for g in growth],
        "growth_threshold": threshold,
        "convolution_diverges": all(g >= threshold for g in growth),
        "amalgam_norm": OVERFLOW if diverges else w_norms[-1],
        "amalgam_norm_trace": [repr(v) if is_overflow(v) else float(v)
                               for v in w_norms],
    }
