"""Group convolution by Haar quadrature and embedding verification.

Convolution is the Haar quadrature ``(F*G)(z) = sum_y F(y) G(y^{-1} z)
w(y)`` over the support of F. Every grid is uniform in its interpolation
coordinates, so ``y^{-1} z`` only takes values at whole-step offsets
between grid points. Every group runs one route, on ``F w`` laid out
scale axis first and x axes last (one row on R^n and Z^n), but for real
integer factors on Z^n, which take the exact lattice front of step 5:

1. Support box of ``F w`` (``_cut_weighted``), cut at the support cutoff.
2. Reaching offsets: per x axis, offset d reaches F's window from box
   indices [f.start, f.stop) when 0 <= i + d < N for some i there, so d
   runs from ``1 - f.stop`` to ``N - 1 - f.start``, not over all ``2N - 1``.
3. Table (``_Table``): on Z^n, G's samples at those offsets, cut to their
   support box; elsewhere multilinear interpolation of G, one 2-tap pass
   per axis (``Grid.interpolate_along``) by rules (lower index and
   fraction) that ``Grid.locate_along`` gives for every scale row's query
   on every offset of the axis. Those queries depend only on F's and G's
   grids, so ``_located_offsets`` locates them once for a pair of grids
   and keeps the last pair's, and a convolution slices its rows' spans
   inside G's window out of them. On ax+b,
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
5. Kernel. On Z^n, ``_lattice_convolution`` works from the factors'
   nonzeros: those of F w above the support cutoff and those of G at
   offsets that reach F's window. Their boxes, integrality and exactness
   bound come from those nonzeros, with no pass over the window but the
   one that finds them. Real integer factors then run one of two exact
   kernels, which give the same bits, every exact zero +0:
   - the direct kernel (``_direct_convolution``) sums the integer
     products by ``np.bincount`` over F's flat indices, in blocks of
     ``_BLOCK`` products, and drops products that leave F's window;
   - the certified kernel (``_exact_convolution``) transforms the two
     boxes at ``_placement``'s power-of-two lengths, which its radix-2
     error bound covers, exact whenever ``sum_y |F(y) G(y^{-1} z)| <
     2^53`` at every output point z, digit by digit when one transform
     is not certified.
   ``_sums_directly`` chooses from the input sizes: the direct kernel
   when there are at most ``L log2(L) / 2`` products, L the certified
   kernel's total length, and ``||F w||_1 ||G||_1 < 2^53``, so that every
   partial sum is an exact integer in float64.
   Everything else, on every group, runs the row loop
   (``_row_convolution``) at ``2^a 3^b 5^c`` lengths: ``F w`` is
   transformed once, each row adds the product of its source's spectrum
   and its table's spectrum into one sum, and one inverse transform of
   the sum gives the result. The rows share one zero-padded table buffer,
   which each re-zeroes only where the previous row wrote, one 2-tap
   workspace and one spectrum buffer: a row's 2-tap passes read its slice
   of the located rules, gather the lower and upper samples into the
   2-tap workspace (which at n >= 2 also holds the passes before the
   last) and write the last pass into the table buffer. Every transform,
   of the row loop and of the certified kernel, is ``_forward``'s or
   ``_inverse``'s: ``rfft`` (``fft`` when complex) along the last x axis
   and in-place ``fft``s along the others, as ``rfftn`` computes it
   without its per-call set-up, and the inverse in ``irfftn``'s (or
   ``ifftn``'s) order. The row loop's buffers and the spectra of ``F w``
   and of the sum come from the thread's kept workspace (``workspace``)
   in one block, so the row loop on the shapes of an earlier one
   allocates only the inverse transform. Complex factors use the complex
   transform, real ones the real.

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
    out = _lattice_convolution(F, G) if isinstance(grid, LatticeGrid) else None
    if out is None:
        fw = _cut_weighted(F)
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
            size, take, put = _placement(box[1:], table.start, table.shape,
                                         out_rows.shape[1:], False)
            conv = _row_convolution(fw[box], box[0].start, table, size,
                                    tuple(range(1, fw.ndim)), len(out_rows))
            out_rows[(slice(None),) + put] = conv[(slice(None),) + take]
    result = SampledFunction(grid, out)
    _warn_truncation(result)
    return result


def _lattice_convolution(F, G):
    """F*G on Z^n from the factors' nonzeros, exact: the nonzeros of F w
    (F, as the weights are 1) above the support cutoff and those of G at
    offsets that reach F's window. None when any of them is not a real
    integer; the row loop convolves those factors."""
    shape = F.grid.shape
    f, g = F.values.reshape(-1), G.values.reshape(-1)
    fi, gi = (f != 0).nonzero()[0], (g != 0).nonzero()[0]
    fv, gv = f[fi], g[gi]
    kept = np.abs(fv) > _SUPPORT_CUTOFF
    cut = not kept.all()
    if cut:
        fi, fv = fi[kept], fv[kept]
    if fi.size and gi.size:
        fx, d = (np.unravel_index(i, grid.shape) if len(shape) > 1 else (i,)
                 for i, grid in ((fi, F.grid), (gi, G.grid)))
        # offset d is G's index + G.lo; it reaches F's window from box index
        # i when 0 <= i + d < N
        d = [c + lo for c, lo in zip(d, G.grid.lo.tolist())]
        fbox = _box(fx)
        reach = [(1 - b, N - a) for (a, b), N in zip(fbox, shape)]
        if any(a < ra or b > rb for (a, b), (ra, rb) in zip(_box(d), reach)):
            reaches = np.logical_and.reduce([(c >= a) & (c < b) for c, (a, b) in zip(d, reach)])
            d, gv = [c[reaches] for c in d], gv[reaches]
    if not fi.size or not gv.size:
        return np.zeros(shape, np.result_type(F.values, F.grid.weights, G.values))
    if not _integral(fv, gv):
        return None
    fv, gv, dbox = fv.astype(float, copy=False), gv.astype(float, copy=False), _box(d)
    size, take, put = _placement([slice(*b) for b in fbox], [a for a, _ in dbox],
                                 [b - a for a, b in dbox], shape, True)
    if _sums_directly(fv, gv, math.prod(size)):
        # a product lands outside F's window only when a box sum leaves it
        spill = any(fa + da < 0 or fb + db - 1 > N
                    for (fa, fb), (da, db), N in zip(fbox, dbox, shape))
        return _direct_convolution(fi, fx, fv, d, dbox, gv, shape, spill)
    # the boxes' samples: G's all reach F's window, F's are cut if need be
    a = F.values[tuple(slice(*b) for b in fbox)].astype(float, copy=False)
    if cut:
        a = np.where(np.abs(a) > _SUPPORT_CUTOFF, a, 0.0)
    b = G.values[tuple(slice(s - lo, e - lo) for (s, e), lo in zip(dbox, G.grid.lo.tolist()))]
    out = np.zeros(shape)
    out[put] = _exact_convolution(a[None], b[None].astype(float, copy=False),
                                  tuple(range(1, len(shape) + 1)), size)[(0,) + take]
    return out


def _box(x):
    """Per axis, the (start, stop) of the indices ``x`` (one array per
    axis, the first ascending)."""
    return [(int(x[0][0]), int(x[0][-1]) + 1)] + [
        (int(c.min()), int(c.max()) + 1) for c in x[1:]]


# The certified kernel's three transforms of total length L cost about
# L log2 L / 2 times what the direct kernel spends per product. Measured on
# a 2-core x86 host on [-2000, 2000], L = 4096: the three transforms take
# about 82 us, the direct kernel 15 us at 900 products, 48 us at 10,000 and
# 93 us at 22,500 (about 4 ns per product); whole convolutions through the
# two kernels, alternated in one process, break even between 27,225 and
# 32,400 products, so the rule's 24,576 gives no pair to the slower one.
def _sums_directly(fv, gv, length):
    """True when the direct kernel convolves the nonzeros ``fv`` of F w and
    ``gv`` of G, which the certified kernel would transform at total length
    ``length``: when they make at most ``length log2(length) / 2``
    products and ``||F w||_1 ||G||_1 < 2^53``, so that every product and
    partial sum is an exact integer in float64."""
    return (fv.size * gv.size <= length * math.log2(length) / 2
            and float(np.add.reduce(np.abs(fv))) * float(np.add.reduce(np.abs(gv))) < 2.0 ** 53)


# Products per block of the direct kernel. One block for all products
# slows once its index and product arrays outgrow the cache (605 us at
# 90,000 products, against 349 us in blocks of 8,192), and a block costs
# about 6 us of set-up (93 against 82 us at 22,500). 8,192 products keep
# each of those arrays at 64 kB, below the 128 kB from which the allocator
# maps fresh arrays and the OS faults their pages in on every call.
_BLOCK = 8192


def _direct_convolution(fi, fx, fv, d, dbox, gv, shape, spill):
    """F*G on F's window as the sum of the integer products ``fv[i] gv[j]``,
    each at F's flat index ``fi[i]`` moved by the offset ``d[.][j]`` (one
    array per axis, in the box ``dbox``): ``np.bincount`` over blocks of
    about ``_BLOCK`` products, on the span of F's window that the products
    can reach. ``fi`` is ascending and ``fx`` is it per axis; when
    ``spill``, products whose index leaves F's window along an axis are
    dropped."""
    strides = [math.prod(shape[k + 1:]) for k in range(len(shape))]
    shift = sum((c * s for c, s in zip(d[:-1], strides)), d[-1])
    # the span, from the least to the largest flat index a product can take
    size = math.prod(shape)
    lo = max(0, int(fi[0]) + sum(a * s for (a, _), s in zip(dbox, strides)))
    hi = min(size, int(fi[-1]) + sum((b - 1) * s for (_, b), s in zip(dbox, strides)) + 1)
    out, fi = np.zeros(size), fi - lo
    if hi <= lo:  # every product leaves F's window
        return out.reshape(shape)
    width = min(len(gv), _BLOCK)
    for g0 in range(0, len(gv), width):
        cols = slice(g0, g0 + width)
        for f0 in range(0, len(fv), _BLOCK // width):
            block = slice(f0, f0 + _BLOCK // width)
            at = np.add.outer(fi[block], shift[cols]).reshape(-1)
            products = np.multiply.outer(fv[block], gv[cols]).reshape(-1)
            if spill:
                k = [np.add.outer(c[block], e[cols]).reshape(-1) for c, e in zip(fx, d)]
                inside = np.logical_and.reduce([(x >= 0) & (x < N) for x, N in zip(k, shape)])
                at, products = at[inside], products[inside]
            out[lo:hi] += np.bincount(at, products, hi - lo)
    return out.reshape(shape)


def _cut_weighted(F):
    """F w, 0 where ``|F|`` is at most the support cutoff: ``_SUPPORT_CUTOFF``
    on Z^n, times ``max(1, max |F|)`` elsewhere."""
    vals, weights = F.values, F.grid.weights
    mag, cutoff = np.abs(vals), _SUPPORT_CUTOFF
    if not isinstance(F.grid, LatticeGrid):
        cutoff *= max(1.0, mag.max())
    return np.multiply(vals, weights, out=np.zeros(vals.shape, np.result_type(vals, weights)),
                       where=mag > cutoff)


class _Table:
    """G on the whole-step offsets through which ``fw[box]`` (F w, scale
    axis first) reaches F's window: per x axis, ``start`` is the offset (in
    steps) of its first entry and ``shape`` its length. ``rows`` lists the
    scale rows that reach G, and ``tables`` yields each one's table into
    the workspace that ``buffers(size)`` specifies.
    On Z^n, ``values`` is the whole table, G's samples cut to their support
    box, with a scale axis of length 1."""

    def __init__(self, grid, fw, box, G):
        n, js = grid.group.n, box[0]
        # offset d reaches F's window from box index i when 0 <= i + d < N
        reach = [(1 - f.stop, int(N) - f.start) for f, N in zip(box[1:], grid.shape)]
        self._G, self._j0, self._rules, plan, self.width = G, js.start, (), [], 0
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
                self.shape, self._origin = [s.stop - s.start for s in gbox], [0] * n
                plan, self.width = [(0, 0, 1, 0, [(0, m) for m in self.shape])], 1
            self.rows = [js.start] if plan else []
        else:
            if isinstance(grid, AxbGrid):
                # output column m of row j reads scale offset m - j, which is
                # table column m + js.stop - 1 - j
                na = grid.shape[-1]
                u = _steps(grid.interp_axes[n], 1 - js.stop, na - js.start)
                self._table = G.grid.interpolate_along(np.moveaxis(G.values, -1, 0),
                                                       G.grid.locate_along(n, u), axis=0)
            else:
                na, self._table = 1, G.values[None]
            located, xs = _located_offsets(grid, G.grid), tuple(range(1, fw.ndim))
            cols = self._table.any(axis=xs).nonzero()[0].tolist()
            # the box's first and last rows are nonzero, the rows between may be zero
            last = js.stop - js.start - 1
            rows = [0] if not last else [
                0, *(1 + fw[box][1:-1].any(axis=xs).nonzero()[0]).tolist(), last]
            for r in rows:
                c0 = js.stop - 1 - js.start - r
                first, stop = bisect_left(cols, c0), bisect_left(cols, c0 + na)
                # the row's queries inside G's window, as reaching-offset indices
                x = [(min(max(s[js.start + r], a), b) - a, min(max(e[js.start + r], a), b) - a)
                     for (a, b), (s, e, *_) in zip(reach, located)]
                if first < stop and all(a < b for a, b in x):
                    plan.append((r, cols[first], cols[stop - 1] + 1, c0, x))
                    self.width = max(self.width, cols[stop - 1] + 1 - cols[first])
            self.rows = [js.start + p[0] for p in plan]
            if plan:
                self._origin, self.shape, self.start, self._rules = [], [], [], []
                for k, ((a, _), (s, _, at, i0, frac)) in enumerate(zip(reach, located)):
                    los, his = zip(*[x[k] for *_, x in plan])
                    self._origin.append(min(los))
                    self.shape.append(max(his) - min(los))
                    self.start.append(a + min(los))
                    # the rule of every row's span, rows one after another;
                    # the spans are inside G's window, so no query is outside
                    # and a row's rule is a slice of it
                    spans = [slice(at[j] + a + lo - s[j], at[j] + a + hi - s[j])
                             for j, lo, hi in zip(self.rows, los, his)]
                    self._rules.append((_joined([i0[d] for d in spans]),
                                        _joined([frac[d] for d in spans]), _NONE))
        self._plan, self.dtype = plan, np.result_type(fw, G.values)

    def buffers(self, size):
        """The workspace ``tables`` writes to, as ``scratch`` specs: the
        rows' table buffer, zero-padded to ``size`` along x, and two halves
        of the 2-tap workspace, each with room for one pass's lower and upper
        samples (the second is empty when there is no pass before the
        last)."""
        # one pass's result, the largest over the rows and the x axes
        gx, part = self._table.shape[1:], 0
        for _, lo, hi, _, x in self._plan:
            cells = hi - lo
            for k, (a, b) in enumerate(x[:len(self._rules)]):
                cells *= b - a
                part = max(part, cells * math.prod(gx[k + 1:]))
        dtype = self._table.dtype
        return (((self.width, *size), self.dtype), ((2 * part,), dtype),
                ((2 * part if len(self._rules) > 1 else 0,), dtype))

    def tables(self, buf, *halves):
        """Yield ``(j, cols, K)`` per reaching row j: ``K`` is its table for
        the output columns ``cols``, scale axis first, zero-padded along x,
        in the ``buffers`` given, which the next row overwrites. The rows'
        2-tap passes gather into the 2-tap workspace, whose halves at n >= 2
        also hold the passes before the last, in turn."""
        buf[...] = 0.0
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


# The relations convolve all of a refinement level's pairs on one pair of
# grids before they refine, so the last pair is the one asked for next: in
# 56 of a line-relations pass's 64 R convolutions (4 grid pairs, 8 runs)
# and 10 of an axb-relation pass's 12 (2 pairs, 2 runs), whatever the
# number of levels. Keeping more pairs would add only the ladder's
# restarts, which a later relation makes, and keep their rules alive.
@functools.lru_cache(maxsize=1)
def _located_offsets(grid, G_grid):
    """Per x axis k of F's ``grid``, G's 2-tap rule (``Grid.locate_along``)
    at each scale row j's queries inside G's window, among its queries on
    the whole-step offsets d of the axis, ``1 - N_k <= d < N_k``: the offset
    scaled by ``1 / a_j`` on ax+b, as it is elsewhere, where the one row has
    a = 1. Per axis ``(first, stop, at, i0, frac)``: per row, the offsets
    [first, stop) whose queries are inside G's window and where their
    lower indices and fractions start in ``i0`` and ``frac``, which hold the
    rows' rules one after another. The queries depend only on the two
    grids, so a convolution reads its rows' spans from the rules of earlier
    ones on the same grids; the arrays are shared, and read-only. All rows
    are located at once, from one rows-by-offsets array per axis."""
    scales = np.asarray(grid.axes[-1] if isinstance(grid, AxbGrid) else (1.0,))
    located = []
    for k in range(grid.group.n):
        d0 = 1 - int(grid.shape[k])
        q = _steps(grid.interp_axes[k], d0, 1 - d0) / scales[:, None]
        lo, hi = (e.tolist() for e in G_grid.window_range(k, q))
        i0, frac = G_grid.locate_along(
            k, np.concatenate([row[a:b] for row, a, b in zip(q, lo, hi)]))[:2]
        i0.flags.writeable = frac.flags.writeable = False
        at = np.cumsum([0] + [b - a for a, b in zip(lo, hi)]).tolist()
        located.append((tuple(a + d0 for a in lo), tuple(b + d0 for b in hi), tuple(at),
                        i0, frac))
    return located


def _joined(pieces):
    """The pieces one after another: the one piece itself, or a new array."""
    return pieces[0] if len(pieces) == 1 else np.concatenate(pieces)


_NONE = np.empty(0, np.intp)
_NONE.flags.writeable = False


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
    are the workspace's. Each transform is ``_forward``'s or ``_inverse``'s,
    written in place but for the first axis of a forward transform, which
    pads, and the last of the inverse, which gives the result."""
    complex_ = table.dtype.kind == "c"
    spectrum = (*size[:-1], size[-1] if complex_ else size[-1] // 2 + 1)
    with scratch(((len(fw), *spectrum), complex), ((na, *spectrum), complex),
                 ((table.width, *spectrum), complex), *table.buffers(size)) as (
                     FW, spec, term, *buffers):
        _forward(fw, size, xs, FW, complex_)
        spec[...] = 0.0
        for j, cols, K in table.tables(*buffers):
            rows = _forward(K, size, xs, term[:len(K)], complex_)
            spec[cols] += np.multiply(FW[j - j0], rows, out=rows)
        return _inverse(spec, size, xs, complex_)


def _forward(a, size, xs, out, complex_):
    """``rfftn(a, size, xs)`` (``fftn`` when ``complex_``) of ``a``, scale
    axis first, written to ``out``, as ``rfftn`` computes it but without its
    per-call set-up: along the last x axis, padded to its length, into
    ``out``'s corner, then, with the rest of ``out`` zeroed, in place along
    the other x axes from last to first."""
    corner = (slice(None), *map(slice, a.shape[1:-1]))
    (np.fft.fft if complex_ else np.fft.rfft)(a, size[-1], xs[-1], out=out[corner])
    for ax in xs[:-1]:
        out[(slice(None),) * ax + (slice(a.shape[ax], None),)] = 0.0
    for ax in xs[-2::-1]:
        np.fft.fft(out, axis=ax, out=out)
    return out


def _inverse(spec, size, xs, complex_):
    """``irfftn(spec, size, xs)`` (``ifftn`` when ``complex_``), in place but
    for the last step, which gives the result: ``ifftn`` takes the axes from
    last to first, ``irfftn`` from first to last."""
    inner, final = (xs[:0:-1], xs[0]) if complex_ else (xs[:-1], xs[-1])
    for ax in inner:
        np.fft.ifft(spec, axis=ax, out=spec)
    return (np.fft.ifft if complex_ else np.fft.irfft)(spec, size[final - 1], final)


def _support_box(a):
    """Per axis, the slice from the first to the last index at which ``a``
    is nonzero; None when ``a`` is all zero."""
    box, nonzero, axes = [], a != 0, tuple(range(a.ndim))
    for k in axes:
        others = axes[:k] + axes[k + 1:]
        # a bool array's bytes are 0 and 1
        line = (nonzero.any(axis=others) if others else nonzero).tobytes()
        first = line.find(1)
        if first < 0:
            return None
        box.append(slice(first, line.rfind(1) + 1))
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
    """Circular convolution of real ``a`` and ``b`` (scale axis first) at
    lengths ``size`` over the x axes ``axes``."""
    spectrum = (len(a), *size[:-1], size[-1] // 2 + 1)
    spec = _forward(a, size, axes, np.empty(spectrum, complex), False)
    spec *= _forward(b, size, axes, np.empty(spectrum, complex), False)
    return _inverse(spec, size, axes, False)


def _integral(*arrays):
    """True when every entry of the arrays is a finite real integer."""
    if any(a.dtype.kind == "c" for a in arrays):
        return False
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, which is nonzero
        for a in arrays:
            a = np.asarray(a, dtype=float)  # bool arrays have no subtraction
            whole = np.trunc(a)
            if np.subtract(a, whole, out=whole).any():
                return False
    return True


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
    eta = u + gamma4 * (math.sqrt(2.0) + u)
    l_eta = max(1.0, math.log2(math.prod(size))) * eta
    delta = l_eta / (1 - l_eta)
    (a1, a2), (b1, b2) = _norms_1_2(a), _norms_1_2(b)
    return 2 * 4 * delta * max(a1 * b2, a2 * b1)


def _norms_1_2(a):
    """``||a||_1`` and ``||a||_2``. On integers whose sums stay below 2^53,
    the sums are exact in any order."""
    m = np.abs(a, dtype=float)
    return np.add.reduce(m, None), math.sqrt(np.vdot(m, m))


def _exact_convolution(a, b, axes, size):
    """Circular convolution of integer-valued arrays, rounded only where
    ``_fft_error_bound`` certifies an error below 1/2; ``size`` must be
    powers of two."""
    if _fft_error_bound(a, b, size) < 0.5:
        conv = _fft_convolve(a, b, axes, size)
        # rint keeps the sign of the noise at exact zeros; + 0.0 makes them +0
        np.rint(conv, out=conv)
        conv += 0.0
        return conv
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
    peak = np.maximum.reduce(vals, None, initial=0.0)
    if peak <= 0:
        return 0.0
    edge = 0.0
    for ax in range(vals.ndim):
        for end in (0, -1):
            edge = max(edge, np.maximum.reduce(vals.take(end, ax), None, initial=0.0))
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
