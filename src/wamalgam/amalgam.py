"""Control functions, Wiener amalgam quasi-norms, and translation operators.

The control function of F for a window Q and local component B tabulates
``x -> ||F restricted to x.Q||_B`` over the grid; the amalgam quasi-norm
feeds it to a global component. Local components are L-infinity, L^1
(against Haar measure) and M (total variation; measures enter as finitely
many atoms plus an optional density). A measure's M norms take one route,
``_measure_norms``, whatever the windows: its density's ``l1`` norms
through the function route, and onto them its atoms' |masses|, read by
the windows' own reader (membership tests at the grid points or at X,
corner weights through a BUPU). A sampled function's control
function folds |F| over the window's ``stencil``: a part's slides run in
turn as sliding maxima (linf) or sums (l1, M, after weighting |F| by the
grid's scale factor), and a stage's parts combine one at a time, so memory
stays a few copies of the grid. Under max the slides commute and the parts
combine in any order bit for bit, so parts that end in the same slide
object (the affine rows for the x offsets o and -o) run it once; sums keep
every slide in stencil order, since moving a running-sum shift changes
its rounding. A stencil whose parts times the grid points exceed
``_STENCIL_BUDGET`` is refused before any slide.
A sliding max over a window of L indices runs by doubling along the axis
where it lies: level 2s, the max over 2s indices from each one on, is
level s read at k and at k + s, folded from one buffer into another. Two
layouts serve the two kinds of slide. One window for every column (a
box's slides) folds the axis up to the largest power of 2 s <= L below
its length, adds the blocks that overhang its ends as running maxima of
its first and last indices, and reads level s at the window's start,
every s indices after it and at its end, from a table between two zero
rows. Per-column windows (on ax+b, where the x half-width grows with the
scale) fold one table of every position read, zero off the axis; each
column keeps its own level s, the largest power of 2 <= its length, and
reads it at lo and at hi - s + 1: two blocks that cover its window [lo,
hi]. So N samples cost O(N log L) time and O(N) memory. Sliding sums
are differences of running sums. The slides take their temporaries from the
thread's kept workspace (``workspace``): a call on the shapes of an
earlier one allocates only the array it returns.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .components import (
    OVERFLOW,
    OVERFLOW_GUARD,
    DiscreteSequence,
    is_overflow,
    quasi_norm,
    sequence_norm,
    sequence_norms,
)
from .errors import (
    CoverageWarning,
    DimensionMismatchError,
    EmptyGridError,
    InvalidElementError,
    NonFiniteSampleError,
)
from .groups import SampledFunction, corner_weight
from .workspace import scratch

# grid points times stencil parts that one control function may slide over
_STENCIL_BUDGET = 10**8

LOCAL_COMPONENTS = ("linf", "l1", "m")
DIRECTIONS = ("left", "right", "measure")


def _one_of(value, options, noun):
    """``value`` if it is one of ``options``; else an error that names them."""
    if value not in options:
        raise InvalidElementError(f"unknown {noun} {value!r}; choose from "
                                  f"{', '.join(options)}")
    return value


def normalize_local(tag):
    return _one_of(tag, LOCAL_COMPONENTS, "local component")


@dataclass
class DiscreteMeasure:
    """Complex Radon measure with finitely many atoms and optional density."""

    group: object
    atoms: list = field(default_factory=list)  # (point, mass) pairs
    density: SampledFunction | None = None
    grid: object = None  # ambient grid for atom-only measures

    def __post_init__(self):
        self.atoms = [
            (self.group.check_element(np.asarray(p, dtype=float)), complex(m))
            for p, m in self.atoms
        ]
        if self.grid is None and self.density is not None:
            self.grid = self.density.grid


@dataclass
class AmalgamSpace:
    """W(B, Y, Q): local component tag, global component, and window."""

    local: str
    global_component: object
    window: object

    def __post_init__(self):
        self.local = normalize_local(self.local)

    @property
    def p_exponent(self):
        return self.global_component.p_exponent

    def norm(self, F):
        return amalgam_norm(F, self.window, self.local, self.global_component)

    def reflected_norm(self, G):
        """Norm of the reflected space W(B, Y-reflected), taken through both
        reversals: ``||K(G-reversed)-reversed||_Y``."""
        K = control_function(involution(G, "reverse"), self.window, self.local)
        return quasi_norm(self.global_component, involution(K, "reverse"))

    def describe(self):
        return f"W({self.local},{self.global_component.describe()})"


# ---------------------------------------------------------------------------
# Sliding-stencil primitives


def _sliding_max(values, axis, lo, hi):
    """max over index offsets [lo, hi] along axis, zero-padded outside.

    ``lo`` and ``hi`` are integers, one window, or integer arrays that
    broadcast against ``values`` without ``axis``, one window per column,
    which ``_column_max`` slides. Level s holds at position k the max over
    positions k to k + s - 1. A window of length L reads level s, the
    largest power of 2 with s <= L and s <= max(1, m - 1) on an axis of m,
    at its start, every s positions after that and at its end, from a
    table of level s over the positions -s to m. Its full blocks,
    0 <= k <= m - s, are level s/2 read at k and at k + s/2, folded from
    ``values`` into one of two buffers and then between them, one ufunc
    call a level (at s = 1, ``values`` copied); its partial blocks at each
    end are running maxima of the axis' first and last positions with 0,
    and its two end rows, which a position beyond the table reads, are 0.
    """
    lo, hi = _clipped(lo, values, axis), _clipped(hi, values, axis)
    if isinstance(lo, np.ndarray) or isinstance(hi, np.ndarray):
        return _column_max(values, axis, lo, hi)
    m = values.shape[axis]
    top = min(1 << ((hi - lo + 1).bit_length() - 1),
              1 << (max(1, m - 1).bit_length() - 1))
    depth = top.bit_length() - 1
    other = values.size // m
    # level top in its table, m + top + 1 rows, in the first buffer; the
    # levels below alternate between the second buffer and the first,
    # m - s + 1 rows each, level top / 2 in the second
    below = max((m - (1 << k) + 1 for k in range(depth - 1, 0, -2)), default=0)
    with scratch((((m + top + 1) * other,), float), ((below * other,), float)) as buffers:
        table = _positions(buffers[0], values, axis, -top, m)
        level = values
        for k in range(1, depth + 1):
            s = 1 << k
            fold = (_along(table, axis, top, m + 1) if k == depth else
                    _positions(buffers[(depth - k) % 2], values, axis, 0, m - s))
            np.maximum(_along(level, axis, 0, m - s + 1),
                       _along(level, axis, s // 2, m - s // 2 + 1), out=fold)
            level = fold
        if not depth:
            np.copyto(_along(table, axis, 1, m + 1), values)
        _ends(values, axis, top, _along(table, axis, 1, top),
              _along(table, axis, m + 1, m + top))
        _along(table, axis, 0, 1)[...] = 0.0
        _along(table, axis, m + top, None)[...] = 0.0
        out = np.empty(values.shape)
        offsets = [*range(lo, hi - top + 1, top), hi - top + 1]
        _read(np.maximum, table, -top, axis, offsets, out)
    return out


def _column_max(values, axis, lo, hi):
    """``_sliding_max`` for per-column windows: ``lo`` and ``hi`` are
    clipped, one offset per column (or one for all). Level 1 is a table of
    every position read, min(lo, 0) to m - 1 + max(hi, 0) on an axis of m:
    ``values`` on the axis, 0 outside it. Level 2s is level s read at k and
    at k + s, folded between two buffers. A column keeps its level s, the
    largest power of 2 with s <= hi - lo + 1, in the table, and reads it at
    lo and at hi - s + 1: two blocks that cover its window.
    """
    m = values.shape[axis]
    span = 1 << (np.frexp(hi - lo + 1)[1] - 1)
    start, stop = min(int(np.min(lo)), 0), m - 1 + max(int(np.max(hi)), 0)
    count, other = stop - start + 1, values.size // m
    levels = [1 << k for k in range(1, int(span.max()).bit_length())]
    # levels 2, 8, 32, ... fold into the first buffer, 4, 16, 64, ... into the second
    rows = [count - s + 1 for s in levels[:2]]
    with scratch(*_gather_buffers(values), ((count * other,), float),
                 *[((r * other,), float) for r in rows]) as (base, index, taken, kept, *buffers):
        kept = _positions(kept, values, axis, start, stop)
        _along(kept, axis, 0, -start)[...] = 0.0
        np.copyto(_along(kept, axis, -start, m - start), values)
        _along(kept, axis, m - start, None)[...] = 0.0
        spans, level = _per_column(span, axis), kept
        for k, s in enumerate(levels):
            fold = _positions(buffers[k % 2], values, axis, 0, count - s)
            np.maximum(_along(level, axis, 0, count - s + 1),
                       _along(level, axis, s // 2, count - s // 2 + 1), out=fold)
            np.copyto(_along(kept, axis, 0, count - s + 1), fold, where=spans == s)
            level = fold
        out = np.empty(values.shape)
        _gather(np.maximum, kept, start, axis, (lo, hi - span + 1), out, base, index, taken)
    return out


def _ends(values, axis, top, front, back):
    """The partial blocks of level ``top``: into ``front`` the running
    maxima with 0 of ``values``' first ``top - 1`` positions along
    ``axis``, into ``back`` those of its last, from the end."""
    m, lead = values.shape[axis], (slice(None),) * axis
    np.maximum.accumulate(values[lead + (slice(0, top - 1),)], axis, out=front)
    np.maximum.accumulate(values[lead + (slice(m - 1, m - top, -1),)], axis,
                          out=back[lead + (slice(None, None, -1),)])
    np.maximum(front, 0.0, out=front)
    np.maximum(back, 0.0, out=back)


def _sliding_sum(values, axis, lo, hi):
    """sum over index offsets [lo, hi] along axis, zero-padded outside.

    ``lo`` and ``hi`` are integers or per-column arrays, as for
    ``_sliding_max``; each sum is a difference of two running sums, read
    from a table of them over every position read: 0 before the axis, the
    total after it.
    """
    m = values.shape[axis]
    lo, hi = _clipped(lo, values, axis), _clipped(hi, values, axis)
    columns = isinstance(lo, np.ndarray) or isinstance(hi, np.ndarray)
    start = min(int(np.min(lo)) - 1, -1)
    stop = max(int(np.max(hi)) + m - 1, m - 1)
    with scratch((((stop - start + 1) * (values.size // m),), float),
                 *(_gather_buffers(values) if columns else ())) as (table, *gather):
        table = _positions(table, values, axis, start, stop)
        _along(table, axis, 0, -start)[...] = 0.0
        np.cumsum(values, axis, float, _along(table, axis, -start, m - start))
        _along(table, axis, m - start, None)[...] = _along(table, axis, m - 1 - start, m - start)
        out = np.empty(values.shape)
        if columns:
            _gather(np.subtract, table, start, axis, (hi, lo - 1), out, *gather)
        else:
            _read(np.subtract, table, start, axis, (hi, lo - 1), out)
    return out


def _clipped(offsets, values, axis):
    """Index offsets clipped to [-m, m]: beyond, an axis of m indices reads
    only the zeros outside it, and the clipped window still reads one.
    Offsets that vary are broadcast to one per column; one offset is an
    int."""
    m = values.shape[axis]
    if not isinstance(offsets, np.ndarray):
        return min(max(int(offsets), -m), m)
    columns = values.shape[:axis] + values.shape[axis + 1:]
    return np.broadcast_to(np.minimum(np.maximum(offsets, -m), m), columns)


def _along(a, axis, start, stop):
    """The view of ``a`` from index ``start`` to ``stop`` along ``axis``."""
    return a[(slice(None),) * axis + (slice(start, stop),)]


def _positions(flat, values, axis, first, last):
    """A table shaped like ``values`` but for the positions ``first`` to
    ``last`` along ``axis``, from the front of the flat buffer ``flat``."""
    shape = list(values.shape)
    shape[axis] = last - first + 1
    return flat[:math.prod(shape)].reshape(shape)


def _per_column(x, axis):
    """Per-column ``x`` shaped to broadcast against the arrays along
    ``axis``; a number as it is."""
    return x.reshape(x.shape[:axis] + (1,) + x.shape[axis:]) if np.ndim(x) else x


def _read(ufunc, table, start, axis, offsets, out):
    """``out[i]`` along ``axis`` is ``ufunc`` folded over the table's
    entries at the positions ``i + o``, one per offset o, in order. The
    table holds the positions from ``start`` on; a position before or after
    them reads the table's first or last row. The reads are slices, one run
    of output indices at a time."""
    lead, n, count = (slice(None),) * axis, out.shape[axis], table.shape[axis]
    edges = table[lead + (slice(0, 1),)], table[lead + (slice(-1, None),)]
    cuts = [0, n]
    for o in offsets:
        cuts.extend(c for c in (start - o, start + count - o) if 0 < c < n)
    cuts.sort()
    for i, j in zip(cuts, cuts[1:]):
        if i == j:
            continue
        reads = []
        for o in offsets:
            p = i + o - start  # the table row that output index i reads
            reads.append(table[lead + (slice(p, p + j - i),)] if 0 <= p < count
                         else edges[p >= count])
        piece = out[lead + (slice(i, j),)]
        if len(reads) == 1:
            np.copyto(piece, reads[0])
            continue
        ufunc(reads[0], reads[1], out=piece)
        for r in reads[2:]:
            ufunc(piece, r, out=piece)
    return out


def _gather_buffers(values):
    """The two index buffers and the value buffer of a per-column read."""
    return [(values.shape, np.intp)] * 2 + [(values.shape, float)]


def _gather(ufunc, table, start, axis, offsets, out, base, index, taken):
    """``_read`` for per-column offsets, on a table that holds every
    position read: each offset's flat indices of the table go to ``index``
    and its entries to ``out`` (the first) or ``taken``. ``base`` holds
    the flat index of each output entry's column at position ``start``
    plus its index along ``axis`` times the axis' step."""
    steps = [st // table.itemsize for st in table.strides]
    here = [1] * out.ndim
    here[axis] = out.shape[axis]
    columns = 0
    for k, (count, step) in enumerate(zip(table.shape, steps)):
        if k != axis:
            shape = [1] * out.ndim
            shape[k] = count
            columns = columns + (np.arange(count) * step).reshape(shape)
    np.add(np.arange(out.shape[axis]).reshape(here) * steps[axis], columns, out=base)
    flat = table.reshape(-1)
    for r, o in enumerate(offsets):
        np.add(base, _per_column((o - start) * steps[axis], axis), out=index)
        np.take(flat, index, out=taken if r else out, mode="clip")
        if r:
            ufunc(out, taken, out=out)
    return out


# ---------------------------------------------------------------------------
# Control function


def control_function(F, window, local="linf"):
    """Tabulate the local-component norm of F over every window translate.

    For measures with local component M this is the total variation
    ``|mu|(x.Q)`` at every grid point x.
    """
    local = normalize_local(local)
    if isinstance(F, DiscreteMeasure):
        grid = F.grid if F.density is None else F.density.grid
        if F.density is None and not F.atoms:
            raise EmptyGridError("measure has neither atoms nor density")
        if grid is None:
            raise EmptyGridError("atom-only measures need an attached grid")
        return SampledFunction(grid, _measure_norms(
            F, local, grid.shape, lambda out: _add_atoms(F, window, grid.points(), out),
            lambda density: control_function(density, window, "l1").values))
    grid = F.grid
    stencil = budgeted_stencil(window, grid)
    x_volume, scale_weights = grid.weight_factors
    # l1 and m coincide on functions: integrate |F| over the translate
    linf = local == "linf"
    slide, combine = (_sliding_max, np.maximum) if linf else (_sliding_sum, np.add)
    out = np.abs(F.values).astype(float, copy=False)
    if not linf:
        out *= scale_weights
    for stage in stencil:
        if linf:  # exact in any order: parts sharing a last slide run it once
            stage = sorted(stage, key=lambda part: id(part[-1]))
        folded, shared = None, (None, None)
        for part in stage:
            piece = out
            if linf and len(part) > 1:
                if shared[0] is not part[-1]:
                    shared = (part[-1], slide(out, *part[-1]))
                piece, part = shared[1], part[:-1]
            for axis, lo, hi in part:
                piece = slide(piece, axis, lo, hi)
            folded = piece if folded is None else combine(folded, piece, out=folded)
        out = folded
    if not linf:
        out *= x_volume
    return SampledFunction(grid, out)


def budgeted_stencil(window, grid):
    """``window.stencil(grid)``, refused when its parts times the grid
    points exceed ``_STENCIL_BUDGET``. The grid alone sets both counts, so
    a caller can check before it samples anything."""
    stencil = window.stencil(grid)
    parts = sum(map(len, stencil))
    if parts * grid.size > _STENCIL_BUDGET:
        raise EmptyGridError(
            f"control function: {grid.size:,} grid points times {parts:,} stencil "
            f"parts exceed the budget of {_STENCIL_BUDGET:,}")
    return stencil


def _measure_norms(mu, local, shape, add_atoms, density_norms):
    """The M local norms of the measure ``mu`` over a route's windows: the
    ``l1`` norms of its density through the function route,
    ``density_norms(density)``, or zeros of ``shape`` without one, and onto
    them its atoms' |masses|, added by the route's own reader
    ``add_atoms(out)``."""
    if local != "m":
        raise InvalidElementError("measures carry the M local component")
    if mu.density is None:
        out = np.zeros(shape)
    elif not np.all(np.isfinite(mu.density.values)):
        raise NonFiniteSampleError("samples contain non-finite values")
    else:
        out = density_norms(mu.density)
    if mu.atoms:
        add_atoms(out)
    return out


def _add_atoms(mu, window, points, out):
    """Add each atom's |mass| onto ``out`` at the ``points`` x whose
    translate ``x . window`` holds the atom, one atom at a time."""
    for z, mass in mu.atoms:
        out += abs(mass) * window.contains(points, z).reshape(out.shape)
    return out


# ---------------------------------------------------------------------------
# Amalgam norms


def amalgam_norm(F, window, local, component):
    """Quasi-norm of F in W(local, component, window)."""
    control = control_function(F, window, local)
    if normalize_local(local) == "linf" and np.max(control.values, initial=0.0) > OVERFLOW_GUARD:
        return OVERFLOW
    return quasi_norm(component, control)


def local_norms_bupu(F, bupu, local):
    """Per-member local norms ``||F psi_i||_B``."""
    local = normalize_local(local)
    if isinstance(F, DiscreteMeasure):
        return _measure_norms(
            F, local, len(bupu), lambda out: _members_at_atoms(F, bupu, out),
            lambda density: _reduce_rows(density, bupu.grid, bupu.operator, "l1"))
    return _reduce_rows(F, bupu.grid, bupu.operator, local)


def _members_at_atoms(mu, bupu, out):
    """Add ``sum_z |mass_z| psi_i(z)`` per member onto ``out``, ``psi_i``
    interpolated at the atoms: each |mass| goes on its grid corners with its
    corner weights, and one gather over the operator reads every member
    there."""
    grid = bupu.grid
    base, corners, inside = grid.corners(
        grid.axis_queries(np.stack([z for z, _ in mu.atoms], axis=-1)))
    mass = np.array([abs(m) for _, m in mu.atoms]) * inside
    deposit = np.zeros(grid.size)
    for offset, factors in corners:
        np.add.at(deposit, base + offset, corner_weight(factors) * mass)
    op = bupu.operator
    out += op.reduce(np.add, deposit[op.indices] * op.values)


def local_norms_indicator(F, X, window, local):
    """Per-point local norms ``||F chi_{x_i . window}||_B``; for a measure,
    ``|mu|(x_i . window)``."""
    local = normalize_local(local)
    if isinstance(F, DiscreteMeasure):
        # the atoms sum on their own, then add onto the density's norms at once
        return _measure_norms(
            F, local, len(X), lambda out: np.add(
                out, _add_atoms(F, window, X.points, np.zeros(len(X))), out=out),
            lambda density: local_norms_indicator(density, X, window, "l1"))
    return _reduce_rows(F, F.grid, X.cell_masks(window, F.grid), local)


def _reduce_rows(F, grid, op, local):
    """Row maxima of ``|F| v`` (linf) or row sums of ``(|F| w) v`` over ``op``.

    ``v`` is the operator's values (1 for a membership operator) and ``w``
    the quadrature weights, applied on the grid before the one gather that
    feeds one ``reduceat``.
    """
    if F.grid != grid:
        raise DimensionMismatchError("function and BUPU live on different grids")
    magnitude = np.abs(F.values).astype(float, copy=False)
    if local != "linf":
        magnitude *= grid.weights
    piece = np.take(magnitude.reshape(-1), op.indices, mode="clip")
    if op.values is not None:
        piece *= op.values
    return op.reduce(np.maximum if local == "linf" else np.add, piece)


def discrete_amalgam_norm(F, bupu, local, component, variant="bupu"):
    """Equivalent discrete quasi-norm through a BUPU (or indicator system).

    Computes the Y_d(X) norm of the member-wise local norms; the indicator
    system is that of the BUPU's size window.
    """
    if variant == "bupu":
        coeffs = local_norms_bupu(F, bupu, local)
    elif variant == "indicator":
        coeffs = local_norms_indicator(F, bupu.base_set, bupu.size_window, local)
    else:
        raise InvalidElementError(f"unknown discrete variant {variant!r}")
    grid = F.grid if not isinstance(F, DiscreteMeasure) else bupu.grid
    seq = DiscreteSequence(coeffs, bupu.base_set, component, bupu.size_window)
    return sequence_norm(seq, grid)


# ---------------------------------------------------------------------------
# Translations and involutions


def translate(F, g, direction="left", coverage_warn=1e-6):
    """Translate a sampled function or discrete measure.

    Directions: "left" is L_g F = F(g^{-1} .), "right" is R_g F = F(. g),
    and "measure" is the measure action A_g = modular(g^{-1}) R_{g^{-1}}.
    Off-grid values are linearly interpolated (in log-scale coordinates on
    ax+b, exactly on the integer lattice). The law acts on the grid's
    ``mesh()``, so an action on each axis alone is located per axis.
    """
    direction = _one_of(direction, DIRECTIONS, "translation direction")
    if isinstance(F, DiscreteMeasure):
        return _translate_measure(F, g, direction)
    group = F.grid.group
    g = group.check_element(np.asarray(g, dtype=float))
    if direction == "left":
        vals, _ = _at_law(F, lambda mesh: group.multiply_coords(group.inverse(g), mesh))
    else:
        h = g if direction == "right" else group.inverse(g)
        vals, _ = _at_law(F, lambda mesh: group.multiply_coords(mesh, h))
        if direction == "measure":  # the measure action on a density
            np.multiply(float(group.modular(h)), vals, out=vals)
    out = SampledFunction(F.grid, vals)
    _warn_coverage(F, out, coverage_warn)
    return out


def _at_law(F, law):
    """F interpolated at ``law(mesh)``, a group law applied to the grid's
    ``mesh()``, and those points."""
    grid = F.grid
    args = law(grid.mesh())
    return grid.interpolate(F.values, grid.axis_queries(args)), args


def _translate_measure(mu, g, direction):
    group = mu.group
    g = group.check_element(np.asarray(g, dtype=float))
    if direction != "measure":
        raise InvalidElementError("measures translate through the measure action")
    atoms = [(group.multiply(z, g), m) for z, m in mu.atoms]
    density = None
    if mu.density is not None:
        density = translate(mu.density, g, "measure")
    return DiscreteMeasure(group, atoms, density, grid=mu.grid)


def _warn_coverage(before, after, threshold):
    if threshold <= 0:  # a mass fraction is never below 0
        return
    mass_before = float(np.sum(np.abs(before.values) * before.grid.weights))
    if mass_before <= 0:
        return
    mass_after = float(np.sum(np.abs(after.values) * after.grid.weights))
    if mass_after < threshold * mass_before:
        warnings.warn(
            f"translation pushed the support off the window "
            f"(kept mass fraction {mass_after / mass_before:.2e})",
            CoverageWarning,
            stacklevel=3,
        )


def involution(F, kind="reverse"):
    """Involutions: reverse F(x^{-1}), its conjugate, and the adjoint
    ``modular(x^{-1}) conj(F(x^{-1}))`` that absorbs the Haar module."""
    _one_of(kind, ("reverse", "conj_reverse", "adjoint"), "involution")
    group = F.grid.group
    vals, inv = _at_law(F, group.inverse_coords)
    if kind in ("conj_reverse", "adjoint"):
        vals = np.conj(vals)
    if kind == "adjoint":
        vals = vals * group.modular_coords(inv)
    return SampledFunction(F.grid, vals)


# ---------------------------------------------------------------------------
# Translation-operator-norm certificates


@dataclass
class OperatorNormBound:
    """Two-sided certificate for a translation operator norm.

    ``lower`` is a max ratio over a finite test family (always a valid
    lower bound); ``upper`` is the sequence-space route times the recorded
    discrete-equivalence bracket, an upper certificate only up to that
    empirical bracket. ``cells_scanned`` counts the cells the sequence
    route scanned, those that neither the window nor its translate clips;
    at 0 it found no ratio, so ``sequence_ratio`` is 0 and ``upper`` is
    inf.
    """

    lower: float
    upper: float
    sequence_ratio: float
    bracket: float
    direction: str
    g: tuple
    cells_scanned: int

    def as_record(self):
        return {
            "lower": self.lower,
            "upper": self.upper,
            "sequence_ratio": self.sequence_ratio,
            "bracket": self.bracket,
            "direction": self.direction,
            "g": list(self.g),
            "cells_scanned": self.cells_scanned,
        }


def _unclipped_cells(X, window, grid):
    """Cells that stay clear of the outermost ring of the truncation window."""
    op = X.cell_masks(window, grid)
    ring = np.ones(grid.shape, dtype=bool)
    ring[(slice(1, -1),) * ring.ndim] = False
    return (op.counts > 0) & ~op.reduce(np.logical_or, ring.ravel()[op.indices])


def equivalence_pairs(space, bupu, family):
    """``(cont, disc)`` per member of the family: its norm in the space and
    its discrete norm through the BUPU. Members where either norm
    overflows or is not positive are skipped."""
    for F in family:
        cont = space.norm(F)
        disc = discrete_amalgam_norm(F, bupu, space.local, space.global_component)
        if is_overflow(cont) or is_overflow(disc) or cont <= 0 or disc <= 0:
            continue
        yield cont, disc


def calibrate_equivalence_bracket(space, bupu, family):
    """Empirical discrete/continuous equivalence constant over a family."""
    worst = 1.0
    for cont, disc in equivalence_pairs(space, bupu, family):
        worst = max(worst, disc / cont, cont / disc)
    return worst


def estimate_translation_operator_norm(space, g, direction, *, grid,
                                       test_family=(), well_spread=None,
                                       coeff_count=32, rng=None,
                                       bracket_constant=1.0):
    """Certify ``|||T_g|W(B,Y)|||`` by a (lower, upper) interval.

    The lower bound maximizes norm ratios over the test family. The upper
    bound compares sequence norms over translated windows (right/measure
    directions) or translated point sets (left), maximized over
    ``coeff_count`` random nonnegative coefficient vectors and one one-hot
    vector per scanned cell, and scales by the squared equivalence bracket
    (one factor per switch between continuous and discrete norms). The
    vectors are stacked, so the moved and the base cover each take one
    ``sequence_norms`` call.
    """
    direction = _one_of(direction, DIRECTIONS, "translation direction")
    if not test_family and well_spread is None:
        raise EmptyGridError("estimator needs a test family or a well-spread set")
    if not isinstance(coeff_count, (int, np.integer)) or coeff_count < 0:
        raise InvalidElementError(
            f"coeff_count must be a nonnegative integer, got {coeff_count!r}")
    group = grid.group
    g = group.check_element(np.asarray(g, dtype=float))

    lower = 0.0
    for F in test_family:
        base = space.norm(F)
        shifted = space.norm(translate(F, g, direction, coverage_warn=0.0))
        if is_overflow(base) or is_overflow(shifted) or base <= 0:
            continue
        lower = max(lower, shifted / base)

    ratio = 0.0
    scanned = 0
    if well_spread is not None:
        rng = np.random.default_rng(0) if rng is None else rng
        modular_factor = 1.0
        if direction == "left":
            # the norm of L_g is governed by how much cheaper the cells of
            # the pulled-back set g^{-1}X measure the same coefficients
            base_X, base_U = well_spread.translated(group.inverse(g)), space.window
            moved_X = well_spread
            moved_U = space.window
        else:
            gg = g if direction == "right" else group.inverse(g)
            if direction == "measure":
                modular_factor = float(group.modular(gg))
            base_X, base_U = well_spread, space.window
            # the cover moved by g is the caller's set on a window of this
            # call alone: a copy of the set holds its masks, which go with it
            moved_X, moved_U = replace(well_spread), space.window.right_cover(gg)
        # cells clipped by the truncation window would fake ratios that the
        # whole-space norms do not have; scan interior coefficients only
        ok = _unclipped_cells(base_X, base_U, grid) & _unclipped_cells(
            moved_X, moved_U, grid)
        scanned = int(np.count_nonzero(ok))
        vectors = np.concatenate([
            np.abs(rng.standard_normal((coeff_count, len(well_spread)))) * ok,
            # one-hot vectors extremize per-cell ratios for solid norms
            np.eye(len(well_spread))[ok]])
        Y = space.global_component
        nums = sequence_norms(vectors, moved_X, Y, moved_U, grid)
        dens = sequence_norms(vectors, base_X, Y, base_U, grid)
        for num, den in zip(nums, dens):
            if is_overflow(num) or is_overflow(den) or den <= 0:
                continue
            ratio = max(ratio, num / den)
        ratio *= modular_factor
    upper = bracket_constant**2 * ratio if ratio > 0 else np.inf
    upper = max(upper, lower)
    return OperatorNormBound(lower=lower, upper=float(upper),
                             sequence_ratio=float(ratio),
                             bracket=float(bracket_constant),
                             direction=direction, g=tuple(g.tolist()),
                             cells_scanned=scanned)
