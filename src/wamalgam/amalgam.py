"""Control functions, Wiener amalgam quasi-norms, and translation operators.

The control function of F for a window Q and local component B tabulates
``x -> ||F restricted to x.Q||_B`` over the grid; the amalgam quasi-norm
feeds it to a global component. Local components are L-infinity, L^1
(against Haar measure) and M (total variation; measures enter as finitely
many atoms plus an optional density). A sampled function's control
function folds |F| over the window's ``stencil``: a part's slides run in
turn as sliding maxima (linf) or sums (l1, M, after weighting |F| by the
grid's scale factor), and a stage's parts combine one at a time, so memory
stays a few copies of the grid. Under max the slides commute and the parts
combine in any order bit for bit, so parts that end in the same slide
object (the affine rows for the x offsets o and -o) run it once; sums keep
every slide in stencil order, since moving a running-sum shift changes
its rounding. A stencil whose parts times the grid points exceed
``_STENCIL_BUDGET`` is refused before any slide.
A sliding max over a window of L indices runs by doubling: log2(L) passes
of ``max(V[:-s], V[s:])`` for s = 1, 2, 4, ..., then two reads of the last
level, so N samples cost O(N log L) time and O(N) memory. On ax+b, where
the x half-width grows with the scale, all scale rows share the passes and
each reads its own level. Sliding sums are differences of running sums.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .components import (
    OVERFLOW,
    OVERFLOW_GUARD,
    DiscreteSequence,
    is_overflow,
    quasi_norm,
    sequence_norm,
)
from .errors import (
    CoverageWarning,
    DimensionMismatchError,
    EmptyGridError,
    InvalidElementError,
    NonFiniteSampleError,
)
from .groups import SampledFunction, corner_weight, haar_integral
from .windows import AxbCoverWindow, AxbWindow, right_translate

# grid points times stencil parts that one control function may slide over
_STENCIL_BUDGET = 10**8

LOCAL_COMPONENTS = ("linf", "l1", "m")


def normalize_local(tag):
    if tag not in LOCAL_COMPONENTS:
        raise InvalidElementError(f"unknown local component {tag!r}; choose from "
                                  f"{', '.join(LOCAL_COMPONENTS)}")
    return tag


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

    def total_variation(self):
        tv = sum(abs(m) for _, m in self.atoms)
        if self.density is not None:
            tv += haar_integral(abs(self.density))
        return tv


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

    ``lo`` and ``hi`` are integers, or integer arrays that broadcast
    against ``values.swapaxes(0, axis)[0]``: one window per column. The
    doubling pass with shift s leaves in each table row the max of the 2s
    rows from it on (of those that exist), so a window of length L is the
    max of two reads of the level with s <= L < 2s. Each column keeps its
    own level, and one gather reads them all.
    """
    m = values.shape[axis]
    lo, hi = _clipped(lo, values, axis), _clipped(hi, values, axis)
    span = 1 << (np.frexp(hi - lo + 1)[1] - 1)  # largest power of 2 <= length
    # one zero row after the data stands for the outside in windows that
    # the table's end cuts short
    table, row0 = _table(values, axis, lo, np.maximum(hi - span + 1, 1))
    kept = table if np.ndim(span) == 0 else np.empty_like(table)
    s, top = 1, span.max()
    while True:
        if kept is not table:
            kept[:, span == s] = table[:, span == s]
        if s == top:
            break
        np.maximum(table[:-s], table[s:], out=table[:-s])
        s *= 2
    out = np.empty(values.shape)
    np.maximum(_rows(kept, row0 + lo, m), _rows(kept, row0 + hi - span + 1, m),
               out=out.swapaxes(0, axis))
    return out


def _sliding_sum(values, axis, lo, hi):
    """sum over index offsets [lo, hi] along axis, zero-padded outside.

    ``lo`` and ``hi`` are integers or per-column arrays, as for
    ``_sliding_max``; each sum is a difference of two running sums.
    """
    m = values.shape[axis]
    lo, hi = _clipped(lo, values, axis), _clipped(hi, values, axis)
    table, row0 = _table(values, axis, lo - 1, hi)
    np.cumsum(table, axis=0, out=table)
    out = np.empty(values.shape)
    np.subtract(_rows(table, row0 + hi, m), _rows(table, row0 + lo - 1, m),
                out=out.swapaxes(0, axis))
    return out


def _clipped(offsets, values, axis):
    """Index offsets clipped to [-m, m]: beyond, an axis of m indices reads
    only the zeros outside it, and the clipped window still reads one.
    Offsets that vary are broadcast to one per column."""
    m = values.shape[axis]
    offsets = np.minimum(np.maximum(offsets, -m), m)
    if np.ndim(offsets):
        offsets = np.broadcast_to(offsets, values.swapaxes(0, axis).shape[1:])
    return offsets


def _table(values, axis, first, last):
    """``values`` with ``axis`` swapped to the front, zero-padded along it so
    that rows ``i + first`` to ``i + last`` exist for every index i; returns
    the table and the row that holds index 0."""
    V = values.swapaxes(0, axis)
    m = len(V)
    pad_l, pad_r = max(0, -int(first.min())), max(0, int(last.max()))
    table = np.zeros((pad_l + m + pad_r,) + V.shape[1:])
    table[pad_l:pad_l + m] = V
    return table, pad_l


def _rows(table, start, m):
    """``table[start + i]`` for i < m, where ``start`` may differ per column."""
    if np.ndim(start) == 0:
        return table[start:start + m]
    index = np.arange(m).reshape((m,) + (1,) * np.ndim(start)) + start
    return np.take_along_axis(table, index, axis=0)


# ---------------------------------------------------------------------------
# Control function


def control_function(F, window, local="linf"):
    """Tabulate the local-component norm of F over every window translate.

    For measures with local component M this is the total variation
    ``|mu|(x.Q)`` at every grid point x.
    """
    local = normalize_local(local)
    if isinstance(F, DiscreteMeasure):
        if local != "m":
            raise InvalidElementError("measures carry the M local component")
        return _measure_control(F, window)
    grid = F.grid
    stencil = budgeted_stencil(window, grid)
    x_volume, scale_weights = grid.weight_factors
    # l1 and m coincide on functions: integrate |F| over the translate
    linf = local == "linf"
    slide, combine = (_sliding_max, np.maximum) if linf else (_sliding_sum, np.add)
    out = np.abs(F.values) if linf else np.abs(F.values) * scale_weights
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
    return SampledFunction(grid, out if linf else out * x_volume)


def budgeted_stencil(window, grid):
    """``window.stencil(grid)``, refused when its parts times the grid
    points exceed ``_STENCIL_BUDGET``. The grid alone sets both counts, so
    a caller can check before it samples anything."""
    stencil = window.stencil(grid)
    parts = sum(map(len, stencil))
    if parts * grid.size > _STENCIL_BUDGET:
        raise EmptyGridError(
            f"control function: {grid.size:,} grid points times {parts:,} stencil "
            f"parts exceed the budget of {_STENCIL_BUDGET:,}; an ax+b ball has "
            "more parts at larger grid.x_cells")
    return stencil


def _measure_control(mu, window):
    if mu.density is not None:
        grid = mu.density.grid
        out = control_function(mu.density, window, "l1").values.copy()
    else:
        if not mu.atoms:
            raise EmptyGridError("measure has neither atoms nor density")
        if mu.grid is None:
            raise EmptyGridError("atom-only measures need an attached grid")
        grid = mu.grid
        out = np.zeros(grid.shape)
    pts = grid.points()
    for z, mass in mu.atoms:
        # the grid points x with z in x . window
        out += abs(mass) * window.contains(pts, z).reshape(grid.shape)
    return SampledFunction(grid, out)


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
        if local != "m":
            raise InvalidElementError("measures carry the M local component")
        out = _members_at_atoms(F, bupu) if F.atoms else np.zeros(len(bupu))
        if F.density is not None:
            if not np.all(np.isfinite(F.density.values)):
                raise NonFiniteSampleError("samples contain non-finite values")
            out += local_norms_bupu(F.density, bupu, "l1")
        return out
    return _reduce_rows(F, bupu.grid, bupu.operator, local)


def _members_at_atoms(mu, bupu):
    """``sum_z |mass_z| psi_i(z)`` per member, ``psi_i`` interpolated at the
    atoms: each |mass| goes on its grid corners with its corner weights,
    and one gather over the operator reads every member there."""
    grid = bupu.grid
    base, corners, inside = grid.corners(
        grid.axis_queries(np.stack([z for z, _ in mu.atoms], axis=-1)))
    mass = np.array([abs(m) for _, m in mu.atoms]) * inside
    deposit = np.zeros(grid.size)
    for offset, factors in corners:
        np.add.at(deposit, base + offset, corner_weight(factors) * mass)
    op = bupu.operator
    return op.reduce(np.add, deposit[op.indices] * op.values)


def local_norms_indicator(F, X, window, local):
    """Per-point local norms ``||F chi_{x_i . window}||_B``; for a measure,
    ``|mu|(x_i . window)``."""
    local = normalize_local(local)
    if isinstance(F, DiscreteMeasure):
        if local != "m":
            raise InvalidElementError("measures carry the M local component")
        out = np.zeros(len(X))
        for z, mass in F.atoms:
            out += abs(mass) * window.contains(X.points, z)
        if F.density is not None:
            if not np.all(np.isfinite(F.density.values)):
                raise NonFiniteSampleError("samples contain non-finite values")
            out += local_norms_indicator(F.density, X, window, "l1")
        return out
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
    piece = magnitude.ravel()[op.indices]
    if op.values is not None:
        piece *= op.values
    return op.reduce(np.maximum if local == "linf" else np.add, piece)


def discrete_amalgam_norm(F, bupu, local, component, window=None,
                          variant="bupu"):
    """Equivalent discrete quasi-norm through a BUPU (or indicator system).

    Computes the Y_d(X) norm of the member-wise local norms; ``window``
    defaults to the BUPU's size window.
    """
    window = window if window is not None else bupu.size_window
    if variant == "bupu":
        coeffs = local_norms_bupu(F, bupu, local)
    elif variant == "indicator":
        coeffs = local_norms_indicator(F, bupu.base_set, window, local)
    else:
        raise InvalidElementError(f"unknown discrete variant {variant!r}")
    grid = F.grid if not isinstance(F, DiscreteMeasure) else bupu.grid
    seq = DiscreteSequence(coeffs, bupu.base_set, component, window)
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
    direction = _normalize_direction(direction)
    if isinstance(F, DiscreteMeasure):
        return _translate_measure(F, g, direction)
    grid = F.grid
    group = grid.group
    g = group.check_element(np.asarray(g, dtype=float))
    mesh = grid.mesh()
    if direction == "left":
        args = group.multiply_coords(group.inverse(g), mesh)
        factor = 1.0
    elif direction == "right":
        args = group.multiply_coords(mesh, g)
        factor = 1.0
    else:  # measure action on a density
        ginv = group.inverse(g)
        args = group.multiply_coords(mesh, ginv)
        factor = float(group.modular(ginv))
    vals = grid.interpolate(F.values, grid.axis_queries(args))
    out = SampledFunction(grid, np.multiply(factor, vals, out=vals))
    _warn_coverage(F, out, coverage_warn)
    return out


def _normalize_direction(direction):
    directions = ("left", "right", "measure")
    if direction not in directions:
        raise InvalidElementError(f"unknown translation direction {direction!r}; "
                                  f"choose from {', '.join(directions)}")
    return direction


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
    kinds = ("reverse", "conj_reverse", "adjoint")
    if kind not in kinds:
        raise InvalidElementError(f"unknown involution {kind!r}; choose from "
                                  f"{', '.join(kinds)}")
    grid = F.grid
    group = grid.group
    inv = group.inverse_coords(grid.mesh())
    vals = grid.interpolate(F.values, grid.axis_queries(inv))
    if kind in ("conj_reverse", "adjoint"):
        vals = np.conj(vals)
    if kind == "adjoint":
        vals = vals * group.modular_coords(inv)
    return SampledFunction(grid, vals)


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
    directions) or translated point sets (left), maximized over random
    nonnegative coefficient vectors, and scales by the squared equivalence
    bracket (one factor per switch between continuous and discrete norms).
    """
    direction = _normalize_direction(direction)
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
                modular_factor = float(group.modular(group.inverse(g)))
            base_X, base_U = well_spread, space.window
            moved_X = well_spread
            if isinstance(space.window, AxbWindow):
                # cover the translated cell by the same-center inflated set,
                # the form the doubling bound controls
                moved_U = AxbCoverWindow.for_right_translate(space.window, gg)
            else:
                moved_U = right_translate(space.window, gg)
        # cells clipped by the truncation window would fake ratios that the
        # whole-space norms do not have; scan interior coefficients only
        ok = _unclipped_cells(base_X, base_U, grid) & _unclipped_cells(
            moved_X, moved_U, grid)
        scanned = int(np.count_nonzero(ok))
        vectors = [np.abs(rng.standard_normal(len(well_spread))) * ok
                   for _ in range(coeff_count)]
        # one-hot vectors extremize per-cell ratios for solid norms
        vectors.extend(row for row in np.eye(len(well_spread))[ok])
        for lam in vectors:
            num = sequence_norm(
                DiscreteSequence(lam, moved_X, space.global_component, moved_U),
                grid)
            den = sequence_norm(
                DiscreteSequence(lam, base_X, space.global_component, base_U),
                grid)
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
