"""Convolution kernels, algebra properties, and embedding reports."""

import math
import warnings

import numpy as np
import pytest

from wamalgam import (
    AmalgamSpace,
    AxbGrid,
    AxbGroup,
    BoxWindow,
    DiscreteMeasure,
    Euclidean,
    IntegerLattice,
    LatticeGrid,
    SampledFunction,
    UniformGrid,
    WeightedLp,
    amalgam_norm,
    convolve,
    convolve_measure,
    convolve_point,
    delta_comb,
    demonstrate_lp_failure,
    generator,
    graded_lp_norm,
    is_overflow,
    quasi_norm,
    shifted_power_weight,
    translate,
    verify_embedding,
)
from wamalgam import convolution
from wamalgam.convolution import (
    _exact_convolution,
    _fft_error_bound,
    _integral,
    _smooth_length,
    _truncation_ratio,
)
from wamalgam.errors import InvalidExponentError, TruncationWarning
from wamalgam.groups import Grid, tensor_points
from wamalgam.families import axb_bump_sum, gaussian_bump_sum, lattice_sequence
from wamalgam.relations import _algebra_norms, exhaustive_lp_algebra


def test_binomial_convolution(z_grid):
    F = SampledFunction.sample(z_grid, lambda i: ((i == 0) | (i == 1)).astype(float))
    C = convolve(F, F)
    want = SampledFunction.sample(
        z_grid, lambda i: 1.0 * (i == 0) + 2.0 * (i == 1) + 1.0 * (i == 2))
    assert np.array_equal(C.values, want.values)


def test_triangle_convolution(euclid):
    grid = UniformGrid(euclid, -1, 3, 801)
    h = float(grid.steps[0])
    chi = SampledFunction.sample(grid, lambda x: ((x >= 0) & (x <= 1)).astype(float))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        T = convolve(chi, chi)
    xs = grid.axes[0]
    hat = np.maximum(0.0, 1.0 - np.abs(xs - 1.0))
    assert np.abs(T.values - hat).max() <= 2 * h


def test_axb_convolution_grid_refinement_oracle(axb):
    """Result agrees with a 4x finer recomputation to <= 1% relative sup."""
    rng = generator(31)
    spec_f = axb_bump_sum(rng, count_max=1)
    spec_g = axb_bump_sum(rng, count_max=1)
    grid = AxbGrid(axb, -6, 6, 72, 0.2, 5.0, 48)
    fine = grid.refine(4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        coarse_out = convolve(spec_f.sample(grid), spec_g.sample(grid))
        fine_out = convolve(spec_f.sample(fine), spec_g.sample(fine))
    # restrict the fine answer to the coarse nodes: the comparison then
    # carries only the quadrature error, not an extra resampling error
    fine_at_coarse = fine_out.eval_at(grid.points()).reshape(grid.shape)
    scale = np.abs(fine_at_coarse).max()
    err = np.abs(coarse_out.values - fine_at_coarse).max()
    assert err <= 0.01 * scale


def test_convolution_unit(z_grid, rng):
    # full-support noise legitimately reaches the window edge
    G = SampledFunction(z_grid, rng.standard_normal(z_grid.shape))
    delta = DiscreteMeasure(z_grid.group, [(np.zeros(1), 1.0)], grid=z_grid)
    with pytest.warns(TruncationWarning):
        out = convolve_measure(delta, G)
    assert np.allclose(out.values, G.values, atol=1e-14)


def test_single_atom_is_left_translate(z_grid, rng):
    G = SampledFunction(z_grid, rng.standard_normal(z_grid.shape))
    x = np.array([3.0])
    atom = DiscreteMeasure(z_grid.group, [(x, 1.0)], grid=z_grid)
    with pytest.warns(TruncationWarning):
        out = convolve_measure(atom, G)
    want = translate(G, x, "left", coverage_warn=0.0)
    assert np.allclose(out.values, want.values, atol=1e-14)


def test_atomwise_superposition(z_grid, rng):
    G = SampledFunction(z_grid, rng.standard_normal(z_grid.shape))
    x = np.array([2.0])
    mu = DiscreteMeasure(z_grid.group, [(np.zeros(1), 1.0), (x, 2.0)], grid=z_grid)
    with pytest.warns(TruncationWarning):
        out = convolve_measure(mu, G)
    want = G.values + 2.0 * translate(G, x, "left", coverage_warn=0.0).values
    assert np.allclose(out.values, want, atol=1e-13)


def test_density_measure_matches_function_convolution(euclid, rng):
    grid = UniformGrid(euclid, -6, 6, 400)
    F = gaussian_bump_sum(generator(41), center_range=(-2, 2)).sample(grid)
    G = gaussian_bump_sum(generator(42), center_range=(-2, 2)).sample(grid)
    mu = DiscreteMeasure(euclid, [], density=F)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        a = convolve_measure(mu, G)
        b = convolve(F, G)
    assert np.allclose(a.values, b.values, rtol=1e-12, atol=1e-12)


def test_lattice_associativity(z_grid):
    rng = generator(33)
    for _ in range(10):
        F = lattice_sequence(rng).sample(z_grid)
        G = lattice_sequence(rng).sample(z_grid)
        H = lattice_sequence(rng).sample(z_grid)
        left = convolve(convolve(F, G), H)
        right = convolve(F, convolve(G, H))
        assert np.array_equal(left.values, right.values)


def _bump(shift, axb):
    """Gaussian centred at ``shift`` in each x coordinate (and at a = 1)."""
    def fn(*coords):
        xs = coords[:-1] if axb else coords
        log_a = np.log(coords[-1]) if axb else 0.0
        return np.exp(-sum((x - shift) ** 2 for x in xs) - log_a ** 2)
    return fn


_AXB1 = AxbGrid(AxbGroup(1), -4, 4, 24, 0.25, 4.0, 16)
_R1 = UniformGrid(Euclidean(1), -4, 4, 64)


def _phase(grid):
    return np.exp(1j * grid.mesh()[0])


def _scale_rows(*rows):
    """Keep F on the listed scale rows only."""
    def factor(grid):
        keep = np.zeros(grid.shape[-1])
        keep[list(rows)] = 1.0
        return keep
    return factor


# (F's grid, G's grid or None for F's, a factor applied to F or None, and
# one applied to G or None). The transforms run at 2^a 3^b 5^c lengths per
# x axis that follow the supports, at most the one of 2N - 1: 15 for 7
# cells, 160 for 80, 162 for 81 and 90 for 45. F's bump fills _AXB1, so
# G's scale table is on all 2Na - 1 scale offsets and has nonzero columns 7-10
# and 19-23 for G on rows 0-2 and 12-15 (F's rows 5-11 read both bands
# with the gap between), and 20-23 for G on rows 13-15, which F's rows 11-15
# do not reach. G on x in [1, 5] moves each row's x queries inside its
# window with the row's scale, so no row may keep the previous one's table.
_AXB2 = AxbGrid(AxbGroup(2), [-3, -3], [3, 3], [10, 12], 0.5, 2.0, 8)
# Z^n with fractional samples of the bumps, F on [-6, 5]^n and G there or
# on [-4, 7]^n
_Z = {n: LatticeGrid(IntegerLattice(n), -6, 5) for n in (1, 2)}
_ZG = {n: LatticeGrid(IntegerLattice(n), -4, 7) for n in (1, 2)}
_POINT_REFERENCE_CASES = {
    "R": (_R1, None, None, None),
    "R, complex F": (_R1, None, _phase, None),
    "R, G on [-5, 7]": (_R1, UniformGrid(Euclidean(1), -5, 7, 40), None, None),
    "R, 7 cells": (UniformGrid(Euclidean(1), -4, 4, 7), None, None, None),
    "R, 80 cells": (UniformGrid(Euclidean(1), -4, 4, 80), None, None, None),
    "R, 81 cells": (UniformGrid(Euclidean(1), -4, 4, 81), None, None, None),
    "R2": (UniformGrid(Euclidean(2), [-3, -3], [3, 3], [20, 24]), None, None, None),
    "axb n=1": (_AXB1, None, None, None),
    "axb n=1, complex F": (_AXB1, None, _phase, None),
    "axb n=1, G on another window": (
        _AXB1, AxbGrid(AxbGroup(1), -3, 5, 20, 0.5, 8.0, 12), None, None),
    "axb n=1, F on scale rows 1, 2, 6 and 13": (
        _AXB1, None, _scale_rows(1, 2, 6, 13), None),
    "axb n=1, 80x48": (AxbGrid(AxbGroup(1), -4, 4, 80, 0.25, 4.0, 48), None, None, None),
    "axb n=1, 45x27": (AxbGrid(AxbGroup(1), -4, 4, 45, 0.25, 4.0, 27), None, None, None),
    "axb n=2": (_AXB2, None, None, None),
    "axb n=1, G on x in [1, 5]": (
        _AXB1, AxbGrid(AxbGroup(1), 1, 5, 16, 0.25, 4.0, 16), None, None),
    "axb n=1, G on two scale bands": (
        _AXB1, None, None, _scale_rows(0, 1, 2, 12, 13, 14, 15)),
    "axb n=1, G out of some rows' reach": (_AXB1, None, None, _scale_rows(13, 14, 15)),
    "axb n=1, F on the first and last scale rows": (_AXB1, None, _scale_rows(0, 15), None),
    "axb n=1, complex G on two scale bands": (
        _AXB1, None, None, lambda grid: _scale_rows(0, 1, 13, 14)(grid) * _phase(grid)),
    "axb n=2, G out of some rows' reach": (_AXB2, None, None, _scale_rows(6, 7)),
    "axb n=2, F and G on two scale bands": (
        _AXB2, None, _scale_rows(0, 7), _scale_rows(0, 1, 6, 7)),
    "Z, fractional": (_Z[1], None, None, None),
    "Z, G on [-4, 7]": (_Z[1], _ZG[1], None, None),
    "Z, complex F, G on [-4, 7]": (_Z[1], _ZG[1], _phase, None),
    "Z, complex G on [-4, 7]": (_Z[1], _ZG[1], None, _phase),
    "Z2, fractional": (_Z[2], None, None, None),
    "Z2, G on [-4, 7]^2": (_Z[2], _ZG[2], None, None),
    "Z2, complex F, G on [-4, 7]^2": (_Z[2], _ZG[2], _phase, None),
    "Z2, complex G on [-4, 7]^2": (_Z[2], _ZG[2], None, _phase),
}


@pytest.mark.parametrize("case", list(_POINT_REFERENCE_CASES))
def test_convolve_matches_point_reference(case):
    """Every output point of convolve equals the single-point quadrature."""
    grid_f, grid_g, factor_f, factor_g = _POINT_REFERENCE_CASES[case]
    grid_g = grid_g or grid_f
    axb = isinstance(grid_f, AxbGrid)
    F = SampledFunction.sample(grid_f, _bump(0.5, axb))
    if factor_f:
        F = F * factor_f(grid_f)
    G = SampledFunction.sample(grid_g, _bump(-0.3, axb))
    if factor_g:
        G = G * factor_g(grid_g)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        out = convolve(F, G).values
    ref = np.array([convolve_point(F, G, z) for z in grid_f.points()])
    peak = np.abs(ref).max()
    assert peak > 0
    assert out.flags.c_contiguous
    assert np.iscomplexobj(out) == (np.iscomplexobj(F.values) or np.iscomplexobj(G.values))
    assert np.abs(out.ravel() - ref).max() <= 1e-12 * peak


@pytest.mark.parametrize("complex_g", [False, True])
def test_zero_factor_on_axb_gives_zeros(complex_g):
    """F = 0 has no scale row to sum: the result is zero, of the factors'
    dtype, with no warning."""
    F = SampledFunction(_AXB1, np.zeros(_AXB1.shape))
    G = SampledFunction.sample(_AXB1, _bump(-0.3, True))
    if complex_g:
        G = G * _phase(_AXB1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = convolve(F, G).values
    assert out.shape == _AXB1.shape
    assert out.dtype == (np.complex128 if complex_g else np.float64)
    assert not np.any(out)


def test_one_inverse_transform_per_convolution(monkeypatch):
    """Every scale row's spectrum goes into one sum with one inverse."""
    calls = []
    irfft = np.fft.irfft

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return irfft(*args, **kwargs)

    monkeypatch.setattr(np.fft, "irfft", counted)
    F = SampledFunction.sample(_AXB1, _bump(0.5, True))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        convolve(F, F)
    assert len(calls) == 1


def test_rows_out_of_reach_do_no_transform(monkeypatch):
    """A convolution transforms at most one table per scale row of F's
    support whose window meets a nonzero column of G's table on the scale
    offsets, by one rfft along the last x axis. G on the top scale rows is
    out of reach of F's top rows, which do no transform. F w's own
    transform is an rfft too, the first; it is not counted."""
    calls, first = [], []
    rfft = np.fft.rfft

    def counted(*args, **kwargs):
        (calls if first else first).append(args[0].shape)
        return rfft(*args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", counted)
    F = SampledFunction.sample(_AXB1, _bump(0.5, True))
    G = SampledFunction.sample(_AXB1, _bump(-0.3, True)) * _scale_rows(13, 14, 15)(_AXB1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        convolve(F, G)
    # G's table columns on the scale offsets, by scattered interpolation
    na = _AXB1.shape[-1]
    offsets = (np.arange(2 * na - 1) - (na - 1)) * _AXB1.interp_steps[-1]
    pts = np.stack(np.meshgrid(_AXB1.axes[0], np.exp(offsets), indexing="ij"), axis=-1)
    nonzero = np.flatnonzero(np.any(G.eval_at(pts), axis=0))
    support = np.flatnonzero(np.any(F.values, axis=0))
    reach = [j for j in support
             if np.any((nonzero >= na - 1 - j) & (nonzero < 2 * na - 1 - j))]
    assert 1 <= len(calls) <= len(reach) < len(support)


def test_smooth_length_is_the_smallest_5_smooth_bound():
    smooth = np.array([2 ** a * 3 ** b * 5 ** c for a in range(14)
                       for b in range(9) for c in range(7)])
    for n in range(1, 5001):
        assert _smooth_length(n) == smooth[smooth >= n].min(), n


@pytest.mark.parametrize("check", [
    lambda a, b: _fft_error_bound(a, b, [320]),
    lambda a, b: _exact_convolution(a, b, (0,), [320]),
])
def test_certified_lengths_are_powers_of_two(check):
    """Higham's bound is for radix-2 transforms: 320 = 2^6 * 5 is refused."""
    a = np.arange(160.0)
    with pytest.raises(ValueError, match="powers of two"):
        check(a, a)


def test_z2_convolution_matches_point_reference_exactly(monkeypatch):
    rng = generator(95)
    grid_f = LatticeGrid(IntegerLattice(2), [-4, -5], [5, 4])
    grid_g = LatticeGrid(IntegerLattice(2), [-3, -6], [6, 3])
    F = SampledFunction(grid_f, rng.integers(-2**20, 2**20 + 1, grid_f.shape).astype(float))
    G = SampledFunction(grid_g, rng.integers(-2**20, 2**20 + 1, grid_g.shape).astype(float))
    ref = np.array([convolve_point(F, G, z) for z in grid_f.points()])
    assert not np.any(ref.imag)
    for out, *_ in _both_kernels(monkeypatch, F, G).values():
        assert np.array_equal(out.ravel(), ref.real)
        assert np.array_equal(out, _pairwise_lattice_sum(F, G))


def test_z2_convolution_exact_beyond_one_certified_fft(monkeypatch):
    """Entries up to 2^22 on 10x10 windows: every sum of |F| |G| stays below
    2^53, but the FFT's error bound does not certify rounding, so the
    factors are convolved digit by digit. ||F||_1 ||G||_1 is above 2^53, so
    the certified kernel runs unless the direct one is forced; forced, the
    direct kernel's sums, each at most 100 products, are still exact."""
    rng = generator(96)
    grid_f = LatticeGrid(IntegerLattice(2), [-5, -5], [4, 4])
    grid_g = LatticeGrid(IntegerLattice(2), [-4, -6], [5, 3])
    F = SampledFunction(grid_f, rng.integers(-2**22, 2**22 + 1, grid_f.shape).astype(float))
    G = SampledFunction(grid_g, rng.integers(-2**22, 2**22 + 1, grid_g.shape).astype(float))
    ref = np.array([convolve_point(F, G, z) for z in grid_f.points()])
    assert not np.any(ref.imag)
    digits, split = [], convolution._digits
    monkeypatch.setattr(convolution, "_digits", lambda *args: digits.append(args) or split(*args))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        assert np.array_equal(convolve(F, G).values.ravel(), ref.real)
    assert digits
    for out, *_ in _both_kernels(monkeypatch, F, G).values():
        assert np.array_equal(out.ravel(), ref.real)
        assert np.array_equal(out, _pairwise_lattice_sum(F, G))


@pytest.mark.parametrize("a, integral", [
    (np.array([1.0, np.nan]), False),
    (np.array([np.inf, 2.0]), False),
    (np.array([-np.inf]), False),
    (np.array([1.0 + 0j, 2.0]), False),
    (np.array([3.0, 0.5]), False),
    (np.array([2.0 ** 60, -2.0 ** 60]), True),
    (np.array([-0.0, 7.0]), True),
    (np.zeros((3, 4)), True),
])
def test_integral_meaning(a, integral):
    """Only finite real integers are integral, and no RuntimeWarning
    escapes for NaN or inf."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _integral(a) is integral


def test_integral_matches_mod_on_random_arrays():
    rng = generator(97)
    for _ in range(200):
        a = rng.integers(-2**40, 2**40, rng.integers(1, 50)).astype(float)
        fractions = rng.random(a.size) < rng.choice([0.0, 0.02, 0.5])
        a[fractions] += rng.random(np.count_nonzero(fractions))
        assert _integral(a) == bool(np.all(np.mod(a, 1.0) == 0))


def _pairwise_lattice_sum(F, G):
    """F*G on F's window by an int64 sum over pairs of nonzero samples."""
    out = np.zeros(F.grid.shape, dtype=np.int64)
    f_idx = np.argwhere(F.values != 0)
    g_idx = np.argwhere(G.values != 0)
    for i in f_idx:
        for j in g_idx:
            k = i + j + G.grid.lo
            if np.all((k >= 0) & (k < F.grid.shape)):
                out[tuple(k)] += int(F.values[tuple(i)]) * int(G.values[tuple(j)])
    return out


def _lattice_case(case, n):
    """(F, G) on Z^n for one support-box case."""
    rng = generator(98 + n)
    group = IntegerLattice(n)
    grid_f = LatticeGrid(group, [-9] * n, [8] * n)
    grid_g = LatticeGrid(group, [-4] * n, [13 - n] * n)
    f = rng.integers(-2**20, 2**20 + 1, grid_f.shape) * (rng.random(grid_f.shape) < 0.5)
    g = rng.integers(-2**20, 2**20 + 1, grid_g.shape) * (rng.random(grid_g.shape) < 0.5)
    inner = (slice(6, 12),) * n
    if case == "windows":  # inner supports, no mass near F's edge
        f = np.where(_box_mask(grid_f.shape, inner), f, 0)
        g = np.where(_box_mask(grid_g.shape, (slice(2, 6),) * n), g, 0)
    elif case == "edges":  # both supports touch both ends of their windows
        for x in (f, g):
            x[(0,) * n], x[(-1,) * n] = 3, -5
    elif case == "zero F":
        f = np.zeros_like(f)
    elif case == "zero G":
        g = np.zeros_like(g)
    elif case == "out of reach":  # offsets >= 20 along axis 0 leave [-9, 8]
        grid_g = LatticeGrid(group, [20] + [-4] * (n - 1), [24] + [4] * (n - 1))
        g = rng.integers(1, 2**20, grid_g.shape)
    elif case == "spill":
        f = np.where(_box_mask(grid_f.shape, inner), f, 0)
    return (SampledFunction(grid_f, f.astype(float)),
            SampledFunction(grid_g, g.astype(float)))


def _box_mask(shape, box):
    mask = np.zeros(shape, dtype=bool)
    mask[box] = True
    return mask


def _record_calls(monkeypatch):
    """Record the lengths of every forward transform, one per x axis, and
    every interpolate_along call."""
    lengths, interpolations = [], []
    forward, interpolate_along = convolution._forward, Grid.interpolate_along

    def counted_forward(a, size, *args, **kwargs):
        lengths.append(tuple(size))
        return forward(a, size, *args, **kwargs)

    def counted_interpolate_along(self, *args, **kwargs):
        interpolations.append(self)
        return interpolate_along(self, *args, **kwargs)

    monkeypatch.setattr(convolution, "_forward", counted_forward)
    monkeypatch.setattr(Grid, "interpolate_along", counted_interpolate_along)
    return lengths, interpolations


def _both_kernels(monkeypatch, F, G):
    """``convolve(F, G)`` with its kernel forced to the direct one and to the
    certified one, as ``{kernel: (values, lengths, interpolations,
    warnings)}``: the forward transforms' lengths and the interpolate_along
    calls (``_record_calls``) and the TruncationWarnings of that run. The
    two outputs agree bit for bit, the direct run transforms nothing, and
    no exact zero carries a sign."""
    runs = {}
    for kernel in ("direct", "certified"):
        with monkeypatch.context() as m:
            m.setattr(convolution, "_sums_directly", lambda *args, k=kernel: k == "direct")
            lengths, interpolations = _record_calls(m)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", TruncationWarning)
                out = convolve(F, G).values
        assert not np.signbit(out[out == 0]).any()
        runs[kernel] = (out, lengths, interpolations, caught)
    assert np.array_equal(runs["direct"][0].view(np.int64), runs["certified"][0].view(np.int64))
    assert not runs["direct"][1]
    return runs


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("case", ["windows", "edges", "zero F", "zero G",
                                  "out of reach", "spill"])
def test_lattice_support_boxes_match_pairwise_sum(monkeypatch, case, n):
    """Integral factors on Z^n are convolved on their support boxes, by
    either kernel: the result is the exact pairwise sum, no offset table is
    interpolated, no transform is longer than the power of two >= 2N - 1 of
    F's window, and a factor that is zero or out of reach runs no transform
    at all."""
    F, G = _lattice_case(case, n)
    want = _pairwise_lattice_sum(F, G)
    for out, lengths, interpolations, caught in _both_kernels(monkeypatch, F, G).values():
        assert np.array_equal(out, want)
        assert not interpolations
        today = [1 << (2 * N - 2).bit_length() for N in F.grid.shape]
        assert all(np.all(np.array(L) <= today) for L in lengths)
        if case in ("zero F", "zero G", "out of reach"):
            assert not lengths and not np.any(out)
        if case == "spill":
            ratio = _truncation_ratio(SampledFunction(F.grid, want.astype(float)))
            assert ratio > 1e-8
            [warning] = caught
            assert f"edge/peak = {ratio:.2e}" in str(warning.message)
        if case == "windows":
            assert not caught


def test_lattice_transform_length_follows_the_supports(monkeypatch):
    """On [-2000, 2000] with supports in [-999, 999] every transform has
    length 4096, not the 8192 that the window's 2N - 1 = 8001 needs, and
    every output of either kernel is the exact int64 convolution of the
    sparse, medium and dense factors."""
    grid = LatticeGrid(IntegerLattice(1), -2000, 2000)
    rng = generator(99)
    inner = np.abs(grid.axes[0]) <= 999
    pairs = []
    for density in (0.01, 0.3, 1.0):
        f, g = (np.where(inner & (rng.random(grid.shape) < density),
                         rng.integers(-1000, 1001, grid.shape), 0).astype(float)
                for _ in range(2))
        f[[1001, 2999]] = g[[1001, 2999]] = 1.0  # the supports span [-999, 999]
        pairs.append((SampledFunction(grid, f), SampledFunction(grid, g)))
    runs = [_both_kernels(monkeypatch, F, G) for F, G in pairs]
    lengths = [L for run in runs for L in run["certified"][1]]
    assert lengths and set(lengths) == {(4096,)}
    assert not any(run[k][2] for run in runs for k in run)
    for (F, G), run in zip(pairs, runs):
        # index i of either factor is the point i - 2000, so entry k of the
        # full convolution is the point k - 4000
        want = np.convolve(F.values.astype(np.int64), G.values.astype(np.int64))
        for out, *_ in run.values():
            assert np.array_equal(out, want[2000:6001])


def _benchmark_shaped(rng, kind):
    """Two integer sequences on [-2000, 2000] shaped like the line-relations
    benchmark's Z pairs: ``sparse``, 100 nonzeros in {-2, -1, 1, 2} at
    random points of [-999, 999]; ``dense``, ``floor(1000 e^{-|k| / 300})``
    with random signs on all of [-999, 999]."""
    grid = LatticeGrid(IntegerLattice(1), -2000, 2000)
    k = grid.axes[0]
    inner = np.abs(k) <= 999
    pair = []
    for _ in range(2):
        if kind == "sparse":
            v = np.zeros(grid.shape)
            v[rng.choice(np.flatnonzero(inner), 100, replace=False)] = rng.choice(
                [-2.0, -1.0, 1.0, 2.0], 100)
        else:
            v = np.floor(1000.0 * np.exp(-np.abs(k) / 300.0)) * rng.choice([-1.0, 1.0], k.size)
            v[~inner] = 0.0
        pair.append(SampledFunction(grid, v))
    return pair


@pytest.mark.parametrize("kind, transforms", [("sparse", []), ("dense", [(4096,)] * 2)])
def test_benchmark_shaped_pairs_choose_their_kernel(monkeypatch, kind, transforms):
    """100 x 100 nonzeros take the direct kernel and run no transform; 1999
    x 1999 take the certified kernel and its two 4096-point forward
    transforms. Both results are the exact int64 convolution."""
    F, G = _benchmark_shaped(generator(100), kind)
    lengths, _ = _record_calls(monkeypatch)
    out = convolve(F, G).values
    assert lengths == transforms
    want = np.convolve(F.values.astype(np.int64), G.values.astype(np.int64))
    assert np.array_equal(out, want[2000:6001])


def test_exact_lattice_zeros_carry_no_sign():
    """Rounding the certified kernel's transform keeps the sign of its noise
    where the exact sum is 0; an exact Z output has no -0."""
    F, G = _benchmark_shaped(generator(100), "dense")
    out = convolve(F, G).values
    assert np.count_nonzero(out == 0)
    assert not np.signbit(out[out == 0]).any()


def test_spilling_sparse_pair_warns_as_the_certified_kernel(monkeypatch):
    """A sparse pair whose products spill past both ends of F's window
    takes the direct kernel, which drops those products and warns with the
    certified kernel's edge/peak text."""
    grid = LatticeGrid(IntegerLattice(1), -300, 300)
    rng = generator(101)
    F, G = (SampledFunction(grid, np.where(rng.random(grid.shape) < 0.05,
                                           rng.integers(-9, 10, grid.shape), 0).astype(float))
            for _ in range(2))
    lengths, _ = _record_calls(monkeypatch)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", TruncationWarning)
        out = convolve(F, G).values
    assert not lengths
    assert np.array_equal(out, _pairwise_lattice_sum(F, G))
    [warning] = caught
    [certified] = _both_kernels(monkeypatch, F, G)["certified"][3]
    assert "edge/peak" in str(warning.message)
    assert str(warning.message) == str(certified.message)


def test_products_that_all_leave_the_window_give_zeros(monkeypatch):
    """On Z^2, F at the corners (0, 2) and (2, 0) of its 3x3 window and G at
    the one offset (2, 2), which reaches the window from F's support box:
    both products leave the window, and either kernel gives zeros."""
    group = IntegerLattice(2)
    grid = LatticeGrid(group, [0, 0], [2, 2])
    f = np.zeros(grid.shape)
    f[0, 2] = f[2, 0] = 1.0
    F = SampledFunction(grid, f)
    G = SampledFunction(LatticeGrid(group, [2, 2], [2, 2]), np.full((1, 1), 3.0))
    for out, *_ in _both_kernels(monkeypatch, F, G).values():
        assert np.array_equal(out, np.zeros(grid.shape))


def test_samples_at_the_cutoff_are_cut_before_either_kernel(monkeypatch):
    """F's sample 1e-14 at 1, at the support cutoff and inside F's support
    box [0, 2], is cut: with G's 2^50 at 0, either kernel gives 2^50 at 0
    and 2 and an exact 0 at 1, not 1e-14 * 2^50 = 11.26."""
    grid = LatticeGrid(IntegerLattice(1), -8, 8)
    f, g = np.zeros(grid.shape), np.zeros(grid.shape)
    f[[8, 9, 10]] = [1.0, 1e-14, 1.0]
    g[8] = 2.0**50
    want = np.zeros(grid.shape)
    want[[8, 10]] = 2.0**50
    for out, *_ in _both_kernels(monkeypatch, SampledFunction(grid, f),
                                 SampledFunction(grid, g)).values():
        assert np.array_equal(out, want)


def test_values_beyond_the_exact_bound_take_the_certified_kernel(monkeypatch):
    """Eight products, but ||F||_1 ||G||_1 > 2^53, so the direct kernel's
    sums are not known to be exact: the certified kernel runs, and its
    result is the exact sum, each entry below 2^53."""
    grid = LatticeGrid(IntegerLattice(1), -50, 50)
    f, g = np.zeros(grid.shape), np.zeros(grid.shape)
    f[[30, 40, 60, 70]] = [2.0**25 + 1, -(2.0**25) - 3, 2.0**25 + 5, -(2.0**25) - 7]
    g[[45, 55]] = [2.0**26 + 1, -(2.0**26) - 1]
    F, G = SampledFunction(grid, f), SampledFunction(grid, g)
    lengths, _ = _record_calls(monkeypatch)
    out = convolve(F, G).values
    assert lengths
    assert np.array_equal(out, _pairwise_lattice_sum(F, G))


def test_row_transform_length_follows_the_supports(monkeypatch):
    """On R the table stops at the offsets through which F's support box
    reaches the window: bumps on part of 256 cells transform at 320 points,
    not the 512 that 2N - 1 = 511 needs, and match the point reference.
    The one row's table is one 2-tap pass."""
    grid = UniformGrid(Euclidean(1), -16, 16, 256)
    F = SampledFunction.sample(grid, _bump(0.5, False))
    G = SampledFunction.sample(grid, _bump(-0.3, False))
    lengths, interpolations = _record_calls(monkeypatch)
    out = convolve(F, G).values
    assert len(lengths) == 2 and {L[-1] for L in lengths} == {320}
    assert interpolations == [grid]
    ref = np.array([convolve_point(F, G, z) for z in grid.points()]).real
    assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max()


def test_truncation_warning_fires(euclid):
    grid = UniformGrid(euclid, -2, 2, 200)
    chi = SampledFunction.sample(grid, lambda x: (np.abs(x) <= 1.5).astype(float))
    with pytest.warns(TruncationWarning):
        convolve(chi, chi)


def test_density_measure_warns_once(euclid):
    """One truncated result gives one warning, not one per summand."""
    grid = UniformGrid(euclid, -2, 2, 200)
    chi = SampledFunction.sample(grid, lambda x: (np.abs(x) <= 1.5).astype(float))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        convolve_measure(DiscreteMeasure(euclid, [], density=chi), chi)
    assert [w.category for w in caught] == [TruncationWarning]


# ---------------------------------------------------------------------------
# The exhaustive l^p algebra


def test_exhaustive_lp_algebra_spot_value():
    # ||(d0+d1)*(d0+d1)||_{1/2} = (2 + sqrt(2))^2 <= 16 = product of norms
    rec = exhaustive_lp_algebra(0.5, weighted=False)
    assert rec["violations"] == 0
    assert rec["c_emp"] <= 1.0 + 1e-9
    na = (1.0 + np.sqrt(2.0) + 1.0) ** 2
    assert na == pytest.approx((2 + np.sqrt(2)) ** 2)
    assert na <= 16.0


@pytest.mark.parametrize("p", [0.5, 1.0])
@pytest.mark.parametrize("weighted", [False, True])
def test_exhaustive_lp_algebra_no_violations(p, weighted):
    rec = exhaustive_lp_algebra(p, weighted)
    assert rec["violations"] == 0
    assert rec["c_emp"] <= 1.0 + 1e-9


def _reference_algebra_norms(p, weighted):
    """The norms as the whole (256, 256, 7) table of convolutions gave them."""
    n, start = 4, -1
    seqs = tensor_points([np.array((-1, 0, 1, 2))] * n).astype(float)
    conv = np.zeros((len(seqs), len(seqs), 2 * n - 1))
    for i in range(n):
        conv[:, :, i:i + n] += seqs[:, None, i, None] * seqs[None, :, :]
    wf = (1.0 + np.abs(np.arange(start, start + n))) if weighted else np.ones(n)
    wc = ((1.0 + np.abs(np.arange(2 * start, 2 * start + 2 * n - 1))) if weighted
          else np.ones(2 * n - 1))
    norm_f = np.sum(np.abs(seqs * wf) ** p, axis=1) ** (1.0 / p)
    norm_c = np.sum(np.abs(conv * wc) ** p, axis=2) ** (1.0 / p)
    return norm_f, norm_c


@pytest.mark.parametrize("p", [0.3, 0.5, 1.0, 2.0])
@pytest.mark.parametrize("weighted", [False, True])
def test_algebra_norms_equal_the_whole_table(p, weighted):
    """Summing the convolutions' taps one at a time gives the norms of the
    whole table bit for bit, and so the same record."""
    norm_f, norm_c = _algebra_norms(p, weighted)
    want_f, want_c = _reference_algebra_norms(p, weighted)
    assert np.array_equal(norm_f, want_f) and np.array_equal(norm_c, want_c)
    products = want_f[:, None] * want_f[None, :]
    nonzero = products > 0
    ratios = np.where(nonzero, want_c / np.where(nonzero, products, 1.0), 0.0)
    assert exhaustive_lp_algebra(p, weighted) == {
        "p": p, "weighted": weighted, "pairs_checked": int(nonzero.sum()),
        "violations": int(np.sum(ratios > 1.0 + 1e-9)), "c_emp": float(ratios.max())}


@pytest.mark.parametrize("p", [0.0, -1.0])
def test_exhaustive_lp_algebra_rejects_non_positive_p(p):
    with pytest.raises(InvalidExponentError):
        exhaustive_lp_algebra(p, weighted=False)


def test_lattice_algebra_spot_example(z_grid):
    F = delta_comb({0: 1, 1: 1}).sample(z_grid)
    C = convolve(F, F)
    got = quasi_norm(WeightedLp(0.5), C)
    assert got == pytest.approx((2 + np.sqrt(2)) ** 2, rel=1e-12)
    prod = quasi_norm(WeightedLp(0.5), F) ** 2
    assert got <= prod


# ---------------------------------------------------------------------------
# Embedding reports


def _line_family(seed, count, spread=3.0):
    rng = generator(seed)
    return [gaussian_bump_sum(rng, center_range=(-spread, spread),
                              sigma_range=(0.4, 1.2))
            for _ in range(count)]


def test_embedding_in_group_weighted(euclid):
    """W(Linf, L^p_w) * W(Linf, L^p_w) into itself on the IN group R."""
    grid = UniformGrid(euclid, -16, 16, 256)
    window = BoxWindow.centered(0.5, 1)
    w = shifted_power_weight(2.0)
    space = AmalgamSpace("linf", WeightedLp(1.0, w), window)
    report = verify_embedding(
        "cor_conv_Lp", _line_family(51, 6), _line_family(52, 6), grid=grid,
        target_norm=space.norm, left_norm=space.norm,
        right_norm=space.norm, levels=2, family="bumps")
    assert report.passed
    assert np.isfinite(report.c_emp)
    trace = report.refinement_trace
    assert trace[1] <= 1.25 * trace[0]


def test_embedding_c_emp_seed_invariant(euclid):
    """C_emp moves by <= 10% when the family is independently reseeded."""
    grid = UniformGrid(euclid, -16, 16, 256)
    window = BoxWindow.centered(0.5, 1)
    space = AmalgamSpace("linf", WeightedLp(1.0), window)
    c = []
    for seeds in ((61, 62), (63, 64)):
        report = verify_embedding(
            "cor_conv_Lp", _line_family(seeds[0], 12), _line_family(seeds[1], 12),
            grid=grid, target_norm=space.norm, left_norm=space.norm,
            right_norm=space.norm, levels=1, family="bumps")
        c.append(report.c_emp)
    assert abs(c[1] - c[0]) <= 0.10 * max(c)


def test_reflected_norm_matches_on_in_group(euclid):
    """Reversal-invariance of the amalgam norm on R with symmetric windows."""
    grid = UniformGrid(euclid, -16, 16, 512)
    window = BoxWindow.centered(0.5, 1)
    Y = WeightedLp(1.0, shifted_power_weight(1.0))
    space = AmalgamSpace("linf", Y, window)
    direct = space.norm
    reflected = space.reflected_norm
    rng = generator(71)
    for _ in range(10):
        F = gaussian_bump_sum(rng, center_range=(-4, 4)).sample(grid)
        a = direct(F)
        b = reflected(F)
        assert 0.5 <= a / b <= 2.0


def test_overflow_recorded_as_failure_witness(euclid):
    grid = UniformGrid(euclid, -16, 16, 128)
    window = BoxWindow.centered(0.5, 1)
    space = AmalgamSpace("linf", WeightedLp(1.0), window)

    class HugeSpec:
        name = "huge"

        def sample(self, g):
            return SampledFunction.sample(g, lambda x: 1e13 * np.exp(-x**2))

    report = verify_embedding(
        "cor_conv_Lp", [HugeSpec()], [HugeSpec()], grid=grid,
        target_norm=space.norm, left_norm=space.norm, right_norm=space.norm,
        levels=1, family="huge")
    assert not report.passed
    assert report.failures and report.failures[0]["reason"] == "overflow"


def test_embedding_without_pairs_does_not_pass(euclid):
    """A level that compared no pair is a failure, not a pass at C_emp = 0."""
    grid = UniformGrid(euclid, -4, 4, 32)
    norm = AmalgamSpace("linf", WeightedLp(1.0), BoxWindow.centered(0.5, 1)).norm
    report = verify_embedding("cor_conv_Lp", [], [], grid=grid, target_norm=norm,
                              left_norm=norm, right_norm=norm, levels=2)
    assert not report.passed
    assert report.failures == [{"level": 0, "reason": "no pair compared"},
                               {"level": 1, "reason": "no pair compared"}]


def test_embedding_records_truncation(euclid):
    """Edge/peak ratios are recorded per level and per level-0 pair; the
    verdict does not depend on them."""
    grid = UniformGrid(euclid, -4, 4, 64)
    window = BoxWindow.centered(0.5, 1)
    space = AmalgamSpace("linf", WeightedLp(1.0), window)

    class Box:
        name = "box"

        def __init__(self, half):
            self.half = half

        def sample(self, g):
            return SampledFunction.sample(g, lambda x: (np.abs(x) <= self.half) * 1.0)

    # the first pair stays inside the window; the second reaches its edge
    report = verify_embedding(
        "cor_conv_Lp", [Box(1.0), Box(3.0)], [Box(1.0), Box(3.0)], grid=grid,
        target_norm=space.norm, left_norm=space.norm,
        right_norm=space.norm, levels=2, family="boxes")
    ratios = [pair["truncation"] for pair in report.pairs]
    assert ratios[0] < 1e-12
    assert ratios[1] > 1e-8
    assert len(report.truncation) == 2
    assert report.truncation[0] == max(ratios)
    assert report.as_record()["truncation"] == report.truncation


# ---------------------------------------------------------------------------
# The p < 1 failure demonstration


def test_graded_norm_oracle():
    # (int_0^1 x^{-3/4} dx)^2 = 16 with antiderivative 4 x^{1/4}
    assert graded_lp_norm(0.5, -1.5) == pytest.approx(16.0, rel=0.005)


def test_demonstrate_lp_failure_report():
    rep = demonstrate_lp_failure()
    assert abs(rep["lp_norm"] - 16.0) <= 0.16
    assert len(rep["convolution_growth"]) == 3
    assert all(g >= 1.8 for g in rep["convolution_growth"])
    assert rep["convolution_diverges"]
    assert is_overflow(rep["amalgam_norm"])


def test_embedding_with_estimator_built_weight(euclid):
    """thm_conv_b route: the right-factor weight comes from the measure-action
    upper certificates rather than an analytic formula."""
    from wamalgam import AmalgamSpace, euclidean_lattice
    from wamalgam.convolution import estimator_weight_on_line

    grid = UniformGrid(euclid, -16, 16, 256)
    window = BoxWindow.centered(0.5, 1)
    Y = WeightedLp(1.0, shifted_power_weight(1.0))
    target = AmalgamSpace("linf", Y, window)
    X = euclidean_lattice(grid, 1.0)
    w = estimator_weight_on_line(
        target, grid, knots=[0, 1, 2, 4, 6], direction="measure",
        well_spread=X, rng=generator(91), bracket_constant=1.6)
    # submultiplicativity gives |||A_x||| <= (1 + |x|); the certificate may
    # carry the bracket slack but must grow and stay within that slack
    vals = w(np.array([[1.0], [4.0]]))
    assert vals[1] > vals[0]
    assert vals[1] <= 1.6**2 * (1 + 4.0) * 1.1
    right = AmalgamSpace("linf", WeightedLp(1.0, w), window)
    report = verify_embedding(
        "thm_conv_b", _line_family(92, 5), _line_family(93, 5), grid=grid,
        target_norm=target.norm, left_norm=target.norm,
        right_norm=right.norm, levels=2, family="estimator weight")
    assert report.passed


def test_lattice_algebra_500_random_pairs(monkeypatch, z_grid):
    """Random finitely supported pairs (support <= 8) never violate the
    weighted l^{1/2} algebra inequality, through either kernel."""
    rng = generator(94)
    w = shifted_power_weight(1.0)
    Y = WeightedLp(0.5, w)
    for _ in range(500):
        F = lattice_sequence(rng, support_radius=4, max_count=8).sample(z_grid)
        G = lattice_sequence(rng, support_radius=4, max_count=8).sample(z_grid)
        nf, ng = quasi_norm(Y, F), quasi_norm(Y, G)
        if nf == 0 or ng == 0:
            continue
        want = _pairwise_lattice_sum(F, G)
        for out, *_ in _both_kernels(monkeypatch, F, G).values():
            assert np.array_equal(out, want)
            nc = quasi_norm(Y, SampledFunction(z_grid, out))
            assert nc <= nf * ng * (1 + 1e-9)


def test_lattice_convolution_mismatched_windows(lattice):
    """G sampled on a shifted window still lands on the right output cells."""
    from wamalgam import LatticeGrid

    gF = LatticeGrid(lattice, -8, 8)
    gG = LatticeGrid(lattice, -3, 13)  # different origin
    F = SampledFunction.sample(gF, lambda i: ((i == 0) | (i == 1)).astype(float))
    G = SampledFunction.sample(gG, lambda i: ((i == 0) | (i == 1)).astype(float))
    C = convolve(F, G)
    got = {int(i - 8): v for i, v in enumerate(C.values) if v != 0}
    assert got == {0: 1.0, 1: 2.0, 2: 1.0}


def _reference_lattice_sequence(rng, support_radius=4, max_count=4, values=(-2, -1, 1, 2),
                                n=1):
    """The table of ``lattice_sequence`` built as it was, one generator of
    ints per key."""
    count = int(rng.integers(1, max_count + 1))
    pos = rng.integers(-support_radius, support_radius + 1, (count, n))
    vals = rng.choice(values, count)
    table = {}
    for p, v in zip(pos, vals):
        table[tuple(int(t) for t in p)] = table.get(tuple(int(t) for t in p), 0) + v
    return table


@pytest.mark.parametrize("n", [1, 2])
def test_lattice_sequence_table_equals_the_reference(n):
    """Same keys in the same order, same values of the same types, on
    inputs where positions repeat, and the generator ends in the same
    state."""
    repeated = 0
    for seed in range(200):
        rng, ref_rng = generator(seed), generator(seed)
        kwargs = dict(support_radius=3, max_count=12, n=n)
        table = lattice_sequence(rng, **kwargs).meta["table"]
        want = _reference_lattice_sequence(ref_rng, **kwargs)
        assert list(table.items()) == list(want.items())
        assert [type(k[0]) for k in table] == [type(k[0]) for k in want]
        assert [type(v) for v in table.values()] == [type(v) for v in want.values()]
        assert rng.random() == ref_rng.random()
        repeated += sum(abs(v) > 2 for v in want.values())
    assert repeated
