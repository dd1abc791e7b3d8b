"""Group algebra, Haar quadrature, and grid invariants."""

import tracemalloc

import numpy as np
import pytest

from wamalgam import (
    AxbGrid,
    AxbGroup,
    Euclidean,
    IntegerLattice,
    LatticeGrid,
    SampledFunction,
    UniformGrid,
    element,
    haar_integral,
    translate,
)
from wamalgam.errors import (
    DimensionMismatchError,
    EmptyGridError,
    InvalidElementError,
    NonFiniteSampleError,
)


def test_axb_group_law():
    G = AxbGroup(1)
    assert np.allclose(G.multiply(element(G, 1, 2), element(G, 3, 4)), [7, 8])


def test_axb_inverse():
    G = AxbGroup(1)
    assert np.allclose(G.inverse(element(G, 3, 4)), [-0.75, 0.25])


def test_euclidean_identity_case():
    E = Euclidean(2)
    assert np.allclose(E.multiply(np.array([1.0, 1.0]), E.identity), [1, 1])


@pytest.mark.parametrize("make", [
    lambda: (Euclidean(2), None),
    lambda: (AxbGroup(1), None),
    lambda: (AxbGroup(2), None),
    lambda: (IntegerLattice(3), None),
])
def test_group_axioms_random(make, rng):
    group, _ = make()
    exact = group.kind == "lattice"
    for _ in range(50):
        g = _random_element(group, rng)
        h = _random_element(group, rng)
        k = _random_element(group, rng)
        lhs = group.multiply(group.multiply(g, h), k)
        rhs = group.multiply(g, group.multiply(h, k))
        gi = group.multiply(g, group.inverse(g))
        if exact:
            assert np.array_equal(lhs, rhs)
            assert np.array_equal(gi, group.identity)
        else:
            assert np.allclose(lhs, rhs, rtol=1e-10, atol=1e-12)
            assert np.allclose(gi, group.identity, atol=1e-12)
        assert np.allclose(group.multiply(g, group.identity), g, rtol=1e-12)
        assert np.allclose(group.multiply(group.identity, g), g, rtol=1e-12)


def _random_element(group, rng):
    if group.kind == "lattice":
        return rng.integers(-5, 6, group.n).astype(float)
    if group.kind == "axb":
        x = rng.uniform(-3, 3, group.n)
        return np.concatenate([x, [np.exp(rng.uniform(-1.5, 1.5))]])
    return rng.uniform(-3, 3, group.n)


def test_modular_is_multiplicative(rng):
    G = AxbGroup(2)
    for _ in range(50):
        g = _random_element(G, rng)
        h = _random_element(G, rng)
        lhs = G.modular(G.multiply(g, h))
        rhs = G.modular(g) * G.modular(h)
        assert np.isclose(lhs, rhs, rtol=1e-10)
    assert np.isclose(G.modular(G.identity), 1.0)


def test_modular_and_density_values():
    G = AxbGroup(1)
    g = element(G, 0.0, 2.0)
    assert np.isclose(G.modular(g), 0.5)
    E = Euclidean(3)
    assert np.isclose(E.modular(np.zeros(3)), 1.0)


def test_axb_positivity_enforced():
    G = AxbGroup(1)
    with pytest.raises(InvalidElementError):
        G.check_element(np.array([0.0, -1.0]))


def test_lattice_integrality_enforced():
    L = IntegerLattice(1)
    with pytest.raises(InvalidElementError):
        L.check_element(np.array([0.5]))


def test_lattice_grid_rejects_fractional_bounds():
    for lo, hi in ((-3.7, 3), (-3, 3.7), ([0, 0.5], 4)):
        with pytest.raises(InvalidElementError, match="integral"):
            LatticeGrid(IntegerLattice(2), lo, hi)
    grid = LatticeGrid(IntegerLattice(1), -3.0, 3.0)
    assert grid.lo.tolist() == [-3] and grid.shape == (7,)


def test_dimension_mismatch():
    E = Euclidean(2)
    with pytest.raises(DimensionMismatchError):
        E.multiply(np.zeros(2), np.zeros(3))


# ---------------------------------------------------------------------------
# Haar quadrature


def test_counting_measure_exact(z_grid):
    F = SampledFunction.sample(z_grid, lambda i: ((i >= 0) & (i <= 2)).astype(float))
    assert haar_integral(F) == 3.0


def test_unit_box(euclid):
    grid = UniformGrid(euclid, -2, 2, 4000)
    F = SampledFunction.sample(grid, lambda x: ((x >= 0) & (x <= 1)).astype(float))
    assert abs(haar_integral(F) - 1.0) <= 1e-3


def test_axb_haar_rectangle(axb):
    # integral of the indicator of [0,1] x [1,e] against da/a^2 dx
    grid = AxbGrid(axb, -1, 2, 300, 0.25, 8.0, 4000)
    F = SampledFunction.sample(
        grid, lambda x, a: ((x >= 0) & (x <= 1) & (a >= 1) & (a <= np.e)).astype(float)
    )
    assert abs(haar_integral(F) - (1 - np.exp(-1))) <= 1e-3


def test_empty_and_nonfinite_errors(euclid, z_grid):
    with pytest.raises(EmptyGridError):
        UniformGrid(euclid, 0, 1, 0)
    for lo, hi in ((16, -16), (1, 1), ([0, 2], [1, 1])):
        with pytest.raises(EmptyGridError, match="lo < hi"):
            UniformGrid(Euclidean(2), lo, hi, 8)
        with pytest.raises(EmptyGridError, match="x_lo < x_hi"):
            AxbGrid(AxbGroup(2), lo, hi, 8, 0.5, 2.0, 4)
    F = SampledFunction.sample(z_grid, lambda i: np.zeros(np.shape(i)))
    F.values[0] = np.nan
    with pytest.raises(NonFiniteSampleError):
        haar_integral(F)


def _smooth_bump(center, sigma=0.7, amp=1.0):
    def fn(x):
        return amp * np.exp(-((x - center) ** 2) / (2 * sigma**2))
    return fn


def test_left_invariance_euclidean_exact(euclid):
    """On R^n a pure shift has a constant fractional offset, so resampled
    mass telescopes and the left-invariance identity is quadrature-exact."""
    grid = UniformGrid(euclid, -12, 12, 400)
    F = SampledFunction.sample(grid, lambda x: np.maximum(0, 1 - np.abs(x - 1.3)))
    LF = translate(F, np.array([np.pi / 3.0]), "left")
    assert abs(haar_integral(LF) - haar_integral(F)) <= 1e-12


def test_left_invariance_refines(axb, rng):
    """On ax+b translation warps the grid; two halvings must buy >= 4x."""
    def bump(x, a):
        u = np.log(a)
        return np.exp(-(x**2 + u**2) / 0.5)

    for _ in range(3):
        g = np.array([rng.uniform(-1, 1), np.exp(rng.uniform(-0.4, 0.4))])
        errors = []
        for factor in (1, 4):
            grid = AxbGrid(axb, -8, 8, 60 * factor, 1 / 16, 16.0, 60 * factor)
            F = SampledFunction.sample(grid, bump)
            LF = translate(F, g, "left")
            errors.append(abs(haar_integral(LF) - haar_integral(F)))
        assert errors[1] <= errors[0] / 4 + 1e-12


def test_modular_right_translation_identity(axb, rng):
    """haar(R_g F) = modular(g)^{-1} haar(F), error shrinking under refinement."""
    def bump(x, a):
        u = np.log(a)
        return np.exp(-(x**2 + u**2) / 0.5)

    for _ in range(3):
        g = np.array([rng.uniform(-1, 1), np.exp(rng.uniform(-0.4, 0.4))])
        errors = []
        for factor in (1, 4):
            grid = AxbGrid(axb, -8, 8, 60 * factor, 1 / 16, 16.0, 60 * factor)
            F = SampledFunction.sample(grid, bump)
            RF = translate(F, g, "right")
            lhs = haar_integral(RF)
            rhs = haar_integral(F) / axb.modular(g)
            errors.append(abs(lhs - rhs))
        assert errors[1] <= errors[0] / 4 + 1e-12


def test_grid_weights_built_on_first_use():
    """A grid of 24.6M points allocates no per-point array until its
    quadrature weights are read; they are then the factors' product."""
    tracemalloc.start()
    try:
        grid = AxbGrid(AxbGroup(3), -6, 6, 80, 0.125, 8, 48)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    small = AxbGrid(AxbGroup(2), -1, 1, 4, 0.5, 2.0, 3)
    x_volume, scale_weights = small.weight_factors
    np.testing.assert_allclose(
        small.weights, np.broadcast_to(x_volume * scale_weights, small.shape),
        rtol=1e-15)
    assert small.weights is small.weights
    assert grid.size == 80**3 * 48


def test_grid_refinement_metadata(axb_grid, line_grid, z_grid):
    fine = axb_grid.refine(2)
    assert fine.shape == (160, 96)
    assert line_grid.refine(2).shape == (2048,)
    wide = z_grid.refine(2)
    assert wide.lo[0] <= 2 * z_grid.lo[0]
    assert axb_grid.metadata()["kind"] == "axb"


def test_grid_value_equality(euclid, axb):
    grid = UniformGrid(euclid, -4, 4, 64)
    twin = UniformGrid(euclid, -4, 4, 64)
    assert grid == twin and hash(grid) == hash(twin)
    assert grid != UniformGrid(euclid, -1, 1, 64)
    assert grid != UniformGrid(euclid, -4, 4, 32)
    assert AxbGrid(axb, -1, 1, 8, 0.5, 2.0, 4) != AxbGrid(axb, -1, 1, 8, 0.5, 4.0, 4)
    assert LatticeGrid(IntegerLattice(1), -4, 4) != grid


def test_arithmetic_compares_grids_by_value(euclid):
    F = SampledFunction.sample(UniformGrid(euclid, -4, 4, 64), np.cos)
    twin = SampledFunction.sample(UniformGrid(euclid, -4, 4, 64), np.cos)
    assert np.array_equal((F + twin).values, 2 * F.values)
    G = SampledFunction.sample(UniformGrid(euclid, -1, 1, 64), np.cos)
    with pytest.raises(DimensionMismatchError):
        F + G


def test_interpolation_matches_samples(line_grid):
    F = SampledFunction.sample(line_grid, _smooth_bump(0.0))
    pts = line_grid.points()[::37]
    assert np.allclose(F.eval_at(pts), F.values.ravel()[::37], atol=1e-12)


def test_interpolation_at_one_point(line_grid, axb_grid):
    """A single point, shape (dim,), reads the value a batch gives it."""
    for grid in (line_grid, axb_grid):
        F = SampledFunction(grid, np.random.default_rng(5).random(grid.shape))
        pts = grid.points()[[3, 17]] * 0.9 + 0.01
        batch = F.eval_at(pts)
        assert [F.eval_at(p) for p in pts] == list(batch)


def test_lattice_interpolation_exact(z_grid):
    F = SampledFunction.sample(z_grid, lambda i: i * 2.0)
    assert F.eval_at(np.array([[3.0]]))[0] == 6.0
    assert F.eval_at(np.array([[40.0]]))[0] == 0.0
    with pytest.raises(InvalidElementError):
        F.eval_at(np.array([[2.5]]))


def test_single_cell_axis_spans_its_cell(euclid):
    """A one-cell axis is as wide as its cell, as in the Haar quadrature."""
    grid = UniformGrid(euclid, -4, 4, 1)
    F = SampledFunction.sample(grid, lambda x: np.ones_like(x))
    assert haar_integral(F) == 8.0
    inside = F.eval_at(np.array([[0.0], [2.0], [3.9], [-3.9]]))
    outside = F.eval_at(np.array([[4.5], [-5.0]]))
    assert np.array_equal(inside, np.ones(4))
    assert np.array_equal(outside, np.zeros(2))
