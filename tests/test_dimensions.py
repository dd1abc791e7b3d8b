"""The machinery is dimension-generic: 2-D checks across the stack."""

import numpy as np
import pytest

from wamalgam import (
    AxbGrid,
    AxbGroup,
    AxbWindow,
    BoxWindow,
    Euclidean,
    IntegerLattice,
    LatticeGrid,
    MixedLpq,
    SampledFunction,
    UniformGrid,
    WeightedLp,
    amalgam_norm,
    control_function,
    convolve,
    haar_integral,
    quasi_norm,
    translate,
)


@pytest.fixture(scope="module")
def plane_grid():
    return UniformGrid(Euclidean(2), [-3, -3], [3, 3], [120, 120])


def test_plane_control_matches_mask_oracle(plane_grid, rng):
    F = SampledFunction.sample(plane_grid, lambda x, y: np.exp(-(x**2 + y**2)))
    Q = BoxWindow.centered(0.25, 2)
    K = control_function(F, Q, "linf")
    pts = plane_grid.points()
    flat = np.abs(F.values).ravel()
    xs, ys = plane_grid.axes
    for _ in range(10):
        i = int(rng.integers(0, len(xs)))
        j = int(rng.integers(0, len(ys)))
        mask = (np.abs(pts[:, 0] - xs[i]) <= 0.25 + 1e-9) & (
            np.abs(pts[:, 1] - ys[j]) <= 0.25 + 1e-9)
        assert K.values[i, j] == flat[mask].max()


def test_plane_amalgam_reduces_to_norm(plane_grid):
    from oracles import window_haar_measure

    F = SampledFunction.sample(plane_grid, lambda x, y: np.exp(-(x**2 + y**2)))
    Q = BoxWindow.centered(0.25, 2)
    got = amalgam_norm(F, Q, "l1", WeightedLp(1.0))
    # Fubini on the grid: the L1 control integrates to the grid-to-grid
    # stencil measure of the window (based at a grid point, where the
    # closed boundary is hit exactly) times the total mass
    total = haar_integral(abs(F))
    base = np.array([plane_grid.axes[0][60], plane_grid.axes[1][60]])
    stencil = window_haar_measure(Q, plane_grid, base=base)
    assert got == pytest.approx(stencil * total, rel=1e-3)


def test_plane_haar_box():
    grid = UniformGrid(Euclidean(2), [-2, -2], [2, 2], [400, 400])
    F = SampledFunction.sample(
        grid, lambda x, y: ((np.abs(x) <= 1) & (np.abs(y) <= 0.5)).astype(float))
    assert haar_integral(F) == pytest.approx(2.0, abs=1e-2)


def test_z2_binomial_convolution():
    grid = LatticeGrid(IntegerLattice(2), [-4, -4], [4, 4])
    F = SampledFunction.sample(
        grid, lambda i, j: (((i == 0) | (i == 1)) & (j == 0)).astype(float))
    C = convolve(F, F)
    got = {(a - 4, b - 4): v for (a, b), v in np.ndenumerate(C.values) if v != 0}
    assert got == {(0, 0): 1.0, (1, 0): 2.0, (2, 0): 1.0}


def test_z2_translation_exact(rng):
    grid = LatticeGrid(IntegerLattice(2), [-6, -6], [6, 6])
    F = SampledFunction(grid, rng.standard_normal(grid.shape))
    g = np.array([2.0, -1.0])
    L = translate(F, g, "left", coverage_warn=0.0)
    assert L.values[4, 2] == F.values[2, 3]  # index shift by (2, -1)


def test_axb2_modular_and_mixed_norm():
    G = AxbGroup(2)
    assert np.isclose(G.modular(np.array([0.0, 0.0, 2.0])), 0.25)
    grid = AxbGrid(G, [-2, -2], [2, 2], [20, 20], 0.5, 2.0, 10)
    F = SampledFunction.sample(
        grid, lambda x, y, a: np.exp(-(x**2 + y**2 + np.log(a) ** 2)))
    mixed = quasi_norm(MixedLpq(1.0, 1.0, n=2), F)
    plain = quasi_norm(WeightedLp(1.0), F)
    assert mixed == pytest.approx(plain, rel=1e-12)
    K = control_function(F, AxbWindow(0.5, 1.4), "linf")
    assert 0.9 <= K.values.max() <= 1.0 + 1e-12
