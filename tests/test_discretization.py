"""Well-spread sets, separation/density certificates, and BUPUs."""

import numpy as np
import pytest

from wamalgam import (
    AxbGrid,
    AxbWindow,
    BoxWindow,
    SampledFunction,
    UniformGrid,
    WellSpreadSet,
    build_axb_lattice,
    build_bupu,
    check_density,
    check_relatively_separated,
    euclidean_lattice,
    verify_bupu,
)
from wamalgam.errors import DensityError, EmptyGridError, InvalidElementError


def test_separation_integer_lattice(line_grid):
    X = euclidean_lattice(line_grid, 1.0)
    assert check_relatively_separated(X, BoxWindow.interval(0, 1)) == 3


def test_separation_singleton(line_grid):
    X = WellSpreadSet(np.array([[0.0]]), grid=line_grid)
    assert check_relatively_separated(X, BoxWindow.interval(0, 1)) == 1


def test_separation_empty():
    X = WellSpreadSet(np.zeros((0, 1)))
    X.points = np.zeros((0, 1))
    with pytest.raises(EmptyGridError):
        check_relatively_separated(X, BoxWindow.interval(0, 1))


def test_separation_axb_lattice_matches_bruteforce(axb_grid):
    X = build_axb_lattice(0.5, 2.0, (-8, 8), (-2, 2), grid=axb_grid)
    window = AxbWindow(0.5, np.sqrt(2.0))
    fast = check_relatively_separated(X, window)
    # oracle: brute-force pairwise intersection of the transformed boxes
    pts = X.points
    counts = []
    for j in range(len(pts)):
        c = 0
        for i in range(len(pts)):
            xi, ai = pts[i, 0], pts[i, 1]
            xj, aj = pts[j, 0], pts[j, 1]
            balls = abs(xi - xj) <= window.radius * (ai + aj) * (1 + 1e-9)
            scales = abs(np.log(ai) - np.log(aj)) <= 2 * np.log(window.beta) * (1 + 1e-9)
            c += bool(balls and scales)
        counts.append(c)
    assert fast == max(counts)


def test_separation_monotone_in_window(line_grid, rng):
    X = WellSpreadSet(np.sort(rng.uniform(-10, 10, 40))[:, None], grid=line_grid)
    inner = check_relatively_separated(X, BoxWindow.centered(0.3, 1))
    outer = check_relatively_separated(X, BoxWindow.centered(1.1, 1))
    assert inner <= outer


def test_cell_masks_keyed_by_grid_value(euclid):
    X = WellSpreadSet(np.array([[0.0], [1.5]]))
    window = BoxWindow.centered(0.5, 1)
    # each grid is dropped after its call, so a key by id() may be reused
    masks = X.cell_masks(window, UniformGrid(euclid, -4, 4, 64))
    same = X.cell_masks(window, UniformGrid(euclid, -4, 4, 64))
    other = X.cell_masks(window, UniformGrid(euclid, -2, 2, 64))
    assert all(np.array_equal(a, b) for a, b in zip(masks, same))
    assert not any(np.array_equal(a, b) for a, b in zip(masks, other))


def test_density_certificate_and_failure(line_grid):
    X = euclidean_lattice(line_grid, 1.0)
    cert = check_density(X, BoxWindow.centered(0.5, 1))
    assert cert["covered"]
    sparse = WellSpreadSet(np.array([[0.0], [8.0]]), grid=line_grid)
    with pytest.raises(DensityError) as err:
        check_density(sparse, BoxWindow.centered(0.5, 1))
    assert len(err.value.args) >= 2  # carries the uncovered probe point


def test_axb_lattice_points_direct_substitution():
    X = build_axb_lattice(1.0, 2.0, (-1, 1), (0, 0), n=1)
    got = {tuple(p) for p in X.points}
    assert got == {(-1.0, 1.0), (0.0, 1.0), (1.0, 1.0)}
    X2 = build_axb_lattice(1.0, 2.0, (3, 3), (1, 1), n=1)
    assert np.allclose(X2.points, [[1.5, 0.5]])


def test_axb_lattice_density_certified(axb):
    grid = AxbGrid(axb, -4, 4, 64, 0.25, 4.0, 40)
    X = build_axb_lattice(0.5, 2.0, (-16, 16), (-2, 2), grid=grid,
                          density_window=AxbWindow(1.0, 2.0))
    assert X.density_window is not None


def test_axb_lattice_validation():
    with pytest.raises(InvalidElementError):
        build_axb_lattice(0.0, 2.0, (-1, 1), (0, 0))
    with pytest.raises(InvalidElementError):
        build_axb_lattice(1.0, 1.0, (-1, 1), (0, 0))


# ---------------------------------------------------------------------------
# BUPUs


def test_hat_bupu_on_integers(line_grid):
    X = euclidean_lattice(line_grid, 1.0)
    bupu = build_bupu(X, BoxWindow.centered(1.0, 1), grid=line_grid)
    check = verify_bupu(bupu)
    assert check["passed"]
    # the hat at 0 peaks at its node and vanishes at the neighbors
    # (grid midpoints sit h/2 off the node, hence the h-sized slack)
    h = float(line_grid.steps[0])
    i0 = int(np.argmin(np.abs(X.points[:, 0])))
    member = bupu.member(i0)
    xs = line_grid.axes[0]
    assert member.values[np.argmin(np.abs(xs - 0.0))] >= 1 - h
    assert member.values[np.argmin(np.abs(xs - 1.0))] <= h
    assert member.values[np.argmin(np.abs(xs + 1.0))] <= h


def test_voronoi_bupu_is_indicator_partition(line_grid):
    X = euclidean_lattice(line_grid, 1.0)
    bupu = build_bupu(X, BoxWindow.centered(0.75, 1), grid=line_grid,
                      kind="voronoi")
    check = verify_bupu(bupu)
    assert check["passed"]
    for vals in bupu.member_values:
        assert np.all((vals == 0.0) | (vals == 1.0))


def test_axb_bupu_sums_to_one(axb_grid, rng):
    X = build_axb_lattice(0.5, 2.0, j_range=(-3, 3), grid=axb_grid,
                          x_extent=6.5)
    bupu = build_bupu(X, AxbWindow(1.0, 2.0))
    assert verify_bupu(bupu)["passed"]
    # the sum at 10^4 random grid points is one to 1e-12
    total = bupu.total()
    flat = total.values.ravel()
    idx = rng.integers(0, flat.size, 10_000)
    assert np.abs(flat[idx] - 1.0).max() <= 1e-12


def test_bupu_not_dense_raises(line_grid):
    sparse = WellSpreadSet(np.array([[0.0], [9.0]]), grid=line_grid)
    with pytest.raises(DensityError):
        build_bupu(sparse, BoxWindow.centered(1.0, 1), grid=line_grid)


def test_bupu_reconstructs_functions(line_grid, rng):
    """sum_i F psi_i = F pointwise: finite partition reconstruction."""
    X = euclidean_lattice(line_grid, 1.0)
    bupu = build_bupu(X, BoxWindow.centered(1.0, 1), grid=line_grid)
    F = SampledFunction.sample(
        line_grid, lambda x: np.sin(x) * np.exp(-0.1 * x**2) + 0.3
    )
    recon = np.zeros(line_grid.shape)
    flat = recon.reshape(-1)
    for idx, vals in zip(bupu.member_indices, bupu.member_values):
        flat[idx] += F.values.ravel()[idx] * vals
    assert np.allclose(recon, F.values, atol=1e-12)


def test_bupu_csv_export(tmp_path, line_grid):
    from wamalgam.discretization import bupu_to_csv

    X = euclidean_lattice(line_grid, 1.0)
    bupu = build_bupu(X, BoxWindow.centered(1.0, 1), grid=line_grid)
    path = bupu_to_csv(bupu, tmp_path / "bupu.csv")
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "member,support_lo0,support_hi0,x0,value"
    assert len(lines) > len(X)


def _broadcast_owner(X, grid, pts):
    if isinstance(grid, AxbGrid):
        q = np.column_stack([pts[:, :-1], np.log(pts[:, -1])])
        c = np.column_stack([X.points[:, :-1], np.log(X.points[:, -1])])
    else:
        q, c = pts, X.points
    return np.argmin(np.sum((q[:, None, :] - c[None, :, :]) ** 2, axis=-1), axis=1)


@pytest.mark.parametrize("block", [None, 1000])
def test_voronoi_owner_matches_broadcast(axb_grid, monkeypatch, block):
    """Blocked owners are bit-identical to the one-array formula, ties
    (grid points midway between lattice points) included."""
    from wamalgam import discretization
    from wamalgam.groups import Euclidean

    if block is not None:
        # a block that does not divide the grid: the last one is partial
        monkeypatch.setattr(discretization, "_OWNER_BLOCK", block)
    # step 1/8 with grid points on the integers, so on the half-integers too
    grid2 = UniformGrid(Euclidean(2), -4.0625, 3.9375, 64)
    X2 = euclidean_lattice(grid2, 1.0)
    Xa = build_axb_lattice(0.5, 2.0, j_range=(-2, 2), grid=axb_grid, x_extent=6.0)
    for X, grid in ((X2, grid2), (Xa, axb_grid)):
        pts = grid.points()
        want = _broadcast_owner(X, grid, pts)
        got = discretization._voronoi_owner(X, grid, pts)
        assert np.array_equal(got, want)
    # many grid points of R^2 are equidistant from two or four lattice points
    d2 = np.sum((grid2.points()[:, None, :] - X2.points[None]) ** 2, axis=-1)
    assert np.sum(d2 == d2.min(axis=1, keepdims=True)) > grid2.size
