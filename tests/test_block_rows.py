"""Batched window factors, the block row builder, one-gather local norms and
the shared row slides of affine control functions.

Each window's factor methods take a stack of base points and must give the
single-base factors stacked; local norms must match per-member sums on a
grid whose weights are not powers of two; the builder and the local norms
must keep their temporaries bounded; and an affine control function whose
parts share a row slide must equal the fold that runs every slide.
"""

import math
import tracemalloc

import numpy as np
import pytest

from wamalgam import (
    AxbGrid,
    AxbGroup,
    AxbWindow,
    BoxWindow,
    DiscreteMeasure,
    Euclidean,
    IntegerLattice,
    LatticeGrid,
    SampledFunction,
    UniformGrid,
    build_axb_lattice,
    build_bupu,
    control_function,
    euclidean_lattice,
)
from wamalgam import amalgam
from wamalgam.amalgam import local_norms_bupu
from wamalgam.discretization import _OWNER_BLOCK
from wamalgam.windows import AxbCoverWindow

from oracles import dense_member


def _factor_case(name, rng):
    """A window, its grid and a stack of base points, some off the grid."""
    if name == "box-R":
        grid = UniformGrid(Euclidean(1), -5.0, 5.0, 64)
        return BoxWindow((-0.7,), (1.3,)), grid, rng.uniform(-6.0, 6.0, (9, 1))
    if name == "box-R2":
        grid = UniformGrid(Euclidean(2), -3.0, 3.0, (40, 30))
        return BoxWindow((-0.5, -1.0), (0.75, 0.25)), grid, rng.uniform(-3.5, 3.5, (9, 2))
    if name == "box-Z2":
        grid = LatticeGrid(IntegerLattice(2), -6, 6)
        return BoxWindow((-1.0, -2.0), (2.0, 1.0)), grid, rng.integers(-7, 8, (9, 2)) * 1.0
    if name == "moved-box":
        grid = UniformGrid(Euclidean(2), -3.0, 3.0, 30)
        window = BoxWindow.centered(0.5, 2).right_cover((0.4, -0.6))
        return window, grid, rng.uniform(-3.5, 3.5, (9, 2))
    n = 2 if name.endswith("n2") else 1
    if n == 1:
        grid = AxbGrid(AxbGroup(1), -4.0, 4.0, 64, 0.25, 4.0, 40)
    else:
        grid = AxbGrid(AxbGroup(2), -3.0, 3.0, 12, 0.5, 2.0, 6)
    window = AxbWindow(1.0, 2.0)
    if name.startswith("axb-cover"):
        window = window.right_cover([0.7] * n + [1.3])
    points = np.column_stack([rng.uniform(-4.5, 4.5, (9, n)),
                              np.exp(rng.uniform(-2.0, 2.0, 9))])
    return window, grid, points


FACTOR_CASES = ["box-R", "box-R2", "box-Z2", "moved-box", "axb-n1", "axb-n2",
                "axb-cover-n1", "axb-cover-n2"]


@pytest.mark.parametrize("name", FACTOR_CASES)
def test_batched_factors_equal_stacked_single_factors(name, rng):
    window, grid, points = _factor_case(name, rng)
    methods = [window.axis_masks]
    if not isinstance(window, AxbCoverWindow):
        methods.append(window.axis_hats)
    for method in methods:
        batched = method(points, grid.axes)
        singles = [method(x, grid.axes) for x in points]
        assert len(batched) == len(singles[0])
        for k, factor in enumerate(batched):
            assert all(single[k].ndim == 1 for single in singles)
            stacked = np.stack([single[k] for single in singles])
            assert factor.shape == stacked.shape == (len(points), stacked.shape[1])
            assert factor.dtype == stacked.dtype
            assert np.array_equal(factor, stacked)
        # a stack of one is the single base with a leading axis
        one = method(points[:1], grid.axes)
        assert all(np.array_equal(f[0], s) for f, s in zip(one, singles[0]))


def test_local_norms_match_per_member_sums_on_uneven_weights(axb_grid, rng):
    """On the 80x48 ax+b grid the weights are not powers of two, so weighting
    |F| before the gather may move an l1 norm by a few ulp, never more;
    linf has no weights and stays exact."""
    weights = axb_grid.weights.ravel()
    assert np.any(np.frexp(weights)[0] != 0.5)
    X = build_axb_lattice(0.5, 2.0, j_range=(-3, 3), x_extent=6.0, grid=axb_grid)
    bupu = build_bupu(X, AxbWindow(1.0, 2.0), grid=axb_grid)
    F = SampledFunction(axb_grid, rng.standard_normal(axb_grid.shape)
                        + 1j * rng.standard_normal(axb_grid.shape))
    absF = np.abs(F.values).ravel()
    members = list(zip(bupu.member_indices, bupu.member_values))
    l1 = np.array([math.fsum(absF[idx] * v * weights[idx]) for idx, v in members])
    linf = np.array([(absF[idx] * v).max(initial=0.0) for idx, v in members])
    got = local_norms_bupu(F, bupu, "l1")
    assert np.all(l1 > 0)
    assert np.max(np.abs(got - l1) / l1) <= 1e-14
    assert np.array_equal(local_norms_bupu(F, bupu, "linf"), linf)


def _atoms_case(name):
    """A BUPU and atoms on it, one outside the grid window and one complex."""
    if name == "R2":
        grid = UniformGrid(Euclidean(2), -3.0, 3.0, (40, 30))
        bupu = build_bupu(euclidean_lattice(grid, 1.0), BoxWindow.centered(1.0, 2),
                          grid=grid)
        return bupu, [((0.13, -0.71), 2.0), ((-2.9, 2.95), -0.5),
                      ((1.0, 1.0), 0.25 - 1.5j), ((4.0, 0.2), 3.0)]
    grid = AxbGrid(AxbGroup(1), -6.0, 6.0, 80, 0.125, 8.0, 48)
    X = build_axb_lattice(0.5, 2.0, j_range=(-3, 3), x_extent=6.0, grid=grid)
    bupu = build_bupu(X, AxbWindow(1.0, 2.0), grid=grid)
    return bupu, [((0.37, 1.3), 1.0), ((-5.1, 0.2), 2.0 + 2.0j),
                  ((2.0, 5.5), -0.75), ((0.0, 20.0), 4.0)]


@pytest.mark.parametrize("name", ["R2", "axb"])
def test_members_at_atoms_match_per_member_interpolation(name):
    """A measure's atoms are read from every member in one gather, as each
    member's own multilinear interpolation at the atoms."""
    bupu, atoms = _atoms_case(name)
    mu = DiscreteMeasure(bupu.grid.group, atoms, grid=bupu.grid)
    zs = np.array([z for z, _ in atoms], dtype=float)
    masses = np.abs([m for _, m in atoms])
    want = np.array([masses @ dense_member(bupu, i).eval_at(zs)
                     for i in range(len(bupu))])
    got = local_norms_bupu(mu, bupu, "m")
    assert want.max() > 0
    assert np.max(np.abs(got - want)) <= 1e-14 * want.max()


@pytest.fixture(scope="module")
def plane_bupu():
    """The hat BUPU of the plane's unit lattice on a 256^2 grid."""
    grid = UniformGrid(Euclidean(2), -8.0, 8.0, 256)
    X = euclidean_lattice(grid, 1.0)
    return X, BoxWindow.centered(1.0, 2), grid


def _peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("local", ["l1", "linf"])
def test_local_norm_holds_one_entries_sized_array(plane_bupu, local):
    X, window, grid = plane_bupu
    bupu = build_bupu(X, window, grid=grid)
    F = SampledFunction.sample(grid, lambda x, y: np.exp(-x * x - (y - 0.5) ** 2))
    local_norms_bupu(F, bupu, local)  # builds the grid's weights and row counts
    entries = bupu.operator.indices.size
    assert _peak(lambda: local_norms_bupu(F, bupu, local)) < 1.5 * entries * 8


def test_bupu_build_holds_its_operator_and_one_block(plane_bupu):
    """Beyond its own arrays, a hat BUPU build holds the pointwise sum it
    divides by and one block of ``_OWNER_BLOCK`` floats."""
    X, window, grid = plane_bupu
    holder = {}
    peak = _peak(lambda: holder.update(bupu=build_bupu(X, window, grid=grid)))
    op = holder["bupu"].operator
    own = op.indptr.nbytes + op.indices.nbytes + op.values.nbytes
    assert peak <= own + grid.size * 8 + _OWNER_BLOCK * 8 + (32 << 10)


def _reference_control(F, window, local):
    """The fold that runs every slide of every part, parts in stencil order."""
    grid = F.grid
    x_volume, scale_weights = grid.weight_factors
    linf = local == "linf"
    slide = amalgam._sliding_max if linf else amalgam._sliding_sum
    out = np.abs(F.values) if linf else np.abs(F.values) * scale_weights
    for stage in window.stencil(grid):
        folded = None
        for part in stage:
            piece = out
            for axis, lo, hi in part:
                piece = slide(piece, axis, lo, hi)
            folded = piece if folded is None else (
                np.maximum(folded, piece) if linf else folded + piece)
        out = folded
    return out if linf else out * x_volume


@pytest.mark.parametrize("n, shape", [(1, (40, 24)), (2, (20, 20, 12)),
                                      (3, (10, 10, 10, 8))])
@pytest.mark.parametrize("local", ["linf", "l1", "m"])
def test_shared_row_slides_keep_the_control_function(n, shape, local, rng):
    grid = AxbGrid(AxbGroup(n), -6.0, 6.0, shape[0], 0.125, 8.0, shape[-1])
    F = SampledFunction(grid, rng.standard_normal(grid.shape))
    for window in (AxbWindow(1.0, 2.0),
                   AxbWindow(1.0, 2.0).right_cover([0.7] * n + [1.3])):
        expected = _reference_control(F, window, "linf" if local == "linf" else "l1")
        assert np.array_equal(control_function(F, window, local).values, expected)


@pytest.mark.parametrize("window, grid", [
    pytest.param(BoxWindow.centered(0.5, 1), UniformGrid(Euclidean(1), -4.0, 4.0, 64),
                 id="R"),
    pytest.param(BoxWindow((-0.5, -1.0), (0.75, 0.25)),
                 UniformGrid(Euclidean(2), -3.0, 3.0, (40, 30)), id="R2"),
    pytest.param(BoxWindow((-1.0, -2.0), (2.0, 1.0)),
                 LatticeGrid(IntegerLattice(2), -6, 6), id="Z2"),
])
@pytest.mark.parametrize("local", ["linf", "l1"])
def test_box_control_functions_unchanged(window, grid, local, rng):
    F = SampledFunction(grid, rng.standard_normal(grid.shape))
    assert np.array_equal(control_function(F, window, local).values,
                          _reference_control(F, window, local))


def test_mirrored_parts_run_one_row_slide(monkeypatch, rng):
    """At n = 2 the parts for o and -o end in the same row slide, and a
    linf control function runs each distinct row slide once."""
    grid = AxbGrid(AxbGroup(2), -6.0, 6.0, 24, 0.125, 8.0, 12)
    window = AxbWindow(1.0, 2.0)
    scale, rows = window.stencil(grid)
    by_offset = {part[0][1]: part[-1] for part in rows}
    assert set(by_offset) == {-o for o in by_offset}
    assert all(by_offset[o] is by_offset[-o] for o in by_offset)
    distinct = len({id(part[-1]) for part in rows})
    assert distinct < len(rows)
    calls = []
    kernel = amalgam._sliding_max

    def counting(*args):
        calls.append(args[1])
        return kernel(*args)

    monkeypatch.setattr(amalgam, "_sliding_max", counting)
    control_function(SampledFunction(grid, rng.standard_normal(grid.shape)), window)
    # the scale slide, one row slide per distinct row, one shift per part
    assert len(calls) == 1 + distinct + len(rows)
    assert calls.count(1) == distinct
