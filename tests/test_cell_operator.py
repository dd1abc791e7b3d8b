"""The sparse membership operator against per-point references.

Every row of ``WellSpreadSet.cell_masks`` must equal the flat indices of
``window.contains`` over all grid points, and the layer built on it (the
atom partition, step functions, BUPUs, local and discrete norms, the
estimator) must agree with per-point loops.
"""

import numpy as np
import pytest

from wamalgam import (
    AmalgamSpace,
    AxbGrid,
    AxbGroup,
    AxbWindow,
    BoxWindow,
    DiscreteMeasure,
    DiscreteSequence,
    Euclidean,
    IntegerLattice,
    LatticeGrid,
    MixedLpq,
    SampledFunction,
    UniformGrid,
    WeightedLp,
    WellSpreadSet,
    build_axb_lattice,
    build_bupu,
    check_relatively_separated,
    discrete_amalgam_norm,
    estimate_translation_operator_norm,
    euclidean_lattice,
    quasi_norm,
    sequence_norm,
    sequence_norms,
    shifted_power_weight,
    verify_bupu,
)
from wamalgam import components
from wamalgam.amalgam import local_norms_bupu, local_norms_indicator
from wamalgam.components import OVERFLOW, assemble_step_function
from wamalgam.discretization import _OWNER_BLOCK, Bupu, CellOperator
from wamalgam.errors import (
    DimensionMismatchError,
    InvalidElementError,
    NonFiniteSampleError,
)

from oracles import per_vector_operator_norm


def reference_rows(X, window, grid):
    pts = grid.points()
    return [np.flatnonzero(window.contains(x, pts)) for x in X.points]


def reference_hat(point, window, pts):
    """The hat supported in ``point . window``, evaluated at every point."""
    if isinstance(window, BoxWindow):
        lo, hi = np.asarray(window.lo), np.asarray(window.hi)
        t = (pts - (point + (lo + hi) / 2.0)) / ((hi - lo) / 2.0)
        return np.prod(np.maximum(0.0, 1.0 - np.abs(t)), axis=-1)
    dx = np.linalg.norm(pts[:, :-1] - point[:-1], axis=-1)
    du = np.log(pts[:, -1]) - np.log(point[-1])
    return (np.maximum(0.0, 1.0 - np.abs(dx / (window.radius * point[-1])))
            * np.maximum(0.0, 1.0 - np.abs(du / np.log(window.beta))))


def reference_step(rows, coefficients, grid):
    out = np.zeros(grid.size)
    for c, idx in zip(np.abs(coefficients), rows):
        out[idx] += c
    return SampledFunction(grid, out.reshape(grid.shape))


def _case(name, rng):
    E1, E2 = Euclidean(1), Euclidean(2)
    # R and R2-right also place cell faces on grid points in exact
    # arithmetic; R puts the faces widened by _TOL on grid points as well,
    # so rounding decides those points
    if name == "R":
        grid = UniformGrid(E1, -5.0, 5.0, 200)  # midpoints -4.975 + 0.05 k
        window = BoxWindow((-0.7,), (1.3,))
        lo, hi = (b[0] for b in window._bounds())
        ax = grid.axes[0]
        pts = np.concatenate([rng.uniform(-6.0, 6.0, 25),
                              0.025 + 0.05 * np.arange(-60, 61, 7),
                              ax[::9] - lo, ax[::9] - hi])
        return WellSpreadSet(pts[:, None], grid=grid), window, grid
    if name == "R2":
        grid = UniformGrid(E2, -3.0, 3.0, (40, 30))
        X = WellSpreadSet(rng.uniform(-3.5, 3.5, (20, 2)), grid=grid)
        return X, BoxWindow((-0.5, -1.0), (0.75, 0.25)), grid
    if name == "R2-right":
        grid = UniformGrid(E2, -3.0, 3.0, 30)  # midpoints -2.9 + 0.2 k
        X = euclidean_lattice(grid, 1.0)
        return X, BoxWindow.centered(0.5, 2).right_cover((0.4, -0.6)), grid
    if name == "Z":
        # integer offsets put grid points exactly on both box faces
        grid = LatticeGrid(IntegerLattice(1), -10, 10)
        X = WellSpreadSet(np.arange(-12.0, 13.0, 3.0)[:, None], grid=grid)
        return X, BoxWindow((-2.0,), (3.0,)), grid
    if name == "Z2-right":
        grid = LatticeGrid(IntegerLattice(2), -6, 6)
        X = WellSpreadSet(np.array([[0.0, 0.0], [-5.0, 3.0], [6.0, 6.0]]), grid=grid)
        return X, BoxWindow((-1.0, -2.0), (2.0, 1.0)).right_cover((1.0, -2.0)), grid
    if name in ("axb", "axb-cover"):
        grid = AxbGrid(AxbGroup(1), -4.0, 4.0, 64, 0.25, 4.0, 40)
        lattice = build_axb_lattice(0.5, 2.0, j_range=(-2, 2), x_extent=4.0)
        window = AxbWindow(1.0, 2.0)
        radius = window.radius
        if name == "axb-cover":
            window = window.right_cover([0.7, 1.3])
            radius = window.radius_mult
        # bases whose ball has a grid point on its rim in exact arithmetic
        a = grid.axes[1]
        rim = np.column_stack([grid.axes[0][3] + radius * a, a])
        X = WellSpreadSet(np.concatenate([lattice.points, rim]), grid=grid)
        return X, window, grid
    grid = AxbGrid(AxbGroup(2), -3.0, 3.0, 12, 0.5, 2.0, 6)
    X = build_axb_lattice(1.0, 2.0, k_range=(-2, 2), j_range=(0, 1), grid=grid, n=2)
    window = AxbWindow(1.0, 2.0)
    if name == "axb-cover-n2":
        window = window.right_cover([0.5, -0.4, 1.3])
    return X, window, grid


CASES = ["R", "R2", "R2-right", "Z", "Z2-right", "axb", "axb-cover", "axb-n2",
         "axb-cover-n2"]


@pytest.mark.parametrize("name", CASES)
def test_rows_equal_contains(name, rng):
    X, window, grid = _case(name, rng)
    op = X.cell_masks(window, grid)
    ref = reference_rows(X, window, grid)
    assert len(op) == len(ref) == len(X)
    for row, expected in zip(op, ref):
        assert np.array_equal(row, expected)
    assert sum(r.size for r in ref) > 0
    # every window factorizes: its factors tile the grid
    factors = window.axis_masks(X.points[0], grid.axes)
    assert np.prod([len(f) for f in factors]) == grid.size


def test_right_translate_checks_the_dimension():
    with pytest.raises(DimensionMismatchError):
        BoxWindow.centered(0.5, 2).right_cover((0.4, -0.6, 1.0))


@pytest.mark.parametrize("grid, spacing, radius, g", [
    pytest.param(UniformGrid(Euclidean(2), -4.0, 4.0, 32), 1.0, 1.0, (0.4, -0.6),
                 id="R2"),
    pytest.param(LatticeGrid(IntegerLattice(2), -6, 6), 2.0, 2.0, (1.0, -1.0),
                 id="Z2"),
])
def test_moved_box_works_wherever_a_box_does(grid, spacing, radius, g):
    """A right translate where the group adds is the moved box: its overlap
    count is the unmoved box's, and its hats form a BUPU."""
    X = euclidean_lattice(grid, spacing)
    box = BoxWindow.centered(radius, 2)
    moved = box.right_cover(g)
    assert check_relatively_separated(X, moved) == check_relatively_separated(X, box)
    assert verify_bupu(build_bupu(X, moved, grid=grid))["passed"]
    assert moved == BoxWindow(tuple(np.add(box.lo, g)), tuple(np.add(box.hi, g)))


def test_lattice_rows_include_both_faces():
    grid = LatticeGrid(IntegerLattice(1), -10, 10)
    X = WellSpreadSet(np.array([[0.0]]), grid=grid)
    row = X.cell_masks(BoxWindow((-2.0,), (3.0,)), grid)[0]
    assert np.array_equal(grid.axes[0][row], np.arange(-2.0, 4.0))


def _line_grid(lo=-4.0):
    return UniformGrid(Euclidean(1), lo, 4.0, 64)


def _axb_grid(lo=-4.0):
    return AxbGrid(AxbGroup(1), lo, 4.0, 32, 0.25, 4.0, 16)


@pytest.mark.parametrize("points, window, other, grid", [
    ([[0.0], [1.5]], lambda: BoxWindow.centered(0.5, 1), BoxWindow.centered(0.75, 1),
     _line_grid),
    ([[0.0, 1.0], [1.0, 0.5]], lambda: AxbWindow(0.5, 1.5), AxbWindow(0.5, 2.0),
     _axb_grid),
    ([[0.0, 1.0], [1.0, 0.5]], lambda: AxbWindow(0.5, 1.5).right_cover([1.0, 2.0]),
     AxbWindow(0.5, 1.5).right_cover([1.0, 3.0]), _axb_grid),
], ids=["box", "axb", "axb-cover"])
def test_cell_masks_cached_by_window_and_grid_value(points, window, other, grid):
    """A window or a grid built twice finds the operator built for the
    first; a different window or grid gets its own."""
    X = WellSpreadSet(np.array(points))
    op = X.cell_masks(window(), grid())
    assert X.cell_masks(window(), grid()) is op
    assert X.cell_masks(other, grid()) is not op
    assert X.cell_masks(window(), grid(lo=-2.0)) is not op


@pytest.mark.parametrize("name", ["R2", "Z", "axb-n2"])
def test_step_function_bit_identical_to_row_loop(name, rng):
    X, window, grid = _case(name, rng)
    coefficients = rng.standard_normal(len(X)) * (rng.uniform(size=len(X)) > 0.3)
    got = assemble_step_function(X, window, coefficients, grid)
    ref = reference_step(reference_rows(X, window, grid), coefficients, grid)
    assert np.array_equal(got.values, ref.values)


@pytest.mark.parametrize("name", CASES)
def test_atoms_group_points_by_covering_rows(name, rng):
    X, window, grid = _case(name, rng)
    op = X.cell_masks(window, grid)
    atoms = op.atoms
    cover = np.zeros((grid.size, len(X)), dtype=bool)
    for i, row in enumerate(reference_rows(X, window, grid)):
        cover[row, i] = True
    _, ref = np.unique(cover, axis=0, return_inverse=True)
    # same atom exactly when same covering rows: the labels are a bijection
    pairs = np.unique(np.column_stack([atoms.labels, ref.ravel()]), axis=0)
    assert len(pairs) == atoms.count == ref.max() + 1
    assert np.array_equal(np.unique(atoms.labels), np.arange(atoms.count))
    sizes = np.bincount(atoms.labels, minlength=atoms.count)
    for i, row in enumerate(op):
        listed = atoms.indices[atoms.indptr[i]:atoms.indptr[i + 1]]
        assert np.array_equal(np.sort(listed), np.unique(atoms.labels[row]))
        assert sizes[listed].sum() == row.size  # each listed atom lies inside the row


def _vectors(n, rng):
    sparse = np.zeros(n)
    sparse[rng.choice(n, max(1, n // 5), replace=False)] = rng.uniform(0.1, 3.0, max(1, n // 5))
    return [np.eye(n)[n // 2], np.eye(n)[-1], sparse,
            rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3, n), np.zeros(n)]


@pytest.mark.parametrize("name", CASES)
def test_sequence_norm_on_atoms_matches_the_grid(name, rng):
    X, window, grid = _case(name, rng)
    rows = reference_rows(X, window, grid)
    for lam in _vectors(len(X), rng):
        step = reference_step(rows, lam, grid)
        assert np.array_equal(assemble_step_function(X, window, lam, grid).values,
                              step.values)
        for weight in (None, shifted_power_weight(1.0)):
            for p in (0.5, 1.0, 2.0, np.inf):
                Y = WeightedLp(p, weight)
                got = sequence_norm(DiscreteSequence(lam, X, Y, window), grid)
                ref = quasi_norm(Y, step)
                if p == np.inf:
                    assert got == ref
                else:
                    assert abs(got - ref) <= 1e-12 * ref
        if isinstance(grid, AxbGrid):
            for Y in (MixedLpq(1.0, 1.0, None, n=grid.group.n),
                      MixedLpq(0.5, 2.0, shifted_power_weight(1.0), n=grid.group.n)):
                got = sequence_norm(DiscreteSequence(lam, X, Y, window), grid)
                assert np.array_equal(got, quasi_norm(Y, step))


@pytest.mark.parametrize("name", CASES)
def test_sequence_norm_on_atoms_keeps_nan_and_overflow(name, rng):
    X, window, grid = _case(name, rng)
    i = int(np.flatnonzero(X.cell_masks(window, grid).counts)[0])
    for p in (1.0, np.inf):
        Y = WeightedLp(p, shifted_power_weight(1.0))
        lam = np.ones(len(X))
        lam[i] = np.nan
        with pytest.raises(NonFiniteSampleError):
            sequence_norm(DiscreteSequence(lam, X, Y, window), grid)
        lam[i] = np.inf
        assert sequence_norm(DiscreteSequence(lam, X, Y, window), grid) is OVERFLOW
        stack = np.stack([np.ones(len(X)), lam])
        finite, overflow = sequence_norms(stack, X, Y, window, grid)
        assert finite > 0 and overflow is OVERFLOW
        stack[1, i] = np.nan
        with pytest.raises(NonFiniteSampleError):
            sequence_norms(stack, X, Y, window, grid)


@pytest.mark.parametrize("name", ["R2", "R2-many-atoms", "axb"])
def test_sequence_norms_of_a_stack_equal_the_norms_of_its_rows(name, rng):
    """The stacked route is bit-identical to one ``sequence_norm`` per row,
    on a stack that spans more than one block of ``AtomPartition.sums``;
    on a cover of more than 128 atoms numpy's pairwise sums split a row."""
    if name == "R2-many-atoms":
        grid = UniformGrid(Euclidean(2), -4.0, 4.0, 64)
        X, window = euclidean_lattice(grid, 1.0), BoxWindow.centered(0.75, 2)
        assert X.cell_masks(window, grid).atoms.count > 128
    else:
        X, window, grid = _case(name, rng)
    entries = len(X.cell_masks(window, grid).atoms.indices)
    count = _OWNER_BLOCK // entries + 3
    rows = _vectors(len(X), rng)
    draws = count - len(rows)
    lams = np.concatenate([rows, rng.standard_normal((draws, len(X)))
                           * 10.0 ** rng.uniform(-3, 3, (draws, len(X)))])
    assert count * entries > _OWNER_BLOCK
    spaces = [WeightedLp(p, weight) for weight in (None, shifted_power_weight(1.0))
              for p in (0.5, 1.0, 2.0, np.inf)]
    if isinstance(grid, AxbGrid):
        spaces += [MixedLpq(1.0, 1.0, None, n=1),
                   MixedLpq(0.5, 2.0, shifted_power_weight(1.0), n=1)]
    for Y in spaces:
        got = sequence_norms(lams, X, Y, window, grid)
        assert got == [sequence_norm(DiscreteSequence(lam, X, Y, window), grid)
                       for lam in lams]


def test_sequence_norm_stays_off_the_grid(monkeypatch, rng):
    """After the first call has built the atoms and their measure, a
    weighted L^p sequence norm neither assembles the step function nor
    takes a grid quasi-norm."""
    X, window, grid = _case("R2", rng)
    Y = WeightedLp(2.0, shifted_power_weight(1.0))
    lam = rng.uniform(size=len(X))
    seq = DiscreteSequence(lam, X, Y, window)
    expected = sequence_norm(seq, grid)

    def forbidden(*args, **kwargs):
        raise AssertionError("sequence_norm fell back to the grid")

    monkeypatch.setattr(components, "assemble_step_function", forbidden)
    monkeypatch.setattr(components, "quasi_norm", forbidden)
    assert sequence_norm(seq, grid) == expected
    assert sequence_norm(DiscreteSequence(2 * lam, X, Y, window), grid) > expected


@pytest.mark.parametrize("window, n", [
    pytest.param(BoxWindow.centered(1.0, 2), 2, id="window0"),
    pytest.param(BoxWindow((-1.0, -0.75), (1.25, 1.0)), 2, id="window1"),
    pytest.param(AxbWindow(1.0, 2.0), 1, id="axb-n1"),
    pytest.param(AxbWindow(1.0, 2.0), 2, id="axb-n2"),
])
def test_box_hat_members_equal_per_point_hats(window, n):
    if isinstance(window, BoxWindow):
        grid = UniformGrid(Euclidean(n), -4.0, 4.0, 32)
        X = euclidean_lattice(grid, 1.0)
    else:
        grid = AxbGrid(AxbGroup(n), -3.0, 3.0, 48 // n ** 2, 0.25, 4.0, 24 // n)
        X = build_axb_lattice(0.5, 2.0, j_range=(-1, 1), x_extent=3.0, grid=grid, n=n)
    bupu = build_bupu(X, window, grid=grid)
    pts = grid.points()
    raw = [reference_hat(x, window, pts) for x in X.points]
    total = np.zeros(grid.size)
    for vals in raw:
        idx = np.flatnonzero(vals > 0)
        total[idx] += vals[idx]
    for i, vals in enumerate(raw):
        idx = np.flatnonzero(vals > 0)
        assert np.array_equal(bupu.member_indices[i], idx)
        assert np.array_equal(bupu.member_values[i], vals[idx] / total[idx])


def _relative(a, b):
    return abs(a - b) / abs(b)


def test_discrete_norms_and_estimator_match_per_point_reference(rng):
    grid = UniformGrid(Euclidean(2), -4.0, 4.0, 32)
    X = euclidean_lattice(grid, 1.0)
    size_window = BoxWindow.centered(1.0, 2)
    bupu = build_bupu(X, size_window, grid=grid)
    F = SampledFunction.sample(
        grid, lambda x, y: np.exp(-((x - 0.4) ** 2 + 2 * (y + 0.9) ** 2)))
    absF, w = np.abs(F.values).ravel(), grid.weights.ravel()
    cells = reference_rows(X, size_window, grid)
    for local in ("linf", "l1"):
        for p in (0.5, 2.0):
            Y = WeightedLp(p)
            for variant, rows, vals in (
                    ("bupu", bupu.member_indices, bupu.member_values),
                    ("indicator", cells, [np.ones(r.size) for r in cells])):
                coeffs = [(absF[idx] * v).max() if local == "linf"
                          else np.sum(absF[idx] * v * w[idx])
                          for idx, v in zip(rows, vals)]
                ref = quasi_norm(Y, reference_step(cells, coeffs, grid))
                got = discrete_amalgam_norm(F, bupu, local, Y, variant=variant)
                assert _relative(got, ref) <= 1e-12

    space = AmalgamSpace("linf", WeightedLp(1.0, shifted_power_weight(1.0)),
                         size_window)
    # moved cells reach grid index 1 on the x axis and N - 2 on the y axis
    g = np.array([-0.75, 0.75])
    bound = estimate_translation_operator_norm(space, g, "right", grid=grid,
                                               well_spread=X, coeff_count=8)
    moved = reference_rows(X, size_window.right_cover(g), grid)
    shape = np.array(grid.shape)

    def unclipped(idx):
        ij = np.stack(np.unravel_index(idx, grid.shape), axis=-1)
        return idx.size > 0 and np.all(ij >= 1) and np.all(ij <= shape - 2)

    ok = np.array([unclipped(a) and unclipped(b) for a, b in zip(cells, moved)])
    assert 0 < ok.sum() < len(X)
    Y = WeightedLp(1.0, shifted_power_weight(1.0))
    draws = np.random.default_rng(0)
    vectors = [np.abs(draws.standard_normal(len(X))) * ok for _ in range(8)]
    vectors += list(np.eye(len(X))[ok])
    ratio = max(quasi_norm(Y, reference_step(moved, lam, grid))
                / quasi_norm(Y, reference_step(cells, lam, grid)) for lam in vectors)
    assert _relative(bound.sequence_ratio, ratio) <= 1e-12
    assert _relative(bound.upper, ratio) <= 1e-12


@pytest.mark.parametrize("direction", ["right", "left", "measure"])
def test_estimator_equals_the_per_vector_loop(direction):
    """Two stacked ``sequence_norms`` calls give the record of one pair of
    ``sequence_norm`` calls per coefficient vector, bit for bit."""
    grid = UniformGrid(Euclidean(2), -4.0, 4.0, 32)
    X = euclidean_lattice(grid, 1.0)
    family = [SampledFunction.sample(grid, lambda x, y: np.exp(-(x - 0.5)**2 - y**2))]
    g = [0.75, -0.5]
    for p in (0.5, 2.0):
        space = AmalgamSpace("linf", WeightedLp(p, shifted_power_weight(1.0)),
                             BoxWindow.centered(1.0, 2))
        got = estimate_translation_operator_norm(
            space, g, direction, grid=grid, test_family=family, well_spread=X,
            bracket_constant=1.25)
        assert got.cells_scanned > 0
        assert got.as_record() == per_vector_operator_norm(
            space, g, direction, grid, family, X, 1.25).as_record()


def test_estimator_equals_the_per_vector_loop_on_mixed_norms():
    grid = AxbGrid(AxbGroup(1), -4.0, 4.0, 64, 0.25, 4.0, 40)
    X = build_axb_lattice(0.5, 2.0, j_range=(-1, 1), x_extent=4.0, grid=grid)
    space = AmalgamSpace("linf", MixedLpq(1.0, 2.0, shifted_power_weight(1.0), n=1),
                         AxbWindow(0.5, 1.5))
    got = estimate_translation_operator_norm(space, [0.5, 1.3], "right", grid=grid,
                                             well_spread=X, bracket_constant=1.25)
    assert got.cells_scanned > 0
    assert got.as_record() == per_vector_operator_norm(
        space, [0.5, 1.3], "right", grid, (), X, 1.25).as_record()


def test_measure_local_norms_by_hand():
    E = Euclidean(1)
    grid = UniformGrid(E, -4.0, 4.0, 64)  # step 1/8, midpoints at +-1/16, ...
    X = euclidean_lattice(grid, 1.0)
    # each grid point belongs to its nearest integer: 8 points per inner
    # member, 4 for the members at +-4
    owner = np.argmin(np.abs(grid.points() - X.points.T), axis=1)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(owner, minlength=len(X)))])
    bupu = Bupu(X, BoxWindow.centered(0.75, 1), grid,
                CellOperator(indptr, np.argsort(owner, kind="stable"), grid.size,
                             np.ones(grid.size)))
    density = SampledFunction(grid, np.full(grid.shape, 2.0))
    # 0.1 lies between two points of member 0; 0.5 halfway between members 0, 1
    mu = DiscreteMeasure(E, [(np.array([0.1]), 3.0), (np.array([0.5]), -1j)],
                         density=density)
    expected = np.full(len(X), 2.0 * 0.125 * 8)
    expected[[0, -1]] = 2.0 * 0.125 * 4
    zero = int(np.flatnonzero(X.points[:, 0] == 0.0)[0])
    expected[zero] += 3.0 + 0.5
    expected[zero + 1] += 0.5
    np.testing.assert_allclose(local_norms_bupu(mu, bupu, "m"), expected,
                               rtol=1e-15)
    other = DiscreteMeasure(E, [], density=SampledFunction(
        UniformGrid(E, -2.0, 2.0, 64), np.ones(64)))
    with pytest.raises(DimensionMismatchError):
        local_norms_bupu(other, bupu, "m")


def test_indicator_local_norms_of_a_measure():
    """The indicator variant gives ``|mu|(x_i . window)``: an atom counts in
    every cell that holds it, and a density adds its l1 norm per cell."""
    E = Euclidean(1)
    grid = UniformGrid(E, -4.0, 4.0, 64)
    X = euclidean_lattice(grid, 1.0)
    window = BoxWindow.centered(1.0, 1)  # cells [i - 1, i + 1]
    mu = DiscreteMeasure(E, [(np.array([0.3]), 2.0)], grid=grid)
    expected = np.where(np.isin(X.points[:, 0], [0.0, 1.0]), 2.0, 0.0)
    assert np.array_equal(local_norms_indicator(mu, X, window, "m"), expected)
    bupu = build_bupu(X, window, grid=grid)
    Y = WeightedLp(1.0)
    got = discrete_amalgam_norm(mu, bupu, "m", Y, variant="indicator")
    assert got == sequence_norm(DiscreteSequence(expected, X, Y, window), grid)
    density = SampledFunction(grid, np.full(grid.shape, 2.0))
    with_density = DiscreteMeasure(E, mu.atoms, density=density)
    assert np.array_equal(local_norms_indicator(with_density, X, window, "m"),
                          expected + local_norms_indicator(density, X, window, "l1"))
    for local in ("l1", "linf"):
        with pytest.raises(InvalidElementError, match="M local component"):
            discrete_amalgam_norm(mu, bupu, local, Y, variant="indicator")


def test_integer_samples_on_the_lattice():
    grid = LatticeGrid(IntegerLattice(1), -8, 8)
    X = WellSpreadSet(np.arange(-8.0, 9.0, 4.0)[:, None], grid=grid)
    bupu = build_bupu(X, BoxWindow.centered(4.0, 1), grid=grid)
    F = SampledFunction(grid, np.arange(-8, 9))
    for variant in ("bupu", "indicator"):
        for local in ("linf", "l1"):
            got = discrete_amalgam_norm(F, bupu, local, WeightedLp(1.0),
                                        variant=variant)
            assert np.isfinite(got) and got > 0
