"""Control functions, amalgam norms, discrete equivalence, translations."""

import math
import warnings

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
    MixedLpq,
    SampledFunction,
    UniformGrid,
    WeightedLp,
    WellSpreadSet,
    amalgam_norm,
    build_bupu,
    calibrate_equivalence_bracket,
    check_submultiplicative,
    control_function,
    discrete_amalgam_norm,
    estimate_translation_operator_norm,
    euclidean_lattice,
    generator,
    involution,
    is_overflow,
    quasi_norm,
    sequence_norm,
    shifted_power_weight,
    translate,
)
from wamalgam.amalgam import local_norms_indicator, normalize_local
from wamalgam.components import OVERFLOW_GUARD
from wamalgam.families import gaussian_bump_sum, piecewise_constant

from oracles import cover_by_translates, integer_lattice_set, window_haar_measure


# ---------------------------------------------------------------------------
# Control function oracles


def test_control_singleton_window_is_abs(z_grid, rng):
    F = SampledFunction(z_grid, rng.standard_normal(z_grid.shape))
    for local in ("linf", "l1", "m"):
        K = control_function(F, BoxWindow.origin(1), local)
        assert np.allclose(K.values, np.abs(F.values), rtol=1e-14)


def test_control_interval_overlap(fine_line_grid):
    F = SampledFunction.sample(
        fine_line_grid, lambda x: ((x >= -0.5) & (x <= 0.5)).astype(float))
    K = control_function(F, BoxWindow.centered(0.5, 1), "linf")
    xs = fine_line_grid.axes[0]
    assert K.values[np.argmin(np.abs(xs - 0.9))] == 1.0
    assert K.values[np.argmin(np.abs(xs - 1.1))] == 0.0
    assert K.values[np.argmin(np.abs(xs + 0.9))] == 1.0


def test_control_gaussian_against_masked_sup_oracle(fine_line_grid, rng):
    """Sliding-stencil sup equals an independent mask-and-max oracle."""
    F = SampledFunction.sample(fine_line_grid, lambda x: np.exp(-x**2))
    window = BoxWindow.centered(0.5, 1)
    K = control_function(F, window, "linf")
    xs = fine_line_grid.axes[0]
    for x0 in rng.uniform(-3, 3, 20):
        i = int(np.argmin(np.abs(xs - x0)))
        mask = np.abs(xs - xs[i]) <= 0.5 + 1e-9
        oracle = np.abs(F.values[mask]).max()
        assert K.values[i] == pytest.approx(oracle, rel=1e-6)


def test_control_l1_bruteforce_oracle(euclid, rng):
    grid = UniformGrid(euclid, -4, 4, 700)
    spec = piecewise_constant(rng)
    F = spec.sample(grid)
    window = BoxWindow.centered(0.25, 1)
    K = control_function(F, window, "l1")
    xs = grid.axes[0]
    w = grid.weights
    for i in rng.integers(0, len(xs), 25):
        mask = np.abs(xs - xs[i]) <= 0.25 + 1e-9
        oracle = float(np.sum(np.abs(F.values[mask]) * w[mask]))
        assert K.values[i] == pytest.approx(oracle, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("n", [1, 2])
def test_control_axb_against_generic_mask(n):
    """The affine window's stencil agrees with per-point membership on a
    small grid, at n = 1 and n = 2."""
    axb = AxbGroup(n)
    grid = AxbGrid(axb, -2, 2, 24 // n, 0.25, 4.0, 16 // n)
    rng = generator(3)
    F = SampledFunction(grid, np.abs(rng.standard_normal(grid.shape)))
    window = AxbWindow(0.5, 1.5)
    pts = grid.points()
    flat = np.abs(F.values).ravel()
    wflat = grid.weights.ravel()
    for local in ("linf", "l1"):
        K = control_function(F, window, local)
        oracle = np.empty(len(pts))
        for i, x in enumerate(pts):
            mask = window.contains(x, pts)
            if local == "linf":
                oracle[i] = flat[mask].max(initial=0.0)
            else:
                oracle[i] = float(np.sum(flat[mask] * wflat[mask]))
        assert np.allclose(K.values.ravel(), oracle, rtol=1e-10, atol=1e-14)


def _contains_oracle(F, window, local, indices):
    """The control function at the grid points ``indices``: |F| reduced over
    the grid points that ``window.contains`` puts in each translate."""
    grid = F.grid
    pts = grid.points()
    flat, wflat = np.abs(F.values).ravel(), grid.weights.ravel()
    out = np.empty(len(indices))
    for k, i in enumerate(indices):
        mask = window.contains(pts[i], pts)
        out[k] = (flat[mask].max(initial=0.0) if local == "linf"
                  else np.sum(flat[mask] * wflat[mask]))
    return out


def _check_against_contains(F, window, indices):
    for local in ("linf", "l1"):
        K = control_function(F, window, local).values.ravel()[indices]
        oracle = _contains_oracle(F, window, local, indices)
        if local == "linf":
            assert np.array_equal(K, oracle)
        else:
            assert np.allclose(K, oracle, rtol=1e-10, atol=1e-14)


def test_control_axb2_beyond_twenty_thousand_points():
    """At n = 2 on 40 x 40 x 16 = 25,600 points the ball's rows give the
    maxima of per-point membership exactly and its integrals to rounding."""
    grid = AxbGrid(AxbGroup(2), -2, 2, 40, 0.25, 4.0, 16)
    rng = generator(5)
    F = SampledFunction(grid, rng.standard_normal(grid.shape))
    indices = rng.choice(grid.size, 240, replace=False)
    _check_against_contains(F, AxbWindow(0.5, 1.5), indices)


@pytest.mark.parametrize("case", ["axb-cover-n1", "axb-cover-n2", "box-right-r2"])
def test_control_of_covers_and_moved_boxes_against_contains(case):
    """Cover windows, whose scale slide misses the base scale, and a right
    translate of a box, which is the moved box, at every grid point."""
    if case == "box-right-r2":
        grid = UniformGrid(Euclidean(2), -2, 2, 24)
        window = BoxWindow.centered(0.4, 2).right_cover([0.3, -0.7])
    else:
        n = int(case[-1])
        grid = AxbGrid(AxbGroup(n), -2, 2, 24 // n, 0.25, 4.0, 16 // n)
        window = AxbWindow(0.5, 1.5).right_cover([0.4] * n + [2.0])
    F = SampledFunction(grid, generator(11).standard_normal(grid.shape))
    _check_against_contains(F, window, np.arange(grid.size))


# ---------------------------------------------------------------------------
# Amalgam norms


@pytest.mark.parametrize("p,weighted", [(0.5, False), (1.0, False), (2.0, True)])
def test_amalgam_norm_singleton_reduction(z_grid, rng, p, weighted):
    w = shifted_power_weight(1.0) if weighted else None
    Y = WeightedLp(p, w)
    for local in ("linf", "l1", "m"):
        F = SampledFunction(z_grid, rng.standard_normal(z_grid.shape))
        got = amalgam_norm(F, BoxWindow.origin(1), local, Y)
        want = quasi_norm(Y, F)
        assert got == pytest.approx(want, rel=1e-12)


def test_amalgam_norm_interval_example(euclid):
    grid = UniformGrid(euclid, -4, 4, 8000)
    F = SampledFunction.sample(grid, lambda x: ((x >= 0) & (x <= 1)).astype(float))
    got = amalgam_norm(F, BoxWindow.interval(0, 1), "linf", WeightedLp(1.0))
    assert got == pytest.approx(2.0, abs=2e-3)


def test_amalgam_norm_bruteforce_double_loop(euclid, rng):
    """Sliding-path amalgam norm matches a direct double loop."""
    grid = UniformGrid(euclid, -4, 4, 600)
    spec = piecewise_constant(rng)
    F = spec.sample(grid)
    window = BoxWindow.centered(0.25, 1)
    Y = WeightedLp(0.5)
    fast = amalgam_norm(F, window, "l1", Y)
    xs = grid.axes[0]
    w = grid.weights
    control = np.empty(len(xs))
    for i in range(len(xs)):
        mask = np.abs(xs - xs[i]) <= 0.25 + 1e-9
        control[i] = float(np.sum(np.abs(F.values[mask]) * w[mask]))
    oracle = float(np.sum(control**0.5 * w) ** 2)
    assert fast == pytest.approx(oracle, rel=1e-6)


def test_embedding_chain(line_grid):
    """||F||_Y <= ||F||_{W(Linf,Y)} and the L1 control is dominated by
    window-measure times the sup control."""
    rng = generator(11)
    Y = WeightedLp(1.0)
    window = BoxWindow.centered(0.5, 1)  # Haar measure 1
    qmeasure = window_haar_measure(window, line_grid)
    for _ in range(20):
        F = gaussian_bump_sum(rng).sample(line_grid)
        w_linf = amalgam_norm(F, window, "linf", Y)
        w_l1 = amalgam_norm(F, window, "l1", Y)
        assert quasi_norm(Y, F) <= w_linf * (1 + 1e-9)
        assert w_l1 <= qmeasure * w_linf * (1 + 1e-9)


# ---------------------------------------------------------------------------
# Discrete equivalent norms


def test_one_guard_serves_every_norm(z_grid, axb_grid, rng):
    """Every norm is OVERFLOW above OVERFLOW_GUARD = 1e12 and a float below:
    each is homogeneous, so F scaled to norm 1e13 overflows and F scaled
    to norm 1e11 does not."""
    assert OVERFLOW_GUARD == 1e12
    X = integer_lattice_set(z_grid)
    bupu = build_bupu(X, BoxWindow.origin(1), grid=z_grid)
    window = BoxWindow.centered(1.0, 1)
    norms = [
        (z_grid, lambda F: quasi_norm(WeightedLp(0.5), F)),
        (axb_grid, lambda F: quasi_norm(MixedLpq(2.0, 1.0), F)),
        (z_grid, lambda F: sequence_norm(
            DiscreteSequence(F.values, X, WeightedLp(1.0), window), z_grid)),
        (z_grid, lambda F: amalgam_norm(F, window, "linf", WeightedLp(1.0))),
        (z_grid, lambda F: discrete_amalgam_norm(F, bupu, "l1", WeightedLp(2.0))),
    ]
    for grid, norm in norms:
        values = rng.uniform(0.5, 1.0, grid.shape)
        unit = norm(SampledFunction(grid, values))
        below = norm(SampledFunction(grid, values * (1e11 / unit)))
        above = norm(SampledFunction(grid, values * (1e13 / unit)))
        assert type(below) is float and below == pytest.approx(1e11, rel=1e-9)
        assert is_overflow(above)


def test_discrete_norm_delta_indicators(z_grid, rng):
    X = integer_lattice_set(z_grid)
    bupu = build_bupu(X, BoxWindow.origin(1), grid=z_grid)
    F = SampledFunction(z_grid, rng.standard_normal(z_grid.shape))
    for p in (0.5, 1.0, 2.0):
        got = discrete_amalgam_norm(F, bupu, "linf", WeightedLp(p))
        want = quasi_norm(WeightedLp(p), F)
        assert got == pytest.approx(want, rel=1e-12)


def test_discrete_vs_continuous_hat_bracket(line_grid):
    F = SampledFunction.sample(
        line_grid, lambda x: ((x >= 0) & (x <= 1)).astype(float))
    X = euclidean_lattice(line_grid, 1.0)
    bupu = build_bupu(X, BoxWindow.centered(1.0, 1), grid=line_grid)
    cont = amalgam_norm(F, BoxWindow.centered(0.5, 1), "linf", WeightedLp(1.0))
    disc = discrete_amalgam_norm(F, bupu, "linf", WeightedLp(1.0))
    ratio = disc / cont
    assert 0.25 <= ratio <= 4.0


def test_equivalence_sweep_bracket_stable(line_grid):
    """Ratios stay in one bracket; enlarging the family does not widen it."""
    rng = generator(12)
    X = euclidean_lattice(line_grid, 1.0)
    bupu = build_bupu(X, BoxWindow.centered(1.0, 1), grid=line_grid)
    Y = WeightedLp(0.5)
    windows = [BoxWindow.centered(0.5, 1), BoxWindow.centered(0.75, 1)]
    for window in windows:
        ratios = []
        for _ in range(50):
            F = gaussian_bump_sum(rng).sample(line_grid)
            cont = amalgam_norm(F, window, "linf", Y)
            disc = discrete_amalgam_norm(F, bupu, "linf", Y)
            ratios.append(disc / cont)
        ratios = np.asarray(ratios)
        c_star_50 = max(ratios.max(), 1 / ratios.min())
        assert c_star_50 <= 10.0
        for _ in range(50):
            F = gaussian_bump_sum(rng).sample(line_grid)
            cont = amalgam_norm(F, window, "linf", Y)
            disc = discrete_amalgam_norm(F, bupu, "linf", Y)
            ratios = np.append(ratios, disc / cont)
        c_star_100 = max(ratios.max(), 1 / ratios.min())
        assert c_star_100 <= c_star_50 * 1.10


def test_indicator_variant_close_to_bupu_variant(line_grid):
    rng = generator(13)
    X = euclidean_lattice(line_grid, 1.0)
    bupu = build_bupu(X, BoxWindow.centered(1.0, 1), grid=line_grid)
    Y = WeightedLp(1.0)
    for _ in range(10):
        F = gaussian_bump_sum(rng).sample(line_grid)
        a = discrete_amalgam_norm(F, bupu, "linf", Y, variant="bupu")
        b = discrete_amalgam_norm(F, bupu, "linf", Y, variant="indicator")
        assert 0.2 <= a / b <= 5.0


def test_window_robustness_bracket(line_grid):
    """Amalgam norms over two windows differ by at most the covering bound."""
    rng = generator(14)
    Q1 = BoxWindow.centered(0.25, 1)
    Q2 = BoxWindow.centered(1.0, 1)
    n_cover = len(cover_by_translates(Q2, Q1, line_grid.group))
    for p in (0.5, 1.0):
        Y = WeightedLp(p)
        bound = n_cover ** (1.0 / min(1.0, p))
        for _ in range(20):
            F = gaussian_bump_sum(rng).sample(line_grid)
            n1 = amalgam_norm(F, Q1, "linf", Y)
            n2 = amalgam_norm(F, Q2, "linf", Y)
            assert n1 <= n2 * (1 + 1e-9)   # monotone in the window
            assert n2 <= bound * n1 * (1 + 1e-9)


def test_wlinf_yd_equals_yd(line_grid):
    """Sequence norms through W(Linf,Y) and through Y agree in a bracket."""
    rng = generator(15)
    X = euclidean_lattice(line_grid, 1.0)
    U = BoxWindow.centered(0.5, 1)
    Y = WeightedLp(1.0, shifted_power_weight(1.0))
    space = AmalgamSpace("linf", Y, U)
    for _ in range(15):
        lam = np.abs(rng.standard_normal(len(X)))
        step = DiscreteSequence(lam, X, Y, U)
        through_y = sequence_norm(step, line_grid)
        from wamalgam.components import assemble_step_function
        G = assemble_step_function(X, U, lam, line_grid)
        through_w = amalgam_norm(G, U, "linf", Y)
        assert 0.2 <= through_w / through_y <= 5.0


# ---------------------------------------------------------------------------
# Translations and involutions


def test_translate_euclidean_shift(line_grid):
    F = SampledFunction.sample(
        line_grid, lambda x: ((x >= 0) & (x <= 1)).astype(float))
    L = translate(F, np.array([2.0]), "left")
    want = SampledFunction.sample(
        line_grid, lambda x: ((x >= 2) & (x <= 3)).astype(float))
    assert np.allclose(L.values, want.values, atol=1e-12)


def test_translate_axb_definition_unfolding(axb, axb_grid, rng):
    """L_{(y,b)} F(x,a) = F((x-y)/b, a/b): the group-law plumbing must agree
    with the hand-written affine formula at grid points exactly."""
    F = SampledFunction.sample(
        axb_grid, lambda x, a: np.exp(-(x**2 + np.log(a) ** 2)))
    y, b = 0.7, 1.4
    L = translate(F, np.array([y, b]), "left")
    flat = L.values.ravel()
    pts = axb_grid.points()
    for i in rng.integers(0, len(pts), 10):
        x0, a0 = pts[i]
        via_formula = F.eval_at(np.array([(x0 - y) / b, a0 / b]))
        assert flat[i] == pytest.approx(float(via_formula), abs=1e-12)


def test_measure_action_on_reals_roundtrip(line_grid):
    F = SampledFunction.sample(
        line_grid, lambda x: ((x >= 0) & (x <= 1)).astype(float))
    g = np.array([2.0])  # grid-aligned shift
    A = translate(F, g, "measure")
    back = translate(A, line_grid.group.inverse(g), "measure")
    assert np.allclose(back.values, F.values, atol=1e-12)
    # on a unimodular group A_g is plain right translation by g^{-1}
    R = translate(F, line_grid.group.inverse(g), "right")
    assert np.allclose(A.values, R.values, atol=1e-12)


def test_involution_involutive(z_grid, rng):
    F = SampledFunction(z_grid, rng.standard_normal(z_grid.shape))
    assert np.allclose(involution(involution(F, "reverse"), "reverse").values,
                       F.values)


def test_involution_unimodular_star_is_nabla(line_grid):
    F = SampledFunction.sample(
        line_grid, lambda x: np.exp(-x**2) * np.sin(3 * x))
    star = involution(F, "adjoint")
    nabla = involution(F, "conj_reverse")
    assert np.allclose(star.values, nabla.values, atol=1e-12)


def test_involution_axb_modular_factor(axb, axb_grid, rng):
    F = SampledFunction.sample(
        axb_grid, lambda x, a: np.exp(-(x**2 + np.log(a) ** 2)))
    star = involution(F, "adjoint")
    rev = involution(F, "reverse")
    pts = axb_grid.points()
    factor = axb.modular(axb.inverse(pts)).reshape(axb_grid.shape)
    assert np.allclose(star.values, rev.values * factor, atol=1e-12)


# ---------------------------------------------------------------------------
# Measure amalgams


def test_measure_control_counts_atoms(line_grid):
    mu = DiscreteMeasure(line_grid.group,
                         [(np.array([0.0]), 2.0), (np.array([1.0]), -1.0)],
                         grid=line_grid)
    K = control_function(mu, BoxWindow.centered(0.5, 1), "m")
    xs = line_grid.axes[0]
    assert K.values[np.argmin(np.abs(xs - 0.2))] == pytest.approx(2.0)
    assert K.values[np.argmin(np.abs(xs - 0.8))] == pytest.approx(1.0)
    assert K.values[np.argmin(np.abs(xs - 3.0))] == 0.0
    # on ax+b, z lies in x . U(0.5, 1.5) when |z_x - x| <= 0.5 a and a/1.5 <= z_a <= 1.5 a
    G = AxbGroup(1)
    grid = AxbGrid(G, -2.0, 2.0, 8, 0.5, 2.0, 4)  # x = -1.75 + 0.5 k, a = 2^(-0.75 + 0.5 j)
    mu = DiscreteMeasure(G, [(np.array([0.3, 1.0]), 2.0)], grid=grid)
    K = control_function(mu, AxbWindow(0.5, 1.5), "m")
    inside = np.zeros(grid.shape)
    inside[4, 1] = 2.0  # a = 2^-0.25: the ball [-0.12, 0.72] holds x = 0.25
    inside[3:6, 2] = 2.0  # a = 2^0.25: [-0.29, 0.89] holds x = -0.25, 0.25, 0.75
    assert np.array_equal(K.values, inside)


def test_measure_amalgam_right_action_bound(line_grid):
    """|A_y mu| obeys the p-sum bound assembled from the window cover."""
    rng = generator(16)
    Q = BoxWindow.centered(0.5, 1)
    p = 0.5
    Y = WeightedLp(p)
    QQ = BoxWindow.centered(1.0, 1)  # Q.Q for centered boxes
    slack = len(cover_by_translates(QQ, Q, line_grid.group)) ** (1.0 / p)
    for _ in range(10):
        atoms = [(rng.uniform(-4, 4, 1), rng.uniform(0.5, 2.0)) for _ in range(4)]
        mu = DiscreteMeasure(line_grid.group, atoms, grid=line_grid)
        y = np.array([rng.uniform(-2, 2)])
        base = amalgam_norm(mu, Q, "m", Y)
        moved = amalgam_norm(translate(mu, y, "measure"), Q, "m", Y)
        # R-translates have unit norm on unweighted Lebesgue components
        assert moved <= slack * base * (1 + 1e-9)


# ---------------------------------------------------------------------------
# Operator-norm certificates


def _bump_family(grid, count, seed, spread=6.0):
    rng = generator(seed)
    out = []
    for _ in range(count):
        out.append(gaussian_bump_sum(rng, center_range=(-spread, spread),
                                     sigma_range=(0.5, 1.5)).sample(grid))
    return out


def test_estimator_contract_lower_below_upper(line_grid):
    X = euclidean_lattice(line_grid, 1.0)
    space = AmalgamSpace("linf", WeightedLp(1.0, shifted_power_weight(1.0)),
                         BoxWindow.centered(0.5, 1))
    fam = _bump_family(line_grid, 6, 21)
    for y in (0.5, 1.0, 3.0):
        ob = estimate_translation_operator_norm(
            space, [y], "right", grid=line_grid, test_family=fam,
            well_spread=X, rng=generator(5), bracket_constant=1.8)
        assert ob.lower <= ob.upper


def test_estimator_in_group_unweighted_right(line_grid):
    """R_g on unweighted L^p: the sequence route reports ratio near one."""
    X = euclidean_lattice(line_grid, 1.0)
    space = AmalgamSpace("linf", WeightedLp(1.0), BoxWindow.centered(0.5, 1))
    fam = _bump_family(line_grid, 6, 22)
    bracket = calibrate_equivalence_bracket(
        space, build_bupu(X, BoxWindow.centered(1.0, 1), grid=line_grid), fam)
    ob = estimate_translation_operator_norm(
        space, [1.5], "right", grid=line_grid, test_family=fam,
        well_spread=X, rng=generator(5), bracket_constant=bracket)
    assert ob.sequence_ratio <= 1.1
    assert ob.upper <= bracket**2 * 1.1
    assert ob.lower <= 1.0 + 1e-9


def test_estimator_left_bounded_by_component_norm(line_grid):
    """Upper certificates for L_y stay under |||L_y|Y||| times the bracket."""
    w = shifted_power_weight(1.0)
    check_submultiplicative(w, line_grid.group, np.linspace(-8, 8, 33))
    X = euclidean_lattice(line_grid, 1.0)
    space = AmalgamSpace("linf", WeightedLp(1.0, w), BoxWindow.centered(0.5, 1))
    fam = _bump_family(line_grid, 6, 23)
    # direct norm-ratio sweep for |||L_y|Y|||: a near-delta bump at the
    # origin attains the submultiplicative bound w(y) up to grid effects
    spike = SampledFunction.sample(
        line_grid, lambda x: np.exp(-(x**2) / (2 * 0.05**2)))
    Y = space.global_component
    for y in (1.0, 2.0):
        comp_bound = float(w(np.array([[y]]))[0])
        sweep = quasi_norm(Y, translate(spike, np.array([y]), "left")) / \
            quasi_norm(Y, spike)
        assert 0.8 * comp_bound <= sweep <= comp_bound * (1 + 1e-6)
        ob = estimate_translation_operator_norm(
            space, [y], "left", grid=line_grid, test_family=fam,
            well_spread=X, rng=generator(5), bracket_constant=1.8)
        assert ob.sequence_ratio <= comp_bound * (1 + 0.05)
        assert ob.upper <= 1.8**2 * comp_bound * (1 + 0.05)


def test_weighted_sup_embedding_with_estimator_envelope(line_grid):
    """sup |F(x)| / r(x) <= C ||F||_W with r from upper certificates."""
    w = shifted_power_weight(1.0)
    space = AmalgamSpace("linf", WeightedLp(1.0, w), BoxWindow.centered(0.5, 1))
    X = euclidean_lattice(line_grid, 1.0)
    xs = line_grid.axes[0]
    probes = [-4.0, -1.0, 0.0, 2.0, 5.0]
    fam = _bump_family(line_grid, 4, 24)
    uppers = {}
    for x0 in probes:
        ob = estimate_translation_operator_norm(
            space, [-x0], "left", grid=line_grid, test_family=fam,
            well_spread=X, rng=generator(5), bracket_constant=1.8)
        uppers[x0] = ob.upper
    consts = []
    for count in (10, 20):
        worst = 0.0
        for F in _bump_family(line_grid, count, 25):
            norm = amalgam_norm(F, space.window, "linf", space.global_component)
            for x0 in probes:
                i = int(np.argmin(np.abs(xs - x0)))
                worst = max(worst, abs(F.values[i]) / uppers[x0] / norm)
        consts.append(worst)
    assert consts[1] <= consts[0] * 1.25 + 1e-9


def test_estimator_measure_direction_matches_right(line_grid):
    """On a unimodular group A_g = R_{g^{-1}}, so the two routes agree."""
    X = euclidean_lattice(line_grid, 1.0)
    space = AmalgamSpace("linf", WeightedLp(1.0, shifted_power_weight(1.0)),
                         BoxWindow.centered(0.5, 1))
    fam = _bump_family(line_grid, 4, 26)
    g = np.array([2.0])
    via_measure = estimate_translation_operator_norm(
        space, g, "measure", grid=line_grid, test_family=fam,
        well_spread=X, rng=generator(5), bracket_constant=1.5)
    via_right = estimate_translation_operator_norm(
        space, -g, "right", grid=line_grid, test_family=fam,
        well_spread=X, rng=generator(5), bracket_constant=1.5)
    assert via_measure.sequence_ratio == pytest.approx(
        via_right.sequence_ratio, rel=1e-9)
    assert via_measure.lower == pytest.approx(via_right.lower, rel=1e-9)


def test_translate_coverage_warning(line_grid):
    """Pushing the support fully off the window warns with the kept fraction."""
    from wamalgam.errors import CoverageWarning

    F = SampledFunction.sample(
        line_grid, lambda x: ((x >= 0) & (x <= 1)).astype(float))
    with pytest.warns(CoverageWarning):
        translate(F, np.array([100.0]), "left")


def test_estimator_requires_inputs(line_grid):
    from wamalgam.errors import EmptyGridError

    space = AmalgamSpace("linf", WeightedLp(1.0), BoxWindow.centered(0.5, 1))
    with pytest.raises(EmptyGridError):
        estimate_translation_operator_norm(space, [1.0], "right",
                                           grid=line_grid)


def test_estimator_rejects_a_negative_coefficient_count(line_grid):
    from wamalgam.errors import InvalidElementError

    space = AmalgamSpace("linf", WeightedLp(1.0), BoxWindow.centered(0.5, 1))
    X = euclidean_lattice(line_grid, 1.0)
    for count in (-1, 2.5):
        with pytest.raises(InvalidElementError):
            estimate_translation_operator_norm(space, [1.0], "right", grid=line_grid,
                                               well_spread=X, coeff_count=count)


def test_estimator_records_the_cells_it_scanned():
    grid = UniformGrid(Euclidean(2), -4.0, 4.0, 32)
    X = euclidean_lattice(grid, 1.0)
    space = AmalgamSpace("linf", WeightedLp(1.0, shifted_power_weight(1.0)),
                         BoxWindow.centered(1.0, 2))
    # every translated cell leaves the grid, so no cell is left to scan
    lost = estimate_translation_operator_norm(space, [100.0, 0.0], "right", grid=grid,
                                              well_spread=X, coeff_count=2)
    assert lost.as_record()["cells_scanned"] == lost.cells_scanned == 0
    assert lost.sequence_ratio == 0.0 and lost.upper == math.inf
    still = estimate_translation_operator_norm(space, [0.0, 0.0], "right", grid=grid,
                                               well_spread=X, coeff_count=2)
    assert still.as_record()["cells_scanned"] == still.cells_scanned > 0
    assert still.sequence_ratio == 1.0


def test_window_validation():
    from wamalgam.errors import InvalidElementError

    with pytest.raises(InvalidElementError):
        BoxWindow((0.0,), (np.inf,))
    with pytest.raises(InvalidElementError):
        BoxWindow((1.0,), (0.0,))
    with pytest.raises(InvalidElementError):
        AxbWindow(0.0, 2.0)
    with pytest.raises(InvalidElementError):
        AxbWindow(1.0, 1.0)


@pytest.mark.parametrize("call, accepted", [
    (lambda F: normalize_local("linfty"), "linf, l1, m"),
    (lambda F: translate(F, [1.0], "r"), "left, right, measure"),
    (lambda F: involution(F, "star"), "reverse, conj_reverse, adjoint"),
], ids=["local", "direction", "involution"])
def test_unknown_spelling_names_the_accepted_ones(line_grid, call, accepted):
    from wamalgam.errors import InvalidElementError

    F = SampledFunction(line_grid, np.ones(line_grid.shape))
    with pytest.raises(InvalidElementError, match=f"; choose from {accepted}$"):
        call(F)


@pytest.mark.parametrize("call", [
    lambda F: normalize_local("L^inf"),
    lambda F: normalize_local("L 1"),
    lambda F: translate(F, [1.0], "LEFT"),
    lambda F: involution(F, "Reverse"),
], ids=["L^inf", "L 1", "LEFT", "Reverse"])
def test_spellings_are_exact(line_grid, call):
    """Case, ``^`` and spaces are part of a spelling, not folded away."""
    from wamalgam.errors import InvalidElementError

    F = SampledFunction(line_grid, np.ones(line_grid.shape))
    with pytest.raises(InvalidElementError):
        call(F)


def test_amalgam_norm_inherits_p_exponent(line_grid):
    """The amalgam quasi-norm satisfies the global component's r-triangle."""
    rng = generator(27)
    window = BoxWindow.centered(0.5, 1)
    for Y in (WeightedLp(0.5), WeightedLp(1.0, shifted_power_weight(1.0))):
        space = AmalgamSpace("linf", Y, window)
        r = space.p_exponent
        for _ in range(25):
            F = SampledFunction(line_grid, rng.standard_normal(line_grid.shape))
            G = SampledFunction(line_grid, rng.standard_normal(line_grid.shape))
            nf = amalgam_norm(F, window, "linf", Y)
            ng = amalgam_norm(G, window, "linf", Y)
            nfg = amalgam_norm(F + G, window, "linf", Y)
            assert nfg**r <= (nf**r + ng**r) * (1 + 1e-10)


def test_measure_control_atoms_plus_density(line_grid):
    """The control function of an atom cloud plus a density splits additively."""
    dens = SampledFunction.sample(
        line_grid, lambda x: ((x >= -1) & (x <= 1)).astype(float))
    mu = DiscreteMeasure(line_grid.group, [(np.array([0.0]), 2.0)],
                         density=dens)
    Q = BoxWindow.centered(0.5, 1)
    K = control_function(mu, Q, "m")
    K_atoms = control_function(
        DiscreteMeasure(line_grid.group, [(np.array([0.0]), 2.0)],
                        grid=line_grid), Q, "m")
    K_dens = control_function(dens, Q, "l1")
    assert np.allclose(K.values, K_atoms.values + K_dens.values, atol=1e-12)


def test_measure_control_at_grid_points_is_its_indicator_norms():
    """At a point set X of grid points, the control function of a measure
    reads its atoms as the indicator route does, bit for bit; a density
    adds its l1 norms by two routes that agree to 1e-12."""
    grid = UniformGrid(Euclidean(1), -4.0, 4.0, 64)
    at = np.arange(2, 64, 5)
    X = WellSpreadSet(grid.points()[at], grid=grid)
    window = BoxWindow.centered(0.75, 1)
    atoms = [(np.array([z]), m) for z, m in
             ((0.3, 2.0), (0.35, -1j), (0.4, 0.7 + 0.1j), (-1.1, 3.0), (2.9, 0.25))]
    mu = DiscreteMeasure(grid.group, atoms, grid=grid)
    assert np.array_equal(control_function(mu, window, "m").values[at],
                          local_norms_indicator(mu, X, window, "m"))
    density = SampledFunction.sample(grid, lambda x: np.exp(-x**2))
    mu = DiscreteMeasure(grid.group, atoms, density=density)
    np.testing.assert_allclose(control_function(mu, window, "m").values[at],
                               local_norms_indicator(mu, X, window, "m"), rtol=1e-12)
