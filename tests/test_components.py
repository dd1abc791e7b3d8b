"""Global components: quasi-norms, weights, certificates, sequence spaces."""

import math

import numpy as np
import pytest

from wamalgam import (
    AxbGrid,
    AxbWindow,
    BoxWindow,
    DiscreteSequence,
    MixedLpq,
    SampledFunction,
    UniformGrid,
    WeightedLp,
    WeightFunction,
    ball_integral,
    amalgam_norm,
    build_axb_lattice,
    check_doubling,
    check_submultiplicative,
    constant_weight,
    cover_by_translates,
    euclidean_lattice,
    exponential_weight,
    generator,
    integer_lattice_set,
    is_overflow,
    p_exponent_from_quasi_constant,
    power_weight,
    quasi_constant_from_p_exponent,
    quasi_norm,
    sequence_norm,
    shifted_power_weight,
)
from wamalgam.components import table_weight
from wamalgam.errors import (
    GroupMismatchError,
    IndexMismatchError,
    InvalidExponentError,
    NonFiniteSampleError,
    WeightDomainError,
)


# ---------------------------------------------------------------------------
# Quasi-norm oracles


def test_unit_indicator_in_l_half(fine_line_grid):
    F = SampledFunction.sample(
        fine_line_grid, lambda x: ((x >= 0) & (x <= 1)).astype(float))
    assert abs(quasi_norm(WeightedLp(0.5), F) - 1.0) <= 2e-3


def test_two_deltas_l_half(z_grid):
    F = SampledFunction.sample(z_grid, lambda i: ((i == 0) | (i == 1)).astype(float))
    assert quasi_norm(WeightedLp(0.5), F) == pytest.approx(4.0, rel=1e-12)


def test_mixed_norm_rectangle(axb):
    grid = AxbGrid(axb, -1, 2, 120, 0.25, 8.0, 2000)
    F = SampledFunction.sample(
        grid, lambda x, a: ((x >= 0) & (x <= 1) & (a >= 1) & (a <= np.e)).astype(float))
    assert abs(quasi_norm(MixedLpq(1, 1), F) - (1 - np.exp(-1))) <= 1e-3


def test_weighted_sup_norm(z_grid):
    F = SampledFunction.sample(z_grid, lambda i: (i == 3).astype(float))
    Y = WeightedLp(math.inf, shifted_power_weight(1.0))
    assert quasi_norm(Y, F) == pytest.approx(4.0)


def test_invalid_exponents():
    with pytest.raises(InvalidExponentError):
        WeightedLp(0.0)
    with pytest.raises(InvalidExponentError):
        MixedLpq(math.inf, 1.0)
    with pytest.raises(InvalidExponentError):
        MixedLpq(1.0, -1.0)


def test_group_mismatch(z_grid):
    F = SampledFunction.sample(z_grid, lambda i: (i == 0).astype(float))
    with pytest.raises(GroupMismatchError):
        quasi_norm(MixedLpq(1, 1), F)


def test_overflow_guard(z_grid):
    F = SampledFunction.sample(z_grid, lambda i: 1e9 * (i == 0))
    out = quasi_norm(WeightedLp(0.5), F, overflow_guard=1e6)
    assert is_overflow(out)


def _gaussian_with_sample(grid, value):
    F = SampledFunction.sample(grid, lambda x: np.exp(-x**2))
    F.values[10] = value
    return F


def test_nan_sample_raises(line_grid):
    F = _gaussian_with_sample(line_grid, np.nan)
    with pytest.raises(NonFiniteSampleError):
        quasi_norm(WeightedLp(1.0), F)
    with pytest.raises(NonFiniteSampleError):
        amalgam_norm(F, BoxWindow.centered(0.5, 1), "linf", WeightedLp(1.0))


def test_infinite_sample_overflows(line_grid):
    F = _gaussian_with_sample(line_grid, np.inf)
    assert is_overflow(quasi_norm(WeightedLp(1.0), F))
    assert is_overflow(amalgam_norm(F, BoxWindow.centered(0.5, 1), "linf", WeightedLp(1.0)))


def test_weight_tabulated_once_per_grid(euclid):
    calls = []

    def evaluate(p):
        calls.append(len(p))
        return 1.0 + np.abs(p[..., 0])

    Y = WeightedLp(2.0, WeightFunction("counted", evaluate))
    grid = UniformGrid(euclid, -2, 2, 16)
    F = SampledFunction.sample(grid, lambda x: np.exp(-x**2))
    first = quasi_norm(Y, F)
    assert quasi_norm(Y, SampledFunction.sample(UniformGrid(euclid, -2, 2, 16),
                                                lambda x: np.exp(-x**2))) == first
    assert calls == [16]
    quasi_norm(Y, SampledFunction.sample(UniformGrid(euclid, -2, 2, 32),
                                         lambda x: np.exp(-x**2)))
    assert calls == [16, 32]
    assert not Y.weight.on_grid(grid).flags.writeable


# ---------------------------------------------------------------------------
# p-exponent relation


def test_p_exponent_values():
    assert p_exponent_from_quasi_constant(1.0) == pytest.approx(1.0, abs=1e-15)
    assert p_exponent_from_quasi_constant(3.0) == pytest.approx(0.5, abs=1e-15)
    assert quasi_constant_from_p_exponent(0.5) == pytest.approx(3.0, abs=1e-12)


@pytest.mark.parametrize("p", [0.3, 0.5, 0.7, 1.0])
def test_p_exponent_roundtrip(p):
    C = quasi_constant_from_p_exponent(p)
    assert p_exponent_from_quasi_constant(C) == pytest.approx(p, abs=1e-12)


@pytest.mark.parametrize("p", [0.3, 0.7, 1.0])
def test_p_exponent_roundtrip_aoki(p):
    C = quasi_constant_from_p_exponent(p, convention="aoki")
    assert p_exponent_from_quasi_constant(C, convention="aoki") == pytest.approx(
        p, abs=1e-12)


def test_p_exponent_rejects_small_constant():
    with pytest.raises(InvalidExponentError):
        p_exponent_from_quasi_constant(0.5)


# ---------------------------------------------------------------------------
# Submultiplicativity


def test_submultiplicative_shifted_power(euclid):
    samples = np.linspace(-20, 20, 201)
    rec = check_submultiplicative(shifted_power_weight(2.0), euclid, samples)
    assert rec["passed"] and rec["max_ratio"] <= 1 + 1e-12


def test_submultiplicative_exponential(euclid):
    samples = np.linspace(-10, 10, 101)
    rec = check_submultiplicative(exponential_weight(), euclid, samples)
    assert rec["passed"]


def test_submultiplicative_counterexample(euclid):
    rec = check_submultiplicative(shifted_power_weight(-1.0), euclid,
                                  np.array([-1.0, 0.0, 1.0]))
    assert not rec["passed"]
    w = shifted_power_weight(-1.0)
    # the symmetric cancellation pair from the contract is a violation
    assert w(np.array([[0.0]]))[0] > w(np.array([[1.0]]))[0] * w(np.array([[-1.0]]))[0]
    assert "counterexample" in rec


# ---------------------------------------------------------------------------
# Ball integrals and doubling


def test_ball_integral_analytic_cases():
    assert ball_integral(constant_weight(1.0), 0.0, 2.0) == pytest.approx(4.0)
    # int_{-a}^{a} (1+|y|) dy = 2a + a^2
    a = 0.7
    got = ball_integral(shifted_power_weight(1.0), 0.0, a)
    assert got == pytest.approx(2 * a + a**2, rel=1e-4)
    # int over a ball that stays positive: int_{2a}^{4a} y dy = 6 a^2
    got = ball_integral(power_weight(1.0), 3 * a, a)
    assert got == pytest.approx(6 * a**2, rel=1e-4)


def test_ball_integral_2d_area():
    got = ball_integral(constant_weight(1.0), np.zeros(2), 1.5,
                        cells_per_radius=128)
    assert got == pytest.approx(np.pi * 1.5**2, rel=1e-3)


@pytest.mark.parametrize("weight", [
    constant_weight(1.0),
    power_weight(0.5),
    power_weight(1.0),
    shifted_power_weight(2.0),
    shifted_power_weight(-2.0),
])
def test_doubling_certified(weight):
    centers = [0.0, 1.5, -3.0]
    rec = check_doubling(weight, centers, [0.5, 1.0, 2.0, 4.0])
    assert rec["passed"]
    assert rec["c"] > 0 and rec["alpha"] >= 0


def test_doubling_power_worst_ratio_at_origin():
    v = power_weight(1.0)
    ratio = ball_integral(v, 0.0, 2.0) / ball_integral(v, 0.0, 1.0)
    assert ratio == pytest.approx(4.0, rel=1e-10)


def test_doubling_rejects_exponential():
    rec = check_doubling(exponential_weight(), [0.0, 2.0], [1.0, 2.0])
    assert not rec["passed"]
    wit = rec["witness"]
    assert wit["max_growth_run"] >= 4
    # the witness ratios grow monotonically along the radius ladder
    assert all(np.diff(wit["log_ratios_t2"]) > 0)


@pytest.mark.parametrize("n", [1, 2])
def test_doubling_alpha_for_volume(n):
    centers = [np.zeros(n), np.full(n, 1.0)]
    rec = check_doubling(constant_weight(1.0), centers, [0.5, 1.0, 2.0])
    assert abs(rec["alpha"] - n) <= 0.05


def test_doubling_alpha_scale_consistent():
    """Fitted alpha for v = 1 is stable across disjoint radius ranges."""
    recs = []
    for radii in ([0.25, 0.5, 1.0], [8.0, 16.0, 32.0]):
        recs.append(check_doubling(constant_weight(1.0), [0.0, 2.0], radii))
    assert abs(recs[0]["alpha"] - recs[1]["alpha"]) <= 0.05


def test_doubling_accepts_integrable_pole():
    rec = check_doubling(power_weight(-0.5), [0.0], [0.5, 1, 2, 4, 8])
    assert rec["passed"]
    assert rec["alpha"] == pytest.approx(0.5, abs=1e-9)


@pytest.mark.parametrize("s, n", [(-1.0, 1), (-3.0, 1), (-2.0, 2)])
def test_doubling_rejects_non_integrable_pole(s, n):
    """|x|^s is locally integrable only for s > -n: the midpoint rule never
    samples the pole, so the refinement check has to catch it."""
    with pytest.raises(WeightDomainError, match="does not converge"):
        check_doubling(power_weight(s), [np.zeros(n)], [0.5, 1, 2, 4, 8])


def test_ball_integral_refinement_check():
    # the pole sits inside the ball, not at its centre
    with pytest.raises(WeightDomainError, match="does not converge"):
        ball_integral(power_weight(-1.0), 1.5, 2.0)
    # away from the pole the same weight is smooth
    assert ball_integral(power_weight(-1.0), 1.5, 1.0) == pytest.approx(
        math.log(5.0), rel=1e-4)


def test_doubling_rejects_fit_with_less_mass_in_larger_balls(monkeypatch):
    """A positive weight has c >= 1 and alpha >= 0; a quadrature that loses
    mass in the larger balls must not be certified with alpha clipped to 0."""
    import wamalgam.components as components

    monkeypatch.setattr(components, "ball_integral",
                        lambda weight, x, r, cells: r ** -0.5)
    rec = check_doubling(constant_weight(1.0), [0.0], [0.5, 1.0, 2.0])
    assert not rec["passed"] and "c < 1 or alpha < 0" in rec["reason"]
    assert rec["alpha"] < 0 and rec["c"] < 1


# ---------------------------------------------------------------------------
# Sequence spaces


def test_sequence_norm_disjoint_cells(euclid):
    grid = UniformGrid(euclid, -8, 8, 1600)
    X = euclidean_lattice(grid, 1.0)
    lam = np.zeros(len(X))
    lam[np.argmin(np.abs(X.points[:, 0]))] = 1.0
    lam[np.argmin(np.abs(X.points[:, 0] - 1.0))] = 1.0
    for p in (0.5, 1.0, 2.0):
        seq = DiscreteSequence(lam, X, WeightedLp(p), BoxWindow.interval(0, 1))
        got = sequence_norm(seq, grid)
        assert got == pytest.approx(2.0 ** (1.0 / p), rel=2e-2)


def test_sequence_norm_overlapping_cells(euclid):
    grid = UniformGrid(euclid, -8, 8, 1600)
    X = euclidean_lattice(grid, 1.0)
    lam = np.zeros(len(X))
    lam[np.argmin(np.abs(X.points[:, 0]))] = 1.0
    lam[np.argmin(np.abs(X.points[:, 0] - 1.0))] = 1.0
    seq = DiscreteSequence(lam, X, WeightedLp(1.0), BoxWindow.interval(0, 2))
    # chi_[0,2) + chi_[1,3) integrates to 4
    assert sequence_norm(seq, grid) == pytest.approx(4.0, rel=2e-2)


def test_sequence_norm_index_mismatch(z_grid):
    X = integer_lattice_set(z_grid)
    with pytest.raises(IndexMismatchError):
        DiscreteSequence(np.ones(3), X, WeightedLp(1.0), BoxWindow.origin(1))


def test_sequence_window_independence_bound(euclid, rng):
    """Y_d norms over two windows differ by at most the covering bound."""
    grid = UniformGrid(euclid, -12, 12, 1200)
    X = euclidean_lattice(grid, 1.0)
    U = BoxWindow.centered(0.5, 1)
    V = BoxWindow.centered(1.0, 1)
    for p, weight in ((1.0, None), (0.5, None), (1.0, shifted_power_weight(1.0))):
        Y = WeightedLp(p, weight)
        offsets = cover_by_translates(V, U, euclid)
        if weight is None:
            factors = np.ones(len(offsets))
        else:
            factors = np.array([
                float(np.max(weight(grid.points() + y) / weight(grid.points())))
                for y in offsets
            ])
        r = min(1.0, p)
        bound = float(np.sum(factors**r) ** (1.0 / r))
        worst = 0.0
        for _ in range(20):
            lam = np.abs(rng.standard_normal(len(X)))
            nu = sequence_norm(DiscreteSequence(lam, X, Y, U), grid)
            nv = sequence_norm(DiscreteSequence(lam, X, Y, V), grid)
            worst = max(worst, nv / nu)
        assert worst <= bound * (1 + 1e-6)


# ---------------------------------------------------------------------------
# Quasi-norm structure: r-triangle, solidity, degeneracy


def _shipped_components(axb_n=1):
    return [
        WeightedLp(0.5),
        WeightedLp(1.0),
        WeightedLp(2.0),
        WeightedLp(1.0, shifted_power_weight(1.0)),
        WeightedLp(0.5, shifted_power_weight(2.0)),
        MixedLpq(1.0, 1.0, n=axb_n),
        MixedLpq(0.5, 1.0, n=axb_n),
        MixedLpq(1.0, math.inf, n=axb_n),
        MixedLpq(2.0, 2.0, shifted_power_weight(1.0), n=axb_n),
    ]


def _sample_pair(component, rng, line, axb_grid):
    grid = axb_grid if isinstance(component, MixedLpq) else line
    shape = grid.shape
    F = SampledFunction(grid, rng.standard_normal(shape))
    G = SampledFunction(grid, rng.standard_normal(shape))
    return F, G


def test_r_triangle_inequality(line_grid, axb_grid):
    rng = generator(5)
    for component in _shipped_components():
        r = component.p_exponent
        for _ in range(100):
            F, G = _sample_pair(component, rng, line_grid, axb_grid)
            nf = quasi_norm(component, F)
            ng = quasi_norm(component, G)
            nfg = quasi_norm(component, F + G)
            assert nfg**r <= (nf**r + ng**r) * (1 + 1e-10)


def test_solidity(line_grid, axb_grid):
    rng = generator(6)
    for component in _shipped_components():
        for _ in range(100):
            F, G = _sample_pair(component, rng, line_grid, axb_grid)
            dominated = SampledFunction(
                F.grid, F.values * rng.uniform(0, 1, F.grid.shape))
            assert quasi_norm(component, dominated) <= quasi_norm(
                component, F) * (1 + 1e-12)


def test_mixed_pp_equals_lp_on_group(axb, axb_grid):
    """L^{p,p} with v = 1 is the plain L^p of the group, exactly on the grid."""
    rng = generator(7)
    for p in (0.5, 1.0, 2.0):
        F = SampledFunction(axb_grid, np.abs(rng.standard_normal(axb_grid.shape)))
        mixed = quasi_norm(MixedLpq(p, p, n=1), F)
        plain = quasi_norm(WeightedLp(p), F)
        assert mixed == pytest.approx(plain, rel=1e-12)


def test_table_weight_roundtrip():
    w = table_weight([0.0, 1.0, 2.0], [1.0, 2.0, 5.0])
    assert w(np.array([[1.5]]))[0] == pytest.approx(3.5)
    assert w(np.array([[-1.0]]))[0] == pytest.approx(2.0)
