from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nashprox import (
    AggregativeGame,
    BoxIndicator,
    GaussianNoise,
    NotStronglyMonotone,
    QuadraticGame,
    StrategyProfile,
    generate_quadratic_game,
    gradient_map,
    monotonicity_constants,
    ne_error_bound,
    ne_residual,
    solve_ne_oracle,
)
from nashprox.games import _aggregate_bisection, _forward_backward

REF_H = np.array([[2.0, 1.0], [1.0, 2.0]])
REF_C = np.array([-1.0, -1.0])


def _reference_game(**kwargs) -> QuadraticGame:
    return QuadraticGame(dims=(1, 1), h=REF_H, c=REF_C, **kwargs)


def test_reference_game_constants():
    const = monotonicity_constants(_reference_game())
    assert const.eta == pytest.approx(1.0, abs=1e-12)
    assert const.lip == pytest.approx(3.0, abs=1e-9)
    assert const.kappa == pytest.approx(3.0, abs=1e-9)


def test_game_keeps_read_only_copies_of_h_and_c():
    h, c = REF_H.copy(), REF_C.copy()
    game = QuadraticGame(dims=(1, 1), h=h, c=c)
    with pytest.raises(ValueError):
        game.h[0, 0] = 1.0
    with pytest.raises(ValueError):
        game.c[0] = 1.0
    with pytest.raises(ValueError):
        game.blocks[0][0][0, 0] = 1.0
    h[0, 0] = 5.0
    c[0] = 5.0
    assert game.h[0, 0] == 2.0 and game.c[0] == -1.0
    assert game.own_spectra == ((2.0, 2.0), (2.0, 2.0))


def test_gradient_map_values_on_reference_game():
    game = _reference_game()
    at_zero = gradient_map(game, StrategyProfile.zeros((1, 1)))
    assert np.array_equal(at_zero, [-1.0, -1.0])
    at_ne = gradient_map(game, StrategyProfile.from_vector(np.array([1 / 3, 1 / 3]), (1, 1)))
    assert np.max(np.abs(at_ne)) <= 1e-12


def test_decoupled_game_constants_equal_shared_curvature():
    game = QuadraticGame(dims=(1, 2), h=2.0 * np.eye(3), c=np.zeros(3))
    const = monotonicity_constants(game)
    assert const.eta == pytest.approx(2.0)
    assert const.lip == pytest.approx(2.0)


def test_non_monotone_coupling_is_rejected():
    with pytest.raises(NotStronglyMonotone):
        QuadraticGame(dims=(1, 1), h=np.array([[1.0, 2.0], [0.0, 1.0]]), c=np.zeros(2))


def test_asymmetric_diagonal_block_is_rejected():
    with pytest.raises(ValueError):
        QuadraticGame(dims=(2,), h=np.array([[1.0, 0.5], [0.0, 1.0]]), c=np.zeros(2))


def test_monotonicity_and_lipschitz_inequalities_hold_pointwise():
    game = generate_quadratic_game(3, 2, 0.5, seed=21)
    const = monotonicity_constants(game)
    rng = np.random.default_rng(3)
    dims = game.dims
    for _ in range(50):
        x = StrategyProfile.from_vector(rng.normal(size=6) * 2.0, dims)
        y = StrategyProfile.from_vector(rng.normal(size=6) * 2.0, dims)
        gx, gy = gradient_map(game, x), gradient_map(game, y)
        diff = x.vector - y.vector
        inner = float((gx - gy) @ diff)
        nrm2 = float(diff @ diff)
        assert inner >= const.eta * nrm2 - 1e-9 * max(1.0, nrm2)
        assert np.linalg.norm(gx - gy) <= const.lip * np.linalg.norm(diff) + 1e-9


def test_residual_vanishes_at_equilibrium_for_any_step():
    game = _reference_game()
    x_star = solve_ne_oracle(game, tol=1e-13)
    for alpha in (0.01, 0.1, 1.0):
        assert ne_residual(game, x_star, alpha) <= 1e-10


def test_oracle_matches_linear_solve_on_unconstrained_game():
    game = _reference_game()
    x_star = solve_ne_oracle(game)
    direct = np.linalg.solve(REF_H, -REF_C)
    assert np.allclose(x_star.vector, direct, atol=1e-9)
    assert np.allclose(x_star.vector, [1 / 3, 1 / 3], atol=1e-9)


def test_oracle_respects_box_constraints():
    game = QuadraticGame(
        dims=(1,), h=np.array([[1.0]]), c=np.array([0.0]),
        regularizers=(BoxIndicator(np.array([1.0]), np.array([2.0])),))
    x_star = solve_ne_oracle(game)
    # unconstrained minimizer 0 projects onto the lower face of [1, 2]
    assert np.allclose(x_star.vector, [1.0], atol=1e-10)
    assert ne_residual(game, StrategyProfile.from_vector(np.array([1.0]), (1,)), 1.0) == pytest.approx(0.0, abs=1e-12)


def test_cournot_player_gradient_and_constants():
    game = AggregativeGame(a=(1.0, 1.0), b=(0.0, 0.0), d=2.0, c_price=1.0,
                           lo=(0.0, 0.0), hi=(10.0, 10.0))
    at_zero = gradient_map(game, StrategyProfile.zeros((1, 1)))
    assert np.array_equal(at_zero, [-2.0, -2.0])
    const = monotonicity_constants(game)
    # interaction Jacobian [[3, 1], [1, 3]] has eigenvalues {2, 4}
    assert const.eta == pytest.approx(2.0, abs=1e-12)
    assert const.lip == pytest.approx(4.0, abs=1e-9)
    assert const.m_compact == pytest.approx(20.0)


def test_cournot_equilibrium_closed_form():
    game = AggregativeGame(a=(1.0, 1.0), b=(0.0, 0.0), d=2.0, c_price=1.0,
                           lo=(0.0, 0.0), hi=(10.0, 10.0))
    x_star = solve_ne_oracle(game)
    assert np.allclose(x_star.vector, [0.5, 0.5], atol=1e-10)


def test_cournot_five_player_symmetric_solution():
    game = AggregativeGame(a=(1.0,) * 5, b=(0.0,) * 5, d=2.0, c_price=1.0,
                           lo=(0.0,) * 5, hi=(1.0,) * 5)
    const = monotonicity_constants(game)
    assert const.eta == pytest.approx(2.0)
    assert const.lip == pytest.approx(7.0)
    assert const.m_compact == pytest.approx(5.0)
    x_star = solve_ne_oracle(game)
    assert np.allclose(x_star.vector, np.full(5, 2 / 7), atol=1e-10)


def test_cournot_binding_box_saturates():
    game = AggregativeGame(a=(1.0, 1.0), b=(0.0, 0.0), d=50.0, c_price=1.0,
                           lo=(0.0, 0.0), hi=(0.1, 0.1))
    x_star = solve_ne_oracle(game)
    assert np.allclose(x_star.vector, [0.1, 0.1], atol=1e-12)


def test_cournot_rejects_invalid_parameters():
    with pytest.raises(ValueError):
        AggregativeGame(a=(1.0, 1.0), b=(0.0, 0.0), d=2.0, c_price=-1.0,
                        lo=(0.0, 0.0), hi=(1.0, 1.0))
    with pytest.raises(ValueError):
        AggregativeGame(a=(1.0, 1.0), b=(0.0, 0.0), d=2.0, c_price=1.0,
                        lo=(2.0, 2.0), hi=(1.0, 1.0))


def test_player_noise_splits_total_second_moment_by_block_size():
    game = QuadraticGame(dims=(1, 2), h=2.0 * np.eye(3), c=np.zeros(3),
                         noise=GaussianNoise(np.sqrt(3.0)))
    const = monotonicity_constants(game)
    assert const.nu_i[0] == pytest.approx(1.0)
    assert const.nu_i[1] == pytest.approx(np.sqrt(2.0))
    assert const.nu == pytest.approx(np.sqrt(3.0))
    assert const.nu_i[0] ** 2 + const.nu_i[1] ** 2 == pytest.approx(3.0)


@st.composite
def _cournot_games(draw) -> AggregativeGame:
    """Cournot games with positive own curvature a_i + c_price in [0.5, 3],
    boxes that may bind and may collapse to a point (lo == hi)."""
    n = draw(st.integers(1, 4))
    c_price = draw(st.floats(0.0, 2.0))
    curvature = draw(st.lists(st.floats(0.5, 3.0), min_size=n, max_size=n))
    lo = draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))
    width = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
                          min_size=n, max_size=n))
    return AggregativeGame(
        a=tuple(k - c_price for k in curvature),
        b=tuple(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))),
        d=draw(st.floats(0.0, 5.0)), c_price=c_price, lo=tuple(lo),
        hi=tuple(l + w for l, w in zip(lo, width)))


@settings(max_examples=40, deadline=None)
@given(_cournot_games())
def test_closed_form_cournot_oracle_matches_forward_backward(game):
    x_star = solve_ne_oracle(game)
    for alpha in (0.01, 0.1, 1.0):
        assert ne_residual(game, x_star, alpha) <= 1e-12
    consts = monotonicity_constants(game)
    alpha = consts.eta / consts.lip ** 2
    x_fb = _forward_backward(game, alpha, 1e-12, 200_000)
    # x_fb is within its certified bound of the equilibrium; x_star is
    # exact up to rounding.
    assert x_star.distance(x_fb) <= ne_error_bound(game, x_fb) + 1e-13


def test_cournot_with_negative_own_curvature_takes_the_forward_backward_path():
    # a_1 + c_price < 0: the map is still strongly monotone, but player 1's
    # best reply to the aggregate is not a clip of its stationary point.
    game = AggregativeGame(a=(-1.5, 5.0), b=(0.0, 0.0), d=2.0, c_price=1.0,
                           lo=(0.0, 0.0), hi=(1.0, 1.0))
    assert _aggregate_bisection(game) is None
    x_star = solve_ne_oracle(game)
    distance = np.linalg.norm(x_star.vector - [1.0, 1.0 / 7.0])
    assert distance <= ne_error_bound(game, x_star) <= 1e-9


def test_oracle_error_bound_covers_distance_on_unconstrained_quadratic_game():
    game = _reference_game()
    exact = np.linalg.solve(REF_H, -REF_C)
    x_star = solve_ne_oracle(game, tol=1e-6)
    rng = np.random.default_rng(3)
    points = [x_star.vector] + [exact + rng.normal(scale=s, size=2)
                                for s in (1e-8, 1e-3, 1.0)]
    for p in points:
        x = StrategyProfile.from_vector(p, (1, 1))
        assert ne_error_bound(game, x) >= np.linalg.norm(p - exact)


def test_oracle_error_bound_covers_distance_on_symmetric_cournot_game():
    game = AggregativeGame(a=(1.0,) * 5, b=(0.0,) * 5, d=2.0, c_price=1.0,
                           lo=(0.0,) * 5, hi=(1.0,) * 5)
    exact = np.full(5, 2.0 / 7.0)
    consts = monotonicity_constants(game)
    x_fb = _forward_backward(game, consts.eta / consts.lip ** 2, 1e-6, 200_000)
    rng = np.random.default_rng(4)
    points = [x_fb.vector] + [exact + rng.normal(scale=s, size=5)
                              for s in (1e-8, 1e-3, 1.0)]
    for p in points:
        x = StrategyProfile.from_vector(p, (1,) * 5)
        assert ne_error_bound(game, x) >= np.linalg.norm(p - exact)


def test_error_bound_needs_a_condition_number_whose_square_is_finite():
    """Past kappa = 1e154 the bound's factor kappa^2 + kappa overflows, and
    at kappa = 1e170 its inverse (eta / lip)^2 underflows to 0."""
    def game(a_min: float) -> AggregativeGame:
        return AggregativeGame(a=(1.0, a_min), b=(0.0, 0.0), d=2.0,
                               c_price=0.0, lo=(0.0, 0.0), hi=(1.0, 1.0))
    x = StrategyProfile.from_vector(np.array([0.5, 0.5]), (1, 1))
    with pytest.raises(ValueError, match=r"kappa = lip/eta = 1e\+170 must "
                                         r"be below 1e154"):
        ne_error_bound(game(1e-170), x)
    assert np.isfinite(ne_error_bound(game(1e-153), x))


def test_aggregative_regularizers_are_built_once_per_game():
    game = AggregativeGame(a=(1.0, 1.0), b=(0.0, 0.0), d=2.0, c_price=1.0,
                           lo=(0.0, 0.0), hi=(1.0, 1.0))
    assert game.regularizers is game.regularizers


def test_lipschitz_constant_must_keep_its_square_finite():
    """Both game types reject lip >= 1e154, whose square the step bounds
    would overflow, and accept a game just below it."""
    message = "must be below 1e154, so that lip"
    with pytest.raises(ValueError, match=message):
        QuadraticGame(dims=(1, 1), h=np.eye(2) * 1e200, c=np.zeros(2))
    with pytest.raises(ValueError, match=message):
        AggregativeGame(a=(1e308, 1e308), b=(0.0, 0.0), d=2.0, c_price=1.0,
                        lo=(0.0, 0.0), hi=(1.0, 1.0))
    game = QuadraticGame(dims=(1, 1), h=np.eye(2) * 9e153, c=np.zeros(2))
    consts = monotonicity_constants(game)
    assert consts.lip == pytest.approx(9e153, rel=1e-12)
    assert np.isfinite(consts.lip ** 2)
    cournot = AggregativeGame(a=(4e153, 4e153), b=(0.0, 0.0), d=2.0,
                              c_price=1.0, lo=(0.0, 0.0), hi=(1.0, 1.0))
    assert monotonicity_constants(cournot).lip < 1e154

