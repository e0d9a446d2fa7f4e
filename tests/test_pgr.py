from __future__ import annotations

import math

import numpy as np
import pytest

from nashprox import (
    GaussianNoise,
    InvalidStep,
    PgrConfig,
    QuadraticGame,
    StrategyProfile,
    complexity_K,
    complexity_M,
    contraction_factor_q,
    envelope_params,
    generate_quadratic_game,
    monotonicity_constants,
    rate_constants,
    recommended_parameters,
    run_pgr,
    solve_ne_oracle,
)

REF_H = np.array([[2.0, 1.0], [1.0, 2.0]])
REF_C = np.array([-1.0, -1.0])


def _reference_game(nu: float = 0.0) -> QuadraticGame:
    noise = GaussianNoise(nu) if nu > 0 else None
    if noise is None:
        return QuadraticGame(dims=(1, 1), h=REF_H, c=REF_C)
    return QuadraticGame(dims=(1, 1), h=REF_H, c=REF_C, noise=noise)


def test_contraction_factor_values():
    assert contraction_factor_q(1.0, 2.0, 0.25) == pytest.approx(0.75, abs=1e-15)
    assert contraction_factor_q(2.0, 2.0, 0.5) == pytest.approx(0.0, abs=1e-15)


def test_contraction_factor_rejects_steps_outside_stable_range():
    with pytest.raises(InvalidStep):
        contraction_factor_q(1.0, 2.0, 0.6)
    with pytest.raises(InvalidStep):
        contraction_factor_q(1.0, 2.0, 0.5)  # boundary 2*eta/L^2 gives q = 1


def test_rate_constants_envelope_value():
    rc = rate_constants(1.0, 2.0, 0.25, 0.5, 1.0, 1.0)
    assert rc.q == pytest.approx(0.75, abs=1e-15)
    assert rc.c_rho_q == pytest.approx(1.1875, rel=1e-12)
    constant, rate = envelope_params(rc, 0.5)
    assert constant == pytest.approx(1.1875, rel=1e-12)
    assert rate == pytest.approx(0.75, abs=1e-15)


def test_rate_constants_rejects_invalid_rho():
    with pytest.raises(ValueError):
        rate_constants(1.0, 2.0, 0.25, 1.2, 1.0, 1.0)
    with pytest.raises(ValueError):
        rate_constants(1.0, 2.0, 0.25, 0.0, 1.0, 1.0)


def test_rate_constants_rejects_negative_or_overflowing_nu():
    for nu in (-1.0, 1e160, float("nan")):
        with pytest.raises(ValueError, match="nu"):
            rate_constants(1.0, 2.0, 0.25, 0.5, nu, 1.0)


def test_iteration_bound_hand_value():
    rc = rate_constants(1.0, 2.0, 0.25, 0.5, 1.0, 1.0)
    k01 = complexity_K(rc, 0.5, 0.01)
    assert k01 == pytest.approx(math.log(118.75) / math.log(4 / 3), rel=1e-9)
    # the target equal to the envelope constant is reached at iteration zero
    assert complexity_K(rc, 0.5, 1.1875) == 0.0


def test_iteration_bound_is_symmetric_in_rho_and_q():
    # (q, rho) = (0.75, 0.5) and (0.5, 0.75) share the envelope constant and rate
    rc_a = rate_constants(1.0, 2.0, 0.25, 0.5, 1.0, 1.0)
    rc_b = rate_constants(1.0, math.sqrt(2.0), 0.5, 0.75, 0.5, 1.0)
    assert rc_b.q == pytest.approx(0.5, abs=1e-12)
    assert rc_b.c_rho_q == pytest.approx(rc_a.c_rho_q, rel=1e-12)
    assert complexity_K(rc_b, 0.75, 0.01) == pytest.approx(
        complexity_K(rc_a, 0.5, 0.01), rel=1e-12)


def test_oracle_bound_hand_values_both_orderings():
    # sampling-rate-dominated branch: rho > q, exponent one
    rc = rate_constants(1.0, math.sqrt(2.0), 0.5, 0.75, 0.5, 1.0)
    k = complexity_K(rc, 0.75, 0.01)
    m = complexity_M(rc, 0.75, 0.01)
    hand = rc.c_rho_q / (0.75 * math.log(4 / 3) * 0.01) + k
    assert m == pytest.approx(hand, rel=1e-9)
    # contraction-dominated branch: q > rho, exponent ln(1/rho)/ln(1/q)
    rc2 = rate_constants(1.0, 2.0, 0.25, 0.5, 1.0, 1.0)
    k2 = complexity_K(rc2, 0.5, 0.01)
    expo = math.log(2.0) / math.log(4 / 3)
    hand2 = (1.0 / (0.5 * math.log(2.0))) * (rc2.c_rho_q / 0.01) ** expo + k2
    assert complexity_M(rc2, 0.5, 0.01) == pytest.approx(hand2, rel=1e-9)


def test_oracle_bound_at_target_equal_to_constant():
    rc = rate_constants(1.0, math.sqrt(2.0), 0.5, 0.75, 0.5, 1.0)
    assert complexity_M(rc, 0.75, rc.c_rho_q) == pytest.approx(
        1.0 / (0.75 * math.log(4 / 3)), rel=1e-9)


def test_matched_rates_use_the_slowed_envelope():
    # rho equal to q switches to the shifted-rate envelope with its own constant
    rc = rate_constants(1.0, 2.0, 0.25, 0.75, 1.0, 1.0)
    d_hand = 1.0 + 0.0625 / (math.e * math.log(0.875 / 0.75))
    assert rc.rho_tilde == pytest.approx(0.875, abs=1e-15)
    assert rc.d_tilde == pytest.approx(d_hand, rel=1e-12)
    constant, rate = envelope_params(rc, 0.75)
    assert constant == pytest.approx(d_hand, rel=1e-12)
    assert rate == pytest.approx(0.875, abs=1e-15)
    k = complexity_K(rc, 0.75, 0.01)
    assert k == pytest.approx(math.log(d_hand / 0.01) / math.log(1 / 0.875), rel=1e-9)
    expo = math.log(1 / 0.75) / math.log(1 / 0.875)
    m_hand = (1.0 / (0.75 * math.log(4 / 3))) * (d_hand / 0.01) ** expo + k
    assert complexity_M(rc, 0.75, 0.01) == pytest.approx(m_hand, rel=1e-9)


def test_bounds_are_same_order_across_the_branch_boundary():
    # approaching rho -> q from above, compared with the matched-rate branch
    # using the same shifted rate: the iteration bounds agree to ~15% and the
    # oracle bounds stay within one order of magnitude of each other
    delta = 1e-6
    rho_near = 0.75 + delta
    rc_branch = rate_constants(1.0, 2.0, 0.25, rho_near, 1.0, 1.0)
    rc_knife = rate_constants(1.0, 2.0, 0.25, 0.75, 1.0, 1.0, rho_tilde=rho_near)
    k_branch = complexity_K(rc_branch, rho_near, 0.01)
    k_knife = complexity_K(rc_knife, 0.75, 0.01)
    assert 0.85 <= k_knife / k_branch <= 1.15
    m_branch = complexity_M(rc_branch, rho_near, 0.01)
    m_knife = complexity_M(rc_knife, 0.75, 0.01)
    assert 1.0 < m_branch / m_knife < 10.0


def test_recommended_parameters_hit_the_kappa_squared_regime():
    assert recommended_parameters(1.0, 2.0) == pytest.approx((0.25, 0.875))
    assert recommended_parameters(1.0, 1.0) == pytest.approx((1.0, 0.5))
    alpha, rho = recommended_parameters(0.1, 1.0)
    assert (alpha, rho) == pytest.approx((0.1, 0.995))
    # the induced contraction factor is 1 - 1/kappa^2 and sits below rho
    q = contraction_factor_q(0.1, 1.0, alpha)
    assert q == pytest.approx(0.99, abs=1e-12)
    assert q < rho


def test_run_is_deterministic_and_counts_work():
    game = _reference_game(nu=1.0)
    x_star = solve_ne_oracle(game)
    x0 = StrategyProfile.zeros((1, 1))
    config = PgrConfig(alpha=0.2, rho=0.9, max_iter=60, seed=11)
    trace = run_pgr(game, config, x0, x_star=x_star)
    again = run_pgr(game, config, x0, x_star=x_star)
    assert np.array_equal(trace.errors, again.errors)
    assert trace.error_metric == "squared_distance"
    assert trace.errors[0, 0] == pytest.approx(2 / 9, abs=1e-9)
    assert trace.batches[:5] == [2, 2, 2, 2, 2]
    assert all(trace.batches[k] == math.ceil((1 / 0.9) ** (k + 1)) for k in range(60))
    assert trace.counter.total_samples == sum(trace.batches)
    assert np.array_equal(np.cumsum(trace.batches), trace.cum_samples)
    assert trace.counter.prox_evals == 60


def test_noise_free_run_contracts_at_q_every_step():
    game = _reference_game()
    const = monotonicity_constants(game)
    q = contraction_factor_q(const.eta, const.lip, 0.2)
    x_star = solve_ne_oracle(game)
    x0 = StrategyProfile.zeros((1, 1))
    trace = run_pgr(game, PgrConfig(alpha=0.2, rho=0.9, max_iter=30, seed=0),
                    x0, x_star=x_star)
    for k in range(30):
        assert trace.errors[0, k + 1] <= q * trace.errors[0, k] + 1e-12


def test_run_rejects_unstable_step():
    game = _reference_game()
    x0 = StrategyProfile.zeros((1, 1))
    with pytest.raises(InvalidStep):
        run_pgr(game, PgrConfig(alpha=50.0, rho=0.9, max_iter=10, seed=0), x0)


def test_target_accuracy_run_stops_at_the_iteration_bound():
    game = _reference_game(nu=1.0)
    x_star = solve_ne_oracle(game)
    x0 = StrategyProfile.zeros((1, 1))
    config = PgrConfig(alpha=1 / 9, rho=17 / 18, max_iter=500, seed=3, target_eps=1e-3)
    trace = run_pgr(game, config, x0, x_star=x_star)
    rc = rate_constants(1.0, 3.0, 1 / 9, 17 / 18, 1.0, x0.distance(x_star) ** 2)
    assert trace.iterations == math.ceil(complexity_K(rc, 17 / 18, 1e-3))
    with pytest.raises(ValueError):
        run_pgr(game, config, x0)  # a target needs the reference solution


def test_different_seeds_give_different_noisy_trajectories():
    game = _reference_game(nu=1.0)
    x_star = solve_ne_oracle(game)
    x0 = StrategyProfile.zeros((1, 1))
    t1 = run_pgr(game, PgrConfig(alpha=0.2, rho=0.9, max_iter=20, seed=1), x0, x_star=x_star)
    t2 = run_pgr(game, PgrConfig(alpha=0.2, rho=0.9, max_iter=20, seed=2), x0, x_star=x_star)
    assert not np.array_equal(t1.errors, t2.errors)


def test_replication_index_shifts_the_stream():
    game = _reference_game(nu=1.0)
    x_star = solve_ne_oracle(game)
    x0 = StrategyProfile.zeros((1, 1))
    cfg = PgrConfig(alpha=0.2, rho=0.9, max_iter=20, seed=1)
    t0 = run_pgr(game, cfg, x0, x_star=x_star, replications=[0])
    t1 = run_pgr(game, cfg, x0, x_star=x_star, replications=[1])
    assert not np.array_equal(t0.errors, t1.errors)


def test_config_validation():
    with pytest.raises(ValueError):
        PgrConfig(alpha=-0.1, rho=0.9, max_iter=5)
    with pytest.raises(ValueError):
        PgrConfig(alpha=0.1, rho=1.0, max_iter=5)
    with pytest.raises(ValueError):
        PgrConfig(alpha=0.1, rho=0.9, max_iter=0)


def test_noise_free_run_beats_the_envelope_on_random_games():
    for seed in range(4):
        game = generate_quadratic_game(3, 2, 0.4, seed=seed)
        const = monotonicity_constants(game)
        alpha = const.eta / const.lip ** 2
        x_star = solve_ne_oracle(game)
        x0 = StrategyProfile.zeros(game.dims)
        trace = run_pgr(game, PgrConfig(alpha=alpha, rho=0.9, max_iter=40, seed=0),
                        x0, x_star=x_star)
        rc = rate_constants(const.eta, const.lip, alpha, 0.9, 0.0,
                            x0.distance(x_star) ** 2)
        constant, rate = envelope_params(rc, 0.9)
        for k, err in enumerate(trace.errors[0]):
            assert err <= constant * rate ** k + 1e-12
