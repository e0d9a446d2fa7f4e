from __future__ import annotations

import math

import numpy as np
import pytest

from nashprox import (
    DistRateConstants,
    GaussianNoise,
    InvalidStep,
    PgrConfig,
    QuadraticGame,
    contraction_factor_q,
    dist_theory,
    generate_quadratic_game,
    monotonicity_constants,
    pgr_theory,
    recommended_parameters,
    run_pgr,
    solve_ne_oracle,
)
from nashprox.pgr import (geometric_complexity, geometric_envelope,
                          pgr_iterations, power_or_inf)

REF_H = np.array([[2.0, 1.0], [1.0, 2.0]])
REF_C = np.array([-1.0, -1.0])


def _theory(*args):
    """pgr_theory's fields of (eta, lip, alpha, rho, nu, c_start), no eps."""
    return pgr_theory(*args, None)[0]


def _bounds(args, eps, rho_tilde=None):
    """(K(eps), M(eps)) of pgr_theory(*args) under N_k = ceil(rho^{-(k+1)})."""
    theory = pgr_theory(*args, eps, rho_tilde)[0]
    return theory["k_eps"], theory["m_eps"]


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
    theory, (constant, rate) = pgr_theory(1.0, 2.0, 0.25, 0.5, 1.0, 1.0,
                                          None)
    assert theory["q"] == pytest.approx(0.75, abs=1e-15)
    assert theory["c_rho_q"] == pytest.approx(1.1875, rel=1e-12)
    assert theory["d_tilde"] is None and theory["rho_tilde"] is None
    assert "k_eps" not in theory and "m_eps" not in theory
    assert constant == pytest.approx(1.1875, rel=1e-12)
    assert rate == pytest.approx(0.75, abs=1e-15)


def test_rate_constants_rejects_invalid_rho():
    with pytest.raises(ValueError):
        _theory(1.0, 2.0, 0.25, 1.2, 1.0, 1.0)
    with pytest.raises(ValueError):
        _theory(1.0, 2.0, 0.25, 0.0, 1.0, 1.0)


def test_rate_constants_rejects_negative_or_overflowing_nu():
    for nu in (-1.0, 1e160, float("nan")):
        with pytest.raises(ValueError, match="nu"):
            _theory(1.0, 2.0, 0.25, 0.5, nu, 1.0)


def test_iteration_bound_hand_value():
    args = (1.0, 2.0, 0.25, 0.5, 1.0, 1.0)
    k01 = _bounds(args, 0.01)[0]
    assert k01 == pytest.approx(math.log(118.75) / math.log(4 / 3), rel=1e-9)
    # the target equal to the envelope constant is reached at iteration zero
    assert _bounds(args, 1.1875)[0] == 0.0


def test_iteration_bound_stays_finite_when_only_constant_over_eps_overflows():
    # constant / eps is past the float range, its logarithm is about 1,150
    args = (1.0, 3.0, 0.1111, 0.9444, 1e150, 1.0)
    _, (constant, rate) = pgr_theory(*args, None)
    assert constant / 1e-200 == math.inf
    hand = (math.log(constant) - math.log(1e-200)) / math.log(1.0 / rate)
    assert _bounds(args, 1e-200)[0] == pytest.approx(hand, rel=1e-12)
    assert 1.9e4 < hand < 2.1e4
    assert _bounds(args, 1e-200)[1] == math.inf
    drc = DistRateConstants(varrho=0.8, c1=0.0, c2=0.0, c3=1e300,
                            m_compact=1.0, beta=0.5, theta=1.0)
    out, (constant, rate) = dist_theory(drc, 1.0, 1e-200)
    assert out["k_eps"] == pytest.approx(
        (math.log(constant) - math.log(1e-200)) / math.log(1.0 / rate),
        rel=1e-12)
    assert out["m_eps"] == math.inf


def test_a_zero_envelope_needs_no_iterations_and_no_samples():
    assert geometric_complexity(0.0, 0.9, 0.8, 1e-3) == (0.0, 0.0)
    assert _bounds((1.0, 3.0, 0.1, 0.95, 0.0, 0.0), 1e-3) == (0.0, 0.0)
    # a noise-free run from x* is cut to the one iteration a run makes
    game = _reference_game()
    x_star = solve_ne_oracle(game)
    theory = pgr_theory(1.0, 3.0, 0.2, 0.9, 0.0, 0.0, 1e-3)[0]
    assert theory["k_eps"] == 0.0 and pgr_iterations(theory, 30) == 1
    trace = run_pgr(game, PgrConfig(alpha=0.2, rho=0.9, max_iter=1), x_star,
                    x_star)
    assert trace.iterations == 1
    assert trace.errors.shape == (1, 2) and trace.errors[0, 0] == 0.0


def test_iteration_bound_is_symmetric_in_rho_and_q():
    # (q, rho) = (0.75, 0.5) and (0.5, 0.75) share the envelope constant and rate
    a = (1.0, 2.0, 0.25, 0.5, 1.0, 1.0)
    b = (1.0, math.sqrt(2.0), 0.5, 0.75, 0.5, 1.0)
    assert _theory(*b)["q"] == pytest.approx(0.5, abs=1e-12)
    assert _theory(*b)["c_rho_q"] == pytest.approx(_theory(*a)["c_rho_q"],
                                                   rel=1e-12)
    assert _bounds(b, 0.01)[0] == pytest.approx(_bounds(a, 0.01)[0],
                                                rel=1e-12)


def test_oracle_bound_hand_values_both_orderings():
    # sampling-rate-dominated branch: rho > q, exponent one
    args = (1.0, math.sqrt(2.0), 0.5, 0.75, 0.5, 1.0)
    k, m = _bounds(args, 0.01)
    hand = _theory(*args)["c_rho_q"] / (0.75 * math.log(4 / 3) * 0.01) + k
    assert m == pytest.approx(hand, rel=1e-9)
    # contraction-dominated branch: q > rho, exponent ln(1/rho)/ln(1/q)
    args2 = (1.0, 2.0, 0.25, 0.5, 1.0, 1.0)
    k2, m2 = _bounds(args2, 0.01)
    expo = math.log(2.0) / math.log(4 / 3)
    c_rho_q = _theory(*args2)["c_rho_q"]
    hand2 = (1.0 / (0.5 * math.log(2.0))) * (c_rho_q / 0.01) ** expo + k2
    assert m2 == pytest.approx(hand2, rel=1e-9)


def test_oracle_bound_at_target_equal_to_constant():
    args = (1.0, math.sqrt(2.0), 0.5, 0.75, 0.5, 1.0)
    assert _bounds(args, _theory(*args)["c_rho_q"])[1] == pytest.approx(
        1.0 / (0.75 * math.log(4 / 3)), rel=1e-9)


def test_matched_rates_use_the_slowed_envelope():
    # rho equal to q switches to the shifted-rate envelope with its own constant
    args = (1.0, 2.0, 0.25, 0.75, 1.0, 1.0)
    theory, (constant, rate) = pgr_theory(*args, None)
    d_hand = 1.0 + 0.0625 / (math.e * math.log(0.875 / 0.75))
    assert theory["rho_tilde"] == pytest.approx(0.875, abs=1e-15)
    assert theory["d_tilde"] == pytest.approx(d_hand, rel=1e-12)
    assert theory["c_rho_q"] is None
    assert constant == pytest.approx(d_hand, rel=1e-12)
    assert rate == pytest.approx(0.875, abs=1e-15)
    k = _bounds(args, 0.01)[0]
    assert k == pytest.approx(math.log(d_hand / 0.01) / math.log(1 / 0.875), rel=1e-9)
    expo = math.log(1 / 0.75) / math.log(1 / 0.875)
    m_hand = (1.0 / (0.75 * math.log(4 / 3))) * (d_hand / 0.01) ** expo + k
    assert _bounds(args, 0.01)[1] == pytest.approx(m_hand, rel=1e-9)


def test_bounds_are_same_order_across_the_branch_boundary():
    # approaching rho -> q from above, compared with the matched-rate branch
    # using the same shifted rate: the iteration bounds agree to ~15% and the
    # oracle bounds stay within one order of magnitude of each other
    delta = 1e-6
    rho_near = 0.75 + delta
    k_branch, m_branch = _bounds((1.0, 2.0, 0.25, rho_near, 1.0, 1.0), 0.01)
    k_knife, m_knife = _bounds((1.0, 2.0, 0.25, 0.75, 1.0, 1.0), 0.01,
                               rho_tilde=rho_near)
    assert 0.85 <= k_knife / k_branch <= 1.15
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


def test_calculators_reject_squares_past_the_float_range_before_squaring():
    """A Python float power raises OverflowError where it overflows, which
    no caller reports; alpha, kappa and a tiny lip are checked first."""
    with pytest.raises(InvalidStep, match=r"alpha=1e\+300 outside \(0, "
                                          r"2 eta/lip\^2\)"):
        contraction_factor_q(1.0, 3.0, 1e300)
    with pytest.raises(ValueError, match=r"kappa = lip/eta = 1e\+200 must be "
                                         r"below 1e154"):
        recommended_parameters(1e-200, 1.0)
    # 2 eta / lip^2 = 2e200 would admit alpha = 1e190, whose square overflows
    with pytest.raises(ValueError, match="must be above 1e-150"):
        contraction_factor_q(1e-200, 1e-200, 1e190)


@pytest.mark.parametrize("base,exponent", [
    (np.float64(1e300), 2.0), (1e300, np.float64(2.0)),
    (np.float64(1e300), np.float64(2.0)), (np.float64(1e200), 2)])
def test_power_or_inf_returns_inf_quietly_for_numpy_floats(base, exponent):
    """numpy's scalar power warns where a Python float power raises
    OverflowError; a RuntimeWarning is an error under pytest here."""
    assert power_or_inf(base, exponent) == math.inf
    value = power_or_inf(np.float64(3.0), np.float64(2.0))
    assert type(value) is float and value == 9.0


def test_run_is_deterministic_and_counts_work():
    game = _reference_game(nu=1.0)
    x_star = solve_ne_oracle(game)
    x0 = np.zeros(2)
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
    x0 = np.zeros(2)
    trace = run_pgr(game, PgrConfig(alpha=0.2, rho=0.9, max_iter=30, seed=0),
                    x0, x_star=x_star)
    for k in range(30):
        assert trace.errors[0, k + 1] <= q * trace.errors[0, k] + 1e-12


def test_run_rejects_unstable_step():
    game = _reference_game()
    x0 = np.zeros(2)
    with pytest.raises(InvalidStep):
        run_pgr(game, PgrConfig(alpha=50.0, rho=0.9, max_iter=10, seed=0), x0)


def test_target_accuracy_run_stops_at_the_iteration_bound():
    game = _reference_game(nu=1.0)
    x_star = solve_ne_oracle(game)
    x0 = np.zeros(2)
    args = (1.0, 3.0, 1 / 9, 17 / 18, 1.0,
            float(np.linalg.norm(x0 - x_star)) ** 2)
    theory = pgr_theory(*args, 1e-3)[0]
    n_iter = pgr_iterations(theory, 500)
    assert n_iter == math.ceil(theory["k_eps"]) < 500
    # a max_iter below K(eps), or no eps, leaves the run uncut
    assert pgr_iterations(theory, n_iter - 1) == n_iter - 1
    assert pgr_iterations(pgr_theory(*args, None)[0], 500) == 500
    config = PgrConfig(alpha=1 / 9, rho=17 / 18, max_iter=n_iter, seed=3)
    assert run_pgr(game, config, x0, x_star=x_star).iterations == n_iter


def test_different_seeds_give_different_noisy_trajectories():
    game = _reference_game(nu=1.0)
    x_star = solve_ne_oracle(game)
    x0 = np.zeros(2)
    t1 = run_pgr(game, PgrConfig(alpha=0.2, rho=0.9, max_iter=20, seed=1), x0, x_star=x_star)
    t2 = run_pgr(game, PgrConfig(alpha=0.2, rho=0.9, max_iter=20, seed=2), x0, x_star=x_star)
    assert not np.array_equal(t1.errors, t2.errors)


def test_replication_index_shifts_the_stream():
    game = _reference_game(nu=1.0)
    x_star = solve_ne_oracle(game)
    x0 = np.zeros(2)
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
        x0 = np.zeros(game.dim)
        trace = run_pgr(game, PgrConfig(alpha=alpha, rho=0.9, max_iter=40, seed=0),
                        x0, x_star=x_star)
        _, (constant, rate) = pgr_theory(
            const.eta, const.lip, alpha, 0.9, 0.0,
            float(np.linalg.norm(x0 - x_star)) ** 2, None)
        for k, err in enumerate(trace.errors[0]):
            assert err <= constant * rate ** k + 1e-12


@pytest.mark.parametrize("call,error,message", [
    # 1 - 2e-20 + 1e-40 rounds to 1.0, though alpha is in range
    (lambda: contraction_factor_q(1.0, 1.0, 1e-20), InvalidStep,
     "alpha=1e-20 gives contraction factor q=1.0 >= 1; need alpha in "
     "(0, 2.0)"),
    (lambda: geometric_envelope(1.0, 1.0, 0.5, 0.5, 0.5), ValueError,
     "rho_tilde must lie in (0.5, 1), got 0.5"),
    (lambda: geometric_envelope(1.0, 1.0, 0.5, 0.5, 1.0), ValueError,
     "rho_tilde must lie in (0.5, 1), got 1.0"),
    (lambda: geometric_complexity(1.0, 0.5, 0.5, 0.0), ValueError,
     "eps must be > 0, got 0.0"),
    (lambda: geometric_complexity(1.0, 0.5, 0.5, -1.0), ValueError,
     "eps must be > 0, got -1.0"),
    (lambda: recommended_parameters(0.0, 1.0), ValueError,
     "need 0 < eta <= lip < 1e154, got eta=0.0, lip=1.0"),
    (lambda: recommended_parameters(2.0, 1.0), ValueError,
     "need 0 < eta <= lip < 1e154, got eta=2.0, lip=1.0"),
], ids=["q-rounds-to-1", "rho-tilde-at-the-rate", "rho-tilde-at-1",
        "eps-zero", "eps-negative", "recommended-eta-zero",
        "recommended-eta-above-lip"])
def test_the_pgr_calculators_reject_inputs_outside_their_range(
        call, error, message):
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error and str(err.value) == message
