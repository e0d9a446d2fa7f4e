from __future__ import annotations

import itertools
import json
import math
import warnings
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nashprox import (
    GaussianNoise,
    PbrConfig,
    QuadraticGame,
    br_noise_gain,
    contraction_certificate,
    generate_quadratic_game,
    monotonicity_constants,
    pbr_complexity,
    proximal_best_response,
    run_pbr,
    saa_best_response,
    solve_ne_oracle,
)
from nashprox.best_response import resolved_schedule
from nashprox.noise import iteration_errors
from nashprox.sampling import BestResponseBatch
from nashprox.errors import InnerSolveFailure
from nashprox.profiles import StrategyProfile
from nashprox.serialize import build_game

GOLDEN = Path(__file__).parent / "golden"

REF_H = np.array([[2.0, 1.0], [1.0, 2.0]])
REF_C = np.array([-1.0, -1.0])


def _reference_game(nu: float = 0.0) -> QuadraticGame:
    if nu > 0:
        return QuadraticGame(dims=(1, 1), h=REF_H, c=REF_C, noise=GaussianNoise(nu))
    return QuadraticGame(dims=(1, 1), h=REF_H, c=REF_C)


def test_certificate_on_the_reference_game():
    cert = contraction_certificate(_reference_game(), 1.0)
    assert np.allclose(cert.gamma, np.full((2, 2), 1 / 3), atol=1e-12)
    assert cert.a == pytest.approx(2 / 3, rel=1e-12)
    assert cert.zeta_min == pytest.approx((2.0, 2.0))


def test_certificate_decoupled_game():
    game = QuadraticGame(dims=(1, 1), h=np.eye(2), c=np.zeros(2))
    cert = contraction_certificate(game, 1.0)
    assert cert.a == pytest.approx(0.5, rel=1e-12)
    assert np.allclose(cert.gamma, 0.5 * np.eye(2), atol=1e-15)


def test_certificate_reports_uncontractive_coupling_without_raising():
    # skew coupling keeps the game strongly monotone while the best-response
    # map fails the norm condition; the certificate only reports the value
    game = QuadraticGame(dims=(1, 1), h=np.array([[1.0, 10.0], [-10.0, 1.0]]),
                         c=np.zeros(2))
    cert = contraction_certificate(game, 1.0)
    assert cert.a == pytest.approx(5.5, rel=1e-12)


def test_certificate_requires_positive_anchored_curvature():
    with pytest.raises(ValueError):
        contraction_certificate(_reference_game(), 0.0)


def test_noise_gain_hand_value():
    mu, lip = 1.0, 2.0
    hand = (mu / (mu ** 2 + lip ** 2)) / (1.0 - lip / math.sqrt(mu ** 2 + lip ** 2))
    assert br_noise_gain(mu, lip) == pytest.approx(hand, rel=1e-12)
    assert br_noise_gain(1.0, 2.0) == pytest.approx(1.8944271909999155, rel=1e-9)


def test_noise_gain_has_no_cancellation_for_small_mu():
    # reference: the defining formula in 80-digit decimal arithmetic
    with localcontext() as ctx:
        ctx.prec = 80
        for mu, lip in [(1.0, 2.0), (1e-6, 3.0), (1e-8, 2.5), (0.3, 1e-9),
                        (1e3, 1.0), (2.0, 0.0)]:
            m, l = Decimal(mu), Decimal(lip)
            s = (m * m + l * l).sqrt()
            exact = (m / (m * m + l * l)) / (1 - l / s)
            assert br_noise_gain(mu, lip) == pytest.approx(float(exact),
                                                           rel=1e-15)
    assert br_noise_gain(1e-6, 3.0) == pytest.approx(2.0e6, rel=1e-12)
    for mu in (1e-300, 1e300):
        assert math.isfinite(br_noise_gain(mu, 3.0))
    assert br_noise_gain(1e-300, 3.0) == pytest.approx(2e300, rel=1e-15)
    assert br_noise_gain(1e300, 3.0) == pytest.approx(1e-300, rel=1e-15)


# Each rejected limit of the best-response calls and its message, in the
# order in which the checks run.
_LIMITS = (
    ({"batch": 0}, r"batch size must be >= 1, got 0"),
    ({"mu": 0.0}, r"mu must be finite and > 0, got 0\.0"),
    ({"tol": 0.0}, r"inner tolerance must be > 0, got 0\.0"),
    ({"tol": -1e-12}, r"inner tolerance must be > 0, got -1e-12"),
    ({"tol": math.nan}, r"inner tolerance must be > 0, got nan"),
    ({"max_inner": 0}, r"max_inner must be >= 1, got 0"),
    ({"y": np.zeros(3)}, r"vector of shape \(3,\) does not match game "
                         r"dimension 2"),
    ({"y": [0.0, 0.0]}, r"vector of type list does not match game "
                        r"dimension 2: it must be a numpy array of shape "
                        r"\(2,\)"),
    ({"error": np.zeros(2)}, r"error must be an array of player 0's block "
                             r"shape \(1,\), got shape \(2,\)"),
)


def _best_response_calls(game, bad):
    """saa_best_response, and proximal_best_response unless `bad` sets an
    argument it does not take, on the reference game with `bad` in place."""
    a = {"y": np.zeros(2), "batch": 4, "mu": 1.0, "error": np.zeros(1),
         "tol": 1e-12, "max_inner": 100_000, **bad}
    yield lambda: saa_best_response(game, 0, a["y"], a["batch"], a["mu"],
                                    a["error"], a["tol"], a["max_inner"])
    if "batch" not in bad and "error" not in bad:
        yield lambda: proximal_best_response(game, 0, a["y"], a["mu"],
                                             a["tol"], a["max_inner"])


def test_inner_solve_limits_are_validated():
    """Every rejected limit raises its own message, on a game whose solver
    cache is empty (cold) or filled by an earlier call (warm); where two
    limits fail, the earlier check's message wins."""
    for warm, (j, (bad, message)) in itertools.product(
            (False, True), enumerate(_LIMITS)):
        for other, _ in ((({}, None),) + _LIMITS[j + 1:]):
            game = _reference_game()
            if warm:
                saa_best_response(game, 0, np.zeros(2), 4, 1.0, np.zeros(1))
            for call in _best_response_calls(game, {**other, **bad}):
                with pytest.raises(ValueError, match=f"^{message}$"):
                    call()
    with pytest.raises(InnerSolveFailure):
        proximal_best_response(_reference_game(), 0, np.zeros(2), 1.0,
                               max_inner=1)


@pytest.mark.parametrize("mu", [0.0, -0.5, math.inf, math.nan],
                         ids=["zero", "negative", "inf", "nan"])
def test_saa_best_response_rejects_a_mu_that_is_not_finite_and_positive(mu):
    """K = Q_ii + mu I must be positive definite: the Newton step solves
    with it unguarded. On the pbr-quad50 game, mu = 0 and -0.5 once
    returned a point and inf failed with a misleading prox-step error."""
    doc = json.loads((GOLDEN / "pbr-quad50-seed1" / "config.json").read_text())
    game = build_game(doc["game"])
    y, error = np.zeros(game.dim), np.zeros(game.dims[0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="mu must be finite and > 0"):
            saa_best_response(game, 0, y, 4, mu, error)


def test_exact_best_response_scalar_closed_form():
    game = _reference_game()
    y = np.array([0.2, 0.4])
    out = proximal_best_response(game, 0, y, 1.0)
    # anchored scalar quadratic: (mu y_i - c_i - q_ij y_j) / (mu + q_ii)
    hand = (1.0 * 0.2 - (-1.0 + 1.0 * 0.4)) / (1.0 + 2.0)
    assert out[0] == pytest.approx(hand, abs=1e-11)
    # the stacked vector is the only strategy type: a profile of the same
    # point, a list and a size-1 vector numpy would broadcast are rejected
    profile = StrategyProfile.from_vector(y, (1, 1))
    for wrong in (np.zeros(3), np.zeros((2, 1)), profile, [0.2, 0.4],
                  np.zeros(1)):
        with pytest.raises(ValueError, match="does not match game dimension"):
            proximal_best_response(game, 0, wrong, 1.0)


def test_exact_best_response_fixes_the_equilibrium():
    game = _reference_game()
    x_star = solve_ne_oracle(game)
    for i in range(2):
        out = proximal_best_response(game, i, x_star, 1.0)
        assert abs(out[0] - x_star[i]) <= 1e-11


def test_componentwise_contraction_of_exact_best_responses():
    rng = np.random.default_rng(17)
    for seed in range(10):
        game = generate_quadratic_game(3, 2, 0.25, seed=seed)
        cert = contraction_certificate(game, 1.0)
        assert cert.a < 1.0
        for _ in range(5):
            y = rng.normal(size=6)
            z = rng.normal(size=6)
            dist = np.array([np.linalg.norm(y[sl] - z[sl])
                             for sl in map(game.block_slice, range(3))])
            bound = cert.gamma @ dist
            for i in range(3):
                move = np.linalg.norm(proximal_best_response(game, i, y, 1.0)
                                      - proximal_best_response(game, i, z, 1.0))
                assert move <= bound[i] + 1e-10


def test_sampled_best_response_with_zero_noise_equals_the_exact_one():
    game = _reference_game()
    y = np.array([0.2, 0.4])
    exact = proximal_best_response(game, 0, y, 1.0)
    sampled = saa_best_response(game, 0, y, 100, 1.0, np.zeros(1))
    assert np.array_equal(sampled, exact)


def test_sampled_best_response_error_obeys_the_variance_bound():
    # per-player observation noise nu_i = 1; the sampled subproblem solution
    # deviates from the exact one by at most gain^2 nu_i^2 / batch in mean square
    game = _reference_game(nu=math.sqrt(2.0))
    y = np.zeros(2)
    exact = proximal_best_response(game, 0, y, 1.0)
    gain = br_noise_gain(1.0, 2.0)
    nu_i = monotonicity_constants(game).nu_i
    for batch in (4, 16, 64):
        devs = []
        # player 0's block of row 0 of replications 0..499 of seed 0
        for error in next(iteration_errors(nu_i, game.dims, 0, range(500),
                                           [batch]))[:, :1]:
            out = saa_best_response(game, 0, y, batch, 1.0, error)
            devs.append(float(np.sum((out - exact) ** 2)))
        devs = np.array(devs)
        bound = gain ** 2 * 1.0 / batch
        stderr = devs.std(ddof=1) / math.sqrt(len(devs))
        assert devs.mean() <= bound + 2 * stderr


def test_schedule_resolution_uses_calibrated_noise_and_gain():
    game = _reference_game(nu=math.sqrt(2.0))
    config = PbrConfig(mu=1.0, eta_br=0.7, max_iter=10, seed=5)
    sched = resolved_schedule(game, config)
    assert sched.m_max == pytest.approx(1.0, rel=1e-12)
    assert sched.c_r == pytest.approx(br_noise_gain(1.0, 2.0), rel=1e-12)
    assert [sched.size(k) for k in range(4)] == [4, 8, 15, 31]


@pytest.mark.parametrize("mu", [1e-12, 1e-3, 1.0, 1e3, 1e12])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_default_batch_constant_covers_the_subproblem_noise(mu, seed):
    """m_max * c_r must be at least max_i nu_i / (mu + zeta_min_i); the
    defaults meet it at every mu, and a smaller m_max or c_r stops
    run_pbr before its first iteration."""
    game = generate_quadratic_game(3, 2, 0.4, seed=seed, nu=0.7)
    need = max(nu / (mu + lo) for nu, (lo, _) in
               zip(game.constants.nu_i, game.own_spectra))
    sched = resolved_schedule(game, PbrConfig(mu=mu, eta_br=0.7, max_iter=1))
    assert sched.m_max * sched.c_r >= need
    for cut in ({"m_max": 0.0}, {"c_r": 0.5 * need / sched.m_max}):
        config = PbrConfig(mu=mu, eta_br=0.7, max_iter=1, **cut)
        with pytest.raises(ValueError, match="batch constant m_max \\* c_r"):
            run_pbr(game, config, np.zeros(game.dim))


def test_run_records_norm_errors_and_exact_counters():
    game = _reference_game(nu=math.sqrt(2.0))
    x_star = solve_ne_oracle(game)
    x0 = np.zeros(2)
    config = PbrConfig(mu=1.0, eta_br=0.7, max_iter=12, seed=5)
    trace = run_pbr(game, config, x0, x_star=x_star)
    assert trace.error_metric == "distance"
    assert trace.errors[0, 0] == pytest.approx(math.sqrt(2 / 9), abs=1e-9)
    assert trace.counter.total_samples == 2 * sum(trace.batches)
    assert trace.counter.inner_solves == 2 * 12
    again = run_pbr(game, config, x0, x_star=x_star)
    assert np.array_equal(trace.errors, again.errors)


def test_noise_free_run_contracts_at_the_certificate_rate():
    game = _reference_game()
    cert = contraction_certificate(game, 1.0)
    x_star = solve_ne_oracle(game)
    x0 = np.zeros(2)
    trace = run_pbr(game, PbrConfig(mu=1.0, eta_br=0.7, max_iter=20, seed=5,
                                    m_max=1.0, c_r=1.0), x0, x_star=x_star)
    for k in range(20):
        assert trace.errors[0, k + 1] <= cert.a * trace.errors[0, k] + 1e-10


def test_run_started_at_the_equilibrium_stays_there():
    game = _reference_game()
    x_star = solve_ne_oracle(game)
    trace = run_pbr(game, PbrConfig(mu=1.0, eta_br=0.7, max_iter=15,
                                    m_max=1.0, c_r=1.0), x_star, x_star=x_star)
    assert max(trace.errors[0]) <= 1e-10


def test_uncontractive_game_is_rejected():
    game = QuadraticGame(dims=(1, 1), h=np.array([[1.0, 10.0], [-10.0, 1.0]]),
                         c=np.zeros(2))
    x0 = np.zeros(2)
    config = PbrConfig(mu=1.0, eta_br=0.7, max_iter=3, m_max=1.0, c_r=1.0)
    with pytest.raises(ValueError, match="not certified contractive"):
        run_pbr(game, config, x0)


def test_iteration_bound_hand_value():
    config = PbrConfig(mu=1.0, eta_br=0.7, max_iter=100, eta_tilde=0.75,
                       m_max=1.0, c_r=1.0)
    out = pbr_complexity(config, a=2 / 3, eps=0.01, n_players=2, c_start=1.0)
    d = 1.0 / (math.e * math.log(0.75 / 0.7))
    k_hand = math.ceil(math.log(math.sqrt(2.0) * (1.0 + d) / 0.01) / math.log(1 / 0.75))
    assert out.k_eps == k_hand == 24
    order_hand = (math.sqrt(2.0) * (1.0 + d) / 0.01) ** (2 * math.log(1 / 0.7) / math.log(1 / 0.75))
    assert out.order_value == pytest.approx(order_hand, rel=1e-9)


def test_sample_total_is_the_exact_schedule_sum():
    # five iterations of the unit schedule at ratio one half cost
    # 2 * (1 + 4 + 16 + 64 + 256) samples across two players
    config = PbrConfig(mu=1.0, eta_br=0.5, max_iter=100, eta_tilde=5 / 6,
                       m_max=1.0, c_r=1.0)
    d = 1.0 / (math.e * math.log((5 / 6) / (2 / 3)))
    env0 = math.sqrt(2.0) * (1.0 + d)
    eps = env0 * (5 / 6) ** 5 * 1.0000001
    out = pbr_complexity(config, a=2 / 3, eps=eps, n_players=2, c_start=1.0)
    assert out.k_eps == 5
    assert out.samples == 682
    at_start = pbr_complexity(config, a=2 / 3, eps=env0, n_players=2, c_start=1.0)
    assert at_start.k_eps == 0
    assert at_start.samples == 0


def test_complexity_requires_a_resolved_schedule():
    config = PbrConfig(mu=1.0, eta_br=0.7, max_iter=10)
    with pytest.raises(ValueError):
        pbr_complexity(config, a=2 / 3, eps=0.01, n_players=2, c_start=1.0)


def test_default_shifted_rate_splits_the_gap_to_one():
    game = _reference_game(nu=math.sqrt(2.0))
    x_star = solve_ne_oracle(game)
    x0 = np.zeros(2)
    config = PbrConfig(mu=1.0, eta_br=0.7, max_iter=100, m_max=1.0, c_r=1.0)
    # max(a, eta_br) = 0.7 so the default shifted rate is 0.85
    out = pbr_complexity(config, a=2 / 3, eps=0.5, n_players=2, c_start=1.0)
    d = 1.0 / (math.e * math.log(0.85 / 0.7))
    k_hand = math.ceil(math.log(math.sqrt(2.0) * (1.0 + d) / 0.5) / math.log(1 / 0.85))
    assert out.k_eps == k_hand


def _loop_total(schedule, n):
    """The reference schedule sum: size(k) one k at a time, infinite
    where a batch or the sum overflows a float."""
    try:
        total = sum(schedule.size(k) for k in range(n))
        float(total)
        return total
    except OverflowError:
        return math.inf


@settings(max_examples=300, deadline=None)
@given(m_max=st.sampled_from((0.0, 1.0, 0.5)) | st.floats(0.0, 1e3)
       | st.floats(1e100, 1e200),
       c_r=st.sampled_from((1.0, 2.0)) | st.floats(1e-6, 1e3),
       eta_br=st.sampled_from((0.5, 0.25, 0.9)) | st.floats(0.01, 0.9999),
       n=st.integers(0, 400))
def test_batch_total_equals_the_per_k_loop(m_max, c_r, eta_br, n):
    """Exact wherever every batch is below 2^32 or one overflows; above
    2^32 the batches come from np.power and are summed in floats."""
    schedule = BestResponseBatch(m_max=m_max, c_r=c_r, eta_br=eta_br)
    want = _loop_total(schedule, n)
    try:
        got = schedule.total(n)
    except OverflowError:
        got = math.inf
    if want == math.inf or n == 0 or schedule.size(n - 1) < 2 ** 32:
        assert got == want
    else:
        assert got == pytest.approx(want, rel=1e-14)


def test_batch_total_past_the_float_range_raises_without_a_warning():
    """Every batch below k = 3365 is finite, their sum is not: the
    OverflowError that pbr_complexity reports as Infinity comes with no
    numpy RuntimeWarning."""
    schedule = BestResponseBatch(m_max=1.0, c_r=1.0, eta_br=0.9)
    assert math.isfinite(schedule.size(3364))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError):
            schedule.total(3365)


# np.power (SVML on AVX-512) and the scalar pow round eta_br^(-2k) an ulp
# apart here, which puts m_max^2 eta_br^(-2k) on both sides of an integer
@pytest.mark.parametrize("m_max,eta_br,k", [
    (199.26668856005162, 0.8, 6), (392.1684773700256, 0.95, 4),
    (44.16192488944523, 0.95, 50)])
def test_batch_total_is_exact_where_an_ulp_moves_a_batch(m_max, eta_br, k):
    schedule = BestResponseBatch(m_max=m_max, c_r=1.0, eta_br=eta_br)
    assert schedule.total(k + 1) == _loop_total(schedule, k + 1)


def test_complexity_near_eta_br_one_is_fast_and_matches_the_loop():
    # eta_br = 0.999999 and eps = 1e-3 give k_eps = 41,525,963; the per-k
    # loop took 16 s for this sum on a 2-vCPU VM (50.7 s through the CLI),
    # and gave 4206940740105320469573366437542859785038862
    import time
    config = PbrConfig(mu=1.0, eta_br=0.999999, max_iter=2,
                       m_max=1.0000000000000002, c_r=1.8944271909999157)
    start = time.perf_counter()
    out = pbr_complexity(config, a=2 / 3, eps=1e-3, n_players=2,
                         c_start=0.3333333333321395)
    elapsed = time.perf_counter() - start
    assert out.k_eps == 41_525_963
    loop = 4206940740105320469573366437542859785038862
    assert abs(out.samples - loop) <= 1e-15 * loop
    assert elapsed < 10.0


def test_an_error_not_of_the_player_s_block_shape_is_rejected_naming_it():
    """A scalar, a size-1 array, a stack of rows, another length or None
    would broadcast into the linear term, or fail naming no argument."""
    game = generate_quadratic_game(n_players=3, dim=2, coupling_strength=0.5,
                                   seed=1)
    y = np.zeros(game.dim)
    for error in (0.5, np.array([0.5]), np.zeros((2, 2)), np.zeros(3),
                  np.zeros(game.dim), [0.0, 0.0], None):
        with pytest.raises(ValueError, match=(
                r"^error must be an array of player 1's block shape \(2,\), "
                r"got shape ")):
            saa_best_response(game, 1, y, 5, 1.0, error)


@pytest.mark.parametrize("i", [-1, 3, 1.0])
@pytest.mark.parametrize("solve", ["proximal", "saa"])
def test_a_player_index_outside_the_game_is_rejected_before_it_is_cached(
        solve: str, i):
    """-1 would cache an empty block slice; 3 would index past the last,
    and 1.0 is no index."""
    game = generate_quadratic_game(n_players=3, dim=2, coupling_strength=0.5,
                                   seed=1)
    y = np.zeros(game.dim)
    with pytest.raises(ValueError, match=(
            rf"^player index must be an integer in \[0, 3\) for a 3-player "
            rf"game, got {i!r}$")):
        if solve == "proximal":
            proximal_best_response(game, i, y, 1.0)
        else:
            saa_best_response(game, i, y, 5, 1.0, np.zeros(2))
    assert game.solver_cache == {}
    proximal_best_response(game, np.int64(2), y, 1.0)
