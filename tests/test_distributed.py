from __future__ import annotations

import json
import math

import numpy as np
import pytest

from nashprox import distributed
from nashprox.cli import main
from nashprox import (
    AggregativeGame,
    DistConfig,
    DistRateConstants,
    GaussianNoise,
    InvalidStep,
    PgrConfig,
    QuadraticGame,
    RootGeometricBatch,
    complete_graph,
    consensus_apply,
    dist_complexity,
    dist_envelope_params,
    dist_rate_constants,
    mixing_params,
    monotonicity_constants,
    prox_apply,
    ring_graph,
    run_dist_pgr,
    run_pgr,
    solve_ne_oracle,
    substream,
)


def _two_player_game() -> AggregativeGame:
    noises = (GaussianNoise(0.0),) * 2
    return AggregativeGame(a=(1.0, 1.0), b=(0.0, 0.0), d=2.0, c_price=1.0,
                           lo=(0.0, 0.0), hi=(1.0, 1.0), noises=noises)


def _five_player_game(nu_i: float = 0.0) -> AggregativeGame:
    noises = (GaussianNoise(nu_i),) * 5
    return AggregativeGame(a=(1.0,) * 5, b=(0.0,) * 5, d=2.0, c_price=1.0,
                           lo=(0.0,) * 5, hi=(1.0,) * 5, noises=noises)


def test_noise_free_complete_graph_run_collapses_to_the_centralized_run():
    game = _two_player_game()
    x_star = solve_ne_oracle(game)
    graph = complete_graph(2)
    # matching schedules: ceil(0.25^-(k+1)/2) equals ceil(0.5^-(k+1))
    dist = run_dist_pgr(game, graph, DistConfig(alpha=0.05, max_iter=25, beta=0.25, seed=4),
                        x_star=x_star)
    mid = np.array([0.5, 0.5])
    central = run_pgr(game, PgrConfig(alpha=0.05, rho=0.5, max_iter=25, seed=4),
                      mid, x_star=x_star)
    assert dist.batches == central.batches
    assert np.array_equal(dist.errors, central.errors)
    assert np.array_equal(dist.final, central.final)


def test_tracking_identity_holds_under_noise(monkeypatch):
    """mean(v_k) = mean(x_k) at every iteration, read at the module
    boundary: consensus_apply receives each row's v_k and the game's
    gradients the stacked x_k."""
    game = _five_player_game(nu_i=0.5)
    graph = ring_graph(5)
    x_star = solve_ne_oracle(game)
    vs, xs = [], []
    apply, gradients = distributed.consensus_apply, QuadraticGame.gradients

    def watch_apply(g, v, tau):
        vs.append(v.copy())
        return apply(g, v, tau)

    def watch_gradients(self, x, y):
        xs.append(x.copy())
        return gradients(self, x, y)

    monkeypatch.setattr(distributed, "consensus_apply", watch_apply)
    monkeypatch.setattr(QuadraticGame, "gradients", watch_gradients)
    run_dist_pgr(game, graph, DistConfig(alpha=0.02, max_iter=30, seed=7),
                 x_star=x_star, replications=[0, 1])
    assert len(xs) == 30 and len(vs) == 2 * 30
    gaps = [abs(np.mean(v) - np.mean(x_row))
            for v, x_row in zip(vs, (row for x in xs for row in x))]
    assert max(gaps) <= 1e-12


def test_communication_rounds_grow_triangularly():
    game = _five_player_game(nu_i=0.5)
    graph = ring_graph(5)
    x_star = solve_ne_oracle(game)
    trace = run_dist_pgr(game, graph, DistConfig(alpha=0.02, max_iter=30, seed=7),
                         x_star=x_star)
    assert trace.counter.comm_rounds == 30 * 31 // 2
    assert trace.taus == [k + 1 for k in range(30)]
    assert np.array_equal(np.cumsum(trace.taus), trace.cum_comm)


def test_sample_counter_matches_the_root_geometric_schedule():
    game = _five_player_game(nu_i=0.5)
    graph = ring_graph(5)
    x_star = solve_ne_oracle(game)
    trace = run_dist_pgr(game, graph, DistConfig(alpha=0.02, max_iter=30, seed=7),
                         x_star=x_star)
    beta = mixing_params(graph).beta
    assert all(trace.batches[k] == math.ceil(beta ** (-(k + 1) / 2)) for k in range(30))
    assert trace.counter.total_samples == 5 * sum(trace.batches)


def test_consensus_error_decays_inside_the_mixing_bound():
    game = _five_player_game(nu_i=0.5)
    graph = ring_graph(5)
    x_star = solve_ne_oracle(game)
    trace = run_dist_pgr(game, graph, DistConfig(alpha=0.02, max_iter=30, seed=7),
                         x_star=x_star)
    beta = mixing_params(graph).beta
    m_compact = monotonicity_constants(game).m_compact
    for k, cerr in enumerate(trace.consensus_errors[0]):
        assert cerr <= 2.0 * m_compact * beta ** (k + 1) + 1e-12


def test_run_is_deterministic_per_seed_and_replication():
    game = _five_player_game(nu_i=0.5)
    graph = ring_graph(5)
    x_star = solve_ne_oracle(game)
    cfg = DistConfig(alpha=0.02, max_iter=15, seed=7)
    t1 = run_dist_pgr(game, graph, cfg, x_star=x_star)
    t2 = run_dist_pgr(game, graph, cfg, x_star=x_star)
    assert np.array_equal(t1.errors, t2.errors)
    t3 = run_dist_pgr(game, graph, cfg, x_star=x_star, replications=[1])
    assert not np.array_equal(t1.errors, t3.errors)


def test_step_size_must_sit_below_the_distributed_threshold():
    game = _five_player_game()
    graph = ring_graph(5)
    # eta/L^2 = 2/49; the centralized rule would allow twice that
    with pytest.raises(InvalidStep) as run_err:
        run_dist_pgr(game, graph, DistConfig(alpha=0.05, max_iter=5, seed=0))
    with pytest.raises(InvalidStep) as rate_err:
        dist_rate_constants(game, graph, 0.05)
    assert str(run_err.value) == str(rate_err.value)
    assert "eta/lip^2" in str(run_err.value)


def test_distributed_rate_constants_reference_values():
    game = _five_player_game(nu_i=0.5)
    graph = ring_graph(5)
    rc = dist_rate_constants(game, graph, 0.02)
    assert rc.varrho == pytest.approx(1 - 2 * 0.02 * 2 + 2 * 0.02 ** 2 * 49, rel=1e-12)
    assert rc.m_compact == pytest.approx(5.0)
    assert rc.theta == 1.0
    beta = mixing_params(graph).beta
    assert rc.beta == pytest.approx(beta, abs=1e-15)
    # the mixing-error constants assembled from (M, theta, beta)
    c1_hand = 5.0 * (1.0 + 2.0 * math.e * math.sqrt(1.0 / math.log(beta ** -0.5)))
    c2_hand = 4.0 * 5.0 / math.log(1.0 / beta)
    assert rc.c1 == pytest.approx(c1_hand, rel=1e-12)
    assert rc.c2 == pytest.approx(c2_hand, rel=1e-12)
    nu_sq = 5 * 0.25
    l_sum = l_sq_sum = 5 * 1.0  # L_i = c_price = 1 for each of 5 players
    c3_hand = (0.02 ** 2 * nu_sq
               + 4 * 0.02 * 5.0 * 5 * (rc.c1 * math.sqrt(beta) + rc.c2) * l_sum
               + 4 * 0.02 ** 2 * 25 * (rc.c1 ** 2 * beta ** 1.5 + rc.c2 ** 2 * math.sqrt(beta)) * l_sq_sum)
    assert rc.c3 == pytest.approx(c3_hand, rel=1e-12)


def test_a_complete_graph_without_beta_is_rejected_with_one_message(
        tmp_path, capsys):
    """A complete graph mixes in one round, and its beta = 0 schedules no
    batches: the calculator, the library run, `nashprox dist-pgr` and
    `nashprox validate` all reject it with one message that names the
    solver's beta key, and the same config with a beta in (0, 1) runs."""
    game, graph = _five_player_game(0.5), complete_graph(5)
    with pytest.raises(ValueError) as rate_err:
        dist_rate_constants(game, graph, 0.02)
    message = str(rate_err.value)
    assert "'beta' key" in message
    with pytest.raises(ValueError, match="'beta' key") as run_err:
        run_dist_pgr(game, graph, DistConfig(alpha=0.02, max_iter=5))
    assert str(run_err.value) == message
    doc = {"scheme": "dist-pgr",
           "game": {"kind": "cournot", "a": [1.0] * 5, "b": [0.0] * 5,
                    "d": 2.0, "c_price": 1.0, "lo": 0.0, "hi": 1.0,
                    "nu": 0.5},
           "graph": {"family": "complete", "nodes": 5},
           "solver": {"alpha": 0.02, "max_iter": 5}}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    for command in ("dist-pgr", "validate"):
        assert main([command, "--config", str(config), "--quiet"]) == 3
        assert capsys.readouterr().err == f"invalid parameters: {message}\n"
    doc["solver"]["beta"] = 0.5
    config.write_text(json.dumps(doc))
    for command in ("dist-pgr", "validate"):
        assert main([command, "--config", str(config), "--quiet"]) == 0
    assert dist_rate_constants(game, graph, 0.02, beta=0.5).beta == 0.5
    assert run_dist_pgr(game, graph, DistConfig(alpha=0.02, max_iter=5,
                                                beta=0.5)).iterations == 5


def test_a_configured_beta_can_only_slow_the_schedule():
    """A beta below the graph's own mixing rate breaks the consensus bound
    theta beta^tau, so dist_rate_constants and the run reject it; the
    graph's own rate and any larger one are accepted, and on a complete
    graph (beta = 0) every beta in (0, 1) is."""
    game, graph = _five_player_game(0.5), ring_graph(5)
    own = mixing_params(graph).beta
    below = np.nextafter(own, 0.0)
    with pytest.raises(ValueError, match="below the graph's mixing rate") \
            as rate_err:
        dist_rate_constants(game, graph, 0.02, beta=below)
    with pytest.raises(ValueError) as run_err:
        run_dist_pgr(game, graph, DistConfig(alpha=0.02, max_iter=3,
                                             beta=below))
    assert str(run_err.value) == str(rate_err.value)
    assert dist_rate_constants(game, graph, 0.02, beta=own) == \
        dist_rate_constants(game, graph, 0.02)
    assert dist_rate_constants(game, graph, 0.02, beta=0.9).beta == 0.9
    assert dist_rate_constants(game, complete_graph(5), 0.02,
                               beta=1e-300).beta == 1e-300


def test_distributed_envelope_and_complexity_hand_values():
    rc = DistRateConstants(varrho=0.8, c1=0.0, c2=0.0, c3=0.2, m_compact=1.0,
                           beta=0.5, theta=1.0)
    constant, rate = dist_envelope_params(rc, c_start=1.0)
    ratio = math.sqrt(0.5) / 0.8
    hand = 1.0 + 0.2 / (1.0 - ratio)
    assert constant == pytest.approx(hand, rel=1e-12)
    assert rate == pytest.approx(0.8, abs=1e-15)
    # a target hit at K = 3 envelope steps costs 10 communication rounds
    eps3 = hand * 0.8 ** 3
    out = dist_complexity(rc, eps3, c_start=1.0)
    assert out.k_eps == pytest.approx(3.0, rel=1e-9)
    assert out.comm_rounds == pytest.approx(10.0, rel=1e-9)
    # at the envelope constant itself no iterations are needed
    out0 = dist_complexity(rc, hand, c_start=1.0)
    assert out0.k_eps == 0.0
    assert out0.comm_rounds == pytest.approx(1.0)
    # samples follow the root-geometric lead term plus the iteration count
    expo = math.log(1 / math.sqrt(0.5)) / math.log(1 / 0.8)
    lead = (hand / eps3) ** expo / (math.sqrt(0.5) * math.log(1 / math.sqrt(0.5)))
    assert out.samples == pytest.approx(lead + 3.0, rel=1e-9)


def test_matched_distributed_rates_use_the_shifted_envelope():
    # beta equal to varrho^2 is the boundary case with its own constant
    rc = DistRateConstants(varrho=0.8, c1=0.0, c2=0.0, c3=0.2, m_compact=1.0,
                           beta=0.64, theta=1.0)
    constant, rate = dist_envelope_params(rc, c_start=1.0)
    assert rate == pytest.approx(0.9, abs=1e-15)  # default shift (1 + 0.8)/2
    hand = 1.0 + 0.2 / (math.e * math.log(0.9 / 0.8))
    assert constant == pytest.approx(hand, rel=1e-12)


def test_default_start_is_the_box_midpoint():
    game = _two_player_game()
    graph = complete_graph(2)
    trace = run_dist_pgr(game, graph, DistConfig(alpha=0.05, max_iter=1, beta=0.25, seed=0),
                         x_star=solve_ne_oracle(game))
    mid = np.array([0.5, 0.5])
    assert np.array_equal(game.midpoint(), mid)
    assert trace.errors[0, 0] == pytest.approx(
        np.linalg.norm(mid - solve_ne_oracle(game)) ** 2, abs=1e-12)


def _player_gradient(game: AggregativeGame, i: int, x_i, y) -> np.ndarray:
    """Own gradient of player i at strategy x_i and aggregate estimate y,
    one player at a time (the former AggregativeGame.player_gradient)."""
    x_i = np.atleast_1d(np.asarray(x_i, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    a, b, d, c_price, _, _ = game.aggregate
    return a[i] * x_i + b[i] - d + c_price * y + c_price * x_i


def _reference_dist_run(game: AggregativeGame, graph, config: DistConfig,
                        x_star: np.ndarray, replication: int):
    """Per-player loop run_dist_pgr replaces: _player_gradient and prox_apply
    one player at a time, player i's noise at iteration k drawn as entry
    (k, i) of the replication's standard-normal block from the stream
    (seed, r, 1), scaled by nu_i / sqrt(N_k)."""
    schedule = RootGeometricBatch(mixing_params(graph).beta)
    n = game.n_players
    z = substream(config.seed, replication, 1).standard_normal(
        (config.max_iter, n))
    agg = game.aggregate
    x = np.array([(l + h) / 2.0 for l, h in zip(agg.lo, agg.hi)])
    v = x.copy()
    errors = [float(np.linalg.norm(x - x_star) ** 2)]
    consensus_errors = []
    for k in range(config.max_iter):
        v_hat = consensus_apply(graph, v, k + 1)
        n_k = schedule.size(k)
        x_next = np.empty(n)
        for i in range(n):
            e_i = z[k, i] * (game.noise_blocks[0][i] / math.sqrt(n_k))
            g_i = _player_gradient(game, i, x[i], n * v_hat[i]) + e_i
            x_next[i] = prox_apply(game.regularizers[i],
                                   x[i:i + 1] - config.alpha * g_i,
                                   config.alpha)[0]
        v = (v - x) + x_next
        consensus_errors.append(float(np.max(np.abs(v_hat - np.mean(x)))))
        x = x_next
        errors.append(float(np.linalg.norm(x - x_star) ** 2))
    return np.array(errors), np.array(consensus_errors), x


def test_vectorized_run_matches_the_per_player_reference_loop():
    # two of the upper bounds bind at the equilibrium
    game = AggregativeGame(
        a=(1.0, 1.5, 2.0, 1.2, 1.8), b=(0.0, 0.1, 0.05, 0.2, 0.0), d=2.0,
        c_price=1.0, lo=(0.0,) * 5, hi=(1.0, 0.1, 1.0, 1.0, 0.05),
        noises=(GaussianNoise(0.5),) * 5)
    graph = ring_graph(5)
    consts = monotonicity_constants(game)
    config = DistConfig(alpha=0.5 * consts.eta / consts.lip ** 2,
                        max_iter=12, seed=3)
    x_star = solve_ne_oracle(game)
    trace = run_dist_pgr(game, graph, config, x_star=x_star, replications=[1])
    errors, consensus_errors, final = _reference_dist_run(
        game, graph, config, x_star, replication=1)
    assert np.array_equal(trace.errors[0], errors)
    assert np.array_equal(trace.consensus_errors[0], consensus_errors)
    assert np.array_equal(trace.final[0], final)
    assert np.count_nonzero(final == game.aggregate.hi) >= 1


def test_rate_constants_and_run_reject_a_graph_without_a_node_per_player():
    """dist_rate_constants, which the command line's pre-run checks call,
    rejects the graph with the run's own message."""
    game, message = _five_player_game(0.5), "graph has 4 nodes for 5 players"
    with pytest.raises(ValueError, match=message):
        dist_rate_constants(game, ring_graph(4), 0.02)
    with pytest.raises(ValueError, match=message):
        run_dist_pgr(game, ring_graph(4), DistConfig(alpha=0.02, max_iter=3))
    assert dist_rate_constants(game, ring_graph(5), 0.02).c3 > 0.0
