from __future__ import annotations

"""End-to-end acceptance checks.

Each test prints a single PASS/FAIL verdict line (with its wall-clock time)
to the real stdout so the verdicts survive pytest capture, then asserts.
Budgets are wall-clock seconds on a desk-scale machine.
"""

import json
import math
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from nashprox import distributed
from nashprox.best_response import resolved_schedule
from nashprox.noise import iteration_errors
from nashprox.pgr import geometric_complexity

from nashprox import (
    AggregativeGame,
    DistConfig,
    GaussianNoise,
    PbrConfig,
    PgrConfig,
    QuadraticGame,
    br_noise_gain,
    complete_graph,
    contraction_certificate,
    contraction_factor_q,
    dist_envelope_params,
    dist_rate_constants,
    envelope_params,
    erdos_renyi_graph,
    fit_linear_rate,
    generate_quadratic_game,
    grid_graph,
    mixing_params,
    monotonicity_constants,
    ne_residual,
    path_graph,
    pbr_complexity,
    proximal_best_response,
    rate_constants,
    recommended_parameters,
    ring_graph,
    run_dist_pgr,
    run_pbr,
    run_pgr,
    saa_best_response,
    solve_ne_oracle,
)

REF_H = np.array([[2.0, 1.0], [1.0, 2.0]])
REF_C = np.array([-1.0, -1.0])


def _max_mixing_deviation(g, k: int) -> float:
    """max_ij |[A^k]_ij - 1/N|, the quantity the mixing bound controls."""
    power = np.linalg.matrix_power(g.weights, int(k))
    return float(np.max(np.abs(power - 1.0 / g.n_nodes)))


def _verdict(capfd, num: int, label: str, ok: bool, started: float,
             budget: float) -> float:
    elapsed = time.monotonic() - started
    within = elapsed < budget
    word = "PASS" if (ok and within) else "FAIL"
    with capfd.disabled():
        print(f"[acceptance {num:02d}] {word} {label} "
              f"({elapsed:.2f}s / budget {budget:.0f}s)", flush=True)
    return elapsed


def _reference_quadratic(nu: float = 0.0) -> QuadraticGame:
    if nu > 0:
        return QuadraticGame(dims=(1, 1), h=REF_H, c=REF_C, noise=GaussianNoise(nu))
    return QuadraticGame(dims=(1, 1), h=REF_H, c=REF_C)


def _random_game(seed: int) -> QuadraticGame:
    n_players = 2 + seed % 4
    dim = 1 + seed % 2
    return generate_quadratic_game(n_players, dim, 0.5, seed=seed)


def _mean_errors(game, config, x0, x_star, runner, replications: int) -> np.ndarray:
    trace = runner(game, config, x0, x_star=x_star,
                   replications=range(replications))
    return np.mean(trace.errors, axis=0)


def test_acceptance_01_fixed_point_equivalence(capfd):
    started = time.monotonic()
    budget = 5.0
    worst_residual = 0.0
    worst_direct = 0.0
    for seed in range(20):
        game = _random_game(seed)
        x_star = solve_ne_oracle(game, tol=1e-12)
        for alpha in (0.01, 0.1, 1.0):
            worst_residual = max(worst_residual, ne_residual(game, x_star, alpha))
        direct = np.linalg.solve(game.h, -game.c)
        worst_direct = max(worst_direct, float(np.max(np.abs(x_star - direct))))
    ok = worst_residual <= 1e-10 and worst_direct <= 1e-9
    elapsed = _verdict(capfd, 1, "fixed-point equivalence", ok, started, budget)
    assert worst_residual <= 1e-10, worst_residual
    assert worst_direct <= 1e-9, worst_direct
    assert elapsed < budget


def test_acceptance_02_deterministic_contraction(capfd):
    started = time.monotonic()
    budget = 2.0
    worst_gap = -np.inf
    for seed in range(10):
        game = _random_game(seed)
        const = monotonicity_constants(game)
        alpha = const.eta / const.lip ** 2
        q = contraction_factor_q(const.eta, const.lip, alpha)
        x_star = solve_ne_oracle(game)
        x0 = np.zeros(game.dim)
        trace = run_pgr(game, PgrConfig(alpha=alpha, rho=0.9, max_iter=50, seed=0),
                        x0, x_star=x_star)
        for k in range(50):
            worst_gap = max(worst_gap, trace.errors[0, k + 1] - q * trace.errors[0, k])
    ok = worst_gap <= 1e-12
    elapsed = _verdict(capfd, 2, "noise-free squared-distance contraction", ok, started, budget)
    assert worst_gap <= 1e-12, worst_gap
    assert elapsed < budget


def test_acceptance_03_growing_batch_linear_rate(capfd):
    started = time.monotonic()
    budget = 30.0
    game = _reference_quadratic(nu=1.0)
    const = monotonicity_constants(game)
    x_star = solve_ne_oracle(game)
    x0 = np.zeros(2)
    config = PgrConfig(alpha=0.2, rho=0.9, max_iter=60, seed=11)
    mean = _mean_errors(game, config, x0, x_star, run_pgr, 100)
    rc = rate_constants(const.eta, const.lip, 0.2, 0.9, 1.0,
                        float(np.linalg.norm(x0 - x_star)) ** 2)
    constant, rate = envelope_params(rc, 0.9)
    max_ratio = max(mean[k] / (constant * rate ** k) for k in range(61))
    slope = fit_linear_rate(mean, window=(5, 60)).slope
    slope_cap = math.log(rate) + 0.05
    ok = max_ratio <= 1.0 and slope <= slope_cap
    elapsed = _verdict(capfd, 3, "mean squared error inside the geometric envelope",
                       ok, started, budget)
    assert max_ratio <= 1.0, max_ratio
    assert slope <= slope_cap, (slope, slope_cap)
    assert elapsed < budget


def test_acceptance_04_complexity_bounds(capfd):
    started = time.monotonic()
    budget = 60.0
    game = _reference_quadratic(nu=1.0)
    const = monotonicity_constants(game)
    alpha, rho = recommended_parameters(const.eta, const.lip)
    x_star = solve_ne_oracle(game)
    x0 = np.zeros(2)
    eps = 1e-3
    rc = rate_constants(const.eta, const.lip, alpha, rho, 1.0,
                        float(np.linalg.norm(x0 - x_star)) ** 2)
    k_bound, m_bound = geometric_complexity(*envelope_params(rc, rho), rho,
                                            eps)
    config = PgrConfig(alpha=alpha, rho=rho, max_iter=math.ceil(k_bound) + 6, seed=3)
    trace = run_pgr(game, config, x0, x_star=x_star, replications=range(100))
    mean = np.mean(trace.errors, axis=0)
    reached = np.nonzero(mean <= eps)[0]
    first = int(reached[0]) if reached.size else 10 ** 9
    samples_at_first = sum(trace.batches[:first])
    # frozen hand-plugged calculator values
    rc_a = rate_constants(1.0, 2.0, 0.25, 0.5, 1.0, 1.0)
    k_hand_ok = abs(geometric_complexity(*envelope_params(rc_a, 0.5), 0.5,
                                         0.01)[0]
                    - math.log(118.75) / math.log(4 / 3)) <= 1e-9 * 17
    rc_b = rate_constants(1.0, math.sqrt(2.0), 0.5, 0.75, 0.5, 1.0)
    k_b, m_b = geometric_complexity(*envelope_params(rc_b, 0.75), 0.75, 0.01)
    m_hand = rc_b.c_rho_q / (0.75 * math.log(4 / 3) * 0.01) + k_b
    m_hand_ok = abs(m_b - m_hand) <= 1e-9 * m_hand
    ok = (first <= math.ceil(k_bound) + 2 and samples_at_first <= m_bound
          and k_hand_ok and m_hand_ok)
    elapsed = _verdict(capfd, 4, "iteration and oracle complexity bounds", ok, started, budget)
    assert first <= math.ceil(k_bound) + 2, (first, k_bound)
    assert samples_at_first <= m_bound, (samples_at_first, m_bound)
    assert k_hand_ok and m_hand_ok
    assert elapsed < budget


def test_acceptance_05_mixing_certificate(capfd):
    started = time.monotonic()
    budget = 2.0
    graphs = [complete_graph(5), ring_graph(6), path_graph(5), grid_graph(3, 3),
              erdos_renyi_graph(8, 0.4, seed=1), erdos_renyi_graph(8, 0.5, seed=2),
              erdos_renyi_graph(8, 0.6, seed=3)]
    worst = -np.inf
    for g in graphs:
        mp = mixing_params(g)
        for k in range(1, 51):
            worst = max(worst, _max_mixing_deviation(g, k) - mp.theta * mp.beta ** k)
    ok = worst <= 1e-12
    elapsed = _verdict(capfd, 5, "consensus powers mix geometrically", ok, started, budget)
    assert worst <= 1e-12, worst
    assert elapsed < budget


def test_acceptance_06_tracking_and_collapse(capfd, monkeypatch):
    started = time.monotonic()
    budget = 5.0
    # tracking identity under observation noise, read at the module
    # boundary: consensus_apply receives v_k, the game's gradients x_k
    noisy = AggregativeGame(a=(1.0,) * 5, b=(0.0,) * 5, d=2.0, c_price=1.0,
                            lo=(0.0,) * 5, hi=(1.0,) * 5,
                            noises=(GaussianNoise(0.5),) * 5)
    vs, xs = [], []
    apply, gradients = distributed.consensus_apply, QuadraticGame.gradients

    def watch_apply(g, v, tau):
        vs.append(v.copy())
        return apply(g, v, tau)

    def watch_gradients(self, x, y):
        xs.append(x[0].copy())
        return gradients(self, x, y)

    x_star5 = solve_ne_oracle(noisy)
    with monkeypatch.context() as patch:
        patch.setattr(distributed, "consensus_apply", watch_apply)
        patch.setattr(QuadraticGame, "gradients", watch_gradients)
        noisy_trace = run_dist_pgr(noisy, ring_graph(5),
                                   DistConfig(alpha=0.02, max_iter=25, seed=7),
                                   x_star=x_star5)
    worst_tracking = max(abs(float(np.mean(v)) - float(np.mean(x)))
                         for v, x in zip(vs, xs)) \
        if len(vs) == len(xs) == 25 else math.inf
    # exact-mixing equality with the centralized recursion
    quiet = AggregativeGame(a=(1.0, 1.0), b=(0.0, 0.0), d=2.0, c_price=1.0,
                            lo=(0.0, 0.0), hi=(1.0, 1.0))
    x_star2 = solve_ne_oracle(quiet)
    dist = run_dist_pgr(quiet, complete_graph(2),
                        DistConfig(alpha=0.05, max_iter=25, beta=0.25, seed=4),
                        x_star=x_star2)
    mid = np.array([0.5, 0.5])
    central = run_pgr(quiet, PgrConfig(alpha=0.05, rho=0.5, max_iter=25, seed=4),
                      mid, x_star=x_star2)
    collapse = np.array_equal(dist.errors, central.errors)
    comm_ok = (noisy_trace.counter.comm_rounds == 25 * 26 // 2
               and dist.counter.comm_rounds == 25 * 26 // 2)
    ok = worst_tracking <= 1e-12 and collapse and comm_ok
    elapsed = _verdict(capfd, 6, "average tracking, exact-mixing collapse, round counts",
                       ok, started, budget)
    assert worst_tracking <= 1e-12, worst_tracking
    assert collapse
    assert comm_ok
    assert elapsed < budget


def test_acceptance_07_distributed_linear_rate(capfd):
    started = time.monotonic()
    budget = 120.0
    game = AggregativeGame(a=(1.0,) * 5, b=(0.0,) * 5, d=2.0, c_price=1.0,
                           lo=(0.0,) * 5, hi=(1.0,) * 5,
                           noises=(GaussianNoise(0.5),) * 5)
    graph = ring_graph(5)
    x_star = solve_ne_oracle(game)
    alpha = 0.02
    beta = mixing_params(graph).beta
    m_compact = monotonicity_constants(game).m_compact
    config = DistConfig(alpha=alpha, max_iter=40, seed=5)
    trace = run_dist_pgr(game, graph, config, x_star=x_star,
                         replications=range(100))
    mean = np.mean(trace.errors, axis=0)
    rc = dist_rate_constants(game, graph, alpha)
    mid = np.full(5, 0.5)
    constant, rate = dist_envelope_params(
        rc, c_start=float(np.linalg.norm(mid - x_star)) ** 2)
    max_ratio = max(mean[k] / (constant * rate ** k) for k in range(41))
    slope = fit_linear_rate(mean, window=(5, 40)).slope
    slope_cap = math.log(rate) + 0.05
    worst_consensus = -np.inf
    for row in trace.consensus_errors:
        for k, cerr in enumerate(row):
            worst_consensus = max(worst_consensus,
                                  cerr - 2.0 * m_compact * beta ** (k + 1))
    ok = max_ratio <= 1.0 and slope <= slope_cap and worst_consensus <= 1e-12
    elapsed = _verdict(capfd, 7, "distributed mean squared error inside its envelope",
                       ok, started, budget)
    assert max_ratio <= 1.0, max_ratio
    assert slope <= slope_cap, (slope, slope_cap)
    assert worst_consensus <= 1e-12, worst_consensus
    assert elapsed < budget


def test_acceptance_08_componentwise_contraction(capfd):
    started = time.monotonic()
    budget = 10.0
    rng = np.random.default_rng(23)
    worst_pair = -np.inf
    worst_step = -np.inf
    for seed in range(10):
        game = generate_quadratic_game(2 + seed % 3, 1 + seed % 2, 0.25, seed=seed)
        cert = contraction_certificate(game, 1.0)
        assert cert.a < 1.0
        n = game.n_players
        dim = sum(game.dims)
        for _ in range(5):
            y = rng.normal(size=dim)
            z = rng.normal(size=dim)
            dists = np.array([np.linalg.norm(y[sl] - z[sl]) for sl in
                              map(game.block_slice, range(n))])
            bound = cert.gamma @ dists
            for i in range(n):
                move = np.linalg.norm(proximal_best_response(game, i, y, 1.0)
                                      - proximal_best_response(game, i, z, 1.0))
                worst_pair = max(worst_pair, move - bound[i])
        x_star = solve_ne_oracle(game)
        x0 = np.zeros(game.dim)
        trace = run_pbr(game, PbrConfig(mu=1.0, eta_br=0.7, max_iter=15, seed=0,
                                        m_max=1.0, c_r=1.0), x0, x_star=x_star)
        for k in range(15):
            worst_step = max(worst_step,
                             trace.errors[0, k + 1] - cert.a * trace.errors[0, k])
    ok = worst_pair <= 1e-10 and worst_step <= 1e-10
    elapsed = _verdict(capfd, 8, "best-response moves below the certificate matrix",
                       ok, started, budget)
    assert worst_pair <= 1e-10, worst_pair
    assert worst_step <= 1e-10, worst_step
    assert elapsed < budget


def test_acceptance_09_sampling_error_bound(capfd):
    started = time.monotonic()
    budget = 30.0
    game = _reference_quadratic(nu=math.sqrt(2.0))  # per-player nu_i = 1
    y = np.zeros(2)
    exact = proximal_best_response(game, 0, y, 1.0)
    gain = br_noise_gain(1.0, 2.0)
    nu_i = monotonicity_constants(game).nu_i
    ok = True
    detail = []
    for batch in (4, 16, 64):
        # player 0's block of row 0 of replications 0..499 of seed 0
        errors = next(iteration_errors(nu_i, game.dims, 0, range(500),
                                       [batch]))[:, :1]
        devs = np.array([
            float(np.sum((saa_best_response(game, 0, y, batch, 1.0, error)
                          - exact) ** 2))
            for error in errors])
        bound = gain ** 2 / batch
        limit = bound + 2 * devs.std(ddof=1) / math.sqrt(devs.size)
        detail.append((batch, float(devs.mean()), limit))
        ok = ok and devs.mean() <= limit
    elapsed = _verdict(capfd, 9, "sampled best-response variance bound", ok, started, budget)
    assert ok, detail
    assert elapsed < budget


def test_acceptance_10_best_response_rate_and_complexity(capfd):
    started = time.monotonic()
    budget = 60.0
    game = _reference_quadratic(nu=math.sqrt(2.0))
    x_star = solve_ne_oracle(game)
    x0 = np.zeros(2)
    config = PbrConfig(mu=1.0, eta_br=0.7, max_iter=27, seed=5, eta_tilde=0.75)
    trace = run_pbr(game, config, x0, x_star=x_star, replications=range(100))
    mean = np.mean(trace.errors, axis=0)
    cert = contraction_certificate(game, 1.0)
    c_start = max(float(np.linalg.norm(x0[i:i + 1] - x_star[i:i + 1]))
                  for i in range(2))
    d = 1.0 / (math.e * math.log(0.75 / 0.7))
    envelope0 = math.sqrt(2.0) * (c_start + d)
    max_ratio = max(mean[k] / (envelope0 * 0.75 ** k) for k in range(26))
    eps = 1e-2
    sched = resolved_schedule(game, config)
    full = replace(config, m_max=sched.m_max, c_r=sched.c_r)
    out = pbr_complexity(full, a=cert.a, eps=eps, n_players=2, c_start=c_start)
    reached = np.nonzero(mean <= eps)[0]
    first = int(reached[0]) if reached.size else 10 ** 9
    counters_ok = trace.counter.total_samples == 2 * sum(trace.batches)
    ok = max_ratio <= 1.0 and first <= out.k_eps + 2 and counters_ok
    elapsed = _verdict(capfd, 10, "best-response decay inside the shifted envelope",
                       ok, started, budget)
    assert max_ratio <= 1.0, max_ratio
    assert first <= out.k_eps + 2, (first, out.k_eps)
    assert counters_ok
    assert elapsed < budget


def test_acceptance_11_reproducible_artifacts(capfd, tmp_path: Path):
    started = time.monotonic()
    budget = 5.0
    config = {
        "scheme": "pgr", "seed": 11, "replications": 3,
        "game": {"kind": "quadratic", "h": [[2.0, 1.0], [1.0, 2.0]],
                 "c": [-1.0, -1.0], "noise": {"kind": "gaussian", "nu": 1.0}},
        "solver": {"alpha": 0.2, "rho": 0.9, "max_iter": 25},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    outs = []
    for name in ("first", "second"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "nashprox", "pgr", "--config", str(cfg_path),
             "--out", str(out), "--quiet"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outs.append(out)
    same_trace = (outs[0] / "trace.csv").read_bytes() == (outs[1] / "trace.csv").read_bytes()
    same_report = (outs[0] / "report.json").read_bytes() == (outs[1] / "report.json").read_bytes()
    ok = same_trace and same_report
    elapsed = _verdict(capfd, 11, "byte-identical reruns of the command line", ok, started, budget)
    assert same_trace and same_report
    assert elapsed < budget
