"""Consensus-based gradient response for an aggregative game on a ring.

Five producers set output levels; each one's price depends on the total
output, but players only talk to their two ring neighbours. Every
iteration runs a growing number of gossip rounds, so the local estimates
of the average track the true average tightly while the profile
converges to the equilibrium.
"""
from __future__ import annotations

import numpy as np

from nashprox import (
    AggregativeGame,
    DistConfig,
    GaussianNoise,
    dist_complexity,
    dist_envelope_params,
    dist_rate_constants,
    mixing_params,
    ring_graph,
    run_dist_pgr,
    solve_ne_oracle,
)


def main() -> None:
    n = 5
    game = AggregativeGame(a=(1.0,) * n, b=(0.0,) * n, d=2.0, c_price=1.0,
                           lo=(0.0,) * n, hi=(1.0,) * n,
                           noises=(GaussianNoise(0.5),) * n)
    graph = ring_graph(n)
    mp = mixing_params(graph)
    print(f"ring of {n}: mixing rate beta = {mp.beta:.6f}, theta = {mp.theta:g}")

    x_star = solve_ne_oracle(game)
    print(f"equilibrium x* = {np.round(x_star, 6)}")

    config = DistConfig(alpha=0.02, max_iter=40, seed=3)
    trace = run_dist_pgr(game, graph, config, x_star=x_star)

    rc = dist_rate_constants(game, graph, config.alpha)
    c_start = float(np.sum((np.full(n, 0.5) - x_star) ** 2))
    constant, rate = dist_envelope_params(rc, c_start=c_start)
    print(f"contraction varrho = {rc.varrho:.6f}, envelope rate = {rate:.6f}")
    for k in (0, 10, 20, 40):
        print(f"  k = {k:3d}  error^2 = {trace.errors[0, k]:.3e}  "
              f"bound = {constant * rate ** k:.3e}")

    worst = float(np.max(trace.consensus_errors))
    print(f"largest average-tracking gap over the run: {worst:.3e}")
    print(f"communication rounds used: {trace.counter.comm_rounds} "
          f"(= K(K+1)/2 for K = {config.max_iter})")

    eps = 1e-3
    comp = dist_complexity(rc, eps, c_start=c_start)
    print(f"to reach eps = {eps:g}: about {comp.k_eps:.1f} iterations, "
          f"{comp.comm_rounds:.3e} gossip rounds, {comp.samples:.3e} samples "
          f"(worst-case bounds; the run above got there much sooner)")


if __name__ == "__main__":
    main()
