"""Proximal best-response iteration with sampled inner problems.

Each player repeatedly plays a regularized best response to the current
profile. A certificate matrix built from the game blocks shows the map
is a contraction; the inner best responses are then solved only
approximately, by sample averages whose batch sizes grow geometrically,
and the iterate distance still decays at a linear rate.
"""
from __future__ import annotations

import math

import numpy as np

from nashprox import (
    GaussianNoise,
    PbrConfig,
    QuadraticGame,
    StrategyProfile,
    br_noise_gain,
    contraction_certificate,
    monotonicity_constants,
    proximal_best_response,
    run_pbr,
    saa_best_response,
    solve_ne_oracle,
)
from nashprox.noise import iteration_errors


def main() -> None:
    game = QuadraticGame(dims=(1, 1),
                         h=np.array([[2.0, 1.0], [1.0, 2.0]]),
                         c=np.array([-1.0, -1.0]),
                         noise=GaussianNoise(math.sqrt(2.0)))
    mu = 1.0
    cert = contraction_certificate(game, mu)
    print(f"certificate matrix Gamma =\n{np.round(cert.gamma, 4)}")
    print(f"spectral norm a = {cert.a:.4f} (< 1, so the map contracts)")

    y = StrategyProfile.zeros(game.dims)
    exact = proximal_best_response(game, 0, y, mu)
    print(f"player 0 exact best response at y = 0: {exact}")
    nu_i = monotonicity_constants(game).nu_i
    for batch in (4, 64, 1024):
        # player 0's block of the batch-averaged error of replication 0
        error = next(iteration_errors(nu_i, game.dims, 0, [0], [batch]))[0, :1]
        approx = saa_best_response(game, 0, y, batch, mu, error)
        print(f"  sampled with batch {batch:4d}: {approx} "
              f"(gap {float(np.linalg.norm(approx - exact)):.2e})")
    print(f"per-sample noise gain C_r = {br_noise_gain(mu, 2.0):.4f}")

    x_star = solve_ne_oracle(game)
    config = PbrConfig(mu=mu, eta_br=0.7, max_iter=25, seed=1)
    trace = run_pbr(game, config, y, x_star=x_star)
    print("iterate distance to the equilibrium:")
    for k in (0, 5, 10, 15, 20, 25):
        print(f"  k = {k:2d}  ||y_k - x*|| = {trace.errors[0, k]:.3e}  "
              f"batch = {trace.batches[k - 1] if k else '-'}")
    print(f"total samples {trace.counter.total_samples}, "
          f"inner solves {trace.counter.inner_solves}")


if __name__ == "__main__":
    main()
