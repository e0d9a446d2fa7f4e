"""Growing-batch gradient response on a two-player quadratic game.

Solves a small strongly monotone game with noisy gradient oracles. The
batch size grows geometrically, so the mean squared distance to the
equilibrium decays linearly even though each individual gradient sample
is noisy. The run is compared against the theoretical envelope and the
predicted iteration count.
"""
from __future__ import annotations

import numpy as np

from nashprox import (
    GaussianNoise,
    PgrConfig,
    QuadraticGame,
    monotonicity_constants,
    pgr_theory,
    recommended_parameters,
    run_pgr,
    solve_ne_oracle,
)


def main() -> None:
    game = QuadraticGame(dims=(1, 1),
                         h=np.array([[2.0, 1.0], [1.0, 2.0]]),
                         c=np.array([-1.0, -1.0]),
                         noise=GaussianNoise(1.0))
    consts = monotonicity_constants(game)
    print(f"strong monotonicity eta = {consts.eta:.4f}, "
          f"Lipschitz L = {consts.lip:.4f}, kappa = {consts.kappa:.4f}")

    alpha, rho = recommended_parameters(consts.eta, consts.lip)
    print(f"recommended step alpha = {alpha:.6f}, batch ratio rho = {rho:.6f}")

    x_star = solve_ne_oracle(game)
    print(f"equilibrium x* = {np.round(x_star, 6)}")

    x0 = np.zeros(game.dim)  # the stacked strategy vector (x_1, x_2)
    config = PgrConfig(alpha=alpha, rho=rho, max_iter=80, seed=7)
    trace = run_pgr(game, config, x0, x_star=x_star)

    eps = 1e-3
    theory, (constant, rate) = pgr_theory(
        consts.eta, consts.lip, alpha, rho, 1.0,
        float(np.linalg.norm(x0 - x_star)) ** 2, eps)
    print(f"envelope: {constant:.4f} * {rate:.6f}^k")
    for k in (0, 10, 20, 40, 80):
        bound = constant * rate ** k
        print(f"  k = {k:3d}  error^2 = {trace.errors[0, k]:.3e}  "
              f"bound = {bound:.3e}  batch so far = "
              f"{trace.cum_samples[k - 1] if k else 0}")

    print(f"iterations to reach eps = {eps:g}: K = {theory['k_eps']:.2f}, "
          f"samples M = {theory['m_eps']:.1f}")
    print(f"run used {trace.counter.total_samples} samples and "
          f"{trace.counter.prox_evals} proximal evaluations")


if __name__ == "__main__":
    main()
