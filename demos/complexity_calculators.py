"""Rate and complexity calculators, no simulation involved.

Walks through the closed-form quantities the solvers certify against:
the one-step contraction factor, the geometric error envelope, and the
iteration / sample / communication counts needed to reach a target
accuracy, for the centralized, distributed, and best-response schemes.
"""
from __future__ import annotations

from nashprox import (
    AggregativeGame,
    BestResponseBatch,
    contraction_factor_q,
    dist_rate_constants,
    dist_theory,
    mixing_params,
    pbr_theory,
    pgr_theory,
    recommended_parameters,
    ring_graph,
)


def main() -> None:
    eta, lip, nu = 1.0, 3.0, 1.0
    print("centralized scheme")
    for alpha in (0.05, 0.1, 0.2):
        print(f"  alpha = {alpha:.2f} -> q = "
              f"{contraction_factor_q(eta, lip, alpha):.4f}")
    alpha, rho = recommended_parameters(eta, lip)
    print(f"  recommended alpha = {alpha:.6f}, rho = {rho:.6f}")
    _, (constant, rate) = pgr_theory(eta, lip, alpha, rho, nu, 1.0, None)
    print(f"  envelope {constant:.4f} * {rate:.6f}^k")
    for eps in (1e-2, 1e-3, 1e-4):
        theory, _ = pgr_theory(eta, lip, alpha, rho, nu, 1.0, eps)
        print(f"  eps = {eps:g}: K = {theory['k_eps']:8.2f}, "
              f"M = {theory['m_eps']:12.1f}")

    print("distributed scheme (ring of 5)")
    graph = ring_graph(5)
    game = AggregativeGame(a=(1.0,) * 5, b=(0.0,) * 5, d=2.0, c_price=1.0,
                           lo=(0.0,) * 5, hi=(1.0,) * 5)
    beta = mixing_params(graph).beta
    rc_d = dist_rate_constants(game, graph, alpha=0.02)
    _, (constant, rate) = dist_theory(rc_d, 1.0, None)
    print(f"  beta = {beta:.4f}, varrho = {rc_d.varrho:.4f}, "
          f"envelope {constant:.4f} * {rate:.6f}^k")
    for eps in (1e-2, 1e-3):
        theory, _ = dist_theory(rc_d, 1.0, eps)
        print(f"  eps = {eps:g}: K = {theory['k_eps']:7.2f}, "
              f"gossip rounds = {theory['comm_eps']:.3e}, "
              f"samples = {theory['m_eps']:.3e}")

    print("best-response scheme")
    schedule = BestResponseBatch(m_max=1.0, c_r=1.9, eta_br=0.7)
    for eps in (1e-1, 1e-2, 1e-3):
        theory, _ = pbr_theory(schedule, a=2.0 / 3.0, n_players=2,
                               c_start=1.0, eps=eps)
        print(f"  eps = {eps:g}: K = {theory['k_eps']:3d}, "
              f"samples <= {theory['m_eps']:.4e}, "
              f"order value = {theory['m_eps_order']:12.1f}")


if __name__ == "__main__":
    main()
