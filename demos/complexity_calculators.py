"""Rate and complexity calculators, no simulation involved.

Walks through the closed-form quantities the solvers certify against:
the one-step contraction factor, the geometric error envelope, and the
iteration / sample / communication counts needed to reach a target
accuracy, for the centralized, distributed, and best-response schemes.
"""
from __future__ import annotations

from nashprox import (
    AggregativeGame,
    PbrConfig,
    contraction_factor_q,
    dist_complexity,
    dist_envelope_params,
    dist_rate_constants,
    envelope_params,
    mixing_params,
    pbr_complexity,
    rate_constants,
    recommended_parameters,
    ring_graph,
)
from nashprox.pgr import geometric_complexity


def main() -> None:
    eta, lip, nu = 1.0, 3.0, 1.0
    print("centralized scheme")
    for alpha in (0.05, 0.1, 0.2):
        print(f"  alpha = {alpha:.2f} -> q = "
              f"{contraction_factor_q(eta, lip, alpha):.4f}")
    alpha, rho = recommended_parameters(eta, lip)
    print(f"  recommended alpha = {alpha:.6f}, rho = {rho:.6f}")
    rc = rate_constants(eta, lip, alpha, rho, nu, c_start=1.0)
    constant, rate = envelope_params(rc, rho)
    print(f"  envelope {constant:.4f} * {rate:.6f}^k")
    for eps in (1e-2, 1e-3, 1e-4):
        k_eps, m_eps = geometric_complexity(constant, rate, rho, eps)
        print(f"  eps = {eps:g}: K = {k_eps:8.2f}, M = {m_eps:12.1f}")

    print("distributed scheme (ring of 5)")
    graph = ring_graph(5)
    game = AggregativeGame(a=(1.0,) * 5, b=(0.0,) * 5, d=2.0, c_price=1.0,
                           lo=(0.0,) * 5, hi=(1.0,) * 5)
    beta = mixing_params(graph).beta
    rc_d = dist_rate_constants(game, graph, alpha=0.02)
    constant, rate = dist_envelope_params(rc_d, c_start=1.0)
    print(f"  beta = {beta:.4f}, varrho = {rc_d.varrho:.4f}, "
          f"envelope {constant:.4f} * {rate:.6f}^k")
    for eps in (1e-2, 1e-3):
        comp = dist_complexity(rc_d, eps, c_start=1.0)
        print(f"  eps = {eps:g}: K = {comp.k_eps:7.2f}, "
              f"gossip rounds = {comp.comm_rounds:.3e}, "
              f"samples = {comp.samples:.3e}")

    print("best-response scheme")
    config = PbrConfig(mu=1.0, eta_br=0.7, max_iter=1, m_max=1.0, c_r=1.9)
    for eps in (1e-1, 1e-2, 1e-3):
        comp = pbr_complexity(config, a=2.0 / 3.0, eps=eps, n_players=2,
                              c_start=1.0)
        print(f"  eps = {eps:g}: K = {comp.k_eps:3d}, "
              f"samples = {comp.samples:10d}, "
              f"order value = {comp.order_value:12.1f}")


if __name__ == "__main__":
    main()
