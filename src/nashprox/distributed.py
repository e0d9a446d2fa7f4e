"""Consensus-based gradient response for aggregative games.

Each player holds a local estimate v_i of the average strategy (1/N) sum_j
x_j, refreshes it by tau_k = k + 1 rounds of Metropolis averaging, takes a
proximal gradient step against the estimated aggregate N * v_hat_i with a
batch of N_k = ceil(beta^{-(k+1)/2}) samples, and then shifts the estimate
by its own strategy change, which preserves sum_i v_i = sum_i x_i:

    v_hat_k = A^{tau_k} v_k
    x_{i,k+1} = prox_{alpha r_i}(x_{i,k} - alpha (grad_i(x_{i,k}, N v_hat_{i,k}) + e_{i,k}))
    v_{i,k+1} = v_{i,k} + x_{i,k+1} - x_{i,k}

beta is the mixing rate of the weight matrix, so the consensus error and
the sampling error decay at the same geometric rate and the mean squared
distance to the equilibrium inherits the rate max(varrho, sqrt(beta)) with
varrho = 1 - 2 alpha eta + 2 alpha^2 lip^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import InvalidStep
from .games import AggregativeGame, GameConstants
from .graphs import CommGraph, consensus_apply, mixing_params
from .pgr import BRANCH_TOL, power_or_inf
from .profiles import StrategyProfile
from .sampling import RootGeometricBatch
from .trace import RunTrace, check_finite, check_run, iterate


@dataclass(frozen=True)
class DistConfig:
    """Run parameters for the consensus-based solver.

    beta, when given, overrides the mixing rate used by the batch schedule
    (the default is the weight matrix's second largest eigenvalue modulus).
    The consensus schedule is fixed at tau_k = k + 1 rounds at iteration k.
    """

    alpha: float
    max_iter: int
    beta: float | None = None
    seed: int = 0

    def __post_init__(self):
        if not (self.alpha > 0.0 and math.isfinite(self.alpha)):
            raise ValueError(f"alpha must be finite and > 0, got {self.alpha}")
        check_run(self.max_iter, self.seed)
        if self.beta is not None and not (0.0 < self.beta < 1.0):
            raise ValueError(
                f"mixing rate beta must lie in (0, 1), got {self.beta}")


@dataclass
class DistState:
    """Per-node state at one iteration, one row per replication: strategies
    x, average-tracking estimates v, and their consensus refresh v_hat."""

    x: np.ndarray
    v: np.ndarray
    v_hat: np.ndarray


@dataclass(frozen=True)
class DistRateConstants:
    """Constants of the distributed mean-square envelope.

    varrho = 1 - 2 alpha eta + 2 alpha^2 lip^2 is the step contraction;
    c1, c2 bound the accumulated consensus deviation under tau_k = k + 1;
    c3 collects the per-iteration noise plus consensus perturbation that
    multiplies the geometric tail.
    """

    varrho: float
    c1: float
    c2: float
    c3: float
    m_compact: float
    l_i: tuple[float, ...]
    nu_i: tuple[float, ...]
    beta: float
    theta: float


class DistComplexity(NamedTuple):
    k_eps: float
    comm_rounds: float
    samples: float


def run_dist_pgr(game: AggregativeGame, graph: CommGraph, config: DistConfig,
                 x_star: StrategyProfile | None = None,
                 replications: Sequence[int] = (0,),
                 x0: StrategyProfile | None = None,
                 on_state: Callable[[int, DistState], None] | None = None
                 ) -> RunTrace:
    """Consensus-based growing-batch runs on an aggregative game, one RunTrace.

    Player i's gradient error at iteration k of replication r is entry i
    of r's row of iteration_errors for config.seed. errors[j, k] is row
    j's ||x_k - x*||^2 when x_star is given. consensus_errors[j, k] records
    max_i |v_hat_{i,k} - mean_j(x_{j,k})| of row j, the aggregate
    estimation error before scaling by N.
    The on_state hook, when given, observes (k, DistState) after each
    consensus refresh.
    """
    if graph.n_nodes != game.n_players:
        raise ValueError(
            f"graph has {graph.n_nodes} nodes for {game.n_players} players")
    _check_step(config.alpha, game.constants)
    beta = config.beta if config.beta is not None else mixing_params(graph).beta
    if not beta > 0.0:
        raise ValueError("mixing rate beta must be positive to schedule batches")
    if x0 is None:
        x0 = game.midpoint()
    n = game.n_players
    v = np.tile(x0.vector, (np.size(replications), 1))
    consensus_errors: list[np.ndarray] = []

    def step(k, n_k, x, w, counter):
        nonlocal v
        # a product per row: one (N, R) product would not keep each row's bits
        v_hat = np.array([consensus_apply(graph, v_r, k + 1) for v_r in v])
        counter.comm_rounds += k + 1
        if on_state is not None:
            on_state(k, DistState(x=x.copy(), v=v.copy(), v_hat=v_hat.copy()))
        counter.total_samples += n * n_k
        with np.errstate(over="ignore", invalid="ignore"):  # check_finite
            forward = x - config.alpha * (game.gradients(x, n * v_hat) + w)
        check_finite(forward, k, replications)
        x_next = game.project(forward)
        counter.prox_evals += 1
        # Evaluated as (v - x) + x_next so that v stays bitwise equal to x
        # whenever v_0 = x_0.
        v = (v - x) + x_next
        consensus_errors.append(np.max(np.abs(
            v_hat - np.mean(x, axis=1)[:, None]), axis=1))
        return x_next
    trace = iterate(step, x0, x_star, game.dims, RootGeometricBatch(beta),
                    config.max_iter, game.constants.nu_i, game.dims,
                    config.seed, replications, "squared_distance")
    return replace(trace, taus=list(range(1, config.max_iter + 1)),
                   consensus_errors=np.array(consensus_errors).T)


def _check_step(alpha: float, consts: GameConstants) -> None:
    """Reject a step outside (0, eta/lip^2), where the distributed step
    factor varrho = 1 - 2 alpha eta + 2 alpha^2 lip^2 is below one."""
    if not 0.0 < alpha < consts.eta / consts.lip ** 2:
        raise InvalidStep(
            f"alpha={alpha} outside (0, eta/lip^2) = "
            f"(0, {consts.eta / consts.lip ** 2}); the distributed step "
            f"contraction needs the smaller range")


def dist_rate_constants(game: AggregativeGame, graph: CommGraph, alpha: float,
                        beta: float | None = None,
                        theta: float | None = None) -> DistRateConstants:
    """Envelope constants of the consensus-based run.

    With M = sum_j max |x_j| over the boxes and mixing bound theta beta^k,
    the accumulated consensus deviation under tau_k = k + 1 satisfies the
    geometric estimates with

        c1 = M theta (1 + 2 e sqrt(1 / ln(beta^{-1/2})))
        c2 = 4 M theta / ln(1/beta)

    and the per-iteration perturbation constant is

        c3 = alpha^2 sum_i nu_i^2
           + 4 alpha M N (c1 beta^{1/2} + c2) sum_i L_i
           + 4 alpha^2 N^2 (c1^2 beta^{3/2} + c2^2 beta^{1/2}) sum_i L_i^2.

    beta = 0 (perfect mixing) short-circuits to c1 = M theta, c2 = 0,
    c3 = alpha^2 sum nu_i^2. Requires alpha in (0, eta/lip^2) so the step
    factor varrho = 1 - 2 alpha eta + 2 alpha^2 lip^2 stays below one.
    """
    consts = game.constants
    _check_step(alpha, consts)
    if beta is None or theta is None:
        mp = mixing_params(graph)
        beta = mp.beta if beta is None else beta
        theta = mp.theta if theta is None else theta
    if not (0.0 <= beta < 1.0):
        raise ValueError(f"beta must lie in [0, 1), got {beta}")
    varrho = 1.0 - 2.0 * alpha * consts.eta + 2.0 * alpha ** 2 * consts.lip ** 2
    m_compact = consts.m_compact
    l_i = game.aggregate_lipschitz
    nu_i = consts.nu_i
    n = game.n_players
    sum_l = sum(l_i)
    sum_l2 = sum(v ** 2 for v in l_i)
    sum_nu2 = sum(v ** 2 for v in nu_i)
    if beta == 0.0:
        c1 = m_compact * theta
        c2 = 0.0
        c3 = alpha ** 2 * sum_nu2
    elif beta ** -0.5 == 1.0:
        raise ValueError(f"beta={beta} is too close to 1: ln(beta^(-1/2)) is 0")
    else:
        c1 = m_compact * theta * (1.0 + 2.0 * math.e *
                                  math.sqrt(1.0 / math.log(beta ** -0.5)))
        c2 = 4.0 * m_compact * theta / math.log(1.0 / beta)
        c3 = alpha ** 2 * sum_nu2 \
            + 4.0 * alpha * m_compact * n * (c1 * beta ** 0.5 + c2) * sum_l \
            + 4.0 * alpha ** 2 * n ** 2 * (c1 ** 2 * beta ** 1.5 +
                                           c2 ** 2 * beta ** 0.5) * sum_l2
    return DistRateConstants(varrho=varrho, c1=c1, c2=c2, c3=c3,
                             m_compact=m_compact, l_i=tuple(l_i),
                             nu_i=tuple(nu_i), beta=float(beta),
                             theta=float(theta))


def dist_envelope_params(rc: DistRateConstants, c_start: float,
                         varrho_tilde: float | None = None) -> tuple[float, float]:
    """(constant, rate) of the distributed envelope constant * rate^k.

    Off the knife edge beta == varrho^2 the rate is max(varrho, sqrt(beta))
    and the constant is c_start + c3 / (1 - min(varrho/sqrt(beta),
    sqrt(beta)/varrho)); on it a strictly larger varrho_tilde (default
    midway to 1) gives constant c_start + c3 / (e ln(varrho_tilde/varrho)).
    """
    if c_start < 0.0:
        raise ValueError(f"c_start must be >= 0, got {c_start}")
    varrho = rc.varrho
    if abs(rc.beta - varrho ** 2) <= BRANCH_TOL:
        if varrho_tilde is None:
            varrho_tilde = (1.0 + varrho) / 2.0
        if not (varrho < varrho_tilde < 1.0):
            raise ValueError(
                f"varrho_tilde must lie in ({varrho}, 1), got {varrho_tilde}")
        constant = c_start + rc.c3 / (math.e * math.log(varrho_tilde / varrho))
        return constant, varrho_tilde
    root_beta = math.sqrt(rc.beta)
    gap = 1.0 - min(varrho / root_beta, root_beta / varrho) if root_beta > 0.0 \
        else 1.0
    constant = c_start + rc.c3 / gap
    return constant, max(varrho, root_beta)


def dist_complexity(rc: DistRateConstants, beta: float, eps: float,
                    c_start: float,
                    varrho_tilde: float | None = None) -> DistComplexity:
    """Iteration, communication, and sample bounds to reach eps.

    K(eps) solves envelope = eps for the envelope of dist_envelope_params
    (clamped at 0); communications under tau_k = k + 1 sum to
    (K + 1)(K + 2) / 2; samples follow the schedule sum, whose closed form
    is (constant/eps)^p / (sqrt(beta) ln(1/sqrt(beta))) + K with p the ratio
    of ln(1/sqrt(beta)) to the envelope's log-rate.
    """
    if not eps > 0.0:
        raise ValueError(f"eps must be > 0, got {eps}")
    if not (0.0 < beta < 1.0):
        raise ValueError(f"beta must lie in (0, 1), got {beta}")
    if abs(beta - rc.beta) > 1e-9:
        raise ValueError(
            f"beta={beta} disagrees with rate constants built at {rc.beta}")
    constant, rate = dist_envelope_params(rc, c_start, varrho_tilde)
    k_eps = max(0.0, math.log(constant / eps) / math.log(1.0 / rate))
    comm = (k_eps + 1.0) * (k_eps + 2.0) / 2.0
    root_beta = math.sqrt(beta)
    lead = 1.0 / (root_beta * math.log(1.0 / root_beta))
    exponent = math.log(1.0 / root_beta) / math.log(1.0 / rate)
    samples = lead * power_or_inf(constant / eps, exponent) + k_eps
    return DistComplexity(k_eps=k_eps, comm_rounds=comm, samples=samples)
