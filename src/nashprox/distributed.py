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
from dataclasses import asdict, dataclass, replace
from typing import Sequence

import numpy as np

from .errors import InvalidStep
from .games import QuadraticGame
from .graphs import CommGraph, consensus_apply, mixing_params
from .pgr import geometric_complexity, geometric_envelope, power_or_inf
from .prox import compiled_prox
from .sampling import RootGeometricBatch
from .serialize import check_solver
from .trace import RunTrace, check_finite, iterate


@dataclass(frozen=True)
class DistConfig:
    """Run parameters for the consensus-based solver.

    beta, when given, replaces the graph's mixing rate (its weights' second
    largest eigenvalue modulus, 0 on a complete graph, which then needs
    it) in the batch schedule and the consensus bound; it cannot be below
    the graph's. The consensus schedule is tau_k = k + 1 rounds.
    """

    alpha: float
    max_iter: int
    beta: float | None = None
    seed: int = 0

    def __post_init__(self):
        check_solver("dist-pgr", self)


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
    beta: float
    theta: float


def run_dist_pgr(game: QuadraticGame, graph: CommGraph, config: DistConfig,
                 x_star: np.ndarray | None = None,
                 replications: Sequence[int] = (0,),
                 x0: np.ndarray | None = None) -> RunTrace:
    """Consensus-based growing-batch runs on a Cournot game (one with an
    aggregate, as AggregativeGame builds it), one RunTrace.

    Player i's gradient error at iteration k of replication r is entry i
    of r's row of iteration_errors for config.seed. errors[j, k] is row
    j's ||x_k - x*||^2 when x_star is given. consensus_errors[j, k] records
    max_i |v_hat_{i,k} - mean_j(x_{j,k})| of row j, the aggregate
    estimation error before scaling by N. x0 defaults to the box midpoint.
    Rejects what dist_rate_constants rejects.
    """
    schedule = RootGeometricBatch(
        dist_rate_constants(game, graph, config.alpha, config.beta).beta)
    if x0 is None:
        x0 = game.midpoint()
    n = game.n_players
    v = None  # the rows' aggregate trackers
    consensus_errors: list[np.ndarray] = []
    prox = compiled_prox(game.regularizers, game.dims, config.alpha)

    def step(k, n_k, x, w, counter):
        nonlocal v
        if k == 0:  # v_0 = x_0; neither is changed in place
            v = x
        # a product per row: one (N, R) product would not keep each row's bits
        v_hat = np.array([consensus_apply(graph, v_r, k + 1) for v_r in v])
        counter.comm_rounds += k + 1
        counter.total_samples += n * n_k
        with np.errstate(over="ignore", invalid="ignore"):  # check_finite
            forward = x - config.alpha * (game.gradients(x, n * v_hat) + w)
        check_finite(forward, k, replications)
        x_next = prox(forward)
        counter.prox_evals += 1
        # Evaluated as (v - x) + x_next so that v stays bitwise equal to x
        # whenever v_0 = x_0.
        v = (v - x) + x_next
        # the bits of np.max(np.abs(v_hat - np.mean(x, axis=1)[:, None]), 1)
        consensus_errors.append(np.maximum.reduce(np.abs(
            v_hat - (np.add.reduce(x, 1) / n)[:, None]), 1))
        return x_next
    trace = iterate(step, x0, x_star, game.dims, schedule,
                    config.max_iter, game.constants.nu_i, game.dims,
                    config.seed, replications, "squared_distance")
    return replace(trace, taus=list(range(1, config.max_iter + 1)),
                   consensus_errors=np.array(consensus_errors).T)


def dist_rate_constants(game: QuadraticGame, graph: CommGraph, alpha: float,
                        beta: float | None = None) -> DistRateConstants:
    """Envelope constants of the consensus-based run, with its theta and
    beta: mixing_params(graph)'s, or a given beta in [the graph's beta, 1).

    With M = sum_j max |x_j| over the boxes and mixing bound theta beta^k,
    the accumulated consensus deviation under tau_k = k + 1 satisfies the
    geometric estimates with

        c1 = M theta (1 + 2 e sqrt(1 / ln(beta^{-1/2})))
        c2 = 4 M theta / ln(1/beta)

    and the per-iteration perturbation constant is

        c3 = alpha^2 sum_i nu_i^2
           + 4 alpha M N (c1 beta^{1/2} + c2) sum_i L_i
           + 4 alpha^2 N^2 (c1^2 beta^{3/2} + c2^2 beta^{1/2}) sum_i L_i^2,

    where L_i = c_price is the Lipschitz constant of player i's gradient in
    the aggregate. It is dist-pgr's one check of its preconditions: a
    Cournot game (one with an aggregate) with a graph node per player,
    alpha in (0, eta/lip^2) so that the step factor varrho stays below one
    (InvalidStep also when varrho rounds to 1: alpha eta below an ulp), a
    beta above 0 (a complete graph mixes in one round, and its beta = 0
    schedules no batches, so it needs the solver's beta key), and c1, c2,
    c3 in the float range (boxes so wide that M or its square overflows
    give a ValueError naming one).
    """
    if game.aggregate is None:
        raise ValueError("the distributed scheme needs an aggregative game")
    n = game.n_players
    if graph.n_nodes != n:
        raise ValueError(f"graph has {graph.n_nodes} nodes for {n} players")
    consts = game.constants
    if not 0.0 < alpha < consts.eta / consts.lip ** 2:
        raise InvalidStep(
            f"alpha={alpha} outside (0, eta/lip^2) = "
            f"(0, {consts.eta / consts.lip ** 2}); the distributed step "
            f"contraction needs the smaller range")
    mp = mixing_params(graph)
    theta, beta = mp.theta, (mp.beta if beta is None else beta)
    if not mp.beta <= beta < 1.0:
        raise ValueError(
            f"beta={beta} must lie in [{mp.beta}, 1): below the graph's "
            f"mixing rate the consensus bound theta beta^tau fails")
    varrho = 1.0 - 2.0 * alpha * consts.eta + 2.0 * alpha ** 2 * consts.lip ** 2
    if varrho >= 1.0:  # alpha eta below an ulp of 1
        raise InvalidStep(f"alpha={alpha} gives step factor varrho={varrho} "
                          f">= 1; the distributed envelope needs it below 1")
    m_compact = consts.m_compact
    l_i = (game.aggregate.c_price,) * n
    sum_l = sum(l_i)
    sum_l2 = sum(v ** 2 for v in l_i)
    sum_nu2 = sum(v ** 2 for v in consts.nu_i)
    if beta <= 0.0:
        raise ValueError(
            "the graph mixes in one round (beta = 0), but batches N_k = "
            "ceil(beta^(-(k+1)/2)) need beta in (0, 1): set the solver's "
            "'beta' key (DistConfig.beta) to a rate in (0, 1)")
    if beta ** -0.5 == 1.0:
        raise ValueError(f"beta={beta} is too close to 1: ln(beta^(-1/2)) is 0")
    c1 = m_compact * theta * (1.0 + 2.0 * math.e *
                              math.sqrt(1.0 / math.log(beta ** -0.5)))
    c2 = 4.0 * m_compact * theta / math.log(1.0 / beta)
    c3 = alpha ** 2 * sum_nu2 \
        + 4.0 * alpha * m_compact * n * (c1 * beta ** 0.5 + c2) * sum_l \
        + 4.0 * alpha ** 2 * n ** 2 * (
            power_or_inf(c1, 2) * beta ** 1.5
            + power_or_inf(c2, 2) * beta ** 0.5) * sum_l2
    for name, value in (("c1", c1), ("c2", c2), ("c3", c3)):
        if not math.isfinite(value):
            raise ValueError(f"rate constant {name} = {value} leaves the float "
                             f"range; the boxes give m_compact = "
                             f"{m_compact:.6g}")
    return DistRateConstants(varrho=varrho, c1=c1, c2=c2, c3=c3,
                             m_compact=m_compact, beta=float(beta),
                             theta=theta)


def dist_theory(rc: DistRateConstants, c_start: float,
                eps: float | None) -> tuple[dict, tuple[float, float]]:
    """(theory, (constant, rate)) of a dist-pgr run. The envelope
    constant * rate^k is pgr.geometric_envelope of c_start and the noise
    c3 at the rates (varrho, sqrt(beta)), with its default shifted rate on
    the knife edge. theory holds rc's fields and c_start and, when eps is
    given, pgr.geometric_complexity's K(eps) and samples under batches at
    rate sqrt(beta) as k_eps and m_eps, and the communications under
    tau_k = k + 1, (K + 1)(K + 2) / 2, as comm_eps.
    """
    if c_start < 0.0:
        raise ValueError(f"c_start must be >= 0, got {c_start}")
    constant, rate, _ = geometric_envelope(c_start, rc.c3, rc.varrho,
                                           math.sqrt(rc.beta))
    theory = dict(asdict(rc), c_start=c_start)
    if eps is not None:
        if not (0.0 < rc.beta < 1.0):
            raise ValueError(f"beta must lie in (0, 1), got {rc.beta}")
        k_eps, m_eps = geometric_complexity(constant, rate,
                                            math.sqrt(rc.beta), eps)
        theory.update(k_eps=k_eps, comm_eps=(k_eps + 1.0) * (k_eps + 2.0) / 2.0,
                      m_eps=m_eps)
    return theory, (constant, rate)
