"""Proximal gradient-response with geometrically growing batches.

The scheme iterates

    x_{k+1} = prox_{alpha r}(x_k - alpha (G(x_k) + w_k)),

where w_k is the averaged oracle error over N_k = ceil(rho^{-(k+1)}) samples.
With alpha < 2 eta / lip^2 the exact map contracts in mean square at factor
q = 1 - 2 alpha eta + alpha^2 lip^2, and the growing batches turn that into
a linear rate max(rho, q) for the mean squared distance to the equilibrium.
The companion calculators give the matching rate constants, iteration bound
K(eps), and oracle-sample bound M(eps).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import InvalidStep
from .games import Game, QuadraticGame
from .profiles import StrategyProfile
from .prox import compiled_prox
from .sampling import GeometricBatch, sample_batch_gradient
from .trace import RunTrace, check_finite, check_run, iterate

# Relative width of the band around rho == q (or beta == varrho^2) inside
# which the two decay rates are treated as matched.
BRANCH_TOL = 1e-12


@dataclass(frozen=True)
class PgrConfig:
    """Run parameters for the growing-batch gradient-response solver.

    target_eps, when set, stops the run at the theoretical iteration bound
    ceil(K(target_eps)) if that comes before max_iter (requires a reference
    equilibrium so the initial error is known).
    """

    alpha: float
    rho: float
    max_iter: int
    seed: int = 0
    target_eps: float | None = None

    def __post_init__(self):
        if not (self.alpha > 0.0 and math.isfinite(self.alpha)):
            raise ValueError(f"alpha must be finite and > 0, got {self.alpha}")
        if not (0.0 < self.rho < 1.0):
            raise ValueError(f"rho must lie in (0, 1), got {self.rho}")
        check_run(self.max_iter, self.seed)
        if self.target_eps is not None and not self.target_eps > 0.0:
            raise ValueError(f"target_eps must be > 0, got {self.target_eps}")


@dataclass(frozen=True)
class RateConstants:
    """Constants of the mean-square linear rate envelope.

    Off the knife edge rho == q the envelope is c_rho_q * max(rho, q)^k and
    d_tilde/rho_tilde are None; on it the envelope is d_tilde * rho_tilde^k
    for a chosen rho_tilde in (rho, 1) and c_rho_q is None. c_start is the
    initial squared distance bound used in both.
    """

    q: float
    c_start: float
    c_rho_q: float | None
    d_tilde: float | None
    rho_tilde: float | None


def contraction_factor_q(eta: float, lip: float, alpha: float) -> float:
    """Mean-square contraction factor q = 1 - 2 alpha eta + alpha^2 lip^2.

    Raises InvalidStep when q >= 1, i.e. alpha outside (0, 2 eta / lip^2).
    """
    if not 0.0 < eta <= lip < 1e154:  # lip^2 must stay finite
        raise ValueError(f"need 0 < eta <= lip < 1e154, got eta={eta}, lip={lip}")
    if not (alpha > 0.0 and math.isfinite(alpha)):
        raise InvalidStep(f"alpha must be finite and > 0, got {alpha}")
    q = 1.0 - 2.0 * alpha * eta + alpha ** 2 * lip ** 2
    if q >= 1.0:
        raise InvalidStep(
            f"alpha={alpha} gives contraction factor q={q} >= 1; "
            f"need alpha in (0, {2.0 * eta / lip ** 2})")
    return q


def rate_constants(eta: float, lip: float, alpha: float, rho: float, nu: float,
                   c_start: float, rho_tilde: float | None = None) -> RateConstants:
    """Envelope constants for the mean squared error of the growing-batch run.

    c_start bounds E||x_0 - x*||^2. Off the knife edge the geometric series
    of noise terms sums to c_rho_q = c_start + alpha^2 nu^2 / (1 - min(rho/q,
    q/rho)); on it (|rho - q| <= 1e-12) the envelope needs a strictly larger
    rate rho_tilde (default midway to 1) and constant d_tilde = c_start +
    alpha^2 nu^2 / (e ln(rho_tilde / rho)).
    """
    if not (0.0 < rho < 1.0):
        raise ValueError(f"rho must lie in (0, 1), got {rho}")
    if not (c_start >= 0.0 and nu >= 0.0 and nu * nu < math.inf):
        raise ValueError(f"need c_start >= 0 and nu >= 0 with nu^2 finite, "
                         f"got c_start={c_start}, nu={nu}")
    q = contraction_factor_q(eta, lip, alpha)
    if abs(rho - q) <= BRANCH_TOL:
        if rho_tilde is None:
            rho_tilde = (1.0 + rho) / 2.0
        if not (rho < rho_tilde < 1.0):
            raise ValueError(
                f"rho_tilde must lie in ({rho}, 1), got {rho_tilde}")
        d_tilde = c_start + alpha ** 2 * nu ** 2 / (math.e * math.log(rho_tilde / rho))
        return RateConstants(q=q, c_start=c_start, c_rho_q=None,
                             d_tilde=d_tilde, rho_tilde=rho_tilde)
    gap = 1.0 - (q / rho if q < rho else rho / q)  # min of the two; q may be 0
    c_rho_q = c_start + alpha ** 2 * nu ** 2 / gap
    return RateConstants(q=q, c_start=c_start, c_rho_q=c_rho_q,
                         d_tilde=None, rho_tilde=None)


def envelope_params(rc: RateConstants, rho: float) -> tuple[float, float]:
    """(constant, rate) of the envelope constant * rate^k encoded by rc."""
    if rc.d_tilde is not None:
        return rc.d_tilde, rc.rho_tilde
    return rc.c_rho_q, max(rho, rc.q)


def complexity_K(rc: RateConstants, rho: float, eps: float) -> float:
    """Iterations needed for the envelope to reach eps (clamped at 0).

    Uses the envelope rate: q when rho < q, rho when q < rho, rho_tilde on
    the knife edge.
    """
    if not eps > 0.0:
        raise ValueError(f"eps must be > 0, got {eps}")
    constant, rate = envelope_params(rc, rho)
    return max(0.0, math.log(constant / eps) / math.log(1.0 / rate))


def complexity_M(rc: RateConstants, rho: float, eps: float) -> float:
    """Oracle samples consumed up to K(eps) under N_k = ceil(rho^{-(k+1)}).

    The geometric sum is bounded by (1/(rho ln(1/rho))) * rho^{-K} plus the
    ceiling corrections, one per iteration, giving the additive K term. The
    exponent of (constant/eps) reflects which rate drives K: ln(1/rho)/ln(1/q)
    when rho < q, 1 when q < rho, ln(1/rho)/ln(1/rho_tilde) on the knife edge.
    """
    k_eps = complexity_K(rc, rho, eps)
    lead = 1.0 / (rho * math.log(1.0 / rho))
    constant, rate = envelope_params(rc, rho)
    exponent = math.log(1.0 / rho) / math.log(1.0 / rate)
    return lead * power_or_inf(constant / eps, exponent) + k_eps


def power_or_inf(base: float, exponent: float) -> float:
    """base ** exponent, or inf where that overflows a float."""
    try:
        return base ** exponent
    except OverflowError:
        return math.inf


def recommended_parameters(eta: float, lip: float) -> tuple[float, float]:
    """Step and batch ratio (alpha, rho) = (eta/lip^2, 1 - 1/(2 kappa^2)).

    This choice makes q = 1 - 1/kappa^2 < rho, so the batch growth is the
    binding rate and the bounds scale as K = O(kappa^2 ln(1/eps)) iterations
    and M = O(kappa^2 / eps) samples.
    """
    if not 0.0 < eta <= lip < 1e154:  # lip^2 must stay finite
        raise ValueError(f"need 0 < eta <= lip < 1e154, got eta={eta}, lip={lip}")
    kappa = lip / eta
    return eta / lip ** 2, 1.0 - 1.0 / (2.0 * kappa ** 2)


def run_pgr(game: Game, config: PgrConfig, x0: StrategyProfile,
            x_star: StrategyProfile | None = None,
            replications: Sequence[int] = (0,)) -> RunTrace:
    """Growing-batch gradient-response runs in one RunTrace (trace.iterate).

    The oracle error at iteration k of replication r is r's row of
    iteration_errors for config.seed: the joint gradient's noise of a
    quadratic game, or one entry per player of a Cournot game.
    Replications and reruns are reproducible, and a run cut short draws
    the leading rows of the full run. When x_star is given, errors[j, k]
    records ||x_k - x*||^2 of row j for k = 0..K; when config.target_eps is
    also set, the run stops at ceil(K(target_eps)) if that bound is smaller
    than max_iter.
    """
    consts = game.constants
    contraction_factor_q(consts.eta, consts.lip, config.alpha)
    n_iter = config.max_iter
    if config.target_eps is not None:
        if x_star is None:
            raise ValueError("target_eps requires a reference equilibrium x_star")
        c_start = x0.distance(x_star) ** 2
        rc = rate_constants(consts.eta, consts.lip, config.alpha, config.rho,
                            consts.nu, c_start)
        k_eps = complexity_K(rc, config.rho, config.target_eps)
        if k_eps < n_iter:
            n_iter = max(1, math.ceil(k_eps))
    # a quadratic game's noise is one level on the joint gradient
    levels = ((consts.nu,), (game.dim,)) if isinstance(game, QuadraticGame) \
        else (consts.nu_i, game.dims)
    prox = compiled_prox(game.regularizers, game.dims, config.alpha)

    def step(k, n_k, x, w, counter):
        with np.errstate(over="ignore", invalid="ignore"):  # check_finite
            g = [sample_batch_gradient(game, xr, n_k, wr)
                 for xr, wr in zip(x, w)]
            forward = x - config.alpha * np.array(g)
        counter.total_samples += n_k
        check_finite(forward, k, replications)
        counter.prox_evals += 1
        return prox(forward)
    return iterate(step, x0, x_star, game.dims, GeometricBatch(config.rho),
                   n_iter, *levels, config.seed, replications,
                   "squared_distance")
