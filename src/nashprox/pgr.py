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
from .games import QuadraticGame, check_lipschitz
from .prox import compiled_prox
from .sampling import GeometricBatch, sample_batch_gradient
from .trace import RunTrace, check_finite, check_run, check_start, iterate

# Absolute width of the band |base - other| in which geometric_envelope treats
# the rates (rho and q for pgr, varrho and sqrt(beta) for dist-pgr) as equal.
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

    Raises InvalidStep when alpha lies outside (0, 2 eta / lip^2), which
    is checked before alpha^2 could overflow, or when q rounds to 1.
    """
    if not 0.0 < eta <= lip < 1e154:  # lip^2 must stay finite
        raise ValueError(f"need 0 < eta <= lip < 1e154, got eta={eta}, lip={lip}")
    check_lipschitz(lip)
    bound = 2.0 * eta / lip ** 2
    if not 0.0 < alpha < bound:
        raise InvalidStep(f"alpha={alpha} outside (0, 2 eta/lip^2) = "
                          f"(0, {bound})")
    q = 1.0 - 2.0 * alpha * eta + alpha ** 2 * lip ** 2
    if q >= 1.0:
        raise InvalidStep(
            f"alpha={alpha} gives contraction factor q={q} >= 1; "
            f"need alpha in (0, {bound})")
    return q


def rate_constants(eta: float, lip: float, alpha: float, rho: float, nu: float,
                   c_start: float, rho_tilde: float | None = None) -> RateConstants:
    """Envelope constants for the mean squared error of the growing-batch run:
    geometric_envelope of c_start, a bound on E||x_0 - x*||^2, and the noise
    alpha^2 nu^2 at the rates (rho, q). Off the knife edge rho == q its
    constant is c_rho_q; on it, d_tilde at rate rho_tilde.
    """
    if not (0.0 < rho < 1.0):
        raise ValueError(f"rho must lie in (0, 1), got {rho}")
    if not (c_start >= 0.0 and nu >= 0.0 and nu * nu < math.inf):
        raise ValueError(f"need c_start >= 0 and nu >= 0 with nu^2 finite, "
                         f"got c_start={c_start}, nu={nu}")
    q = contraction_factor_q(eta, lip, alpha)
    constant, _, rho_tilde = geometric_envelope(c_start, alpha ** 2 * nu ** 2,
                                                rho, q, rho_tilde)
    c_rho_q, d_tilde = (None, constant) if rho_tilde else (constant, None)
    return RateConstants(q, c_start, c_rho_q, d_tilde, rho_tilde)


def geometric_envelope(c_start: float, noise: float, base: float,
                       other: float, tilde: float | None = None
                       ) -> tuple[float, float, float | None]:
    """(constant, rate, tilde) of the envelope constant * rate^k of an error
    that contracts at rate base and gains noise * other^k per step.

    Off the knife edge, constant = c_start + noise / (1 - min(base/other,
    other/base)), rate = max(base, other) and tilde is None. On it
    (|base - other| <= BRANCH_TOL), rate = tilde in (base, 1), default
    midway to 1, and constant = c_start + noise / (e ln(tilde / base)).
    """
    if abs(base - other) <= BRANCH_TOL:
        if tilde is None:
            tilde = (1.0 + base) / 2.0
        if not (base < tilde < 1.0):
            raise ValueError(f"rho_tilde must lie in ({base}, 1), got {tilde}")
        constant = c_start + noise / (math.e * math.log(tilde / base))
        return constant, tilde, tilde
    gap = 1.0 - (other / base if other < base else base / other)
    return c_start + noise / gap, max(base, other), None


def envelope_params(rc: RateConstants, rho: float) -> tuple[float, float]:
    """(constant, rate) of the envelope constant * rate^k encoded by rc."""
    if rc.d_tilde is not None:
        return rc.d_tilde, rc.rho_tilde
    return rc.c_rho_q, max(rho, rc.q)


def geometric_complexity(constant: float, rate: float, batch_rate: float,
                         eps: float) -> tuple[float, float]:
    """(K, samples) for the envelope constant * rate^k to reach eps under
    batches N_k = ceil(batch_rate^{-(k+1)}).

    K = ln(constant / eps) / ln(1 / rate), clamped at 0 (finite when only
    the ratio overflows). The batch sum is at most (constant / eps)^p /
    (batch_rate ln(1 / batch_rate)), p = ln(1 / batch_rate) / ln(1 / rate),
    plus one ceiling per iteration, K; samples is inf where that overflows.
    A zero ratio (a zero constant) gives K = 0 and samples = 0.
    """
    if not eps > 0.0:
        raise ValueError(f"eps must be > 0, got {eps}")
    ratio = constant / eps
    if ratio == 0.0:  # ln would fail; the envelope is below eps at k = 0
        return 0.0, 0.0
    log_ratio = math.log(ratio) if ratio < math.inf \
        else math.log(constant) - math.log(eps)
    k_eps = max(0.0, log_ratio / math.log(1.0 / rate))
    lead = 1.0 / (batch_rate * math.log(1.0 / batch_rate))
    exponent = math.log(1.0 / batch_rate) / math.log(1.0 / rate)
    return k_eps, lead * power_or_inf(ratio, exponent) + k_eps


def power_or_inf(base: float, exponent: float) -> float:
    """base ** exponent, or inf where that overflows a float. Both are
    taken as Python floats, whose power raises OverflowError where numpy's
    scalar power would warn."""
    try:
        return float(base) ** float(exponent)
    except OverflowError:
        return math.inf


def pgr_theory(eta: float, lip: float, alpha: float, rho: float, nu: float,
               c_start: float, eps: float | None,
               rho_tilde: float | None = None) -> tuple[dict, tuple]:
    """The theory fields of a pgr run and of `bounds` (q, c_rho_q, d_tilde,
    rho_tilde, and K(eps) and M(eps) when eps is given) and the envelope's
    (constant, rate); pgr_loop cuts a target_eps run at this K(eps)."""
    rc = rate_constants(eta, lip, alpha, rho, nu, c_start, rho_tilde)
    theory = {"q": rc.q, "c_rho_q": rc.c_rho_q, "d_tilde": rc.d_tilde,
              "rho_tilde": rc.rho_tilde}
    envelope = envelope_params(rc, rho)
    if eps is not None:
        theory["k_eps"], theory["m_eps"] = geometric_complexity(
            *envelope, rho, eps)
    return theory, envelope


def recommended_parameters(eta: float, lip: float) -> tuple[float, float]:
    """Step and batch ratio (alpha, rho) = (eta/lip^2, 1 - 1/(2 kappa^2)).

    This choice makes q = 1 - 1/kappa^2 < rho, so the batch growth is the
    binding rate and the bounds scale as K = O(kappa^2 ln(1/eps)) iterations
    and M = O(kappa^2 / eps) samples. Raises ValueError when kappa^2
    could overflow a float, as ne_error_bound does.
    """
    if not 0.0 < eta <= lip < 1e154:  # lip^2 must stay finite
        raise ValueError(f"need 0 < eta <= lip < 1e154, got eta={eta}, lip={lip}")
    kappa = lip / eta
    if not kappa < 1e154:
        raise ValueError(f"condition number kappa = lip/eta = {kappa:.6g} must "
                         f"be below 1e154, so that kappa^2 stays finite")
    return eta / lip ** 2, 1.0 - 1.0 / (2.0 * kappa ** 2)


def pgr_loop(game: QuadraticGame, config: PgrConfig, x0: np.ndarray,
             x_star: np.ndarray | None = None) -> tuple:
    """(schedule, iterations, noise levels, noise dims) of run_pgr's loop:
    max_iter iterations, or ceil(K(target_eps)) if fewer; the noise is
    the game's noise_blocks (one level on a quadratic game's joint
    gradient, one per Cournot player)."""
    consts, n_iter = game.constants, config.max_iter
    if config.target_eps is not None:
        if x_star is None:
            raise ValueError("target_eps requires a reference equilibrium x_star")
        check_start(x0, x_star, game.dims)
        k_eps = pgr_theory(consts.eta, consts.lip, config.alpha, config.rho,
                           consts.nu, float(np.linalg.norm(x0 - x_star)) ** 2,
                           config.target_eps)[0]["k_eps"]
        if k_eps < n_iter:
            n_iter = max(1, math.ceil(k_eps))
    return GeometricBatch(config.rho), n_iter, *game.noise_blocks


def run_pgr(game: QuadraticGame, config: PgrConfig, x0: np.ndarray,
            x_star: np.ndarray | None = None,
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
    contraction_factor_q(game.constants.eta, game.constants.lip, config.alpha)
    loop = pgr_loop(game, config, x0, x_star)
    prox = compiled_prox(game.regularizers, game.dims, config.alpha)

    def step(k, n_k, x, w, counter):
        g = np.empty(x.shape)  # C-contiguous rows, written in place
        with np.errstate(over="ignore", invalid="ignore"):  # check_finite
            for xr, wr, gr in zip(x, w, g):
                sample_batch_gradient(game, xr, n_k, wr, out=gr)
            forward = x - config.alpha * g
        counter.total_samples += n_k
        check_finite(forward, k, replications)
        counter.prox_evals += 1
        return prox(forward)
    return iterate(step, x0, x_star, game.dims, *loop, config.seed,
                   replications, "squared_distance")
