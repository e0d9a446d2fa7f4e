"""Proximal gradient-response with geometrically growing batches.

The scheme iterates

    x_{k+1} = prox_{alpha r}(x_k - alpha (G(x_k) + w_k)),

where w_k is the averaged oracle error over N_k = ceil(rho^{-(k+1)}) samples.
With alpha < 2 eta / lip^2 the exact map contracts in mean square at factor
q = 1 - 2 alpha eta + alpha^2 lip^2, and the growing batches turn that into
a linear rate max(rho, q) for the mean squared distance to the equilibrium.
pgr_theory gives the matching envelope, iteration bound K(eps) and
oracle-sample bound M(eps).
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
from .serialize import check_solver
from .trace import RunTrace, check_finite, iterate

# Absolute width of the band |base - other| in which geometric_envelope treats
# the rates (rho and q for pgr, varrho and sqrt(beta) for dist-pgr) as equal.
BRANCH_TOL = 1e-12


@dataclass(frozen=True)
class PgrConfig:
    """Run parameters for the growing-batch gradient-response solver."""

    alpha: float
    rho: float
    max_iter: int
    seed: int = 0

    def __post_init__(self):
        check_solver("pgr", self)


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


def geometric_iterations(constant: float, rate: float, eps: float) -> float:
    """K = ln(constant / eps) / ln(1 / rate), clamped at 0: the real k at
    which the envelope constant * rate^k reaches eps. K is finite when only
    the ratio overflows, and 0 for a zero constant."""
    if not eps > 0.0:
        raise ValueError(f"eps must be > 0, got {eps}")
    ratio = constant / eps
    if ratio == 0.0:  # ln would fail; the envelope is below eps at k = 0
        return 0.0
    log_ratio = math.log(ratio) if ratio < math.inf \
        else math.log(constant) - math.log(eps)
    return max(0.0, log_ratio / math.log(1.0 / rate))


def geometric_complexity(constant: float, rate: float, batch_rate: float,
                         eps: float) -> tuple[float, float]:
    """(K, samples) for the envelope constant * rate^k to reach eps under
    batches N_k = ceil(batch_rate^{-(k+1)}): K is geometric_iterations',
    and the batch sum is at most (constant / eps)^p / (batch_rate ln(1 /
    batch_rate)), p = ln(1 / batch_rate) / ln(1 / rate), plus one ceiling
    per iteration, K; samples is inf where that overflows."""
    k_eps = geometric_iterations(constant, rate, eps)
    lead = 1.0 / (batch_rate * math.log(1.0 / batch_rate))
    exponent = math.log(1.0 / batch_rate) / math.log(1.0 / rate)
    return k_eps, lead * power_or_inf(constant / eps, exponent) + k_eps


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
    """(theory, (constant, rate)) of a pgr run and of `bounds`. The envelope
    constant * rate^k on E||x_k - x*||^2 is geometric_envelope of c_start
    and the noise alpha^2 nu^2 at the rates (rho, q); theory holds q, the
    constant as c_rho_q off the knife edge rho == q or as d_tilde on it,
    rho_tilde, and K(eps) and M(eps) as k_eps and m_eps when eps is given.
    """
    if not (0.0 < rho < 1.0):
        raise ValueError(f"rho must lie in (0, 1), got {rho}")
    if not (c_start >= 0.0 and nu >= 0.0 and nu * nu < math.inf):
        raise ValueError(f"need c_start >= 0 and nu >= 0 with nu^2 finite, "
                         f"got c_start={c_start}, nu={nu}")
    q = contraction_factor_q(eta, lip, alpha)
    constant, rate, rho_tilde = geometric_envelope(
        c_start, alpha ** 2 * nu ** 2, rho, q, rho_tilde)
    theory = {"q": q, "c_rho_q": None if rho_tilde else constant,
              "d_tilde": constant if rho_tilde else None,
              "rho_tilde": rho_tilde}
    if eps is not None:
        theory["k_eps"], theory["m_eps"] = geometric_complexity(
            constant, rate, rho, eps)
    return theory, (constant, rate)


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


def pgr_iterations(theory: dict, max_iter: int) -> int:
    """The iteration count of a pgr run cut at pgr_theory's K(eps):
    max_iter, or ceil(k_eps) (at least 1) where k_eps is below it."""
    k_eps = theory.get("k_eps", math.inf)
    return max(1, math.ceil(k_eps)) if k_eps < max_iter else max_iter


def run_pgr(game: QuadraticGame, config: PgrConfig, x0: np.ndarray,
            x_star: np.ndarray | None = None,
            replications: Sequence[int] = (0,)) -> RunTrace:
    """Growing-batch gradient-response runs in one RunTrace (trace.iterate).

    The oracle error at iteration k of replication r is r's row of
    iteration_errors for config.seed: the joint gradient's noise of a
    quadratic game, or one entry per player of a Cournot game.
    Replications and reruns are reproducible, and a run cut short draws
    the leading rows of the full run. When x_star is given, errors[j, k]
    records ||x_k - x*||^2 of row j for k = 0..max_iter.
    """
    contraction_factor_q(game.constants.eta, game.constants.lip, config.alpha)
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
    return iterate(step, x0, x_star, game.dims, GeometricBatch(config.rho),
                   config.max_iter, *game.noise_blocks, config.seed,
                   replications, "squared_distance")
