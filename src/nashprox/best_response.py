"""Proximal best-response with growing sample batches.

Each iteration every player solves a sampled, proximally anchored best
response

    x_{i,k+1} = argmin_{x_i}  fhat_i(x_i, y_{-i,k}) + r_i(x_i)
                              + mu/2 ||x_i - y_{i,k}||^2,

where fhat_i replaces the smooth cost by a sample average over N_k draws,
and then y_{k+1} = x_{k+1}. The exact anchored map is a componentwise
contraction when the sensitivity matrix Gamma (built from the own-block
curvature and cross-block coupling norms) has spectral norm a < 1, and the
subproblem's argmin perturbs by at most c_r times the gradient observation
error, so batches N_k = ceil(max_i M_i^2 c_r^2 / eta_br^{2k}) keep the
sampling error on the geometric decay eta_br.

The subproblem is solved by proximal gradient until a step moves z by at
most inner_tol; until the active set recurs, and at most d + 1 times, a step
is replaced by a primal-dual active-set Newton point (Hintermueller, Ito and
Kunisch, SIAM J. Optim. 13, 2003): coordinates the prox clips (box) or
zeroes (l1) stay fixed, the rest solve K_FF z_F = -(linear - mu anchor +
w sign(z) + K z_fixed)_F (w the l1 weight) with K = Q_ii + mu I, inverted
once per game, player and mu; a zero player fixes nothing. The coupling
term is one mat-vec with the player's cached rows of the off-diagonal h.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import InnerSolveFailure
from .games import QuadraticGame
from .pgr import power_or_inf
from .profiles import StrategyProfile
from .prox import Zero, compiled_prox, prox_pieces
from .sampling import BestResponseBatch
from .trace import RunTrace, check_run, iterate


@dataclass(frozen=True, eq=False)
class ContractionCertificate:
    """Componentwise sensitivity bound of the anchored best-response map.

    gamma[i][i] = mu / (mu + zeta_min[i]) and gamma[i][j] =
    zeta_max[i][j] / (mu + zeta_min[i]) bound how far player i's anchored
    best response moves per unit change of the anchor and of rival j. The
    map is a contraction in the componentwise sense when a = ||gamma||_2
    is below one; a >= 1 is reported, not raised.
    """

    mu: float
    gamma: np.ndarray
    a: float
    zeta_min: tuple[float, ...]
    zeta_max: np.ndarray


def contraction_certificate(game: QuadraticGame, mu: float) -> ContractionCertificate:
    """Sensitivity matrix and its spectral norm for a quadratic game.

    zeta_min[i] is the smallest eigenvalue of the own block Q_ii and
    zeta_max[i][j] the spectral norm of the coupling block Q_ij. Requires
    mu > 0 and mu + zeta_min[i] > 0 so every subproblem is strongly convex.
    """
    if not (mu > 0.0 and math.isfinite(mu)):
        raise ValueError(f"mu must be finite and > 0, got {mu}")
    zeta_min = tuple(lo for lo, _ in game.own_spectra)
    for i, z in enumerate(zeta_min):
        if mu + z <= 0.0:
            raise ValueError(
                f"subproblem of player {i} is not strongly convex: "
                f"mu + zeta_min = {mu + z}")
    zeta_max = np.array(game.block_norms)
    np.fill_diagonal(zeta_max, 0.0)
    curvature = mu + np.array(zeta_min)
    gamma = zeta_max / curvature[:, None]
    np.fill_diagonal(gamma, mu / curvature)
    a = float(np.linalg.norm(gamma, 2))
    return ContractionCertificate(mu=mu, gamma=gamma, a=a,
                                  zeta_min=zeta_min, zeta_max=zeta_max)


def br_noise_gain(mu: float, lip: float) -> float:
    """Gain c_r from gradient observation error to best-response error.

    c_r = (mu / (mu^2 + lip^2)) / (1 - lip / sqrt(mu^2 + lip^2)), with lip
    the largest own-block gradient Lipschitz constant max_i ||Q_ii||_2. It
    is evaluated as (1 + lip / s) / mu with s = hypot(mu, lip), the same
    value without the cancellation in 1 - lip / s when mu << lip.
    """
    if not (mu > 0.0 and lip >= 0.0):
        raise ValueError(f"need mu > 0 and lip >= 0, got mu={mu}, lip={lip}")
    return (1.0 + lip / math.hypot(mu, lip)) / mu


def _solve_anchored(game: QuadraticGame, i: int, linear: np.ndarray,
                    anchor: np.ndarray, mu: float, tol: float,
                    max_inner: int) -> tuple[np.ndarray, int]:
    """Minimize 0.5 z'Q_ii z + linear'z + mu/2 ||z - anchor||^2 + r_i(z)
    as the module docstring says; returns (argmin, iterations used)."""
    key, qii, d = ("anchored", i, mu), game.blocks[i][i], anchor.size
    if key not in game.solver_cache:  # the step, prox, K and its inverse
        step = 2.0 / sum(mu + e for e in game.own_spectra[i])  # optimal
        regs, k = game.regularizers[i:i + 1], qii + mu * np.eye(d)
        _, _, t, shrink = prox_pieces(regs, (d,), step)
        game.solver_cache[key] = (step, compiled_prox(regs, (d,), step), k,
                                  np.linalg.inv(k), t / step, shrink.any(),
                                  isinstance(regs[0], Zero))
    step, prox, k, k_inv, weight, l1, zero = game.solver_cache[key]
    z, seen, newton = anchor.copy(), set(), d + 1
    for it in range(max_inner):
        v = z - step * (qii @ z + linear + mu * (z - anchor))
        z_next = prox(v)
        dz = z_next - z
        disp = math.sqrt(dz.dot(dz))  # what np.linalg.norm(dz) computes
        if disp <= tol:
            return z_next, it + 1
        if newton and zero and it + 1 < max_inner:  # no active set
            newton, z_next = 0, k_inv @ -(linear - mu * anchor)
        elif newton and it + 1 < max_inner:
            fixed = z_next == 0.0 if l1 else z_next != v
            z_fix = np.where(fixed, z_next, 0.0) + 0.0  # drops -0.0
            shift = weight * np.sign(z_next)
            system = (fixed.tobytes(), (z_fix + shift).tobytes())
            if system in seen:  # the active set recurred: Newton is done
                newton = 0
            else:
                seen.add(system)
                newton, free = newton - 1, ~fixed
                rhs = -(linear - mu * anchor + shift + k @ z_fix)
                if free.all():
                    z_next = k_inv @ rhs
                else:
                    z_next = z_fix
                    z_next[free] = np.linalg.solve(k[free][:, free], rhs[free])
        z = z_next
    raise InnerSolveFailure(
        f"anchored best response of player {i} did not reach displacement "
        f"{tol} in {max_inner} iterations", residual=disp)


def _coupling_linear(game: QuadraticGame, i: int,
                     y: StrategyProfile | np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Player i's linear term c_i + sum_{j != i} Q_ij y_j and its anchor
    y_i, at a profile or its stacked vector."""
    vec = y.vector if isinstance(y, StrategyProfile) else y
    if np.shape(vec) != game.c.shape:  # (game.dim,)
        raise ValueError(f"vector of shape {np.shape(vec)} does not match "
                         f"game dimension {game.dim}")
    if (key := ("coupling", i)) not in game.solver_cache:
        sl = game.block_slice(i)  # c_i and the rows of off_diagonal
        game.solver_cache[key] = (sl, game.c[sl], game.off_diagonal[sl])
    sl, c_i, rows = game.solver_cache[key]
    return c_i + rows @ vec, vec[sl]


def _check_inner(tol: float, max_inner: int) -> None:
    if not tol > 0.0:
        raise ValueError(f"inner tolerance must be > 0, got {tol}")
    if max_inner < 1:
        raise ValueError(f"max_inner must be >= 1, got {max_inner}")


def proximal_best_response(game: QuadraticGame, i: int,
                           y: StrategyProfile | np.ndarray, mu: float,
                           tol: float = 1e-12,
                           max_inner: int = 100_000) -> np.ndarray:
    """Exact anchored best response of player i at y (a profile or its
    stacked vector)."""
    if not (mu > 0.0 and math.isfinite(mu)):
        raise ValueError(f"mu must be finite and > 0, got {mu}")
    _check_inner(tol, max_inner)
    lin, anchor = _coupling_linear(game, i, y)
    z, _ = _solve_anchored(game, i, lin, anchor, mu, tol, max_inner)
    return z


def saa_best_response(game: QuadraticGame, i: int,
                      y: StrategyProfile | np.ndarray,
                      batch: int, mu: float, error: np.ndarray,
                      inner_tol: float = 1e-12,
                      max_inner: int = 100_000) -> np.ndarray:
    """Sampled anchored best response at y (a profile or its stacked
    vector): the smooth gradient carries `error`, the averaged observation
    error over `batch` draws, drawn by the caller (run_pbr passes player
    i's block of its row of noise.iteration_errors).
    """
    if batch < 1:
        raise ValueError(f"batch size must be >= 1, got {batch}")
    _check_inner(inner_tol, max_inner)
    lin, anchor = _coupling_linear(game, i, y)
    return _solve_anchored(game, i, lin + error, anchor, mu, inner_tol,
                           max_inner)[0]


@dataclass(frozen=True)
class PbrConfig:
    """Run parameters for the growing-batch proximal best-response solver.

    m_max (default: the largest per-player noise level) and c_r (default:
    br_noise_gain at the game's own-block curvature) size the batch
    schedule; eta_br is its decay target. eta_tilde, used by the complexity
    bound, defaults to (1 + max(a, eta_br)) / 2.
    """

    mu: float
    eta_br: float
    max_iter: int
    seed: int = 0
    m_max: float | None = None
    c_r: float | None = None
    eta_tilde: float | None = None
    inner_tol: float = 1e-12

    def __post_init__(self):
        if not (self.mu > 0.0 and math.isfinite(self.mu)):
            raise ValueError(f"mu must be finite and > 0, got {self.mu}")
        if not (0.0 < self.eta_br < 1.0):
            raise ValueError(f"eta_br must lie in (0, 1), got {self.eta_br}")
        check_run(self.max_iter, self.seed)
        if self.m_max is not None and self.m_max < 0.0:
            raise ValueError(f"m_max must be >= 0, got {self.m_max}")
        if self.c_r is not None and not self.c_r > 0.0:
            raise ValueError(f"c_r must be > 0, got {self.c_r}")
        if self.eta_tilde is not None and not (0.0 < self.eta_tilde < 1.0):
            raise ValueError(
                f"eta_tilde must lie in (0, 1), got {self.eta_tilde}")
        if not self.inner_tol > 0.0:
            raise ValueError(f"inner_tol must be > 0, got {self.inner_tol}")


class PbrComplexity(NamedTuple):
    k_eps: int
    samples: int | float
    order_value: float


def pbr_envelope(config: PbrConfig, a: float, n_players: int,
                 c_start: float) -> tuple[float, float, float]:
    """(eta_tilde, d, constant) of the envelope E||y_k - x*|| <= constant *
    eta_tilde^k of a pbr run.

    With c = max(a, eta_br) and eta_tilde in (c, 1) (default (1 + c) / 2),
    constant = sqrt(N) (c_start + d) with d = 1 / (e ln(eta_tilde / c))
    and c_start a per-player initial distance bound. Raises ValueError for
    an eta_tilde outside (c, 1), which includes every game with a >= 1.
    """
    c = max(a, config.eta_br)
    eta_tilde = config.eta_tilde if config.eta_tilde is not None \
        else (1.0 + c) / 2.0
    if not (c < eta_tilde < 1.0):
        raise ValueError(
            f"eta_tilde must lie in (max(a, eta_br), 1) = ({c}, 1), "
            f"got {eta_tilde}")
    d = 1.0 / (math.e * math.log(eta_tilde / c))
    return eta_tilde, d, math.sqrt(n_players) * (c_start + d)


def _own_block_lip(game: QuadraticGame) -> float:
    return float(np.max(np.diagonal(game.block_norms)))


def resolved_schedule(game: QuadraticGame, config: PbrConfig) -> BestResponseBatch:
    """Batch schedule with config defaults filled in from the game."""
    m_max = config.m_max if config.m_max is not None else \
        max(game.constants.nu_i)
    c_r = config.c_r if config.c_r is not None else \
        br_noise_gain(config.mu, _own_block_lip(game))
    return BestResponseBatch(m_max=m_max, c_r=c_r, eta_br=config.eta_br)


def run_pbr(game: QuadraticGame, config: PbrConfig, x0: StrategyProfile,
            x_star: StrategyProfile | None = None,
            replications: Sequence[int] = (0,)) -> RunTrace:
    """Growing-batch proximal best-response runs, one RunTrace (trace.iterate).

    All players respond to the same profile y_k and the update is
    y_{k+1} = x_{k+1}. Player i's error at iteration k of replication r is
    its block of r's row of iteration_errors for config.seed, at its share
    nu_i of the game's noise (GameConstants.nu_i). Row j of errors records
    the plain distance ||y_k - x*|| (not squared). Raises ValueError when
    the contraction certificate has a >= 1.
    """
    cert = contraction_certificate(game, config.mu)
    if cert.a >= 1.0:
        raise ValueError(f"best-response map is not certified contractive: "
                         f"a = {cert.a:.6f} >= 1")
    slices = [game.block_slice(i) for i in range(game.n_players)]

    def step(k, n_k, y, w, counter):
        counter.total_samples += len(slices) * n_k
        counter.inner_solves += len(slices)
        x = np.empty_like(y)
        try:
            for r, y_r, w_r, x_r in zip(replications, y, w, x):
                for i, sl in enumerate(slices):
                    x_r[sl] = saa_best_response(game, i, y_r, n_k, config.mu,
                                                w_r[sl], config.inner_tol)
        except InnerSolveFailure as err:
            raise InnerSolveFailure(f"{err} at iteration {k} of replication "
                                    f"{r}", residual=err.residual) from err
        return x
    return iterate(step, x0, x_star, game.dims,
                   resolved_schedule(game, config), config.max_iter,
                   game.constants.nu_i, game.dims, config.seed,
                   replications, "distance")


def pbr_complexity(config: PbrConfig, a: float, eps: float, n_players: int,
                   c_start: float) -> PbrComplexity:
    """Iteration and sample counts for the best-response envelope
    (pbr_envelope).

    k_eps is the smallest integer k with envelope <= eps; samples is
    the schedule sum N * sum_{k < k_eps} N_k (BestResponseBatch.total:
    exact while every N_k is below 2^32); order_value evaluates
    the asymptotic form (sqrt(N)(c_start + d)/eps)^{2 ln(1/eta_br) /
    ln(1/eta_tilde)} that the exact sum tracks up to constants. samples
    and order_value are inf where a batch size or the power overflows a
    float.
    """
    if not eps > 0.0:
        raise ValueError(f"eps must be > 0, got {eps}")
    if n_players < 1:
        raise ValueError(f"n_players must be >= 1, got {n_players}")
    if c_start < 0.0 or a < 0.0:
        raise ValueError("a and c_start must be >= 0")
    eta_tilde, _, envelope0 = pbr_envelope(config, a, n_players, c_start)
    ratio = envelope0 / eps
    log_ratio = math.log(ratio) if ratio < math.inf \
        else math.log(envelope0) - math.log(eps)
    k_eps = max(0, math.ceil(log_ratio / math.log(1.0 / eta_tilde)))
    m_max = config.m_max
    c_r = config.c_r
    if m_max is None or c_r is None:
        raise ValueError(
            "pbr_complexity needs m_max and c_r resolved in the config "
            "(see resolved_schedule)")
    schedule = BestResponseBatch(m_max=m_max, c_r=c_r, eta_br=config.eta_br)
    try:
        samples = n_players * schedule.total(k_eps)
    except OverflowError:
        samples = math.inf
    order_value = power_or_inf(ratio, 2.0 * math.log(1.0 / config.eta_br) /
                               math.log(1.0 / eta_tilde))
    return PbrComplexity(k_eps=int(k_eps), samples=samples,
                         order_value=float(order_value))
