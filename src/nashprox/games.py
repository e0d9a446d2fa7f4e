"""Game models with exact gradient maps and a deterministic equilibrium oracle.

Two families are provided. Block-quadratic games couple players through a
full block matrix H, so the joint gradient map is affine, G(x) = H x + c,
and monotonicity constants are eigenvalue computations. Scalar aggregative
games (Cournot competition with linear inverse demand) couple players only
through the sum of strategies; each player's gradient depends on its own
strategy and that aggregate, which is what a distributed solver estimates
by consensus.

A Nash equilibrium of either game with regularizers r_i is a fixed point of
x = prox_{alpha r}(x - alpha G(x)) for every alpha > 0, which is how the
residual and the forward-backward oracle are defined. When every player's
own curvature a_i + c_price is positive, the equilibrium of an aggregative
game is instead a best reply to one scalar, the aggregate, which the oracle
finds by bisection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidStep, NonConvergence, NotStronglyMonotone
from .noise import GaussianNoise
from .profiles import StrategyProfile
from .prox import BoxIndicator, Regularizer, Zero, compiled_prox


@dataclass(frozen=True)
class GameConstants:
    """Monotonicity and oracle constants of a game's gradient map.

    eta is the strong monotonicity modulus, lip the Lipschitz constant,
    kappa = lip/eta. nu is the total noise level of the joint gradient
    oracle; nu_i its per-player split (a quadratic game's components are
    iid, so block i carries nu sqrt(d_i / n)). m_compact is
    sum_i max_{x in R_i} ||x_i|| when every strategy set is a (compact) box,
    else None.
    """

    eta: float
    lip: float
    kappa: float
    nu: float
    nu_i: tuple[float, ...]
    m_compact: float | None = None


@dataclass(frozen=True, eq=False)
class QuadraticGame:
    """Block-quadratic game.

    Player i minimizes 0.5 x_i' Q_ii x_i + x_i' (sum_{j != i} Q_ij x_j)
    + c_i' x_i + r_i(x_i), so the joint gradient map is G(x) = H x + c with
    H the full block matrix (Q_ij) and c the stacked linear terms. Diagonal
    blocks must be symmetric; the symmetric part of H must be positive
    definite (strong monotonicity), which is checked at construction.

    h and c are stored as read-only copies, so the per-game data derived
    from them (block views, own-block spectra, block norms, the strong
    monotonicity modulus and ||h||_2) is computed once and cannot go stale.
    """

    dims: tuple[int, ...]
    h: np.ndarray
    c: np.ndarray
    regularizers: tuple[Regularizer, ...] = ()
    noise: GaussianNoise = GaussianNoise(0.0)

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if not dims or any(d < 1 for d in dims):
            raise ValueError(f"player dimensions must be positive, got {dims}")
        n = sum(dims)
        h = np.array(self.h, dtype=float)
        c = np.array(self.c, dtype=float)
        if h.shape != (n, n):
            raise ValueError(f"coupling matrix must be {(n, n)}, got {h.shape}")
        if c.shape != (n,):
            raise ValueError(f"linear term must have shape {(n,)}, got {c.shape}")
        if not (np.all(np.isfinite(h)) and np.all(np.isfinite(c))):
            raise ValueError("game parameters must be finite")
        regs = tuple(self.regularizers) if self.regularizers else tuple(
            Zero() for _ in dims)
        if len(regs) != len(dims):
            raise ValueError(f"{len(regs)} regularizers for {len(dims)} players")
        h.setflags(write=False)
        c.setflags(write=False)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "regularizers", regs)
        offsets = np.cumsum((0,) + dims)
        object.__setattr__(self, "_offsets", offsets)
        for i in range(len(dims)):
            qii = self.block(i, i)
            if not np.allclose(qii, qii.T, atol=1e-9):
                raise ValueError(f"diagonal block {i} must be symmetric")
        if self._eta <= 0.0:
            raise NotStronglyMonotone(
                f"symmetric part of the coupling matrix has minimum eigenvalue "
                f"{self._eta:.3e}; the gradient map is not strongly monotone")
        check_lipschitz(self._lip)

    @property
    def n_players(self) -> int:
        return len(self.dims)

    @property
    def dim(self) -> int:
        return int(self._offsets[-1])

    def block_slice(self, i: int) -> slice:
        return slice(int(self._offsets[i]), int(self._offsets[i + 1]))

    def block(self, i: int, j: int) -> np.ndarray:
        return self.h[self.block_slice(i), self.block_slice(j)]

    @cached_property
    def blocks(self) -> tuple[tuple[np.ndarray, ...], ...]:
        """Views of the blocks Q_ij of h, indexed [i][j]."""
        n = self.n_players
        return tuple(tuple(self.block(i, j) for j in range(n))
                     for i in range(n))

    @cached_property
    def own_spectra(self) -> tuple[tuple[float, float], ...]:
        """(smallest, largest) eigenvalue of each own block Q_ii."""
        out = []
        for i in range(self.n_players):
            eigs = np.linalg.eigvalsh(self.blocks[i][i])
            out.append((float(eigs[0]), float(eigs[-1])))
        return tuple(out)

    @cached_property
    def block_norms(self) -> np.ndarray:
        """Spectral norms ||Q_ij||_2 as a read-only (N, N) array."""
        n = self.n_players
        norms = np.array([[float(np.linalg.norm(self.blocks[i][j], 2))
                           for j in range(n)] for i in range(n)])
        norms.setflags(write=False)
        return norms

    @cached_property
    def off_diagonal(self) -> np.ndarray:
        """h with its diagonal blocks zeroed, read-only."""
        owner = np.repeat(np.arange(self.n_players), self.dims)
        off = np.where(owner[:, None] == owner, 0.0, self.h)
        off.setflags(write=False)
        return off

    @cached_property
    def solver_cache(self) -> dict:
        """Solver data derived from the game, keyed by the solver."""
        return {}

    @cached_property
    def _eta(self) -> float:
        """Smallest eigenvalue of the symmetric part of h."""
        return float(np.linalg.eigvalsh((self.h + self.h.T) / 2.0)[0])

    @cached_property
    def _lip(self) -> float:
        """Spectral norm ||h||_2."""
        return float(np.linalg.norm(self.h, 2))


@dataclass(frozen=True, eq=False)
class AggregativeGame:
    """Scalar Cournot game with linear inverse demand p(y) = d - c_price * y.

    Player i chooses production x_i in [lo_i, hi_i] to minimize
    0.5 a_i x_i^2 + b_i x_i - x_i p(y) with y = sum_j x_j, so the own
    gradient (through its full dependence on x_i) is
    a_i x_i + b_i - d + c_price * y + c_price * x_i.
    Strategy sets are compact boxes by construction. The gradient map's
    Jacobian diag(a_i + c_price) + c_price * ones must be positive definite,
    and the total noise level nu^2 = sum_i nu_i^2 finite, like a single
    Gaussian level's square.
    """

    a: tuple[float, ...]
    b: tuple[float, ...]
    d: float
    c_price: float
    lo: tuple[float, ...]
    hi: tuple[float, ...]
    noises: tuple[GaussianNoise, ...] = ()

    def __post_init__(self):
        a = tuple(float(v) for v in self.a)
        b = tuple(float(v) for v in self.b)
        lo = tuple(float(v) for v in self.lo)
        hi = tuple(float(v) for v in self.hi)
        n = len(a)
        if n < 1:
            raise ValueError("need at least one player")
        if not (len(b) == len(lo) == len(hi) == n):
            raise ValueError("a, b, lo, hi must all have one entry per player")
        if not all(map(math.isfinite, a + b + lo + hi)) or not math.isfinite(self.d) \
                or not math.isfinite(self.c_price):
            raise ValueError("game parameters must be finite")
        if self.c_price < 0.0:
            raise ValueError(f"price slope must be >= 0, got {self.c_price}")
        if any(l > h for l, h in zip(lo, hi)):
            raise ValueError("strategy boxes require lo <= hi")
        noises = tuple(self.noises) or (GaussianNoise(0.0),) * n
        if len(noises) != n:
            raise ValueError(f"{len(noises)} noise models for {n} players")
        if not math.isfinite(sum(nm.nu ** 2 for nm in noises)):
            raise ValueError("total noise level nu must have nu^2 = "
                             "sum_i nu_i^2 finite, got nu^2 = inf")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", float(self.d))
        object.__setattr__(self, "c_price", float(self.c_price))
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "noises", noises)
        eig_min = float(np.linalg.eigvalsh(self.jacobian())[0])
        if eig_min <= 0.0:
            raise NotStronglyMonotone(
                f"aggregative gradient map has minimum Jacobian eigenvalue "
                f"{eig_min:.3e}; not strongly monotone")
        check_lipschitz(float(np.linalg.norm(self.jacobian(), 2)))

    @property
    def n_players(self) -> int:
        return len(self.a)

    @property
    def dims(self) -> tuple[int, ...]:
        return (1,) * self.n_players

    @property
    def dim(self) -> int:
        return self.n_players

    @cached_property
    def regularizers(self) -> tuple[Regularizer, ...]:
        return tuple(BoxIndicator(np.array([l]), np.array([h]))
                     for l, h in zip(self.lo, self.hi))

    @cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(a, b, lo, hi) as float arrays, one entry per player."""
        return tuple(np.array(v) for v in (self.a, self.b, self.lo, self.hi))

    @property
    def aggregate_lipschitz(self) -> tuple[float, ...]:
        """Per-player Lipschitz constants of the gradient in the aggregate."""
        return (self.c_price,) * self.n_players

    def jacobian(self) -> np.ndarray:
        n = self.n_players
        return np.diag(np.asarray(self.a) + self.c_price) + \
            self.c_price * np.ones((n, n))

    def gradients(self, x: np.ndarray, y) -> np.ndarray:
        """Own gradients of all players at strategies x against aggregate
        estimates y (one shared value or one per player):
        a_i x_i + b_i - d + c_price y_i + c_price x_i."""
        a, b, _, _ = self._arrays
        return a * x + b - self.d + self.c_price * y + self.c_price * x

    def project(self, x: np.ndarray) -> np.ndarray:
        """Clip every player's strategy to its box (the joint prox)."""
        _, _, lo, hi = self._arrays
        return np.clip(x, lo, hi)

    def midpoint(self) -> StrategyProfile:
        """The profile at the centre of every player's box."""
        _, _, lo, hi = self._arrays
        return StrategyProfile.from_vector((lo + hi) / 2.0, self.dims)


Game = QuadraticGame | AggregativeGame


def gradient_map(game: Game, x: StrategyProfile | np.ndarray) -> np.ndarray:
    """Exact joint gradient G(x) stacked over players, at a profile or at
    its stacked vector."""
    if isinstance(x, StrategyProfile):
        if x.dims != tuple(game.dims):
            raise ValueError(f"profile dims {x.dims} do not match game dims {tuple(game.dims)}")
        x = x.vector
    elif np.shape(x) != (game.dim,):
        raise ValueError(f"vector of shape {np.shape(x)} does not match game dimension {game.dim}")
    return _gradient_vector(game, x)


def _gradient_vector(game: Game, vec: np.ndarray) -> np.ndarray:
    if isinstance(game, QuadraticGame):
        return game.h @ vec + game.c
    return game.gradients(vec, float(np.sum(vec)))


def check_lipschitz(lip: float) -> None:
    """Reject a Lipschitz constant whose square, which the step bounds and
    rate constants divide by, could overflow a float."""
    if not lip < 1e154:
        raise ValueError(f"Lipschitz constant lip = {lip:.6g} of the gradient "
                         f"map must be below 1e154, so that lip^2 stays finite")


def monotonicity_constants(game: Game) -> GameConstants:
    """Strong monotonicity modulus, Lipschitz constant, and oracle constants
    (both game types reject eta <= 0 and lip >= 1e154 at construction)."""
    if isinstance(game, QuadraticGame):
        eta, lip = game._eta, game._lip
        nu = game.noise.nu
        n = game.dim
        nu_i = tuple(nu * math.sqrt(d / n) for d in game.dims)
        m_compact = None
        if all(isinstance(r, BoxIndicator) for r in game.regularizers):
            m_compact = float(sum(r.corner_norm() for r in game.regularizers))
    else:
        jac = game.jacobian()
        eta = float(np.linalg.eigvalsh(jac)[0])
        lip = float(np.linalg.norm(jac, 2))
        nu_i = tuple(nm.nu for nm in game.noises)
        nu = math.sqrt(sum(v ** 2 for v in nu_i))
        m_compact = float(sum(max(abs(l), abs(h))
                              for l, h in zip(game.lo, game.hi)))
    return GameConstants(eta=eta, lip=lip, kappa=lip / eta, nu=nu,
                         nu_i=nu_i, m_compact=m_compact)


def ne_residual(game: Game, x: StrategyProfile, alpha: float) -> float:
    """Fixed-point residual ||x - prox_{alpha r}(x - alpha G(x))||.

    Zero at exactly the Nash equilibria, for any alpha > 0.
    """
    if not (alpha > 0.0 and np.isfinite(alpha)):
        raise ValueError(f"alpha must be finite and > 0, got {alpha}")
    vec = x.vector
    step = vec - alpha * _gradient_vector(game, vec)
    prox = compiled_prox(game.regularizers, game.dims, alpha)
    return float(np.linalg.norm(vec - prox(step)))


def ne_error_bound(game: Game, x: StrategyProfile) -> float:
    """Certified bound on the distance from x to the equilibrium x*.

    For a strongly monotone map with modulus eta and Lipschitz constant L,
    ||x - x*|| <= (1 + alpha L) / (alpha eta) * ne_residual(game, x, alpha)
    for every alpha > 0 and every x; it is evaluated at alpha = eta / L^2,
    where the factor is kappa^2 + kappa. Raises ValueError when kappa^2
    could overflow a float (its inverse alpha * eta would underflow).
    """
    consts = monotonicity_constants(game)
    if not consts.kappa < 1e154:
        raise ValueError(
            f"condition number kappa = lip/eta = {consts.kappa:.6g} must be "
            f"below 1e154, so that the equilibrium error bound's kappa^2 "
            f"stays finite")
    alpha = consts.eta / consts.lip ** 2
    return (1.0 + alpha * consts.lip) / (alpha * consts.eta) * \
        ne_residual(game, x, alpha)


def solve_ne_oracle(game: Game, tol: float = 1e-12, alpha: float | None = None,
                    max_iter: int = 200_000) -> StrategyProfile:
    """Deterministic solve of the equilibrium fixed point.

    An aggregative game whose players all have positive own curvature
    a_i + c_price is solved through its aggregate: each player's best reply
    to the total y is x_i(y) = clip((d - b_i - c_price y) / (a_i + c_price),
    lo_i, hi_i), and phi(y) = sum_i x_i(y) - y is strictly decreasing on
    [sum lo, sum hi], so bisection finds its root to the last bit and the
    equilibrium is x(y). tol and max_iter do not apply to that path.

    Every other game is solved forward-backward: x <- prox_{alpha r}(x -
    alpha G(x)) with the exact gradient until the displacement (equal to
    the fixed-point residual at the current iterate) drops to tol. With
    alpha < 2 eta / lip^2 the iteration is a contraction, so this
    terminates for any validated game; the default step alpha = eta / lip^2
    is always admissible.
    """
    consts = monotonicity_constants(game)
    if alpha is None:
        alpha = consts.eta / consts.lip ** 2
    if not (0.0 < alpha < 2.0 * consts.eta / consts.lip ** 2):
        raise InvalidStep(
            f"oracle step {alpha} outside (0, 2 eta/L^2) = "
            f"(0, {2.0 * consts.eta / consts.lip ** 2})")
    if isinstance(game, AggregativeGame):
        x = _aggregate_bisection(game)
        if x is not None:
            return StrategyProfile.from_vector(x, game.dims)
    return _forward_backward(game, alpha, tol, max_iter)


def _aggregate_bisection(game: AggregativeGame) -> np.ndarray | None:
    """Equilibrium of an aggregative game via its aggregate, or None when
    some a_i + c_price <= 0 (the best reply is then not a clip of the
    stationary point) or the box sums overflow."""
    a, b, lo, hi = game._arrays
    curvature = a + game.c_price
    y_lo, y_hi = float(np.sum(lo)), float(np.sum(hi))
    if not (np.min(curvature) > 0.0 and math.isfinite(y_lo + y_hi)):
        return None

    def reply(y: float) -> np.ndarray:
        return np.clip((game.d - b - game.c_price * y) / curvature, lo, hi)

    while True:
        y = 0.5 * (y_lo + y_hi)
        if y == y_lo or y == y_hi:
            return reply(y)
        phi = float(np.sum(reply(y))) - y
        if phi == 0.0:
            return reply(y)
        if phi > 0.0:
            y_lo = y
        else:
            y_hi = y


def _forward_backward(game: Game, alpha: float, tol: float,
                      max_iter: int) -> StrategyProfile:
    prox = compiled_prox(game.regularizers, game.dims, alpha)
    x = prox(np.zeros(game.dim))
    for _ in range(max_iter):
        step = x - alpha * _gradient_vector(game, x)
        x_next = prox(step)
        disp = float(np.linalg.norm(x_next - x))
        x = x_next
        if disp <= tol:
            return StrategyProfile.from_vector(x, game.dims)
    raise NonConvergence(
        f"equilibrium solve did not reach displacement {tol} in {max_iter} "
        f"iterations", residual=disp, iterations=max_iter)
