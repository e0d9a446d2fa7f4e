"""Game models with exact gradient maps and a deterministic equilibrium oracle.

Every game is a block-quadratic game: players couple through a full block
matrix H, so the joint gradient map is affine, G(x) = H x + c, and the
monotonicity constants are eigenvalue computations. A Cournot game with
linear inverse demand is one with scalar players and box strategy sets,
built by AggregativeGame: its H = diag(a + c_price) + c_price 11' couples
players only through the sum of strategies, which its aggregate attribute
keeps, so each player's gradient can be evaluated from its own strategy and
an estimate of that sum, which is what a distributed solver estimates by
consensus.

A Nash equilibrium with regularizers r_i is a fixed point of
x = prox_{alpha r}(x - alpha G(x)) for every alpha > 0, which is how the
residual and the forward-backward oracle are defined. When every player of
a Cournot game has positive own curvature a_i + c_price, the equilibrium is
instead a best reply to one scalar, the aggregate, which the oracle finds
by bisection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar, NamedTuple

import numpy as np

from .errors import NonConvergence, NotStronglyMonotone
from .noise import GaussianNoise, substream
from .prox import BoxIndicator, Regularizer, Zero, compiled_prox


@dataclass(frozen=True)
class GameConstants:
    """Monotonicity and oracle constants of a game's gradient map.

    eta is the strong monotonicity modulus, lip the Lipschitz constant,
    kappa = lip/eta. nu is the total noise level of the joint gradient
    oracle, and nu_i its per-player split, read from the game's noise
    blocks: one block of level nu on all n coordinates gives player i
    nu sqrt(d_i / n) (its components are iid), one block per player gives
    each player its own level. m_compact is sum_i max_{x in R_i} ||x_i||
    when every strategy set is a (compact) box, else None.
    """

    eta: float
    lip: float
    kappa: float
    nu: float
    nu_i: tuple[float, ...]
    m_compact: float | None = None


class Aggregate(NamedTuple):
    """The Cournot structure of a game (AggregativeGame): per-player cost
    arrays a and b, demand intercept d, price slope c_price and box arrays
    lo and hi."""

    a: np.ndarray
    b: np.ndarray
    d: float
    c_price: float
    lo: np.ndarray
    hi: np.ndarray


@dataclass(frozen=True, eq=False)
class QuadraticGame:
    """Block-quadratic game.

    Player i minimizes 0.5 x_i' Q_ii x_i + x_i' (sum_{j != i} Q_ij x_j)
    + c_i' x_i + r_i(x_i), so the joint gradient map is G(x) = H x + c with
    H the full block matrix (Q_ij) and c the stacked linear terms. Diagonal
    blocks must be symmetric; the symmetric part of H must be positive
    definite (strong monotonicity), which is checked at construction.

    h and c are stored as read-only copies, so the per-game data derived
    from them (block views, own-block spectra, block norms, and the game's
    GameConstants, `constants`, and stacked-vector shape `vector_shape`,
    set at construction) is computed once and cannot go stale. The noise
    is held as `noise_blocks`, (levels, block dims): ((nu,), (n,)), one
    Gaussian level on the joint gradient. `aggregate` is None unless
    AggregativeGame built the game.
    """

    dims: tuple[int, ...]
    h: np.ndarray
    c: np.ndarray
    regularizers: tuple[Regularizer, ...] = ()
    noise: GaussianNoise = GaussianNoise(0.0)

    # AggregativeGame sets both on its instance before __post_init__ runs
    aggregate: ClassVar[Aggregate | None] = None
    noise_blocks: ClassVar[tuple | None] = None

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
        if not (np.isfinite(h).all() and np.isfinite(c).all()):
            raise ValueError("game parameters must be finite")
        regs = tuple(self.regularizers) if self.regularizers else tuple(
            Zero() for _ in dims)
        if len(regs) != len(dims):
            raise ValueError(f"{len(regs)} regularizers for {len(dims)} players")
        h.setflags(write=False)
        c.setflags(write=False)
        # frozen: the instance dict takes what __setattr__ would refuse
        vars(self).update(dims=dims, h=h, c=c, regularizers=regs,
                          vector_shape=(n,), _offsets=np.cumsum((0,) + dims))
        # the entries of the diagonal blocks in row order, tested as
        # np.isclose(h, h.T, atol=1e-9), which np.allclose applies per block
        owner = np.repeat(np.arange(len(dims)), dims)
        rows, cols = np.nonzero(owner[:, None] == owner)
        upper, lower = h[rows, cols], h[cols, rows]
        asymmetric = np.abs(upper - lower) > 1e-9 + 1e-5 * np.abs(lower)
        if asymmetric.any():
            raise ValueError(f"diagonal block "
                             f"{owner[rows[np.argmax(asymmetric)]]} "
                             f"must be symmetric")
        # halves first: h + h.T could overflow where h does not
        eta = float(np.linalg.eigvalsh(h / 2.0 + h.T / 2.0)[0])
        if eta <= 0.0:
            raise NotStronglyMonotone(
                f"symmetric part of the coupling matrix has minimum eigenvalue "
                f"{eta:.3e}; the gradient map is not strongly monotone")
        lip = float(np.linalg.norm(h, 2))
        check_lipschitz(lip)
        nu = self.noise.nu
        levels, block_dims = self.noise_blocks or ((nu,), (n,))
        nu_i = levels if block_dims == dims else tuple(
            nu * math.sqrt(d / n) for d in dims)
        corners = [r.corner_norm() for r in regs
                   if isinstance(r, BoxIndicator)]
        m_compact = float(sum(corners)) if len(corners) == len(regs) else None
        vars(self).update(noise_blocks=(levels, block_dims),
                          constants=GameConstants(eta, lip, lip / eta, nu,
                                                  nu_i, m_compact))

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

    def gradients(self, x: np.ndarray, y) -> np.ndarray:
        """Own gradients of all players of a Cournot game at strategies x
        against aggregate estimates y (one shared value or one per player):
        a_i x_i + b_i - d + c_price y_i + c_price x_i."""
        a, b, d, c_price, _, _ = self._cournot()
        return a * x + b - d + c_price * y + c_price * x

    def midpoint(self) -> np.ndarray:
        """The strategy vector at the centre of a Cournot game's boxes."""
        _, _, _, _, lo, hi = self._cournot()
        return (lo + hi) / 2.0

    def _cournot(self) -> Aggregate:
        if self.aggregate is None:
            raise TypeError("a Cournot game (one with an aggregate) is needed")
        return self.aggregate


class AggregativeGame(QuadraticGame):
    """Scalar Cournot game with linear inverse demand p(y) = d - c_price * y.

    Player i chooses production x_i in [lo_i, hi_i] to minimize
    0.5 a_i x_i^2 + b_i x_i - x_i p(y) with y = sum_j x_j, so the own
    gradient (through its full dependence on x_i) is
    a_i x_i + b_i - d + c_price * y + c_price * x_i: the QuadraticGame with
    h = diag(a + c_price) + c_price * ones, c = b - d, one box per player,
    one noise block per player (levels nu_i = noises[i].nu) and total
    level nu^2 = sum_i nu_i^2, which must be finite. The constructor keeps
    its arguments once: the costs, price and boxes in aggregate, the noise
    levels in noise_blocks.
    """

    def __init__(self, a, b, d: float, c_price: float, lo, hi,
                 noises: tuple[GaussianNoise, ...] = ()):
        a, b, lo, hi = (tuple(float(v) for v in vs) for vs in (a, b, lo, hi))
        d, c_price = float(d), float(c_price)
        n = len(a)
        if n < 1:
            raise ValueError("need at least one player")
        if not (len(b) == len(lo) == len(hi) == n):
            raise ValueError("a, b, lo, hi must all have one entry per player")
        if not all(map(math.isfinite, a + b + lo + hi + (d, c_price))):
            raise ValueError("game parameters must be finite")
        if c_price < 0.0:
            raise ValueError(f"price slope must be >= 0, got {c_price}")
        if any(l > h for l, h in zip(lo, hi)):
            raise ValueError("strategy boxes require lo <= hi")
        noises = tuple(noises) or (GaussianNoise(0.0),) * n
        if len(noises) != n:
            raise ValueError(f"{len(noises)} noise models for {n} players")
        nu_i = tuple(nm.nu for nm in noises)
        nu_sq = sum(v ** 2 for v in nu_i)
        if not math.isfinite(nu_sq):
            raise ValueError("total noise level nu must have nu^2 = "
                             "sum_i nu_i^2 finite, got nu^2 = inf")
        agg = Aggregate(np.array(a), np.array(b), d, c_price, np.array(lo),
                        np.array(hi))
        with np.errstate(over="ignore"):  # __post_init__ rejects inf
            h = np.diag(agg.a + c_price) + c_price * np.ones((n, n))
            c = agg.b - d
        vars(self).update(
            aggregate=agg, noise_blocks=(nu_i, (1,) * n), dims=(1,) * n,
            h=h, c=c, noise=GaussianNoise(math.sqrt(nu_sq)),
            regularizers=tuple(BoxIndicator(np.array([l]), np.array([u]))
                               for l, u in zip(lo, hi)))
        self.__post_init__()


def gradient_map(game: QuadraticGame, x: np.ndarray,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Exact joint gradient G(x) at a stacked strategy vector x, an array
    of shape (game.dim,); anything else, which numpy could broadcast, is
    rejected. The test is inline: pgr calls this once per row. A Cournot
    game's row is O(N), through its aggregate.

    The gradient is written into `out` (a new array if None) and `out` is
    returned; `out` must be a writeable C-contiguous float64 array of
    x's shape. A quadratic game computes h.dot(x, out), then adds c in
    place, the same bits as h @ x + c."""
    if not (isinstance(x, np.ndarray) and x.shape == game.vector_shape):
        raise vector_error(x, game)
    if game.aggregate is not None:
        g = game.gradients(x, float(np.sum(x)))
        if out is None:
            return g
        _check_out(out, game.vector_shape)  # out[...] = would broadcast
        out[...] = g
        return out
    if out is None:
        out = np.empty(game.vector_shape)
    try:
        game.h.dot(x, out)
    except (TypeError, ValueError):  # numpy's message does not name out
        _check_out(out, game.vector_shape)
        raise
    out += game.c
    return out


def vector_error(x, game: QuadraticGame) -> ValueError:
    """The rejection of an x that is not a stacked strategy vector of
    game: its shape if it is an array, else its type."""
    if isinstance(x, np.ndarray):
        return ValueError(f"vector of shape {x.shape} does not match game "
                          f"dimension {game.dim}")
    return ValueError(f"vector of type {type(x).__name__} does not match "
                      f"game dimension {game.dim}: it must be a numpy array "
                      f"of shape {game.vector_shape}")


def _check_out(out, shape: tuple[int, ...]) -> None:
    """Reject an `out` that is not a writeable C-contiguous float64 array
    of the given shape, in a ValueError that names it."""
    if not (isinstance(out, np.ndarray) and out.shape == shape
            and out.dtype == np.float64 and out.flags.c_contiguous
            and out.flags.writeable):
        got = (f"{out.dtype} array of shape {out.shape}, C-contiguous "
               f"{out.flags.c_contiguous}, writeable {out.flags.writeable}"
               if isinstance(out, np.ndarray) else type(out).__name__)
        raise ValueError(f"out must be a writeable C-contiguous float64 "
                         f"array of shape {shape}, got {got}")


def check_lipschitz(lip: float) -> None:
    """Reject a Lipschitz constant whose square, which the step bounds and
    rate constants divide by, could overflow a float, or so small that a
    step below 2 eta / lip^2 could have a square that overflows."""
    if not lip < 1e154:
        raise ValueError(f"Lipschitz constant lip = {lip:.6g} of the gradient "
                         f"map must be below 1e154, so that lip^2 stays finite")
    if not lip > 1e-150:
        raise ValueError(f"Lipschitz constant lip = {lip:.6g} of the gradient "
                         f"map must be above 1e-150, so that the steps it "
                         f"bounds have finite squares")


def monotonicity_constants(game: QuadraticGame) -> GameConstants:
    """The game's own strong monotonicity modulus, Lipschitz constant and
    oracle constants (`game.constants`), computed once at construction,
    which rejects eta <= 0 and lip >= 1e154."""
    return game.constants


def ne_residual(game: QuadraticGame, x: np.ndarray, alpha: float) -> float:
    """Fixed-point residual ||x - prox_{alpha r}(x - alpha G(x))||.

    Zero at exactly the Nash equilibria, for any alpha > 0. A step past
    the float range is inf, which a box clips, and so is a residual past
    about 1.3e154, without a warning.
    """
    if not (alpha > 0.0 and np.isfinite(alpha)):
        raise ValueError(f"alpha must be finite and > 0, got {alpha}")
    prox = compiled_prox(game.regularizers, game.dims, alpha)
    with np.errstate(over="ignore"):
        step = x - alpha * gradient_map(game, x)
        return float(np.linalg.norm(x - prox(step)))


def ne_error_bound(game: QuadraticGame, x: np.ndarray) -> float:
    """Certified bound on the distance from x to the equilibrium x*.

    For a strongly monotone map with modulus eta and Lipschitz constant L,
    ||x - x*|| <= (1 + alpha L) / (alpha eta) * ne_residual(game, x, alpha)
    for every alpha > 0 and every x; it is evaluated at alpha = eta / L^2,
    where the factor is kappa^2 + kappa. Raises ValueError when kappa^2
    could overflow a float (its inverse alpha * eta would underflow).
    """
    consts = game.constants
    if not consts.kappa < 1e154:
        raise ValueError(
            f"condition number kappa = lip/eta = {consts.kappa:.6g} must be "
            f"below 1e154, so that the equilibrium error bound's kappa^2 "
            f"stays finite")
    alpha = consts.eta / consts.lip ** 2
    return (1.0 + alpha * consts.lip) / (alpha * consts.eta) * \
        ne_residual(game, x, alpha)


def solve_ne_oracle(game: QuadraticGame, tol: float = 1e-12,
                    max_iter: int = 200_000) -> np.ndarray:
    """Deterministic solve of the equilibrium fixed point.

    A Cournot game whose players all have positive own curvature
    a_i + c_price is solved through its aggregate: each player's best reply
    to the total y is x_i(y) = clip((d - b_i - c_price y) / (a_i + c_price),
    lo_i, hi_i), and phi(y) = sum_i x_i(y) - y is strictly decreasing on
    [sum lo, sum hi], so bisection finds its root to the last bit and the
    equilibrium is x(y). tol and max_iter do not apply to that path.

    Every other game is solved forward-backward: x <- prox_{alpha r}(x -
    alpha G(x)) at alpha = eta / lip^2 with the exact gradient until the
    displacement (equal to the fixed-point residual at the current iterate)
    drops to tol. The iteration contracts by sqrt(1 - 1/kappa^2) per step,
    so it needs about 2 kappa^2 ln(distance / tol) steps. Past max_iter it
    raises NonConvergence, which an ill-conditioned game reaches: h =
    diag(1, 1000), c = (1, 1) (kappa = 1000) stops there.
    """
    consts = game.constants
    if game.aggregate is not None:
        x = _aggregate_bisection(game)
        if x is not None:
            return x
    return _forward_backward(game, consts.eta / consts.lip ** 2, tol,
                             max_iter)


def _aggregate_bisection(game: QuadraticGame) -> np.ndarray | None:
    """Equilibrium of a Cournot game via its aggregate, or None when
    some a_i + c_price <= 0 (the best reply is then not a clip of the
    stationary point) or the box sums overflow."""
    a, b, d, c_price, lo, hi = game.aggregate
    curvature = a + c_price
    with np.errstate(over="ignore"):  # an overflowing sum is checked below
        y_lo, y_hi = float(np.sum(lo)), float(np.sum(hi))
    if not (np.min(curvature) > 0.0 and math.isfinite(y_lo + y_hi)):
        return None

    def reply(y: float) -> np.ndarray:
        return np.clip((d - b - c_price * y) / curvature, lo, hi)

    # a stationary point past the float range is inf, and clips to its box
    with np.errstate(over="ignore"):
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


def _forward_backward(game: QuadraticGame, alpha: float, tol: float,
                      max_iter: int) -> np.ndarray:
    prox = compiled_prox(game.regularizers, game.dims, alpha)
    x = prox(np.zeros(game.dim))
    # a displacement norm past about 1.3e154 is inf, not a warning
    with np.errstate(over="ignore"):
        for _ in range(max_iter):
            step = x - alpha * gradient_map(game, x)
            x_next = prox(step)
            disp = float(np.linalg.norm(x_next - x))
            x = x_next
            if disp <= tol:
                return x
    raise NonConvergence(
        f"equilibrium solve did not reach displacement {tol} in {max_iter} "
        f"iterations", residual=disp, iterations=max_iter)


def generate_quadratic_game(n_players: int, dim: int, coupling_strength: float,
                            seed: int = 0, nu: float = 0.0) -> QuadraticGame:
    """Random strongly monotone block-quadratic game.

    Own blocks are I + 0.5 A'A/dim (eigenvalues in [1, about 3]); coupling
    blocks have spectral norm at most coupling_strength / (N - 1), so the
    monotonicity modulus stays at least 1 - coupling_strength.
    """
    if n_players < 1 or dim < 1:
        raise ValueError("n_players and dim must be >= 1")
    if not (0.0 <= coupling_strength < 1.0):
        raise ValueError(
            f"coupling_strength must lie in [0, 1), got {coupling_strength}")
    dims = (dim,) * n_players
    n = n_players * dim
    rng = substream(seed, 7001)
    h = np.zeros((n, n))
    for i in range(n_players):
        a = rng.standard_normal((dim, dim))
        block = np.eye(dim) + 0.5 * (a.T @ a) / dim
        h[i * dim:(i + 1) * dim, i * dim:(i + 1) * dim] = block
    cap = coupling_strength / max(1, n_players - 1)
    for i in range(n_players):
        for j in range(n_players):
            if i != j:
                b = rng.standard_normal((dim, dim))
                norm = np.linalg.norm(b, 2)
                if norm > 0:
                    b = b * (cap / norm)
                h[i * dim:(i + 1) * dim, j * dim:(j + 1) * dim] = b
    return QuadraticGame(dims=dims, h=h, c=rng.standard_normal(n),
                         noise=GaussianNoise(nu))


def generate_cournot_game(n_players: int, seed: int = 0, a=None, b=None,
                          d: float = 2.0, c_price: float = 1.0,
                          lo=0.0, hi=1.0, nu=0.0) -> AggregativeGame:
    """Cournot game with given or randomly drawn cost parameters.

    a (quadratic cost) defaults to U[1, 2] draws, b (linear cost) to
    U[0, 0.2]; a, b, lo, hi, nu broadcast over players.
    """
    if n_players < 1:
        raise ValueError("n_players must be >= 1")
    rng = substream(seed, 7002) if a is None or b is None else None
    if a is None:
        a = rng.uniform(1.0, 2.0, n_players)
    if b is None:
        b = rng.uniform(0.0, 0.2, n_players)
    a, b, lo, hi, nu = (np.broadcast_to(np.asarray(v, dtype=float),
                                        (n_players,))
                        for v in (a, b, lo, hi, nu))
    return AggregativeGame(a=a, b=b, d=d, c_price=c_price, lo=lo, hi=hi,
                           noises=tuple(map(GaussianNoise, nu)))
