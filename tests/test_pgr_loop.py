"""The flat-vector pgr loop and the compiled joint prox against reference
copies of the per-block forms they replace.

The references below are the plain forms: the oracle error drawn per
iteration from the replication's standard-normal block (the stream
(seed, r, 1)) and scaled per player or for the joint gradient, a
StrategyProfile per iterate, the generic per-block prox (np.clip for
boxes) applied player by player, and the distance through
StrategyProfile.distance. run_pgr, solve_ne_oracle and
ne_residual use the same floating-point operations in the same order, so
their results must match the references bit for bit, signed zeros
included.
"""

from __future__ import annotations

import math
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nashprox import (
    L1,
    AggregativeGame,
    BoxIndicator,
    GaussianNoise,
    GeometricBatch,
    PgrConfig,
    QuadraticGame,
    SampleCounter,
    StrategyProfile,
    Zero,
    complexity_K,
    contraction_factor_q,
    monotonicity_constants,
    ne_residual,
    rate_constants,
    run_pgr,
    sample_batch_gradient,
    schedule_size,
    solve_ne_oracle,
    substream,
)
from nashprox import games as games_module
from nashprox.errors import Divergence
from nashprox.prox import compiled_prox


def _reference_prox_apply(reg, x, alpha):
    x = np.asarray(x, dtype=float)
    if isinstance(reg, Zero):
        return x.copy()
    if isinstance(reg, L1):
        t = alpha * reg.weight
        return np.sign(x) * np.maximum(np.abs(x) - t, 0.0)
    return np.clip(x, reg.lo, reg.hi)


def _reference_prox_profile(regs, x, alpha, counter):
    out = StrategyProfile(tuple(
        _reference_prox_apply(reg, block, alpha)
        for reg, block in zip(regs, x.blocks)))
    counter.prox_evals += 1
    return out


def _reference_gradient(game, vec):
    if isinstance(game, QuadraticGame):
        return game.h @ vec + game.c
    return game.gradients(vec, float(np.sum(vec)))


def _reference_prox_vector(game, vec, alpha):
    if isinstance(game, AggregativeGame):
        return game.project(vec)
    pieces = []
    offset = 0
    for reg, d in zip(game.regularizers, game.dims):
        pieces.append(_reference_prox_apply(reg, vec[offset:offset + d], alpha))
        offset += d
    return np.concatenate(pieces)


def _reference_batch_gradient(game, x, batch, z_k, counter):
    """The gradient plus row z_k of the standard-normal block scaled as the
    game's noise: nu / sqrt(n N_k) on the joint gradient of a quadratic
    game, nu_i / sqrt(N_k) on player i of a Cournot game."""
    g = _reference_gradient(game, x.vector)
    if isinstance(game, QuadraticGame):
        w = z_k * (game.noise.nu / math.sqrt(g.size * float(batch)))
    else:
        w = np.array([z_k[i] * (game.noises[i].nu / math.sqrt(batch))
                      for i in range(game.n_players)])
    counter.total_samples += int(batch)
    return g + w


def _reference_run_pgr(game, config, x0, x_star, replication):
    consts = monotonicity_constants(game)
    contraction_factor_q(consts.eta, consts.lip, config.alpha)
    schedule = GeometricBatch(config.rho)
    n_iter = config.max_iter
    if config.target_eps is not None:
        c_start = x0.distance(x_star) ** 2
        rc = rate_constants(consts.eta, consts.lip, config.alpha, config.rho,
                            consts.nu, c_start)
        n_iter = min(n_iter, max(1, math.ceil(
            complexity_K(rc, config.rho, config.target_eps))))
    z = substream(config.seed, replication, 1).standard_normal(
        (n_iter, game.dim))
    counter = SampleCounter()
    errors = np.full(n_iter + 1, np.nan)
    batches, cum_samples, cum_prox = [], [], []
    x = x0
    errors[0] = x.distance(x_star) ** 2
    for k in range(n_iter):
        n_k = schedule_size(schedule, k)
        g = _reference_batch_gradient(game, x, n_k, z[k], counter)
        step = x.vector - config.alpha * g
        if not np.all(np.isfinite(step)):
            raise Divergence(f"iterate became non-finite at iteration {k}",
                             iteration=k)
        x = _reference_prox_profile(game.regularizers,
                                    StrategyProfile.from_vector(step, game.dims),
                                    config.alpha, counter)
        batches.append(n_k)
        cum_samples.append(counter.total_samples)
        cum_prox.append(counter.prox_evals)
        errors[k + 1] = x.distance(x_star) ** 2
    return errors, batches, cum_samples, cum_prox, counter, x


def _reference_forward_backward(game, alpha, tol=1e-12):
    x = _reference_prox_vector(game, np.zeros(game.dim), alpha)
    while True:
        step = x - alpha * _reference_gradient(game, x)
        x_next = _reference_prox_vector(game, step, alpha)
        disp = float(np.linalg.norm(x_next - x))
        x = x_next
        if disp <= tol:
            return x


def _reference_residual(game, x, alpha):
    vec = x.vector
    step = vec - alpha * _reference_gradient(game, vec)
    return float(np.linalg.norm(vec - _reference_prox_vector(game, step, alpha)))


def _assert_same_bits(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert np.array_equal(got, want, equal_nan=True)
    assert got.tobytes() == want.tobytes()  # also tells -0.0 from 0.0


def _regularizer(kind, dim, rng):
    if kind == "box":
        lo = -rng.uniform(0.1, 2.0, dim)
        return BoxIndicator(lo, lo + rng.uniform(0.0, 3.0, dim))
    if kind == "l1":
        return L1(float(rng.uniform(0.0, 1.5)))
    return Zero()


@st.composite
def quadratic_games(draw):
    """A strongly monotone noisy game with blocks of size 1-6 and a mix of
    box, l1 and zero regularizers, plus an rng for points."""
    dims = tuple(draw(st.lists(st.integers(1, 6), min_size=1, max_size=4)))
    kinds = [draw(st.sampled_from(("box", "l1", "zero"))) for _ in dims]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = sum(dims)
    a = rng.standard_normal((n, n))
    skew = rng.standard_normal((n, n))
    h = a @ a.T / n + 0.5 * np.eye(n) + 0.3 * (skew - skew.T)
    offsets = np.cumsum((0,) + dims)
    for i in range(len(dims)):
        sl = slice(offsets[i], offsets[i + 1])
        h[sl, sl] = (h[sl, sl] + h[sl, sl].T) / 2.0
    noise = GaussianNoise(draw(st.sampled_from((0.0, 0.1, 1.0, 5.0))))
    game = QuadraticGame(dims=dims, h=h, c=rng.standard_normal(n),
                         regularizers=tuple(_regularizer(k, d, rng)
                                            for k, d in zip(kinds, dims)),
                         noise=noise)
    return game, rng


@st.composite
def cournot_games(draw):
    """A Cournot game with 1-6 players, boxes that bind at some players,
    and per-player noise levels, plus an rng for points."""
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    lo = rng.uniform(-0.5, 0.2, n)
    game = AggregativeGame(
        a=tuple(rng.uniform(0.5, 2.0, n)), b=tuple(rng.uniform(0.0, 0.3, n)),
        d=2.0, c_price=float(rng.uniform(0.2, 1.5)), lo=tuple(lo),
        hi=tuple(lo + rng.uniform(0.05, 1.5, n)),
        noises=tuple(GaussianNoise(float(v)) for v in rng.uniform(0.0, 1.0, n)))
    return game, rng


def _check_run(game, rng, step_share, rho, max_iter, seed, replication,
               target_eps):
    consts = monotonicity_constants(game)
    config = PgrConfig(alpha=step_share * 2.0 * consts.eta / consts.lip ** 2,
                       rho=rho, max_iter=max_iter, seed=seed,
                       target_eps=target_eps)
    x_star = solve_ne_oracle(game)
    x0 = StrategyProfile.from_vector(2.0 * rng.standard_normal(game.dim),
                                     game.dims)
    trace = run_pgr(game, config, x0, x_star, replications=[replication])
    errors, batches, cum_samples, cum_prox, counter, final = \
        _reference_run_pgr(game, config, x0, x_star, replication)
    _assert_same_bits(trace.errors[0], errors)
    assert trace.batches == batches
    assert trace.cum_samples == cum_samples
    assert trace.cum_prox == cum_prox
    assert trace.counter == counter
    assert trace.final.shape == (1, sum(final.dims))
    _assert_same_bits(trace.final[0], final.vector)


_RUN_KEYS = dict(step_share=st.floats(0.05, 0.95), rho=st.floats(0.3, 0.95),
                 max_iter=st.integers(1, 25), seed=st.integers(0, 2 ** 16),
                 replication=st.integers(0, 5),
                 target_eps=st.none() | st.floats(1e-6, 1.0))


@settings(max_examples=100, deadline=None)
@given(drawn=quadratic_games(), **_RUN_KEYS)
def test_quadratic_run_matches_the_reference_loop_bit_for_bit(
        drawn, step_share, rho, max_iter, seed, replication, target_eps):
    _check_run(*drawn, step_share, rho, max_iter, seed, replication,
               target_eps)


@settings(max_examples=60, deadline=None)
@given(drawn=cournot_games(), **_RUN_KEYS)
def test_cournot_run_matches_the_reference_loop_bit_for_bit(
        drawn, step_share, rho, max_iter, seed, replication, target_eps):
    _check_run(*drawn, step_share, rho, max_iter, seed, replication,
               target_eps)


@settings(max_examples=100, deadline=None)
@given(quadratic_games(), st.floats(0.05, 1.0))
def test_oracle_and_residual_match_the_per_block_reference(drawn, share):
    game, rng = drawn
    consts = monotonicity_constants(game)
    alpha = consts.eta / consts.lip ** 2
    x_star = solve_ne_oracle(game)
    _assert_same_bits(x_star.vector, _reference_forward_backward(game, alpha))
    x = StrategyProfile.from_vector(rng.standard_normal(game.dim), game.dims)
    for at in (x, x_star):
        assert ne_residual(game, at, share * alpha) == \
            _reference_residual(game, at, share * alpha)


@settings(max_examples=60, deadline=None)
@given(cournot_games(), st.floats(0.05, 1.0))
def test_cournot_residual_matches_the_per_block_reference(drawn, share):
    game, rng = drawn
    consts = monotonicity_constants(game)
    alpha = share * consts.eta / consts.lip ** 2
    x = StrategyProfile.from_vector(rng.standard_normal(game.dim), game.dims)
    assert ne_residual(game, x, alpha) == _reference_residual(game, x, alpha)


@settings(max_examples=150, deadline=None)
@given(quadratic_games(), st.floats(1e-3, 10.0))
def test_compiled_prox_matches_prox_apply_per_block(drawn, step):
    game, rng = drawn
    lo = np.concatenate([r.lo if isinstance(r, BoxIndicator) else np.zeros(d)
                         for r, d in zip(game.regularizers, game.dims)])
    # random points, signed zeros, and points exactly on the box bounds
    v = 3.0 * rng.standard_normal(game.dim)
    for point in (v, -0.0 * np.abs(v), 0.0 * v, lo, np.where(v > 0, lo, v)):
        got = compiled_prox(game.regularizers, game.dims, step)(point.copy())
        want = _reference_prox_vector(game, point, step)
        _assert_same_bits(got, want)


def test_sampled_gradient_takes_a_vector_and_an_explicit_noise():
    game = QuadraticGame(dims=(2, 1), h=np.diag([2.0, 3.0, 4.0]),
                         c=np.array([1.0, -1.0, 0.5]),
                         noise=GaussianNoise(0.7))
    cournot = AggregativeGame(a=(1.0, 2.0), b=(0.0, 0.1), d=2.0, c_price=1.0,
                              lo=(0.0, 0.0), hi=(1.0, 1.0),
                              noises=(GaussianNoise(0.3), GaussianNoise(0.6)))
    for g in (game, cournot):
        x = StrategyProfile.from_vector(np.linspace(0.1, 0.9, g.dim), g.dims)
        exact = _reference_gradient(g, x.vector)
        error = np.linspace(-0.3, 0.2, g.dim)
        for at in (x, x.vector):
            _assert_same_bits(sample_batch_gradient(g, at, 40, error),
                              exact + error)
        with pytest.raises(ValueError, match="does not match game dimension"):
            sample_batch_gradient(g, np.zeros(g.dim + 1), 40, error)


def test_run_builds_no_game_copy(monkeypatch):
    game = QuadraticGame(dims=(1, 1), h=np.array([[2.0, 1.0], [1.0, 2.0]]),
                         c=np.array([-1.0, -1.0]), noise=GaussianNoise(1.0))
    x_star = solve_ne_oracle(game)
    builds = []
    checked = games_module.QuadraticGame.__post_init__
    monkeypatch.setattr(games_module.QuadraticGame, "__post_init__",
                        lambda self: builds.append(1) or checked(self))
    config = PgrConfig(alpha=0.2, rho=0.8, max_iter=10, seed=4)
    for r in range(3):
        run_pgr(game, config, StrategyProfile.zeros((1, 1)), x_star,
                replications=[r])
    assert builds == []
