"""run_pbr against a copy of its loop that draws every site on its own.

The reference below is the run_pbr loop with player i's noise at
iteration k of replication r taken from the stream's definition: block i
of row k of the standard-normal block that substream(seed, r, 1) draws for
the replication, scaled by nu_i / sqrt(d_i N_k) with nu_i = nu sqrt(d_i / n)
the player's share of the game's noise. run_pbr scales the whole block at
once, so its errors, counters and final profile must match the reference
bit for bit, signed zeros included.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from nashprox import (
    L1,
    BoxIndicator,
    GaussianNoise,
    PbrConfig,
    QuadraticGame,
    SampleCounter,
    StrategyProfile,
    Zero,
    run_pbr,
    saa_best_response,
    schedule_size,
    solve_ne_oracle,
    substream,
)
from nashprox.best_response import resolved_schedule


def _reference_run_pbr(game, config, x0, x_star, replication):
    schedule = resolved_schedule(game, config)
    z = substream(config.seed, replication, 1).standard_normal(
        (config.max_iter, game.dim))
    counter = SampleCounter()
    errors = np.full(config.max_iter + 1, np.nan)
    y = x0
    errors[0] = y.distance(x_star)
    batches, cum_samples, cum_inner = [], [], []
    for k in range(config.max_iter):
        n_k = schedule_size(schedule, k)
        blocks = []
        for i, d in enumerate(game.dims):
            nu_i = game.noise.nu * math.sqrt(d / game.dim)
            w = z[k, game.block_slice(i)] * (nu_i / math.sqrt(d * float(n_k)))
            blocks.append(saa_best_response(
                game, i, y, n_k, config.mu, w, inner_tol=config.inner_tol))
            counter.total_samples += n_k
            counter.inner_solves += 1
        y = StrategyProfile(tuple(blocks))
        batches.append(n_k)
        cum_samples.append(counter.total_samples)
        cum_inner.append(counter.inner_solves)
        errors[k + 1] = y.distance(x_star)
    return errors, batches, cum_samples, cum_inner, counter, y


def _regularizer(kind, dim, rng):
    if kind == "box":
        lo = -rng.uniform(0.1, 2.0, dim)
        return BoxIndicator(lo, lo + rng.uniform(0.0, 3.0, dim))
    if kind == "l1":
        return L1(float(rng.uniform(0.0, 1.5)))
    return Zero()


@st.composite
def quadratic_games(draw):
    """A game with blocks of size 1-5, own blocks of curvature at least 1,
    weak coupling, a mix of box, l1 and zero regularizers and zero or
    Gaussian noise, plus an rng for points."""
    dims = tuple(draw(st.lists(st.integers(1, 5), min_size=1, max_size=4)))
    kinds = [draw(st.sampled_from(("box", "l1", "zero"))) for _ in dims]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = sum(dims)
    offsets = np.cumsum((0,) + dims)
    h = 0.2 * rng.standard_normal((n, n)) / n
    for i, d in enumerate(dims):
        sl = slice(offsets[i], offsets[i + 1])
        a = rng.standard_normal((d, d))
        h[sl, sl] = np.eye(d) + a @ a.T / d
    noise = draw(st.sampled_from((GaussianNoise(0.0), GaussianNoise(0.3),
                                  GaussianNoise(2.0))))
    game = QuadraticGame(dims=dims, h=h, c=rng.standard_normal(n),
                         regularizers=tuple(_regularizer(k, d, rng)
                                            for k, d in zip(kinds, dims)),
                         noise=noise)
    return game, rng


@settings(max_examples=60, deadline=None)
@given(drawn=quadratic_games(), mu=st.floats(0.2, 3.0),
       eta_br=st.floats(0.3, 0.9), max_iter=st.integers(1, 8),
       seed=st.integers(0, 2 ** 16) | st.integers(2 ** 32, 2 ** 70),
       replication=st.integers(0, 5))
def test_run_matches_the_per_site_reference_loop_bit_for_bit(
        drawn, mu, eta_br, max_iter, seed, replication):
    game, rng = drawn
    config = PbrConfig(mu=mu, eta_br=eta_br, max_iter=max_iter, seed=seed)
    x_star = solve_ne_oracle(game)
    x0 = StrategyProfile.from_vector(rng.standard_normal(game.dim), game.dims)
    trace = run_pbr(game, config, x0, x_star, replications=[replication])
    errors, batches, cum_samples, cum_inner, counter, final = \
        _reference_run_pbr(game, config, x0, x_star, replication)
    assert np.array_equal(trace.errors[0], errors)
    assert trace.errors[0].tobytes() == errors.tobytes()
    assert trace.batches == batches
    assert trace.cum_samples == cum_samples
    assert trace.cum_inner == cum_inner
    assert trace.counter == counter
    assert trace.final.shape == (1, sum(final.dims))
    assert trace.final[0].tobytes() == final.vector.tobytes()
