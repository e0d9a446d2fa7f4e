"""The anchored best-response inner solve against a reference copy.

The reference below is the plain form of the solve: a fresh eigvalsh of the
own block on every call, the generic prox_apply and np.linalg.norm on every
step, and block(i, j) for the coupling term. The solver reads the same
quantities from per-game caches and applies the prox lowered once per
solve, with the same floating-point operations in the same order, so its
argmin and iteration count must match the reference exactly.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nashprox import (
    L1,
    BoxIndicator,
    QuadraticGame,
    StrategyProfile,
    Zero,
    contraction_certificate,
    prox_apply,
    proximal_best_response,
)
from nashprox.best_response import _solve_anchored
from nashprox.errors import InnerSolveFailure


def _reference_solve(game, i, linear, anchor, mu, tol, max_inner):
    qii = game.block(i, i)
    eigs = np.linalg.eigvalsh(qii)
    lam_min = mu + float(eigs[0])
    lam_max = mu + float(eigs[-1])
    step = 2.0 / (lam_min + lam_max)
    reg = game.regularizers[i]
    z = anchor.copy()
    for it in range(max_inner):
        grad = qii @ z + linear + mu * (z - anchor)
        z_next = prox_apply(reg, z - step * grad, step)
        disp = float(np.linalg.norm(z_next - z))
        z = z_next
        if disp <= tol:
            return z, it + 1
    raise InnerSolveFailure("reference solve did not converge", residual=disp)


def _reference_coupling(game, i, y):
    sl = game.block_slice(i)
    lin = game.c[sl].copy()
    for j in range(game.n_players):
        if j != i:
            lin += game.block(i, j) @ y.blocks[j]
    return lin


def _reference_certificate(game, mu):
    n = game.n_players
    zeta_min = [float(np.linalg.eigvalsh(game.block(i, i))[0])
                for i in range(n)]
    zeta_max = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                zeta_max[i, j] = float(np.linalg.norm(game.block(i, j), 2))
    gamma = np.zeros((n, n))
    for i in range(n):
        gamma[i, i] = mu / (mu + zeta_min[i])
        for j in range(n):
            if i != j:
                gamma[i, j] = zeta_max[i, j] / (mu + zeta_min[i])
    return gamma, float(np.linalg.norm(gamma, 2)), tuple(zeta_min), zeta_max


def _regularizer(kind: str, dim: int, rng: np.random.Generator):
    if kind == "box":
        lo = -rng.uniform(0.1, 2.0, dim)
        return BoxIndicator(lo, lo + rng.uniform(0.0, 3.0, dim))
    if kind == "l1":
        return L1(float(rng.uniform(0.0, 1.0)))
    return Zero()


@st.composite
def games(draw):
    """A strongly monotone game with blocks of size 1-6 and a mix of box,
    l1 and zero regularizers, plus an rng for points."""
    dims = tuple(draw(st.lists(st.integers(1, 6), min_size=1, max_size=4)))
    kinds = [draw(st.sampled_from(("box", "l1", "zero"))) for _ in dims]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = sum(dims)
    a = rng.standard_normal((n, n))
    skew = rng.standard_normal((n, n))
    h = a @ a.T / n + 0.05 * np.eye(n) + 0.3 * (skew - skew.T)
    offsets = np.cumsum((0,) + dims)
    for i in range(len(dims)):
        sl = slice(offsets[i], offsets[i + 1])
        h[sl, sl] = (h[sl, sl] + h[sl, sl].T) / 2.0
    game = QuadraticGame(dims=dims, h=h, c=rng.standard_normal(n),
                         regularizers=tuple(_regularizer(k, d, rng)
                                            for k, d in zip(kinds, dims)))
    return game, rng


@settings(max_examples=150, deadline=None)
@given(games(), st.floats(0.1, 10.0), st.sampled_from((1e-12, 1e-9, 1e-6)))
def test_inner_solve_matches_the_reference_bit_for_bit(drawn, mu, tol):
    game, rng = drawn
    y = StrategyProfile.from_vector(2.0 * rng.standard_normal(game.dim),
                                    game.dims)
    for i in range(game.n_players):
        linear = _reference_coupling(game, i, y) + rng.standard_normal(
            game.dims[i])
        want, want_it = _reference_solve(game, i, linear, y.blocks[i], mu,
                                         tol, 100_000)
        got, got_it = _solve_anchored(game, i, linear, y.blocks[i], mu, tol,
                                      100_000)
        assert np.array_equal(got, want)
        assert got_it == want_it
        exact, _ = _reference_solve(game, i, _reference_coupling(game, i, y),
                                    y.blocks[i], mu, tol, 100_000)
        assert np.array_equal(proximal_best_response(game, i, y, mu, tol),
                              exact)


@settings(max_examples=60, deadline=None)
@given(games(), st.floats(0.1, 10.0))
def test_cached_certificate_equals_a_fresh_computation(drawn, mu):
    game, _ = drawn
    gamma, a, zeta_min, zeta_max = _reference_certificate(game, mu)
    for _ in range(2):  # the second call reads the filled caches
        cert = contraction_certificate(game, mu)
        assert np.array_equal(cert.gamma, gamma)
        assert cert.a == a
        assert cert.zeta_min == zeta_min
        assert np.array_equal(cert.zeta_max, zeta_max)


def test_certificate_arrays_do_not_alias_the_game_caches():
    game = QuadraticGame(dims=(1, 1), h=np.array([[2.0, 1.0], [1.0, 2.0]]),
                         c=np.zeros(2))
    cert = contraction_certificate(game, 1.0)
    cert.zeta_max[0, 1] = 99.0
    cert.gamma[0, 0] = 99.0
    again = contraction_certificate(game, 1.0)
    assert again.zeta_max[0, 1] == 1.0
    assert again.gamma[0, 0] == 1.0 / 3.0


def test_inner_solve_keeps_the_prox_step_and_shape_checks():
    box = BoxIndicator(np.zeros(2), np.ones(2))
    game = QuadraticGame(dims=(1,), h=np.array([[1.0]]), c=np.zeros(1),
                         regularizers=(box,))
    y = StrategyProfile.zeros((1,))
    with pytest.raises(ValueError, match=r"does not match box of shape \(2,\)"):
        proximal_best_response(game, 0, y, 1.0)
    # (mu + e_min) + (mu + e_max) overflows, so the step rounds to zero
    with pytest.raises(ValueError, match="prox step must be finite and > 0"):
        proximal_best_response(QuadraticGame(dims=(1,), h=np.array([[1.0]]),
                                             c=np.zeros(1)), 0, y, 1e308)
