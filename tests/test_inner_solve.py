"""The anchored best-response inner solve against a reference copy.

The reference below is the plain form of the solve: a fresh eigvalsh of the
own block on every call, the generic prox_apply and np.linalg.norm on every
step, and block(i, j) for the coupling term, run as proximal gradient from
the anchor. The solver starts from an active-set Newton point instead, so
its argmin differs from the reference's within what the stopping test
allows: the prox-gradient map contracts with q = (kappa - 1)/(kappa + 1),
kappa = (mu + e_max)/(mu + e_min), so a point whose last step moved it by
at most tol lies within (q tol + r)/(1 - q) of the argmin, with r the
rounding of one evaluation of the map.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nashprox import (
    L1,
    BoxIndicator,
    QuadraticGame,
    Zero,
    contraction_certificate,
    prox_apply,
    proximal_best_response,
    saa_best_response,
)
from nashprox.best_response import _checked_coupling, _solve_anchored
from nashprox.errors import InnerSolveFailure
from nashprox.prox import prox_pieces


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
            lin += game.block(i, j) @ y[game.block_slice(j)]
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
    if kind == "point":  # lo == hi
        lo = rng.uniform(-1.0, 1.0, dim)
        return BoxIndicator(lo, lo.copy())
    if kind == "l1":
        return L1(float(rng.uniform(0.0, 1.0)))
    if kind == "l1-zero":
        return L1(0.0)
    if kind == "l1-all":  # every coordinate of the argmin is zero
        return L1(1e4)
    return Zero()


@st.composite
def games(draw):
    """A strongly monotone game with blocks of size 1-6 and a mix of box,
    l1 and zero regularizers, degenerate ones included (a box with
    lo == hi, l1 weight 0, and an l1 weight that zeroes every coordinate),
    plus an rng for points."""
    dims = tuple(draw(st.lists(st.integers(1, 6), min_size=1, max_size=4)))
    kinds = [draw(st.sampled_from(("box", "point", "l1", "l1-zero", "l1-all",
                                   "zero"))) for _ in dims]
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


def _check_within_bound(game, i, linear, anchor, mu, tol):
    """The solver's argmin is within the contraction bound of the
    reference's, and one more prox-gradient step moves it by at most tol."""
    want, _ = _reference_solve(game, i, linear, anchor, mu, tol, 100_000)
    got, _ = _solve_anchored(game, i, linear, anchor, mu, tol, 100_000)
    qii, reg = game.block(i, i), game.regularizers[i]
    e_min, e_max = (float(e) for e in np.linalg.eigvalsh(qii)[[0, -1]])
    kappa = (mu + e_max) / (mu + e_min)
    q = (kappa - 1.0) / (kappa + 1.0)
    step = 2.0 / ((mu + e_min) + (mu + e_max))
    norm = np.linalg.norm
    r = 8.0 * np.finfo(float).eps * (norm(want) + step * (
        norm(qii @ want) + norm(linear) + mu * norm(want - anchor)))
    assert norm(got - want) <= 2.0 * (q * tol + r) / (1.0 - q)
    grad = qii @ got + linear + mu * (got - anchor)
    assert norm(prox_apply(reg, got - step * grad, step) - got) <= tol


@settings(max_examples=150, deadline=None)
@given(games(), st.floats(0.1, 10.0), st.sampled_from((1e-12, 1e-9, 1e-6)))
def test_inner_solve_matches_the_reference_within_the_contraction_bound(
        drawn, mu, tol):
    game, rng = drawn
    y = 2.0 * rng.standard_normal(game.dim)
    for i in range(game.n_players):
        anchor = y[game.block_slice(i)]
        linear = _reference_coupling(game, i, y) + rng.standard_normal(
            game.dims[i])
        _check_within_bound(game, i, linear, anchor, mu, tol)
        if isinstance(game.regularizers[i], L1) and \
                game.regularizers[i].weight == 1e4:
            assert not np.any(_solve_anchored(game, i, linear, anchor, mu,
                                              tol, 100_000)[0])
        # the coupling term is one mat-vec with the off-diagonal part of h
        sl, c_i, rows = _checked_coupling(game, i, y, mu, tol, 100_000)
        lin, ref = c_i + rows.dot(y), _reference_coupling(game, i, y)
        scale = np.abs(game.c[sl]) + np.abs(game.h[sl]) @ np.abs(y)
        assert np.all(np.abs(lin - ref) <= 2 * game.dim *
                      np.finfo(float).eps * scale)
        assert np.array_equal(
            proximal_best_response(game, i, y, mu, tol),
            _solve_anchored(game, i, lin, anchor, mu, tol, 100_000)[0])


@settings(max_examples=100, deadline=None)
@given(games(), st.floats(0.1, 10.0), st.sampled_from((1e-12, 1e-9, 1e-6)))
def test_inner_solve_with_the_argmin_tied_at_box_bounds(drawn, mu, tol):
    """A box whose bounds pass through the unconstrained argmin: the argmin
    sits on a bound with a zero multiplier, coordinate by coordinate."""
    game, rng = drawn
    dims = game.dims
    anchor = [rng.standard_normal(d) for d in dims]
    target = [rng.standard_normal(d) for d in dims]
    regs = []
    for z in target:
        side = rng.integers(0, 3, z.size)  # tie at lo, tie at hi, inside
        lo = np.where(side == 0, z, z - rng.uniform(0.0, 1.0, z.size))
        hi = np.where(side == 1, z, z + rng.uniform(0.0, 1.0, z.size))
        regs.append(BoxIndicator(lo, hi))
    tied = QuadraticGame(dims=dims, h=game.h, c=game.c,
                         regularizers=tuple(regs))
    for i in range(tied.n_players):
        k = tied.block(i, i) + mu * np.eye(dims[i])
        linear = mu * anchor[i] - k @ target[i]  # unconstrained argmin target
        _check_within_bound(tied, i, linear, anchor[i], mu, tol)


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
    y = np.zeros(1)
    with pytest.raises(ValueError, match=r"does not match box of shape \(2,\)"):
        proximal_best_response(game, 0, y, 1.0)
    # (mu + e_min) + (mu + e_max) overflows, so the step rounds to zero
    with pytest.raises(ValueError, match="prox step must be finite and > 0"):
        proximal_best_response(QuadraticGame(dims=(1,), h=np.array([[1.0]]),
                                             c=np.zeros(1)), 0, y, 1e308)


def test_a_zero_player_needs_one_newton_solve():
    """The first step's Newton point is the argmin; one step confirms it,
    where plain proximal gradient takes dozens at this conditioning."""
    rng = np.random.default_rng(3)
    a = rng.standard_normal((5, 5))
    game = QuadraticGame(dims=(5,), h=np.eye(5) + 2.0 * a @ a.T,
                         c=np.zeros(5))
    linear, anchor = rng.standard_normal(5), rng.standard_normal(5)
    _, used = _solve_anchored(game, 0, linear, anchor, 0.5, 1e-12, 100_000)
    _, plain = _reference_solve(game, 0, linear, anchor, 0.5, 1e-12, 100_000)
    assert used == 2
    assert plain > 20


@pytest.mark.parametrize("tol", [1e-12, 1e-9, 1e-6])
def test_unsettled_newton_points_fall_back_to_prox_gradient(tol):
    """On this l1 block the Newton points jump between active sets without
    settling, so proximal gradient finishes the solve: the argmin still
    meets the contraction bound, at no more iterations than the plain loop
    plus the d + 1 Newton steps."""
    game = QuadraticGame(dims=(3,), h=np.array([[2.27, 1.02, -0.12],
                                                [1.02, 1.41, -0.32],
                                                [-0.12, -0.32, 0.33]]),
                         c=np.zeros(3), regularizers=(L1(1.3),))
    linear, anchor = np.array([-2.8, 0.9, 0.5]), np.array([-1.1, -0.3, -1.0])
    _, used = _solve_anchored(game, 0, linear, anchor, 0.1, tol, 100_000)
    _, plain = _reference_solve(game, 0, linear, anchor, 0.1, tol, 100_000)
    assert 3 + 2 < used <= plain + 3 + 1
    _check_within_bound(game, 0, linear, anchor, 0.1, tol)


def _joint_rule_solve(game, i, linear, anchor, mu, tol, max_inner):
    """The solver's loop with its active set taken coordinate by coordinate
    from prox_pieces (np.where between the l1 and the box rule) and the
    general Newton system for every player, a zero player included."""
    qii, d = game.block(i, i), anchor.size
    step = 2.0 / sum(mu + e for e in game.own_spectra[i])
    lo, hi, t, shrink = prox_pieces(game.regularizers[i:i + 1], (d,), step)
    k, weight = qii + mu * np.eye(d), t / step
    k_inv = np.linalg.inv(k)
    z, seen, newton = anchor.copy(), set(), d + 1
    for it in range(max_inner):
        v = z - step * (qii @ z + linear + mu * (z - anchor))
        z_next = np.where(shrink, np.sign(v) * np.maximum(abs(v) - t, 0.0),
                          np.minimum(np.maximum(v, lo), hi))
        dz = z_next - z
        if np.sqrt(dz.dot(dz)) <= tol:
            return z_next, it + 1
        if newton and it + 1 < max_inner:
            fixed = np.where(shrink, z_next == 0.0, z_next != v)
            z_fix = np.where(fixed, z_next, 0.0) + 0.0
            shift = weight * np.sign(z_next)
            system = (fixed.tobytes(), (z_fix + shift).tobytes())
            if system in seen:
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
    raise InnerSolveFailure("joint-rule solve did not converge", residual=0.0)


def _signed_zeros(rng, v, share):
    """v with about `share` of its entries set to +0.0 or -0.0."""
    v[rng.random(v.size) < share] = 0.0
    v[rng.random(v.size) < share / 2] = -0.0
    return v


@settings(max_examples=150, deadline=None)
@given(games(), st.floats(0.1, 10.0), st.sampled_from((1e-12, 1e-9, 1e-6)),
       st.integers(-8, 8), st.floats(0.0, 1.0))
def test_per_player_active_set_rules_give_the_bits_of_the_joint_rule(
        drawn, mu, tol, e, share):
    """linear and anchor at scale 10^e, with signed zeros: linear = -0.0
    against anchor = +0.0 gives linear - mu anchor = -0.0, which a dropped
    or reordered +-0.0 addition would turn into +0.0. The tolerance grows
    with the scale above 1, so that it stays above the rounding of z."""
    game, rng = drawn
    tol *= max(1.0, 10.0 ** e)
    for i, d in enumerate(game.dims):
        linear = _signed_zeros(rng, 3.0 * 10.0 ** e * rng.standard_normal(d),
                               share)
        anchor = _signed_zeros(rng, 10.0 ** e * rng.standard_normal(d), share)
        got, used = _solve_anchored(game, i, linear, anchor, mu, tol, 100_000)
        want, plain = _joint_rule_solve(game, i, linear, anchor, mu, tol,
                                        100_000)
        assert got.tobytes() == want.tobytes()
        assert used == plain


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("tol", [1e-12, 1e-9, 1e-6])
def test_a_zero_player_stops_after_two_iterations_at_the_linear_solve(
        seed, tol):
    """The Newton point of a zero player is K^-1 (mu anchor - linear), the
    unconstrained argmin; one prox-gradient step then moves it by at most
    tol. The distance to np.linalg.solve allows for rounding: 16 eps
    cond(K) ||argmin||."""
    rng = np.random.default_rng(seed)
    dims = (3, 4)
    n, mu = sum(dims), 0.5
    a, skew = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    h = np.eye(n) + a @ a.T / n + 0.2 * (skew - skew.T)
    h[3:, 3:] = (h[3:, 3:] + h[3:, 3:].T) / 2.0
    h[:3, :3] = (h[:3, :3] + h[:3, :3].T) / 2.0
    game = QuadraticGame(dims=dims, h=h, c=np.zeros(n),
                         regularizers=(L1(0.3), Zero()))
    k = game.block(1, 1) + mu * np.eye(4)
    linear, anchor = rng.standard_normal(4), rng.standard_normal(4)
    got, used = _solve_anchored(game, 1, linear, anchor, mu, tol, 100_000)
    want = np.linalg.solve(k, mu * anchor - linear)
    assert used == 2
    slack = 16 * np.finfo(float).eps * np.linalg.cond(k) * np.linalg.norm(want)
    assert np.linalg.norm(got - want) <= tol + slack


@pytest.mark.parametrize("anchor", [1.075e32, -3e20, 3e5])
def test_a_solve_past_the_tolerance_resolution_stops_at_the_rounding_floor(
        anchor):
    """At |z| above 1e4 an ulp of z exceeds inner_tol, so prox gradient
    steps one ulp back and forth forever. Once the Newton budget (d + 1 = 2
    steps) is spent, a step of at most a few ulps of ||z|| ends the solve,
    at the argmin (mu anchor - linear) / (q + mu) within those ulps."""
    q, mu, linear = 2.7487, 1.0, np.array([1.762])
    game = QuadraticGame(dims=(1,), h=np.array([[q]]), c=np.zeros(1),
                         regularizers=(BoxIndicator(np.array([-1e33]),
                                                    np.array([1e33])),))
    got, used = _solve_anchored(game, 0, linear, np.array([anchor]), mu,
                                1e-12, 100_000)
    want = (mu * anchor - linear[0]) / (q + mu)
    assert used <= 4
    assert abs(got[0] - want) <= 4 * np.finfo(float).eps * abs(want)


def _rival_game(reg):
    """Player 0 (two coordinates, regularizer reg) against two rivals of
    one coordinate each, both coupled to both of player 0's coordinates."""
    h = np.array([[2.0, 0.5, 1.0, 1.0], [0.5, 3.0, 1.0, 1.0],
                  [0.0, 0.0, 2.0, 0.0], [0.0, 0.0, 0.0, 2.0]])
    return QuadraticGame(dims=(2, 1, 1), h=h, c=np.zeros(4),
                         regularizers=(reg, Zero(), Zero()))


@pytest.mark.parametrize("reg", [
    BoxIndicator(np.array([-1.0, -2.0]), np.array([1.0, 2.0])), L1(0.3),
    Zero()], ids=["box", "l1", "zero"])
@pytest.mark.parametrize("y, error", [
    ([0.0, 0.0, np.nan, 0.0], [0.0, 0.0]),  # a NaN rival
    ([np.nan, 0.0, 0.0, 0.0], [0.0, 0.0]),  # a NaN anchor
    ([0.0, 0.0, np.inf, -np.inf], [0.0, 0.0]),  # inf - inf in the coupling
    ([0.0, 0.0, 0.0, 0.0], [np.nan, 0.0]),  # a NaN observation error
], ids=["rival", "anchor", "inf-inf", "error"])
def test_a_nan_iterate_stops_the_inner_solve_at_once(reg, y, error):
    """The dot, the clip and soft thresholding all keep a NaN, so a NaN
    iterate never converges: the solve raises at the first one (the second
    step for a zero player, whose first Newton point ignores the iterate)
    instead of running all max_inner iterations."""
    game, y = _rival_game(reg), np.array(y)
    first = 2 if isinstance(reg, Zero) else 1
    message = (r"^anchored best response of player 0 has a NaN iterate at "
               rf"inner iteration {first}")
    with np.errstate(all="ignore"):
        with pytest.raises(InnerSolveFailure, match=message + "$") as err:
            saa_best_response(game, 0, y, 1, 1.0, np.array(error))
        assert math.isnan(err.value.residual)
        if not any(error):
            with pytest.raises(InnerSolveFailure, match=message + "$"):
                proximal_best_response(game, 0, y, 1.0)


def test_a_box_player_against_an_infinite_rival_stops_at_its_bound():
    """An infinite linear term clips every step to the box: the solve
    converges to the bound, with no NaN on the way."""
    game = _rival_game(BoxIndicator(np.array([-1.0, -2.0]),
                                    np.array([1.0, 2.0])))
    for sign in (1.0, -1.0):
        y = np.array([0.0, 0.0, sign * np.inf, 0.0])
        got = proximal_best_response(game, 0, y, 1.0)
        assert got.tolist() == ([-1.0, -2.0] if sign > 0 else [1.0, 2.0])


@settings(max_examples=60, deadline=None)
@given(games())
def test_solver_cache_is_keyed_by_player_and_mu(drawn):
    """Every player at mu = 1 and then at mu = 2 on one game gives the
    bits that each solve gives on a game of its own."""
    game, rng = drawn
    y = rng.standard_normal(game.dim)
    for mu in (1.0, 2.0):
        for i in range(game.n_players):
            fresh = QuadraticGame(dims=game.dims, h=game.h, c=game.c,
                                  regularizers=game.regularizers)
            got = proximal_best_response(game, i, y, mu)
            want = proximal_best_response(fresh, i, y, mu)
            assert got.tobytes() == want.tobytes()
