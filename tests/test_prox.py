from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nashprox import (
    BoxIndicator,
    L1,
    Zero,
    prox_apply,
)
from nashprox.profiles import StrategyProfile
from nashprox.prox import compiled_prox, prox_pieces, prox_profile


def test_zero_regularizer_prox_is_identity():
    x = np.array([1.5, -2.0, 0.0])
    out = prox_apply(Zero(), x, 0.7)
    assert np.array_equal(out, x)


def test_l1_prox_soft_thresholds_at_alpha_times_weight():
    # threshold 0.5 * 1.0: the 2.0 entry shrinks, the -0.3 entry is zeroed
    out = prox_apply(L1(1.0), np.array([2.0, -0.3]), 0.5)
    assert np.allclose(out, [1.5, 0.0], atol=1e-15)


def test_box_prox_clips_componentwise():
    box = BoxIndicator(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
    out = prox_apply(box, np.array([1.7, -0.2]), 1.0)
    assert np.array_equal(out, [1.0, 0.0])


def test_box_prox_is_independent_of_alpha():
    box = BoxIndicator(np.array([-1.0, 0.0]), np.array([1.0, 2.0]))
    x = np.array([3.0, -5.0])
    outs = [prox_apply(box, x, a) for a in (0.01, 0.5, 10.0)]
    assert np.array_equal(outs[0], outs[1])
    assert np.array_equal(outs[1], outs[2])


def test_l1_prox_satisfies_subgradient_optimality():
    rng = np.random.default_rng(42)
    weight, alpha = 0.8, 0.4
    for _ in range(50):
        x = rng.normal(size=6) * 3.0
        p = prox_apply(L1(weight), x, alpha)
        gap = x - p
        # on the support the residual equals alpha*weight*sign(p); off it stays below
        on = p != 0.0
        assert np.all(np.abs(gap[on] - alpha * weight * np.sign(p[on])) <= 1e-12)
        assert np.all(np.abs(gap[~on]) <= alpha * weight + 1e-12)


@pytest.mark.parametrize("reg", [
    Zero(),
    L1(0.6),
    BoxIndicator(np.array([-1.0, -1.0, 0.0, -2.0]), np.array([1.0, 0.5, 2.0, 2.0])),
])
def test_prox_is_nonexpansive(reg):
    rng = np.random.default_rng(7)
    for _ in range(100):
        x = rng.normal(size=4) * 2.0
        y = rng.normal(size=4) * 2.0
        px = prox_apply(reg, x, 0.3)
        py = prox_apply(reg, y, 0.3)
        assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) + 1e-12


@pytest.mark.parametrize("reg", [
    Zero(),
    L1(0.6),
    BoxIndicator(np.array([-1.0, 0.0]), np.array([1.0, 2.0])),
])
def test_prox_is_idempotent_on_its_range(reg):
    rng = np.random.default_rng(11)
    for _ in range(20):
        x = rng.normal(size=2) * 3.0
        p = prox_apply(reg, x, 0.5)
        # a prox output of an indicator is feasible; re-projecting is a no-op,
        # and soft thresholding a thresholded point only moves it if it is nonzero
        if isinstance(reg, BoxIndicator) or isinstance(reg, Zero):
            assert np.array_equal(prox_apply(reg, p, 0.5), p)


def test_prox_rejects_nonpositive_alpha():
    with pytest.raises(ValueError):
        prox_apply(Zero(), np.zeros(2), 0.0)
    with pytest.raises(ValueError):
        prox_apply(L1(1.0), np.zeros(2), -0.1)


def test_regularizer_constructor_validation():
    with pytest.raises(ValueError):
        L1(-1.0)
    with pytest.raises(ValueError):
        BoxIndicator(np.array([1.0]), np.array([0.0]))
    with pytest.raises(ValueError):
        BoxIndicator(np.array([-np.inf]), np.array([1.0]))


@pytest.mark.parametrize("call,error,message", [
    (lambda: BoxIndicator(np.zeros(2), np.ones(3)), ValueError,
     "box bounds must have matching shapes"),
    (lambda: prox_pieces((Zero(),), (1, 1), 1.0), ValueError,
     "1 regularizers for 2 players"),
    (lambda: prox_pieces(("box",), (1,), 1.0), TypeError,
     "unknown regularizer str"),
], ids=["box-shapes", "regularizer-count", "unknown-regularizer"])
def test_prox_inputs_outside_their_range_are_rejected(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error and str(err.value) == message


def test_box_corner_norm():
    assert BoxIndicator(np.array([0.0, 0.0]), np.array([1.0, 1.0])).corner_norm() == pytest.approx(np.sqrt(2.0))
    assert BoxIndicator(np.array([-2.0]), np.array([1.0])).corner_norm() == pytest.approx(2.0)


def test_prox_profile_applies_blockwise():
    prof = StrategyProfile.from_vector(np.array([2.0, -0.3, 0.7]), (2, 1))
    out = prox_profile((L1(1.0), Zero()), prof, 0.5)
    assert np.allclose(out.blocks[0], [1.5, 0.0], atol=1e-15)
    assert np.array_equal(out.blocks[1], [0.7])


def test_profile_vector_roundtrip_and_distance():
    vec = np.array([1.0, 2.0, 3.0, 4.0])
    prof = StrategyProfile.from_vector(vec, (1, 3))
    assert prof.n_players == 2
    assert prof.dims == (1, 3)
    assert prof.dim == 4
    assert np.array_equal(prof.vector, vec)
    zero = StrategyProfile.zeros((1, 3))
    assert zero.distance(prof) == pytest.approx(np.linalg.norm(vec))


def test_profile_rejects_mismatched_dims():
    with pytest.raises(ValueError):
        StrategyProfile.from_vector(np.zeros(3), (1, 1))


def test_profile_vector_is_a_copy():
    prof = StrategyProfile.zeros((2,))
    v = prof.vector
    v[0] = 99.0
    assert prof.blocks[0][0] == 0.0


def _three_branch_prox(regs, dims, step):
    """The reference: soft thresholding and the clip evaluated on every
    coordinate and selected by np.where, Zero coordinates clipped to
    infinite bounds."""
    lo, hi, t, shrink = prox_pieces(regs, dims, step)
    return lambda v: np.where(shrink, np.sign(v) * np.maximum(abs(v) - t, 0.0),
                              np.minimum(np.maximum(v, lo), hi))


_WIDTHS = st.just(0.0) | st.floats(0.0, 4.0)  # 0: a box with lo == hi


@st.composite
def _profile_points(draw):
    """Regularizers all box, all l1, all zero or mixed (with lo == hi boxes
    and weight-0 l1 among them), a prox step, and a point of shape (n,) or
    (R, n) whose entries are signed zeros, infinities, NaN, the
    coordinate's bounds and thresholds, or arbitrary floats."""
    family = draw(st.sampled_from(("box", "l1", "zero", "mixed")))
    dims = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    regs = []
    for d in dims:
        kind = family if family != "mixed" else \
            draw(st.sampled_from(("box", "l1", "zero")))
        if kind == "box":
            lo = np.array(draw(st.lists(st.floats(-4.0, 4.0), min_size=d,
                                        max_size=d)))
            width = draw(st.lists(_WIDTHS, min_size=d, max_size=d))
            regs.append(BoxIndicator(lo, lo + np.array(width)))
        elif kind == "l1":
            regs.append(L1(draw(_WIDTHS)))
        else:
            regs.append(Zero())
    step = draw(st.floats(1e-3, 10.0))
    lo, hi, t, _ = prox_pieces(regs, dims, step)
    rows, n = draw(st.sampled_from((None, 1, 3))), sum(dims)
    flat = np.array([draw(st.sampled_from((0.0, -0.0, np.inf, -np.inf, np.nan,
                                           lo[j], hi[j], t[j], -t[j]))
                          | st.floats(allow_nan=True, allow_infinity=True))
                     for _ in range(rows or 1) for j in range(n)])
    return regs, dims, step, flat if rows is None else flat.reshape(rows, n)


@settings(max_examples=300, deadline=None)
@given(_profile_points())
def test_compiled_prox_has_the_bits_of_the_three_branch_form(drawn):
    regs, dims, step, v = drawn
    got = compiled_prox(regs, dims, step)(v)
    want = _three_branch_prox(regs, dims, step)(v)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    assert got is not v
