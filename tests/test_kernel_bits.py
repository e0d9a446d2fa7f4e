"""The kernels of the pbr inner solve and of dist-pgr's consensus give
numpy's own bits.

`best_response._solve_anchored` calls numpy's solve gufunc directly, as
np.linalg.solve does after its checks, and takes its 2-D by 1-D products
with ndarray.dot instead of @. Both must equal the wrapped calls bit for
bit on every operand the solvers pass: a principal submatrix of
K = Q_ii + mu I (sizes 1 to 6), a C-contiguous copy of an own block Q_ii
and its non-contiguous view into h, a row slice of off_diagonal, and the
full h (gradient_map). pgr's gradient_map writes h.dot(x, out) into its
row of the (R, n) gradient block, which must equal h @ x too. The solve
gufunc is called without a signature (float64 operands select its dd->d
loop), and the inner solve holds step and mu as 0-d float64 arrays, which
must give the bits of the Python floats they hold.

One exception is pinned as it is: with a one-element operand (a player or
a game of dimension 1), ndarray.dot multiplies by a scalar, so a zero
product keeps its sign, where @ adds it to +0.0 and returns +0.0. Such a
signed zero changes no output: a zero of either sign adds to a nonzero
term exactly, the errors and the inner displacement are squares, the
active-set keys compare with == or drop -0.0, and no iterate divides.

`graphs.consensus_apply` takes its node means with np.add.reduce(v, 0),
and `distributed.run_dist_pgr` its consensus errors with
np.add.reduce(x, 1) / n and np.maximum.reduce: the reductions that
v.sum(axis=0), np.mean(x, axis=1) and np.max call behind their Python
wrappers.
"""

from __future__ import annotations

import operator

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.linalg._umath_linalg import solve1

from nashprox import generate_quadratic_game


def _same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    return got.dtype == want.dtype and got.shape == want.shape \
        and got.tobytes() == want.tobytes()


def _dot_is_matmul(m: np.ndarray, v: np.ndarray, like: np.ndarray) -> bool:
    """m.dot(v) has the bits of like @ v (like holds m's values). With a
    one-element operand, ndarray.dot multiplies by a scalar and keeps the
    sign of a zero product, where the BLAS product adds it to +0.0; the
    solvers' outputs cannot see that sign (see the module docstring)."""
    got = m.dot(v)
    return _same_bits(got if min(m.size, v.size) > 1 else got + 0.0, like @ v)


@st.composite
def _games(draw):
    """A random quadratic game and a vector at scale 10^e."""
    game = generate_quadratic_game(
        n_players=draw(st.integers(1, 4)), dim=draw(st.integers(1, 6)),
        coupling_strength=draw(st.floats(0.0, 0.9)),
        seed=draw(st.integers(0, 2 ** 32 - 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return game, rng, 10.0 ** draw(st.integers(-8, 8))


def _principal_system(case, mu, data):
    """A principal submatrix K_FF of K = Q_ii + mu I of a drawn player, its
    right-hand side and np.linalg.solve's solution."""
    game, rng, scale = case
    i = data.draw(st.integers(0, game.n_players - 1))
    d = game.dims[i]
    k = np.ascontiguousarray(game.blocks[i][i]) + mu * np.eye(d)
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=d,
                                       max_size=d).filter(any)))
    rhs, free = scale * rng.standard_normal(d), np.flatnonzero(mask)
    want = np.linalg.solve(k[mask][:, mask], rhs[mask])
    return k[np.ix_(free, free)], rhs.take(free), want


@settings(max_examples=200, deadline=None)
@given(case=_games(), mu=st.floats(1e-6, 1e6), data=st.data())
def test_solve1_equals_np_linalg_solve_on_principal_submatrices(case, mu,
                                                                data):
    k_ff, rhs, want = _principal_system(case, mu, data)
    got = solve1(k_ff, rhs, signature="dd->d")
    assert _same_bits(got, want)


@settings(max_examples=200, deadline=None)
@given(case=_games(), mu=st.floats(1e-6, 1e6), data=st.data())
def test_solve1_without_a_signature_equals_np_linalg_solve(case, mu, data):
    """Float64 operands select the dd->d loop that the signature names."""
    k_ff, rhs, want = _principal_system(case, mu, data)
    assert _same_bits(solve1(k_ff, rhs), want)


_ENTRIES = st.one_of(st.sampled_from((0.0, -0.0, np.inf, -np.inf, np.nan)),
                     st.floats(-10.0, 10.0))


@settings(max_examples=300, deadline=None)
@given(v=st.lists(_ENTRIES, min_size=1, max_size=6), s=_ENTRIES,
       e=st.integers(-8, 8), f=st.integers(-8, 8))
def test_a_0d_float64_operand_gives_the_bits_of_the_python_float(v, s, e, f):
    """The inner solve holds step and mu as 0-d float64 arrays, which numpy
    2 combines with an array faster than a Python float: the same
    products, differences, sums and comparisons, bit for bit, on either
    side, at scales 10^e and 10^f with signed zeros, infinities and NaN."""
    v, s = np.array(v) * 10.0 ** e, s * 10.0 ** f
    a = np.array(s)
    assert a.shape == () and a.dtype == np.float64
    with np.errstate(all="ignore"):
        for op in (operator.mul, operator.sub, operator.add, operator.eq):
            assert _same_bits(op(a, v), op(s, v))
            assert _same_bits(op(v, a), op(v, s))


@settings(max_examples=200, deadline=None)
@given(case=_games())
def test_dot_equals_matmul_on_the_solver_operands(case):
    game, rng, scale = case
    y = scale * rng.standard_normal(game.dim)
    assert _dot_is_matmul(game.h, y, game.h)
    for i in range(game.n_players):
        sl, d = game.block_slice(i), game.dims[i]
        view, z = game.blocks[i][i], scale * rng.standard_normal(d)
        assert view.flags.c_contiguous == (game.n_players == 1 or d == 1)
        copy = np.ascontiguousarray(view)
        assert _dot_is_matmul(view, z, view)
        assert _dot_is_matmul(copy, z, view)
        rows = game.off_diagonal[sl]
        assert _dot_is_matmul(rows, y, rows)
        k = copy + 1.0 * np.eye(d)
        k_inv = np.linalg.inv(k)
        assert _dot_is_matmul(k, z, k) and _dot_is_matmul(k_inv, z, k_inv)


@settings(max_examples=200, deadline=None)
@given(case=_games(), rows=st.integers(1, 5), data=st.data())
def test_dot_into_a_row_of_a_block_equals_matmul(case, rows, data):
    game, rng, scale = case
    x = scale * rng.standard_normal((rows, game.dim))
    block = np.empty((rows, game.dim))
    r = data.draw(st.integers(0, rows - 1))
    row = block[r]
    assert game.h.dot(x[r], row) is row
    # a one-element dot keeps a zero product's sign (see _dot_is_matmul)
    assert _same_bits(row if game.dim > 1 else row + 0.0, game.h @ x[r])


def test_a_one_element_dot_keeps_the_sign_of_a_zero_product():
    """Why _dot_is_matmul adds +0.0 for one-element operands."""
    m, v = np.array([[0.0]]), np.array([-1.0])
    assert np.signbit(m.dot(v)[0]) and not np.signbit((m @ v)[0])
    assert not np.signbit((np.zeros((2, 2)) @ -np.ones(2))[0])
    assert not np.signbit(np.zeros((2, 2)).dot(-np.ones(2))[0])


@settings(max_examples=200, deadline=None)
@given(rows=st.integers(1, 40), columns=st.integers(0, 25),
       seed=st.integers(0, 2 ** 32 - 1), scale=st.integers(-300, 300),
       zeros=st.floats(0.0, 1.0))
def test_the_consensus_reductions_equal_numpy_wrappers(rows, columns, seed,
                                                       scale, zeros):
    """On 1-D and 2-D operands at any scale, with signed zeros and
    infinities (a diverging row): np.add.reduce(v, 0) is v.sum(axis=0),
    np.add.reduce(x, 1) / n is np.mean(x, axis=1), and np.maximum.reduce
    is np.max, bit for bit."""
    rng = np.random.default_rng(seed)
    shape = (rows,) if columns == 0 else (rows, columns)
    v = rng.standard_normal(shape) * 10.0 ** scale
    v[rng.random(shape) < zeros] = 0.0
    v[rng.random(shape) < zeros / 2] = -0.0
    if v.size > 2:
        v.flat[int(rng.integers(v.size))] = np.inf
    with np.errstate(over="ignore", invalid="ignore"):
        assert _same_bits(np.asarray(np.add.reduce(v, 0)),
                          np.asarray(v.sum(axis=0)))
        if columns:
            assert _same_bits(np.add.reduce(v, 1) / columns,
                              np.mean(v, axis=1))
            assert _same_bits(np.maximum.reduce(np.abs(v), 1),
                              np.max(np.abs(v), axis=1))
