from __future__ import annotations

import itertools
import math
import re
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nashprox import (
    AggregativeGame,
    BestResponseBatch,
    GaussianNoise,
    GeometricBatch,
    QuadraticGame,
    RootGeometricBatch,
    SampleCounter,
    check_schedule,
    generate_quadratic_game,
    gradient_map,
    sample_batch_gradient,
    substream,
)
from nashprox.noise import DRAW_CHUNK, iteration_errors


def test_substream_is_deterministic_per_path():
    a = substream(5, 1, 2).standard_normal(3)
    b = substream(5, 1, 2).standard_normal(3)
    c = substream(5, 1, 3).standard_normal(3)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_noise_level_is_a_python_float_without_a_negative_zero():
    """A level of -0.0 is level 0, as a config's "zero" noise is, and a
    numpy level too large to square is rejected without a RuntimeWarning."""
    for nu in (-0.0, np.float64(-0.0), 0.0):
        level = GaussianNoise(nu).nu
        assert type(level) is float and math.copysign(1.0, level) == 1.0
    with pytest.raises(ValueError, match="nu\\^2 finite"):
        GaussianNoise(np.float64(1e160))


def test_batch_average_second_moment_matches_calibration():
    # for a batch of size m the averaged observation has E||w||^2 = nu^2 / m
    noise = GaussianNoise(1.0)
    draws = np.array([noise.averaged(4, 100, (0, r)) for r in range(2000)])
    mean_sq = float(np.sum(draws ** 2, axis=1).mean())
    assert 0.8 * 0.01 <= mean_sq <= 1.2 * 0.01


def test_batch_average_is_unbiased():
    noise = GaussianNoise(1.0)
    reps, batch = 2000, 100
    draws = np.array([noise.averaged(4, batch, (0, r)) for r in range(reps)])
    bias = float(np.linalg.norm(draws.mean(axis=0)))
    assert bias <= 4.0 / math.sqrt(batch * reps)


@pytest.mark.parametrize("batch", [1, 4, 16, 64])
def test_second_moment_scales_inversely_with_batch(batch):
    noise = GaussianNoise(1.0)
    draws = np.array([noise.averaged(4, batch, (0, 9, batch, r))
                      for r in range(2000)])
    scaled = float(np.sum(draws ** 2, axis=1).mean()) * batch
    assert 0.8 <= scaled <= 1.2


def test_geometric_schedule_values():
    sched = GeometricBatch(0.5)
    assert sched.size(0) == 2
    assert sched.size(4) == 32


def test_root_geometric_schedule_value():
    assert RootGeometricBatch(0.25).size(1) == 4


def test_best_response_schedule_value():
    assert BestResponseBatch(1.0, 2.0, 0.5).size(1) == 16


def test_schedules_are_nondecreasing():
    for sched in (GeometricBatch(0.8), RootGeometricBatch(0.6),
                  BestResponseBatch(1.0, 1.5, 0.9)):
        sizes = [sched.size(k) for k in range(40)]
        assert all(b >= a for a, b in zip(sizes, sizes[1:]))


def test_schedule_validation():
    with pytest.raises(ValueError):
        GeometricBatch(1.0)
    with pytest.raises(ValueError):
        GeometricBatch(0.0)


def test_sampled_gradient_is_deterministic():
    game = QuadraticGame(dims=(1, 1), h=np.array([[2.0, 1.0], [1.0, 2.0]]),
                         c=np.array([-1.0, -1.0]), noise=GaussianNoise(1.0))
    x = np.zeros(2)
    errors = list(iteration_errors([game.noise.nu], [game.dim], 3, [0],
                                   [50] * 3))
    again = list(iteration_errors([game.noise.nu], [game.dim], 3, [0],
                                  [50] * 3))
    w1 = sample_batch_gradient(game, x, 50, errors[1][0])
    w2 = sample_batch_gradient(game, x, 50, again[1][0])
    assert np.array_equal(w1, w2)
    w3 = sample_batch_gradient(game, x, 50, errors[2][0])
    assert not np.array_equal(w1, w3)


def test_sampled_gradient_centers_on_exact_gradient():
    game = QuadraticGame(dims=(1, 1), h=np.array([[2.0, 1.0], [1.0, 2.0]]),
                         c=np.array([-1.0, -1.0]), noise=GaussianNoise(1.0))
    x = np.zeros(2)
    exact = gradient_map(game, x)
    reps, batch = 4000, 25
    # rows 0..reps-1 of replication 5 of seed 3
    errors = iteration_errors([game.noise.nu], [game.dim], 3, [5],
                              [batch] * reps)
    draws = np.array([sample_batch_gradient(game, x, batch, w[0])
                      for w in errors])
    bias = float(np.linalg.norm(draws.mean(axis=0) - exact))
    assert bias <= 4.0 / math.sqrt(batch * reps)


def test_counter_as_dict_round_trip():
    """report.json's counters are dataclasses.asdict of the counter: its
    four fields, in this order."""
    counter = SampleCounter()
    counter.total_samples += 5
    counter.prox_evals += 2
    counter.comm_rounds += 3
    counter.inner_solves += 1
    assert list(asdict(counter).items()) == [
        ("total_samples", 5), ("prox_evals", 2), ("comm_rounds", 3),
        ("inner_solves", 1)]


def _first_overflow(schedule, dim: int) -> int:
    """The first k at which dim * N_k overflows a float, by a linear scan."""
    k = 0
    while True:
        try:
            float(dim * schedule.size(k))
        except OverflowError:
            return k
        k += 1


def test_schedule_check_names_the_largest_usable_iteration_count():
    # 0.5^-1023 is the last power of two below the largest double
    check_schedule(GeometricBatch(0.5), 1023)
    with pytest.raises(ValueError, match="at most 1023"):
        check_schedule(GeometricBatch(0.5), 1100)
    with pytest.raises(ValueError, match="at most 1022"):
        check_schedule(GeometricBatch(0.5), 1100, dim=2)
    # N_0 already overflows: no max_iter fits
    for schedule in (BestResponseBatch(1e200, 1e200, 0.5),
                     GeometricBatch(1e-320)):
        with pytest.raises(ValueError, match=re.escape(
                f"batch size N_0 of {schedule} overflows a float at "
                f"iteration 0, so no max_iter fits this schedule")):
            check_schedule(schedule, 5)

    class Fixed:
        def size(self, k: int) -> int:
            return 7

    # a schedule that never grows passes however many iterations run
    check_schedule(Fixed(), 10 ** 9)
    # for n_iter on both sides of the first overflowing iteration b, the
    # check passes up to b and past it names b (or, at b = 0, says that
    # no run length fits)
    for schedule, dim in itertools.product([
            GeometricBatch(0.5), GeometricBatch(0.3), GeometricBatch(0.97),
            RootGeometricBatch(0.5), RootGeometricBatch(0.8),
            BestResponseBatch(1.0, 2.0, 0.5), BestResponseBatch(3.0, 1.5, 0.8),
            GeometricBatch(1e-320)], [1, 2, 3]):
        b = _first_overflow(schedule, dim)
        for n_iter in sorted({max(1, b + d) for d in (-1, 0, 1, 2, 37)}):
            if n_iter <= b:
                check_schedule(schedule, n_iter, dim)
                continue
            message = (f"batch size N_k of {schedule} overflows a float at "
                       f"iteration {b}; max_iter must be at most {b}" if b
                       else f"batch size N_0 of {schedule} overflows a float "
                       f"at iteration 0, so no max_iter fits this schedule")
            with pytest.raises(ValueError, match=re.escape(message)):
                check_schedule(schedule, n_iter, dim)


@pytest.mark.parametrize("reps", [1, 3])
@pytest.mark.parametrize("n_iter", [1, DRAW_CHUNK + 1, 2 * DRAW_CHUNK - 1])
def test_iteration_errors_rows_survive_collection_at_chunk_edges(reps, n_iter):
    """Collected into one list, the rows iteration_errors yields are each
    stream's standard_normal((K, n)) rows, scaled, for K not a multiple of
    DRAW_CHUNK and for one replication: no row aliases a reused buffer."""
    nus, dims, ids = (0.7, 1.3), (2, 3), list(range(4, 4 + reps))
    batches = [2 ** k for k in range(n_iter)]
    rows = list(iteration_errors(nus, dims, 9, ids, batches))
    assert len(rows) == n_iter
    assert not any(np.shares_memory(a, b) for i, a in enumerate(rows)
                   for b in rows[i + 1:])
    nu, d = np.repeat(nus, dims), np.repeat(dims, dims).astype(float)
    for j, r in enumerate(ids):
        z = substream(9, r, 1).standard_normal((n_iter, sum(dims)))
        for k, n_k in enumerate(batches):
            want = z[k] * (nu / np.sqrt(d * float(n_k)))
            assert rows[k][j].tobytes() == want.tobytes()


def _two_kinds():
    """A quadratic game of blocks (2, 1) and a 3-player Cournot game."""
    return (QuadraticGame(dims=(2, 1), h=np.diag([2.0, 3.0, 4.0]),
                          c=np.array([1.0, -1.0, 0.5]),
                          noise=GaussianNoise(0.7)),
            AggregativeGame(a=(1.0, 2.0, 1.5), b=(0.0, 0.1, 0.2), d=2.0,
                            c_price=1.0, lo=(0.0,) * 3, hi=(1.0,) * 3))


@st.composite
def _oracle_cases(draw):
    """A quadratic or Cournot game, a point and an error at scale 10^e."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        game = generate_quadratic_game(
            n_players=draw(st.integers(1, 4)), dim=draw(st.integers(1, 5)),
            coupling_strength=draw(st.floats(0.0, 0.9)),
            seed=draw(st.integers(0, 2 ** 32 - 1)))
    else:
        n = draw(st.integers(1, 6))
        game = AggregativeGame(a=rng.uniform(0.5, 2.0, n),
                               b=rng.uniform(0.0, 0.2, n), d=2.0,
                               c_price=draw(st.floats(0.0, 2.0)),
                               lo=np.zeros(n), hi=np.ones(n))
    scale = 10.0 ** draw(st.integers(-8, 8))
    return (game, scale * rng.standard_normal(game.dim),
            scale * rng.standard_normal(game.dim))


@settings(max_examples=200, deadline=None)
@given(case=_oracle_cases(), rows=st.integers(1, 4), data=st.data())
def test_an_oracle_row_written_into_its_block_has_the_allocating_bits(
        case, rows, data):
    """out= is filled and returned, with the bits of the allocating call,
    and the block's other rows are left alone."""
    game, x, error = case
    block = np.full((rows, game.dim), np.nan)
    r = data.draw(st.integers(0, rows - 1))
    row = block[r]
    want = sample_batch_gradient(game, x, 3, error)
    assert sample_batch_gradient(game, x, 3, error, out=row) is row
    assert row.tobytes() == want.tobytes()
    assert np.isnan(np.delete(block, r, axis=0)).all()
    assert gradient_map(game, x, row) is row
    assert row.tobytes() == gradient_map(game, x).tobytes()


def test_an_unusable_out_is_rejected_naming_out():
    for game in _two_kinds():
        x, error = np.linspace(0.1, 0.9, game.dim), np.zeros(game.dim)
        read_only = np.empty(game.dim)
        read_only.flags.writeable = False
        for out in (np.empty(game.dim + 1), np.empty((1, game.dim)),
                    np.empty((2, game.dim)),
                    np.empty(game.dim, dtype=np.float32),
                    np.empty(2 * game.dim)[::2], read_only,
                    [0.0] * game.dim):
            with pytest.raises(ValueError, match="^out must be a"):
                sample_batch_gradient(game, x, 3, error, out=out)
            with pytest.raises(ValueError, match="^out must be a"):
                gradient_map(game, x, out)


def test_an_error_not_of_x_s_shape_is_rejected_naming_error():
    """A scalar, a size-1 array or a stack of rows would broadcast into a
    gradient, or into a stack of gradients."""
    for game in _two_kinds():
        x = np.zeros(game.dim)
        for error in (0.5, np.float64(0.5), np.array([0.5]),
                      np.zeros((2, game.dim)), np.zeros(game.dim + 1),
                      [0.0] * game.dim):
            message = (f"error must be an array of x's shape ({game.dim},), "
                       f"got shape {np.shape(error)}")
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                sample_batch_gradient(game, x, 5, error)
