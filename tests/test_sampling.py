from __future__ import annotations

import math

import numpy as np
import pytest

from nashprox import (
    BestResponseBatch,
    GaussianNoise,
    GeometricBatch,
    QuadraticGame,
    RootGeometricBatch,
    SampleCounter,
    StrategyProfile,
    check_schedule,
    gradient_map,
    sample_batch_gradient,
    schedule_size,
    substream,
)
from nashprox.noise import iteration_errors


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
    assert schedule_size(sched, 0) == 2
    assert schedule_size(sched, 4) == 32


def test_root_geometric_schedule_value():
    assert schedule_size(RootGeometricBatch(0.25), 1) == 4


def test_best_response_schedule_value():
    assert schedule_size(BestResponseBatch(1.0, 2.0, 0.5), 1) == 16


def test_schedules_are_nondecreasing():
    for sched in (GeometricBatch(0.8), RootGeometricBatch(0.6),
                  BestResponseBatch(1.0, 1.5, 0.9)):
        sizes = [schedule_size(sched, k) for k in range(40)]
        assert all(b >= a for a, b in zip(sizes, sizes[1:]))


def test_schedule_validation():
    with pytest.raises(ValueError):
        GeometricBatch(1.0)
    with pytest.raises(ValueError):
        GeometricBatch(0.0)
    with pytest.raises(ValueError):
        schedule_size(GeometricBatch(0.5), -1)


def test_sampled_gradient_is_deterministic_and_counts_samples():
    game = QuadraticGame(dims=(1, 1), h=np.array([[2.0, 1.0], [1.0, 2.0]]),
                         c=np.array([-1.0, -1.0]), noise=GaussianNoise(1.0))
    x = StrategyProfile.zeros((1, 1))
    counter = SampleCounter()
    errors = list(iteration_errors([game.noise.nu], [game.dim], 3, [0],
                                   [50] * 3))
    again = list(iteration_errors([game.noise.nu], [game.dim], 3, [0],
                                  [50] * 3))
    w1 = sample_batch_gradient(game, x, 50, errors[1][0], counter=counter)
    w2 = sample_batch_gradient(game, x, 50, again[1][0])
    assert np.array_equal(w1, w2)
    assert counter.total_samples == 50
    w3 = sample_batch_gradient(game, x, 50, errors[2][0])
    assert not np.array_equal(w1, w3)


def test_sampled_gradient_centers_on_exact_gradient():
    game = QuadraticGame(dims=(1, 1), h=np.array([[2.0, 1.0], [1.0, 2.0]]),
                         c=np.array([-1.0, -1.0]), noise=GaussianNoise(1.0))
    x = StrategyProfile.zeros((1, 1))
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
    counter = SampleCounter()
    counter.total_samples += 5
    counter.prox_evals += 2
    counter.comm_rounds += 3
    counter.inner_solves += 1
    assert counter.as_dict() == {
        "total_samples": 5, "prox_evals": 2, "comm_rounds": 3, "inner_solves": 1}


def test_schedule_check_names_the_largest_usable_iteration_count():
    # 0.5^-1023 is the last power of two below the largest double
    check_schedule(GeometricBatch(0.5), 1023)
    with pytest.raises(ValueError, match="at most 1023"):
        check_schedule(GeometricBatch(0.5), 1100)
    with pytest.raises(ValueError, match="at most 1022"):
        check_schedule(GeometricBatch(0.5), 1100, dim=2)
    with pytest.raises(ValueError, match="at most 0"):
        check_schedule(BestResponseBatch(1e200, 1e200, 0.5), 5)

    class Fixed:
        def size(self, k: int) -> int:
            return 7

    # a schedule that never grows passes however many iterations run
    check_schedule(Fixed(), 10 ** 9)
