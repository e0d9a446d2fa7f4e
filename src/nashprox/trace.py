"""The growing-batch loop that pgr, dist-pgr and pbr share, and the record
of a run it returns: iterate() owns the bookkeeping of a run, and a solver
supplies only its update."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .noise import NoiseModel, replication_errors
from .profiles import StrategyProfile
from .sampling import (BatchSchedule, SampleCounter, check_schedule,
                       schedule_size)


@dataclass
class RunTrace:
    """History of one run.

    errors[k] is the distance measure of the k-th iterate to the reference
    equilibrium (squared for gradient-response runs, plain norm for
    best-response runs, per error_metric); it has one entry more than the
    run has iterations and is NaN when no reference was supplied. batches
    and the cumulative counter columns cum_samples, cum_prox, cum_comm and
    cum_inner have one entry per executed iteration and end at the fields
    of counter. Distributed runs also carry taus and consensus_errors.
    """

    errors: np.ndarray
    error_metric: str
    batches: list[int]
    cum_samples: list[int]
    cum_prox: list[int]
    cum_comm: list[int]
    cum_inner: list[int]
    final: StrategyProfile
    counter: SampleCounter
    taus: list[int] | None = None
    consensus_errors: list[float] | None = None

    @property
    def iterations(self) -> int:
        return len(self.batches)


def check_run(max_iter: int, seed: int) -> None:
    """The checks every solver config makes on the values the loop takes."""
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")


def iterate(step: Callable, x0: StrategyProfile,
            x_star: StrategyProfile | None, dims: Sequence[int],
            schedule: BatchSchedule, n_iter: int,
            noises: Sequence[NoiseModel], noise_dims: Sequence[int],
            seed: int, replication: int, error_metric: str,
            **fields) -> RunTrace:
    """Run x_{k+1} = step(k, N_k, x_k, w_k, counter) for k < n_iter from x0,
    on stacked strategy vectors; step counts its own effort on counter.

    N_k is schedule's batch size; check_schedule first rejects a schedule
    that overflows a float on a noise block of max(noise_dims) coordinates.
    w_k is row k of replication_errors(noises, noise_dims, seed,
    replication, batches). errors[k] is ||x_k - x*||, squared when
    error_metric is "squared_distance". fields are the scheme's own
    RunTrace fields (taus and consensus_errors of dist-pgr).
    """
    if x0.dims != tuple(dims):
        raise ValueError(f"x0 dims {x0.dims} do not match game dims {tuple(dims)}")
    check_schedule(schedule, n_iter, max(noise_dims))
    batches = [schedule_size(schedule, k) for k in range(n_iter)]
    noise = replication_errors(noises, noise_dims, seed, replication, batches)
    counter = SampleCounter()
    cum_samples, cum_prox, cum_comm, cum_inner = [], [], [], []
    errors = np.full(n_iter + 1, np.nan)
    power = 2 if error_metric == "squared_distance" else 1
    star = x_star.vector if x_star is not None else None
    x = x0.vector
    if star is not None:
        errors[0] = float(np.linalg.norm(x - star)) ** power
    for k, n_k in enumerate(batches):
        x = step(k, n_k, x, noise[k], counter)
        cum_samples.append(counter.total_samples)
        cum_prox.append(counter.prox_evals)
        cum_comm.append(counter.comm_rounds)
        cum_inner.append(counter.inner_solves)
        if star is not None:
            errors[k + 1] = float(np.linalg.norm(x - star)) ** power
    return RunTrace(errors=errors, error_metric=error_metric, batches=batches,
                    cum_samples=cum_samples, cum_prox=cum_prox,
                    cum_comm=cum_comm, cum_inner=cum_inner,
                    final=StrategyProfile.from_vector(x, dims),
                    counter=counter, **fields)
