"""The growing-batch loop that pgr, dist-pgr and pbr share, and the record
of a run it returns: iterate() owns the bookkeeping of a run, and a solver
supplies only its update."""

from __future__ import annotations

from dataclasses import astuple, dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import Divergence
from .noise import iteration_errors
from .profiles import StrategyProfile
from .sampling import (BatchSchedule, SampleCounter, check_schedule,
                       schedule_size)


@dataclass
class RunTrace:
    """History of one run: row j of errors, final and consensus_errors
    belongs to the j-th replication id the run was given, and the other
    fields are shared by every row.

    errors[j, k] is the distance measure of row j's k-th iterate to the
    reference equilibrium (squared for gradient-response runs, plain norm
    for best-response runs, per error_metric), NaN without a reference;
    final[j] is row j's last stacked strategy vector. batches and the
    cumulative counter columns cum_samples, cum_prox, cum_comm and
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
    final: np.ndarray
    counter: SampleCounter
    taus: list[int] | None = None
    consensus_errors: np.ndarray | None = None

    @property
    def iterations(self) -> int:
        return len(self.batches)


def check_run(max_iter: int, seed: int) -> None:
    """The checks every solver config makes on the values the loop takes."""
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")


def check_finite(forward: np.ndarray, k: int, reps: Sequence[int]) -> None:
    """Raise Divergence naming reps[j] for the first non-finite row j."""
    if not np.isfinite(forward).all():
        j = np.argmin(np.isfinite(forward).all(axis=1))
        raise Divergence(f"iterate became non-finite at iteration {k} of "
                         f"replication {reps[j]}", iteration=k)


def iterate(step: Callable, x0: StrategyProfile,
            x_star: StrategyProfile | None, dims: Sequence[int],
            schedule: BatchSchedule, n_iter: int,
            nus: Sequence[float], noise_dims: Sequence[int],
            seed: int, replications: Sequence[int],
            error_metric: str) -> RunTrace:
    """Run X_{k+1} = step(k, N_k, X_k, W_k, counter) for k < n_iter from x0
    for every id in replications, returning their RunTrace. Row j of X_k
    and W_k is the j-th replication's stacked strategy vector and its row
    of iteration_errors(nus, noise_dims, seed, replications, batches). N_k
    is schedule's batch size, which check_schedule first checks on a noise
    block of max(noise_dims) coordinates. step counts an iteration's effort
    once, for all rows. errors[j, k] is ||x_k - x*|| of row j, squared for
    error_metric "squared_distance".
    """
    if np.ndim(replications) != 1 or not len(replications):
        raise ValueError(f"a run needs at least one replication id, as [r] "
                         f"or range(R), got {replications!r}")
    if x0.dims != tuple(dims):
        raise ValueError(f"x0 dims {x0.dims} do not match game dims {tuple(dims)}")
    check_schedule(schedule, n_iter, max(noise_dims))
    batches = [schedule_size(schedule, k) for k in range(n_iter)]
    noise = iteration_errors(nus, noise_dims, seed, replications, batches)
    counter, cums = SampleCounter(), []
    errors = np.full((len(replications), n_iter + 1), np.nan)
    power = 2 if error_metric == "squared_distance" else 1
    star = x_star and x_star.vector
    x = np.tile(x0.vector, (len(replications), 1))
    for k in range(n_iter + 1):
        if star is not None:
            dx = x - star
            # a (1, n) @ (n, 1) product is the dot np.linalg.norm takes
            with np.errstate(over="ignore", invalid="ignore"):  # inf error
                norms = np.sqrt((dx[:, None] @ dx[..., None]).ravel()).tolist()
            errors[:, k] = [v ** power for v in norms]
        if k < n_iter:
            x = step(k, batches[k], x, next(noise), counter)
            cums.append(astuple(counter))
    return RunTrace(errors, error_metric, batches, *map(list, zip(*cums)),
                    x, counter)
