"""The growing-batch loop that pgr, dist-pgr and pbr share, and the record
of a run it returns: iterate() owns the bookkeeping of a run, and a solver
supplies only its update."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import Divergence
from .noise import iteration_errors
from .sampling import BatchSchedule, SampleCounter, check_schedule


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
    for name, value in (("max_iter", max_iter), ("seed", seed)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {value!r}")
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


def check_start(x0: np.ndarray, x_star: np.ndarray | None,
                dims: Sequence[int]) -> None:
    """Reject an x0 or x_star that is not a vector of sum(dims) entries,
    and an x0 too far from x_star to measure any error of the run."""
    for name, x in (("x0", x0), ("x_star", x_star)):
        if x is not None and not (isinstance(x, np.ndarray)
                                  and x.shape == (sum(dims),)):
            raise ValueError(f"{name} dims do not match game dims: " + (
                f"vector of size {x.size} does not split into blocks "
                f"{tuple(dims)}" if isinstance(x, np.ndarray) else
                f"got a {type(x).__name__}, not a numpy array of {sum(dims)} "
                f"entries"))
    if x_star is None:
        return
    with np.errstate(over="ignore", invalid="ignore"):
        sq_distance = (dx := x0 - x_star) @ dx
    if not np.isfinite(sq_distance):
        raise ValueError(f"x0 = {x0.tolist()} has squared distance "
                         f"{sq_distance} to the equilibrium; a run needs it "
                         f"finite")


def iterate(step: Callable, x0: np.ndarray,
            x_star: np.ndarray | None, dims: Sequence[int],
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
    error_metric "squared_distance"; check_start rejects an x0 or x* that
    is not a stacked vector of dims, and an x0 too far from x* to measure.
    Raises MemoryError naming R when the (R, n) blocks cannot be allocated.
    """
    if isinstance(replications, range):  # np.ndim would build its array,
        r = replications                  # and len() stops at sys.maxsize
        rows = max(0, -((r.start - r.stop) // r.step))
    else:
        rows = len(replications) if np.ndim(replications) == 1 else 0
    if not rows:
        raise ValueError(f"a run needs at least one replication id, as [r] "
                         f"or range(R), got {replications!r}")
    check_start(x0, x_star, dims)
    check_schedule(schedule, n_iter, max(noise_dims))
    batches = [schedule.size(k) for k in range(n_iter)]
    try:  # the (R, .) blocks, before any replication's noise is seeded
        errors = np.full((rows, n_iter + 1), np.nan)
        x = np.tile(x0.astype(float, copy=False), (rows, 1))
    except (MemoryError, OverflowError, ValueError) as err:
        raise MemoryError(f"{rows} replications do not fit in memory: a run "
                          f"holds {rows} rows of {n_iter + 1} errors and "
                          f"{x0.size} coordinates") from err
    noise = iteration_errors(nus, noise_dims, seed, replications, batches)
    counter, cums = SampleCounter(), []
    power = 2 if error_metric == "squared_distance" else 1
    for k in range(n_iter + 1):
        if x_star is not None:
            dx = x - x_star
            # a (1, n) @ (n, 1) product is the dot np.linalg.norm takes
            with np.errstate(over="ignore", invalid="ignore"):  # inf error
                norms = np.sqrt((dx[:, None] @ dx[..., None]).ravel()).tolist()
            errors[:, k] = [v ** power for v in norms]
        if k < n_iter:
            x = step(k, batches[k], x, next(noise), counter)
            cums.append((counter.total_samples, counter.prox_evals,
                         counter.comm_rounds, counter.inner_solves))
    return RunTrace(errors, error_metric, batches, *map(list, zip(*cums)),
                    x, counter)
