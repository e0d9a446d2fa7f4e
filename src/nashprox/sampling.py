"""Batch-size schedules, the stochastic gradient oracle, and effort counters."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .games import Game, gradient_map
from .profiles import StrategyProfile


@dataclass(frozen=True)
class GeometricBatch:
    """N_k = ceil(ratio^{-(k+1)}); grows geometrically at rate 1/ratio."""

    ratio: float

    def __post_init__(self):
        if not (0.0 < self.ratio < 1.0):
            raise ValueError(f"batch ratio must lie in (0, 1), got {self.ratio}")

    def size(self, k: int) -> int:
        return math.ceil(self.ratio ** -(k + 1))


@dataclass(frozen=True)
class RootGeometricBatch(GeometricBatch):
    """N_k = ceil(ratio^{-(k+1)/2}); the square root of the geometric schedule."""

    def size(self, k: int) -> int:
        return math.ceil(self.ratio ** (-(k + 1) / 2.0))


@dataclass(frozen=True)
class BestResponseBatch:
    """N_k = ceil(m_max^2 c_r^2 / eta_br^{2k}), floored at one sample.

    m_max bounds the per-player oracle error level, c_r the subproblem
    error gain, and eta_br in (0, 1) the target decay of the batch error.
    """

    m_max: float
    c_r: float
    eta_br: float

    def __post_init__(self):
        if not (self.m_max >= 0.0 and math.isfinite(self.m_max)):
            raise ValueError(f"m_max must be finite and >= 0, got {self.m_max}")
        if not (self.c_r > 0.0 and math.isfinite(self.c_r)):
            raise ValueError(f"c_r must be finite and > 0, got {self.c_r}")
        if not (0.0 < self.eta_br < 1.0):
            raise ValueError(f"eta_br must lie in (0, 1), got {self.eta_br}")

    def size(self, k: int) -> int:
        return max(1, math.ceil((self.m_max * self.c_r) ** 2 *
                                self.eta_br ** (-2 * k)))

    def total(self, n: int) -> int:
        """sum_{k < n} size(k); OverflowError where a batch or the sum does.

        The leading run of 1s is counted in closed form, the rest in numpy
        chunks. A batch below 2^32 that np.power, an ulp apart from pow,
        could move is redone by size(k): exact while batches stay below
        2^32, double precision above."""
        if n < 1:
            return 0
        self.size(n - 1)  # batch sizes never shrink
        base = (self.m_max * self.c_r) ** 2
        # size(k) = 1 for k <= ln(base) / (2 ln eta_br), less one for rounding
        total = n if base == 0.0 else min(n, max(0, math.floor(
            math.log(base) / (2.0 * math.log(self.eta_br))) - 1))
        for start in range(total, n, 1 << 20):
            v = base * np.power(self.eta_br, np.arange(
                -2.0 * start, -2.0 * min(n, start + (1 << 20)), -2.0))
            sizes = np.ceil(v)
            cut = int(np.searchsorted(sizes, 2.0 ** 32))
            gap = sizes[:cut] - v[:cut]
            for j in np.flatnonzero(abs(gap - 0.5) > 0.5 - 2.0 ** -18):
                sizes[j] = self.size(start + int(j))
            with np.errstate(over="ignore"):  # int(inf) raises below
                tail = sizes[cut:].sum()
            total += int(sizes[:cut].sum()) + int(tail)
        return total


BatchSchedule = Union[GeometricBatch, RootGeometricBatch, BestResponseBatch]


def schedule_size(schedule: BatchSchedule, k: int) -> int:
    """Batch size N_k of a schedule at iteration k >= 0."""
    if k < 0:
        raise ValueError(f"iteration index must be >= 0, got {k}")
    return int(schedule.size(int(k)))


def check_schedule(schedule: BatchSchedule, n_iter: int, dim: int = 1) -> None:
    """Reject a schedule whose batches overflow a float within n_iter steps.

    Noise draws scale by 1/sqrt(dim * N_k), so dim * N_k must convert to a
    finite float for every k < n_iter. Batch sizes never shrink, so the last
    iteration decides; on failure the message names the largest usable
    iteration count, found by bisection.
    """
    def fits(k: int) -> bool:
        try:
            float(dim * schedule_size(schedule, k))
        except OverflowError:
            return False
        return True

    if fits(n_iter - 1):
        return
    good, bad = -1, n_iter - 1
    while bad - good > 1:
        mid = (good + bad) // 2
        if fits(mid):
            good = mid
        else:
            bad = mid
    raise ValueError(
        f"batch size N_k of {schedule} overflows a float at iteration {bad}; "
        f"max_iter must be at most {good + 1}")


@dataclass
class SampleCounter:
    """Cumulative effort of a run: oracle samples, prox evals, communication
    rounds, and inner best-response solves."""

    total_samples: int = 0
    prox_evals: int = 0
    comm_rounds: int = 0
    inner_solves: int = 0

    def as_dict(self) -> dict:
        return {"total_samples": self.total_samples,
                "prox_evals": self.prox_evals,
                "comm_rounds": self.comm_rounds,
                "inner_solves": self.inner_solves}


def sample_batch_gradient(game: Game, x: StrategyProfile | np.ndarray,
                          batch: int, error: np.ndarray,
                          counter: SampleCounter | None = None) -> np.ndarray:
    """Average of `batch` noisy joint-gradient observations at x (a profile
    or its stacked vector): the exact gradient plus `error`, the
    batch-averaged observation error drawn by the caller (the solvers pass
    their row of noise.iteration_errors). Counts `batch` samples.
    """
    if batch < 1:
        raise ValueError(f"batch size must be >= 1, got {batch}")
    g = gradient_map(game, x)
    if counter is not None:
        counter.total_samples += int(batch)
    return g + error
