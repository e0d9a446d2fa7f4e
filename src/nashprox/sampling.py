"""Batch-size schedules, the stochastic gradient oracle, and effort counters."""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .games import QuadraticGame, gradient_map


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


def check_schedule(schedule: BatchSchedule, n_iter: int, dim: int = 1) -> None:
    """Reject a schedule whose batches overflow a float within n_iter steps.

    Noise draws scale by 1/sqrt(dim * N_k), so dim * N_k must convert to a
    finite float for every k < n_iter. Batch sizes never shrink, so the
    first iteration that overflows is found by bisection; the message names
    it as the largest usable iteration count, or says that none is when N_0
    already overflows.
    """
    def overflows(k: int) -> bool:
        try:
            float(dim * schedule.size(k))
        except OverflowError:
            return True
        return False

    if n_iter < 1:
        raise ValueError(f"a run needs at least one iteration, got {n_iter}")
    bad = bisect.bisect_left(range(n_iter), True, key=overflows)
    if bad == n_iter:
        return
    if bad == 0:
        raise ValueError(f"batch size N_0 of {schedule} overflows a float at "
                         f"iteration 0, so no max_iter fits this schedule")
    raise ValueError(
        f"batch size N_k of {schedule} overflows a float at iteration {bad}; "
        f"max_iter must be at most {bad}")


@dataclass
class SampleCounter:
    """Cumulative effort of a run: oracle samples, prox evals, communication
    rounds, and inner best-response solves."""

    total_samples: int = 0
    prox_evals: int = 0
    comm_rounds: int = 0
    inner_solves: int = 0


def sample_batch_gradient(game: QuadraticGame, x: np.ndarray, batch: int,
                          error: np.ndarray,
                          out: np.ndarray | None = None) -> np.ndarray:
    """Average of `batch` noisy joint-gradient observations at the stacked
    strategy vector x: the exact gradient plus `error`, the batch-averaged
    observation error drawn by the caller (the solvers pass their row of
    noise.iteration_errors), an array of x's shape.

    The result is written into `out` (a new array if None), as
    gradient_map does, and `out` is returned. `out` must not share memory
    with `error`, which is read after the gradient is written; this is not
    checked (a check would cost more than writing in place saves).
    """
    if batch < 1:
        raise ValueError(f"batch size must be >= 1, got {batch}")
    if not (isinstance(error, np.ndarray)
            and error.shape == game.vector_shape):
        raise ValueError(f"error must be an array of x's shape "
                         f"{game.vector_shape}, got shape {np.shape(error)}")
    out = gradient_map(game, x, out)
    out += error
    return out
