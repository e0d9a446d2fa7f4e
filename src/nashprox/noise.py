"""Calibrated gradient noise and reproducible substreams.

A game's noise is a set of levels nu_i: the zero-mean observation error w
of player i's stochastic first-order oracle has E||w||^2 = nu_i^2 on its
block, and a batch average over N samples has E||w||^2 = nu_i^2 / N. The
solvers draw a whole replication at once (replication_errors): one
standard-normal block per replication, one row per iteration, each block
scaled to its level.

substream(seed, *path) is a PCG64 generator seeded by numpy's SeedSequence
of (seed, *path); it depends only on (seed, path), never on call order, so
runs are bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


def substream(seed: int, *path: int) -> np.random.Generator:
    """Generator for the draw site identified by (seed, *path)."""
    entropy = (int(seed),) + tuple(int(p) for p in path)
    return np.random.default_rng(np.random.SeedSequence(entropy))


@dataclass(frozen=True)
class GaussianNoise:
    """Isotropic Gaussian error with E||w||^2 = nu^2 on a block of any size."""

    nu: float

    def __post_init__(self):
        nu = float(self.nu) + 0.0  # a Python float; drops -0.0
        if not (nu >= 0.0 and math.isfinite(nu * nu)):
            raise ValueError(f"noise level nu must be >= 0 with nu^2 finite, "
                             f"got {nu}")
        object.__setattr__(self, "nu", nu)

    def averaged(self, dim: int, batch: int, path: tuple[int, ...]) -> np.ndarray:
        """Empirical mean of `batch` iid draws on a block of size `dim`,
        drawn from substream(*path).

        Each draw has iid N(0, nu^2/dim) components, so the average is
        N(0, nu^2/(dim*batch) I) and is sampled in one shot.
        """
        if batch < 1:
            raise ValueError(f"batch size must be >= 1, got {batch}")
        return substream(*path).standard_normal(dim) * \
            (self.nu / math.sqrt(dim * batch))


def replication_errors(nus: Sequence[float], dims: Sequence[int],
                       seed: int, replication: int,
                       batches: Sequence[int]) -> np.ndarray:
    """Batch-averaged oracle errors of one replication, one row per iteration.

    Replication r draws one (len(batches), sum(dims)) standard-normal block,
    row by row, from substream(seed, r, 1). Block i of row k is scaled by
    nu_i / sqrt(d_i N_k), with nu_i = nus[i] and d_i = dims[i], so it is
    N(0, nu_i^2/(d_i N_k) I) with E||w||^2 = nu_i^2/N_k. Row k depends on
    (seed, r, k) and the levels only, not on how many rows are drawn. The
    path ends in 1 because SeedSequence pads entropy with zeros: (seed, r)
    would give the stream of (seed, r, 0), which other draws may use.
    """
    z = substream(seed, replication, 1).standard_normal(
        (len(batches), sum(dims)))
    nu = np.repeat(np.asarray(nus, dtype=float), dims)
    d = np.repeat(np.asarray(dims, dtype=float), dims)
    n_k = np.array([float(b) for b in batches])[:, None]
    return z * (nu / np.sqrt(d * n_k))
