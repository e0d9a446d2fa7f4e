"""Calibrated gradient noise and reproducible substreams.

A noise model represents the zero-mean observation error w of a stochastic
first-order oracle, calibrated so that E||w||^2 = nu^2 on its block. Batch
averages over N samples are drawn directly as a single Gaussian with second
moment nu^2/N, which matches the distribution of an empirical mean of N
independent draws and stays cheap when N is large.

substream(seed, *path) is a PCG64 generator seeded by numpy's SeedSequence
of (seed, *path); it depends only on (seed, path), never on call order, so
runs are bit-reproducible. A noise model's averaged() draws one site from
the stream (model seed, *path). The solvers draw a whole replication at
once instead (replication_errors): one standard-normal block per
replication, one row per iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np


def substream(seed: int, *path: int) -> np.random.Generator:
    """Generator for the draw site identified by (seed, *path)."""
    entropy = (int(seed),) + tuple(int(p) for p in path)
    return np.random.default_rng(np.random.SeedSequence(entropy))


def _check_batch(batch: int) -> None:
    if batch < 1:
        raise ValueError(f"batch size must be >= 1, got {batch}")


@dataclass(frozen=True)
class GaussianNoise:
    """Isotropic Gaussian error with E||w||^2 = nu^2 on a block of any size."""

    nu: float
    seed: int = 0

    def __post_init__(self):
        if not (self.nu >= 0.0 and np.isfinite(self.nu * self.nu)):
            raise ValueError(f"noise level nu must be >= 0 with nu^2 finite, "
                             f"got {self.nu}")

    def averaged(self, dim: int, batch: int, path: tuple[int, ...]) -> np.ndarray:
        """Empirical mean of `batch` iid draws on a block of size `dim`.

        Each draw has iid N(0, nu^2/dim) components, so the average is
        N(0, nu^2/(dim*batch) I) and is sampled in one shot.
        """
        _check_batch(batch)
        return substream(self.seed, *path).standard_normal(dim) * \
            (self.nu / math.sqrt(dim * batch))


@dataclass(frozen=True)
class ZeroNoise:
    """Exact oracle; draws are identically zero."""

    seed: int = 0

    @property
    def nu(self) -> float:
        return 0.0

    def averaged(self, dim: int, batch: int, path: tuple[int, ...]) -> np.ndarray:
        _check_batch(batch)
        return np.zeros(dim)


NoiseModel = Union[GaussianNoise, ZeroNoise]


def scaled_noise(noise: NoiseModel, factor: float) -> NoiseModel:
    """Same noise process with nu scaled by `factor` (same seed)."""
    if isinstance(noise, ZeroNoise):
        return noise
    return GaussianNoise(nu=noise.nu * factor, seed=noise.seed)


def replication_errors(noises: Sequence[NoiseModel], dims: Sequence[int],
                       seed: int, replication: int,
                       batches: Sequence[int]) -> np.ndarray:
    """Batch-averaged oracle errors of one replication, one row per iteration.

    Replication r draws one (len(batches), sum(dims)) standard-normal block,
    row by row, from substream(seed, r, 1). Block i of row k is scaled by
    nu_i / sqrt(d_i N_k), with nu_i = noises[i].nu and d_i = dims[i], so it is
    N(0, nu_i^2/(d_i N_k) I) with E||w||^2 = nu_i^2/N_k. Row k depends on
    (seed, r, k) and the models only, not on how many rows are drawn. The
    path ends in 1 because SeedSequence pads entropy with zeros: (seed, r)
    would give the stream of (seed, r, 0), which other draws may use.
    """
    z = substream(seed, replication, 1).standard_normal(
        (len(batches), sum(dims)))
    nu = np.repeat([nm.nu for nm in noises], dims)
    d = np.repeat(np.asarray(dims, dtype=float), dims)
    n_k = np.array([float(b) for b in batches])[:, None]
    return z * (nu / np.sqrt(d * n_k))
