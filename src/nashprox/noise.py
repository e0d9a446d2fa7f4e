"""Calibrated gradient noise and reproducible substreams.

A noise model represents the zero-mean observation error w of a stochastic
first-order oracle, calibrated so that E||w||^2 = nu^2 on its block. Batch
averages over N samples are drawn directly as a single Gaussian with second
moment nu^2/N, which matches the distribution of an empirical mean of N
independent draws and stays cheap when N is large.

Draws are addressed by a site path (for example (replication, iteration,
player)); the generator for a site depends only on (seed, path), never on
call order, so runs are bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np


def substream(seed: int, *path: int) -> np.random.Generator:
    """Generator for the draw site identified by (seed, *path)."""
    entropy = (int(seed),) + tuple(int(p) for p in path)
    return np.random.default_rng(np.random.SeedSequence(entropy))


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
        if batch < 1:
            raise ValueError(f"batch size must be >= 1, got {batch}")
        rng = substream(self.seed, *path)
        scale = self.nu / math.sqrt(dim * batch)
        return rng.standard_normal(dim) * scale


@dataclass(frozen=True)
class ZeroNoise:
    """Exact oracle; draws are identically zero."""

    seed: int = 0

    @property
    def nu(self) -> float:
        return 0.0

    def averaged(self, dim: int, batch: int, path: tuple[int, ...]) -> np.ndarray:
        if batch < 1:
            raise ValueError(f"batch size must be >= 1, got {batch}")
        return np.zeros(dim)


NoiseModel = Union[GaussianNoise, ZeroNoise]


def scaled_noise(noise: NoiseModel, factor: float) -> NoiseModel:
    """Same noise process with nu scaled by `factor` (same seed)."""
    if isinstance(noise, ZeroNoise):
        return noise
    return GaussianNoise(nu=noise.nu * factor, seed=noise.seed)


def with_seed(noise: NoiseModel, seed: int) -> NoiseModel:
    """Same noise distribution re-keyed to another stream seed."""
    if isinstance(noise, ZeroNoise):
        return ZeroNoise(seed=int(seed))
    return GaussianNoise(nu=noise.nu, seed=int(seed))
