"""Calibrated gradient noise and reproducible substreams.

A game's noise is a set of levels nu_i: the zero-mean observation error w
of player i's stochastic first-order oracle has E||w||^2 = nu_i^2 on its
block, and a batch average over N samples has E||w||^2 = nu_i^2 / N. The
solvers draw them with iteration_errors, from one stream per replication.

substream(seed, *path) is a PCG64 generator seeded by numpy's SeedSequence
of (seed, *path); it depends only on (seed, path), never on call order, so
runs are bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

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
        """Mean of `batch` iid N(0, nu^2/dim I) draws on a block of size
        `dim` from substream(*path), sampled in one shot."""
        if batch < 1:
            raise ValueError(f"batch size must be >= 1, got {batch}")
        return substream(*path).standard_normal(dim) * \
            (self.nu / math.sqrt(dim * batch))


# Rows each replication draws at once: a few iterations share a generator call.
DRAW_CHUNK = 4


def iteration_errors(nus: Sequence[float], dims: Sequence[int], seed: int,
                     replications: Sequence[int],
                     batches: Sequence[int]) -> Iterator[np.ndarray]:
    """Batch-averaged oracle errors of each iteration k < len(batches), one
    row per replication: replication r reads standard normals from
    substream(seed, r, 1), DRAW_CHUNK rows at a time. Block i of row k is
    scaled by nu_i / sqrt(d_i N_k), with nu_i = nus[i] and d_i = dims[i],
    so it is N(0, nu_i^2/(d_i N_k) I) with E||w||^2 = nu_i^2/N_k. Row k of
    replication r depends on (seed, r, k) and the levels only, not on how
    many rows or which other replications are drawn. The path ends in 1 as
    SeedSequence pads entropy with zeros: (seed, r) is (seed, r, 0).
    """
    nu = np.repeat(np.asarray(nus, dtype=float), dims)
    d = np.repeat(np.asarray(dims, dtype=float), dims)
    streams = [substream(seed, r, 1) for r in replications]
    for start in range(0, len(batches), DRAW_CHUNK):
        chunk = batches[start:start + DRAW_CHUNK]
        z = np.array([s.standard_normal((len(chunk), nu.size)) for s in streams])
        for j, n_k in enumerate(chunk):
            yield z[:, j] * (nu / np.sqrt(d * float(n_k)))
