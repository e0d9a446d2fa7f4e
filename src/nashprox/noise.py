"""Calibrated gradient noise and reproducible substreams.

A noise model represents the zero-mean observation error w of a stochastic
first-order oracle, calibrated so that E||w||^2 = nu^2 on its block. Batch
averages over N samples are drawn directly as a single Gaussian with second
moment nu^2/N, which matches the distribution of an empirical mean of N
independent draws and stays cheap when N is large.

Draws are addressed by a site path (for example (replication, iteration,
player)); the generator for a site depends only on (seed, path), never on
call order, so runs are bit-reproducible.

substream defines a site's generator: PCG64 seeded by numpy's SeedSequence
of (seed, *path). The solvers know every site of a replication before its
first iteration, so they seed them all in one vectorized pass (seed_states,
a transcription of SeedSequence's hash, O'Neill's seed_seq) and build each
site's generator from its four precomputed state words when it draws. The
draws are those of substream bit for bit.
"""

from __future__ import annotations

import functools
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


def _averaged(rng: np.random.Generator, nu: float, dim: int,
              batch: int) -> np.ndarray:
    return rng.standard_normal(dim) * (nu / math.sqrt(dim * batch))


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
        return _averaged(substream(self.seed, *path), self.nu, dim, batch)


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


def with_seed(noise: NoiseModel, seed: int) -> NoiseModel:
    """Same noise distribution re-keyed to another stream seed."""
    if isinstance(noise, ZeroNoise):
        return ZeroNoise(seed=int(seed))
    return GaussianNoise(nu=noise.nu, seed=int(seed))


# numpy's SeedSequence: a pool of four uint32 words, filled and mixed by
# multiply-xorshift hashes whose hash constant advances on every use.
_POOL = 4
_INIT_A, _MULT_A = 0x43b0d7e5, 0x931e8875
_INIT_B, _MULT_B = 0x8b51f9dd, 0x58f38ded
_MIX_L, _MIX_R = np.uint32(0xca01f9dd), np.uint32(0x4973f715)
_MASK = 0xFFFFFFFF
_SHIFT = np.uint32(16)


def _hash_chain(init: int, mult: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The (xor, multiply) constants of the first n hashes of one chain.

    A hash xors the value with the current constant, advances the constant
    by `mult` and multiplies by the new one. The chain does not depend on
    the values hashed, so it is computed once per batch.
    """
    consts = [init]
    for _ in range(n):
        consts.append(consts[-1] * mult & _MASK)
    consts = np.array(consts, dtype=np.uint32)
    return consts[:-1], consts[1:]


def _hash(value: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    value = (value ^ xor) * mul
    return value ^ (value >> _SHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = _MIX_L * x - _MIX_R * y
    return out ^ (out >> _SHIFT)


def seed_states(entropy: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """SeedSequence(e).generate_state(4, np.uint64) for many entropies at once.

    Row s of the uint32 array `entropy` holds the assembled entropy words
    of site s (each int of the entropy as little-endian 32-bit words, one
    zero word for 0) in its first lengths[s] columns and zeros after them.
    Returns the (sites, 4) uint64 state words, the seed of each site's
    PCG64. Every step of SeedSequence is one array operation over all
    sites, and over the pool words it updates independently.
    """
    # One row per entropy or pool word, one column per site.
    words = np.asarray(entropy, dtype=np.uint32).T
    width, sites = words.shape
    if width < _POOL:
        # SeedSequence hashes zeros into the pool slots past the entropy.
        words = np.vstack([words, np.zeros((_POOL - width, sites),
                                           dtype=np.uint32)])
        width = _POOL
    lengths = np.asarray(lengths)
    xor, mul = _hash_chain(_INIT_A, _MULT_A, _POOL * width)
    pool = _hash(words[:_POOL], xor[:_POOL, None], mul[:_POOL, None])
    used = _POOL
    # Every pool word mixes in the hash of every other one, in order.
    for src in range(_POOL):
        dst = [d for d in range(_POOL) if d != src]
        step = slice(used, used + _POOL - 1)
        pool[dst] = _mix(pool[dst], _hash(pool[src], xor[step, None],
                                          mul[step, None]))
        used += _POOL - 1
    # Entropy words past the pool size are mixed into every pool word.
    for src in range(_POOL, width):
        step = slice(used, used + _POOL)
        mixed = _mix(pool, _hash(words[src], xor[step, None], mul[step, None]))
        pool = np.where(lengths > src, mixed, pool)
        used += _POOL
    xor, mul = _hash_chain(_INIT_B, _MULT_B, 2 * _POOL)
    state = _hash(np.vstack([pool, pool]), xor[:, None], mul[:, None])
    state = state.astype(np.uint64)
    # generate_state pairs its uint32 words little-endian into uint64.
    pairs = state[0::2] | (state[1::2] << np.uint64(32))
    return np.ascontiguousarray(pairs.T)


def _int_words(n: int) -> list[int]:
    """n as SeedSequence coerces an int: little-endian 32-bit words."""
    if n < 0:
        raise ValueError(f"entropy must be >= 0, got {n}")
    words = [n & _MASK]
    while n > _MASK:
        n >>= 32
        words.append(n & _MASK)
    return words


def site_states(seed: int, replication: int,
                shape: tuple[int, ...]) -> np.ndarray:
    """State words of the sites (seed, replication, *index), every index
    of an array of `shape`, as a read-only shape + (4,) uint64 array."""
    n_sites = math.prod(shape)
    prefix = _int_words(int(seed)) + _int_words(int(replication))
    # Every index is one entropy word: a grid with an index past 2^32
    # would not fit in memory.
    entropy = np.empty((n_sites, len(prefix) + len(shape)), dtype=np.uint32)
    entropy[:, :len(prefix)] = prefix
    entropy[:, len(prefix):] = np.indices(shape).reshape(len(shape), n_sites).T
    words = seed_states(entropy, np.full(n_sites, entropy.shape[1]))
    words = words.reshape(shape + (4,))
    words.setflags(write=False)
    return words


@functools.cache
def _state_words() -> type:
    """The seed sequence type that hands PCG64 precomputed state words,
    built on first use: numpy.random is not imported with the package."""
    from numpy.random.bit_generator import ISeedSequence

    class StateWords(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError("precomputed state words only serve "
                                 "generate_state(4, np.uint64)")
            return self.words
    return StateWords


@dataclass(frozen=True, eq=False)
class SeededNoise:
    """GaussianNoise(nu, seed) on the pre-seeded draw sites of one
    replication.

    words[index] holds the state words of site (replication, *index), so
    averaged(dim, batch, (replication, *index)) equals the GaussianNoise
    draw bit for bit without hashing a SeedSequence. Other paths are
    rejected.
    """

    nu: float
    seed: int
    replication: int
    words: np.ndarray

    def averaged(self, dim: int, batch: int, path: tuple[int, ...]) -> np.ndarray:
        _check_batch(batch)
        if path[0] != self.replication or len(path) != self.words.ndim \
                or min(path) < 0:
            raise ValueError(f"draw site {tuple(path)} is not seeded for "
                             f"replication {self.replication}")
        rng = np.random.Generator(np.random.PCG64(
            _state_words()(self.words[tuple(path[1:])])))
        return _averaged(rng, self.nu, dim, batch)


def seeded(noise: NoiseModel | Sequence[NoiseModel], seed: int,
           replication: int, n_iter: int):
    """`noise` re-keyed to `seed` with one replication's sites seeded at once.

    A single model draws at the sites (replication, k), a sequence of
    per-player models at (replication, k, i), for k < n_iter. Gaussian
    models become SeededNoise sharing one read-only array of state words;
    ZeroNoise models are re-keyed as by with_seed. Draws equal those of
    with_seed(noise, seed) bit for bit.
    """
    single = isinstance(noise, (GaussianNoise, ZeroNoise))
    models = (noise,) if single else tuple(noise)
    words = None
    if any(isinstance(nm, GaussianNoise) for nm in models):
        words = site_states(seed, replication,
                            (n_iter,) if single else (n_iter, len(models)))
    out = tuple(SeededNoise(nm.nu, int(seed), replication, words)
                if isinstance(nm, GaussianNoise) else with_seed(nm, seed)
                for nm in models)
    return out[0] if single else out
