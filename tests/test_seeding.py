"""The batched seeding kernel against numpy's SeedSequence.

seed_states transcribes SeedSequence's hash into array operations over many
sites at once. Its state words must equal
SeedSequence(entropy).generate_state(4, np.uint64) for every entropy, and a
generator built from them must draw what substream draws, byte for byte.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nashprox import GaussianNoise, ZeroNoise, substream
from nashprox.noise import SeededNoise, seed_states, seeded, site_states


def _words(n: int) -> list[int]:
    """n as SeedSequence coerces an int: little-endian 32-bit words."""
    out = [n & 0xFFFFFFFF]
    while n >> 32:
        n >>= 32
        out.append(n & 0xFFFFFFFF)
    return out


def _rows(entropies):
    """Zero-padded assembled entropy words and their counts, one row per
    entropy tuple."""
    assembled = [[w for n in e for w in _words(n)] for e in entropies]
    width = max(len(a) for a in assembled)
    rows = np.zeros((len(assembled), width), dtype=np.uint32)
    for row, a in zip(rows, assembled):
        row[:len(a)] = a
    return rows, np.array([len(a) for a in assembled])


def _reference(entropy) -> np.ndarray:
    return np.random.SeedSequence(tuple(entropy)).generate_state(4, np.uint64)


def _assert_kernel(entropies):
    rows, lengths = _rows(entropies)
    got = seed_states(rows, lengths)
    assert got.dtype == np.uint64 and got.shape == (len(entropies), 4)
    for state, entropy in zip(got, entropies):
        assert np.array_equal(state, _reference(entropy)), entropy


# one word, zero, and two or more words (at and above 2^32)
component = (st.integers(0, 2 ** 32 - 1) | st.just(0)
             | st.integers(2 ** 32, 2 ** 160))
entropies = st.tuples(component, st.lists(component, min_size=1,
                                          max_size=4)).map(
    lambda t: (t[0],) + tuple(t[1]))


@settings(max_examples=300, deadline=None)
@given(st.lists(entropies, min_size=1, max_size=12))
def test_kernel_matches_seed_sequence_on_arbitrary_entropy(batch):
    _assert_kernel(batch)


def test_kernel_covers_short_pool_filling_and_long_extra_mixing_entropy():
    # 1 to 9 words in one batch: shorter than the four-word pool, exactly
    # the pool, and long enough to take SeedSequence's extra mixing loop
    _assert_kernel([(0,), (1, 2), (0, 0, 0), (5, 6, 7, 8), (2 ** 32, 3, 4),
                    (2 ** 64, 1, 2, 3), (2 ** 200, 0, 0, 1), (7, 0)])


@settings(max_examples=100, deadline=None)
@given(seed=component, replication=component,
       index=st.lists(st.integers(0, 4), max_size=3),
       nu=st.floats(0.0, 10.0), dim=st.integers(1, 6),
       batch=st.integers(1, 10 ** 6))
def test_site_draws_equal_substream_draws(seed, replication, index, nu, dim,
                                          batch):
    # paths (replication, *index) of length 1 to 4
    shape = tuple(i + 1 for i in index)
    words = site_states(seed, replication, shape)
    path = (replication, *index)
    assert words.shape == shape + (4,)
    assert not words.flags.writeable
    assert np.array_equal(words[tuple(index)], _reference((seed, *path)))
    got = SeededNoise(nu, seed, replication, words).averaged(dim, batch, path)
    want = substream(seed, *path).standard_normal(dim) * \
        (nu / math.sqrt(dim * batch))
    assert got.tobytes() == want.tobytes()
    assert got.tobytes() == GaussianNoise(nu, seed).averaged(
        dim, batch, path).tobytes()


def test_seeded_models_draw_what_the_rekeyed_models_draw():
    single = seeded(GaussianNoise(0.7, seed=3), 11, 2, 5)
    players = seeded((GaussianNoise(0.5), ZeroNoise(), GaussianNoise(2.0)),
                     2 ** 40, 1, 4)
    assert isinstance(single, SeededNoise) and single.seed == 11
    assert players[1] == ZeroNoise(seed=2 ** 40)
    for k in range(5):
        assert single.averaged(3, 9, (2, k)).tobytes() == \
            GaussianNoise(0.7, 11).averaged(3, 9, (2, k)).tobytes()
    for k in range(4):
        for i, nm in enumerate((GaussianNoise(0.5), ZeroNoise(),
                                GaussianNoise(2.0))):
            want = GaussianNoise(nm.nu, 2 ** 40).averaged(1, 4, (1, k, i)) \
                if isinstance(nm, GaussianNoise) else np.zeros(1)
            assert players[i].averaged(1, 4, (1, k, i)).tobytes() == \
                want.tobytes()
    assert seeded((ZeroNoise(),), 1, 0, 3) == (ZeroNoise(seed=1),)


@pytest.mark.parametrize("path", [(3, 0), (2, 0, 0), (2, -1), (2, 5)])
def test_unseeded_sites_are_rejected(path):
    noise = seeded(GaussianNoise(1.0), 7, 2, 5)
    with pytest.raises((ValueError, IndexError)):
        noise.averaged(2, 1, path)
    with pytest.raises(ValueError, match="batch size"):
        noise.averaged(2, 0, (2, 0))
