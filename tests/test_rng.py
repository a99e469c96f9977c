"""Tests for the counter-based noise streams."""

import numpy as np
import pytest

from lilbound import DomainError
from lilbound.rng import (
    mix64,
    rademacher_block,
    stream_words,
    uniform_symmetric_block,
)


def test_stream_words_deterministic_and_seed_sensitive():
    a = stream_words(1, 0, 4, 0, 8)
    b = stream_words(1, 0, 4, 0, 8)
    c = stream_words(2, 0, 4, 0, 8)
    assert a.shape == (4, 8)
    assert a.dtype == np.uint64
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_stream_words_slices_are_position_stable():
    # any (path, word) cell depends only on its coordinates, never on
    # how the enclosing block was chunked
    whole = stream_words(9, 0, 6, 0, 10)
    part = stream_words(9, 2, 5, 3, 4)
    assert np.array_equal(part, whole[2:5, 3:7])


def test_stream_words_rejects_seeds_outside_uint64():
    # a seed is not reduced mod 2^64, so seeds 2^64 apart cannot alias
    for seed in (-1, 2 ** 64, 2 ** 64 + 1):
        with pytest.raises(DomainError, match="seed"):
            stream_words(seed, 0, 2, 0, 4)
    top = stream_words(2 ** 64 - 1, 0, 2, 0, 4)
    assert top.shape == (2, 4)
    assert not np.array_equal(top, stream_words(0, 0, 2, 0, 4))


def test_mix64_avalanche_on_single_bit():
    x = mix64(np.uint64(0x123456789))
    y = mix64(np.uint64(0x123456788))
    flipped = bin(int(x) ^ int(y)).count("1")
    assert 16 <= flipped <= 48  # roughly half of 64 bits


def test_rademacher_block_values_and_chunk_stability():
    block = rademacher_block(3, 0, 100, 0, 128)
    assert block.dtype == np.int8
    assert set(np.unique(block)) == {-1, 1}
    # balanced to a few standard deviations (12800 draws)
    assert abs(int(block.astype(np.int64).sum())) < 500
    left = rademacher_block(3, 0, 100, 0, 64)
    right = rademacher_block(3, 0, 100, 64, 64)
    assert np.array_equal(np.concatenate([left, right], axis=1), block)


def test_rademacher_block_requires_word_aligned_offset():
    with pytest.raises(DomainError):
        rademacher_block(3, 0, 4, 7, 64)


def test_uniform_symmetric_block_ranges():
    u, sign = uniform_symmetric_block(5, 0, 200, 0, 64)
    assert u.shape == (200, 64)
    assert np.all(u >= 0.0) and np.all(u < 1.0)
    assert set(np.unique(sign)) <= {-1.0, 1.0}
    # signs are fair to a few standard deviations
    assert abs(float(sign.sum())) < 4.0 * np.sqrt(sign.size)
    assert abs(float(u.mean()) - 0.5) < 0.01
