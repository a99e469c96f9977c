"""Counter-based random streams for reproducible parallel simulation.

Every path owns an independent splitmix64 stream:

    key(seed, i)     = mix64(seed + i * GOLDEN)        (per-path stream key)
    word(seed, i, j) = mix64(key(seed, i) + (j + 1) * GOLDEN)

where ``mix64`` is the splitmix64 finalizer and GOLDEN is 2^64 / golden
ratio.  Word j of path i is a pure function of (seed, i, j), so any block
of any path can be generated on any worker in any order and the result is
bit-identical to a sequential run.  Rademacher steps consume one bit per
step (64 steps per word, LSB first); generic symmetric noise consumes one
word per step.

All arithmetic is uint64 with wraparound, matching the reference C
implementation of splitmix64.
"""
from __future__ import annotations

import numpy as np

from .errors import DomainError

GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
# words mixed at a time: 128 KiB, so a block and its temporary stay in
# a core's L2 cache
MIX_BLOCK = 16384


def mix64(z: np.ndarray | int) -> np.ndarray:
    """splitmix64 finalizer, vectorized over uint64 arrays."""
    return _mix64_in_place(np.array(z, dtype=np.uint64))


def _mix64_in_place(z: np.ndarray) -> np.ndarray:
    """mix64 of a C-contiguous uint64 array, written over it.

    The array is mixed MIX_BLOCK words at a time, each shift going to
    one reused temporary, so a block stays in cache for all eight passes.
    """
    flat = z.reshape(-1)
    shifted = np.empty(min(MIX_BLOCK, flat.size), dtype=np.uint64)
    with np.errstate(over="ignore"):
        for start in range(0, flat.size, MIX_BLOCK):
            block = flat[start:start + MIX_BLOCK]
            tmp = shifted[:block.size]
            np.right_shift(block, 30, out=tmp)
            block ^= tmp
            block *= _MIX1
            np.right_shift(block, 27, out=tmp)
            block ^= tmp
            block *= _MIX2
            np.right_shift(block, 31, out=tmp)
            block ^= tmp
    return z


def check_seed(seed: int) -> None:
    """A seed is a uint64 stream key: one outside [0, 2^64) is a
    DomainError, not reduced, so that no two seeds draw the same paths."""
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    if seed >= 2 ** 64:
        raise DomainError("seed must be below 2^64")


def stream_words(seed: int, path_lo: int, path_hi: int,
                 word_lo: int, n_words: int) -> np.ndarray:
    """uint64 words (paths x n_words) for paths [path_lo, path_hi).

    Row p holds words word_lo .. word_lo+n_words-1 of path path_lo+p.
    """
    if path_hi <= path_lo or n_words <= 0:
        raise DomainError("empty stream request")
    check_seed(seed)
    idx = np.arange(path_lo, path_hi, dtype=np.uint64)
    with np.errstate(over="ignore"):
        keys = mix64(np.uint64(seed) + idx * GOLDEN)
        j = (np.arange(word_lo, word_lo + n_words, dtype=np.uint64)
             + np.uint64(1)) * GOLDEN
        return _mix64_in_place(keys[:, None] + j[None, :])


def rademacher_block(seed: int, path_lo: int, path_hi: int,
                     step_lo: int, n_steps: int) -> np.ndarray:
    """Signs in {-1, +1} (int8), one per step, for a block of paths.

    ``step_lo`` must be a multiple of 64 so blocks tile the bit stream.
    """
    if step_lo % 64:
        raise DomainError("step_lo must be word-aligned (multiple of 64)")
    n_words = (n_steps + 63) // 64
    words = stream_words(seed, path_lo, path_hi, step_lo // 64, n_words)
    bits = np.unpackbits(words.view(np.uint8), axis=1, bitorder="little")
    out = bits[:, :n_steps].astype(np.int8)
    out *= 2
    out -= 1
    return out


def uniform_symmetric_block(seed: int, path_lo: int, path_hi: int,
                            step_lo: int, n_steps: int):
    """(u, sign) per step: u uniform in [0, 1), sign in {-1, +1} (float64).

    One word per step; u comes from the top 53 bits, the sign from bit 0.
    """
    words = stream_words(seed, path_lo, path_hi, step_lo, n_steps)
    u = (words >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)
    sign = (words & np.uint64(1)).astype(np.float64) * 2.0 - 1.0
    return u, sign
