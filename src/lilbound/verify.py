"""Monte Carlo and exhaustive verification of the sup-tail bound.

The estimators here answer one question from the other side of the fence:
given a concrete martingale family, how large is

    W(u)  = P( max_n S(n) / (sigma(n) v(n)) > u ),
    W+(u) = P( max_n |S(n)| / (sigma(n) v(n)) > u ),

with the max truncated at a stated horizon N?  empirical_sup_tail samples
paths with the counter-based generator so results are bit-identical for a
fixed seed no matter how many workers run.  It only counts maxima past
levels u >= min(grid), so it asks for maxima raised to that level, which
the sign-chaos kernel gets while evaluating few steps exactly.  Models
dispatch on sign_sum_degree alone.  One with a degree (sign chaos, d <=
3) is simulated from the words of the sign stream, in tiles of paths x
words: popcounts give the sign sum at every word boundary, a walk from b
to e over L steps stays in [(b + e - L)/2, (b + e + L)/2], and that one
rule bounds it over each byte, word and group of 16 words.  Only the
bytes that can move a path's running max or min are evaluated, step by
step, with the arithmetic of prefix_values.
exact_sup_tail counts its 2^N sign paths by a dynamic program over the
sign-sum lattice; every other model goes through prefix_values, on a
reused value tile or by enumeration.  Exact tails are rationals, for
small horizons.
single_time_tail gives the single-time floor: exact integer binomial
sums up to time FLOOR_MAX_TIME, rounded toward zero, so verify imports
no scipy.  On top of those sit the calibration of the bound's constant,
an enumeration check of the Doob maximal-moment step, and
iterated-logarithm trajectory statistics.

Normalization matches the bound engine: model time n pairs with norming
index n - n_min + 1, so the first non-degenerate time gets v(1) and the
empirical tail and the block-sum bound divide by identical arrays.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Optional, Sequence, Tuple

import numpy as np

from .engine import DEFAULT_TOL, NormingSequence, optimized_bound
from .errors import CalibrationError, DomainError
from .models import MartingaleModel, _chaos_closed_form, chaos_model
from .rng import stream_words

# 99% two-sided normal quantile, frozen so intervals never drift with scipy
_Z99 = 2.5758293035489004

# a path chunk of the weighted models reuses one float64 value tile of
# PATH_CHUNK x STEP_BLOCK (4 MiB) for all its step blocks.  The sign
# kernel reads stream words in tiles of PATH_CHUNK paths x TILE_WORDS
# words (8192 steps, 512 KiB a word array) and tests them in groups of
# GROUP_WORDS words.  On one core of a 2-core Xeon it ran 2^15 chaos
# paths x 2^14 steps in 0.31-0.37 s, where the blocks of 512 x 1024
# steps it replaced took 0.64-0.69 s
PATH_CHUNK = 512
STEP_BLOCK = 1024
TILE_WORDS = 128
GROUP_WORDS = 16
CENSOR_COUNT = 10
ENUM_MAX_HORIZON = 20
ENUM_BLOCK = 1 << 16  # sign paths per enumerated block
# the exact single-time floor walks n0/2 bigints of up to n0 bits: 0.7 s
# at 2^16 and 2.7 s at 2^17 on a 2-core Xeon, four times that per doubling
FLOOR_MAX_TIME = 1 << 17


def worker_count() -> int:
    """Worker cap from LILBOUND_THREADS; 0 or unset means one per CPU
    this process may run on.

    The CPU affinity mask counts those; os.cpu_count() counts the host's,
    too many in a pinned container, and serves only where the platform
    has no affinity call.
    """
    raw = os.environ.get("LILBOUND_THREADS", "0")
    try:
        k = int(raw)
    except ValueError:
        raise DomainError(f"LILBOUND_THREADS must be an integer, got {raw!r}")
    if k < 0:
        raise DomainError(f"LILBOUND_THREADS must be >= 0, got {k}")
    if k > 0:
        return k
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def wilson_interval(count: int, total: int) -> Tuple[float, float]:
    """99% Wilson score interval for a binomial proportion.

    Behaves sanely at zero counts, which is exactly where the tails live;
    a Wald interval would collapse to a point there.
    """
    if not 0 <= count <= total or total <= 0:
        raise DomainError(f"need 0 <= count <= total, got {count}/{total}")
    p = count / total
    z2 = _Z99 * _Z99 / total
    denom = 1.0 + z2
    center = (p + z2 / 2.0) / denom
    half = _Z99 * math.sqrt(p * (1.0 - p) / total + z2 / (4.0 * total)) / denom
    # the exact interval always contains p; rounding in half can lose
    # that by one ulp at the extreme counts, so clamp through p
    return min(max(center - half, 0.0), p), max(min(center + half, 1.0), p)


# ---------------------------------------------------------------------------
# result containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TailEstimate:
    """Empirical sup-tail probabilities with 99% Wilson intervals.

    Counts are integers so two runs with the same (config, seed) compare
    bit-for-bit.  A grid point is censored when fewer than CENSOR_COUNT
    paths exceed it; censored cells are reported but never trusted for
    calibration.
    """
    u_grid: Tuple[float, ...]
    w_hat: Tuple[float, ...]
    w_plus_hat: Tuple[float, ...]
    ci_low: Tuple[float, ...]
    ci_high: Tuple[float, ...]
    counts: Tuple[int, ...]
    counts_plus: Tuple[int, ...]
    censored: Tuple[bool, ...]
    horizon: int
    paths: int
    seed: int
    model_label: str
    norming_label: str

    def to_dict(self) -> dict:
        return {
            "u": list(self.u_grid),
            "w_hat": list(self.w_hat),
            "w_plus_hat": list(self.w_plus_hat),
            "ci_low": list(self.ci_low),
            "ci_high": list(self.ci_high),
            "counts": list(self.counts),
            "counts_plus": list(self.counts_plus),
            "censored": list(self.censored),
            "horizon": self.horizon,
            "paths": self.paths,
            "seed": self.seed,
            "model": self.model_label,
            "norming": self.norming_label,
        }


@dataclass(frozen=True)
class ExactTail:
    """Exact sup-tail probabilities from full sign-path enumeration."""
    u_grid: Tuple[float, ...]
    w: Tuple[Fraction, ...]
    w_plus: Tuple[Fraction, ...]
    horizon: int
    model_label: str
    norming_label: str

    def to_dict(self) -> dict:
        return {
            "u": list(self.u_grid),
            "w_hat": [float(f) for f in self.w],
            "w_plus_hat": [float(f) for f in self.w_plus],
            "w_fraction": [f"{f.numerator}/{f.denominator}" for f in self.w],
            "w_plus_fraction": [f"{f.numerator}/{f.denominator}"
                                for f in self.w_plus],
            "horizon": self.horizon,
            "model": self.model_label,
            "norming": self.norming_label,
        }


@dataclass(frozen=True)
class CalibrationResult:
    """Largest constant whose rescaled bound still dominates the tail CI."""
    c_hat: float
    u_grid: Tuple[float, ...]
    margin: float
    bound_values: Tuple[float, ...]
    capped: bool

    def to_dict(self) -> dict:
        return {
            "c_hat": self.c_hat,
            "u": list(self.u_grid),
            "margin": self.margin,
            "bound_at_c_hat": list(self.bound_values),
            "capped": self.capped,
        }


@dataclass(frozen=True)
class DoobReport:
    """Enumerated maximal-moment ratio against the p/(p-1) power limit."""
    horizon: int
    model_label: str
    p: float
    ratio: float
    limit: float
    passed: bool
    max_moment: float
    final_moment: float


@dataclass(frozen=True)
class TrajectoryStats:
    """Per-path running maxima of S(n)/(n loglog(n+3))^(d/2), summarized."""
    degree: int
    horizon: int
    paths: int
    seed: int
    median: float
    q25: float
    q75: float
    positive_fraction: float
    reference: float


# ---------------------------------------------------------------------------
# simulation core
# ---------------------------------------------------------------------------

def _normalizer(model: MartingaleModel, v: NormingSequence,
                horizon: int) -> Tuple[np.ndarray, int]:
    """Denominator over model times 1..horizon plus the first valid step.

    denominator[i] = sigma(n) * v(n - n_min + 1) at n = i + 1, with 1.0
    placeholders on the degenerate prefix n < n_min; the returned offset
    is the 0-based step index where the statistic becomes defined, so
    callers slice columns rather than mask them.
    """
    first = model.n_min - 1
    n = np.arange(model.n_min, horizon + 1, dtype=float)
    denom = np.ones(horizon)
    sig = model.sigma_exact(n)
    if not np.all(np.isfinite(sig)) or np.any(sig <= 0):
        raise DomainError(
            f"sigma of {model.label} degenerates inside [{model.n_min}, "
            f"{horizon}]")
    vv = np.asarray(v.evaluate(n - first), dtype=float)
    if not np.all(np.isfinite(vv)) or np.any(vv <= 0):
        raise DomainError(f"norming {v.label} is not positive over the "
                          f"requested horizon {horizon}")
    denom[first:] = sig * vv
    return denom, first


def _chunk_maxima(model: MartingaleModel, denom: np.ndarray, first: int,
                  horizon: int, seed: int, path_lo: int, path_hi: int,
                  u_min: float = -math.inf
                  ) -> Tuple[np.ndarray, np.ndarray]:
    """Signed and absolute running maxima for paths [path_lo, path_hi),
    raised to u_min: max(max, u_min) and max(max |.|, u_min), bit for bit.

    A test "> u" with u >= u_min cannot tell these from the true maxima,
    and they let the sign-chaos kernel skip every byte of steps that
    cannot move them.  A model with a sign_sum_degree goes to that
    kernel.  Other models reuse one float64 tile of (paths x STEP_BLOCK)
    values for every step block: prefix_values writes into it and the
    divide, max and min run in place on it, so a block allocates
    nothing of its size but its noise.  Their float64 sums depend on
    the order of addition, so they keep the one-step-at-a-time cumsum.
    The absolute max comes from the signed max and min.
    """
    if model.sign_sum_degree:
        best, worst = _sign_chaos_extrema(model.sign_sum_degree, denom,
                                          first, horizon, seed, path_lo,
                                          path_hi, u_min)
        return best, np.maximum(best, -worst)
    n_paths = path_hi - path_lo
    best = np.full(n_paths, u_min, dtype=float)
    worst = -best
    tile = np.empty((n_paths, min(STEP_BLOCK, horizon)))
    state = None
    for s0 in range(0, horizon, STEP_BLOCK):
        ns = min(STEP_BLOCK, horizon - s0)
        noise = model.noise_block(seed, path_lo, path_hi, s0, ns)
        values, state = model.prefix_values(noise, state, out=tile[:, :ns])
        c0 = max(0, first - s0)
        if c0 >= ns:
            continue
        stat = values[:, c0:]
        stat /= denom[s0 + c0:s0 + ns]
        np.maximum(best, stat.max(axis=1), out=best)
        np.minimum(worst, stat.min(axis=1), out=worst)
    return best, np.maximum(best, -worst)


def _numerator_bounds(d: int, top: np.ndarray, n0: np.ndarray, width,
                      times=None) -> Tuple[np.ndarray, np.ndarray]:
    """Upper and lower bounds on the integer numerator N of S_d = N / (1,
    2, 6)[d-1] over a box: sign sums P1 in [top - width, top], times n
    in [n0, n0 + times - 1], times being width unless given.  int64 in,
    int64 out; width and times may be arrays.

    N_1 = P1.  N_2 = P1^2 - n: the largest |P1| of the range at n0
    above, the smallest (0 if the range holds 0) at the last time
    below.  N_3 = P1 (P1^2 - 3n + 2) is linear in n, so its max over
    the times is taken at n0 for P1 >= 0 and at the last time (3 (times
    - 1) |P1| more) for P1 < 0; over P1 it is taken at an end of the
    range or at the local max -sqrt(n - 2/3), worth 2 (n - 2/3)^(3/2) <=
    2 r^3 with r = isqrt(last time) + 1.  N_3 is odd in P1, so its min
    over the box is minus its max over [-top, width - top].
    """
    bottom = top - width
    if d == 1:
        return top, bottom
    last = n0 + ((width if times is None else times) - 1)
    if d == 2:
        high = np.maximum(np.abs(top), np.abs(bottom))
        high *= high
        high -= n0
        low = np.maximum(bottom, -top)
        np.maximum(low, 0, out=low)
        low *= low
        low -= last
        return high, low
    root_lo = np.sqrt(n0).astype(np.int64) - 1
    root_hi = np.sqrt(last).astype(np.int64) + 1
    local_max = 2 * root_hi ** 3
    slope = 3 * (last - n0)

    def cubic_max(lo, hi):
        out = None
        for p in (lo, hi):
            value = p * p
            value -= 3 * n0 - 2
            value *= p
            value -= slope * np.minimum(p, 0)
            out = value if out is None else np.maximum(out, value, out=out)
        inside = (lo <= -root_lo) & (hi >= -root_hi)
        np.maximum(out, local_max, out=out, where=inside)
        return out

    return cubic_max(bottom, top), -cubic_max(-top, -bottom)


def _may_move(d: int, upper: np.ndarray, lower: np.ndarray, lo: np.ndarray,
              hi: np.ndarray, best: np.ndarray, worst: np.ndarray
              ) -> np.ndarray:
    """Where a run of steps with numerator bounds [lower, upper] and
    denominators in [lo, hi] may raise best or lower worst.

    A step's value is fl(fl(N) / scale) / denom, the operations of
    prefix_values, and correctly rounded arithmetic is monotone: the
    value is nondecreasing in N, and in denom it falls for N >= 0 and
    rises for N < 0.  So the same operations on upper, over lo or hi
    whichever gives more, bound every value from above, exactly, and on
    lower, over whichever gives less, from below; a test over both
    denominators asks the same.  A value equal to best or worst moves
    neither.
    """
    scale = (1.0, 2.0, 6.0)[d - 1]
    top = np.divide(upper, scale)
    alive = np.divide(top, lo) > best
    alive |= np.divide(top, hi) > best
    bottom = np.divide(lower, scale)
    alive |= np.divide(bottom, lo) < worst
    alive |= np.divide(bottom, hi) < worst
    return alive


# a multiply by _BYTE_PREFIX sums bytes 0..q of a uint64 word into byte q
_BYTE_PREFIX = np.uint64(0x0101010101010101)
# _GAINS[j, b]: the sign sum of bits 0..j of byte value b (bit j, step j)
_GAINS = np.cumsum(2 * np.unpackbits(np.arange(256, dtype=np.uint8)[:, None],
                                     axis=1, bitorder="little").T
                   .astype(np.int64) - 1, axis=0)
_GAINS_FLOAT = _GAINS.astype(float)
_PLANES = np.arange(8, dtype=np.int64)[:, None]
# words, and bytes, taken at a time by the word and the byte stage, so
# that their temporaries stay at 64 KiB; the byte stage's two (8 x
# bytes) planes, reused from slice to slice, take 512 KiB each
SLICE = 8192


def _byte_extrema(d: int, byte: np.ndarray, before: np.ndarray,
                  k: np.ndarray, per_plane: np.ndarray, ints: np.ndarray,
                  floats: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Max and min of the statistic over the steps of bytes k of the sign
    stream, given their bits and P1 before each; per_plane[j, k] is
    denom at step 8k + j, NaN at the steps outside [first, horizon).

    All eight steps of every byte at once, as (8 x bytes) planes: P1 at
    step 8k+j is before + _GAINS[j, byte], the closed form runs on it in
    int64, and the quotient by denom is taken once, as in prefix_values.
    The planes are written into the int64 and float64 buffers ints and
    floats, reused from call to call.
    """
    size = 8 * byte.size
    value = floats[:size].reshape(8, -1)
    if d == 1:  # float64 holds P1 exactly
        p1 = np.take(_GAINS_FLOAT, byte, axis=1,
                     out=ints.view(float)[:size].reshape(8, -1))
        p1 += before.astype(float)
    else:
        p1 = np.take(_GAINS, byte, axis=1, out=ints[:size].reshape(8, -1))
        p1 += before
        n = np.add(_PLANES, 8 * k + 1, out=value.view(np.int64))
        p1 = _chaos_closed_form(d, p1, n, out=p1.view(float))
    np.take(per_plane, k, axis=1, out=value, mode="clip")
    np.divide(p1, value, out=value)
    # a step outside [first, horizon) has a NaN denominator, which fmax
    # and fmin pass over
    return np.fmax.reduce(value, axis=0), np.fmin.reduce(value, axis=0)


def _byte_stage(d: int, bits: np.ndarray, w: np.ndarray, path: np.ndarray,
                before: np.ndarray, lo_den: np.ndarray, hi_den: np.ndarray,
                per_plane: np.ndarray, horizon: int, best: np.ndarray,
                worst: np.ndarray, planes: Tuple[np.ndarray, np.ndarray]
                ) -> None:
    """Raise best[path] and lower worst[path] by the bytes of stream
    words w of those paths that pass the byte test, given each word's
    bits and P1 before it; planes are _byte_extrema's buffers.

    SLICE bytes at a time, laid out as (bytes x words) so that the
    tests run along the words.  From per-byte popcounts, the top of byte
    q (P1 if its ones came first) is P1 before the word + 2 (ones in
    bytes 0..q) - (ones in byte q) - 8q, the byte arithmetic of a
    multiply by _BYTE_PREFIX being borrow-free.  A horizon inside the
    first word leaves no byte past it, and one inside a later word is
    masked by time.
    """
    nq = min(8, per_plane.shape[1])
    q8 = 8 * np.arange(nq)[:, None]
    step = SLICE // nq
    for start in range(0, w.size, step):
        part = slice(start, start + step)
        word_bits = bits[part]
        ones = np.bitwise_count(word_bits.view(np.uint8)).view(np.uint64)
        top = ones * _BYTE_PREFIX
        top <<= 1
        top -= ones
        top = top.view(np.uint8).reshape(-1, 8).T[:nq].astype(np.int64,
                                                                order="C")
        top -= q8
        top += before[part]
        at_w = w[part]
        n0 = (64 * at_w + 1) + q8
        upper, lower = _numerator_bounds(d, top, n0, 8)
        rows = path[part]
        alive = _may_move(d, upper, lower, lo_den[at_w], hi_den[at_w],
                          best[rows], worst[rows])
        if horizon % 64:  # bytes past the horizon
            alive &= n0 <= horizon
        at = np.flatnonzero(alive)
        if not at.size:
            continue
        q, word = np.divmod(at, at_w.size)
        byte = word_bits.view(np.uint8).reshape(-1, 8)[word, q]
        p1 = top.reshape(-1)[at]
        p1 -= ones.view(np.uint8).reshape(-1, 8)[word, q]
        high, low = _byte_extrema(d, byte, p1, 8 * at_w[word] + q, per_plane,
                                  *planes)
        np.maximum.at(best, rows[word], high)
        np.minimum.at(worst, rows[word], low)


def _sign_chaos_extrema(d: int, denom: np.ndarray, first: int, horizon: int,
                        seed: int, path_lo: int, path_hi: int, u_min: float
                        ) -> Tuple[np.ndarray, np.ndarray]:
    """max(max, u_min) and min(min, -u_min) of degree-d sign chaos (d <=
    3) over steps [first, horizon) for paths [path_lo, path_hi), from
    the bits of the stream.

    Byte k of a path's stream words holds steps 8k .. 8k+7, bit j being
    step 8k+j: the draws of rademacher_block.  The words come in tiles
    of PATH_CHUNK paths x TILE_WORDS words (more paths of fewer words
    when the horizon is shorter), as stream_words lays them out, and one
    set of buffers serves every tile.  Popcounts give the ones in each
    word, and a cumsum along the words the sign sum P1 at every word
    boundary, carried from tile to tile; the exact values at word ends
    raise the running max and lower the running min.  Then the work
    narrows three times, each level going on only where _may_move finds
    that its _numerator_bounds can beat the running max or min; no
    other step can move either.  All three bound P1 by one rule: over
    L steps from P1 = b to P1 = e, P1 stays in [(b + e - L)/2,
    (b + e + L)/2].  A word's range comes from its pair sum b + e (even,
    so the halving is exact), a group's of GROUP_WORDS words is the
    union of its words', and a byte's top is P1 before it plus its ones
    (L = 8).  _byte_extrema evaluates the bytes that pass exactly.  A
    tile of one word goes straight to the byte test, which prunes all
    the other two would.
    """
    n_paths = path_hi - path_lo
    n_words = -(-horizon // 64)
    word_starts = np.arange(0, horizon, 64)
    lo_den = np.minimum.reduceat(denom, word_starts)
    hi_den = np.maximum.reduceat(denom, word_starts)
    # groups of GROUP_WORDS words: first time, times, denominator range
    group_starts = np.arange(0, n_words, GROUP_WORDS)
    group_n0 = 64 * group_starts + 1
    group_times = 64 * (np.minimum(group_starts + GROUP_WORDS, n_words)
                        - group_starts)
    group_lo = np.minimum.reduceat(lo_den, group_starts)
    group_hi = np.maximum.reduceat(hi_den, group_starts)
    # per_plane[j, k] = denom at step 8k + j, NaN outside [first, horizon)
    n_bytes = -(-horizon // 8)
    per_plane = np.full(8 * n_bytes, np.nan)
    per_plane[first:horizon] = denom[first:]
    per_plane = per_plane.reshape(n_bytes, 8).T.copy()
    best = np.full(n_paths, u_min, dtype=float)
    worst = -best
    tile_paths = min(n_paths, PATH_CHUNK * max(1, TILE_WORDS // n_words))
    size = tile_paths * min(TILE_WORDS, n_words)
    edges = np.empty(size + tile_paths, dtype=np.int64)
    pairs = np.empty(size, dtype=np.int64)
    # the byte planes; the float one holds the word-end values first
    plane_size = 8 * min(SLICE, 8 * size)
    planes = (np.empty(plane_size, dtype=np.int64),
              np.empty(max(plane_size, size)))

    for t0 in range(0, n_paths, tile_paths):
        # the tile's paths: their maxima and minima, P1 before each tile
        high, low = best[t0:t0 + tile_paths], worst[t0:t0 + tile_paths]
        n = high.size
        carry = np.zeros(n, dtype=np.int64)
        for w0 in range(0, n_words, TILE_WORDS):
            nw = min(TILE_WORDS, n_words - w0)
            words = stream_words(seed, path_lo + t0, path_lo + t0 + n, w0,
                                 nw)
            # edge[:, w]: P1 before word w0 + w, for w = 0 .. nw
            edge = edges[:n * (nw + 1)].reshape(n, nw + 1)
            edge[:, 0] = carry
            gain = np.bitwise_count(words).view(np.int8)
            gain -= 32
            np.multiply(gain, 2, out=edge[:, 1:])  # 2 (ones) - 64
            # one cumsum along the tile's rows, each row then less the
            # sum of the rows before it
            np.cumsum(edge.reshape(-1), out=edge.reshape(-1))
            edge[1:] -= edge[:-1, nw:].copy()
            carry[:] = edge[:, nw]
            full = min(nw, horizon // 64 - w0)
            if full > 0:  # the exact values at word ends inside the horizon
                n_end = 64 * np.arange(w0 + 1, w0 + full + 1)
                value = planes[1][:n * full].reshape(n, full)
                if d == 1:
                    np.divide(edge[:, 1:full + 1], denom[n_end - 1],
                              out=value)
                else:
                    sums = value.view(np.int64)
                    np.copyto(sums, edge[:, 1:full + 1])
                    _chaos_closed_form(d, sums, n_end, out=value)
                    value /= denom[n_end - 1]
                np.maximum(high, value.max(axis=1), out=high)
                np.minimum(low, value.min(axis=1), out=low)
            if nw == 1:  # the byte test is the finest of the three
                _byte_stage(d, words.reshape(-1), np.broadcast_to(w0, n),
                            np.arange(n), edge[:, 0], lo_den, hi_den,
                            per_plane, horizon, high, low, planes)
                continue
            # pair[:, w] = b + e, the boundary sums around word w0 + w
            pair = pairs[:n * nw].reshape(n, nw)
            np.add(edge[:, :nw], edge[:, 1:], out=pair)
            # the group test: the union of its words' ranges, at the
            # group's lowest and highest denominators
            group = np.arange(0, nw, GROUP_WORDS)
            top = np.maximum.reduceat(pair, group, axis=1)
            width = (top - np.minimum.reduceat(pair, group, axis=1)) // 2 + 64
            top = (top + 64) // 2
            g = slice(w0 // GROUP_WORDS, w0 // GROUP_WORDS + group.size)
            upper, lower = _numerator_bounds(d, top, group_n0[g], width,
                                             group_times[g])
            alive = _may_move(d, upper, lower, group_lo[g], group_hi[g],
                              high[:, None], low[:, None])
            # the words of surviving groups, SLICE at a time
            groups = np.flatnonzero(alive)
            span = min(GROUP_WORDS, nw)
            for start in range(0, groups.size, SLICE // span):
                path, w = np.divmod(groups[start:start + SLICE // span],
                                    group.size)
                w = ((GROUP_WORDS * w)[:, None] + np.arange(span)).reshape(-1)
                inside = w < nw  # a ragged last group is short
                w, path = w[inside], np.repeat(path, span)[inside]
                # the word test, on the word's own range
                at = path * nw + w
                before = edge.reshape(-1)[at + path]  # rows of nw + 1
                top = (pair.reshape(-1)[at] + 64) // 2
                bits = words.reshape(-1)[at]
                w += w0
                upper, lower = _numerator_bounds(d, top, 64 * w + 1, 64)
                hit = np.flatnonzero(_may_move(d, upper, lower, lo_den[w],
                                               hi_den[w], high[path],
                                               low[path]))
                _byte_stage(d, bits[hit], w[hit], path[hit], before[hit],
                            lo_den, hi_den, per_plane, horizon, high, low,
                            planes)
    return best, worst


def _over_path_chunks(model: MartingaleModel, denom: np.ndarray, first: int,
                      horizon: int, seed: int, n_paths: int,
                      u_min: float = -math.inf
                      ) -> Tuple[np.ndarray, np.ndarray]:
    """Signed and absolute running maxima of paths [0, n_paths), raised
    to u_min as _chunk_maxima raises them (exact at the default -inf).

    Runs _chunk_maxima over spans of paths, threaded when it pays off.
    The weighted models get spans of PATH_CHUNK paths (more when the
    horizon is shorter than a step block).  The sign kernel tiles its
    span itself, with one set of buffers for all of it, so it gets one
    span per worker; on a horizon of a step block or more, one worker:
    its vector operations are too short to overlap under the GIL (on
    two cores of a Xeon, 2^15 paths x 2^14 steps took 0.34-0.35 s on
    two threads and 0.31-0.33 s on one, and the CLI's peak RSS rose from
    39 to 43 MB).  Each span's paths depend only on (seed, path index) and
    land in their own slice of the outputs, so the result is identical
    for any worker count.
    """
    signed = np.empty(n_paths)
    absed = np.empty(n_paths)

    def run(span):
        lo, hi = span
        signed[lo:hi], absed[lo:hi] = _chunk_maxima(
            model, denom, first, horizon, seed, lo, hi, u_min)

    # a tile holds PATH_CHUNK x STEP_BLOCK values at most; a horizon
    # shorter than one block gets proportionally more paths per chunk,
    # so short runs are not made of chunks too small to pay their way
    chunk = PATH_CHUNK * (STEP_BLOCK // min(horizon, STEP_BLOCK))
    workers = worker_count()
    if model.sign_sum_degree:
        if horizon >= STEP_BLOCK:
            workers = 1
        chunk = -(-n_paths // workers)
    spans = [(lo, min(lo + chunk, n_paths))
             for lo in range(0, n_paths, chunk)]
    workers = min(workers, len(spans))
    if workers <= 1:
        for span in spans:
            run(span)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run, spans))
    return signed, absed


def empirical_sup_tail(model: MartingaleModel, v: NormingSequence,
                       horizon: int, n_paths: int,
                       u_grid: Sequence[float], seed: int) -> TailEstimate:
    """Monte Carlo estimate of the truncated sup-tail probabilities.

    The sup runs over n in [n_min, horizon] only; with a growing norming
    the truncation biases the estimate low by a vanishing amount, and the
    horizon is carried in the result rather than corrected for.
    """
    if n_paths < 1000:
        raise DomainError(f"need at least 1000 paths, got {n_paths}")
    if horizon < model.n_min:
        raise DomainError(
            f"horizon {horizon} precedes first non-degenerate time "
            f"{model.n_min}")
    grid = [float(u) for u in u_grid]
    if not grid or not all(math.isfinite(u) for u in grid):
        raise DomainError("u grid must be nonempty and finite")
    denom, first = _normalizer(model, v, horizon)
    # no count at a level u >= min(grid) can tell the true maxima from
    # maxima raised to min(grid), which spare the kernel most of its work
    signed, absed = _over_path_chunks(model, denom, first, horizon, seed,
                                      n_paths, min(grid))
    counts = tuple(int(np.count_nonzero(signed > u)) for u in grid)
    counts_plus = tuple(int(np.count_nonzero(absed > u)) for u in grid)
    intervals = [wilson_interval(c, n_paths) for c in counts]
    return TailEstimate(
        u_grid=tuple(grid),
        w_hat=tuple(c / n_paths for c in counts),
        w_plus_hat=tuple(c / n_paths for c in counts_plus),
        ci_low=tuple(lo for lo, _ in intervals),
        ci_high=tuple(hi for _, hi in intervals),
        counts=counts,
        counts_plus=counts_plus,
        censored=tuple(c < CENSOR_COUNT for c in counts),
        horizon=horizon,
        paths=n_paths,
        seed=seed,
        model_label=model.label,
        norming_label=v.label,
    )


# ---------------------------------------------------------------------------
# exhaustive small-horizon oracles
# ---------------------------------------------------------------------------

def _sign_matrix(lo: int, hi: int, horizon: int) -> np.ndarray:
    """Rows lo..hi-1 of the 2^horizon x horizon matrix of sign paths."""
    idx = np.arange(lo, hi, dtype=np.uint64)
    bits = (idx[:, None] >> np.arange(horizon, dtype=np.uint64)) & np.uint64(1)
    return (2 * bits.astype(np.int8) - 1)


def _sign_path_values(model: MartingaleModel, horizon: int):
    """prefix_values of all 2^horizon sign paths, ENUM_BLOCK paths at a
    time, in path order."""
    total = 1 << horizon
    for lo in range(0, total, ENUM_BLOCK):
        eps = _sign_matrix(lo, min(lo + ENUM_BLOCK, total), horizon)
        yield model.prefix_values(eps)[0]


def _lattice_sup_counts(d: int, denom: np.ndarray, first: int, horizon: int,
                        grid: Sequence[float]
                        ) -> Tuple[np.ndarray, np.ndarray]:
    """Sign paths of length horizon whose W and W+ statistics pass each level.

    Degree-d sign chaos (d <= 3) at time n is a function of the number k
    of plus signs so far (P1 = 2k - n), so paths that have not yet passed
    a level can be counted per k: alive[k] <- alive[k] + alive[k-1] per
    step.  From n_min on, the states where the enumeration's own float
    test fires (the closed form over denom[n-1], compared with > u, and
    for W+ also its negation) are zeroed, and each such path stands for
    its 2^(horizon - n) continuations.  Counts are at most 2^horizon, so
    int64 holds them exactly.
    """
    u = np.asarray(grid, dtype=float)[:, None]
    # axis 0: W, then W+; axis 1: level; axis 2: k
    alive = np.zeros((2, len(grid), horizon + 1), dtype=np.int64)
    alive[..., 0] = 1
    hits = np.zeros((2, len(grid)), dtype=np.int64)
    for n in range(1, horizon + 1):
        alive[..., 1:n + 1] += alive[..., :n].copy()
        if n - 1 < first:
            continue
        p1 = np.arange(-n, n + 1, 2, dtype=np.int64)
        stat = _chaos_closed_form(d, p1, n) / denom[n - 1]
        over = stat > u
        fired = np.stack([over, over | (-stat > u)])
        live = alive[..., :n + 1]
        hits += np.where(fired, live, 0).sum(axis=-1) << (horizon - n)
        live[fired] = 0
    return hits[0], hits[1]


def _enumerated_sup_counts(model: MartingaleModel, denom: np.ndarray,
                           first: int, horizon: int, grid: Sequence[float]
                           ) -> Tuple[np.ndarray, np.ndarray]:
    """Sign paths of length horizon whose W and W+ statistics pass each
    level, by simulating all 2^horizon of them block by block."""
    counts = np.zeros(len(grid), dtype=np.int64)
    counts_plus = np.zeros(len(grid), dtype=np.int64)
    for values in _sign_path_values(model, horizon):
        stat = values[:, first:] / denom[first:]
        signed = stat.max(axis=1)
        absed = np.maximum(signed, -stat.min(axis=1))
        for i, u in enumerate(grid):
            counts[i] += np.count_nonzero(signed > u)
            counts_plus[i] += np.count_nonzero(absed > u)
    return counts, counts_plus


def exact_sup_tail(model: MartingaleModel, v: NormingSequence, horizon: int,
                   u_grid: Sequence[float]) -> ExactTail:
    """Exact truncated sup-tail over every sign path.

    Only meaningful for sign noise.  A model with a sign_sum_degree is
    counted by a dynamic program over the sign-sum lattice (O(horizon^2)
    per level); other models enumerate all 2^horizon paths.  Either way
    the horizon is capped at ENUM_MAX_HORIZON, and the counts are those
    of the per-path float test.  Probabilities come back as exact fractions
    with denominator 2^horizon.
    """
    if model.noise_kind != "rademacher":
        raise DomainError(f"enumeration needs sign noise, model "
                          f"{model.label} draws {model.noise_kind}")
    if horizon > ENUM_MAX_HORIZON:
        raise DomainError(f"horizon {horizon} exceeds enumeration cap "
                          f"{ENUM_MAX_HORIZON}")
    if horizon < model.n_min:
        raise DomainError(
            f"horizon {horizon} precedes first non-degenerate time "
            f"{model.n_min}")
    grid = [float(u) for u in u_grid]
    denom, first = _normalizer(model, v, horizon)
    if model.sign_sum_degree:
        counts, counts_plus = _lattice_sup_counts(
            model.sign_sum_degree, denom, first, horizon, grid)
    else:
        counts, counts_plus = _enumerated_sup_counts(model, denom, first,
                                                     horizon, grid)
    total = 1 << horizon
    return ExactTail(
        u_grid=tuple(grid),
        w=tuple(Fraction(int(c), total) for c in counts),
        w_plus=tuple(Fraction(int(c), total) for c in counts_plus),
        horizon=horizon,
        model_label=model.label,
        norming_label=v.label,
    )


def _ratio_toward_zero(num: int, den: int) -> float:
    """num / den (0 <= num <= den) as a float rounded toward zero.

    Integer true division rounds correctly to nearest; when that lands
    above the exact ratio, the float one ulp below is the largest float
    that does not exceed it.
    """
    q = num / den
    a, b = q.as_integer_ratio()
    if a * den > num * b:
        q = math.nextafter(q, 0.0)
    return q


def single_time_tail(model: MartingaleModel, n0: int,
                     thresholds: Sequence[float]) -> np.ndarray:
    """P(S(n0)/sigma(n0) > x) for each threshold x, never above the truth.

    A model with a sign_sum_degree d is a function of the sign sum, so
    the tail is an exact integer sum of binomial coefficients C(n0, k)
    over the k whose value passes x (the same float test as simulation),
    divided by 2^n0 and rounded toward zero, so it is a certified floor.
    One walk over k carries C(n0, k) by its recurrence and adds it to the
    bucket of how many thresholds its value passes; suffix sums of the
    buckets give every tail.  The walk holds O(n0) bits but takes
    O(n0^2) time, so n0 is capped at FLOOR_MAX_TIME.  Other sign-noise
    models enumerate all 2^n0 paths block by block when n0 <=
    ENUM_MAX_HORIZON, where count / 2^n0 is an exact float.
    """
    if n0 < model.n_min:
        raise DomainError(f"time {n0} precedes first non-degenerate time "
                          f"{model.n_min}")
    xs = np.asarray(thresholds, dtype=float)
    sig = float(model.sigma_exact(np.array([float(n0)]))[0])
    d = model.sign_sum_degree
    if d:
        if n0 > FLOOR_MAX_TIME:
            raise DomainError(f"time {n0} exceeds the exact single-time "
                              f"cap {FLOOR_MAX_TIME}")
        p1 = np.arange(-n0, n0 + 1, 2, dtype=np.int64)
        svals = _chaos_closed_form(d, p1, np.int64(n0)) / sig
        # value k passes threshold x exactly when it passes more sorted
        # thresholds than lie strictly below x
        ordered = np.sort(xs)
        passes = np.searchsorted(ordered, svals, side="left").tolist()
        buckets = [0] * (len(xs) + 1)
        c = 1
        for k in range(n0 // 2 + 1):
            # C(n0, k) = C(n0, n0 - k): one coefficient serves both ends
            buckets[passes[k]] += c
            if 2 * k < n0:
                buckets[passes[n0 - k]] += c
            c = c * (n0 - k) // (k + 1)
        tails = list(accumulate(reversed(buckets[1:])))[::-1]
        below = np.searchsorted(ordered, xs, side="left")
        return np.array([_ratio_toward_zero(tails[i], 1 << n0)
                         for i in below.tolist()])
    if model.noise_kind == "rademacher" and n0 <= ENUM_MAX_HORIZON:
        counts = np.zeros(len(xs), dtype=np.int64)
        for values in _sign_path_values(model, n0):
            final = values[:, -1] / sig
            counts += [np.count_nonzero(final > x) for x in xs]
        return counts / (1 << n0)
    raise DomainError(f"no exact single-time tail for model {model.label} "
                      f"at n0={n0}")


# ---------------------------------------------------------------------------
# calibration against the block-sum bound
# ---------------------------------------------------------------------------

def calibrate_constant(estimate: TailEstimate, v: NormingSequence, sigma,
                       phi, *, ratio_grid: Optional[Sequence[float]] = None,
                       tol: float = DEFAULT_TOL) -> CalibrationResult:
    """Largest constant whose rescaled bound dominates the tail's upper CI.

    The bound is one function B of the scaled level C*u, nonincreasing,
    so each uncensored cell i dominates exactly for C up to some c_i and
    the answer is min_i c_i.  Each cell is inverted on its own: bisection
    of B(c*u_i) >= ci_high_i in log space over [0.01, 100] to 1% relative
    precision.  Every cell walks the same bisection lattice, so the
    minimum lower end equals what one bisection of C over all cells at
    once would return.  Censored cells carry too few hits to constrain
    anything and are skipped.  bound_values and margin both come from
    one evaluation of the bound over the whole grid at the returned C.

    Cells are visited in grid order against the running minimum c_hat
    (100 until a cell falls below it), and a cell pays only for what can
    lower it.  A cell that dominates at c_hat costs that one evaluation:
    its bisection result is a nondecreasing function of c_i, and c_hat
    is a fixed point of the lattice (the bisection with threshold c_hat
    takes the very path that produced it), so the cell's result is at
    least c_hat; its floor check is implied by monotonicity.  A cell that
    fails at c_hat is bisected on the same lattice, and every midpoint
    at or above c_hat is decided false without evaluating it, since B
    cannot dominate there either.  So c_hat is the value the full
    per-cell bisection gives.
    """
    active = [i for i, c in enumerate(estimate.censored) if not c]
    if not active:
        raise CalibrationError("every grid point is censored; nothing to "
                               "calibrate against")

    def dominates(i: int, c: float) -> bool:
        report = optimized_bound(v, sigma, phi, [estimate.u_grid[i]], C=c,
                                 ratio_grid=ratio_grid, tol=tol)
        return report.q_sums[0] >= estimate.ci_high[i]

    floor, cap = 0.01, 100.0
    c_hat = cap
    for i in active:
        if dominates(i, c_hat):
            continue
        if not dominates(i, floor):
            raise CalibrationError(
                "bound at C=0.01 fails to dominate the empirical CI; "
                "shrinking C only loosens the bound, so this signals an "
                "implementation inconsistency between the bound and the "
                "estimator")
        lo, hi = floor, cap
        while hi / lo > 1.01:
            mid = math.sqrt(lo * hi)
            if mid < c_hat and dominates(i, mid):
                lo = mid
            else:
                hi = mid
        c_hat = min(c_hat, lo)
    full = optimized_bound(v, sigma, phi, np.asarray(estimate.u_grid),
                           C=c_hat, ratio_grid=ratio_grid, tol=tol)
    margin = min(full.q_sums[i] / estimate.ci_high[i]
                 if estimate.ci_high[i] > 0 else math.inf for i in active)
    return CalibrationResult(c_hat=c_hat, u_grid=estimate.u_grid,
                             margin=margin, bound_values=tuple(full.q_sums),
                             capped=c_hat == cap)


# ---------------------------------------------------------------------------
# proof-step and trajectory diagnostics
# ---------------------------------------------------------------------------

def doob_moment_check(model: MartingaleModel, horizon: int,
                      p: float = 2.0) -> DoobReport:
    """Enumerated E max_n |S(n)|^p against (p/(p-1))^p * E |S(N)|^p.

    Exact for sign noise at small horizons; the constant martingale is
    excluded by requiring a positive final moment.
    """
    if horizon > 12:
        raise DomainError(f"moment check enumerates 2^N paths, N <= 12; "
                          f"got {horizon}")
    if horizon < model.n_min:
        raise DomainError(
            f"horizon {horizon} precedes first non-degenerate time "
            f"{model.n_min}")
    if model.noise_kind != "rademacher":
        raise DomainError("moment check needs sign noise")
    if p <= 1:
        raise DomainError(f"moment order must exceed 1, got {p}")
    # horizon <= 12, so every path is in the first enumeration block
    values = next(_sign_path_values(model, horizon))
    powered = np.abs(values) ** p
    max_moment = float(powered.max(axis=1).mean())
    final_moment = float(powered[:, -1].mean())
    if final_moment <= 0:
        raise DomainError("degenerate martingale: zero final moment")
    limit = (p / (p - 1.0)) ** p
    ratio = max_moment / final_moment
    return DoobReport(horizon=horizon, model_label=model.label, p=p,
                      ratio=ratio, limit=limit, passed=ratio <= limit,
                      max_moment=max_moment, final_moment=final_moment)


def lil_trajectory_stats(d: int, horizon: int, n_paths: int,
                         seed: int) -> TrajectoryStats:
    """Distribution of R(N) = max_n S(n)/(n loglog(n+3))^(d/2).

    The almost-sure limit along N would be 2^(d/2)/d!; at any fixed
    horizon the median sits somewhere below it, so the reference constant
    is reported next to the quartiles rather than asserted against.
    Matched seeds make the median weakly increasing in the horizon, since
    each path's running max can only grow.
    """
    if horizon < 4:
        raise DomainError(f"horizon too short for loglog weights: {horizon}")
    model = chaos_model(d)
    n = np.arange(1, horizon + 1, dtype=float)
    denom = (n * np.log(np.log(n + 3.0))) ** (d / 2.0)
    signed, _ = _over_path_chunks(model, denom, 0, horizon, seed, n_paths)
    q25, med, q75 = np.percentile(signed, [25.0, 50.0, 75.0])
    return TrajectoryStats(
        degree=d, horizon=horizon, paths=n_paths, seed=seed,
        median=float(med), q25=float(q25), q75=float(q75),
        positive_fraction=float(np.mean(signed > 0)),
        reference=2.0 ** (d / 2.0) / math.factorial(d))
