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
dispatch on sign_sum_degree alone.  Sign chaos of every degree is
simulated from the words of the sign stream, in tiles of paths x words:
popcounts give the sign sum at every word boundary, a walk from b to e
over L steps stays in [(b + e - L)/2, (b + e + L)/2], and that one rule
bounds it over each byte, word and group of 16 words.  One rule bounds
the numerator N_d = d! S_d over such a box for every d: past a zone
about P1 = 0 it is monotone in the sign sum and in time, so corners
bound it, and inside the zone a table of its exact extremes, built once
per call, does.  Only the bytes that can move a path's running max or
min are evaluated, step by step, with the arithmetic of prefix_values.
exact_sup_tail counts the 2^N sign paths of sign chaos of any degree by
a dynamic program over the sign-sum lattice; the weighted models go
through prefix_values, on a reused value tile or by enumeration.  Exact
tails are rationals, for small horizons.
single_time_tail gives the single-time floor, the statistic's own tail
at one time, so never above the exact sup-tail: exact integer binomial
sums up to time FLOOR_MAX_TIME, rounded toward zero, so verify imports
no scipy; the sum stops once the rest of the row cannot change a
rounded tail.  On top of those sit the calibration of the bound's constant,
an enumeration check of the Doob maximal-moment step, and
iterated-logarithm trajectory statistics.

Normalization matches the bound engine: model time n pairs with norming
index n - n_min + 1, so the first non-degenerate time gets v(1) and
every tail here, the floor too, and the block-sum bound divide by
identical arrays (_normalizer).  That array's size is the horizon, and
it is NaN at the degenerate times n < n_min: a NaN step never passes a
"> u" test, and every max and min over steps skips it (np.fmax,
np.fmin).
"""
from __future__ import annotations

import bisect
import math
import mmap
import os
import pickle
import signal
from contextlib import suppress
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, count
from typing import Callable, List, NoReturn, Optional, Sequence, Tuple

import numpy as np

from .engine import (DEFAULT_TOL, NormingSequence, bound_at_least,
                     constant_norming, optimized_bound)
from .errors import CalibrationError, DomainError
from .models import (MartingaleModel, _chaos_fits, _chaos_numerators,
                     _chaos_values, _check_chaos_range, chaos_model)
from .rng import stream_words

# 99% two-sided normal quantile, frozen so intervals never drift with scipy
_Z99 = 2.5758293035489004

# a path chunk of the weighted models reuses one float64 value tile of
# PATH_CHUNK x STEP_BLOCK (4 MiB) for all its step blocks, or of more
# paths, as many values, at a horizon shorter than one block.  The sign
# kernel reads stream words in tiles of PATH_CHUNK paths x TILE_WORDS
# words (8192 steps, 512 KiB a word array) and tests them in groups of
# GROUP_WORDS words.  On a 2-core Xeon, 2^15 paths x 2^14 steps of
# chaos:d=1 with the maxima raised to 2 (verify's u-grid lin:2:4:8)
# took 0.31-0.33 s in one process and 0.16-0.18 s in two
PATH_CHUNK = 512
STEP_BLOCK = 1024
TILE_WORDS = 128
GROUP_WORDS = 16
CENSOR_COUNT = 10
#: fewer paths than this cannot resolve any tail at CENSOR_COUNT
MIN_PATHS = 1000
ENUM_MAX_HORIZON = 20
ENUM_BLOCK = 1 << 16  # sign paths per enumerated block
# the exact single-time floor stops its walk of n0-bit bigints a few
# hundred steps out from the middle of the row: 0.07 s at 2^16 and 0.21 s
# at 2^17 on a 2-core Xeon.  A row it must walk to the end (a tail that
# is exactly a float) takes 1.7 s at 2^17, four times that per doubling
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
    return k if k > 0 else _cpu_count()


def _cpu_count() -> int:
    """CPUs this process may run on."""
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
                horizon: int) -> np.ndarray:
    """Denominator over model times 1..horizon, its size the horizon.

    denominator[i] = sigma(n) * v(n - n_min + 1) at n = i + 1, and NaN
    on the degenerate prefix n < n_min, where the statistic is undefined.
    """
    if horizon < model.n_min:
        raise DomainError(
            f"horizon {horizon} precedes first non-degenerate time "
            f"{model.n_min}")
    first = model.n_min - 1
    n = np.arange(model.n_min, horizon + 1, dtype=float)
    denom = np.full(horizon, np.nan)
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
    return denom


def _chunk_maxima(model: MartingaleModel, denom: np.ndarray, seed: int,
                  path_lo: int, path_hi: int, u_min: float = -math.inf
                  ) -> Tuple[np.ndarray, np.ndarray]:
    """Signed and absolute running maxima for paths [path_lo, path_hi),
    raised to u_min: max(max, u_min) and max(max |.|, u_min), bit for bit.

    A test "> u" with u >= u_min cannot tell these from the true maxima,
    and they let the sign-chaos kernel skip every byte of steps that
    cannot move them.  Sign chaos of every degree goes to that kernel.
    The weighted models run a chunk of paths at a time through
    prefix_values, into one float64 tile of (paths x STEP_BLOCK) values
    reused for every step block, where the divide, max and min run in
    place; their float64 sums depend on the order of addition, so they
    keep the cumsum.  The absolute max comes from the signed max and min.
    """
    if model.sign_sum_degree:
        best, worst = _sign_chaos_extrema(model.sign_sum_degree, denom, seed,
                                          path_lo, path_hi, u_min)
        return best, np.maximum(best, -worst)
    horizon = denom.size
    best = np.full(path_hi - path_lo, u_min, dtype=float)
    worst = -best
    chunk = PATH_CHUNK * (STEP_BLOCK // min(horizon, STEP_BLOCK))
    tile = np.empty((min(chunk, best.size), min(STEP_BLOCK, horizon)))
    for at in range(0, best.size, chunk):
        high, low = best[at:at + chunk], worst[at:at + chunk]
        lo, hi = path_lo + at, path_lo + at + high.size
        state = None
        for s0 in range(0, horizon, STEP_BLOCK):
            ns = min(STEP_BLOCK, horizon - s0)
            noise = model.noise_block(seed, lo, hi, s0, ns)
            values, state = model.prefix_values(noise, state,
                                                out=tile[:hi - lo, :ns])
            values /= denom[s0:s0 + ns]
            np.fmax(high, np.fmax.reduce(values, axis=1), out=high)
            np.fmin(low, np.fmin.reduce(values, axis=1), out=low)
    return best, np.maximum(best, -worst)


# values _zone_table evaluates at a time, at most, so that its
# temporaries stay at a few hundred KiB whatever the horizon
ZONE_VALUES = 1 << 16
# bounds on N_d that say nothing: the kernel's int64 checks keep every
# value it evaluates exactly below 2^63 in size
_ANY = 2 ** 63 - 1


def _zone_table(d: int, horizon: int
                ) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The zone of degree-d chaos per byte of steps, as three int64 (8 x
    words) arrays indexed like the kernel's byte tables, or None where
    it is empty.

    At a time n >= d - 1 the P1 >= 0 where some N_j, j < d, is negative
    form an interval [0, z(n)), by interlacing, and z is nondecreasing.
    Byte 8w + q, whose last time is t = 64w + 8q + 8, holds z(t) and the
    max and min of N_d over the integers P1 in [0, z(n)] at the times n
    in [d, t]: -_ANY and _ANY, which move no bound, where t < d.  For
    odd d the min is taken with the negated max, so that the mirror
    (-z, 0] reads off the same pair.

    N_(d-1) is the characteristic polynomial of the tridiagonal matrix
    with zero diagonal and off-diagonal sqrt(i (n - i + 1)) <= sqrt((d -
    2) n), i < d - 1, so by Gershgorin's theorem and interlacing every
    root of N_1 .. N_(d-1) lies below reach(n) = 2 sqrt((d - 2) n).  The
    times come in blocks of rows, each enumerated at every integer P1 in
    [0, z] for the z of its last time, found at the integers up to that
    reach.  Past the horizon, and from the first block that int64 does
    not hold at that reach on, z is 2^62 and the extremes are _ANY and
    -_ANY: every box that ends there meets the zone, and passes its
    test.  N_2(0, n) = -n < 0, so the zone is empty just for d <= 2.
    """
    if d <= 2:
        return None

    def reach(n):
        return math.isqrt(4 * (d - 2) * n) + 1

    n_words = -(-horizon // 64)
    z = np.full(8 * n_words, 2 ** 62)
    high, low = np.full(z.size, _ANY), np.full(z.size, -_ANY)
    z[:d // 8], high[:d // 8], low[:d // 8] = 0, -_ANY, _ANY
    running = (-_ANY, _ANY)
    rows = max(1, ZONE_VALUES // reach(max(d, horizon)))
    for start in range(d, horizon + 1, rows):
        n = np.arange(start, min(start + rows, horizon + 1))
        if not _chaos_fits(d, reach(n[-1]), int(n[-1]), walks=False):
            break
        passes = np.ones(reach(n[-1]) + 1, dtype=bool)  # z at the last row
        _chaos_numerators(d, np.arange(passes.size), n[-1], passes=passes)
        width = int(np.argmax(passes)) + 1
        p1 = np.broadcast_to(np.arange(width), (n.size, width))
        passes = np.ones(p1.shape, dtype=bool)
        values = _chaos_numerators(d, p1, n[:, None], passes=passes)
        zn = np.argmax(passes, axis=1)
        # the extremes from time d on; past z(n), P1 = 0's value
        np.copyto(values, values[:, :1], where=p1 > zn[:, None])
        top = np.maximum.accumulate(np.maximum(values.max(1), running[0]))
        bottom = np.minimum.accumulate(np.minimum(values.min(1), running[1]))
        running = (top[-1], bottom[-1])
        at = n % 8 == 0  # the last times of bytes
        k = n[at] // 8 - 1
        z[k], high[k], low[k] = zn[at], top[at], bottom[at]
    if d % 2:
        np.minimum(low, -high, out=low)
    return tuple(t.reshape(n_words, 8).T.copy() for t in (z, high, low))


def _numerator_bounds(d: int, top: np.ndarray, n0, width, times=None,
                      zone=None) -> Tuple[np.ndarray, np.ndarray]:
    """Upper and lower bounds on the integer numerator N_d = d! S_d over
    a box: sign sums P1 in [top - width, top] and times in [n0, last],
    last = n0 + times - 1, times being width unless given; int64 in and
    out, and width and times may be arrays.  zone is _zone_table's (z,
    high, low) at the box's last time, or None where the zone is empty.

    Corner rule: where N_1 .. N_(d-1) are all >= 0 at the corner of a
    part of the box with P1 >= 0 (its least P1, time last), they are >=
    0 over the part, and by de_j/dP1 = e_(j-1) + e_(j-3)/3 + ... and
    de_j/dn = -(e_(j-2)/2 + e_(j-4)/4 + ...), by induction on j, N_d
    rises in P1 and falls in n there.  N_d(-P1) = (-1)^d N_d(P1) mirrors
    the part below 0.  So for even d the bounds are N_d at (max |P1|,
    n0) and (min |P1|, last); for odd d, N_d at top and at bottom, each
    at the time that pushes it outward: n0 for P1 >= 0, last below.
    The test fails just where a part reaches into [0, z(last)) or its
    mirror, and such a box takes in the zone's extremes: they bound N_d
    at P1 < z(n), and from z(n) on it rises from N_d(z(n), n).
    """
    bottom = top - width
    if d == 1:  # N_1 = P1 at every time
        return top, bottom
    last = n0 + ((width if times is None else times) - 1)
    if d % 2:
        span = last - n0
        upper = _chaos_numerators(d, top, (top < 0) * span + n0)
        lower = _chaos_numerators(d, bottom, (bottom >= 0) * span + n0)
        if zone is None:
            return upper, lower
        z, high, low = zone
        met = np.maximum(bottom, -top) < z
        outer = (np.where(bottom > 0, high, -low),
                 np.where(top < 0, -high, low))
    else:
        far = np.maximum(top, -bottom)
        near = np.maximum(np.maximum(bottom, -top), 0)
        upper = _chaos_numerators(d, far, n0)
        lower = _chaos_numerators(d, near, last)
        if zone is None:
            return upper, lower
        z, *outer = zone
        met = near < z
    return (np.maximum(upper, np.where(met, outer[0], -_ANY), out=upper),
            np.minimum(lower, np.where(met, outer[1], _ANY), out=lower))


def _may_move(d: int, upper: np.ndarray, lower: np.ndarray, lo: np.ndarray,
              hi: np.ndarray, best: np.ndarray, worst: np.ndarray
              ) -> np.ndarray:
    """Where a run of steps with numerator bounds [lower, upper] and
    denominators in [lo, hi] may raise best or lower worst.

    A step's value is fl(fl(N) / d!) / denom, the operations of
    prefix_values, and correctly rounded arithmetic is monotone: the
    value is nondecreasing in N, and in denom it falls for N >= 0 and
    rises for N < 0.  So the same operations on upper, over lo or hi
    whichever gives more, bound every value from above, exactly, and on
    lower, over whichever gives less, from below; a test over both
    denominators asks the same.  A value equal to best or worst moves
    neither.
    """
    scale = float(math.factorial(d))
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
# that their temporaries stay at 64 KiB
SLICE = 8192
# values that _byte_extrema's two (8 x bytes) planes and the
# recurrence's min(d - 1, 3) buffers hold between them (1.5 MiB, and at
# most 8 SLICE, 512 KiB, each), reused from call to call; the values at
# word ends fill them as many rows of a tile at a time as fit, all of
# them at d <= 2
PLANE_VALUES = 24 * SLICE


def _walk_limits(d: int, horizon: int) -> np.ndarray:
    """Per step of the horizon, the largest |P1| at which _chaos_fits
    holds at the end of the step's block of STEP_BLOCK steps: the check
    prefix_values makes of a block, so every walk it takes passes."""
    ends = np.minimum(np.arange(1, -(-horizon // STEP_BLOCK) + 1) * STEP_BLOCK,
                      horizon)
    limits = [bisect.bisect_left(range(end + 1), True, key=lambda p: not
                                 _chaos_fits(d, p, int(end))) - 1
              for end in ends]
    return np.repeat(limits, STEP_BLOCK)[:horizon]


def _check_walks(d: int, p1: np.ndarray, n, limits: np.ndarray) -> None:
    """DomainError, as prefix_values raises it, where a walk's sign sum
    p1 at a time n inside the horizon passes _walk_limits' limits."""
    n = np.broadcast_to(n, p1.shape)
    over = np.abs(p1) > limits[np.minimum(n, limits.size) - 1]
    over &= n <= limits.size
    if over.any():
        i = np.argmax(over)
        _check_chaos_range(d, int(abs(p1.flat[i])), min(
            -(-int(n.flat[i]) // STEP_BLOCK) * STEP_BLOCK, limits.size))


def _byte_extrema(d: int, byte: np.ndarray, before: np.ndarray,
                  k: np.ndarray, per_plane: np.ndarray, ints: np.ndarray,
                  floats: np.ndarray, *work: np.ndarray, limits=None
                  ) -> Tuple[np.ndarray, np.ndarray]:
    """Max and min of the statistic over the steps of bytes k of the sign
    stream, given their bits and P1 before each; per_plane[j, k] is
    denom at step 8k + j, NaN before n_min and past the horizon.

    All eight steps of every byte at once, as (8 x bytes) planes: P1 at
    step 8k+j is before + _GAINS[j, byte], the recurrence runs on it in
    int64, and the quotient by denom is taken once, as in prefix_values.
    The planes are written into the int64 and float64 buffers ints and
    floats, and the recurrence into the int64 buffers work, all reused
    from call to call.  Given limits, the sign sums are checked against
    them first (_check_walks).
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
        if limits is not None:
            _check_walks(d, p1, n, limits)
        p1 = _chaos_values(d, p1, n, out=p1.view(float), work=work)
    np.take(per_plane, k, axis=1, out=value, mode="clip")
    np.divide(p1, value, out=value)
    # a step before n_min or past the horizon has a NaN denominator,
    # which fmax and fmin pass over
    return np.fmax.reduce(value, axis=0), np.fmin.reduce(value, axis=0)


def _byte_stage(d: int, bits: np.ndarray, w: np.ndarray, path: np.ndarray,
                before: np.ndarray, tables: tuple, zone: Optional[tuple],
                best: np.ndarray, worst: np.ndarray,
                planes: Sequence[np.ndarray]) -> None:
    """Raise best[path] and lower worst[path] by the bytes of stream
    words w of those paths that pass the byte test, given each word's
    bits and P1 before it, the kernel's per-byte tables, its zone table
    at the same rows (or None) and _byte_extrema's buffers.  The tables
    hold the least and the greatest denominator of byte 8w + q at [q, w]
    (NaN past the horizon; no row past it in the first word), per_plane
    and _byte_extrema's limits.

    SLICE bytes at a time, laid out as (bytes x words) so that the
    tests run along the words.  From per-byte popcounts, the top of byte
    q (P1 if its ones came first) is P1 before the word + 2 (ones in
    bytes 0..q) - (ones in byte q) - 8q, the byte arithmetic of a
    multiply by _BYTE_PREFIX being borrow-free.  A byte past the
    horizon has no row or a NaN range, which no byte test passes.
    """
    byte_lo, byte_hi, per_plane, limits = tables
    nq = byte_lo.shape[0]
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
        upper, lower = _numerator_bounds(
            d, top, n0, 8, None,
            zone and tuple(np.take(t, at_w, axis=1) for t in zone))
        rows = path[part]
        at = np.flatnonzero(_may_move(
            d, upper, lower, np.take(byte_lo, at_w, axis=1),
            np.take(byte_hi, at_w, axis=1), best[rows], worst[rows]))
        if not at.size:
            continue
        q, word = np.divmod(at, at_w.size)
        byte = word_bits.view(np.uint8).reshape(-1, 8)[word, q]
        p1 = top.reshape(-1)[at]
        p1 -= ones.view(np.uint8).reshape(-1, 8)[word, q]
        k, rows = 8 * at_w[word] + q, rows[word]
        for i in range(0, at.size, planes[0].size // 8):
            part = slice(i, i + planes[0].size // 8)
            high, low = _byte_extrema(d, byte[part], p1[part], k[part],
                                      per_plane, *planes, limits=limits)
            np.fmax.at(best, rows[part], high)
            np.fmin.at(worst, rows[part], low)


def _sign_chaos_extrema(d: int, denom: np.ndarray, seed: int, path_lo: int,
                        path_hi: int, u_min: float
                        ) -> Tuple[np.ndarray, np.ndarray]:
    """max(max, u_min) and min(min, -u_min) of degree-d sign chaos over
    the steps where denom is not NaN, for paths [path_lo, path_hi), from
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
    (L = 8).  Each level is tested over the denominators of its own
    steps and reads the zone table, built once per call by _zone_table,
    at its last byte; _byte_extrema evaluates the bytes that pass
    exactly.  A tile of one word goes straight to the byte test, which
    prunes all the other two would.  A tile whose box corners int64
    does not hold reads a zone that takes in every box instead, and
    evaluates all its steps, checking each walk's sign sums as
    prefix_values does (_walk_limits).
    """
    n_paths = path_hi - path_lo
    horizon = denom.size
    n_words = -(-horizon // 64)
    # per_plane[j, k] = denom at step 8k + j, NaN to the end of the last
    # word, so that no byte of it past the horizon takes a denominator
    per_plane = np.full(64 * n_words, np.nan)
    per_plane[:horizon] = denom
    per_plane = per_plane.reshape(-1, 8).T.copy()
    # denominator ranges over the steps that have one: byte q of word w
    # at [q, w] (NaN past the horizon; no row past it in the first word)
    nq = min(8, -(-horizon // 8))
    byte_lo, byte_hi = (
        ext.reduce(per_plane, axis=0).reshape(n_words, 8).T[:nq].copy()
        for ext in (np.fmin, np.fmax))
    lo_den = np.fmin.reduce(byte_lo, axis=0)
    hi_den = np.fmax.reduce(byte_hi, axis=0)
    # groups of GROUP_WORDS words: first time, times, denominator range
    group_starts = np.arange(0, n_words, GROUP_WORDS)
    group_n0 = 64 * group_starts + 1
    group_ends = np.minimum(group_starts + GROUP_WORDS, n_words)
    group_times = 64 * (group_ends - group_starts)

    def levels(zone):  # a zone table at each byte's, word's, group's end
        if zone is None:
            return None, None, None
        word = tuple(t[7] for t in zone)
        return (tuple(t[:nq] for t in zone), word,
                tuple(t[group_ends - 1] for t in word))

    pruned = (levels(_zone_table(d, horizon)), None)
    unpruned = None  # the zone that takes in every box, and limits
    group_lo = np.fmin.reduceat(lo_den, group_starts)
    group_hi = np.fmax.reduceat(hi_den, group_starts)
    best = np.full(n_paths, u_min, dtype=float)
    worst = -best
    tile_paths = min(n_paths, PATH_CHUNK * max(1, TILE_WORDS // n_words))
    size = tile_paths * min(TILE_WORDS, n_words)
    edges = np.empty(size + tile_paths, dtype=np.int64)
    pairs = np.empty(size, dtype=np.int64)
    # the byte planes, the float one holding the word-end values first,
    # and the recurrence's buffers, which serve both
    plane_size = min(PLANE_VALUES // (2 + min(d - 1, 3)), 8 * SLICE,
                     64 * size)
    planes = (np.empty(plane_size, dtype=np.int64), np.empty(plane_size),
              *(np.empty(plane_size, dtype=np.int64)
                for _ in range(min(d - 1, 3))))

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
            (byte_zone, word_zone, group_zone), limits = pruned
            if d > 1 and not _chaos_fits(
                    d, int(max(edge.max(), -edge.min())) + 64, 64 * (w0 + nw),
                    walks=False):
                # int64 does not hold every corner the bounds evaluate:
                # |P1| is at most 64 past the words' ends
                unpruned = unpruned or (levels(tuple(
                    np.full((8, n_words), v) for v in (2 ** 62, _ANY, -_ANY))),
                    _walk_limits(d, horizon))
                (byte_zone, word_zone, group_zone), limits = unpruned
            tables = (byte_lo, byte_hi, per_plane, limits)
            full = min(nw, horizon // 64 - w0)
            n_end = 64 * np.arange(w0 + 1, w0 + full + 1)
            rows = plane_size // max(full, 1)
            # the exact values at word ends inside the horizon, for as
            # many paths at a time as a plane holds
            for r in range(0, n if full > 0 else 0, rows):
                part = slice(r, r + rows)
                sums = edge[part, 1:full + 1]
                value = planes[1][:sums.size].reshape(sums.shape)
                if limits is not None:
                    _check_walks(d, sums, n_end, limits)
                if d > 1:  # S_d in place of P1
                    sums = _chaos_values(d, sums, n_end, out=value,
                                         work=planes[2:])
                np.divide(sums, denom[n_end - 1], out=value)
                np.fmax(high[part], np.fmax.reduce(value, axis=1),
                        out=high[part])
                np.fmin(low[part], np.fmin.reduce(value, axis=1),
                        out=low[part])
            if nw == 1:  # the byte test is the finest of the three
                _byte_stage(d, words.reshape(-1), np.broadcast_to(w0, n),
                            np.arange(n), edge[:, 0], tables, byte_zone,
                            high, low, planes)
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
            upper, lower = _numerator_bounds(
                d, top, group_n0[g], width, group_times[g],
                group_zone and tuple(t[g] for t in group_zone))
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
                upper, lower = _numerator_bounds(
                    d, top, 64 * w + 1, 64, None,
                    word_zone and tuple(t[w] for t in word_zone))
                hit = np.flatnonzero(_may_move(d, upper, lower, lo_den[w],
                                               hi_den[w], high[path],
                                               low[path]))
                _byte_stage(d, bits[hit], w[hit], path[hit], before[hit],
                            tables, byte_zone, high, low, planes)
    return best, worst


def _path_spans(n_paths: int) -> List[Tuple[int, int]]:
    """Paths [0, n_paths) as one contiguous span (lo, hi) per worker
    process: LILBOUND_THREADS's cap of workers, never more than the CPUs
    this process may run on, and one without os.fork."""
    workers = min(worker_count(), _cpu_count() if hasattr(os, "fork") else 1)
    chunk = -(-n_paths // workers)
    return [(lo, min(lo + chunk, n_paths)) for lo in range(0, n_paths, chunk)]


def _run_forked(run: Callable, spans: Sequence) -> None:
    """run(span) for every span: the first in this process, each other
    in a child made by os.fork, so no argument or result is pickled.

    The children write their results into memory shared with this
    process.  A child that fails pickles its exception into a pipe and
    this process raises it once its own span is done.  On any
    exception here, KeyboardInterrupt included, every child still
    running is killed; every child is reaped before this returns or
    raises.  A child runs numpy's vector code only: it takes no lock
    that another thread of this process (such as OpenBLAS's pool, which
    it never calls) could have held at the fork.
    """
    children = []  # (pid, read end of its pipe), not yet reaped
    try:
        for span in spans[1:]:
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                os.close(read)
                _child(run, span, write)
            os.close(write)
            children.append((pid, os.fdopen(read, "rb")))
        run(spans[0])
        while children:
            pid, pipe = children[-1]
            report = pipe.read()  # empty unless the child failed
            status = os.waitpid(pid, 0)[1]
            children.pop()
            pipe.close()
            if report:
                raise pickle.loads(report)
            if status:
                raise ChildProcessError(
                    f"a worker process ended with exit code "
                    f"{os.waitstatus_to_exitcode(status)}")
    finally:
        # a child reaped just before an interrupt may still be listed
        for pid, pipe in children:
            pipe.close()
            with suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
        for pid, _ in children:
            with suppress(ChildProcessError):
                os.waitpid(pid, 0)


def _child(run: Callable, span, write: int) -> NoReturn:
    """A forked child's whole life: run(span), writing its exception,
    pickled, to the pipe end write if it fails, then _exit."""
    code = 1
    try:
        run(span)
        code = 0
    except BaseException as exc:
        with os.fdopen(write, "wb") as pipe:
            pipe.write(pickle.dumps(exc))
    finally:
        os._exit(code)


def _over_path_chunks(model: MartingaleModel, denom: np.ndarray, seed: int,
                      n_paths: int, u_min: float = -math.inf
                      ) -> Tuple[np.ndarray, np.ndarray]:
    """Signed and absolute running maxima of paths [0, n_paths), raised
    to u_min as _chunk_maxima raises them (exact at the default -inf).

    Runs _chunk_maxima over the spans of _path_spans, each in its own
    process (_run_forked), writing into one anonymous shared mapping.
    Processes, not threads: the sign kernel's vector operations are too
    short to overlap under the GIL.  Each span's paths depend only on
    (seed, path index) and land in their own slice of the outputs, so
    the result is identical for any worker count.
    """
    out = np.frombuffer(mmap.mmap(-1, 2 * 8 * n_paths),
                        dtype=float).reshape(2, n_paths)

    def run(span):
        lo, hi = span
        out[0, lo:hi], out[1, lo:hi] = _chunk_maxima(model, denom, seed, lo,
                                                     hi, u_min)

    _run_forked(run, _path_spans(n_paths))
    return out[0], out[1]


def empirical_sup_tail(model: MartingaleModel, v: NormingSequence,
                       horizon: int, n_paths: int,
                       u_grid: Sequence[float], seed: int) -> TailEstimate:
    """Monte Carlo estimate of the truncated sup-tail probabilities.

    The sup runs over n in [n_min, horizon] only; with a growing norming
    the truncation biases the estimate low by a vanishing amount, and the
    horizon is carried in the result rather than corrected for.
    """
    if n_paths < MIN_PATHS:
        raise DomainError(f"need at least {MIN_PATHS} paths, got {n_paths}")
    denom = _normalizer(model, v, horizon)
    grid = [float(u) for u in u_grid]
    if not grid or not all(math.isfinite(u) for u in grid):
        raise DomainError("u grid must be nonempty and finite")
    # no count at a level u >= min(grid) can tell the true maxima from
    # maxima raised to min(grid), which spare the kernel most of its work
    signed, absed = _over_path_chunks(model, denom, seed, n_paths,
                                      min(grid))
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


def _lattice_sup_counts(d: int, denom: np.ndarray, grid: Sequence[float]
                        ) -> Tuple[np.ndarray, np.ndarray]:
    """Sign paths of length horizon whose W and W+ statistics pass each level.

    Degree-d sign chaos at time n is a function of the number k of plus
    signs so far (P1 = 2k - n), so paths that have not yet passed a
    level can be counted per k: alive[k] <- alive[k] + alive[k-1] per
    step.  The states where the enumeration's own float test fires
    (_chaos_values over denom[n-1], compared with > u, and for W+ also
    its negation; never at a NaN denominator) are zeroed, and each such
    path stands for its 2^(horizon - n) continuations.  Counts are at
    most 2^horizon, so int64 holds them exactly.
    """
    horizon = denom.size
    _check_chaos_range(d, horizon, horizon)
    u = np.asarray(grid, dtype=float)[:, None]
    # axis 0: W, then W+; axis 1: level; axis 2: k
    alive = np.zeros((2, len(grid), horizon + 1), dtype=np.int64)
    alive[..., 0] = 1
    hits = np.zeros((2, len(grid)), dtype=np.int64)
    for n in range(1, horizon + 1):
        alive[..., 1:n + 1] += alive[..., :n].copy()
        p1 = np.arange(-n, n + 1, 2, dtype=np.int64)
        stat = _chaos_values(d, p1, n) / denom[n - 1]
        over = stat > u
        fired = np.stack([over, over | (-stat > u)])
        live = alive[..., :n + 1]
        hits += np.where(fired, live, 0).sum(axis=-1) << (horizon - n)
        live[fired] = 0
    return hits[0], hits[1]


def _enumerated_sup_counts(model: MartingaleModel, denom: np.ndarray,
                           grid: Sequence[float]
                           ) -> Tuple[np.ndarray, np.ndarray]:
    """Sign paths of length horizon whose W and W+ statistics pass each
    level, by simulating all 2^horizon of them block by block."""
    counts = np.zeros(len(grid), dtype=np.int64)
    counts_plus = np.zeros(len(grid), dtype=np.int64)
    for values in _sign_path_values(model, denom.size):
        stat = values / denom
        signed = np.fmax.reduce(stat, axis=1)
        absed = np.maximum(signed, -np.fmin.reduce(stat, axis=1))
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
    denom = _normalizer(model, v, horizon)
    grid = [float(u) for u in u_grid]
    if model.sign_sum_degree:
        counts, counts_plus = _lattice_sup_counts(model.sign_sum_degree,
                                                  denom, grid)
    else:
        counts, counts_plus = _enumerated_sup_counts(model, denom, grid)
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


def _tails_settled(tails: Sequence[int], rest: int, den: int) -> bool:
    """Whether adding up to rest to any of tails leaves its toward-zero
    float over den unchanged."""
    return all(_ratio_toward_zero(t, den) == _ratio_toward_zero(t + rest, den)
               for t in tails)


def _binomial_tails(n0: int, passes: np.ndarray, n_levels: int) -> list:
    """tails[i] = the sum of C(n0, k) over the k with passes[k] > i, for
    i < n_levels, or a partial sum whose toward-zero float over 2^n0 is
    provably the same.

    C(n0, k) = C(n0, n0 - k), so one coefficient serves k and n0 - k.
    The walk starts at the innermost k where either passes, from
    math.comb, and goes outward by C(n0, k-1) = C(n0, k) k / (n0 - k +
    1).  Going outward those ratios fall, so the mass of every k' <= k
    and n0 - k' is at most 2 C(n0, k) (n0 - k + 1)/(n0 - 2k + 1).  Every
    64 steps the walk stops if that much more in any tail could not
    change its float, and otherwise it runs to k = 0.  Only the tails
    between bottom, the fewest thresholds any value passes, and top, the
    most, are watched: those past top are 0, and those up to bottom are
    the whole row, 2^n0, which no partial sum reaches.
    """
    half = n0 // 2
    paired = np.maximum(passes[:half + 1], passes[::-1][:half + 1])
    top, bottom = int(paired.max()), int(passes.min())
    if not top:
        return [0] * n_levels
    ranks = passes.tolist()
    den = 1 << n0
    buckets = [0] * (n_levels + 1)
    k = int(np.flatnonzero(paired)[-1])
    c = math.comb(n0, k)
    for step in count(1):
        buckets[ranks[k]] += c
        if 2 * k < n0:
            buckets[ranks[n0 - k]] += c
        if k == 0:
            break
        c = c * k // (n0 - k + 1)
        k -= 1
        if step % 64 == 0:
            rest = -(-2 * c * (n0 - k + 1) // (n0 - 2 * k + 1))
            known = accumulate(reversed(buckets[bottom + 1:top + 1]))
            if _tails_settled(list(known), rest, den):
                break
    tails = list(accumulate(reversed(buckets[1:])))[::-1]
    tails[:bottom] = [den] * bottom
    return tails


def single_time_tail(model: MartingaleModel, n0: int, u_grid: Sequence[float],
                     v: NormingSequence = constant_norming()) -> np.ndarray:
    """P(S(n0) / denom > u) per level u, never above the truth.

    denom = sigma(n0) v(n0 - n_min + 1) is _normalizer's at n0 and the
    test is the sup-tails' own, so with the same v this is a floor on
    the exact sup-tail at horizon n0; the default v = 1 gives
    P(S(n0)/sigma(n0) > u).  A model with a sign_sum_degree d is a
    function of the sign sum, so the tail is an exact integer sum of
    binomial coefficients C(n0, k) over the k whose value passes u,
    divided by 2^n0 and rounded toward zero, so it is a certified floor.
    One walk over k, outward from the middle of the row, adds each
    C(n0, k) to the bucket of how many levels its value passes; suffix
    sums of the buckets give every tail.  The walk stops as soon as the
    coefficients left cannot change any rounded tail (see
    _binomial_tails), so its floats are those of the whole row.  It
    holds O(n0) bits; a row it must walk to the end takes O(n0^2) time,
    so n0 is capped at FLOOR_MAX_TIME.  Other sign-noise models
    enumerate all 2^n0 paths block by block when n0 <= ENUM_MAX_HORIZON,
    where count / 2^n0 is an exact float.
    """
    d = model.sign_sum_degree
    if d and n0 > FLOOR_MAX_TIME:
        raise DomainError(f"time {n0} exceeds the exact single-time cap "
                          f"{FLOOR_MAX_TIME}")
    if not d and (model.noise_kind != "rademacher" or n0 > ENUM_MAX_HORIZON):
        raise DomainError(f"no exact single-time tail for model "
                          f"{model.label} at n0={n0}")
    denom = _normalizer(model, v, n0)[-1]
    us = np.asarray(u_grid, dtype=float)
    if not d:
        counts = np.zeros(len(us), dtype=np.int64)
        for values in _sign_path_values(model, n0):
            final = values[:, -1] / denom
            counts += [np.count_nonzero(final > u) for u in us]
        return counts / (1 << n0)
    _check_chaos_range(d, n0, n0)
    p1 = np.arange(-n0, n0 + 1, 2, dtype=np.int64)
    stat = _chaos_values(d, p1, n0) / denom
    # value k passes level u exactly when it passes more sorted levels
    # than lie strictly below u
    ordered = np.sort(us)
    passes = np.searchsorted(ordered, stat, side="left")
    tails = _binomial_tails(n0, passes, len(us))
    below = np.searchsorted(ordered, us, side="left")
    return np.array([_ratio_toward_zero(tails[i], 1 << n0)
                     for i in below.tolist()])


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
    anything and are skipped.  Each step asks bound_at_least whether
    B(c*u_i) >= ci_high_i, which sums only the series that decide it;
    bound_values and margin both come from one evaluation of the bound
    over the whole grid at the returned C.

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
        return bound_at_least(v, sigma, phi, c * float(estimate.u_grid[i]),
                              estimate.ci_high[i], ratio_grid=ratio_grid,
                              tol=tol)

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
    signed, _ = _over_path_chunks(model, denom, seed, n_paths)
    q25, med, q75 = np.percentile(signed, [25.0, 50.0, 75.0])
    return TrajectoryStats(
        degree=d, horizon=horizon, paths=n_paths, seed=seed,
        median=float(med), q25=float(q25), q75=float(q75),
        positive_fraction=float(np.mean(signed > 0)),
        reference=2.0 ** (d / 2.0) / math.factorial(d))
