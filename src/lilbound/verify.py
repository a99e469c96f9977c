"""Monte Carlo and exhaustive verification of the sup-tail bound.

The estimators here answer one question from the other side of the fence:
given a concrete martingale family, how large is

    W(u)  = P( max_n S(n) / (sigma(n) v(n)) > u ),
    W+(u) = P( max_n |S(n)| / (sigma(n) v(n)) > u ),

with the max truncated at a stated horizon N?  empirical_sup_tail samples
paths with the counter-based generator so results are bit-identical for a
fixed seed no matter how many workers run.  Models dispatch on
sign_sum_degree alone.  One with a degree (sign chaos, d <= 3) is
simulated from the bit planes of the sign stream, eight steps per vector
operation, and exact_sup_tail counts its 2^N sign paths by a dynamic
program over the sign-sum lattice; every other model goes through
prefix_values, on a reused value tile or by enumeration.  Exact tails
are rationals, for small horizons.  single_time_tail gives the
single-time floor: exact integer binomial sums up to time
FLOOR_MAX_TIME, rounded toward zero, so verify imports no scipy.  On top
of those sit the calibration of the bound's constant, an enumeration
check of the Doob maximal-moment step, and iterated-logarithm trajectory
statistics.

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

# a path chunk reuses its buffers for all its step blocks: for sign chaos
# the bit-plane kernel's, about 3 MiB (eight int16 planes and three
# float64 arrays of PATH_CHUNK x STEP_BLOCK/8), for the weighted models
# one float64 value tile of PATH_CHUNK x STEP_BLOCK (4 MiB).  Of steps x
# paths 512x512, 1024x256, 1024x512, 1024x1024, 2048x256, 2048x512 and
# 4096x128, 1024x512 and 1024x1024 ran 2^15 chaos paths x 2^14 steps
# fastest on two threads of a 2-core Xeon; 1024x512 holds half as much
PATH_CHUNK = 512
STEP_BLOCK = 1024  # multiple of 64 so sign blocks tile the word stream
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
                  horizon: int, seed: int, path_lo: int,
                  path_hi: int) -> Tuple[np.ndarray, np.ndarray]:
    """Signed and absolute running maxima for paths [path_lo, path_hi).

    A model with a sign_sum_degree goes to the bit-plane kernel.  Other
    models reuse one float64 tile of (paths x STEP_BLOCK) values for
    every step block: prefix_values writes into it and the divide, max
    and min run in place on it, so a block allocates nothing of its size
    but its noise.  Their float64 sums depend on the order of addition,
    so they keep the one-step-at-a-time cumsum.  The absolute max comes
    from the signed max and min.
    """
    if model.sign_sum_degree:
        best, worst = _sign_chaos_extrema(model.sign_sum_degree, denom,
                                          first, horizon, seed, path_lo,
                                          path_hi)
        return best, np.maximum(best, -worst)
    n_paths = path_hi - path_lo
    best = np.full(n_paths, -np.inf)
    worst = np.full(n_paths, np.inf)
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


def _sign_chaos_extrema(d: int, denom: np.ndarray, first: int, horizon: int,
                        seed: int, path_lo: int,
                        path_hi: int) -> Tuple[np.ndarray, np.ndarray]:
    """Running max and min of degree-d sign chaos (d <= 3) over steps
    [first, horizon) for paths [path_lo, path_hi), from the bits of the
    stream.

    Byte k of a path's stream words holds steps 8k .. 8k+7, bit j being
    step 8k+j: the draws of rademacher_block.  Plane j is the (paths x
    bytes) array of the sign sum P1 at steps 8k+j, for every byte k at
    once.  It is the gain g_j of bits 0..j of the byte, g_j = g_(j-1) +
    2 bit_j - 1 (one vector add per plane), plus P1 before the byte,
    which one cumsum of g_7 over the bytes gives: an eighth of the
    serial work of a cumsum over steps.  The closed form turns P1 into S
    in int64 (float64 holds d = 1's sums exactly), and each plane is
    divided by denom at its own steps and folded into running (paths x
    bytes) max and min arrays; a plane skips the bytes whose step falls
    before first or at or past the horizon.  Values and quotients are
    those of prefix_values and the tile path, and max and min are exact,
    so the extrema are the same bit for bit.
    """
    n_paths = path_hi - path_lo
    # |P1| <= horizon, so int16 holds every sign sum below 2^15 steps
    sums = np.int16 if horizon < 1 << 15 else np.int64
    n_bytes = -(-horizon // 8)
    # per_plane[j, k] = denom at step 8k + j; the pad past the horizon is
    # never read, since every plane stops at the horizon
    padded = np.ones(8 * n_bytes)
    padded[:horizon] = denom
    per_plane = padded.reshape(n_bytes, 8).T.copy()
    width = min(STEP_BLOCK // 8, n_bytes)
    top = np.full((n_paths, width), -np.inf)
    bottom = np.full((n_paths, width), np.inf)
    plane = np.empty((n_paths, width))
    gains = np.empty((8, n_paths, width), dtype=sums)
    byte = np.empty((n_paths, width), dtype=sums)
    sign = np.empty((n_paths, width), dtype=sums)
    p1 = np.zeros((n_paths, 1), dtype=sums)
    for s0 in range(0, horizon, STEP_BLOCK):
        nb = -(-min(STEP_BLOCK, horizon - s0) // 8)
        words = stream_words(seed, path_lo, path_hi, s0 // 64, -(-nb // 8))
        b, s, g = byte[:, :nb], sign[:, :nb], gains[:, :, :nb]
        np.copyto(b, words.view(np.uint8)[:, :nb])
        for j in range(8):
            np.right_shift(b, j, out=s)
            s &= 1
            s += s
            s -= 1  # the sign of step 8k + j
            if j:
                np.add(g[j - 1], s, out=g[j])
            else:
                g[0] = s
        # P1 before each byte, then P1 after the block for the next one
        before = np.cumsum(g[7], axis=1, dtype=sums)
        before -= g[7]
        before += p1
        p1 = before[:, -1:] + g[7, :, -1:]
        k0 = s0 // 8
        for j in range(8):
            # the bytes whose step s0 + 8k + j lies in [first, horizon)
            k_lo = max(0, -(-(first - s0 - j) // 8))
            k_hi = min(nb, -(-(horizon - s0 - j) // 8))
            if k_lo >= k_hi:
                continue
            cols = slice(k_lo, k_hi)
            out = plane[:, cols]
            if d == 1:
                np.add(before[:, cols], g[j, :, cols], out=out)
            else:
                ints = out.view(np.int64)
                np.add(before[:, cols], g[j, :, cols], out=ints)
                n = s0 + j + 1 + 8 * np.arange(k_lo, k_hi, dtype=np.int64)
                _chaos_closed_form(d, ints, n, out=out)
            out /= per_plane[j, k0 + k_lo:k0 + k_hi]
            np.maximum(top[:, cols], out, out=top[:, cols])
            np.minimum(bottom[:, cols], out, out=bottom[:, cols])
    return top.max(axis=1), bottom.min(axis=1)


def _over_path_chunks(model: MartingaleModel, denom: np.ndarray, first: int,
                      horizon: int, seed: int,
                      n_paths: int) -> Tuple[np.ndarray, np.ndarray]:
    """Signed and absolute running maxima of paths [0, n_paths).

    Runs _chunk_maxima over spans of PATH_CHUNK paths (more when the
    horizon is shorter than a step block), threaded when it pays off.
    Each span's paths depend only on (seed, path index) and land in
    their own slice of the outputs, so the result is identical for any
    worker count.
    """
    signed = np.empty(n_paths)
    absed = np.empty(n_paths)

    def run(span):
        lo, hi = span
        signed[lo:hi], absed[lo:hi] = _chunk_maxima(
            model, denom, first, horizon, seed, lo, hi)

    # a tile holds PATH_CHUNK x STEP_BLOCK values at most; a horizon
    # shorter than one block gets proportionally more paths per chunk,
    # so short runs are not made of chunks too small to pay their way
    chunk = PATH_CHUNK * (STEP_BLOCK // min(horizon, STEP_BLOCK))
    spans = [(lo, min(lo + chunk, n_paths))
             for lo in range(0, n_paths, chunk)]
    workers = min(worker_count(), len(spans))
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
    signed, absed = _over_path_chunks(model, denom, first, horizon, seed,
                                      n_paths)
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
