"""Block partitions of the time axis and the tail bound built over them.

The bound for P(sup_n S(n)/(sigma(n) v(n)) > u) is a series over a block
partition {[A(k), B(k)]} of the positive integers: block k contributes

    exp(-conjugate(phi, u * sigma(A(k)) * v(A(k)) / sigma(B(k))))

and the final bound is the minimum of the series over a fixed family of
geometric partitions A(k) ~ ratio^(k-1), one per ratio in the family.
The level enters only through the scaled level x = C*u, so the bound is
one function B(x) = min_r S_r(x): each series S_r is nonincreasing in x,
hence so is B, and levels are evaluated independently of one another.

Deep sums need care on two fronts, both handled here:

  * block boundaries overflow float64 near k ~ 650 already for ratio 3,
    so boundaries are carried in log space (exact integers while
    ratio^(k-1) <= 2^52, where the min-gap and rounding rules can still
    bind; the pure (k-1)*log(ratio) form beyond, where they provably
    cannot), and one pass of sigma over log A(1..k_max+1) serves both
    ends of every block, B(k) = A(k+1) - 1;

  * for iterated-logarithm normings the terms decay polynomially in k,
    not geometrically.  One pass over the term ratios (_finish_sum)
    finds the first stop: three ratios below 1 and non-increasing whose
    geometric tail, last*rho/(1-rho), is below tol.  That residual rests
    on those three observed ratios alone: weightedA:beta=1,r=3 stops at
    k = 5 on ratios near 0.0015, and its ratios later climb to 0.995.
    64 ratios >= 1 - 0.01/k in a row before it make the sum divergent,
    +inf; a sum with neither runs to k_max and reports residual +inf.

Reported sums are the plain partial sums, with the residual that the
observed ratios imply or +inf: neither is proven to be at least the
infinite series, so no reported value is a certified upper bound.

Only the minimum over ratios is reported, so a series is summed in full
only for a ratio that can still win.  One stacked pass per level makes
the first 64 terms of every series, the same bits block_sum makes.
Terms are >= 0, so their sum less a rounding slack that depends on k_max
alone is at most the value the full series reports, unless the series
stops inside them (64 terms hold too few ratios to diverge).  A ratio
whose lower bound is above a full sum already made can neither be the
minimum nor tie it, so skipping it changes no bit of the report.

A ratio that the prefix does not rule out gets a second look before its
full sum: the envelope.  When phi has a closed-form conjugate and the
ratio's k_max block arguments are nondecreasing from block 64 on, its
terms are nonincreasing there, so the terms in a stretch (g', g] of a
grid of about 64 geometric points 64 = g_0 < g_1 < ... <= k_max add up
to at least (g - g') t_g.  The envelope sums these down to P, the last
grid point before the first whose term is at most half the term at the
grid point before it, or below 2*tol.  A certified stop at block k needs
t_k < t_(k-1)/2 (its ratios below 1/2) or t_k < tol (ratios from 1/2
on make the tail bound at least t_k), and neither can happen at a block
up to P, so the reported sum holds every term the envelope counts.  The
prefix bound plus the envelope, times the rounding slack above and
1 - 1e-9, is a lower bound on the reported value: closed-form terms lie
within about 1e-12 relative of the exact terms at the same arguments,
which are monotone, so a term inside a stretch is at least t_g times
1 - 1e-9 and the halving test carries the same slack.  On the default
grids this leaves one full sum per level, for the built-in generators
and convex tables alike.  A generator with no closed form takes no
envelope.  Its grid reaches arguments that a series stopping early
never does, where a solve can stall: power:q=3's numeric twin on
chaos:d=3 under a sqrt(n) norming stops at block 6 (ratio 7, x =
0.4587, tol 0.3), but an ungated envelope stalls at 3.6e207.  Its 64
lockstep solves cost about a 512-term sum: without the gate, default
bound on |lambda|^1.5 at step 2.5 ran 2.5x faster, a 3-level call at
k_max 512 1.2x slower.  A table's finite domain keeps its solves
finite, so tables could be gated on lambda0 instead.

A question about the minimum, "is B(x) >= t?" (bound_at_least, which
calibration asks), takes the ratios in the same order and stops at the
first prefix lower bound >= t or the first full sum below it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from typing import Callable, List, Optional, Sequence

import numpy as np

from .errors import DomainError
from .phi import PhiFunction, conjugate_many

DEFAULT_TOL = 1e-12
DEFAULT_KMAX = 20000
DEFAULT_RATIOS = tuple(np.geomspace(2.0, 32.0, 12))
#: consecutive term ratios >= 1 - 0.01/k before the sum is declared divergent
_DIVERGENCE_RUN = 64
#: exact integer boundaries are kept while ratio^(k-1) stays below this
_EXACT_CAP = 2.0 ** 52
_CHUNK = 256
#: leading terms of every series that optimized_bound sums up front
_PREFIX = 64
#: relative slack on the envelope: computed closed-form terms lie within
#: about 1e-12 relative of the exact terms, which are monotone
_ENVELOPE_SLACK = 1e-9
#: envelope terms stay normal floats, whose relative error is that small
_SMALLEST_NORMAL = 2.0 ** -1022


# ---------------------------------------------------------------------------
# partition boundaries
# ---------------------------------------------------------------------------

def _integer_boundaries(ratio: float, power_cap: float = math.inf):
    """A(1) = 1, A(2), ... with A(k) = max(A(k-1) + 2, round(ratio^(k-1))).

    The geometric boundary rule: _block_arguments carries it in log
    space for block_sum, and the partition oracles in tests/oracles.py
    materialize it; stops before the first A(k) with ratio^(k-1) >
    power_cap.
    """
    a, k = 1, 1
    while True:
        yield a
        power = ratio ** k
        if power > power_cap:
            return
        a = max(a + 2, int(round(power)))
        k += 1


@lru_cache(maxsize=256)
def _block_arguments(v: "NormingSequence", sigma: "SigmaProfile",
                     ratio: float, k_max: int) -> np.ndarray:
    """x_k = sigma(A(k)) v(A(k)) / sigma(B(k)) for k = 1..k_max, geometric
    family; an x_k of +inf is legal (its term is 0), a NaN one a
    DomainError.  Boundaries are exact integers while they fit in 2^52;
    beyond that A(k) = ratio^(k-1) exactly as far as float64 can tell
    (the min-gap rule needs a gap < 2, impossible once consecutive
    powers differ by >= 2^52, and rounding or the -1 of B(k) = A(k+1) - 1
    shifts log A by < 2^-52), so sigma(B(k)) is read off log A there.
    """
    # ints[i] = A(i+1) while exact
    ints = list(islice(_integer_boundaries(ratio, _EXACT_CAP), k_max + 1))
    n_exact = len(ints)
    log_a = np.empty(k_max + 1)
    log_a[:n_exact] = np.log(np.array(ints, dtype=float))
    log_a[n_exact:] = np.arange(n_exact, k_max + 1) * math.log(ratio)
    with np.errstate(over="ignore", invalid="ignore"):
        ls = sigma.log_sigma(log_a)
        args = ls[:-1] - ls[1:]
        args[:n_exact - 1] = ls[:n_exact - 1] - sigma.log_sigma(
            np.log(np.array(ints[1:], dtype=float) - 1.0))
        np.exp(args, out=args)
        args *= v.eval_log(log_a[:-1])
    undefined = np.flatnonzero(np.isnan(args))
    if len(undefined):
        raise DomainError(f"sigma profile {sigma.label} overflows float64 "
                          f"at block {undefined[0] + 1}, ratio {ratio:g}")
    return args


# ---------------------------------------------------------------------------
# norming sequences and variance profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class NormingSequence:
    """Positive nondecreasing divisor v(n) of the normalized statistic.

    evaluate takes n (scalar or array); eval_log takes log(n), the form
    deep block sums need when n itself overflows.
    """
    label: str
    evaluate: Callable
    eval_log: Callable


@dataclass(frozen=True, eq=False)
class SigmaProfile:
    """Standard-deviation profile sigma(n), positive and nondecreasing."""
    label: str
    evaluate: Callable
    log_sigma: Callable


def iterated_log_norming(r: float) -> NormingSequence:
    """v(n) = (log log(n + 3))^(1/r), the norming tied to rate exponent r."""
    if r <= 0:
        raise DomainError(f"rate exponent must be positive, got {r}")
    inv_r = 1.0 / r

    def ev(n):
        return np.log(np.log(np.asarray(n, dtype=float) + 3.0)) ** inv_r

    def ev_log(log_n):
        log_n = np.asarray(log_n, dtype=float)
        # log(n + 3) = log n + log1p(3/n), safe for any magnitude of log n
        ln3 = log_n + np.log1p(3.0 * np.exp(-np.minimum(log_n, 700.0)))
        # a large 1/r overflows v to +inf at deep blocks, where the block
        # term saturates to 0: the intended limit
        with np.errstate(over="ignore"):
            return np.log(ln3) ** inv_r

    return NormingSequence(label=f"vr:{r:g}", evaluate=ev, eval_log=ev_log)


def constant_norming(c: float = 1.0) -> NormingSequence:
    if c <= 0:
        raise DomainError(f"constant norming must be positive, got {c}")
    return NormingSequence(
        label=f"const:{c:g}",
        evaluate=lambda n: np.full_like(np.asarray(n, dtype=float), c),
        eval_log=lambda log_n: np.full_like(np.asarray(log_n, dtype=float), c))


# ---------------------------------------------------------------------------
# block terms and sums
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BlockSumResult:
    """One geometric-family series evaluation with its truncation status.

    value is the partial sum through k_used terms.  converged means the
    last three term ratios passed the stop rule, and residual_bound is
    the geometric tail those observed ratios imply, not a proven bound
    (see the module docstring); diverged means the terms stopped
    decaying and value is the +inf sentinel (a vacuous but valid
    probability bound).  A result with neither flag ran into k_max.
    residual_bound is finite only for a converged result: every other
    result reports +inf.
    """
    value: float
    k_used: int
    residual_bound: float
    converged: bool
    diverged: bool


@lru_cache(maxsize=16)
def _near_one_thresholds(n_ratios: int) -> np.ndarray:
    """1 - 0.01/k for the ratio of term k to term k-1, k = 2..n_ratios+1;
    cached, since built inline they lift a default analytic block_sum's
    peak from 381 kB to 640 kB, past three series arrays' 480 kB."""
    thresholds = 1.0 - 0.01 / np.arange(2, n_ratios + 2, dtype=float)
    thresholds.flags.writeable = False
    return thresholds


def _divergence_point(near_one: np.ndarray) -> Optional[int]:
    """Position in terms that ends the first run of _DIVERGENCE_RUN
    consecutive near-one ratios, None when there is no such run.  Runs
    are found from the gaps between breaks, not by the cumulative-sum
    window of tests/oracles.py, so that oracle checks this search."""
    if np.count_nonzero(near_one) < _DIVERGENCE_RUN:
        return None
    breaks = np.flatnonzero(~near_one)
    # gaps[i] is the run length between breaks i-1 and i, with virtual
    # breaks before the first ratio and after the last
    gaps = np.diff(breaks, prepend=-1, append=len(near_one)) - 1
    first = int(np.argmax(gaps >= _DIVERGENCE_RUN))
    if gaps[first] < _DIVERGENCE_RUN:
        return None
    start = int(breaks[first - 1]) + 1 if first else 0
    # ratio i belongs to term i+1, so the run ends at term start + RUN
    return start + _DIVERGENCE_RUN


def _term_ratios(terms: np.ndarray) -> np.ndarray:
    """Each term over the one before it, along the last axis.  A ratio
    whose earlier term is zero or NaN counts as +inf when the later term
    is positive, else 0."""
    prev, nxt = terms[..., :-1], terms[..., 1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        rr = nxt / prev
    undefined = ~(prev > 0)
    if undefined.any():
        rr[undefined] = 0.0
        rr[undefined & (nxt > 0)] = np.inf
    return rr


def _certified_windows(terms: np.ndarray, rr: np.ndarray, tol: float):
    """The windows of three ratios that certify a stop, as index arrays
    (one per axis of terms, the last giving the stop's position), in C
    order, with the tail bound of each.

    A window certifies when its ratios are below 1 and non-increasing
    and the dominated-tail bound t * rho/(1 - rho) at its last term is
    below tol.  The bound is evaluated only at the windows that pass the
    ratio tests.
    """
    r0, r1, r2 = rr[..., :-2], rr[..., 1:-1], rr[..., 2:]
    # triple (r0, r1, r2)[j] are the ratios of terms j+1, j+2, j+3, so a
    # certified window there stops the sum at term j+3; r0 < 1 with
    # r0 >= r1 >= r2 puts all three below 1 (a NaN fails every test), and
    # r0 is the window maximum
    cand = np.nonzero((r0 < 1.0) & (r0 >= r1) & (r1 >= r2))
    rho = r0[cand]
    stops = cand[:-1] + (cand[-1] + 3,)
    with np.errstate(divide="ignore", invalid="ignore"):
        tail = terms[stops] * rho / (1.0 - rho)
    cert = tail < tol
    return tuple(i[cert] for i in stops), tail[cert]


def _terms(phi: PhiFunction, u: float, args: np.ndarray) -> np.ndarray:
    """The block terms exp(-phi*(u * args)), 0 where a level or its
    conjugate overflows to +inf; the levels are freed before the terms
    are allocated, so at most two series arrays live at once."""
    with np.errstate(over="ignore"):
        conj = conjugate_many(phi, u * args)
        terms = np.negative(conj)
        np.exp(terms, out=terms)
    return terms


def _check_budget(tol: float, k_max: int) -> None:
    """A DomainError unless 0 < tol < 1 and k_max is an integer >= 1."""
    if not 0 < tol < 1:
        raise DomainError(f"tolerance must be in (0, 1), got {tol}")
    if not (isinstance(k_max, (int, np.integer)) and k_max >= 1):
        raise DomainError(f"k_max must be an integer >= 1, got {k_max}")


def block_sum(ratio: float, v: NormingSequence, sigma: SigmaProfile,
              phi: PhiFunction, u: float, tol: float = DEFAULT_TOL,
              k_max: int = DEFAULT_KMAX) -> BlockSumResult:
    """Series over the geometric partition with the given ratio.

    Evaluated fully vectorized for analytic-conjugate phi, otherwise in
    chunks of 256, 512, 1024, ... terms until the series stops early or
    diverges.  See the module docstring for the stop and divergence rules.
    """
    if not 0 < u < math.inf:
        raise DomainError(f"block_sum needs finite u > 0, got {u}")
    if not 2 <= ratio < math.inf:
        raise DomainError(f"geometric ratio must be finite and >= 2, "
                          f"got {ratio}")
    _check_budget(tol, k_max)
    args = _block_arguments(v, sigma, ratio, k_max)
    if phi.analytic_conjugate is not None:
        return _finish_sum(_terms(phi, u, args), tol)
    # the numeric conjugate bisects once per distinct level, so a series
    # that stops or diverges in its first chunk solves 256 levels, not
    # k_max; the first early stop and the first divergence point do not
    # depend on where chunks end, so growing the chunks only saves work
    terms = np.empty(k_max)
    lo, chunk = 0, _CHUNK
    while True:
        hi = min(lo + chunk, k_max)
        terms[lo:hi] = _terms(phi, u, args[lo:hi])
        res = _finish_sum(terms[:hi], tol)
        if res.converged or res.diverged or hi == k_max:
            return res
        lo, chunk = hi, chunk * 2


def _finish_sum(terms: np.ndarray, tol: float) -> BlockSumResult:
    """The result for a term array: converged at its first certified stop
    (_certified_windows), diverged at a divergence point before it, else
    truncated.  One divide makes its ratios (_term_ratios)."""
    n, residual, div = len(terms), math.inf, None
    if n >= 4:
        rr = _term_ratios(terms)
        div = _divergence_point(rr >= _near_one_thresholds(n - 1))
        (cert,), tails = _certified_windows(terms, rr, tol)
        if len(cert) and (div is None or cert[0] <= div):
            n, residual, div = int(cert[0]) + 1, float(tails[0]), None
    if div is not None:
        return BlockSumResult(value=math.inf, k_used=div + 1,
                              residual_bound=math.inf,
                              converged=False, diverged=True)
    # a certified residual is below tol, so finite
    return BlockSumResult(value=float(terms[:n].sum()), k_used=n,
                          residual_bound=residual,
                          converged=residual < math.inf, diverged=False)


# ---------------------------------------------------------------------------
# the optimized bound
# ---------------------------------------------------------------------------

def _keep(k_max: int) -> float:
    """The factor that turns a float sum of terms made by block_sum into
    a number no larger than a full sum that holds them.

    Terms are >= 0, and a float sum of n of them lies within a factor
    1 -+ gamma_n of its exact sum in any order (gamma_n = n*eps/(1 -
    n*eps), eps = 2^-53).  A full sum holds at most k_max terms, so it
    is at least (1 - gamma_k_max) times the exact sum of the terms it
    holds, and a computed sum of m <= k_max of them times keep, rounded
    twice, at most (1 + gamma_m)(1 + eps)^2 (1 - slack) times theirs.
    The slack 4*k_max*eps covers gamma_m + gamma_k_max + 2*eps, and
    makes keep <= 0 (no series is skipped) long before k_max is large
    enough for it not to.
    """
    return 1.0 - 4.0 * k_max * 2.0 ** -53


def _prefix_lower_bounds(phi: PhiFunction, x: float, heads: np.ndarray,
                         tol: float, k_max: int) -> np.ndarray:
    """Per row of leading block arguments, a number no larger than the
    value block_sum reports for that series at level x.

    The terms made here are bit for bit block_sum's leading terms, since
    conjugate_many works point by point.  A series that stops inside
    them may report less than their sum, so it gets -inf; one stop test
    covers every row.  A prefix holds fewer than _DIVERGENCE_RUN ratios,
    so no series diverges inside it.  Any other series sums every one of
    them: a converged sum stops past them, a truncated one runs to
    k_max, and a divergent one is +inf.
    """
    terms = _terms(phi, x, heads)
    (stopped, _), _ = _certified_windows(terms, _term_ratios(terms), tol)
    lows = terms.sum(axis=1) * _keep(k_max)
    lows[stopped] = -math.inf
    return lows


@lru_cache(maxsize=256)
def _envelope_points(v: "NormingSequence", sigma: "SigmaProfile",
                     ratio: float, k_max: int):
    """(widths g_j - g_(j-1), block arguments at g_0, g_1, ...) on the
    blocks _PREFIX = g_0 < g_1 < ... < g_m = k_max, about _PREFIX
    geometric steps apart, or None when the k_max block arguments are
    not nondecreasing from block _PREFIX on, where the envelope does not
    hold.  Needs k_max > _PREFIX.  A Python set drops the repeated grid
    points: np.unique imports numpy.ma on its first call."""
    args = _block_arguments(v, sigma, ratio, k_max)[_PREFIX - 1:]
    if not np.all(args[:-1] <= args[1:]):
        return None
    step = (k_max / _PREFIX) ** (1.0 / _PREFIX)
    grid = np.array(sorted({round(_PREFIX * step ** j)
                            for j in range(_PREFIX)} | {k_max}))
    return np.diff(grid).astype(float), args[grid - _PREFIX]


def _envelope_lower_bound(phi: PhiFunction, x: float, low: float,
                          v: "NormingSequence", sigma: "SigmaProfile",
                          ratio: float, tol: float, k_max: int) -> float:
    """The prefix lower bound low of a ratio's series at level x, raised
    by the envelope of its terms _PREFIX + 1 .. P (see the module
    docstring); low itself where the envelope does not apply."""
    if phi.analytic_conjugate is None or k_max <= _PREFIX:
        return low
    points = _envelope_points(v, sigma, ratio, k_max)
    if points is None:
        return low
    widths, args = points
    t = _terms(phi, x, args)
    holds = (2.0 * t[1:] > (1.0 + _ENVELOPE_SLACK) * t[:-1]) \
        & (t[1:] >= max(2.0 * tol, _SMALLEST_NORMAL))
    n = len(holds) if holds.all() else int(holds.argmin())
    envelope = float(widths[:n] @ t[1:n + 1])
    return (low + envelope * _keep(k_max)) * (1.0 - _ENVELOPE_SLACK)


def _ratio_family(v: NormingSequence, sigma: SigmaProfile,
                  ratio_grid: Optional[Sequence[float]], tol: float,
                  k_max: int):
    """The distinct ratios searched, sorted, and the first _PREFIX block
    arguments of each as the rows of one array; a DomainError for an
    empty or invalid family or budget.  The heads are computed on their
    own, so only a ratio summed in full pays for its k_max arguments."""
    ratios = sorted({float(r) for r in
                     (DEFAULT_RATIOS if ratio_grid is None else ratio_grid)})
    if not ratios or not all(2 <= r < math.inf for r in ratios):
        raise DomainError("candidate ratios must be a nonempty set of "
                          "finite values >= 2")
    _check_budget(tol, k_max)
    heads = np.stack([_block_arguments(v, sigma, r, min(_PREFIX, k_max))
                      for r in ratios])
    return ratios, heads


def _by_prefix_bound(phi: PhiFunction, x: float, heads: np.ndarray,
                     tol: float, k_max: int):
    """(row, lower bound) for every ratio at level x, lowest bound first
    (see _prefix_lower_bounds); equal bounds keep the ratio order."""
    lows = _prefix_lower_bounds(phi, x, heads, tol, k_max)
    order = np.argsort(lows, kind="stable")
    return zip(order.tolist(), lows[order].tolist())


@dataclass(frozen=True)
class BoundReport:
    """Per-u optimized series values with full truncation diagnostics."""
    u_grid: tuple
    q_sums: tuple
    chosen_ratios: tuple
    k_used: tuple
    residual_bounds: tuple
    flags: tuple  # per u: "converged" | "truncated" | "divergent"
    c_used: float

    @property
    def all_divergent(self) -> bool:
        return all(f == "divergent" for f in self.flags)

    def to_dict(self) -> dict:
        return {
            "u": list(self.u_grid),
            "bound": list(self.q_sums),
            "ratio_chosen": list(self.chosen_ratios),
            "k_used": list(self.k_used),
            "residual_bound": list(self.residual_bounds),
            "flag": list(self.flags),
            "C": self.c_used,
        }


def _levels(u_grid: Sequence[float]) -> List[float]:
    """The levels a bound is taken at, as floats; a DomainError unless
    they are nonempty, finite and positive."""
    us = [float(u) for u in u_grid]
    if not us or not all(0 < u < math.inf for u in us):
        raise DomainError("u grid must be nonempty, finite and positive")
    return us


def optimized_bound(v: NormingSequence, sigma: SigmaProfile, phi: PhiFunction,
                    u_grid: Sequence[float], C: float = 1.0,
                    ratio_grid: Optional[Sequence[float]] = None,
                    tol: float = DEFAULT_TOL,
                    k_max: int = DEFAULT_KMAX) -> BoundReport:
    """B(C*u) = min over ratio_grid of the block series at level C*u, per u.

    ratio_grid (default DEFAULT_RATIOS) is exactly the family searched,
    and each level is evaluated on its own: the value at u depends only
    on the scaled level C*u, never on the other levels in the grid.  Each
    series is nonincreasing in its level, so q_sums are nonincreasing in
    u; ties go to the smallest ratio.

    Ratios are visited in order of a lower bound from their first 64
    terms (see _prefix_lower_bounds), and block_sum runs only for a ratio
    whose lower bound, raised by the envelope of its later terms (see
    _envelope_lower_bound), is not above the smallest sum so far.  A
    skipped ratio's value is strictly above that sum, so the report is
    the one block_sum over every ratio gives, bit for bit.
    """
    if not 0 < C < math.inf:
        raise DomainError(f"theorem constant must be positive and finite, "
                          f"got {C}")
    us = _levels(u_grid)
    ratios, heads = _ratio_family(v, sigma, ratio_grid, tol, k_max)
    q_sums, chosen, k_used, residuals, flags = [], [], [], [], []
    for u in us:
        x = C * u
        results, best = {}, math.inf
        for i, low in _by_prefix_bound(phi, x, heads, tol, k_max):
            # this series cannot be below, nor tie, a sum already made
            if low > best or _envelope_lower_bound(
                    phi, x, low, v, sigma, ratios[i], tol, k_max) > best:
                continue
            res = results[i] = block_sum(ratios[i], v, sigma, phi, x, tol,
                                         k_max)
            best = min(best, res.value)
        i = min(sorted(results), key=lambda j: results[j].value)
        res = results[i]
        q_sums.append(res.value)
        chosen.append(ratios[i])
        k_used.append(res.k_used)
        residuals.append(res.residual_bound)
        flags.append("divergent" if res.diverged
                     else "converged" if res.converged else "truncated")
    return BoundReport(u_grid=tuple(us), q_sums=tuple(q_sums),
                       chosen_ratios=tuple(chosen), k_used=tuple(k_used),
                       residual_bounds=tuple(residuals), flags=tuple(flags),
                       c_used=C)


def bound_at_least(v: NormingSequence, sigma: SigmaProfile, phi: PhiFunction,
                   x: float, target: float,
                   ratio_grid: Optional[Sequence[float]] = None,
                   tol: float = DEFAULT_TOL,
                   k_max: int = DEFAULT_KMAX) -> bool:
    """Whether B(x) >= target: optimized_bound(v, sigma, phi, [x], ...)
    .q_sums[0] >= target, decided with as few full series as it needs.

    B(x) is the minimum over the ratios, so it reaches target exactly
    when every series does.  Ratios are visited as optimized_bound visits
    them, lowest prefix lower bound first: the answer is True at the
    first lower bound >= target, which every later series is above too,
    and False at the first full sum that is not >= target.
    """
    x, = _levels([x])
    ratios, heads = _ratio_family(v, sigma, ratio_grid, tol, k_max)
    for i, low in _by_prefix_bound(phi, x, heads, tol, k_max):
        if low >= target:
            return True
        if not block_sum(ratios[i], v, sigma, phi, x, tol,
                         k_max).value >= target:
            return False
    return True


# ---------------------------------------------------------------------------
# rate-form fit and lower bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RateFit:
    """Least-squares fit of log(bound) against -C * u^r * L(u)."""
    c_hat: float
    max_rel_residual: float
    flagged: bool
    report: BoundReport


def fit_rate_form(phi: PhiFunction, sigma: SigmaProfile, r: float,
                  u_grid: Sequence[float],
                  norming: Optional[NormingSequence] = None,
                  C: float = 1.0,
                  L: Optional[Callable[[np.ndarray], np.ndarray]] = None,
                  ratio_grid: Optional[Sequence[float]] = None) -> RateFit:
    """Check that the optimized bound follows exp(-c * u^r * L(u)).

    The slope c_hat comes from a through-origin least-squares fit of
    log(bound); the fit quality is the largest relative deviation from
    the fitted line.  The theorem constant C must be chosen so the bound
    is below 1 on the whole grid (a vacuous bound has nonnegative log
    and no exponential rate to fit); the result is flagged when the
    residual exceeds 10% or the grid is outside that regime.
    """
    if r <= 0:
        raise DomainError(f"rate exponent must be positive, got {r}")
    v = norming if norming is not None else iterated_log_norming(r)
    report = optimized_bound(v, sigma, phi, u_grid, C=C,
                             ratio_grid=ratio_grid)
    us = np.asarray(report.u_grid)
    q = np.asarray(report.q_sums)
    x = us ** r if L is None else us ** r * np.asarray(L(us), dtype=float)
    if np.any(~np.isfinite(q)) or np.any(q >= 1.0) or np.any(q <= 0.0):
        return RateFit(c_hat=math.nan, max_rel_residual=math.inf,
                       flagged=True, report=report)
    y = np.log(q)
    c_hat = -float(x @ y) / float(x @ x)
    rel = np.abs(y + c_hat * x) / np.abs(c_hat * x)
    worst = float(rel.max())
    return RateFit(c_hat=c_hat, max_rel_residual=worst,
                   flagged=worst > 0.10, report=report)


def single_time_lower_bound(tail_at_n0: Callable[[float], float], n0: int,
                            v: NormingSequence, u: float) -> float:
    """Tail of the normalized value at one fixed time as a sup-tail floor.

    The sup over n of S(n)/(sigma(n) v(n)) exceeds u whenever the single
    time n0 does, so P(S(n0)/sigma(n0) > u * v(n0)) is a lower bound on
    the sup-tail probability.  tail_at_n0(x) is P(S(n0)/sigma(n0) > x),
    and v is evaluated at n0.  The threshold is the one rounded product
    u * v(n0), so at a level where the statistic's own float test,
    S(n0) / fl(sigma(n0) v(n0)) > u, decides otherwise, this floor can
    differ from the tail of that statistic.  `lilbound verify` reports
    verify.single_time_tail with the run's norming instead, which makes
    that test.
    """
    if n0 < 1:
        raise DomainError(f"n0 must be a positive index, got {n0}")
    return float(tail_at_n0(u * float(v.evaluate(n0))))
