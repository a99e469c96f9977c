"""Exact test oracles: the numeric conjugate and inverse one point at a
time, partitions materialized block by block, block arguments from
separate log A and log B lists, the exhaustive partition optimum, the
whole-array series scan, the optimized bound with every ratio's series
summed, exact single-path steppers, single-time tail counts by
enumerating every sign path, and the single-time floor from the whole
binomial row.

The library evaluates the bound through log-space boundaries and
simulates paths in float64 blocks; the oracles here compute the same
objects the slow, literal way (integer boundaries, one block term at a
time, unbounded integers and Fractions), so the tests can hold the fast
paths to them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, islice, takewhile
from typing import Callable, NamedTuple

import numpy as np

from lilbound.engine import (_DIVERGENCE_RUN, _EXACT_CAP, DEFAULT_KMAX,
                             DEFAULT_RATIOS, DEFAULT_TOL, BoundReport,
                             NormingSequence, SigmaProfile,
                             _integer_boundaries, block_sum)
from lilbound.errors import (DomainError, NonconvergenceError,
                             UnreachableValueError)
from lilbound.phi import (CONJUGATE_TOL, MAX_ITER, PhiFunction, _domain_cap,
                          conjugate, conjugate_many)
from lilbound.models import _chaos_values, _check_chaos_range
from lilbound.verify import _ratio_toward_zero, _sign_matrix


# ---------------------------------------------------------------------------
# the numeric conjugate and inverse, one point at a time
# ---------------------------------------------------------------------------

def _scalar_slope(phi: PhiFunction, lam: float, cap: float) -> float:
    """Two-sided difference quotient, one-sided against the domain edge."""
    h = 1e-6 * max(1.0, abs(lam))
    hi = min(lam + h, cap)
    lo = max(lam - h, 0.0)
    if hi <= lo:
        return math.inf
    try:
        num = phi.evaluate(hi) - phi.evaluate(lo)
    except OverflowError:
        return math.inf
    if math.isnan(num):
        return math.inf
    return num / (hi - lo)


def _scalar_bisect(f: Callable[[float], float], target: float, cap: float,
                   rtol: float, max_iter: int, failure: str):
    """Bracket, then bisect, where the nondecreasing f first reaches target
    on [0, cap]; returns (lo, hi, reached).

    The right end doubles from min(1, cap) until f reaches target there;
    at a finite edge f never reaches, (lo, cap, False) returns with no
    halving.  Halving stops once hi - lo <= rtol * max(1, hi); 601
    doublings short of target and edge raise NonconvergenceError(failure).
    """
    lo, hi = 0.0, min(1.0, cap)
    for _ in range(602):
        if f(hi) >= target:
            break
        if hi >= cap:
            return lo, hi, False
        lo, hi = hi, min(hi * 2.0, cap)
    else:
        raise NonconvergenceError(failure)
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if f(mid) >= target:
            hi = mid
        else:
            lo = mid
        if hi - lo <= rtol * max(1.0, hi):
            break
    return lo, hi, True


def scalar_conjugate(phi: PhiFunction, u: float, tol: float = CONJUGATE_TOL,
                     max_iter: int = MAX_ITER):
    """sup(lambda*u - phi(lambda)) by bisection on the difference
    quotient in plain Python floats, the closed forms ignored; returns
    (value, residual), with (0, 0) at u = 0 and the edge value where the
    slope never reaches u."""
    if u == 0.0:
        return 0.0, 0.0
    cap = _domain_cap(phi)

    def objective(lam):
        return lam * u - phi.evaluate(lam)

    lo, hi, reached = _scalar_bisect(
        lambda lam: _scalar_slope(phi, lam, cap), u, cap, 1e-13, max_iter,
        f"conjugate bracketing failed for {phi.label} at u={u:g}")
    if not reached:  # the objective rises up to the domain edge
        return max(objective(cap), 0.0), 0.0
    lam = 0.5 * (lo + hi)
    f_lo, f_mid, f_hi = objective(lo), objective(lam), objective(hi)
    value = max(f_lo, f_mid, f_hi, 0.0)
    residual = value - min(f_lo, f_mid, f_hi)
    if not math.isfinite(value) or residual > max(tol, 1e-12 * value):
        raise NonconvergenceError(
            f"conjugate of {phi.label} at u={u:g} stalled "
            f"(residual {residual:.3e})", residual=residual)
    return value, residual


def scalar_phi_inverse(phi: PhiFunction, p: float) -> float:
    """The lambda with phi(lambda) = p > 0 by bisection on phi in plain
    Python floats, the closed form ignored; an UnreachableValueError past
    sup phi."""
    cap = _domain_cap(phi)
    lo, hi, reached = _scalar_bisect(
        phi.evaluate, p, cap, 1e-14, MAX_ITER,
        f"phi_inverse bracketing failed for {phi.label} at p={p:g}")
    if not reached:
        raise UnreachableValueError(
            f"{phi.label}: p = {p:g} exceeds sup phi = "
            f"{phi.evaluate(cap):g} on the open domain")
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# partitions and block terms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Partition:
    """Consecutive blocks [A(k), B(k)] tiling [1, A(K+1)-1].

    a_values holds A(1..K+1); block k is [a_values[k-1], a_values[k]-1],
    so the invariant A(k+1) >= A(k) + 2 gives every block length >= 2.
    """
    a_values: tuple

    def __post_init__(self):
        a = tuple(int(x) for x in self.a_values)
        if len(a) < 2 or a[0] != 1:
            raise DomainError("partition needs A(1) = 1 and at least one block")
        for prev, nxt in zip(a, a[1:]):
            if nxt < prev + 2:
                raise DomainError(
                    f"block starting at {prev} is shorter than 2 "
                    f"(next boundary {nxt})")
        object.__setattr__(self, "a_values", a)

    @property
    def depth(self) -> int:
        return len(self.a_values) - 1

    @property
    def b_values(self) -> tuple:
        return tuple(x - 1 for x in self.a_values[1:])

    def block(self, k: int) -> tuple:
        """(A(k), B(k)) for 1-based block index k."""
        if not 1 <= k <= self.depth:
            raise DomainError(f"block index {k} outside 1..{self.depth}")
        return self.a_values[k - 1], self.a_values[k] - 1


def geometric_partition(ratio: float, depth: int) -> Partition:
    """Materialized geometric partition A(k) = max(prev + 2, round(ratio^(k-1))).

    For deep tail sums use :func:`block_sum`, which carries the same
    boundaries in log space instead of materializing them.
    """
    if ratio < 2:
        raise DomainError(f"geometric ratio must be >= 2, got {ratio}")
    if depth < 1:
        raise DomainError(f"depth must be >= 1, got {depth}")
    if ratio ** depth > 2.0 ** 60:
        raise DomainError(
            f"ratio {ratio} at depth {depth} exceeds exact integer range; "
            f"use block_sum for deep evaluation")
    return Partition(tuple(islice(_integer_boundaries(ratio), depth + 1)))


def block_term(k: int, partition: Partition, v: NormingSequence,
               sigma: SigmaProfile, phi: PhiFunction, u: float) -> float:
    """Contribution of block k: exp(-phi*(u sigma(A) v(A) / sigma(B)))."""
    if u <= 0:
        raise DomainError(f"block_term needs u > 0, got {u}")
    a, b = partition.block(k)
    arg = u * float(sigma.evaluate(a)) * float(v.evaluate(a)) \
        / float(sigma.evaluate(b))
    return math.exp(-conjugate(phi, arg))


def _log_boundaries(ratio: float, k_max: int):
    """(log A(k), log B(k)) arrays for k = 1..k_max, geometric family,
    as two separate lists (see block_arguments_oracle)."""
    log_q = math.log(ratio)
    # ints[i] = A(i+1) while exact
    ints = list(islice(_integer_boundaries(ratio, _EXACT_CAP), k_max + 1))
    n_exact = len(ints)
    log_a = np.empty(k_max + 1)
    log_a[:n_exact] = np.log(np.array(ints, dtype=float))
    if n_exact <= k_max:
        log_a[n_exact:] = np.arange(n_exact, k_max + 1, dtype=float) * log_q
    # B(k) = A(k+1) - 1; the -1 is kept only while boundaries are exact
    log_b = log_a[1:].copy()
    if n_exact >= 2:
        log_b[:n_exact - 1] = np.log(np.array(ints[1:], dtype=float) - 1.0)
    return log_a[:k_max], log_b


def block_arguments_oracle(v: NormingSequence, sigma: SigmaProfile,
                           ratio: float, k_max: int) -> np.ndarray:
    """engine._block_arguments with log B(k) as a second k_max-long
    array and sigma evaluated on each end's list in full: 2*k_max
    points, where the engine reads sigma(B(k)) off its log A list."""
    log_a, log_b = _log_boundaries(ratio, k_max)
    with np.errstate(over="ignore", invalid="ignore"):
        args = np.exp(sigma.log_sigma(log_a) - sigma.log_sigma(log_b)) \
            * v.eval_log(log_a)
    undefined = np.flatnonzero(np.isnan(args))
    if len(undefined):
        raise DomainError(f"sigma profile {sigma.label} overflows float64 "
                          f"at block {undefined[0] + 1}, ratio {ratio:g}")
    return args


# ---------------------------------------------------------------------------
# exhaustive partition oracle
# ---------------------------------------------------------------------------

def dp_partition_oracle(v: NormingSequence, sigma: SigmaProfile,
                        phi: PhiFunction, u: float, n_max: int) -> float:
    """Exact minimum of the series over ALL partitions of [1, n_max].

    Dynamic program over block boundaries on the truncated horizon;
    cost[j] is the cheapest way to tile [1, j] with blocks of length >= 2.
    The truncation lets the optimum spend arbitrarily many short blocks
    near the horizon, a structure no convergent infinite partition can
    imitate, so compare against :func:`geometric_prefix_sum` (the same
    truncated objective), not against the infinite series, and only
    where the leading blocks dominate.
    """
    if u <= 0:
        raise DomainError(f"oracle needs u > 0, got {u}")
    if n_max < 2:
        raise DomainError("horizon too small for a single block")
    n = np.arange(0, n_max + 1, dtype=float)
    n[0] = 1.0  # unused slot, keep evaluate() happy
    sig = np.asarray(sigma.evaluate(n), dtype=float)
    vv = np.asarray(v.evaluate(n), dtype=float)
    cost = np.full(n_max + 1, np.inf)
    cost[0] = 0.0
    lead = u * sig * vv  # u * sigma(a) * v(a), indexed by a
    for j in range(2, n_max + 1):
        a = np.arange(1, j)
        terms = np.exp(-conjugate_many(phi, lead[a] / sig[j]))
        cost[j] = float(np.min(cost[a - 1] + terms))
    return float(cost[n_max])


def geometric_prefix_sum(ratio: float, v: NormingSequence,
                         sigma: SigmaProfile, phi: PhiFunction, u: float,
                         n_max: int) -> float:
    """Geometric-partition series clipped to the horizon [1, n_max].

    The last block is cut at n_max so the objective matches
    :func:`dp_partition_oracle` block for block.
    """
    if u <= 0:
        raise DomainError(f"prefix sum needs u > 0, got {u}")
    if ratio < 2:
        raise DomainError(f"geometric ratio must be >= 2, got {ratio}")
    a_list = list(takewhile(lambda a: a <= n_max,
                            _integer_boundaries(ratio)))
    total = 0.0
    for i, a in enumerate(a_list):
        b = a_list[i + 1] - 1 if i + 1 < len(a_list) else n_max
        arg = u * float(sigma.evaluate(a)) * float(v.evaluate(a)) \
            / float(sigma.evaluate(b))
        total += math.exp(-conjugate(phi, arg))
    return total


# ---------------------------------------------------------------------------
# series scan
# ---------------------------------------------------------------------------

def scan_terms(terms: np.ndarray, tol: float):
    """The first certified stop or divergence point that engine._finish_sum
    finds, as a dozen whole-array passes: every ratio by np.where, the
    divergence run by a cumulative sum, and the tail bound at every
    window.  Returns (stop, residual, divergence): 0-based positions in
    terms, None and a NaN residual where the sum neither stops nor
    diverges."""
    m = len(terms)
    if m < 4:
        return None, math.nan, None
    prev = terms[:-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        rr = np.where(prev > 0, terms[1:] / prev,
                      np.where(terms[1:] > 0, np.inf, 0.0))
    k = np.arange(2, m + 1, dtype=float)  # 1-based index of each ratio's term
    near_one = rr >= 1.0 - 0.01 / k
    div_idx = None
    if m - 1 >= _DIVERGENCE_RUN:
        csum = np.concatenate(([0], np.cumsum(near_one)))
        runs = csum[_DIVERGENCE_RUN:] - csum[:-_DIVERGENCE_RUN]
        hits = np.nonzero(runs == _DIVERGENCE_RUN)[0]
        if len(hits):
            div_idx = int(hits[0]) + _DIVERGENCE_RUN  # position in terms
    r0, r1, r2 = rr[:-2], rr[1:-1], rr[2:]
    window = (r2 < 1.0) & (r1 < 1.0) & (r0 < 1.0) & (r0 >= r1) & (r1 >= r2)
    # triple (r0, r1, r2)[j] are the ratios of terms j+1, j+2, j+3, so a
    # certified window there stops the sum at term j+3; r0 is the window
    # maximum by the non-increasing requirement
    with np.errstate(divide="ignore", invalid="ignore"):
        tail = terms[3:] * r0 / (1.0 - r0)
    ok = window & (tail < tol)
    stop = None
    residual = math.nan
    cert = np.nonzero(ok)[0]
    if len(cert):
        stop = int(cert[0]) + 3
        residual = float(tail[cert[0]])
    if div_idx is not None and (stop is None or div_idx < stop):
        return None, math.nan, div_idx
    return stop, residual, None


# ---------------------------------------------------------------------------
# optimized bound
# ---------------------------------------------------------------------------

def optimized_bound_oracle(v: NormingSequence, sigma: SigmaProfile,
                           phi: PhiFunction, u_grid, C: float = 1.0,
                           ratio_grid=None, tol: float = DEFAULT_TOL,
                           k_max: int = DEFAULT_KMAX) -> BoundReport:
    """engine.optimized_bound on valid inputs with no ratio skipped: the
    full block_sum of every ratio at every level C*u, and the first
    ratio in sorted order with the smallest value."""
    ratios = sorted(float(r) for r in
                    (DEFAULT_RATIOS if ratio_grid is None else ratio_grid))
    us = [float(u) for u in u_grid]
    q_sums, chosen, k_used, residuals, flags = [], [], [], [], []
    for u in us:
        ratio, res = min(((r, block_sum(r, v, sigma, phi, C * u, tol, k_max))
                          for r in ratios), key=lambda pair: pair[1].value)
        q_sums.append(res.value)
        chosen.append(ratio)
        k_used.append(res.k_used)
        residuals.append(res.residual_bound)
        flags.append("divergent" if res.diverged
                     else "converged" if res.converged else "truncated")
    return BoundReport(u_grid=tuple(us), q_sums=tuple(q_sums),
                       chosen_ratios=tuple(chosen), k_used=tuple(k_used),
                       residual_bounds=tuple(residuals), flags=tuple(flags),
                       c_used=C)


# ---------------------------------------------------------------------------
# exact single-path steppers
# ---------------------------------------------------------------------------

def elementary_symmetric_prefix(d: int, signs: np.ndarray, state=None):
    """e_d of each row's +-1 signs after every step of a (paths x steps)
    block, by the DP over the signs, e_j <- e_j + eps e_(j-1) for j = d
    down to 1 (all j at once, from the values before the step), in
    Python ints.

    state holds e_0 .. e_d of every path before the block, as a (d + 1)
    x paths object array (None at the start); returns (an object array
    of e_d, the state after)."""
    paths, steps = np.shape(signs)
    if state is None:
        state = np.zeros((d + 1, paths), dtype=object)
        state[0] = 1
    e = state.copy()
    signs = np.asarray(signs).astype(object).T
    out = np.empty((steps, paths), dtype=object)
    for i in range(steps):
        e[1:] += signs[i] * e[:-1]
        out[i] = e[d]
    return out.T, e


def elementary_symmetric_lattice(d: int, horizon: int):
    """e_d of every walk of up to horizon +-1 steps, by the same DP over
    the signs in Python ints, on the lattice of its plus count:
    table[n][k] is e_d after n steps of which k are +1."""
    # e[j][k] at time n; a walk at time n with k plus signs ends in a
    # plus sign (from k - 1 at n - 1) or, for k = 0, a minus sign
    e = [[1]] + [[0] for _ in range(d)]
    table = [e[d]]
    for n in range(1, horizon + 1):
        e = [[1] * (n + 1)] + [
            [e[j][0] - e[j - 1][0]] + [e[j][k - 1] + e[j - 1][k - 1]
                                       for k in range(1, n + 1)]
            for j in range(1, d + 1)]
        table.append(e[d])
    return table


def chaos_numerator(d: int, p: int, n: int) -> int:
    """N_d = d! e_d of n signs summing to p, as a polynomial in (p, n),
    in Python ints.  With a = (n + p)/2 plus signs and b = (n - p)/2
    minus signs, e_d = sum_k C(a, k) C(b, d - k) (-1)^(d - k) with the
    binomials as polynomials, so it holds at any integers p and n (a
    walk's or not); each falling factor a - i is (n + p - 2i)/2."""
    total = 0
    for k in range(d + 1):
        term = math.comb(d, k) * (-1) ** (d - k)
        for i in range(k):
            term *= n + p - 2 * i
        for i in range(d - k):
            term *= n - p - 2 * i
        total += term
    assert total % 2 ** d == 0
    return total // 2 ** d


class ChaosState:
    """Exact elementary-symmetric coefficients of the signs seen so far.

    e[j] is the degree-j elementary symmetric polynomial in
    (eps(1), ..., eps(n)) as an unbounded Python integer, so identity
    checks are exact at any depth.
    """

    __slots__ = ("e", "n")

    def __init__(self, d: int):
        self.e = [1] + [0] * d
        self.n = 0

    def step(self, eps: int) -> "ChaosState":
        if eps not in (-1, 1):
            raise DomainError(f"sign step must be +-1, got {eps}")
        for j in range(len(self.e) - 1, 0, -1):
            self.e[j] += eps * self.e[j - 1]
        self.n += 1
        return self


class Stepper(NamedTuple):
    """Exact walk of one path: new_state() starts it, step(state, eps)
    takes one sign, read_s(state) is S(n) as an int or a Fraction."""
    new_state: Callable
    step: Callable
    read_s: Callable


def chaos_stepper(d: int) -> Stepper:
    """Degree-d sign chaos through the elementary-symmetric recursion."""
    return Stepper(new_state=lambda: ChaosState(d),
                   step=lambda st, eps: st.step(eps),
                   read_s=lambda st: st.e[d])


def weighted_stepper(beta: float) -> Stepper:
    """S(n) = sum_{k<=n} 2^{-k} beta eps(k) in Fraction arithmetic."""
    beta_exact = Fraction(beta)

    def step(state, eps):
        n, s = state
        if eps not in (-1, 1):
            raise DomainError("exact stepper supports sign noise only")
        return (n + 1, s + eps * beta_exact / Fraction(2) ** (n + 1))

    return Stepper(new_state=lambda: (0, Fraction(0)), step=step,
                   read_s=lambda state: state[1])


# ---------------------------------------------------------------------------
# sign-path enumeration
# ---------------------------------------------------------------------------

def enumerated_single_time_tail(model, n0: int, thresholds):
    """P(S(n0)/sigma(n0) > x) as Fractions over all 2^n0 sign paths."""
    eps = _sign_matrix(0, 1 << n0, n0)
    values, _ = model.prefix_values(eps)
    sig = float(model.sigma_exact(np.array([float(n0)]))[0])
    final = values[:, -1] / sig
    return [Fraction(int(np.count_nonzero(final > x)), 1 << n0)
            for x in thresholds]


def binomial_single_time_tail(model, n0: int, thresholds) -> np.ndarray:
    """verify.single_time_tail for sign chaos, walking the whole row.

    One walk over k = 0..n0/2 carries C(n0, k) by its recurrence and
    adds it to the bucket of how many thresholds its value (and the
    value at n0 - k) passes; suffix sums of the buckets are the exact
    tails, divided by 2^n0 and rounded toward zero.
    """
    xs = np.asarray(thresholds, dtype=float)
    sig = float(model.sigma_exact(np.array([float(n0)]))[0])
    d = model.sign_sum_degree
    _check_chaos_range(d, n0, n0)
    p1 = np.arange(-n0, n0 + 1, 2, dtype=np.int64)
    svals = _chaos_values(d, p1, n0) / sig
    ordered = np.sort(xs)
    passes = np.searchsorted(ordered, svals, side="left").tolist()
    buckets = [0] * (len(xs) + 1)
    c = 1
    for k in range(n0 // 2 + 1):
        buckets[passes[k]] += c
        if 2 * k < n0:
            buckets[passes[n0 - k]] += c
        c = c * (n0 - k) // (k + 1)
    tails = list(accumulate(reversed(buckets[1:])))[::-1]
    below = np.searchsorted(ordered, xs, side="left")
    return np.array([_ratio_toward_zero(tails[i], 1 << n0)
                     for i in below.tolist()])
