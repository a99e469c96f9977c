"""Simulatable martingale families with exact variance profiles.

Two families are built in:

  * degree-d sign chaos: S(n) = sum of products eps(i1)...eps(id) over
    increasing index tuples, a martingale with Var S(n) = C(n, d),
    simulated by one recurrence in the plain sign sum P1(n) for every d.

  * weighted i.i.d. sums: S(n) = sum_{k<=n} 2^{-k} xi(k) with symmetric
    noise of standard deviation beta, so Var S(n) = beta^2 (1 - 4^{-n})/3.

A model packages everything the verifier and the bound engine need:
exact sigma, a shifted :class:`SigmaProfile` starting at the first
non-degenerate index, counter-based noise generation, and vectorized
path-block simulation with carried state.

Path-block simulation writes S values into one float64 array, which the
caller may pass as ``out=`` and reuse for every block of a path tile;
without it a fresh array is returned.  The values are the same bit for
bit either way.  Chaos models use float64 for an intermediate only
where it is exact: the +-1 sign sums of d = 1, far below 2^53.  For
d >= 2, where a product could pass 2^53, sums and products run in int64
and are rounded once, at the final division.
Weighted models work in float64 throughout, in a fixed order.

verify dispatches on sign_sum_degree alone: a model with one (sign
chaos) is counted on the lattice of sign sums, and simulated from the
words of the sign stream, bounded by popcounts and evaluated only where
a bound can move a path's extremum; the weighted models' simulations go
through noise_block and prefix_values.  _chaos_numerators is the one
encoding of the recurrence: the values, the kernel's bounds and its
zone table all take it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .engine import SigmaProfile
from .errors import DomainError
from .phi import PhiFunction, chi_square_phi, phi2, power_phi
from .rng import rademacher_block, uniform_symmetric_block

#: the largest chaos degree whose d! is a finite float (171! overflows)
MAX_CHAOS_DEGREE = 170


@dataclass(frozen=True, eq=False)
class MartingaleModel:
    """A martingale family bundled with its exact second-order structure.

    noise_block returns int8 signs for rademacher noise and float64
    draws otherwise.  prefix_values(noise_block, state=None, out=None)
    turns a (paths x steps) noise block into S values of the same shape,
    carrying per-path state across consecutive blocks: it returns
    (values, state), where values is out (a float64 array of the block's
    shape, overwritten) or a fresh array, and state shares no memory
    with it.  The values do not depend on whether out is given, nor on
    how a path is split into blocks.  sign_sum_degree is d when S(n) is
    _chaos_values' degree-d value of the sign sum P1(n), else 0.
    """
    label: str
    noise_kind: str
    n_min: int
    phi: PhiFunction
    sigma_exact: Callable
    log_sigma_shifted: Callable
    noise_block: Callable
    prefix_values: Callable
    sign_sum_degree: int = 0

    def sigma_profile(self) -> SigmaProfile:
        """Variance profile re-indexed to start at the first usable time.

        The bound engine's partitions start at index 1, while sigma may
        vanish on a degenerate prefix (chaos needs n >= d).  The profile
        maps engine index j to model time j + (n_min - 1), the time the
        verifier pairs with norming index j.
        """
        off = self.n_min - 1
        sig = self.sigma_exact

        def ev(j):
            return sig(np.asarray(j, dtype=float) + off)

        return SigmaProfile(label=f"{self.label}-sigma", evaluate=ev,
                            log_sigma=self.log_sigma_shifted)


# ---------------------------------------------------------------------------
# degree-d sign chaos
# ---------------------------------------------------------------------------

def _chaos_numerators(d: int, p1: np.ndarray, n, work=None,
                      passes=None) -> np.ndarray:
    """N_d = d! S_d at the int64 sign sums p1 and times n (an int or an
    array that broadcasts to p1's shape), int64.

    For +-1 signs N_j = j! e_j satisfies N_(j+1) = P1 N_j - j (n - j +
    1) N_(j-1), N_0 = 1, N_1 = P1, at real (P1, n) too.  int64
    arithmetic wraps exactly mod 2^64, so N_d is exact where |N_d| <
    2^63 (_check_chaos_range), whatever wraps on the way.  N_1 is p1
    itself; the rest take turns in min(d - 1, 3) int64 buffers, the
    arrays of work (each at least p1's size) if given, else fresh ones.
    passes, a bool array of N_d's shape if given, is and-ed with N_j >= 0
    for every j < d.
    """
    if d == 1:
        return p1
    if passes is not None:
        passes &= p1 >= 0

    def buffer(i):
        return None if work is None else work[i][:p1.size].reshape(p1.shape)

    prev, num = p1, np.multiply(p1, p1, out=buffer(0))
    num -= n
    for j in range(2, d):
        if passes is not None:
            passes &= num >= 0
        step = np.multiply(prev, n, out=buffer(1))  # j (n - j + 1) N_(j-1)
        if j > 2:  # N_(j-1) is not needed past this step; at j = 2 it
            prev *= j - 1  # is p1, and j - 1 = 1
        step -= prev
        step *= j
        if j == d - 1:  # the last step, in place
            num *= p1
            num -= step
        else:
            new = np.multiply(p1, num, out=buffer(2) if j == 2 else prev)
            new -= step
            prev, num = num, new
    return num


def _chaos_values(d: int, p1: np.ndarray, n,
                  out: Optional[np.ndarray] = None, work=None) -> np.ndarray:
    """S_d(n) from int64 sign sums P1(n), for sign noise and any d: N_d
    from _chaos_numerators (with its work buffers), rounded once, by
    the division by d!."""
    return np.divide(_chaos_numerators(d, p1, n, work),
                     float(math.factorial(d)), out=out)


def _chaos_fits(d: int, p: int, n: int, walks: bool = True) -> bool:
    """Whether int64 holds _chaos_values' numerator N_d at every integer
    |P1| <= p and time n' in [1, n].  Two bounds on |N_d|: the
    recurrence in absolute values, |n' - j + 1| <= max(n - j + 1, j - 1)
    holding on the degenerate prefix n' < d too, and, where walks is
    true and only the sign sums of walks count, d! C(n, d)."""
    prev, bound = 1, p
    for j in range(1, d):
        prev, bound = bound, p * bound + j * max(n - j + 1, j - 1) * prev
    if walks:
        bound = min(bound, math.perm(n, d))
    return bound < 2 ** 63


def _check_chaos_range(d: int, p: int, n: int) -> None:
    """DomainError unless _chaos_fits(d, p, n)."""
    if not _chaos_fits(d, p, n):
        raise DomainError(f"degree-{d} chaos passes int64 at |P1| <= {p}, "
                          f"n <= {n}; lower the degree or the horizon")


def _value_buffer(noise_block: np.ndarray,
                  out: Optional[np.ndarray]) -> np.ndarray:
    """out checked against the block, or a fresh float64 array."""
    if out is None:
        return np.empty(noise_block.shape)
    if out.shape != noise_block.shape or out.dtype != np.float64:
        raise DomainError(f"value buffer must be float64 of shape "
                          f"{noise_block.shape}, got {out.dtype} {out.shape}")
    return out


def _sign_noise(seed, path_lo, path_hi, step_lo, n_steps):
    # rademacher_block is looked up per call, so it can be wrapped
    return rademacher_block(seed, path_lo, path_hi, step_lo, n_steps)


def chaos_model(d: int) -> MartingaleModel:
    """Degree-d sign chaos with Var S(n) = C(n, d).

    d = 2 carries the centered chi-square generator (its exact normalized
    limit); d >= 3 has no finite exponential moment for the normalized
    value, so it carries the per-step generator phi2 and relies on the
    moment-growth norm instead.
    """
    if not 1 <= d <= MAX_CHAOS_DEGREE:
        raise DomainError(f"chaos degree must be in [1, {MAX_CHAOS_DEGREE}] "
                          f"(d! must fit a float), got {d}")
    fact = float(math.factorial(d))

    def sigma(n):
        n = np.asarray(n, dtype=float)
        out = np.ones_like(n)
        for i in range(d):
            out = out * np.maximum(n - i, 0.0)
        return np.sqrt(out / fact)

    def prefix(noise_block, state=None, out=None):
        if state is None:
            state = {"p1": np.zeros(noise_block.shape[0], dtype=np.int64),
                     "n": 0}
        out = _value_buffer(noise_block, out)
        # d = 1 sums signs straight in float64 (exact); d >= 2 sums them
        # in int64 over the same memory for the recurrence's products
        p1 = out if d == 1 else out.view(np.int64)
        p1[...] = noise_block
        p1[:, 0] += state["p1"]
        np.add.accumulate(p1, axis=1, out=p1)
        ns = state["n"] + np.arange(1, noise_block.shape[1] + 1)
        carried = {"p1": p1[:, -1].astype(np.int64), "n": int(ns[-1])}
        if d > 1:
            _check_chaos_range(d, int(np.abs(p1).max()), carried["n"])
            _chaos_values(d, p1, ns, out=out)
        return out, carried

    off = d - 1
    log_fact = math.lgamma(d + 1)

    def log_sigma(log_j):
        log_j = np.asarray(log_j, dtype=float)
        inv_j = np.exp(-np.minimum(log_j, 700.0))
        total = np.zeros_like(log_j)
        for i in range(d):
            # log(j + off - i), with off - i in [0, d-1]
            total = total + log_j + np.log1p((off - i) * inv_j)
        return 0.5 * (total - log_fact)

    phi = chi_square_phi() if d == 2 else phi2()
    return MartingaleModel(
        label=f"chaos:d={d}", noise_kind="rademacher", n_min=d, phi=phi,
        sigma_exact=sigma, log_sigma_shifted=log_sigma,
        noise_block=_sign_noise, prefix_values=prefix,
        sign_sum_degree=d)


def chaos_identity_check(signs: np.ndarray) -> bool:
    """Exact degree-2 identity: 2 S(n) = P1(n)^2 - n at every prefix.

    The left side comes from the elementary-symmetric recursion, the
    right from the plain sign sum; both are integer arithmetic, so the
    comparison is exact.  signs is (paths, n) with entries +-1.
    """
    signs = np.asarray(signs)
    if signs.ndim == 1:
        signs = signs[None, :]
    if not np.all(np.abs(signs) == 1):
        raise DomainError("identity check needs +-1 sign paths")
    s64 = signs.astype(np.int64)
    e1 = np.zeros(signs.shape[0], dtype=np.int64)
    e2 = np.zeros(signs.shape[0], dtype=np.int64)
    p1 = np.cumsum(s64, axis=1)
    for i in range(signs.shape[1]):
        e2 += s64[:, i] * e1
        e1 += s64[:, i]
        if not np.array_equal(2 * e2, p1[:, i] * p1[:, i] - (i + 1)):
            return False
    return True


# ---------------------------------------------------------------------------
# weighted i.i.d. sums
# ---------------------------------------------------------------------------

def weighted_iid_model(beta: float = 1.0,
                       weibull_r: Optional[float] = None) -> MartingaleModel:
    """S(n) = sum_{k<=n} 2^{-k} xi(k), noise of standard deviation beta.

    Default noise is beta * (+-1) signs; weibull_r switches to symmetric
    noise with tail exp(-x^r) (r > 1), rescaled to standard deviation
    beta.  Var S(n) = beta^2 (1 - 4^{-n}) / 3 either way.
    """
    if beta <= 0:
        raise DomainError(f"noise scale must be positive, got {beta}")
    if weibull_r is None:
        phi = phi2()
        noise_kind = "rademacher"
        label = f"weightedA:beta={beta:g}"
        noise = _sign_noise
        unit_scale = beta
    else:
        if weibull_r <= 1:
            raise DomainError(
                f"tail exponent must exceed 1 for a finite exponential "
                f"moment, got {weibull_r}")
        phi = power_phi(weibull_r / (weibull_r - 1.0))
        noise_kind = "generic_symmetric"
        label = f"weightedA:beta={beta:g},r={weibull_r:g}"
        raw_std = math.sqrt(math.gamma(1.0 + 2.0 / weibull_r))
        unit_scale = beta / raw_std
        inv_r = 1.0 / weibull_r

        def noise(seed, path_lo, path_hi, step_lo, n_steps):
            u, sign = uniform_symmetric_block(seed, path_lo, path_hi,
                                              step_lo, n_steps)
            return sign * (-np.log1p(-u)) ** inv_r

    def sigma(n):
        n = np.asarray(n, dtype=float)
        return beta * np.sqrt((1.0 - 4.0 ** -n) / 3.0)

    def prefix(noise_block, state=None, out=None):
        if state is None:
            state = {"s": np.zeros(noise_block.shape[0]), "n": 0}
        out = _value_buffer(noise_block, out)
        ks = state["n"] + np.arange(1, noise_block.shape[1] + 1)
        np.multiply(noise_block, unit_scale, out=out)
        out *= 2.0 ** -ks
        np.add.accumulate(out, axis=1, out=out)
        out += state["s"][:, None]
        return out, {"s": out[:, -1].copy(), "n": int(ks[-1])}

    log_b3 = math.log(beta) - 0.5 * math.log(3.0)

    def log_sigma(log_n):
        log_n = np.asarray(log_n, dtype=float)
        n = np.exp(np.minimum(log_n, 700.0))
        return log_b3 + 0.5 * np.log1p(-np.exp(-n * math.log(4.0)))

    return MartingaleModel(
        label=label, noise_kind=noise_kind, n_min=1, phi=phi,
        sigma_exact=sigma, log_sigma_shifted=log_sigma, noise_block=noise,
        prefix_values=prefix)


# ---------------------------------------------------------------------------
# detached variance profiles
# ---------------------------------------------------------------------------

_SLOW_FACTORS = ("one", "log", "invlog")


def power_law_surrogate(gamma: float, m: str = "one") -> SigmaProfile:
    """Profile n^gamma * M(n) with a slowly varying factor M.

    m picks M from {1, log(n+e), 1/log(n+e)}; these bracket the profiles
    the rate-form analysis allows without tying the engine to a model.
    """
    if gamma <= 0:
        raise DomainError(f"power-law exponent must be positive, got {gamma}")
    if m not in _SLOW_FACTORS:
        raise DomainError(f"slow factor must be one of {_SLOW_FACTORS}")

    def ev(n):
        n = np.asarray(n, dtype=float)
        base = n ** gamma
        if m == "one":
            return base
        mod = np.log(n + math.e)
        return base * mod if m == "log" else base / mod

    def log_sig(log_n):
        log_n = np.asarray(log_n, dtype=float)
        base = gamma * log_n
        if m == "one":
            return base
        # log(n + e) = log n + log1p(e/n)
        mod = np.log(log_n + np.log1p(math.e * np.exp(-np.minimum(log_n,
                                                                  700.0))))
        return base + mod if m == "log" else base - mod

    return SigmaProfile(label=f"powerlaw:gamma={gamma:g},m={m}",
                        evaluate=ev, log_sigma=log_sig)
