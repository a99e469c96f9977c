"""Convex generator functions and their Young-Fenchel calculus.

A generator phi is an even, strictly convex function on an interval
(-lambda0, lambda0), 0 < lambda0 <= inf, with phi(0) = 0 and
phi(lambda)/lambda -> inf at the right edge of the domain.  Such functions
drive the exponential-moment norms in :mod:`lilbound.norms` and the block
tail bounds in :mod:`lilbound.engine`.  The central operation here is the
conjugate transform

    conjugate(phi, u) = sup over lambda in [0, lambda0) of (lambda*u - phi(lambda))

together with its inverse-function companions.  Built-in families carry
closed-form conjugates, and so does a table whose interpolant is convex:
p' = u is then a quadratic with one root on one piece (see
phi_from_table).
Everything else is solved numerically by bisection on the (strictly
increasing) derivative, and phi_inverse by bisection on phi itself.
Both follow one rule, :func:`_bisect`, which solves a whole array of
targets in lockstep: the bracket's right end doubles until it reaches
the target or a finite domain edge, each end taken once for all
targets, and each halving evaluates phi once on all targets in play.  An
edge never reached ends the search: the conjugate's supremum is then the
edge value, and phi_inverse's target lies beyond sup phi.  The scalar
:func:`conjugate` and :func:`phi_inverse` are the array forms at one
point, so a caller with many points hands them over at once.

Numerical contract: the numeric conjugate targets 1e-10 absolute accuracy
with a hard iteration cap of 200; exceeding the cap above tolerance raises
:class:`NonconvergenceError` carrying the residual.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DomainError, NonconvergenceError, UnreachableValueError

CONJUGATE_TOL = 1e-10
MAX_ITER = 200
#: Right edge used for validation grids when lambda0 is infinite.
GRID_CAP = 50.0
GRID_SIZE = 512
_EDGE = 1.0 - 1e-12  # open-endpoint clamp factor


@dataclass(frozen=True, eq=False)
class PhiFunction:
    """An even convex generator with its (optional) closed-form companions.

    evaluate accepts scalars.  A generator without analytic_conjugate or
    analytic_inverse must also evaluate numpy arrays elementwise, since
    the numeric transforms evaluate it on whole arrays; the analytic
    companions, when present, must accept numpy arrays too.
    """
    label: str
    evaluate: Callable[[float], float]
    lambda0: float = math.inf
    analytic_conjugate: Optional[Callable] = None
    analytic_inverse: Optional[Callable] = None

    def __post_init__(self):
        if not self.lambda0 > 0:
            raise DomainError(f"lambda0 must be positive, got {self.lambda0}")


@dataclass(frozen=True)
class PhiReport:
    """Report-only diagnostics from :func:`validate_phi`."""
    label: str
    zero_at_origin: bool
    even: bool
    strictly_convex: bool
    superlinear: bool
    worst_evenness_gap: float
    worst_second_difference: float

    @property
    def passed(self) -> bool:
        return (self.zero_at_origin and self.even
                and self.strictly_convex and self.superlinear)


# ---------------------------------------------------------------------------
# built-in families
# ---------------------------------------------------------------------------

def power_phi(q: float) -> PhiFunction:
    """Power family |lambda|^q / q; conjugate is |u|^q' / q' with 1/q + 1/q' = 1.

    Requires q > 1: at q = 1 the conjugate degenerates (q' = inf boundary),
    and below it the function is not convex.
    """
    if not q > 1:
        raise DomainError(f"power family needs q > 1, got {q}")
    qp = q / (q - 1.0)

    def ev(lam):
        return abs(lam) ** q / q

    def conj(u):
        u = np.abs(u, dtype=float)  # a copy, so the rest runs in place
        with np.errstate(over="ignore"):  # inf past float range
            u **= qp
        u /= qp
        return u

    def inv(p):
        return (q * np.asarray(p)) ** (1.0 / q)

    return PhiFunction(label=f"power:q={q:g}", evaluate=ev,
                       analytic_conjugate=conj, analytic_inverse=inv)


def phi2() -> PhiFunction:
    """The quadratic generator lambda^2 / 2 (sub-gaussian case)."""
    f = power_phi(2.0)
    return replace(f, label="phi2")


def cosh_phi() -> PhiFunction:
    """cosh(lambda) - 1; conjugate u*asinh(u) - sqrt(1+u^2) + 1."""

    def ev(lam):
        return np.cosh(lam) - 1.0

    def conj(u):
        # sqrt(1+u^2) - 1 = u^2 / (1 + sqrt(1+u^2)): no cancellation at
        # small u, where the conjugate is u^2/2 + O(u^4)
        u = np.abs(u)
        with np.errstate(invalid="ignore"):  # inf - inf at u = inf
            value = u * np.arcsinh(u) - u * (u / (1.0 + np.hypot(1.0, u)))
        return np.where(u == np.inf, np.inf, value)

    def inv(p):
        return np.arccosh(np.asarray(p) + 1.0)

    return PhiFunction(label="cosh", evaluate=ev,
                       analytic_conjugate=conj, analytic_inverse=inv)


_SQRT2 = math.sqrt(2.0)
# below s = 0.1, s - log1p(s) loses up to four digits to cancellation;
# there 0.5 (s - log1p(s)) = u^2/2 * sum_k (-s)^k 2/(k+2), whose first
# 17 terms leave a remainder under 10^-17 of the sum
_CHI2_SERIES_BELOW = 0.1
_CHI2_SERIES = tuple((-1) ** k * 2.0 / (k + 2) for k in range(17))
# below w = 1, w + expm1(-w) loses digits the same way; there it is
# w^2 sum_k (-w)^k / (k+2)!, whose first 17 terms leave under 10^-17
_CHI2_INVERSE_SERIES = tuple((-1) ** k / math.factorial(k + 2)
                             for k in range(17))
# from p = 32 on, lambda = (1 - e^(-w))/sqrt2 with w > 2p rounds to the
# domain edge
_CHI2_INVERSE_TOP = 32.0


def _horner(coeffs, s):
    """sum_k coeffs[k] s^k, by Horner."""
    total = np.full_like(s, coeffs[-1])
    for c in coeffs[-2::-1]:
        total *= s
        total += c
    return total


def chi_square_phi() -> PhiFunction:
    """Centered chi-square generator -|l|/sqrt2 - log(1 - sqrt2 |l|)/2.

    This is the cumulant function of (Z^2 - 1)/sqrt2 for standard normal Z,
    the normalized limit of degree-2 sign chaos.  Domain edge
    lambda0 = 1/sqrt2; the conjugate grows like u/sqrt2 - log(u)/2, i.e.
    linearly with a slowly varying correction.  phi is unbounded toward
    the edge, so every p >= 0 has an inverse, solved by Newton's method.
    """

    def ev(lam):
        x = np.abs(lam)
        if np.any(x >= 1.0 / _SQRT2):
            raise DomainError(f"chi2 generator undefined at |lambda| = "
                              f"{np.max(x):g} >= {1.0 / _SQRT2:g}")
        return -x / _SQRT2 - 0.5 * np.log1p(-_SQRT2 * x)

    def conj(u):
        # lam*u - phi(lam) at the maximizer lam = u/(1 + s), s = sqrt2 u
        u = np.abs(np.asarray(u, dtype=float))
        with np.errstate(over="ignore", invalid="ignore"):
            s = _SQRT2 * u
            value = np.asarray(s - np.log1p(s))
            value *= 0.5
            if np.min(s, initial=np.inf) < _CHI2_SERIES_BELOW:
                small = s < _CHI2_SERIES_BELOW
                value[small] = (0.5 * u[small] ** 2
                                * _horner(_CHI2_SERIES, s[small]))
            if np.max(s, initial=0.0) == np.inf:
                # u past 2^1024/sqrt2: the limit form, and inf at inf
                huge = np.isinf(s)
                big = u[huge]
                limit = big / _SQRT2 - 0.5 * np.log(big) - 0.25 * math.log(2.0)
                value[huge] = np.where(big == np.inf, np.inf, limit)
        return value

    def inv(p):
        # with t = sqrt2 lam and w = -log1p(-t), phi = p reads
        # g(w) = w + expm1(-w) = 2p; g is convex and increasing with
        # g'(w) = t, so Newton's steps fall onto the root from above
        # after the first, from a start near it at both ends (w ~ 2 sqrt p
        # + 2p/3 for small p, w ~ 2p + 1 for large)
        target = 2.0 * np.minimum(np.asarray(p, dtype=float),
                                  _CHI2_INVERSE_TOP)
        w = np.minimum(np.sqrt(2.0 * target) + target / 3.0, target + 1.0)
        for _ in range(32):
            t = -np.expm1(-w)
            g = np.where(w < 1.0, w * w * _horner(_CHI2_INVERSE_SERIES, w),
                         w - t)
            with np.errstate(divide="ignore", invalid="ignore"):
                step = np.where(t > 0.0, (g - target) / t, 0.0)
            w = w - step
            if np.all(np.abs(step) <= 4e-16 * w):
                break
        return -np.expm1(-w) / _SQRT2

    return PhiFunction(label="chi2", evaluate=ev, lambda0=1.0 / _SQRT2,
                       analytic_conjugate=conj, analytic_inverse=inv)


def _pchip_end(h0, h1, m0, m1):
    """Moler's one-sided end derivative, as scipy's PCHIP takes it.  Its
    other clamp, to 3*m0, needs slopes of opposite sign, which a
    nondecreasing table cannot have."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    return d if np.sign(d) == np.sign(m0) else 0.0


def phi_from_table(lambdas: Sequence[float], values: Sequence[float],
                   label: str = "table") -> PhiFunction:
    """Generator from tabulated (lambda, phi) pairs on lambda >= 0.

    The table must start at (0, 0) with strictly increasing lambda and
    convex nondecreasing values.  Evaluation uses monotone (PCHIP)
    interpolation and evenness by reflection; the last lambda is an open
    right endpoint, so requests at or beyond it are domain errors.  The
    interpolant is scipy's ``PchipInterpolator(lam, val)`` to the bit:
    its derivatives, its cubic coefficients, and PPoly's power-sum order.
    It is written out in numpy so that a table run never imports scipy.

    PCHIP does not always keep convex data convex.  Where it does (p''
    at both ends of every piece at least -8 ulps, and the knot
    derivatives d nondecreasing), the table carries a closed-form
    conjugate: on the piece where d passes u, p' = u is a quadratic,
    whose root is the maximizer.  A table with a concave piece keeps the
    numeric solver.
    """
    lam = np.asarray(lambdas, dtype=float)
    val = np.asarray(values, dtype=float)
    if lam.ndim != 1 or lam.shape != val.shape or len(lam) < 4:
        raise DomainError("table needs matching 1-d columns with >= 4 rows")
    if lam[0] != 0.0 or val[0] != 0.0:
        raise DomainError("table must start at (0, 0)")
    if not np.all(np.diff(lam) > 0):
        raise DomainError("table lambdas must be strictly increasing")
    if not np.all(np.diff(val) >= 0):
        raise DomainError("table values must be nondecreasing")
    h = np.diff(lam)
    m = np.diff(val) / h
    if np.any(np.diff(m) < -1e-9 * max(1.0, m.max())):
        raise DomainError("table values are not convex")
    # knot derivatives: weighted harmonic mean of the adjacent slopes,
    # 0 where either slope is 0
    w1 = 2 * h[1:] + h[:-1]
    w2 = h[1:] + 2 * h[:-1]
    d = np.zeros_like(val)
    inner = (m[1:] != 0) & (m[:-1] != 0)
    with np.errstate(divide="ignore"):
        whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
    d[1:-1][inner] = 1.0 / whmean[inner]
    d[0] = _pchip_end(h[0], h[1], m[0], m[1])
    d[-1] = _pchip_end(h[-1], h[-2], m[-1], m[-2])
    # cubic on [lam_i, lam_(i+1)): c3 + c2*s + c1*s^2 + c0*s^3, s = x - lam_i;
    # the left knots ride along as a fifth row, so one take gathers all
    t = (d[:-1] + d[1:] - 2 * m) / h
    coef = np.stack([t / h, (m - d[:-1]) / h - t, d[:-1], val[:-1], lam[:-1]])
    right = lam[1:]  # x >= 0 lies on piece i when right[i-1] <= x < right[i]
    lambda0 = float(lam[-1])
    # p'' is linear on a piece, so p is convex there when p'' at both ends,
    # 2*c1 and 2*c1 + 6*c0*h, is not below zero by more than a few ulps
    bend = np.stack([2 * coef[1], 6 * coef[0] * h])
    slack = 8 * np.spacing(np.abs(bend).max(axis=0))
    convex = (np.all(bend[0] >= -slack) and np.all(bend.sum(axis=0) >= -slack)
              and np.all(np.diff(d) >= 0))

    def ev(x):
        x = np.abs(x)
        if (x >= lambda0).any():
            raise DomainError(f"{label}: lambda = {np.max(x):g} is outside "
                              f"the open domain [0, {lambda0:g})")
        # a NaN sorts past the last knot; clipping it to the last piece
        # gives NaN, as scipy does
        c0, c1, c2, y, knot = coef.take(right.searchsorted(x, side="right"),
                                        axis=1, mode="clip")
        # summed as PPoly does: ((c3 + c2*s) + c1*s^2) + c0*s^3
        s = x - knot
        c2 *= s
        y += c2
        s2 = s * s
        c1 *= s2
        y += c1
        s2 *= s
        c0 *= s2
        y += c0
        return float(y) if y.ndim == 0 else y

    if not convex:
        return PhiFunction(label=label, evaluate=ev, lambda0=lambda0)
    cap = lambda0 * _EDGE  # the numeric solver's edge, see _domain_cap
    last = len(d) - 1

    def conj(u):
        # p' rises from d[i] to d[i+1] on piece i, so the maximizer of
        # lam*u - p(lam) is the root of p' = u on the piece where d first
        # passes u: 0 below d[0], the edge cap from d[-1] on
        u = np.asarray(u, dtype=float)
        i = d.searchsorted(u, side="right") - 1
        j = np.clip(i, 0, last - 1)
        c0, c1, slope, _, knot = coef.take(j, axis=1)
        # 3*c0 s^2 + 2*c1 s + (slope - u) = 0 by the root free of
        # cancellation, a discriminant below 0 by rounding taken as 0;
        # fmax and fmin take the 0/0 of a root at the knot itself to 0
        a, b, c = 3 * c0, 2 * c1, slope - u
        with np.errstate(all="ignore"):  # past d[-1], and at u = inf
            s = -2 * c / (b + np.sqrt(np.maximum(b * b - 4 * a * c, 0.0)))
            x = np.minimum(knot + np.fmin(np.fmax(s, 0.0), h[j]), cap)
            x = np.where(i < 0, 0.0, np.where(i == last, cap, x))
            value = np.maximum(x * u - ev(x), 0.0)
        return np.where(u == 0.0, 0.0, value)

    return PhiFunction(label=label, evaluate=ev, lambda0=lambda0,
                       analytic_conjugate=conj)


def load_csv(path: str, ndmin: int) -> np.ndarray:
    """The numbers of a comma-separated file with #-comments, at least
    ndmin-dimensional; a file that cannot be read or parsed, or that
    holds no numbers, is a DomainError naming it."""
    try:
        with warnings.catch_warnings():
            # an empty file is reported below, as one line
            warnings.simplefilter("ignore", UserWarning)
            rows = np.loadtxt(path, delimiter=",", dtype=float, comments="#",
                              ndmin=ndmin)
    except OSError as exc:  # missing, a directory, unreadable, ...
        raise DomainError(f"cannot read {path!r}: "
                          f"{exc.strerror or exc}") from None
    except ValueError as exc:  # a header, a non-numeric cell, ragged rows
        raise DomainError(f"cannot parse {path!r}: {exc}") from None
    if not rows.size:
        raise DomainError(f"cannot use {path!r}: it holds no numbers")
    return rows


def phi_from_csv(path: str, label: Optional[str] = None) -> PhiFunction:
    """Load a two-column CSV of (lambda, phi(lambda)) rows; see phi_from_table."""
    rows = load_csv(path, ndmin=2)
    if rows.shape[1] != 2:
        raise DomainError(f"{path}: expected exactly two columns")
    return phi_from_table(rows[:, 0], rows[:, 1], label=label or f"csv:{path}")


# ---------------------------------------------------------------------------
# conjugate transform
# ---------------------------------------------------------------------------

def _domain_cap(phi: PhiFunction) -> float:
    return phi.lambda0 * _EDGE if math.isfinite(phi.lambda0) else math.inf


def _bisect(f: Callable[[np.ndarray], np.ndarray], targets: np.ndarray,
            cap: float, rtol: float, max_iter: int, failure: str):
    """Bracket, then bisect, where the nondecreasing f first reaches each
    of a 1-d array of targets on [0, cap], all in lockstep; returns the
    arrays (lo, hi, reached).

    f maps a 1-d array of points to its values.  A target's right end
    doubles from min(1, cap) until f reaches the target there; the ends
    min(2^j, cap) are the same for every target, so f is taken once at
    each, up to the first that reaches the largest target.  A target f
    never reaches before a finite edge gets the bracket [cap, cap], not
    reached, with no halving; 601 doublings short of the largest target
    and of the edge raise NonconvergenceError, the message failure
    followed by "=" and that target.  The halving then takes f once per
    step on all targets still in play, and a target leaves once
    hi - lo <= rtol * max(1, hi).
    """
    ends = [min(1.0, cap)]
    top = targets.max()
    with np.errstate(all="ignore"):  # f may overflow
        values = [f(np.array(ends))[0]]
        while (not values[-1] >= top and ends[-1] < cap
               and len(values) <= 601):
            ends.append(min(ends[-1] * 2.0, cap))
            values.append(f(np.array(ends[-1:]))[0])
        if not values[-1] >= top and ends[-1] < cap:
            raise NonconvergenceError(f"{failure}={top:g}")
        # the first end that reaches each target; past every end, the
        # bracket [cap, cap]
        first = np.full(len(targets), len(values))
        for j in reversed(range(len(values))):
            first[values[j] >= targets] = j
        reached = first < len(values)
        ends = np.array([0.0] + ends + [cap])
        lo, hi = ends[first], ends[first + 1]

        # the targets still in play, packed: their indices, brackets and
        # values; a target's bracket goes back to lo, hi when it leaves
        live = np.flatnonzero(reached)
        l, h, t = lo[live], hi[live], targets[live]
        for _ in range(max_iter):
            if not len(live):
                break
            mid = 0.5 * (l + h)
            up = f(mid) >= t
            h = np.where(up, mid, h)
            l = np.where(up, l, mid)
            stay = h - l > rtol * np.maximum(1.0, h)
            if not stay.all():
                lo[live], hi[live] = l, h
                live, l, h, t = live[stay], l[stay], h[stay], t[stay]
    lo[live], hi[live] = l, h
    return lo, hi, reached


def _slopes(phi: PhiFunction, lam: np.ndarray, cap: float) -> np.ndarray:
    """Difference quotients of phi at every point of a 1-d array with
    0 <= lam <= cap: two-sided, one-sided against the origin and the
    domain edge, +inf where phi overflows.  The caller ignores
    floating-point errors (np.errstate)."""
    h = 1e-6 * np.maximum(1.0, lam)
    hi = np.minimum(lam + h, cap)
    lo = np.maximum(lam - h, 0.0)
    f = phi.evaluate(np.concatenate([hi, lo]))
    slope = (f[:len(lam)] - f[len(lam):]) / (hi - lo)
    return np.where(np.isnan(slope), math.inf, slope)


def _conjugate_numeric_many(phi: PhiFunction, u: np.ndarray,
                            tol: float, max_iter: int):
    """Solve sup(lambda*u - phi(lambda)) at every point of a 1-d array of
    u >= 0 in one lockstep solve; returns (values, residuals).

    u = 0 gives exactly 0.  The maximizer is bisected on the slopes,
    which are 0 at the origin and increase; a point past every slope
    takes the edge value, with residual 0, inf past float range.
    Elsewhere the value is the best of the objective at the bracket's
    ends and middle, and the residual its spread there; a residual above
    max(tol, 1e-12 * value) raises NonconvergenceError for the worst.
    """
    cap = _domain_cap(phi)
    values = np.zeros(len(u))
    residuals = np.zeros(len(u))
    todo = np.nonzero(u != 0.0)[0]
    if not len(todo):
        return values, residuals
    ut = u[todo]
    lo, hi, reached = _bisect(
        lambda lam: _slopes(phi, lam, cap), ut, cap, 1e-13, max_iter,
        f"conjugate bracketing failed for {phi.label} at u")
    with np.errstate(all="ignore"):
        lam = np.concatenate([lo, 0.5 * (lo + hi), hi])
        f = (lam * np.tile(ut, 3) - phi.evaluate(lam)).reshape(3, -1)
        value = np.maximum(f.max(axis=0), 0.0)
        residual = np.where(reached, value - f.min(axis=0), 0.0)
    bad = reached & (~np.isfinite(value)
                     | (residual > np.maximum(tol, 1e-12 * value)))
    if bad.any():
        worst = np.where(bad, np.nan_to_num(residual, nan=math.inf), -1.0)
        i = int(np.argmax(worst))
        raise NonconvergenceError(
            f"conjugate of {phi.label} at u={ut[i]:g} stalled "
            f"(residual {residual[i]:.3e})", residual=float(residual[i]))
    values[todo] = value
    residuals[todo] = residual
    return values, residuals


def conjugate(phi: PhiFunction, u: float) -> float:
    """Young-Fenchel conjugate of phi at u >= 0: :func:`conjugate_many`
    of the one point.  u = 0 returns exactly 0 since phi >= 0 with
    phi(0) = 0."""
    if u < 0:
        raise DomainError(f"conjugate argument must be >= 0, got {u}")
    return float(conjugate_many(phi, np.array([u], dtype=float))[0])


def conjugate_many(phi: PhiFunction, u: np.ndarray) -> np.ndarray:
    """Vectorized conjugate: the closed form when available, else one
    lockstep solve over the distinct u, bisecting on the
    difference-quotient derivative (the edge value where it never
    reaches u)."""
    u = np.asarray(u, dtype=float)
    # one reduction, which skips NaN as u < 0 does, at half the cost of
    # np.any(u < 0) on the closed-form path
    flat = u.ravel()
    if np.fmin.reduce(flat, initial=0.0) < 0:
        raise DomainError(f"conjugate argument must be >= 0, "
                          f"got {flat[np.argmax(flat < 0)]}")
    if phi.analytic_conjugate is not None:
        return np.asarray(phi.analytic_conjugate(u), dtype=float)
    # the sorted distinct levels by hand: np.unique imports numpy.ma on
    # its first call, which costs more than a small bound's whole solve,
    # and its return_inverse argsort more than the searchsorted lookup
    levels = np.sort(u, axis=None)
    keep = np.ones(levels.shape, dtype=bool)
    np.not_equal(levels[1:], levels[:-1], out=keep[1:])
    levels = levels[keep]
    values, _ = _conjugate_numeric_many(phi, levels, CONJUGATE_TOL, MAX_ITER)
    return values[np.searchsorted(levels, flat)].reshape(u.shape)


def conjugate_function(phi: PhiFunction) -> PhiFunction:
    """The conjugate packaged as a generator itself (for double transforms).

    The result evaluates numerically even when phi has a closed-form
    conjugate available internally, and deliberately carries no analytic
    companions, so conjugating it exercises the numeric solver.  Like
    every generator without closed-form companions, it evaluates numpy
    arrays elementwise.
    """

    def ev(u):
        # [()] makes a 0-d result a scalar and leaves an array as it is
        return conjugate_many(phi, np.abs(u))[()]

    return PhiFunction(label=f"conj({phi.label})", evaluate=ev)


# ---------------------------------------------------------------------------
# inverse-function companions
# ---------------------------------------------------------------------------

def _inverse_many(phi: PhiFunction, p: np.ndarray):
    """phi_inverse at every point of a 1-d array of p > 0, by the closed
    form or one lockstep solve; returns (roots, reached), where reached
    is False at a p beyond sup phi (see :func:`_unreachable`)."""
    if phi.analytic_inverse is not None:
        return (np.asarray(phi.analytic_inverse(p), dtype=float),
                np.ones(len(p), dtype=bool))
    lo, hi, reached = _bisect(
        phi.evaluate, p, _domain_cap(phi), 1e-14, MAX_ITER,
        f"phi_inverse bracketing failed for {phi.label} at p")
    return 0.5 * (lo + hi), reached


def _unreachable(phi: PhiFunction, p: float) -> UnreachableValueError:
    """The error for a p beyond sup phi over the open domain."""
    return UnreachableValueError(
        f"{phi.label}: p = {p:g} exceeds sup phi = "
        f"{phi.evaluate(_domain_cap(phi)):g} on the open domain")


def phi_inverse(phi: PhiFunction, p: float) -> float:
    """Inverse of phi on its positive branch: the lambda with phi(lambda) = p.

    Raises :class:`UnreachableValueError` when p exceeds the supremum of a
    table-backed family over its (open) domain.
    """
    if p < 0:
        raise DomainError(f"phi_inverse needs p >= 0, got {p}")
    if p == 0.0:
        return 0.0
    roots, reached = _inverse_many(phi, np.array([p], dtype=float))
    if not reached[0]:
        raise _unreachable(phi, p)
    return float(roots[0])


def psi(phi: PhiFunction, p: float) -> float:
    """Moment-growth profile p / phi_inverse(p), defined for p >= 2."""
    if p < 2:
        raise DomainError(f"psi is defined for p >= 2, got {p}")
    return p / phi_inverse(phi, p)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def standard_grid(phi: PhiFunction, size: int = GRID_SIZE) -> np.ndarray:
    """Log-spaced validation grid on [1e-6, min(lambda0, 50)), open at the edge."""
    top = min(phi.lambda0 * (1.0 - 1e-9), GRID_CAP)
    return np.geomspace(1e-6, top, size)


def validate_phi(phi: PhiFunction, size: int = GRID_SIZE) -> PhiReport:
    """Report-only structural diagnostics on the standard grid.

    Checks phi(0) = 0, evenness, strict convexity (chord slopes increase,
    the correct criterion on an unevenly spaced grid), and superlinearity
    (phi(lambda)/lambda strictly increasing toward the domain edge).
    Never raises on a failed check; consumers decide what to do with the
    report.
    """
    grid = standard_grid(phi, size)
    vals = np.array([phi.evaluate(x) for x in grid])
    neg = np.array([phi.evaluate(-x) for x in grid[:: max(1, size // 16)]])
    ref = vals[:: max(1, size // 16)]
    even_gap = float(np.max(np.abs(neg - ref) / np.maximum(np.abs(ref), 1e-300)))
    chord = np.diff(vals) / np.diff(grid)
    second = np.diff(chord)
    slope = vals / grid
    return PhiReport(
        label=phi.label,
        zero_at_origin=abs(phi.evaluate(0.0)) < 1e-12,
        even=even_gap < 1e-9,
        strictly_convex=bool(np.all(
            second > -1e-9 * np.maximum(np.abs(chord[1:]), 1e-300))),
        superlinear=bool(np.all(np.diff(slope) > -1e-12 * np.maximum(slope[1:], 1e-300))),
        worst_evenness_gap=even_gap,
        worst_second_difference=float(second.min()) if len(second) else 0.0,
    )
