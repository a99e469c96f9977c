"""Exponential-moment and moment-growth norms estimated from samples.

Two norms of a centered random variable xi are estimated from i.i.d. draws:

  * the exponential-moment norm: the smallest tau such that
    E exp(lambda * xi) <= exp(phi(lambda * tau)) for all admissible lambda,
    estimated as sup over a lambda grid of phi_inverse(log mgf_hat) / lambda;

  * the moment-growth norm: sup over p >= 2 of |xi|_p / psi(p) with
    psi(p) = p / phi_inverse(p).

Both are positively homogeneous.  The centering check and both estimators
first divide the sample by a power of two near max|x|, which is exact, so
no mean or moment overflows even near the float range; the
exponential-moment estimator then works on the max-abs-normalized centered
sample and rescales, so its homogeneity is exact (the data-dependent
lambda grid co-scales with the sample).  The grids are
capped where the empirical moment estimates become noise: lambda where the
empirical MGF's relative standard error passes 50%, p at log2(M).
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import CenteringError, DomainError
from .phi import PhiFunction, _inverse_many, _unreachable, load_csv

LAMBDA_GRID_SIZE = 200
LAMBDA_GRID_START = 1e-3
RELSE_CAP = 0.5
#: scan range for the lambda cutoff; the sample is normalized to max|x| = 1
#: first, so exp(lambda * x) cannot overflow below 700.
_SCAN = np.geomspace(LAMBDA_GRID_START, 700.0, 400)


@dataclass(frozen=True)
class Sample:
    """Finite i.i.d. draws of a scalar random variable.

    Two entries are the minimum (exact two-point laws are legitimate
    degenerate samples); treat norm estimates from fewer than ~100 draws
    as qualitative.
    """
    values: np.ndarray
    label: str = "sample"

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 1 or len(arr) < 2:
            raise DomainError("sample must be a 1-d collection with M >= 2")
        if not np.all(np.isfinite(arr)):
            raise DomainError("sample contains non-finite entries")
        object.__setattr__(self, "values", arr)

    @property
    def size(self) -> int:
        return len(self.values)

    @classmethod
    def from_csv(cls, path: str, label: Optional[str] = None) -> "Sample":
        vals = load_csv(path, ndmin=1)
        if vals.ndim != 1:
            raise DomainError(f"{path}: expected a single column")
        return cls(vals, label=label or f"csv:{path}")


@dataclass(frozen=True)
class NormEstimate:
    """Both norm estimates plus the grid metadata needed to reproduce them."""
    b_norm: float
    g_norm: float
    lambda_grid_max: float
    p_max: float
    mean_abs: float
    sample_size: int
    phi_label: str

    def to_dict(self) -> dict:
        return {
            "b_norm": self.b_norm,
            "g_norm": self.g_norm,
            "lambda_grid_max": self.lambda_grid_max,
            "p_max": self.p_max,
            "mean_abs": self.mean_abs,
            "sample_size": self.sample_size,
            "phi": self.phi_label,
        }


def tail_function(sample: Sample, x: float) -> float:
    """Larger of the two empirical tail probabilities at level x >= 0."""
    if x < 0:
        raise DomainError(f"tail level must be >= 0, got {x}")
    v = sample.values
    right = np.count_nonzero(v > x) / sample.size
    left = np.count_nonzero(v < -x) / sample.size
    return max(right, left)


def _unit_scaled(values: np.ndarray) -> Tuple[np.ndarray, float]:
    """(values / s, s) for the power of two s with max|values| / s in
    [1, 2), or s = 1 for an all-zero sample.  The division is exact
    (short of subnormals), and the quotients' sums, squares and moments
    cannot overflow."""
    top = float(np.max(np.abs(values)))
    s = math.ldexp(1.0, math.frexp(top)[1] - 1) if top else 1.0
    return values / s, s


def _check_centering(values: np.ndarray) -> float:
    unit, s = _unit_scaled(values)
    mean = float(unit.mean())
    sd = float(unit.std())
    m = len(values)
    if abs(mean) > 3.0 * sd / math.sqrt(m):
        raise CenteringError(
            f"sample mean {mean * s:g} is more than 3 standard errors from "
            f"0 (se = {sd * s / math.sqrt(m):g}); the norms are defined "
            f"for centered variables")
    return abs(mean) * s


def _logsumexp(a: np.ndarray) -> float:
    """log(sum(exp(a))) as scipy.special.logsumexp computes it, to the bit.

    The c elements equal to the maximum m are taken out of the sum, the
    rest contribute exp(a - m) / c, and the result is log1p of that sum
    plus log(c) plus m.  Where this is not finite (a +inf or NaN element,
    or every element -inf), the plain log(sum(exp(a))) is returned.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        top = np.max(a)
        ties = a == top
        count = float(np.count_nonzero(ties))
        rest = a - top
        rest[ties] = -np.inf
        s = np.sum(np.exp(rest))
        if s != 0:
            s = s / count
        out = np.log1p(s) + np.log(count) + top
        if not np.isfinite(out):
            out = np.log(np.sum(np.exp(a)))
    return float(out)


def _log_mgf(scaled: np.ndarray, lam: float) -> float:
    """log of the empirical MGF at lam, computed stably."""
    return _logsumexp(lam * scaled) - math.log(len(scaled))


def _lambda_cutoff(scaled: np.ndarray) -> float:
    """Largest lambda where the MGF estimate is still statistically usable.

    The relative standard error of mgf_hat(lam) is
    sqrt((m2/m^2 - 1)/M) with m2 the empirical MGF at 2*lam; the cutoff is
    the last scan point where this stays below RELSE_CAP for both signs.
    """
    m = len(scaled)
    log_m = math.log(m)
    cutoff = LAMBDA_GRID_START
    for lam in _SCAN:
        worst = 0.0
        for s in (lam, -lam):
            lm = _logsumexp(s * scaled) - log_m
            lm2 = _logsumexp(2.0 * s * scaled) - log_m
            relse2 = max(math.expm1(lm2 - 2.0 * lm), 0.0) / m
            worst = max(worst, math.sqrt(relse2))
        if worst > RELSE_CAP:
            break
        cutoff = float(lam)
    return cutoff


def bphi_norm(sample: Sample, phi: PhiFunction) -> tuple:
    """Exponential-moment norm estimate; returns (tau_hat, lambda_grid_max).

    tau_hat is +inf (with a warning) when some grid log-MGF value exceeds
    the supremum of phi over its domain, which can only happen for phi
    bounded on a finite domain (table-backed families): the sample then
    sits outside the exponential-moment space generated by phi.  Raises
    :class:`CenteringError` for visibly uncentered samples.

    The sample mean is subtracted before the MGF scan.  Without this the
    residual mean noise mu dominates the log-MGF at small lambda (the sign
    max makes it ~ lambda*|mu|) and the ratio sqrt-blows-up as lambda -> 0;
    the target variable is centered by assumption, so the subtraction only
    removes estimation noise.
    """
    _check_centering(sample.values)
    unit, unit_scale = _unit_scaled(sample.values)
    centered = unit - unit.mean()
    scale = float(np.max(np.abs(centered)))
    if scale == 0.0:
        return 0.0, LAMBDA_GRID_START
    scaled = centered / scale
    lam_max = _lambda_cutoff(scaled)
    grid = np.geomspace(LAMBDA_GRID_START, lam_max, LAMBDA_GRID_SIZE)
    p = np.array([max(_log_mgf(scaled, lam), _log_mgf(scaled, -lam), 0.0)
                  for lam in grid])
    grid, p = grid[p > 0.0], p[p > 0.0]
    if not len(p):
        return 0.0, lam_max
    roots, reached = _inverse_many(phi, p)
    if not reached.all():
        i = int(np.argmin(reached))  # the first level beyond sup phi
        warnings.warn(
            f"{sample.label}: log MGF at lambda={grid[i]:g} exceeds the "
            f"range of {phi.label} ({_unreachable(phi, p[i])}); norm "
            f"reported as +inf", RuntimeWarning, stacklevel=2)
        return math.inf, float(grid[i])
    return float((roots / grid).max()) * scale * unit_scale, lam_max


def gpsi_norm(sample: Sample, phi: PhiFunction) -> tuple:
    """Moment-growth norm estimate; returns (g_hat, p_max).

    The p grid runs over integers and half-integers in [2, log2(M)];
    p = 2 is always included so tiny samples still produce an estimate.
    """
    v, unit_scale = _unit_scaled(np.abs(sample.values))
    p_max = max(2.0, math.log2(sample.size))
    grid = np.arange(2.0, p_max + 1e-9, 0.5)
    if len(grid) == 0:
        grid = np.array([2.0])
    roots, reached = _inverse_many(phi, grid)
    if not reached.all():  # the first p beyond sup phi
        raise _unreachable(phi, grid[np.argmin(reached)])
    moments = np.array([float(np.mean(v ** p)) ** (1.0 / p) for p in grid])
    # psi(p) = p / phi_inverse(p)
    g_hat = float((moments / (grid / roots)).max()) * unit_scale
    return max(0.0, g_hat), float(grid[-1])


def gnorm_tail_bound(g_norm: float, u: float, c3: float) -> float:
    """Exponential tail bound 2*exp(-u / (c3 * g_norm)) from the moment norm."""
    if g_norm <= 0 or u <= 0 or c3 <= 0:
        raise DomainError("gnorm_tail_bound needs positive g_norm, u, c3")
    return 2.0 * math.exp(-u / (c3 * g_norm))


def estimate_norms(sample: Sample, phi: PhiFunction) -> NormEstimate:
    """Run both estimators and package the result with its diagnostics."""
    mean_abs = _check_centering(sample.values)
    b, lam_max = bphi_norm(sample, phi)
    g, p_max = gpsi_norm(sample, phi)
    return NormEstimate(b_norm=b, g_norm=g, lambda_grid_max=lam_max,
                        p_max=p_max, mean_abs=mean_abs,
                        sample_size=sample.size, phi_label=phi.label)
