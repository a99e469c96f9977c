"""Tests for the two norm estimators and the tail helpers."""

import math

import numpy as np
import pytest

from lilbound import (DomainError, Sample, chi_square_phi, cosh_phi,
                      estimate_norms, phi2)
from lilbound.errors import CenteringError
from lilbound.norms import (NormEstimate, _logsumexp, bphi_norm,
                            gnorm_tail_bound, gpsi_norm, tail_function)
from lilbound.phi import phi_from_table


def sign_sample(m: int = 1000) -> Sample:
    """Alternating +-1, exactly centered, max-abs one."""
    vals = np.tile([1.0, -1.0], m // 2)
    return Sample(vals, label="signs")


def test_sign_sample_norms_under_quadratic_generator():
    s = sign_sample()
    b, lam_max = bphi_norm(s, phi2())
    g, p_max = gpsi_norm(s, phi2())
    # log cosh(l) <= l^2/2 with equality in the l -> 0 limit, so the
    # exponential-moment norm approaches 1 from below at the grid start.
    assert 0.999 < b <= 1.0
    assert lam_max > 1.0
    # every absolute moment is 1 and psi(p) = sqrt(p/2) is smallest at
    # p = 2, where it equals 1: the moment norm is exactly 1.
    assert g == pytest.approx(1.0, rel=1e-12)
    assert p_max == pytest.approx(math.log2(s.size), abs=0.5)


def test_gaussian_sample_norms_near_one():
    rng = np.random.default_rng(7)
    s = Sample(rng.standard_normal(20000), label="gauss")
    est = estimate_norms(s, phi2())
    assert est.b_norm == pytest.approx(1.0, rel=0.05)
    assert est.g_norm == pytest.approx(1.0, rel=0.05)
    assert est.sample_size == 20000
    assert est.phi_label == "phi2"


def test_uncentered_sample_is_rejected():
    rng = np.random.default_rng(3)
    shifted = rng.standard_normal(5000) + 0.2
    with pytest.raises(CenteringError):
        bphi_norm(Sample(shifted), phi2())
    with pytest.raises(CenteringError):
        estimate_norms(Sample(shifted), phi2())


@pytest.mark.parametrize("factor", [0.25, 2.0, 16.0, 2.0 ** -600,
                                    2.0 ** 600])
def test_norms_are_positively_homogeneous(factor):
    rng = np.random.default_rng(11)
    base = rng.standard_normal(4000)
    b0, _ = bphi_norm(Sample(base), phi2())
    g0, _ = gpsi_norm(Sample(base), phi2())
    b1, _ = bphi_norm(Sample(base * factor), phi2())
    g1, _ = gpsi_norm(Sample(base * factor), phi2())
    assert b1 == pytest.approx(factor * b0, rel=1e-9)
    assert g1 == pytest.approx(factor * g0, rel=1e-9)


def test_constant_zero_sample_has_zero_norm():
    b, _ = bphi_norm(Sample(np.zeros(64)), phi2())
    assert b == 0.0


def test_bounded_table_generator_yields_infinite_norm():
    # phi capped at 0.005 cannot absorb the sign sample's log-MGF, which
    # grows linearly in lambda; the estimator reports +inf with a warning
    # instead of silently clipping.
    lams = np.linspace(0.0, 0.1, 50)
    small = phi_from_table(lams, lams ** 2 / 2.0)
    with pytest.warns(RuntimeWarning):
        b, _ = bphi_norm(sign_sample(), small)
    assert b == math.inf


def test_chi_square_norm_of_signs_is_finite():
    # the sign sample's log-MGF log cosh(lambda) passes 13.4, the sup of
    # chi2 at the clamped domain edge the bisection searched up to; chi2
    # is unbounded, and chi2 >= lambda^2/2 makes its norm the smaller
    b_chi2, lam_max = bphi_norm(sign_sample(), chi_square_phi())
    b_phi2, _ = bphi_norm(sign_sample(), phi2())
    assert 0.0 < b_chi2 <= b_phi2
    assert lam_max > 14.0


@pytest.mark.parametrize("estimator", [bphi_norm, gpsi_norm])
def test_norm_estimators_solve_their_grid_once(estimator, bisections):
    lams = np.arange(801) / 20.0
    table = phi_from_table(lams, lams * lams / 2.0)
    sample = Sample(np.random.default_rng(5).standard_normal(5000))
    value, _ = estimator(sample, table)
    assert len(bisections) == 1 and bisections[0] > 1
    # the interpolated table is least like lambda^2/2 next to 0
    assert value == pytest.approx(estimator(sample, phi2())[0], rel=0.02)


def test_tail_function_takes_the_larger_side():
    s = Sample(np.array([-2.0, -1.0, 0.5, 3.0]))
    assert tail_function(s, 1.0) == pytest.approx(0.25)
    assert tail_function(s, 0.0) == pytest.approx(0.5)
    assert tail_function(s, 0.75) == pytest.approx(0.5)  # left side wins
    assert tail_function(s, 5.0) == 0.0
    with pytest.raises(DomainError):
        tail_function(s, -0.1)


def test_gnorm_tail_bound_formula():
    assert gnorm_tail_bound(1.0, 2.0, 1.0) == pytest.approx(
        2.0 * math.exp(-2.0))
    assert gnorm_tail_bound(0.5, 3.0, 2.0) == pytest.approx(
        2.0 * math.exp(-3.0))
    for bad in ((0.0, 1.0, 1.0), (1.0, 0.0, 1.0), (1.0, 1.0, 0.0)):
        with pytest.raises(DomainError):
            gnorm_tail_bound(*bad)


def test_sample_validation_and_csv_roundtrip(tmp_path):
    with pytest.raises(DomainError):
        Sample(np.array([1.0]))
    with pytest.raises(DomainError):
        Sample(np.array([1.0, np.nan]))
    with pytest.raises(DomainError):
        Sample(np.eye(3))

    path = tmp_path / "draws.csv"
    path.write_text("# one draw per line\n0.5\n-0.25\n1.5\n-1.75\n")
    s = Sample.from_csv(str(path))
    assert s.size == 4
    assert s.values[2] == 1.5
    assert s.label.endswith("draws.csv")


def test_estimate_norms_serialization():
    est = estimate_norms(sign_sample(), cosh_phi())
    d = est.to_dict()
    assert set(d) == {"b_norm", "g_norm", "lambda_grid_max", "p_max",
                      "mean_abs", "sample_size", "phi"}
    assert isinstance(est, NormEstimate)
    assert d["phi"] == "cosh"
    assert d["mean_abs"] == 0.0


def logsumexp_cases():
    rng = np.random.default_rng(2026)
    for _ in range(300):
        n = int(rng.integers(1, 5000))
        a = rng.standard_normal(n) * 10.0 ** rng.uniform(-3.0, 3.0)
        yield a
        tied = a.copy()
        tied[rng.integers(0, n, size=1 + n // 3)] = a.max()
        yield tied
        yield np.round(a)
    inf, nan = math.inf, math.nan
    for special in ([0.0], [-0.0], [5.0, 5.0, 5.0], [700.0, 700.0],
                    [1e308, 1e308], [-1e308, 1e308], [-745.0, 0.0],
                    [inf], [-inf], [nan], [1.0, inf], [1.0, -inf],
                    [-inf, -inf], [nan, 1.0], [inf, -inf], [inf, inf],
                    [inf, nan], [2.0, 2.0, -inf, nan]):
        yield np.array(special)


def test_logsumexp_equals_scipy_to_the_bit():
    from scipy.special import logsumexp
    for a in logsumexp_cases():
        ours = _logsumexp(a.copy())
        with np.errstate(over="ignore", invalid="ignore"):
            ref = float(logsumexp(a))
        if math.isnan(ref):
            assert math.isnan(ours), a
        else:
            assert np.float64(ours).tobytes() == np.float64(ref).tobytes(), a
