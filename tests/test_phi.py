"""Tests for the generator families and the numeric conjugate solver."""

import math
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lilbound import (
    DomainError,
    NonconvergenceError,
    chi_square_phi,
    conjugate,
    conjugate_function,
    cosh_phi,
    phi2,
    power_phi,
    standard_grid,
)
from lilbound import phi as phi_module
from lilbound.errors import UnreachableValueError
from lilbound.phi import (CONJUGATE_TOL, _conjugate_numeric,
                          _conjugate_numeric_many, conjugate_many,
                          phi_from_table, phi_inverse, psi, validate_phi)


def numeric_only(phi):
    """Strip the closed-form companions so the solver has to work."""
    return replace(phi, analytic_conjugate=None, analytic_inverse=None)


# ---------------------------------------------------------------------------
# closed forms and the solver against them
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("u", [1e-8, 1e-6, 1e-3, 1.0, 1e3, 1e300])
@pytest.mark.parametrize("family", ["chi2", "cosh"])
def test_closed_form_conjugates_match_50_digits(family, u):
    # at small u both conjugates are O(u^2) built from terms of order 1
    # or u: a form that subtracts those loses every digit at 1e-8
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    x = mpmath.mpf(u)
    if family == "chi2":
        phi = chi_square_phi()
        exact = (mpmath.sqrt(2) * x - mpmath.log1p(mpmath.sqrt(2) * x)) / 2
    else:
        phi = cosh_phi()
        exact = x * mpmath.asinh(x) - mpmath.sqrt(1 + x * x) + 1
    for value in (conjugate(phi, u), conjugate_many(phi, [u, 2.0])[0]):
        assert abs(mpmath.mpf(value) - exact) <= 4e-16 * exact


@pytest.mark.parametrize("q", [1.5, 2.0, 3.0, 4.0])
def test_power_conjugate_matches_closed_form(q):
    qp = q / (q - 1.0)
    solver_phi = numeric_only(power_phi(q))
    for u in np.linspace(0.0, 20.0, 64):
        expected = u ** qp / qp
        assert conjugate(solver_phi, float(u)) == pytest.approx(
            expected, abs=1e-8)


def test_conjugate_at_zero_is_exactly_zero():
    for phi in (phi2(), cosh_phi(), chi_square_phi(),
                numeric_only(cosh_phi())):
        assert conjugate(phi, 0.0) == 0.0


def test_conjugate_rejects_negative_argument():
    with pytest.raises(DomainError):
        conjugate(phi2(), -0.5)


def test_cosh_numeric_solver_agrees_with_closed_form():
    closed = cosh_phi()
    solver = numeric_only(closed)
    for u in (0.1, 1.0, 5.0, 40.0):
        assert conjugate(solver, u) == pytest.approx(
            float(closed.analytic_conjugate(u)), rel=1e-9, abs=1e-10)


def test_chi_square_solver_handles_finite_domain_edge():
    # phi blows up at lambda0 = 1/sqrt(2); the solver must stay inside
    # the open domain while the supremum migrates toward the edge.
    closed = chi_square_phi()
    solver = numeric_only(closed)
    for u in (0.2, 1.0, 10.0, 200.0):
        assert conjugate(solver, u) == pytest.approx(
            float(closed.analytic_conjugate(u)), rel=1e-8)


@pytest.mark.parametrize("u", [1e17, 1e308, 1.5e308, 1.79e308])
def test_chi_square_closed_form_stays_finite_at_huge_u(u):
    # u/sqrt2 - log(sqrt2 u)/2 + O(1/u); log1p(-sqrt2 * lam) once
    # rounded lam to 1/sqrt2 and gave -inf, then NaN, and past
    # 2^1024/sqrt2 the product sqrt2*u itself overflows
    expected = (u / math.sqrt(2.0)
                - 0.5 * (math.log(u) + math.log(math.sqrt(2.0))))
    phi = chi_square_phi()
    assert conjugate(phi, u) == pytest.approx(expected, rel=1e-15)
    assert conjugate_many(phi, np.array([u]))[0] == conjugate(phi, u)


@pytest.mark.parametrize("u", [1e155, 1e300])
def test_cosh_closed_form_stays_finite_at_huge_u(u):
    # sqrt(1 + u^2) is u to the last bit here, but 1 + u*u overflowed
    expected = u * math.asinh(u) - u + 1.0
    assert conjugate(cosh_phi(), u) == pytest.approx(expected, rel=1e-15)


@pytest.mark.parametrize("phi", [phi2(), power_phi(3.0), cosh_phi(),
                                 chi_square_phi()], ids=lambda f: f.label)
def test_closed_form_conjugates_are_inf_at_inf(phi):
    # u = +inf is a legal block argument whose term is 0: the closed
    # forms must give +inf there, not inf - inf = NaN, and warn nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert conjugate(phi, math.inf) == math.inf
        values = conjugate_many(phi, np.array([math.inf, 1.0, math.inf]))
    assert values[0] == values[2] == math.inf
    assert values[1] == conjugate(phi, 1.0)


def test_chi_square_generator_undefined_past_edge():
    phi = chi_square_phi()
    with pytest.raises(DomainError):
        phi.evaluate(1.0 / math.sqrt(2.0))


def test_power_family_rejects_degenerate_exponent():
    # q = 1 puts the conjugate exponent at the q' = inf boundary.
    with pytest.raises(DomainError):
        power_phi(1.0)
    with pytest.raises(DomainError):
        power_phi(0.5)


# ---------------------------------------------------------------------------
# the array solver against the scalar one
# ---------------------------------------------------------------------------

def quadratic_table():
    """lambda^2/2 tabulated on [0, 40]; the open right edge is at 40."""
    lams = np.arange(801) / 20.0
    return phi_from_table(lams, lams * lams / 2.0)


def test_conjugate_many_bit_identical_to_scalar_on_table():
    table = quadratic_table()
    # 0, interior points, the slope 40 at the edge and past it (where the
    # supremum sits at the domain edge), and large u; then repeated and
    # unsorted levels, which the array solver solves once each
    us = np.concatenate([[0.0], np.linspace(0.01, 39.9, 97),
                         [39.99, 40.0, 40.01, 45.0, 1e3, 1e6],
                         [3.0, 0.5, 3.0, 1e6, 0.0, 45.0, 0.5, 3.0]])
    expected = [conjugate(table, float(u)) for u in us]
    np.testing.assert_array_equal(conjugate_many(table, us), expected)
    assert conjugate_many(table, us)[0] == 0.0


def test_points_past_the_last_slope_join_the_lockstep_solve(monkeypatch):
    # they take the edge value inside the array solve: no point goes
    # through the scalar solver on its own
    table = quadratic_table()
    us = np.array([10.0, 40.0, 45.0, 1e3])
    expected = [conjugate(table, float(u)) for u in us]

    def no_scalar_solve(*args):
        raise AssertionError("the array solver fell back to the scalar one")

    monkeypatch.setattr(phi_module, "_conjugate_numeric", no_scalar_solve)
    np.testing.assert_array_equal(conjugate_many(table, us), expected)


def test_conjugate_at_the_domain_edge_never_exceeds_the_exact_value():
    # lambda^2/2 on [0, 40): for u >= 40 the supremum is the edge value
    # 40u - 800, approached from below inside the open domain
    table = quadratic_table()
    us = np.array([40.0, 40.01, 41.0, 45.0, 100.0, 1e3, 1e6])
    for value, u in zip(conjugate_many(table, us), us):
        exact = 40 * Fraction(float(u)) - 800
        assert Fraction(float(value)) <= exact
        assert Fraction(conjugate(table, float(u))) <= exact
        assert value == pytest.approx(float(exact), rel=1e-10)


def test_small_range_table_takes_the_edge_value_far_past_its_slope():
    # lambda^2/2 on [0, 0.04): at u = 1e4 the supremum is the edge value
    # 0.04u - 0.0008; closing in on an edge the slope never reaches
    # stalled here, since the objective still rises at rate u there
    lams = np.linspace(0.0, 0.04, 81)
    table = phi_from_table(lams, lams * lams / 2.0)
    us = np.array([0.01, 0.05, 1.0, 1e4])
    values = conjugate_many(table, us)
    np.testing.assert_array_equal(
        values, [conjugate(table, float(u)) for u in us])
    for value, u in zip(values[1:], us[1:]):
        exact = (Fraction(lams[-1]) * Fraction(float(u))
                 - Fraction(lams[-1] * lams[-1] / 2.0))
        assert Fraction(float(value)) <= exact
        assert value == pytest.approx(float(exact), rel=1e-10)


def test_unbounded_slope_search_without_an_edge_fails_cleanly():
    # slope 1 everywhere on an infinite domain never reaches u = 2
    from lilbound.phi import PhiFunction
    linear = PhiFunction(label="linear", evaluate=np.abs)
    with pytest.raises(NonconvergenceError, match="bracketing"):
        conjugate(linear, 2.0)
    with pytest.raises(NonconvergenceError, match="bracketing"):
        conjugate_many(linear, np.array([0.5, 2.0]))


@pytest.mark.parametrize("q", [1.5, 2.0, 3.0, 4.0])
def test_conjugate_many_matches_scalar_on_power_family(q):
    # numpy's array pow and Python's ** may differ in the last bit, so
    # the two solvers agree to rounding here, not bit for bit
    phi = numeric_only(power_phi(q))
    us = np.linspace(0.0, 20.0, 256)
    expected = [conjugate(phi, float(u)) for u in us]
    np.testing.assert_allclose(conjugate_many(phi, us), expected,
                               rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("make", [cosh_phi, chi_square_phi])
def test_conjugate_many_matches_closed_form_on_cosh_and_chi2(make):
    # the array solver evaluates these generators on whole arrays; chi2's
    # large u pushes the supremum against its domain edge 1/sqrt(2)
    closed = make()
    us = np.concatenate([[0.0], np.geomspace(0.01, 200.0, 64)])
    np.testing.assert_allclose(conjugate_many(numeric_only(closed), us),
                               closed.analytic_conjugate(us),
                               rtol=1e-8, atol=1e-10)


def test_chi_square_generator_rejects_an_array_past_its_edge():
    phi = chi_square_phi()
    assert phi.evaluate(np.array([-0.5, 0.0, 0.5])).shape == (3,)
    with pytest.raises(DomainError):
        phi.evaluate(np.array([0.1, 0.8]))


def test_conjugate_many_keeps_shape_and_rejects_negative():
    for phi in (numeric_only(phi2()), phi2()):
        us = np.array([[0.5, 1.0], [2.0, 0.0]])
        assert conjugate_many(phi, us).shape == (2, 2)
        assert conjugate_many(phi, np.array([])).shape == (0,)
        with pytest.raises(DomainError):
            conjugate_many(phi, np.array([1.0, -0.5]))


def test_array_solver_stall_reports_scalar_residual():
    phi = numeric_only(phi2())
    with pytest.raises(NonconvergenceError) as scalar:
        _conjugate_numeric(phi, 2.5, CONJUGATE_TOL, 2)
    with pytest.raises(NonconvergenceError) as lockstep:
        _conjugate_numeric_many(phi, np.array([2.5]), CONJUGATE_TOL, 2)
    assert lockstep.value.residual == scalar.value.residual
    assert lockstep.value.residual > CONJUGATE_TOL
    # with several stalled points the worst residual is the one reported
    us = [0.5, 2.5, 7.0]
    worst = 0.0
    for u in us:
        with pytest.raises(NonconvergenceError) as one:
            _conjugate_numeric(phi, u, CONJUGATE_TOL, 2)
        worst = max(worst, one.value.residual)
    with pytest.raises(NonconvergenceError) as many:
        _conjugate_numeric_many(phi, np.array(us), CONJUGATE_TOL, 2)
    assert many.value.residual == worst


def test_table_generator_evaluates_arrays_elementwise():
    table = quadratic_table()
    lams = np.array([0.0, 0.3, -2.5, 39.0])
    np.testing.assert_array_equal(table.evaluate(lams),
                                  [table.evaluate(float(x)) for x in lams])
    with pytest.raises(DomainError):
        table.evaluate(np.array([1.0, 40.0]))


def _random_table(rng, flat=0):
    """A convex, nondecreasing table on uneven knots; its first `flat`
    segments have slope 0."""
    rows = int(rng.integers(4, 200))
    h = rng.uniform(0.01, 3.0, rows - 1)
    slopes = np.sort(rng.exponential(1.0, rows - 1)) * rng.uniform(0.1, 10.0)
    slopes[:flat] = 0.0
    lams = np.concatenate([[0.0], np.cumsum(h)])
    return lams, np.concatenate([[0.0], np.cumsum(slopes * h)])


def _assert_matches_scipy_pchip(lams, vals, rng):
    from scipy.interpolate import PchipInterpolator
    ours = phi_from_table(lams, vals).evaluate
    ref = PchipInterpolator(lams, vals, extrapolate=False)
    knots = lams[:-1]
    xs = np.concatenate([rng.uniform(0.0, lams[-1], 200), knots,
                         np.nextafter(lams[1:], 0.0)])
    expected = ref(xs)
    np.testing.assert_array_equal(ours(xs), expected)
    np.testing.assert_array_equal(ours(-xs), expected)
    assert [ours(float(x)) for x in xs] == list(expected)


def test_table_interpolator_is_scipy_pchip_to_the_bit():
    """phi_from_table evaluates exactly as scipy's PchipInterpolator: at
    random points, at every knot but the open right one, and one float
    below each knot, for scalars and arrays."""
    rng = np.random.default_rng(20261018)
    # the benchmark's table
    lams = np.arange(801) / 20.0
    _assert_matches_scipy_pchip(lams, lams * lams / 2.0, rng)
    assert np.isnan(phi_from_table(lams, lams).evaluate(np.array([np.nan]))[0])
    for _ in range(32):
        _assert_matches_scipy_pchip(*_random_table(rng), rng)
    # flat leading segments: interior knots between a zero slope and a
    # positive one take derivative 0
    for flat in (1, 3):
        _assert_matches_scipy_pchip(*_random_table(rng, flat=flat), rng)
    # a steep second segment makes the one-sided estimate at lambda = 0
    # negative, and it is clamped to 0.  The other end clamp, to 3 times
    # the end slope, needs adjacent slopes of opposite sign, which a
    # nondecreasing table cannot have.
    lams = np.array([0.0, 1.0, 1.1, 2.0, 3.0])
    slopes = np.array([0.1, 5.0, 6.0, 7.0])
    h0, h1 = np.diff(lams)[:2]
    assert ((2 * h0 + h1) * slopes[0] - h0 * slopes[1]) / (h0 + h1) < 0
    _assert_matches_scipy_pchip(
        lams, np.concatenate([[0.0], np.cumsum(slopes * np.diff(lams))]), rng)


def test_conjugate_function_evaluates_arrays_elementwise():
    for phi in (phi2(), numeric_only(phi2())):
        star = conjugate_function(phi)
        us = np.array([0.0, 0.5, -3.0, 8.0])
        np.testing.assert_allclose(star.evaluate(us),
                                   [star.evaluate(float(u)) for u in us],
                                   rtol=1e-12, atol=0.0)


# ---------------------------------------------------------------------------
# double conjugation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("phi", [phi2(), cosh_phi()],
                         ids=["phi2", "cosh"])
def test_double_conjugate_recovers_generator(phi):
    star = conjugate_function(phi)
    lams = standard_grid(phi, size=48)
    for lam in lams:
        direct = phi.evaluate(float(lam))
        again = conjugate(star, float(lam))
        assert again == pytest.approx(direct, rel=1e-6, abs=1e-12)


def test_conjugate_function_carries_no_analytic_shortcut():
    star = conjugate_function(phi2())
    assert star.analytic_conjugate is None
    assert star.analytic_inverse is None


# ---------------------------------------------------------------------------
# inverses and the moment profile
# ---------------------------------------------------------------------------

def test_phi_inverse_roundtrip():
    for phi in (numeric_only(phi2()), cosh_phi(), numeric_only(cosh_phi())):
        for p in (0.25, 1.0, 4.0, 30.0):
            lam = phi_inverse(phi, p)
            assert phi.evaluate(lam) == pytest.approx(p, rel=1e-10)
    assert phi_inverse(phi2(), 0.0) == 0.0


def test_psi_at_two_for_quadratic_generator():
    # phi2 inverse of 2 is 2, so psi(2) = 1 exactly.
    assert psi(phi2(), 2.0) == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(DomainError):
        psi(phi2(), 1.5)


def test_table_generator_conjugate_and_unreachable_inverse():
    lams = np.linspace(0.0, 4.0, 200)
    table = phi_from_table(lams, [x * x / 2.0 for x in lams])
    # interior of the table: conjugate should track the quadratic's
    assert conjugate(table, 1.5) == pytest.approx(1.125, rel=1e-3)
    # the table caps phi at phi(4) = 8; deeper values are unreachable
    with pytest.raises(UnreachableValueError):
        phi_inverse(table, 50.0)


# ---------------------------------------------------------------------------
# structural validation
# ---------------------------------------------------------------------------

def test_validate_phi_accepts_builtins():
    for phi in (phi2(), cosh_phi(), chi_square_phi(), power_phi(3.0)):
        report = validate_phi(phi, size=128)
        assert report.passed, report


def test_validate_phi_flags_sublinear_generator():
    from lilbound.phi import PhiFunction

    concave = PhiFunction(label="sqrt", evaluate=lambda l: abs(l) ** 0.5)
    report = validate_phi(concave, size=128)
    assert not report.strictly_convex
    assert not report.superlinear
    assert not report.passed


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

class TestYoungInequality:
    """lambda * u <= phi(lambda) + phi*(u) with equality somewhere."""

    @given(lam=st.floats(0.0, 8.0), u=st.floats(0.0, 8.0))
    def test_pointwise_inequality_quadratic(self, lam, u):
        star = conjugate(numeric_only(phi2()), u)
        assert lam * u <= lam * lam / 2.0 + star + 1e-9

    @given(lam=st.floats(0.0, 0.65), u=st.floats(0.0, 30.0))
    def test_pointwise_inequality_chi_square(self, lam, u):
        phi = chi_square_phi()
        star = conjugate(phi, u)
        assert lam * u <= phi.evaluate(lam) + star + 1e-9

    @given(u=st.floats(0.1, 15.0))
    def test_supremum_attained_for_cosh(self, u):
        # the maximizing lambda is asinh(u); the gap there must vanish
        phi = cosh_phi()
        star = conjugate(numeric_only(phi), u)
        lam = math.asinh(u)
        gap = phi.evaluate(lam)
        assert lam * u - gap == pytest.approx(star, rel=1e-8, abs=1e-9)


@given(u=st.floats(0.0, 50.0), q=st.sampled_from([1.5, 2.0, 2.5, 4.0]))
def test_conjugate_monotone_in_u(u, q):
    phi = power_phi(q)
    assert conjugate(phi, u + 0.5) > conjugate(phi, u)
