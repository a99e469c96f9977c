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
from lilbound.phi import (CONJUGATE_TOL, _conjugate_numeric_many,
                          conjugate_many, phi_from_table, phi_inverse, psi,
                          validate_phi)
from oracles import scalar_conjugate, scalar_phi_inverse


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


@pytest.mark.parametrize("phi", [power_phi(3.0), phi2()],
                         ids=["power:q=3", "phi2"])
def test_power_conjugate_past_float_range_is_inf_without_warning(phi):
    # (1e300)^(3/2) and (1e300)^2 overflow float64
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert conjugate_many(phi, [1e300]).tolist() == [math.inf]
        assert conjugate_many(phi, np.array([1e300, 2.0]))[0] == math.inf


def test_power_family_rejects_degenerate_exponent():
    # q = 1 puts the conjugate exponent at the q' = inf boundary.
    with pytest.raises(DomainError):
        power_phi(1.0)
    with pytest.raises(DomainError):
        power_phi(0.5)


# ---------------------------------------------------------------------------
# the lockstep solver against the scalar oracle
# ---------------------------------------------------------------------------

def quadratic_table():
    """lambda^2/2 tabulated on [0, 40]; the open right edge is at 40."""
    lams = np.arange(801) / 20.0
    return phi_from_table(lams, lams * lams / 2.0)


def test_conjugate_many_bit_identical_to_scalar_on_table():
    # the table's numeric twin: its closed form would bypass the solver
    table = numeric_only(quadratic_table())
    # 0, interior points, the slope 40 at the edge and past it (where the
    # supremum sits at the domain edge), and large u, up to 1e308 whose
    # edge value overflows to inf; then repeated and unsorted levels,
    # which the array solver solves once each
    us = np.concatenate([[0.0], np.linspace(0.01, 39.9, 97),
                         [39.99, 40.0, 40.01, 45.0, 1e3, 1e6, 1e308],
                         [3.0, 0.5, 3.0, 1e6, 0.0, 45.0, 0.5, 3.0]])
    expected = [scalar_conjugate(table, float(u))[0] for u in us]
    np.testing.assert_array_equal(conjugate_many(table, us), expected)
    assert conjugate_many(table, us)[0] == 0.0


def test_points_past_the_last_slope_join_the_lockstep_solve(bisections):
    # they take the edge value inside the one array solve: no point is
    # solved on its own
    table = numeric_only(quadratic_table())
    us = np.array([10.0, 40.0, 45.0, 1e3])
    expected = [scalar_conjugate(table, float(u))[0] for u in us]
    np.testing.assert_array_equal(conjugate_many(table, us), expected)
    assert bisections == [4]


def test_conjugate_at_the_domain_edge_never_exceeds_the_exact_value():
    # lambda^2/2 on [0, 40): for u >= 40 the supremum is the edge value
    # 40u - 800, approached from below inside the open domain
    table = quadratic_table()
    us = np.array([40.0, 40.01, 41.0, 45.0, 100.0, 1e3, 1e6])
    for value, u in zip(conjugate_many(table, us), us):
        exact = 40 * Fraction(float(u)) - 800
        assert Fraction(float(value)) <= exact
        assert Fraction(scalar_conjugate(table, float(u))[0]) <= exact
        assert value == pytest.approx(float(exact), rel=1e-10)


def test_small_range_table_takes_the_edge_value_far_past_its_slope():
    # lambda^2/2 on [0, 0.04): at u = 1e4 the supremum is the edge value
    # 0.04u - 0.0008; closing in on an edge the slope never reaches
    # stalled here, since the objective still rises at rate u there
    lams = np.linspace(0.0, 0.04, 81)
    table = numeric_only(phi_from_table(lams, lams * lams / 2.0))
    us = np.array([0.01, 0.05, 1.0, 1e4])
    values = conjugate_many(table, us)
    np.testing.assert_array_equal(
        values, [scalar_conjugate(table, float(u))[0] for u in us])
    for value, u in zip(values[1:], us[1:]):
        exact = (Fraction(lams[-1]) * Fraction(float(u))
                 - Fraction(lams[-1] * lams[-1] / 2.0))
        assert Fraction(float(value)) <= exact
        assert value == pytest.approx(float(exact), rel=1e-10)


# ---------------------------------------------------------------------------
# the closed-form conjugate of a convex table
# ---------------------------------------------------------------------------

def _tabulated(f, top, rows, power=1):
    """f on rows knots spread over [0, top] as the power of an even grid."""
    lams = np.linspace(0.0, top ** (1.0 / power), rows) ** power
    return phi_from_table(lams, f(lams))


CONVEX_TABLES = {
    "lam2-40": quadratic_table,
    "lam2-0.04": lambda: _tabulated(lambda x: x * x / 2.0, 0.04, 81),
    "cosh": lambda: _tabulated(lambda x: np.cosh(x) - 1.0, 5.0, 501),
    "chi2": lambda: _tabulated(chi_square_phi().evaluate, 0.7, 701),
    "cube-uneven": lambda: _tabulated(lambda x: x ** 3 / 3.0, 9.0, 300, 2),
}


@pytest.mark.parametrize("make", CONVEX_TABLES.values(), ids=CONVEX_TABLES)
def test_convex_table_closed_form_matches_its_numeric_twin(make, bisections):
    # the numeric solver's contract: 1e-10 absolute; at u = 1e-6 its
    # difference quotients leave the twin a third low on lam2-40, 8e-14
    table = make()
    assert table.analytic_conjugate is not None
    us = np.concatenate([[0.0], np.geomspace(1e-6, 1e3, 400)])
    closed = conjugate_many(table, us)
    assert bisections == [] and closed[0] == 0.0
    twin = conjugate_many(numeric_only(table), us)
    gap = np.abs(closed - twin)
    assert np.all(gap <= np.maximum(1e-12 * twin, 1e-10)), gap.max()


@pytest.mark.parametrize("make", CONVEX_TABLES.values(), ids=CONVEX_TABLES)
def test_convex_table_closed_form_is_nondecreasing_in_u(make):
    # the premise of the engine's envelope
    values = conjugate_many(make(), np.concatenate([
        np.linspace(0.0, 1.0, 100001), np.geomspace(1.0, 1e3, 100001)]))
    assert np.all(np.diff(values) >= 0.0)


@pytest.mark.parametrize("make", CONVEX_TABLES.values(), ids=CONVEX_TABLES)
def test_convex_table_takes_the_edge_value_past_its_last_slope(make):
    # 1.5 times the slope near the edge is past the last knot
    # derivative; from there on the value is lam u - p(lam) at the
    # solver's edge, bit for bit, inf where lam u overflows
    table = make()
    cap = phi_module._domain_cap(table)
    lams = np.array([table.lambda0 * 0.999, table.lambda0 * 0.9999])
    slope = float(np.diff(table.evaluate(lams))[0] / np.diff(lams)[0])
    us = np.array([1.5, 2.0, 10.0, 1e6]) * slope
    us = np.concatenate([us, [1e308, math.inf]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        closed = conjugate_many(table, us)
    with np.errstate(over="ignore"):
        edge = cap * us - table.evaluate(np.full(len(us), cap))
    np.testing.assert_array_equal(closed, edge)
    np.testing.assert_array_equal(closed,
                                  conjugate_many(numeric_only(table), us))
    assert closed[-1] == math.inf


def test_tables_with_concave_pieces_keep_the_numeric_solver(bisections):
    # |lambda|^1.5 at step 2.5 has p'' = -0.083 on its piece 1, and
    # PCHIP bends the pieces of random convex data the same way
    lams = np.arange(801) * 2.5
    tables = [phi_from_table(lams, lams ** 1.5),
              phi_from_table(*_random_table(np.random.default_rng(7)))]
    for table in tables:
        assert table.analytic_conjugate is None
        conjugate_many(table, np.array([0.5, 3.0]))
    assert bisections == [2, 2]


def test_unbounded_slope_search_without_an_edge_fails_cleanly():
    # slope 1 everywhere on an infinite domain never reaches u = 2
    from lilbound.phi import PhiFunction
    linear = PhiFunction(label="linear", evaluate=np.abs)
    with pytest.raises(NonconvergenceError, match="bracketing"):
        scalar_conjugate(linear, 2.0)
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
    expected = [scalar_conjugate(phi, float(u))[0] for u in us]
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
        scalar_conjugate(phi, 2.5, CONJUGATE_TOL, 2)
    with pytest.raises(NonconvergenceError) as lockstep:
        _conjugate_numeric_many(phi, np.array([2.5]), CONJUGATE_TOL, 2)
    assert lockstep.value.residual == scalar.value.residual
    assert lockstep.value.residual > CONJUGATE_TOL
    # with several stalled points the worst residual is the one reported
    us = [0.5, 2.5, 7.0]
    worst = 0.0
    for u in us:
        with pytest.raises(NonconvergenceError) as one:
            scalar_conjugate(phi, u, CONJUGATE_TOL, 2)
        worst = max(worst, one.value.residual)
    with pytest.raises(NonconvergenceError) as many:
        _conjugate_numeric_many(phi, np.array(us), CONJUGATE_TOL, 2)
    assert many.value.residual == worst


# at 7 (q = 3) and 15.017337646208873 (phi2) the closed form's power
# rounds differently as a scalar ** and as numpy's array power
ONE_POINT_LEVELS = [0.0, 1e-8, 1e-3, 0.5, 1.0, 2.5, 7.0, 15.017337646208873,
                    39.99, 40.0, 40.01, 45.0, 1e3, 1e6, 1e300]


@pytest.mark.parametrize("make", [phi2, cosh_phi, chi_square_phi,
                                  lambda: power_phi(1.5),
                                  lambda: power_phi(3.0), quadratic_table,
                                  lambda: numeric_only(chi_square_phi())],
                         ids=["phi2", "cosh", "chi2", "power1.5", "power3",
                              "table", "chi2-numeric"])
def test_conjugate_is_conjugate_many_of_one_point(make):
    phi = make()
    for u in ONE_POINT_LEVELS:
        assert conjugate(phi, u) == conjugate_many(phi, [u])[0], u


def test_table_inverse_bit_identical_to_scalar_oracle(bisections):
    # every p in one lockstep solve, each on the oracle's steps
    table = quadratic_table()
    ps = np.concatenate([np.geomspace(1e-12, 799.0, 97), [4.5, 1.0, 800.0]])
    roots, reached = phi_module._inverse_many(table, ps)
    assert bisections == [len(ps)]
    assert reached.tolist() == [True] * 99 + [False]
    np.testing.assert_array_equal(
        roots[:-1], [scalar_phi_inverse(table, float(p)) for p in ps[:-1]])
    for p in ps[:-1]:
        assert phi_inverse(table, float(p)) == scalar_phi_inverse(table,
                                                                   float(p))
    with pytest.raises(UnreachableValueError) as lockstep:
        phi_inverse(table, 800.0)
    with pytest.raises(UnreachableValueError) as scalar:
        scalar_phi_inverse(table, 800.0)
    assert str(lockstep.value) == str(scalar.value)


def test_numeric_inverse_matches_scalar_oracle():
    for phi in (numeric_only(chi_square_phi()), numeric_only(cosh_phi())):
        for p in (1e-9, 0.25, 1.0, 4.0, 13.0):
            assert phi_inverse(phi, p) == scalar_phi_inverse(phi, p)


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


CHI2_INVERSE_LEVELS = [1e-300, 1e-30, 1e-12, 1e-6, 0.01, 0.1, 0.24, 0.5,
                       1.0, 2.0, 5.0, 13.3155, 13.4, 17.0, 25.0, 31.9,
                       32.0, 40.0, 1e3, 1e300]


def test_chi_square_inverse_matches_50_digits():
    # with t = sqrt2 lam, phi(lam) = p reads -t - log1p(-t) = 2p; in
    # w = -log1p(-t) that is w - 1 + exp(-w) = 2p, which Newton's method
    # solves from w = 2 sqrt(p); the left side cancels to about 2p, so
    # the working precision is 50 digits past p's decimal exponent
    mpmath = pytest.importorskip("mpmath")
    phi = chi_square_phi()
    roots = phi.analytic_inverse(np.array(CHI2_INVERSE_LEVELS))
    for p, root in zip(CHI2_INVERSE_LEVELS, roots):
        with mpmath.workdps(50 + max(0, -math.floor(math.log10(p)))):
            target = 2 * mpmath.mpf(p)
            w = 2 * mpmath.sqrt(mpmath.mpf(p))
            for _ in range(100):
                w -= (w - 1 + mpmath.exp(-w) - target) / -mpmath.expm1(-w)
            exact = -mpmath.expm1(-w) / mpmath.sqrt(2)
            assert abs(mpmath.mpf(float(root)) - exact) <= 4e-16 * exact, p
        assert phi_inverse(phi, p) == root
    assert phi.analytic_inverse(np.array([0.0]))[0] == 0.0
    assert phi_inverse(phi, 0.0) == 0.0


def test_chi_square_inverse_reaches_every_level():
    # phi is unbounded toward the edge 1/sqrt2: no level is beyond it,
    # and the inverse stays in the closed domain.  13.4 was past the sup
    # of phi at the clamped edge the bisection searched up to.  Near the
    # edge phi' is ~1e12, so one rounding of lambda moves phi by 1e-4.
    phi = chi_square_phi()
    for p in (13.4, 100.0, 1e300, math.inf):
        assert phi_inverse(phi, p) <= phi.lambda0
    for p, rel in ((0.5, 1e-15), (5.0, 1e-12), (13.4, 1e-4)):
        assert phi.evaluate(phi_inverse(phi, p)) == pytest.approx(p, rel=rel)


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
