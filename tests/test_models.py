"""Tests for the concrete martingale families."""

import math
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest

from lilbound import (
    DomainError,
    chaos_identity_check,
    chaos_model,
    power_law_surrogate,
    weighted_iid_model,
)
from oracles import ChaosState, chaos_stepper, weighted_stepper


def brute_force_chaos(signs: np.ndarray, d: int) -> np.ndarray:
    """S_d(n) as the literal sum over increasing index tuples."""
    paths, n = signs.shape
    out = np.zeros((paths, n), dtype=np.int64)
    wide = signs.astype(np.int64)
    for m in range(1, n + 1):
        total = np.zeros(paths, dtype=np.int64)
        for idx in combinations(range(m), d):
            total += wide[:, list(idx)].prod(axis=1)
        out[:, m - 1] = total
    return out


# ---------------------------------------------------------------------------
# sign chaos
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
def test_chaos_prefix_matches_brute_force(d):
    n = 9
    signs = np.array(list(product((-1, 1), repeat=n)), dtype=np.int8)
    model = chaos_model(d)
    values, _ = model.prefix_values(signs)
    assert np.array_equal(values.astype(np.int64),
                          brute_force_chaos(signs, d))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_chaos_prefix_state_carries_across_blocks(d):
    model = chaos_model(d)
    rng = np.random.default_rng(5)
    signs = rng.choice(np.array([-1, 1], dtype=np.int8), size=(40, 12))
    whole, _ = model.prefix_values(signs)
    head, state = model.prefix_values(signs[:, :5])
    tail, _ = model.prefix_values(signs[:, 5:], state)
    assert np.array_equal(np.concatenate([head, tail], axis=1), whole)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_exact_stepper_agrees_with_closed_form(d):
    model = chaos_model(d)
    rng = np.random.default_rng(17)
    path = rng.choice([-1, 1], size=14)
    values, _ = model.prefix_values(path[None, :].astype(np.int8))
    exact = chaos_stepper(d)
    state = exact.new_state()
    for i, eps in enumerate(path):
        state = exact.step(state, int(eps))
        assert exact.read_s(state) == int(values[0, i])


def test_chaos_state_is_exact_integer_arithmetic():
    st = ChaosState(2)
    for eps in (1, 1, 1, -1, 1, 1):
        st = st.step(eps)
    # e holds (1, P1, S_2); six steps with one flip: P1 = 4
    assert st.e[1] == 4
    assert isinstance(st.e[2], int)
    with pytest.raises(DomainError):
        st.step(0)


@pytest.mark.parametrize("d,n,expected", [(2, 4, 6), (3, 5, 10)])
def test_chaos_variance_by_enumeration(d, n, expected):
    # sigma(n)^2 = C(n, d), checked as an exact integer average
    signs = np.array(list(product((-1, 1), repeat=n)), dtype=np.int8)
    model = chaos_model(d)
    values, _ = model.prefix_values(signs)
    second_moment_sum = int((values[:, -1].astype(np.int64) ** 2).sum())
    assert second_moment_sum == expected * 2 ** n
    assert float(model.sigma_exact(n)) == pytest.approx(math.sqrt(expected))
    assert math.comb(n, d) == expected


def test_chaos_identity_holds_on_random_paths():
    rng = np.random.default_rng(99)
    signs = rng.choice(np.array([-1, 1], dtype=np.int8), size=(200, 300))
    assert chaos_identity_check(signs)


def test_chaos_identity_rejects_corrupted_values():
    signs = np.ones((4, 10), dtype=np.int8)
    signs[0, 3] = 0  # not a sign vector
    with pytest.raises(DomainError):
        chaos_identity_check(signs)


def test_chaos_degree_validation():
    with pytest.raises(DomainError):
        chaos_model(0)
    # degree 4 is simulated: an all-plus path has S(n) = C(n, 4)
    values, _ = chaos_model(4).prefix_values(np.ones((2, 6), dtype=np.int8))
    assert values[0].tolist() == [math.comb(n, 4) for n in range(1, 7)]
    # degree 12 over 1024 steps passes int64, so it is refused
    with pytest.raises(DomainError, match="passes int64"):
        chaos_model(12).prefix_values(np.ones((2, 1024), dtype=np.int8))


def test_chaos_degree_capped_where_its_factorial_leaves_float_range():
    assert chaos_model(170).label == "chaos:d=170"
    with pytest.raises(DomainError):
        chaos_model(171)


def test_chaos_generator_assignment():
    assert chaos_model(1).phi.label == "phi2"
    assert chaos_model(2).phi.label == "chi2"
    assert chaos_model(3).phi.label == "phi2"


def test_chaos_sigma_profile_absorbs_degenerate_prefix():
    model = chaos_model(2)
    profile = model.sigma_profile()
    # engine index 1 is model time n_min = 2, where sigma = sqrt(C(2,2))
    assert float(profile.evaluate(1)) == pytest.approx(1.0)
    assert float(profile.evaluate(3)) == pytest.approx(math.sqrt(6.0))
    # log-space route consistent with direct evaluation
    j = 50.0
    assert float(profile.log_sigma(np.log(j))) == pytest.approx(
        math.log(float(profile.evaluate(j))), rel=1e-12)


# ---------------------------------------------------------------------------
# weighted i.i.d. family
# ---------------------------------------------------------------------------

def test_weighted_two_step_support_is_exact():
    exact = weighted_stepper(beta=1.0)
    seen = set()
    for e1, e2 in product((-1, 1), repeat=2):
        state = exact.new_state()
        state = exact.step(state, e1)
        state = exact.step(state, e2)
        seen.add(exact.read_s(state))
    assert seen == {Fraction(3, 4), Fraction(1, 4),
                    Fraction(-1, 4), Fraction(-3, 4)}


def test_weighted_sigma_closed_form():
    model = weighted_iid_model(beta=2.0)
    for n in (1, 3, 10):
        direct = 2.0 * math.sqrt(sum(4.0 ** -k for k in range(1, n + 1)))
        assert float(model.sigma_exact(n)) == pytest.approx(direct, rel=1e-12)


def test_weighted_prefix_matches_stepper():
    model = weighted_iid_model(beta=1.0)
    signs = np.array([[1, -1, 1, 1, -1]], dtype=np.int8)
    values, _ = model.prefix_values(signs)
    exact = weighted_stepper(beta=1.0)
    state = exact.new_state()
    for i in range(5):
        state = exact.step(state, int(signs[0, i]))
        assert float(exact.read_s(state)) == pytest.approx(
            values[0, i], rel=1e-15)


def test_weibull_noise_variance_scaling():
    r = 3.0
    model = weighted_iid_model(beta=1.0, weibull_r=r)
    assert model.noise_kind == "generic_symmetric"
    assert model.phi.label == f"power:q={r / (r - 1):g}"
    # S(1) = xi(1)/2 with sd(xi) = beta, so sd(S(1)) = 1/2
    values, _ = model.prefix_values(model.noise_block(11, 0, 60000, 0, 1))
    assert float(values[:, 0].std()) == pytest.approx(0.5, rel=0.03)


def test_weibull_exponent_validation():
    with pytest.raises(DomainError):
        weighted_iid_model(weibull_r=1.0)
    with pytest.raises(DomainError):
        weighted_iid_model(beta=0.0)


def test_weighted_exact_stepper_rejects_non_sign_noise():
    exact = weighted_stepper(beta=1.0)
    with pytest.raises(DomainError):
        exact.step(exact.new_state(), 2)


# ---------------------------------------------------------------------------
# detached variance profiles
# ---------------------------------------------------------------------------

def test_power_law_surrogate_forms():
    one = power_law_surrogate(0.5)
    lg = power_law_surrogate(0.5, m="log")
    inv = power_law_surrogate(0.5, m="invlog")
    n = 100.0
    assert float(one.evaluate(n)) == pytest.approx(10.0)
    assert float(lg.evaluate(n)) > float(one.evaluate(n))
    assert float(inv.evaluate(n)) < float(one.evaluate(n))
    for prof in (one, lg, inv):
        assert float(prof.log_sigma(math.log(n))) == pytest.approx(
            math.log(float(prof.evaluate(n))), rel=1e-12)
    # stays finite where n itself overflows
    assert np.isfinite(float(one.log_sigma(1e8)))


def test_power_law_surrogate_validation():
    with pytest.raises(DomainError):
        power_law_surrogate(0.0)
    with pytest.raises(DomainError):
        power_law_surrogate(1.0, m="loglog")
