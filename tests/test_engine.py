"""Tests for partitions, block sums, and the optimized tail bound."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lilbound import (
    DomainError,
    NormingSequence,
    SigmaProfile,
    block_sum,
    chaos_model,
    constant_norming,
    fit_rate_form,
    iterated_log_norming,
    optimized_bound,
    phi2,
    power_law_surrogate,
    single_time_lower_bound,
    weighted_iid_model,
)
from lilbound import engine, phi as phi_module
from lilbound.cli import (model_from_id, norming_from_id, phi_from_id,
                          profile_from_id)
from lilbound.engine import (_DIVERGENCE_RUN, _PREFIX, DEFAULT_KMAX,
                             DEFAULT_RATIOS, DEFAULT_TOL, BoundReport,
                             _block_arguments, _certified_windows,
                             _finish_sum, _scan_terms, _term_ratios,
                             bound_at_least)
from lilbound.phi import (conjugate, conjugate_many, phi_from_csv,
                          phi_from_table)
from oracles import (Partition, block_term, dp_partition_oracle,
                     geometric_partition, geometric_prefix_sum,
                     optimized_bound_oracle, scan_terms)

SQRT_SIGMA = power_law_surrogate(0.5)   # sigma(n) = sqrt(n)
V2 = iterated_log_norming(2.0)
_LAMS = np.arange(801) / 20.0
#: lambda^2/2 tabulated on [0, 40]: phi2 through the table's closed form,
#: and through the numeric conjugate in its twin
LAM2_TABLE = phi_from_table(_LAMS, _LAMS * _LAMS / 2.0)
LAM2_NUMERIC = replace(LAM2_TABLE, analytic_conjugate=None)

# norming growing like sqrt(n): fast enough decay for a certified stop,
# which no built-in norming produces (iterated-log tails decay only
# polynomially and the constant norming diverges outright)
SQRT_NORMING = NormingSequence(
    label="sqrt-growth",
    evaluate=lambda n: np.sqrt(np.asarray(n, dtype=float)),
    eval_log=lambda log_n: np.exp(
        np.minimum(0.5 * np.asarray(log_n, dtype=float), 700.0)))


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------

def test_partition_blocks_and_validation():
    p = Partition((1, 3, 6, 20))
    assert p.depth == 3
    assert p.block(1) == (1, 2)
    assert p.block(2) == (3, 5)
    assert p.block(3) == (6, 19)
    assert p.b_values == (2, 5, 19)
    with pytest.raises(DomainError):
        p.block(4)
    with pytest.raises(DomainError):
        Partition((2, 5))          # must start at 1
    with pytest.raises(DomainError):
        Partition((1, 2, 5))       # first block shorter than 2


def test_geometric_partition_boundaries():
    # the min-gap rule lifts early boundaries above the pure powers
    p = geometric_partition(2.0, 6)
    assert p.a_values == (1, 3, 5, 8, 16, 32, 64)
    with pytest.raises(DomainError):
        geometric_partition(1.5, 4)
    with pytest.raises(DomainError):
        geometric_partition(3.0, 80)  # beyond the exact integer range


# ---------------------------------------------------------------------------
# block terms
# ---------------------------------------------------------------------------

def test_block_term_union_bound_baseline():
    # flat sigma and v == 1 collapse the argument to u itself
    flat = SigmaProfile(label="flat",
                        evaluate=lambda n: np.full(np.shape(n), 2.0),
                        log_sigma=lambda log_n: np.full(np.shape(log_n),
                                                        math.log(2.0)))
    p = geometric_partition(2.0, 4)
    for u in (1.0, 2.5):
        for k in (1, 2, 4):
            term = block_term(k, p, constant_norming(1.0), flat, phi2(), u)
            assert term == pytest.approx(math.exp(-u * u / 2.0), rel=1e-12)


def test_block_term_rejects_nonpositive_level():
    p = geometric_partition(2.0, 3)
    with pytest.raises(DomainError):
        block_term(1, p, V2, SQRT_SIGMA, phi2(), 0.0)


class TestBlockTermProperties:
    @given(u=st.floats(0.05, 12.0), k=st.integers(1, 8))
    def test_term_in_unit_interval_and_decreasing_in_u(self, u, k):
        p = geometric_partition(3.0, 8)
        t = block_term(k, p, V2, SQRT_SIGMA, phi2(), u)
        t_up = block_term(k, p, V2, SQRT_SIGMA, phi2(), u + 0.25)
        assert 0.0 < t <= 1.0
        assert t_up < t


# ---------------------------------------------------------------------------
# series evaluation
# ---------------------------------------------------------------------------

def test_block_sum_certified_stop_on_sqrt_norming():
    res = block_sum(3.0, SQRT_NORMING, SQRT_SIGMA, phi2(), 2.0)
    assert res.converged and not res.diverged
    assert res.k_used < 20
    assert res.residual_bound < 1e-12

    # truncation soundness: certified value + residual dominates direct
    # summation to any materializable depth
    p = geometric_partition(3.0, 30)
    direct = sum(block_term(k, p, SQRT_NORMING, SQRT_SIGMA, phi2(), 2.0)
                 for k in range(1, 31))
    assert res.value + res.residual_bound >= direct - 1e-15
    assert res.value == pytest.approx(direct, rel=1e-10)


def test_block_sum_divergence_sentinel():
    # constant norming with a power-law sigma keeps every block argument
    # equal, so the terms never decay
    res = block_sum(2.0, constant_norming(1.0), SQRT_SIGMA, phi2(), 3.0)
    assert res.diverged and not res.converged
    assert res.value == math.inf
    assert res.residual_bound == math.inf
    assert res.k_used >= 64   # at least 64 consecutive non-decaying ratios


def _count_solved(monkeypatch):
    """A list that records how many points each numeric solve gets."""
    solved = []
    solver = phi_module._conjugate_numeric_many

    def counting(phi, u, tol, max_iter):
        solved.append(len(u))
        return solver(phi, u, tol, max_iter)

    monkeypatch.setattr(phi_module, "_conjugate_numeric_many", counting)
    return solved


def test_numeric_block_sum_solves_each_distinct_level_once(monkeypatch):
    # with constant norming and sigma(n) = sqrt(n), block k's argument is
    # sqrt(A(k)/B(k)): past the exact boundaries (k > 53 at ratio 2) it
    # is sqrt(1/2) for every block, so the series has few distinct levels;
    # the table's numeric twin, since its closed form takes no solve
    solved = _count_solved(monkeypatch)
    res = block_sum(2.0, constant_norming(1.0), SQRT_SIGMA, LAM2_NUMERIC,
                    3.0)
    assert sum(solved) <= 64
    assert res.diverged and res.k_used == 66


def test_numeric_block_sum_that_stops_early_solves_one_chunk(monkeypatch):
    # a |lambda|^1.5 table under vr:2 norming: every block argument is a
    # distinct level, and the series stops at k = 4, so only the first
    # chunk of 256 terms may reach the solver, not all k_max levels
    lams = np.arange(801) * 2.5
    table = phi_from_table(lams, lams ** 1.5)
    sigma = weighted_iid_model(1.0, weibull_r=3.0).sigma_profile()
    solved = _count_solved(monkeypatch)
    res = block_sum(4.0, V2, sigma, table, 8.0)
    assert res.converged and res.k_used == 4
    assert sum(solved) <= 256


@pytest.mark.parametrize("v", [V2, constant_norming(1.0)],
                         ids=["vr:2", "const:1"])
def test_numeric_block_sum_does_not_depend_on_chunking(v):
    """Chunked evaluation gives the one-pass result over all k_max terms
    (on the table's numeric twin: its closed form takes the one pass)."""
    table = LAM2_NUMERIC
    k_max, ratio, u = 3000, 3.0, 3.0
    res = block_sum(ratio, v, SQRT_SIGMA, table, u, k_max=k_max)
    args = _block_arguments(v, SQRT_SIGMA, ratio, k_max)
    full = _finish_sum(np.exp(-conjugate_many(table, u * args)), DEFAULT_TOL)
    assert res == full
    analytic = block_sum(ratio, v, SQRT_SIGMA, phi2(), u, k_max=k_max)
    assert res.diverged == analytic.diverged
    assert res.value == pytest.approx(analytic.value, rel=1e-5)


def _same_scan(got, want):
    """Scan results equal field by field, a NaN residual equal to NaN."""
    return all(a == b or (a != a and b != b) for a, b in zip(got, want))


@pytest.mark.parametrize("model_id", ["chaos:d=1", "chaos:d=2", "chaos:d=3",
                                      "weightedA:beta=1"])
def test_scan_equals_whole_array_oracle_on_real_series(model_id):
    """Every prefix of every series the CLI can build scans the same as
    the whole-array reference: stops, divergences and plain truncations."""
    sigma = model_from_id(model_id).sigma_profile()
    outcomes = set()
    for v_id in ("vr:2", "vr:1", "const:1"):
        v = norming_from_id(v_id)
        for phi_id in ("phi2", "chi2", "cosh", "power:q=3"):
            phi = phi_from_id(phi_id)
            for ratio in (2.0, 3.0, 5.0, 32.0):
                args = _block_arguments(v, sigma, ratio, DEFAULT_KMAX)
                for u in np.geomspace(0.5, 40.0, 9):
                    with np.errstate(over="ignore"):
                        terms = np.exp(-conjugate_many(phi, u * args))
                    for length in (3, 5, 70, 300, DEFAULT_KMAX):
                        for tol in (DEFAULT_TOL, 1e-6):
                            got = _scan_terms(terms[:length], tol)
                            assert _same_scan(
                                got, scan_terms(terms[:length], tol)), (
                                v_id, phi_id, ratio, u, length, tol)
                            outcomes.add((got[0] is None, got[2] is None))
    assert outcomes >= {(False, True), (True, False), (True, True)}


def _near_one_run_series(base, run, where, n=300):
    """Terms whose ratios follow base, except `run` consecutive ratios of
    exactly 1 at the start, middle or end."""
    ratios = np.resize(np.asarray(base, dtype=float), n - 1)
    start = {"start": 0, "middle": (n - 1 - run) // 2,
             "end": n - 1 - run}[where]
    ratios[start:start + run] = 1.0
    return np.concatenate(([1.0], np.cumprod(ratios)))


def test_scan_equals_whole_array_oracle_on_synthetic_arrays():
    """Zeros, NaN, inf, 1e-300 and near-one runs of 63, 64 and 65 ratios
    around the divergence rule's edge, at every position and length."""
    cases = [np.ones(n) for n in range(4)]
    cases += [np.ones(_DIVERGENCE_RUN + 1),
              np.r_[np.ones(_DIVERGENCE_RUN), 2.0],
              np.r_[np.ones(_DIVERGENCE_RUN), 0.0]]
    for run in (_DIVERGENCE_RUN - 1, _DIVERGENCE_RUN, _DIVERGENCE_RUN + 1):
        for where in ("start", "middle", "end"):
            for base in ([0.5], [0.5, 0.9], [0.999], [2.0, 0.1]):
                cases.append(_near_one_run_series(base, run, where))
                cases.append(_near_one_run_series(base, run, where,
                                                  n=run + 1))
    rng = np.random.default_rng(20261018)
    specials = np.array([0.0, np.nan, np.inf, 1e-300])
    for _ in range(3000):
        n = int(rng.choice([4, 5, 6, _DIVERGENCE_RUN + 1, 100, 400]))
        ratios = np.where(rng.random(n - 1) < rng.choice([0.4, 0.98]), 1.0,
                          rng.choice([0.3, 0.5, 0.9, 0.99, 1.5], size=n - 1))
        terms = np.concatenate(([1.0], np.cumprod(ratios)))
        hits = rng.random(n) < rng.choice([0.0, 0.01, 0.1, 0.5])
        terms[hits] = rng.choice(specials, size=int(hits.sum()))
        cases.append(terms)
    for terms in cases:
        for tol in (DEFAULT_TOL, 1e-3, 0.5):
            assert _same_scan(_scan_terms(terms, tol),
                              scan_terms(terms, tol)), (terms, tol)


def test_analytic_block_sum_allocates_a_few_series_arrays():
    """One default-length analytic series peaks at under three float64
    arrays of k_max terms, cached boundaries and thresholds excluded."""
    model = chaos_model(1)
    call = (4.0, V2, model.sigma_profile(), phi2(), 2.3)
    block_sum(*call)   # fill the caches
    tracemalloc.start()
    try:
        block_sum(*call)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * DEFAULT_KMAX * 8


def test_block_sum_input_validation():
    with pytest.raises(DomainError):
        block_sum(1.2, V2, SQRT_SIGMA, phi2(), 2.0)
    with pytest.raises(DomainError):
        block_sum(3.0, V2, SQRT_SIGMA, phi2(), -1.0)
    with pytest.raises(DomainError):
        block_sum(3.0, V2, SQRT_SIGMA, phi2(), 2.0, tol=2.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError):
            block_sum(3.0, V2, SQRT_SIGMA, phi2(), bad)
        with pytest.raises(DomainError):
            block_sum(bad, V2, SQRT_SIGMA, phi2(), 2.0)


# ---------------------------------------------------------------------------
# the optimized bound
# ---------------------------------------------------------------------------

def test_optimized_bound_matches_exhaustive_ratio_scan():
    us = [2.0, 3.0, 4.0]
    report = optimized_bound(V2, SQRT_SIGMA, phi2(), us)
    dense = np.geomspace(2.0, 32.0, 200)
    for u, got in zip(us, report.q_sums):
        best = min(block_sum(float(r), V2, SQRT_SIGMA, phi2(), u).value
                   for r in dense)
        assert got <= best * 1.02
        assert got >= best * 0.98
    # finite decreasing triple
    assert all(math.isfinite(q) for q in report.q_sums)
    assert report.q_sums[0] > report.q_sums[1] > report.q_sums[2]


def test_optimized_bound_monotone_on_dense_grid():
    us = np.geomspace(1.5, 8.0, 12)
    report = optimized_bound(V2, SQRT_SIGMA, phi2(), us)
    finite = [q for q in report.q_sums if math.isfinite(q)]
    assert all(a >= b for a, b in zip(finite, finite[1:]))


def test_optimized_bound_singleton_grid_dominated_by_that_ratio():
    direct = block_sum(3.0, V2, SQRT_SIGMA, phi2(), 3.0).value
    report = optimized_bound(V2, SQRT_SIGMA, phi2(), [3.0],
                             ratio_grid=np.array([3.0]))
    assert report.q_sums[0] == direct
    assert report.chosen_ratios == (3.0,)


def test_optimized_bound_chooses_only_from_the_given_grid():
    # bounded sigma puts the best ratio past the top of this grid
    model = weighted_iid_model(beta=1.0)
    grid = np.geomspace(2.0, 16.0, 12)
    report = optimized_bound(V2, model.sigma_profile(), model.phi,
                             [1.0, 2.0, 4.0], ratio_grid=grid)
    assert set(report.chosen_ratios) <= set(grid.tolist())
    assert report.chosen_ratios[0] == grid[-1]


def _rows(report):
    return list(zip(report.q_sums, report.chosen_ratios, report.k_used,
                    report.residual_bounds, report.flags))


@pytest.mark.parametrize("model", [chaos_model(1),
                                   weighted_iid_model(1.0, weibull_r=3.0)],
                         ids=lambda m: m.label)
def test_optimized_bound_is_a_function_of_the_scaled_level(model):
    sigma, phi, c = model.sigma_profile(), model.phi, 1.25
    us = np.geomspace(1.0, 8.0, 16)
    whole = _rows(optimized_bound(V2, sigma, phi, us, C=c))
    for i in range(len(us)):
        alone = _rows(optimized_bound(V2, sigma, phi, [us[i]], C=c))
        scaled = _rows(optimized_bound(V2, sigma, phi, [c * us[i]], C=1.0))
        assert alone == scaled == [whole[i]]


@pytest.mark.parametrize("model, us, flags", [
    (chaos_model(1), [2.0], {"truncated"}),
    (weighted_iid_model(1.0, weibull_r=3.0), [2.0, 5.0],
     {"truncated", "converged"})], ids=lambda x: getattr(x, "label", None))
def test_reported_residual_is_the_chosen_series_residual(model, us, flags):
    """A reported row carries the residual block_sum gives its ratio:
    certified and finite when converged, exactly +inf when truncated."""
    sigma, phi, c = model.sigma_profile(), model.phi, 1.25
    report = optimized_bound(V2, sigma, phi, us, C=c)
    assert set(report.flags) == flags
    for u, ratio, residual, flag in zip(us, report.chosen_ratios,
                                        report.residual_bounds, report.flags):
        assert residual == block_sum(ratio, V2, sigma, phi,
                                     c * u).residual_bound
        if flag == "truncated":
            assert residual == math.inf
        else:
            assert math.isfinite(residual)


def _bits(report):
    """Every BoundReport field, each float in its exact hex form."""
    def hexes(xs):
        return tuple(float(x).hex() for x in xs)
    return (hexes(report.u_grid), hexes(report.q_sums),
            hexes(report.chosen_ratios), report.k_used,
            hexes(report.residual_bounds), report.flags,
            float(report.c_used).hex())


_DEFAULT_US = np.geomspace(1.0, 8.0, 16).tolist()


@settings(max_examples=60)
@given(phi=st.sampled_from(["phi2", "chi2", "cosh", "power:q=3", "table",
                            "numeric"]),
       norming=st.sampled_from(["vr:1", "vr:2", "const:1"]),
       profile=st.sampled_from(["chaos:d=1", "chaos:d=2", "weightedA:beta=1",
                                "weightedA:beta=1,r=3", "powerlaw:gamma=0.5",
                                "powerlaw:gamma=1,m=log"]),
       us=st.lists(st.floats(0.25, 8.0), min_size=1, max_size=3),
       c=st.one_of(st.just(1.0), st.floats(0.3, 3.0)),
       ratios=st.lists(st.sampled_from([2.0, 2.5, 3.0, 4.0, 7.0, 32.0]),
                       min_size=1, max_size=6),
       k_max=st.sampled_from([1, 3, 63, 64, 65, 512]),
       tol=st.sampled_from([DEFAULT_TOL, 1e-4, 0.3]))
# ratio 2 stops inside the prefix and wins, though its 64-term prefix sum
# is above ratio 2.5's full value
@example(phi="phi2", norming="vr:1", profile="chaos:d=1", us=[2.0], c=1.0,
         ratios=[2.0, 2.5], k_max=65, tol=0.3)
# levels u * x_k overflow to +inf, whose terms are 0, with no warning; the
# table's edge value overflows too
@example(phi="phi2", norming="vr:2", profile="weightedA:beta=1", us=[1e308],
         c=1.0, ratios=[2.0, 4.0], k_max=512, tol=DEFAULT_TOL)
@example(phi="table", norming="vr:2", profile="chaos:d=1", us=[1e308],
         c=1.0, ratios=[2.0, 4.0], k_max=512, tol=DEFAULT_TOL)
# the default grids of `lilbound bound`, where the envelope leaves one full
# sum per level
@example(phi="phi2", norming="vr:2", profile="chaos:d=1", us=_DEFAULT_US,
         c=1.0, ratios=list(DEFAULT_RATIOS), k_max=DEFAULT_KMAX,
         tol=DEFAULT_TOL)
@example(phi="table", norming="vr:2", profile="chaos:d=1", us=_DEFAULT_US,
         c=1.0, ratios=list(DEFAULT_RATIOS), k_max=DEFAULT_KMAX,
         tol=DEFAULT_TOL)
@example(phi="chi2", norming="vr:2", profile="chaos:d=2", us=_DEFAULT_US,
         c=1.0, ratios=list(DEFAULT_RATIOS), k_max=DEFAULT_KMAX,
         tol=DEFAULT_TOL)
@example(phi="phi2", norming="vr:2", profile="weightedA:beta=1",
         us=_DEFAULT_US, c=1.0, ratios=list(DEFAULT_RATIOS),
         k_max=DEFAULT_KMAX, tol=DEFAULT_TOL)
# the winner stops at k = 4187, far past the prefix, and so do the ratios
# that the envelope rules out
@example(phi="phi2", norming="vr:1", profile="weightedA:beta=1", us=[4.0],
         c=1.0, ratios=list(DEFAULT_RATIOS), k_max=DEFAULT_KMAX, tol=0.3)
def test_optimized_bound_equals_every_ratio_summed(phi, norming, profile, us,
                                                   c, ratios, k_max, tol):
    """Skipping the ratios that a 64-term prefix and the envelope rule
    out changes no bit of the report, including with duplicate ratios
    (ties), k_max on either side of the prefix length, and a loose tol,
    under which many series stop inside the prefix with a sizeable sum
    still after it, or far past it."""
    f = {"table": LAM2_TABLE, "numeric": LAM2_NUMERIC}.get(phi) \
        or phi_from_id(phi)
    v = norming_from_id(norming)
    sigma = (profile_from_id(profile) if profile.startswith("powerlaw")
             else model_from_id(profile).sigma_profile())
    got = optimized_bound(v, sigma, f, us, C=c, ratio_grid=ratios, tol=tol,
                          k_max=k_max)
    want = optimized_bound_oracle(v, sigma, f, us, C=c, ratio_grid=ratios,
                                  tol=tol, k_max=k_max)
    assert _bits(got) == _bits(want)


def test_optimized_bound_keeps_a_series_that_stops_inside_the_prefix():
    """weightedA:beta=1,r=3 at u = 5: ratio 2 stops at k = 5, so its
    prefix gives no lower bound, and it wins against ratios that stop
    at k = 4 and ratios that stop hundreds of terms later."""
    model = model_from_id("weightedA:beta=1,r=3")
    sigma, phi = model.sigma_profile(), model.phi
    got = optimized_bound(V2, sigma, phi, [5.0])
    assert _bits(got) == _bits(optimized_bound_oracle(V2, sigma, phi, [5.0]))
    assert (got.chosen_ratios, got.k_used, got.flags) == \
        ((2.0,), (5,), ("converged",))


def test_optimized_bound_on_a_series_that_diverges_past_the_prefix():
    """The table under constant norming: every ratio diverges, ratio 2 at
    k_used = 66, past the 64-term prefix, and ties go to ratio 2."""
    v = constant_norming(1.0)
    got = optimized_bound(v, SQRT_SIGMA, LAM2_TABLE, [3.0])
    assert _bits(got) == _bits(
        optimized_bound_oracle(v, SQRT_SIGMA, LAM2_TABLE, [3.0]))
    assert (got.q_sums, got.chosen_ratios, got.k_used, got.flags) == \
        ((math.inf,), (2.0,), (66,), ("divergent",))


def test_optimized_bound_ratio_superset_never_increases():
    base = optimized_bound(V2, SQRT_SIGMA, phi2(), [2.5],
                           ratio_grid=[3.0, 6.0])
    wider = optimized_bound(V2, SQRT_SIGMA, phi2(), [2.5],
                            ratio_grid=[3.0, 4.5, 6.0, 9.0])
    assert wider.q_sums[0] <= base.q_sums[0] * (1.0 + 1e-12)


def test_optimized_bound_divergent_configuration():
    report = optimized_bound(constant_norming(1.0), SQRT_SIGMA, phi2(),
                             [2.0, 4.0])
    assert report.all_divergent
    assert all(q == math.inf for q in report.q_sums)


def test_optimized_bound_argument_validation():
    with pytest.raises(DomainError):
        optimized_bound(V2, SQRT_SIGMA, phi2(), [2.0], C=0.0)
    with pytest.raises(DomainError):
        optimized_bound(V2, SQRT_SIGMA, phi2(), [])
    with pytest.raises(DomainError):
        optimized_bound(V2, SQRT_SIGMA, phi2(), [-1.0])
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError):
            optimized_bound(V2, SQRT_SIGMA, phi2(), [bad, 3.0])
        with pytest.raises(DomainError):
            optimized_bound(V2, SQRT_SIGMA, phi2(), [3.0], C=bad)
        with pytest.raises(DomainError):
            optimized_bound(V2, SQRT_SIGMA, phi2(), [3.0], ratio_grid=[bad])
    with pytest.raises(DomainError):
        optimized_bound(V2, SQRT_SIGMA, phi2(), [2.0], ratio_grid=[1.5])
    with pytest.raises(DomainError):
        optimized_bound(V2, SQRT_SIGMA, phi2(), [2.0], ratio_grid=[])


def test_prefix_holds_too_few_ratios_to_diverge():
    """_prefix_lower_bounds runs no divergence test: a run needs
    _DIVERGENCE_RUN ratios, and a prefix of _PREFIX terms has one fewer
    than it has terms."""
    assert _PREFIX - 1 < _DIVERGENCE_RUN


@pytest.mark.parametrize("norming", ["vr:1", "vr:2", "const:1"])
def test_ratio_family_heads_are_the_full_arguments_heads(norming):
    """The ratio family computes only min(_PREFIX, k_max) block arguments
    per ratio; they are, bit for bit, the first entries of the k_max-term
    arrays that block_sum sums, one row per distinct ratio in order."""
    v = norming_from_id(norming)
    ratios = sorted({*DEFAULT_RATIOS, 2.5, 3.0, 5.0})
    assert len(ratios) == 15
    for profile in ("chaos:d=1", "chaos:d=2", "chaos:d=3",
                    "weightedA:beta=1", "powerlaw:gamma=0.5",
                    "powerlaw:gamma=1,m=log"):
        sigma = (profile_from_id(profile) if profile.startswith("powerlaw")
                 else model_from_id(profile).sigma_profile())
        for k_max in (5, 16, _PREFIX, 512, 1000, DEFAULT_KMAX):
            got, heads = engine._ratio_family(v, sigma, ratios[::-1] * 2,
                                              DEFAULT_TOL, k_max)
            assert got == ratios
            full = np.stack([_block_arguments(v, sigma, r, k_max)[:_PREFIX]
                             for r in ratios])
            assert heads.shape == full.shape
            assert heads.tobytes() == full.tobytes(), (profile, k_max)


_LN2 = math.log(2.0)


def _norming_with_terms(first: float, *runs) -> NormingSequence:
    """A v under which, at ratio 2 and unit sigma, the phi2 terms at
    x = sqrt(2 log 2) are first, then each the one before times the next
    ratio, where runs are (ratio, count) pairs and the last ratio holds
    to DEFAULT_KMAX."""
    ratios = [r for r, count in runs for _ in range(count)]
    ratios += [runs[-1][0]] * (DEFAULT_KMAX - 1 - len(ratios))
    halvings = np.cumsum(-np.log2([first] + ratios))

    def v(log_n):
        k = np.rint(np.asarray(log_n, dtype=float) / _LN2).astype(int)
        return np.sqrt(halvings[k])

    return NormingSequence(label=f"terms:{first:g},{runs}", eval_log=v,
                           evaluate=lambda n: v(np.log(np.asarray(n, float))))


#: stops by halving at k = 103 with a tail bound of 5.1e-5, its terms flat
#: at 2.04e-4 after that: every term past the stop is above 2*tol at
#: tol = 8e-5, so only the halving test ends the envelope there
STEP_NORMING = _norming_with_terms(0.5, (0.98, 99), (0.2, 1), (0.15, 1),
                                   (0.1, 1), (1.0, 1))
#: stops at k = 1003 on ratios 0.9, 0.85, 0.8 with a tail bound of 0.13,
#: and the terms fall by 0.999 a block again after that: no grid stretch
#: halves until far past the stop at tol = 0.2, so only the 2*tol test
#: ends the envelope there
GENTLE_STOP_NORMING = _norming_with_terms(0.0625, (0.999, 999), (0.9, 1),
                                          (0.85, 1), (0.8, 1), (0.999, 1))
#: stops at k = 512 at tol = 1e-3, and the envelope counts most of the
#: terms past the prefix
GEOMETRIC_NORMING = _norming_with_terms(0.5, (0.98, 1))
UNIT_SIGMA = SigmaProfile(
    label="unit", evaluate=lambda n: np.ones_like(n, dtype=float),
    log_sigma=lambda log_n: np.zeros_like(log_n, dtype=float))


def _envelope_cases():
    """(label, phi, v, sigma, ratio, x, tol, k_max): series that stop
    past the prefix where only one of the envelope's two end tests holds
    it back, the default ratios at a level where the winner and the
    ratios the envelope rules out stop far past the prefix (tol = 0.3),
    then draws from a seeded rng: closed-form generators under growing,
    sqrt-growth (series that stop) and constant (divergent series,
    arguments that are not monotone) normings, at k_max on both sides of
    _PREFIX."""
    x = math.sqrt(2.0 * _LN2)
    for v, tol in ((STEP_NORMING, 8e-5), (GENTLE_STOP_NORMING, 0.2),
                   (GEOMETRIC_NORMING, 1e-3)):
        yield (v.label, phi2(), v, UNIT_SIGMA, 2.0, x, tol, DEFAULT_KMAX)
    weighted = model_from_id("weightedA:beta=1").sigma_profile()
    for r in DEFAULT_RATIOS:
        yield ("weightedA:beta=1", phi2(), iterated_log_norming(1.0),
               weighted, float(r), 4.0, 0.3, DEFAULT_KMAX)
    rng = np.random.default_rng(20261020)
    phis = ["phi2", "chi2", "cosh", "power:q=3", "power:q=1.5"]
    normings = [V2, iterated_log_norming(1.0), iterated_log_norming(0.5),
                SQRT_NORMING, constant_norming(1.0)]
    profiles = ["chaos:d=1", "chaos:d=2", "chaos:d=3", "weightedA:beta=1",
                "powerlaw:gamma=0.5", "powerlaw:gamma=1,m=invlog"]
    for _ in range(400):
        profile = str(rng.choice(profiles))
        sigma = (profile_from_id(profile) if profile.startswith("powerlaw")
                 else model_from_id(profile).sigma_profile())
        yield (profile, phi_from_id(str(rng.choice(phis))),
               normings[rng.integers(len(normings))], sigma,
               float(rng.choice([2.0, 2.5, 3.0, 4.0, 7.0, 32.0])),
               float(np.exp(rng.uniform(np.log(0.2), np.log(12.0)))),
               float(rng.choice([DEFAULT_TOL, 1e-6, 1e-3, 0.1, 0.3, 0.6])),
               int(rng.choice([65, 100, 512, 4096, DEFAULT_KMAX])))


def test_envelope_is_below_the_reported_sum():
    """The prefix bound raised by the envelope is at most block_sum's
    value on series that stop early, run to k_max or diverge, and on
    arguments the envelope must refuse; every kind occurs, and so does a
    bound that the envelope raises."""
    seen = set()
    for label, phi, v, sigma, r, x, tol, k_max in _envelope_cases():
        heads = engine._ratio_family(v, sigma, [r], tol, k_max)[1]
        low = engine._prefix_lower_bounds(phi, x, heads, tol, k_max)[0]
        raised = engine._envelope_lower_bound(phi, x, low, v, sigma, r, tol,
                                              k_max)
        res = block_sum(r, v, sigma, phi, x, tol, k_max)
        assert raised <= res.value, (label, phi.label, v.label, r, x, tol,
                                     k_max, raised, res)
        if engine._envelope_points(v, sigma, r, k_max) is None:
            seen.add("not monotone")
        seen.add("diverged" if res.diverged else
                 "stopped past the prefix" if res.converged
                 and res.k_used > _PREFIX else
                 "stopped in the prefix" if res.converged else "truncated")
        if raised > low:
            seen.add("raised")
    assert seen == {"not monotone", "diverged", "stopped past the prefix",
                    "stopped in the prefix", "truncated", "raised"}


def test_default_grid_sums_one_series_per_level(monkeypatch):
    """On `lilbound bound`'s default chaos:d=2 grid the prefix and the
    envelope rule out every ratio but the winner: 16 block_sum calls for
    16 levels (185 with the prefix alone)."""
    model = chaos_model(2)
    calls = []
    real = engine.block_sum

    def counted(*args, **kw):
        calls.append(args[0])
        return real(*args, **kw)

    monkeypatch.setattr(engine, "block_sum", counted)
    report = optimized_bound(V2, model.sigma_profile(), model.phi,
                             _DEFAULT_US)
    assert calls == list(report.chosen_ratios)


def test_stacked_stop_test_equals_the_scan_row_by_row():
    """One stop test over a 2-D array of prefixes finds, in each row, the
    first stop and residual _scan_terms finds there, with zeros, NaN,
    inf and tiny terms, at every prefix width up to _PREFIX."""
    rng = np.random.default_rng(20261019)
    specials = np.array([0.0, np.nan, np.inf, 1e-300])
    for width in (1, 2, 3, 4, 5, 17, _PREFIX - 1, _PREFIX):
        for tol in (DEFAULT_TOL, 1e-3, 0.5):
            ratios = rng.choice([0.01, 0.3, 0.5, 0.9, 0.99, 1.0, 1.5],
                                size=(200, width))
            terms = np.cumprod(ratios, axis=1)
            hits = rng.random(terms.shape) < \
                rng.choice([0.0, 0.02, 0.2], size=(200, 1))
            terms[hits] = rng.choice(specials, size=int(hits.sum()))
            (rows, stops), tails = _certified_windows(
                terms, _term_ratios(terms), tol)
            first = {}
            for r, k, t in zip(rows.tolist(), stops.tolist(),
                               tails.tolist()):
                first.setdefault(r, (k, t))
            for r, row in enumerate(terms):
                stop, residual, div = _scan_terms(row, tol)
                assert div is None
                want = None if stop is None else (stop, residual)
                assert first.get(r) == want, (width, tol, row)
            assert 0 < len(first) < len(terms) or width < 4


def _decision_setups(tmp_path):
    """(label, v, sigma, phi, ratio_grid, k_max, tol, levels) for the
    decision test: analytic phi2 and chi2, a csv table at a small k_max,
    series that stop inside the prefix, and every series divergent."""
    table = tmp_path / "lam2.csv"
    np.savetxt(table, np.column_stack([_LAMS, _LAMS * _LAMS / 2.0]),
               delimiter=",")
    sigma1 = chaos_model(1).sigma_profile()
    chaos2 = chaos_model(2)
    early = model_from_id("weightedA:beta=1,r=3")
    levels = [0.5, 1.0, 1.7, 2.5, 4.0, 6.0, 9.0]
    return [
        ("phi2", V2, sigma1, phi2(), None, DEFAULT_KMAX, DEFAULT_TOL,
         levels),
        ("chi2", V2, chaos2.sigma_profile(), chaos2.phi, None, DEFAULT_KMAX,
         DEFAULT_TOL, levels),
        ("csv", V2, sigma1, phi_from_csv(str(table)), [2.0, 3.0, 5.0, 11.0],
         40, DEFAULT_TOL, levels),
        ("weightedA:beta=1,r=3", V2, early.sigma_profile(), early.phi,
         None, DEFAULT_KMAX, DEFAULT_TOL, [2.0, 5.0, 8.0]),
        # ratio 2 stops inside the prefix at x = 2, and its 64-term prefix
        # sum is above ratio 2.5's full value
        ("tol=0.3", iterated_log_norming(1.0), sigma1, phi2(), [2.0, 2.5],
         65, 0.3, [1.5, 2.0, 3.0]),
        ("const:1", constant_norming(1.0), SQRT_SIGMA, phi2(), None,
         DEFAULT_KMAX, DEFAULT_TOL, [1.0, 3.0]),
    ]


def test_bound_at_least_is_the_bound_compared(tmp_path):
    """bound_at_least(x, t) == (optimized_bound at x >= t) for every level
    paired with every target: 0, each level's bound (a tie) and the floats
    beside it, half and twice it, every ratio's own series value, +inf
    and NaN, so each target meets levels on both sides of the one where
    the bound crosses it."""
    for label, v, sigma, phi, ratios, k_max, tol, levels in \
            _decision_setups(tmp_path):
        family = DEFAULT_RATIOS if ratios is None else ratios
        bounds, targets = {}, {0.0, math.inf, math.nan}
        for x in levels:
            q = optimized_bound(v, sigma, phi, [x], ratio_grid=ratios,
                                tol=tol, k_max=k_max).q_sums[0]
            bounds[x] = q
            targets |= {q, math.nextafter(q, 0.0),
                        math.nextafter(q, math.inf), q / 2.0, q * 2.0}
            targets |= {block_sum(r, v, sigma, phi, x, tol, k_max).value
                        for r in family}
        for x, q in bounds.items():
            for t in targets:
                got = bound_at_least(v, sigma, phi, x, t, ratio_grid=ratios,
                                     tol=tol, k_max=k_max)
                assert got is (q >= t), (label, x, t, q)
        outcomes = {q >= t for q in bounds.values() for t in targets}
        assert outcomes == {True, False}, label


def test_bound_at_least_sums_a_series_only_to_decide(monkeypatch):
    """A target at or below every prefix lower bound is decided without
    any full series, and one above the bound by the first series summed
    that falls short of it."""
    sigma = chaos_model(1).sigma_profile()
    calls = []
    real = engine.block_sum

    def counted(*args, **kw):
        calls.append(args[0])
        return real(*args, **kw)

    monkeypatch.setattr(engine, "block_sum", counted)
    assert bound_at_least(V2, sigma, phi2(), 3.0, 0.0)
    assert calls == []
    q = optimized_bound(V2, sigma, phi2(), [3.0]).q_sums[0]
    calls.clear()
    assert not bound_at_least(V2, sigma, phi2(), 3.0, q * 1.5)
    assert len(calls) == 1


def test_bound_at_least_argument_validation():
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            bound_at_least(V2, SQRT_SIGMA, phi2(), bad, 0.1)
    with pytest.raises(DomainError):
        bound_at_least(V2, SQRT_SIGMA, phi2(), 2.0, 0.1, ratio_grid=[1.5])
    with pytest.raises(DomainError):
        bound_at_least(V2, SQRT_SIGMA, phi2(), 2.0, 0.1, ratio_grid=[])
    with pytest.raises(DomainError):
        bound_at_least(V2, SQRT_SIGMA, phi2(), 2.0, 0.1, tol=1.0)


def test_bound_report_serialization_contract():
    report = optimized_bound(V2, SQRT_SIGMA, phi2(), [3.0])
    d = report.to_dict()
    assert set(d) == {"u", "bound", "ratio_chosen", "k_used",
                      "residual_bound", "flag", "C"}
    assert isinstance(report, BoundReport)
    assert d["C"] == 1.0
    assert d["flag"] == ["truncated"]


# ---------------------------------------------------------------------------
# rate form
# ---------------------------------------------------------------------------

def test_rate_fit_quadratic_profile():
    fit = fit_rate_form(phi2(), SQRT_SIGMA, 2.0, np.geomspace(3.0, 8.0, 8),
                        C=3.0)
    assert not fit.flagged
    assert fit.max_rel_residual < 1e-3
    assert fit.c_hat == pytest.approx(0.734927, abs=1e-4)


def test_rate_fit_flags_vacuous_regime():
    # a tiny theorem constant leaves the bound at or above one, where
    # log(bound) has no exponential rate to fit
    fit = fit_rate_form(phi2(), SQRT_SIGMA, 2.0, [3.0, 4.0], C=0.05)
    assert fit.flagged
    assert math.isnan(fit.c_hat)


def test_rate_fit_rejects_nonpositive_exponent():
    with pytest.raises(DomainError):
        fit_rate_form(phi2(), SQRT_SIGMA, 0.0, [3.0, 4.0])


# ---------------------------------------------------------------------------
# oracles and the lower bound
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("u", [5.0, 6.0, 8.0])
def test_dp_oracle_brackets_geometric_family(u):
    n_max = 512
    dp = dp_partition_oracle(V2, SQRT_SIGMA, phi2(), u, n_max)
    geo = min(geometric_prefix_sum(float(r), V2, SQRT_SIGMA, phi2(), u, n_max)
              for r in np.geomspace(2.0, 16.0, 25))
    assert dp <= geo + 1e-15          # DP minimizes over a superset
    assert dp >= 0.95 * geo           # but never wins by more than 5% here


def test_geometric_prefix_sum_clips_last_block():
    # ratio 2, horizon 10: blocks (1,2) (3,4) (5,7) (8,10), the last one
    # cut at the horizon rather than at the next power
    expected = 0.0
    for a, b in [(1, 2), (3, 4), (5, 7), (8, 10)]:
        arg = 2.0 * math.sqrt(a) * float(V2.evaluate(a)) / math.sqrt(b)
        expected += math.exp(-conjugate(phi2(), arg))
    got = geometric_prefix_sum(2.0, V2, SQRT_SIGMA, phi2(), 2.0, 10)
    assert got == pytest.approx(expected, rel=1e-12)


def test_single_time_lower_bound_two_point_case():
    # symmetric +-1 value at n0: tail above 0.5 * v(n0) with v == 1 is 1/2
    tail = lambda x: 0.5 if x < 1.0 else 0.0
    got = single_time_lower_bound(tail, 4, constant_norming(1.0), 0.5)
    assert got == 0.5
    with pytest.raises(DomainError):
        single_time_lower_bound(tail, 0, constant_norming(1.0), 0.5)
