"""Tests for the Monte Carlo verifier and its exact oracles."""

import dataclasses
import math
import os
import signal
import tracemalloc
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lilbound import engine, verify
from lilbound import (
    CalibrationError,
    DomainError,
    TailEstimate,
    calibrate_constant,
    chaos_model,
    constant_norming,
    doob_moment_check,
    empirical_sup_tail,
    exact_sup_tail,
    iterated_log_norming,
    lil_trajectory_stats,
    phi2,
    single_time_tail,
    weighted_iid_model,
)
from lilbound.cli import _lower_bounds, norming_from_id
from lilbound.models import _chaos_values
from lilbound.verify import wilson_interval, worker_count
from oracles import (binomial_single_time_tail,
                     enumerated_single_time_tail)

CHAOS1 = chaos_model(1)
V1 = constant_norming(1.0)
V2 = iterated_log_norming(2.0)


def make_estimate(u_grid, ci_high, censored=None, paths=10000):
    """Hand-built TailEstimate for calibration paths; only the fields
    calibration reads are meaningful."""
    k = len(u_grid)
    censored = censored or (False,) * k
    return TailEstimate(
        u_grid=tuple(u_grid), w_hat=tuple(ci_high),
        w_plus_hat=tuple(ci_high), ci_low=(0.0,) * k,
        ci_high=tuple(ci_high), counts=(50,) * k, counts_plus=(50,) * k,
        censored=tuple(censored), horizon=64, paths=paths, seed=1,
        model_label="synthetic", norming_label="vr:2")


# ---------------------------------------------------------------------------
# exact enumeration
# ---------------------------------------------------------------------------

def test_exact_sup_tail_three_step_walk():
    ex = exact_sup_tail(CHAOS1, V1, 3, [0.9, -1.0, 1.5])
    assert ex.w == (Fraction(1, 2), Fraction(7, 8), Fraction(1, 8))
    assert ex.w_plus == (Fraction(1), Fraction(1), Fraction(1, 4))
    assert ex.horizon == 3


def test_exact_sup_tail_single_step_walk():
    ex = exact_sup_tail(CHAOS1, V1, 1, [-1.5, 0.0, 0.5])
    assert ex.w == (Fraction(1), Fraction(1, 2), Fraction(1, 2))
    assert ex.w_plus == (Fraction(1), Fraction(1), Fraction(1))


def test_exact_sup_tail_degree_two_unit_level():
    # at horizon 2 the only time is n = 2 where S = e1*e2 and sigma = 1,
    # so the two-sided statistic is identically 1/v(2)
    ex = exact_sup_tail(chaos_model(2), V1, 2, [0.5, 1.0])
    assert ex.w_plus == (Fraction(1), Fraction(0))
    assert ex.w == (Fraction(1, 2), Fraction(0))


def test_exact_sup_tail_guards():
    with pytest.raises(DomainError):
        exact_sup_tail(CHAOS1, V1, 21, [1.0])       # enumeration cap
    with pytest.raises(DomainError):
        exact_sup_tail(chaos_model(2), V1, 1, [1.0])  # before n_min
    with pytest.raises(DomainError):
        exact_sup_tail(weighted_iid_model(weibull_r=2.0), V1, 4, [1.0])


def test_exact_tail_serialization_keeps_fractions():
    d = exact_sup_tail(CHAOS1, V1, 3, [0.9]).to_dict()
    assert d["w_fraction"] == ["1/2"]
    assert d["w_hat"] == [0.5]


# levels below, at and above the lattice: under const:1, u = 0 and u = 1
# are hit exactly (P1 = 2 at n = 4 gives 2/sqrt(4) = 1 for d = 1, and at
# n = d every degree has |S| = sigma = 1), so the strict > is exercised
LATTICE_LEVELS = [-1.0, -0.25, 0.0, 0.5, 1.0, 1.2, math.sqrt(2.0), 1.7, 2.0,
                  2.5, 3.0]


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("v", [V1, V2], ids=["const:1", "vr:2"])
def test_exact_sup_tail_lattice_equals_enumeration(d, v):
    model = chaos_model(d)
    for horizon in sorted({d, 8, 13, 17, 20}):
        ex = exact_sup_tail(model, v, horizon, LATTICE_LEVELS)
        # the enumeration that weighted models still use is the reference
        counts = verify._enumerated_sup_counts(
            model, verify._normalizer(model, v, horizon), LATTICE_LEVELS)
        w, w_plus = ([Fraction(int(c), 1 << horizon) for c in side]
                     for side in counts)
        assert list(ex.w) == w, (horizon, ex.w, w)
        assert list(ex.w_plus) == w_plus, (horizon, ex.w_plus, w_plus)
    # the tie is real: every path sits exactly on u = 1 at n = d
    below = math.nextafter(1.0, 0.0)
    at_d = exact_sup_tail(model, V1, d, [1.0, below])
    assert at_d.w == (Fraction(0), Fraction(1, 2))
    assert at_d.w_plus == (Fraction(0), Fraction(1))


# ---------------------------------------------------------------------------
# single-time tails
# ---------------------------------------------------------------------------

def test_single_time_tail_matches_enumeration_for_walk():
    x = float(V2.evaluate(10))  # threshold 1 * v_2(10)
    got = single_time_tail(CHAOS1, 10, [x])
    signs = np.array(list(product((-1, 1), repeat=10)), dtype=np.int8)
    values, _ = CHAOS1.prefix_values(signs)
    direct = np.count_nonzero(
        values[:, -1] / math.sqrt(10.0) > x) / 1024.0
    assert got[0] == pytest.approx(direct, abs=1e-12)
    assert got[0] == pytest.approx(176.0 / 1024.0)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_single_time_tail_is_the_enumerated_count(d):
    model = chaos_model(d)
    # unsorted, with repeats: each level still reads its own bucket sum
    xs = [1.4, -1.0, 3.0, 0.3, 1.0, 1.4, 0.0, 2.0, 0.3]
    for n0 in sorted({d, 7, 14, 17, 20}):
        got = single_time_tail(model, n0, xs)
        assert [Fraction(g) for g in got] == \
            enumerated_single_time_tail(model, n0, xs), n0


#: unsorted, repeated, negative, and 1e300 above every value
FLOOR_LEVELS = [1.4, -1.0, 3.0, 0.3, 1.0, 1.4, 0.0, 2.0, 8.0, -3.0, 1e300]


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_single_time_tail_is_the_whole_row_walk(d):
    """The walk that stops once no rounded tail can change gives the
    floats of the walk over the whole row, bit for bit."""
    model = chaos_model(d)
    for n0 in sorted({d, 17, 1000, 16384, 1 << 17}):
        try:
            want = binomial_single_time_tail(model, n0, FLOOR_LEVELS)
        except DomainError:   # degree 4 passes int64 at 2^17
            with pytest.raises(DomainError, match="passes int64"):
                single_time_tail(model, n0, FLOOR_LEVELS)
            continue
        got = single_time_tail(model, n0, FLOOR_LEVELS)
        assert [g.hex() for g in got.tolist()] == \
            [w.hex() for w in want.tolist()], n0


def test_single_time_tail_stop_is_certified_or_the_row_is_walked(
        monkeypatch):
    """At 16384 the walk stops within a few hundred steps of the middle;
    with a stop test that never agrees it walks to k = 0 and still
    gives the whole row's floats."""
    seen = []
    real = verify._tails_settled

    def spy(*args):
        seen.append(real(*args))
        return seen[-1]

    monkeypatch.setattr(verify, "_tails_settled", spy)
    single_time_tail(CHAOS1, 16384, FLOOR_LEVELS)
    assert seen[-1] and 64 * len(seen) < 2000
    monkeypatch.setattr(verify, "_tails_settled", lambda *args: False)
    for d in (1, 2, 3):
        model = chaos_model(d)
        for n0 in (17, 1000, 16384):
            got = single_time_tail(model, n0, FLOOR_LEVELS)
            want = binomial_single_time_tail(model, n0, FLOOR_LEVELS)
            assert [g.hex() for g in got.tolist()] == \
                [w.hex() for w in want.tolist()], (d, n0)


def test_single_time_tail_caps_the_time():
    cap = verify.FLOOR_MAX_TIME
    with pytest.raises(DomainError, match="exceeds the exact single-time"):
        single_time_tail(CHAOS1, cap + 1, [1.0])


def test_single_time_tail_is_exact_on_the_verify_exact_floor():
    # chaos:d=1, vr:2, horizon 20 at u = 1 + 1.5 * 2/7: the floor is
    # 60460 / 2^20 exactly, a float, so nothing may round it up
    u = float(np.linspace(1.0, 2.5, 8)[2])
    got = single_time_tail(CHAOS1, 20, [u * float(V2.evaluate(20))])
    assert got[0] == 60460 / 2 ** 20


def test_single_time_tail_rounds_toward_zero_at_scale():
    n = 16384
    xs = [float(u) * float(V2.evaluate(n)) for u in np.linspace(2, 4, 8)]
    got = single_time_tail(CHAOS1, n, xs)
    # suffix sums of C(n, k), from k = n down, independent of the row
    tails = [0] * (n + 1)
    acc, c = 0, 1
    for k in range(n, -1, -1):
        acc += c
        tails[k] = acc
        c = c * k // (n - k + 1) if k else c
    assert tails[0] == 1 << n
    p1 = np.arange(-n, n + 1, 2) / math.sqrt(n)
    for x, g in zip(xs, got):
        exact = Fraction(tails[int(np.argmax(p1 > x))], 1 << n)
        assert Fraction(g) <= exact
        assert (exact - Fraction(g)) / exact < Fraction(1, 2 ** 52)


def test_ratio_toward_zero_steps_below_a_rounded_up_quotient():
    # 1/10 rounds to nearest as 0.1000000000000000055...
    assert verify._ratio_toward_zero(1, 10) == math.nextafter(0.1, 0.0)
    assert verify._ratio_toward_zero(1, 3) == 1 / 3  # nearest is below
    assert verify._ratio_toward_zero(0, 8) == 0.0
    assert verify._ratio_toward_zero(8, 8) == 1.0


def test_single_time_tail_weighted_family():
    model = weighted_iid_model(beta=1.0)
    sigma3 = float(model.sigma_exact(3))
    got = single_time_tail(model, 3, [1.0])
    # S(3) support is +-{1,3,5,7}/8; only 7/8 and 5/8 exceed sigma(3)
    assert got[0] == pytest.approx(2.0 / 8.0)
    assert 5.0 / 8.0 > sigma3 > 3.0 / 8.0


def test_single_time_tail_weighted_enumeration_is_blocked():
    """Weighted sign models count every path exactly, one enumeration
    block at a time, so 2^20 paths never sit in memory at once."""
    model = weighted_iid_model(beta=1.0)
    xs = [1.4, -1.0, 3.0, 0.3, 1.0, 0.0, 2.0]
    for n0 in (1, 7, 14):
        got = single_time_tail(model, n0, xs)
        assert [Fraction(g) for g in got] == \
            enumerated_single_time_tail(model, n0, xs), n0
    tracemalloc.start()
    try:
        single_time_tail(model, 20, xs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20


def test_single_time_tail_rejects_unsupported_models():
    # degree 12 at time 4096 passes int64
    with pytest.raises(DomainError, match="passes int64"):
        single_time_tail(chaos_model(12), 4096, [1.0])
    with pytest.raises(DomainError):
        single_time_tail(weighted_iid_model(weibull_r=2.0), 4, [1.0])


def _levels_at(stat: np.ndarray) -> list:
    """Every value of stat and its two float neighbours: the levels where
    two roundings of one statistic can disagree."""
    values = np.unique(stat)
    return sorted({float(x) for x in np.concatenate([
        values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf)])})


def _floor_is_below_the_exact_tail(model, v, horizon, stat):
    levels = _levels_at(stat)
    floor = _lower_bounds(model, v, horizon, np.array(levels))
    exact = exact_sup_tail(model, v, horizon, levels)
    for u, lo, w in zip(levels, floor.tolist(), exact.w):
        assert Fraction(lo) <= w, (model.label, v.label, horizon, u)


@pytest.mark.parametrize("norming", ["vr:1", "vr:2", "const:1"])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_verify_floor_is_below_the_exact_sup_tail_for_chaos(d, norming):
    """The floor verify reports is the statistic's own tail at the
    horizon, so at every level, the statistic's values included, it is
    at most the exact sup-tail."""
    model, v = chaos_model(d), norming_from_id(norming)
    for horizon in range(d, verify.ENUM_MAX_HORIZON + 1):
        p1 = np.arange(-horizon, horizon + 1, 2, dtype=np.int64)
        stat = (_chaos_values(d, p1, horizon)
                / verify._normalizer(model, v, horizon)[-1])
        _floor_is_below_the_exact_tail(model, v, horizon, stat)


@pytest.mark.parametrize("norming", ["vr:1", "vr:2"])
def test_verify_floor_is_below_the_exact_sup_tail_for_weighted(norming):
    model, v = weighted_iid_model(beta=1.0), norming_from_id(norming)
    for horizon in range(1, 11):
        final = np.concatenate([values[:, -1] for values in
                                verify._sign_path_values(model, horizon)])
        stat = final / verify._normalizer(model, v, horizon)[-1]
        _floor_is_below_the_exact_tail(model, v, horizon, stat)


# ---------------------------------------------------------------------------
# Monte Carlo estimator
# ---------------------------------------------------------------------------

def test_empirical_sup_tail_agrees_with_exact_law():
    grid = [0.6, 1.0, 1.4, 1.8]
    ex = exact_sup_tail(CHAOS1, V1, 12, grid)
    est = empirical_sup_tail(CHAOS1, V1, 12, 20000, grid, seed=42)
    for w, lo, hi in zip(ex.w, est.ci_low, est.ci_high):
        assert lo <= float(w) <= hi
    assert est.paths == 20000
    assert not any(est.censored)


def test_empirical_sup_tail_deterministic_and_seed_sensitive():
    grid = [0.8, 1.2]
    a = empirical_sup_tail(CHAOS1, V2, 200, 3000, grid, seed=5)
    b = empirical_sup_tail(CHAOS1, V2, 200, 3000, grid, seed=5)
    c = empirical_sup_tail(CHAOS1, V2, 200, 3000, grid, seed=6)
    assert a.counts == b.counts
    assert a.counts_plus == b.counts_plus
    assert a.counts != c.counts


def test_empirical_sup_tail_worker_count_invariance(monkeypatch):
    grid = [0.7, 1.1, 1.6]
    monkeypatch.setenv("LILBOUND_THREADS", "1")
    serial = empirical_sup_tail(CHAOS1, V2, 300, 5000, grid, seed=9)
    monkeypatch.setenv("LILBOUND_THREADS", "4")
    threaded = empirical_sup_tail(CHAOS1, V2, 300, 5000, grid, seed=9)
    assert serial.counts == threaded.counts
    assert serial.counts_plus == threaded.counts_plus


def test_empirical_sup_tail_two_sided_envelope():
    est = empirical_sup_tail(CHAOS1, V1, 64, 8000, [0.8, 1.3, 2.0], seed=3)
    for w, wp, censored in zip(est.w_hat, est.w_plus_hat, est.censored):
        assert wp >= w
        if not censored:
            se = math.sqrt(w * (1.0 - w) / est.paths)
            assert wp <= 2.0 * w + 3.0 * se


def test_empirical_sup_tail_censoring_flags():
    est = empirical_sup_tail(CHAOS1, V1, 32, 2000, [0.5, 30.0], seed=1)
    assert not est.censored[0]
    assert est.censored[1]
    assert est.counts[1] < 10


@pytest.mark.parametrize("model", [chaos_model(d) for d in (1, 2, 3, 4)]
                         + [weighted_iid_model(1.0)],
                         ids=lambda m: m.label)
def test_normalizer_is_nan_exactly_before_the_first_defined_time(model):
    for horizon in (model.n_min, model.n_min + 1, 100):
        denom = verify._normalizer(model, V2, horizon)
        assert denom.shape == (horizon,)
        assert np.all(np.isnan(denom[:model.n_min - 1]))
        assert np.all(np.isfinite(denom[model.n_min - 1:]))
        assert np.all(denom[model.n_min - 1:] > 0)
    short = model.n_min - 1
    with pytest.raises(DomainError, match=f"^horizon {short} precedes first "
                       f"non-degenerate time {model.n_min}$"):
        verify._normalizer(model, V2, short)


def test_empirical_sup_tail_guards():
    with pytest.raises(DomainError):
        empirical_sup_tail(CHAOS1, V1, 64, 999, [1.0], seed=1)
    with pytest.raises(DomainError):
        empirical_sup_tail(chaos_model(3), V1, 2, 2000, [1.0], seed=1)
    with pytest.raises(DomainError):
        empirical_sup_tail(CHAOS1, V1, 64, 2000, [], seed=1)


def test_worker_count_env_override(monkeypatch):
    monkeypatch.setenv("LILBOUND_THREADS", "3")
    assert worker_count() == 3
    monkeypatch.setenv("LILBOUND_THREADS", "0")
    assert worker_count() >= 1
    monkeypatch.delenv("LILBOUND_THREADS")
    assert worker_count() >= 1


def test_worker_count_follows_the_affinity_mask(monkeypatch):
    # a process pinned to two of a host's 64 CPUs gets two workers
    monkeypatch.setattr(verify.os, "cpu_count", lambda: 64)
    monkeypatch.setattr(verify.os, "sched_getaffinity", lambda pid: {3, 5},
                        raising=False)
    monkeypatch.delenv("LILBOUND_THREADS", raising=False)
    assert worker_count() == 2
    monkeypatch.setenv("LILBOUND_THREADS", "0")
    assert worker_count() == 2
    monkeypatch.setenv("LILBOUND_THREADS", "5")
    assert worker_count() == 5
    # where the platform has no affinity call, every CPU counts
    monkeypatch.delattr(verify.os, "sched_getaffinity")
    monkeypatch.setenv("LILBOUND_THREADS", "0")
    assert worker_count() == 64
    monkeypatch.setattr(verify.os, "cpu_count", lambda: None)
    assert worker_count() == 1


# ---------------------------------------------------------------------------
# worker processes
# ---------------------------------------------------------------------------

def on_cpus(monkeypatch, n):
    """Pretend this process may run on n CPUs."""
    monkeypatch.setattr(verify.os, "sched_getaffinity",
                        lambda pid: set(range(n)), raising=False)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# the plan reads the path count alone, whatever the model and horizon
@pytest.mark.parametrize("sign_kernel,horizon,n_paths",
                         [(True, 16384, 1 << 15), (True, 8, 100_000),
                          (False, 1024, 100_000), (False, 64, 5000)])
def test_worker_processes_never_outnumber_the_cpus(sign_kernel, horizon,
                                                   n_paths, monkeypatch):
    # planned, not started: an absurd cap still gets one process per CPU
    on_cpus(monkeypatch, 2)
    monkeypatch.setenv("LILBOUND_THREADS", "1000000")
    assert worker_count() == 1000000
    spans = verify._path_spans(n_paths)
    assert len(spans) <= 2
    assert all(lo < hi for lo, hi in spans)
    # the spans tile [0, n_paths) in order
    assert spans[0][0] == 0 and spans[-1][1] == n_paths
    assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
    if sign_kernel:
        assert len(spans) == 2
    # one process where the platform cannot fork
    monkeypatch.delattr(verify.os, "fork")
    assert len(verify._path_spans(n_paths)) == 1


@pytest.mark.parametrize("error", [DomainError, KeyboardInterrupt])
@pytest.mark.parametrize("where", ["child", "parent"])
def test_a_failing_worker_raises_its_error_and_leaves_no_child(
        where, error, monkeypatch):
    # the child runs the second span and the parent the first
    real = verify._chunk_maxima

    def failing(model, denom, seed, path_lo, path_hi, u_min=-math.inf):
        if (path_lo != 0) == (where == "child"):
            raise error(f"injected failure at path {path_lo}")
        return real(model, denom, seed, path_lo, path_hi, u_min)

    monkeypatch.setattr(verify, "_chunk_maxima", failing)
    on_cpus(monkeypatch, 2)
    monkeypatch.setenv("LILBOUND_THREADS", "2")
    lo = 0 if where == "parent" else 2000
    with pytest.raises(error, match=f"^injected failure at path {lo}$"):
        empirical_sup_tail(CHAOS1, V2, 1024, 4000, [2.0], seed=3)
    assert_no_child_left()


def test_a_worker_killed_by_a_signal_is_an_error(monkeypatch):
    real = verify._chunk_maxima

    def dying(model, denom, seed, path_lo, *rest):
        if path_lo != 0:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(model, denom, seed, path_lo, *rest)

    monkeypatch.setattr(verify, "_chunk_maxima", dying)
    on_cpus(monkeypatch, 2)
    monkeypatch.setenv("LILBOUND_THREADS", "2")
    with pytest.raises(ChildProcessError, match="exit code -9"):
        empirical_sup_tail(CHAOS1, V2, 1024, 4000, [2.0], seed=3)
    assert_no_child_left()


@pytest.mark.parametrize("model", [CHAOS1, weighted_iid_model(1.0)],
                         ids=["sign", "weighted"])
def test_a_multi_process_run_matches_one_process_and_leaves_no_child(
        model, monkeypatch):
    monkeypatch.setenv("LILBOUND_THREADS", "1")
    alone = empirical_sup_tail(model, V2, 1500, 3000, [1.0, 2.0], seed=4)
    on_cpus(monkeypatch, 3)
    monkeypatch.setenv("LILBOUND_THREADS", "3")
    assert len(verify._path_spans(3000)) == 3
    forked = empirical_sup_tail(model, V2, 1500, 3000, [1.0, 2.0], seed=4)
    assert_no_child_left()
    assert forked == alone


# ---------------------------------------------------------------------------
# Wilson intervals
# ---------------------------------------------------------------------------

def test_wilson_interval_edge_counts():
    lo, hi = wilson_interval(0, 100)
    assert lo == 0.0 and 0.0 < hi < 0.1
    lo, hi = wilson_interval(100, 100)
    assert 0.9 < lo < 1.0 and hi == 1.0


@given(count=st.integers(0, 500), total=st.integers(500, 2000))
def test_wilson_interval_brackets_the_point_estimate(count, total):
    lo, hi = wilson_interval(count, total)
    p = count / total
    assert 0.0 <= lo <= p <= hi <= 1.0


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------

def test_calibrate_constant_against_real_run():
    model = CHAOS1
    est = empirical_sup_tail(model, V2, 1024, 5000, [2.0, 2.5, 3.0], seed=8)
    assert not any(est.censored)
    sigma = model.sigma_profile()
    cal = calibrate_constant(est, V2, sigma, model.phi)
    assert 0.01 <= cal.c_hat <= 100.0
    assert not cal.capped
    assert cal.margin >= 1.0
    # maximality: nudging the constant up by more than the bisection
    # tolerance must break dominance
    from lilbound import optimized_bound
    pushed = optimized_bound(V2, sigma, model.phi,
                             np.array(est.u_grid), C=1.02 * cal.c_hat)
    assert any(q < hi for q, hi in zip(pushed.q_sums, est.ci_high))
    # dominance on the full grid at the calibrated constant
    assert all(b >= hi for b, hi in zip(cal.bound_values, est.ci_high))


def _shared_bisection(est, v, sigma, phi):
    """Reference calibration: one bisection of C over all uncensored
    cells at once, with the same interval, step and stop rule."""
    from lilbound import optimized_bound
    active = [i for i, c in enumerate(est.censored) if not c]

    def holds(c):
        q = optimized_bound(v, sigma, phi, [est.u_grid[i] for i in active],
                            C=c).q_sums
        return all(b >= est.ci_high[i] for b, i in zip(q, active))

    lo, hi = 0.01, 100.0
    while hi / lo > 1.01:
        mid = math.sqrt(lo * hi)
        lo, hi = (mid, hi) if holds(mid) else (lo, mid)
    return lo


def test_calibrate_constant_inverts_each_cell_and_reports_its_margin():
    model = weighted_iid_model(beta=1.0)
    sigma, phi = model.sigma_profile(), model.phi
    est = make_estimate([1.0, 1.5, 3.0, 4.0], [0.6, 0.2, 0.05, 0.01],
                        censored=(False, True, False, False))
    cal = calibrate_constant(est, V2, sigma, phi)
    assert not cal.capped
    assert cal.c_hat == _shared_bisection(est, V2, sigma, phi)
    active = (0, 2, 3)
    assert cal.margin == min(cal.bound_values[i] / est.ci_high[i]
                             for i in active)
    assert cal.margin >= 1.0


@pytest.fixture(scope="module")
def later_binding_case():
    """Exact chaos d=1 tail at horizon 12 on lin:1:2.5:8, the grid of the
    verify --exact benchmark.  The per-cell constants fall from 3.49 at
    u=1 to 2.21 at u=1.64 and rise again, so the binding cell is the
    fourth.  per_cell[i] is the reference bisection of cell i alone."""
    u = np.linspace(1.0, 2.5, 8)
    exact = exact_sup_tail(CHAOS1, V2, 12, u)
    est = make_estimate(exact.u_grid, [float(f) for f in exact.w])
    sigma, phi = CHAOS1.sigma_profile(), CHAOS1.phi
    per_cell = [_shared_bisection(
        dataclasses.replace(est, censored=tuple(j != i for j in range(8))),
        V2, sigma, phi) for i in range(8)]
    return est, sigma, phi, per_cell


def test_calibrate_constant_when_a_later_cell_binds(later_binding_case):
    est, sigma, phi, per_cell = later_binding_case
    assert per_cell.index(min(per_cell)) == 3
    cal = calibrate_constant(est, V2, sigma, phi)
    assert cal.c_hat == _shared_bisection(est, V2, sigma, phi)
    assert cal.c_hat == min(per_cell)


def test_calibrate_constant_settles_later_cells_in_one_call(
        later_binding_case, monkeypatch):
    """Each cell after the binding one costs one dominance decision, and
    the whole grid one full bound evaluation at the end."""
    est, sigma, phi, per_cell = later_binding_case
    # a decision names its cell by the target, so the targets must differ
    assert len(set(est.ci_high)) == len(est.ci_high)
    decisions, bounds = [], []
    real_decide, real_bound = verify.bound_at_least, verify.optimized_bound

    def decide(v, sigma, phi, x, target, **kw):
        decisions.append(target)
        return real_decide(v, sigma, phi, x, target, **kw)

    def bound(v, sigma, phi, u_grid, **kw):
        bounds.append(tuple(u_grid))
        return real_bound(v, sigma, phi, u_grid, **kw)

    monkeypatch.setattr(verify, "bound_at_least", decide)
    monkeypatch.setattr(verify, "optimized_bound", bound)
    calibrate_constant(est, V2, sigma, phi)
    binding = per_cell.index(min(per_cell))
    per = [decisions.count(target) for target in est.ci_high]
    assert per[0] == 12           # cap, floor and ten bisection steps
    assert per[binding + 1:] == [1] * (len(per) - binding - 1)
    assert len(decisions) == sum(per)
    assert bounds == [est.u_grid]


def test_calibrate_constant_sums_few_full_series(later_binding_case,
                                                 monkeypatch):
    """A work count, not a time.  On this case calibration made 660
    block_sum calls when optimized_bound summed every ratio's series in
    full, 156 once a 64-term prefix ruled out the ratios that cannot
    win, and 26 once each step asks only whether the bound dominates."""
    est, sigma, phi, _ = later_binding_case
    calls = []
    real = engine.block_sum

    def counted(*args, **kw):
        calls.append(args[0])
        return real(*args, **kw)

    monkeypatch.setattr(engine, "block_sum", counted)
    calibrate_constant(est, V2, sigma, phi)
    assert len(calls) <= 26


def test_calibrate_constant_error_when_floor_fails():
    sigma = CHAOS1.sigma_profile()
    est = make_estimate([500.0], [0.9])
    with pytest.raises(CalibrationError):
        calibrate_constant(est, V2, sigma, phi2())


def test_calibrate_constant_caps_at_hundred():
    sigma = CHAOS1.sigma_profile()
    est = make_estimate([0.02], [0.5])
    cal = calibrate_constant(est, V2, sigma, phi2())
    assert cal.capped
    assert cal.c_hat == 100.0


def test_calibrate_constant_needs_uncensored_cells():
    sigma = CHAOS1.sigma_profile()
    est = make_estimate([2.0], [0.1], censored=(True,))
    with pytest.raises(CalibrationError):
        calibrate_constant(est, V2, sigma, phi2())


# ---------------------------------------------------------------------------
# proof-step diagnostics
# ---------------------------------------------------------------------------

def test_doob_moment_ratios_frozen():
    r1 = doob_moment_check(CHAOS1, 2)
    assert r1.ratio == pytest.approx(1.25, abs=1e-12)
    r2 = doob_moment_check(chaos_model(2), 6)
    assert r2.ratio == pytest.approx(1.3604166666666666, abs=1e-12)
    r3 = doob_moment_check(weighted_iid_model(beta=1.0), 8)
    assert r3.ratio == pytest.approx(1.4285323443579767, abs=1e-12)
    for rep in (r1, r2, r3):
        assert rep.passed and rep.ratio <= rep.limit == 4.0


def test_doob_moment_check_guards():
    with pytest.raises(DomainError):
        doob_moment_check(CHAOS1, 13)
    with pytest.raises(DomainError):
        doob_moment_check(CHAOS1, 4, p=1.0)
    with pytest.raises(DomainError):
        doob_moment_check(weighted_iid_model(weibull_r=2.0), 4)


def test_trajectory_stats_matched_seed_monotonicity():
    short = lil_trajectory_stats(1, 256, 400, seed=12)
    longer = lil_trajectory_stats(1, 512, 400, seed=12)
    assert longer.median >= short.median
    assert short.q25 <= short.median <= short.q75
    assert short.reference == pytest.approx(math.sqrt(2.0))
    assert lil_trajectory_stats(2, 64, 400, seed=1).reference == 1.0


@pytest.mark.parametrize("args,pinned", [
    ((1, 4096, 2000, 3),
     (1.7497223225682261, 1.2256063367177727, 2.050047821581424, 0.989)),
    ((2, 40000, 600, 3),
     (1.4769327777758365, 1.0506740176926852, 2.0913220469983402, 1.0)),
    ((3, 1500, 2000, 5),
     (0.4321096734187755, 0.3264961747123315, 0.4602491571066826, 1.0)),
])
def test_trajectory_stats_golden(args, pinned):
    # recorded with the one-step-at-a-time cumsum kernel; d = 2 at 40000
    # steps runs past int16 sums, as criterion 11 does at 2^18
    d, horizon, n_paths, seed = args
    s = lil_trajectory_stats(d, horizon, n_paths, seed=seed)
    assert (s.median, s.q25, s.q75, s.positive_fraction) == pinned


def test_trajectory_stats_guards():
    # degree 12 over 4096 steps passes int64
    with pytest.raises(DomainError, match="passes int64"):
        lil_trajectory_stats(12, 4096, 400, seed=1)
    assert_no_child_left()
    with pytest.raises(DomainError):
        lil_trajectory_stats(1, 2, 400, seed=1)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_tail_estimate_serialization_contract():
    est = empirical_sup_tail(CHAOS1, V1, 16, 1500, [1.0], seed=2)
    d = est.to_dict()
    assert set(d) == {"u", "w_hat", "w_plus_hat", "ci_low", "ci_high",
                      "counts", "counts_plus", "censored", "horizon",
                      "paths", "seed", "model", "norming"}
    assert d["model"] == "chaos:d=1"
