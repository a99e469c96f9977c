"""The Monte Carlo kernel against the allocate-per-block reference.

The reference below is the simulation path as it stood before path
tiles and the reused value buffer: an int64 cumsum per block, the chaos
closed forms on fresh int64 arrays (past degree 4, the elementary
symmetric sums of the oracle's DP over the signs, in Python ints), the
weighted cumsum on a fresh float64 array, and one divide-and-reduce per
block over all paths.  The kernel must reproduce it bit for bit,
whatever the tiling, the worker count or the split of a path into
blocks.
"""

import dataclasses
import functools
import math
import tracemalloc

import numpy as np
import pytest

from lilbound import (DomainError, chaos_model, empirical_sup_tail,
                      iterated_log_norming, weighted_iid_model)
from lilbound import rng, verify
from lilbound.models import _chaos_fits, _chaos_numerators
from lilbound.rng import stream_words
from lilbound.verify import PATH_CHUNK, STEP_BLOCK
from oracles import (chaos_numerator, elementary_symmetric_lattice,
                     elementary_symmetric_prefix)

V2 = iterated_log_norming(2.0)


def reference_chaos_prefix(d, noise_block, state=None):
    if state is None:
        state = {"p1": np.zeros(noise_block.shape[0], dtype=np.int64),
                 "n": 0}
    p1 = state["p1"][:, None] + np.cumsum(noise_block, axis=1,
                                          dtype=np.int64)
    ns = state["n"] + np.arange(1, noise_block.shape[1] + 1)
    n = ns[None, :]
    end = {"p1": p1[:, -1], "n": int(ns[-1])}
    if d == 1:
        values = p1.astype(np.float64)
    elif d == 2:
        values = (p1 * p1 - n) / 2.0
    elif d == 3:
        values = (p1 * (p1 * p1 - 3 * n + 2)) / 6.0
    elif d == 4:  # the Krawtchouk polynomial of degree 4, expanded
        values = (p1 ** 4 - (6 * n - 8) * p1 * p1 + 3 * n * (n - 2)) / 24.0
    else:  # d! e_d, rounded once, as prefix_values rounds it
        e_d, end["e"] = elementary_symmetric_prefix(d, noise_block,
                                                    state.get("e"))
        scale = math.factorial(d)
        values = np.asarray(e_d * scale, dtype=np.int64) / float(scale)
    return values, end


def reference_weighted_prefix(unit_scale, noise_block, state=None):
    if state is None:
        state = {"s": np.zeros(noise_block.shape[0]), "n": 0}
    ks = state["n"] + np.arange(1, noise_block.shape[1] + 1)
    weighted = noise_block.astype(np.float64) * unit_scale * 2.0 ** -ks
    values = state["s"][:, None] + np.cumsum(weighted, axis=1)
    return values, {"s": values[:, -1], "n": int(ks[-1])}


def reference_maxima(model, prefix, denom, horizon, seed, n_paths):
    """Signed and absolute running maxima of paths [0, n_paths)."""
    first = model.n_min - 1
    best = np.full(n_paths, -np.inf)
    worst = np.full(n_paths, np.inf)
    state = None
    for s0 in range(0, horizon, STEP_BLOCK):
        ns = min(STEP_BLOCK, horizon - s0)
        noise = model.noise_block(seed, 0, n_paths, s0, ns)
        values, state = prefix(noise, state)
        c0 = max(0, first - s0)
        if c0 >= ns:
            continue
        # divide a copy: the weighted state is a view of the last column
        stat = values[:, c0:] / denom[s0 + c0:s0 + ns]
        best = np.maximum(best, stat.max(axis=1))
        worst = np.minimum(worst, stat.min(axis=1))
    return best, np.maximum(best, -worst)


def chaos_case(d):
    return chaos_model(d), lambda b, s=None: reference_chaos_prefix(d, b, s)


def weighted_case(r=None):
    # the Weibull noise is rescaled to unit standard deviation
    scale = 1.0 if r is None else 1.0 / math.sqrt(math.gamma(1.0 + 2.0 / r))
    return (weighted_iid_model(1.0, r),
            lambda b, s=None: reference_weighted_prefix(scale, b, s))


# (model, its reference prefix) for every simulated family
CASES = {
    "chaos:d=1": chaos_case(1),
    "chaos:d=2": chaos_case(2),
    "chaos:d=3": chaos_case(3),
    "chaos:d=4": chaos_case(4),
    "chaos:d=5": chaos_case(5),
    "chaos:d=6": chaos_case(6),
    "weightedA:beta=1": weighted_case(),
    "weightedA:beta=1,r=3": weighted_case(3.0),
}


# shared by the cases that differ only in threads and u_min; callers
# must not write to the arrays
@functools.lru_cache(maxsize=None)
def case_reference(label, horizon, n_paths, seed):
    model, prefix = CASES[label]
    denom = verify._normalizer(model, V2, horizon)
    return reference_maxima(model, prefix, denom, horizon, seed, n_paths)


@pytest.mark.parametrize("threads", ["1", "3"])
@pytest.mark.parametrize("horizon", [300, STEP_BLOCK + 300])
@pytest.mark.parametrize("label", sorted(CASES))
def test_kernel_maxima_bit_identical_to_reference(label, horizon, threads,
                                                  monkeypatch):
    # both horizons end inside a step block, and both leave a ragged last
    # tile: the short one's chunks hold three times PATH_CHUNK paths
    model, prefix = CASES[label]
    n_paths = 6 * PATH_CHUNK + 17
    denom = verify._normalizer(model, V2, horizon)
    monkeypatch.setenv("LILBOUND_THREADS", threads)
    signed, absed = verify._over_path_chunks(model, denom, seed=77,
                                             n_paths=n_paths)
    ref_signed, ref_absed = case_reference(label, horizon, n_paths, 77)
    assert np.array_equal(signed, ref_signed)
    assert np.array_equal(absed, ref_absed)


@pytest.mark.parametrize("label", sorted(CASES))
def test_prefix_values_with_and_without_buffer_across_a_split(label):
    model, prefix = CASES[label]
    noise = model.noise_block(5, 0, 37, 0, 200)
    split = 128  # blocks of the stream start on word boundaries
    fresh_head, fresh_state = model.prefix_values(noise[:, :split])
    fresh_tail, fresh_end = model.prefix_values(noise[:, split:],
                                                fresh_state)
    tile = np.full((37, split), np.nan)
    head, state = model.prefix_values(noise[:, :split], out=tile)
    assert head is tile
    assert np.array_equal(head, fresh_head)
    assert_same_state(state, fresh_state)
    head = head.copy()  # the tile is reused for the next block
    tail, end = model.prefix_values(noise[:, split:], state,
                                    out=tile[:, :200 - split])
    assert np.array_equal(tail, fresh_tail)
    assert_same_state(end, fresh_end)
    ref_head, ref_state = prefix(noise[:, :split])
    ref_tail, ref_end = prefix(noise[:, split:], ref_state)
    assert np.array_equal(np.concatenate([head, tail], axis=1),
                          np.concatenate([ref_head, ref_tail], axis=1))
    assert_same_state(end, ref_end)


def assert_same_state(a, b):
    # b may carry more: the oracle's reference carries its e_j
    assert a.keys() <= b.keys()
    for key in a:
        assert np.array_equal(a[key], b[key]), key
        assert np.asarray(a[key]).dtype == np.asarray(b[key]).dtype, key


def test_prefix_values_rejects_a_mismatched_buffer():
    model = chaos_model(1)
    noise = model.noise_block(5, 0, 4, 0, 64)
    for bad in (np.empty((4, 63)), np.empty((4, 64), dtype=np.int64)):
        with pytest.raises(DomainError):
            model.prefix_values(noise, out=bad)


@pytest.mark.parametrize("d,p1", [(2, 2 ** 27 - 77), (3, 2 ** 20 - 77)])
def test_chaos_products_past_float_precision_stay_int64(d, p1):
    # these sign sums make the degree-2 and degree-3 products pass 2^53,
    # where float64 arithmetic would round each step; int64 rounds once
    model = chaos_model(d)
    noise = model.noise_block(3, 0, 8, 0, 64)
    state = {"p1": np.full(8, p1, dtype=np.int64), "n": 2 ** 30}
    values, end = model.prefix_values(noise, state)
    ref, ref_end = reference_chaos_prefix(d, noise, state)
    assert np.abs(ref).max() * math.factorial(d) > 2.0 ** 53
    assert np.array_equal(values, ref)
    assert_same_state(end, ref_end)


def test_golden_tail_counts():
    # recorded before the path-tile kernel; a change to the draws or the
    # arithmetic of the simulation moves them
    est = empirical_sup_tail(chaos_model(1), V2, 2048, 8192,
                             [1.0, 1.75, 2.0, 2.25, 2.5, 2.75, 3.0, 3.5],
                             seed=20260816)
    assert est.counts == (6498, 3168, 2646, 1412, 439, 214, 64, 4)
    assert est.counts_plus == (8192, 5835, 5066, 2782, 889, 416, 121, 6)


@pytest.mark.parametrize("threads", ["1", "3"])
@pytest.mark.parametrize("horizon", ["d", 7, 8, 9, 63, 65, 1023, 1025])
@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
def test_bit_planes_match_reference_on_ragged_bytes(d, horizon, threads,
                                                    monkeypatch):
    # horizons end inside a byte, on a byte, inside a word and just past
    # a step block; first = d - 1 falls inside the first byte, and at
    # horizon d the only step is the last bit of its plane range
    horizon = d if horizon == "d" else horizon
    model, _ = CASES[f"chaos:d={d}"]
    n_paths = 2 * PATH_CHUNK + 5
    denom = verify._normalizer(model, V2, horizon)
    monkeypatch.setenv("LILBOUND_THREADS", threads)
    signed, absed = verify._over_path_chunks(model, denom, seed=101,
                                             n_paths=n_paths)
    ref_signed, ref_absed = case_reference(f"chaos:d={d}", horizon, n_paths,
                                           101)
    assert np.array_equal(signed, ref_signed)
    assert np.array_equal(absed, ref_absed)


@pytest.mark.parametrize("threads", ["1", "3"])
@pytest.mark.parametrize("d", [1, 2])
def test_bit_planes_match_reference_past_int16_sums(d, threads, monkeypatch):
    # even paths draw only +1 signs, so their sign sum reaches the horizon,
    # 2^15 + 300, and leaves int16; odd paths keep their random draws
    def drifting_words(seed, path_lo, path_hi, word_lo, n_words):
        words = stream_words(seed, path_lo, path_hi, word_lo, n_words)
        words[np.arange(path_lo, path_hi) % 2 == 0] = ~np.uint64(0)
        return words

    monkeypatch.setattr(rng, "stream_words", drifting_words)
    monkeypatch.setattr(verify, "stream_words", drifting_words)
    model, prefix = CASES[f"chaos:d={d}"]
    horizon = (1 << 15) + 300
    denom = verify._normalizer(model, V2, horizon)
    monkeypatch.setenv("LILBOUND_THREADS", threads)
    monkeypatch.setattr(verify, "PATH_CHUNK", 200)
    signed, absed = verify._over_path_chunks(model, denom, seed=9, n_paths=600)
    ref_signed, ref_absed = reference_maxima(model, prefix, denom, horizon,
                                             9, 600)
    assert np.array_equal(signed, ref_signed)
    assert np.array_equal(absed, ref_absed)
    ramp = model.prefix_values(model.noise_block(9, 0, 1, 0, horizon))[0]
    assert ramp[0, -1] == math.comb(horizon, d)


@pytest.mark.parametrize("d", [4, 5, 6])
def test_every_degree_runs_through_the_sign_kernel(d, monkeypatch):
    # the kernel bounds the numerator of every degree, so no sign chaos
    # goes through prefix_values, and a degree past int64 is refused
    calls = []
    kernel = verify._sign_chaos_extrema

    def spy(*args):
        calls.append(args[0])
        return kernel(*args)

    def no_prefix(*args, **kwargs):
        raise AssertionError("prefix_values ran")

    monkeypatch.setattr(verify, "_sign_chaos_extrema", spy)
    label = f"chaos:d={d}"
    model = dataclasses.replace(CASES[label][0], prefix_values=no_prefix)
    denom = verify._normalizer(model, V2, 300)
    signed, absed = verify._chunk_maxima(model, denom, 77, 0, 6 * PATH_CHUNK
                                         + 17)
    ref_signed, ref_absed = case_reference(label, 300, 6 * PATH_CHUNK + 17,
                                           77)
    assert np.array_equal(signed, ref_signed)
    assert np.array_equal(absed, ref_absed)
    model = chaos_model(12)
    denom = verify._normalizer(model, V2, 4096)
    with pytest.raises(DomainError, match="passes int64"):
        verify._chunk_maxima(model, denom, 1, 0, 8)
    assert calls == [d, 12]


def test_sign_kernel_refuses_sums_past_int64(monkeypatch):
    # an all-plus path has P1 = n, and d! C(n, 3) passes 2^63 at n =
    # 2097153, inside the last word tile of this horizon
    def all_plus(seed, path_lo, path_hi, word_lo, n_words):
        return np.full((path_hi - path_lo, n_words), ~np.uint64(0))

    monkeypatch.setattr(verify, "stream_words", all_plus)
    model = chaos_model(3)
    horizon = (1 << 21) + 8192
    denom = verify._normalizer(model, V2, horizon)
    with pytest.raises(DomainError, match="passes int64"):
        verify._chunk_maxima(model, denom, 1, 0, 1)


def test_unpruned_tiles_check_every_step_as_prefix_values_does(
        monkeypatch):
    # the low 32 bits of every word set: P1 climbs to 32 and is back at 0
    # at the word's end.  int64 does not hold N_12 at the corners of its
    # boxes, so the kernel evaluates every step, and refuses the walk
    # where prefix_values does: at |P1| past 30 by time 64, though the
    # sums at the word ends pass
    def peak(seed, path_lo, path_hi, word_lo, n_words):
        return np.full((path_hi - path_lo, n_words), np.uint64(2 ** 32 - 1))

    model = chaos_model(12)
    signs = np.repeat(np.array([[1, -1]], dtype=np.int8), 32, axis=1)
    with pytest.raises(DomainError, match="passes int64"):
        model.prefix_values(signs)
    monkeypatch.setattr(verify, "stream_words", peak)
    denom = verify._normalizer(model, V2, 64)
    with pytest.raises(DomainError, match="passes int64"):
        verify._chunk_maxima(model, denom, 1, 0, 1)
    limits = verify._walk_limits(12, 64)
    assert limits.size == 64 and np.all(limits == 30)


@pytest.mark.parametrize("workers", ["1", "3"])
@pytest.mark.parametrize("d, horizon", [(9, 256), (10, 64)])
def test_unpruned_tiles_match_reference(d, horizon, workers, monkeypatch,
                                        tmp_path):
    # int64 does not hold N_d at the corners of these tiles' boxes, while
    # every walk fits: the kernel evaluates all their steps.  The spy
    # logs to a file, which the worker processes share, that some span
    # took that way
    log = tmp_path / "walk_limits"

    def spy(*args):
        with open(log, "a") as f:
            f.write(f"{args}\n")
        return walk_limits(*args)

    walk_limits = verify._walk_limits
    monkeypatch.setattr(verify, "_walk_limits", spy)
    monkeypatch.setattr(verify.os, "sched_getaffinity", lambda pid: {0, 1, 2},
                        raising=False)
    monkeypatch.setenv("LILBOUND_THREADS", workers)
    model, prefix = chaos_case(d)
    n_paths = 3000
    denom = verify._normalizer(model, V2, horizon)
    assert len(verify._path_spans(n_paths)) == int(workers)
    signed, absed = verify._over_path_chunks(model, denom, 11, n_paths)
    assert set(log.read_text().splitlines()) == {str((d, horizon))}
    ref_signed, ref_absed = reference_maxima(model, prefix, denom, horizon,
                                             11, n_paths)
    assert np.array_equal(signed, ref_signed)
    assert np.array_equal(absed, ref_absed)


# maxima raised to u_min: what empirical_sup_tail asks for with u_min =
# min(grid), and the exact maxima at -inf
RAISES = [-math.inf, 0.0, 1.5]


@pytest.mark.parametrize("u_min", RAISES)
@pytest.mark.parametrize("threads", ["1", "3"])
@pytest.mark.parametrize("horizon", [300, STEP_BLOCK + 300, 4 * STEP_BLOCK])
@pytest.mark.parametrize("label", sorted(CASES))
def test_raised_maxima_bit_identical_to_reference(label, horizon, threads,
                                                  u_min, monkeypatch):
    model, _ = CASES[label]
    n_paths = 2 * PATH_CHUNK + 17
    denom = verify._normalizer(model, V2, horizon)
    monkeypatch.setenv("LILBOUND_THREADS", threads)
    signed, absed = verify._over_path_chunks(model, denom, 77, n_paths, u_min)
    ref_signed, ref_absed = case_reference(label, horizon, n_paths, 77)
    assert np.array_equal(signed, np.maximum(ref_signed, u_min))
    assert np.array_equal(absed, np.maximum(ref_absed, u_min))


@pytest.mark.parametrize("u_min", RAISES)
@pytest.mark.parametrize("threads", ["1", "3"])
@pytest.mark.parametrize("horizon", ["d", 7, 8, 9, 63, 65, 1023, 1025])
@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
def test_raised_maxima_match_reference_on_ragged_bytes(d, horizon, threads,
                                                       u_min, monkeypatch):
    horizon = d if horizon == "d" else horizon
    model, _ = CASES[f"chaos:d={d}"]
    n_paths = 2 * PATH_CHUNK + 5
    denom = verify._normalizer(model, V2, horizon)
    monkeypatch.setenv("LILBOUND_THREADS", threads)
    signed, absed = verify._over_path_chunks(model, denom, 101, n_paths, u_min)
    ref_signed, ref_absed = case_reference(f"chaos:d={d}", horizon, n_paths,
                                           101)
    assert np.array_equal(signed, np.maximum(ref_signed, u_min))
    assert np.array_equal(absed, np.maximum(ref_absed, u_min))


@pytest.mark.parametrize("u_min", RAISES)
@pytest.mark.parametrize("threads", ["1", "3"])
@pytest.mark.parametrize("d", [1, 2])
def test_raised_maxima_match_reference_past_int16_sums(d, threads, u_min,
                                                       monkeypatch):
    # even paths draw only +1 signs, so their sign sum reaches the horizon,
    # 2^15 + 300; odd paths keep their random draws
    def drifting_words(seed, path_lo, path_hi, word_lo, n_words):
        words = stream_words(seed, path_lo, path_hi, word_lo, n_words)
        words[np.arange(path_lo, path_hi) % 2 == 0] = ~np.uint64(0)
        return words

    monkeypatch.setattr(rng, "stream_words", drifting_words)
    monkeypatch.setattr(verify, "stream_words", drifting_words)
    model, prefix = CASES[f"chaos:d={d}"]
    horizon = (1 << 15) + 300
    denom = verify._normalizer(model, V2, horizon)
    monkeypatch.setenv("LILBOUND_THREADS", threads)
    monkeypatch.setattr(verify, "PATH_CHUNK", 200)
    signed, absed = verify._over_path_chunks(model, denom, 9, 600, u_min)
    ref_signed, ref_absed = reference_maxima(model, prefix, denom, horizon,
                                             9, 600)
    assert np.array_equal(signed, np.maximum(ref_signed, u_min))
    assert np.array_equal(absed, np.maximum(ref_absed, u_min))


@pytest.mark.parametrize("label", sorted(CASES))
def test_tail_counts_equal_counts_of_exact_maxima(label):
    # the grid is unsorted, repeats a level and reaches below zero, so
    # min(grid) raises the maxima at a level that is not the first
    model, _ = CASES[label]
    grid = [1.25, -0.5, 2.0, 0.75, 1.25, 3.0]
    horizon, n_paths = 3000, 2000
    est = empirical_sup_tail(model, V2, horizon, n_paths, grid, seed=31)
    denom = verify._normalizer(model, V2, horizon)
    signed, absed = verify._over_path_chunks(model, denom, 31, n_paths,
                                             u_min=-math.inf)
    assert est.counts == tuple(int(np.count_nonzero(signed > u))
                               for u in grid)
    assert est.counts_plus == tuple(int(np.count_nonzero(absed > u))
                                    for u in grid)


@functools.lru_cache(maxsize=None)
def zone_table(d, horizon):
    return verify._zone_table(d, horizon)


def zone_at(d, horizon, last):
    """_zone_table's entries at the bytes that hold times last, as the
    kernel reads them, or None."""
    zone = zone_table(d, horizon)
    k = (np.asarray(last) - 1) // 8
    return zone and tuple(t[k % 8, k // 8] for t in zone)


@pytest.mark.parametrize("d", range(1, 9))
def test_chaos_numerators_are_the_binomial_polynomial(d):
    # at every integer (P1, n) of a grid, walks' states or not, |P1| > n
    # and n < d too, against the oracle's polynomial in Python ints
    p1, n = np.meshgrid(np.arange(-60, 61), np.arange(50), indexing="ij")
    want = [[chaos_numerator(d, int(p), int(m)) for p, m in zip(*row)]
            for row in zip(p1, n)]
    assert _chaos_numerators(d, p1.copy(), n).tolist() == want


def assert_bounds_hold(d, upper, lower, p1, n):
    # every (P1, n) of a box at n >= n_min = d, where denominators are
    # finite, against the closed forms to d = 3 and models' numerator
    # past them (int64 holds it over these boxes)
    p1 = np.broadcast_to(p1, np.broadcast_shapes(p1.shape, n.shape)).copy()
    numerator = ((p1, p1 * p1 - n, p1 * (p1 * p1 - 3 * n + 2))[d - 1]
                 if d <= 3 else _chaos_numerators(d, p1, n))
    finite = np.broadcast_to(n >= d, numerator.shape)
    assert upper >= numerator.max(where=finite, initial=np.iinfo(np.int64).min)
    assert lower <= numerator.min(where=finite, initial=np.iinfo(np.int64).max)


@pytest.mark.parametrize("width", [8, 64])
@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
def test_numerator_bounds_hold_over_their_box(d, width):
    # every (P1, n) of the box, against the numerator
    rs = np.random.default_rng(d * width)
    n0 = np.concatenate([[1, 2, 3, 9, 63, 64, 65],
                         rs.integers(1, 5000, 60)]).astype(np.int64)
    top = np.concatenate([[0, 4, -4, width, -width, width // 2],
                          rs.integers(-200, 200, n0.size - 6)])
    top = top.astype(np.int64)
    upper, lower = verify._numerator_bounds(
        d, top.copy(), n0, width, zone=zone_at(d, 5064, n0 + width - 1))
    for i in range(n0.size):
        p1 = top[i] - np.arange(width + 1)[:, None]
        n = n0[i] + np.arange(width)[None, :]
        assert_bounds_hold(d, upper[i], lower[i], p1, n)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
def test_may_move_flags_every_run_holding_a_value_past_the_extrema(d):
    # each run holds numerators in [lower, upper] over denominators in
    # [lo, hi]; its values, computed as the kernel computes them, are
    # checked against the runs flagged
    scale = float(math.factorial(d))
    rs = np.random.default_rng(d)
    lower = rs.integers(-10 ** 6, 10 ** 6, 400)
    upper = lower + rs.integers(0, 50, 400)
    lo = rs.uniform(0.5, 50.0, 400)
    hi = lo * rs.uniform(1.0, 1.5, 400)
    dens = lo + np.linspace(0.0, 1.0, 7)[:, None] * (hi - lo)
    nums = lower + np.arange(50)[:, None, None] * 0 + np.minimum(
        np.arange(50)[:, None, None], upper - lower)
    values = np.divide(nums, scale) / dens
    most, least = values.max(axis=(0, 1)), values.min(axis=(0, 1))
    # levels at, just below and just above the extreme values
    for best in (most, np.nextafter(most, -np.inf), np.nextafter(most, 0)):
        for worst in (least, np.nextafter(least, np.inf)):
            alive = verify._may_move(d, upper, lower, lo, hi, best, worst)
            assert np.all(alive[(most > best) | (least < worst)])
    # a value equal to best or worst moves neither
    assert not verify._may_move(d, np.array([6]), np.array([6]),
                                np.array([3.0]), np.array([3.0]),
                                np.array([2.0 / scale]),
                                np.array([2.0 / scale])).any()


# the sign kernel's tiles: horizons that end just before, on and just
# after a group of words and a tile of words, and one whose last tile
# ends inside a word of its ragged second group
GROUP_STEPS = 64 * verify.GROUP_WORDS
TILE_STEPS = 64 * verify.TILE_WORDS
TILE_HORIZONS = [GROUP_STEPS - 1, GROUP_STEPS, GROUP_STEPS + 1,
                 TILE_STEPS - 1, TILE_STEPS, TILE_STEPS + 1,
                 TILE_STEPS + GROUP_STEPS + 5 * 64 - 27]


@pytest.mark.parametrize("u_min", RAISES)
@pytest.mark.parametrize("threads", ["1", "3"])
@pytest.mark.parametrize("horizon", TILE_HORIZONS)
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_sign_tiles_match_reference_across_group_and_tile_edges(
        d, horizon, threads, u_min, monkeypatch):
    # on the horizons of a tile or more, tiles hold PATH_CHUNK paths, so
    # these paths end in a ragged tile of five
    n_paths = 2 * PATH_CHUNK + 5
    model = chaos_model(d)
    denom = verify._normalizer(model, V2, horizon)
    monkeypatch.setenv("LILBOUND_THREADS", threads)
    signed, absed = verify._over_path_chunks(model, denom, 55, n_paths, u_min)
    ref_signed, ref_absed = case_reference(f"chaos:d={d}", horizon, n_paths,
                                           55)
    assert np.array_equal(signed, np.maximum(ref_signed, u_min))
    assert np.array_equal(absed, np.maximum(ref_absed, u_min))


@pytest.mark.parametrize("times", [8, 64, 1024])
@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
def test_numerator_bounds_hold_over_boxes_of_any_shape(d, times):
    # P1 in [top - width, top] for widths 0 to 1088 (a group's 1024 steps
    # plus its slack of 64), n in [n0, n0 + times - 1]: every (P1, n) of
    # each box against the bounds, computed for all boxes at once; tops
    # as far out as int64 holds every numerator of the box
    rs = np.random.default_rng(10 * d + times)
    width = np.array([0, 1, 2, 7, 8, 63, 64, 65, 500, 1087, 1088]
                     + list(rs.integers(0, 1089, 13)), dtype=np.int64)
    n0 = np.concatenate([[1, 2, 3, 1000, 2000, 4000],
                         rs.integers(1, 6000, width.size - 6)])
    reach = max(r for r in range(0, 1501, 50)
                if _chaos_fits(d, r + 1088, 7024, walks=False))
    # tops at and around the degree-3 local max -sqrt(n), and far out
    top = np.concatenate([np.zeros(6, dtype=np.int64),
                          rs.integers(-reach, reach, width.size - 6)])
    top[1::4] = -np.sqrt(n0[1::4]).astype(np.int64) + width[1::4] // 2
    upper, lower = verify._numerator_bounds(
        d, top.copy(), n0, width, times, zone_at(d, 7024, n0 + times - 1))
    for i in range(width.size):
        p1 = np.arange(top[i] - width[i], top[i] + 1)[:, None]
        n = n0[i] + np.arange(times)[None, :]
        assert_bounds_hold(d, upper[i], lower[i], p1, n)


@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_zone_table_does_not_depend_on_its_block_of_rows(d, monkeypatch):
    # one time per block, and blocks that end anywhere, give the table
    # that blocks of the default size do: the running extremes carry
    want = verify._zone_table(d, 1500)
    for values in (1, 97):
        monkeypatch.setattr(verify, "ZONE_VALUES", values)
        got = verify._zone_table(d, 1500)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


@pytest.mark.parametrize("horizon", [77, 80])
@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_zone_table_covers_every_box_of_small_horizons(d, horizon):
    # every box of P1 widths 0 to 16 and 1 to 64 times that ends by the
    # horizon, those that reach back before n_min = d included, against
    # the max and min of the walks' values in it, from the oracle's DP
    # over the signs; the kernel reads the zone at a box's last byte
    scale = math.factorial(d)
    lattice = elementary_symmetric_lattice(d, horizon)
    grid = np.arange(-horizon - 16, horizon + 1)  # P1, its axis 1
    times = np.arange(horizon + 1)[:, None]  # n, axis 0
    walk = (np.abs(grid) <= times) & ((grid + times) % 2 == 0) & (times >= d)
    value = np.zeros(walk.shape, dtype=np.int64)
    n, p1 = np.nonzero(walk)
    value[n, p1] = [scale * lattice[a][(a + grid[b]) // 2]
                    for a, b in zip(n, p1)]
    high = np.where(walk, value, np.iinfo(np.int64).min)
    low = np.where(walk, value, np.iinfo(np.int64).max)
    last = np.arange(1, horizon + 1)[:, None]
    top = np.broadcast_to(grid, (horizon, grid.size))
    for width in (0, 1, 4, 16):
        # extremes over P1 in [top - width, top], then over the times
        box_high, box_low = high[1:].copy(), low[1:].copy()
        for shift in range(1, width + 1):
            box_high[:, shift:] = np.maximum(box_high[:, shift:],
                                             high[1:, :-shift])
            box_low[:, shift:] = np.minimum(box_low[:, shift:],
                                            low[1:, :-shift])
        row_high, row_low = box_high.copy(), box_low.copy()
        for span in (1, 2, 8, 64):
            if span > 1:  # one more time each pass, up to span
                for back in range(box_high.shape[0] - 1, 0, -1):
                    lo = max(back - span + 1, 0)
                    box_high[back] = row_high[lo:back + 1].max(axis=0)
                    box_low[back] = row_low[lo:back + 1].min(axis=0)
            n0 = np.maximum(last - span + 1, 1)
            upper, lower = verify._numerator_bounds(
                d, top[:, width:].copy(), np.broadcast_to(n0, top[:, width:]
                                                          .shape), width,
                last - n0 + 1, zone_at(d, horizon, last))
            seen = box_high[:, width:] > np.iinfo(np.int64).min
            assert np.all((upper >= box_high[:, width:])[seen]), (width, span)
            assert np.all((lower <= box_low[:, width:])[seen]), (width, span)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_sign_kernel_memory_is_a_tile_and_a_few_values_per_step(d):
    # tracemalloc sees numpy's buffers: one call on PATH_CHUNK paths
    # peaks at a few tile buffers, and a longer horizon adds only its
    # per-step denominators
    model = chaos_model(d)
    peaks = {}
    for horizon in (1 << 14, 1 << 16):
        denom = verify._normalizer(model, V2, horizon)
        tracemalloc.start()
        try:
            verify._chunk_maxima(model, denom, 5, 0, PATH_CHUNK)
            peaks[horizon] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[1 << 14] <= 6 * 2 ** 20
    assert peaks[1 << 16] - peaks[1 << 14] <= 16 * 3 * (1 << 14)


@pytest.mark.parametrize("workers", ["1", "3"])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_worker_processes_match_reference_past_a_tile(d, workers,
                                                      monkeypatch):
    # the spans of three worker processes each cross the word tile that
    # ends at step TILE_STEPS, whatever the CPUs of the host
    horizon = TILE_STEPS + 300
    n_paths = 2 * PATH_CHUNK + 5
    model = chaos_model(d)
    denom = verify._normalizer(model, V2, horizon)
    monkeypatch.setattr(verify.os, "sched_getaffinity", lambda pid: {0, 1, 2},
                        raising=False)
    monkeypatch.setenv("LILBOUND_THREADS", workers)
    spans = verify._path_spans(n_paths)
    assert len(spans) == int(workers)
    signed, absed = verify._over_path_chunks(model, denom, 21, n_paths)
    ref_signed, ref_absed = case_reference(f"chaos:d={d}", horizon, n_paths,
                                           21)
    assert np.array_equal(signed, ref_signed)
    assert np.array_equal(absed, ref_absed)
