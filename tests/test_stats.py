"""Weighted EDF statistics, Monte-Carlo p-values, and the trial protocol."""

import concurrent.futures
import functools
import io
import itertools
import json
import math
import os
import signal
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.stats as spstats
from hypothesis import example, given, settings
from hypothesis import strategies as st
from lyapunov_reference import reference_lyapunov
from null_reference import (
    reference_literal_null_statistics,
    reference_null_statistics,
)

from qgauss import _orbit, stats
from qgauss.distribution import cdf_array, cdf_array_direct
from qgauss.generator import UniformStream, generate, make_spec
from qgauss.maps import MapConfig, _radial_params, _z_edge
from qgauss.stats import (
    _NULL_BLOCK,
    _NULL_CACHE_SIZE,
    DEFAULT_NULL_SEED,
    _both_statistics,
    _both_statistics_numpy,
    _edf_steps,
    _lyapunov_python,
    _null_statistics,
    _p_values,
    autocorrelation,
    gof_test,
    lyapunov,
    mc_p_value,
    run_trial_table,
    sup_weighted_statistic,
)


# The per-word null reference, computed once per (M, n_null, seed): the
# paths and cases that share one spend the tier-1 time once.
_reference = functools.lru_cache(maxsize=None)(reference_null_statistics)

# A q' from each cdf branch: compact support, Gaussian, heavy tail.
GOF_Q = [-1.0, 0.5, 1.0, 1.5, 2.9]


def _identity_cdf(arr):
    return np.asarray(arr, dtype=float)


class TestSupWeightedStatistic:
    def test_single_point_example(self):
        # one sample at the median: both one-sided deviations are 0.5
        stat = sup_weighted_statistic([0.0], lambda a: np.full_like(a, 0.5))
        assert stat == pytest.approx(0.5, abs=1e-15)

    def test_equioscillating_quantiles(self):
        M = 40
        samples = np.sort((np.arange(M) + 0.5) / M)
        stat = sup_weighted_statistic(samples, _identity_cdf)
        assert stat == pytest.approx(math.sqrt(M) * 0.5 / M, abs=1e-13)

    def test_anderson_weight_dominates_ks(self):
        rng = np.random.default_rng(17)
        samples = np.sort(rng.uniform(size=250))
        ks = sup_weighted_statistic(samples, _identity_cdf, kind="ks")
        ad = sup_weighted_statistic(samples, _identity_cdf, kind="ad")
        assert ad >= ks

    def test_anderson_weight_at_median(self):
        # sqrt(1/(0.5*0.5)) = 2 exactly
        ks = sup_weighted_statistic([0.0], lambda a: np.full_like(a, 0.5))
        ad = sup_weighted_statistic([0.0], lambda a: np.full_like(a, 0.5),
                                    kind="ad")
        assert ad == pytest.approx(2.0 * ks, abs=1e-14)

    def test_weight_clamp_keeps_statistic_finite(self):
        # a sample whose model cdf rounds to exactly 1.0 must not blow up
        M = 100
        samples = np.sort(np.linspace(0.01, 0.99, M))
        F = _identity_cdf(samples).copy()
        F[-1] = 1.0
        stat = sup_weighted_statistic(samples, lambda a: F, kind="ad")
        assert math.isfinite(stat)
        # the clamped weight at u = 1 - 1/(2M) is sqrt(2M/(1 - 1/(2M)))
        assert stat <= math.sqrt(M) * 1.0 * math.sqrt(2 * M / (1 - 1 / (2 * M)))

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            sup_weighted_statistic([0.3, 0.1], _identity_cdf)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            sup_weighted_statistic([], _identity_cdf)

    def test_rejects_unknown_weight(self):
        with pytest.raises(ValueError):
            sup_weighted_statistic([0.5], _identity_cdf, kind="cvm")

    def test_rejects_nan_sample(self):
        """A NaN compares false with its neighbours, so it would pass the
        sort check; gof_test's sample rule rejects it first."""
        with pytest.raises(ValueError, match="finite"):
            sup_weighted_statistic([0.1, math.nan, 0.3], _identity_cdf)

    def test_rejects_nan_cdf_value(self):
        """A NaN cdf value is outside [0, 1], not a NaN statistic."""
        with pytest.raises(ValueError, match="outside"):
            sup_weighted_statistic([0.1, 0.2, 0.3],
                                   lambda a: np.array([0.1, math.nan, 0.3]))

    @pytest.mark.parametrize("cdf_fn", [
        lambda a: 0.5,                     # one value for the whole sample
        lambda a: np.append(a, 1.0),       # one value too many
    ])
    def test_rejects_cdf_of_wrong_shape(self, cdf_fn):
        """cdf_fn is applied to the whole array and must return one value
        per sample; a scalar-only cdf_fn is an error, not mapped elementwise."""
        with pytest.raises(ValueError, match="one value per sample"):
            sup_weighted_statistic([0.25, 0.5], cdf_fn)


class TestMcPValue:
    def test_zero_statistic_gives_one(self):
        assert mc_p_value(50, 0.0, n_null=99) == pytest.approx(1.0)

    def test_huge_statistic_gives_floor(self):
        p = mc_p_value(50, 1e9, n_null=99)
        assert p == pytest.approx(1.0 / 100.0)

    def test_median_statistic_near_half(self):
        # draw one replicate and use its own null median as observed
        ks_null, _ = _null_statistics(100, 499, DEFAULT_NULL_SEED)
        observed = float(np.median(ks_null))
        p = mc_p_value(100, observed, n_null=499)
        assert abs(p - 0.5) < 2.0 / math.sqrt(499)

    def test_probability_and_literal_modes_agree(self):
        """The quantile-drawing wording (the literal null of
        tests/null_reference.py) and the probability-space shortcut are the
        same law; on a small case the p-values coincide."""
        ks_lit, _ = reference_literal_null_statistics(1.5, 50, 99, 5)
        for observed in (0.4, 0.8, 1.2, 2.0):
            p_fast = mc_p_value(50, observed, n_null=99, seed=5)
            p_lit = (1.0 + np.count_nonzero(ks_lit >= observed)) / 100.0
            assert p_fast == pytest.approx(p_lit, abs=0.05)

    def test_rejects_nonpositive_n_null(self):
        with pytest.raises(ValueError):
            mc_p_value(50, 0.5, n_null=0)

    def test_rejects_negative_statistic(self):
        with pytest.raises(ValueError):
            mc_p_value(50, -0.1)

    def test_null_p_values_are_uniform(self):
        """Self-consistency: p-values of null draws are ~Uniform(0,1)."""
        stream = UniformStream(314159)
        pvals = []
        for _ in range(200):
            u = np.sort(stream.take(100))
            stat = sup_weighted_statistic(u, _identity_cdf)
            pvals.append(mc_p_value(100, stat, n_null=499))
        p = spstats.kstest(pvals, "uniform").pvalue
        assert p > 0.01


def _count_rule(nulls, s):
    """The p-value rule written as it reads: (1 + #{null >= s})/(n_null + 1)."""
    return (1.0 + int(np.count_nonzero(nulls >= s))) / (nulls.size + 1.0)


# Null values that tie and that sit at the ends of the double line.
_TIED = st.sampled_from([-math.inf, -1.0, -0.0, 0.0, 0.5, 1.0, math.inf])


class TestPValues:
    @settings(max_examples=300, deadline=None)
    @given(nulls=st.lists(st.one_of(st.floats(allow_nan=False), _TIED), min_size=1,
                          max_size=60),
           extra=st.lists(st.floats(), max_size=8))
    @example(nulls=[-1.7976931348623157e308, 1.7976931348623157e308], extra=[])
    def test_p_values_follow_the_count_rule(self, nulls, extra):
        """_p_values gives the bits of the literal count rule for every s:
        each null value (ties included), the neighbours just below and
        above the null's range, +-inf, NaN and arbitrary doubles; for an
        array of statistics of any shape, and for one scalar."""
        nulls = np.array(nulls)
        below = math.nextafter(nulls.min(), -math.inf)
        above = math.nextafter(nulls.max(), math.inf)
        stats_ = np.array([*nulls, *extra, below, above, -math.inf, math.inf, math.nan])
        expected = np.array([_count_rule(nulls, s) for s in stats_])
        assert _p_values(nulls, stats_).tobytes() == expected.tobytes()
        grid = np.stack([stats_, stats_[::-1]])
        assert _p_values(nulls, grid).tobytes() == np.stack([expected, expected[::-1]]).tobytes()
        for s, p in zip(stats_, expected):
            assert float(_p_values(nulls, float(s))).hex() == p.hex()


class TestNullStatistics:
    @pytest.mark.parametrize("M, n_null, seed", [
        # 2**64 - 7 is the 64-bit word of -7; its id keeps the short signed name
        (1, 7, 3), (50, 99, 5), (317, 41, 2 ** 64 - 1),
        pytest.param(1000, 13, 2 ** 64 - 7, id="1000-13--7"),
        # the edges of a 2**13-word block, each now inside one block
        (8192, 3, 11), (8193, 3, 12), (100, 161, 13), (100, 163, 14),
        (1, 8193, 15),
    ])
    def test_matches_per_word_reference(self, M, n_null, seed):
        ks, ad = _null_statistics(M, n_null, seed)
        ks_ref, ad_ref = _reference(M, n_null, seed)
        assert ks.tobytes() == ks_ref.tobytes()
        assert ad.tobytes() == ad_ref.tobytes()

    @pytest.mark.parametrize("path", ["compiled", "numpy"])
    @pytest.mark.parametrize("M, n_null, seed", [
        (1, 8193, 2 ** 64 - 1), (2, 9, 3), (8192, 3, 2 ** 64 - 1),
        # 2**64 - 3 is the 64-bit word of -3; its id keeps the short signed name
        pytest.param(8193, 3, 2 ** 64 - 3, id="8193-3--3"),
        (10 ** 4, 3, 2 ** 64 - 1),
        # _NULL_BLOCK's edges, with ids that do not move with its size: one
        # row per block at and past _NULL_BLOCK words, n_null one below and
        # one above a multiple of the rows per block, and at M = 7 one
        # replicate past a whole block
        pytest.param(_NULL_BLOCK, 3, 21, id="block-3-21"),
        pytest.param(_NULL_BLOCK + 1, 3, 22, id="block+1-3-22"),
        pytest.param(100, 2 * (_NULL_BLOCK // 100) - 1, 23, id="100-2rows-1-23"),
        pytest.param(100, 2 * (_NULL_BLOCK // 100) + 1, 24, id="100-2rows+1-24"),
        pytest.param(7, _NULL_BLOCK // 7 + 1, 25, id="7-rows+1-25"),
    ])
    def test_both_paths_match_per_word_reference(self, monkeypatch, path, M, n_null, seed):
        """The compiled words and scores, and the numpy fallback, each give
        the per-word reference's bytes; either way the result is memoized
        and read-only."""
        if path == "numpy":
            monkeypatch.setattr(_orbit, "kernel", lambda: None)
        elif _orbit.kernel() is None:
            pytest.skip("the compiled library cannot be built here")
        _null_statistics.cache_clear()
        ks, ad = _null_statistics(M, n_null, seed)
        ks_ref, ad_ref = _reference(M, n_null, seed)
        assert ks.tobytes() == ks_ref.tobytes()
        assert ad.tobytes() == ad_ref.tobytes()
        again = _null_statistics(M, n_null, seed)
        assert again[0] is ks and again[1] is ad
        assert not ks.flags.writeable and not ad.flags.writeable

    @pytest.mark.parametrize("q_out, M, n_null, seed", [
        (-0.5, 37, 11, 9), (1.0, 60, 7, 2 ** 64 - 3), (1.5, 37, 11, 9),
    ])
    def test_literal_matches_per_word_reference(self, q_out, M, n_null, seed):
        """The literal null (uniforms drawn through the model quantile and
        scored by the model cdf) equals the probability-space null replicate
        for replicate, up to the quantile/cdf round trip (measured at most
        1.6e-13 relative here)."""
        ks, ad = _null_statistics(M, n_null, seed)
        ks_ref, ad_ref = reference_literal_null_statistics(q_out, M, n_null, seed)
        np.testing.assert_allclose(ks_ref, ks, rtol=1e-11, atol=0.0)
        np.testing.assert_allclose(ad_ref, ad, rtol=1e-11, atol=0.0)

    def test_memo_is_bounded(self):
        """A process scoring against fresh null seeds keeps only the latest
        _NULL_CACHE_SIZE nulls, and a repeated lookup returns the same arrays."""
        first = _null_statistics(20, 5, 1000)
        assert _null_statistics(20, 5, 1000) is first
        for seed in range(1001, 1001 + 3 * _NULL_CACHE_SIZE):
            _null_statistics(20, 5, seed)
        assert _null_statistics.cache_info().currsize == _NULL_CACHE_SIZE
        again = _null_statistics(20, 5, 1000)
        assert again is not first
        assert again[0].tobytes() == first[0].tobytes()

    def test_builds_one_block_at_a_time(self, needs_kernel):
        """A cold build's traced peak, numpy's buffers included, stays
        below 1.25 blocks, so no block is alive beside the next one; a
        second build leaves the first memoized pair byte-identical and
        read-only."""
        M, seed = 1000, 0xB10C
        _edf_steps(M)
        _null_statistics.cache_clear()
        tracemalloc.start()
        try:
            ks, ad = _null_statistics(M, 999, seed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * 8 * _NULL_BLOCK
        before = ks.tobytes(), ad.tobytes()
        _null_statistics(M, 999, seed + 1)
        assert (ks.tobytes(), ad.tobytes()) == before
        assert not ks.flags.writeable and not ad.flags.writeable
        again = _null_statistics(M, 999, seed)
        assert again[0] is ks and again[1] is ad

    def test_memoized_nulls_are_read_only(self):
        """Every caller shares the memoized arrays, so a write must fail
        rather than move every later p-value."""
        ks, ad = _null_statistics(30, 9, 1)
        for arr in (ks, ad):
            with pytest.raises(ValueError):
                arr[0] = 0.0
        assert _null_statistics(30, 9, 1)[0].tobytes() == ks.tobytes()

    @pytest.mark.parametrize("M", [100, 10 ** 4])
    def test_ks_null_follows_kolmogorov_law(self, M):
        """The Monte Carlo KS null against the exact finite-M law
        (scipy.stats.kstwo; Marsaglia, Tsang & Wang 2003), so a broken
        null cannot hide behind its own memoization."""
        ks_null, _ = _null_statistics(M, 999, DEFAULT_NULL_SEED)
        p = spstats.kstest(ks_null / math.sqrt(M), spstats.kstwo(M).cdf).pvalue
        assert p > 0.001


def _scores_both_ways(F):
    """(_both_statistics, _both_statistics_numpy) of F, each as one array."""
    return np.array(_both_statistics(F)), np.array(_both_statistics_numpy(F))


@pytest.mark.usefixtures("needs_kernel")
class TestCompiledScores:
    """_both_statistics scores rows in the compiled library (qgauss_scores
    in _orbit.c) wherever it can be built; _both_statistics_numpy is its
    oracle, byte for byte."""

    @pytest.mark.parametrize("F", [
        _edf_steps(10)[0], _edf_steps(10)[1], _edf_steps(7)[0] * 0.5 + 0.25,
        [0.3] * 5 + [0.7] * 5, [0.5] * 7,
        [0.0, 0.0, 1e-300, 0.5, 1.0, 1.0], [0.0] * 4, [1.0] * 4, [1e-300] * 3,
        [0.0], [0.5], [1.0], [1e-300], [1.0 - 2.0 ** -53],
        [0.25, 0.75], [0.0, 1.0], [1e-300, 1.0], [0.5, 0.5],
        # at M = 4 the clip is [0.125, 0.875]: on it and one ulp outside
        [0.125] * 4, [0.875] * 4,
        [np.nextafter(0.125, 0.0)] * 4, [np.nextafter(0.875, 1.0)] * 4,
    ])
    def test_matches_numpy_on_edge_rows(self, F):
        """Values on the EDF steps i/M and (i-1)/M, ties, values at and past
        both clip ends (0, 1e-300 and 1), and M = 1 and 2."""
        F = np.array(F, dtype=float)
        compiled, numpy_ = _scores_both_ways(F)
        assert compiled.tobytes() == numpy_.tobytes()
        compiled, numpy_ = _scores_both_ways(np.stack([F, F[::-1].copy(), F]))
        assert compiled.tobytes() == numpy_.tobytes()

    def test_matches_numpy_on_a_3d_array(self):
        F = np.sort(np.random.default_rng(5).random((2, 3, 50)), axis=-1)
        ks, ad = _both_statistics(F)
        ks_ref, ad_ref = _both_statistics_numpy(F)
        assert ks.shape == ad.shape == (2, 3)
        assert ks.tobytes() == ks_ref.tobytes()
        assert ad.tobytes() == ad_ref.tobytes()
        for i in range(2):
            for j in range(3):
                assert _both_statistics(F[i, j]) == (ks[i, j], ad[i, j])

    def test_a_row_holding_nan_scores_nan(self):
        F = np.sort(np.random.default_rng(6).random((3, 20)), axis=-1)
        F[1, 7] = math.nan
        with np.errstate(invalid="ignore"):
            compiled, numpy_ = _scores_both_ways(F)
        assert np.isnan(compiled[:, 1]).all() and np.isnan(numpy_[:, 1]).all()
        keep = [0, 2]
        assert compiled[:, keep].tobytes() == numpy_[:, keep].tobytes()
        assert all(math.isnan(s) for s in _both_statistics(F[1]))

    @pytest.mark.parametrize("path", ["compiled", "numpy"])
    def test_gof_test_rejects_nan_on_both_paths(self, monkeypatch, path):
        if path == "numpy":
            monkeypatch.setattr(_orbit, "kernel", lambda: None)
        with np.errstate(all="ignore"), pytest.raises(ValueError):
            gof_test([0.0, 0.5, math.nan], 1.5, n_null=99)

    @given(M=st.integers(1, 64), rows=st.integers(1, 3), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_numpy_on_random_sorted_rows(self, M, rows, data):
        values = data.draw(st.lists(st.floats(0.0, 1.0), min_size=rows * M,
                                    max_size=rows * M))
        F = np.sort(np.array(values).reshape(rows, M), axis=-1)
        compiled, numpy_ = _scores_both_ways(F)
        assert compiled.tobytes() == numpy_.tobytes()
        compiled, numpy_ = _scores_both_ways(F[0])
        assert compiled.tobytes() == numpy_.tobytes()


# The acceptance tables' grid, and the q' on both sides of the Gaussian
# switch and next to 3 that the bounded scorer must also hold.
PROTOCOL_Q = (-1.0, 0.0, 1.0, 1.5, 2.0, 2.3, 2.4, 2.5, 2.6, 2.8, 2.9)
BOUNDED_Q = PROTOCOL_Q + (0.99, 1.01, 2.99)


def _direct_sample(q_out, M, seed, far, ties):
    """M sorted samples for q_out: the bulk spread over the body and tails
    of the family, a share far of them where the direct cdf saturates
    (past +-L below q' = 1, where y/(1 + y) rounds to 1 above, and out to
    the largest double), a share ties of them copies of others, and 0, -0
    and +-L among them."""
    spec = make_spec(q_out)
    rng = np.random.default_rng(seed)
    if q_out < 1.0 and not spec.gaussian:
        x = rng.uniform(-1.05, 1.05, M) * spec.half_width
    else:
        x = rng.standard_t(1.0 / max(q_out - 1.0, 0.05), M)
    r1 = math.sqrt(2.0 ** 53 / spec.k) if spec.k else 40.0  # y/(1+y) -> 1
    extremes = [0.0, -0.0, spec.half_width, -spec.half_width, r1, -r1,
                r1 * (1.0 - 1e-6), -r1 * (1.0 + 1e-6), 1e154, -3e154, 1e300,
                -1.7976931348623157e308, 1.7976931348623157e308]
    extremes = [e for e in extremes if math.isfinite(e)]
    pick = rng.random(M)
    x[pick < far] = rng.choice(extremes, int(np.count_nonzero(pick < far)))
    copy = rng.random(M) < ties
    x[copy] = rng.choice(x, int(np.count_nonzero(copy)))
    return np.sort(x)


def _heavy_argument(spec, x):
    """cdf_array_direct's kernel argument above q' = 1: y/(1 + y) of
    y = k*x*x, capped at 1."""
    y = spec.k * x * x
    return np.fmin(y / (1.0 + y), 1.0)


@pytest.fixture
def direct_kernels():
    """scipy's scalar betainc and ndtr addresses; skips where the compiled
    library or those kernels are missing (_score then takes its oracle)."""
    from qgauss import distribution
    if _orbit.kernel() is None or distribution._direct_kernels() is None:
        pytest.skip("the compiled scorer or scipy's scalar kernels are missing")
    return distribution._direct_kernels()


@pytest.mark.usefixtures("direct_kernels")
class TestBoundedScores:
    """_score's compiled route (qgauss_bounded_scores in _orbit.c) gives
    the bits of _both_statistics_numpy over cdf_array_direct at every
    sample, its byte oracle, from the cdf values of the samples that can
    hold a maximum."""

    @given(q_out=st.sampled_from(BOUNDED_Q),
           M=st.one_of(st.integers(1, 3), st.integers(4, 3000)),
           seed=st.integers(0, 2 ** 32 - 1),
           far=st.sampled_from([0.0, 0.01, 0.3, 1.0]),
           ties=st.sampled_from([0.0, 0.05, 0.5]))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_oracle(self, q_out, M, seed, far, ties):
        """Through _score, and through the kernel on the same values in
        any order, where the oracle scores that order."""
        from qgauss import distribution
        x = _direct_sample(q_out, M, seed, far, ties)
        shuffled = np.random.default_rng(seed).permutation(x)
        with np.errstate(all="ignore"):
            expected = _both_statistics_numpy(cdf_array_direct(q_out, x))
            unsorted = _both_statistics_numpy(cdf_array_direct(q_out, shuffled))
        assert stats._score(q_out, shuffled)[:2] == expected
        ks, ad, _ = _orbit.bounded_scores(_orbit.kernel(), make_spec(q_out), shuffled,
                                          _edf_steps(M), distribution._direct_kernels())
        assert (ks, ad) == unsorted

    def test_matches_the_oracle_on_protocol_trials_in_few_calls(self, direct_kernels):
        """Five protocol trials per q' of each table's map, (d, l, c) =
        (8, 2, 1) and (6, 2, 6): the bits of the oracle, from at most 517
        kernel values per 10**4-sample trial on average (these 110 trials
        averaged 450, as did all 2200 trials of both tables)."""
        calls = []
        for cfg, (iq, q_out) in itertools.product(
                (MapConfig(d=8, l=2, c=1), MapConfig(d=6, l=2, c=6)), enumerate(PROTOCOL_Q)):
            spec = make_spec(q_out)
            for trial in range(5):
                state = stats._trial_start(spec, cfg, 20260839, iq, trial)
                x = np.sort(generate(state, 10000).xi)
                ks, ad, n = _orbit.bounded_scores(
                    _orbit.kernel(), spec, x, _edf_steps(x.size), direct_kernels)
                assert (ks, ad) == _both_statistics_numpy(cdf_array_direct(q_out, x))
                calls.append(n)
        assert np.mean(calls) <= 517

    @pytest.mark.parametrize("q_out", [2.6, 2.8, 2.9, 2.99])
    def test_blocks_whose_argument_breaks_order_match_the_oracle(self, q_out, direct_kernels):
        """Near y = k*x*x = 2**53, y/(1 + y) rounds to 1, 1 - 2**-53 or
        1 - 2**-52 out of the order of x, so along a sorted block the
        computed t descends (ascends below 0), and F with it, by up to 0.19
        at q' = 2.9.  Each sample holds one value at t = 1 between values
        at t < 1, as sample 1 or, mirrored below 0, sample M - 2, where it
        holds both maxima; bracketed by its block's end values it would be
        dropped.  Every result has the oracle's bits."""
        spec = make_spec(q_out)
        grid = math.sqrt(2.0 ** 53 / spec.k) * np.linspace(0.9, 1.6, 20001)
        t = _heavy_argument(spec, grid)
        peak = next(i for i in range(1, grid.size) if t[i] == 1.0 and t[i - 1] < 1.0)
        after = next(j for j in range(peak + 1, grid.size) if t[j] < 1.0)
        for M in (63, 64, 65, 128, 129, 4000):
            up = np.concatenate([grid[[peak - 1, peak]], np.full(M - 2, grid[after])])
            for x in (up, -up[::-1]):
                signed = np.copysign(_heavy_argument(spec, x), x)
                assert (np.diff(signed) < 0.0).any()  # t breaks the order of x
                expected = _both_statistics_numpy(cdf_array_direct(q_out, x))
                assert stats._score(q_out, x)[:2] == expected
                assert _orbit.bounded_scores(_orbit.kernel(), spec, x, _edf_steps(M),
                                             direct_kernels)[:2] == expected

    @pytest.mark.parametrize("M", [63, 64, 65, 128, 129])
    @pytest.mark.parametrize("q_out", [-1.0, 0.0, 0.5, 1.0, 1.5, 2.9])
    def test_blocks_across_zero_and_the_edges_match_the_oracle(self, q_out, M, direct_kernels):
        """Sorted samples of M values from -1.08 to 1.32 times the support's
        half-width L (3 where it is infinite), with -L, L, -0.0 and 0.0 among
        them: one block crosses x = 0 off its ends, and below q' = 1
        samples lie on and past both edges, at block ends and inside.
        Every result has the oracle's bits."""
        spec = make_spec(q_out)
        L = spec.half_width if math.isfinite(spec.half_width) else 3.0
        bulk = (np.arange(M - 4) - 0.45 * (M - 4)) * (2.4 * L / M)
        x = np.sort(np.concatenate([bulk, [-L, L, -0.0, 0.0]]))
        cross = int(np.searchsorted(x, 0.0))
        assert 0 < cross and x[cross - 1] < 0.0 < x[-1]
        if q_out < 1.0:
            assert (x <= -L).sum() > 1 and (x >= L).sum() > 1
        expected = _both_statistics_numpy(cdf_array_direct(q_out, x))
        assert stats._score(q_out, x)[:2] == expected
        assert _orbit.bounded_scores(_orbit.kernel(), spec, x, _edf_steps(M),
                                     direct_kernels)[:2] == expected

    @pytest.mark.parametrize("where", [0, 2, 3])
    @pytest.mark.parametrize("q_out", [-1.0, 0.5, 1.0, 1.5, 2.9])
    def test_nan_sample_gives_nan(self, q_out, where, direct_kernels):
        """A NaN among the samples, which _score rejects, makes both
        statistics NaN, as in the oracle, at every cdf branch."""
        x = np.array([-1.0, 0.2, 0.7, 2.0])
        x[where] = math.nan
        with np.errstate(all="ignore"):
            assert np.isnan(_both_statistics_numpy(cdf_array_direct(q_out, x))).all()
        ks, ad, _ = _orbit.bounded_scores(_orbit.kernel(), make_spec(q_out), x,
                                          _edf_steps(4), direct_kernels)
        assert math.isnan(ks) and math.isnan(ad)

    def test_kernels_give_the_ufuncs_bits(self, direct_kernels):
        """betainc(0.5, a, t) at the a of every non-Gaussian q' above, over
        t on a grid of [0, 1] dense at both ends, and ndtr over [-40, 40],
        called through the two addresses, give the ufuncs' bits."""
        import ctypes

        import scipy.special as sc
        betainc = ctypes.CFUNCTYPE(ctypes.c_double, ctypes.c_double, ctypes.c_double,
                                   ctypes.c_double, ctypes.c_int)(direct_kernels[0])
        ndtr = ctypes.CFUNCTYPE(ctypes.c_double, ctypes.c_double,
                                ctypes.c_int)(direct_kernels[1])
        u = np.linspace(0.0, 1.0, 401)
        t = np.unique(np.concatenate([u, u ** 6, 1.0 - u ** 6, [5e-324, 1e-300]]))
        for q_out in BOUNDED_Q:
            spec = make_spec(q_out)
            if spec.gaussian:
                continue
            expected = sc.betainc(0.5, spec.a, t)
            got = np.array([betainc(0.5, spec.a, v, 0) for v in t])
            assert got.tobytes() == expected.tobytes(), q_out
        x = np.linspace(-40.0, 40.0, 8001)
        assert np.array([ndtr(v, 0) for v in x]).tobytes() == sc.ndtr(x).tobytes()

    def test_rejects_what_it_cannot_score(self, direct_kernels):
        lib, spec = _orbit.kernel(), make_spec(1.5)
        x = np.linspace(-1.0, 1.0, 5)
        steps = _edf_steps(5)
        for bad in (x[:0], x.reshape(1, 5), x.astype(np.float32), list(x)):
            with pytest.raises(ValueError):
                _orbit.bounded_scores(lib, spec, bad, steps, direct_kernels)
        with pytest.raises(ValueError):
            _orbit.bounded_scores(lib, spec, x, _edf_steps(4), direct_kernels)
        for kernels in ((0, direct_kernels[1]), (direct_kernels[0], None)):
            with pytest.raises(ValueError):
                _orbit.bounded_scores(lib, spec, x, steps, kernels)


class TestDirectKernelFallback:
    """Where scipy's scalar kernels cannot be read, _score takes its
    oracle, cdf_array_direct then _both_statistics, with the same bytes."""

    def test_wrong_signature_or_missing_name_reads_none(self, monkeypatch):
        from qgauss import distribution
        cases = [(("__pyx_fuse_0betainc", b"float (float)"),
                  distribution._DIRECT_KERNELS[1]),
                 (distribution._DIRECT_KERNELS[0], ("no_such_kernel", b"double (double)"))]
        try:
            for wrong in cases:
                monkeypatch.setattr(distribution, "_DIRECT_KERNELS", wrong)
                distribution._direct_kernels.cache_clear()
                assert distribution._direct_kernels() is None
        finally:
            monkeypatch.undo()
            distribution._direct_kernels.cache_clear()

    def test_table_bytes_do_not_depend_on_the_kernels(self, monkeypatch, direct_kernels):
        from qgauss import distribution
        kw = dict(trials=2, samples=2000, n_null=99, master_seed=5)
        q_list = [-1.0, 1.0, 1.5, 2.9]
        out = []
        for kernels in (distribution._direct_kernels, lambda: None):
            monkeypatch.setattr(distribution, "_direct_kernels", kernels)
            fh = io.StringIO()
            run_trial_table(q_list, **kw).to_csv(fh)
            out.append(fh.getvalue())
        assert out[0] == out[1]


class TestGofTest:
    def test_model_samples_pass(self):
        from qgauss.distribution import quantile
        stream = UniformStream(777)
        samples = [quantile(0.5, u) for u in stream.take(400)]
        res = gof_test(samples, 0.5, kind="ks", n_null=199)
        assert res.p_value > 0.05
        assert res.kind == "ks"
        assert res.n_samples == 400

    def test_wrong_model_fails(self):
        stream = UniformStream(778)
        # uniform(-1, 1) pretending to be a Gaussian
        samples = 2.0 * stream.take(2000) - 1.0
        res = gof_test(samples, 1.0, kind="ks", n_null=199)
        assert res.p_value <= 0.01

    @pytest.mark.parametrize("kind", ["ks", "ad"])
    @pytest.mark.parametrize("q_out", [0.5, 1.5, 2.9])
    def test_is_the_protocol_cdf_composition(self, q_out, kind):
        """gof_test's verdict is sup_weighted_statistic over
        cdf_array_direct followed by mc_p_value, bit for bit."""
        x = UniformStream(780).take(500) * 8.0 - 4.0
        res = gof_test(x, q_out, kind=kind, n_null=99, seed=3)
        stat = sup_weighted_statistic(
            np.sort(x), lambda a: cdf_array_direct(q_out, a), kind=kind)
        assert res.statistic == stat
        assert res.p_value == mc_p_value(500, stat, kind=kind, n_null=99, seed=3)

    def test_arrangements_identical_for_compact_family(self):
        """For q' < 1 the tail-exact composition over cdf_array gives
        gof_test's verdict to round-off."""
        stream = UniformStream(779)
        from qgauss.distribution import quantile
        samples = [quantile(0.0, u) for u in stream.take(300)]
        a = gof_test(samples, 0.0, kind="ad", n_null=99)
        stat = sup_weighted_statistic(
            np.sort(samples), lambda x: cdf_array(0.0, x), kind="ad")
        assert a.statistic == pytest.approx(stat, rel=1e-12)
        assert a.p_value == mc_p_value(300, stat, kind="ad", n_null=99)

    @pytest.mark.parametrize("n_null", [0, -3, 2.5, None])
    def test_rejects_bad_n_null(self, n_null):
        with pytest.raises(ValueError):
            gof_test([0.0, 0.5], 1.0, n_null=n_null)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_sample_outside_the_cdf(self, bad):
        """A nan or +-inf sample is a ValueError at every q', not a
        statistic."""
        for q_out in GOF_Q:
            with pytest.raises(ValueError):
                gof_test([0.0, 0.5, bad], q_out, n_null=19)

    @pytest.mark.parametrize("kind", ["ks", "ad"])
    @pytest.mark.parametrize("q_out", GOF_Q)
    def test_scores_sample_whose_square_overflows_at_cdf_one(self, q_out, kind):
        """1e200, far past where k*x*x overflows, scores as F = 1 at every
        q'."""
        x = [0.0, 0.5, 1e200]
        F = np.append(cdf_array_direct(q_out, np.array(x[:2])), 1.0)
        res = gof_test(x, q_out, kind=kind, n_null=19)
        assert res.statistic == sup_weighted_statistic(x, lambda a: F, kind=kind)

    @pytest.mark.parametrize("q_out", GOF_Q)
    @pytest.mark.parametrize("samples", [[[0.0, 0.5]], 0.5, []],
                             ids=["2-d", "0-d", "empty"])
    def test_rejects_empty_or_not_1d_sample(self, q_out, samples):
        with pytest.raises(ValueError, match="non-empty 1-d"):
            gof_test(samples, q_out, n_null=19)


class TestAutocorrelation:
    def test_constant_sequence_is_zero(self):
        x = [3.5] * 64
        for m in (0, 1, 5):
            assert autocorrelation(x, m) == pytest.approx(0.0, abs=1e-12)

    def test_alternating_sequence(self):
        x = [1.0, -1.0] * 50
        assert autocorrelation(x, 0) == pytest.approx(1.0)
        assert autocorrelation(x, 1) == pytest.approx(-1.0)

    def test_lag_zero_is_biased_variance(self):
        rng = np.random.default_rng(23)
        x = rng.normal(size=500)
        assert autocorrelation(x, 0) == pytest.approx(float(np.var(x)),
                                                      rel=1e-12)

    def test_lag_bounds(self):
        """The sample rule of _score (non-empty, 1-d, finite), then the lag."""
        with pytest.raises(ValueError):
            autocorrelation([1.0, 2.0], 2)
        with pytest.raises(ValueError):
            autocorrelation([1.0, 2.0], -1)
        for bad in ([], [[1.0, 2.0], [3.0, 4.0]], [1.0, math.nan], [1.0, math.inf]):
            with pytest.raises(ValueError, match="samples must be"):
                autocorrelation(bad, 0)


class TestLyapunov:
    def test_analytic_route_smoke(self):
        lam = lyapunov(make_spec(0.5).q_int, MapConfig(), z0=1.0, t=20000)
        assert lam == pytest.approx(math.log(2.0), rel=0.02)

    def test_chain_rule_route_smoke(self):
        cfg = MapConfig(l=3, c=1)
        lam = lyapunov(make_spec(0.5).q_int, cfg, z0=1.0, t=20000)
        assert lam == pytest.approx(math.log(3.0), rel=0.02)

    def test_rejects_nonpositive_t(self):
        with pytest.raises(ValueError):
            lyapunov(1.0, MapConfig(), z0=1.0, t=0)

    @pytest.mark.parametrize("burn_in", [-1, 1.5, None])
    def test_rejects_bad_burn_in(self, burn_in):
        with pytest.raises(ValueError):
            lyapunov(1.0, MapConfig(), z0=1.0, t=10, burn_in=burn_in)

    # q' = 0.5, 1, 1.5 give q_int < 1, q_int = 1 and q_int > 1; (2, 1) is
    # the analytic route, the rest the chain-rule route.  The 1% checks
    # above cannot see a drifting inlined loop, so compare bits.
    @pytest.mark.parametrize("q_out", [0.5, 1.0, 1.5])
    @pytest.mark.parametrize("l,c", [(2, 1), (2, 6), (3, 1), (3, 6)])
    @pytest.mark.parametrize("z0", [0.3, 1.0])
    def test_matches_per_call_reference(self, q_out, l, c, z0):
        q_int = make_spec(q_out).q_int
        cfg = MapConfig(l=l, c=c)
        lam = lyapunov(q_int, cfg, z0=z0, t=3000)
        assert lam.hex() == reference_lyapunov(q_int, cfg, z0=z0, t=3000).hex()

    @pytest.mark.parametrize("l,c", [(2, 1), (3, 1)])
    @pytest.mark.parametrize("burn_in", [1000, 0])
    def test_rejects_invalid_z0(self, l, c, burn_in):
        cfg = MapConfig(l=l, c=c)
        q_int = make_spec(0.5).q_int
        z_edge = math.sqrt(2.0 / (1.0 - q_int))
        for z0 in (-0.5, math.nan, math.inf, z_edge * 1.01):
            with pytest.raises(ValueError):
                lyapunov(q_int, cfg, z0=z0, t=100, burn_in=burn_in)
        for z0 in (-0.5, math.nan, math.inf):
            with pytest.raises(ValueError):
                lyapunov(make_spec(1.5).q_int, cfg, z0=z0, t=100, burn_in=burn_in)

    @pytest.mark.parametrize("l,c", [(2, 1), (3, 1)])
    def test_python_loop_steps_only_through_radial_steps(self, monkeypatch, l, c):
        """Both routes of the Python loop move z through one
        maps._radial_steps orbit alone: its yields add up to the burn-in plus
        the averaged steps."""
        orbits = []
        real = stats._radial_steps

        def counting(q_int, cfg, z):
            orbits.append(0)
            for step in real(q_int, cfg, z):
                orbits[-1] += 1
                yield step

        monkeypatch.setattr(stats, "_radial_steps", counting)
        burn_in, t = 4097, 5000
        _lyapunov_python(make_spec(1.5).q_int, MapConfig(l=l, c=c), 0.9, t, burn_in)
        assert orbits == [burn_in + t]


LYAPUNOV_Q = [-1.0, -0.5, 0.0, 0.5, 1.0 - 5e-13, 1.0, 1.0 + 5e-13, 1.5,
              2.5, 2.9, 2.95, 2.99]


def _lyapunov_outcome(run, q_int, cfg, z0, t, burn_in):
    """(acc.hex(), used) of one Lyapunov loop, or the type it raised."""
    try:
        acc, used = run(q_int, cfg, z0, t, burn_in)
    except ArithmeticError as exc:
        return type(exc)
    return acc.hex(), used


def _compiled_lyapunov(q_int, cfg, z0, t, burn_in):
    return _orbit.lyapunov(_orbit.kernel(), q_int, _radial_params(q_int, cfg),
                           z0, t, burn_in)


@pytest.mark.usefixtures("needs_kernel")
class TestCompiledLyapunov:
    """lyapunov runs the compiled loop (qgauss_lyapunov in _orbit.c)
    wherever it can be built; _lyapunov_python is its oracle, bit for bit
    and exception type for exception type."""

    @pytest.mark.parametrize("l,c", [(2, 1), (2, 6), (3, 1), (3, 6), (2 ** 63 - 1, 1)],
                             ids=["2-1", "2-6", "3-1", "3-6", "2**63-1-1"])
    def test_matches_python_loop(self, l, c):
        """Burn-ins of 0, 1 and 4097 and lengths of 1, 4095 and 4097, over
        q' on both sides of 1 and up to where the analytic route raises;
        then starts where u rounds to 1 (z0 = 1e-9), inside,
        and at the support edge, or for q_int >= 1 so far out that u
        underflows to 0 and the clamp acts."""
        cfg = MapConfig(l=l, c=c)
        for q_out in LYAPUNOV_Q:
            q_int = make_spec(q_out).q_int
            cases = [(0.9, t, b) for b in (0, 1, 4097) for t in (1, 4095, 4097)]
            z0s = [1e-9, 0.3, math.sqrt(2.0 / (1.0 - q_int)) if q_int < 1.0 else 1e200]
            cases += [(z0, t, 0) for z0 in z0s for t in (1, 4095, 4097)]
            for z0, t, burn_in in cases:
                args = (q_int, cfg, z0, t, burn_in)
                assert (_lyapunov_outcome(_compiled_lyapunov, *args)
                        == _lyapunov_outcome(_lyapunov_python, *args)), args

    def test_raises_where_python_raises(self):
        """The two exceptions the Python loop raises, through lyapunov."""
        for q_int in (0.5, 1.5):
            with pytest.raises(ZeroDivisionError):
                lyapunov(q_int, MapConfig(), z0=1e-9, t=10, burn_in=0)
        q_int = make_spec(2.99).q_int
        with pytest.raises(OverflowError):
            lyapunov(q_int, MapConfig(), z0=1.0, t=4097)
        # 1 - u is about 0.1: (1 - u)**(-q_int) overflows on the first step,
        # the math.exp after it would not
        with pytest.raises(OverflowError):
            lyapunov(q_int, MapConfig(), z0=1e11, t=1, burn_in=0)
        # the underflowing powers of the chain-rule route do not raise
        lam = lyapunov(make_spec(2.99).q_int, MapConfig(l=3), z0=1.0, t=4097)
        assert math.isfinite(lam)

    def test_power_out_of_range_raises_where_python_raises(self):
        """At q_int = -3000, 2**(1 - q_int) overflows: both loops raise
        where the first step forms it, from z0 = 1e-9 (the maps' start
        checks reject every such start, so lyapunov itself never gets
        there)."""
        for t in (1, 10, 4097):
            args = (-3000.0, MapConfig(), 1e-9, t, 0)
            assert _lyapunov_outcome(_lyapunov_python, *args) is OverflowError
            assert _lyapunov_outcome(_compiled_lyapunov, *args) is OverflowError

    def test_rejects_counts_it_cannot_run(self):
        lib = _orbit.kernel()
        radial = _radial_params(1.5, MapConfig())
        for c, t, burn_in in ((0, 10, 0), (2 ** 63, 10, 0), (1, -1, 0),
                              (1, 2 ** 63, 0), (1, 10, -1), (1, 10, 2 ** 63),
                              (1, 10.0, 0), (1, 10, 1.0)):
            with pytest.raises(ValueError):
                _orbit.lyapunov(lib, 1.5, radial._replace(c=c), 1.0, t, burn_in)


class TestTrialTable:
    def test_small_table_shape_and_determinism(self):
        q_list = [0.5, 1.5]
        t1 = run_trial_table(q_list, trials=3, samples=400, n_null=99,
                             master_seed=1)
        t2 = run_trial_table(q_list, trials=3, samples=400, n_null=99,
                             master_seed=1)
        assert t1.rows == t2.rows
        assert len(t1.rows) == 2
        assert all(len(r.p_ks) == 3 for r in t1.rows)
        assert t1.rows[0].p_ks_best == max(t1.rows[0].p_ks)

    def test_no_trial_ends_on_the_support_edge(self, monkeypatch):
        """At q' = 0.99, 41 of the first 100 protocol starts have a first
        radial step that lands on the support edge, where the orbit stays;
        _trial_start halves those z0 until the step does not."""
        ends = []
        real = stats._run

        def recording(states, n, xi, eta):
            kernel = real(states, n, xi, eta)
            ends.extend(state.z for state in states)
            return kernel

        monkeypatch.setattr(stats, "_run", recording)
        run_trial_table([0.99], trials=100, samples=50, n_null=19)
        assert len(ends) == 100
        assert _z_edge(make_spec(0.99).q_int) not in ends

    def test_fold_order_that_absorbs_every_start_is_rejected(self, monkeypatch):
        """At l = 2**62, s*g_inv(z0) is an even integer for every z0, so
        every halving of a q' < 1 start still lands on the support edge.
        The table raises ValueError before it builds the null, and within
        the alarm (the halving stops at z0 = 0)."""
        def no_null(*args):
            raise AssertionError("null built before the starts were checked")

        def hang(signum, frame):
            raise AssertionError("no verdict within 20 s")

        monkeypatch.setattr(stats, "_null_statistics", no_null)
        old = signal.signal(signal.SIGALRM, hang)
        signal.alarm(20)
        try:
            with pytest.raises(ValueError, match="support edge"):
                run_trial_table([0.5], trials=1, samples=50, n_null=19,
                                cfg=MapConfig(l=2**62))
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, old)

    def test_trial_holding_a_sample_whose_square_overflows_scores(self, monkeypatch):
        """A trial holding 1e200 is scored as gof_test scores it, with that
        sample at F = 1."""
        real = stats._run
        samples = []

        def overflowing(states, n, xi, eta):
            kernel = real(states, n, xi, eta)
            xi[:, 0] = 1e200
            samples.extend(xi.copy())
            return kernel

        monkeypatch.setattr(stats, "_run", overflowing)
        row = run_trial_table([1.5], trials=1, samples=50, n_null=19).rows[0]
        (xi,) = samples
        assert row.p_ks == (gof_test(xi, 1.5, "ks", n_null=19).p_value,)
        assert row.p_ad == (gof_test(xi, 1.5, "ad", n_null=19).p_value,)

    def test_jobs_do_not_change_results(self):
        q_list = [0.5, 1.5]
        serial = run_trial_table(q_list, trials=2, samples=300, n_null=99,
                                 master_seed=2, jobs=1)
        parallel = run_trial_table(q_list, trials=2, samples=300, n_null=99,
                                   master_seed=2, jobs=2)
        assert serial.rows == parallel.rows

    def test_lane_groups_keep_the_trials_bytes(self):
        """Trials that cross lane-group boundaries score as each trial
        generated alone and scored by _score gives, in the CSV bytes, every
        statistic and every p-value under the literal count rule
        (1 + #{null >= s})/(n_null + 1), with one worker or two."""
        q_list, cfg = [0.5, 1.0, 2.5], MapConfig(d=6, c=6)
        trials, samples, n_null = 2 * _orbit.LANES + 3, 500, 99
        rows = []
        nulls = _null_statistics(samples, n_null, DEFAULT_NULL_SEED)
        for iq, q in enumerate(q_list):
            spec = make_spec(q)
            scores = []
            for trial in range(trials):
                batch = generate(stats._trial_start(spec, cfg, 7, iq, trial), samples)
                scores.append(stats._score(q, batch.xi))
            ks, ad, calls = zip(*scores)
            p_ks, p_ad = (
                tuple((1.0 + int(np.count_nonzero(null >= s))) / (n_null + 1.0) for s in kind)
                for null, kind in zip(nulls, (ks, ad)))
            rows.append(stats.TrialRow(q_out=q, nu=spec.nu, p_ks_best=max(p_ks),
                                       p_ad_best=max(p_ad), p_ks=p_ks, p_ad=p_ad,
                                       ks=ks, ad=ad, kernel_calls=calls,
                                       kernel=batch.kernel))
        expected = stats.TrialTable(rows=tuple(rows), cfg=cfg, trials=trials,
                                    samples=samples, n_null=n_null, master_seed=7,
                                    null_seed=DEFAULT_NULL_SEED)
        for jobs in (1, 2):
            table = run_trial_table(q_list, cfg=cfg, trials=trials, samples=samples,
                                    master_seed=7, n_null=n_null, jobs=jobs)
            assert [(r.p_ks, r.p_ad) for r in table.rows] == [
                (r.p_ks, r.p_ad) for r in expected.rows]
            csv, expected_csv = io.StringIO(), io.StringIO()
            table.to_csv(csv)
            expected.to_csv(expected_csv)
            assert csv.getvalue().encode() == expected_csv.getvalue().encode()
            assert table.rows == expected.rows

    def test_csv_layout(self):
        tab = run_trial_table([0.5, 1.5], trials=2, samples=200, n_null=99,
                              master_seed=3)
        buf = io.StringIO()
        tab.to_csv(buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "q,nu,p_AD_best,p_KS_best"
        assert lines[1].startswith("0.5,,")      # nu column empty for q <= 1
        assert lines[2].startswith("1.5,3,")     # nu = 3 exactly

    def test_metadata_round_trip(self):
        tab = run_trial_table([1.0], trials=1, samples=100, n_null=99,
                              master_seed=4)
        meta = tab.metadata()
        assert meta["samples"] == 100
        assert meta["master_seed"] == 4
        assert meta["d"] == 8

    def test_metadata_names_the_orbit_loop(self, monkeypatch):
        """The sidecar says which orbit loop generated the rows; the CSV
        bytes are the same from either loop."""
        def run():
            tab = run_trial_table([0.5, 1.5], trials=2, samples=300, n_null=99,
                                  master_seed=6, jobs=1)
            buf = io.StringIO()
            tab.to_csv(buf)
            return buf.getvalue(), tab.metadata()["kernel"]

        expected = "python" if _orbit.kernel() is None else "c"
        csv, kernel = run()
        assert kernel == expected
        monkeypatch.setattr(_orbit, "kernel", lambda: None)
        assert run() == (csv, "python")

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            run_trial_table([1.0], trials=0)
        with pytest.raises(ValueError):
            run_trial_table([1.0], samples=-5)

    @pytest.mark.parametrize("n_null", [0, -3, 2.5, None])
    def test_rejects_bad_n_null(self, n_null):
        with pytest.raises(ValueError):
            run_trial_table([1.0], trials=1, samples=100, n_null=n_null)

    @pytest.mark.parametrize("bad_q", [3.5, math.nan, math.inf, True, "1.5"])
    def test_rejects_bad_q_before_work(self, monkeypatch, bad_q):
        """Each q' of q_list is checked by make_spec, before it is converted,
        the null is built or a worker starts: a bool or a string is no q'."""
        def fail(*args, **kwargs):
            raise AssertionError("work started before q' was checked")

        monkeypatch.setattr(stats, "_null_statistics", fail)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", fail)
        with pytest.raises(ValueError):
            run_trial_table([0.5, bad_q], trials=1, samples=100, n_null=99,
                            jobs=2)

    def test_real_q_gives_the_rows_of_its_float(self):
        """A q' given as an int or a numpy float32 is made a float before
        its spec, so its row, orbit included, is that of float(q')."""
        kw = dict(trials=2, samples=200, n_null=19, master_seed=8)
        rows = run_trial_table([1, np.float32(1.5)], **kw).rows
        assert rows == run_trial_table([1.0, 1.5], **kw).rows
        assert [type(row.q_out) for row in rows] == [float, float]

    def test_rejects_empty_grid_before_work(self, monkeypatch):
        """A q_list with no q' is rejected with the counts, before the null
        is built: a table of no rows is no table."""
        def fail(*args, **kwargs):
            raise AssertionError("work started before q_list was checked")

        monkeypatch.setattr(stats, "_null_statistics", fail)
        with pytest.raises(ValueError, match="len"):
            run_trial_table([], trials=1, samples=100, n_null=99)

    def test_complement_table_scores_with_cdf_array(self):
        """Each p-value of a table is its trial scored as gof_test scores
        it, through cdf_array_direct.  Tail-exact scoring composes
        sup_weighted_statistic over cdf_array with mc_p_value; at q' = 2.9,
        where the direct arrangement saturates, it gives other p-values."""
        q_list = [1.5, 2.9]
        table = run_trial_table(q_list, trials=2, samples=1000, n_null=99,
                                master_seed=5)
        moved = 0
        for iq, (q_out, row) in enumerate(zip(q_list, table.rows)):
            spec = make_spec(q_out)
            for trial in range(2):
                xi = generate(stats._trial_start(spec, MapConfig(), 5, iq, trial), 1000).xi
                x = np.sort(xi)
                for kind, p in (("ks", row.p_ks[trial]), ("ad", row.p_ad[trial])):
                    assert p == gof_test(xi, q_out, kind=kind, n_null=99).p_value
                    stat = sup_weighted_statistic(x, lambda a: cdf_array(q_out, a),
                                                  kind=kind)
                    p_exact = mc_p_value(1000, stat, kind=kind, n_null=99)
                    moved += q_out == 2.9 and p_exact != p
        assert moved > 0

    @pytest.mark.parametrize("jobs", [0, -3, 1.5, None])
    def test_rejects_bad_jobs(self, jobs):
        with pytest.raises(ValueError):
            run_trial_table([1.0], trials=1, samples=100, n_null=99, jobs=jobs)

    def test_pool_has_at_most_one_worker_per_row(self, monkeypatch):
        """A huge jobs asks the pool for one thread per grid value, which a
        pool that records its request before it starts shows."""
        workers = []

        class RecordingPool(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers):
                workers.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
        kw = dict(trials=2, samples=300, n_null=99, master_seed=2)
        wide = run_trial_table([0.5, 1.5], jobs=10 ** 6, **kw)
        assert workers == [2]
        assert wide.rows == run_trial_table([0.5, 1.5], jobs=1, **kw).rows

    def test_row_error_reaches_the_caller_and_leaves_no_thread(self, monkeypatch):
        """An exception raised in one row on the pool is raised by
        run_trial_table with its type and message, and every worker thread
        has ended by then."""
        class RowError(Exception):
            pass

        real = stats._run

        def fail_at_one(states, n, xi, eta):
            if states[0].spec.q_out == 1.0:
                raise RowError("no orbit at q'=1")
            return real(states, n, xi, eta)

        monkeypatch.setattr(stats, "_run", fail_at_one)
        before = threading.active_count()
        with pytest.raises(RowError) as raised:
            run_trial_table([0.5, 1.0, 1.5], trials=2, samples=300, n_null=19,
                            jobs=2)
        assert raised.type is RowError
        assert str(raised.value) == "no orbit at q'=1"
        assert threading.active_count() == before


# A fresh interpreter whose first table runs on two worker threads, so the
# rows' first calls of distribution._special and _direct_kernels (the load
# of scipy's modules and the kernels' addresses) come from both threads at
# once; then
# the same table with jobs=1.  Prints each table's CSV and p-values.
_FRESH_TABLE = """
import io, json, sys
from qgauss import distribution
from qgauss.maps import MapConfig
from qgauss.stats import run_trial_table

assert "scipy.special" not in sys.modules
assert distribution._direct_kernels.cache_info().currsize == 0
tables = []
for jobs in (2, 1):
    table = run_trial_table(%(q)r, cfg=MapConfig(d=6, c=6), trials=3,
                            samples=2000, n_null=99, master_seed=5, jobs=jobs)
    csv = io.StringIO()
    table.to_csv(csv)
    tables.append([csv.getvalue(), [[r.p_ks, r.p_ad] for r in table.rows]])
print(json.dumps(tables))
"""


class TestThreadSafety:
    Q = [-1.0, 0.5, 1.0, 1.5, 2.9]

    def test_first_table_on_two_threads_gives_the_serial_bytes(self):
        env = dict(os.environ)
        src = str(Path(stats.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", _FRESH_TABLE % {"q": self.Q}],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        threaded, serial = json.loads(done.stdout)
        assert threaded == serial
        table = run_trial_table(self.Q, cfg=MapConfig(d=6, c=6), trials=3,
                                samples=2000, n_null=99, master_seed=5)
        csv = io.StringIO()
        table.to_csv(csv)
        assert serial[0] == csv.getvalue()

    def test_compiled_calls_on_two_threads_give_their_serial_bits(self, direct_kernels):
        """_orbit.orbit and _orbit.bounded_scores, which release the GIL,
        run in two threads at once, over every cdf branch: scipy's scalar
        betainc and ndtr are declared noexcept nogil in cython_special.
        Each call gives the bits it gives alone."""
        lib, cfg, n = _orbit.kernel(), MapConfig(), 10000
        calls = []
        for iq, q in enumerate(self.Q):
            spec = make_spec(q)
            state = stats._trial_start(spec, cfg, 3, iq, 0)
            start = [(state.w, state.v, state.z)]
            x = np.sort(generate(state, n).xi)

            def orbit(spec=spec, start=start):
                xi, eta = np.empty((1, n)), np.empty((1, n))
                end = _orbit.orbit(lib, cfg.d, _radial_params(spec.q_int, cfg),
                                   start, n, xi, eta)
                return xi.tobytes(), eta.tobytes(), end

            def scores(spec=spec, x=x):
                return _orbit.bounded_scores(lib, spec, x, _edf_steps(n),
                                             direct_kernels)

            calls += [orbit, scores]
        serial = [call() for call in calls]
        barrier = threading.Barrier(2)
        results = [None, None]

        def run(i, order):
            barrier.wait()
            results[i] = [[calls[j]() for j in order] for _ in range(20)]

        order = list(range(len(calls)))
        threads = [threading.Thread(target=run, args=(0, order)),
                   threading.Thread(target=run, args=(1, order[::-1]))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(r == serial for r in results[0])
        assert all(r == serial[::-1] for r in results[1])


class TestSensitivityOrdering:
    def test_ad_reacts_to_tail_surplus_before_ks(self):
        """Heavy-tail contamination of a Gaussian shows up in the weighted
        statistic first; the unweighted one barely moves."""
        rng = np.random.default_rng(909)
        base = np.sort(rng.normal(size=2000))
        contaminated = base.copy()
        contaminated[-4:] = [15.0, 18.0, 22.0, 30.0]  # far-tail surplus
        contaminated = np.sort(contaminated)

        from qgauss.distribution import cdf_array
        ks_clean = sup_weighted_statistic(base, lambda a: cdf_array(1.0, a))
        ks_dirty = sup_weighted_statistic(contaminated,
                                          lambda a: cdf_array(1.0, a))
        ad_clean = sup_weighted_statistic(base, lambda a: cdf_array(1.0, a),
                                          kind="ad")
        ad_dirty = sup_weighted_statistic(contaminated,
                                          lambda a: cdf_array(1.0, a),
                                          kind="ad")
        assert (ad_dirty / ad_clean) > (ks_dirty / ks_clean)
        # with the weight clamped at sqrt(2M), four surplus points contribute
        # about sqrt(M) * (4/M) * sqrt(2M) = 4*sqrt(2) to the weighted sup
        assert ad_dirty > 1.5 * ad_clean
        assert ad_dirty == pytest.approx(4.0 * math.sqrt(2.0), rel=0.05)
