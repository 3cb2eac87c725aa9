"""Closed-form density family against independent routes.

Second routes used here: scipy.stats.t (the 1 < q < 3 family is exactly a
unit-scale Student-t with nu = (3-q)/(q-1)), scipy quadrature, and the
incomplete beta and erfc in mpmath at 50 digits.
"""

import math
import sys
import warnings

import mpmath
import numpy as np
import pytest
import scipy.integrate as si
import scipy.stats as spstats
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qgauss.distribution import (
    ccdf,
    cdf,
    cdf_array,
    cdf_array_direct,
    joint_pdf,
    make_spec,
    pdf,
    quantile,
    support,
    variance,
)

Q_GRID = [-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 1.3, 1.6, 2.0, 2.5, 2.9]

# |x| for the unbounded members, out to where only a tail-exact cdf keeps mass
HEAVY_X = [0.0, 0.3, 1.0, 2.5, 7.0, 40.0, 1e4, 1e8, 1e15, 1e30, 1e100]

# One q' per branch of both cdf arrangements: the compact members, the two
# sides of the Gaussian band |q' - 1| < 1e-12, the heavy-tailed members and
# q' = 2.99.
BRANCH_Q = [-1.0, 0.5, 1.0 - 5e-13, 1.0, 1.0 + 5e-13, 1.5, 2.9, 2.99]

# Any double, nan and +-inf included, with weight on |x| from 1e154, where
# k*x*x starts to overflow, to the largest double.
ANY_X = st.one_of(st.floats(), st.floats(1e154, 1.7e308),
                  st.floats(-1.7e308, -1e154))


def _mp_upper(q_out, x):
    """P(X > x) for x >= 0, as the tail integral itself in mpmath (dps 50)."""
    with mpmath.workdps(50):
        q = mpmath.mpf(q_out)
        x = mpmath.mpf(x)
        if q_out == 1.0:
            return 0.5 * mpmath.erfc(x / mpmath.sqrt(2))
        if q_out < 1.0:
            t = 1 - (1 - q) / (3 - q) * x * x
            if t <= 0:
                return mpmath.mpf(0)
            return 0.5 * mpmath.betainc((2 - q) / (1 - q), 0.5, 0, t,
                                        regularized=True)
        w = 1 / (1 + (q - 1) / (3 - q) * x * x)
        return 0.5 * mpmath.betainc(1 / (q - 1) - 0.5, 0.5, 0, w,
                                    regularized=True)


def _mp_cdf(q_out, x):
    with mpmath.workdps(50):
        if x >= 0.0:
            return 1 - _mp_upper(q_out, x)
        return _mp_upper(q_out, -x)


class TestPdf:
    def test_frozen_centers(self):
        assert pdf(1.0, 0.0) == pytest.approx(0.39894228040143268, abs=1e-15)
        assert pdf(2.0, 0.0) == pytest.approx(0.31830988618379067, abs=1e-15)
        assert pdf(-1.0, 0.0) == pytest.approx(0.45015815807855303, abs=1e-15)

    def test_cauchy_shape(self):
        for x in (0.3, 1.0, 4.0):
            assert pdf(2.0, x) == pytest.approx(1.0 / (math.pi * (1 + x * x)),
                                                rel=1e-14)

    @pytest.mark.parametrize("q_out", [1.2, 1.5, 2.0, 2.4, 2.8])
    def test_student_t_identity(self, q_out):
        nu = (3.0 - q_out) / (q_out - 1.0)
        xs = np.array([-7.0, -1.1, 0.0, 0.4, 2.5, 30.0])
        ours = np.array([pdf(q_out, float(x)) for x in xs])
        ref = spstats.t.pdf(xs, df=nu)
        np.testing.assert_allclose(ours, ref, rtol=1e-13)

    def test_zero_outside_compact_support(self):
        lo, hi = support(0.5)
        assert pdf(0.5, hi + 1e-9) == 0.0
        assert pdf(0.5, lo - 1e-9) == 0.0

    def test_symmetry(self):
        for q in Q_GRID:
            for x in (0.2, 0.9):
                assert pdf(q, x) == pdf(q, -x)

    def test_rejects_q_out_of_range(self):
        with pytest.raises(ValueError):
            pdf(3.0, 0.0)


class TestCdf:
    def test_half_at_origin(self):
        for q in Q_GRID:
            assert cdf(q, 0.0) == pytest.approx(0.5, abs=1e-15)

    def test_frozen_values(self):
        assert cdf(2.0, 1.0) == pytest.approx(0.75, abs=1e-14)
        assert cdf(-1.0, math.sqrt(2.0)) == 1.0
        # Wigner semicircle at x = 1/2
        assert cdf(-1.0, 0.5) == pytest.approx(0.72029782791825604, abs=1e-14)

    def test_gaussian_quantile_anchor(self):
        assert quantile(1.0, 0.975) == pytest.approx(1.9599639845400542,
                                                     abs=1e-10)

    @pytest.mark.parametrize("q_out", [1.3, 1.7, 2.0, 2.6])
    def test_student_t_identity(self, q_out):
        nu = (3.0 - q_out) / (q_out - 1.0)
        xs = np.array([-20.0, -2.0, -0.3, 0.0, 1.4, 8.0, 300.0])
        ours = np.array([cdf(q_out, float(x)) for x in xs])
        np.testing.assert_allclose(ours, spstats.t.cdf(xs, df=nu), atol=1e-14)

    def test_complement_identity(self):
        for q in Q_GRID:
            for x in (-1.3, 0.0, 0.4, 2.2):
                assert cdf(q, x) + cdf(q, -x) == pytest.approx(1.0, abs=1e-12)
                assert cdf(q, x) + ccdf(q, x) == pytest.approx(1.0, abs=1e-12)

    def test_matches_pdf_by_finite_difference(self):
        # h balances truncation (h^2) against the cdf noise floor (~1e-10/h)
        h = 5e-4
        for q in (-0.5, 1.0, 2.2):
            for x in np.linspace(-1.2, 1.2, 13):
                fd = (cdf(q, x + h) - cdf(q, x - h)) / (2 * h)
                assert fd == pytest.approx(pdf(q, x), rel=1e-6, abs=1e-6)

    def test_monotone(self):
        xs = np.linspace(-6, 6, 121)
        for q in (0.3, 1.0, 2.5):
            vals = [cdf(q, float(x)) for x in xs]
            assert all(b >= a for a, b in zip(vals, vals[1:]))


class TestCcdfTail:
    def test_cancellation_free_depth(self):
        # at q'=2 (Cauchy) the exact tail is arctan-based; check far out
        for x in (1e4, 1e8, 1e12):
            exact = math.atan2(1.0, x) / math.pi
            assert ccdf(2.0, x) == pytest.approx(exact, rel=1e-12)

    def test_power_law_exponent(self):
        q_out = 1.6
        nu = (3.0 - q_out) / (q_out - 1.0)
        xs = np.array([10.0, 30.0, 100.0, 1000.0])
        tail = np.array([ccdf(q_out, float(x)) for x in xs])
        slope = np.polyfit(np.log(xs), np.log(tail), 1)[0]
        assert -slope == pytest.approx(nu, rel=0.02)


class TestQuadratureAgreement:
    @pytest.mark.parametrize("q_out", [-1.0, 0.5, 1.6])
    def test_normalization(self, q_out):
        lo, hi = support(q_out)
        if math.isinf(hi):
            # map the tails through x = tan(t) to keep quad honest
            val, err = si.quad(
                lambda t: pdf(q_out, math.tan(t)) / math.cos(t) ** 2,
                -math.pi / 2 + 1e-12, math.pi / 2 - 1e-12, limit=200)
        else:
            val, err = si.quad(lambda x: pdf(q_out, x), lo, hi, limit=200)
        assert val == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("q_out", [-1.0, 0.0, 1.4])
    def test_variance_against_quadrature(self, q_out):
        lo, hi = support(q_out)
        if math.isinf(hi):
            val, _ = si.quad(
                lambda t: math.tan(t) ** 2 * pdf(q_out, math.tan(t))
                / math.cos(t) ** 2,
                -math.pi / 2 + 1e-12, math.pi / 2 - 1e-12, limit=400)
        else:
            val, _ = si.quad(lambda x: x * x * pdf(q_out, x), lo, hi, limit=200)
        assert variance(q_out) == pytest.approx(val, abs=1e-8)


class TestVariance:
    def test_frozen_values(self):
        assert variance(-1.0) == pytest.approx(0.5, rel=1e-14)
        assert variance(0.0) == pytest.approx(0.6, rel=1e-14)
        assert variance(1.0) == pytest.approx(1.0, rel=1e-14)
        assert variance(1.4) == pytest.approx(2.0, rel=1e-13)

    def test_divergent_regime_refused(self):
        for q in (5.0 / 3.0, 2.0, 2.9):
            with pytest.raises(ValueError):
                variance(q)


ROUND_TRIP_P = (1e-9, 1e-6, 1e-3, 0.05, 0.31, 0.5, 0.77, 0.999,
                1.0 - 1e-6, 1.0 - 1e-9)


class TestQuantile:
    def test_anchors(self):
        assert quantile(2.0, 0.75) == pytest.approx(1.0, abs=1e-10)
        for q in (-1.0, 0.5, 1.0, 2.5):
            assert quantile(q, 0.5) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("q_out", [-1.0, 0.2, 1.0, 1.8, 2.7, 2.9])
    def test_round_trip(self, q_out):
        for p in ROUND_TRIP_P:
            x = quantile(q_out, p)
            assert cdf(q_out, x) == pytest.approx(p, abs=1e-12), p

    @pytest.mark.parametrize("q_out", [1.5, 2.95, 2.99])
    def test_deep_tail_round_trip(self, q_out):
        """The tail mass beyond the quantile is min(p, 1-p) to 1e-12
        relative, down to p = 1e-299; the result is infinite exactly where
        mpmath puts the quantile past the largest double."""
        beyond = _mp_upper(q_out, sys.float_info.max)
        lower = (0.3, 0.05, 1e-3, 1e-6, 1e-12, 1e-30, 1e-100, 1e-200, 1e-299)
        upper = (1.0 - 0.05, 1.0 - 1e-6, 1.0 - 1e-12)
        for p in lower + upper:
            x = quantile(q_out, p)
            tail = min(p, 1.0 - p)
            if beyond > tail:
                assert x == math.copysign(math.inf, p - 0.5), p
                continue
            assert math.isfinite(x), p
            got = cdf(q_out, x) if p < 0.5 else ccdf(q_out, x)
            assert got == pytest.approx(tail, rel=1e-12, abs=0.0), p

    def test_compact_support_respected(self):
        lo, hi = support(0.0)
        assert lo <= quantile(0.0, 1e-9) <= hi
        assert lo <= quantile(0.0, 1.0 - 1e-9) <= hi

    def test_rejects_boundary_p(self):
        with pytest.raises(ValueError):
            quantile(1.0, 0.0)
        with pytest.raises(ValueError):
            quantile(1.0, 1.0)


class TestMakeSpec:
    """make_spec, support and variance give the static facts of a member."""

    def test_fields_compact(self):
        s = make_spec(-1.0)
        assert s.q_out == -1.0
        assert s.q_int == 0.0
        assert support(-1.0)[1] == pytest.approx(math.sqrt(2.0))
        assert s.half_width == support(-1.0)[1]
        assert s.nu is None
        assert variance(-1.0) == pytest.approx(0.5)

    def test_fields_heavy(self):
        s = make_spec(2.0)
        assert math.isinf(support(2.0)[1])
        assert s.nu == pytest.approx(1.0)
        with pytest.raises(ValueError):
            variance(2.0)

    def test_mapping_examples(self):
        assert make_spec(1.0).q_int == 1.0
        assert make_spec(-1.0).q_int == 0.0
        assert make_spec(1.5).nu == pytest.approx(3.0)
        assert make_spec(2.0).nu == pytest.approx(1.0)

    def test_nu_undefined_at_gaussian_point(self):
        assert make_spec(1.0).nu is None

    def test_rejects_q_at_or_above_three(self):
        with pytest.raises(ValueError):
            make_spec(3.0)
        with pytest.raises(ValueError):
            make_spec(math.inf)
        with pytest.raises(ValueError):  # a bool is no q'
            make_spec(True)


class TestJointPdf:
    def test_radial_symmetry(self):
        assert joint_pdf(1.5, 0.3, 0.4) == pytest.approx(
            joint_pdf(1.5, 0.5, 0.0), rel=1e-12)

    def test_gaussian_case_factorizes(self):
        val = joint_pdf(1.0, 0.7, -0.2)
        want = pdf(1.0, 0.7) * pdf(1.0, -0.2)
        assert val == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("q_out", [-0.4, 0.6, 1.6])
    def test_marginal_matches_pdf(self, q_out):
        """Integrating out eta recovers the one-dimensional density."""
        for xi in (0.0, 0.35, 0.8):
            if q_out < 1.0:
                edge = math.sqrt((3.0 - q_out) / (1.0 - q_out))
                val, _ = si.quad(lambda e: joint_pdf(q_out, xi, e),
                                 -edge, edge, limit=200)
            else:
                val, _ = si.quad(
                    lambda t: joint_pdf(q_out, xi, math.tan(t))
                    / math.cos(t) ** 2,
                    -math.pi / 2 + 1e-12, math.pi / 2 - 1e-12, limit=200)
            assert val == pytest.approx(pdf(q_out, xi), abs=1e-6)


class TestCdfArray:
    @pytest.mark.parametrize("q_out", Q_GRID)
    def test_matches_mpmath_everywhere(self, q_out):
        if q_out < 1.0:
            hi = support(q_out)[1]
            ax = [f * hi for f in (0.0, 0.05, 0.3, 0.6, 0.9, 0.999, 1.0, 1.2)]
            ax.append(1e200)
        else:
            ax = HEAVY_X
        xs = np.array([s * a for a in ax for s in (1.0, -1.0)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vec = cdf_array(q_out, xs)
        for x, got in zip(xs, vec):
            want = float(_mp_cdf(q_out, float(x)))
            assert abs(got - want) <= 1e-15, (x, got, want)
            assert cdf(q_out, float(x)) == got

    @pytest.mark.parametrize("q_out", [q for q in Q_GRID if q > 1.0])
    def test_ccdf_tail_relative_to_mpmath(self, q_out):
        for x in HEAVY_X:
            got = ccdf(q_out, x)
            want = float(_mp_upper(q_out, x))
            assert got == pytest.approx(want, rel=1e-12, abs=0.0), x

    @pytest.mark.parametrize("q_out", [2.0, 2.5, 2.9, 2.99])
    def test_ccdf_keeps_mass_where_k_x_x_overflows(self, q_out):
        """Past |x| ~ 1e150 the tail is the series' leading term; near the
        largest double it must neither vanish nor warn."""
        xs = [1e140, 3e149, 1e154, 1e200, 1e300, 1.7e308]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = [ccdf(q_out, x) for x in xs]
            lower = cdf_array(q_out, -np.array(xs))
        for x, g, lo in zip(xs, got, lower):
            want = float(_mp_upper(q_out, x))
            assert want > 0.0
            assert g == pytest.approx(want, rel=1e-12, abs=0.0), x
            assert lo == g

    def test_deep_tail_not_saturated(self):
        # a value whose true upper tail is ~1.2e-5; the complement
        # arrangement must keep it
        F = float(cdf_array(2.3, np.array([1.58518e8]))[0])
        assert 0.0 < 1.0 - F < 2e-5

    def test_direct_arrangement_agrees_centrally(self):
        rng = np.random.default_rng(3)
        for q in Q_GRID:
            if q < 1.0:
                hi = support(q)[1]
                xs = rng.uniform(-hi, hi, 200) * 0.999
            else:
                xs = rng.standard_cauchy(200)
            a = cdf_array(q, xs)
            b = cdf_array_direct(q, xs)
            np.testing.assert_allclose(a, b, atol=5e-14)

    @pytest.mark.parametrize("q_out", BRANCH_Q)
    @given(xs=st.lists(ANY_X, min_size=1, max_size=8))
    @example(xs=[math.nan, math.inf, -math.inf, 1e154, -1e200, 1.7e308])
    @settings(max_examples=60, deadline=None)
    def test_both_arrangements_are_total(self, q_out, xs):
        """nan exactly where x is nan, else a value in [0, 1], with +inf at
        1 and -inf at 0, in either arrangement and without a warning."""
        x = np.array(xs)
        nan = np.isnan(x)
        for cdf_fn in (cdf_array, cdf_array_direct):
            F = cdf_fn(q_out, x)
            assert np.array_equal(np.isnan(F), nan), (cdf_fn.__name__, x, F)
            assert np.all((F[~nan] >= 0.0) & (F[~nan] <= 1.0)), (cdf_fn.__name__, x, F)
            assert np.all(F[x == math.inf] == 1.0) and np.all(F[x == -math.inf] == 0.0)

    @pytest.mark.parametrize("q_out", BRANCH_Q)
    def test_scalar_nan_gives_nan(self, q_out):
        assert math.isnan(cdf(q_out, math.nan))
        assert math.isnan(ccdf(q_out, math.nan))

    def test_direct_arrangement_saturates_by_design(self):
        """The protocol arrangement rounds to exactly 1.0 deep in the tail."""
        x = np.array([1.58518e8])
        assert float(cdf_array_direct(2.3, x)[0]) == 1.0
        assert float(cdf_array(2.3, x)[0]) < 1.0
