"""Special-function layer: q-deformed exp/log and the beta family.

The q_exp/q_ln expression shapes are load-bearing for generator conformance
(see test_generator.py), so these tests pin values as well as identities.
"""

import math

import numpy as np
import pytest
import scipy.special as sc
from hypothesis import given, settings
from hypothesis import strategies as st

from qgauss.specfun import beta, log_gamma, q_exp, q_ln


class TestQExp:
    def test_q_one_is_exp(self):
        for w in (-3.0, -1.0, -0.25, 0.0):
            assert q_exp(1.0, w) == pytest.approx(math.exp(w), rel=1e-15)

    def test_near_one_uses_gaussian_branch(self):
        # within the 1e-12 window the limit form is used
        assert q_exp(1.0 + 1e-13, -0.5) == pytest.approx(math.exp(-0.5), rel=1e-12)

    def test_cutoff_returns_zero(self):
        # for q < 1 the deformed exponential has a hard cutoff
        assert q_exp(0.5, -2.0) == 0.0
        assert q_exp(0.0, -1.0) == 0.0

    def test_value_at_zero(self):
        for q in (-1.0, 0.0, 0.5, 1.0, 1.8, 2.5):
            assert q_exp(q, 0.0) == 1.0

    @pytest.mark.parametrize("q", [-0.5, 0.3, 0.9, 1.5, 2.2])
    @given(w=st.floats(-0.45, 0.0))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_with_q_ln(self, q, w):
        u = q_exp(q, w)
        if u <= 0.0:
            return
        assert q_ln(q, u) == pytest.approx(w, abs=1e-12)

    def test_monotone_in_w(self):
        q = 1.8
        ws = np.linspace(-4.0, 0.0, 200)
        vals = [q_exp(q, w) for w in ws]
        assert all(a < b for a, b in zip(vals, vals[1:]))


class TestQLn:
    def test_q_one_is_log(self):
        for u in (0.1, 0.5, 1.0):
            assert q_ln(1.0, u) == pytest.approx(math.log(u), abs=1e-15)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            q_ln(0.5, 0.0)
        with pytest.raises(ValueError):
            q_ln(1.5, -1.0)
        with pytest.raises(ValueError):
            q_ln(0.5, math.nan)

    def test_frozen_z_map_constants(self):
        # sqrt(-2 ln_q(u)) at q=1 for u = 1/2 and u = 1/4; frozen from the
        # oracle environment, these feed the conformance chain
        assert math.sqrt(-2.0 * q_ln(1.0, 0.5)) == pytest.approx(
            1.177410022515474691, abs=1e-15)
        assert math.sqrt(-2.0 * q_ln(1.0, 0.25)) == pytest.approx(
            1.6651092223153955, abs=1e-15)

    def test_one_maps_to_zero(self):
        for q in (-1.0, 0.2, 1.0, 1.9, 2.6):
            assert q_ln(q, 1.0) == 0.0


class TestLogGamma:
    def test_matches_math_lgamma(self):
        for a in (0.5, 1.0, 2.0, 7.5, 41.0):
            assert log_gamma(a) == math.lgamma(a)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            log_gamma(0.0)
        with pytest.raises(ValueError):
            log_gamma(-1.5)


class TestBeta:
    def test_frozen_small_integer_case(self):
        assert beta(2.0, 3.0) == pytest.approx(1.0 / 12.0, rel=1e-14)

    def test_symmetry(self):
        assert beta(0.4, 1.7) == pytest.approx(beta(1.7, 0.4), rel=1e-14)

    def test_half_half_is_pi(self):
        assert beta(0.5, 0.5) == pytest.approx(math.pi, rel=1e-14)

    def test_matches_scipy(self):
        for a, b in ((0.05, 0.5), (0.5, 7.0), (3.3, 2.1), (19.0, 0.5)):
            assert beta(a, b) == pytest.approx(float(sc.beta(a, b)), rel=1e-13)
