"""Chaotic generator, GBMM reference generator, and the uniform stream.

The conformance tests compare against tests/oracle_reference.py, a dead
literal transliteration of the published C program. Chaotic amplification
is ~8x per step, so 100-step agreement at 1e-12 pins every expression shape
in the hot path.
"""

import math

import numpy as np
import pytest
import scipy.stats as spstats

from oracle_reference import reference_sequence
from qgauss.distribution import support
from qgauss.generator import (
    UniformStream,
    derive_seed,
    gbmm_generate,
    gbmm_sample,
    generate,
    init,
    make_spec,
    step,
)
from qgauss.maps import MapConfig, z_map

REF_CFG = MapConfig()  # d=8, l=2, c=1: the only configuration the C code has


class TestMakeSpec:
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


class TestOracleConformance:
    @pytest.mark.parametrize("q_out", [1.0, 0.5, 2.0, -0.5, 2.9])
    def test_first_100_outputs_match(self, q_out):
        ref = reference_sequence(q_out, 0.1, 1.0, 100)
        state = init(make_spec(q_out), REF_CFG, v0=0.1, z0=1.0, w0_sign=1)
        batch = generate(state, 100)
        for i, (rxi, reta) in enumerate(ref):
            assert batch.xi[i] == pytest.approx(rxi, abs=1e-12), f"xi[{i}]"
            assert batch.eta[i] == pytest.approx(reta, abs=1e-12), f"eta[{i}]"

    def test_exact_bit_agreement_at_reference_config(self):
        """Stronger than the criterion: the shapes are transliterated, so
        the first 100 outputs are bit-identical, not merely close."""
        ref = reference_sequence(1.0, 0.1, 1.0, 100)
        state = init(make_spec(1.0), REF_CFG, v0=0.1, z0=1.0, w0_sign=1)
        batch = generate(state, 100)
        for i, (rxi, reta) in enumerate(ref):
            assert batch.xi[i] == rxi
            assert batch.eta[i] == reta


class TestStateAndStep:
    def test_step_generate_parity(self):
        a = init(make_spec(1.5), REF_CFG, v0=0.3, z0=0.8, w0_sign=-1)
        b = init(make_spec(1.5), REF_CFG, v0=0.3, z0=0.8, w0_sign=-1)
        batch = generate(a, 50)
        singles = [step(b) for _ in range(50)]
        for i, (xi, eta) in enumerate(singles):
            assert batch.xi[i] == xi
            assert batch.eta[i] == eta
        assert a.steps == b.steps == 50

    def test_runs_are_reproducible(self):
        s1 = init(make_spec(2.3), REF_CFG, v0=0.17, z0=1.3, w0_sign=1)
        s2 = init(make_spec(2.3), REF_CFG, v0=0.17, z0=1.3, w0_sign=1)
        b1, b2 = generate(s1, 2000), generate(s2, 2000)
        assert np.array_equal(b1.xi, b2.xi)
        assert np.array_equal(b1.eta, b2.eta)

    def test_output_identity_xi2_plus_eta2(self):
        state = init(make_spec(0.5), REF_CFG, v0=0.4, z0=1.1, w0_sign=1)
        for _ in range(200):
            xi, eta = step(state)
            z2 = state.z * state.z
            assert (xi * xi + eta * eta) == pytest.approx(z2, rel=1e-9)

    def test_circle_invariant_long_run(self):
        state = init(make_spec(1.0), REF_CFG, v0=0.1, z0=1.0, w0_sign=1)
        generate(state, 10 ** 6)
        assert abs(state.w ** 2 + state.v ** 2 - 1.0) <= 1e-9

    def test_compact_support_bound(self):
        q_out = 0.2
        hi = support(q_out)[1]
        state = init(make_spec(q_out), REF_CFG, v0=0.23, z0=0.9, w0_sign=1)
        batch = generate(state, 20000)
        assert float(np.max(np.abs(batch.xi))) <= hi + 1e-9

    def test_init_validation(self):
        spec = make_spec(1.0)
        with pytest.raises(ValueError):
            init(spec, REF_CFG, v0=0.0, z0=1.0, w0_sign=1)
        with pytest.raises(ValueError):
            init(spec, REF_CFG, v0=1.0, z0=1.0, w0_sign=1)
        with pytest.raises(ValueError):
            init(spec, REF_CFG, v0=0.1, z0=0.0, w0_sign=1)
        with pytest.raises(ValueError):
            init(spec, REF_CFG, v0=0.1, z0=1.0, w0_sign=2)
        # z0 beyond the compact support edge, and on it: the radial map
        # sends the edge to itself, so an orbit started there never moves
        compact = make_spec(0.5)
        z_edge = math.sqrt(2.0 / (1.0 - compact.q_int))
        for z0 in (5.0, z_edge):
            with pytest.raises(ValueError):
                init(compact, REF_CFG, v0=0.1, z0=z0, w0_sign=1)

    def test_w0_from_v0(self):
        state = init(make_spec(1.0), REF_CFG, v0=1.0 / math.sqrt(2.0),
                     z0=1.0, w0_sign=-1)
        assert state.w == pytest.approx(-1.0 / math.sqrt(2.0), abs=1e-15)
        assert state.w ** 2 + state.v ** 2 == pytest.approx(1.0, abs=1e-15)

    def test_batch_metadata(self):
        state = init(make_spec(1.5), REF_CFG, v0=0.2, z0=0.7, w0_sign=1)
        batch = generate(state, 10)
        meta = batch.metadata()
        assert meta["q_out"] == 1.5
        assert meta["d"] == 8
        assert meta["count"] == 10
        assert meta["method"] == "chaotic"


class TestRadialBits:
    """generate/step and z_map step the radius through one loop; these
    hold them to the same bits, including just below q_int = 1, where the
    Gaussian branch of q_ln and q_exp takes over."""

    @pytest.mark.parametrize("q_out", [-1.0, 0.5, 1.0 - 5e-13, 1.0,
                                       1.0 + 5e-13, 1.5, 2.9])
    @pytest.mark.parametrize("d,l,c", [(8, 2, 1), (6, 2, 6), (8, 3, 1)])
    def test_state_z_matches_z_map(self, q_out, d, l, c):
        spec = make_spec(q_out)
        cfg = MapConfig(d=d, l=l, c=c)
        stepped = init(spec, cfg, v0=0.1, z0=0.9)
        z = 0.9
        pairs = []
        for i in range(2000):
            pairs.append(step(stepped))
            z = z_map(spec.q_int, cfg, z)
            assert stepped.z == z, i
        batch = generate(init(spec, cfg, v0=0.1, z0=0.9), 2000)
        assert list(zip(batch.xi, batch.eta)) == pairs

    @pytest.mark.parametrize("q_out", [0.5, 1.5])
    def test_generate_is_split_invariant(self, q_out):
        """Calls of any size, across radial blocks, give the orbit step()
        gives one pair at a time."""
        states = [init(make_spec(q_out), MapConfig(c=3), v0=0.3, z0=0.6)
                  for _ in range(3)]
        singles = [step(states[0]) for _ in range(9000)]
        whole = generate(states[1], 9000)
        pieces = [generate(states[2], n) for n in (1, 4095, 0, 4097, 807)]
        assert list(zip(whole.xi, whole.eta)) == singles
        xi = np.concatenate([b.xi for b in pieces])
        eta = np.concatenate([b.eta for b in pieces])
        assert list(zip(xi, eta)) == singles
        assert len({(s.w, s.v, s.z, s.steps) for s in states}) == 1


class TestGbmm:
    def test_reduces_to_box_muller_at_q_one(self):
        spec = make_spec(1.0)
        for u1, u2 in ((0.25, 0.1), (0.9, 0.6), (1e-6, 0.99)):
            x, y = gbmm_sample(spec, u1, u2)
            r = math.sqrt(-2.0 * math.log(u1))
            assert x == pytest.approx(r * math.cos(2 * math.pi * u2), rel=1e-14)
            assert y == pytest.approx(r * math.sin(2 * math.pi * u2), rel=1e-14)

    def test_quarter_turn(self):
        spec = make_spec(0.5)
        x, y = gbmm_sample(spec, 0.5, 0.25)
        assert abs(x) < 1e-12
        assert y > 0.0

    def test_u_near_one_vanishes(self):
        x, y = gbmm_sample(make_spec(1.7), 1.0 - 1e-12, 0.3)
        assert math.hypot(x, y) < 1e-5

    def test_domain_errors(self):
        spec = make_spec(1.2)
        for u1, u2 in ((0.0, 0.5), (1.0, 0.5), (0.5, 0.0), (0.5, 1.0)):
            with pytest.raises(ValueError):
                gbmm_sample(spec, u1, u2)

    def test_generate_deterministic(self):
        spec = make_spec(1.6)
        b1 = gbmm_generate(spec, UniformStream(99), 500)
        b2 = gbmm_generate(spec, UniformStream(99), 500)
        assert np.array_equal(b1.xi, b2.xi)

    def test_compact_sample_respects_support(self):
        q_out = -0.9
        hi = support(q_out)[1]
        batch = gbmm_generate(make_spec(q_out), UniformStream(7), 20000)
        assert float(np.max(np.abs(batch.xi))) <= hi + 1e-9


class TestUniformStream:
    def test_determinism(self):
        a = UniformStream(123).take(1000)
        b = UniformStream(123).take(1000)
        assert np.array_equal(a, b)

    def test_take_matches_next_float(self):
        s1, s2 = UniformStream(5), UniformStream(5)
        arr = s1.take(64)
        singles = [s2.next_float() for _ in range(64)]
        assert list(arr) == singles

    def test_open_interval(self):
        u = UniformStream(0).take(10 ** 5)
        assert float(np.min(u)) > 0.0
        assert float(np.max(u)) < 1.0

    def test_uniformity(self):
        u = UniformStream(2026).take(10 ** 5)
        p = spstats.kstest(u, "uniform").pvalue
        assert p > 0.01

    def test_distinct_seeds_differ(self):
        assert not np.array_equal(UniformStream(1).take(16),
                                  UniformStream(2).take(16))

    def test_derive_seed_spreads(self):
        seeds = {derive_seed(42, i, j) for i in range(8) for j in range(8)}
        assert len(seeds) == 64
