"""Chaotic generator, GBMM reference generator, and the uniform stream.

The conformance tests compare against tests/oracle_reference.py, a dead
literal transliteration of the published C program. Chaotic amplification
is ~8x per step, so 100-step agreement at 1e-12 pins every expression shape
in the hot path.
"""

import functools
import hashlib
import math
import multiprocessing
import os
import re
import shutil
import subprocess
import sys
import textwrap
import types
from itertools import accumulate, islice
from pathlib import Path

import numpy as np
import pytest
import scipy.stats as spstats
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qgauss
from oracle_reference import reference_sequence
from qgauss import _orbit, maps
from qgauss.distribution import support
from qgauss.generator import (
    _MASK64,
    _SM_GAMMA,
    _SM_MIX1,
    _SM_MIX2,
    GeneratorState,
    UniformStream,
    _mix64,
    _run,
    _run_python,
    derive_seed,
    gbmm_generate,
    gbmm_sample,
    generate,
    init,
    make_spec,
    step,
)
from qgauss.maps import (
    CirclePoint,
    MapConfig,
    _radial_params,
    _radial_steps,
    _RadialParams,
    _z_edge,
    chebyshev_pair,
    z_map,
)
from qgauss.stats import _both_statistics_numpy, _edf_steps, lyapunov

REF_CFG = MapConfig()  # d=8, l=2, c=1: the only configuration the C code has


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
            init(spec, REF_CFG, v0=0.1, z0=True, w0_sign=1)
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
        assert meta["kernel"] == ("python" if _orbit.kernel() is None else "c")


@functools.lru_cache(maxsize=None)
def _circle_orbit(d, start, n):
    """n iterates of chebyshev_pair from the circle point start, and how
    many of the n steps renormalized: those whose pair differs from the
    step with the renormalization switched off."""
    points = list(accumulate(range(n), lambda p, _: chebyshev_pair(d, p),
                             initial=CirclePoint(*start)))
    with pytest.MonkeyPatch.context() as m:
        m.setattr(maps, "_RADIUS_TOL", math.inf)
        renormalized = sum(nxt != maps._circle_step(d, *p)
                           for p, nxt in zip(points, points[1:]))
    return points[1:], renormalized


class TestRadialBits:
    """generate/step, chebyshev_pair and z_map step the orbit through one
    loop; these hold them to the same bits, including just below
    q_int = 1, where the Gaussian branch of q_ln and q_exp takes over."""

    @pytest.mark.parametrize("q_out", [-1.0, 0.5, 1.0 - 5e-13, 1.0,
                                       1.0 + 5e-13, 1.5, 2.9])
    @pytest.mark.parametrize("d,l,c", [(8, 2, 1), (6, 2, 6), (8, 3, 1), (2, 2, 1)])
    def test_state_z_matches_z_map(self, q_out, d, l, c):
        """state.z is iterated z_map and (state.w, state.v) iterated
        chebyshev_pair, bit for bit, over a run long enough that the
        circle step renormalizes at least once (first at step 3480 for
        d = 2 from v0 = 0.1)."""
        n = 4000
        spec = make_spec(q_out)
        cfg = MapConfig(d=d, l=l, c=c)
        stepped = init(spec, cfg, v0=0.1, z0=0.9)
        circle, renormalized = _circle_orbit(d, (stepped.w, stepped.v), n)
        assert renormalized >= 1
        z = 0.9
        pairs = []
        for i in range(n):
            pairs.append(step(stepped))
            z = z_map(spec.q_int, cfg, z)
            assert (stepped.w, stepped.v, stepped.z) == (*circle[i], z), i
        batch = generate(init(spec, cfg, v0=0.1, z0=0.9), n)
        assert list(zip(batch.xi, batch.eta)) == pairs

    @pytest.mark.parametrize("q_out", [0.5, 1.5])
    def test_generate_is_split_invariant(self, q_out):
        """Calls of any size, including empty ones, give the orbit step()
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


ORBIT_Q = [-1.0, 0.0, 0.5, 1.0 - 5e-13, 1.0, 1.0 + 5e-13, 1.5, 2.5, 2.9, 2.99]
SPLIT = (1, 4095, 0, 4097)


def _run_alone(state, n, xi, eta):
    """_run on one state, as generate and step call it."""
    _run([state], n, xi[None], eta[None])


def _split_run(run, q_out, cfg):
    """xi and eta bytes, and the end (w, v, z, steps), of `run` called on
    the SPLIT sizes from one start."""
    state = init(make_spec(q_out), cfg, v0=0.1, z0=0.9)
    chunks = []
    for n in SPLIT:
        xi, eta = np.empty(n), np.empty(n)
        run(state, n, xi, eta)
        chunks += [xi.tobytes(), eta.tobytes()]
    return b"".join(chunks), (state.w, state.v, state.z, state.steps)


def _python_digest(q_out, cfg, n):
    xi, eta = np.empty(n), np.empty(n)
    _run_python(init(make_spec(q_out), cfg, v0=0.3, z0=0.6), n, xi, eta)
    return hashlib.sha256(xi.tobytes() + eta.tobytes()).hexdigest()


def _spawned_generate(queue):
    """Worker of the spawn stress test: one generate, digest and kernel out."""
    batch = generate(init(make_spec(1.5), MapConfig(d=6, c=6), v0=0.3, z0=0.6), 5000)
    digest = hashlib.sha256(batch.xi.tobytes() + batch.eta.tobytes()).hexdigest()
    queue.put((batch.kernel, digest))


def _fresh_python(code, cache_home, path):
    """Run code in a fresh interpreter with the given cache home and PATH."""
    env = dict(os.environ, XDG_CACHE_HOME=str(cache_home), PATH=str(path))
    src = str(Path(qgauss.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def _no_temp_files(directory):
    return not any(p.name.startswith(".orbit-") for p in directory.iterdir())


@pytest.mark.usefixtures("needs_kernel")
class TestCompiledOrbit:
    """_run runs the compiled orbit (_orbit.c) wherever it can be built;
    _run_python is its oracle, byte for byte."""

    @pytest.mark.parametrize("c", [1, 6])
    @pytest.mark.parametrize("l", [2, 3])
    @pytest.mark.parametrize("d", range(2, 9))
    def test_matches_python_loop(self, d, l, c):
        cfg = MapConfig(d=d, l=l, c=c)
        for q_out in ORBIT_Q:
            assert _split_run(_run_alone, q_out, cfg) == _split_run(_run_python, q_out, cfg), q_out

    @pytest.mark.parametrize("c", [1, 6])
    @pytest.mark.parametrize("l, epsilon", [(2 ** 62, 5e-6), (2 ** 63 - 1, 5e-6),
                                            (2 ** 63 - 1, 0.0)],
                             ids=["2**62", "2**63-1", "2**63-1-eps0"])
    def test_matches_python_loop_at_huge_fold_order(self, l, epsilon, c):
        """The largest fold orders: at epsilon = 0, l = 2**63-1 rounds the
        slope up to 2**63, so y = s*u reaches 2**63 at u = 1, past where an
        integer cast of trunc(y) overflows.
        Only the q' >= 1 members: below 1, every fold output of so large a
        slope is 0, so init rejects the start as absorbed."""
        cfg = MapConfig(l=l, c=c, epsilon=epsilon)
        for q_out in (q for q in ORBIT_Q if q >= 1.0):
            assert _split_run(_run_alone, q_out, cfg) == _split_run(_run_python, q_out, cfg), q_out

    def test_rejects_arrays_it_cannot_fill(self):
        state = init(make_spec(1.5), REF_CFG)
        good = np.empty(4)
        rows = np.empty((1, 4))
        for bad in (np.empty((1, 3)), np.empty((1, 4), np.float32),
                    np.empty((1, 8))[:, ::2], np.empty(4), np.empty((2, 2)),
                    np.empty((2, 4)), [[0.0] * 4]):
            with pytest.raises(ValueError):
                _run([state], 4, bad, rows)
            with pytest.raises(ValueError):
                _run([state], 4, rows, bad)
        other = init(make_spec(0.5), REF_CFG)
        with pytest.raises(ValueError, match="share"):
            _run([state, other], 4, np.empty((2, 4)), np.empty((2, 4)))
        for d, c in ((1, 1), (9, 1), (True, 1), (8, 0), (8, 2 ** 63)):
            radial = _radial_params(1.5, REF_CFG)._replace(c=c)
            with pytest.raises(ValueError):
                _orbit.orbit(_orbit.kernel(), d, radial,
                             [(1.0, 0.0, 1.0)], 4, rows, np.empty((1, 4)))
        fresh = init(make_spec(1.5), REF_CFG)
        assert (state.w, state.v, state.z, state.steps) == (
            fresh.w, fresh.v, fresh.z, 0)

        lib = _orbit.kernel()
        read_only = np.empty(4)
        read_only.setflags(write=False)
        for bad in (np.empty(3), np.empty(4, np.float32), np.empty(8)[::2],
                    np.empty((2, 2)), [0.0] * 4, read_only):
            with pytest.raises(ValueError):
                _orbit.take(lib, 1, 4, bad)
        for seed, n in ((-1, 4), (2 ** 64, 4), (1.0, 4), (1, -1), (1, 4.0), (1, 5)):
            with pytest.raises(ValueError):
                _orbit.take(lib, seed, n, good)

        rows, M = 3, 4
        F = np.sort(np.random.default_rng(0).random((rows, M)), axis=-1)
        F.setflags(write=False)  # the inputs may be read-only
        steps = _edf_steps(M)
        out = np.empty((2, rows))
        _orbit.scores(lib, F, steps, out)
        assert out.tobytes() == np.array(_both_statistics_numpy(F)).tobytes()
        out_read_only = np.empty((2, rows))
        out_read_only.setflags(write=False)
        bad_args = [
            (F.astype(np.float32), steps, out),
            (np.empty((rows, 2 * M))[:, ::2], steps, out),
            (F[0], steps, out),
            (F[None], steps, out),
            (F.tolist(), steps, out),
            (np.empty((rows, 0)), np.empty((2, 0)), out),  # M < 1
            (F, _edf_steps(M + 1), out),
            (F, steps[0], out),
            (F, steps.astype(np.float32), out),
            (F, np.empty((2, 2 * M))[:, ::2], out),
            (F, steps, np.empty((2, rows + 1))),
            (F, steps, np.empty((rows, 2))),
            (F, steps, np.empty(2 * rows)),
            (F, steps, np.empty((2, rows), np.float32)),
            (F, steps, np.empty((2, 2 * rows))[:, ::2]),
            (F, steps, out_read_only),
        ]
        for args in bad_args:
            with pytest.raises(ValueError):
                _orbit.scores(lib, *args)


LANES = _orbit.LANES
# Each lane's (v0, its z0 as a fraction of the start scale, w0_sign).
LANE_START = st.tuples(st.floats(0.05, 0.95), st.floats(0.01, 0.99), st.sampled_from([-1, 1]))
# Eight lanes and one more at q' = 0.9 (l = 2): the third starts at
# 0.99 z_edge, whose first fold output is 0, the support edge, where it
# stays; the others do not.
EDGE_GROUP = [(0.1 + 0.1 * j, 0.99 if j == 2 else 0.1 + 0.1 * j, (-1) ** j)
              for j in range(LANES + 1)]


def _lane_states(q_out, cfg, starts):
    """Unchecked states at starts: z0 is the fraction times the support
    edge below q_int = 1, and times 2 from q_int = 1 up."""
    spec = make_spec(q_out)
    scale = _z_edge(spec.q_int) if spec.q_int < 1.0 else 2.0
    return [GeneratorState(spec=spec, cfg=cfg, w=sign * math.sqrt(1.0 - v0 * v0),
                           v=v0, z=frac * scale)
            for v0, frac, sign in starts]


@pytest.mark.usefixtures("needs_kernel")
class TestLanes:
    """qgauss_orbit steps its orbits in lockstep lanes; every lane must
    get the bits of its orbit stepped alone."""

    @given(q_out=st.sampled_from([1.0, -1.0, 0.9, 1.5, 2.9]), d=st.integers(2, 8),
           l=st.sampled_from([2, 3, 5]), c=st.sampled_from([1, 6]),
           starts=st.lists(LANE_START, max_size=2 * LANES + 1), n=st.integers(0, 120))
    @example(q_out=1.5, d=8, l=2, c=1, starts=[], n=5)
    @example(q_out=1.0, d=2, l=3, c=6, starts=EDGE_GROUP[:1], n=50)
    @example(q_out=-1.0, d=6, l=5, c=1, starts=EDGE_GROUP[:LANES], n=50)
    @example(q_out=0.9, d=8, l=2, c=1, starts=EDGE_GROUP, n=50)
    @example(q_out=0.9, d=3, l=2, c=6, starts=EDGE_GROUP + EDGE_GROUP[-2::-1], n=50)
    @settings(max_examples=60, deadline=None)
    def test_lanes_match_one_orbit_at_a_time(self, q_out, d, l, c, starts, n):
        """One K-lane _orbit.orbit call gives each orbit the xi, eta and
        end state of a one-lane call and of _run_python, byte for byte."""
        cfg = MapConfig(d=d, l=l, c=c)
        lib = _orbit.kernel()
        radial = _radial_params(make_spec(q_out).q_int, cfg)
        states = _lane_states(q_out, cfg, starts)
        wvz = [(s.w, s.v, s.z) for s in states]
        xi, eta = np.empty((len(wvz), n)), np.empty((len(wvz), n))
        ends = _orbit.orbit(lib, d, radial, wvz, n, xi, eta)
        assert len(ends) == len(states)
        for j, state in enumerate(states):
            one_xi, one_eta = np.empty((1, n)), np.empty((1, n))
            (one_end,) = _orbit.orbit(lib, d, radial, [wvz[j]], n, one_xi, one_eta)
            py_xi, py_eta = np.empty(n), np.empty(n)
            _run_python(state, n, py_xi, py_eta)
            assert xi[j].tobytes() == one_xi.tobytes() == py_xi.tobytes(), j
            assert eta[j].tobytes() == one_eta.tobytes() == py_eta.tobytes(), j
            py_end = (state.w, state.v, state.z)
            assert [x.hex() for x in ends[j]] == [x.hex() for x in one_end] == [
                x.hex() for x in py_end], j

    def test_lane_count_is_the_sources(self):
        source = _orbit._SOURCE.read_text()
        assert re.findall(r"enum \{ LANES = (\d+) \};", source) == [str(LANES)]

    def test_edge_group_holds_one_lane_on_the_edge(self):
        """The EDGE_GROUP example steps one lane onto the support edge
        beside lanes that never reach it."""
        q_int = make_spec(0.9).q_int
        z_edge = _z_edge(q_int)
        for c in (1, 6):
            for j, state in enumerate(_lane_states(0.9, MapConfig(l=2, c=c), EDGE_GROUP)):
                zs = [z for z, _, _ in islice(_radial_steps(q_int, state.cfg, state.z), 50)]
                assert (z_edge in zs) == (j == 2), (c, j)


class TestOrbitBuild:
    def test_active_whenever_cc_is_on_path(self):
        """A broken build must not fall back to Python unnoticed."""
        if shutil.which("cc") is None:
            pytest.skip("no cc on PATH")
        assert _orbit.kernel() is not None
        assert generate(init(make_spec(1.5), REF_CFG), 3).metadata()["kernel"] == "c"

    def test_builds_once_into_its_cache(self, tmp_path):
        if shutil.which("cc") is None:
            pytest.skip("no cc on PATH")
        cache = tmp_path / "qgauss"
        assert _orbit.build(cache) is not None
        (lib,) = cache.glob("*.so")
        mtime = lib.stat().st_mtime_ns
        assert _orbit.build(cache) is not None
        assert [p.name for p in cache.iterdir()] == [lib.name]
        assert lib.stat().st_mtime_ns == mtime
        assert cache.stat().st_mode & 0o777 == 0o700

    def test_source_is_strict_c99(self, tmp_path):
        """_orbit.c builds under the build's own flags in strict C99 with
        every warning an error.  It is compiled, not only syntax-checked,
        because -Wmaybe-uninitialized and -Warray-bounds need the
        optimizer's analysis to see the fixed-size lane arrays.  The check
        is a test, not a build flag, because the build flags are hashed
        into the cache key."""
        if shutil.which("cc") is None:
            pytest.skip("no cc on PATH")
        done = subprocess.run(
            ["cc", *_orbit._FLAGS, "-std=c99", "-Wall", "-Wextra", "-Wpedantic",
             "-Werror", str(_orbit._SOURCE), "-o", str(tmp_path / "orbit.so"), "-lm"],
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr

    def test_every_entry_point_is_declared(self):
        """_declare sets argtypes and restype on every non-static qgauss_*
        function of _orbit.c.  Without a restype ctypes reads the return
        value as a C int, which would cut qgauss_write_rows' int64 byte
        count to 32 bits."""
        source = _orbit._SOURCE.read_text()
        exported = set(re.findall(r"^(?!static\b)\w[\w ]*?\b(qgauss_\w+)\(", source, re.M))

        class Recorder:
            def __init__(self):
                self.fns = {}

            def __getattr__(self, name):
                return self.fns.setdefault(name, types.SimpleNamespace())

        recorder = Recorder()
        _orbit._declare(recorder)
        assert exported and set(recorder.fns) == exported
        for name, fn in recorder.fns.items():
            assert {"argtypes", "restype"} <= set(vars(fn)), name

    def test_radial_record_has_one_layout(self):
        """_orbit.c's struct radial lists the fields of maps._RadialParams,
        in order, as the ctypes record _orbit._Radial does, and no
        exported qgauss_* function takes one of them as a parameter: the
        radial constants reach C only as the record."""
        source = _orbit._SOURCE.read_text()
        (body,) = re.findall(r"^struct radial \{(.*?)\};", source, re.M | re.S)
        members = []
        for declaration in filter(str.strip, body.split(";")):
            first, *rest = declaration.split(",")
            members += [first.split()[-1], *(name.strip() for name in rest)]
        fields = list(_RadialParams._fields)
        assert members == fields
        assert [name for name, _ in _orbit._Radial._fields_] == fields
        signatures = re.findall(r"^(?!static\b)\w[\w ]*?\b(qgauss_\w+)\(([^)]*)\)",
                                source, re.M)
        assert len(signatures) == 7
        for name, params in signatures:
            names = {re.findall(r"\w+", p)[-1] for p in params.split(",")}
            assert not names & set(fields), name

    def test_returns_none_when_it_cannot_build(self, tmp_path):
        cache = tmp_path / "qgauss"
        assert _orbit.build(cache, cc="qgauss-no-such-compiler") is None
        assert _orbit.build(cache, cc="false") is None  # the compile fails
        assert _no_temp_files(cache) and not list(cache.glob("*.so"))
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert _orbit.build(blocker / "qgauss") is None
        shared = tmp_path / "shared"
        shared.mkdir(mode=0o777)
        shared.chmod(0o777)
        assert _orbit.build(shared) is None

    def test_returns_none_without_user_ids(self, tmp_path, monkeypatch):
        """Where os.getuid does not exist (Windows), the cache cannot be
        checked as this user's own, so nothing is built or loaded."""
        monkeypatch.delattr(os, "getuid")
        assert _orbit.build(tmp_path / "c") is None

    def test_import_builds_nothing_and_fallback_keeps_bytes(self, tmp_path):
        """A fresh interpreter without cc on PATH: importing the package
        creates no cache, generate runs the Python loop with the bytes the
        compiled orbit gives here, and lyapunov's Python loop gives the
        compiled loop's bits on both routes."""
        empty = tmp_path / "bin"
        empty.mkdir()
        cache_home = tmp_path / "cache"
        out = _fresh_python("""
            import hashlib, os
            import qgauss
            print(os.path.exists(os.path.join(os.environ["XDG_CACHE_HOME"], "qgauss")))
            b = qgauss.generate(qgauss.init(qgauss.make_spec(1.5),
                qgauss.MapConfig(d=6, c=6), v0=0.3, z0=0.6), 5000)
            print(b.metadata()["kernel"])
            print(hashlib.sha256(b.xi.tobytes() + b.eta.tobytes()).hexdigest())
            for l, c in ((2, 1), (3, 6)):
                print(qgauss.lyapunov(1.5, qgauss.MapConfig(l=l, c=c), 0.6, 5000).hex())
        """, cache_home, empty)
        assert out[:3] == ["False", "python", _python_digest(1.5, MapConfig(d=6, c=6), 5000)]
        batch = generate(init(make_spec(1.5), MapConfig(d=6, c=6), v0=0.3, z0=0.6), 5000)
        assert hashlib.sha256(batch.xi.tobytes() + batch.eta.tobytes()).hexdigest() == out[2]
        assert out[3:] == [lyapunov(1.5, MapConfig(l=l, c=c), 0.6, 5000).hex()
                           for l, c in ((2, 1), (3, 6))]

    def test_concurrent_first_builds(self, tmp_path, monkeypatch):
        """Four spawned processes, more than the cores, build into one fresh
        cache at once: same outputs, one library, no temporary files."""
        if shutil.which("cc") is None:
            pytest.skip("no cc on PATH")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        ctx = multiprocessing.get_context("spawn")
        queue = ctx.Queue()
        procs = [ctx.Process(target=_spawned_generate, args=(queue,)) for _ in range(4)]
        for p in procs:
            p.start()
        try:
            results = [queue.get(timeout=120) for _ in procs]
        finally:
            for p in procs:
                p.join(timeout=60)
        assert not any(p.is_alive() for p in procs)
        assert [p.exitcode for p in procs] == [0] * 4
        expected = _python_digest(1.5, MapConfig(d=6, c=6), 5000)
        assert results == [("c", expected)] * 4
        cache = tmp_path / "qgauss"
        assert len(list(cache.glob("*.so"))) == 1
        assert _no_temp_files(cache)


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

    def test_generate_matches_per_draw_loop(self):
        """One take(2n) block, consumed as (u1, u2) pairs in stream order."""
        spec = make_spec(1.6)
        stream, ref = UniformStream(99), UniformStream(99)
        batch = gbmm_generate(spec, stream, 777)
        pairs = [gbmm_sample(spec, ref.next_float(), ref.next_float())
                 for _ in range(777)]
        assert batch.xi.tobytes() == np.array([p[0] for p in pairs]).tobytes()
        assert batch.eta.tobytes() == np.array([p[1] for p in pairs]).tobytes()
        assert stream.state == ref.state

    def test_compact_sample_respects_support(self):
        q_out = -0.9
        hi = support(q_out)[1]
        batch = gbmm_generate(make_spec(q_out), UniformStream(7), 20000)
        assert float(np.max(np.abs(batch.xi))) <= hi + 1e-9


@pytest.mark.usefixtures("needs_kernel")
class TestCompiledGbmm:
    """gbmm_generate runs the compiled gbmm loop (_orbit.c, qgauss_gbmm)
    wherever it can be built; the gbmm_sample loop is its oracle, byte for
    byte."""

    @pytest.mark.parametrize("q_out", ORBIT_Q)
    def test_matches_python_loop(self, q_out, monkeypatch):
        spec = make_spec(q_out)

        def run():
            stream = UniformStream(20260839)
            batch = gbmm_generate(spec, stream, 5000)
            return batch.xi.tobytes(), batch.eta.tobytes(), stream.state, batch.kernel

        compiled = run()
        monkeypatch.setattr(_orbit, "kernel", lambda: None)
        python = run()
        assert compiled[:3] == python[:3]
        assert (compiled[3], python[3]) == ("c", "python")

    @pytest.mark.parametrize("q_out", ORBIT_Q)
    def test_floors_u1_as_gbmm_sample_does(self, q_out):
        """u1 below, at and above the floor u_lo (0 below q_int = 1, about
        0.17 at q' = 2.99), the least and largest uniforms 2**-54 and the
        clamped top word 1 - 2**-53, as u1 and as u2."""
        spec = make_spec(q_out)
        radial = _radial_params(spec.q_int, MapConfig())
        top = 1.0 - 2.0 ** -53
        u1s = [5e-324, 1e-310, 2.0 ** -54, 1e-3, 0.5, top]
        if radial.u_lo > 0.0:
            u1s += [radial.u_lo / 2.0, np.nextafter(radial.u_lo, 0.0), radial.u_lo,
                    np.nextafter(radial.u_lo, 1.0)]
        u = np.array([(u1, u2) for u1 in u1s for u2 in (2.0 ** -54, 0.3, top)]).ravel()
        n = u.size // 2
        xi, eta = np.empty(n), np.empty(n)
        _orbit.gbmm(_orbit.kernel(), radial, u, n, xi, eta)
        expected = np.array([gbmm_sample(spec, u[2 * i], u[2 * i + 1]) for i in range(n)])
        assert xi.tobytes() == expected[:, 0].tobytes()
        assert eta.tobytes() == expected[:, 1].tobytes()

    def test_rejects_arguments_it_cannot_trust(self):
        lib = _orbit.kernel()
        radial = _radial_params(1.5, MapConfig())
        u = np.full(8, 0.5)
        good = np.empty(4)
        read_only = np.empty(4)
        read_only.setflags(write=False)
        for bad in (np.full(7, 0.5), np.full(8, 0.5, np.float32), np.full(16, 0.5)[::2],
                    [0.5] * 8, np.array([0.5] * 7 + [0.0]), np.array([0.5] * 7 + [1.0]),
                    np.array([math.nan] + [0.5] * 7), np.array([-0.5] + [0.5] * 7)):
            with pytest.raises(ValueError):
                _orbit.gbmm(lib, radial, bad, 4, good, np.empty(4))
        for bad in (np.empty(3), np.empty(4, np.float32), np.empty(8)[::2], read_only):
            with pytest.raises(ValueError):
                _orbit.gbmm(lib, radial, u, 4, bad, good)
            with pytest.raises(ValueError):
                _orbit.gbmm(lib, radial, u, 4, good, bad)
        for n in (-1, 4.0, 3):
            with pytest.raises(ValueError):
                _orbit.gbmm(lib, radial, u, n, good, np.empty(4))
        u.setflags(write=False)  # the uniforms may be read-only
        _orbit.gbmm(lib, radial, u, 4, good, np.empty(4))


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

    @staticmethod
    def _singles(seed, n):
        stream = UniformStream(seed)
        return np.array([stream.next_float() for _ in range(n)]), stream.state

    def test_take_matches_next_float_over_a_million_words(self):
        stream = UniformStream(20260839)
        arr = stream.take(10 ** 6)
        singles, state = self._singles(20260839, 10 ** 6)
        assert arr.tobytes() == singles.tobytes()
        assert stream.state == state

    # 2**64 - 7 is the 64-bit word of -7; its id keeps the short signed name
    @pytest.mark.parametrize("seed", [0, 5, 2 ** 64 - 1, 2 ** 64 - 3,
                                      pytest.param(2 ** 64 - 7, id="-7")])
    @pytest.mark.parametrize("n", [0, 1, 1000])
    def test_take_matches_next_float_at_edges(self, seed, n):
        """n = 0 and 1, and seeds whose first counter wraps past 2**64."""
        stream = UniformStream(seed)
        arr = stream.take(n)
        singles, state = self._singles(seed, n)
        assert arr.dtype == np.float64 and arr.shape == (n,)
        assert arr.tobytes() == singles.tobytes()
        assert stream.state == state

    @pytest.mark.parametrize("a, b", [(0, 5), (1, 1), (3, 997), (4096, 1)])
    def test_split_takes_equal_one_take(self, a, b):
        s1, s2 = UniformStream(2 ** 64 - 3), UniformStream(2 ** 64 - 3)
        split = np.concatenate([s1.take(a), s1.take(b)])
        assert split.tobytes() == s2.take(a + b).tobytes()
        assert s1.state == s2.state

    def test_take_rejects_bad_counts(self):
        for n in (-1, 2.0, None):
            with pytest.raises(ValueError):
                UniformStream(1).take(n)

    def test_open_interval(self):
        u = UniformStream(0).take(10 ** 5)
        assert float(np.min(u)) > 0.0
        assert float(np.max(u)) < 1.0

    def test_top_word_stays_below_one(self):
        """The word whose top 53 bits are all ones would round to 1.0; a
        seed that draws it is built by inverting _mix64."""
        top = _MASK64
        pre = _unmix64(top)
        assert _mix64(pre) == top
        seed = (pre - _SM_GAMMA) & _MASK64
        u_max = 1.0 - 2.0 ** -53
        assert UniformStream(seed).next_float() == u_max
        assert UniformStream(seed).take(3)[0] == u_max
        assert UniformStream((seed - _SM_GAMMA) & _MASK64).take(2)[1] == u_max
        for s in (seed, (seed - _SM_GAMMA) & _MASK64):  # top word as u1, as u2
            batch = gbmm_generate(make_spec(1.5), UniformStream(s), 2)
            assert np.isfinite(batch.xi).all() and np.isfinite(batch.eta).all()
            singles, _ = self._singles(s, 4)
            assert 0.0 < singles.min() and singles.max() < 1.0

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


class TestUniformStreamWithoutKernel(TestUniformStream):
    """Every stream test again on the numpy words (generator._take_numpy),
    which take draws where the compiled library cannot be built."""

    @pytest.fixture(autouse=True)
    def _numpy_words(self, monkeypatch):
        monkeypatch.setattr(_orbit, "kernel", lambda: None)


def _unmix64(y):
    """Inverse of _mix64: each xor-shift and odd multiply inverts mod 2**64."""
    def unshift(x, k):
        out = x
        for _ in range(64 // k):
            out = x ^ (out >> k)
        return out

    y = unshift(y, 31)
    y = (y * pow(_SM_MIX2, -1, 2 ** 64)) & _MASK64
    y = unshift(y, 27)
    y = (y * pow(_SM_MIX1, -1, 2 ** 64)) & _MASK64
    return unshift(y, 30)
