"""Circle pair maps, the folded tent, and the conjugated z update."""

import ast
import math
from itertools import islice
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qgauss
from qgauss.generator import init, make_spec
from qgauss.maps import (
    _U_CLAMP_LO,
    CirclePoint,
    MapConfig,
    chebyshev_pair,
    _circle_step,
    _radial_steps,
    _u_floor,
    _z_edge,
    tri_map,
    z_map,
    z_map_derivative,
)
from qgauss.specfun import q_exp, q_ln
from qgauss.stats import lyapunov


class TestMapConfig:
    def test_defaults(self):
        cfg = MapConfig()
        assert (cfg.d, cfg.l, cfg.c) == (8, 2, 1)
        assert cfg.epsilon == 5e-6

    def test_slope_literal(self):
        # 2*(1-5e-6) must match the reference program's literal
        assert MapConfig().slope == 1.99999

    @pytest.mark.parametrize("kwargs", [
        dict(d=1), dict(d=9), dict(d=2.5), dict(l=1), dict(c=0),
        dict(epsilon=-1e-9), dict(epsilon=1e-3),
        dict(epsilon=False), dict(epsilon="x"),
    ])
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValueError):
            MapConfig(**kwargs)


class TestChebyshevPair:
    @pytest.mark.parametrize("d", range(2, 9))
    def test_angle_doubling_identity(self, d):
        """P_d(cos t) = cos(dt) and Q_d(cos t, sin t) = sin(dt)."""
        for t in np.linspace(0.0, 2.0 * math.pi, 97):
            p = CirclePoint(math.cos(t), math.sin(t))
            out = chebyshev_pair(d, p)
            assert out.w == pytest.approx(math.cos(d * t), abs=1e-12)
            assert out.v == pytest.approx(math.sin(d * t), abs=1e-12)

    def test_renormalize_restores_radius(self):
        p = CirclePoint(0.6 * 1.001, 0.8 * 1.001)  # slightly off the circle
        out = chebyshev_pair(3, p)
        assert out.w * out.w + out.v * out.v == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("d", [0, 1, 9, 2.5, None, True])
    def test_invalid_degree(self, d):
        """The degree rule of MapConfig: an int in 2..8, and not a bool."""
        with pytest.raises(ValueError, match="d must be an integer in 2..8"):
            chebyshev_pair(d, CirclePoint(1.0, 0.0))
        with pytest.raises(ValueError, match="d must be an integer in 2..8"):
            MapConfig(d=d)

    @given(t=st.floats(0.0, 2.0 * math.pi), d=st.integers(2, 8))
    @settings(max_examples=80, deadline=None)
    def test_stays_on_circle(self, t, d):
        p = CirclePoint(math.cos(t), math.sin(t))
        out = chebyshev_pair(d, p)
        assert abs(out.w ** 2 + out.v ** 2 - 1.0) < 1e-12


class TestTriMap:
    def test_reference_literal_form_l2(self):
        s = 1.99999
        for u in (0.0, 0.1, 0.3, 0.5, 0.7, 0.9999, 1.0):
            assert tri_map(2, 5e-6, u) == 1.0 - abs(1.0 - s * u)

    def test_peak_value_from_canonical_example(self):
        assert tri_map(2, 5e-6, 0.5) == pytest.approx(0.999995, abs=1e-15)

    def test_l3_zero_eps_matches_closed_form(self):
        # T_3: 3u on [0,1/3], 2-3u on [1/3,2/3], 3u-2 on [2/3,1]
        for u in np.linspace(0.0, 1.0, 301):
            y = 3.0 * u
            if u <= 1.0 / 3.0:
                want = y
            elif u <= 2.0 / 3.0:
                want = 2.0 - y
            else:
                want = y - 2.0
            assert tri_map(3, 0.0, u) == pytest.approx(want, abs=1e-12)

    @given(u=st.floats(0.0, 1.0),
           l=st.one_of(st.integers(2, 6), st.integers(3, 2**63 - 1)),
           epsilon=st.sampled_from([0.0, 5e-6, 9.99e-4]))
    @example(u=1.0, l=3, epsilon=0.0)
    @example(u=1.0 / 3.0, l=3, epsilon=0.0)
    @example(u=0.9999999999999999, l=2**52 + 1, epsilon=0.0)
    @example(u=1.0, l=2**63 - 1, epsilon=5e-6)
    @example(u=1.0, l=2**63 - 1, epsilon=0.0)
    @settings(max_examples=400, deadline=None)
    def test_range_contract(self, u, l, epsilon):
        """[0, 1] into itself at every order l up to 2**63-1, unclamped:
        y - k and the odd cell's (k + 1) - y are exact, and y >= 2**53 is
        even."""
        out = tri_map(l, epsilon, u)
        assert 0.0 <= out <= 1.0

    def test_slope_magnitude_between_kinks(self):
        l, eps = 4, 5e-6
        s = l * (1.0 - eps)
        h = 1e-9
        for u in (0.05, 0.3, 0.6, 0.9):
            d = (tri_map(l, eps, u + h) - tri_map(l, eps, u - h)) / (2.0 * h)
            assert abs(abs(d) - s) < 1e-4

    @pytest.mark.parametrize("u", [-0.1, -5e-324, 1.0000000000000002, 1.5,
                                   math.nan, math.inf, -math.inf])
    def test_rejects_u_outside_unit_interval(self, u):
        with pytest.raises(ValueError, match="u must lie in"):
            tri_map(2, 5e-6, u)


def _orbit_u(q_int, cfg, z0, n, burn=200):
    """Push the z orbit back to u-space through the conjugacy."""
    z = z0
    us = np.empty(n)
    for i in range(n + burn):
        z = z_map(q_int, cfg, z)
        if i >= burn:
            us[i - burn] = q_exp(q_int, -0.5 * z * z)
    return us


class TestZMap:
    def test_rejects_outside_support_for_compact_case(self):
        q_int = 0.5  # support edge sqrt(2/(1-q)) = 2
        with pytest.raises(ValueError):
            z_map(q_int, MapConfig(), 2.5)

    @pytest.mark.parametrize("q_int", [0.5, 1.0, 1.5])
    @pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_z(self, q_int, z):
        with pytest.raises(ValueError, match="z must be finite and >= 0"):
            z_map(q_int, MapConfig(), z)

    def test_output_nonnegative_finite(self):
        cfg = MapConfig()
        for q_int in (0.0, 0.5, 1.0, 3.0, 39.0):
            z = 1.0
            for _ in range(2000):
                z = z_map(q_int, cfg, z)
                assert z >= 0.0 and math.isfinite(z)

    @pytest.mark.parametrize("q_int", [0.6, 1.0, 1.8])
    def test_conjugacy_pushforward_is_uniform(self, q_int):
        """u_n = e_q(-z_n^2/2) should be uniform under the invariant law."""
        us = _orbit_u(q_int, MapConfig(), 0.7, 20000)
        # chi-square on 20 equal bins
        counts, _ = np.histogram(us, bins=20, range=(0.0, 1.0))
        expected = len(us) / 20.0
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        # 19 dof: p=0.001 cutoff is 43.8
        assert chi2 < 43.8, f"chi2={chi2:.1f} for q_int={q_int}"

    def test_folds_compose(self):
        """One step is g_inv, the u clamp, c folds, the u floor and g
        composed, bit for bit along whole orbits; that includes q_int just
        below and above 1, where g_inv and g take the Gaussian branch.  The
        expected step is written out here in the reference expression
        shapes, so the map is not compared with its own halves."""
        for q_int in (0.0, 0.6, 1.0 - 5e-13, 1.0, 1.0 + 5e-13, 1.4, 39.0):
            gaussian = abs(q_int - 1.0) < 1e-12
            one_m_q = 1.0 - q_int
            for l, c in ((2, 1), (2, 6), (3, 1)):
                cfg = MapConfig(l=l, c=c)
                s = l * (1.0 - cfg.epsilon)
                z = 0.9
                for i in range(2000):
                    if gaussian:
                        u = math.exp(-z * z * 0.5)
                    else:
                        a = 1.0 + one_m_q * (-z * z * 0.5)
                        u = math.exp(math.log(a) / one_m_q) if a > 0.0 else 0.0
                    if q_int >= 1.0 and u < 1e-300:
                        u = 1e-300
                    for _ in range(c):
                        if l == 2:
                            u = 1.0 - abs(1.0 - s * u)
                        else:
                            y = s * u
                            k = int(y)
                            u = min(max((k + 1) - y if k & 1 else y - k, 0.0), 1.0)
                    if q_int > 1.0:
                        u = max(u, 1e-300, math.exp(-709.0 / (q_int - 1.0)))
                    elif q_int == 1.0:
                        u = max(u, 1e-300)
                    if u == 0.0:
                        want = math.sqrt(2.0 / (1.0 - q_int))
                    elif gaussian:
                        want = math.sqrt(-2.0 * math.log(u))
                    else:
                        want = math.sqrt(-2.0 * ((math.exp(math.log(u) * one_m_q) - 1.0)
                                                 / one_m_q))
                    z = z_map(q_int, cfg, z)
                    assert z == want, (q_int, l, c, i)

    def test_u_floor(self):
        """0 below q_int = 1, the clamp at 1, and exp(-709/(q_int - 1))
        where that is larger."""
        assert _u_floor(-3.0) == _u_floor(1.0 - 1e-9) == 0.0
        assert _u_floor(1.0) == _u_floor(1.5) == _U_CLAMP_LO
        assert _u_floor(39.0) == math.exp(-709.0 / 38.0)


class TestQIntRule:
    @pytest.mark.parametrize("q_int", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("call", [
        lambda q_int: z_map(q_int, MapConfig(), 0.5),
        lambda q_int: z_map_derivative(q_int, 0.5),
        lambda q_int: lyapunov(q_int, MapConfig(), 0.5, 10),
    ], ids=["z_map", "z_map_derivative", "lyapunov"])
    def test_rejects_non_finite(self, call, q_int):
        with pytest.raises(ValueError, match="q_int must be finite"):
            call(q_int)


def _name(node):
    """The bare name of a called function, math.exp and exp_ alike."""
    if isinstance(node, ast.Attribute):
        return node.attr.rstrip("_")
    if isinstance(node, ast.Name):
        return node.id.rstrip("_")
    return None


def _owners(predicate):
    """module.function of every def in src/qgauss/*.py holding a node that
    satisfies predicate (nested defs count for the def they sit in)."""
    owners = set()
    for path in sorted(Path(qgauss.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for top in tree.body:
            defs = top.body if isinstance(top, ast.ClassDef) else [top]
            for fn in defs:
                if isinstance(fn, ast.FunctionDef) and any(map(predicate, ast.walk(fn))):
                    owners.add("%s.%s" % (path.stem, fn.name))
    return owners


def _importers(name):
    """Every module of src/qgauss/*.py, other than specfun and the package
    itself, that imports name from another."""
    modules = set()
    for path in sorted(Path(qgauss.__file__).parent.glob("*.py")):
        if path.stem not in ("specfun", "__init__") and any(
                isinstance(node, ast.ImportFrom) and name in {a.name for a in node.names}
                for node in ast.walk(ast.parse(path.read_text()))):
            modules.add(path.stem)
    return modules


def _is_tent(node):
    """1.0 - abs(1.0 - ...): the tent fold."""
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
            and isinstance(node.left, ast.Constant) and node.left.value == 1.0
            and isinstance(node.right, ast.Call) and _name(node.right.func) == "abs"
            and isinstance(node.right.args[0], ast.BinOp)
            and isinstance(node.right.args[0].op, ast.Sub)
            and isinstance(node.right.args[0].left, ast.Constant))


def _is_parity(node):
    """k & 1: the parity test of the higher-order fold."""
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitAnd)
            and isinstance(node.right, ast.Constant) and node.right.value == 1)


def _is_exp_of_log(node):
    """exp(log(...) op ...): the deformed exponential or logarithm."""
    return (isinstance(node, ast.Call) and _name(node.func) == "exp"
            and isinstance(node.args[0], ast.BinOp)
            and isinstance(node.args[0].left, ast.Call)
            and _name(node.args[0].left.func) == "log")


def _is_guarded_floor(node):
    """An if or conditional expression with a _u_floor call in a branch."""
    if isinstance(node, ast.If):
        branches = node.body + node.orelse
    elif isinstance(node, ast.IfExp):
        branches = [node.body, node.orelse]
    else:
        return False
    return any(isinstance(n, ast.Call) and _name(n.func) == "_u_floor"
               for branch in branches for n in ast.walk(branch))


def _is_floor_bound(node):
    """709.0, the exponent bound of the q_int > 1 floor."""
    return isinstance(node, ast.Constant) and node.value == 709.0


def _is_radius_gate(node):
    """A comparison against _RADIUS_TOL: the renormalization gate."""
    return (isinstance(node, ast.Compare)
            and any(_name(n) == "_RADIUS_TOL" for n in node.comparators))


def _is_degree_range(node):
    """A comparison or a call with both 2 and 8 among its operands:
    2 <= d <= 8, or _check_count("d", d, 2, 8)."""
    if isinstance(node, ast.Compare):
        operands = [node.left, *node.comparators]
    elif isinstance(node, ast.Call):
        operands = node.args
    else:
        return False
    return {2, 8} <= {n.value for n in operands if isinstance(n, ast.Constant)}


def _is_int_test(node):
    """isinstance(..., int), alone or in a tuple of types."""
    if not (isinstance(node, ast.Call) and _name(node.func) == "isinstance"
            and len(node.args) == 2):
        return False
    kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
    return any(_name(kind) == "int" for kind in kinds)


class TestOneCopyOfEachHalf:
    """The Python orbit step composes one copy of each half, as _orbit.c's
    does: the circle step and its renormalization in maps._circle_step, the
    fold in maps._fold, the deformed exp/log pair in specfun (called through
    maps._g_inv and maps._g), and the q >= 1 floor rule in maps._u_floor."""

    def test_fold_is_written_once(self):
        assert _owners(_is_tent) == {"maps._fold"}
        assert _owners(_is_parity) == {"maps._fold"}

    def test_deformed_pair_is_written_once(self):
        assert _owners(_is_exp_of_log) == {"specfun.q_exp", "specfun.q_ln"}

    def test_step_and_tri_map_call_the_fold(self):
        callers = _owners(lambda n: isinstance(n, ast.Call) and _name(n.func) == "_fold")
        assert {"maps._radial_steps", "maps.tri_map"} <= callers

    def test_circle_rules_are_written_once(self):
        """The renormalization gate sits in maps._circle_step alone (and
        once in _orbit.c's circle_step), and the degree rule in
        maps._check_degree alone."""
        assert _owners(_is_radius_gate) == {"maps._circle_step"}
        source = (Path(qgauss.__file__).parent / "_orbit.c").read_text()
        assert source.count("fabs(r2 - 1.0) > tol") == 1
        assert _owners(_is_degree_range) == {"maps._check_degree"}

    def test_integer_rule_is_written_once(self):
        """Every count, order, degree, lag, sign, seed and stream state is
        checked by maps._check_count, the one isinstance(..., int) test."""
        assert _owners(_is_int_test) == {"maps._check_count"}

    def test_g_is_written_once(self):
        """q_ln is named (aliases included) only in maps._g, so the radial
        step, the derivative, the fold point and gbmm_sample share one g."""
        assert _owners(lambda n: _name(n) == "q_ln") == {"maps._g"}
        assert _importers("q_ln") == {"maps"}

    def test_g_inv_is_written_once(self):
        """q_exp is named only in maps._g_inv and the joint density, so the
        radial step and the derivative share one g_inv."""
        assert _owners(lambda n: _name(n) == "q_exp") == {
            "maps._g_inv", "distribution.joint_pdf"}
        assert _importers("q_exp") == {"maps", "distribution"}

    def test_compiled_loops_share_one_radial_step(self):
        """_orbit.c calls g_inv and fold once each, in radial_step, which
        every orbit and Lyapunov loop steps through, and writes
        exp(log(...)) only in g_inv and g."""
        source = (Path(qgauss.__file__).parent / "_orbit.c").read_text()
        assert source.count("g_inv(p, ") == 1
        assert source.count("fold(p, ") == 1
        assert source.count("exp(log(") == 2

    def test_floor_rule_is_written_once(self):
        """Every _u_floor call is unconditional, so no caller repeats its
        q_int >= 1 test, and its bound appears nowhere else."""
        assert _owners(_is_guarded_floor) == set()
        assert _owners(_is_floor_bound) == {"maps._u_floor"}


class TestRadialStarts:
    # q' = 0.9 from z0 = 0.99 z_edge and q' = 0.99 from 0.7 z_edge: starts
    # whose first tent fold rounds s*u to 0, which maps to the edge.
    @given(q_out=st.floats(-5.0, 1.0, exclude_max=True),
           frac=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           l=st.sampled_from([2, 3]), c=st.sampled_from([1, 6]))
    @example(q_out=0.9, frac=0.99, l=2, c=1)
    @example(q_out=0.99, frac=0.7, l=2, c=1)
    @example(q_out=0.75, frac=0.9999999999999999, l=3, c=1)
    @settings(max_examples=100, deadline=None)
    def test_accepted_start_never_reaches_the_edge(self, q_out, frac, l, c):
        """From every z0 that init accepts, drawn as a fraction of the
        support edge, 200 radial steps neither reach the edge nor stay put."""
        spec = make_spec(q_out)
        if spec.q_int >= 1.0:  # q' within rounding of 1: no edge
            return
        cfg = MapConfig(l=l, c=c)
        z_edge = _z_edge(spec.q_int)
        z0 = frac * z_edge
        try:
            init(spec, cfg, z0=z0)
        except ValueError:
            return
        zs = [z for z, _, _ in islice(_radial_steps(spec.q_int, cfg, z0), 200)]
        assert z_edge not in zs
        assert len(set(zs)) > 1


class TestCircleStarts:
    @given(d=st.integers(2, 8),
           v0=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           w0_sign=st.sampled_from([1, -1]))
    @example(d=8, v0=0.5, w0_sign=1)
    @example(d=2, v0=1e-8, w0_sign=1)
    @example(d=3, v0=1.0 - 1e-8, w0_sign=-1)
    @settings(max_examples=60, deadline=None)
    def test_accepted_start_never_reaches_a_short_cycle(self, d, v0, w0_sign):
        """From init's circle point, 10**4 circle steps never reach the
        fixed points (+-1, 0) and never come back to a state within 8
        steps."""
        state = init(make_spec(1.0), MapConfig(d=d), v0=v0, w0_sign=w0_sign)
        w, v = state.w, state.v
        ws, vs = [w], [v]
        for _ in range(10 ** 4):
            w, v = _circle_step(d, w, v)
            ws.append(w)
            vs.append(v)
        ws, vs = np.array(ws), np.array(vs)
        assert not np.any((np.abs(ws) == 1.0) & (vs == 0.0))
        for k in range(1, 9):
            assert not np.any((ws[k:] == ws[:-k]) & (vs[k:] == vs[:-k])), k


class TestZMapDerivative:
    @pytest.mark.parametrize("q_int", [0.6, 1.0, 1.8])
    def test_matches_finite_difference(self, q_int):
        # the derivative op is defined for the idealized zero-epsilon fold,
        # so the finite-difference reference uses that map too
        cfg0 = MapConfig(epsilon=0.0)
        z_star = math.sqrt(-2.0 * q_ln(q_int, 0.5))
        h = 1e-7
        z = 0.8
        checked = 0
        for _ in range(80):
            z_next = z_map(q_int, cfg0, z)
            if abs(z - z_star) > 1e-3:
                d = z_map_derivative(q_int, z)
                fd = (z_map(q_int, cfg0, z + h) - z_map(q_int, cfg0, z - h)) / (2 * h)
                assert d == pytest.approx(fd, rel=2e-4, abs=1e-6)
                checked += 1
            z = z_next
        assert checked > 40

    def test_sign_structure(self):
        # below the kink preimage the branch is decreasing, above increasing
        z_star = math.sqrt(2.0 * math.log(2.0))
        assert z_map_derivative(1.0, z_star - 0.2) < 0.0
        assert z_map_derivative(1.0, z_star + 0.2) > 0.0

    @pytest.mark.parametrize("q_int", [0.5, 1.0, 1.5])
    @pytest.mark.parametrize("z", [0.0, -0.0, -1.0, -math.inf])
    def test_rejects_z_at_or_below_zero(self, q_int, z):
        with pytest.raises(ValueError, match="z must be finite and > 0"):
            z_map_derivative(q_int, z)

    def test_rejects_kink_neighborhood(self):
        z_star = math.sqrt(2.0 * math.log(2.0))
        with pytest.raises(ValueError):
            z_map_derivative(1.0, z_star + 1e-10)
