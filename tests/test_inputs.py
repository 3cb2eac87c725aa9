"""The input contract: every public count follows one rule, checked before
any work, and lyapunov takes exactly the starts init takes."""

import math

import pytest

from qgauss import generator, stats
from qgauss.generator import UniformStream, gbmm_generate, generate, init, make_spec
from qgauss.maps import MapConfig, _z_edge
from qgauss.stats import lyapunov, mc_p_value, run_trial_table


class _Poison:
    """Stands in for what a call works with; any use of it fails the test."""

    def __getattr__(self, name):
        raise AssertionError("work started before the count was checked")

    def __call__(self, *args, **kwargs):
        raise AssertionError("work started before the count was checked")


# (argument, lowest accepted value, call with that argument set to n)
COUNTS = [
    ("generate n", 0, lambda n: generate(init(make_spec(1.5), MapConfig()), n)),
    ("gbmm_generate n", 0, lambda n: gbmm_generate(make_spec(1.5), UniformStream(1), n)),
    ("take n", 0, lambda n: UniformStream(1).take(n)),
    ("mc_p_value M", 1, lambda n: mc_p_value(n, 0.5, n_null=9)),
    ("mc_p_value n_null", 1, lambda n: mc_p_value(20, 0.5, n_null=n)),
    ("lyapunov t", 1, lambda n: lyapunov(1.5, MapConfig(), 1.0, n)),
    ("lyapunov burn_in", 0, lambda n: lyapunov(1.5, MapConfig(), 1.0, 10, burn_in=n)),
    ("run_trial_table trials", 1,
     lambda n: run_trial_table([1.0], trials=n, samples=50, n_null=9)),
    ("run_trial_table samples", 1,
     lambda n: run_trial_table([1.0], trials=1, samples=n, n_null=9)),
    ("run_trial_table n_null", 1,
     lambda n: run_trial_table([1.0], trials=1, samples=50, n_null=n)),
    ("run_trial_table jobs", 1,
     lambda n: run_trial_table([1.0], trials=1, samples=50, n_null=9, jobs=n)),
    ("MapConfig c", 1, lambda n: MapConfig(c=n)),
]


@pytest.mark.parametrize("lo, call", [c[1:] for c in COUNTS], ids=[c[0] for c in COUNTS])
def test_count_rule(monkeypatch, lo, call):
    """lo - 1, a float, None, a bool and 2**63 raise ValueError before
    numpy, the null, the compiled library or a worker is touched; lo is
    accepted.  2**63 is the one value past the rule that is tried: a huge
    count that passed would allocate."""
    for module, name in ((generator, "np"), (stats, "np"), (stats, "_orbit"),
                         (stats, "_null_statistics"), (stats, "ProcessPoolExecutor")):
        monkeypatch.setattr(module, name, _Poison())
    for bad in (lo - 1, 1.5, None, True, False, 2 ** 63):
        with pytest.raises(ValueError):
            call(bad)
    monkeypatch.undo()
    call(lo)


def _accepts(fn, *args, **kwargs):
    try:
        fn(*args, **kwargs)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("l,c", [(2, 1), (3, 1)])
@pytest.mark.parametrize("q_out", [0.5, 1.5])
def test_lyapunov_takes_the_starts_init_takes(q_out, l, c):
    """0 and the support edge z_edge (q_int < 1) are rejected by both;
    inner starts are taken by both."""
    spec = make_spec(q_out)
    cfg = MapConfig(l=l, c=c)
    starts = [(0.0, False), (1.0, True)]
    if spec.q_int < 1.0:
        z_edge = math.sqrt(2.0 / (1.0 - spec.q_int))
        starts += [(z_edge, False), (0.99 * z_edge, True)]
    for z0, ok in starts:
        assert _accepts(init, spec, cfg, z0=z0) is ok, z0
        assert _accepts(lyapunov, spec.q_int, cfg, z0, 100) is ok, z0


def test_absorbed_start_is_rejected():
    """At q' = 0.99 the tent fold rounds s*u to 0 from every z0 above about
    7.97 (z_edge = 14.18), and 0 maps to the edge for good: z0 = 10 is
    rejected by both, z0 = 5 taken by both."""
    spec = make_spec(0.99)
    cfg = MapConfig()
    for z0, ok in ((10.0, False), (5.0, True)):
        assert _accepts(init, spec, cfg, z0=z0) is ok, z0
        assert _accepts(lyapunov, spec.q_int, cfg, z0, 100) is ok, z0


def test_start_on_a_kept_point_is_rejected():
    """At q' = 0.75 (z_edge = 3) with l = 3, c = 1, the radial step keeps
    the double just below the edge, and the next one down steps onto it:
    both are rejected, by both.  Ten ulps below the edge the orbit moves."""
    spec = make_spec(0.75)
    cfg = MapConfig(l=3)
    z_edge = _z_edge(spec.q_int)
    below = [z_edge]
    for _ in range(10):
        below.append(math.nextafter(below[-1], 0.0))
    for z0, ok in ((below[1], False), (below[2], False), (below[10], True)):
        assert _accepts(init, spec, cfg, z0=z0) is ok, z0
        assert _accepts(lyapunov, spec.q_int, cfg, z0, 100) is ok, z0
