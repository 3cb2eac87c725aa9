"""What a fresh interpreter imports: scipy's special functions only once a
cdf or quantile is evaluated, and the build and thread-pool modules only
where they are used.

The generator, gbmm, the Lyapunov estimate, `qgauss gen` and the diag kinds
that evaluate no cdf must run without scipy, which is most of the package's
import time.  The first cdf_array_direct or quantile call loads
scipy.special._ufuncs and returns the same bytes as a call in this process.
The package scipy.special itself is never imported (distribution's
private load); a later import of it still works and exports the objects
qgauss loaded, and where the private load fails the package import gives
the same bytes.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qgauss
from qgauss import cdf_array_direct, quantile

_X = np.linspace(-40.0, 40.0, 161)
_P = [1e-300, 1e-9, 0.3, 0.5, 0.9, 1.0 - 2.0 ** -53]
_Q = [-1.0, 0.5, 1.0, 1.5, 2.9]

_SCRIPT = """
import contextlib, io, json, os, sys, tempfile
import numpy as np
import qgauss
from qgauss import (MapConfig, UniformStream, gbmm_generate, generate,
                    init, lyapunov, make_spec)
from qgauss.cli import main

spec = make_spec(1.5)
generate(init(spec, MapConfig(), v0=0.1, z0=1.0), 1000)
gbmm_generate(spec, UniformStream(7), 1000)
lyapunov(spec.q_int, MapConfig(), 1.0, 1000)
with tempfile.TemporaryDirectory() as d, \\
        contextlib.redirect_stdout(io.StringIO()):
    assert main(["gen", "--q", "1.5", "--count", "1000",
                 "--out", os.path.join(d, "g.csv")]) == 0
    for what in ("lyapunov", "return_map", "sample_path", "autocorr",
                 "joint_grid"):
        assert main(["diag", "--what", what, "--q", "1.5",
                     "--count", "200"]) == 0
before = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
if sys.argv[1] == "cdf_array_direct":
    x = np.linspace(-40.0, 40.0, 161)
    out = [qgauss.cdf_array_direct(q, x).tobytes().hex() for q in %(q)r]
else:
    out = [[float.hex(qgauss.quantile(q, p)) for p in %(p)r] for q in %(q)r]
print(json.dumps({"before": before,
                  "after": "scipy.special._ufuncs" in sys.modules, "out": out}))
""" % {"q": _Q, "p": _P}


def _fresh_run(script, *argv):
    env = dict(os.environ)
    src = str(Path(qgauss.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script, *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.mark.parametrize("first_call", ["cdf_array_direct", "quantile"])
def test_scipy_loads_on_the_first_cdf_or_quantile(first_call):
    run = _fresh_run(_SCRIPT, first_call)
    assert run["before"] == []
    assert run["after"] is True
    if first_call == "cdf_array_direct":
        expected = [cdf_array_direct(q, _X).tobytes().hex() for q in _Q]
    else:
        expected = [[float.hex(quantile(q, p)) for p in _P] for q in _Q]
    assert run["out"] == expected


# argv: the first verdict ("table" or "gof") and the load ("private", or
# "fallback", where distribution._load_private raises).  Runs a small table
# and gof_test over every cdf branch, the first verdict first, then imports
# scipy.special and its cython_special, and prints the verdicts' bytes and
# what the later imports gave.
_LOADER_SCRIPT = """
import io, json, sys
import numpy as np
from qgauss import MapConfig, distribution, gof_test, run_trial_table

loaded = {}
load = distribution._load_private


def recorded(name, keep):
    if sys.argv[2] == "fallback":
        raise OSError("private load forced to fail")
    loaded[name] = load(name, keep)
    return loaded[name]


distribution._load_private = recorded
Q = [-1.0, 1.0, 1.5, 2.9]


def table():
    table = run_trial_table(Q, cfg=MapConfig(d=6, c=6), trials=2, samples=1500,
                            n_null=99, master_seed=5)
    csv = io.StringIO()
    table.to_csv(csv)
    return [csv.getvalue(), [[p.hex() for p in r.p_ks + r.p_ad] for r in table.rows]]


def gof():
    x = np.random.default_rng(3).standard_t(3.0, 1500)
    results = [gof_test(x, q, kind, n_null=99) for q in Q for kind in ("ks", "ad")]
    return [[r.statistic.hex(), r.p_value.hex()] for r in results]


order = [table, gof] if sys.argv[1] == "table" else [gof, table]
verdicts = {order[0].__name__: order[0]()}
package = "scipy.special" in sys.modules
verdicts[order[1].__name__] = order[1]()
import scipy
attribute = "special" in vars(scipy)
import scipy.special
import scipy.special.cython_special
from scipy.special import cython_special
ns = distribution._special()
print(json.dumps({
    "package": package,
    "attribute": attribute,
    "kernels": distribution._direct_kernels() is not None,
    "loaded": sorted(loaded),
    "real": scipy.special.__file__.endswith("__init__.py"),
    "ufuncs": [getattr(scipy.special, name) is getattr(ns, name)
               for name in distribution._UFUNCS],
    "extensions": [scipy.special.cython_special is cython_special,
                   cython_special is loaded.get("cython_special"),
                   sys.modules["scipy.special._ufuncs"] is loaded.get("_ufuncs")],
    "verdicts": verdicts,
}))
"""


@pytest.mark.parametrize("first", ["table", "gof"])
def test_first_verdict_loads_no_scipy_special_package(first):
    """After a first table or gof_test, scipy.special is not in
    sys.modules, nor an attribute of scipy; a later import of it, of its
    cython_special and the attribute access give the objects qgauss
    loaded."""
    run = _fresh_run(_LOADER_SCRIPT, first, "private")
    assert run["package"] is False
    assert run["attribute"] is False
    assert run["loaded"] == ["_ufuncs", "cython_special"]
    assert run["real"] is True
    assert run["ufuncs"] == [True] * 6
    assert run["extensions"] == [True] * 3


def test_fallback_gives_the_same_bytes():
    """With the private load forced to fail, the package is imported and
    every CSV, p-value and statistic keeps its bytes."""
    private = _fresh_run(_LOADER_SCRIPT, "table", "private")
    fallback = _fresh_run(_LOADER_SCRIPT, "table", "fallback")
    assert fallback["package"] is True
    assert fallback["loaded"] == []
    assert fallback["kernels"] == private["kernels"]
    assert fallback["ufuncs"] == [True] * 6
    assert fallback["verdicts"] == private["verdicts"]


# Pauses the private load of scipy.special._ufuncs, with the stand-in
# package in sys.modules, while four threads import scipy.special in four
# ways; prints whether they were still waiting when the load went on and
# whether each got the real package (or its ndtr).
_THREAD_SCRIPT = """
import importlib, importlib.util, json, sys, threading, time
from qgauss import distribution

seen, threads = {}, []


def plain():
    import scipy.special
    seen["import"] = scipy.special


def aliased():
    import scipy.special as sc
    seen["as"] = sc


def by_name():
    seen["import_module"] = importlib.import_module("scipy.special")


def from_list():
    from scipy.special import ndtr
    seen["from"] = ndtr


make = importlib.util.module_from_spec


def paused(spec):
    if spec.name == "scipy.special._ufuncs" and not threads:
        stub = sys.modules["scipy.special"]
        threads.extend(threading.Thread(target=f)
                       for f in (plain, aliased, by_name, from_list))
        for t in threads:
            t.start()
        time.sleep(0.5)
        seen["waited"] = (all(t.is_alive() for t in threads)
                          and sys.modules["scipy.special"] is stub)
    return make(spec)


importlib.util.module_from_spec = paused
ns = distribution._special()
for t in threads:
    t.join(timeout=60)
import scipy.special
print(json.dumps({
    "waited": seen.get("waited"),
    "real": scipy.special.__file__.endswith("__init__.py"),
    "package": [seen.get(k) is scipy.special for k in ("import", "as", "import_module")],
    "ndtr": seen.get("from") is ns.ndtr,
}))
"""


def test_import_during_the_load_gets_the_real_package():
    """A thread that imports scipy.special while the private load holds
    its stand-in in sys.modules waits, and gets the real package."""
    assert _fresh_run(_THREAD_SCRIPT) == {
        "waited": True, "real": True, "package": [True] * 3, "ndtr": True}


def test_build_and_pool_modules_are_imported_where_used():
    """subprocess and tempfile (only a build of _orbit.c needs them) and
    concurrent.futures (only run_trial_table with jobs > 1) are imported
    inside the functions that use them, at no module's top level, so
    importing the package loads them only where numpy does."""
    lazy = {"subprocess", "tempfile", "concurrent"}
    for path in sorted(Path(qgauss.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not {name.split(".")[0] for name in names} & lazy, path.name
