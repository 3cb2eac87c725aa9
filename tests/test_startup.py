"""What a fresh interpreter imports: scipy.special only once a cdf or
quantile is evaluated, and the build and thread-pool modules only where
they are used.

The generator, gbmm, the Lyapunov estimate, `qgauss gen` and the diag kinds
that evaluate no cdf must run without scipy, which is most of the package's
import time.  The first cdf_array_direct or quantile call loads
scipy.special and returns the same bytes as a call in this process.
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
                  "after": "scipy.special" in sys.modules, "out": out}))
""" % {"q": _Q, "p": _P}


def _fresh_run(first_call):
    env = dict(os.environ)
    src = str(Path(qgauss.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _SCRIPT, first_call],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.mark.parametrize("first_call", ["cdf_array_direct", "quantile"])
def test_scipy_loads_on_the_first_cdf_or_quantile(first_call):
    run = _fresh_run(first_call)
    assert run["before"] == []
    assert run["after"] is True
    if first_call == "cdf_array_direct":
        expected = [cdf_array_direct(q, _X).tobytes().hex() for q in _Q]
    else:
        expected = [[float.hex(quantile(q, p)) for p in _P] for q in _Q]
    assert run["out"] == expected


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
