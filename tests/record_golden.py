"""Record the sha256 digests that pin qgauss output bytes in tier-1.

    PYTHONPATH=src python tests/record_golden.py

rewrites tests/golden.json from the package on the path and names every
entry whose digest differs from the file it replaces.  tests/test_golden.py
recomputes every entry but the two tables and compares; the two acceptance
tables are compared by test_acceptance.py, from its module fixtures.  A
change meant to move output bits re-records only the entries it moves, and
says which in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import sys
import tempfile
from typing import Callable, Dict

import numpy as np

from qgauss import cli
from qgauss.distribution import (
    cdf_array,
    cdf_array_direct,
    joint_pdf,
    pdf,
    quantile,
    support,
)
from qgauss.generator import UniformStream, gbmm_generate, generate, init, make_spec
from qgauss.maps import MapConfig
from qgauss.stats import _null_statistics, lyapunov

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")

# q' reaching every branch of the radial step: the semicircle, q_int < 1,
# the two sides of the Gaussian band |q_int - 1| < 1e-12, q_int > 1, and the
# u floor (q' = 2.99, q_int = 399).
GENERATE_Q = (-1.0, 0.5, 1.0 - 5e-13, 1.0, 1.0 + 5e-13, 1.5, 2.9, 2.99)
# d = 2, and the maps of the two acceptance tables.
GENERATE_MAPS = (MapConfig(d=2), MapConfig(d=8, l=2, c=1), MapConfig(d=6, l=2, c=6))
GENERATE_COUNT = 50_000
GBMM_Q = (-1.0, 1.5, 2.9)
GBMM_COUNT = 2_000
NULL_CASES = ((50, 199), (3_000, 199))  # (M, n_null): one block, many blocks
LYAPUNOV_MAPS = ((2, 1), (2, 6), (3, 1))  # (l, c) of criterion 6
LYAPUNOV_Q = (-0.5, 0.5, 1.5)
LYAPUNOV_T = 20_000
# The closed forms are pinned at the q' of GENERATE_Q, which reach the same
# branches: the compact members, the two sides of the Gaussian band, the
# Student-t members and q' = 2.99.  At -0.7, 0.9 and 1.7 the x**2 scale
# |1-q'|/(3-q') differs in its last bit from |1-q'|*(1/(3-q')), so there
# the pins also see a constant derived in another order.  x crosses the
# compact supports' edges and is extended by 0 and the edges +-L
# themselves where L is finite; the cdf arrays also see +-1e200, far past
# where k*x*x overflows.
DIST_Q = GENERATE_Q + (-0.7, 0.9, 1.7)
DIST_X = np.linspace(-5.0, 5.0, 41)
DIST_FAR_X = (-1e200, 1e200)
DIST_P = (1e-299, 1e-100, 1e-12, 0.01, 0.25, 0.5, 0.75, 0.99, 1.0 - 1e-12)
DIST_FUNCTIONS = {
    "support": lambda q, x: support(q),
    "pdf": lambda q, x: [pdf(q, v) for v in x],
    "cdf_array": lambda q, x: cdf_array(q, np.append(x, DIST_FAR_X)),
    "cdf_array_direct": lambda q, x: cdf_array_direct(q, np.append(x, DIST_FAR_X)),
    "quantile": lambda q, x: [quantile(q, p) for p in DIST_P],
    "joint_pdf": lambda q, x: [joint_pdf(q, a, b) for a in x[::4] for b in x[::4]],
}


def _sha(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


def _f8(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a, dtype="<f8").tobytes()


def _generate(cfg: MapConfig, q: float) -> str:
    batch = generate(init(make_spec(q), cfg, v0=0.1, z0=1.0), GENERATE_COUNT)
    return _sha(_f8(batch.xi), _f8(batch.eta))


def _gbmm(q: float) -> str:
    batch = gbmm_generate(make_spec(q), UniformStream(20260839), GBMM_COUNT)
    return _sha(_f8(batch.xi), _f8(batch.eta))


def _null(m: int, n_null: int) -> str:
    ks, ad = _null_statistics(m, n_null, 0x5EED)
    return _sha(_f8(ks), _f8(ad))


def _lyapunov(l: int, c: int, q: float) -> str:
    return lyapunov(make_spec(q).q_int, MapConfig(l=l, c=c), 1.0, LYAPUNOV_T).hex()


def _distribution(name: str, q: float) -> str:
    lo, hi = support(q)
    x = np.append(DIST_X, [0.0, lo, hi] if math.isfinite(hi) else [0.0])
    return _sha(_f8(np.asarray(DIST_FUNCTIONS[name](q, x), dtype=float)))


def _cli() -> str:
    """`qgauss gen --out f` then `qgauss gof --in f`: both files' bytes."""
    with tempfile.TemporaryDirectory() as tmp:
        sample = os.path.join(tmp, "xi.csv")
        report = os.path.join(tmp, "gof.json")
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["gen", "--q", "2.5", "--count", "2000", "--out", sample])
            cli.main(["gof", "--q", "2.5", "--in", sample, "--kind", "both",
                      "--n-null", "199", "--out", report])
        with open(sample, "rb") as fh, open(report, "rb") as gh:
            return _sha(fh.read(), gh.read())


def cases() -> Dict[str, Callable[[], str]]:
    """Every entry but the tables: name -> function computing its digest."""
    out: Dict[str, Callable[[], str]] = {}
    for cfg in GENERATE_MAPS:
        for q in GENERATE_Q:
            name = "generate d=%d l=%d c=%d q=%r" % (cfg.d, cfg.l, cfg.c, q)
            out[name] = lambda cfg=cfg, q=q: _generate(cfg, q)
    for q in GBMM_Q:
        out["gbmm_generate q=%r" % (q,)] = lambda q=q: _gbmm(q)
    for m, n_null in NULL_CASES:
        out["null M=%d n_null=%d" % (m, n_null)] = lambda m=m, n=n_null: _null(m, n)
    for l, c in LYAPUNOV_MAPS:
        for q in LYAPUNOV_Q:
            name = "lyapunov l=%d c=%d q=%r" % (l, c, q)
            out[name] = lambda l=l, c=c, q=q: _lyapunov(l, c, q)
    for name in DIST_FUNCTIONS:
        for q in DIST_Q:
            out["distribution %s q=%r" % (name, q)] = lambda f=name, q=q: _distribution(f, q)
    out["cli gen then gof --in"] = _cli
    return out


def table_digest(table) -> str:
    buf = io.StringIO()
    table.to_csv(buf)
    return _sha(buf.getvalue().encode())


def _load() -> Dict[str, str]:
    try:
        with open(GOLDEN_PATH) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


GOLDEN = _load()


def main() -> int:
    from test_acceptance import TABLE_MAPS, acceptance_table

    record = {name: fn() for name, fn in cases().items()}
    for name in TABLE_MAPS:
        record[name] = table_digest(acceptance_table(name))
    moved = sorted(name for name in set(record) | set(GOLDEN)
                   if record.get(name) != GOLDEN.get(name))
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    sys.stdout.write("wrote %d digests to %s, %d changed\n"
                     % (len(record), GOLDEN_PATH, len(moved)))
    for name in moved:
        sys.stdout.write("changed: %s\n" % (name,))
    return 0


if __name__ == "__main__":
    sys.exit(main())
