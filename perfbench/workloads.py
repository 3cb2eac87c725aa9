"""The four benchmark workloads: inputs, the fixed job, and output checks.

The benchmark derives every input from the workload seed; qgauss only sees
the generated CLI flags, sample files and call arguments.  A job is the
workload's fixed list of requests, run through the package's public entry
points (`qgauss.cli.main`, `qgauss.run_trial_table`, `qgauss.lyapunov`) in
one process with one client.  Each request is one operation.  It fails if
it raises, exits non-zero, or its output fails a check.

Jobs are repeated within a run.  Null-distribution seeds are drawn per
repetition, so every repetition builds its nulls cold, as a fresh
`qgauss table` or `qgauss gof` process does.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional, Tuple

import numpy as np

import qgauss
import qgauss.cli

WORKLOADS = ("table", "gen", "gof", "diag")

# The two generator configurations of the acceptance tables: (d, l, c).
CONFIGS = ((8, 2, 1), (6, 2, 6))
TABLE_GRID = (-1.0, 0.0, 1.0, 1.5, 2.0, 2.3, 2.4, 2.5, 2.6, 2.8, 2.9)


@dataclass(frozen=True)
class Sizes:
    """How much work one job does.  FULL is the benchmark; TINY is for tests."""

    table_trials: int
    table_samples: int
    table_n_null: int
    gen_count: int
    gof_n_null: int
    gof_cases: Tuple[Tuple[float, int], ...]  # (q', M)
    diag_t: int
    setup_probes: int
    name: str


FULL = Sizes(
    table_trials=5, table_samples=10_000, table_n_null=999,
    gen_count=20_000,
    gof_n_null=999, gof_cases=((-1.0, 500), (1.0, 500), (1.5, 1000), (2.5, 2000)),
    diag_t=20_000,
    setup_probes=5,
    name="full",
)
TINY = Sizes(
    table_trials=2, table_samples=1000, table_n_null=199,
    gen_count=300,
    gof_n_null=99, gof_cases=((-1.0, 100), (1.0, 100), (1.5, 200), (2.5, 300)),
    diag_t=3000,
    setup_probes=1,
    name="tiny",
)

# A table job is one monolithic ~15 s run; the run's median takes two, so
# that one stretch of a slow host does not set the run's figure alone.
MIN_JOBS = {"table": 2}

DIGESTS = Path(__file__).resolve().parent / "digests.json"


def _derived(seed: int, *tags: int) -> int:
    """A 62-bit integer drawn from (seed, tags); used for seeds qgauss gets."""
    state = np.random.SeedSequence([seed, *tags]).generate_state(1, np.uint64)[0]
    return int(state) >> 2


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def _start(rng: np.random.Generator, q: float) -> Tuple[float, float, int]:
    """(v0, z0, w0_sign) inside the radial support, away from its edge."""
    v0 = 0.05 + 0.9 * float(rng.random())
    q_int = qgauss.make_spec(q).q_int
    z_max = math.sqrt(2.0 / (1.0 - q_int)) if q_int < 1.0 else 2.0
    z0 = (0.05 + 0.9 * float(rng.random())) * z_max
    w0_sign = 1 if rng.random() < 0.5 else -1
    return v0, z0, w0_sign


def _draw(rng: np.random.Generator, q: float, m: int) -> np.ndarray:
    """m draws from the unit-scale family member q' (numpy, not qgauss)."""
    if q < 1.0:
        half = math.sqrt((3.0 - q) / (1.0 - q))
        a = 1.0 + 1.0 / (1.0 - q)
        return half * (2.0 * rng.beta(a, a, m) - 1.0)
    if q == 1.0:
        return rng.standard_normal(m)
    return rng.standard_t((3.0 - q) / (q - 1.0), m)


def _short(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


@dataclass
class Request:
    """One operation: what to call, and how to check and fingerprint it."""

    label: str
    call: Callable[[], object]
    check: Callable[[object], Optional[str]]  # None when the output is right
    digest: Callable[[object], str]


class Workload:
    """Inputs of one workload and seed; `requests(rep)` is the job."""

    def __init__(self, name: str, seed: int, sizes: Sizes, workdir: Path):
        if name not in WORKLOADS:
            raise ValueError("unknown workload %r" % (name,))
        self.name = name
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        getattr(self, "_setup_" + name)()

    def requests(self, rep: int) -> List[Request]:
        return getattr(self, "_requests_" + self.name)(rep)

    # -- table -------------------------------------------------------------

    def _setup_table(self) -> None:
        self.configs = [qgauss.MapConfig(d=d, l=l, c=c) for d, l, c in CONFIGS]

    def _requests_table(self, rep: int) -> List[Request]:
        s = self.sizes
        null_seed = _derived(self.seed, 0, rep)

        def call(cfg):
            return lambda: qgauss.run_trial_table(
                list(TABLE_GRID), cfg=cfg, trials=s.table_trials,
                samples=s.table_samples, master_seed=self.seed,
                n_null=s.table_n_null, null_seed=null_seed, jobs=1,
            )

        def digest(table) -> str:
            out = io.StringIO()
            table.to_csv(out)
            return _short(out.getvalue().encode())

        return [
            Request("table d=%d c=%d" % (cfg.d, cfg.c), call(cfg), _check_table, digest)
            for cfg in self.configs
        ]

    # -- gen ---------------------------------------------------------------

    def _setup_gen(self) -> None:
        rng = _rng(self.seed, "gen")
        count = str(self.sizes.gen_count)
        self.gen_argv = []
        for q in (-1.0, 1.0, 1.5, 2.9):
            for d, l, c in CONFIGS:
                v0, z0, sign = _start(rng, q)
                self.gen_argv.append([
                    "gen", "--q", repr(q), "--d", str(d), "--l", str(l), "--c", str(c),
                    "--v0", repr(v0), "--z0", repr(z0), "--w0-sign", str(sign),
                    "--count", count,
                ])
        master = _derived(self.seed, 1)
        self.gen_argv.append(
            ["gen", "--method", "gbmm", "--q", "1.5", "--seed", str(master), "--count", count]
        )

    def _requests_gen(self, rep: int) -> List[Request]:
        reqs = []
        for i, argv in enumerate(self.gen_argv):
            path = self.workdir / ("gen-%d.csv" % i)
            reqs.append(Request(
                " ".join(argv[1:5]),
                _cli_call(argv + ["--out", str(path)], lambda p=path: p.read_bytes()),
                functools.partial(_check_gen_csv, argv),
                _short,
            ))
        return reqs

    # -- gof ---------------------------------------------------------------

    def _setup_gof(self) -> None:
        rng = _rng(self.seed, "gof")
        self.gof_inputs = []
        for i, (q, m) in enumerate(self.sizes.gof_cases):
            path = self.workdir / ("gof-%d.csv" % i)
            x = _draw(rng, q, m)
            path.write_text("x\n" + "".join(repr(float(v)) + "\n" for v in x))
            self.gof_inputs.append((q, m, path))

    def _requests_gof(self, rep: int) -> List[Request]:
        n_null = self.sizes.gof_n_null
        reqs = []
        for i, (q, m, path) in enumerate(self.gof_inputs):
            out = self.workdir / ("gof-%d.json" % i)
            argv = [
                "gof", "--q", repr(q), "--in", str(path), "--kind", "both",
                "--n-null", str(n_null), "--null-seed", str(_derived(self.seed, 2, rep, i)),
                "--out", str(out),
            ]
            reqs.append(Request(
                "gof q=%r M=%d" % (q, m),
                _cli_call(argv, lambda o=out: o.read_bytes()),
                functools.partial(_check_gof, q, m, n_null),
                _short,
            ))
        return reqs

    # -- diag --------------------------------------------------------------

    def _setup_diag(self) -> None:
        rng = _rng(self.seed, "diag")
        self.diag_inputs = []
        for l, c in ((2, 1), (2, 6), (3, 1)):
            for q in (-0.5, 0.5, 1.5):
                _, z0, _ = _start(rng, q)
                self.diag_inputs.append((qgauss.MapConfig(l=l, c=c), qgauss.make_spec(q).q_int, z0))

    def _requests_diag(self, rep: int) -> List[Request]:
        t = self.sizes.diag_t
        return [
            Request(
                "lyapunov l=%d c=%d q_int=%.4g" % (cfg.l, cfg.c, q_int),
                lambda cfg=cfg, q_int=q_int, z0=z0: qgauss.lyapunov(q_int, cfg, z0, t),
                functools.partial(_check_lyapunov, cfg),
                lambda lam: _short(repr(lam).encode()),
            )
            for cfg, q_int, z0 in self.diag_inputs
        ]


def _cli_call(argv: List[str], read: Callable[[], bytes]) -> Callable[[], bytes]:
    """Run `qgauss.cli.main(argv)` and return the output file's bytes."""

    def call() -> bytes:
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                code = qgauss.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        if code != 0:
            raise RuntimeError("qgauss %s exited with %r" % (argv[0], code))
        return read()

    return call


# -- output checks: each returns None, or what is wrong ---------------------


def _check_table(table) -> Optional[str]:
    rows = {row.q_out: row for row in table.rows}
    if tuple(rows) != TABLE_GRID:
        return "rows %r, expected the grid %r" % (tuple(rows), TABLE_GRID)
    lo = 1.0 / (table.n_null + 1.0)
    for row in table.rows:
        for p in row.p_ks + row.p_ad:
            if not lo <= p <= 1.0:
                return "q'=%r: p-value %r outside [%r, 1]" % (row.q_out, p, lo)
    gauss = rows[1.0]
    if not (gauss.p_ks_best > 0.05 and gauss.p_ad_best > 0.05):
        return "q'=1 best p (KS %r, AD %r) not above 0.05" % (gauss.p_ks_best, gauss.p_ad_best)
    if not rows[2.9].p_ks_best < 0.01:
        return "q'=2.9 KS best p %r not below 0.01" % (rows[2.9].p_ks_best,)
    return None


def _regenerate(argv: List[str], n: int) -> np.ndarray:
    """First n (xi, eta) rows of a gen request, straight from the library."""
    opts = dict(zip(argv[1::2], argv[2::2]))
    spec = qgauss.make_spec(float(opts["--q"]))
    if opts.get("--method") == "gbmm":
        batch = qgauss.gbmm_generate(spec, qgauss.UniformStream(int(opts["--seed"])), n)
    else:
        cfg = qgauss.MapConfig(d=int(opts["--d"]), l=int(opts["--l"]), c=int(opts["--c"]))
        state = qgauss.init(
            spec, cfg, v0=float(opts["--v0"]), z0=float(opts["--z0"]),
            w0_sign=int(opts["--w0-sign"]),
        )
        batch = qgauss.generate(state, n)
    return np.column_stack([batch.xi, batch.eta])


def _check_gen_csv(argv: List[str], data: bytes) -> Optional[str]:
    lines = data.decode().split("\n")
    count = int(argv[argv.index("--count") + 1])
    if lines[0] != "xi,eta" or lines[-1] != "" or len(lines) != count + 2:
        return "CSV is not a header plus %d rows" % (count,)
    values = np.empty((count, 2))
    for i, line in enumerate(lines[1:-1]):
        fields = line.split(",")
        row = [float(f) for f in fields]
        if len(row) != 2 or not all(math.isfinite(v) for v in row):
            return "row %d is not two finite numbers: %r" % (i + 1, line)
        if ["%.17g" % v for v in row] != fields:
            return "row %d does not round-trip: %r" % (i + 1, line)
        values[i] = row
    head = min(64, count)
    if not np.array_equal(values[:head], _regenerate(argv, head)):
        return "the first %d rows differ from the library's output" % (head,)
    return None


def _check_gof(q: float, m: int, n_null: int, data: bytes) -> Optional[str]:
    results = json.loads(data)["results"]
    if [r["kind"] for r in results] != ["ks", "ad"]:
        return "expected KS and AD results, got %r" % ([r["kind"] for r in results],)
    lo = 1.0 / (n_null + 1.0)
    for r in results:
        if r["q"] != q or r["n_samples"] != m or r["n_null"] != n_null:
            return "%s result echoes the wrong request: %r" % (r["kind"], r)
        if not (math.isfinite(r["statistic"]) and r["statistic"] >= 0.0):
            return "%s statistic %r" % (r["kind"], r["statistic"])
        if not lo <= r["p_value"] <= 1.0:
            return "%s p-value %r outside [%r, 1]" % (r["kind"], r["p_value"], lo)
    return None


def _check_lyapunov(cfg, lam: float) -> Optional[str]:
    rel = lam / (cfg.c * math.log(cfg.l)) - 1.0
    if not abs(rel) <= 0.01:
        return "lambda %r is %.3g away from c*log(l)" % (lam, rel)
    return None


def recorded_digests(workload: str, seed: int, sizes: Sizes) -> Optional[List[str]]:
    """Per-request output digests recorded at the seed commit, if any."""
    if sizes.name != FULL.name or not DIGESTS.is_file():
        return None
    return json.loads(DIGESTS.read_text()).get(workload, {}).get(str(seed))
