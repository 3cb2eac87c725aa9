"""Command line front end: gen, gof, table, diag.

All subcommands validate their arguments up front, emit machine-readable
errors as single-line JSON on stderr, and use three exit codes: 0 for
success, 2 for argument or domain errors, 3 for unreadable or malformed
input data.  CSV output is LF-terminated with a header row and 17
significant digits, enough to round-trip doubles exactly.  The CSV files
that gen and table write get a JSON sidecar (<out>.meta.json) recording
everything needed to reproduce them byte for byte; gof's JSON report and
diag's CSV get none.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import time
from typing import Iterator, List, Optional, Sequence, TextIO

import numpy as np

from . import __version__, distribution
from .distribution import make_spec
from .generator import UniformStream, gbmm_generate, generate, init, step
from .maps import MapConfig, _check_count, _check_start, z_map
from .stats import (
    _KINDS,
    DEFAULT_NULL_SEED,
    autocorrelation,
    gof_test,
    lyapunov,
    run_trial_table,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3

_FLOAT_FMT = "%.17g"
_PAIR_ROW = _FLOAT_FMT + "," + _FLOAT_FMT + "\n"
# Rows formatted per % call in _write_pairs.  One call per block is what
# makes the write fast; the bound keeps its strings and tuple from growing
# with --count.
_CSV_BLOCK = 8192


class DataError(Exception):
    """Unreadable or malformed input data (exit code 3)."""


def _fail(code: int, kind: str, message: str) -> "NoReturn":  # noqa: F821
    sys.stderr.write(json.dumps({"error": kind, "message": message}) + "\n")
    raise SystemExit(code)


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors are JSON on stderr, exit 2."""

    def error(self, message: str) -> "NoReturn":  # noqa: F821
        _fail(EXIT_USAGE, "usage", message)


def _add_map_args(p: argparse.ArgumentParser) -> None:
    """The map flags and --seed, which every subcommand reads."""
    p.add_argument("--d", type=int, default=8, help="circle map degree (2..8)")
    p.add_argument("--l", type=int, default=2, help="fold order (>= 2)")
    p.add_argument("--c", type=int, default=1, help="folds per step (>= 1)")
    p.add_argument("--epsilon", type=float, default=5e-6, help="fold slope depression")
    p.add_argument("--seed", type=int, default=20260839,
                   help="master seed for uniform streams and trial starts")


def _add_generator_args(p: argparse.ArgumentParser) -> None:
    """The map flags plus q' and the orbit's start: gen and diag."""
    _add_map_args(p)
    p.add_argument("--q", type=float, default=1.0, help="output deformation q' (< 3)")
    p.add_argument("--v0", type=float, default=0.1, help="circle seed, 0 < v0 < 1")
    p.add_argument("--z0", type=float, default=1.0, help="radial seed, z0 > 0")
    p.add_argument("--w0-sign", type=int, default=1, choices=(1, -1),
                   help="sign of the initial w component")


def _map_config(args: argparse.Namespace) -> MapConfig:
    return MapConfig(d=args.d, l=args.l, c=args.c, epsilon=args.epsilon)


@contextlib.contextmanager
def _output(path: str) -> Iterator[TextIO]:
    """stdout for "-", which is left open, or the file at path, opened
    with LF line ends and closed on exit."""
    if path == "-":
        yield sys.stdout
        return
    with open(path, "w", newline="\n") as fh:
        yield fh


def _write_sidecar(path: str, payload: dict) -> None:
    """Write payload, with the package version, to <path>.meta.json."""
    with open(path + ".meta.json", "w") as fh:
        json.dump(dict(payload, version=__version__), fh, indent=2,
                  sort_keys=True)
        fh.write("\n")


def _smoke_batch(args: argparse.Namespace):
    """Generate one batch as the generator arguments and --method ask."""
    spec = make_spec(args.q)
    if args.method == "gbmm":
        return gbmm_generate(spec, UniformStream(args.seed), args.count)
    state = init(spec, _map_config(args), v0=args.v0, z0=args.z0,
                 w0_sign=args.w0_sign)
    return generate(state, args.count)


def _write_pairs(fh: TextIO, xi: np.ndarray, eta: np.ndarray) -> None:
    """One "xi,eta" row per pair, in _FLOAT_FMT, a block at a time."""
    for lo in range(0, xi.size, _CSV_BLOCK):
        flat = np.column_stack((xi[lo:lo + _CSV_BLOCK], eta[lo:lo + _CSV_BLOCK]))
        fh.write((_PAIR_ROW * (flat.size // 2)) % tuple(flat.ravel().tolist()))


def cmd_gen(args: argparse.Namespace) -> int:
    batch = _smoke_batch(args)
    with _output(args.out) as fh:
        fh.write("xi,eta\n")
        _write_pairs(fh, batch.xi, batch.eta)
    if args.out != "-":
        meta = {"command": "gen", "master_seed": args.seed}
        meta.update(batch.metadata())
        _write_sidecar(args.out, meta)
        sys.stdout.write(json.dumps({"written": args.out, "count": batch.count}) + "\n")
    return EXIT_OK


def _read_sample_csv(path: str) -> np.ndarray:
    """First numeric column of a CSV, tolerating one header row."""
    try:
        with open(path, "r") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise DataError("cannot read %s: %s" % (path, exc)) from exc
    values: List[float] = []
    for ln, line in enumerate(lines):
        if not line.strip():
            continue
        first = line.split(",")[0].strip()
        try:
            x = float(first)
        except ValueError:
            if ln == 0:
                continue  # header row
            raise DataError("%s line %d: not a number: %r" % (path, ln + 1, first))
        if not math.isfinite(x):
            raise DataError("%s line %d: non-finite sample %r" % (path, ln + 1, first))
        values.append(x)
    if not values:
        raise DataError("%s contains no numeric samples" % (path,))
    return np.asarray(values)


def cmd_gof(args: argparse.Namespace) -> int:
    samples = _read_sample_csv(args.infile)
    kinds = _KINDS if args.kind == "both" else (args.kind,)
    results = []
    for kind in kinds:
        r = gof_test(samples, args.q, kind=kind, n_null=args.n_null,
                     seed=args.null_seed)
        results.append({
            "q": r.q_out,
            "kind": r.kind,
            "statistic": r.statistic,
            "p_value": r.p_value,
            "n_samples": r.n_samples,
            "n_null": r.n_null,
            "pass_at_0.05": bool(r.p_value > 0.05),
        })
    with _output(args.out) as fh:
        json.dump({"results": results}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return EXIT_OK


def _parse_q_list(text: str) -> List[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValueError("bad --q-list: %s" % (exc,)) from exc


def cmd_table(args: argparse.Namespace) -> int:
    q_list = _parse_q_list(args.q_list)
    if not q_list:
        raise ValueError("--q-list resolved to no grid points")
    t0 = time.perf_counter()
    table = run_trial_table(
        q_list,
        cfg=_map_config(args),
        trials=args.trials,
        samples=args.count,
        master_seed=args.seed,
        n_null=args.n_null,
        null_seed=args.null_seed,
        jobs=args.jobs,
    )
    elapsed = time.perf_counter() - t0
    with _output(args.out) as fh:
        table.to_csv(fh)
    if args.out != "-":
        meta = {"command": "table", "elapsed_s": round(elapsed, 2)}
        meta.update(table.metadata())
        _write_sidecar(args.out, meta)
    return EXIT_OK


def _diag_rows(args: argparse.Namespace):
    """(header, row iterator) for one diagnostic kind."""
    spec = make_spec(args.q)
    mc = _map_config(args)
    what = args.what
    # Domain errors are raised here, before cmd_diag opens the output, so
    # they leave no file.
    if what == "return_map":
        _check_count("--count", args.count, 0)
        _check_start(spec.q_int, mc, args.z0)
        def rows():
            z = args.z0
            for _ in range(args.count):
                z_next = z_map(spec.q_int, mc, z)
                yield (z, z_next)
                z = z_next
        return "z,z_next", rows()
    if what == "sample_path":
        _check_count("--count", args.count, 0)
        state = init(spec, mc, v0=args.v0, z0=args.z0, w0_sign=args.w0_sign)
        def rows():
            for n in range(args.count):
                xi, eta = step(state)
                yield (float(n + 1), xi, eta, state.w, state.v, state.z)
        return "step,xi,eta,w,v,z", rows()
    if what == "ccdf_compare":
        _check_count("--count", args.count, 1)
        batch = _smoke_batch(args)
        x = np.sort(batch.xi)[::-1]
        n = x.size
        ranks = np.unique(np.geomspace(1, n, num=min(200, n)).astype(int))
        def rows():
            for k in ranks:
                xv = float(x[k - 1])
                yield (xv, distribution.ccdf(args.q, xv), k / n)
        return "x,ccdf_model,ccdf_empirical", rows()
    if what == "lyapunov":
        lam = lyapunov(spec.q_int, mc, args.z0, args.count)
        theory = mc.c * math.log(mc.l)
        def rows():
            yield (lam, theory, lam / theory - 1.0)
        return "lambda,c_log_l,rel_err", rows()
    if what == "autocorr":
        _check_count("--max-lag", args.max_lag, 0)
        batch = _smoke_batch(args)
        lags = range(0, min(args.max_lag, batch.count - 1) + 1)
        c0 = autocorrelation(batch.xi, 0)
        if c0 == 0.0:
            raise ValueError("autocorr needs a sample that varies: "
                             "the lag-0 autocovariance is 0")
        def rows():
            for m in lags:
                cm = autocorrelation(batch.xi, m)
                yield (float(m), cm, cm / c0)
        return "lag,autocovariance,ratio_to_lag0", rows()
    if what == "joint_grid":
        lo, hi = distribution.support(args.q)
        span = min(4.0, hi) if math.isfinite(hi) else 4.0
        grid = np.linspace(-span, span, 61)
        def rows():
            for xi in grid:
                for eta in grid:
                    yield (xi, eta, distribution.joint_pdf(args.q, xi, eta))
        return "xi,eta,joint_pdf", rows()
    raise ValueError("unknown diagnostic %r" % (what,))


def cmd_diag(args: argparse.Namespace) -> int:
    header, rows = _diag_rows(args)
    with _output(args.out) as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_FLOAT_FMT % v for v in row) + "\n")
    return EXIT_OK


def _usable_cpus() -> int:
    """The CPUs this process may run on; os.cpu_count() where the platform
    has no affinity mask (macOS, Windows)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _build_parser() -> _Parser:
    parser = _Parser(prog="qgauss", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True,
                            parser_class=_Parser)

    p = sub.add_parser("gen",
                       help="generate samples as CSV (xi,eta)")
    _add_generator_args(p)
    p.add_argument("--count", type=int, default=10000, help="samples to generate")
    p.add_argument("--method", choices=("chaotic", "gbmm"), default="chaotic")
    p.add_argument("--out", default="-", help="output CSV path, '-' for stdout")
    p.set_defaults(fn=cmd_gen)

    # Scores a sample file only; `qgauss gen --out FILE` makes a fresh one.
    p = sub.add_parser("gof",
                       help="goodness-of-fit test of a sample file against the model cdf")
    p.add_argument("--q", type=float, default=1.0, help="model deformation q' (< 3)")
    p.add_argument("--in", dest="infile", required=True,
                   help="CSV of samples (first column)")
    p.add_argument("--kind", choices=(*_KINDS, "both"), default="both")
    p.add_argument("--n-null", type=int, default=999, dest="n_null")
    p.add_argument("--null-seed", type=int, default=DEFAULT_NULL_SEED, dest="null_seed")
    p.add_argument("--out", default="-")
    p.set_defaults(fn=cmd_gof)

    # Whole flag names only, so gen's --q is not read as --q-list here.
    p = sub.add_parser("table", allow_abbrev=False,
                       help="best-of-trials p-value table over a q grid")
    _add_map_args(p)
    p.add_argument("--q-list", dest="q_list",
                   default="-1.0,0.0,1.0,1.5,2.0,2.3,2.4,2.5,2.6,2.8,2.9",
                   help="comma separated q' grid")
    p.add_argument("--count", type=int, default=10000,
                   help="samples per trial")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--n-null", type=int, default=999, dest="n_null")
    p.add_argument("--null-seed", type=int, default=DEFAULT_NULL_SEED, dest="null_seed")
    p.add_argument("--jobs", type=int, default=_usable_cpus(),
                   help="worker processes, at most one per q' (default: the "
                   "usable CPU count, %(default)s; results independent of this)")
    p.add_argument("--out", default="-")
    p.set_defaults(fn=cmd_table)

    p = sub.add_parser("diag", help="diagnostic CSV dumps")
    _add_generator_args(p)
    p.add_argument("--what", required=True,
                   choices=("return_map", "sample_path", "ccdf_compare",
                            "lyapunov", "autocorr", "joint_grid"))
    p.add_argument("--count", type=int, default=10000)
    p.add_argument("--method", choices=("chaotic", "gbmm"), default="chaotic")
    p.add_argument("--max-lag", type=int, default=100, dest="max_lag")
    p.add_argument("--out", default="-")
    p.set_defaults(fn=cmd_diag)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except DataError as exc:
        _fail(EXIT_DATA, "data", str(exc))
    except (ValueError, ArithmeticError) as exc:
        _fail(EXIT_USAGE, "domain", str(exc))
    except OSError as exc:
        _fail(EXIT_DATA, "io", str(exc))


if __name__ == "__main__":
    sys.exit(main())
