"""Command line front end: gen, gof, table, diag.

All subcommands validate their arguments up front, emit machine-readable
errors as single-line JSON on stderr, and use three exit codes: 0 for
success, 2 for argument or domain errors, 3 for unreadable or malformed
input data.  Counts are checked under their flag names before any work
and before --out is opened.  CSV output is LF-terminated with a header
row and 17 significant digits, enough to round-trip doubles exactly.
gen's and diag's rows are formatted a block at a time by the compiled row
writer (_orbit.c, qgauss_write_rows), which gives the bytes of Python's
"%.17g" % formatting, or, where the library cannot be built, by that
formatting itself, and written as bytes to the output's binary layer.
The CSV files that gen and table write get a JSON sidecar
(<out>.meta.json) recording everything needed to reproduce them byte for
byte, and the time each stage took; gof's JSON report and diag's CSV get
none.  The parser is built once per process for each --jobs default, and
main looks each subcommand's function up by name when it runs.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import math
import os
import sys
import time
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, TextIO

import numpy as np

from . import __version__, _orbit, distribution
from .distribution import make_spec
from .generator import UniformStream, gbmm_generate, generate, init, step
from .maps import MapConfig, _check_count, _check_start, _radial_steps
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
# Every character a CSV row of _FLOAT_FMT values can hold.
_CSV_CHARS = "0123456789+-.,einaf\n"
# Rows per block that _write_rows formats: into one reused buffer of
# _orbit.FIELD_BYTES per value by the compiled row writer, or with one %
# call where the library cannot be built.  The bound keeps the buffer, and
# the fallback's strings and tuple, from growing with --count.
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


def _format_rows(block: np.ndarray) -> str:
    """The rows of a 2-d float block as CSV, each value in _FLOAT_FMT, with
    one % call: the compiled row writer's fallback and byte oracle."""
    rows, cols = block.shape
    row = ",".join([_FLOAT_FMT] * cols) + "\n"
    return (row * rows) % tuple(block.ravel().tolist())


def _byte_writer(fh: TextIO) -> Callable[[bytes], object]:
    """The write method of fh's binary layer, with fh flushed first so
    that the bytes follow the text already written; where fh has no binary
    layer (io.StringIO), or its encoding writes the characters of a CSV
    row otherwise than ASCII does (UTF-16), a write of the bytes to fh as
    ASCII text."""
    buffer = getattr(fh, "buffer", None)
    if buffer is None or _CSV_CHARS.encode(fh.encoding) != _CSV_CHARS.encode("ascii"):
        return lambda data: fh.write(str(data, "ascii"))
    fh.flush()
    return buffer.write


def _write_rows(fh: TextIO, blocks: Iterable[np.ndarray], header: str = "") -> None:
    """Write the header line, if any, then each 2-d float64 block, of at
    most _CSV_BLOCK rows, as CSV rows of _FLOAT_FMT values to fh's binary
    layer: through the compiled row writer into one reused buffer, or with
    _format_rows, encoded once, where it cannot be built.  The header goes
    through the same writer as the rows, so every line of a byte stream
    ends in LF, whatever newline its text layer translates to."""
    lib = _orbit.kernel()
    write = _byte_writer(fh)
    write(header.encode("ascii"))
    buf = np.empty(0, np.uint8)
    for block in blocks:
        if lib is None:
            write(_format_rows(block).encode("ascii"))
            continue
        need = _orbit.FIELD_BYTES * block.size
        if buf.size < need:
            buf = np.empty(need, np.uint8)
        n = _orbit.write_rows(lib, block, buf)
        write(memoryview(buf)[:n])


def _write_pairs(fh: TextIO, xi: np.ndarray, eta: np.ndarray, header: str = "") -> None:
    """The header line, if any, then one "xi,eta" row per pair, a block
    of _CSV_BLOCK rows at a time."""
    _write_rows(fh, (np.column_stack((xi[lo:lo + _CSV_BLOCK], eta[lo:lo + _CSV_BLOCK]))
                     for lo in range(0, xi.size, _CSV_BLOCK)), header)


def cmd_gen(args: argparse.Namespace) -> int:
    _check_count("--count", args.count, 0)
    t0 = time.perf_counter()
    batch = _smoke_batch(args)
    t1 = time.perf_counter()
    with _output(args.out) as fh:
        _write_pairs(fh, batch.xi, batch.eta, "xi,eta\n")
    t2 = time.perf_counter()
    if args.out != "-":
        _write_sidecar(args.out, {"command": "gen", **batch.metadata(),
                                  "generate_s": round(t1 - t0, 2),
                                  "write_s": round(t2 - t1, 2)})
        sys.stdout.write(json.dumps({"written": args.out, "count": batch.count}) + "\n")
    return EXIT_OK


def _read_sample_csv(path: str) -> np.ndarray:
    """First numeric column of a CSV, tolerating one header row.  The
    file is read as UTF-8, and a byte order mark before its first line is
    dropped, so that line's sample is kept; a file that is not UTF-8 is
    unreadable."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
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
    _check_count("--n-null", args.n_null, 1)
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
    _check_count("--trials", args.trials, 1)
    _check_count("--count", args.count, 1)
    _check_count("--n-null", args.n_null, 1)
    _check_count("--jobs", args.jobs, 1)
    t0 = time.perf_counter()
    table = run_trial_table(
        _parse_q_list(args.q_list),
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
            for z_next, _, _ in itertools.islice(_radial_steps(spec.q_int, mc, z), args.count):
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
        _check_count("--count", args.count, 1)
        lam = lyapunov(spec.q_int, mc, args.z0, args.count)
        theory = mc.c * math.log(mc.l)
        def rows():
            yield (lam, theory, lam / theory - 1.0)
        return "lambda,c_log_l,rel_err", rows()
    if what == "autocorr":
        _check_count("--count", args.count, 1)
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


def _row_blocks(rows: Iterator[Sequence[float]]) -> Iterator[np.ndarray]:
    """The rows as 2-d float64 blocks of at most _CSV_BLOCK rows."""
    while True:
        block = np.array(list(itertools.islice(rows, _CSV_BLOCK)), dtype=float)
        if not len(block):
            return
        yield block


def cmd_diag(args: argparse.Namespace) -> int:
    header, rows = _diag_rows(args)
    with _output(args.out) as fh:
        _write_rows(fh, _row_blocks(rows), header + "\n")
    return EXIT_OK


def _usable_cpus() -> int:
    """The CPUs this process may run on; os.cpu_count() where the platform
    has no affinity mask (macOS, Windows)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _build_parser() -> _Parser:
    """The command line parser, whose table --jobs default is the CPU
    count this process may use now: affinity can change between calls."""
    return _parser(_usable_cpus())


@functools.lru_cache(maxsize=None)
def _parser(jobs: int) -> _Parser:
    """The parser with table --jobs defaulting to jobs, built once per
    process and value: building one costs about a hundred argparse help
    formatters, each of which asks for the terminal size."""
    parser = _Parser(prog="qgauss", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True,
                            parser_class=_Parser)

    p = sub.add_parser("gen",
                       help="generate samples as CSV (xi,eta)")
    _add_generator_args(p)
    p.add_argument("--count", type=int, default=10000, help="samples to generate")
    p.add_argument("--method", choices=("chaotic", "gbmm"), default="chaotic")
    p.add_argument("--out", default="-", help="output CSV path, '-' for stdout")

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
    p.add_argument("--jobs", type=int, default=jobs,
                   help="worker threads, at most one per q' (default: the "
                   "usable CPU count, %(default)s; results independent of this)")
    p.add_argument("--out", default="-")

    p = sub.add_parser("diag", help="diagnostic CSV dumps")
    _add_generator_args(p)
    p.add_argument("--what", required=True,
                   choices=("return_map", "sample_path", "ccdf_compare",
                            "lyapunov", "autocorr", "joint_grid"))
    p.add_argument("--count", type=int, default=10000)
    p.add_argument("--method", choices=("chaotic", "gbmm"), default="chaotic")
    p.add_argument("--max-lag", type=int, default=100, dest="max_lag")
    p.add_argument("--out", default="-")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    # Looked up by name at each call, not bound into the cached parser, so
    # that whatever cmd_<name> is bound to now (a wrapper, a test's stub)
    # is what runs.
    command = globals()["cmd_" + args.command]
    try:
        return command(args)
    except DataError as exc:
        _fail(EXIT_DATA, "data", str(exc))
    except (ValueError, ArithmeticError) as exc:
        _fail(EXIT_USAGE, "domain", str(exc))
    except OSError as exc:
        _fail(EXIT_DATA, "io", str(exc))


if __name__ == "__main__":
    sys.exit(main())
