"""Command line front end: gen, gof, table, diag.

All subcommands validate their arguments up front, emit machine-readable
errors as single-line JSON on stderr, and use three exit codes: 0 for
success, 2 for argument or domain errors, 3 for unreadable or malformed
input data.  CSV output is LF-terminated with a header row and 17
significant digits, enough to round-trip doubles exactly; file outputs get
a JSON sidecar (<out>.meta.json) recording everything needed to reproduce
them byte for byte.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from typing import List, Optional, Sequence, TextIO

import numpy as np

from . import distribution
from .generator import (
    UniformStream,
    gbmm_generate,
    generate,
    init,
    make_spec,
    step,
)
from .maps import MapConfig, z_map
from .stats import (
    DEFAULT_NULL_SEED,
    autocorrelation,
    gof_test,
    lyapunov,
    run_trial_table,
)

__all__ = ["RunConfig", "main"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3

_FLOAT_FMT = "%.17g"


class DataError(Exception):
    """Unreadable or malformed input data (exit code 3)."""


@dataclass(frozen=True)
class RunConfig:
    """Resolved command configuration (defaults match the reference setup)."""

    q_out: float = 1.0
    d: int = 8
    l: int = 2
    c: int = 1
    epsilon: float = 5e-6
    v0: float = 0.1
    z0: float = 1.0
    w0_sign: int = 1
    count: int = 10000
    trials: int = 100
    n_null: int = 999
    master_seed: int = 20260839
    null_seed: int = DEFAULT_NULL_SEED
    jobs: int = 1

    def map_config(self) -> MapConfig:
        return MapConfig(d=self.d, l=self.l, c=self.c, epsilon=self.epsilon)


def _fail(code: int, kind: str, message: str) -> "NoReturn":  # noqa: F821
    sys.stderr.write(json.dumps({"error": kind, "message": message}) + "\n")
    raise SystemExit(code)


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors are JSON on stderr, exit 2."""

    def error(self, message: str) -> "NoReturn":  # noqa: F821
        _fail(EXIT_USAGE, "usage", message)


def _add_generator_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--q", type=float, default=1.0, help="output deformation q' (< 3)")
    p.add_argument("--d", type=int, default=8, help="circle map degree (2..8)")
    p.add_argument("--l", type=int, default=2, help="fold order (>= 2)")
    p.add_argument("--c", type=int, default=1, help="folds per step (>= 1)")
    p.add_argument("--epsilon", type=float, default=5e-6, help="fold slope depression")
    p.add_argument("--v0", type=float, default=0.1, help="circle seed, 0 < v0 < 1")
    p.add_argument("--z0", type=float, default=1.0, help="radial seed, z0 > 0")
    p.add_argument("--w0-sign", type=int, default=1, choices=(1, -1),
                   help="sign of the initial w component")
    p.add_argument("--seed", type=int, default=20260839,
                   help="master seed for uniform streams and trial starts")


def _config_from(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        q_out=args.q,
        d=args.d,
        l=args.l,
        c=args.c,
        epsilon=args.epsilon,
        v0=args.v0,
        z0=args.z0,
        w0_sign=args.w0_sign,
        count=getattr(args, "count", 10000),
        trials=getattr(args, "trials", 100),
        n_null=getattr(args, "n_null", 999),
        master_seed=args.seed,
        null_seed=getattr(args, "null_seed", DEFAULT_NULL_SEED),
        jobs=getattr(args, "jobs", 1),
    )


def _open_out(path: str):
    if path == "-":
        return sys.stdout, False
    return open(path, "w", newline="\n"), True


def _write_sidecar(path: str, payload: dict) -> None:
    with open(path + ".meta.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _smoke_batch(cfg: RunConfig, method: str):
    """Generate one batch according to cfg."""
    spec = make_spec(cfg.q_out)
    if method == "gbmm":
        stream = UniformStream(cfg.master_seed)
        return gbmm_generate(spec, stream, cfg.count)
    state = init(spec, cfg.map_config(), v0=cfg.v0, z0=cfg.z0, w0_sign=cfg.w0_sign)
    return generate(state, cfg.count)


def cmd_gen(args: argparse.Namespace) -> int:
    cfg = _config_from(args)
    batch = _smoke_batch(cfg, args.method)
    fh, close = _open_out(args.out)
    try:
        fh.write("xi,eta\n")
        for x, y in zip(batch.xi, batch.eta):
            fh.write(_FLOAT_FMT % x + "," + _FLOAT_FMT % y + "\n")
    finally:
        if close:
            fh.close()
    if close:
        meta = {"command": "gen", "master_seed": cfg.master_seed}
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
    cfg = _config_from(args)
    if args.infile is not None:
        samples = _read_sample_csv(args.infile)
    else:
        samples = _smoke_batch(cfg, args.method).xi
    kinds = ("ks", "ad") if args.kind == "both" else (args.kind,)
    results = []
    for kind in kinds:
        r = gof_test(samples, cfg.q_out, kind=kind, n_null=cfg.n_null,
                     seed=cfg.null_seed)
        results.append({
            "q": r.q_out,
            "kind": r.kind,
            "statistic": r.statistic,
            "p_value": r.p_value,
            "n_samples": r.n_samples,
            "n_null": r.n_null,
            "pass_at_0.05": bool(r.p_value > 0.05),
        })
    fh, close = _open_out(args.out)
    try:
        json.dump({"results": results}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    finally:
        if close:
            fh.close()
    return EXIT_OK


def _parse_q_list(text: str) -> List[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValueError("bad --q-list: %s" % (exc,)) from exc


def cmd_table(args: argparse.Namespace) -> int:
    cfg = _config_from(args)
    q_list = _parse_q_list(args.q_list)
    if not q_list:
        raise ValueError("--q-list resolved to no grid points")
    table = run_trial_table(
        q_list,
        cfg=cfg.map_config(),
        trials=cfg.trials,
        samples=cfg.count,
        master_seed=cfg.master_seed,
        n_null=cfg.n_null,
        null_seed=cfg.null_seed,
        jobs=cfg.jobs,
    )
    fh, close = _open_out(args.out)
    try:
        table.to_csv(fh)
    finally:
        if close:
            fh.close()
    if close:
        meta = {"command": "table"}
        meta.update(table.metadata())
        _write_sidecar(args.out, meta)
    return EXIT_OK


def _diag_rows(args: argparse.Namespace, cfg: RunConfig):
    """(header, row iterator) for one diagnostic kind."""
    spec = make_spec(cfg.q_out)
    mc = cfg.map_config()
    what = args.what
    if what == "return_map":
        def rows():
            z = cfg.z0
            for _ in range(cfg.count):
                z_next = z_map(spec.q_int, mc, z)
                yield (z, z_next)
                z = z_next
        return "z,z_next", rows()
    if what == "sample_path":
        def rows():
            state = init(spec, mc, v0=cfg.v0, z0=cfg.z0, w0_sign=cfg.w0_sign)
            for n in range(cfg.count):
                xi, eta = step(state)
                yield (float(n + 1), xi, eta, state.w, state.v, state.z)
        return "step,xi,eta,w,v,z", rows()
    if what == "ccdf_compare":
        batch = _smoke_batch(cfg, args.method)
        x = np.sort(batch.xi)[::-1]
        n = x.size
        ranks = np.unique(np.geomspace(1, n, num=min(200, n)).astype(int))
        def rows():
            for k in ranks:
                xv = float(x[k - 1])
                yield (xv, distribution.ccdf(cfg.q_out, xv), k / n)
        return "x,ccdf_model,ccdf_empirical", rows()
    if what == "lyapunov":
        lam = lyapunov(spec.q_int, mc, cfg.z0, cfg.count)
        theory = mc.c * math.log(mc.l)
        def rows():
            yield (lam, theory, lam / theory - 1.0)
        return "lambda,c_log_l,rel_err", rows()
    if what == "autocorr":
        batch = _smoke_batch(cfg, args.method)
        lags = range(0, min(args.max_lag, batch.count - 1) + 1)
        c0 = autocorrelation(batch.xi, 0)
        def rows():
            for m in lags:
                cm = autocorrelation(batch.xi, m)
                yield (float(m), cm, cm / c0)
        return "lag,autocovariance,ratio_to_lag0", rows()
    if what == "joint_grid":
        lo, hi = distribution.support(cfg.q_out)
        span = min(4.0, hi) if math.isfinite(hi) else 4.0
        grid = np.linspace(-span, span, 61)
        def rows():
            for xi in grid:
                for eta in grid:
                    yield (xi, eta, distribution.joint_pdf(cfg.q_out, xi, eta))
        return "xi,eta,joint_pdf", rows()
    raise ValueError("unknown diagnostic %r" % (what,))


def cmd_diag(args: argparse.Namespace) -> int:
    cfg = _config_from(args)
    header, rows = _diag_rows(args, cfg)
    fh, close = _open_out(args.out)
    try:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_FLOAT_FMT % v for v in row) + "\n")
    finally:
        if close:
            fh.close()
    return EXIT_OK


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

    p = sub.add_parser("gof",
                       help="goodness-of-fit test against the model cdf")
    _add_generator_args(p)
    p.add_argument("--count", type=int, default=10000)
    p.add_argument("--method", choices=("chaotic", "gbmm"), default="chaotic")
    p.add_argument("--in", dest="infile", default=None,
                   help="CSV of samples (first column); default generates fresh")
    p.add_argument("--kind", choices=("ks", "ad", "both"), default="both")
    p.add_argument("--n-null", type=int, default=999, dest="n_null")
    p.add_argument("--null-seed", type=int, default=DEFAULT_NULL_SEED, dest="null_seed")
    p.add_argument("--out", default="-")
    p.set_defaults(fn=cmd_gof)

    p = sub.add_parser("table",
                       help="best-of-trials p-value table over a q grid")
    _add_generator_args(p)
    p.add_argument("--q-list", dest="q_list",
                   default="-1.0,0.0,1.0,1.5,2.0,2.3,2.4,2.5,2.6,2.8,2.9",
                   help="comma separated q' grid")
    p.add_argument("--count", type=int, default=10000,
                   help="samples per trial")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--n-null", type=int, default=999, dest="n_null")
    p.add_argument("--null-seed", type=int, default=DEFAULT_NULL_SEED, dest="null_seed")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes (results independent of this)")
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
