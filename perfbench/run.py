"""qgauss benchmark: one workload, one seed, one measuring window.

    python3 perfbench/run.py --workload table|gen|gof|diag --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
src/ directory, nothing is installed.  The workload's fixed job is repeated
for about S seconds (at least once) in this process, with one client.  The
last line of standard output is one JSON object:

    {"correct": bool, "attempted": ops, "failed": ops, "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones: setup_s (median time of
fresh interpreters that import qgauss and load the workload's inputs),
wall_s (median time of one job) and peak_rss_mb.  Both times are scaled to
a fixed machine speed by speed.py; the raw medians are printed too.
error_rate is failed / attempted, printed above the JSON line.  With --trace 1 untraced and traced
jobs alternate, and the metrics are the per-layer ones of layers.py, as
medians over the traced jobs, plus trace.overhead_frac.  The spans are
written to perfbench/traces/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def use_checkout_source() -> None:
    """Import qgauss from this checkout's src/, or exit 2 if it has none."""
    if not (SRC / "qgauss" / "__init__.py").is_file():
        sys.stderr.write("perfbench: no qgauss sources under %s\n" % (SRC,))
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))


def _parse(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description="qgauss benchmark")
    p.add_argument("--workload", required=True, choices=("table", "gen", "gof", "diag"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=22.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: one set-up sample, run in a fresh interpreter by the parent.
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        p.error("--seed and --seconds must be >= 0")
    return args


def _read(path: str) -> Optional[str]:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return None


def machine_record(args: argparse.Namespace, sizes) -> Dict[str, object]:
    import numpy
    import scipy

    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next(
        (ln.split(":", 1)[1].strip() for ln in cpuinfo.splitlines() if ln.startswith("model name")),
        platform.processor() or None,
    )
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(str(index / f)) for f in ("level", "type", "size"))
        if level and size and kind and kind.strip() != "Instruction":
            caches["L" + level.strip() + ("d" if kind.strip() == "Data" else "")] = size.strip()
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        commit = done.stdout.strip() or None
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "qgauss").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "sizes": sizes.name,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "src_sha256": src_hash.hexdigest(),
    }


def _probe_setup(args: argparse.Namespace, sizes) -> int:
    """Import qgauss and load the workload's inputs, then exit (timed by the parent)."""
    import workloads

    workdir = Path(tempfile.mkdtemp(prefix=".work-", dir=HERE))
    try:
        workloads.Workload(args.workload, args.seed, sizes, workdir)
    finally:
        shutil.rmtree(workdir)
    return 0


def _setup_intervals(args: argparse.Namespace, n: int) -> List[Optional[Tuple[float, float]]]:
    """Monotonic (start, end) of n fresh interpreters doing _probe_setup.

    None for a probe that exited non-zero.
    """
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--probe-setup",
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    intervals: List[Optional[Tuple[float, float]]] = []
    for _ in range(n):
        t0 = time.monotonic()
        done = subprocess.run(cmd, stdout=subprocess.DEVNULL, timeout=120)
        intervals.append((t0, time.monotonic()) if done.returncode == 0 else None)
    return intervals


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0



class _JobLoop:
    """Repeats a workload's job and checks every output.

    With tracing, untraced and traced jobs alternate, so that every traced
    job has an untraced neighbour to compare its wall time with.
    """

    def __init__(self, work, expected: Optional[List[str]], package, layers):
        self.work = work
        self.expected = expected
        self.package = package
        self.layers = layers
        self.attempted = 0
        self.failed = 0
        self.intervals: Dict[bool, List[Tuple[float, float]]] = {False: [], True: []}
        self.layer_runs: List[Dict[str, float]] = []
        self.spans: List[list] = []
        self._verdicts: Dict[int, Dict[str, Optional[str]]] = {}

    def run(self, seconds: float, trace: bool, min_jobs: int) -> None:
        """Run jobs while the next one (or pair) still fits in `seconds`.

        Without tracing at least min_jobs jobs run; with tracing, one
        untraced and one traced job.
        """
        start = time.monotonic()
        rep = 0
        while True:
            self._job(rep, traced=trace and rep % 2 == 1)
            rep += 1
            if (trace and rep % 2) or len(self.intervals[False]) < min_jobs:
                continue
            step = sum(_median([b - a for a, b in self.intervals[t]]) for t in (False, True))
            if time.monotonic() - start + step > seconds:
                return

    def _job(self, rep: int, traced: bool) -> None:
        requests = self.work.requests(rep)
        outputs: List[object] = []
        tracer = self.layers.Tracer()
        scope = self.layers.tracing(tracer, self.package) if traced else contextlib.nullcontext()
        with scope:
            t0 = time.monotonic()
            for req in requests:
                try:
                    outputs.append(req.call())
                except Exception as exc:  # one failed operation; keep measuring
                    outputs.append(exc)
                    traceback.print_exc()
            self.intervals[traced].append((t0, time.monotonic()))
        if traced:
            self.layer_runs.append(self.layers.layer_metrics(tracer))
            self.spans.append(tracer.spans)
        for i, (req, out) in enumerate(zip(requests, outputs)):
            self.attempted += 1
            problem = self._problem(i, rep, req, out)
            if problem is not None:
                self.failed += 1
                sys.stderr.write("perfbench: %s rep %d: %s\n" % (req.label, rep, problem))

    def _problem(self, i: int, rep: int, req, out) -> Optional[str]:
        if isinstance(out, Exception):
            return "raised %r" % (out,)
        digest = req.digest(out)
        seen = self._verdicts.setdefault(i, {})
        if digest not in seen:  # same bytes, same verdict
            try:
                seen[digest] = req.check(out)
            except Exception as exc:  # malformed output
                seen[digest] = "check raised %r" % (exc,)
        if seen[digest] is None and rep == 0 and self.expected and digest != self.expected[i]:
            return "output digest %s differs from the seed commit's %s" % (digest, self.expected[i])
        return seen[digest]


def main(argv: Optional[Sequence[str]] = None, sizes=None) -> int:
    args = _parse(argv)
    use_checkout_source()
    import layers
    import qgauss
    import speed
    import workloads

    sizes = sizes or workloads.FULL
    if args.probe_setup:
        return _probe_setup(args, sizes)

    record = machine_record(args, sizes)
    workdir = Path(tempfile.mkdtemp(prefix=".work-", dir=HERE))
    try:
        with speed.SpeedSampler(workdir / "speed.txt") as sampler:
            setup = [] if args.trace else _setup_intervals(args, sizes.setup_probes)
            work = workloads.Workload(args.workload, args.seed, sizes, workdir)
            expected = workloads.recorded_digests(args.workload, args.seed, sizes)
            loop = _JobLoop(work, expected, qgauss, layers)
            min_jobs = 1 if args.trace else workloads.MIN_JOBS.get(args.workload, 1)
            loop.run(args.seconds, bool(args.trace), min_jobs)
    finally:
        shutil.rmtree(workdir)
    attempted = loop.attempted + len(setup)
    failed = loop.failed + setup.count(None)
    if None in setup:
        sys.stderr.write("perfbench: %d set-up probe(s) exited non-zero\n" % setup.count(None))
    setup = [iv for iv in setup if iv is not None]
    scaled = {t: [sampler.scale(*iv) for iv in loop.intervals[t]] for t in (False, True)}
    record["wall_raw_s"] = _median([b - a for a, b in loop.intervals[False]])
    record["setup_raw_s"] = _median([b - a for a, b in setup])

    if args.trace:
        metrics = {
            name: _median([job[name] for job in loop.layer_runs])
            for name in layers.PER_LAYER if name != "trace.overhead_frac"
        }
        metrics["trace.overhead_frac"] = _median(scaled[True]) / _median(scaled[False]) - 1.0
        units = {name: layers.unit(name) for name in layers.PER_LAYER}
        out_dir = HERE / "traces"
        out_dir.mkdir(exist_ok=True)
        with open(out_dir / ("%s-seed%d.json" % (args.workload, args.seed)), "w") as fh:
            json.dump({"record": record, "layer_runs": loop.layer_runs, "spans": loop.spans}, fh)
    else:
        metrics = {
            "setup_s": _median([sampler.scale(*iv) for iv in setup]),
            "wall_s": _median(scaled[False]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

    jobs = len(loop.intervals[False]) + len(loop.intervals[True])
    print("perfbench %s seed=%d trace=%d: %d job(s), %d operations, %d failed"
          % (args.workload, args.seed, args.trace, jobs, attempted, failed))
    for name, value in metrics.items():
        print("  %-44s %.6g %s" % (name, value, units[name]))
    if not args.trace:
        for name in ("wall_raw_s", "setup_raw_s"):
            print("  %-44s %.6g s (unscaled)" % (name, record[name]))
    print("  %-44s %.6g (%d/%d)" % ("error_rate", failed / attempted, failed, attempted))
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
