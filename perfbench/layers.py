"""Span recorder that times the qgauss layers from outside the package.

`tracing()` replaces module attributes of qgauss with wrappers for the
length of a with-block and puts the originals back afterwards.  Every
function in a layer module's `__all__` gets a span wrapper, and so do the
functions the hot paths go through that are not exported there
(`stats._null_statistics`, `stats._both_statistics`, `stats._table_row`,
`UniformStream.take`, `distribution.cdf_array_direct` and the CLI's CSV
reader and writer).  The scalar map and special-function kernels run
millions of times per Lyapunov estimate, so they only get a call counter:
a span per call would cost more than the call.

Spans are kept in memory as [name, start, end, parent index] and written
out by run.py when the run ends.  A span's self time is its duration minus
the part of it that its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import time
from collections import Counter
from typing import Callable, Dict, Iterator, List

import numpy as np

LAYERS = ("generator", "stats", "distribution", "maps", "specfun", "cli")

# Kernels that only get a call counter (see the module docstring).
COUNTED = frozenset({
    "maps.z_map",
    "maps.z_map_derivative",
    "maps.tri_map",
    "specfun.q_exp",
    "specfun.q_ln",
    "generator.gbmm_sample",
})

# Functions outside the modules' __all__ that get a span: (layer, attribute path).
HELPERS = (
    ("generator", "UniformStream.take"),
    ("distribution", "cdf_array_direct"),
    ("stats", "_null_statistics"),
    ("stats", "_both_statistics"),
    ("stats", "_table_row"),
    ("cli", "cmd_gen"),
    ("cli", "cmd_gof"),
    ("cli", "_read_sample_csv"),
    ("cli", "_write_sidecar"),
)

PER_LAYER = (
    "generator.generate.calls",
    "generator.generate.busy_s",
    "generator.generate.pairs_per_s",
    "generator.gbmm_generate.busy_s",
    "generator.gbmm_generate.pairs_per_s",
    "generator.UniformStream.take.busy_s",
    "generator.UniformStream.take.words_per_s",
    "stats.null_build.misses",
    "stats.null_build.busy_s",
    "stats.null_cache.hit_ratio",
    "stats.trial_row.self_s",
    "stats.edf_statistic.busy_s",
    "distribution.cdf_array_direct.busy_s",
    "distribution.cdf_array_direct.values_per_s",
    "distribution.cdf_direct.saturated_frac",
    "stats.lyapunov.busy_s",
    "stats.lyapunov.steps_per_s",
    "maps.z_map.calls",
    "maps.z_map_derivative.calls",
    "maps.tri_map.calls",
    "specfun.q_exp.calls",
    "specfun.q_ln.calls",
    "cli.csv_write.self_s",
    "cli.csv_write.bytes_per_s",
    "cli.csv_read.busy_s",
    "trace.overhead_frac",
)


def unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("bytes_per_s"):
        return "B/s"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith((".calls", ".misses")):
        return "count"
    return "ratio"


class Tracer:
    """In-memory spans plus per-span work counts.

    spans  list of [name, start, end, parent index or -1]
    work   Counter keyed by (span name, quantity), e.g. ("maps.z_map", "calls")
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[list] = []
        self.work: Counter = Counter()
        self._open: List[int] = []
        self._returned: Dict[object, object] = {}

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, self.clock(), None, parent])
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = self.clock()
        self._open.pop()


def self_times(spans: List[list]) -> List[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: List[List[int]] = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(index)
    out = []
    for index, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for child in sorted(children[index], key=lambda j: spans[j][1]):
            lo = max(spans[child][1], reach)
            hi = min(spans[child][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


# Work hooks: called after a span closes, outside its timed interval.

def _pairs(tracer, name, fn, args, kwargs, result):
    tracer.work[(name, "items")] += result.count


def _words(tracer, name, fn, args, kwargs, result):
    tracer.work[(name, "items")] += len(result)


def _cdf_values(tracer, name, fn, args, kwargs, result):
    tracer.work[(name, "items")] += result.size
    tracer.work[(name, "saturated")] += int(np.count_nonzero(result == 1.0))


def _steps(tracer, name, fn, args, kwargs, result):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    tracer.work[(name, "items")] += bound.arguments["t"] + bound.arguments["burn_in"]


def _null_lookup(tracer, name, fn, args, kwargs, result):
    # A hit returns the very arrays an earlier call with these arguments got.
    key = (args, tuple(sorted(kwargs.items())))
    earlier = tracer._returned.get(key)
    hit = earlier is not None and all(a is b for a, b in zip(earlier, result))
    tracer._returned[key] = result
    tracer.work[(name, "hits" if hit else "misses")] += 1


def _csv_bytes(tracer, name, fn, args, kwargs, result):
    out = args[0].out
    if out != "-":
        tracer.work[(name, "bytes")] += os.path.getsize(out)


HOOKS = {
    "generator.generate": _pairs,
    "generator.gbmm_generate": _pairs,
    "generator.UniformStream.take": _words,
    "distribution.cdf_array_direct": _cdf_values,
    "stats.lyapunov": _steps,
    "stats._null_statistics": _null_lookup,
    "cli.cmd_gen": _csv_bytes,
}


def _span_wrapper(tracer: Tracer, name: str, fn):
    hook = HOOKS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(index)
        if hook is not None:
            hook(tracer, name, fn, args, kwargs, result)
        return result

    return wrapper


def _count_wrapper(tracer: Tracer, name: str, fn):
    work = tracer.work
    key = (name, "calls")

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        work[key] += 1
        return fn(*args, **kwargs)

    return wrapper


def _targets(package) -> Iterator[tuple]:
    """(owner object, attribute, span name) for everything that gets wrapped."""
    for layer in LAYERS:
        module = getattr(package, layer)
        for attr in module.__all__:
            obj = vars(module)[attr]
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                yield module, attr, "%s.%s" % (layer, attr)
    for layer, path in HELPERS:
        owner = getattr(package, layer)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        yield owner, attr, "%s.%s" % (layer, path)


@contextlib.contextmanager
def tracing(tracer: Tracer, package) -> Iterator[Tracer]:
    """Wrap every binding of the traced functions, restore them on exit.

    A module-level function is rebound wherever the package holds it (the
    defining module, modules that imported it by name, and the package
    namespace), so calls made through any of those names are recorded.
    """
    namespaces = [package] + [getattr(package, layer) for layer in LAYERS]
    patches = []
    try:
        for owner, attr, name in list(_targets(package)):
            original = getattr(owner, attr)
            make = _count_wrapper if name in COUNTED else _span_wrapper
            wrapper = make(tracer, name, original)
            if inspect.isclass(owner):
                patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for module in namespaces:
                for key, value in list(vars(module).items()):
                    if value is original:
                        patches.append((module, key, original))
                        setattr(module, key, wrapper)
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Per-layer metrics of one traced job (all but trace.overhead_frac)."""
    busy: Counter = Counter()
    own: Counter = Counter()
    calls: Counter = Counter()
    for (name, start, end, _), self_s in zip(tracer.spans, self_times(tracer.spans)):
        busy[name] += end - start
        own[name] += self_s
        calls[name] += 1
    work = tracer.work
    builds = {span[3] for span in tracer.spans if span[0] == "generator.UniformStream.take"}
    null_build_s = sum(
        span[2] - span[1]
        for index, span in enumerate(tracer.spans)
        if span[0] == "stats._null_statistics" and index in builds
    )
    lookups = calls["stats._null_statistics"]

    def ratio(num: float, den: float) -> float:
        return num / den if den > 0 else 0.0

    def rate(name: str, quantity: str = "items") -> float:
        return ratio(work[(name, quantity)], busy[name])

    return {
        "generator.generate.calls": calls["generator.generate"],
        "generator.generate.busy_s": busy["generator.generate"],
        "generator.generate.pairs_per_s": rate("generator.generate"),
        "generator.gbmm_generate.busy_s": busy["generator.gbmm_generate"],
        "generator.gbmm_generate.pairs_per_s": rate("generator.gbmm_generate"),
        "generator.UniformStream.take.busy_s": busy["generator.UniformStream.take"],
        "generator.UniformStream.take.words_per_s": rate("generator.UniformStream.take"),
        "stats.null_build.misses": work[("stats._null_statistics", "misses")],
        "stats.null_build.busy_s": null_build_s,
        "stats.null_cache.hit_ratio": ratio(work[("stats._null_statistics", "hits")], lookups),
        "stats.trial_row.self_s": own["stats._table_row"],
        "stats.edf_statistic.busy_s": busy["stats._both_statistics"],
        "distribution.cdf_array_direct.busy_s": busy["distribution.cdf_array_direct"],
        "distribution.cdf_array_direct.values_per_s": rate("distribution.cdf_array_direct"),
        "distribution.cdf_direct.saturated_frac": ratio(
            work[("distribution.cdf_array_direct", "saturated")],
            work[("distribution.cdf_array_direct", "items")],
        ),
        "stats.lyapunov.busy_s": busy["stats.lyapunov"],
        "stats.lyapunov.steps_per_s": rate("stats.lyapunov"),
        "maps.z_map.calls": work[("maps.z_map", "calls")],
        "maps.z_map_derivative.calls": work[("maps.z_map_derivative", "calls")],
        "maps.tri_map.calls": work[("maps.tri_map", "calls")],
        "specfun.q_exp.calls": work[("specfun.q_exp", "calls")],
        "specfun.q_ln.calls": work[("specfun.q_ln", "calls")],
        "cli.csv_write.self_s": own["cli.cmd_gen"],
        "cli.csv_write.bytes_per_s": ratio(work[("cli.cmd_gen", "bytes")], own["cli.cmd_gen"]),
        "cli.csv_read.busy_s": busy["cli._read_sample_csv"],
    }
