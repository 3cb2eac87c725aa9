"""Scale measured wall times to a fixed machine speed.

On a shared host the speed of one CPU drifts by up to 2x within tens of
seconds, as other tenants come and go, and the wall time of a fixed job
drifts with it.  A helper process pinned to the same CPU as the benchmark
times a fixed pure-Python loop every PERIOD_S seconds.  An interval's scaled
time is its wall time times REFERENCE_S over the median loop time sampled
inside it: seconds at a fixed speed of that loop.  On the machine of the
baseline in README.md, ten 22-second runs of one workload spread by 4-23%
(quartile distance over median) in raw wall time and by 2-13% scaled.

The helper takes about 1% of the CPU, which the benchmark's own process
pays for in every run alike.

    python3 perfbench/speed.py FILE   # sample until terminated (internal)
"""

from __future__ import annotations

import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Tuple

PERIOD_S = 0.05
LOOP_STEPS = 800

# A fixed constant: about the median time of reference() on the machine the
# baseline was measured on (0.4 to 0.8 ms there).
REFERENCE_S = 0.0007

_MASK64 = (1 << 64) - 1


def reference() -> float:
    """Time LOOP_STEPS SplitMix64 steps and logs once, shorter than a scheduler slice."""
    t0 = time.perf_counter()
    s = 1
    acc = 0.0
    for _ in range(LOOP_STEPS):
        s = (s + 0x9E3779B97F4A7C15) & _MASK64
        s = ((s ^ (s >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        acc += math.log(1.0 + (s >> 11) * 2.0 ** -53)
    return time.perf_counter() - t0


class SpeedSampler:
    """Pins this process to one CPU and samples that CPU's speed meanwhile.

    Intervals are time.monotonic() pairs; scale() works after the with-block,
    which also restores the process's CPU affinity.
    """

    def __init__(self, path: Path):
        self.path = path
        self.samples: List[Tuple[float, float]] = []
        self._proc = None

    def __enter__(self) -> "SpeedSampler":
        self._cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(self._cpus)})
        self._proc = subprocess.Popen([sys.executable, str(Path(__file__).resolve()), str(self.path)])
        return self

    def __exit__(self, *exc) -> None:
        self._proc.terminate()
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        os.sched_setaffinity(0, self._cpus)
        if self.path.is_file():
            # Complete lines only: terminate() may cut the last one.
            for line in self.path.read_text().split("\n")[:-1]:
                t, d = line.split()
                self.samples.append((float(t), float(d)))

    def scale(self, start: float, end: float) -> float:
        """Wall time of [start, end] at the reference speed."""
        inside = [d for t, d in self.samples if start <= t <= end]
        if not inside:  # shorter than PERIOD_S: take the nearest sample
            inside = [min(self.samples, key=lambda s: abs(s[0] - end))[1]]
        return (end - start) * REFERENCE_S / statistics.median(inside)


def _sample(path: str) -> None:
    with open(path, "w") as fh:
        while True:
            d = reference()
            fh.write("%.6f %.9f\n" % (time.monotonic(), d))
            fh.flush()
            time.sleep(PERIOD_S)


if __name__ == "__main__":
    try:
        _sample(sys.argv[1])
    except KeyboardInterrupt:
        pass
