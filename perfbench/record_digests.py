"""Record the per-request output digests that run.py compares against.

    python3 perfbench/record_digests.py --seeds 0-15

Runs the first job of every workload at the full size for each seed, checks
every output, and writes perfbench/digests.json.  Run it only at a commit
whose outputs are the reference: the ROADMAP holds qgauss to bit identity,
so a digest that changes is a failed operation in every later run.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="0-15", help="inclusive range, e.g. 0-15")
    lo, hi = (int(x) for x in p.parse_args().seeds.split("-"))
    run.use_checkout_source()
    import workloads

    digests = {}
    for name in workloads.WORKLOADS:
        digests[name] = {}
        for seed in range(lo, hi + 1):
            workdir = Path(tempfile.mkdtemp(prefix=".work-", dir=run.HERE))
            try:
                work = workloads.Workload(name, seed, workloads.FULL, workdir)
                row = []
                for req in work.requests(0):
                    out = req.call()
                    problem = req.check(out)
                    if problem is not None:
                        sys.stderr.write("%s seed %d %s: %s\n" % (name, seed, req.label, problem))
                        return 1
                    row.append(req.digest(out))
            finally:
                shutil.rmtree(workdir)
            digests[name][str(seed)] = row
            print(name, seed, " ".join(row), flush=True)
    workloads.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
