#!/usr/bin/env python3
"""Regenerate both best-of-trials p-value tables and write them as CSV.

Defaults match the acceptance protocol: 100 trials of 10,000 samples per
deformation value, 999 null replicates, master seed 20260839.  Table one uses
the degree-8 single-fold configuration, table two the degree-6 six-fold one.
Expect about 5 s per table on one core with the compiled orbit (see the
README's Determinism section), most of it spent evaluating the model cdf
of 1.1e7 samples, and about half a minute per table where the generator
falls back to its Python loop; pass --trials/--count to shrink the
protocol for a quick look.
"""

import argparse
import json
import sys
import time

from qgauss.maps import MapConfig
from qgauss.stats import DEFAULT_NULL_SEED, run_trial_table

Q_GRID = [-1.0, 0.0, 1.0, 1.5, 2.0, 2.3, 2.4, 2.5, 2.6, 2.8, 2.9]

CONFIGS = {
    "table1": MapConfig(d=8, l=2, c=1),
    "table2": MapConfig(d=6, l=2, c=6),
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=100)
    ap.add_argument("--count", type=int, default=10_000,
                    help="samples per trial")
    ap.add_argument("--n-null", type=int, default=999, dest="n_null")
    ap.add_argument("--seed", type=int, default=20260839,
                    help="master seed for trial starts")
    ap.add_argument("--null-seed", type=int, default=DEFAULT_NULL_SEED,
                    dest="null_seed")
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--q-list", default=",".join(str(q) for q in Q_GRID),
                    help="comma separated deformation grid")
    ap.add_argument("--out-prefix", default="",
                    help="prefix for table1.csv / table2.csv outputs")
    args = ap.parse_args(argv)

    q_list = [float(tok) for tok in args.q_list.split(",") if tok.strip()]
    for name, cfg in CONFIGS.items():
        t0 = time.perf_counter()
        table = run_trial_table(
            q_list,
            cfg=cfg,
            trials=args.trials,
            samples=args.count,
            n_null=args.n_null,
            master_seed=args.seed,
            null_seed=args.null_seed,
            jobs=args.jobs,
        )
        elapsed = time.perf_counter() - t0
        path = args.out_prefix + name + ".csv"
        with open(path, "w", newline="\n") as fh:
            table.to_csv(fh)
        meta = {"elapsed_s": round(elapsed, 2)}
        meta.update(table.metadata())
        with open(path + ".meta.json", "w") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)
            fh.write("\n")
        sys.stdout.write("%s: wrote %s (%.1fs)\n" % (name, path, elapsed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
