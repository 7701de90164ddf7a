#!/usr/bin/env python3
"""Rebuild the bundled benchmark tables and print them.

Tables 1 and 2 are deterministic.  Table 3 runs the seeded simulation
harness, so a rebuild with the default seed and replicate count
reproduces the shipped numbers byte for byte; pass --m or --seed to
study how the simulated column moves.
"""

import argparse
import sys
import time
from pathlib import Path

from bayessize.tables import (
    DEFAULT_REPLICATES,
    DEFAULT_SEED,
    build_table,
    render_csv,
    render_text,
)

TITLES = {
    1: "table 1: normal studies, exact vs leading-order expected functionals",
    2: "table 2: expected posterior variance, Poisson-gamma and Bernoulli-uniform",
    3: "table 3: exponential-rate study, simulated vs oracle vs leading order",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--table", type=int, choices=[1, 2, 3],
                        help="rebuild a single table instead of all three")
    parser.add_argument("--m", type=int, default=DEFAULT_REPLICATES,
                        help="simulation replicates for table 3 (default %(default)s)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="stream seed for table 3 (default %(default)s)")
    parser.add_argument("--csv-dir", type=Path,
                        help="also write one table<N>.csv per table into this directory")
    args = parser.parse_args(argv)

    for index in [args.table] if args.table else [1, 2, 3]:
        start = time.perf_counter()
        rows = build_table(index, m=args.m, seed=args.seed)
        elapsed = time.perf_counter() - start
        print(TITLES[index])
        print(render_text(rows), end="")
        print(f"[{len(rows)} rows in {elapsed:.2f}s]")
        print()
        if args.csv_dir is not None:
            args.csv_dir.mkdir(parents=True, exist_ok=True)
            path = args.csv_dir / f"table{index}.csv"
            path.write_text(render_csv(rows), encoding="utf-8")
            print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
