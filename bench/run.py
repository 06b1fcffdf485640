"""Benchmark for clclsa; run from the repository root:

    python3 bench/run.py --workload desk_grid --seed 1 --seconds 10 --trace 0

Runs one workload in this process on one BLAS thread and prints every
metric as `name value unit`, then one JSON line: correct, attempted, failed
and metrics (end-to-end metrics with --trace 0, per-layer with --trace 1).
The library is imported from `src/` of the same checkout; nothing needs to be
installed. See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import sys

from bootstrap import prepare


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    prepare()
    import harness

    if args.workload not in harness.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(harness.WORKLOADS)}")
    return harness.run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
