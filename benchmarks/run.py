#!/usr/bin/env python3
"""Benchmark for gptest: replication throughput and per-layer cost.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload panel_b_mixture --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
makes the separate serial traced run and reports per-layer metrics.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  BLAS is pinned to one thread.
See benchmarks/README.md.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("panel_b_mixture", "panel_a_oracle", "cli_test_csv")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    # The thread count must be in the environment before numpy loads BLAS;
    # pool workers inherit it.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "gptest" / "__init__.py").is_file():
        print(f"error: no gptest sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import bench  # noqa: E402  (imports numpy and gptest)

    return bench.run(args, ROOT)


if __name__ == "__main__":
    sys.exit(main())
