"""Benchmark entry point.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Runs one workload from the root of a checkout on inputs made from ``--seed``
and checks its outputs.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
line before it holds the resolved ``config`` and the run's check details.
Exit codes: 0 when every output check passed, 1 when one failed, 2 when the
checkout has no morphnn sources or the arguments are bad.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
WORKLOADS = ("train-morpho1", "train-relu-maxpool", "eval-morpho2", "verify")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads() -> int:
    """Cap BLAS at the cores this process may use; must run before numpy
    is imported.  Returns the thread count in force."""
    cores = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        cur = os.environ.get(var, "")
        if not (cur.isdigit() and 0 < int(cur) <= cores):
            os.environ[var] = str(cores)
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "morphnn" / "__init__.py").is_file():
        print(f"error: no morphnn sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    threads = cap_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np  # after the thread cap
    import workloads

    result, work = workloads.run(args.workload, args.seed, args.seconds,
                                 bool(args.trace), OUT_DIR)
    config = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "blas_threads": threads,
              "cores": len(os.sched_getaffinity(0)),
              "numpy": np.__version__, "sizes": vars(work.sizes),
              "loop": "closed, one caller"}
    print(json.dumps({"config": config, "checks": work.info,
                      "problems": work.ledger.problems}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
