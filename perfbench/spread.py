"""Run a workload on several seeds and summarise each end-to-end metric.

    python3 perfbench/spread.py --workloads train-relu-maxpool,verify \\
        --seeds 1-10 --seconds 12 [--out perfbench/baseline.json]

Each run is one ``run.py`` process, one after the other.  For every metric
it prints the median, the quartiles from ``statistics.quantiles(n=4)``, the
spread (q3 - q1) / median and the sample count; ``--out`` writes the same
summary as JSON, merged into the file's existing workloads.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi) + 1)) if hi else [int(lo)]


def one_run(workload: str, seed: int, seconds: int) -> dict:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=600, check=False)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{proc.returncode}:\n{proc.stderr[-2000:]}"
                           f"\n{proc.stdout[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    result["checks"] = json.loads(lines[-2])["checks"]
    return result


def summarise(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med, "n": len(values), "values": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", required=True)
    p.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    p.add_argument("--seconds", type=int, default=12)
    p.add_argument("--out")
    args = p.parse_args(argv)
    summary = {}
    for workload in args.workloads.split(","):
        runs = [one_run(workload, s, args.seconds) for s in args.seeds]
        if not all(r["correct"] and r["failed"] == 0 for r in runs):
            print(f"{workload}: a run failed its output checks",
                  file=sys.stderr)
            return 1
        row = {name: summarise([r["metrics"][name]["value"] for r in runs])
               for name in runs[0]["metrics"]}
        row["wall_s"] = summarise([r["wall_s"] for r in runs])
        row["attempted"] = sum(r["attempted"] for r in runs)
        row["failed"] = sum(r["failed"] for r in runs)
        row["op_seconds"] = [r["checks"].get("op_seconds") for r in runs]
        summary[workload] = {"seeds": args.seeds, "seconds": args.seconds,
                             "metrics": row}
        for name, stats in row.items():
            if isinstance(stats, dict) and "median" in stats:
                print(f"{workload:20s} {name:12s} median {stats['median']:.4f}"
                      f" q1 {stats['q1']:.4f} q3 {stats['q3']:.4f} spread "
                      f"{stats['spread']:.4f} n {stats['n']}", flush=True)
    if args.out:
        path = Path(args.out)
        doc = json.loads(path.read_text()) if path.is_file() else {}
        doc.setdefault("workloads", {}).update(summary)
        path.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
