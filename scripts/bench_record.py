"""Record one workload's benchmark trajectory point as BENCH_<workload>.json.

Runs ``benchmarks/run.py --trace 0`` several times on the current tree, for
the benchmark's run length and with seeds 1, 2, ..., and writes ``BENCH_<workload>.json`` at the repository root:
the commit, the host's CPU count, the Python and numpy versions, and for
each end-to-end metric of ``BENCHMARK.json`` its median and quartiles over
the runs (plus the raw values). Later changes compare against these files
to follow the trend.

Usage, from the repository root::

    python3 scripts/bench_record.py --workload toy_train_sample --runs 5

A run that exits non-zero or reports a failed operation is left out of the
statistics and counted under ``failed_runs``; the script then exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def _git(*args: str) -> str:
    out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else ""


def run_once(workload: str, seed: int, seconds: float) -> dict | None:
    """One benchmark call; its result object, or None if it failed."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    result = json.loads(lines[-1])
    if not result["correct"]:
        print(f"seed {seed}: {result['failed']} failed operations", file=sys.stderr)
        return None
    return result


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=5)
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")

    seconds, seeds = spec["run_seconds"], list(range(1, args.runs + 1))
    results = []
    for seed in seeds:
        result = run_once(args.workload, seed, seconds)
        if result is not None:
            results.append(result)
            summary = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"seed {seed}: {summary}", file=sys.stderr)

    metrics = {}
    for m in spec["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in results if m["name"] in r["metrics"]]
        if values:
            q1, median, q3 = np.percentile(values, [25, 50, 75])
            metrics[m["name"]] = {
                "unit": m["unit"], "better": m["better"], "median": float(median),
                "q1": float(q1), "q3": float(q3), "values": values,
            }
    record = {
        "workload": args.workload,
        "commit": _git("rev-parse", "HEAD"),
        "tree_dirty": bool(_git("status", "--porcelain", "--", "src", "benchmarks")),
        "host": {
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "seconds": seconds,
        "seeds": seeds,
        "failed_runs": len(seeds) - len(results),
        "metrics": metrics,
    }
    out = ROOT / f"BENCH_{args.workload}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {out}")
    return 0 if len(results) == len(seeds) else 1


if __name__ == "__main__":
    sys.exit(main())
