"""rfaudio benchmark: one workload per call, each in a fresh worker process.

Usage, from the repository root::

    python3 benchmarks/run.py --workload toy_train_sample --seed 1 --seconds 40 --trace 0

Workloads: ``toy_train_sample``, ``edit_10s``, ``corpus_forge_eval`` (see
``benchmarks/NOTES.md``). ``--trace 0`` runs the workload untraced and prints
its end-to-end metrics. ``--trace 1`` runs it untraced and then traced, with
spans installed from outside the program, and prints the per-layer metrics
plus the tracing overhead against the untraced run. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are a readable report.

``--sizes tiny`` and ``--reference`` exist for the benchmark's self-test.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
import uuid
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("toy_train_sample", "edit_10s", "corpus_forge_eval")
#: whole-command limit; each worker gets what is left of it
BUDGET_S = 170.0
#: set-ups measured per untraced run, each in a fresh process; setup_s is their median
SETUP_SAMPLES = 3


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def spawn(args, seconds: float, traced: bool, deadline: float, *extra: str) -> dict:
    """Run one worker process to completion and return its result."""
    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    out = work / f"result-{uuid.uuid4().hex}.json"
    env = dict(os.environ)
    env.setdefault("OPENBLAS_NUM_THREADS", str(len(os.sched_getaffinity(0))))
    env["PYTHONHASHSEED"] = "0"
    spawned_at = time.monotonic()
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(seconds), "--traced", str(int(traced)),
        "--sizes", args.sizes, "--reference", str(args.reference),
        "--spawned-at", repr(spawned_at), "--out", str(out), *extra,
    ]
    # The worker's stdout (program reports) goes to our stderr, so the last
    # line of our stdout stays the result.
    proc = subprocess.Popen(cmd, stdout=sys.stderr, env=env)
    try:
        code = proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"{args.workload} worker exceeded the time budget") from None
    try:
        if code != 0:
            raise BenchError(f"{args.workload} worker exited with code {code}")
        return json.loads(out.read_text())
    finally:
        out.unlink(missing_ok=True)


def _report(label: str, metrics: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"# {label:<10} {name:<36} {value:>14.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sizes", choices=("full", "tiny"), default="full")
    parser.add_argument("--reference", type=Path, default=HERE / "reference.json")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds positive")
    if not (ROOT / "src" / "rfaudio" / "__init__.py").is_file():
        print(f"benchmark: no rfaudio sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + BUDGET_S
    units = {m["name"]: m["unit"] for key in ("end_to_end", "per_layer")
             for m in json.loads((ROOT / "BENCHMARK.json").read_text())[key]}
    # A traced call splits its time between the untraced and the traced run,
    # so it lasts as long as an untraced call.
    seconds = args.seconds / 2 if args.trace else args.seconds
    try:
        base = spawn(args, seconds, traced=False, deadline=deadline)
        runs = [base]
        if args.trace:
            runs.append(spawn(args, seconds, traced=True, deadline=deadline))
        else:
            setups = [base["end_to_end"]["setup_s"]] + [
                spawn(args, seconds, False, deadline, "--setup-only")["setup_s"]
                for _ in range(SETUP_SAMPLES - 1)
            ]
            base["end_to_end"]["setup_s"] = statistics.median(setups)
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1

    print("# record " + json.dumps(base["record"], sort_keys=True))
    print("# samples " + json.dumps(base["samples"], sort_keys=True))
    named = {k: tuple(v) for k, v in base["named"].items()}
    e2e = {k: (v, units[k]) for k, v in base["end_to_end"].items()}
    _report("untraced", e2e)
    _report("untraced", named)
    if args.trace:
        traced = runs[1]
        per_layer = {k: tuple(v) for k, v in traced["per_layer"].items()}
        t_e2e = traced["end_to_end"]
        per_layer["trace.latency_overhead_pct"] = (
            100.0 * (t_e2e["latency_s"] / base["end_to_end"]["latency_s"] - 1.0), "%")
        per_layer["trace.throughput_overhead_pct"] = (
            100.0 * (base["end_to_end"]["throughput_per_s"] / t_e2e["throughput_per_s"] - 1.0),
            "%")
        _report("traced", per_layer)
        metrics = per_layer
    else:
        metrics = e2e

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v if math.isfinite(v) else 0.0, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
