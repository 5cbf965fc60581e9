"""Self-test of the benchmark harness at tiny sizes.

Run from the repository root with ``python3 -m pytest benchmarks/test_selftest.py``.
It is not part of the repository's test suite (``testpaths`` is ``tests``).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORK = ROOT / ".bench_work"

sys.path[:0] = [str(HERE), str(ROOT / "src")]
import tracing  # noqa: E402
from workloads import DEFAULT_SEED, TINY_SIZES  # noqa: E402


def bench(workload: str, trace: int, *extra: str, root: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(root / "benchmarks" / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace), "--sizes", "tiny", *extra],
        cwd=root, capture_output=True, text=True, timeout=300,
    )
    return proc


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(workload, trace, key):
    result = result_of(bench(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_tiny_corpus_reference_is_recorded():
    entries = json.loads((HERE / "reference.json").read_text())["corpus_forge_eval"]
    assert any(e["seed"] == DEFAULT_SEED and e["sizes"] == TINY_SIZES["corpus_forge_eval"]
               for e in entries)


def test_wrong_reference_digest_is_a_failed_operation():
    reference = json.loads((HERE / "reference.json").read_text())
    for entry in reference["corpus_forge_eval"]:
        entry["corpus_sha256"] = "0" * 64
    WORK.mkdir(exist_ok=True)
    path = WORK / "selftest-reference.json"
    path.write_text(json.dumps(reference))
    try:
        result = result_of(bench("corpus_forge_eval", 0, "--reference", str(path)))
    finally:
        path.unlink()
    assert result["correct"] is False
    assert result["failed"] >= 1


def test_without_sources_it_fails_without_a_result():
    bare = WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = bench("toy_train_sample", 0, root=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_time_subtracts_the_union_of_children():
    # parent [0, 10]; children [1, 4] and [3, 6] overlap -> covered 5, self 5
    spans = [["p", 0.0, 10.0, -1], ["a", 1.0, 4.0, 0], ["b", 3.0, 6.0, 0]]
    assert tracing._self_times(spans) == [5.0, 3.0, 3.0]
