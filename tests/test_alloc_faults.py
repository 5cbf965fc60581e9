"""Hot paths stop faulting in fresh pages once the process is warm.

``import rfaudio`` pins glibc's mmap and trim thresholds (mallopt(3)), so
a call's large temporaries come from heap that earlier calls already
touched, whatever the process did before. Without that, glibc's dynamic
thresholds let a toy guided ``sample_batch`` fault tens of thousands of
pages per call, and the forge and eval thousands per round. Each
measurement runs in a fresh interpreter, so pytest's own allocations do
not set the thresholds.
"""

import ctypes
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest


def _has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


pytestmark = pytest.mark.skipif(not _has_mallopt(), reason="libc has no mallopt")

#: minor faults the warm call may make: at the pinned thresholds the last
#: call of each kind read 0-10, without them hundreds to tens of thousands
WARM_FAULTS = 200

_SCRIPT = r"""
import contextlib, io, json, resource, sys
from dataclasses import replace
from rfaudio import cli, flow
from rfaudio.config import RunConfig
from rfaudio.data import build_toy_model
from rfaudio.model import ModelConfig

def minflt():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

faults = {"sample": [], "forge": [], "eval": []}
# the benchmark's toy model, sampled as its toy_train_sample workload does
toy = dict(d_lat=2, d_mel=2, d_sync=1, d_mm=16, d_trans=16, d_high=64,
           width=64, depth=4, heads=4, mlp_ratio=4, time_basis=64)
model = build_toy_model(replace(RunConfig(seed=0), model=ModelConfig(**toy)))
bundle = model.conditioner.assemble(1, instruction="mode1")
for k in range(3):
    cfg = flow.SamplerConfig(steps=5, guidance_scale=6.0, seed=k)
    start = minflt()
    flow.sample_batch(model, [bundle] * 250, (1, 2), cfg)
    faults["sample"].append(minflt() - start)
root = sys.argv[1]
for _ in range(3):
    for name, argv in (
        ("forge", ["forge", "--root", root, "--forge.items_per_task", "1",
                   "--forge.duration_s", "5", "--seed", "1"]),
        ("eval", ["eval", "--manifest", root]),
    ):
        start = minflt()
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0, name
        faults[name].append(minflt() - start)
print(json.dumps(faults))
"""


@pytest.fixture(scope="module")
def faults(tmp_path_factory):
    root = tmp_path_factory.mktemp("faults") / "corpus"
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(root)], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("call", ["sample", "forge", "eval"])
def test_warm_call_faults_no_fresh_pages(faults, call):
    """The last of three calls: a toy guided B = 250 ``sample_batch``, or a
    forge and an ``eval --manifest`` of a 3-triplet, 5 s corpus. The first
    forge after an eval can still grow the heap once, so the third counts."""
    assert faults[call][-1] < WARM_FAULTS, faults
