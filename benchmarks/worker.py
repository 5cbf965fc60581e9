"""One workload in one fresh process; ``run.py`` starts it and reads its result.

Usage (normally only through run.py)::

    python3 benchmarks/worker.py --workload NAME --seed N --seconds S \
        --traced 0|1 --sizes full|tiny --reference REF.json \
        --spawned-at T --out RESULT.json [--setup-only]

``--spawned-at`` is the parent's ``time.monotonic()`` just before it started
this process, so ``setup_s`` covers interpreter start and imports too.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import uuid
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _blas_threads() -> int | None:
    """Threads the OpenBLAS bundled with numpy will use, asked from the library."""
    import numpy as np

    for lib_path in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*")):
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_record(args, sizes: dict) -> dict:
    """What a result must carry so runs on other boxes are not compared blindly."""
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.traced),
        "sizes": sizes,
        "commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), required=True)
    parser.add_argument("--sizes", choices=("full", "tiny"), required=True)
    parser.add_argument("--reference", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true",
                        help="stop where the timed region would begin; report setup_s only")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import tracing
    import workloads
    import rfaudio

    if Path(rfaudio.__file__).resolve().parent != ROOT / "src" / "rfaudio":
        raise SystemExit(f"imported rfaudio from {rfaudio.__file__}, not from {ROOT / 'src'}")
    import_s = time.monotonic() - args.spawned_at

    table = workloads.TINY_SIZES if args.sizes == "tiny" else workloads.SIZES
    sizes = table[args.workload]
    run_id = uuid.uuid4().hex
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{run_id[:8]}"
    workdir.mkdir(parents=True)
    tracer = tracing.Tracer(run_id) if args.traced else None
    reference = json.loads(Path(args.reference).read_text())
    try:
        with workloads.Run(args.seed, args.seconds, workdir, tracer, reference,
                           args.setup_only) as run:
            end_to_end, named, samples = workloads.WORKLOADS[args.workload](run, sizes)
    except workloads.SetupFinished:
        Path(args.out).write_text(json.dumps({"setup_s": import_s + run.build_s}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    end_to_end["setup_s"] = import_s + run.build_s
    end_to_end["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {
        "record": run_record(args, sizes),
        "run_id": run_id,
        "attempted": run.attempted,
        "failed": run.failed,
        "end_to_end": end_to_end,
        "named": {k: [v, workloads.NAMED_UNITS[k]] for k, v in named.items()},
        "setup": {"import_s": import_s, "build_s": run.build_s},
        "samples": samples,
        "per_layer": None,
    }
    if tracer is not None:
        result["per_layer"] = tracing.layer_metrics(tracer)
        tracer.write(ROOT / ".bench_work" / "traces" / f"{args.workload}-seed{args.seed}.jsonl")
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
