"""One benchmark process: run a plan's batch in a fresh interpreter.

    python3 kgbench/worker.py PLAN.json RESULT.json --seconds S --trace 0|1 [--once]

After the plan's untimed once-per-run checks (or an unrecorded run of the
first operation), repeats the batch while the next repetition is expected
to finish within `--seconds` (always at least once; `--once` runs exactly
one), then writes the batch and check records, peak RSS and the
environment record to RESULT.json.
With `--trace 1` every kernelgauge layer is wrapped by `tracer.Tracer`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def environment() -> dict:
    import numpy as np
    import scipy
    import kernelgauge
    from kernelgauge import cli

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_version = "unknown"
    max_workers = getattr(cli, "_max_workers", None)
    return {
        "kernelgauge_file": str(Path(kernelgauge.__file__).resolve().relative_to(ROOT)),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        **{var: os.environ.get(var) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "KERNELGAUGE_THREADS")},
        "sweep_pool_workers": max_workers() if max_workers else None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("plan")
    parser.add_argument("result")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--once", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import kernelgauge.cli  # noqa: F401  (imported before timing, so no batch pays for it)
    from workloads import run_batch, run_checks

    plan = json.loads(Path(args.plan).read_text())
    out_dir = Path(args.result).parent / f"out-{os.getpid()}"
    out_dir.mkdir()
    checks = run_checks(plan, out_dir)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    batches = []
    start = time.perf_counter()
    try:
        while True:
            batches.append(run_batch(plan, out_dir))
            elapsed = time.perf_counter() - start
            if args.once or elapsed + batches[-1]["wall_s"] > args.seconds:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
    result = {
        "batches": batches,
        "checks": [checks] if checks else [],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        result["env"]["sweep_threads_seen"] = len(tracer.sweep_threads)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
