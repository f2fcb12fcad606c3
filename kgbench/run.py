"""kernelgauge benchmark: one seeded workload, checked against its oracles.

    python3 kgbench/run.py --workload verify|sweep|sublevel --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
`src/`.  Every process the run starts is a fresh interpreter that it waits
for, and all scratch files live under `.kgbench_work/` in the checkout and
are removed at the end.

--trace 0 measures the end-to-end metrics with tracing off:
  wall_s       median wall time of the workload's fixed batch
  op_p50_s     median latency of one operation
  setup_s      median, over 7 fresh interpreters, of start-up until
               `import kernelgauge` and loading the scenario are done
  peak_rss_mb  peak RSS of the workload's own fresh process
  max_rel_err  largest relative error of the anchor oracles (>= 1e-12)
fail_frac (failed / attempted operations) is printed as well and carried
by the result's `failed` and `attempted` fields.

--trace 1 runs the batch once untraced and once traced, each in a fresh
process, requires bit-identical outputs, and reports the per-layer
metrics, the tracing overhead (traced minus untraced wall_s) and the
import time of scipy.linalg and scipy.integrate.

The last line of stdout is the JSON result.  The exit code is 0 when
every operation passes its oracles, 1 when one fails, 2 when the run cannot be made.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, make_plan  # noqa: E402

SETUP_REPEATS = 7
IMPORTTIME_REPEATS = 3
DEADLINE_S = 170.0

_SETUP_CODE = """
import sys
from kernelgauge import cli
doc = cli.load_scenario(sys.argv[1])
cli.build_resolution(doc, cli.build_config(doc).domain)
print("ready", flush=True)
"""


class RunError(Exception):
    """The run could not be made (missing sources, worker crash, timeout)."""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise RunError("run exceeded its time limit")
    return left


def _setup_once(scenario: str, deadline: float) -> float:
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", _SETUP_CODE, scenario], env=_child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        _, err = proc.communicate(timeout=_remaining(deadline))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RunError(f"setup interpreter failed: {err.strip()[-500:]}")
    return ready


def measure_setup(scenario: str, deadline: float) -> list[float]:
    _setup_once(scenario, deadline)  # warm the file cache and bytecode
    return [_setup_once(scenario, deadline) for _ in range(SETUP_REPEATS)]


def _import_times(deadline: float) -> dict[str, float]:
    """Cumulative import time of scipy.linalg and scipy.integrate under `import kernelgauge`."""
    samples: dict[str, list[float]] = {"scipy.linalg": [], "scipy.integrate": []}
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import kernelgauge"], env=_child_env(),
                              capture_output=True, text=True, timeout=_remaining(deadline))
        if proc.returncode != 0:
            raise RunError(f"import failed: {proc.stderr.strip()[-500:]}")
        seen = set()
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not line.startswith("import time:"):
                continue
            name = parts[2].strip()
            if name in samples and name not in seen:
                seen.add(name)
                samples[name].append(int(parts[1]) * 1e-6)
    return {name: statistics.median(v) if v else 0.0 for name, v in samples.items()}


def run_worker(plan_path: Path, workdir: Path, seconds: float, trace: int, once: bool, deadline: float) -> dict:
    result_path = workdir / f"result-{trace}-{time.monotonic_ns()}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), str(plan_path), str(result_path),
           "--seconds", str(seconds), "--trace", str(trace)] + (["--once"] if once else [])
    proc = subprocess.run(cmd, env=_child_env(), capture_output=True, text=True, timeout=_remaining(deadline))
    if proc.returncode != 0 or not result_path.exists():
        raise RunError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(result_path.read_text())


def _check_checkout() -> None:
    missing = [p for p in ("src/kernelgauge/__init__.py", "scenarios/disc_baseline.json", "tests/golden_values.py")
               if not (ROOT / p).is_file()]
    if missing:
        raise RunError(f"not a kernelgauge checkout, missing {missing}")


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    try:
        _check_checkout()
        (ROOT / ".kgbench_work").mkdir(exist_ok=True)
        workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".kgbench_work"))
        try:
            plan = make_plan(args.workload, args.seed, ROOT, workdir)
            plan_path = workdir / "plan.json"
            plan_path.write_text(json.dumps(plan, indent=1))
            if args.trace:
                report = _traced_run(plan, plan_path, workdir, args.seconds, deadline)
            else:
                report = _untraced_run(plan, plan_path, workdir, args.seconds, deadline)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    except RunError as exc:
        print(f"kgbench: {exc}", file=sys.stderr)
        return 2
    except subprocess.TimeoutExpired as exc:
        print(f"kgbench: a child process exceeded the run's time limit ({DEADLINE_S:.0f} s)", file=sys.stderr)
        return 2
    print(json.dumps(report))
    return 0 if report["correct"] else 1


def _summarize(batches: list[dict], checks: list[dict]) -> tuple[bool, int, int]:
    records = batches + checks
    for name in sorted({f for b in records for f in b["failures"]}):
        print(f"failed operation: {name}")
    attempted = sum(b["attempted"] for b in records)
    failed = sum(b["failed"] for b in records)
    identical = len({b["digest"] for b in batches}) == 1 and len({c["digest"] for c in checks}) <= 1
    if not identical:
        print("outputs differ between repetitions of the same operations")
    return identical and failed == 0, attempted, failed


def _untraced_run(plan, plan_path, workdir, seconds, deadline) -> dict:
    first_scenario = (plan["checks"] + plan["ops"])[0]["scenario"]
    setup = measure_setup(first_scenario, deadline)
    result = run_worker(plan_path, workdir, seconds, 0, False, deadline)
    batches = result["batches"]
    correct, attempted, failed = _summarize(batches, result["checks"])
    latencies = [t for b in batches for t in b["latencies"]]
    metrics = {
        "wall_s": _metric(statistics.median(b["wall_s"] for b in batches), "s"),
        "op_p50_s": _metric(statistics.median(latencies), "s"),
        "setup_s": _metric(statistics.median(setup), "s"),
        "peak_rss_mb": _metric(result["peak_rss_mb"], "MB"),
        "max_rel_err": _metric(max(b["max_rel_err"] for b in batches + result["checks"]), "ratio"),
    }
    print("env " + json.dumps({**result["env"], **_source_record()}, sort_keys=True))
    print(f"workload {plan['workload']} seed {plan['seed']}: {len(batches)} batch(es), "
          f"{len(latencies)} operation latencies, {len(setup)} setup samples")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"fail_frac {failed / attempted:.6g} ratio ({failed}/{attempted})")
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def _traced_run(plan, plan_path, workdir, seconds, deadline) -> dict:
    imports = _import_times(deadline)
    plain = run_worker(plan_path, workdir, seconds, 0, True, deadline)
    traced = run_worker(plan_path, workdir, seconds, 1, True, deadline)
    batches = plain["batches"] + traced["batches"]
    correct, attempted, failed = _summarize(batches, plain["checks"] + traced["checks"])
    layers = dict(traced["layers"])
    layers["import.scipy_linalg_s"] = imports["scipy.linalg"]
    layers["import.scipy_integrate_s"] = imports["scipy.integrate"]
    layers["trace.overhead_s"] = traced["batches"][0]["wall_s"] - plain["batches"][0]["wall_s"]
    print("env " + json.dumps({**traced["env"], **_source_record()}, sort_keys=True))
    metrics = {name: _metric(value, layer_unit(name)) for name, value in layers.items()}
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def _source_record() -> dict:
    """The commit when the checkout is its own git work tree, and a digest of src/ always."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    commit = None
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.split()
    except (OSError, subprocess.TimeoutExpired):
        out = []
    if len(out) == 2 and Path(out[0]).resolve() == ROOT:
        commit = out[1]
    return {"commit": commit, "src_sha256": digest.hexdigest()}


if __name__ == "__main__":
    raise SystemExit(main())
