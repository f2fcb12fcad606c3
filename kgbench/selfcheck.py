"""Checks of the benchmark itself.

    python3 kgbench/selfcheck.py [--seed N]

1. The tracer leaves no loaded kernelgauge module holding an unwrapped
   target, so no call path escapes its span.
2. For every workload, a `--trace 1` run (which fails unless the traced
   outputs are bit-identical to the untraced ones) reports a nonzero
   count or time for each layer metric on the workloads the layer is
   assigned to, and zero calls where the workload bypasses the layer.
   The layers with the largest self time are printed per workload.

Exits 0 when every check holds.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Layer metric -> workloads where it must be nonzero.
ON = {
    "kernels.gram.calls": ("verify", "sweep"),
    "kernels.gram.self_s": ("verify", "sweep"),
    "kernels.basis_matrix.self_s": ("verify", "sweep", "sublevel"),
    "kernels.gram.nodes": ("verify", "sweep"),
    "kernels.gram.flop_computed": ("verify", "sweep"),
    "geometry.area_quadrature.calls": ("verify", "sweep", "sublevel"),
    "geometry.area_quadrature.self_s": ("verify", "sweep", "sublevel"),
    "geometry.area_nodes": ("verify", "sweep", "sublevel"),
    "geometry.mask_quadrature.calls": ("sublevel",),
    "geometry.mask_quadrature.self_s": ("sublevel",),
    "geometry.boundary_quadrature.self_s": ("verify", "sweep", "sublevel"),
    "potential.laurent_eval.calls": ("verify", "sweep", "sublevel"),
    "potential.laurent_eval.self_s": ("verify", "sweep", "sublevel"),
    "potential.laurent_terms": ("verify", "sweep", "sublevel"),
    "potential.green.calls": ("verify", "sweep", "sublevel"),
    "potential.green.self_s": ("verify", "sweep", "sublevel"),
    "weights.rho.self_s": ("verify", "sweep", "sublevel"),
    "weights.boundary_lambda.self_s": ("verify", "sweep", "sublevel"),
    "weights.validate_config.self_s": ("verify", "sweep"),
    "weights.profile_tail.calls": ("verify", "sweep", "sublevel"),
    "numerics.constrained_min.calls": ("verify", "sweep", "sublevel"),
    "numerics.constrained_min.self_s": ("verify", "sweep", "sublevel"),
    "numerics.cholesky.calls": ("verify", "sweep", "sublevel"),
    "numerics.cholesky.self_s": ("verify", "sweep", "sublevel"),
    "numerics.cholesky_first_try_ratio": ("verify", "sweep", "sublevel"),
    "gfunctional.g_of_t.calls": ("sublevel",),
    "gfunctional.g_of_t.self_s": ("sublevel",),
    "gfunctional.f0_construct.self_s": ("sublevel",),
    "verifier.verify.calls": ("verify", "sweep"),
    "verifier.verify.self_s": ("verify", "sweep"),
    "verifier.kernel_diag.calls": ("verify", "sweep"),
    "verifier.verdict.pass": ("verify", "sweep"),
    "cli.sweep.point_s": ("sweep",),
    "cli.sweep.wait_s": ("sweep",),
    "import.scipy_linalg_s": ("verify", "sweep", "sublevel"),
    "import.scipy_integrate_s": ("verify", "sweep", "sublevel"),
}
# Call counts that must be zero where the workload bypasses the layer.
OFF = {
    "kernels.gram.calls": ("sublevel",),
    "geometry.mask_quadrature.calls": ("verify", "sweep"),
    "gfunctional.g_of_t.calls": ("verify", "sweep"),
    "verifier.verify.calls": ("sublevel",),
}


def check_bindings() -> list[str]:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        left = tracer.originals_left()
    finally:
        tracer.uninstall()
    return [f"unwrapped binding {name}" for name in left]


def check_workload(workload: str, seed: int) -> list[str]:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                           "--seconds", "1", "--trace", "1"], capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        return [f"{workload}: run exited {proc.returncode}: {proc.stdout[-1000:]} {proc.stderr[-1000:]}"]
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    ranked = sorted((m["value"], name) for name, m in metrics.items() if name.endswith(".self_s"))[::-1]
    print(f"{workload}: largest self times " + ", ".join(f"{name} {value:.2f} s" for value, name in ranked[:4]))
    problems = [f"{workload}: {name} is 0" for name, on in ON.items()
                if workload in on and not metrics[name]["value"] > 0]
    problems += [f"{workload}: {name} is {metrics[name]['value']}, expected 0" for name, off in OFF.items()
                 if workload in off and metrics[name]["value"] != 0]
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="checks of the kernelgauge benchmark")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    problems = check_bindings()
    for workload in ("verify", "sweep", "sublevel"):
        problems += check_workload(workload, args.seed)
    for problem in problems:
        print(problem)
    print("selfcheck", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
