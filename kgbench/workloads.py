"""Seeded inputs, operations and oracles of the kernelgauge benchmark.

`make_plan` is pure Python (no kernelgauge import) so the driver process
can build a run's inputs cheaply; `run_batch` executes a plan once inside
a worker process and checks every output against its oracle.

Every output row is checked against its oracles, whatever its verdict.
An operation fails when it raises, exits without a report, returns a
verdict other than `pass` or misses an oracle.  The oracles are:
  * disc closed forms K = pi*B = 1 (disc_baseline);
  * pi*B on annulus_strict against the exact-series golden value;
  * |ratio - 1| at every expected-equality point, within three times the
    run's own error estimate (the verdict cushion) or `tol_eq` where the
    output carries no estimate (sweep rows);
  * ratio >= 1 within the same cushion at every other verify point
    (the comparison theorem);
  * on `sublevel`: the monodromy of the extremal section, the g_curve
    linear residual over G(0), the shell-identity relative gap and the
    boundary-limit gap, at the tolerances of the library's own tests.

Any failed operation makes the run incorrect.  The generated inputs
therefore stay where the verifier resolves them on the benchmark's grid,
which leaves out equality cases whose density is singular at an
off-center z0 (see `_generated_verify`).

`max_rel_err` is taken over the anchors only, whatever their verdict:
the shipped scenarios on `verify`, the matched point of the rotated
shipped annulus on `sweep`, and the shell gap and g_curve residual of the
shipped `annulus_matched` on `sublevel`.  An anchor that produced no
output adds an error of 1, so losing it cannot improve the metric.
Generated inputs are gated by their oracles but left out of
the maximum: their errors range over up to four decades from seed to seed
and would make the metric useless as a regression bound.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import runpy
import time
from pathlib import Path

WORKLOADS = ("verify", "sweep", "sublevel")

# Resolution block of the generated scenarios and of every sublevel call:
# the shipped basis schedule on a grid about half the size of the shipped
# one (angular cells still above 4 * n_max).  A batch then takes 4-13 s,
# so a run can repeat it and report a median, which host noise on a
# shared 2-core machine needs.
_RUN = {"basis_schedule": [8, 16, 32], "boundary_nodes": 256, "radial_cells": 160, "angular_cells": 192}
_CUSHION = 3.0       # verifier._ESTIMATE_CUSHION: error bars are 3x the estimate
_FLOOR = 1e-10       # CSV values carry 13 significant digits
_ERR_FLOOR = 1e-12   # max_rel_err floor, so roundoff cannot register as a change
_NO_OUTPUT_ERR = 1.0  # anchor error recorded when an anchor produced no output
SWEEP_POINTS = 9
# Tolerances of the library's own gfunctional tests.
_MONODROMY_TOL = 1e-8
_LINEAR_TOL = 1e-3
_SHELL_TOL = 5e-3
_BOUNDARY_TOL = 5e-3


def _polar(r: float, theta: float) -> list[float]:
    return [r * math.cos(theta), r * math.sin(theta)]


def _matched_alpha(q: float, r: float, k: int) -> float:
    """alpha_u with (k+1) alpha_z0 + alpha_u = 0 mod 1, alpha_z0 = -log|z0|/log q."""
    return (k + 1) * math.log(r) / math.log(q)


def _generated_verify(rng: random.Random) -> list[tuple[str, dict, str]]:
    """Four admissible scenarios that together cover disc and annulus,
    centered and off-center z0, all three c families, k in {0, 1} and
    matched and unmatched characters.  Returns (name, doc, oracle).

    The weight data and the angle of z0 are drawn; the domain and |z0|,
    which set the node counts and Green truncations and so the cost, are
    fixed per scenario."""
    out = []
    p0 = rng.uniform(0.5, 1.0)
    out.append((
        "disc_centered_const_eq",
        {"domain": {"kind": "disc"}, "point": {"z0": 0.0}, "k": 0,
         "weight": {"p0": p0, "aG": 2.0 - 2.0 * p0,
                    "u": {"coeffs": [[rng.choice([1, 2]), rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3)]]},
                    "c": {"kind": "constant_one"}}},
        "equality",
    ))
    # Off-center z0.  For delta > 0 the density is singular there, the
    # limit the README documents as resolving only at the angular rate: at
    # some angles of z0 the quadrature estimate then misses the error even
    # for delta = 0.04, and above about 0.35 the verdict turns inconclusive
    # or fail.  A benchmark operation must not fail, so delta stops at 0
    # here; the strict k = 1 scenario below keeps a singular density.
    out.append((
        "disc_offcenter_expdelta_eq",
        {"domain": {"kind": "disc"}, "point": {"z0": _polar(0.4, rng.uniform(0, 2 * math.pi))},
         "k": 0, "weight": {"p0": 1.0, "c": {"kind": "exp_delta", "delta": rng.uniform(-0.9, 0.0)}}},
        "equality",
    ))
    q, r = 0.25, 0.65
    out.append((
        "annulus_poly_matched_eq",
        {"domain": {"kind": "annulus", "q": q}, "point": {"z0": _polar(r, rng.uniform(0, 2 * math.pi))},
         "k": 0, "weight": {"p0": 1.0, "u": {"log": _matched_alpha(q, r, 0)},
                            "c": {"kind": "poly", "m": rng.uniform(0.25, 4.0)}}},
        "equality",
    ))
    q = 0.3
    r = math.sqrt(q)
    p0 = rng.uniform(1.5, 2.0)
    out.append((
        "annulus_k1_expdelta_unmatched",
        {"domain": {"kind": "annulus", "q": q}, "point": {"z0": _polar(r, rng.uniform(0, 2 * math.pi))},
         "k": 1, "weight": {"p0": p0, "aG": 4.0 - 2.0 * p0,
                            "u": {"log": _matched_alpha(q, r, 1) + rng.uniform(0.15, 0.85)},
                            "c": {"kind": "exp_delta", "delta": rng.uniform(-0.9, 0.5)}}},
        "strict",
    ))
    for _, doc, _ in out:
        doc["run"] = dict(_RUN)
    # |ratio - 1| of the poly profile grows like m / radial_cells^2; at 160
    # radial cells it crosses tol_eq for m above about 1.8, at 480 it stays
    # below half of tol_eq over the whole range of m.
    out[2][1]["run"]["radial_cells"] = 480
    return out


def make_plan(workload: str, seed: int, root: Path, workdir: Path) -> dict:
    """Write the run's scenario files into workdir and return its plan."""
    rng = random.Random(f"kgbench-{workload}-{seed}")
    ops = []      # the timed batch
    checks = []   # checked once per run, before timing; see run_checks

    def scenario(name: str, doc: dict) -> str:
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(doc, indent=1))
        return str(path)

    if workload == "verify":
        golden = _golden(root)
        shipped = [
            ("disc_baseline", {"type": "disc_closed_form"}),
            ("annulus_strict", {"type": "strict", "pib": golden["ANNULUS_PIB"]}),
            ("annulus_matched", {"type": "equality"}),
        ]
        for name, oracle in shipped:
            ops.append({"kind": "verify", "name": name, "anchor": True, "oracle": oracle,
                        "scenario": str(root / "scenarios" / f"{name}.json")})
        for name, doc, kind in _generated_verify(rng):
            ops.append({"kind": "verify", "name": name, "anchor": False, "oracle": {"type": kind},
                        "scenario": scenario(name, doc)})
    elif workload == "sweep":
        # The shipped annulus rotated by a seeded angle: rotation leaves K and
        # B unchanged (to 7 digits on this grid), so the matched-point error
        # is a stable anchor while the inputs still differ per seed.
        q, r = 0.25, 0.5
        doc = {"domain": {"kind": "annulus", "q": q},
               "point": {"z0": _polar(r, rng.uniform(0, 2 * math.pi))}, "k": 0,
               "weight": {"p0": 1.0, "u": {"log": 0.0, "coeffs": []}, "c": {"kind": "constant_one"}},
               "run": dict(_RUN)}
        # Spacing keeps every other point at least 0.08 (mod 1) from the
        # matched character, where the strict margin clears tol_eq.
        step = rng.uniform(0.085, 0.11)
        index = rng.randint(2, SWEEP_POINTS - 3)
        lo = _matched_alpha(q, r, 0) - index * step
        hi = lo + (SWEEP_POINTS - 1) * step
        ops.append({"kind": "sweep", "name": "alpha_u", "anchor": True, "scenario": scenario("sweep_base", doc),
                    "range": f"{lo!r}:{hi!r}:{SWEEP_POINTS}", "matched_index": index})
    elif workload == "sublevel":
        # The shipped equality scenario is the anchor: masked-rule errors
        # change by 2x under a mere rotation of z0, so only fixed inputs
        # give a steady max_rel_err.  It is checked once per run, before
        # timing, so the timed batch is short enough to repeat five or more
        # times in a run.  The seeded configuration sits closer to the
        # boundary (92 Laurent terms per side against 52); its clearance is
        # fixed because the Laurent cost, and so wall_s, follows it.
        checks.append({"kind": "sublevel", "name": "annulus_matched", "anchor": True,
                       "scenario": str(root / "scenarios" / "annulus_matched.json"),
                       "t_grid": [0.0, 0.3, 0.6, 0.9], "band": [1.1, 0.2], "a_delta": 0.25})
        q, r = 0.25, 0.7
        doc = {"domain": {"kind": "annulus", "q": q},
               "point": {"z0": _polar(r, rng.uniform(0, 2 * math.pi))}, "k": 0,
               "weight": {"p0": 1.0, "aG": 0.0,
                          "u": {"log": _matched_alpha(q, r, 0),
                                "coeffs": [[rng.choice([-1, 1, 2]), rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1)]]},
                          "c": {"kind": "constant_one"}}}
        step = rng.uniform(0.28, 0.32)
        t2 = rng.uniform(0.1, 0.3)
        ops.append({"kind": "sublevel", "name": "generated", "anchor": False, "scenario": scenario("sublevel", doc),
                    "t_grid": [0.0, step, 2 * step, 3 * step], "band": [t2 + rng.uniform(0.6, 1.0), t2],
                    "a_delta": rng.uniform(0.0, 0.5)})
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return {"workload": workload, "seed": seed, "ops": ops, "checks": checks}


def _golden(root: Path) -> dict:
    return runpy.run_path(str(root / "tests" / "golden_values.py"))


class Outcome:
    """Per-batch record: latencies, failures, oracle misses, anchor errors, output digest."""

    def __init__(self):
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.anchor_errors: list[float] = []
        self.digest = hashlib.sha256()

    def op(self, name: str, seconds: float | None, ok: bool, misses: list[str]):
        """Record one operation.  `ok` is False for a raise, a missing report
        or a non-pass verdict; `misses` are its oracle misses."""
        if seconds is not None:
            self.latencies.append(seconds)
        self.attempted += 1
        if ok and not misses:
            return
        self.failed += 1
        self.failures.append(name + "".join(f"; {m}" for m in misses))

    def as_dict(self) -> dict:
        return {"latencies": self.latencies, "attempted": self.attempted, "failed": self.failed,
                "failures": self.failures, "anchor_errors": self.anchor_errors,
                "digest": self.digest.hexdigest()}


def _quiet_cli(argv: list[str]) -> tuple[int, float]:
    from kernelgauge import cli

    sink = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    return code, time.perf_counter() - start


def _read_csv(path: Path) -> tuple[bytes, list[dict]]:
    data = path.read_bytes()
    lines = data.decode().splitlines()
    header = lines[0].split(",")
    return data, [dict(zip(header, line.split(","))) for line in lines[1:]]


def _verify_op(op: dict, out_dir: Path, outcome: Outcome) -> None:
    csv = out_dir / "report.csv"
    csv.unlink(missing_ok=True)
    code, seconds = _quiet_cli(["verify", op["scenario"], "--out", str(out_dir)])
    misses: list[str] = []
    if not csv.exists():  # rejected or failed before a report was written
        outcome.digest.update(f"{op['name']}:exit{code}".encode())
        if op["anchor"]:
            outcome.anchor_errors.append(_NO_OUTPUT_ERR)
        outcome.op(f"{op['name']} (exit {code}, no report)", seconds, False, misses)
        return
    data, (row,) = _read_csv(csv)
    outcome.digest.update(data)
    k, b, ratio = float(row["K"]), float(row["B"]), float(row["ratio"])
    k_rel = (float(row["K_trunc"]) + float(row["K_quad"])) / k
    b_rel = (float(row["B_trunc"]) + float(row["B_quad"])) / b
    oracle = op["oracle"]
    errors = []

    def check(label: str, err: float, tol: float):
        errors.append(err)
        if not err <= tol:
            misses.append(f"{label} error {err:.3e} > {tol:.3e}")

    if oracle["type"] == "disc_closed_form":
        check("K = 1", abs(k - 1.0), _CUSHION * k_rel + _FLOOR)
        check("pi*B = 1", abs(math.pi * b - 1.0), _CUSHION * b_rel + _FLOOR)
    if "pib" in oracle:
        check("pi*B golden", abs(math.pi * b - oracle["pib"]) / oracle["pib"], _CUSHION * b_rel + _FLOOR)
    expected = oracle["type"] in ("equality", "disc_closed_form")
    if (row["expected_equality"] == "true") != expected:
        misses.append(f"expected_equality={row['expected_equality']}, oracle says {expected}")
    if expected:
        check("|ratio - 1|", abs(ratio - 1.0), _CUSHION * (k_rel + b_rel) + _FLOOR)
    elif ratio < 1.0 - _CUSHION * (k_rel + b_rel) - _FLOOR:
        misses.append(f"ratio {ratio!r} below 1 beyond its error bar")
    if op["anchor"]:
        outcome.anchor_errors.extend(errors)
    passed = row["verdict"] == "pass"
    outcome.op(f"{op['name']} ({row['verdict']})", seconds, passed, misses)


def _sweep_op(op: dict, out_dir: Path, outcome: Outcome) -> None:
    csv = out_dir / "sweep.csv"
    csv.unlink(missing_ok=True)
    # "--range=" form: a range starting below zero would read as an option.
    code, seconds = _quiet_cli(["sweep", op["scenario"], "--param", "alpha_u", f"--range={op['range']}",
                                "--out", str(out_dir)])
    # The caller of `kernelgauge sweep` receives every point at once, when
    # the CSV is written, so one point's latency is the sweep's wall time
    # shared over its points: op_p50_s is wall_s / 9 here by construction.
    # The per-point time inside the pool is the traced cli.sweep.point_s.
    per_point = seconds / SWEEP_POINTS
    if not csv.exists():
        outcome.digest.update(f"sweep:exit{code}".encode())
        outcome.anchor_errors.append(_NO_OUTPUT_ERR)
        for i in range(SWEEP_POINTS):
            outcome.op(f"point{i} (exit {code}, no report)", per_point, False, [])
        return
    data, rows = _read_csv(csv)
    outcome.digest.update(data)
    tol = 1e-4  # the scenario's default tol_eq; sweep rows carry no error estimates
    for i, row in enumerate(rows):
        misses = []
        ratio = float(row["ratio"])
        matched = i == op["matched_index"]
        if (row["expected_equality"] == "true") != matched:
            misses.append(f"expected_equality={row['expected_equality']} at matched={matched}")
        if matched:
            err = abs(ratio - 1.0)
            outcome.anchor_errors.append(err)
            if err > tol:
                misses.append(f"|ratio - 1| {err:.3e} > tol_eq {tol:.1e}")
        elif ratio < 1.0 - tol:
            misses.append(f"ratio {ratio!r} below 1")
        outcome.op(f"point{i} ({row['verdict']})", per_point, row["verdict"] == "pass", misses)
    if len(rows) <= op["matched_index"]:
        outcome.anchor_errors.append(_NO_OUTPUT_ERR)
    for i in range(len(rows), SWEEP_POINTS):
        outcome.op(f"point{i}", per_point, False, ["row missing"])


def _sublevel_ops(op: dict, outcome: Outcome) -> None:
    import numpy as np
    from kernelgauge import CProfile, boundary_limit_check, cli, f0_construct, g_curve, shell_identity_check
    from kernelgauge.errors import KernelGaugeError

    config = cli.build_config(cli.load_scenario(op["scenario"]))
    # The generated-scenario grid, not the library default: it halves the
    # batch, so a run repeats it and reports a median.
    res = cli.build_resolution({"run": _RUN}, config.domain)
    name, anchor = op["name"], op["anchor"]

    def run(label, check, fn, *args, **kwargs):
        """Time one library call; check(result) gives (digest values, misses)."""
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except KernelGaugeError as exc:
            outcome.digest.update(f"{label}:{type(exc).__name__}".encode())
            if anchor and label in ("g_curve", "shell_identity"):
                outcome.anchor_errors.append(_NO_OUTPUT_ERR)
            outcome.op(f"{name}.{label} ({type(exc).__name__})", time.perf_counter() - start, False, [])
            return None
        # op_p50_s is the latency of a check: constructing F0 is not one.
        seconds = time.perf_counter() - start if label != "f0_construct" else None
        values, misses = check(result)
        outcome.digest.update(np.asarray(values, dtype=float).tobytes())
        outcome.op(f"{name}.{label}", seconds, True, misses)
        return result

    def check_f0(f0):
        ok = f0.monodromy_defect <= _MONODROMY_TOL
        return [f0.monodromy_defect], [] if ok else [f"monodromy defect {f0.monodromy_defect:.3e}"]

    def check_curve(crv):
        linear = crv.linear_residual / crv.g0
        if anchor:
            outcome.anchor_errors.append(linear)
        ok = linear <= _LINEAR_TOL
        return list(crv.g_upper) + [crv.linear_residual], [] if ok else [f"linear residual / G(0) {linear:.3e}"]

    def check_shell(si):
        if anchor:
            outcome.anchor_errors.append(si.relative_gap)
        ok = si.relative_gap <= _SHELL_TOL
        return [si.lhs, si.rhs], [] if ok else [f"shell relative gap {si.relative_gap:.3e}"]

    def check_boundary(bl):
        gap = bl.extrapolated_gap / bl.boundary_value
        ok = gap <= _BOUNDARY_TOL
        return list(bl.shell_ratios) + [bl.boundary_value], [] if ok else [f"boundary-limit gap / value {gap:.3e}"]

    f0 = run("f0_construct", check_f0, f0_construct, config)
    run("g_curve", check_curve, g_curve, config, op["t_grid"], res)
    if f0 is None:
        if anchor:
            outcome.anchor_errors.append(_NO_OUTPUT_ERR)
        for label in ("shell_identity", "boundary_limit"):
            outcome.op(f"{name}.{label} (no extremal section)", None, False, [])
        return
    t1, t2 = op["band"]
    run("shell_identity", check_shell, shell_identity_check, config, CProfile.exp_delta(op["a_delta"]), t1, t2,
        f0=f0, res=res)
    run("boundary_limit", check_boundary, boundary_limit_check, config, f0.abs2, res=res)


def run_checks(plan: dict, out_dir: Path) -> dict | None:
    """Run the plan's once-per-run checks, or, when it has none, the first
    operation of its batch unrecorded.  Either way this comes before timing
    and absorbs the page faults of the first large arrays of a fresh
    process (0.5-1 s on the machine the benchmark was tuned on), which
    would otherwise inflate the first batch alone.  Returns the checks'
    record: its oracles count, its timings do not."""
    if plan["checks"]:
        return run_batch(plan, out_dir, plan["checks"])
    run_batch(plan, out_dir, plan["ops"][:1])
    return None


def run_batch(plan: dict, out_dir: Path, ops: list[dict] | None = None) -> dict:
    """Execute every operation of the plan's batch (or `ops`) once; returns the batch record."""
    outcome = Outcome()
    start = time.perf_counter()
    for op in plan["ops"] if ops is None else ops:
        if op["kind"] == "verify":
            _verify_op(op, out_dir, outcome)
        elif op["kind"] == "sweep":
            _sweep_op(op, out_dir, outcome)
        else:
            _sublevel_ops(op, outcome)
    record = outcome.as_dict()
    record["wall_s"] = time.perf_counter() - start
    record["max_rel_err"] = max([_ERR_FLOOR] + record["anchor_errors"])
    return record
