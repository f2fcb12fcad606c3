"""Command-line front end: verify runs, parameter sweeps, kernel dumps.

Scenario files are JSON documents with a strict schema; unknown keys are
rejected with their path so typos cannot silently fall back to defaults.
Exit codes: 0 all pass, 1 verdict fail, 2 configuration error,
3 inconclusive or numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .errors import InvalidConfig, KernelGaugeError, ScenarioError
from .geometry import DomainSpec
from .kernels import KernelValue, Resolution, kernel_section
from .potential import HarmonicFunctionRep
from .selftest import run_selftest
from .verifier import VerificationReport, verify
from .weights import CProfile, PhiSpec, PsiSpec, WeightConfig

_EXIT_PASS = 0
_EXIT_FAIL = 1
_EXIT_CONFIG = 2
_EXIT_INCONCLUSIVE = 3

_SCHEMA = {
    "domain": {"kind", "q"},
    "point": {"z0"},
    "weight": {"p0", "eps", "aG", "u", "c"},
    "weight.u": {"log", "coeffs"},
    "weight.c": {"kind", "delta", "m"},
    "run": {
        "basis_schedule",
        "boundary_nodes",
        "radial_cells",
        "angular_cells",
        "patch_levels",
        "patch_grading",
        "patch_panels",
        "patch_radius",
        "refine_quadrature",
        "tol_eq",
        "output_dir",
        "curve_samples",
    },
}
_TOP_KEYS = {"domain", "point", "weight", "run", "k"}


def _reject_unknown(mapping: dict, allowed: set[str], path: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise ScenarioError(f"unknown key(s) {sorted(unknown)} under '{path}'")


def _as_complex(value, path: str) -> complex:
    if isinstance(value, (int, float)):
        return complex(value)
    if isinstance(value, list) and len(value) == 2 and all(isinstance(v, (int, float)) for v in value):
        return complex(value[0], value[1])
    raise ScenarioError(f"'{path}' must be a number or a [re, im] pair")


def _require_number(mapping: dict, key: str, path: str, default=None):
    if key not in mapping:
        if default is None:
            raise ScenarioError(f"missing required key '{path}.{key}'")
        return default
    value = mapping[key]
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ScenarioError(f"'{path}.{key}' must be a number")
    return value


def load_scenario(path: str | Path) -> dict:
    """Parse and validate a scenario file; raises ScenarioError with
    line diagnostics on malformed JSON and on schema violations."""
    text = Path(path).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ScenarioError(f"{path}: top level must be an object")
    _reject_unknown(doc, _TOP_KEYS, "<top>")
    for section in ("domain", "point", "weight"):
        if section not in doc:
            raise ScenarioError(f"missing required section '{section}'")
        if not isinstance(doc[section], dict):
            raise ScenarioError(f"'{section}' must be an object")
        _reject_unknown(doc[section], _SCHEMA[section], section)
    if "run" in doc:
        _reject_unknown(doc["run"], _SCHEMA["run"], "run")
    if "u" in doc["weight"]:
        if not isinstance(doc["weight"]["u"], dict):
            raise ScenarioError("'weight.u' must be an object")
        _reject_unknown(doc["weight"]["u"], _SCHEMA["weight.u"], "weight.u")
    if "c" in doc["weight"]:
        if not isinstance(doc["weight"]["c"], dict):
            raise ScenarioError("'weight.c' must be an object")
        _reject_unknown(doc["weight"]["c"], _SCHEMA["weight.c"], "weight.c")
    return doc


def build_config(doc: dict) -> WeightConfig:
    dom = doc["domain"]
    kind = dom.get("kind")
    if kind not in ("disc", "annulus"):
        raise ScenarioError("'domain.kind' must be 'disc' or 'annulus'")
    if kind == "annulus":
        q = _require_number(dom, "q", "domain")
        if not 0.0 < q < 1.0:
            raise ScenarioError("'domain.q' must lie in (0, 1)")
        domain = DomainSpec("annulus", float(q))
    else:
        if "q" in dom:
            raise ScenarioError("'domain.q' is only valid for annulus domains")
        domain = DomainSpec("disc")
    z0 = _as_complex(doc["point"].get("z0"), "point.z0")
    if not domain.contains(z0, margin=1e-9):
        raise ScenarioError(f"'point.z0' = {z0} is not interior to the domain")

    weight = doc["weight"]
    p0 = float(_require_number(weight, "p0", "weight"))
    eps = float(_require_number(weight, "eps", "weight", default=0.0))
    a_g = float(_require_number(weight, "aG", "weight", default=0.0))
    u = HarmonicFunctionRep.zero()
    if "u" in weight:
        u_doc = weight["u"]
        alpha = float(_require_number(u_doc, "log", "weight.u", default=0.0))
        coeffs: dict[int, complex] = {}
        for entry in u_doc.get("coeffs", []):
            if not (isinstance(entry, list) and len(entry) == 3):
                raise ScenarioError("'weight.u.coeffs' entries must be [n, re, im] triples")
            n, re_c, im_c = entry
            if not isinstance(n, int) or isinstance(n, bool):
                raise ScenarioError("'weight.u.coeffs' exponents must be integers")
            coeffs[n] = complex(re_c, im_c)
        if domain.kind == "disc" and (alpha != 0.0 or any(n < 0 for n in coeffs)):
            raise ScenarioError("disc domains admit no log mode or negative exponents in 'weight.u'")
        u = HarmonicFunctionRep.from_coefficients(alpha, coeffs)

    c_doc = weight.get("c", {"kind": "constant_one"})
    c_kind = c_doc.get("kind")
    try:
        if c_kind == "constant_one":
            profile = CProfile.constant_one()
        elif c_kind == "exp_delta":
            profile = CProfile.exp_delta(float(_require_number(c_doc, "delta", "weight.c")))
        elif c_kind == "poly":
            profile = CProfile.poly(float(_require_number(c_doc, "m", "weight.c")))
        else:
            raise ScenarioError(f"unknown c-profile kind {c_kind!r}")
    except KernelGaugeError as exc:
        raise ScenarioError(str(exc)) from exc

    k = doc.get("k", 0)
    if not isinstance(k, int) or isinstance(k, bool) or k < 0:
        raise ScenarioError("'k' must be a nonnegative integer")
    try:
        return WeightConfig(domain, z0, k, PsiSpec(p0, eps), PhiSpec(a_g, u), profile)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc


def build_resolution(doc: dict, domain: DomainSpec) -> Resolution:
    run = doc.get("run", {})
    base = Resolution.for_domain(domain)
    kwargs = {}
    if "basis_schedule" in run:
        sched = run["basis_schedule"]
        if not (isinstance(sched, list) and all(isinstance(v, int) for v in sched) and len(sched) >= 2):
            raise ScenarioError("'run.basis_schedule' must be a list of >= 2 integers")
        kwargs["basis_schedule"] = tuple(sched)
    for key in ("boundary_nodes", "radial_cells", "angular_cells", "patch_levels", "patch_panels"):
        if key in run:
            kwargs[key] = int(_require_number(run, key, "run"))
    if "patch_grading" in run:
        kwargs["patch_grading"] = float(_require_number(run, "patch_grading", "run"))
    if "patch_radius" in run:
        kwargs["patch_radius"] = float(_require_number(run, "patch_radius", "run"))
    if "refine_quadrature" in run:
        if not isinstance(run["refine_quadrature"], bool):
            raise ScenarioError("'run.refine_quadrature' must be a boolean")
        kwargs["refine_quadrature"] = run["refine_quadrature"]
    try:
        return Resolution(**{**base.__dict__, **kwargs})
    except TypeError as exc:
        raise ScenarioError(str(exc)) from exc


def _tol_eq(doc: dict) -> float:
    return float(doc.get("run", {}).get("tol_eq", 1e-4))


def _output_dir(doc: dict, override: str | None) -> Path:
    run = doc.get("run", {})
    out = Path(override or run.get("output_dir", "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


_REPORT_COLUMNS = [
    "K",
    "K_trunc",
    "K_quad",
    "B",
    "B_trunc",
    "B_quad",
    "I_c",
    "ratio",
    "character_distance",
    "expected_equality",
    "cond_mass",
    "cond_psi",
    "cond_character",
    "tol_eq",
    "tol_ineq",
    "verdict",
]


def _quad_cell(value: KernelValue) -> str:
    quad = value.quadrature_estimate
    return "nan" if quad is None else f"{quad:.6e}"


def _report_row(report: VerificationReport) -> list[str]:
    return [
        f"{report.k_value.value:.12e}",
        f"{report.k_value.truncation_estimate:.6e}",
        _quad_cell(report.k_value),
        f"{report.b_value.value:.12e}",
        f"{report.b_value.truncation_estimate:.6e}",
        _quad_cell(report.b_value),
        f"{report.c_total:.12e}",
        f"{report.ratio:.12e}",
        f"{report.character_distance:.12e}",
        str(report.expected_equality).lower(),
        str(report.flags.green_mass_matches).lower(),
        str(report.flags.psi_is_green_multiple).lower(),
        str(report.flags.characters_match).lower(),
        f"{report.tol_eq:.3e}",
        f"{report.tol_ineq:.3e}",
        report.verdict,
    ]


def write_verify_outputs(report: VerificationReport, out_dir: Path) -> None:
    csv_path = out_dir / "report.csv"
    with open(csv_path, "w") as fh:
        fh.write(",".join(_REPORT_COLUMNS) + "\n")
        fh.write(",".join(_report_row(report)) + "\n")
    md_path = out_dir / "report.md"
    with open(md_path, "w") as fh:
        fh.write("# Verification report\n\n")
        fh.write("| quantity | value |\n|---|---|\n")
        for col, val in zip(_REPORT_COLUMNS, _report_row(report)):
            fh.write(f"| {col} | {val} |\n")


def _verdict_exit(verdicts: list[str]) -> int:
    if any(v == "fail" for v in verdicts):
        return _EXIT_FAIL
    if any(v == "inconclusive" for v in verdicts):
        return _EXIT_INCONCLUSIVE
    return _EXIT_PASS


def cmd_verify(args) -> int:
    doc = load_scenario(args.scenario)
    config = build_config(doc)
    res = build_resolution(doc, config.domain)
    report = verify(config, res, _tol_eq(doc))
    for line in report.summary_lines():
        print(line)
    out_dir = _output_dir(doc, args.out)
    write_verify_outputs(report, out_dir)
    print(f"wrote {out_dir / 'report.csv'} and {out_dir / 'report.md'}")
    return _verdict_exit([report.verdict])


_SWEEP_PARAMS = {
    "alpha_u": ("weight", "u", "log"),
    "delta": ("weight", "c", "delta"),
    "m": ("weight", "c", "m"),
    "p0": ("weight", "p0"),
    "aG": ("weight", "aG"),
    "eps": ("weight", "eps"),
}


def _apply_param(doc: dict, param: str, value: float) -> dict:
    path = _SWEEP_PARAMS[param]
    out = json.loads(json.dumps(doc))
    node = out
    for key in path[:-1]:
        node = node.setdefault(key, {})
    node[path[-1]] = value
    if param == "alpha_u":
        node.setdefault("coeffs", [])
    if param == "delta":
        node["kind"] = "exp_delta"
    if param == "m":
        node["kind"] = "poly"
    return out


def _max_workers() -> int:
    env = os.environ.get("KERNELGAUGE_THREADS", "")
    if env:
        try:
            n = int(env)
        except ValueError as exc:
            raise ScenarioError(f"KERNELGAUGE_THREADS must be a positive integer, got {env!r}") from exc
        if n < 1:
            raise ScenarioError("KERNELGAUGE_THREADS must be a positive integer")
        return n
    return min(4, os.cpu_count() or 1)


def cmd_sweep(args) -> int:
    doc = load_scenario(args.scenario)
    if args.param not in _SWEEP_PARAMS:
        raise ScenarioError(
            f"unknown sweep parameter {args.param!r}; choose from {sorted(_SWEEP_PARAMS)}"
        )
    try:
        lo_s, hi_s, n_s = args.range.split(":")
        lo, hi, n = float(lo_s), float(hi_s), int(n_s)
    except ValueError as exc:
        raise ScenarioError(f"--range must look like a:b:n, got {args.range!r}") from exc
    if n < 1:
        raise ScenarioError("--range point count must be >= 1")
    values = np.linspace(lo, hi, n)

    def run_one(value: float) -> VerificationReport:
        varied = _apply_param(doc, args.param, float(value))
        config = build_config(varied)
        res = build_resolution(varied, config.domain)
        return verify(config, res, _tol_eq(varied))

    with ThreadPoolExecutor(max_workers=_max_workers()) as pool:
        reports = list(pool.map(run_one, values))

    out_dir = _output_dir(doc, args.out)
    csv_path = out_dir / "sweep.csv"
    with open(csv_path, "w") as fh:
        fh.write("param,K,B,I_c,ratio,character_distance,expected_equality,verdict\n")
        for value, report in zip(values, reports):
            fh.write(
                f"{value:.12e},{report.k_value.value:.12e},{report.b_value.value:.12e},"
                f"{report.c_total:.12e},{report.ratio:.12e},{report.character_distance:.12e},"
                f"{str(report.expected_equality).lower()},{report.verdict}\n"
            )
    print(f"wrote {csv_path} ({len(reports)} rows)")
    return _verdict_exit([r.verdict for r in reports])


def cmd_kernel_eval(args) -> int:
    doc = load_scenario(args.scenario)
    config = build_config(doc)
    if config.k != 0:
        raise ScenarioError("kernel-eval requires a k = 0 scenario")
    res = build_resolution(doc, config.domain)
    samples = int(doc.get("run", {}).get("curve_samples", 64))
    sec_k = kernel_section(config, "szego", res)
    sec_b = kernel_section(config, "bergman", res)
    if args.curve == "boundary":
        theta = 2.0 * math.pi * np.arange(samples) / samples
        zs = np.exp(1j * theta)
    else:
        z0 = config.z0
        direction = np.exp(1j * np.angle(z0)) if abs(z0) > 0 else 1.0
        outer = 0.97 * direction
        ts = np.linspace(0.0, 1.0, samples)
        zs = z0 + ts * (outer - z0)
    kv = sec_k.two_point(zs)
    bv = sec_b.two_point(zs)
    out_dir = _output_dir(doc, args.out)
    csv_path = out_dir / f"kernel_eval_{args.curve}.csv"
    with open(csv_path, "w") as fh:
        fh.write("re_z,im_z,re_K,im_K,re_B,im_B\n")
        for z, k, b in zip(zs, kv, bv):
            fh.write(
                f"{z.real:.12e},{z.imag:.12e},{k.real:.12e},{k.imag:.12e},"
                f"{b.real:.12e},{b.imag:.12e}\n"
            )
    print(f"wrote {csv_path}")
    return _EXIT_PASS


def cmd_selftest(_args) -> int:
    results = run_selftest()
    return _EXIT_PASS if all(r.passed for r in results) else _EXIT_FAIL


def _bind_negative_range(argv: list[str]) -> list[str]:
    """Join `--range -a:b:n` into `--range=-a:b:n`.

    argparse reads a token that starts with '-' and is not a plain number
    as an option, so a negative range start would leave --range empty.
    """
    out: list[str] = []
    for token in argv:
        if out and out[-1] == "--range" and re.match(r"-[0-9.]", token):
            out[-1] = f"--range={token}"
        else:
            out.append(token)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="kernelgauge",
        description="Weighted Hardy/Bergman kernel comparison on disc and annulus domains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the kernel comparison for one scenario")
    p_verify.add_argument("scenario")
    p_verify.add_argument("--out", default=None, help="output directory override")
    p_verify.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser("sweep", help="verify across a parameter range")
    p_sweep.add_argument("scenario")
    p_sweep.add_argument("--param", required=True)
    p_sweep.add_argument("--range", required=True, help="a:b:n inclusive linspace")
    p_sweep.add_argument("--out", default=None)
    p_sweep.set_defaults(func=cmd_sweep)

    p_eval = sub.add_parser("kernel-eval", help="dump kernel sections along a curve")
    p_eval.add_argument("scenario")
    p_eval.add_argument("--curve", choices=("boundary", "radial"), required=True)
    p_eval.add_argument("--out", default=None)
    p_eval.set_defaults(func=cmd_kernel_eval)

    p_self = sub.add_parser("selftest", help="run the built-in oracle suite")
    p_self.set_defaults(func=cmd_selftest)

    args = parser.parse_args(_bind_negative_range(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except InvalidConfig as exc:
        print(f"configuration rejected: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except KernelGaugeError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return _EXIT_INCONCLUSIVE


if __name__ == "__main__":
    raise SystemExit(main())
