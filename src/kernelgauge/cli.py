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
import re
import sys
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import InvalidConfig, KernelGaugeError, ScenarioError
from .geometry import DomainSpec
from .kernels import Resolution, kernel_section
from .potential import GreenFunctionRep, HarmonicFunctionRep, green
from .verifier import DEFAULT_TOL_EQ, VerificationReport, verify
from .weights import CProfile, PhiSpec, PsiSpec, WeightConfig

_EXIT_PASS = 0
_EXIT_FAIL = 1
_EXIT_CONFIG = 2
_EXIT_INCONCLUSIVE = 3

_KERNEL_EVAL_SAMPLES = 64  # points kernel-eval samples along its curve

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
        "tol_eq",
        "output_dir",
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


def _require_int(mapping: dict, key: str, path: str, default=None, minimum=1) -> int:
    value = _require_number(mapping, key, path, default)
    if not isinstance(value, int) or value < minimum:
        raise ScenarioError(f"'{path}.{key}' must be an integer >= {minimum}, got {value!r}")
    return value


# Each run-block value that no Resolution field holds is read here, with its
# default; load_scenario reads them all once to reject a bad one up front.
def _tol_eq(doc: dict) -> float:
    return float(_require_number(doc.get("run", {}), "tol_eq", "run", DEFAULT_TOL_EQ))


def _output_dir_setting(doc: dict) -> str:
    out = doc.get("run", {}).get("output_dir", ".")
    if not isinstance(out, str):
        raise ScenarioError("'run.output_dir' must be a string")
    return out


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
    run = doc.get("run", {})
    if not isinstance(run, dict):
        raise ScenarioError("'run' must be an object")
    _reject_unknown(run, _SCHEMA["run"], "run")
    _tol_eq(doc)
    _output_dir_setting(doc)
    if "u" in doc["weight"]:
        if not isinstance(doc["weight"]["u"], dict):
            raise ScenarioError("'weight.u' must be an object")
        _reject_unknown(doc["weight"]["u"], _SCHEMA["weight.u"], "weight.u")
    if "c" in doc["weight"]:
        if not isinstance(doc["weight"]["c"], dict):
            raise ScenarioError("'weight.c' must be an object")
        _reject_unknown(doc["weight"]["c"], _SCHEMA["weight.c"], "weight.c")
    return doc


def _domain_and_point(doc: dict) -> tuple[DomainSpec, complex]:
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
    return domain, z0


def build_config(doc: dict, green_rep: GreenFunctionRep | None = None) -> WeightConfig:
    """The scenario's configuration; green_rep, if given, is its domain's Green function with pole z0."""
    domain, z0 = _domain_and_point(doc)
    weight = doc["weight"]
    p0 = float(_require_number(weight, "p0", "weight"))
    eps = float(_require_number(weight, "eps", "weight", default=0.0))
    a_g = float(_require_number(weight, "aG", "weight", default=0.0))
    u = HarmonicFunctionRep.zero()
    if "u" in weight:
        u_doc = weight["u"]
        alpha = float(_require_number(u_doc, "log", "weight.u", default=0.0))
        coeffs: dict[int, complex] = {}
        entries = u_doc.get("coeffs", [])
        if not isinstance(entries, list):
            raise ScenarioError("'weight.u.coeffs' must be a list of [n, re, im] triples")
        for entry in entries:
            if not (isinstance(entry, list) and len(entry) == 3):
                raise ScenarioError("'weight.u.coeffs' entries must be [n, re, im] triples")
            n, re_c, im_c = entry
            if not isinstance(n, int) or isinstance(n, bool):
                raise ScenarioError("'weight.u.coeffs' exponents must be integers")
            if any(not isinstance(v, (int, float)) or isinstance(v, bool) for v in (re_c, im_c)):
                raise ScenarioError("'weight.u.coeffs' real and imaginary parts must be numbers")
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
        return WeightConfig(domain, z0, k, PsiSpec(p0, eps), PhiSpec(a_g, u), profile, green_rep)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc


def build_resolution(doc: dict, domain: DomainSpec) -> Resolution:
    run = doc.get("run", {})
    base = Resolution.for_domain(domain)
    kwargs = {}
    if "basis_schedule" in run:
        sched = run["basis_schedule"]
        if not (
            isinstance(sched, list)
            and len(sched) >= 2
            and all(isinstance(v, int) and not isinstance(v, bool) for v in sched)
            and sched[0] >= 0
            and all(a < b for a, b in zip(sched, sched[1:]))
        ):
            raise ScenarioError("'run.basis_schedule' must be >= 2 nonnegative integers, strictly increasing")
        kwargs["basis_schedule"] = tuple(sched)
    for key in ("boundary_nodes", "radial_cells", "angular_cells", "patch_levels"):
        if key in run:
            kwargs[key] = _require_int(run, key, "run", minimum=0 if key == "patch_levels" else 1)
    return Resolution(**{**base.__dict__, **kwargs})


def _output_dir(doc: dict, override: str | None) -> Path:
    out = Path(override or _output_dir_setting(doc))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _flag(value: bool) -> str:
    return str(value).lower()


# The report's columns, each with the formatter of its value.
_REPORT_TABLE: tuple[tuple[str, Callable[[VerificationReport], str]], ...] = (
    ("K", lambda r: f"{r.k_value.value:.12e}"),
    ("K_trunc", lambda r: f"{r.k_value.truncation_estimate:.6e}"),
    ("K_quad", lambda r: f"{r.k_value.quadrature_estimate:.6e}"),
    ("B", lambda r: f"{r.b_value.value:.12e}"),
    ("B_trunc", lambda r: f"{r.b_value.truncation_estimate:.6e}"),
    ("B_quad", lambda r: f"{r.b_value.quadrature_estimate:.6e}"),
    ("I_c", lambda r: f"{r.c_total:.12e}"),
    ("ratio", lambda r: f"{r.ratio:.12e}"),
    ("character_distance", lambda r: f"{r.character_distance:.12e}"),
    ("expected_equality", lambda r: _flag(r.expected_equality)),
    ("cond_mass", lambda r: _flag(r.flags.green_mass_matches)),
    ("cond_psi", lambda r: _flag(r.flags.psi_is_green_multiple)),
    ("cond_character", lambda r: _flag(r.flags.characters_match)),
    ("tol_eq", lambda r: f"{r.tol_eq:.3e}"),
    ("tol_ineq", lambda r: f"{r.tol_ineq:.3e}"),
    ("verdict", lambda r: r.verdict),
)


def write_verify_outputs(report: VerificationReport, out_dir: Path) -> None:
    csv_path = out_dir / "report.csv"
    with open(csv_path, "w") as fh:
        fh.write(",".join(col for col, _ in _REPORT_TABLE) + "\n")
        fh.write(",".join(fmt(report) for _, fmt in _REPORT_TABLE) + "\n")
    md_path = out_dir / "report.md"
    with open(md_path, "w") as fh:
        fh.write("# Verification report\n\n")
        fh.write("| quantity | value |\n|---|---|\n")
        for col, fmt in _REPORT_TABLE:
            fh.write(f"| {col} | {fmt(report)} |\n")


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


# The report columns a sweep row carries after the swept value.
_SWEEP_COLUMNS = tuple(
    (col, fmt)
    for col, fmt in _REPORT_TABLE
    if col in ("K", "B", "I_c", "ratio", "character_distance", "expected_equality", "verdict")
)

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
    # No swept parameter moves the domain or z0, so every point shares one
    # Green function and with it every rule and G on its nodes.
    shared = green(*_domain_and_point(doc))
    reports = []
    for value in values:
        varied = _apply_param(doc, args.param, float(value))
        config = build_config(varied, shared)
        reports.append(verify(config, build_resolution(varied, config.domain), _tol_eq(varied)))

    out_dir = _output_dir(doc, args.out)
    csv_path = out_dir / "sweep.csv"
    with open(csv_path, "w") as fh:
        fh.write(",".join(["param", *(col for col, _ in _SWEEP_COLUMNS)]) + "\n")
        for value, report in zip(values, reports):
            fh.write(",".join([f"{value:.12e}", *(fmt(report) for _, fmt in _SWEEP_COLUMNS)]) + "\n")
    print(f"wrote {csv_path} ({len(reports)} rows)")
    return _verdict_exit([r.verdict for r in reports])


def cmd_kernel_eval(args) -> int:
    doc = load_scenario(args.scenario)
    config = build_config(doc)
    if config.k != 0:
        raise ScenarioError("kernel-eval requires a k = 0 scenario")
    res = build_resolution(doc, config.domain)
    sec_k = kernel_section(config, "szego", res)
    sec_b = kernel_section(config, "bergman", res)
    if args.curve == "boundary":
        theta = 2.0 * math.pi * np.arange(_KERNEL_EVAL_SAMPLES) / _KERNEL_EVAL_SAMPLES
        zs = np.exp(1j * theta)
    else:
        z0 = config.z0
        direction = np.exp(1j * np.angle(z0)) if abs(z0) > 0 else 1.0
        outer = 0.97 * direction
        ts = np.linspace(0.0, 1.0, _KERNEL_EVAL_SAMPLES)
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
    from .selftest import run_selftest  # loaded only here: no other command needs it

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
