"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are fixed here, not tuned at runtime; annulus margins
compare against the pinned values in golden_values.py (see
scripts/pin_goldens.py for the run that produced them).
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from kernelgauge import (
    BasisDescriptor,
    CProfile,
    ConstraintSystem,
    HermitianMatrix,
    PhiSpec,
    PsiSpec,
    Resolution,
    WeightConfig,
    annulus,
    boundary_limit_check,
    boundary_quadrature,
    constrained_min,
    disc,
    f0_construct,
    g_curve,
    gram,
    green,
    kernel_diag,
    reproducing_residual,
    shell_identity_check,
    verify,
    verify_suita,
)
from kernelgauge.kernels import area_measure, boundary_measure, area_quadrature_for
from kernelgauge.potential import HarmonicFunctionRep
from kernelgauge.selftest import brute_force_constrained_min, run_selftest

import golden_values as golden

PI = math.pi
ROOT = Path(__file__).resolve().parents[1]


def _announce(criterion: str, passed: bool, detail: str):
    print(f"\n[{criterion}] {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, f"{criterion}: {detail}"


def _cfg(domain, z0, k=0, p0=1.0, eps=0.0, a_g=0.0, u=None, c=None):
    return WeightConfig(
        domain,
        z0,
        k,
        PsiSpec(p0, eps),
        PhiSpec(a_g, u if u is not None else HarmonicFunctionRep.zero()),
        c if c is not None else CProfile.constant_one(),
    )


def test_ac01_disc_baseline_equality():
    start = time.time()
    res = Resolution(basis_schedule=(8, 16, 32), boundary_nodes=256,
                     radial_cells=192, angular_cells=160)
    report = verify(_cfg(disc(), 0.0), res)
    elapsed = time.time() - start
    ok = (
        abs(report.k_value.value - 1.0) < 1e-5
        and abs(PI * report.b_value.value - 1.0) < 1e-5
        and abs(report.ratio - 1.0) < 1e-5
        and report.verdict == "pass"
        and elapsed < 5.0
    )
    _announce(
        "AC01 disc baseline",
        ok,
        f"K={report.k_value.value:.8f}, piB={PI*report.b_value.value:.8f}, "
        f"ratio={report.ratio:.8f}, {elapsed:.1f}s",
    )


def test_ac02_weighted_profile_family():
    details = []
    ok = True
    res = Resolution(basis_schedule=(8, 16, 32), boundary_nodes=256,
                     radial_cells=256, angular_cells=160)
    for delta in (0.0, 0.3, 0.6):
        profile = CProfile.constant_one() if delta == 0.0 else CProfile.exp_delta(delta)
        report = verify(_cfg(disc(), 0.0, c=profile), res)
        ok = ok and abs(report.ratio - 1.0) < 1e-5
        ok = ok and abs(report.c_total - 1.0 / (1.0 - delta)) < 1e-12
        ok = ok and abs(PI * report.b_value.value - (1.0 - delta)) < 1e-5
        details.append(f"delta={delta}: ratio={report.ratio:.8f}")
    _announce("AC02 weighted-profile equality", ok, "; ".join(details))


def test_ac03_annulus_strictness():
    start = time.time()
    res = Resolution(basis_schedule=(8, 16, 32), boundary_nodes=512,
                     radial_cells=320, angular_cells=256,
                     patch_levels=32)
    report = verify(_cfg(annulus(0.25), 0.5), res)
    elapsed = time.time() - start
    margin = report.ratio - 1.0
    ok = (
        report.verdict == "pass"
        and margin > 10.0 * report.combined_estimate
        and abs(margin - golden.ANNULUS_STRICT_MARGIN) < 2e-5
        and elapsed < 30.0
    )
    _announce(
        "AC03 annulus strictness",
        ok,
        f"ratio={report.ratio:.8f}, margin={margin:.6f} "
        f"(pinned {golden.ANNULUS_STRICT_MARGIN:.6f}), est={report.combined_estimate:.2e}, "
        f"{elapsed:.1f}s",
    )


def test_ac04_annulus_extended_equality():
    res = Resolution(basis_schedule=(8, 16, 32), boundary_nodes=512,
                     radial_cells=320, angular_cells=256,
                     patch_levels=32)
    matched = _cfg(annulus(0.25), 0.5, u=HarmonicFunctionRep.log_mode(-0.5))
    report = verify(matched, res)
    f0 = f0_construct(matched)
    shifted = _cfg(annulus(0.25), 0.5, u=HarmonicFunctionRep.log_mode(-0.25))
    report2 = verify(shifted, res)
    margin2 = report2.ratio - 1.0
    ok = (
        report.expected_equality
        and abs(report.ratio - 1.0) < 1e-4
        and f0.monodromy_defect < 1e-8
        and not report2.expected_equality
        and abs(margin2 - golden.ANNULUS_SHIFT025_MARGIN) < 2e-5
        and margin2 > 10.0 * report2.combined_estimate
        and report.verdict == "pass"
        and report2.verdict == "pass"
    )
    _announce(
        "AC04 extended equality + character flip",
        ok,
        f"matched ratio={report.ratio:.8f}, monodromy={f0.monodromy_defect:.2e}; "
        f"shifted ratio={report2.ratio:.8f} (pinned margin {golden.ANNULUS_SHIFT025_MARGIN:.6f})",
    )


def test_ac05_higher_derivative_disc():
    res = Resolution(basis_schedule=(8, 16, 32), boundary_nodes=256,
                     radial_cells=224, angular_cells=160)
    report = verify(_cfg(disc(), 0.0, k=1, p0=2.0), res)
    ok = (
        abs(report.k_value.value - 2.0) < 1e-4
        and abs(PI * report.b_value.value - 2.0) < 1e-4
        and report.route_gap < 3.0 * report.combined_estimate + 1e-9
        and report.verdict == "pass"
    )
    _announce(
        "AC05 higher-derivative comparison",
        ok,
        f"K1={report.k_value.value:.8f}, piB1={PI*report.b_value.value:.8f}, "
        f"route gap={report.route_gap:.2e}",
    )


def test_ac06_minimal_integral_linearity():
    res = Resolution(basis_schedule=(8, 16), radial_cells=192, angular_cells=128)
    crv = g_curve(_cfg(disc(), 0.0), [0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5], res)
    disc_gap = float(np.max(np.abs(crv.g_upper - PI * np.exp(-crv.t))))
    res_a = Resolution(basis_schedule=(8, 16), boundary_nodes=256, radial_cells=256,
                       angular_cells=256, patch_levels=32)
    matched = _cfg(annulus(0.25), 0.5, u=HarmonicFunctionRep.log_mode(-0.5))
    crv_a = g_curve(matched, [0.0, 0.3, 0.6, 0.9, 1.2], res_a)
    ok = disc_gap < 1e-3 * PI and crv_a.linear_residual < 1e-3 * crv_a.g0
    _announce(
        "AC06 minimal-integral linearity",
        ok,
        f"disc max|G - pi e^-t|={disc_gap:.2e} (tol {1e-3*PI:.2e}); "
        f"annulus residual={crv_a.linear_residual:.2e} (tol {1e-3*crv_a.g0:.2e})",
    )


def test_ac07_shell_identity():
    res = Resolution(basis_schedule=(8, 16), radial_cells=192, angular_cells=128)
    si = shell_identity_check(_cfg(disc(), 0.0), CProfile.constant_one(), 1.0, 0.0, res=res)
    target = PI * (1.0 - math.exp(-1.0))
    ok = abs(si.rhs - target) < 1e-12 and abs(si.lhs - target) < 2e-3 * target
    _announce(
        "AC07 shell identity",
        ok,
        f"lhs={si.lhs:.8f}, target={target:.8f}, rel gap={si.relative_gap:.2e}",
    )


def test_ac08_coarea_boundary_limit():
    res = Resolution(basis_schedule=(8, 16), radial_cells=192, angular_cells=128)
    cfg = _cfg(disc(), 0.0)
    bl = boundary_limit_check(cfg, lambda z, rings=None: np.ones(len(z)), res=res)
    ratio_gap = float(np.max(np.abs(bl.shell_ratios - PI)))
    bq = boundary_quadrature(disc(), res.boundary_nodes)
    half_flux = 0.5 * float(
        np.sum(bq.weights / cfg.dpsi_dnu(bq.nodes, bq.normal_signs))
    )
    ok = ratio_gap < 1e-10 and abs(bl.boundary_value - half_flux) < 1e-10 and bl.extrapolated_gap < 1e-10
    _announce(
        "AC08 coarea boundary limit",
        ok,
        f"max |ratio - pi|={ratio_gap:.2e}, boundary={bl.boundary_value:.12f}, "
        f"gap={bl.extrapolated_gap:.2e}",
    )


def test_ac09_reproducing_suite():
    worst = 0.0
    detail = []
    disc_res = Resolution(basis_schedule=(8, 16), radial_cells=256, angular_cells=128, boundary_nodes=256)
    ann_res = Resolution(basis_schedule=(8, 16), boundary_nodes=512, radial_cells=256, angular_cells=256,
                         patch_levels=32)
    for domain, z0, res, exponents in (
        (disc(), 0.5, disc_res, range(0, 9)),
        (annulus(0.25), 0.5, ann_res, range(-8, 9)),
    ):
        cfg = _cfg(domain, z0)
        for side in ("szego", "bergman"):
            local = max(reproducing_residual(cfg, side, exponents, res))
            worst = max(worst, local)
            detail.append(f"{domain.kind}/{side}: {local:.2e}")
    ok = worst < 1e-6
    _announce("AC09 reproducing property", ok, "; ".join(detail))


def test_ac10_capacity_chain():
    res_disc = Resolution(basis_schedule=(8, 16, 32), radial_cells=1024, angular_cells=160,
                          boundary_nodes=256)
    details = []
    ok = True
    for z0 in (0.0, 0.5):
        rep = verify_suita(disc(), z0, res_disc)
        scale = rep.pi_b
        ok = ok and abs(rep.left_margin) < 1e-6 * scale and abs(rep.right_margin) < 1e-6 * scale
        ok = ok and rep.verdict == "pass"
        details.append(
            f"disc z0={z0}: chain=({rep.cbeta_squared:.8f}, {rep.pi_b:.8f}, {rep.k_hat:.8f})"
        )
    res_ann = Resolution(basis_schedule=(16, 32), boundary_nodes=512, radial_cells=768,
                         angular_cells=320)
    rep = verify_suita(annulus(0.25), 0.5, res_ann)
    ok = ok and rep.verdict == "pass"
    ok = ok and abs(rep.left_margin - golden.ANNULUS_SUITA_LEFT) < 0.05 * golden.ANNULUS_SUITA_LEFT
    ok = ok and abs(rep.right_margin - golden.ANNULUS_SUITA_RIGHT) < 1e-3 * golden.ANNULUS_SUITA_RIGHT
    details.append(
        f"annulus margins=({rep.left_margin:.3e}, {rep.right_margin:.6f}) "
        f"pinned=({golden.ANNULUS_SUITA_LEFT:.3e}, {golden.ANNULUS_SUITA_RIGHT:.6f})"
    )
    _announce("AC10 capacity chain", ok, "; ".join(details))


def test_ac11_structural_suites():
    start = time.time()
    checks = []

    # Gram Hermiticity and positive definiteness on a non-trivial weight.
    cfg = _cfg(annulus(0.25), 0.5, u=HarmonicFunctionRep.from_coefficients(0.2, {1: 0.1}))
    basis = BasisDescriptor.create(annulus(0.25), 12, 0.5, 0)
    m = gram(basis, area_measure(cfg, area_quadrature_for(
        cfg, Resolution(radial_cells=128, angular_cells=96, patch_levels=24)
    ))).entries
    checks.append(("gram_hermitian", float(np.max(np.abs(m - m.conj().T))) == 0.0))
    checks.append(("gram_pd", float(np.linalg.eigvalsh(m)[0]) > 0.0))

    # Kernel diagonals are nondecreasing in the basis order.
    bq = boundary_quadrature(annulus(0.25), 256)
    full = gram(BasisDescriptor.create(annulus(0.25), 16, 0.5, 0),
                boundary_measure(_cfg(annulus(0.25), 0.5), bq))
    constraints = BasisDescriptor.create(annulus(0.25), 16, 0.5, 0).constraints()
    values = []
    for n in (4, 8, 16):
        mdim = 2 * n + 1
        values.append(2 * PI / constrained_min(full.principal(mdim),
                                               constraints.restricted(mdim)).value)
    checks.append(("basis_growth_monotone", all(b >= a - 1e-12 for a, b in zip(values, values[1:]))))

    # Constrained minimization agrees with brute-force search.
    rng = np.random.default_rng(0)
    brute_ok = True
    for dim in (2, 3):
        diag = rng.uniform(0.5, 2.5, size=dim)
        rows = rng.normal(size=(1, dim))
        target = np.array([1.0])
        direct = constrained_min(HermitianMatrix(np.diag(diag)),
                                 ConstraintSystem(rows, target)).value
        brute = brute_force_constrained_min(diag, rows, target, spread=3.0)
        brute_ok = brute_ok and abs(direct - brute) < 1e-6
    checks.append(("constrained_min_brute_force", brute_ok))

    # Green function structure: symmetry, flux and boundary trace.
    g = green(annulus(0.25), 0.5)
    g2 = green(annulus(0.25), -0.3 + 0.2j)
    checks.append(("green_symmetry", abs(g.value(-0.3 + 0.2j) - g2.value(0.5)) < 1e-8))
    bq = boundary_quadrature(annulus(0.25), 256)
    flux = float(np.sum(bq.weights * g.normal_derivative(bq.nodes, bq.normal_signs)))
    checks.append(("green_flux", abs(flux - 2 * PI) < 1e-8))
    checks.append(("green_trace", float(np.max(np.abs(g.value(bq.nodes)))) < 1e-8))

    # Full built-in oracle battery, within the runtime budget.
    results = run_selftest(echo=lambda _line: None)
    checks.append(("selftest_all_pass", all(r.passed for r in results)))
    elapsed = time.time() - start
    checks.append(("selftest_under_60s", elapsed < 60.0))

    ok = all(passed for _, passed in checks)
    detail = ", ".join(f"{name}={'ok' if passed else 'FAIL'}" for name, passed in checks)
    _announce("AC11 structural suites", ok, f"{detail} ({elapsed:.1f}s)")


def _shipped(name):
    from kernelgauge.cli import build_config, build_resolution, load_scenario

    doc = load_scenario(ROOT / "scenarios" / f"{name}.json")
    config = build_config(doc)
    return config, build_resolution(doc, config.domain)


def test_ac12_shipped_annuli_meet_exact_series():
    # Gauss panels on every ring: the unweighted annulus's pi * B meets the
    # exact series, and annulus_matched's equality holds to roundoff.
    config, res = _shipped("annulus_strict")
    pib = PI * kernel_diag(config, "bergman", res).value
    strict_err = abs(pib / golden.ANNULUS_PIB - 1.0)
    report = verify(*_shipped("annulus_matched"))
    ok = strict_err <= 1e-11 and abs(report.ratio - 1.0) <= 1e-10 and report.verdict == "pass"
    _announce(
        "AC12 shipped annuli",
        ok,
        f"annulus_strict piB={pib:.12f} (exact {golden.ANNULUS_PIB}, rel err {strict_err:.1e}); "
        f"annulus_matched ratio-1={report.ratio - 1.0:.1e}",
    )


def test_ac13_centred_singular_disc_is_honest():
    # c = exp(-0.84 t) at z0 = 0 makes pi * B = 0.16 with a density
    # singular at z0; the refined level deepens the ring, so the estimate
    # covers the error and the equality case does not fail.
    report = verify(_cfg(disc(), 0.0, c=CProfile.exp_delta(0.84)), Resolution())
    err = abs(report.ratio - 1.0)
    ok = report.verdict != "fail" and err <= 3.0 * report.combined_estimate
    _announce(
        "AC13 centred singular disc",
        ok,
        f"ratio-1={report.ratio - 1.0:.2e}, 3x estimate={3.0 * report.combined_estimate:.2e}, "
        f"verdict={report.verdict}",
    )
