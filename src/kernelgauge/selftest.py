"""Built-in oracle suite behind the `selftest` command.

Every check compares a library result against an independently derived
value: closed forms, hand derivations, image-series summation, brute
force minimization or finite differences.  Checks print one line each
and the suite is sized to finish in well under a minute.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import annulus, area_quadrature, boundary_quadrature, disc
from .gfunctional import (
    boundary_limit_check,
    f0_construct,
    g_curve,
    g_of_t,
    hardy_diagnostic,
    shell_identity_check,
    superlevel_constant,
)
from .kernels import (
    BasisDescriptor,
    Measure,
    Resolution,
    area_measure,
    gram,
    kernel_diag,
    kernel_section,
    reproducing_residual,
)
from .numerics import ConstraintSystem, HermitianMatrix, constrained_min, richardson_sweep
from .potential import (
    HarmonicFunctionRep,
    character_distance,
    character_exponent,
    dirichlet_solve,
    green,
    log_capacity,
)
from .verifier import equality_predicate, verify, verify_suita
from .weights import CProfile, PhiSpec, PsiSpec, WeightConfig


# ----------------------------------------------------------------------
# Independent oracles.

def green_image_series(q: float, z: complex, w: complex, terms: int = 64) -> float:
    """Annulus Green function via the normalized image/product series.

    Built from P(x) = (1-x) prod_k (1 - q^{2k} x)(1 - q^{2k}/x), whose
    zeros enumerate the reflected images q^{2k} w and q^{2k}/conj(w).
    """

    def log_abs_p(x: complex) -> float:
        total = math.log(abs(1.0 - x))
        for k in range(1, terms + 1):
            f = q ** (2 * k)
            total += math.log(abs(1.0 - f * x)) + math.log(abs(1.0 - f / x))
        return total

    return (
        log_abs_p(z / w)
        - log_abs_p(z * np.conj(w))
        - math.log(abs(z)) * math.log(abs(w)) / math.log(q)
        + math.log(abs(w))
    )


def robin_image_series(q: float, w: complex, terms: int = 64) -> float:
    """Robin constant of the annulus Green function from the same series."""
    total = -math.log(abs(w)) - (math.log(abs(w))) ** 2 / math.log(q) + math.log(abs(w))
    for k in range(1, terms + 1):
        f = q ** (2 * k)
        total += 2.0 * math.log(1.0 - f)
    x = abs(w) ** 2
    total -= math.log(abs(1.0 - x))
    for k in range(1, terms + 1):
        f = q ** (2 * k)
        total -= math.log(abs(1.0 - f * x)) + math.log(abs(1.0 - f / x))
    return total


def brute_force_constrained_min(
    diag: np.ndarray, rows: np.ndarray, target: np.ndarray, spread: float = 2.0
) -> float:
    """Grid search over the feasible affine space of a real diagonal problem."""
    import itertools

    diag = np.asarray(diag, dtype=float)
    rows = np.asarray(rows, dtype=float)
    target = np.asarray(target, dtype=float)
    x_p, *_ = np.linalg.lstsq(rows, target, rcond=None)
    # Null space: right singular vectors beyond the numerical rank.
    _, sing, vh = np.linalg.svd(rows)
    rank = int(np.sum(sing > np.finfo(float).eps * max(rows.shape) * sing.max(initial=0.0)))
    basis = vh[rank:].conj().T
    if basis.size == 0:
        return float(x_p @ (diag * x_p))
    dim = basis.shape[1]
    center = np.zeros(dim)
    width = spread
    best = math.inf
    for _ in range(4):
        axes = [np.linspace(c - width, c + width, 41) for c in center]
        for ys in itertools.product(*axes):
            x = x_p + basis @ np.array(ys)
            val = float(x @ (diag * x))
            if val < best:
                best = val
                center = np.array(ys)
        width /= 10.0
    return best


# ----------------------------------------------------------------------
# Check battery.

@dataclass
class CheckResult:
    name: str
    passed: bool
    message: str


def _close(actual: float, expected: float, tol: float) -> tuple[bool, str]:
    err = abs(actual - expected)
    return err <= tol, f"value={actual:.10g}, expected={expected:.10g}, err={err:.2e}"


def check_constrained_min_lagrange() -> tuple[bool, str]:
    result = constrained_min(
        HermitianMatrix(np.diag([2.0, 3.0])),
        ConstraintSystem(np.array([[1.0, 1.0]]), np.array([1.0])),
    )
    ok1, msg = _close(result.value, 6.0 / 5.0, 1e-12)
    ok2 = np.allclose(result.minimizer, [0.6, 0.4], atol=1e-12)
    return ok1 and ok2, msg


def check_constrained_min_brute_force() -> tuple[bool, str]:
    diag = np.array([1.0, 2.0, 3.0])
    rows = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    target = np.array([0.0, 1.0])
    direct = constrained_min(
        HermitianMatrix(np.diag(diag)), ConstraintSystem(rows, target)
    ).value
    brute = brute_force_constrained_min(diag, rows, target)
    return _close(direct, brute, 1e-6)


def check_richardson_partial_sums() -> tuple[bool, str]:
    def partial(n: int) -> float:
        idx = np.arange(n)
        return float(np.sum((idx + 1) * 0.25**idx))

    sweep = richardson_sweep(partial, [4, 8, 16, 32])
    gap = abs(sweep.value - 16.0 / 9.0)
    return gap <= sweep.error_estimate, (
        f"value={sweep.value:.12g}, target={16/9:.12g}, gap={gap:.2e} <= est={sweep.error_estimate:.2e}"
    )


def check_area_quadrature_inverse_radius() -> tuple[bool, str]:
    aq = area_quadrature(disc(), 0.0, 256, 64)
    val = aq.integrate(1.0 / np.abs(aq.nodes))
    return _close(val, 2.0 * math.pi, 1e-6)


def check_green_image_series() -> tuple[bool, str]:
    g = green(annulus(0.25), 0.5)
    direct = float(g.value(-0.5))
    oracle = green_image_series(0.25, -0.5, 0.5)
    return _close(direct, oracle, 1e-8)


def check_poisson_normal_derivative() -> tuple[bool, str]:
    g = green(disc(), 0.5)
    val = float(g.normal_derivative(np.array([1.0 + 0j]), np.array([1.0]))[0])
    return _close(val, (1.0 - 0.25) / abs(1.0 - 0.5) ** 2, 1e-10)


def check_green_flux() -> tuple[bool, str]:
    g = green(annulus(0.25), 0.5)
    bq = boundary_quadrature(annulus(0.25), 256)
    flux = float(np.sum(bq.weights * g.normal_derivative(bq.nodes, bq.normal_signs)))
    return _close(flux, 2.0 * math.pi, 1e-8)


def check_capacity_disc() -> tuple[bool, str]:
    return _close(log_capacity(disc(), 0.5), 1.0 / 0.75, 1e-12)


def check_capacity_annulus() -> tuple[bool, str]:
    direct = log_capacity(annulus(0.25), 0.5)
    oracle = math.exp(robin_image_series(0.25, 0.5))
    return _close(direct, oracle, 1e-8)


def _inner_flux_exponent(q: float, w: complex, nodes: int = 512) -> float:
    """-(1/2pi) * the inner circle's share of the boundary flux of dG/dnu.

    The whole flux is 2pi, and the inner share is 2pi times the harmonic
    measure log|w| / log q of the inner circle, so this is the character
    exponent of G mod 1, found without reading alpha_log.
    """
    g = green(annulus(q), w)
    bq = boundary_quadrature(annulus(q), nodes)
    inner = bq.normal_signs < 0.0
    dg_dnu = g.normal_derivative(bq.nodes, bq.normal_signs)
    return float(-np.sum(bq.weights[inner] * dg_dnu[inner]) / (2.0 * math.pi))


def check_character_flux() -> tuple[bool, str]:
    a1 = character_exponent(annulus(0.25), green(annulus(0.25), 0.5))
    a2 = character_exponent(annulus(0.2), green(annulus(0.2), 0.5))
    ok1 = character_distance(a1, _inner_flux_exponent(0.25, 0.5)) < 1e-10
    ok2 = character_distance(a2, _inner_flux_exponent(0.2, 0.5)) < 1e-10
    return ok1 and ok2, f"alpha(q=0.25)={a1:.8f}, alpha(q=0.2)={a2:.8f}"


def check_dirichlet_residual() -> tuple[bool, str]:
    n = 128
    theta = 2.0 * math.pi * np.arange(n) / n
    lam_outer = -0.5 * np.log(np.abs(1.0 + np.exp(1j * theta) / 2.0) ** 2)
    lam_inner = -0.5 * np.log(np.abs(1.0 + 0.25 * np.exp(1j * theta) / 2.0) ** 2)
    rep = dirichlet_solve(annulus(0.25), [lam_outer, lam_inner])
    zeta = np.exp(1j * theta)
    resid = float(np.max(np.abs(rep.value(zeta) - lam_outer)))
    return resid < 1e-8, f"trace residual={resid:.2e}"


def check_harmonic_derivative() -> tuple[bool, str]:
    u = HarmonicFunctionRep.from_coefficients(0.3, {2: 1.0})
    w = u.analytic_derivative()
    pts = np.array([0.5 + 0.2j, -0.4 + 0.6j])
    exact = 2.0 * pts + 0.3 / pts
    err = float(np.max(np.abs(w(pts) - exact)))
    # Independent route: finite differences of u along a ray give Re part.
    h = 1e-6
    z = 0.5 + 0.2j
    fd = (u.value(z * (1 + h)) - u.value(z * (1 - h))) / (2 * h)
    err_fd = abs(np.real(z * w(np.array([z]))[0]) - fd)
    return err < 1e-12 and err_fd < 1e-6, f"coeff err={err:.2e}, fd err={err_fd:.2e}"


def _truncated_tail(f: Callable[[np.ndarray], np.ndarray], t: float) -> float:
    """Integral of f over [t, t + 60]: 30 Gauss-Legendre panels of 16 points."""
    x, w = np.polynomial.legendre.leggauss(16)
    left = t + 2.0 * np.arange(30.0)[:, None]
    return float(np.sum(w * f(left + 1.0 + x)))


def check_profile_tail() -> tuple[bool, str]:
    tail = float(CProfile.exp_delta(0.3).h(1.0))
    numeric = _truncated_tail(lambda s: np.exp(-0.7 * s), 1.0)
    ok1, msg = _close(tail, math.exp(-0.7) / 0.7, 1e-12)
    ok2 = abs(tail - numeric) < 1e-9
    poly_tail = float(CProfile.poly(2.5).h(0.5))
    poly_err = abs(poly_tail - _truncated_tail(lambda s: (1.0 + s) ** -2.5 * np.exp(-s), 0.5))
    return ok1 and ok2 and poly_err < 1e-9, f"{msg}, poly(2.5) tail err={poly_err:.2e}"


def check_rho_radial_weight() -> tuple[bool, str]:
    cfg = WeightConfig(disc(), 0.0, 0, PsiSpec(1.0), PhiSpec(), CProfile.exp_delta(0.3))
    z = np.array([0.5 + 0.1j, -0.2 + 0.3j])
    err = float(np.max(np.abs(cfg.rho(z) - np.abs(z) ** (-0.6))))
    return err < 1e-12, f"max err={err:.2e}"


def check_gram_disc_moments() -> tuple[bool, str]:
    cfg = WeightConfig(disc(), 0.0, 0, PsiSpec(1.0), PhiSpec(), CProfile.constant_one())
    basis = BasisDescriptor.create(disc(), 2, 0.0, 0)
    aq = area_quadrature(disc(), 0.0, 256, 48)
    m = gram(basis, area_measure(cfg, aq)).entries
    expected = np.diag([math.pi, math.pi / 2.0, math.pi / 3.0])
    err = float(np.max(np.abs(m - expected)))
    return err < 1e-8, f"max entry err={err:.2e}"


def check_gram_annulus_boundary() -> tuple[bool, str]:
    q = 0.5
    basis = BasisDescriptor.create(annulus(q), 1, 0.5, 0)
    bq = boundary_quadrature(annulus(q), 128)
    m = gram(basis, Measure(bq.nodes, bq.weights, bq.rings)).entries
    err = 0.0
    for i, n in enumerate(basis.exponents):
        expected = 2.0 * math.pi * (1.0 + q ** (2 * int(n) + 1)) / basis.scales[i] ** 2
        err = max(err, abs(m[i, i].real - expected))
    offdiag = np.max(np.abs(m - np.diag(np.diag(m))))
    return err < 1e-10 and offdiag < 1e-10, f"diag err={err:.2e}, offdiag={offdiag:.2e}"


def check_kernel_disc_baseline() -> tuple[bool, str]:
    cfg = WeightConfig(disc(), 0.0, 0, PsiSpec(1.0), PhiSpec(), CProfile.constant_one())
    res = Resolution(basis_schedule=(8, 16), radial_cells=128, angular_cells=96, boundary_nodes=128)
    k = kernel_diag(cfg, "szego", res)
    b = kernel_diag(cfg, "bergman", res)
    ok1, _ = _close(k.value, 1.0, 1e-8)
    ok2, _ = _close(b.value, 1.0 / math.pi, 1e-8)
    return ok1 and ok2, f"K={k.value:.10g}, B={b.value:.10g}"


def check_kernel_weighted_bergman() -> tuple[bool, str]:
    cfg = WeightConfig(disc(), 0.0, 0, PsiSpec(1.0), PhiSpec(), CProfile.exp_delta(0.3))
    res = Resolution(basis_schedule=(8, 16), radial_cells=192, angular_cells=96, boundary_nodes=128)
    b = kernel_diag(cfg, "bergman", res)
    return _close(b.value, (1.0 - 0.3) / math.pi, 3e-6)


def check_sections_disc() -> tuple[bool, str]:
    # lambda == 1 via the harmonic extension u with u|_bd = -log lambda / 2.
    z0 = 0.5
    coeffs = {0: complex(-0.5 * math.log(1.0 - abs(z0) ** 2))}
    for n in range(1, 49):
        coeffs[n] = -np.conj(z0) ** n / n
    u = HarmonicFunctionRep.from_coefficients(0.0, coeffs)
    cfg = WeightConfig(disc(), z0, 0, PsiSpec(1.0), PhiSpec(0.0, u), CProfile.constant_one())
    res = Resolution(basis_schedule=(8, 16, 32), radial_cells=256, angular_cells=160, boundary_nodes=192)
    sec = kernel_section(cfg, "szego", res)
    zs = np.array([0.3 + 0.2j, -0.5, 0.1j])
    err_s = float(np.max(np.abs(sec(zs) - (1.0 - 0.25) / (1.0 - 0.5 * zs))))
    cfg_b = WeightConfig(disc(), z0, 0, PsiSpec(1.0), PhiSpec(), CProfile.constant_one())
    res_b = Resolution(basis_schedule=(8, 16, 32), radial_cells=256, angular_cells=160)
    sec_b = kernel_section(cfg_b, "bergman", res_b)
    err_b = float(np.max(np.abs(sec_b(zs) - (1.0 - 0.25) ** 2 / (1.0 - 0.5 * zs) ** 2)))
    return err_s < 1e-8 and err_b < 1e-8, f"szego err={err_s:.2e}, bergman err={err_b:.2e}"


def check_reproducing_residuals() -> tuple[bool, str]:
    cfg = WeightConfig(annulus(0.25), 0.5, 0, PsiSpec(1.0), PhiSpec(), CProfile.constant_one())
    res = Resolution(basis_schedule=(8, 16), boundary_nodes=256, radial_cells=192, angular_cells=128)
    worst = max(reproducing_residual(cfg, "szego", (-2, 0, 3), res))
    return worst < 1e-6, f"worst residual={worst:.2e}"


def check_g_of_t() -> tuple[bool, str]:
    cfg = WeightConfig(disc(), 0.0, 0, PsiSpec(1.0), PhiSpec(), CProfile.constant_one())
    res = Resolution(basis_schedule=(8, 16), radial_cells=192, angular_cells=128)
    val = g_of_t(cfg, 1.0, res)
    return _close(val, math.pi * math.exp(-1.0), 2e-3 * math.pi)


def check_g_curve_linearity() -> tuple[bool, str]:
    cfg = WeightConfig(disc(), 0.0, 0, PsiSpec(1.0), PhiSpec(), CProfile.constant_one())
    res = Resolution(basis_schedule=(8, 16), radial_cells=192, angular_cells=128)
    crv = g_curve(cfg, [0.0, 0.5, 1.0, 1.5], res)
    return crv.linear_residual < 1e-3 * math.pi, f"linear residual={crv.linear_residual:.2e}"


def check_extremal_disc() -> tuple[bool, str]:
    cfg = WeightConfig(disc(), 0.2, 0, PsiSpec(1.0), PhiSpec(), CProfile.constant_one())
    f0 = f0_construct(cfg)
    zs = np.array([0.5 + 0.3j, -0.4, 0.0])
    exact = (1.0 - 0.04) ** 2 / (1.0 - 0.2 * zs) ** 2
    err = float(np.max(np.abs(f0.value(zs) - exact)))
    return err < 1e-13, f"max err={err:.2e}"


def check_extremal_monodromy() -> tuple[bool, str]:
    u = HarmonicFunctionRep.log_mode(-0.5)
    cfg = WeightConfig(annulus(0.25), 0.5, 0, PsiSpec(1.0), PhiSpec(0.0, u), CProfile.constant_one())
    f0 = f0_construct(cfg)
    return f0.monodromy_defect < 1e-8, f"defect={f0.monodromy_defect:.2e}"


def check_shell_identity() -> tuple[bool, str]:
    cfg = WeightConfig(disc(), 0.0, 0, PsiSpec(1.0), PhiSpec(), CProfile.constant_one())
    res = Resolution(basis_schedule=(8, 16), radial_cells=192, angular_cells=128)
    si = shell_identity_check(cfg, CProfile.constant_one(), 1.0, 0.0, None, res)
    ok, _ = _close(si.rhs, math.pi * (1.0 - math.exp(-1.0)), 1e-10)
    return ok and si.relative_gap < 2e-3, f"lhs={si.lhs:.8g}, rhs={si.rhs:.8g}, gap={si.relative_gap:.2e}"


def check_boundary_limit() -> tuple[bool, str]:
    cfg = WeightConfig(disc(), 0.0, 0, PsiSpec(1.0), PhiSpec(), CProfile.constant_one())
    res = Resolution(basis_schedule=(8, 16), radial_cells=192, angular_cells=128)
    bl = boundary_limit_check(cfg, lambda z, rings=None: np.abs(z) ** 2, res=res)
    return bl.extrapolated_gap < 1e-3, f"gap={bl.extrapolated_gap:.2e}"


def check_verify_disc_baseline() -> tuple[bool, str]:
    cfg = WeightConfig(disc(), 0.0, 0, PsiSpec(1.0), PhiSpec(), CProfile.constant_one())
    res = Resolution(basis_schedule=(8, 16), radial_cells=128, angular_cells=96, boundary_nodes=128)
    report = verify(cfg, res)
    ok = report.verdict == "pass" and abs(report.ratio - 1.0) < 1e-5
    return ok, f"ratio={report.ratio:.8f}, verdict={report.verdict}"


def check_verify_weighted() -> tuple[bool, str]:
    cfg = WeightConfig(disc(), 0.0, 0, PsiSpec(1.0), PhiSpec(), CProfile.exp_delta(0.6))
    res = Resolution(basis_schedule=(8, 16), radial_cells=256, angular_cells=96, boundary_nodes=128)
    report = verify(cfg, res)
    ok = (
        report.verdict == "pass"
        and abs(report.k_value.value - 1.0) < 1e-8
        and abs(report.c_total - 2.5) < 1e-12
        and abs(math.pi * report.b_value.value - 0.4) < 1e-5
    )
    return ok, f"K={report.k_value.value:.8f}, piB={math.pi*report.b_value.value:.8f}, ratio={report.ratio:.8f}"


def check_verify_annulus_strict() -> tuple[bool, str]:
    cfg = WeightConfig(annulus(0.25), 0.5, 0, PsiSpec(1.0), PhiSpec(), CProfile.constant_one())
    res = Resolution(basis_schedule=(8, 16, 24), boundary_nodes=256, radial_cells=192, angular_cells=128)
    report = verify(cfg, res)
    ok = report.verdict == "pass" and report.ratio > 1.003 and not report.expected_equality
    return ok, f"ratio={report.ratio:.8f}, char distance={report.character_distance:.4f}"


def check_verify_order_one_disc() -> tuple[bool, str]:
    cfg = WeightConfig(disc(), 0.0, 1, PsiSpec(2.0), PhiSpec(), CProfile.constant_one())
    res = Resolution(basis_schedule=(8, 16), radial_cells=192, angular_cells=96, boundary_nodes=128)
    report = verify(cfg, res)
    ok = (
        report.verdict == "pass"
        and abs(report.k_value.value - 2.0) < 1e-4
        and abs(math.pi * report.b_value.value - 2.0) < 1e-4
    )
    return ok, f"K1={report.k_value.value:.8f}, piB1={math.pi*report.b_value.value:.8f}, route gap={report.route_gap:.2e}"


def check_suita_disc() -> tuple[bool, str]:
    res = Resolution(basis_schedule=(8, 16), radial_cells=384, angular_cells=128,
                     boundary_nodes=160)
    rep = verify_suita(disc(), 0.5, res)
    ok = rep.verdict == "pass"
    return ok, f"c^2={rep.cbeta_squared:.8f}, piB={rep.pi_b:.8f}, Khat={rep.k_hat:.8f}"


def check_hardy_diagnostic() -> tuple[bool, str]:
    cfg = WeightConfig(disc(), 0.0, 0, PsiSpec(1.0), PhiSpec(), CProfile.constant_one())
    res = Resolution(basis_schedule=(8, 16), radial_cells=256, angular_cells=128)
    bounded = hardy_diagnostic(lambda z, rings=None: np.ones(len(z)), cfg, res=res)
    growing = hardy_diagnostic(lambda z, rings=None: 1.0 / np.abs(1.0 - z) ** 2, cfg, res=res)
    ok = bounded.trend == "bounded" and growing.trend == "increasing"
    return ok, f"constant: {bounded.trend}, singular: {growing.trend}"


def check_superlevel_constant() -> tuple[bool, str]:
    cfg = WeightConfig(disc(), 0.0, 0, PsiSpec(2.0), PhiSpec(), CProfile.constant_one())
    res = Resolution(basis_schedule=(8, 16), radial_cells=128, angular_cells=96)
    constant = superlevel_constant(cfg, res=res)
    return abs(constant - 2.0) < 0.05, f"C={constant:.4f} (expect 2)"


def check_equality_predicate() -> tuple[bool, str]:
    u = HarmonicFunctionRep.log_mode(-0.5)
    matched = WeightConfig(annulus(0.25), 0.5, 0, PsiSpec(1.0), PhiSpec(0.0, u), CProfile.constant_one())
    plain = WeightConfig(annulus(0.25), 0.5, 0, PsiSpec(1.0), PhiSpec(), CProfile.constant_one())
    p1 = equality_predicate(matched)
    p2 = equality_predicate(plain)
    ok = p1.expected and not p2.expected and abs(p2.character_distance - 0.5) < 1e-8
    return ok, f"matched dist={p1.character_distance:.2e}, plain dist={p2.character_distance:.4f}"


ALL_CHECKS: list[tuple[str, Callable[[], tuple[bool, str]]]] = [
    ("constrained_min_lagrange", check_constrained_min_lagrange),
    ("constrained_min_brute_force", check_constrained_min_brute_force),
    ("richardson_partial_sums", check_richardson_partial_sums),
    ("area_quadrature_inverse_radius", check_area_quadrature_inverse_radius),
    ("green_image_series", check_green_image_series),
    ("poisson_normal_derivative", check_poisson_normal_derivative),
    ("green_flux", check_green_flux),
    ("capacity_disc", check_capacity_disc),
    ("capacity_annulus_image_series", check_capacity_annulus),
    ("character_flux", check_character_flux),
    ("dirichlet_residual", check_dirichlet_residual),
    ("harmonic_derivative", check_harmonic_derivative),
    ("profile_tail", check_profile_tail),
    ("rho_radial_weight", check_rho_radial_weight),
    ("gram_disc_moments", check_gram_disc_moments),
    ("gram_annulus_boundary", check_gram_annulus_boundary),
    ("kernel_disc_baseline", check_kernel_disc_baseline),
    ("kernel_weighted_bergman", check_kernel_weighted_bergman),
    ("kernel_sections_disc", check_sections_disc),
    ("reproducing_residuals", check_reproducing_residuals),
    ("g_of_t_sublevel", check_g_of_t),
    ("g_curve_linearity", check_g_curve_linearity),
    ("extremal_disc_section", check_extremal_disc),
    ("extremal_monodromy", check_extremal_monodromy),
    ("shell_identity", check_shell_identity),
    ("boundary_limit", check_boundary_limit),
    ("verify_disc_baseline", check_verify_disc_baseline),
    ("verify_weighted_profile", check_verify_weighted),
    ("verify_annulus_strict", check_verify_annulus_strict),
    ("verify_higher_order", check_verify_order_one_disc),
    ("suita_chain_disc", check_suita_disc),
    ("hardy_diagnostic", check_hardy_diagnostic),
    ("superlevel_constant", check_superlevel_constant),
    ("equality_predicate", check_equality_predicate),
]


def run_selftest(echo: Callable[[str], None] = print) -> list[CheckResult]:
    results = []
    for name, fn in ALL_CHECKS:
        try:
            passed, message = fn()
        except Exception as exc:  # deliberate: a crashed check is a failure
            passed, message = False, f"error: {type(exc).__name__}: {exc}"
        results.append(CheckResult(name, passed, message))
        echo(f"{'PASS' if passed else 'FAIL'} {name}: {message}")
    failures = sum(1 for r in results if not r.passed)
    echo(f"selftest: {len(results)} checks, {failures} failures")
    return results
