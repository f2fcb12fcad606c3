import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from kernelgauge import (
    CProfile,
    EvaluationAtPole,
    InvalidProfile,
    PhiSpec,
    PsiSpec,
    WeightConfig,
    annulus,
    area_quadrature,
    boundary_quadrature,
    disc,
    rho_lambda_eval,
    validate_config,
)
from kernelgauge.potential import HarmonicFunctionRep


def _cfg(domain, z0, k=0, p0=1.0, eps=0.0, a_g=0.0, u=None, c=None):
    return WeightConfig(
        domain,
        z0,
        k,
        PsiSpec(p0, eps),
        PhiSpec(a_g, u if u is not None else HarmonicFunctionRep.zero()),
        c if c is not None else CProfile.constant_one(),
    )


# ---------------------------------------------------------------- profiles


def test_c_integrals_constant():
    profile = CProfile.constant_one()
    assert (float(profile.c(0.0)), float(profile.h(0.0)), profile.total) == (1.0, 1.0, 1.0)


def test_c_integrals_exp_delta():
    assert CProfile.exp_delta(0.5).total == pytest.approx(2.0, abs=1e-14)
    assert float(CProfile.exp_delta(0.3).h(1.0)) == pytest.approx(math.exp(-0.7) / 0.7, abs=1e-14)


def test_c_integrals_poly_numeric():
    profile = CProfile.poly(2.0)
    reference = quad(lambda s: (1 + s) ** -2.0 * math.exp(-s), 0.5, np.inf, epsabs=1e-13)[0]
    assert float(profile.h(0.5)) == pytest.approx(reference, abs=1e-10)
    assert float(profile.c(0.5)) == pytest.approx(1.5**-2.0, abs=1e-14)


@pytest.mark.parametrize("m", [0.25, 1.0, 2.5, 4.0])
def test_poly_tail_relative_accuracy(m):
    ts = [0.0, 0.11, 1.0, 20.0, 30.0, 50.0]
    profile = CProfile.poly(m)
    reference = np.array([
        quad(lambda s: (1.0 + s) ** -m * math.exp(-s), t, np.inf, epsabs=0.0, epsrel=1e-13, limit=200)[0]
        for t in ts
    ])
    scalar = [profile.h(t) for t in ts]
    assert all(type(v) is float for v in scalar)
    np.testing.assert_allclose(scalar, reference, rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(profile.h(np.array(ts)), reference, rtol=1e-13, atol=0.0)


def test_invalid_profiles():
    with pytest.raises(InvalidProfile):
        CProfile.exp_delta(1.2)
    with pytest.raises(InvalidProfile):
        CProfile.poly(-1.0)


def test_profile_monotonicity_grid():
    for profile in (CProfile.constant_one(), CProfile.exp_delta(0.7), CProfile.exp_delta(-1.0), CProfile.poly(1.5)):
        assert profile.grid_monotone_defect() <= 1e-12
        assert float(profile.c(0.0)) == 1.0
        assert math.isfinite(profile.total)


# ---------------------------------------------------------------- densities


def test_lambda_disc_center():
    cfg = _cfg(disc(), 0.0)
    assert rho_lambda_eval(cfg, 1.0 + 0j) == pytest.approx(1.0, abs=1e-12)


def test_lambda_scaling_with_psi():
    cfg = _cfg(disc(), 0.0, p0=2.0)
    assert rho_lambda_eval(cfg, 1j) == pytest.approx(0.5, abs=1e-12)


def test_rho_radial_profile():
    cfg = _cfg(disc(), 0.0, c=CProfile.exp_delta(0.4))
    z = 0.3 - 0.2j
    assert rho_lambda_eval(cfg, z) == pytest.approx(abs(z) ** (-0.8), abs=1e-12)


def test_lambda_flux_identity():
    # lambda * dpsi/dnu = exp(-phi) at boundary nodes.
    u = HarmonicFunctionRep.from_coefficients(0.0, {1: 0.2 + 0.1j})
    cfg = _cfg(annulus(0.25), 0.5, a_g=0.5, u=u)
    bq = boundary_quadrature(cfg.domain, 64)
    lam = cfg.boundary_lambda(bq.nodes, bq.normal_signs)
    flux = cfg.dpsi_dnu(bq.nodes, bq.normal_signs)
    assert np.max(np.abs(lam * flux - np.exp(-cfg.phi_value(bq.nodes)))) < 1e-12


def test_rho_rotation_covariance():
    # Rotating z, z0 and the harmonic data together leaves rho unchanged.
    theta = 0.9
    w = np.exp(1j * theta)
    u = HarmonicFunctionRep.from_coefficients(0.3, {1: 0.2, -1: 0.1j})
    u_rot = HarmonicFunctionRep.from_coefficients(0.3, {1: 0.2 * np.conj(w), -1: 0.1j * w})
    base = _cfg(annulus(0.25), 0.5, a_g=0.4, u=u, c=CProfile.exp_delta(0.2))
    rot = _cfg(annulus(0.25), 0.5 * w, a_g=0.4, u=u_rot, c=CProfile.exp_delta(0.2))
    zs = np.array([0.3 + 0.2j, -0.6, 0.4j])
    assert np.max(np.abs(base.rho(zs) - rot.rho(zs * w))) < 1e-10


def test_evaluation_at_pole():
    cfg = _cfg(disc(), 0.25, a_g=1.0)
    with pytest.raises(EvaluationAtPole):
        rho_lambda_eval(cfg, 0.25 + 0j)
    # Bounded density at z0 evaluates fine.
    smooth = _cfg(disc(), 0.25)
    assert rho_lambda_eval(smooth, 0.25 + 0j) == pytest.approx(1.0)


@pytest.mark.parametrize(
    "p0,a_g,c,u,eps,expected,near",
    [
        (1.0, 0.4, CProfile.exp_delta(-0.5), None, 0.0, 0.0, 1e-5),
        (2.0, -2.0, CProfile.exp_delta(0.3), None, 0.0, 0.0, 1e-5),
        (1.0, -2.0, CProfile.constant_one(), None, 0.0, 0.0, 1e-5),
        # poly's factor (1 - 2 G)^-m tends to 0 only like |log|z - z0||^-m.
        (1.0, 0.0, CProfile.poly(2.0), None, 0.0, 0.0, 1e-3),
        (1.0, -0.6, CProfile.exp_delta(0.3), None, 0.0, 1.0, 1e-5),
        (1.0, -0.6, CProfile.exp_delta(0.3), HarmonicFunctionRep.from_coefficients(0.0, {1: 0.2 + 0.1j}), 0.5,
         math.exp(-2.0 * 0.2 * 0.3 + 0.3 * -2.0 * 0.5 * (0.3**2 - 1.0)), 1e-5),
    ],
    ids=["beta_0.3_mixed", "beta_0.4_mixed", "reduced_k1", "poly", "beta_0_mixed", "beta_0_cancelled"],
)
def test_bounded_density_at_z0_is_its_limit(p0, a_g, c, u, eps, expected, near):
    # rho ~ |z - z0|^(2 beta) with beta = -(a_g + 2 p0 delta) / 2 >= 0:
    # bounded, so rho(z0) is its finite limit, never nan (rho itself would
    # give inf * 0 there), and within `near` of rho at |z - z0| = 1e-12.
    cfg = _cfg(disc(), 0.3, p0=p0, eps=eps, a_g=a_g, u=u, c=c)
    assert not cfg.density_unbounded_at_z0()
    value = rho_lambda_eval(cfg, 0.3 + 0j)
    assert value == pytest.approx(expected, rel=1e-14, abs=0.0)
    assert value == pytest.approx(rho_lambda_eval(cfg, 0.3 + 1e-12j), rel=near, abs=near)
    # rho itself gives the same limit at z0, without a numpy warning, and
    # its values elsewhere are those of the other points alone.
    others = np.array([0.5j, -0.2 + 0.1j])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = cfg.rho(np.array([others[0], 0.3, others[1]]))
    assert got[1] == pytest.approx(expected, rel=1e-14, abs=0.0)
    assert np.array_equal(got[[0, 2]], cfg.rho(others))


@pytest.mark.parametrize(
    "p0,a_g,c",
    [(1.0, 0.4, CProfile.constant_one()), (1.0, 0.0, CProfile.exp_delta(0.3)), (2.0, 0.4, CProfile.poly(2.0)),
     (1.0, -0.4, CProfile.exp_delta(0.3))],
    ids=["a_g_0.4", "delta_0.3", "poly_a_g_0.4", "beta_-0.1_mixed"],
)
def test_unbounded_density_at_z0_raises(p0, a_g, c):
    cfg = _cfg(disc(), 0.3, p0=p0, a_g=a_g, c=c)
    assert cfg.density_unbounded_at_z0() and not cfg.density_smooth_at_z0()
    with pytest.raises(EvaluationAtPole):
        rho_lambda_eval(cfg, 0.3 + 0j)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cfg.rho(np.array([0.3 + 0j])).tolist() == [math.inf]


# ---------------------------------------------------------------- validation


def _passed(checks, name):
    return next(c for c in checks if c.name == name).passed


def test_validate_baseline_passes():
    checks = validate_config(_cfg(disc(), 0.0))
    assert all(c.passed for c in checks)


def test_validate_mass_arithmetic():
    checks = validate_config(_cfg(disc(), 0.0, k=1))
    assert not _passed(checks, "mass_at_z0")
    checks = validate_config(_cfg(annulus(0.25), 0.5, k=1, p0=2.0))
    assert _passed(checks, "mass_at_z0")


def test_validate_perturbed_psi():
    cfg = _cfg(disc(), 0.0, eps=0.1)
    checks = validate_config(cfg)
    assert _passed(checks, "psi_boundary_trace")
    assert _passed(checks, "psi_normal_derivative_positive")
    # The bump keeps psi strictly negative inside.
    zs = np.array([0.5, 0.2 + 0.6j, -0.9])
    assert np.all(cfg.psi_value(zs) < 0.0)


# ---------------------------------------------------------------- reduction


def test_reduced_config_density():
    u = HarmonicFunctionRep.log_mode(0.3)
    cfg = _cfg(annulus(0.25), 0.5, k=1, p0=2.0, u=u)
    red = cfg.reduced()
    assert red.k == 0
    zs = np.array([0.3 + 0.2j, -0.7, 0.45j])
    expected = np.abs(zs - 0.5) ** 2 * cfg.rho(zs)
    assert np.max(np.abs(red.rho(zs) - expected)) < 1e-10
    # psi and its boundary data are untouched.
    bq = boundary_quadrature(cfg.domain, 32)
    assert np.allclose(
        red.dpsi_dnu(bq.nodes, bq.normal_signs), cfg.dpsi_dnu(bq.nodes, bq.normal_signs)
    )


def test_character_mismatch_arithmetic():
    u = HarmonicFunctionRep.log_mode(-0.5)
    assert _cfg(annulus(0.25), 0.5, u=u).character_mismatch() < 1e-10
    assert _cfg(annulus(0.25), 0.5).character_mismatch() == pytest.approx(0.5, abs=1e-10)
    # k = 1 with trivial u: 2 * 0.5 + 0 is an integer.
    assert _cfg(annulus(0.25), 0.5, k=1, p0=2.0).character_mismatch() < 1e-10


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("z0,alpha_u", [(0.5, 0.3), (0.7 * np.exp(1.1j), -0.45), (-0.3 + 0.2j, 1.7)])
def test_reduction_keeps_character_mismatch(k, z0, alpha_u):
    # Reducing moves k copies of the Green correction into u, and with
    # them k of the k + 1 multiples of alpha_z0.
    cfg = _cfg(annulus(0.2), z0, k=k, p0=k + 1.0, u=HarmonicFunctionRep.log_mode(alpha_u))
    assert abs(cfg.character_mismatch() - cfg.reduced().character_mismatch()) < 1e-15


# --------------------------------------------------- densities on rings


@pytest.mark.parametrize("factor", [1, 2])
@pytest.mark.parametrize(
    "domain,z0,u",
    [
        (disc(), 0.0, HarmonicFunctionRep.from_coefficients(0.0, {1: 0.2 + 0.1j})),
        (disc(), 0.45 + 0.2j, HarmonicFunctionRep.from_coefficients(0.0, {2: -0.1j})),
        (annulus(0.25), 0.5, HarmonicFunctionRep.from_coefficients(0.3, {1: 0.1, -1: 0.05j})),
        (annulus(0.25), -0.3 + 0.4j, HarmonicFunctionRep.log_mode(-0.5)),
    ],
    ids=["disc-center", "disc-off", "annulus", "annulus-off"],
)
def test_densities_on_rings_match_pointwise(domain, z0, u, factor):
    cfg = _cfg(domain, z0, eps=0.1, a_g=0.5, u=u, c=CProfile.exp_delta(-0.4))
    aq = area_quadrature(domain, z0, 48 * factor, 40 * factor, patch_levels=12)
    bq = boundary_quadrature(domain, 40 * factor)
    pairs = [
        (cfg.rho(aq.nodes, aq.rings), cfg.rho(aq.nodes)),
        (cfg.phi_value(aq.nodes, aq.rings), cfg.phi_value(aq.nodes)),
        (cfg.two_psi(aq.nodes, aq.rings), cfg.two_psi(aq.nodes)),
        (cfg.boundary_lambda(bq.nodes, bq.normal_signs, bq.rings),
         cfg.boundary_lambda(bq.nodes, bq.normal_signs)),
        (cfg.dpsi_dnu(bq.nodes, bq.normal_signs, bq.rings), cfg.dpsi_dnu(bq.nodes, bq.normal_signs)),
    ]
    for ring, pointwise in pairs:
        assert np.max(np.abs(ring - pointwise)) <= 1e-13 * np.max(np.abs(pointwise))


def test_rho_on_a_memoized_rule_is_assembled_without_touching_g():
    # rho is assembled in place on its own arrays: the same bytes on every
    # call, bit for bit exp(-phi) c(-2 psi) from phi and psi apart, and the
    # memo's G table is read, never written.
    cfg = _cfg(annulus(0.25), 0.4 + 0.3j, eps=0.1, a_g=0.5,
               u=HarmonicFunctionRep.from_coefficients(0.3, {1: 0.1, -1: 0.05j}), c=CProfile.exp_delta(-0.4))
    aq = cfg.green_rep.area_rule(48, 40, 12)
    g_table = cfg.green_rep.value(aq.nodes, aq.rings)
    g_bytes = g_table.tobytes()
    first = cfg.rho(aq.nodes, aq.rings)
    second = cfg.rho(aq.nodes, aq.rings)
    assert first.tobytes() == second.tobytes()
    separate = np.exp(-cfg.phi_value(aq.nodes, aq.rings)) * cfg.c.c(-cfg.two_psi(aq.nodes, aq.rings))
    assert first.tobytes() == separate.tobytes()
    assert cfg.green_rep.value(aq.nodes, aq.rings) is g_table
    assert g_table.tobytes() == g_bytes and not g_table.flags.writeable


@pytest.mark.parametrize(
    "a_g,c,evaluations",
    [
        (0.5, CProfile.exp_delta(-0.4), 1),
        (0.5, CProfile.poly(1.5), 1),
        (0.0, CProfile.exp_delta(0.3), 1),
        (0.5, CProfile.constant_one(), 1),
        (0.0, CProfile.constant_one(), 0),
    ],
    ids=["a_g-exp_delta", "a_g-poly", "exp_delta", "a_g-constant_one", "constant_one"],
)
def test_scattered_rho_evaluates_green_at_most_once(monkeypatch, a_g, c, evaluations):
    # rho at scattered points evaluates G once when phi (a_g != 0) or
    # c(-2 psi) reads it, and not at all on constant_one with a_g = 0; the
    # values are bit for bit exp(-phi) c(-2 psi) from phi and psi apart.
    cfg = _cfg(annulus(0.25), -0.3 + 0.4j, eps=0.1, a_g=a_g,
               u=HarmonicFunctionRep.from_coefficients(0.3, {1: 0.1, -1: 0.05j}), c=c)
    z = np.array([0.6 + 0.1j, -0.35j, 0.8, -0.5 - 0.5j])
    separate = np.exp(-cfg.phi_value(z)) * cfg.c.c(-cfg.two_psi(z))
    calls = []
    value = HarmonicFunctionRep.value

    def counted(self, *args, **kwargs):
        if self is cfg.green_rep.correction:
            calls.append(args)
        return value(self, *args, **kwargs)

    monkeypatch.setattr(HarmonicFunctionRep, "value", counted)
    got = cfg.rho(z)
    assert len(calls) == evaluations
    assert np.array_equal(got, separate)


@pytest.mark.parametrize(
    "a_g,p0,c,smooth",
    [
        (0.0, 1.0, CProfile.constant_one(), True),
        (-2.0, 2.0, CProfile.constant_one(), True),
        (0.0, 1.0, CProfile.exp_delta(0.0), True),
        (0.0, 2.0, CProfile.exp_delta(-0.5), True),
        (0.0, 1.0, CProfile.exp_delta(0.3), False),
        (0.4, 1.0, CProfile.constant_one(), False),
        (0.0, 1.0, CProfile.poly(2.0), False),
    ],
    ids=["constant_one", "reduced_k1", "exp_delta_zero", "delta_p0_minus_one", "delta_0.3", "a_g_0.4", "poly"],
)
def test_density_smooth_at_z0(a_g, p0, c, smooth):
    # rho ~ |z - z0|^(2 beta) near z0 with beta = -(a_g + 2 p0 delta) / 2;
    # smooth exactly when beta is a nonnegative integer and c is not poly.
    assert _cfg(annulus(0.25), 0.5, p0=p0, a_g=a_g, c=c).density_smooth_at_z0() is smooth
