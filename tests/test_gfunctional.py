import math
from collections import Counter

import numpy as np
import pytest

from kernelgauge import (
    CProfile,
    EmptySublevel,
    NotEqualityShape,
    PhiSpec,
    PsiSpec,
    Resolution,
    WeightConfig,
    annulus,
    boundary_limit_check,
    disc,
    f0_construct,
    g_curve,
    g_of_t,
    kernel_diag,
    kernel_section,
    shell_identity_check,
)
from kernelgauge.gfunctional import _masked_gram, _sublevel_masks
from kernelgauge.kernels import BasisDescriptor, Measure, _dense_gram, area_quadrature_for, gram, side_measure
from kernelgauge.numerics import constrained_min
from kernelgauge.potential import HarmonicFunctionRep

PI = math.pi


def _cfg(domain, z0, k=0, p0=1.0, eps=0.0, a_g=0.0, u=None, c=None):
    return WeightConfig(
        domain,
        z0,
        k,
        PsiSpec(p0, eps),
        PhiSpec(a_g, u if u is not None else HarmonicFunctionRep.zero()),
        c if c is not None else CProfile.constant_one(),
    )


DISC_RES = Resolution(basis_schedule=(8, 16), radial_cells=192, angular_cells=128)
ANN_RES = Resolution(
    basis_schedule=(8, 16), boundary_nodes=256, radial_cells=256, angular_cells=256,
    patch_levels=32,
)
MATCHED_U = HarmonicFunctionRep.log_mode(-0.5)


# ------------------------------------------------------------------ g(t)


def test_g_at_zero_is_disc_area():
    assert g_of_t(_cfg(disc(), 0.0), 0.0, DISC_RES) == pytest.approx(PI, abs=1e-6)


def test_g_at_one_sublevel_disc():
    val = g_of_t(_cfg(disc(), 0.0), 1.0, DISC_RES)
    assert val == pytest.approx(PI * math.exp(-1.0), rel=2e-3)


def test_g_weighted_profile():
    cfg = _cfg(disc(), 0.0, c=CProfile.exp_delta(0.5))
    val = g_of_t(cfg, 0.0, Resolution(basis_schedule=(8, 16), radial_cells=256, angular_cells=128))
    assert val == pytest.approx(2.0 * PI, rel=1e-5)


def test_g_monotone_in_t():
    cfg = _cfg(disc(), 0.2)
    crv = g_curve(cfg, [0.0, 0.4, 0.8, 1.2], DISC_RES)
    assert np.all(np.diff(crv.g_upper) <= 1e-12)


def test_g_reciprocal_of_bergman():
    cfg = _cfg(annulus(0.25), 0.5, u=MATCHED_U)
    res = ANN_RES
    g0 = g_of_t(cfg, 0.0, res)
    b = kernel_diag(cfg, "bergman", res)
    assert g0 * b.value == pytest.approx(1.0, rel=1e-6 + b.total_estimate / b.value)


MASK_RES = Resolution(basis_schedule=(4, 8), radial_cells=48, angular_cells=40, patch_levels=12)
MASK_CASES = [
    (disc(), 0.0, HarmonicFunctionRep.from_coefficients(0.0, {1: 0.2 + 0.1j})),
    (disc(), 0.45 + 0.2j, HarmonicFunctionRep.from_coefficients(0.0, {2: -0.1j})),
    (annulus(0.25), 0.5, HarmonicFunctionRep.from_coefficients(0.3, {1: 0.1, -1: 0.05j})),
    (annulus(0.25), -0.3 + 0.4j, HarmonicFunctionRep.log_mode(-0.5)),
]


@pytest.mark.parametrize("keep,t", [("below", 0.0), ("below", 0.6), ("above", 0.6)])
@pytest.mark.parametrize("domain,z0,u", MASK_CASES, ids=["disc-center", "disc-off", "annulus", "annulus-off"])
def test_masked_gram_rings_match_dense(domain, z0, u, keep, t):
    # Whole cells and clipped pieces in one table of radial moments equal
    # the dense Gram of the same masked rule, as in test_ring_gram_matches_dense.
    cfg = _cfg(domain, z0, u=u, c=CProfile.exp_delta(-0.4))
    aq = area_quadrature_for(cfg, MASK_RES)
    (masked,) = _sublevel_masks(cfg, aq, [t], keep)
    kept = masked.kept
    whole = np.count_nonzero(kept)
    if t == 0.0:
        assert whole == aq.nodes.size and masked.nodes.size == 0
    else:
        assert 0 < whole < aq.nodes.size and masked.nodes.size > 0
    # The same rule written out flat: the kept parent cells, then the pieces.
    nodes = np.concatenate([aq.nodes[kept], masked.nodes])
    weights = np.concatenate([aq.weights[kept], masked.weights])
    basis = BasisDescriptor.create(domain, MASK_RES.n_max, z0, 0)
    split = _masked_gram(cfg, basis, aq, cfg.rho(aq.nodes, aq.rings), masked).entries
    dense = _dense_gram(basis, Measure(nodes, weights * cfg.rho(nodes))).entries
    assert np.max(np.abs(split - dense)) <= 1e-13 * np.max(np.abs(dense))
    # Densities on the parent's rings plus the pieces by Horner equal the
    # flat Horner sum.  Every case has the equality shape, so f0 exists.
    for density in (cfg.rho, f0_construct(cfg).abs2):
        flat = np.sum(weights * density(nodes))
        on_rings = masked.integrate(density(aq.nodes, aq.rings), density(masked.nodes))
        assert on_rings == pytest.approx(flat, rel=1e-13, abs=0.0)


def test_green_evaluated_once_per_check(monkeypatch):
    # 2 psi, phi and rho on the parent area rule, the mask's node call and
    # the shell's g_of_t(config, 0) all read G from the one evaluation in
    # the Green function's memo.  phi carries a_g G here.  An evaluation of
    # G is a call of its correction; a read of the memo calls nothing.
    from kernelgauge.geometry import area_quadrature

    calls = []
    corrections = []
    value = HarmonicFunctionRep.value

    def counted(self, z, rings=None):
        # Area rules have theta0 = pi / n_theta; corner grids and boundary rules 0.
        if rings is not None and rings.theta0 != 0.0 and any(self is c for c in corrections):
            calls.append(rings.radii.size * rings.n_theta)
        return value(self, z, rings)

    monkeypatch.setattr(HarmonicFunctionRep, "value", counted)
    res = Resolution(basis_schedule=(4, 8), boundary_nodes=64, radial_cells=48, angular_cells=40,
                     patch_levels=12)
    nodes = area_quadrature(annulus(0.25), 0.5, 48, 40, patch_levels=12).nodes.size

    def config():
        cfg = _cfg(annulus(0.25), 0.5, p0=0.75, a_g=0.5, u=MATCHED_U)
        corrections.append(cfg.green_rep.correction)
        return cfg

    def curve(cfg):
        g_curve(cfg, [0.0, 0.3, 0.6], res)

    def boundary(cfg):
        boundary_limit_check(cfg, lambda z, rings=None: np.ones(np.shape(z)), res=res)

    def shell(cfg):
        shell_identity_check(cfg, CProfile.constant_one(), 0.6, 0.3, res=res)

    for check in (curve, boundary, shell):
        calls.clear()
        check(config())
        assert calls == [nodes]
    # The three checks of one configuration share its Green function's rule.
    calls.clear()
    cfg = config()
    for check in (curve, shell, boundary):
        check(cfg)
    assert calls == [nodes]


def test_shell_density_reads_green_once(monkeypatch):
    # With a_g != 0 the shell density exp(-phi) a(-2 psi) needs G for both
    # factors; on the clipped pieces, where no memo holds G, it is evaluated
    # once per set of points, and the shell integral is bit for bit the one
    # of the two factors formed apart.
    from kernelgauge.gfunctional import _sublevel_integrals

    value = HarmonicFunctionRep.value
    cfg = _cfg(annulus(0.25), 0.5, p0=0.75, a_g=0.5, u=MATCHED_U)
    a_profile = CProfile.exp_delta(0.3)
    evaluated = []

    def counted(self, z, rings=None):
        if self is cfg.green_rep.correction:
            evaluated.append(np.asarray(z).tobytes())
        return value(self, z, rings)

    monkeypatch.setattr(HarmonicFunctionRep, "value", counted)
    shell = shell_identity_check(cfg, a_profile, 0.6, 0.3, res=MASK_RES)
    assert len(evaluated) > 2
    assert [n for n in Counter(evaluated).values() if n > 1] == []
    f0 = f0_construct(cfg)

    def apart(z, rings=None):
        return f0.abs2(z, rings) * np.exp(-cfg.phi_value(z, rings)) * a_profile.c(-cfg.two_psi(z, rings))

    inner, outer = _sublevel_integrals(cfg, MASK_RES, apart, [0.3, 0.6], "below")
    assert shell.lhs == inner - outer


def test_masked_callers_keep_the_graded_rule(monkeypatch):
    # The density is smooth at z0, so kernel diagonals take the rule with no
    # refinement ring; every masked check still cuts the graded rule, whose
    # rings the level curves of G cross near z0.
    import kernelgauge.potential as potential
    from kernelgauge.verifier import hardy_diagnostic, superlevel_constant

    levels = []
    real = potential.area_quadrature

    def recorded(*args, patch_levels):
        levels.append(patch_levels)
        return real(*args, patch_levels=patch_levels)

    monkeypatch.setattr(potential, "area_quadrature", recorded)
    cfg = _cfg(annulus(0.25), 0.5, u=MATCHED_U)
    assert cfg.density_smooth_at_z0()

    def ones(z, rings=None):
        return np.ones(np.shape(z))

    g_curve(cfg, [0.0, 0.3], MASK_RES)
    shell_identity_check(cfg, CProfile.constant_one(), 0.6, 0.3, res=MASK_RES)
    boundary_limit_check(cfg, ones, res=MASK_RES)
    hardy_diagnostic(ones, cfg, res=MASK_RES)
    superlevel_constant(cfg, res=MASK_RES)
    assert levels == [MASK_RES.patch_levels]
    kernel_diag(cfg, "bergman", MASK_RES)
    assert levels == [MASK_RES.patch_levels, None, None]


def test_empty_sublevel(monkeypatch):
    import kernelgauge.gfunctional as gfunctional_module

    masks = []
    monkeypatch.setattr(gfunctional_module, "mask_quadrature", lambda *args, **kwargs: masks.append(args))
    cfg = _cfg(annulus(0.25), 0.5)
    with pytest.raises(EmptySublevel):
        g_of_t(cfg, 50.0, ANN_RES)
    # Only the largest t is out of range; the check comes before any mask.
    with pytest.raises(EmptySublevel):
        g_curve(cfg, [0.0, 0.3, 50.0], ANN_RES)
    with pytest.raises(EmptySublevel):
        shell_identity_check(cfg, CProfile.constant_one(), 50.0, 0.3, res=ANN_RES)
    assert not masks


def test_g_curve_disc_linearity():
    crv = g_curve(_cfg(disc(), 0.0), [0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5], DISC_RES)
    assert np.max(np.abs(crv.g_upper - PI * np.exp(-crv.t))) < 1e-3 * PI
    assert crv.linear_residual < 1e-3 * PI
    assert crv.concavity_defect < 1e-8


def test_g_curve_annulus_matched_and_mismatched():
    grid = [0.0, 0.3, 0.6, 0.9, 1.2]
    matched_cfg = _cfg(annulus(0.25), 0.5, u=MATCHED_U)
    matched = g_curve(matched_cfg, grid, ANN_RES)
    assert matched.linear_residual < 1e-3 * matched.g0
    # One curve sample is the one-t minimum exactly.
    for t, g in zip(grid, matched.g_upper):
        assert g == g_of_t(matched_cfg, t, ANN_RES)
    # Character mismatch alone bends the curve by at most the weighted
    # capacity gap pi rho(z0) B / c_beta^2 - 1, which is ~1e-5 for this
    # domain: far below the 1e-3 linearity tolerance.  The samples must
    # still respect one-sided concavity (sit above the endpoint secant).
    mismatched = g_curve(
        _cfg(annulus(0.25), 0.5, u=HarmonicFunctionRep.log_mode(-0.25)), grid, ANN_RES
    )
    assert mismatched.linear_residual < 1e-3 * mismatched.g0
    secant = mismatched.g0 * mismatched.r / mismatched.r[0]
    assert np.all(mismatched.g_upper - secant > -2e-4 * mismatched.g0)


def test_g_curve_detects_strong_concavity():
    # Excess curvature mass at z0 (a_g = 1) makes the density blow up
    # like |z - z0|^-1 there, bending the curve far from the secant.
    res = Resolution(
        basis_schedule=(8, 16), boundary_nodes=256, radial_cells=256, angular_cells=256,
        patch_levels=48,
    )
    crv = g_curve(_cfg(annulus(0.25), 0.5, a_g=1.0), [0.0, 0.3, 0.6, 0.9, 1.2], res)
    assert crv.linear_residual > 100.0 * 1e-3 * crv.g0
    secant = crv.g0 * crv.r / crv.r[0]
    assert np.all((crv.g_upper - secant)[1:] > 0.0)


def test_minimizer_orthogonality():
    # Pythagoras: the t = 0 minimizer F is orthogonal to f - F for every
    # competitor f with the same jet.
    cfg = _cfg(disc(), 0.3)
    rng = np.random.default_rng(2)
    basis = BasisDescriptor.create(disc(), DISC_RES.n_max, 0.3, 0)
    rows = basis.constraints().rows[0]
    g = gram(basis, side_measure(cfg, "bergman", DISC_RES))
    matrix = g.entries
    c_f = constrained_min(g, basis.constraints()).minimizer
    norm_f = math.sqrt(np.real(c_f.conj() @ matrix @ c_f))
    for _ in range(3):
        coeffs = rng.normal(size=len(rows)) + 1j * rng.normal(size=len(rows))
        coeffs = coeffs / (rows @ coeffs)  # competitor with value 1 at z0
        c_d = coeffs - c_f
        norm_d = math.sqrt(np.real(c_d.conj() @ matrix @ c_d))
        assert abs(c_d.conj() @ matrix @ c_f) / (norm_f * norm_d) < 1e-8


# ------------------------------------------------------------- extremal


def test_f0_disc_center_constant():
    f0 = f0_construct(_cfg(disc(), 0.0))
    zs = np.array([0.0, 0.5, -0.3 + 0.2j])
    assert np.max(np.abs(f0.value(zs) - 1.0)) < 1e-12
    assert f0.monodromy_defect == 0.0


def test_f0_disc_matches_bergman_section():
    f0 = f0_construct(_cfg(disc(), 0.2))
    zs = np.array([0.5 + 0.3j, -0.4, 0.6j, 0.0])
    exact = (1 - 0.04) ** 2 / (1 - 0.2 * zs) ** 2
    assert np.max(np.abs(f0.value(zs) - exact)) < 1e-13


def test_f0_normalization():
    u = MATCHED_U
    f0 = f0_construct(_cfg(annulus(0.25), 0.5, u=u))
    assert abs(f0.value(np.array([0.5 + 0j]))[0] - 1.0) < 1e-10
    assert abs(f0.abs2(np.array([0.5 + 0j]))[0] - 1.0) < 1e-10


def test_f0_monodromy_matched_and_mismatched():
    matched = f0_construct(_cfg(annulus(0.25), 0.5, u=MATCHED_U))
    assert matched.monodromy_defect < 1e-8
    shifted = f0_construct(_cfg(annulus(0.25), 0.5, u=HarmonicFunctionRep.log_mode(-0.25)))
    assert shifted.monodromy_defect == pytest.approx(abs(np.exp(0.5j * PI) - 1.0), abs=1e-10)


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("z0,alpha_u", [(0.5, 0.0), (0.5, -0.25), (0.7 * np.exp(1.1j), 0.3), (-0.3 + 0.2j, -1.6)])
def test_f0_monodromy_defect_is_the_character_mismatch(k, z0, alpha_u):
    # |exp(2 pi i alpha) - 1| = 2 sin(pi d), d the distance of alpha to Z.
    # The defect reduces the summed alpha of V mod 1, the mismatch reduces
    # each character before summing (k + 1) of one and one of the other:
    # the two agree to a few ulps of 2, not to the last.
    cfg = _cfg(annulus(0.2), z0, k=k, p0=k + 1.0, u=HarmonicFunctionRep.log_mode(alpha_u))
    expected = 2.0 * math.sin(PI * cfg.character_mismatch())
    assert abs(f0_construct(cfg).monodromy_defect - expected) < 4e-15


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize(
    "q,z0,alpha_u",
    [
        (0.2, -0.3 + 0.2j, -1.6),  # k = 1: alpha = -2.8677, where exp(2 pi i alpha) missed by 1.4e-15
        (0.2, 0.5, -0.25),
        (0.2, 0.7 * np.exp(1.1j), 0.3),
        (0.25, 0.5, -0.5),
        (0.25, 0.5, -0.25),
        (0.3, math.sqrt(0.3) * np.exp(0.3j), 1.0),
    ],
)
def test_f0_monodromy_defect_matches_a_40_digit_multiplier(k, q, z0, alpha_u):
    # The defect is |exp(2 pi i alpha) - 1| at the stored alpha, to within
    # a few ulps of its size, however large |alpha| is.
    mpmath = pytest.importorskip("mpmath")
    f0 = f0_construct(_cfg(annulus(q), z0, k=k, p0=k + 1.0, u=HarmonicFunctionRep.log_mode(alpha_u)))
    with mpmath.workdps(40):
        alpha = mpmath.mpf(f0.exponent_rep.alpha_log)
        exact = float(abs(mpmath.exp(2j * mpmath.pi * alpha) - 1))
    assert abs(f0.monodromy_defect - exact) <= 5e-16


# Annulus sections whose exponent V has log mode alpha = -(k+1) log|z0| / log q + alpha_u.
_BRANCH_CASES = {
    "matched": (_cfg(annulus(0.25), 0.5, u=MATCHED_U), -1.0),
    "shifted": (_cfg(annulus(0.25), 0.5, u=HarmonicFunctionRep.log_mode(-0.25)), -0.75),
    "order_one": (
        _cfg(annulus(0.3), math.sqrt(0.3) * np.exp(0.3j), k=1, a_g=2.0, u=HarmonicFunctionRep.log_mode(1.0)),
        0.0,
    ),
}


@pytest.mark.parametrize("name", sorted(_BRANCH_CASES))
def test_f0_jumps_by_its_multiplier_across_the_branch_cut(name):
    # value takes Log z on its principal branch, cut along the negative
    # axis; continuing F0 across the cut multiplies it by exp(2 pi i alpha),
    # so just below the cut F0 is exp(-2 pi i alpha) times F0 just above.
    # Differences, not ratios: F0 vanishes at the saddle z = -0.5.
    config, alpha = _BRANCH_CASES[name]
    f0 = f0_construct(config)
    assert f0.exponent_rep.alpha_log == pytest.approx(alpha, abs=1e-14)
    multiplier = np.exp(-2j * PI * f0.exponent_rep.alpha_log)
    angle = PI - 1e-9
    radii = np.array([0.3, 0.5, 0.8])
    above = f0.value(radii * np.exp(1j * angle))
    below = f0.value(radii * np.exp(-1j * angle))
    scale = max(np.max(np.abs(above)), np.max(np.abs(below)))
    assert np.max(np.abs(below - multiplier * above)) <= 1e-6 * scale


@pytest.mark.parametrize(
    "config",
    [_cfg(disc(), 0.2), *(config for config, _ in _BRANCH_CASES.values()),
     _cfg(annulus(0.25), 0.7 * np.exp(1.1j),
          u=HarmonicFunctionRep.from_coefficients(math.log(0.7) / math.log(0.25), {2: 0.05 - 0.03j}))],
)
def test_f0_value_modulus_matches_abs2(config):
    # abs2 reads V, value reads W = S + alpha Log z; both carry log_c0.
    f0 = f0_construct(config)
    rng = np.random.default_rng(5)
    q = config.domain.q if config.domain.kind == "annulus" else 0.0
    zs = rng.uniform(q + 0.01, 0.99, 40) * np.exp(1j * rng.uniform(-PI, PI, 40))
    np.testing.assert_allclose(np.abs(f0.value(zs)) ** 2, f0.abs2(zs), rtol=1e-12, atol=0.0)


def test_f0_requires_equality_shape():
    with pytest.raises(NotEqualityShape):
        f0_construct(_cfg(disc(), 0.0, a_g=0.5))
    with pytest.raises(NotEqualityShape):
        f0_construct(_cfg(disc(), 0.0, eps=0.1))


def test_f0_agrees_with_szego_section_on_boundary():
    cfg = _cfg(annulus(0.25), 0.5, u=MATCHED_U)
    res = Resolution(basis_schedule=(16, 32, 48), boundary_nodes=512, radial_cells=320,
                     angular_cells=256, patch_levels=32)
    sec = kernel_section(cfg, "szego", res)
    theta = 2 * PI * np.arange(32) / 32
    for radius in (1.0, 0.25):
        zeta = radius * np.exp(1j * theta)
        gap = np.max(np.abs(f0_construct(cfg).value(zeta) - sec(zeta)))
        assert gap < 1e-10, f"radius {radius}: gap {gap:.2e}"


# ----------------------------------------------------------- identities


def test_shell_identity_total():
    si = shell_identity_check(_cfg(disc(), 0.0), CProfile.constant_one(), np.inf, 0.0, res=DISC_RES)
    assert si.rhs == pytest.approx(PI, rel=1e-5)
    assert si.relative_gap < 1e-5


def test_shell_identity_unit_band():
    si = shell_identity_check(_cfg(disc(), 0.0), CProfile.constant_one(), 1.0, 0.0, res=DISC_RES)
    assert si.rhs == pytest.approx(PI * (1 - math.exp(-1.0)), rel=1e-10)
    assert si.relative_gap < 2e-3


def test_shell_identity_annulus_weighted_band():
    cfg = _cfg(annulus(0.25), 0.5, u=MATCHED_U)
    si = shell_identity_check(cfg, CProfile.exp_delta(0.5), 2.0, 1.0, res=ANN_RES)
    assert si.relative_gap < 5e-3


def test_boundary_limit_constant():
    bl = boundary_limit_check(_cfg(disc(), 0.0), lambda z, rings=None: np.ones(len(z)), res=DISC_RES)
    assert np.max(np.abs(bl.shell_ratios - PI)) < 1e-10
    assert bl.boundary_value == pytest.approx(PI, abs=1e-12)
    assert bl.extrapolated_gap < 1e-10


def test_boundary_limit_linear_mode():
    bl = boundary_limit_check(_cfg(disc(), 0.0), lambda z, rings=None: np.abs(z) ** 2, res=DISC_RES)
    assert bl.boundary_value == pytest.approx(PI, abs=1e-12)
    assert bl.extrapolated_gap < 1e-3


def test_boundary_limit_annulus_extremal():
    cfg = _cfg(annulus(0.25), 0.5, u=MATCHED_U)
    f0 = f0_construct(cfg)
    bl = boundary_limit_check(cfg, f0.abs2, res=ANN_RES)
    assert bl.extrapolated_gap < 5e-3 * bl.boundary_value
    # abs2 on rings and abs2 point by point give the same ratios.
    pointwise = boundary_limit_check(cfg, lambda z, rings=None: f0.abs2(z), res=ANN_RES)
    np.testing.assert_allclose(bl.shell_ratios, pointwise.shell_ratios, rtol=1e-13, atol=0.0)
