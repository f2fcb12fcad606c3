import dataclasses
import math

import numpy as np
import pytest

from kernelgauge import (
    BasisDescriptor,
    CProfile,
    PhiSpec,
    PsiSpec,
    Resolution,
    WeightConfig,
    annulus,
    area_quadrature,
    boundary_quadrature,
    disc,
    gram,
    kernel_diag,
    mask_quadrature,
    kernel_section,
    reproducing_residual,
)
from kernelgauge.kernels import Measure, area_measure, boundary_measure, side_measure
from kernelgauge.numerics import constrained_min
from kernelgauge.potential import HarmonicFunctionRep

TWO_PI = 2.0 * math.pi


def _cfg(domain, z0, k=0, p0=1.0, a_g=0.0, u=None, c=None):
    return WeightConfig(
        domain,
        z0,
        k,
        PsiSpec(p0),
        PhiSpec(a_g, u if u is not None else HarmonicFunctionRep.zero()),
        c if c is not None else CProfile.constant_one(),
    )


FAST_DISC = Resolution(basis_schedule=(8, 16), radial_cells=128, angular_cells=96, boundary_nodes=128)
FAST_ANNULUS = Resolution(
    basis_schedule=(8, 16), boundary_nodes=256, radial_cells=192, angular_cells=128,
    patch_levels=32, patch_panels=2, refine_quadrature=False,
)


# ------------------------------------------------------------------- gram


def test_gram_disc_area_moments():
    basis = BasisDescriptor.create(disc(), 2, 0.0, 0)
    aq = area_quadrature(disc(), 0.0, 16384, 48, patch_radius=0.0)
    m = gram(basis, area_measure(_cfg(disc(), 0.0), aq)).entries
    assert np.max(np.abs(m - np.diag([math.pi, math.pi / 2, math.pi / 3]))) < 1e-8


def test_gram_disc_boundary_diag():
    basis = BasisDescriptor.create(disc(), 2, 0.0, 0)
    bq = boundary_quadrature(disc(), 64)
    m = gram(basis, boundary_measure(_cfg(disc(), 0.0), bq)).entries
    assert np.max(np.abs(m - np.diag([TWO_PI] * 3))) < 1e-12


def test_gram_annulus_boundary_two_circle_sums():
    q = 0.5
    basis = BasisDescriptor.create(annulus(q), 1, 0.5, 0)
    bq = boundary_quadrature(annulus(q), 64)
    lam = np.ones_like(bq.weights)
    phi = basis.matrix(bq.nodes)
    m = (phi.conj().T * (bq.weights * lam)) @ phi
    for i, n in enumerate(basis.exponents):
        expected = TWO_PI * (1.0 + q ** (2 * int(n) + 1)) / basis.scales[i] ** 2
        assert m[i, i].real == pytest.approx(expected, abs=1e-12)
        assert abs(m[i, i].imag) < 1e-14


def test_gram_positive_definite_and_hermitian():
    cfg = _cfg(annulus(0.25), 0.5, u=HarmonicFunctionRep.from_coefficients(0.2, {1: 0.1}))
    basis = BasisDescriptor.create(annulus(0.25), 12, 0.5, 0)
    aq = area_quadrature(annulus(0.25), 0.5, 128, 96, patch_levels=24, patch_panels=2)
    m = gram(basis, area_measure(cfg, aq)).entries
    assert np.max(np.abs(m - m.conj().T)) == 0.0
    eigs = np.linalg.eigvalsh(m)
    assert eigs[0] > 0.0


RING_RES = Resolution(basis_schedule=(4, 8), boundary_nodes=40, radial_cells=48, angular_cells=40,
                      patch_levels=12, patch_panels=2)
RING_CASES = [
    (disc(), 0.0, HarmonicFunctionRep.from_coefficients(0.0, {1: 0.2 + 0.1j})),
    (disc(), 0.45 + 0.2j, HarmonicFunctionRep.from_coefficients(0.0, {2: -0.1j})),
    (annulus(0.25), 0.5, HarmonicFunctionRep.from_coefficients(0.3, {1: 0.1, -1: 0.05j})),
    (annulus(0.25), -0.3 + 0.4j, HarmonicFunctionRep.log_mode(-0.5)),
]


@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("factor", [1, 2])
@pytest.mark.parametrize("side", ["bergman", "szego"])
@pytest.mark.parametrize("domain,z0,u", RING_CASES, ids=["disc-center", "disc-off", "annulus", "annulus-off"])
def test_ring_gram_matches_dense(domain, z0, u, side, factor, k):
    cfg = _cfg(domain, z0, k=k, u=u, c=CProfile.exp_delta(-0.4))
    res = RING_RES.scaled(factor)
    basis = BasisDescriptor.create(domain, res.n_max, z0, k)
    measure = side_measure(cfg, side, res)
    if side == "szego":
        assert measure.kind == "boundary"
        assert len(measure.rings.radii) == len(domain.component_radii)
    else:
        assert measure.kind == "area"
        # The graded patch ring adds rings to the global radial grid.
        assert len(measure.rings.radii) > res.radial_cells
    ring = gram(basis, measure).entries
    dense = gram(basis, dataclasses.replace(measure, rings=None)).entries
    assert np.max(np.abs(ring - dense)) <= 1e-13 * np.max(np.abs(dense))


def test_masked_rule_gram_is_dense_and_exact():
    # Clipping the disc to |z| < 0.6 leaves no ring structure; the dense
    # Gram of the clipped rule reproduces the moments of the smaller disc.
    rho = 0.6
    aq = area_quadrature(disc(), 0.0, 2048, 32, patch_radius=0.0)
    masked = mask_quadrature(aq, lambda z: np.log(np.abs(z)), math.log(rho))
    basis = BasisDescriptor.create(disc(), 4, 0.0, 0)
    m = gram(basis, Measure("area", masked.nodes, masked.weights)).entries
    exact = np.diag([math.pi * rho ** (2 * n + 2) / (n + 1) for n in range(5)])
    assert np.max(np.abs(m - exact)) < 1e-6 * math.pi * rho**2


# ------------------------------------------------------------ kernel_diag


def test_disc_baseline_diagonals():
    cfg = _cfg(disc(), 0.0)
    assert kernel_diag(cfg, "bergman", FAST_DISC).value == pytest.approx(1 / math.pi, abs=1e-9)
    assert kernel_diag(cfg, "szego", FAST_DISC).value == pytest.approx(1.0, abs=1e-9)


def test_disc_weighted_bergman():
    cfg = _cfg(disc(), 0.0, c=CProfile.exp_delta(0.3))
    got = kernel_diag(cfg, "bergman", Resolution(basis_schedule=(8, 16), radial_cells=192,
                                                 angular_cells=96, boundary_nodes=128))
    assert got.value == pytest.approx((1 - 0.3) / math.pi, rel=3e-6)


def test_basis_growth_monotone():
    cfg = _cfg(annulus(0.25), 0.5)
    basis = BasisDescriptor.create(annulus(0.25), 24, 0.5, 0)
    bq = boundary_quadrature(annulus(0.25), 256)
    full = gram(basis, boundary_measure(cfg, bq))
    constraints = basis.constraints()
    values = []
    for n in (4, 8, 16, 24):
        m = basis.size(n)
        res = constrained_min(full.principal(m), constraints.restricted(m))
        values.append(TWO_PI / res.value)
    diffs = np.diff(values)
    assert np.all(diffs >= -1e-12)
    # increments shrink geometrically for analytic weights
    assert diffs[-1] < 0.25 * diffs[0]


def test_two_point_hermitian_symmetry():
    cfg = _cfg(annulus(0.25), 0.5)
    basis = BasisDescriptor.create(annulus(0.25), 16, 0.5, 0)
    bq = boundary_quadrature(annulus(0.25), 256)
    m = gram(basis, boundary_measure(cfg, bq)).entries
    minv = np.linalg.inv(m)

    def two_point(z, w):
        bz = basis.matrix(np.array([z]))[0]
        bw = basis.matrix(np.array([w]))[0]
        return bz @ minv @ np.conj(bw)

    pairs = [(0.5 + 0.2j, -0.4), (0.3j, 0.8), (-0.6 + 0.1j, 0.4 - 0.3j)]
    for z, w in pairs:
        assert abs(two_point(z, w) - np.conj(two_point(w, z))) < 1e-10


def test_szego_minimality():
    cfg = _cfg(disc(), 0.3)
    res = FAST_DISC
    sec = kernel_section(cfg, "szego", res)
    bq = boundary_quadrature(disc(), 256)
    lam = cfg.boundary_lambda(bq.nodes, bq.normal_signs)
    m_norm = float(np.sum(bq.weights * lam * np.abs(sec(bq.nodes)) ** 2))
    rng = np.random.default_rng(5)
    for _ in range(4):
        coeffs = rng.normal(size=9) + 1j * rng.normal(size=9)
        f0 = np.polyval(coeffs[::-1], 0.3)
        coeffs = coeffs / f0  # normalize f(z0) = 1
        vals = np.polyval(coeffs[::-1], bq.nodes)
        f_norm = float(np.sum(bq.weights * lam * np.abs(vals) ** 2))
        assert m_norm <= f_norm + 1e-10


def test_szego_normalization_consistency():
    # Kernel diagonal equals (1/2pi) * contour integral of |K(., conj(z0))|^2 lambda.
    cfg = _cfg(annulus(0.25), 0.5)
    res = FAST_ANNULUS
    sec = kernel_section(cfg, "szego", res)
    diag = kernel_diag(cfg, "szego", res).value
    bq = boundary_quadrature(annulus(0.25), res.boundary_nodes)
    lam = cfg.boundary_lambda(bq.nodes, bq.normal_signs)
    recomputed = float(np.sum(bq.weights * lam * np.abs(sec.two_point(bq.nodes)) ** 2)) / TWO_PI
    assert recomputed == pytest.approx(diag, rel=1e-6)


def test_annulus_rotation_invariance():
    cfg_a = _cfg(annulus(0.25), 0.5)
    cfg_b = _cfg(annulus(0.25), 0.5 * np.exp(1.3j))
    for side in ("bergman", "szego"):
        va = kernel_diag(cfg_a, side, FAST_ANNULUS).value
        vb = kernel_diag(cfg_b, side, FAST_ANNULUS).value
        assert vb == pytest.approx(va, rel=1e-8)


# --------------------------------------------------------------- sections


def test_disc_szego_section_unit_weight():
    z0 = 0.5
    coeffs = {0: complex(-0.5 * math.log(1 - abs(z0) ** 2))}
    for n in range(1, 49):
        coeffs[n] = -np.conj(z0) ** n / n
    u = HarmonicFunctionRep.from_coefficients(0.0, coeffs)
    cfg = _cfg(disc(), z0, u=u)
    res = Resolution(basis_schedule=(8, 16, 32), radial_cells=192, angular_cells=160, boundary_nodes=192)
    sec = kernel_section(cfg, "szego", res)
    grid = np.array([0.3 + 0.2j, -0.5, 0.1j, 0.9])
    exact = (1 - 0.25) / (1 - 0.5 * grid)
    assert np.max(np.abs(sec(grid) - exact)) < 1e-8


def test_disc_bergman_section():
    cfg = _cfg(disc(), 0.5)
    res = Resolution(basis_schedule=(8, 16, 32), radial_cells=8192, angular_cells=160, patch_radius=0.0)
    sec = kernel_section(cfg, "bergman", res)
    grid = np.array([0.3 + 0.2j, -0.5, 0.1j])
    exact = (1 - 0.25) ** 2 / (1 - 0.5 * grid) ** 2
    assert np.max(np.abs(sec(grid) - exact)) < 1e-8


def test_section_constant_at_center():
    cfg = _cfg(disc(), 0.0)
    sec = kernel_section(cfg, "szego", FAST_DISC)
    nonconstant = np.abs(sec.coefficients[1:])
    assert np.max(nonconstant) < 1e-10
    assert sec.coefficients[0] == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------- reproduction


def test_reproducing_residuals_disc():
    cfg = _cfg(disc(), 0.5)
    res = Resolution(basis_schedule=(8, 16), radial_cells=192, angular_cells=96,
                     boundary_nodes=160, refine_quadrature=False)
    for side in ("szego", "bergman"):
        sec = kernel_section(cfg, side, res)
        for n in (0, 3):
            assert reproducing_residual(cfg, side, n, res, section=sec) < 1e-8


def test_reproducing_residuals_annulus_negative_mode():
    cfg = _cfg(annulus(0.25), 0.5)
    sec = kernel_section(cfg, "szego", FAST_ANNULUS)
    assert reproducing_residual(cfg, "szego", -2, FAST_ANNULUS, section=sec) < 1e-6


def test_sections_coincide_in_matched_configs():
    # In extremal-family configurations the normalized Hardy and Bergman
    # kernel sections are one and the same function.
    res_d = Resolution(basis_schedule=(8, 16, 32), radial_cells=1024, angular_cells=160,
                       boundary_nodes=256, patch_radius=0.0)
    cfg_d = _cfg(disc(), 0.3)
    sec_k = kernel_section(cfg_d, "szego", res_d)
    sec_b = kernel_section(cfg_d, "bergman", res_d)
    grid = np.array([0.5 + 0.2j, -0.4, 0.7j, 0.9])
    assert np.max(np.abs(sec_k(grid) - sec_b(grid))) < 1e-6

    res_a = Resolution(basis_schedule=(8, 16, 32), boundary_nodes=512, radial_cells=512,
                       angular_cells=256, patch_radius=0.0)
    cfg_a = _cfg(annulus(0.25), 0.5, u=HarmonicFunctionRep.log_mode(-0.5))
    sec_k = kernel_section(cfg_a, "szego", res_a)
    sec_b = kernel_section(cfg_a, "bergman", res_a)
    grid = np.array([0.3 + 0.2j, -0.6, 0.45j, 0.9])
    assert np.max(np.abs(sec_k(grid) - sec_b(grid))) < 1e-5


def test_resolution_guard():
    cfg = _cfg(disc(), 0.0)
    with pytest.raises(ValueError):
        kernel_diag(cfg, "szego", Resolution(basis_schedule=(8, 64), boundary_nodes=128))
