"""Independent oracles: closed forms and symmetries derived outside the code.

Re-running the same code checks only that it is deterministic; each test
here compares the verifier's numbers with a fact it does not compute.
"""

import cmath
import math

import pytest

from kernelgauge import (
    CProfile,
    PhiSpec,
    PsiSpec,
    Resolution,
    WeightConfig,
    annulus,
    disc,
    green,
    kernel_diag,
    verify,
)
from kernelgauge.potential import HarmonicFunctionRep

@pytest.mark.parametrize("delta,b_rel", [(0.0, 1e-14), (-0.5, 1e-7)])
def test_off_centre_disc_meets_mobius_closed_forms(delta, b_rel):
    # The Mobius map sending z0 to 0 carries the centred disc onto this one:
    # with u = 0, p0 = 1 and exp_delta, K = (1-|z0|^2)^-2 and
    # B = (1 - delta) / (pi (1-|z0|^2)^2).  Measured: K to 7e-16 relative,
    # B to 1.1e-16 at delta = 0 and 6.7e-9 at delta = -0.5, where
    # |z - z0|^(-2 delta) is not smooth at z0.
    z0 = 0.4 * cmath.exp(1.3j)
    cfg = WeightConfig(disc(), z0, 0, PsiSpec(1.0), PhiSpec(0.0), CProfile.exp_delta(delta))
    res = Resolution(basis_schedule=(8, 16, 32), boundary_nodes=256, radial_cells=192, angular_cells=160)
    report = verify(cfg, res)
    s = 1.0 - abs(z0) ** 2
    assert report.k_value.value == pytest.approx(s**-2, rel=1e-14, abs=0.0)
    assert report.b_value.value == pytest.approx((1.0 - delta) / (math.pi * s * s), rel=b_rel, abs=0.0)


@pytest.mark.parametrize(
    "k,p0,delta",
    [(1, 2.0, 0.0), (1, 1.5, 0.0), (1, 2.0, -0.5), (2, 3.0, 0.0), (2, 2.0, -0.25), (1, 2.0, 0.3)],
)
def test_order_k_off_centre_disc_meets_mobius_closed_forms(k, p0, delta):
    # The same Mobius map at order k: with u = 0, a_G = 0 and exp_delta,
    # K^(k) = p0 s^(-2(k+1)) and B^(k) = (k + 1 - p0 delta) s^(-2(k+1)) / pi,
    # s = 1 - |z0|^2.  Measured: both within 3.5e-15 relative where the
    # density is bounded at z0 (beta = -p0 delta >= 0).  At delta = 0.3,
    # beta = -0.6 and B is off by 2.0e-8, inside its total estimate of
    # 2.5e-7.  kernel_diag, not verify: (1, 1.5, 0) and (2, 2, -0.25) lack
    # the mass a_G + 2 p0 >= 2(k+1) that verify asks for.
    z0 = 0.4 * cmath.exp(1.3j)
    cfg = WeightConfig(disc(), z0, k, PsiSpec(p0), PhiSpec(0.0), CProfile.exp_delta(delta))
    res = Resolution(basis_schedule=(8, 16, 32), boundary_nodes=256, radial_cells=192, angular_cells=160)
    scale = (1.0 - abs(z0) ** 2) ** (-2 * (k + 1))
    for side, exact in (("szego", p0 * scale), ("bergman", (k + 1 - p0 * delta) * scale / math.pi)):
        got = kernel_diag(cfg, side, res)
        bound = got.total_estimate if cfg.density_unbounded_at_z0() else 1e-13 * exact
        assert abs(got.value - exact) <= bound, side


def test_annulus_inversion_symmetry_at_sqrt_q():
    # z -> q/z maps the annulus onto itself and fixes z0 = sqrt(q) = 0.5, and
    # with it G(., z0).  It turns the log mode alpha_u into -alpha_u and
    # multiplies the weights by constants and integer powers of |z|, none of
    # which moves the ratio, so the ratio is the same at alpha_u and
    # 1 - alpha_u.  Measured on kgbench's grid: equal to 1.1e-14, while K
    # and B each move by about 7%.
    domain, z0 = annulus(0.25), 0.5
    res = Resolution(basis_schedule=(8, 16, 32), boundary_nodes=256, radial_cells=160, angular_cells=192)
    shared = green(domain, z0)
    ratios = []
    for alpha in (0.475, 0.525):
        u = HarmonicFunctionRep.log_mode(alpha)
        cfg = WeightConfig(domain, z0, 0, PsiSpec(1.0), PhiSpec(0.0, u), CProfile.constant_one(), shared)
        report = verify(cfg, res)
        assert report.character_distance == pytest.approx(0.025, abs=1e-12)
        ratios.append(report.ratio)
    assert ratios[0] == pytest.approx(ratios[1], rel=1e-12, abs=0.0)
    assert ratios[0] > 1.0 + 1e-5
