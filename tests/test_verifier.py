import math

import numpy as np
import pytest

from kernelgauge import (
    CProfile,
    InvalidConfig,
    PhiSpec,
    PsiSpec,
    Resolution,
    RouteMismatch,
    WeightConfig,
    annulus,
    disc,
    equality_predicate,
    hardy_diagnostic,
    superlevel_constant,
    verify,
    verify_suita,
)
from kernelgauge.gfunctional import SHELL_RADII
from kernelgauge.potential import HarmonicFunctionRep

import golden_values as golden


def _cfg(domain, z0, k=0, p0=1.0, eps=0.0, a_g=0.0, u=None, c=None):
    return WeightConfig(
        domain,
        z0,
        k,
        PsiSpec(p0, eps),
        PhiSpec(a_g, u if u is not None else HarmonicFunctionRep.zero()),
        c if c is not None else CProfile.constant_one(),
    )


DISC_RES = Resolution(basis_schedule=(8, 16), radial_cells=160, angular_cells=96, boundary_nodes=128)
ANN_RES = Resolution(
    basis_schedule=(8, 16, 32), boundary_nodes=512, radial_cells=320, angular_cells=256,
    patch_levels=32,
)


# ---------------------------------------------------------- predicates


def test_equality_predicate_disc():
    pred = equality_predicate(_cfg(disc(), 0.3))
    assert pred.expected and pred.character_distance < 1e-12


def test_equality_predicate_annulus_matched():
    pred = equality_predicate(_cfg(annulus(0.25), 0.5, u=HarmonicFunctionRep.log_mode(-0.5)))
    assert pred.expected


def test_equality_predicate_annulus_plain():
    pred = equality_predicate(_cfg(annulus(0.25), 0.5))
    assert not pred.expected
    assert pred.character_distance == pytest.approx(0.5, abs=1e-10)
    assert pred.flags.green_mass_matches and pred.flags.psi_is_green_multiple


def test_equality_predicate_structural_flags():
    pred = equality_predicate(_cfg(disc(), 0.0, a_g=0.5))
    assert not pred.flags.green_mass_matches and not pred.expected
    pred = equality_predicate(_cfg(disc(), 0.0, eps=0.05))
    assert not pred.flags.psi_is_green_multiple and not pred.expected


# ------------------------------------------------------ verify, k = 0


def test_verify_disc_baseline():
    report = verify(_cfg(disc(), 0.0), DISC_RES)
    assert report.verdict == "pass"
    assert report.ratio == pytest.approx(1.0, abs=1e-5)
    assert report.expected_equality


def test_verify_disc_weighted_profile():
    report = verify(_cfg(disc(), 0.0, c=CProfile.exp_delta(0.6)),
                    Resolution(basis_schedule=(8, 16), radial_cells=256,
                               angular_cells=96, boundary_nodes=128))
    assert report.verdict == "pass"
    assert report.k_value.value == pytest.approx(1.0, abs=1e-8)
    assert report.c_total == pytest.approx(2.5, abs=1e-12)
    assert math.pi * report.b_value.value == pytest.approx(0.4, abs=1e-5)
    assert report.ratio == pytest.approx(1.0, abs=1e-5)


def test_verify_annulus_strict_golden():
    report = verify(_cfg(annulus(0.25), 0.5), ANN_RES)
    assert report.verdict == "pass"
    assert not report.expected_equality
    margin = report.ratio - 1.0
    assert margin == pytest.approx(golden.ANNULUS_STRICT_MARGIN, abs=2e-5)
    assert margin > 10.0 * report.combined_estimate


def test_verify_rejects_bad_config():
    with pytest.raises(InvalidConfig):
        verify(_cfg(disc(), 0.0, k=1), DISC_RES)  # mass arithmetic fails
    with pytest.raises(InvalidConfig):
        verify(_cfg(disc(), 0.0, k=0, p0=1.0, a_g=-3.0), DISC_RES)


# ----------------------------------------------------- verify, k >= 1


def test_verify_higher_disc_k1():
    cfg = _cfg(disc(), 0.0, k=1, p0=2.0)
    report = verify(cfg, Resolution(basis_schedule=(8, 16), radial_cells=192,
                                    angular_cells=96, boundary_nodes=128))
    assert report.verdict == "pass"
    assert report.k_value.value == pytest.approx(2.0, abs=1e-4)
    assert math.pi * report.b_value.value == pytest.approx(2.0, abs=1e-4)
    assert report.route_gap < 1e-8


def test_verify_higher_reduced_density_oracle():
    # Route (ii) on the disc: the k = 1 reduction carries |z|^2, whose
    # Bergman diagonal is 2/pi by the radial moment formula.
    cfg = _cfg(disc(), 0.0, k=1, p0=2.0).reduced()
    from kernelgauge import kernel_diag

    b = kernel_diag(cfg, "bergman", Resolution(basis_schedule=(8, 16), radial_cells=192,
                                               angular_cells=96, boundary_nodes=128))
    assert b.value == pytest.approx(2.0 / math.pi, rel=1e-5)


def test_verify_higher_annulus_matched_and_shifted():
    matched = _cfg(annulus(0.25), 0.5, k=1, p0=2.0)
    report = verify(matched, ANN_RES)
    assert report.verdict == "pass"
    assert report.expected_equality
    assert abs(report.ratio - 1.0) < 1e-4

    shifted = _cfg(annulus(0.25), 0.5, k=1, p0=2.0, u=HarmonicFunctionRep.log_mode(0.3))
    report2 = verify(shifted, ANN_RES)
    assert report2.verdict == "pass"
    assert not report2.expected_equality
    assert report2.ratio - 1.0 == pytest.approx(golden.ANNULUS_K1_SHIFT_MARGIN, abs=3e-5)


def test_verify_higher_disc_k2():
    # psi = 3G at the disc center: the order-2 extremals are z^2 / sqrt(pi/3)
    # (area) and z^2 / sqrt(2 pi / 3) (boundary), so K2 = pi B2 = 3.
    cfg = _cfg(disc(), 0.0, k=2, p0=3.0)
    report = verify(cfg, Resolution(basis_schedule=(8, 16), radial_cells=224,
                                    angular_cells=96, boundary_nodes=128))
    assert report.verdict == "pass"
    assert report.k_value.value == pytest.approx(3.0, abs=1e-4)
    assert math.pi * report.b_value.value == pytest.approx(3.0, abs=1e-4)
    assert abs(report.ratio - 1.0) < 1e-5


def test_verify_poly_profile_equality():
    cfg = _cfg(disc(), 0.0, c=CProfile.poly(1.5))
    report = verify(cfg, Resolution(basis_schedule=(8, 16), radial_cells=256,
                                    angular_cells=96, boundary_nodes=128))
    assert report.verdict == "pass"
    assert abs(report.ratio - 1.0) < 1e-4


# ----------------------------------------------------------- suita chain


def test_suita_disc_center():
    rep = verify_suita(disc(), 0.0, DISC_RES)
    assert rep.verdict == "pass"
    for value in (rep.cbeta_squared, rep.pi_b, rep.k_hat):
        assert value == pytest.approx(1.0, abs=1e-6)


def test_suita_disc_offcenter():
    res = Resolution(basis_schedule=(8, 16, 32), radial_cells=1024, angular_cells=160,
                     boundary_nodes=256)
    rep = verify_suita(disc(), 0.5, res)
    assert rep.verdict == "pass"
    target = 1.0 / (1.0 - 0.25) ** 2
    assert rep.cbeta_squared == pytest.approx(target, rel=1e-6)
    assert rep.pi_b == pytest.approx(target, rel=1e-6)
    assert rep.k_hat == pytest.approx(target, rel=1e-6)


def test_suita_annulus_strict_margins():
    res = Resolution(basis_schedule=(16, 32), boundary_nodes=512, radial_cells=768,
                     angular_cells=320)
    rep = verify_suita(annulus(0.25), 0.5, res)
    assert rep.verdict == "pass"
    assert rep.left_margin == pytest.approx(golden.ANNULUS_SUITA_LEFT, rel=0.05)
    assert rep.right_margin == pytest.approx(golden.ANNULUS_SUITA_RIGHT, rel=1e-3)


# ---------------------------------------------------------- diagnostics


def test_hardy_diagnostic_trends():
    cfg = _cfg(disc(), 0.0)
    res = Resolution(basis_schedule=(8, 16), radial_cells=256, angular_cells=128)
    bounded = hardy_diagnostic(lambda z, rings=None: np.ones(len(z)), cfg, res=res)
    assert bounded.trend == "bounded"
    # ratios pi (1 - r^2)/(1 - r) approach 2 pi from below
    expected = np.pi * (1 + np.array(SHELL_RADII))
    assert np.max(np.abs(bounded.ratios - expected)) < 1e-8
    growing = hardy_diagnostic(lambda z, rings=None: 1.0 / np.abs(1 - z) ** 2, cfg, res=res)
    assert growing.trend == "increasing"


def test_hardy_diagnostic_extremal_section():
    # |F0| extends continuously to the closed annulus, so its shell
    # averages stay bounded.
    from kernelgauge import f0_construct

    cfg = _cfg(annulus(0.25), 0.5, u=HarmonicFunctionRep.log_mode(-0.5))
    f0 = f0_construct(cfg)
    res = Resolution(basis_schedule=(8, 16), boundary_nodes=256, radial_cells=256,
                     angular_cells=192, patch_levels=32)
    diag = hardy_diagnostic(f0.abs2, cfg, res=res)
    assert diag.trend == "bounded"


def test_superlevel_constant_scaling():
    res = Resolution(basis_schedule=(8, 16), radial_cells=160, angular_cells=96)
    c1 = superlevel_constant(_cfg(disc(), 0.0), res=res)
    assert c1 == pytest.approx(1.0, abs=0.02)
    c2 = superlevel_constant(_cfg(disc(), 0.0, p0=2.0), res=res)
    assert c2 == pytest.approx(2.0, abs=0.05)
    c3 = superlevel_constant(_cfg(disc(), 0.0, eps=0.2), res=res)
    assert c3 > 1.0


def test_superlevel_constant_evaluates_green_once(monkeypatch):
    # G and psi on the area rule both read the memo's one evaluation of G,
    # which is the one call of its correction on the rule's rings.
    from kernelgauge.geometry import area_quadrature

    calls = []
    cfg = _cfg(disc(), 0.2, eps=0.2)
    value = HarmonicFunctionRep.value

    def counted(self, z, rings=None):
        # Area rules have theta0 = pi / n_theta; corner grids and boundary rules 0.
        if rings is not None and rings.theta0 != 0.0 and self is cfg.green_rep.correction:
            calls.append(rings.radii.size * rings.n_theta)
        return value(self, z, rings)

    monkeypatch.setattr(HarmonicFunctionRep, "value", counted)
    res = Resolution(basis_schedule=(8, 16), radial_cells=64, angular_cells=48)
    superlevel_constant(cfg, res=res)
    assert calls == [area_quadrature(disc(), 0.2, 64, 48).nodes.size]


def _green_evaluations_on_area_rules(monkeypatch, cfg):
    """The RingGrid of each evaluation of cfg's Green correction on an area rule, in order."""
    import kernelgauge.potential as potential

    area_rings, calls = [], []
    build, value = potential.area_quadrature, HarmonicFunctionRep.value

    def recorded(*args, **kwargs):
        aq = build(*args, **kwargs)
        area_rings.append(aq.rings)
        return aq

    def counted(self, z, rings=None):
        if self is cfg.green_rep.correction and any(rings is r for r in area_rings):
            calls.append(rings)
        return value(self, z, rings)

    monkeypatch.setattr(potential, "area_quadrature", recorded)
    monkeypatch.setattr(HarmonicFunctionRep, "value", counted)
    return area_rings, calls


def test_verify_constant_profile_evaluates_green_on_no_area_rule(monkeypatch):
    # scenarios/annulus_strict.json: psi = G, phi = 0 and constant_one, so
    # rho = exp(-phi) reads no G: neither the Bergman rules nor
    # validate_config's area rule evaluate it.  The boundary rules still
    # read dG/dnu.
    from pathlib import Path

    from kernelgauge.cli import build_config, build_resolution, load_scenario

    doc = load_scenario(Path(__file__).resolve().parents[1] / "scenarios" / "annulus_strict.json")
    cfg = build_config(doc)
    area_rings, calls = _green_evaluations_on_area_rules(monkeypatch, cfg)
    report = verify(cfg, build_resolution(doc, cfg.domain))
    assert report.verdict == "pass"
    assert len(area_rings) == 3  # validate_config's rule, the 1x and the 2x Bergman rules
    assert calls == []


def test_verify_exp_delta_evaluates_green_once_per_rule_read(monkeypatch):
    # exp_delta reads c(-2 psi) on every area rule: G is evaluated once on
    # each, and the order-zero reduction of this k = 1 configuration reads
    # the same rules through the shared Green function.
    cfg = _cfg(annulus(0.25), 0.3 + 0.4j, k=1, p0=1.5, a_g=1.0, c=CProfile.exp_delta(-0.3))
    area_rings, calls = _green_evaluations_on_area_rules(monkeypatch, cfg)
    report = verify(cfg, Resolution(basis_schedule=(8, 16), boundary_nodes=160, radial_cells=80,
                                    angular_cells=80, patch_levels=12))
    assert report.verdict == "pass"
    assert len(area_rings) == 3
    assert len(calls) == 3 and len({id(rings) for rings in calls}) == 3


# ------------------------------------------------------ corpus invariants


CORPUS = [
    _cfg(disc(), 0.0),
    _cfg(disc(), 0.4, c=CProfile.exp_delta(0.3)),
    _cfg(disc(), 0.0, c=CProfile.poly(1.5)),
    _cfg(annulus(0.25), 0.5),
    _cfg(annulus(0.25), 0.5, u=HarmonicFunctionRep.log_mode(-0.5)),
    _cfg(annulus(0.4), -0.6, c=CProfile.exp_delta(-0.5)),
]


@pytest.mark.parametrize("config", CORPUS, ids=[f"cfg{i}" for i in range(len(CORPUS))])
def test_ratio_never_below_one(config):
    # Quadrature refinement stays on so the error estimates are honest;
    # densities singular at an off-center z0 resolve only at the global
    # angular rate and rely on those estimates.
    res = Resolution(
        basis_schedule=(8, 16),
        boundary_nodes=256,
        radial_cells=192,
        angular_cells=256,
        patch_levels=32,
    )
    report = verify(config, res)
    assert report.ratio >= 1.0 - 3.0 * report.combined_estimate - report.tol_eq
    assert report.verdict in ("pass", "inconclusive")


def test_ratio_continuity_minimum_at_match():
    # Sweeping the log coefficient of u across the matched value yields a
    # ratio curve with its minimum at the match.
    res = Resolution(
        basis_schedule=(8, 16), boundary_nodes=256, radial_cells=192, angular_cells=128, patch_levels=32,
    )
    alphas = [0.1, 0.3, 0.5, 0.7, 0.9]
    ratios = []
    for alpha in alphas:
        cfg = _cfg(annulus(0.25), 0.5, u=HarmonicFunctionRep.log_mode(alpha))
        ratios.append(verify(cfg, res).ratio)
    assert np.argmin(ratios) == alphas.index(0.5)
    assert ratios[0] > ratios[1] > ratios[2] < ratios[3] < ratios[4]
