"""Weight configurations: exhaustion psi, twist phi, radial profile c.

A configuration fixes

    psi = p0 * G(., z0) + eps * s,      s <= 0 smooth subharmonic, s = 0 on
                                        the boundary (strictness experiments),
    phi = a_g * G(., z0) + 2 * u,       u a finite harmonic representation,
    rho = exp(-phi) * c(-2 psi),        interior density,
    lam = exp(-phi) * c(0) / (dpsi/dnu) boundary density.

Restricting to this family keeps all mass-at-z0 bookkeeping arithmetic:
the curvature mass of phi + 2 psi at z0 is a_g + 2 p0.  a_g may be
negative; that arises when a higher-derivative problem is reduced to an
order-zero one by moving 2k log|z - z0| out of phi.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from .errors import EvaluationAtPole, InvalidProfile
from .geometry import DomainSpec, RingGrid
from .potential import (
    GreenFunctionRep,
    HarmonicFunctionRep,
    _writable,
    character_distance,
    character_exponent,
    green,
)

_PROFILE_GRID = np.concatenate([[0.0], np.logspace(-6, np.log10(50.0), 999)])


@functools.cache
def _poly_tail_rule() -> tuple[np.ndarray, np.ndarray]:
    """Nodes v and weights of 8 Gauss-Legendre panels of 64 points on [0, 1].

    Panel edges 1 - 2^-j (j = 0..7) and 1 grade the rule toward v = 1, where
    the substitution y = v / (1 - v) of the poly tail sends y to infinity.
    """
    x, w = np.polynomial.legendre.leggauss(64)
    edges = np.append(1.0 - 2.0 ** -np.arange(8.0), 1.0)
    half = 0.5 * np.diff(edges)[:, None]
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    nodes, weights = (mid + half * x).ravel(), (half * w).ravel()
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


@dataclass(frozen=True)
class CProfile:
    """Radial reweighting profile c(t) with c(0) = 1 and c(t)e^-t decreasing.

    Three closed families: constant one, exp_delta with c(t) = e^(delta t)
    (delta < 1), and poly with c(t) = (1 + t)^-m (m > 0).  The first two
    have closed-form tails; poly tails use a fixed Gauss-Legendre rule.
    """

    kind: Literal["constant_one", "exp_delta", "poly"]
    delta: float = 0.0
    m: float = 0.0

    def __post_init__(self):
        if self.kind == "exp_delta" and self.delta >= 1.0:
            raise InvalidProfile(f"c-profile not integrable: delta={self.delta} >= 1")
        if self.kind == "poly" and self.m <= 0.0:
            raise InvalidProfile(f"poly profile needs m > 0, got {self.m}")
        if self.kind not in ("constant_one", "exp_delta", "poly"):
            raise InvalidProfile(f"unknown profile kind {self.kind!r}")

    @staticmethod
    def constant_one() -> "CProfile":
        return CProfile("constant_one")

    @staticmethod
    def exp_delta(delta: float) -> "CProfile":
        return CProfile("exp_delta", delta=delta)

    @staticmethod
    def poly(m: float) -> "CProfile":
        return CProfile("poly", m=m)

    def c(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "constant_one":
            return np.ones_like(t)
        if self.kind == "exp_delta":
            return np.exp(self.delta * t)
        return (1.0 + t) ** (-self.m)

    def h(self, t):
        """Tail integral of c(s) e^-s over [t, infinity)."""
        if self.kind == "constant_one":
            return np.exp(-np.asarray(t, dtype=float))
        if self.kind == "exp_delta":
            return np.exp((self.delta - 1.0) * np.asarray(t, dtype=float)) / (1.0 - self.delta)
        # s = t + (1 + t) y, then y = v / (1 - v):
        # h(t) = e^-t (1+t)^(1-m) int_0^1 (1-v)^(m-2) exp(-(1+t) v/(1-v)) dv.
        scalar = np.isscalar(t)
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        v, w = _poly_tail_rule()
        integrand = (1.0 - v) ** (self.m - 2.0) * np.exp(-np.multiply.outer(1.0 + ts, v / (1.0 - v)))
        out = np.exp(-ts) * (1.0 + ts) ** (1.0 - self.m) * (integrand @ w)
        return float(out[0]) if scalar else out

    @property
    def total(self) -> float:
        """Full integral of c(t) e^-t over [0, infinity)."""
        return float(self.h(0.0))

    def grid_monotone_defect(self) -> float:
        """Largest increase of c(t)e^-t along a log-spaced sample grid."""
        vals = self.c(_PROFILE_GRID) * np.exp(-_PROFILE_GRID)
        return float(np.max(np.diff(vals), initial=0.0))


@dataclass(frozen=True)
class PsiSpec:
    """psi = p0 * G(., z0) + eps * s with the fixed boundary-flat bump s."""

    p0: float
    eps: float = 0.0

    def __post_init__(self):
        if self.p0 <= 0.0:
            raise ValueError("p0 must be positive")
        if self.eps < 0.0:
            raise ValueError("eps must be nonnegative")


@dataclass(frozen=True)
class PhiSpec:
    """phi = a_g * G(., z0) + 2u; u defaults to zero."""

    a_g: float = 0.0
    u: HarmonicFunctionRep = field(default_factory=HarmonicFunctionRep.zero)


def _bump_log_coefficient(domain: DomainSpec) -> float:
    if domain.kind == "disc":
        return 0.0
    return (domain.q**2 - 1.0) / math.log(domain.q)


class WeightConfig:
    """Immutable bundle of domain, base point, order and weight data.

    green_rep is the Green function of the domain with pole z0, built here
    unless given.  Configurations that share one (the points of a sweep,
    a configuration and its `reduced` form) share its memo of rules and of
    G on their nodes (see `potential.GreenFunctionRep`).
    """

    def __init__(
        self,
        domain: DomainSpec,
        z0: complex,
        k: int,
        psi: PsiSpec,
        phi: PhiSpec,
        c: CProfile,
        green_rep: GreenFunctionRep | None = None,
    ):
        if k < 0:
            raise ValueError("derivative order k must be nonnegative")
        if not domain.contains(z0, margin=1e-9):
            raise ValueError(f"base point {z0} not interior")
        if green_rep is not None and (green_rep.domain != domain or green_rep.pole != complex(z0)):
            raise ValueError("green_rep must be the Green function of this domain with pole z0")
        self.domain = domain
        self.z0 = complex(z0)
        self.k = int(k)
        self.psi = psi
        self.phi = phi
        self.c = c
        self.green_rep = green_rep if green_rep is not None else green(domain, self.z0)
        self._bump_b = _bump_log_coefficient(domain)

    # -- potential-theoretic data ------------------------------------

    def bump(self, z):
        """The fixed perturbation s(z) <= 0, vanishing on the boundary."""
        z = np.asarray(z, dtype=complex)
        r2 = np.abs(z) ** 2
        if self.domain.kind == "disc":
            return r2 - 1.0
        return r2 - 1.0 - self._bump_b * np.log(np.abs(z))

    def bump_radial_derivative(self, z):
        z = np.asarray(z, dtype=complex)
        r = np.abs(z)
        return 2.0 * r - self._bump_b / r

    # Every evaluator below takes the rule's RingGrid as `rings` when its
    # points are that rule's ring-major nodes; the Laurent parts are then
    # summed ring by ring (see potential.LaurentSeries).  On the nodes of a
    # rule from green_rep's memo, G is the memo's table, evaluated on its
    # first read.

    def psi_value(self, z, rings: RingGrid | None = None):
        return self._psi_from(z, self.green_rep.value(z, rings))

    def _psi_from(self, z, g):
        """psi at z from G there."""
        val = self.psi.p0 * g
        if self.psi.eps:
            val = val + self.psi.eps * self.bump(z)
        return val

    def two_psi(self, z, rings: RingGrid | None = None):
        return 2.0 * self.psi_value(z, rings)

    def dpsi_dnu(self, zeta, signs, rings: RingGrid | None = None):
        """Outward normal derivative of psi at boundary nodes."""
        val = self.psi.p0 * self.green_rep.normal_derivative(zeta, signs, rings)
        if self.psi.eps:
            val = val + self.psi.eps * np.asarray(signs, dtype=float) * self.bump_radial_derivative(zeta)
        return val

    def phi_value(self, z, rings: RingGrid | None = None):
        g = self.green_rep.value(z, rings) if self.phi.a_g != 0.0 else None
        return self._phi_from(z, rings, g)

    def _phi_from(self, z, rings: RingGrid | None, g):
        """phi at z from G there, which is read only when a_g != 0."""
        val = self.phi.u.value(z, rings)
        val *= 2.0
        if self.phi.a_g != 0.0:
            val += self.phi.a_g * g
        return val

    # -- densities -----------------------------------------------------

    def rho(self, z, rings: RingGrid | None = None):
        """Interior density exp(-phi) c(-2 psi), and its limit at z0 itself (see `_limit_at_z0`)."""
        # Where G is read, it is -inf at z0 and the two factors may give inf * 0.
        reads_g = self.c.kind != "constant_one" or self.phi.a_g != 0.0
        at_z0 = np.asarray(z) == self.z0 if reads_g else False
        if not np.any(at_z0):
            return self._reweighted(self.c, z, rings)
        out = np.full(at_z0.shape, self._limit_at_z0())
        out[~at_z0] = self._reweighted(self.c, np.asarray(z)[~at_z0])  # no rule's nodes: they never hit z0
        return out

    def _limit_at_z0(self) -> float:
        """The limit of rho at z0: inf when beta < 0, 0 when beta > 0 or on poly, and
        exp(-2u) c(-2 eps s) at beta = 0, where a_g G and 2 p0 delta G cancel."""
        beta = self._z0_exponent()
        if beta < 0.0:
            return math.inf
        if beta > 0.0 or self.c.kind == "poly":
            return 0.0
        at = np.array([self.z0])
        return float((np.exp(-2.0 * self.phi.u.value(at)) * self.c.c(-2.0 * self.psi.eps * self.bump(at)))[0])

    def _reweighted(self, profile: CProfile, z, rings: RingGrid | None = None, factor=None):
        """factor * exp(-phi) * profile.c(-2 psi), multiplied left to right (factor None: left out).

        G is evaluated (or read from the memo) at most once, and not at
        all on constant_one with a_g = 0: c is exactly 1 there, so
        c(-2 psi) is left out.
        """
        reads_psi = profile.kind != "constant_one"
        g = self.green_rep.value(z, rings) if reads_psi or self.phi.a_g != 0.0 else None
        out = self._phi_from(z, rings, g)
        out = np.negative(out, out=_writable(out))
        out = np.exp(out, out=_writable(out))
        if factor is not None:
            out *= factor
        if reads_psi:
            out *= profile.c(-(2.0 * self._psi_from(z, g)))
        return out

    def boundary_lambda(self, zeta, signs, rings: RingGrid | None = None):
        """Boundary density exp(-phi) c(0) / (dpsi/dnu)."""
        return np.exp(-self.phi_value(zeta, rings)) / self.dpsi_dnu(zeta, signs, rings)

    def _z0_exponent(self) -> float:
        """beta with rho = |z - z0|^(2 beta) times a factor bounded away from 0 and infinity near z0.

        Near z0, G = log|z - z0| + smooth and c(-2 psi) = exp(-2 delta psi)
        on exp_delta (delta = 0 on constant_one and poly), so beta = -(a_g +
        2 p0 delta) / 2, snapped to an integer within 1e-12.  On poly the
        factor also carries a negative power of log|z - z0|, which tends to 0.
        """
        delta = self.c.delta if self.c.kind == "exp_delta" else 0.0
        beta = -0.5 * (self.phi.a_g + 2.0 * self.psi.p0 * delta)
        nearest = round(beta)
        return float(nearest) if abs(beta - nearest) <= 1e-12 else beta

    def density_smooth_at_z0(self) -> bool:
        """Whether rho is |z - z0|^(2 beta) times a smooth factor near z0, beta a nonnegative integer.

        poly profiles carry a power of log|z - z0| and are never smooth there.
        """
        beta = self._z0_exponent()
        return self.c.kind != "poly" and beta >= 0.0 and beta.is_integer()

    def density_unbounded_at_z0(self) -> bool:
        """Whether rho grows without bound at z0: beta < 0."""
        return self._z0_exponent() < 0.0

    # -- characters ------------------------------------------------------

    @property
    def alpha_z0(self) -> float:
        return character_exponent(self.domain, self.green_rep)

    @property
    def alpha_u(self) -> float:
        return character_exponent(self.domain, self.phi.u)

    def character_mismatch(self) -> float:
        """Distance of (k+1) alpha_z0 + alpha_u from 0 mod 1."""
        total = (self.k + 1) * self.alpha_z0 + self.alpha_u
        return character_distance(total)

    # -- shape predicates and reduction -----------------------------------

    def green_mass(self) -> float:
        """Curvature mass of phi + 2 psi at z0: a_g + 2 p0."""
        return self.phi.a_g + 2.0 * self.psi.p0

    def has_equality_shape(self) -> bool:
        return (
            abs(self.green_mass() - 2.0 * (self.k + 1)) < 1e-12
            and self.psi.eps == 0.0
        )

    def reduced(self) -> "WeightConfig":
        """Order-zero configuration with |z - z0|^(2k) moved into the density.

        Subtracting 2k log|z - z0| = 2k (G - H) from phi lowers the Green
        multiple by 2k and adds k copies of the harmonic correction H to u.
        """
        if self.k == 0:
            return self
        h_corr = self.green_rep.correction
        return WeightConfig(
            self.domain,
            self.z0,
            0,
            self.psi,
            PhiSpec(self.phi.a_g - 2.0 * self.k, self.phi.u + h_corr.scaled(float(self.k))),
            self.c,
            self.green_rep,
        )


def rho_lambda_eval(config: WeightConfig, z: complex) -> float:
    """Density at a single point: rho inside, lambda on the boundary.

    Boundary membership is detected by |z| matching a component radius to
    1e-12.  Exactly at z0, rho is its limit there, and asking for it raises
    when the density is unbounded there (beta < 0).
    """
    r = abs(z)
    for comp_index, radius in enumerate(config.domain.component_radii):
        if abs(r - radius) < 1e-12:
            sign = 1.0 if comp_index == 0 else -1.0
            return float(config.boundary_lambda(np.array([z]), np.array([sign]))[0])
    if z == config.z0 and config.density_unbounded_at_z0():
        raise EvaluationAtPole(f"density unbounded at z0={config.z0}")
    return float(config.rho(np.array([z]))[0])


@dataclass(frozen=True)
class ConfigCheck:
    name: str
    passed: bool
    measured: float
    detail: str


def validate_config(config: WeightConfig) -> list[ConfigCheck]:
    """Admissibility checks; returns per-check results, raises nothing."""
    checks: list[ConfigCheck] = []

    defect = config.c.grid_monotone_defect()
    c0 = float(config.c.c(0.0))
    total = config.c.total
    ok = defect <= 1e-12 and abs(c0 - 1.0) <= 1e-12 and math.isfinite(total)
    checks.append(
        ConfigCheck(
            "c_profile_admissible",
            ok,
            defect,
            f"c(0)={c0:.6g}, total={total:.6g}, monotone defect={defect:.3e}",
        )
    )

    mass = config.green_mass()
    need = 2.0 * (config.k + 1)
    checks.append(
        ConfigCheck(
            "mass_at_z0",
            mass >= need - 1e-12,
            mass,
            f"a_g + 2 p0 = {mass:.6g}, needs >= {need:.6g} for k={config.k}",
        )
    )

    bq = config.green_rep.boundary_rule(128)
    trace = float(np.max(np.abs(config.psi_value(bq.nodes, bq.rings))))
    flux = config.dpsi_dnu(bq.nodes, bq.normal_signs, bq.rings)
    min_flux = float(np.min(flux))
    checks.append(
        ConfigCheck(
            "psi_boundary_trace",
            trace <= 1e-8,
            trace,
            f"max |psi| on boundary nodes = {trace:.3e}",
        )
    )
    checks.append(
        ConfigCheck(
            "psi_normal_derivative_positive",
            min_flux > 0.0,
            min_flux,
            f"min dpsi/dnu on boundary nodes = {min_flux:.6g}",
        )
    )

    aq = config.green_rep.area_rule(96, 96, 12)
    rho_vals = config.rho(aq.nodes, aq.rings)
    min_rho = float(np.min(rho_vals))
    finite = bool(np.all(np.isfinite(rho_vals)))
    checks.append(
        ConfigCheck(
            "rho_positive",
            min_rho > 0.0 and finite,
            min_rho,
            f"min rho on area nodes = {min_rho:.6g}, finite={finite}",
        )
    )
    return checks
