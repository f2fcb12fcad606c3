"""Minimal L2 integrals on sublevel regions and the extremal section.

The curve t -> G_up(t) is the minimum of the weighted square integral
over the sublevel region {2 psi < -t} among Laurent-basis functions with
a prescribed jet at z0.  Restricting competitors to the ambient basis
makes every sample an upper bound for the true minimal integral; it is
exact at t = 0 and, for configurations in the extremal family, on every
sublevel set (the global minimizer restricts).

The extremal section is assembled from single-valued derivative data:

    F0(z) = c0 * (z - z0)^k * [(z - z0) h'(z)] * exp(W(z)),

where h' = 2 dG/dz has residue 1 at z0 and W is a primitive of the
analytic derivative of (k+1) H + u (H the regular part of the Green
function).  |F0| needs no path integration; complex values integrate W'
along fixed radial-then-angular paths from a real base point.  The
multiplier picked up by continuing exp(W) once around the hole measures
the character mismatch; it equals 1 exactly in matched configurations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BranchInconsistency, EmptySublevel, NotEqualityShape
from .geometry import AreaQuadrature, MaskedQuadrature, boundary_quadrature, mask_quadrature
from .kernels import BasisDescriptor, Measure, Resolution, area_quadrature_for, gram, side_measure
from .kernels import _dense_gram
from .numerics import constrained_min
from .potential import HarmonicFunctionRep, LaurentSeries, PoleDerivative
from .weights import CProfile, WeightConfig

_TWO_PI = 2.0 * np.pi
_GAUSS_NODES = 48
_MONODROMY_NODES = 1024


def _masked_measure(config: WeightConfig, aq: AreaQuadrature, t: float, keep: str) -> MaskedQuadrature:
    if t == 0.0 and keep == "below":
        # psi < 0 on the open domain, so the t = 0 sublevel set is everything.
        return MaskedQuadrature(aq.nodes, aq.weights)
    return mask_quadrature(aq, config.two_psi, -t, keep=keep)


def _sublevel_range_check(config: WeightConfig, aq: AreaQuadrature, t: float) -> None:
    if t < 0.0:
        raise ValueError("t must be nonnegative")
    if t > 0.0:
        top = float(np.max(-config.two_psi(aq.nodes)))
        if t >= top:
            raise EmptySublevel(f"t={t} exceeds max(-2 psi)={top:.6g} on the grid")


def g_of_t(
    config: WeightConfig,
    t: float,
    res: Resolution | None = None,
    aq: AreaQuadrature | None = None,
) -> float:
    """Upper bound for the minimal weighted integral over {2 psi < -t}.

    Minimizes the integral of |f|^2 exp(-phi) c(-2 psi) over basis
    functions with f(z0) = 1 (for k = 0; order-k jets otherwise) using
    the area quadrature masked to the sublevel region.
    """
    if res is None:
        res = Resolution.for_domain(config.domain)
    if aq is None:
        aq = area_quadrature_for(config, res)
    _sublevel_range_check(config, aq, t)
    masked = _masked_measure(config, aq, t, "below")
    basis = BasisDescriptor.create(config.domain, res.n_max, config.z0, config.k)
    # Masked rules carry no rings.  Calling the dense assembly directly keeps
    # kgbench's kernels.gram layer to the Grams of kernel diagonals.
    measure = Measure("area", masked.nodes, masked.weights * config.rho(masked.nodes))
    return constrained_min(_dense_gram(basis, measure), basis.constraints()).value


@dataclass(frozen=True)
class GCurve:
    """Samples of the minimal-integral curve and its shape diagnostics."""

    t: np.ndarray
    g_upper: np.ndarray
    r: np.ndarray                 # transformed abscissa h(t)
    linear_residual: float        # max |G_up(t) - G(0) h(t)/h(0)|
    concavity_defect: float       # max slope increase in the r variable

    @property
    def g0(self) -> float:
        return float(self.g_upper[0])


def g_curve(config: WeightConfig, t_grid, res: Resolution | None = None) -> GCurve:
    """Sample G_up on a grid starting at 0 and fit the linear prediction.

    In extremal-family configurations the curve is linear in r = h(t)
    through (h(0), G(0)) and (0, 0); the residual against that line is
    the linearity diagnostic.  Since samples at t > 0 are upper bounds,
    a positive concavity defect is reported, not raised.
    """
    t_grid = np.asarray(list(t_grid), dtype=float)
    if t_grid[0] != 0.0 or np.any(np.diff(t_grid) <= 0.0):
        raise ValueError("t grid must increase from 0")
    if res is None:
        res = Resolution.for_domain(config.domain)
    aq = area_quadrature_for(config, res)
    values = np.array([g_of_t(config, float(t), res, aq) for t in t_grid])
    r = np.asarray(config.c.h(t_grid), dtype=float)
    g0 = values[0]
    predicted = g0 * r / r[0]
    linear_residual = float(np.max(np.abs(values - predicted)))
    slopes = np.diff(values) / np.diff(r)
    concavity_defect = float(np.max(np.diff(slopes), initial=0.0))
    return GCurve(t_grid, values, r, linear_residual, concavity_defect)


_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(_GAUSS_NODES)


def _gauss_segment(f, a: complex, b: complex) -> complex:
    """Gauss-Legendre integral of f along the straight segment [a, b]."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    pts = mid + half * _GAUSS_X
    return half * np.sum(_GAUSS_W * f(pts))


def _gauss_arc(f, radius: float, th_a: float, th_b: float) -> complex:
    """Gauss-Legendre integral of f along the circular arc r e^{i theta}."""
    mid = 0.5 * (th_a + th_b)
    half = 0.5 * (th_b - th_a)
    th = mid + half * _GAUSS_X
    pts = radius * np.exp(1j * th)
    return half * np.sum(_GAUSS_W * f(pts) * 1j * pts)


@dataclass(frozen=True)
class ExtremalFunction:
    """Normalized extremal section of an equality-family configuration."""

    config: WeightConfig
    pole_derivative: PoleDerivative       # h' with residue-1 pole at z0
    exponent_rep: HarmonicFunctionRep     # harmonic exponent V = (k+1) H + u
    exponent_derivative: LaurentSeries    # W' = 2 dV/dz
    base_point: complex
    base_value: float                     # V at the base point
    log_c0: complex                       # -log A(z0); normalizer
    monodromy_defect: float

    def abs2(self, z) -> np.ndarray:
        """|F0|^2, computed without path integration."""
        z = np.asarray(z, dtype=complex)
        k = self.config.k
        pf = self.pole_derivative.pole_factor(z)
        v = self.exponent_rep.value(z)
        mod2 = np.abs(z - self.config.z0) ** (2 * k) * np.abs(pf) ** 2 * np.exp(2.0 * v)
        return mod2 * np.exp(2.0 * np.real(self.log_c0))

    def _exp_primitive(self, z, order: str = "radial_first") -> np.ndarray:
        """exp(W(z)) via the fixed base-point path, vectorized over z."""
        z = np.asarray(z, dtype=complex)
        flat = z.ravel()
        out = np.empty(flat.shape, dtype=complex)
        rb = float(np.real(self.base_point))
        for i, zi in enumerate(flat):
            r = abs(zi)
            th = float(np.angle(zi))
            if order == "radial_first":
                seg = _gauss_segment(self.exponent_derivative, rb, r)
                arc = _gauss_arc(self.exponent_derivative, r, 0.0, th)
            else:
                arc = _gauss_arc(self.exponent_derivative, rb, 0.0, th)
                seg = _gauss_segment(
                    self.exponent_derivative, rb * np.exp(1j * th), r * np.exp(1j * th)
                )
            out[i] = np.exp(self.base_value + seg + arc)
        return out.reshape(z.shape)

    def value(self, z, order: str = "radial_first") -> np.ndarray:
        """F0(z) including phase; path-integrated."""
        z = np.asarray(z, dtype=complex)
        k = self.config.k
        pf = self.pole_derivative.pole_factor(z)
        return (
            np.exp(self.log_c0)
            * (z - self.config.z0) ** k
            * pf
            * self._exp_primitive(z, order)
        )


def f0_construct(config: WeightConfig, branch_probes: int = 8) -> ExtremalFunction:
    """Assemble the extremal section and measure its loop multiplier.

    Requires the equality shape phi + 2 psi = 2(k+1) G + 2u with
    psi = p0 G (character matching is reported, not required).  The
    multiplier of exp(W) around |z| = sqrt(q) is measured by contour
    quadrature; its distance from 1 is the monodromy defect.
    """
    if not config.has_equality_shape():
        raise NotEqualityShape(
            f"a_g + 2 p0 = {config.green_mass():.6g} != {2 * (config.k + 1)} "
            f"or eps = {config.psi.eps} != 0"
        )
    green_rep = config.green_rep
    h_prime = green_rep.derivative()
    v_rep = green_rep.correction.scaled(float(config.k + 1)) + config.phi.u
    w_prime = v_rep.analytic_derivative().series

    if config.domain.kind == "annulus":
        base = complex(0.5 * (1.0 + config.domain.q))
        s_c = math.sqrt(config.domain.q)
        theta = _TWO_PI * np.arange(_MONODROMY_NODES) / _MONODROMY_NODES
        zeta = s_c * np.exp(1j * theta)
        loop = np.sum(w_prime(zeta) * 1j * zeta) * (_TWO_PI / _MONODROMY_NODES)
        defect = float(abs(np.exp(loop) - 1.0))
    else:
        base = complex(0.5)
        defect = 0.0

    base_value = float(v_rep.value(base))
    partial = ExtremalFunction(
        config=config,
        pole_derivative=h_prime,
        exponent_rep=v_rep,
        exponent_derivative=w_prime,
        base_point=base,
        base_value=base_value,
        log_c0=0.0,
        monodromy_defect=defect,
    )
    a_z0 = complex(partial._exp_primitive(np.array([config.z0]))[0])
    f0 = ExtremalFunction(
        config=config,
        pole_derivative=h_prime,
        exponent_rep=v_rep,
        exponent_derivative=w_prime,
        base_point=base,
        base_value=base_value,
        log_c0=-np.log(a_z0),
        monodromy_defect=defect,
    )
    if defect < 1e-8 and config.domain.kind == "annulus":
        rng_t = np.linspace(0.3, 5.9, branch_probes)
        radius = 0.5 * (math.sqrt(config.domain.q) + 1.0)
        probes = radius * np.exp(1j * rng_t)
        v1 = f0.value(probes, order="radial_first")
        v2 = f0.value(probes, order="angular_first")
        gap = float(np.max(np.abs(v1 - v2) / np.maximum(np.abs(v1), 1e-300)))
        if gap > 1e-8:
            raise BranchInconsistency(
                f"single-valued section differs between paths by {gap:.3e}"
            )
    return f0


@dataclass(frozen=True)
class ShellIdentity:
    lhs: float
    rhs: float
    relative_gap: float


def shell_identity_check(
    config: WeightConfig,
    a_profile: CProfile,
    t1: float,
    t2: float,
    f0: ExtremalFunction | None = None,
    res: Resolution | None = None,
) -> ShellIdentity:
    """Compare the shell integral of |F0|^2 exp(-phi) a(-2 psi) with its
    predicted value G(0)/I(c) * integral of a(t) e^-t over [t2, t1]."""
    if not (t1 > t2 >= 0.0):
        raise ValueError("need t1 > t2 >= 0")
    if res is None:
        res = Resolution.for_domain(config.domain)
    if f0 is None:
        f0 = f0_construct(config)
    aq = area_quadrature_for(config, res)

    def band_integral(threshold_t: float) -> float:
        masked = _masked_measure(config, aq, threshold_t, "below")
        dens = (
            f0.abs2(masked.nodes)
            * np.exp(-config.phi_value(masked.nodes))
            * a_profile.c(-config.two_psi(masked.nodes))
        )
        return masked.integrate(dens)

    lhs = band_integral(t2)
    if math.isfinite(t1):
        _sublevel_range_check(config, aq, t1)
        lhs -= band_integral(t1)
        tail_hi = float(a_profile.h(t1))
    else:
        tail_hi = 0.0
    g0 = g_of_t(config, 0.0, res, aq)
    rhs = g0 / config.c.total * (float(a_profile.h(t2)) - tail_hi)
    gap = abs(lhs - rhs) / max(abs(rhs), 1e-300)
    return ShellIdentity(lhs, rhs, gap)


@dataclass(frozen=True)
class BoundaryLimit:
    r_values: np.ndarray
    shell_ratios: np.ndarray
    boundary_value: float
    extrapolated_gap: float


def boundary_limit_check(
    config: WeightConfig,
    f_abs2: Callable[[np.ndarray], np.ndarray],
    r_values=(0.9, 0.95, 0.975, 0.99),
    res: Resolution | None = None,
) -> BoundaryLimit:
    """Shell averages of |F|^2 rho against the boundary quantity.

    ratio(r) = integral over {2 psi >= log r} of |F|^2 rho, divided by
    the integral of c(t) e^-t over [0, -log r]; as r -> 1 this tends to
    (1/2) * contour integral of |F|^2 exp(-phi) / (dpsi/dnu).  The gap is
    measured after linear extrapolation in (1 - r).
    """
    if res is None:
        res = Resolution.for_domain(config.domain)
    aq = area_quadrature_for(config, res)
    r_values = np.asarray(list(r_values), dtype=float)
    ratios = []
    for r in r_values:
        masked = _masked_measure(config, aq, -math.log(r), "above")
        num = masked.integrate(f_abs2(masked.nodes) * config.rho(masked.nodes))
        den = config.c.total - float(config.c.h(-math.log(r)))
        ratios.append(num / den)
    ratios = np.array(ratios)
    bq = boundary_quadrature(config.domain, res.boundary_nodes)
    lam = config.boundary_lambda(bq.nodes, bq.normal_signs)
    boundary_value = 0.5 * float(np.sum(bq.weights * f_abs2(bq.nodes) * lam))
    if len(ratios) >= 2:
        x = 1.0 - r_values
        slope = (ratios[-1] - ratios[-2]) / (x[-1] - x[-2])
        extrapolated = ratios[-1] - slope * x[-1]
    else:
        extrapolated = ratios[-1]
    gap = abs(float(extrapolated) - boundary_value)
    return BoundaryLimit(r_values, ratios, boundary_value, gap)


def minimizer_orthogonality_residual(
    config: WeightConfig,
    competitor_coeffs: np.ndarray,
    res: Resolution | None = None,
) -> float:
    """Pythagoras check: the t=0 minimizer F is orthogonal to f - F for
    any competitor f with the same jet; returns the normalized residual."""
    if res is None:
        res = Resolution.for_domain(config.domain)
    basis = BasisDescriptor.create(config.domain, res.n_max, config.z0, config.k)
    matrix = gram(basis, side_measure(config, "bergman", res))
    result = constrained_min(matrix, basis.constraints())
    c_f = result.minimizer
    c_d = np.asarray(competitor_coeffs, dtype=complex) - c_f
    inner = complex(c_d.conj() @ (matrix.entries @ c_f))
    norm_f = math.sqrt(max(float(np.real(c_f.conj() @ (matrix.entries @ c_f))), 1e-300))
    norm_d = math.sqrt(max(float(np.real(c_d.conj() @ (matrix.entries @ c_d))), 1e-300))
    return abs(inner) / (norm_f * norm_d)
