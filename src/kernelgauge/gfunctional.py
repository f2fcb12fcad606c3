"""Minimal L2 integrals on sublevel regions, the extremal section and level-set diagnostics.

The curve t -> G_up(t) is the minimum of the weighted square integral
over the sublevel region {2 psi < -t} among Laurent-basis functions with
a prescribed jet at z0.  Restricting competitors to the ambient basis
makes every sample an upper bound for the true minimal integral; it is
exact at t = 0 and, for configurations in the extremal family, on every
sublevel set (the global minimizer restricts).

The extremal section is written in closed form:

    F0(z) = c0 * (z - z0)^k * [(z - z0) h'(z)] * exp(W(z)),

where h' = 2 dG/dz has residue 1 at z0 and W is the analytic completion
of V = (k+1) H + u (H the regular part of the Green function).  V is
stored as alpha log|z| + Re S(z) with S a Laurent series, so
W = S + alpha Log z, taken on the principal branch of Log; c0 = exp(-W(z0)).
|F0| reads V and is single valued.  Continuing exp(W) once around the
hole multiplies it by exp(2 pi i alpha); the distance of that multiplier
from 1, 2 sin(pi d) with d the distance of alpha to the nearest integer,
measures the character mismatch.  It is taken from d, so it rounds as d
does and is 0 in matched configurations whenever d is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Literal

import numpy as np

from .errors import EmptySublevel, NotEqualityShape
from .geometry import AreaQuadrature, MaskedQuadrature, RingGrid, mask_quadrature
from .kernels import (
    BasisDescriptor,
    Resolution,
    _moment_gram,
    area_quadrature_for,
    side_measure,
)
from .numerics import HermitianMatrix, constrained_min
from .potential import HarmonicFunctionRep, PoleDerivative, character_distance
from .weights import CProfile, WeightConfig

# The radii r of the shell checks' superlevel sets, approaching the boundary.
SHELL_RADII = (0.9, 0.95, 0.975, 0.99)
_SUPERLEVEL_T0 = 0.25      # largest t of the superlevel constant
_SUPERLEVEL_POINTS = 8     # t samples of the superlevel constant, evenly up to its t0


def _sublevel_masks(config: WeightConfig, aq: AreaQuadrature, ts, keep: str) -> list[MaskedQuadrature]:
    """aq masked to {2 psi < -t} (keep "above": {2 psi >= -t}), one rule per t, by one mask call.

    Below, every t must be nonnegative and the largest below max(-2 psi)
    on the nodes; the t = 0 rule is the whole of aq, with no mask.
    """
    if keep == "below" and min(ts) < 0.0:
        raise ValueError("t must be nonnegative")
    if keep == "below" and max(ts) > 0.0:
        top = float(np.max(-config.two_psi(aq.nodes, aq.rings)))
        if max(ts) >= top:
            raise EmptySublevel(f"t={max(ts)} exceeds max(-2 psi)={top:.6g} on the grid")

    cut = [t for t in ts if t != 0.0 or keep != "below"]
    masked = dict(zip(cut, mask_quadrature(aq, config.two_psi, [-t for t in cut], keep))) if cut else {}
    # psi < 0 on the open domain, so the t = 0 sublevel set is everything.
    whole = MaskedQuadrature(
        aq, np.ones(aq.weights.size, dtype=bool), np.empty(0, dtype=complex), np.empty(0), np.empty(0, dtype=int)
    )
    return [masked.get(t, whole) for t in ts]


def _sublevel_integrals(config: WeightConfig, res: Resolution, density, ts, keep: str) -> list[float]:
    """Integral of density over the config's area rule masked as `_sublevel_masks` masks it, one per t.

    density is called as density(z, rings) with the level-field protocol
    of `mask_quadrature`: once on the area rule's nodes, and once on each
    rule's clipped pieces.
    """
    aq = area_quadrature_for(config, res)
    on_parent = density(aq.nodes, aq.rings)
    return [masked.integrate(on_parent, density(masked.nodes)) for masked in _sublevel_masks(config, aq, ts, keep)]


def _masked_gram(
    config: WeightConfig, basis: BasisDescriptor, aq: AreaQuadrature, rho, masked: MaskedQuadrature
) -> HermitianMatrix:
    """Gram of the basis under rho on a rule masked from aq; rho is given on aq's nodes.

    The whole cells are aq's rings under rho, 0 off the kept cells, and
    the clipped pieces lie on aq's angle midlines, so both go into one
    table of radial moments (`kernels._moment_gram`).  It is a private
    helper of `kernels.gram`, which kgbench counts for kernel diagonals
    alone.
    """
    rings = aq.rings
    whole = np.where(masked.kept, aq.weights * rho, 0.0).reshape(len(rings.radii), rings.n_theta)
    pieces = (np.abs(masked.nodes), masked.angle, masked.weights * config.rho(masked.nodes))
    return _moment_gram(basis, rings, whole, pieces, memo=config.green_rep)


def _sublevel_minima(config: WeightConfig, ts, res: Resolution) -> list[float]:
    """G_up at every t of ts: the masks, the basis and rho on the area rule are built once for all of them."""
    aq = area_quadrature_for(config, res)
    masks = _sublevel_masks(config, aq, ts, "below")
    basis = BasisDescriptor.create(config.domain, res.n_max, config.z0, config.k)
    constraints = basis.constraints()
    rho = config.rho(aq.nodes, aq.rings)
    values = []
    while masks:  # each rule is dropped once its Gram is formed
        gram_t = _masked_gram(config, basis, aq, rho, masks.pop(0))
        values.append(constrained_min(gram_t, constraints).value)
    return values


def g_of_t(config: WeightConfig, t: float, res: Resolution | None = None) -> float:
    """Upper bound for the minimal weighted integral over {2 psi < -t}.

    Minimizes the integral of |f|^2 exp(-phi) c(-2 psi) over basis
    functions with f(z0) = 1 (for k = 0; order-k jets otherwise) using
    the area quadrature masked to the sublevel region.
    """
    if res is None:
        res = Resolution.for_domain(config.domain)
    return _sublevel_minima(config, [t], res)[0]


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
    values = np.array(_sublevel_minima(config, t_grid, res))
    r = np.asarray(config.c.h(t_grid), dtype=float)
    g0 = values[0]
    predicted = g0 * r / r[0]
    linear_residual = float(np.max(np.abs(values - predicted)))
    slopes = np.diff(values) / np.diff(r)
    concavity_defect = float(np.max(np.diff(slopes), initial=0.0))
    return GCurve(t_grid, values, r, linear_residual, concavity_defect)


@dataclass(frozen=True)
class ExtremalFunction:
    """Normalized extremal section of an equality-family configuration."""

    config: WeightConfig
    pole_derivative: PoleDerivative       # h' with residue-1 pole at z0
    exponent_rep: HarmonicFunctionRep     # harmonic exponent V = (k+1) H + u
    log_c0: complex                       # -W(z0); normalizer
    monodromy_defect: float

    def abs2(self, z, rings: RingGrid | None = None) -> np.ndarray:
        """|F0|^2 = |z - z0|^(2k) |(z - z0) h'|^2 exp(2V + 2 Re log_c0).

        It reads V itself rather than Re W, so it is single valued and
        takes the rule's rings; it equals |value(z)|^2.
        """
        z = np.asarray(z, dtype=complex)
        k = self.config.k
        pf = self.pole_derivative.pole_factor(z, rings)
        v = self.exponent_rep.value(z, rings)
        mod2 = np.abs(z - self.config.z0) ** (2 * k) * np.abs(pf) ** 2 * np.exp(2.0 * v)
        return mod2 * np.exp(2.0 * np.real(self.log_c0))

    def _exponent(self, z) -> np.ndarray:
        """W(z) = S(z) + alpha Log z, principal branch, cut along the negative axis."""
        rep = self.exponent_rep
        w = rep.series(z)
        return w + rep.alpha_log * np.log(z) if rep.alpha_log != 0.0 else w

    def value(self, z) -> np.ndarray:
        """F0(z) including phase, on the principal branch of Log z."""
        z = np.asarray(z, dtype=complex)
        k = self.config.k
        pf = self.pole_derivative.pole_factor(z)
        return np.exp(self.log_c0 + self._exponent(z)) * (z - self.config.z0) ** k * pf


def f0_construct(config: WeightConfig) -> ExtremalFunction:
    """Assemble the extremal section and its loop multiplier.

    Requires the equality shape phi + 2 psi = 2(k+1) G + 2u with
    psi = p0 G (character matching is reported, not required).  Around
    the hole exp(W) picks up exp(2 pi i alpha), alpha the log-mode
    coefficient of V; its distance from 1 is the monodromy defect,
    2 sin(pi d) with d the distance of alpha to the nearest integer.
    """
    if not config.has_equality_shape():
        raise NotEqualityShape(
            f"a_g + 2 p0 = {config.green_mass():.6g} != {2 * (config.k + 1)} "
            f"or eps = {config.psi.eps} != 0"
        )
    green_rep = config.green_rep
    v_rep = green_rep.correction.scaled(float(config.k + 1)) + config.phi.u
    # Reduced mod 1 first: exp(2 pi i alpha) would round 2 pi alpha, and |alpha| reaches 3.5.
    defect = 2.0 * math.sin(math.pi * character_distance(v_rep.alpha_log))
    f0 = ExtremalFunction(config, green_rep.derivative(), v_rep, 0.0, defect)
    return replace(f0, log_c0=-complex(f0._exponent(np.array([config.z0]))[0]))


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

    def density(z, rings=None):
        return config._reweighted(a_profile, z, rings, f0.abs2(z, rings))

    ts = [t2, t1] if math.isfinite(t1) else [t2]
    integrals = _sublevel_integrals(config, res, density, ts, "below")
    lhs = integrals[0] - sum(integrals[1:])
    tail_hi = float(a_profile.h(t1)) if math.isfinite(t1) else 0.0
    g0 = g_of_t(config, 0.0, res)
    rhs = g0 / config.c.total * (float(a_profile.h(t2)) - tail_hi)
    gap = abs(lhs - rhs) / max(abs(rhs), 1e-300)
    return ShellIdentity(lhs, rhs, gap)


@dataclass(frozen=True)
class BoundaryLimit:
    shell_ratios: np.ndarray
    boundary_value: float
    extrapolated_gap: float


def boundary_limit_check(
    config: WeightConfig,
    f_abs2: Callable[..., np.ndarray],
    res: Resolution | None = None,
) -> BoundaryLimit:
    """Shell averages of |F|^2 rho against the boundary quantity.

    ratio(r) = integral over {2 psi >= log r} of |F|^2 rho, divided by
    the integral of c(t) e^-t over [0, -log r], at each r of SHELL_RADII;
    as r -> 1 this tends to (1/2) * contour integral of
    |F|^2 exp(-phi) / (dpsi/dnu).  The gap is measured after linear
    extrapolation in (1 - r) through the two largest radii.  f_abs2 is
    called as f_abs2(z, rings) with the level-field protocol of
    `mask_quadrature`.
    """
    if res is None:
        res = Resolution.for_domain(config.domain)
    ts = [-math.log(r) for r in SHELL_RADII]

    def density(z, rings=None):
        return f_abs2(z, rings) * config.rho(z, rings)

    integrals = _sublevel_integrals(config, res, density, ts, "above")
    ratios = np.array([
        integral / (config.c.total - float(config.c.h(t))) for integral, t in zip(integrals, ts)
    ])
    boundary = side_measure(config, "szego", res)
    boundary_value = 0.5 * float(np.sum(boundary.wdensity * f_abs2(boundary.points, boundary.rings)))
    x = 1.0 - np.array(SHELL_RADII)
    slope = (ratios[-1] - ratios[-2]) / (x[-1] - x[-2])
    extrapolated = ratios[-1] - slope * x[-1]
    gap = abs(float(extrapolated) - boundary_value)
    return BoundaryLimit(ratios, boundary_value, gap)


@dataclass(frozen=True)
class HardyDiagnostic:
    ratios: np.ndarray
    trend: Literal["bounded", "increasing"]


def hardy_diagnostic(
    f_abs2: Callable[..., np.ndarray],
    config: WeightConfig,
    res: Resolution | None = None,
) -> HardyDiagnostic:
    """Shell-average growth proxy for Hardy-class membership.

    Samples r -> integral of |F|^2 over {psi >= log r} divided by (1-r),
    at each r of SHELL_RADII.  A bounded trend indicates
    square-integrable boundary behavior; the classification doubles as
    the verdict (growth by more than 2x across the sample set reports
    `increasing`).  f_abs2 is called as f_abs2(z, rings) with the
    level-field protocol of `mask_quadrature`.
    """
    if res is None:
        res = Resolution.for_domain(config.domain)
    # {psi >= log r} is {2 psi >= 2 log r}: doubling is exact, so the masks are too.
    integrals = _sublevel_integrals(config, res, f_abs2, [-2.0 * math.log(r) for r in SHELL_RADII], "above")
    ratios = np.array([integral / (1.0 - r) for integral, r in zip(integrals, SHELL_RADII)])
    trend = "increasing" if ratios[-1] > 2.0 * ratios[0] else "bounded"
    return HardyDiagnostic(ratios, trend)


def superlevel_constant(config: WeightConfig, res: Resolution | None = None) -> float:
    """Smallest C with {G >= -t} inside {psi >= -C t} at 8 evenly spaced t up to 0.25.

    Evaluated on area-quadrature nodes; for psi = p0 G the constant is
    p0 up to grid resolution.
    """
    if res is None:
        res = Resolution.for_domain(config.domain)
    aq = area_quadrature_for(config, res)
    gvals = config.green_rep.value(aq.nodes, aq.rings)
    pvals = config.psi_value(aq.nodes, aq.rings)
    best = 0.0
    for t in np.linspace(_SUPERLEVEL_T0 / _SUPERLEVEL_POINTS, _SUPERLEVEL_T0, _SUPERLEVEL_POINTS):
        sel = gvals >= -t
        if np.any(sel):
            best = max(best, float(np.max(-pvals[sel]) / t))
    return best
