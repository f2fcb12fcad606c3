"""Theorem-level checks: kernel comparison, equality prediction, capacity chain.

The central quantity is

    ratio = K / (I(c) * pi * B),

where K is the weighted Hardy-kernel diagonal (reproducing convention),
B the weighted Bergman-kernel diagonal and I(c) the total mass of the
radial profile.  The comparison theorem asserts ratio >= 1, with
equality exactly when the configuration has the extremal shape
(phi + 2 psi = 2(k+1) G + 2u, psi = p0 G) and the characters match
((k+1) alpha_z0 + alpha_u integral).

Verdicts: `pass` when the observation matches the structural prediction,
`fail` when it contradicts it beyond the error estimates, and
`inconclusive` when the estimates swamp the decision margin.  A ratio
significantly below 1 is always a failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import InvalidConfig, RouteMismatch
from .geometry import DomainSpec
from .kernels import KernelValue, Resolution, kernel_diag
from .numerics import ROUNDOFF_REL
from .weights import CProfile, PhiSpec, PsiSpec, WeightConfig, validate_config

DEFAULT_TOL_EQ = 1e-4
_ESTIMATE_CUSHION = 3.0
_CHARACTER_TOL = 1e-8      # character distance below which the characters match
_SUITA_TOL_EQ = 1e-6       # relative tolerance of the disc's Suita equalities


@dataclass(frozen=True)
class ConditionFlags:
    """Structural equality conditions evaluated from the configuration."""

    green_mass_matches: bool    # a_g + 2 p0 == 2(k+1)
    psi_is_green_multiple: bool  # eps == 0
    characters_match: bool       # (k+1) alpha_z0 + alpha_u == 0 mod 1

    @property
    def all_hold(self) -> bool:
        return self.green_mass_matches and self.psi_is_green_multiple and self.characters_match


@dataclass(frozen=True)
class EqualityPrediction:
    expected: bool
    flags: ConditionFlags
    character_distance: float


def equality_predicate(config: WeightConfig) -> EqualityPrediction:
    """Purely structural evaluation of the equality conditions."""
    dist = config.character_mismatch()
    flags = ConditionFlags(
        green_mass_matches=abs(config.green_mass() - 2.0 * (config.k + 1)) < 1e-12,
        psi_is_green_multiple=config.psi.eps == 0.0,
        characters_match=dist < _CHARACTER_TOL,
    )
    return EqualityPrediction(flags.all_hold, flags, dist)


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one comparison.

    k_value and b_value carry their error estimates floored at the
    roundoff level (see `_reported`); combined_estimate, tol_ineq and the
    verdict come from the unfloored estimates.
    """

    k_value: KernelValue
    b_value: KernelValue
    c_total: float
    ratio: float
    combined_estimate: float
    expected_equality: bool
    flags: ConditionFlags
    character_distance: float
    tol_eq: float
    tol_ineq: float
    verdict: Literal["pass", "fail", "inconclusive"]
    order: int
    route_gap: float = 0.0

    def summary_lines(self) -> list[str]:
        return [
            f"K = {self.k_value.value:.10g} ({_estimates(self.k_value)})",
            f"B = {self.b_value.value:.10g} ({_estimates(self.b_value)})",
            f"I(c) = {self.c_total:.10g}",
            f"ratio = K / (I(c) pi B) = {self.ratio:.10g}",
            f"expected equality: {self.expected_equality} "
            f"(mass {self.flags.green_mass_matches}, psi {self.flags.psi_is_green_multiple}, "
            f"character {self.flags.characters_match}, distance {self.character_distance:.6g})",
            f"verdict: {self.verdict}",
        ]


def _estimates(value: KernelValue) -> str:
    return f"trunc {value.truncation_estimate:.2e}, quad {value.quadrature_estimate:.2e}"


def _reported(value: KernelValue) -> KernelValue:
    """The kernel value with its estimates floored at ROUNDOFF_REL * |value|.

    An estimate below that level measures roundoff, which moves with the
    BLAS thread count (the Cholesky factor of a 65 x 65 Gram differs in its
    last bits between one and two threads), so reports print the floor.
    """
    floor = ROUNDOFF_REL * abs(value.value)
    return KernelValue(value.value, max(value.truncation_estimate, floor), max(value.quadrature_estimate, floor))


def _decide(
    ratio: float,
    expected: bool,
    tol_eq: float,
    combined: float,
) -> tuple[str, float]:
    tol_ineq = max(combined * _ESTIMATE_CUSHION, 1e-12)
    if ratio < 1.0 - tol_ineq - tol_eq:
        return "fail", tol_ineq
    equality_observed = abs(ratio - 1.0) <= tol_eq
    if expected:
        if equality_observed:
            return "pass", tol_ineq
        if abs(ratio - 1.0) <= _ESTIMATE_CUSHION * combined:
            return "inconclusive", tol_ineq
        return "fail", tol_ineq
    if not equality_observed and ratio > 1.0:
        return "pass", tol_ineq
    if combined * _ESTIMATE_CUSHION >= tol_eq:
        return "inconclusive", tol_ineq
    return "fail", tol_ineq


def _require_valid(config: WeightConfig) -> None:
    failures = [c for c in validate_config(config) if not c.passed]
    if failures:
        details = "; ".join(f"{c.name}: {c.detail}" for c in failures)
        raise InvalidConfig(details)


def _route_gap(direct: KernelValue, reduced: KernelValue) -> float:
    """Relative gap of an order-k kernel from its order-zero reduction;
    RouteMismatch when it exceeds their combined error estimates."""
    gap = abs(direct.value - reduced.value) / direct.value
    allowance = _ESTIMATE_CUSHION * (
        direct.total_estimate / direct.value + reduced.total_estimate / reduced.value
    ) + 1e-9
    if gap > allowance:
        raise RouteMismatch(
            f"direct-k and reduced routes disagree: {direct.value:.10g} vs "
            f"{reduced.value:.10g} (relative gap {gap:.3e} > allowance {allowance:.3e})"
        )
    return gap


def verify(
    config: WeightConfig,
    res: Resolution | None = None,
    tol_eq: float = DEFAULT_TOL_EQ,
) -> VerificationReport:
    """Kernel comparison and equality characterization at the configured order.

    For k >= 1 both kernels are cross-checked against the order-zero
    reduction, whose density carries the |z - z0|^(2k) factor.
    """
    _require_valid(config)
    k_val = kernel_diag(config, "szego", res)
    b_val = kernel_diag(config, "bergman", res)
    route_gap = 0.0
    if config.k >= 1:
        reduced = config.reduced()
        route_gap = max(
            _route_gap(k_val, kernel_diag(reduced, "szego", res)),
            _route_gap(b_val, kernel_diag(reduced, "bergman", res)),
        )
    total = config.c.total
    ratio = k_val.value / (total * math.pi * b_val.value)
    combined = k_val.total_estimate / k_val.value + b_val.total_estimate / b_val.value + 1e-12
    prediction = equality_predicate(config)
    verdict, tol_ineq = _decide(ratio, prediction.expected, tol_eq, combined)
    return VerificationReport(
        k_value=_reported(k_val),
        b_value=_reported(b_val),
        c_total=total,
        ratio=ratio,
        combined_estimate=combined,
        expected_equality=prediction.expected,
        flags=prediction.flags,
        character_distance=prediction.character_distance,
        tol_eq=tol_eq,
        tol_ineq=tol_ineq,
        verdict=verdict,
        order=config.k,
        route_gap=route_gap,
    )


@dataclass(frozen=True)
class SuitaReport:
    """Capacity / Bergman / Hardy chain c_beta^2 <= pi B <= K-hat."""

    cbeta_squared: float
    pi_b: float
    k_hat: float
    left_margin: float   # pi B - c_beta^2
    right_margin: float  # K-hat - pi B
    combined_estimate: float
    strict_expected: bool
    verdict: Literal["pass", "fail", "inconclusive"]


def verify_suita(
    domain: DomainSpec,
    z0: complex,
    res: Resolution | None = None,
) -> SuitaReport:
    """Evaluate the comparison chain for the unweighted configuration.

    On the disc the three quantities coincide (to _SUITA_TOL_EQ relative);
    on the annulus both inequalities are strict.
    """
    config = WeightConfig(domain, z0, 0, PsiSpec(1.0), PhiSpec(), CProfile.constant_one())
    cbeta = float(np.exp(config.green_rep.robin_constant))
    k_hat = kernel_diag(config, "szego", res)
    b_val = kernel_diag(config, "bergman", res)
    pi_b = math.pi * b_val.value
    left = pi_b - cbeta**2
    right = k_hat.value - pi_b
    combined = (
        b_val.total_estimate * math.pi + k_hat.total_estimate + 1e-12
    )
    strict = domain.kind == "annulus"
    if strict:
        ok = left > _ESTIMATE_CUSHION * combined and right > _ESTIMATE_CUSHION * combined
        verdict = "pass" if ok else ("inconclusive" if left > 0 and right > 0 else "fail")
    else:
        scale = max(pi_b, 1.0)
        ok = abs(left) <= _SUITA_TOL_EQ * scale and abs(right) <= _SUITA_TOL_EQ * scale
        verdict = "pass" if ok else "fail"
    return SuitaReport(cbeta**2, pi_b, k_hat.value, left, right, combined, strict, verdict)
