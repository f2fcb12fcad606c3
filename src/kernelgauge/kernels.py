"""Weighted Bergman and Szego kernel diagonals, sections and residuals.

Kernels are computed by constrained minimization over a finite Laurent
basis: the kernel diagonal at z0 is the reciprocal of the minimal squared
norm among functions with a prescribed jet at z0.  Bases are nested
(exponents ordered 0, 1, -1, 2, -2, ...) so one Gram assembly serves the
whole truncation schedule via principal submatrices.

Normalization: the Szego side uses the reproducing convention with inner
product (1/2pi) * contour integral of f conj(g) lambda |dz|, hence the
kernel diagonal equals 2pi divided by the minimum of the plain contour
integral.  Under this convention the unit-disc baseline gives K = 1 and
pi * B = 1 simultaneously.

Basis functions are scaled by their sup norm over the closed domain
(z^n for n >= 0, (z/q)^n for n < 0) so annulus Gram matrices stay
well-conditioned at high truncation orders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Literal

import numpy as np

from .errors import InvalidConfig
from .geometry import (
    AreaQuadrature,
    BoundaryQuadrature,
    DomainSpec,
    RingGrid,
    area_quadrature,
    boundary_quadrature,
)
from .numerics import (
    ConstraintSystem,
    HermitianMatrix,
    constrained_min,
    richardson_sweep,
)
from .weights import WeightConfig

_TWO_PI = 2.0 * np.pi

Side = Literal["bergman", "szego"]


@dataclass(frozen=True)
class Resolution:
    """Discretization knobs shared by kernel and functional computations."""

    basis_schedule: tuple[int, ...] = (8, 16, 32, 48)
    boundary_nodes: int = 256
    radial_cells: int = 256
    angular_cells: int = 256
    patch_levels: int = 48
    patch_grading: float = 0.7
    patch_panels: int = 16
    patch_radius: float | None = None
    refine_quadrature: bool = True

    @property
    def n_max(self) -> int:
        return max(self.basis_schedule)

    def scaled(self, factor: int) -> "Resolution":
        return replace(
            self,
            boundary_nodes=factor * self.boundary_nodes,
            radial_cells=factor * self.radial_cells,
            angular_cells=factor * self.angular_cells,
        )

    @staticmethod
    def for_domain(domain: DomainSpec) -> "Resolution":
        if domain.kind == "annulus":
            # Annulus base points sit off-center, where the refinement ring
            # pays per-angle cost; keep it light (densities from the weight
            # families are smooth there unless a_g > 0).
            return Resolution(
                boundary_nodes=512,
                radial_cells=320,
                angular_cells=256,
                patch_levels=32,
                patch_panels=2,
            )
        return Resolution()


@dataclass(frozen=True)
class BasisDescriptor:
    """Nested Laurent basis with jet functionals at z0.

    exponents[i] is the monomial power of basis element i and scales[i]
    its sup-norm normalizer, so element i is z^n / scales[i].
    """

    domain: DomainSpec
    n_max: int
    z0: complex
    k: int
    exponents: np.ndarray
    scales: np.ndarray

    @staticmethod
    def create(domain: DomainSpec, n_max: int, z0: complex, k: int) -> "BasisDescriptor":
        if domain.kind == "disc":
            exps = np.arange(n_max + 1)
        else:
            exps = np.zeros(2 * n_max + 1, dtype=int)
            exps[1::2] = np.arange(1, n_max + 1)
            exps[2::2] = -np.arange(1, n_max + 1)
        scales = np.ones(len(exps))
        if domain.kind == "annulus":
            neg = exps < 0
            scales[neg] = domain.q ** exps[neg].astype(float)
        return BasisDescriptor(domain, n_max, complex(z0), k, exps, scales)

    def size(self, n: int) -> int:
        """Number of basis elements with |exponent| <= n (a nested prefix)."""
        if self.domain.kind == "disc":
            return n + 1
        return 2 * n + 1

    def matrix(self, z: np.ndarray) -> np.ndarray:
        """Scaled monomial values, shape (len(z), len(exponents))."""
        z = np.asarray(z, dtype=complex)
        out = np.empty((z.shape[0], len(self.exponents)), dtype=complex)
        pos = np.ones_like(z)
        neg = np.ones_like(z)
        w = self.domain.q / z if self.domain.kind == "annulus" else None
        for i, n in enumerate(self.exponents):
            if n == 0:
                out[:, i] = 1.0
            elif n > 0:
                pos = pos * z
                out[:, i] = pos
            else:
                neg = neg * w
                out[:, i] = neg
        return out

    def constraints(self) -> ConstraintSystem:
        """Jet rows f^(j)(z0)/j! for j = 0..k with target (0,...,0,1)."""
        rows = np.zeros((self.k + 1, len(self.exponents)), dtype=complex)
        for j in range(self.k + 1):
            for i, n in enumerate(self.exponents):
                ff = 1.0
                for step in range(j):
                    ff *= n - step
                if ff == 0.0:
                    continue
                rows[j, i] = ff / math.factorial(j) * self.z0 ** (n - j) / self.scales[i]
        target = np.zeros(self.k + 1)
        target[-1] = 1.0
        return ConstraintSystem(rows, target)

    def to_monomial(self, coeffs: np.ndarray) -> np.ndarray:
        """Convert scaled-basis coefficients to plain monomial coefficients."""
        m = len(coeffs)
        return np.asarray(coeffs) / self.scales[:m]


@dataclass(frozen=True)
class Measure:
    """Quadrature points with weight-times-density factors.

    rings is the rule's ring x angle structure when the points follow it
    (see `geometry`), and None for rules without one, such as masked ones.
    """

    kind: Literal["area", "boundary"]
    points: np.ndarray
    wdensity: np.ndarray
    rings: RingGrid | None = None


def boundary_measure(config: WeightConfig, bq: BoundaryQuadrature) -> Measure:
    lam = config.boundary_lambda(bq.nodes, bq.normal_signs)
    return Measure("boundary", bq.nodes, bq.weights * lam, bq.rings)


def area_measure(config: WeightConfig, aq: AreaQuadrature) -> Measure:
    return Measure("area", aq.nodes, aq.weights * config.rho(aq.nodes), aq.rings)


def area_quadrature_for(config: WeightConfig, res: Resolution) -> AreaQuadrature:
    return area_quadrature(
        config.domain,
        config.z0,
        res.radial_cells,
        res.angular_cells,
        patch_radius=res.patch_radius,
        grading=res.patch_grading,
        patch_levels=res.patch_levels,
        patch_panels=res.patch_panels,
    )


# Kernel diagonal = normalizer / minimal plain sum (see the module docstring).
_SIDE_NORMALIZER = {"szego": _TWO_PI, "bergman": 1.0}


def side_measure(config: WeightConfig, side: Side, res: Resolution) -> Measure:
    """The weighted rule of one side: boundary for szego, area for bergman."""
    if side == "szego":
        return boundary_measure(config, boundary_quadrature(config.domain, res.boundary_nodes))
    return area_measure(config, area_quadrature_for(config, res))


_RING_CHUNK_BYTES = 20 << 20  # bound on one ring chunk's (rings, nb, nb) intermediate
_DENSE_CHUNK_NODES = 1 << 16  # nodes per block of the dense assembly


def gram(basis: BasisDescriptor, measure: Measure) -> HermitianMatrix:
    """Hermitian Gram matrix of the basis under the measure.

    On a ring measure each ring's angular sum is a DFT of its weights:

        Gram[i,j] = sum_r R[r,i] R[r,j] F_r[e_j - e_i] exp(i (e_j - e_i) theta0),

    with R[r,i] = radii[r]^e_i / s_i and F_r = n_theta * ifft(w[r]) read
    modulo n_theta -- the same discrete sum as the dense path, aliasing
    included.  Rings are processed in chunks that keep the gathered
    (rings, nb, nb) array near _RING_CHUNK_BYTES.

    Other measures are assembled densely in blocks of _DENSE_CHUNK_NODES
    nodes, so large quadratures never materialize the full basis matrix.
    """
    if measure.rings is None:
        return _dense_gram(basis, measure)
    rings = measure.rings
    n = rings.n_theta
    exps = basis.exponents
    shift = exps[None, :] - exps[:, None]
    index = shift % n
    radial = basis.matrix(rings.radii).real
    w = measure.wdensity.reshape(len(rings.radii), n)
    nb = len(exps)
    step = max(1, _RING_CHUNK_BYTES // (16 * nb * nb))
    m = np.zeros((nb, nb), dtype=complex)
    for start in range(0, len(rings.radii), step):
        sl = slice(start, start + step)
        f = n * np.fft.ifft(w[sl], axis=1)
        m += np.einsum("ri,rj,rij->ij", radial[sl], radial[sl], f[:, index])
    return HermitianMatrix(m * np.exp(1j * rings.theta0 * shift))


def _dense_gram(basis: BasisDescriptor, measure: Measure) -> HermitianMatrix:
    nb = len(basis.exponents)
    m = np.zeros((nb, nb), dtype=complex)
    for start in range(0, len(measure.points), _DENSE_CHUNK_NODES):
        sl = slice(start, start + _DENSE_CHUNK_NODES)
        phi = basis.matrix(measure.points[sl])
        m += (phi.conj().T * measure.wdensity[sl]) @ phi
    return HermitianMatrix(m)


@dataclass(frozen=True)
class KernelValue:
    """Kernel diagonal with error estimates; no quadrature estimate (None) if unrefined."""

    value: float
    truncation_estimate: float
    quadrature_estimate: float | None

    @property
    def total_estimate(self) -> float:
        return self.truncation_estimate + (self.quadrature_estimate or 0.0)


def _sweep_over_schedule(config: WeightConfig, side: Side, res: Resolution, basis: BasisDescriptor):
    if res.angular_cells <= 4 * res.n_max or res.boundary_nodes <= 4 * res.n_max:
        raise ValueError(
            f"quadrature resolution too coarse for basis order {res.n_max}; "
            "need more than 4*N angular/boundary nodes"
        )
    full = gram(basis, side_measure(config, side, res))
    constraints = basis.constraints()

    def value_at(n: int) -> float:
        m = basis.size(n)
        result = constrained_min(full.principal(m), constraints.restricted(m))
        return _SIDE_NORMALIZER[side] / result.value

    return richardson_sweep(value_at, res.basis_schedule)


def kernel_diag(config: WeightConfig, side: Side, res: Resolution | None = None) -> KernelValue:
    """Kernel diagonal at z0 with order-k jet constraints.

    Truncation is estimated by sweeping the basis schedule; quadrature
    error by recomputing at doubled node counts (the reported value is
    the doubled-resolution one), unless res.refine_quadrature is off.
    """
    if res is None:
        res = Resolution.for_domain(config.domain)
    basis = BasisDescriptor.create(config.domain, res.n_max, config.z0, config.k)
    base = _sweep_over_schedule(config, side, res, basis)
    if not res.refine_quadrature:
        return KernelValue(base.value, base.error_estimate, None)
    fine = _sweep_over_schedule(config, side, res.scaled(2), basis)
    return KernelValue(fine.value, fine.error_estimate, abs(fine.value - base.value))


@dataclass(frozen=True)
class KernelSection:
    """Normalized kernel section M(z) = K(z, conj(z0)) / K(z0, conj(z0))."""

    side: Side
    z0: complex
    exponents: np.ndarray
    coefficients: np.ndarray  # monomial coefficients of M
    diagonal: float           # K(z0, conj(z0)) in the 1/2pi convention

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        out = np.zeros_like(z)
        for n, c in zip(self.exponents, self.coefficients):
            out = out + c * z ** int(n)
        return out

    def two_point(self, z):
        """K(z, conj(z0)) reconstructed from diagonal times section."""
        return self.diagonal * self(z)


def kernel_section(config: WeightConfig, side: Side, res: Resolution | None = None) -> KernelSection:
    """Minimal-norm element with value 1 at z0; equals the kernel section."""
    if config.k != 0:
        raise InvalidConfig("kernel sections are defined for k = 0 configurations")
    if res is None:
        res = Resolution.for_domain(config.domain)
    basis = BasisDescriptor.create(config.domain, res.n_max, config.z0, 0)
    result = constrained_min(gram(basis, side_measure(config, side, res)), basis.constraints())
    return KernelSection(
        side=side,
        z0=config.z0,
        exponents=basis.exponents.copy(),
        coefficients=basis.to_monomial(result.minimizer),
        diagonal=_SIDE_NORMALIZER[side] / result.value,
    )


def reproducing_residual(
    config: WeightConfig,
    side: Side,
    test_exponent: int,
    res: Resolution | None = None,
    section: KernelSection | None = None,
) -> float:
    """|<z^n, K(., conj(z0))> - z0^n| under the side's inner product."""
    if res is None:
        res = Resolution.for_domain(config.domain)
    if abs(test_exponent) > res.n_max:
        raise ValueError("test exponent outside the basis range")
    if config.domain.kind == "disc" and test_exponent < 0:
        raise ValueError("negative exponents are not disc basis elements")
    if section is None:
        section = kernel_section(config, side, res)
    measure = side_measure(config, side, res)
    kvals = section.two_point(measure.points)
    scale = 1.0 / _SIDE_NORMALIZER[side]
    integral = scale * np.sum(measure.wdensity * measure.points ** test_exponent * np.conj(kvals))
    return float(np.abs(integral - config.z0 ** test_exponent))
