"""Weighted Bergman and Szego kernel diagonals, sections and residuals.

Kernels are computed by constrained minimization over a finite Laurent
basis: the kernel diagonal at z0 is the reciprocal of the minimal squared
norm among functions with a prescribed jet at z0.  Bases are nested
(exponents ordered 0, 1, -1, 2, -2, ...) so one Gram assembly serves the
whole truncation schedule via principal submatrices, and so does one
Cholesky factor of it, whose leading blocks factor those submatrices.

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
from typing import Literal, NamedTuple

import numpy as np

from .errors import InvalidConfig, ResolutionTooCoarse
from .geometry import AreaQuadrature, BoundaryQuadrature, DomainSpec, RingGrid
from .numerics import (
    ConstraintSystem,
    HermitianMatrix,
    constrained_min,
    richardson_sweep,
)
from .potential import GreenFunctionRep, LaurentSeries
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

    @property
    def n_max(self) -> int:
        return max(self.basis_schedule)

    def scaled(self, factor: int) -> "Resolution":
        """Refine the angles, the boundary and the ring depth by factor.

        The Gauss panels' radial rule is spectral away from z0, where the
        densities are smooth; the refinement ring resolves z0, and its depth
        must grow for the refined value to see the ring's error.  Kernels
        whose density is smooth at z0 use no ring (see `side_measure`).
        """
        return replace(
            self,
            boundary_nodes=factor * self.boundary_nodes,
            angular_cells=factor * self.angular_cells,
            patch_levels=factor * self.patch_levels,
        )

    @staticmethod
    def for_domain(domain: DomainSpec) -> "Resolution":
        if domain.kind == "annulus":
            # Annulus base points sit off-center, where every ring of the
            # refinement band costs a full angle grid; a shallower band
            # suffices.  Only densities singular at z0 use the band (see
            # `WeightConfig.density_smooth_at_z0`): a poly profile always
            # makes them so, and a_g != 0 or exp_delta with delta != 0 can.
            return Resolution(
                boundary_nodes=512,
                radial_cells=320,
                angular_cells=256,
                patch_levels=32,
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
        n = self.exponents
        rows = np.zeros((self.k + 1, len(n)), dtype=complex)
        ff = np.ones(len(n))  # falling factorial n (n-1) ... (n-j+1)
        for j in range(self.k + 1):
            if j:
                ff = ff * (n - (j - 1))
            # Where it is 0 the row is 0, and z0^(n-j) may be 0 to a negative power.
            keep = ff != 0.0
            rows[j, keep] = ff[keep] / math.factorial(j) * self.z0 ** (n[keep] - j) / self.scales[keep]
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
    (see `geometry`), and None for rules without one.  memo is the Green
    function whose memo may hold the rule, and with it the rule's power
    table (`GreenFunctionRep.rule_table`).
    """

    points: np.ndarray
    wdensity: np.ndarray
    rings: RingGrid | None = None
    memo: GreenFunctionRep | None = None


def boundary_measure(config: WeightConfig, bq: BoundaryQuadrature) -> Measure:
    lam = config.boundary_lambda(bq.nodes, bq.normal_signs, bq.rings)
    return Measure(bq.nodes, bq.weights * lam, bq.rings, config.green_rep)


def area_measure(config: WeightConfig, aq: AreaQuadrature) -> Measure:
    return Measure(aq.nodes, aq.weights * config.rho(aq.nodes, aq.rings), aq.rings, config.green_rep)


def area_quadrature_for(config: WeightConfig, res: Resolution) -> AreaQuadrature:
    """The area rule of res about z0 with its refinement ring, from the memo of the config's Green function.

    Masked rules are cut from this one: level curves of G cross its rings
    near z0 whatever the density.
    """
    return config.green_rep.area_rule(res.radial_cells, res.angular_cells, res.patch_levels)


# Kernel diagonal = normalizer / minimal plain sum (see the module docstring).
_SIDE_NORMALIZER = {"szego": _TWO_PI, "bergman": 1.0}


def side_measure(config: WeightConfig, side: Side, res: Resolution) -> Measure:
    """The weighted rule of one side: boundary for szego, area for bergman."""
    if side == "szego":
        return boundary_measure(config, config.green_rep.boundary_rule(res.boundary_nodes))
    # A density smooth at z0 gains nothing from the refinement ring.
    levels = None if config.density_smooth_at_z0() else res.patch_levels
    return area_measure(config, config.green_rep.area_rule(res.radial_cells, res.angular_cells, levels))


# Bound on one ring chunk's spectra: (rings, n_theta // 2 + 1) complex values.
_SPECTRA_CHUNK_BYTES = 8 << 20
_DENSE_CHUNK_NODES = 1 << 16  # nodes per block of the dense assembly


def gram(basis: BasisDescriptor, measure: Measure) -> HermitianMatrix:
    """Hermitian Gram matrix of the basis under the measure.

    On a ring measure, entry (i, j) depends on the exponents only through
    sigma = e_i + e_j and delta = e_j - e_i:

        Gram[i,j] = c_ij * mu[sigma, delta] * exp(i delta theta0),
        mu[sigma, delta] = sum_r P[r, sigma] F_r[delta],

    where P[r, sigma] is the doubled-order basis at radii[r] (r^sigma, or
    (q/r)^|sigma| for sigma < 0), c_ij = s_sigma / (s_i s_j) <= 1 with s
    the basis scales, and F_r the DFT of ring r's weights read modulo
    n_theta -- the same discrete sum as the dense path, aliasing included.
    sigma = delta (mod 2), so mu is built once by two contractions of the
    power table with the rings' spectra, one per parity class, and all
    nb^2 entries are read out of it.

    Other measures are assembled densely in blocks of _DENSE_CHUNK_NODES
    nodes, so large quadratures never materialize the full basis matrix.
    """
    if measure.rings is None:
        return _dense_gram(basis, measure)
    rings = measure.rings
    return _moment_gram(basis, rings, measure.wdensity.reshape(len(rings.radii), rings.n_theta), memo=measure.memo)


def _moment_gram(
    basis: BasisDescriptor, rings: RingGrid, ring_weights: np.ndarray, pieces=None, memo: GreenFunctionRep | None = None
) -> HermitianMatrix:
    """The Gram of `gram` from real weights (rings, n_theta) on a ring grid.

    pieces, if given, is (radii, angle, weights) of further nodes, node p
    at radii[p] * exp(i (theta0 + 2 pi angle[p] / n_theta)) on the grid's
    angle lines.  They are binned by angle into an (n_theta, n_sigma)
    table of weighted powers, whose DFT adds into the same mu.

    sigma and delta = sigma - 2 e_i have the same parity, so each parity
    class of sums is contracted only with the differences of its parity:
    half the products of the full table, with the same sum for every
    entry read.  Everything but the weights' spectra depends only on the
    basis order and the rings (`_RingTables`), and is built once per rule
    and basis order when memo holds the rule.
    """
    if memo is None:
        tables = _ring_tables(basis, rings)
    else:
        tables = memo.rule_table(rings, ("gram", basis.n_max), lambda: _ring_tables(basis, rings))
    n = rings.n_theta
    moments = [np.zeros((rows.stop - rows.start, 2 * deltas.size)) for rows, deltas, _ in tables.blocks]
    step = max(1, _SPECTRA_CHUNK_BYTES // (16 * (n // 2 + 1)))
    for start in range(0, len(rings.radii), step):
        sl = slice(start, start + step)
        spectra = np.fft.rfft(ring_weights[sl], axis=1)
        for (rows, _, columns), acc in zip(tables.blocks, moments):
            # Each row's [Re F | Im F], C-contiguous: on the annulus_matched 2x
            # rule (803 rings x 512 angles, nb 65) einsum on such arrays took
            # 5.8 ms for the full (129 x 803) . (803 x 130) table, against
            # 32 ms through @ on OpenBLAS's two threads and 19 ms on the
            # strided .real/.imag views.  The power table's column slice is
            # read one scalar at a time, so its stride costs nothing.
            part = spectra[:, columns]
            acc += np.einsum("rs,rd->sd", tables.powers[sl, rows], np.concatenate([part.real, part.imag], axis=1))
    if pieces is not None:
        radii, angle, weights = pieces
        ns = tables.doubled.exponents.size
        slots = (angle[:, None] * ns + np.arange(ns)).ravel()
        binned = weights[:, None] * _powers(tables.doubled, radii, tables.by_parity)
        table = np.bincount(slots, weights=binned.ravel(), minlength=n * ns).reshape(n, ns)
        spectra = np.fft.rfft(table, axis=0)
        for (rows, deltas, columns), acc in zip(tables.blocks, moments):
            part = spectra[columns, rows].T
            acc[:, : deltas.size] += part.real
            acc[:, deltas.size :] += part.imag
    # mu[column of sigma in the parity-grouped table, delta]; entries of
    # mismatched parity are never read and stay 0.
    mu = np.zeros((tables.powers.shape[1], tables.sign.size), dtype=complex)
    for (rows, deltas, _), acc in zip(tables.blocks, moments):
        mu[rows, deltas] = acc[:, : deltas.size] + 1j * (tables.sign[deltas] * acc[:, deltas.size :])
    upper = mu.ravel()[tables.entry] * tables.phase
    upper = upper * tables.coupling
    return HermitianMatrix(np.where(tables.lower, upper.conj(), upper))


class _RingTables(NamedTuple):
    """The parts of a ring Gram (`_moment_gram`) fixed by the basis order and the rings."""

    doubled: BasisDescriptor  # the basis of order 2 n_max: its exponents are the sums sigma
    by_parity: np.ndarray  # the doubled basis's columns, even exponents first
    powers: np.ndarray  # _powers(doubled, radii, by_parity)
    blocks: tuple  # per parity class: (its power table columns, its deltas, their rfft columns)
    sign: np.ndarray  # per delta: -1 where its rfft column is read conjugated, else 1
    entry: np.ndarray  # per Gram entry: the flat index of mu[column of sigma, |delta|]
    phase: np.ndarray  # per Gram entry: exp(i theta0 |delta|)
    coupling: np.ndarray | float  # per Gram entry: `_coupling`
    lower: np.ndarray  # per Gram entry: delta < 0, read as the conjugate


def _ring_tables(basis: BasisDescriptor, rings: RingGrid) -> _RingTables:
    n = rings.n_theta
    exps = basis.exponents
    with np.errstate(over="ignore"):  # only its powers are read; its scales q^-n may overflow
        doubled = BasisDescriptor.create(basis.domain, 2 * basis.n_max, basis.z0, basis.k)
    doubled.exponents.flags.writeable = doubled.scales.flags.writeable = False  # shared through the memo
    ns = doubled.exponents.size
    by_parity = np.argsort(doubled.exponents % 2, kind="stable")
    n_even = ns - int(np.count_nonzero(doubled.exponents % 2))
    # F[delta] for delta = 0..span sits in rfft column min(m, n - m), m = delta
    # mod n, conjugated when m <= n / 2 (real weights: F[-d] = conj(F[d])).
    shift = np.arange(int(exps.max() - exps.min()) + 1) % n
    fold = np.minimum(shift, n - shift)
    sign = np.where(shift <= n // 2, -1.0, 1.0)
    blocks = tuple(
        (rows, deltas, fold[deltas])
        for rows, deltas in [(slice(0, n_even), np.arange(0, fold.size, 2)), (slice(n_even, ns), np.arange(1, fold.size, 2))]
    )
    low = int(doubled.exponents.min())
    column = np.empty(int(doubled.exponents.max()) - low + 1, dtype=int)
    column[doubled.exponents[by_parity] - low] = np.arange(ns)
    sigma = exps[:, None] + exps[None, :]
    delta = exps[None, :] - exps[:, None]
    return _RingTables(
        doubled=doubled,
        by_parity=by_parity,
        powers=_powers(doubled, rings.radii, by_parity),
        blocks=blocks,
        sign=sign,
        entry=column[sigma - low] * fold.size + np.abs(delta),
        phase=np.exp(1j * rings.theta0 * np.abs(delta)),
        coupling=_coupling(basis, sigma),
        lower=delta < 0,
    )


def _powers(doubled: BasisDescriptor, radii: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """The doubled basis at real radii in the given column order, C-contiguous.

    Each entry is in [0, 1], and subnormals are set to 0: disc ring radii
    reach 1e-9, whose high powers are subnormal; they add nothing at double
    precision but slow every product they enter.  (A column gather alone
    gives a Fortran-ordered array, on which einsum sums in another order.)
    """
    p = np.ascontiguousarray(doubled.matrix(radii).real[:, columns])
    p[p < np.finfo(float).tiny] = 0.0
    return p


def _coupling(basis: BasisDescriptor, sigma: np.ndarray):
    """c_ij = s_sigma / (s_i s_j), a power of q, formed without the scales (q^-n overflows)."""
    if basis.domain.kind == "disc":
        return 1.0
    depth = np.maximum(-basis.exponents, 0)
    return basis.domain.q ** (depth[:, None] + depth[None, :] - np.maximum(-sigma, 0)).astype(float)


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
    """Kernel diagonal with its truncation and quadrature error estimates."""

    value: float
    truncation_estimate: float
    quadrature_estimate: float

    @property
    def total_estimate(self) -> float:
        return self.truncation_estimate + self.quadrature_estimate


def _require_fine_enough(res: Resolution) -> None:
    """Raise ResolutionTooCoarse unless the rules of res resolve its largest basis."""
    if min(res.angular_cells, res.boundary_nodes) <= 4 * res.n_max or res.radial_cells <= res.n_max:
        raise ResolutionTooCoarse(
            f"quadrature resolution too coarse for basis order N = {res.n_max}; "
            "need more than 4*N angular and boundary nodes and more than N radial cells"
        )


def _sweep_over_schedule(
    config: WeightConfig, side: Side, res: Resolution, basis: BasisDescriptor, constraints: ConstraintSystem
):
    """`richardson_sweep` of the kernel diagonal over the basis schedule, on one Gram.

    The diagonal at each order n is the minimum over the nested prefix of
    basis.size(n) elements, and one `constrained_min` call takes every
    prefix's minimum from one Cholesky factor of the whole Gram.
    """
    full = gram(basis, side_measure(config, side, res))
    minima = constrained_min(full, constraints, [basis.size(n) for n in res.basis_schedule])
    diagonal = {n: _SIDE_NORMALIZER[side] / result.value for n, result in zip(res.basis_schedule, minima)}
    return richardson_sweep(diagonal.__getitem__, res.basis_schedule)


def kernel_diag(config: WeightConfig, side: Side, res: Resolution | None = None) -> KernelValue:
    """Kernel diagonal at z0 with order-k jet constraints.

    Truncation is estimated by sweeping the basis schedule; quadrature
    error by the gap between that sweep at res and at res.scaled(2), with
    doubled angle and boundary counts and a doubled ring depth.  The
    value and truncation estimate reported are the refined level's.
    """
    if res is None:
        res = Resolution.for_domain(config.domain)
    _require_fine_enough(res)  # res.scaled(2) only adds angles and boundary nodes
    basis = BasisDescriptor.create(config.domain, res.n_max, config.z0, config.k)
    constraints = basis.constraints()
    base = _sweep_over_schedule(config, side, res, basis, constraints)
    fine = _sweep_over_schedule(config, side, res.scaled(2), basis, constraints)
    return KernelValue(fine.value, fine.error_estimate, abs(fine.value - base.value))


@dataclass(frozen=True)
class KernelSection:
    """Normalized kernel section M(z) = K(z, conj(z0)) / K(z0, conj(z0))."""

    side: Side
    z0: complex
    series: LaurentSeries  # M in monomials
    diagonal: float        # K(z0, conj(z0)) in the 1/2pi convention

    def __call__(self, z):
        return self.series(z)

    def two_point(self, z):
        """K(z, conj(z0)) reconstructed from diagonal times section."""
        return self.diagonal * self(z)


def kernel_section(config: WeightConfig, side: Side, res: Resolution | None = None) -> KernelSection:
    """Minimal-norm element with value 1 at z0; equals the kernel section."""
    _require_order_zero(config)
    if res is None:
        res = Resolution.for_domain(config.domain)
    _require_fine_enough(res)
    return _section_on(config, side, res, side_measure(config, side, res))


def _require_order_zero(config: WeightConfig) -> None:
    if config.k != 0:
        raise InvalidConfig("kernel sections are defined for k = 0 configurations")


def _section_on(config: WeightConfig, side: Side, res: Resolution, measure: Measure) -> KernelSection:
    """The kernel section from the side's weighted rule, built by the caller."""
    basis = BasisDescriptor.create(config.domain, res.n_max, config.z0, 0)
    result = constrained_min(gram(basis, measure), basis.constraints())
    return KernelSection(
        side=side,
        z0=config.z0,
        series=LaurentSeries.from_terms(basis.exponents, basis.to_monomial(result.minimizer)),
        diagonal=_SIDE_NORMALIZER[side] / result.value,
    )


def reproducing_residual(
    config: WeightConfig,
    side: Side,
    test_exponents,
    res: Resolution | None = None,
) -> list[float]:
    """|<z^n, K(., conj(z0))> - z0^n| under the side's inner product, for each n in test_exponents."""
    _require_order_zero(config)
    if res is None:
        res = Resolution.for_domain(config.domain)
    test_exponents = list(test_exponents)
    if any(abs(n) > res.n_max for n in test_exponents):
        raise ValueError("test exponent outside the basis range")
    if config.domain.kind == "disc" and min(test_exponents, default=0) < 0:
        raise ValueError("negative exponents are not disc basis elements")
    measure = side_measure(config, side, res)
    # One measure and one section serve every exponent.
    conj_k = np.conj(_section_on(config, side, res, measure).two_point(measure.points))
    scale = 1.0 / _SIDE_NORMALIZER[side]
    integrals = [scale * np.sum(measure.wdensity * measure.points ** n * conj_k) for n in test_exponents]
    return [float(np.abs(integral - config.z0 ** n)) for integral, n in zip(integrals, test_exponents)]
