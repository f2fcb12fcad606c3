"""Green functions, capacities, Dirichlet solves and characters.

Harmonic functions on the disc/annulus are stored as a log mode plus a
finite Laurent expansion of their analytic completion:

    u(z) = alpha_log * log|z| + Re sum_m C_m z^m,   |m| <= M.

The annulus Green function with pole w is log|z - w| plus such a
correction, obtained by matching the Fourier data of -log|zeta - w| on
both boundary circles, the same matching that `dirichlet_solve` applies
to the FFT modes of sampled data; the matching coefficients are explicit
geometric series, scaled so no intermediate quantity overflows.  The disc
Green function uses the same representation with coefficients
conj(w)^n / n, which sums to the familiar Moebius closed form.  Every
series is built by `LaurentSeries.from_terms`.

Characters of the annulus fundamental group are read from the stored log
mode, not measured.  The exponent is the conjugate-period flux (1/2pi) *
contour integral of dh/dr around the hole, mod 1: Re S(z) adds nothing to
it and alpha_log * log|z| adds alpha_log, so the exponent is alpha_log.
A Green function's log|z - w| adds 0 or 1, which is 0 mod 1.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import PoleTooCloseToBoundary, TruncationInsufficient
from .geometry import (
    AreaQuadrature,
    BoundaryQuadrature,
    DomainSpec,
    RingGrid,
    area_quadrature,
    boundary_quadrature,
)

_TWO_PI = 2.0 * np.pi
# Target for truncation tails when auto-sizing expansions.
_TAIL_TOL = 1e-13
_MIN_TERMS, _MAX_TERMS = 48, 6000  # bounds on an auto-sized expansion's order
_RING_CHUNK_BYTES = 8 << 20  # bound on one ring chunk's (rings, terms) array


@dataclass(frozen=True)
class LaurentSeries:
    """Finite Laurent polynomial sum_{m=m_min}^{m_max} c[m] z^m."""

    m_min: int
    coeffs: np.ndarray  # index k holds the coefficient of z^(m_min + k)

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=complex)
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    @staticmethod
    def from_terms(powers, values) -> "LaurentSeries":
        """sum_i values[i] z^powers[i]; repeated powers add.

        The series spans exactly min(powers) to max(powers), or z^0 alone
        when no power is given.
        """
        powers = np.asarray(powers, dtype=int)
        if powers.size == 0:
            return LaurentSeries(0, np.zeros(1))
        lo = int(powers.min())
        slots = powers - lo
        coeffs = np.zeros(int(powers.max()) - lo + 1, dtype=complex)
        # Distinct powers are assigned, which keeps each value's bits (adding
        # -0.0 to 0.0 gives 0.0) and is faster than np.add.at.
        if np.bincount(slots).max() > 1:
            np.add.at(coeffs, slots, values)
        else:
            coeffs[slots] = values
        return LaurentSeries(lo, coeffs)

    @property
    def m_max(self) -> int:
        return self.m_min + len(self.coeffs) - 1

    @property
    def powers(self) -> np.ndarray:
        """The power of z that each coefficient multiplies."""
        return np.arange(self.m_min, self.m_max + 1)

    def __call__(self, z, rings: RingGrid | None = None):
        """Values at z; pass the rule's rings when z are its ring-major nodes.

        Without rings the series is summed by Horner's rule point by point.
        With rings, ring r's values are the unscaled inverse DFT of b_r,
        b_r[k] = sum over m = k (mod n) of c_m radii[r]^m exp(i m theta0):
        the same sum, aliasing included, at O(M + n log n) per ring.  Each
        term is one real exponential exp(log|c_m| + m log r) times its
        phase exp(i (arg c_m + m theta0)), taken from a table of M values,
        so r^m is never formed on its own (q^-m overflows long before
        |c_m| q^-m does).  The terms go straight into their DFT slots of
        one (rings, n) spectrum, which is transformed once.
        """
        z = np.asarray(z, dtype=complex)
        if rings is not None:
            return self._on_rings(z, rings)
        out = np.zeros_like(z)
        lo, hi = self.m_min, self.m_max
        if hi >= 0:
            start = max(lo, 0)
            pos = self.coeffs[start - lo :]
            acc = np.zeros_like(z)
            for c in pos[::-1]:
                acc *= z
                acc += c
            out = out + (acc * z**start if start > 0 else acc)
        if lo < 0:
            stop = min(hi, -1)
            neg = self.coeffs[: stop - lo + 1]
            w = 1.0 / z
            acc = np.zeros_like(z)
            for c in neg:
                acc *= w
                acc += c
            out = out + acc * w ** (-lo - (len(neg) - 1))
        return out

    def _on_rings(self, z: np.ndarray, rings: RingGrid) -> np.ndarray:
        n, radii = rings.n_theta, rings.radii
        if z.size != radii.size * n:
            raise ValueError(
                f"{z.size} points given for a ring grid of {radii.size} x {n} nodes"
            )
        nonzero = np.flatnonzero(self.coeffs)
        if nonzero.size == 0:
            return np.zeros_like(z)
        c = self.coeffs[nonzero]
        m = self.m_min + nonzero
        log_abs = np.log(np.abs(c))
        phase = np.exp(1j * (np.angle(c) + rings.theta0 * m))
        slot = m % n
        # Run j holds exponents m[0] + j n to m[0] + (j + 1) n - 1, whose slots
        # differ: run 0 is assigned and each later run added, aliasing as the DFT does.
        edges = np.searchsorted(m, m[0] + n * np.arange(1, (m[-1] - m[0]) // n + 1))
        runs = [(lo, hi) for lo, hi in zip([0, *edges], [*edges, m.size]) if lo < hi]
        step = max(1, _RING_CHUNK_BYTES // (16 * m.size))
        spectrum = np.zeros((radii.size, n), dtype=complex)
        for start in range(0, radii.size, step):
            # A ring of radius 0 (a disc's corner grid) takes log r = -1e300
            # for -inf, so r^0 = 1 there rather than NaN, and r^m = 0 for m > 0.
            with np.errstate(divide="ignore"):
                log_r = np.log(radii[start : start + step])
            np.maximum(log_r, -1e300, out=log_r)
            terms = np.multiply.outer(log_r, m)
            terms += log_abs
            np.exp(terms, out=terms)
            terms = terms * phase
            block = spectrum[start : start + step]
            lo, hi = runs[0]
            block[:, slot[lo:hi]] = terms[:, lo:hi]
            for lo, hi in runs[1:]:
                block[:, slot[lo:hi]] += terms[:, lo:hi]
        return np.fft.ifft(spectrum, axis=1, norm="forward").reshape(z.shape)


def character_distance(a: float, b: float = 0.0) -> float:
    """Distance of a - b to the nearest integer, in [0, 1/2]."""
    d = (a - b) % 1.0
    return min(d, 1.0 - d)


@dataclass(frozen=True)
class HarmonicFunctionRep:
    """Harmonic function alpha_log*log|z| + Re(series(z))."""

    alpha_log: float
    series: LaurentSeries

    @staticmethod
    def zero() -> "HarmonicFunctionRep":
        return HarmonicFunctionRep.log_mode(0.0)

    @staticmethod
    def log_mode(alpha: float) -> "HarmonicFunctionRep":
        return HarmonicFunctionRep(alpha, LaurentSeries.from_terms([], []))

    @staticmethod
    def from_coefficients(alpha_log: float, coeffs: dict[int, complex]) -> "HarmonicFunctionRep":
        """alpha_log log|z| + Re sum_m coeffs[m] z^m; the series spans z^0 too."""
        terms = {0: 0.0, **coeffs}
        return HarmonicFunctionRep(alpha_log, LaurentSeries.from_terms(list(terms), list(terms.values())))

    def value(self, z, rings: RingGrid | None = None):
        """u at z; pass the rule's rings when z are its ring-major nodes.

        With rings, log|z| is read from the ring radii, and a series whose
        coefficients are all 0 is not summed.
        """
        z = np.asarray(z, dtype=complex)
        if rings is None:
            out = np.real(self.series(z))
        elif self.series.coeffs.any():
            out = np.real(self.series(z, rings)).reshape(rings.radii.size, rings.n_theta)
        else:
            out = np.zeros((rings.radii.size, rings.n_theta))
        if self.alpha_log != 0.0:
            log_r = np.log(np.abs(z)) if rings is None else np.log(rings.radii)[:, None]
            out += self.alpha_log * log_r
        return out.reshape(z.shape)

    def analytic_derivative(self) -> LaurentSeries:
        """Single-valued derivative w'(z) = 2 du/dz of the completion u + i*conj."""
        s = self.series
        m = s.powers
        keep = (m != 0) & (s.coeffs != 0.0)
        powers, terms = m[keep] - 1, m[keep] * s.coeffs[keep]
        if self.alpha_log != 0.0:
            # Power -1 would come from m = 0 alone, which the series drops.
            powers, terms = np.append(powers, -1), np.append(terms, self.alpha_log)
        return LaurentSeries.from_terms(powers, terms)

    def __add__(self, other: "HarmonicFunctionRep") -> "HarmonicFunctionRep":
        a, b = self.series, other.series
        series = LaurentSeries.from_terms(np.append(a.powers, b.powers), np.append(a.coeffs, b.coeffs))
        return HarmonicFunctionRep(self.alpha_log + other.alpha_log, series)

    def scaled(self, factor: float) -> "HarmonicFunctionRep":
        return HarmonicFunctionRep(
            factor * self.alpha_log, LaurentSeries.from_terms(self.series.powers, factor * self.series.coeffs)
        )


@dataclass(frozen=True)
class PoleDerivative:
    """Evaluator 1/(z - pole) + regular(z), the derivative 2 dG/dz."""

    pole: complex
    regular: LaurentSeries

    def __call__(self, z, rings: RingGrid | None = None):
        z = np.asarray(z, dtype=complex)
        return 1.0 / (z - self.pole) + self.regular(z, rings)

    def pole_factor(self, z, rings: RingGrid | None = None):
        """(z - pole) * h'(z), analytic and equal to 1 at the pole."""
        z = np.asarray(z, dtype=complex)
        return 1.0 + (z - self.pole) * self.regular(z, rings)


@dataclass(frozen=True)
class GreenFunctionRep:
    """Green function log|z - w| + correction, vanishing on the boundary.

    It keeps, for its lifetime, a memo of every rule built about its pole
    by `area_rule` and `boundary_rule`, and of tables built for those rules
    by `rule_table`.  G on a memoized rule's nodes (and dG/dnu on a
    boundary rule's) is such a table: `value` and `normal_derivative`,
    given that rule's own nodes (and signs) with its rings, evaluate it
    on first read and return it from then on, so a rule whose densities
    never read G never evaluates it.  An entry is built once, by
    whichever thread asks first, and its arrays are read-only, so every
    configuration sharing this Green function (the points of a sweep, an
    order-k configuration and its reduction) reads the same values.
    """

    domain: DomainSpec
    pole: complex
    correction: HarmonicFunctionRep
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _known: dict = field(default_factory=dict, init=False, repr=False, compare=False)  # id(rings) -> rule
    _lock: threading.Lock = field(default_factory=threading.Lock, init=False, repr=False, compare=False)

    def _memoized(self, key: tuple, build):
        """The memo's entry for key, built by build() on first use."""
        with self._lock:
            entry = self._memo.setdefault(key, [threading.Lock(), None])
        with entry[0]:
            if entry[1] is None:
                entry[1] = build()
        return entry[1]

    def _rule_on(self, z, rings: RingGrid | None) -> AreaQuadrature | BoundaryQuadrature | None:
        """The rule built here with these rings, when z are its nodes."""
        if rings is None:
            return None
        with self._lock:
            rule = self._known.get(id(rings))
        return rule if rule is not None and z is rule.nodes else None

    def _remember(self, rule: AreaQuadrature | BoundaryQuadrature) -> None:
        """Make the rule's radii and array fields read-only, and know it by its rings."""
        rule.rings.radii.flags.writeable = False
        for f in fields(rule):
            array = getattr(rule, f.name)
            if isinstance(array, np.ndarray):
                array.flags.writeable = False
        with self._lock:
            self._known[id(rule.rings)] = rule

    def area_rule(self, radial_cells: int, angular_cells: int, patch_levels: int | None) -> AreaQuadrature:
        """`geometry.area_quadrature` about the pole, built once.

        patch_levels None is the rule with no refinement ring.
        """

        def build():
            aq = area_quadrature(self.domain, self.pole, radial_cells, angular_cells, patch_levels=patch_levels)
            self._remember(aq)
            return aq

        return self._memoized(("area", radial_cells, angular_cells, patch_levels), build)

    def rule_table(self, rings: RingGrid, key: tuple, build):
        """build() for the memoized rule with these rings, made once per key and read-only.

        The table is an array or a tuple, whose arrays (in nested tuples
        too) are made read-only.  It lives in the memo, as long as its rule.
        rings of a rule not built here get a fresh build() on every call.
        """
        with self._lock:
            # A memoized rule stays alive, so no other live RingGrid has its id.
            memoized = id(rings) in self._known

        def make():
            table = build()
            _freeze(table)
            return table

        return self._memoized(("table", id(rings), *key), make) if memoized else build()

    def boundary_rule(self, nodes_per_component: int) -> BoundaryQuadrature:
        """`geometry.boundary_quadrature`, built once."""

        def build():
            bq = boundary_quadrature(self.domain, nodes_per_component)
            self._remember(bq)
            return bq

        return self._memoized(("boundary", nodes_per_component), build)

    def value(self, z, rings: RingGrid | None = None):
        """G at z; the memo's table when z are a memoized rule's nodes and rings its RingGrid."""
        if self._rule_on(z, rings) is not None:
            return self.rule_table(rings, ("g",), lambda: self._value(z, rings))
        return self._value(z, rings)

    def _value(self, z, rings: RingGrid | None):
        z = np.asarray(z, dtype=complex)
        g = np.abs(z - self.pole)
        # -inf at the pole itself is the correct value.
        with np.errstate(divide="ignore"):
            g = np.log(g, out=_writable(g))
            g += self.correction.value(z, rings)
        return g

    @property
    def robin_constant(self) -> float:
        """Finite part of G at the pole, lim (G - log|z - w|)."""
        return float(self.correction.value(self.pole))

    def derivative(self) -> PoleDerivative:
        """2 dG/dz."""
        return PoleDerivative(self.pole, self.correction.analytic_derivative())

    def normal_derivative(self, zeta, signs, rings: RingGrid | None = None):
        """dG/dnu at boundary points; signs +1 outer circle, -1 inner.

        The memo's table when zeta and signs are a memoized boundary
        rule's nodes and normal_signs and rings its RingGrid.
        """
        rule = self._rule_on(zeta, rings)
        if isinstance(rule, BoundaryQuadrature) and signs is rule.normal_signs:
            return self.rule_table(rings, ("dg_dnu",), lambda: self._normal_derivative(zeta, signs, rings))
        return self._normal_derivative(zeta, signs, rings)

    def _normal_derivative(self, zeta, signs, rings: RingGrid | None):
        zeta = np.asarray(zeta, dtype=complex)
        h = self.derivative()
        return np.asarray(signs, dtype=float) * np.real(zeta / np.abs(zeta) * h(zeta, rings))


def _writable(x):
    """x as the out= of an in-place ufunc, or None for a 0-d value (numpy scalars take no out=)."""
    return x if np.ndim(x) else None


def _freeze(table) -> None:
    """Make an array, or every array in a (nested) tuple, read-only."""
    if isinstance(table, np.ndarray):
        table.flags.writeable = False
    elif isinstance(table, tuple):
        for item in table:
            _freeze(item)


def _auto_truncation(ratio: float) -> int:
    if ratio <= 0.0:
        return _MIN_TERMS
    need = int(np.ceil(np.log(_TAIL_TOL) / np.log(ratio))) + 8
    return int(min(max(need, _MIN_TERMS), _MAX_TERMS))


def green(domain: DomainSpec, w: complex) -> GreenFunctionRep:
    """Green function of the domain with pole at the interior point w."""
    w = complex(w)
    if not domain.contains(w):
        raise ValueError(f"pole {w} is not interior")
    if domain.boundary_clearance(w) < 1e-3:
        raise PoleTooCloseToBoundary(
            f"pole {w} within 1e-3 of the boundary; expansion ill-conditioned"
        )
    # The correction's trace is -log|zeta - w|: Re sum conj(w)^n zeta^n / n
    # on the unit circle, and -log|w| + Re sum (zeta / w)^n / n on |zeta| = q.
    if domain.kind == "disc":
        if abs(w) == 0.0:
            return GreenFunctionRep(domain, w, HarmonicFunctionRep.zero())
        n = np.arange(1, _auto_truncation(abs(w)) + 1)
        return GreenFunctionRep(domain, w, _match_traces(domain, [0.0], [np.conj(w) ** n / n]))
    q = domain.q
    n = np.arange(1, _auto_truncation(max(abs(w), q / abs(w))) + 1)
    means = [0.0, -np.log(abs(w))]
    return GreenFunctionRep(domain, w, _match_traces(domain, means, [np.conj(w) ** n / n, (q / w) ** n / n]))


def _match_traces(domain: DomainSpec, means, modes) -> HarmonicFunctionRep:
    """The harmonic function whose trace on boundary component i is
    means[i] + Re sum_{n >= 1} modes[i][n - 1] exp(i n theta).

    Component 0 is the unit circle and 1 the inner circle |z| = q.  On the
    disc C_0 = means[0] and C_n = modes[0][n - 1].  On the annulus the log
    mode takes the means' difference, and each n solves
    C_n + conj(C_-n) = outer and C_n q^n + conj(C_-n) q^-n = inner.
    """
    n = np.arange(1, len(modes[0]) + 1)
    if domain.kind == "disc":
        return HarmonicFunctionRep(0.0, LaurentSeries.from_terms(np.append(0, n), np.append(means[0], modes[0])))
    q = domain.q
    outer, inner = modes
    qn = q**n
    y = (inner * qn - outer * qn**2) / (1.0 - qn**2)  # conj(C_-n)
    alpha = (means[1] - means[0]) / np.log(q)
    powers = np.concatenate([[0], n, -n])
    values = np.concatenate([[means[0]], outer - y, np.conj(y)])
    return HarmonicFunctionRep(alpha, LaurentSeries.from_terms(powers, values))


def log_capacity(domain: DomainSpec, z0: complex) -> float:
    """exp of the Robin constant of the Green function at z0."""
    return float(np.exp(green(domain, z0).robin_constant))


def dirichlet_solve(domain: DomainSpec, boundary_data, m_max: int | None = None) -> HarmonicFunctionRep:
    """Harmonic extension of per-component samples at equispaced angles.

    boundary_data[i][j] is the datum at angle 2*pi*j/N on component i
    (component 0 the outer circle).  Data must be analytic in the angle;
    the residual at the sample nodes is checked after matching.
    """
    data = [np.asarray(d, dtype=float) for d in boundary_data]
    if len(data) != len(domain.component_radii):
        raise ValueError("one data array per boundary component required")
    n_nodes = len(data[0])
    if any(len(d) != n_nodes for d in data):
        raise ValueError("all components must use the same node count")
    if m_max is None:
        m_max = n_nodes // 2 - 1
    if m_max > n_nodes // 2 - 1:
        raise ValueError("truncation exceeds what the samples determine")
    hat = [np.fft.fft(d) / n_nodes for d in data]
    rep = _match_traces(domain, [float(np.real(h[0])) for h in hat], [2.0 * h[1 : m_max + 1] for h in hat])
    # Residual check at the sample nodes.
    worst = 0.0
    for radius, d in zip(domain.component_radii, data):
        theta = _TWO_PI * np.arange(n_nodes) / n_nodes
        zeta = radius * np.exp(1j * theta)
        worst = max(worst, float(np.max(np.abs(rep.value(zeta) - d))))
    if worst > 1e-6:
        raise TruncationInsufficient(
            f"boundary trace residual {worst:.3e} exceeds 1e-6; raise node count"
        )
    return rep


def character_exponent(domain: DomainSpec, h) -> float:
    """Conjugate-period exponent of h around the hole, in [0, 1): its stored log mode mod 1.

    It is alpha of the loop group's character exp(2 pi i alpha).  h may be
    a HarmonicFunctionRep or a GreenFunctionRep, whose exponent is that of
    its correction.  On the disc the character group is trivial.
    """
    if domain.kind == "disc":
        return 0.0
    rep = h.correction if isinstance(h, GreenFunctionRep) else h
    return float(rep.alpha_log) % 1.0
