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
    ResolutionTooCoarse,
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
from kernelgauge.kernels import Measure, area_measure, area_quadrature_for, boundary_measure, side_measure
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
    basis_schedule=(8, 16), boundary_nodes=256, radial_cells=192, angular_cells=128, patch_levels=32,
)


# ------------------------------------------------------------------- gram


def test_gram_disc_area_moments():
    basis = BasisDescriptor.create(disc(), 2, 0.0, 0)
    aq = area_quadrature(disc(), 0.0, 256, 48)
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
    aq = area_quadrature(annulus(0.25), 0.5, 128, 96, patch_levels=24)
    m = gram(basis, area_measure(cfg, aq)).entries
    assert np.max(np.abs(m - m.conj().T)) == 0.0
    eigs = np.linalg.eigvalsh(m)
    assert eigs[0] > 0.0


def _assert_moment_gram_matches_dense(basis, measure):
    moments = gram(basis, measure).entries
    dense = gram(basis, dataclasses.replace(measure, rings=None)).entries
    assert np.all(np.isfinite(moments))
    assert np.max(np.abs(moments - dense)) <= 1e-13 * np.max(np.abs(dense))


RING_RES = Resolution(basis_schedule=(4, 8), boundary_nodes=40, radial_cells=48, angular_cells=40,
                      patch_levels=12)
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
        assert len(measure.rings.radii) == len(domain.component_radii)
    else:
        # The graded patch ring adds rings to the global radial grid.
        assert len(measure.rings.radii) > res.radial_cells
    _assert_moment_gram_matches_dense(basis, measure)


@pytest.mark.parametrize("domain,z0,u", RING_CASES, ids=["disc-center", "disc-off", "annulus", "annulus-off"])
def test_band_free_gram_matches_graded_on_smooth_density(domain, z0, u):
    # A density smooth at z0 gets the area rule with no refinement ring, a
    # memo entry of its own, whose Gram equals the graded rule's to roundoff.
    cfg = _cfg(domain, z0, u=u)
    res = dataclasses.replace(RING_RES, radial_cells=64)
    basis = BasisDescriptor.create(domain, res.n_max, z0, 0)
    measure = side_measure(cfg, "bergman", res)
    assert measure.rings is cfg.green_rep.area_rule(res.radial_cells, res.angular_cells, None).rings
    assert len(measure.rings.radii) <= res.radial_cells + 8
    _assert_moment_gram_matches_dense(basis, measure)
    graded = gram(basis, area_measure(cfg, area_quadrature_for(cfg, res))).entries
    assert np.max(np.abs(gram(basis, measure).entries - graded)) <= 1e-13 * np.max(np.abs(graded))


@pytest.mark.parametrize(
    "a_g,c", [(0.0, CProfile.exp_delta(0.3)), (0.0, CProfile.poly(1.5)), (0.4, CProfile.constant_one())],
    ids=["exp_delta", "poly", "a_g"],
)
def test_singular_density_keeps_the_graded_rule(a_g, c):
    cfg = _cfg(annulus(0.25), 0.5, a_g=a_g, c=c)
    assert side_measure(cfg, "bergman", RING_RES).rings is area_quadrature_for(cfg, RING_RES).rings


def test_power_table_built_once_per_rule_and_freed_with_green_function(monkeypatch):
    # The points of a sweep share one Green function, and through its memo
    # one power table per rule: the 1x and 2x area and boundary rules.  The
    # tables go when the Green function goes.
    import gc
    import weakref

    import kernelgauge.kernels as kernels_module
    from kernelgauge.potential import green

    tables = []
    real = kernels_module._powers

    def recorded(doubled, radii, columns):
        table = real(doubled, radii, columns)
        tables.append(weakref.ref(table))
        return table

    monkeypatch.setattr(kernels_module, "_powers", recorded)
    shared = green(annulus(0.25), 0.5)
    res = Resolution(basis_schedule=(4, 8), boundary_nodes=64, radial_cells=48, angular_cells=40, patch_levels=12)
    for alpha in np.linspace(-0.4, 0.5, 9):
        u = HarmonicFunctionRep.log_mode(alpha)
        cfg = WeightConfig(annulus(0.25), 0.5, 0, PsiSpec(1.0), PhiSpec(0.0, u), CProfile.constant_one(), shared)
        for side in ("szego", "bergman"):
            kernel_diag(cfg, side, res)
    assert len(tables) == 4
    assert not any(ref().flags.writeable for ref in tables)
    del cfg, shared
    gc.collect()
    assert all(ref() is None for ref in tables)


def _arrays(table):
    """Every array of a read-out table, nested tuples and the doubled basis included."""
    if isinstance(table, np.ndarray):
        yield table
    elif isinstance(table, BasisDescriptor):
        yield from (table.exponents, table.scales)
    elif isinstance(table, tuple):
        for item in table:
            yield from _arrays(item)


def test_read_out_tables_are_read_only_and_give_the_fresh_gram(monkeypatch):
    # A rule in the memo keeps one set of read-out tables per basis order,
    # shared by every Gram on it; a Gram that reads them equals one built
    # with memo=None, bit for bit.
    import kernelgauge.kernels as kernels_module

    built = []
    real = kernels_module._ring_tables

    def recorded(basis, rings):
        tables = real(basis, rings)
        built.append(tables)
        return tables

    monkeypatch.setattr(kernels_module, "_ring_tables", recorded)
    memoized = []
    for domain, z0, u in RING_CASES:
        cfg = _cfg(domain, z0, k=1, u=u, c=CProfile.exp_delta(-0.4))
        basis = BasisDescriptor.create(domain, RING_RES.n_max, z0, 1)
        for side in ("bergman", "szego"):
            measure = side_measure(cfg, side, RING_RES)
            weights = measure.wdensity.reshape(len(measure.rings.radii), measure.rings.n_theta)
            fresh = kernels_module._moment_gram(basis, measure.rings, weights).entries
            for _ in range(3):
                assert np.array_equal(gram(basis, measure).entries, fresh)
            memoized.append(built[-1])
    assert len(built) == 2 * len(memoized)
    for tables in memoized:
        arrays = list(_arrays(tables))
        assert len(arrays) >= 12
        for array in arrays:
            with pytest.raises(ValueError):
                array.flat[0] = array.flat[0]


def _jet_rows_by_loop(basis):
    """The jet rows term by term: f^(j)(z0)/j! of each scaled monomial, its falling factorial taken afresh."""
    rows = np.zeros((basis.k + 1, len(basis.exponents)), dtype=complex)
    for j in range(basis.k + 1):
        for i, n in enumerate(basis.exponents):
            ff = 1.0
            for step in range(j):
                ff *= n - step
            if ff == 0.0:
                continue
            rows[j, i] = ff / math.factorial(j) * basis.z0 ** (n - j) / basis.scales[i]
    return rows


_JET_CASES = [
    (domain, z0)
    for domain in (disc(), annulus(0.25))
    for z0 in (0.0, 0.5, 0.4 * np.exp(1.3j), -0.3 + 0.2j)
    if domain.contains(z0)  # z0 = 0 lies in the annulus's hole
]


@pytest.mark.parametrize("domain,z0", _JET_CASES)
@pytest.mark.parametrize("k", [0, 1, 2, 3])
@pytest.mark.parametrize("n_max", [8, 48])
def test_jet_rows_match_the_term_loop_bit_for_bit(domain, z0, k, n_max):
    basis = BasisDescriptor.create(domain, n_max, z0, k)
    system = basis.constraints()
    reference = _jet_rows_by_loop(basis)
    assert system.rows.dtype == reference.dtype and system.rows.shape == reference.shape
    assert np.array_equal(system.rows.view(np.uint8), reference.view(np.uint8))
    assert np.array_equal(system.target, np.eye(k + 1)[-1])


def test_moment_gram_deep_annulus_stays_finite():
    # (r / sqrt(q))^sigma would overflow here (n_max ln(1/q) = 737); the
    # scaled power table and couplings c_ij <= 1 stay finite, although the
    # basis scales q^-n themselves overflow.
    domain = annulus(0.01)
    cfg = _cfg(domain, 0.3, u=HarmonicFunctionRep.log_mode(-0.5))
    with np.errstate(over="ignore"):
        basis = BasisDescriptor.create(domain, 160, 0.3, 0)
    aq = area_quadrature(domain, 0.3, 48, 64)
    _assert_moment_gram_matches_dense(basis, area_measure(cfg, aq))
    _assert_moment_gram_matches_dense(basis, boundary_measure(cfg, boundary_quadrature(domain, 384)))


def test_moment_gram_subnormal_powers():
    # The patch ring at the disc center reaches 5e-10, so the power table
    # r^sigma passes through the subnormal range there.
    cfg = _cfg(disc(), 0.0, c=CProfile.exp_delta(-0.4))
    aq = area_quadrature(disc(), 0.0, 64, 96, patch_levels=56)
    inner = np.min(aq.rings.radii)
    assert inner < 1e-9
    powers = inner ** np.arange(65.0)
    assert np.any((powers > 0.0) & (powers < np.finfo(float).tiny))
    _assert_moment_gram_matches_dense(BasisDescriptor.create(disc(), 32, 0.0, 0), area_measure(cfg, aq))


@pytest.mark.parametrize("n_theta", [8, 12, 16, 24, 32])
@pytest.mark.parametrize("domain", [disc(), annulus(0.25)], ids=["disc", "annulus"])
def test_moment_gram_aliases_as_the_dense_sum(domain, n_theta):
    # With n_theta <= 4 n_max, exponent differences alias modulo n_theta;
    # the moment Gram keeps the aliasing of the dense sum.
    cfg = _cfg(domain, 0.5, u=HarmonicFunctionRep.from_coefficients(0.1, {1: 0.2j}))
    basis = BasisDescriptor.create(domain, 8, 0.5, 0)
    aq = area_quadrature(domain, 0.5, 24, n_theta)
    _assert_moment_gram_matches_dense(basis, area_measure(cfg, aq))
    _assert_moment_gram_matches_dense(basis, boundary_measure(cfg, boundary_quadrature(domain, max(n_theta, 8))))


def _full_table_gram(basis, rings, ring_weights, pieces=None):
    """The moment Gram with the whole mu[sigma, delta] table contracted, parities mixed.

    The reference for the parity-split `_moment_gram`: every sum sigma of
    the doubled basis against every difference delta, one einsum per ring
    chunk, then the same read-out.
    """
    import kernelgauge.kernels as kernels_module

    n, exps = rings.n_theta, basis.exponents
    with np.errstate(over="ignore"):
        doubled = BasisDescriptor.create(basis.domain, 2 * basis.n_max, basis.z0, basis.k)

    def powers(radii):
        p = np.ascontiguousarray(doubled.matrix(radii).real)
        p[p < np.finfo(float).tiny] = 0.0
        return p

    shift = np.arange(int(exps.max() - exps.min()) + 1) % n
    fold = np.minimum(shift, n - shift)
    d, ns = fold.size, doubled.exponents.size
    table = powers(rings.radii)
    moments = np.zeros((ns, 2 * d))
    step = max(1, kernels_module._SPECTRA_CHUNK_BYTES // (16 * (n // 2 + 1)))
    for start in range(0, len(rings.radii), step):
        sl = slice(start, start + step)
        spectra = np.fft.rfft(ring_weights[sl], axis=1)[:, fold]
        moments += np.einsum("rs,rd->sd", table[sl], np.concatenate([spectra.real, spectra.imag], axis=1))
    if pieces is not None:
        radii, angle, weights = pieces
        slots = (angle[:, None] * ns + np.arange(ns)).ravel()
        binned = np.bincount(slots, weights=(weights[:, None] * powers(radii)).ravel(), minlength=n * ns)
        spectra = np.fft.rfft(binned.reshape(n, ns), axis=0)[fold]
        moments[:, :d] += spectra.real.T
        moments[:, d:] += spectra.imag.T
    mu = moments[:, :d] + 1j * (np.where(shift <= n // 2, -1.0, 1.0) * moments[:, d:])
    low = int(doubled.exponents.min())
    column = np.empty(int(doubled.exponents.max()) - low + 1, dtype=int)
    column[doubled.exponents - low] = np.arange(ns)
    sigma = exps[:, None] + exps[None, :]
    delta = exps[None, :] - exps[:, None]
    upper = mu[column[sigma - low], np.abs(delta)] * np.exp(1j * rings.theta0 * np.abs(delta))
    upper = upper * kernels_module._coupling(basis, sigma)
    return np.where(delta < 0, upper.conj(), upper)


@pytest.mark.parametrize("n_max", [8, 16])
@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("side", ["bergman", "szego"])
@pytest.mark.parametrize("domain,z0,u", RING_CASES, ids=["disc-center", "disc-off", "annulus", "annulus-off"])
def test_parity_split_gram_is_the_full_table_gram(domain, z0, u, side, k, n_max):
    # Contracting each parity class of sums with the differences of its
    # parity only leaves every entry's sum as it was, bit for bit.  With
    # n_max = 16 the differences alias modulo n_theta = 40.
    cfg = _cfg(domain, z0, k=k, u=u, c=CProfile.exp_delta(-0.4))
    measure = side_measure(cfg, side, RING_RES)
    basis = BasisDescriptor.create(domain, n_max, z0, k)
    ring_weights = measure.wdensity.reshape(len(measure.rings.radii), measure.rings.n_theta)
    assert np.array_equal(gram(basis, measure).entries, _full_table_gram(basis, measure.rings, ring_weights))


@pytest.mark.parametrize("domain,z0,u", RING_CASES[1:3], ids=["disc-off", "annulus"])
def test_parity_split_masked_gram_is_the_full_table_gram(domain, z0, u):
    # A masked rule's Gram adds its clipped pieces to the same parity classes.
    from kernelgauge.gfunctional import _masked_gram, _sublevel_masks

    cfg = _cfg(domain, z0, u=u, c=CProfile.exp_delta(-0.4))
    aq = area_quadrature_for(cfg, RING_RES)
    basis = BasisDescriptor.create(domain, RING_RES.n_max, z0, 0)
    rho = cfg.rho(aq.nodes, aq.rings)
    for masked in _sublevel_masks(cfg, aq, [0.4, 1.2], "below"):
        assert masked.nodes.size > 0
        whole = np.where(masked.kept, aq.weights * rho, 0.0).reshape(len(aq.rings.radii), aq.rings.n_theta)
        pieces = (np.abs(masked.nodes), masked.angle, masked.weights * cfg.rho(masked.nodes))
        expected = _full_table_gram(basis, aq.rings, whole, pieces)
        assert np.array_equal(_masked_gram(cfg, basis, aq, rho, masked).entries, expected)


def test_masked_rule_gram_is_dense_and_exact():
    # Clipping the disc to |z| < 0.6 leaves no ring structure; the dense
    # Gram of the clipped rule, its kept parent cells and then its pieces,
    # reproduces the moments of the smaller disc.  Masked rules are first
    # order in the radial panel width, so this one keeps 2048 radial cells:
    # at 512 the error is 1.2 times the bound, at 256 three times.
    rho = 0.6
    aq = area_quadrature(disc(), 0.0, 2048, 32)
    (masked,) = mask_quadrature(aq, lambda z, rings=None: np.log(np.abs(z)), [math.log(rho)])
    kept = masked.kept
    nodes = np.concatenate([aq.nodes[kept], masked.nodes])
    weights = np.concatenate([aq.weights[kept], masked.weights])
    basis = BasisDescriptor.create(disc(), 4, 0.0, 0)
    m = gram(basis, Measure(nodes, weights)).entries
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


@pytest.mark.parametrize("delta", [0.3, 0.6])
def test_graded_ring_closed_form(delta):
    # Centred disc with exp_delta: B = (1 - delta) / pi exactly, and the
    # density |z|^(-2 delta) is singular at z0 = 0, inside the graded ring.
    # delta = 0.84 is left out: there the error (4e-4) exceeds its own
    # estimate, because doubling the resolution leaves the innermost
    # panels of the ring unchanged, so the estimate cannot see them.
    cfg = _cfg(disc(), 0.0, c=CProfile.exp_delta(delta))
    got = kernel_diag(cfg, "bergman", Resolution(basis_schedule=(8, 16, 32), radial_cells=128, angular_cells=160))
    assert abs(math.pi * got.value / (1 - delta) - 1) < 3 * got.total_estimate / got.value


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("side", ["bergman", "szego"])
@pytest.mark.parametrize("domain,z0,u", RING_CASES[1:3], ids=["disc", "annulus"])
def test_schedule_minima_match_separate_prefix_solves(domain, z0, u, side, k):
    # One factor of the whole Gram serves every prefix of the schedule.
    cfg = _cfg(domain, z0, k=k, u=u)
    res = dataclasses.replace(RING_RES, basis_schedule=(4, 8, 12, 16), boundary_nodes=80, angular_cells=80)
    basis = BasisDescriptor.create(domain, res.n_max, z0, k)
    full = gram(basis, side_measure(cfg, side, res))
    constraints = basis.constraints()
    sizes = [basis.size(n) for n in res.basis_schedule]
    for s, result in zip(sizes, constrained_min(full, constraints, sizes)):
        reference = constrained_min(full.principal(s), constraints.restricted(s))
        assert abs(result.value - reference.value) <= 1e-13 * reference.value


def test_kernel_diag_factors_one_gram_per_level(monkeypatch):
    from kernelgauge import numerics

    calls = []
    real = numerics.cho_factor

    def counted(matrix):
        calls.append(matrix.shape[0])
        return real(matrix)

    monkeypatch.setattr(numerics, "cho_factor", counted)
    kernel_diag(_cfg(annulus(0.25), 0.5), "szego", FAST_ANNULUS)
    assert calls == [33, 33]


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
    res = Resolution(basis_schedule=(8, 16, 32), radial_cells=256, angular_cells=160)
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
    res = Resolution(basis_schedule=(8, 16), radial_cells=192, angular_cells=96, boundary_nodes=160)
    for side in ("szego", "bergman"):
        assert max(reproducing_residual(cfg, side, (0, 3), res)) < 1e-8


def test_reproducing_residuals_annulus_negative_mode():
    cfg = _cfg(annulus(0.25), 0.5)
    assert reproducing_residual(cfg, "szego", [-2], FAST_ANNULUS)[0] < 1e-6


def test_reproducing_residual_builds_its_rule_once(monkeypatch):
    # Rules are built through the memo of the config's Green function.
    import kernelgauge.potential as potential_module

    builds = []
    real = potential_module.area_quadrature

    def counting(*args, **kwargs):
        builds.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(potential_module, "area_quadrature", counting)
    cfg = _cfg(disc(), 0.5)
    res = Resolution(basis_schedule=(8,), radial_cells=96, angular_cells=64)
    assert max(reproducing_residual(cfg, "bergman", (0, 1, 2), res)) < 1e-8
    assert len(builds) == 1


def test_sections_coincide_in_matched_configs():
    # In extremal-family configurations the normalized Hardy and Bergman
    # kernel sections are one and the same function.
    res_d = Resolution(basis_schedule=(8, 16, 32), radial_cells=256, angular_cells=160,
                       boundary_nodes=256)
    cfg_d = _cfg(disc(), 0.3)
    sec_k = kernel_section(cfg_d, "szego", res_d)
    sec_b = kernel_section(cfg_d, "bergman", res_d)
    grid = np.array([0.5 + 0.2j, -0.4, 0.7j, 0.9])
    assert np.max(np.abs(sec_k(grid) - sec_b(grid))) < 1e-6

    res_a = Resolution(basis_schedule=(8, 16, 32), boundary_nodes=512, radial_cells=512,
                       angular_cells=256)
    cfg_a = _cfg(annulus(0.25), 0.5, u=HarmonicFunctionRep.log_mode(-0.5))
    sec_k = kernel_section(cfg_a, "szego", res_a)
    sec_b = kernel_section(cfg_a, "bergman", res_a)
    grid = np.array([0.3 + 0.2j, -0.6, 0.45j, 0.9])
    assert np.max(np.abs(sec_k(grid) - sec_b(grid))) < 1e-5


def test_resolution_guard():
    cfg = _cfg(disc(), 0.0)
    with pytest.raises(ValueError):
        kernel_diag(cfg, "szego", Resolution(basis_schedule=(8, 64), boundary_nodes=128))


def test_resolution_guard_covers_radii():
    # The refined level keeps the radial cells, so they must outnumber the
    # basis order themselves.
    cfg = _cfg(annulus(0.25), 0.5)
    res = Resolution(basis_schedule=(8, 16, 48), boundary_nodes=256, radial_cells=48, angular_cells=256)
    with pytest.raises(ResolutionTooCoarse):
        kernel_diag(cfg, "bergman", res)
    kernel_diag(cfg, "bergman", dataclasses.replace(res, radial_cells=56))


def test_deep_ring_off_center_kernel_is_finite():
    # At 2x the ring is 96 levels deep; without a floor on its depth, edges
    # met |z0| and the density went infinite on a ring.
    z0 = 0.6 * np.exp(1j * np.pi / 192)
    cfg = _cfg(disc(), z0, c=CProfile.exp_delta(0.3))
    got = kernel_diag(cfg, "bergman", Resolution(basis_schedule=(8, 16), radial_cells=128, angular_cells=96))
    assert np.isfinite(got.value) and got.value > 0.0
    assert np.isfinite(got.quadrature_estimate)
