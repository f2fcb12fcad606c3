import math

import numpy as np
import pytest

from kernelgauge import (
    Character,
    HarmonicFunctionRep,
    PoleTooCloseToBoundary,
    TruncationInsufficient,
    annulus,
    area_quadrature,
    boundary_quadrature,
    character_distance,
    character_exponent,
    dirichlet_solve,
    disc,
    green,
    log_capacity,
)
from kernelgauge import potential
from kernelgauge.geometry import RingGrid
from kernelgauge.potential import GreenFunctionRep, LaurentSeries
from kernelgauge.selftest import green_image_series, robin_image_series

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------- green


def test_disc_green_radial():
    g = green(disc(), 0.0)
    assert g.value(0.5) == pytest.approx(math.log(0.5), abs=1e-14)


def test_disc_green_moebius():
    g = green(disc(), 0.2)
    assert g.value(0.5) == pytest.approx(math.log(0.3 / 0.9), abs=1e-13)
    zs = np.array([0.3 + 0.4j, -0.6, 0.1 - 0.7j])
    exact = np.log(np.abs((zs - 0.2) / (1 - 0.2 * zs)))
    assert np.max(np.abs(g.value(zs) - exact)) < 1e-12


def test_annulus_green_image_series_oracle():
    g = green(annulus(0.25), 0.5)
    for z in (-0.5, 0.3 + 0.2j, 0.9, -0.1 - 0.4j):
        assert g.value(z) == pytest.approx(green_image_series(0.25, z, 0.5), abs=1e-8)


def test_green_boundary_trace_and_sign():
    for domain, w in ((disc(), 0.3 + 0.1j), (annulus(0.25), 0.5), (annulus(0.5), -0.6 + 0.3j)):
        g = green(domain, w)
        for radius in domain.component_radii:
            theta = TWO_PI * np.arange(64) / 64
            trace = g.value(radius * np.exp(1j * theta))
            assert np.max(np.abs(trace)) < 1e-8
        aq_r = np.linspace(domain.inner_radius + 0.05, 0.95, 7)
        pts = aq_r[:, None] * np.exp(1j * TWO_PI * np.arange(9) / 9)[None, :]
        interior = g.value(pts.ravel())
        assert np.all(interior < 0.0)


def test_green_symmetry():
    for domain in (disc(), annulus(0.25)):
        pairs = [(0.5, -0.3 + 0.2j), (0.3 + 0.3j, 0.6 - 0.1j)]
        for w, z in pairs:
            if not domain.contains(z) or not domain.contains(w):
                continue
            assert green(domain, w).value(z) == pytest.approx(
                green(domain, z).value(w), abs=1e-8
            )


def test_pole_too_close_raises():
    with pytest.raises(PoleTooCloseToBoundary):
        green(disc(), 0.9995)
    with pytest.raises(PoleTooCloseToBoundary):
        green(annulus(0.25), 0.2504)


# --------------------------------------------- normal derivative and flux


def test_normal_derivative_radial_pole():
    g = green(disc(), 0.0)
    bq = boundary_quadrature(disc(), 16)
    vals = g.normal_derivative(bq.nodes, bq.normal_signs)
    assert np.allclose(vals, 1.0, atol=1e-14)


def test_normal_derivative_poisson():
    g = green(disc(), 0.5)
    val = g.normal_derivative(np.array([1.0 + 0j]), np.array([1.0]))[0]
    assert val == pytest.approx((1 - 0.25) / abs(1 - 0.5) ** 2, abs=1e-12)


def test_flux_normalization():
    for domain, w in ((disc(), 0.4 - 0.2j), (annulus(0.25), 0.5), (annulus(0.5), 0.7j)):
        g = green(domain, w)
        bq = boundary_quadrature(domain, 256)
        flux = np.sum(bq.weights * g.normal_derivative(bq.nodes, bq.normal_signs))
        assert flux == pytest.approx(TWO_PI, abs=1e-8)
        vals = g.normal_derivative(bq.nodes, bq.normal_signs)
        assert np.all(vals > 0.0)


# ------------------------------------------------------------- capacity


def test_capacity_disc():
    assert log_capacity(disc(), 0.0) == pytest.approx(1.0, abs=1e-14)
    assert log_capacity(disc(), 0.5) == pytest.approx(1.0 / (1.0 - 0.25), abs=1e-13)


def test_capacity_annulus_oracle():
    got = log_capacity(annulus(0.25), 0.5)
    assert got == pytest.approx(math.exp(robin_image_series(0.25, 0.5)), abs=1e-8)


def test_capacity_rotation_invariance():
    base = log_capacity(annulus(0.25), 0.5)
    for theta in (0.7, 2.1, -1.3):
        rotated = log_capacity(annulus(0.25), 0.5 * np.exp(1j * theta))
        assert rotated == pytest.approx(base, abs=1e-10)


# ------------------------------------------------------------ dirichlet


def _samples(fn, radius, n):
    theta = TWO_PI * np.arange(n) / n
    return fn(radius * np.exp(1j * theta))


def test_dirichlet_disc_fourier_mode():
    u = dirichlet_solve(disc(), [_samples(np.real, 1.0, 64)])
    zs = np.array([0.3 + 0.4j, -0.2, 0.6j])
    assert np.max(np.abs(u.value(zs) - np.real(zs))) < 1e-12


def test_dirichlet_annulus_log_mode():
    n = 64
    u = dirichlet_solve(annulus(0.5), [np.zeros(n), np.full(n, math.log(0.5))])
    assert u.value(0.7) == pytest.approx(math.log(0.7), abs=1e-12)
    assert u.alpha_log == pytest.approx(1.0, abs=1e-12)


def test_dirichlet_annulus_analytic_data():
    n = 128
    data = [
        _samples(lambda z: -0.5 * np.log(np.abs(1 + z / 2) ** 2), r, n) for r in (1.0, 0.25)
    ]
    u = dirichlet_solve(annulus(0.25), data)
    for radius, d in zip((1.0, 0.25), data):
        resid = np.max(np.abs(u.value(radius * np.exp(1j * TWO_PI * np.arange(n) / n)) - d))
        assert resid < 1e-8


def test_dirichlet_truncation_insufficient():
    # Non-smooth data cannot be matched by a short expansion.
    n = 64
    theta = TWO_PI * np.arange(n) / n
    jagged = np.abs(theta - math.pi)
    with pytest.raises(TruncationInsufficient):
        dirichlet_solve(disc(), [jagged], m_max=4)


# ------------------------------------------------------------ characters


def test_character_green_harmonic_measure():
    alpha = character_exponent(annulus(0.25), green(annulus(0.25), 0.5))
    assert alpha.exponent == pytest.approx(0.5, abs=1e-10)
    # q = 0.2: the exponent agrees with the harmonic-measure weight
    # log 0.5 / log 0.2 up to the generator orientation.
    alpha2 = character_exponent(annulus(0.2), green(annulus(0.2), 0.5))
    omega = math.log(0.5) / math.log(0.2)
    assert min(
        character_distance(alpha2.exponent, omega),
        character_distance(-alpha2.exponent, omega),
    ) < 1e-10


def test_character_log_mode():
    alpha = character_exponent(annulus(0.25), HarmonicFunctionRep.log_mode(0.3))
    assert alpha.exponent == pytest.approx(0.3, abs=1e-12)


def test_character_disc_trivial():
    assert character_exponent(disc(), HarmonicFunctionRep.zero()).exponent == 0.0


def test_character_additivity():
    dom = annulus(0.25)
    h1 = HarmonicFunctionRep.log_mode(0.3)
    h2 = HarmonicFunctionRep.from_coefficients(0.45, {1: 0.2, -2: 0.1j})
    a1 = character_exponent(dom, h1).exponent
    a2 = character_exponent(dom, h2).exponent
    combo = h1.scaled(2.0) + h2.scaled(3.0)
    a_combo = character_exponent(dom, combo).exponent
    assert character_distance(a_combo, 2 * a1 + 3 * a2) < 1e-10


@pytest.mark.parametrize(
    "q,w",
    [(0.25, 0.5), (0.2, 0.5), (0.25, 0.2515), (0.25, 0.9985), (0.25, 0.7 * np.exp(1.1j)), (0.5, -0.6 + 0.2j)],
)
def test_character_of_green_is_its_harmonic_measure_exactly(q, w):
    # The exponent is minus the inner circle's harmonic measure log|w| / log q;
    # at q = 0.2, w = 0.5 the two signs differ (0.569 against 0.431).
    exact = (-np.log(abs(w)) / np.log(q)) % 1.0
    assert character_exponent(annulus(q), green(annulus(q), w)).exponent == exact


def _mid_circle_flux(domain, h, nodes=512):
    """(1/2pi) * integral of dh/dr over a mid-circle by the trapezoid rule, mod 1.

    The circle has radius sqrt(q), moved to the geometric mean of q and
    |pole| when that lies within 0.05 (1 - q) of a Green pole.
    """
    s = math.sqrt(domain.q)
    if isinstance(h, GreenFunctionRep):
        if abs(s - abs(h.pole)) < 0.05 * (1.0 - domain.q):
            s = math.sqrt(domain.q * abs(h.pole))
        deriv = h.derivative()
    else:
        deriv = h.analytic_derivative()
    zeta = s * np.exp(1j * TWO_PI * np.arange(nodes) / nodes)
    d_dr = np.real(zeta / s * deriv(zeta))
    return float(np.sum(d_dr) * s / nodes) % 1.0


@pytest.mark.parametrize(
    "q,h",
    [
        (0.25, green(annulus(0.25), 0.5)),
        (0.2, green(annulus(0.2), 0.5)),
        (0.25, green(annulus(0.25), 0.7 * np.exp(1.1j))),
        (0.5, green(annulus(0.5), -0.6 + 0.2j)),
        (0.25, HarmonicFunctionRep.from_coefficients(0.45, {1: 0.2, -2: 0.1j})),
        (0.3, HarmonicFunctionRep.from_coefficients(-1.3, {-3: 0.05 - 0.02j, 2: 0.4, 5: -0.1j})),
    ],
)
def test_character_matches_mid_circle_flux(q, h):
    alpha = character_exponent(annulus(q), h).exponent
    assert character_distance(alpha, _mid_circle_flux(annulus(q), h)) < 1e-13


def test_character_distance_range():
    assert Character(0.1).distance(Character(0.9)) == pytest.approx(0.2, abs=1e-14)
    assert Character(0.25).distance(Character(0.75)) == pytest.approx(0.5, abs=1e-14)


# --------------------------------------------------- analytic derivatives


def test_pole_derivative_disc_center():
    h = green(disc(), 0.0).derivative()
    zs = np.array([0.5, 0.2 + 0.3j])
    assert np.max(np.abs(h(zs) - 1.0 / zs)) < 1e-14


def test_pole_derivative_disc_moebius():
    h = green(disc(), 0.2).derivative()
    zs = np.array([0.5, -0.3 + 0.4j])
    exact = 1.0 / (zs - 0.2) + 0.2 / (1.0 - 0.2 * zs)
    assert np.max(np.abs(h(zs) - exact)) < 1e-12


def test_pole_derivative_residue():
    h = green(annulus(0.25), 0.5).derivative()
    theta = TWO_PI * np.arange(512) / 512
    circle = 0.5 + 0.1 * np.exp(1j * theta)
    integral = np.sum(h(circle) * 0.1j * np.exp(1j * theta)) * (TWO_PI / 512) / (2j * math.pi)
    assert abs(integral - 1.0) < 1e-8


def test_harmonic_derivative_formulas():
    u = HarmonicFunctionRep.from_coefficients(0.0, {1: 1.0})  # Re z
    w = u.analytic_derivative()
    zs = np.array([0.5 + 0.1j, -0.2])
    assert np.max(np.abs(w(zs) - 1.0)) < 1e-14

    u2 = HarmonicFunctionRep.log_mode(0.4)
    w2 = u2.analytic_derivative()
    assert np.max(np.abs(w2(zs) - 0.4 / zs)) < 1e-14
    assert character_exponent(annulus(0.25), u2).exponent == pytest.approx(0.4)

    u3 = HarmonicFunctionRep.from_coefficients(0.3, {2: 1.0})  # Re z^2 + 0.3 log|z|
    w3 = u3.analytic_derivative()
    exact = 2.0 * zs + 0.3 / zs
    assert np.max(np.abs(w3(zs) - exact)) < 1e-14
    # Cross-check along a ray with finite differences of the harmonic part.
    z = 0.5 + 0.1j
    h = 1e-6
    fd = (u3.value(z * (1 + h)) - u3.value(z * (1 - h))) / (2 * h)
    assert abs(np.real(z * w3(np.array([z]))[0]) - fd) < 1e-6


# ------------------------------------------------------ ring evaluation


def _rules(domain, w, factor):
    aq = area_quadrature(domain, w, 48 * factor, 40 * factor, patch_levels=12)
    return {"area": aq, "boundary": boundary_quadrature(domain, 40 * factor)}


@pytest.mark.parametrize("factor", [1, 2])
@pytest.mark.parametrize("rule", ["area", "boundary"])
@pytest.mark.parametrize(
    "domain,w",
    [(disc(), 0.0), (disc(), 0.45 + 0.2j), (disc(), 0.9), (annulus(0.25), 0.5), (annulus(0.25), -0.3 + 0.4j)],
    ids=["disc-center", "disc-off", "disc-near-edge", "annulus", "annulus-off"],
)
def test_ring_evaluation_matches_horner(domain, w, rule, factor):
    quad = _rules(domain, w, factor)[rule]
    z, rings = quad.nodes, quad.rings
    g = green(domain, w)
    h = g.derivative()
    # A series with harmonics on both sides of m = 0, whatever the pole.
    u = HarmonicFunctionRep.from_coefficients(0.2, {1: 0.3 - 0.1j, 3: 0.05j, -2: 0.01 * domain.q**2})
    pairs = [
        (g.correction.series(z, rings), g.correction.series(z)),
        (h(z, rings), h(z)),
        (u.value(z, rings), u.value(z)),
    ]
    if rule == "boundary":
        pairs.append((g.normal_derivative(z, quad.normal_signs, rings),
                      g.normal_derivative(z, quad.normal_signs)))
    for ring, horner in pairs:
        assert ring.shape == horner.shape
        assert np.max(np.abs(ring - horner)) <= 1e-13 * max(np.max(np.abs(horner)), 1e-300)
    # G vanishes on the boundary; measure its difference against the size
    # of the Laurent part, the only part the ring path sums.
    scale = max(np.max(np.abs(pairs[0][1])), 1.0)
    assert np.max(np.abs(g.value(z, rings) - g.value(z))) <= 1e-13 * scale


def test_ring_evaluation_aliases_long_series():
    # More terms than angles: the ring sum folds them modulo n_theta.
    bq = boundary_quadrature(disc(), 16)
    series = green(disc(), 0.9).correction.series
    assert len(series.coeffs) > 10 * bq.rings.n_theta
    horner = series(bq.nodes)
    ring = series(bq.nodes, bq.rings)
    assert np.max(np.abs(ring - horner)) <= 1e-13 * np.max(np.abs(horner))


def _ring_nodes(rings):
    """The ring-major nodes of a RingGrid."""
    theta = rings.theta0 + TWO_PI * np.arange(rings.n_theta) / rings.n_theta
    return (rings.radii[:, None] * np.exp(1j * theta)[None, :]).ravel()


def _assert_matches_horner(series, z, rings):
    horner = series(z)
    ring = series(z, rings)
    assert np.all(np.isfinite(ring))
    assert np.max(np.abs(ring - horner)) <= 1e-13 * np.max(np.abs(horner))
    return ring


def test_ring_evaluation_in_row_chunks_is_bit_identical(monkeypatch):
    # A chunk bound below one row's exponent block gives one row per chunk.
    domain = annulus(0.25)
    series = green(domain, 0.5).correction.series
    aq = area_quadrature(domain, 0.5, 48, 40, patch_levels=12)
    assert aq.rings.radii.size >= 3
    monkeypatch.setattr(potential, "_RING_CHUNK_BYTES", 1 << 40)
    whole = _assert_matches_horner(series, aq.nodes, aq.rings)
    monkeypatch.setattr(potential, "_RING_CHUNK_BYTES", 1)
    assert np.array_equal(series(aq.nodes, aq.rings), whole)


def test_ring_evaluation_aliases_on_both_sides_of_zero():
    # Exponents -52..52 on 16 angles: seven runs of slots, negative and
    # positive exponents aliasing onto the same slots.
    domain = annulus(0.25)
    series = green(domain, 0.5).correction.series
    bq = boundary_quadrature(domain, 16)
    assert len(series.coeffs) == 105 and series.m_min < -2 * bq.rings.n_theta
    _assert_matches_horner(series, bq.nodes, bq.rings)


def test_ring_evaluation_of_sparse_series():
    # Zero coefficients take no slot; the gapped series spans 45 exponents
    # on 16 angles, so its runs alias.
    domain = annulus(0.25)
    aq = area_quadrature(domain, 0.5, 24, 16, patch_levels=None)
    gapped = np.zeros(45, dtype=complex)
    for m, c in {-3: 0.02 - 0.01j, 0: 1.0, 2: 0.3j, 7: -0.1, 19: 0.05 + 0.02j, 41: 0.2}.items():
        gapped[m + 3] = c
    for series in (LaurentSeries(-3, gapped), LaurentSeries(-2, [0.01 + 0.02j])):
        _assert_matches_horner(series, aq.nodes, aq.rings)


def test_ring_evaluation_at_radius_zero():
    # A disc's corner grid has a ring at r = 0: r^0 = 1 and r^m = 0 for
    # m > 0 there, so that ring reads c_0 on every angle, with no NaN.
    # c_0 = 1 is read exactly; another c_0 is read as
    # exp(log|c_0|) exp(i arg c_0), to rounding.  Exponents 0..11 on 8
    # angles alias on the ring at r = 0.5.
    rings = RingGrid(np.array([0.0, 0.5]), 8, 0.0)
    z = _ring_nodes(rings)
    tail = 0.3 * (0.8 - 0.4j) ** np.arange(1, 12)
    for c0 in (1.0, -0.7 + 0.45j):
        series = LaurentSeries(0, np.concatenate([[c0], tail]))
        ring = series(z, rings).reshape(2, 8)
        assert not np.any(np.isnan(ring))
        if c0 == 1.0:
            assert np.array_equal(ring[0], np.full(8, c0))
        assert np.max(np.abs(ring[0] - c0)) <= 4e-16 * abs(c0)
        horner = series(z[8:])
        assert np.max(np.abs(ring[1] - horner)) <= 1e-13 * np.max(np.abs(horner))


def test_ring_evaluation_checks_node_count():
    bq = boundary_quadrature(annulus(0.25), 32)
    series = green(annulus(0.25), 0.5).correction.series
    with pytest.raises(ValueError, match="ring grid"):
        series(bq.nodes[:-1], bq.rings)


def test_ring_evaluation_near_pole_against_exact_sum():
    # |w| = 0.2515 sits 1.5e-3 from the inner circle: the inner expansion has
    # coefficients down in the subnormal range while q^-m overflows.  The ring
    # path must still reproduce the exact sum of the stored coefficients.
    mpmath = pytest.importorskip("mpmath")
    domain = annulus(0.25)
    series = green(domain, 0.2515).correction.series
    bq = boundary_quadrature(domain, 64)
    ring = series(bq.nodes, bq.rings)
    assert np.all(np.isfinite(ring))
    nonzero = np.flatnonzero(series.coeffs)
    with mpmath.workdps(40):
        terms = [(series.m_min + int(i), mpmath.mpc(complex(series.coeffs[i]))) for i in nonzero]
        picks = np.concatenate([np.arange(0, 64, 8), 64 + np.arange(0, 64, 4)])  # outer, inner circle
        for i in picks:
            zi = mpmath.mpc(complex(bq.nodes[i]))
            exact = complex(mpmath.fsum(c * zi**m for m, c in terms))
            assert abs(ring[i] - exact) <= 1e-12 * np.max(np.abs(ring))


@pytest.mark.parametrize(
    "domain,pole,reps",
    [
        (disc(), 0.3 - 0.2j, [HarmonicFunctionRep.from_coefficients(0.5, {1: 0.2 + 0.1j}), HarmonicFunctionRep.log_mode(0.7)]),
        (
            annulus(0.25),
            0.4 + 0.3j,
            [HarmonicFunctionRep.from_coefficients(0.3, {1: 0.1, -1: 0.05j}), HarmonicFunctionRep.log_mode(-0.5)],
        ),
    ],
    ids=["disc", "annulus"],
)
def test_harmonic_value_on_rings_matches_pointwise(domain, pole, reps):
    # With rings, log|z| comes from the ring radii and an all-zero series
    # is not summed; the pointwise path sums by Horner's rule and takes
    # log|z| node by node.  A pure log mode vanishes on the unit circle,
    # so it is compared on area rules only.
    g = green(domain, pole)
    reps = reps + [g.correction]
    rules = [(g.area_rule(48, 40, 12), False), (g.area_rule(48, 40, None), False), (g.boundary_rule(64), True)]
    for rule, boundary in rules:
        for rep in reps:
            if boundary and domain.kind == "disc" and not rep.series.coeffs.any():
                continue
            pointwise = rep.value(rule.nodes)
            on_rings = rep.value(rule.nodes, rule.rings)
            assert on_rings.shape == pointwise.shape
            assert np.max(np.abs(on_rings - pointwise)) <= 1e-15 * np.max(np.abs(pointwise))


# ------------------------------------------------------------ rule memo


def test_rule_memo_values_match_evaluation_and_are_read_only():
    g = green(annulus(0.25), 0.4 + 0.3j)
    aq = g.area_rule(48, 40, 12)
    bq = g.boundary_rule(64)
    assert g.area_rule(48, 40, 12) is aq and g.boundary_rule(64) is bq
    fresh = area_quadrature(annulus(0.25), 0.4 + 0.3j, 48, 40, patch_levels=12)
    assert np.array_equal(aq.nodes, fresh.nodes) and np.array_equal(aq.weights, fresh.weights)
    on_area = g.value(aq.nodes, aq.rings)
    on_boundary = g.value(bq.nodes, bq.rings)
    flux = g.normal_derivative(bq.nodes, bq.normal_signs, bq.rings)
    # A rule's own nodes (and signs) with its rings read the memo, the same
    # arrays every time; anything else evaluates anew, to the same bits.
    assert g.value(aq.nodes, aq.rings) is on_area and g.value(bq.nodes, bq.rings) is on_boundary
    assert g.normal_derivative(bq.nodes, bq.normal_signs, bq.rings) is flux
    fresh_area = g.value(aq.nodes.copy(), aq.rings)
    fresh_boundary = g.value(bq.nodes.copy(), bq.rings)
    fresh_flux = [
        g.normal_derivative(bq.nodes.copy(), bq.normal_signs, bq.rings),
        g.normal_derivative(bq.nodes, bq.normal_signs.copy(), bq.rings),
    ]
    for fresh, memo in [(fresh_area, on_area), (fresh_boundary, on_boundary)] + [(f, flux) for f in fresh_flux]:
        assert fresh is not memo and fresh.flags.writeable
        assert np.array_equal(fresh, memo)
    assert g.value(aq.nodes) is not on_area  # no rings: Horner, point by point
    shared = (aq.nodes, aq.weights, aq.inner, aq.outer, aq.angle_edges, aq.rings.radii, on_area,
              bq.nodes, bq.weights, bq.normal_signs, bq.rings.radii, on_boundary, flux)
    for array in shared:
        with pytest.raises(ValueError):
            array[0] = 0.0


def test_rule_memo_builds_once_across_threads(monkeypatch):
    import threading
    from concurrent.futures import ThreadPoolExecutor

    import kernelgauge.potential as potential

    real = potential.area_quadrature
    builds = []
    gate = threading.Barrier(4)

    def counted(*args, **kwargs):
        builds.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(potential, "area_quadrature", counted)
    g = green(disc(), 0.3)

    def ask(_):
        gate.wait()
        return g.area_rule(32, 24, 8)

    with ThreadPoolExecutor(max_workers=4) as pool:
        rules = list(pool.map(ask, range(4)))
    assert len(builds) == 1
    assert all(rule is rules[0] for rule in rules)


def _count_green_evaluations(monkeypatch, g):
    """Lists that grow by one on each evaluation of G (its correction) and of dG/dnu (its derivative) on g's rules."""
    import kernelgauge.potential as potential

    values, fluxes = [], []
    value, call = HarmonicFunctionRep.value, potential.PoleDerivative.__call__

    def counted_value(self, z, rings=None):
        if self is g.correction and rings is not None:
            values.append(rings)
        return value(self, z, rings)

    def counted_call(self, z, rings=None):
        if self.pole == g.pole and rings is not None:
            fluxes.append(rings)
        return call(self, z, rings)

    monkeypatch.setattr(HarmonicFunctionRep, "value", counted_value)
    monkeypatch.setattr(potential.PoleDerivative, "__call__", counted_call)
    return values, fluxes


def test_rule_memo_evaluates_green_on_first_read(monkeypatch):
    # Building a rule evaluates nothing on it; the first read of G (or of
    # dG/dnu) on its nodes evaluates it once, and later reads return it.
    g = green(annulus(0.25), 0.4 + 0.3j)
    values, fluxes = _count_green_evaluations(monkeypatch, g)
    aq = g.area_rule(48, 40, 12)
    bq = g.boundary_rule(64)
    assert values == [] and fluxes == []
    on_area = g.value(aq.nodes, aq.rings)
    assert values == [aq.rings]
    assert g.value(aq.nodes, aq.rings) is on_area and values == [aq.rings]
    flux = g.normal_derivative(bq.nodes, bq.normal_signs, bq.rings)
    assert fluxes == [bq.rings] and values == [aq.rings]
    assert g.normal_derivative(bq.nodes, bq.normal_signs, bq.rings) is flux and fluxes == [bq.rings]
    assert g.value(bq.nodes, bq.rings) is g.value(bq.nodes, bq.rings)
    assert values == [aq.rings, bq.rings]


def test_rule_memo_reads_green_once_across_threads(monkeypatch):
    import threading
    from concurrent.futures import ThreadPoolExecutor

    g = green(annulus(0.25), -0.3 + 0.4j)
    aq = g.area_rule(48, 40, 12)
    values, _ = _count_green_evaluations(monkeypatch, g)
    gate = threading.Barrier(4)

    def read(_):
        gate.wait()
        return g.value(aq.nodes, aq.rings)

    with ThreadPoolExecutor(max_workers=4) as pool:
        tables = list(pool.map(read, range(4)))
    assert values == [aq.rings]
    assert all(table is tables[0] for table in tables)
    with pytest.raises(ValueError):
        tables[0][0] = 0.0


def test_analytic_derivative_vectorized_matches_term_loop():
    rng = np.random.default_rng(3)
    for lo, hi, alpha in ((-5, 7, 0.3), (0, 4, 0.0), (-3, 0, -1.25), (0, 0, 0.7)):
        coeffs = {m: complex(*rng.normal(size=2)) for m in range(lo, hi + 1) if m not in (lo + 1, 2)}
        u = HarmonicFunctionRep.from_coefficients(alpha, coeffs)
        terms = {}
        for m, c in zip(range(u.series.m_min, u.series.m_max + 1), u.series.coeffs):
            if m != 0 and c != 0.0:
                terms[m - 1] = m * c
        if alpha:
            terms[-1] = alpha
        got = u.analytic_derivative()
        low = min(terms, default=0)
        assert got.m_min == low and got.m_max == max(terms, default=0)
        for m, c in terms.items():
            assert got.coeffs[m - low] == c
        assert np.count_nonzero(got.coeffs) == len(terms)
