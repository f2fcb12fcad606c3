import numpy as np
import pytest

from kernelgauge import (
    Resolution,
    annulus,
    area_quadrature,
    boundary_quadrature,
    disc,
    mask_quadrature,
)

TWO_PI = 2.0 * np.pi


def test_boundary_weights_sum_to_circumference():
    bq = boundary_quadrature(disc(), 16)
    assert bq.weights.sum() == pytest.approx(TWO_PI, abs=1e-12)
    assert np.allclose(bq.weights, TWO_PI / 16)

    bq = boundary_quadrature(annulus(0.25), 8)
    inner = bq.weights.reshape(2, 8)[1]
    assert inner.sum() == pytest.approx(TWO_PI * 0.25, abs=1e-12)


@pytest.mark.parametrize("domain", [disc(), annulus(0.25)], ids=["disc", "annulus"])
def test_boundary_rule_is_ring_major_product(domain):
    # Ring c is boundary component c: kernels.gram and LaurentSeries read
    # the flat arrays as (components, n_theta) with theta0 = 0.
    n = 16
    bq = boundary_quadrature(domain, n)
    radii = domain.component_radii
    assert np.array_equal(bq.rings.radii, radii)
    assert (bq.rings.n_theta, bq.rings.theta0) == (n, 0.0)
    nodes = bq.nodes.reshape(len(radii), n)
    weights = bq.weights.reshape(len(radii), n)
    signs = bq.normal_signs.reshape(len(radii), n)
    unit = np.exp(1j * TWO_PI * np.arange(n) / n)
    for c, radius in enumerate(radii):
        assert np.array_equal(nodes[c], radius * unit)
        assert np.max(np.abs(np.abs(nodes[c]) - radius)) < 1e-15
        assert np.array_equal(weights[c], np.full(n, TWO_PI * radius / n))
        assert np.array_equal(signs[c], np.full(n, 1.0 if c == 0 else -1.0))


def test_boundary_node_count_minimum():
    with pytest.raises(ValueError):
        boundary_quadrature(disc(), 4)


def test_boundary_constant_integrand():
    bq = boundary_quadrature(disc(), 64)
    val = np.sum(bq.weights * np.abs(bq.nodes) ** 2)
    assert val == pytest.approx(TWO_PI, abs=1e-14)


def test_boundary_trig_exactness():
    # z^n integrates to zero on |z| = R for n != 0 once N > |n| + 2.
    for domain, radius in ((disc(), 1.0), (annulus(0.5), 0.5)):
        bq = boundary_quadrature(domain, 32)
        for n in (1, -3, 7, 20):
            vals = bq.nodes**n
            integral = np.sum(bq.weights * vals)
            assert abs(integral) < 1e-13 * max(radius ** n, 1.0)


def test_area_weights_sum_exactly():
    for domain, z0 in ((disc(), 0.0), (disc(), 0.5), (annulus(0.25), 0.5), (annulus(0.5), -0.7j)):
        aq = area_quadrature(domain, z0, 96, 96)
        assert aq.weights.sum() == pytest.approx(domain.area, abs=1e-12)
        radii = np.abs(aq.nodes)
        assert np.all(radii < 1.0)
        assert np.all(radii > domain.inner_radius)



def test_area_rejects_negative_patch_levels():
    # Negative levels would grade the ring outward, past the domain.
    with pytest.raises(ValueError, match="patch_levels"):
        area_quadrature(disc(), 0.3, 48, 40, patch_levels=-3)
    assert area_quadrature(disc(), 0.3, 48, 40, patch_levels=0).weights.sum() == pytest.approx(np.pi, abs=1e-12)

@pytest.mark.parametrize(
    "domain,z0",
    [(disc(), 0.0), (disc(), 0.3 + 0.4j), (annulus(0.25), 0.5), (annulus(0.25), -0.4 + 0.5j)],
    ids=["disc-center-patch", "disc-off-patch", "annulus-patch", "annulus-off-patch"],
)
def test_area_rule_is_ring_major_product(domain, z0):
    # The flat nodes and weights are the outer products of the stored ring
    # and angle arrays, ring-major, bit for bit; kernels.gram and
    # LaurentSeries rely on this layout.
    radial, angular = 40, 24
    aq = area_quadrature(domain, z0, radial, angular)
    rings = len(aq.inner)
    assert aq.rings.n_theta == angular and aq.angle_edges.shape == (angular + 1,)
    assert rings > radial
    radii = aq.rings.radii
    area = 0.5 * (aq.inner + aq.outer) * (aq.outer - aq.inner)
    tmid = 0.5 * (aq.angle_edges[:-1] + aq.angle_edges[1:])
    assert np.array_equal(aq.nodes.reshape(rings, angular), np.outer(radii, np.exp(1j * tmid)))
    # Each weight is its cell's area, (outer^2 - inner^2) / 2 * dtheta, and
    # each node, a Gauss point of its panel, lies inside its cell.
    assert np.array_equal(aq.weights.reshape(rings, angular), np.outer(area, np.diff(aq.angle_edges)))
    assert np.all((aq.inner < radii) & (radii < aq.outer))
    # The rings are sorted and tile [inner radius, 1], and the angle edges
    # split [0, 2 pi] uniformly, with node j of every ring at
    # theta0 + 2 pi j / n_theta.
    assert np.array_equal(aq.inner[1:], aq.outer[:-1])
    assert (aq.inner[0], aq.outer[-1]) == (domain.inner_radius, 1.0)
    assert (aq.angle_edges[0], aq.angle_edges[-1]) == (0.0, TWO_PI)
    assert np.allclose(np.diff(aq.angle_edges), TWO_PI / angular, rtol=0, atol=1e-14)
    theta = aq.rings.theta0 + TWO_PI * np.arange(angular) / angular
    assert np.max(np.abs(np.exp(1j * tmid) - np.exp(1j * theta))) < 1e-14


@pytest.mark.parametrize(
    "domain,z0",
    [(disc(), 0.0), (disc(), 0.45 + 0.2j), (annulus(0.25), 0.6), (annulus(0.25), -0.3 + 0.4j)],
    ids=["disc-center", "disc-off", "annulus", "annulus-off"],
)
def test_band_free_rule_puts_z0_on_a_panel_edge(domain, z0):
    # With no refinement ring the rule is the uniform Gauss panels with
    # |z0| as one more edge (annulus-off: |z0| = 0.5 is an edge already).
    aq = area_quadrature(domain, z0, 64, 40, patch_levels=None)
    edges = np.append(aq.inner, aq.outer[-1])
    assert abs(aq.weights.sum() - domain.area) <= 1e-14 * domain.area
    assert np.min(np.abs(edges - abs(z0))) == 0.0
    assert np.min(np.abs(aq.nodes - z0)) > 1e-12
    assert np.array_equal(aq.inner[1:], aq.outer[:-1])
    assert len(aq.rings.radii) in (64, 72)


@pytest.mark.parametrize("domain,edge", [(disc(), 0.5), (annulus(0.25), 0.25**0.25)], ids=["disc", "annulus"])
@pytest.mark.parametrize("side", [-1.0, 1.0])
def test_band_free_rule_snaps_z0_next_to_an_edge(domain, edge, side):
    # |z0| one ulp from a panel edge (r = 4/8 on the disc, q^(2/8) on the
    # annulus) takes that edge: no panel is added, and none is ulps wide.
    radial = 64
    aq = area_quadrature(domain, np.nextafter(edge, edge + side), radial, 16, patch_levels=None)
    assert len(aq.rings.radii) == radial
    assert np.min(aq.outer - aq.inner) > 1e-12


@pytest.mark.parametrize("levels", [96, 110, 300])
def test_deep_ring_keeps_off_center_cells_apart(levels):
    # At any depth the ring's edges stay 1e-12 |z0| clear of |z0|: no cell
    # collapses to zero width, every node lies strictly inside its cell,
    # and no ring sits at |z0|, where the density may be unbounded.
    for s in np.append(0.6, np.linspace(0.3, 0.7, 41)):
        aq = area_quadrature(disc(), s, 64, 32, patch_levels=levels)
        radii = aq.rings.radii
        assert np.all(aq.outer > aq.inner)
        assert np.all((aq.inner < radii) & (radii < aq.outer))
        assert not np.any(radii == s)
        assert np.min(np.abs(radii - s)) > 10.0 * np.spacing(s)


def test_refinement_ring_is_light():
    # The default disc rule at 192 x 160: the graded ring's Gauss panels
    # take at most a third of the 928 rings its midpoint sub-panels took.
    res = Resolution(radial_cells=192, angular_cells=160)
    aq = area_quadrature(disc(), 0.0, res.radial_cells, res.angular_cells, patch_levels=res.patch_levels)
    assert len(aq.inner) <= 928 // 3


def test_area_inverse_radius():
    aq = area_quadrature(disc(), 0.0, 256, 64)
    val = aq.integrate(1.0 / np.abs(aq.nodes))
    assert val == pytest.approx(TWO_PI, abs=1e-6)


def test_area_singular_radial_profiles():
    # |z|^(2 beta) against the closed form 2 pi / (2 beta + 2).  The
    # default grading handles every profile the weight families generate
    # (beta >= -0.6), and -0.7, at 1e-6.
    aq = area_quadrature(disc(), 0.0, 512, 48)
    for beta in (-0.3, -0.5, -0.6, -0.7):
        val = aq.integrate(np.abs(aq.nodes) ** (2 * beta))
        exact = TWO_PI / (2 * beta + 2)
        assert abs(val / exact - 1.0) < 1e-6, f"beta={beta}"
    # Near the integrability edge the ring depth must grow like
    # 1/(beta+1); demonstrate convergence there explicitly.
    deep = area_quadrature(disc(), 0.0, 512, 16, patch_levels=260)
    val = deep.integrate(np.abs(deep.nodes) ** (2 * -0.9))
    exact = TWO_PI / (2 * -0.9 + 2)
    assert abs(val / exact - 1.0) < 1e-6


def test_area_offcenter_singularity_converges():
    # Integrable singularity at an interior off-axis point: the graded
    # ring resolves the radial direction, the angular error falls at
    # second order with the global grid.
    z0 = 0.4 + 0.2j

    def value(res):
        aq = area_quadrature(disc(), z0, res, res)
        return aq.integrate(np.abs(aq.nodes - z0) ** -1.0)

    v1, v2, v3 = value(128), value(256), value(512)
    assert abs(v3 - v2) < 0.4 * abs(v2 - v1)


def test_area_angular_orthogonality():
    aq = area_quadrature(annulus(0.25), 0.5, 128, 128)
    for m, n in ((1, 0), (2, -1), (3, 1)):
        val = np.sum(aq.weights * aq.nodes**m * np.conj(aq.nodes) ** n)
        assert abs(val) < 1e-10


def test_area_doubling_converges():
    z0 = 0.5

    def integral(res):
        aq = area_quadrature(annulus(0.25), z0, res, res)
        return aq.integrate(np.exp(-np.abs(aq.nodes - z0) ** 2) / np.abs(aq.nodes))

    v1, v2, v3 = integral(64), integral(128), integral(256)
    # Spectral radial and angular rules: every level already sits at the
    # roundoff floor.
    assert abs(v3 - v2) <= max(abs(v2 - v1), 4.0 * np.finfo(float).eps * abs(v3))
    assert abs(v1 - v3) <= 1e-13 * abs(v3)


def _mask_counted(aq, field, thresholds, keep):
    """mask_quadrature, checking how it calls the level field.

    Corners and nodes take two calls for all thresholds; radial samples,
    crossing steps and piece midpoints take at most 28 per mask call,
    whatever the number of thresholds.  Only the corner grid and the
    rule's own nodes arrive as ring grids.  Every piece's angle index
    gives its node.
    """
    calls = []

    def counted(z, rings=None):
        calls.append(rings)
        return field(z, rings)

    masks = mask_quadrature(aq, counted, thresholds, keep=keep)
    assert len(masks) == len(thresholds)
    grids = [r for r in calls if r is not None]
    assert len(calls) - len(grids) <= 28
    assert len(grids) == 2 and grids[1] is aq.rings
    assert grids[0].n_theta == aq.rings.n_theta and grids[0].theta0 == 0.0
    for masked in masks:
        _assert_angles_give_nodes(aq, masked)
    return masks


def _assert_angles_give_nodes(aq, masked):
    """Piece p lies on the parent angle line theta0 + 2 pi angle[p] / n_theta.

    That line is the midline of angle cell angle[p] to within 1 ulp of
    2 pi, and the node is its modulus times exp(i midline) up to the few
    roundings of forming the node and of this check.
    """
    rings = aq.rings
    assert masked.angle.dtype.kind == "i" and masked.angle.shape == masked.nodes.shape
    assert np.all((0 <= masked.angle) & (masked.angle < rings.n_theta))
    line = rings.theta0 + 2.0 * np.pi * masked.angle / rings.n_theta
    midline = 0.5 * (aq.angle_edges[:-1] + aq.angle_edges[1:])[masked.angle]
    assert np.all(np.abs(midline - line) <= np.spacing(2.0 * np.pi))
    r = np.abs(masked.nodes)
    assert np.all(np.abs(r * np.exp(1j * midline) - masked.nodes) <= 4.0 * np.finfo(float).eps * r)


def _assert_crossings_exact(aq, masked, side, exact):
    """Every clipped piece ending at the crossing `exact` ends within 4 ulp of it.

    A piece spans from the edge of its cell on `side` ("inner" or "outer")
    to a crossing; its width is recovered from its weight, which is
    rm * width * dtheta.  Pieces ending at another crossing are skipped.
    """
    rm = np.abs(masked.nodes)
    width = masked.weights / (rm * np.diff(aq.angle_edges)[0])
    cell = np.argmax((aq.inner[None, :] <= rm[:, None]) & (rm[:, None] < aq.outer[None, :]), axis=1)
    edges = aq.inner[cell] + width if side == "inner" else aq.outer[cell] - width
    edges = edges[np.abs(edges - exact) < 1e-3]
    assert edges.size == aq.rings.n_theta
    assert np.max(np.abs(edges - exact)) <= 4.0 * np.spacing(exact)


def test_mask_disc_sublevel_exact():
    aq = area_quadrature(disc(), 0.0, 128, 128)

    def field(z, rings=None):
        return 2.0 * np.log(np.abs(z))

    below, mid = _mask_counted(aq, field, [-1.0, -0.5], "below")
    assert below.total_weight == pytest.approx(np.pi * np.exp(-1.0), abs=1e-12)
    _assert_crossings_exact(aq, below, "inner", np.exp(-0.5))
    (above,) = _mask_counted(aq, field, [np.log(0.81)], "above")
    assert above.total_weight == pytest.approx(np.pi * (1.0 - 0.81), abs=1e-12)
    _assert_crossings_exact(aq, above, "outer", 0.9)
    # The two masks partition the quadrature.
    (rest,) = mask_quadrature(aq, field, [-0.5], keep="above")
    assert mid.total_weight + rest.total_weight == pytest.approx(np.pi, abs=1e-12)
    # One call on both thresholds gives the one-threshold rules bit for bit.
    for together, threshold in zip((below, mid), (-1.0, -0.5)):
        (alone,) = _mask_counted(aq, field, [threshold], "below")
        for name in ("kept", "nodes", "weights", "angle"):
            assert np.array_equal(getattr(together, name), getattr(alone, name))


def test_mask_annulus_band():
    aq = area_quadrature(annulus(0.25), 0.5, 160, 128)

    def field(z, rings=None):
        return np.abs(z)

    (below,) = _mask_counted(aq, field, [0.7], "below")
    assert below.total_weight == pytest.approx(np.pi * (0.49 - 0.0625), abs=1e-10)
    _assert_crossings_exact(aq, below, "inner", 0.7)


def test_mask_nonradial_field():
    aq = area_quadrature(disc(), 0.0, 192, 192)

    def field(z, rings=None):
        return np.real(z)

    (below,) = mask_quadrature(aq, field, [0.0], keep="below")
    assert below.total_weight == pytest.approx(np.pi / 2.0, rel=1e-4)


def test_mask_two_crossings_in_one_cell():
    # Both roots of a radially symmetric field fall inside one radial cell
    # [r0, r1]; the band between them must be clipped out exactly.
    aq = area_quadrature(disc(), 0.0, 16, 32)
    cell = int(np.searchsorted(aq.inner, 0.53)) - 1
    r0, r1 = aq.inner[cell], aq.outer[cell]
    a, b = r0 + 0.15 * (r1 - r0), r0 + 0.75 * (r1 - r0)

    def field(z, rings=None):
        r = np.abs(z)
        return (r - a) * (r - b)

    (band,) = _mask_counted(aq, field, [0.0], "below")
    assert band.total_weight == pytest.approx(np.pi * (b * b - a * a), abs=1e-13)
    (outside,) = _mask_counted(aq, field, [0.0], "above")
    assert outside.total_weight == pytest.approx(np.pi * (1.0 - (b * b - a * a)), abs=1e-12)
    _assert_crossings_exact(aq, outside, "inner", a)
    _assert_crossings_exact(aq, outside, "outer", b)
    # The straddling cell at angle 0 keeps its two outer pieces, in
    # increasing radius.
    first_cell = np.abs(np.angle(outside.nodes) - np.pi / 32) < 1e-12
    assert np.abs(outside.nodes[first_cell]) == pytest.approx([0.5 * (r0 + a), 0.5 * (b + r1)], abs=1e-12)


def test_mask_whole_cells_do_not_depend_on_rings():
    from kernelgauge import CProfile, PhiSpec, PsiSpec, WeightConfig
    from kernelgauge.potential import HarmonicFunctionRep

    cfg = WeightConfig(annulus(0.25), -0.3 + 0.55j, 0, PsiSpec(1.0, 0.0),
                       PhiSpec(0.0, HarmonicFunctionRep.zero()), CProfile.constant_one())
    ann = area_quadrature(annulus(0.25), cfg.z0, 96, 64, patch_levels=12)
    # The disc's corner grid has a ring of radius 0; the constant term must
    # still count there.
    u = HarmonicFunctionRep.from_coefficients(0.0, {0: 0.3, 1: 0.1 - 0.2j})
    dsc = area_quadrature(disc(), 0.2j, 64, 64)
    cases = [(ann, cfg.two_psi, -0.6, "below"), (ann, cfg.two_psi, -1.8, "below"),
             (ann, cfg.two_psi, -0.1, "above"), (dsc, u.value, 0.35, "below")]
    for aq, field, threshold, keep in cases:
        (on_rings,) = mask_quadrature(aq, field, [threshold], keep=keep)
        (pointwise,) = mask_quadrature(aq, lambda z, rings=None: field(z), [threshold], keep=keep)
        assert 0 < np.count_nonzero(on_rings.kept) < aq.nodes.size
        assert np.array_equal(on_rings.kept, pointwise.kept)
        # The pieces come from point calls in both, so they agree as well.
        assert np.array_equal(on_rings.nodes, pointwise.nodes)
        assert np.array_equal(on_rings.weights, pointwise.weights)
