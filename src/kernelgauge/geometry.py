"""Disc and annulus domains with boundary and area quadrature rules.

Boundary integrals use the periodic trapezoid rule, which is spectrally
accurate for integrands analytic in the angle.  Area integrals use the
midpoint rule in angle, also spectral for periodic integrands, times
composite Gauss-Legendre panels in r: each Gauss node owns the polar cell
whose area is its weight for r dr, so the weights sum to the domain area
at machine precision and the radial rule converges at a rate exponential
in the points per panel away from singularities.

A locally refined ring of panels passes through a marked interior point
z0: its outer radii are snapped to global panel edges (so the cells tile
the domain with no overlap), and its angular grid coincides with the
global one.  Inside it, the panels are geometrically graded toward |z0|.
The grading resolves integrable radial densities behaving like
|z - z0|^(2*beta), beta > -1, at a rate exponential in the number of
Gauss points, while the uniform angular structure keeps the
trapezoid-exact orthogonality of Laurent monomials intact.  A density
smooth at z0 needs no ring: its rule keeps the uniform panels and only
puts |z0| on a panel edge.

Every rule here is stored in its product form: a set of rings times one
uniform angle grid of n_theta angles, recorded as a `RingGrid`.  Node j
of ring r sits at radii[r] * exp(i * (theta0 + 2 pi j / n_theta)).  Area
rules put nodes at the angular cell midpoints (theta0 = pi / n_theta) and
also keep each ring's inner and outer edge and the n_theta + 1 angle
edges; boundary rules put them on the circles (theta0 = 0), ring c being
boundary component c.  The flat `nodes` and `weights` arrays are the
outer products of the per-ring and per-angle factors, stored ring-major:
ring after ring, each ring in increasing angle, so reshaping them to
(rings, n_theta) recovers the product.  `kernels.gram` and
`potential.LaurentSeries` sum each ring by one FFT on this layout, and
`mask_quadrature` reads a cell's ring and angle from its flat index.  A
masked rule is stored against its parent rule: a mask of the cells it
keeps whole, which keep the parent's weights and ring structure, and its
clipped pieces as a rule of their own, each piece on the angular midline
of a parent cell whose angle index it records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Literal

import numpy as np

_TWO_PI = 2.0 * np.pi
_PATCH_GRADING = 0.7  # depth ratio of one refinement level toward |z0|
_PANEL_RATIO = 0.25  # smallest width ratio of consecutive Gauss panels of the ring
_PANEL_GAUSS = 8  # Gauss-Legendre radii per panel
_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(_PANEL_GAUSS)  # nodes and weights on [-1, 1]
_PIVOT_FLOOR = 1e-12  # closest relative approach of a ring edge to a nonzero |z0|
_RADIAL_SAMPLES = 12  # field samples along the midline of a straddling cell


@dataclass(frozen=True)
class DomainSpec:
    """Unit disc or concentric annulus q < |z| < 1."""

    kind: Literal["disc", "annulus"]
    q: float = 0.0

    def __post_init__(self):
        if self.kind not in ("disc", "annulus"):
            raise ValueError(f"unknown domain kind {self.kind!r}")
        if self.kind == "annulus" and not 0.0 < self.q < 1.0:
            raise ValueError("annulus inner radius must lie in (0, 1)")
        if self.kind == "disc" and self.q != 0.0:
            raise ValueError("disc takes no inner radius")

    @property
    def inner_radius(self) -> float:
        return self.q if self.kind == "annulus" else 0.0

    @property
    def component_radii(self) -> tuple[float, ...]:
        """Boundary circle radii; index 0 is the outer circle."""
        if self.kind == "disc":
            return (1.0,)
        return (1.0, self.q)

    @property
    def area(self) -> float:
        return np.pi * (1.0 - self.inner_radius**2)

    def contains(self, z: complex, margin: float = 0.0) -> bool:
        r = abs(z)
        if self.kind == "disc":
            return r < 1.0 - margin
        return self.q + margin < r < 1.0 - margin

    def boundary_clearance(self, z: complex) -> float:
        r = abs(z)
        if self.kind == "disc":
            return 1.0 - r
        return min(1.0 - r, r - self.q)


def disc() -> DomainSpec:
    return DomainSpec("disc")


def annulus(q: float) -> DomainSpec:
    return DomainSpec("annulus", q)


@dataclass(frozen=True)
class RingGrid:
    """Ring x angle structure of a ring-major rule (see the module docstring)."""

    radii: np.ndarray
    n_theta: int
    theta0: float


@dataclass(frozen=True)
class BoundaryQuadrature:
    """Equispaced trapezoid nodes on every boundary circle, one ring each.

    normal_signs is +1 where the outward normal points away from the
    origin (outer circle) and -1 where it points toward it (inner hole).
    """

    nodes: np.ndarray
    weights: np.ndarray
    normal_signs: np.ndarray
    rings: RingGrid


def boundary_quadrature(domain: DomainSpec, nodes_per_component: int) -> BoundaryQuadrature:
    """Trapezoid quadrature with N equispaced nodes per boundary circle."""
    if nodes_per_component < 8:
        raise ValueError("need at least 8 nodes per boundary component")
    n = nodes_per_component
    radii = np.array(domain.component_radii)
    theta = _TWO_PI * np.arange(n) / n
    signs = np.where(np.arange(radii.size) == 0, 1.0, -1.0)
    return BoundaryQuadrature(
        nodes=np.outer(radii, np.exp(1j * theta)).ravel(),
        weights=np.repeat(_TWO_PI * radii / n, n),
        normal_signs=np.repeat(signs, n),
        rings=RingGrid(radii, n, 0.0),
    )


@dataclass(frozen=True)
class AreaQuadrature:
    """Product rule on polar cells, each node weighted by its cell's area.

    Ring r spans [inner[r], outer[r]], with rings sorted by radius so that
    inner[r + 1] == outer[r], and angle cell j spans [angle_edges[j],
    angle_edges[j + 1]].
    """

    nodes: np.ndarray
    weights: np.ndarray
    inner: np.ndarray
    outer: np.ndarray
    angle_edges: np.ndarray
    rings: RingGrid

    def integrate(self, values: np.ndarray) -> float:
        return float(np.real(np.sum(self.weights * values)))


def _graded_edges(lo: float, hi: float, pivot: float, levels: int) -> np.ndarray:
    """Panel edges on [lo, hi] geometrically graded toward pivot.

    Each side of pivot is cut down to depth _PATCH_GRADING ** levels of
    its width, by panels of one common width ratio no smaller than
    _PANEL_RATIO, and a last panel runs on to pivot.  An edge within two
    floors f = _PIVOT_FLOOR * |pivot| of a nonzero pivot is moved to f
    from it, so every panel stays at least f, many ulps, wide at any
    depth; the repeats this makes are dropped.
    """
    panels = max(1, int(np.ceil(levels * np.log(_PATCH_GRADING) / np.log(_PANEL_RATIO) - 1e-9)))
    depth = _PATCH_GRADING ** (levels * np.arange(panels + 1) / panels)
    floor = _PIVOT_FLOOR * abs(pivot)

    def offsets(width):
        d = width * depth
        return np.where(d < 2.0 * floor, floor, d)

    pieces = [np.array([pivot])]
    if pivot - lo > 1e-15:
        left = pivot - offsets(pivot - lo)
        left[0] = lo
        pieces.insert(0, left)
    if hi - pivot > 1e-15:
        right = pivot + offsets(hi - pivot)[::-1]
        right[-1] = hi
        pieces.append(right)
    return np.unique(np.concatenate(pieces))


def _gauss_rings(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_PANEL_GAUSS Gauss-Legendre radii on every panel of edges, and the edges of their cells.

    Node i of a panel [a, b] with Gauss weight w_i for r dr owns the cell
    [e_i, e_(i+1)], e_0 = a and e_(i+1)^2 = e_i^2 + 2 w_i, so its cell's
    area is its weight.  Gauss rules integrate r exactly, so the cells
    tile the panel: the last edge is b up to rounding and is set to b.
    """
    a, b = edges[:-1, None], edges[1:, None]
    r = 0.5 * (a + b) + 0.5 * (b - a) * _GAUSS_X
    area = (b - a) * np.cumsum(_GAUSS_W * r, axis=1)  # twice the r dr weights of the nodes so far
    e = a + area / (a + np.sqrt(a * a + area))  # e^2 - a^2 = area, without cancellation
    e[:, -1] = edges[1:]
    return r.ravel(), np.concatenate([edges[:1], e.ravel()])


def area_quadrature(
    domain: DomainSpec,
    z0: complex,
    radial_cells: int,
    angular_cells: int,
    patch_levels: int | None = 48,
) -> AreaQuadrature:
    """Gauss-panel polar quadrature, radially graded toward |z0| unless patch_levels is None.

    The radii form ceil(radial_cells / 8) panels of 8 Gauss-Legendre
    radii each, uniform in log r on the annulus (so Laurent modes are
    resolved evenly at both circles) and in r on the disc.  The panels
    within min(clearance / 2, 1/4) of |z0| give way to the refinement
    ring, whose panels reach down to depth 0.7 ** patch_levels of its
    width on either side of |z0|.  With patch_levels None there is no
    ring: |z0| only becomes one more panel edge, so no node lies on z0,
    which is all a density smooth at z0 needs.
    """
    if not domain.contains(z0, margin=1e-9):
        raise ValueError(f"z0={z0} is not interior to the domain")
    if patch_levels is not None and patch_levels < 0:
        raise ValueError(f"patch_levels must be nonnegative, got {patch_levels}")
    panels = -(-radial_cells // _PANEL_GAUSS)
    edges = np.linspace(0.0, 1.0, panels + 1)
    if domain.kind == "annulus":
        edges = domain.q ** (1.0 - edges)
        edges[0], edges[-1] = domain.q, 1.0

    # The ring replaces the panels [edges[i0], edges[i1]] around |z0|, so
    # the panels tile the domain with no overlap.  It is a full ring: Gauss
    # panels geometrically graded toward |z0| (putting z0 on a panel edge,
    # so no quadrature node ever coincides with it) while angles stay on
    # the global uniform grid.  Keeping the angular structure uniform at
    # every radius preserves the exact angular orthogonality of monomial
    # products; the radial grading is what integrable radial singularities
    # require.
    s = abs(z0)
    if patch_levels is None:
        # An edge within _PIVOT_FLOOR * |z0| of |z0| stands for it, so no
        # panel is only a few ulps wide.
        if np.min(np.abs(edges - s)) > _PIVOT_FLOOR * s:
            edges = np.insert(edges, np.searchsorted(edges, s), s)
    else:
        band = min(0.5 * domain.boundary_clearance(z0), 0.25)
        i0 = max(int(np.searchsorted(edges, s - band, side="right")) - 1, 0)
        i1 = int(np.searchsorted(edges, s + band))
        graded = _graded_edges(edges[i0], edges[i1], s, patch_levels)
        edges = np.concatenate([edges[:i0], graded, edges[i1 + 1 :]])
    radii, cell_edges = _gauss_rings(edges)
    inner, outer = cell_edges[:-1], cell_edges[1:]

    angle_edges = np.linspace(0.0, _TWO_PI, angular_cells + 1)
    tmid = 0.5 * (angle_edges[:-1] + angle_edges[1:])
    # Each weight is its cell's area, (outer^2 - inner^2) / 2 * dtheta.
    weights = np.outer(0.5 * (inner + outer) * (outer - inner), np.diff(angle_edges)).ravel()
    nodes = np.outer(radii, np.exp(1j * tmid)).ravel()
    rings = RingGrid(radii, angular_cells, np.pi / angular_cells)
    return AreaQuadrature(nodes, weights, inner, outer, angle_edges, rings)


@dataclass(frozen=True)
class MaskedQuadrature:
    """An area rule restricted to one side of a level set, stored against its parent.

    kept marks the parent's cells kept whole, which keep the parent's
    weights.  nodes and weights are the clipped pieces alone, and angle is
    each piece's angle cell of the parent: piece p lies on that cell's
    angular midline, at |nodes[p]| * exp(i (theta0 + 2 pi angle[p] / n_theta))
    with the parent's RingGrid.
    """

    parent: AreaQuadrature
    kept: np.ndarray
    nodes: np.ndarray
    weights: np.ndarray
    angle: np.ndarray

    def integrate(self, on_parent: np.ndarray, on_pieces: np.ndarray) -> float:
        """Integral of a density given at the parent's nodes and at the pieces.

        Values at parent nodes outside the kept cells never enter the sum,
        so they may be anything, inf and nan included.
        """
        whole = np.sum(self.parent.weights[self.kept] * on_parent[self.kept])
        return float(np.real(whole + np.sum(self.weights * on_pieces)))

    @property
    def total_weight(self) -> float:
        return float(np.sum(self.parent.weights[self.kept]) + np.sum(self.weights))


def mask_quadrature(
    quad: AreaQuadrature,
    level_field: Callable[..., np.ndarray],
    thresholds,
    keep: Literal["below", "above"] = "below",
) -> list[MaskedQuadrature]:
    """Restrict an area quadrature to {field < t} or {field >= t}, one rule per threshold t.

    The field is called as level_field(z, rings): rings is the RingGrid of
    z when z are the ring-major nodes of a ring grid (the rule's nodes, or
    the cell corners as the grid RingGrid(edge radii, n_theta, 0)), and
    None for scattered points.  It only tells the field that the points
    have that structure, so a field may ignore it.  Every call serves all
    thresholds: the two ring-grid calls, and the point calls that clip the
    straddling cells of every threshold together.

    Cells crossed by the level curve are split radially at the crossing
    points along the cell's angular midline, and each piece is kept or
    dropped by the field at its midpoint.  On radially symmetric fields
    the clipped areas are exact because the midpoint rule integrates the
    Jacobian r exactly.
    """
    thresholds = np.asarray(list(thresholds), dtype=float)
    top, bottom = _cell_extremes(quad, level_field)
    # Rounding is monotone and v - t is 0 only at v = t, so comparing a
    # cell's extremes with t classifies it as its shifted values would.
    all_below = top[None, :] < thresholds[:, None]
    all_above = bottom[None, :] >= thresholds[:, None]
    kept = all_below if keep == "below" else all_above
    # Straddling cells in threshold-major order, each with its threshold.
    which, cell = np.nonzero(~(all_below | all_above))
    radii, angle, weights, owner = _clip(quad, level_field, cell, thresholds[which], keep)
    nodes = radii * np.exp(1j * _angle_midlines(quad)[angle])
    bounds = np.searchsorted(which[owner], np.arange(thresholds.size + 1))
    return [
        MaskedQuadrature(quad, kept[k], nodes[a:b], weights[a:b], angle[a:b])
        for k, (a, b) in enumerate(zip(bounds[:-1], bounds[1:]))
    ]


def _angle_midlines(quad: AreaQuadrature) -> np.ndarray:
    """Angle of each angle cell's midline, the angle of its nodes."""
    return 0.5 * (quad.angle_edges[:-1] + quad.angle_edges[1:])


def _cell_extremes(quad: AreaQuadrature, level_field) -> tuple[np.ndarray, np.ndarray]:
    """Largest and smallest field value over each cell's four corners and its node."""
    # Neighbouring cells share corners: evaluate the field once on the
    # ring edges x angle edges, a ring grid whose angle edge n_theta is
    # edge 0 again.  Rings are sorted, so ring r's corners are rows r and
    # r + 1.
    n = quad.rings.n_theta
    edge_r = np.append(quad.inner, quad.outer[-1])
    corners = np.outer(edge_r, np.exp(1j * quad.angle_edges[:-1])).ravel()
    # Level fields carry log poles; -inf corner values classify fine.
    with np.errstate(divide="ignore", invalid="ignore"):
        grid = np.asarray(level_field(corners, RingGrid(edge_r, n, 0.0))).reshape(edge_r.size, n)
        on_nodes = np.asarray(level_field(quad.nodes, quad.rings))
    grid = np.concatenate([grid, grid[:, :1]], axis=1)
    lo_r, hi_r = grid[:-1], grid[1:]
    vals = np.stack(
        [lo_r[:, :-1].ravel(), lo_r[:, 1:].ravel(), hi_r[:, :-1].ravel(), hi_r[:, 1:].ravel(), on_nodes]
    )
    return np.max(vals, axis=0), np.min(vals, axis=0)


def _clip(quad, level_field, idx, threshold, keep):
    """The kept pieces of the cells idx, cell k straddling threshold[k].

    Returns each piece's midpoint radius, angle cell, weight and the
    position in idx of its cell; pieces follow their cells in order, and
    within a cell run in increasing radius.
    """
    def shifted(z, k):
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.asarray(level_field(z, None)) - threshold[k]

    n, inner, outer, angle_edges = quad.rings.n_theta, quad.inner, quad.outer, quad.angle_edges
    if not idx.size:
        return np.empty(0), np.empty(0, dtype=int), np.empty(0), np.empty(0, dtype=int)
    ring, angle = np.divmod(idx, n)
    r0 = inner[ring]
    r1 = outer[ring]
    th = _angle_midlines(quad)[angle]
    dt_cell = np.diff(angle_edges)[angle]
    # Sample the radial line through each straddling cell and narrow
    # every sign change to the crossing radius.
    frac = np.linspace(0.0, 1.0, _RADIAL_SAMPLES + 1)
    rgrid = r0[:, None] + (r1 - r0)[:, None] * frac[None, :]
    fgrid = shifted(rgrid * np.exp(1j * th)[:, None], np.arange(idx.size)[:, None])
    change = np.sign(fgrid[:, :-1]) != np.sign(fgrid[:, 1:])
    ci, cj = np.nonzero(change)
    roots = _crossings(
        lambda z, k: shifted(z, ci[k]), rgrid[ci, cj], rgrid[ci, cj + 1], fgrid[ci, cj], fgrid[ci, cj + 1], th[ci]
    )
    # Edges of cell k: r0[k], its cuts in increasing order, r1[k].
    order = np.lexsort((roots, ci))
    cut_cell = ci[order]
    per_cell = np.bincount(cut_cell, minlength=idx.size)
    last = np.cumsum(per_cell + 2) - 1
    first = last - per_cell - 1
    edges = np.empty(last[-1] + 1)
    edges[first] = r0
    edges[last] = r1
    # Ahead of sorted cut i, of cell c, lie the i earlier cuts, the two
    # outer edges of each of the c earlier cells and r0 of cell c.
    edges[np.arange(cut_cell.size) + 2 * cut_cell + 1] = roots[order]
    # Pieces run between consecutive edges of one cell; classify all
    # of them with one field call at their midpoints.
    a, b = np.delete(edges, last), np.delete(edges, first)
    piece_cell = np.repeat(np.arange(idx.size), per_cell + 1)
    rm = 0.5 * (a + b)
    f_mid = shifted(rm * np.exp(1j * th[piece_cell]), piece_cell)
    use = (f_mid < 0.0 if keep == "below" else f_mid >= 0.0) & (b - a > 1e-15)
    rm, width, piece_cell = rm[use], (b - a)[use], piece_cell[use]
    return rm, angle[piece_cell], rm * width * dt_cell[piece_cell], piece_cell


def _crossings(f, lo, hi, f_lo, f_hi, theta) -> np.ndarray:
    """Radii in [lo, hi] where f(r exp(i theta)) changes sign, one per bracket.

    f is called as f(z, k) with z on the brackets k, so each bracket may
    carry a field of its own.

    Illinois steps: regula falsi, halving the value kept at an endpoint
    that survives two steps in a row, which converges superlinearly
    without derivatives.  A step lands at least one ulp inside its
    bracket, so a crossing next to an endpoint closes the bracket on the
    next step.  A bracket with a non-finite value at an end, or one that
    three steps did not halve, is bisected instead.  Brackets narrow until
    their ends are adjacent floats; their midpoints are returned.
    """
    unit = np.exp(1j * theta)
    # An endpoint where f is exactly 0 is the crossing.
    lo, hi = np.where(f_hi == 0.0, hi, lo), np.where(f_lo == 0.0, lo, hi)
    f_lo, f_hi = f_lo.copy(), f_hi.copy()
    moved = np.zeros(lo.size, dtype=int)  # endpoint replaced last: -1 lo, +1 hi
    before = [np.full(lo.size, np.inf)] * 3  # widths of the last three steps
    while True:
        width = hi - lo
        act = np.nonzero(width > np.spacing(hi))[0]
        if not act.size:
            return 0.5 * (lo + hi)
        a, b, fa, fb = lo[act], hi[act], f_lo[act], f_hi[act]
        ulp = np.spacing(b)
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            x = np.clip(b - fb * ((b - a) / (fb - fa)), a + ulp, b - ulp)
        finite = np.isfinite(fa) & np.isfinite(fb) & np.isfinite(x)
        bisect = ~finite | (width[act] > 0.5 * before[0][act])
        x = np.where(bisect, 0.5 * (a + b), x)
        fx = f(x * unit[act], act)
        left = np.sign(fx) == np.sign(fa)  # x replaces lo
        hit = fx == 0.0
        fb = np.where(left & (moved[act] == -1), 0.5 * fb, fb)
        fa = np.where(~left & (moved[act] == 1), 0.5 * fa, fa)
        lo[act] = np.where(left | hit, x, a)
        hi[act] = np.where(left, b, x)
        f_lo[act] = np.where(left, fx, fa)
        f_hi[act] = np.where(left, fb, fx)
        moved[act] = np.where(left, -1, 1)
        before = before[1:] + [width]
