"""Disc and annulus domains with boundary and area quadrature rules.

Boundary integrals use the periodic trapezoid rule, which is spectrally
accurate for integrands analytic in the angle.  Area integrals use a
midpoint rule on polar cells.  Cell nodes sit at the radial midpoint
(r0+r1)/2, which makes the rule exact for the Jacobian factor r, so the
cell weights sum to the domain area at machine precision regardless of
how the radial edges are graded.

A locally refined ring of cells passes through a marked interior point
z0: its outer radii are snapped to global grid lines (so the cells tile
the domain with no overlap), its interior radii are geometrically graded
toward |z0|, and its angular grid coincides with the global one.  The
grading resolves integrable radial densities behaving like
|z - z0|^(2*beta), beta > -1, while the uniform angular structure keeps
the trapezoid-exact orthogonality of Laurent monomials intact.

Every rule here is a set of rings times one uniform angle grid, and
records that structure as a `RingGrid` where it builds its nodes: node j
of ring r sits at radii[r] * exp(i * (theta0 + 2 pi j / n_theta)), and
the flat node and weight arrays are stored ring-major, ring after ring,
each ring in increasing angle.  Area rules put nodes at the angular cell
midpoints (theta0 = pi / n_theta), boundary rules on the circles
(theta0 = 0).  `kernels.gram` relies on this invariant to sum each ring
by one FFT; masked rules break it and carry no `RingGrid`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Literal

import numpy as np

from .errors import PatchTooLarge

_TWO_PI = 2.0 * np.pi


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
    """Equispaced trapezoid nodes on every boundary circle.

    normal_signs is +1 where the outward normal points away from the
    origin (outer circle) and -1 where it points toward it (inner hole).
    """

    domain: DomainSpec
    nodes: np.ndarray
    weights: np.ndarray
    normal_signs: np.ndarray
    component_slices: tuple[slice, ...]
    rings: RingGrid


def boundary_quadrature(domain: DomainSpec, nodes_per_component: int) -> BoundaryQuadrature:
    """Trapezoid quadrature with N equispaced nodes per boundary circle."""
    if nodes_per_component < 8:
        raise ValueError("need at least 8 nodes per boundary component")
    n = nodes_per_component
    theta = _TWO_PI * np.arange(n) / n
    unit = np.exp(1j * theta)
    nodes, weights, signs, slices = [], [], [], []
    start = 0
    for comp_index, radius in enumerate(domain.component_radii):
        sign = 1.0 if comp_index == 0 else -1.0
        nodes.append(radius * unit)
        weights.append(np.full(n, _TWO_PI * radius / n))
        signs.append(np.full(n, sign))
        slices.append(slice(start, start + n))
        start += n
    return BoundaryQuadrature(
        domain=domain,
        nodes=np.concatenate(nodes),
        weights=np.concatenate(weights),
        normal_signs=np.concatenate(signs),
        component_slices=tuple(slices),
        rings=RingGrid(np.array(domain.component_radii), n, 0.0),
    )


@dataclass(frozen=True)
class AreaQuadrature:
    """Midpoint rule on polar cells; cell k covers [r0,r1] x [t0,t1]."""

    domain: DomainSpec
    z0: complex
    nodes: np.ndarray
    weights: np.ndarray
    r0: np.ndarray
    r1: np.ndarray
    t0: np.ndarray
    t1: np.ndarray
    rings: RingGrid

    def integrate(self, values: np.ndarray) -> float:
        return float(np.real(np.sum(self.weights * values)))


def _graded_edges(lo: float, hi: float, pivot: float, levels: int, grading: float) -> np.ndarray:
    """Edge sequence on [lo, hi] geometrically refined toward pivot."""
    pieces = [np.array([pivot])]
    if pivot - lo > 1e-15:
        left = pivot - (pivot - lo) * grading ** np.arange(levels + 1, dtype=float)
        left[0] = lo
        pieces.insert(0, left)
    if hi - pivot > 1e-15:
        right = pivot + (hi - pivot) * grading ** np.arange(levels, -1, -1, dtype=float)
        right[-1] = hi
        pieces.append(right)
    return np.unique(np.concatenate(pieces))


def _subdivide(edges: np.ndarray, spacing: float, min_panels: int = 1) -> np.ndarray:
    """Split every interval into max(min_panels, ceil(width/spacing)) panels.

    The spacing cap keeps refined cells no coarser than the surrounding
    global grid (smooth-density accuracy); min_panels > 1 additionally
    enforces a constant relative width on geometric levels, which is what
    controls the midpoint error on |z - z0|^(2*beta) profiles.
    """
    out = [edges[:1]]
    for a, b in zip(edges[:-1], edges[1:]):
        n = max(min_panels, int(np.ceil((b - a) / spacing - 1e-12)))
        out.append(a + (b - a) * np.arange(1, n + 1) / n)
    return np.concatenate(out)


def area_quadrature(
    domain: DomainSpec,
    z0: complex,
    radial_cells: int,
    angular_cells: int,
    patch_radius: float | None = None,
    grading: float = 0.7,
    patch_levels: int = 48,
    patch_panels: int = 20,
) -> AreaQuadrature:
    """Polar-cell quadrature with a radially graded refinement ring at z0.

    The annulus radial grid is geometric (uniform in log r) so Laurent
    modes are resolved evenly at both circles; the disc grid is uniform.
    patch_radius = 0 skips the ring entirely (best for densities smooth
    on the closed domain).
    """
    if not 0.0 < grading < 1.0:
        raise ValueError("grading must lie in (0, 1)")
    if not domain.contains(z0, margin=1e-9):
        raise ValueError(f"z0={z0} is not interior to the domain")
    if domain.kind == "annulus":
        u = np.linspace(0.0, 1.0, radial_cells + 1)
        global_r = domain.q ** (1.0 - u)
        global_r[0] = domain.q
        global_r[-1] = 1.0
    else:
        global_r = np.linspace(0.0, 1.0, radial_cells + 1)
    global_t = np.linspace(0.0, _TWO_PI, angular_cells + 1)

    s = abs(z0)
    clearance = domain.boundary_clearance(z0)
    if patch_radius is None:
        patch_radius = min(0.5 * clearance, 0.25)
    if patch_radius == 0.0:
        # No refinement block: plain global grid (smooth densities).
        inner, outer = global_r[:-1], global_r[1:]
    else:
        if patch_radius >= clearance:
            raise PatchTooLarge(
                f"patch radius {patch_radius:.4g} reaches the boundary "
                f"(clearance {clearance:.4g})"
            )

        # Snap the patch band to global radial grid lines so the tiling is
        # exact.  The patch is a full ring: radii geometrically graded toward
        # |z0| (putting z0 on a radial edge, so no quadrature node ever
        # coincides with it) while angles stay on the global uniform grid.
        # Keeping the angular structure uniform at every radius preserves the
        # exact angular orthogonality of monomial products; the radial
        # grading is what integrable radial singularities require.
        i0 = int(np.searchsorted(global_r, s - patch_radius, side="right")) - 1
        i0 = max(i0, 0)
        i1 = int(np.searchsorted(global_r, s + patch_radius, side="left"))
        i1 = min(max(i1, i0 + 1), radial_cells)
        ra, rb = float(global_r[i0]), float(global_r[i1])

        pivot_r = min(max(s, ra), rb)
        spacing_r = float(np.min(np.diff(global_r[i0 : i1 + 1])))
        pr_edges = _subdivide(
            _graded_edges(ra, rb, pivot_r, patch_levels, grading), spacing_r, patch_panels
        )
        # Global rings outside the band first, then the patch rings.
        keep_r = np.concatenate([np.arange(0, i0), np.arange(i1, radial_cells)])
        inner = np.concatenate([global_r[keep_r], pr_edges[:-1]])
        outer = np.concatenate([global_r[keep_r + 1], pr_edges[1:]])

    r0, t0 = np.meshgrid(inner, global_t[:-1], indexing="ij")
    r1, t1 = np.meshgrid(outer, global_t[1:], indexing="ij")
    r0, r1, t0, t1 = r0.ravel(), r1.ravel(), t0.ravel(), t1.ravel()
    rmid = 0.5 * (r0 + r1)
    tmid = 0.5 * (t0 + t1)
    weights = rmid * (r1 - r0) * (t1 - t0)
    nodes = rmid * np.exp(1j * tmid)
    rings = RingGrid(0.5 * (inner + outer), angular_cells, np.pi / angular_cells)
    return AreaQuadrature(domain, complex(z0), nodes, weights, r0, r1, t0, t1, rings)


@dataclass(frozen=True)
class MaskedQuadrature:
    """Nodes and weights restricted to one side of a level set."""

    nodes: np.ndarray
    weights: np.ndarray

    def integrate(self, values: np.ndarray) -> float:
        return float(np.real(np.sum(self.weights * values)))

    @property
    def total_weight(self) -> float:
        return float(np.sum(self.weights))


def mask_quadrature(
    quad: AreaQuadrature,
    level_field: Callable[[np.ndarray], np.ndarray],
    threshold: float,
    keep: Literal["below", "above"] = "below",
    radial_samples: int = 12,
) -> MaskedQuadrature:
    """Restrict an area quadrature to {field < threshold} or {field >= threshold}.

    Cells crossed by the level curve are split radially at the crossing
    point along the cell's angular midline (a single subdivision).  On
    radially symmetric fields the clipped areas are exact because the
    midpoint rule integrates the Jacobian r exactly.
    """
    def shifted(z):
        # Level fields carry log poles; -inf corner values classify fine.
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.asarray(level_field(z)) - threshold

    tmid = 0.5 * (quad.t0 + quad.t1)
    corners = [
        quad.r0 * np.exp(1j * quad.t0),
        quad.r0 * np.exp(1j * quad.t1),
        quad.r1 * np.exp(1j * quad.t0),
        quad.r1 * np.exp(1j * quad.t1),
        quad.nodes,
    ]
    vals = np.stack([shifted(c) for c in corners])
    if keep == "below":
        full = np.max(vals, axis=0) < 0.0
        empty = np.min(vals, axis=0) >= 0.0
    else:
        full = np.min(vals, axis=0) >= 0.0
        empty = np.max(vals, axis=0) < 0.0
    straddle = ~(full | empty)

    nodes = [quad.nodes[full]]
    weights = [quad.weights[full]]

    idx = np.nonzero(straddle)[0]
    if idx.size:
        r0 = quad.r0[idx]
        r1 = quad.r1[idx]
        th = tmid[idx]
        dt_cell = (quad.t1 - quad.t0)[idx]
        # Sample the radial line through each straddling cell and bisect
        # every sign change to locate the crossing radii.
        frac = np.linspace(0.0, 1.0, radial_samples + 1)
        rgrid = r0[:, None] + (r1 - r0)[:, None] * frac[None, :]
        fgrid = shifted(rgrid * np.exp(1j * th)[:, None])
        cuts = [[] for _ in range(idx.size)]
        change = np.sign(fgrid[:, :-1]) != np.sign(fgrid[:, 1:])
        ci, cj = np.nonzero(change)
        if ci.size:
            lo = rgrid[ci, cj].copy()
            hi = rgrid[ci, cj + 1].copy()
            theta_c = th[ci]
            flo = fgrid[ci, cj].copy()
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                fmid = shifted(mid * np.exp(1j * theta_c))
                same = np.sign(fmid) == np.sign(flo)
                lo = np.where(same, mid, lo)
                flo = np.where(same, fmid, flo)
                hi = np.where(same, hi, mid)
            roots = 0.5 * (lo + hi)
            for k, cell in enumerate(ci):
                cuts[cell].append(roots[k])
        sub_r0, sub_r1, sub_th, sub_dt = [], [], [], []
        for k in range(idx.size):
            edges = np.concatenate([[r0[k]], np.sort(np.array(cuts[k])), [r1[k]]])
            mids = 0.5 * (edges[:-1] + edges[1:])
            f_mid = shifted(mids * np.exp(1j * th[k]))
            if keep == "below":
                use = f_mid < 0.0
            else:
                use = f_mid >= 0.0
            for a, b, ok in zip(edges[:-1], edges[1:], use):
                if ok and b - a > 1e-15:
                    sub_r0.append(a)
                    sub_r1.append(b)
                    sub_th.append(th[k])
                    sub_dt.append(dt_cell[k])
        if sub_r0:
            a = np.array(sub_r0)
            b = np.array(sub_r1)
            rm = 0.5 * (a + b)
            nodes.append(rm * np.exp(1j * np.array(sub_th)))
            weights.append(rm * (b - a) * np.array(sub_dt))

    return MaskedQuadrature(np.concatenate(nodes), np.concatenate(weights))
