"""Property-based tests: symmetries of the kernels checked on drawn data.

Each property is a fact about the exact kernels that the discretization
keeps, so it holds to roundoff on every draw.  Example counts are fixed
and the draws derandomized, so a run is reproducible and stays short.
"""

import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernelgauge import CProfile, PhiSpec, PsiSpec, Resolution, WeightConfig, annulus, disc, kernel_diag

RES = Resolution((8, 16), 128, 96, 80, 12)

# Domain and the range of |z0| drawn on it.
CASES = {"disc": (disc(), 0.0, 0.5), "annulus": (annulus(0.25), 0.4, 0.6)}


@pytest.mark.parametrize("case", sorted(CASES))
@settings(derandomize=True, max_examples=10, deadline=None)
@given(
    radius=st.floats(0.0, 1.0),
    angle=st.floats(0.0, 2.0 * math.pi),
    turns=st.integers(1, RES.angular_cells - 1),
    delta=st.floats(-0.5, 0.3),
)
def test_kernel_diagonals_invariant_under_rotating_z0_by_grid_angles(case, radius, angle, turns, delta):
    # Rotating z0 about 0 maps the domain, the weights and the Laurent basis
    # onto themselves, so K and B at z0 equal K and B at the rotated point.
    # A rotation by whole angular cells also maps the area rule onto itself.
    domain, lo, hi = CASES[case]
    z0 = cmath.rect(lo + (hi - lo) * radius, angle)
    rotated = z0 * cmath.exp(2j * math.pi * turns / RES.angular_cells)

    def diagonals(point):
        config = WeightConfig(domain, point, 0, PsiSpec(1.0), PhiSpec(), CProfile.exp_delta(delta))
        return [kernel_diag(config, side, RES).value for side in ("szego", "bergman")]

    for before, after in zip(diagonals(z0), diagonals(rotated)):
        assert abs(after - before) <= 1e-12 * abs(before)
