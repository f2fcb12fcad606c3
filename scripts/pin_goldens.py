"""High-resolution run that produces the pinned margins in tests/golden_values.py.

Annulus strictness margins depend on the domain data in a way no closed
form captures, so they are frozen from this documented run and asserted
as regression values afterwards.  Rerun with
`python scripts/pin_goldens.py` and update tests/golden_values.py if the
discretization defaults ever change.
"""

import math

from kernelgauge import (
    CProfile,
    HarmonicFunctionRep,
    PhiSpec,
    PsiSpec,
    Resolution,
    WeightConfig,
    annulus,
    kernel_diag,
    log_capacity,
)

HI = Resolution(
    basis_schedule=(8, 16, 32, 48),
    boundary_nodes=1024,
    radial_cells=1024,
    angular_cells=384,
)


def report(tag, config, res=HI):
    k = kernel_diag(config, "szego", res)
    b = kernel_diag(config, "bergman", res)
    ratio = k.value / (config.c.total * math.pi * b.value)
    est = k.total_estimate / k.value + b.total_estimate / b.value
    print(f"{tag}: K={k.value:.12g} piB={math.pi*b.value:.12g} ratio={ratio:.12g} est={est:.2e}")
    return k, b, ratio


def main():
    q = 0.25
    z0 = 0.5
    plain = WeightConfig(annulus(q), z0, 0, PsiSpec(1.0), PhiSpec(), CProfile.constant_one())
    k, b, ratio = report("annulus_unweighted", plain)
    print(f"  strict_margin = {ratio - 1.0:.12g}")
    cbeta = log_capacity(annulus(q), z0)
    print(f"  cbeta^2 = {cbeta**2:.12g}")
    print(f"  left margin piB - cbeta^2 = {math.pi*b.value - cbeta**2:.12g}")
    print(f"  right margin Khat - piB = {k.value - math.pi*b.value:.12g}")

    shifted = WeightConfig(
        annulus(q), z0, 0, PsiSpec(1.0),
        PhiSpec(0.0, HarmonicFunctionRep.log_mode(-0.25)), CProfile.constant_one(),
    )
    _, _, ratio_shift = report("annulus_character_shift_0.25", shifted)
    print(f"  shifted_margin = {ratio_shift - 1.0:.12g}")

    k1 = WeightConfig(
        annulus(q), z0, 1, PsiSpec(2.0),
        PhiSpec(0.0, HarmonicFunctionRep.log_mode(0.3)), CProfile.constant_one(),
    )
    _, _, ratio_k1 = report("annulus_k1_character_shift_0.3", k1)
    print(f"  k1_shifted_margin = {ratio_k1 - 1.0:.12g}")


if __name__ == "__main__":
    main()
