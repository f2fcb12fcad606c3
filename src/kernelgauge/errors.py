"""Exception taxonomy shared by all kernelgauge modules."""


class KernelGaugeError(Exception):
    """Base class for all kernelgauge errors."""


class SingularGram(KernelGaugeError):
    """Gram matrix is not positive definite even after a jitter retry."""


class InconsistentConstraints(KernelGaugeError):
    """Constraint rows are rank deficient or the system cannot be met."""


class NonConvergent(KernelGaugeError):
    """Successive refinement differences grow instead of shrinking."""


class PoleTooCloseToBoundary(KernelGaugeError):
    """Green-function pole too close to the boundary for series accuracy."""


class TruncationInsufficient(KernelGaugeError):
    """Harmonic expansion cannot match the boundary data to tolerance."""


class InvalidProfile(KernelGaugeError):
    """Radial weight profile violates an admissibility condition."""


class EvaluationAtPole(KernelGaugeError):
    """Density requested exactly at a point where it is unbounded."""


class EmptySublevel(KernelGaugeError):
    """Sublevel threshold exceeds the field range on the grid."""


class NotEqualityShape(KernelGaugeError):
    """Weight configuration lies outside the extremal-section family."""


class RouteMismatch(KernelGaugeError):
    """Direct and reduced kernel computations disagree beyond tolerance."""


class InvalidConfig(KernelGaugeError):
    """Weight configuration failed validation checks."""


class ResolutionTooCoarse(InvalidConfig, ValueError):
    """Quadrature resolution too coarse for the basis order it must integrate."""


class ScenarioError(KernelGaugeError):
    """Scenario file is malformed or contains unknown/out-of-range keys."""
