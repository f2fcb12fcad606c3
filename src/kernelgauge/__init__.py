"""Weighted Szego/Bergman kernel comparison on disc and annulus domains."""

from .errors import (
    EmptySublevel,
    EvaluationAtPole,
    InconsistentConstraints,
    InvalidConfig,
    InvalidProfile,
    KernelGaugeError,
    NonConvergent,
    NotEqualityShape,
    PoleTooCloseToBoundary,
    ResolutionTooCoarse,
    RouteMismatch,
    ScenarioError,
    SingularGram,
    TruncationInsufficient,
)
from .geometry import (
    AreaQuadrature,
    BoundaryQuadrature,
    DomainSpec,
    annulus,
    area_quadrature,
    boundary_quadrature,
    disc,
    mask_quadrature,
)
from .gfunctional import (
    BoundaryLimit,
    ExtremalFunction,
    GCurve,
    HardyDiagnostic,
    ShellIdentity,
    boundary_limit_check,
    f0_construct,
    g_curve,
    g_of_t,
    hardy_diagnostic,
    shell_identity_check,
    superlevel_constant,
)
from .kernels import (
    BasisDescriptor,
    KernelSection,
    KernelValue,
    Resolution,
    gram,
    kernel_diag,
    kernel_section,
    reproducing_residual,
)
from .numerics import (
    ConstraintSystem,
    HermitianMatrix,
    MinimizationResult,
    SweepResult,
    constrained_min,
    richardson_sweep,
)
from .potential import (
    GreenFunctionRep,
    HarmonicFunctionRep,
    LaurentSeries,
    character_distance,
    character_exponent,
    dirichlet_solve,
    green,
    log_capacity,
)
from .verifier import (
    EqualityPrediction,
    SuitaReport,
    VerificationReport,
    equality_predicate,
    verify,
    verify_suita,
)
from .weights import (
    CProfile,
    PhiSpec,
    PsiSpec,
    WeightConfig,
    rho_lambda_eval,
    validate_config,
)

__version__ = "0.1.0"
