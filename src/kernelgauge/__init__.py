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
    ShellIdentity,
    boundary_limit_check,
    f0_construct,
    g_curve,
    g_of_t,
    shell_identity_check,
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
    Character,
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
    HardyDiagnostic,
    SuitaReport,
    VerificationReport,
    equality_predicate,
    hardy_diagnostic,
    superlevel_constant,
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
