"""Dense Hermitian linear algebra and convergence estimation.

All reductions go through numpy matmul/vdot on index-ordered contiguous
arrays, so repeated runs on the same build produce identical bits.  Nothing
here mutates its inputs; every function is safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import InconsistentConstraints, NonConvergent, SingularGram

# Relative diagonal jitter used in the single Cholesky retry.
_JITTER = 1e-12
# Largest order factored by one LAPACK potrf call.  OpenBLAS runs potrf of
# order 64 and up on its thread pool, whose result then depends on the
# thread count in the last bits; below that it runs on one thread.
_CHOLESKY_BLOCK = 63
# Relative residual allowed on the constraint equations of a minimizer.
_CONSTRAINT_RTOL = 1e-10
# Relative level below which a difference of two computed values is taken
# as roundoff (BLAS thread counts alone move kernel values by ~1e-14).
ROUNDOFF_REL = 1e-12


@dataclass(frozen=True)
class HermitianMatrix:
    """Hermitian matrix holding a discretized sesquilinear form.

    The constructor symmetrizes the entries and rejects matrices whose
    Hermitian defect is above roundoff scale, so downstream solvers can
    rely on exact Hermitian symmetry.
    """

    entries: np.ndarray

    def __post_init__(self):
        a = np.array(self.entries, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("entries must form a square matrix")
        scale = max(float(np.max(np.abs(a))) if a.size else 0.0, 1.0)
        defect = float(np.max(np.abs(a - a.conj().T))) if a.size else 0.0
        if defect > 1e-10 * scale:
            raise ValueError(f"matrix is not Hermitian (defect {defect:.3e})")
        a = 0.5 * (a + a.conj().T)
        a.flags.writeable = False
        object.__setattr__(self, "entries", a)

    def principal(self, m: int) -> "HermitianMatrix":
        """Leading m-by-m principal submatrix (nested-basis restriction)."""
        return HermitianMatrix(self.entries[:m, :m])


@dataclass(frozen=True)
class ConstraintSystem:
    """Linear functionals L x = b imposed on basis coefficients."""

    rows: np.ndarray
    target: np.ndarray

    def __post_init__(self):
        rows = np.array(self.rows, dtype=complex)
        if rows.ndim == 1:
            rows = rows[None, :]
        target = np.array(self.target, dtype=complex).reshape(-1)
        if rows.shape[0] != target.shape[0]:
            raise ValueError("row count does not match target length")
        if rows.shape[0] > rows.shape[1]:
            raise InconsistentConstraints(
                f"{rows.shape[0]} constraints exceed dimension {rows.shape[1]}"
            )
        gram = rows @ rows.conj().T
        eigs = np.linalg.eigvalsh(gram)
        if eigs[0] <= 1e-13 * max(eigs[-1], 1e-300):
            raise InconsistentConstraints(
                f"constraint rows are rank deficient (eig ratio {eigs[0]:.3e}/{eigs[-1]:.3e})"
            )
        rows.flags.writeable = False
        target.flags.writeable = False
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "target", target)

    def restricted(self, m: int) -> "ConstraintSystem":
        """Constraints acting on the leading m basis coefficients."""
        return ConstraintSystem(self.rows[:, :m], self.target)


@dataclass(frozen=True)
class MinimizationResult:
    value: float
    minimizer: np.ndarray


@dataclass(frozen=True)
class SweepResult:
    value: float
    error_estimate: float


def cho_factor(m: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor L of the Hermitian m = L L^H, reading m's lower triangle.

    Built from diagonal blocks of order at most _CHOLESKY_BLOCK, so up to
    that order it is one LAPACK potrf call.  Raises np.linalg.LinAlgError
    when m is not numerically positive definite.
    """
    n = m.shape[0]
    factor = np.zeros_like(m)
    for j in range(0, n, _CHOLESKY_BLOCK):
        e = min(j + _CHOLESKY_BLOCK, n)
        left = factor[j:e, :j]
        diag = np.linalg.cholesky(m[j:e, j:e] - left @ left.conj().T)
        factor[j:e, j:e] = diag
        if e < n:
            below = m[e:, j:e].conj().T - left @ factor[e:, :j].conj().T
            factor[e:, j:e] = np.linalg.solve(diag, below).conj().T
    return factor


def _cholesky_with_retry(m: np.ndarray) -> np.ndarray:
    if not np.isfinite(m).all():
        raise ValueError("array must not contain infs or NaNs")
    try:
        return cho_factor(m)
    except np.linalg.LinAlgError:
        pass
    jitter = _JITTER * float(np.real(np.trace(m))) / m.shape[0]
    try:
        return cho_factor(m + jitter * np.eye(m.shape[0]))
    except np.linalg.LinAlgError as exc:
        raise SingularGram(
            f"Cholesky failed after jitter retry (dim {m.shape[0]}): {exc}"
        ) from exc


def constrained_min(
    matrix: HermitianMatrix, constraints: ConstraintSystem, sizes: Sequence[int] | None = None
) -> MinimizationResult | tuple[MinimizationResult, ...]:
    """Minimize x^H M x subject to L x = b.

    Uses the Schur-complement formula value = b^H (L M^-1 L^H)^-1 b, which
    is cheap because constraint counts stay tiny compared to the basis.

    With sizes, returns one result per size s: the minimum over the leading
    s coefficients, under `constraints.restricted(s)`, of the principal
    block `matrix.principal(s)`.  Every size reads one Cholesky factor F of
    the whole matrix (jittered, if the whole needs the retry): F's leading
    s x s block is the factor of that principal block, and the leading s
    rows of F^-1 L^H are its own.  Each size's minimizer has its own
    residual check.  A call without sizes is the single size
    matrix.entries.shape[0], and returns its result alone.
    """
    m = matrix.entries
    rows = constraints.rows
    if rows.shape[1] != m.shape[0]:
        raise ValueError("constraint width does not match matrix dimension")
    factor = _cholesky_with_retry(m)
    half = np.linalg.solve(factor, rows.conj().T)
    if sizes is None:
        return _minimum(factor, half, constraints)
    if any(not 0 < s <= m.shape[0] for s in sizes):
        raise ValueError(f"sizes must lie in 1..{m.shape[0]}")
    return tuple(_minimum(factor[:s, :s], half[:s], constraints.restricted(s)) for s in sizes)


def _minimum(factor: np.ndarray, half: np.ndarray, constraints: ConstraintSystem) -> MinimizationResult:
    """The constrained minimum from the factor F of M and half = F^-1 L^H."""
    rows = constraints.rows
    b = constraints.target
    minv_lh = np.linalg.solve(factor.conj().T, half)
    schur = rows @ minv_lh
    schur = 0.5 * (schur + schur.conj().T)
    try:
        mu = np.linalg.solve(schur, b)
    except np.linalg.LinAlgError as exc:
        raise InconsistentConstraints(f"constraint Schur system singular: {exc}") from exc
    x = minv_lh @ mu
    value = float(np.real(np.vdot(b, mu)))
    residual = float(np.linalg.norm(rows @ x - b))
    if residual > _CONSTRAINT_RTOL * max(float(np.linalg.norm(b)), 1e-300):
        raise InconsistentConstraints(
            f"minimizer violates constraints (residual {residual:.3e})"
        )
    return MinimizationResult(max(value, 0.0), x)


def richardson_sweep(evaluate: Callable[[int], float], schedule: Sequence[int]) -> SweepResult:
    """Evaluate over an increasing resolution schedule and estimate the tail.

    Returns the value at the largest resolution together with the last
    successive difference as a truncation estimate.  Raises NonConvergent
    when the differences grow over the last three schedule points.
    """
    schedule = list(schedule)
    if len(schedule) < 2:
        raise ValueError("schedule must contain at least two resolutions")
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("schedule must be strictly increasing")
    values = [float(evaluate(n)) for n in schedule]
    diffs = [abs(b - a) for a, b in zip(values, values[1:])]
    floor = ROUNDOFF_REL * max(abs(values[-1]), 1e-300)
    if len(diffs) >= 2 and diffs[-1] > diffs[-2] and diffs[-1] > floor:
        raise NonConvergent(
            f"differences grow over last points: {diffs[-2]:.3e} -> {diffs[-1]:.3e}"
        )
    return SweepResult(values[-1], diffs[-1])
