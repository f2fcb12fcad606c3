import numpy as np
import pytest

from kernelgauge import (
    ConstraintSystem,
    HermitianMatrix,
    InconsistentConstraints,
    NonConvergent,
    SingularGram,
    constrained_min,
    richardson_sweep,
)
from kernelgauge.selftest import brute_force_constrained_min


def test_identity_case():
    result = constrained_min(
        HermitianMatrix(np.eye(2)), ConstraintSystem(np.array([[1.0, 0.0]]), np.array([1.0]))
    )
    assert result.value == pytest.approx(1.0, abs=1e-14)
    assert np.allclose(result.minimizer, [1.0, 0.0], atol=1e-14)


def test_lagrange_by_hand():
    result = constrained_min(
        HermitianMatrix(np.diag([2.0, 3.0])),
        ConstraintSystem(np.array([[1.0, 1.0]]), np.array([1.0])),
    )
    assert result.value == pytest.approx(6.0 / 5.0, abs=1e-14)
    assert np.allclose(result.minimizer, [3.0 / 5.0, 2.0 / 5.0], atol=1e-13)


def test_direct_enumeration_three_dim():
    result = constrained_min(
        HermitianMatrix(np.diag([1.0, 2.0, 3.0])),
        ConstraintSystem(np.array([[1.0, 0, 0], [0, 1.0, 0]]), np.array([0.0, 1.0])),
    )
    assert result.value == pytest.approx(2.0, abs=1e-14)
    assert np.allclose(result.minimizer, [0.0, 1.0, 0.0], atol=1e-13)


def test_brute_force_equivalence_random_instances():
    rng = np.random.default_rng(7)
    for dim in (2, 3):
        for _ in range(3):
            diag = rng.uniform(0.5, 3.0, size=dim)
            rows = rng.normal(size=(1, dim))
            target = np.array([rng.uniform(0.5, 1.5)])
            direct = constrained_min(
                HermitianMatrix(np.diag(diag)), ConstraintSystem(rows, target)
            ).value
            brute = brute_force_constrained_min(diag, rows, target, spread=3.0)
            assert direct == pytest.approx(brute, abs=1e-6)


def test_minimizer_energy_matches_value():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    m = a.conj().T @ a + 0.5 * np.eye(5)
    rows = rng.normal(size=(2, 5)) + 1j * rng.normal(size=(2, 5))
    target = np.array([1.0, 0.5 + 0.25j])
    matrix = HermitianMatrix(m)
    result = constrained_min(matrix, ConstraintSystem(rows, target))
    energy = float(np.real(result.minimizer.conj() @ (matrix.entries @ result.minimizer)))
    assert abs(energy - result.value) <= 1e-10 * result.value


def test_value_nonincreasing_in_dimension():
    # Growing the basis with fixed constraints enlarges the feasible set.
    rng = np.random.default_rng(11)
    a = rng.normal(size=(6, 6))
    m = a.T @ a + 0.5 * np.eye(6)
    rows_full = rng.normal(size=(1, 6))
    target = np.array([1.0])
    values = []
    for dim in (3, 4, 5, 6):
        values.append(
            constrained_min(
                HermitianMatrix(m[:dim, :dim]),
                ConstraintSystem(rows_full[:, :dim], target),
            ).value
        )
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


def test_rejects_non_hermitian():
    with pytest.raises(ValueError):
        HermitianMatrix(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_rank_deficient_constraints_raise():
    with pytest.raises(InconsistentConstraints):
        ConstraintSystem(np.array([[1.0, 1.0], [2.0, 2.0]]), np.array([1.0, 2.0]))


def test_more_constraints_than_dimension_raise():
    with pytest.raises(InconsistentConstraints):
        ConstraintSystem(np.array([[1.0], [2.0]]), np.array([1.0, 2.0]))


def test_singular_gram_raises():
    m = HermitianMatrix(np.diag([1.0, -1.0]))
    with pytest.raises(SingularGram):
        constrained_min(m, ConstraintSystem(np.array([[1.0, 0.0]]), np.array([1.0])))


def test_singular_psd_gram_recovers_by_jitter(monkeypatch):
    from kernelgauge import numerics

    calls = []
    factor = numerics.cho_factor

    def counted(*args, **kwargs):
        calls.append(args)
        return factor(*args, **kwargs)

    monkeypatch.setattr(numerics, "cho_factor", counted)
    m = HermitianMatrix(np.array([[1.0, 1j], [-1j, 1.0]]))
    constraints = ConstraintSystem(np.array([[1.0, 0.0]]), np.array([1.0]))
    result = constrained_min(m, constraints)
    assert len(calls) == 2
    assert np.isfinite(result.value) and result.value >= 0.0
    residual = np.linalg.norm(constraints.rows @ result.minimizer - constraints.target)
    assert residual <= numerics._CONSTRAINT_RTOL * np.linalg.norm(constraints.target)


def _random_problem(rng, n, k):
    """A random Hermitian positive definite matrix of order n and k + 1 random constraint rows."""
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    m = HermitianMatrix(a.conj().T @ a / n + 0.05 * np.eye(n))
    rows = rng.normal(size=(k + 1, n)) + 1j * rng.normal(size=(k + 1, n))
    target = np.zeros(k + 1)
    target[-1] = 1.0
    return m, ConstraintSystem(rows, target)


def _separate(m, constraints, sizes):
    return [constrained_min(m.principal(s), constraints.restricted(s)) for s in sizes]


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("n", [9, 65, 97])
def test_schedule_minima_match_separate_prefix_solves(n, k):
    rng = np.random.default_rng(100 * n + k)
    m, constraints = _random_problem(rng, n, k)
    sizes = [k + 1, n // 4 + k, n // 2, n]
    got = constrained_min(m, constraints, sizes)
    assert len(got) == len(sizes)
    for s, result, reference in zip(sizes, got, _separate(m, constraints, sizes)):
        assert result.minimizer.shape == (s,)
        assert abs(result.value - reference.value) <= 1e-13 * reference.value
        restricted = constraints.restricted(s)
        residual = np.linalg.norm(restricted.rows @ result.minimizer - restricted.target)
        assert residual <= 1e-10


def test_single_size_is_the_plain_call_bit_for_bit():
    m, constraints = _random_problem(np.random.default_rng(7), 65, 1)
    (whole,) = constrained_min(m, constraints, [65])
    plain = constrained_min(m, constraints)
    assert whole.value == plain.value
    assert np.array_equal(whole.minimizer, plain.minimizer)


def test_schedule_factors_the_whole_matrix_once(monkeypatch):
    from kernelgauge import numerics

    calls = []
    factor = numerics.cho_factor

    def counted(matrix):
        calls.append(matrix.shape[0])
        return factor(matrix)

    monkeypatch.setattr(numerics, "cho_factor", counted)
    m, constraints = _random_problem(np.random.default_rng(3), 33, 0)
    constrained_min(m, constraints, [9, 17, 33])
    assert calls == [33]


def test_schedule_prefixes_read_the_jittered_factor(monkeypatch):
    # The leading 24 x 24 block is well conditioned; the last row makes the
    # whole indefinite by 1e-15 of its diagonal, so only the whole needs the
    # jitter retry, and every prefix reads the jittered factor.
    from kernelgauge import numerics

    calls = []
    factor = numerics.cho_factor

    def counted(matrix):
        calls.append(matrix.shape[0])
        return factor(matrix)

    rng = np.random.default_rng(11)
    lead, constraints = _random_problem(rng, 24, 1)
    a = lead.entries
    v = rng.normal(size=24) + 1j * rng.normal(size=24)
    column = a @ v
    corner = float(np.real(np.vdot(v, column)))
    whole = np.zeros((25, 25), dtype=complex)
    whole[:24, :24] = a
    whole[:24, 24] = column
    whole[24, :24] = column.conj()
    whole[24, 24] = corner * (1.0 - 1e-15)
    rows = np.concatenate([constraints.rows, rng.normal(size=(2, 1))], axis=1)
    extended = ConstraintSystem(rows, constraints.target)
    sizes = [6, 12, 24]
    unjittered = _separate(HermitianMatrix(whole), extended, sizes)
    monkeypatch.setattr(numerics, "cho_factor", counted)
    got = constrained_min(HermitianMatrix(whole), extended, sizes)
    assert calls == [25, 25]
    for result, reference in zip(got, unjittered):
        assert abs(result.value - reference.value) <= 1e-10 * reference.value


def test_schedule_prefix_with_fewer_elements_than_constraints_raises():
    m, constraints = _random_problem(np.random.default_rng(5), 12, 2)
    with pytest.raises(InconsistentConstraints):
        constrained_min(m, constraints, [2, 12])


@pytest.mark.parametrize("sizes", [[0, 12], [12, 13]])
def test_schedule_sizes_outside_the_matrix_raise(sizes):
    m, constraints = _random_problem(np.random.default_rng(5), 12, 0)
    with pytest.raises(ValueError):
        constrained_min(m, constraints, sizes)


@pytest.mark.parametrize("n", [5, 63, 64, 65, 130])
def test_blocked_cholesky_matches_lapack(n):
    from kernelgauge.numerics import _CHOLESKY_BLOCK, cho_factor

    rng = np.random.default_rng(n)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    m = a.conj().T @ a + 0.1 * np.eye(n)
    factor = cho_factor(m)
    reference = np.linalg.cholesky(m)
    if n <= _CHOLESKY_BLOCK:
        assert np.array_equal(factor, reference)
    np.testing.assert_allclose(factor, reference, rtol=0.0, atol=1e-13 * np.abs(reference).max())
    assert not np.any(np.triu(factor, 1))
    rhs = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
    solved = np.linalg.solve(factor.conj().T, np.linalg.solve(factor, rhs))
    np.testing.assert_allclose(m @ solved, rhs, rtol=0.0, atol=1e-10 * np.abs(rhs).max())


def test_blocked_cholesky_rejects_indefinite_trailing_block():
    from kernelgauge.numerics import cho_factor

    m = np.eye(100, dtype=complex)
    m[90, 90] = -1.0
    with pytest.raises(np.linalg.LinAlgError):
        cho_factor(m)


def test_nonfinite_gram_raises():
    m = HermitianMatrix(np.diag([1.0, np.nan]))
    with pytest.raises(ValueError):
        constrained_min(m, ConstraintSystem(np.array([[1.0, 0.0]]), np.array([1.0])))


def test_richardson_geometric_tail():
    sweep = richardson_sweep(lambda n: 1.0 + 2.0**-n, [4, 8, 16])
    assert sweep.value == pytest.approx(1.0 + 2.0**-16, abs=1e-15)
    assert sweep.error_estimate == pytest.approx(2.0**-8 - 2.0**-16, abs=1e-15)


def test_richardson_constant_sequence():
    sweep = richardson_sweep(lambda n: np.pi, [4, 8, 16])
    assert sweep.value == pytest.approx(np.pi)
    assert sweep.error_estimate == 0.0


def test_richardson_partial_sums_within_estimate():
    def partial(n):
        idx = np.arange(n)
        return float(np.sum((idx + 1) * 0.25**idx))

    sweep = richardson_sweep(partial, [4, 8, 16, 32])
    assert abs(sweep.value - 16.0 / 9.0) <= sweep.error_estimate


def test_richardson_nonconvergent():
    with pytest.raises(NonConvergent):
        richardson_sweep(lambda n: float(n**2), [2, 4, 8, 16])


def test_richardson_schedule_validation():
    with pytest.raises(ValueError):
        richardson_sweep(lambda n: 1.0, [4])
    with pytest.raises(ValueError):
        richardson_sweep(lambda n: 1.0, [4, 4, 8])
