import numpy as np
import pytest

from latsweep.errors import InvalidInputError
from latsweep.linalg import (
    nullspace_basis,
    numerical_rank,
    pseudoinverse,
    weighted_gram,
)


def penrose_residual(A, Ap):
    nrm = max(np.linalg.norm(A), 1e-30)
    return max(
        np.linalg.norm(A @ Ap @ A - A),
        np.linalg.norm(Ap @ A @ Ap - Ap) * nrm / max(np.linalg.norm(Ap), 1e-30),
        np.linalg.norm((A @ Ap).T - A @ Ap) * nrm,
        np.linalg.norm((Ap @ A).T - Ap @ A) * nrm,
    )


def test_pseudoinverse_identity():
    assert np.allclose(pseudoinverse(np.eye(3)), np.eye(3))
    # a rank-deficient projector is its own pseudoinverse; its zero singular
    # value must not be inverted
    P = np.diag([1.0, 1.0, 0.0])
    assert np.allclose(pseudoinverse(P), P)


def test_pseudoinverse_selector_matrix_is_transpose():
    # rows are orthonormal standard basis vectors, so the pseudoinverse is
    # the transpose
    R = np.zeros((4, 12))
    R[0, 8] = R[1, 9] = R[2, 10] = R[3, 11] = 1.0
    Rp = pseudoinverse(R)
    assert np.allclose(Rp, R.T, atol=1e-14)
    assert penrose_residual(R, Rp) <= 10 * 1e-10 * np.linalg.norm(R)


def test_pseudoinverse_column_vector():
    A = np.array([[3.0], [4.0]])
    Ap = pseudoinverse(A)
    assert np.allclose(Ap, [[3 / 25, 4 / 25]])
    assert np.allclose(Ap @ A, [[1.0]])


def test_pseudoinverse_rejects_nonfinite():
    with pytest.raises(InvalidInputError):
        pseudoinverse(np.array([[1.0, np.nan]]))


def test_penrose_identities_random():
    rng = np.random.default_rng(7)
    for _ in range(50):
        r, c = rng.integers(1, 8, 2)
        A = rng.standard_normal((r, c))
        if rng.random() < 0.3:  # force rank deficiency
            A[:, -1] = A[:, 0] if c > 1 else A[:, -1]
        assert penrose_residual(A, pseudoinverse(A)) <= 10 * 1e-10 * np.linalg.norm(A)


def test_nullspace_trivial_kernel():
    N = nullspace_basis(np.eye(2))
    assert N.shape == (2, 0)


def test_nullspace_single_row():
    N = nullspace_basis(np.array([[1.0, 1.0]]))
    assert N.shape == (2, 1)
    expected = np.array([1.0, -1.0]) / np.sqrt(2)
    assert np.allclose(N[:, 0], expected) or np.allclose(N[:, 0], -expected)


def test_nullspace_orthonormal_and_rank_nullity():
    rng = np.random.default_rng(11)
    for _ in range(50):
        r, c = rng.integers(1, 9, 2)
        A = rng.standard_normal((r, c))
        if rng.random() < 0.4 and r > 1:
            A[-1] = A[0]
        N = nullspace_basis(A)
        rank = numerical_rank(A)
        assert rank + N.shape[1] == c
        if N.shape[1]:
            assert np.abs(N.T @ N - np.eye(N.shape[1])).max() <= 1e-10
            assert np.abs(A @ N).max() <= 10 * 1e-10 * max(np.linalg.norm(A), 1.0)


def test_numerical_rank_zero_matrix():
    assert numerical_rank(np.zeros((3, 3))) == 0


def test_numerical_rank_identity():
    assert numerical_rank(np.eye(5)) == 5


def test_enhanced_equilibrium_rank_example1(example1):
    definition, _, system = example1
    stacked = np.hstack([system.compatibility.T, definition.constraint_matrix.T])
    assert stacked.shape == (12, 14)
    assert numerical_rank(stacked) == 12


def test_example1_enhanced_compatibility_trivial_kernel(example1):
    definition, _, system = example1
    stacked = np.vstack([system.compatibility, definition.constraint_matrix])
    assert nullspace_basis(stacked).shape == (12, 0)


def test_weighted_gram_diag():
    assert np.allclose(weighted_gram(np.eye(2), np.array([2.0, 3.0])), np.diag([2.0, 3.0]))


def test_weighted_gram_single_column():
    v = np.array([[0.6], [0.8]])
    assert np.allclose(weighted_gram(v, 4.0 * np.eye(2)), [[4.0]])


def test_weighted_gram_orthonormal_columns(example1):
    _, _, system = example1
    G = weighted_gram(system.V_basis, np.ones(10))
    assert np.allclose(G, np.eye(2), atol=1e-12)


def test_weighted_gram_dimension_mismatch():
    with pytest.raises(InvalidInputError):
        weighted_gram(np.eye(3), np.ones(2))
