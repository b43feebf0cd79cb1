import tracemalloc

import numpy as np
import pytest

from latsweep.errors import InvalidInputError
from latsweep.linalg import (
    PANEL,
    Reflectors,
    fix_signs,
    householder_columns,
    householder_qr,
    inverse_cholesky_factor,
    nullspace_basis,
    numerical_rank,
    pseudoinverse,
    triangular_inverse,
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


def _qr(A, first=None, last=None):
    """``householder_qr`` of a dense ``A``, handed over as its nonzeros."""
    i, j = np.nonzero(A)
    return householder_qr((i, j, A[i, j]), A.shape, first, last)


def _complete_and_raw(A):
    """``Q`` of the complete QR of ``A`` and the blocks the reflectors give."""
    m, n = A.shape
    Q = np.linalg.qr(A, mode="complete")[0]
    _, reflectors = _qr(A)
    return Q, householder_columns(reflectors, 0, n), householder_columns(reflectors, n, m)


@pytest.mark.parametrize("n", [PANEL - 1, PANEL, PANEL + 1, 2 * PANEL + 2])
def test_householder_columns_match_complete_qr_around_the_panel_width(n):
    # one, one full, one and a bit, and two and a bit panels of reflectors
    A = np.random.default_rng(n).standard_normal((n + 90, n))
    Q, Q1, W = _complete_and_raw(A)
    assert Q1.shape == (n + 90, n) and W.shape == (n + 90, 90)
    assert np.abs(Q1 - Q[:, :n]).max() <= 1e-14
    assert np.abs(W - Q[:, n:]).max() <= 1e-14


def test_householder_columns_drop_identity_reflectors():
    # a column already zero below its diagonal gives tau = 0: a tall
    # triangle gives nothing else, selection columns a mix
    rng = np.random.default_rng(3)
    triangle = np.vstack([np.triu(rng.standard_normal((70, 70))), np.zeros((30, 70))])
    selection = np.eye(100)[:, [0, 1, 7, 3, 50, 4, 99, 5] + list(range(10, 80))]
    for A in (triangle, selection):
        Q, Q1, W = _complete_and_raw(A)
        assert np.any(np.linalg.qr(A, mode="raw")[1] == 0.0)
        assert np.abs(Q1 - Q[:, :A.shape[1]]).max() <= 1e-14
        assert np.abs(W - Q[:, A.shape[1]:]).max() <= 1e-14
    _, Q1, W = _complete_and_raw(triangle)
    assert not np.any(np.linalg.qr(triangle, mode="raw")[1])
    assert np.array_equal(np.hstack([Q1, W]), np.eye(100))


def test_householder_columns_of_square_and_empty_matrices():
    rng = np.random.default_rng(5)
    Q, Q1, W = _complete_and_raw(rng.standard_normal((70, 70)))
    assert W.shape == (70, 0)
    assert np.abs(Q1 - Q).max() <= 1e-14
    _, Q1, W = _complete_and_raw(np.zeros((6, 0)))
    assert Q1.shape == (6, 0) and np.array_equal(W, np.eye(6))


def test_householder_columns_of_no_columns_run_no_panel():
    # panels that cannot be iterated: asking for no column never reads them
    for start in (0, 3, 7):
        out = householder_columns(Reflectors(None, 7), start, start)
        assert out.shape == (7, 0)


def _band(rng, m, n, width):
    """A random ``m x n`` matrix whose rows hold nonzeros in at most
    ``width`` consecutive columns, sorted by their first column, with the
    row extents ``first`` and ``last``."""
    first = np.sort(rng.integers(0, n, m))
    last = np.minimum(first + rng.integers(0, width, m), n - 1)
    A = np.zeros((m, n))
    for i in range(m):
        A[i, first[i]:last[i] + 1] = rng.standard_normal(last[i] - first[i] + 1)
    return A, first, last


def _check_band_qr(A, first=None, last=None):
    """``householder_qr`` of ``A`` against ``numpy.linalg.qr(mode="complete")``:
    the triangle up to row signs, and each requested block of ``Q`` as a
    subspace; ``Q R`` gives back ``A``."""
    m, n = A.shape
    p = min(m, n)
    Q, R = np.linalg.qr(A, mode="complete")
    T, reflectors = _qr(A, first, last)
    assert T.shape == (p, n)
    signs = np.where(np.diag(T) * np.diag(R[:p]) < 0, -1.0, 1.0)[:, None]
    assert np.abs(signs * T - R[:p]).max() <= 1e-13 * max(np.abs(R).max(), 1.0)
    Q1, W = householder_columns(reflectors, 0, p), householder_columns(reflectors, p, m)
    assert Q1.shape == (m, p) and W.shape == (m, m - p)
    assert np.abs(Q1 @ Q1.T - Q[:, :p] @ Q[:, :p].T).max() <= 1e-13
    assert np.abs(W @ W.T - Q[:, p:] @ Q[:, p:].T).max() <= 1e-13
    assert np.abs(Q1 @ T - A).max() <= 1e-13 * max(np.abs(A).max(), 1.0)
    return T, reflectors


@pytest.mark.parametrize("n", [PANEL - 1, PANEL, PANEL + 1, 2 * PANEL + 1])
def test_householder_qr_of_a_band_matches_complete_qr(n):
    rng = np.random.default_rng(100 + n)
    A, first, last = _band(rng, n + 70, n, 40)
    _check_band_qr(A, first, last)
    _check_band_qr(A)  # the same matrix as dense


def test_householder_qr_of_a_band_with_zero_rows_and_identity_reflectors():
    # selection rows ahead of a band give tau = 0 reflectors inside the
    # first panel, and zero rows (springs between clamped nodes) go last
    # with no column: Q is the identity on them
    rng = np.random.default_rng(21)
    band, first, last = _band(rng, 130, 80, 30)
    A = np.zeros((155, 100))
    A[:20, :20] = np.eye(20)
    A[20:150, 20:] = band
    first = np.concatenate([np.arange(20), first + 20, np.full(5, 100)])
    last = np.concatenate([np.arange(20), last + 20, np.full(5, -1)])
    assert not np.linalg.qr(A, mode="raw")[1][:20].any()
    _, reflectors = _check_band_qr(A, first, last)
    W = householder_columns(reflectors, 100, 155)
    assert np.array_equal(W[150:], np.eye(55)[50:])
    assert not W[:150, 50:].any()


def test_householder_qr_of_a_panel_with_fewer_rows_than_columns():
    # the second panel reaches 20 rows past its first column, and its
    # trailing columns have none: the triangle has zeros on its diagonal
    rng = np.random.default_rng(8)
    top, first_top, last_top = _band(rng, PANEL + 20, PANEL + 10, 30)
    A = np.zeros((PANEL + 100, 3 * PANEL))
    A[:PANEL + 20, :PANEL + 10] = top
    A[PANEL + 20:, 2 * PANEL:] = rng.standard_normal((80, PANEL))
    first = np.concatenate([first_top, np.full(80, 2 * PANEL)])
    last = np.concatenate([last_top, np.full(80, 3 * PANEL - 1)])
    T, _ = _check_band_qr(A, first, last)
    assert not np.diag(T)[PANEL + 20:2 * PANEL].any()


def test_householder_qr_of_panels_that_share_no_rows():
    # a square block and then a tall one: the first panel's rows end where
    # the second begins, so it never reaches the second block's columns
    rng = np.random.default_rng(13)
    A = np.zeros((PANEL + 100, 2 * PANEL))
    A[:PANEL, :PANEL] = rng.standard_normal((PANEL, PANEL))
    A[PANEL:, PANEL:] = rng.standard_normal((100, PANEL))
    first, last = np.repeat([0, PANEL], [PANEL, 100]), np.repeat([PANEL - 1, 2 * PANEL - 1], [PANEL, 100])
    _check_band_qr(A, first, last)


def test_householder_qr_of_no_columns_and_reordered_rows():
    # dim_u = 0, as in a chain of two pinned nodes: Q is the identity
    T, reflectors = _qr(np.zeros((3, 0)), np.zeros(3, dtype=int), np.full(3, -1))
    assert T.shape == (0, 0) and not reflectors.panels
    rows = np.array([2, 0, 1])
    assert np.array_equal(householder_columns(reflectors, 0, 3, rows), np.eye(3)[rows].T)
    # with rows, row i of Q lands in row rows[i]
    rng = np.random.default_rng(4)
    A, first, last = _band(rng, 200, 130, 25)
    _, reflectors = _qr(A, first, last)
    rows = rng.permutation(200)
    placed = householder_columns(reflectors, 130, 200, rows)
    assert np.array_equal(placed[rows], householder_columns(reflectors, 130, 200))


def test_householder_qr_of_a_tall_narrow_band_holds_no_dense_matrix():
    # 3000 x 1000 with at most 8 nonzeros a row, handed over as entries:
    # beyond the R and the reflectors it returns, the QR holds one front
    # and its panel's temporaries, under a quarter of the m x n array a
    # dense gather would be; R and the Y of the reflectors are a third
    # each, so all of it stays below that array
    rng = np.random.default_rng(17)
    m, n = 3000, 1000
    first = np.sort(rng.integers(0, n, m))
    last = np.minimum(first + rng.integers(0, 8, m), n - 1)
    i = np.repeat(np.arange(m), last - first + 1)
    j = np.concatenate([np.arange(a, b + 1) for a, b in zip(first, last)])
    v = rng.standard_normal(i.size)
    tracemalloc.start()
    try:
        R, reflectors = householder_qr((i, j, v), (m, n), first, last)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    dense = m * n * np.dtype(float).itemsize
    kept = R.nbytes + sum(Y.nbytes + T.nbytes for _, Y, T in reflectors.panels)
    assert peak - kept < dense / 4
    assert peak < dense
    A = np.zeros((m, n))
    A[i, j] = v
    reference = np.linalg.qr(A, mode="r")
    signs = np.where(np.diag(R) * np.diag(reference) < 0, -1.0, 1.0)[:, None]
    assert np.abs(signs * R - reference).max() <= 1e-13 * np.abs(reference).max()


@pytest.mark.parametrize("n", [0, 1, PANEL, PANEL + 1, 340])
def test_triangular_inverse_matches_inverse(n):
    # the triangle of a random tall matrix's QR, well conditioned
    T = np.linalg.qr(np.random.default_rng(n).standard_normal((2 * n + 1, n)), mode="r")
    work = T.copy()
    inverse = triangular_inverse(work)
    assert inverse is work and inverse.shape == (n, n)
    if n:
        reference = np.linalg.inv(T)
        assert np.abs(inverse - reference).max() <= 1e-13 * np.abs(reference).max()
        assert not np.tril(inverse, -1).any()


def _fix_signs_by_abs(N):
    """The sign rule written out: each column's first entry of largest
    magnitude made positive, from ``np.abs`` and a copy of the flipped
    columns."""
    N = N.copy()
    if N.size:
        top = N[np.argmax(np.abs(N), axis=0), np.arange(N.shape[1])]
        N[:, top < 0] *= -1.0
    return N


def test_fix_signs_matches_the_rule_on_ties_and_empty_arrays():
    rng = np.random.default_rng(21)
    cases = [rng.standard_normal((37, 2 * PANEL + 5))]
    # small integers: columns whose largest magnitude is held by +a and -a,
    # in either order, and columns of zeros and of signed zeros
    ties = rng.integers(-2, 3, size=(9, 300)).astype(float)
    ties[:, :4] = [[2.0, -2.0, 0.0, -0.0]] + [[-2.0, 2.0, 0.0, -0.0]] + [[0.0, 0.0, 0.0, -0.0]] * 7
    cases += [ties, np.zeros((0, 5)), np.zeros((5, 0)), np.zeros((0, 0)), -np.ones((1, 1))]
    assert np.any(np.abs(ties.min(axis=0)) == ties.max(axis=0))
    for N in cases:
        expected = _fix_signs_by_abs(N)
        out = fix_signs(N)
        assert out is N
        assert np.array_equal(N, expected) and np.array_equal(np.signbit(N), np.signbit(expected))


def test_fix_signs_allocates_less_than_a_quarter_of_its_argument():
    import tracemalloc

    N = np.random.default_rng(22).standard_normal((496, 156))
    expected = _fix_signs_by_abs(N)
    tracemalloc.start()
    try:
        fix_signs(N)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(N, expected)
    assert peak < N.nbytes / 4


def test_triangular_inverse_raises_on_a_zero_diagonal():
    T = np.triu(np.random.default_rng(9).standard_normal((130, 130))) + 5.0 * np.eye(130)
    T[100, 100] = 0.0
    with pytest.raises(np.linalg.LinAlgError):
        triangular_inverse(T)
    with pytest.raises(np.linalg.LinAlgError):
        triangular_inverse(T[:, :129])


def test_inverse_cholesky_factor_whitens():
    rng = np.random.default_rng(13)
    B = rng.standard_normal((150, 100))
    S = B.T @ B
    Z = inverse_cholesky_factor(S)
    assert not np.tril(Z, -1).any()
    assert np.abs(Z.T @ S @ Z - np.eye(100)).max() <= 1e-12
