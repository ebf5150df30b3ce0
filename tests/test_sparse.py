import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import (csr_matrix, diags, eye as speye,
                          random as sparse_random)
from scipy.sparse.linalg import splu

from dlekrylov.dense import frob_norm
from dlekrylov.problems import gen_convdiff, heat_fem_matrices
from dlekrylov.sparsela import (CapabilityError, Factorization,
                                FactorizationError, LinearOperator,
                                operator_from_pair, wrap_dense, wrap_sparse)


def test_sparse_apply_identity_and_zero():
    rng = np.random.default_rng(0)
    V = rng.standard_normal((6, 3))
    np.testing.assert_array_equal(wrap_sparse(csr_matrix(np.eye(6))).apply(V), V)
    np.testing.assert_array_equal(
        wrap_sparse(csr_matrix((6, 6))).apply(V), np.zeros((6, 3)))


def test_sparse_apply_matches_dense():
    rng = np.random.default_rng(1)
    A = csr_matrix(sparse_random(100, 100, density=0.05, random_state=7))
    V = rng.standard_normal((100, 4))
    np.testing.assert_allclose(wrap_sparse(A).apply(V), A.toarray() @ V,
                               rtol=1e-13)


def test_sparse_apply_dimension_mismatch():
    with pytest.raises(ValueError):
        wrap_sparse(csr_matrix(np.eye(4))).apply(np.ones((5, 2)))


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=2, max_value=200), st.integers(min_value=0, max_value=2**31))
def test_sparse_apply_dense_agreement_property(n, seed):
    rng = np.random.default_rng(seed)
    A = csr_matrix(sparse_random(n, n, density=min(1.0, 5.0 / n),
                                 random_state=seed % 2**31))
    V = rng.standard_normal((n, 2))
    np.testing.assert_allclose(wrap_sparse(A).apply(V), A.toarray() @ V,
                               atol=1e-13 * max(1.0, frob_norm(A.toarray())))


def test_factor_diagonal_is_division():
    d = np.array([2.0, -4.0, 0.5])
    f = Factorization(csr_matrix(np.diag(d)))
    V = np.array([[2.0], [8.0], [1.0]])
    np.testing.assert_allclose(f.solve(V), V / d[:, None], rtol=1e-14)


def test_factor_tridiagonal_residual():
    n = 200
    A = csr_matrix(diags([-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)],
                         [-1, 0, 1]))
    f = Factorization(A)
    rng = np.random.default_rng(2)
    V = rng.standard_normal((n, 3))
    X = f.solve(V)
    assert frob_norm(A @ X - V) <= 1e-12 * frob_norm(V)


def test_factor_zero_row_names_row():
    A = np.eye(4)
    A[2, 2] = 0.0
    with pytest.raises(FactorizationError, match="row 2"):
        Factorization(csr_matrix(A))


def test_factor_numerical_singularity():
    # structurally full but numerically singular
    A = csr_matrix(np.array([[1.0, 2.0], [2.0, 4.0]]))
    with pytest.raises(FactorizationError):
        Factorization(A)


def test_factor_residual_over_many_rhs():
    n = 60
    A = csr_matrix(sparse_random(n, n, density=0.2, random_state=11) + 5 * speye(n))
    f = Factorization(A)
    rng = np.random.default_rng(3)
    V = rng.standard_normal((n, 100))
    X = f.solve(V)
    col_resid = np.linalg.norm(A @ X - V, axis=0)
    assert np.all(col_resid <= 1e-10 * np.linalg.norm(V, axis=0))


def test_factor_structurally_unsymmetric_matches_dense():
    # the A^T + A ordering serves an unsymmetric pattern too: rows of a
    # diagonally dominant matrix shifted by 7, so no diagonal entry is
    # structurally there and the LU must pivot (nnz(L + U) is 41,570 here,
    # against 37,215 with COLAMD)
    n = 300
    A = csr_matrix(sparse_random(n, n, density=0.02, random_state=13)
                   + 4 * speye(n))[np.roll(np.arange(n), 7)]
    assert (abs(A) != abs(A.T)).nnz > 0
    D = A.toarray()
    f = Factorization(A)
    V = np.random.default_rng(8).standard_normal((n, 3))
    for X, ref in ((f.solve(V), np.linalg.solve(D, V)),
                   (f.solve(V[:, 0]), np.linalg.solve(D, V[:, 0]))):
        assert X.shape == ref.shape
        assert np.linalg.norm(X - ref) <= 1e-12 * np.linalg.norm(ref)


def test_factor_fill_is_at_most_colamd_on_convdiff():
    # minimum degree on A^T + A: nnz(L + U) 39,942 against COLAMD's
    # 64,902 on the n = 1600 convection-diffusion matrix
    A = gen_convdiff(40)
    lu = Factorization(A)._lu
    colamd = splu(A.tocsc(), permc_spec="COLAMD")
    assert lu.L.nnz + lu.U.nnz <= colamd.L.nnz + colamd.U.nnz


def test_operator_linearity():
    rng = np.random.default_rng(4)
    A = csr_matrix(sparse_random(40, 40, density=0.2, random_state=5))
    op = wrap_sparse(A)
    V = rng.standard_normal((40, 2))
    W = rng.standard_normal((40, 2))
    a, b = rng.standard_normal(2)
    lhs = op.apply(a * V + b * W)
    rhs = a * op.apply(V) + b * op.apply(W)
    assert frob_norm(lhs - rhs) <= 1e-12 * max(frob_norm(lhs), 1.0)


def test_operator_forward_inverse_roundtrip():
    rng = np.random.default_rng(5)
    A = csr_matrix(sparse_random(50, 50, density=0.2, random_state=6) + 4 * speye(50))
    op = wrap_sparse(A)
    V = rng.standard_normal((50, 3))
    assert frob_norm(op.apply(op.apply_inverse(V)) - V) <= 1e-10 * frob_norm(V)


def test_operator_without_inverse_raises():
    op = LinearOperator(3, lambda V: V)
    with pytest.raises(CapabilityError):
        op.apply_inverse(np.ones((3, 1)))


def test_pair_operator_zero_stiffness_is_identity():
    M, _ = heat_fem_matrices(20, 0.05)
    f = Factorization(M)
    op = operator_from_pair(f, M)
    rng = np.random.default_rng(7)
    V = rng.standard_normal((20, 2))
    np.testing.assert_allclose(op.apply(V), V, atol=1e-12)


def test_pair_operator_roundtrip_and_dense_agreement():
    n, dt, alpha = 10, 0.01, 0.05
    M, K = heat_fem_matrices(n, alpha)
    shifted = csr_matrix(M - dt * K)
    op = operator_from_pair(Factorization(shifted), M)
    rng = np.random.default_rng(8)
    V = rng.standard_normal((n, 3))
    assert frob_norm(op.apply(op.apply_inverse(V)) - V) <= 1e-10 * frob_norm(V)
    A_dense = np.linalg.solve(shifted.toarray(), M.toarray())
    np.testing.assert_allclose(op.apply(V), A_dense @ V, rtol=1e-11, atol=1e-13)


def test_wrap_dense_matches_sparse():
    rng = np.random.default_rng(9)
    A = rng.standard_normal((12, 12)) + 6 * np.eye(12)
    od = wrap_dense(A)
    os_ = wrap_sparse(csr_matrix(A))
    V = rng.standard_normal((12, 2))
    np.testing.assert_allclose(od.apply(V), os_.apply(V), rtol=1e-13)
    np.testing.assert_allclose(od.apply_inverse(V), os_.apply_inverse(V),
                               rtol=1e-10)


@pytest.mark.parametrize("wrap", ["sparse", "dense", "pair"])
def test_operator_factors_once_on_its_first_inverse_action(wrap, monkeypatch):
    # the forward action builds no factor, the first inverse
    # action builds one, later ones reuse it, and each operator has its own
    M, K = heat_fem_matrices(10, 0.05)
    shifted = Factorization(csr_matrix(M - 0.01 * K))
    factored = []
    init, lu_factor = Factorization.__init__, scipy.linalg.lu_factor
    monkeypatch.setattr(Factorization, "__init__",
                        lambda self, A: factored.append(1) or init(self, A))
    monkeypatch.setattr(scipy.linalg, "lu_factor",
                        lambda A: factored.append(1) or lu_factor(A))
    make = {"sparse": lambda: wrap_sparse(M),
            "dense": lambda: wrap_dense(M.toarray()),
            "pair": lambda: operator_from_pair(shifted, M)}[wrap]
    op = make()
    V = np.random.default_rng(10).standard_normal((10, 2))
    op.apply(V)
    assert factored == []
    X = op.apply_inverse(V)
    assert len(factored) == 1
    for _ in range(3):
        np.testing.assert_array_equal(op.apply_inverse(V), X)
        op.apply(V)
    assert len(factored) == 1
    make().apply_inverse(V)
    assert len(factored) == 2


@pytest.mark.parametrize("wrap", ["sparse", "pair"])
def test_operator_keeps_no_transposed_copy_of_its_matrix(wrap):
    # building the operator allocates less than one copy of the matrix's
    # data and indices (a transposed CSR copy is 640 KB at n = 10,000)
    import tracemalloc

    A = gen_convdiff(100)
    S = Factorization(csr_matrix(A + speye(A.shape[0])))
    tracemalloc.start()
    try:
        op = wrap_sparse(A) if wrap == "sparse" else operator_from_pair(S, A)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (A.data.nbytes + A.indices.nbytes) / 10
    V = np.ones((A.shape[0], 2))
    assert op.apply(V).shape == V.shape
