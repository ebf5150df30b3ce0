import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dlekrylov.dense import (LyapunovSolver, SolvabilityError,
                             check_lyapunov_solvable, expm, frob_norm, log_norm_mu2, lyap_direct, qr_thin,
                             spec_norm_2)


# -- qr_thin -----------------------------------------------------------------

def test_qr_identity_slice():
    block = np.eye(3)[:, :2]
    Q, R, rank = qr_thin(block)
    assert rank == 2
    np.testing.assert_allclose(np.abs(Q), block, atol=1e-15)
    np.testing.assert_allclose(np.abs(R), np.eye(2), atol=1e-15)


def test_qr_duplicated_column_rank():
    rng = np.random.default_rng(0)
    b = rng.standard_normal((8, 1))
    _, _, rank = qr_thin(np.hstack([b, b]))
    assert rank == 1


def test_qr_zero_block():
    Q, R, rank = qr_thin(np.zeros((5, 2)))
    assert rank == 0


def test_qr_reconstruction_and_orthonormality():
    rng = np.random.default_rng(1)
    block = rng.standard_normal((50, 4))
    Q, R, rank = qr_thin(block)
    assert rank == 4
    np.testing.assert_allclose(Q.T @ Q, np.eye(4), atol=1e-12)
    assert frob_norm(Q @ R - block) <= 1e-12 * frob_norm(block)


def test_qr_idempotence():
    rng = np.random.default_rng(2)
    Q, _, _ = qr_thin(rng.standard_normal((40, 5)))
    Q2, _, _ = qr_thin(Q)
    # columns may flip sign under re-factorization
    signs = np.sign(np.sum(Q * Q2, axis=0))
    assert frob_norm(Q2 * signs - Q) <= 1e-13


def test_qr_requires_tall():
    with pytest.raises(ValueError):
        qr_thin(np.ones((2, 3)))


# -- expm --------------------------------------------------------------------

def test_expm_zero():
    np.testing.assert_allclose(expm(np.zeros((4, 4))), np.eye(4), atol=1e-15)


def test_expm_diagonal():
    d = np.array([-1.0, 0.5, 2.0])
    np.testing.assert_allclose(expm(np.diag(d)), np.diag(np.exp(d)), rtol=1e-14)


def test_expm_nilpotent():
    M = np.array([[0.0, 1.0], [0.0, 0.0]])
    np.testing.assert_allclose(expm(M), np.array([[1.0, 1.0], [0.0, 1.0]]),
                               atol=1e-15)


def test_expm_normal_matches_eigendecomposition():
    rng = np.random.default_rng(3)
    S = rng.standard_normal((8, 8))
    S = S + S.T          # symmetric, hence normal
    w, U = np.linalg.eigh(S)
    ref = (U * np.exp(w)) @ U.T
    np.testing.assert_allclose(expm(S), ref, rtol=1e-12, atol=1e-12)


def test_expm_non_square_raises():
    with pytest.raises(ValueError):
        expm(np.ones((2, 3)))


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**31))
def test_expm_multiplicative_for_commuting(seed):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((10, 10))
    M *= 2.0 / max(frob_norm(M), 1.0)
    E1 = expm(M)
    E2 = expm(2.0 * M)
    assert frob_norm(E1 @ E1 - E2) <= 1e-10 * frob_norm(E2)


# -- lyap_direct -------------------------------------------------------------

def test_lyap_scalar():
    X = lyap_direct(np.array([[-1.0]]), np.array([[2.0]]))
    np.testing.assert_allclose(X, [[1.0]], rtol=1e-14)


def test_lyap_diagonal():
    X = lyap_direct(np.diag([-1.0, -2.0]), np.eye(2))
    np.testing.assert_allclose(X, np.diag([0.5, 0.25]), rtol=1e-13)


def test_lyap_residual_and_symmetry():
    rng = np.random.default_rng(4)
    F = rng.standard_normal((6, 6)) - 4.0 * np.eye(6)
    Z = rng.standard_normal((6, 3))
    Q = Z @ Z.T
    X = lyap_direct(F, Q)
    resid = frob_norm(F @ X + X @ F.T + Q)
    assert resid <= 1e-11 * (frob_norm(F) * frob_norm(X) + frob_norm(Q))
    assert frob_norm(X - X.T) <= 1e-12 * frob_norm(X)


def test_lyap_singular_pair_raises():
    with pytest.raises(SolvabilityError):
        lyap_direct(np.diag([1.0, -1.0]), np.eye(2))


def test_lyapunov_solvable_threshold_is_1e_14_of_the_scale():
    # a pair sum of 1e-13 at scale 1 is solvable, one of 1e-15 is not
    check_lyapunov_solvable(np.array([1.0, -1.0 + 1e-13]))
    with pytest.raises(SolvabilityError):
        check_lyapunov_solvable(np.array([1.0, -1.0 + 1e-15]))


def test_a_perturbed_trsyl_solve_raises():
    # the pair sum 1e-13 passes the 1e-14 solvability floor, but dtrsyl
    # perturbs any pair sum below eps max|S| (about 2.2e-12 here) and
    # reports it with info = 1, which the solve turns into an error
    F = np.array([[1.0, 1e4], [0.0, -1.0 + 1e-13]])
    solver = LyapunovSolver(F)
    with pytest.raises(SolvabilityError, match="perturbed"):
        solver.solve_schur(np.eye(2))


def test_lyap_solver_reuse_matches_one_shot():
    rng = np.random.default_rng(5)
    F = rng.standard_normal((7, 7)) - 5.0 * np.eye(7)
    solver = LyapunovSolver(F)
    for _ in range(3):
        Z = rng.standard_normal((7, 2))
        Q = Z @ Z.T
        np.testing.assert_allclose(solver.solve(Q), lyap_direct(F, Q),
                                   rtol=1e-10, atol=1e-13)


# -- log_norm_mu2 ------------------------------------------------------------

def test_mu2_negative_identity():
    assert log_norm_mu2(-np.eye(5)) == pytest.approx(-1.0)


def test_mu2_symmetric_is_lambda_max():
    rng = np.random.default_rng(6)
    S = rng.standard_normal((9, 9))
    S = S + S.T
    assert log_norm_mu2(S) == pytest.approx(np.linalg.eigvalsh(S)[-1], rel=1e-12)


def test_mu2_dense_nonsymmetric_matches_eig():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((20, 20))
    ref = 0.5 * np.linalg.eigvalsh(A + A.T)[-1]
    assert log_norm_mu2(A) == pytest.approx(ref, rel=1e-12)


def test_mu2_rayleigh_bound():
    rng = np.random.default_rng(9)
    A = rng.standard_normal((15, 15))
    mu2 = log_norm_mu2(A)
    S = 0.5 * (A + A.T)
    for _ in range(50):
        v = rng.standard_normal(15)
        v /= np.linalg.norm(v)
        assert v @ S @ v <= mu2 + 1e-8


# -- norms ------------------------------------------------------------------

def test_frob_norm_identity_and_zero():
    assert frob_norm(np.eye(7)) == pytest.approx(np.sqrt(7.0))
    assert frob_norm(np.zeros((3, 5))) == 0.0


def test_frob_norm_matches_entrywise():
    rng = np.random.default_rng(11)
    M = rng.standard_normal((10, 3))
    assert frob_norm(M) == pytest.approx(np.sqrt(np.sum(M * M)), rel=1e-14)


def test_spec_norm_matches_svd():
    rng = np.random.default_rng(12)
    M = rng.standard_normal((9, 6))
    assert spec_norm_2(M) == pytest.approx(np.linalg.svd(M)[1][0], rel=1e-12)
