import math

import numpy as np
import pytest

from dlekrylov.analysis import (SizeGuardError, StabilityError,
                                dense_reference_integral,
                                dense_reference_kron_ode, error_bound_general,
                                error_bound_polynomial, error_bound_stable,
                                expm_action_bound, reference_stream)
from dlekrylov.dense import expm, frob_norm, log_norm_mu2
from dlekrylov import solvers
from dlekrylov.krylov import KrylovDecomposition
from dlekrylov.problems import gen_convdiff, gen_random_block
from dlekrylov.solvers import SolverConfig, TimeGrid, solve_eba_exp
from dlekrylov.sparsela import wrap_dense


def _stable_dense(n, seed, shift=3.0):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n)) / np.sqrt(n)
    return A - shift * np.eye(n)


# -- reference oracles ---------------------------------------------------------

def test_integral_reference_zero_operator():
    B = np.array([[1.0], [0.5]])
    grid = TimeGrid(0.0, 1.0, 0.125)
    out = dense_reference_integral(np.zeros((2, 2)), B, None, grid)
    for i, t in enumerate(grid.nodes):
        np.testing.assert_allclose(out[i], t * B @ B.T, atol=1e-14)


def test_integral_reference_commuting_closed_form():
    a = -0.7
    n = 4
    rng = np.random.default_rng(0)
    B = rng.random((n, 1))
    Z0 = rng.standard_normal((n, 2))
    X0 = Z0 @ Z0.T
    grid = TimeGrid(0.0, 2.0, 0.01)
    out = dense_reference_integral(a * np.eye(n), B, X0, grid, q=8)
    t = 2.0
    ref = (math.exp(2 * a * t) * X0
           + (math.exp(2 * a * t) - 1.0) / (2 * a) * (B @ B.T))
    np.testing.assert_allclose(out[-1], ref, rtol=1e-11, atol=1e-13)


def test_integral_reference_q_doubling():
    A = _stable_dense(8, 1)
    rng = np.random.default_rng(2)
    B = rng.random((8, 2))
    grid = TimeGrid(0.0, 1.0, 0.02)
    X1 = dense_reference_integral(A, B, None, grid, q=8)[-1]
    X2 = dense_reference_integral(A, B, None, grid, q=16)[-1]
    assert frob_norm(X1 - X2) <= 1e-11 * max(frob_norm(X2), 1.0)


def test_integral_reference_at_tf_does_not_depend_on_the_step():
    # convdiff n0 = 10 over [0, 2]: each step's increment is the exact step
    # pair, so a coarse grid reaches the X(tf) of the fine one
    A = gen_convdiff(10).toarray()
    B = gen_random_block(100, 2, seed=7)
    finals = []
    for h in (1e-3, 0.1):
        for _, X in reference_stream(A, B, None, TimeGrid(0.0, 2.0, h)):
            pass
        finals.append(X)
    assert frob_norm(finals[1] - finals[0]) <= 1e-12 * frob_norm(finals[0])


def test_integral_reference_size_guard():
    with pytest.raises(SizeGuardError):
        dense_reference_integral(np.eye(501), np.ones((501, 1)), None,
                                 TimeGrid(0, 1, 0.5))


def test_reference_stream_size_guard():
    with pytest.raises(SizeGuardError, match="n <= 500, got 501"):
        next(reference_stream(np.eye(501), np.ones((501, 1)), None,
                              TimeGrid(0, 1, 0.5)))


def test_kron_reference_zero_data():
    grid = TimeGrid(0.0, 1.0, 0.25)
    out = dense_reference_kron_ode(np.diag([-1.0, -2.0]), np.zeros((2, 1)),
                                   None, grid)
    np.testing.assert_array_equal(out, np.zeros((5, 2, 2)))


def test_kron_reference_scalar_recurrence_exact():
    a, b, h = -2.0, 1.3, 0.1
    grid = TimeGrid(0.0, 0.5, h)
    out = dense_reference_kron_ode(np.array([[a]]), np.array([[b]]), None,
                                   grid, p=1)
    x = 0.0
    for i in range(1, 6):
        x = (x + h * b * b) / (1.0 - 2.0 * a * h)
        assert out[i][0, 0] == pytest.approx(x, rel=1e-14)


def test_kron_reference_size_guard():
    with pytest.raises(SizeGuardError):
        dense_reference_kron_ode(np.eye(61), np.ones((61, 1)), None,
                                 TimeGrid(0, 1, 0.5))


@pytest.mark.parametrize("n,seed", [(6, 3), (10, 4), (14, 5)])
def test_oracles_agree(n, seed):
    A = _stable_dense(n, seed)
    rng = np.random.default_rng(seed + 100)
    B = rng.random((n, 2))
    grid = TimeGrid(0.0, 2.0, 1e-3)
    Xi = dense_reference_integral(A, B, None, grid, q=8)[-1]
    Xk = dense_reference_kron_ode(A, B, None, grid, p=2)[-1]
    assert frob_norm(Xi - Xk) <= 1e-7 * max(frob_norm(Xi), 1.0)


# -- stable bound ---------------------------------------------------------------

def test_bound_stable_zero_coupling():
    assert error_bound_stable(-1.0, 0.0, 3.0, 0.0, 1.0) == 0.0


def test_bound_stable_substitution():
    val = error_bound_stable(-1.0, 1.0, 1.0, 0.0, 1.0)
    assert val == pytest.approx((1.0 - math.exp(-2.0)) / 2.0, rel=1e-14)


def test_bound_stable_requires_stability():
    with pytest.raises(StabilityError):
        error_bound_stable(0.1, 1.0, 1.0, 0.0, 1.0)


def test_bound_stable_limit():
    # long-horizon limit -coupling*gbar/(2 mu2)
    val = error_bound_stable(-2.0, 0.5, 3.0, 0.0, 100.0)
    assert val == pytest.approx(0.5 * 3.0 / 4.0, rel=1e-12)


def test_bound_stable_dominates_error_small_problem(monkeypatch):
    n = 40
    A = _stable_dense(n, 5)
    rng = np.random.default_rng(6)
    B = rng.random((n, 2))
    grid = TimeGrid(0.0, 1.0, 1e-2)
    mu2 = log_norm_mu2(A)
    assert mu2 < 0
    ref = dense_reference_integral(A, B, None, grid, q=10)
    monkeypatch.setattr(solvers, "_QUADRATURE_ORDER", 8)
    traj = solve_eba_exp(A, B, None, grid, SolverConfig(m_max=6, tol=1e-30))
    rec = traj.iterations[-1]
    for i in range(0, len(grid.nodes), 10):
        err = frob_norm(traj.solution_dense(i) - ref[i])
        bound = error_bound_stable(mu2, rec.coupling_norm, rec.gbar_sup,
                                   grid.t0, grid.nodes[i]) if i else 0.0
        assert bound >= err - 1e-12


# -- general bound ---------------------------------------------------------------

def test_bound_general_zero_gap_for_invariant_block():
    # B spans an invariant subspace captured at initialization
    rng = np.random.default_rng(7)
    blk = _stable_dense(3, 8)
    A = np.zeros((9, 9))
    A[:3, :3] = blk
    A[3:, 3:] = _stable_dense(6, 9)
    B = np.zeros((9, 2))
    B[:3, :] = rng.random((3, 2))
    op = wrap_dense(A)
    dec = KrylovDecomposition(op, B, variant="block")
    from dlekrylov.krylov import KrylovBreakdown

    for _ in range(4):
        try:
            dec.extend(op)
        except KrylovBreakdown as exc:
            if exc.rank == 0:     # basis is now invariant
                break
    grid = TimeGrid(0.0, 1.0, 0.05)
    report = error_bound_general(A, B, dec, grid, q=4)
    assert report.bounds[-1] <= 1e-8


def test_bound_general_projection_identity_at_endpoint():
    # the gap at zero propagation time is ||B - V V^T B|| = 0
    A = _stable_dense(12, 10)
    rng = np.random.default_rng(11)
    B = rng.random((12, 2))
    op = wrap_dense(A)
    dec = KrylovDecomposition(op, B, variant="block")
    dec.extend(op)
    V = dec.inner_basis
    assert frob_norm(B - V @ (V.T @ B)) <= 1e-12


def test_bound_general_dominates_measured_error():
    n = 50
    A = _stable_dense(n, 12)
    rng = np.random.default_rng(13)
    B = rng.random((n, 2))
    op = wrap_dense(A)
    grid = TimeGrid(0.0, 1.0, 0.02)
    ref = dense_reference_integral(A, B, None, grid, q=10)
    dec = KrylovDecomposition(op, B, variant="block")
    from dlekrylov.solvers import _run_gram_grid

    for m in range(1, 6):
        dec.extend(op)
        report = error_bound_general(A, B, dec, grid, q=6)
        Bm = dec.project_block(B)
        run = _run_gram_grid(dec.T, Bm, np.zeros((dec.inner_width, 0)), grid,
                             8, dec.widths[dec.m - 1], keep_full=True)
        V = dec.inner_basis
        for i in (len(grid.nodes) // 2, len(grid.nodes) - 1):
            err = frob_norm(V @ run.full[i] @ V.T - ref[i])
            assert report.bounds[i] >= err


def test_bound_general_size_guard():
    with pytest.raises(SizeGuardError):
        error_bound_general(np.eye(501), np.ones((501, 1)), None,
                            TimeGrid(0, 1, 0.5))


# -- polynomial-krylov bounds ------------------------------------------------------

def test_expm_action_bound_substitution():
    assert expm_action_bound(1.0, 1.0, 1) == pytest.approx(2.0 * math.e, rel=1e-14)


def test_expm_action_bound_decays():
    vals = [expm_action_bound(2.0, 1.0, m) for m in range(3, 40)]
    assert all(b <= a for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-30


def test_expm_action_bound_dominates_measured_gap():
    n = 30
    rng = np.random.default_rng(14)
    A = rng.standard_normal((n, n))
    A *= 0.9 / np.linalg.norm(A, 2)          # ||A|| <= 1
    B = rng.random((n, 2))
    op = wrap_dense(A)
    dec = KrylovDecomposition(op, B, variant="block")
    rho = np.linalg.norm(A, 2)
    exact = expm(A) @ B
    for m in range(1, 10):
        dec.extend(op)
        V = dec.inner_basis
        approx = V @ (expm(dec.T) @ dec.project_block(B))
        gap = frob_norm(exact - approx)
        assert gap <= expm_action_bound(rho, frob_norm(B), m)


def test_error_bound_polynomial_dominates():
    n = 20
    rng = np.random.default_rng(15)
    A = rng.standard_normal((n, n))
    A *= 0.8 / np.linalg.norm(A, 2)
    B = rng.random((n, 2))
    op = wrap_dense(A)
    grid = TimeGrid(0.0, 1.0, 0.05)
    ref = dense_reference_integral(A, B, None, grid, q=10)
    mu2 = log_norm_mu2(A)
    rho = np.linalg.norm(A, 2)
    dec = KrylovDecomposition(op, B, variant="block")
    from dlekrylov.solvers import _run_gram_grid

    for m in range(1, 8):
        dec.extend(op)
        Bm = dec.project_block(B)
        run = _run_gram_grid(dec.T, Bm, np.zeros((dec.inner_width, 0)), grid,
                             8, dec.widths[dec.m - 1], keep_full=True)
        err = frob_norm(dec.inner_basis @ run.full[-1] @ dec.inner_basis.T - ref[-1])
        bound = error_bound_polynomial(rho, mu2, frob_norm(B), frob_norm(Bm),
                                       m, 0.0, 1.0)
        assert bound >= err


def test_mu2_of_projection_bounded_by_mu2_of_operator():
    n = 40
    A = _stable_dense(n, 16)
    rng = np.random.default_rng(17)
    B = rng.random((n, 2))
    op = wrap_dense(A)
    mu2_big = log_norm_mu2(A)
    dec = KrylovDecomposition(op, B, variant="block")
    for _ in range(5):
        dec.extend(op)
        assert log_norm_mu2(dec.T) <= mu2_big + 1e-12
