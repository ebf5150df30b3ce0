import functools
import itertools
import math
import weakref
import zlib

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import lapack

from dlekrylov.dense import frob_norm, sym_part
from dlekrylov.krylov import KrylovDecomposition
from dlekrylov.problems import gen_convdiff, gen_heat_fem, gen_random_block
from dlekrylov import solvers
from dlekrylov.dense import LyapunovSolver
from dlekrylov.solvers import (BDF_TABLE, PSDViolationError, SolverConfig,
                               SymLowRank, TimeGrid, Trajectory,
                               _run_bdf_grid, _run_gram_grid,
                               exact_step_pair, residual_norm,
                               solve, solve_eba_bdf, solve_eba_exp,
                               truncate_lowrank)
from dlekrylov.sparsela import wrap_dense, wrap_sparse


def _stable_dense(n, seed, shift=None):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    if shift is None:
        shift = np.abs(np.linalg.eigvals(A).real).max() + 1.0
    return A - shift * np.eye(n)


# -- time grid and coefficients ---------------------------------------------

def test_grid_nodes():
    g = TimeGrid(0.0, 1.0, 0.25)
    np.testing.assert_allclose(g.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])


def test_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(0.0, 1.0, -0.1)
    with pytest.raises(ValueError):
        TimeGrid(1.0, 0.0, 0.1)
    with pytest.raises(ValueError):
        TimeGrid(0.0, 1.0, 0.3)
    # a step that never reaches tf, non-finite ends or steps, and a span
    # that overflows are errors, not a one-node grid or an OverflowError
    for bad in ((0.0, 1.0, 1e9), (0.0, 1.0, 3.0), (0.0, 1.0, np.inf),
                (0.0, 1.0, np.nan), (-np.inf, 1.0, 0.1), (0.0, np.inf, 0.1),
                (-1e308, 1e308, 1.0), (0.0, 1.0, True), (0.0, "1", 0.1)):
        with pytest.raises(ValueError):
            TimeGrid(*bad)
    assert TimeGrid(0.0, 1.0, 1.0).n_steps == 1


def test_bdf_table_values():
    assert BDF_TABLE[1] == (1.0, (1.0,))
    beta2, alphas2 = BDF_TABLE[2]
    assert beta2 == pytest.approx(2.0 / 3.0)
    assert alphas2 == pytest.approx((4.0 / 3.0, -1.0 / 3.0))
    beta3, alphas3 = BDF_TABLE[3]
    assert beta3 == pytest.approx(6.0 / 11.0)
    assert alphas3 == pytest.approx((18.0 / 11.0, -9.0 / 11.0, 2.0 / 11.0))
    with pytest.raises(ValueError):
        SolverConfig(bdf_order=4)


# -- residual formula ---------------------------------------------------------

def test_residual_norm_zero_coupling():
    assert residual_norm(np.zeros((0, 3)), np.eye(3)) == 0.0
    assert residual_norm(np.zeros((2, 2)), np.ones((4, 4))) == 0.0


def test_residual_norm_scalar_coupling():
    G = np.arange(9.0).reshape(3, 3)
    t = -0.37
    expected = np.sqrt(2.0) * abs(t) * np.linalg.norm(G[-1, :])
    assert residual_norm(np.array([[t]]), G) == pytest.approx(expected)


def test_residual_norm_equals_true_dense_residual():
    # residual of the lifted approximation, with the time derivative taken
    # through the projected differential equation
    rng = np.random.default_rng(6)
    n, s, m = 60, 2, 5
    A = _stable_dense(n, 7)
    B = rng.random((n, s))
    op = wrap_dense(A)
    dec = KrylovDecomposition(op, B, variant="block")
    for _ in range(m):
        dec.extend(op)
    T, Bm, V = dec.T, dec.project_block(B), dec.inner_basis
    G = exact_step_pair(T, Bm, 0.9, 10)[1]   # the Gramian over [0, 0.9]
    Gdot = T @ G + G @ T.T + Bm @ Bm.T
    X = V @ G @ V.T
    R_true = V @ Gdot @ V.T - A @ X - X @ A.T - B @ B.T
    formula = residual_norm(dec.coupling, G)
    assert abs(frob_norm(R_true) - formula) <= 1e-10 * (1.0 + frob_norm(B @ B.T))


# -- bdf grid -----------------------------------------------------------------

def _psd_floor(Y):
    """Y, or Y with its negative eigenvalues set to zero where the PSD
    screen fails."""
    return Y if solvers._psd_screen(Y) else solvers._psd_clip(Y)


def _reference_bdf_grid(T, Bm, P0, grid, order):
    """Every node of a BDF grid, one Bartels-Stewart solve per step in the
    original coordinates."""
    k, N, h = T.shape[0], grid.n_steps, grid.h
    Q = Bm @ Bm.T
    Y = P0 @ P0.T
    out = [Y]
    n_start = min(order - 1, N)
    E, delta = exact_step_pair(T, Bm, h, solvers._QUADRATURE_ORDER)
    for _ in range(n_start):
        Y = _psd_floor(sym_part(E @ Y @ E.T + delta))
        out.append(Y)
    beta, alphas = BDF_TABLE[order]
    stepper = LyapunovSolver(h * beta * T - 0.5 * np.eye(k))
    for _ in range(n_start + 1, N + 1):
        rhs = h * beta * Q
        for alpha, Y_prev in zip(alphas, out[::-1]):
            rhs = rhs + alpha * Y_prev
        out.append(_psd_floor(stepper.solve(rhs)))
    return np.array(out)


def _max_rel_diff(run_full, ref):
    return max(frob_norm(a - b) / frob_norm(b) for a, b in zip(run_full, ref))


def test_bdf_grid_scalar_implicit_euler():
    a, b, h, y0 = -2.0, 1.5, 0.1, 0.3
    run = _run_bdf_grid(np.array([[a]]), np.array([[b]]), np.array([[np.sqrt(y0)]]),
                        TimeGrid(0.0, h, h), 1, 1, keep_full=True)
    assert run.final[0, 0] == pytest.approx((y0 + h * b * b) / (1.0 - 2.0 * a * h),
                                            rel=1e-13)


def test_bdf_grid_diagonal_matches_scalar_recurrence():
    # one exact start-up step, then one BDF2 step, entrywise
    d = np.array([-1.0, -3.0, -0.5])
    T = np.diag(d)
    rng = np.random.default_rng(8)
    B = rng.random((3, 2))
    Q = B @ B.T
    h = 0.05
    Y0 = 0.1 * Q
    run = _run_bdf_grid(T, B, np.sqrt(0.1) * B, TimeGrid(0.0, 2 * h, h), 2, 1,
                        keep_full=True)
    pair = d[:, None] + d[None, :]
    Y1 = np.exp(h * pair) * Y0 + Q * np.expm1(h * pair) / pair
    np.testing.assert_allclose(run.full[1], Y1, rtol=1e-12)
    beta, (a0, a1) = BDF_TABLE[2]
    expected = (h * beta * Q + a0 * Y1 + a1 * Y0) / (1.0 - h * beta * pair)
    np.testing.assert_allclose(run.full[2], expected, rtol=1e-12)


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("n_steps", [1, 2, 40])
def test_bdf_grid_eigen_and_schur_bases_agree(order, n_steps, monkeypatch):
    # n_steps < order runs the start-up steps only
    rng = np.random.default_rng(50 + order)
    T = _stable_dense(9, 51 + order)
    Bm = rng.standard_normal((9, 2))
    P0 = 0.5 * rng.standard_normal((9, 2))
    grid = TimeGrid(0.0, 0.02 * n_steps, 0.02)
    ref = _reference_bdf_grid(T, Bm, P0, grid, order)
    eig_run = _run_bdf_grid(T, Bm, P0, grid, order, 2, keep_full=True)
    monkeypatch.setattr(solvers, "_EIGEN_COND_MAX", 0.0)
    schur_run = _run_bdf_grid(T, Bm, P0, grid, order, 2, keep_full=True)
    if n_steps >= order:
        assert (eig_run.bdf_basis, schur_run.bdf_basis) == ("eigen", "schur")
        assert eig_run.bdf_cond == schur_run.bdf_cond < 1e3
    assert _max_rel_diff(eig_run.full, schur_run.full) <= 1e-12
    assert _max_rel_diff(eig_run.full, ref) <= 1e-12
    np.testing.assert_array_equal(eig_run.bar_rows, eig_run.full[:, -2:, :])
    np.testing.assert_array_equal(eig_run.final, eig_run.full[-1])
    for run in (eig_run, schur_run):
        np.testing.assert_array_equal(list(run.replay()), run.full)


def _stiff_clipping_case():
    """T, Bm, P0 and grid of a BDF2 run that the PSD screen clips at every
    node from 2 on."""
    rng = np.random.default_rng(52)
    k = 6
    S = np.eye(k) + 0.3 * rng.standard_normal((k, k))
    T = S @ np.diag([-2000.0, -1.0, -1.5, -2.0, -0.5, -3.0]) @ np.linalg.inv(S)
    return (T, 1e-3 * rng.standard_normal((k, 1)), rng.standard_normal((k, 3)),
            TimeGrid(0.0, 0.2, 0.01))


def _record_floor(monkeypatch):
    """Wrap the PSD screen, which runs once per screened node; the list
    gets True for each node that clipped."""
    clips = []
    screen = solvers._psd_screen

    def recording_screen(Y, *args):
        passed = screen(Y, *args)
        clips.append(not passed)
        return passed

    monkeypatch.setattr(solvers, "_psd_screen", recording_screen)
    return clips


def test_bdf_grid_psd_clip_mid_grid_reprojects_history(monkeypatch):
    # BDF2 overshoots below zero on a stiff mode the exact start-up step has
    # already damped; the clipped node must also replace the history
    T, Bm, P0, grid = _stiff_clipping_case()
    clips = _record_floor(monkeypatch)
    run = _run_bdf_grid(T, Bm, P0, grid, 2, 1, keep_full=True)
    assert run.bdf_basis == "eigen"
    assert any(clips[1:-1])
    ref = _reference_bdf_grid(T, Bm, P0, grid, 2)
    assert _max_rel_diff(run.full, ref) <= 1e-12


def test_bdf_grid_ill_conditioned_eigenvectors_fall_back_to_schur():
    k = 16
    T0 = -np.eye(k) + 0.5 * np.eye(k, k=1) + 0.1 * np.diag(np.arange(k))
    rng = np.random.default_rng(53)
    U, _ = np.linalg.qr(rng.standard_normal((k, k)))
    T = U @ T0 @ U.T
    Bm = rng.standard_normal((k, 2))
    P0 = rng.standard_normal((k, 1))
    grid = TimeGrid(0.0, 1.0, 0.01)
    for order in (1, 2, 3):
        run = _run_bdf_grid(T, Bm, P0, grid, order, 2, keep_full=True)
        assert run.bdf_basis == "schur"
        assert run.bdf_cond > 1e3
        ref = _reference_bdf_grid(T, Bm, P0, grid, order)
        assert _max_rel_diff(run.full, ref) <= 1e-11
        np.testing.assert_array_equal(list(run.replay()), run.full)


def test_eigen_basis_serves_a_cond_between_1e2_and_1e3():
    # T = S diag(-1, -2) S^-1, S = [[1, 1], [0, 4e-3]]: cond(V) lies in
    # (1e2, 1e3], at most _EIGEN_COND_MAX, so the BDF grid keeps the
    # eigen basis
    S = np.array([[1.0, 1.0], [0.0, 4e-3]])
    T = S @ np.diag([-1.0, -2.0]) @ np.linalg.inv(S)
    basis = solvers._bdf_basis(T, 0.01)
    assert basis.kind == "eigen" and 1e2 < basis.cond <= 1e3


def _spectrum_case(spectrum):
    """A stable T whose eigenvalues are all real, all in conjugate pairs,
    or both."""
    rng = np.random.default_rng(70)
    if spectrum == "real":
        return _real_spectrum_case()[0]
    if spectrum == "mixed":
        return _stable_dense(9, 61)
    S = np.eye(8) + 0.3 * rng.standard_normal((8, 8))
    D = np.zeros((8, 8))
    for j, (a, b) in enumerate([(-1.0, 2.0), (-3.0, 0.5), (-0.5, 4.0), (-2.0, 1.0)]):
        D[2 * j:2 * j + 2, 2 * j:2 * j + 2] = [[a, b], [-b, a]]
    return S @ D @ np.linalg.inv(S)


@pytest.mark.parametrize("spectrum,pairs", [("real", 0), ("pairs", 4),
                                            ("mixed", None)])
def test_pair_basis_solve_matches_the_complex_eigenbasis_solve(spectrum, pairs):
    from scipy.linalg import solve_continuous_lyapunov

    T = _spectrum_case(spectrum)
    k = T.shape[0]
    lam_V, V = np.linalg.eig(T)
    n_pairs = int(np.sum(lam_V.imag > 0))
    assert (n_pairs == pairs) if pairs is not None else (0 < 2 * n_pairs < k)
    h_beta, h = 0.02, 0.1
    basis = solvers._bdf_basis(T, h_beta)
    assert basis.kind == "eigen" and not np.iscomplexobj(basis.M)
    M, M_inv = basis.M, basis.M_inv
    rng = np.random.default_rng(71)
    R = rng.standard_normal((k, k))
    R = R + R.T
    V_inv = np.linalg.inv(V)

    def eigen_map(f):
        # Y -> V (f(S) * (V^-1 Y V^-T)) V^T elementwise in T's complex
        # eigenbasis, S_ab = lam_a + lam_b, read in the basis coordinates
        S = lam_V[:, None] + lam_V[None, :]
        Yh = V_inv @ (M @ R @ M.T) @ V_inv.T
        out = M_inv @ (V @ (f(S) * Yh) @ V.T) @ M_inv.T
        assert frob_norm(out.imag) <= 1e-13 * frob_norm(out)
        return out.real

    # the solve, and the two maps of the exact step, each one `entrywise`
    # map of a function of S in the basis's eigenvalue order
    S = basis.lam[:, None] + basis.lam[None, :]
    step_tol = 100 * basis.cond ** 2 * np.finfo(float).eps
    for f, out, tol in (
            (lambda S: -1.0 / (h_beta * S - 1.0), basis.solve(R), 1e-14),
            (lambda S: np.exp(h * S), basis.entrywise(np.exp(h * S))(R),
             step_tol),
            (lambda S: np.expm1(h * S) / S,
             basis.entrywise(np.expm1(h * S) / S)(R), step_tol)):
        assert not np.iscomplexobj(out)
        ref = eigen_map(f)
        assert frob_norm(out - ref) <= tol * frob_norm(ref)
    # the solve in the original coordinates, by Bartels-Stewart
    out = basis.solve(R)
    F = h_beta * T - 0.5 * np.eye(k)
    ref = solve_continuous_lyapunov(F, -(M @ R @ M.T))
    assert frob_norm(M @ out @ M.T - ref) <= 1e-14 * frob_norm(ref)
    # M^-1 T M is block-diagonal: the real eigenvalues, then a 2x2 block
    # per conjugate pair
    r = k - 2 * n_pairs
    blocks = np.eye(k, dtype=bool)
    for j in range(r, k, 2):
        blocks[j:j + 2, j:j + 2] = True
    D = M_inv @ T @ M
    assert np.abs(D[~blocks]).max() <= 1e-12 * np.abs(T).max()
    # the solve map keeps real, C-contiguous coefficient arrays only: no
    # strided real view of a complex coefficient tensor
    kept = [cell.cell_contents for cell in basis.solve.__closure__
            if isinstance(cell.cell_contents, np.ndarray)]
    assert kept
    for a in kept:
        assert a.dtype == np.float64 and a.flags.c_contiguous
        assert a.base is None or a.base.dtype == np.float64


def _entrywise_by_contraction(basis, mult):
    """The reference `_StepBasis.entrywise` map: its weights contracted in
    complex arithmetic from P's 2x2 blocks and mult gathered at the
    partners, then applied as `entrywise` applies them."""
    k = len(basis.lam)
    r = int(np.count_nonzero(basis.lam.imag == 0))
    p = (k - r) // 2
    # entry (a, b) reads R[swap^s a, swap^t b], s, t in {0, 1} and swap
    # taking a to its pair partner, with weight C[s, t, a, b] = sum over
    # x, y in {0, 1} of g[s, x, a] g[t, y, b] mult[swap^x a, swap^y b],
    # g[s, x, a] = P[a, swap^x a] P^-1[swap^x a, swap^s a]: on a pair's
    # rows g[0] = (1/2, 1/2) and g[1] = (-i/2, i/2); on a real
    # eigenvalue's row g[0] = (1, 0), g[1] = 0
    g = np.zeros((2, 2, k), dtype=complex)
    g[0, 0, :r] = 1.0
    g[0, :, r:] = 0.5
    g[1, 0, r:] = -0.5j
    g[1, 1, r:] = 0.5j
    ar = np.arange(k)
    swap = (ar, np.r_[ar[:r], ar[r:].reshape(p, 2)[:, ::-1].ravel()])
    M_xy = np.empty((2, 2, k, k), dtype=mult.dtype)
    for x, y in itertools.product((0, 1), repeat=2):
        np.take(mult[swap[x]], swap[y], axis=1, out=M_xy[x, y])
    C = functools.partial(np.einsum, "xa,yb,xyab->ab")
    C_diag = C(g[0], g[0], M_xy).real
    C_rows = C(g[1, :, r:], g[0], M_xy[:, :, r:]).real.reshape(p, 2, k)
    C_cols = C(g[0], g[1, :, r:], M_xy[..., r:]).real.reshape(k, p, 2)
    C_both = C(g[1, :, r:], g[1, :, r:], M_xy[:, :, r:, r:]).real.reshape(
        p, 2, p, 2)

    def apply(R):
        out = np.multiply(R, C_diag, order="C")
        rows = out[r:].reshape(p, 2, k)
        rows += C_rows * R[r:].reshape(p, 2, k)[:, ::-1]
        cols = out[:, r:].reshape(k, p, 2)
        cols += C_cols * R[:, r:].reshape(k, p, 2)[:, :, ::-1]
        both = out[r:, r:].reshape(p, 2, p, 2)
        both += C_both * R[r:, r:].reshape(p, 2, p, 2)[:, ::-1, :, ::-1]
        return out

    return apply


def _pair_spectrum_basis(seed, k, n_pairs):
    """The real pair basis of T = S D S^-1, D with k - 2 n_pairs real
    eigenvalues and n_pairs 2x2 blocks of conjugate pairs, S = I + 0.3
    / sqrt(k) times a standard normal matrix, and the h*beta = 0.02
    solve."""
    rng = np.random.default_rng(seed)
    r = k - 2 * n_pairs
    D = np.diag(-rng.uniform(0.2, 3.0, k))
    for j in range(r, k, 2):
        D[j + 1, j + 1] = D[j, j]
        D[j, j + 1] = rng.uniform(0.3, 4.0)
        D[j + 1, j] = -D[j, j + 1]
    S = np.eye(k) + 0.3 / np.sqrt(k) * rng.standard_normal((k, k))
    lam, V = np.linalg.eig(S @ D @ np.linalg.inv(S))
    return solvers._pair_basis(lam, V, float(np.linalg.cond(V)), 0.02)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**31), st.integers(min_value=1, max_value=40),
       st.floats(min_value=0.0, max_value=1.0))
@example(1, 9, 0.0)      # no pair
@example(2, 9, 0.25)     # one pair
@example(3, 40, 1.0)     # only pairs
@example(4, 39, 0.5)     # a mix
def test_entrywise_weights_are_the_complex_contraction_bitwise(seed, k, share):
    # the real signed means `entrywise` forms are the complex contraction's
    # weights bitwise: the solve, and maps by its multiplier and the exact
    # step's two
    n_pairs = round(share * (k // 2))
    basis = _pair_spectrum_basis(seed, k, n_pairs)
    assume(np.count_nonzero(basis.lam.imag) == 2 * n_pairs)
    S = basis.lam[:, None] + basis.lam[None, :]
    h = 0.1
    phi = np.divide(np.expm1(h * S), S, out=np.full_like(S, h), where=S != 0)
    lam_F = 0.02 * basis.lam - 0.5
    maps = [(basis.solve, -1.0 / (lam_F[:, None] + lam_F[None, :]))]
    maps += [(basis.entrywise(mult), mult)
             for mult in (-1.0 / (0.02 * S - 1.0), np.exp(h * S), phi)]
    rng = np.random.default_rng(seed + 1)
    R = rng.standard_normal((k, k))
    R = R + R.T
    for apply, mult in maps:
        assert np.array_equal(apply(R), _entrywise_by_contraction(basis, mult)(R))


@pytest.mark.parametrize("k", [1, 6, 9])
def test_entrywise_on_an_all_real_spectrum_is_the_elementwise_product(k):
    # with no conjugate pair C_diag is mult and the partner weights act on
    # empty views: the map is R * mult bitwise, the solve's too
    basis = _pair_spectrum_basis(k, k, 0)
    assert not np.any(basis.lam.imag)
    S = basis.lam[:, None] + basis.lam[None, :]
    lam_F = 0.02 * basis.lam - 0.5
    R = np.random.default_rng(k).standard_normal((k, k))
    R = R + R.T
    assert np.array_equal(basis.solve(R), R * (-1.0 / (lam_F[:, None] + lam_F[None, :])))
    for mult in (np.exp(0.1 * S), -1.0 / (0.02 * S - 1.0)):
        assert np.array_equal(basis.entrywise(mult)(R), R * mult)


def test_entrywise_build_temporaries_stay_below_four_k2_words():
    # one map at k = 72 with 4 pairs, the size of bdf-6400's m = 18 basis:
    # the complex weight tensor and its gather took about 14 k^2 float64
    # words, the real strips take about 2
    import tracemalloc

    basis = _pair_spectrum_basis(70, 72, 4)
    assert np.count_nonzero(basis.lam.imag) == 8
    k = len(basis.lam)
    mult = np.exp(0.1 * (basis.lam[:, None] + basis.lam[None, :]))
    tracemalloc.start()
    try:
        basis.entrywise(mult)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 8 * k * k


def _startup_case(seed, k, spectrum):
    """T, Bm and P0 of one start-up step. T = S D S^-1 has eigenvalues of
    real part in [-5, -0.1], real or in conjugate pairs (and one real when
    k is odd); the "zero-sum" T is triangular with eigenvalues 0, 0.5, -0.5
    and -1, which LAPACK returns exactly."""
    rng = np.random.default_rng(seed)
    if spectrum == "zero-sum":
        T = np.diag([0.0, 0.5, -0.5, -1.0]) + np.triu(0.3 * rng.standard_normal((4, 4)), 1)
    else:
        D = np.diag(-rng.uniform(0.1, 5.0, k))
        if spectrum == "complex":
            for j in range(0, k - 1, 2):
                D[j + 1, j + 1] = D[j, j]
                D[j, j + 1] = rng.uniform(0.1, 5.0)
                D[j + 1, j] = -D[j, j + 1]
        S = np.eye(k) + 0.5 * rng.standard_normal((k, k))
        T = S @ D @ np.linalg.inv(S)
    k = T.shape[0]
    return T, rng.standard_normal((k, 2)), rng.standard_normal((k, 2))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**31), st.integers(min_value=2, max_value=7),
       st.sampled_from(["real", "complex"]), st.floats(min_value=1e-3, max_value=0.2))
@example(0, 4, "zero-sum", 0.05)
def test_eigen_startup_step_matches_the_exact_pair_and_the_quadrature(seed, k, spectrum, h):
    # the start-up step from the step basis's eigendecomposition, against
    # the exp route's pair and the q = 8 quadrature of the exact solution;
    # the eigen route loses accuracy like cond(V)^2 eps (cond(V) <= 1e3)
    from dlekrylov.analysis import dense_reference_integral

    T, Bm, P0 = _startup_case(seed, k, spectrum)
    grid = TimeGrid(0.0, h, h)
    setup = solvers._bdf_setup(T, Bm, P0, grid, 2)
    basis = setup.basis
    assume(basis.kind == "eigen")
    assert basis.cond <= solvers._EIGEN_COND_MAX
    S = basis.lam[:, None] + basis.lam[None, :]
    assert np.any(S == 0) == (spectrum == "zero-sum")
    if spectrum == "complex":
        assert np.any(S.imag != 0)
    Y1 = basis.lift(setup.startup(basis.project(setup.Y0)))
    E, delta = exact_step_pair(T, Bm, h, solvers._QUADRATURE_ORDER)
    tol = 100 * basis.cond ** 2 * np.finfo(float).eps
    for ref in (sym_part(E @ setup.Y0 @ E.T + delta),
                dense_reference_integral(T, Bm, SymLowRank(P0), grid, q=8)[1]):
        assert frob_norm(Y1 - ref) <= tol * frob_norm(ref)


@pytest.mark.parametrize("c", [0.5, 2.0])
@pytest.mark.parametrize("axis", [0, 3])
def test_psd_screen_in_a_basis_decides_as_on_the_lifted_matrix(axis, c):
    # a diagonal Y with one eigenvalue -c s, s the screen's shift, and a
    # diagonal basis of powers of two: every product is exact, so the
    # screen in the basis must pass exactly when the lifted one does
    k = 4
    vals = np.ones(k)
    shift = 1e-13 * np.sum(vals) / k
    vals[axis] = -c * shift
    Y = np.diag(vals)
    M = np.diag([4.0, 4.0, 0.25, 0.25])
    M_inv = np.diag(1.0 / np.diag(M))
    Yr = M_inv @ Y @ M_inv.T
    lifted = solvers._psd_screen(Y)
    assert lifted == (c < 1.0)
    assert solvers._psd_screen(Yr, M.T @ M, M_inv @ M_inv.T) == lifted
    # a general basis, with margins far above rounding
    rng = np.random.default_rng(72)
    Q, _ = np.linalg.qr(rng.standard_normal((k, k)))
    M = Q @ np.diag([3.0, 1.0, 0.5, 0.3]) @ Q.T
    M_inv = np.linalg.inv(M)
    for c_far in (1e-2, 1e2):
        vals[axis] = -c_far * shift
        Y = Q @ np.diag(vals) @ Q.T
        Yr = M_inv @ Y @ M_inv.T
        assert solvers._psd_screen(Yr, M.T @ M, M_inv @ M_inv.T) == (c_far < 1.0)


def test_bdf_grid_lifts_full_matrices_only_at_tf_and_clipped_nodes(monkeypatch):
    # the deciding run lifts rows only; a full lift is made at tf and at
    # each node whose screen fails, and a keep_full run lifts every node
    # after Y0, the start-up node included
    T, Bm, P0, grid = _smooth_case()
    w, N = Bm.shape[1], grid.n_steps
    screen = solvers._psd_screen
    calls = []

    def failing_screen(Y, *args):
        calls.append(1)
        # nodes 5 and 20 (node 1, the start-up node, is screened too)
        return screen(Y, *args) and len(calls) not in (5, 20)

    build = solvers._bdf_setup
    lifts = []

    def counting_setup(*args):
        setup = build(*args)
        lift = setup.basis.lift
        setup.basis.lift = lambda Yr, rows=None: lifts.append(1) or lift(Yr, rows)
        return setup

    monkeypatch.setattr(solvers, "_bdf_setup", counting_setup)
    monkeypatch.setattr(solvers, "_psd_screen", failing_screen)
    for keep_full in (False, True):
        calls.clear()
        lifts.clear()
        run = _run_bdf_grid(T, Bm, P0, grid, 2, w, keep_full=keep_full)
        assert run.psd_clips == 2
        assert len(lifts) == (N if keep_full else 1 + run.psd_clips)
    # in the stiff case every node from 2 on clips, tf included
    T, Bm, P0, grid = _stiff_clipping_case()
    monkeypatch.setattr(solvers, "_psd_screen", screen)
    lifts.clear()
    run = _run_bdf_grid(T, Bm, P0, grid, 2, 1, keep_full=False)
    assert len(lifts) == run.psd_clips == grid.n_steps - 1


# -- truncation ---------------------------------------------------------------

def test_truncate_identity_keeps_everything():
    rng = np.random.default_rng(9)
    V, _ = np.linalg.qr(rng.standard_normal((20, 6)))
    fac = truncate_lowrank(V, np.eye(6))
    assert fac.rank == 6
    np.testing.assert_allclose(fac.to_dense(), V @ V.T, atol=1e-12)


def test_truncate_rank_one():
    rng = np.random.default_rng(10)
    V, _ = np.linalg.qr(rng.standard_normal((15, 4)))
    z = rng.standard_normal((4, 1))
    fac = truncate_lowrank(V, z @ z.T)
    assert fac.rank == 1


def test_truncate_reconstruction_error():
    rng = np.random.default_rng(11)
    V, _ = np.linalg.qr(rng.standard_normal((30, 8)))
    Z = rng.standard_normal((8, 8))
    G = Z @ Z.T
    fac = truncate_lowrank(V, G)
    assert frob_norm(V @ G @ V.T - fac.to_dense()) <= 1e-11


def test_truncate_psd_violation():
    V = np.eye(3)
    with pytest.raises(PSDViolationError):
        truncate_lowrank(V, np.diag([1.0, -1e-3, 0.5]))


def test_truncate_psd_bound_scales_with_largest_eigenvalue():
    # the bound is max(_RANK_THRESHOLD, k*eps*lambda_max) = 6.7e-4 here
    V = np.eye(3)
    fac = truncate_lowrank(V, np.diag([1e12, -1e-7, 1.0]))
    assert fac.rank == 2
    np.testing.assert_allclose(fac.to_dense(), np.diag([1e12, 0.0, 1.0]))
    with pytest.raises(PSDViolationError):
        truncate_lowrank(V, np.diag([1e12, -1e-3, 1.0]))


def test_truncate_takes_one_eigh_and_no_eigvalsh(monkeypatch):
    # the PSD check and the factor read the same eigendecomposition
    rng = np.random.default_rng(12)
    V, _ = np.linalg.qr(rng.standard_normal((20, 6)))
    Z = rng.standard_normal((6, 3))
    calls = {}
    for name in ("eigh", "eigvalsh"):
        _count_calls(monkeypatch, np.linalg, name, calls)
    fac = truncate_lowrank(V, Z @ Z.T)
    assert calls == {"eigh": 1}
    assert fac.rank == 3
    assert frob_norm(fac.to_dense() - V @ Z @ Z.T @ V.T) <= 1e-12


def test_ranks_match_factor_width_at_dtol():
    # an eigenvalue at dtol lands on either side of it depending on the
    # eigensolver's rounding; the count and the factor must still agree
    rng = np.random.default_rng(70)
    k, dtol, n_mat = 40, solvers._RANK_THRESHOLD, 50
    mats = []
    for _ in range(n_mat):
        U, _ = np.linalg.qr(rng.standard_normal((k, k)))
        vals = np.concatenate([660.0 * rng.random(k - 11), [dtol], np.zeros(10)])
        mats.append((U * vals) @ U.T)
    grid = TimeGrid(0.0, float(n_mat - 1), 1.0)
    traj = Trajectory(grid=grid, final_small=mats[-1], replay=lambda: iter(mats),
                      residuals=np.zeros(n_mat), decomposition=np.eye(k),
                      converged=True, iterations=[], dim=k,
                      config=SolverConfig())
    widths = [traj.lowrank_factor(i).rank for i in range(n_mat)]
    np.testing.assert_array_equal(traj.ranks(), widths)


def _spectrum_away_from(rng, k, kind, tau, margin_factor):
    """Eigenvalues of a PSD or an indefinite k x k matrix over 14 decades,
    a third of them zero, each at least margin_factor * k * eps * lambda_max
    away from tau; the margin is returned too."""
    vals = 10.0 ** rng.uniform(-14, 0, k)
    if kind == "indefinite":
        vals *= rng.choice([-1.0, 1.0], k)
    vals[rng.random(k) < 0.3] = 0.0
    lam_max = np.abs(vals).max() if vals.any() else 1.0
    margin = margin_factor * k * np.finfo(float).eps * lam_max
    near = np.abs(vals - tau) < margin
    vals[near] = tau + np.where(vals[near] >= tau, 2.0, -2.0) * margin
    return vals


@pytest.mark.parametrize("k", [0, 1, 2, 3, 8, 40])
@pytest.mark.parametrize("kind", ["psd", "indefinite"])
@pytest.mark.parametrize("cond", [None, 1.0, 30.0, 1e3])
def test_count_above_matches_eigvalsh(k, kind, cond):
    # cond None: Y itself; else Y = W Yr W^T with cond(W) = cond, counted as
    # Yr - tau gram_inv. The factorization's backward error reaches the
    # lifted matrix amplified by up to cond(W)^2, so the spectrum keeps
    # 1e3 k eps lambda_max cond(W)^2 away from tau
    rng = np.random.default_rng(80 + k)
    two_by_two = 0
    for trial in range(40):
        scale = 10.0 ** rng.uniform(-3, 12)
        tau = float(rng.choice([0.0, 1e-12, 1e-6 * scale, 0.1 * scale]))
        vals = scale * _spectrum_away_from(rng, k, kind, tau / scale,
                                           1e3 * (cond or 1.0) ** 2)
        U, _ = np.linalg.qr(rng.standard_normal((k, k)))
        Y = sym_part((U * vals) @ U.T)
        want = int(np.sum(np.linalg.eigvalsh(Y) > tau)) if k else 0
        assert want == np.sum(vals > tau)
        if cond is None:
            got = solvers._count_above(Y, tau)
        else:
            Q1, _ = np.linalg.qr(rng.standard_normal((k, k)))
            Q2, _ = np.linalg.qr(rng.standard_normal((k, k)))
            W = (Q1 * np.geomspace(1.0, cond, k)) @ Q2
            W_inv = np.linalg.inv(W)
            got = solvers._count_above(W_inv @ Y @ W_inv.T, tau, W_inv @ W_inv.T)
        assert got == want, (trial, tau, vals)
        if k and cond is None:
            ipiv = lapack.dsytrf(Y - tau * np.eye(k), lower=True)[1]
            two_by_two += np.any(ipiv < 0)
    if kind == "indefinite" and k >= 8 and cond is None:
        assert two_by_two                # the 2x2 pivots were exercised


@pytest.mark.parametrize("kind", ["indefinite", "low-rank"])
def test_bunch_kaufman_2x2_pivots_are_indefinite(kind):
    # `_count_above` counts each 2x2 pivot [[a, b], [b, c]] of dsytrf as one
    # positive eigenvalue: Bunch-Kaufman takes one only when
    # |a c| < alpha^2 b^2, so a c - b^2 < 0. Random symmetric matrices
    # over many scales, and low-rank PSD ones minus 1e-12 I as a rank
    # count at tau = 1e-12 factors them: past their rank, the rounding of
    # the elimination leaves an indefinite block where it exceeds 1e-12
    rng = np.random.default_rng(90)
    pivots = 0
    for trial in range(200):
        k = int(rng.integers(2, 60))
        if kind == "indefinite":
            Y = sym_part(rng.standard_normal((k, k))) * 10.0 ** rng.uniform(-6, 6)
        else:
            Z = rng.standard_normal((k, int(rng.integers(1, k))))
            Y = (Z * 10.0 ** rng.uniform(-3, 6)) @ Z.T - 1e-12 * np.eye(k)
        ldu, ipiv, _ = lapack.dsytrf(Y, lower=True,
                                     lwork=solvers._sytrf_lwork(k))
        start = np.flatnonzero(ipiv < 0)[::2]
        a, c = ldu[start, start], ldu[start + 1, start + 1]
        assert np.all(a * c - ldu[start + 1, start] ** 2 < 0), trial
        pivots += start.size
    assert pivots >= 100                 # the 2x2 pivots were exercised


def test_truncated_factor_is_finite_where_the_count_passes_eigvalsh():
    # lambda_max = 1e12 puts the eigensolver's rounding (about 1e-3) far
    # above dtol: the count can keep an eigenvalue eigh gives as <= 0
    rng = np.random.default_rng(81)
    k, dtol, n_mat = 30, solvers._RANK_THRESHOLD, 40
    mats = []
    for _ in range(n_mat):
        U, _ = np.linalg.qr(rng.standard_normal((k, k)))
        vals = np.concatenate([[1e12], 10.0 ** rng.uniform(-2, 11, 9),
                               dtol * (1.0 + 0.5 * rng.standard_normal(k - 10))])
        mats.append(sym_part((U * vals) @ U.T))
    grid = TimeGrid(0.0, float(n_mat - 1), 1.0)
    traj = Trajectory(grid=grid, final_small=mats[-1], replay=lambda: iter(mats),
                      residuals=np.zeros(n_mat), decomposition=np.eye(k),
                      converged=True, iterations=[], dim=k, config=SolverConfig())
    ranks = traj.ranks()
    past_eigvalsh = 0
    for i, G in enumerate(mats):
        factor = traj.lowrank_factor(i)
        assert np.isfinite(factor.Z).all()
        assert factor.rank == ranks[i]
        past_eigvalsh += np.any(np.linalg.eigh(G)[0][::-1][:ranks[i]] <= 0.0)
    assert past_eigvalsh                 # the guard was needed
    assert traj.lowrank_factor(-1).rank == ranks[-1]


def _count_calls(monkeypatch, owner, name, calls):
    fn = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def test_bdf_ranks_count_in_the_basis_with_no_eigensolve_lift_or_screen(monkeypatch):
    op = wrap_sparse(gen_convdiff(10))
    B = gen_random_block(100, 2, seed=7)
    grid = TimeGrid(0.0, 1.0, 1e-2)
    traj = solve(op, B, None, grid, SolverConfig(method="eba_bdf", m_max=8,
                                                  tol=1e-300))
    assert traj.iterations[-1].bdf_basis == "eigen"
    assert traj.iterations[-1].psd_clips == 0
    old = [int(np.sum(np.linalg.eigvalsh(sym_part(G)) > solvers._RANK_THRESHOLD))
           for G in traj.replay()]
    calls = {}
    for owner, name in ((np.linalg, "eigvalsh"), (np.linalg, "eigh"),
                        (solvers._StepBasis, "lift"), (solvers, "_psd_screen")):
        _count_calls(monkeypatch, owner, name, calls)
    ranks = traj.ranks()
    assert calls == {}
    np.testing.assert_array_equal(ranks, old)
    assert ranks[-1] == traj.lowrank_factor(-1).rank


@pytest.mark.parametrize("route", ["exp", "exp-x0", "bdf1", "bdf2", "bdf3",
                                   "bdf2-schur"])
def test_each_route_counts_as_the_per_node_pass(route, monkeypatch):
    # each grid run's rank pass fills the column `_count_each` gives over
    # the lifted replay: the exp run's by the batch ends from X0 = 0, the
    # BDF run's in its basis coordinates, the Schur basis's too
    if route.endswith("schur"):
        monkeypatch.setattr(solvers, "_EIGEN_COND_MAX", 0.0)
    B = gen_random_block(100, 2, seed=7)
    X0 = SymLowRank(0.3 * gen_random_block(100, 2, seed=8)) if route == "exp-x0" else None
    config = (SolverConfig(m_max=8, tol=1e-300) if route.startswith("exp") else
              SolverConfig(method="eba_bdf", bdf_order=int(route[3]), m_max=8,
                           tol=1e-300))
    traj = solve(wrap_sparse(gen_convdiff(10)), B, X0, TimeGrid(0.0, 1.0, 1e-2),
                 config)
    if route.startswith("bdf"):
        assert traj.iterations[-1].bdf_basis == (
            "schur" if route.endswith("schur") else "eigen")
    tau = solvers._RANK_THRESHOLD
    got = np.full(len(traj.nodes), -1)
    got[-1] = solvers._count_above(traj.final_small, tau)
    want = got.copy()
    if not traj.count(got, tau):        # from an X0: the default pass
        assert route == "exp-x0"
        got = traj.ranks()
    solvers._count_each(((G, None) for G in traj.replay()), want, tau)
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(traj.ranks(), _per_node_ranks(traj))
    assert 0 < want[1] < want[-1]       # the column moves


def test_replays_clip_the_nodes_the_deciding_run_clipped(monkeypatch):
    # a screen that always fails, as in the CLI's clip-count test: the
    # deciding run clips every screened node, and a replay clips them
    # again with no screen, bitwise as a screened replay does
    monkeypatch.setattr(solvers, "_psd_screen", lambda Y, *args: False)
    monkeypatch.setattr(solvers, "_psd_clip", lambda Y: Y.copy())
    op = wrap_sparse(gen_convdiff(5))
    B = gen_random_block(25, 2, seed=3)
    grid = TimeGrid(0.0, 0.5, 0.01)
    cfg = SolverConfig(method="eba_bdf", bdf_order=2, m_max=6, tol=1e-6)
    traj = solve(op, B, None, grid, cfg)
    assert traj.iterations[-1].psd_clips == grid.n_steps
    dec = traj.decomposition
    setup = solvers._bdf_setup(dec.T, dec.project_block(B),
                               np.zeros((dec.T.shape[0], 0)), grid, 2)
    screened = [Y for Y, *_ in solvers._bdf_steps(setup, dec.widths[dec.m - 1])]
    calls = {}
    _count_calls(monkeypatch, solvers, "_psd_screen", calls)
    np.testing.assert_array_equal(list(traj.replay()), screened)
    traj.ranks()
    assert calls == {}
    # a real clip: the stiff case clips every node from 2 on
    monkeypatch.undo()
    T, Bm, P0, grid = _stiff_clipping_case()
    run = _run_bdf_grid(T, Bm, P0, grid, 2, 1, keep_full=True)
    assert run.clipped == tuple(range(2, grid.n_steps + 1))
    calls = {}
    _count_calls(monkeypatch, solvers, "_psd_screen", calls)
    np.testing.assert_array_equal(list(run.replay()), run.full)
    assert calls == {}


def _per_node_ranks(traj):
    """The rank column by one count per node: every node of `replay()`
    but the last, then `final_small`."""
    tau = solvers._RANK_THRESHOLD
    counts = [solvers._count_above(G, tau) for G in traj.replay()]
    counts[-1] = solvers._count_above(traj.final_small, tau)
    return np.array(counts)


def _batch_end_counts(ranks, n_steps):
    """The entries of a rank column at node 0 and at the batch ends."""
    ends = [0] + [b for _, b in solvers._batches(n_steps, solvers._PROBE_STRIDE)]
    return ranks[ends]


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**31), st.integers(min_value=6, max_value=16),
       st.integers(min_value=1, max_value=2), st.integers(min_value=2, max_value=4),
       st.sampled_from([1, 7, 10]), st.integers(min_value=2, max_value=45),
       st.booleans())
def test_exp_ranks_equal_the_per_node_count(seed, n, p, m_max, stride, n_steps,
                                            with_x0):
    # from X0 = 0 the rank pass counts batch ends and skips the nodes of
    # a batch whose end count did not move; with an X0 it counts every
    # node. Both give the column of one count per replayed node.
    calls = {}
    assume(stride == 1 or (n_steps + 1) % stride)      # a short last batch
    rng = np.random.default_rng(seed)
    A = _stable_dense(n, seed)
    B = rng.standard_normal((n, p))
    X0 = SymLowRank(0.3 * rng.standard_normal((n, 2))) if with_x0 else None
    grid = TimeGrid(0.0, 0.05 * n_steps, 0.05)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers, "_PROBE_STRIDE", stride)
        traj = solve(A, B, X0, grid, SolverConfig(m_max=m_max, tol=1e-300))
        _count_calls(mp, solvers, "_count_batches", calls)
        np.testing.assert_array_equal(traj.ranks(), _per_node_ranks(traj))
    assert ("_count_batches" in calls) != with_x0


def _exp_growing_case():
    """An eba-exp trajectory from X0 = 0 whose rank grows over the grid:
    N = 200, k = 12."""
    A = _stable_dense(30, 31)
    B = np.random.default_rng(32).standard_normal((30, 2))
    grid = TimeGrid(0.0, 2.0, 1e-2)
    return solve(A, B, None, grid, SolverConfig(m_max=3, tol=1e-300))


def test_exp_ranks_count_the_batch_ends_and_the_moved_batches(monkeypatch):
    # with batches of 10 the pass counts node 0, each batch end (tf by
    # final_small) and the nodes inside the batches whose end count moved,
    # formed by one stacked product each; it replays no node
    traj = _exp_growing_case()
    ref = _per_node_ranks(traj)
    n_steps, s = traj.grid.n_steps, solvers._PROBE_STRIDE
    batches = list(solvers._batches(n_steps, s))
    moved = [(a, b) for a, b in batches if ref[b] > ref[a]]
    assert s == 10 and 0 < len(moved) < len(batches)
    calls, formed = {}, []
    _count_calls(monkeypatch, solvers, "_count_above", calls)
    batch_nodes = solvers._batch_nodes
    monkeypatch.setattr(solvers, "_batch_nodes",
                        lambda pairs, G, n: formed.append(n) or batch_nodes(pairs, G, n))
    monkeypatch.setattr(traj, "replay", None)          # a replay would raise
    np.testing.assert_array_equal(traj.ranks(), ref)
    assert calls["_count_above"] == 1 + len(batches) + sum(formed)
    assert calls["_count_above"] <= len(batches) + 1 + (s - 1) * len(moved)
    assert formed == [b - a - 1 for a, b in moved]


def _rank_pass_batches(run, grid, monkeypatch):
    """The batches, as `_gram_batches` yields them, that the rank pass of
    the grid run `run` hands `_count_batches`."""
    batches = []
    count_batches = solvers._count_batches

    def recorded(walk, out, tau):
        batches.extend(walk)
        return count_batches(iter(batches), out, tau)

    monkeypatch.setattr(solvers, "_count_batches", recorded)
    out = np.empty(grid.n_steps + 1, dtype=int)
    out[-1] = solvers._count_above(run.final, solvers._RANK_THRESHOLD)
    run.count(out, solvers._RANK_THRESHOLD)
    return batches


@pytest.mark.parametrize("stride", [1, 7, 10])
def test_exp_rank_batches_are_the_replay_nodes(stride, monkeypatch):
    # node 0, the batch ends and the nodes between them, as the rank pass
    # forms them, are the replay's nodes bitwise
    T, Bm, _, grid, w, coupling = _exp_probe_case()
    monkeypatch.setattr(solvers, "_PROBE_STRIDE", stride)
    P0 = np.zeros((T.shape[0], 0))
    run = _run_gram_grid(T, Bm, P0, grid, 4, w, keep_full=False,
                         coupling=coupling)
    nodes = list(run.replay())
    batches = _rank_pass_batches(run, grid, monkeypatch)
    assert [(a, b) for a, _, b, _, _ in batches] == list(
        solvers._batches(grid.n_steps, stride))
    for a, G_a, b, G_b, between in batches:
        np.testing.assert_array_equal(G_a, nodes[a])
        np.testing.assert_array_equal(G_b, nodes[b])
        np.testing.assert_array_equal(between(), np.array(nodes[a + 1:b]).reshape(
            b - a - 1, *G_a.shape))
    np.testing.assert_array_equal(G_b, run.final)
    # from an X0 the pass walks no batch
    nonzero = _run_gram_grid(T, Bm, 0.3 * np.eye(T.shape[0])[:, :2], grid, 4, w,
                             keep_full=False, coupling=coupling)
    assert _rank_pass_batches(nonzero, grid, monkeypatch) == []


def _heat_drop_case(n, scale, m_max):
    """eba-exp on a heat_fem problem whose input block is scaled so that
    lambda_max(Y(tf)) is 1e12 to 1e14: rounding flips the counts of
    eigenvalues near the absolute threshold. N = 50."""
    op, build_b = gen_heat_fem(n, 0.01, 0.05)
    B = scale * build_b(gen_random_block(n, 2, seed=7))
    grid = TimeGrid(0.0, 0.5, 1e-2)
    traj = solve(op, B, None, grid, SolverConfig(m_max=m_max, tol=1e-3))
    assert 1e12 < np.linalg.eigvalsh(traj.final_small)[-1] < 1e14
    return traj


@pytest.mark.parametrize("case,end_drops", [((1000, 1e4, 10), True),
                                            ((400, 1e5, 8), False)],
                         ids=["batch-end", "inside-a-batch"])
def test_exp_ranks_fall_back_to_every_node_where_a_count_drops(case, end_drops):
    # a batch end counts below the one before it, or a node inside a batch
    # whose end count moved below the node before it: the counts sit in
    # rounding noise, and the pass counts every node
    traj = _heat_drop_case(*case)
    ref = _per_node_ranks(traj)
    assert np.any(np.diff(ref) < 0)
    ends = _batch_end_counts(ref, traj.grid.n_steps)
    assert np.any(np.diff(ends) < 0) == end_drops
    np.testing.assert_array_equal(traj.ranks(), ref)


def test_exp_ranks_fall_back_under_a_count_that_drops(monkeypatch):
    # a count that reads one more at about half the nodes, chosen by a
    # checksum of the node's bytes: the batch ends drop, and the column is
    # the per-node one under the same count
    traj = _exp_growing_case()
    count = solvers._count_above
    monkeypatch.setattr(
        solvers, "_count_above",
        lambda Y, tau, gram_inv=None: count(Y, tau, gram_inv) + zlib.crc32(Y.tobytes()) % 2)
    ref = _per_node_ranks(traj)
    assert np.any(np.diff(_batch_end_counts(ref, traj.grid.n_steps)) < 0)
    np.testing.assert_array_equal(traj.ranks(), ref)


# -- end-to-end solves --------------------------------------------------------

def test_zero_b_gives_zero_trajectory():
    grid = TimeGrid(0.0, 1.0, 0.1)
    traj = solve_eba_exp(np.diag([-1.0, -2.0]), np.zeros((2, 1)), None, grid)
    assert traj.converged
    assert traj.iterations[0].m == 1
    np.testing.assert_array_equal(traj.residuals, np.zeros(11))
    np.testing.assert_array_equal(traj.solution_dense(-1), np.zeros((2, 2)))
    np.testing.assert_array_equal(traj.ranks(), np.zeros(11))
    assert traj.lowrank_factor(-1).rank == 0


def test_exp_solver_diagonal_closed_form(monkeypatch):
    monkeypatch.setattr(solvers, "_QUADRATURE_ORDER", 6)
    lam = -np.arange(1.0, 11.0)
    A = np.diag(lam)
    rng = np.random.default_rng(12)
    B = rng.random((10, 1))
    grid = TimeGrid(0.0, 1.0, 1e-3)
    cfg = SolverConfig(m_max=10, tol=1e-13)
    traj = solve_eba_exp(A, B, None, grid, cfg)
    pair = lam[:, None] + lam[None, :]
    X_ref = (B @ B.T) * (1.0 - np.exp(pair * 1.0)) / (-pair)
    np.testing.assert_allclose(traj.solution_dense(-1), X_ref, atol=1e-10)


def test_methods_agree_on_projected_problem():
    # both routes integrate the same projected equation (approaches are
    # equivalent up to time discretization)
    A = gen_convdiff(6)
    B = gen_random_block(36, 2, seed=3)
    grid = TimeGrid(0.0, 1.0, 1e-3)
    te = solve_eba_exp(wrap_sparse(A), B, None, grid, SolverConfig(m_max=8, tol=1e-12))
    tb = solve_eba_bdf(wrap_sparse(A), B, None, grid,
                       SolverConfig(m_max=8, tol=1e-12, bdf_order=2))
    Xe, Xb = te.solution_dense(-1), tb.solution_dense(-1)
    assert frob_norm(Xe - Xb) <= 1e-6 * frob_norm(Xe)


def test_petrov_galerkin_small_scale():
    A = _stable_dense(40, 13)
    rng = np.random.default_rng(14)
    B = rng.random((40, 2))
    grid = TimeGrid(0.0, 0.5, 1e-2)
    traj = solve_eba_exp(A, B, None, grid, SolverConfig(m_max=6, tol=1e-14,
                                                        krylov_variant="block"))
    dec = traj.decomposition
    V, T, Bm = dec.inner_basis, dec.T, dec.project_block(B)
    norm_bb = frob_norm(B @ B.T)
    for i in (0, len(traj.nodes) // 2, -1):
        G = traj.small_solutions[i]
        Gdot = T @ G + G @ T.T + Bm @ Bm.T
        X = V @ G @ V.T
        R = V @ Gdot @ V.T - A @ X - X @ A.T - B @ B.T
        assert frob_norm(V.T @ R @ V) <= 1e-10 * norm_bb


def test_psd_preservation_invariant():
    A = _stable_dense(30, 15)
    rng = np.random.default_rng(16)
    B = rng.random((30, 2))
    grid = TimeGrid(0.0, 1.0, 1e-2)
    for method in (solve_eba_exp, solve_eba_bdf):
        traj = method(A, B, None, grid, SolverConfig(m_max=5, tol=1e-13))
        for G in traj.small_solutions[:: len(traj.nodes) // 10]:
            vals = np.linalg.eigvalsh(sym_part(G))
            assert vals[0] >= -1e-10 * max(vals[-1], 1e-300)


def test_breakdown_finalizes_with_small_residual():
    # B spans an invariant subspace: breakdown with residual at rounding level
    rng = np.random.default_rng(17)
    blk = _stable_dense(4, 18)
    A = np.zeros((16, 16))
    A[:4, :4] = blk
    A[4:, 4:] = _stable_dense(12, 19)
    B = np.zeros((16, 2))
    B[:4, :] = rng.random((4, 2))
    grid = TimeGrid(0.0, 1.0, 1e-2)
    traj = solve_eba_exp(A, B, None, grid,
                         SolverConfig(m_max=10, tol=1e-30, krylov_variant="block"))
    assert traj.decomposition.breakdown_rank == 0
    assert traj.residuals.max() <= 1e-8 * frob_norm(B @ B.T)


@pytest.mark.parametrize("variant,s", [("block", 4), ("extended", 2)])
def test_wide_start_block_breaks_down_and_matches_reference(variant, s):
    # a start block wider than the space deflates to rank n at set-up, so
    # the first extend reports a full breakdown
    from dlekrylov.analysis import dense_reference_integral

    A = np.diag([-1.0, -2.0, -3.0])
    B = np.random.default_rng(0).random((3, s))
    grid = TimeGrid(0.0, 1.0, 0.1)
    traj = solve_eba_exp(A, B, None, grid, SolverConfig(krylov_variant=variant))
    assert traj.converged
    assert traj.decomposition.breakdown_rank == 0
    assert traj.basis_size == 3
    ref = dense_reference_integral(A, B, None, grid, q=8)
    for i in range(grid.n_steps + 1):
        assert frob_norm(traj.solution_dense(i) - ref[i]) <= 1e-10 * frob_norm(ref[-1])


def test_nonzero_initial_value_exp_and_bdf():
    from dlekrylov.analysis import dense_reference_integral

    A = _stable_dense(25, 20)
    rng = np.random.default_rng(21)
    B = rng.random((25, 2))
    Z0 = 0.3 * rng.standard_normal((25, 2))
    X0 = SymLowRank(Z0)
    grid = TimeGrid(0.0, 1.0, 1e-3)
    ref = dense_reference_integral(A, B, X0, grid, q=8)
    cfg = SolverConfig(m_max=13, tol=1e-12)
    te = solve_eba_exp(A, B, X0, grid, cfg)
    tb = solve_eba_bdf(A, B, X0, grid, cfg)
    nref = frob_norm(ref[-1])
    assert frob_norm(te.solution_dense(-1) - ref[-1]) <= 1e-8 * nref
    assert frob_norm(tb.solution_dense(-1) - ref[-1]) <= 1e-5 * nref
    # initial value reproduced exactly through the augmented start block
    assert frob_norm(te.solution_dense(0) - Z0 @ Z0.T) <= 1e-10 * frob_norm(Z0 @ Z0.T)


@pytest.mark.parametrize("method,eigen_cond_max", [
    pytest.param("eba_exp", solvers._EIGEN_COND_MAX, id="exp"),
    pytest.param("eba_bdf", solvers._EIGEN_COND_MAX, id="bdf-eigen"),
    pytest.param("eba_bdf", 0.0, id="bdf-schur"),
])
def test_trajectory_stream_replays_last_grid_run(method, eigen_cond_max,
                                                 monkeypatch):
    monkeypatch.setattr(solvers, "_EIGEN_COND_MAX", eigen_cond_max)
    A = _stable_dense(25, 20)
    rng = np.random.default_rng(21)
    B = rng.random((25, 2))
    Z0 = 0.3 * rng.standard_normal((25, 2))
    grid = TimeGrid(0.0, 0.5, 1e-2)
    cfg = SolverConfig(method=method, m_max=4, tol=1e-300)
    traj = solve(A, B, SymLowRank(Z0), grid, cfg)
    dec = traj.decomposition
    T, Bm, P0 = dec.T, dec.project_block(B), dec.project_block(Z0)
    w = dec.widths[dec.m - 1]
    if method == "eba_exp":
        run = _run_gram_grid(T, Bm, P0, grid, solvers._QUADRATURE_ORDER, w,
                             keep_full=True)
    else:
        run = _run_bdf_grid(T, Bm, P0, grid, cfg.bdf_order, w, keep_full=True)
        assert run.bdf_basis == traj.iterations[-1].bdf_basis
        assert run.bdf_basis == ("schur" if eigen_cond_max == 0.0 else "eigen")

    def no_setup(*args, **kwargs):
        raise AssertionError("a replay repeated the grid's setup")

    for name in ("expm", "_panel_increment", "exact_step_pair", "_bdf_basis",
                 "LyapunovSolver"):
        monkeypatch.setattr(solvers, name, no_setup)
    monkeypatch.setattr(np.linalg, "eig", no_setup)
    np.testing.assert_array_equal(list(traj.replay()), run.full)
    np.testing.assert_array_equal(traj.small_solutions, run.full)
    np.testing.assert_array_equal(traj.final_small, run.full[-1])
    for i in (0, 7, -2, -1):
        np.testing.assert_array_equal(traj.small_solution(i), run.full[i])
    with pytest.raises(IndexError):
        traj.small_solution(len(traj.nodes))
    assert traj.basis_size == dec.inner_width
    np.testing.assert_array_equal(
        traj.residuals, solvers._residuals_over_nodes(dec.coupling, run.bar_rows))
    assert traj.ranks()[-1] == traj.lowrank_factor(-1).rank


@pytest.mark.parametrize("method", ["eba_exp", "eba_bdf"])
def test_replayed_nodes_are_exactly_symmetric(method):
    # the rank count reads only a node's lower triangle, so every node a
    # replay yields is symmetric bitwise, the BDF route's lifted basis
    # values too
    traj = solve(wrap_sparse(gen_convdiff(10)), gen_random_block(100, 2, seed=7),
                 None, TimeGrid(0.0, 0.5, 1e-2),
                 SolverConfig(method=method, m_max=6, tol=1e-300))
    for Y in traj.replay():
        np.testing.assert_array_equal(Y, Y.T)


def test_small_solutions_are_materialized_once_and_read_only(monkeypatch):
    A = _stable_dense(12, 24)
    B = np.random.default_rng(25).random((12, 1))
    traj = solve_eba_bdf(A, B, None, TimeGrid(0.0, 0.2, 1e-2),
                         SolverConfig(method="eba_bdf", m_max=3, tol=1e-300))
    replays = []
    replay = traj.replay
    monkeypatch.setattr(traj, "replay", lambda: replays.append(1) or replay())
    first = traj.small_solutions
    assert traj.small_solutions is first and len(replays) == 1
    np.testing.assert_array_equal(first, list(replay()))
    with pytest.raises(ValueError):
        first[0, 0, 0] = 1.0


@pytest.mark.parametrize("method", ["eba_exp", "eba_bdf"])
def test_solve_memory_does_not_grow_with_trajectory_size(method):
    # convdiff n = 400, N = 2000, k = 40: a stored trajectory alone is
    # (N+1) k^2 doubles, 24.4 MiB
    import tracemalloc

    op = wrap_sparse(gen_convdiff(20))
    B = gen_random_block(400, 2, seed=7)
    grid = TimeGrid(0.0, 2.0, 1e-3)
    cfg = SolverConfig(method=method, m_max=10, tol=1e-300)
    tracemalloc.start()
    try:
        traj = solve(op, B, None, grid, cfg)
        traj.ranks()
        traj.lowrank_factor(-1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    k = traj.basis_size
    assert k == 40
    assert peak < 0.5 * len(grid.nodes) * k * k * 8


def test_grid_walk_memory_does_not_grow_with_its_bar_rows():
    # N = 20,000 nodes at w = 4, k = 20: the bar rows alone are N w k
    # doubles, 12.8 MB; the walk keeps one batch of them and N residuals
    import tracemalloc

    op = wrap_sparse(gen_convdiff(6))
    grid = TimeGrid(0.0, 2.0, 1e-4)
    cfg = SolverConfig(m_max=5, tol=1e-300)
    *_, step = solvers.krylov_steps(op, gen_random_block(36, 2, seed=7),
                                    np.zeros((36, 0)), cfg)
    dec = step.decomposition
    w, k, n_nodes = dec.widths[dec.m - 1], dec.inner_width, len(grid.nodes)
    assert (w, k, n_nodes) == (4, 20, 20001)
    tracemalloc.start()
    try:
        run, res, rec = solvers.full_grid_run(step, grid, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rec.grid == "full" and len(res) == n_nodes
    assert peak < 8 * (2 * n_nodes + 50 * solvers._PROBE_STRIDE * w * k)
    assert peak < 0.05 * n_nodes * w * k * 8


def test_convergence_failure_reported():
    A = _stable_dense(50, 22)
    rng = np.random.default_rng(23)
    B = rng.random((50, 2))
    grid = TimeGrid(0.0, 0.5, 1e-2)
    traj = solve_eba_exp(A, B, None, grid, SolverConfig(m_max=2, tol=1e-14))
    assert not traj.converged
    assert traj.iterations[-1].m == 2
    assert traj.final_residual > 0


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(bdf_order=5)
    with pytest.raises(ValueError):
        SolverConfig(m_max=0)
    # the stop test's batch, the quadrature order, the rank threshold and
    # the deflation threshold are constants
    for field in ("probe_stride", "quadrature_order", "dtol", "rank_tol"):
        with pytest.raises(TypeError, match=field):
            SolverConfig(**{field: 10})
    assert list(SolverConfig.__dataclass_fields__) == [
        "method", "krylov_variant", "m_max", "tol", "bdf_order"]
    with pytest.raises(ValueError):
        solve(np.eye(2), np.ones((2, 1)), None, TimeGrid(0, 1, 0.5),
              SolverConfig(method="nope"))
    for field, bad in (("method", "eba-expo"), ("krylov_variant", "blok"),
                       ("tol", "1e-3"), ("tol", float("nan")),
                       ("tol", float("inf")),
                       ("m_max", "10"), ("bdf_order", 2.0),
                       # bool is an int, but JSON true is no number
                       ("m_max", True), ("bdf_order", True), ("tol", True)):
        with pytest.raises(ValueError, match=field):
            SolverConfig(**{field: bad})


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=2**31))
def test_trajectory_residuals_nonnegative_property(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 24))
    A = _stable_dense(n, seed % 1000)
    B = rng.random((n, 1))
    grid = TimeGrid(0.0, 0.4, 0.05)
    traj = solve_eba_exp(A, B, None, grid, SolverConfig(m_max=3, tol=1e-20))
    assert np.all(traj.residuals >= 0.0)
    assert np.all(np.diff(traj.nodes) > 0)


def test_block_variant_without_inverse_action():
    # operators without an inverse action still work through the plain
    # block process
    from dlekrylov.sparsela import LinearOperator

    A = _stable_dense(30, 40)
    op = LinearOperator(30, lambda V: A @ V)
    rng = np.random.default_rng(41)
    B = rng.random((30, 2))
    grid = TimeGrid(0.0, 0.5, 1e-2)
    traj = solve_eba_exp(op, B, None, grid,
                         SolverConfig(m_max=20, tol=1e-11,
                                      krylov_variant="block"))
    assert traj.converged
    from dlekrylov.analysis import dense_reference_integral

    ref = dense_reference_integral(A, B, None, grid, q=8)
    assert frob_norm(traj.solution_dense(-1) - ref[-1]) <= 1e-8 * frob_norm(ref[-1])


def test_extended_variant_with_forward_and_inverse_actions_only():
    # the extended process needs no action but A and A^-1
    from dlekrylov.analysis import dense_reference_integral
    from dlekrylov.sparsela import LinearOperator

    A = _stable_dense(30, 40)
    op = LinearOperator(30, lambda V: A @ V, inverse=lambda V: np.linalg.solve(A, V))
    B = np.random.default_rng(41).random((30, 2))
    grid = TimeGrid(0.0, 0.5, 1e-2)
    traj = solve_eba_exp(op, B, None, grid, SolverConfig(m_max=20, tol=1e-11))
    assert traj.converged and traj.decomposition.variant == "extended"
    ref = dense_reference_integral(A, B, None, grid, q=8)
    assert frob_norm(traj.solution_dense(-1) - ref[-1]) <= 1e-8 * frob_norm(ref[-1])


def test_block_variant_solves_on_both_routes():
    # the block process needs about three times the steps of the extended
    # one here (m = 33 against 10); both reach the dense reference at tf
    from dlekrylov.analysis import dense_reference_integral

    A = gen_convdiff(10)
    B = gen_random_block(100, 2, seed=7)
    grid = TimeGrid(0.0, 1.0, 1e-2)
    ref = dense_reference_integral(A.toarray(), B, None, grid, q=8)[-1]
    for method in ("eba_exp", "eba_bdf"):
        traj = solve(wrap_sparse(A), B, None, grid,
                     SolverConfig(method=method, krylov_variant="block",
                                  m_max=40, tol=1e-8))
        assert traj.converged and traj.decomposition.variant == "block"
        assert frob_norm(traj.solution_dense(-1) - ref) <= 1e-8 * frob_norm(ref)
        assert traj.ranks()[-1] == traj.lowrank_factor(-1).rank


def _closed_form_increment(lam, V, B, h):
    """The Gramian over one step of T = V diag(lam) V^-1: V (Qh * phi) V^T
    with Qh = V^-1 B B^T V^-T and phi_ab = expm1(h s_ab) / s_ab,
    s = lam_a + lam_b, and h where s_ab = 0; real for a real T."""
    s = lam[:, None] + lam[None, :]
    V_inv = np.linalg.inv(V)
    Qh = V_inv @ B @ B.T @ V_inv.T
    zero = s == 0.0
    phi = np.where(zero, h, np.expm1(h * s) / np.where(zero, 1.0, s))
    return (V @ (Qh * phi) @ V.T).real


def test_exact_step_pair_with_an_eigenvalue_pair_summing_to_zero():
    # eigenvalue pair sums to zero: T's Lyapunov operator is singular, and
    # the pair still delivers the closed-form increment
    T = np.diag([1.0, -1.0, -2.0])
    rng = np.random.default_rng(60)
    B = rng.random((3, 2))
    h = 0.05
    E, delta = exact_step_pair(T, B, h, 4)
    np.testing.assert_allclose(E, np.diag(np.exp(h * np.diag(T))), rtol=1e-13)
    ref = _closed_form_increment(np.diag(T), np.eye(3), B, h)
    np.testing.assert_allclose(delta, ref, rtol=1e-11, atol=1e-14)


def test_exact_step_pair_on_stiff_T_matches_the_closed_form():
    # ||T|| h = 50: the step's panel is halved until the rule resolves it
    rng = np.random.default_rng(64)
    k, h = 10, 1e-3
    S = np.eye(k) + 0.3 * rng.standard_normal((k, k))
    lam = -np.geomspace(1.0, 3e4, k)
    T = S @ np.diag(lam) @ np.linalg.inv(S)
    assert 40 <= np.linalg.norm(T, 2) * h <= 60
    B = rng.standard_normal((k, 2))
    E, delta = exact_step_pair(T, B, h, 4)
    ref = _closed_form_increment(lam, S, B, h)
    assert frob_norm(delta - ref) <= 1e-11 * frob_norm(ref)


@pytest.mark.parametrize("q", [4, 6])
def test_panel_halvings_are_the_fewest_that_reach_1e_14(q):
    # the q-point rule's error bound on a panel h / 2^j of integrand
    # variation e^{2 ||T|| s}, coef (2 ||T|| h / 2^j)^(2q) with
    # coef = (q!)^4 / ((2q + 1) ((2q)!)^3), is at most 1e-14 at the j
    # returned and above it one halving sooner; the 1e-9 relative slack is
    # for the rounding of the two ways of forming the bound
    coef = math.factorial(q) ** 4 / ((2 * q + 1) * math.factorial(2 * q) ** 3)

    def bound(th, j):
        return coef * (2.0 * th / 2 ** j) ** (2 * q)

    for th in np.geomspace(1e-3, 1e4, 97):
        j = solvers._panel_halvings(th, 1.0, q)
        assert bound(th, j) <= 1e-14 * (1 + 1e-9), th
        assert j == 0 or bound(th, j - 1) > 1e-14 * (1 - 1e-9), th


def test_gauss_legendre_computes_each_rule_once(monkeypatch):
    # the rule on [-1, 1] is cached per q, and each interval is mapped
    # from it as from a fresh one
    leggauss = np.polynomial.legendre.leggauss
    calls = []
    monkeypatch.setattr(np.polynomial.legendre, "leggauss",
                        lambda q: calls.append(q) or leggauss(q))
    solvers._legendre_rule.cache_clear()
    x0, w0 = leggauss(5)
    for a, b in ((0.0, 1.0), (0.5, 2.0), (0.0, 1e-3)):
        x, w = solvers.gauss_legendre(5, a, b)
        np.testing.assert_array_equal(x, 0.5 * (b - a) * (x0 + 1.0) + a)
        np.testing.assert_array_equal(w, 0.5 * (b - a) * w0)
    assert calls == [5]


def test_exact_step_pair_where_the_lyapunov_identity_cancels():
    # h * min |lam_a + lam_b| = 1e-9: the increment solved from the
    # Lyapunov identity T delta + delta T^T = E Q E^T - Q cancels
    rng = np.random.default_rng(65)
    h = 1e-3
    lam = np.array([-5e-7, -1.0, -3.0, -10.0, -0.2])
    U, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    T = U @ np.diag(lam) @ U.T
    B = rng.standard_normal((5, 2))
    ref = _closed_form_increment(lam, U, B, h)
    E, delta = exact_step_pair(T, B, h, 4)
    assert frob_norm(delta - ref) <= 1e-12 * frob_norm(ref)
    Q = B @ B.T
    bare = LyapunovSolver(T).solve(Q - E @ Q @ E.T)
    assert frob_norm(bare - ref) > 1e-9 * frob_norm(ref)


def test_exact_step_pair_with_a_slow_mode_at_h_norm_1e5():
    # h ||T|| = 1e5 with a mode at -5e-7: 2^20 panels, and the slow
    # mode's integral kept to the closed form's accuracy
    rng = np.random.default_rng(66)
    h = 1e-3
    lam = np.array([-5e-7, -1.0, -3.0, -1e8, -3e7])
    U, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    T = U @ np.diag(lam) @ U.T
    B = rng.standard_normal((5, 2))
    E, delta = exact_step_pair(T, B, h, 4)
    ref = _closed_form_increment(lam, U, B, h)
    assert frob_norm(delta - ref) <= 1e-10 * frob_norm(ref)
    np.testing.assert_allclose(E, U @ np.diag(np.exp(h * lam)) @ U.T,
                               rtol=0, atol=1e-10)


def test_exact_step_pair_on_non_normal_triangular_T_matches_radau():
    # eigenvalues -1..-1e5 of an upper-triangular T with strictly upper
    # entries of scale 100: cond(V) ~ 3e7, and every eigenvalue pair sum
    # at least 2, so h * min |lam_a + lam_b| = 2e-3; against Radau on the
    # vectorized equation
    import scipy.sparse as sp
    from scipy.integrate import solve_ivp

    rng = np.random.default_rng(1)
    k, h = 20, 1e-3
    T = np.diag(-np.logspace(0, 5, k)) + np.triu(100 * rng.standard_normal((k, k)), 1)
    B = rng.standard_normal((k, 2))
    Q = B @ B.T
    jac = sp.csc_matrix(np.kron(T, np.eye(k)) + np.kron(np.eye(k), T))
    sol = solve_ivp(lambda s, y: (T @ y.reshape(k, k) + y.reshape(k, k) @ T.T
                                  + Q).ravel(),
                    (0.0, h), np.zeros(k * k), method="Radau", jac=jac,
                    rtol=1e-12, atol=1e-20)
    assert sol.success
    ref = sol.y[:, -1].reshape(k, k)
    delta = exact_step_pair(T, B, h, 4)[1]
    assert frob_norm(delta - ref) <= 1e-12 * frob_norm(ref)


def _stable_spectrum_case(seed, k, h_norm, spectrum):
    """(T, lam, V, h): T = V diag(lam) V^-1 real, V = S P with S real and
    P 2x2-block-diagonal on the conjugate pairs, so cond(V) = cond(S), and
    h such that h ||T|| = h_norm. The real parts are spread over up to four
    decades below -0.5; "zero-sum" sets the two slowest eigenvalues to
    0.5 and -0.5, which grow like e^{h/2}, so it is meant for a modest h."""
    rng = np.random.default_rng(seed)
    re = -np.geomspace(1.0, 10.0 ** rng.uniform(0, 4), k) * rng.uniform(0.5, 1.0, k)
    D = np.diag(re)
    lam = re.astype(complex)
    P = np.eye(k, dtype=complex)
    pairs = range(0, k - 1, 2) if spectrum == "complex" else ()
    for j in pairs:
        b = rng.uniform(0.1, 2.0) * abs(re[j])
        D[j + 1, j + 1] = re[j]
        D[j, j + 1], D[j + 1, j] = b, -b
        lam[j], lam[j + 1] = re[j] + 1j * b, re[j] - 1j * b
        P[j:j + 2, j:j + 2] = [[1.0, 1.0], [1j, -1j]]
    if spectrum == "zero-sum":
        D[0, 0], D[1, 1] = 0.5, -0.5
        lam[:2] = 0.5, -0.5
    S = np.eye(k) + 0.3 * rng.standard_normal((k, k))
    T = S @ D @ np.linalg.inv(S)
    return T, lam, S @ P, h_norm / np.linalg.norm(T, 2)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**31), st.integers(min_value=2, max_value=7),
       st.floats(min_value=1e-3, max_value=1e4),
       st.sampled_from(["real", "complex"]))
@example(3, 4, 1e4, "complex")
@example(5, 4, 1.0, "zero-sum")
def test_exact_step_pair_matches_the_closed_form(seed, k, h_norm, spectrum):
    # random stable T with cond(V) <= 1e2 and h ||T|| up to 1e4, and a
    # spectrum with an eigenvalue pair summing to zero
    T, lam, V, h = _stable_spectrum_case(seed, k, h_norm, spectrum)
    assume(np.linalg.cond(V) <= 1e2)
    B = np.random.default_rng(seed + 1).standard_normal((k, 2))
    E, delta = exact_step_pair(T, B, h, solvers._QUADRATURE_ORDER)
    ref = _closed_form_increment(lam, V, B, h)
    assert frob_norm(delta - ref) <= 1e-10 * frob_norm(ref)
    E_ref = (V @ np.diag(np.exp(h * lam)) @ np.linalg.inv(V)).real
    assert frob_norm(E - E_ref) <= 1e-10 * max(frob_norm(E_ref), 1.0)


# -- one grid walk per Krylov step ----------------------------------------------


def _walk_by_full_grids(op, B, X0, grid, config):
    """The reference loop: `full_grid_run` with no stop test at every
    Krylov step, up to the first step whose residual is below tol at every
    node. Returns [(m, residuals, run, step)] per step and `converged`."""
    Z0 = np.zeros((B.shape[0], 0)) if X0 is None else X0.Z
    steps = []
    for step in solvers.krylov_steps(solvers.as_operator(op), B, Z0, config):
        run, res, _ = solvers.full_grid_run(step, grid, config)
        steps.append((step.decomposition.m, res, run, step))
        if np.max(res) < config.tol:
            return steps, True
    return steps, False


def _exact_tail(T, Bm, P0, grid, order, w, last):
    """The value at tf of a BDF walk stopped at node `last`, and the grid's
    step basis: `exact_step_pair` at q = 8 over the remaining span, applied
    in the Krylov coordinates to the screened walk's node there."""
    setup = solvers._bdf_setup(T, Bm, P0, grid, order)
    for i, (Y, *_) in enumerate(solvers._bdf_steps(setup, w)):
        if i == last:
            break
    E, delta = exact_step_pair(T, Bm, (grid.n_steps - last) * grid.h, 8)
    return sym_part(E @ Y @ E.T + delta), setup.basis


def _assert_one_walk_per_step(op, B, X0, grid, config):
    """`solve` against the reference loop: the same m sequence and
    `converged`, the last step's residuals and final node bitwise, and each
    "probe" row ended after the batch of `_PROBE_STRIDE` nodes that holds
    its step's first residual at or above tol; its value at tf matches the
    full grid's on eba-exp, where the grid never clips, and on eba-bdf the
    exact propagation from the last node walked (`_exact_tail`). Returns
    both."""
    traj = solve(op, B, X0, grid, config)
    steps, converged = _walk_by_full_grids(op, B, X0, grid, config)
    assert [r.m for r in traj.iterations] == [m for m, *_ in steps]
    assert traj.converged == converged
    np.testing.assert_array_equal(traj.residuals, steps[-1][1])
    np.testing.assert_array_equal(traj.final_small, steps[-1][2].final)
    stride = solvers._PROBE_STRIDE
    for rec, (_, res, run, step) in zip(traj.iterations, steps):
        reached = res >= config.tol
        # the nodes of the batches that end before tf
        checked = stride * ((len(res) - 1) // stride)
        if rec.grid == "probe":
            walked = stride * (int(np.argmax(reached)) // stride + 1)
            assert reached.any() and walked <= checked
            assert rec.probe_nodes == walked
            assert rec.residual_max == np.max(res[:walked]) >= config.tol
            assert rec.gbar_sup is None
            # the record keeps no node: its value at tf is the stopped
            # run's, walked again with the solve's stop rule
            dec = step.decomposition
            probe = solvers.full_grid_run(
                step, grid, config, lambda r: np.max(r) >= config.tol)[0]
            assert len(probe.residuals) == walked
            assert rec.residual_final == residual_norm(dec.coupling, probe.final)
            if config.method == "eba_bdf":
                final = _exact_tail(dec.T, step.Bm, step.P0, grid,
                                    config.bdf_order, dec.widths[dec.m - 1],
                                    walked - 1)[0]
                assert rec.residual_final == pytest.approx(
                    residual_norm(dec.coupling, final), rel=1e-10)
                np.testing.assert_allclose(
                    probe.final, final, rtol=1e-10,
                    atol=1e-10 * np.abs(final).max())
            elif not run.clipped:
                assert rec.residual_final == pytest.approx(res[-1], rel=1e-10)
                np.testing.assert_allclose(
                    probe.final, run.final, rtol=1e-10,
                    atol=1e-10 * np.abs(run.final).max())
        else:
            # the last step, or no batch before tf reached tol
            assert rec is traj.iterations[-1] or not reached[:checked].any()
            assert rec.probe_nodes is None
            assert rec.residual_max == np.max(res)
            assert rec.residual_final == res[-1]
    return traj, steps


def _exp_probe_case():
    """T, Bm, P0, grid, w and coupling of Krylov step 2 of a dense problem
    with a nonzero initial value; N = 50."""
    A = _stable_dense(25, 20)
    rng = np.random.default_rng(21)
    B = rng.random((25, 2))
    Z0 = 0.3 * rng.standard_normal((25, 2))
    grid = TimeGrid(0.0, 0.5, 1e-2)
    traj = solve(A, B, SymLowRank(Z0), grid, SolverConfig(m_max=2, tol=1e-300))
    dec = traj.decomposition
    return (dec.T, dec.project_block(B), dec.project_block(Z0), grid,
            dec.widths[dec.m - 1], dec.coupling)


def _count_yields(monkeypatch, name):
    """Wrap the node generator `solvers.<name>`; the list gets one entry
    per call, the count of the nodes that call yielded."""
    counts = []
    inner = getattr(solvers, name)

    def counted(*args, **kwargs):
        counts.append(0)
        for node in inner(*args, **kwargs):
            counts[-1] += 1
            yield node

    monkeypatch.setattr(solvers, name, counted)
    return counts


@pytest.mark.parametrize("stride", [1, 7, 10, 50, 80])
def test_probe_pass_matches_full_grid_at_probe_nodes(stride, monkeypatch):
    # a walk its stop test ends at the first batch holds the full grid's
    # nodes bitwise; N = 50, so a batch of 80 nodes never ends before tf
    T, Bm, P0, grid, w, coupling = _exp_probe_case()
    monkeypatch.setattr(solvers, "_PROBE_STRIDE", stride)
    full = _run_gram_grid(T, Bm, P0, grid, 4, w, keep_full=True,
                          coupling=coupling)
    stopped = _run_gram_grid(T, Bm, P0, grid, 4, w, keep_full=True,
                             coupling=coupling, stop=lambda res: True)
    walked = stride if stride < len(grid.nodes) else len(grid.nodes)
    assert stopped.bar_rows.shape == (walked, w, T.shape[0])
    np.testing.assert_array_equal(stopped.bar_rows, full.bar_rows[:walked])
    np.testing.assert_array_equal(stopped.full, full.full[:walked])
    np.testing.assert_array_equal(stopped.residuals, full.residuals[:walked])
    np.testing.assert_array_equal(
        solvers._residuals_over_nodes(coupling, stopped.bar_rows),
        solvers._residuals_over_nodes(coupling, full.bar_rows)[:walked])
    # from the last node walked, one composed pair reaches tf
    np.testing.assert_allclose(stopped.final, full.final, rtol=1e-12,
                               atol=1e-12 * np.abs(full.final).max())


@pytest.mark.parametrize("stride", [1, 7, 10, 50, 80])
def test_batched_exp_walk_matches_the_one_step_recurrence(stride, monkeypatch):
    # the walk reaches each batch end by one propagation and the nodes in
    # between by their rows only; every node, its rows and its residual
    # match the node-to-node recurrence G -> E G E^T + delta
    T, Bm, P0, grid, w, coupling = _exp_probe_case()
    monkeypatch.setattr(solvers, "_PROBE_STRIDE", stride)
    run = _run_gram_grid(T, Bm, P0, grid, 4, w, keep_full=True,
                         coupling=coupling)
    E, delta = exact_step_pair(T, Bm, grid.h, 4)
    ref = [P0 @ P0.T]
    for _ in range(grid.n_steps):
        ref.append(sym_part(E @ ref[-1] @ E.T + delta))
    assert run.full.shape[0] == len(ref) == 51
    k = T.shape[0]
    for i, G in enumerate(ref):
        scale = frob_norm(G)
        assert frob_norm(run.full[i] - G) <= 1e-12 * scale
        assert frob_norm(run.bar_rows[i] - G[k - w:]) <= 1e-12 * scale
        assert run.residuals[i] == pytest.approx(
            residual_norm(coupling, run.full[i]), rel=1e-12)
    np.testing.assert_array_equal(run.final, run.full[-1])


@pytest.mark.parametrize("stride", [1, 7, 10])
def test_exp_walk_propagates_a_full_node_once_per_batch(stride, monkeypatch):
    # a k x k propagation ends in sym_part; the deciding walk takes one per
    # batch, at its end, and no full node in between
    T, Bm, P0, grid, w, _ = _exp_probe_case()
    monkeypatch.setattr(solvers, "_PROBE_STRIDE", stride)
    k = T.shape[0]
    pairs = solvers._stride_pairs(*exact_step_pair(T, Bm, grid.h, 4),
                                  grid.n_steps)
    propagations = []

    def counted(M):
        if M.shape == (k, k):
            propagations.append(1)
        return sym_part(M)

    monkeypatch.setattr(solvers, "sym_part", counted)
    nodes = list(solvers._gram_nodes(pairs, P0 @ P0.T, grid.n_steps, w,
                                     full=False))
    ends = [b for _, b in solvers._batches(grid.n_steps, stride)]
    assert len(nodes) == 51 and len(propagations) == len(ends)
    assert len(ends) == (50 if stride == 1 else 50 // stride + 1)
    assert [i for i, (G, *_) in enumerate(nodes) if G is not None] == [0, *ends]


@pytest.mark.parametrize("stride", [1, 7, 10])
def test_stride_pairs_match_the_stepwise_powers(stride, monkeypatch):
    # the table holds (E, delta)^j for j up to the longest batch: E^j and
    # sum over i < j of E^i delta E^i^T
    T, Bm, _, grid, _, _ = _exp_probe_case()
    monkeypatch.setattr(solvers, "_PROBE_STRIDE", stride)
    E, delta = exact_step_pair(T, Bm, grid.h, 4)
    pairs = solvers._stride_pairs(E, delta, grid.n_steps)
    assert pairs.s == stride and pairs.E.shape[0] == stride
    E_j, delta_j = E, delta
    for j in range(1, stride + 1):
        assert frob_norm(pairs.E[j - 1] - E_j) <= 1e-13 * frob_norm(E_j)
        assert (frob_norm(pairs.delta[j - 1] - delta_j)
                <= 1e-13 * frob_norm(delta_j))
        delta_j = delta_j + E_j @ delta @ E_j.T
        E_j = E_j @ E


@pytest.mark.parametrize("stride", [1, 7, 10])
def test_exp_replay_reads_each_node_from_the_table(stride, monkeypatch):
    # node b + j of the replay is E_j G_b E_j^T + delta_j from the batch
    # end b before it, bitwise
    T, Bm, P0, grid, w, coupling = _exp_probe_case()
    monkeypatch.setattr(solvers, "_PROBE_STRIDE", stride)
    pairs = solvers._stride_pairs(*exact_step_pair(T, Bm, grid.h, 4),
                                  grid.n_steps)
    run = _run_gram_grid(T, Bm, P0, grid, 4, w, keep_full=False,
                         coupling=coupling)
    nodes = list(run.replay())
    np.testing.assert_array_equal(nodes[0], P0 @ P0.T)
    for a, b in solvers._batches(grid.n_steps, stride):
        for j in range(1, b - a + 1):
            E_j, delta_j = pairs.E[j - 1], pairs.delta[j - 1]
            np.testing.assert_array_equal(
                nodes[a + j], sym_part(E_j @ nodes[a] @ E_j.T + delta_j))
    np.testing.assert_array_equal(nodes[-1], run.final)


@pytest.mark.parametrize("fail_at", [0, 1, 3, 6])
def test_exp_jump_to_tf_reads_the_table(fail_at, monkeypatch):
    # batches of 7 with N = 50: the steps left after a stopped batch are
    # whole tables of 7 and a remainder, at most 4 compositions in all
    T, Bm, P0, grid, w, coupling = _exp_probe_case()
    monkeypatch.setattr(solvers, "_PROBE_STRIDE", 7)
    full = _run_gram_grid(T, Bm, P0, grid, 4, w, keep_full=False,
                          coupling=coupling)
    pair = exact_step_pair(T, Bm, grid.h, 4)
    monkeypatch.setattr(solvers, "exact_step_pair", lambda *args: pair)
    composed = []
    compose = solvers._compose
    monkeypatch.setattr(solvers, "_compose",
                        lambda *args: composed.append(1) or compose(*args))
    asked = []
    run = _run_gram_grid(T, Bm, P0, grid, 4, w, keep_full=False,
                         coupling=coupling,
                         stop=lambda res: asked.append(1) or len(asked) > fail_at)
    assert len(run.residuals) == 7 * (fail_at + 1)
    assert len(composed) <= 4
    assert frob_norm(run.final - full.final) <= 1e-12 * frob_norm(full.final)


@pytest.mark.parametrize("fail_at", [0, 1, 3, 6, None])
def test_exp_probe_pass_stops_at_its_first_failing_probe(fail_at, monkeypatch):
    # batches of 7 with N = 50: the stop test reads nodes 0..6 at call 0,
    # ..., nodes 42..48 at call 6; nodes 49 and 50 end no batch before tf
    T, Bm, P0, grid, w, coupling = _exp_probe_case()
    monkeypatch.setattr(solvers, "_PROBE_STRIDE", 7)
    full = _run_gram_grid(T, Bm, P0, grid, 4, w, keep_full=False,
                          coupling=coupling)
    yields = _count_yields(monkeypatch, "_gram_nodes")
    asked = []

    def stop(res):
        asked.append(res.copy())
        return len(asked) - 1 == fail_at

    run = _run_gram_grid(T, Bm, P0, grid, 4, w, keep_full=False,
                         coupling=coupling, stop=stop)
    n_asked = 7 if fail_at is None else fail_at + 1
    walked = 51 if fail_at is None else 7 * n_asked
    # each call reads the residuals of its batch
    assert [len(res) for res in asked] == [7] * n_asked
    np.testing.assert_array_equal(np.concatenate(asked),
                                  full.residuals[:7 * n_asked])
    # no node past the batch that stopped the walk is stepped
    assert yields == [walked]
    np.testing.assert_array_equal(run.residuals, full.residuals[:walked])
    if fail_at is None:
        np.testing.assert_array_equal(run.final, full.final)
        np.testing.assert_array_equal(list(run.replay()), list(full.replay()))
    else:
        # the jump to tf by one composed pair equals the stepwise recurrence
        assert frob_norm(run.final - full.final) <= 1e-12 * frob_norm(full.final)


@pytest.mark.parametrize("variant,tol", [("extended", 1e-4), ("block", 15.0)])
def test_probe_first_run_equals_a_full_grid_at_every_step(variant, tol):
    op = wrap_sparse(gen_convdiff(10))
    B = gen_random_block(100, 2, seed=7)
    grid = TimeGrid(0.0, 1.0, 1e-2)
    cfg = SolverConfig(krylov_variant=variant, m_max=20, tol=tol)
    traj, _ = _assert_one_walk_per_step(op, B, None, grid, cfg)
    assert traj.converged
    kinds = [r.grid for r in traj.iterations]
    assert kinds == ["probe"] * (len(kinds) - 1) + ["full"] and len(kinds) > 3


def _convdiff_case():
    """The convdiff n = 100 problem of the probe tests: op, B and grid."""
    return (wrap_sparse(gen_convdiff(10)), gen_random_block(100, 2, seed=7),
            TimeGrid(0.0, 1.0, 1e-2))


@pytest.mark.parametrize("method,build,attr", [
    ("eba_exp", "_stride_pairs", "E"), ("eba_bdf", "_bdf_setup", "forcing")])
def test_a_walk_is_dropped_before_the_next_extend(monkeypatch, method, build,
                                                   attr):
    # each grid walk's step data (the exp `_Stride` table, the BDF
    # `_BDFSetup`) are unreachable, by reference counts alone, once the
    # walk's record is taken: none is alive when the next extend starts,
    # and the trajectory holds the last walk's only
    refs, alive = [], []
    make = getattr(solvers, build)

    def tracked(*args):
        data = make(*args)
        refs.append(weakref.ref(getattr(data, attr)))
        return data

    extend = KrylovDecomposition.extend

    def checked(self, op):
        alive.append([ref() is not None for ref in refs])
        return extend(self, op)

    monkeypatch.setattr(solvers, build, tracked)
    monkeypatch.setattr(KrylovDecomposition, "extend", checked)
    op, B, grid = _convdiff_case()
    traj = solve(op, B, None, grid, SolverConfig(method=method, m_max=20,
                                                 tol=1e-4))
    assert traj.converged and len(traj.iterations) > 3
    assert alive == [[False] * m for m in range(len(traj.iterations))]
    assert [ref() is not None for ref in refs] == (
        [False] * (len(refs) - 1) + [True])


@pytest.mark.parametrize("method", ["eba_exp", "eba_bdf"])
def test_a_batch_whose_largest_residual_is_tol_stops_the_walk(method):
    # the stop test reads "at or above tol": a first batch whose largest
    # residual equals tol stops the first step's walk after its 10 nodes
    op, B, grid = _convdiff_case()
    first = solve(op, B, None, grid, SolverConfig(method=method, m_max=20,
                                                  tol=1e300))
    assert first.converged and len(first.iterations) == 1
    tol = float(np.max(first.residuals[:10]))
    assert tol > 0
    rec = solve(op, B, None, grid, SolverConfig(method=method, m_max=20,
                                                tol=tol)).iterations[0]
    assert rec.grid == "probe" and rec.probe_nodes == 10
    assert rec.residual_max == tol


@pytest.mark.parametrize("method", ["eba_exp", "eba_bdf"])
def test_a_last_step_whose_largest_residual_is_tol_has_not_converged(method):
    # convergence needs every residual below tol: with m_max at the step a
    # first solve converged at and tol its largest residual, that step's
    # walk reaches tf but does not converge
    op, B, grid = _convdiff_case()
    first = solve(op, B, None, grid, SolverConfig(method=method, m_max=20,
                                                  tol=1e-4))
    assert first.converged
    m, tol = first.iterations[-1].m, first.iterations[-1].residual_max
    traj = solve(op, B, None, grid, SolverConfig(method=method, m_max=m,
                                                 tol=tol))
    rec = traj.iterations[-1]
    assert rec.m == m and rec.grid == "full" and rec.residual_max == tol
    assert not traj.converged


def test_probes_below_tol_do_not_declare_convergence(monkeypatch):
    # at m = 6 the residual first reaches tol at node 90 and peaks at node
    # 93, between the nodes 75 and 100 of batches of 25: a test that read
    # only the first batch and every 25th node would pass there
    monkeypatch.setattr(solvers, "_PROBE_STRIDE", 25)
    A = _stable_dense(30, 40)
    B = np.random.default_rng(41).random((30, 2))
    grid = TimeGrid(0.0, 1.0, 1e-2)
    traj = solve(A, B, None, grid, SolverConfig(m_max=6, tol=1e-300))
    assert traj.iterations[-1].grid == "full"
    res = traj.residuals
    sparse = np.r_[np.arange(26), 50, 75, 100]
    tol = np.sqrt(np.max(res[sparse]) * np.max(res))
    assert np.max(res[sparse]) < tol <= np.max(res)
    assert 75 < int(np.argmax(res >= tol)) < 100
    traj, _ = _assert_one_walk_per_step(A, B, None, grid,
                                        SolverConfig(m_max=10, tol=tol))
    at6 = next(r for r in traj.iterations if r.m == 6)
    assert at6.grid == "probe"          # the walk read the nodes in between
    assert at6.probe_nodes == 100 and at6.residual_max >= tol
    assert traj.iterations[-1].m > 6


def _smooth_case():
    # a full-rank P0 keeps every node well inside the PSD cone: no clips
    rng = np.random.default_rng(60)
    return (_stable_dense(9, 61), rng.standard_normal((9, 2)),
            rng.standard_normal((9, 12)), TimeGrid(0.0, 1.0, 0.02))


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("stride", [1, 4, 10])
@pytest.mark.parametrize("case", ["smooth", "clipping"])
def test_bdf_probe_head_equals_the_full_grid_bitwise(case, stride, order,
                                                     monkeypatch):
    # a BDF walk its stop test ends at the first batch holds the screened
    # full grid's nodes bitwise and screens no node after that batch, also
    # when it stops inside the start-up steps
    T, Bm, P0, grid = _smooth_case() if case == "smooth" else _stiff_clipping_case()
    w = Bm.shape[1]
    monkeypatch.setattr(solvers, "_PROBE_STRIDE", stride)
    clips = _record_floor(monkeypatch)
    full = _run_bdf_grid(T, Bm, P0, grid, order, w, keep_full=True)
    full_clips = clips[:]
    clips.clear()
    stopped = _run_bdf_grid(T, Bm, P0, grid, order, w, keep_full=True,
                            stop=lambda res: True)
    assert (stopped.bdf_basis, stopped.bdf_cond) == (full.bdf_basis, full.bdf_cond)
    # nodes 1..stride-1 are screened, as the full grid screens them
    assert clips == full_clips[:stride - 1]
    assert stopped.psd_clips == sum(full_clips[:stride - 1])
    clipping = case == "clipping" and order > 1    # BDF1 keeps Y PSD
    assert any(full_clips) == clipping
    if clipping and stride > 2:
        assert any(clips)
    np.testing.assert_array_equal(stopped.bar_rows, full.bar_rows[:stride])
    if case == "smooth":
        # the jump to tf is the exact propagation from node stride - 1
        final = _exact_tail(T, Bm, P0, grid, order, w, stride - 1)[0]
        np.testing.assert_allclose(stopped.final, final, rtol=1e-12)
    setup = solvers._bdf_setup(T, Bm, P0, grid, order)
    nodes = (Y for Y, *_ in solvers._bdf_steps(setup, w))
    np.testing.assert_array_equal(list(itertools.islice(nodes, stride)),
                                  full.full[:stride])


def _real_spectrum_case():
    # a symmetric T: real eigenvalues and eigenvectors
    rng = np.random.default_rng(63)
    S = rng.standard_normal((9, 9))
    return (-(S @ S.T) / 9.0 - np.eye(9), rng.standard_normal((9, 2)),
            rng.standard_normal((9, 12)))


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("stride", [1, 4, 10])
@pytest.mark.parametrize("spectrum", ["real", "complex"])
def test_bdf_composed_tail_matches_the_stepwise_tail(spectrum, stride, order,
                                                     monkeypatch):
    # a walk stopped after its first batch reaches tf by the exact step
    # over the remaining span, in the Schur and in the eigen basis, also
    # from inside the start-up steps (stride 1 with order 2 or 3), at the
    # start-up step test's tolerance; the eigen basis goes last, so the
    # stop test below runs in it
    if spectrum == "real":
        T, Bm, P0 = _real_spectrum_case()
    else:
        T, Bm, P0, _ = _smooth_case()
    grid = TimeGrid(0.0, 0.94, 0.02)
    w = Bm.shape[1]
    monkeypatch.setattr(solvers, "_PROBE_STRIDE", stride)
    for kind, cond_max in (("schur", 0.0), ("eigen", solvers._EIGEN_COND_MAX)):
        monkeypatch.setattr(solvers, "_EIGEN_COND_MAX", cond_max)
        final, basis = _exact_tail(T, Bm, P0, grid, order, w, stride - 1)
        assert basis.kind == kind
        if kind == "eigen":
            assert np.iscomplexobj(basis.lam) == (spectrum == "complex")
        plain = _run_bdf_grid(T, Bm, P0, grid, order, w, keep_full=True)
        stopped = _run_bdf_grid(T, Bm, P0, grid, order, w, keep_full=True,
                                stop=lambda res: True)
        np.testing.assert_array_equal(stopped.bar_rows, plain.bar_rows[:stride])
        tol = 100 * basis.cond ** 2 * np.finfo(float).eps
        assert frob_norm(stopped.final - final) <= tol * frob_norm(final)
    # a stop test that reads every batch and never fires changes nothing
    asked = []
    checked = _run_bdf_grid(T, Bm, P0, grid, order, w, keep_full=True,
                            stop=lambda res: asked.append(len(res)) or False)
    # 48 nodes: each batch that ends before node 47 is read once
    assert asked == [stride] * (47 // stride)
    np.testing.assert_array_equal(checked.bar_rows, plain.bar_rows)
    np.testing.assert_array_equal(checked.final, plain.final)
    assert checked.clipped == plain.clipped
    np.testing.assert_array_equal(list(checked.replay()), list(plain.replay()))


def test_bdf_jump_temporaries_stay_below_the_whole_matrix_maps(monkeypatch):
    # one stopped walk's jump to tf at k = 72: the composed per-entry BDF
    # maps over the whole matrix took about 28 k^2 complex words; the exact
    # step over the remaining span takes about 14
    import tracemalloc

    op = wrap_sparse(gen_convdiff(20))
    cfg = SolverConfig(method="eba_bdf", bdf_order=2, m_max=18, tol=1e-300)
    *_, step = solvers.krylov_steps(op, gen_random_block(400, 2, seed=7),
                                    np.zeros((400, 0)), cfg)
    dec = step.decomposition
    k = dec.inner_width
    assert k == 72
    peaks = []
    collect = solvers._collect

    def traced_collect(*args, **fields):
        # positional (steps, n_nodes, k, w, keep_full, coupling, stop, jump)
        jump = args[7]

        def traced(node, s):
            tracemalloc.start()
            try:
                out = jump(node, s)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            return out

        return collect(*args[:7], traced, **fields)

    monkeypatch.setattr(solvers, "_collect", traced_collect)
    run = _run_bdf_grid(dec.T, step.Bm, step.P0, TimeGrid(0.0, 2.0, 1e-3), 2,
                        dec.widths[dec.m - 1], keep_full=False, coupling=dec.coupling,
                        stop=lambda res: True)
    assert run.bdf_basis == "eigen" and len(run.residuals) == solvers._PROBE_STRIDE
    assert len(peaks) == 1 and peaks[0] < 20 * 16 * k * k


def test_bdf_rank_walk_lifts_no_rows(monkeypatch):
    # the rank pass walks the grid at bar width 0 and reads no rows, so
    # each row lift it takes lifts none; its basis values are the grid's
    # nodes
    T, Bm, P0, grid = _smooth_case()
    run = _run_bdf_grid(T, Bm, P0, grid, 2, Bm.shape[1], keep_full=True)
    widths = []
    lift_rows = solvers._StepBasis.lift_rows
    monkeypatch.setattr(solvers._StepBasis, "lift_rows",
                        lambda self, Yr, w: widths.append(w) or lift_rows(self, Yr, w))
    coords = []
    monkeypatch.setattr(solvers, "_count_each",
                        lambda walk, out, tau: coords.extend(walk))
    run.count(np.empty(grid.n_steps + 1, dtype=int), solvers._RANK_THRESHOLD)
    assert set(widths) <= {0} and len(coords) == grid.n_steps + 1
    basis = solvers._bdf_setup(T, Bm, P0, grid, 2).basis
    for (Y, gram_inv), G in zip(coords, run.full):
        if gram_inv is not None:
            Y = basis.lift(Y)
        np.testing.assert_allclose(Y, G, rtol=1e-13, atol=1e-13 * frob_norm(G))


def test_lift_rows_of_width_zero_make_no_product():
    T, Bm, P0, grid = _smooth_case()
    basis = solvers._bdf_setup(T, Bm, P0, grid, 2).basis
    k = T.shape[0]
    Yr = basis.project(P0 @ P0.T)
    rows = basis.lift_rows(Yr, 0)
    assert rows.shape == (0, k)
    np.testing.assert_array_equal(basis.lift(Yr, rows), basis.lift(Yr))
    basis.M = None                     # a product by M would raise
    assert basis.lift_rows(Yr, 0).shape == (0, k)


@pytest.mark.parametrize("order", [1, 2, 3])
def test_bdf_probe_pass_steps_only_its_head(order, monkeypatch):
    # a walk stopped after its first batch, nodes 0..9, takes the BDF
    # steps of nodes order..9 only
    T, Bm, P0, grid = _smooth_case()
    setup = solvers._bdf_setup(T, Bm, P0, grid, order)
    monkeypatch.setattr(solvers, "_bdf_setup", lambda *args: setup)
    calls = []
    solve_step = setup.basis.solve
    setup.basis.solve = lambda R: calls.append(1) or solve_step(R)
    yields = _count_yields(monkeypatch, "_bdf_steps")
    stride = solvers._PROBE_STRIDE
    run = _run_bdf_grid(T, Bm, P0, grid, order, 2, keep_full=False,
                        stop=lambda res: True)
    assert len(run.residuals) == stride and yields == [stride]
    assert len(calls) == stride - order
    calls.clear()
    _run_bdf_grid(T, Bm, P0, grid, order, 2, keep_full=False)
    assert len(calls) == grid.n_steps - (order - 1)
    assert yields == [stride, grid.n_steps + 1]


@pytest.mark.parametrize("order", [1, 2, 3])
def test_bdf_jump_reuses_the_setup_projection(order, monkeypatch):
    # Bm Bm^T is projected once per grid, by `_bdf_setup`, and the history
    # starts from one projection of Y0: a stopped walk's jump to tf
    # projects nothing more, so it takes as many projections as a full walk
    T, Bm, P0, grid = _smooth_case()
    calls = []
    project = solvers._StepBasis.project
    monkeypatch.setattr(solvers._StepBasis, "project",
                        lambda self, Y: calls.append(1) or project(self, Y))
    full = _run_bdf_grid(T, Bm, P0, grid, order, 2, keep_full=False)
    assert len(calls) == 2 and full.psd_clips == 0
    calls.clear()
    _run_bdf_grid(T, Bm, P0, grid, order, 2, keep_full=False,
                  stop=lambda res: True)
    assert len(calls) == 2


def test_grid_runs_count_their_psd_clips(monkeypatch):
    T, Bm, P0, grid = _stiff_clipping_case()
    clips = _record_floor(monkeypatch)
    run = _run_bdf_grid(T, Bm, P0, grid, 2, 1, keep_full=False)
    assert run.psd_clips == sum(clips) == grid.n_steps - 1
    clips.clear()
    # a walk stopped after nodes 0..9 counts the clips of nodes 2..9
    stopped = _run_bdf_grid(T, Bm, P0, grid, 2, 1, keep_full=False,
                            stop=lambda res: True)
    assert stopped.psd_clips == sum(clips) == 8
    assert stopped.clipped == tuple(range(2, 10))
    assert _run_gram_grid(T, Bm, P0, grid, 4, 1, keep_full=False).psd_clips == 0


@pytest.mark.parametrize("order", [1, 2, 3])
def test_bdf_probe_rows_match_a_full_run_at_the_same_m(order):
    op = wrap_sparse(gen_convdiff(10))
    B = gen_random_block(100, 2, seed=7)
    grid = TimeGrid(0.0, 1.0, 1e-2)
    cfg = SolverConfig(method="eba_bdf", bdf_order=order, m_max=20, tol=1e-4)
    traj, _ = _assert_one_walk_per_step(op, B, None, grid, cfg)
    assert traj.converged
    kinds = [r.grid for r in traj.iterations]
    assert kinds == ["probe"] * (len(kinds) - 1) + ["full"] and len(kinds) > 3
    assert {r.bdf_basis for r in traj.iterations} == {"eigen"}


def _bdf_dense_case():
    A = _stable_dense(30, 40)
    B = np.random.default_rng(41).random((30, 2))
    return A, B, TimeGrid(0.0, 1.0, 1e-2)


def _step_data(A, B, grid, m):
    """T, Bm, P0, w and coupling of Krylov step m."""
    dec = solve(A, B, None, grid, SolverConfig(method="eba_bdf", m_max=m,
                                               tol=1e-300)).decomposition
    T = dec.T
    return (T, dec.project_block(B), np.zeros((T.shape[0], 0)), dec.widths[-1],
            dec.coupling)


def test_bdf_clip_in_the_head_keeps_head_and_decision(monkeypatch):
    # at m = 3 node 5's screen is forced to "clip" (scale up); the first
    # batch must carry the clipped value, and the stop must hinge on it
    A, B, grid = _bdf_dense_case()
    m, node, stride = 3, 5, solvers._PROBE_STRIDE
    T, Bm, P0, w, coupling = _step_data(A, B, grid, m)
    inputs = []
    screen, clip = solvers._psd_screen, solvers._psd_clip
    monkeypatch.setattr(solvers, "_psd_screen",
                        lambda Y, *a: inputs.append(Y.copy()) or screen(Y, *a))
    plain = _run_bdf_grid(T, Bm, P0, grid, 2, w, keep_full=True,
                          coupling=coupling)
    target = inputs[node - 1]            # node 1 is the first screen
    clips, pending = [], []

    def forced_screen(Y, *args):
        if Y.shape == target.shape and np.array_equal(Y, target):
            clips.append(Y)
            pending.append(True)
            return False
        return screen(Y, *args)

    def forced_clip(Y):
        # the forced node scales up; any other clip stays a clip
        return 10.0 * Y if pending and pending.pop() else clip(Y)

    monkeypatch.setattr(solvers, "_psd_screen", forced_screen)
    monkeypatch.setattr(solvers, "_psd_clip", forced_clip)
    full = _run_bdf_grid(T, Bm, P0, grid, 2, w, keep_full=True)
    stopped = _run_bdf_grid(T, Bm, P0, grid, 2, w, keep_full=True,
                            coupling=coupling, stop=lambda res: True)
    assert len(clips) == 2
    head = slice(0, stride)
    np.testing.assert_array_equal(stopped.bar_rows, full.bar_rows[head])
    assert not np.array_equal(full.bar_rows[node], plain.bar_rows[node])
    res_plain = plain.residuals[head]
    res_clip = stopped.residuals
    np.testing.assert_array_equal(
        res_clip, solvers._residuals_over_nodes(coupling, stopped.bar_rows))
    assert res_clip.max() > 1.5 * res_plain.max()
    tol = np.sqrt(res_plain.max() * res_clip.max())

    cfg = SolverConfig(method="eba_bdf", m_max=10, tol=tol)
    traj, _ = _assert_one_walk_per_step(A, B, None, grid, cfg)
    at_m = next(r for r in traj.iterations if r.m == m)
    assert at_m.grid == "probe"           # only the clipped node reaches tol
    assert at_m.probe_nodes == stride and at_m.psd_clips == 1


def test_bdf_head_below_tol_defers_to_the_full_grid():
    # at m = 4 the residual stays small over the first batch and peaks
    # later: the walk goes on to the batch that first reaches tol
    A, B, grid = _bdf_dense_case()
    stride = solvers._PROBE_STRIDE
    rec = solve(A, B, None, grid, SolverConfig(method="eba_bdf", m_max=4,
                                               tol=1e-300))
    head_max = rec.residuals[:stride].max()
    assert rec.iterations[-1].grid == "full"
    assert head_max < 0.1 * rec.residuals.max()
    tol = np.sqrt(head_max * rec.residuals.max())
    traj, _ = _assert_one_walk_per_step(
        A, B, None, grid, SolverConfig(method="eba_bdf", m_max=10, tol=tol))
    at4 = next(r for r in traj.iterations if r.m == 4)
    assert at4.grid == "probe" and at4.probe_nodes > stride
    assert at4.residual_max >= tol
    assert traj.iterations[-1].m > 4


@pytest.mark.parametrize("why", ["schur", "short-grid"])
def test_bdf_rows_are_full_without_an_eigen_probe(why, monkeypatch):
    # a grid of at most `_PROBE_STRIDE` nodes has no batch that ends
    # before tf, so no walk stops, in either step basis
    op = wrap_sparse(gen_convdiff(10))
    B = gen_random_block(100, 2, seed=7)
    grid = TimeGrid(0.0, 0.09, 1e-2)
    assert len(grid.nodes) == solvers._PROBE_STRIDE
    if why == "schur":
        monkeypatch.setattr(solvers, "_EIGEN_COND_MAX", 0.0)
    traj, _ = _assert_one_walk_per_step(
        op, B, None, grid, SolverConfig(method="eba_bdf", m_max=20, tol=1e-7))
    assert traj.converged and len(traj.iterations) > 3
    assert [r.grid for r in traj.iterations] == ["full"] * len(traj.iterations)
    assert {r.bdf_basis for r in traj.iterations} == {
        "schur" if why == "schur" else "eigen"}


def _stiff_clipping_solve():
    """op, B, X0 and grid of a solve whose projected BDF2 grids clip: the
    stiff clipping case's T as the operator, its Bm and one column of P0,
    on the block variant (three steps, the last a full breakdown)."""
    T, Bm, P0, grid = _stiff_clipping_case()
    return T, Bm, SymLowRank(P0[:, :1]), grid


@pytest.mark.parametrize("case", [
    "bdf-schur", "stiff-clipping", "exp-initial-value", "bdf-m-max",
    "exp-one-batch", "bdf-one-batch", "exp-short-grid"])
def test_one_walk_per_step_equals_a_full_grid_at_every_step(case, monkeypatch):
    op = wrap_sparse(gen_convdiff(10))
    B = gen_random_block(100, 2, seed=7)
    X0, grid, variant = None, TimeGrid(0.0, 1.0, 1e-2), "extended"
    method = "eba_exp" if case.startswith("exp") else "eba_bdf"
    m_max, tol = 20, 1e-4
    if case == "bdf-schur":
        monkeypatch.setattr(solvers, "_EIGEN_COND_MAX", 0.0)
    elif case == "stiff-clipping":
        op, B, X0, grid = _stiff_clipping_solve()
        variant, tol = "block", 1.0
    elif case == "exp-initial-value":
        op = _stable_dense(25, 20)
        rng = np.random.default_rng(21)
        B, X0 = rng.random((25, 2)), SymLowRank(0.3 * rng.standard_normal((25, 2)))
        grid, m_max, tol = TimeGrid(0.0, 0.5, 1e-2), 3, 1e-300
    elif case == "bdf-m-max":
        m_max, tol = 4, 1e-300
    elif case.endswith("one-batch"):
        # N = stride: one batch, nodes 0..N-1, ends before tf
        grid, tol = TimeGrid(0.0, 0.1, 1e-2), 1e-7
    else:
        grid, tol = TimeGrid(0.0, 0.05, 1e-2), 1e-7
    cfg = SolverConfig(method=method, krylov_variant=variant, m_max=m_max,
                       tol=tol)
    traj, _ = _assert_one_walk_per_step(op, B, X0, grid, cfg)
    kinds = [r.grid for r in traj.iterations]
    if case == "exp-short-grid":
        assert kinds == ["full"] * len(kinds)
    else:
        assert kinds == ["probe"] * (len(kinds) - 1) + ["full"]
    # the last step at m_max, unconverged, still walks every node
    assert traj.converged == (tol > 1e-300)
    if case == "bdf-schur":
        assert {r.bdf_basis for r in traj.iterations} == {"schur"}
    if case == "stiff-clipping":
        assert [r.psd_clips > 0 for r in traj.iterations] == [True] * 3


@pytest.mark.parametrize("method,generator,case", [
    pytest.param("eba_exp", "_gram_nodes", "default", id="eba_exp-_gram_nodes"),
    pytest.param("eba_bdf", "_bdf_steps", "default", id="eba_bdf-_bdf_steps"),
    pytest.param("eba_bdf", "_bdf_steps", "schur", id="eba_bdf-_bdf_steps-schur"),
    pytest.param("eba_bdf", "_bdf_steps", "convection",
                 id="eba_bdf-_bdf_steps-convection")])
def test_each_krylov_step_walks_its_grid_once(method, generator, case,
                                              monkeypatch):
    # "schur" forces the Schur step basis; "convection" is a
    # convection-dominated problem whose later Krylov steps reach it on
    # their own (cond(V) above 1e3 from m = 19) and that does not converge
    op = wrap_sparse(gen_convdiff(10))
    B = gen_random_block(100, 2, seed=7)
    m_max, tol = 20, 1e-4
    if case == "schur":
        monkeypatch.setattr(solvers, "_EIGEN_COND_MAX", 0.0)
    elif case == "convection":
        c = 300.0
        op = wrap_sparse(gen_convdiff(20, f1=lambda x, y: c * x * y,
                                      f2=lambda x, y: c * np.exp(x**2 * y)))
        B = gen_random_block(400, 2, seed=7)
        m_max = 24
    grid = TimeGrid(0.0, 1.0, 1e-2)
    walks = []
    run_grid = "_run_gram_grid" if method == "eba_exp" else "_run_bdf_grid"
    inner = getattr(solvers, run_grid)
    monkeypatch.setattr(solvers, run_grid,
                        lambda *a, **kw: walks.append(1) or inner(*a, **kw))
    yields = _count_yields(monkeypatch, generator)
    traj = solve(op, B, None, grid, SolverConfig(method=method, m_max=m_max,
                                                 tol=tol))
    assert traj.converged == (case != "convection")
    assert len(traj.iterations) > 3
    if case != "default":
        assert "schur" in {r.bdf_basis for r in traj.iterations[:-1]}
    assert len(walks) == len(yields) == len(traj.iterations)
    # a stopped walk steps no node past its stopping batch
    assert yields == [r.probe_nodes or len(grid.nodes) for r in traj.iterations]


@pytest.mark.parametrize("method,setup_fn", [("eba_exp", "exact_step_pair"),
                                            ("eba_bdf", "_bdf_basis")])
def test_step_data_is_built_once_per_krylov_step(method, setup_fn, monkeypatch):
    # each Krylov step of a solve walks its grid once, and that walk
    # builds the step's data once
    op = wrap_sparse(gen_convdiff(10))
    B = gen_random_block(100, 2, seed=7)
    calls = []
    inner = getattr(solvers, setup_fn)
    monkeypatch.setattr(solvers, setup_fn,
                        lambda *a: calls.append(1) or inner(*a))
    traj = solve(op, B, None, TimeGrid(0.0, 1.0, 1e-2),
                 SolverConfig(method=method, m_max=20, tol=1e-4))
    kinds = [r.grid for r in traj.iterations]
    assert traj.converged and kinds[-2:] == ["probe", "full"]
    assert len(calls) == len(kinds)


@pytest.mark.parametrize("basis", ["eigen", "schur"])
def test_eigen_route_bdf_decomposes_T_once_per_krylov_step(basis, monkeypatch):
    # on the eigen route one eig serves the BDF solve, the start-up step
    # and a stopped walk's exact step to tf; the Schur fallback takes both
    # exact steps from exact_step_pair, at the exp route's quadrature order
    if basis == "schur":
        monkeypatch.setattr(solvers, "_EIGEN_COND_MAX", 0.0)
    monkeypatch.setattr(solvers, "_QUADRATURE_ORDER", 6)
    op = wrap_sparse(gen_convdiff(10))
    B = gen_random_block(100, 2, seed=7)
    calls, orders = {}, []
    for owner, name in ((np.linalg, "eig"), (solvers, "expm"),
                        (solvers, "LyapunovSolver"), (solvers, "exact_step_pair")):
        _count_calls(monkeypatch, owner, name, calls)
    step_pair = solvers.exact_step_pair
    monkeypatch.setattr(solvers, "exact_step_pair",
                        lambda T, B, h, q: orders.append(q) or step_pair(T, B, h, q))
    traj = solve(op, B, None, TimeGrid(0.0, 1.0, 1e-2),
                 SolverConfig(method="eba_bdf", m_max=20, tol=1e-4))
    steps = len(traj.iterations)
    assert traj.converged and steps > 3
    assert {r.bdf_basis for r in traj.iterations} == {basis}
    if basis == "eigen":
        assert calls == {"eig": steps}
    else:
        probes = sum(r.grid == "probe" for r in traj.iterations)
        assert probes == steps - 1
        assert calls["eig"] == steps
        assert calls["exact_step_pair"] == steps + probes
        assert orders == [6] * (steps + probes)


# -- the Krylov-step walk ------------------------------------------------------


@pytest.mark.parametrize("method", ["eba_exp", "eba_bdf"])
def test_krylov_steps_keep_their_arrays_after_the_walk(method):
    op = wrap_sparse(gen_convdiff(6))
    B = gen_random_block(36, 2, seed=3)
    grid = TimeGrid(0.0, 0.5, 1e-2)
    cfg = SolverConfig(method=method, m_max=5)
    steps = list(solvers.krylov_steps(op, B, np.zeros((36, 0)), cfg))
    assert [step.decomposition.m for step in steps] == [1, 2, 3, 4, 5]
    # read after the walk has finished: each step still holds its own m
    for step in steps:
        held = step.decomposition
        dec = solve(op, B, None, grid, SolverConfig(method=method, m_max=held.m,
                                                    tol=1e-300)).decomposition
        assert held.inner_width == dec.inner_width and not step.broke
        np.testing.assert_array_equal(held.T, dec.T)
        np.testing.assert_array_equal(held.inner_basis, dec.inner_basis)
        np.testing.assert_array_equal(held.coupling, dec.coupling)
        assert held.widths == dec.widths


def test_trajectory_method_is_the_config_method():
    A = _stable_dense(12, 24)
    B = np.random.default_rng(25).random((12, 1))
    grid = TimeGrid(0.0, 0.2, 1e-2)
    for given_method in ("eba_exp", "eba_bdf"):
        cfg = SolverConfig(method=given_method, m_max=2)
        for entry, method in ((solve_eba_exp, "eba_exp"),
                              (solve_eba_bdf, "eba_bdf"),
                              (solve, given_method)):
            for rhs in (B, np.zeros_like(B)):
                traj = entry(A, rhs, None, grid, cfg)
                assert traj.method == traj.config.method == method
                # the route that ran is the one named: only BDF has a basis
                if rhs is B:
                    assert ((traj.iterations[-1].bdf_basis is None)
                            == (method == "eba_exp"))
        assert cfg.method == given_method
    assert solve_eba_bdf(A, B, None, grid).method == "eba_bdf"
    assert solve_eba_exp(A, B, None, grid).config.method == "eba_exp"
