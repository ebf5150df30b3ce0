"""Dense double-precision kernels used on projected (small) matrices.

Everything here operates on plain ndarrays. The heavy lifting is delegated
to LAPACK through numpy/scipy; the functions add the contracts the rest of
the library relies on (rank reporting, symmetry repair, residual checks).
"""

import numpy as np
import scipy.linalg as sla
from scipy.linalg import lapack


class SolvabilityError(np.linalg.LinAlgError):
    """The Sylvester operator of a Lyapunov solve is (near-)singular."""


def _as_matrix(M):
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise ValueError(f"expected a 2-D array, got shape {M.shape}")
    return M


def _require_square(M, name="matrix"):
    M = _as_matrix(M)
    if M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} must be square, got shape {M.shape}")
    return M


def as_block(B):
    """B as a float array, a 1-D block as one column."""
    B = np.asarray(B, dtype=float)
    return B[:, None] if B.ndim == 1 else B


def frob_norm(M):
    return float(np.linalg.norm(np.asarray(M), "fro"))


def spec_norm_2(M):
    M = _as_matrix(M)
    if M.size == 0:
        return 0.0
    return float(np.linalg.norm(M, 2))


def qr_thin(block, rank_tol=1e-12):
    """Economy QR of a tall block with rank reporting.

    Returns (Q, R, rank) with Q @ R == block and Q orthonormal. The rank
    counts diagonal entries of R exceeding rank_tol * ||block||_F, so a
    zero block reports rank 0 rather than failing.
    """
    block = _as_matrix(block)
    rows, cols = block.shape
    if rows < cols:
        raise ValueError(f"block must be tall, got shape {block.shape}")
    if cols == 0:
        return block.copy(), np.zeros((0, 0)), 0
    Q, R = sla.qr(block, mode="economic")
    thresh = rank_tol * frob_norm(block)
    rank = int(np.sum(np.abs(np.diag(R)) > thresh))
    return Q, R, rank


def expm(M):
    """Matrix exponential (scaling and squaring with diagonal Pade)."""
    M = _require_square(M)
    if M.size == 0:
        return M.copy()
    return sla.expm(M)


def sym_part(M):
    return 0.5 * (M + M.T)


def check_lyapunov_solvable(ev):
    """Raise SolvabilityError when two eigenvalues of F sum to zero.

    lambda_i + lambda_j == 0 for some pair means F X + X F^T + Q = 0 has
    no unique solution.
    """
    if ev.size:
        pair_sums = np.abs(ev[:, None] + ev[None, :])
        scale = max(np.max(np.abs(ev)), 1.0)
        if np.min(pair_sums) <= 1e-14 * scale:
            raise SolvabilityError(
                "Lyapunov operator is singular: eigenvalue pair sums to zero"
            )


class LyapunovSolver:
    """Bartels-Stewart solver for F X + X F^T + Q = 0 with F fixed.

    The real Schur form F = U S U^T is computed once; repeated solves
    against different right-hand sides reuse it (one trsyl call each).
    `solve` works in the original coordinates, with two congruences by U
    per call. `solve_schur` skips them for a caller that keeps its
    right-hand sides in Schur coordinates: the BDF grid does so when the
    eigenvectors of F are too ill-conditioned for its eigenbasis step.
    `eigvals` holds the eigenvalues of F, read off S.
    """

    def __init__(self, F):
        F = _require_square(F, "F")
        self.F = F
        self.n = F.shape[0]
        self.S, self.U = sla.schur(F, output="real")
        self.eigvals = np.linalg.eigvals(self.S) if self.n else np.array([])
        check_lyapunov_solvable(self.eigvals)

    def solve(self, Q):
        """Solve F X + X F^T + Q = 0 for symmetric Q; X is symmetrized."""
        Q = _require_square(Q, "Q")
        if Q.shape[0] != self.n:
            raise ValueError(f"Q has dimension {Q.shape[0]}, expected {self.n}")
        if self.n == 0:
            return Q.copy()
        X = self.U @ self.solve_schur(self.U.T @ Q @ self.U) @ self.U.T
        return sym_part(X)

    def solve_schur(self, C):
        """Solve S Y + Y S^T + C = 0 in Schur coordinates (one trsyl call)."""
        Y, scale, info = lapack.dtrsyl(self.S, self.S, -C, tranb="T")
        if info < 0 or scale == 0.0:
            raise SolvabilityError(f"trsyl failed with info={info}, scale={scale}")
        if info == 1:
            raise SolvabilityError(
                "trsyl solved a perturbed system: near-singular Lyapunov operator"
            )
        return Y / scale


def lyap_direct(F, Q):
    """One-shot solve of F X + X F^T + Q = 0 (Schur reduction + back-solve)."""
    return LyapunovSolver(F).solve(Q)


def log_norm_mu2(A):
    """2-logarithmic norm of the dense square array A: the largest
    eigenvalue of (A + A^T)/2."""
    A = _require_square(A)
    return 0.5 * float(np.linalg.eigvalsh(A + A.T)[-1])
