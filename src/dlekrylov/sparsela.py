"""Sparse storage, factorized solves and the linear-operator abstraction
consumed by the Krylov processes.

Sparse matrices are plain scipy CSR. An operator built here factors on its
first inverse action, once, and reuses that LU factor; its forward action
never factors. SuperLU orders a sparse factor's columns by
minimum degree on A^T + A (Amestoy, Davis & Duff, SIAM J. Matrix Anal.
Appl. 17, 1996; Li, ACM TOMS 31, 2005), which suits the structurally
symmetric matrices the problem generators produce: on convdiff n = 6400
nnz(L + U) is 220,924 where SuperLU's default COLAMD ordering gives 370,282.
"""

import functools

import numpy as np
from scipy.sparse import csr_matrix, issparse
from scipy.sparse.linalg import splu

from .dense import as_block


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


class LinearOperator:
    """Square operator exposing block actions A @ V and optionally A^{-1} @ V.

    `forward` and the optional `inverse` callables take and return (n, k)
    arrays. The block Krylov process needs the forward action alone, and
    the extended variant also needs the inverse; every helper here
    provides both, and an operator without an inverse is
    `LinearOperator(n, forward)`.
    """

    def __init__(self, dim, forward, inverse=None):
        self.dim = dim
        self._forward = forward
        self._inverse = inverse

    def _check(self, V):
        V = as_block(V)
        if V.shape[0] != self.dim:
            raise ValueError(f"block has {V.shape[0]} rows, operator dimension is {self.dim}")
        return V

    def apply(self, V):
        return self._forward(self._check(V))

    def apply_inverse(self, V):
        if self._inverse is None:
            raise CapabilityError("operator has no inverse action")
        return self._inverse(self._check(V))


def wrap_sparse(A):
    """Operator view of a square sparse matrix with forward and inverse
    actions, its LU factor built as the module docstring says."""
    A = as_csr(A)
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"matrix must be square, got {A.shape}")
    factor = functools.cache(lambda: Factorization(A))
    return LinearOperator(
        A.shape[0],
        forward=lambda V: np.asarray(A @ V),
        inverse=lambda V: factor().solve(V),
    )


def wrap_dense(A):
    """Operator view of a square dense matrix, as `wrap_sparse`."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"matrix must be square, got {A.shape}")
    import scipy.linalg as sla

    factor = functools.cache(lambda: sla.lu_factor(A))
    return LinearOperator(
        A.shape[0],
        forward=lambda V: A @ V,
        inverse=lambda V: sla.lu_solve(factor(), V),
    )


def operator_from_pair(shifted_factor, M):
    """Operator for A = S^{-1} M given S already factored.

    Forward action is V -> solve(S, M V); the inverse action
    V -> M^{-1} (S V) factors M as the module docstring says.
    """
    M = as_csr(M)
    n = M.shape[0]
    if shifted_factor.shape != (n, n):
        raise ValueError(
            f"dimension mismatch: factor {shifted_factor.shape}, M {M.shape}"
        )
    S = shifted_factor.matrix
    factor = functools.cache(lambda: Factorization(M))
    return LinearOperator(
        n,
        forward=lambda V: shifted_factor.solve(np.asarray(M @ V)),
        inverse=lambda V: factor().solve(np.asarray(S @ V)),
    )
