"""Block and extended block Arnoldi processes.

Both variants produce an orthonormal block basis, the projection of the
operator onto it, and the coupling block that drives the cheap residual
formula of the solvers. They share one step: the block variant is the
extended variant with no inverse part. Each candidate block is
orthogonalized by block classical Gram-Schmidt run twice (Giraud, Langou,
Rozloznik & van den Eshof, Numer. Math. 101, 2005), and the projected
matrix is the explicit projection V^T (A V_inner), grown by its new row
and column blocks each step (Simoncini, SIAM J. Sci. Comput. 29, 2007).
The new column block is V^T (A V_newest), from the operator action the
next candidate needs anyway; the new row block is (A^T V_new)^T V_inner,
from one transpose action on the new block, so no n-sized array but the
basis itself outlives a step. The basis grows in place, in one buffer:
given a step budget, it is allocated once for every column the budget can
write, so its pages become resident only as columns are written; without
one, its capacity doubles when it fills. The buffer is a private anonymous
mapping of its own, advised never to be backed by huge pages, so it
becomes resident 4 KiB at a time whatever the host's transparent huge
page mode, and it is unmapped when its last view is freed.
"""

import mmap

import numpy as np

from .dense import frob_norm, qr_thin

# Relative rank threshold of a new block, read at call time.
_DEFLATION_TOL = 1e-12


class KrylovBreakdown(Exception):
    """Rank loss in a new basis block: an invariant subspace was captured.

    The decomposition that raised this is left in a consistent, usable
    state (the rank-deficient block is kept at its reduced width).
    """

    def __init__(self, rank, width):
        super().__init__(f"new block deflated to rank {rank} (width {width})")
        self.rank = rank
        self.width = width


def _frozen(a):
    a.flags.writeable = False
    return a


def _column_buffer(n, capacity):
    """An uninitialised column-major (n, capacity) float array in a private
    anonymous mapping advised MADV_NOHUGEPAGE where the platform has it.

    numpy advises huge pages for every array of 4 MiB or more, so a
    buffer from `np.empty` becomes resident in 2 MiB steps where the host
    grants them: up to one such page ahead of the columns written. The
    mapping is unmapped when the last array viewing it is freed.
    """
    buf = mmap.mmap(-1, n * capacity * 8, flags=mmap.MAP_PRIVATE)
    if hasattr(mmap, "MADV_NOHUGEPAGE"):
        buf.madvise(mmap.MADV_NOHUGEPAGE)
    return np.ndarray((n, capacity), dtype=float, buffer=buf, order="F")


class KrylovDecomposition:
    """Growing Arnoldi decomposition A @ V_m = V_{m+1} @ T_bar.

    `m` counts completed projection steps: after `extend` has run m times
    the inner basis spans m blocks and the trailing block V_{m+1} carries
    the coupling. A block of the extended variant has a forward part,
    continued by A, and an inverse part, continued by A^{-1}; a block of
    the block variant is all forward part. For both variants T_bar is the
    explicit projection V^T (A V_inner). The process needs the operator's
    forward and transpose actions, and the extended variant its inverse
    action too; a missing one raises `CapabilityError` before the state
    changes. A new block keeps the directions of its candidate above
    `_DEFLATION_TOL` times its norm; a narrower block is a breakdown.

    The basis lives in one column-major (n, capacity) buffer. With a step
    budget `max_steps`, the capacity is every column that many `extend`
    calls can add, `s (max_steps + 1)` for a start block of width s (no
    block is wider than the one before it), at most n; the buffer is
    allocated once, uninitialised, so its pages become resident only as
    columns are written, and the basis is never copied. It is a mapping of
    its own whose pages are never advised huge, so they become resident
    4 KiB at a time, and it is unmapped with the last view of it. Without
    a budget the capacity starts at s. `extend` writes a new block into the columns
    past the basis, and when they run out it copies the basis into a
    buffer of twice the capacity; it never writes a column that an earlier
    `basis` view covers. T_bar and the block widths are replaced by a
    grown copy on every `extend`. The properties return read-only views,
    so a view or a shallow copy keeps its step's values.
    """

    def __init__(self, op, start_block, variant="extended", max_steps=None):
        if variant not in ("block", "extended"):
            raise ValueError(f"unknown variant {variant!r}")
        self.variant = variant
        self.breakdown_rank = None
        self.m = 0

        B = np.asarray(start_block, dtype=float)
        if B.ndim == 1:
            B = B[:, None]
        self.n = B.shape[0]

        if variant == "extended":
            B = np.hstack([B, op.apply_inverse(B)])
        V = self._orthonormal_block(B, frob_norm(B))
        if V.shape[1] == 0:
            raise ValueError("start block has rank 0")
        s = V.shape[1]
        self._widths = [s]
        capacity = s if max_steps is None else min(self.n, s * (max_steps + 1))
        self._buf = _column_buffer(self.n, capacity)
        self._buf[:, :s] = V
        # columns of `_buf` some decomposition has written: a shallow copy
        # shares the buffer and must not write over the original's blocks
        self._filled = [s]
        self._V = _frozen(self._buf[:, :s])
        self._k_in = 0
        self._tbar = _frozen(np.zeros((s, 0)))

    # -- views of the state --------------------------------------------------

    @property
    def widths(self):
        return list(self._widths)

    @property
    def basis(self):
        return self._V

    @property
    def inner_width(self):
        return self._k_in

    @property
    def inner_basis(self):
        return self._V[:, :self._k_in]

    @property
    def T_bar(self):
        return self._tbar

    @property
    def T(self):
        k = self._k_in
        return self._tbar[:k, :k]

    @property
    def coupling(self):
        """Sub-diagonal block T_{m+1,m}; zero rows after a full breakdown."""
        k = self._k_in
        w_last = self._widths[self.m - 1] if self.m else 0
        return self._tbar[k:, k - w_last:k]

    # -- construction ------------------------------------------------------

    def _orthonormal_block(self, cand, scale_norm):
        """Orthonormal basis of a candidate block, its rank detected against
        `_DEFLATION_TOL` * scale_norm: QR, then SVD when QR shows a
        deficiency or the block is wider than tall."""
        thresh = _DEFLATION_TOL * max(scale_norm, 1e-300)
        if cand.shape[0] >= cand.shape[1]:
            Q, R, _ = qr_thin(cand, rank_tol=0.0)
            if np.all(np.abs(np.diag(R)) > thresh):
                return Q
        U, s, _ = np.linalg.svd(cand, full_matrices=False)
        return U[:, :int(np.sum(s > thresh))]

    def _append(self, Vnew):
        """Write Vnew into the columns past the basis; in a buffer of twice
        the capacity when they run out, and of the same capacity when
        another decomposition has written them."""
        k, rank = self._V.shape[1], Vnew.shape[1]
        capacity = self._buf.shape[1]
        if k + rank > capacity or self._filled[0] != k:
            if k + rank > capacity:
                capacity = max(2 * capacity, k + rank)
            grown = _column_buffer(self.n, capacity)
            grown[:, :k] = self._V
            self._buf, self._filled = grown, [k]
        self._buf[:, k:k + rank] = Vnew
        self._filled[0] = k + rank
        self._V = _frozen(self._buf[:, :k + rank])

    def extend(self, op):
        """Append one block. Raises KrylovBreakdown on rank loss; the
        state is updated (at reduced width) before the signal is raised."""
        if self.breakdown_rank == 0:
            raise KrylovBreakdown(0, 0)
        V, k_in = self._V, self._k_in
        k = V.shape[1]
        width = self._widths[-1]
        # a rank-deficient block loses its forward/inverse split, so the
        # extended variant keeps the split balanced at every width
        n_inv = width // 2 if self.variant == "extended" else 0
        newest = V[:, k - width:]
        a_newest = op.apply(newest)
        cand = a_newest[:, :width - n_inv]
        if n_inv:
            cand = np.hstack([cand, op.apply_inverse(newest[:, width - n_inv:])])
        W = cand
        for _ in range(2):
            W = W - V @ (V.T @ W)
        Vnew = self._orthonormal_block(W, frob_norm(cand))
        rank = Vnew.shape[1]
        # V_new^T A V_inner, the rows of the new block against the inner basis
        rows_new = op.apply_transpose(Vnew).T @ V[:, :k_in]

        self._append(Vnew)
        tbar = np.empty((k + rank, k_in + width))
        tbar[:k, :k_in] = self._tbar
        tbar[k:, :k_in] = rows_new
        tbar[:, k_in:] = self._V.T @ a_newest
        self._tbar = _frozen(tbar)
        self._k_in = k_in + width
        if rank:
            self._widths = self._widths + [rank]
        self.m += 1
        if rank < width:
            self.breakdown_rank = rank
            raise KrylovBreakdown(rank, width)

    # -- projections used by the solvers ------------------------------------

    def project_block(self, B):
        """V_m^T @ B onto the inner basis, B an (n, s) array."""
        return self.inner_basis.T @ B

    def lift(self, small):
        """V_m @ small @ V_m^T."""
        V = self.inner_basis
        return V @ small @ V.T
