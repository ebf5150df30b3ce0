"""Projection solvers for dX/dt = A X + X A^T + B B^T, X(t0) = Z0 Z0^T.

One generator, `krylov_steps`, walks the Krylov steps: one `extend` each,
with the projected data, and no convergence decision; each grid walk
builds its own step data. `solve` consumes it with the stop rule below;
the m sweep of the command line walks it once and runs the full grid at
the listed m.

Two routes propagate the projected solution over the time grid. The
exponential route steps node to node by the exact one-step pair (E,
delta): E = e^{hT}, and the increment delta, the Gramian integral over
one step, solves T delta + delta T^T = E Q E^T - Q (Van Loan, 1978). That
identity cancels when two eigenvalues of T nearly sum to zero, so below a
separation bound a composite Gauss-Legendre rule builds the increment.
The BDF route integrates the projected matrix ODE with a fixed-step
backward differentiation formula. Each BDF step is a small algebraic
Lyapunov equation with one coefficient on the whole grid, solved in a
real basis: in the real pair basis of the projected operator's
eigenvectors (a conjugate pair v, conj v becomes Re v, Im v) it is one
O(k^2) map, and when the eigenvectors are ill-conditioned the real Schur
basis takes over with one triangular Sylvester solve. Every node after t0
lives in that basis, the exact start-up steps too: elementwise in the
eigenbasis, or the exponential route's pair moved into the Schur basis.
A BDF grid run lifts only the rows the residual formula reads, and the
whole node only at tf, at a node the PSD screen clips, or when every
node is asked for.
The residual comes from the coupling block, never from the large
approximation.

Each Krylov step walks its grid once. The walk holds the bar rows (the
last w rows of a node, all the residual formula reads) of one batch of
`_PROBE_STRIDE` nodes at a time, and reduces each batch to its residuals
and its largest row norm as it fills: a walk keeps one residual per node.
Below the last step the walk carries a stop test: it reads the residuals
of each batch, and a residual at or above the tolerance proves the step
has not converged, so the walk ends there and the loop moves on. The
value at tf it reports is then reached by one composed map: the step
pair raised to the remaining steps on the exp route, the BDF step as a
per-entry map in the complex eigenbasis, unscreened, on the BDF route
(in the Schur basis the walk goes on to tf unchecked). A walk that
reaches tf has visited every node and decides; the last step's walk
carries no stop test.

The trajectory of the last step is a stream: its step data regenerate
the projected solutions on demand with no new matrix exponential,
eigendecomposition or Lyapunov setup, holding O(k^2) floats, and a BDF
replay clips the nodes the deciding run clipped with no new PSD screen.
"""
import copy
import functools
import itertools
import math
import numbers
import time
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
from scipy.linalg import lapack

from .dense import (LyapunovSolver, SolvabilityError, check_lyapunov_solvable,
                    expm, frob_norm, spec_norm_2, sym_part)
from .krylov import KrylovBreakdown, KrylovDecomposition
from .sparsela import LinearOperator, wrap_dense, wrap_sparse

BDF_TABLE = {
    1: (1.0, (1.0,)),
    2: (2.0 / 3.0, (4.0 / 3.0, -1.0 / 3.0)),
    3: (6.0 / 11.0, (18.0 / 11.0, -9.0 / 11.0, 2.0 / 11.0)),
}

# Point count of the Gauss-Legendre fallback rule of the exp route's step
# pair, the node count of a batch the stop test of a grid walk reads, and
# the threshold above which an eigenvalue of a projected solution counts
# toward its rank and its truncated factor; all are read at call time.
_QUADRATURE_ORDER = 4
_PROBE_STRIDE = 10
_RANK_THRESHOLD = 1e-12


class PSDViolationError(ValueError):
    """A projected solution has an eigenvalue below the allowed floor."""


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t0, t0+h, ..., tf."""

    t0: float
    tf: float
    h: float

    def __post_init__(self):
        for name in ("t0", "tf", "h"):
            value = getattr(self, name)
            if (not isinstance(value, numbers.Real) or isinstance(value, bool)
                    or not math.isfinite(value)):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        if self.h <= 0:
            raise ValueError(f"step must be positive, got {self.h}")
        if self.tf <= self.t0:
            raise ValueError(f"need tf > t0, got [{self.t0}, {self.tf}]")
        steps = (self.tf - self.t0) / self.h
        if not math.isfinite(steps) or round(steps) < 1:
            raise ValueError(f"h={self.h} gives no finite, nonzero number of "
                             f"steps over [{self.t0}, {self.tf}]")
        if abs(steps - round(steps)) > 1e-8 * max(steps, 1.0):
            raise ValueError(f"({self.tf} - {self.t0}) is not a multiple of h={self.h}")

    @property
    def n_steps(self):
        return int(round((self.tf - self.t0) / self.h))

    @property
    def nodes(self):
        return self.t0 + self.h * np.arange(self.n_steps + 1)


@dataclass
class SolverConfig:
    method: str = "eba_exp"             # "eba_exp" | "eba_bdf"
    krylov_variant: str = "extended"    # "extended" | "block"
    m_max: int = 30
    tol: float = 1e-10
    bdf_order: int = 2

    def __post_init__(self):
        for name, choices in (("method", ("eba_exp", "eba_bdf")),
                              ("krylov_variant", ("extended", "block"))):
            if getattr(self, name) not in choices:
                raise ValueError(f"{name} must be one of {list(choices)}, "
                                 f"got {getattr(self, name)!r}")
        # bool is an Integral, and JSON true would read as 1
        for name in ("m_max", "bdf_order"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if (not isinstance(self.tol, numbers.Real) or isinstance(self.tol, bool)
                or not self.tol > 0):
            raise ValueError(f"tol must be a positive number, got {self.tol!r}")
        if self.m_max < 1:
            raise ValueError(f"m_max must be at least 1, got {self.m_max}")
        if self.bdf_order not in BDF_TABLE:
            raise ValueError(f"bdf_order must be in {sorted(BDF_TABLE)}")


@dataclass
class SymLowRank:
    """Tall factor Z representing the PSD matrix Z @ Z.T."""

    Z: np.ndarray

    @classmethod
    def empty(cls, n):
        return cls(np.zeros((n, 0)))

    @property
    def rank(self):
        return self.Z.shape[1]

    def to_dense(self):
        return self.Z @ self.Z.T


@dataclass
class IterationRecord:
    """One Krylov step. A "probe" step's grid walk ended before tf, at the
    first batch of `_PROBE_STRIDE` nodes holding a residual at or above
    `tol`: `probe_nodes` counts the nodes it walked, `residual_max` is the
    largest residual over them, and `gbar_sup`, which needs every node, is
    None. Its `residual_final` and `small_final` are at tf, reached from
    the last node walked by one composed map; on eba-bdf in the eigen
    basis that map is the unscreened recurrence, so it matches the full
    grid at rounding level, and only where that grid never clips. A "full"
    step walked every node. `step_pair` is how the step's exact step built
    its increment: "lyapunov" or "quadrature", or "eigen" for an eba-bdf
    start-up in the eigenbasis (None for BDF1). `psd_clips` counts the
    clipped nodes among the nodes the walk recorded."""

    m: int
    basis_size: int
    residual_final: float
    residual_max: float
    coupling_norm: float
    gbar_sup: float
    small_final: np.ndarray
    elapsed: float
    bdf_basis: str = None              # step basis of a BDF grid run
    bdf_cond: float = None             # cond(V) that chose that basis
    grid: str = "full"                 # "probe" | "full"
    psd_clips: int = 0                 # PSD screen clips of that grid run
    step_pair: str = None              # "lyapunov" | "quadrature" | "eigen"
    probe_nodes: int = None            # nodes a stopped walk visited


@dataclass
class Trajectory:
    """Projected solutions Y(t_i) on the grid nodes, X(t_i) ~= V Y(t_i) V^T.

    The nodes are a stream, not a stored array: `replay()` returns a fresh
    iterator over Y(t_0), ..., Y(t_N) that re-runs the last Krylov step's
    grid from its step data, so walking it holds O(k^2) floats. A replay
    clips the nodes the deciding grid run's PSD screen clipped and screens
    none: its inputs are that run's bitwise, so its decisions are too.
    `replay_coords()` walks the same nodes in the coordinates the grid
    holds them in, as pairs (Y, gram_inv) with the node congruent to Y
    (see `_count_above`); None means `replay()`'s nodes with gram_inv None.
    The value at tf is kept as `final_small` and read without a replay.
    Random access to node i replays i steps; `small_solutions` materializes
    every node once, at O(N k^2) memory kept for the trajectory's life, and
    is meant for tests and small problems.
    """

    grid: TimeGrid
    nodes: np.ndarray
    final_small: np.ndarray            # (k, k) at tf
    replay: object                     # () -> iterator over the n_nodes (k, k)
    residuals: np.ndarray
    decomposition: KrylovDecomposition
    converged: bool
    method: str
    iterations: list
    dim: int
    config: SolverConfig
    replay_coords: object = None       # () -> iterator over (Y, gram_inv)

    @property
    def final_residual(self):
        return float(self.residuals[-1])

    @property
    def basis_size(self):
        return self.final_small.shape[0]

    def small_solution(self, i=-1):
        """Y(t_i): the final node is stored, node i < N replays i steps."""
        n_nodes = len(self.nodes)
        if not -n_nodes <= i < n_nodes:
            raise IndexError(f"node {i} out of range for {n_nodes} nodes")
        i %= n_nodes
        if i == n_nodes - 1:
            return self.final_small
        return next(itertools.islice(self.replay(), i, None))

    @functools.cached_property
    def small_solutions(self):
        """All nodes as one read-only (n_nodes, k, k) array: O(N k^2)
        memory, held by the trajectory once read; one replay builds it."""
        k = self.basis_size
        out = np.empty((len(self.nodes), k, k))
        for i, G in enumerate(self.replay()):
            out[i] = G
        out.flags.writeable = False
        return out

    def lift(self, small):
        """V small V^T, the dense n x n matrix of a projected solution."""
        if self.decomposition is None:
            return np.zeros((self.dim, self.dim))
        return self.decomposition.lift(small)

    def solution_dense(self, i=-1):
        return self.lift(self.small_solution(i))

    def lowrank_factor(self, i=-1):
        if self.decomposition is None:
            return SymLowRank.empty(self.dim)
        return truncate_lowrank(self.decomposition, self.small_solution(i))

    def ranks(self):
        """Count of the eigenvalues above `_RANK_THRESHOLD` at every node,
        the width of the truncated factor there.

        The last entry counts `final_small` as `truncate_lowrank` does, so
        it is the width of `lowrank_factor(-1)`. The other nodes are
        counted by inertia on one walk of `replay_coords()`, in the grid's
        own coordinates: no eigendecomposition, no lift of a basis node and
        no PSD screen. Where a node's eigenvalue lies within rounding of
        the threshold, its count and the width of `lowrank_factor(i)`,
        which counts the lifted node, can differ by one."""
        tau = _RANK_THRESHOLD
        n_nodes = len(self.nodes)
        walk = (self.replay_coords() if self.replay_coords is not None
                else ((G, None) for G in self.replay()))
        out = np.empty(n_nodes, dtype=int)
        for i, (Y, gram_inv) in enumerate(itertools.islice(walk, n_nodes - 1)):
            out[i] = _count_above(Y, tau, gram_inv)
        out[-1] = _count_above(self.final_small, tau)
        return out


# -- small dense building blocks -------------------------------------------


def gauss_legendre(q, a, b):
    x, w = np.polynomial.legendre.leggauss(q)
    return 0.5 * (b - a) * (x + 1.0) + a, 0.5 * (b - a) * w


def _gl_subpanel_count(t_norm, width, q):
    """Panels needed so the q-point rule resolves integrand variation
    exp(c s) with |c| <= 2||T||: per-panel relative error below 1e-12."""
    coef = math.exp(4.0 * math.lgamma(q + 1) - math.log(2 * q + 1)
                    - 3.0 * math.lgamma(2 * q + 1))
    c_max = (1e-12 / coef) ** (1.0 / (2 * q))
    return int(min(max(1, np.ceil(2.0 * t_norm * width / c_max)), 4096))


def _panel_increment(T, B, width, q):
    """integral over [0, width] of e^{sT} B B^T e^{sT^T} ds.

    Composite q-point Gauss-Legendre; the panel is split into uniform
    sub-panels sized by the stiffness of T, with node blocks propagated
    by one small multiply per sub-panel."""
    k = T.shape[0]
    n_sub = _gl_subpanel_count(spec_norm_2(T), width, q)
    w_sub = width / n_sub
    sigma, wts = gauss_legendre(q, 0.0, w_sub)
    node_blocks = [expm(s_j * T) @ B for s_j in sigma]
    E_sub = expm(w_sub * T) if n_sub > 1 else None
    acc = np.zeros((k, k))
    for j in range(n_sub):
        for w_j, W in zip(wts, node_blocks):
            acc += w_j * (W @ W.T)
        if j + 1 < n_sub:
            node_blocks = [E_sub @ W for W in node_blocks]
    return sym_part(acc)


def residual_norm(coupling, small_sol):
    """Frobenius norm of the true residual from the coupling block.

    The residual of the lifted approximation is a symmetric pair of
    cross blocks, each congruent to coupling @ (last rows of the small
    solution); its Frobenius norm is sqrt(2) times the norm of one block.
    """
    coupling = np.asarray(coupling, dtype=float)
    if coupling.size == 0:
        return 0.0
    w = coupling.shape[1]
    small_sol = np.asarray(small_sol, dtype=float)
    return np.sqrt(2.0) * frob_norm(coupling @ small_sol[-w:, :])


def _residuals_over_nodes(coupling, bar_rows):
    if coupling.size == 0:
        return np.zeros(bar_rows.shape[0])
    prod = np.einsum("ij,njk->nik", coupling, bar_rows)
    return np.sqrt(2.0) * np.sqrt(np.einsum("nik,nik->n", prod, prod))


@functools.lru_cache(maxsize=None)
def _sytrf_lwork(k):
    """Workspace of the blocked `dsytrf` at order k."""
    return int(lapack.dsytrf_lwork(k, lower=True)[0])


def _count_above(Y, tau, gram_inv=None):
    """Count of the eigenvalues of M Y M^T above tau, M = I when `gram_inv`
    is None, else `gram_inv` = (M^T M)^-1; Y is symmetric and only its
    lower triangle is read.

    By congruence (Sylvester's law of inertia) M Y M^T - tau I and
    Y - tau gram_inv have as many positive eigenvalues, and so does the
    block-diagonal D of the Bunch-Kaufman factorization L D L^T of the
    latter (`dsytrf`): a 1x1 pivot counts when positive, a 2x2 pivot by
    its determinant and trace. About a quarter of the flops of an
    eigvalsh."""
    k = Y.shape[0]
    if k == 0:
        return 0
    if gram_inv is None:
        shifted = Y.copy()
        shifted.flat[::k + 1] -= tau
    else:
        shifted = -tau * gram_inv
        shifted += Y
    ldu, ipiv, _ = lapack.dsytrf(shifted, lower=True, lwork=_sytrf_lwork(k),
                                 overwrite_a=True)
    d = ldu.diagonal()
    count = np.count_nonzero(d[ipiv > 0] > 0)
    # both rows of a 2x2 pivot hold the same negative ipiv entry and the
    # pivots do not overlap, so every other such row starts a pivot
    start = np.flatnonzero(ipiv < 0)[::2]
    if start.size:
        a, c = d[start], d[start + 1]
        det = a * c - ldu[start + 1, start] ** 2
        # det < 0: one positive eigenvalue and one negative; else both
        # have the trace's sign, or one of them is zero where det = 0
        count += (np.count_nonzero(det < 0)
                  + int(np.dot(a + c > 0, 1 + np.sign(det))))
    return int(count)


def truncate_lowrank(basis, small_sol):
    """Eigen-truncate a projected PSD solution and lift it through the basis.

    One `eigh` serves the PSD check and the factor, which keeps the
    eigenvalues above tau = `_RANK_THRESHOLD`, as many as `_count_above`
    counts, so its width is the rank `ranks` reports at tf; one the count
    keeps but `eigh` rounds to at most zero gives a zero column. An
    eigenvalue below -max(tau, k*eps*lambda_max) violates positive
    semidefiniteness and raises; smaller negative ones are rounding.
    """
    tau = _RANK_THRESHOLD
    V = basis.inner_basis if isinstance(basis, KrylovDecomposition) else np.asarray(basis)
    vals, vecs = np.linalg.eigh(sym_part(small_sol))
    if vals.size:
        floor = max(tau, vals.size * np.finfo(float).eps * vals[-1])
        if vals[0] < -floor:
            raise PSDViolationError(
                f"projected solution has eigenvalue {vals[0]:.3e} < {-floor:.3e}"
            )
    r = _count_above(small_sol, tau)
    # eigh lists the eigenvalues in increasing order
    Z = V @ (vecs[:, ::-1][:, :r] * np.sqrt(np.maximum(vals[::-1][:r], 0.0)))
    return SymLowRank(Z)


def _psd_screen(Y, gram=None, gram_inv=None):
    """Whether the Cholesky screen passes on the lift Y' = M Y M^T of Y:
    Y' + s I positive definite, s = 1e-13 max(tr(Y') / k, 0). By
    congruence (Sylvester's law of inertia) that is Y + s (M^T M)^-1, so
    the screen runs on Y; `gram` is M^T M and `gram_inv` its inverse, both
    None for M = I."""
    k = Y.shape[0]
    trace = np.trace(Y) if gram is None else np.vdot(gram, Y)
    shift = 1e-13 * max(max(trace / max(k, 1), 0.0), 1e-300)
    if gram_inv is None:
        shifted = Y.copy()
        shifted.flat[::k + 1] += shift
    else:
        shifted = shift * gram_inv
        shifted += Y
    return lapack.dpotrf(shifted, lower=True, overwrite_a=True, clean=False)[1] == 0


def _psd_clip(Y):
    """Y with its negative eigenvalues set to zero."""
    vals, vecs = np.linalg.eigh(Y)
    return (vecs * np.clip(vals, 0.0, None)) @ vecs.T


# -- grid propagation for one Krylov step ----------------------------------


@dataclass
class _SmallRun:
    """A grid walk reduced to what its caller reads: the residual at each
    node walked, the largest bar-row norm over them, the value at tf and,
    when asked, every node walked, with its bar rows as a view."""

    residuals: np.ndarray              # (nodes walked,)
    gbar_sup: float                    # max over them of ||Y[k-w:, :]||_F
    final: np.ndarray                  # (k, k)
    replay: object                     # () -> iterator over the n_nodes (k, k)
    full: np.ndarray = None            # (nodes walked, k, k) when requested
    bar_rows: np.ndarray = None        # view full[:, k-w:, :] when requested
    bdf_basis: str = None              # "eigen" | "schur" on BDF grids
    bdf_cond: float = None             # cond(V) of the eigenvectors
    clipped: tuple = ()                # nodes the PSD screen clipped
    replay_coords: object = None       # `Trajectory.replay_coords`
    step_pair: str = None              # `IterationRecord.step_pair`

    @property
    def psd_clips(self):
        return len(self.clipped)


def _collect(steps, n_nodes, k, w, keep_full, coupling=None, stop=None,
             jump=None, **fields):
    """One pass over `steps`, tuples (Y, rows, clipped, ...) of the nodes,
    with `rows` the last w rows of Y, reduced batch by batch: the rows of
    each batch of `_PROBE_STRIDE` nodes go into one reused buffer, from
    which `_residuals_over_nodes` takes their residuals with `coupling`
    (None: no coupling block, every residual 0) and a running max takes
    their norms. The run keeps those residuals, the final node, the clipped
    nodes and, when `keep_full` is set, every node; `fields` are further
    `_SmallRun` fields. The caller sets the replays.

    `stop(res)`, when given, tells whether the residuals `res` of a batch
    reach the tolerance. It reads each batch that ends before the last
    node; once it says so the walk ends after that batch: the run holds
    the nodes walked, and `final` is `jump(node, s)`, the value at tf
    reached from the tuple `node` of the last node walked, s steps before
    tf."""
    stride = _PROBE_STRIDE
    if coupling is None:
        coupling = np.zeros((0, w))
    batch = np.empty((min(stride, n_nodes), w, k))
    res = np.empty(n_nodes)
    sup = 0.0
    full = np.empty((n_nodes, k, k)) if keep_full else None
    clipped = []
    for i, node in enumerate(steps):
        G, rows, clip = node[:3]
        batch[i % stride] = rows
        if keep_full:
            full[i] = G
        if clip:
            clipped.append(i)
        walked = i + 1
        if walked % stride and walked < n_nodes:
            continue
        first = (walked - 1) // stride * stride
        done = batch[:walked - first]
        res[first:walked] = _residuals_over_nodes(coupling, done)
        sup = max(sup, float(np.max(np.einsum("nik,nik->n", done, done))))
        if stop is not None and walked < n_nodes and stop(res[first:walked]):
            G = jump(node, n_nodes - walked)
            break
    if keep_full:
        full = full[:walked]
    return _SmallRun(residuals=res[:walked], gbar_sup=math.sqrt(sup), final=G,
                     replay=None, full=full,
                     bar_rows=None if full is None else full[:, k - w:, :],
                     clipped=tuple(clipped), **fields)


def _gram_nodes(E, delta, G0, n_steps):
    """G_0, ..., G_N of the node-to-node propagation G -> E G E^T + delta."""
    G = G0
    yield G
    for _ in range(n_steps):
        G = sym_part(E @ G @ E.T + delta)
        yield G


def _compose(first, then):
    """The propagator pair of `first` followed by `then`:
    (E1, d1) then (E2, d2) is (E2 E1, E2 d1 E2^T + d2)."""
    (E1, d1), (E2, d2) = first, then
    return E2 @ E1, sym_part(E2 @ d1 @ E2.T + d2)


def _pair_power(pair, s, compose):
    """The map `pair` applied s >= 1 times in a row, by repeated squaring;
    `compose(first, then)` composes two maps."""
    out = None
    while True:
        if s & 1:
            out = pair if out is None else compose(out, pair)
        s >>= 1
        if not s:
            return out
        pair = compose(pair, pair)


class _GramSetup(NamedTuple):
    """Step data of an exp grid."""

    E: np.ndarray
    delta: np.ndarray
    G0: np.ndarray
    step_pair: str                     # route of `exact_step_pair`


def _gram_setup(T, Bm, P0, grid, q):
    """Step pair (E, delta) of the exp grid and its initial value."""
    k = T.shape[0]
    E, delta, route = exact_step_pair(T, Bm, grid.h, q)
    G0 = P0 @ P0.T if P0.shape[1] else np.zeros((k, k))
    return _GramSetup(E, delta, G0, route)


def _run_gram_grid(T, Bm, P0, grid, q, w, keep_full, coupling=None,
                   stop=None):
    """The exp grid over every node, or up to the batch `stop` ends it at,
    from where one composed pair reaches tf, with the residuals from
    `coupling` (see `_collect`)."""
    setup = _gram_setup(T, Bm, P0, grid, q)
    replay = functools.partial(_gram_nodes, setup.E, setup.delta, setup.G0,
                               grid.n_steps)
    k = T.shape[0]

    def jump(node, s):
        E_s, d_s = _pair_power((setup.E, setup.delta), s, _compose)
        return sym_part(E_s @ node[0] @ E_s.T + d_s)

    # the exp grid never clips
    steps = ((G, G[k - w:, :], False) for G in replay())
    return replace(_collect(steps, grid.n_steps + 1, k, w, keep_full, coupling,
                            stop, jump, step_pair=setup.step_pair),
                   replay=replay)


# Above this cond(V) the eigenbasis step loses accuracy like
# cond(V)^2 * eps, so the BDF grid runs in the real Schur basis instead.
_EIGEN_COND_MAX = 1e3

# Below this h * min |lam_a + lam_b| over the eigenvalues of T, the
# increment solved from T delta + delta T^T = E Q E^T - Q loses about
# eps / (h * min |lam_a + lam_b|) relative accuracy to cancellation, so
# the quadrature rule builds it instead.
_LYAP_SEP_MIN = 1e-3


def exact_step_pair(T, B, h, q):
    """(E, delta, route) with Y -> E Y E^T + delta the exact one-step
    propagator of dY/dt = T Y + Y T^T + B B^T.

    delta solves T delta + delta T^T = E Q E^T - Q, Q = B B^T, which is
    stable for stiff T where the block-exponential construction cancels
    catastrophically, when the eigenvalue pairs of T are separated from
    zero by _LYAP_SEP_MIN / h; otherwise, and when the Lyapunov operator
    is singular, the q-point panel rule `_panel_increment` builds delta.
    `route` names the way taken: "lyapunov" or "quadrature"."""
    E = expm(h * T)
    try:
        lyap = LyapunovSolver(T)
        lam = lyap.eigvals
        if h * np.min(np.abs(lam[:, None] + lam[None, :]),
                      initial=np.inf) >= _LYAP_SEP_MIN:
            Q = B @ B.T
            return E, lyap.solve(Q - E @ Q @ E.T), "lyapunov"
    except SolvabilityError:
        pass                           # singular: the quadrature rule applies
    return E, _panel_increment(T, B, h, q), "quadrature"


class _StepBasis:
    """Real basis M in which a BDF grid holds every node after t0 as
    Yr = M^-1 Y M^-T.

    `solve` maps the right-hand side R (in the basis) of
    F Y + Y F^T = -R to Y (in the basis), F = h*beta*T - I/2: one
    triangular Sylvester solve in the real Schur basis, one real O(k^2)
    map in the real pair basis of the eigenvectors (`_pair_basis`).
    `gram` = M^T M and `gram_inv`, its inverse, carry the PSD screen into
    the basis; both are None where M is orthogonal. In the pair basis
    `lam` are T's eigenvalues in the order of the eigenbasis V = M P, and
    `multiplier` is the solve in V: R * multiplier elementwise. Both are
    None in the Schur basis."""

    def __init__(self, kind, cond, M, M_inv, solve=None, gram=None,
                 gram_inv=None, multiplier=None, lam=None, pairing=None):
        self.kind = kind
        self.cond = cond
        self.M = M
        self.M_inv = M_inv
        self.solve = solve
        self.gram = gram
        self.gram_inv = gram_inv
        self.multiplier = multiplier
        self.lam = lam
        self._pairing = pairing            # `_pair_congruence` data; None: P = I

    def project(self, Y):
        return self.M_inv @ Y @ self.M_inv.T

    def lift_rows(self, Yr, w):
        """The last w rows of `lift(Yr)`, at O(w k^2)."""
        k = Yr.shape[0]
        rows = (self.M[k - w:] @ Yr) @ self.M.T
        rows[:, k - w:] = sym_part(rows[:, k - w:])
        return rows

    def lift(self, Yr, rows=None):
        """Y = M Yr M^T, symmetrized; `rows` = `lift_rows(Yr, w)` become
        its last w rows and columns, so they are Y's rows bitwise."""
        Y = sym_part(self.M @ Yr @ self.M.T)
        if rows is not None:
            w = rows.shape[0]
            Y[Y.shape[0] - w:] = rows
            Y[:, Y.shape[0] - w:] = rows.T
        return Y

    def to_eigen(self, Yr):
        """Yh = P^-1 Yr P^-T, the coordinates in V of Yr."""
        if self._pairing is None:
            return Yr
        r, _, block_inv = self._pairing
        return _pair_congruence(Yr, r, block_inv)

    def from_eigen(self, Yh):
        """Yr = P Yh P^T, real, of the coordinates Yh in V."""
        if self._pairing is None:
            return Yh
        r, block, _ = self._pairing
        return _pair_congruence(Yh, r, block).real

    def entrywise(self, mult):
        """The real map Yr -> from_eigen(mult * to_eigen(Yr)), mult a
        function of lam_a + lam_b, at O(k^2): an entry (a, b) reads Yr at
        the rows of a's pair and the columns of b's pair, so it is
        Yr * mult between real eigenvalues and a 2x2 coupling on pairs."""
        k = len(self.lam)
        if self._pairing is None:
            return lambda R: R * mult
        r = self._pairing[0]
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
        M_xy = np.array([[mult[np.ix_(swap[x], swap[y])] for y in (0, 1)]
                         for x in (0, 1)])
        C = np.einsum("sxa,tyb,xyab->stab", g, g, M_xy).real
        C_rows = C[1, 0, r:].reshape(p, 2, k)
        C_cols = C[0, 1, :, r:].reshape(k, p, 2)
        C_both = C[1, 1, r:, r:].reshape(p, 2, p, 2)

        def apply(R):
            # the pairs' rows and columns are contiguous, so reshaped
            # views with a reversed pair axis read R at the partners
            out = np.multiply(R, C[0, 0], order="C")
            rows = out[r:].reshape(p, 2, k)
            rows += C_rows * R[r:].reshape(p, 2, k)[:, ::-1]
            cols = out[:, r:].reshape(k, p, 2)
            cols += C_cols * R[:, r:].reshape(k, p, 2)[:, :, ::-1]
            both = out[r:, r:].reshape(p, 2, p, 2)
            both += C_both * R[r:, r:].reshape(p, 2, p, 2)[:, ::-1, :, ::-1]
            return out

        return apply


def _pair_congruence(X, r, block):
    """P X P^T for P = I_r (+) block (+) block (+) ..., block 2x2, at O(k^2)."""
    k = X.shape[0]
    p = (k - r) // 2
    out = X.astype(complex)
    out[r:] = np.einsum("ij,pjk->pik", block,
                        out[r:].reshape(p, 2, k)).reshape(2 * p, k)
    out[:, r:] = np.einsum("ij,kpj->kpi", block,
                           out[:, r:].reshape(k, p, 2)).reshape(k, 2 * p)
    return out


def _pair_basis(lam, V, cond, h_beta):
    """The eigen step basis in real coordinates.

    Each conjugate pair (v, conj v) of eigenvectors in V becomes the columns
    (Re v, Im v) of W, which lists T's real eigenvalues first and then the
    pairs. So V = W P up to that order, with P 2x2-block-diagonal: blocks
    [[1, 1], [i, -i]] on the pairs (P / sqrt(2) is unitary there) and 1
    elsewhere, and cond(W) is within a factor sqrt(2) of cond(V). The
    eigenbasis solve is Rh * inv_pair elementwise, inv_pair_ab =
    -1 / (lam_F_a + lam_F_b) over the eigenvalues lam_F = h_beta*lam - 1/2
    of F, and `entrywise` reads it in W's coordinates."""
    k = len(lam)
    first = np.flatnonzero(lam.imag > 0)   # LAPACK lists v before conj v
    order = np.r_[np.flatnonzero(lam.imag == 0), np.c_[first, first + 1].ravel()]
    lam, V = lam[order], V[:, order]
    r = k - 2 * len(first)                 # r real eigenvalues, then pairs
    W = np.array(V.real)
    W[:, r + 1::2] = V[:, r::2].imag
    W_inv = np.linalg.inv(W)
    lam_F = h_beta * lam - 0.5
    check_lyapunov_solvable(lam_F)
    inv_pair = -1.0 / (lam_F[:, None] + lam_F[None, :])
    pairing = None if r == k else (r, np.array([[1.0, 1.0], [1j, -1j]]),
                                   np.array([[0.5, -0.5j], [0.5, 0.5j]]))
    basis = _StepBasis("eigen", cond, W, W_inv, gram=W.T @ W,
                       gram_inv=W_inv @ W_inv.T, multiplier=inv_pair, lam=lam,
                       pairing=pairing)
    basis.solve = basis.entrywise(inv_pair)
    return basis


def _bdf_basis(T, h_beta):
    """Step basis of a BDF grid: the real pair basis of T's eigenvectors V
    when cond(V) is at most _EIGEN_COND_MAX, else the real Schur vectors of
    F = h_beta*T - I/2."""
    lam, V = np.linalg.eig(T)
    cond = float(np.linalg.cond(V))
    if cond <= _EIGEN_COND_MAX:
        return _pair_basis(lam, V, cond, h_beta)
    lyap = LyapunovSolver(h_beta * T - 0.5 * np.eye(T.shape[0]))
    return _StepBasis("schur", cond, lyap.U, lyap.U.T, lyap.solve_schur)


def _startup_step(T, Bm, h, basis, Q):
    """(step, route): the exact step Yr -> Yr(t + h) of
    dY/dt = T Y + Y T^T + Bm Bm^T on basis values, Q = Bm Bm^T in the
    basis. In V it is Yh -> e^{hS} * Yh + Qh * expm1(hS)/S elementwise,
    S_ab = lam_a + lam_b (h where S = 0), route "eigen"; in the Schur
    basis U, `exact_step_pair`'s (E, delta) as (U^T E U, U^T delta U)."""
    if basis.lam is None:
        E, delta, route = exact_step_pair(T, Bm, h, _QUADRATURE_ORDER)
        E, delta = basis.M_inv @ E @ basis.M, basis.project(delta)
        return (lambda Yr: sym_part(E @ Yr @ E.T + delta)), route
    S = basis.lam[:, None] + basis.lam[None, :]
    phi = np.divide(np.expm1(h * S), S, out=np.full_like(S, h), where=S != 0)
    propagate = basis.entrywise(np.exp(h * S))
    increment = basis.from_eigen(basis.to_eigen(Q) * phi)
    return (lambda Yr: propagate(Yr) + increment), "eigen"


class _BDFSetup(NamedTuple):
    """Step data of a BDF grid, as `_bdf_steps` reads them."""

    Y0: np.ndarray
    startup: object                    # `_startup_step`'s map; None for BDF1
    step_pair: str                     # its route; None for BDF1
    basis: _StepBasis
    forcing: np.ndarray                # h*beta*Q in the basis
    alphas: tuple
    n_steps: int


def _bdf_setup(T, Bm, P0, grid, order):
    """Step data of the BDF grid of the projected pair (T, Bm)."""
    Y0 = P0 @ P0.T                     # zero when P0 has no column
    beta, alphas = BDF_TABLE[order]
    basis = _bdf_basis(T, grid.h * beta)
    Q = basis.project(Bm @ Bm.T)
    # multistep start-up values by exact propagation (a low-order
    # bootstrap step would cap the observable global order at 2)
    startup, route = (_startup_step(T, Bm, grid.h, basis, Q) if order > 1
                      else (None, None))
    return _BDFSetup(Y0, startup, route, basis, grid.h * beta * Q, alphas,
                     grid.n_steps)


def _bdf_steps(setup, w, full=True, clips=None):
    """(Y_i, rows_i, clipped, history) for the nodes i = 0..N of a BDF grid
    from its `_bdf_setup` step data: Y0, then values in `basis`, by the
    `startup` map up to node len(alphas) - 1 and BDF steps after it.
    `rows_i` are the last w rows of Y_i. `clipped` tells whether the PSD
    screen, run in the basis, failed: the node is lifted, clipped by
    `_psd_clip` and projected back. `clips`, when given, is the set of the
    nodes a screened pass over the same step data clipped: those nodes
    clip and no node is screened, which decides as that pass did, since
    the inputs are bitwise the same. A node after Y0 that is not clipped
    lifts only its rows, and its full Y_i too when `full` is set or i = N;
    otherwise Y_i is None. `history` is the last len(alphas) values in the
    basis (fewer in the start-up), newest first, updated in place."""
    Y0, basis, alphas = setup.Y0, setup.basis, setup.alphas
    k, order = Y0.shape[0], len(alphas)
    history = [basis.project(Y0)]
    yield Y0, Y0[k - w:, :], False, history
    for i in range(1, setup.n_steps + 1):
        if i < order:
            Yr = setup.startup(history[0])
        else:
            rhs = setup.forcing
            for alpha, Yr_prev in zip(alphas, history):
                rhs = rhs + alpha * Yr_prev
            Yr = basis.solve(rhs)
        clipped = (i in clips if clips is not None
                   else not _psd_screen(Yr, basis.gram, basis.gram_inv))
        if clipped:
            Y = _psd_clip(basis.lift(Yr))
            rows = Y[k - w:, :]
            Yr = basis.project(Y)
        else:
            rows = basis.lift_rows(Yr, w)
            Y = basis.lift(Yr, rows) if full or i == setup.n_steps else None
        history.insert(0, Yr)
        del history[order:]
        yield Y, rows, clipped, history


def _bdf_nodes(setup, w, clips=None):
    """Y_0, ..., Y_N of the BDF grid of `_bdf_setup`'s step data, each
    with the last w rows the grid run with bar width w takes; `clips` as
    in `_bdf_steps`."""
    return (Y for Y, *_ in _bdf_steps(setup, w, clips=clips))


def _bdf_coords(setup, clips):
    """(Y_i, gram_inv) for the nodes of the BDF grid of `_bdf_setup`'s
    step data, as `Trajectory.replay_coords` walks them: a node the grid
    holds lifted (Y0, clipped, tf) as it is with gram_inv None, any other
    as its basis value with the basis's `gram_inv`. It lifts no basis node
    and reads no rows; `clips` as in `_bdf_steps`."""
    gram_inv = setup.basis.gram_inv
    for Y, _, _, history in _bdf_steps(setup, 0, full=False, clips=clips):
        yield (Y, None) if Y is not None else (history[0], gram_inv)


def _bdf_step_map(multiplier, forcing, alphas):
    """One eigenbasis BDF step as a per-entry affine map (A, b) on the
    stacked history x = (Yh_n, ..., Yh_{n-p+1}), shape (p, k, k):
    x -> A x + b with Yh_{n+1} = multiplier * (forcing + sum_j alpha_j
    Yh_{n+1-j}) on top and the older values shifted down."""
    p = len(alphas)
    A = np.zeros((p, p) + multiplier.shape,
                 dtype=np.result_type(multiplier, forcing))
    for j, alpha in enumerate(alphas):
        A[0, j] = alpha * multiplier
    for i in range(1, p):
        A[i, i - 1] = 1.0
    b = np.zeros(A.shape[1:], dtype=A.dtype)
    b[0] = forcing * multiplier
    return A, b


def _apply_entrywise(pair, x):
    """A x + b for per-entry affine maps: a p x p product at every entry."""
    A, b = pair
    return (A * x).sum(axis=1) + b


def _compose_entrywise(first, then):
    """The per-entry map of `first` followed by `then`:
    (A1, b1) then (A2, b2) is (A2 A1, A2 b1 + b2)."""
    (A1, b1), (A2, _) = first, then
    return np.einsum("ijab,jlab->ilab", A2, A1), _apply_entrywise(then, b1)


def _bdf_jump(setup, steps):
    """`_collect`'s jump to tf for a BDF walk over the generator `steps`.

    In the eigen basis, from the history of the last node walked, the
    recurrence runs unscreened: the BDF step is a per-entry affine map in
    the complex eigenbasis, composed by repeated squaring into one map to
    tf, whose value is taken back to the real basis and lifted. In the
    Schur basis, or within the start-up steps, the walk goes on to tf."""
    basis = setup.basis

    def jump(node, s):
        history = node[3]
        if basis.multiplier is None or len(history) < len(setup.alphas):
            for Y, *_ in steps:
                pass
            return Y
        step = _bdf_step_map(basis.multiplier, basis.to_eigen(setup.forcing),
                             setup.alphas)
        x = _apply_entrywise(_pair_power(step, s, _compose_entrywise),
                             np.array([basis.to_eigen(Yr) for Yr in history]))
        return basis.lift(basis.from_eigen(x[0]))

    return jump


def _run_bdf_grid(T, Bm, P0, grid, order, w, keep_full, coupling=None,
                  stop=None):
    """The BDF grid over every node, or up to the batch `stop` ends it at,
    from where `_bdf_jump` reaches tf, with the residuals from `coupling`
    (see `_collect`)."""
    setup = _bdf_setup(T, Bm, P0, grid, order)
    steps = _bdf_steps(setup, w, full=keep_full)
    run = _collect(steps, grid.n_steps + 1, T.shape[0], w, keep_full, coupling,
                   stop, _bdf_jump(setup, steps), bdf_basis=setup.basis.kind,
                   bdf_cond=setup.basis.cond, step_pair=setup.step_pair)
    clips = frozenset(run.clipped)
    return replace(run, replay=functools.partial(_bdf_nodes, setup, w, clips),
                   replay_coords=functools.partial(_bdf_coords, setup, clips))


# -- outer Krylov loop ------------------------------------------------------


def as_operator(A):
    if isinstance(A, LinearOperator):
        return A
    import scipy.sparse as sp

    if sp.issparse(A):
        return wrap_sparse(A)
    return wrap_dense(np.asarray(A, dtype=float))


def _zero_trajectory(n, grid, config):
    zero, n_nodes = np.zeros((0, 0)), grid.n_steps + 1
    rec = IterationRecord(m=1, basis_size=0, residual_final=0.0,
                          residual_max=0.0, coupling_norm=0.0, gbar_sup=0.0,
                          small_final=zero, elapsed=0.0)
    return Trajectory(
        grid=grid, nodes=grid.nodes, final_small=zero,
        replay=functools.partial(itertools.repeat, zero, n_nodes),
        residuals=np.zeros(n_nodes), decomposition=None, converged=True,
        method=config.method, iterations=[rec], dim=n, config=config)


def _route(config):
    """(grid run, scheme order) of `config.method`, read from the module
    globals per call so wrappers on them see each call."""
    if config.method == "eba_exp":
        return _run_gram_grid, _QUADRATURE_ORDER
    if config.method == "eba_bdf":
        return _run_bdf_grid, config.bdf_order
    raise ValueError(f"unknown method {config.method!r}")


class KrylovStep(NamedTuple):
    """Krylov step m: the projected data. Its `coupling`, `inner_basis` and
    `decomposition` (a shallow copy) hold step m's arrays: later `extend`
    calls replace T_bar, and write basis columns only past the ones these
    views cover."""

    m: int
    basis_size: int
    T: np.ndarray
    Bm: np.ndarray
    P0: np.ndarray
    w: int                             # width of the newest inner block
    broke: bool                        # full breakdown: the last step
    coupling: np.ndarray
    inner_basis: np.ndarray
    decomposition: KrylovDecomposition
    started: float                     # perf_counter() before the extend


def krylov_steps(op, B, Z0, config):
    """The Krylov steps of the projection of (op, B, Z0), one per `extend`,
    up to `config.m_max` or a full breakdown; none when B and Z0 are zero.
    It makes no convergence decision."""
    B = np.asarray(B, dtype=float)
    if B.ndim == 1:
        B = B[:, None]
    if frob_norm(B) == 0.0 and Z0.shape[1] == 0:
        return
    start = np.hstack([B, Z0]) if Z0.shape[1] else B
    dec = KrylovDecomposition(op, start, variant=config.krylov_variant,
                              max_steps=config.m_max)
    broke = False
    while dec.m < config.m_max and not broke:
        started = time.perf_counter()
        try:
            dec.extend(op)
        except KrylovBreakdown as exc:
            # partial rank loss narrows the block and the process keeps
            # going; a full breakdown means the subspace is invariant
            broke = exc.rank == 0
        T, Bm, P0 = dec.T, dec.project_block(B), dec.project_block(Z0)
        yield KrylovStep(dec.m, dec.inner_width, T, Bm, P0,
                         dec.widths[dec.m - 1], broke, dec.coupling,
                         dec.inner_basis, copy.copy(dec), started)


def full_grid_run(step, grid, config, stop=None):
    """(run, residuals, record) of the grid walk of a Krylov step: the run
    over every node, or up to the batch `stop` ends it at (see `_collect`),
    reduced batch by batch to the residual at each node it walked, and its
    record, a "probe" row when the walk ended before tf. `stop(res)` reads
    the residuals of a batch."""
    grid_run, scheme = _route(config)
    run = grid_run(step.T, step.Bm, step.P0, grid, scheme, step.w,
                   keep_full=False, coupling=step.coupling, stop=stop)
    res = run.residuals
    if len(res) <= grid.n_steps:
        fields = {"grid": "probe",
                  "residual_final": float(residual_norm(step.coupling,
                                                        run.final)),
                  "gbar_sup": None, "probe_nodes": len(res)}
    else:
        fields = {"residual_final": float(res[-1]), "gbar_sup": run.gbar_sup}
    return run, res, IterationRecord(
        m=step.m, basis_size=step.basis_size, residual_max=float(np.max(res)),
        coupling_norm=frob_norm(step.coupling), small_final=run.final,
        elapsed=time.perf_counter() - step.started, bdf_basis=run.bdf_basis,
        bdf_cond=run.bdf_cond, psd_clips=run.psd_clips,
        step_pair=run.step_pair, **fields)


def _solve(op, B, X0, grid, config):
    op = as_operator(op)
    Z0 = X0.Z if X0 is not None else np.zeros((op.dim, 0))

    def stop(res):
        # a residual at or above tol proves this step has not converged
        return np.max(res) >= config.tol

    iterations = []
    converged = False
    for step in krylov_steps(op, B, Z0, config):
        last = step.broke or step.m >= config.m_max
        run, res, rec = full_grid_run(step, grid, config, None if last else stop)
        iterations.append(rec)
        # a walk that reached tf read every node
        converged = rec.grid == "full" and bool(np.max(res) < config.tol)
        if converged:
            break

    if not iterations:
        return _zero_trajectory(op.dim, grid, config)
    # the last step (converged, at m_max or broken down) walked every node
    return Trajectory(
        grid=grid, nodes=grid.nodes, final_small=run.final,
        replay=run.replay, residuals=res, decomposition=step.decomposition,
        converged=converged, method=config.method, iterations=iterations,
        dim=op.dim, config=config, replay_coords=run.replay_coords,
    )


def solve_eba_exp(op, B, X0, grid, config=None):
    """Arnoldi projection + exponential quadrature of the projected Gramian."""
    return _solve(op, B, X0, grid, replace(config or SolverConfig(), method="eba_exp"))


def solve_eba_bdf(op, B, X0, grid, config=None):
    """Arnoldi projection + fixed-step BDF on the projected matrix ODE."""
    return _solve(op, B, X0, grid, replace(config or SolverConfig(), method="eba_bdf"))


def solve(op, B, X0, grid, config):
    """The route `config.method` names."""
    return _solve(op, B, X0, grid, config)
