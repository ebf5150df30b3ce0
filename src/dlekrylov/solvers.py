"""Projection solvers for dX/dt = A X + X A^T + B B^T, X(t0) = Z0 Z0^T.

One generator, `krylov_steps`, walks the Krylov steps: one `extend` each,
with the projected data, and no convergence decision; each grid walk
builds its own step data. `solve` consumes it with the stop rule below;
the m sweep of the command line walks it once and runs the full grid at
the listed m.

Two routes propagate the projected solution over the time grid. The
exponential route propagates by the exact one-step pair (E, delta):
E = e^{hT}, and the increment delta, the Gramian integral over one step.
A Gauss-Legendre rule builds the pair of one panel short enough for the
rule, and repeated squaring of that pair composes the 2^j panels of a
step into delta (Van Loan, 1978). One table of the pairs (E, delta)^j,
j up to one batch of nodes, serves the whole exp grid: a grid run
reaches each batch end from the one before in one step and the nodes
in between only in the rows the residual formula reads, a replay forms
each batch in full, and a stopped walk reaches tf by powers of it.
The BDF route integrates the projected matrix ODE with a fixed-step
backward differentiation formula. Each BDF step is a small algebraic
Lyapunov equation with one coefficient on the whole grid, solved in a
real basis: in the real pair basis of the projected operator's
eigenvectors (a conjugate pair v, conj v becomes Re v, Im v) it is one
O(k^2) map, and when the eigenvectors are ill-conditioned the real Schur
basis takes over with one triangular Sylvester solve. Every node after t0
lives in that basis, the exact start-up steps too: two more such maps in
the pair basis, or the exponential route's pair moved into the Schur basis.
A BDF grid run lifts only the rows the residual formula reads, and the
whole node only at tf, at a node the PSD screen clips, or when every
node is asked for.
The residual comes from the coupling block, never from the large
approximation.

Each Krylov step walks its grid once. The walk holds the bar rows (the
last w rows of a node, all the residual formula reads) of one batch of
`_PROBE_STRIDE` nodes at a time, and reduces each batch to its residuals
and its largest row norm as it fills: a walk keeps one residual per node.
A full node it needs only at the end of a batch, where a stopped walk
ends. A solve holds one step's grid data at a time: a walk that does not
end the solve is dropped once its record is taken, before the next
`extend`, and a record keeps no node, only numbers.
Below the last step the walk carries a stop test: it reads the residuals
of each batch, and a residual at or above the tolerance proves the step
has not converged, so the walk ends there and the loop moves on. The
value at tf it reports is then reached from the last node walked by the
exact propagator over the remaining span: the table's pairs raised to
the remaining steps on the exp route, and on the BDF route the exact step
the start-up takes, over that span, in the grid's basis. It is only
reported, never decided on. A walk that reaches tf has visited every
node and decides; the last step's walk carries no stop test.

The trajectory of the last step is a stream: its step data regenerate
the projected solutions on demand with no new matrix exponential,
eigendecomposition or Lyapunov setup, holding O(s k^2) floats with
s = `_PROBE_STRIDE`. An exp replay reaches the batch ends as the deciding run
did, bitwise, and a BDF replay clips the nodes the deciding run clipped
with no new PSD screen.

The rank column counts, by inertia, the eigenvalues above a fixed
threshold at each node. On the exp route from X0 = 0 the projected
solution is the integral of e^{sT} Bm Bm^T e^{sT^T} from t0, which grows
in the Loewner order, and by Weyl's monotonicity theorem so does that
count: the rank pass counts the batch ends, and forms and counts node by
node only the batches whose end count moved, as the replay forms them. A
count it takes that falls, which only rounding near the threshold can
cause, sends the pass back to one count per node; a skipped node is not
counted, and where an eigenvalue sits within rounding of the threshold
its entry can differ by one from its own count. With an X0, and on the
BDF route, whose BDF2 and BDF3 steps do not always keep the order,
every node is counted.
"""
import copy
import functools
import itertools
import math
import numbers
import sys
import time
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np
from scipy.linalg import lapack

from .dense import (LyapunovSolver, as_block, check_lyapunov_solvable, expm,
                    frob_norm, spec_norm_2, sym_part)
from .krylov import KrylovBreakdown, KrylovDecomposition
from .sparsela import LinearOperator, wrap_dense, wrap_sparse

BDF_TABLE = {
    1: (1.0, (1.0,)),
    2: (2.0 / 3.0, (4.0 / 3.0, -1.0 / 3.0)),
    3: (6.0 / 11.0, (18.0 / 11.0, -9.0 / 11.0, 2.0 / 11.0)),
}

# Point count of the Gauss-Legendre panel rule of the exp route's step
# pair, the node count of a batch the stop test of a grid walk reads, and
# the threshold above which an eigenvalue of a projected solution counts
# toward its rank and its truncated factor; all are read at call time.
_QUADRATURE_ORDER = 4
_PROBE_STRIDE = 10
_RANK_THRESHOLD = 1e-12


class PSDViolationError(ValueError):
    """A projected solution has an eigenvalue below the allowed floor."""


def check_fields(obj, rule, *names, least=None):
    """Raise a ValueError naming the first of the fields `names` of `obj`
    that `rule` refuses: a tuple takes its members, "integer" an integer
    (at least `least`, if given), "finite" a number within float range,
    "positive" a positive one and "string" a string. A bool is no number,
    though Python counts it an integer: JSON true would read as 1. JSON
    reads 1 followed by 400 zeros as an integer no float holds."""
    for name in names:
        value = getattr(obj, name)
        number = isinstance(value, numbers.Real) and not isinstance(value, bool)
        if isinstance(rule, tuple):
            ok, need = value in rule, f"one of {list(rule)}"
        elif rule == "string":
            ok, need = isinstance(value, str), "a string"
        elif rule == "integer":
            ok, need = number and isinstance(value, numbers.Integral), "an integer"
        else:
            positive = rule == "positive"
            ok = (number and abs(value) <= sys.float_info.max
                  and (value > 0 or not positive))
            need = "a positive finite number" if positive else "a finite number"
        if not ok:
            raise ValueError(f"{name} must be {need}, got {value!r}")
        if least is not None and value < least:
            raise ValueError(f"{name} must be at least {least}, got {value}")


def from_fields(cls, fields, unknown):
    """`cls(**fields)` for the dataclass `cls`; keys that name none of its
    fields are a ValueError reading `unknown` and the sorted keys."""
    bad = sorted(set(fields) - set(cls.__dataclass_fields__))
    if bad:
        raise ValueError(f"{unknown} {bad}")
    return cls(**fields)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t0, t0+h, ..., tf."""

    t0: float
    tf: float
    h: float

    def __post_init__(self):
        check_fields(self, "finite", "t0", "tf", "h")
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
        check_fields(self, ("eba_exp", "eba_bdf"), "method")
        check_fields(self, ("extended", "block"), "krylov_variant")
        check_fields(self, "integer", "m_max", "bdf_order")
        check_fields(self, "positive", "tol")
        check_fields(self, "integer", "m_max", least=1)
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
    None. Its `residual_final` is at tf, at the value reached from the
    last node walked by the exact propagator over the remaining span,
    unscreened: on eba-exp the step pair raised to the remaining steps, so
    it matches the full grid at rounding level; on eba-bdf the exact
    solution from that node, which differs from the BDF grid's value at
    tf by the scheme's own error. A "full" step walked every node.
    `psd_clips` counts the clipped nodes among the nodes the walk
    recorded. A record holds no node: the value at tf is the run's
    `final`. `report.json` holds each record as a row of its fields but
    the one marked `report` False."""

    m: int
    basis_size: int
    residual_final: float
    residual_max: float
    coupling_norm: float
    gbar_sup: float = field(metadata={"report": False})
    elapsed_s: float
    bdf_basis: str = None              # step basis of a BDF grid run
    bdf_cond: float = None             # cond(V) that chose that basis
    grid: str = "full"                 # "probe" | "full"
    psd_clips: int = 0                 # PSD screen clips of that grid run
    probe_nodes: int = None            # nodes a stopped walk visited


@dataclass
class Trajectory:
    """Projected solutions Y(t_i) on the grid nodes, X(t_i) ~= V Y(t_i) V^T.

    The nodes are a stream, not a stored array: `replay()` returns a fresh
    iterator over Y(t_0), ..., Y(t_N) that re-runs the last Krylov step's
    grid from its step data, so walking it holds O(s k^2) floats with
    s = `_PROBE_STRIDE`. A replay clips the nodes the deciding grid run's
    PSD screen clipped and screens none: its inputs are that run's
    bitwise, so its decisions are too.
    `count(out, tau)`, set by the grid run, is its rank pass (see `ranks`):
    it fills `out[:-1]` and returns True, or returns False where its rule
    does not hold, for the default pass to fill them.
    The value at tf is kept as `final_small` and read without a replay.
    Random access to node i replays i steps; `small_solutions` materializes
    every node once, at O(N k^2) memory kept for the trajectory's life, and
    is meant for tests and small problems.
    """

    grid: TimeGrid
    final_small: np.ndarray            # (k, k) at tf
    replay: object                     # () -> iterator over the n_nodes (k, k)
    residuals: np.ndarray
    decomposition: KrylovDecomposition
    converged: bool
    iterations: list
    dim: int
    config: SolverConfig
    count: object = None               # (out, tau) -> bool: the rank pass

    @property
    def nodes(self):
        return self.grid.nodes

    @property
    def method(self):
        return self.config.method

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
        counted by inertia (`_count_above`): no eigendecomposition, no
        lift of a basis node and no PSD screen. The grid run's `count`
        fills them by its route's rule, where it has one; without one, or
        where it returns False, every node of `replay()` is counted
        (`_count_each`).

        Where a node's eigenvalue lies within rounding of the threshold,
        its count and the width of `lowrank_factor(i)`, which counts the
        lifted node, can differ by one; and a node the rule skips, which
        is not counted, can differ by one from its own count."""
        tau = _RANK_THRESHOLD
        out = np.empty(len(self.nodes), dtype=int)
        out[-1] = _count_above(self.final_small, tau)
        if self.count is None or not self.count(out, tau):
            _count_each(((G, None) for G in self.replay()), out, tau)
        return out


# -- small dense building blocks -------------------------------------------


@functools.lru_cache(maxsize=None)
def _legendre_rule(q):
    """Nodes and weights of the q-point Gauss-Legendre rule on [-1, 1]."""
    x, w = np.polynomial.legendre.leggauss(q)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def gauss_legendre(q, a, b):
    x, w = _legendre_rule(q)
    return 0.5 * (b - a) * (x + 1.0) + a, 0.5 * (b - a) * w


def _panel_halvings(t_norm, h, q):
    """Fewest halvings j of h whose panel h / 2^j the q-point rule
    resolves: integrand variation exp(c s) with |c| <= 2||T||, per-panel
    relative error below 1e-14. A tighter bound gains nothing: each
    halving adds one squaring to `exact_step_pair`'s composition, and
    with it rounding error."""
    coef = math.exp(4.0 * math.lgamma(q + 1) - math.log(2 * q + 1)
                    - 3.0 * math.lgamma(2 * q + 1))
    c_max = (1e-14 / coef) ** (1.0 / (2 * q))
    panels = max(1, math.ceil(2.0 * t_norm * h / c_max))
    return (panels - 1).bit_length()


def _panel_increment(T, B, width, q):
    """integral over [0, width] of e^{sT} B B^T e^{sT^T} ds by the q-point
    Gauss-Legendre rule on the one panel."""
    k = T.shape[0]
    sigma, wts = gauss_legendre(q, 0.0, width)
    acc = np.zeros((k, k))
    for s_j, w_j in zip(sigma, wts):
        W = expm(s_j * T) @ B
        acc += w_j * (W @ W.T)
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


def _shifted(Y, s, gram_inv):
    """A new Y + s gram_inv (Y + s I for None), congruent to M Y M^T + s I."""
    if gram_inv is None:
        shifted = Y.copy()
        shifted.flat[::Y.shape[0] + 1] += s
    else:
        shifted = s * gram_inv
        shifted += Y
    return shifted


def _count_above(Y, tau, gram_inv=None):
    """Count of the eigenvalues of M Y M^T above tau, M = I when `gram_inv`
    is None, else `gram_inv` = (M^T M)^-1; Y is symmetric and only its
    lower triangle is read.

    By congruence (Sylvester's law of inertia) M Y M^T - tau I and
    Y - tau gram_inv have as many positive eigenvalues, and so does the
    block-diagonal D of the Bunch-Kaufman factorization L D L^T of the
    latter (`dsytrf`): a 1x1 pivot counts when positive, and a 2x2 pivot
    [[a, b], [b, c]] counts once, since the pivoting takes one only when
    |a c| < alpha^2 b^2 < b^2, so it has one eigenvalue of each sign
    (Bunch & Kaufman, Math. Comp. 31, 1977). About a quarter of the flops
    of an eigvalsh."""
    k = Y.shape[0]
    if k == 0:
        return 0
    ldu, ipiv, _ = lapack.dsytrf(_shifted(Y, -tau, gram_inv), lower=True,
                                 lwork=_sytrf_lwork(k), overwrite_a=True)
    # both rows of a 2x2 pivot hold the same negative ipiv entry
    return int(np.count_nonzero(ldu.diagonal()[ipiv > 0] > 0)
               + np.count_nonzero(ipiv < 0) // 2)


def _count_each(walk, out, tau):
    """Fill `out[:-1]` with the counts above tau at the nodes of `walk`,
    pairs (Y, gram_inv) as `_count_above` reads them, one count a node;
    the walk's last node, which `out[-1]` counts, is not read."""
    for i, (Y, gram_inv) in enumerate(itertools.islice(walk, len(out) - 1)):
        out[i] = _count_above(Y, tau, gram_inv)


def _count_batches(batches, out, tau):
    """Fill `out` with the counts above tau at the nodes of a grid whose
    nodes grow in the Loewner order, `out[-1]` holding the last node's
    already, from `batches`, tuples (a, G_a, b, G_b, between) as
    `_gram_batches` yields them. Each batch end is counted; the nodes
    between two ends of equal count take that count, and those of a batch
    whose end count moved are formed by `between()` and counted. True when
    done; False, with `out` part filled, as soon as a count falls below
    the one before it, at a batch end or inside a batch."""
    last = len(out) - 1
    for a, G_a, b, G_b, between in batches:
        if a == 0:
            out[0] = _count_above(G_a, tau)
        if b < last:
            out[b] = _count_above(G_b, tau)
        if out[b] == out[a]:
            out[a + 1:b] = out[a]
            continue
        for i, Y in enumerate(between(), a + 1):
            out[i] = _count_above(Y, tau)
        if np.any(np.diff(out[a:b + 1]) < 0):
            return False
    return True


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
    return lapack.dpotrf(_shifted(Y, shift, gram_inv), lower=True,
                         overwrite_a=True, clean=False)[1] == 0


def _psd_clip(Y):
    """Y with its negative eigenvalues set to zero."""
    vals, vecs = np.linalg.eigh(Y)
    return (vecs * np.clip(vals, 0.0, None)) @ vecs.T


# -- grid propagation for one Krylov step ----------------------------------


@dataclass
class _SmallRun:
    """A grid walk reduced to what its caller reads: the residual at each
    node walked, the largest bar-row norm over them, the value at tf and,
    when asked, every node walked and the bar rows the walk read of it."""

    residuals: np.ndarray              # (nodes walked,)
    gbar_sup: float                    # max over them of ||Y[k-w:, :]||_F
    final: np.ndarray                  # (k, k)
    replay: object                     # () -> iterator over the n_nodes (k, k)
    full: np.ndarray = None            # (nodes walked, k, k) when requested
    # the walk's own rows, those the residuals were taken from, when
    # requested: bitwise full[:, k-w:, :], but inside an exp batch, which
    # forms them apart from the full node, only within rounding of those
    bar_rows: np.ndarray = None        # (nodes walked, w, k)
    bdf_basis: str = None              # "eigen" | "schur" on BDF grids
    bdf_cond: float = None             # cond(V) of the eigenvectors
    clipped: tuple = ()                # nodes the PSD screen clipped
    count: object = None               # `Trajectory.count`

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
    their norms. Y may be None inside a batch; it is read at the batch
    ends, the last node walked among them. The run keeps those residuals,
    the final node, the clipped nodes and, when `keep_full` is set, every
    node and its rows; `fields` are further `_SmallRun` fields. The caller
    sets the replay and the rank pass.

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
    bar_rows = np.empty((n_nodes, w, k)) if keep_full else None
    clipped = []
    for i, node in enumerate(steps):
        G, rows, clip = node[:3]
        batch[i % stride] = rows
        if keep_full:
            full[i] = G
            bar_rows[i] = rows
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
        full, bar_rows = full[:walked], bar_rows[:walked]
    return _SmallRun(residuals=res[:walked], gbar_sup=math.sqrt(sup), final=G,
                     replay=None, full=full, bar_rows=bar_rows,
                     clipped=tuple(clipped), **fields)


def _batches(n_steps, s):
    """(a, b) for the batches of a walk over the nodes 0..N in batches of
    s nodes, as `_collect` reads them: a is the previous batch end (0 at
    first) and b the next, the first node after a with b + 1 a multiple of
    s, or N."""
    a = 0
    while a < n_steps:
        b = min(a + s - (a + 1) % s, n_steps)
        yield a, b
        a = b


class _Stride(NamedTuple):
    """The pairs (E_j, delta_j) = (E, delta)^j, j = 1..n, of an exp grid
    walked in batches of s nodes, n the longest batch (see `_gram_nodes`)."""

    s: int
    E: np.ndarray                      # (n, k, k): E_j at j - 1
    delta: np.ndarray                  # (n, k, k): delta_j at j - 1


def _propagate(pair, G):
    """The node after G by the step pair (E, delta): E G E^T + delta."""
    E, delta = pair
    return sym_part(E @ G @ E.T + delta)


def _stride_pairs(E, delta, n_steps):
    """The `_Stride` table of the one-step pair (E, delta) for a grid of N
    steps in batches of `_PROBE_STRIDE` nodes, each pair the one-step pair
    then the one before (`_compose`): E_j = E_{j-1} E,
    delta_j = E_{j-1} delta E_{j-1}^T + delta_{j-1}."""
    s, k = _PROBE_STRIDE, E.shape[0]
    n = max(b - a for a, b in _batches(n_steps, s))
    pairs = _Stride(s, np.empty((n, k, k)), np.empty((n, k, k)))
    pairs.E[0], pairs.delta[0] = E, delta
    for j in range(1, n):
        pairs.E[j], pairs.delta[j] = _compose((E, delta),
                                              (pairs.E[j - 1], pairs.delta[j - 1]))
    return pairs


def _batch_nodes(pairs, G, n):
    """The n nodes after a batch end held as G, E_j G E_j^T + delta_j for
    j = 1..n, as one (n, k, k) array formed by two stacked products."""
    Y = pairs.E[:n] @ G @ pairs.E[:n].transpose(0, 2, 1)
    Y += pairs.delta[:n]
    # sym_part in place, bitwise, with no stacked temporary to raise the
    # peak RSS: numpy buffers the overlapping transpose
    Y += Y.transpose(0, 2, 1)
    Y *= 0.5
    return Y


def _gram_batches(pairs, G0, n_steps):
    """(a, G_a, b, G_b, between) for the batches of the exp grid from G0
    (see `_batches`): the batch ends a and b, G_b formed alone by the
    table's pair of b - a steps, and `between()`, which forms the nodes
    a+1..b-1 by `_batch_nodes`. The one batch walk of the grid:
    `_gram_nodes` and the exp grid's rank pass both read it."""
    G = G0
    for a, b in _batches(n_steps, pairs.s):
        G_b = _propagate((pairs.E[b - a - 1], pairs.delta[b - a - 1]), G)
        yield a, G, b, G_b, functools.partial(_batch_nodes, pairs, G, b - a - 1)
        G = G_b


def _gram_nodes(pairs, G0, n_steps, w, full=True):
    """(G_i, rows_i, False) for the nodes i = 0..N of the propagation
    G -> E G E^T + delta, read from the `_Stride` table of (E, delta),
    with rows_i the last w rows of G_i.

    From a batch end a (see `_gram_batches`), held in full, node a + j is
    E_j G_a E_j^T + delta_j: the next batch end in full, and the nodes in
    between only in their rows, (E_j[k-w:] G_a) E_j^T + delta_j[k-w:],
    all of a batch's by two stacked products. Their G_i are None unless
    `full` is set, which forms them by `between()` and keeps the rows of
    the walk without it."""
    k = G0.shape[0]
    E_t = pairs.E.transpose(0, 2, 1)
    E_bar = pairs.E[:, k - w:].reshape(-1, k)
    yield G0, G0[k - w:], False
    for a, G, b, G_b, between in _gram_batches(pairs, G0, n_steps):
        n = b - a
        rows = (E_bar[:(n - 1) * w] @ G).reshape(n - 1, w, k)
        rows = rows @ E_t[:n - 1] + pairs.delta[:n - 1, k - w:]
        Y = between() if full else itertools.repeat(None)
        for Y_j, rows_j in zip(Y, rows):
            yield Y_j, rows_j, False
        yield G_b, G_b[k - w:], False


def _compose(first, then):
    """The propagator pair of `first` followed by `then`:
    (E1, d1) then (E2, d2) is (E2 E1, E2 d1 E2^T + d2)."""
    (E1, d1), (E2, _) = first, then
    return E2 @ E1, _propagate(then, d1)


def _pair_power(pair, s):
    """The propagator pair `pair` applied s >= 1 times in a row, by
    repeated squaring."""
    out = None
    while True:
        if s & 1:
            out = pair if out is None else _compose(out, pair)
        s >>= 1
        if not s:
            return out
        pair = _compose(pair, pair)


def exact_step_pair(T, B, h, q):
    """(E, delta) with Y -> E Y E^T + delta the exact one-step propagator
    of dY/dt = T Y + Y T^T + B B^T: E = e^{hT} and delta the Gramian
    integral over one step.

    The q-point rule `_panel_increment` builds the pair of one panel of
    width tau = h / 2^j, j the fewest halvings whose panel it resolves, and
    the pair composed with itself 2^j times by repeated squaring gives
    delta: (E, d) then (E, d) is (E^2, E d E^T + d). Each term the
    composition adds is positive semidefinite, so nothing cancels,
    whatever the eigenvalues of T. E comes from one expm: the squared
    panel exponential carries about 2^j times its rounding error, which
    the grid's steps would compound."""
    j = _panel_halvings(spec_norm_2(T), h, q)
    tau = h / 2 ** j
    panel = (expm(tau * T), _panel_increment(T, B, tau, q))
    E = expm(h * T) if j else panel[0]
    return E, _pair_power(panel, 2 ** j)[1]


def _run_gram_grid(T, Bm, P0, grid, q, w, keep_full, coupling=None,
                   stop=None):
    """The exp grid over every node, or up to the batch `stop` ends it at,
    from where the table's pairs reach tf, with the residuals from
    `coupling` (see `_collect`), walked by `_gram_nodes` from one
    `_stride_pairs` table: one full propagation per batch. Its replay
    reads the same table and forms each batch in full."""
    k, G0 = T.shape[0], P0 @ P0.T          # G0 zero when P0 has no column
    pairs = _stride_pairs(*exact_step_pair(T, Bm, grid.h, q), grid.n_steps)
    nodes = functools.partial(_gram_nodes, pairs, G0, grid.n_steps, w)

    def jump(node, s):
        # the longest pair to the power of the whole batches in s, then
        # the remainder's pair
        whole, rest = divmod(s, len(pairs.E))
        longest = (pairs.E[-1], pairs.delta[-1])
        parts = [_pair_power(longest, whole)] if whole else []
        parts += [(pairs.E[rest - 1], pairs.delta[rest - 1])] if rest else []
        return _propagate(functools.reduce(_compose, parts), node[0])

    def count(out, tau):
        # From G0 = 0 the nodes grow in the Loewner order: Y(t) is the
        # integral over [t0, t] of e^{sT} Bm Bm^T e^{sT^T}, and its
        # increments are positive semidefinite. By Weyl's monotonicity
        # theorem each eigenvalue grows too, and with it the count above a
        # fixed threshold. So the pass counts the batch ends, and every
        # node between two ends of the same count has that count; only a
        # batch whose end count moved is formed and counted node by node
        # (`_count_batches`). The rounded nodes are monotone only up to
        # rounding: if any count it takes falls below one before it, the
        # threshold lies within the rounding of an eigenvalue, and the
        # default pass counts every node instead, as it does from an X0.
        return not P0.shape[1] and _count_batches(
            _gram_batches(pairs, G0, grid.n_steps), out, tau)

    # the exp grid never clips
    run = _collect(nodes(full=keep_full), grid.n_steps + 1, k, w, keep_full,
                   coupling, stop, jump)
    return replace(run, replay=lambda: (G for G, *_ in nodes()), count=count)


# Above this cond(V) the eigenbasis step loses accuracy like
# cond(V)^2 * eps, so the BDF grid runs in the real Schur basis instead.
_EIGEN_COND_MAX = 1e3


class _StepBasis:
    """Real basis M in which a BDF grid holds every node after t0 as
    Yr = M^-1 Y M^-T.

    `solve` maps the right-hand side R (in the basis) of
    F Y + Y F^T = -R to Y (in the basis), F = h*beta*T - I/2: one
    triangular Sylvester solve in the real Schur basis, one real O(k^2)
    `entrywise` map in the real pair basis of the eigenvectors
    (`_pair_basis`). `gram` = M^T M and `gram_inv`, its inverse, carry the
    PSD screen into the basis; both are None where M is orthogonal. In the
    pair basis `lam` are T's eigenvalues in the order of the eigenbasis
    V = M P, the real ones first; it is None in the Schur basis."""

    def __init__(self, kind, cond, M, M_inv, solve=None, gram=None,
                 gram_inv=None, lam=None):
        self.kind = kind
        self.cond = cond
        self.M = M
        self.M_inv = M_inv
        self.solve = solve
        self.gram = gram
        self.gram_inv = gram_inv
        self.lam = lam

    def project(self, Y):
        return self.M_inv @ Y @ self.M_inv.T

    def lift_rows(self, Yr, w):
        """The last w rows of `lift(Yr)`, at O(w k^2); none, with no
        product, at w = 0."""
        k = Yr.shape[0]
        if not w:
            return np.empty((0, k))
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

    def entrywise(self, mult):
        """The product by `mult` elementwise in the eigenbasis, read in the
        pair basis: the real map Yr -> P (mult * (P^-1 Yr P^-T)) P^T, mult
        a function of lam_a + lam_b, at O(k^2). With a' and b' the other
        row and column of a's and b's conjugate pair, it takes R to
        C_diag R[a, b] + C_rows R[a', b] + C_cols R[a, b'] + C_both
        R[a', b'] at (a, b), each weight a signed mean of Re or Im of mult
        over the terms (a, b), (a, b'), (a', b), (a', b') that exist (a
        real eigenvalue has no partner); between real eigenvalues, R * mult:
            C_diag  Re  + + + +        C_cols  Im  + - + -
            C_rows  Im  + + - -        C_both  Re  - + + -
        They are mult contracted with P's 2x2 blocks, whose entries +-1/2
        and +-i/2 make every term exact, so summed left to right in that
        order each weight is bitwise the complex contraction's."""
        k = len(self.lam)
        r = int(np.count_nonzero(self.lam.imag == 0))
        p = (k - r) // 2
        # Re and Im of mult on the pair rows' and columns' strips and the
        # pair block; a reversed pair axis reads the partners
        re, im = mult.real, mult.imag
        Xr, Yr = (part[r:, :r].reshape(p, 2, r) for part in (re, im))
        Xc, Yc = (part[:r, r:].reshape(r, p, 2) for part in (re, im))
        X, Y = (part[r:, r:].reshape(p, 2, p, 2) for part in (re, im))
        X1, X2, X3 = X[..., ::-1], X[:, ::-1], X[:, ::-1, :, ::-1]
        Y1, Y2, Y3 = Y[..., ::-1], Y[:, ::-1], Y[:, ::-1, :, ::-1]
        C_diag = np.block([
            [re[:r, :r], ((Xc + Xc[..., ::-1]) / 2).reshape(r, 2 * p)],
            [((Xr + Xr[:, ::-1]) / 2).reshape(2 * p, r),
             ((X + X1 + X2 + X3) / 4).reshape(2 * p, 2 * p)]])
        C_rows = np.concatenate([(Yr - Yr[:, ::-1]) / 2, (
            (Y + Y1 - Y2 - Y3) / 4).reshape(p, 2, 2 * p)], axis=2)
        C_cols = np.concatenate([(Yc - Yc[..., ::-1]) / 2, (
            (Y - Y1 + Y2 - Y3) / 4).reshape(2 * p, p, 2)])
        C_both = (X1 - X + X2 - X3) / 4

        def apply(R):
            # the pairs' rows and columns are contiguous, so reshaped
            # views with a reversed pair axis read R at the partners
            out = np.multiply(R, C_diag, order="C")
            rows = out[r:].reshape(p, 2, k)
            rows += C_rows * R[r:].reshape(p, 2, k)[:, ::-1]
            cols = out[:, r:].reshape(k, p, 2)
            cols += C_cols * R[:, r:].reshape(k, p, 2)[:, :, ::-1]
            both = out[r:, r:].reshape(p, 2, p, 2)
            both += C_both * R[r:, r:].reshape(p, 2, p, 2)[:, ::-1, :, ::-1]
            return out

        return apply


def _pair_basis(lam, W, cond, h_beta):
    """The eigen step basis in real coordinates: W, the real pair basis
    of `_bdf_basis`, with `lam` in its order and `cond` = cond(V) =
    cond(W D). The eigenbasis solve is Rh * inv_pair elementwise,
    inv_pair_ab = -1 / (lam_F_a + lam_F_b) over the eigenvalues
    lam_F = h_beta*lam - 1/2 of F, and `entrywise` reads it in W's
    coordinates."""
    W_inv = np.linalg.inv(W)
    lam_F = h_beta * lam - 0.5
    check_lyapunov_solvable(lam_F)
    inv_pair = -1.0 / (lam_F[:, None] + lam_F[None, :])
    basis = _StepBasis("eigen", cond, W, W_inv, gram=W.T @ W,
                       gram_inv=W_inv @ W_inv.T, lam=lam)
    basis.solve = basis.entrywise(inv_pair)
    return basis


def _bdf_basis(T, h_beta):
    """Step basis of a BDF grid: the real pair basis W of T's eigenvectors
    V when cond(V) is at most _EIGEN_COND_MAX, else the real Schur vectors
    of F = h_beta*T - I/2.

    Each conjugate pair (v, conj v) of eigenvectors in V becomes the
    columns (Re v, Im v) of W, which lists T's real eigenvalues first and
    then the pairs. So V = W P up to that order, with P 2x2-block-diagonal:
    blocks [[1, 1], [i, -i]] on the pairs and 1 elsewhere. P = D U with U
    unitary and D = sqrt(2) on the pair columns and 1 elsewhere, so
    cond(V) = cond(W D) exactly, read from the singular values of the real
    W D: no complex array reaches LAPACK."""
    lam, V = np.linalg.eig(T)
    first = np.flatnonzero(lam.imag > 0)   # LAPACK lists v before conj v
    order = np.r_[np.flatnonzero(lam.imag == 0), np.c_[first, first + 1].ravel()]
    lam, V = lam[order], V[:, order]
    r = len(lam) - 2 * len(first)          # r real eigenvalues, then pairs
    W = np.array(V.real)
    W[:, r + 1::2] = V[:, r::2].imag
    d = np.ones(len(lam))
    d[r:] = math.sqrt(2.0)
    sv = np.linalg.svd(W * d, compute_uv=False)
    with np.errstate(divide="ignore", over="ignore"):
        cond = float(sv[0] / sv[-1])       # inf where W is singular
    if cond <= _EIGEN_COND_MAX:
        return _pair_basis(lam, W, cond, h_beta)
    lyap = LyapunovSolver(h_beta * T - 0.5 * np.eye(T.shape[0]))
    return _StepBasis("schur", cond, lyap.U, lyap.U.T, lyap.solve_schur)


def _exact_step(T, Bm, h, basis, Q):
    """The exact step Yr -> Yr(t + h) of dY/dt = T Y + Y T^T + Bm Bm^T on
    basis values over any span h, Q = Bm Bm^T in the basis. In the
    eigenbasis it is Yh -> e^{hS} * Yh + Qh * expm1(hS)/S elementwise,
    S_ab = lam_a + lam_b (h where S = 0), so in the pair basis it is two
    `entrywise` maps, the second applied once to Q; in the Schur basis U,
    `exact_step_pair`'s (E, delta) as (U^T E U, U^T delta U)."""
    if basis.kind == "schur":
        E, delta = exact_step_pair(T, Bm, h, _QUADRATURE_ORDER)
        E, delta = basis.M_inv @ E @ basis.M, basis.project(delta)
        return functools.partial(_propagate, (E, delta))
    S = basis.lam[:, None] + basis.lam[None, :]
    phi = np.divide(np.expm1(h * S), S, out=np.full_like(S, h), where=S != 0)
    propagate = basis.entrywise(np.exp(h * S))
    increment = basis.entrywise(phi)(Q)
    return lambda Yr: propagate(Yr) + increment


class _BDFSetup(NamedTuple):
    """Step data of a BDF grid, as `_bdf_steps` reads them."""

    Y0: np.ndarray
    startup: object                    # `_exact_step` over h; None for BDF1
    basis: _StepBasis
    Q: np.ndarray                      # Bm Bm^T in the basis
    forcing: np.ndarray                # h*beta*Q
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
    startup = _exact_step(T, Bm, grid.h, basis, Q) if order > 1 else None
    return _BDFSetup(Y0, startup, basis, Q, grid.h * beta * Q, alphas,
                     grid.n_steps)


def _bdf_steps(setup, w, full=True, clips=None):
    """(Y_i, rows_i, clipped, Yr_i) for the nodes i = 0..N of a BDF grid
    from its `_bdf_setup` step data: Y0, then values Yr_i in `basis`, by
    the `startup` map up to node len(alphas) - 1 and BDF steps after it.
    `rows_i` are the last w rows of Y_i. `clipped` tells whether the PSD
    screen, run in the basis, failed: the node is lifted, clipped by
    `_psd_clip` and projected back. `clips`, when given, is the set of the
    nodes a screened pass over the same step data clipped: those nodes
    clip and no node is screened, which decides as that pass did, since
    the inputs are bitwise the same. A node after Y0 that is not clipped
    lifts only its rows, and its full Y_i too when `full` is set or i = N;
    otherwise Y_i is None. `Yr_i` is the node's value in the basis, for a
    clipped node the clipped value projected back."""
    Y0, basis, alphas = setup.Y0, setup.basis, setup.alphas
    k, order = Y0.shape[0], len(alphas)
    # the last len(alphas) basis values (fewer in the start-up), newest first
    history = [basis.project(Y0)]
    yield Y0, Y0[k - w:, :], False, history[0]
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
        yield Y, rows, clipped, Yr


def _run_bdf_grid(T, Bm, P0, grid, order, w, keep_full, coupling=None,
                  stop=None):
    """The BDF grid over every node, or up to the batch `stop` ends it at,
    from where the exact step over the remaining span reaches tf, with the
    residuals from `coupling` (see `_collect`)."""
    setup = _bdf_setup(T, Bm, P0, grid, order)
    basis = setup.basis

    def jump(node, s):
        # from the basis value of the last node walked, unscreened
        step = _exact_step(T, Bm, s * grid.h, basis, setup.Q)
        return basis.lift(step(node[3]))

    def count(out, tau):
        # Every node, since BDF2 and BDF3 steps are not known to keep the
        # Loewner order, on one walk at bar width 0 that lifts no basis
        # node: a node the grid holds lifted (Y0, clipped, tf) is counted
        # as it is, any other as its basis value with the basis's gram_inv.
        walk = _bdf_steps(setup, 0, full=False, clips=clips)
        _count_each(((Y, None) if Y is not None else (Yr, basis.gram_inv)
                     for Y, _, _, Yr in walk), out, tau)
        return True

    run = _collect(_bdf_steps(setup, w, full=keep_full), grid.n_steps + 1,
                   T.shape[0], w, keep_full, coupling, stop, jump,
                   bdf_basis=basis.kind, bdf_cond=basis.cond)
    clips = frozenset(run.clipped)
    return replace(run, count=count, replay=lambda: (
        Y for Y, *_ in _bdf_steps(setup, w, clips=clips)))


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
                          elapsed_s=0.0)
    return Trajectory(
        grid=grid, final_small=zero,
        replay=functools.partial(itertools.repeat, zero, n_nodes),
        residuals=np.zeros(n_nodes), decomposition=None, converged=True,
        iterations=[rec], dim=n, config=config)


def _route(config):
    """(grid run, scheme order) of `config.method`, read from the module
    globals per call so wrappers on them see each call."""
    if config.method == "eba_exp":
        return _run_gram_grid, _QUADRATURE_ORDER
    if config.method == "eba_bdf":
        return _run_bdf_grid, config.bdf_order
    raise ValueError(f"unknown method {config.method!r}")


class KrylovStep(NamedTuple):
    """Krylov step m: the projected data. Its `decomposition` is a shallow
    copy that holds step m's state: its m, T, coupling, widths and inner
    width are step m's, since later `extend` calls replace T_bar and the
    widths, and write basis columns only past the ones its views cover."""

    decomposition: KrylovDecomposition
    Bm: np.ndarray
    P0: np.ndarray
    broke: bool                        # full breakdown: the last step
    started: float                     # perf_counter() before the extend


def krylov_steps(op, B, Z0, config):
    """The Krylov steps of the projection of (op, B, Z0), one per `extend`,
    up to `config.m_max` or a full breakdown; none when B and Z0 are zero.
    It makes no convergence decision."""
    B = as_block(B)
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
        yield KrylovStep(copy.copy(dec), dec.project_block(B),
                         dec.project_block(Z0), broke, started)


def full_grid_run(step, grid, config, stop=None):
    """(run, residuals, record) of the grid walk of a Krylov step: the run
    over every node, or up to the batch `stop` ends it at (see `_collect`),
    reduced batch by batch to the residual at each node it walked, and its
    record, a "probe" row when the walk ended before tf. `stop(res)` reads
    the residuals of a batch."""
    grid_run, scheme = _route(config)
    dec = step.decomposition
    run = grid_run(dec.T, step.Bm, step.P0, grid, scheme, dec.widths[dec.m - 1],
                   keep_full=False, coupling=dec.coupling, stop=stop)
    res = run.residuals
    if len(res) <= grid.n_steps:
        fields = {"grid": "probe",
                  "residual_final": float(residual_norm(dec.coupling, run.final)),
                  "gbar_sup": None, "probe_nodes": len(res)}
    else:
        fields = {"residual_final": float(res[-1]), "gbar_sup": run.gbar_sup}
    return run, res, IterationRecord(
        m=dec.m, basis_size=dec.inner_width, residual_max=float(np.max(res)),
        coupling_norm=frob_norm(dec.coupling),
        elapsed_s=time.perf_counter() - step.started, bdf_basis=run.bdf_basis,
        bdf_cond=run.bdf_cond, psd_clips=run.psd_clips, **fields)


def solve(op, B, X0, grid, config):
    """The route `config.method` names."""
    op = as_operator(op)
    Z0 = X0.Z if X0 is not None else np.zeros((op.dim, 0))

    def stop(res):
        # a residual at or above tol proves this step has not converged
        return np.max(res) >= config.tol

    iterations = []
    converged = False
    for step in krylov_steps(op, B, Z0, config):
        last = step.broke or step.decomposition.m >= config.m_max
        run, res, rec = full_grid_run(step, grid, config, None if last else stop)
        iterations.append(rec)
        # a walk that reached tf read every node
        converged = rec.grid == "full" and bool(np.max(res) < config.tol)
        if converged or last:
            break
        # the walk's step data are not needed past its record: they go
        # before the next extend
        del run

    if not iterations:
        return _zero_trajectory(op.dim, grid, config)
    # the last step (converged, at m_max or broken down) walked every node
    return Trajectory(
        grid=grid, final_small=run.final, replay=run.replay, residuals=res,
        decomposition=step.decomposition, converged=converged,
        iterations=iterations, dim=op.dim, config=config, count=run.count,
    )


def solve_eba_exp(op, B, X0, grid, config=None):
    """Arnoldi projection + exponential quadrature of the projected Gramian."""
    return solve(op, B, X0, grid, replace(config or SolverConfig(), method="eba_exp"))


def solve_eba_bdf(op, B, X0, grid, config=None):
    """Arnoldi projection + fixed-step BDF on the projected matrix ODE."""
    return solve(op, B, X0, grid, replace(config or SolverConfig(), method="eba_bdf"))
