"""Dense reference oracle and error bounds, for verification at desk scale.

`reference_stream` propagates the exact solution along the grid by the
exact one-step pair; `compare`, `sweep` and the acceptance gate measure the
solvers against it. `error_bound_stable` is the stable bound (eq. 19),
`sweep`'s `bound_eq19` column; `error_bound_general` holds for any operator.
"""

import math
from dataclasses import dataclass

import numpy as np

from .dense import expm, frob_norm, log_norm_mu2, spec_norm_2, sym_part
from .solvers import exact_step_pair, gauss_legendre


# the largest order n of a dense oracle or bound, which holds n x n matrices
ORACLE_MAX_N = 500


class SizeGuardError(ValueError):
    """Problem too large for a dense desk-scale oracle."""


def _require_oracle_size(n, what):
    if n > ORACLE_MAX_N:
        raise SizeGuardError(f"{what} limited to n <= {ORACLE_MAX_N}, got {n}")


class StabilityError(ValueError):
    """A bound that requires a stable operator got mu2 >= 0."""


@dataclass
class BoundReport:
    times: np.ndarray
    bounds: np.ndarray
    errors: np.ndarray
    mu2: float
    rho: float
    coupling_norm: float
    gbar_sup: float


def reference_stream(A, B, X0, grid, q=8):
    """Yield (index, X) along the grid by the exact one-step pair
    `exact_step_pair` with its q-point panel rule, without storing the
    trajectory. Desk scale only (n <= ORACLE_MAX_N)."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    _require_oracle_size(n, "dense reference")
    B = np.asarray(B, dtype=float)
    if B.ndim == 1:
        B = B[:, None]
    X = np.zeros((n, n)) if X0 is None else np.asarray(
        X0.to_dense() if hasattr(X0, "to_dense") else X0, dtype=float)

    E, delta = exact_step_pair(A, B, grid.h, q)

    yield 0, X
    for i in range(1, grid.n_steps + 1):
        X = sym_part(E @ X @ E.T + delta)
        yield i, X


def dense_reference_integral(A, B, X0, grid, q=8):
    """Exact-solution trajectory by exponential propagation plus panel
    quadrature of the source integral. Desk scale only (n <= ORACLE_MAX_N).

    Returns an (n_nodes, n, n) array. Each step's increment composes
    q-point Gauss-Legendre panels sized by ||A|| (`exact_step_pair`), so
    its accuracy does not depend on the grid step.
    """
    n = np.asarray(A).shape[0]
    _require_oracle_size(n, "dense reference")
    out = np.empty((grid.n_steps + 1, n, n))
    for i, X in reference_stream(A, B, X0, grid, q):
        out[i] = X
    return out


def error_bound_stable(mu2, coupling_norm, gbar_sup, t0, t):
    """Error bound for a stable operator:
    ||T_coupling|| * sup||Gbar|| * (e^{2(t-t0) mu2} - 1) / (2 mu2)."""
    if mu2 >= 0:
        raise StabilityError(f"bound requires mu2 < 0, got {mu2}")
    if t < t0:
        raise ValueError(f"need t >= t0, got t={t} < t0={t0}")
    return coupling_norm * gbar_sup * (math.exp(2.0 * (t - t0) * mu2) - 1.0) / (2.0 * mu2)


def error_bound_general(A, B, dec, grid, q=4, mu2=None):
    """Bound valid for any operator: weighted integral of the gap between
    the true and projected exponential actions on the start block.

    Returns a BoundReport with the bound at every grid node (errors are
    left as NaN for the caller to fill in)."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    _require_oracle_size(n, "dense bound")
    B = np.asarray(B, dtype=float)
    if B.ndim == 1:
        B = B[:, None]
    if mu2 is None:
        mu2 = log_norm_mu2(A)

    V = dec.inner_basis
    T = dec.T
    Bm = dec.project_block(B)
    norm_factor = frob_norm(B) + frob_norm(Bm)

    h = grid.h
    N = grid.n_steps
    E_big = expm(h * A)
    E_small = expm(h * T)
    sigma, wts = gauss_legendre(q, 0.0, h)
    big_factors = [expm(s_j * A) for s_j in sigma]
    small_factors = [expm(s_j * T) for s_j in sigma]

    bounds = np.empty(N + 1)
    bounds[0] = 0.0
    W = B.copy()                      # e^{sigma A} B at panel start
    w_small = Bm.copy()
    acc = 0.0
    base = 0.0                        # sigma at panel start
    for i in range(1, N + 1):
        for s_j, w_j, Fb, Fs in zip(sigma, wts, big_factors, small_factors):
            gap = frob_norm(Fb @ W - V @ (Fs @ w_small))
            acc += w_j * math.exp((base + s_j) * mu2) * gap
        bounds[i] = norm_factor * acc
        W = E_big @ W
        w_small = E_small @ w_small
        base += h
    return BoundReport(
        times=grid.nodes, bounds=bounds, errors=np.full(N + 1, np.nan),
        mu2=float(mu2), rho=spec_norm_2(A),
        coupling_norm=frob_norm(dec.coupling), gbar_sup=np.nan,
    )
