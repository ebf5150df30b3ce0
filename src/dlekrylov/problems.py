"""Deterministic benchmark problem generators.

Two problem families are built in: a convection-diffusion operator on the
unit square (5-point stencil, variable coefficients) and a semi-implicit
discretization of one-dimensional heat flow (mass/stiffness tridiagonals).
External problems come in through Matrix Market files.
"""

import math
import numbers
from dataclasses import asdict, dataclass

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix, diags

from .mmio import read_matrix_market, read_matrix_market_array
from .sparsela import Factorization, operator_from_pair, wrap_sparse
from .solvers import TimeGrid


@dataclass
class ProblemSpec:
    """A problem and its grid [t0, tf], step h. B (on heat_fem the forcing
    F) is the PCG64 block of `s` columns drawn with `seed`, or an external
    problem's `b_path` file; any other B, a zero one too, is a file."""

    kind: str = "convdiff"             # "convdiff" | "heat_fem" | "external"
    n0: int = 10                       # convdiff: interior points per direction
    n: int = 100
    s: int = 2
    seed: int = 0
    dt: float = 0.01                   # heat_fem semi-implicit step
    alpha: float = 0.05                # heat_fem diffusivity
    t0: float = 0.0
    tf: float = 2.0
    h: float = 1e-3
    a_path: str = ""                   # external: Matrix Market inputs
    b_path: str = ""

    def __post_init__(self):
        if self.kind not in ("convdiff", "heat_fem", "external"):
            raise ValueError("kind must be one of ['convdiff', 'heat_fem', "
                             f"'external'], got {self.kind!r}")
        # bool is an Integral, and JSON true would read as 1
        for name in ("n0", "n", "s", "seed"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        least = {"s": 1, "seed": 0}
        if self.kind == "convdiff":
            least["n0"] = 2
        elif self.kind == "heat_fem":
            least["n"] = 2
        for name, low in least.items():
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be at least {low}, "
                                 f"got {getattr(self, name)}")
        for name in ("dt", "alpha"):
            value = getattr(self, name)
            if (not isinstance(value, numbers.Real) or isinstance(value, bool)
                    or not 0 < value < math.inf):
                raise ValueError(f"{name} must be a positive finite number, "
                                 f"got {value!r}")
        # `open` reads a non-string path such as 0 or True as a file descriptor
        for name in ("a_path", "b_path"):
            value = getattr(self, name)
            if not isinstance(value, str):
                raise ValueError(f"{name} must be a string, got {value!r}")
        if self.kind == "convdiff":
            self.n = self.n0 * self.n0

    @property
    def grid(self):
        return TimeGrid(self.t0, self.tf, self.h)

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown problem fields: {sorted(unknown)}")
        return cls(**d)


def gen_random_block(n, s, seed):
    """Uniform [0, 1) block from the PCG64 generator; reproducible across
    platforms for a given seed."""
    if s < 1:
        raise ValueError("s must be at least 1")
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.random((n, s))


def gen_convdiff(n0, f1=None, f2=None, g1=None):
    """5-point discretization of
        Lu = lap(u) - f1 u_x + f2 u_y + g1 u
    on the unit square with homogeneous Dirichlet boundary, n0 interior
    points per direction, lexicographic ordering (x fastest). The default
    coefficients are f1 = 10xy, f2 = e^{x^2 y}, g1 = 20y; first-order
    terms are centered differences."""
    if n0 < 2:
        raise ValueError("need at least 2 interior points per direction")
    f1 = f1 if f1 is not None else (lambda x, y: 10.0 * x * y)
    f2 = f2 if f2 is not None else (lambda x, y: np.exp(x**2 * y))
    g1 = g1 if g1 is not None else (lambda x, y: 20.0 * y)

    hm = 1.0 / (n0 + 1)
    x = np.arange(1, n0 + 1) * hm
    xg, yg = np.meshgrid(x, x, indexing="xy")   # row index j (y), col index i (x)
    xf = xg.ravel()                             # x fastest in memory
    yf = yg.ravel()

    f1v = np.broadcast_to(f1(xf, yf), xf.shape)
    f2v = np.broadcast_to(f2(xf, yf), xf.shape)
    g1v = np.broadcast_to(g1(xf, yf), xf.shape)

    n = n0 * n0
    center = -4.0 / hm**2 + g1v
    west = 1.0 / hm**2 + f1v / (2.0 * hm)
    east = 1.0 / hm**2 - f1v / (2.0 * hm)
    south = 1.0 / hm**2 - f2v / (2.0 * hm)
    north = 1.0 / hm**2 + f2v / (2.0 * hm)

    rows = [np.arange(n)]
    cols = [np.arange(n)]
    vals = [center]
    k = np.arange(n)
    has_west = k % n0 != 0
    has_east = k % n0 != n0 - 1
    has_south = k >= n0
    has_north = k < n - n0
    for mask, offset, coeff in ((has_west, -1, west), (has_east, 1, east),
                                (has_south, -n0, south), (has_north, n0, north)):
        rows.append(k[mask])
        cols.append(k[mask] + offset)
        vals.append(coeff[mask])
    A = coo_matrix((np.concatenate(vals),
                    (np.concatenate(rows), np.concatenate(cols))), shape=(n, n))
    return csr_matrix(A)


def heat_fem_matrices(n, alpha):
    """Mass and stiffness tridiagonals of the 1-D heat flow benchmark."""
    if n < 2:
        raise ValueError("need n >= 2")
    M = diags([np.ones(n - 1), 4.0 * np.ones(n), np.ones(n - 1)],
              offsets=[-1, 0, 1]) / (6.0 * n)
    K = -alpha * n * diags([-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)],
                           offsets=[-1, 0, 1])
    return csr_matrix(M), csr_matrix(K)


def gen_heat_fem(n, dt, alpha):
    """Factored operator A = (M - dt K)^{-1} M and a builder for the input
    block B = dt (M - dt K)^{-1} F. Both factors are computed once."""
    M, K = heat_fem_matrices(n, alpha)
    shifted = Factorization(csr_matrix(M - dt * K))
    op = operator_from_pair(shifted, M)

    def build_b(F):
        return dt * shifted.solve(np.asarray(F, dtype=float))

    return op, build_b


class InputError(ValueError):
    """An external input file cannot be read, its shape does not fit, it
    holds a value that is not finite, or its matrix has an empty row."""


def _require_finite(path, M):
    """Raise an InputError naming the first non-finite entry of M in
    row-major order, numbered from 1 as a Matrix Market file numbers it."""
    M = coo_matrix(M)
    bad = np.flatnonzero(~np.isfinite(M.data))
    if bad.size:
        k = bad[np.lexsort((M.col[bad], M.row[bad]))[0]]
        raise InputError(f"{path}: entry ({M.row[k] + 1}, {M.col[k] + 1}) "
                         f"is {M.data[k]}, not a finite number")


def build_problem(spec):
    """Materialize (operator, B, grid) for a ProblemSpec."""
    if spec.kind == "convdiff":
        A = gen_convdiff(spec.n0)
        op = wrap_sparse(A)
        B = gen_random_block(spec.n, spec.s, spec.seed)
    elif spec.kind == "heat_fem":
        op, build_b = gen_heat_fem(spec.n, spec.dt, spec.alpha)
        F = gen_random_block(spec.n, spec.s, spec.seed)
        B = build_b(F)
    elif spec.kind == "external":
        try:
            A = read_matrix_market(spec.a_path)
            if not spec.b_path:
                B = gen_random_block(A.shape[0], spec.s, spec.seed)
            elif _is_array_file(spec.b_path):
                B = read_matrix_market_array(spec.b_path)
            else:
                B = read_matrix_market(spec.b_path).toarray()
        except OSError as exc:
            raise InputError(f"cannot read an input file: {exc}") from exc
        if A.shape[0] != A.shape[1]:
            raise InputError(f"{spec.a_path}: matrix must be square, "
                             f"got {A.shape}")
        if B.shape[0] != A.shape[0]:
            raise InputError(f"{spec.b_path}: block of shape {B.shape} does not "
                             f"match the {A.shape} matrix of {spec.a_path}")
        _require_finite(spec.a_path, A)
        empty = np.flatnonzero(np.diff(A.indptr) == 0)
        if empty.size:
            raise InputError(f"{spec.a_path}: row {empty[0] + 1} has no entries, "
                             "so the matrix is singular")
        if spec.b_path:
            _require_finite(spec.b_path, B)
        op = wrap_sparse(A)
        spec.n = A.shape[0]
    else:
        raise ValueError(f"unknown problem kind {spec.kind!r}")
    return op, B, spec.grid


def _is_array_file(path):
    with open(path, "rb") as fh:
        header = fh.readline().split()
    return len(header) >= 3 and header[2].lower() == b"array"


def dense_matrix(op):
    """Dense matrix of a linear operator, for desk-scale oracles."""
    return op.apply(np.eye(op.dim))
