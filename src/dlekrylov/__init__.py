"""Low-rank Krylov solvers for large-scale differential Lyapunov equations."""

from .analysis import (BoundReport, SizeGuardError, StabilityError,
                       dense_reference_integral, error_bound_general,
                       error_bound_stable, reference_stream)
from .dense import (LyapunovSolver, SolvabilityError, expm, frob_norm,
                    log_norm_mu2, lyap_direct, qr_thin, spec_norm_2)
from .krylov import KrylovBreakdown, KrylovDecomposition
from .mmio import (MatrixMarketParseError, read_matrix_market,
                   read_matrix_market_array, write_matrix_market,
                   write_matrix_market_array)
from .problems import (ProblemSpec, build_problem, gen_convdiff, gen_heat_fem,
                       gen_random_block, heat_fem_matrices)
from .solvers import (PSDViolationError, SolverConfig, SymLowRank, TimeGrid,
                      Trajectory, residual_norm, solve, solve_eba_bdf,
                      solve_eba_exp, truncate_lowrank)
from .sparsela import (CapabilityError, Factorization, FactorizationError,
                       LinearOperator, operator_from_pair, wrap_dense,
                       wrap_sparse)

__version__ = "0.1.0"
