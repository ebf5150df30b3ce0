import numpy as np
import pytest

from dlekrylov.dense import frob_norm
from dlekrylov.problems import (ProblemSpec, build_problem, gen_convdiff,
                                gen_heat_fem, gen_random_block,
                                heat_fem_matrices)


# -- convection-diffusion generator -------------------------------------------

def _zero(x, y):
    return np.zeros_like(x)


def test_convdiff_laplacian_limit_kron_sum():
    n0 = 6
    hm = 1.0 / (n0 + 1)
    A = gen_convdiff(n0, f1=_zero, f2=_zero, g1=_zero).toarray()
    L1 = (np.diag(-2.0 * np.ones(n0)) + np.diag(np.ones(n0 - 1), 1)
          + np.diag(np.ones(n0 - 1), -1)) / hm**2
    kron_sum = np.kron(np.eye(n0), L1) + np.kron(L1, np.eye(n0))
    np.testing.assert_array_equal(A, kron_sum)


def test_convdiff_laplacian_row_sums():
    n0 = 5
    A = gen_convdiff(n0, f1=_zero, f2=_zero, g1=_zero)
    row_sums = np.asarray(A.sum(axis=1)).ravel()
    k = np.arange(n0 * n0)
    i, j = k % n0, k // n0
    interior = (i > 0) & (i < n0 - 1) & (j > 0) & (j < n0 - 1)
    np.testing.assert_allclose(row_sums[interior], 0.0, atol=1e-9)
    assert np.all(row_sums[~interior] < 0)


def test_convdiff_full_coefficient_stencil_entries():
    n0 = 10
    hm = 1.0 / (n0 + 1)
    A = gen_convdiff(n0).tocsr()

    def entries_at(i, j):
        x, y = i * hm, j * hm
        k = (i - 1) + (j - 1) * n0
        return k, x, y

    # boundary-adjacent corner point (1/11, 1/11): center, east, north
    k, x, y = entries_at(1, 1)
    assert A[k, k] == pytest.approx(-4.0 / hm**2 + 20.0 * y, rel=1e-14)
    assert A[k, k + 1] == pytest.approx(1.0 / hm**2 - 10.0 * x * y / (2 * hm), rel=1e-14)
    assert A[k, k + n0] == pytest.approx(1.0 / hm**2 + np.exp(x**2 * y) / (2 * hm), rel=1e-14)

    # interior point with all five entries
    k, x, y = entries_at(3, 4)
    assert A[k, k] == pytest.approx(-4.0 / hm**2 + 20.0 * y, rel=1e-14)
    assert A[k, k - 1] == pytest.approx(1.0 / hm**2 + 10.0 * x * y / (2 * hm), rel=1e-14)
    assert A[k, k + 1] == pytest.approx(1.0 / hm**2 - 10.0 * x * y / (2 * hm), rel=1e-14)
    assert A[k, k - n0] == pytest.approx(1.0 / hm**2 - np.exp(x**2 * y) / (2 * hm), rel=1e-14)
    assert A[k, k + n0] == pytest.approx(1.0 / hm**2 + np.exp(x**2 * y) / (2 * hm), rel=1e-14)


def test_convdiff_minimum_size():
    with pytest.raises(ValueError):
        gen_convdiff(1)


# -- heat flow operator --------------------------------------------------------

def test_heat_matrices_n2_exact():
    alpha = 0.05
    M, K = heat_fem_matrices(2, alpha)
    np.testing.assert_allclose(M.toarray(), np.array([[4.0, 1.0], [1.0, 4.0]]) / 12.0)
    np.testing.assert_allclose(K.toarray(),
                               -2.0 * alpha * np.array([[2.0, -1.0], [-1.0, 2.0]]))


def test_heat_operator_alpha_zero_is_identity():
    op, _ = gen_heat_fem(15, dt=0.01, alpha=0.0)
    rng = np.random.default_rng(0)
    V = rng.standard_normal((15, 2))
    np.testing.assert_allclose(op.apply(V), V, atol=1e-12)


def test_heat_operator_roundtrip():
    op, _ = gen_heat_fem(100, dt=0.01, alpha=0.05)
    rng = np.random.default_rng(1)
    V = rng.standard_normal((100, 3))
    assert frob_norm(op.apply(op.apply_inverse(V)) - V) <= 1e-10 * frob_norm(V)


def test_heat_operator_spectrum_real_positive():
    n, dt, alpha = 60, 0.01, 0.05
    op, _ = gen_heat_fem(n, dt, alpha)
    A = op.apply(np.eye(n))
    ev = np.linalg.eigvals(A)
    assert np.max(np.abs(ev.imag)) <= 1e-10
    assert np.min(ev.real) > 0.0
    assert np.max(ev.real) < 1.0


def test_heat_b_builder():
    n, dt, alpha = 12, 0.01, 0.05
    op, build_b = gen_heat_fem(n, dt, alpha)
    M, K = heat_fem_matrices(n, alpha)
    F = gen_random_block(n, 2, seed=5)
    B = build_b(F)
    shifted = (M - dt * K).toarray()
    np.testing.assert_allclose(B, dt * np.linalg.solve(shifted, F), rtol=1e-11)


# -- random block ---------------------------------------------------------------

def test_random_block_deterministic():
    a = gen_random_block(50, 3, seed=42)
    b = gen_random_block(50, 3, seed=42)
    np.testing.assert_array_equal(a, b)
    c = gen_random_block(50, 3, seed=43)
    assert not np.array_equal(a, c)


def test_random_block_range():
    blk = gen_random_block(1000, 2, seed=0)
    assert blk.min() >= 0.0
    assert blk.max() < 1.0


def test_random_block_column_means():
    blk = gen_random_block(10_000, 2, seed=1)
    means = blk.mean(axis=0)
    assert np.all(means >= 0.45) and np.all(means <= 0.55)


# -- problem specs ----------------------------------------------------------------

def test_spec_convdiff_dimension():
    spec = ProblemSpec(kind="convdiff", n0=7)
    assert spec.n == 49


def test_spec_rejects_unknown_fields():
    with pytest.raises(ValueError, match="unknown problem fields"):
        ProblemSpec.from_dict({"kind": "convdiff", "bogus": 1})


@pytest.mark.parametrize("field,bad", [
    ("n0", 2.5), ("n0", 0), ("n0", 1), ("n0", True), ("s", True), ("s", 0),
    ("s", "2"), ("seed", -1), ("seed", 1.0), ("n", 2.0),
    ("dt", -1), ("dt", 0.0), ("dt", np.inf), ("dt", True), ("alpha", np.nan),
    ("alpha", "0.05"), ("kind", "convection"), ("a_path", 0), ("b_path", True),
    ("a_path", None)])
def test_spec_rejects_bad_fields(field, bad):
    kind = "heat_fem" if field in ("n", "dt", "alpha") else "convdiff"
    with pytest.raises(ValueError, match=field):
        ProblemSpec.from_dict({"kind": kind, field: bad})


def test_spec_checks_the_size_of_its_own_kind():
    # n0 sizes only convdiff, n only heat_fem
    assert ProblemSpec(kind="heat_fem", n0=0, n=2).n == 2
    assert ProblemSpec(kind="convdiff", n0=2, n=1).n == 4
    with pytest.raises(ValueError, match="n must be at least 2"):
        ProblemSpec(kind="heat_fem", n=1)


def test_spec_roundtrip():
    spec = ProblemSpec(kind="heat_fem", n=30, s=2, seed=9, dt=0.02, alpha=0.1,
                       t0=0.0, tf=1.0, h=0.01)
    again = ProblemSpec.from_dict(spec.to_dict())
    assert again == spec


def test_build_problem_convdiff():
    spec = ProblemSpec(kind="convdiff", n0=5, s=2, seed=3, tf=1.0, h=0.1)
    op, B, grid = build_problem(spec)
    assert op.dim == 25
    assert B.shape == (25, 2)
    assert grid.n_steps == 10


def test_build_problem_zero_b(tmp_path):
    # a zero B comes in as an external all-zero block
    from dlekrylov.mmio import write_matrix_market, write_matrix_market_array

    a_path, b_path = str(tmp_path / "A.mtx"), str(tmp_path / "B.mtx")
    write_matrix_market(gen_convdiff(4), a_path)
    write_matrix_market_array(np.zeros((16, 2)), b_path)
    spec = ProblemSpec(kind="external", a_path=a_path, b_path=b_path,
                       tf=1.0, h=0.1)
    _, B, _ = build_problem(spec)
    np.testing.assert_array_equal(B, np.zeros((16, 2)))


def test_build_problem_external(tmp_path):
    from dlekrylov.mmio import write_matrix_market, write_matrix_market_array
    from scipy.sparse import csr_matrix

    A = csr_matrix(np.diag([-1.0, -2.0, -3.0]))
    B = np.array([[1.0], [0.5], [0.25]])
    a_path = str(tmp_path / "A.mtx")
    b_path = str(tmp_path / "B.mtx")
    write_matrix_market(A, a_path)
    write_matrix_market_array(B, b_path)
    spec = ProblemSpec(kind="external", a_path=a_path, b_path=b_path,
                       tf=1.0, h=0.1)
    op, B_in, _ = build_problem(spec)
    assert op.dim == 3
    np.testing.assert_array_equal(B_in, B)
