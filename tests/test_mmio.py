import numpy as np
import pytest
from scipy.sparse import csr_matrix, random as sparse_random

from dlekrylov.mmio import (MatrixMarketParseError, read_matrix_market,
                            read_matrix_market_array, write_matrix_market,
                            write_matrix_market_array)


def test_roundtrip_1x1(tmp_path):
    path = str(tmp_path / "one.mtx")
    A = csr_matrix(np.array([[3.141592653589793]]))
    write_matrix_market(A, path)
    back = read_matrix_market(path)
    assert back.shape == (1, 1)
    assert back[0, 0] == A[0, 0]


def test_symmetric_file_expands(tmp_path):
    path = str(tmp_path / "sym.mtx")
    with open(path, "w") as fh:
        fh.write("%%MatrixMarket matrix coordinate real symmetric\n")
        fh.write("% lower triangle only\n")
        fh.write("3 3 4\n")
        fh.write("1 1 2.0\n2 1 -1.0\n2 2 2.0\n3 2 -0.5\n")
    A = read_matrix_market(path).toarray()
    expected = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -0.5], [0.0, -0.5, 0.0]])
    np.testing.assert_array_equal(A, expected)


def test_roundtrip_random_exact(tmp_path):
    path = str(tmp_path / "rand.mtx")
    A = csr_matrix(sparse_random(80, 80, density=5000 / 6400.0, random_state=3))
    write_matrix_market(A, path)
    back = read_matrix_market(path)
    assert (back != A).nnz == 0
    # bitwise identical values after the 17-digit round-trip
    np.testing.assert_array_equal(np.sort(back.data), np.sort(A.data))


def test_malformed_header_reports_line(tmp_path):
    path = str(tmp_path / "bad.mtx")
    with open(path, "w") as fh:
        fh.write("%%NotMatrixMarket whatever\n1 1 1\n1 1 1.0\n")
    with pytest.raises(MatrixMarketParseError) as exc:
        read_matrix_market(path)
    assert exc.value.lineno == 1


def test_bad_field_count_reports_line(tmp_path):
    path = str(tmp_path / "bad2.mtx")
    with open(path, "w") as fh:
        fh.write("%%MatrixMarket matrix coordinate real general\n")
        fh.write("2 2 2\n")
        fh.write("1 1 1.0\n")
        fh.write("2 2\n")
    with pytest.raises(MatrixMarketParseError) as exc:
        read_matrix_market(path)
    assert exc.value.lineno == 4


def test_entry_count_mismatch(tmp_path):
    path = str(tmp_path / "bad3.mtx")
    with open(path, "w") as fh:
        fh.write("%%MatrixMarket matrix coordinate real general\n")
        fh.write("2 2 3\n")
        fh.write("1 1 1.0\n")
    with pytest.raises(MatrixMarketParseError):
        read_matrix_market(path)


def test_index_out_of_bounds(tmp_path):
    path = str(tmp_path / "bad4.mtx")
    with open(path, "w") as fh:
        fh.write("%%MatrixMarket matrix coordinate real general\n")
        fh.write("2 2 1\n")
        fh.write("3 1 1.0\n")
    with pytest.raises(MatrixMarketParseError) as exc:
        read_matrix_market(path)
    assert exc.value.lineno == 3


def test_array_roundtrip(tmp_path):
    path = str(tmp_path / "dense.mtx")
    rng = np.random.default_rng(4)
    M = rng.standard_normal((7, 3))
    write_matrix_market_array(M, path)
    np.testing.assert_array_equal(read_matrix_market_array(path), M)


def test_array_wrong_count_reports(tmp_path):
    path = str(tmp_path / "dense_bad.mtx")
    with open(path, "w") as fh:
        fh.write("%%MatrixMarket matrix array real general\n")
        fh.write("2 2\n")
        fh.write("1.0\n2.0\n3.0\n")
    with pytest.raises(MatrixMarketParseError):
        read_matrix_market_array(path)


def test_array_writer_matches_the_per_value_format(tmp_path):
    from dlekrylov.mmio import _fmt

    col = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, -1.7976931348623157e308,
           1e300, -3.5e-310, 6.02214076e23, 1.0 / 3.0, -2.5, 1e-100]
    M = np.array([col, col[::-1]]).T
    path = tmp_path / "values.mtx"
    write_matrix_market_array(M, str(path))
    expected = ("%%MatrixMarket matrix array real general\n"
                f"{M.shape[0]} {M.shape[1]}\n"
                + "".join(_fmt(M[i, j]) + "\n" for j in range(M.shape[1])
                          for i in range(M.shape[0])))
    assert path.read_bytes() == expected.encode()
    assert "-0.0000000000000000e+00" in expected and "4.9406564584124654e-324" in expected
