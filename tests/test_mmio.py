import os
import pathlib
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse import csr_matrix, random as sparse_random

from dlekrylov import mmio
from dlekrylov.mmio import (MatrixMarketParseError, read_matrix_market,
                            read_matrix_market_array, write_matrix_market,
                            write_matrix_market_array)


def _fmt(x):
    """Python's "%.16e", the bytes both writers give a finite value."""
    return format(float(x), ".16e")


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


def test_symmetric_file_refuses_an_entry_above_the_diagonal(tmp_path):
    # symmetric storage holds the lower triangle only: listing both (2,1)
    # and (1,2) would otherwise read as A[0,1] = A[1,0] = 2.0
    path = str(tmp_path / "sym.mtx")
    with open(path, "w") as fh:
        fh.write("%%MatrixMarket matrix coordinate real symmetric\n")
        fh.write("2 2 2\n2 1 1.0\n1 2 1.0\n")
    with pytest.raises(MatrixMarketParseError) as exc:
        read_matrix_market(path)
    assert exc.value.lineno == 4
    assert "entry (1,2) above the diagonal" in str(exc.value)


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


def _read_outcome(path):
    """The CSR arrays `read_matrix_market` returns, as bytes, or the text
    of the parse error it raises."""
    try:
        A = read_matrix_market(path)
    except MatrixMarketParseError as exc:
        return str(exc)
    return A.shape, A.indptr.tobytes(), A.indices.tobytes(), A.data.tobytes()


_INDICES = ["1", "2", "3", "+2", "007", "0", "4", "-1", "1.0", "1e0", "1_0",
            "\u0663", "99999999999999999999"]
_VALUES = ["1", "-0", "2.", ".5", "1.5e-3", "nan", "-inf", "Infinity",
           "1e400", "1_0", "\u0663", "0x1p3", "\x00", "x"]


@st.composite
def _coordinate_body(draw):
    """(nnz, text): the data lines of a 3 x 3 coordinate file, mostly
    well formed, and an entry count that mostly matches them."""
    lines = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["entry"] * 6 + ["blank", "comment", "width"]))
        if kind == "blank":
            fields = draw(st.sampled_from([[], [""], ["\t"]]))
        elif kind == "comment":
            fields = ["%", "a", "note"]
        else:
            fields = [draw(st.sampled_from(_INDICES[:5] * 2 + _INDICES)),
                      draw(st.sampled_from(_INDICES[:5] * 2 + _INDICES)),
                      draw(st.sampled_from(_VALUES[:9] * 2 + _VALUES))]
            if kind == "width":
                fields = draw(st.sampled_from([fields[:2], fields + ["1"],
                                               fields + ["%"]]))
        sep = draw(st.sampled_from([" ", "\t", "  ", "\x0c"]))
        lines.append(draw(st.sampled_from(["", " "])) + sep.join(fields)
                     + draw(st.sampled_from(["\n", "\r\n", " \n"])))
    entries = sum(1 for line in lines if line.strip() and "%" not in line[:2])
    nnz = draw(st.sampled_from([entries] * 3 + [entries - 1, entries + 1]))
    return max(nnz, 0), "".join(lines)


@settings(max_examples=600, deadline=None)
@given(st.sampled_from(["general", "symmetric"]), _coordinate_body())
def test_coordinate_reader_matches_the_line_loop(tmp_path_factory, symmetry, body):
    # the numpy parse gives the line loop's matrix or leaves the file to
    # it, so its error and line are the loop's
    nnz, text = body
    path = str(tmp_path_factory.mktemp("mm") / "A.mtx")
    with open(path, "w", newline="") as fh:
        fh.write(f"%%MatrixMarket matrix coordinate real {symmetry}\n3 3 {nnz}\n")
        fh.write(text)
    fast = _read_outcome(path)
    with mock.patch.object(mmio, "_parsed_entries", lambda *args: None):
        assert _read_outcome(path) == fast


def test_coordinate_reader_parses_a_clean_file_without_the_line_loop(tmp_path):
    path = str(tmp_path / "A.mtx")
    A = csr_matrix(sparse_random(40, 40, density=0.2, random_state=4))
    write_matrix_market(A, path)
    with mock.patch.object(mmio, "_checked_entries",
                           side_effect=AssertionError("line loop ran")):
        back = read_matrix_market(path)
    assert (back != A).nnz == 0
    np.testing.assert_array_equal(back.data, A.data)


def _array_outcome(path):
    """The array `read_matrix_market_array` returns, as bytes with its
    shape and layout, or the text of the parse error it raises."""
    try:
        M = read_matrix_market_array(path)
    except MatrixMarketParseError as exc:
        return str(exc)
    return M.shape, M.flags.c_contiguous, M.tobytes()


@st.composite
def _array_body(draw):
    """(nrows, ncols, text): the data lines of an array file, mostly well
    formed, and a size that mostly matches them."""
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["value"] * 6 + ["blank", "comment", "width"]))
        if kind == "blank":
            fields = draw(st.sampled_from([[], [""], ["\t"]]))
        elif kind == "comment":
            fields = ["%", "a", "note"]
        else:
            fields = [draw(st.sampled_from(_VALUES[:9] * 2 + _VALUES))]
            if kind == "width":
                fields = draw(st.sampled_from([fields * 2, fields + ["%"]]))
        sep = draw(st.sampled_from([" ", "\t", "  ", "\x0c"]))
        lines.append(draw(st.sampled_from(["", " "])) + sep.join(fields)
                     + draw(st.sampled_from(["\n", "\r\n", " \n"])))
    values = sum(1 for line in lines if line.strip() and "%" not in line[:2])
    count = max(draw(st.sampled_from([values] * 3 + [values - 1, values + 1])), 0)
    ncols = draw(st.sampled_from([d for d in (1, 2, 3) if count % d == 0]))
    return count // ncols, ncols, "".join(lines)


@settings(max_examples=600, deadline=None)
@given(_array_body())
def test_array_reader_matches_the_line_loop(tmp_path_factory, body):
    # the numpy parse gives the line loop's array or leaves the file to
    # it, so its error and line are the loop's
    nrows, ncols, text = body
    path = str(tmp_path_factory.mktemp("mm") / "B.mtx")
    with open(path, "w", newline="") as fh:
        fh.write(f"%%MatrixMarket matrix array real general\n{nrows} {ncols}\n")
        fh.write(text)
    fast = _array_outcome(path)
    with mock.patch.object(mmio, "_parsed_entries", lambda *args: None):
        assert _array_outcome(path) == fast


def test_array_reader_parses_a_clean_file_without_the_line_loop(tmp_path):
    path = str(tmp_path / "B.mtx")
    M = np.random.default_rng(6).standard_normal((40, 3))
    write_matrix_market_array(M, path)
    parse, parsed = mmio._parsed_entries, []

    def recorded(*args):
        parsed.append(parse(*args))
        return parsed[-1]

    with mock.patch.object(mmio, "_parsed_entries", recorded):
        back = read_matrix_market_array(path)
    assert len(parsed) == 1 and parsed[0] is not None
    np.testing.assert_array_equal(back, M)
    assert back.flags.c_contiguous


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


def test_coordinate_writer_matches_the_per_entry_format(tmp_path):
    # entries out of order, ±0 and a subnormal stored explicitly, and
    # ±inf and nan among them; the file lists them sorted by (row, col)
    from scipy.sparse import coo_matrix

    rng = np.random.default_rng(5)
    n, nnz = 40, 300
    flat = rng.permutation(n * 30)[:nnz]
    row, col = flat // 30, flat % 30
    data = rng.standard_normal(nnz) * 10.0 ** rng.integers(-20, 20, nnz)
    data[:6] = [0.0, -0.0, 5e-324, np.inf, -np.inf, np.nan]
    for A in (coo_matrix((data, (row, col)), shape=(n, 30)),
              coo_matrix((0, 0)), coo_matrix((3, 2))):
        path = tmp_path / "coo.mtx"
        write_matrix_market(A, str(path))
        order = sorted(range(A.nnz), key=lambda k: (A.row[k], A.col[k]))
        lines = path.read_text().splitlines()
        assert lines[:2] == ["%%MatrixMarket matrix coordinate real general",
                             f"{A.shape[0]} {A.shape[1]} {A.nnz}"]
        assert [line.rsplit(" ", 1)[0] for line in lines[2:]] == [
            f"{A.row[k] + 1} {A.col[k] + 1}" for k in order]
        tokens = [line.rsplit(" ", 1)[1] for line in lines[2:]]
        values = A.data[order]
        finite = np.isfinite(values)
        assert [t for t, f in zip(tokens, finite) if f] == [
            _fmt(x) for x in values[finite]]
        if not A.nnz:
            continue
        assert {"-0.0000000000000000e+00", "4.9406564584124654e-324"} <= set(tokens)
        # ±inf and nan are written as tokens that both readers read back
        np.testing.assert_array_equal(read_matrix_market(str(path)).toarray(),
                                      A.toarray())
        column = tmp_path / "column.mtx"
        column.write_text(f"%%MatrixMarket matrix array real general\n{A.nnz} 1\n"
                          + "".join(t + "\n" for t in tokens))
        np.testing.assert_array_equal(read_matrix_market_array(str(column))[:, 0],
                                      values)


@pytest.mark.parametrize("reader, header, size", [
    (read_matrix_market_array, "array", "3 x"),
    (read_matrix_market_array, "array", "-1 2"),
    (read_matrix_market, "coordinate", "2 2 -1"),
    (read_matrix_market, "coordinate", "-2 2 0"),
])
def test_bad_size_line_reports_line(tmp_path, reader, header, size):
    path = str(tmp_path / "size.mtx")
    with open(path, "w") as fh:
        fh.write(f"%%MatrixMarket matrix {header} real general\n% a comment\n")
        fh.write(f"{size}\n")
    with pytest.raises(MatrixMarketParseError) as exc:
        reader(path)
    assert exc.value.lineno == 3
    assert str(exc.value).startswith(f"{path}:3: ") and repr(size) in str(exc.value)


def _lines_of(values):
    """The value lines `write_matrix_market_array` writes for a 1-D array,
    as bytes."""
    values = np.asarray(values, dtype=float)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "values.mtx")
        write_matrix_market_array(values[:, None], path)
        with open(path, "rb") as fh:
            header, size, lines = fh.read().split(b"\n", 2)
    assert header == b"%%MatrixMarket matrix array real general"
    assert size == b"%d 1" % values.size
    return lines


def _assert_reference_lines(lines, values):
    """`lines` hold "%.16e" of each finite value, and for ±inf and nan a
    token that reads back as the value."""
    values = np.asarray(values, dtype=float)
    got = lines.decode().splitlines(keepends=True)
    assert len(got) == values.size and lines.endswith(b"\n")
    finite = np.isfinite(values)
    assert [line for line, f in zip(got, finite) if f] == [
        _fmt(x) + "\n" for x in values[finite].tolist()]
    np.testing.assert_array_equal(
        [float(line) for line, f in zip(got, finite) if not f], values[~finite])


def test_array_format_on_random_bit_patterns():
    # every exponent, sign, subnormal, inf and nan; 2^20 values
    rng = np.random.default_rng(15)
    bits = rng.integers(0, 2 ** 64, size=2 ** 20, dtype=np.uint64, endpoint=False)
    values = bits.view(np.float64)
    _assert_reference_lines(_lines_of(values), values)


def _named_values():
    tiny, huge = 5e-324, 1.7976931348623157e308
    values = [0.0, -0.0, tiny, 2.225073858507201e-308, 2.2250738585072014e-308,
              huge, -huge, np.inf, -np.inf, np.nan, 1e-260, 1e260]
    for q in range(-300, 301):
        p = float(f"1e{q}")
        values += [np.nextafter(p, 0.0), p, np.nextafter(p, np.inf)]
    # exact ties at the 17th digit (the 18th significant digit a 5 and
    # nothing after it): 1 + 2^-17 = 1.00000762939453125
    values += [1.0 + 2.0 ** -17, 1.0 + 3 * 2.0 ** -17, 2.0 ** 60, 2.0 ** 61 + 2 ** 9]
    # near ties: the 18th significant digit a 5 followed by more digits
    values += [float(f"1.2345678901234567{d}e{q}") for d in ("5", "51", "49999")
               for q in (-200, -5, 0, 7, 150)]
    # values that round up to 10^17 at 17 digits: 9.99999999999999999e-1 .. ;
    # the largest double below each of 1, 10 and 1e22
    values += [0.99999999999999999, 9.999999999999999999, np.nextafter(1.0, 0.0),
               np.nextafter(10.0, 0.0), np.nextafter(1e22, 0.0), 99999999999999999.0]
    return values


def test_array_format_on_named_values():
    values = _named_values()
    values = values + [-x for x in values]
    _assert_reference_lines(_lines_of(values), values)
    assert b"1.0000076293945312e+00\n" in _lines_of([1.0 + 2.0 ** -17])


def test_array_format_around_powers_of_ten():
    # +-10^k and 40 neighbours on each side for every k in [-259, 258]
    powers = np.array([float(f"1e{k}") for k in range(-259, 259)])
    near = (powers.view(np.int64)[:, None] + np.arange(-40, 41)).view(np.float64).ravel()
    values = np.concatenate([near, -near])
    _assert_reference_lines(_lines_of(values), values)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_array_format_property(values):
    _assert_reference_lines(_lines_of(values), values)


def test_array_writer_chunks_and_empty_shapes(tmp_path):
    rng = np.random.default_rng(2)
    # columns of 2403 values, a zero, a nan and an -inf among them
    M = rng.standard_normal((2403, 3)) * 10.0 ** rng.integers(-12, 12, (1, 3))
    M[0, 1] = 0.0
    M[-1, 0] = np.nan
    M[1200, 2] = -np.inf
    for shape_matrix in (M, np.zeros((0, 2)), np.zeros((4, 0))):
        path = tmp_path / "m.mtx"
        write_matrix_market_array(shape_matrix, str(path))
        rows, cols = shape_matrix.shape
        header, size, lines = path.read_bytes().split(b"\n", 2)
        assert header + b"\n" + size == (
            f"%%MatrixMarket matrix array real general\n{rows} {cols}".encode())
        if shape_matrix.size:
            _assert_reference_lines(lines, shape_matrix.T.ravel())
        else:
            assert lines == b""
    # the -inf and nan tokens read back through both readers
    write_matrix_market_array(M, str(tmp_path / "m.mtx"))
    np.testing.assert_array_equal(read_matrix_market_array(str(tmp_path / "m.mtx")), M)
    write_matrix_market(csr_matrix(M), str(tmp_path / "coo.mtx"))
    np.testing.assert_array_equal(read_matrix_market(str(tmp_path / "coo.mtx")).toarray(), M)


def _input_of(write, value):
    """The dense `value` as the writer `write` takes it."""
    return csr_matrix(value) if write is write_matrix_market else value


@pytest.mark.parametrize("write", [write_matrix_market, write_matrix_market_array])
def test_writers_put_the_size_line_on_line_2(tmp_path, write):
    # no comment line: a reader of line 2 finds the size line
    M = _input_of(write, np.arange(6.0).reshape(3, 2) + 1.0)
    path = tmp_path / "m.mtx"
    write(M, str(path))
    lines = path.read_text().splitlines()
    assert lines[1] in ("3 2", "3 2 6")
    assert not any(line.startswith("%") for line in lines[1:])


@pytest.mark.parametrize("write", [write_matrix_market, write_matrix_market_array])
def test_writers_keep_a_symmetric_matrix_general(tmp_path, write):
    # every entry of a small symmetric matrix is listed, under a general
    # header
    S = np.arange(25.0).reshape(5, 5) + 1.0
    M = _input_of(write, S + S.T)
    path = tmp_path / "s.mtx"
    write(M, str(path))
    lines = path.read_text().splitlines()
    assert lines[0].endswith(" real general") and len(lines) == 2 + 25
    back = (read_matrix_market(str(path)).toarray() if write is write_matrix_market
            else read_matrix_market_array(str(path)))
    np.testing.assert_array_equal(back, S + S.T)


@pytest.mark.parametrize("write", [write_matrix_market, write_matrix_market_array])
@pytest.mark.parametrize("name", ["m.mtx", "factor_tf.mtx.tmp", "m"])
def test_writers_take_any_path_and_leave_no_temporary_file(tmp_path, write, name):
    # a str or pathlib.Path target, with or without ".mtx", is written as
    # named, and nothing else is left in its directory
    M = _input_of(write, np.array([[1.5, 0.25], [-2.0, 3.0]]))
    for target in (str(tmp_path / name), tmp_path / name):
        write(M, target)
        assert os.listdir(tmp_path) == [name]
        assert pathlib.Path(target).read_text().splitlines()[1] in ("2 2", "2 2 4")
        os.remove(target)


@pytest.mark.parametrize("write", [write_matrix_market, write_matrix_market_array])
def test_writers_leave_no_temporary_file_when_mmwrite_raises(tmp_path, monkeypatch, write):
    import scipy.io

    def failing(target, *args, **kwargs):
        with open(target, "w") as fh:
            fh.write("%%MatrixMarket matrix array real general\n")
        raise OSError("disk full")

    monkeypatch.setattr(scipy.io, "mmwrite", failing)
    M = _input_of(write, np.eye(2))
    with pytest.raises(OSError, match="disk full"):
        write(M, str(tmp_path / "m.mtx"))
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("write", [write_matrix_market, write_matrix_market_array])
def test_an_interrupted_write_leaves_the_target_as_it_was(tmp_path, monkeypatch, write):
    # a write that fails after the header leaves no partial file: a new
    # target does not appear, and an existing one keeps its bytes
    import shutil

    def interrupted(src, dst, *args):
        dst.write(src.read(4))
        raise OSError("disk full")

    target = tmp_path / "m.mtx"
    M = _input_of(write, np.arange(4.0).reshape(2, 2) + 1.0)
    monkeypatch.setattr(shutil, "copyfileobj", interrupted)
    with pytest.raises(OSError, match="disk full"):
        write(M, str(target))
    assert os.listdir(tmp_path) == []
    monkeypatch.undo()
    write(M, str(target))
    old = target.read_bytes()
    monkeypatch.setattr(shutil, "copyfileobj", interrupted)
    with pytest.raises(OSError, match="disk full"):
        write(_input_of(write, np.eye(2)), str(target))
    assert os.listdir(tmp_path) == ["m.mtx"]
    assert target.read_bytes() == old
