"""Matrix Market I/O: coordinate files for sparse matrices, array files
for dense blocks.

A small hand-rolled parser is used instead of scipy.io so that malformed
files, a bad size line or a byte that is not UTF-8 among them, are
reported with the offending line number. Both readers parse their
entries with numpy and read them again line by line only where a check
could fail, to name the line.

Both writers go through `scipy.io.mmwrite` at 17 significant digits,
which prints a finite value as Python's "%.16e" does, so written values
round-trip bit-exactly. They write no comment line: the size line is
line 2. A file is written under a temporary name and renamed into place
(`published`), so a failed or interrupted write leaves no partial file.
"""

import contextlib
import io
import os
import shutil
import tempfile

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix


class MatrixMarketParseError(ValueError):
    def __init__(self, path, lineno, message):
        super().__init__(f"{path}:{lineno}: {message}")
        self.path = path
        self.lineno = lineno


def _read_lines(path):
    """The lines of a UTF-8 text file, read as `open(path).readlines()`
    reads them; a byte that is not UTF-8 is a parse error on its line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode()
    except UnicodeDecodeError as exc:
        raise MatrixMarketParseError(path, data.count(b"\n", 0, exc.start) + 1,
                                     "not UTF-8 text") from None
    return io.StringIO(text, newline=None).readlines()


def _data_lines(path, lines):
    """Yield (lineno, fields) skipping comments and blank lines."""
    for lineno, raw in lines:
        stripped = raw.strip()
        if not stripped or stripped.startswith("%"):
            continue
        yield lineno, stripped.split()


def _size_line(path, data, n_lines, count):
    """(lineno, sizes): the size line's number and its `count` non-negative
    integers. Declaring more entries than lines follow it is an error,
    raised before anything of that size is allocated."""
    try:
        lineno, fields = next(data)
    except StopIteration:
        raise MatrixMarketParseError(path, n_lines, "missing size line") from None
    if len(fields) != count:
        raise MatrixMarketParseError(
            path, lineno, f"size line needs {count} fields, got {len(fields)}")
    try:
        sizes = [int(f) for f in fields]
    except ValueError:
        sizes = None
    if sizes is None or min(sizes) < 0:
        raise MatrixMarketParseError(
            path, lineno, f"size line needs {count} non-negative integers, "
                          f"got {' '.join(fields)!r}")
    entries = sizes[2] if count == 3 else sizes[0] * sizes[1]
    if entries > n_lines - lineno:
        raise MatrixMarketParseError(
            path, lineno, f"size line declares {entries} entries, but only "
                          f"{n_lines - lineno} lines follow it")
    return lineno, sizes


def _prologue(path, layout, symmetries):
    """(lines, symmetry, data, lineno, sizes) of the real `layout` file at
    `path`, whose symmetry must be one of `symmetries`: its lines, its
    symmetry, the (lineno, fields) pairs of its data lines past the size
    line, and that line's number and sizes (3 for a coordinate file, 2
    for an array file)."""
    lines = _read_lines(path)
    if not lines:
        raise MatrixMarketParseError(path, 1, "empty file")
    fields = lines[0].strip().split()
    if len(fields) != 5 or fields[0] != "%%MatrixMarket":
        raise MatrixMarketParseError(path, 1, f"malformed header: {lines[0].strip()!r}")
    _, obj, got, field, symmetry = fields
    got, symmetry = got.lower(), symmetry.lower()
    if obj.lower() != "matrix":
        raise MatrixMarketParseError(path, 1, f"unsupported object {obj!r}")
    if field.lower() != "real":
        raise MatrixMarketParseError(path, 1, f"unsupported field {field!r}")
    if got != layout:
        raise MatrixMarketParseError(path, 1, f"expected {layout} layout, got {got!r}")
    if symmetry not in symmetries:
        raise MatrixMarketParseError(path, 1, f"unsupported symmetry {symmetry!r}")
    data = _data_lines(path, enumerate(lines[1:], start=2))
    lineno, sizes = _size_line(path, data, len(lines), 3 if layout == "coordinate" else 2)
    return lines, symmetry, data, lineno, sizes


_ENTRY = np.dtype([("i", np.int64), ("j", np.int64), ("v", float)])
_VALUE = np.dtype([("v", float)])


def _parsed_entries(lines, dtype, count):
    """The `count` records of `dtype` in the data `lines`, one a line,
    parsed by numpy; None where the reader's line loop may find a fault,
    which it then names by line.

    numpy's parsers accept a subset of what `int` and `float` accept and
    give the same values; a comment line, a line of other than the dtype's
    field count, or a count other than `count` leaves the lines to the
    line loop.
    """
    # loadtxt warns when no line holds an entry
    if count == 0 or all(map(str.isspace, lines)):
        return None
    try:
        e = np.loadtxt(lines, dtype=dtype, comments=None, ndmin=1)
    except ValueError:
        return None
    return e if len(e) == count else None


def _in_bounds(i, j, nrows, ncols, symmetric):
    """Whether 1-based (i, j) lie in the matrix, and in a symmetric one's lower triangle."""
    return not (i.min() < 1 or i.max() > nrows or j.min() < 1
                or j.max() > ncols or (symmetric and np.any(i < j)))


def _checked_entries(path, data, n_lines, nrows, ncols, nnz, symmetric):
    """(rows, cols, vals), 0-based, of the (lineno, fields) pairs of `data`,
    parsed line by line; the first faulty line raises."""
    rows = np.empty(nnz, dtype=np.int64)
    cols = np.empty(nnz, dtype=np.int64)
    vals = np.empty(nnz, dtype=float)
    k = 0
    for lineno, fields in data:
        if k >= nnz:
            raise MatrixMarketParseError(path, lineno, "more entries than the size line declares")
        if len(fields) != 3:
            raise MatrixMarketParseError(path, lineno, f"entry needs 3 fields, got {len(fields)}")
        try:
            i, j, v = int(fields[0]), int(fields[1]), float(fields[2])
        except ValueError:
            raise MatrixMarketParseError(path, lineno, f"malformed entry {' '.join(fields)!r}") from None
        if not (1 <= i <= nrows and 1 <= j <= ncols):
            raise MatrixMarketParseError(path, lineno, f"index ({i},{j}) out of bounds")
        if i < j and symmetric:
            raise MatrixMarketParseError(
                path, lineno, f"entry ({i},{j}) above the diagonal of a symmetric matrix")
        rows[k], cols[k], vals[k] = i - 1, j - 1, v
        k += 1
    if k != nnz:
        raise MatrixMarketParseError(path, n_lines, f"expected {nnz} entries, found {k}")
    return rows, cols, vals


def read_matrix_market(path):
    """Read a real coordinate Matrix Market file into CSR.

    General and symmetric files are supported; symmetric storage, which
    holds the lower triangle only, is expanded to full storage on read, and
    an entry above its diagonal is a parse error.
    """
    raw_lines, symmetry, data, lineno, (nrows, ncols, nnz) = _prologue(
        path, "coordinate", ("general", "symmetric"))
    symmetric = symmetry == "symmetric"
    if symmetric and nrows != ncols:
        raise MatrixMarketParseError(
            path, lineno, f"a symmetric matrix must be square, got {nrows} x {ncols}")

    e = _parsed_entries(raw_lines[lineno:], _ENTRY, nnz)
    if e is not None and _in_bounds(e["i"], e["j"], nrows, ncols, symmetric):
        rows, cols, vals = e["i"] - 1, e["j"] - 1, e["v"]
    else:
        rows, cols, vals = _checked_entries(path, data, len(raw_lines), nrows,
                                            ncols, nnz, symmetric)
    if symmetric:
        off = rows != cols
        rows, cols, vals = (np.concatenate([rows, cols[off]]),
                            np.concatenate([cols, rows[off]]),
                            np.concatenate([vals, vals[off]]))
    A = coo_matrix((vals, (rows, cols)), shape=(nrows, ncols))
    return csr_matrix(A)


@contextlib.contextmanager
def published(path):
    """The name `path` + ".tmp", in `path`'s own directory, to write a file
    to. When the block completes, the file replaces `path`; when it
    raises, the file is removed and `path` is left as it was."""
    tmp = os.fspath(path) + ".tmp"
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _mmwrite(a, path):
    """Write `a`, a float array or sparse matrix, to `path` as a real
    general file by `scipy.io.mmwrite`, without the lone "%" line that
    mmwrite puts after the header."""
    # imported on the first write: imported with this module, scipy.io
    # would stay resident through a solve
    import scipy.io

    # mmwrite appends ".mtx" to a file name that lacks it
    fd, raw = tempfile.mkstemp(suffix=".mtx",
                               dir=os.path.dirname(os.path.abspath(path)))
    os.close(fd)
    try:
        # by default mmwrite writes a small symmetric matrix as "symmetric"
        scipy.io.mmwrite(raw, a, precision=17, symmetry="general")
        with (published(path) as tmp, open(raw, "rb") as src,
              open(tmp, "wb") as dst):
            dst.write(src.readline())
            line = src.readline()
            if line != b"%\n":
                dst.write(line)
            shutil.copyfileobj(src, dst)
    finally:
        os.remove(raw)


def write_matrix_market(A, path):
    """Write a sparse matrix as a real general coordinate file, its
    entries sorted by (row, col), duplicates kept."""
    A = coo_matrix(A)
    order = np.lexsort((A.col, A.row))
    _mmwrite(coo_matrix((np.asarray(A.data[order], dtype=float),
                         (A.row[order], A.col[order])), shape=A.shape), path)


def read_matrix_market_array(path):
    """Read a real dense array Matrix Market file (column-major values)."""
    raw_lines, _, data, lineno, (nrows, ncols) = _prologue(path, "array", ("general",))
    e = _parsed_entries(raw_lines[lineno:], _VALUE, nrows * ncols)
    if e is not None:
        return e["v"].reshape((ncols, nrows)).T.copy()
    vals = np.empty(nrows * ncols, dtype=float)
    k = 0
    for lineno, fields in data:
        if len(fields) != 1:
            raise MatrixMarketParseError(path, lineno, f"entry needs 1 field, got {len(fields)}")
        if k >= vals.size:
            raise MatrixMarketParseError(path, lineno, "more values than the size line declares")
        try:
            vals[k] = float(fields[0])
        except ValueError:
            raise MatrixMarketParseError(path, lineno, f"malformed value {fields[0]!r}") from None
        k += 1
    if k != vals.size:
        raise MatrixMarketParseError(path, len(raw_lines), f"expected {vals.size} values, found {k}")
    return vals.reshape((ncols, nrows)).T.copy()


def write_matrix_market_array(M, path):
    """Write a dense matrix as a real general array file."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise ValueError(f"expected a 2-D array, got shape {M.shape}")
    _mmwrite(M, path)
