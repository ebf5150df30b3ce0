"""Matrix Market I/O: coordinate files for sparse matrices, array files
for dense blocks.

A small hand-rolled parser is used instead of scipy.io so that malformed
files are reported with the offending line number, and so that written
values round-trip bit-exactly (17 significant digits).
"""

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix


class MatrixMarketParseError(ValueError):
    def __init__(self, path, lineno, message):
        super().__init__(f"{path}:{lineno}: {message}")
        self.path = path
        self.lineno = lineno


def _fmt(x):
    return format(float(x), ".16e")


def _header_fields(path, line):
    fields = line.strip().split()
    if len(fields) != 5 or fields[0] != "%%MatrixMarket":
        raise MatrixMarketParseError(path, 1, f"malformed header: {line.strip()!r}")
    _, obj, layout, field, symmetry = fields
    if obj.lower() != "matrix":
        raise MatrixMarketParseError(path, 1, f"unsupported object {obj!r}")
    if field.lower() != "real":
        raise MatrixMarketParseError(path, 1, f"unsupported field {field!r}")
    return layout.lower(), symmetry.lower()


def _data_lines(path, lines):
    """Yield (lineno, fields) skipping comments and blank lines."""
    for lineno, raw in lines:
        stripped = raw.strip()
        if not stripped or stripped.startswith("%"):
            continue
        yield lineno, stripped.split()


def read_matrix_market(path):
    """Read a real coordinate Matrix Market file into CSR.

    General and symmetric files are supported; symmetric storage is
    expanded to full storage on read.
    """
    with open(path) as fh:
        raw_lines = fh.readlines()
    if not raw_lines:
        raise MatrixMarketParseError(path, 1, "empty file")
    layout, symmetry = _header_fields(path, raw_lines[0])
    if layout != "coordinate":
        raise MatrixMarketParseError(path, 1, f"expected coordinate layout, got {layout!r}")
    if symmetry not in ("general", "symmetric"):
        raise MatrixMarketParseError(path, 1, f"unsupported symmetry {symmetry!r}")

    data = _data_lines(path, enumerate(raw_lines[1:], start=2))
    try:
        lineno, fields = next(data)
    except StopIteration:
        raise MatrixMarketParseError(path, len(raw_lines), "missing size line") from None
    if len(fields) != 3:
        raise MatrixMarketParseError(path, lineno, f"size line needs 3 fields, got {len(fields)}")
    try:
        nrows, ncols, nnz = (int(f) for f in fields)
    except ValueError:
        raise MatrixMarketParseError(path, lineno, "non-integer size line") from None

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
        rows[k], cols[k], vals[k] = i - 1, j - 1, v
        k += 1
    if k != nnz:
        raise MatrixMarketParseError(path, len(raw_lines), f"expected {nnz} entries, found {k}")

    if symmetry == "symmetric":
        off = rows != cols
        rows, cols, vals = (np.concatenate([rows, cols[off]]),
                            np.concatenate([cols, rows[off]]),
                            np.concatenate([vals, vals[off]]))
    A = coo_matrix((vals, (rows, cols)), shape=(nrows, ncols))
    return csr_matrix(A)


def write_matrix_market(A, path):
    """Write a sparse matrix as a real general coordinate file."""
    A = coo_matrix(A)
    order = np.lexsort((A.col, A.row))
    with open(path, "w") as fh:
        fh.write("%%MatrixMarket matrix coordinate real general\n")
        fh.write(f"{A.shape[0]} {A.shape[1]} {A.nnz}\n")
        for k in order:
            fh.write(f"{A.row[k] + 1} {A.col[k] + 1} {_fmt(A.data[k])}\n")


def read_matrix_market_array(path):
    """Read a real dense array Matrix Market file (column-major values)."""
    with open(path) as fh:
        raw_lines = fh.readlines()
    if not raw_lines:
        raise MatrixMarketParseError(path, 1, "empty file")
    layout, symmetry = _header_fields(path, raw_lines[0])
    if layout != "array":
        raise MatrixMarketParseError(path, 1, f"expected array layout, got {layout!r}")
    if symmetry != "general":
        raise MatrixMarketParseError(path, 1, f"unsupported symmetry {symmetry!r}")

    data = _data_lines(path, enumerate(raw_lines[1:], start=2))
    try:
        lineno, fields = next(data)
    except StopIteration:
        raise MatrixMarketParseError(path, len(raw_lines), "missing size line") from None
    if len(fields) != 2:
        raise MatrixMarketParseError(path, lineno, f"size line needs 2 fields, got {len(fields)}")
    nrows, ncols = int(fields[0]), int(fields[1])
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
    with open(path, "w") as fh:
        fh.write("%%MatrixMarket matrix array real general\n")
        fh.write(f"{M.shape[0]} {M.shape[1]}\n")
        # one formatting call per column; "%.16e" prints as _fmt does
        line = "%.16e\n" * M.shape[0]
        for col in M.T:
            fh.write(line % tuple(col.tolist()))
