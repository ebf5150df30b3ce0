"""Matrix Market I/O: coordinate files for sparse matrices, array files
for dense blocks.

A small hand-rolled parser is used instead of scipy.io so that malformed
files, a bad size line or a byte that is not UTF-8 among them, are
reported with the offending line number, and so that written values
round-trip bit-exactly (17 significant digits, as Python's "%.16e"
prints them). The coordinate reader parses its entries with numpy and
reads them again line by line only where a check could fail, to name the
line.

Both writers format their values in NumPy, a chunk of at most _CHUNK
values at a time: each value is scaled to a 17-digit integer by an
exact double-double product with a tabulated power of ten and rounded
half to even, which is the correctly rounded result "%.16e" gives. Python
prints a value itself where that is not certain: zeros, inf and nan,
magnitudes outside [1e-260, 1e260], values just below a power of ten,
and values whose rounding the product's error bound leaves undecided, ties
among them. The bytes are Python's either way.
"""

import functools
import io

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix


class MatrixMarketParseError(ValueError):
    def __init__(self, path, lineno, message):
        super().__init__(f"{path}:{lineno}: {message}")
        self.path = path
        self.lineno = lineno


def _fmt(x):
    return format(float(x), ".16e")


# -- "%.16e" for arrays -----------------------------------------------------
#
# With e = floor(log10 |x|), N = round(|x| 10^(16-e)). 10^q is tabulated
# as hi + lo, each a correctly rounded double, and |x| hi is made exact by
# Dekker's product, so the scaled value y is known to within 5e-15. `_fmt`
# prints the line where y's fraction lies within _UNDECIDED of 1/2, where
# y is not inside [1e16 - 0.05, 1e17) (e one off next to a power of ten,
# or N rounding to 1e17), and for magnitudes outside [_FAST_MIN, _FAST_MAX],
# where a table entry or a split half would leave the normal range.

_CHUNK = 2400                       # values per pass, at most
_FAST_MIN, _FAST_MAX = 1e-260, 1e260
_KMIN, _KMAX = -261, 277            # the exponents e and 16 - e it reads
_UNDECIDED = 1e-9                   # the product's error is below 5e-15
# A line is built in a row of 7 native 4-byte words: " -d." for the
# leading digit d, four of "0000".."9999", and an 8-byte exponent field
# "e+hdd\n  ". The bytes 0, 26 and 27 are never written out, the sign (1)
# and the exponent's hundreds digit (22) only when present.
_WORDS = 7


def _split(a):
    """Dekker's split a = hi + lo, exact, each part at most 26 bits wide."""
    c = 134217729.0 * a             # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


@functools.cache
def _tables():
    """Rows (hi, lo, the split halves of hi) of 10^k for k in
    [_KMIN, _KMAX]; the words of the leading digits and of "0000".."9999";
    the exponent field of each k and whether it has three digits."""
    hi, lo = [], []
    for k in range(_KMIN, _KMAX + 1):
        num, den = 10 ** max(k, 0), 10 ** max(-k, 0)
        h = num / den                       # int / int rounds correctly
        h_num, h_den = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * h_den - h_num * den) / (den * h_den))
    hi = np.array(hi)
    powers = np.column_stack([hi, lo, *_split(hi)])
    leads = np.frombuffer(b"".join(b" -%d." % d for d in range(10)), np.uint32)
    groups = np.arange(10000)[:, None] // [1000, 100, 10, 1] % 10 + ord("0")
    exps = range(_KMIN, _KMAX + 1)
    fields = np.frombuffer(b"".join(b"e%+04d\n  " % k for k in exps), np.uint64)
    return (powers, leads, groups.astype(np.uint8).view(np.uint32).ravel(),
            fields, np.abs(np.array(exps)) >= 100)


def _scaled(a, row, powers):
    """a 10^(16 - e) as the unevaluated sum p + s, to within 5e-15 where
    it lies below 1e17: p = fl(a hi) and a hi - p exactly by Dekker's
    product, plus a lo."""
    # the rows of 10^(16 - e) are in range: "clip" only skips the check
    hi, lo, b_h, b_l = np.take(powers, (16 - 2 * _KMIN) - row, axis=0, mode="clip").T
    p = a * hi
    a_h, a_l = _split(a)
    return p, (((a_h * b_h - p) + a_h * b_l + a_l * b_h) + a_l * b_l) + a * lo


def _digits(a, powers):
    """(N, row, decided) for magnitudes a in [_FAST_MIN, _FAST_MAX]: the 17
    digits N, the table row e - _KMIN of the exponent e, and whether the
    double-double product decides N."""
    # floor(log10 a) can be one off next to a power of ten; the scaled
    # value then falls outside [1e16, 1e17) and counts as undecided, but
    # for a y in [1e16 - 0.05, 1e16): at the exponent e - 1 its 17 digits
    # round up to 1e17, which "%.16e" prints as 10^e, so N = 1e16 is right
    row = np.floor(np.log10(a)).astype(np.intp) - _KMIN
    p, s = _scaled(a, row, powers)
    y_hi = p + s                    # an integer where decided
    y_lo = s - (y_hi - p)
    whole = np.floor(y_lo)
    frac = y_lo - whole
    decided = (((y_hi > 1e16) | ((y_hi == 1e16) & (y_lo > _UNDECIDED - 0.05)))
               & (y_hi < 1e17) & (np.abs(frac - 0.5) > _UNDECIDED))
    n = y_hi.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    return n, row, decided


def _fill_lines(x, tables, words, keep):
    """Build the "%.16e\n" line of each value of x in a row of `words`
    and mark the bytes it uses in `keep`. Returns the indices whose rows
    are not the line, to be printed by `_fmt`."""
    powers, leads, digits, fields, three = tables
    a = np.abs(x)
    # zeros, inf, nan and the magnitudes out of range are scaled as 1.0
    # and printed by `_fmt`
    fast = (a >= _FAST_MIN) & (a <= _FAST_MAX)
    n, row, decided = _digits(np.where(fast, a, 1.0), powers)
    lead = n // 10 ** 16
    rest = n - lead * 10 ** 16
    high = rest // 10 ** 8
    low = rest - high * 10 ** 8
    top_h, top_l = high // 10000, low // 10000
    # an undecided N can have two digits before the rest
    words[:, 0] = np.take(leads, lead, mode="clip")
    words[:, 1] = digits[top_h]
    words[:, 2] = digits[high - top_h * 10000]
    words[:, 3] = digits[top_l]
    words[:, 4] = digits[low - top_l * 10000]
    # one 8-byte field per row, at a byte offset 20 + 28 i that is not
    # always a multiple of 8
    words[:, 5:].view(np.uint64)[:, 0] = fields[row]
    keep[:, 1] = x < 0
    keep[:, 22] = three[row]
    return np.flatnonzero(~(decided & fast))


def _write_values(fh, rows):
    """Write one "%.16e\n" line per value of the 2-D array `rows`, row
    after row, to the binary file `fh`; the bytes are those of `_fmt`."""
    tables = _tables()
    # chunks of even size, none above _CHUNK
    parts = max(1, -(-rows.shape[1] // _CHUNK))
    size = -(-rows.shape[1] // parts)
    words = np.empty((size, _WORDS), np.uint32)
    keep = np.ones((size, 4 * _WORDS), bool)
    keep[:, [0, 26, 27]] = False
    for values in rows:
        for x in np.array_split(values, parts):
            m = x.size
            slow = _fill_lines(x, tables, words[:m], keep[:m])
            out = words[:m].view(np.uint8)[keep[:m]]
            if not slow.size:
                fh.write(out)
                continue
            ends = np.cumsum(keep[:m].sum(axis=1))
            pos = 0
            for j in slow.tolist():
                fh.write(out[pos:ends[j - 1] if j else 0])
                fh.write(_fmt(x[j]).encode() + b"\n")
                pos = ends[j]
            fh.write(out[pos:])


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


_ENTRY = np.dtype([("i", np.int64), ("j", np.int64), ("v", float)])


def _parsed_entries(lines, nrows, ncols, nnz, symmetric):
    """(rows, cols, vals), 0-based, of the coordinate entries in the data
    `lines`, parsed by numpy; None where `_checked_entries` may find a
    fault, which it then names by line.

    numpy's parsers accept a subset of what `int` and `float` accept and
    give the same values; a comment line, a line of the wrong width, an
    entry out of bounds or above a symmetric diagonal, or a count other
    than `nnz` leaves the lines to `_checked_entries`.
    """
    # loadtxt warns when no line holds an entry
    if nnz == 0 or all(map(str.isspace, lines)):
        return None
    try:
        e = np.loadtxt(lines, dtype=_ENTRY, comments=None, ndmin=1)
    except ValueError:
        return None
    i, j = e["i"], e["j"]
    if (len(e) != nnz or i.min() < 1 or i.max() > nrows or j.min() < 1
            or j.max() > ncols or (symmetric and np.any(i < j))):
        return None
    return i - 1, j - 1, e["v"]


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
    raw_lines = _read_lines(path)
    if not raw_lines:
        raise MatrixMarketParseError(path, 1, "empty file")
    layout, symmetry = _header_fields(path, raw_lines[0])
    if layout != "coordinate":
        raise MatrixMarketParseError(path, 1, f"expected coordinate layout, got {layout!r}")
    if symmetry not in ("general", "symmetric"):
        raise MatrixMarketParseError(path, 1, f"unsupported symmetry {symmetry!r}")

    data = _data_lines(path, enumerate(raw_lines[1:], start=2))
    lineno, (nrows, ncols, nnz) = _size_line(path, data, len(raw_lines), 3)
    symmetric = symmetry == "symmetric"
    if symmetric and nrows != ncols:
        raise MatrixMarketParseError(
            path, lineno, f"a symmetric matrix must be square, got {nrows} x {ncols}")

    entries = _parsed_entries(raw_lines[lineno:], nrows, ncols, nnz, symmetric)
    if entries is None:
        entries = _checked_entries(path, data, len(raw_lines), nrows, ncols,
                                   nnz, symmetric)
    rows, cols, vals = entries
    if symmetric:
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
    values = io.BytesIO()
    _write_values(values, np.asarray(A.data[order], dtype=float)[None, :])
    with open(path, "wb") as fh:
        fh.write(b"%%MatrixMarket matrix coordinate real general\n")
        fh.write(b"%d %d %d\n" % (*A.shape, A.nnz))
        fh.write(b"".join(b"%d %d %s\n" % line for line in zip(
            (A.row[order] + 1).tolist(), (A.col[order] + 1).tolist(),
            values.getvalue().splitlines())))


def read_matrix_market_array(path):
    """Read a real dense array Matrix Market file (column-major values)."""
    raw_lines = _read_lines(path)
    if not raw_lines:
        raise MatrixMarketParseError(path, 1, "empty file")
    layout, symmetry = _header_fields(path, raw_lines[0])
    if layout != "array":
        raise MatrixMarketParseError(path, 1, f"expected array layout, got {layout!r}")
    if symmetry != "general":
        raise MatrixMarketParseError(path, 1, f"unsupported symmetry {symmetry!r}")

    data = _data_lines(path, enumerate(raw_lines[1:], start=2))
    _, (nrows, ncols) = _size_line(path, data, len(raw_lines), 2)
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
    with open(path, "wb") as fh:
        fh.write(b"%%MatrixMarket matrix array real general\n")
        fh.write(b"%d %d\n" % M.shape)
        _write_values(fh, M.T)
