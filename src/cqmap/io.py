"""File formats shared across modules: sparse coordinate text, CSV tables,
atomic writes, and deterministic JSON with round-trippable floats."""

from __future__ import annotations

import itertools
import os
import tempfile
import warnings

import numpy as np
from scipy import sparse

from .errors import ResourceLimitError, ValidationError
from .model import MAX_OPERATOR_SPINS

COORDINATE_HEADER = "%%sparse-coordinate real"
# Entries formatted or parsed per call, so no per-entry Python code runs and
# the temporaries beside the text and the arrays do not grow with nnz.
COORDINATE_BLOCK = 1 << 12
_ENTRY_FORMAT = "%d %d %.17g\n"  # the bytes of f"{r} {c} {format_float(v)}"
_ENTRY = np.dtype([("row", np.int64), ("col", np.int64), ("value", np.float64)])


def atomic_write_text(path, text):
    """Write text to path atomically (temp file in the same directory + rename),
    1 MiB of text at a time, so no encoded copy of the whole text is made."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".cqmap-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            for start in range(0, len(text), 1 << 20):
                fh.write(text[start:start + (1 << 20)])
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def format_float(x):
    """17 significant digits: round-trippable and byte-stable."""
    return f"{float(x):.17g}"


def csv_text(header, rows):
    """The header line, then one line per row: floats by format_float, other cells by str."""
    def cell(x):
        return format_float(x) if isinstance(x, (float, np.floating)) else str(x)
    return "\n".join([header] + [",".join(map(cell, row)) for row in rows]) + "\n"


def row_blocks(matrix):
    """(lo, hi, a, b) of a CSR's rows lo:hi and their stored entries a:b, in
    blocks of about dim entries, so a walk keeps a few vectors' temporaries."""
    dim, indptr = matrix.shape[0], matrix.indptr
    step = max(1, dim * dim // max(matrix.nnz, 1))
    for lo in range(0, dim, step):
        hi = min(lo + step, dim)
        yield lo, hi, indptr[lo], indptr[hi]


def entry_rows(matrix):
    """The int32 row of every stored entry of a CSR."""
    return np.repeat(np.arange(matrix.shape[0], dtype=np.int32), np.diff(matrix.indptr))


def canonical_csr(matrix):
    """matrix as a CSR with sorted rows and no repeated entry: canonicalized
    on a copy if it is not, so the caller's arrays are left as they are."""
    csr = sparse.csr_array(matrix)
    if not csr.has_canonical_format:
        csr = csr.copy()  # sum_duplicates rewrites the arrays it shares with matrix
        csr.sum_duplicates()
    return csr


def coordinate_text(matrix):
    """Serialize a square sparse matrix as 1-based 'row col value' lines.

    The header line is followed by a size line 'rows cols nnz'; entries
    follow the canonical CSR, sorted by (row, col). Entries are formatted
    COORDINATE_BLOCK at a time, one %-format per block, so the temporaries
    beside the text are bounded by the block size.
    """
    csr = canonical_csr(matrix)
    parts = [f"{COORDINATE_HEADER}\n{csr.shape[0]} {csr.shape[1]} {csr.nnz}\n"]
    for start in range(0, csr.nnz, COORDINATE_BLOCK):
        stop = min(start + COORDINATE_BLOCK, csr.nnz)
        rows = np.searchsorted(csr.indptr, np.arange(start, stop), side="right")
        cells = [None] * (3 * (stop - start))
        cells[0::3] = rows.tolist()
        cells[1::3] = (csr.indices[start:stop] + 1).tolist()
        cells[2::3] = csr.data[start:stop].tolist()
        parts.append(_ENTRY_FORMAT * (stop - start) % tuple(cells))
    return "".join(parts)


def write_coordinate(matrix, path):
    atomic_write_text(path, coordinate_text(matrix))


def _parse_entries(lines):
    """The lines as an _ENTRY array, or None if any line is blank or is not
    exactly an int, an int and a float (numpy's text parser, which skips
    blank lines; a short result shows them)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
        try:
            entries = np.loadtxt(lines, dtype=_ENTRY, comments=None, ndmin=1)
        except ValueError:
            return None
    return entries if entries.size == len(lines) else None


def _first_refused(lines):
    """Index of the first line that _parse_entries refuses, by bisection;
    one of the lines must be refused."""
    lo, hi = 0, len(lines)  # lines[:lo] parse; the first refused one is in [lo, hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _parse_entries(lines[lo:mid]) is None:
            hi = mid
        else:
            lo = mid
    return lo


def _read_entries(fh, nnz, path):
    """The next nnz lines of fh as 0-based int64 rows and cols and float64
    values, parsed COORDINATE_BLOCK lines at a time. A blank, short or
    malformed line, or a missing one, raises ValidationError naming the
    first such entry; lines after the nnz-th are not read."""
    rows = np.empty(nnz, dtype=np.int64)
    cols = np.empty(nnz, dtype=np.int64)
    vals = np.empty(nnz)
    for start in range(0, nnz, COORDINATE_BLOCK):
        want = min(COORDINATE_BLOCK, nnz - start)
        lines = list(itertools.islice(fh, want))
        entries = _parse_entries(lines)
        if entries is None or len(lines) < want:
            bad = len(lines) if entries is not None else _first_refused(lines)
            raise ValidationError(f"{path}: truncated or malformed entry {start + bad}")
        rows[start:start + want] = entries["row"]
        cols[start:start + want] = entries["col"]
        vals[start:start + want] = entries["value"]
    rows -= 1
    cols -= 1
    return rows, cols, vals


def read_coordinate(path):
    """Read a sparse-coordinate text file of a 2^n x 2^n matrix, n >= 1, back
    into ``(n, CSR array)``.

    The size line is checked before any array is allocated: more entries
    than the matrix has places raise ValidationError, and a dimension above
    2^MAX_OPERATOR_SPINS raises ResourceLimitError.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != COORDINATE_HEADER:
            raise ValidationError(
                f"{path}: expected header {COORDINATE_HEADER!r}, got {header!r}"
            )
        try:
            nrows, ncols, nnz = (int(v) for v in fh.readline().split())
        except ValueError:
            raise ValidationError(f"{path}: malformed size line") from None
        if nrows != ncols:
            raise ValidationError(f"{path}: matrix is {nrows}x{ncols}, expected square")
        if nrows < 1 or nnz < 0:
            raise ValidationError(f"{path}: malformed size line")
        if nnz > nrows * ncols:
            raise ValidationError(f"{path}: {nnz} entries do not fit a {nrows}x{ncols} matrix")
        if nrows > 1 << MAX_OPERATOR_SPINS:
            raise ResourceLimitError(f"{path}: dimension {nrows} exceeds the "
                                     f"2^{MAX_OPERATOR_SPINS} cap")
        rows, cols, vals = _read_entries(fh, nnz, path)
    if nnz and (rows.min() < 0 or cols.min() < 0 or rows.max() >= nrows or cols.max() >= ncols):
        raise ValidationError(f"{path}: coordinate outside matrix bounds")
    if not np.all(np.isfinite(vals)):
        raise ValidationError(f"{path}: non-finite entry")
    matrix = sparse.coo_array((vals, (rows, cols)), shape=(nrows, ncols)).tocsr()
    if matrix.nnz < nnz:  # tocsr merged a repeated place
        raise ValidationError(f"{path}: duplicate (row, col) entry")
    n = nrows.bit_length() - 1
    if n < 1 or nrows != (1 << n):
        raise ValidationError(f"{path}: dimension {nrows} is not a power of two >= 2")
    return n, matrix


def json_text(obj, indent=0):
    """Deterministic JSON: insertion-ordered keys, floats via format_float."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{inner}"{k}": {json_text(v, indent + 1)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        items = [f"{inner}{json_text(v, indent + 1)}" for v in seq]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(obj)
    return '"' + str(obj).replace("\\", "\\\\").replace('"', '\\"') + '"'


def write_json(obj, path):
    atomic_write_text(path, json_text(obj) + "\n")
