"""File formats shared across modules: sparse coordinate text, atomic writes,
and deterministic JSON with round-trippable floats."""

from __future__ import annotations

import os
import tempfile

import numpy as np
from scipy import sparse

from .errors import ValidationError

COORDINATE_HEADER = "%%sparse-coordinate real"


def atomic_write_text(path, text):
    """Write text to path atomically (temp file in the same directory + rename)."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".cqmap-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def format_float(x):
    """17 significant digits: round-trippable and byte-stable."""
    return f"{float(x):.17g}"


def coordinate_text(matrix):
    """Serialize a square sparse matrix as 1-based 'row col value' lines.

    The header line is followed by a size line 'rows cols nnz'; entries are
    sorted by (row, col) so output is deterministic.
    """
    coo = sparse.coo_array(matrix)
    rows, cols = coo.row, coo.col
    order = np.lexsort((cols, rows))
    lines = [COORDINATE_HEADER, f"{coo.shape[0]} {coo.shape[1]} {coo.nnz}"]
    data = coo.data
    for k in order:
        lines.append(f"{rows[k] + 1} {cols[k] + 1} {format_float(data[k])}")
    return "\n".join(lines) + "\n"


def write_coordinate(matrix, path):
    atomic_write_text(path, coordinate_text(matrix))


def read_coordinate(path):
    """Read a sparse-coordinate text file of a 2^n x 2^n matrix, n >= 1, back
    into ``(n, CSR array)``."""
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
        rows = np.empty(nnz, dtype=np.int64)
        cols = np.empty(nnz, dtype=np.int64)
        vals = np.empty(nnz)
        for k in range(nnz):
            try:
                row, col, val = fh.readline().split()
                rows[k], cols[k], vals[k] = int(row) - 1, int(col) - 1, float(val)
            except (ValueError, OverflowError):
                raise ValidationError(f"{path}: truncated or malformed entry {k}") from None
    if nnz and (rows.min() < 0 or cols.min() < 0 or rows.max() >= nrows or cols.max() >= ncols):
        raise ValidationError(f"{path}: coordinate outside matrix bounds")
    if not np.all(np.isfinite(vals)):
        raise ValidationError(f"{path}: non-finite entry")
    if np.unique(rows * ncols + cols).size != nnz:
        raise ValidationError(f"{path}: duplicate (row, col) entry")
    n = nrows.bit_length() - 1
    if n < 1 or nrows != (1 << n):
        raise ValidationError(f"{path}: dimension {nrows} is not a power of two >= 2")
    return n, sparse.coo_array((vals, (rows, cols)), shape=(nrows, ncols)).tocsr()


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
