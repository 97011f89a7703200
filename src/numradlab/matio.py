"""Matrix exchange format: a JSON document with an integer ``dim`` and
``rows``, a dim x dim nesting of [re, im] pairs."""

from __future__ import annotations

import json
from itertools import chain

import numpy as np

from .errors import MatrixFormatError


def _pairs(A):
    """A complex array as nested lists of [re, im] pairs (a scalar as one pair)."""
    A = np.ascontiguousarray(A, dtype=np.complex128)
    return A.view(np.float64).reshape(A.shape + (2,)).tolist()


def matrix_to_dict(A) -> dict:
    rows = _pairs(A)
    return {"dim": len(rows), "rows": rows}


def dumps_matrix(A) -> str:
    return json.dumps(matrix_to_dict(A), indent=1) + "\n"


def _decode_entries(rows):
    """All entries as one float array of [re, im] pairs, or None when one is faulty.

    Types are screened before numpy sees the numbers, because np.array would
    turn True, None and "1.5" into floats.
    """
    entries = list(chain.from_iterable(rows))
    if not all(issubclass(t, list) for t in set(map(type, entries))) or set(map(len, entries)) != {2}:
        return None
    flat = list(chain.from_iterable(entries))
    if not all(issubclass(t, (int, float)) and not issubclass(t, bool) for t in set(map(type, flat))):
        return None
    try:
        arr = np.array(flat, dtype=np.float64)
    except OverflowError:  # an integer literal beyond the float range
        return None
    return arr if np.isfinite(arr).all() else None


def _refuse_first_fault(rows):
    """Raise for the first entry, in row-major order, that does not decode:
    screen the rows first, then the entries of the first faulty row."""
    i = next(i for i, row in enumerate(rows) if _decode_entries([row]) is None)
    j, entry = next((j, entry) for j, entry in enumerate(rows[i]) if _decode_entries([[entry]]) is None)
    if not (isinstance(entry, list) and len(entry) == 2):
        raise MatrixFormatError(f"entry ({i},{j}) must be a [re, im] pair")
    raise MatrixFormatError(f"entry ({i},{j}) must hold finite numbers")


def matrix_from_dict(doc) -> np.ndarray:
    if not isinstance(doc, dict) or "dim" not in doc or "rows" not in doc:
        raise MatrixFormatError("document must carry 'dim' and 'rows' fields")
    dim = doc["dim"]
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise MatrixFormatError(f"'dim' must be a positive integer, got {dim!r}")
    rows = doc["rows"]
    if not isinstance(rows, list) or len(rows) != dim:
        raise MatrixFormatError(f"'rows' must list {dim} rows, got {len(rows) if isinstance(rows, list) else type(rows).__name__}")
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != dim:
            raise MatrixFormatError(f"row {i} must list {dim} entries")
    # Decode only once the rows are known to hold dim * dim entries.
    arr = _decode_entries(rows)
    if arr is None:
        _refuse_first_fault(rows)
    return arr.view(np.complex128).reshape(dim, dim)


def loads_matrix(text) -> np.ndarray:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MatrixFormatError(exc.msg, line=exc.lineno, column=exc.colno) from exc
    except RecursionError as exc:
        raise MatrixFormatError("document nests too deeply") from exc
    return matrix_from_dict(doc)


def load_matrix(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise MatrixFormatError(f"document is not UTF-8 text: {exc.reason}") from exc
    return loads_matrix(text)


def save_matrix(A, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_matrix(A))
