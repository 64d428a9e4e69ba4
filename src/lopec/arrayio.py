"""Whitespace-delimited text format for global array fields.

Header line ``M N`` (interior extents; ``M 1`` for one-dimensional fields),
then N data lines of M space-separated values: line j holds U(1..M, j).
Values are written with 17 significant digits (``%.17g``) so float64 fields
round-trip bit-exactly through text.  A value is read as C's ``strtod``
reads it, so ``1_0``, which Python's ``float`` takes for 10, is rejected;
so is a header too large to allocate.
"""

from __future__ import annotations

import io

import numpy as np


class ArrayFormatError(ValueError):
    pass


def _next_content_line(stream):
    """Next non-blank line, or None at end of stream."""
    while True:
        line = stream.readline()
        if not line:
            return None
        if line.strip():
            return line


def read_array(stream) -> np.ndarray:
    """Read a field; returns a float64 array of shape (M, N)."""
    if isinstance(stream, (str, bytes)):
        stream = io.StringIO(stream if isinstance(stream, str)
                             else stream.decode())
    first = _next_content_line(stream)
    header = first.split() if first is not None else []
    if len(header) != 2 or "_" in first:
        raise ArrayFormatError("header must be two integers: M N")
    try:
        m, n = int(header[0]), int(header[1])
    except ValueError as exc:
        raise ArrayFormatError("header must be two integers: M N") from exc
    if m < 1 or n < 1:
        raise ArrayFormatError(f"extents must be positive, got {m} {n}")
    try:
        data = np.empty((m, n), dtype=np.float64)
    except (MemoryError, ValueError) as exc:
        raise ArrayFormatError(f"extents {m} {n} are too large") from exc
    for j in range(n):
        line = _next_content_line(stream)
        if line is None:
            raise ArrayFormatError(f"expected {n} data line(s), got {j}")
        parts = line.split()
        if "_" in line:
            raise ArrayFormatError(f"data line {j + 1} contains '_'")
        if len(parts) != m:
            raise ArrayFormatError(
                f"data line {j + 1} has {len(parts)} value(s), expected {m}")
        try:
            data[:, j] = [float(p) for p in parts]
        except ValueError as exc:
            raise ArrayFormatError(
                f"data line {j + 1} contains a non-numeric value") from exc
    return data


def read_array_file(path: str) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as f:
        try:
            return read_array(f)
        except UnicodeDecodeError as exc:
            raise ArrayFormatError("not UTF-8 text") from exc


def write_array(stream, field: np.ndarray) -> None:
    """Write a (M, N) or (M,) float64 field."""
    if field.ndim == 1:
        field = field.reshape(-1, 1)
    if field.ndim != 2:
        raise ArrayFormatError(f"cannot write a rank-{field.ndim} field")
    m, n = field.shape
    stream.write(f"{m} {n}\n")
    line = " ".join(["%.17g"] * m) + "\n"
    for j in range(n):
        stream.write(line % tuple(field[:, j].tolist()))


def write_array_file(path: str, field: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as f:
        write_array(f, field)


def format_array(field: np.ndarray) -> str:
    out = io.StringIO()
    write_array(out, field)
    return out.getvalue()
