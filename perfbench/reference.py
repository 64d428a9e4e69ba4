"""Independent checks for the runtime workloads.

The dense references follow the formulas in ``corpus/laplacian.lope`` and
``corpus/upwind.lope`` with periodic ``np.roll`` shifts over the global
field.  They use nothing from ``lopec``: in particular not
``lopec.runtime.oracle_step`` or ``lopec.ir.run_body``, which share the
interpreter under test.
"""

from __future__ import annotations

import numpy as np

# float64 agreement required between the distributed run and the dense
# reference, relative to the largest magnitude in the reference field.
RTOL = 1e-12


def _shift(u: np.ndarray, o1: int, o2: int) -> np.ndarray:
    """The field seen at offset (o1, o2) from every point, periodically."""
    return np.roll(u, shift=(-o1, -o2), axis=(0, 1))


def laplacian_step(u: np.ndarray) -> np.ndarray:
    # U(0,+1) + U(-1,0) - 3*U(0,0) + U(+1,0) + U(0,-1)
    return (_shift(u, 0, 1) + _shift(u, -1, 0) - 3.0 * u + _shift(u, 1, 0)
            + _shift(u, 0, -1))


def upwind_step(u: np.ndarray, c: float = 0.25) -> np.ndarray:
    # t = U(-1,0) - U(-2,0)
    # U(0,0) + c*t + 0.125*(U(0,-1) - 2*U(0,0) + U(0,+1))
    t = _shift(u, -1, 0) - _shift(u, -2, 0)
    return u + c * t + 0.125 * (_shift(u, 0, -1) - 2.0 * u + _shift(u, 0, 1))


STEPS = {"laplacian": laplacian_step, "upwind": upwind_step}


def dense_run(kernel: str, field: np.ndarray, steps: int) -> np.ndarray:
    u = field
    for _ in range(steps):
        u = STEPS[kernel](u)
    return u


def close(out: np.ndarray, ref: np.ndarray, rtol: float = RTOL) -> bool:
    """Same shape, finite, and within ``rtol`` of the reference's scale."""
    if out.shape != ref.shape or not np.all(np.isfinite(out)):
        return False
    scale = max(float(np.max(np.abs(ref))), np.finfo(np.float64).tiny)
    return float(np.max(np.abs(out - ref))) <= rtol * scale


def read_field_text(path: str) -> np.ndarray:
    """Parse a field file with plain ``float()``: header ``M N``, then N
    lines of M values, line j holding column j."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().split("\n") if ln.strip()]
    m, n = (int(x) for x in lines[0].split())
    if len(lines) != n + 1:
        raise ValueError(f"expected {n} data lines, got {len(lines) - 1}")
    cols = [[float(x) for x in ln.split()] for ln in lines[1:]]
    if any(len(c) != m for c in cols):
        raise ValueError("a data line does not hold M values")
    return np.array(cols, dtype=np.float64).T


def bit_identical(a: np.ndarray, b: np.ndarray) -> bool:
    return (a.shape == b.shape and a.dtype == b.dtype == np.float64
            and np.array_equal(a.view(np.int64), b.view(np.int64)))
