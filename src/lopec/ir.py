"""Checked kernels, their interpretation, and storage-layout index mapping.

``KernelIR`` is a checked kernel's metadata (parameters, ranks, types,
locals, read footprints) next to its body, the kernel's own list of
``ast.Assign``.  Nothing rewrites the body: ``run_body`` here and the C
emitter in ``codegen`` both read the statements as they stand in the AST,
so ``a - b`` is one subtraction in both.

``StorageLayout`` describes the per-image padded block (interior extents
plus halo widths per side, stored column-major) and owns its index map,
through which every runtime read, write-back, section and halo exchange
indexes.  The emitted C spells the same map as text; tests replay it
against the runtime.

``run_body`` interprets a kernel body against a caller-supplied read
callback.  Operands flow through numpy, so the same code evaluates whole
arrays (vector launches, the dense oracle) and single float64 points
(scrambled-order launches) with bit-identical arithmetic per element.  A
caller that evaluates the same window repeatedly passes a ``Workspace``:
the window is then evaluated in chunks of at most ``CHUNK_LANES`` lanes,
whose temporaries stay in cache and are reused instead of allocated, and
the stores go in place into the windows the body reads.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import ast
from .checks import Footprint, KernelInfo


@dataclass
class KernelIR:
    name: str
    array_params: list[str]
    scalar_params: list[str]
    param_rank: dict[str, int]
    param_types: dict[str, str]
    local_scalars: list[str]
    footprints: dict[str, Footprint]
    body: list[ast.Assign]        # a centre store or a local assignment each

    @property
    def rank(self) -> int:
        return self.param_rank[self.array_params[0]]

    @property
    def stored_arrays(self) -> list[str]:
        seen = []
        for st in self.body:
            if isinstance(st.lhs, ast.OffsetRef) and st.lhs.array not in seen:
                seen.append(st.lhs.array)
        return seen


def lower_kernel(info: KernelInfo) -> KernelIR:
    """A checked kernel's metadata and statements.  The kernel must be
    diagnostic-free; the statements are shared with its AST, not copied."""
    return KernelIR(info.kernel.name, list(info.array_params),
                    list(info.scalar_params), dict(info.param_rank),
                    dict(info.param_types), list(info.local_scalars),
                    dict(info.footprints), list(info.kernel.body))


# ---------------------------------------------------------------------------
# Storage layout


@dataclass(frozen=True)
class StorageLayout:
    """Padded column-major block: interior extents and halo widths per side."""

    interior: tuple[int, ...]
    lo: tuple[int, ...]
    hi: tuple[int, ...]

    def __post_init__(self):
        interior, lo, hi = self.interior, self.lo, self.hi
        if not len(interior) == len(lo) == len(hi):
            raise ValueError("layout tuples must have equal length")
        if interior and min(interior) < 1:
            raise ValueError("interior extents must be positive")
        if lo and min(lo + hi) < 0:
            raise ValueError("halo widths must be non-negative")
        # the layout is immutable, so its derived tuples are computed once
        object.__setattr__(self, "_padded", tuple(
            map(operator.add, map(operator.add, interior, lo), hi)))
        # the padded coordinate of interior position 0, per dimension
        object.__setattr__(self, "_origin", tuple(w - 1 for w in lo))

    @property
    def rank(self) -> int:
        return len(self.interior)

    def padded(self) -> tuple[int, ...]:
        return self._padded

    def count(self) -> int:
        return math.prod(self._padded)

    def at(self, centre, offsets=None) -> tuple:
        """0-based padded coordinates of the cell ``offsets`` away from the
        1-based interior point ``centre``: ints or broadcastable integer
        arrays, unchecked.  A shorter centre places its leading dims."""
        coords = map(operator.add, centre, self._origin)
        if offsets is not None:
            coords = map(operator.add, coords, offsets)
        return tuple(coords)

    def slab(self, ranges=None, offsets=None) -> tuple[slice, ...]:
        """The index of 1-based inclusive interior ``ranges``, one
        ``(first, last)`` per dimension and the whole interior by default,
        displaced by ``offsets``."""
        if ranges is None:
            ranges = [(1, m) for m in self.interior]
        first, last = zip(*ranges)
        stop = self.at([b + 1 for b in last], offsets)
        return tuple(map(slice, self.at(first, offsets), stop))


# ---------------------------------------------------------------------------
# Interpretation


# Most lanes in one chunk: a float64 temporary of 256 KiB stays in cache.
CHUNK_LANES = 1 << 15


class Workspace:
    """Reusable buffers for ``run_body`` on one window of ``shape`` (every
    read's), evaluated in chunks along axis 0 of at most ``CHUNK_LANES``,
    or of ``lag + 1`` rows where a chunk must span more.

    Every array-valued result goes into one of ``buffers`` through ``out=``
    and a temporary is freed once the node that consumes it has run, so the
    pool holds the body's live temporaries plus pinned locals and stores
    and grows only on the first calls.  ``keep`` indexes the window's rows
    whose values the stores must leave as they were.
    """

    def __init__(self, shape: tuple[int, ...], lag: int = 0,
                 keep: np.ndarray = np.empty(0, np.intp)):
        self.shape, self.lag, self.keep = shape, lag, keep
        # the rows of one chunk, spread evenly over as few chunks as fit
        most = max(1, CHUNK_LANES // math.prod(shape[1:]))
        self.rows = max(-(-shape[0] // -(-shape[0] // most)), lag + 1)
        self.buffers: list[np.ndarray] = []
        self._free: list[np.ndarray] = []
        self._temps: set[int] = set()       # ids of unpinned temporaries

    def reset(self, rows: int) -> None:
        """Start a chunk of ``rows``: every buffer is free again."""
        self._free = [buf[:rows] for buf in reversed(self.buffers)]
        self._rows = rows
        self._temps.clear()

    def _take(self) -> np.ndarray:
        if self._free:
            buf = self._free.pop()
        else:
            # column-major like the blocks, so operands stream in order
            self.buffers.append(
                np.empty((self.rows,) + self.shape[1:], order="F"))
            buf = self.buffers[-1][:self._rows]
        self._temps.add(id(buf))
        return buf

    def pin(self, value, store: bool = False):
        """Keep ``value`` (a local or a store) from reuse until ``reset``.
        A store that is no fresh temporary, such as a view of a window that
        a store may overwrite, is copied into one first."""
        if store and id(value) not in self._temps:
            value, buf = self._take(), value
            value[...] = buf
        self._temps.discard(id(value))
        return value

    def binary(self, ufunc, a, b):
        """``ufunc(a, b)``; an array result goes into a consumed operand
        temporary or a free buffer."""
        temps = self._temps
        if id(a) in temps:
            if id(b) in temps:
                temps.discard(id(b))
                self._free.append(b)
            return ufunc(a, b, out=a)
        if id(b) in temps:
            return ufunc(a, b, out=b)
        if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
            return ufunc(a, b, out=self._take())
        return ufunc(a, b)

    def unary(self, ufunc, a):
        """``ufunc(a)``, placed like ``binary``."""
        if id(a) in self._temps:
            return ufunc(a, out=a)
        if isinstance(a, np.ndarray):
            return ufunc(a, out=self._take())
        return ufunc(a)


_BINARY = {"+": (operator.add, np.add), "-": (operator.sub, np.subtract),
           "*": (operator.mul, np.multiply),
           "/": (operator.truediv, np.true_divide)}
_UNARY = {"abs": np.abs, "sqrt": np.sqrt}
_FOLD = {"min": np.minimum, "max": np.maximum}


def run_body(ir: KernelIR, read: Callable[[str, tuple[int, ...]], object],
             scalars: dict[str, object] | None = None,
             workspace: Workspace | None = None) -> dict[str, object]:
    """Evaluate the kernel body; returns pending centre values per array.

    ``read(array, offsets)`` supplies operands — float64 scalars for a
    single point or ndarrays for a whole window.  Every read of a
    statement is evaluated before the caller writes any pending value back,
    so ``read`` may return views of the live buffers.  A centre read that
    follows a centre store observes the pending value, matching the
    double-buffered launch semantics.

    Without ``workspace`` every operation allocates its result, so the
    returned arrays share no memory with those of any other call.  With a
    ``workspace`` (numpy operands) the window is evaluated in ascending
    chunks in its buffers.  Once a chunk is evaluated its stores go in
    place, in body order, into the window of each array's centre read
    (returned), but for the last ``lag`` rows, which wait for the next
    chunk, so that no chunk reads a row an earlier one wrote.  The
    ``keep`` rows are saved before and put back after.  The arithmetic is
    the same ufunc sequence either way, so values are bit-identical.
    """
    if workspace is None:
        return _evaluate(ir, read, scalars, None)
    ws, window, held = workspace, functools.cache(read), {}
    n, lag = ws.shape[0], ws.lag

    def chunk(name: str, offsets: tuple[int, ...]):
        return window(name, offsets)[lo:hi]

    for lo in range(0, n, ws.rows):
        hi = min(lo + ws.rows, n)
        ws.reset(hi - lo)
        pending = _evaluate(ir, chunk, scalars, ws)
        if not lo:
            out = {name: window(name, (0,) * ir.param_rank[name])
                   for name in pending}
            saved = [(dst, dst[ws.keep]) for dst in out.values()]
        done = hi if hi == n else hi - lag
        for name, value in pending.items():
            if lo:
                out[name][lo - lag:lo] = held[name]
            out[name][lo:done] = value[:done - lo]
            held[name] = value[done - lo:].copy()
    for dst, values in saved:
        dst[ws.keep] = values
    return out


def _evaluate(ir: KernelIR, read, scalars, workspace) -> dict[str, object]:
    env: dict[str, object] = dict(scalars or {})
    pending: dict[str, object] = {}
    for st in ir.body:
        value = _ev(st.rhs, env, pending, read, workspace)
        store = isinstance(st.lhs, ast.OffsetRef)
        if workspace is not None:
            value = workspace.pin(value, store)
        if store:
            pending[st.lhs.array] = value
        else:
            env[st.lhs.name] = value
    return pending


def _ev(e: ast.Expr, env: dict, pending: dict, read, ws: Workspace | None):
    # A module-level recursion: a nested closure that calls itself forms a
    # reference cycle that keeps ``read`` and every slab alive until the
    # cyclic collector runs.
    t = type(e)
    if t is ast.OffsetRef:
        if e.array in pending and not any(e.offsets):
            return pending[e.array]
        return read(e.array, e.offsets)
    if t is ast.Bin:
        ops = _BINARY[e.op]
        a = _ev(e.left, env, pending, read, ws)
        b = _ev(e.right, env, pending, read, ws)
        return ops[0](a, b) if ws is None else ws.binary(ops[1], a, b)
    if t is ast.RealLit or t is ast.IntLit:
        return np.float64(e.value)
    if t is ast.Ident:
        return env[e.name]
    if t is ast.Neg:
        a = _ev(e.operand, env, pending, read, ws)
        return -a if ws is None else ws.unary(np.negative, a)
    if t is ast.Call:
        args = [_ev(a, env, pending, read, ws) for a in e.args]
        if e.name in _UNARY:
            fn = _UNARY[e.name]
            return fn(args[0]) if ws is None else ws.unary(fn, args[0])
        fold = _FOLD.get(e.name)
        if fold is not None:
            acc = args[0]
            for x in args[1:]:
                acc = fold(acc, x) if ws is None else ws.binary(fold, acc, x)
            return acc
    raise TypeError(f"cannot evaluate {type(e).__name__}")
