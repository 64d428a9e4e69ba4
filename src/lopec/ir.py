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
the body then runs as its ``Tape``, a flat list of ufunc steps compiled
once per kernel with a buffer assigned to each, over chunks of at most
``CHUNK_LANES`` lanes whose temporaries stay in the workspace's buffers
and in cache, and the stores go in place into the windows the body reads.
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

    # the body as ``run_body`` runs it with a workspace, built once
    tape = functools.cached_property(lambda self: Tape(self))

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
    """Buffers for ``run_body`` on one window of ``shape`` (every read's),
    evaluated in chunks along axis 0 of at most ``CHUNK_LANES``, or of
    ``lag + 1`` rows where a chunk must span more: as many as the largest
    kernel tape run in it uses, allocated on its first call.  ``keep``
    indexes the window's rows whose values the stores must leave as they
    were."""

    def __init__(self, shape: tuple[int, ...], lag: int = 0,
                 keep: np.ndarray = np.empty(0, np.intp)):
        self.shape, self.lag, self.keep = shape, lag, keep
        # the rows of one chunk, spread evenly over as few chunks as fit
        most = max(1, CHUNK_LANES // math.prod(shape[1:]))
        self.rows = max(-(-shape[0] // -(-shape[0] // most)), lag + 1)
        self.buffers: list[np.ndarray] = []


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

    Without ``workspace`` the body's tree is walked and every operation
    allocates its result, so the returned arrays share no memory with
    those of any other call.  With a ``workspace`` (numpy operands) the
    kernel's tape runs instead: ``read`` is called once per distinct read,
    and the window is evaluated in ascending chunks in the workspace's
    buffers.  Once a chunk is evaluated its stores go in place, in body
    order, into the window of each array's centre read (returned), but for
    the last ``lag`` rows, which wait for the next chunk, so that no chunk
    reads a row an earlier one wrote.  The ``keep`` rows are saved before
    and put back after.  The arithmetic is the same ufunc sequence either
    way, so values are bit-identical.
    """
    if workspace is None:
        env, pending = dict(scalars or {}), {}
        for st in ir.body:
            value = _ev(st.rhs, env, pending, read)
            if isinstance(st.lhs, ast.OffsetRef):
                pending[st.lhs.array] = value
            else:
                env[st.lhs.name] = value
        return pending
    tape, ws = ir.tape, workspace
    windows = {slot: read(*ref) for ref, slot in tape.reads.items()}
    slots = list(tape.slots)
    for name, slot in tape.params.items():
        slots[slot] = scalars[name]
    # column-major like the blocks, so operands stream in order
    ws.buffers += [np.empty((ws.rows,) + ws.shape[1:], order="F")
                   for _ in range(len(tape.buffers) - len(ws.buffers))]
    buffers = list(zip(tape.buffers, ws.buffers))
    n, lag, held = ws.shape[0], ws.lag, {}
    for lo in range(0, n, ws.rows):
        hi = min(lo + ws.rows, n)
        for slot, window in windows.items():
            slots[slot] = window[lo:hi]
        for slot, buf in buffers:
            slots[slot] = buf[:hi - lo]
        for fn, args, dst, out in tape.steps:
            slots[dst] = fn(*[slots[i] for i in args], out=slots[out])
        if not lo:
            saved = {w: windows[w][ws.keep] for _, w, _ in tape.stores}
        done = hi if hi == n else hi - lag
        for _, w, v in tape.stores:
            if lo:
                windows[w][lo - lag:lo] = held[w]
            windows[w][lo:done] = slots[v][:done - lo]
            held[w] = slots[v][done - lo:].copy()
    for w, values in saved.items():
        windows[w][ws.keep] = values
    return {name: windows[w] for name, w, _ in tape.stores}


def _ev(e: ast.Expr, env: dict, pending: dict, read):
    # A module-level recursion: a nested closure that calls itself forms a
    # reference cycle that keeps ``read`` and every slab alive until the
    # cyclic collector runs.
    t = type(e)
    if t is ast.OffsetRef:
        if e.array in pending and not any(e.offsets):
            return pending[e.array]
        return read(e.array, e.offsets)
    if t is ast.Bin:
        return _BINARY[e.op][0](_ev(e.left, env, pending, read),
                                _ev(e.right, env, pending, read))
    if t is ast.RealLit or t is ast.IntLit:
        return np.float64(e.value)
    if t is ast.Ident:
        return env[e.name]
    if t is ast.Neg:
        return -_ev(e.operand, env, pending, read)
    if t is ast.Call:
        args = [_ev(a, env, pending, read) for a in e.args]
        if e.name in _UNARY:
            return _UNARY[e.name](args[0])
        fold = _FOLD.get(e.name)
        if fold is not None:
            return functools.reduce(fold, args)
    raise TypeError(f"cannot evaluate {type(e).__name__}")


# ---------------------------------------------------------------------------
# The tape


def _copy(value, out):
    out[...] = value
    return out


class Tape:
    """A kernel body as flat steps over value slots, for ``run_body`` with
    a workspace: step ``(fn, args, dst, out)`` runs ``fn(*args, out=out)``
    into slot ``dst``.  A chunk fills a copy of ``slots`` (the literals)
    with its views of ``reads`` and ``buffers`` and the scalar ``params``.
    ``stores`` lists ``(array, its centre read's slot, value slot)``.

    A result goes into a consumed temporary operand, else into a free
    buffer, the last freed first; one of scalars alone gets a slot of its
    own.  Locals and stores are pinned, and a store that is no fresh
    temporary (a bare read, a scalar, a local, a pending value) is copied
    into a buffer."""

    def __init__(self, ir: KernelIR):
        # slot 0 is the ``out`` of a step over scalars alone
        self.slots, self.reads, self.params = [None], {}, {}
        self.buffers, self.steps, self._free = [], [], []
        self._temps: set[int] = set()       # unpinned temporaries
        env, pending = {}, {}
        for st in ir.body:
            slot = self._node(st.rhs, env, pending)
            if isinstance(st.lhs, ast.OffsetRef):
                if slot not in self._temps:
                    slot = self._op(_copy, slot, out=self._take())
                pending[st.lhs.array] = slot
            else:
                env[st.lhs.name] = slot
            self._temps.discard(slot)
        self.stores = [(name, self._read((name, (0,) * ir.param_rank[name])),
                        slot) for name, slot in pending.items()]

    def _new(self, value=None) -> int:
        self.slots.append(value)
        return len(self.slots) - 1

    def _read(self, ref: tuple) -> int:
        if ref not in self.reads:
            self.reads[ref] = self._new()
        return self.reads[ref]

    def _take(self) -> int:
        if not self._free:
            self.buffers.append(self._new())
            self._free.append(self.buffers[-1])
        self._temps.add(self._free[-1])
        return self._free.pop()

    def _op(self, fn, *args: int, out: int | None = None) -> int:
        temps = [a for a in args if a in self._temps]
        self._temps.difference_update(temps[1:])
        self._free += temps[1:]
        arrays = set(self.buffers).union(self.reads.values())
        if out is None and (temps or arrays.intersection(args)):
            out = temps[0] if temps else self._take()
        dst = self._new() if out is None else out
        self.steps.append((fn, args, dst, out or 0))
        return dst

    def _node(self, e: ast.Expr, env: dict, pending: dict) -> int:
        t = type(e)
        if t is ast.OffsetRef:
            if e.array in pending and not any(e.offsets):
                return pending[e.array]
            return self._read((e.array, e.offsets))
        if t is ast.RealLit or t is ast.IntLit:
            return self._new(np.float64(e.value))
        if t is ast.Ident:
            if e.name not in env:   # a scalar parameter
                env[e.name] = self.params[e.name] = self._new()
            return env[e.name]
        if t is ast.Bin:
            fn, operands = _BINARY[e.op][1], (e.left, e.right)
        elif t is ast.Neg:
            fn, operands = np.negative, (e.operand,)
        elif t is ast.Call:     # a fold runs left to right
            fn, operands = _UNARY.get(e.name) or _FOLD[e.name], e.args
        else:
            raise TypeError(f"cannot evaluate {type(e).__name__}")
        args = [self._node(a, env, pending) for a in operands]
        acc = self._op(fn, *args[:2])
        for x in args[2:]:
            acc = self._op(fn, acc, x)
        return acc
