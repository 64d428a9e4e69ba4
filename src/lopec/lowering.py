"""Checked kernels and their storage layout: the numpy-free half of the IR.

``KernelIR`` is a checked kernel's metadata (parameters, ranks, types,
locals, read footprints) next to its body, the kernel's own list of
``ast.Assign``.  Nothing rewrites the body: ``ir.run_body`` and the C
emitter in ``codegen`` both read the statements as they stand in the AST,
so ``a - b`` is one subtraction in both.

``StorageLayout`` describes the per-image padded block (interior extents
plus halo widths per side, stored column-major) and owns its index map,
through which every runtime read, write-back, section and halo exchange
indexes.  The emitted C spells the same map as text; tests replay it
against the runtime.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

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

    @functools.cached_property
    def tape(self):     # the body as ``ir.run_body`` runs it with a workspace
        from .ir import Tape
        return Tape(self)

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
