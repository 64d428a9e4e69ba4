"""SPMD execution simulator.

P images run the same checked main-program statements, as they stand in
the AST, over an MP x NP process grid.  Each coarray is one stack of the
per-image blocks (interior ``m x n`` plus halo padding) along a trailing
image axis: a column-major array of shape ``padded + (P,)``.  Image k's
block ``stack[..., k-1]`` is contiguous and has the linearization the
emitted C uses.

Device subimages are simulated by a second stack of the same shape,
allocated when the first image creates a mirror.  ``get_subimage`` returns
a handle distinct from every image index when a device is present and
falls back to ``this_image()`` otherwise; mirror allocation, mirror
copies, and the pull/push traffic of a device-resident halo exchange are
all modelled and recorded in one event log.  The log holds
compact records that each stand for many images; ``Machine.events``
expands it into a fresh list of tuples on every read, and
``Machine.counters`` tallies it per image.

The host program runs once per cohort: ascending images at the same
statement.  A divergence analysis by name (``plan.variant_statements``)
tells a cohort what it may evaluate once, on its first image, and what for
each image; a variant ``if`` masks it.  A cohort stops, once for all its
images, at every launch and collective (``halo_transfer``, coarray
``allocate`` and ``deallocate``).  At the first top-level statement where
images may part it splits into one-image cohorts, advanced round-robin.  A
host read through a cosubscript can see how far another image has run, so
a program with one splits at its start and launches inline, in the exact
round-robin order.  The log of a pass lists each image's events in turn.

A cohort evaluates a uniform launch once per target kind and a variant
one once per image.  Once every cohort has stopped, the launches that
share a statement, ranges, scalars (by their bits) and target run as one
``run_body`` call over all their blocks: the paper's model, where every
image applies the same kernel to its own block, in one step instead of P.
One call launches at most ``STACK_CELLS`` cells, so a larger group is
split along the image axis, and an image whose range alone exceeds the
cap launches by itself.

Launches are double-buffered: every read sees the pre-launch values, and a
centre read after a centre store sees the pending value.  Arrays launched
together, even through a chain of launches, share one storage layout: each
stack is padded with the group's widest halo per side
(``DistributedArray.storage``).  The default vector order reads contiguous
lanes of the flat stacks, from the first launched point to the last: a
read at ``offsets`` is that window moved by the emitted C's linear offset,
computed once per kernel, layout, ranges and image count.  ``run_body``
runs the kernel's tape over the window in ascending cache-sized chunks and
stores each in place, holding back the lanes a later chunk still reads, so
no snapshot is needed; the lanes not launched are put back after.  Kernel
arithmetic is IEEE, as in the emitted C, with no warning.  A
``shuffle_seed`` selects the point-at-a-time order instead, which exists
to demonstrate order independence: it runs one image at a time and writes
back point by point in a seeded random order, so it reads from a snapshot
taken at launch.  Both orders produce bit-identical results because they
run the same float64 operation tree per element.

Halo exchange is collective and runs once every image has reached the same
``halo_transfer``.  It is one gather over the flat stack through a map
built once per array (``DistributedArray.halo_map``): every halo cell of
every image, and the interior cell on the owning image that fills it, a
corner from the diagonal neighbour.  Boundaries wrap cyclically (an image
can be its own neighbour).  Before the gather, one pull copies the cells
that some halo reads from the device to the host over all mirrored
images; after it, one push copies their halos back.  The log still
records the pulls, fills and pushes per dimension and side.  The pull and
push indices and the records are planned per array, again whenever its
mirrors change (``DistributedArray.exchange``).

``oracle_step`` is the brute-force reference: it applies a kernel densely
to the gathered global field with periodic indexing via ``numpy.roll`` —
no grid, no halo machinery — so distributed runs can be checked against it.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from . import ast
from .checks import CheckResult
from .diagnostics import ALLOC_SHAPE, GRID_FACTOR, UNALLOCATED, RuntimeFault, SourcePos
from .grid import ProcessGrid, create_grid
from .ir import KernelIR, StorageLayout, Workspace, lower_kernel, run_body
from .plan import split_point, variant_statements
from .symbols import MAX_HALO_WIDTH, ArrayEntity, ScalarEntity

DEFAULT_EXTENT_1D = 64
DEFAULT_EXTENT_2D = 32
# Most cells one stacked launch holds.  It bounds the launch's window of
# lanes and the non-launched lanes in it that are saved and put back.
STACK_CELLS = 1 << 16
_HOST_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
             "==": operator.eq, "/=": operator.ne, "<": operator.lt,
             ">": operator.gt}
_HOST_CALLS = {"abs": abs, "sqrt": math.sqrt, "min": min, "max": max}


@dataclass
class RunConfig:
    images: int = 1
    grid_rows: int = 1
    devices: int = 0
    steps: int = 1
    shuffle_seed: Optional[int] = None   # None: vector launches

    def validate(self) -> None:
        if self.devices < 0:
            raise ValueError("devices must be non-negative")
        if self.steps < 0:
            raise ValueError("steps must be non-negative")


class DistributedArray:
    """Every image's block of one array, stacked along a trailing image axis.

    ``host`` is column-major with shape ``storage.padded() + (P,)``: the
    declared ``layout``, unless per-side ``padding`` widens it with cells
    that stay zero.  Image k's block ``host[..., k-1]`` is contiguous, and
    ``box`` indexes the declared block in it.  ``device`` holds the device
    mirrors in a stack of the same shape; it is allocated when the first
    image creates a mirror, and ``mirrored[k-1]`` tells whether image k has
    one.  Allocation and deallocation are collective, so all images hold a
    block or none does: ``host`` is None while unallocated.
    """

    def __init__(self, entity: ArrayEntity, layout: StorageLayout,
                 grid: ProcessGrid, padding: Optional[tuple] = None):
        self.entity, self.grid = entity, grid
        self.layout = self.storage = layout
        if padding not in (None, (layout.lo, layout.hi)):
            self.storage = StorageLayout(layout.interior, *padding)
        self.box = self.storage.slab([(1 - lo, m + hi) for m, lo, hi in zip(
            layout.interior, layout.lo, layout.hi)])
        self.host: Optional[np.ndarray] = None
        self.device: Optional[np.ndarray] = None
        self.mirrored = np.zeros(grid.p, dtype=bool)

    def allocate(self) -> None:
        self.host = np.zeros(self.storage.padded() + (self.grid.p,),
                             order="F")

    def release(self) -> None:
        self.host = self.device = None
        self.mirrored[:] = False
        self.__dict__.pop("exchange", None)

    def add_mirrors(self, idx) -> None:
        """Mirror the blocks of the images at image-axis index ``idx``."""
        if self.device is None:
            self.device = np.zeros_like(self.host)
        self.device[..., idx] = self.host[..., idx]
        self.mirrored[idx] = True
        self.__dict__.pop("exchange", None)

    def view(self, image: int) -> np.ndarray:
        return self.host[self.box + (image - 1,)]

    @functools.cached_property
    def halo_map(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(dst, src, pull)``: what one halo exchange copies, as flat
        column-major indices of the stacks.  Row k-1 of ``dst`` lists image
        k's halo cells; ``src`` the interior cell that fills each, on the
        image that owns it, so a corner comes from the diagonal neighbour;
        ``pull`` the block offsets of the interior cells that some halo
        reads.  Allocation keeps the layout, so the map is built once."""
        layout, grid = self.storage, self.grid
        padded, count = layout.padded(), layout.count()
        halo = np.zeros(padded, dtype=bool, order="F")
        halo[self.box] = True
        halo[layout.slab()] = False
        dst_off = np.flatnonzero(halo.ravel(order="F"))
        cells = np.unravel_index(dst_off, padded, order="F")
        # A halo is never wider than a block, so a cell i places past
        # interior position 1 is interior position i % m + 1 of the image
        # i // m steps away along that dimension's grid axis.
        steps, wrapped = zip(*[np.divmod(c - first, m) for c, first, m in zip(
            cells, layout.at((1,) * layout.rank), layout.interior)])
        source = layout.at([w + 1 for w in wrapped])
        src_off = np.ravel_multi_index(source, padded, order="F")
        pcol, prow = np.array([grid.coords(k) for k in range(1, grid.p + 1)]
                              ).T[..., None]
        owner = grid.image_at(pcol + steps[0],
                              prow + (steps[1] if layout.rank > 1 else 0))
        # the mask now marks the cells some halo reads, ascending
        halo[...] = False
        halo[source] = True
        return (np.arange(grid.p)[:, None] * count + dst_off,
                (owner - 1) * count + src_off,
                np.flatnonzero(halo.ravel(order="F")))

    @functools.cached_property
    def exchange(self) -> tuple:
        """``(pull, push, log)``: the flat cells one halo exchange pulls
        from the device stack and pushes back, over the mirrored images,
        and the records it logs per dimension and side.  ``add_mirrors``
        and ``release`` drop it."""
        name, on_device = self.entity.name, np.flatnonzero(self.mirrored)
        dst, _, cells = self.halo_map
        pull = (on_device[:, None] * self.storage.count() + cells).ravel()
        mirrored = (on_device + 1).tolist()
        images = list(range(1, self.grid.p + 1))
        log = [("halo_transfer", name)]
        for d, widths in enumerate(zip(self.layout.lo, self.layout.hi)):
            sides = [side for side, w in zip(("low", "high"), widths) if w]
            pulls, pushes = ([(kind, mirrored, (name, d))] * len(sides)
                             for kind in ("d2h", "h2d"))
            fills = [("halo_fill", images, (name, d, side)) for side in sides]
            log += [rec for rec in (pulls, fills, pushes) if rec and rec[0][1]]
        return pull, dst[on_device].ravel(), log


class Machine:
    """Builds the grid and images for a checked program and runs it."""

    def __init__(self, check: CheckResult, config: RunConfig,
                 input_field: Optional[np.ndarray] = None):
        if not check.ok:
            raise ValueError("cannot run a program with diagnostics")
        config.validate()
        self.check = check
        self.program = check.program
        self.config = config
        self.kernels: dict[str, KernelIR] = {
            name: lower_kernel(info) for name, info in check.kernels.items()}
        self.grid = create_grid(config.images, config.grid_rows)

        coarrays = [e for e in check.symtab.arrays() if e.corank > 0]
        self.primary: Optional[ArrayEntity] = coarrays[0] if coarrays else None
        self.input_field = input_field
        self._setup_extents()

        p = self.grid.p
        self.images = list(range(1, p + 1))
        self.env: dict[int, dict] = {}
        for k in self.images:
            pcol, prow = self.grid.coords(k)
            self.env[k] = {"p": p, "mp": self.grid.mp, "np": self.grid.np,
                           "pcol": pcol, "prow": prow, "m": self.m,
                           "n": self.n, "nsteps": config.steps}
        self.arrays: dict[str, DistributedArray] = {}
        # event tuples, and per-pass lists of (kind, images, fields) records
        self._log: list = []
        self._pass: list[tuple] = []    # the records of this pass
        # vector-launch lanes per (kernel, storage layout, ranges, images)
        self.workspaces: dict[tuple, Workspace] = {}
        self._padding = _launch_padding(self.program.body, check.symtab)
        self._inline_launches = False
        self._variant: set[int] = set()     # ids of variant statements

    @property
    def counters(self) -> dict[int, dict[str, int]]:
        """Per-image counts, tallied from the event log on each read."""
        # per counter kind, the image of every event it counts
        hits: dict[str, list[int]] = {kind: [] for kind in (
            "launches", "device_launches", "halo_transfers", "d2h", "h2d")}
        for rec in self._log:
            if not isinstance(rec, list):   # a halo exchange: every image
                hits["halo_transfers"] += self.images
                continue
            for kind, images, fields in rec:
                if kind == "launch":
                    hits["launches"] += images
                    if fields[1]:
                        hits["device_launches"] += images
                elif kind != "halo_fill":   # a device allocation pushes
                    hits["h2d" if kind == "device_alloc" else kind] += images
        counts = {kind: Counter(ks) for kind, ks in hits.items()}
        return {k: {kind: c[k] for kind, c in counts.items()}
                for k in self.images}

    @property
    def events(self) -> list[tuple]:
        """The event log as per-image tuples, in order; a fresh list."""
        # a list of records: its events image by image, each in log order
        return [e for rec in self._log for e in (
            sorted(((kind, k) + fields for kind, images, fields in rec
                    for k in images), key=operator.itemgetter(1))
            if isinstance(rec, list) else [rec])]

    # -- setup ------------------------------------------------------------

    def _setup_extents(self) -> None:
        grid, primary = self.grid, self.primary
        if primary is None:
            self.rank, self.global_extents, self.m, self.n = 0, (0, 0), 0, 0
            if self.input_field is not None:
                raise RuntimeFault(ALLOC_SHAPE,
                                   "program declares no coarray to hold the "
                                   "input field")
            return
        self.rank = rank = primary.rank
        if rank > 2:
            raise RuntimeFault(ALLOC_SHAPE,
                               f"execution supports rank 1 and 2; "
                               f"'{primary.name}' has rank {rank}",
                               primary.decl_pos)
        if self.input_field is not None:
            mg, ng = self.input_field.shape
            if rank == 1 and ng != 1:
                raise RuntimeFault(ALLOC_SHAPE,
                                   f"input field is {mg} x {ng} but "
                                   f"'{primary.name}' is 1-D",
                                   primary.decl_pos)
        elif rank == 1:
            mg, ng = DEFAULT_EXTENT_1D, 1
        else:
            mg, ng = DEFAULT_EXTENT_2D, DEFAULT_EXTENT_2D
        if rank == 1 and grid.mp != 1:
            raise RuntimeFault(
                GRID_FACTOR,
                f"a 1-D coarray distributes over a 1 x P grid; grid "
                f"rows must be 1, not {grid.mp}", primary.decl_pos)
        for d, extent, parts, what in ((1, mg, grid.np, "column"),
                                       (2, ng, grid.mp, "row")):
            if extent % parts != 0:
                raise RuntimeFault(
                    GRID_FACTOR,
                    f"global extent {extent} (dim {d}) is not divisible by "
                    f"the {parts} grid {what}(s)", primary.decl_pos)
        self.m, self.n = mg // grid.np, ng // grid.mp
        self.global_extents = (mg, ng)

    # -- host expression evaluation ---------------------------------------

    def eval(self, e: ast.Expr, k: int):
        if isinstance(e, (ast.IntLit, ast.RealLit)):
            return e.value
        if isinstance(e, ast.Ident):
            if e.name not in self.env[k]:
                raise RuntimeFault(UNALLOCATED,
                                   f"'{e.name}' has no value at this point",
                                   e.pos)
            return self.env[k][e.name]
        if isinstance(e, (ast.Bin, ast.Cmp)):
            lv = self.eval(e.left, k)
            rv = self.eval(e.right, k)
            if e.op != "/":
                return _HOST_OPS[e.op](lv, rv)
            try:
                if isinstance(lv, int) and isinstance(rv, int):
                    q = abs(lv) // abs(rv)
                    return q if (lv < 0) == (rv < 0) else -q
                return lv / rv
            except ZeroDivisionError:
                raise RuntimeFault(ALLOC_SHAPE, "division by zero", e.pos)
        if isinstance(e, ast.Neg):
            return -self.eval(e.operand, k)
        if isinstance(e, ast.Call):
            args = [self.eval(a, k) for a in e.args]
            if e.name == "this_image":
                return k
            if e.name == "sqrt" and args[0] < 0:
                raise RuntimeFault(ALLOC_SHAPE, f"sqrt of the negative "
                                   f"value {args[0]}", e.pos)
            return _HOST_CALLS[e.name](*args)
        if isinstance(e, ast.SectionRef):
            return self._read_element(e, k)
        raise RuntimeFault(ALLOC_SHAPE,
                           f"cannot evaluate this expression on the host",
                           e.pos)

    def _int(self, e: ast.Expr, k: int, what: str) -> int:
        v = self.eval(e, k)
        if isinstance(v, bool) or not isinstance(v, int):
            raise RuntimeFault(ALLOC_SHAPE,
                               f"{what} must be an integer", e.pos)
        return v

    def _read_element(self, e: ast.SectionRef, k: int) -> float:
        if any(isinstance(s, ast.FullRange) for s in e.subs):
            raise RuntimeFault(ALLOC_SHAPE,
                               "array section used where a scalar is "
                               "required", e.pos)
        owner = self._resolve_image(e.cosubs, k) if e.cosubs else k
        arr = self._allocated(e.array, owner, e.pos)
        idx = self._section_index(e, arr, k)
        return float(arr.view(owner)[idx])

    def _resolve_image(self, cosubs: list[ast.Expr], k: int) -> int:
        # one cosubscript names a grid column, on row 1
        values = [self._int(c, k, "cosubscript") for c in cosubs] + [1]
        return self.grid.image_at(values[0], values[1])

    # -- array helpers -----------------------------------------------------

    def _allocated(self, name: str, k: int,
                   pos: SourcePos) -> DistributedArray:
        """The array ``name``, which must be allocated on image k."""
        arr = self.arrays.get(name)
        if arr is None:
            raise RuntimeFault(UNALLOCATED,
                               f"'{name}' is used before it is allocated",
                               pos)
        self._require_allocated(arr, k, pos)
        return arr

    def _require_allocated(self, arr: DistributedArray, k: int,
                           pos: SourcePos) -> None:
        if arr.host is None:
            raise RuntimeFault(UNALLOCATED,
                               f"'{arr.entity.name}' is not allocated on "
                               f"image {k}", pos)

    def _section_index(self, ref: ast.SectionRef, arr: DistributedArray,
                       k: int) -> tuple:
        """The block index of a section: the interior along a ``:``, the
        padded coordinate of a subscript, checked in order."""
        layout = arr.layout
        centre, idx = [], []
        for d, sub in enumerate(ref.subs):
            if isinstance(sub, ast.FullRange):
                centre.append(1)
                idx.append(layout.slab()[d])
                continue
            v = self._int(sub, k, "subscript")
            centre.append(v)
            coord = layout.at(centre)[d]
            if not 0 <= coord < layout.padded()[d]:
                raise RuntimeFault(ALLOC_SHAPE,
                                   f"subscript {v} of '{ref.array}' is "
                                   f"outside the allocated bounds in dim "
                                   f"{d + 1}", ref.pos)
            idx.append(coord)
        return tuple(idx)

    # -- host program execution --------------------------------------------

    def run(self) -> None:
        """Execute the whole program.

        Cohorts advance round-robin to their next collective or launch.
        The launches collected in a pass run together; a collective runs
        once every image waits at it."""
        body = self.program.body
        variant = self._variant = variant_statements(body)
        # A coindexed read can see how far another image has run, so
        # every image then steps alone and launches inline.
        self._inline_launches = _reads_remote(body)
        split = 0 if self._inline_launches else split_point(body, variant)
        rest = body[split:]
        # [images, generator, request]; request is None while it runs
        cohorts = [[self.images, self._exec(body[:split], self.images), None]]
        while True:
            self._pass = []
            self._log.append(self._pass)
            launches = []
            i = 0
            while i < len(cohorts):
                ks, gen, request = cohorts[i]
                if request is None:
                    request = next(gen, _DONE)
                    if request is _DONE and rest:
                        # every image steps alone from here
                        cohorts[i:i + 1] = [[[k], self._exec(rest, [k]), None]
                                            for k in ks]
                        rest = None
                        continue
                    if request[0] == "launch":
                        launches += request[2]
                        request = None
                    cohorts[i][2] = request
                i += 1
            if launches:
                self._run_launches(launches)
                continue
            waiting = [c[2] for c in cohorts if c[2] is not _DONE]
            if not waiting:
                break
            if len(waiting) < len(cohorts) or len({r[:2] for r in waiting}) > 1:
                raise RuntimeFault(UNALLOCATED, "images diverged at a "
                                   "collective operation")
            kind, name, s = waiting[0]
            for c in cohorts:
                c[2] = None
            if kind == "halo":
                self._halo_exchange(name, s.pos)
            elif kind == "alloc":
                self._alloc_host(s)
            else:   # collective: image 1 stands for every image
                self._allocated(s.entity, 1, s.pos).release()

    def _exec(self, stmts: list[ast.Stmt], ks: list[int]):
        """Run ``stmts`` on the cohort ``ks``.  Uniform expressions are
        evaluated on its first image: a cohort of more than one image never
        meets a variant loop bound or a variant ``if`` that holds a stop."""
        for s in stmts:
            if isinstance(s, ast.HaloTransfer):
                yield ("halo", s.array, s)
            elif isinstance(s, ast.Allocate) and s.bounds:
                # allocating a coarray synchronizes all images
                yield ("alloc", s.entity, s)
            elif isinstance(s, ast.Deallocate):
                yield ("dealloc", s.entity, s)
            elif isinstance(s, ast.DoConcurrent):
                launches = self._prepare_launch(s, ks)
                if not launches:
                    continue
                if self._inline_launches:
                    self._run_launches(launches)
                else:
                    yield ("launch", s.call.name, launches)
            elif isinstance(s, ast.DoCounted):
                lo = self._int(s.lo, ks[0], "loop bound")
                hi = self._int(s.hi, ks[0], "loop bound")
                for v in range(lo, hi + 1):
                    for k in ks:
                        self.env[k][s.var] = v
                    yield from self._exec(s.body, ks)
            elif isinstance(s, ast.If):
                # a variant condition masks the cohort
                true = [k for k, c in zip(ks, self._values(s, s.cond, ks))
                        if c is True]
                if true:
                    yield from self._exec(s.body, true)
            elif isinstance(s, ast.Assign) and isinstance(s.lhs, ast.Ident):
                ent = self.check.symtab.lookup(s.lhs.name)
                real = (isinstance(ent, ScalarEntity)
                        and ent.elem_type == "real")
                for k, value in zip(ks, self._values(s, s.rhs, ks)):
                    if real:
                        value = _convert(float, value, s.rhs.pos)
                    elif isinstance(value, float):
                        value = _convert(int, value, s.rhs.pos)
                    self.env[k][s.lhs.name] = value
            elif isinstance(s, ast.Allocate):
                self._alloc_device(s, ks)
            elif isinstance(s, ast.MirrorAssign):
                self._mirror_copy(s, ks)
            elif isinstance(s, ast.AssignSubimage):
                # a handle past the devices falls back to the image itself
                device = 1 <= s.image <= self.config.devices
                for k in ks:
                    self.env[k][s.var] = (s.image * self.grid.p + k
                                          if device else k)
            elif isinstance(s, ast.Assign):
                for k in ks:
                    self._section_copy(s, k)
            else:
                raise TypeError(type(s).__name__)  # pragma: no cover

    def _values(self, s: ast.Stmt, e: ast.Expr, ks: list[int]) -> list:
        """``e`` on each image of ``ks``; evaluated once if ``s`` is uniform."""
        if id(s) in self._variant:
            return [self.eval(e, k) for k in ks]
        return [self.eval(e, ks[0])] * len(ks)

    def _devices(self, var: str, ks: list[int], pos: SourcePos) -> list[bool]:
        """Whether each image's subimage handle ``var`` names a device."""
        try:
            return [self.env[k][var] != k for k in ks]
        except KeyError:
            raise RuntimeFault(UNALLOCATED, f"'{var}' holds no subimage "
                               f"handle at this point", pos)

    # -- allocation --------------------------------------------------------

    def _alloc_host(self, a: ast.Allocate) -> None:
        """Allocate a block on every image (allocation is collective)."""
        ent = self.check.symtab.lookup(a.entity)
        assert isinstance(ent, ArrayEntity)
        arr = self.arrays.get(a.entity)
        if arr is not None and arr.host is not None:
            raise RuntimeFault(UNALLOCATED,
                               f"'{a.entity}' is already allocated", a.pos)
        if ent.corank > 0 and self.rank == 0:
            raise RuntimeFault(ALLOC_SHAPE,
                               "no distributed extents are configured", a.pos)
        layout = arr.layout if arr is not None else None
        for k in self.images if id(a) in self._variant else [1]:
            block = self._block_layout(a, ent, k)
            if layout is not None and block != layout:
                raise RuntimeFault(ALLOC_SHAPE,
                                   f"images allocate '{a.entity}' with "
                                   f"different shapes", a.pos)
            layout = block
        if arr is None:
            arr = DistributedArray(ent, layout, self.grid,
                                   self._padding.get(a.entity))
            self.arrays[a.entity] = arr
        arr.allocate()
        if (self.primary is not None and ent.name == self.primary.name
                and self.input_field is not None):
            self._blocks(arr)[...] = self._tiles(self.input_field)

    def _block_layout(self, a: ast.Allocate, ent: ArrayEntity,
                      k: int) -> StorageLayout:
        interior = (self.m, self.n)[:self.rank] if ent.corank > 0 else None
        los, his, ms = [], [], []
        for d, (lo_e, hi_e) in enumerate(a.bounds):
            lo_v = self._int(lo_e, k, "allocate bound")
            hi_v = self._int(hi_e, k, "allocate bound")
            if ent.corank > 0:
                if d >= len(interior):
                    raise RuntimeFault(ALLOC_SHAPE,
                                       f"too many bounds for '{a.entity}'",
                                       a.pos)
                m_d = interior[d]
            else:
                m_d = hi_v - lo_v + 1
            halo = ent.halo.dims[d] if (ent.halo is not None
                                        and d < len(ent.halo.dims)) else None
            if halo is not None and not halo.is_deferred:
                want_lo, want_hi = 1 - halo.lo, m_d + halo.hi
                if (lo_v, hi_v) != (want_lo, want_hi):
                    raise RuntimeFault(
                        ALLOC_SHAPE,
                        f"allocate bounds {lo_v}:{hi_v} for dim {d + 1} of "
                        f"'{a.entity}' do not match the interior 1:{m_d} "
                        f"plus halo ({halo.lo},{halo.hi}); expected "
                        f"{want_lo}:{want_hi}", a.pos)
                w_lo, w_hi = halo.lo, halo.hi
            else:
                w_lo, w_hi = 1 - lo_v, hi_v - m_d
                if min(w_lo, w_hi) < 0 or max(w_lo, w_hi) > MAX_HALO_WIDTH:
                    raise RuntimeFault(
                        ALLOC_SHAPE,
                        f"allocate bounds {lo_v}:{hi_v} for dim {d + 1} of "
                        f"'{a.entity}' imply halo widths ({w_lo},{w_hi}) "
                        f"outside 0..{MAX_HALO_WIDTH}", a.pos)
            if ent.corank > 0 and max(w_lo, w_hi) > m_d:
                # an exchange copies each halo from the neighbour's
                # interior, which must be at least as wide as the halo
                raise RuntimeFault(
                    GRID_FACTOR,
                    f"halo width {max(w_lo, w_hi)} of '{a.entity}' in dim "
                    f"{d + 1} exceeds the per-image block extent {m_d}; "
                    f"use fewer images along that dimension", a.pos)
            los.append(w_lo)
            his.append(w_hi)
            ms.append(m_d)
        return StorageLayout(tuple(ms), tuple(los), tuple(his))

    def _blocks(self, arr: DistributedArray) -> np.ndarray:
        """Every image's interior, as an ``(m, n, NP, MP)`` view of the stack.

        Images are numbered column-major over the grid, so splitting the
        image axis puts image k at ``[..., pcol-1, prow-1]``."""
        blocks = arr.host[arr.storage.slab() + (slice(None),)]
        if self.rank == 1:
            blocks = blocks[:, None, :]
        return blocks.reshape(self.m, self.n, self.grid.np, self.grid.mp)

    def _tiles(self, field: np.ndarray) -> np.ndarray:
        """The global field as the ``(m, n, NP, MP)`` view that ``_blocks``
        gives of a stack: tile ``[..., pcol-1, prow-1]`` is image k's."""
        return field.reshape(self.grid.np, self.m, self.grid.mp,
                             self.n).transpose(1, 3, 0, 2)

    def _alloc_device(self, a: ast.Allocate, ks: list[int]) -> None:
        # a fallback handle has no device, so nothing to mirror
        images = [k for k, dev in zip(ks, self._devices(a.device, ks, a.pos))
                  if dev]
        if not images:
            return
        arr = self._allocated(a.entity, images[0], a.pos)
        arr.add_mirrors(_index(images))
        self._pass.append(("device_alloc", images, (a.entity,)))

    def _mirror_copy(self, a: ast.MirrorAssign, ks: list[int]) -> None:
        arr = self._allocated(a.array, ks[0], a.pos)
        # fallback: host and "device" are the same memory
        images = [k for k, dev in zip(ks, self._devices(a.device, ks, a.pos))
                  if dev]
        missing = [k for k in images if not arr.mirrored[k - 1]]
        if missing:
            raise RuntimeFault(UNALLOCATED, f"'{a.array}' has no device "
                               f"mirror on image {missing[0]}", a.pos)
        if not images:
            return
        idx = _index(images)
        to_host = a.direction == "device_to_host"
        src, dst = (arr.device, arr.host) if to_host else (arr.host, arr.device)
        dst[..., idx] = src[..., idx]
        kind = "d2h" if to_host else "h2d"
        self._pass.append((kind, images, (a.array, -1)))

    # -- section copies ----------------------------------------------------

    def _section_copy(self, a: ast.Assign, k: int) -> None:
        arr = self._allocated(a.lhs.array, k, a.pos)
        dst_idx = self._section_index(a.lhs, arr, k)
        if isinstance(a.rhs, ast.SectionRef):
            owner = (self._resolve_image(a.rhs.cosubs, k)
                     if a.rhs.cosubs else k)
            src_arr = self._allocated(a.rhs.array, owner, a.pos)
            src_idx = self._section_index(a.rhs, src_arr, k)
            value = src_arr.view(owner)[src_idx].copy()
        else:
            value = self.eval(a.rhs, k)
        try:
            arr.view(k)[dst_idx] = value
        except ValueError:
            raise RuntimeFault(ALLOC_SHAPE,
                               "section extents do not conform", a.pos)

    # -- launches ----------------------------------------------------------

    def _prepare_launch(self, a: ast.DoConcurrent,
                        ks: list[int]) -> list[tuple[_Launch, list[int]]]:
        """Check and log the cohort's launch; the requests that run it,
        each an evaluation and its images.  A uniform launch is evaluated
        once per target kind, a variant one once per image."""
        devs = self._devices(a.target, ks, a.pos)
        if id(a) in self._variant:
            groups = [([k], dev) for k, dev in zip(ks, devs)]
        else:   # one group per target kind, the first image's first
            groups = [([k for k, d in zip(ks, devs) if d == dev], dev)
                      for dev in dict.fromkeys(devs)]
        requests = []
        for images, on_device in groups:
            launch = self._evaluate_launch(a, images[0], on_device)
            # allocation is collective, so images differ only in mirrors
            ok = len(images)
            if on_device:
                for arr in launch.arrays.values():
                    mirrored = arr.mirrored[_index(images[:ok])]
                    ok = ok if mirrored.all() else int(mirrored.argmin())
            self._pass.append(("launch", images[:ok], (a.call.name,
                                                       on_device)))
            if ok < len(images):
                for arr in launch.arrays.values():
                    self._launch_array(arr.entity.name, images[ok],
                                       on_device, a.pos)
            if all(lo <= hi for lo, hi in launch.ranges):
                requests.append((launch, images))
        return requests

    def _evaluate_launch(self, a: ast.DoConcurrent, k: int,
                         on_device: bool) -> _Launch:
        """Evaluate and check image k's ranges, scalars and arrays."""
        kir = self.kernels[a.call.name]
        ranges = [(self._int(r.lo, k, "launch range"),
                   self._int(r.hi, k, "launch range")) for r in a.ranges]
        arrays: dict[str, DistributedArray] = {}
        scalars: dict[str, object] = {}
        kernel_params = self.check.kernels[a.call.name].kernel.params
        for p, arg in zip(kernel_params, a.call.args):
            if isinstance(arg, ast.ElementArg):
                arrays[p] = self._launch_array(arg.array, k, on_device, a.pos)
            else:
                kind = (np.float64 if kir.param_types[p] == "real"
                        else np.int64)
                scalars[p] = _convert(kind, self.eval(arg, k), arg.pos)
        # the arrays share one storage layout; the ranges index its interior
        layout = next(iter(arrays.values())).storage
        for d, (lo, hi) in enumerate(ranges):
            if lo < 1 or hi > layout.interior[d]:
                raise RuntimeFault(
                    ALLOC_SHAPE,
                    f"launch range {lo}:{hi} lies outside the interior "
                    f"1:{layout.interior[d]} in dim {d + 1}", a.pos)
        # The statement fixes the kernel, its arrays and the scalar types.
        # Scalars compare by their bits: 0.0 and -0.0 launch apart.
        key = (id(a), on_device, tuple(ranges),
               tuple(v.tobytes() for v in scalars.values()))
        return _Launch(key, kir, ranges, arrays, layout, on_device, scalars)

    def _launch_array(self, name: str, k: int, on_device: bool,
                      pos: SourcePos) -> DistributedArray:
        arr = self._allocated(name, k, pos)
        if on_device and not arr.mirrored[k - 1]:
            raise RuntimeFault(UNALLOCATED,
                               f"'{name}' is not allocated on the device",
                               pos)
        return arr

    @np.errstate(all="ignore")
    def _run_launches(self,
                      requests: list[tuple[_Launch, list[int]]]) -> None:
        """Run image-local launches; those with equal keys run stacked."""
        groups: dict[tuple, tuple[_Launch, list[int]]] = {}
        for launch, images in requests:
            groups.setdefault(launch.key, (launch, []))[1].extend(images)
        for first, group in groups.values():
            stacks = {p: arr.device if first.on_device else arr.host
                      for p, arr in first.arrays.items()}
            if self.config.shuffle_seed is not None:
                for k in group:
                    self._launch_pointwise(first.kernel, first.ranges, {
                        p: stack[..., k - 1] for p, stack in stacks.items()},
                        first.layout, first.scalars)
                continue
            cells = math.prod(hi - lo + 1 for lo, hi in first.ranges)
            for images in _image_runs(group, max(1, STACK_CELLS // cells)):
                self._launch_vector(first.kernel, first.ranges, images,
                                    stacks, first.layout, first.scalars)

    def _launch_vector(self, kir, ranges, images, stacks, layout,
                       scalars) -> None:
        # lanes over the blocks of ``images``, a slice of the image axis
        count = images.stop - images.start
        key = (kir.name, layout, tuple(ranges), count)
        ws = self.workspaces.get(key)
        if ws is None:
            ws = self.workspaces[key] = _Lanes(kir, ranges, layout, count)
        flat, n = {name: stack[..., images].reshape(-1, order="F")
                   for name, stack in stacks.items()}, ws.shape[0]

        def read(name: str, offsets: tuple[int, ...]):
            lane0 = ws.first[name, offsets]
            return flat[name][lane0:lane0 + n]

        run_body(kir, read, scalars, ws)    # the stores land in the stacks

    def _launch_pointwise(self, kir, ranges, buffers, layout,
                          scalars) -> None:
        # 0-based points index views of a snapshot, one per array and offset
        snapshots = {p: buf.copy() for p, buf in buffers.items()}
        points = list(itertools.product(
            *[range(hi - lo + 1) for lo, hi in ranges]))
        random.Random(self.config.shuffle_seed).shuffle(points)
        views = {}

        def read(name: str, offsets: tuple[int, ...]):
            if (name, offsets) not in views:
                views[name, offsets] = \
                    snapshots[name][layout.slab(ranges, offsets)]
            return views[name, offsets][pt]

        out = {name: buffers[name][layout.slab(ranges)]
               for name in kir.stored_arrays}
        for pt in points:
            for name, value in run_body(kir, read, scalars).items():
                out[name][pt] = value

    # -- halo exchange -----------------------------------------------------

    def _halo_exchange(self, name: str, pos: SourcePos) -> None:
        arr = self.arrays.get(name)
        if arr is None:
            raise RuntimeFault(UNALLOCATED,
                               f"halo_transfer of '{name}' before it is "
                               f"allocated", pos)
        # allocation is collective: image 1 stands for every image
        self._require_allocated(arr, 1, pos)
        dst, src, _ = arr.halo_map
        pull, push, log = arr.exchange
        # column-major stacks, so these flat views share their memory
        host = arr.host.reshape(-1, order="F")
        if pull.size:
            # refresh the host copy of every cell a halo reads on a
            # mirrored image
            device = arr.device.reshape(-1, order="F")
            host[pull] = device[pull]
        # the sources are interior cells, so no halo reads a filled halo
        host[dst] = host[src]
        if push.size:
            device[push] = host[push]
        self._log.extend(log)

    # -- gather / scatter --------------------------------------------------

    def gather(self, name: Optional[str] = None) -> np.ndarray:
        """Assemble the global interior field (from the host copies)."""
        if name is None:
            if self.primary is None:
                raise RuntimeFault(ALLOC_SHAPE,
                                   "program declares no coarray to gather")
            name = self.primary.name
        arr = self.arrays.get(name)
        if arr is None:
            raise RuntimeFault(UNALLOCATED,
                               f"'{name}' was never allocated")
        self._require_allocated(arr, 1, arr.entity.decl_pos)
        mg, ng = self.global_extents
        out = np.empty((mg, max(ng, 1)), dtype=np.float64)
        self._tiles(out)[...] = self._blocks(arr)
        return out


@dataclass
class _Launch:
    """One image's evaluated launch; images with equal keys run stacked."""

    key: tuple
    kernel: KernelIR
    ranges: list[tuple[int, int]]
    arrays: dict[str, DistributedArray]
    layout: StorageLayout       # every array's storage
    on_device: bool
    scalars: dict[str, object]


class _Lanes(Workspace):
    """A vector launch's workspace and its lanes: the launched blocks in
    the arguments' storage layout ``lanes``, from the first launched point
    to the last.  ``first`` is each read's first lane, the C's offset."""

    def __init__(self, kir: KernelIR, ranges, lanes, count: int):
        self.lanes = lanes
        strides = [math.prod(lanes.padded()[:d]) for d in range(lanes.rank)]
        start, last = [sum(map(operator.mul, lanes.at(corner), strides))
                       for corner in zip(*ranges)]
        self.blocks = lanes.padded() + (count,)
        n = math.prod(self.blocks) - lanes.count() + last - start + 1
        # how far back a read reaches, and the lanes not launched
        lag = max(sum(map(operator.mul, [b for b, _ in fp.dims], strides))
                  for fp in kir.footprints.values())
        keep = np.ones(self.blocks, bool, order="F")
        keep[lanes.slab(ranges)] = False
        super().__init__((n,), lag, np.flatnonzero(
            keep.reshape(-1, order="F")[start:start + n]))
        self.first = {(name, off): start + sum(map(operator.mul, off, strides))
                      for name, off in kir.tape.reads}


def _convert(kind, value, pos: SourcePos):
    """``kind(value)`` for a real or integer scalar; a value that type
    cannot hold (a NaN or an infinity as an integer, an overflow) faults."""
    try:
        return kind(value)
    except (OverflowError, ValueError):
        name = "a real" if kind in (float, np.float64) else "an integer"
        raise RuntimeFault(ALLOC_SHAPE, f"the value {value} does not fit "
                           f"{name}", pos) from None


def _image_runs(images: list[int], limit: int) -> Iterator[slice]:
    """Slices of the image axis covering ascending ``images``: runs of
    consecutive images, each at most ``limit`` long."""
    runs = [images]
    if images[-1] - images[0] != len(images) - 1:
        runs = [[k for _, k in run] for _, run in itertools.groupby(
            enumerate(images), lambda pair: pair[1] - pair[0])]
    for run in runs:
        for first in range(run[0] - 1, run[-1], limit):
            yield slice(first, min(first + limit, run[-1]))


def _index(images: list[int]):
    """The image-axis index of ascending ``images``; a slice if consecutive."""
    if images and images[-1] - images[0] == len(images) - 1:
        return slice(images[0] - 1, images[-1])
    return np.asarray(images, dtype=int) - 1


def _launch_padding(body: list[ast.Stmt], symtab) -> dict[str, tuple]:
    """Per launched array, the widest halo per side, ``(lo, hi)``, of the
    arrays launched with it, directly or through a chain of launches."""
    groups: dict[str, set[str]] = {}
    for s in ast.walk(body):
        if isinstance(s, ast.DoConcurrent):
            group = set().union(*[groups.get(a.array, {a.array}) for a in
                                  s.call.args if isinstance(a, ast.ElementArg)])
            groups.update(dict.fromkeys(group, group))
    return {name: tuple(zip(*[(max(h.lo for h in dim), max(h.hi for h in dim))
                              for dim in zip(*[symtab.lookup(n).halo.dims
                                               for n in group])]))
            for name, group in groups.items()}


def _reads_remote(node) -> bool:
    """Whether a program fragment reads an array through a cosubscript."""
    return any(isinstance(n, ast.SectionRef) and n.cosubs
               for n in ast.walk(node))


_DONE = ("done",)       # the request of a cohort at the end of its program


# ---------------------------------------------------------------------------
# Dense reference oracle


def oracle_step(field: np.ndarray, kir: KernelIR,
                scalars: dict | None = None) -> np.ndarray:
    """One dense kernel application with periodic (cyclic) boundaries.

    ``field`` is the global interior (1-D or 2-D, float64).  Every point is
    updated; reads use numpy.roll shifts, entirely independent of the
    distributed halo machinery.
    """
    work = field.astype(np.float64, copy=True)
    rank = work.ndim

    def read(name: str, offsets: tuple[int, ...]):
        return np.roll(work, shift=tuple(-o for o in offsets),
                       axis=tuple(range(rank)))

    prepared = {k: (np.float64(v) if not isinstance(v, np.generic) else v)
                for k, v in (scalars or {}).items()}
    pending = run_body(kir, read, prepared)
    return np.asarray(pending[kir.stored_arrays[0]], dtype=np.float64)
