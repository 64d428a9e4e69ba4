"""Static race-freedom and consistency checks.

Kernels are checked for the communication-avoiding discipline:

* only the centre element ``U(0,...,0)`` of a parameter may be written
  (E101 on any halo write);
* once an array has been stored to, later statements may not read it at a
  non-zero offset (E103) — halo cells would then be stale;
* kernels reference nothing but their parameters, local scalars, the
  intrinsics ``abs, min, max, sqrt`` at their ``ARITY``, and integer
  literals that a real can hold (E104);
* a kernel has at least one array parameter, and its array parameters are
  all ``real`` (E104) and share one rank of at most 3 (E012), the only
  signatures the C emitter and the runtime translate.

Each kernel's read *footprint* (max offset per direction per dimension) is
computed here and compared against declared halo widths at every launch site
(E102); a launched array must be ``real`` like the parameter it binds
(E104).  Host code is checked for coarray/halo consistency and intrinsic
arity (E105-E108) and undeclared identifiers (E011).

``check_program`` bundles the whole pipeline: symbol table, kernel checks,
host checks; diagnostics come back sorted by source position.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from . import ast
from .diagnostics import (ALLOC_SHAPE, DEVICE_NOT_SUBIMAGE, DUPLICATE_DECL,
                          HALO_BOUNDS, HALO_SHAPE, HALO_WRITE, IMPURE_KERNEL,
                          MISSING_HALO, STORE_THEN_HALO_READ, UNDECLARED,
                          Diagnostic, SourcePos, error, sort_diagnostics)
from .parser import INTRINSICS as HOST_INTRINSICS
from .parser import KERNEL_INTRINSICS
from .symbols import (ArrayEntity, ScalarEntity, SymbolTable,
                      build_symbol_table, decl_rank)

MAX_KERNEL_RANK = 3
# intrinsic -> the fewest and most arguments it takes, and that rule
ARITY = {"abs": (1, 1, "1 argument"), "sqrt": (1, 1, "1 argument"),
         "min": (2, float("inf"), "2 or more arguments"),
         "max": (2, float("inf"), "2 or more arguments"),
         "this_image": (0, 0, "no arguments")}


def check_arity(e: ast.Call, code: str) -> list[Diagnostic]:
    """A diagnostic when an intrinsic call has a wrong argument count."""
    fewest, most, rule = ARITY[e.name]
    if fewest <= len(e.args) <= most:
        return []
    return [error(code, e.pos, f"'{e.name}' takes {rule}, got {len(e.args)}")]


@dataclass(frozen=True)
class Footprint:
    """Per-dimension (negative, positive) reach of a kernel's reads."""

    dims: tuple[tuple[int, int], ...]

    @property
    def rank(self) -> int:
        return len(self.dims)

    @staticmethod
    def zero(rank: int) -> "Footprint":
        return Footprint(tuple((0, 0) for _ in range(rank)))

    def widen(self, offsets: tuple[int, ...]) -> "Footprint":
        dims = tuple((max(n, -o if o < 0 else 0), max(p, o if o > 0 else 0))
                     for (n, p), o in zip(self.dims, offsets))
        return Footprint(dims)


@dataclass
class KernelInfo:
    kernel: ast.KernelDef
    array_params: list[str]
    scalar_params: list[str]
    param_rank: dict[str, int]
    param_types: dict[str, str]
    local_scalars: list[str]
    footprints: dict[str, Footprint]


@dataclass
class CheckResult:
    program: ast.Program
    symtab: SymbolTable
    kernels: dict[str, KernelInfo]
    diagnostics: list[Diagnostic]

    @property
    def ok(self) -> bool:
        return not self.diagnostics


# ---------------------------------------------------------------------------
# Kernel checks


def check_kernel(kernel: ast.KernelDef):
    """Validate one kernel; returns (KernelInfo, diagnostics)."""
    diags: list[Diagnostic] = []
    info = KernelInfo(kernel, [], [], {}, {}, [], {})

    declared: dict[str, ast.TypeDecl] = {}
    declared_rank: dict[str, int] = {}
    for decl in kernel.decls:
        rank = decl_rank(decl.attrs)
        for name in decl.names:
            if name in declared:
                diags.append(error(DUPLICATE_DECL, decl.pos,
                                   f"'{name}' declared twice in kernel "
                                   f"'{kernel.name}'"))
                continue
            declared[name] = decl
            declared_rank[name] = rank
            if name not in kernel.params:
                if rank > 0:
                    diags.append(error(
                        IMPURE_KERNEL, decl.pos,
                        f"kernel local '{name}' must be a scalar"))
                else:
                    info.local_scalars.append(name)
                    info.param_types[name] = decl.base

    for p in kernel.params:
        if p not in declared:
            diags.append(error(
                UNDECLARED, kernel.pos,
                f"kernel parameter '{p}' has no declaration"))
            continue
        decl = declared[p]
        rank = declared_rank[p]
        info.param_rank[p] = rank
        info.param_types[p] = decl.base
        if rank > 0:
            info.array_params.append(p)
            info.footprints[p] = Footprint.zero(rank)
            first = info.array_params[0]
            if decl.attrs.halo is None:
                diags.append(error(
                    MISSING_HALO, decl.pos,
                    f"kernel array parameter '{p}' has no halo attribute"))
            if rank > MAX_KERNEL_RANK:
                diags.append(error(
                    HALO_SHAPE, decl.pos,
                    f"kernel array parameter '{p}' has rank {rank}; at most "
                    f"{MAX_KERNEL_RANK} is supported"))
            elif rank != info.param_rank[first]:
                diags.append(error(
                    HALO_SHAPE, decl.pos,
                    f"kernel array parameter '{p}' has rank {rank} but "
                    f"'{first}' has rank {info.param_rank[first]}; a "
                    f"kernel's array parameters share one rank"))
            if decl.base != "real":
                diags.append(error(
                    IMPURE_KERNEL, decl.pos,
                    f"kernel array parameter '{p}' is {decl.base}; kernel "
                    f"arrays must be real"))
        else:
            info.scalar_params.append(p)
    if not info.array_params:
        diags.append(error(
            IMPURE_KERNEL, kernel.pos,
            f"kernel '{kernel.name}' has no array parameter"))

    known_scalars = set(info.scalar_params) | set(info.local_scalars)
    stored: set[str] = set()

    def read_expr(e: ast.Expr) -> None:
        if isinstance(e, ast.IntLit) and e.value > sys.float_info.max:
            # kernels compute in real, so lowering converts the literal
            diags.append(error(IMPURE_KERNEL, e.pos, f"integer literal of "
                               f"{len(str(e.value))} digits is too large "
                               f"for a real"))
        if isinstance(e, (ast.IntLit, ast.RealLit)):
            return
        if isinstance(e, ast.Ident):
            if e.name not in known_scalars:
                if e.name in info.array_params:
                    diags.append(error(
                        IMPURE_KERNEL, e.pos,
                        f"array parameter '{e.name}' used without offsets"))
                else:
                    diags.append(error(
                        UNDECLARED, e.pos,
                        f"'{e.name}' is not declared in kernel "
                        f"'{kernel.name}'"))
            return
        if isinstance(e, ast.OffsetRef):
            if e.array not in info.array_params:
                diags.append(error(
                    IMPURE_KERNEL, e.pos,
                    f"kernel '{kernel.name}' references non-parameter array "
                    f"'{e.array}'"))
                return
            rank = info.param_rank[e.array]
            if len(e.offsets) != rank:
                diags.append(error(
                    HALO_SHAPE, e.pos,
                    f"'{e.array}' has rank {rank} but is referenced with "
                    f"{len(e.offsets)} offset(s)"))
                return
            if e.array in stored and any(o != 0 for o in e.offsets):
                diags.append(error(
                    STORE_THEN_HALO_READ, e.pos,
                    f"halo read of '{e.array}' after it was stored to; "
                    f"neighbour cells are stale once the centre is written"))
            info.footprints[e.array] = info.footprints[e.array].widen(e.offsets)
            return
        if isinstance(e, ast.Call):
            if e.name not in KERNEL_INTRINSICS:
                diags.append(error(
                    IMPURE_KERNEL, e.pos,
                    f"call to '{e.name}' is not allowed in a kernel (only "
                    f"{', '.join(sorted(KERNEL_INTRINSICS))})"))
            else:
                diags.extend(check_arity(e, IMPURE_KERNEL))
            for a in e.args:
                read_expr(a)
            return
        if isinstance(e, (ast.Bin, ast.Cmp)):
            read_expr(e.left)
            read_expr(e.right)
            return
        if isinstance(e, ast.Neg):
            read_expr(e.operand)
            return
        diags.append(error(
            IMPURE_KERNEL, e.pos,
            f"{type(e).__name__} is not a kernel expression"))

    for stmt in kernel.body:
        assert isinstance(stmt, ast.Assign)
        read_expr(stmt.rhs)
        lhs = stmt.lhs
        if isinstance(lhs, ast.OffsetRef):
            if lhs.array not in info.array_params:
                diags.append(error(
                    IMPURE_KERNEL, lhs.pos,
                    f"kernel '{kernel.name}' writes non-parameter array "
                    f"'{lhs.array}'"))
                continue
            rank = info.param_rank[lhs.array]
            if len(lhs.offsets) != rank:
                diags.append(error(
                    HALO_SHAPE, lhs.pos,
                    f"'{lhs.array}' has rank {rank} but is referenced with "
                    f"{len(lhs.offsets)} offset(s)"))
                continue
            if any(o != 0 for o in lhs.offsets):
                diags.append(error(
                    HALO_WRITE, lhs.pos,
                    f"write to halo cell {lhs.array}"
                    f"({','.join(str(o) for o in lhs.offsets)}); only the "
                    f"centre element may be assigned"))
                continue
            stored.add(lhs.array)
        elif isinstance(lhs, ast.Ident):
            if lhs.name not in known_scalars:
                diags.append(error(
                    UNDECLARED, lhs.pos,
                    f"'{lhs.name}' is not declared in kernel '{kernel.name}'"))
        else:
            diags.append(error(
                IMPURE_KERNEL, lhs.pos,
                "kernel assignments target the centre element or a local "
                "scalar"))
    return info, diags


def check_footprint(fp: Footprint, halo: ast.HaloSpec, kernel_name: str,
                    array_name: str, pos: SourcePos) -> list[Diagnostic]:
    """Compare a kernel's read reach against an array's declared halo."""
    diags: list[Diagnostic] = []
    if fp.rank != halo.rank:
        diags.append(error(
            HALO_SHAPE, pos,
            f"kernel '{kernel_name}' expects rank {fp.rank} but "
            f"'{array_name}' has halo rank {halo.rank}"))
        return diags
    for d, ((neg, pos_reach), h) in enumerate(zip(fp.dims, halo.dims)):
        if h.is_deferred:
            diags.append(error(
                MISSING_HALO, pos,
                f"halo widths of '{array_name}' must be explicit at a "
                f"launch site"))
            return diags
        if neg > h.lo or pos_reach > h.hi:
            diags.append(error(
                HALO_BOUNDS, pos,
                f"kernel '{kernel_name}' reads offsets [-{neg},+{pos_reach}] "
                f"in dim {d + 1} of '{array_name}' but its halo is "
                f"({h.lo},{h.hi})"))
    return diags


# ---------------------------------------------------------------------------
# Host checks


class _HostChecker:
    def __init__(self, program: ast.Program, symtab: SymbolTable,
                 kernels: dict[str, KernelInfo]):
        self.program = program
        self.symtab = symtab
        self.kernels = kernels
        self.diags: list[Diagnostic] = []
        self.subimage_vars: set[str] = set()
        self.conc_vars: list[str] = []

    def err(self, code: str, pos: SourcePos, msg: str) -> None:
        self.diags.append(error(code, pos, msg))

    # -- resolution helpers

    def scalar(self, name: str, pos: SourcePos):
        if name in self.conc_vars:
            return "concvar"
        e = self.symtab.lookup(name)
        if e is None:
            self.err(UNDECLARED, pos, f"'{name}' is not declared")
            return None
        return e

    def array(self, name: str, pos: SourcePos):
        e = self.symtab.lookup(name)
        if e is None:
            self.err(UNDECLARED, pos, f"'{name}' is not declared")
            return None
        if not isinstance(e, ArrayEntity):
            self.err(ALLOC_SHAPE, pos, f"'{name}' is not an array")
            return None
        return e

    def device_var(self, name: str, pos: SourcePos, what: str) -> None:
        if name not in self.subimage_vars:
            self.err(DEVICE_NOT_SUBIMAGE, pos,
                     f"{what} '{name}' is not a subimage handle (assign it "
                     f"with get_subimage first)")

    # -- expression walk

    def expr(self, e: ast.Expr) -> None:
        if isinstance(e, (ast.IntLit, ast.RealLit, ast.FullRange)):
            return
        if isinstance(e, ast.Ident):
            ent = self.scalar(e.name, e.pos)
            if isinstance(ent, ArrayEntity):
                self.err(ALLOC_SHAPE, e.pos,
                         f"array '{e.name}' used as a scalar")
            return
        if isinstance(e, ast.SectionRef):
            ent = self.array(e.array, e.pos)
            if ent is not None:
                if len(e.subs) != ent.rank:
                    self.err(ALLOC_SHAPE, e.pos,
                             f"'{e.array}' has rank {ent.rank} but "
                             f"{len(e.subs)} subscript(s)")
                if e.cosubs is not None and len(e.cosubs) != ent.corank:
                    self.err(ALLOC_SHAPE, e.pos,
                             f"'{e.array}' has corank {ent.corank} but "
                             f"{len(e.cosubs)} cosubscript(s)")
            for s in e.subs:
                self.expr(s)
            if e.cosubs is not None:
                for c in e.cosubs:
                    self.expr(c)
            return
        if isinstance(e, (ast.Bin, ast.Cmp)):
            self.expr(e.left)
            self.expr(e.right)
            return
        if isinstance(e, ast.Neg):
            self.expr(e.operand)
            return
        if isinstance(e, ast.Call):
            if e.name not in HOST_INTRINSICS:
                self.err(UNDECLARED, e.pos, f"unknown function '{e.name}'")
            else:
                self.diags.extend(check_arity(e, ALLOC_SHAPE))
            for a in e.args:
                self.expr(a)
            return
        if isinstance(e, ast.OffsetRef):
            self.err(ALLOC_SHAPE, e.pos,
                     "offset references are kernel-only syntax")
            return
        raise TypeError(type(e).__name__)  # pragma: no cover

    # -- statements

    def block(self, stmts: list[ast.Stmt]) -> None:
        for s in stmts:
            self.stmt(s)

    def stmt(self, s: ast.Stmt) -> None:
        if isinstance(s, ast.Assign):
            self.check_assign(s)
        elif isinstance(s, ast.AssignSubimage):
            ent = self.symtab.lookup(s.var)
            if ent is None:
                self.err(UNDECLARED, s.pos, f"'{s.var}' is not declared")
            elif not (isinstance(ent, ScalarEntity)
                      and ent.elem_type == "integer"):
                self.err(DEVICE_NOT_SUBIMAGE, s.pos,
                         f"subimage handle '{s.var}' must be a declared "
                         f"integer scalar")
            else:
                self.subimage_vars.add(s.var)
        elif isinstance(s, ast.MirrorAssign):
            ent = self.array(s.array, s.pos)
            if ent is not None and ent.corank == 0:
                self.err(MISSING_HALO, s.pos,
                         f"mirror copies apply to coarrays; '{s.array}' has "
                         f"no codimension")
            self.device_var(s.device, s.pos, "mirror device")
        elif isinstance(s, ast.Allocate):
            self.check_allocate(s)
        elif isinstance(s, ast.Deallocate):
            ent = self.array(s.entity, s.pos)
            if ent is not None and not ent.allocatable:
                self.err(ALLOC_SHAPE, s.pos,
                         f"'{s.entity}' is not allocatable")
        elif isinstance(s, ast.DoCounted):
            ent = self.symtab.lookup(s.var)
            if ent is None:
                self.err(UNDECLARED, s.pos,
                         f"loop variable '{s.var}' is not declared")
            elif not (isinstance(ent, ScalarEntity)
                      and ent.elem_type == "integer"):
                self.err(ALLOC_SHAPE, s.pos,
                         f"loop variable '{s.var}' must be an integer scalar")
            self.expr(s.lo)
            self.expr(s.hi)
            self.block(s.body)
        elif isinstance(s, ast.DoConcurrent):
            self.check_launch(s)
        elif isinstance(s, ast.HaloTransfer):
            ent = self.array(s.array, s.pos)
            if ent is not None:
                if ent.corank == 0:
                    self.err(MISSING_HALO, s.pos,
                             f"halo_transfer needs a coarray; '{s.array}' "
                             f"has no codimension")
                elif ent.halo is None or ent.halo.is_deferred:
                    self.err(MISSING_HALO, s.pos,
                             f"halo_transfer needs explicit halo widths on "
                             f"'{s.array}'")
        elif isinstance(s, ast.If):
            self.expr(s.cond)
            self.block(s.body)
        else:
            raise TypeError(type(s).__name__)  # pragma: no cover

    def check_assign(self, s: ast.Assign) -> None:
        if isinstance(s.lhs, ast.Ident):
            ent = self.scalar(s.lhs.name, s.lhs.pos)
            if isinstance(ent, ArrayEntity):
                self.err(ALLOC_SHAPE, s.lhs.pos,
                         "whole-array assignment is only the mirror form "
                         "U = U[dev]")
            elif isinstance(ent, ScalarEntity) and ent.builtin:
                self.err(ALLOC_SHAPE, s.lhs.pos,
                         f"'{s.lhs.name}' is a read-only runtime scalar")
        elif isinstance(s.lhs, ast.SectionRef):
            self.expr(s.lhs)
        self.expr(s.rhs)
        if isinstance(s.lhs, ast.SectionRef) and isinstance(s.rhs, ast.SectionRef):
            lfull = sum(isinstance(x, ast.FullRange) for x in s.lhs.subs)
            rfull = sum(isinstance(x, ast.FullRange) for x in s.rhs.subs)
            if lfull != rfull:
                self.err(ALLOC_SHAPE, s.pos,
                         "section shapes do not conform "
                         f"({lfull} vs {rfull} free dimension(s))")

    def check_allocate(self, s: ast.Allocate) -> None:
        ent = self.array(s.entity, s.pos)
        for lo, hi in s.bounds:
            self.expr(lo)
            self.expr(hi)
        for c in s.cobounds:
            if c != "*":
                self.expr(c)
        if ent is None:
            return
        if not ent.allocatable:
            self.err(ALLOC_SHAPE, s.pos, f"'{s.entity}' is not allocatable")
        if s.bounds:
            # Host allocation with explicit bounds.
            if len(s.bounds) != ent.rank:
                self.err(ALLOC_SHAPE, s.pos,
                         f"allocate gives {len(s.bounds)} bound(s) but "
                         f"'{s.entity}' has rank {ent.rank}")
            if ent.corank > 0:
                if len(s.cobounds) != ent.corank:
                    self.err(ALLOC_SHAPE, s.pos,
                             f"allocate gives {len(s.cobounds)} cobound(s) "
                             f"but '{s.entity}' has corank {ent.corank}")
                elif s.cobounds[-1] != "*":
                    self.err(ALLOC_SHAPE, s.pos,
                             "the final cobound must be '*'")
                if any(c == "*" for c in s.cobounds[:-1]):
                    self.err(ALLOC_SHAPE, s.pos,
                             "only the final cobound may be '*'")
            elif s.cobounds:
                self.err(ALLOC_SHAPE, s.pos,
                         f"'{s.entity}' has no codimension but cobounds "
                         f"were given")
            if s.halo_src is not None:
                self.err(ALLOC_SHAPE, s.pos,
                         "halo_src applies to device mirror allocation only")
            if s.target is not None:
                self.err(DEVICE_NOT_SUBIMAGE, s.pos,
                         "a host allocation cannot carry an execution target")
            return
        # Device mirror allocation: allocate(U[dev], halo_src=U) [[dev]]
        if ent.corank == 0:
            self.err(MISSING_HALO, s.pos,
                     f"device mirrors are for coarrays; '{s.entity}' has no "
                     f"codimension")
        device = s.device
        if device is None:
            self.err(DEVICE_NOT_SUBIMAGE, s.pos,
                     "device allocation selects its target as U[device]")
        else:
            self.device_var(device, s.pos, "allocation device")
        if s.halo_src is None:
            self.err(ALLOC_SHAPE, s.pos,
                     "device allocation requires halo_src=<the same array>")
        elif s.halo_src != s.entity:
            self.err(ALLOC_SHAPE, s.pos,
                     f"halo_src must name '{s.entity}' itself (its shape and "
                     f"halo are taken from the host array)")
        if s.target is not None and device is not None and s.target != device:
            self.err(DEVICE_NOT_SUBIMAGE, s.pos,
                     f"execution target '{s.target}' differs from the "
                     f"allocation device '{device}'")

    def check_launch(self, s: ast.DoConcurrent) -> None:
        self.device_var(s.target, s.pos, "execution target")
        seen: set[str] = set()
        for r in s.ranges:
            if r.var in seen:
                self.err(DUPLICATE_DECL, r.pos,
                         f"duplicate loop index '{r.var}'")
            seen.add(r.var)
            self.expr(r.lo)
            self.expr(r.hi)
        info = self.kernels.get(s.call.name)
        if info is None:
            self.err(UNDECLARED, s.call.pos,
                     f"unknown kernel '{s.call.name}'")
            return
        params = info.kernel.params
        if len(s.call.args) != len(params):
            self.err(ALLOC_SHAPE, s.call.pos,
                     f"kernel '{s.call.name}' takes {len(params)} "
                     f"argument(s), got {len(s.call.args)}")
            return
        self.conc_vars = [r.var for r in s.ranges]
        try:
            for p, a in zip(params, s.call.args):
                if p in info.array_params:
                    self.check_element_arg(s, info, p, a)
                else:
                    if isinstance(a, ast.ElementArg):
                        self.err(ALLOC_SHAPE, a.pos,
                                 f"parameter '{p}' of '{s.call.name}' is a "
                                 f"scalar; pass an expression")
                    else:
                        self.expr(a)
        finally:
            self.conc_vars = []

    def check_element_arg(self, s: ast.DoConcurrent, info: KernelInfo,
                          param: str, a) -> None:
        if not isinstance(a, ast.ElementArg):
            self.err(ALLOC_SHAPE, getattr(a, "pos", s.pos),
                     f"parameter '{param}' of '{s.call.name}' is an array; "
                     f"pass an element pattern like u(i,j)")
            return
        ent = self.array(a.array, a.pos)
        if ent is None:
            return
        rank = info.param_rank[param]
        if ent.rank != rank:
            self.err(HALO_SHAPE, a.pos,
                     f"kernel '{s.call.name}' expects rank {rank} but "
                     f"'{a.array}' has rank {ent.rank}")
            return
        if ent.elem_type != "real":
            self.err(IMPURE_KERNEL, a.pos,
                     f"launched array '{a.array}' is {ent.elem_type}; kernel "
                     f"arrays must be real")
        if ent.corank != ent.rank:
            self.err(ALLOC_SHAPE, a.pos,
                     f"launched array '{a.array}' must be a coarray "
                     f"(corank {ent.rank})")
        if ent.halo is None:
            self.err(MISSING_HALO, a.pos,
                     f"launched array '{a.array}' has no halo attribute")
        else:
            self.diags.extend(check_footprint(
                info.footprints[param], ent.halo, s.call.name, a.array,
                s.call.pos))
        if len(s.ranges) != rank:
            self.err(ALLOC_SHAPE, s.pos,
                     f"{len(s.ranges)} loop range(s) for rank-{rank} kernel "
                     f"'{s.call.name}'")
        if a.indices != [r.var for r in s.ranges]:
            self.err(ALLOC_SHAPE, a.pos,
                     "launch argument indices must be the loop indices in "
                     "order")
        if a.device is not None and a.device != s.target:
            self.err(DEVICE_NOT_SUBIMAGE, a.pos,
                     f"argument device '{a.device}' differs from the "
                     f"launch target '{s.target}'")


# ---------------------------------------------------------------------------
# Pipeline


def check_host(program: ast.Program, symtab: SymbolTable,
               kernels: dict[str, KernelInfo]) -> list[Diagnostic]:
    checker = _HostChecker(program, symtab, kernels)
    checker.block(program.body)
    return checker.diags


def check_program(program: ast.Program) -> CheckResult:
    symtab, diags = build_symbol_table(program)
    kernels: dict[str, KernelInfo] = {}
    for k in program.kernels:
        if k.name in kernels:
            diags.append(error(DUPLICATE_DECL, k.pos,
                               f"kernel '{k.name}' defined twice"))
            continue
        info, kdiags = check_kernel(k)
        diags.extend(kdiags)
        kernels[k.name] = info
    diags.extend(check_host(program, symtab, kernels))
    return CheckResult(program, symtab, kernels, sort_diagnostics(diags))
