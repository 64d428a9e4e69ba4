"""Host execution plan: the desugared driver program.

Every image executes the same action list (SPMD).  Surface statements map
one-to-one onto actions; conditionals become guarded groups and counted
loops become loop groups, printed with two-space indentation and braces so
the plan text is deterministic and diffable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from . import ast
from .astdump import format_expr
from .diagnostics import SourcePos


@dataclass
class GridSetup:
    pos: SourcePos


@dataclass
class AllocCoarray:
    entity: str
    bounds: list[tuple[ast.Expr, ast.Expr]]
    cobounds: list
    pos: SourcePos


@dataclass
class GetSubimage:
    var: str
    image: int
    pos: SourcePos


@dataclass
class DeviceAllocFrom:
    array: str
    device: str
    pos: SourcePos


@dataclass
class LaunchConcurrent:
    kernel: str
    ranges: list[ast.ConcRange]
    target: str
    args: list
    pos: SourcePos


@dataclass
class HaloTransfer:
    array: str
    bc: str
    pos: SourcePos


@dataclass
class MirrorCopy:
    direction: str
    array: str
    device: str
    pos: SourcePos


@dataclass
class SectionCopy:
    dst: ast.SectionRef
    src: ast.Expr
    pos: SourcePos


@dataclass
class ScalarAssign:
    var: str
    expr: ast.Expr
    pos: SourcePos


@dataclass
class Deallocate:
    entity: str
    pos: SourcePos


@dataclass
class LoopCounted:
    var: str
    lo: ast.Expr
    hi: ast.Expr
    body: list["Action"]
    pos: SourcePos


@dataclass
class CondGroup:
    cond: ast.Expr
    body: list["Action"]
    pos: SourcePos


Action = Union[GridSetup, AllocCoarray, GetSubimage, DeviceAllocFrom,
               LaunchConcurrent, HaloTransfer, MirrorCopy, SectionCopy,
               ScalarAssign, Deallocate, LoopCounted, CondGroup]


@dataclass
class HostPlan:
    actions: list[Action]


def desugar(program: ast.Program) -> HostPlan:
    """Lower the main program body to the flat action vocabulary."""
    actions: list[Action] = [GridSetup(program.pos)]
    actions.extend(_desugar_block(program.body))
    return HostPlan(actions)


def _desugar_block(stmts: list[ast.Stmt]) -> list[Action]:
    out: list[Action] = []
    for s in stmts:
        out.append(_desugar_stmt(s))
    return out


def _desugar_stmt(s: ast.Stmt) -> Action:
    if isinstance(s, ast.Assign):
        if isinstance(s.lhs, ast.SectionRef):
            return SectionCopy(s.lhs, s.rhs, s.pos)
        assert isinstance(s.lhs, ast.Ident)
        return ScalarAssign(s.lhs.name, s.rhs, s.pos)
    if isinstance(s, ast.AssignSubimage):
        return GetSubimage(s.var, s.image, s.pos)
    if isinstance(s, ast.MirrorAssign):
        return MirrorCopy(s.direction, s.array, s.device, s.pos)
    if isinstance(s, ast.Allocate):
        if s.bounds:
            return AllocCoarray(s.entity, s.bounds, s.cobounds, s.pos)
        device = s.cobounds[0].name if (
            s.cobounds and isinstance(s.cobounds[0], ast.Ident)) else ""
        return DeviceAllocFrom(s.entity, device, s.pos)
    if isinstance(s, ast.Deallocate):
        return Deallocate(s.entity, s.pos)
    if isinstance(s, ast.DoCounted):
        return LoopCounted(s.var, s.lo, s.hi, _desugar_block(s.body), s.pos)
    if isinstance(s, ast.DoConcurrent):
        return LaunchConcurrent(s.call.name, s.ranges, s.target,
                                list(s.call.args), s.pos)
    if isinstance(s, ast.HaloTransfer):
        return HaloTransfer(s.array, s.bc, s.pos)
    if isinstance(s, ast.If):
        return CondGroup(s.cond, _desugar_block(s.body), s.pos)
    raise TypeError(type(s).__name__)  # pragma: no cover


# ---------------------------------------------------------------------------
# Printing


def format_plan(plan: HostPlan) -> str:
    lines: list[str] = []
    _print_block(plan.actions, 0, lines)
    return "\n".join(lines) + "\n"


def _print_block(actions: list[Action], depth: int, lines: list[str]) -> None:
    ind = "  " * depth
    for a in actions:
        if isinstance(a, (LoopCounted, CondGroup)):
            if isinstance(a, LoopCounted):
                head = (f"LoopCounted({a.var}, {format_expr(a.lo)}, "
                        f"{format_expr(a.hi)})")
            else:
                head = f"CondGroup({format_expr(a.cond)})"
            lines.append(f"{ind}{head} {{")
            _print_block(a.body, depth + 1, lines)
            lines.append(f"{ind}}}")
        else:
            lines.append(ind + _format_action(a))


def _format_action(a: Action) -> str:
    if isinstance(a, GridSetup):
        return "GridSetup"
    if isinstance(a, AllocCoarray):
        bounds = ", ".join(f"{format_expr(lo)}:{format_expr(hi)}"
                           for lo, hi in a.bounds)
        cob = ", ".join("*" if c == "*" else format_expr(c)
                        for c in a.cobounds)
        if cob:
            return f"AllocCoarray({a.entity}, [{bounds}], [{cob}])"
        return f"AllocCoarray({a.entity}, [{bounds}])"
    if isinstance(a, GetSubimage):
        return f"GetSubimage({a.var}, {a.image})"
    if isinstance(a, DeviceAllocFrom):
        return f"DeviceAllocFrom({a.array}, {a.device})"
    if isinstance(a, LaunchConcurrent):
        ranges = ", ".join(f"{r.var}={format_expr(r.lo)}:{format_expr(r.hi)}"
                           for r in a.ranges)
        args = []
        for x in a.args:
            if isinstance(x, ast.ElementArg):
                text = f"{x.array}({','.join(x.indices)})"
                if x.device is not None:
                    text += f"[{x.device}]"
                args.append(text)
            else:
                args.append(format_expr(x))
        return (f"LaunchConcurrent({a.kernel}, [{ranges}], {a.target}, "
                f"[{', '.join(args)}])")
    if isinstance(a, HaloTransfer):
        return f"HaloTransfer({a.array}, {a.bc})"
    if isinstance(a, MirrorCopy):
        return f"MirrorCopy({a.direction}, {a.array}, {a.device})"
    if isinstance(a, SectionCopy):
        return f"SectionCopy({format_expr(a.dst)}, {format_expr(a.src)})"
    if isinstance(a, ScalarAssign):
        return f"ScalarAssign({a.var}, {format_expr(a.expr)})"
    if isinstance(a, Deallocate):
        return f"Deallocate({a.entity})"
    raise TypeError(type(a).__name__)  # pragma: no cover
