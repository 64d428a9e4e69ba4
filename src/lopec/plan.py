"""Host execution plan: the host half of the source-to-source translation.

Every image executes the same checked main-program statements (SPMD); the
runtime runs them as they stand.  ``format_plan`` prints them in the plan
vocabulary, one action per statement: an ``allocate`` with bounds is
``AllocCoarray`` and one without is the mirror allocation
``DeviceAllocFrom``; an assignment to a section is ``SectionCopy`` and one
to a name is ``ScalarAssign``.  Conditionals print as guarded groups and
counted loops as loop groups, with two-space indentation and braces, so the
plan text is deterministic and diffable.
"""

from __future__ import annotations

from . import ast
from .astdump import format_expr


def desugar(program: ast.Program) -> list[ast.Stmt]:
    """The statements the plan is made of: the main program body."""
    return program.body


def format_plan(stmts: list[ast.Stmt]) -> str:
    lines = ["GridSetup"]
    _print_block(stmts, 0, lines)
    return "\n".join(lines) + "\n"


def _print_block(stmts: list[ast.Stmt], depth: int, lines: list[str]) -> None:
    ind = "  " * depth
    for s in stmts:
        if isinstance(s, (ast.DoCounted, ast.If)):
            if isinstance(s, ast.DoCounted):
                head = (f"LoopCounted({s.var}, {format_expr(s.lo)}, "
                        f"{format_expr(s.hi)})")
            else:
                head = f"CondGroup({format_expr(s.cond)})"
            lines.append(f"{ind}{head} {{")
            _print_block(s.body, depth + 1, lines)
            lines.append(f"{ind}}}")
        else:
            lines.append(ind + _format_action(s))


def _format_action(s: ast.Stmt) -> str:
    if isinstance(s, ast.Allocate):
        if not s.bounds:
            return f"DeviceAllocFrom({s.entity}, {s.device})"
        bounds = ", ".join(f"{format_expr(lo)}:{format_expr(hi)}"
                           for lo, hi in s.bounds)
        cob = ", ".join("*" if c == "*" else format_expr(c)
                        for c in s.cobounds)
        if cob:
            return f"AllocCoarray({s.entity}, [{bounds}], [{cob}])"
        return f"AllocCoarray({s.entity}, [{bounds}])"
    if isinstance(s, ast.AssignSubimage):
        return f"GetSubimage({s.var}, {s.image})"
    if isinstance(s, ast.DoConcurrent):
        ranges = ", ".join(f"{r.var}={format_expr(r.lo)}:{format_expr(r.hi)}"
                           for r in s.ranges)
        args = []
        for x in s.call.args:
            if isinstance(x, ast.ElementArg):
                text = f"{x.array}({','.join(x.indices)})"
                if x.device is not None:
                    text += f"[{x.device}]"
                args.append(text)
            else:
                args.append(format_expr(x))
        return (f"LaunchConcurrent({s.call.name}, [{ranges}], {s.target}, "
                f"[{', '.join(args)}])")
    if isinstance(s, ast.HaloTransfer):
        return f"HaloTransfer({s.array}, {s.bc})"
    if isinstance(s, ast.MirrorAssign):
        return f"MirrorCopy({s.direction}, {s.array}, {s.device})"
    if isinstance(s, ast.Assign):
        if isinstance(s.lhs, ast.SectionRef):
            return f"SectionCopy({format_expr(s.lhs)}, {format_expr(s.rhs)})"
        return f"ScalarAssign({s.lhs.name}, {format_expr(s.rhs)})"
    if isinstance(s, ast.Deallocate):
        return f"Deallocate({s.entity})"
    raise TypeError(type(s).__name__)  # pragma: no cover
