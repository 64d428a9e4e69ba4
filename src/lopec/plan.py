"""Host execution plan: the host half of the source-to-source translation.

Every image executes the same checked main-program statements (SPMD); the
runtime runs them as they stand.  ``format_plan`` prints them in the plan
vocabulary, one action per statement: an ``allocate`` with bounds is
``AllocCoarray`` and one without is the mirror allocation
``DeviceAllocFrom``; an assignment to a section is ``SectionCopy`` and one
to a name is ``ScalarAssign``.  Conditionals print as guarded groups and
counted loops as loop groups, with two-space indentation and braces, so the
plan text is deterministic and diffable.

``variant_statements`` and ``split_point`` are the divergence analysis by
which the runtime steps the program once for many images.
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


def governing(s: ast.Stmt) -> list[ast.Expr]:
    """The expressions whose values decide what ``s`` does on an image."""
    if isinstance(s, ast.If):
        return [s.cond]
    if isinstance(s, ast.DoCounted):
        return [s.lo, s.hi]
    if isinstance(s, ast.Assign) and isinstance(s.lhs, ast.Ident):
        return [s.rhs]
    if isinstance(s, ast.DoConcurrent):
        return ([e for r in s.ranges for e in (r.lo, r.hi)]
                + [a for a in s.call.args if not isinstance(a, ast.ElementArg)])
    if isinstance(s, ast.Allocate):
        return [e for bound in s.bounds for e in bound]
    return []


def variant_statements(body: list[ast.Stmt]) -> set[int]:
    """The ids of the statements whose governing expressions are variant,
    that is, may differ between images; subimage handles count too.  An
    expression is variant when it calls ``this_image()`` or reads
    ``pcol``, ``prow``, an array element or a variant name.  A name is
    variant when a variant statement, or one under a variant ``if`` or
    loop, assigns it; names are followed to a fixed point."""
    names = {"pcol", "prow", "this_image"}
    variant: set[int] = set()

    def visit(stmts: list[ast.Stmt], masked: bool) -> None:
        for s in stmts:
            if isinstance(s, ast.AssignSubimage) or any(
                    isinstance(n, ast.SectionRef)
                    or isinstance(n, (ast.Ident, ast.Call)) and n.name in names
                    for n in ast.walk(governing(s))):
                variant.add(id(s))
            differs = masked or id(s) in variant
            if differs and isinstance(s, (ast.AssignSubimage, ast.DoCounted)):
                names.add(s.var)
            elif differs and isinstance(s, ast.Assign) and isinstance(
                    s.lhs, ast.Ident):
                names.add(s.lhs.name)
            if isinstance(s, (ast.If, ast.DoCounted)):
                visit(s.body, differs)

    while True:
        known = len(names)
        visit(body, False)
        if len(names) == known:
            return variant


def split_point(body: list[ast.Stmt], variant: set[int]) -> int:
    """The index of the first top-level statement inside which images may
    part: at a variant loop bound, or at a variant ``if`` that holds a
    launch or a collective; ``len(body)`` when there is none."""
    def stops(n) -> bool:
        return (isinstance(n, (ast.HaloTransfer, ast.Deallocate,
                               ast.DoConcurrent))
                or isinstance(n, ast.Allocate) and bool(n.bounds))

    def parts(n) -> bool:
        return id(n) in variant and (
            isinstance(n, ast.DoCounted)
            or isinstance(n, ast.If) and any(map(stops, ast.walk(n.body))))
    return next((i for i, s in enumerate(body)
                 if any(map(parts, ast.walk(s)))), len(body))
