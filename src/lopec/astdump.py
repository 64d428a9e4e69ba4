"""Deterministic term dump of the AST, and a source printer.

``dump_ast`` renders a Program as a nested-term text (one statement per
line, two-space indent, stable attribute order) so identical programs always
produce identical bytes.

``format_expr`` prints an expression back in surface syntax with minimal
parentheses; the host-plan printer and diagnostics use it.
"""

from __future__ import annotations

from . import ast

# ---------------------------------------------------------------------------
# Writer

_IND = "  "

_BIN_HEAD = {"+": "Add", "-": "Sub", "*": "Mul", "/": "Div"}
_CMP_HEAD = {"==": "Eq", "/=": "Ne", "<": "Lt", ">": "Gt"}


def dump_ast(program: ast.Program) -> str:
    kernels = _block([_kernel(k, 1) for k in program.kernels], 0)
    main_items = ([_decl(d) for d in program.decls]
                  + [_stmt(s, 1) for s in program.body])
    return f"Program({kernels},{_block(main_items, 0)})\n"


def _block(items: list[str], depth: int) -> str:
    if not items:
        return "[]"
    ind = _IND * (depth + 1)
    inner = (",\n").join(ind + it for it in items)
    return "[\n" + inner + "\n" + _IND * depth + "]"


def _kernel(k: ast.KernelDef, depth: int) -> str:
    params = "[" + ",".join(f'"{p}"' for p in k.params) + "]"
    decls = _block([_decl(d) for d in k.decls], depth)
    body = _block([_stmt(s, depth + 1) for s in k.body], depth)
    return f'Kernel("{k.name}",{params},{decls},{body})'


def _decl(d: ast.TypeDecl) -> str:
    attrs = []
    if d.attrs.allocatable:
        attrs.append("Allocatable")
    if d.attrs.pure:
        attrs.append("Pure")
    if d.attrs.concurrent:
        attrs.append("Concurrent")
    if d.attrs.dim_count is not None:
        attrs.append(f"Dim({d.attrs.dim_count})")
    if d.attrs.corank is not None:
        attrs.append(f"Codim({d.attrs.corank})")
    if d.attrs.halo is not None:
        dims = ",".join("Deferred" if h.is_deferred else f"Hdim({h.lo},{h.hi})"
                        for h in d.attrs.halo.dims)
        attrs.append(f"Halo([{dims}])")
    names = ",".join(f'"{n}"' for n in d.names)
    return f'Decl({d.base},[{",".join(attrs)}],[{names}])'


def _stmt(s: ast.Stmt, depth: int) -> str:
    if isinstance(s, ast.Assign):
        return f"Assign({_expr(s.lhs)},{_expr(s.rhs)})"
    if isinstance(s, ast.AssignSubimage):
        return f'GetSubimage("{s.var}",{s.image})'
    if isinstance(s, ast.MirrorAssign):
        tag = "d2h" if s.direction == "device_to_host" else "h2d"
        return f'Mirror({tag},"{s.array}","{s.device}")'
    if isinstance(s, ast.Allocate):
        bounds = "[" + ",".join(f"Bound({_expr(lo)},{_expr(hi)})"
                                for lo, hi in s.bounds) + "]"
        cob = "[" + ",".join("CoStar" if c == "*" else _expr(c)
                             for c in s.cobounds) + "]"
        src = f'"{s.halo_src}"' if s.halo_src is not None else "None"
        tgt = f'"{s.target}"' if s.target is not None else "None"
        return f'Alloc("{s.entity}",{bounds},{cob},{src},{tgt})'
    if isinstance(s, ast.Deallocate):
        return f'Dealloc("{s.entity}")'
    if isinstance(s, ast.DoCounted):
        body = _block([_stmt(b, depth + 1) for b in s.body], depth)
        return f'Do("{s.var}",{_expr(s.lo)},{_expr(s.hi)},{body})'
    if isinstance(s, ast.DoConcurrent):
        ranges = "[" + ",".join(
            f'R("{r.var}",{_expr(r.lo)},{_expr(r.hi)})' for r in s.ranges) + "]"
        return f'DoConc({ranges},"{s.target}",{_kernel_call(s.call)})'
    if isinstance(s, ast.HaloTransfer):
        return f'HaloTransfer("{s.array}",{s.bc})'
    if isinstance(s, ast.If):
        body = _block([_stmt(b, depth + 1) for b in s.body], depth)
        return f"If({_expr(s.cond)},{body})"
    raise TypeError(f"cannot dump statement {type(s).__name__}")


def _kernel_call(c: ast.KernelCall) -> str:
    args = []
    for a in c.args:
        if isinstance(a, ast.ElementArg):
            idx = "[" + ",".join(f'"{i}"' for i in a.indices) + "]"
            dev = f'"{a.device}"' if a.device is not None else "None"
            args.append(f'Elem("{a.array}",{idx},{dev})')
        else:
            args.append(_expr(a))
    return f'CallKernel("{c.name}",[{",".join(args)}])'


def _expr(e: ast.Expr) -> str:
    if isinstance(e, ast.IntLit):
        return f"Int({e.value})"
    if isinstance(e, ast.RealLit):
        return f"Real({e.value!r})"
    if isinstance(e, ast.Ident):
        return f'Id("{e.name}")'
    if isinstance(e, ast.OffsetRef):
        return f'OffsetRef("{e.array}",[{",".join(str(o) for o in e.offsets)}])'
    if isinstance(e, ast.FullRange):
        return "All"
    if isinstance(e, ast.SectionRef):
        subs = "[" + ",".join(_expr(s) for s in e.subs) + "]"
        if e.cosubs is None:
            cos = "None"
        else:
            cos = "[" + ",".join(_expr(c) for c in e.cosubs) + "]"
        return f'Section("{e.array}",{subs},{cos})'
    if isinstance(e, ast.Bin):
        return f"{_BIN_HEAD[e.op]}({_expr(e.left)},{_expr(e.right)})"
    if isinstance(e, ast.Neg):
        return f"Neg({_expr(e.operand)})"
    if isinstance(e, ast.Cmp):
        return f"{_CMP_HEAD[e.op]}({_expr(e.left)},{_expr(e.right)})"
    if isinstance(e, ast.Call):
        return f'Call("{e.name}",[{",".join(_expr(a) for a in e.args)}])'
    raise TypeError(f"cannot dump expression {type(e).__name__}")


# ---------------------------------------------------------------------------
# Surface-syntax printer (plan text, diagnostics)

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}


def format_expr(e: ast.Expr) -> str:
    return _fmt(e, 0)


def _fmt(e: ast.Expr, parent_prec: int) -> str:
    if isinstance(e, ast.IntLit):
        return str(e.value)
    if isinstance(e, ast.RealLit):
        return repr(e.value)
    if isinstance(e, ast.Ident):
        return e.name
    if isinstance(e, ast.OffsetRef):
        return f'{e.array}({",".join(str(o) for o in e.offsets)})'
    if isinstance(e, ast.FullRange):
        return ":"
    if isinstance(e, ast.SectionRef):
        s = f'{e.array}({",".join(_fmt(x, 0) for x in e.subs)})'
        if e.cosubs is not None:
            s += f'[{",".join(_fmt(c, 0) for c in e.cosubs)}]'
        return s
    if isinstance(e, ast.Bin):
        prec = _PREC[e.op]
        left = _fmt(e.left, prec - 1)
        # Right operand of -, / needs parens at equal precedence.
        right = _fmt(e.right, prec if e.op in ("-", "/") else prec - 1)
        text = f"{left} {e.op} {right}"
        return f"({text})" if prec <= parent_prec else text
    if isinstance(e, ast.Neg):
        return f"-{_fmt(e.operand, 2)}"
    if isinstance(e, ast.Cmp):
        return f"{_fmt(e.left, 0)} {e.op} {_fmt(e.right, 0)}"
    if isinstance(e, ast.Call):
        return f'{e.name}({", ".join(_fmt(a, 0) for a in e.args)})'
    raise TypeError(f"cannot format {type(e).__name__}")
