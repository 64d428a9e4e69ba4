"""Deterministic C-dialect (OpenCL-style) kernel emission.

Each array parameter becomes an input buffer ``<name>_in`` plus, when the
kernel stores to it, an output buffer ``<name>_out``; every dimension
contributes extent/halo size parameters (``M, hlo0, hhi0, N, hlo1, hhi1``,
and ``L``/``hlo2``/``hhi2`` for rank 3).  Work-item ids ``i, j, k`` come
from ``get_global_id`` and are zero-based over the launch range; the flat
index follows the column-major padded layout, highest dimension first::

    const int idx = (j+hlo1)*(M+hlo0+hhi0) + (i+hlo0);
    ... u_in[(j+hlo1)*(M+hlo0+hhi0) + (i+hlo0) + (-1)] ...   // U(-1,0)

Emission is pure text generation from the checked kernel's statements,
printed as they stand in the AST: same kernel, same bytes.  A centre read
that follows a centre store reads the output buffer so the C matches the
interpreter's pending-centre semantics.  The kernel is checked, so its
array parameters are real and share one rank of at most 3, and every local
is assigned before it is read.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from . import ast
from .lowering import KernelIR


@dataclass(frozen=True)
class EmitConfig:
    real_c_type: str = "float"


# per dimension: the interior extent and the work-item id
EXTENT_SYMBOLS = ("M", "N", "L")
ID_SYMBOLS = ("i", "j", "k")
INDENT = "    "

_INTRINSIC_C = {"abs": "fabs", "min": "fmin", "max": "fmax", "sqrt": "sqrt"}


def emit_kernel_source(ir: KernelIR, config: EmitConfig = EmitConfig()) -> str:
    """Render one kernel as C-dialect source (deterministic bytes)."""
    rank = ir.rank
    stored = set(ir.stored_arrays)

    params: list[str] = []
    for p in ir.array_params:
        params.append(f"__global const {config.real_c_type}* {p}_in")
        if p in stored:
            params.append(f"__global {config.real_c_type}* {p}_out")
    for d in range(rank):
        params.append(f"const int {EXTENT_SYMBOLS[d]}")
        params.append(f"const int hlo{d}")
        params.append(f"const int hhi{d}")
    for p in ir.scalar_params:
        ctype = config.real_c_type if ir.param_types[p] == "real" else "int"
        params.append(f"const {ctype} {p}")

    emitter = _Emitter(ir, config, stored)
    lines = [f"__kernel void {ir.name}({', '.join(params)})", "{"]
    for d in range(rank):
        lines.append(f"{INDENT}const int {ID_SYMBOLS[d]} = "
                     f"get_global_id({d});")
    lines.append(f"{INDENT}const int idx = "
                 f"{emitter.index_expr((0,) * rank)};")
    for name in ir.local_scalars:
        ctype = (config.real_c_type
                 if ir.param_types.get(name, "real") == "real" else "int")
        lines.append(f"{INDENT}{ctype} {name};")
    for st in ir.body:
        rhs = emitter.expr(st.rhs, 0)
        if isinstance(st.lhs, ast.OffsetRef):
            lines.append(f"{INDENT}{st.lhs.array}_out[idx] = {rhs};")
            emitter.center_stored.add(st.lhs.array)
        else:
            lines.append(f"{INDENT}{st.lhs.name} = {rhs};")
    lines.append("}")
    return "\n".join(lines) + "\n"


@dataclass
class _Emitter:
    ir: KernelIR
    config: EmitConfig
    stored: set[str]
    center_stored: set[str] = field(default_factory=set)

    def padded_extent(self, d: int) -> str:
        return f"({EXTENT_SYMBOLS[d]}+hlo{d}+hhi{d})"

    def index_expr(self, offsets: tuple[int, ...]) -> str:
        terms = []
        for d in range(len(offsets) - 1, 0, -1):
            off = f"+({offsets[d]})" if offsets[d] else ""
            coord = f"({ID_SYMBOLS[d]}+hlo{d}{off})"
            factors = "".join("*" + self.padded_extent(e)
                              for e in range(d - 1, -1, -1))
            terms.append(coord + factors)
        terms.append(f"({ID_SYMBOLS[0]}+hlo0)")
        if offsets[0]:
            terms.append(f"({offsets[0]})")
        return " + ".join(terms)

    def read(self, e: ast.OffsetRef) -> str:
        if all(o == 0 for o in e.offsets):
            buffer = "_out" if e.array in self.center_stored else "_in"
            return f"{e.array}{buffer}[idx]"
        return f"{e.array}_in[{self.index_expr(e.offsets)}]"

    def const(self, v: float) -> str:
        text = repr(v)
        if self.config.real_c_type == "float":
            return text + "f"
        return text

    # Precedence: additive 1, multiplicative 2, unary 3, primary 4.
    def expr(self, e: ast.Expr, parent_prec: int) -> str:
        if isinstance(e, (ast.IntLit, ast.RealLit)):
            return self.const(float(e.value))
        if isinstance(e, ast.Ident):
            return e.name
        if isinstance(e, ast.OffsetRef):
            return self.read(e)
        if isinstance(e, ast.Bin):
            if e.op in ("+", "-"):
                text = f"{self.expr(e.left, 0)} {e.op} {self.expr(e.right, 1)}"
                return f"({text})" if parent_prec >= 1 else text
            right = self.expr(e.right, 1 if e.op == "*" else 2)
            text = f"{self.expr(e.left, 1)}{e.op}{right}"
            return f"({text})" if parent_prec >= 2 else text
        if isinstance(e, ast.Neg):
            # a negation of a negation is parenthesized: "--" is C's decrement
            text = f"-{self.expr(e.operand, 3)}"
            return f"({text})" if parent_prec >= 3 else text
        if isinstance(e, ast.Call):
            fn, args = _INTRINSIC_C[e.name], [self.expr(a, 0) for a in e.args]
            # fmin and fmax take two arguments: fold left, as the runtime
            return (f"{fn}({args[0]})" if len(args) == 1 else
                    functools.reduce(lambda x, y: f"{fn}({x}, {y})", args))
        raise TypeError(type(e).__name__)  # pragma: no cover
