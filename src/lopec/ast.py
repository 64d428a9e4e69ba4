"""AST node types.

All nodes are plain dataclasses.  Every node carries the source position of
its first token; positions are excluded from equality (``compare=False``) so
structural comparison — in particular the term-dump round-trip — ignores
layout.  Identifier fields hold the lexer-normalized (lowercase) spelling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Union

from .diagnostics import SourcePos


@dataclass
class Node:
    pos: SourcePos = field(compare=False, repr=False)


# ---------------------------------------------------------------------------
# Declarations


@dataclass
class HaloDim:
    """One dimension of a halo attribute: lo/hi widths, or deferred (both None)."""
    lo: Optional[int]
    hi: Optional[int]

    @property
    def is_deferred(self) -> bool:
        return self.lo is None


@dataclass
class HaloSpec:
    dims: tuple[HaloDim, ...]

    @property
    def rank(self) -> int:
        return len(self.dims)

    @property
    def is_deferred(self) -> bool:
        return any(d.is_deferred for d in self.dims)


@dataclass
class DeclAttrs:
    allocatable: bool = False
    pure: bool = False
    concurrent: bool = False
    dim_count: Optional[int] = None   # rank from dimension(:,...)
    corank: Optional[int] = None      # from codimension[:,...]
    halo: Optional[HaloSpec] = None


@dataclass
class TypeDecl(Node):
    base: str                 # real | integer | logical
    attrs: DeclAttrs
    names: list[str]


# ---------------------------------------------------------------------------
# Expressions


@dataclass
class IntLit(Node):
    value: int


@dataclass
class RealLit(Node):
    value: float


@dataclass
class Ident(Node):
    name: str


@dataclass
class OffsetRef(Node):
    """Kernel-space array reference with literal offsets, e.g. U(-1,0)."""
    array: str
    offsets: tuple[int, ...]


@dataclass
class FullRange(Node):
    """The ':' placeholder in a section subscript (selects the interior)."""


@dataclass
class SectionRef(Node):
    """Host-space reference U(i, :)[c1, c2]; cosubs is None when local."""
    array: str
    subs: list[Expr]                      # index expression or FullRange per dim
    cosubs: Optional[list[Expr]] = None


@dataclass
class Bin(Node):
    op: str                   # + - * /
    left: Expr
    right: Expr


@dataclass
class Neg(Node):
    operand: Expr


@dataclass
class Cmp(Node):
    op: str                   # == /= < >
    left: Expr
    right: Expr


@dataclass
class Call(Node):
    name: str
    args: list[Expr]


Expr = Union[IntLit, RealLit, Ident, OffsetRef, FullRange, SectionRef,
             Bin, Neg, Cmp, Call]


# ---------------------------------------------------------------------------
# Statements


@dataclass
class Assign(Node):
    lhs: Expr                 # Ident, OffsetRef (kernels) or SectionRef (host)
    rhs: Expr


@dataclass
class AssignSubimage(Node):
    """var = get_subimage(k)"""
    var: str
    image: int


@dataclass
class MirrorAssign(Node):
    """U = U[dev] (device_to_host) or U[dev] = U (host_to_device)."""
    direction: str            # device_to_host | host_to_device
    array: str
    device: str


@dataclass
class Allocate(Node):
    entity: str
    bounds: list[tuple[Expr, Expr]]       # (lo, hi) per dim; [] = device form
    cobounds: list[Union[Expr, str]]      # expressions, or "*" for the last
    halo_src: Optional[str] = None
    target: Optional[str] = None          # [[dev]] execution target

    @property
    def device(self) -> Optional[str]:
        """The device of the mirror form ``allocate(U[dev], ...)``: the
        name when the only cobound is a name, else None."""
        if len(self.cobounds) == 1 and isinstance(self.cobounds[0], Ident):
            return self.cobounds[0].name
        return None


@dataclass
class Deallocate(Node):
    entity: str


@dataclass
class DoCounted(Node):
    var: str
    lo: Expr
    hi: Expr
    body: list[Stmt]


@dataclass
class ConcRange(Node):
    var: str
    lo: Expr
    hi: Expr


@dataclass
class ElementArg(Node):
    """Kernel launch argument U(i,j)[dev]: element pattern over loop indices."""
    array: str
    indices: list[str]
    device: Optional[str] = None


@dataclass
class KernelCall(Node):
    name: str
    args: list[Union[ElementArg, Expr]]


@dataclass
class DoConcurrent(Node):
    ranges: list[ConcRange]
    target: str               # execution-target variable from [[...]]
    call: KernelCall


@dataclass
class HaloTransfer(Node):
    array: str
    bc: str                   # boundary condition; only "cyclic"


@dataclass
class If(Node):
    cond: Expr
    body: list[Stmt]


Stmt = Union[Assign, AssignSubimage, MirrorAssign, Allocate, Deallocate,
             DoCounted, DoConcurrent, HaloTransfer, If]


# ---------------------------------------------------------------------------
# Program units


@dataclass
class KernelDef(Node):
    name: str
    params: list[str]
    decls: list[TypeDecl]
    body: list[Stmt]


@dataclass
class Program(Node):
    kernels: list[KernelDef]
    decls: list[TypeDecl]
    body: list[Stmt]


def walk(node) -> Iterator:
    """``node`` and everything inside it but source positions, preorder."""
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (list, tuple)):
            stack.extend(reversed(node))
        else:
            names = getattr(type(node), "__dataclass_fields__", ())
            stack.extend([getattr(node, n) for n in reversed(names)
                          if n != "pos"])
