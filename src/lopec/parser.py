"""Recursive-descent parser producing the AST.

One pass over the lexer's parallel token lists (``lexer.Tokens``), aborting
on the first syntax error with a positioned ``ParseError`` (code E002).
Every parsing function takes the lists and a cursor ``i`` and returns what
it parsed with the cursor after it, so the cursor lives in locals and no
per-token object is built; a ``SourcePos`` is made only for an AST node or
a diagnostic.  Expressions are parsed by precedence climbing into
left-associative trees; one deeper than ``MAX_EXPR_DEPTH`` levels is an
E002 error, so later stages may recurse over every tree they are given.
``parse_source`` is the convenience entry point that tokenizes and parses,
returning ``(program, diagnostics)`` instead of raising.

Context matters for array references: inside kernels a parenthesized
reference must use signed integer literal offsets (``U(-1,0)``), while host
code uses sections with index expressions or ``:`` and optional cosubscripts
(``U(1,:)[pcol+1,prow]``).  Calls to the intrinsic functions are recognized
by name; any other parenthesized reference that does not fit the offset form
is kept as a Call node for the semantic checker to reject with a precise
code.
"""

from __future__ import annotations

import math

from .ast import (Allocate, Assign, AssignSubimage, Bin, Call, Cmp, ConcRange,
                  DeclAttrs, Deallocate, DoConcurrent, DoCounted, ElementArg,
                  Expr, FullRange, HaloDim, HaloSpec, HaloTransfer, Ident, If,
                  IntLit, KernelCall, KernelDef, MirrorAssign, Neg, OffsetRef,
                  Program, RealLit, SectionRef, Stmt, TypeDecl)
from .diagnostics import PARSE_ERROR, LexError, ParseError, error
from .lexer import TokenKind, Tokens, real_value, tokenize

# Functions callable in host expressions; kernels restrict further (checked
# semantically so the error code can be precise).
INTRINSICS = frozenset({"this_image", "abs", "min", "max", "sqrt"})
KERNEL_INTRINSICS = frozenset({"abs", "min", "max", "sqrt"})

# The deepest expression accepted, in levels: a name, literal, offset
# reference or ':' is one level, and each operator, sign, call, section
# and parenthesized group adds one above its deepest operand.  Checks,
# codegen, the plan printer, the runtime and the AST dump all recurse over
# expression trees, and each handles this depth within Python's default
# recursion limit; generated kernels of 40 terms reach about 45 levels.
MAX_EXPR_DEPTH = 128

KW, IDENT = TokenKind.KW, TokenKind.IDENT
INT, REAL = TokenKind.INT, TokenKind.REAL
LPAREN, RPAREN = TokenKind.LPAREN, TokenKind.RPAREN
LBRACK, RBRACK = TokenKind.LBRACK, TokenKind.RBRACK
COMMA, COLON, ASSIGN = TokenKind.COMMA, TokenKind.COLON, TokenKind.ASSIGN
PLUS, MINUS = TokenKind.PLUS, TokenKind.MINUS
STAR, SLASH = TokenKind.STAR, TokenKind.SLASH
NEWLINE, EOF = TokenKind.NEWLINE, TokenKind.EOF

_COMPARISONS = (TokenKind.EQ, TokenKind.NE, TokenKind.LT, TokenKind.GT)
_BASE_TYPES = ("real", "integer", "logical")
# (opening, what it is expected as, closing, what it is expected as)
_PARENS = (LPAREN, "'('", RPAREN, "')'")
_BRACKS = (LBRACK, "'['", RBRACK, "']'")


# ---------------------------------------------------------------------------
# Token helpers: each takes the stream and a cursor


def _fail(t: Tokens, i: int, message: str) -> ParseError:
    shown = "end of input" if t.kinds[i] is EOF else repr(t.texts[i])
    return ParseError(error(PARSE_ERROR, t.pos(i), f"{message}, found {shown}"))


def _at_kw(t: Tokens, i: int, word: str) -> bool:
    return t.kinds[i] is KW and t.texts[i] == word


def _expect(t: Tokens, i: int, kind: TokenKind, what: str) -> int:
    if t.kinds[i] is not kind:
        raise _fail(t, i, f"expected {what}")
    return i + 1


def _expect_kw(t: Tokens, i: int, word: str) -> int:
    if not _at_kw(t, i, word):
        raise _fail(t, i, f"expected '{word}'")
    return i + 1


def _take(t: Tokens, i: int, kind: TokenKind, what: str) -> tuple[str, int]:
    """The text of a ``kind`` token at ``i``."""
    if t.kinds[i] is not kind:
        raise _fail(t, i, f"expected {what}")
    return t.texts[i], i + 1


def _int(t: Tokens, i: int, what: str) -> tuple[int, int]:
    """The value of an integer literal at ``i``."""
    if t.kinds[i] is not INT:
        raise _fail(t, i, f"expected {what}")
    text = t.texts[i]
    try:
        return int(text), i + 1
    except ValueError:      # past the interpreter's digit limit
        raise ParseError(error(
            PARSE_ERROR, t.pos(i),
            f"integer literal of {len(text)} digits is too long")) from None


def _skip_newlines(t: Tokens, i: int) -> int:
    while t.kinds[i] is NEWLINE:
        i += 1
    return i


def _end_stmt(t: Tokens, i: int) -> int:
    if t.kinds[i] is EOF:
        return i
    return _skip_newlines(t, _expect(t, i, NEWLINE, "end of statement"))


def _list(t: Tokens, i: int, item, *args, bracket: tuple | None = None,
          empty: bool = False) -> tuple[list, int]:
    """``item(t, i, *args)`` separated by commas, between ``bracket``
    (``_PARENS`` or ``_BRACKS``) when given; ``empty`` allows ``()``."""
    kinds = t.kinds
    if bracket is not None:
        opening, opened, close, closed = bracket
        i = _expect(t, i, opening, opened)
        if empty and kinds[i] is close:
            return [], i + 1
    x, i = item(t, i, *args)
    items = [x]
    while kinds[i] is COMMA:
        x, i = item(t, i + 1, *args)
        items.append(x)
    if bracket is not None:
        i = _expect(t, i, close, closed)
    return items, i


def _body(t: Tokens, i: int, stmt, closing: str) -> tuple[list[Stmt], int]:
    """Statements parsed by ``stmt(t, i)`` up to ``end <closing>``."""
    stmts = []
    while not _at_kw(t, i, "end"):
        s, i = stmt(t, i)
        stmts.append(s)
        i = _end_stmt(t, i)
    return stmts, _expect_kw(t, _expect_kw(t, i, "end"), closing)


# ---------------------------------------------------------------------------
# Entry points


def parse_source(text: str, filename: str = "<input>"):
    """Tokenize + parse; returns (Program or None, [Diagnostic])."""
    try:
        tokens = tokenize(text, filename)
    except LexError as e:
        return None, [e.diagnostic]
    try:
        return parse(tokens), []
    except ParseError as e:
        return None, [e.diagnostic]


def parse(tokens: Tokens) -> Program:
    """Parse a full translation unit: kernel definitions, then the main program."""
    t = tokens
    i = first = _skip_newlines(t, 0)
    kernels: list[KernelDef] = []
    while _at_kw(t, i, "pure") or _at_kw(t, i, "subroutine"):
        kernel, i = _parse_kernel(t, i)
        kernels.append(kernel)
        i = _skip_newlines(t, i)
    if not _at_kw(t, i, "program"):
        raise _fail(t, i, "expected 'program' or a kernel definition")
    _, i = _take(t, i + 1, IDENT, "program name")
    decls, i = _parse_decl_block(t, _end_stmt(t, i))
    body, i = _body(t, i, _parse_host_stmt, "program")
    if t.kinds[i] is IDENT:
        i += 1
    i = _skip_newlines(t, i)
    if t.kinds[i] is not EOF:
        raise _fail(t, i, "expected end of file after the main program")
    return Program(t.pos(first), kernels, decls, body)


# ---------------------------------------------------------------------------
# Kernels and declarations


def _parse_kernel(t: Tokens, i: int) -> tuple[KernelDef, int]:
    start = i
    for word in ("pure", "concurrent", "subroutine"):
        i = _expect_kw(t, i, word)
    name, i = _take(t, i, IDENT, "kernel name")
    params, i = _list(t, i, _take, IDENT, "parameter name", bracket=_PARENS)
    decls, i = _parse_decl_block(t, _end_stmt(t, i))
    body, i = _body(t, i, _parse_kernel_stmt, "subroutine")
    if t.kinds[i] is IDENT:
        if t.texts[i] != name:
            raise _fail(t, i, f"mismatched kernel name (expected {name!r})")
        i += 1
    return KernelDef(t.pos(start), name, params, decls, body), _end_stmt(t, i)


def _parse_decl_block(t: Tokens, i: int) -> tuple[list[TypeDecl], int]:
    decls = []
    while t.kinds[i] is KW and t.texts[i] in _BASE_TYPES:
        attrs = DeclAttrs()
        j = i + 1
        while t.kinds[j] is COMMA:
            j = _parse_attr(t, j + 1, attrs)
        names, j = _list(t, _expect(t, j, TokenKind.DCOLON, "'::'"),
                         _take, IDENT, "entity name")
        decls.append(TypeDecl(t.pos(i), t.texts[i], attrs, names))
        i = _end_stmt(t, j)
    return decls, i


def _parse_attr(t: Tokens, i: int, attrs: DeclAttrs) -> int:
    word = t.texts[i] if t.kinds[i] is KW else None
    if word in ("allocatable", "pure", "concurrent"):
        setattr(attrs, word, True)
        return i + 1
    if word == "dimension":         # dimension(:,...)
        colons, i = _list(t, i + 1, _take, COLON, "':' (deferred shape)",
                          bracket=_PARENS)
        attrs.dim_count = len(colons)
    elif word == "codimension":     # codimension[:,...]
        colons, i = _list(t, i + 1, _take, COLON, "':' (deferred coshape)",
                          bracket=_BRACKS)
        attrs.corank = len(colons)
    elif word == "halo":
        dims, i = _list(t, i + 1, _parse_halo_dim, bracket=_PARENS)
        attrs.halo = HaloSpec(tuple(dims))
    else:
        raise _fail(t, i, "expected a declaration attribute")
    return i


def _parse_halo_dim(t: Tokens, i: int) -> tuple[HaloDim, int]:
    if t.kinds[i] is COLON:
        return HaloDim(None, None), i + 1
    lo, i = _halo_width(t, i, "halo width or ':'")
    i = _expect(t, _expect(t, i, COLON, "':'"), STAR,
                "'*' (interior placeholder)")
    hi, i = _halo_width(t, _expect(t, i, COLON, "':'"), "halo width")
    return HaloDim(lo, hi), i


def _halo_width(t: Tokens, i: int, what: str) -> tuple[int, int]:
    if t.kinds[i] is MINUS:
        raise _fail(t, i, "halo extents must be non-negative")
    return _int(t, i, what)


def _parse_kernel_stmt(t: Tokens, i: int) -> tuple[Stmt, int]:
    name, j = _take(t, i, IDENT, "assignment target")
    if t.kinds[j] is LPAREN:
        offsets, j = _offsets(t, j)
        lhs: Expr = OffsetRef(t.pos(i), name, offsets)
    else:
        lhs = Ident(t.pos(i), name)
    rhs, _, j = _expr(t, _expect(t, j, ASSIGN, "'='"), True, 0)
    return Assign(lhs.pos, lhs, rhs), j


def _offsets(t: Tokens, i: int) -> tuple[tuple[int, ...], int]:
    """Signed integer literals separated by commas, in parentheses."""
    offsets, i = _list(t, i, _offset, bracket=_PARENS)
    return tuple(offsets), i


def _offset(t: Tokens, i: int) -> tuple[int, int]:
    sign = t.kinds[i]
    if sign is not MINUS and sign is not PLUS:
        return _int(t, i, "integer offset")
    value, i = _int(t, i + 1, "integer offset")
    return (-value if sign is MINUS else value), i


# ---------------------------------------------------------------------------
# Expressions (shared by kernel and host contexts).  Each returns the
# tree, its depth in levels (see MAX_EXPR_DEPTH) and the cursor after it;
# ``depth`` is the number of levels above it in the enclosing expression.


def _too_deep(t: Tokens, i: int) -> ParseError:
    return ParseError(error(
        PARSE_ERROR, t.pos(i),
        f"expression nested deeper than {MAX_EXPR_DEPTH} levels"))


def _expr(t: Tokens, i: int, kernel: bool, depth: int, min_prec: int = 1):
    """Operands joined by binary operators of precedence ``min_prec`` or
    higher ('+' and '-' 1, '*' and '/' 2), grouped to the left."""
    left, height, i = _operand(t, i, kernel, depth)
    kinds = t.kinds
    while True:
        kind = kinds[i]
        if kind is STAR or kind is SLASH:   # nothing binds tighter
            right, h, j = _operand(t, i + 1, kernel, depth + 1)
        elif (kind is PLUS or kind is MINUS) and min_prec == 1:
            right, h, j = _expr(t, i + 1, kernel, depth + 1, 2)
        else:
            return left, height, i
        height = max(height, h) + 1
        if depth + height > MAX_EXPR_DEPTH:
            raise _too_deep(t, i)
        left = Bin(left.pos, t.texts[i], left, right)
        i = j


def _operand(t: Tokens, i: int, kernel: bool, depth: int):
    """A signed operand, literal, parenthesized expression, name,
    reference or call."""
    if depth >= MAX_EXPR_DEPTH:
        raise _too_deep(t, i)
    kind = t.kinds[i]
    if kind is IDENT:
        name = t.texts[i]
        if t.kinds[i + 1] is not LPAREN:
            return Ident(t.pos(i), name), 1, i + 1
        if not kernel and name not in INTRINSICS:
            return _section(t, i, True, depth)
        if kernel and name not in KERNEL_INTRINSICS:
            # Intrinsic names always denote calls; others prefer the
            # literal-offset form and fall back to a call, so the semantic
            # checker can reject unknown functions with the purity code.
            try:
                offsets, j = _offsets(t, i + 1)
                return OffsetRef(t.pos(i), name, offsets), 1, j
            except ParseError:
                pass
        args, height, j = _exprs(t, i + 1, kernel, depth, _PARENS, True)
        return Call(t.pos(i), name, args), height, j
    if kind is INT:
        value, j = _int(t, i, "integer")
        return IntLit(t.pos(i), value), 1, j
    if kind is REAL:
        value = real_value(t.texts[i])
        if math.isinf(value):
            raise _fail(t, i, "expected a finite real literal")
        return RealLit(t.pos(i), value), 1, i + 1
    if kind is LPAREN:
        inner, h, j = _expr(t, i + 1, kernel, depth + 1)
        return inner, h + 1, _expect(t, j, RPAREN, "')'")
    if kind is MINUS or kind is PLUS:
        inner, h, j = _operand(t, i + 1, kernel, depth + 1)
        return (Neg(t.pos(i), inner) if kind is MINUS else inner), h + 1, j
    raise _fail(t, i, "expected an expression")


def _exprs(t: Tokens, i: int, kernel: bool, depth: int, bracket: tuple,
           empty: bool = False, item=_expr):
    """Bracketed, comma-separated ``item``s one level below ``depth``;
    returns them, the depth of the construct holding them, the cursor."""
    kinds = t.kinds
    opening, opened, close, closed = bracket
    i = _expect(t, i, opening, opened)
    items = []
    height = 1
    if not (empty and kinds[i] is close):
        while True:
            x, h, i = item(t, i, kernel, depth + 1)
            items.append(x)
            height = max(height, h + 1)
            if kinds[i] is not COMMA:
                break
            i += 1
    return items, height, _expect(t, i, close, closed)


def _subscript(t: Tokens, i: int, kernel: bool, depth: int):
    """A section subscript: an expression or ':'."""
    if t.kinds[i] is COLON:
        return FullRange(t.pos(i)), 1, i + 1
    return _expr(t, i, kernel, depth)


def _section(t: Tokens, i: int, allow_cosubs: bool, depth: int):
    subs, height, j = _exprs(t, i + 1, False, depth, _PARENS, item=_subscript)
    cosubs = None
    if t.kinds[j] is LBRACK:
        if not allow_cosubs:
            raise _fail(t, j, "coindexed reference not allowed here")
        cosubs, h, j = _exprs(t, j, False, depth, _BRACKS)
        height = max(height, h)
    return SectionRef(t.pos(i), t.texts[i], subs, cosubs), height, j


# ---------------------------------------------------------------------------
# Host statements


def _parse_host_stmt(t: Tokens, i: int) -> tuple[Stmt, int]:
    if t.kinds[i] is IDENT:
        return _parse_host_assignment(t, i)
    word = t.texts[i] if t.kinds[i] is KW else None
    if word == "allocate":
        return _parse_allocate(t, i)
    if word == "deallocate":
        name, j = _take(t, _expect(t, i + 1, LPAREN, "'('"), IDENT,
                        "entity name")
        return Deallocate(t.pos(i), name), _expect(t, j, RPAREN, "')'")
    if word == "do":
        if _at_kw(t, i + 1, "concurrent"):
            return _parse_do_concurrent(t, i)
        return _parse_do_counted(t, i)
    if word == "call":
        return _parse_call(t, i)
    if word == "if":
        return _parse_if(t, i)
    raise _fail(t, i, "expected a statement")


def _parse_allocate(t: Tokens, i: int) -> tuple[Allocate, int]:
    j = _expect(t, i + 1, LPAREN, "'('")
    entity, j = _take(t, j, IDENT, "entity name")
    bounds, cobounds = [], []
    if t.kinds[j] is LPAREN:
        bounds, j = _list(t, j, _parse_alloc_bound, bracket=_PARENS)
    if t.kinds[j] is LBRACK:
        cobounds, j = _list(t, j, _parse_cobound, bracket=_BRACKS)
    halo_src = target = None
    if t.kinds[j] is COMMA:
        j = _expect(t, _expect_kw(t, j + 1, "halo_src"), ASSIGN, "'='")
        halo_src, j = _take(t, j, IDENT, "source array name")
    j = _expect(t, j, RPAREN, "')'")
    if t.kinds[j] is TokenKind.DLBRACK:
        target, j = _take(t, j + 1, IDENT, "execution-target variable")
        j = _expect(t, j, TokenKind.DRBRACK, "']]'")
    return Allocate(t.pos(i), entity, bounds, cobounds, halo_src, target), j


def _parse_alloc_bound(t: Tokens, i: int) -> tuple[tuple[Expr, Expr], int]:
    first, _, i = _expr(t, i, False, 0)
    if t.kinds[i] is COLON:
        last, _, i = _expr(t, i + 1, False, 0)
        return (first, last), i
    return (IntLit(first.pos, 1), first), i


def _parse_cobound(t: Tokens, i: int):
    if t.kinds[i] is STAR:
        return "*", i + 1
    bound, _, i = _expr(t, i, False, 0)
    return bound, i


def _parse_do_counted(t: Tokens, i: int) -> tuple[DoCounted, int]:
    var, j = _take(t, i + 1, IDENT, "loop variable")
    lo, _, j = _expr(t, _expect(t, j, ASSIGN, "'='"), False, 0)
    hi, _, j = _expr(t, _expect(t, j, COMMA, "','"), False, 0)
    body, j = _body(t, _end_stmt(t, j), _parse_host_stmt, "do")
    return DoCounted(t.pos(i), var, lo, hi, body), j


def _parse_do_concurrent(t: Tokens, i: int) -> tuple[DoConcurrent, int]:
    ranges, j = _list(t, i + 2, _parse_conc_range, bracket=_PARENS)
    j = _expect(t, j, TokenKind.DLBRACK, "'[[' execution target")
    target, j = _take(t, j, IDENT, "execution-target variable")
    call = _end_stmt(t, _expect(t, j, TokenKind.DRBRACK, "']]'"))
    name, j = _take(t, _expect_kw(t, call, "call"), IDENT, "kernel name")
    args, j = _list(t, j, _parse_launch_arg, bracket=_PARENS, empty=True)
    j = _expect_kw(t, _expect_kw(t, _end_stmt(t, j), "end"), "do")
    return DoConcurrent(t.pos(i), ranges, target,
                        KernelCall(t.pos(call), name, args)), j


def _parse_conc_range(t: Tokens, i: int) -> tuple[ConcRange, int]:
    var, j = _take(t, i, IDENT, "index variable")
    lo, _, j = _expr(t, _expect(t, j, ASSIGN, "'='"), False, 0)
    hi, _, j = _expr(t, _expect(t, j, COLON, "':'"), False, 0)
    return ConcRange(t.pos(i), var, lo, hi), j


def _parse_launch_arg(t: Tokens, i: int):
    if t.kinds[i] is IDENT and t.kinds[i + 1] is LPAREN:
        try:
            return _parse_element_arg(t, i)
        except ParseError:
            pass
    arg, _, i = _expr(t, i, False, 0)
    return arg, i


def _parse_element_arg(t: Tokens, i: int) -> tuple[ElementArg, int]:
    indices, j = _list(t, i + 1, _take, IDENT, "index variable",
                       bracket=_PARENS)
    device = None
    if t.kinds[j] is LBRACK:
        device, j = _take(t, j + 1, IDENT, "device variable")
        j = _expect(t, j, RBRACK, "']'")
    return ElementArg(t.pos(i), t.texts[i], indices, device), j


def _parse_call(t: Tokens, i: int) -> tuple[Stmt, int]:
    if not _at_kw(t, i + 1, "halo_transfer"):
        raise _fail(t, i + 1,
                    "kernel calls may appear only inside 'do concurrent'")
    array, j = _take(t, _expect(t, i + 2, LPAREN, "'('"), IDENT, "array name")
    j = _expect_kw(t, _expect(t, j, COMMA, "','"), "bc")
    j = _expect_kw(t, _expect(t, j, ASSIGN, "'='"), "cyclic")
    return HaloTransfer(t.pos(i), array, "cyclic"), _expect(t, j, RPAREN, "')'")


def _parse_if(t: Tokens, i: int) -> tuple[If, int]:
    left, _, op = _expr(t, _expect(t, i + 1, LPAREN, "'('"), False, 1)
    if t.kinds[op] not in _COMPARISONS:
        raise _fail(t, op, "expected a comparison operator")
    right, _, j = _expr(t, op + 1, False, 1)
    j = _expect_kw(t, _expect(t, j, RPAREN, "')'"), "then")
    body, j = _body(t, _end_stmt(t, j), _parse_host_stmt, "if")
    return If(t.pos(i), Cmp(left.pos, t.texts[op], left, right), body), j


def _parse_host_assignment(t: Tokens, i: int) -> tuple[Stmt, int]:
    name = t.texts[i]
    pos = t.pos(i)
    kind = t.kinds[i + 1]
    if kind is LBRACK:
        # U[dev] = U : host-to-device mirror push
        device, j = _take(t, i + 2, IDENT, "device variable")
        j = _expect(t, _expect(t, j, RBRACK, "']'"), ASSIGN, "'='")
        j = _mirror_source(t, j, name)
        return MirrorAssign(pos, "host_to_device", name, device), j
    if kind is LPAREN:
        lhs, _, j = _section(t, i, False, 0)
        rhs, _, j = _expr(t, _expect(t, j, ASSIGN, "'='"), False, 0)
        return Assign(pos, lhs, rhs), j
    j = _expect(t, i + 1, ASSIGN, "'='")
    if _at_kw(t, j, "get_subimage"):
        image, j = _int(t, _expect(t, j + 1, LPAREN, "'('"), "image number")
        return AssignSubimage(pos, name, image), _expect(t, j, RPAREN, "')'")
    if t.kinds[j] is IDENT and t.kinds[j + 1] is LBRACK:
        # U = U[dev] : device-to-host mirror pull
        j = _mirror_source(t, j, name)
        device, j = _take(t, j + 1, IDENT, "device variable")
        return (MirrorAssign(pos, "device_to_host", name, device),
                _expect(t, j, RBRACK, "']'"))
    rhs, _, j = _expr(t, j, False, 0)
    return Assign(pos, Ident(pos, name), rhs), j


def _mirror_source(t: Tokens, i: int, name: str) -> int:
    """Past the array named on the other side of a mirror assignment."""
    src, j = _take(t, i, IDENT, "array name")
    if src != name:
        raise _fail(t, i, "mirror assignment must name the same array on "
                          "both sides")
    return j
