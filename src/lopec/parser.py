"""Recursive-descent parser producing the AST.

One pass over the token stream, aborting on the first syntax error with a
positioned ``ParseError`` (code E002).  ``parse_source`` is the convenience
entry point that tokenizes and parses, returning ``(program, diagnostics)``
instead of raising.

Context matters for array references: inside kernels a parenthesized
reference must use signed integer literal offsets (``U(-1,0)``), while host
code uses sections with index expressions or ``:`` and optional cosubscripts
(``U(1,:)[pcol+1,prow]``).  Calls to the intrinsic functions are recognized
by name; any other parenthesized reference that does not fit the offset form
is kept as a Call node for the semantic checker to reject with a precise
code.
"""

from __future__ import annotations

from .ast import (Allocate, Assign, AssignSubimage, Bin, Call, Cmp, ConcRange,
                  DeclAttrs, Deallocate, DoConcurrent, DoCounted, ElementArg,
                  Expr, FullRange, HaloDim, HaloSpec, HaloTransfer, Ident, If,
                  IntLit, KernelCall, KernelDef, MirrorAssign, Neg, OffsetRef,
                  Program, RealLit, SectionRef, Stmt, TypeDecl)
from .diagnostics import PARSE_ERROR, LexError, ParseError, error
from .lexer import Token, TokenKind, real_value, tokenize

# Functions callable in host expressions; kernels restrict further (checked
# semantically so the error code can be precise).
INTRINSICS = frozenset({"this_image", "abs", "min", "max", "sqrt"})
KERNEL_INTRINSICS = frozenset({"abs", "min", "max", "sqrt"})

_BASE_TYPES = ("real", "integer", "logical")
# (opening, what it is expected as, closing, what it is expected as)
_PARENS = (TokenKind.LPAREN, "'('", TokenKind.RPAREN, "')'")
_BRACKS = (TokenKind.LBRACK, "'['", TokenKind.RBRACK, "']'")


class _Stream:
    def __init__(self, tokens: list[Token]):
        # ``next`` never moves past the first EOF, so with two more EOFs
        # ``peek`` looks up to two tokens ahead without clamping
        self.toks = tokens + tokens[-1:] * 2
        self.i = 0

    def peek(self, ahead: int = 0) -> Token:
        return self.toks[self.i + ahead]

    def next(self) -> Token:
        t = self.toks[self.i]
        if t.kind is not TokenKind.EOF:
            self.i += 1
        return t

    def at(self, kind: TokenKind) -> bool:
        return self.toks[self.i].kind is kind

    def at_kw(self, word: str) -> bool:
        return self.toks[self.i].is_kw(word)

    def fail(self, message: str, tok: Token | None = None) -> ParseError:
        t = tok or self.peek()
        shown = "end of input" if t.kind is TokenKind.EOF else repr(t.text)
        return ParseError(error(PARSE_ERROR, t.pos, f"{message}, found {shown}"))

    def expect(self, kind: TokenKind, what: str) -> Token:
        if not self.at(kind):
            raise self.fail(f"expected {what}")
        return self.next()

    def expect_kw(self, word: str) -> Token:
        if not self.at_kw(word):
            raise self.fail(f"expected '{word}'")
        return self.next()

    def accept(self, kind: TokenKind) -> Token | None:
        if self.at(kind):
            return self.next()
        return None

    def skip_newlines(self) -> None:
        while self.at(TokenKind.NEWLINE):
            self.next()

    def end_stmt(self) -> None:
        if self.at(TokenKind.EOF):
            return
        self.expect(TokenKind.NEWLINE, "end of statement")
        self.skip_newlines()

    def list(self, item, *args, bracket: tuple | None = None,
             empty: bool = False) -> list:
        """``item(self, *args)`` separated by commas, between ``bracket``
        (``_PARENS`` or ``_BRACKS``) when given; ``empty`` allows ``()``.
        Items are module-level parsers: a closure built per call costs
        measurable parse time."""
        toks = self.toks
        if bracket is not None:
            opening, opened, close, closed = bracket
            self.expect(opening, opened)
            if empty and toks[self.i].kind is close:
                self.i += 1
                return []
        items = [item(self, *args)]
        while toks[self.i].kind is TokenKind.COMMA:
            self.i += 1
            items.append(item(self, *args))
        if bracket is not None:
            self.expect(close, closed)
        return items

    def body(self, stmt, closing: str) -> list[Stmt]:
        """Statements parsed by ``stmt(self)`` up to ``end <closing>``."""
        stmts = []
        while not self.at_kw("end"):
            stmts.append(stmt(self))
            self.end_stmt()
        self.expect_kw("end")
        self.expect_kw(closing)
        return stmts


def _name(ts: _Stream, what: str) -> str:
    return ts.expect(TokenKind.IDENT, what).text


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


def parse(tokens: list[Token]) -> Program:
    """Parse a full translation unit: kernel definitions, then the main program."""
    ts = _Stream(tokens)
    ts.skip_newlines()
    kernels: list[KernelDef] = []
    first = ts.peek()
    while ts.at_kw("pure") or ts.at_kw("subroutine"):
        kernels.append(_parse_kernel(ts))
        ts.skip_newlines()
    if not ts.at_kw("program"):
        raise ts.fail("expected 'program' or a kernel definition")
    decls, body, prog_pos = _parse_main(ts)
    ts.skip_newlines()
    if not ts.at(TokenKind.EOF):
        raise ts.fail("expected end of file after the main program")
    return Program(first.pos if kernels else prog_pos, kernels, decls, body)


# ---------------------------------------------------------------------------
# Program units


def _parse_kernel(ts: _Stream) -> KernelDef:
    start = ts.peek()
    ts.expect_kw("pure")
    ts.expect_kw("concurrent")
    ts.expect_kw("subroutine")
    name = ts.expect(TokenKind.IDENT, "kernel name").text
    params = ts.list(_name, "parameter name", bracket=_PARENS)
    ts.end_stmt()
    decls = _parse_decl_block(ts)
    body = ts.body(_parse_kernel_stmt, "subroutine")
    if ts.at(TokenKind.IDENT):
        endname = ts.next()
        if endname.text != name:
            raise ts.fail(f"mismatched kernel name (expected {name!r})", endname)
    ts.end_stmt()
    return KernelDef(start.pos, name, params, decls, body)


def _parse_main(ts: _Stream):
    start = ts.expect_kw("program")
    ts.expect(TokenKind.IDENT, "program name")
    ts.end_stmt()
    decls = _parse_decl_block(ts)
    body = ts.body(_parse_host_stmt, "program")
    if ts.at(TokenKind.IDENT):
        ts.next()
    return decls, body, start.pos


# ---------------------------------------------------------------------------
# Declarations


def _parse_decl_block(ts: _Stream) -> list[TypeDecl]:
    decls = []
    while any(ts.at_kw(b) for b in _BASE_TYPES):
        decls.append(_parse_declaration(ts))
        ts.end_stmt()
    return decls


def _parse_declaration(ts: _Stream) -> TypeDecl:
    base_tok = ts.next()
    attrs = DeclAttrs()
    while ts.accept(TokenKind.COMMA):
        _parse_attr(ts, attrs)
    ts.expect(TokenKind.DCOLON, "'::'")
    names = ts.list(_name, "entity name")
    return TypeDecl(base_tok.pos, base_tok.text, attrs, names)


def _parse_attr(ts: _Stream, attrs: DeclAttrs) -> None:
    tok = ts.peek()
    if tok.is_kw("allocatable"):
        ts.next()
        attrs.allocatable = True
    elif tok.is_kw("pure"):
        ts.next()
        attrs.pure = True
    elif tok.is_kw("concurrent"):
        ts.next()
        attrs.concurrent = True
    elif tok.is_kw("dimension"):
        ts.next()
        attrs.dim_count = _deferred_count(ts, _PARENS, "shape")
    elif tok.is_kw("codimension"):
        ts.next()
        attrs.corank = _deferred_count(ts, _BRACKS, "coshape")
    elif tok.is_kw("halo"):
        ts.next()
        attrs.halo = HaloSpec(tuple(
            ts.list(_parse_halo_dim, bracket=_PARENS)))
    else:
        raise ts.fail("expected a declaration attribute")


def _deferred_count(ts: _Stream, bracket: tuple, what: str) -> int:
    """Length of a bracketed ``:,...`` list: ``dimension(:,:)`` and
    ``codimension[:,:]``."""
    return len(ts.list(_Stream.expect, TokenKind.COLON,
                       f"':' (deferred {what})", bracket=bracket))


def _parse_halo_dim(ts: _Stream) -> HaloDim:
    if ts.accept(TokenKind.COLON):
        return HaloDim(None, None)
    if ts.at(TokenKind.MINUS):
        raise ts.fail("halo extents must be non-negative")
    lo = int(ts.expect(TokenKind.INT, "halo width or ':'").text)
    ts.expect(TokenKind.COLON, "':'")
    ts.expect(TokenKind.STAR, "'*' (interior placeholder)")
    ts.expect(TokenKind.COLON, "':'")
    if ts.at(TokenKind.MINUS):
        raise ts.fail("halo extents must be non-negative")
    hi = int(ts.expect(TokenKind.INT, "halo width").text)
    return HaloDim(lo, hi)


# ---------------------------------------------------------------------------
# Kernel statements and expressions


def _parse_kernel_stmt(ts: _Stream) -> Stmt:
    name_tok = ts.expect(TokenKind.IDENT, "assignment target")
    if ts.at(TokenKind.LPAREN):
        lhs: Expr = _parse_offset_ref(ts, name_tok)
    else:
        lhs = Ident(name_tok.pos, name_tok.text)
    ts.expect(TokenKind.ASSIGN, "'='")
    rhs = _parse_expr(ts, kernel=True)
    return Assign(name_tok.pos, lhs, rhs)


def _parse_offset_ref(ts: _Stream, name_tok: Token) -> OffsetRef:
    offsets = ts.list(_parse_offset, bracket=_PARENS)
    return OffsetRef(name_tok.pos, name_tok.text, tuple(offsets))


def _parse_offset(ts: _Stream) -> int:
    sign = 1
    if ts.accept(TokenKind.MINUS):
        sign = -1
    elif ts.accept(TokenKind.PLUS):
        sign = 1
    tok = ts.expect(TokenKind.INT, "integer offset")
    return sign * int(tok.text)


# ---------------------------------------------------------------------------
# Expressions (shared by kernel and host contexts)


def _parse_expr(ts: _Stream, kernel: bool) -> Expr:
    left = _parse_term(ts, kernel)
    while ts.at(TokenKind.PLUS) or ts.at(TokenKind.MINUS):
        op_tok = ts.next()
        right = _parse_term(ts, kernel)
        left = Bin(left.pos, op_tok.text, left, right)
    return left


def _parse_term(ts: _Stream, kernel: bool) -> Expr:
    left = _parse_factor(ts, kernel)
    while ts.at(TokenKind.STAR) or ts.at(TokenKind.SLASH):
        op_tok = ts.next()
        right = _parse_factor(ts, kernel)
        left = Bin(left.pos, op_tok.text, left, right)
    return left


def _parse_factor(ts: _Stream, kernel: bool) -> Expr:
    if ts.at(TokenKind.MINUS):
        tok = ts.next()
        return Neg(tok.pos, _parse_factor(ts, kernel))
    if ts.at(TokenKind.PLUS):
        ts.next()
        return _parse_factor(ts, kernel)
    return _parse_primary(ts, kernel)


def _parse_primary(ts: _Stream, kernel: bool) -> Expr:
    tok = ts.peek()
    if tok.kind is TokenKind.INT:
        ts.next()
        return IntLit(tok.pos, int(tok.text))
    if tok.kind is TokenKind.REAL:
        ts.next()
        return RealLit(tok.pos, real_value(tok.text))
    if tok.kind is TokenKind.LPAREN:
        ts.next()
        inner = _parse_expr(ts, kernel)
        ts.expect(TokenKind.RPAREN, "')'")
        return inner
    if tok.kind is TokenKind.IDENT:
        ts.next()
        if not ts.at(TokenKind.LPAREN):
            return Ident(tok.pos, tok.text)
        if kernel:
            return _parse_kernel_ref(ts, tok)
        return _parse_host_ref(ts, tok)
    raise ts.fail("expected an expression")


def _parse_kernel_ref(ts: _Stream, name_tok: Token) -> Expr:
    # Intrinsic names always denote calls.  Otherwise prefer the
    # literal-offset form and fall back to a call so the semantic checker
    # can reject unknown functions with the kernel-purity code.
    mark = ts.i
    if name_tok.text not in KERNEL_INTRINSICS:
        try:
            return _parse_offset_ref(ts, name_tok)
        except ParseError:
            ts.i = mark
    return _parse_function_call(ts, name_tok, True)


def _parse_host_ref(ts: _Stream, name_tok: Token) -> Expr:
    if name_tok.text in INTRINSICS:
        return _parse_function_call(ts, name_tok, False)
    return _parse_section(ts, name_tok, allow_cosubs=True)


def _parse_function_call(ts: _Stream, name_tok: Token, kernel: bool) -> Call:
    args = ts.list(_parse_expr, kernel, bracket=_PARENS, empty=True)
    return Call(name_tok.pos, name_tok.text, args)


def _parse_section(ts: _Stream, name_tok: Token, allow_cosubs: bool) -> SectionRef:
    subs = ts.list(_parse_section_sub, bracket=_PARENS)
    cosubs = None
    if ts.at(TokenKind.LBRACK):
        if not allow_cosubs:
            raise ts.fail("coindexed reference not allowed here")
        cosubs = ts.list(_parse_expr, False, bracket=_BRACKS)
    return SectionRef(name_tok.pos, name_tok.text, subs, cosubs)


def _parse_section_sub(ts: _Stream) -> Expr:
    if ts.at(TokenKind.COLON):
        tok = ts.next()
        return FullRange(tok.pos)
    return _parse_expr(ts, kernel=False)


def _parse_cond(ts: _Stream) -> Cmp:
    left = _parse_expr(ts, kernel=False)
    tok = ts.peek()
    if tok.kind in (TokenKind.EQ, TokenKind.NE, TokenKind.LT, TokenKind.GT):
        ts.next()
        right = _parse_expr(ts, kernel=False)
        return Cmp(left.pos, tok.text, left, right)
    raise ts.fail("expected a comparison operator")


# ---------------------------------------------------------------------------
# Host statements


def _parse_host_stmt(ts: _Stream) -> Stmt:
    tok = ts.peek()
    if tok.is_kw("allocate"):
        return _parse_allocate(ts)
    if tok.is_kw("deallocate"):
        ts.next()
        ts.expect(TokenKind.LPAREN, "'('")
        name = ts.expect(TokenKind.IDENT, "entity name").text
        ts.expect(TokenKind.RPAREN, "')'")
        return Deallocate(tok.pos, name)
    if tok.is_kw("do"):
        if ts.peek(1).is_kw("concurrent"):
            return _parse_do_concurrent(ts)
        return _parse_do_counted(ts)
    if tok.is_kw("call"):
        return _parse_call(ts)
    if tok.is_kw("if"):
        return _parse_if(ts)
    if tok.kind is TokenKind.IDENT:
        return _parse_host_assignment(ts)
    raise ts.fail("expected a statement")


def _parse_allocate(ts: _Stream) -> Allocate:
    start = ts.expect_kw("allocate")
    ts.expect(TokenKind.LPAREN, "'('")
    entity = ts.expect(TokenKind.IDENT, "entity name").text
    bounds = (ts.list(_parse_alloc_bound, bracket=_PARENS)
              if ts.at(TokenKind.LPAREN) else [])
    cobounds = (ts.list(_parse_cobound, bracket=_BRACKS)
                if ts.at(TokenKind.LBRACK) else [])
    halo_src = None
    if ts.accept(TokenKind.COMMA):
        ts.expect_kw("halo_src")
        ts.expect(TokenKind.ASSIGN, "'='")
        halo_src = ts.expect(TokenKind.IDENT, "source array name").text
    ts.expect(TokenKind.RPAREN, "')'")
    target = None
    if ts.at(TokenKind.DLBRACK):
        ts.next()
        target = ts.expect(TokenKind.IDENT, "execution-target variable").text
        ts.expect(TokenKind.DRBRACK, "']]'")
    return Allocate(start.pos, entity, bounds, cobounds, halo_src, target)


def _parse_alloc_bound(ts: _Stream) -> tuple[Expr, Expr]:
    first = _parse_expr(ts, kernel=False)
    if ts.accept(TokenKind.COLON):
        return (first, _parse_expr(ts, kernel=False))
    return (IntLit(first.pos, 1), first)


def _parse_cobound(ts: _Stream):
    if ts.at(TokenKind.STAR):
        ts.next()
        return "*"
    return _parse_expr(ts, kernel=False)


def _parse_do_counted(ts: _Stream) -> DoCounted:
    start = ts.expect_kw("do")
    var = ts.expect(TokenKind.IDENT, "loop variable").text
    ts.expect(TokenKind.ASSIGN, "'='")
    lo = _parse_expr(ts, kernel=False)
    ts.expect(TokenKind.COMMA, "','")
    hi = _parse_expr(ts, kernel=False)
    ts.end_stmt()
    body = ts.body(_parse_host_stmt, "do")
    return DoCounted(start.pos, var, lo, hi, body)


def _parse_do_concurrent(ts: _Stream) -> DoConcurrent:
    start = ts.expect_kw("do")
    ts.expect_kw("concurrent")
    ranges = ts.list(_parse_conc_range, bracket=_PARENS)
    ts.expect(TokenKind.DLBRACK, "'[[' execution target")
    target = ts.expect(TokenKind.IDENT, "execution-target variable").text
    ts.expect(TokenKind.DRBRACK, "']]'")
    ts.end_stmt()
    call_tok = ts.expect_kw("call")
    name = ts.expect(TokenKind.IDENT, "kernel name").text
    args = ts.list(_parse_launch_arg, bracket=_PARENS, empty=True)
    call = KernelCall(call_tok.pos, name, args)
    ts.end_stmt()
    ts.expect_kw("end")
    ts.expect_kw("do")
    return DoConcurrent(start.pos, ranges, target, call)


def _parse_conc_range(ts: _Stream) -> ConcRange:
    var_tok = ts.expect(TokenKind.IDENT, "index variable")
    ts.expect(TokenKind.ASSIGN, "'='")
    lo = _parse_expr(ts, kernel=False)
    ts.expect(TokenKind.COLON, "':'")
    hi = _parse_expr(ts, kernel=False)
    return ConcRange(var_tok.pos, var_tok.text, lo, hi)


def _parse_launch_arg(ts: _Stream):
    tok = ts.peek()
    if tok.kind is TokenKind.IDENT and ts.peek(1).kind is TokenKind.LPAREN:
        mark = ts.i
        try:
            return _parse_element_arg(ts)
        except ParseError:
            ts.i = mark
    return _parse_expr(ts, kernel=False)


def _parse_element_arg(ts: _Stream) -> ElementArg:
    name_tok = ts.expect(TokenKind.IDENT, "array name")
    indices = ts.list(_name, "index variable", bracket=_PARENS)
    device = None
    if ts.accept(TokenKind.LBRACK):
        device = ts.expect(TokenKind.IDENT, "device variable").text
        ts.expect(TokenKind.RBRACK, "']'")
    return ElementArg(name_tok.pos, name_tok.text, indices, device)


def _parse_call(ts: _Stream) -> Stmt:
    start = ts.expect_kw("call")
    if ts.at_kw("halo_transfer"):
        ts.next()
        ts.expect(TokenKind.LPAREN, "'('")
        array = ts.expect(TokenKind.IDENT, "array name").text
        ts.expect(TokenKind.COMMA, "','")
        ts.expect_kw("bc")
        ts.expect(TokenKind.ASSIGN, "'='")
        ts.expect_kw("cyclic")
        ts.expect(TokenKind.RPAREN, "')'")
        return HaloTransfer(start.pos, array, "cyclic")
    raise ts.fail("kernel calls may appear only inside 'do concurrent'")


def _parse_if(ts: _Stream) -> If:
    start = ts.expect_kw("if")
    ts.expect(TokenKind.LPAREN, "'('")
    cond = _parse_cond(ts)
    ts.expect(TokenKind.RPAREN, "')'")
    ts.expect_kw("then")
    ts.end_stmt()
    body = ts.body(_parse_host_stmt, "if")
    return If(start.pos, cond, body)


def _parse_host_assignment(ts: _Stream) -> Stmt:
    name_tok = ts.expect(TokenKind.IDENT, "assignment target")
    if ts.at(TokenKind.LBRACK):
        # U[dev] = U : host-to-device mirror push
        ts.next()
        device = ts.expect(TokenKind.IDENT, "device variable").text
        ts.expect(TokenKind.RBRACK, "']'")
        ts.expect(TokenKind.ASSIGN, "'='")
        src_tok = ts.expect(TokenKind.IDENT, "array name")
        if src_tok.text != name_tok.text:
            raise ts.fail("mirror assignment must name the same array on both "
                          "sides", src_tok)
        return MirrorAssign(name_tok.pos, "host_to_device",
                            name_tok.text, device)
    if ts.at(TokenKind.LPAREN):
        lhs = _parse_section(ts, name_tok, allow_cosubs=False)
        ts.expect(TokenKind.ASSIGN, "'='")
        rhs = _parse_expr(ts, kernel=False)
        return Assign(name_tok.pos, lhs, rhs)
    ts.expect(TokenKind.ASSIGN, "'='")
    if ts.at_kw("get_subimage"):
        ts.next()
        ts.expect(TokenKind.LPAREN, "'('")
        image = int(ts.expect(TokenKind.INT, "image number").text)
        ts.expect(TokenKind.RPAREN, "')'")
        return AssignSubimage(name_tok.pos, name_tok.text, image)
    if (ts.peek().kind is TokenKind.IDENT
            and ts.peek(1).kind is TokenKind.LBRACK):
        # U = U[dev] : device-to-host mirror pull
        src_tok = ts.next()
        if src_tok.text != name_tok.text:
            raise ts.fail("mirror assignment must name the same array on both "
                          "sides", src_tok)
        ts.expect(TokenKind.LBRACK, "'['")
        device = ts.expect(TokenKind.IDENT, "device variable").text
        ts.expect(TokenKind.RBRACK, "']'")
        return MirrorAssign(name_tok.pos, "device_to_host",
                            name_tok.text, device)
    rhs = _parse_expr(ts, kernel=False)
    return Assign(name_tok.pos, Ident(name_tok.pos, name_tok.text), rhs)
