"""Tokenizer for ``.lope`` source.

Fortran-flavoured lexical rules:

* keywords and identifiers are case-insensitive and normalized to lowercase;
* ``!`` starts a comment running to end of line;
* a trailing ``&`` continues the logical line onto the next physical line
  (an optional leading ``&`` on the continued line is consumed as well);
* physical line ends otherwise produce NEWLINE tokens, which terminate
  statements.

``tokenize`` returns ``Tokens``: parallel lists of kinds, texts and 1-based
lines and columns, with no object per token; indexing or iterating it
gives ``Token`` views.  Unknown characters raise ``LexError`` (code E001) at
the offending position; the lexer never returns a partial stream.
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from enum import Enum, auto
from typing import NamedTuple

from .diagnostics import LEX_ERROR, LexError, SourcePos, error


class TokenKind(Enum):
    KW = auto()
    IDENT = auto()
    INT = auto()
    REAL = auto()
    STRING = auto()
    LPAREN = auto()
    RPAREN = auto()
    LBRACK = auto()
    RBRACK = auto()
    DLBRACK = auto()   # [[
    DRBRACK = auto()   # ]]
    COMMA = auto()
    COLON = auto()
    DCOLON = auto()    # ::
    PLUS = auto()
    MINUS = auto()
    STAR = auto()
    SLASH = auto()
    ASSIGN = auto()    # =
    EQ = auto()        # ==
    NE = auto()        # /=
    LT = auto()
    GT = auto()
    NEWLINE = auto()
    EOF = auto()


KEYWORDS = frozenset({
    "program", "end", "subroutine", "pure", "concurrent",
    "real", "integer", "logical",
    "allocatable", "dimension", "codimension",
    "halo", "halo_src", "halo_transfer", "get_subimage",
    "allocate", "deallocate",
    "do", "call", "if", "then", "bc", "cyclic",
})


class Token(NamedTuple):
    kind: TokenKind
    text: str
    pos: SourcePos

    def __repr__(self) -> str:  # compact, for test failure readability
        return f"{self.kind.name}({self.text!r}@{self.pos.line}:{self.pos.col})"


class Tokens(Sequence):
    """A token stream as four parallel lists, one entry per token.

    Strings, small ints and enum members are objects the garbage collector
    never tracks, so a stream costs four tracked lists however long it is;
    a ``Token`` per entry is built only when the stream is indexed or
    iterated.  The parser reads the lists directly."""

    __slots__ = ("filename", "kinds", "texts", "lines", "cols")

    def __init__(self, filename: str):
        self.filename = filename
        self.kinds: list[TokenKind] = []
        self.texts: list[str] = []
        self.lines: list[int] = []
        self.cols: list[int] = []

    def __len__(self) -> int:
        return len(self.kinds)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        return Token(self.kinds[i], self.texts[i], self.pos(i))

    def pos(self, i: int) -> SourcePos:
        # tuple.__new__ skips the NamedTuple constructor
        return tuple.__new__(SourcePos,
                             (self.filename, self.lines[i], self.cols[i]))


# Every token group but real and int starts with its own set of characters,
# so the groups are tried most frequent first; within a group the longest
# alternative comes first, so maximal munch wins ([[ before [, == before =),
# and reals come before ints.  Blanks and a comment before a token are part
# of its match, never backtracked into (after them ``newline``, ``end`` or
# ``bad`` always matches); ``end`` is the empty match at the end of the text.
# ``cont`` is a whole trailing continuation: the '&', blanks, an optional
# comment, the line break, leading blanks on the next line and an optional
# leading '&'.  A lone '&' and any character no other group takes are errors.
_TOKEN_RE = re.compile(r"""
  [ \t\r]*(?:![^\n]*)?
  (?:(?P<punct>\[\[|\]\]|::|==|/=|[()\[\],:+\-*/=<>])
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<real>(?:\d+\.\d*|\.\d+)(?:[eEdD][+-]?\d+)?|\d+[eEdD][+-]?\d+)
  | (?P<int>\d+)
  | (?P<newline>\n)
  | (?P<cont>&[ \t\r]*(?:![^\n]*)?\n[ \t\r]*&?)
  | (?P<amp>&)
  | (?P<string>"[^"\n]*")
  | (?P<end>\Z)
  | (?P<bad>.))
""", re.VERBOSE)

_PUNCT = {
    "[[": TokenKind.DLBRACK, "]]": TokenKind.DRBRACK,
    "::": TokenKind.DCOLON, "==": TokenKind.EQ, "/=": TokenKind.NE,
    "(": TokenKind.LPAREN, ")": TokenKind.RPAREN,
    "[": TokenKind.LBRACK, "]": TokenKind.RBRACK,
    ",": TokenKind.COMMA, ":": TokenKind.COLON,
    "+": TokenKind.PLUS, "-": TokenKind.MINUS,
    "*": TokenKind.STAR, "/": TokenKind.SLASH,
    "=": TokenKind.ASSIGN, "<": TokenKind.LT, ">": TokenKind.GT,
}


def tokenize(text: str, filename: str = "<input>") -> Tokens:
    """Convert source text into a token stream ending in a single EOF token."""
    tokens = Tokens(filename)
    kinds, texts = tokens.kinds.append, tokens.texts.append
    lines, cols = tokens.lines.append, tokens.cols.append
    KW, IDENT, INT = TokenKind.KW, TokenKind.IDENT, TokenKind.INT
    line = 1
    line_start = 0
    for m in _TOKEN_RE.finditer(text):
        group = m.lastgroup
        lexeme = m[group]
        if group == "cont":     # joins the lines: no NEWLINE token
            line += 1
            line_start = text.index("\n", m.end() - len(lexeme)) + 1
            continue
        col = m.end() - len(lexeme) - line_start + 1
        lines(line)
        cols(col)
        if group == "punct":
            kinds(_PUNCT[lexeme])
        elif group == "ident":
            lexeme = lexeme.lower()
            kinds(KW if lexeme in KEYWORDS else IDENT)
        elif group == "int":
            kinds(INT)
        elif group == "newline":
            kinds(TokenKind.NEWLINE)
            line += 1
            line_start = m.end()
        elif group == "real":
            kinds(TokenKind.REAL)
        elif group == "end":    # after blanks, an empty end match follows
            kinds(TokenKind.EOF)
            texts(lexeme)
            break
        elif group == "string":
            kinds(TokenKind.STRING)
            lexeme = lexeme[1:-1]
        else:
            raise LexError(error(LEX_ERROR, SourcePos(filename, line, col), (
                "line continuation '&' not at end of line" if group == "amp"
                else f"illegal character {lexeme!r}")))
        texts(lexeme)
    return tokens


def real_value(text: str) -> float:
    """Numeric value of a REAL token (Fortran 'd' exponents accepted)."""
    return float(text.replace("d", "e").replace("D", "e"))
