"""Tokenizer for ``.lope`` source.

Fortran-flavoured lexical rules:

* keywords and identifiers are case-insensitive and normalized to lowercase;
* ``!`` starts a comment running to end of line;
* a trailing ``&`` continues the logical line onto the next physical line
  (an optional leading ``&`` on the continued line is consumed as well);
* physical line ends otherwise produce NEWLINE tokens, which terminate
  statements.

Tokens carry their 1-based source position.  Unknown characters raise
``LexError`` (code E001) at the offending position; the lexer never returns
a partial stream.
"""

from __future__ import annotations

import re
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

    def is_kw(self, word: str) -> bool:
        return self.kind is TokenKind.KW and self.text == word

    def __repr__(self) -> str:  # compact, for test failure readability
        return f"{self.kind.name}({self.text!r}@{self.pos.line}:{self.pos.col})"


# Every group but real and int starts with its own set of characters, so
# the groups are tried most frequent first; within a group the longest
# alternative comes first, so maximal munch wins ([[ before [, == before =),
# and reals come before ints.  ``cont`` is a whole trailing continuation:
# the '&', blanks, an optional comment, the line break, leading blanks on
# the next line and an optional leading '&'.  A lone '&' and any character
# no other group takes are errors.
_TOKEN_RE = re.compile(r"""
    (?P<punct>\[\[|\]\]|::|==|/=|[()\[\],:+\-*/=<>])
  | (?P<skip>[ \t\r]+|![^\n]*)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<real>(?:\d+\.\d*|\.\d+)(?:[eEdD][+-]?\d+)?|\d+[eEdD][+-]?\d+)
  | (?P<int>\d+)
  | (?P<newline>\n)
  | (?P<cont>&[ \t\r]*(?:![^\n]*)?\n[ \t\r]*&?)
  | (?P<amp>&)
  | (?P<string>"[^"\n]*")
  | (?P<bad>.)
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


def tokenize(text: str, filename: str = "<input>") -> list[Token]:
    """Convert source text into a token list ending in a single EOF token."""
    tokens: list[Token] = []
    append = tokens.append
    new = tuple.__new__          # skips the NamedTuple constructors
    KW, IDENT, INT = TokenKind.KW, TokenKind.IDENT, TokenKind.INT
    line = 1
    line_start = 0
    for m in _TOKEN_RE.finditer(text):
        group = m.lastgroup
        if group == "skip":
            continue
        lexeme = m.group()
        pos = new(SourcePos, (filename, line, m.start() - line_start + 1))
        if group == "punct":
            append(new(Token, (_PUNCT[lexeme], lexeme, pos)))
        elif group == "ident":
            word = lexeme.lower()
            append(new(Token, (KW if word in KEYWORDS else IDENT, word, pos)))
        elif group == "int":
            append(new(Token, (INT, lexeme, pos)))
        elif group == "real":
            append(new(Token, (TokenKind.REAL, lexeme, pos)))
        elif group == "newline":
            append(new(Token, (TokenKind.NEWLINE, lexeme, pos)))
            line += 1
            line_start = m.end()
        elif group == "cont":    # joins the lines: no NEWLINE token
            line += 1
            line_start = text.index("\n", m.start()) + 1
        elif group == "string":
            append(new(Token, (TokenKind.STRING, lexeme[1:-1], pos)))
        elif group == "amp":
            raise LexError(error(
                LEX_ERROR, pos, "line continuation '&' not at end of line"))
        else:
            raise LexError(error(
                LEX_ERROR, pos, f"illegal character {lexeme!r}"))
    append(Token(TokenKind.EOF, "",
                 SourcePos(filename, line, len(text) - line_start + 1)))
    return tokens


def real_value(text: str) -> float:
    """Numeric value of a REAL token (Fortran 'd' exponents accepted)."""
    return float(text.replace("d", "e").replace("D", "e"))
