"""Scanner behaviour: token kinds, positions, continuations, errors."""

import hashlib
import re

import pytest

from conftest import stream_inputs
from lopec.diagnostics import LexError
from lopec.lexer import _TOKEN_RE, TokenKind, real_value, tokenize


def kinds(text):
    return [t.kind for t in tokenize(text)]


def texts(text):
    return [t.text for t in tokenize(text)]


def test_keywords_and_identifiers_fold_to_lowercase():
    toks = tokenize("PROGRAM Main\nEND Program MAIN\n")
    assert [t.text for t in toks if t.kind is TokenKind.KW] == \
        ["program", "end", "program"]
    assert [t.text for t in toks if t.kind is TokenKind.IDENT] == \
        ["main", "main"]


def test_operator_tokens():
    toks = tokenize("a == b /= c < d > e :: [ ] [[ ]] , : = + - * /")
    ops = [t.kind for t in toks[:-1]]       # drop the EOF token
    assert ops == [
        TokenKind.IDENT, TokenKind.EQ, TokenKind.IDENT, TokenKind.NE,
        TokenKind.IDENT, TokenKind.LT, TokenKind.IDENT, TokenKind.GT,
        TokenKind.IDENT, TokenKind.DCOLON, TokenKind.LBRACK,
        TokenKind.RBRACK, TokenKind.DLBRACK, TokenKind.DRBRACK,
        TokenKind.COMMA, TokenKind.COLON, TokenKind.ASSIGN, TokenKind.PLUS,
        TokenKind.MINUS, TokenKind.STAR, TokenKind.SLASH,
    ]


def test_numbers():
    toks = tokenize("42 3.5 .25 1. 1e3 2.5d-1 1.0E+2")
    assert [t.kind for t in toks[:7]] == [
        TokenKind.INT, TokenKind.REAL, TokenKind.REAL, TokenKind.REAL,
        TokenKind.REAL, TokenKind.REAL, TokenKind.REAL]


@pytest.mark.parametrize("text,value", [
    ("3.5", 3.5),
    (".25", 0.25),
    ("1.", 1.0),
    ("1e3", 1000.0),
    ("2.5d-1", 0.25),
    ("2.5D-1", 0.25),
    ("1.0E+2", 100.0),
])
def test_real_value(text, value):
    assert real_value(text) == value


def test_comment_runs_to_end_of_line():
    toks = tokenize("a = 1 ! b = 2\nc\n")
    names = [t.text for t in toks if t.kind is TokenKind.IDENT]
    assert names == ["a", "c"]


def test_continuation_joins_lines_without_newline_token():
    toks = tokenize("a = 1 &\n    + 2\n")
    assert [t.kind for t in toks] == [
        TokenKind.IDENT, TokenKind.ASSIGN, TokenKind.INT, TokenKind.PLUS,
        TokenKind.INT, TokenKind.NEWLINE, TokenKind.EOF]


def test_continuation_with_trailing_comment_and_leading_ampersand():
    toks = tokenize("a = 1 & ! keep going\n    & + 2\n")
    assert [t.kind for t in toks] == [
        TokenKind.IDENT, TokenKind.ASSIGN, TokenKind.INT, TokenKind.PLUS,
        TokenKind.INT, TokenKind.NEWLINE, TokenKind.EOF]


def test_positions_are_one_based_line_and_column():
    toks = tokenize("ab cd\n  ef\n")
    positions = [(t.pos.line, t.pos.col) for t in toks
                 if t.kind is TokenKind.IDENT]
    assert positions == [(1, 1), (1, 4), (2, 3)]


def test_stray_character_raises_lex_error_with_position():
    with pytest.raises(LexError) as exc:
        tokenize("a = $\n", "bad.lope")
    d = exc.value.diagnostic
    assert d.code == "E001"
    assert (d.pos.line, d.pos.col) == (1, 5)
    assert d.pos.file == "bad.lope"


def test_ampersand_not_at_end_of_line_is_an_error():
    with pytest.raises(LexError) as exc:
        tokenize("a = 1 & + 2\n")
    assert exc.value.diagnostic.code == "E001"


def test_unterminated_string_is_an_error():
    with pytest.raises(LexError):
        tokenize('a = "oops\n')


def test_every_token_stream_ends_with_eof():
    for text in ("", "\n", "a", "! only a comment\n"):
        toks = tokenize(text)
        assert toks[-1].kind is TokenKind.EOF


@pytest.mark.parametrize("text,count", [
    ("a = 1 ! note\nb &\n  & (2)\n", 10),
    ("ab \r", 2),
    ("ab ! note", 2),
    ("", 1),
])
def test_length_counts_every_token_and_one_eof(text, count):
    # the benchmark's token count is ``len(tokenize(text))``
    toks = tokenize(text)
    assert len(toks) == len(list(toks)) == count
    assert kinds(text).count(TokenKind.EOF) == 1
    assert toks[len(toks) - 1] == toks[-1] and toks[-1].kind is TokenKind.EOF


def positions(text):
    return [(t.kind.name, t.text, t.pos.line, t.pos.col)
            for t in tokenize(text)]


def lex_error(text):
    with pytest.raises(LexError) as exc:
        tokenize(text, "bad.lope")
    return exc.value.diagnostic.render()


def test_positions_after_a_continuation_with_comment_and_leading_ampersand():
    assert positions("a = 1 & ! keep going\n    & + 2\nb\n") == [
        ("IDENT", "a", 1, 1), ("ASSIGN", "=", 1, 3), ("INT", "1", 1, 5),
        ("PLUS", "+", 2, 7), ("INT", "2", 2, 9), ("NEWLINE", "\n", 2, 10),
        ("IDENT", "b", 3, 1), ("NEWLINE", "\n", 3, 2), ("EOF", "", 4, 1)]


def test_crlf_line_ends():
    assert positions("a = 1\r\nb &\r\n  & c\r\n") == [
        ("IDENT", "a", 1, 1), ("ASSIGN", "=", 1, 3), ("INT", "1", 1, 5),
        ("NEWLINE", "\n", 1, 7), ("IDENT", "b", 2, 1), ("IDENT", "c", 3, 5),
        ("NEWLINE", "\n", 3, 7), ("EOF", "", 4, 1)]


@pytest.mark.parametrize("text,line,col", [
    ("", 1, 1),
    ("ab", 1, 3),
    ("ab\n", 2, 1),
    ("ab\n  ", 2, 3),
    ("ab &\n  cd", 2, 5),
    ("ab ! note", 1, 10),
])
def test_eof_position(text, line, col):
    assert positions(text)[-1] == ("EOF", "", line, col)


@pytest.mark.parametrize("text,col", [
    ("a = 1 &", 7),
    ("a = 1 &  ", 7),
    ("a = 1 & x\n", 7),
    ("a = 1 &! note", 7),
])
def test_ampersand_not_ending_a_line_is_reported_at_the_ampersand(text, col):
    assert lex_error(text) == (
        f"bad.lope:1:{col}: error[E001]: "
        "line continuation '&' not at end of line")


@pytest.mark.parametrize("text,line,col,char", [
    ("a = 1 &\n  & + $\n", 2, 7, "$"),
    ("a = 1 & ! note\n    + $\n", 2, 7, "$"),
    ("a &\n &\n b &\n\t# = 2\n", 4, 2, "#"),
])
def test_illegal_character_on_a_continued_line(text, line, col, char):
    assert lex_error(text) == (
        f"bad.lope:{line}:{col}: error[E001]: illegal character {char!r}")


# SHA-256 of every token's (kind, text, line, col), or of the rendered E001
# diagnostic for an input that does not lex, over ``stream_inputs``; any
# change in tokens, positions or lex errors changes it
STREAM_DIGEST = (
    "41e546af47d2492337ff183eb91300b67d54f35f635afaea4c2bf73c28ebde48")
MUTANTS = 400


def test_token_streams_match_the_pinned_digest():
    digest = hashlib.sha256()
    failed = 0
    for k, text in enumerate(stream_inputs(MUTANTS)):
        try:
            record = [(t.kind.name, t.text, t.pos.line, t.pos.col)
                      for t in tokenize(text, f"in{k}.lope")]
        except LexError as exc:
            record = exc.diagnostic.render()
            failed += 1
        digest.update(repr(record).encode())
    # both outcomes are covered
    assert 0 < failed < MUTANTS
    assert digest.hexdigest() == STREAM_DIGEST


def test_token_regex_compiles_on_the_oldest_supported_python():
    # Python 3.10 rejects possessive quantifiers and atomic groups, which
    # 3.11 added; the lexer compiles its regex at import.
    sre = pytest.importorskip("re._parser")
    newer = {re._constants.POSSESSIVE_REPEAT, re._constants.ATOMIC_GROUP}

    def opcodes(node):
        if isinstance(node, (sre.SubPattern, list, tuple)):
            for item in node:
                yield from opcodes(item)
        elif isinstance(node, re._constants._NamedIntConstant):
            yield node

    used = set(opcodes(sre.parse(_TOKEN_RE.pattern, _TOKEN_RE.flags)))
    assert not used & newer
