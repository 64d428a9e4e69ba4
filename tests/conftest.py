"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pathlib
import random
import sys

import pytest

from lopec.checks import CheckResult, check_program
from lopec.parser import parse_source

TESTS = pathlib.Path(__file__).parent
CORPUS = TESTS.parent / "corpus"
BAD = TESTS / "bad"
GOLDEN = TESTS / "golden"

CORPUS_FILES = sorted(CORPUS.glob("*.lope"))
BAD_FILES = sorted(BAD.glob("*.lope"))

sys.path.insert(0, str(TESTS.parent / "perfbench"))
import gen  # noqa: E402

# characters and fragments that stress continuations, comments, line ends,
# strings, numbers and illegal input
EDITS = list("&&&\n\n\r\t !$#\".0123456789eEdDxU_()[]:,=+-*/<>") + [
    "&\n", " & ! note\n  & ", "\r\n", "[[", "]]", "::", "==", "/=",
    "1.5d-3", "& x", "!"]


def stream_inputs(mutants: int) -> list[str]:
    """The corpus and ``gen.generate(seed=11)``, then ``mutants`` seeded
    copies of them with one to three characters deleted, inserted or
    replaced."""
    texts = ([p.read_text() for p in CORPUS_FILES]
             + [g.text for g in gen.generate(seed=11)])
    rng = random.Random(2015)
    out = []
    for _ in range(mutants):
        chars = list(rng.choice(texts))
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(chars))
            op = rng.choice(("delete", "insert", "replace"))
            if op == "delete":
                del chars[i]
            elif op == "insert":
                chars.insert(i, rng.choice(EDITS))
            else:
                chars[i] = rng.choice(EDITS)
        out.append("".join(chars))
    return texts + out


def compile_source(text: str, name: str = "test.lope") -> CheckResult:
    """Parse + check; asserts the program is diagnostic-free."""
    program, diags = parse_source(text, name)
    assert program is not None, [d.render() for d in diags]
    result = check_program(program)
    assert result.ok, [d.render() for d in result.diagnostics]
    return result


def diagnostics_of(text: str, name: str = "test.lope"):
    """Parse + check; returns the rendered diagnostics (possibly empty)."""
    program, diags = parse_source(text, name)
    if program is None:
        return [d.render() for d in diags]
    return [d.render() for d in check_program(program).diagnostics]


def compile_file(path) -> CheckResult:
    return compile_source(path.read_text(), str(path))


@pytest.fixture(scope="session")
def laplacian():
    return compile_file(CORPUS / "laplacian.lope")


@pytest.fixture(scope="session")
def avg3():
    return compile_file(CORPUS / "avg3.lope")


@pytest.fixture(scope="session")
def upwind():
    return compile_file(CORPUS / "upwind.lope")
