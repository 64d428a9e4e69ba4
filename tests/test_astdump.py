"""Term dump determinism, golden output and formatting insensitivity."""

import pytest

from conftest import CORPUS_FILES, GOLDEN
from lopec.astdump import dump_ast
from lopec.parser import parse_source


def program_of(path):
    program, diags = parse_source(path.read_text(), str(path))
    assert program is not None, [d.render() for d in diags]
    return program


@pytest.mark.parametrize("path", CORPUS_FILES, ids=lambda p: p.stem)
def test_dump_is_deterministic(path):
    program = program_of(path)
    assert dump_ast(program) == dump_ast(program_of(path))


def test_dump_matches_golden():
    program = program_of(CORPUS_FILES[0].parent / "laplacian.lope")
    golden = (GOLDEN / "laplacian.ast.golden").read_text()
    assert dump_ast(program) + "\n" == golden


def test_dump_is_insensitive_to_formatting():
    src = (CORPUS_FILES[0].parent / "laplacian.lope").read_text()
    # strip comments and change case; the dump must not change
    lines = []
    for raw in src.splitlines():
        code = raw.split("!", 1)[0].rstrip()
        if code.strip():
            lines.append(code.upper())
    joined = "\n".join(lines) + "\n"
    p1, d1 = parse_source(src, "a.lope")
    p2, d2 = parse_source(joined, "b.lope")
    assert p1 is not None and p2 is not None, (d1, d2)
    assert dump_ast(p1) == dump_ast(p2)

