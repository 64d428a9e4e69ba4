"""Parser behaviour: structure, positions, recovery, and totality.

The fuzz tests feed the parser mutated and fully random inputs: whatever
the input, the outcome must be a program or a list of positioned
diagnostics, never an internal exception.
"""

import hashlib
import random

import pytest

from conftest import CORPUS_FILES, stream_inputs
from lopec import ast, lexer, parser
from lopec.astdump import dump_ast
from lopec.diagnostics import ParseError
from lopec.parser import parse_source

MINIMAL = """\
pure concurrent subroutine k(U)
  real, dimension(:), HALO(1:*:1) :: U
  U(0) = U(-1) + U(+1)
end subroutine k

program main
  real, allocatable, dimension(:), codimension[:], HALO(1:*:1) :: U
  integer :: device
  device = GET_SUBIMAGE(1)
  allocate(U(0:M+1)[*])
  do concurrent (i=1:M) [[device]]
    call k( U(i)[device] )
  end do
end program main
"""


def parse_ok(text):
    program, diags = parse_source(text, "t.lope")
    assert program is not None, [d.render() for d in diags]
    return program


def test_minimal_program_shape():
    p = parse_ok(MINIMAL)
    assert [k.name for k in p.kernels] == ["k"]
    kern = p.kernels[0]
    assert kern.params == ["u"]
    assert len(kern.body) == 1
    stmt = kern.body[0]
    assert isinstance(stmt, ast.Assign)
    assert isinstance(stmt.lhs, ast.OffsetRef)
    assert stmt.lhs.offsets == (0,)
    launches = [s for s in p.body if isinstance(s, ast.DoConcurrent)]
    assert len(launches) == 1
    assert launches[0].target == "device"
    assert launches[0].call.name == "k"
    arg = launches[0].call.args[0]
    assert isinstance(arg, ast.ElementArg)
    assert (arg.array, arg.indices, arg.device) == ("u", ["i"], "device")


def test_offset_signs_and_arity():
    p = parse_ok(MINIMAL.replace("U(0) = U(-1) + U(+1)",
                                 "U(0) = U(+1) - U(-1)"))
    rhs = p.kernels[0].body[0].rhs
    assert isinstance(rhs, ast.Bin) and rhs.op == "-"
    assert rhs.left.offsets == (1,)
    assert rhs.right.offsets == (-1,)


def test_halo_spec_fixed_and_deferred():
    text = MINIMAL.replace("HALO(1:*:1) :: U", "HALO(:) :: U", 1)
    p = parse_ok(text)
    halo = p.kernels[0].decls[0].attrs.halo
    assert halo.is_deferred
    fixed = p.decls[0].attrs.halo
    assert not fixed.is_deferred
    assert (fixed.dims[0].lo, fixed.dims[0].hi) == (1, 1)


def test_allocate_forms():
    p = parse_ok(MINIMAL)
    allocs = [s for s in p.body if isinstance(s, ast.Allocate)]
    assert len(allocs) == 1
    a = allocs[0]
    assert a.entity == "u"
    assert len(a.bounds) == 1 and a.cobounds == ["*"]
    assert a.halo_src is None and a.target is None


def test_device_allocate_form():
    text = MINIMAL.replace(
        "  do concurrent",
        "  allocate(U[device], HALO_SRC=U) [[device]]\n  do concurrent")
    p = parse_ok(text)
    dev = [s for s in p.body
           if isinstance(s, ast.Allocate) and s.target is not None]
    assert len(dev) == 1
    assert dev[0].halo_src == "u" and dev[0].target == "device"
    assert dev[0].bounds == []


def test_halo_transfer_statement():
    text = MINIMAL.replace("  do concurrent",
                           "  call HALO_TRANSFER(U, BC=CYCLIC)\n"
                           "  do concurrent")
    p = parse_ok(text)
    ht = [s for s in p.body if isinstance(s, ast.HaloTransfer)]
    assert len(ht) == 1 and ht[0].array == "u" and ht[0].bc == "cyclic"


def test_mirror_pull_and_push():
    text = MINIMAL + ""
    text = text.replace("end program main",
                        "U = U[device]\nU[device] = U\nend program main")
    p = parse_ok(text)
    mirrors = [s for s in p.body if isinstance(s, ast.MirrorAssign)]
    assert [m.direction for m in mirrors] == \
        ["device_to_host", "host_to_device"]


def test_coindexed_section_copy():
    text = MINIMAL.replace(
        "  do concurrent",
        "  U(M+1) = U(1)[pcol+1]\n  do concurrent")
    program, diags = parse_source(text, "t.lope")
    assert program is not None, [d.render() for d in diags]
    copies = [s for s in program.body if isinstance(s, ast.Assign)
              and isinstance(s.lhs, ast.SectionRef)]
    assert len(copies) == 1
    assert copies[0].rhs.cosubs is not None


def test_counted_do_and_if():
    text = MINIMAL.replace(
        "  do concurrent (i=1:M) [[device]]\n    call k( U(i)[device] )\n  end do",
        "  do it = 1, nsteps\n"
        "    if (device /= this_image()) then\n"
        "      call HALO_TRANSFER(U, BC=CYCLIC)\n"
        "    end if\n"
        "  end do")
    text = text.replace("integer :: device",
                        "integer :: device\n  integer :: it")
    p = parse_ok(text)
    loops = [s for s in p.body if isinstance(s, ast.DoCounted)]
    assert len(loops) == 1
    assert loops[0].var == "it"
    assert isinstance(loops[0].body[0], ast.If)


def test_case_insensitivity():
    shouty = MINIMAL.upper().replace("PROGRAM MAIN", "program main")
    # identifiers and keywords fold; the program still parses
    p, diags = parse_source(shouty, "t.lope")
    assert p is not None, [d.render() for d in diags]
    assert p.kernels[0].name == "k"


@pytest.mark.parametrize("path", CORPUS_FILES, ids=lambda p: p.stem)
def test_corpus_parses(path):
    program, diags = parse_source(path.read_text(), str(path))
    assert program is not None, [d.render() for d in diags]


# -- diagnostics ----------------------------------------------------------


def diag_codes(text):
    program, diags = parse_source(text, "t.lope")
    return program, [d.code for d in diags]


def test_missing_end_is_a_parse_error():
    program, codes = diag_codes("program main\n  x = 1\n")
    assert program is None and codes == ["E002"]


def test_junk_statement_reports_position():
    program, diags = parse_source(
        "program main\n  integer :: a\n  allocate)\nend program main\n",
        "t.lope")
    assert program is None
    assert diags[0].code == "E002"
    assert diags[0].pos.line == 3


def test_bare_kernel_call_outside_launch_rejected():
    text = MINIMAL.replace(
        "  do concurrent (i=1:M) [[device]]\n    call k( U(i)[device] )\n  end do",
        "  call k( U(1)[device] )")
    program, codes = diag_codes(text)
    assert program is None and "E002" in codes


def test_lex_error_surfaces_as_diagnostic():
    program, diags = parse_source("program main\n  x = $2\nend program main\n",
                                  "t.lope")
    assert program is None
    assert [d.code for d in diags] == ["E001"]


HUGE = "1" + "0" * 4400       # past Python's integer string conversion limit


@pytest.mark.parametrize("old,new", [
    ("U(0) = U(-1) + U(+1)", f"U(0) = U(-{HUGE}) + U(+1)"),    # kernel offset
    ("U(0) = U(-1) + U(+1)", f"U({HUGE}) = U(-1) + U(+1)"),    # stored offset
    ("HALO(1:*:1) :: U\n  U(0)", f"HALO(1:*:{HUGE}) :: U\n  U(0)"),
    ("GET_SUBIMAGE(1)", f"GET_SUBIMAGE({HUGE})"),
    ("allocate(U(0:M+1)[*])", f"allocate(U(0:M+{HUGE})[*])"),  # host expr
], ids=["offset", "stored-offset", "halo-width", "get-subimage", "host"])
def test_huge_integer_literal_is_a_positioned_parse_error(old, new):
    text = MINIMAL.replace(old, new, 1)
    line = next(n for n, row in enumerate(text.splitlines(), 1) if HUGE in row)
    col = text.splitlines()[line - 1].index(HUGE) + 1
    program, diags = parse_source(text, "t.lope")
    assert program is None
    assert [d.render() for d in diags] == [
        f"t.lope:{line}:{col}: error[E002]: integer literal of 4401 digits "
        f"is too long"]


def test_parse_source_calls_tokenize_and_parse_once(monkeypatch):
    # the benchmark times the lexer and the parser by wrapping these two
    # module attributes
    calls = []

    def counted(name):
        real = getattr(parser, name)

        def wrapper(*args):
            calls.append(name)
            return real(*args)
        return wrapper

    for name in ("tokenize", "parse"):
        monkeypatch.setattr(parser, name, counted(name))
    assert parse_source(MINIMAL, "t.lope")[0] is not None
    assert calls == ["tokenize", "parse"]


def test_parsing_builds_no_token_objects(monkeypatch):
    def refuse(*args):
        raise AssertionError("a Token was built while parsing")
    sources = [p.read_text() for p in CORPUS_FILES] + [MINIMAL]
    streams = [lexer.tokenize(text, "t.lope") for text in sources + ["x\n"]]
    monkeypatch.setattr(lexer, "Token", refuse)
    monkeypatch.setattr(lexer.Tokens, "__getitem__", refuse)
    for tokens in streams[:-1]:
        assert isinstance(parser.parse(tokens), ast.Program)
    with pytest.raises(ParseError):
        parser.parse(streams[-1])


# -- totality fuzz --------------------------------------------------------


def _random_mutation(rng, text):
    choice = rng.randrange(3)
    chars = list(text)
    if not chars:
        return "x"
    i = rng.randrange(len(chars))
    if choice == 0:
        del chars[i]
    elif choice == 1:
        chars.insert(i, rng.choice("()[]{}:,=+-*/&!\n\"abcXYZ019 "))
    else:
        chars[i] = rng.choice("()[]{}:,=+-*/&!\n\"abcXYZ019 ")
    return "".join(chars)


def test_fuzz_mutated_corpus_never_crashes():
    rng = random.Random(20260823)
    sources = [p.read_text() for p in CORPUS_FILES] + [MINIMAL]
    for trial in range(300):
        text = rng.choice(sources)
        for _ in range(rng.randrange(1, 6)):
            text = _random_mutation(rng, text)
        program, diags = parse_source(text, "fuzz.lope")
        if program is None:
            assert diags, "rejection must come with diagnostics"
            for d in diags:
                assert d.code in ("E001", "E002")
                assert d.pos.line >= 1 and d.pos.col >= 1


def test_fuzz_random_soup_never_crashes():
    rng = random.Random(99)
    alphabet = "program end subroutine halo () [[ ]] :: = + - , : * / & ! \n aZ0 .5 \""
    for trial in range(200):
        text = "".join(rng.choice(alphabet)
                       for _ in range(rng.randrange(0, 160)))
        program, diags = parse_source(text, "soup.lope")
        assert program is not None or diags


# SHA-256 of every input's AST term dump, or of its rendered lex or parse
# error, over ``stream_inputs``; any change in the trees the parser builds,
# their positions, or its error messages changes it
PARSE_DIGEST = (
    "654d4b7e7631886f5336f950775a0d209d71aa69ddde133443882492762f9ac2")
MUTANTS = 1000


def test_parse_outcomes_match_the_pinned_digest():
    digest = hashlib.sha256()
    failed = 0
    for k, text in enumerate(stream_inputs(MUTANTS)):
        program, diags = parse_source(text, f"in{k}.lope")
        if program is None:
            record = [d.render() for d in diags]
            failed += 1
        else:
            record = dump_ast(program)
        digest.update(repr(record).encode())
    # both outcomes are covered
    assert 0 < failed < MUTANTS
    assert digest.hexdigest() == PARSE_DIGEST
