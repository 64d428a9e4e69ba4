"""Command-line interface: subcommands, exit codes, and stream discipline."""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import lopec
from conftest import BAD, CORPUS, GOLDEN
from lopec.arrayio import read_array, write_array_file
from lopec.cli import main
from lopec.parser import MAX_EXPR_DEPTH
from test_runtime import DIVERGENT_HALO, MIXED_HALOS, NOT_AN_INTEGER
from test_sema import HUGE_DIVISOR, INTEGER_LAPLACIAN, KERNEL_SHAPES

LAP = str(CORPUS / "laplacian.lope")
COMMANDS = [["check"], ["run"], ["emit"], ["emit", "--target", "plan"],
            ["ast"]]


def test_check_ok(capsys):
    assert main(["check", LAP]) == 0
    out = capsys.readouterr()
    assert "ok" in out.out and out.err == ""


def test_check_bad_file_diagnostics_on_stderr(capsys):
    code = main(["check", str(BAD / "halo_write.lope")])
    out = capsys.readouterr()
    assert code == 1
    assert out.out == ""
    assert "error[E101]" in out.err
    assert out.err.startswith(str(BAD / "halo_write.lope") + ":6:3:")


def test_check_missing_file(capsys):
    assert main(["check", "no/such/file.lope"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_unknown_subcommand(capsys):
    assert main(["frobnicate", LAP]) == 2


def test_no_arguments(capsys):
    assert main([]) == 2


def test_ast_stdout_matches_golden(capsys):
    assert main(["ast", LAP]) == 0
    out = capsys.readouterr().out
    assert out == (GOLDEN / "laplacian.ast.golden").read_text()


def test_ast_output_file(tmp_path, capsys):
    target = tmp_path / "out.txt"
    assert main(["ast", LAP, "-o", str(target)]) == 0
    assert target.read_text() == (GOLDEN / "laplacian.ast.golden").read_text()
    assert capsys.readouterr().out == ""


def test_ast_parse_error_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.lope"
    bad.write_text("program main\n")
    assert main(["ast", str(bad)]) == 1
    assert "error[E002]" in capsys.readouterr().err


def test_emit_kernel_c_matches_golden(capsys):
    assert main(["emit", LAP]) == 0
    assert capsys.readouterr().out == \
        (GOLDEN / "laplacian.cl.golden").read_text()


def test_emit_plan_matches_golden(capsys):
    assert main(["emit", "--target", "plan", LAP]) == 0
    assert capsys.readouterr().out == \
        (GOLDEN / "laplacian.plan.golden").read_text()


def test_emit_rejects_diagnostics(capsys):
    assert main(["emit", str(BAD / "impure.lope")]) == 1
    assert "error[E104]" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["check", "emit", "run"])
@pytest.mark.parametrize("shape", KERNEL_SHAPES)
def test_untranslatable_kernel_is_a_diagnostic(tmp_path, capsys, command,
                                               shape):
    text, code, line = KERNEL_SHAPES[shape]
    src = tmp_path / "k.lope"
    src.write_text(text)
    assert main([command, str(src)]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith(f"{src}:{line}:")
    assert f"error[{code}]" in out.err


def test_emit_double_variant(capsys):
    assert main(["emit", "--real-type", "double", LAP]) == 0
    assert "__global const double* u_in" in capsys.readouterr().out


def test_run_roundtrip(tmp_path, capsys):
    rng = np.random.default_rng(1)
    field = rng.uniform(-1, 1, (8, 8))
    src = tmp_path / "in.txt"
    dst = tmp_path / "out.txt"
    write_array_file(str(src), field)
    code = main(["run", LAP, "--images", "2", "--grid-rows", "2",
                 "--steps", "3", "--input", str(src), "-o", str(dst)])
    assert code == 0
    out = read_array(dst.read_text())
    assert out.shape == (8, 8)
    assert not np.array_equal(out, field)


def test_run_decompositions_byte_identical(tmp_path):
    rng = np.random.default_rng(2)
    field = rng.uniform(-1, 1, (8, 8))
    src = tmp_path / "in.txt"
    write_array_file(str(src), field)
    outputs = []
    for p, mp in [(1, 1), (2, 1), (2, 2), (4, 2)]:
        dst = tmp_path / f"out{p}x{mp}.txt"
        assert main(["run", LAP, "--images", str(p), "--grid-rows", str(mp),
                     "--steps", "2", "--input", str(src),
                     "-o", str(dst)]) == 0
        outputs.append(dst.read_bytes())
    assert len(set(outputs)) == 1


def test_run_writes_stdout_without_output_flag(tmp_path, capsys):
    rng = np.random.default_rng(3)
    field = rng.uniform(-1, 1, (4, 4))
    src = tmp_path / "in.txt"
    write_array_file(str(src), field)
    assert main(["run", LAP, "--input", str(src)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "4 4"


def test_run_default_extent(capsys):
    assert main(["run", LAP, "--steps", "1"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "32 32"


def test_run_grid_fault_exit_3(tmp_path, capsys):
    rng = np.random.default_rng(4)
    write_array_file(str(tmp_path / "in.txt"),
                     rng.uniform(-1, 1, (8, 1)))
    code = main(["run", str(CORPUS / "avg3.lope"), "--images", "2",
                 "--grid-rows", "2", "--input", str(tmp_path / "in.txt")])
    out = capsys.readouterr()
    assert code == 3
    assert "error[E201]" in out.err


def test_run_halo_wider_than_block_exit_3(tmp_path, capsys):
    upwind = str(CORPUS / "upwind.lope")
    rng = np.random.default_rng(6)
    src = tmp_path / "in.txt"
    write_array_file(str(src), rng.uniform(-1, 1, (32, 32)))
    outputs = {}
    for images in (1, 16, 32):
        dst = tmp_path / f"out{images}.txt"
        outputs[images] = main(["run", upwind, "--images", str(images),
                                "--steps", "3", "--input", str(src),
                                "-o", str(dst)])
    err = capsys.readouterr().err
    # 32 images leave blocks one cell wide under a two-cell halo
    assert outputs == {1: 0, 16: 0, 32: 3}
    assert "error[E201]" in err and "halo width 2" in err
    assert not (tmp_path / "out32.txt").exists()
    assert ((tmp_path / "out1.txt").read_bytes()
            == (tmp_path / "out16.txt").read_bytes())


def test_run_divergent_collective_exit_3(tmp_path, capsys):
    src = tmp_path / "diverge.lope"
    src.write_text(DIVERGENT_HALO)
    field = tmp_path / "in.txt"
    write_array_file(str(field), np.zeros((4, 4)))
    code = main(["run", str(src), "--images", "2", "--input", str(field),
                 "-o", str(tmp_path / "out.txt")])
    err = capsys.readouterr().err
    assert code == 3
    assert "error[E202]" in err
    assert "images diverged at a collective operation" in err
    assert not (tmp_path / "out.txt").exists()


def test_run_shuffle_seed_output_identical(tmp_path):
    rng = np.random.default_rng(5)
    field = rng.uniform(-1, 1, (6, 6))
    src = tmp_path / "in.txt"
    write_array_file(str(src), field)
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    assert main(["run", LAP, "--steps", "2", "--input", str(src),
                 "-o", str(a)]) == 0
    assert main(["run", LAP, "--steps", "2", "--input", str(src),
                 "--shuffle-seed", "42", "-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_run_divides_by_zero_silently_in_both_orders(tmp_path):
    """Kernel arithmetic is IEEE, as in the emitted C: 0/0 and x/0 give
    NaN and infinities without a warning, and the run exits 0."""
    src = tmp_path / "div.lope"
    src.write_text(MIXED_HALOS.replace("V(-2,0) + V(2,0) + U(0,1)",
                                       "V(-2,0) / U(0,1)"))
    field = np.random.default_rng(8).uniform(-1, 1, (8, 8))
    field[:, 2:4] = 0.0
    inp = tmp_path / "in.txt"
    write_array_file(str(inp), field)
    with np.errstate(all="ignore"):
        want = np.roll(0.5 * field, 2, axis=0) / np.roll(field, -1, axis=1)
    assert np.isnan(want).any() and np.isinf(want).any()
    src_dir = pathlib.Path(lopec.__file__).parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src_dir), os.environ.get("PYTHONPATH")])))
    outputs = []
    for order in ([], ["--shuffle-seed", "3"]):
        out = tmp_path / f"out{len(outputs)}.txt"
        proc = subprocess.run(
            [sys.executable, "-m", "lopec", "run", str(src), "--images", "4",
             "--grid-rows", "2", "--input", str(inp), "-o", str(out), *order],
            capture_output=True, env=env, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
        assert np.array_equal(read_array(out.read_text()), want,
                              equal_nan=True)
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_run_bad_usage(capsys):
    assert main(["run", LAP, "--images", "0"]) == 2
    assert main(["run", LAP, "--steps", "-1"]) == 2


def test_run_malformed_input_file(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("not a field\n")
    assert main(["run", LAP, "--input", str(bad)]) == 2
    assert "header" in capsys.readouterr().err


@pytest.mark.parametrize("text,word", [
    ("1000000000 1000000000\n1 2\n", "too large"),
    ("2 1\n1_0 2\n", "'_'"),
])
def test_run_unreadable_field_is_a_usage_error(tmp_path, capsys, text, word):
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    assert main(["run", str(CORPUS / "avg3.lope"), "--input", str(bad)]) == 2
    err = capsys.readouterr().err
    assert word in err and "Traceback" not in err


@pytest.mark.parametrize("command", [["ast"], ["emit"],
                                     ["emit", "--target", "plan"], ["run"]])
@pytest.mark.parametrize("flag", ["-o", "--output"])
def test_unwritable_output_is_a_usage_error(tmp_path, capsys, monkeypatch,
                                            command, flag):
    """``run`` refuses the output before it simulates anything, and leaves
    an existing output as it was when the run faults."""
    from lopec.runtime import Machine

    def no_run(self):
        raise AssertionError("the run started")

    monkeypatch.setattr(Machine, "run", no_run)
    for target in (tmp_path, tmp_path / "missing" / "x"):
        assert main([command[0], str(CORPUS / "avg3.lope"), *command[1:],
                     flag, str(target)]) == 2
        out = capsys.readouterr()
        assert out.err.startswith(f"lopec: error: cannot write {target}: ")
        assert out.err.count("\n") == 1 and out.out == ""
    assert list(tmp_path.iterdir()) == []
    if command == ["run"]:
        monkeypatch.undo()
        kept = tmp_path / "kept.txt"
        kept.write_text("an earlier result\n")
        # 64 cells do not divide over 3 images
        assert main(["run", str(CORPUS / "avg3.lope"), "--images", "3",
                     flag, str(kept)]) == 3
        assert "error[E201]" in capsys.readouterr().err
        assert kept.read_text() == "an earlier result\n"


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("data,offset", [(b"\xff\xfe bad", 0),
                                         (b"! caf\xc3\xa9\n! \xe9\n", 10)])
def test_undecodable_source_is_a_usage_error(tmp_path, capsys, command,
                                             data, offset):
    src = tmp_path / "bad.lope"
    src.write_bytes(data)
    assert main([command[0], str(src), *command[1:]]) == 2
    out = capsys.readouterr()
    assert out.err == (f"lopec: error: cannot read {src}: not UTF-8 text "
                       f"at byte {offset}\n")
    assert out.out == ""


def test_run_undecodable_field_is_a_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"2 1\n1 \xff\n")
    assert main(["run", str(CORPUS / "avg3.lope"), "--input", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err == f"lopec: error: {bad}: not UTF-8 text\n"
    assert "Traceback" not in err


def test_run_compile_errors_exit_1(capsys):
    assert main(["run", str(BAD / "halo_exceeded.lope")]) == 1
    assert "error[E102]" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["check", "run"])
def test_integer_launched_array_is_a_diagnostic(tmp_path, capsys, command):
    src = tmp_path / "lap.lope"
    src.write_text(INTEGER_LAPLACIAN)
    assert main([command, str(src)]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert "error[E104]" in out.err


def _fresh_env() -> dict:
    """The environment of a fresh interpreter that imports this lopec."""
    src_dir = pathlib.Path(lopec.__file__).parent.parent
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src_dir), os.environ.get("PYTHONPATH")])))


def test_closed_stdout_exits_2_without_a_traceback(tmp_path):
    field = tmp_path / "in.txt"
    write_array_file(str(field),
                     np.random.default_rng(3).standard_normal((256, 256)))
    assert field.stat().st_size > 1 << 20
    proc = subprocess.Popen(
        [sys.executable, "-m", "lopec", "run", LAP, "--images", "2",
         "--input", str(field)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_fresh_env())
    assert proc.stdout.readline() == b"256 256\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 2
    assert "Traceback" not in err
    assert "Exception ignored" not in err


SIMULATOR = ("numpy", "lopec.runtime", "lopec.arrayio", "lopec.ir")
LOADED = f"print(*[m for m in {SIMULATOR!r} if m in sys.modules])"


def _fresh(code: str, *argv: str) -> str:
    """The last line ``code`` prints in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=_fresh_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    return proc.stdout.splitlines()[-1]


@pytest.mark.parametrize("command", [
    ["check"], ["ast", "-o"], ["emit", "--target", "kernel-c", "-o"],
    ["emit", "--target", "plan", "-o"], ["run", "--images", "2", "-o"]])
def test_only_run_loads_numpy_and_the_simulator(tmp_path, command):
    """The front end starts without numpy, the kernel interpreter, the
    runtime or field I/O; ``run`` loads them and writes what it writes in
    process."""
    argv = [command[0], str(CORPUS / "upwind.lope"), *command[1:]]
    if command[-1] == "-o":
        argv.append(str(tmp_path / "fresh.txt"))
    last = _fresh("import sys\nfrom lopec.cli import main\n"
                  f"print(main(sys.argv[1:]))\n{LOADED}", *argv)
    assert last == (" ".join(SIMULATOR) if command[0] == "run" else "")
    if command[-1] == "-o":
        assert main(argv[:-1] + [str(tmp_path / "here.txt")]) == 0
        assert ((tmp_path / "fresh.txt").read_bytes()
                == (tmp_path / "here.txt").read_bytes())


def test_the_package_loads_the_simulator_on_first_use():
    assert _fresh(f"import sys, lopec\n{LOADED}") == ""
    last = _fresh("import sys\nfrom lopec import Machine, RunConfig, "
                  "oracle_step, __all__\nimport lopec\n"
                  "assert set(__all__) <= set(dir(lopec))\n"
                  "print(Machine.__module__, RunConfig.__module__, "
                  "oracle_step.__module__, 'numpy' in sys.modules)")
    assert last == "lopec.runtime lopec.runtime lopec.runtime True"


ABS_OF_NOTHING = (CORPUS / "laplacian.lope").read_text().replace(
    "U(0,0) = ", "U(0,0) = abs() + ", 1)


@pytest.mark.parametrize("command", ["check", "emit", "run"])
def test_intrinsic_with_no_argument_exits_1(tmp_path, capsys, command):
    src = tmp_path / "abs.lope"
    src.write_text(ABS_OF_NOTHING)
    line = next(i for i, text in enumerate(ABS_OF_NOTHING.splitlines(), 1)
                if "abs()" in text)
    assert main([command, str(src)]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith(f"{src}:{line}:")
    assert "error[E104]: 'abs' takes 1 argument, got 0" in out.err
    assert "Traceback" not in out.err


def test_host_sqrt_of_a_negative_value_exits_3(tmp_path, capsys):
    text = (CORPUS / "laplacian.lope").read_text().replace(
        "  integer :: it\n", "  integer :: it\n  real :: s\n").replace(
        "  device = GET_SUBIMAGE(1)\n",
        "  device = GET_SUBIMAGE(1)\n  s = 1.0 + sqrt(0.5 - M)\n", 1)
    src = tmp_path / "sqrt.lope"
    src.write_text(text)
    line = next(i for i, t in enumerate(text.splitlines(), 1) if "sqrt" in t)
    assert main(["run", str(src), "-o", str(tmp_path / "out.txt")]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"{src}:{line}:13: error[E108]: ")
    assert "sqrt of the negative value -31.5" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out.txt").exists()


def test_a_real_overflow_assigned_to_an_integer_exits_3(tmp_path, capsys):
    text = NOT_AN_INTEGER.format(line="  q = r")
    src = tmp_path / "overflow.lope"
    src.write_text(text)
    line = text.splitlines().index("  q = r") + 1
    assert main(["run", str(src), "-o", str(tmp_path / "out.txt")]) == 3
    err = capsys.readouterr().err
    assert err == (f"{src}:{line}:7: error[E108]: the value inf does not "
                   f"fit an integer\n")
    assert not (tmp_path / "out.txt").exists()


def test_huge_integer_literal_exits_1_without_a_traceback(tmp_path, capsys):
    text = (CORPUS / "avg3.lope").read_text().replace(
        "  integer :: it\n", "  integer :: it\n  integer :: r\n  r = 1"
        + "0" * 4400 + "\n", 1)
    src = tmp_path / "huge.lope"
    src.write_text(text)
    line = next(i for i, t in enumerate(text.splitlines(), 1) if "r = 1" in t)
    assert main(["check", str(src)]) == 1
    out = capsys.readouterr()
    assert out.err == (f"{src}:{line}:7: error[E002]: integer literal of "
                       f"4401 digits is too long\n")


@pytest.mark.parametrize("command", ["check", "emit", "run"])
@pytest.mark.parametrize("text,diagnostic", [
    (HUGE_DIVISOR, "5:35: error[E104]: integer literal of 401 digits is too "
                   "large for a real"),
    ((CORPUS / "avg3.lope").read_text().replace(") / 3", ") * 1.0e999"),
     "5:35: error[E002]: expected a finite real literal, found '1.0e999'"),
], ids=["integer", "real"])
def test_kernel_literal_a_real_cannot_hold_exits_1(tmp_path, capsys, command,
                                                   text, diagnostic):
    src = tmp_path / "avg3.lope"
    src.write_text(text)
    assert main([command, str(src)]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"{src}:{diagnostic}\n"


def deep(shape: str, levels: int, leaf: str) -> str:
    """An expression ``levels`` levels deep, as MAX_EXPR_DEPTH counts."""
    inner = levels - 1
    if shape == "sum":
        return " + ".join([leaf] * levels)
    if shape == "parens":
        return "(" * inner + leaf + ")" * inner
    if shape == "calls":
        return "abs(" * inner + leaf + ")" * inner
    return "-" * inner + leaf          # signs


def deep_program(context: str, expr: str) -> str:
    text = (CORPUS / "avg3.lope").read_text()
    if context == "kernel":
        return text.replace("(A(-1) + A(0) + A(+1)) / 3", expr, 1)
    return text.replace("  integer :: it\n", "  integer :: it\n  real :: q\n",
                        1).replace("  allocate(", f"  q = {expr}\n  allocate(",
                                   1)


@pytest.mark.parametrize("context", ["kernel", "host"])
@pytest.mark.parametrize("shape", ["sum", "parens", "calls", "signs"])
def test_expression_at_the_depth_limit_goes_through_every_stage(
        tmp_path, capsys, context, shape):
    leaf = "A(0)" if context == "kernel" else "1"
    src = tmp_path / "deep.lope"
    src.write_text(deep_program(context, deep(shape, MAX_EXPR_DEPTH, leaf)))
    for command in COMMANDS:
        assert main([command[0], str(src), *command[1:],
                     *(["--images", "2"] if command == ["run"] else [])]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command", ["check", "run"])
@pytest.mark.parametrize("context", ["kernel", "host"])
@pytest.mark.parametrize("shape,levels", [
    ("sum", MAX_EXPR_DEPTH + 1), ("parens", MAX_EXPR_DEPTH + 1),
    ("calls", MAX_EXPR_DEPTH + 1), ("signs", MAX_EXPR_DEPTH + 1),
    ("sum", 1000), ("parens", 301)])
def test_expression_past_the_depth_limit_exits_1(tmp_path, capsys, command,
                                                 context, shape, levels):
    expr = deep(shape, levels, "A(0)" if context == "kernel" else "1")
    text = deep_program(context, expr)
    src = tmp_path / "deep.lope"
    src.write_text(text)
    line = next(i for i, t in enumerate(text.splitlines(), 1) if expr in t)
    assert main([command, str(src)]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith(f"{src}:{line}:")
    assert out.err.endswith(f": error[E002]: expression nested deeper than "
                            f"{MAX_EXPR_DEPTH} levels\n")
    assert out.err.count("\n") == 1
