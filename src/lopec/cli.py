"""Command-line driver.

Subcommands:

* ``check`` — compile a source file and report diagnostics.
* ``ast``   — print the abstract syntax tree as a deterministic term dump.
* ``emit``  — print generated kernel source (``--target kernel-c``) or the
  host plan (``--target plan``).
* ``run``   — simulate the program on P images and write the final field.

Exit codes: 0 success, 1 compile diagnostics, 2 usage or I/O problem
(including a standard output closed by its reader), 3 runtime fault.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from typing import Optional

from .astdump import dump_ast
from .checks import check_program
from .codegen import EmitConfig, emit_kernel_source
from .diagnostics import RuntimeFault, sort_diagnostics
from .lowering import lower_kernel
from .parser import parse_source
from .plan import desugar, format_plan

EXIT_OK = 0
EXIT_DIAGNOSTICS = 1
EXIT_USAGE = 2
EXIT_FAULT = 3


def _read_source(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise SystemExit(_usage_error(f"cannot read {path}: {exc.strerror}"))
    except UnicodeDecodeError as exc:
        raise SystemExit(_usage_error(
            f"cannot read {path}: not UTF-8 text at byte {exc.start}"))


def _usage_error(message: str) -> int:
    print(f"lopec: error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _report(diagnostics) -> None:
    for d in sort_diagnostics(diagnostics):
        print(d.render(), file=sys.stderr)


def _compile(path: str):
    """Parse and check; returns (result, exit_code)."""
    text = _read_source(path)
    program, diags = parse_source(text, path)
    if program is None:
        _report(diags)
        return None, EXIT_DIAGNOSTICS
    result = check_program(program)
    if not result.ok:
        _report(result.diagnostics)
        return None, EXIT_DIAGNOSTICS
    return result, EXIT_OK


def _write(output: Optional[str], write) -> None:
    """``write(stream)`` into standard output, or into the file ``output``."""
    if output is None:
        write(sys.stdout)
        return
    try:
        with open(output, "w", encoding="utf-8") as fh:
            write(fh)
    except OSError as exc:
        raise SystemExit(_usage_error(f"cannot write {output}: {exc.strerror}"))


def _check_output(path: str) -> None:
    """Refuse, as writing it would, an output that cannot be written: a
    directory, a path in a missing or read-only folder, a read-only file.
    The file is neither created nor truncated."""
    folder = os.path.dirname(path) or "."
    if os.path.isdir(path):
        code = errno.EISDIR
    elif os.path.exists(path):
        code = 0 if os.access(path, os.W_OK) else errno.EACCES
    elif not path or not os.path.isdir(folder):
        code = errno.ENOTDIR if os.path.isfile(folder) else errno.ENOENT
    else:
        code = 0 if os.access(folder, os.W_OK | os.X_OK) else errno.EACCES
    if code:
        raise SystemExit(_usage_error(f"cannot write {path}: "
                                      f"{os.strerror(code)}"))


def _write_text(text: str, output: Optional[str]) -> None:
    _write(output, lambda fh: fh.write(text))


def cmd_check(args: argparse.Namespace) -> int:
    result, code = _compile(args.file)
    if result is None:
        return code
    print(f"{args.file}: ok")
    return EXIT_OK


def cmd_ast(args: argparse.Namespace) -> int:
    text = _read_source(args.file)
    program, diags = parse_source(text, args.file)
    if program is None:
        _report(diags)
        return EXIT_DIAGNOSTICS
    _write_text(dump_ast(program) + "\n", args.output)
    return EXIT_OK


def cmd_emit(args: argparse.Namespace) -> int:
    result, code = _compile(args.file)
    if result is None:
        return code
    if args.target == "plan":
        _write_text(format_plan(desugar(result.program)) + "\n", args.output)
        return EXIT_OK
    config = EmitConfig(real_c_type=args.real_type)
    chunks = []
    for name in result.kernels:
        ir = lower_kernel(result.kernels[name])
        chunks.append(emit_kernel_source(ir, config))
    _write_text("\n".join(chunks), args.output)
    return EXIT_OK


def cmd_run(args: argparse.Namespace) -> int:
    # numpy and the simulator load only here: check, ast and emit skip them
    from .arrayio import ArrayFormatError, read_array_file, write_array
    from .runtime import Machine, RunConfig
    result, code = _compile(args.file)
    if result is None:
        return code
    input_field = None
    if args.input is not None:
        try:
            input_field = read_array_file(args.input)
        except OSError as exc:
            return _usage_error(f"cannot read {args.input}: {exc.strerror}")
        except ArrayFormatError as exc:
            return _usage_error(f"{args.input}: {exc}")
    if args.output is not None:     # before the run, not after it
        _check_output(args.output)
    config = RunConfig(
        images=args.images,
        grid_rows=args.grid_rows,
        devices=args.devices,
        steps=args.steps,
        shuffle_seed=args.shuffle_seed,
    )
    try:
        machine = Machine(result, config, input_field)
        machine.run()
        field = machine.gather()
    except RuntimeFault as fault:
        print(fault.render(), file=sys.stderr)
        return EXIT_FAULT
    _write(args.output, lambda fh: write_array(fh, field))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lopec",
        description="Compiler and P-image simulator for halo-annotated "
                    "stencil programs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="compile and report diagnostics")
    p_check.add_argument("file")
    p_check.set_defaults(func=cmd_check)

    p_ast = sub.add_parser("ast", help="print the AST term dump")
    p_ast.add_argument("file")
    p_ast.add_argument("-o", "--output", default=None)
    p_ast.set_defaults(func=cmd_ast)

    p_emit = sub.add_parser("emit", help="print generated kernel source")
    p_emit.add_argument("file")
    p_emit.add_argument("--target", choices=("kernel-c", "plan"),
                        default="kernel-c")
    p_emit.add_argument("--real-type", choices=("float", "double"),
                        default="float")
    p_emit.add_argument("-o", "--output", default=None)
    p_emit.set_defaults(func=cmd_emit)

    p_run = sub.add_parser("run", help="simulate on P images")
    p_run.add_argument("file")
    p_run.add_argument("--images", type=int, default=1,
                       help="number of images P (default 1)")
    p_run.add_argument("--grid-rows", type=int, default=1,
                       help="process-grid rows MP; P must be divisible "
                            "(default 1)")
    p_run.add_argument("--devices", type=int, default=0,
                       help="device subimages per image (default 0)")
    p_run.add_argument("--steps", type=int, default=1,
                       help="value of nsteps (default 1)")
    p_run.add_argument("--input", default=None,
                       help="initial field file (header 'M N', N rows)")
    p_run.add_argument("--output", "-o", default=None,
                       help="write the final field here instead of stdout")
    p_run.add_argument("--shuffle-seed", type=int, default=None,
                       help="run kernel points one at a time in a seeded "
                            "random order")
    p_run.set_defaults(func=cmd_run)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    if args.command == "run":
        if args.images < 1:
            return _usage_error("--images must be at least 1")
        if args.grid_rows < 1:
            return _usage_error("--grid-rows must be at least 1")
        if args.devices < 0:
            return _usage_error("--devices must be non-negative")
        if args.steps < 0:
            return _usage_error("--steps must be non-negative")
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else EXIT_USAGE
    except BrokenPipeError:
        # The reader closed standard output.  Point it at the null device
        # so that the flush at interpreter exit has nowhere to fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return _usage_error("standard output was closed")


if __name__ == "__main__":
    sys.exit(main())
