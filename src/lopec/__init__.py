"""lopec: compiler and SPMD simulator for halo-annotated stencil programs.

The pipeline is: :mod:`lopec.lexer` / :mod:`lopec.parser` build the AST
(:mod:`lopec.ast`), :mod:`lopec.checks` enforces the static race-freedom
rules, :mod:`lopec.lowering` lowers checked kernels and owns the
column-major storage mapping, :mod:`lopec.codegen` prints C kernel source,
:mod:`lopec.plan` prints the host program as an action plan, and
:mod:`lopec.runtime` runs the checked host program on P simulated images
through :mod:`lopec.ir`.  The simulator alone loads numpy, on first use of
``Machine``, ``RunConfig`` or ``oracle_step``.
"""

from .checks import CheckResult, check_program
from .diagnostics import Diagnostic, RuntimeFault, SourcePos
from .parser import parse_source

__version__ = "0.1.0"

__all__ = [
    "CheckResult",
    "check_program",
    "Diagnostic",
    "RuntimeFault",
    "SourcePos",
    "parse_source",
    "Machine",
    "RunConfig",
    "oracle_step",
    "__version__",
]


def __getattr__(name):
    if name in ("Machine", "RunConfig", "oracle_step"):
        from . import runtime
        return getattr(runtime, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
