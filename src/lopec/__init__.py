"""lopec: compiler and SPMD simulator for halo-annotated stencil programs.

The pipeline is: :mod:`lopec.lexer` / :mod:`lopec.parser` build the AST
(:mod:`lopec.ast`), :mod:`lopec.checks` enforces the static race-freedom
rules, :mod:`lopec.ir` evaluates checked kernel bodies and owns the
column-major storage mapping, :mod:`lopec.codegen` prints C kernel source,
:mod:`lopec.plan` prints the host program as an action plan, and
:mod:`lopec.runtime` runs the checked host program on P simulated images
with halo exchange and device mirrors.
"""

from .checks import CheckResult, check_program
from .diagnostics import Diagnostic, RuntimeFault, SourcePos
from .parser import parse_source
from .runtime import Machine, RunConfig, oracle_step

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
