"""Source positions, error codes, and diagnostic records.

Every tool stage (lexer, parser, semantic checks, runtime) reports problems
as ``Diagnostic`` values carrying a stable ``E###`` code and a 1-based
file/line/column position.  Rendering is fixed as::

    file.lope:12:5: error[E101]: message

so scripts can match on it.  Diagnostics are sorted by source position
(then code) before printing, which keeps multi-error output deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

# Lexical / syntactic
LEX_ERROR = "E001"
PARSE_ERROR = "E002"

# Declarations
DUPLICATE_DECL = "E010"
UNDECLARED = "E011"
HALO_SHAPE = "E012"

# Kernel constraints
HALO_WRITE = "E101"
HALO_BOUNDS = "E102"
STORE_THEN_HALO_READ = "E103"
IMPURE_KERNEL = "E104"

# Host / coarray constraints
RANK_CORANK = "E105"
MISSING_HALO = "E106"
DEVICE_NOT_SUBIMAGE = "E107"
ALLOC_SHAPE = "E108"

# Runtime faults
GRID_FACTOR = "E201"
UNALLOCATED = "E202"


class SourcePos(NamedTuple):
    """1-based position of a token or construct in an input file.

    A tuple, so positions order by (file, line, col).
    """

    file: str
    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.col}"


@dataclass(frozen=True)
class Diagnostic:
    code: str
    pos: SourcePos
    message: str

    def render(self) -> str:
        return f"{self.pos}: error[{self.code}]: {self.message}"


def error(code: str, pos: SourcePos, message: str) -> Diagnostic:
    return Diagnostic(code, pos, message)


def sort_diagnostics(diags: list[Diagnostic]) -> list[Diagnostic]:
    """Deterministic reporting order: by position, then code."""
    return sorted(diags, key=lambda d: (d.pos, d.code))


class CompileError(Exception):
    """Raised by stages that abort on first error; carries the diagnostic."""

    def __init__(self, diagnostic: Diagnostic):
        super().__init__(diagnostic.render())
        self.diagnostic = diagnostic


class LexError(CompileError):
    pass


class ParseError(CompileError):
    pass


class RuntimeFault(Exception):
    """Execution-time failure (grid factorization, unallocated use, I/O...).

    Rendered in the same ``file:line:col: error[E###]: message`` form when a
    source position is attached, otherwise as ``error[E###]: message``.
    """

    def __init__(self, code: str, message: str, pos: SourcePos | None = None):
        self.code = code
        self.message = message
        self.pos = pos
        super().__init__(self.render())

    def render(self) -> str:
        if self.pos is not None:
            return f"{self.pos}: error[{self.code}]: {self.message}"
        return f"error[{self.code}]: {self.message}"
