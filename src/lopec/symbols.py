"""Symbol table for the main program.

Entities come from declarations; a fixed set of integer scalars is pre-seeded
by the runtime (grid shape, per-image interior extents, image coordinates and
the step count) and behaves as implicitly declared — redeclaring one is a
duplicate-declaration error.

Array rank comes from ``dimension(:,...)`` or, failing that, from the halo
dimension count; corank from ``codimension[...]``.  Consistency rules:

* halo dimension count must equal the rank (E012), halo widths at most 8 per
  side (E012);
* corank is 0, 1 or 2 and must equal the rank when non-zero (E105).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from .ast import DeclAttrs, HaloSpec, Program, TypeDecl
from .diagnostics import (DUPLICATE_DECL, HALO_SHAPE, RANK_CORANK, ALLOC_SHAPE,
                          Diagnostic, SourcePos, error)

MAX_HALO_WIDTH = 8

# Integer scalars every image's environment provides without declaration.
BUILTIN_SCALARS = ("p", "mp", "np", "pcol", "prow", "m", "n", "nsteps")


@dataclass
class ScalarEntity:
    name: str
    elem_type: str
    decl_pos: SourcePos
    builtin: bool = False


@dataclass
class ArrayEntity:
    name: str
    elem_type: str
    rank: int
    corank: int
    halo: Optional[HaloSpec]
    allocatable: bool
    decl_pos: SourcePos


Entity = Union[ScalarEntity, ArrayEntity]


@dataclass
class SymbolTable:
    entities: dict[str, Entity] = field(default_factory=dict)

    def lookup(self, name: str) -> Optional[Entity]:
        return self.entities.get(name)

    def arrays(self) -> list[ArrayEntity]:
        return [e for e in self.entities.values() if isinstance(e, ArrayEntity)]


def decl_rank(a: DeclAttrs) -> int:
    """The ``dimension(:,...)`` count, else the halo dimension count."""
    if a.dim_count is not None:
        return a.dim_count
    return a.halo.rank if a.halo is not None else 0


def entity_from_decl(decl: TypeDecl, name: str) -> tuple[Entity, list[Diagnostic]]:
    """Derive one entity from a declaration; returns (entity, diagnostics)."""
    diags: list[Diagnostic] = []
    a = decl.attrs
    rank = decl_rank(a)
    if a.halo is not None:
        if a.dim_count is not None and a.halo.rank != a.dim_count:
            diags.append(error(
                HALO_SHAPE, decl.pos,
                f"halo of '{name}' has {a.halo.rank} dimension(s) but the "
                f"array rank is {a.dim_count}"))
        for d, h in enumerate(a.halo.dims):
            if h.is_deferred:
                continue
            if h.lo > MAX_HALO_WIDTH or h.hi > MAX_HALO_WIDTH:
                diags.append(error(
                    HALO_SHAPE, decl.pos,
                    f"halo width of '{name}' in dim {d + 1} exceeds the "
                    f"maximum of {MAX_HALO_WIDTH} cells per side"))
    corank = a.corank or 0
    if corank > 2:
        diags.append(error(
            RANK_CORANK, decl.pos,
            f"corank of '{name}' is {corank}; at most 2 is supported"))
    elif corank > 0 and corank != rank:
        diags.append(error(
            RANK_CORANK, decl.pos,
            f"'{name}' has rank {rank} but corank {corank}; a coarray's "
            f"corank must equal its rank"))
    if rank == 0:
        if a.allocatable:
            diags.append(error(
                ALLOC_SHAPE, decl.pos, f"scalar '{name}' cannot be allocatable"))
        return ScalarEntity(name, decl.base, decl.pos), diags
    return ArrayEntity(name, decl.base, rank, corank, a.halo,
                       a.allocatable, decl.pos), diags


def build_symbol_table(program: Program) -> tuple[SymbolTable, list[Diagnostic]]:
    table = SymbolTable()
    for b in BUILTIN_SCALARS:
        table.entities[b] = ScalarEntity(b, "integer", SourcePos("<builtin>", 0, 0),
                                         builtin=True)
    diags: list[Diagnostic] = []
    for decl in program.decls:
        for name in decl.names:
            existing = table.lookup(name)
            if existing is not None:
                what = ("the built-in runtime scalar"
                        if getattr(existing, "builtin", False) else
                        "an entity already declared")
                diags.append(error(
                    DUPLICATE_DECL, decl.pos,
                    f"'{name}' redeclares {what}"))
                continue
            entity, ediags = entity_from_decl(decl, name)
            diags.extend(ediags)
            table.entities[name] = entity
    return table, diags
