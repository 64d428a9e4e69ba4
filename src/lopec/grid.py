"""Process-grid factorization and image-coordinate bookkeeping.

P images form an MP x NP grid (NP = P / MP).  Image numbering is
column-major over the grid, mirroring the coarray cosubscript order::

    prow(k) = ((k - 1) mod MP) + 1        in 1..MP
    pcol(k) = ((k - 1) div MP) + 1        in 1..NP

Array dimension 1 is decomposed over the pcol axis (NP blocks) and array
dimension 2 over the prow axis (MP blocks); rank-1 coarrays require MP = 1
so the single distributed dimension maps onto a 1 x P grid.  Cosubscripts
wrap cyclically in both axes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagnostics import GRID_FACTOR, RuntimeFault


@dataclass(frozen=True)
class ProcessGrid:
    p: int
    mp: int     # rows
    np: int     # columns

    def coords(self, image: int) -> tuple[int, int]:
        """(pcol, prow) of a 1-based image index."""
        if not 1 <= image <= self.p:
            raise ValueError(f"image {image} outside 1..{self.p}")
        prow = ((image - 1) % self.mp) + 1
        pcol = ((image - 1) // self.mp) + 1
        return pcol, prow

    def image_at(self, pcol, prow):
        """Image index at cyclically wrapped grid coordinates: ints or
        broadcastable integer arrays."""
        pc = ((pcol - 1) % self.np) + 1
        pr = ((prow - 1) % self.mp) + 1
        return (pc - 1) * self.mp + pr


def create_grid(p: int, mp: int) -> ProcessGrid:
    """Validate and build the MP x NP factorization of P images."""
    if p < 1:
        raise RuntimeFault(GRID_FACTOR, f"image count {p} must be at least 1")
    if mp < 1:
        raise RuntimeFault(GRID_FACTOR, f"grid rows {mp} must be at least 1")
    if p % mp != 0:
        raise RuntimeFault(
            GRID_FACTOR,
            f"cannot factor {p} image(s) into {mp} grid row(s): {mp} does "
            f"not divide {p}")
    return ProcessGrid(p, mp, p // mp)
