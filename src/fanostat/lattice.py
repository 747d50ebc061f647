"""The exact integral lattice of the dual first moment: the hyperplane
lattice {x in Z^N : <c, x> = 0} of a Veronese vector c.

A lattice is stored by its integer basis rows; its determinant is kept exact
as the integer Gram determinant under the square.
"""

from __future__ import annotations

from dataclasses import dataclass

from .intlinalg import gram_det, integer_kernel


@dataclass(frozen=True)
class IntegralLattice:
    """Integer basis rows in ambient Z^ambient; rank = number of rows."""

    ambient: int
    basis: tuple

    def __post_init__(self):
        for row in self.basis:
            if len(row) != self.ambient:
                raise ValueError("basis rows must match the ambient dimension")
        if self.basis and gram_det(self.basis) == 0:
            raise ValueError("basis rows must be linearly independent")

    def det_squared(self) -> int:
        return gram_det(self.basis) if self.basis else 1


def hyperplane_lattice(c) -> IntegralLattice:
    """{x in Z^N : <c, x> = 0}; rank N-1, primitive; det = |c|/content(c)."""
    c = [int(v) for v in c]
    if all(v == 0 for v in c):
        raise ValueError("hyperplane lattice needs c != 0")
    rows = integer_kernel([c])
    return IntegralLattice(len(c), tuple(rows))
