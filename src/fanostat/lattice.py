"""Exact integral lattices: the hyperplane lattice of the dual first moment
and the invariants of a vector inside a lattice.

A lattice is stored by its integer basis rows. Its determinant is kept
exact as the integer Gram determinant under the square; so is the
determinant of the saturation of a span (`saturation_det_squared`).
Contents, torsion indices and q-primitivity are exact gcds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .intlinalg import gram_det, integer_kernel, lattice_coordinates, minors_gcd


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

    @property
    def rank(self) -> int:
        return len(self.basis)

    def det_squared(self) -> int:
        return gram_det(self.basis) if self.basis else 1

    def coordinates(self, x):
        return lattice_coordinates(self.basis, x) if self.basis else None

    def serialize(self) -> str:
        lines = [f"{self.ambient} {self.rank}"]
        lines += [" ".join(str(c) for c in row) for row in self.basis]
        return "\n".join(lines)

    @classmethod
    def deserialize(cls, text: str) -> "IntegralLattice":
        lines = [ln for ln in text.strip().splitlines() if ln.strip()]
        ambient, rank = map(int, lines[0].split())
        rows = [tuple(map(int, ln.split())) for ln in lines[1 : 1 + rank]]
        return cls(ambient, tuple(rows))


def standard_lattice(N: int) -> IntegralLattice:
    rows = tuple(tuple(1 if i == j else 0 for j in range(N)) for i in range(N))
    return IntegralLattice(N, rows)


def from_rows(rows) -> IntegralLattice:
    rows = [tuple(int(c) for c in r) for r in rows]
    if not rows:
        raise ValueError("need at least one basis row")
    return IntegralLattice(len(rows[0]), tuple(rows))


def hyperplane_lattice(c) -> IntegralLattice:
    """{x in Z^N : <c, x> = 0}; rank N-1, primitive; det = |c|/content(c)."""
    c = [int(v) for v in c]
    if all(v == 0 for v in c):
        raise ValueError("hyperplane lattice needs c != 0")
    rows = integer_kernel([c])
    return IntegralLattice(len(c), tuple(rows))


def saturation_det_squared(vectors) -> int:
    """Exact square of the determinant of the primitive closure of the span.

    Equals gram_det(vectors) / gcd(maximal minors)^2; an integer by
    Cauchy-Binet since the Gram determinant is the sum of squared minors.
    """
    vectors = [tuple(int(c) for c in v) for v in vectors]
    g2 = gram_det(vectors)
    if g2 == 0:
        raise ValueError("vectors must be independent")
    G = minors_gcd(vectors)
    assert g2 % (G * G) == 0
    return g2 // (G * G)


def content(v) -> int:
    """gcd of the entries; 0 for the zero vector."""
    return math.gcd(*[abs(int(c)) for c in v]) if len(v) else 0


def torsion_index(v, lat: IntegralLattice | None = None) -> int:
    """#(M/Zv)_tors: the integer k with v = k * (primitive vector of M); 0 at v=0."""
    if all(c == 0 for c in v):
        return 0
    if lat is None:
        return content(v)
    coords = lat.coordinates(v)
    if coords is None:
        raise ValueError("v is not in the lattice")
    return content(coords)


def q_primitive(c, q: int, lat: IntegralLattice | None = None) -> bool:
    """d | q and c in d*L imply d = 1; via gcd(torsion index, q) = 1."""
    if q < 1:
        raise ValueError("q must be >= 1")
    if all(x == 0 for x in c):
        return q == 1
    return math.gcd(torsion_index(c, lat), q) == 1
