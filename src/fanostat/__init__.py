"""Exact desk-scale verification toolkit for rational points on random Fano hypersurfaces.

The library pairs exact enumerative computations (lattice point counts,
p-adic solubility searches, finite-field censuses) with the predicted main
terms they should converge to, exposing every intermediate quantity as a
testable operation. Submodules:

- numtheory: multiplicative functions, CRT, zeta
- veronese:  degree-d monomial vectors, forms, heights
- geom:      cones, cap/band volumes, archimedean projective metric
- lattice:   exact lattice algebra, minima, censuses
- padic:     p-adic metric and Hensel/Newton lifting
- localsolve: local solubility, ball classification, densities
- counting:  constrained lattice counts and their predicted main terms
- census:    hypersurface-family statistics (first moment, local census)
- cli:       reproducible experiment runner (planned; not written yet, although
             pyproject.toml already declares its entry point)
"""

__version__ = "0.1.0"
