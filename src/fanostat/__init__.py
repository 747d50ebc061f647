"""Exact desk-scale verification toolkit for rational points on random Fano hypersurfaces.

The library pairs exact computations (point counts over families of forms,
p-adic and real solubility searches, finite-field censuses) with the
predicted main terms they should converge to, exposing every intermediate
quantity as a testable operation. Submodules:

- numtheory: primes, multiplicative functions, CRT, zeta
- veronese:  degree-d monomial vectors, forms, heights and height bounds
- geom:      real cones, caps and bands, unit-ball volumes, archimedean
             projective metric
- intlinalg: exact integer linear algebra, LLL, Fincke-Pohst, Z^m balls
- lattice:   the hyperplane lattice of a Veronese vector, saturation
             determinants, torsion indices
- padic:     p-adic absolute values and metric, Hensel/Newton lifting
- localsolve: local solubility, ball classification, densities
- counting:  reciprocal Veronese-norm sums and their predicted main term
- census:    hypersurface-family statistics (first moment, local census)
- cli:       reproducible experiment runner (planned; not written yet, although
             pyproject.toml already declares its entry point)
"""

__version__ = "0.1.0"
