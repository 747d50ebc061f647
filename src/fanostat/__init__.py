"""Exact desk-scale verification toolkit for rational points on random Fano hypersurfaces.

The library pairs exact computations (point counts over families of forms,
p-adic and real solubility searches, finite-field censuses) with the
predicted main terms they should converge to, exposing every intermediate
quantity as a testable operation. Submodules:

- numtheory: primes and factorization, totients, CRT, unit residue
             classes, zeta
- veronese:  degree-d monomial vectors, forms, height bounds
- geom:      real cones and caps, their exact membership test, unit-ball
             volumes
- intlinalg: exact integer determinants, primitive Z^m balls up to sign
- lattice:   the theta series of the hyperplane lattice of a Veronese vector
- padic:     p-adic valuations and metric, Hensel certificates and their
             re-verification
- localsolve: local solubility, ball classification, densities
- counting:  reciprocal Veronese-norm sums and their predicted main term
- census:    hypersurface-family statistics (first moment, local census)
- cli:       the `fanostat` command: one census per call, reported as JSON
"""

__version__ = "0.1.0"
