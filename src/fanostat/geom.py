"""Euclidean cone geometry: the two-sided cones

    C(xi, sigma) = { x : |x ^ xi| <= sigma |x| |xi| }
                 = { x : <x, xi>^2 >= K |x|^2 },  K = (1 - sigma^2) |xi|^2,

the balls of the projective metric d(x, y) = |x ^ y| / (|x| |y|) =
|sin(angle)| (`proj_distance_arch`), and unit-ball volumes. Wedge norms go through the Gram
identity |x^y|^2 = |x|^2 |y|^2 - <x,y>^2, so nothing quadratic in the
ambient dimension is ever materialized.

The cap {d(x, xi) <= sigma} is defined once, here: `cap_constant` is K and
`cap_matrix` the quadratic form <x, xi>^2 - K |x|^2 whose nonnegative set it
is, both exact, also for a float aperture, which is read as the binary
rational it is. `cone_member` is the one exact membership test: a row mask
of an integer array, computed in int64 where a bound in Python integers
shows every product fits, and in Python integers otherwise. Every point
filter of the census, the first moment, the reciprocal sums and the real
decider's cap grid goes through it, and so does every point of a real
certificate (`localsolve.verify_real_certificate`).
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def proj_distance_arch(x, y) -> float:
    """d(x, y) = |x ^ y| / (|x| |y|) in [0, 1]; |sin| of the angle."""
    nx, ny, ip = sum(c * c for c in x), sum(c * c for c in y), sum(a * b for a, b in zip(x, y))
    if nx == 0 or ny == 0:
        raise ValueError("projective distance needs nonzero vectors")
    return min(math.sqrt(max(float(nx * ny - ip * ip), 0.0) / float(nx * ny)), 1.0)


def cap_constant(xi, sigma) -> Fraction:
    """K = (1 - sigma^2) |xi|^2, exactly."""
    return (1 - Fraction(sigma) ** 2) * sum(Fraction(c) ** 2 for c in xi)


def cap_matrix(xi, sigma):
    """(Gn, g): G = Gn/g with Gn an integer matrix and g > 0, where
    G = xi xi^T - K I (`cap_constant`), exactly. The real cap
    {d(x, xi) <= sigma} is {x : G(x) >= 0}."""
    xi = [Fraction(c) for c in xi]
    K = cap_constant(xi, sigma)
    G = [[a * b - (K if i == j else 0) for j, b in enumerate(xi)] for i, a in enumerate(xi)]
    g = math.lcm(*(v.denominator for row in G for v in row))
    return [[int(v * g) for v in row] for row in G], g


def integer_axis(xi) -> list:
    """The nonzero axis xi times the least common denominator of its
    entries: an integer vector with the same cone and the same sign of every
    inner product."""
    axis = [Fraction(c) for c in xi]
    if all(c == 0 for c in axis):
        raise ValueError("cone axis must be nonzero")
    den = math.lcm(*(c.denominator for c in axis))
    return [int(c * den) for c in axis]


def cone_member(xi, sigma, X) -> np.ndarray:
    """Row mask of the integer array X: x in C(xi, sigma), exactly; 0 is
    always a member.

    With the integer axis u (`integer_axis`) and K = (1 - sigma^2)|u|^2 = a/b,
    the test is b <x, u>^2 >= a |x|^2. It runs in int64 when every product
    provably fits: max(b |u|_1^2, max(a, 1) m) max|x|^2 < 2^63 for m columns,
    a bound taken in Python integers; otherwise it runs in Python integers.
    """
    if not 0 <= sigma <= 1:
        raise ValueError("aperture must lie in [0, 1]")
    u = integer_axis(xi)
    K = cap_constant(u, sigma)
    a, b = K.numerator, K.denominator
    top = max(int(X.max(initial=1)), -int(X.min(initial=0)))
    fits = max(b * sum(map(abs, u)) ** 2, max(a, 1) * X.shape[1]) * top * top < 2**63
    X = X.astype(np.int64 if fits else object, copy=False)
    ip, nx = X @ np.array(u, dtype=X.dtype), (X * X).sum(axis=1)
    return np.asarray(b * ip * ip >= a * nx, dtype=bool)


def unit_ball_volume(N: int) -> float:
    """V_N = pi^(N/2) / Gamma(N/2 + 1); V_0 = 1."""
    if N < 0:
        raise ValueError("dimension must be >= 0")
    return math.pi ** (N / 2.0) / math.gamma(N / 2.0 + 1.0)
