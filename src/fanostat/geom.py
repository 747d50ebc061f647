"""Euclidean cone geometry: the two-sided cones

    C(u, sigma) = { x : |x ^ u| <= sigma |x| |u| },

the projective metric d(x, y) = |x ^ y| / (|x| |y|) = |sin(angle)| they are
balls of, and unit-ball volumes. Wedge norms go through the Gram identity
|x^y|^2 = |x|^2 |y|^2 - <x,y>^2, so nothing quadratic in the ambient
dimension is ever materialized.

Cone membership is exact whenever the axis and the point are exact
(integers or Fractions), also for a float aperture, which is read as the
binary rational it is; that is what keeps the point filters of the census
and the real decider's cap grid exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


def _is_exact(v) -> bool:
    return all(isinstance(c, (int, Fraction)) for c in v)


def wedge_norm_squared(x, y):
    nx = sum(c * c for c in x)
    ny = sum(c * c for c in y)
    ip = sum(a * b for a, b in zip(x, y))
    w = nx * ny - ip * ip
    return w if w > 0 else 0 * w


def proj_distance_arch(x, y) -> float:
    """d(x, y) = |x ^ y| / (|x| |y|) in [0, 1]; |sin| of the angle."""
    nx = sum(c * c for c in x)
    ny = sum(c * c for c in y)
    if nx == 0 or ny == 0:
        raise ValueError("projective distance needs nonzero vectors")
    val = math.sqrt(float(wedge_norm_squared(x, y)) / float(nx * ny))
    return min(val, 1.0)


@dataclass(frozen=True)
class Cone:
    """Two-sided cone with axis u and aperture sigma = sin(half-angle)."""

    axis: tuple
    aperture: object  # a Fraction or a float; either is read exactly against exact points

    def __post_init__(self):
        if all(c == 0 for c in self.axis):
            raise ValueError("cone axis must be nonzero")
        if not 0 <= self.aperture <= 1:
            raise ValueError("aperture must lie in [0, 1]")

    def __contains__(self, x):
        return cone_member(self, x)


def cone_member(cone: Cone, x) -> bool:
    """x in C(u, sigma); 0 is always a member. Exact when the axis and x are
    exact, whatever the type of sigma; float inputs get a relative slack of
    1e-12."""
    u, sigma = cone.axis, cone.aperture
    if all(c == 0 for c in x):
        return True
    nu = sum(c * c for c in u)
    nx = sum(c * c for c in x)
    ip = sum(a * b for a, b in zip(u, x))
    if _is_exact(u) and _is_exact(x):
        return nx * nu - ip * ip <= Fraction(sigma) ** 2 * nx * nu
    return float(nx * nu - ip * ip) <= float(sigma) ** 2 * float(nx) * float(nu) * (1 + 1e-12)


def unit_ball_volume(N: int) -> float:
    """V_N = pi^(N/2) / Gamma(N/2 + 1); V_0 = 1."""
    if N < 0:
        raise ValueError("dimension must be >= 0")
    return math.pi ** (N / 2.0) / math.gamma(N / 2.0 + 1.0)
