"""Euclidean cone and ball geometry.

The central objects are the two-sided cones

    C(u, sigma)     = { x : |x ^ u| <= sigma |x| |u| }
    C_perp(u, sigma) = { x : |<x, u>| <= sigma |x| |u| },

their intersections with the unit ball (caps and equatorial bands), and the
induced projective metric d(x, y) = |x ^ y| / (|x| |y|) = |sin(angle)|.
Wedge norms go through the Gram identity |x^y|^2 = |x|^2 |y|^2 - <x,y>^2,
so nothing quadratic in the ambient dimension is ever materialized.

Membership tests stay exact (integer/Fraction arithmetic) whenever the
inputs allow it; that is what keeps the point filters of the census exact.
Exact projection onto a subspace is `intlinalg.orthogonal_projection`; this
module only adds the float least-squares path for float inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .intlinalg import orthogonal_projection


def _is_exact(v) -> bool:
    return all(isinstance(c, (int, Fraction)) for c in v)


def wedge_norm_squared(x, y):
    nx = sum(c * c for c in x)
    ny = sum(c * c for c in y)
    ip = sum(a * b for a, b in zip(x, y))
    w = nx * ny - ip * ip
    return w if w > 0 else 0 * w


def wedge_norm(x, y) -> float:
    """|x ^ y| via the Gram identity, clamped at 0 against roundoff."""
    return math.sqrt(float(wedge_norm_squared(x, y)))


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
    aperture: object  # Fraction for exact tests, float otherwise

    def __post_init__(self):
        if all(c == 0 for c in self.axis):
            raise ValueError("cone axis must be nonzero")
        if not 0 <= self.aperture <= 1:
            raise ValueError("aperture must lie in [0, 1]")

    def __contains__(self, x):
        return cone_member(self, x)


def cone_member(cone: Cone, x) -> bool:
    """x in C(u, sigma); 0 is always a member; exact when inputs are exact."""
    return _cone_test(cone.axis, cone.aperture, x, perp=False)


def perp_cone_member(u, sigma, x) -> bool:
    """x in C_perp(u, sigma) = { |<x,u>| <= sigma |x| |u| }."""
    return _cone_test(u, sigma, x, perp=True)


def _cone_test(u, sigma, x, perp: bool) -> bool:
    if all(c == 0 for c in x):
        return True
    nu = sum(c * c for c in u)
    nx = sum(c * c for c in x)
    ip = sum(a * b for a, b in zip(u, x))
    exact = _is_exact(u) and _is_exact(x) and isinstance(sigma, (int, Fraction))
    s2 = Fraction(sigma) ** 2 if exact else float(sigma) ** 2
    if perp:
        lhs = ip * ip
    else:
        lhs = nx * nu - ip * ip
        if lhs < 0:
            lhs = 0 * lhs
    if exact:
        return lhs <= s2 * nx * nu
    return float(lhs) <= float(s2) * float(nx) * float(nu) * (1 + 1e-12)


def unit_ball_volume(N: int) -> float:
    """V_N = pi^(N/2) / Gamma(N/2 + 1); V_0 = 1."""
    if N < 0:
        raise ValueError("dimension must be >= 0")
    return math.pi ** (N / 2.0) / math.gamma(N / 2.0 + 1.0)


def adaptive_simpson(f, a: float, b: float, tol: float = 1e-12) -> float:
    """Adaptive Simpson quadrature with absolute tolerance."""

    def simpson(lo, hi, flo, fmid, fhi):
        return (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)

    def rec(lo, hi, flo, fmid, fhi, whole, eps, depth):
        mid = 0.5 * (lo + hi)
        lmid = 0.5 * (lo + mid)
        rmid = 0.5 * (mid + hi)
        fl = f(lmid)
        fr = f(rmid)
        left = simpson(lo, mid, flo, fl, fmid)
        right = simpson(mid, hi, fmid, fr, fhi)
        if depth <= 0 or abs(left + right - whole) <= 15.0 * eps:
            return left + right + (left + right - whole) / 15.0
        return rec(lo, mid, flo, fl, fmid, left, eps / 2.0, depth - 1) + rec(
            mid, hi, fmid, fr, fhi, right, eps / 2.0, depth - 1
        )

    if a == b:
        return 0.0
    fa, fb = f(a), f(b)
    fm = f(0.5 * (a + b))
    whole = simpson(a, b, fa, fm, fb)
    return rec(a, b, fa, fm, fb, whole, tol, 48)


def band_volume(N: int, sigma: float, tol: float = 1e-12) -> float:
    """vol(C_perp(xi, sigma) ∩ unit ball) in R^N, any axis.

    Closed form: 2 V_{N-1} ∫_0^sigma ((1-h^2)^((N-1)/2)
                  - (sigma^-2 - 1)^((N-1)/2) h^(N-1)) dh.
    """
    if N < 2:
        raise ValueError("band volume needs N >= 2")
    sigma = float(sigma)
    if sigma == 0.0:
        return 0.0
    if not 0 < sigma <= 1:
        raise ValueError("sigma must lie in (0, 1]")
    coeff = (1.0 / sigma**2 - 1.0) ** ((N - 1) / 2.0)

    def integrand(h):
        return (1.0 - h * h) ** ((N - 1) / 2.0) - coeff * h ** (N - 1)

    return 2.0 * unit_ball_volume(N - 1) * adaptive_simpson(integrand, 0.0, sigma, tol)


def cap_volume(N: int, sigma: float, tol: float = 1e-12) -> float:
    """vol(C(xi, sigma) ∩ unit ball) = V_N - band(N, sqrt(1 - sigma^2)).

    The complement identity is exact: the cone condition |x^u| <= sigma|x||u|
    is the complement of |<x,u>| < sqrt(1-sigma^2)|x||u| away from 0.
    """
    if N < 2:
        raise ValueError("cap volume needs N >= 2")
    sigma = float(sigma)
    if not 0 < sigma <= 1:
        raise ValueError("sigma must lie in (0, 1]")
    if sigma == 1.0:
        return unit_ball_volume(N)
    return unit_ball_volume(N) - band_volume(N, math.sqrt(1.0 - sigma * sigma), tol)


def projection_volume_bound(N: int, nu: int, sigma: float, X: float, tau: float) -> float:
    """The ceiling (tau/sigma + 1) (sigma X)^nu for projected cone volumes."""
    if not 1 <= nu <= N:
        raise ValueError("need 1 <= nu <= N")
    if not 0 < sigma <= 1 or X < 0 or not 0 <= tau <= 1:
        raise ValueError("need sigma in (0,1], X >= 0, tau in [0,1]")
    return (tau / sigma + 1.0) * (sigma * X) ** nu


class ConeIntersection(NamedTuple):
    """Intersection of C(u, sigma) with a subspace W.

    kind 'trivial': the intersection is {0}.
    kind 'subcone': the intersection equals C_W(axis, aperture) inside W
    (axis is the orthogonal projection of u, zero only when aperture = 1).
    aperture_squared and tau_squared stay exact for rational inputs.
    """

    kind: str
    axis: tuple | None
    aperture: float
    aperture_squared: object
    tau_squared: object


def cone_intersection_params(u, sigma, w_basis) -> ConeIntersection:
    """Case analysis for C(u, sigma) ∩ span(w_basis).

    With tau = |proj_W u| / |u|: tau^2 < 1 - sigma^2 gives {0}; otherwise the
    intersection is the subcone with aperture^2 = (sigma^2+tau^2-1)/tau^2
    (aperture 1 when tau = 0 and sigma = 1). Exact over rational inputs.
    """
    if all(c == 0 for c in u):
        raise ValueError("cone axis must be nonzero")
    exact = (
        _is_exact(u)
        and all(_is_exact(w) for w in w_basis)
        and isinstance(sigma, (int, Fraction))
    )
    proj = _project_onto_span(u, w_basis, exact)
    nu = sum(Fraction(c) * Fraction(c) for c in u) if exact else sum(float(c) ** 2 for c in u)
    np2 = sum(c * c for c in proj)
    tau2 = (np2 / nu) if exact else (float(np2) / float(nu))
    s2 = Fraction(sigma) ** 2 if exact else float(sigma) ** 2
    one = Fraction(1) if exact else 1.0
    if tau2 < one - s2:
        return ConeIntersection("trivial", None, 0.0, None, tau2)
    if tau2 == 0:
        # forces sigma = 1: the intersection is all of W
        return ConeIntersection("subcone", None, 1.0, one, tau2)
    ap2 = (s2 + tau2 - one) / tau2
    if ap2 < 0:
        ap2 = 0 * ap2  # roundoff guard at the exact boundary case
    return ConeIntersection("subcone", tuple(proj), math.sqrt(float(ap2)), ap2, tau2)


def _project_onto_span(u, basis, exact: bool):
    if not basis:
        raise ValueError("subspace basis must be nonempty")
    if exact:
        return orthogonal_projection(basis, u)
    B = np.array(basis, dtype=float).T
    coeffs, *_ = np.linalg.lstsq(B, np.array(u, dtype=float), rcond=None)
    return list(B @ coeffs)


def span_distance(lattice_basis, xi) -> float:
    """d(span L, xi): norm of the unit vector xi's component off span(L).

    Matches the formula d(L, xi) = |xi_2| for xi = xi_1 + xi_2 with
    xi_1 in the span and xi_2 orthogonal to it (|xi| = 1).
    """
    if not lattice_basis:
        raise ValueError("zero lattice has no span")
    norm = math.sqrt(float(sum(float(c) ** 2 for c in xi)))
    if norm == 0:
        raise ValueError("xi must be nonzero")
    unit = [float(c) / norm for c in xi]
    proj = _project_onto_span(unit, lattice_basis, False)
    off = math.fsum((a - float(b)) ** 2 for a, b in zip(unit, proj))
    return math.sqrt(max(off, 0.0))


def span_distance_squared_exact(lattice_basis, xi) -> Fraction:
    """Exact |xi_2|^2 / |xi|^2 for rational xi and integer lattice basis."""
    proj = orthogonal_projection(lattice_basis, xi)
    nxi = sum(Fraction(c) ** 2 for c in xi)
    off = sum((Fraction(a) - b) ** 2 for a, b in zip(xi, proj))
    return off / nxi
