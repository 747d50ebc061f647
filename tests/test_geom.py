import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from fanostat.geom import cap_constant, cone_member, proj_distance_arch, unit_ball_volume


def cone_oracle(xi, sigma, x) -> bool:
    """x in C(xi, sigma), one point at a time in Fractions:
    |x ^ xi|^2 <= sigma^2 |x|^2 |xi|^2, by the Gram identity; 0 is a member.
    The reference the vectorised `cone_member` is checked against."""
    if all(c == 0 for c in x):
        return True
    nu = sum(Fraction(c) ** 2 for c in xi)
    nx = sum(Fraction(c) ** 2 for c in x)
    ip = sum(Fraction(a) * b for a, b in zip(xi, x))
    return nx * nu - ip * ip <= Fraction(sigma) ** 2 * nx * nu


def _member(xi, sigma, x) -> bool:
    return bool(cone_member(xi, sigma, np.array([x], dtype=np.int64))[0])


def test_wedge_and_distance():
    assert proj_distance_arch((1, 0), (0, 1)) == 1.0
    assert proj_distance_arch((2, 3), (2, 3)) == 0.0
    assert proj_distance_arch((1, 1), (1, 0)) == pytest.approx(1 / math.sqrt(2))
    with pytest.raises(ValueError):
        proj_distance_arch((0, 0), (1, 0))


def test_distance_triangle_inequality():
    rng = random.Random(5)
    for _ in range(10**4):
        dim = rng.randint(2, 5)
        x, y, z = (
            [rng.gauss(0, 1) for _ in range(dim)] for _ in range(3)
        )
        if min(map(lambda v: sum(c * c for c in v), (x, y, z))) < 1e-12:
            continue
        dxz = proj_distance_arch(x, z)
        dxy = proj_distance_arch(x, y)
        dyz = proj_distance_arch(y, z)
        assert dxz <= dxy + dyz + 1e-12


def test_cone_member_is_the_ball_of_the_projective_metric():
    # away from the boundary, x is in the cap exactly when d(x, xi) <= sigma
    rng = random.Random(7)
    for _ in range(2000):
        dim = rng.randint(2, 4)
        xi = [rng.randint(-3, 3) for _ in range(dim)]
        x = [rng.randint(-9, 9) for _ in range(dim)]
        if not any(xi) or not any(x):
            continue
        sigma = Fraction(rng.randint(0, 10), 10)
        dist = proj_distance_arch(x, xi)
        if abs(dist - sigma) > 1e-9:
            assert _member(xi, sigma, x) == (dist < sigma), (xi, sigma, x)


def test_cone_membership():
    half = Fraction(1, 2)
    assert _member((1, 0, 0), half, (0, 0, 0))
    assert _member((1, 0, 0), half, (5, 0, 0))
    assert not _member((1, 0, 0), half, (0, 1, 0))
    assert _member((1, 2, 3), 1, (-7, 1, 0))
    # exact boundary: sin(45 deg) membership at aperture 1/2 vs 1
    assert not _member((1, 0), half, (1, 1))
    assert _member((1, 0), Fraction(1), (1, 1))
    # a float aperture is the binary rational it is: just below sqrt(1/2),
    # (1, 1) at distance exactly sqrt(1/2) is out, though within 1e-12
    below = math.nextafter(math.sqrt(0.5), 0)
    assert not _member((1, 0), below, (1, 1))
    assert cone_member((1, 0), below, np.empty((0, 2), dtype=np.int64)).shape == (0,)
    for xi, sigma in (((0, 0), half), ((1, 0), Fraction(-1, 2)), ((1, 0), 1.5)):
        with pytest.raises(ValueError):
            cone_member(xi, sigma, np.array([[1, 0]]))


# points at exactly the distance sigma from the axis: (3, 4) is at 4/5 from (1, 0)
_BOUNDARY = [
    ((1, 0), Fraction(4, 5), (3, 4)),
    ((1, 0), Fraction(3, 5), (4, -3)),
    ((0, 1), Fraction(5, 13), (-5, 12)),
    ((3, 4), Fraction(4, 5), (1, 0)),
    ((Fraction(1, 3), 0, 0), Fraction(15, 17), (8, 0, 15)),
    ((1, 0, 0, 0), 0.5, (3, 1, -1, 1)),
    ((2, 0, 0), 0, (-7, 0, 0)),
]


def test_cone_member_on_the_boundary():
    eps = Fraction(1, 10**12)
    for xi, sigma, x in _BOUNDARY:
        assert _member(xi, sigma, x) and cone_oracle(xi, sigma, x)
        if sigma > 0:
            assert not _member(xi, Fraction(sigma) - eps, x) and not cone_oracle(xi, Fraction(sigma) - eps, x)
        scaled = tuple(3_000_000_007 * c for c in x)  # squares past 2^63: the Python-integer tier
        assert _member(xi, sigma, scaled)


_APERTURES = [Fraction(0), Fraction(1, 10), Fraction(1, 2), Fraction(2, 3), Fraction(1), 0.3, 0.75,
              math.nextafter(math.sqrt(0.5), 0)]


def test_cone_member_matches_the_oracle():
    rng = random.Random(17)
    for n in range(1, 6):
        for trial in range(12):
            xi = [rng.randint(-4, 4) for _ in range(n + 1)]
            if trial % 3 == 1:
                xi = [Fraction(c, rng.randint(1, 6)) for c in xi]
            if not any(xi):
                xi[0] = -1
            sigma = _APERTURES[trial % len(_APERTURES)]
            span = rng.choice([2, 9, 1000, 2**40])
            X = np.array([[rng.randint(-span, span) for _ in range(n + 1)] for _ in range(100)], dtype=np.int64)
            X[:3] = 0
            X[1, 0] = span  # a multiple of e_0
            X[2] = np.array([int(c * 6) for c in xi]) * (span // 8 + 1)  # on the axis, scaled
            mask = cone_member(xi, sigma, X)
            assert mask.dtype == bool and mask.shape == (len(X),)
            assert mask.tolist() == [cone_oracle(xi, sigma, x) for x in X.tolist()], (n, xi, sigma, span)


def test_cone_member_bound_is_taken_in_python_integers():
    # max|x|^2 wraps in int64 above about 3.04e9; the point is on the axis
    assert _member((1, 0), Fraction(1, 2), (3_100_000_000, 0))
    assert cone_oracle((1, 0), Fraction(1, 2), (3_100_000_000, 0))
    rng = random.Random(29)
    for xi, sigma in (((1, 0), Fraction(1, 2)), ((3, -1, 2, 1), Fraction(1, 2)), ((1, 2, 3), Fraction(2, 3)),
                      ((-1, 1, 0, 2, 5, 1), 0.75), ((1, 1), Fraction(1)),
                      ((1, 0, 0, 0), Fraction(1))):
        m = len(xi)
        K = cap_constant(xi, sigma)
        # the largest max|x| the int64 tier takes: b |xi|_1^2 top^2 and max(a, 1) m top^2 stay below 2^63
        top = math.isqrt((2**63 - 1) // max(K.denominator * sum(map(abs, xi)) ** 2, max(K.numerator, 1) * m))
        for t in (top - 1, top, top + 1, 2**32, 2**33 + 5):
            rows = [[t * s for s in signs] for signs in itertools.product((1, -1, 0), repeat=m)]
            rows += [[t * c // max(map(abs, xi)) for c in xi], [t] + [0] * (m - 1)]
            rows += [[rng.randint(-t, t) for _ in range(m)] for _ in range(20)]
            X = np.array(rows, dtype=np.int64)
            assert cone_member(xi, sigma, X).tolist() == [cone_oracle(xi, sigma, x) for x in rows], (xi, sigma, t)
    # Python integers past int64 go through the same test
    big = np.array([[2**70, 3], [-(2**69), 2**70]], dtype=object)
    assert cone_member((1, 0), Fraction(1, 2), big).tolist() == [True, False]


def test_unit_ball_volumes():
    assert unit_ball_volume(1) == pytest.approx(2.0)
    assert unit_ball_volume(2) == pytest.approx(math.pi)
    assert unit_ball_volume(3) == pytest.approx(4 * math.pi / 3)
    assert unit_ball_volume(0) == 1.0
