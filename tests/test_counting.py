import math
from fractions import Fraction

import numpy as np
import pytest

from fanostat.counting import (
    predicted_reciprocal_sum,
    veronese_reciprocal_sum,
    veronese_reciprocal_volume,
)


def two_sided_cap_volume_r3(sigma):
    """vol(C(xi, sigma) ∩ B(1)) in R^3: two spherical cones of half-angle
    arcsin(sigma), each (2 pi / 3)(1 - cos), in closed form."""
    return 4 * math.pi / 3 * (1 - math.sqrt(1 - sigma * sigma))


def test_reciprocal_sum_examples():
    # (d,n) = (2,2), q=1, sigma=1, X=1: six unit vectors, each |nu| = 1
    val = veronese_reciprocal_sum(2, 2, (0, 0, 0), 1, (1, 0, 0), 1, 1)
    assert val == pytest.approx(6.0)
    assert veronese_reciprocal_sum(2, 2, (0, 0, 0), 1, (1, 0, 0), 1, Fraction(1, 2)) == 0.0
    # monotone in X
    vals = [
        veronese_reciprocal_sum(2, 2, (0, 0, 0), 1, (1, 0, 0), 1, X) for X in (2, 4, 8)
    ]
    assert vals[0] <= vals[1] <= vals[2]


def test_reciprocal_volume_properties():
    rng = np.random.default_rng(5)
    # lower bound: the cap volume (integrand >= 1 on the unit ball)
    for sigma in (Fraction(1), Fraction(1, 2)):
        west = veronese_reciprocal_volume(2, 2, (1, 0, 0), sigma, 200000, rng)
        assert west.value >= two_sided_cap_volume_r3(float(sigma)) - 4 * west.err
    # permutation invariance of xi within MC error
    w1 = veronese_reciprocal_volume(2, 3, (1, 2, 0, 1), Fraction(1, 2), 200000, np.random.default_rng(1))
    w2 = veronese_reciprocal_volume(2, 3, (1, 0, 2, 1), Fraction(1, 2), 200000, np.random.default_rng(2))
    assert abs(w1.value - w2.value) < 4 * (w1.err + w2.err)
    # W ~ sigma^n within fitted constants across a sigma grid
    for n, d in ((2, 2), (3, 2)):
        consts = []
        for sigma in (0.3, 0.5, 0.8, 1.0):
            w = veronese_reciprocal_volume(d, n, (1,) + (0,) * n, Fraction(sigma).limit_denominator(10), 100000,
                                           np.random.default_rng(7))
            consts.append(w.value / float(Fraction(sigma).limit_denominator(10)) ** n)
        assert max(consts) / min(consts) < 8.0


def test_reciprocal_convergence():
    rng = np.random.default_rng(11)
    w = veronese_reciprocal_volume(2, 2, (1, 0, 0), 1, 400000, rng)
    ratios = []
    for X in (10, 20, 40):
        exact = veronese_reciprocal_sum(2, 2, (0, 0, 0), 1, (1, 0, 0), 1, X)
        pred = predicted_reciprocal_sum(2, 2, (0, 0, 0), 1, (1, 0, 0), 1, X, volume=w)
        ratios.append(exact / pred.value)
    assert abs(ratios[-1] - 1) < 0.1


def test_q_scaling_of_reciprocal_sum():
    # phi(q)/J_{n+1}(q) scaling matches exact sums at q in {2, 3}
    rng = np.random.default_rng(13)
    w = veronese_reciprocal_volume(2, 2, (1, 0, 0), 1, 400000, rng)
    X = 40
    for q, c in ((2, (1, 1, 1)), (3, (1, 1, 2))):
        exact = veronese_reciprocal_sum(2, 2, c, q, (1, 0, 0), 1, X)
        pred = predicted_reciprocal_sum(2, 2, c, q, (1, 0, 0), 1, X, volume=w)
        assert abs(exact / pred.value - 1) < 0.2, (q, exact, pred.value)

