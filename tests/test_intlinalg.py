import itertools
import math
import random
from fractions import Fraction

import numpy as np

from fanostat.intlinalg import bareiss_det, canonical_sign_mask, integer_ball


def test_bareiss_matches_numpy():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 5)
        mat = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        expected = round(np.linalg.det(np.array(mat, dtype=float)))
        assert bareiss_det(mat) == expected


def test_integer_ball_counts():
    pts = integer_ball(2, 4)
    assert len(pts) == 13
    mask = canonical_sign_mask(pts)
    assert mask.sum() == 6  # 12 nonzero points up to sign
    # every row once, against brute force over the box, with and without 0
    for dim in range(1, 6):
        for bound in (0, 1, 2, 4, 5, 9):
            r = math.isqrt(bound)
            box = itertools.product(range(-r, r + 1), repeat=dim)
            brute = {x for x in box if sum(c * c for c in x) <= bound}
            for include_zero in (True, False):
                pts = integer_ball(dim, bound, include_zero=include_zero)
                expected = brute if include_zero else brute - {(0,) * dim}
                assert pts.dtype == np.int64 and pts.shape == (len(expected), dim)
                assert {tuple(x) for x in pts.tolist()} == expected
    assert integer_ball(3, Fraction(19, 2)).shape == (len(integer_ball(3, 9)), 3)
    assert integer_ball(3, -1).shape == (0, 3)
