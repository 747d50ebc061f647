import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from fanostat import intlinalg
from fanostat.errors import EnumerationBudgetExceeded
from fanostat.intlinalg import bareiss_det, integer_ball


def test_bareiss_matches_numpy():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 5)
        mat = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        expected = round(np.linalg.det(np.array(mat, dtype=float)))
        assert bareiss_det(mat) == expected


def test_integer_ball_counts():
    assert integer_ball(2, 4).tolist() == [[0, 1], [1, -1], [1, 0], [1, 1]]
    # exactly the primitive x of the box with first nonzero entry positive,
    # in lexicographic order, against brute force
    for dim in range(1, 7):
        for bound in (0, 1, 2, 4, 5, 9, Fraction(19, 2), -1):
            r = math.isqrt(max(math.floor(bound), 0))
            box = itertools.product(range(-r, r + 1), repeat=dim)
            expected = [
                x for x in box
                if sum(c * c for c in x) <= bound and math.gcd(*x) == 1 and next(c for c in x if c) > 0
            ]
            pts = integer_ball(dim, bound)
            assert pts.dtype == np.int64 and pts.shape == (len(expected), dim)
            assert [tuple(x) for x in pts.tolist()] == expected, (dim, bound)


def test_integer_ball_rows_do_not_depend_on_the_read_back_block(monkeypatch):
    # every ball of the brute-force test fits in one block; smaller blocks,
    # one that divides the row count among them, must give the same rows
    whole = {args: integer_ball(*args) for args in [(4, 9), (6, 5), (3, Fraction(19, 2)), (2, 4)]}
    assert len(whole[2, 4]) == 4
    for block in (1, 2, 7, 64):
        monkeypatch.setattr(intlinalg, "_READ_BLOCK", block)
        for args, rows in whole.items():
            assert np.array_equal(integer_ball(*args), rows), (args, block)


def test_integer_ball_raises_past_the_row_bound(monkeypatch):
    # the half ball of |x|^2 <= 2 in Z^3 has 2, 5 and 10 rows at its levels,
    # the zero row among them: 9 +- pairs, all primitive
    assert len(integer_ball(3, 2)) == 9
    monkeypatch.setattr(intlinalg, "MAX_BALL_ROWS", 10)
    assert len(integer_ball(3, 2)) == 9
    monkeypatch.setattr(intlinalg, "MAX_BALL_ROWS", 9)
    with pytest.raises(EnumerationBudgetExceeded) as exc:
        integer_ball(3, 2)
    assert exc.value.nodes == 10
