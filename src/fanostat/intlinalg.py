"""Exact integer primitives: the fraction-free (Bareiss) determinant, and
the primitive Z^m balls up to sign, built coordinate by coordinate in numpy,
that are the family and point enumerations.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import EnumerationBudgetExceeded

# the most rows, imprimitive ones included, that a level of `integer_ball`
# may hold: the one size bound of the family and point enumerations
MAX_BALL_ROWS = 10**7
_READ_BLOCK = 4096  # rows `integer_ball` reads back at a time, through every level


def bareiss_det(mat) -> int:
    """Exact determinant of a square integer matrix (fraction-free)."""
    a = [list(map(int, row)) for row in mat]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


def integer_ball(dim: int, norm2_bound) -> np.ndarray:
    """The primitive x in Z^dim with |x|^2 <= norm2_bound and first nonzero
    entry positive, one row per +- pair, as a (k, dim) int64 array in
    lexicographic order.

    The rows grow one coordinate at a time, each carrying the norm it has
    left and the gcd of its entries so far; a row whose gcd is still 0 (no
    nonzero entry yet) takes no negative value. So no partial row outside
    the ball and no row of the negative half is ever made. Each level keeps
    only (parent, value) indices; the primitive rows of the last level are
    read back once at the end, in row blocks. Every row extends by 0, so
    the levels only grow: the first of more than MAX_BALL_ROWS rows raises
    EnumerationBudgetExceeded, before the row array is allocated.
    """
    bound = int(math.floor(norm2_bound))
    r = math.isqrt(max(bound, 0))
    values = np.arange(-r, r + 1, dtype=np.int64)
    squares = values * values
    left = np.array([bound], dtype=np.int64)
    gcd = np.zeros(1, dtype=np.int64)
    levels = []
    for _ in range(dim):
        fits = squares <= left[:, None]
        fits[gcd == 0, :r] = False
        parent, value = np.nonzero(fits)
        if len(parent) > MAX_BALL_ROWS:
            raise EnumerationBudgetExceeded("ball too large", len(parent))
        left = left[parent] - squares[value]
        gcd = np.gcd(gcd[parent], values[value])
        levels.append((parent, value))
    keep = np.flatnonzero(gcd == 1)
    pts = np.empty((len(keep), dim), dtype=np.int64)
    for lo in range(0, len(keep), _READ_BLOCK):
        rows = keep[lo : lo + _READ_BLOCK]
        for k in reversed(range(dim)):
            parent, value = levels[k]
            pts[lo : lo + _READ_BLOCK, k] = values[value[rows]]
            rows = parent[rows]
    return pts
