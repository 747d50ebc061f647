"""Exact integer primitives: the fraction-free (Bareiss) determinant, and
the Z^m balls, built coordinate by coordinate in numpy, that the family and
point enumerations are cut from.
"""

from __future__ import annotations

import math

import numpy as np


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


def integer_ball(dim: int, norm2_bound, include_zero=True) -> np.ndarray:
    """All x in Z^dim with |x|^2 <= norm2_bound, as a (k, dim) int64 array in
    lexicographic order.

    The rows grow one coordinate at a time, each carrying the norm it has
    left, so no partial row outside the ball is ever made. Each level keeps
    only (parent, value) indices; the rows are read back once at the end.
    """
    bound = int(math.floor(norm2_bound))
    if bound < 0:
        return np.empty((0, dim), dtype=np.int64)
    r = math.isqrt(bound)
    values = np.arange(-r, r + 1, dtype=np.int64)
    squares = values * values
    left = np.array([bound], dtype=np.int64)
    levels = []
    for _ in range(dim):
        parent, value = np.nonzero(squares <= left[:, None])
        left = left[parent] - squares[value]
        levels.append((parent, value))
    pts = np.empty((len(left), dim), dtype=np.int64)
    rows = np.arange(len(left))
    for k in reversed(range(dim)):
        parent, value = levels[k]
        pts[:, k] = values[value[rows]]
        rows = parent[rows]
    if not include_zero:
        pts = pts[(pts != 0).any(axis=1)]
    return pts


def canonical_sign_mask(pts: np.ndarray) -> np.ndarray:
    """Mask selecting one representative of each +-pair (first nonzero > 0)."""
    n = pts.shape[0]
    mask = np.zeros(n, dtype=bool)
    decided = np.zeros(n, dtype=bool)
    for j in range(pts.shape[1]):
        col = pts[:, j]
        mask |= (~decided) & (col > 0)
        decided |= col != 0
    return mask
