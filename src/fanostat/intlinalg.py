"""Exact integer/rational linear algebra and lattice enumeration primitives.

All routines are exact: integer matrices use Bareiss elimination and
Hermite forms, rational work uses Fraction. Exact rational solving
(`solve_fraction`) and orthogonal projection onto a span
(`orthogonal_projection`) live here, on one normal-equations solver. Lattice
vector enumeration is Fincke-Pohst with exact rational Gram-Schmidt pruning,
so no short vector is ever missed. Big axis-aligned enumerations (Z^m balls) go through a
meet-in-the-middle numpy path instead.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from .errors import EnumerationBudgetExceeded


# ---------------------------------------------------------------------------
# dense exact helpers


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def norm2(v):
    return sum(a * a for a in v)


def gram(rows):
    return [[dot(u, v) for v in rows] for u in rows]


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


def gram_det(rows) -> int:
    """det of the Gram matrix of integer rows (square of the covolume)."""
    return bareiss_det(gram(rows))


def fraction_gram_det(rows) -> Fraction:
    g = [[sum(Fraction(a) * Fraction(b) for a, b in zip(u, v)) for v in rows] for u in rows]
    # fraction Bareiss = plain Gaussian with exact arithmetic
    n = len(g)
    if n == 0:
        return Fraction(1)
    det = Fraction(1)
    for k in range(n):
        piv = None
        for i in range(k, n):
            if g[i][k] != 0:
                piv = i
                break
        if piv is None:
            return Fraction(0)
        if piv != k:
            g[k], g[piv] = g[piv], g[k]
            det = -det
        det *= g[k][k]
        inv = 1 / g[k][k]
        for i in range(k + 1, n):
            f = g[i][k] * inv
            if f:
                g[i] = [x - f * y for x, y in zip(g[i], g[k])]
    return det


def hnf_rows(rows):
    """Row-style Hermite normal form of the lattice spanned by integer rows.

    Returns the canonical basis (nonzero rows only): row echelon, positive
    pivots, entries above each pivot reduced into [0, pivot).
    """
    mat = [list(map(int, r)) for r in rows]
    if not mat:
        return []
    m = len(mat[0])
    r = 0
    for col in range(m):
        piv = None
        for i in range(r, len(mat)):
            if mat[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        # gcd out the column below the pivot
        for i in range(r + 1, len(mat)):
            while mat[i][col] != 0:
                q = mat[r][col] // mat[i][col]
                mat[r] = [a - q * b for a, b in zip(mat[r], mat[i])]
                mat[r], mat[i] = mat[i], mat[r]
        if mat[r][col] < 0:
            mat[r] = [-a for a in mat[r]]
        for i in range(r):
            q = mat[i][col] // mat[r][col]
            if q:
                mat[i] = [a - q * b for a, b in zip(mat[i], mat[r])]
        r += 1
    return [row for row in mat[:r]]


def lattice_key(rows) -> tuple:
    """Hashable canonical form of the integer lattice spanned by rows."""
    return tuple(tuple(r) for r in hnf_rows(rows))


def integer_kernel(mat):
    """Basis rows of {x in Z^m : mat @ x = 0} for an integer matrix."""
    mat = [list(map(int, r)) for r in mat]
    if not mat:
        raise ValueError("need at least a zero row to fix the dimension")
    m = len(mat[0])
    # column operations on mat, mirrored on an identity; zero columns of the
    # eliminated matrix give kernel vectors
    a = [row[:] for row in mat]
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]  # columns of U

    def colswap(j, k):
        for row in a:
            row[j], row[k] = row[k], row[j]
        for row in u:
            row[j], row[k] = row[k], row[j]

    def coladd(j, k, q):
        # col_j -= q * col_k
        for row in a:
            row[j] -= q * row[k]
        for row in u:
            row[j] -= q * row[k]

    r = 0
    for i in range(len(a)):
        piv = None
        for j in range(r, m):
            if a[i][j] != 0:
                piv = j
                break
        if piv is None:
            continue
        colswap(r, piv)
        for j in range(r + 1, m):
            while a[i][j] != 0:
                q = a[i][r] // a[i][j]
                coladd(r, j, q)
                colswap(r, j)
        r += 1
    kernel = []
    for j in range(r, m):
        kernel.append(tuple(u[i][j] for i in range(m)))
    return kernel


def saturate_rows(rows):
    """Basis of the saturation (span over Q intersected with Z^m)."""
    if not rows:
        return []
    m = len(rows[0])
    k = integer_kernel(rows)
    if not k:
        return [tuple(1 if i == j else 0 for j in range(m)) for i in range(m)]
    return integer_kernel(k)


def _span_coefficients(rows, v):
    """Coefficients c with sum c_i rows[i] the orthogonal projection of v onto
    span(rows): Gauss-Jordan on the exact normal equations; None when the
    rows are dependent."""
    rows = [[Fraction(x) for x in r] for r in rows]
    b = [Fraction(x) for x in v]
    n = len(rows)
    aug = [
        [sum(x * y for x, y in zip(u, w)) for w in rows] + [sum(x * y for x, y in zip(u, b))]
        for u in rows
    ]
    for k in range(n):
        piv = next((i for i in range(k, n) if aug[i][k] != 0), None)
        if piv is None:
            return None
        aug[k], aug[piv] = aug[piv], aug[k]
        inv = 1 / aug[k][k]
        aug[k] = [x * inv for x in aug[k]]
        for i in range(n):
            if i != k and aug[i][k]:
                f = aug[i][k]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[k])]
    return [aug[i][n] for i in range(n)]


def _combination(coeffs, rows, m: int):
    """sum_i coeffs[i] * rows[i] in Q^m, exactly."""
    return [sum((c * Fraction(r[t]) for c, r in zip(coeffs, rows)), Fraction(0)) for t in range(m)]


def solve_fraction(mat_rows, rhs):
    """Rational a with sum a_i * mat_rows[i] == rhs for independent rows;
    None when rhs lies off their span or the rows are dependent."""
    coeffs = _span_coefficients(mat_rows, rhs)
    if coeffs is None or _combination(coeffs, mat_rows, len(rhs)) != [Fraction(x) for x in rhs]:
        return None
    return coeffs


def orthogonal_projection(rows, v):
    """Exact orthogonal projection of v onto the span of independent rows."""
    coeffs = _span_coefficients(rows, v)
    if coeffs is None:
        raise ValueError("degenerate subspace basis")
    return _combination(coeffs, rows, len(v))


def lattice_coordinates(rows, x):
    """Integer coordinates of x in the basis `rows`, or None."""
    coeffs = solve_fraction(rows, x)
    if coeffs is None:
        return None
    out = []
    for c in coeffs:
        if c.denominator != 1:
            return None
        out.append(int(c))
    return out


def minors_gcd(rows) -> int:
    """gcd of all maximal minors of the k x m matrix given by rows."""
    k = len(rows)
    m = len(rows[0])
    g = 0
    for cols in itertools.combinations(range(m), k):
        sub = [[row[c] for c in cols] for row in rows]
        g = math.gcd(g, abs(bareiss_det(sub)))
    return g


# ---------------------------------------------------------------------------
# LLL and Fincke-Pohst with exact rational GSO


def _gso(rows):
    """Exact Gram-Schmidt: returns (mu, bstar_norm2) with Fraction entries."""
    n = len(rows)
    mu = [[Fraction(0)] * n for _ in range(n)]
    bstar = [[Fraction(x) for x in r] for r in rows]
    norms = [Fraction(0)] * n
    for i in range(n):
        for j in range(i):
            if norms[j] == 0:
                raise ValueError("dependent rows in GSO")
            mu[i][j] = sum(Fraction(rows[i][t]) * bstar[j][t] for t in range(len(rows[i]))) / norms[j]
            bstar[i] = [x - mu[i][j] * y for x, y in zip(bstar[i], bstar[j])]
        norms[i] = sum(x * x for x in bstar[i])
        mu[i][i] = Fraction(1)
    return mu, norms


def lll_reduce(rows, delta=Fraction(99, 100)):
    """LLL-reduced basis of the integer lattice spanned by independent rows."""
    b = [list(map(int, r)) for r in rows]
    n = len(b)
    if n <= 1:
        return [tuple(r) for r in b]
    mu, norms = _gso(b)

    def size_reduce(k):
        for j in range(k - 1, -1, -1):
            q = round(mu[k][j])
            if q:
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
        return _gso(b)

    k = 1
    guard = 0
    while k < n:
        guard += 1
        if guard > 100000:
            raise EnumerationBudgetExceeded("LLL failed to terminate")
        mu, norms = size_reduce(k)
        if norms[k] >= (delta - mu[k][k - 1] ** 2) * norms[k - 1]:
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], b[k]
            mu, norms = _gso(b)
            k = max(k - 1, 1)
    return [tuple(r) for r in b]


def fincke_pohst(rows, bound2, budget=10**8, shift=None, include_zero=False, canonical_sign=True):
    """All lattice vectors v with |v|^2 <= bound2, exactly.

    rows: independent integer basis vectors. bound2: int or Fraction.
    shift: optional rational vector c; enumerates v in c + L instead
    (then sign canonicalization is disabled and zero is reported if hit).
    Yields (vector tuple, exact squared norm). Counts enumeration nodes
    against `budget`.
    """
    n = len(rows)
    bound2 = Fraction(bound2)
    if n == 0:
        if shift is not None:
            v = tuple(Fraction(x) for x in shift)
            if sum(x * x for x in v) <= bound2:
                yield tuple(int(x) if x.denominator == 1 else x for x in v), norm2(v)
        elif include_zero:
            yield tuple(), 0
        return
    mu, norms = _gso(rows)
    m = len(rows[0])
    if shift is None:
        svec = [Fraction(0)] * n
        shift_vec = None
    else:
        shift_vec = [Fraction(x) for x in shift]
        coeffs = solve_fraction(rows, shift_vec)
        if coeffs is None:
            raise ValueError("shift must lie in the lattice span")
        svec = [Fraction(c) for c in coeffs]
    # enumerating v = shift + sum x_i b_i; with y_i = x_i + s_i the norm is
    # sum_i (y_i + sum_{j>i} y_j mu_ji)^2 |b*_i|^2, so the admissible x_i
    # lie in an interval around a center that lower levels keep updated
    center = [-s for s in svec]

    nodes = 0
    x = [0] * n

    def rec(level, remaining, partial_center):
        nonlocal nodes
        if level < 0:
            vec = [Fraction(0)] * m
            for c, row in zip(x, rows):
                for t in range(m):
                    vec[t] += c * row[t]
            if shift_vec is not None:
                for t in range(m):
                    vec[t] += shift_vec[t]
            sq = sum(v * v for v in vec)
            if sq > bound2:
                return
            if shift_vec is None:
                if sq == 0:
                    if include_zero:
                        yield tuple(int(v) for v in vec), 0
                    return
                if canonical_sign:
                    first = next(v for v in vec if v != 0)
                    if first < 0:
                        return
            out = tuple(int(v) if v.denominator == 1 else v for v in vec)
            yield out, (int(sq) if sq.denominator == 1 else sq)
            return
        c = partial_center[level]
        if norms[level] == 0:
            raise ValueError("degenerate basis")
        # exact integer interval: (xv - c)^2 <= remaining / norms[level]
        lo, hi = _interval_around(c, remaining / norms[level])
        for xv in range(lo, hi + 1):
            nodes += 1
            if nodes > budget:
                raise EnumerationBudgetExceeded("Fincke-Pohst budget exceeded", nodes)
            diff = Fraction(xv) - c
            used = diff * diff * norms[level]
            if used > remaining:
                continue
            x[level] = xv
            y = Fraction(xv) + svec[level]
            new_center = [partial_center[j] - y * mu[level][j] for j in range(level)]
            yield from rec(level - 1, remaining - used, new_center)

    yield from rec(n - 1, bound2, center)


def _interval_around(c: Fraction, ratio: Fraction):
    """Integers xv with (xv - c)^2 <= ratio, as an inclusive interval."""
    if ratio < 0:
        return 0, -1
    # sqrt bound: find s = floor(sqrt(ratio)) + 1 as a safe Fraction radius
    num, den = ratio.numerator, ratio.denominator
    s = Fraction(math.isqrt(num * den) + 1, den)
    lo = math.ceil(c - s)
    hi = math.floor(c + s)
    # tighten exactly
    while lo <= hi and (Fraction(lo) - c) ** 2 > ratio:
        lo += 1
    while hi >= lo and (Fraction(hi) - c) ** 2 > ratio:
        hi -= 1
    return lo, hi


def short_vectors(rows, bound2, budget=10**8, canonical_sign=True):
    """List of (vector, norm2) with 0 < |v|^2 <= bound2, LLL-accelerated."""
    reduced = lll_reduce(rows)
    return list(fincke_pohst(reduced, bound2, budget=budget, canonical_sign=canonical_sign))


# ---------------------------------------------------------------------------
# Z^m ball enumeration (numpy meet-in-the-middle)


def integer_ball(dim: int, norm2_bound, include_zero=True) -> np.ndarray:
    """All x in Z^dim with |x|^2 <= norm2_bound, as an (k, dim) int64 array."""
    bound = int(math.floor(norm2_bound))
    if bound < 0:
        return np.empty((0, dim), dtype=np.int64)
    if dim == 0:
        return np.empty((1, 0), dtype=np.int64)
    half = dim // 2
    a = _box_points(half, bound)
    b = _box_points(dim - half, bound)
    na = (a * a).sum(axis=1)
    nb = (b * b).sum(axis=1)
    order = np.argsort(nb, kind="stable")
    b = b[order]
    nb = nb[order]
    rows = []
    for i in range(len(a)):
        rem = bound - na[i]
        if rem < 0:
            continue
        hi = np.searchsorted(nb, rem, side="right")
        if hi == 0:
            continue
        left = np.repeat(a[i : i + 1], hi, axis=0)
        rows.append(np.hstack([left, b[:hi]]))
    pts = np.vstack(rows) if rows else np.empty((0, dim), dtype=np.int64)
    if not include_zero:
        pts = pts[(pts != 0).any(axis=1)]
    return pts


def _box_points(dim: int, bound: int) -> np.ndarray:
    r = math.isqrt(bound)
    axes = [np.arange(-r, r + 1, dtype=np.int64)] * dim
    grid = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in grid], axis=1)
    keep = (pts * pts).sum(axis=1) <= bound
    return pts[keep]


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
