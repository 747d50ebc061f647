"""Exact integer/rational linear algebra and lattice enumeration primitives.

All routines are exact: integer determinants use Bareiss elimination,
rational work uses Fraction. `_echelon` (the row Hermite normal form with
its unimodular transform) is the package's one integer row reduction:
Hermite bases (`hnf_rows`), integer kernels (`integer_kernel`) and
saturations (`saturate_rows`) all read off its output. Exact rational
solving (`solve_fraction`) runs on the normal equations. The lattice core
runs on one integral Gram-Schmidt (`integral_gso`: the Gram determinants d_i
and the integers lam_ij = d_j mu_ij): integral LLL (Cohen 2.6.7) updates it
in place, and Fincke-Pohst enumeration prunes on integers scaled by
lcm_j d_j d_{j+1}, so every pruning test is an exact integer comparison and
no short vector is ever missed. Axis-aligned enumerations (Z^m balls) are
built coordinate by coordinate in numpy instead.
"""

from __future__ import annotations

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


def _echelon(rows):
    """(H, U, r): the row Hermite normal form H of integer rows, a unimodular
    U with U @ rows == H, and the rank r.

    The package's one integer row reduction. Column by column, the pivot is
    gcd'd out below itself, made positive, and the entries above it are
    reduced into [0, pivot); U repeats every row operation. H[:r] is the
    canonical basis of the lattice the rows span, and U[r:] is a basis of
    {y : y @ rows == 0} (Cohen, A Course in Computational Algebraic Number
    Theory, section 2.4).
    """
    k = len(rows)
    m = len(rows[0]) if rows else 0
    # each row carries its row of U to the right of column m
    aug = [list(map(int, row)) + [int(i == j) for j in range(k)] for i, row in enumerate(rows)]
    r = 0
    for col in range(m):
        piv = next((i for i in range(r, k) if aug[i][col] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        for i in range(r + 1, k):
            while aug[i][col] != 0:
                q = aug[r][col] // aug[i][col]
                aug[r] = [a - q * b for a, b in zip(aug[r], aug[i])]
                aug[r], aug[i] = aug[i], aug[r]
        if aug[r][col] < 0:
            aug[r] = [-a for a in aug[r]]
        for i in range(r):
            q = aug[i][col] // aug[r][col]
            if q:
                aug[i] = [a - q * b for a, b in zip(aug[i], aug[r])]
        r += 1
    return [row[:m] for row in aug], [row[m:] for row in aug], r


def hnf_rows(rows):
    """Row-style Hermite normal form of the lattice spanned by integer rows.

    Returns the canonical basis (nonzero rows only): row echelon, positive
    pivots, entries above each pivot reduced into [0, pivot).
    """
    H, _, r = _echelon(rows)
    return H[:r]


def integer_kernel(mat):
    """Basis rows of {x in Z^m : mat @ x = 0} for an integer matrix."""
    if not mat:
        raise ValueError("need at least a zero row to fix the dimension")
    _, U, r = _echelon(list(zip(*mat)))
    return [tuple(row) for row in U[r:]]


def saturate_rows(rows):
    """Basis of the saturation (span over Q intersected with Z^m)."""
    if not rows:
        return []
    m = len(rows[0])
    k = integer_kernel(rows)
    if not k:
        return [tuple(1 if i == j else 0 for j in range(m)) for i in range(m)]
    return integer_kernel(k)


def solve_fraction(mat_rows, rhs):
    """Rational a with sum a_i * mat_rows[i] == rhs for independent rows;
    None when rhs lies off their span or the rows are dependent.

    Gauss-Jordan on the exact normal equations gives the coefficients of the
    orthogonal projection of rhs onto the span; rhs is in the span iff that
    projection is rhs itself."""
    rows = [[Fraction(x) for x in r] for r in mat_rows]
    b = [Fraction(x) for x in rhs]
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
    coeffs = [aug[i][n] for i in range(n)]
    if [sum((c * r[t] for c, r in zip(coeffs, rows)), Fraction(0)) for t in range(len(b))] != b:
        return None
    return coeffs


# ---------------------------------------------------------------------------
# LLL and Fincke-Pohst on the integral Gram-Schmidt data


def integral_gso(rows):
    """Integral Gram-Schmidt data (d, lam) of independent integer rows.

    d[i] is the Gram determinant of rows[:i] (d[0] = 1), so |b*_i|^2 =
    d[i+1]/d[i]; lam[i][j] = d[j+1] mu_ij is an integer for j < i (Cohen,
    A Course in Computational Algebraic Number Theory, 2.6.7, step 2).
    """
    n = len(rows)
    d = [1] * (n + 1)
    lam = [[0] * n for _ in range(n)]
    for k in range(n):
        for j in range(k + 1):
            u = dot(rows[k], rows[j])
            for i in range(j):
                u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
            if j < k:
                lam[k][j] = u
            else:
                d[k + 1] = u
        if d[k + 1] == 0:
            raise ValueError("dependent rows in Gram-Schmidt")
    return d, lam


def lll_reduce(rows, delta=Fraction(99, 100)):
    """LLL-reduced basis of the integer lattice spanned by independent rows.

    Integral LLL (Cohen 2.6.7): size reductions and swaps update d and lam
    in place, so every test is an exact integer comparison.
    """
    b = [list(map(int, r)) for r in rows]
    n = len(b)
    if n <= 1:
        return [tuple(r) for r in b]
    delta = Fraction(delta)
    dnum, dden = delta.numerator, delta.denominator
    d, lam = integral_gso(b)

    def reduce(k, l):
        # b_k -= q b_l with q the integer nearest to mu_kl = lam[k][l] / d[l+1]
        if 2 * abs(lam[k][l]) > d[l + 1]:
            q = (2 * lam[k][l] + d[l + 1]) // (2 * d[l + 1])
            b[k] = [x - q * y for x, y in zip(b[k], b[l])]
            lam[k][l] -= q * d[l + 1]
            for i in range(l):
                lam[k][i] -= q * lam[l][i]

    def swap(k):
        b[k], b[k - 1] = b[k - 1], b[k]
        for j in range(k - 1):
            lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
        lk = lam[k][k - 1]
        new_d = (d[k - 1] * d[k + 1] + lk * lk) // d[k]
        for i in range(k + 1, n):
            t = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - lk * t) // d[k]
            lam[i][k - 1] = (new_d * t + lk * lam[i][k]) // d[k + 1]
        d[k] = new_d

    k = 1
    guard = 0
    while k < n:
        guard += 1
        if guard > 100000:
            raise EnumerationBudgetExceeded("LLL failed to terminate")
        reduce(k, k - 1)
        # Lovasz: |b*_k|^2 >= (delta - mu_{k,k-1}^2) |b*_{k-1}|^2, times d[k] d[k-1]
        if dden * (d[k + 1] * d[k - 1] + lam[k][k - 1] ** 2) < dnum * d[k] ** 2:
            swap(k)
            k = max(k - 1, 1)
        else:
            for l in range(k - 2, -1, -1):
                reduce(k, l)
            k += 1
    return [tuple(r) for r in b]


def fincke_pohst(rows, bound2, budget=10**8, shift=None, include_zero=False, canonical_sign=True):
    """All lattice vectors v with |v|^2 <= bound2, exactly.

    rows: independent integer basis vectors. bound2: int or Fraction.
    shift: optional rational vector c; enumerates v in c + L instead
    (then sign canonicalization is disabled and zero is reported if hit).
    Yields (vector tuple, exact squared norm). Counts enumeration nodes
    against `budget`.

    Write v = sum_j y_j b_j with y = x + s (s the coordinates of the shift)
    and Y = den y over the common denominator den of s. With the integral
    GSO (d, lam) and L = lcm_j d[j] d[j+1],
        L den^2 |v|^2 = sum_j W_j z_j^2,  z_j = d[j+1] Y_j + S_j,
    where W_j = L / (d[j] d[j+1]) and S_j = sum_{i>j} lam[i][j] Y_i. So the
    range of x_j at each level is the exact solution of one isqrt, and every
    pruning test is an integer comparison. Without a shift and with
    canonical_sign, only one of each pair +-v is visited (the top nonzero x
    is positive) and the leaf is flipped to canonical sign.
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
    if bound2 < 0:
        return
    rows = [list(map(int, r)) for r in rows]
    m = len(rows[0])
    d, lam = integral_gso(rows)
    if shift is None:
        den, e = 1, [0] * n
    else:
        coeffs = solve_fraction(rows, shift)
        if coeffs is None:
            raise ValueError("shift must lie in the lattice span")
        den = math.lcm(*(cf.denominator for cf in coeffs))
        e = [int(cf * den) for cf in coeffs]
    L = math.lcm(*(d[j] * d[j + 1] for j in range(n)))
    num, qden = bound2.numerator, bound2.denominator
    # |v|^2 <= num/qden  <=>  sum_j w[j] z_j^2 <= L den^2 num
    w = [qden * (L // (d[j] * d[j + 1])) for j in range(n)]
    lim = num * den * den  # the leaf's exact check: |den v|^2 qden <= lim
    half = shift is None and canonical_sign

    nodes = 0
    x, hi, Y, S = [0] * n, [0] * n, [0] * n, [0] * n
    rem = [0] * n + [L * lim]  # rem[j + 1]: what levels <= j may still use
    partial = [None] * n + [[0] * m]  # partial[j] = sum_{i>=j} Y_i b_i
    zero_above = [False] * n + [True]  # zero_above[j + 1]: Y_i = 0 for all i > j

    def enter(j):
        # z_j = a x_j + c with a = d[j+1] den; w z^2 <= rem iff |z| <= isqrt(rem // w)
        r = math.isqrt(rem[j + 1] // w[j])
        c = d[j + 1] * e[j] + S[j]
        a = d[j + 1] * den
        lo = -((r + c) // a)
        x[j] = (max(lo, 0) if half and zero_above[j + 1] else lo) - 1
        hi[j] = (r - c) // a

    j = n - 1
    enter(j)
    while True:
        x[j] += 1
        if x[j] > hi[j]:
            j += 1
            if j == n:
                return
            continue
        nodes += 1
        if nodes > budget:
            raise EnumerationBudgetExceeded("Fincke-Pohst budget exceeded", nodes)
        y = den * x[j] + e[j]
        dy = y - Y[j]
        Y[j] = y
        for i in range(j):
            S[i] += lam[j][i] * dy
        vec = [p + y * t for p, t in zip(partial[j + 1], rows[j])]
        if j > 0:
            z = d[j + 1] * y + S[j]
            rem[j] = rem[j + 1] - w[j] * z * z
            partial[j] = vec
            zero_above[j] = zero_above[j + 1] and y == 0
            j -= 1
            enter(j)
            continue
        sq = sum(t * t for t in vec)
        if sq * qden > lim:
            continue
        if shift is None:
            if sq == 0:
                if include_zero:
                    yield tuple(vec), 0
                continue
            if canonical_sign and next(t for t in vec if t != 0) < 0:
                vec = [-t for t in vec]
        if den == 1:
            yield tuple(vec), sq
        else:
            yield tuple(_over(t, den) for t in vec), _over(sq, den * den)


def _over(t: int, den: int):
    """t / den as an int when it divides, else as a Fraction."""
    q, r = divmod(t, den)
    return Fraction(t, den) if r else q


# ---------------------------------------------------------------------------
# Z^m ball enumeration (numpy, coordinate by coordinate)


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
