"""Degree-d monomial combinatorics: the Veronese map, forms, heights and bounds.

A degree-d hypersurface in P^n is stored as a primitive integer coefficient
vector indexed by the monomials of degree d in X_0..X_n, ordered by
descending lexicographic order on exponent vectors (X_0 heaviest). That
order is fixed once so serialized forms are bit-stable.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

_CAST_CELLS = 1 << 14  # float64 entries a `pairings` block holds: a whole product beside its int64 copy takes fresh pages


def dimension(d: int, n: int) -> int:
    """Number of degree-d monomials in n+1 variables, binomial(n+d, d)."""
    return math.comb(n + d, d)


@dataclass(frozen=True)
class MonomialBasis:
    d: int
    n: int
    monomials: tuple  # exponent vectors (d_0, ..., d_n), descending lex

    def __post_init__(self):
        if self.d < 1 or self.n < 1:
            raise ValueError("need d >= 1 and n >= 1")
        if len(self.monomials) != dimension(self.d, self.n):
            raise ValueError("wrong number of monomials")

    @property
    def size(self) -> int:
        return len(self.monomials)

    def exponent_matrix(self) -> np.ndarray:
        return np.array(self.monomials, dtype=np.int64)

    def index(self, exponents) -> int:
        return self.monomials.index(tuple(exponents))


@lru_cache(maxsize=None)
def monomial_basis(d: int, n: int) -> MonomialBasis:
    exps = [
        tuple(e)
        for e in itertools.product(range(d + 1), repeat=n + 1)
        if sum(e) == d
    ]
    exps.sort(reverse=True)
    return MonomialBasis(d, n, tuple(exps))


def veronese(basis: MonomialBasis, x):
    """(M(x))_M in basis order; exact over ints/Fractions, float otherwise."""
    if len(x) != basis.n + 1:
        raise ValueError(f"need a vector of length {basis.n + 1}")
    out = []
    for exps in basis.monomials:
        val = 1
        for xi, e in zip(x, exps):
            if e:
                val *= xi**e
        out.append(val)
    return out


def veronese_jet(basis: MonomialBasis, x):
    """(nu(x), nu^(0)(x), ..., nu^(n)(x)).

    The i-th derivative vector holds (dM/dx_i)(x) for each monomial M, so
    the gradient of the form with coefficients a is <a, nu^(i)(x)>.
    """
    if len(x) != basis.n + 1:
        raise ValueError(f"need a vector of length {basis.n + 1}")
    value = veronese(basis, x)
    jets = []
    for i in range(basis.n + 1):
        row = []
        for exps in basis.monomials:
            e = exps[i]
            if e == 0:
                row.append(0 * x[0])
                continue
            val = e
            for j, (xj, ej) in enumerate(zip(x, exps)):
                pw = ej - 1 if j == i else ej
                if pw:
                    val *= xj**pw
            row.append(val)
        jets.append(row)
    return value, jets


def _exact_points(pts: np.ndarray, power: int, factor: int = 1) -> np.ndarray:
    """Integer points as int64 when factor * max|x|^power, a bound on every
    monomial the caller forms from them, fits; else as Python integers.
    Float and object arrays pass unchanged."""
    if pts.dtype.kind not in "iu":
        return pts
    worst = factor * int(np.abs(pts).max(initial=0)) ** power
    return pts.astype(np.int64 if worst < 2**63 else object, copy=False)


def veronese_batch(basis: MonomialBasis, pts: np.ndarray) -> np.ndarray:
    """Row-wise Veronese of a point array (k, n+1) -> (k, N). Integer points
    give exact rows: int64 when max|x|^d fits, else Python integers."""
    pts = _exact_points(pts, basis.d)
    E = basis.exponent_matrix()  # (N, n+1)
    out = np.ones((pts.shape[0], basis.size), dtype=pts.dtype)
    for j in range(basis.n + 1):
        col = pts[:, j]
        for t in range(basis.size):
            e = E[t, j]
            if e:
                out[:, t] *= col**e
    return out


def veronese_jet_batch(basis: MonomialBasis, pts: np.ndarray) -> np.ndarray:
    """Row-wise derivative vectors of veronese_jet: (k, n+1) -> (n+1, k, N),
    entry [i, r, t] = (dM_t/dx_i)(pts[r]). Integer points give exact rows:
    int64 when d max|x|^(d-1) fits, else Python integers."""
    pts = _exact_points(pts, basis.d - 1, basis.d)
    E = basis.exponent_matrix()  # (N, n+1)
    out = []
    for i in range(basis.n + 1):
        lowered = E - (np.arange(basis.n + 1) == i)  # exponent of x_i drops by one
        # where M_t lacks x_i the factor E[t, i] is 0, so a clipped exponent is harmless
        out.append((pts[:, None, :] ** np.maximum(lowered, 0)).prod(axis=2) * E[:, i])
    return np.stack(out)


def _pairing_bound(A: np.ndarray, NU: np.ndarray) -> int:
    """max(max|a|, 1) max(max|nu|, 1) N: a bound on every entry of A and NU,
    on every product a nu and on every partial sum of a pairing. Integer or
    object input only; floats would be truncated, so they raise."""
    for M in (A, NU):
        if M.dtype.kind not in "iuO":
            raise TypeError(f"exact pairings need integer rows, got {M.dtype}")
    return max(int(np.abs(A).max(initial=0)), 1) * max(int(np.abs(NU).max(initial=0)), 1) * A.shape[1]


def pairings(A: np.ndarray, NU: np.ndarray) -> np.ndarray:
    """A @ NU.T exactly: coefficient rows against Veronese rows.

    Three tiers, by the bound of `_pairing_bound` on every entry, product
    and partial sum:
    - below 2^53, float64 GEMMs (BLAS) of row blocks, cast into one int64
      array. Every input, product and partial sum is then an integer below
      2^53, which float64 holds exactly, so no step rounds, in any
      summation order, with or without fused multiply-adds;
    - below 2^63, an int64 product;
    - otherwise Python integers, returned as an object array.

    No coefficient rows, `coefficient_matrix([])` included, give a
    (0, len(NU)) int64 array.
    """
    if not len(A):
        return np.zeros((0, len(NU)), dtype=np.int64)
    worst = _pairing_bound(A, NU)
    if worst < 2**53:
        out = np.empty((len(A), len(NU)), dtype=np.int64)
        NUf, step = NU.astype(np.float64).T, max(1, _CAST_CELLS // max(len(NU), 1))
        for lo in range(0, len(A), step):
            out[lo : lo + step] = A[lo : lo + step].astype(np.float64) @ NUf
        return out
    dtype = np.int64 if worst < 2**63 else object
    return A.astype(dtype, copy=False) @ NU.astype(dtype, copy=False).T


def coefficient_matrix(forms) -> np.ndarray:
    """Coefficient rows as int64, or as Python integers when one overflows."""
    rows = [f.coeffs for f in forms]
    try:
        return np.array(rows, dtype=np.int64)
    except OverflowError:
        return np.array(rows, dtype=object)


def row_pairings(A: np.ndarray, NU: np.ndarray) -> np.ndarray:
    """<A[r], NU[r]> for each row r, exactly: int64 when the bound of
    `pairings` is below 2^63, else Python integers. No rows,
    `coefficient_matrix([])` included, give an empty int64 array."""
    if not len(A):
        return np.zeros(0, dtype=np.int64)
    dtype = np.int64 if _pairing_bound(A, NU) < 2**63 else object
    return (A.astype(dtype, copy=False) * NU.astype(dtype, copy=False)).sum(axis=1)


@dataclass(frozen=True)
class Form:
    """A degree-d form as an integer coefficient vector in basis order.

    Kept primitive with canonical sign (first nonzero coefficient positive)
    when constructed through `make_form`; (a, -a) cut the same hypersurface.
    """

    basis: MonomialBasis
    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) != self.basis.size:
            raise ValueError("coefficient count does not match the basis")
        if all(c == 0 for c in self.coeffs):
            raise ValueError("the zero form does not define a hypersurface")

    def __str__(self):
        coeffs = " ".join(str(c) for c in self.coeffs)
        return f"{self.basis.d} {self.basis.n} : {coeffs}"


def make_form(d: int, n: int, coeffs, primitive: bool = True) -> Form:
    """Build a form, normalizing sign; with primitive=True divide out content."""
    coeffs = [int(c) for c in coeffs]
    if all(c == 0 for c in coeffs):
        raise ValueError("the zero form does not define a hypersurface")
    if primitive:
        g = math.gcd(*[abs(c) for c in coeffs])
        coeffs = [c // g for c in coeffs]
    first = next(c for c in coeffs if c != 0)
    if first < 0:
        coeffs = [-c for c in coeffs]
    return Form(monomial_basis(d, n), tuple(coeffs))


def parse_form(text: str) -> Form:
    """Parse the canonical text format `d n : c1 c2 ... cN`."""
    head, _, tail = text.partition(":")
    try:
        d, n = map(int, head.split())
        coeffs = [int(t) for t in tail.split()]
    except ValueError as exc:
        raise ValueError(f"malformed form string: {text!r}") from exc
    form = make_form(d, n, coeffs, primitive=False)
    if len(coeffs) != form.basis.size:
        raise ValueError("coefficient count does not match d, n")
    return form


def evaluate_form(form: Form, x):
    """f_a(x), exact over ints/Fractions; Kahan-compensated for floats."""
    nu = veronese(form.basis, x)
    if any(isinstance(v, float) for v in nu):
        return math.fsum(float(a) * float(v) for a, v in zip(form.coeffs, nu))
    return sum(a * v for a, v in zip(form.coeffs, nu))


def gradient_form(form: Form, x):
    """(df/dx_i)(x) for i = 0..n via <a, nu^(i)(x)>."""
    _, jets = veronese_jet(form.basis, x)
    out = []
    for row in jets:
        if any(isinstance(v, float) for v in row):
            out.append(math.fsum(float(a) * float(v) for a, v in zip(form.coeffs, row)))
        else:
            out.append(sum(a * v for a, v in zip(form.coeffs, row)))
    return out


def height(d: int, n: int, x) -> float:
    """H(x) = |x|^(n+1-d) for a primitive nonzero integer vector."""
    if n + 1 - d < 1:
        raise ValueError("height needs n + 1 - d >= 1")
    x = [int(c) for c in x]
    if all(c == 0 for c in x):
        raise ValueError("height of the zero vector is undefined")
    if math.gcd(*[abs(c) for c in x]) != 1:
        raise ValueError("height expects primitive coordinates")
    return math.sqrt(sum(c * c for c in x)) ** (n + 1 - d)


def height_squared(d: int, n: int, x) -> int:
    """H(x)^2 = (|x|^2)^(n+1-d), exact; for exact height-bound comparisons."""
    if n + 1 - d < 1:
        raise ValueError("height needs n + 1 - d >= 1")
    return sum(int(c) ** 2 for c in x) ** (n + 1 - d)


def height_bound_norm2(d: int, n: int, B) -> Fraction:
    """Largest |x|^2 allowed by H(x) <= B, as an exact rational.

    H(x) <= B  iff  (|x|^2)^(n+1-d) <= B^2.
    """
    B = Fraction(B)
    if B < 1:
        return Fraction(-1)
    e = n + 1 - d
    target = B**2
    # exact integer part of target^(1/e) on numerator/denominator scale
    lo, hi = 0, int(target) + 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if Fraction(mid) ** e <= target:
            lo = mid
        else:
            hi = mid - 1
    return Fraction(lo)
