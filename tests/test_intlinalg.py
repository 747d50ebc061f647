import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanostat.intlinalg import (
    bareiss_det,
    canonical_sign_mask,
    fincke_pohst,
    gram_det,
    hnf_rows,
    integer_ball,
    integer_kernel,
    lll_reduce,
    saturate_rows,
    solve_fraction,
)
from fanostat.padic import poly_eval
from fanostat.veronese import _line_restriction, dimension, evaluate_form, make_form


def test_bareiss_matches_numpy():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 5)
        mat = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        expected = round(np.linalg.det(np.array(mat, dtype=float)))
        assert bareiss_det(mat) == expected


def test_hnf_canonicalizes():
    # same lattice under different bases -> same HNF
    b1 = [(2, 1, 0), (0, 3, 1)]
    b2 = [(2, 4, 1), (2, 1, 0)]  # row ops of b1
    assert hnf_rows(b1) == hnf_rows(b2)
    # Z^2 in disguise
    assert hnf_rows([(1, 1), (1, 2)]) == [[1, 0], [0, 1]]


def test_integer_kernel():
    k = integer_kernel([[3, 1, 0]])
    assert len(k) == 2
    for v in k:
        assert 3 * v[0] + v[1] == 0
    # kernel of the kernel recovers the saturation
    sat = saturate_rows([(2, 4, 6)])
    assert hnf_rows(sat) == [[1, 2, 3]]


def test_saturation_full_rank():
    assert hnf_rows(saturate_rows([(2, 0), (0, 3)])) == [[1, 0], [0, 1]]


def test_solve_and_coordinates():
    rows = [(1, 2, 0), (0, 1, 1)]
    assert solve_fraction(rows, (1, 3, 1)) == [1, 1]
    assert solve_fraction(rows, (1, 2, 1)) is None  # a = 1 forces b = 0 and b = 1
    assert solve_fraction(rows, (0, 0, 7)) is None  # outside the span? (0,0,7) = a(1,2,0)+b(0,1,1): a=0, b=7 -> (0,7,7) no
    half = solve_fraction(rows, (Fraction(1, 2), 1, 0))
    assert half == [Fraction(1, 2), 0]


@st.composite
def _merged_helper_cases(draw):
    d, n = draw(st.sampled_from([(2, 2), (2, 3), (3, 2)]))
    size = dimension(d, n)
    form = make_form(d, n, draw(st.lists(st.integers(-4, 4), min_size=size, max_size=size).filter(any)))
    x = draw(st.lists(st.integers(-5, 5), min_size=n + 1, max_size=n + 1))
    j = draw(st.integers(0, n))
    m = draw(st.integers(2, 5))
    k = draw(st.integers(1, m - 1))
    row = st.lists(st.integers(-3, 3), min_size=m, max_size=m)
    rows = draw(st.lists(row, min_size=k, max_size=k).filter(lambda r: gram_det(r) != 0))
    coeffs = draw(st.lists(st.fractions(-5, 5, max_denominator=6), min_size=k, max_size=k))
    return form, x, j, rows, coeffs


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_merged_helper_cases())
def test_line_restriction_and_solve_fraction(case):
    form, x, j, rows, coeffs = case
    # t -> f(x + t e_j) has degree d, so d + 2 integer points pin it down
    poly = _line_restriction(form, x, j)
    d = form.basis.d
    for t in range(-d - 1, d + 2):
        shifted = list(x)
        shifted[j] += t
        assert poly_eval(poly, t) == evaluate_form(form, shifted)
    # exact coefficients back from sum c_i rows[i]; None off the span
    v = [sum(c * r[i] for c, r in zip(coeffs, rows)) for i in range(len(rows[0]))]
    assert solve_fraction(rows, v) == coeffs
    normal = integer_kernel(rows)[0]  # orthogonal to every row
    assert solve_fraction(rows, [a + b for a, b in zip(v, normal)]) is None


def test_lll_preserves_lattice():
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randint(1, 4)
        m = n + rng.randint(0, 2)
        while True:
            rows = [tuple(rng.randint(-8, 8) for _ in range(m)) for _ in range(n)]
            if gram_det(rows) != 0:
                break
        red = lll_reduce(rows)
        assert hnf_rows(red) == hnf_rows(rows)
        assert gram_det(red) == gram_det(rows)


def _rational_gso(rows):
    """Textbook Gram-Schmidt over Q: (mu, |b*_i|^2)."""
    bstar, mu, norms = [], [], []
    for row in rows:
        v = [Fraction(t) for t in row]
        coeffs = []
        for u, nu in zip(bstar, norms):
            c = sum(a * b for a, b in zip(row, u)) / nu
            coeffs.append(c)
            v = [a - c * b for a, b in zip(v, u)]
        bstar.append(v)
        mu.append(coeffs)
        norms.append(sum(t * t for t in v))
    return mu, norms


@st.composite
def _independent_rows(draw, max_rank=5, extra=2, entry=9):
    n = draw(st.integers(1, max_rank))
    m = n + draw(st.integers(0, extra))
    row = st.lists(st.integers(-entry, entry), min_size=m, max_size=m)
    return draw(st.lists(row, min_size=n, max_size=n).filter(lambda r: gram_det(r) != 0))


@given(_independent_rows())
def test_lll_reduce_is_lll_reduced(rows):
    red = lll_reduce(rows)
    assert hnf_rows(red) == hnf_rows(rows)
    mu, norms = _rational_gso(red)
    for i in range(len(red)):
        assert all(abs(c) <= Fraction(1, 2) for c in mu[i]), (rows, red)
        if i:
            assert norms[i] >= (Fraction(99, 100) - mu[i][i - 1] ** 2) * norms[i - 1], (rows, red)


def _lattice_members(rows, pts):
    """Row mask of the integer points pts (k, m) lying in the lattice of rows:
    reduce by the Hermite form, members leave no remainder."""
    rest = pts.astype(object)
    for h in hnf_rows(rows):
        piv = next(t for t, v in enumerate(h) if v)
        q = rest[:, piv] // h[piv]
        rest = rest - q[:, None] * np.array(h, dtype=object)[None, :]
        rest = rest.astype(object)
    return ~(rest != 0).any(axis=1)


@st.composite
def _enumeration_cases(draw):
    rows = draw(_independent_rows(max_rank=3, extra=1, entry=3))
    bound2 = draw(st.fractions(0, 9, max_denominator=4))
    shift = None
    if draw(st.booleans()):
        coeffs = draw(st.lists(st.fractions(-2, 2, max_denominator=3), min_size=len(rows), max_size=len(rows)))
        shift = [sum(c * r[t] for c, r in zip(coeffs, rows)) for t in range(len(rows[0]))]
    return rows, bound2, shift, draw(st.booleans()), draw(st.booleans())


@given(_enumeration_cases())
def test_fincke_pohst_equals_filtered_integer_ball(case):
    # v in shift + L with |v|^2 <= bound2 <=> den v is an integer point of the
    # ball of radius^2 den^2 bound2 and den v - den shift lies in den L
    rows, bound2, shift, include_zero, canonical_sign = case
    m = len(rows[0])
    s = [Fraction(t) for t in shift] if shift is not None else [Fraction(0)] * m
    den = math.lcm(*(t.denominator for t in s))
    pts = integer_ball(m, den * den * bound2)
    scaled = [[den * t for t in r] for r in rows]
    pts = pts[_lattice_members(scaled, pts - np.array([int(den * t) for t in s], dtype=np.int64))]
    if shift is None:
        if not include_zero:
            pts = pts[(pts != 0).any(axis=1)]
        if canonical_sign:
            pts = pts[canonical_sign_mask(pts) | ~(pts != 0).any(axis=1)]
    expected = {tuple(Fraction(int(t), den) for t in p) for p in pts}
    got = list(
        fincke_pohst(
            lll_reduce(rows), bound2, shift=shift, include_zero=include_zero, canonical_sign=canonical_sign
        )
    )
    assert len(got) == len(expected)
    assert {v for v, _ in got} == expected
    assert all(sq == sum(t * t for t in v) for v, sq in got)


def brute_short_vectors(rows, bound2):
    n = len(rows)
    m = len(rows[0])
    out = set()
    for coeffs in itertools.product(range(-8, 9), repeat=n):
        v = tuple(sum(c * row[t] for c, row in zip(coeffs, rows)) for t in range(m))
        sq = sum(x * x for x in v)
        if 0 < sq <= bound2:
            first = next(x for x in v if x != 0)
            if first > 0:
                out.add((v, sq))
    return out


def test_fincke_pohst_exhaustive():
    rng = random.Random(11)
    for _ in range(15):
        n = rng.randint(1, 3)
        m = n + rng.randint(0, 1)
        while True:
            rows = [tuple(rng.randint(-3, 3) for _ in range(m)) for _ in range(n)]
            if gram_det(rows) != 0:
                break
        bound2 = rng.randint(1, 30)
        got = set(fincke_pohst(lll_reduce(rows), bound2))
        assert got == brute_short_vectors(rows, bound2), (rows, bound2)


def test_fincke_pohst_coset():
    # points of (1,1) + 3*Z^2 within radius^2 25
    rows = [(3, 0), (0, 3)]
    got = {v for v, _ in fincke_pohst(rows, 25, shift=(1, 1))}
    expected = set()
    for a in range(-3, 4):
        for b in range(-3, 4):
            v = (1 + 3 * a, 1 + 3 * b)
            if v[0] ** 2 + v[1] ** 2 <= 25:
                expected.add(v)
    assert got == expected


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


def test_budget_raises():
    from fanostat.errors import EnumerationBudgetExceeded

    with pytest.raises(EnumerationBudgetExceeded):
        list(fincke_pohst([(1, 0), (0, 1)], 10**6, budget=10))


@st.composite
def _small_integer_matrices(draw, max_rows=5, max_cols=6):
    k = draw(st.integers(1, max_rows))
    m = draw(st.integers(1, max_cols))
    row = st.lists(st.integers(-6, 6), min_size=m, max_size=m)
    return draw(st.lists(row, min_size=k, max_size=k))


@settings(max_examples=150)
@given(_small_integer_matrices())
def test_integer_kernel_is_a_basis_of_the_kernel(mat):
    m = len(mat[0])
    rank = int(np.linalg.matrix_rank(np.array(mat, dtype=float)))
    ker = integer_kernel(mat)
    assert len(ker) == m - rank
    for v in ker:
        assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in mat)
    if ker:
        assert gram_det(ker) != 0
        # primitive: the kernel lattice is saturated, so a basis of it must be
        assert hnf_rows(saturate_rows(ker)) == hnf_rows(ker)


def _maximal_minors_gcd(rows, r, m):
    """gcd of the r x r minors of the matrix rows with m columns."""
    g = 0
    for sub in itertools.combinations(rows, r):
        for cols in itertools.combinations(range(m), r):
            g = math.gcd(g, bareiss_det([[row[c] for c in cols] for row in sub]))
    return g


@settings(max_examples=150)
@given(_small_integer_matrices())
def test_hnf_rows_spans_the_same_lattice(gens):
    H = hnf_rows(gens)
    r = len(H)
    assert r == int(np.linalg.matrix_rank(np.array(gens, dtype=float)))
    # every generator reduces to zero against the echelon rows: L(gens) in L(H)
    assert _lattice_members(gens, np.array(gens, dtype=np.int64)).all()
    # writing gens = C H, Cauchy-Binet makes the gcd of the r x r minors of
    # gens that of H times that of C, and the rows of C generate Z^r exactly
    # when their r x r minors are coprime: L(H) = L(gens) iff the gcds agree
    m = len(gens[0])
    assert _maximal_minors_gcd(gens, r, m) == _maximal_minors_gcd(H, r, m)

