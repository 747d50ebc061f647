import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanostat.veronese import (
    coefficient_matrix,
    dimension,
    evaluate_form,
    gradient_form,
    height,
    height_bound_norm2,
    height_squared,
    make_form,
    monomial_basis,
    pairings,
    parse_form,
    row_pairings,
    veronese,
    veronese_batch,
    veronese_jet,
    veronese_jet_batch,
)


def test_basis_sizes():
    assert monomial_basis(2, 2).size == 6 == math.comb(4, 2)
    assert monomial_basis(2, 3).size == 10
    assert monomial_basis(1, 1).size == 2
    # N_{d,n} >= nd + 3 in the Fano range n >= d >= 2, (n, d) != (2, 2)
    for d in range(2, 5):
        for n in range(d, 7):
            if (n, d) == (2, 2):
                continue
            assert dimension(d, n) >= n * d + 3


def test_basis_order_is_descending_lex():
    b = monomial_basis(2, 1)
    assert b.monomials == ((2, 0), (1, 1), (0, 2))
    b22 = monomial_basis(2, 2)
    assert b22.monomials[0] == (2, 0, 0)
    assert list(b22.monomials) == sorted(b22.monomials, reverse=True)


def test_veronese_values():
    b = monomial_basis(2, 2)
    assert veronese(b, (1, 1, 1)) == [1] * 6
    b21 = monomial_basis(2, 1)
    assert veronese(b21, (2, 3)) == [4, 6, 9]
    assert veronese(b21, (0, 0)) == [0, 0, 0]
    with pytest.raises(ValueError):
        veronese(b21, (1, 2, 3))


def test_veronese_norm_bound():
    # |nu(x)| <= |x|^d <= d! |nu(x)| on random integer vectors
    rng = random.Random(0)
    for d, n in [(2, 2), (2, 3), (3, 3)]:
        b = monomial_basis(d, n)
        fact = math.factorial(d)
        for _ in range(10**4):
            x = [rng.randint(-9, 9) for _ in range(n + 1)]
            if all(c == 0 for c in x):
                continue
            nu2 = sum(v * v for v in veronese(b, x))
            xd2 = sum(c * c for c in x) ** d
            assert nu2 <= xd2 <= fact**2 * nu2


def test_veronese_homogeneity_and_permutation():
    rng = random.Random(1)
    b = monomial_basis(3, 2)
    for _ in range(100):
        x = [rng.randint(-5, 5) for _ in range(3)]
        c = rng.randint(-4, 4)
        lhs = veronese(b, [c * xi for xi in x])
        rhs = [c**3 * v for v in veronese(b, x)]
        assert lhs == rhs
    # permuting coordinates permutes entries by the induced monomial map
    x = [2, 3, 5]
    perm = [2, 0, 1]
    xp = [x[perm[i]] for i in range(3)]
    vals = dict(zip(b.monomials, veronese(b, x)))
    for exps, v in zip(b.monomials, veronese(b, xp)):
        # monomial e at xp equals monomial e∘perm at x
        pulled = tuple(exps[perm.index(j)] for j in range(3))
        assert v == vals[pulled]


def test_jet_values_and_euler_identity():
    b = monomial_basis(2, 1)
    val, jets = veronese_jet(b, (1, 0))
    assert val == [1, 0, 0]
    assert jets[0] == [2, 0, 0]
    assert jets[1] == [0, 1, 0]
    # linear case: jets are constant unit vectors
    b1 = monomial_basis(1, 2)
    _, jets1 = veronese_jet(b1, (4, 5, 6))
    for i, row in enumerate(jets1):
        assert sum(row) == 1 and row[b1.index(tuple(1 if j == i else 0 for j in range(3)))] == 1
    # Euler: sum_i x_i nu^(i)(x) = d nu(x)
    rng = random.Random(2)
    b = monomial_basis(3, 3)
    for _ in range(50):
        x = [rng.randint(-6, 6) for _ in range(4)]
        val, jets = veronese_jet(b, x)
        for t in range(b.size):
            assert sum(x[i] * jets[i][t] for i in range(4)) == 3 * val[t]


def test_form_eval_and_gradient():
    f = make_form(2, 2, [1, 0, 0, 1, 0, -1])  # X0^2 + X1^2 - X2^2
    assert evaluate_form(f, (3, 4, 5)) == 0
    assert gradient_form(f, (3, 4, 5)) == [6, 8, -10]
    with pytest.raises(ValueError):
        make_form(2, 2, [0] * 6)


def test_gradient_matches_finite_differences():
    rng = random.Random(3)
    f = make_form(3, 2, [rng.randint(-5, 5) for _ in range(10)], primitive=False)
    h = 1e-6
    for _ in range(25):
        x = [rng.uniform(-2, 2) for _ in range(3)]
        grad = gradient_form(f, x)
        for i in range(3):
            xp = list(x)
            xm = list(x)
            xp[i] += h
            xm[i] -= h
            fd = (evaluate_form(f, xp) - evaluate_form(f, xm)) / (2 * h)
            scale = max(1.0, abs(grad[i]))
            assert abs(fd - grad[i]) / scale < 1e-5


@st.composite
def _line_cases(draw):
    d, n = draw(st.sampled_from([(2, 2), (2, 3), (3, 2)]))
    size = dimension(d, n)
    form = make_form(d, n, draw(st.lists(st.integers(-4, 4), min_size=size, max_size=size).filter(any)))
    x = draw(st.lists(st.integers(-5, 5), min_size=n + 1, max_size=n + 1))
    return form, x, draw(st.integers(0, n))


@settings(max_examples=100)
@given(_line_cases())
def test_line_restriction(case):
    form, x, j = case
    # on the line t -> x + t e_j, f(x + t e_j) = f(x) + t df/dx_j(x) + O(t^2):
    # the Taylor step every Hensel certificate rests on. A step |t| above
    # every |df/dx_j| here pins the slope exactly
    slope = gradient_form(form, x)[j]
    for t in (-10007, -3, 2, 10009):
        shifted = list(x)
        shifted[j] += t
        assert (evaluate_form(form, shifted) - evaluate_form(form, x) - t * slope) % (t * t) == 0


def test_form_string_roundtrip():
    f = make_form(2, 2, [-1, 0, 0, -1, 0, 1])
    assert str(f) == "2 2 : 1 0 0 1 0 -1"  # sign normalized
    g = parse_form(str(f))
    assert g == f
    with pytest.raises(ValueError):
        parse_form("2 2 : 1 2 3")


def test_height():
    assert height(2, 3, (1, 2, 2, 0)) == pytest.approx(9.0)
    assert height(2, 3, (1, 0, 0, 0)) == 1.0
    assert height(2, 2, (1, 1, 1)) == pytest.approx(math.sqrt(3))
    assert height_squared(2, 3, (1, 2, 2, 0)) == 81
    with pytest.raises(ValueError):
        height(2, 2, (0, 0, 0))
    with pytest.raises(ValueError):
        height(2, 2, (2, 4, 6))


def test_height_bound():
    # H(x) <= B iff |x|^2 <= bound, exactly
    for d, n, B in [(2, 3, 2), (2, 3, Fraction(3, 2)), (2, 2, 5)]:
        bound = height_bound_norm2(d, n, B)
        e = n + 1 - d
        assert Fraction(int(bound)) ** e <= Fraction(B) ** 2
        assert Fraction(int(bound) + 1) ** e > Fraction(B) ** 2


def test_batch_matches_scalar():
    # the last two would wrap in int64: 8^22 = 2^66 in the rows, 22 * 8^21
    # in the derivative rows
    cases = [
        (2, 3, [[1, 2, 0, -1], [0, 1, 1, 3], [2, 2, 2, 2]]),
        (22, 1, [[8, 0], [1, -1]]),
        (22, 1, [[-8, 1], [0, 1]]),
    ]
    for d, n, rows in cases:
        b = monomial_basis(d, n)
        pts = np.array(rows, dtype=np.int64)
        for row, x in zip(veronese_batch(b, pts).tolist(), rows):
            assert row == veronese(b, x)
        jets = veronese_jet_batch(b, pts)
        for r, x in enumerate(rows):
            assert jets[:, r, :].tolist() == veronese_jet(b, x)[1]
    # derivative rows, in int64 and in Python integers, for every (d, n) shape
    rng = np.random.default_rng(5)
    for d, n in ((1, 2), (2, 3), (3, 2), (4, 1)):
        b = monomial_basis(d, n)
        pts = rng.integers(-5, 6, size=(6, n + 1))
        for dtype in (np.int64, object):
            jets = veronese_jet_batch(b, pts.astype(dtype))
            for r, x in enumerate(pts.tolist()):
                assert jets[:, r, :].tolist() == veronese_jet(b, x)[1]
    A = rng.integers(-9, 10, size=(5, 10))
    NU = veronese_batch(monomial_basis(2, 3), rng.integers(-3, 4, size=(5, 4)))
    assert row_pairings(A, NU).tolist() == np.diag(pairings(A, NU)).tolist()


def _python_pairings(A, NU):
    return [[sum(int(a) * int(v) for a, v in zip(row, nu)) for nu in NU.tolist()] for row in A.tolist()]


def test_pairing_tiers_match_python_integers():
    # (A, NU, dtype of pairings, dtype of row_pairings): the float64 tier (bound
    # below 2^53) and the int64 tier both return int64, Python integers object
    rng = np.random.default_rng(16)
    top = (2**53 - 1) // (10 * 2**20)  # max|nu| with 2^20 * max|nu| * 10 just below 2^53
    cases = [
        (rng.integers(-9, 10, (7, 10)), rng.integers(-50, 51, (5, 10)), np.int64, np.int64),
        (rng.integers(-(2**20), 2**20 + 1, (6, 10)), rng.integers(-top, top + 1, (6, 10)), np.int64, np.int64),
        # bound 2^53 - 2^27, then exactly 2^53: both exact, both int64
        (np.array([[2**26 - 1, -(2**26 - 1)]]), np.array([[2**26, 2**26 - 1], [-(2**26), 2**26]]), np.int64, np.int64),
        (np.array([[2**26, -(2**26 - 1)]]), np.array([[2**26, 2**26 - 1], [-(2**26), 2**26]]), np.int64, np.int64),
        # bound 2^63 - 2^32 stays int64, exactly 2^63 goes to Python integers
        (np.array([[2**31 - 1, 2**31 - 1]]), np.array([[2**31, 2**31], [2**31, -(2**31)]]), np.int64, np.int64),
        (np.array([[2**31, 2**31]]), np.array([[2**31, 2**31], [2**31, -(2**31)]]), object, object),
        # object input: small entries take the float64 tier, huge ones stay exact
        (np.array([[3, -4, 5]], dtype=object), np.array([[1, 2, 3], [-7, 0, 2]], dtype=object), np.int64, np.int64),
        (np.array([[2**70, -1]], dtype=object), np.array([[1, 2**70], [3, 0]], dtype=object), object, object),
        # a zero side does not hide entries too large for float64
        (np.array([[2**1100, 1]], dtype=object), np.zeros((1, 2), dtype=np.int64), object, object),
        # float64 products of more than one row block, and of one-row blocks
        (rng.integers(-9, 10, (700, 10)), rng.integers(-50, 51, (30, 10)), np.int64, np.int64),
        (rng.integers(-9, 10, (3, 4)), rng.integers(-50, 51, (16500, 4)), np.int64, np.int64),
        # empty shapes
        (np.zeros((0, 4), dtype=np.int64), rng.integers(-3, 4, (3, 4)), np.int64, np.int64),
        (rng.integers(-3, 4, (3, 4)), np.zeros((0, 4), dtype=np.int64), np.int64, np.int64),
        (np.zeros((2, 0), dtype=np.int64), np.zeros((3, 0), dtype=np.int64), np.int64, np.int64),
    ]
    for A, NU, dtype, row_dtype in cases:
        out = pairings(A, NU)
        assert out.shape == (len(A), len(NU)) and out.dtype == dtype, (A, NU)
        assert out.tolist() == _python_pairings(A, NU), (A, NU)
        k = min(len(A), len(NU))  # row_pairings on the common rows
        rows = row_pairings(A[:k], NU[:k])
        assert rows.dtype == row_dtype, (A, NU)
        assert rows.tolist() == [sum(int(a) * int(v) for a, v in zip(r, s)) for r, s in zip(A.tolist(), NU.tolist())]


def test_pairings_of_no_forms_is_an_empty_int64_array():
    # coefficient_matrix([]) is 1-D, shape (0,): no rows, whatever the tier
    # the Veronese rows alone would take
    basis = monomial_basis(2, 3)
    for V in (veronese_batch(basis, np.array([[1, 0, 2, -1], [3, 1, 1, 1]])), np.full((2, 10), 2**70, dtype=object)):
        for A in (coefficient_matrix([]), np.zeros((0, 10), dtype=np.int64)):
            out = pairings(A, V)
            assert out.shape == (0, 2) and out.dtype == np.int64


def test_row_pairings_of_no_rows_is_an_empty_int64_array():
    # no rows on either side, whatever the tier their dtypes alone would take
    basis = monomial_basis(2, 3)
    for V in (veronese_batch(basis, np.zeros((0, 4), dtype=np.int64)), np.zeros((0, 10), dtype=object)):
        for A in (coefficient_matrix([]), np.zeros((0, 10), dtype=np.int64)):
            out = row_pairings(A, V)
            assert out.shape == (0,) and out.dtype == np.int64


def test_pairings_refuse_float_rows():
    A, NU = np.array([[1.5, 2.0]]), np.array([[1, 1]])
    for fn in (pairings, row_pairings):
        with pytest.raises(TypeError):
            fn(A, NU)
        with pytest.raises(TypeError):
            fn(NU, A)
