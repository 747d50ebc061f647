import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fanostat.errors import EnumerationBudgetExceeded
from fanostat.intlinalg import integer_ball
from fanostat.lattice import primitive_orthogonal_count


def _brute_count(nu, A):
    """Primitive a up to sign with |a| <= A and <a, nu> = 0: the rows of the
    integer ball with <a, nu> = 0."""
    ball = integer_ball(len(nu), Fraction(A) ** 2)
    return int((ball.astype(object) @ np.array(nu, dtype=object) == 0).sum())


@st.composite
def _theta_cases(draw):
    N = draw(st.integers(1, 7))
    nu = draw(st.lists(st.integers(-6, 6), min_size=N, max_size=N))
    A = draw(st.sampled_from([Fraction(1, 2), 1, Fraction(3, 2), 2, Fraction(5, 2)] + ([3] if N <= 5 else [])))
    return nu, A


@example(([0, 1, -1, 2, -2, 0], Fraction(5, 2)))  # zeros, negatives, repeated |nu_i|
@example(([3, -3, 3, 0], Fraction(3, 2)))
@example(([0, 0, 0], 2))  # every vector of the ball counts
@example(([1, 4, 9, 16, 25, 36, 49], 3))  # a Veronese-like vector, wider than sqrt(K)
@given(_theta_cases())
def test_theta_count_matches_the_filtered_integer_ball(case):
    nu, A = case
    assert primitive_orthogonal_count(nu, math.floor(Fraction(A) ** 2)) == _brute_count(nu, A)


@pytest.mark.parametrize("N, K", [(10, 4), (20, 4), (20, 6)])
def test_theta_count_at_nu_zero_is_the_size_of_the_integer_ball(N, K):
    # two independent counts of the primitive vectors up to sign: the theta
    # table's Moebius recursion and the rows the enumeration builds
    assert len(integer_ball(N, K)) == primitive_orthogonal_count((0,) * N, K)


def test_theta_count_beyond_int64_cells():
    # N = 56 (cubic fourfolds), A = 8, nu = e_0: the primitive vectors of the
    # ball of radius^2 64 in Z^55, from the q-coefficients of theta(q)^55
    N, K = 56, 64
    r = [1] + [0] * K  # r[k] = #{a in Z^j : |a|^2 = k}
    for _ in range(N - 1):
        r = [r[k] + 2 * sum(r[k - m * m] for m in range(1, math.isqrt(k) + 1)) for k in range(K + 1)]
    T = [sum(r[: k + 1]) for k in range(K + 1)]
    mobius = {1: 1, 2: -1, 3: -1, 4: 0, 5: -1, 6: 1, 7: -1, 8: 0}
    expected = sum(mu * (T[K // (g * g)] - 1) for g, mu in mobius.items()) // 2
    assert expected > 2**63
    got = primitive_orthogonal_count([1] + [0] * (N - 1), K)
    assert type(got) is int and got == expected


def test_budget_raises():
    # 5 rows of k and 2 isqrt(4 * 2) + 1 = 5 columns of s; only +-(1, 1) counts
    assert primitive_orthogonal_count([1, -1], 4, budget=25) == 1
    with pytest.raises(EnumerationBudgetExceeded):
        primitive_orthogonal_count([1, -1], 4, budget=24)
