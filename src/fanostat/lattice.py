"""The theta series of the hyperplane lattice nu^perp = {a in Z^N : <a, nu> = 0}
of a Veronese vector nu, read off exactly as a count of short vectors.

The vectors a in Z^N with |a|^2 <= K and <a, nu> = 0 are counted by the z^0
coefficient of prod_i theta(q, z^{nu_i}), theta(q, z) = sum_m q^{m^2} z^m,
summed over q^k with k <= K (Conway and Sloane, Sphere Packings, Lattices and
Groups, ch. 2). It needs no basis of the lattice: a table over the states
(|a|^2, <a, nu>) takes one coordinate at a time.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import EnumerationBudgetExceeded


def _theta_table(nu, K: int, S: int, dtype) -> np.ndarray:
    """T[k, S + s] = #{a in Z^len(nu) : |a|^2 = k, <a, nu> = s} for k <= K
    and |s| <= S.

    Each coordinate adds its value m (and -m) to every vector so far, moving
    it by (m^2, m |nu_i|); the sign of nu_i only relabels m. With S at least
    sqrt(K) |nu|, Cauchy-Schwarz keeps every prefix of a vector with
    |a|^2 <= K inside the table, so nothing that is cut off could return."""
    width = 2 * S + 1
    table = np.zeros((K + 1, width), dtype=dtype)
    table[0, S] = 1
    for v in nu:
        v = abs(int(v))
        new = table.copy()
        for m in range(1, math.isqrt(K) + 1):
            k, s = m * m, m * v
            if s < width:
                new[k:, s:] += table[: K + 1 - k, : width - s]
                new[k:, : width - s] += table[: K + 1 - k, s:]
        table = new
    return table


@lru_cache(maxsize=None)
def _ball_size(N: int, K: int) -> int:
    """#{a in Z^N : |a|^2 <= K}, exactly: the theta table of nu = 0."""
    return int(_theta_table((0,) * N, K, 0, object).sum())


def primitive_orthogonal_count(nu, K: int, budget: int = 10**8) -> int:
    """#{a in Z^N primitive : |a|^2 <= K, <a, nu> = 0}, counted up to sign.

    T(k), the number of such a with |a|^2 <= k, zero and imprimitive ones
    included, is the cumulative column s = 0 of the theta table. A nonzero a
    is g times a primitive vector of norm at most k / g^2, so the primitive
    count is P(k) = T(k) - 1 - sum_{g >= 2} P(floor(k / g^2)).

    The cells are int64 when the ball of Z^N bounds every cell below 2^63,
    else Python integers. `budget` bounds the number of cells."""
    S = math.isqrt(K * sum(int(v) ** 2 for v in nu))
    if (K + 1) * (2 * S + 1) > budget:
        raise EnumerationBudgetExceeded("theta table too large", (K + 1) * (2 * S + 1))
    dtype = np.int64 if _ball_size(len(nu), K) < 2**63 else object
    T = np.cumsum(_theta_table(nu, K, S, dtype)[:, S]).tolist()
    P = []
    for k in range(K + 1):
        P.append(T[k] - 1 - sum(P[k // (g * g)] for g in range(2, math.isqrt(k) + 1)))
    return P[K] // 2
