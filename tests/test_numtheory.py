import math

import mpmath
import pytest
from hypothesis import given, strategies as st

from fanostat import numtheory
from fanostat.numtheory import (
    crt_combine,
    euler_phi,
    factorize,
    jordan_totient,
    primes_up_to,
    reduced_residues,
    zeta,
)


def test_jordan_examples():
    assert jordan_totient(2, 6) == 24
    assert jordan_totient(1, 10) == 4 == euler_phi(10)
    assert jordan_totient(5, 1) == 1


def test_jordan_matches_bruteforce():
    # direct count of k-tuples mod q with gcd(tuple, q) = 1, organized as a
    # DP over the running gcd (a divisor of q) so q = 60, k = 4 stays cheap
    for q in range(1, 61):
        residue_gcds = [math.gcd(a, q) for a in range(q)]
        counts = {}
        for g in residue_gcds:
            counts[g] = counts.get(g, 0) + 1
        for k in range(1, 5):
            state = {q: 1}  # gcd of the empty tuple with q
            for _ in range(k):
                nxt = {}
                for g, c in state.items():
                    for g2, c2 in counts.items():
                        gg = math.gcd(g, g2)
                        nxt[gg] = nxt.get(gg, 0) + c * c2
                state = nxt
            expected = state.get(1, 0)
            assert jordan_totient(k, q) == expected, (k, q)


def test_zeta_against_closed_forms():
    assert abs(zeta(2, 1e-10) - math.pi**2 / 6) < 1e-9
    assert abs(zeta(4, 1e-10) - math.pi**4 / 90) < 1e-9
    assert abs(zeta(30, 1e-12) - (1 + 2**-30)) < 2 * 3**-30 + 1e-12


def test_zeta_against_mpmath_and_monotone():
    grid = [1.5, 2.0, 2.5, 3.0, 4.0, 6.0, 9.0, 11.0]
    values = [zeta(s, 1e-11) for s in grid]
    for s, v in zip(grid, values):
        assert abs(v - float(mpmath.zeta(s))) < 1e-9, s
    assert all(a > b for a, b in zip(values, values[1:]))


def test_zeta_domain():
    with pytest.raises(ValueError):
        zeta(1.0)
    with pytest.raises(ValueError):
        zeta(0.5)


def test_crt_examples():
    assert crt_combine([(1, 2), (2, 3)]) == (5, 6)
    assert crt_combine([(4, 7)]) == (4, 7)
    combined, mod = crt_combine([((1, 2), 3), ((3, 0), 4)])
    assert mod == 12 and combined == (7, 8)
    # exhaustive oracle mod 12
    for x0 in range(12):
        for x1 in range(12):
            ok = x0 % 3 == 1 and x1 % 3 == 2 and x0 % 4 == 3 and x1 % 4 == 0
            assert ok == ((x0, x1) == (7, 8))


def test_crt_roundtrip_and_errors():
    combined, mod = crt_combine([((1, 2, 3), 5), ((0, 1, 2), 8), ((2, 2, 2), 9)])
    assert mod == 360
    for (res, m) in [((1, 2, 3), 5), ((0, 1, 2), 8), ((2, 2, 2), 9)]:
        assert tuple(c % m for c in combined) == res
    with pytest.raises(ValueError):
        crt_combine([(1, 4), (2, 6)])


@given(st.integers(2, 40), st.integers(1, 40), st.integers(1, 40), st.integers(-1000, 1000), st.integers(-1000, 1000))
def test_crt_combine_refuses_moduli_that_share_a_factor(g, a, b, r, s):
    with pytest.raises(ValueError, match="share a factor"):
        crt_combine([(r, g * a), (s, g * b)])


@st.composite
def _coprime_moduli(draw):
    moduli = []
    for m in draw(st.lists(st.integers(1, 60), min_size=1, max_size=5)):
        if all(math.gcd(m, k) == 1 for k in moduli):
            moduli.append(m)
    return moduli


@given(_coprime_moduli(), st.data())
def test_crt_combine_round_trip_property(moduli, data):
    residues = [data.draw(st.integers(-(10**6), 10**6)) for _ in moduli]
    combined, mod = crt_combine(list(zip(residues, moduli)))
    assert mod == math.prod(moduli) and 0 <= combined < mod
    assert all((combined - r) % m == 0 for r, m in zip(residues, moduli))


def test_factorize_reconstructs():
    for n in (1, 2, 97, 128, 360, 2**16 + 1, 999983):
        prod = 1
        for p, e in factorize(n):
            prod *= p**e
        assert prod == n


def test_residue_system():
    assert reduced_residues(12) == [1, 5, 7, 11]
    assert reduced_residues(1) == [0]


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 2.1e12 (bases 2, 3, 5, 7, 11)."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7, 11):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@given(st.integers(min_value=1, max_value=10**12 - 1))
def test_factorize_below_1e12_is_proven(n):
    fac = factorize(n)
    assert [p for p, _ in fac] == sorted({p for p, _ in fac})
    assert all(_is_prime(p) and e >= 1 for p, e in fac)
    assert math.prod(p**e for p, e in fac) == n


def test_factorize_edge_of_the_table():
    assert factorize(999999999989) == [(999999999989, 1)]  # the largest prime < 10^12
    assert factorize(999983**2) == [(999983, 2)]
    assert factorize(2 * 999983 * 999979) == [(2, 1), (999979, 1), (999983, 1)]


@pytest.mark.parametrize("n", [1000003**2, 1000003 * 1000033])
def test_factorize_refuses_unproven_cofactors(n):
    # no prime factor below the sieve bound and composite: never reported prime
    with pytest.raises(ValueError):
        factorize(n)
    with pytest.raises(ValueError):
        euler_phi(n)


def test_small_prime_request_sieves_only_what_it_needs(monkeypatch):
    monkeypatch.setattr(numtheory, "_primes", [])
    monkeypatch.setattr(numtheory, "_sieved", 1)
    assert primes_up_to(3) == [2, 3]
    assert numtheory._sieved < 100
    assert primes_up_to(100) == [p for p in range(2, 101) if _is_prime(p)]
    assert numtheory._sieved < 1000
