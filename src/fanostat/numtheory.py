"""Exact elementary number theory: primes, factorization, totients, CRT, zeta.

Everything here is integer-exact except ``zeta``, which carries an explicit
tolerance. Factorization is trial division against a sieved prime table
that grows on demand up to 10**6; a cofactor it cannot prove prime is an
error, never a reported prime. Every congruence condition x ≡ u c mod q
(u a unit) is tested here, as a numpy row mask over the unit classes.
"""

from __future__ import annotations

import bisect
import itertools
import math
from fractions import Fraction

import numpy as np

_SIEVE_BOUND = 10**6
_primes: list[int] = []
_sieved = 1  # _primes holds every prime <= _sieved


def _prime_table(bound: int) -> list[int]:
    """The cached primes, sieved at least up to min(bound, _SIEVE_BOUND).

    The sieve grows geometrically, so repeated small requests stay cheap and
    a run that only needs small primes never sieves the whole range.
    """
    global _primes, _sieved
    if bound > _sieved and _sieved < _SIEVE_BOUND:
        limit = min(_SIEVE_BOUND, max(bound, 2 * _sieved))
        sieve = bytearray([1]) * (limit + 1)
        sieve[0] = sieve[1] = 0
        for i in range(2, math.isqrt(limit) + 1):
            if sieve[i]:
                sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
        _primes = list(itertools.compress(range(limit + 1), sieve))
        _sieved = limit
    return _primes


def primes_up_to(bound: int) -> list[int]:
    """Primes <= bound (bound must stay below the sieve range)."""
    if bound > _SIEVE_BOUND:
        raise ValueError(f"prime table only covers up to {_SIEVE_BOUND}")
    table = _prime_table(bound)
    return table[: bisect.bisect_right(table, bound)]


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization [(p, e), ...] by trial division, n >= 1.

    Raises ValueError when the cofactor left after the whole prime table may
    still be composite (it exceeds the square of the sieve bound).
    """
    if n < 1:
        raise ValueError("factorize needs n >= 1")
    out = []
    for p in _prime_table(math.isqrt(n)):
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
    if n > 1:
        if math.isqrt(n) > _sieved:
            raise ValueError(f"cofactor {n} has no prime factor <= {_sieved} and is not proven prime")
        out.append((n, 1))
    return out


def jordan_totient(k: int, q: int) -> int:
    """J_k(q) = q^k prod_{p|q} (1 - p^{-k}), exactly.

    J_k(q) counts k-tuples mod q jointly coprime to q; k=1 is Euler phi.
    """
    if k < 1 or q < 1:
        raise ValueError("jordan_totient needs k >= 1, q >= 1")
    result = 1
    for p, e in factorize(q):
        result *= p ** (e * k) - p ** ((e - 1) * k)
    return result


def euler_phi(q: int) -> int:
    return jordan_totient(1, q)


# Bernoulli numbers B_2, B_4, B_6, B_8 for the Euler-Maclaurin tail.
_BERNOULLI = [Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30)]


def zeta(s: float, tol: float = 1e-12) -> float:
    """Riemann zeta at real s > 1 within tol.

    Truncated sum plus Euler-Maclaurin correction with four Bernoulli terms;
    the truncation point M grows until the first omitted term is below tol.
    """
    if s <= 1:
        raise ValueError("zeta(s) needs s > 1")
    if tol <= 0:
        raise ValueError("tol must be positive")
    M = 2
    while True:
        # magnitude of the first omitted Euler-Maclaurin term (B_10 / 10!)
        # ~ |B_10|/10! * s(s+1)...(s+8) * M^{-s-9}; bound it crudely
        rise = 1.0
        for j in range(9):
            rise *= s + j
        omitted = 5.0 / 66.0 / math.factorial(10) * rise * M ** (-s - 9.0)
        if omitted < tol / 2 or M > 10**7:
            break
        M *= 2
    total = math.fsum(k ** (-s) for k in range(1, M + 1))
    total += M ** (1.0 - s) / (s - 1.0)
    total -= 0.5 * M ** (-s)
    # correction terms B_{2j}/(2j)! * s(s+1)...(s+2j-2) * M^{-s-2j+1}
    rise = 1.0
    for j, b in enumerate(_BERNOULLI, start=1):
        if j == 1:
            rise = s
        else:
            rise *= (s + 2 * j - 3) * (s + 2 * j - 2)
        total += float(b) / math.factorial(2 * j) * rise * M ** (-s - 2 * j + 1.0)
    return total


def crt_combine(pairs):
    """Combine residue vectors under pairwise coprime moduli.

    pairs: list of (residue, modulus) where residue is an int or a sequence
    of ints. Returns (combined residue of the same shape, product modulus).
    """
    if not pairs:
        raise ValueError("crt_combine needs at least one (residue, modulus) pair")
    scalar = all(isinstance(r, int) for r, _ in pairs)
    vectors = [(r,) if isinstance(r, int) else tuple(r) for r, _ in pairs]
    length = len(vectors[0])
    if any(len(v) != length for v in vectors):
        raise ValueError("residue vectors must share a length")
    modulus = 1
    combined = [0] * length
    for (_, m), vec in zip(pairs, vectors):
        if m < 1:
            raise ValueError("moduli must be positive")
        g = math.gcd(modulus, m)
        if g != 1:
            raise ValueError(f"moduli share a factor {g}")
        # standard incremental CRT on each component
        inv = pow(modulus, -1, m)  # gcd 1 was checked; 0 when m = 1
        new = []
        for c, r in zip(combined, vec):
            t = ((r - c) * inv) % m
            new.append((c + modulus * t) % (modulus * m))
        combined = new
        modulus *= m
    if scalar:
        return combined[0], modulus
    return tuple(combined), modulus


def reduced_residues(q: int) -> list[int]:
    """Units mod q; for q = 1 the single residue 0."""
    if q == 1:
        return [0]
    return [u for u in range(1, q) if math.gcd(u, q) == 1]


def unit_class_mask(pts: np.ndarray, c, q: int) -> np.ndarray:
    """Row mask of an integer point array: x ≡ u c mod q for a unit u."""
    if q == 1:
        return np.ones(len(pts), dtype=bool)
    res = pts % q
    mask = np.zeros(len(pts), dtype=bool)
    for a in {tuple((u * int(v)) % q for v in c) for u in reduced_residues(q)}:
        mask |= (res == np.array(a, dtype=np.int64)).all(axis=1)
    return mask
