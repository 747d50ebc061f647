"""p-adic arithmetic with explicit finite precision, and Hensel certificates.

p-adic numbers are integers mod p^v with the precision v carried alongside;
every operation reports only digits its inputs justify.

A p-adic `yes` is a LiftCertificate or an ExactZeroCertificate. A
LiftCertificate is a residue x mod p^e with Hensel's hypotheses: f(x) == 0
mod p^e and a partial derivative of valuation l < e/2, so a Q_p-zero lies
within p^-(e - l) of x. Nothing reads that zero's digits, so none is computed.
An ExactZeroCertificate is an integer point with f = 0 exactly.
`lift_hypersurface_point` builds the first from a residue;
`verify_certificate` re-checks either from scratch against its target, at
the radius p^-r the certificate records, or with no target when r = 0
(plain Q_p-solubility).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import HypothesisFailed
from .veronese import Form, evaluate_form, gradient_form


def valuation(x, p: int):
    """v_p(x) for an integer; math.inf at 0."""
    if x == 0:
        return math.inf
    x = abs(int(x))
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def vec_valuation(vec, p: int):
    return min(valuation(x, p) for x in vec)


def proj_distance_padic(x, y, p: int) -> float:
    """d_p(x, y) = max 2-minor |.|_p divided by the max norms."""
    if all(c == 0 for c in x) or all(c == 0 for c in y):
        raise ValueError("projective distance needs nonzero vectors")
    n = len(x)
    best = min((valuation(x[i] * y[j] - x[j] * y[i], p) for i in range(n) for j in range(i + 1, n)), default=math.inf)
    if best == math.inf:
        return 0.0
    return float(p) ** (-(best - vec_valuation(x, p) - vec_valuation(y, p)))


@dataclass(frozen=True)
class PadicApproxVector:
    """Entries mod p^precision, reduced into [0, p^precision)."""

    p: int
    precision: int
    entries: tuple

    def __post_init__(self):
        if self.precision < 1:
            raise ValueError("precision must be >= 1")
        mod = self.p**self.precision
        for e in self.entries:
            if not 0 <= e < mod:
                raise ValueError("entries must be reduced mod p^precision")

    @property
    def is_primitive(self) -> bool:
        return any(e % self.p != 0 for e in self.entries)

    @classmethod
    def from_integers(cls, p: int, precision: int, entries) -> "PadicApproxVector":
        mod = p**precision
        return cls(p, precision, tuple(int(e) % mod for e in entries))


# ---------------------------------------------------------------------------
# Hensel certificates on a hypersurface


@dataclass(frozen=True)
class LiftCertificate:
    """A residue x mod p^e of a Q_p-point of the hypersurface, by Hensel's lemma.

    point: x (primitive at p), with f(x) == 0 mod p^e and some partial
    derivative of valuation at most l, where e > 2l. Then f has a zero in
    P^n(Q_p) within p^-(e - l) of x: on the coordinate line of that partial,
    t -> f(x + t e_i) has a root t with v(t) >= e - l.
    radius: the exponent r of the ball p^-r around the target that the
    certificate promises (0 <= r <= e - l); defaults to e - l, the lemma's own
    bound, and is smaller when the residue is only near the target.
    """

    p: int
    point: tuple
    e: int
    l: int
    radius: int | None = None

    @property
    def distance_exponent(self) -> int:
        return self.e - self.l

    def __post_init__(self):
        if not self.e > 2 * self.l:
            raise ValueError("certificate requires e > 2l")
        if self.radius is None:
            object.__setattr__(self, "radius", self.e - self.l)
        if not 0 <= self.radius <= self.e - self.l:
            raise ValueError("certified radius must lie in [0, e - l]")


@dataclass(frozen=True)
class ExactZeroCertificate:
    """An integer point with f(point) == 0 exactly, primitive at p, lying
    within p^-radius of the target: a rational, hence p-adic, zero."""

    p: int
    point: tuple
    radius: int

    def __post_init__(self):
        if self.radius < 0:
            raise ValueError("certified radius must be >= 0")


def lift_hypersurface_point(form: Form, xi: PadicApproxVector, e: int, radius: int | None = None) -> LiftCertificate:
    """The LiftCertificate of the residue xi mod p^e, at l = l*, where
    p^-l* = max_i |df/dx_i(xi)|_p; raises HypothesisFailed unless e > 2 l*,
    f(xi) == 0 mod p^e and `radius` (see LiftCertificate) is at most e - l*.

    The gradient is computed once and checked before the value, so a residue
    the gradient rules out costs no evaluation of f; the value is checked by
    `verify_certificate`, which re-checks the whole certificate.
    """
    p = xi.p
    if not xi.is_primitive:
        raise HypothesisFailed("primitivity", "xi must have a unit entry")
    if xi.precision < e:
        raise HypothesisFailed("precision", "xi must carry at least e digits")
    if len(xi.entries) != form.basis.n + 1:
        raise ValueError("xi does not match the ambient dimension")
    x = [int(c) for c in xi.entries]
    lstar = min(min(valuation(g, p), e) for g in gradient_form(form, x))
    if not e > 2 * lstar:
        raise HypothesisFailed("gradient", f"need e > 2 v(grad); got e={e}, v={lstar}")
    if radius is not None and radius > e - lstar:
        raise HypothesisFailed("radius", f"radius {radius} beyond the lemma's distance bound e - l = {e - lstar}")
    cert = LiftCertificate(p, tuple(c % p**e for c in x), e, lstar, radius)
    verify_certificate(form, xi, cert)
    return cert


def verify_certificate(form: Form, xi: PadicApproxVector | None, cert):
    """Re-check a p-adic `yes` certificate from scratch; raises
    HypothesisFailed on any failure.

    A LiftCertificate must meet Hensel's hypotheses exactly: f(x) == 0 mod
    p^e, min_i v_p(df/dx_i(x)) <= l with e > 2l, and r <= e - l for its radius
    r. An ExactZeroCertificate must give an exact integer zero of f. Either
    point must be primitive at p and lie projectively within p^-r of xi, with
    r capped by xi.precision. xi may be None only for radius 0, a yes of plain
    Q_p-solubility. Any other object raises TypeError.
    """
    if not isinstance(cert, (LiftCertificate, ExactZeroCertificate)):
        raise TypeError(f"not a p-adic certificate: {type(cert).__name__}")
    p = cert.p
    point = [int(c) for c in cert.point]
    val = evaluate_form(form, point)
    if isinstance(cert, LiftCertificate):
        e, l = cert.e, cert.l
        if not (0 <= 2 * l < e and 0 <= cert.radius <= e - l):
            raise HypothesisFailed("re-verify", "certificate needs 0 <= 2l < e and a radius in [0, e - l]")
        if val % p**e != 0:
            raise HypothesisFailed("re-verify", "point is not a root mod p^e")
        if all(g % p ** (l + 1) == 0 for g in gradient_form(form, point)):
            raise HypothesisFailed("re-verify", "every partial derivative has valuation above l")
    elif val != 0:
        raise HypothesisFailed("re-verify", "point is not an exact zero of the form")
    if all(c % p == 0 for c in point):
        raise HypothesisFailed("re-verify", "point is not primitive at p")
    if xi is None:
        if cert.radius != 0:
            raise HypothesisFailed("re-verify", "a positive radius needs a target to check against")
        return
    if xi.p != p or len(xi.entries) != len(point):
        raise HypothesisFailed("re-verify", "certificate and target do not match")
    # the point must stay within the certified radius of xi projectively
    k = min(cert.radius, xi.precision)
    if not _projective_congruent(point, [c % p**k for c in xi.entries], p, k):
        raise HypothesisFailed("re-verify", "point lies outside the certified radius of xi")


def _projective_congruent(x, y, p: int, k: int) -> bool:
    """d_p([x], [y]) <= p^-k for primitive residues known mod >= p^k."""
    if k <= 0:
        return True
    mod = p**k
    for i in range(len(x)):
        for j in range(i + 1, len(x)):
            if (x[i] * y[j] - x[j] * y[i]) % mod != 0:
                return False
    return True
