"""p-adic arithmetic with explicit finite precision, and Hensel lifting.

p-adic numbers are integers mod p^v with the precision v carried alongside;
every operation reports only digits its inputs justify. The two lifting
procedures are:

- hensel_lift: univariate, under the strict condition |f(a0)| < |f'(a0)|^2,
  returning a root mod p^target with |root - a0| <= |f(a0)/f'(a0)|;
- lift_hypersurface_point: multivariate via freezing all but the coordinate
  with the largest partial derivative, with the exact hypothesis checks
  e > 2l, l >= min valuation of the gradient, |f| <= p^-e.

A p-adic `yes` is a LiftCertificate (a Hensel lift) or an ExactZeroCertificate
(an integer point with f = 0 exactly); `verify_certificate` re-checks either
from scratch against its target, at the radius p^-r the certificate records,
or with no target when r = 0 (plain Q_p-solubility).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import HypothesisFailed, NonConvergence, PreconditionFailed
from .veronese import Form, _line_restriction, evaluate_form, gradient_form


def valuation(x, p: int):
    """v_p(x) for an integer or Fraction; math.inf at 0."""
    if x == 0:
        return math.inf
    if isinstance(x, Fraction):
        return valuation(x.numerator, p) - valuation(x.denominator, p)
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

    def reduce(self, precision: int) -> "PadicApproxVector":
        if precision > self.precision:
            raise ValueError("cannot gain precision by reduction")
        mod = self.p**precision
        return PadicApproxVector(self.p, precision, tuple(e % mod for e in self.entries))

    @classmethod
    def from_integers(cls, p: int, precision: int, entries) -> "PadicApproxVector":
        mod = p**precision
        return cls(p, precision, tuple(int(e) % mod for e in entries))


# ---------------------------------------------------------------------------
# univariate polynomials over Z


def poly_eval(coeffs, x, mod=None):
    """Horner evaluation of sum coeffs[i] x^i, optionally mod m."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
        if mod is not None:
            acc %= mod
    return acc


def poly_derivative(coeffs):
    return [i * c for i, c in enumerate(coeffs)][1:] or [0]


def hensel_lift(coeffs, alpha0: int, p: int, target_precision: int):
    """Root of an integer polynomial mod p^target by quadratic Newton steps.

    Requires |f(a0)|_p < |f'(a0)|_p^2 strictly (PreconditionFailed otherwise;
    the iteration is never run on a bad start). Returns (root, l, e0) with
    l = v_p(f'(a0)) and e0 = v_p(f(a0)); the exact root satisfies
    |root_exact - a0|_p <= p^-(e0 - l), and f(root) == 0 mod p^target.
    """
    if target_precision < 1:
        raise ValueError("target precision must be >= 1")
    dcoeffs = poly_derivative(coeffs)
    f0 = poly_eval(coeffs, alpha0)
    fp0 = poly_eval(dcoeffs, alpha0)
    l = valuation(fp0, p)
    e0 = valuation(f0, p)
    if not e0 > 2 * l:  # also rejects f'(a0) = 0 (l = inf)
        raise PreconditionFailed(
            f"need v(f(a0)) > 2 v(f'(a0)); got v(f)={e0}, v(f')={l}"
        )
    if f0 == 0:
        return alpha0 % p**target_precision, l, e0
    # work precision: enough digits that the root is pinned mod p^target
    K = target_precision + 2 * l + 1
    modK = p**K
    alpha = alpha0 % modK
    # invariant: v(f'(alpha)) = l throughout; update a = a - f(a)/f'(a)
    for _ in range(K.bit_length() + target_precision + 8):
        fa = poly_eval(coeffs, alpha, modK)
        if fa % (p ** min(K, target_precision + l)) == 0:
            va = valuation(fa, p) if fa else K
            if va - l >= target_precision:
                break
        fpa = poly_eval(dcoeffs, alpha, modK)
        unit = fpa // p**l
        inv = pow(unit % modK, -1, modK)
        step = (fa // p**l) * inv % modK
        alpha = (alpha - step) % modK
    else:
        raise NonConvergence("Hensel iteration failed to stabilize")
    root = alpha % p**target_precision
    return root, l, e0


# ---------------------------------------------------------------------------
# multivariate lift on a hypersurface


@dataclass(frozen=True)
class LiftCertificate:
    """A verified p-adic point near xi on the hypersurface of the form.

    point: the lifted approximation mod p^target (primitive);
    e: verified valuation of f at the start; l: verified gradient valuation
    bound; the exact point satisfies d_p <= p^-(e - l) from the start.
    radius: the exponent r of the ball p^-r around the target that the
    certificate promises (0 <= r <= e - l); defaults to e - l, the lift's own
    bound, and is smaller when the start is only a residue near the target.
    """

    p: int
    target_precision: int
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
        if self.target_precision < self.e - self.l:
            raise ValueError("target precision below the guaranteed distance")
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


def lift_hypersurface_point(
    form: Form,
    xi: PadicApproxVector,
    e: int,
    l: int | None = None,
    target_precision: int | None = None,
    radius: int | None = None,
) -> LiftCertificate:
    """Verify the lifting hypotheses at xi exactly and run the 1-D lift.

    Hypotheses checked on the residue (sound at precision >= e):
      (a) f(xi) == 0 mod p^e,
      (b) e > 2 l*,   where p^-l* = max_i |df/dx_i(xi)|_p,
      (c) l >= l*  and e > 2l (so the certificate's distance bound holds).
    l None takes l = l*. A `radius` r (see LiftCertificate) needs r <= e - l.
    The gradient is computed once, and its hypotheses are checked before the
    value, so a residue the gradient rules out costs no evaluation of f.
    The coordinate with the largest partial derivative (smallest index on
    ties) is lifted by `hensel_lift` with all others frozen.
    """
    p = xi.p
    if not xi.is_primitive:
        raise HypothesisFailed("primitivity", "xi must have a unit entry")
    if xi.precision < e:
        raise HypothesisFailed("precision", "xi must carry at least e digits")
    n = form.basis.n
    if len(xi.entries) != n + 1:
        raise ValueError("xi does not match the ambient dimension")
    x = [int(c) for c in xi.entries]
    grads = gradient_form(form, x)
    lstar = None
    pivot = None
    for i, g in enumerate(grads):
        v = valuation(g % p**xi.precision, p)
        v = min(v, xi.precision)
        if lstar is None or v < lstar:
            lstar, pivot = v, i
    if l is None:
        l = lstar
    if not e > 2 * lstar:
        raise HypothesisFailed("gradient", f"need e > 2 v(grad); got e={e}, v={lstar}")
    if l < lstar:
        raise HypothesisFailed("l-bound", f"stated l={l} below actual v(grad)={lstar}")
    if not e > 2 * l:
        raise HypothesisFailed("l-bound", f"need e > 2l; got e={e}, l={l}")
    if radius is not None and radius > e - l:
        raise HypothesisFailed("radius", f"radius {radius} beyond the lift's distance bound e - l = {e - l}")
    fval = evaluate_form(form, x)
    if fval % p**e != 0:
        raise HypothesisFailed("value", f"f(xi) != 0 mod p^{e}")
    if target_precision is None:
        target_precision = max(xi.precision, e + l + 1)
    # freeze everything except the pivot coordinate: t -> f(x with x_pivot = t)
    frozen = list(x)
    frozen[pivot] = 0
    uni = _line_restriction(form, frozen, pivot)
    root, _, _ = hensel_lift(uni, x[pivot], p, target_precision)
    lifted = list(x)
    lifted[pivot] = root
    point = PadicApproxVector.from_integers(p, target_precision, lifted)
    cert = LiftCertificate(p, target_precision, point.entries, e, l, radius)
    verify_certificate(form, xi, cert)
    return cert


def verify_certificate(form: Form, xi: PadicApproxVector | None, cert):
    """Re-check a p-adic `yes` certificate from scratch; raises on any failure.

    A LiftCertificate must give a primitive root of f mod p^target_precision,
    an ExactZeroCertificate an exact integer zero of f primitive at p. Either
    point must lie projectively within p^-r of xi, with r the certificate's
    radius capped by xi.precision. xi may be None only for radius 0, a yes of
    plain Q_p-solubility. Any other object raises TypeError.
    """
    if not isinstance(cert, (LiftCertificate, ExactZeroCertificate)):
        raise TypeError(f"not a p-adic certificate: {type(cert).__name__}")
    p = cert.p
    point = [int(c) for c in cert.point]
    val = evaluate_form(form, point)
    if isinstance(cert, LiftCertificate):
        if val % p**cert.target_precision != 0:
            raise HypothesisFailed("re-verify", "lifted point is not a root to target precision")
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
