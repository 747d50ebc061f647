import random
from dataclasses import replace

import pytest

from fanostat.errors import HypothesisFailed
from fanostat.localsolve import decide_padic_batch
from fanostat.padic import (
    ExactZeroCertificate,
    LiftCertificate,
    PadicApproxVector,
    lift_hypersurface_point,
    proj_distance_padic,
    valuation,
    verify_certificate,
)
from fanostat.veronese import evaluate_form, gradient_form, make_form


def test_proj_distance_padic():
    assert proj_distance_padic((1, 3), (1, 3), 5) == 0.0
    assert proj_distance_padic((1, 3), (1, 0), 3) == pytest.approx(1 / 3)
    # scaling invariance
    assert proj_distance_padic((2, 6), (1, 0), 3) == pytest.approx(1 / 3)
    # ultrametric inequality on random primitive triples
    rng = random.Random(9)
    p = 5
    for _ in range(400):
        vecs = []
        while len(vecs) < 3:
            v = tuple(rng.randint(-20, 20) for _ in range(3))
            if any(c % p != 0 for c in v):
                vecs.append(v)
        x, y, z = vecs
        dxz = proj_distance_padic(x, z, p)
        assert dxz <= max(proj_distance_padic(x, y, p), proj_distance_padic(y, z, p)) + 1e-12


def _newton_root(f, cert, w):
    """A root of f mod p^w from a LiftCertificate: exact Newton steps
    t -> t - f/f' on the coordinate with the least gradient valuation, all
    other coordinates fixed, mod p^(w + e)."""
    p, x = cert.p, list(cert.point)
    grads = gradient_form(f, x)
    i = min(range(len(x)), key=lambda k: valuation(grads[k], p))
    mod = p ** (w + cert.e)
    for _ in range(w + 2):
        val = evaluate_form(f, x)
        if val % p**w == 0:
            return x
        g = gradient_form(f, x)[i]
        l = valuation(g, p)
        x[i] = (x[i] - val // p**l * pow(g // p**l, -1, mod)) % mod
    raise AssertionError(f"no root mod {p}^{w} from {cert}")


def _assert_hensel(f, cert):
    """Hensel's lemma from the certificate: Newton reaches a root mod p^w for
    w = e+1 .. e+4, each within p^-(e - l) of the certificate's point."""
    for w in range(cert.e + 1, cert.e + 5):
        root = _newton_root(f, cert, w)
        assert evaluate_form(f, root) % cert.p**w == 0
        assert proj_distance_padic(root, cert.point, cert.p) <= float(cert.p) ** -(cert.e - cert.l)


def test_hensel_basic():
    # sqrt(2) in Z_7 from the residue 3: X0^2 - 2 X1^2 at (3, 1) mod 7
    f = make_form(2, 1, [1, 0, -2])
    cert = lift_hypersurface_point(f, PadicApproxVector.from_integers(7, 1, (3, 1)), e=1)
    assert (cert.point, cert.e, cert.l, cert.radius) == ((3, 1), 1, 0, 1)
    verify_certificate(f, None, replace(cert, radius=0))
    root, one = _newton_root(f, cert, 2)
    assert one == 1 and root % 49 == 10
    root, _ = _newton_root(f, cert, 6)
    assert (root * root - 2) % 7**6 == 0 and root % 7 == 3
    _assert_hensel(f, cert)
    # the 2-adic square root of 2 is refused: at (0, 1) the gradient (0, -4)
    # has valuation 2, so no precision e > 4 leaves f(0, 1) = -2 == 0 mod 2^e
    for e in (1, 2, 3, 5):
        with pytest.raises(HypothesisFailed):
            lift_hypersurface_point(f, PadicApproxVector.from_integers(2, e, (0, 1)), e=e)
    # a linear form is its own line: X0 - 10 X1 at (3, 1) mod 7
    g = make_form(1, 1, [1, -10])
    cert = lift_hypersurface_point(g, PadicApproxVector.from_integers(7, 1, (3, 1)), e=1)
    assert _newton_root(g, cert, 4) == [10, 1]


def test_hensel_random_soundness():
    # random binary forms X1^deg f(X0/X1) with a residue zero (a0, 1) meeting
    # the hypotheses: every certificate re-verifies and Newton from it
    # reaches roots within its distance bound, 1000 instances
    rng = random.Random(101)
    checked = 0
    while checked < 1000:
        p = rng.choice([2, 3, 5, 7, 11])
        deg = rng.randint(2, 5)
        coeffs = [rng.randint(-30, 30) for _ in range(deg + 1)]
        if coeffs[-1] == 0:
            coeffs[-1] = 1
        f = make_form(deg, 1, coeffs[::-1], primitive=False)
        x = (rng.randint(0, p**2), 1)
        e = min(valuation(evaluate_form(f, x), p), 6)
        if e == 0:
            continue
        try:
            cert = lift_hypersurface_point(f, PadicApproxVector.from_integers(p, e, x), e)
        except HypothesisFailed as exc:
            assert exc.which == "gradient"
            lstar = min(valuation(g, p) for g in gradient_form(f, x))
            assert not e > 2 * lstar
            continue
        verify_certificate(f, None, replace(cert, radius=0))
        _assert_hensel(f, cert)
        checked += 1


def test_padic_vector_type():
    v = PadicApproxVector.from_integers(5, 2, (1, 2, 0))
    assert v.is_primitive
    assert not PadicApproxVector.from_integers(5, 1, (0, 5, 10)).is_primitive
    with pytest.raises(ValueError):
        PadicApproxVector(5, 0, (1,))
    with pytest.raises(ValueError):
        PadicApproxVector(5, 1, (7,))


def test_lift_point_on_conic():
    # X0^2 + X1^2 - X2^2 at (1, 2, 0) mod 5: f = 1 + 4 = 5, grad = (2, 4, 0)
    f = make_form(2, 2, [1, 0, 0, 1, 0, -1])
    xi = PadicApproxVector.from_integers(5, 1, (1, 2, 0))
    cert = lift_hypersurface_point(f, xi, e=1)
    assert (cert.point, cert.l, cert.distance_exponent) == ((1, 2, 0), 0, 1)
    verify_certificate(f, xi, cert)
    # Newton along X0 gives x0^2 == -4 mod 5^4 (sqrt(-4) in Z_5)
    x = _newton_root(f, cert, 4)
    assert x[1:] == [2, 0] and (x[0] ** 2 + 4) % 5**4 == 0


def test_lift_exact_zero_unit_gradient():
    f = make_form(2, 3, [0, 0, 0, 1, 0, 0, 0, 0, -1, 0])  # X0X3 - X1X2 in lex order?
    # safer: construct from monomials directly
    from fanostat.veronese import monomial_basis

    b = monomial_basis(2, 3)
    coeffs = [0] * b.size
    coeffs[b.index((1, 0, 0, 1))] = 1
    coeffs[b.index((0, 1, 1, 0))] = -1
    f = make_form(2, 3, coeffs)
    xi = PadicApproxVector.from_integers(3, 2, (1, 0, 0, 0))
    cert = lift_hypersurface_point(f, xi, e=2)
    verify_certificate(f, xi, cert)
    assert (cert.l, cert.distance_exponent) == (0, 2)


def test_lift_hypothesis_failures():
    f = make_form(2, 2, [1, 0, 0, 1, 0, -1])
    xi = PadicApproxVector.from_integers(5, 2, (1, 2, 0))
    cases = [
        (f, xi, 0, None, "gradient"),  # e = 0 is not > 2l for any l >= 0
        (f, xi, 1, 2, "radius"),  # radius beyond e - l = 1
        (f, PadicApproxVector.from_integers(5, 2, (1, 1, 0)), 1, None, "re-verify"),  # f = 2, not 0 mod 5
        (f, PadicApproxVector.from_integers(5, 1, (1, 2, 0)), 2, None, "precision"),
        (f, PadicApproxVector.from_integers(5, 2, (0, 5, 10)), 1, None, "primitivity"),
        # X0^2 + X1^2 - 2 X2^2 at (1, 1, 1): the gradient (2, 2, -4) has
        # valuation 1, and e = 2 = 2l is not strict
        (make_form(2, 2, [1, 0, 0, 1, 0, -2]), PadicApproxVector.from_integers(2, 2, (1, 1, 1)), 2, None, "gradient"),
    ]
    for form, x, e, radius, which in cases:
        with pytest.raises(HypothesisFailed) as info:
            lift_hypersurface_point(form, x, e, radius)
        assert info.value.which == which


def test_lift_random_soundness_and_reverify():
    # random conics with a residue zero mod p or p^2 and a unit partial: every
    # certificate re-verifies, and Newton from it reaches roots mod p^(e+1) ..
    # p^(e+4) within its distance bound
    rng = random.Random(77)
    done = 0
    while done < 150:
        p = rng.choice([3, 5, 7])
        e = rng.choice([1, 2])
        coeffs = [rng.randint(-6, 6) for _ in range(6)]
        if all(c == 0 for c in coeffs):
            continue
        f = make_form(2, 2, coeffs)
        x = tuple(rng.randint(0, p**e - 1) for _ in range(3))
        if all(c % p == 0 for c in x) or evaluate_form(f, x) % p**e != 0:
            continue
        if all(g % p == 0 for g in gradient_form(f, x)):
            continue
        xi = PadicApproxVector.from_integers(p, e, x)
        cert = lift_hypersurface_point(f, xi, e)
        assert (cert.point, cert.e, cert.l, cert.radius) == (x, e, 0, e)
        verify_certificate(f, xi, cert)
        _assert_hensel(f, cert)
        done += 1


def test_certificate_invariants():
    with pytest.raises(ValueError):
        LiftCertificate(5, (1, 0, 0), e=2, l=1)  # e = 2l
    with pytest.raises(ValueError):
        LiftCertificate(5, (1, 0, 0), e=3, l=1, radius=3)  # radius beyond e - l
    assert LiftCertificate(5, (1, 0, 0), e=3, l=1).radius == 2


def _forged(cert, **fields):
    """A copy of the frozen certificate with fields overwritten in place."""
    cert = replace(cert)
    for name, value in fields.items():
        object.__setattr__(cert, name, value)
    return cert


def test_verify_certificate_rejects_tampering():
    # X0^2 + X1^2 + X2^2 has no Q_2-point, and at (1, 1, 0) its gradient
    # (2, 2, 0) has valuation 1: a claim of l = 0 must not pass
    sphere = make_form(2, 2, [1, 0, 0, 1, 0, 1])
    assert decide_padic_batch([sphere], 2, depth_budget=4)[0].verdict == "no"
    with pytest.raises(HypothesisFailed):
        verify_certificate(sphere, None, LiftCertificate(2, (1, 1, 0), e=1, l=0, radius=0))
    # X0^2 + X1^2 - 2 X2^2 vanishes at (1, 1, 1), where the gradient has valuation 1
    g = make_form(2, 2, [1, 0, 0, 1, 0, -2])
    honest = LiftCertificate(2, (1, 1, 1), e=3, l=1, radius=0)
    verify_certificate(g, None, honest)
    # X0^2 + X1^2 - X2^2 at (1, 2, 0) mod 5: f = 5, gradient (2, 4, 0)
    f = make_form(2, 2, [1, 0, 0, 1, 0, -1])
    xi = PadicApproxVector.from_integers(5, 2, (1, 2, 0))
    cert = lift_hypersurface_point(f, xi, e=1)
    verify_certificate(f, xi, cert)
    tampered = [
        (g, None, replace(honest, l=0, radius=0)),  # l below the gradient valuation
        (f, xi, replace(cert, point=(1, 1, 0))),  # f = 2: not a root mod 5
        (f, xi, replace(cert, e=2, radius=1)),  # f = 5: not a root mod 25
        (f, None, LiftCertificate(5, (5, 10, 0), e=3, l=1, radius=0)),  # a root mod 5^3, not primitive
        (f, xi, replace(cert, point=(1, 3, 0))),  # a root mod 5 outside radius 1 of xi
        # fields set past the constructor's checks: the sphere again with
        # l = 1, where e = 1 is not > 2l; a radius beyond e - l = 1
        (sphere, None, _forged(LiftCertificate(2, (1, 1, 0), e=3, l=1, radius=0), e=1)),
        (f, xi, _forged(cert, radius=2)),
    ]
    # exact zeros of X0^2 + X1^2 - 2 X2^2 near (1, 1, 1) mod 4, and without a target
    target = PadicApproxVector.from_integers(2, 2, (1, 1, 1))
    verify_certificate(g, target, ExactZeroCertificate(2, (1, 1, 1), 2))
    verify_certificate(g, None, ExactZeroCertificate(2, (1, -1, 1), 0))
    tampered += [
        (sphere, None, ExactZeroCertificate(2, (1, 1, 0), 0)),  # f = 2: a root mod 2, not an exact zero
        (g, None, ExactZeroCertificate(2, (2, 2, 2), 0)),  # an exact zero, not primitive at 2
        (g, target, ExactZeroCertificate(2, (1, -1, 1), 2)),  # an exact zero at distance 2^-1 from the target
        (g, None, ExactZeroCertificate(2, (1, 1, 1), 1)),  # a positive radius with no target
    ]
    for form, x, bad in tampered:
        with pytest.raises(HypothesisFailed):
            verify_certificate(form, x, bad)
