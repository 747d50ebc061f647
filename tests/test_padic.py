import math
import random

import pytest

from fanostat.errors import HypothesisFailed, PreconditionFailed
from fanostat.padic import (
    LiftCertificate,
    PadicApproxVector,
    hensel_lift,
    lift_hypersurface_point,
    poly_derivative,
    poly_eval,
    proj_distance_padic,
    valuation,
    verify_certificate,
)
from fanostat.veronese import make_form


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


def test_hensel_basic():
    # sqrt(2) in Z_7 from alpha0 = 3
    root, l, e0 = hensel_lift([-2, 0, 1], 3, 7, 2)
    assert root in (10, 39)
    assert (root * root - 2) % 49 == 0
    root, _, _ = hensel_lift([-2, 0, 1], 3, 7, 6)
    assert (root * root - 2) % 7**6 == 0
    # 2-adic square root of 2 fails: f'(0) = 0
    with pytest.raises(PreconditionFailed):
        hensel_lift([-2, 0, 1], 0, 2, 3)
    # linear polynomial: immediate
    root, _, _ = hensel_lift([-10, 1], 3, 7, 4)  # t - 10 from alpha0 = 3
    assert root == 10 % 7**4


def test_hensel_random_soundness():
    # random (f, p, a0) meeting the precondition: the root reverifies with
    # the congruence and the distance bound, 1000 instances
    rng = random.Random(101)
    checked = 0
    while checked < 1000:
        p = rng.choice([2, 3, 5, 7, 11])
        deg = rng.randint(2, 5)
        coeffs = [rng.randint(-30, 30) for _ in range(deg + 1)]
        if coeffs[-1] == 0:
            coeffs[-1] = 1
        a0 = rng.randint(0, p**2)
        f0 = poly_eval(coeffs, a0)
        fp0 = poly_eval(poly_derivative(coeffs), a0)
        e0 = valuation(f0, p)
        l = valuation(fp0, p)
        if not (e0 > 2 * l):
            continue
        target = rng.randint(1, 8)
        root, lv, ev = hensel_lift(coeffs, a0, p, target)
        assert poly_eval(coeffs, root, p**target) == 0
        # distance bound |root - a0|_p <= p^-(e0 - l)
        if e0 is not math.inf:
            k = min(int(e0) - int(l), target)
            assert (root - a0) % p**k == 0
        checked += 1


def test_padic_vector_type():
    v = PadicApproxVector.from_integers(5, 2, (1, 2, 0))
    assert v.is_primitive
    assert v.reduce(1).entries == (1, 2, 0)
    assert not PadicApproxVector.from_integers(5, 1, (0, 5, 10)).is_primitive
    with pytest.raises(ValueError):
        PadicApproxVector(5, 0, (1,))
    with pytest.raises(ValueError):
        PadicApproxVector(5, 1, (7,))


def test_lift_point_on_conic():
    # X0^2 + X1^2 - X2^2 at (1, 2, 0) mod 5: f = 1 + 4 = 5, grad = (2, 4, 0)
    f = make_form(2, 2, [1, 0, 0, 1, 0, -1])
    xi = PadicApproxVector.from_integers(5, 1, (1, 2, 0))
    cert = lift_hypersurface_point(f, xi, e=1, l=0, target_precision=4)
    assert cert.distance_exponent == 1
    # lifted point satisfies f == 0 mod 5^4 and x0^2 ≡ -4 (sqrt(-4) in Z_5)
    x = cert.point
    val = sum(a * b for a, b in zip([1, 0, 0, 1, 0, -1], [x[0] ** 2, x[0] * x[1], x[0] * x[2], x[1] ** 2, x[1] * x[2], x[2] ** 2]))
    assert val % 5**4 == 0
    verify_certificate(f, xi, cert)


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
    cert = lift_hypersurface_point(f, xi, e=2, l=0)
    verify_certificate(f, xi, cert)
    assert cert.distance_exponent == 2


def test_lift_hypothesis_failures():
    f = make_form(2, 2, [1, 0, 0, 1, 0, -1])
    xi = PadicApproxVector.from_integers(5, 2, (1, 2, 0))
    # e = 2l fails the strict inequality
    with pytest.raises(HypothesisFailed):
        lift_hypersurface_point(f, xi, e=0 + 0, l=0)  # e=0 not > 0
    with pytest.raises(HypothesisFailed):
        lift_hypersurface_point(f, xi, e=2, l=1)  # e = 2l not strict
    # f(xi) != 0 mod p^e
    xi2 = PadicApproxVector.from_integers(5, 2, (1, 1, 0))
    with pytest.raises(HypothesisFailed):
        lift_hypersurface_point(f, xi2, e=1, l=0)


def test_lift_random_soundness_and_reverify():
    # random conics with a unit-gradient residue zero: lift and re-verify at
    # several precisions
    rng = random.Random(77)
    from fanostat.veronese import evaluate_form, gradient_form

    done = 0
    while done < 150:
        p = rng.choice([3, 5, 7])
        coeffs = [rng.randint(-6, 6) for _ in range(6)]
        if all(c == 0 for c in coeffs):
            continue
        f = make_form(2, 2, coeffs)
        x = tuple(rng.randint(0, p - 1) for _ in range(3))
        if all(c == 0 for c in x):
            continue
        if evaluate_form(f, x) % p != 0:
            continue
        grads = gradient_form(f, x)
        if all(g % p == 0 for g in grads):
            continue
        xi = PadicApproxVector.from_integers(p, 1, x)
        for w in (2, 3, 4):
            cert = lift_hypersurface_point(f, xi, e=1, l=0, target_precision=w)
            verify_certificate(f, xi, cert)
            assert evaluate_form(f, [int(c) for c in cert.point]) % p**w == 0
        done += 1


def test_certificate_invariants():
    with pytest.raises(ValueError):
        LiftCertificate(5, 1, (1, 0, 0), e=2, l=1)  # e = 2l
    with pytest.raises(ValueError):
        LiftCertificate(5, 1, (1, 0, 0), e=3, l=1)  # target below e - l
