import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fanostat.counting import (
    CountSpec,
    Prediction,
    coset_cone_volume,
    count_lattice_points,
    predicted_count,
    predicted_reciprocal_sum,
    trend_improves,
    veronese_reciprocal_sum,
    veronese_reciprocal_volume,
)
from fanostat.geom import cap_volume, unit_ball_volume
from fanostat.lattice import from_rows, hyperplane_lattice, standard_lattice
from fanostat.numtheory import zeta
from fanostat.veronese import monomial_basis, veronese


def trivial_spec(lat, X, **kw):
    N = lat.ambient
    return CountSpec(lat, (0,) * N, 1, (1,) + (0,) * (N - 1), Fraction(1), X, **kw)


def test_count_examples():
    Z2 = standard_lattice(2)
    assert count_lattice_points(trivial_spec(Z2, 2)) == 13
    assert count_lattice_points(trivial_spec(Z2, 2, primitive_in_ambient=True)) == 8
    # narrow cone around a direction missing every lattice point except 0
    spec = CountSpec(Z2, (0, 0), 1, (3, 1), Fraction(1, 20), 4)
    assert count_lattice_points(spec) == 1 + 2  # origin plus +-(3,1)


def brute_count(spec):
    from fanostat.geom import Cone, cone_member
    from fanostat.numtheory import reduced_residues

    lat = spec.lattice
    cone = Cone(spec.xi, Fraction(spec.sigma))
    allowed = {
        tuple((u * v) % spec.q for v in spec.c) for u in reduced_residues(spec.q)
    }
    X2 = Fraction(spec.X) ** 2
    count = 0
    for coeffs in itertools.product(range(-12, 13), repeat=lat.rank):
        x = tuple(
            sum(c * lat.basis[i][t] for i, c in enumerate(coeffs))
            for t in range(lat.ambient)
        )
        if sum(v * v for v in x) > X2:
            continue
        if spec.q > 1 and tuple(v % spec.q for v in x) not in allowed:
            continue
        if spec.primitive_in_ambient:
            if not any(x) or math.gcd(*[abs(v) for v in x]) != 1:
                continue
        if not cone_member(cone, x):
            continue
        count += 1
    return count


def test_count_randomized_against_bruteforce():
    import random

    rng = random.Random(71)
    for _ in range(40):
        N = rng.randint(2, 3)
        if rng.random() < 0.5:
            lat = standard_lattice(N)
        else:
            c = tuple(rng.randint(-3, 3) for _ in range(N))
            if not any(c):
                continue
            lat = hyperplane_lattice(c)
        q = rng.choice([1, 2, 3])
        cc = tuple(rng.randint(0, q - 1) if q > 1 else 0 for _ in range(N))
        if q > 1 and math.gcd(*[abs(v) for v in cc] or [0], q) != 1:
            continue
        if q > 1 and math.gcd(math.gcd(*[abs(v) for v in cc]), q) != 1:
            continue
        xi = tuple(rng.randint(-2, 2) for _ in range(N))
        if not any(xi):
            continue
        spec = CountSpec(
            lat,
            cc,
            q,
            xi,
            Fraction(rng.choice([1, 2, 3]), 3),
            rng.randint(1, 6),
            primitive_in_ambient=rng.random() < 0.5,
        )
        assert count_lattice_points(spec) == brute_count(spec), spec


def test_coset_cone_volume_cases():
    Z2 = standard_lattice(2)
    v = coset_cone_volume(Z2, (0, 0), 1, (1, 0), Fraction(1))
    assert v.value == pytest.approx(math.pi)
    # empty coset: hyperplane lattice misses the class
    L = hyperplane_lattice((1, 1, 1))
    v0 = coset_cone_volume(L, (1, 1, 1), 2, (1, 0, 0), Fraction(1))
    assert v0.value == 0.0 and v0.method == "empty-coset"
    # trivial intersection
    L1 = from_rows([(1, 0)])
    vt = coset_cone_volume(L1, (0, 0), 1, (0, 1), Fraction(1, 2))
    assert vt.value == 0.0 and vt.method == "trivial-intersection"
    # subcone: full-rank lattice, aperture = sigma
    vs = coset_cone_volume(Z2, (0, 0), 1, (1, 0), Fraction(1, 2), mc_samples=200000)
    assert vs.value == pytest.approx(cap_volume(2, 0.5), abs=1e-9)
    assert abs(vs.mc_value - vs.value) < 4 * vs.mc_err


def test_predicted_count_formulas():
    Z2 = standard_lattice(2)
    spec = trivial_spec(Z2, 10)
    pred = predicted_count(spec)
    assert pred.value == pytest.approx(math.pi * 100)
    spec_p = trivial_spec(Z2, 10, primitive_in_ambient=True)
    pred_p = predicted_count(spec_p)
    assert pred_p.value == pytest.approx(math.pi * 100 / zeta(2))
    with pytest.raises(ValueError):
        predicted_count(trivial_spec(from_rows([(1, 0)]), 5, primitive_in_ambient=True))


def test_count_converges_to_prediction():
    # Gauss-circle style convergence, trivial constraints
    Z2 = standard_lattice(2)
    ratios = []
    for X in (8, 16, 32):
        exact = count_lattice_points(trivial_spec(Z2, X))
        pred = predicted_count(trivial_spec(Z2, X))
        ratios.append(exact / pred.value)
    assert abs(ratios[-1] - 1) < 0.05
    # primitive: density 6/pi^2 thinning, doubling X shrinks the gap
    r2 = []
    for X in (10, 20, 40):
        spec = trivial_spec(Z2, X, primitive_in_ambient=True)
        r2.append(count_lattice_points(spec) / predicted_count(spec).value)
    assert abs(r2[-1] - 1) < abs(r2[0] - 1) + 0.02
    assert abs(r2[-1] - 1) < 0.05


def test_reciprocal_sum_examples():
    # (d,n) = (2,2), q=1, sigma=1, X=1: six unit vectors, each |nu| = 1
    val = veronese_reciprocal_sum(2, 2, (0, 0, 0), 1, (1, 0, 0), 1, 1)
    assert val == pytest.approx(6.0)
    assert veronese_reciprocal_sum(2, 2, (0, 0, 0), 1, (1, 0, 0), 1, Fraction(1, 2)) == 0.0
    # monotone in X
    vals = [
        veronese_reciprocal_sum(2, 2, (0, 0, 0), 1, (1, 0, 0), 1, X) for X in (2, 4, 8)
    ]
    assert vals[0] <= vals[1] <= vals[2]


def test_reciprocal_volume_properties():
    rng = np.random.default_rng(5)
    # lower bound: the cap volume (integrand >= 1 on the unit ball)
    for sigma in (Fraction(1), Fraction(1, 2)):
        west = veronese_reciprocal_volume(2, 2, (1, 0, 0), sigma, 200000, rng)
        assert west.value >= cap_volume(3, float(sigma)) - 4 * west.err
    # permutation invariance of xi within MC error
    w1 = veronese_reciprocal_volume(2, 3, (1, 2, 0, 1), Fraction(1, 2), 200000, np.random.default_rng(1))
    w2 = veronese_reciprocal_volume(2, 3, (1, 0, 2, 1), Fraction(1, 2), 200000, np.random.default_rng(2))
    assert abs(w1.value - w2.value) < 4 * (w1.err + w2.err)
    # W ~ sigma^n within fitted constants across a sigma grid
    for n, d in ((2, 2), (3, 2)):
        consts = []
        for sigma in (0.3, 0.5, 0.8, 1.0):
            w = veronese_reciprocal_volume(d, n, (1,) + (0,) * n, Fraction(sigma).limit_denominator(10), 100000,
                                           np.random.default_rng(7))
            consts.append(w.value / float(Fraction(sigma).limit_denominator(10)) ** n)
        assert max(consts) / min(consts) < 8.0


def test_reciprocal_convergence():
    rng = np.random.default_rng(11)
    w = veronese_reciprocal_volume(2, 2, (1, 0, 0), 1, 400000, rng)
    ratios = []
    for X in (10, 20, 40):
        exact = veronese_reciprocal_sum(2, 2, (0, 0, 0), 1, (1, 0, 0), 1, X)
        pred = predicted_reciprocal_sum(2, 2, (0, 0, 0), 1, (1, 0, 0), 1, X, volume=w)
        ratios.append(exact / pred.value)
    assert abs(ratios[-1] - 1) < 0.1


def test_q_scaling_of_reciprocal_sum():
    # phi(q)/J_{n+1}(q) scaling matches exact sums at q in {2, 3}
    rng = np.random.default_rng(13)
    w = veronese_reciprocal_volume(2, 2, (1, 0, 0), 1, 400000, rng)
    X = 40
    for q, c in ((2, (1, 1, 1)), (3, (1, 1, 2))):
        exact = veronese_reciprocal_sum(2, 2, c, q, (1, 0, 0), 1, X)
        pred = predicted_reciprocal_sum(2, 2, c, q, (1, 0, 0), 1, X, volume=w)
        assert abs(exact / pred.value - 1) < 0.2, (q, exact, pred.value)


def test_trend_helper():
    assert trend_improves([1.5, 1.2, 1.05])
    assert not trend_improves([1.05, 1.2, 1.5])
    assert trend_improves([1.5, 1.6, 1.2, 1.1], need=2)


@settings(max_examples=15)
@given(
    st.lists(st.fractions(-3, 3, max_denominator=4), min_size=2, max_size=3).filter(any),
    st.fractions(Fraction(1, 10), 1, max_denominator=10),
    st.integers(1, 5),
    st.booleans(),
)
@example([Fraction(1, 2), Fraction(1)], Fraction(1, 3), 6, False)
def test_count_paths_agree_for_rational_axes(axis, sigma, X, primitive):
    # Z^N in its standard basis takes the numpy path, in a skew unimodular
    # basis the Fincke-Pohst path; the cone is the same for any multiple of
    # its axis, so both must give the brute-force count
    N = len(axis)
    skew = from_rows([[int(j in (i, i + 1)) for j in range(N)] for i in range(N)])
    specs = [
        CountSpec(lat, (0,) * N, 1, tuple(axis), sigma, X, primitive_in_ambient=primitive)
        for lat in (standard_lattice(N), skew)
    ]
    assert [count_lattice_points(spec) for spec in specs] == [brute_count(specs[0])] * 2
