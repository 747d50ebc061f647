import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from fanostat.counting import (
    _veronese_norm_squared,
    predicted_reciprocal_sum,
    veronese_reciprocal_sum,
    veronese_reciprocal_volume,
)
from fanostat.geom import unit_ball_volume
from fanostat.localsolve import _CHUNK
from fanostat.veronese import monomial_basis, row_pairings, veronese, veronese_batch


def two_sided_cap_volume_r3(sigma):
    """vol(C(xi, sigma) ∩ B(1)) in R^3: two spherical cones of half-angle
    arcsin(sigma), each (2 pi / 3)(1 - cos), in closed form."""
    return 4 * math.pi / 3 * (1 - math.sqrt(1 - sigma * sigma))


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


def _two_sided_reciprocal_sum(d, n, c, q, xi, sigma, X):
    """The sum of 1/|nu(x)| over every primitive x in Z^(n+1), both signs,
    with |x| <= X, x ≡ u c mod q for a unit u and <x, xi>^2 >= (1 - sigma^2)
    |xi|^2 |x|^2, one term per x, |nu(x)|^2 from the Veronese vector."""
    r = math.isqrt(math.floor(Fraction(X) ** 2))
    classes = {tuple(u * v % q for v in c) for u in range(q) if math.gcd(u, q) == 1}
    K = (1 - Fraction(sigma) ** 2) * sum(Fraction(v) ** 2 for v in xi)
    basis = monomial_basis(d, n)
    terms = []
    for x in itertools.product(range(-r, r + 1), repeat=n + 1):
        norm2 = sum(v * v for v in x)
        if norm2 > Fraction(X) ** 2 or math.gcd(*x) != 1 or tuple(v % q for v in x) not in classes:
            continue
        if sum(a * b for a, b in zip(x, xi)) ** 2 >= K * norm2:
            terms.append(1.0 / math.sqrt(float(sum(v * v for v in veronese(basis, x)))))
    return math.fsum(terms), len(terms)


@pytest.mark.parametrize("d, n, c, q, xi, sigma, X", [
    (2, 3, (1, 1, 0, 2), 3, (3, -1, 2, 1), Fraction(1, 2), 9),
    (3, 3, (1, 0, 1, 2), 4, (1, 1, 1, 1), Fraction(3, 4), Fraction(13, 2)),
    (2, 2, (0, 0, 0), 1, (1, 0, 0), 1, 5),
])
def test_reciprocal_sum_is_the_two_sided_sum_bit_for_bit(d, n, c, q, xi, sigma, X):
    # one row per +- pair, doubled, is the correctly rounded sum over both signs
    expected, terms = _two_sided_reciprocal_sum(d, n, c, q, xi, sigma, X)
    assert terms > 10
    assert veronese_reciprocal_sum(d, n, c, q, xi, sigma, X) == expected


def test_reciprocal_volume_properties():
    rng = np.random.default_rng(5)
    # lower bound: the cap volume (integrand >= 1 on the unit ball)
    for sigma in (Fraction(1), Fraction(1, 2)):
        west = veronese_reciprocal_volume(2, 2, (1, 0, 0), sigma, 200000, rng)
        assert west.value >= two_sided_cap_volume_r3(float(sigma)) - 4 * west.err
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


NORM_CASES = [(2, 2), (2, 3), (3, 3), (3, 5), (4, 4)]


def dense_norm_squared(d, pts):
    """|nu(x)|^2 from the full Veronese rows, the path the h_d recurrence
    replaced: exact pairings on integers, a float square-and-sum otherwise."""
    NU = veronese_batch(monomial_basis(d, pts.shape[1] - 1), pts)
    return row_pairings(NU, NU) if NU.dtype.kind in "iO" else (NU**2).sum(axis=1)


@pytest.mark.parametrize("d,n", NORM_CASES)
def test_veronese_norm_squared_matches_dense_rows_on_integers(d, n):
    rng = np.random.default_rng(10 * d + n)
    small = rng.integers(-9, 10, size=(300, n + 1))
    big = small.copy()
    big[::7, 0] = 3**20  # N (3^20)^(2d) is past int64: the Python-integer path
    # top^(2d) fits in int64, but N top^(2d), the norm of (top, ..., top), does not
    top = next(t for t in range(int(2 ** (63 / (2 * d))) + 1, 0, -1) if t ** (2 * d) < 2**63)
    edge = np.full((2, n + 1), top, dtype=np.int64)
    for pts in (small, big, edge):
        fast = _veronese_norm_squared(d, pts)
        assert [int(v) for v in fast] == [int(v) for v in dense_norm_squared(d, pts)]
    assert _veronese_norm_squared(d, small).dtype == np.int64
    assert _veronese_norm_squared(d, big).dtype == object
    assert _veronese_norm_squared(d, edge).dtype == object


@pytest.mark.parametrize("d,n", NORM_CASES)
def test_veronese_norm_squared_matches_dense_rows_on_unit_directions(d, n):
    dirs = np.random.default_rng(d + n).standard_normal((2000, n + 1))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    np.testing.assert_allclose(_veronese_norm_squared(d, dirs), dense_norm_squared(d, dirs), rtol=1e-13)


def dense_reciprocal_volume(d, n, xi, sigma, mc_samples, rng):
    """veronese_reciprocal_volume as it was with the (samples, N) Veronese matrix."""
    m = n + 1
    dirs = rng.standard_normal((mc_samples, m))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    xi_f = np.array([float(v) for v in xi], dtype=float)
    xi_f /= np.linalg.norm(xi_f)
    s = float(Fraction(sigma))
    in_cap = 1.0 - (dirs @ xi_f) ** 2 <= s * s * (1 + 1e-15)
    nu = veronese_batch(monomial_basis(d, n), dirs)
    values = np.where(in_cap, 1.0 / np.sqrt((nu**2).sum(axis=1)), 0.0)
    scale = m * unit_ball_volume(m) / (m - d)
    return scale * values.mean(), scale * values.std(ddof=1) / math.sqrt(mc_samples)


@pytest.mark.parametrize("d,n", [(2, 3), (3, 3), (3, 5)])
@pytest.mark.parametrize("sigma", [Fraction(1), Fraction(1, 2)])
def test_reciprocal_volume_matches_the_dense_veronese_reference(d, n, sigma):
    xi = (3, -1, 2, 1) + (1,) * (n - 3)
    w = veronese_reciprocal_volume(d, n, xi, sigma, 50000, np.random.default_rng(17))
    value, err = dense_reciprocal_volume(d, n, xi, sigma, 50000, np.random.default_rng(17))
    assert w.value == pytest.approx(value, rel=1e-12)
    assert w.err == pytest.approx(err, rel=1e-12)


@pytest.mark.parametrize("samples", [2, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 7])
@pytest.mark.parametrize("d, n, sigma", [
    (2, 3, Fraction(1)), (2, 3, Fraction(1, 2)), (3, 5, Fraction(3, 4)), (2, 3, Fraction(1, 20)),
])
def test_blocked_draws_are_one_draw(samples, d, n, sigma):
    # the volume draws its samples in blocks of _CHUNK rows: the same values,
    # and the same generator state after, as one (samples, n + 1) draw; at
    # sigma = 1/20 most blocks hold a handful of nonzero values, so the merged
    # block moments meet blocks of nearly all zeros
    xi = (3, -1, 2, 1) + (1,) * (n - 3)
    rng, ref_rng = np.random.default_rng(29), np.random.default_rng(29)
    w = veronese_reciprocal_volume(d, n, xi, sigma, samples, rng)
    value, err = dense_reciprocal_volume(d, n, xi, sigma, samples, np.random.default_rng(29))
    assert w.value == pytest.approx(value, rel=1e-12)
    assert w.err == pytest.approx(err, rel=1e-12)
    ref_rng.standard_normal((samples, n + 1))
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_reciprocal_volume_refuses_a_zero_axis_and_a_single_sample():
    with pytest.raises(ValueError):
        veronese_reciprocal_volume(2, 3, (0, 0, 0, 0), Fraction(1, 2), 1000)
    with pytest.raises(ValueError):
        veronese_reciprocal_volume(2, 3, (1, 0, 0, 0), 1, 1)
    with pytest.raises(ValueError):
        predicted_reciprocal_sum(2, 3, (1, 0, 0, 0), 1, (0, 0, 0, 0), 1, 10, mc_samples=1000)
    # two samples give a finite error bar
    assert math.isfinite(veronese_reciprocal_volume(2, 3, (1, 0, 0, 0), 1, 2).err)


def test_reciprocal_volume_refuses_an_aperture_outside_the_unit_interval():
    # sigma enters only squared, so -1/2 would read as 1/2, and 3/2 as 1
    for sigma in (Fraction(-1, 2), Fraction(3, 2)):
        with pytest.raises(ValueError, match="aperture"):
            veronese_reciprocal_volume(2, 3, (3, -1, 2, 1), sigma, 1000)
    # the cap of aperture 0 is the axis alone, which no sample hits
    w = veronese_reciprocal_volume(2, 3, (3, -1, 2, 1), 0, 1000)
    assert (w.value, w.err) == (0.0, 0.0)


def _traced_peak(d, n, sigma, samples):
    xi = (3, -1, 2, 1) + (1,) * (n - 3)
    tracemalloc.start()
    try:
        veronese_reciprocal_volume(d, n, xi, sigma, samples, np.random.default_rng(3))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("d, n, sigma", [(2, 3, Fraction(1)), (3, 5, Fraction(1, 2))])
def test_reciprocal_volume_memory_does_not_grow_with_the_samples(d, n, sigma):
    # running block moments: no array of mc_samples values, so the peak is a
    # few _CHUNK-row blocks at any sample count. A first call in a process
    # also traces numpy's one-time set-up (0.7 MiB), so both peaks are taken
    # after one untraced call
    veronese_reciprocal_volume(d, n, (3, -1, 2, 1) + (1,) * (n - 3), sigma, 2)
    peak = _traced_peak(d, n, sigma, 10**6)
    assert peak < 6 * 2**20
    assert _traced_peak(d, n, sigma, 2 * 10**6) < 1.1 * peak
