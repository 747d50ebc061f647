import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fanostat import census, localsolve
from fanostat.census import (
    _beyond_verdicts,
    _candidate_points,
    _target_grid,
    _zero_pairings,
    count_rational_points,
    enumerate_hypersurfaces,
    first_moment,
    first_moment_direct,
    first_moment_dual,
    height_threshold_exponent,
    local_census,
    predicted_census,
    predicted_first_moment,
    quadric_bad_primes,
    quadric_matrix,
    quadric_real_soluble,
    real_density_interval,
)
from fanostat.geom import cap_matrix
from fanostat.intlinalg import bareiss_det, integer_ball
from fanostat.localsolve import (
    AdelicTarget,
    DensityInterval,
    _cap_grid,
    _chart_verdicts,
    decide_padic_batch,
    decide_real_batch,
    verify_real_certificate,
)
from fanostat.numtheory import primes_up_to
from fanostat.padic import PadicApproxVector
from fanostat.veronese import (
    coefficient_matrix,
    dimension,
    height_bound_norm2,
    make_form,
    monomial_basis,
    pairings,
    veronese,
)

from test_geom import cone_oracle


def mkform(d, n, **monos):
    b = monomial_basis(d, n)
    coeffs = [0] * b.size
    for key, val in monos.items():
        exps = tuple(int(ch) for ch in key[2:])
        coeffs[b.index(exps)] = val
    return make_form(d, n, coeffs)


def test_theta():
    assert height_threshold_exponent(3, 2) == Fraction(8, 8)
    for d in range(2, 6):
        for n in range(d, 10):
            try:
                th = height_threshold_exponent(n, d)
            except ValueError:
                continue
            assert (th <= 1) == (n >= 2 * d - 1), (n, d)
    # theta(n, n) = n + 1
    for n in (2, 3, 4):
        assert height_threshold_exponent(n, n) == n + 1


def test_enumerate_hypersurfaces():
    forms = enumerate_hypersurfaces(2, 2, 1)
    assert len(forms) == 6  # the monomial forms up to sign
    assert enumerate_hypersurfaces(2, 2, Fraction(1, 2)) == []
    # growth consistency: count approaches (V_N / 2 zeta(N)) A^N from above
    from fanostat.geom import unit_ball_volume
    from fanostat.numtheory import zeta

    N = dimension(2, 2)
    c2 = len(enumerate_hypersurfaces(2, 2, 2))
    c4 = len(enumerate_hypersurfaces(2, 2, 4))
    main = lambda A: unit_ball_volume(N) / (2 * zeta(N)) * A**N
    assert abs(c4 / main(4) - 1) < abs(c2 / main(2) - 1)


def test_count_rational_points_quadric_surface():
    # V(X0 X3 - X1 X2), trivial target, B = 2: 12 points up to sign
    f = mkform(2, 3, m_1001=1, m_0110=-1)
    t = AdelicTarget.trivial(3)
    assert count_rational_points(f, 2, t) == 12
    # no real zeros: 0 at any height
    g = mkform(2, 3, m_2000=1, m_0200=1, m_0020=1, m_0002=1)
    assert count_rational_points(g, 10, t) == 0
    # monotone in B and sigma
    c1 = count_rational_points(f, 2, AdelicTarget.trivial(3, Fraction(1, 2)))
    c2 = count_rational_points(f, 2, t)
    c3 = count_rational_points(f, 4, t)
    assert c1 <= c2 <= c3


def test_count_rational_points_beyond_int64_coefficients():
    # 10^30 (X0 X3 - X1 X2) has the zero set of X0 X3 - X1 X2
    f = mkform(2, 3, m_1001=1, m_0110=-1)
    big = make_form(2, 3, [10**30 * c for c in f.coeffs], primitive=False)
    t = AdelicTarget.trivial(3)
    assert count_rational_points(big, 2, t) == count_rational_points(f, 2, t) == 12


def test_count_rational_points_sign_invariance():
    f = mkform(2, 3, m_1001=1, m_0110=-1)
    neg = make_form(2, 3, [-c for c in f.coeffs])
    t = AdelicTarget.trivial(3)
    assert count_rational_points(f, 3, t) == count_rational_points(neg, 3, t)
    # unit rescaling of the p-adic target residue does not change counts
    xi1 = PadicApproxVector.from_integers(3, 1, (1, 0, 0, 1))
    xi2 = PadicApproxVector.from_integers(3, 1, (2, 0, 0, 2))
    t1 = AdelicTarget(((3, 1, xi1),), (1, 0, 0, 0), Fraction(1))
    t2 = AdelicTarget(((3, 1, xi2),), (1, 0, 0, 0), Fraction(1))
    assert count_rational_points(f, 3, t1) == count_rational_points(f, 3, t2)


def test_first_moment_strategies_agree_trivial():
    t = AdelicTarget.trivial(3)
    for A, B in ((1.5, 1.5), (2, 2), (3, 3)):
        direct = first_moment_direct(2, 3, A, B, t)
        dual = first_moment_dual(2, 3, A, B, t)
        assert direct == dual, (A, B)
    assert direct == 718200
    assert first_moment(2, 3, 2, 2, t) == first_moment_direct(2, 3, 2, 2, t)


@pytest.mark.parametrize(
    "d, n, A, B, expected",
    [(3, 3, 2, 2, 691384), (3, 5, 1, 2, 330), (3, 5, Fraction(3, 2), 2, 18150), (3, 5, Fraction(3, 2), 3, 99450)],
)
def test_first_moment_strategies_agree_in_the_cubic_range(d, n, A, B, expected):
    t = AdelicTarget.trivial(n)
    assert first_moment_dual(d, n, A, B, t) == first_moment_direct(d, n, A, B, t) == expected


def test_first_moment_dual_beyond_the_direct_range():
    # 1,539,504 coefficient rows against 40 points: the value the lattice
    # enumeration (LLL and Fincke-Pohst) gave
    assert first_moment_dual(2, 3, 4, 4, AdelicTarget.trivial(3)) == 9998248


def _target(places, xi_inf, sigma):
    return AdelicTarget(
        tuple((p, e_p, PadicApproxVector.from_integers(p, e_p, xi)) for p, e_p, xi in places), xi_inf, sigma
    )


@pytest.mark.parametrize(
    "target, expected",
    [
        (_target([(3, 1, (1, 0, 0, 1))], (1, 1, 1, 1), Fraction(1, 2)), 0),
        (_target([], (3, -1, 2, 1), Fraction(3, 4)), 3723),
        (_target([(3, 1, (1, 0, 0, 1))], (1, 0, 0, 0), Fraction(1)), 766),
    ],
    ids=["3-adic-and-cap", "cap", "3-adic"],
)
def test_first_moment_strategies_agree_nontrivial(target, expected):
    assert first_moment_direct(2, 3, 2, 2, target) == first_moment_dual(2, 3, 2, 2, target) == expected


def _per_point_dual(d, n, A, B, target):
    """The candidate points of first_moment_dual and, for each, the number of
    primitive coefficient vectors up to sign with |a| <= A through it: the
    rows of the coefficient ball with an exact <a, nu(x)> = 0, one point at a
    time, no grouping."""
    pts = _candidate_points(d, n, B, target)
    ball = integer_ball(dimension(d, n), Fraction(A) ** 2).astype(object)
    basis = monomial_basis(d, n)
    counts = [int((ball @ np.array(veronese(basis, row), dtype=object) == 0).sum()) for row in pts.tolist()]
    return pts, counts


@st.composite
def _moment_cases(draw):
    d, n = draw(st.sampled_from([(d, n) for d in (2, 3) for n in (1, 2, 3)]))
    # keep the primitive ball of coefficient vectors small for the 20-dimensional cubic surfaces
    A = draw(st.sampled_from([1, Fraction(3, 2)] + ([2] if dimension(d, n) <= 10 else [])))
    B = draw(st.sampled_from([B for B in (1, Fraction(3, 2), 2, 3, 4) if height_bound_norm2(d, n, B) <= 6]))
    # targets centred at a small point y at some places, so that candidate points survive them
    y = draw(st.lists(st.integers(-2, 2), min_size=n + 1, max_size=n + 1).filter(any))
    places = []
    for p in sorted(draw(st.sets(st.sampled_from([2, 3])))):
        e_p = draw(st.integers(1, 2))
        around_y = draw(st.booleans()) and any(c % p for c in y)
        entries = y if around_y else draw(
            st.lists(st.integers(0, p**e_p - 1), min_size=n + 1, max_size=n + 1).filter(lambda x: any(c % p for c in x))
        )
        places.append((p, e_p, PadicApproxVector.from_integers(p, e_p, entries)))
    xi_inf = y if draw(st.booleans()) else draw(st.lists(st.integers(-3, 3), min_size=n + 1, max_size=n + 1).filter(any))
    sigma = draw(st.sampled_from([Fraction(1, 2), Fraction(3, 4), Fraction(1)]))
    return d, n, A, B, AdelicTarget(tuple(places), tuple(xi_inf), sigma)


@settings(max_examples=40)
# the target keeps two points of one class, (1, +-1, 0, 0); with a 2- and a 3-adic place, two of (1, +-3, 0)
@example((2, 3, 2, 2, _target([(2, 1, (1, 1, 0, 0))], (1, 1, 0, 0), Fraction(1))))
@example((3, 2, 2, 4, _target([(2, 1, (1, 1, 0)), (3, 1, (1, 0, 0))], (1, 3, 0), Fraction(3, 4))))
# the cap keeps one point, (1, 3, 0), of the class of two that the finite places keep
@example((2, 2, 2, 4, _target([(2, 1, (1, 1, 0)), (3, 1, (1, 0, 0))], (1, 3, 0), Fraction(1, 2))))
# |x|^2 = 17 holds two classes, of (4, 1, 0) and (3, 2, 2), with different counts
@example((2, 2, 2, 5, _target([], (4, 2, 1), Fraction(1, 2))))
@given(_moment_cases())
def test_class_weighted_dual_matches_the_per_point_count_and_the_direct_count(case):
    d, n, A, B, target = case
    _, counts = _per_point_dual(d, n, A, B, target)
    assert first_moment_dual(d, n, A, B, target) == sum(counts) == first_moment_direct(d, n, A, B, target)


def test_forms_through_a_point_depend_only_on_its_signed_permutation_class():
    pts, counts = _per_point_dual(2, 3, 2, 2, AdelicTarget.trivial(3))
    classes = {}
    for row, count in zip(pts, counts):
        classes.setdefault(tuple(sorted(abs(int(v)) for v in row)), set()).add(count)
    assert len(pts) == 16
    assert sorted(classes) == [(0, 0, 0, 1), (0, 0, 1, 1)]
    assert all(len(seen) == 1 for seen in classes.values())


def test_zero_pairings_never_wraps_int64():
    # a . nu = 2^64 wraps to 0 in int64; only (1, 1) . (2^32, -2^32) is zero
    Amat = np.array([[2**32, 0], [1, 1]], dtype=np.int64)
    NU = np.array([[2**32, 0], [2**32, -(2**32)]], dtype=object)
    assert ((Amat @ NU.astype(np.int64).T) == 0).sum() == 3
    assert _zero_pairings(Amat, NU) == 1
    # entries that provably fit stay on the int64 path with the same count
    assert _zero_pairings(np.array([[1, 2], [2, -1]]), np.array([[2, -1], [1, 2]])) == 2


def test_first_moment_edge():
    t = AdelicTarget.trivial(3)
    assert first_moment(2, 3, Fraction(1, 2), 2, t) == 0
    assert first_moment(2, 3, 2, Fraction(1, 2), t) == 0


def test_predicted_first_moment_domain():
    t = AdelicTarget.trivial(2)
    with pytest.raises(ValueError):
        predicted_first_moment(2, 2, 2, 2, t)
    t3 = AdelicTarget.trivial(3)
    pred = predicted_first_moment(2, 3, 2, 2, t3, mc_samples=50000)
    assert pred.value > 0
    assert pred.inputs["coefficient_over_magnitude_scale"] > 0


def test_predicted_first_moment_runs_in_the_cubic_range():
    # (d, n) = (3, 5), N = 56: theta(5, 3) = 1, the paper's range for cubics
    pred = predicted_first_moment(3, 5, 1, 2, AdelicTarget.trivial(5), mc_samples=20000)
    assert math.isfinite(pred.value) and pred.value > 0
    assert math.isfinite(pred.err) and pred.err > 0


def real_density_reference(d, n, target, samples, rng, budget=1500):
    """real_density_interval with one draw and a Python round per sample."""
    N = dimension(d, n)
    forms = []
    for _ in range(samples):
        coeffs = [int(round(c * 10**6)) for c in rng.standard_normal(N)]
        if any(coeffs):
            forms.append(make_form(d, n, coeffs, primitive=False))
    tally = {"yes": 0, "no": 0, "unknown": 0}
    for res in decide_real_batch(forms, target.xi_inf, target.sigma_inf, budget):
        tally[res.verdict] += 1
    m = sum(tally.values())
    se = math.sqrt(0.25 / m)
    lo = max(0.0, tally["yes"] / m - 4 * se)
    hi = min(1.0, (tally["yes"] + tally["unknown"]) / m + 4 * se)
    return DensityInterval(Fraction(lo).limit_denominator(10**9), Fraction(hi).limit_denominator(10**9), "monte-carlo")


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize(
    "target", [AdelicTarget.trivial(3), AdelicTarget((), (3, -1, 2, 1), Fraction(1, 2))], ids=["trivial", "cap"]
)
def test_real_density_interval_matches_the_per_sample_draw(seed, target):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    assert real_density_interval(2, 3, target, 100, rng) == real_density_reference(2, 3, target, 100, ref_rng)
    # both leave the generator in the same state, so later draws agree too
    assert rng.standard_normal() == ref_rng.standard_normal()


def test_quadric_helpers():
    f = mkform(2, 3, m_2000=1, m_0200=1, m_0020=1, m_0002=1)
    assert not quadric_real_soluble(f)
    g = mkform(2, 3, m_2000=1, m_0200=1, m_0020=1, m_0002=-1)
    assert quadric_real_soluble(g)
    # degenerate: kernel point makes it soluble
    h = mkform(2, 3, m_2000=1, m_0200=1)
    assert quadric_real_soluble(h)
    assert quadric_bad_primes(h) == []
    # x0^2+x1^2+x2^2+x3^2: det(2M) = 16: bad primes {2}
    assert quadric_bad_primes(f) == [2]
    m = quadric_matrix(mkform(2, 3, m_1100=1))
    assert m[0][1] == 1 and m[1][0] == 1 and m[0][0] == 0


def test_quadric_sum_of_squares_insoluble_at_2():
    f = mkform(2, 3, m_2000=1, m_0200=1, m_0020=1, m_0002=1)
    (res,) = decide_padic_batch([f], 2, depth_budget=5)
    assert res.verdict == "no"
    # and soluble at every odd prime (spot-check 3, 5)
    for p in (3, 5):
        assert decide_padic_batch([f], p, depth_budget=3)[0].verdict == "yes"


def test_local_census_micro():
    t = AdelicTarget.trivial(3)
    report = local_census(2, 3, 1, P=2, target=t, depth_budget=4)
    # the six monomial-coefficient quadrics... N = 10 axes: 10 forms
    assert report.total_forms == 10
    # each monomial quadric x M = 0 is everywhere soluble (kernel point)
    assert report.m_interval[0] == report.m_interval[1] == 20
    assert report.e_interval == (0, 0)
    assert report.vloc_interval == (10, 10)
    assert report.direct_vloc_interval == (10, 10)
    assert report.all_resolved


def test_local_census_identity_on_a_micro_instance():
    # A = 1.5: includes sums/differences of two monomials
    t = AdelicTarget.trivial(3)
    report = local_census(2, 3, 1.5, P=3, target=t, depth_budget=5)
    assert report.all_resolved, report.per_place
    m = report.m_interval[0]
    e = report.e_interval[0]
    assert report.vloc_interval == ((m - e) // 2, (m - e) // 2)
    assert report.direct_vloc_interval == report.vloc_interval
    # M is nonincreasing in P
    report2 = local_census(2, 3, 1.5, P=5, target=t, depth_budget=5)
    assert report2.m_interval[0] <= report.m_interval[0]


def test_predicted_census_contains_exact_micro():
    t = AdelicTarget.trivial(3)
    report = local_census(2, 3, 1.5, P=3, target=t, depth_budget=5)
    pred = predicted_census(2, 3, 1.5, t, P_trunc=3, depth=1, mc_samples=300,
                            rng=np.random.default_rng(0), budget=2 * 10**6)
    lo, hi = pred["finite_size_interval"]
    exact = report.vloc_interval[0]
    assert lo - 1e-9 <= exact <= hi + 1e-9, (lo, exact, hi)


def test_a_float_aperture_is_read_exactly_in_either_order():
    # just below sqrt(1/2): the zeros (1, +-1) of X0^2 - X1^2 lie at distance
    # exactly sqrt(1/2) from (1, 0), outside the cap, and a float aperture
    # shares its cached cap grid with the equal Fraction. The chart search
    # cannot separate them from the cap, but the S-lemma can: the tau that
    # work form the thin interval (2/(1 - sigma^2), 2/sigma^2) around 4
    sigma = math.nextafter(math.sqrt(0.5), 0)
    form = mkform(2, 1, m_20=1, m_02=-1)
    for order in ((sigma, Fraction(sigma)), (Fraction(sigma), sigma)):
        _cap_grid.cache_clear()
        for s in order:
            assert _chart_verdicts([form], (1, 0), Fraction(s), 20000)[0].verdict == "unknown"
            assert decide_real_batch([form], (1, 0), s)[0].certificate["kind"] == "s-lemma"
            (cert,) = localsolve._s_lemma_certificates([quadric_matrix(form)], (1, 0), s)
            assert _s_lemma_reverifies(form, (1, 0), s, cert)
            report = local_census(2, 1, Fraction(3, 2), 2, AdelicTarget((), (1, 0), s))
            assert (report.m_interval, report.e_interval, report.point_decided) == ((8, 8), (0, 0), 4)


def test_beyond_verdict_is_unknown_where_no_prime_can_be_decided():
    t = AdelicTarget.trivial(3)
    # det(2M) leaves the cofactor 1000003 * 1000033, which factorize cannot prove prime
    f = mkform(2, 3, m_2000=1, m_0200=1, m_0020=1, m_0002=-1000003 * 1000033)
    assert _beyond_verdicts([f], 3, t, 3) == ["unknown"]
    # the bad prime 1000003 has about 10^18 starting residues: over the node budget
    g = mkform(2, 3, m_2000=1, m_0200=1, m_0020=1, m_0002=-1000003)
    assert quadric_bad_primes(g) == [2, 1000003]
    assert _beyond_verdicts([g], 3, t, 3) == ["unknown"]
    # decided cases: no bad prime above 3, and X0^2+X1^2-7(X2^2+X3^2), anisotropic at 7
    h = mkform(2, 3, m_2000=1, m_0200=1, m_0020=1, m_0002=1)
    assert _beyond_verdicts([h], 3, t, 3) == ["yes-all"]
    k = mkform(2, 3, m_2000=1, m_0200=1, m_0020=-7, m_0002=-7)
    assert _beyond_verdicts([k], 3, t, 3) == ["fails"]


def _value(form, x) -> int:
    """f(x) in Python integers, monomial by monomial."""
    monomials = form.basis.monomials
    return sum(a * math.prod(c**e for c, e in zip(x, exps)) for a, exps in zip(form.coeffs, monomials))


def _meets_target(x, target) -> bool:
    """Whether the integer point x is primitive, in the real cap (the cone
    oracle) and x ≡ u xi_p mod p^e_p for a unit u at every finite place,
    each check made on x alone in Python integers."""
    if math.gcd(*x) != 1 or not cone_oracle(target.xi_inf, target.sigma_inf, x):
        return False
    for p, e, xi in target.finite_places:
        mod = p**e
        if not any(all((u * int(c) - v) % mod == 0 for c, v in zip(xi.entries, x)) for u in range(1, mod) if u % p):
            return False
    return True


def _has_target_point(form, target) -> bool:
    """Whether a point of the real decider's cap grid is a primitive zero of
    the form meeting the target, each check made in Python integers."""
    points = _cap_grid(form.basis, tuple(target.xi_inf), Fraction(target.sigma_inf))[0]
    return any(_meets_target(x, target) and _value(form, x) == 0 for x in points)


def _fraction_det(rows) -> Fraction:
    """Determinant by Gaussian elimination over the Fractions."""
    a = [[Fraction(v) for v in row] for row in rows]
    det = Fraction(1)
    for k in range(len(a)):
        pivot = next((i for i in range(k, len(a)) if a[i][k] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, len(a)):
            ratio = a[i][k] / a[k][k]
            a[i] = [x - ratio * y for x, y in zip(a[i], a[k])]
    return det


def _s_lemma_reverifies(form, xi, sigma, cert) -> bool:
    """Re-check an S-lemma certificate from the form's coefficients alone:
    tau >= 0 and sign * 2M - tau (xi xi^T - (1 - sigma^2)|xi|^2 I) positive
    definite, by Sylvester's criterion with Fraction minors."""
    sign, tau = cert["sign"], Fraction(cert["tau"])
    if sign not in (1, -1) or tau < 0:
        return False
    m = form.basis.n + 1
    two_m = [[Fraction(0)] * m for _ in range(m)]
    for a, exps in zip(form.coeffs, form.basis.monomials):
        i, j = [k for k, e in enumerate(exps) for _ in range(e)]
        two_m[i][j] += a
        two_m[j][i] += a
    xi = [Fraction(c) for c in xi]
    K = (1 - Fraction(sigma) ** 2) * sum(c * c for c in xi)
    H = [[sign * two_m[i][j] - tau * (xi[i] * xi[j] - (K if i == j else 0)) for j in range(m)] for i in range(m)]
    return all(_fraction_det([row[:k] for row in H[:k]]) > 0 for k in range(1, m + 1))


def _real_verdict(form, target):
    """(verdict, certificate kind or unknown reason) at the real place, one
    form at a time: the real decider on the one-form list, its certificate
    re-checked here (a grid or chart yes re-verified, the signature against
    `quadric_real_soluble`, an S-lemma certificate with Fraction minors)."""
    xi, sigma = target.xi_inf, target.sigma_inf
    (res,) = decide_real_batch([form], xi, sigma, 4000)
    kind = res.certificate["reason" if res.verdict == "unknown" else "kind"]
    if kind in ("exact-zero", "sign-change", "odd-degree"):
        verify_real_certificate(form, xi, sigma, res.certificate)
    elif kind in ("quadric-signature", "quadric-definite"):
        assert (res.verdict == "yes") == quadric_real_soluble(form), form
    elif kind == "s-lemma":
        assert _s_lemma_reverifies(form, xi, sigma, res.certificate), (form, res.certificate)
    return res.verdict, kind


def _per_form_census(d, n, A, P, target, depth_budget=3, points=True):
    """local_census one form at a time: a form with a target point on the cap
    grid is soluble at every place; any other form has every place decided,
    in order, before the next form, the real place by `_real_verdict`. With
    points=False every form goes to the deciders."""

    def finite(form, p):
        e_p, xi = target.place(p)
        (res,) = decide_padic_batch([form], p, xi, e_p, depth_budget=depth_budget)
        return res.verdict

    forms = enumerate_hypersurfaces(d, n, A)
    finite_ps = sorted(set(target.support) | set(primes_up_to(P)))
    per_place = {p: {"yes": 0, "no": 0, "unknown": 0} for p in finite_ps}
    arch_tally = {"yes": 0, "no": 0, "unknown": 0}
    arch_kinds = {"yes": {}, "no": {}, "unknown": {}}
    m_yes = m_unk = e_yes = e_unk = dv_lo = dv_hi = point_decided = 0
    for form in forms:
        if points and _has_target_point(form, target):
            verdict, kind = "yes", "point"
        else:
            verdict, kind = _real_verdict(form, target)
        arch_tally[verdict] += 1
        arch_kinds[verdict][kind] = arch_kinds[verdict].get(kind, 0) + 1
        if kind == "point":
            point_decided += 1
            for tally in per_place.values():
                tally["yes"] += 1
            m_yes, dv_lo, dv_hi = m_yes + 1, dv_lo + 1, dv_hi + 1
            continue
        certain = verdict == "yes"
        for p in finite_ps:
            if verdict == "no":
                break
            verdict = finite(form, p)
            per_place[p][verdict] += 1
            certain = certain and verdict == "yes"
        if verdict == "no":
            continue
        m_yes += certain
        m_unk += not certain
        try:
            primes = quadric_bad_primes(form) if d == 2 else primes_up_to(2 * P + 10)
            beyond = "yes-all"
        except ValueError:
            primes, beyond = [], "unknown"
        for p in primes:
            if p <= P or p in target.support:
                continue
            res = finite(form, p)
            if res == "no":
                beyond = "fails"
                break
            if res == "unknown":
                beyond = "unknown"
        e_yes += certain and beyond == "fails"
        e_unk += (not certain and beyond == "fails") or beyond == "unknown"
        dv_lo += certain and beyond == "yes-all"
        dv_hi += beyond != "fails"
    m_lo, m_hi, e_lo, e_hi = 2 * m_yes, 2 * (m_yes + m_unk), 2 * e_yes, 2 * (e_yes + e_unk)
    return {
        "params": {"d": d, "n": n, "A": str(A), "P": P, "q": target.q, "depth_budget": depth_budget},
        "m_interval": (m_lo, m_hi),
        "e_interval": (e_lo, e_hi),
        "vloc_interval": ((m_lo - e_hi) // 2, (m_hi - e_lo) // 2),
        "direct_vloc_interval": (dv_lo, dv_hi) if d == 2 else None,
        "per_place": per_place,
        "arch_tally": arch_tally,
        "arch_kinds": arch_kinds,
        "point_decided": point_decided,
        "unresolved": m_unk + e_unk,
        "total_forms": len(forms),
        "all_resolved": m_unk == 0 and e_unk == 0 and arch_tally["unknown"] == 0,
    }


CENSUS_CASES = pytest.mark.parametrize(
    "d, n, A, P, target",
    [
        # binary forms: cubics failing beyond P (E > 0), quadrics whose bad primes need >= 3 variables
        (3, 1, 3, 2, AdelicTarget.trivial(1)),
        (2, 1, 3, 2, AdelicTarget.trivial(1)),
        (
            2,
            3,
            1,
            3,
            AdelicTarget(
                (
                    (2, 2, PadicApproxVector.from_integers(2, 2, (1, 0, 3, 1))),
                    (3, 1, PadicApproxVector.from_integers(3, 1, (1, 2, 0, 1))),
                ),
                (1, 0, 0, 0),
                Fraction(1),
            ),
        ),
        (2, 2, Fraction(3, 2), 3, AdelicTarget((), (2, -1, 1), Fraction(1, 2))),
        (3, 2, 1, 2, AdelicTarget((), (2, -1, 1), Fraction(1, 2))),
    ],
)


@CENSUS_CASES
def test_local_census_matches_a_per_form_census(d, n, A, P, target):
    assert dataclasses.asdict(local_census(d, n, A, P, target)) == _per_form_census(d, n, A, P, target)


def _inside(inner, outer) -> bool:
    return outer[0] <= inner[0] <= inner[1] <= outer[1]


@CENSUS_CASES
def test_point_pass_only_tightens_the_deciders_only_census(d, n, A, P, target):
    # a target point turns an unknown into yes, never a decided verdict into another one
    report = local_census(d, n, A, P, target)
    deciders = _per_form_census(d, n, A, P, target, points=False)
    for key in ("m_interval", "e_interval", "vloc_interval"):
        assert _inside(getattr(report, key), deciders[key]), key
    if d == 2:
        assert _inside(report.direct_vloc_interval, deciders["direct_vloc_interval"])
    assert report.unresolved <= deciders["unresolved"]
    assert report.arch_tally["no"] == deciders["arch_tally"]["no"]
    for p, tally in report.per_place.items():
        assert tally["no"] == deciders["per_place"][p]["no"]


def test_point_pass_resolves_binary_quadrics_the_bad_prime_step_cannot():
    # binary quadrics have no certified bad-prime set, so without a point every
    # form in M is unknown beyond P
    target = AdelicTarget.trivial(1)
    report = local_census(2, 1, 3, 2, target)
    deciders = _per_form_census(2, 1, 3, 2, target, points=False)
    assert (deciders["e_interval"], deciders["unresolved"], deciders["vloc_interval"]) == ((0, 48), 24, (0, 24))
    assert (report.e_interval, report.unresolved, report.vloc_interval) == ((0, 4), 2, (22, 24))
    assert report.point_decided == 22


def _reverified_hits(d, n, A, target) -> int:
    """Re-verify in Python integers every (form, grid point) zero the census's
    point pass sees; return the number of forms with one."""
    X, V = _target_grid(monomial_basis(d, n), target)
    forms = enumerate_hypersurfaces(d, n, A)
    hits = pairings(coefficient_matrix(forms), V) == 0 if forms else np.zeros((0, len(X)), dtype=bool)
    for form, row in zip(forms, hits):
        for x in X[row].tolist():
            assert _value(form, x) == 0, (form, x)
            assert _meets_target(x, target), (form, x)
    return int(hits.any(axis=1).sum())


# a 2-adic and a 3-adic place around (1, 1, 0, 0) in a cap around (1, 1, 1, 0)
_SUPPORT_TARGET = _target([(2, 1, (1, 1, 0, 0)), (3, 1, (1, 1, 0, 0))], (1, 1, 1, 0), Fraction(3, 4))


def test_point_pass_meets_a_finite_support_target():
    grid = _cap_grid(monomial_basis(2, 3), (1, 1, 1, 0), Fraction(3, 4))[0]
    X, _ = _target_grid(monomial_basis(2, 3), _SUPPORT_TARGET)
    # the congruence filter keeps some grid points and drops others
    assert 0 < len(X) < sum(math.gcd(*x) == 1 for x in grid)
    assert _reverified_hits(2, 3, 1, _SUPPORT_TARGET) > 0


@st.composite
def _point_cases(draw):
    d, n = draw(st.sampled_from([(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]))
    A = draw(st.sampled_from([1, Fraction(3, 2)]))
    # finite places centred at a grid point y, so that the grid can meet them
    y = draw(st.lists(st.integers(-2, 2), min_size=n + 1, max_size=n + 1).filter(lambda v: math.gcd(*v) == 1))
    places = []
    for p in sorted(draw(st.sets(st.sampled_from([2, 3])))):
        if any(c % p for c in y):
            places.append((p, draw(st.integers(1, 2)), y))
    other = st.lists(st.integers(-2, 2), min_size=n + 1, max_size=n + 1).filter(any)
    xi_inf = y if draw(st.booleans()) else draw(other)
    sigma = draw(st.sampled_from([Fraction(1, 2), Fraction(3, 4), Fraction(1)]))
    return d, n, A, _target(places, tuple(xi_inf), sigma)


@settings(max_examples=15)
@example((2, 3, 1, _SUPPORT_TARGET))  # the class the first test shows the grid meets
@given(_point_cases())
def test_every_grid_hit_is_a_rational_point_near_the_target(case):
    d, n, A, target = case
    assert local_census(d, n, A, 2, target).point_decided == _reverified_hits(d, n, A, target)


def test_forms_with_a_target_point_skip_the_deciders(monkeypatch):
    calls = {"real": 0, "padic": 0}  # forms sent to the real decider; p-adic decider calls

    def counted(key, fn, forms):
        def wrapper(*args, **kwargs):
            calls[key] += len(args[0]) if forms else 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(census, "decide_real_batch", counted("real", census.decide_real_batch, True))
    monkeypatch.setattr(census, "decide_padic_batch", counted("padic", census.decide_padic_batch, False))
    # every cubic surface of height 1 has a point on the grid: no decider runs
    report = local_census(3, 3, 1, 2, AdelicTarget.trivial(3))
    assert report.point_decided == report.total_forms == 20
    assert calls == {"real": 0, "padic": 0}
    # in a cap of aperture 1/2, only the forms without a grid point reach the
    # real decider, whose S-lemma step proves 24 of the 27 quadrics free of
    # zeros in the cap
    cap = AdelicTarget((), (3, -1, 2, 1), Fraction(1, 2))
    for d, A, P, pointless, certified in ((2, Fraction(3, 2), 3, 27, 24), (3, 1, 2, 4, 0)):
        calls["real"] = 0
        report = local_census(d, 3, A, P, cap)
        assert report.total_forms - report.point_decided == pointless
        assert calls["real"] == pointless
        assert report.arch_kinds["no"].get("s-lemma", 0) == certified


def test_cubic_cap_census_is_pinned_and_does_not_depend_on_grouping(monkeypatch):
    # cubic surfaces of height 3/2 in census-cap's cap: 74 forms reach the
    # real decider, and at its budget of 4000 the chart search decides every
    # one of them, 63 no and 11 yes
    cap = AdelicTarget((), (3, -1, 2, 1), Fraction(1, 2))
    report = local_census(3, 3, Fraction(3, 2), 2, cap)
    assert (report.m_interval, report.e_interval) == ((674, 674), (0, 0))
    assert report.arch_kinds == {
        "yes": {"sign-change": 11, "point": 326},
        "no": {"bernstein-exclusion": 63},
        "unknown": {},
    }
    for group in (1, 2):  # forms per chart group at the census's budget of 4000, 64 coefficients a box
        monkeypatch.setattr(localsolve, "_CELLS", group * 4000 * 64)
        assert local_census(3, 3, Fraction(3, 2), 2, cap) == report


_CAP_DIRECTIONS = sorted({(3, s1, 2 * s2, s3) for s1 in (-1, 1) for s2 in (-1, 1) for s3 in (-1, 1)})


@pytest.mark.parametrize("xi", _CAP_DIRECTIONS)
def test_every_census_cap_direction_is_decided(monkeypatch, xi):
    # census-cap's 8 directions, the sign patterns of (3, -1, 2, 1) up to
    # sign: per direction the quadric step's S-lemma proves 24 quadrics free
    # of zeros in the cap and its minimiser gives the other 3 a sign change
    # (yes), and the chart search decides the 4 cubics without a target point
    # (no), so nothing is left unresolved
    chart_degrees = []

    def spy(forms, *args):
        chart_degrees.extend(f.basis.d for f in forms)
        return chart_verdicts(forms, *args)

    chart_verdicts = localsolve._chart_verdicts
    monkeypatch.setattr(localsolve, "_chart_verdicts", spy)
    cap = AdelicTarget((), xi, Fraction(1, 2))
    quadrics, cubics = local_census(2, 3, Fraction(3, 2), 3, cap), local_census(3, 3, 1, 2, cap)
    assert (quadrics.m_interval, quadrics.e_interval, quadrics.unresolved) == ((152, 152), (0, 0), 0)
    assert quadrics.arch_kinds == {"yes": {"sign-change": 3, "point": 73}, "no": {"s-lemma": 24}, "unknown": {}}
    assert (cubics.m_interval, cubics.e_interval, cubics.unresolved) == ((32, 32), (0, 0), 0)
    assert cubics.arch_kinds == {"yes": {"point": 16}, "no": {"bernstein-exclusion": 4}, "unknown": {}}
    # no quadric reaches the chart search, at census-cap's aperture or the
    # narrower and wider ones, where the chart search still serves the cubics
    for sigma in (Fraction(1, 5), Fraction(3, 4)):
        local_census(2, 3, Fraction(3, 2), 3, AdelicTarget((), xi, sigma))
        local_census(3, 3, 1, 2, AdelicTarget((), xi, sigma))
    assert 2 not in chart_degrees and 3 in chart_degrees


def test_quadric_cap_census_at_height_two_is_decided_by_the_quadric_step():
    # the quadrics of height 2 in census-cap's cap: the chart search left two
    # of them unknown, slivers whose zeros lie near the cap's edge; the
    # quadric step's minimiser proves both yes
    report = local_census(2, 3, 2, 3, AdelicTarget((), (3, -1, 2, 1), Fraction(1, 2)))
    assert report.unresolved == 0
    assert report.m_interval == (3510, 3510)
    assert report.vloc_interval == report.direct_vloc_interval == (1755, 1755)
    assert report.arch_kinds == {"yes": {"sign-change": 173, "point": 1582}, "no": {"s-lemma": 505}, "unknown": {}}


def test_north_star_censuses_are_decided_by_points():
    # full censuses of cubic surfaces at A = 2 and of cubic fourfolds at
    # A = 3/2: with the trivial target every form has a grid point
    report = local_census(3, 3, 2, 2, AdelicTarget.trivial(3))
    assert report.total_forms == report.point_decided == 43720
    assert (report.m_interval, report.e_interval) == ((87440, 87440), (0, 0))
    assert report.all_resolved
    report = local_census(3, 5, Fraction(3, 2), 3, AdelicTarget.trivial(5))
    assert report.total_forms == report.point_decided == 3136
    assert (report.m_interval, report.e_interval) == ((6272, 6272), (0, 0))


@pytest.mark.parametrize("d, A, P", [(2, Fraction(3, 2), 3), (3, 1, 2)])
def test_staged_point_pass_matches_the_whole_grid_product(monkeypatch, d, A, P):
    # census-cap's cap: the staged, blocked pass finds the same forms as one
    # product of every coefficient row with the whole grid
    cap = AdelicTarget((), (3, -1, 2, 1), Fraction(1, 2))
    rows = census._coefficient_rows(d, 3, A)
    _, V = _target_grid(monomial_basis(d, 3), cap)
    whole = (pairings(rows, V) == 0).any(axis=1)
    assert 0 < whole.sum() < len(rows)
    assert census._point_hits(rows, V).tolist() == whole.tolist()
    assert local_census(d, 3, A, P, cap).point_decided == whole.sum()
    # small blocks and a short first stage give the same forms
    monkeypatch.setattr(census, "_CELLS", 3 * len(V))
    monkeypatch.setattr(census, "_HEAD", 2)
    assert census._point_hits(rows, V).tolist() == whole.tolist()


def test_point_pass_meets_the_cap_axis():
    # the grid holds census-cap's axis round(8 xi/|xi|) = (6, -2, 4, 2)
    # divided by its gcd, xi = (3, -1, 2, 1) itself, which meets the target,
    # so a cubic vanishing at xi has a point
    cap = AdelicTarget((), (3, -1, 2, 1), Fraction(1, 2))
    basis = monomial_basis(3, 3)
    rows = census._coefficient_rows(3, 3, 2)
    at_axis = rows[pairings(rows, np.array([veronese(basis, cap.xi_inf)], dtype=np.int64))[:, 0] == 0]
    assert len(at_axis) > 0
    X, V = _target_grid(basis, cap)
    assert (3, -1, 2, 1) in map(tuple, X.tolist())
    assert census._point_hits(at_axis, V).all()


def test_first_moment_direct_is_the_same_in_small_blocks(monkeypatch):
    t = AdelicTarget.trivial(3)
    monkeypatch.setattr(census, "_CHUNK", 7)
    assert first_moment_direct(2, 3, 2, 2, t) == 14892


def test_s_lemma_certifies_a_quadric_without_a_zero_in_the_cap():
    # X0^2 + X1^2 - X2^2 > 0 where 3 X0^2 >= X1^2 + X2^2 (around (1, 0, 0) at sigma = 1/2)
    form = mkform(2, 2, m_200=1, m_020=1, m_002=-1)
    xi, sigma = (1, 0, 0), Fraction(1, 2)
    (cert,) = localsolve._s_lemma_certificates([quadric_matrix(form)], xi, sigma)
    assert cert["kind"] == "s-lemma" and cert["sign"] == 1
    assert _s_lemma_reverifies(form, xi, sigma, cert)
    assert decide_real_batch([form], xi, sigma)[0].verdict == "no"
    # the quadric does meet the wider cap sigma = 3/4, at (1, 0, 1)/sqrt(2)
    assert localsolve._s_lemma_certificates([quadric_matrix(form)], xi, Fraction(3, 4)) == [None]
    # X0^2 + X1^2 + X2^2 has no real zero, and 2M - tau G stays positive
    # definite for a small negative tau, which proves nothing
    definite = quadric_matrix(mkform(2, 2, m_200=1, m_020=1, m_002=1))
    cap = cap_matrix(xi, sigma)
    assert localsolve._s_lemma_holds(definite, cap, 1, 0)
    assert not localsolve._s_lemma_holds(definite, cap, 1, Fraction(-1, 100))


def test_s_lemma_verdict_rests_on_the_exact_check(monkeypatch):
    # floats that see every quadric's chart matrix as a large multiple of the
    # identity put every minimum over the cap near s f(u) > 0 and propose a
    # certificate for every quadric; the exact check refuses it where the
    # quadric meets the cap
    def eigh(a):
        return np.full(a.shape[:-1], 1e6), np.broadcast_to(np.eye(a.shape[-1]), a.shape).copy()

    monkeypatch.setattr(localsolve.np.linalg, "eigh", eigh)
    meets = [
        (mkform(2, 2, m_200=1, m_020=1, m_002=-1), (1, 0, 0), Fraction(3, 4)),
        (mkform(2, 2, m_110=1), (2, 1, 1), Fraction(1, 2)),
        (mkform(2, 3, m_1001=1, m_0110=-1), (3, -1, 2, 1), Fraction(1, 2)),
    ]
    for form, xi, sigma in meets:
        assert decide_real_batch([form], xi, sigma)[0].verdict == "yes"
        assert localsolve._s_lemma_certificates([quadric_matrix(form)], xi, sigma) == [None]


@st.composite
def _quadric_caps(draw):
    n = draw(st.sampled_from([1, 2, 3]))
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=dimension(2, n), max_size=dimension(2, n)).filter(any))
    xi = draw(st.lists(st.integers(-3, 3), min_size=n + 1, max_size=n + 1).filter(any))
    sigma = draw(st.sampled_from([Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), 0.6]))
    return make_form(2, n, coeffs), tuple(xi), sigma


@settings(max_examples=80)
@example((mkform(2, 2, m_200=1, m_020=1, m_002=-1), (1, 0, 0), Fraction(1, 2)))
@given(_quadric_caps())
def test_s_lemma_certificates_are_sound_and_reverify(case):
    form, xi, sigma = case
    mat = quadric_matrix(form)
    (cert,) = localsolve._s_lemma_certificates([mat], xi, sigma)
    if cert is None:
        # every form the chart search proves free of cap zeros has a certificate too
        assert _chart_verdicts([form], xi, Fraction(sigma), 4000)[0].verdict != "no"
        return
    # a certified no never meets a real zero: not one of the decider's yes
    # paths (with no box budget it runs only those), not a cap-grid zero
    assert decide_real_batch([form], xi, sigma, 0)[0].verdict != "yes"
    assert all(_value(form, x) != 0 for x in _cap_grid(form.basis, xi, Fraction(sigma))[0])
    assert _s_lemma_reverifies(form, xi, sigma, cert)
    # the flipped sign, a negative tau and a tau past xi's own bound are rejected
    cap = cap_matrix(xi, sigma)
    sign, tau = cert["sign"], cert["tau"]
    norm2 = sum(c * c for c in xi)
    at_xi = sum(mat[i][j] * xi[i] * xi[j] for i in range(len(xi)) for j in range(len(xi)))
    too_far = Fraction(abs(at_xi)) / (Fraction(sigma) ** 2 * norm2**2) + 1  # xi^T (s 2M - tau G) xi < 0
    assert localsolve._s_lemma_holds(mat, cap, sign, tau)
    tampered = (-tau - 1, Fraction(-1, 1000), too_far)
    for bad in [{"sign": -sign, "tau": tau}] + [{"sign": sign, "tau": t} for t in tampered]:
        assert not localsolve._s_lemma_holds(mat, cap, bad["sign"], bad["tau"])
        assert not _s_lemma_reverifies(form, xi, sigma, {**cert, **bad})


_GOLDEN = (math.sqrt(5) - 1) / 2


def _golden_s_lemma_certificates(mats, xi, sigma) -> list:
    """The S-lemma search by golden sections: 40 steps that maximise the
    least eigenvalue of s 2M - tau G over tau in [0, top], all forms in each
    batched `eigvalsh`, then the maximiser rounded by `limit_denominator`
    and checked exactly. An oracle that the trust-region step must not lose to."""
    cap = cap_matrix(xi, sigma)
    m, Gf = len(cap[0]), np.array(cap[0], dtype=float) / cap[1]
    xi_f = np.array([float(c) for c in xi])
    norm2 = sum(Fraction(c) ** 2 for c in xi)
    Q = np.array(mats, dtype=float).reshape(-1, m, m)
    at_xi = np.einsum("i,kij,j->k", xi_f, Q, xi_f)
    sign = np.where(at_xi < 0, -1, 1)
    S = sign[:, None, None] * Q
    top = np.abs(at_xi) / float(Fraction(sigma) ** 2 * norm2**2)

    def least(tau):
        return np.linalg.eigvalsh(S - tau[:, None, None] * Gf)[:, 0]

    a, b = np.zeros_like(top), top
    c, d = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
    fc, fd = least(c), least(d)
    for _ in range(40):
        right = fc < fd  # the maximum lies in [c, b]
        a, b = np.where(right, c, a), np.where(right, b, d)
        new = np.where(right, a + _GOLDEN * (b - a), b - _GOLDEN * (b - a))
        f_new = least(new)
        c, d = np.where(right, d, new), np.where(right, new, c)
        fc, fd = np.where(right, fd, f_new), np.where(right, f_new, fc)
    tau, lam = np.where(fc > fd, c, d), np.maximum(fc, fd)
    out = []
    for mat, s, t, value in zip(mats, sign.tolist(), tau.tolist(), lam.tolist()):
        cert = None
        if value > 0:
            rounded = Fraction(t).limit_denominator(max(1, math.ceil(float(norm2) / value)))
            if localsolve._s_lemma_holds(mat, cap, s, rounded):
                cert = {"kind": "s-lemma", "sign": s, "tau": rounded}
        out.append(cert)
    return out


def test_pencil_certifies_every_quadric_the_golden_search_does():
    # census-cap's directions: (3, -1, 2, 1) up to the signs of its coordinates
    cases = [((2, 3, Fraction(3, 2)), (3, a, 2 * b, c), sigma)
             for a in (1, -1) for b in (1, -1) for c in (1, -1)
             for sigma in (Fraction(1, 5), Fraction(1, 2), Fraction(3, 4))]
    cases.append(((2, 3, Fraction(2)), (3, -1, 2, 1), Fraction(1, 2)))
    certified = 0
    for (d, n, A), xi, sigma in cases:
        forms = census._forms(monomial_basis(d, n), census._coefficient_rows(d, n, A))
        mats = [quadric_matrix(f) for f in forms]
        certs = localsolve._s_lemma_certificates(mats, xi, sigma)
        for form, cert, old in zip(forms, certs, _golden_s_lemma_certificates(mats, xi, sigma)):
            assert cert is not None or old is None, (form, xi, sigma, old)
            if cert is not None:
                assert _s_lemma_reverifies(form, xi, sigma, cert), (form, xi, sigma, cert)
                certified += 1
    assert certified > 0


@st.composite
def _symmetric_matrices(draw):
    n = draw(st.integers(0, 6))
    entry = st.integers(-3, 3)
    if draw(st.booleans()):
        entry |= st.integers(2**63, 2**66) | st.integers(-(2**66), -(2**63))
    upper = {(i, j): draw(entry) for i in range(n) for j in range(i, n)}
    # 16 dominates every row of entries in +-3, 2**70 every row: positive definite
    shift = draw(st.sampled_from([0, 4, 16, 2**70]))
    return [[upper[min(i, j), max(i, j)] + (shift if i == j else 0) for j in range(n)] for i in range(n)]


@settings(max_examples=200)
@example([[0]])
@example([[1, 1], [1, 1]])  # positive semidefinite and singular
@example([[2, 1, 1], [1, 2, 1], [1, 1, -1]])  # leading minors 2, 3, -5
@example([])
@given(_symmetric_matrices())
def test_one_pass_sylvester_is_every_leading_minor(mat):
    minors = [bareiss_det([row[:k] for row in mat[:k]]) for k in range(1, len(mat) + 1)]
    assert localsolve._is_positive_definite(mat) == all(v > 0 for v in minors)


@st.composite
def _quadric_blocks(draw):
    """Quadrics on one basis: small and past-2^63 coefficients, definite ones
    (a dominant diagonal, of either sign) and semidefinite sums of squares."""
    n = draw(st.integers(1, 4))
    basis = monomial_basis(2, n)
    diagonal = [basis.index(tuple(2 * (k == i) for k in range(n + 1))) for i in range(n + 1)]
    small, big = st.integers(-3, 3), st.integers(2**63, 2**66) | st.integers(-(2**66), -(2**63))
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["small", "big", "definite", "squares"]))
        if kind == "squares":  # sum_k (l_k . x)^2, rank at most n
            coeffs = [0] * basis.size
            for _ in range(draw(st.integers(1, n))):
                lin = draw(st.lists(small, min_size=n + 1, max_size=n + 1))
                for t, exps in enumerate(basis.monomials):
                    idx = [i for i, e in enumerate(exps) for _ in range(e)]
                    coeffs[t] += lin[idx[0]] ** 2 if idx[0] == idx[1] else 2 * lin[idx[0]] * lin[idx[1]]
        else:
            coeffs = draw(st.lists(big if kind == "big" else small, min_size=basis.size, max_size=basis.size))
        if kind == "definite":
            shift = draw(st.sampled_from([4 * n + 4, 2**70]))
            for t in diagonal:
                coeffs[t] += shift
        sign = draw(st.sampled_from([1, -1]))
        rows.append([sign * c for c in coeffs])
    return [make_form(2, n, c, primitive=False) for c in rows if any(c)]


@settings(max_examples=150)
@example([mkform(2, 3, m_2000=1)])  # X0^2: no sign change on the grid, soluble at X0 = 0
@example([mkform(2, 3, m_2000=1, m_0200=1, m_0020=1, m_0002=1), mkform(2, 3, m_2000=-1, m_0200=-1)])
@example([mkform(2, 1, m_20=1, m_11=-2, m_02=1), mkform(2, 1, m_20=2**64, m_11=1, m_02=2**64)])
@example([mkform(2, 2, m_200=2**64 + 1, m_020=-1)])  # object tier of pairings
@given(_quadric_blocks())
def test_sign_grid_verdicts_are_the_signature_test(forms):
    # at sigma = 1 a quadric's yes on the cap grid re-verifies, and every
    # verdict, from the grid or from the signature, is the signature test's
    if not forms:
        return
    xi = AdelicTarget.trivial(forms[0].basis.n).xi_inf
    got = decide_real_batch(forms, xi, 1)
    assert [r.verdict for r in got] == ["yes" if quadric_real_soluble(f) else "no" for f in forms]
    for form, res in zip(forms, got):
        kind = res.certificate["kind"]
        if kind in ("exact-zero", "sign-change"):
            verify_real_certificate(form, xi, 1, res.certificate)
        else:
            assert kind == ("quadric-signature" if res.verdict == "yes" else "quadric-definite")


def test_real_verdicts_of_a_conic_census_are_the_signature_and_reverify():
    # the 197 forms of local_census(2, 2, 3, 3) (trivial target) without a
    # target point: the real decider agrees with the signature form by form,
    # and the 90 yes it finds on the cap grid carry sign changes that re-verify
    target = AdelicTarget.trivial(2)
    basis = monomial_basis(2, 2)
    rows = census._coefficient_rows(2, 2, 3)
    forms = census._forms(basis, rows[~census._point_hits(rows, _target_grid(basis, target)[1])])
    got = decide_real_batch(forms, target.xi_inf, target.sigma_inf, 4000)
    assert [r.verdict for r in got] == ["yes" if quadric_real_soluble(f) else "no" for f in forms]
    kinds = {}
    for form, res in zip(forms, got):
        kind = res.certificate["kind"]
        kinds[kind] = kinds.get(kind, 0) + 1
        if kind in ("exact-zero", "sign-change"):
            verify_real_certificate(form, target.xi_inf, target.sigma_inf, res.certificate)
    assert kinds == {"sign-change": 90, "quadric-definite": 107}
    report = local_census(2, 2, 3, 3, target)
    assert report.arch_kinds == {"yes": {"sign-change": 90, "point": 1859}, "no": {"quadric-definite": 107}, "unknown": {}}


def _tail_lower_loop(P_trunc, support, tail_constant):
    """predicted_census's tail_lower as a loop over the primes in ascending order."""
    tail_sum = 0.0
    for p in primes_up_to(10**5):
        if p > P_trunc and p not in support:
            tail_sum += 1.0 / p**2
    tail_sum += 1e-5
    return max(0.0, 1.0 - float(tail_constant) * tail_sum)


@pytest.mark.parametrize("P_trunc, places", [(3, ()), (2, ((5, 1, (1, 2, 0)),)), (7, ((2, 1, (1, 0, 1)), (11, 1, (0, 1, 3)))), (1, ())])
def test_predicted_census_tail_is_the_ascending_loop_bit_for_bit(P_trunc, places):
    finite = tuple((p, e, PadicApproxVector.from_integers(p, e, xi)) for p, e, xi in places)
    target = AdelicTarget(finite, (1, 0, 0), Fraction(1))
    pred = predicted_census(2, 2, 1, target, P_trunc=P_trunc, mc_samples=20, rng=np.random.default_rng(0))
    assert pred["tail_lower"] == _tail_lower_loop(P_trunc, target.support, pred["tail_constant"])
    assert pred["tail_lower"] < 1
