import itertools
import math
import random
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fanostat import localsolve, padic
from fanostat.census import quadric_real_soluble
from fanostat.errors import HypothesisFailed
from fanostat.geom import cap_matrix, integer_axis
from fanostat.localsolve import (
    AdelicTarget,
    DensityInterval,
    TriState,
    canonical_projective_residues,
    canonical_residue,
    classify_balls,
    count_projective_points,
    decide_padic_batch,
    decide_real_batch,
    density_sandwich,
    fit_tail_constant,
    local_density,
    target_mask,
    translate_local_conditions,
    verify_real_certificate,
    _residue_fibre,
)
from fanostat.padic import (
    ExactZeroCertificate,
    LiftCertificate,
    PadicApproxVector,
    proj_distance_padic,
    valuation,
    verify_certificate,
)
from fanostat.veronese import (
    dimension,
    evaluate_form,
    gradient_form,
    make_form,
    monomial_basis,
    veronese,
    veronese_batch,
    veronese_jet,
)

from test_census import _s_lemma_reverifies
from test_geom import cone_oracle


def mkform(d, n, **monos):
    """Form from keyword monomials, e.g. m_200=1 for the X0^2 coefficient."""
    b = monomial_basis(d, n)
    coeffs = [0] * b.size
    for key, val in monos.items():
        exps = tuple(int(ch) for ch in key[2:])
        coeffs[b.index(exps)] = val
    return make_form(d, n, coeffs)


def test_adelic_target_and_translate_single_place():
    xi3 = PadicApproxVector.from_integers(3, 1, (1, 2, 0, 1))
    t = AdelicTarget(((3, 1, xi3),), (1, 0, 0, 0), Fraction(1))
    assert t.q == 3
    c, q = translate_local_conditions(t)
    assert q == 3
    assert tuple(v % 3 for v in c) == (1, 2, 0, 1)
    # empty S: the cone alone
    t0 = AdelicTarget.trivial(3, Fraction(1, 2))
    assert translate_local_conditions(t0) == ((1, 0, 0, 0), 1)
    X = np.array([[5, 7, 1, 2], [7, 1, 1, 1], [2, 4, 0, 0], [0, 0, 0, 0]])
    assert target_mask(t0, X).tolist() == [False, True, False, False]
    assert target_mask(AdelicTarget.trivial(3), X).tolist() == [True, True, False, False]


def test_translate_equivalence_randomized():
    # target_mask over whole arrays against the direct d_p tests and the
    # cone oracle, one point at a time; 1000 targets, 6 points each
    rng = random.Random(13)
    n = 2
    checked = 0
    while checked < 1000:
        places = []
        q = 1
        for p in (2, 3, 5):
            if rng.random() < 0.5:
                e = rng.randint(1, 2 if p == 2 else 1)
                entries = [rng.randint(0, p**e - 1) for _ in range(n + 1)]
                if all(v % p == 0 for v in entries):
                    continue
                places.append((p, e, PadicApproxVector.from_integers(p, e, entries)))
                q *= p**e
        if q > 60:
            continue
        xi_inf = tuple(rng.randint(-3, 3) for _ in range(n + 1))
        if not any(xi_inf):
            continue
        sigma_inf = Fraction(rng.randint(1, 4), 4)
        target = AdelicTarget(tuple(places), xi_inf, sigma_inf)
        X = [tuple(rng.randint(-15, 15) for _ in range(n + 1)) for _ in range(6)]
        mask = target_mask(target, np.array(X, dtype=np.int64)).tolist()
        for x, translated in zip(X, mask):
            if math.gcd(*x) != 1:
                assert not translated, x
                continue
            direct = cone_oracle(xi_inf, sigma_inf, x)
            for p, e, xi in places:
                lift = tuple(int(v) for v in xi.entries)
                if proj_distance_padic(x, lift, p) > float(p) ** (-e) + 1e-12:
                    direct = False
            assert direct == translated, (x, [(p, e, xi.entries) for p, e, xi in places])
        checked += 1


def test_tristate_discipline():
    t = TriState.yes({"cert": 1})
    with pytest.raises(TypeError):
        bool(t)
    with pytest.raises(ValueError):
        TriState("maybe")
    d = DensityInterval(Fraction(1, 3), Fraction(1, 2), "sandwich")
    assert d.upper - d.lower == Fraction(1, 6)
    with pytest.raises(ValueError):
        DensityInterval(Fraction(2, 3), Fraction(1, 2), "sandwich")


def test_canonical_residues():
    assert canonical_residue((2, 4, 1), 5, 1) == (1, 2, 3)
    reps = canonical_projective_residues(2, 3, 1)
    assert len(reps) == 4  # P^1(F_3)
    reps2 = canonical_projective_residues(3, 2, 2)
    # P^2 over Z/4: 4^2 * (1 + 1/2 + 1/4) = 28
    assert len(reps2) == 28


def test_decide_padic_yes_exact_zero():
    # X0^2+X1^2-X2^2-X3^2 at (1,0,1,0) mod 3: exact zero, unit gradient
    f = mkform(2, 3, m_2000=1, m_0200=1, m_0020=-1, m_0002=-1)
    xi = PadicApproxVector.from_integers(3, 1, (1, 0, 1, 0))
    (res,) = decide_padic_batch([f], 3, xi, e_p=1)
    assert res.verdict == "yes"
    verify_certificate(f, xi, res.certificate)


def test_decide_padic_no_anisotropic():
    # X0^2+X1^2-3X2^2-3X3^2 over Q_3: anisotropic; No at small depth
    f = mkform(2, 3, m_2000=1, m_0200=1, m_0020=-3, m_0002=-3)
    (res,) = decide_padic_batch([f], 3, depth_budget=4)
    assert res.verdict == "no"
    assert res.certificate["depth"] <= 3


def test_decide_padic_unknown_budget():
    # gradient vanishes mod 2 everywhere (char-2 square): budget 1 -> unknown
    f = mkform(2, 2, m_200=1, m_020=1, m_002=1)
    (res,) = decide_padic_batch([f], 2, depth_budget=1)
    assert res.verdict in ("unknown", "no")
    if res.verdict == "unknown":
        assert res.certificate["depth"] == 1


def test_decide_padic_no_is_stable_in_depth():
    f = mkform(2, 3, m_2000=1, m_0200=1, m_0020=-3, m_0002=-3)
    (r1,) = decide_padic_batch([f], 3, depth_budget=3)
    (r2,) = decide_padic_batch([f], 3, depth_budget=5)
    assert r1.verdict == "no" and r2.verdict == "no"
    assert r2.certificate["depth"] >= r1.certificate["depth"]
    # once no, a deeper budget stays no (same exhaustion point)
    assert r1.certificate["depth"] == r2.certificate["depth"]


def test_verify_rejects_tampered_exact_zero():
    f = mkform(2, 3, m_2000=1, m_0200=1, m_0020=-1, m_0002=-1)
    xi = PadicApproxVector.from_integers(3, 1, (1, 0, 1, 0))
    verify_certificate(f, xi, ExactZeroCertificate(3, (1, 0, 1, 0), 1))
    # a radius beyond the target's own digits is checked at xi.precision
    verify_certificate(f, xi, ExactZeroCertificate(3, (1, 0, 1, 0), 4))
    for point in [
        (1, 1, 1, 0),  # not a zero
        (1, 0, 1, 3),  # f = -9: a zero mod 3^2, not over Z
        (3, 0, 3, 0),  # a zero, but not primitive at 3
        (1, 0, -1, 0),  # a zero at 3-adic distance 1 from xi
    ]:
        with pytest.raises(HypothesisFailed):
            verify_certificate(f, xi, ExactZeroCertificate(3, point, 1))
    with pytest.raises(TypeError):
        verify_certificate(f, xi, {"kind": "exact-integer-zero", "point": (1, 0, 1, 0), "depth": 1})


# xi carries more digits (2^3) than the radius asked for (2^-1)
_DEEP_TARGET = (
    make_form(2, 3, (3, 0, 0, -3, 3, 0, -3, 1, -3, -3), primitive=False),
    PadicApproxVector.from_integers(2, 3, (6, 3, 1, 2)),
    1,
)


def test_decide_padic_lift_certifies_target_radius():
    f, xi, e_p = _DEEP_TARGET
    (res,) = decide_padic_batch([f], 2, xi, e_p)
    assert res.verdict == "yes"
    cert = res.certificate
    assert isinstance(cert, LiftCertificate) and cert.radius == e_p
    assert proj_distance_padic(cert.point, xi.entries, 2) <= 2.0**-e_p
    verify_certificate(f, xi, cert)
    # the point is at distance exactly 2^-1, so a claim of 2^-2 must fail
    with pytest.raises(HypothesisFailed):
        verify_certificate(f, xi, replace(cert, radius=2))


@st.composite
def _padic_targets(draw):
    d, n = draw(st.sampled_from([(2, 2), (2, 3), (3, 2)]))
    size = dimension(d, n)
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=size, max_size=size).filter(any))
    p = draw(st.sampled_from([2, 3, 5]))
    precision = draw(st.integers(1, 3))
    e_p = draw(st.integers(0, precision))  # 0: no target, plain Q_p-solubility
    entries = draw(
        st.lists(st.integers(0, p**precision - 1), min_size=n + 1, max_size=n + 1).filter(
            lambda x: any(c % p for c in x)
        )
    )
    return make_form(d, n, coeffs, primitive=False), PadicApproxVector(p, precision, tuple(entries)), e_p


@settings(derandomize=True, max_examples=200, deadline=None)
@example(_DEEP_TARGET)
@example((mkform(2, 3, m_2000=1, m_0200=1, m_0020=-1, m_0002=-1), PadicApproxVector(3, 1, (1, 0, 0, 0)), 0))
@given(_padic_targets())
def test_decide_padic_yes_reverifies_against_target(case):
    f, xi, e_p = case
    target = xi if e_p else None
    (res,) = decide_padic_batch([f], xi.p, target, e_p)
    if res.verdict == "yes":
        assert isinstance(res.certificate, (LiftCertificate, ExactZeroCertificate))
        assert res.certificate.radius == e_p
        verify_certificate(f, target, res.certificate)
        if target is None:
            # without a target only a radius-0 claim can be checked
            with pytest.raises(HypothesisFailed):
                verify_certificate(f, None, replace(res.certificate, radius=1))


def test_decide_real_yes_exact_zero():
    f = mkform(2, 2, m_200=1, m_020=1, m_002=-1)
    (res,) = decide_real_batch([f], (0, 1, 1), Fraction(1, 4))
    assert res.verdict == "yes"
    assert res.certificate["kind"] in ("exact-zero", "sign-change")
    verify_real_certificate(f, (0, 1, 1), Fraction(1, 4), res.certificate)


def test_decide_real_no_definite():
    # the signature decides a definite quadric at sigma = 1; the chart search
    # excludes it on its own too
    f = mkform(2, 2, m_200=1, m_020=1, m_002=1)
    (res,) = decide_real_batch([f], (1, 0, 0), Fraction(1))
    assert res.verdict == "no"
    assert res.certificate["kind"] == "quadric-definite"
    (res,) = localsolve._chart_verdicts([f], (1, 0, 0), Fraction(1), 20000)
    assert res.verdict == "no"
    assert res.certificate["kind"] == "bernstein-exclusion"


def test_decide_real_batch_certifies_a_quadric_the_chart_search_cannot():
    # the zeros (1, +-1) of X0^2 - X1^2 lie at distance exactly sqrt(1/2) from
    # (1, 0), just outside the cap: no grid point changes sign, the chart
    # search runs out of boxes, and the decider's S-lemma step proves no
    sigma = math.nextafter(math.sqrt(0.5), 0)
    form = mkform(2, 1, m_20=1, m_02=-1)
    (res,) = decide_real_batch([form], (1, 0), sigma)
    assert res.verdict == "no" and res.certificate["kind"] == "s-lemma"
    sign, tau = res.certificate["sign"], res.certificate["tau"]
    assert localsolve._s_lemma_holds(localsolve.quadric_matrix(form), cap_matrix((1, 0), sigma), sign, tau)


def test_decide_real_sign_change():
    # f = X0^2 + X1^2 - 3 X2^2 changes sign near xi = (1,1,1)/sqrt(3)
    f = mkform(2, 2, m_200=1, m_020=1, m_002=-3)
    (res,) = decide_real_batch([f], (1, 1, 1), Fraction(1, 2))
    assert res.verdict == "yes"


def test_decide_real_newton_path():
    # f with an irrational zero near xi: grid has no exact zero, sign data
    # may certify; ensure some yes-certificate is produced
    f = mkform(2, 2, m_200=2, m_020=1, m_002=-1)  # 2x^2 + y^2 = z^2
    (res,) = decide_real_batch([f], (1, 0, 1), Fraction(1, 3))
    assert res.verdict == "yes"


def _old_direction_grid(n, xi_inf):
    """The real decider's direction grid as a set: every nonzero v in
    [-2, 2]^(n+1) divided by its gcd, with first nonzero entry positive,
    and the axis approximation round(8 xi / |xi|) divided by its gcd; sorted."""
    out = set()
    for v in itertools.product(range(-2, 3), repeat=n + 1):
        if any(v):
            g = math.gcd(*v)
            w = tuple(c // g for c in v)
            first = next(c for c in w if c)
            out.add(w if first > 0 else tuple(-c for c in w))
    norm = math.sqrt(math.fsum(float(c) ** 2 for c in xi_inf))
    approx = tuple(round(8 * float(c) / norm) for c in xi_inf)
    if any(approx):
        out.add(tuple(c // math.gcd(*approx) for c in approx))
    return sorted(out)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_direction_grid_matches_the_set_construction(n):
    # (-3, 1, 0, ...) has a negative approximation, (-8, 3, 0, ...); those of
    # e_0 and (1, -1, 0, ...), 8 e_0 and (6, -6, 0, ...), divide to grid rows
    axes = [(1,) + (0,) * n, (-3, 1) + (0,) * (n - 1), (1, -1) + (0,) * (n - 1), (1, 2) + (0,) * (n - 1),
            tuple(range(-2, n - 1)), (Fraction(1, 3),) + (1,) * n]
    for xi in axes:
        grid = localsolve._direction_grid(n, xi)
        assert grid.dtype == np.int64
        assert [tuple(v) for v in grid.tolist()] == _old_direction_grid(n, xi), xi
    with pytest.raises(ValueError):  # a zero axis fails the cap's check, not the grid's division
        decide_real_batch([make_form(2, n, [1] * dimension(2, n))], (0,) * (n + 1), Fraction(1, 2))


def _bernstein_value(T, k, s):
    """The polynomial with tensor Bernstein coefficients T (flat, degree k
    per axis) at the point s of [0, 1]^n, exactly."""
    total = 0
    for flat, beta in enumerate(itertools.product(range(k + 1), repeat=len(s))):
        term = Fraction(T[flat])
        for b, x in zip(beta, s):
            term *= math.comb(k, b) * x**b * (1 - x) ** (k - b)
        total += term
    return total


def _chart_point(patch, s):
    """c + L s for a patch (c, L) and a rational s."""
    c, L = patch
    return [ci + sum(a * b for a, b in zip(row, s)) for ci, row in zip(c, L)]


def _exact_chart_decide(form, xi, sigma, budget):
    """The real decider one grid point and one box at a time, in exact
    rationals: the grid's yes paths in grid order, odd degree at sigma = 1,
    then the chart search on a first-in first-out queue of boxes, each with
    its exact Bernstein tensors of f and q in Python integers (positive
    multiples of the true ones, so every sign is exact), strict signs and no
    band."""
    pos, neg = [], []
    for v in _old_direction_grid(form.basis.n, xi):
        if not cone_oracle(xi, sigma, v):
            continue
        val = evaluate_form(form, v)
        if val == 0:
            return TriState.yes({"kind": "exact-zero", "point": v})
        side = sum(a * b for a, b in zip(v, xi))
        w = v if side >= 0 else tuple(-c for c in v)
        sval = val if (side >= 0 or form.basis.d % 2 == 0) else -val
        (pos if sval > 0 else neg).append(w)
    if pos and neg:
        return TriState.yes({"kind": "sign-change", "positive": pos[0], "negative": neg[0]})
    d, n = form.basis.d, form.basis.n
    if Fraction(sigma) == 1 and d % 2 == 1:
        return TriState.yes({"kind": "odd-degree"})
    patches, T, F, Q = localsolve._chart(form.basis, tuple(xi), Fraction(sigma))
    f = (np.array(form.coeffs, dtype=object) @ F.astype(object)).reshape(len(patches), -1)
    queue = [(p, f[p : p + 1], Q.astype(object)[p : p + 1], [Fraction(0)] * n, [0] * n) for p in range(len(patches))]
    examined = 0
    while queue:
        p, fb, qb, lo, depth = queue.pop(0)
        examined += 1
        if examined > budget:
            return TriState.unknown({"reason": "subdivision budget"})
        if (qb > 0).all() or (fb > 0).all() or (fb < 0).all():
            continue
        corners = {}
        for bits in itertools.product((0, 1), repeat=n):
            s = [a + Fraction(b, 2**e) for a, b, e in zip(lo, bits, depth)]
            # a corner coefficient is the value at the corner
            if qb[0, np.ravel_multi_index([2 * b for b in bits], (3,) * n)] <= 0:
                value = fb[0, np.ravel_multi_index([d * b for b in bits], (d + 1,) * n)]
                if value != 0:
                    x = _chart_point(patches[p], s)
                    scale = math.lcm(*(Fraction(c).denominator for c in x))
                    corners.setdefault(value > 0, tuple(int(c * scale) for c in x))
        if len(corners) == 2:
            return TriState.yes({"kind": "sign-change", "positive": corners[True], "negative": corners[False]})
        j = max(range(n), key=lambda a: (Fraction(T[a], 2 ** depth[a]), -a))
        halves = (localsolve._halves(fb.T, d, j).T, localsolve._halves(qb.T, 2, j).T)  # one box a column
        for side in (0, 1):
            child_lo = [a + Fraction(side, 2 ** (e + 1)) if i == j else a for i, (a, e) in enumerate(zip(lo, depth))]
            child_depth = [e + (i == j) for i, e in enumerate(depth)]
            queue.append((p, halves[0][side : side + 1], halves[1][side : side + 1], child_lo, child_depth))
    return TriState.no({"kind": "bernstein-exclusion"})


_SIGMAS = [Fraction(1, 10), Fraction(1, 4), Fraction(1, 2), Fraction(2, 3), Fraction(9, 10), Fraction(1)]


@st.composite
def _decider_cases(draw):
    d, n = draw(st.sampled_from([2, 3])), draw(st.sampled_from([1, 2, 3]))
    basis = monomial_basis(d, n)
    coeffs = draw(st.lists(st.integers(-5, 5), min_size=basis.size, max_size=basis.size))
    if d == 2:  # lean towards definite quadrics, whose caps end in a no
        shift = draw(st.integers(0, 6))
        coeffs = [a + shift * (max(e) == 2) for a, e in zip(coeffs, basis.monomials)]
    assume(any(coeffs))
    xi = tuple(draw(st.lists(st.integers(-3, 3), min_size=n + 1, max_size=n + 1).filter(any)))
    sigma, budget = draw(st.sampled_from(_SIGMAS)), draw(st.sampled_from([1, 40, 300]))
    return make_form(d, n, coeffs, primitive=False), xi, sigma, budget


def _agrees_with_the_oracle(form, xi, sigma, budget, res):
    """A decided verdict is the exact oracle's, and a yes re-verifies. The
    float search keeps every box the exact one keeps, within the same budget,
    so it can decide no form that the oracle leaves open. The oracle has no
    quadric step: a verdict of that step (the signature, and in a cap every
    verdict of a quadric) is checked on its own (the signature against
    `quadric_real_soluble`, an S-lemma certificate by `_s_lemma_holds`, a
    yes by `verify_real_certificate`) and must not contradict the oracle, and
    then the chart search alone must agree with the oracle like the decider
    on any other form."""
    kind = res.certificate.get("kind")
    in_cap = form.basis.d == 2 and Fraction(sigma) < 1 and res.verdict != "unknown"
    if kind in ("quadric-signature", "quadric-definite") or in_cap:
        if kind == "s-lemma":
            cert, mat = res.certificate, localsolve.quadric_matrix(form)
            assert localsolve._s_lemma_holds(mat, cap_matrix(xi, sigma), cert["sign"], cert["tau"])
        elif in_cap:
            verify_real_certificate(form, xi, sigma, res.certificate)
        else:
            assert (res.verdict == "yes") == quadric_real_soluble(form)
        ref = _exact_chart_decide(form, xi, sigma, budget)
        assert ref.verdict in (res.verdict, "unknown"), (form, xi, sigma, budget, res, ref)
        (res,) = localsolve._chart_verdicts([form], tuple(xi), Fraction(sigma), budget)
    if res.verdict == "yes":
        verify_real_certificate(form, xi, sigma, res.certificate)
    if res.verdict != "unknown":
        ref = _exact_chart_decide(form, xi, sigma, budget)
        assert ref.verdict == res.verdict, (form, xi, sigma, budget, res, ref)
        if ref.verdict == "yes":
            verify_real_certificate(form, xi, sigma, ref.certificate)


@settings(max_examples=20)
@given(_decider_cases())
@example((make_form(2, 1, [5, 1, -3]), (3, -3), Fraction(1, 4), 40))  # a chart sign change
@example((make_form(3, 2, [1, 2, 4, -5, -1, -5, -3, -4, -5, -3]), (-1, 1, 1), Fraction(1, 10), 40))  # flipped side
@example((make_form(2, 2, [1, 0, 0, 1, 0, -1]), (2, 1, 0), Fraction(2, 3), 600))  # a chart no
@example((make_form(4, 1, [1, 0, -3, 0, 1]), (1, 0), Fraction(1), 300))  # the faces at sigma = 1
def test_decide_real_matches_the_exact_chart_oracle(case):
    form, xi, sigma, budget = case
    _agrees_with_the_oracle(form, xi, sigma, budget, decide_real_batch([form], xi, sigma, subdivision_budget=budget)[0])


@st.composite
def _decider_blocks(draw, fewest=1):
    """fewest..6 forms on one basis: mixed term counts, quadrics leaning
    definite (so the block mixes yes, no and unknown), one axis, aperture
    and budget."""
    d, n = draw(st.sampled_from([2, 3])), draw(st.sampled_from([1, 2, 3]))
    basis = monomial_basis(d, n)
    forms = []
    for _ in range(draw(st.integers(fewest, 6))):
        coeffs = draw(st.lists(st.integers(-5, 5), min_size=basis.size, max_size=basis.size))
        keep = draw(st.sets(st.integers(0, basis.size - 1), min_size=1, max_size=basis.size))
        coeffs = [a if m in keep else 0 for m, a in enumerate(coeffs)]
        if d == 2:
            shift = draw(st.integers(0, 6))
            coeffs = [a + shift * (max(e) == 2) for a, e in zip(coeffs, basis.monomials)]
        if any(coeffs):
            forms.append(make_form(d, n, coeffs, primitive=False))
    assume(len(forms) >= fewest)
    xi = tuple(draw(st.lists(st.integers(-3, 3), min_size=n + 1, max_size=n + 1).filter(any)))
    sigma = draw(st.sampled_from(_SIGMAS + [0.6]))
    return forms, xi, sigma, draw(st.sampled_from([1, 40, 300]))


# around (1, 0) at sigma = 1/2: definite (an S-lemma no, a chart no on its
# own); a double zero at t = 1/3, off every dyadic box corner, which is the
# quadric step's minimum; a grid zero; a grid sign change; zeros at
# t = +-0.53, between the grid points and the cap's edge t = +-0.58
_EVERY_KIND = ((-5, -5, -5), (1, -6, 9), (-3, -5, 2), (-3, -5, 3), (2, 0, -7))
# X0 (X0 - 3 X1)^2: the same double zero on a cubic, which only the chart
# search decides, and which it cannot settle in 20 boxes
_TANGENT_CUBIC = (1, -6, 9, 0)


@settings(max_examples=20)
@given(_decider_blocks())
@example(([make_form(2, 1, c, primitive=False) for c in _EVERY_KIND], (1, 0), Fraction(1, 2), 20))
@example(([make_form(3, 1, _TANGENT_CUBIC, primitive=False)], (1, 0), Fraction(1, 2), 20))
def test_decide_real_batch_equals_one_form_calls_and_the_oracle(case):
    forms, xi, sigma, budget = case
    batch = decide_real_batch(forms, xi, sigma, budget)
    assert len(batch) == len(forms)
    for form, res in zip(forms, batch):
        # the whole certificate: kind, points, reason, cells and pending
        assert res == decide_real_batch([form], xi, sigma, subdivision_budget=budget)[0]
        _agrees_with_the_oracle(form, xi, sigma, budget, res)


@settings(max_examples=50, deadline=None)
@given(_decider_blocks(fewest=2))
@example(([make_form(2, 1, c, primitive=False) for c in _EVERY_KIND], (1, 0), Fraction(1, 2), 20))
@example(
    ([make_form(3, 1, _TANGENT_CUBIC, primitive=False), make_form(3, 1, (1, 0, -2, 0), primitive=False)], (1, 0), Fraction(1, 2), 300)
)
def test_chart_verdicts_do_not_depend_on_the_batch(case):
    # each form's chart verdict and whole certificate (kind, points, cells,
    # pending) alone equal those it gets in a batch: on one shared frontier,
    # and with _CELLS so tight that the batch starts as one frontier and
    # splits by forms whenever it grows (a level keeps 10 coefficients a
    # box in hand), down to one form a frontier
    forms, xi, sigma, budget = case
    d, n = forms[0].basis.d, forms[0].basis.n
    sigma = Fraction(1, 2) if sigma == 1 and d % 2 else Fraction(sigma)  # the chart serves odd degrees only in a cap
    alone = [localsolve._chart_verdicts([form], xi, sigma, budget)[0] for form in forms]
    patches = len(localsolve._chart(forms[0].basis, xi, sigma)[0])
    width = (d + 1) ** n + 3**n
    for cells in (localsolve._CELLS, 10 * width * patches * len(forms), 10 * width * patches * 2):
        with mock.patch.object(localsolve, "_CELLS", cells):
            assert localsolve._chart_verdicts(forms, xi, sigma, budget) == alone, cells


def test_every_kind_of_the_batch_example_is_met():
    forms = [make_form(2, 1, c, primitive=False) for c in _EVERY_KIND]
    kinds = [res.certificate.get("kind", res.certificate.get("reason")) for res in decide_real_batch(forms, (1, 0), Fraction(1, 2), 20)]
    # the quadric step's minimum of the tangent quadric is its double zero (3, 1)
    assert kinds == ["s-lemma", "exact-zero", "exact-zero", "sign-change", "sign-change"]
    assert decide_real_batch(forms[1:2], (1, 0), Fraction(1, 2), 20)[0].certificate["point"] == (3, 1)
    (cubic,) = decide_real_batch([make_form(3, 1, _TANGENT_CUBIC, primitive=False)], (1, 0), Fraction(1, 2), 20)
    assert cubic.certificate["reason"] == "subdivision budget"
    (chart,) = localsolve._chart_verdicts(forms[:1], (1, 0), Fraction(1, 2), 20)
    assert chart.certificate["kind"] == "bernstein-exclusion"


def test_decide_real_batch_keeps_a_budget_overrun_to_its_form(monkeypatch):
    # around (1, 0, 0) at sigma = 1/2, where X0 has no zero: X0 (X0^2 + X1^2 -
    # X2^2) needs one box more than the budget, the definite forms times X0
    # fewer, and X0 (X0^2 - 9 X1^2) changes sign on the grid
    xi, sigma = (1, 0, 0), Fraction(1, 2)
    cone = mkform(3, 2, m_300=1, m_120=1, m_102=-1)
    definite = [mkform(3, 2, m_300=1, m_120=1, m_102=1), mkform(3, 2, m_300=3, m_111=1, m_102=2)]
    sign = mkform(3, 2, m_300=1, m_120=-9)
    cells = decide_real_batch([cone], xi, sigma)[0].certificate["cells"]
    budget = cells - 1
    alone = [decide_real_batch([f], xi, sigma, budget)[0] for f in definite + [sign]]
    assert [r.verdict for r in alone] == ["no", "no", "yes"]
    assert max(r.certificate["cells"] for r in alone[:2]) < budget
    for scale in (1, 2, 4):  # chart frontiers that split by forms as they grow: 25 coefficients a box of a cubic in P^2
        monkeypatch.setattr(localsolve, "_CELLS", scale * budget * 16)
        first, *rest = decide_real_batch([cone] + definite + [sign], xi, sigma, budget)
        assert first == decide_real_batch([cone], xi, sigma, budget)[0]
        assert first.certificate["reason"] == "subdivision budget"
        assert rest == alone


def test_decide_real_unknown_reports_cells_and_the_frontier():
    # X0^2 + X1^2 = X2^2 stays at distance sin(pi/4) from (1, 0, 0): the
    # decider proves it by the S-lemma, the chart search alone by its boxes
    f, xi, sigma = mkform(2, 2, m_200=1, m_020=1, m_002=-1), (1, 0, 0), Fraction(1, 2)
    assert decide_real_batch([f], xi, sigma)[0].certificate["kind"] == "s-lemma"

    def chart(form, budget, sigma=sigma):
        return localsolve._chart_verdicts([form], xi, Fraction(sigma), budget)[0]

    cells = chart(f, 20000).certificate["cells"]
    # a no needs the whole search tree inside the budget
    assert chart(f, cells).verdict == "no"
    res = chart(f, cells - 1)
    assert res.verdict == "unknown"
    assert res.certificate["reason"] == "subdivision budget"
    assert 0 < res.certificate["cells"] < cells <= res.certificate["cells"] + res.certificate["pending"]
    first = chart(f, 1).certificate
    assert (first["cells"], first["pending"]) == (1, 2)  # the chart's one box, then its two halves
    # at sigma = 1 the search starts from the three faces x_k = 1
    first = chart(mkform(2, 2, m_200=1, m_020=1, m_002=1), 1, sigma=1).certificate
    assert (first["cells"], first["pending"]) == (0, 3)


@st.composite
def _cap_quadrics(draw):
    """1..5 quadrics on one basis, n = 1..4, leaning definite, in a random cap."""
    n = draw(st.integers(1, 4))
    basis = monomial_basis(2, n)
    forms = []
    for _ in range(draw(st.integers(1, 5))):
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=basis.size, max_size=basis.size))
        shift = draw(st.integers(0, 4))
        coeffs = [a + shift * (max(e) == 2) for a, e in zip(coeffs, basis.monomials)]
        if any(coeffs):
            forms.append(make_form(2, n, coeffs, primitive=False))
    assume(forms)
    xi = tuple(draw(st.lists(st.integers(-3, 3), min_size=n + 1, max_size=n + 1).filter(any)))
    return forms, xi, draw(st.sampled_from(_SIGMAS[:-1] + [0.6]))


def _off_the_cap(u) -> tuple:
    """A nonzero integer point orthogonal to the axis u, so outside every cap sigma < 1."""
    i = next(k for k, c in enumerate(u) if c)
    j = (i + 1) % len(u)
    return tuple(u[j] if k == i else -u[i] if k == j else 0 for k in range(len(u)))


@settings(max_examples=40, deadline=None)
@given(_cap_quadrics())
@example(([make_form(2, 1, c, primitive=False) for c in _EVERY_KIND], (1, 0), Fraction(1, 2)))
@example(([mkform(2, 3, m_0101=1, m_0020=-1), mkform(2, 3, m_2000=1, m_0200=1, m_0020=1, m_0002=-1)], (3, -1, 2, 1), Fraction(1, 2)))
def test_quadric_step_verdicts_reverify_and_agree_with_the_oracle(case):
    # the quadric step on its own, every form's no and yes side: a no
    # re-verifies with Fraction minors, a yes with verify_real_certificate,
    # the exact chart oracle contradicts neither, and a tampered certificate
    # (tau negated, a point moved out of the cap) fails; one verdict a form,
    # so no form gets both
    forms, xi, sigma = case
    away = _off_the_cap(integer_axis(xi))
    for form, res in zip(forms, localsolve._quadric_verdicts(forms, xi, sigma)):
        if res is None:
            continue
        cert = res.certificate
        if res.verdict == "no":
            mat = localsolve.quadric_matrix(form)
            assert _s_lemma_reverifies(form, xi, sigma, cert)
            assert not _s_lemma_reverifies(form, xi, sigma, {**cert, "tau": -cert["tau"]}) or cert["tau"] == 0
            assert not localsolve._s_lemma_holds(mat, cap_matrix(xi, sigma), cert["sign"], -cert["tau"] - 1)
        else:
            verify_real_certificate(form, xi, sigma, cert)
            key = "point" if cert["kind"] == "exact-zero" else "negative"
            with pytest.raises(HypothesisFailed):
                verify_real_certificate(form, xi, sigma, {**cert, key: away})
        ref = _exact_chart_decide(form, xi, sigma, 40)
        assert ref.verdict in (res.verdict, "unknown"), (form, xi, sigma, res, ref)


@pytest.mark.parametrize("sigma", [0, Fraction(-1, 2), 1.5, Fraction(3, 2)])
def test_decide_real_batch_refuses_an_aperture_outside_the_unit_interval(sigma):
    # an aperture outside (0, 1] is refused before any step runs, with or without forms
    form = mkform(2, 2, m_200=1, m_020=1, m_002=-1)
    for forms in ([form], []):
        with pytest.raises(ValueError):
            decide_real_batch(forms, (1, 0, 0), sigma)


@pytest.mark.parametrize("d", [21, 22, 40])
def test_decide_real_grid_values_never_wrap_int64(d):
    # x0^d + x1^d has no real zero near (1, 0); the axis grid point (8, 0)
    # has 8^d >= 2^63, which int64 Veronese rows would wrap to 0 or negative
    f = make_form(d, 1, [1] + [0] * (d - 1) + [1])
    for xi in ((1, 0), (0, 1)):
        assert decide_real_batch([f], xi, Fraction(1, 10))[0].verdict == "no"


@st.composite
def _chart_cases(draw, sigmas, halvings=0):
    """A form with coefficients past 2^53, an axis, an aperture, and up to
    `halvings` random (axis, right half) steps."""
    d, n = draw(st.sampled_from([2, 3])), draw(st.integers(1, 3))
    basis = monomial_basis(d, n)
    entries = st.integers(-5, 5) | st.sampled_from([2**53 + 1, -(3**40)])
    coeffs = draw(st.lists(entries, min_size=basis.size, max_size=basis.size).filter(any))
    xi = tuple(draw(st.lists(st.integers(-3, 3), min_size=n + 1, max_size=n + 1).filter(any)))
    sigma = Fraction(draw(st.sampled_from(sigmas)))
    steps = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, 1)), max_size=halvings))
    return make_form(d, n, coeffs, primitive=False), xi, sigma, steps


@settings(max_examples=25)
@given(_chart_cases([Fraction(1, 10), Fraction(1, 2), 0.6, 1], halvings=3), st.data())
def test_chart_tensors_are_the_bernstein_forms_of_f_and_q(case, data):
    # on every patch, at random rational points and after random halvings:
    # the f tensor is (lcm_a C(d, a))^n f(c + L s), the q tensor is <= 0
    # exactly on the cap, and every cap point's chart coordinates lie in the box
    form, xi, sigma, steps = case
    d, n = form.basis.d, form.basis.n
    if sigma == 1 and d % 2 == 1:
        sigma = Fraction(1, 2)  # the chart serves odd degrees only in a cap
    patches, T, F, Q = localsolve._chart(form.basis, xi, sigma)
    scale = math.lcm(*(math.comb(d, a) for a in range(d + 1))) ** n
    f = (np.array(form.coeffs, dtype=object) @ F.astype(object)).reshape(len(patches), -1)
    rationals = st.fractions(0, 1, max_denominator=12)
    for p, patch in enumerate(patches):
        ft, qt, box = f[p : p + 1], Q.astype(object)[p : p + 1], [(Fraction(0), Fraction(1))] * n
        for axis, right in steps:
            ft, qt = (localsolve._halves(A.T, k, axis).T[right : right + 1] for A, k in ((ft, d), (qt, 2)))
            a, b = box[axis]
            box[axis] = (a + right * (b - a) / 2, a + (right + 1) * (b - a) / 2)
        for _ in range(3):
            s = [data.draw(rationals) for _ in range(n)]
            x = _chart_point(patch, [a + v * (b - a) for v, (a, b) in zip(s, box)])
            # an exact split scales the tensor by 2^d (`_split_matrix`)
            assert _bernstein_value(ft[0], d, s) / 2 ** (d * len(steps)) == scale * evaluate_form(form, x)
            in_cap = cone_oracle(xi, sigma, x)
            assert (_bernstein_value(qt[0], 2, s) <= 0) == in_cap
    if sigma < 1:
        u = [int(c) for c in xi]
        k = max(range(n + 1), key=lambda i: abs(u[i]))
        for w in localsolve._cap_grid(form.basis, xi, sigma)[1]:
            x = [Fraction(c * sum(a * a for a in u), sum(a * b for a, b in zip(w, u))) for c in w]
            t = [(x[j] - u[j]) / u[k] for j in range(n + 1) if j != k]
            assert all(abs(tj) <= Tj for tj, Tj in zip(t, T))


@settings(max_examples=40)
@given(_chart_cases([Fraction(1, 10), Fraction(1, 2), 0.6], halvings=14))
@example((make_form(3, 3, [2**53 + 1] + [1] * 19, primitive=False), (3, -1, 2, 1), Fraction(1, 2), [(0, 1), (2, 0)] * 5))
# 14 halvings at degrees 2, 3 and 4, coefficients near 2^53 of both signs
@example(
    (make_form(2, 2, [2**53 - 1, 3, -(2**53 + 1), 1, 2**52 + 1, -5], primitive=False), (1, -2, 3), Fraction(1, 10), [(0, 1), (1, 0)] * 7)
)
@example(
    (
        make_form(3, 3, [2**53 + 1, -(2**53 - 1)] + [1, -1] * 9, primitive=False),
        (3, -1, 2, 1),
        Fraction(1, 2),
        [(0, 1), (1, 0), (2, 1)] * 4 + [(0, 0), (1, 1)],
    )
)
@example((make_form(4, 1, [2**53 - 1, -4, -(2**53 + 1), 3, 2**53], primitive=False), (1, 2), Fraction(3, 5), [(0, 1), (0, 0)] * 7))
def test_banded_float_signs_agree_with_fraction_de_casteljau(case):
    # wherever float64 de Casteljau after S halvings puts a coefficient
    # beyond the band, the exact one of the same tensor has that sign
    form, xi, sigma, steps = case
    _, _, F, Q = localsolve._chart(form.basis, xi, sigma)
    exact_f = (np.array(form.coeffs, dtype=object) @ F.astype(object)).reshape(1, -1)
    assert max(abs(int(v)) for v in exact_f.ravel()) > 2**53 or max(map(abs, form.coeffs)) <= 5
    for T, k in ((exact_f, form.basis.d), (Q.astype(object), 2)):
        top = float(max(abs(int(v)) for v in T.ravel()))
        fl, fr = np.asarray(T, dtype=np.float64), T
        for axis, right in steps:
            fl, fr = (localsolve._halves(A.T, k, axis).T[right : right + 1] for A in (fl, fr))
        band = localsolve._band(top, k * len(steps))
        # the exact split in integers scales by 2^k a halving (`_split_matrix`)
        for x, y in zip(fl.ravel().tolist(), (Fraction(v, 2 ** (k * len(steps))) for v in fr.ravel().tolist())):
            assert (x <= band or y > 0) and (x >= -band or y < 0), (x, y, band)
            assert abs(Fraction(x) - y) <= band  # the band bounds the rounding error itself


@pytest.mark.parametrize("k", [2, 3, 4])
def test_float_halves_of_a_box_do_not_depend_on_the_other_boxes(k):
    # bit for bit, alone and among 2..600 boxes, on every axis: one box's
    # column alone takes a matrix-vector product unless it goes in twice
    rng = np.random.default_rng(k)
    for n in (1, 2, 3):
        T = rng.standard_normal(((k + 1) ** n, 600)) * 10.0 ** rng.integers(-3, 16, ((k + 1) ** n, 600))
        for axis in range(n):
            for boxes in (1, 2, 3, 7, 600):
                H = localsolve._halves(T[:, :boxes], k, axis)
                for c in {0, boxes // 2, boxes - 1}:
                    alone = localsolve._halves(T[:, c : c + 1], k, axis)
                    assert np.array_equal(alone, H[:, [c, boxes + c]]), (n, axis, boxes, c)


def _tamperings(cert) -> list:
    """Broken copies of the sign-change certificate of X1 X3 - X2^2 around
    (3, -1, 2, 1) at sigma = 1/2 (`test_verify_real_certificate_rejects_tampering`)."""
    pos, neg = cert["positive"], cert["negative"]
    return [
        {**cert, "positive": neg, "negative": pos},  # signs swapped
        {**cert, "positive": (1, 0, 0, 0)},  # moved out of the cap
        {**cert, "negative": tuple(-c for c in neg)},  # the cap's other side
        {"kind": "exact-zero", "point": pos},  # f(pos) != 0
        {"kind": "exact-zero", "point": (1, 0, 0, 0)},  # a zero, outside the cap
        {"kind": "exact-zero", "point": tuple(float(c) for c in pos)},  # not integers
        {"kind": "odd-degree"},  # an even degree
        {"kind": "newton-line", "point": pos},  # no such certificate
    ]


def test_verify_real_certificate_rejects_tampering():
    # X1 X3 - X2^2 meets census-cap's cap around (3, -1, 2, 1) only where no
    # grid point shows it: the chart search finds the sign change
    xi, sigma = (3, -1, 2, 1), Fraction(1, 2)
    f = mkform(2, 3, m_0101=1, m_0020=-1)
    (res,) = decide_real_batch([f], xi, sigma, 4000)
    assert res.verdict == "yes" and res.certificate["kind"] == "sign-change"
    cert = res.certificate
    verify_real_certificate(f, xi, sigma, cert)
    assert evaluate_form(f, (1, 0, 0, 0)) == 0 and not cone_oracle(xi, sigma, (1, 0, 0, 0))
    for bad in _tamperings(cert):
        with pytest.raises(HypothesisFailed):
            verify_real_certificate(f, xi, sigma, bad)
    # at sigma = 1 an odd degree suffices, and antiparallel points prove nothing
    cubic = mkform(3, 1, m_30=1, m_03=1)
    verify_real_certificate(cubic, (1, 0), 1, {"kind": "odd-degree"})
    with pytest.raises(HypothesisFailed):
        verify_real_certificate(cubic, (1, 0), Fraction(1, 2), {"kind": "odd-degree"})
    with pytest.raises(HypothesisFailed):
        verify_real_certificate(cubic, (1, 0), 1, {"kind": "sign-change", "positive": (1, 0), "negative": (-1, 0)})
    verify_real_certificate(cubic, (1, 0), 1, {"kind": "sign-change", "positive": (1, 0), "negative": (-2, 1)})


def test_batched_re_check_rejects_every_tampering_among_good_certificates():
    # the one exact array pass finds each tampering of the test above, and
    # only those, in batches that interleave them with good certificates
    xi, sigma = (3, -1, 2, 1), Fraction(1, 2)
    f, g = mkform(2, 3, m_0101=1, m_0020=-1), mkform(2, 3, m_2000=1, m_0200=-9)
    good = [res.certificate for res in decide_real_batch([f, g], xi, sigma, 4000)]
    assert [cert["kind"] for cert in good] == ["sign-change", "exact-zero"]
    batch = [(f, good[0]), (g, good[1])]
    for bad in _tamperings(good[0]):
        batch += [(f, bad), (f, good[0]), (g, good[1])]
    faults = localsolve._real_certificate_faults([form for form, _ in batch], xi, sigma, [cert for _, cert in batch])
    assert [fault is None for fault in faults] == [cert in good for _, cert in batch]
    cubic = mkform(3, 1, m_30=1, m_03=1)
    certs = [
        {"kind": "odd-degree"},
        {"kind": "sign-change", "positive": (1, 0), "negative": (-1, 0)},  # antiparallel
        {"kind": "sign-change", "positive": (1, 0), "negative": (-2, 1)},
        {"kind": "exact-zero", "point": (1, -1)},
        {"kind": "exact-zero", "point": (2, -1)},  # f = 7
    ]
    faults = localsolve._real_certificate_faults([cubic] * 5, (1, 0), 1, certs)
    assert [fault is None for fault in faults] == [True, False, True, True, False]
    # in a cap an odd degree proves nothing: X0^3 - 8 X1^3 vanishes at (2, 1)
    # and changes sign between (1, 0) and (7, 4), all within 1/2 of (1, 0)
    cubic = mkform(3, 1, m_30=1, m_03=-8)
    certs = [
        {"kind": "odd-degree"},
        {"kind": "exact-zero", "point": (2, 1)},
        {"kind": "sign-change", "positive": (1, 0), "negative": (7, 4)},
        {"kind": "sign-change", "positive": (1, 0), "negative": (-7, -4)},  # the cap's other side
    ]
    faults = localsolve._real_certificate_faults([cubic] * 4, (1, 0), Fraction(1, 2), certs)
    assert [fault is None for fault in faults] == [False, True, True, False]


def test_classify_balls_matches_congruence_set_at_v_equals_e():
    # at v = e_p, Omega_1 is exactly {a prim : <a, nu(xi)> ≡ 0 mod p^e}
    for p in (2, 3):
        xi = PadicApproxVector.from_integers(p, 1, (1, 0, 0))
        res = classify_balls(2, 2, p, v=1, xi=xi, e_p=1)
        nu = veronese(monomial_basis(2, 2), tuple(int(c) for c in xi.entries))
        count = 0
        for a in itertools.product(range(p), repeat=6):
            if all(c % p == 0 for c in a):
                continue
            if sum(ai * ni for ai, ni in zip(a, nu)) % p == 0:
                count += 1
        assert res.omega1 == count
        # exact mu_p(Y) = (1 - p^-(N-1)) p^-e
        N = dimension(2, 2)
        assert Fraction(res.omega1, p**N) == (1 - Fraction(1, p ** (N - 1))) * Fraction(1, p)


def test_classify_balls_boundary_bound():
    # boundary upper count obeys the ball-count ceiling at the pinned (p, v)
    for p, v in ((2, 1), (2, 2), (3, 1)):
        xi = PadicApproxVector.from_integers(p, v, (1, 0, 0))
        res = classify_balls(2, 2, p, v=v, xi=xi, e_p=1)
        assert res.omega0 <= res.omega1
        assert res.boundary_upper <= res.paper_boundary_bound, (p, v)


def _brute_force_balls(d, n, p, v, xi=None, e_p=0):
    """(omega0, omega1) by testing every primitive ball a mod p^v against
    every admissible residue mod p^v: the single-level kernel the digit-by-
    digit classification replaced."""
    N = dimension(d, n)
    basis = monomial_basis(d, n)
    mod, modt = p**v, p ** min(-(-v // 2), v - e_p + 1)
    if e_p >= 1:
        X = _residue_fibre(canonical_residue(xi.entries, p, e_p), p, e_p, v)
    else:
        X = np.array(canonical_projective_residues(n + 1, p, v), dtype=np.int64)
    NU = veronese_batch(basis, X) % mod
    jets = [veronese_jet(basis, x)[1] for x in X.tolist()]
    DIs = [np.array([[c % modt for c in jet[i]] for jet in jets], dtype=np.int64) for i in range(n + 1)]
    A = np.array([a for a in itertools.product(range(mod), repeat=N) if any(c % p for c in a)], dtype=np.int64)
    zero = (A @ NU.T) % mod == 0
    good = np.zeros_like(zero)
    for DI in DIs:
        good |= (A @ DI.T) % modt != 0
    return int((zero & good).any(axis=1).sum()), int(zero.any(axis=1).sum())


@st.composite
def _ball_cases(draw):
    d, n, p = draw(st.sampled_from([1, 2, 3])), draw(st.sampled_from([1, 2, 3])), draw(st.sampled_from([2, 3, 5]))
    v = draw(st.integers(1, 3))
    assume(p ** (v * dimension(d, n)) <= 2**16)
    e_p = draw(st.integers(0, v))
    if e_p == 0:
        return d, n, p, v, 0, None
    xi = draw(
        st.lists(st.integers(0, p**e_p - 1), min_size=n + 1, max_size=n + 1).filter(lambda x: any(c % p for c in x))
    )
    return d, n, p, v, e_p, tuple(xi)


@settings(max_examples=60)
@given(_ball_cases())
@example((2, 2, 2, 3, 1, (1, 0, 1)))  # p | d, three levels
@example((3, 1, 3, 2, 1, (1, 2)))  # p | d
# classes descend through two or more digit levels, with a target and at p = 3
@example((2, 1, 3, 3, 1, (1, 2)))
@example((2, 1, 3, 3, 0, None))
@example((2, 1, 2, 4, 2, (1, 3)))  # v = e_p + 2
@example((3, 1, 2, 4, 1, (1, 1)))  # three descent levels
def test_classify_balls_matches_the_brute_force_kernel(case):
    d, n, p, v, e_p, entries = case
    xi = PadicApproxVector.from_integers(p, e_p, entries) if e_p else None
    res = classify_balls(d, n, p, v, xi, e_p)
    assert (res.omega0, res.omega1) == _brute_force_balls(d, n, p, v, xi, e_p)


# (omega0, omega1) of the single-level kernel, which took 3-18 s per case;
# (2, 2, 2, 4) of the digit-by-digit kernel before its levels were linear in
# the new digit (2^24 nominal balls, past the default budget)
_PINNED_BALLS = {
    (2, 3, 2, 2): (996352, 1043072),
    (3, 2, 2, 2): (1017856, 1031296),
    (2, 2, 3, 2): (454896, 488592),
    (2, 2, 2, 3): (223328, 237440),
    (2, 2, 2, 4): (14292992, 14855680),
}


@pytest.mark.parametrize("case", sorted(_PINNED_BALLS))
def test_classify_balls_keeps_the_pinned_counts(case):
    res = classify_balls(*case, budget=2**24)
    assert (res.omega0, res.omega1) == _PINNED_BALLS[case]


def test_classify_balls_counts_do_not_depend_on_batching(monkeypatch):
    # one descending class per batch
    monkeypatch.setattr(localsolve, "_CELLS", 1)
    res = classify_balls(2, 2, 2, 3)
    assert (res.omega0, res.omega1) == _PINNED_BALLS[(2, 2, 2, 3)]


def test_local_density_still_bounds_the_tail_at_3_for_quadric_surfaces():
    # 3^20 nominal balls exceed the budget however fast the classification is,
    # so predicted_census enumerates the same primes as before
    assert local_density(2, 3, 3, depth=2).method == "tail-bound"


def test_density_sandwich_values():
    # (d,n) = (2,3): N = 10, p = 3, e = 1
    iv = density_sandwich(2, 3, 3, 1)
    assert iv.upper == (1 - Fraction(1, 3**9)) / 3
    assert iv.lower == (1 - Fraction(1, 3**9) - Fraction(1, 27)) / 3
    # width shrinks like p^-(e+n)
    iv2 = density_sandwich(2, 3, 7, 1)
    assert iv2.upper - iv2.lower == Fraction(1, 7**4)
    with pytest.raises(ValueError):
        density_sandwich(2, 3, 3, 0)


def test_measured_density_in_sandwich():
    # exact classification at v = e_p lies inside the sandwich
    for p in (2, 3):
        xi = PadicApproxVector.from_integers(p, 1, (1, 0, 0))
        res = classify_balls(2, 2, p, v=1, xi=xi, e_p=1)
        meas = res.measure_interval()
        sand = density_sandwich(2, 2, p, 1)
        assert sand.lower <= meas.lower and meas.upper <= sand.upper, p


def test_deeper_classification_tightens():
    xi = PadicApproxVector.from_integers(2, 2, (1, 0, 0))
    r1 = classify_balls(2, 2, 2, v=1, xi=xi, e_p=1)
    r2 = classify_balls(2, 2, 2, v=2, xi=xi, e_p=1)
    assert r1.measure_interval().lower <= r2.measure_interval().lower
    assert r2.measure_interval().upper <= r1.measure_interval().upper


def test_local_density_modes():
    iv = local_density(2, 2, 2, depth=1)
    assert iv.method == "enumeration"
    assert 0 < iv.lower <= iv.upper <= 1
    tail = local_density(2, 3, 101, depth=1, budget=10**4)
    assert tail.method == "tail-bound"
    assert tail.lower >= 1 - Fraction(4) / 101**2
    # hyperplanes always have points: rho lower bound is 1 for d = 1
    ivh = local_density(1, 2, 3, depth=1)
    assert ivh.lower == 1


def test_fit_tail_constant_recorded():
    c = fit_tail_constant(2, 2, pmax=3)
    assert c >= 0
    # the recorded default covers the measured values
    from fanostat.localsolve import DEFAULT_TAIL_CONSTANT

    assert c <= DEFAULT_TAIL_CONSTANT


def test_fit_tail_constant_visits_primes_only():
    # 15 is not a prime: the fit up to 15 is the fit up to 13
    assert fit_tail_constant(2, 1, pmax=15) == fit_tail_constant(2, 1, pmax=13)


def test_count_projective_points():
    # smooth conic over F_3: p + 1 = 4 points
    f = mkform(2, 2, m_200=1, m_020=1, m_002=1)
    assert count_projective_points(f, 3) == 4
    # hyperplane over F_p: #P^(n-1)
    h = mkform(1, 2, m_100=1)
    for p in (3, 5, 7):
        assert count_projective_points(h, p) == p + 1
    # two lines meeting in a point over F_5: 2*6 - 1 = 11
    g = mkform(2, 2, m_110=1)  # X0 X1
    assert count_projective_points(g, 5) == 11


# --- the array residue search against scalar references ----------------------


def _scalar_canonical_residues(m, p, v):
    """The canonical residues mod p^v, pivot by pivot, built one tuple at a time."""
    mod = p**v
    out = []
    for pivot in range(m):
        for h in itertools.product(range(0, mod, p), repeat=pivot):
            for t in itertools.product(range(mod), repeat=m - pivot - 1):
                out.append(h + (1,) + t)
    return out


def _scalar_fibre(x, p, e, v):
    """Canonicalise every lift of x mod p^e to p^v."""
    return sorted(
        {
            canonical_residue(tuple(c + p**e * s for c, s in zip(x, t)), p, v)
            for t in itertools.product(range(p ** (v - e)), repeat=len(x))
        }
    )


@settings(max_examples=50)
@given(st.sampled_from([2, 3, 5]), st.integers(2, 4), st.integers(1, 3), st.data())
def test_residue_fibre_equals_canonicalised_lifts(p, m, v, data):
    if p ** (v * (m - 1)) <= 5**6:
        assert canonical_projective_residues(m, p, v) == _scalar_canonical_residues(m, p, v)
    if v == 1:
        return
    e = data.draw(st.integers(1, v - 1))
    if p ** ((v - e) * m) > 5**6:
        return
    x = data.draw(st.sampled_from(_scalar_canonical_residues(m, p, e)))
    assert _residue_fibre(x, p, e, v).tolist() == [list(c) for c in _scalar_fibre(x, p, e, v)]


def test_canonical_projective_residues_past_one_block():
    # 125^2 + 25 * 125 + 5^4 = 19375 residues, more than one block of rows
    reps = canonical_projective_residues(3, 5, 3)
    assert len(reps) == 19375 > localsolve._CHUNK
    assert reps == _scalar_canonical_residues(3, 5, 3)


def test_lexicographic_blocks_stream_the_points_of_projective_space():
    # P^6(F_5) has 19531 points: two blocks, the second cut inside a pivot
    blocks = list(localsolve._lexicographic_blocks(7, 5))
    assert [len(X) for X in blocks] == [localsolve._CHUNK, 19531 - localsolve._CHUNK]
    assert [tuple(x) for X in blocks for x in X.tolist()] == sorted(_scalar_canonical_residues(7, 5, 1))


@st.composite
def _small_forms(draw):
    d, n = draw(st.sampled_from([(1, 2), (2, 1), (2, 2), (2, 3), (3, 2)]))
    size = dimension(d, n)
    p = draw(st.sampled_from([2, 3, 5]))
    scale = draw(st.lists(st.integers(0, 2), min_size=size, max_size=size))
    coeffs = draw(st.lists(st.integers(-4, 4), min_size=size, max_size=size).filter(any))
    # powers of p on some coefficients keep residue zeros alive for several levels
    return make_form(d, n, [c * p**k for c, k in zip(coeffs, scale)], primitive=False), p


def _kernel_level(form, tables, mod):
    """The zeros of the form among the residues of the tables, sorted, each
    with whether it centres to an exact integer zero: the kernel of every
    level of the p-adic search."""
    _, Z, E = localsolve._start_zeros([form], tables, mod)
    return sorted(zip(map(tuple, Z.tolist()), E.tolist()))


def _scalar_level(form, residues, p, v):
    """`_kernel_level` one residue at a time, by evaluate_form."""
    return sorted(
        (x, evaluate_form(form, localsolve._centered(x, p, v)) == 0)
        for x in residues
        if evaluate_form(form, x) % p**v == 0
    )


@settings(max_examples=40)
@given(_small_forms())
def test_frontier_levels_match_a_scalar_filter(case):
    f, p = case
    n = f.basis.n
    level = _kernel_level(f, localsolve._residue_tables(f.basis, p), p)
    expected = _scalar_level(f, _scalar_canonical_residues(n + 1, p, 1), p, 1)
    for v in range(1, 4):
        assert level == expected
        if not expected or len(expected) * p**n > 1000:
            break
        mod = p ** (v + 1)
        frontier = [x for x, _ in expected]
        expected = _scalar_level(f, [c for x in frontier for c in _scalar_fibre(x, p, v, v + 1)], p, v + 1)
        tables = [localsolve._table(f.basis, _residue_fibre(x, p, v, v + 1), mod) for x in frontier]
        level = _kernel_level(f, tables, mod)


@settings(max_examples=40)
@given(_small_forms(), st.sampled_from([2, 3, 5, 7]))
def test_count_projective_points_matches_a_scalar_count(case, p):
    f, _ = case
    zeros = sum(
        1
        for x in itertools.product(range(p), repeat=f.basis.n + 1)
        if any(x) and evaluate_form(f, x) % p == 0
    )
    assert count_projective_points(f, p) == zeros // (p - 1)


def test_padic_search_checks_its_starting_residues_against_the_budget():
    # P^3(F_3) has 40 points, checked against the budget on their own; the 4
    # zeros mod 3 then cost 27 children each
    f = mkform(2, 3, m_2000=1, m_0200=1, m_0020=-3, m_0002=-3)
    assert decide_padic_batch([f], 3, node_budget=4 * 27)[0].certificate["depth"] == 2
    # the starting level is charged for every form, even one an exact zero
    # decides; a later level only for its own form
    g = mkform(2, 3, m_2000=1, m_0200=1, m_0020=-1, m_0002=-1)
    start = {"reason": "node budget", "nodes": 40}
    assert decide_padic_batch([f, g], 3, node_budget=39) == [TriState.unknown(start)] * 2
    (res,) = decide_padic_batch([f], 3, node_budget=4 * 27 - 1)
    assert res == TriState.unknown({"reason": "node budget", "nodes": 4 * 27})
    # a target's class is one starting residue, whatever p^n is
    xi = PadicApproxVector.from_integers(3, 1, (1, 0, 1, 0))
    assert decide_padic_batch([g], 3, xi, 1, node_budget=1)[0].verdict == "yes"
    # about 10^18 points of P^3(F_p) are refused before any is built
    big = mkform(2, 3, m_2000=1, m_0200=1, m_0020=1, m_0002=-1000003)
    (res,) = decide_padic_batch([big], 1000003)
    assert res.certificate == {"reason": "node budget", "nodes": (1000003**4 - 1) // 1000002}


# --- the batched p-adic decider against the per-form decider ------------------


def _per_form_decide(form, p, xi=None, e_p=0, depth_budget=3, node_budget=10**7):
    """The p-adic decider one form and one residue at a time: the starting
    residues and the fibres from the scalar enumerations, every zero and
    every exact-zero check by evaluate_form."""
    n = form.basis.n
    if e_p > 0 and xi is None:
        raise ValueError("a target residue is required when e_p >= 1")
    v = v0 = max(e_p, 1)
    start = 1 if e_p >= 1 else (p ** (n + 1) - 1) // (p - 1)
    if start > node_budget:
        return TriState.unknown({"reason": "node budget", "nodes": start})
    if p**v >= 2**63:
        return TriState.unknown({"reason": "int64 range", "modulus": p**v})
    if e_p >= 1:
        residues = [canonical_residue(xi.entries, xi.p, e_p)]
    else:
        residues = _scalar_canonical_residues(n + 1, p, 1)
    frontier = sorted(x for x in residues if evaluate_form(form, x) % p**v == 0)
    nodes = 0
    while True:
        if not frontier:
            return TriState.no({"depth": v, "reason": "no admissible residue zero"})
        for x in frontier:
            exact = localsolve._centered(x, p, v)
            if evaluate_form(form, exact) == 0:
                return TriState.yes(ExactZeroCertificate(p, exact, e_p))
            cert = localsolve._try_lift(form, x, p, v, e_p)
            if cert is not None:
                return TriState.yes(cert)
        if v >= max(depth_budget, v0):
            return TriState.unknown({"reason": "depth budget", "depth": v, "frontier": len(frontier)})
        if p ** (v + 1) >= 2**63:
            return TriState.unknown({"reason": "int64 range", "modulus": p ** (v + 1)})
        nodes += len(frontier) * p**n
        if nodes > node_budget:
            return TriState.unknown({"reason": "node budget", "nodes": nodes})
        mod = p ** (v + 1)
        lifts = [c for x in frontier for c in _scalar_fibre(x, p, v, v + 1)]
        frontier = sorted(c for c in lifts if evaluate_form(form, c) % mod == 0)
        v += 1


def _gradient_first_lift(form, x, p, v, e_p):
    """The reference for `_try_lift` on a residue zero x mod p^v: Hensel's
    hypotheses checked here, then the certificate (x, v, l*) with radius e_p
    built directly."""
    lstar = min(min(valuation(g % p**v, p), v) for g in gradient_form(form, x))
    if not (v > 2 * lstar) or v - lstar < e_p:
        return None
    return LiftCertificate(p, tuple(x), v, lstar, e_p)


def test_try_lift_computes_the_gradient_once(monkeypatch):
    # a refused residue costs one gradient and no value of f; a certificate
    # costs a second gradient and one value, in its re-verification
    calls, values = [], []

    def counted(form, x):
        calls.append(x)
        return gradient_form(form, x)

    def counted_value(form, x):
        values.append(x)
        return evaluate_form(form, x)

    monkeypatch.setattr(padic, "gradient_form", counted)
    monkeypatch.setattr(padic, "evaluate_form", counted_value)
    monkeypatch.setattr(localsolve, "gradient_form", counted, raising=False)
    rng = random.Random(11)
    outcomes = {"lifted": 0, "refused": 0}
    for _ in range(40):
        d, n = rng.choice([(2, 1), (2, 2), (3, 1), (3, 2)])
        p, v = rng.choice([(p, v) for p in (2, 3, 5) for v in (1, 2, 3) if p ** (v * n) <= 1000])
        e_p = rng.randint(0, v)
        coeffs = [rng.randint(-4, 4) for _ in range(dimension(d, n))]
        form = make_form(d, n, coeffs if any(coeffs) else [1] + coeffs[1:])
        for x in canonical_projective_residues(n + 1, p, v):
            if evaluate_form(form, x) % p**v:
                continue
            before = len(calls), len(values)
            cert = localsolve._try_lift(form, x, p, v, e_p)
            assert (len(calls), len(values)) == (before[0] + (2 if cert else 1), before[1] + bool(cert)), (form, x, p, v)
            assert cert == _gradient_first_lift(form, x, p, v, e_p), (form, x, p, v, e_p)
            outcomes["lifted" if cert else "refused"] += 1
    assert min(outcomes.values()) > 0, outcomes


def _outcome(result):
    """(verdict, repr(certificate))."""
    return result.verdict, repr(result.certificate)


@st.composite
def _padic_blocks(draw):
    d, n = draw(st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3)]))
    size = dimension(d, n)
    p = draw(st.sampled_from([2, 3, 5, 7]))
    forms = []
    for _ in range(draw(st.integers(1, 4))):
        scale = draw(st.lists(st.integers(0, 2), min_size=size, max_size=size))
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=size, max_size=size).filter(any))
        # powers of p on some coefficients keep residue zeros alive for several levels
        forms.append(make_form(d, n, [c * p**k for c, k in zip(coeffs, scale)], primitive=False))
    e_p = draw(st.integers(0, 2))
    entries = draw(
        st.lists(st.integers(0, p ** max(e_p, 1) - 1), min_size=n + 1, max_size=n + 1).filter(
            lambda x: any(c % p for c in x)
        )
    )
    xi = PadicApproxVector(p, max(e_p, 1), tuple(entries)) if e_p else None
    return forms, p, xi, e_p, draw(st.integers(1, 3)), draw(st.sampled_from([20, 300, 3000]))


# one block: a form whose search overruns the node budget past the first level,
# then forms decided by an exact zero and by a lift
_OVERRUN_BLOCK = (
    [
        mkform(2, 3, m_2000=1, m_0200=1, m_0020=-3, m_0002=-3),
        mkform(2, 3, m_2000=1, m_0200=1, m_0020=-1, m_0002=-1),
        mkform(2, 3, m_2000=1, m_0200=1, m_0020=1, m_0002=-3),
    ],
    3, None, 0, 3, 4 * 27 - 1,
)


@settings(derandomize=True, max_examples=60, deadline=None)
@example(_OVERRUN_BLOCK)
@given(_padic_blocks())
def test_decide_padic_batch_matches_the_per_form_oracle(case):
    forms, *args = case
    want = [_outcome(_per_form_decide(f, *args)) for f in forms]
    assert [_outcome(r) for r in decide_padic_batch(forms, *args)] == want
    # each form alone, as a one-form list
    assert [_outcome(decide_padic_batch([f], *args)[0]) for f in forms] == want


def test_decide_padic_batch_keeps_a_budget_overrun_to_its_form():
    forms, p, xi, e_p, depth, budget = _OVERRUN_BLOCK
    first, *rest = decide_padic_batch(forms, p, xi, e_p, depth, budget)
    assert first == TriState.unknown({"reason": "node budget", "nodes": 4 * 27})
    assert [r.verdict for r in rest] == ["yes", "yes"]
    assert [type(r.certificate) for r in rest] == [ExactZeroCertificate, LiftCertificate]
    (alone,) = decide_padic_batch(forms[:1], p, xi, e_p, depth, budget)
    assert alone == first


def test_every_padic_unknown_names_its_reason():
    # depth budget: X0^2 + X1^2 + X2^2 is anisotropic at 2, and its three
    # zeros mod 2 are neither exact zeros nor Hensel-liftable
    f = mkform(2, 2, m_200=1, m_020=1, m_002=1)
    (res,) = decide_padic_batch([f], 2, depth_budget=1)
    assert res == TriState.unknown({"reason": "depth budget", "depth": 1, "frontier": 3})
    # node budget at the starting level: the 10^18 points of P^3(F_1000003)
    big = mkform(2, 3, m_2000=1, m_0200=1, m_0020=1, m_0002=-1000003)
    (res,) = decide_padic_batch([big], 1000003)
    assert (res.verdict, res.certificate["reason"]) == ("unknown", "node budget")
    # node budget at a later level, for the overrunning form alone
    first, *rest = decide_padic_batch(*_OVERRUN_BLOCK)
    assert (first.verdict, first.certificate["reason"]) == ("unknown", "node budget")
    assert [r.verdict for r in rest] == ["yes", "yes"]
    # int64 range: residues mod p^3 at the Mersenne prime p = 2^31 - 1 pass
    # 2^63 at the start; mod p^2 they fit, and p^2 X0^2 + X1^2 keeps the
    # singular zero (1, 0) mod p^2 for the next level, which would pass it
    p = 2**31 - 1
    point = PadicApproxVector.from_integers(p, 3, (1, 0, 0, 0))
    (res,) = decide_padic_batch([big], p, point, 3)
    assert res == TriState.unknown({"reason": "int64 range", "modulus": p**3})
    g, point = make_form(2, 1, [p**2, 0, 1], primitive=False), PadicApproxVector.from_integers(p, 2, (1, 0))
    (res,) = decide_padic_batch([g], p, point, 2)
    assert res == TriState.unknown({"reason": "int64 range", "modulus": p**3})
    assert _outcome(res) == _outcome(_per_form_decide(g, p, point, 2))


def test_residue_tables_are_lexicographic_and_stream_in_blocks(monkeypatch):
    basis = monomial_basis(2, 3)
    (whole,) = localsolve._residue_tables(basis, 3)
    assert [tuple(x) for x in whole[0].tolist()] == sorted(canonical_projective_residues(4, 3, 1))
    forms = _OVERRUN_BLOCK[0]
    want = [_outcome(r) for r in decide_padic_batch(forms, 3)]
    counts = [count_projective_points(f, 3) for f in forms]
    # 40 points of P^3(F_3) in blocks of 16: one form per block, the table rebuilt block by block
    monkeypatch.setattr(localsolve, "_CHUNK", 16)
    blocks = list(localsolve._residue_tables(basis, 3))
    assert [len(X) for X, _, _ in blocks] == [16, 16, 8]
    for part, full in zip(zip(*blocks), whole):
        assert np.array_equal(np.concatenate(part), full)
    assert [_outcome(r) for r in decide_padic_batch(forms, 3)] == want
    assert [count_projective_points(f, 3) for f in forms] == counts


@pytest.mark.parametrize("d", [40, 41])
def test_decide_padic_centred_rows_never_wrap_int64(d):
    # 3^d x0^d - x1^d: its first zero mod 7 is (1, 3), an exact zero whose
    # monomial 3^d >= 2^63 int64 Veronese rows of the centred residues would wrap
    f = make_form(d, 1, [3**d] + [0] * (d - 1) + [-1], primitive=False)
    for xi, e_p in ((None, 0), (PadicApproxVector.from_integers(7, 1, (1, 3)), 1)):
        (res,) = decide_padic_batch([f], 7, xi, e_p)
        assert res.certificate == ExactZeroCertificate(7, (1, 3), e_p)
        assert _outcome(res) == _outcome(_per_form_decide(f, 7, xi, e_p))


def test_decide_padic_finds_an_exact_zero_below_the_first_level():
    # 10^42 x0^42 - x1^42 at p = 7: every unit is a zero mod 7 and mod 49
    # (phi(49) = 42) and no lift applies (7 | 42), so the first exact zero is
    # (1, 10), found at level 2; its monomial 10^42 is past 2^63
    f = make_form(42, 1, [10**42] + [0] * 41 + [-1], primitive=False)
    (res,) = decide_padic_batch([f], 7)
    assert res.certificate == ExactZeroCertificate(7, (1, 10), 0)
    assert _outcome(res) == _outcome(_per_form_decide(f, 7))
