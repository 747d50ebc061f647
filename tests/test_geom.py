import math
import random
from fractions import Fraction

import numpy as np
import pytest

from fanostat.geom import (
    Cone,
    band_volume,
    cap_volume,
    cone_intersection_params,
    cone_member,
    perp_cone_member,
    proj_distance_arch,
    projection_volume_bound,
    span_distance,
    span_distance_squared_exact,
    unit_ball_volume,
    wedge_norm,
)


def test_wedge_and_distance():
    assert proj_distance_arch((1, 0), (0, 1)) == 1.0
    assert proj_distance_arch((2, 3), (2, 3)) == 0.0
    assert proj_distance_arch((1, 1), (1, 0)) == pytest.approx(1 / math.sqrt(2))
    assert wedge_norm((1, 0, 0), (0, 2, 0)) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        proj_distance_arch((0, 0), (1, 0))


def test_distance_triangle_inequality():
    rng = random.Random(5)
    for _ in range(10**4):
        dim = rng.randint(2, 5)
        x, y, z = (
            [rng.gauss(0, 1) for _ in range(dim)] for _ in range(3)
        )
        if min(map(lambda v: sum(c * c for c in v), (x, y, z))) < 1e-12:
            continue
        dxz = proj_distance_arch(x, z)
        dxy = proj_distance_arch(x, y)
        dyz = proj_distance_arch(y, z)
        assert dxz <= dxy + dyz + 1e-12


def test_cone_membership():
    c = Cone((1, 0, 0), Fraction(1, 2))
    assert (0, 0, 0) in c
    assert (5, 0, 0) in c
    assert not cone_member(c, (0, 1, 0))
    everything = Cone((1, 2, 3), 1)
    assert cone_member(everything, (-7, 1, 0))
    # perp cone: orthogonal vectors always in, parallel out for sigma < 1
    assert perp_cone_member((1, 0), Fraction(1, 2), (0, 3))
    assert not perp_cone_member((1, 0), Fraction(1, 2), (1, 0))
    # exact boundary: sin(45 deg) membership at aperture 1/2 vs sqrt(1/2)
    assert not cone_member(Cone((1, 0), Fraction(1, 2)), (1, 1))
    c2 = Cone((1, 0), Fraction(1, 1))
    assert cone_member(c2, (1, 1))


def test_unit_ball_volumes():
    assert unit_ball_volume(1) == pytest.approx(2.0)
    assert unit_ball_volume(2) == pytest.approx(math.pi)
    assert unit_ball_volume(3) == pytest.approx(4 * math.pi / 3)
    assert unit_ball_volume(0) == 1.0


def test_band_volume_closed_cases():
    assert band_volume(2, 1.0) == pytest.approx(math.pi, abs=1e-9)
    # Monte-Carlo oracle for the half-aperture disk band
    rng = np.random.default_rng(42)
    pts = rng.uniform(-1, 1, size=(10**6, 2))
    inside = (pts**2).sum(axis=1) <= 1.0
    sigma = 1 / math.sqrt(2)
    band = np.abs(pts[:, 0]) <= sigma * np.sqrt((pts**2).sum(axis=1))
    est = 4.0 * (inside & band).mean()
    err = 4.0 * math.sqrt(est / 4 * (1 - est / 4) / 10**6)
    assert abs(band_volume(2, sigma) - math.pi / 2) < 1e-9
    assert abs(est - math.pi / 2) < 4 * err + 1e-3
    # small-sigma slope ~ 2 ((N-1)/N) V_{N-1} sigma for N = 3
    sigma = 1e-4
    slope = band_volume(3, sigma) / sigma
    assert slope == pytest.approx(2 * (2 / 3) * unit_ball_volume(2), rel=1e-4)


def test_cap_volume():
    assert cap_volume(2, 1.0) == pytest.approx(math.pi)
    assert cap_volume(2, 0.5) == pytest.approx(2 * math.asin(0.5), abs=1e-9)  # = pi/3
    # leading coefficient (2/N) V_{N-1}: cap(3, s)/s^2 -> 2pi/3
    for s in (1e-3, 1e-4):
        assert cap_volume(3, s) / s**2 == pytest.approx(2 * math.pi / 3, rel=1e-3)
    with pytest.raises(ValueError):
        cap_volume(2, 0.0)


def test_complement_identity_exact():
    for N in range(2, 7):
        for sigma in [0.1 * k for k in range(1, 10)]:
            total = cap_volume(N, sigma) + band_volume(N, math.sqrt(1 - sigma**2))
            assert abs(total - unit_ball_volume(N)) < 1e-9, (N, sigma)


def test_cap_small_sigma_shape():
    # cap(N, s) / s^(N-1) within exp(+-c s^2) of (2/N) V_{N-1}
    c = 2.0  # measured constant, recorded; the shape is what is asserted
    for N in (2, 3, 4):
        lead = (2 / N) * unit_ball_volume(N - 1)
        for s in (0.05, 0.1, 0.2, 0.3):
            ratio = cap_volume(N, s) / s ** (N - 1) / lead
            assert math.exp(-c * s * s) <= ratio <= math.exp(c * s * s), (N, s, ratio)


def test_projection_bound_formula():
    assert projection_volume_bound(4, 2, 0.5, 3.0, 0.0) == pytest.approx((0.5 * 3) ** 2)
    assert projection_volume_bound(4, 2, 1.0, 3.0, 0.7) == pytest.approx(1.7 * 9)


def test_projection_bound_vs_monte_carlo():
    # MC-measured projected volumes never exceed a fitted multiple of the bound
    rng = np.random.default_rng(7)
    fitted_c = 4.0
    for N in (3, 4):
        for sigma in (0.3, 0.6, 1.0):
            xi = np.zeros(N)
            xi[0] = 1.0
            nu = 2
            # project the cone ∩ ball onto the first nu coordinates and
            # bound the measure of the projection by counting a grid cover
            pts = rng.standard_normal((200000, N))
            pts /= np.linalg.norm(pts, axis=1, keepdims=True)
            r = rng.uniform(0, 1, 200000) ** (1 / N)
            pts *= r[:, None]
            wedge2 = (pts**2).sum(axis=1) - pts[:, 0] ** 2
            in_cone = wedge2 <= sigma**2 * (pts**2).sum(axis=1)
            proj = pts[in_cone][:, :nu]
            if len(proj) == 0:
                continue
            cell = 0.05
            cells = len(np.unique(np.floor(proj / cell).astype(np.int64), axis=0))
            measured = cells * cell**nu
            tau = 1.0  # xi lies in the projection subspace here
            assert measured <= fitted_c * projection_volume_bound(N, nu, sigma, 1.0, tau)


def test_cone_intersection_cases():
    # W = span(e0, e1) in R^3, axis e2: tau = 0 < 1 - sigma^2 -> trivial
    inter = cone_intersection_params((0, 0, 1), Fraction(1, 2), [(1, 0, 0), (0, 1, 0)])
    assert inter.kind == "trivial"
    # axis inside W: tau = 1, subcone aperture = sigma
    inter = cone_intersection_params((1, 1, 0), Fraction(1, 2), [(1, 0, 0), (0, 1, 0)])
    assert inter.kind == "subcone"
    assert inter.aperture_squared == Fraction(1, 4)
    assert inter.tau_squared == 1
    # sigma = 1, tau = 0: the whole subspace (aperture 1)
    inter = cone_intersection_params((0, 0, 1), 1, [(1, 0, 0), (0, 1, 0)])
    assert inter.kind == "subcone" and inter.aperture_squared == 1


def test_cone_intersection_boundary_exact():
    # choose sigma^2 + tau^2 = 1 exactly using rational data:
    # axis (3, 4): tau^2 onto e0-span = 9/25; sigma^2 = 16/25 -> aperture 0
    inter = cone_intersection_params((3, 4), Fraction(4, 5), [(1, 0)])
    assert inter.kind == "subcone"
    assert inter.aperture_squared == 0
    # slightly smaller sigma -> trivial
    inter2 = cone_intersection_params((3, 4), Fraction(79, 100), [(1, 0)])
    assert inter2.kind == "trivial"


def test_cone_intersection_samples_stay_inside():
    rng = np.random.default_rng(11)
    for _ in range(20):
        N = 4
        axis = rng.integers(-3, 4, N)
        if not axis.any():
            continue
        wdim = rng.integers(1, N)
        W = rng.integers(-2, 3, (wdim, N))
        if np.linalg.matrix_rank(W) < wdim:
            continue
        sigma = Fraction(rng.integers(1, 5), 5)
        inter = cone_intersection_params(tuple(axis), sigma, [tuple(r) for r in W])
        for _ in range(200):
            coeffs = rng.standard_normal(wdim)
            x = coeffs @ W
            in_big = cone_member(Cone(tuple(axis), sigma), tuple(x))
            if inter.kind == "trivial":
                if np.linalg.norm(x) > 1e-9:
                    assert not in_big
            elif in_big and inter.axis is not None:
                ap = float(inter.aperture) + 1e-9
                assert cone_member(Cone(inter.axis, ap), tuple(x))


def test_span_distance():
    assert span_distance([(1, 0)], (1, 0)) == pytest.approx(0.0)
    v = 1 / math.sqrt(2)
    assert span_distance([(1, 0)], (v, v)) == pytest.approx(v)
    assert span_distance([(1, 0)], (0, 1)) == pytest.approx(1.0)
    assert span_distance_squared_exact([(1, 0)], (1, 1)) == Fraction(1, 2)
