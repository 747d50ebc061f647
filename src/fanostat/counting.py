"""Exact constrained lattice-point counts and their predicted main terms.

The exact side enumerates lattice points under cone, ball, congruence and
primitivity constraints with integer arithmetic. The predicted side is the
main term

    sum over units:      V(c,q) phi(q)/q^r     * X^r / det
    primitive variant:   V(c,q) phi(q)/J_r(q)  * X^r / (zeta(r) det)

where V(c,q) is the volume of the coset-span ∩ cone ∩ unit ball. Because
the cone meets the span of the lattice in an exact subcone, that volume
reduces to a rotationally invariant cap volume, evaluated by quadrature;
a Monte-Carlo estimate over the same region is kept as a cross-check.

The reciprocal-norm sums weight each point by 1/|nu(x)| and converge to the
same shape with the cap volume replaced by the cone integral of 1/|nu|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import EnumerationBudgetExceeded
from .geom import Cone, cap_volume, cone_intersection_params, cone_member, unit_ball_volume
from .intlinalg import fincke_pohst, integer_ball, lll_reduce
from .lattice import IntegralLattice, solve_coset_representative, standard_lattice
from .numtheory import euler_phi, jordan_totient, unit_class_mask, unit_classes, zeta
from .veronese import monomial_basis, veronese_batch


@dataclass(frozen=True)
class CountSpec:
    """One constrained count: lattice ∩ (coset sum) ∩ cone ∩ ball."""

    lattice: IntegralLattice
    c: tuple
    q: int
    xi: tuple
    sigma: object
    X: object
    ambient_lattice: Optional[IntegralLattice] = None  # default Z^N
    primitive_in_ambient: bool = False
    sum_over_units: bool = True

    def __post_init__(self):
        if self.q < 1:
            raise ValueError("q must be >= 1")
        if not 0 < Fraction(self.sigma) <= 1:
            raise ValueError("sigma must lie in (0, 1]")
        if all(v == 0 for v in self.xi):
            raise ValueError("xi must be nonzero")

    @property
    def ambient(self) -> IntegralLattice:
        return self.ambient_lattice or standard_lattice(self.lattice.ambient)


@dataclass(frozen=True)
class Prediction:
    """A main-term value with the error bar inherited from its volume factor."""

    value: float
    err: float
    formula: str
    inputs: dict = field(default_factory=dict)

    def relative_gap(self, exact: float) -> float:
        return abs(exact / self.value - 1.0) if self.value else math.inf


def _is_standard(lat: IntegralLattice) -> bool:
    return lat.basis == standard_lattice(lat.ambient).basis


def count_lattice_points(spec: CountSpec, budget: int = 10**8) -> int:
    """Exact count for the spec; all membership tests in integer arithmetic."""
    N = spec.lattice.ambient
    X2 = Fraction(spec.X) ** 2
    sigma = Fraction(spec.sigma)
    ambient = spec.ambient
    if not _is_standard(ambient):
        raise NotImplementedError("coset counting over non-standard ambient lattices")
    if _is_standard(spec.lattice):
        pts = integer_ball(N, int(X2), include_zero=True)
        if len(pts) > budget:
            raise EnumerationBudgetExceeded("ball too large", len(pts))
        return _count_numpy(pts, spec, sigma)
    allowed = unit_classes(spec.c, spec.q)
    count = 0
    cone = Cone(tuple(spec.xi), sigma)
    for vec, _sq in fincke_pohst(
        lll_reduce(spec.lattice.basis), X2, budget=budget, include_zero=True, canonical_sign=False
    ):
        x = tuple(int(v) for v in vec)
        if spec.q > 1 and tuple(v % spec.q for v in x) not in allowed:
            continue
        if spec.primitive_in_ambient:
            g = math.gcd(*[abs(v) for v in x]) if any(x) else 0
            if g != 1:
                continue
        if not cone_member(cone, x):
            continue
        count += 1
    return count


def _cone_mask_exact(pts: np.ndarray, xi, sigma: Fraction) -> np.ndarray:
    """Exact vectorized cone test b^2(|x|^2|xi|^2 - <x,xi>^2) <= a^2|x|^2|xi|^2.

    Runs in int64 when the worst-case magnitudes provably fit, otherwise in
    Python big integers. A rational axis is scaled by its common denominator,
    which leaves the cone unchanged.
    """
    a, b = sigma.numerator, sigma.denominator
    axis = [Fraction(v) for v in xi]
    den = math.lcm(*(v.denominator for v in axis))
    xi_int = [int(v * den) for v in axis]
    nxi = sum(v * v for v in xi_int)
    worst = max(a * a, b * b) * int((np.abs(pts).max(initial=1)) ** 2) * pts.shape[1] * nxi
    if worst * pts.shape[1] < 2**62:
        nx = (pts * pts).sum(axis=1)
        ip = pts @ np.array(xi_int, dtype=np.int64)
        return b * b * (nx * nxi - ip * ip) <= a * a * nx * nxi
    po = pts.astype(object)
    nx = (po**2).sum(axis=1)
    ip = (po * np.array(xi_int, dtype=object)).sum(axis=1)
    return np.array(
        [bool(b * b * (n * nxi - p * p) <= a * a * n * nxi) for n, p in zip(nx, ip)],
        dtype=bool,
    )


def _count_numpy(pts: np.ndarray, spec: CountSpec, sigma: Fraction) -> int:
    keep = unit_class_mask(pts, spec.c, spec.q)
    if spec.primitive_in_ambient:
        keep &= np.gcd.reduce(np.abs(pts), axis=1) == 1
    pts = pts[keep]
    if len(pts) == 0:
        return 0
    return int(_cone_mask_exact(pts, spec.xi, sigma).sum())


# ---------------------------------------------------------------------------
# the volume factor


@dataclass(frozen=True)
class VolumeEstimate:
    value: float
    err: float
    method: str
    mc_value: Optional[float] = None
    mc_err: Optional[float] = None


def coset_cone_volume(
    lat: IntegralLattice,
    c,
    q: int,
    xi,
    sigma,
    mc_samples: int = 0,
    rng: Optional[np.random.Generator] = None,
) -> VolumeEstimate:
    """vol over span(lat) of span(lat ∩ (c + q Z^N)) ∩ C(xi, sigma) ∩ B(1).

    Zero when the coset is empty (the span convention) or the cone meets the
    span trivially; the ball volume when the subcone aperture is 1; otherwise
    the exact subcone reduction makes it a cap volume in dim rank, computed
    by quadrature. With mc_samples > 0 a stratified Monte-Carlo estimate over
    the same region is attached as an independent cross-check.
    """
    r = lat.rank
    if r == 0:
        return VolumeEstimate(0.0, 0.0, "rank-0")
    if solve_coset_representative(lat, tuple(int(v) % q for v in c), q) is None:
        return VolumeEstimate(0.0, 0.0, "empty-coset")
    inter = cone_intersection_params(tuple(xi), Fraction(sigma), list(lat.basis))
    if inter.kind == "trivial":
        return VolumeEstimate(0.0, 0.0, "trivial-intersection")
    if inter.aperture_squared == 1:
        value = unit_ball_volume(r)
        method = "full-ball"
    else:
        value = cap_volume(r, float(inter.aperture), tol=1e-12)
        method = "subcone-quadrature"
    mc_value = mc_err = None
    if mc_samples > 0:
        mc_value, mc_err = _mc_cone_volume(lat, xi, Fraction(sigma), mc_samples, rng)
    return VolumeEstimate(value, 1e-9, method, mc_value, mc_err)


def _mc_cone_volume(lat: IntegralLattice, xi, sigma: Fraction, samples: int, rng):
    """Stratified MC over the unit ball of span(lat): 64 radial strata."""
    rng = rng or np.random.default_rng(0)
    r = lat.rank
    B = np.array(lat.basis, dtype=float).T  # ambient x r
    Q, _ = np.linalg.qr(B)
    strata = 64
    per = max(samples // strata, 1)
    cone = Cone(tuple(float(v) for v in xi), float(sigma))
    hits = []
    for k in range(strata):
        u = rng.uniform(k / strata, (k + 1) / strata, per)
        radius = u ** (1.0 / r)
        dirs = rng.standard_normal((per, r))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        pts = (dirs * radius[:, None]) @ Q.T  # ambient coordinates
        hits.append(np.array([cone_member(cone, tuple(p)) for p in pts]))
    hits = np.concatenate(hits)
    phat = hits.mean()
    vol = unit_ball_volume(r)
    return float(phat * vol), float(vol * math.sqrt(max(phat * (1 - phat), 1e-12) / len(hits)))


def predicted_count(
    spec: CountSpec,
    volume: Optional[VolumeEstimate] = None,
    mc_samples: int = 0,
    rng=None,
) -> Prediction:
    """Main term for count_lattice_points.

    Sum over units:  V phi(q)/q^r X^r/det;
    primitive:       V phi(q)/J_r(q) X^r/(zeta(r) det), requiring r >= 2.
    """
    r = spec.lattice.rank
    if spec.primitive_in_ambient and r < 2:
        raise ValueError("the primitive main term needs rank >= 2")
    if volume is None:
        volume = coset_cone_volume(
            spec.lattice, spec.c, spec.q, spec.xi, spec.sigma, mc_samples, rng
        )
    X = float(Fraction(spec.X))
    det = spec.lattice.det()
    q = spec.q
    if spec.primitive_in_ambient:
        factor = euler_phi(q) / jordan_totient(r, q) * X**r / (zeta(r) * det)
        formula = "V(c,q) phi(q)/J_r(q) X^r/(zeta(r) det)"
    else:
        factor = euler_phi(q) / q**r * X**r / det
        formula = "V(c,q) phi(q)/q^r X^r/det"
    return Prediction(
        volume.value * factor,
        volume.err * factor,
        formula,
        {
            "volume": volume,
            "phi_q": euler_phi(q),
            "J_r_q": jordan_totient(r, q) if spec.primitive_in_ambient else None,
            "det": det,
            "X": X,
            "rank": r,
        },
    )


# ---------------------------------------------------------------------------
# reciprocal Veronese-norm sums


def veronese_reciprocal_sum(d: int, n: int, c, q: int, xi, sigma, X, budget: int = 10**8) -> float:
    """Exact-weighted sum of 1/|nu(x)| over primitive x within the constraints.

    Each term is 1/sqrt of the exact integer |nu(x)|^2; summation is
    compensated. Points are counted with both signs (the underlying set is a
    union of lattice cosets, not a projective set).
    """
    if not n >= d >= 2:
        raise ValueError("need n >= d >= 2")
    X2 = int(Fraction(X) ** 2)
    if X2 < 1:
        return 0.0
    pts = integer_ball(n + 1, X2, include_zero=False)
    if len(pts) > budget:
        raise EnumerationBudgetExceeded("ball too large", len(pts))
    pts = pts[(np.gcd.reduce(np.abs(pts), axis=1) == 1) & unit_class_mask(pts, c, q)]
    if len(pts) == 0:
        return 0.0
    pts = pts[_cone_mask_exact(pts, xi, Fraction(sigma))]
    if len(pts) == 0:
        return 0.0
    basis = monomial_basis(d, n)
    # |nu(x)|^2 stays exact: int64 when the top monomial provably fits
    if int(np.abs(pts).max()) ** (2 * d) * basis.size < 2**62:
        nu2 = (veronese_batch(basis, pts) ** 2).sum(axis=1)
    else:
        nu2 = (veronese_batch(basis, pts.astype(object)) ** 2).sum(axis=1)
    return math.fsum(1.0 / math.sqrt(float(v)) for v in nu2)


def veronese_reciprocal_volume(
    d: int,
    n: int,
    xi,
    sigma,
    mc_samples: int = 200000,
    rng: Optional[np.random.Generator] = None,
) -> VolumeEstimate:
    """The cone integral of 1/|nu(x)| over C(xi, sigma) ∩ B(1), by MC.

    The radial part integrates exactly (the integrand is (-d)-homogeneous and
    integrable since d < n+1), leaving a spherical average over the cap:
    value = Area(S^n)/(n+1-d) * E[1_cap(w) / |nu(w)|].
    """
    if not n >= d >= 2:
        raise ValueError("need n >= d >= 2")
    rng = rng or np.random.default_rng(0)
    m = n + 1
    dirs = rng.standard_normal((mc_samples, m))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    xi_f = np.array([float(v) for v in xi], dtype=float)
    xi_f /= np.linalg.norm(xi_f)
    s = float(Fraction(sigma))
    ips = dirs @ xi_f
    in_cap = 1.0 - ips**2 <= s * s * (1 + 1e-15)
    basis = monomial_basis(d, n)
    nu = veronese_batch(basis, dirs)
    nu_norm = np.sqrt((nu**2).sum(axis=1))
    values = np.where(in_cap, 1.0 / nu_norm, 0.0)
    area = m * unit_ball_volume(m)
    scale = area / (m - d)
    mean = values.mean()
    stderr = values.std(ddof=1) / math.sqrt(mc_samples)
    return VolumeEstimate(scale * mean, scale * stderr, "monte-carlo-spherical")


def predicted_reciprocal_sum(
    d: int,
    n: int,
    c,
    q: int,
    xi,
    sigma,
    X,
    volume: Optional[VolumeEstimate] = None,
    mc_samples: int = 200000,
    rng=None,
) -> Prediction:
    """Main term W phi(q)/J_{n+1}(q) X^(n+1-d)/zeta(n+1)."""
    if volume is None:
        volume = veronese_reciprocal_volume(d, n, xi, sigma, mc_samples, rng)
    X = float(Fraction(X))
    factor = euler_phi(q) / jordan_totient(n + 1, q) * X ** (n + 1 - d) / zeta(n + 1)
    return Prediction(
        volume.value * factor,
        volume.err * factor,
        "W phi(q)/J_{n+1}(q) X^(n+1-d)/zeta(n+1)",
        {"volume": volume, "phi_q": euler_phi(q), "J": jordan_totient(n + 1, q), "X": X},
    )


def trend_improves(ratios, need: int | None = None) -> bool:
    """|ratio - 1| shrinks in at least `need` doubling steps (default: all
    but tolerating nothing on a 3-point grid means both steps improve)."""
    gaps = [abs(r - 1.0) for r in ratios]
    steps = len(gaps) - 1
    if need is None:
        need = min(2, steps)
    improvements = sum(1 for a, b in zip(gaps, gaps[1:]) if b <= a)
    return improvements >= need
