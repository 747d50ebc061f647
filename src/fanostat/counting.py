"""Reciprocal Veronese-norm sums and their predicted main term.

The exact side sums 1/|nu(x)| over primitive integer points x of a ball
under cone and congruence constraints; points are filtered exactly
(`numtheory.unit_class_mask`, `geom.cone_member`) and |nu(x)|^2 stays an
exact integer. The predicted side is the main term

    W phi(q)/J_{n+1}(q) X^(n+1-d)/zeta(n+1),

where the volume factor W is the cone integral of 1/|nu| over the unit
ball, estimated by Monte Carlo from Gaussian draws in row blocks, never
normalised (h_d is homogeneous); `census.predicted_first_moment` scales this
main term. `Prediction` and `VolumeEstimate` carry a value with its error bar.
The estimate keeps only running moments, each block's sum and squared
deviations merged into the totals (Chan, Golub and LeVeque 1983), so its
memory is O(_CHUNK (n+1)) whatever the sample count; at sigma = 1 every
direction is in the cap and the cap test is skipped.

Both sides need only |nu(x)|^2, never nu(x) itself. The Veronese basis is
the plain monomials, so |nu(x)|^2 = sum_{|e|=d} prod x_i^(2 e_i) =
h_d(x_0^2, ..., x_n^2), the complete homogeneous symmetric polynomial of
degree d, which `_complete_homogeneous` evaluates from the d power sums of
the squares by Newton's identities; no N-wide array of Veronese rows is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .geom import cone_member, unit_ball_volume
from .intlinalg import integer_ball
from .localsolve import _CHUNK
from .numtheory import euler_phi, jordan_totient, unit_class_mask, zeta
from .veronese import _exact_points, dimension


@dataclass(frozen=True)
class Prediction:
    """A main-term value with the error bar inherited from its volume factor."""

    value: float
    err: float
    formula: str
    inputs: dict = field(default_factory=dict)


def _complete_homogeneous(d: int, y: np.ndarray) -> np.ndarray:
    """h_d(y) of each row y of a nonnegative array, from its power sums.

    With p_i = sum_j y_j^i, one matrix-vector product for each i <= d,
    Newton's identities give k h_k = sum_{i=1..k} p_i h_{k-i} with the scalar
    h_0 = 1: every term is nonnegative, so float rows lose nothing to
    cancellation, and on integer rows the division by k is exact.
    """
    ones = np.ones(y.shape[1], dtype=y.dtype)
    power = y * y
    p = [y @ ones, power @ ones]
    for _ in range(2, d):
        power *= y
        p.append(power @ ones)
    h = [1, p[0]]
    for k in range(2, d + 1):
        total = p[k - 1] + sum(p[i - 1] * h[k - i] for i in range(1, k))
        h.append(total / k if y.dtype.kind == "f" else total // k)
    return h[d]


def _veronese_norm_squared(d: int, pts: np.ndarray) -> np.ndarray:
    """|nu(x)|^2 = h_d(x_0^2, ..., x_n^2) for each row x of pts
    (`_complete_homogeneous`, the package's one h_d).

    Integer points stay exact: int64 when d N max|x|^(2d) fits, a bound on
    every power sum, product and partial sum k h_k (k <= d) of Newton's
    identities; else Python integers. Float points give floats.
    """
    pts = _exact_points(pts, 2 * d, d * dimension(d, pts.shape[1] - 1))
    return _complete_homogeneous(d, pts * pts)


@dataclass(frozen=True)
class VolumeEstimate:
    value: float
    err: float
    method: str


def veronese_reciprocal_sum(d: int, n: int, c, q: int, xi, sigma, X) -> float:
    """Exact-weighted sum of 1/|nu(x)| over primitive x within the constraints.

    Each term is 1/sqrt of the exact integer |nu(x)|^2; summation is
    compensated. Points are counted with both signs (the underlying set is a
    union of lattice cosets, not a projective set): x and -x pass the same
    filters and have the same term, so the sum runs over one row per +- pair
    (`integer_ball`) and is doubled, which is exact, since `math.fsum` rounds
    correctly.
    """
    if not n >= d >= 2:
        raise ValueError("need n >= d >= 2")
    pts = integer_ball(n + 1, Fraction(X) ** 2)
    pts = pts[unit_class_mask(pts, c, q) & cone_member(xi, sigma, pts)]
    return 2 * math.fsum(1.0 / math.sqrt(float(v)) for v in _veronese_norm_squared(d, pts))


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
    |nu(w)|^2 is h_d(w_0^2, ..., w_n^2) (`_complete_homogeneous`), so each
    sample costs O(d(n+1) + d^2) multiply-adds and no (samples, N) Veronese
    matrix is built: at (d, n) = (3, 5), N = 56, that matrix alone would be
    90 MB.

    The Gaussian samples g are drawn _CHUNK rows at a time into one reused
    block, the same values and generator state as one (mc_samples, n+1)
    draw, and never normalised: h_d is homogeneous of degree d, so with
    r^2 = |g|^2, 1/|nu(g/|g|)| = sqrt(r^(2d) / h_d(g^2)), and g/|g| is in the
    cap iff r^2 - <g, xi>^2 <= sigma^2 r^2 (xi a unit); at sigma = 1 that
    holds for every g and is not tested. No per-sample array outlives its
    block: each block's sum and sum of squared deviations from its own mean
    are merged into running totals by the pairwise update of Chan, Golub and
    LeVeque ("Algorithms for computing the sample variance", The American
    Statistician, 1983), so memory is O(_CHUNK (n+1)) whatever mc_samples is.
    """
    if not n >= d >= 2:
        raise ValueError("need n >= d >= 2")
    if not 0 <= Fraction(sigma) <= 1:
        raise ValueError("aperture must lie in [0, 1]")
    rng = rng or np.random.default_rng(0)
    m = n + 1
    xi_f = np.array([float(v) for v in xi], dtype=float)
    if mc_samples < 2 or not xi_f.any():
        raise ValueError("need mc_samples >= 2 (the error bar) and a nonzero cap axis xi")
    xi_f /= np.linalg.norm(xi_f)
    s = float(Fraction(sigma))
    ones = np.ones(m)
    block = np.empty((min(_CHUNK, mc_samples), m))
    total, deviations = 0.0, 0.0
    for lo in range(0, mc_samples, _CHUNK):
        g = block[: min(_CHUNK, mc_samples - lo)]
        rng.standard_normal(out=g)
        axial2 = (g @ xi_f) ** 2 if s < 1 else None
        y = np.multiply(g, g, out=g)  # the squares replace the draws
        r2 = y @ ones
        values = r2**d
        values /= _complete_homogeneous(d, y)
        np.sqrt(values, out=values)
        if s < 1:
            values[r2 - axial2 > s * s * (1 + 1e-15) * r2] = 0.0
        # merge the block's sum and squared deviations into those of the lo
        # samples before it (Chan, Golub and LeVeque 1983)
        k = len(values)
        block_sum = values.sum()
        values -= block_sum / k
        deviations += values @ values
        if lo:
            delta = block_sum / k - total / lo
            deviations += delta * delta * lo * k / (lo + k)
        total += block_sum
    scale = m * unit_ball_volume(m) / (m - d)
    stderr = math.sqrt(deviations / (mc_samples - 1)) / math.sqrt(mc_samples)
    return VolumeEstimate(scale * total / mc_samples, scale * stderr, "monte-carlo-spherical")


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
