"""Family statistics over hypersurfaces of bounded coefficient height.

Two headline computations, each with an exact side and a predicted side:

1. the first moment: the total number of bounded-height rational points
   near an adelic target, summed over all hypersurfaces of height <= A,
   computed both directly (loop over forms, count points) and dually (loop
   over points, count forms through the point by the theta series of the
   hyperplane lattice nu(x)^perp): the two must agree exactly. The dual
   count c(x) of forms through x depends only on the signed-permutation
   class of x (its sorted absolute values): a signed permutation g of the
   variables acts on coefficient vectors as a signed permutation, which
   keeps |a|, primitivity and the +- pair, and f_a(gx) = f_{g.a}(x). So the
   dual strategy counts one point per class, weighted by the number of
   candidate points in the class. Both strategies take the same candidate
   points, filtered by the target in one `localsolve.target_mask`;

2. the local census: the number M(A, P) of coefficient vectors admitting
   local points near the target at every place up to P, the correction
   E(A, P) of those failing at some larger prime, and the identity
   #soluble-hypersurfaces = (M - E)/2, against the product-of-densities
   prediction. A form with a rational point near the target (a primitive
   integer zero x with x ≡ u c mod q in the real cap, `target_mask`) is
   soluble near the target at every place at once, so the census looks for
   such points first, on the int64 coefficient rows of the whole family,
   and builds `Form`s only for the forms where it finds none, which go to
   the local deciders. In a cap, quadrics are first tried for an exact
   S-lemma certificate against `geom.cap_matrix`.

Solubility verdicts are tri-state; counts touched by unknown verdicts are
reported as intervals, never silently resolved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

import numpy as np

from .counting import Prediction, VolumeEstimate, veronese_reciprocal_volume
from .errors import EnumerationBudgetExceeded
from .geom import cap_matrix, unit_ball_volume
from .intlinalg import bareiss_det, integer_ball
from .lattice import primitive_orthogonal_count
from .localsolve import (
    _CELLS,
    _CHUNK,
    DEFAULT_TAIL_CONSTANT,
    _cap_grid,
    _residue_tables,
    AdelicTarget,
    DensityInterval,
    TriState,
    decide_padic_batch,
    decide_real_batch,
    local_density,
    target_mask,
)
from .numtheory import euler_phi, factorize, jordan_totient, primes_up_to, zeta
from .veronese import (
    Form,
    coefficient_matrix,
    dimension,
    height_bound_norm2,
    make_form,
    monomial_basis,
    pairings,
    veronese,
    veronese_batch,
)


def height_threshold_exponent(n: int, d: int) -> Fraction:
    """theta(n, d) = (n^2 - 1)/((2n-1)(n+1-d) - d); <= 1 iff n >= 2d - 1."""
    den = (2 * n - 1) * (n + 1 - d) - d
    if den <= 0:
        raise ValueError("exponent undefined for this (n, d)")
    return Fraction(n * n - 1, den)


# ---------------------------------------------------------------------------
# enumerating the family


def _coefficient_rows(d: int, n: int, A) -> np.ndarray:
    """One primitive coefficient vector per hypersurface of height <= A
    (first nonzero entry positive): the rows of `integer_ball`."""
    return integer_ball(dimension(d, n), Fraction(A) ** 2)


def _forms(basis, rows: np.ndarray) -> list:
    """A `Form` on `basis` for each coefficient row."""
    return [Form(basis, tuple(row)) for row in rows.tolist()]


def enumerate_hypersurfaces(d: int, n: int, A):
    """A `Form` per hypersurface of height <= A, on its primitive coefficient
    vector with first nonzero entry positive, in lexicographic order."""
    return _forms(monomial_basis(d, n), _coefficient_rows(d, n, A))


# ---------------------------------------------------------------------------
# N_V and the first moment


def _candidate_points(d: int, n: int, B, target: AdelicTarget):
    """The primitive x with H(x) <= B, one per +- pair (first nonzero entry
    positive), that meet the target (`target_mask`)."""
    pts = integer_ball(n + 1, height_bound_norm2(d, n, B))
    return pts[target_mask(target, pts)]


def count_rational_points(form: Form, B, target: AdelicTarget) -> int:
    """N_V: rational points up to sign with height <= B near the target."""
    pts = _candidate_points(form.basis.d, form.basis.n, B, target)
    if len(pts) == 0:
        return 0
    NU = veronese_batch(form.basis, pts)
    return _zero_pairings(coefficient_matrix([form]), NU)


def first_moment_direct(d: int, n: int, A, B, target: AdelicTarget) -> int:
    """Strategy 1: pair every coefficient vector with every point, count zeros.

    The coefficient rows of the primitive ball meet the Veronese rows of the
    candidate points in exact products of at most _CHUNK coefficient rows
    each. It uses no symmetry on purpose: it is the independent oracle that
    `first_moment` checks the class-weighted dual count against.
    """
    coeffs = _coefficient_rows(d, n, A)
    pts = _candidate_points(d, n, B, target)
    if len(pts) == 0 or len(coeffs) == 0:
        return 0
    NU = veronese_batch(monomial_basis(d, n), pts)
    return _zero_pairings(coeffs, NU)


def _zero_pairings(Amat: np.ndarray, NU: np.ndarray) -> int:
    """Number of zero entries of Amat @ NU.T, exactly, _CHUNK rows of Amat
    per product."""
    return sum(int((pairings(Amat[lo : lo + _CHUNK], NU) == 0).sum()) for lo in range(0, len(Amat), _CHUNK))


def first_moment_dual(d: int, n: int, A, B, target: AdelicTarget, budget: int = 10**8) -> int:
    """Strategy 2: loop over points, count coefficient vectors through them.

    A point x lies on the hypersurface of a exactly when <a, nu(x)> = 0, so
    the forms with |a| <= A through x are the primitive vectors up to sign
    of the hyperplane lattice nu(x)^perp in the ball, counted exactly by its
    theta series (`primitive_orthogonal_count`; `budget` bounds its table).

    That count c(x) is the same for every point of a signed-permutation
    class (see the module docstring), so it is computed once per class, at
    the class's first candidate point, and weighted by the class size. The
    target only filters points, never forms: the class sizes count the
    candidate points that passed the target, so any target works.
    """
    pts = _candidate_points(d, n, B, target)
    if len(pts) == 0:
        return 0
    _, first, sizes = np.unique(np.sort(np.abs(pts), axis=1), axis=0, return_index=True, return_counts=True)
    basis = monomial_basis(d, n)
    K = math.floor(Fraction(A) ** 2)
    return sum(
        primitive_orthogonal_count(veronese(basis, tuple(int(v) for v in row)), K, budget) * int(size)
        for row, size in zip(pts[first], sizes)
    )


def first_moment(d: int, n: int, A, B, target: AdelicTarget, budget: int = 10**8):
    """Both strategies; raises if they disagree (they cannot, exactness is
    the point), returns the common value. `budget` bounds the theta table
    of the dual count."""
    direct = first_moment_direct(d, n, A, B, target)
    dual = first_moment_dual(d, n, A, B, target, budget)
    if direct != dual:
        raise AssertionError(f"first-moment strategies disagree: {direct} vs {dual}")
    return direct


def predicted_first_moment(
    d: int,
    n: int,
    A,
    B,
    target: AdelicTarget,
    volume: Optional[VolumeEstimate] = None,
    mc_samples: int = 200000,
    rng=None,
):
    """Main term C A^(N-1) B with
    C = V_{N-1}/(4 zeta(N-1)) * W(xi, sigma) * phi(q)/(J_{n+1}(q) zeta(n+1)),
    for the both-signs coefficient count; our form/point normalization
    (one per +- pair on both sides) absorbs the 1/4.
    """
    if not (n >= d >= 2) or (n, d) == (2, 2):
        raise ValueError("main term needs n >= d >= 2 and (n, d) != (2, 2)")
    N = dimension(d, n)
    q = target.q
    if volume is None:
        volume = veronese_reciprocal_volume(d, n, target.xi_inf, target.sigma_inf, mc_samples, rng)
    coeff = (
        unit_ball_volume(N - 1)
        / (4 * zeta(N - 1))
        * volume.value
        * euler_phi(q)
        / (jordan_totient(n + 1, q) * zeta(n + 1))
    )
    err = coeff / volume.value * volume.err if volume.value else 0.0
    Af, Bf = float(Fraction(A)), float(Fraction(B))
    sigma = float(Fraction(target.sigma_inf))
    magnitude_scale = sigma**n * euler_phi(q) / jordan_totient(n + 1, q)
    # the coefficient's 1/4 cancels the two +- symmetries, so coeff A^{N-1} B
    # directly predicts the canonical-pairs count computed by first_moment
    return Prediction(
        coeff * Af ** (N - 1) * Bf,
        err * Af ** (N - 1) * Bf,
        "V_{N-1}/(4 zeta(N-1)) W phi(q)/(J_{n+1}(q) zeta(n+1)) A^{N-1} B",
        {
            "coefficient": coeff,
            "coefficient_over_magnitude_scale": coeff / magnitude_scale,
            "volume": volume,
            "N": N,
            "q": q,
        },
    )


# ---------------------------------------------------------------------------
# quadric fast paths (exact, d = 2 only)


def quadric_matrix(form: Form):
    """2M for f = x^T M x: integer symmetric matrix."""
    if form.basis.d != 2:
        raise ValueError("quadric helpers need d = 2")
    m = form.basis.n + 1
    mat = [[0] * m for _ in range(m)]
    for a, (i, j) in zip(form.coeffs, _quadric_pairs(form.basis)):
        if i == j:
            mat[i][i] = 2 * a
        else:
            mat[i][j] += a
            mat[j][i] += a
    return mat


@lru_cache(maxsize=None)
def _quadric_pairs(basis) -> tuple:
    """The variables (i, j), i <= j, of each monomial X_i X_j of a quadric basis."""
    pairs = []
    for exps in basis.monomials:
        idx = [i for i, e in enumerate(exps) for _ in range(e)]
        pairs.append((idx[0], idx[1]))
    return tuple(pairs)


def _is_positive_definite(mat) -> bool:
    """Sylvester's criterion in one Bareiss elimination without pivoting:
    its k-th pivot is the k-th leading principal minor of the integer `mat`."""
    a, prev = [list(map(int, row)) for row in mat], 1
    for k, top in enumerate(a):
        if top[k] <= 0:
            return False
        for row in a[k + 1 :]:
            row[k + 1 :] = [(v * top[k] - row[k] * t) // prev for v, t in zip(row[k + 1 :], top[k + 1 :])]
        prev = top[k]
    return True


def quadric_real_soluble(form: Form) -> bool:
    """Exact: a real quadric has points iff its matrix is not definite."""
    return _indefinite(quadric_matrix(form))


def _indefinite(mat) -> bool:
    neg = [[-v for v in row] for row in mat]
    return not (_is_positive_definite(mat) or _is_positive_definite(neg))


def _s_lemma_holds(mat, cap, sign: int, tau) -> bool:
    """Exact check of an S-lemma certificate (sign, tau) for the quadric
    with matrix 2M = `mat` on the cap {G >= 0}, G = Gn/g (`cap`, from
    `geom.cap_matrix`): tau >= 0 and sign * 2M - tau G positive definite, by
    Sylvester's criterion on its integer multiple by g * den(tau)
    (`_is_positive_definite`). Then for x != 0 with G(x) >= 0,
    sign * 2 f(x) > tau G(x) >= 0, so f has no zero in the cap."""
    Gn, g = cap
    tau = Fraction(tau)
    if sign not in (1, -1) or tau < 0:
        return False
    scale = sign * g * tau.denominator
    return _is_positive_definite(
        [[scale * q - tau.numerator * v for q, v in zip(qrow, grow)] for qrow, grow in zip(mat, Gn)]
    )


def _s_lemma_certificates(mats, xi, sigma) -> list:
    """For each quadric matrix 2M, a certificate {"kind": "s-lemma",
    "sign": s, "tau": tau} that the quadric has the sign s on the whole cap
    {d(x, xi) <= sigma}, sigma < 1, or None where none was found.

    The cap is {G >= 0} (`geom.cap_matrix`) and G(xi) > 0, so by the strict
    S-lemma (Yakubovich; Polik and Terlaky, "A survey of the S-lemma", SIAM
    Review 2007) a quadric without a zero in the cap has some s = +-1 and
    tau >= 0 with s 2M - tau G positive definite. At x = xi that needs
    s xi^T 2M xi > tau G(xi) >= 0, which fixes s and bounds tau below
    top = |xi^T 2M xi| / G(xi). The least eigenvalue of s 2M - tau G is
    concave in tau, so the tau that work form an open interval whose ends in
    (0, top) are roots of det(s 2M - tau G), eigenvalues of G^-1 s 2M (G has
    the eigenvalues sigma^2 |xi|^2 and -(1 - sigma^2) |xi|^2). It holds the
    midpoint of two consecutive cut points of 0, top and the real parts of
    the roots clipped to [0, top]: one batched `eigvals` finds the roots, one
    batched `eigvalsh` the least eigenvalue at every midpoint, and the best,
    lam > 0 at tau, is the candidate. Since |G|_2 <= |xi|^2, rounding tau to
    a dyadic with denominator 2^k >= |xi|^2/lam moves the least eigenvalue
    by at most lam/2. The verdict rests only on the exact check
    `_s_lemma_holds`.
    """
    cap = cap_matrix(xi, sigma)
    m, Gf = len(cap[0]), np.array(cap[0], dtype=float) / cap[1]
    xi_f = np.array([float(c) for c in xi])
    norm2 = sum(Fraction(c) ** 2 for c in xi)
    Q = np.array(mats, dtype=float).reshape(-1, m, m)
    at_xi = np.einsum("i,kij,j->k", xi_f, Q, xi_f)
    sign = np.where(at_xi < 0, -1, 1)
    S = sign[:, None, None] * Q
    top = np.abs(at_xi) / float(Fraction(sigma) ** 2 * norm2**2)
    roots = np.linalg.eigvals(np.linalg.solve(Gf, S)).real
    cuts = np.sort(np.column_stack([np.zeros_like(top), top, np.clip(roots, 0, top[:, None])]), axis=1)
    mids = (cuts[:, :-1] + cuts[:, 1:]) / 2
    least = np.linalg.eigvalsh(S[:, None] - mids[:, :, None, None] * Gf)[..., 0]
    best = least.argmax(axis=1)[:, None]
    tau, lam = np.take_along_axis(mids, best, 1)[:, 0], np.take_along_axis(least, best, 1)[:, 0]
    out = []
    for mat, s, t, value in zip(mats, sign.tolist(), tau.tolist(), lam.tolist()):
        cert = None
        if value > 0:
            den = 1 << max(0, math.frexp(float(norm2) / value)[1])  # den >= |xi|^2/lam
            rounded = Fraction(round(Fraction(t) * den), den)
            if _s_lemma_holds(mat, cap, s, rounded):
                cert = {"kind": "s-lemma", "sign": s, "tau": rounded}
        out.append(cert)
    return out


def quadric_bad_primes(form: Form) -> list:
    """Finite places where plain Q_p-solubility can fail, certified."""
    return _bad_primes(quadric_matrix(form))


def _bad_primes(mat) -> list:
    """quadric_bad_primes from the quadric's matrix 2M.

    Degenerate quadrics vanish on their rational kernel, so they are soluble
    everywhere. Nondegenerate quadrics in >= 3 variables are soluble at every
    odd p not dividing det(2M): the reduction is nondegenerate, has a point
    by Chevalley-Warning, the point is smooth, and it lifts.
    """
    if len(mat) < 3:
        raise ValueError("certified bad-prime sets need >= 3 variables")
    det = bareiss_det(mat)
    if det == 0:
        return []
    bad = sorted({2} | {p for p, _ in factorize(abs(det)) if p != 2})
    return bad


# ---------------------------------------------------------------------------
# local census


@dataclass
class CensusReport:
    params: dict
    m_interval: tuple  # (lower, upper) for M(A, P)
    e_interval: tuple  # (lower, upper) for E(A, P)
    vloc_interval: tuple  # (M - E)/2 interval
    direct_vloc_interval: Optional[tuple]
    per_place: dict  # p -> {"yes": int, "no": int, "unknown": int}
    arch_tally: dict
    arch_kinds: dict  # verdict -> {certificate kind, or reason of an unknown: forms}
    point_decided: int  # forms decided by a rational point near the target
    unresolved: int
    total_forms: int
    all_resolved: bool


def _target_grid(basis, target: AdelicTarget):
    """The points of the real decider's cap grid (`localsolve._cap_grid`),
    made primitive, that meet the target (`target_mask`), and their Veronese
    rows (a multiple of a point has the same zeros)."""
    points, _, _, V = _cap_grid(basis, tuple(target.xi_inf), Fraction(target.sigma_inf))
    X = np.array(points, dtype=np.int64).reshape(-1, basis.n + 1)
    X //= np.gcd.reduce(np.abs(X), axis=1, keepdims=True)
    keep = target_mask(target, X)
    return X[keep], V[keep]


# grid rows every coefficient row meets before the rest of the grid: with the
# trivial target, 99% of the forms with a grid point have one among the first
# 21 at (d, n, A) = (2, 3, 2) and among the first 5 at (3, 3, 2) and (3, 5, 3/2)
_HEAD = 32


def _point_hits(coeffs: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """For each coefficient row, whether it vanishes at some Veronese row of
    `grid`, exactly. Staged: every row meets the first _HEAD grid rows, and
    only the rows with no zero there meet the rest. Rows go in blocks of at
    most _CELLS grid pairs, which bounds the products held at once."""
    hits = np.zeros(len(coeffs), dtype=bool)
    step = max(1, _CELLS // max(len(grid), 1))
    for lo in range(0, len(coeffs), step):
        block = coeffs[lo : lo + step]
        hit = (pairings(block, grid[:_HEAD]) == 0).any(axis=1)
        miss = np.flatnonzero(~hit)
        hit[miss] = (pairings(block[miss], grid[_HEAD:]) == 0).any(axis=1)
        hits[lo : lo + step] = hit
    return hits


def _arch_verdicts(forms, target: AdelicTarget, budget: int = 4000, mats=None) -> list:
    """Real verdicts of forms on one basis.

    Quadrics are decided from their 2M (`mats`, when the caller already has
    them). With sigma_inf = 1 a quadric that takes both signs on the sign
    grid, the points of {-1, 0, 1}^(n+1) up to sign, is indefinite, so `yes`;
    the exact signature test decides the rest (the definite and semidefinite
    ones, such as X0^2). In a cap, sigma_inf < 1, a quadric with an S-lemma
    certificate that it keeps one sign on the cap (`_s_lemma_certificates`)
    is `no`; the certificate costs less than the chart search on the
    quadrics it decides. Every other quadric, and every form of higher
    degree, goes to the real decider in one `decide_real_batch` call with
    `budget` boxes: cap-grid points, odd degree at sigma_inf = 1, then the
    Bernstein search of the cap's affine chart."""
    certs = [None] * len(forms)
    if forms and forms[0].basis.d == 2:
        if Fraction(target.sigma_inf) == 1:
            # the sign grid: the centred points of P^n(F_3), a cached residue table up to n = 8
            vals = pairings(coefficient_matrix(forms), next(_residue_tables(forms[0].basis, 3))[2])
            both = ((vals > 0).any(axis=1) & (vals < 0).any(axis=1)).tolist()
            yes = [b or _indefinite(mats[k] if mats else quadric_matrix(forms[k])) for k, b in enumerate(both)]
            return [TriState.yes({"kind": "quadric-signature"}) if y else TriState.no({"kind": "quadric-definite"}) for y in yes]
        mats = mats or [quadric_matrix(f) for f in forms]
        certs = _s_lemma_certificates(mats, target.xi_inf, target.sigma_inf)
    real = iter(decide_real_batch([f for f, cert in zip(forms, certs) if not cert], target.xi_inf, target.sigma_inf, budget))
    return [TriState.no(cert) if cert else next(real) for cert in certs]


def _finite_verdicts(forms, p: int, target: AdelicTarget, depth_budget: int) -> list:
    """The verdicts at p of forms on one basis; a node budget overrun is
    "unknown"."""
    e_p, xi = target.place(p)
    try:
        out = decide_padic_batch(forms, p, xi, e_p, depth_budget=depth_budget)
    except EnumerationBudgetExceeded:
        return ["unknown"] * len(forms)
    return ["unknown" if isinstance(r, EnumerationBudgetExceeded) else r.verdict for r in out]


def _beyond_verdicts(forms, mats, P: int, target: AdelicTarget, depth_budget: int) -> list:
    """For each form, the verdict over the primes beyond P, outside the
    target's support, where it may fail to be soluble: "yes-all", "fails"
    or "unknown".

    For quadrics (mats hold 2M) those primes are the certified bad primes; a
    det(2M) that cannot be factored gives "unknown". For d >= 3 only the
    primes up to 2P + 10 are examined. The primes are decided in ascending
    order, each for every form that has it and has not failed yet, so each
    form sees its own primes in order and stops at its first "no".
    """
    verdicts = ["yes-all"] * len(forms)
    primes = []
    for k, mat in enumerate(mats):
        if mat is None:
            own = primes_up_to(2 * P + 10)
        else:
            try:
                own = _bad_primes(mat)
            except ValueError:  # factorize cannot prove a cofactor of det(2M) prime
                verdicts[k], own = "unknown", []
        primes.append({p for p in own if p > P and p not in target.support})
    for p in sorted(set().union(*primes)):
        todo = [k for k, own in enumerate(primes) if p in own and verdicts[k] != "fails"]
        for k, res in zip(todo, _finite_verdicts([forms[k] for k in todo], p, target, depth_budget)):
            if res == "no":
                verdicts[k] = "fails"
            elif res == "unknown":
                verdicts[k] = "unknown"
    return verdicts


def local_census(
    d: int,
    n: int,
    A,
    P: int,
    target: AdelicTarget,
    depth_budget: int = 3,
) -> CensusReport:
    """Exact M(A, P), E(A, P) and the derived #V^loc, all as intervals.

    M counts primitive coefficient vectors (both signs) soluble near the
    target at every place of S and every prime <= P; E counts those
    additionally failing at some prime > P. For quadrics the primes where
    failure is possible form a certified finite set, so E and the direct
    V^loc count close exactly whenever every verdict resolves.

    Points come first, on the coefficient rows of the whole family (the
    primitive ball, int64), before any `Form` is built: exact products pair
    the rows with the Veronese rows of the grid points that meet the target
    (`_target_grid`), staged by `_point_hits`: every row meets the first
    grid rows, and only the rows without a zero there meet the rest. A zero
    is a primitive integer x with f(x) = 0, x ≡ u c mod q and x in the cap.
    It is a real point in the cap; at each p in the support
    x ≡ u xi_p mod p^e_p, a Q_p-point within p^-e_p of xi_p; at every other
    prime, inside or beyond P, a Q_p-point. So the form is certainly in M
    and never in E, and it is tallied as `yes` at every place and in
    `point_decided`.

    `Form`s are built only for the rows without a point, and go to the
    deciders in blocks of at most _CHUNK form x residue pairs per prime.
    They are decided place by place: the real verdict first
    (`_arch_verdicts`: a quadric by its signature, or in a cap by an S-lemma
    certificate when it has one; every other form by the real decider, whose
    chart search has 4000 boxes per form), then
    each prime <= P or in the support for the forms not yet out of M, then
    the primes beyond P (`_beyond_verdicts`). At each prime a block's forms
    are decided together by `decide_padic_batch`, against one cached residue
    table of P^n(F_p).

    `arch_kinds` tallies the real verdicts by how they were reached: "point"
    for the forms with a target point, the certificate kind of every other
    `yes` and `no`, and the reason of every `unknown`.
    """
    basis = monomial_basis(d, n)
    coeffs = _coefficient_rows(d, n, A)
    finite_ps = sorted(set(target.support) | set(primes_up_to(P)))
    per_place = {p: {"yes": 0, "no": 0, "unknown": 0} for p in finite_ps}
    arch_tally = {"yes": 0, "no": 0, "unknown": 0}
    arch_kinds = {"yes": {}, "no": {}, "unknown": {}}
    m_yes = m_unk = e_yes = e_unk = dv_lo = dv_hi = 0
    hits = _point_hits(coeffs, _target_grid(basis, target)[1])
    point_decided = int(np.count_nonzero(hits))
    forms = _forms(basis, coeffs[~hits])
    # a block holds at most _CHUNK form x residue pairs at every prime <= P,
    # so the verdicts and matrices held at once stay bounded
    points = max(((p ** (n + 1) - 1) // (p - 1) for p in finite_ps), default=1)
    size = max(1, _CHUNK // points)
    for lo in range(0, len(forms), size):
        block = forms[lo : lo + size]
        mats = [quadric_matrix(f) for f in block] if d == 2 else [None] * len(block)  # 2M, built once
        verdicts = []
        for res in _arch_verdicts(block, target, mats=mats):
            verdicts.append(res.verdict)
            arch_tally[res.verdict] += 1
            kinds, kind = arch_kinds[res.verdict], res.certificate["reason" if res.verdict == "unknown" else "kind"]
            kinds[kind] = kinds.get(kind, 0) + 1
        certain = [verdict == "yes" for verdict in verdicts]
        for p in finite_ps:
            alive = [k for k, verdict in enumerate(verdicts) if verdict != "no"]  # short-circuit: out of M
            for k, verdict in zip(alive, _finite_verdicts([block[k] for k in alive], p, target, depth_budget)):
                verdicts[k] = verdict
                per_place[p][verdict] += 1
                certain[k] = certain[k] and verdict == "yes"
        inside = [k for k, verdict in enumerate(verdicts) if verdict != "no"]
        beyond = _beyond_verdicts([block[k] for k in inside], [mats[k] for k in inside], P, target, depth_budget)
        for k, far in zip(inside, beyond):
            m_yes += certain[k]
            m_unk += not certain[k]
            # E: forms in M (certainly or possibly) failing at some prime beyond P
            if far == "fails":
                e_yes += certain[k]
                e_unk += not certain[k]
            elif far == "unknown":
                e_unk += 1
            # direct V^loc (quadrics: certified place lists)
            dv_lo += certain[k] and far == "yes-all"
            dv_hi += far != "fails"
    # forms with a target point: yes at every place, in M and not in E
    arch_tally["yes"] += point_decided
    if point_decided:
        arch_kinds["yes"]["point"] = point_decided
    for tally in per_place.values():
        tally["yes"] += point_decided
    m_yes += point_decided
    dv_lo += point_decided
    dv_hi += point_decided
    # intervals over both-sign counts
    m_lo, m_hi = 2 * m_yes, 2 * (m_yes + m_unk)
    e_lo, e_hi = 2 * e_yes, 2 * (e_yes + e_unk)
    return CensusReport(
        params={"d": d, "n": n, "A": str(A), "P": P, "q": target.q, "depth_budget": depth_budget},
        m_interval=(m_lo, m_hi),
        e_interval=(e_lo, e_hi),
        vloc_interval=((m_lo - e_hi) // 2, (m_hi - e_lo) // 2),
        direct_vloc_interval=(dv_lo, dv_hi) if d == 2 else None,
        per_place=per_place,
        arch_tally=arch_tally,
        arch_kinds=arch_kinds,
        point_decided=point_decided,
        unresolved=m_unk + e_unk,
        total_forms=len(coeffs),
        all_resolved=m_unk == 0 and e_unk == 0 and arch_tally["unknown"] == 0,
    )


# ---------------------------------------------------------------------------
# predicted census


def real_density_interval(
    d: int, n: int, target: AdelicTarget, samples: int = 400, rng=None, budget: int = 1500
) -> DensityInterval:
    """MC interval for the spherical density of real-soluble-near-target forms.

    Each sampled form gets its verdict from `_arch_verdicts`, as in the
    census: quadrics by their signature, or in a cap by an S-lemma
    certificate where one exists, the rest by the real decider (cap-grid
    points, odd degree at sigma = 1, the Bernstein chart search with
    `budget` boxes). Unknown verdicts widen the interval."""
    rng = rng or np.random.default_rng(0)
    N = dimension(d, n)
    # one draw fills the rows in the order of one draw per sample; np.rint
    # rounds half to even, as round does, and is exact below 2^53
    rows = np.rint(rng.standard_normal((samples, N)) * 10**6).astype(np.int64).tolist()
    forms = [make_form(d, n, coeffs, primitive=False) for coeffs in rows if any(coeffs)]
    tally = {"yes": 0, "no": 0, "unknown": 0}
    for res in _arch_verdicts(forms, target, budget):
        tally[res.verdict] += 1
    yes, unk = tally["yes"], tally["unknown"]
    m = sum(tally.values())
    if m == 0:
        return DensityInterval(Fraction(0), Fraction(1), "monte-carlo")
    se = math.sqrt(0.25 / m)
    lo = max(0.0, yes / m - 4 * se)
    hi = min(1.0, (yes + unk) / m + 4 * se)
    return DensityInterval(Fraction(lo).limit_denominator(10**9), Fraction(hi).limit_denominator(10**9), "monte-carlo")


def predicted_census(
    d: int,
    n: int,
    A,
    target: AdelicTarget,
    P_trunc: int = 3,
    depth: int = 1,
    mc_samples: int = 400,
    rng=None,
    budget: int = 10**7,
    tail_constant: Fraction = DEFAULT_TAIL_CONSTANT,
) -> dict:
    """Interval-valued main term for #V^loc(A).

    Product of local density intervals for p in S and p <= P_trunc, a tail
    interval [prod_{p > P_trunc}(1 - C/p^2), 1], the archimedean MC interval,
    and the volume factor. Two volume factors are reported: the asymptotic
    V_N A^N/(2 zeta(N)) and the exact count of primitive vectors up to sign
    (`primitive_orthogonal_count` at nu = 0: the family's size, counted
    without enumerating it), which is what the density product actually
    multiplies at finite A. `budget` bounds `local_density`. The tail
    constant C (default `localsolve.DEFAULT_TAIL_CONSTANT`) is a measured
    value, not a proven bound, so it is reported as "tail_constant".
    """
    N = dimension(d, n)
    support = set(target.support)
    intervals = {}
    for p in sorted(support | set(primes_up_to(P_trunc))):
        e_p, xi = target.place(p)
        intervals[p] = local_density(d, n, p, xi, e_p, depth=depth, budget=budget)
    # tail over primes beyond the truncation, added in ascending order from 0.0
    # by cumsum: a numpy sum would reorder the terms and move tail_lower's bits
    P = np.array(primes_up_to(10**5))
    terms = 1.0 / P[(P > P_trunc) & ~np.isin(P, list(support))] ** 2
    tail_sum = float(np.cumsum(np.append(0.0, terms))[-1])
    tail_sum += 1e-5  # integral remainder beyond the sieve, over-estimated
    tail_lo = max(0.0, 1.0 - float(tail_constant) * tail_sum)
    rho_inf = real_density_interval(d, n, target, mc_samples, rng)
    lo = float(rho_inf.lower) * tail_lo
    hi = float(rho_inf.upper)
    for iv in intervals.values():
        lo *= float(iv.lower)
        hi *= float(iv.upper)
    Af = float(Fraction(A))
    asympt = unit_ball_volume(N) * Af**N / (2 * zeta(N))
    prim_half = primitive_orthogonal_count((0,) * N, math.floor(Fraction(A) ** 2))
    sigma = float(Fraction(target.sigma_inf))
    return {
        "finite_intervals": intervals,
        "tail_lower": tail_lo,
        "tail_constant": tail_constant,
        "rho_inf": rho_inf,
        "density_product": (lo, hi),
        "asymptotic_factor": asympt,
        "finite_size_factor": prim_half,
        "main_interval": (lo * asympt, hi * asympt),
        "finite_size_interval": (lo * prim_half, hi * prim_half),
        "magnitude_scale": sigma * Af**N / target.q,
    }
