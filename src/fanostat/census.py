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
   the local deciders: at the real place `localsolve.decide_real_batch`,
   whose docstring gives the order of the real-place checks.

Solubility verdicts are tri-state; counts touched by unknown verdicts are
reported as intervals, never silently resolved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .counting import Prediction, VolumeEstimate, predicted_reciprocal_sum
from .geom import unit_ball_volume
from .intlinalg import bareiss_det, integer_ball
from .lattice import primitive_orthogonal_count
from .localsolve import (
    _CELLS,
    _CHUNK,
    DEFAULT_TAIL_CONSTANT,
    _cap_grid,
    _indefinite,
    AdelicTarget,
    DensityInterval,
    decide_padic_batch,
    decide_real_batch,
    local_density,
    quadric_matrix,
    target_mask,
    translate_local_conditions,
)
from .numtheory import factorize, primes_up_to, unit_class_mask, zeta
from .veronese import (
    Form,
    coefficient_matrix,
    dimension,
    height_bound_norm2,
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
    """Main term section * R: a point x near the target lies on about
    V_{N-1} A^(N-1)/(2 zeta(N-1) |nu(x)|) forms of height <= A, one per +-
    pair, and 1/|nu(x)| over one point per +- pair of height <= B sums to
    half of R = `counting.predicted_reciprocal_sum` at X^(n+1-d) = B, so
    section = V_{N-1} A^(N-1)/(4 zeta(N-1)); `inputs` holds section and R."""
    if not (n >= d >= 2) or (n, d) == (2, 2):
        raise ValueError("main term needs n >= d >= 2 and (n, d) != (2, 2)")
    N = dimension(d, n)
    section = unit_ball_volume(N - 1) / (4 * zeta(N - 1)) * float(Fraction(A)) ** (N - 1)
    c, q = translate_local_conditions(target)
    X = float(Fraction(B)) ** (1 / (n + 1 - d))
    R = predicted_reciprocal_sum(d, n, c, q, target.xi_inf, target.sigma_inf, X, volume, mc_samples, rng)
    formula = "V_{N-1} A^{N-1}/(4 zeta(N-1)) * " + R.formula + ", X^(n+1-d) = B"
    return Prediction(section * R.value, section * R.err, formula, {"section": section, "reciprocal_sum": R})


# ---------------------------------------------------------------------------
# quadric verdicts (exact, d = 2 only)


def quadric_real_soluble(form: Form) -> bool:
    """Exact: a real quadric has points iff its matrix is not definite."""
    return _indefinite(quadric_matrix(form))


def quadric_bad_primes(form: Form) -> list:
    """Finite places where plain Q_p-solubility can fail, certified.

    Degenerate quadrics vanish on their rational kernel, so they are soluble
    everywhere. Nondegenerate quadrics in >= 3 variables are soluble at every
    odd p not dividing det(2M): the reduction is nondegenerate, has a point
    by Chevalley-Warning, the point is smooth, and it lifts.
    """
    mat = quadric_matrix(form)
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
    """The cap grid's rows (`localsolve._cap_grid`) that meet the target, and
    their Veronese rows. Of `target_mask`'s three tests only the unit class
    is run: the grid's rows are primitive and in the cap by construction."""
    _, X, V = _cap_grid(basis, tuple(target.xi_inf), Fraction(target.sigma_inf))
    keep = unit_class_mask(X, *translate_local_conditions(target))
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


def _finite_verdicts(forms, p: int, target: AdelicTarget, depth_budget: int) -> list:
    """The verdicts at p of forms on one basis."""
    e_p, xi = target.place(p)
    return [res.verdict for res in decide_padic_batch(forms, p, xi, e_p, depth_budget=depth_budget)]


def _beyond_verdicts(forms, P: int, target: AdelicTarget, depth_budget: int) -> list:
    """For each form, the verdict over the primes beyond P, outside the
    target's support, where it may fail to be soluble: "yes-all", "fails"
    or "unknown".

    For quadrics those primes are the certified bad primes of 2M; a quadric
    without a certified bad-prime set gives "unknown". For d >= 3 only the
    primes up to 2P + 10 are examined. The primes are decided in ascending
    order, each for every form that has it and has not failed yet, so each
    form sees its own primes in order and stops at its first "no".
    """
    verdicts = ["yes-all"] * len(forms)
    primes = []
    for k, form in enumerate(forms):
        if form.basis.d != 2:
            own = primes_up_to(2 * P + 10)
        else:
            try:
                own = quadric_bad_primes(form)
            except ValueError:  # a det(2M) cofactor factorize cannot prove prime, or a binary quadric (n = 1)
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
    They are decided place by place: the real verdict first, by
    `decide_real_batch` with 4000 chart boxes per form (its docstring gives
    the order of the real-place checks), then each prime <= P or in the
    support for the forms not yet out of M, then the primes beyond P
    (`_beyond_verdicts`, quadrics from their 2M, built only here). At each
    prime a block's forms are decided together by `decide_padic_batch`,
    against one cached residue table of P^n(F_p).

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
    # so the verdicts and matrices held at once stay bounded. It also keeps the
    # chart search's per-level counts and masks, which span every form of a call,
    # small: one call took 7.1 s at 92 MB against 6.3 s at 73 MB (cubics, A = 2, sigma = 1/5)
    points = max(((p ** (n + 1) - 1) // (p - 1) for p in finite_ps), default=1)
    size = max(1, _CHUNK // points)
    for lo in range(0, len(forms), size):
        block = forms[lo : lo + size]
        verdicts = []
        for res in decide_real_batch(block, target.xi_inf, target.sigma_inf, 4000):
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
        beyond = _beyond_verdicts([block[k] for k in inside], P, target, depth_budget)
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

    Each sampled form gets its verdict from `decide_real_batch`, as in the
    census, with `budget` chart boxes per form (its docstring gives the
    order of the real-place checks). Unknown verdicts widen the interval."""
    rng = rng or np.random.default_rng(0)
    N = dimension(d, n)
    # one draw fills the rows in the order of one draw per sample; np.rint
    # rounds half to even, as round does, and is exact below 2^53
    rows = np.rint(rng.standard_normal((samples, N)) * 10**6).astype(np.int64)
    forms = _forms(monomial_basis(d, n), rows[rows.any(axis=1)])
    tally = {"yes": 0, "no": 0, "unknown": 0}
    for res in decide_real_batch(forms, target.xi_inf, target.sigma_inf, budget):
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
) -> dict:
    """Interval-valued main term for #V^loc(A).

    Product of local density intervals for p in S and p <= P_trunc, a tail
    interval [prod_{p > P_trunc}(1 - C/p^2), 1], the archimedean MC interval,
    and the volume factor. Two volume factors are reported: the asymptotic
    V_N A^N/(2 zeta(N)) and the exact count of primitive vectors up to sign
    (`primitive_orthogonal_count` at nu = 0: the family's size, counted
    without enumerating it), which is what the density product actually
    multiplies at finite A. `budget` bounds `local_density`. The tail
    constant C, `localsolve.DEFAULT_TAIL_CONSTANT` here and in
    `local_density`, is a measured value, not a proven bound, so it is
    reported as "tail_constant".
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
    tail_lo = max(0.0, 1.0 - float(DEFAULT_TAIL_CONSTANT) * tail_sum)
    rho_inf = real_density_interval(d, n, target, mc_samples, rng)
    lo = float(rho_inf.lower) * tail_lo
    hi = float(rho_inf.upper)
    for iv in intervals.values():
        lo *= float(iv.lower)
        hi *= float(iv.upper)
    Af = float(Fraction(A))
    asympt = unit_ball_volume(N) * Af**N / (2 * zeta(N))
    prim_half = primitive_orthogonal_count((0,) * N, math.floor(Fraction(A) ** 2))
    return {
        "finite_intervals": intervals,
        "tail_lower": tail_lo,
        "tail_constant": DEFAULT_TAIL_CONSTANT,
        "rho_inf": rho_inf,
        "density_product": (lo, hi),
        "asymptotic_factor": asympt,
        "finite_size_factor": prim_half,
        "main_interval": (lo * asympt, hi * asympt),
        "finite_size_interval": (lo * prim_half, hi * prim_half),
    }
