"""Local solubility of hypersurfaces: exact searches, sound verdicts, densities.

Solubility of f = 0 over Q_p near a target point is only semidecidable, so
every decision routine returns a TriState:

- yes: carries a certificate that re-verifies independently. At a prime p it
  is a LiftCertificate (a Hensel lift) or an ExactZeroCertificate (an exact
  integer zero); both record the radius p^-e_p around the caller's target
  that `padic.verify_certificate` checks. Over R it is a Newton-line,
  sign-change or exact-zero certificate;
- no: carries the depth at which an exhaustive residue search emptied out
  (sound: an exact zero would reduce), or an interval-arithmetic exclusion
  certificate over the real cap;
- unknown: carries the exhausted budget; over R also the boxes examined
  (`cells`) and the unexamined frontier (`pending`).

The finite places of a target CRT into one congruence class (c, q)
(`translate_local_conditions`), and `target_mask` is the one point filter
of a target: over a whole integer array, x primitive, x ≡ u c mod q for a
unit u, and x in the real cap by the exact `geom.cone_member`. The real
decider's direction grid is cut to its cap by the same `cone_member`.

Every question "which admissible residues x mod p^v have f(x) == 0?" (the
p-adic decider, F_p point counts, ball classification) starts from one
enumeration, the points of P^n(F_p) as canonical residues mod p (pivot, the
first unit entry, equal to 1; entries before it in pZ) in lexicographic
order, and reaches p^v through fibres: the residues mod p^v above a
canonical x mod p^e are exactly x + p^e s with s in [0, p^(v-e))^m and
s_pivot = 0. Zeros are found by one kernel, `_start_zeros`, on a residue
table (the residues, their Veronese rows mod p^v and the exact Veronese rows
of their centred representatives): one product of a block of forms'
coefficient rows against it (`veronese.pairings`) gives every form's zeros
mod p^v and which of them are exact integer zeros. `decide_padic_batch`
decides the first level of a block of forms against the table of P^n(F_p),
cached per (basis, p), and each deeper level form by form against uncached
tables of the frontier fibres; `decide_padic_solubility` is its one-form
case, and `count_projective_points` reads the same cached table.

The real decider works the same way on a block of forms on one basis
(`decide_real_batch`): one exact product against the cached cap grid gives
every form's grid zeros and sign changes, the cached derivative rows of the
grid give the exact gradients Newton starts from, and the interval
exclusion runs one breadth-first frontier of distinct boxes with the (form,
box) pairs on top of it, so the cap test, the powers and the split of a box
are computed once however many forms hold it. `decide_real_solubility` is
its one-form case.

Densities of the soluble locus in coefficient space are measured exactly by
classifying coefficient balls mod p^v: a ball meets the soluble locus iff
some admissible residue x has <a, nu(x)> == 0 mod p^v (the coefficient can
be adjusted inside the ball to an exact zero), and it certifiably lies
inside once some such x also has a unit-sized partial derivative, which
makes the zero stable under every coefficient perturbation of size p^-v.
`classify_balls` decides whole classes of balls mod p^k digit by digit and
refines only the classes whose residue zeros are all singular mod p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import EnumerationBudgetExceeded, HypothesisFailed, NonConvergence, PreconditionFailed
from .geom import cap_constant, cone_member, integer_axis, proj_distance_arch
from .intlinalg import canonical_sign_mask
from .numtheory import crt_combine, primes_up_to, unit_class_mask
from .padic import (
    ExactZeroCertificate,
    PadicApproxVector,
    lift_hypersurface_point,
    newton_hopeless,
    newton_real_root,
)
from .veronese import (
    Form,
    _line_restriction,
    coefficient_matrix,
    dimension,
    monomial_basis,
    pairings,
    row_pairings,
    veronese_batch,
    veronese_jet_batch,
)


# ---------------------------------------------------------------------------
# target data


@dataclass(frozen=True)
class AdelicTarget:
    """(xi_p, sigma_p = p^-e_p) at finitely many finite places plus the
    archimedean pair (xi_inf, sigma_inf)."""

    finite_places: tuple  # of (p, e_p, PadicApproxVector)
    xi_inf: tuple
    sigma_inf: object  # a Fraction, or a float read as the binary rational it is

    def __post_init__(self):
        seen = set()
        for p, e_p, xi in self.finite_places:
            if e_p < 1:
                raise ValueError("finite places need e_p >= 1")
            if p in seen:
                raise ValueError("duplicate finite place")
            seen.add(p)
            if xi.p != p or xi.precision < e_p:
                raise ValueError("xi_p must be given mod at least p^e_p")
            if not xi.is_primitive:
                raise ValueError("xi_p must be primitive")
        if not 0 < Fraction(self.sigma_inf) <= 1:
            raise ValueError("sigma_inf must lie in (0, 1]")
        if all(c == 0 for c in self.xi_inf):
            raise ValueError("xi_inf must be nonzero")

    @property
    def q(self) -> int:
        out = 1
        for p, e_p, _ in self.finite_places:
            out *= p**e_p
        return out

    @property
    def support(self) -> tuple:
        return tuple(p for p, _, _ in self.finite_places)

    def place(self, p: int):
        for pp, e_p, xi in self.finite_places:
            if pp == p:
                return e_p, xi
        return 0, None

    @classmethod
    def trivial(cls, n: int, sigma_inf=Fraction(1)) -> "AdelicTarget":
        return cls(tuple(), (1,) + (0,) * n, Fraction(sigma_inf))


def translate_local_conditions(target: AdelicTarget) -> tuple:
    """CRT the finite-place targets into a single q-primitive congruence class
    (c, q); with no finite place, c = (1, 0, ..., 0) and q = 1.

    For primitive integer x the adelic proximity conditions are equivalent to
    x ≡ u c mod q for a unit u together with the archimedean cone condition
    x in C(xi_inf, sigma_inf); `target_mask` tests all three.
    """
    if not target.finite_places:
        return (1,) + (0,) * (len(target.xi_inf) - 1), 1
    pairs = []
    for p, e_p, xi in target.finite_places:
        mod = p**e_p
        pairs.append((tuple(e % mod for e in xi.entries), mod))
    return crt_combine(pairs)


def target_mask(target: AdelicTarget, X: np.ndarray) -> np.ndarray:
    """Row mask of the integer array X: x is primitive, x ≡ u c mod q for a
    unit u (`translate_local_conditions`) and x lies in the real cap."""
    c, q = translate_local_conditions(target)
    keep = (np.gcd.reduce(np.abs(X), axis=1) == 1) & unit_class_mask(X, c, q)
    return keep & cone_member(target.xi_inf, target.sigma_inf, X)


# ---------------------------------------------------------------------------
# tri-state verdicts


@dataclass(frozen=True)
class TriState:
    verdict: str  # "yes" | "no" | "unknown"
    certificate: object = None

    def __post_init__(self):
        if self.verdict not in ("yes", "no", "unknown"):
            raise ValueError("verdict must be yes/no/unknown")

    @classmethod
    def yes(cls, certificate) -> "TriState":
        return cls("yes", certificate)

    @classmethod
    def no(cls, certificate) -> "TriState":
        return cls("no", certificate)

    @classmethod
    def unknown(cls, report=None) -> "TriState":
        return cls("unknown", report)

    def __bool__(self):
        raise TypeError("TriState is not a boolean; inspect .verdict")


@dataclass(frozen=True)
class DensityInterval:
    lower: Fraction
    upper: Fraction
    method: str  # "sandwich" | "enumeration" | "monte-carlo" | "tail-bound"

    def __post_init__(self):
        if not 0 <= self.lower <= self.upper <= 1:
            raise ValueError("density interval must satisfy 0 <= lo <= hi <= 1")


# ---------------------------------------------------------------------------
# canonical projective residues mod p^v, as int64 arrays

_CHUNK = 1 << 14  # rows per residue or coefficient block: bounds peak memory
_CELLS = _CHUNK << 7  # coefficient classes x residues per descendant batch: bounds peak memory


def canonical_residue(x, p: int, v: int):
    """Scale a primitive residue by a unit so its first unit entry is 1."""
    mod = p**v
    x = [int(c) % mod for c in x]
    pivot = next((i for i, c in enumerate(x) if c % p != 0), None)
    if pivot is None:
        raise ValueError("residue is not primitive")
    inv = pow(x[pivot], -1, mod)
    return tuple(c * inv % mod for c in x)


def canonical_projective_residues(m: int, p: int, v: int):
    """All canonical primitive residues mod p^v in m coordinates, pivot by
    pivot and lexicographic within a pivot.

    Canonical: entries before the pivot divisible by p, pivot entry 1.
    """
    X = _residue_fibre(np.concatenate(list(_lexicographic_blocks(m, p))), p, 1, v)
    X = X[np.lexsort((*X.T[::-1], np.argmax(X % p != 0, axis=1)))]
    return [tuple(x) for x in X.tolist()]


def _grid(radices, start: int, stop: int) -> np.ndarray:
    """Rows start..stop-1 of the product of range(r) over radices, in
    lexicographic order (the last coordinate varies fastest)."""
    return np.stack(np.unravel_index(np.arange(start, stop, dtype=np.int64), radices), axis=1)


def _residue_fibre(X, p: int, e: int, v: int) -> np.ndarray:
    """Canonical residues mod p^v reducing to the canonical residues mod p^e
    in X (one residue, or an array of them): fibre after fibre, each in
    lexicographic order, p^((v-e)(m-1)) rows per residue.

    The pivot of x is 1 and every entry before it lies in pZ, so these are
    exactly x + p^e s with s in [0, p^(v-e))^m and s_pivot = 0.
    """
    X = np.array(X, dtype=np.int64, ndmin=2)
    m = X.shape[1]
    pivots = np.argmax(X % p != 0, axis=1)
    out = np.empty((len(X), p ** ((v - e) * (m - 1)), m), dtype=np.int64)
    for pivot in set(pivots.tolist()):
        radices = [p ** (v - e)] * m
        radices[pivot] = 1
        rows = pivots == pivot
        out[rows] = X[rows, None, :] + p**e * _grid(radices, 0, math.prod(radices))
    return out.reshape(-1, m)


def _centred_rows(X: np.ndarray, mod: int) -> np.ndarray:
    """`_centered` for an array of residues mod `mod`."""
    return np.where(X > mod // 2, X - mod, X)


def _table(basis, X: np.ndarray, mod: int):
    """The residue table of the residues X mod `mod`: X, their Veronese rows
    mod `mod` and the exact Veronese rows of their centred representatives,
    all read-only; the rows in the narrowest integer type that holds them,
    since the tables of P^n(F_p) are cached (`pairings` widens them again)."""
    table = (X, _narrow(veronese_batch(basis, X) % mod), _narrow(veronese_batch(basis, _centred_rows(X, mod))))
    for T in table:
        T.flags.writeable = False
    return table


def _narrow(M: np.ndarray) -> np.ndarray:
    """M as int16 or int32 when its entries fit, else unchanged."""
    if M.dtype != object:
        bound = int(np.abs(M).max(initial=0))
        for dtype in (np.int16, np.int32):
            if bound <= np.iinfo(dtype).max:
                return M.astype(dtype)
    return M


def _residue_tables(basis, p: int):
    """The residue table of every point of P^n(F_p) (`_lexicographic_blocks`),
    in blocks of _CHUNK rows. A table of one block is cached, because every
    form of a census asks for it at every prime; larger ones are rebuilt
    block by block, so memory stays at one block."""
    if (p ** (basis.n + 1) - 1) // (p - 1) <= _CHUNK:
        yield _small_residue_table(basis, p)
        return
    for X in _lexicographic_blocks(basis.n + 1, p):
        yield _table(basis, X, p)


@lru_cache(maxsize=16)
def _small_residue_table(basis, p: int):
    (X,) = _lexicographic_blocks(basis.n + 1, p)
    return _table(basis, X, p)


def _lexicographic_blocks(m: int, p: int):
    """The canonical residues mod p in m coordinates, the points of
    P^(m-1)(F_p), in lexicographic order: the pivot from the last coordinate
    to the first, zeros before it, 1 at it, entries in [0, p) after it. In
    blocks of _CHUNK rows (the last one shorter)."""
    for start in range(0, (p**m - 1) // (p - 1), _CHUNK):
        parts, offset = [], start
        for pivot in reversed(range(m)):
            size = p ** (m - pivot - 1)
            lo, hi = max(offset, 0), min(offset + _CHUNK, size)
            if lo < hi:
                G = _grid([1] * (pivot + 1) + [p] * (m - pivot - 1), lo, hi)
                G[:, pivot] = 1
                parts.append(G)
            offset -= size
        yield np.concatenate(parts)


# ---------------------------------------------------------------------------
# p-adic membership decision


def decide_padic_solubility(
    form: Form,
    p: int,
    xi: Optional[PadicApproxVector] = None,
    e_p: int = 0,
    depth_budget: int = 3,
    node_budget: int = 10**7,
) -> TriState:
    """Does the hypersurface have a Q_p point within p^-e_p of xi?

    With xi None (or e_p = 0) this is plain Q_p-solubility. Searches residue
    zeros level by level; `yes` once some residue centres to an exact integer
    zero (ExactZeroCertificate) or satisfies the lifting hypotheses
    (LiftCertificate), `no` once a level holds no admissible residue zero
    (sound: exact zeros reduce), `unknown` when the depth budget runs out or
    residues mod p^(v+1) would outgrow int64.
    A `yes` certificate records radius e_p and re-verifies against xi with
    `padic.verify_certificate`.

    Budget: the starting residues (every point of P^n(F_p), or xi's class)
    must number at most node_budget on their own; each later level costs
    p^n nodes per frontier residue, cumulatively.

    This is `decide_padic_batch` for one form.
    """
    (verdict,) = decide_padic_batch([form], p, xi, e_p, depth_budget, node_budget)
    if isinstance(verdict, EnumerationBudgetExceeded):
        raise verdict
    return verdict


def decide_padic_batch(
    forms,
    p: int,
    xi: Optional[PadicApproxVector] = None,
    e_p: int = 0,
    depth_budget: int = 3,
    node_budget: int = 10**7,
) -> list:
    """`decide_padic_solubility` for each of the forms (all on one basis):
    its TriState, or the EnumerationBudgetExceeded that a level past the
    first raised for it. The starting residues depend only on (p, n, e_p),
    so their budget check raises once for all forms.

    Every level goes through one kernel, `_start_zeros`. The starting level
    is evaluated for a block of forms at once: one product of their
    coefficient rows against the residue table (every point of P^n(F_p), or
    xi's class) gives each form its zeros there and which of them centre to
    exact integer zeros. A block holds at most _CHUNK form x residue pairs.
    Each form then runs the level-by-level search of `_search_levels` on its
    own zeros.
    """
    if e_p > 0 and xi is None:
        raise ValueError("a target residue is required when e_p >= 1")
    if not forms:
        return []
    basis = forms[0].basis
    v0 = max(e_p, 1)
    start = 1 if e_p >= 1 else (p ** (basis.n + 1) - 1) // (p - 1)
    if start > node_budget or p**v0 >= 2**63:
        raise EnumerationBudgetExceeded("residue search too large", start)
    xi_class = [_table(basis, np.array([canonical_residue(xi.entries, xi.p, e_p)]), p**e_p)] if e_p >= 1 else None
    size = max(1, _CHUNK // start)
    out = []
    for lo in range(0, len(forms), size):
        block = forms[lo : lo + size]
        rows, Z, E = _start_zeros(block, xi_class or _residue_tables(basis, p), p**v0)
        cuts = np.searchsorted(rows, np.arange(len(block) + 1)).tolist()
        for form, a, b in zip(block, cuts, cuts[1:]):
            try:
                out.append(_search_levels(form, p, e_p, v0, Z[a:b], E[a:b], depth_budget, node_budget))
            except EnumerationBudgetExceeded as exc:
                out.append(exc)
    return out


def _start_zeros(forms, tables, mod: int):
    """The zeros mod `mod` of the forms among the residues of the tables:
    (form index, residue, whether it centres to an exact integer zero) as
    three arrays, form by form and in table order within a form."""
    A = coefficient_matrix(forms)
    A_mod = (A % mod).astype(np.int64)
    pieces = []
    for X, V, W in tables:
        rows, cols = np.nonzero(pairings(A_mod, V) % mod == 0)
        pieces.append((rows, X[cols], (pairings(A, W) == 0)[rows, cols]))
    return tuple(np.concatenate(part) for part in zip(*pieces))


def _search_levels(form: Form, p: int, e_p: int, v: int, Z, E, depth_budget: int, node_budget: int) -> TriState:
    """The level-by-level search of `decide_padic_solubility` from the zeros
    Z mod p^v (lexicographic order) and the mask E of those that centre to
    exact integer zeros. Each deeper level takes the same kernel,
    `_start_zeros`, over an uncached residue table of each frontier fibre,
    and is sorted lexicographically."""
    n, v0, nodes = form.basis.n, v, 0
    while True:
        if len(Z) == 0:
            return TriState.no({"depth": v, "reason": "no admissible residue zero"})
        # the pivot entry is 1, so every point is primitive at p; rows are
        # converted as the search reaches them, since most forms stop at one
        for x, is_zero in zip(map(np.ndarray.tolist, Z), E):
            if is_zero:
                # an exact integer zero is a complete certificate by itself
                return TriState.yes(ExactZeroCertificate(p, _centered(x, p, v), e_p))
            cert = _try_lift(form, tuple(x), p, v, e_p)
            if cert is not None:
                return TriState.yes(cert)
        if v >= max(depth_budget, v0) or p ** (v + 1) >= 2**63:
            return TriState.unknown({"depth": v, "frontier": len(Z)})
        nodes += len(Z) * p**n
        if nodes > node_budget:
            raise EnumerationBudgetExceeded("residue search too large", nodes)
        v += 1
        # one fibre per frontier residue at a time: memory stays at one fibre
        fibres = (_table(form.basis, _residue_fibre(x, p, v - 1, v), p**v) for x in Z)
        _, Z, E = _start_zeros([form], fibres, p**v)
        order = np.lexsort(Z.T[::-1])
        Z, E = Z[order], E[order]


def _centered(x, p: int, v: int) -> tuple:
    """Representative with entries in (-p^v/2, p^v/2]."""
    mod = p**v
    return tuple(c - mod if c > mod // 2 else c for c in x)


def _try_lift(form: Form, x, p: int, v: int, e_p: int):
    """Certificate via the lifting lemma at e = v and l = l*, if the
    hypotheses hold and the lifted point provably stays within p^-e_p of the
    target; None otherwise.

    The lift is within p^-(v - l*) of the residue x, and x within p^-e_p of
    the target, so the certificate records radius e_p, not v - l*;
    `lift_hypersurface_point` refuses it when e_p > v - l*."""
    try:
        return lift_hypersurface_point(form, PadicApproxVector.from_integers(p, v, x), v, radius=e_p)
    except (HypothesisFailed, PreconditionFailed):
        return None


# ---------------------------------------------------------------------------
# real membership decision


def decide_real_solubility(
    form: Form,
    xi_inf,
    sigma_inf,
    subdivision_budget: int = 20000,
) -> TriState:
    """Does f vanish at a real point within projective distance sigma of xi?

    yes: an exact rational zero in the cap, a certified sign change between
    two cap points (intermediate value theorem along the connecting cap
    geodesic), or a certified 1-D Newton root that stays in the cap. The cap
    points are a fixed rational direction grid, tried in grid order.
    no: outward-rounded interval arithmetic excludes zeros from the whole
    cap, covering projective space by the 2(n+1) cube faces. The boxes are
    refined breadth first, a whole level at a time: a box is dropped when it
    misses the cap or f cannot vanish on it, and otherwise split in half on
    its widest coordinate (the lowest index on ties). A box's children depend
    only on the box, so the boxes examined, and with them the verdict and the
    `cells` of a `no`, do not depend on the order of the search.
    unknown: the next level would take the boxes examined past
    `subdivision_budget`, or a box to split is narrower than 1e-6. It reports
    the `reason`, the `cells` examined and the `pending` boxes of the
    unexamined frontier, and for the second reason the first such box in
    breadth-first order. A `no` needs a search tree of at most
    `subdivision_budget` boxes.

    This is `decide_real_batch` for one form. The batch decides a block of
    forms on one basis with the same steps, and it cannot change a verdict
    or a certificate: every step reads a form only through exact products
    (the grid values and the gradients are integers, the same in any order)
    or through interval operations applied box by box and term by term; a
    Newton line search is skipped only where it provably finds no root; and
    the boxes a form examines depend only on that form, never on the others
    in its block.
    """
    return decide_real_batch([form], xi_inf, sigma_inf, subdivision_budget)[0]


_PAIRS = _CHUNK << 3  # (form, grid point) or (form, box) pairs held at once: bounds peak memory


def decide_real_batch(forms, xi_inf, sigma_inf, subdivision_budget: int = 20000) -> list:
    """`decide_real_solubility` for each of the forms (all on one basis).

    The yes paths read one exact product of the coefficient rows of a block
    of forms against the Veronese rows of the cached cap grid (`_cap_grid`):
    its zeros and sign changes. Newton starts from the sides of the grid
    with the exact gradients f's coefficient rows give against the cached
    derivative rows of the sides (`_cap_jets`), and skips the sides where
    its precondition fails along every coordinate (`newton_hopeless`). A
    block holds at most _PAIRS form x grid-point pairs.

    The forms left over go to the interval exclusion in groups of
    max(1, _PAIRS // subdivision_budget), so a group holds at most about
    _PAIRS (form, box) pairs at one level (`_exclusion_verdicts`).
    """
    if not forms:
        return []
    xi, sigma = tuple(xi_inf), Fraction(sigma_inf)
    grid = _cap_grid(forms[0].basis, xi, sigma)
    step = max(1, _PAIRS // max(len(grid[0]), 1))
    out = []
    for lo in range(0, len(forms), step):
        out.extend(_grid_verdicts(forms[lo : lo + step], grid, xi, sigma))
    rest = [k for k, res in enumerate(out) if res is None]
    size = max(1, _PAIRS // max(subdivision_budget, 1))
    for lo in range(0, len(rest), size):
        group = rest[lo : lo + size]
        for k, res in zip(group, _exclusion_verdicts([forms[k] for k in group], xi, sigma, subdivision_budget)):
            out[k] = res
    return out


def _grid_verdicts(forms, grid, xi: tuple, sigma) -> list:
    """The yes paths of `decide_real_batch` for forms on one basis: each
    form's `yes`, or None where no grid point and no Newton line decides it."""
    points, sides, flipped, V = grid
    basis = forms[0].basis
    A = coefficient_matrix(forms)
    vals = pairings(A, V)
    zero = vals == 0
    # signs on a single cap component (nonneg inner product side)
    positive = (vals > 0) != (flipped & (basis.d % 2 == 1))
    out = [None] * len(forms)
    for k in np.flatnonzero(zero.any(axis=1)).tolist():
        out[k] = TriState.yes({"kind": "exact-zero", "point": points[int(zero[k].argmax())]})
    for k in np.flatnonzero(positive.any(axis=1) & ~positive.all(axis=1)).tolist():
        if out[k] is None:
            pos, neg = int(positive[k].argmax()), int(positive[k].argmin())
            out[k] = TriState.yes({"kind": "sign-change", "positive": sides[pos], "negative": sides[neg]})
    rest = [k for k, res in enumerate(out) if res is None]
    if not rest or not sides:
        return out
    # the gradient of every form left at every side, exactly: (forms, sides, n + 1)
    grads = np.stack([pairings(A[rest], J) for J in _cap_jets(basis, xi, sigma)], axis=2)
    # a side is skipped where Newton's precondition fails along every coordinate
    hopeless = newton_hopeless(vals[rest][:, :, None], grads).all(axis=2)
    aperture = float(sigma)
    for k, G, skip in zip(rest, grads, hopeless):
        for w, g, no_root in zip(sides, G.tolist(), skip.tolist()):
            cert = None if no_root else _newton_in_cap(forms[k], w, g, xi, aperture)
            if cert is not None:
                out[k] = TriState.yes(cert)
                break
    return out


@lru_cache(maxsize=32)
def _cap_grid(basis, xi: tuple, sigma):
    """The direction-grid points v in the cap, in grid order; their sides
    w = +-v on the nonneg side of xi; whether w = -v; and the Veronese rows of
    the points. Cached, because a census asks for the same cap for every
    form; hence tuples and read-only arrays."""
    u = np.array(integer_axis(xi), dtype=object)  # raises on a zero axis
    grid = _direction_grid(basis.n, xi)
    X = grid[cone_member(xi, sigma, grid)]
    flipped = np.asarray(X.astype(object) @ u < 0, dtype=bool)
    points = tuple(map(tuple, X.tolist()))
    sides = tuple(map(tuple, np.where(flipped[:, None], -X, X).tolist()))
    V = veronese_batch(basis, X)
    flipped.flags.writeable = V.flags.writeable = False
    return points, sides, flipped, V


@lru_cache(maxsize=32)
def _cap_jets(basis, xi: tuple, sigma) -> np.ndarray:
    """The derivative rows of the sides w of `_cap_grid`, (n + 1, sides, N)
    (`veronese_jet_batch`): <a, row i at w> is df/dx_i(w). Cached beside the
    grid; hence read-only."""
    W = np.array(_cap_grid(basis, xi, sigma)[1], dtype=np.int64).reshape(-1, basis.n + 1)
    J = veronese_jet_batch(basis, W)
    J.flags.writeable = False
    return J


def _exclusion_verdicts(forms, xi: tuple, sigma, budget: int) -> list:
    """The breadth-first interval exclusion of `decide_real_batch` for forms
    on one basis, on one frontier of distinct boxes shared by the forms.

    A level holds the distinct boxes and the (form, box) pairs on top of
    them. A box's children depend only on the box, so each box is tested
    against the cap, raised to its powers and split once, however many
    forms hold it. Each form holds its own boxes in the order its one-form
    search would (its boxes are a subsequence of the distinct ones, the
    left children before the right ones), and keeps its own budget check,
    `cells` and `pending`."""
    n1 = forms[0].basis.n + 1
    lo, hi = np.full((2 * n1, n1), -1.0), np.full((2 * n1, n1), 1.0)
    for k in range(n1):  # the faces x_k = 1 and x_k = -1
        lo[2 * k, k] = hi[2 * k, k] = 1.0
        lo[2 * k + 1, k] = hi[2 * k + 1, k] = -1.0
    terms, cap = _block_terms(forms), _cap_terms(xi, sigma)
    out = [None] * len(forms)
    running = np.ones(len(forms), dtype=bool)
    examined = np.zeros(len(forms), dtype=np.int64)
    pf, pb = np.repeat(np.arange(len(forms)), len(lo)), np.tile(np.arange(len(lo)), len(forms))
    while running.any():
        count = np.bincount(pf, minlength=len(forms))
        for k in np.flatnonzero(running & (count == 0)).tolist():
            out[k] = TriState.no({"kind": "interval-exclusion", "cells": int(examined[k])})
        over = running & (count > 0) & (examined + count > budget)
        for k in np.flatnonzero(over).tolist():
            out[k] = TriState.unknown({"reason": "subdivision budget", "cells": int(examined[k]), "pending": int(count[k])})
        running &= (count > 0) & ~over
        examined += np.where(running, count, 0)
        keep = running[pf]
        keep[keep] = ~_outside_cap(cap, lo, hi)[pb[keep]]
        lo, hi, pf, pb = _held(lo, hi, pf[keep], pb[keep])
        f_lo, f_hi = _block_enclosure(terms, lo, hi, pf, pb)
        keep = (f_lo <= 0.0) & (0.0 <= f_hi)
        lo, hi, pf, pb = _held(lo, hi, pf[keep], pb[keep])
        rows = np.arange(len(lo))
        j = (hi - lo).argmax(axis=1)
        small = (hi[rows, j] - lo[rows, j] < 1e-6)[pb]
        if small.any():
            first = np.full(len(forms), len(lo))
            np.minimum.at(first, pf[small], pb[small])
            kept = np.bincount(pf, minlength=len(forms))
            for k in np.flatnonzero(first < len(lo)).tolist():
                box = [(float(a), float(b)) for a, b in zip(lo[first[k]], hi[first[k]])]
                out[k] = TriState.unknown(
                    {"reason": "cells too small to split", "cells": int(examined[k]), "pending": 2 * int(kept[k]), "box": box}
                )
            running &= first == len(lo)
            keep = running[pf]
            lo, hi, pf, pb = _held(lo, hi, pf[keep], pb[keep])
            rows = np.arange(len(lo))
            j = (hi - lo).argmax(axis=1)
        mid = 0.5 * (lo[rows, j] + hi[rows, j])
        left_hi, right_lo = hi.copy(), lo.copy()
        left_hi[rows, j] = mid
        right_lo[rows, j] = mid
        lo, hi = np.concatenate([lo, right_lo]), np.concatenate([left_hi, hi])
        pf, pb = np.concatenate([pf, pf]), np.concatenate([pb, pb + len(rows)])
    return out


def _held(lo, hi, pf, pb):
    """The boxes some pair (pf, pb) still holds, in their order, and the
    pairs renumbered onto them."""
    held = np.zeros(len(lo), dtype=bool)
    held[pb] = True
    return lo[held], hi[held], pf, (np.cumsum(held) - 1)[pb]


# Outward-rounded interval arithmetic over arrays of boxes. Every operation
# rounds its result one ulp outward, in the order a scalar evaluation takes:
# the enclosures are those of the term-by-term scalar evaluation bit for bit.


def _down(x):
    return np.nextafter(x, -np.inf)


def _up(x):
    return np.nextafter(x, np.inf)


def _imul(a_lo, a_hi, b_lo, b_hi):
    p, q, r, s = a_lo * b_lo, a_lo * b_hi, a_hi * b_lo, a_hi * b_hi
    return _down(np.minimum(np.minimum(p, q), np.minimum(r, s))), _up(np.maximum(np.maximum(p, q), np.maximum(r, s)))


def _ipow(lo, hi, k: int):
    """[lo, hi]^k for k >= 1, rounded outward as a scalar `x**k` would be.
    Box coordinates are dyadics of at most 22 significant bits, so their
    squares are exact products; higher powers go through Python's float `**`
    (libm pow), which numpy's power and repeated products do not always
    match."""
    if k == 1:
        p_lo, p_hi = lo, hi
    elif k == 2:
        p_lo, p_hi = lo * lo, hi * hi
    else:
        values, inverse = np.unique(np.stack([lo, hi]), return_inverse=True)
        p_lo, p_hi = np.array([x**k for x in values.tolist()])[inverse].reshape(2, -1)
    if k % 2 == 1:
        return _down(p_lo), _up(p_hi)
    nonneg, nonpos = lo >= 0, hi <= 0
    r_lo = np.where(nonneg, _down(p_lo), np.where(nonpos, _down(p_hi), 0.0))
    r_hi = np.where(nonneg, _up(p_hi), np.where(nonpos, _up(p_lo), _up(np.maximum(p_lo, p_hi))))
    return r_lo, r_hi


def _block_terms(forms):
    """The monomials of each form with nonzero coefficients, in basis order,
    padded with zero terms to the widest form, T terms: the coefficients as
    outward intervals a_lo, a_hi (T, forms); the factors of each term, one
    per coordinate i with a nonzero exponent k, in coordinate order, as the
    row k (n + 1) + i of a table of powers, -1 past the last one
    (factor slots, T, forms); and the mask of the real terms (T, forms)."""
    basis = forms[0].basis
    n1 = basis.n + 1
    factors_of = [[k * n1 + i for i, k in enumerate(e) if k] for e in basis.monomials]
    nonzero = [[m for m, a in enumerate(form.coeffs) if a != 0] for form in forms]
    width = max(map(len, nonzero))
    a = np.zeros((2, width, len(forms)))
    factors = np.full((min(basis.d, n1), width, len(forms)), -1)
    for k, (form, cols) in enumerate(zip(forms, nonzero)):
        a[:, : len(cols), k] = np.array([_outward(form.coeffs[m]) for m in cols]).T
        for t, m in enumerate(cols):
            factors[: len(factors_of[m]), t, k] = factors_of[m]
    real = np.arange(width)[:, None] < np.array([len(cols) for cols in nonzero])
    return a[0], a[1], factors, real


def _block_enclosure(terms, lo, hi, pf, pb):
    """Enclosures (f_lo, f_hi) of form pf[r] on box pb[r] (rows of lo, hi)
    for every pair r: each of the form's `_block_terms` is multiplied by its
    factors in coordinate order, powers of the box's coordinates taken once
    per box; then the real terms are summed in order from 0, the padding
    skipped, so no zero term is ever rounded. Pairs go in slices of at most
    _PAIRS << 2 pair terms."""
    a_lo, a_hi, factors, real = terms
    n1 = lo.shape[1]
    table = np.ones((2, int(factors.max()) + 1, len(lo)))  # row k n1 + i: [lo_i, hi_i]^k on each box
    for row in set(factors[factors >= 0].tolist()):
        table[:, row] = _ipow(lo[:, row % n1], hi[:, row % n1], row // n1)
    f_lo, f_hi = np.zeros(len(pf)), np.zeros(len(pf))
    step = max(1, (_PAIRS << 2) // len(a_lo))
    for s in range(0, len(pf), step):
        F, B = pf[s : s + step], pb[s : s + step]
        # the pair terms as flat arrays, term-major. Every real term has a
        # first factor, and the padding terms take any (finite) row there;
        # each later slot multiplies only the terms that have a factor in it
        t_lo, t_hi, B = a_lo[:, F].ravel(), a_hi[:, F].ravel(), np.tile(B, len(a_lo))
        rows = factors[0][:, F].ravel()
        t_lo, t_hi = _imul(t_lo, t_hi, table[0][rows, B], table[1][rows, B])
        for rows in factors[1:]:
            rows = rows[:, F].ravel()
            at = np.flatnonzero(rows >= 0)
            rows, boxes = rows[at], B[at]
            t_lo[at], t_hi[at] = _imul(t_lo[at], t_hi[at], table[0][rows, boxes], table[1][rows, boxes])
        t_lo, t_hi = t_lo.reshape(len(a_lo), -1), t_hi.reshape(len(a_lo), -1)
        s_lo, s_hi, r = f_lo[s : s + step], f_hi[s : s + step], real[:, F]
        for m in range(len(r)):
            np.copyto(s_lo, _down(s_lo + t_lo[m]), where=r[m])
            np.copyto(s_hi, _up(s_hi + t_hi[m]), where=r[m])
    return f_lo, f_hi


def _cap_terms(xi, sigma):
    """The entries of xi as outward intervals (c_lo, c_hi), and
    K = (1 - sigma^2) |xi|^2 (`cap_constant`) rounded down."""
    c_lo, c_hi = np.array([_outward(c) for c in xi]).T
    return c_lo, c_hi, _outward(cap_constant(xi, sigma))[0]


def _outside_cap(cap, lo, hi):
    """Sound test that each box (rows of lo, hi) misses the cap
    {d(x, xi) <= sigma}, given by its `_cap_terms`: outside iff
    <x,xi>^2 < K |x|^2 for every x in the box."""
    c_lo, c_hi, K = cap
    p_lo, p_hi = _imul(lo, hi, c_lo, c_hi)
    q_lo, q_hi = _imul(lo, hi, lo, hi)
    ip_lo = ip_hi = nx_lo = nx_hi = np.zeros(len(lo))
    for i in range(lo.shape[1]):
        ip_lo, ip_hi = _down(ip_lo + p_lo[:, i]), _up(ip_hi + p_hi[:, i])
        nx_lo, nx_hi = _down(nx_lo + q_lo[:, i]), _up(nx_hi + q_hi[:, i])
    _, lhs_hi = _imul(ip_lo, ip_hi, ip_lo, ip_hi)
    rhs_lo, _ = _imul(nx_lo, nx_hi, K, K)
    return lhs_hi < rhs_lo


def _outward(a) -> tuple:
    """The floats (lo, hi) nearest to the rational (or float) a with
    lo <= a <= hi; equal when a is a float."""
    f = float(a)
    if isinstance(a, float) or Fraction(f) == a:
        return f, f
    if Fraction(f) < a:
        return f, math.nextafter(f, math.inf)
    return math.nextafter(f, -math.inf), f


def _direction_grid(n: int, xi_inf) -> np.ndarray:
    """The real decider's direction grid: the primitive rows of [-2, 2]^(n+1)
    with first nonzero entry positive, and an integer approximation of the
    axis, as one int64 array in lexicographic order."""
    grid = np.indices((5,) * (n + 1), dtype=np.int64).reshape(n + 1, -1).T - 2
    grid = grid[(np.gcd.reduce(np.abs(grid), axis=1) == 1) & canonical_sign_mask(grid)]
    scale = 8
    norm = math.sqrt(math.fsum(float(c) ** 2 for c in xi_inf))
    approx = [round(scale * float(c) / norm) for c in xi_inf]
    if any(approx):
        grid = np.unique(np.vstack([grid, approx]), axis=0)
    return grid


def _newton_in_cap(form: Form, v, grads, xi_inf, sigma: float):
    """Certified 1-D Newton line search from a rational cap point v, along
    the two coordinates where the gradient `grads` of f at v is largest."""
    n = form.basis.n
    order = sorted(range(n + 1), key=lambda i: -abs(float(grads[i])))
    for j in order[:2]:
        if grads[j] == 0:
            continue
        coeffs = _line_restriction(form, v, j)
        try:
            root, bound = newton_real_root(coeffs, 0.0)
        except (PreconditionFailed, NonConvergence):
            continue
        # the exact zero z = v + alpha e_j with |alpha| <= bound; stay in cap?
        nv = math.sqrt(float(sum(c * c for c in v)))
        if bound >= 0.5 * nv:
            continue
        drift = bound / (nv - bound)  # d(v + t e_j, v) <= |t| |v| / (|v| (|v|-|t|))
        base = proj_distance_arch(v, xi_inf)
        if base + drift <= sigma - 1e-9:
            point = tuple(float(c) + (root if i == j else 0.0) for i, c in enumerate(v))
            return {"kind": "newton-line", "start": v, "axis": j, "point": point, "distance_bound": bound}
    return None


# ---------------------------------------------------------------------------
# coefficient-ball classification and densities


@dataclass(frozen=True)
class BallClassification:
    p: int
    v: int
    e_p: int
    v_tilde: int
    omega0: int  # balls certified inside the soluble locus
    omega1: int  # balls meeting the soluble locus (exact)
    n_dim: int
    N_dim: int

    @property
    def boundary_upper(self) -> int:
        """Upper count for boundary balls (includes uncertified interiors)."""
        return self.omega1 - self.omega0

    @property
    def paper_boundary_bound(self) -> int:
        return self.p ** (self.v * self.N_dim) // self.p ** (
            self.v - self.v_tilde + (self.n_dim + 1) * min(self.e_p, self.v_tilde)
        )

    def measure_interval(self) -> DensityInterval:
        """Exact enclosure of the prim-coefficient measure of the soluble set."""
        total = Fraction(self.p ** (self.v * self.N_dim))
        return DensityInterval(Fraction(self.omega0) / total, Fraction(self.omega1) / total, "enumeration")

    def rho_interval(self) -> DensityInterval:
        """Projective-space density: measure divided by (1 - p^-N)."""
        norm = 1 - Fraction(1, self.p**self.N_dim)
        m = self.measure_interval()
        return DensityInterval(m.lower / norm, min(m.upper / norm, Fraction(1)), "enumeration")


def classify_balls(
    d: int,
    n: int,
    p: int,
    v: int,
    xi: Optional[PadicApproxVector] = None,
    e_p: int = 0,
    budget: int = 10**7,
) -> BallClassification:
    """Exact Omega_1 / certified Omega_0 classification of coefficient balls.

    A ball B(a, p^-v) meets the soluble-near-xi locus iff some admissible
    residue x mod p^v (primitive, within p^-e_p of xi projectively) has
    <a, nu(x)> == 0 mod p^v: the coefficient vector can then be perturbed
    inside the ball to vanish at an exact lift of x, and conversely any
    exact zero reduces. The ball provably lies inside once additionally
    some <a, nu^(i)(x)> != 0 mod p^v_tilde: the zero then survives every
    coefficient perturbation of size p^-v by the lifting lemma with
    e = v, l = v_tilde - 1.

    The balls are classified digit by digit, as whole classes a mod p^k for
    k = max(e_p, 1), ..., v, each against the admissible residues mod p^k
    (at the first level every one of them; later only the fibres over the
    zeros of the class's parent, since every zero of a child reduces to a
    zero of its parent). A class a mod p^k with k < v falls in one of three
    cases:

    - no admissible zero: no lift meets the locus, since a zero mod p^v
      reduces to one mod p^k; the class is dropped;
    - an admissible zero x with some <a, nu^(i)(x)> a unit: every lift a'
      of a keeps f_a'(x) == 0 mod p^k with the same unit partial, so by the
      lifting lemma with l = 0 (Hensel in one coordinate) it has an
      admissible zero mod p^v with a unit partial, and v_tilde >= 1 makes
      that certifying: all p^((v-k)N) lifts count in Omega_0 and Omega_1.
      The lift moves a coordinate other than the pivot, so it stays
      canonical (and in xi's class): by Euler's relation
      sum_i x_i df/dx_i(x) = d f(x) == 0 mod p with x_pivot = 1, a unit
      pivot partial forces a unit partial off the pivot, also when p | d;
    - otherwise the class descends to its p^N children a + p^k b.

    At k = v the remaining classes take the rule of the first paragraph.
    Every count equals the one of testing each of the p^(vN) balls against
    every admissible residue mod p^v; the budget applies to that nominal
    p^(vN).
    """
    if v < 1 or (e_p > v):
        raise ValueError("need v >= max(e_p, 1)")
    if e_p >= 1 and xi is None:
        raise ValueError("need the target residue when e_p >= 1")
    N = dimension(d, n)
    total = p ** (v * N)
    if total > budget:
        raise EnumerationBudgetExceeded("too many coefficient balls", total)
    v_tilde = min(-(-v // 2), v - e_p + 1)
    basis = monomial_basis(d, n)
    k = max(e_p, 1)
    if e_p >= 1:
        X = _residue_fibre(canonical_residue(xi.entries, xi.p, e_p), p, e_p, k)
    else:
        X = np.concatenate(list(_lexicographic_blocks(n + 1, p)))
    # a job (parents, B, s, R, owner) holds the classes parents[i] + s B[r],
    # for every row r of B, each tested against the residues R[j] with
    # owner[j] == i; at the first level the one parent is 0
    root = np.zeros((1, N), dtype=np.int64)
    first = p ** (k * N)
    blocks = (_grid([p**k] * N, start, min(start + _CHUNK, first)) for start in range(0, first, _CHUNK))
    jobs = ((root, A[(A % p != 0).any(axis=1)], 1, X, np.zeros(len(X), dtype=np.int64)) for A in blocks)
    omega0 = omega1 = 0
    while True:
        mod = p**k
        modt = p**v_tilde if k == v else p
        weight = p ** ((v - k) * N)
        descend = []
        for parents, B, s, R, owner in jobs:
            starts = np.flatnonzero(np.diff(owner, prepend=-1))  # owner is sorted, no parent is empty
            base = parents[owner]
            zero = _class_pairings(base, B, s, veronese_batch(basis, R) % mod, mod) == 0
            good = np.zeros_like(zero)
            for DI in veronese_jet_batch(basis, R) % modt:
                good |= _class_pairings(base, B, s, DI, modt) != 0
            sure = np.logical_or.reduceat(zero & good, starts, axis=1)  # (rows of B, parents)
            rest = np.logical_or.reduceat(zero, starts, axis=1) & ~sure
            omega0 += weight * int(sure.sum())
            omega1 += weight * int(sure.sum())
            if k == v:
                omega1 += int(rest.sum())
                continue
            # each class that descends keeps its own zeros, numbered row-major like np.nonzero(rest)
            label = np.full(rest.shape, -1)
            label[rest] = np.arange(int(rest.sum()))
            r, j = np.nonzero(zero & rest[:, owner])
            b, i = np.nonzero(rest)
            descend.append((parents[i] + s * B[b], R[j], label[r, owner[j]]))
        if k == v:
            return BallClassification(p, v, e_p, v_tilde, omega0, omega1, n, N)
        jobs = _children(descend, p, k)
        k += 1


def _class_pairings(base: np.ndarray, B: np.ndarray, s: int, NU: np.ndarray, mod: int) -> np.ndarray:
    """<base[j] + s B[r], NU[j]> mod `mod` for every row r of B and column j,
    exactly: the parent's share rides along as one more column of NU."""
    shift = row_pairings(base, NU) % mod
    if s % mod == 0:  # s B only adds multiples of `mod`
        return np.broadcast_to(shift, (len(B), len(shift)))
    ones = np.ones((len(B), 1), dtype=np.int64)
    return pairings(np.hstack([s * B, ones]), np.hstack([NU, shift[:, None]])) % mod


def _children(descend, p: int, k: int):
    """The jobs of level k + 1: each class a mod p^k that descends, with its
    zeros Z, has the children a + p^k b for b in [0, p)^N, tested against
    the fibres mod p^(k+1) over Z; classes are batched up to about _CELLS
    children x residues."""
    for classes, Z, owner in descend:
        digits = _grid([p] * classes.shape[1], 0, p ** classes.shape[1])
        width = p ** (Z.shape[1] - 1)  # fibre rows per zero
        batch = np.cumsum(np.bincount(owner) * width * len(digits)) // _CELLS
        cuts = np.flatnonzero(np.diff(batch, prepend=-1))
        for lo, hi in zip(cuts, np.append(cuts[1:], len(classes))):
            zlo, zhi = np.searchsorted(owner, [lo, hi])
            fibres = _residue_fibre(Z[zlo:zhi], p, k, k + 1)
            yield classes[lo:hi], digits, p**k, fibres, np.repeat(owner[zlo:zhi] - lo, width)


def density_sandwich(d: int, n: int, p: int, e_p: int) -> DensityInterval:
    """Exact rational bounds for the prim-coefficient measure of the soluble-
    near-xi locus at a finite place: independent of the target residue.

    (1 - p^(1-N) - p^-n) p^-e  <=  measure  <=  (1 - p^(1-N)) p^-e.
    """
    if e_p < 1:
        raise ValueError("the sandwich needs e_p >= 1")
    N = dimension(d, n)
    pe = Fraction(1, p**e_p)
    hi = (1 - Fraction(1, p ** (N - 1))) * pe
    lo = (1 - Fraction(1, p ** (N - 1)) - Fraction(1, p**n)) * pe
    return DensityInterval(lo, hi, "sandwich")


DEFAULT_TAIL_CONSTANT = Fraction(4)  # measured over small-p enumerations; not a proven value


def local_density(
    d: int,
    n: int,
    p: int,
    xi: Optional[PadicApproxVector] = None,
    e_p: int = 0,
    depth: int = 1,
    budget: int = 10**7,
    tail_constant: Fraction = DEFAULT_TAIL_CONSTANT,
) -> DensityInterval:
    """rho_p interval: enumeration when affordable, else the 1 - C/p^2 tail.

    The tail constant is a recorded measurement (insoluble mass times p^2,
    maxed over the enumerable range), not a constant from first principles.
    """
    v = max(depth, e_p, 1)
    N = dimension(d, n)
    if p ** (v * N) <= budget:
        return classify_balls(d, n, p, v, xi, e_p, budget).rho_interval()
    if e_p > 0:
        raise EnumerationBudgetExceeded("targeted density out of enumeration range")
    lo = 1 - tail_constant / p**2
    return DensityInterval(max(lo, Fraction(0)), Fraction(1), "tail-bound")


def fit_tail_constant(d: int, n: int, pmax: int = 3, budget: int = 10**7) -> Fraction:
    """max over enumerable p of (1 - rho_lower) * p^2: the recorded constant."""
    worst = Fraction(0)
    for p in primes_up_to(pmax):
        if p ** dimension(d, n) > budget:
            break
        interval = local_density(d, n, p, depth=1, budget=budget)
        worst = max(worst, (1 - interval.lower) * p * p)
    return worst


# ---------------------------------------------------------------------------
# finite-field counts


def count_projective_points(form: Form, p: int, budget: int = 10**8) -> int:
    """#V(F_p) by exhaustive enumeration of canonical projective points."""
    n = form.basis.n
    reps = (p ** (n + 1) - 1) // (p - 1)
    if reps > budget:
        raise EnumerationBudgetExceeded("too many projective points", reps)
    a = np.array([[c % p for c in form.coeffs]], dtype=np.int64)
    return sum(int((pairings(a, V) % p == 0).sum()) for _, V, _ in _residue_tables(form.basis, p))
