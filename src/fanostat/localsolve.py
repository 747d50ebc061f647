"""Local solubility of hypersurfaces: exact searches, sound verdicts, densities.

Solubility of f = 0 over Q_p near a target point is only semidecidable, so
every decision routine returns a TriState:

- yes: carries a certificate that re-verifies independently. At a prime p it
  is a LiftCertificate (a residue zero meeting Hensel's hypotheses) or an
  ExactZeroCertificate (an exact integer zero); both record the radius
  p^-e_p around the caller's target that `padic.verify_certificate` checks.
  Over R it is an exact-zero, sign-change or odd-degree certificate, which
  `verify_real_certificate` checks, or a quadric's signature;
- no: carries the depth at which an exhaustive residue search emptied out
  (sound: an exact zero would reduce); over R a quadric's signature, an
  S-lemma certificate that `_s_lemma_holds` checks, or the boxes a
  Bernstein search of the real cap examined;
- unknown: carries the `reason` the search stopped: at a prime "node
  budget", "depth budget" or "int64 range"; over R "subdivision budget",
  with the boxes examined (`cells`) and the unexamined frontier (`pending`).

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
tables of the frontier fibres; `count_projective_points` reads the same
cached table.

The real decider works the same way on a block of forms on one basis
(`decide_real_batch`, whose docstring gives the order of the real-place
checks): one exact product against the cached cap grid gives every form's
grid zeros and sign changes; quadrics then take one step,
`_quadric_verdicts`: the exact signature, or in a cap one trust-region
solve for the whole batch (its multiplier a no, its minimiser a yes); and
one product against the cached Bernstein tensors of the cap's affine chart
starts a breadth-first search of every form left on one flat frontier, a
column per (form, box) with the box's coefficients of f and of q: a level is
a few whole-array passes, its split one matrix product per tensor, and the
frontier splits in two by forms whenever a level would pass its share of
_CELLS coefficients. The yes certificates of a step are re-checked
together, in one exact array pass (`_real_certificate_faults`).

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

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import EnumerationBudgetExceeded, HypothesisFailed
from .geom import cap_matrix, cone_member, integer_axis
from .intlinalg import bareiss_det
from .numtheory import crt_combine, primes_up_to, unit_class_mask
from .padic import (
    ExactZeroCertificate,
    PadicApproxVector,
    lift_hypersurface_point,
)
from .veronese import (
    Form,
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

_CHUNK = 1 << 14  # rows per residue, coefficient or Monte-Carlo sample block: bounds peak memory
_CELLS = _CHUNK << 7  # entries a batch holds at once (ball classes, point grids, Bernstein tensors): bounds peak memory


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
    """M as int16, int32 or int64, the first that holds its entries, else
    unchanged."""
    bound = int(np.abs(M).max(initial=0))
    for dtype in (np.int16, np.int32, np.int64):
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


def decide_padic_batch(
    forms,
    p: int,
    xi: Optional[PadicApproxVector] = None,
    e_p: int = 0,
    depth_budget: int = 3,
    node_budget: int = 10**7,
) -> list:
    """Does each of the forms (all on one basis) have a Q_p point within
    p^-e_p of xi? One TriState per form, never an exception for a budget; a
    single form is a one-form list.

    With xi None (or e_p = 0) this is plain Q_p-solubility. Searches residue
    zeros level by level; `yes` once some residue zero x mod p^v centres to an
    exact integer zero (ExactZeroCertificate) or has a partial derivative of
    valuation l < v/2 with v - l >= e_p, so that Hensel's lemma puts a
    Q_p-zero within p^-e_p of xi (LiftCertificate); `no` once a level holds
    no admissible residue zero (sound: exact zeros reduce); `unknown` when a
    budget or int64 stops it (below). A `yes` certificate records radius e_p
    and re-verifies against xi with `padic.verify_certificate`.

    Budget: the starting residues (every point of P^n(F_p), or xi's class)
    depend only on (p, n, e_p), so past node_budget every form is unknown;
    each later level costs p^n nodes per frontier residue, cumulatively, per
    form. An `unknown` names its `reason`: "node budget" (with the `nodes`),
    "depth budget" (the `depth` and `frontier` where the levels ran out) or
    "int64 range" (a level's `modulus` p^v >= 2^63).

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
    if start > node_budget:
        return [TriState.unknown({"reason": "node budget", "nodes": start}) for _ in forms]
    if p**v0 >= 2**63:
        return [TriState.unknown({"reason": "int64 range", "modulus": p**v0}) for _ in forms]
    xi_class = [_table(basis, np.array([canonical_residue(xi.entries, xi.p, e_p)]), p**e_p)] if e_p >= 1 else None
    size = max(1, _CHUNK // start)
    out = []
    for lo in range(0, len(forms), size):
        block = forms[lo : lo + size]
        rows, Z, E = _start_zeros(block, xi_class or _residue_tables(basis, p), p**v0)
        cuts = np.searchsorted(rows, np.arange(len(block) + 1)).tolist()
        for form, a, b in zip(block, cuts, cuts[1:]):
            out.append(_search_levels(form, p, e_p, v0, Z[a:b], E[a:b], depth_budget, node_budget))
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
    """The level-by-level search of `decide_padic_batch` from the zeros
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
        if v >= max(depth_budget, v0):
            return TriState.unknown({"reason": "depth budget", "depth": v, "frontier": len(Z)})
        if p ** (v + 1) >= 2**63:
            return TriState.unknown({"reason": "int64 range", "modulus": p ** (v + 1)})
        nodes += len(Z) * p**n
        if nodes > node_budget:
            return TriState.unknown({"reason": "node budget", "nodes": nodes})
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
    """The LiftCertificate of the residue zero x mod p^v at l = l*, if
    Hensel's hypotheses hold and the Q_p-zero they give provably lies within
    p^-e_p of the target; None otherwise.

    That zero is within p^-(v - l*) of x, and x within p^-e_p of the target,
    so the certificate records radius e_p, not v - l*;
    `lift_hypersurface_point` refuses it when e_p > v - l*."""
    try:
        return lift_hypersurface_point(form, PadicApproxVector.from_integers(p, v, x), v, radius=e_p)
    except HypothesisFailed:
        return None


# ---------------------------------------------------------------------------
# real membership decision


def decide_real_batch(forms, xi_inf, sigma_inf, subdivision_budget: int = 20000) -> list:
    """Does each of the forms (all on one basis) vanish at a real point
    within projective distance sigma of xi? Its TriState; a single form is a
    one-form list. Every form takes the first of these steps that decides
    it, in this order, the one order of the checks at the real place:

    1. the cap grid (`_cap_grid`): one exact product of the coefficient rows
       of a block of at most _CELLS form x grid-point pairs against the
       grid's Veronese rows, every point on the cap's convex side
       <w, xi> >= 0. yes on an integer zero of f in the cap (`exact-zero`),
       or on two grid points with f of opposite signs (`sign-change`);
    2. sigma = 1 and an odd degree: yes (`odd-degree`);
    3. quadrics (`_quadric_verdicts`): at sigma = 1 the exact signature of
       2M (`quadric_matrix`), since a real quadric has a point iff it is not
       definite (`quadric-signature` yes, `quadric-definite` no); in a cap,
       sigma < 1, one trust-region solve of the minimum of s f over it for
       the whole batch: no on the S-lemma certificate its multiplier gives
       (`s-lemma`), else yes on integer points near its minimiser;
    4. the Bernstein search of the cap's affine chart (`_chart_verdicts`),
       every form left on one frontier of boxes, which splits in two by
       forms whenever a level would pass its share of _CELLS coefficients;
       `subdivision_budget` boxes per form. yes on two corners of a box with
       f of opposite signs (`sign-change`); no when it drops every box
       (`bernstein-exclusion`, with the `cells` examined); unknown when the
       next level would take the boxes examined past the budget, with the
       `reason`, the `cells` examined and the `pending` boxes of that level.

    An `exact-zero`, `sign-change` or `odd-degree` yes re-verifies with
    `verify_real_certificate`, an `s-lemma` no with `_s_lemma_holds`. The
    steps cannot disagree: a form with an S-lemma certificate has no zero
    and no sign change in the cap. A form's verdict does not depend on the
    other forms. sigma must lie in (0, 1] (ValueError otherwise).

    The search (Garloff, "The Bernstein algorithm", Interval Computations
    1993) splits a whole level at a time, at the midpoint of its widest axis
    in chart coordinates (the lowest on ties), by de Casteljau as one matrix
    product (`_halves`). A box leaves
    when every tensor Bernstein coefficient of q (q <= 0 is the cap) lies
    above the rounding band, or every one of f beyond it with one sign; it
    gives yes when two corners have q below the band and f beyond it with
    opposite signs. The float64 coefficients stay within `_band` of the
    exact integer ones (Farouki and Rajan, "On the numerical condition of
    polynomials in Bernstein form", CAGD 1987), so every sign read is exact.
    """
    xi, sigma = tuple(xi_inf), Fraction(sigma_inf)
    if not 0 < sigma <= 1:
        raise ValueError("sigma_inf must lie in (0, 1]")
    if not forms:
        return []
    basis = forms[0].basis
    points, _, V = _cap_grid(basis, xi, sigma)
    step = max(1, _CELLS // max(len(points), 1))
    out = [None] * len(forms)
    for lo in range(0, len(forms) if points else 0, step):
        vals = pairings(coefficient_matrix(forms[lo : lo + step]), V)
        # each form's first zero, first positive and first negative column
        masks = (vals == 0, vals > 0, vals < 0)
        firsts = [m.argmax(axis=1) for m in masks]
        rows = np.arange(len(vals))
        has_zero, has_pos, has_neg = (m[rows, j] for m, j in zip(masks, firsts))
        zero, pos, neg = (j.tolist() for j in firsts)
        for k in np.flatnonzero(has_zero | (has_pos & has_neg)).tolist():
            if has_zero[k]:
                out[lo + k] = TriState.yes({"kind": "exact-zero", "point": points[zero[k]]})
            else:
                out[lo + k] = TriState.yes({"kind": "sign-change", "positive": points[pos[k]], "negative": points[neg[k]]})
    if sigma == 1 and basis.d % 2 == 1:
        return [TriState.yes({"kind": "odd-degree"}) if res is None else res for res in out]
    rest = [k for k, res in enumerate(out) if res is None]
    if basis.d == 2 and rest:
        for k, res in zip(rest, _quadric_verdicts([forms[k] for k in rest], xi, sigma)):
            out[k] = res
        rest = [k for k in rest if out[k] is None]
    if rest:
        for k, res in zip(rest, _chart_verdicts([forms[k] for k in rest], xi, sigma, subdivision_budget)):
            out[k] = res
    return out


def verify_real_certificate(form: Form, xi_inf, sigma_inf, cert) -> None:
    """Re-check a real `yes` certificate from scratch, exactly; raises
    HypothesisFailed on any failure. The one-form case of
    `_real_certificate_faults`, which lists the checks."""
    _reverify([form], xi_inf, sigma_inf, [cert])


def _reverify(forms, xi_inf, sigma_inf, certs) -> None:
    """Raise HypothesisFailed on the first fault `_real_certificate_faults`
    finds among the certificates."""
    fault = next(filter(None, _real_certificate_faults(forms, xi_inf, sigma_inf, certs)), None)
    if fault:
        raise HypothesisFailed("re-verify", fault)


def _real_certificate_faults(forms, xi_inf, sigma_inf, certs) -> list:
    """Re-check real `yes` certificates, one per form (all on one basis),
    from scratch and exactly, in one array pass: the fault of each, a
    string, or None where it holds.

    - exact-zero: `point` is an integer point of the cap with f = 0;
    - sign-change: `positive` and `negative` are integer points of the cap
      with f > 0 and f < 0 there, and the segment between them stays in the
      cap and off the origin: for sigma < 1 both lie on the side
      <w, xi> > 0, which is convex; for sigma = 1 they are not antiparallel;
    - odd-degree: sigma = 1 and an odd d, so f(-x) = -f(x).

    Every point goes through one `cone_member` and one exact `row_pairings`
    of its form's coefficients against its Veronese row; the sides and the
    antiparallel test are taken in Python integers."""
    sigma = Fraction(sigma_inf)
    faults, points, owners = [None] * len(certs), [], []
    for i, (form, cert) in enumerate(zip(forms, certs)):
        kind = cert.get("kind")
        ws = [cert.get(key) for key in {"exact-zero": ["point"], "sign-change": ["positive", "negative"]}.get(kind, [])]
        if kind == "odd-degree":
            if sigma != 1 or form.basis.d % 2 == 0:
                faults[i] = "odd-degree needs sigma = 1 and an odd degree"
        elif ws and all(
            isinstance(w, tuple) and len(w) == form.basis.n + 1 and all(type(c) is int for c in w) and any(w) for w in ws
        ):
            points += [ws[0], ws[-1]]  # an exact zero's point twice
            owners.append(i)
        else:
            faults[i] = f"{kind!r} needs nonzero integer points"
    if not owners:
        return faults
    basis = forms[0].basis
    try:
        X = np.array(points, dtype=np.int64)
    except OverflowError:
        X = np.array(points, dtype=object)
    A = np.repeat(coefficient_matrix([forms[i] for i in owners]), 2, axis=0)
    values = row_pairings(A, veronese_batch(basis, X)).reshape(-1, 2).tolist()
    in_cap = cone_member(xi_inf, sigma, X).reshape(-1, 2).all(axis=1).tolist()
    W = X.astype(object).reshape(-1, 2, basis.n + 1)
    if sigma < 1:
        apart = ((W @ np.array(integer_axis(xi_inf), dtype=object)).min(axis=1) > 0).tolist()
    else:  # not antiparallel: <pos, neg> >= 0, or some 2 x 2 minor of (pos, neg) is not 0
        pos, neg = W[:, 0], W[:, 1]
        minors = pos[:, :, None] * neg[:, None, :] - pos[:, None, :] * neg[:, :, None]
        apart = (((pos * neg).sum(axis=1) >= 0) | (minors != 0).any(axis=(1, 2))).tolist()
    for i, cap, (a, b), ok in zip(owners, in_cap, values, apart):
        if not cap:
            faults[i] = "a point lies outside the cap"
        elif certs[i]["kind"] == "exact-zero" and a != 0:
            faults[i] = "point is not an exact zero of the form"
        elif certs[i]["kind"] == "sign-change" and not (a > 0 > b and ok):
            faults[i] = "f does not change sign along a segment in the cap"
    return faults


@lru_cache(maxsize=32)
def _cap_grid(basis, xi: tuple, sigma):
    """The direction-grid points in the cap, each turned once to the side
    <w, xi> >= 0 (w = +-v) and kept in grid order: as tuples, for
    certificates; as one int64 array of primitive rows; and their Veronese
    rows. Cached, because a census asks for the same cap for every form;
    hence tuples and read-only arrays."""
    u = np.array(integer_axis(xi), dtype=object)  # raises on a zero axis
    grid = _direction_grid(basis.n, xi)
    X = grid[cone_member(xi, sigma, grid)]
    X = np.where(np.asarray(X.astype(object) @ u < 0, dtype=bool)[:, None], -X, X)
    V = veronese_batch(basis, X)
    X.flags.writeable = V.flags.writeable = False
    return tuple(map(tuple, X.tolist())), X, V


def _direction_grid(n: int, xi_inf) -> np.ndarray:
    """The real decider's direction grid: the primitive rows of [-2, 2]^(n+1)
    with first nonzero entry positive, and the integer approximation
    round(8 xi/|xi|) of the axis divided by its gcd, as one int64 array of
    primitive rows in lexicographic order. The cube is cut directly: the
    `integer_ball` that holds it grows faster with n."""
    grid = np.indices((5,) * (n + 1), dtype=np.int64).reshape(n + 1, -1).T - 2
    first = grid[np.arange(len(grid)), (grid != 0).argmax(axis=1)]
    grid = grid[(np.gcd.reduce(np.abs(grid), axis=1) == 1) & (first > 0)]
    scale = 8
    norm = math.sqrt(math.fsum(float(c) ** 2 for c in xi_inf))
    approx = [round(scale * float(c) / norm) for c in xi_inf]
    if any(approx):
        g = math.gcd(*approx)
        grid = np.unique(np.vstack([grid, [c // g for c in approx]]), axis=0)
    return grid


@lru_cache(maxsize=32)
def _chart(basis, xi: tuple, sigma):
    """The cap as integer affine patches x = c + L s over s in [0, 1]^n, with
    the tensors of the chart search, cached like `_cap_grid`: the patches
    (c, L); the box half-widths T, which set the widest axis; F, whose row m
    holds the tensor Bernstein coefficients of x^m on each patch (degree d
    per axis), so a coefficient row times F gives those of f; and Q, those
    of q (degree 2), which is <= 0 exactly on the cap. Each tensor is the
    exact one times a positive integer.

    sigma < 1: one patch. With the integer axis u and k its first largest
    entry, b_j = u_k e_j - u_j e_k (j != k) span u^perp, and every cap point
    has one representative x = u + B t, with q = t^T G t - R^2 <= 0,
    G = B^T B, R^2 = sigma^2 |u|^2 / (1 - sigma^2). That ellipsoid lies in
    the box |t_j| <= T_j = ceil(R sqrt((G^-1)_jj)), and t = T (2 s - 1).
    sigma = 1, for even d: the n + 1 faces x_k = 1, the other coordinates
    2 s - 1, and q = -1; every point of P^n is +-x for an x on a face.
    """
    d, n = basis.d, basis.n
    if sigma == 1:
        T, Q, m = (1,) * n, np.full((n + 1, 3**n), -1), range(n + 1)
        patches = [([2 * (i == k) - 1 for i in m], [[2 * (i == o) for o in m if o != k] for i in m]) for k in m]
    else:
        u = integer_axis(xi)
        k = max(range(n + 1), key=lambda i: abs(u[i]))
        B = [[u[k] * (i == j) - u[j] * (i == k) for j in range(n + 1) if j != k] for i in range(n + 1)]
        G = [[sum(row[a] * row[b] for row in B) for b in range(n)] for a in range(n)]
        R2 = sigma**2 * sum(c * c for c in u) / (1 - sigma**2)
        minors = [bareiss_det([r[:j] + r[j + 1 :] for r in G[:j] + G[j + 1 :]]) for j in range(n)]
        T = tuple(math.isqrt(math.ceil(R2 * m / bareiss_det(G)) - 1) + 1 for m in minors)
        L = [[2 * t * b for b, t in zip(row, T)] for row in B]
        patches = [([c - sum(b * t for b, t in zip(row, T)) for c, row in zip(u, B)], L)]
        # den(R^2) q = den(R^2) (|x - u|^2 - R^2), with x - u = B t
        squares = sum(_bernstein([(c - a, row)] * 2, 2, n) for c, a, row in zip(patches[0][0], u, L))
        Q = _narrow(np.array([R2.denominator * squares - R2.numerator * _bernstein([], 2, n)]))
    rows = [
        np.concatenate([_bernstein([(c[i], L[i]) for i, e in enumerate(exps) for _ in range(e)], d, n) for c, L in patches])
        for exps in basis.monomials
    ]
    F = _narrow(np.array(rows))
    F.flags.writeable = Q.flags.writeable = False
    return tuple((tuple(c), tuple(map(tuple, L))) for c, L in patches), T, F, Q


def _bernstein(factors, k: int, n: int) -> np.ndarray:
    """The tensor Bernstein coefficients on [0, 1]^n, degree k per axis, of
    the product of at most k affine factors (c, v) = c + sum_j v_j s_j,
    times lcm_a C(k, a) per axis: b_beta = sum over alpha <= beta of
    prod_j C(beta_j, alpha_j) / C(k, alpha_j) a_alpha for the power-basis
    coefficients a. Python integers, flat, the last axis fastest."""
    P = np.zeros((k + 1,) * n, dtype=object)
    P[(0,) * n] = 1
    for c, v in factors:  # the degree is below k, so np.roll wraps zeros only
        P = c * P + sum(vj * np.roll(P, 1, axis=j) for j, vj in enumerate(v))
    D = math.lcm(*(math.comb(k, a) for a in range(k + 1)))
    W = np.array([[math.comb(b, a) * (D // math.comb(k, a)) for a in range(k + 1)] for b in range(k + 1)], dtype=object)
    for axis in range(n):
        P = np.moveaxis(np.tensordot(W, P, axes=([1], [axis])), 0, axis)
    return P.ravel()


def _band(top, rounds: int):
    """The rounding band: from an exact integer tensor of largest size `top`,
    a float64 coefficient after s splits of degree k, rounds = k s, lies
    within 2 (rounds + 1) u top of the exact one, u = 2^-53.

    Every exact coefficient is a convex combination of the first ones, so it
    is at most top in size, and the conversion errs by at most u top. A split
    (`_halves`) gives each coefficient as a (k + 1)-term dot product with
    nonnegative weights summing to 1: the exact split of the computed inputs
    carries their error e over at most unchanged, and the dot product rounds
    by at most gamma_(k+1) (top + e), gamma_m = m u / (1 - m u), in any
    summation order, fused or not (the enclosure of Farouki and Rajan, "On
    the numerical condition of polynomials in Bernstein form", CAGD 1987).
    After s splits that is (1 + (k + 1) s) u top up to terms in u^2, within
    2 (k s + 1) u top, since (k + 1) s + 1 <= 2 k s + 2 for k >= 1; the
    slack ((k - 1) s + 1) u top covers the terms in u^2 and the band's own
    rounding."""
    return (2 * (rounds + 1) * 2.0**-53) * top


@lru_cache(maxsize=None)
def _split_matrix(k: int, dtype) -> np.ndarray:
    """De Casteljau at the midpoint, degree k, as one (2k + 2, k + 1) matrix
    times 2^k: row i gives the i-th Bernstein coefficient of the left half,
    C(i, j) 2^(k - i) times coefficient j <= i, row k + 1 + i that of the
    right half, C(k - i, j - i) 2^i times coefficient j >= i. Python integers
    for object arrays, so an exact split scales by 2^k and keeps signs; over
    2^k, exactly, for float64 ones. Read-only, since cached."""
    left = [[math.comb(i, j) << (k - i) for j in range(k + 1)] for i in range(k + 1)]
    right = [[math.comb(k - i, j - i) << i if j >= i else 0 for j in range(k + 1)] for i in range(k + 1)]
    S = np.array(left + right, dtype=object)
    S = S if dtype == object else S.astype(dtype) / 2**k
    S.flags.writeable = False
    return S


def _halves(T: np.ndarray, k: int, axis: int) -> np.ndarray:
    """The tensor Bernstein coefficients of degree k per axis in the columns
    of T (one box a column, flat, the last axis fastest) on the two halves
    of their boxes along `axis`: one matrix product of `_split_matrix`
    against that axis. Every left half, then every right one. Exact on
    Python integers, times 2^k (`_split_matrix`), within `_band` on floats.

    numpy hands a product with one column to a matrix-vector kernel, whose
    roundings differ from those of the matrix-matrix one, so a lone column
    goes in twice: a box's halves then do not depend on the other boxes."""
    size, boxes = T.shape
    pre = (k + 1) ** axis
    post = size // (pre * (k + 1))
    S, X = _split_matrix(k, T.dtype), T.reshape(pre, k + 1, post * boxes)
    H = (S @ np.concatenate([X, X], axis=2))[:, :, :1] if X.shape[2] == 1 else S @ X
    return H.reshape(pre, 2, k + 1, post, boxes).transpose(0, 2, 3, 1, 4).reshape(size, 2 * boxes)


def _chart_verdicts(forms, xi: tuple, sigma, budget: int) -> list:
    """The chart search of `decide_real_batch` for forms on one basis, on one
    flat frontier: a column per (form, box) holds the box's float Bernstein
    coefficients of f and of q, and one int64 array the box's form, patch
    and offsets (Python integers once an axis is halved 62 times). A level
    is one `bincount` of the columns by form, one keep mask, one compaction,
    the two splits of `_halves` and one duplication of the index columns;
    corners are read only when some column straddles the band. Each form
    holds its boxes in the order its one-form search would (the left
    children before the right ones), keeps its own band, budget check,
    `cells` and `pending`, and takes its yes at its first box with a sign
    change, from the first positive and the first negative corner; a
    level's yes certificates are re-checked together (`_reverify`).

    Memory: a level holds at most _CELLS / 10 coefficients before its
    split, which holds five times that at once (the boxes, the matrix
    product and the halves), so a level stays within half of _CELLS; levels
    that small also stay in cache. The forms start in blocks whose first
    level fits. Whenever a frontier's next level would pass the bound, the
    frontier splits in two by forms, about half its boxes each, and the
    parts are finished one after the other, the later one waiting as it
    stands, so at most one part per halving of the forms waits. A single
    form is not split: its budget bounds its boxes."""
    basis = forms[0].basis
    d, n = basis.d, basis.n
    patches, T, rows, Q0 = _chart(basis, xi, sigma)
    width = (d + 1) ** n + 3**n  # the coefficients of a box
    corners = list(itertools.product((0, 1), repeat=n))
    f_corners, q_corners = (np.ravel_multi_index((k * np.array(corners)).T, (k + 1,) * n)[:, None] for k in (d, 2))
    top_q, Q0 = float(np.abs(Q0).max()), np.asarray(Q0, dtype=np.float64).T
    top, examined = np.zeros(len(forms)), np.zeros(len(forms), dtype=np.int64)
    out = [None] * len(forms)
    step = max(1, _CELLS // (10 * len(patches) * width))
    for lo in range(0, len(forms), step):
        block = np.arange(lo, min(lo + step, len(forms)))
        exact = pairings(coefficient_matrix(forms[lo : lo + step]), rows.T)
        top[block] = np.abs(exact).max(axis=1)
        ids = np.zeros((n + 2, len(block) * len(patches)), dtype=np.int64)
        ids[0], ids[1] = np.repeat(block, len(patches)), np.tile(np.arange(len(patches)), len(block))
        mine = np.zeros(len(forms), dtype=bool)
        mine[block] = True
        # a frontier: its boxes, its forms still open, and the axis j its
        # boxes split along next (None before its first level)
        F = np.asarray(exact, dtype=np.float64).reshape(len(block) * len(patches), -1).T
        parts = [(F, np.tile(Q0, len(block)), ids, mine, (0,) * n, None)]
        while parts:
            F, Q, ids, mine, depth, j = parts.pop()
            while True:
                if j is not None:
                    F, Q = _halves(F, d, j), _halves(Q, 2, j)
                    ids = np.concatenate([ids, ids], axis=1).astype(object if depth[j] >= 62 else ids.dtype, copy=False)
                    ids[2 + j] *= 2
                    ids[2 + j, ids.shape[1] // 2 :] += 1
                    depth = depth[:j] + (depth[j] + 1,) + depth[j + 1 :]
                form = ids[0].astype(np.int64, copy=False)
                count = np.bincount(form, minlength=len(forms))
                ended = mine & ((count == 0) | (examined + count > budget))
                dropped = ended.any()
                if dropped:
                    for k in np.flatnonzero(ended).tolist():
                        cells, pending = int(examined[k]), int(count[k])
                        if pending:
                            out[k] = TriState.unknown({"reason": "subdivision budget", "cells": cells, "pending": pending})
                        else:
                            out[k] = TriState.no({"kind": "bernstein-exclusion", "cells": cells})
                    mine &= ~ended
                if not mine.any():
                    break
                examined += count
                band_q, band = _band(top_q, 2 * sum(depth)), _band(top, d * sum(depth))[form]
                lo_f, hi_f = F.min(axis=0), F.max(axis=0)
                keep = (Q.min(axis=0) <= band_q) & (lo_f <= band) & (hi_f >= -band)
                if dropped:
                    keep &= mine[form]
                straddle = np.flatnonzero(keep & (lo_f < -band) & (hi_f > band))
                if len(straddle):
                    # the values of f at the box corners in the cap, 0 at the others
                    at = np.where(Q[q_corners, straddle] < -band_q, F[f_corners, straddle], 0.0)
                    cut = band[straddle]
                    hits = np.flatnonzero((at > cut).any(axis=0) & (at < -cut).any(axis=0))
                    if len(hits):
                        # each form's first box with a sign change
                        hits = hits[np.unique(form[straddle[hits]], return_index=True)[1]]
                        done, certs = form[straddle[hits]], []
                        for h, r in zip(hits.tolist(), straddle[hits].tolist()):
                            where = (patches[ids[1, r]], ids[2:, r].tolist(), depth)
                            pos, neg = (corners[int(m.argmax())] for m in (at[:, h] > cut[h], at[:, h] < -cut[h]))
                            certs.append(
                                {"kind": "sign-change", "positive": _corner(*where, pos), "negative": _corner(*where, neg)}
                            )
                        _reverify([forms[k] for k in done.tolist()], xi, sigma, certs)
                        for k, cert in zip(done.tolist(), certs):
                            out[k] = TriState.yes(cert)
                        mine[done] = False
                        keep &= mine[form]
                F, Q, ids, form = F[:, keep], Q[:, keep], ids[:, keep], form[keep]
                # every box of the level has one shape: split its widest axis
                j = max(range(n), key=lambda a: (math.ldexp(T[a], -depth[a]), -a))
                while 10 * len(form) * width > _CELLS and np.count_nonzero(mine) > 1:
                    members = np.flatnonzero(mine)
                    held = np.cumsum(np.bincount(form, minlength=len(forms))[members])
                    later = mine.copy()
                    later[members[: min(int(np.searchsorted(held, held[-1] / 2)) + 1, len(members) - 1)]] = False
                    mine &= ~later
                    sel = later[form]
                    parts.append((F[:, sel], Q[:, sel], ids[:, sel], later, depth, j))
                    F, Q, ids, form = F[:, ~sel], Q[:, ~sel], ids[:, ~sel], form[~sel]
    return out


def _corner(patch, offsets, depth, bits) -> tuple:
    """The primitive integer point c + L s at the corner `bits` of the box
    s_j in [a_j, a_j + 1] / 2^depth_j, a = `offsets`, of the patch (c, L)."""
    c, L = patch
    s = [(a + b) << (max(depth) - e) for a, b, e in zip(offsets, bits, depth)]
    w = [(ci << max(depth)) + sum(x * y for x, y in zip(row, s)) for ci, row in zip(c, L)]
    return tuple(x // math.gcd(*w) for x in w)


# ---------------------------------------------------------------------------
# quadrics at the real place (d = 2): the signature and the S-lemma


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


def _indefinite(mat) -> bool:
    """Whether the quadric with matrix 2M = `mat` has a real zero: 2M is
    neither positive nor negative definite."""
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


def _trust_region(mats, xi, sigma) -> tuple:
    """The minimum of s f over the cap {d(x, xi) <= sigma}, sigma < 1, for
    each quadric 2M by one batched trust-region solve (Moré and Sorensen,
    1983): on the chart x = u + W z, |z| <= 1, 2 s f / scale = z^T A z +
    2 b^T z + c, c >= 0; one `eigh` of A, Newton steps from the left on
    1/|z(mu)| = 1, z(mu) = -(A + mu I)^-1 b, a top-up along the least
    eigenvector in the hard case. Per form: s, mu, the minimum g = c - mu -
    b^T (A + mu I)^-1 b, scale, and the minimiser u + W z.

    Newton's stopping test is global to the batch, so a form's floats can
    move in their last bits with its batch. In the batches of every quadric
    surface of height 3/2 and of height 2, in census-cap's 8 directions at
    sigma in {1/5, 1/2, 3/4}, the S-lemma leaves 4,840 open; 8 of them get
    other minimiser bits when solved apart, and none another certificate."""
    uf = np.array(integer_axis(xi), dtype=float)
    R = np.linalg.norm(uf) * math.sqrt(Fraction(sigma) ** 2 / (1 - Fraction(sigma) ** 2))  # the cap: |x - u| <= R
    W = R * np.linalg.qr(np.column_stack([uf, np.eye(len(uf))]))[0][:, 1:]  # R times a basis of u^perp
    S = np.array(mats, dtype=float).reshape(-1, len(uf), len(uf))
    sign = np.where(S @ uf @ uf < 0, -1.0, 1.0)
    A, b, c = sign[:, None, None] * (W.T @ S @ W), sign[:, None] * (S @ uf @ W), sign * (S @ uf @ uf)
    scale = np.maximum(c, np.maximum(np.abs(A).max(axis=(1, 2)), np.abs(b).max(axis=1)))
    lam, V = np.linalg.eigh(A / scale[:, None, None])
    bt, c = np.einsum("kji,kj->ki", V, b) / scale[:, None], c / scale
    mu = np.maximum(np.maximum(0.0, -lam[:, 0]), (np.abs(bt) - lam).max(axis=1))  # |z(mu)| >= 1 here
    for _ in range(50):  # a bound; from the left Newton converges quadratically
        D = np.maximum(lam + mu[:, None], 2.0**-40)  # below, the rounding noise of `eigh`
        y = -bt / D
        norm2, slope = (y * y).sum(axis=1), (y * y / D).sum(axis=1)
        step = np.divide(norm2 * (np.sqrt(norm2) - 1), slope, out=np.zeros_like(mu), where=norm2 > 1)
        if not (step > 2.0**-52 * mu).any():
            break
        mu = mu + step
    dual = c - mu + (bt * y).sum(axis=1)
    y[:, 0] += np.where((mu > 0) & (norm2 < 1), np.where(bt[:, 0] > 0, -1.0, 1.0), 0.0) * np.sqrt(np.maximum(1 - norm2, 0))
    return sign.astype(int).tolist(), mu.tolist(), dual.tolist(), scale.tolist(), uf + (V @ y[:, :, None])[:, :, 0] @ W.T


def _quadric_verdicts(forms, xi, sigma) -> list:
    """Step 3 of `decide_real_batch`: a TriState, or None if still open, for
    each quadric on one basis. At sigma = 1 the exact signature of 2M. In a
    cap, sigma < 1, one `_trust_region` solve for the batch gives both sides.
    no: on its chart s 2M - tau G (`geom.cap_matrix`) is scale [[c - mu',
    b^T], [b, A + mu' I]], mu' = tau sigma^2 |u|^2 |xi|^2 / scale, positive
    definite iff A + mu' I is and g(mu') > 0 (the S-lemma; Polik and Terlaky
    2007); g is concave with slope >= -1, so tau at mu + g/2 is rounded
    through its convergents, simplest first, each within g/2 checked by
    `_s_lemma_holds`. yes, for the forms still open: with u the primitive
    integer axis and w the primitive roundings of m x/|x|_inf of the
    minimiser x (small m meet a double zero of small height, m = 2^k a sign
    change), `exact-zero` at u, else `sign-change` at the first w with
    f(w) f(u) < 0, else `exact-zero` at one with f(w) = 0; one exact pass
    tests every w, and one more (`_reverify`) re-checks every yes."""
    mats = [quadric_matrix(form) for form in forms]
    if sigma == 1:
        soluble = [_indefinite(mat) for mat in mats]
        return [TriState("yes" if s else "no", {"kind": "quadric-signature" if s else "quadric-definite"}) for s in soluble]
    cap, u = cap_matrix(xi, sigma), integer_axis(xi)
    den = Fraction(sigma) ** 2 * sum(c * c for c in u) * sum(Fraction(c) ** 2 for c in xi)
    signs, mus, gs, scales, X = _trust_region(mats, xi, sigma)
    out = []
    for mat, sign, mu, g, scale in zip(mats, signs, mus, gs, scales):
        (a, b), (c, e), cert = (mu + g / 2).as_integer_ratio(), scale.as_integer_ratio(), None
        a, b, h, k, h1, k1 = a * c * den.denominator, b * e * den.numerator, 1, 0, 0, 1  # tau = a/b
        tau, margin = a / b, g / 2 * scale / float(den)
        while g > 0 and b and cert is None:
            (q, r), a = divmod(a, b), b
            h, k, h1, k1, b = q * h + h1, q * k + k1, h, k, r
            if (not b or abs(h / k - tau) <= margin) and _s_lemma_holds(mat, cap, sign, Fraction(h, k)):
                cert = {"kind": "s-lemma", "sign": sign, "tau": Fraction(h, k)}
        out.append(cert and TriState.no(cert))
    left = [j for j, res in enumerate(out) if res is None]
    if not left:
        return out
    ladder = np.array([*range(1, 16), *(1 << k for k in range(4, 21))], dtype=float)
    basis, m = forms[0].basis, len(ladder)
    u = tuple(c // math.gcd(*u) for c in u)  # the primitive integer axis
    coeffs, X = coefficient_matrix([forms[j] for j in left]), X[left]
    at_u = pairings(coeffs, veronese_batch(basis, np.array([u], dtype=object)))[:, 0]
    rows = np.rint(X[:, None, :] / np.abs(X).max(axis=1)[:, None, None] * ladder[:, None]).astype(np.int64).reshape(-1, len(u))
    rows //= np.gcd.reduce(np.abs(rows), axis=1)[:, None]
    vals = row_pairings(np.repeat(coeffs, m, axis=0), veronese_batch(basis, rows))
    ok = cone_member(xi, sigma, rows) & np.asarray(rows.astype(object) @ np.array(u, dtype=object) > 0, dtype=bool)
    cuts = (np.asarray(vals * np.repeat(np.sign(at_u), m) < 0, dtype=bool) & ok).reshape(len(left), m)
    zeros = (np.asarray(vals == 0, dtype=bool) & ok).reshape(len(left), m)
    found = {}
    for i, (j, value) in enumerate(zip(left, at_u.tolist())):
        w = u if value == 0 else tuple(rows[i * m + (cuts[i] if cuts[i].any() else zeros[i]).argmax()].tolist())
        pos, neg = (u, w) if value > 0 else (w, u)
        cert = {"kind": "sign-change", "positive": pos, "negative": neg} if value != 0 and cuts[i].any() else None
        cert = cert or ({"kind": "exact-zero", "point": w} if value == 0 or zeros[i].any() else None)
        if cert:
            found[j] = cert
    _reverify([forms[j] for j in found], xi, sigma, list(found.values()))  # every yes re-checked from scratch
    for j, cert in found.items():
        out[j] = TriState.yes(cert)
    return out


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

    A descent level k >= 2 is linear in the new digit b (`_digit_level`). A
    residue x over a zero of the parent a has <a, nu(x)> == p^(k-1) t mod
    p^k, so <a + p^(k-1) b, nu(x)> == 0 mod p^k iff
    t + <b, nu(x mod p)> == 0 mod p: every child is tested once per key
    (x mod p, t), by one pairing of the p^N digits with the distinct
    nu(x mod p), and two boolean products (keys x parents) give each child
    its verdict. The jet test needs no digit, since p^(k-1) b vanishes mod
    p^v_tilde and mod p, and reads only x mod p^(k-1), the parent's zero.
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
    # owner[j] == i (sorted); at the first level the one parent is 0
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
            NU = veronese_batch(basis, R) % mod
            if s == 1:  # the first level: every residue is its own key
                Z = pairings(B, NU) % mod == 0
                good = np.any([pairings(B, DI) % modt != 0 for DI in veronese_jet_batch(basis, R) % modt], axis=0)
                sure = (Z & good).any(axis=1, keepdims=True)  # (rows of B, parents)
                rest = Z.any(axis=1, keepdims=True) & ~sure
                key = np.arange(len(R))
            else:
                Z, key, sure, rest = _digit_level(basis, parents, B, s, R, owner, NU, p, modt)
            omega0 += weight * int(sure.sum())
            omega1 += weight * int(sure.sum())
            if k == v:
                omega1 += int(rest.sum())
                continue
            # each class that descends keeps its own zeros: the columns of its
            # parent where its row of Z vanishes, classes numbered like np.nonzero
            b, i = np.nonzero(rest)
            count = np.bincount(owner, minlength=len(parents))
            cols = count[i]
            pair = np.repeat(np.arange(len(b)), cols)
            j = np.arange(len(pair)) + np.repeat(np.cumsum(count)[i] - count[i] - np.cumsum(cols) + cols, cols)
            hit = Z[b[pair], key[j]]
            descend.append((parents[i] + s * B[b], R[j[hit]], pair[hit]))
        if k == v:
            return BallClassification(p, v, e_p, v_tilde, omega0, omega1, n, N)
        jobs = _children(descend, p, k, k + 1 == v)
        k += 1


def _digit_level(basis, parents, B, s: int, R, owner, NU, p: int, modt: int):
    """The tests of a descent level, s = p^(k-1) (see `classify_balls`):
    Z[r, key[j]] tests child r of owner[j] at R[j], sure and rest are (rows
    of B, parents). R holds fibres of p^n rows, each over a parent's zero."""
    base = parents[owner]
    t = row_pairings(base, NU) % (s * p) // s
    width = p ** (R.shape[1] - 1)
    jets = veronese_jet_batch(basis, R[::width]) % modt
    good = np.repeat(np.any([row_pairings(base[::width], DI) % modt != 0 for DI in jets], axis=0), width)
    _, first, inverse = np.unique(R % p @ p ** np.arange(R.shape[1]), return_index=True, return_inverse=True)
    T = pairings(B, veronese_batch(basis, R[first] % p) % p) % p
    Z = (T[:, :, None] == -np.arange(p) % p).reshape(len(B), -1)
    key = inverse.reshape(-1) * p + t
    # (key, parent) incidences of every column and of the certifying ones: float32 counts them exactly
    seen, certifying = (np.zeros((Z.shape[1], len(parents)), dtype=np.float32) for _ in range(2))
    seen[key, owner] = 1
    certifying[key[good], owner[good]] = 1
    Zf = Z.astype(np.float32)
    sure = Zf @ certifying > 0
    return Z, key, sure, (Zf @ seen > 0) & ~sure


def _children(descend, p: int, k: int, last: bool):
    """The jobs of level k + 1: each class a mod p^k that descends, with its
    zeros Z, has the children a + p^k b for b in [0, p)^N, tested against
    the fibres mod p^(k+1) over Z; classes are batched up to about _CELLS
    entries: children x residues, the zero tests their descending children
    read, or at the `last` level, where no child descends, per zero a test
    of each child and the N-wide rows of its fibre."""
    for classes, Z, owner in descend:
        digits = _grid([p] * classes.shape[1], 0, p ** classes.shape[1])
        width = p ** (Z.shape[1] - 1)  # fibre rows per zero
        cells = len(digits) + width * classes.shape[1] if last else len(digits) * width
        batch = np.cumsum(np.bincount(owner) * cells) // _CELLS
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
) -> DensityInterval:
    """rho_p interval: enumeration when affordable, else the 1 - C/p^2 tail.

    The tail constant C = DEFAULT_TAIL_CONSTANT is a recorded measurement
    (insoluble mass times p^2, maxed over the enumerable range), not a
    constant from first principles.
    """
    v = max(depth, e_p, 1)
    N = dimension(d, n)
    if p ** (v * N) <= budget:
        return classify_balls(d, n, p, v, xi, e_p, budget).rho_interval()
    if e_p > 0:
        raise EnumerationBudgetExceeded("targeted density out of enumeration range")
    lo = 1 - DEFAULT_TAIL_CONSTANT / p**2
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
