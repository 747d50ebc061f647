"""Exact integral-lattice algebra.

Lattices are stored by integer (or rational) basis rows. Everything that
feeds an equality assertion is exact: determinants are integer Gram
determinants under the square, successive minima come from complete
Fincke-Pohst enumeration, lattice identity is Hermite-normal-form
canonicalization. Floats appear only as display values next to their exact
squares.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import EnumerationBudgetExceeded
from .geom import Cone, cone_intersection_params, cone_member, span_distance_squared_exact, unit_ball_volume
from .intlinalg import (
    canonical_sign_mask,
    fincke_pohst,
    fraction_gram_det,
    gram,
    gram_det,
    hnf_rows,
    integer_ball,
    integer_kernel,
    integral_gso,
    lattice_coordinates,
    lattice_key,
    lll_reduce,
    minors_gcd,
    norm2,
    orthogonal_projection,
    saturate_rows,
    solve_fraction,
    solve_integer,
)
from .numtheory import unit_class_mask, unit_classes


@dataclass(frozen=True)
class IntegralLattice:
    """Integer basis rows in ambient Z^ambient; rank = number of rows."""

    ambient: int
    basis: tuple

    def __post_init__(self):
        for row in self.basis:
            if len(row) != self.ambient:
                raise ValueError("basis rows must match the ambient dimension")
        if self.basis and gram_det(self.basis) == 0:
            raise ValueError("basis rows must be linearly independent")

    @property
    def rank(self) -> int:
        return len(self.basis)

    def det_squared(self) -> int:
        return gram_det(self.basis) if self.basis else 1

    def det(self) -> float:
        return math.sqrt(float(self.det_squared()))

    def gram(self):
        return gram(self.basis)

    def coordinates(self, x):
        return lattice_coordinates(self.basis, x) if self.basis else None

    def contains(self, x) -> bool:
        if not self.basis:
            return all(c == 0 for c in x)
        return self.coordinates(x) is not None

    def key(self) -> tuple:
        return lattice_key(self.basis)

    def serialize(self) -> str:
        lines = [f"{self.ambient} {self.rank}"]
        lines += [" ".join(str(c) for c in row) for row in self.basis]
        return "\n".join(lines)

    @classmethod
    def deserialize(cls, text: str) -> "IntegralLattice":
        lines = [ln for ln in text.strip().splitlines() if ln.strip()]
        ambient, rank = map(int, lines[0].split())
        rows = [tuple(map(int, ln.split())) for ln in lines[1 : 1 + rank]]
        return cls(ambient, tuple(rows))


@dataclass(frozen=True)
class RationalLattice:
    """Rational basis rows (projections of integral lattices are rational)."""

    ambient: int
    basis: tuple

    def __post_init__(self):
        for row in self.basis:
            if len(row) != self.ambient:
                raise ValueError("basis rows must match the ambient dimension")
        if self.basis and fraction_gram_det(self.basis) == 0:
            raise ValueError("basis rows must be linearly independent")

    @property
    def rank(self) -> int:
        return len(self.basis)

    def det_squared(self) -> Fraction:
        return fraction_gram_det(self.basis) if self.basis else Fraction(1)

    def det(self) -> float:
        return math.sqrt(float(self.det_squared()))


def standard_lattice(N: int) -> IntegralLattice:
    rows = tuple(tuple(1 if i == j else 0 for j in range(N)) for i in range(N))
    return IntegralLattice(N, rows)


def from_rows(rows) -> IntegralLattice:
    rows = [tuple(int(c) for c in r) for r in rows]
    if not rows:
        raise ValueError("need at least one basis row")
    return IntegralLattice(len(rows[0]), tuple(rows))


def lattice_from_generators(rows, ambient=None) -> IntegralLattice:
    """Lattice generated (not necessarily freely) by integer rows."""
    rows = [tuple(int(c) for c in r) for r in rows]
    if ambient is None:
        ambient = len(rows[0])
    basis = hnf_rows(rows)
    return IntegralLattice(ambient, tuple(tuple(r) for r in basis))


# ---------------------------------------------------------------------------
# minima and balanced bases


def successive_minima(lat: IntegralLattice, budget: int = 10**8):
    """Exact squared successive minima with witness vectors.

    Enumerates every lattice vector up to the longest LLL basis vector,
    growing the radius geometrically if that somehow misses independence
    (it cannot, but the loop is cheap insurance), then greedily selects
    independent witnesses by increasing norm.
    """
    if lat.rank < 1:
        raise ValueError("successive minima need rank >= 1")
    reduced = lll_reduce(lat.basis)
    bound2 = max(norm2(row) for row in reduced)
    while True:
        vectors = sorted(
            fincke_pohst(reduced, bound2, budget=budget), key=lambda t: (t[1], t[0])
        )
        minima2, witnesses = [], []
        for vec, sq in vectors:
            candidate = witnesses + [vec]
            if len(candidate) > lat.rank:
                break
            if gram_det(candidate) != 0:
                witnesses.append(vec)
                minima2.append(sq)
            if len(witnesses) == lat.rank:
                return minima2, witnesses
        bound2 *= 2


def minkowski_bounds(lat: IntegralLattice, minima2=None):
    """The sharp classical sandwich (2^r/r!) det <= V_r prod(lambda) <= 2^r det.

    Returns (lhs, middle, rhs) as floats computed from exact squares.
    """
    if minima2 is None:
        minima2, _ = successive_minima(lat)
    r = lat.rank
    det = lat.det()
    prod = math.prod(math.sqrt(float(m)) for m in minima2)
    return (2**r / math.factorial(r)) * det, unit_ball_volume(r) * prod, 2**r * det


def balanced_basis(lat: IntegralLattice, budget: int = 10**8):
    """A basis tracking the successive minima, with a measured certificate.

    Built by saturating the span of the first i minima witnesses inside the
    lattice and picking, at each step, the shortest vector generating the
    rank-1 quotient. The certificate reports the measured ratios behind the
    `is comparable to` claims: |v_i|/lambda_i, det of the partial lattices
    against prefix minima products, projection lengths, and a sampled
    quasi-orthogonality constant.
    """
    minima2, witnesses = successive_minima(lat, budget)
    r = lat.rank
    wit_coords = [lat.coordinates(w) for w in witnesses]
    chain = []  # bases (in lattice coordinates) of L ∩ span(w_1..w_i)
    for i in range(1, r + 1):
        chain.append(saturate_rows(wit_coords[:i]))
    basis_coords = []
    for i, sat in enumerate(chain):
        if i == 0:
            g = sat[0]
            basis_coords.append([int(c) for c in g])
            continue
        prev = basis_coords
        # quotient coordinate: primitive functional vanishing on prev
        phi = _quotient_functional(prev, sat)
        ts = [sum(p * c for p, c in zip(phi, _coords_in(sat, row))) for row in sat]
        w = _gcd_witness(ts)
        if sum(t * c for t, c in zip(ts, w)) != 1:
            raise ValueError("quotient coordinates are not coprime")
        v = [sum(c * row[t] for c, row in zip(w, sat)) for t in range(len(sat[0]))]
        v = _size_reduce(v, prev, lat)
        v = _shortest_unit_quotient(v, sat, phi, prev, lat, budget)
        basis_coords.append(v)
    basis_rows = [
        tuple(sum(c * lat.basis[j][t] for j, c in enumerate(coords)) for t in range(lat.ambient))
        for coords in basis_coords
    ]
    cert = _balance_certificate(lat, basis_rows, minima2)
    return basis_rows, cert


def _coords_in(basis_rows, row):
    coords = lattice_coordinates(basis_rows, row)
    if coords is None:
        raise ValueError("row must lie in the sublattice")
    return coords


def _quotient_functional(prev_coords, sat_coords):
    # coordinates of prev basis inside sat basis; kernel functional is 1-dim
    mat = [ _coords_in(sat_coords, row) for row in prev_coords ]
    ker = integer_kernel(mat)
    if len(ker) != 1:
        raise ValueError("quotient is not rank 1")
    return ker[0]


def _ambient(lat, coords):
    return [sum(c * lat.basis[j][t] for j, c in enumerate(coords)) for t in range(lat.ambient)]


def _size_reduce(v_coords, prev_coords, lat):
    """Subtract rounded rational projections onto the previous vectors."""
    prev_amb = [_ambient(lat, pc) for pc in prev_coords]
    v_amb = _ambient(lat, v_coords)
    for j in range(len(prev_amb) - 1, -1, -1):
        mu = _rational_projection(v_amb, prev_amb[j])
        q = round(mu)
        if q:
            v_coords = [a - q * b for a, b in zip(v_coords, prev_coords[j])]
            v_amb = _ambient(lat, v_coords)
    return v_coords


def _rational_projection(v, w):
    num = sum(Fraction(a) * Fraction(b) for a, b in zip(v, w))
    den = sum(Fraction(b) * Fraction(b) for b in w)
    return num / den


def _shortest_unit_quotient(v_coords, sat_coords, phi, prev_coords, lat, budget):
    """Exact search for the shortest sat vector with quotient coordinate ±1."""
    v_amb = _ambient(lat, v_coords)
    best = (norm2(v_amb), tuple(v_coords))
    sat_amb = [_ambient(lat, sc) for sc in sat_coords]
    # the least (norm^2, coordinates) with quotient coordinate +1: independent
    # of the order in which the enumeration meets ties
    for vec, sq in fincke_pohst(lll_reduce(sat_amb), best[0], budget=budget):
        coords_in_sat = lattice_coordinates(sat_amb, vec)
        t = sum(p * c for p, c in zip(phi, coords_in_sat))
        if abs(t) == 1:
            coords = lattice_coordinates(list(lat.basis), vec)
            best = min(best, (sq, tuple(t * c for c in coords)))
    return list(best[1])


def _balance_certificate(lat, basis_rows, minima2):
    r = len(basis_rows)
    lam = [math.sqrt(float(m)) for m in minima2]
    norm_ratios = [math.sqrt(float(norm2(row))) / lam[i] for i, row in enumerate(basis_rows)]
    det_ratios = []
    for nu in range(1, r + 1):
        d2 = gram_det(basis_rows[:nu])
        det_ratios.append(math.sqrt(float(d2)) / math.prod(lam[:nu]))
    proj_ratios = []
    for nu in range(1, r):
        for i in range(nu, r):
            proj2 = span_distance_squared_exact(basis_rows[:nu], basis_rows[i]) * norm2(basis_rows[i])
            proj_ratios.append(math.sqrt(float(proj2)) / lam[i])
    rng = np.random.default_rng(0)
    quasi = 1.0
    for _ in range(200):
        x = rng.integers(-5, 6, r)
        if not x.any():
            continue
        vec = [sum(int(x[i]) * basis_rows[i][t] for i in range(r)) for t in range(lat.ambient)]
        denom = sum(abs(int(x[i])) * math.sqrt(float(norm2(basis_rows[i]))) for i in range(r))
        quasi = min(quasi, math.sqrt(float(norm2(vec))) / denom)
    return {
        "norm_over_minima": norm_ratios,
        "partial_det_over_minima_product": det_ratios,
        "projection_over_minima": proj_ratios,
        "quasi_orthogonality_lower": quasi,
    }


# ---------------------------------------------------------------------------
# the special lattices


def hyperplane_lattice(c) -> IntegralLattice:
    """{x in Z^N : <c, x> = 0}; rank N-1, primitive; det = |c|/content(c)."""
    c = [int(v) for v in c]
    if all(v == 0 for v in c):
        raise ValueError("hyperplane lattice needs c != 0")
    rows = integer_kernel([c])
    return IntegralLattice(len(c), tuple(rows))


def congruence_lattice(c, q: int) -> IntegralLattice:
    """{x in Z^N : <c, x> == 0 mod q}; rank N, det = q / gcd(content(c), q)."""
    c = [int(v) for v in c]
    if q < 1:
        raise ValueError("q must be >= 1")
    N = len(c)
    if all(v == 0 for v in c) or q == 1:
        return standard_lattice(N)
    g = content(c)
    v0 = _gcd_witness(c)  # <c, v0> = g
    step = q // math.gcd(g, q)
    rows = [tuple(step * x for x in v0)] + [tuple(r) for r in integer_kernel([c])]
    return IntegralLattice(N, tuple(rows))


def _gcd_witness(c):
    """v with <c, v> = gcd of the entries of c."""
    g = content(c)
    if g == 0:
        raise ValueError("zero vector has no gcd witness")
    return solve_integer([[int(x)] for x in c], [g])


def is_primitive_sublattice(lat: IntegralLattice, sub: IntegralLattice) -> bool:
    """sub ⊂ lat with torsion-free quotient."""
    coords = []
    for row in sub.basis:
        c = lat.coordinates(row)
        if c is None:
            return False
        coords.append(c)
    return lattice_key(saturate_rows(coords)) == lattice_key(coords)


def quotient_lattice(lat: IntegralLattice, sub: IntegralLattice) -> RationalLattice:
    """Orthogonal projection of lat onto span(sub)^perp; det multiplicative."""
    coords = []
    for row in sub.basis:
        c = lat.coordinates(row)
        if c is None:
            raise ValueError("sub is not contained in the lattice")
        coords.append(c)
    if lattice_key(saturate_rows(coords)) != lattice_key(coords):
        raise ValueError("sub is not primitive in the lattice")
    if sub.rank == lat.rank:
        return RationalLattice(lat.ambient, tuple())
    projected = []
    for row in lat.basis:
        along = orthogonal_projection(sub.basis, row)
        projected.append([Fraction(x) - y for x, y in zip(row, along)])
    # generators -> basis: clear denominators, HNF, rescale
    den = math.lcm(*(x.denominator for row in projected for x in row))
    int_rows = [[int(x * den) for x in row] for row in projected]
    basis = hnf_rows(int_rows)
    rows = tuple(tuple(Fraction(x, den) for x in row) for row in basis)
    return RationalLattice(lat.ambient, rows)


def saturation_det_squared(vectors) -> int:
    """Exact square of the determinant of the primitive closure of the span.

    Equals gram_det(vectors) / gcd(maximal minors)^2; an integer by
    Cauchy-Binet since the Gram determinant is the sum of squared minors.
    """
    vectors = [tuple(int(c) for c in v) for v in vectors]
    g2 = gram_det(vectors)
    if g2 == 0:
        raise ValueError("vectors must be independent")
    G = minors_gcd(vectors)
    assert g2 % (G * G) == 0
    return g2 // (G * G)


def saturation_det(vectors) -> float:
    return math.sqrt(float(saturation_det_squared(vectors)))


def content(v) -> int:
    """gcd of the entries; 0 for the zero vector."""
    return math.gcd(*[abs(int(c)) for c in v]) if len(v) else 0


def torsion_index(v, lat: IntegralLattice | None = None) -> int:
    """#(M/Zv)_tors: the integer k with v = k * (primitive vector of M); 0 at v=0."""
    if all(c == 0 for c in v):
        return 0
    if lat is None:
        return content(v)
    coords = lat.coordinates(v)
    if coords is None:
        raise ValueError("v is not in the lattice")
    return content(coords)


def q_primitive(c, q: int, lat: IntegralLattice | None = None) -> bool:
    """d | q and c in d*L imply d = 1; via gcd(torsion index, q) = 1."""
    if q < 1:
        raise ValueError("q must be >= 1")
    if all(x == 0 for x in c):
        return q == 1
    return math.gcd(torsion_index(c, lat), q) == 1


# ---------------------------------------------------------------------------
# the minimal-determinant invariant


def min_containing_det(x, r: int, budget: int = 10**8):
    """Least determinant of a rank-r integral lattice containing x.

    Returns (value, value_squared, witness_lattice); value_squared is an
    exact integer. The optimum is attained by a saturated lattice, so it is
    the minimum of saturation determinants over companion tuples
    (x, y_2, ..., y_r). A witness basis of the optimal lattice consists of
    minima witnesses with norms <= max(r, 2^r/V_r) * |x| (Minkowski's second
    theorem with all lower minima >= 1 on an integral lattice), so searching
    companions in that ball is exhaustive.
    """
    x = tuple(int(c) for c in x)
    m = len(x)
    if all(c == 0 for c in x):
        raise ValueError("x must be nonzero")
    if not 1 <= r <= m:
        raise ValueError("need 1 <= r <= ambient dimension")
    nx2 = norm2(x)
    if r == m:
        return 1.0, 1, standard_lattice(m)
    if r == 1:
        g = content(x)
        core = tuple(c // g for c in x)
        return math.sqrt(nx2 / g**2), Fraction(nx2, g * g), IntegralLattice(m, (core,))
    radius = max(r, 2**r / unit_ball_volume(r))
    bound2 = int(math.floor(radius**2 * nx2)) + 1
    pts = integer_ball(m, bound2, include_zero=False)
    pts = pts[canonical_sign_mask(pts)]
    if r == 2:
        best_sq, best_y = _best_companion_r2(x, pts)
        if best_y is None:
            raise ValueError("no independent companion found")
        witness = IntegralLattice(m, tuple(tuple(r_) for r_ in saturate_rows([x, best_y])))
        return math.sqrt(float(best_sq)), best_sq, witness
    count = math.comb(len(pts), r - 1)
    if count > budget:
        raise EnumerationBudgetExceeded("companion search too large", count)
    best = None
    for combo in itertools.combinations(range(len(pts)), r - 1):
        rows = [x] + [tuple(int(v) for v in pts[i]) for i in combo]
        if gram_det(rows) == 0:
            continue
        sq = saturation_det_squared(rows)
        if best is None or sq < best[0]:
            best = (sq, rows)
    if best is None:
        raise ValueError("no independent companions found")
    witness = IntegralLattice(m, tuple(tuple(r_) for r_ in saturate_rows(best[1])))
    return math.sqrt(float(best[0])), best[0], witness


def _best_companion_r2(x, pts):
    """Vectorized min over y of gram_det(x,y)/gcd(minors)^2."""
    xv = np.array(x, dtype=np.int64)
    m = len(x)
    idx = [(i, j) for i in range(m) for j in range(i + 1, m)]
    minors = np.stack(
        [xv[i] * pts[:, j] - xv[j] * pts[:, i] for (i, j) in idx], axis=1
    )
    nz = (minors != 0).any(axis=1)
    if not nz.any():
        return None, None
    minors = minors[nz]
    cand = pts[nz]
    sq = (minors.astype(object) ** 2).sum(axis=1)
    g = np.gcd.reduce(np.abs(minors), axis=1).astype(object)
    vals = [s // (gg * gg) for s, gg in zip(sq, g)]
    best_i = min(range(len(vals)), key=lambda i: vals[i])
    return int(vals[best_i]), tuple(int(v) for v in cand[best_i])


# ---------------------------------------------------------------------------
# coset-meets-cone decision and the two censuses


def solve_coset_representative(lat: IntegralLattice, target, q: int):
    """Some x in lat with x ≡ target mod q*Z^ambient, or None."""
    N = lat.ambient
    gens = [list(row) for row in lat.basis] + [
        [q if i == j else 0 for j in range(N)] for i in range(N)
    ]
    coeffs = solve_integer(gens, target)
    return None if coeffs is None else tuple(_ambient(lat, coeffs[: lat.rank]))


def coset_meets_cone(lat: IntegralLattice, c, q: int, xi, sigma) -> bool:
    """Does some nonzero x in lat satisfy x ≡ u c mod q (u a unit) and
    lie in the cone C(xi, sigma)?  Exact decision for rational xi, sigma.

    The cone meets span(lat) in a subcone (or trivially); when the subcone
    has positive aperture, a coset point is guaranteed within radius
    mu (1 + 1/aperture) of the origin by a covering-radius argument, so a
    single bounded enumeration decides existence.
    """
    if lat.rank == 0:
        return False
    sigma = Fraction(sigma)
    inter = cone_intersection_params(tuple(xi), sigma, list(lat.basis))
    if inter.kind == "trivial":
        return False
    big_cone = Cone(tuple(xi), sigma)
    for target in sorted(unit_classes(c, q)):
        x0 = solve_coset_representative(lat, target, q)
        if x0 is None:
            continue
        ap2 = inter.aperture_squared
        if ap2 == 1:
            # the cone covers span(lat); the coset x0 + q*lat always holds a
            # nonzero point (add q*basis[0] to x0 if x0 itself is zero)
            return True
        if ap2 == 0:
            if _line_meets_coset(lat, inter.axis, x0, q):
                return True
            continue
        qbasis = lll_reduce([tuple(q * v for v in row) for row in lat.basis])
        d, _ = integral_gso(qbasis)
        # squared covering radius bound: sum_i |b*_i|^2 / 4
        mu2 = sum(Fraction(d[i + 1], d[i]) for i in range(len(qbasis))) / 4
        radius2 = mu2 * (2 + 2 / Fraction(ap2))
        for vec, sq in fincke_pohst(qbasis, radius2, shift=x0):
            if sq == 0:
                continue
            if cone_member(big_cone, vec):
                return True
    return False


def _line_meets_coset(lat, axis, x0, q):
    """Is there k with k * g ≡ x0 mod q*lat (g the primitive lattice direction
    along the rational axis) and k*g nonzero?"""
    coeffs = solve_fraction([list(row) for row in lat.basis], list(axis))
    if coeffs is None:
        return False
    den = math.lcm(*(cf.denominator for cf in coeffs))
    icoeffs = [int(cf * den) for cf in coeffs]
    g = content(icoeffs)
    if g == 0:
        return False
    icoeffs = [cf // g for cf in icoeffs]
    x0_coords = lat.coordinates(x0)
    if x0_coords is None:
        return False
    # k * a + q * y = b for some integer k and y: a progression of k, holding
    # infinitely many nonzero k whenever it is not empty
    r = len(icoeffs)
    gens = [icoeffs] + [[q if i == j else 0 for j in range(r)] for i in range(r)]
    return solve_integer(gens, x0_coords) is not None


def shell_sublattice_census(
    r: int,
    n: int,
    shells,
    c,
    q: int,
    xi,
    sigma,
    budget: int = 10**7,
):
    """Count primitive rank-r sublattices of Z^(n+1) with lambda_i in the
    dyadic shells (s_i/2, s_i], containing a nonzero point that is ≡ u c
    mod q (u a unit) and within projective distance sigma of xi.

    Exhaustive: every candidate lattice is the saturation of a tuple of
    minima witnesses with |w_i| <= s_i.
    """
    shells = [Fraction(s) for s in shells]
    if len(shells) != r:
        raise ValueError("need one shell bound per minimum")
    if not q_primitive(tuple(int(v) for v in c), q):
        raise ValueError("c must be q-primitive (gcd of torsion index with q = 1)")
    m = n + 1
    balls = []
    for s in shells:
        cap = int(s * s)  # |w|^2 <= s^2, integer norms
        pts = integer_ball(m, cap, include_zero=False)
        balls.append([tuple(int(v) for v in p) for p in pts[canonical_sign_mask(pts)]])
    total_tuples = math.prod(len(b) for b in balls)
    if total_tuples > budget:
        raise EnumerationBudgetExceeded("shell census too large", total_tuples)
    seen = {}
    for combo in itertools.product(*balls):
        rows = list(combo)
        if gram_det(rows) == 0:
            continue
        key = lattice_key(saturate_rows(rows))
        if key in seen:
            continue
        seen[key] = IntegralLattice(m, key)
    count = 0
    matched = []
    for key, lat in seen.items():
        minima2, _ = successive_minima(lat)
        ok = all(
            s * s / 4 < Fraction(m2) <= s * s for s, m2 in zip(shells, minima2)
        )
        if not ok:
            continue
        if coset_meets_cone(lat, c, q, xi, Fraction(sigma)):
            count += 1
            matched.append(lat)
    return count, matched


def small_det_point_census(
    r: int,
    n: int,
    X,
    Delta,
    c,
    q: int,
    xi,
    sigma,
    budget: int = 10**8,
):
    """Count x != 0 with |x| <= X, x ≡ u c mod q for a unit u, x in the cone
    C(xi, sigma), and min-det-of-rank-r-lattice-through-x <= Delta."""
    X = Fraction(X)
    Delta = Fraction(Delta)
    if Delta < 1:
        return 0
    m = n + 1
    pts = integer_ball(m, int(X * X), include_zero=False)
    if len(pts) > budget:
        raise EnumerationBudgetExceeded("point census too large", len(pts))
    cone = Cone(tuple(xi), Fraction(sigma))
    delta2 = Delta * Delta
    count = 0
    for p in pts[unit_class_mask(pts, c, q)]:
        x = tuple(int(v) for v in p)
        if not cone_member(cone, x):
            continue
        _, sq, _ = min_containing_det(x, r, budget)
        if Fraction(sq) <= delta2:
            count += 1
    return count
