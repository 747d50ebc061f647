import math
import random

import pytest

from fanostat.intlinalg import norm2
from fanostat.lattice import IntegralLattice, hyperplane_lattice
from fanostat.veronese import monomial_basis, veronese


def test_det_basics():
    identity = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))
    assert IntegralLattice(4, identity).det_squared() == 1
    L = IntegralLattice(3, ((1, -1, 0), (0, 1, -1)))
    assert L.det_squared() == 3  # Gram [[2,-1],[-1,2]]
    assert IntegralLattice(3, ()).det_squared() == 1  # rank 0 convention
    with pytest.raises(ValueError):
        IntegralLattice(3, ((1, 2),))
    with pytest.raises(ValueError):
        IntegralLattice(2, ((1, 2), (2, 4)))


def test_hyperplane_lattice():
    L = hyperplane_lattice((1, 0, 0))
    assert len(L.basis) == 2 and L.det_squared() == 1
    assert hyperplane_lattice((1, 1, 1)).det_squared() == 3
    with pytest.raises(ValueError):
        hyperplane_lattice((0, 0, 0))
    # det(Lambda_c) = |c| / content(c), exactly in squares
    rng = random.Random(31)
    for _ in range(200):
        N = rng.randint(2, 8)
        c = [rng.randint(-9, 9) for _ in range(N)]
        if all(v == 0 for v in c):
            continue
        L = hyperplane_lattice(c)
        g = math.gcd(*c)
        assert L.det_squared() * g * g == norm2(c)


def test_hyperplane_lattice_veronese():
    # det(Lambda_{nu(x)}) = |nu(x)| for primitive x
    rng = random.Random(37)
    for d, n in [(2, 2), (2, 3)]:
        basis = monomial_basis(d, n)
        for _ in range(40):
            x = [rng.randint(-4, 4) for _ in range(n + 1)]
            if all(v == 0 for v in x) or math.gcd(*x) != 1:
                continue
            nu = veronese(basis, x)
            assert hyperplane_lattice(nu).det_squared() == norm2(nu)

