import math
import random
from fractions import Fraction

import pytest

from fanostat.geom import Cone, cone_member, proj_distance_arch, unit_ball_volume


def test_wedge_and_distance():
    assert proj_distance_arch((1, 0), (0, 1)) == 1.0
    assert proj_distance_arch((2, 3), (2, 3)) == 0.0
    assert proj_distance_arch((1, 1), (1, 0)) == pytest.approx(1 / math.sqrt(2))
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
    # exact boundary: sin(45 deg) membership at aperture 1/2 vs sqrt(1/2)
    assert not cone_member(Cone((1, 0), Fraction(1, 2)), (1, 1))
    c2 = Cone((1, 0), Fraction(1, 1))
    assert cone_member(c2, (1, 1))
    # a float aperture is the binary rational it is: just below sqrt(1/2),
    # (1, 1) at distance exactly sqrt(1/2) is out, though within 1e-12
    below = math.nextafter(math.sqrt(0.5), 0)
    assert not cone_member(Cone((1, 0), below), (1, 1))
    assert cone_member(Cone((1, 0), below), (1.0, 1.0))  # float points keep their slack


def test_unit_ball_volumes():
    assert unit_ball_volume(1) == pytest.approx(2.0)
    assert unit_ball_volume(2) == pytest.approx(math.pi)
    assert unit_ball_volume(3) == pytest.approx(4 * math.pi / 3)
    assert unit_ball_volume(0) == 1.0
