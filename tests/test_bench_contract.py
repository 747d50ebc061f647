"""What the benchmark harness in perfbench/ reads from the package.

The harness traces functions by name, binds some of their arguments by name
and reads fields of their results. Its own tests run outside this suite, so
these checks make a rename or a changed result shape fail here first.
"""

import dataclasses
import inspect
from fractions import Fraction

from fanostat import census, counting, geom, intlinalg, lattice, localsolve, veronese
from fanostat.veronese import make_form


def test_traced_names_exist():
    for module, name in [
        (intlinalg, "integer_ball"),
        (localsolve, "canonical_projective_residues"),
        # the benchmark's lattice.self_s is the time spent in this function
        (lattice, "primitive_orthogonal_count"),
        (geom, "cone_member"),
        (counting, "veronese_reciprocal_volume"),
    ]:
        assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"


def test_parameters_bound_by_name_exist():
    assert {"n", "p", "v", "e_p"} <= set(inspect.signature(localsolve.classify_balls).parameters)
    assert "pts" in inspect.signature(veronese.veronese_batch).parameters
    # the ball counters read these fields of the classification
    fields = {f.name for f in dataclasses.fields(localsolve.BallClassification)}
    assert {"omega0", "omega1", "N_dim"} <= fields


def test_no_and_unknown_certificates_support_get():
    anisotropic = make_form(2, 3, [1, 0, 0, 0, 1, 0, 0, -3, 0, -3])  # X0^2+X1^2-3X2^2-3X3^2
    squares = make_form(2, 2, [1, 0, 0, 1, 0, 1])  # X0^2+X1^2+X2^2
    quartic = make_form(4, 2, [1] + [0] * 9 + [1, 0, 0, 0, 1])  # X0^4+X1^4+X2^4: no quadric step, so one box leaves it unknown
    verdicts = [
        (localsolve.decide_padic_batch([anisotropic], 3)[0], "no"),
        (localsolve.decide_padic_batch([squares], 2, depth_budget=1)[0], "unknown"),
        (localsolve.decide_real_batch([squares], (1, 0, 0), Fraction(1))[0], "no"),
        (localsolve.decide_real_batch([quartic], (1, 0, 0), Fraction(1), subdivision_budget=1)[0], "unknown"),
    ]
    for res, expected in verdicts:
        assert res.verdict == expected
        res.certificate.get("cells", 0)
        res.certificate.get("pending", 0)


def test_census_report_fields_read_by_the_benchmark():
    fields = {f.name for f in dataclasses.fields(census.CensusReport)}
    read = {"m_interval", "e_interval", "vloc_interval", "direct_vloc_interval", "total_forms", "unresolved"}
    assert read <= fields


def test_first_moment_dual_returns_a_python_int():
    # the tracer adds this return value to its count of primitive vectors
    target = localsolve.AdelicTarget.trivial(3)
    A = Fraction(3, 2)
    dual = census.first_moment_dual(2, 3, A, A, target)
    assert type(dual) is int
    assert dual == census.first_moment_direct(2, 3, A, A, target)
