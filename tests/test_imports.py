"""Import hygiene of the package, checked from the syntax tree.

Stands in for a linter: every name a module of the package or of its tests
imports at module level must be used in that module, and package-internal
imports sit at module level.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "fanostat"
MODULES = sorted(SRC.glob("*.py"))
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _bound_names(node):
    for alias in node.names:
        if alias.name == "*":
            continue
        yield alias.asname or alias.name.split(".")[0]


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: f"tests/{p.name}" if p in TESTS else p.name)
def test_module_imports_are_used(path):
    tree = _parse(path)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            for name in _bound_names(node):
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)
    assert not unused, f"{path.name} imports names it never uses: {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_level_package_imports(path):
    tree = _parse(path)
    nested = [
        f"{fn.name} (line {node.lineno})"
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, ast.ImportFrom) and node.level >= 1
    ]
    assert not nested, f"{path.name} imports from the package inside functions: {nested}"


def _referenced_names(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.ImportFrom):
            yield from (alias.name for alias in sub.names)


def test_private_helpers_are_referenced():
    # a module-level _helper that nothing outside its own definition names is
    # dead code left behind by a refactor
    helpers, references = {}, set()
    for path in MODULES:
        for node in _parse(path).body:
            own = None
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.startswith("__"):
                    own = node.name
                    helpers[own] = f"{path.name}:{node.lineno}"
            references.update(name for name in _referenced_names(node) if name != own)
    dead = sorted(f"{name} ({where})" for name, where in helpers.items() if name not in references)
    assert not dead, f"private helpers that nothing references: {dead}"


TRACED = "perfbench traces and reports it by name"

# Where the package is entered, each with why. Every public module-level
# function or class must be reachable by name from one of these.
ENTRY_POINTS = (
    # the census and density API
    ("census", "first_moment", "the first moment, direct and dual"),
    ("census", "predicted_first_moment", "the first moment's main term"),
    ("census", "local_census", "the local census M, E and V^loc"),
    ("census", "predicted_census", "the census's product-of-densities prediction"),
    ("census", "real_density_interval", "the real density factor of that prediction"),
    ("census", "count_rational_points", "N_V of one form, a summand of the first moment"),
    ("localsolve", "local_density", "the p-adic density factor of that prediction"),
    ("padic", "verify_certificate", "re-verifies a yes certificate independently"),
    ("veronese", "parse_form", "reads back the text str(form) writes"),
    # the names perfbench reads
    ("census", "first_moment_direct", TRACED),
    ("census", "first_moment_dual", TRACED),
    ("census", "enumerate_hypersurfaces", TRACED),
    ("intlinalg", "lll_reduce", TRACED),
    ("intlinalg", "fincke_pohst", TRACED),
    ("intlinalg", "integer_ball", TRACED),
    ("lattice", "hyperplane_lattice", TRACED),
    ("veronese", "veronese", TRACED),
    ("veronese", "veronese_batch", TRACED),
    ("veronese", "evaluate_form", TRACED),
    ("veronese", "gradient_form", TRACED),
    ("veronese", "make_form", "the benchmark contract checks that census binds it"),
    ("localsolve", "decide_padic_solubility", TRACED),
    ("localsolve", "canonical_projective_residues", TRACED),
    ("localsolve", "decide_real_solubility", TRACED),
    ("localsolve", "classify_balls", TRACED),
    ("localsolve", "AdelicTarget", "the workloads build their targets from it"),
    ("localsolve", "BallClassification", "the workloads read density intervals off it"),
    ("counting", "veronese_reciprocal_volume", TRACED),
    ("padic", "lift_hypersurface_point", TRACED),
    ("geom", "cone_member", TRACED),
    ("numtheory", "factorize", TRACED),
    ("numtheory", "primes_up_to", TRACED),
    # kept for open ROADMAP items
    ("numtheory", "mobius", "kept on purpose with divisor_count"),
    ("numtheory", "divisor_count", "kept on purpose with mobius"),
    ("census", "height_threshold_exponent", "the exponent the cubic-range reports will quote"),
    ("localsolve", "fit_tail_constant", "the fitted tail constant the sound-tail item decides"),
    # references the tests of kept code compare against
    ("padic", "proj_distance_padic", "the radius checks of lift certificates"),
    ("localsolve", "density_sandwich", "the bounds a measured density must sit between"),
    ("localsolve", "count_projective_points", "point counts across streamed residue tables"),
    ("census", "quadric_real_soluble", "the classical real verdict of a quadric"),
    ("census", "quadric_bad_primes", "the primes where a quadric's verdict can fail"),
    ("counting", "veronese_reciprocal_sum", "the only exact check of the W of the first moment"),
    ("counting", "predicted_reciprocal_sum", "the main term that check compares against"),
    ("intlinalg", "hnf_rows", "lattice identity in the LLL, kernel and enumeration tests"),
    ("intlinalg", "saturate_rows", "primitivity of computed kernels"),
    # leaves that only their own tests reach, kept until a later deletion
    # takes them out together with those tests
    ("census", "least_point_heights", "least heights of points near the target"),
    ("localsolve", "lang_weil_check", "the Lang-Weil bound on point counts"),
    ("localsolve", "lang_weil_discrepancy", "the Lang-Weil constant scale"),
    ("localsolve", "is_reducible_mod_p", "factor search of a form mod p"),
    ("padic", "padic_abs", "the p-adic absolute value"),
    ("padic", "padic_vec_norm", "the p-adic max norm"),
    ("veronese", "height", "H(x) of a primitive point"),
    ("veronese", "height_squared", "H(x)^2, exact"),
    ("geom", "wedge_norm", "|x ^ y| as a float"),
    ("geom", "perp_cone_member", "membership of the perpendicular cone"),
    ("geom", "cap_volume", "cone-cap volumes by quadrature"),
    ("geom", "band_volume", "equatorial band volumes by quadrature"),
    ("geom", "projection_volume_bound", "the ceiling on projected cone volumes"),
    ("geom", "cone_intersection_params", "a cone cut by a subspace"),
    ("geom", "span_distance", "distance of a direction from a span"),
    ("geom", "span_distance_squared_exact", "that distance, exact"),
    ("intlinalg", "minors_gcd", "gcd of maximal minors"),
    ("intlinalg", "solve_integer", "integer solves on the Hermite form"),
    ("lattice", "standard_lattice", "Z^N as a lattice"),
    ("lattice", "from_rows", "a lattice from integer rows"),
    ("lattice", "saturation_det_squared", "determinant of a saturated span"),
    ("lattice", "q_primitive", "q-primitivity through the torsion index"),
    ("counting", "trend_improves", "whether count ratios approach 1"),
)


def _definitions():
    """(module, name) -> its syntax tree, and the names every module's
    top-level statements other than definitions and imports reference."""
    defs, top = {}, set()
    for path in MODULES:
        for node in _parse(path).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs[path.stem, node.name] = node
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                top.update(_referenced_names(node))
    return defs, top


def test_public_symbols_are_reachable():
    defs, top = _definitions()
    missing = [f"{module}.{name}" for module, name, _ in ENTRY_POINTS if (module, name) not in defs]
    assert not missing, f"entry points the package no longer defines: {missing}"
    # names resolve by name alone, in any module, and a reached class
    # reaches its whole body: the walk over-approximates what is used, so
    # whatever it misses is dead
    by_name = {}
    for key in defs:
        by_name.setdefault(key[1], []).append(key)
    reached = set()
    todo = [name for _, name, _ in ENTRY_POINTS] + sorted(top)
    while todo:
        for key in by_name.get(todo.pop(), ()):
            if key not in reached:
                reached.add(key)
                todo.extend(_referenced_names(defs[key]))
    dead = sorted(
        f"{module}.{name} ({module}.py:{node.lineno})"
        for (module, name), node in defs.items()
        if not name.startswith("_") and (module, name) not in reached
    )
    assert not dead, f"public symbols no entry point reaches: {dead}"
