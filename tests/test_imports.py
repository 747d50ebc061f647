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
# function or class, and every public method of one, must be reachable by
# name from one of these; a method can also be an entry itself.
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
    ("localsolve", "verify_real_certificate", "re-verifies a real yes certificate independently"),
    ("veronese", "parse_form", "reads back the text str(form) writes"),
    ("veronese", "height", "the paper's height H(x) = |x|^(n+1-d), which height_bound_norm2 inverts"),
    ("veronese", "height_squared", "H(x)^2 exactly, to compare a point with a height bound"),
    ("cli", "main", "the fanostat console script pyproject.toml declares"),
    # the names perfbench reads
    ("census", "first_moment_direct", TRACED),
    ("census", "first_moment_dual", TRACED),
    ("census", "enumerate_hypersurfaces", TRACED),
    ("intlinalg", "integer_ball", TRACED),
    ("veronese", "veronese", TRACED),
    ("veronese", "veronese_batch", TRACED),
    ("veronese", "evaluate_form", TRACED),
    ("veronese", "gradient_form", TRACED),
    ("localsolve", "canonical_projective_residues", TRACED),
    ("localsolve", "decide_real_batch", "the census decides its forms at the real place with it"),
    ("localsolve", "classify_balls", TRACED),
    ("localsolve", "AdelicTarget", "the workloads build their targets from it"),
    ("localsolve", "BallClassification", "the workloads read density intervals off it"),
    ("counting", "veronese_reciprocal_volume", TRACED),
    ("padic", "lift_hypersurface_point", TRACED),
    ("geom", "cone_member", TRACED),
    ("numtheory", "factorize", TRACED),
    ("numtheory", "primes_up_to", TRACED),
    # kept for open ROADMAP items
    ("census", "height_threshold_exponent", "the exponent the cubic-range reports will quote"),
    ("localsolve", "fit_tail_constant", "the fitted tail constant the sound-tail item decides"),
    # references the tests of kept code compare against
    ("padic", "proj_distance_padic", "the radius checks of lift certificates"),
    ("geom", "proj_distance_arch", "the metric whose balls cone_member's caps are"),
    ("localsolve", "density_sandwich", "the bounds a measured density must sit between"),
    ("localsolve", "count_projective_points", "point counts across streamed residue tables"),
    ("census", "quadric_real_soluble", "the classical real verdict of a quadric"),
    ("counting", "veronese_reciprocal_sum", "the only exact check of the W of the first moment"),
    # methods that no package code calls, each with who does
    ("localsolve", "AdelicTarget.trivial", "the workloads build their trivial targets with it"),
    ("localsolve", "BallClassification.boundary_upper", "the boundary-ball count the paper bounds"),
    ("localsolve", "BallClassification.paper_boundary_bound", "the paper's bound on that count"),
    ("veronese", "MonomialBasis.index", "tests build forms monomial by monomial with it"),
    ("padic", "LiftCertificate.distance_exponent", "the distance bound e - l the lifting tests check"),
)


def _is_method(node) -> bool:
    """A function in a class body that is not a dunder."""
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
        node.name.startswith("__") and node.name.endswith("__")
    )


def _attributes(node):
    return {sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute)}


def _definitions():
    """The units of the reachability walk, each with its line and the syntax
    trees it references: (module, name) for every top-level function and class,
    (module, "Class.method") for every method but the dunders. A class unit
    holds only its decorators, bases, fields and dunder methods; a method
    holds its own body. Also every module's top-level statements other than
    definitions and imports."""
    defs, top = {}, []
    for path in MODULES:
        for node in _parse(path).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs[path.stem, node.name] = node.lineno, [node]
            elif isinstance(node, ast.ClassDef):
                shell = node.decorator_list + node.bases + node.keywords
                for item in node.body:
                    if _is_method(item):
                        defs[path.stem, f"{node.name}.{item.name}"] = item.lineno, [item]
                    else:
                        shell.append(item)
                defs[path.stem, node.name] = node.lineno, shell
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                top.append(node)
    return defs, top


def test_public_symbols_are_reachable():
    defs, top = _definitions()
    entries = {(module, name) for module, name, _ in ENTRY_POINTS}
    missing = sorted(f"{module}.{name}" for module, name in entries if (module, name) not in defs)
    assert not missing, f"entry points the package no longer defines: {missing}"
    # names resolve by name alone, in any module: the walk over-approximates
    # what is used, so whatever it misses is dead. A reached class reaches
    # its fields and dunders; a method is reached once its class is and
    # reached code names it as an attribute (x.method), or by an entry of its own
    names = {name for _, name in entries if "." not in name}
    attributes = set()
    for tree in top:
        names.update(_referenced_names(tree))
        attributes.update(_attributes(tree))
    reached, grew = set(), True
    while grew:
        grew = False
        for (module, name), (_, trees) in defs.items():
            owner, _, own = name.rpartition(".")
            if (module, name) in reached:
                continue
            if (module, name) in entries or (
                (own in attributes and (module, owner) in reached) if owner else own in names
            ):
                reached.add((module, name))
                for tree in trees:
                    names.update(_referenced_names(tree))
                    attributes.update(_attributes(tree))
                grew = True
    dead = sorted(
        f"{module}.{name} ({module}.py:{line})"
        for (module, name), (line, _) in defs.items()
        if not name.rpartition(".")[2].startswith("_") and (module, name) not in reached
    )
    assert not dead, f"public symbols and methods no entry point reaches: {dead}"
