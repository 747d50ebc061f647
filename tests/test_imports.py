"""Import hygiene of the package, checked from the syntax tree.

Stands in for a linter: every name a module imports at module level must be
used in that module, and package-internal imports sit at module level.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "fanostat"
MODULES = sorted(SRC.glob("*.py"))


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _bound_names(node):
    for alias in node.names:
        if alias.name == "*":
            continue
        yield alias.asname or alias.name.split(".")[0]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
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
