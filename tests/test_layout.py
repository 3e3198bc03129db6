"""Static checks of the package source: no dead imports or private names, an
exact public surface."""

import ast
import sys
from collections import Counter
from pathlib import Path

import pytest

import lzsim

SOURCE = Path(lzsim.__file__).parent
MODULES = sorted(SOURCE.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _top_level_imports(tree):
    """(bound name, line) for every top-level import, __future__ excluded."""
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [((a.asname or a.name).split(".")[0], node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(a.asname or a.name, node.lineno) for a in node.names]
    return bound


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_top_level_import(path):
    tree = _tree(path)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    if path.name == "__init__.py":
        used |= set(lzsim.__all__)  # the package imports its public names to re-export them
    unused = [(name, line) for name, line in _top_level_imports(tree) if name not in used]
    assert not unused, f"{path.name}: unused imports (name, line) {unused}"


def test_all_lists_exactly_the_public_names_the_package_imports():
    imported = {name for name, _ in _top_level_imports(_tree(SOURCE / "__init__.py"))}
    public = {name for name in imported if not name.startswith("_")}
    assert len(lzsim.__all__) == len(set(lzsim.__all__))
    assert set(lzsim.__all__) == public


def _private_definitions(tree):
    """(name, node) for every top-level private function, class or constant."""
    defined = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.append((node.name, node))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += [(t.id, node) for t in targets if isinstance(t, ast.Name)]
    return [(n, node) for n, node in defined if n.startswith("_") and not n.startswith("__")]


def _loaded_names(tree):
    """How often each name is read in tree."""
    return Counter(
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    )


def _imported_from(tree, module):
    """The names tree imports from the package module `module`."""
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == module
        for alias in node.names
    }


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_private_name_is_used_in_the_package(path):
    # used: read in its own module outside its own definition (so a recursive
    # call does not count), or imported by another; an import that is never
    # read is caught by test_no_unused_top_level_import
    tree = _tree(path)
    loaded = _loaded_names(tree)
    imported = set().union(*(_imported_from(_tree(other), path.stem) for other in MODULES))
    unused = [
        (name, node.lineno)
        for name, node in _private_definitions(tree)
        if name not in imported and loaded[name] == _loaded_names(node)[name]
    ]
    assert not unused, f"{path.name}: private names used nowhere in the package {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_only_the_standard_library_and_numpy_are_imported(path):
    # numpy is the one runtime dependency; relative imports stay in the package
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    imported = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            imported += [(alias.name, node.lineno) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.append((node.module, node.lineno))
    foreign = [(name, line) for name, line in imported if name.split(".")[0] not in allowed]
    assert not foreign, f"{path.name}: imports outside the standard library and numpy {foreign}"
