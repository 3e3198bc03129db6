"""Static checks of the package source: no dead imports, an exact public surface."""

import ast
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
