"""Every module of the package uses each name it imports.

No linter ships with the project, so this stands in for an unused-import
check: deleting a function must also delete the imports only it needed.
``__init__.py`` is exempt because its imports are the package's exports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "emlaopt"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree):
    """(bound name, line) for each name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def unused_imports(source):
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(name, line) for name, line in imported_names(tree) if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_detected():
    source = "import json\nfrom os import path as p, sep\nimport numpy.linalg\n" \
             "def f():\n    from math import pi\n    return sep, numpy\n"
    assert unused_imports(source) == [("json", 1), ("p", 2), ("pi", 5)]
