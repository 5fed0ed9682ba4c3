"""Every module of the package uses each name it imports, and every
package name the demos and the README import exists.

No linter ships with the project, so this stands in for an unused-import
check: deleting a function must also delete the imports only it needed.
``__init__.py`` is exempt because its imports are the package's exports.
The second check keeps a deleted public name from silently breaking a demo
or the README's quick start.  Both read the source with ``ast`` and run
nothing.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "emlaopt"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
DEMOS = sorted((ROOT / "demos").glob("*.py"))


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


def module_path(module: str) -> Path:
    """The source file of an ``emlaopt`` module name."""
    parts = module.split(".")[1:]
    return PACKAGE.joinpath(*parts).with_suffix(".py") if parts else PACKAGE / "__init__.py"


def defined_names(module: str) -> set:
    """The names a module binds at its top level (empty if it does not exist)."""
    path = module_path(module)
    if not path.is_file():
        return set()
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names |= {t.id for t in node.targets if isinstance(t, ast.Name)}
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {name for name, _ in imported_names(node)}
    return names


def unresolved_imports(source):
    """Dotted ``emlaopt`` names that ``source`` imports and the package lacks."""
    missing = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            missing += [a.name for a in node.names
                        if a.name.split(".")[0] == "emlaopt" and not module_path(a.name).is_file()]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "emlaopt":
            defined = defined_names(node.module)
            missing += [f"{node.module}.{a.name}" for a in node.names
                        if a.name not in defined
                        and not module_path(f"{node.module}.{a.name}").is_file()]
    return missing


def readme_python():
    return "\n".join(re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S))


@pytest.mark.parametrize("path", DEMOS + [ROOT / "README.md"], ids=lambda p: p.name)
def test_demo_and_readme_imports_resolve(path):
    source = readme_python() if path.suffix == ".md" else path.read_text()
    assert "emlaopt" in source
    assert unresolved_imports(source) == []


def test_unresolved_import_detected():
    source = "import emlaopt.cli\nimport emlaopt.nope\n" \
             "from emlaopt import cli, solve_inner, Nope\n" \
             "from emlaopt.trajopt import np, FD_STEP, NlpProblem, Gone\n"
    assert unresolved_imports(source) == ["emlaopt.nope", "emlaopt.Nope", "emlaopt.trajopt.Gone"]
