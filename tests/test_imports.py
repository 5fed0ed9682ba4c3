"""Every module of the package, and the tests' oracle module, uses each
name it imports, and every package name the demos, the README and the
benchmark use exists.

No linter ships with the project, so this stands in for an unused-import
check: deleting a function must also delete the imports only it needed.
``__init__.py`` is exempt because its imports are the package's exports.
The second check keeps a deleted public name from silently breaking a demo
or the README's quick start.  The benchmark (``perfbench/``) also reads
attributes of the package's modules and classes, such as
``control.solve_ivp`` and ``TrajectoryResult.from_dict``, which it wraps or
calls; the third check keeps each of those names defined where it is read.
The fourth finds public functions, classes and methods that only tests
call: code the program does not need.  Reference models the tests check the
program against belong in ``tests/oracles.py``.  All read the source with
``ast`` and run nothing.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "emlaopt"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
DEMOS = sorted((ROOT / "demos").glob("*.py"))
BENCH = sorted((ROOT / "perfbench").glob("*.py"))
ORACLES = ROOT / "tests" / "oracles.py"


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


@pytest.mark.parametrize("path", MODULES + [ORACLES], ids=lambda p: p.name)
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
    return body_names(ast.parse(path.read_text()).body) if path.is_file() else set()


def body_names(body) -> set:
    """The names the statements ``body`` bind by definition, assignment or import."""
    names = set()
    for node in body:
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


def bound_targets(tree) -> dict:
    """The dotted ``emlaopt`` name each name is bound to by an import."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update({a.asname or "emlaopt": a.name if a.asname else "emlaopt"
                          for a in node.names if a.name.split(".")[0] == "emlaopt"})
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "emlaopt":
            bound.update({a.asname or a.name: f"{node.module}.{a.name}" for a in node.names})
    return bound


def class_names(module: str, name: str):
    """The names the top-level class ``name`` of ``module`` binds in its
    body, or ``None`` unless it is such a class without base classes."""
    for node in ast.parse(module_path(module).read_text()).body:
        if isinstance(node, ast.ClassDef) and node.name == name and not node.bases:
            return body_names(node.body)
    return None


def resolves(dotted: str) -> bool:
    """Whether ``dotted``, a module then a name it defines and, for one of
    its classes, a name of that class, exists; deeper names go unchecked."""
    parts = dotted.split(".")
    k = max(i for i in range(1, len(parts) + 1) if module_path(".".join(parts[:i])).is_file())
    module, rest = ".".join(parts[:k]), parts[k:]
    if not rest:
        return True
    if rest[0] not in defined_names(module):
        return False
    names = class_names(module, rest[0]) if len(rest) > 1 else None
    return names is None or rest[1].startswith("__") or rest[1] in names


def unresolved_attributes(source):
    """Dotted ``emlaopt`` names that ``source`` reads as attributes of a name
    an import bound to the package, one of its modules or classes, and that
    the package lacks."""
    tree = ast.parse(source)
    bound = bound_targets(tree)
    missing = []
    for node in ast.walk(tree):
        attrs = []
        while isinstance(node, ast.Attribute):
            attrs.insert(0, node.attr)
            node = node.value
        if attrs and isinstance(node, ast.Name) and node.id in bound:
            dotted = ".".join([bound[node.id]] + attrs)
            if not resolves(dotted):
                missing.append(dotted)
    return sorted(set(missing))


@pytest.mark.parametrize("path", BENCH, ids=lambda p: p.name)
def test_benchmark_names_resolve(path):
    source = path.read_text()
    assert unresolved_imports(source) == []
    assert unresolved_attributes(source) == []


def test_unresolved_attribute_detected(tmp_path, monkeypatch):
    # a package whose control module no longer imports solve_ivp
    for name, text in (("__init__", "from .manipulator import rnea\n"),
                       ("manipulator", "def rnea():\n    pass\n"),
                       ("control", "from scipy.integrate import Radau\n"
                                   "def simulate_tracking():\n    pass\n"),
                       ("effmap", "class EmlaModel:\n    name: str = 'x'\n"
                                  "    def cell(self):\n        pass\n")):
        (tmp_path / f"{name}.py").write_text(text)
    monkeypatch.setitem(globals(), "PACKAGE", tmp_path)
    source = "import emlaopt\nfrom emlaopt import control, effmap as em\n" \
             "def f():\n    return (emlaopt.rnea, emlaopt.nope, control.solve_ivp,\n" \
             "            control.Radau, control.simulate_tracking.__name__,\n" \
             "            em.EmlaModel.cell, em.EmlaModel.name, em.EmlaModel.gone)\n"
    assert unresolved_attributes(source) == [
        "emlaopt.control.solve_ivp", "emlaopt.effmap.EmlaModel.gone", "emlaopt.nope"]


def public_definitions(tree):
    """(dotted name, node) of each public top-level function and class of a
    module, and of each public method of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            for sub in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                    yield f"{node.name}.{sub.name}", sub


def referenced_names(tree) -> Counter:
    """How often ``tree`` reads each name, as a name, an attribute or an
    import.  Attributes match by name alone, so a method counts as read
    wherever any attribute of its name is read."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name.split(".")[-1]] += 1
    return names


def unread_definitions(modules: dict, outside) -> list:
    """The public definitions of ``modules`` (module name -> source), as
    ``module.name``, that nothing else reads: none of the ``outside``
    sources, no other module and no other code of its own module."""
    trees = {name: ast.parse(text) for name, text in modules.items()}
    reads = {name: referenced_names(tree) for name, tree in trees.items()}
    outside_reads = set().union(*(referenced_names(ast.parse(text)) for text in outside))
    found = []
    for name, tree in trees.items():
        elsewhere = outside_reads.union(*(r for n, r in reads.items() if n != name))
        for dotted, node in public_definitions(tree):
            short = dotted.split(".")[-1]
            if short not in elsewhere and not (reads[name] - referenced_names(node))[short]:
                found.append(f"{name}.{dotted}")
    return found


def test_every_public_name_has_a_caller_outside_tests():
    # __init__.py only re-exports; the demos, the benchmark and the README's
    # code are callers as much as the package is
    modules = {p.stem: p.read_text() for p in MODULES}
    outside = [p.read_text() for p in DEMOS + BENCH] + [readme_python()]
    assert unread_definitions(modules, outside) == []


def test_test_only_definition_detected():
    modules = {
        "a": "def used():\n    pass\n"
             "def tested():\n    return tested()\n"
             "def _helper():\n    pass\n"
             "class Box:\n    def read(self):\n        pass\n"
             "    def unread(self):\n        return self.unread\n"
             "    def _private(self):\n        pass\n"
             "class Spare:\n    pass\n",
        "b": "from .a import used\nSpare = None\n"
             "def run(box):\n    return used(), box.read()\n",
    }
    assert unread_definitions(modules, ["from emlaopt.b import run\nrun(None)\n"]) == [
        "a.tested", "a.Box", "a.Box.unread", "a.Spare"]
