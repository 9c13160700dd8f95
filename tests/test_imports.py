"""Every imported name is used, every private helper of the package is
called, and the package writes JSON through one encoder: AST scans of the
package and its tests.

No linter ships with the project, so these are the checks that an import or
a private helper left behind by a refactor does not linger, and that the
write path does not grow a second encoder beside network.write_document.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted(ROOT.glob("src/posesim/*.py"))
SOURCES = sorted([*PACKAGE, *ROOT.glob("tests/*.py")])


def unused_imports(tree: ast.Module) -> list[str]:
    """The names a module imports but never references. A name listed in
    the module's __all__ is a re-export and counts as referenced."""
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", SOURCES,
                         ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_scan_sees_an_unused_import():
    tree = ast.parse("import os\nimport sys as system\n"
                     "from math import pi, tau\n__all__ = ['tau']\n"
                     "print(os.sep)\n")
    assert unused_imports(tree) == ["pi (line 3)", "system (line 2)"]


def unreferenced_privates(modules: dict) -> list[str]:
    """The module-level private names (a leading _, not dunders) of the
    parsed modules that no module references outside their own top-level
    definition. A reference is a loaded name or an attribute; an import
    alone is not one."""
    defined, used = [], []
    for module, tree in modules.items():
        for stmt in tree.body:
            names = set()
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                names.add(stmt.name)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names.update(node.id for target in targets
                             for node in ast.walk(target)
                             if isinstance(node, ast.Name))
            defined += [(module, name) for name in names
                        if name.startswith("_") and not name.startswith("__")]
            refs = {node.id for node in ast.walk(stmt)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            refs |= {node.attr for node in ast.walk(stmt)
                     if isinstance(node, ast.Attribute)}
            used.append((names, refs))
    return sorted(f"{module}.{name}" for module, name in defined
                  if not any(name in refs and name not in names
                             for names, refs in used))


def test_no_unreferenced_private_helpers():
    modules = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
               for path in PACKAGE}
    assert "training" in modules
    assert unreferenced_privates(modules) == []


def test_scan_sees_an_unreferenced_private():
    a = ast.parse("import os\n_LIMIT = 3\n_SPARE = 4\n"
                  "def _walk(n):\n    return _walk(n - 1) if n else _LIMIT\n"
                  "def _used():\n    pass\n__version__ = '1'\n")
    b = ast.parse("from a import _used\n_used()\n")
    assert unreferenced_privates({"a": a, "b": b}) == ["a._SPARE", "a._walk"]


def json_dumps_uses(tree: ast.Module) -> list[int]:
    """The lines that name json.dumps or json.dump: as an attribute of any
    name, or imported from json."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ("dump", "dumps"):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            lines += [node.lineno for alias in node.names
                      if alias.name in ("dump", "dumps")]
    return sorted(lines)


def json_dumps_sites(tree: ast.Module) -> list[str]:
    """The top-level function or class holding each line json_dumps_uses
    finds, by name, or "<module>" for a line outside them."""
    owners = [(stmt.lineno, stmt.end_lineno, stmt.name) for stmt in tree.body
              if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.ClassDef))]
    return [next((name for first, last, name in owners if first <= line <= last),
                 "<module>") for line in json_dumps_uses(tree)]


@pytest.mark.parametrize("path", PACKAGE,
                         ids=lambda p: p.relative_to(ROOT).as_posix())
def test_json_dumps_is_named_once_in_write_document(path):
    # together the cases allow one use in the whole package: a second
    # encoder beside network.write_document fails the case of its module
    want = ["write_document"] if path.stem == "network" else []
    assert json_dumps_sites(ast.parse(path.read_text(encoding="utf-8"))) == want


def test_scan_sees_json_dumps():
    tree = ast.parse("import json\nfrom json import dumps as d, loads\n"
                     "json.loads('1')\njson.dumps(1)\nencoder = json.dump\n")
    assert json_dumps_uses(tree) == [2, 4, 5]


def test_scan_names_the_holder_of_each_json_dumps():
    tree = ast.parse("import json\ndef write(d):\n    return json.dumps(d)\n"
                     "class Codec:\n    def save(self, d, f):\n"
                     "        json.dump(d, f)\nencoder = json.dumps\n")
    assert json_dumps_sites(tree) == ["write", "Codec", "<module>"]
