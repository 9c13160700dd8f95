"""Every imported name is used: an AST scan of the package and its tests.

No linter ships with the project, so this is the check that an import left
behind by a refactor does not linger.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted([*ROOT.glob("src/posesim/*.py"), *ROOT.glob("tests/*.py")])


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
