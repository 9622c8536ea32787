"""Every name a library module imports is used in that module."""

import ast
from pathlib import Path

import pytest

import nerboot

MODULES = sorted(
    path
    for path in Path(nerboot.__file__).parent.glob("*.py")
    if path.name != "__init__.py"  # its imports are the package's re-exports
)


def _unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # ``import a.b`` binds ``a``
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(
        f"line {line}: {name}" for name, line in imported.items() if name not in used
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_unused_import_is_reported():
    source = "import os\nimport sys\nfrom math import pi, tau\nprint(sys.argv, pi)\n"
    assert _unused_imports(source) == ["line 1: os", "line 3: tau"]
