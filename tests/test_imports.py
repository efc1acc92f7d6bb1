import ast
from pathlib import Path

import linclob

_SOURCES = sorted(Path(linclob.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names a module imports and never reads, `from __future__` aside."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in read]


def test_no_module_imports_a_name_it_does_not_read():
    # the package's __init__ imports only to export
    assert len(_SOURCES) > 1
    for path in _SOURCES:
        if path.name != "__init__.py":
            assert unused_imports(path.read_text()) == [], path.name


def test_an_unused_import_is_found():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "from typing import Iterable, Mapping as M\n"
              "x: Iterable = os.path.sep\n")
    assert unused_imports(source) == ["M (line 3)"]
