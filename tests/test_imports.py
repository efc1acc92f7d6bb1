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


# The literal rewriter is the reference that `asf.normalize` is tested
# against, so it may not read the fast path's names.
_REFERENCE = ("rule_table", "_beta_match", "apply_once", "normalize_trace")
_FAST_PATH = {"negative", "add_form", "_part_form"}


def fast_path_reads(source: str) -> list[str]:
    """Each `function: name` where a reference function of the module names
    one of the fast path's functions."""
    tree = ast.parse(source)
    return [f"{node.name}: {name}" for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name in _REFERENCE
            for sub in ast.walk(node)
            if (name := getattr(sub, "id", None) or getattr(sub, "attr", None))
            in _FAST_PATH]


def test_the_literal_rewriter_reads_no_fast_path():
    source = (Path(linclob.__file__).parent / "asf.py").read_text()
    defined = {node.name for node in ast.parse(source).body
               if isinstance(node, ast.FunctionDef)}
    assert set(_REFERENCE) <= defined
    assert fast_path_reads(source) == []


def test_a_reference_that_reads_the_fast_path_is_found():
    source = ("def apply_once(g):\n"
              "    return add_form((), core.negative(g))\n"
              "def normalize(g):\n"
              "    return _part_form(g)\n")
    assert fast_path_reads(source) == ["apply_once: add_form",
                                       "apply_once: negative"]


# Each module and the package modules it imports, exactly: the oracle, the
# ground truth, stands beside the rewriter on `core` alone, the verifier and
# the command line sit on top, and `python -m linclob` runs the command line.
_LAYERS = {
    "core": set(),
    "asf": {"core"},
    "oracle": {"core"},
    "taxonomy": {"core", "asf"},
    "strategy": {"core", "asf", "taxonomy"},
    "verifier": {"core", "asf", "taxonomy", "strategy", "oracle"},
    "cli": {"core", "asf", "taxonomy", "strategy", "oracle", "verifier"},
    "__main__": {"cli"},
}


def package_imports(source: str) -> set[str]:
    """The package modules that a module's source imports."""
    imported = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
                node.level or node.module.split(".")[0] == "linclob"):
            module = (node.module or "").removeprefix("linclob").lstrip(".")
            imported.update([module] if module else
                            [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            imported.update(alias.name.removeprefix("linclob.")
                            for alias in node.names
                            if alias.name.split(".")[0] == "linclob")
    return imported


def layer_violations(sources: dict[str, str]) -> list[str]:
    """Each `module imports name` that `_LAYERS` does not allow, and each
    `module does not import name` that it lists."""
    found = []
    for module, source in sources.items():
        imported, allowed = package_imports(source), _LAYERS[module]
        found += [f"{module} imports {name}" for name in sorted(imported - allowed)]
        found += [f"{module} does not import {name}"
                  for name in sorted(allowed - imported)]
    return found


def test_every_module_imports_only_the_layers_below_it():
    sources = {path.stem: path.read_text() for path in _SOURCES
               if path.name != "__init__.py"}
    assert set(sources) == set(_LAYERS)
    assert layer_violations(sources) == []


def test_an_import_against_the_layers_is_found():
    sources = {"core": "from .asf import normalize\n",
               "oracle": ("from . import core, taxonomy\n"
                          "import linclob.strategy\n"
                          "from linclob.core import Game\n"),
               "asf": "import os\n"}
    assert layer_violations(sources) == ["core imports asf",
                                         "oracle imports strategy",
                                         "oracle imports taxonomy",
                                         "asf does not import core"]
