"""Source hygiene checks that need only the standard library."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "omegasem"


def unused_imports(source):
    """Names a module imports but never reads (``__future__`` exempt)."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_unused_import_detector():
    source = ("from __future__ import annotations\n"
              "import os, sys\n"
              "from typing import List as L, Dict\n"
              "x: Dict = sys.argv\n")
    assert unused_imports(source) == [(2, "os"), (3, "L")]


def test_no_unused_imports():
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for line, name in unused_imports(path.read_text(encoding="utf-8")):
            found.append("%s:%d: %s" % (path.name, line, name))
    assert not found, "unused imports:\n" + "\n".join(found)
