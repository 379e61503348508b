"""The package is numpy-only: it imports nothing else outside the standard library."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sdvsum"
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def absolute_imports(path):
    """The top-level name of every module a file imports absolutely."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_the_package_imports_only_numpy_and_the_standard_library():
    files = sorted(PACKAGE.glob("*.py"))
    assert files
    outside = [f"{path.name}: {name}" for path in files
               for name in absolute_imports(path) if name not in ALLOWED]
    assert outside == []
