"""The package imports nothing but the standard library and its declared dependencies."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fdvar"
DECLARED = {"numpy", "scipy"}  # [project] dependencies in pyproject.toml


def test_imports_are_stdlib_declared_or_relative():
    undeclared = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                if top not in sys.stdlib_module_names and top not in DECLARED:
                    undeclared.append(f"{path.name}:{node.lineno} imports {name}")
    assert undeclared == []
