"""Every exported name is used inside the package.

A name in ``fdvar.__all__`` must be read somewhere in ``src/fdvar`` outside
``__init__.py``: called, imported, raised, annotated or referred to as an
attribute.  Its own ``def`` or ``class`` statement does not count, so a
function that only the tests call fails here.
"""

import ast
from pathlib import Path

import fdvar

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fdvar"


def used_names(source: str) -> set[str]:
    """Identifiers the code reads: names, attributes and imported names."""
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def test_every_export_is_used_in_the_package():
    dead = "def japanese_bracket(xi):\n    return xi\n"
    assert "japanese_bracket" not in used_names(dead)  # a def alone is not a use
    used = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            used |= used_names(path.read_text(encoding="utf-8"))
    assert sorted(set(fdvar.__all__) - used) == []
