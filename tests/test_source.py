"""Checks on the package source itself, read with :mod:`ast`."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "jitterfit"


def _names(node: ast.AST) -> set[str]:
    """Every name ``node`` reads or looks up as an attribute."""
    found = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            found.add(child.id)
        elif isinstance(child, ast.Attribute):
            found.add(child.attr)
    return found


def test_every_private_function_has_a_caller_in_src():
    # A private function that only tests call is code kept for the tests'
    # sake; the tests should reach it through the code that uses it.
    defined: dict[str, str] = {}
    referenced: set[str] = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name.startswith("_") and not node.name.endswith("__"):
                    defined[f"{path.stem}.{node.name}"] = node.name
                # A function's own body does not count as a caller.
                referenced |= _names(node) - {node.name}
            else:
                referenced |= _names(node)
    assert defined, "no private functions found; is SRC right?"
    uncalled = sorted(where for where, name in defined.items() if name not in referenced)
    assert uncalled == [], f"private functions with no caller in src/: {uncalled}"
