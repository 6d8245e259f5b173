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


def _assigned(target: ast.AST) -> set[str]:
    """The names an assignment to ``target`` binds or fills in: ``_X`` for
    ``_X = ...``, ``_X[k] = ...`` and ``_X, _Y = ...``."""
    if isinstance(target, ast.Name):
        return {target.id}
    if isinstance(target, (ast.Tuple, ast.List)):
        return set().union(*map(_assigned, target.elts))
    if isinstance(target, (ast.Subscript, ast.Attribute, ast.Starred)):
        return _assigned(target.value)
    return set()


def _private_names(kinds) -> tuple[dict[str, str], set[str]]:
    """The private module-level names of src/ that statements of ``kinds``
    define, as ``{"module.name": name}``, and every name src/ reads.  A
    statement that defines or fills in a name does not count as its reader."""
    defined: dict[str, str] = {}
    referenced: set[str] = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = {node.name}
            elif isinstance(node, ast.Assign):
                own = set().union(*map(_assigned, node.targets))
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                own = _assigned(node.target)
            else:
                own = set()
            if isinstance(node, kinds):
                for name in own:
                    if name.startswith("_") and not name.endswith("__"):
                        defined[f"{path.stem}.{name}"] = name
            referenced |= _names(node) - own
    return defined, referenced


def test_every_private_function_has_a_caller_in_src():
    # A private function that only tests call is code kept for the tests'
    # sake; the tests should reach it through the code that uses it.
    defined, referenced = _private_names((ast.FunctionDef, ast.AsyncFunctionDef))
    assert defined, "no private functions found; is SRC right?"
    uncalled = sorted(where for where, name in defined.items() if name not in referenced)
    assert uncalled == [], f"private functions with no caller in src/: {uncalled}"


def test_every_private_constant_and_class_has_a_reader_in_src():
    # A table, constant or class left behind by a deleted code path is dead
    # weight; so is one that only tests read.
    defined, referenced = _private_names(
        (ast.Assign, ast.AnnAssign, ast.AugAssign, ast.ClassDef)
    )
    assert defined, "no private constants found; is SRC right?"
    unread = sorted(where for where, name in defined.items() if name not in referenced)
    assert unread == [], f"private constants and classes with no reader in src/: {unread}"


def test_only_distributions_knows_each_kinds_parameters():
    # Which parameters each model kind has is stated once, in distributions;
    # the modules that print or pack a model's parameters read them from there
    # and never branch on the kind.
    for module in ("cli", "announce", "scan"):
        tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
        named = sorted(
            f"line {node.lineno}: ModelKind.{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "ModelKind"
            and node.attr in ("EXPONENTIAL", "GAMMA")
        )
        assert named == [], f"{module}.py names a model kind: {named}"
