"""The package's public surface: each module's ``__all__`` is the one list of
its public names, and ``jitterfit`` re-exports every one of them."""

import ast
import inspect
import types

import jitterfit
from jitterfit import announce, distributions, em, errors, scan, special, traceio

MODULES = (distributions, special, em, scan, traceio, announce, errors)


def _defined_at_top_level(module: types.ModuleType) -> set[str]:
    """Names a module's own top-level code defines, leaving out imports."""
    names = set()
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names |= {t.id for t in node.targets if isinstance(t, ast.Name)}
    return names


def test_package_all_is_the_modules_all_lists():
    expected = ["__version__"] + [name for module in MODULES for name in module.__all__]
    assert jitterfit.__all__ == expected
    assert len(set(expected)) == len(expected), "a name is exported by two modules"


def test_each_exported_name_is_the_object_its_module_defines():
    for module in MODULES:
        defined = _defined_at_top_level(module)
        for name in module.__all__:
            assert name in defined, f"{module.__name__} exports {name} without defining it"
            assert getattr(jitterfit, name) is getattr(module, name), name


def test_every_public_attribute_of_the_package_is_exported():
    public = {
        name
        for name, value in vars(jitterfit).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public <= set(jitterfit.__all__), sorted(public - set(jitterfit.__all__))
