"""One list of public names: the package exports each module's __all__."""

import ast
import importlib
import inspect
import pathlib
import types

import ngstate
from ngstate import errors

INIT = pathlib.Path(ngstate.__file__)


def _star_modules():
    """Modules that __init__ star-imports; fails on any other statement
    that binds a name, so __init__ lists no exported symbol itself."""
    body = ast.parse(INIT.read_text(encoding="utf-8")).body
    modules = []
    for node in body:
        if isinstance(node, ast.ImportFrom):
            assert node.level == 1 and [a.name for a in node.names] == ["*"], \
                ast.unparse(node)
            modules.append(importlib.import_module(f"ngstate.{node.module}"))
        elif isinstance(node, ast.Assign):
            assert [t.id for t in node.targets] == ["__version__"], ast.unparse(node)
        else:  # the docstring
            assert isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
    return modules


def test_package_exports_each_modules_all_once():
    modules = _star_modules()
    assert errors in modules and not hasattr(errors, "__all__")
    classes = {k for k, v in vars(errors).items()
               if isinstance(v, type) and issubclass(v, errors.NgStateError)}
    assert classes == {k for k in vars(errors) if not k.startswith("_")}

    listed = {}
    for module in modules:
        if module is errors:
            continue
        for name in module.__all__:
            assert name not in listed, f"{name} in {listed.get(name)} and {module.__name__}"
            listed[name] = module.__name__
            value = getattr(module, name)
            if inspect.isfunction(value) or inspect.isclass(value):
                assert value.__module__ == module.__name__, name
            assert getattr(ngstate, name) is value, name

    public = {k for k, v in vars(ngstate).items()
              if not k.startswith("_") and not isinstance(v, types.ModuleType)}
    assert public == set(listed) | classes
