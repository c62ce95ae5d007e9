import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import wirecut

MODULES = sorted(info.name for info in pkgutil.iter_modules(wirecut.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"wirecut.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing


def test_every_name_the_package_imports_resolves():
    tree = ast.parse(Path(wirecut.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"wirecut.{node.module}")
        for alias in node.names:
            assert hasattr(module, alias.name), f"wirecut.{node.module}.{alias.name}"
            assert getattr(wirecut, alias.asname or alias.name) is getattr(module, alias.name)
