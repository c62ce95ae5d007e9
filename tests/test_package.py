import ast
import importlib
import importlib.util
import pkgutil
import sys
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


def test_every_benchmark_hook_resolves(monkeypatch):
    # perfbench/pb_layers.py wraps functions under the names their callers
    # use, and leaves out a hook whose target is gone, dropping every metric
    # of its span; a renamed or unused import would silently empty that span
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(perfbench))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location("pb_layers", perfbench / "pb_layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    spans = {span for _, span in layers.METRICS.values() if span is not None}
    assert spans <= {hook.span for hook in layers.HOOKS}
    missing = [f"{hook.module}.{hook.attr}" for hook in layers.HOOKS
               if not hasattr(importlib.import_module(hook.module), hook.attr)]
    assert not missing
