"""The package namespace: ``import weakmeas`` loads no submodule, and each
public name is imported from the module that defines it on first access."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import weakmeas


def test_public_surface_size():
    assert len(weakmeas.__all__) == len(set(weakmeas.__all__)) == 28


def test_no_module_imports_a_private_name_of_another():
    found = []
    for path in sorted(Path(weakmeas.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                found += [f"{path.name}: {alias.name}" for alias in node.names
                          if alias.name.startswith("_")]
    assert found == []


@pytest.mark.parametrize("name", weakmeas.__all__)
def test_name_is_its_module_object(monkeypatch, name):
    module = importlib.import_module(f"weakmeas.{weakmeas._SOURCES[name]}")
    # drop the cached binding so the lookup runs the lazy import
    monkeypatch.delitem(vars(weakmeas), name, raising=False)
    assert getattr(weakmeas, name) is getattr(module, name)
    assert vars(weakmeas)[name] is getattr(module, name)
    assert getattr(getattr(module, name), "__module__", module.__name__) == module.__name__


def test_star_import_binds_every_name():
    namespace = {}
    exec("from weakmeas import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == weakmeas.__all__
    for name, value in namespace.items():
        assert value is getattr(weakmeas, name)


def test_dir_lists_every_name_once(monkeypatch):
    for name in weakmeas.__all__:
        monkeypatch.delitem(vars(weakmeas), name, raising=False)
    weakmeas.CELLS  # one name cached, the others not
    listed = dir(weakmeas)
    assert set(weakmeas.__all__) <= set(listed)
    assert len(listed) == len(set(listed))


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match=r"'weakmeas' has no attribute 'no_such_name'"):
        weakmeas.no_such_name


def test_readme_gives_other_names_with_their_module():
    # README: `import weakmeas` exports the names of __all__, and any
    # other name is given with its module at its first mention, as
    # `weakmeas.<module>.<name>`; every such path resolves
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    assert f"exports the {len(weakmeas.__all__)} names of" in " ".join(text.split())
    spans = "\n".join(re.findall(r"`([^`]*)`", text))
    modules = {info.name: importlib.import_module(f"weakmeas.{info.name}")
               for info in pkgutil.iter_modules(weakmeas.__path__)}
    others = {name for module in modules.values() for name, value in vars(module).items()
              if not name.startswith("_") and name not in weakmeas.__all__ and name not in modules
              and (name.isupper() or getattr(value, "__module__", None) == module.__name__)}
    found = []
    for name in sorted(others):
        first = re.search(rf"(?<![\w.])(?:weakmeas\.(\w+)\.)?{name}\b", spans)
        if first and not hasattr(modules.get(first[1]), name):
            found.append(first[0])
    for path in re.findall(r"\bweakmeas(?:\.\w+)+", text):
        head, _, name = path.rpartition(".")
        if head == "weakmeas":
            if name not in modules and name not in weakmeas.__all__ + ["__all__"]:
                found.append(path)
        elif not hasattr(modules.get(head.split(".", 1)[1]), name):
            found.append(path)
    assert found == []
