"""Every exported name of the package resolves."""

import ast
import importlib
import pkgutil
from pathlib import Path as FsPath

import pytest

import pathpde

MODULES = sorted(m.name for m in pkgutil.iter_modules(pathpde.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_resolve(name):
    module = importlib.import_module(f"pathpde.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_package_imports_resolve():
    tree = ast.parse(FsPath(pathpde.__file__).read_text())
    imported = [(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names]
    assert imported  # the package re-exports its core types
    for module, name in imported:
        source = importlib.import_module(f"pathpde.{module}")
        assert hasattr(source, name), f"pathpde.{module} has no {name}"
        assert getattr(pathpde, name) is getattr(source, name)
