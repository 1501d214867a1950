"""The demos are not run by the test suite; check that what they import exists."""

import ast
import importlib
from pathlib import Path

import pytest

import psae

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(demo):
    tree = ast.parse(demo.read_text(encoding="utf-8"), filename=str(demo))
    missing = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "psae":
            module = importlib.import_module(node.module)
            missing += [f"{node.module}.{a.name}" for a in node.names
                        if not hasattr(module, a.name)]
    assert not missing


def test_package_all_resolves():
    assert [name for name in psae.__all__ if not hasattr(psae, name)] == []
