"""Every name a library or test module imports is used in that module."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*ROOT.glob("src/pcil/*.py"), *ROOT.glob("tests/*.py")])


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that no expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_finds_an_unused_import():
    assert unused_imports("import os\nfrom typing import Mapping, Sequence\nx: Mapping\n") == [
        "os (line 1)", "Sequence (line 2)"]
