"""Every library module imports only the standard library, numpy and ``pcil``.

The package is a pure-numpy reproduction: scipy, matplotlib or any other
third-party import would be a dependency that ``pyproject.toml`` does not
declare and that CI does not install.
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "pcil").glob("*.py"))

ALLOWED = sys.stdlib_module_names | {"numpy", "pcil"}


def foreign_imports(source: str) -> list[str]:
    """The imports in ``source`` of a top-level package outside ``ALLOWED``,
    as ``line: import``; relative imports are ``pcil``'s own."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, f"import {alias.name}") for alias in node.names
                      if alias.name.split(".")[0] not in ALLOWED]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module.split(".")[0] not in ALLOWED:
                found.append((node.lineno, f"from {node.module} import"))
    return [f"{line}: {what}" for line, what in sorted(found)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_imports_only_stdlib_numpy_and_pcil(path):
    assert foreign_imports(path.read_text()) == []


def test_finds_every_foreign_import():
    source = '''
from __future__ import annotations
import os.path, scipy
import numpy as np
from matplotlib import pyplot
from . import autodiff as ad
from .checkpoint import save_checkpoint
from pcil.envs import make_env
def plot():
    import scipy.stats as stats
    from numpy.linalg import norm
'''
    assert foreign_imports(source) == [
        "3: import scipy", "5: from matplotlib import", "10: import scipy.stats"]
