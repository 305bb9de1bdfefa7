"""Only ``autodiff.py`` knows how an MLP's parameters are named.

Every other library module reads an MLP's layers through
``autodiff.mlp_layers``, so no copy of the layer walk can grow up beside the
module-level forwards.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "pcil"
MODULES = sorted(p for p in LIBRARY.glob("*.py") if p.name != "autodiff.py")

#: ``layer`` followed by a digit, a format field, a %-conversion or the end of
#: the string: the start of a name such as ``layer0.w`` or ``f"layer{i}.b"``
_LAYER_NAME = re.compile(r"layer(\d|\{|%|$)")


def layer_name_strings(source: str) -> list[str]:
    """The string literals (f-string parts included) that spell or build a
    layer parameter name, as ``line: text``; docstrings are left out."""
    tree = ast.parse(source)
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                docstrings.add(id(node.body[0].value))
    found = [node for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and isinstance(node.value, str)
             and id(node) not in docstrings and _LAYER_NAME.search(node.value)]
    found.sort(key=lambda node: (node.lineno, node.col_offset))
    return [f"{node.lineno}: {node.value!r}" for node in found]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_only_autodiff_builds_layer_names(path):
    assert layer_name_strings(path.read_text()) == []


def test_autodiff_builds_them():
    assert layer_name_strings((LIBRARY / "autodiff.py").read_text())


def test_finds_every_way_to_build_a_layer_name():
    source = '''
"""Docstrings may name ``layer{i}.w``."""
def f(p, i):
    """And so may ``layer0.b``."""
    return (p[f"layer{i}.w"], p["layer%d.b" % i], p["layer{}.w".format(i)],
            p["layer" + str(i)], p["layer0.w"], "layers", "hidden layer width")
'''
    assert layer_name_strings(source) == [
        "5: 'layer'", "5: 'layer%d.b'", "5: 'layer{}.w'", "6: 'layer'", "6: 'layer0.w'"]
