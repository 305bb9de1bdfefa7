"""No library function or method takes ``**kwargs``.

A ``**`` parameter passes settings through unseen (``make_env(name,
**physics)`` once forwarded any physics override to the env's constructor),
so every setting the library accepts has to be a named parameter.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "pcil").glob("*.py"))


def kwargs_parameters(source: str) -> list[str]:
    """The functions, methods and lambdas in ``source`` that take a ``**``
    parameter, as ``line: name(**parameter)``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)) and node.args.kwarg:
            name = getattr(node, "name", "<lambda>")
            found.append((node.lineno, f"{node.lineno}: {name}(**{node.args.kwarg.arg})"))
    return [text for _, text in sorted(found)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_function_takes_kwargs(path):
    assert kwargs_parameters(path.read_text()) == []


def test_finds_every_kind_of_kwargs_parameter():
    source = '''
def make(name, **physics):
    return build(name, **physics)
class Env:
    def __init__(self, *args, **kw):
        f = lambda **opts: opts
        async def g(x, *, y=1, **rest):
            return {**rest, "y": y}
def plain(a, *args, b=2):
    return call(**{"a": a})
'''
    assert kwargs_parameters(source) == [
        "2: make(**physics)", "5: __init__(**kw)", "6: <lambda>(**opts)", "7: g(**rest)"]
