"""Design rules the library keeps, each checked by a scan of its syntax tree.

Each rule has a scanner that lists the places in a source that break it, as
``line: what``. ``GUARDS`` holds one row a rule: its name, the modules it
scans, and a planted source with the findings expected in it; its reason is
given below, under its name. Adding a guard is adding a row. A library
module a row does not scan is the rule's home, and its scan must find what
the rule keeps to it there.

The rules, and why each is kept:

- ``no_kwargs``: no library function or method takes ``**kwargs``. A ``**``
  parameter passes settings through unseen (``make_env(name, **physics)``
  once forwarded any physics override to the env's constructor), so every
  setting the library accepts has to be a named parameter.
- ``layer_names``: only ``autodiff.py`` knows how an MLP's parameters are
  named. Every other library module reads an MLP's layers through
  ``autodiff.mlp_layers``, so no copy of the layer walk can grow up beside
  the module-level forwards.
- ``one_format``: the checkpoint container is the library's one file format.
  Parameter sets and demo sets are both written by ``pcil.checkpoint``, whose
  reader checks every byte it reads. A pickle, a marshal dump, a shelf or a
  numpy ``.npy``/``.npz``/raw file would be a second format, with rules and
  errors of its own (and unpickling can run arbitrary code), so no library
  module may import or call one.
- ``dependencies``: every library module imports only the standard library,
  numpy and ``pcil``. The package is a pure-numpy reproduction: scipy,
  matplotlib or any other third-party import would be a dependency that
  ``pyproject.toml`` does not declare and that CI does not install.
- ``unused_imports``: every name a library or test module imports is used in
  that module.
- ``no_coercing_asarray``: no library module converts with a float64
  ``np.asarray``, which parses strings, booleans and None into numbers.
  ``_checks.real_float64`` is the one place a caller's value becomes float64
  (``test_one_number_rule``).
- ``real_kinds_in_checks``: only ``_checks`` names ``REAL_KINDS``, the dtype
  kinds the number rule takes for real numbers. A second reader of them is a
  second copy of the rule.
- ``workspace_required``: no library function gives a parameter named
  ``workspace`` or ``head_nodes`` a default. A network's tape forward has one
  path, on the head nodes and the workspace its caller passes; a default
  would grow a second one (new arrays, constant nodes) that no run takes.
"""

import ast
import re
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import pytest

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "pcil").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))


def _library(but: str = "") -> list[Path]:
    return [path for path in LIBRARY if path.name != but]


def kwargs_parameters(source: str) -> list[str]:
    """The functions, methods and lambdas in ``source`` that take a ``**``
    parameter, as ``line: name(**parameter)``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)) and node.args.kwarg:
            name = getattr(node, "name", "<lambda>")
            found.append((node.lineno, f"{node.lineno}: {name}(**{node.args.kwarg.arg})"))
    return [text for _, text in sorted(found)]


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


SERIALISERS = {"pickle", "marshal", "shelve"}
#: numpy's own file readers and writers, reached as ``np.<name>`` or imported
NUMPY_FILE_FUNCTIONS = {"save", "savez", "savez_compressed", "load", "fromfile"}


def second_formats(source: str) -> list[str]:
    """The imports and uses of a file format other than the checkpoint
    container in ``source``, as ``line: what``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, f"import {alias.name}") for alias in node.names
                      if alias.name.split(".")[0] in SERIALISERS]
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module.split(".")[0] in SERIALISERS:
                found.append((node.lineno, f"from {node.module} import"))
            elif node.module == "numpy":
                found += [(node.lineno, f"from numpy import {alias.name}") for alias in node.names
                          if alias.name in NUMPY_FILE_FUNCTIONS]
        elif isinstance(node, ast.Attribute):
            numpy_file = (node.attr in NUMPY_FILE_FUNCTIONS and isinstance(node.value, ast.Name)
                          and node.value.id in {"np", "numpy"})
            if numpy_file or node.attr == "tofile":
                found.append((node.lineno, f".{node.attr}"))
    return [f"{line}: {what}" for line, what in sorted(found)]


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


#: ``dtype`` values that make ``np.asarray`` parse strings, booleans and None
#: into float64. An explicit byte order (``"<f8"``) is left alone: the
#: checkpoint writer uses it to lay out an array the rule has already checked.
FLOAT64_NAMES = {"float", "float64", "double", "float_", "f8", "d"}


def _is_float64(node) -> bool:
    if isinstance(node, ast.Name):  # float
        return node.id in FLOAT64_NAMES
    if isinstance(node, ast.Attribute):  # np.float64
        return (node.attr in FLOAT64_NAMES and isinstance(node.value, ast.Name)
                and node.value.id in {"np", "numpy"})
    return isinstance(node, ast.Constant) and node.value in FLOAT64_NAMES  # "float64"


def _is_asarray(func) -> bool:
    if isinstance(func, ast.Name):  # from numpy import asarray
        return func.id == "asarray"
    return (isinstance(func, ast.Attribute) and func.attr == "asarray"
            and isinstance(func.value, ast.Name) and func.value.id in {"np", "numpy"})


def coercing_calls(source: str) -> list[str]:
    """The calls of ``np.asarray`` with a float64 ``dtype``, by keyword or as the
    second argument, in ``source``, as ``line: call``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and _is_asarray(node.func)):
            continue
        dtypes = [kw.value for kw in node.keywords if kw.arg == "dtype"] + node.args[1:2]
        if any(map(_is_float64, dtypes)):
            found.append((node.lineno, ast.unparse(node)))
    return [f"{line}: {call}" for line, call in sorted(found)]


#: The parameters a caller always passes: a tape forward's workspace and nodes
REQUIRED = {"workspace", "head_nodes"}


def defaulted_required_parameters(source: str) -> list[str]:
    """The parameters in ``REQUIRED`` that a function, method or lambda in
    ``source`` gives a default, as ``line: name(parameter=default)``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        positional = [*args.posonlyargs, *args.args]
        pairs = [*zip(positional[len(positional) - len(args.defaults):], args.defaults),
                 *zip(args.kwonlyargs, args.kw_defaults)]
        name = getattr(node, "name", "<lambda>")
        found += [(node.lineno, f"{node.lineno}: {name}({arg.arg}={ast.unparse(default)})")
                  for arg, default in pairs if default is not None and arg.arg in REQUIRED]
    return [text for _, text in sorted(found)]


def names_of(source: str, name: str) -> list[int]:
    """The lines of ``source`` that name ``name``: as a variable, an attribute
    or an import."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Name) and node.id == name
                or isinstance(node, ast.Attribute) and node.attr == name
                or isinstance(node, ast.ImportFrom) and name in {a.name for a in node.names}):
            lines.add(node.lineno)
    return sorted(lines)


# ---------------------------------------------------------------------------
# the table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Guard:
    """A rule: its name, the modules it scans, its scanner, and a planted
    source with the findings the scanner must return for it."""

    rule: str
    modules: list[Path]
    scan: Callable[[str], list]
    planted: str
    found: list


GUARDS = [
    Guard("no_kwargs", _library(), kwargs_parameters, '''
def make(name, **physics):
    return build(name, **physics)
class Env:
    def __init__(self, *args, **kw):
        f = lambda **opts: opts
        async def g(x, *, y=1, **rest):
            return {**rest, "y": y}
def plain(a, *args, b=2):
    return call(**{"a": a})
''', ["2: make(**physics)", "5: __init__(**kw)", "6: <lambda>(**opts)", "7: g(**rest)"]),
    Guard("layer_names", _library(but="autodiff.py"), layer_name_strings, '''
"""Docstrings may name ``layer{i}.w``."""
def f(p, i):
    """And so may ``layer0.b``."""
    return (p[f"layer{i}.w"], p["layer%d.b" % i], p["layer{}.w".format(i)],
            p["layer" + str(i)], p["layer0.w"], "layers", "hidden layer width")
''', ["5: 'layer'", "5: 'layer%d.b'", "5: 'layer{}.w'", "6: 'layer'", "6: 'layer0.w'"]),
    Guard("one_format", _library(), second_formats, '''
import pickle
import numpy as np, shelve as db
from marshal import dumps
from numpy import savez, zeros
def write(path, arr):
    np.save(path, arr)
    arr.tofile(path)
    return numpy.fromfile(path), np.load(path), np.zeros(3), checkpoint.load(path)
''', ["2: import pickle", "3: import shelve", "4: from marshal import",
      "5: from numpy import savez", "7: .save", "8: .tofile", "9: .fromfile", "9: .load"]),
    Guard("dependencies", _library(), foreign_imports, '''
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
''', ["3: import scipy", "5: from matplotlib import", "10: import scipy.stats"]),
    Guard("unused_imports", [*LIBRARY, *TESTS], unused_imports,
          "import os\nfrom typing import Mapping, Sequence\nx: Mapping\n",
          ["os (line 1)", "Sequence (line 2)"]),
    Guard("no_coercing_asarray", _library(), coercing_calls, '''
import numpy as np
from numpy import asarray
def convert(x):
    a = np.asarray(x, dtype=np.float64)
    b = np.asarray(x, dtype=float)
    c = numpy.asarray(x, np.float64)
    d = asarray(x, dtype="float64")
    e = np.asarray(x), np.asarray(x, dtype=np.int64), np.asarray(x, dtype="<f8")
    f = real_float64(x, "x"), np.array(x, dtype=float), other.asarray(x, dtype=float)
    return np.asarray(np.asarray(x), dtype=np.double)
''', ["5: np.asarray(x, dtype=np.float64)", "6: np.asarray(x, dtype=float)",
      "7: numpy.asarray(x, np.float64)", "8: asarray(x, dtype='float64')",
      "11: np.asarray(np.asarray(x), dtype=np.double)"]),
    Guard("real_kinds_in_checks", _library(but="_checks.py"),
          partial(names_of, name="REAL_KINDS"), '''
from ._checks import REAL_KINDS, real_float64
from pcil import _checks
def kinds(x, REAL="iuf"):
    ok = x.dtype.kind in REAL_KINDS
    return ok or x.dtype.kind in _checks.REAL_KINDS, "REAL_KINDS", real_float64(x, "x")
''', [2, 5, 6]),
    Guard("workspace_required", _library(), defaulted_required_parameters, '''
def forward(x, nodes, workspace=None):
    return mlp(x, nodes, workspace)
class Encoder:
    def _forward(self, x, head_nodes=None, workspace: dict = {}):
        f = lambda x, workspace={}: x
        async def g(x, head_nodes, *, workspace=None, start=0):
            return x
def fine(x, head_nodes, workspace, start=0, out=None):
    return x
''', ["2: forward(workspace=None)", "5: _forward(head_nodes=None)", "5: _forward(workspace={})",
      "6: <lambda>(workspace={})", "7: g(workspace=None)"]),
]


@pytest.mark.parametrize("guard, path", [
    pytest.param(guard, path, id=f"{guard.rule}:{path.relative_to(ROOT)}")
    for guard in GUARDS for path in guard.modules
])
def test_module_keeps_the_rule(guard, path):
    assert guard.scan(path.read_text()) == [], guard.rule


@pytest.mark.parametrize("guard", GUARDS, ids=lambda guard: guard.rule)
def test_guard_finds_every_planted_violation(guard):
    assert guard.scan(guard.planted) == guard.found
    for home in set(LIBRARY) - set(guard.modules):
        assert guard.scan(home.read_text()), f"{home.name} is no home of {guard.rule}"
