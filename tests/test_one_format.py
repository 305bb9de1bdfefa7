"""The checkpoint container is the library's one file format.

Parameter sets and demo sets are both written by ``pcil.checkpoint``, whose
reader checks every byte it reads. A pickle, a marshal dump, a shelf or a
numpy ``.npy``/``.npz``/raw file would be a second format, with rules and
errors of its own (and unpickling can run arbitrary code), so no library
module may import or call one.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "pcil").glob("*.py"))

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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_second_file_format(path):
    assert second_formats(path.read_text()) == []


def test_finds_every_kind_of_second_format():
    source = '''
import pickle
import numpy as np, shelve as db
from marshal import dumps
from numpy import savez, zeros
def write(path, arr):
    np.save(path, arr)
    arr.tofile(path)
    return numpy.fromfile(path), np.load(path), np.zeros(3), checkpoint.load(path)
'''
    assert second_formats(source) == [
        "2: import pickle", "3: import shelve", "4: from marshal import", "5: from numpy import savez",
        "7: .save", "8: .tofile", "9: .fromfile", "9: .load"]
