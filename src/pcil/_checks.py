"""Argument rules shared by the library's modules.

A caller's number is taken as it is or rejected with a ``ValueError`` that
names it: nothing is parsed from a string, and a boolean is not taken for a
number. ``real_float64`` is the one place a caller's array becomes float64,
and the one code that decides whether a caller's list is an array of real
numbers; each public entry point applies it once, and nothing re-converts
its result. The sequence rule: numpy must stack a list, a tuple or any other
sequence it stacks item by item (a deque, a sequence class of the caller's)
to an array of a real dtype, and the sequence must hold no boolean at any
depth, which numpy would stack as 1.0 among numbers. A value numpy reads
through the buffer or array protocol (an ``array.array``, a memoryview, an
object with ``__array__``) brings a dtype of its own, which shows a boolean,
so its values are not walked.
"""

from __future__ import annotations

import numbers
from functools import partial
from itertools import chain
from operator import attrgetter

import numpy as np

#: The dtype kinds of real numbers: signed and unsigned integers and floats.
REAL_KINDS = frozenset("iuf")
#: The types of a boolean value: numpy stacks one among numbers as 1.0.
BOOLEANS = frozenset({bool, np.bool_})
_FLOAT64 = np.dtype(np.float64)
_BOOL = np.dtype(bool)
#: The types of the real numbers numpy stacks as they are, and of the rows and
#: arrays it stacks them from (see ``_holds_a_boolean``)
_NUMBERS = frozenset([int, float, *(np.dtype(code).type for code in
                                    np.typecodes["AllInteger"] + np.typecodes["Float"])])
_ROWS = frozenset({list, tuple})
_ARRAYS = frozenset({np.ndarray})
#: The attributes by which numpy reads an array-like whole, not item by item
_ARRAY_PROTOCOL = ("__array__", "__array_interface__", "__array_struct__")


def real_float64(x, what: str) -> np.ndarray:
    """``x`` as a float64 array, not copied if it is one already.

    An array of any dtype kind outside ``REAL_KINDS`` raises ``ValueError``
    naming ``what`` and the dtype: float64 would take ``"0.5"``, ``True`` and
    ``None`` as numbers. So do rows of different lengths or depths, and a
    sequence that holds a boolean or a boolean array at any depth, which
    numpy stacks as 1.0 among numbers where no dtype shows it.
    """
    # a float64 array, the per-step case of env actions, returns after a type and
    # an identity check: 0.10-0.11 us a call, as np.asarray and the identity check
    # took, against 0.16 us for np.asarray(x, dtype=np.float64). A list of two
    # floats takes 0.8 us with the boolean scan, 0.35 us without (2-vCPU Xeon)
    if type(x) is np.ndarray and x.dtype is _FLOAT64:
        return x
    try:
        array = np.asarray(x)
    except ValueError as exc:  # ragged rows, or nesting past numpy's 64 dimensions
        raise ValueError(f"{what} must hold real numbers in rows of one shape: {exc}") from exc
    if array.dtype is not _FLOAT64:
        if array.dtype.kind not in REAL_KINDS:
            raise ValueError(f"{what} must hold real numbers, not dtype {array.dtype}")
        array = array.astype(np.float64, copy=False)
    if array.ndim and _stacked_item_by_item(x) and _holds_a_boolean(x):
        raise ValueError(f"{what} must hold real numbers, not a boolean among them")
    return array


def _stacked_item_by_item(x) -> bool:
    """Whether numpy stacked ``x`` from its items, as it does a sequence, and
    not through the buffer or array protocol."""
    if type(x) in _ROWS:
        return True
    if any(map(partial(hasattr, x), _ARRAY_PROTOCOL)):  # an ndarray among them
        return False
    try:
        memoryview(x).release()
    except TypeError:
        return True
    return False


def _holds_a_boolean(values) -> bool:
    """Whether ``values``, a sequence numpy stacks to a real dtype, holds a
    boolean or a boolean array in it or in the sequences it nests.

    A list or tuple is walked one nesting level at a time. A level of numbers,
    of lists and tuples, or of arrays is told by the set of its types (and of
    its arrays' dtypes), not by a check of each item in Python: on a column of
    3200 demo rows the sets take 0.28 ms and the check per item 0.76 ms,
    nearly what stacking the column takes (0.89 ms, 2-vCPU Xeon). Any other
    level, and any other sequence, is stacked again as objects: numpy then
    walks it as it did for the number array, and keeps each value's own type.
    """
    level = values
    while type(level) in _ROWS:
        types = set(map(type, level))
        if types <= _NUMBERS:  # the last level as a rule, and the empty one
            return False
        if types == _ARRAYS:
            return _BOOL in set(map(attrgetter("dtype"), level))
        if not types <= _ROWS:
            break
        level = list(chain.from_iterable(level))
    # an object array holds the values of numbers, and of the arrays it was
    # stacked from, as Python or numpy scalars; a 0-d array it keeps whole
    return any(type(value) in BOOLEANS or isinstance(value, np.ndarray) and value.dtype == _BOOL
               for value in np.array(level, dtype=object).flat)


def is_integer(value) -> bool:
    """Whether ``value`` is a Python or numpy integer and not a boolean."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_real(value) -> bool:
    """Whether ``value`` is a Python or numpy real number and not a boolean."""
    # a float, the per-push case, skips the ABC check: 0.03 us against 0.6 us (2-vCPU Xeon)
    return type(value) is float or (isinstance(value, numbers.Real)
                                    and not isinstance(value, bool))
