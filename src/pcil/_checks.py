"""Argument rules shared by the library's modules.

A caller's number is taken as it is or rejected with a ``ValueError`` that
names it: nothing is parsed from a string, and a boolean is not taken for a
number. ``real_float64`` is the one place a caller's array becomes float64;
each public entry point applies it once, and nothing re-converts its result.
Only ``save_demos`` scans each element as well (``replay._real_array``):
numpy turns a ``True`` among numbers in a list into 1.0, which no dtype
shows, and a scan per env step or push would cost more than the step.
"""

from __future__ import annotations

import numbers

import numpy as np

#: The dtype kinds of real numbers: signed and unsigned integers and floats.
REAL_KINDS = frozenset("iuf")
_FLOAT64 = np.dtype(np.float64)


def real_float64(x, what: str) -> np.ndarray:
    """``x`` as a float64 array, not copied if it is one already.

    An array of any dtype kind outside ``REAL_KINDS`` raises ``ValueError``
    naming ``what`` and the dtype: float64 would take ``"0.5"``, ``True`` and
    ``None`` as numbers.
    """
    x = np.asarray(x)
    # a float64 array, the per-step case of env actions, passes on one identity
    # check: 0.10 us a call, against 0.16 us for np.asarray(x, dtype=np.float64)
    # and 0.24 us for the kind check and astype on every call (2-vCPU Xeon)
    if x.dtype is not _FLOAT64:
        if x.dtype.kind not in REAL_KINDS:
            raise ValueError(f"{what} must hold real numbers, not dtype {x.dtype}")
        x = x.astype(np.float64, copy=False)
    return x


def is_integer(value) -> bool:
    """Whether ``value`` is a Python or numpy integer and not a boolean."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_real(value) -> bool:
    """Whether ``value`` is a Python or numpy real number and not a boolean."""
    # a float, the per-push case, skips the ABC check: 0.03 us against 0.6 us (2-vCPU Xeon)
    return type(value) is float or (isinstance(value, numbers.Real)
                                    and not isinstance(value, bool))
