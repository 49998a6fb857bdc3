"""The one rule for size, count, rate and fraction arguments, and one for
arrays of integers. It imports nothing from the package, so every module can
use it."""

import math
import numbers

import numpy as np

# the signed 64-bit range: the ceiling of a seed and of a manifest field, and
# the bounds of an integer array whose caller checks its own range
_I64_MIN, _I64_MAX = -(2**63), 2**63 - 1


def _require_int(name, value, minimum, maximum=math.inf):
    """``value`` as a Python int; ``ValueError`` naming ``name`` unless it is an
    integer, Python or numpy but not a bool, in [``minimum``, ``maximum``]."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or not minimum <= value <= maximum:
        bound = f">= {minimum}" if maximum == math.inf else f"in [{minimum}, {maximum}]"
        raise ValueError(f"{name} must be an int {bound}, got {value!r}")
    return int(value)


def _require_float(name, value, below):
    """``value`` as a Python float; ``ValueError`` naming ``name`` unless it is
    a real number, Python or numpy but not a bool, in [0, ``below``)."""
    # written so that NaN fails it
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not 0 <= value < below:
        rule = "finite and >= 0" if below == math.inf else f"in [0, {below})"
        raise ValueError(f"{name} must be {rule}, got {value!r}")
    return float(value)


def _require_int_array(name, values, minimum, maximum):
    """``values`` as an int64 array; ``ValueError`` naming ``name`` unless its
    dtype is an integer one, not bool or float, and every entry lies in
    [``minimum``, ``maximum``]. An array with no entries passes whatever its
    dtype: ``np.asarray([])`` is float64."""
    arr = np.asarray(values)
    # refused, not cast: a cast truncates 1.9 to 1 and takes True as 1
    if arr.size and arr.dtype.kind not in "iu":
        raise ValueError(f"{name} must be integers, got dtype {arr.dtype}")
    if arr.size and not minimum <= arr.min() <= arr.max() <= maximum:
        raise ValueError(f"{name} must lie in [{minimum}, {maximum}], got [{arr.min()}, {arr.max()}]")
    return arr.astype(np.int64, copy=False)
