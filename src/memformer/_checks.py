"""The one rule for size, count, rate and fraction arguments. It imports
nothing from the package, so every module can use it."""

import math
import numbers

import numpy as np

# the largest signed 64-bit integer: the ceiling of a seed and of a manifest field
_I64_MAX = 2**63 - 1


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
