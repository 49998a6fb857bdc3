"""Test oracles: reference computations the package's results are held to.

``finite_diff_grad`` is the gradient oracle and ``serial_backward`` the
backward one; ``layer_norm`` and ``softmax_rows`` are the textbook numpy
formulas for the two normalisations the model uses.
"""

import numpy as np

from memformer import autodiff as ad
from memformer.autodiff import Tensor


def serial_backward(loss):
    """The traversal of ``Tensor.backward`` before it released anything or
    handed work to the worker thread: every node keeps its gradient and its
    grad_fn, each grad_fn is called directly and so returns arrays, and each
    gradient is added on arrival, in traversal order. The oracle for the
    leaf gradients."""
    loss.grad = np.ones_like(loss.data)
    for node in reversed(ad._topo_order(loss)):
        if node._grad_fn is None or node.grad is None:
            continue
        for parent, g in zip(node._parents, node._grad_fn(node.grad)):
            if g is None or not parent.requires_grad:
                continue
            parent.grad = g if parent.grad is None else parent.grad + g


def finite_diff_grad(f, x):
    """Central-difference gradient of a scalar function at ``x``.

    ``f`` is called with ``x`` after nudging ``x.data`` in place, so it must
    be a pure function of the tensor's current values.
    """
    step = 1e-5
    base = x.data.reshape(-1)
    grad = np.zeros_like(x.data)
    flat = grad.reshape(-1)
    for i in range(base.size):
        keep = base[i]
        base[i] = keep + step
        f_plus = _scalar_value(f(x))
        base[i] = keep - step
        f_minus = _scalar_value(f(x))
        base[i] = keep
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise ValueError(f"finite_diff_grad: non-finite evaluation at coordinate {i}")
        flat[i] = (f_plus - f_minus) / (2.0 * step)
    return Tensor(grad)


def _scalar_value(y):
    if isinstance(y, Tensor):
        y = y.data
    y = np.asarray(y, dtype=np.float64)
    if y.size != 1:
        raise ValueError(f"expected a scalar evaluation, got shape {y.shape}")
    return float(y.reshape(()))


def layer_norm(x, eps=1e-5):
    """Normalise the last axis to zero mean and unit variance (no gain or bias)."""
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps)


def softmax_rows(s):
    """Softmax over the last axis, stabilised by max-subtraction."""
    shifted = np.exp(s - s.max(axis=-1, keepdims=True))
    return shifted / shifted.sum(axis=-1, keepdims=True)
