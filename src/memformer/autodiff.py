"""Minimal dense-tensor kernel with reverse-mode differentiation.

Everything is float64: central finite differences (the gradient oracle used
throughout the test suite) are meaningless in float32. The compute graph is
the web of parent links recorded on each result tensor; ``Tensor.backward``
replays it once, in reverse topological order.

Only the primitives the model actually needs are provided: matmul, softmax,
layer norm, ReLU, affine, dropout, cross-entropy, plus the shape plumbing
(reshape / transpose / broadcast / concat / narrow) required to wire an
encoder together.

``no_grad()`` switches recording off for a block: every primitive result
made inside it is a constant with no parents and no ``grad_fn``, so each
intermediate is freed as soon as nothing reads its values. The values are
the same as with recording on. Leaves are unaffected: ``parameter`` and
``glorot_uniform`` still make trainable tensors inside the block. Use it
around forwards whose results are only read, never backpropagated.
"""

from __future__ import annotations

import contextlib

import numpy as np

__all__ = [
    "Tensor",
    "no_grad",
    "constant",
    "parameter",
    "glorot_uniform",
    "add",
    "sub",
    "mul",
    "matmul",
    "affine",
    "relu",
    "softmax_rows",
    "layer_norm",
    "dropout",
    "cross_entropy",
    "reshape",
    "transpose",
    "broadcast_to",
    "concat",
    "narrow",
    "tensor_sum",
    "tensor_mean",
    "finite_diff_grad",
]


class Tensor:
    """A dense float64 array plus the bookkeeping for backprop.

    ``requires_grad=False`` tensors are constants: they never accumulate a
    gradient and backward traversal is pruned at them.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_grad_fn", "_op")

    def __init__(self, data, requires_grad=False, _parents=(), _grad_fn=None, _op="leaf"):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = _parents
        self._grad_fn = _grad_fn
        self._op = _op

    # -- introspection -------------------------------------------------
    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, op={self._op}, requires_grad={self.requires_grad})"

    # -- graph management ----------------------------------------------
    def detach(self):
        """A constant tensor sharing this tensor's values."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self):
        self.grad = None

    def backward(self):
        """Populate ``grad`` for every reachable requires_grad ancestor.

        Only defined for scalar results (a loss). Each recorded primitive is
        visited exactly once, in reverse topological order.
        """
        if self.data.size != 1:
            raise ValueError(f"backward requires a scalar, got shape {self.data.shape}")
        if not self.requires_grad:
            return
        order = _topo_order(self)
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._grad_fn is None or node.grad is None:
                continue
            for parent, g in zip(node._parents, node._grad_fn(node.grad)):
                if g is None or not parent.requires_grad:
                    continue
                if parent.grad is None:
                    parent.grad = np.zeros_like(parent.data)
                parent.grad += g

    # -- operator sugar ---------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __neg__(self):
        return mul(self, -1.0)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) > 1 else shape[0])

    def transpose(self, axes):
        return transpose(self, axes)

    def sum(self, axis=None, keepdims=False):
        return tensor_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tensor_mean(self, axis=axis, keepdims=keepdims)


def constant(data):
    return Tensor(data, requires_grad=False)


def parameter(data):
    return Tensor(data, requires_grad=True)


def glorot_uniform(rng, shape, fan_in=None, fan_out=None):
    """Trainable tensor drawn uniform in +-sqrt(6 / (fan_in + fan_out)).

    Fans default to the last two extents; pass them explicitly for
    convolution-style kernels.
    """
    if fan_in is None:
        fan_in = shape[-2] if len(shape) >= 2 else shape[-1]
    if fan_out is None:
        fan_out = shape[-1]
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return parameter(rng.uniform(-bound, bound, size=shape))


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _topo_order(root):
    """Ancestors of ``root`` that require grad, in topological order."""
    order = []
    visited = set()
    stack = [(root, False)]
    while stack:
        node, emit = stack.pop()
        if emit:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in visited:
                stack.append((p, False))
    return order


def _unbroadcast(grad, shape):
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


_recording = True


@contextlib.contextmanager
def no_grad():
    """Record no graph inside the block; the previous state returns on exit,
    also when the block raises, so blocks nest."""
    global _recording
    saved = _recording
    _recording = False
    try:
        yield
    finally:
        _recording = saved


def _node(data, parents, grad_fn, op):
    if not _recording:
        return Tensor(data, False, (), None, op)
    req = any(p.requires_grad for p in parents)
    return Tensor(data, req, parents, grad_fn if req else None, op)


# -- arithmetic ----------------------------------------------------------


def add(a, b):
    a, b = _as_tensor(a), _as_tensor(b)

    def grad_fn(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _node(a.data + b.data, (a, b), grad_fn, "add")


def sub(a, b):
    a, b = _as_tensor(a), _as_tensor(b)

    def grad_fn(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)

    return _node(a.data - b.data, (a, b), grad_fn, "sub")


def mul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)

    def grad_fn(g):
        return _unbroadcast(g * b.data, a.data.shape), _unbroadcast(g * a.data, b.data.shape)

    return _node(a.data * b.data, (a, b), grad_fn, "mul")


def matmul(a, b):
    """Batched matrix product; leading axes broadcast like ``np.matmul``."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError(f"matmul needs rank >= 2 operands, got {a.shape} @ {b.shape}")

    def grad_fn(g):
        ga = g @ np.swapaxes(b.data, -1, -2)
        gb = np.swapaxes(a.data, -1, -2) @ g
        return _unbroadcast(ga, a.data.shape), _unbroadcast(gb, b.data.shape)

    return _node(a.data @ b.data, (a, b), grad_fn, "matmul")


def affine(x, weight, bias):
    """x @ weight + bias."""
    return add(matmul(x, weight), bias)


# -- nonlinearities --------------------------------------------------------


def relu(x):
    x = _as_tensor(x)
    out = np.maximum(x.data, 0.0)

    def grad_fn(g):
        # subgradient at exactly 0 is defined as 0
        return (g * (x.data > 0.0),)

    return _node(out, (x,), grad_fn, "relu")


def softmax_rows(logits):
    """Softmax over the last axis, stabilised by max-subtraction."""
    logits = _as_tensor(logits)
    x = logits.data
    if x.ndim < 1 or x.shape[-1] < 1:
        raise ValueError(f"softmax needs a non-empty last axis, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("softmax input contains non-finite values")
    z = x - x.max(axis=-1, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=-1, keepdims=True)

    def grad_fn(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        return (y * (g - dot),)

    return _node(y, (logits,), grad_fn, "softmax")


def layer_norm(x, gain, bias, eps=1e-5):
    """Normalise the last axis to zero mean / unit variance, then affine."""
    x, gain, bias = _as_tensor(x), _as_tensor(gain), _as_tensor(bias)
    n = x.shape[-1] if x.ndim else 0
    if n == 0:
        raise ValueError("layer_norm needs a non-empty last axis")
    if gain.shape != (n,) or bias.shape != (n,):
        raise ValueError(f"gain/bias must have shape ({n},), got {gain.shape} and {bias.shape}")
    if eps <= 0:
        raise ValueError("layer_norm eps must be positive")
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = xhat * gain.data + bias.data

    def grad_fn(g):
        gy = g * gain.data
        gx = inv * (
            gy
            - gy.mean(axis=-1, keepdims=True)
            - xhat * (gy * xhat).mean(axis=-1, keepdims=True)
        )
        ggain = _unbroadcast(g * xhat, gain.data.shape)
        gbias = _unbroadcast(g, bias.data.shape)
        return gx, ggain, gbias

    return _node(out, (x, gain, bias), grad_fn, "layer_norm")


def dropout(x, rate, rng, train):
    """Inverted dropout: scale survivors by 1/keep at train time, identity at eval."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    x = _as_tensor(x)
    if not train or rate == 0.0:
        return x
    keep = 1.0 - rate
    mask = (rng.random(x.data.shape) < keep).astype(np.float64) / keep

    def grad_fn(g):
        return (g * mask,)

    return _node(x.data * mask, (x,), grad_fn, "dropout")


def cross_entropy(logits, labels):
    """Mean cross-entropy of integer labels, with softmax fused in log-sum-exp form."""
    logits = _as_tensor(logits)
    x = logits.data
    if x.ndim != 2:
        raise ValueError(f"cross_entropy expects (batch, classes) logits, got {x.shape}")
    labels = np.asarray(labels, dtype=np.int64)
    batch = x.shape[0]
    if labels.shape != (batch,):
        raise ValueError(f"labels must have shape ({batch},), got {labels.shape}")
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= x.shape[1]:
        raise ValueError("labels out of range for the logit width")
    m = x.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(x - m).sum(axis=-1, keepdims=True)) + m
    rows = np.arange(batch)
    nll = lse[:, 0] - x[rows, labels]
    out = nll.mean()

    def grad_fn(g):
        p = np.exp(x - lse)
        p[rows, labels] -= 1.0
        return (g * p / batch,)

    return _node(out, (logits,), grad_fn, "cross_entropy")


# -- shape plumbing ---------------------------------------------------------


def reshape(x, shape):
    x = _as_tensor(x)

    def grad_fn(g):
        return (g.reshape(x.data.shape),)

    return _node(x.data.reshape(shape), (x,), grad_fn, "reshape")


def transpose(x, axes):
    x = _as_tensor(x)
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))

    def grad_fn(g):
        return (g.transpose(inverse),)

    return _node(x.data.transpose(axes), (x,), grad_fn, "transpose")


def broadcast_to(x, shape):
    x = _as_tensor(x)

    def grad_fn(g):
        return (_unbroadcast(g, x.data.shape),)

    return _node(np.broadcast_to(x.data, shape).copy(), (x,), grad_fn, "broadcast")


def concat(tensors, axis):
    tensors = [_as_tensor(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum(sizes)[:-1]

    def grad_fn(g):
        return tuple(np.split(g, offsets, axis=axis))

    return _node(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors), grad_fn, "concat")


def narrow(x, axis, start, length):
    """Contiguous slice [start, start+length) along ``axis``."""
    x = _as_tensor(x)
    if start < 0 or length < 0 or start + length > x.shape[axis]:
        raise ValueError(f"narrow [{start}, {start + length}) out of range for axis {axis} of {x.shape}")
    index = [slice(None)] * x.ndim
    index[axis] = slice(start, start + length)
    index = tuple(index)

    def grad_fn(g):
        full = np.zeros_like(x.data)
        full[index] = g
        return (full,)

    return _node(x.data[index].copy(), (x,), grad_fn, "narrow")


def tensor_sum(x, axis=None, keepdims=False):
    x = _as_tensor(x)

    def grad_fn(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, x.data.shape).copy(),)

    return _node(x.data.sum(axis=axis, keepdims=keepdims), (x,), grad_fn, "sum")


def tensor_mean(x, axis=None, keepdims=False):
    x = _as_tensor(x)
    count = x.data.size if axis is None else np.prod([x.data.shape[a] for a in np.atleast_1d(axis)])

    def grad_fn(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, x.data.shape).copy() / count,)

    return _node(x.data.mean(axis=axis, keepdims=keepdims), (x,), grad_fn, "mean")


# -- gradient oracle ----------------------------------------------------------


def finite_diff_grad(f, x, step=1e-5):
    """Central-difference gradient of a scalar function at ``x``.

    ``f`` is called with ``x`` after nudging ``x.data`` in place, so it must
    be a pure function of the tensor's current values. Test-only oracle.
    """
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
