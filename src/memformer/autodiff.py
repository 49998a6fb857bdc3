"""Minimal dense-tensor kernel with reverse-mode differentiation.

Everything is float64: central finite differences (the gradient oracle used
throughout the test suite) are meaningless in float32. The compute graph is
the web of parent links recorded on each result tensor; ``Tensor.backward``
replays it once, in reverse topological order, and consumes it as it goes:
once a node's ``grad_fn`` has handed its parents their gradients, the node
drops its own gradient and its ``grad_fn``, and with it every array the
closure saved (an FFN hidden layer, LayerNorm's ``xhat``, attention
weights). Only leaves keep their gradients. Each node keeps its values and
its parent links, so the consumed graph is freed as a whole when the last
reference to its result goes. A graph can be backpropagated once: a second
``backward`` that reaches a consumed node raises ``ValueError``.

Each primitive has one spelling, a module function (``add``, ``matmul``,
``tensor_mean``, ...); ``Tensor`` has no operator overloads or shape methods.
The model needs matmul, softmax, layer norm, ReLU, affine, dropout,
cross-entropy, and the shape plumbing (reshape / transpose / broadcast /
concat) that wires an encoder together. Nothing in the package calls
``sub``, ``mul``, ``narrow`` or ``tensor_sum``; they stay because the
benchmark tracer (``perfbench/tracer.py``) wraps them by name, and can go
once it derives its targets from ``__all__`` (ROADMAP item 1).

A few ops are fused: ``affine`` and the private ``_mlp`` (affine, ReLU,
affine) and ``_layer_norm`` (a residual sum and its LayerNorm, used by
``attention.residual_norm``) each record one node. Each one repeats, in its
forward and its backward, the numpy ops of the chain of primitives it
replaces, in that chain's order, so values and gradients are bitwise the
chain's. Fusing saves the elementwise passes and temporaries between the
steps; a node writes in place only into buffers it allocated itself. ``add``
and ``relu`` stay primitives because the model still calls them alone (the
token plus positional sum, the projector ReLU). ``layer_norm`` stays as the
public spelling of the formula ``_layer_norm`` holds; demo 01 calls it and
the benchmark tracer wraps it by name. All three are the oracle chain the
tests hold the fused nodes to.

A node's ``grad_fn`` returns one gradient per parent, or ``None`` for a
parent that needs none. ``backward`` assigns a parent's first gradient as
returned and adds later ones out of place, so a returned array may alias
another node's gradient (``add`` hands the same one to both parents) and no
gradient array is ever written to after it is handed over.

``no_grad()`` switches recording off for a block: every primitive result
made inside it is a constant with no parents and no ``grad_fn``, so each
intermediate is freed as soon as nothing reads its values. The values are
the same as with recording on. Leaves are unaffected: ``parameter`` and
``glorot_uniform`` still make trainable tensors inside the block. Use it
around forwards whose results are only read, never backpropagated. The
switch is a ``contextvars.ContextVar``, so a block covers only the thread
that entered it; a worker thread enters its own.

``harness.train`` runs its steps inside a step pool (``_step_pool``): spare
float64 arrays from the last step's graph, held in a ``ContextVar`` like the
``no_grad`` switch, so each thread has its own. After a step, ``_offer``
replaces the pool's contents with the C-contiguous arrays the consumed
graph's interior nodes own or view; the caller then drops the graph. In
recording mode, the ops that make a node's output (``add``, ``matmul``,
``affine``, the ``_mlp`` output, ``relu``, the ``_layer_norm`` output,
``concat`` and ``attend``'s output buffer) write it through ``out=`` into a
pooled array with the same trailing shape, or a leading slice of one, that
nothing outside the pool references any more; otherwise they allocate, as
they do outside the pool and under ``no_grad``. The next step thus refills
the last step's arrays instead of freeing and faulting in a graph's worth
of memory, and two steps' activations never coexist. The values written
are the same either way. The pool empties when the block exits, also on an
exception.
"""

from __future__ import annotations

import contextlib
import contextvars
import sys

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

# added to the variance in layer_norm before the square root
LAYER_NORM_EPS = 1e-5


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

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, op={self._op}, requires_grad={self.requires_grad})"

    # -- graph management ----------------------------------------------
    def backward(self):
        """Populate ``grad`` for every reachable requires_grad leaf.

        Only defined for scalar results (a loss). Each recorded primitive is
        visited exactly once, in reverse topological order; once it has
        handed its parents their gradients, its own ``grad`` and ``grad_fn``
        are set to None, so only leaves keep gradients. Leaf gradients add
        onto any ``grad`` already present, so two backward passes over
        separate graphs without clearing it sum. A graph can be
        backpropagated once: reaching a node an earlier backward consumed
        raises ``ValueError`` before any gradient changes.
        """
        if self.data.size != 1:
            raise ValueError(f"backward requires a scalar, got shape {self.data.shape}")
        if not self.requires_grad:
            return
        order = _topo_order(self)
        self.grad = np.ones_like(self.data)
        while order:
            node = order.pop()
            if node._grad_fn is None:  # a leaf
                continue
            if node.grad is not None:
                for parent, g in zip(node._parents, node._grad_fn(node.grad)):
                    if g is None or not parent.requires_grad:
                        continue
                    parent.grad = g if parent.grad is None else parent.grad + g
            node.grad = None
            node._grad_fn = None


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
    """Ancestors of ``root`` that require grad, in topological order.

    Raises ``ValueError`` at a node an earlier backward consumed: it has
    parents but no ``grad_fn`` left.
    """
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
        if node._grad_fn is None and node._parents:
            raise ValueError(f"backward reached a {node._op!r} node an earlier backward already consumed")
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


_recording = contextvars.ContextVar("memformer_autodiff_recording", default=True)


@contextlib.contextmanager
def no_grad():
    """Record no graph inside the block, in the calling thread only; the
    previous state returns on exit, also when the block raises, so blocks
    nest."""
    token = _recording.set(False)
    try:
        yield
    finally:
        _recording.reset(token)


_pool = contextvars.ContextVar("memformer_autodiff_pool", default=None)


@contextlib.contextmanager
def _step_pool():
    """Install an empty step pool for the calling thread; it is emptied and
    the previous one restored on exit, also when the block raises."""
    pool = {}
    token = _pool.set(pool)
    try:
        yield
    finally:
        pool.clear()
        _pool.reset(token)


def _offer(root):
    """Replace the step pool's arrays with those of ``root``'s graph: each
    interior node's ``.data``, or the array it views, if that is a writeable
    float64 C-contiguous array that owns its memory. A no-op outside a pool.
    """
    pool = _pool.get()
    if pool is None:
        return
    pool.clear()
    seen = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen or not node._parents:
            continue
        seen.add(id(node))
        stack.extend(node._parents)
        a = node.data if node.data.base is None else node.data.base
        if (
            isinstance(a, np.ndarray)
            and a.base is None
            and a.ndim
            and a.dtype == np.float64
            and a.flags.c_contiguous
            and a.flags.writeable
            and id(a) not in seen
        ):
            seen.add(id(a))
            pool.setdefault(a.shape[1:], []).append(a)


def _empty(shape):
    """An uninitialised float64 array of ``shape`` for a node's output.

    Recording inside a step pool, it is a pooled array with the same
    trailing shape, or its leading ``shape[0]`` rows, taken out of the pool.
    An array is taken only if the pool holds the last reference to it:
    ``sys.getrefcount(bucket[i])`` counts the list's reference and the
    argument's, and no borrowed local that an interpreter may leave
    uncounted. Else, and when nothing fits, a fresh array.
    """
    pool = _pool.get()
    if pool and shape and _recording.get():
        bucket = pool.get(shape[1:])
        if bucket:
            for i in range(len(bucket)):
                if bucket[i].shape[0] >= shape[0] and sys.getrefcount(bucket[i]) == 2:
                    return bucket.pop(i)[: shape[0]]
    return np.empty(shape)


def _matmul_shape(a, b):
    """The shape of ``a @ b`` for array shapes ``a`` and ``b`` of rank >= 2."""
    return np.broadcast_shapes(a[:-2], b[:-2]) + (a[-2], b[-1])


def _node(data, parents, grad_fn, op):
    if not _recording.get():
        return Tensor(data, False, (), None, op)
    req = any(p.requires_grad for p in parents)
    return Tensor(data, req, parents, grad_fn if req else None, op)


# -- arithmetic ----------------------------------------------------------


def add(a, b):
    a, b = _as_tensor(a), _as_tensor(b)

    def grad_fn(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    out = np.add(a.data, b.data, out=_empty(np.broadcast_shapes(a.shape, b.shape)))
    return _node(out, (a, b), grad_fn, "add")


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


def _check_matmul(a, b):
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError(f"matmul needs rank >= 2 operands, got {a.shape} @ {b.shape}")


def _matmul_grads(g, a, b):
    """Gradients of ``a @ b`` for output gradient ``g``; None for a constant."""
    ga = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape) if a.requires_grad else None
    gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape) if b.requires_grad else None
    return ga, gb


def matmul(a, b):
    """Batched matrix product; leading axes broadcast like ``np.matmul``."""
    a, b = _as_tensor(a), _as_tensor(b)
    _check_matmul(a, b)
    out = np.matmul(a.data, b.data, out=_empty(_matmul_shape(a.shape, b.shape)))
    return _node(out, (a, b), lambda g: _matmul_grads(g, a, b), "matmul")


def affine(x, weight, bias):
    """x @ weight + bias, as one node: the bias is added in place into the
    product's buffer."""
    x, weight, bias = _as_tensor(x), _as_tensor(weight), _as_tensor(bias)
    _check_matmul(x, weight)
    out = np.matmul(x.data, weight.data, out=_empty(_matmul_shape(x.shape, weight.shape)))
    out += bias.data

    def grad_fn(g):
        gx, gw = _matmul_grads(g, x, weight)
        return gx, gw, _unbroadcast(g, bias.data.shape)

    return _node(out, (x, weight, bias), grad_fn, "affine")


def _mlp(x, w1, b1, w2, b2):
    """affine(relu(affine(x, w1, b1)), w2, b2) as one node.

    The hidden layer is one buffer: bias and ReLU are applied in place, and
    the backward reads the ReLU mask from it (``h > 0`` exactly where the
    pre-activation was > 0, so the subgradient at 0 is 0, as in ``relu``).
    """
    x, w1, b1, w2, b2 = (_as_tensor(t) for t in (x, w1, b1, w2, b2))
    _check_matmul(x, w1)
    _check_matmul(x, w2)  # the hidden layer is at least x's rank
    h = x.data @ w1.data
    h += b1.data
    np.maximum(h, 0.0, out=h)
    out = np.matmul(h, w2.data, out=_empty(_matmul_shape(h.shape, w2.shape)))
    out += b2.data

    def grad_fn(g):
        gw2 = _unbroadcast(np.swapaxes(h, -1, -2) @ g, w2.data.shape) if w2.requires_grad else None
        gx = gw1 = gb1 = None
        if x.requires_grad or w1.requires_grad or b1.requires_grad:
            gh = g @ np.swapaxes(w2.data, -1, -2)
            gh *= h > 0.0
            gx, gw1 = _matmul_grads(gh, x, w1)
            gb1 = _unbroadcast(gh, b1.data.shape)
        return gx, gw1, gb1, gw2, _unbroadcast(g, b2.data.shape)

    return _node(out, (x, w1, b1, w2, b2), grad_fn, "mlp")


# -- nonlinearities --------------------------------------------------------


def relu(x):
    x = _as_tensor(x)
    out = np.maximum(x.data, 0.0, out=_empty(x.shape))

    def grad_fn(g):
        # subgradient at exactly 0 is defined as 0
        return (g * (x.data > 0.0),)

    return _node(out, (x,), grad_fn, "relu")


# The softmax kernel reduces over axis -2 of a (..., n, m) array, one
# elementwise pass over a whole (..., m) slice per step, so a short reduced
# axis (the M_len = 10 bank slots) costs n passes instead of one numpy reduce
# per row. The results are bitwise those of numpy's reduce over the
# contiguous rows ``np.swapaxes(x, -1, -2).copy()``: a max is exact in any
# order, so numpy's own ``x.max(axis=-2)`` serves, and the sum repeats
# numpy's pairwise order step by step. ``x.sum(axis=-2)`` is not that order:
# it adds the slices one after another.


def _pairwise_sum(x, lo, n):
    """Sum of slices ``lo .. lo+n-1`` on axis -2, in the order of numpy's
    ``pairwise_sum``: a plain running sum from +0.0 below 8 terms; 8 running
    sums combined as ((0+1)+(2+3))+((4+5)+(6+7)), then the tail, up to 128;
    above that, two halves split at a multiple of 8."""
    if n < 8:
        s = np.zeros(x.shape[:-2] + (1, x.shape[-1]))
        for j in range(lo, lo + n):
            s += x[..., j : j + 1, :]
        return s
    if n <= 128:
        end = lo + n - n % 8
        r = x[..., lo : lo + 8, :]
        if n < 16:
            pairs = r[..., 0::2, :] + r[..., 1::2, :]
        else:
            # the running sums get their own buffer, which the pairs reuse
            r = r + x[..., lo + 8 : lo + 16, :]
            for j in range(lo + 16, end, 8):
                r += x[..., j : j + 8, :]
            pairs = r[..., 0::2, :]
            pairs += r[..., 1::2, :]
        pairs[..., 0::2, :] += pairs[..., 1::2, :]
        s = pairs[..., :1, :]
        s += pairs[..., 2:3, :]
        for j in range(end, lo + n):
            s += x[..., j : j + 1, :]
        return s
    half = n // 2 - (n // 2) % 8
    s = _pairwise_sum(x, lo, half)
    s += _pairwise_sum(x, lo + half, n - half)
    return s


def _col_sum(x):
    """``x.sum(axis=-2, keepdims=True)`` with the values of the row reduce:
    its pairwise sum, added to the reduction's +0.0 start."""
    s = _pairwise_sum(x, 0, x.shape[-2])
    s += 0.0
    return s


def _softmax(x, out):
    """Softmax of ``x`` over axis -2, stabilised by max-subtraction, written
    into ``out`` and returned. ``out`` may be ``x`` itself, so the whole
    softmax needs no buffer beyond the result."""
    if not np.isfinite(x).all():
        raise ValueError("softmax input contains non-finite values")
    np.subtract(x, x.max(axis=-2, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= _col_sum(out)
    return out


def softmax_rows(logits):
    """Softmax over the last axis, stabilised by max-subtraction."""
    logits = _as_tensor(logits)
    x = logits.data
    if x.ndim < 1 or x.shape[-1] < 1:
        raise ValueError(f"softmax needs a non-empty last axis, got shape {x.shape}")
    y = np.empty_like(x)
    _softmax(x[..., None], y[..., None])

    def grad_fn(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        return (y * (g - dot),)

    return _node(y, (logits,), grad_fn, "softmax")


def _layer_norm(x, parents, gain, bias, op, owned):
    """LayerNorm of the array ``x`` over its last axis, then ``* gain + bias``,
    recorded as one node.

    ``x`` is the sum of the tensors in ``parents`` (or the one tensor's
    values); each of them gets the gradient of ``x``. If ``owned``, ``x`` is
    a buffer the caller allocated and it is centred and scaled in place. The
    square buffer is reused for the output, so the forward allocates two
    arrays of ``x``'s size instead of five, and the backward two instead of
    seven; every step is the textbook formula's, in its order.
    """
    n = x.shape[-1] if x.ndim else 0
    if n == 0:
        raise ValueError("layer_norm needs a non-empty last axis")
    if gain.shape != (n,) or bias.shape != (n,):
        raise ValueError(f"gain/bias must have shape ({n},), got {gain.shape} and {bias.shape}")
    mu = x.mean(axis=-1, keepdims=True)
    xhat = np.subtract(x, mu, out=x if owned else None)
    out = np.multiply(xhat, xhat, out=_empty(xhat.shape))
    inv = 1.0 / np.sqrt(out.mean(axis=-1, keepdims=True) + LAYER_NORM_EPS)
    xhat *= inv
    np.multiply(xhat, gain.data, out=out)
    out += bias.data

    def grad_fn(g):
        # gx = inv * (gy - mean(gy) - xhat * mean(gy * xhat)), evaluated in
        # that order in two buffers
        gx = g * gain.data
        t = gx * xhat
        t_mean = t.mean(axis=-1, keepdims=True)
        gx -= gx.mean(axis=-1, keepdims=True)
        gx -= np.multiply(xhat, t_mean, out=t)
        gx *= inv
        ggain = _unbroadcast(np.multiply(g, xhat, out=t), gain.data.shape)
        gbias = _unbroadcast(g, bias.data.shape)
        return tuple(_unbroadcast(gx, p.data.shape) for p in parents) + (ggain, gbias)

    return _node(out, parents + (gain, bias), grad_fn, op)


def layer_norm(x, gain, bias):
    """Normalise the last axis to zero mean / unit variance, then affine."""
    x, gain, bias = _as_tensor(x), _as_tensor(gain), _as_tensor(bias)
    return _layer_norm(x.data, (x,), gain, bias, "layer_norm", owned=False)


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


def _nll(x, labels):
    """Per-row NLL of ``labels`` under (B, C) logits ``x``, and the (B, 1) log-sum-exp."""
    m = x.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(x - m).sum(axis=-1, keepdims=True)) + m
    return lse[:, 0] - x[np.arange(len(x)), labels], lse


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
    nll, lse = _nll(x, labels)
    out = nll.mean()

    def grad_fn(g):
        p = np.exp(x - lse)
        p[np.arange(batch), labels] -= 1.0
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

    shape = list(tensors[0].shape)
    shape[axis] = sum(sizes)
    out = np.concatenate([t.data for t in tensors], axis=axis, out=_empty(tuple(shape)))
    return _node(out, tuple(tensors), grad_fn, "concat")


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


def tensor_sum(x, axis=None):
    x = _as_tensor(x)

    def grad_fn(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, x.data.shape).copy(),)

    return _node(x.data.sum(axis=axis), (x,), grad_fn, "sum")


def tensor_mean(x, axis=None):
    x = _as_tensor(x)
    count = x.data.size if axis is None else np.prod([x.data.shape[a] for a in np.atleast_1d(axis)])

    def grad_fn(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, x.data.shape).copy() / count,)

    return _node(x.data.mean(axis=axis), (x,), grad_fn, "mean")


# -- gradient oracle ----------------------------------------------------------


def finite_diff_grad(f, x):
    """Central-difference gradient of a scalar function at ``x``.

    ``f`` is called with ``x`` after nudging ``x.data`` in place, so it must
    be a pure function of the tensor's current values. Test-only oracle.
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
