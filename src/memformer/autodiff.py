"""Minimal dense-tensor kernel with reverse-mode differentiation.

Everything is float64, so a central finite difference can check any
gradient. The compute graph is the web of parent links recorded on each
result tensor; ``Tensor.backward`` replays it once, in reverse topological
order, and consumes it as it goes: once a node's ``grad_fn`` has handed its
parents their gradients, the node drops its own gradient and its
``grad_fn``, and with it every array the closure saved (an FFN hidden layer,
LayerNorm's ``xhat``, attention weights). Only leaves keep their gradients. Each node keeps its values and
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
steps; a node writes in place only into buffers allocated for it. ``add``
and ``relu`` stay primitives because the model still calls them alone (the
token plus positional sum, the projector ReLU). ``layer_norm`` stays as the
public spelling of the formula ``_layer_norm`` holds; demo 01 calls it and
the benchmark tracer wraps it by name. All three are the oracle chain the
tests hold the fused nodes to.

A node's ``grad_fn`` returns one entry per parent, an array for every parent
that requires a gradient. Only ``_matmul_grads`` returns ``None``, for a
constant operand; the other grad_fns compute all their gradients, and
``backward`` skips a parent only because it requires none. It assigns a
parent's first gradient as returned and adds later ones out of place, so a
returned array may alias another node's gradient (``add`` hands the same one
to both parents) and no gradient array is ever written to after it is
handed over.

Training and read-only forwards run on two threads. The module owns the
process's one worker thread, ``_WORKER``, and hands it work only as a
``_Task``, run in a copy of the context of the thread that made it: three
kinds of work, each computed with the numpy calls of one thread on the same
rows, so every number is bitwise the one-thread result:
- in a recording ``_mlp`` forward and in its backward's input-gradient
  products, rows [0, ceil(B/2)) run on the calling thread and the rest on
  the worker (``_split_rows``);
- inside ``backward``, the gradient of a leaf that a ``matmul``, ``affine``,
  ``_mlp`` or LayerNorm node hands over (a weight's product, a bias's or
  gain's batch reduction) is a ``_Task`` the worker computes while the
  calling thread runs on down the input-gradient chain. A grad_fn called
  outside ``backward`` returns arrays;
- a read-only ``MemFormer.forward`` splits its encoder rows with
  ``_split_rows``.
The calling thread takes back and runs any ``_Task`` the worker has not
started by the time it needs the result. A forked child gets a fresh
worker, since the parent's thread does not exist in it.

``no_grad()`` switches recording off for a block: every primitive result
made inside it is a constant with no parents and no ``grad_fn``, so each
intermediate is freed as soon as nothing reads its values. The values are
the same as with recording on. Leaves are unaffected: ``parameter`` and
``glorot_uniform`` still make trainable tensors inside the block. Use it
around forwards whose results are only read, never backpropagated. The
switch is a ``contextvars.ContextVar``: a task handed to the worker runs
in a copy of its maker's context and so inherits the block, and a thread
the caller starts itself does not. ``_mlp`` splits only recording calls,
so no task the worker runs hands it another.

Every op allocates its own output. A graph's arrays go back to malloc when
its last reference goes, so a caller that drops each step's graph before
the next forward (as ``harness.train`` does) never holds two steps'
activations at once.
"""

from __future__ import annotations

import collections
import contextlib
import contextvars
import math
import os
from concurrent import futures

import numpy as np

from ._checks import _require_int_array

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

        Weight, bias and gain gradients are computed on the worker thread
        while this one runs the input-gradient chain; at most
        ``_MAX_DEFERRED`` of them are unfinished at a time. Before it
        returns, ``backward`` waits for every one and adds each leaf's
        gradients in traversal order, so every bit is that of a traversal
        on one thread. If a grad_fn or a task raises, the error reaches the
        caller once no task of this call is queued or running, and no leaf
        ``grad`` has changed.
        """
        if self.data.size != 1:
            raise ValueError(f"backward requires a scalar, got shape {self.data.shape}")
        if not self.requires_grad:
            return
        order = _topo_order(self)
        self.grad = np.ones_like(self.data)
        # leaf -> its gradients in traversal order, each an array or a _Task
        leaves = {}
        deferred = collections.deque()
        token = _deferred.set(deferred)
        try:
            while order:
                node = order.pop()
                if node._grad_fn is None:  # a leaf
                    continue
                for parent, g in zip(node._parents, node._grad_fn(node.grad)):
                    if not parent.requires_grad:
                        continue
                    if parent._parents:
                        parent.grad = g if parent.grad is None else parent.grad + g
                    else:
                        leaves.setdefault(parent, []).append(g)
                node.grad = None
                node._grad_fn = None
            leaves = {leaf: [g.result() if isinstance(g, _Task) else g for g in gs] for leaf, gs in leaves.items()}
        except BaseException:
            # no task outlives the call: cancel what the worker has not
            # started and wait for what it has. ``deferred`` holds every
            # unfinished task, also one whose grad_fn raised before
            # returning it
            futures.wait([t._future for t in deferred if not t._future.cancel()])
            raise
        finally:
            _deferred.reset(token)
        for leaf, gs in leaves.items():
            for g in gs:
                leaf.grad = g if leaf.grad is None else leaf.grad + g


def constant(data):
    return Tensor(data, requires_grad=False)


def parameter(data):
    return Tensor(data, requires_grad=True)


def glorot_uniform(rng, shape):
    """Trainable tensor drawn uniform in +-sqrt(6 / (fan_in + fan_out)) (Glorot
    & Bengio, 2010). The fans sum to ``shape[0] + prod(shape[1:])``: a matrix's
    two extents, or an ``(out, *window)`` kernel's out plus its window size."""
    bound = np.sqrt(6.0 / (shape[0] + math.prod(shape[1:])))
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
    """Record no graph inside the block. Work the block hands to the worker
    thread inherits it; a thread the block starts itself records unless it
    enters its own. The previous state returns on exit, also when the block
    raises, so blocks nest."""
    token = _recording.set(False)
    try:
        yield
    finally:
        _recording.reset(token)


def _node(data, parents, grad_fn, op):
    if not _recording.get():
        return Tensor(data, False, (), None, op)
    req = any(p.requires_grad for p in parents)
    return Tensor(data, req, parents, grad_fn if req else None, op)


# -- the worker thread -------------------------------------------------------

def _start_worker():
    """Bind ``_WORKER``, the process's one worker thread, to a new executor:
    at import, and in a forked child, which has none of the parent's threads.
    The thread starts with the first task and serves all, from every calling
    thread, in the order handed over. No task it runs hands it another and
    waits, so it never waits on its own queue."""
    global _WORKER
    _WORKER = futures.ThreadPoolExecutor(max_workers=1, thread_name_prefix="memformer-worker")


_start_worker()
if hasattr(os, "register_at_fork"):  # not on Windows
    os.register_at_fork(after_in_child=_start_worker)


class _Task:
    """``fn()``, handed to the worker, run in a copy of the context of the
    thread that made the task, so it sees that thread's ``no_grad``.

    ``result`` takes back a task the worker has not started and runs it on
    the calling thread, so no caller waits on a task queued behind others.
    """

    __slots__ = ("_fn", "_future")

    def __init__(self, fn):
        self._fn = fn
        self._future = _WORKER.submit(contextvars.copy_context().run, self._run)

    def _run(self):
        # the inputs are dropped once the task runs, not when it is read
        fn, self._fn = self._fn, None
        return fn()

    def result(self):
        return self._run() if self._future.cancel() else self._future.result()


def _split_rows(fn, n):
    """``(fn(head), fn(tail))``: ``fn`` of the row slice head = [0, ceil(n/2))
    on the calling thread and of tail = [ceil(n/2), n) on the worker, or on
    the calling thread if the worker has not started it by then. An error in
    either reaches the caller once neither half is running."""
    half = -(-n // 2)
    task = _Task(lambda: fn(slice(half, n)))
    try:
        head = fn(slice(0, half))
    except BaseException:
        if not task._future.cancel():
            futures.wait([task._future])
        raise
    return head, task.result()


# inside ``Tensor.backward``, the leaf-gradient _Tasks it has handed the
# worker and not yet seen finish, oldest first; None outside
_deferred = contextvars.ContextVar("memformer_autodiff_deferred", default=None)
# the most leaf-gradient tasks one backward leaves unfinished; past it the
# calling thread computes the next gradient itself. A task holds its inputs
# (an FFN's hidden layer or its gradient, an upstream gradient) until it
# runs, and the heap grows with what is held: over 100 train steps of the
# benchmark's model at B=16, max RSS rose 1.6-5.4 MB above one thread's with
# no bound, and 0-0.4 MB with this one
_MAX_DEFERRED = 4


def _leaf_grad(t, compute):
    """``compute()``, the gradient of ``t``; inside ``backward``, if ``t`` is
    a leaf that requires one and fewer than ``_MAX_DEFERRED`` earlier ones
    are unfinished, a _Task that computes it on the worker."""
    deferred = _deferred.get()
    while deferred and deferred[0]._future.done():
        deferred.popleft()
    if deferred is None or t._parents or not t.requires_grad or len(deferred) >= _MAX_DEFERRED:
        return compute()
    task = _Task(compute)
    deferred.append(task)
    return task


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


def _check_matmul(a, b):
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError(f"matmul needs rank >= 2 operands, got {a.shape} @ {b.shape}")


def _matmul_grads(g, a, b):
    """Gradients of ``a @ b`` for output gradient ``g``; None for a constant."""
    ga = (_leaf_grad(a, lambda: _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape))
          if a.requires_grad else None)
    gb = (_leaf_grad(b, lambda: _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape))
          if b.requires_grad else None)
    return ga, gb


def matmul(a, b):
    """Batched matrix product; leading axes broadcast like ``np.matmul``."""
    a, b = _as_tensor(a), _as_tensor(b)
    _check_matmul(a, b)
    return _node(a.data @ b.data, (a, b), lambda g: _matmul_grads(g, a, b), "matmul")


def affine(x, weight, bias):
    """x @ weight + bias, as one node: the bias is added in place into the
    product's buffer."""
    x, weight, bias = _as_tensor(x), _as_tensor(weight), _as_tensor(bias)
    _check_matmul(x, weight)
    out = x.data @ weight.data
    out += bias.data

    def grad_fn(g):
        gx, gw = _matmul_grads(g, x, weight)
        return gx, gw, _leaf_grad(bias, lambda: _unbroadcast(g, bias.data.shape))

    return _node(out, (x, weight, bias), grad_fn, "affine")


def _sum_of_products(a, b):
    """``_unbroadcast(np.swapaxes(a, -1, -2) @ b, shape)`` for a matrix
    ``shape``, bitwise, one (n, p).T @ (n, q) product at a time.

    Each product is the GEMM call the stacked product makes for that slice,
    and numpy adds a stack over its leading axes in index order, as this
    loop does. So the stack, an FFN backward's largest temporary (2 MB at
    B=16), is never allocated, and a train epoch's peak stays below one
    thread's while the worker holds the inputs of unfinished gradients."""
    a = a.reshape(-1, *a.shape[-2:])
    b = b.reshape(-1, *b.shape[-2:])
    out = a[0].T @ b[0]
    for ai, bi in zip(a[1:], b[1:]):
        out += ai.T @ bi
    return out


def _mlp(x, w1, b1, w2, b2):
    """affine(relu(affine(x, w1, b1)), w2, b2) as one node, for matrices
    ``w1`` and ``w2``.

    The hidden layer is one buffer: bias and ReLU are applied in place, and
    the backward reads the ReLU mask from it (``h > 0`` exactly where the
    pre-activation was > 0, so the subgradient at 0 is 0, as in ``relu``).
    A recording call splits the rows of ``x``'s axis 0 with ``_split_rows``,
    in its forward and in the input-gradient products of its backward: each
    row's numbers come from the same numpy calls on that row alone. The
    weight gradients are ``_sum_of_products``.
    """
    x, w1, b1, w2, b2 = (_as_tensor(t) for t in (x, w1, b1, w2, b2))
    _check_matmul(x, w1)
    _check_matmul(x, w2)  # the hidden layer is at least x's rank
    h = np.empty(x.shape[:-1] + w1.shape[-1:])
    out = np.empty(x.shape[:-1] + w2.shape[-1:])

    def forward(rows):
        hr, outr = h[rows], out[rows]
        np.matmul(x.data[rows], w1.data, out=hr)
        hr += b1.data
        np.maximum(hr, 0.0, out=hr)
        np.matmul(hr, w2.data, out=outr)
        outr += b2.data

    if _recording.get():
        _split_rows(forward, x.shape[0])
    else:
        forward(...)

    def grad_fn(g):
        gh = np.empty(h.shape)
        gx = np.empty(x.shape)

        def input_grads(rows):
            ghr = gh[rows]
            np.matmul(g[rows], np.swapaxes(w2.data, -1, -2), out=ghr)
            ghr *= h[rows] > 0.0
            np.matmul(ghr, np.swapaxes(w1.data, -1, -2), out=gx[rows])

        _split_rows(input_grads, x.shape[0])
        return (
            gx,
            _leaf_grad(w1, lambda: _sum_of_products(x.data, gh)),
            _leaf_grad(b1, lambda: _unbroadcast(gh, b1.data.shape)),
            _leaf_grad(w2, lambda: _sum_of_products(h, g)),
            _leaf_grad(b2, lambda: _unbroadcast(g, b2.data.shape)),
        )

    return _node(out, (x, w1, b1, w2, b2), grad_fn, "mlp")


# -- nonlinearities --------------------------------------------------------


def relu(x):
    x = _as_tensor(x)
    out = np.maximum(x.data, 0.0)

    def grad_fn(g):
        # subgradient at exactly 0 is defined as 0
        return (g * (x.data > 0.0),)

    return _node(out, (x,), grad_fn, "relu")


# The softmax kernel reduces over axis -2 of a (..., n, m) array, one
# elementwise pass over a whole (..., m) slice per step, so a short reduced
# axis (the M_len = 10 bank slots) costs n passes instead of one numpy reduce
# per row. A max is exact in any order, so numpy's ``x.max(axis=-2)`` serves.
# A sum is not, so every softmax sums its slots with ``_col_sum``, in index
# order: ``x.sum(axis=-2)`` keeps that order only while axis -2 is not the
# innermost in memory, and otherwise goes pairwise.


def _col_sum(x):
    """``x.sum(axis=-2, keepdims=True)`` added in index order from a +0.0
    start, one elementwise pass per slice, whatever ``x``'s memory layout."""
    s = x[..., :1, :] + 0.0
    for j in range(1, x.shape[-2]):
        s += x[..., j : j + 1, :]
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
        dot = _col_sum((g * y)[..., None])[..., 0]
        return (y * (g - dot),)

    return _node(y, (logits,), grad_fn, "softmax")


def _layer_norm(x, parents, gain, bias, op):
    """LayerNorm of the array ``x`` over its last axis, then ``* gain + bias``,
    recorded as one node.

    ``x`` is a buffer the caller allocated for it, holding the sum of the
    tensors in ``parents`` (or a copy of the one tensor's values); each of
    them gets the gradient of ``x``. It is centred and scaled in place, and
    the square buffer is reused for the output, so the forward allocates two
    arrays of ``x``'s size, ``x`` included, instead of five, and the backward
    two instead of seven; every step is the textbook formula's, in its order.
    """
    n = x.shape[-1] if x.ndim else 0
    if n == 0:
        raise ValueError("layer_norm needs a non-empty last axis")
    if gain.shape != (n,) or bias.shape != (n,):
        raise ValueError(f"gain/bias must have shape ({n},), got {gain.shape} and {bias.shape}")
    mu = x.mean(axis=-1, keepdims=True)
    xhat = np.subtract(x, mu, out=x)
    out = xhat * xhat
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
        ggain = _leaf_grad(gain, lambda: _unbroadcast(np.multiply(g, xhat, out=t), gain.data.shape))
        gbias = _leaf_grad(bias, lambda: _unbroadcast(g, bias.data.shape))
        return tuple(_unbroadcast(gx, p.data.shape) for p in parents) + (ggain, gbias)

    return _node(out, parents + (gain, bias), grad_fn, op)


def layer_norm(x, gain, bias):
    """Normalise the last axis to zero mean / unit variance, then affine."""
    x, gain, bias = _as_tensor(x), _as_tensor(gain), _as_tensor(bias)
    return _layer_norm(x.data.copy(), (x,), gain, bias, "layer_norm")


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
    labels = _require_int_array("labels", labels, 0, x.shape[1] - 1)
    batch = x.shape[0]
    if labels.shape != (batch,):
        raise ValueError(f"labels must have shape ({batch},), got {labels.shape}")
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

