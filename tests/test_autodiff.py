"""Gradient checks for the tensor kernel.

Every differentiable primitive is compared against a central finite
difference of the same scalarised computation. float64 with step 1e-5 puts
the truncation error around 1e-10 relative, so the tolerances here are tight.
"""

import itertools
import sys
import threading
import time

import numpy as np
import pytest

from memformer import autodiff as ad
from memformer.attention import attend
from oracles import finite_diff_grad, serial_backward


def _check_grads(build, tensors, rtol=1e-5, atol=1e-8):
    """Backprop through ``build(*tensors)`` and compare with finite differences."""
    loss = build(*tensors)
    for t in tensors:
        t.grad = None
    loss = build(*tensors)
    loss.backward()
    for t in tensors:
        want = finite_diff_grad(lambda _t, i=tensors.index(t): build(*tensors), t).data
        got = np.zeros_like(t.data) if t.grad is None else t.grad
        np.testing.assert_allclose(got, want, rtol=rtol, atol=atol)


def _param(rng, *shape):
    return ad.parameter(rng.standard_normal(shape))


def test_add_broadcast_grad():
    rng = np.random.default_rng(0)
    a = _param(rng, 3, 4)
    b = _param(rng, 4)

    def build(a, b):
        return ad.tensor_sum(ad.mul(ad.add(a, b), ad.add(a, b)))

    _check_grads(build, [a, b])


def test_sub_and_scalar_ops():
    rng = np.random.default_rng(1)
    a = _param(rng, 2, 5)
    b = _param(rng, 2, 5)

    def build(a, b):
        scaled = ad.mul(ad.sub(a, b), 3.0)
        return ad.tensor_sum(ad.add(ad.add(scaled, ad.mul(a, -1.0)), ad.sub(1.0, b)))

    _check_grads(build, [a, b])


def test_mul_broadcast_grad():
    rng = np.random.default_rng(2)
    a = _param(rng, 2, 3, 4)
    b = _param(rng, 3, 1)

    def build(a, b):
        return ad.tensor_sum(ad.mul(a, b))

    _check_grads(build, [a, b])


def test_matmul_grad():
    rng = np.random.default_rng(3)
    a = _param(rng, 4, 3)
    b = _param(rng, 3, 5)

    def build(a, b):
        return ad.tensor_sum(ad.matmul(a, b))

    _check_grads(build, [a, b])


def test_matmul_batched_broadcast_grad():
    rng = np.random.default_rng(4)
    a = _param(rng, 2, 3, 4)
    b = _param(rng, 4, 5)

    def build(a, b):
        return ad.tensor_sum(ad.mul(ad.matmul(a, b), ad.matmul(a, b)))

    _check_grads(build, [a, b])


def test_matmul_rejects_vectors():
    with pytest.raises(ValueError):
        ad.matmul(ad.constant(np.ones(3)), ad.constant(np.ones((3, 2))))


def test_affine_grad():
    rng = np.random.default_rng(5)
    x = _param(rng, 6, 3)
    w = _param(rng, 3, 4)
    b = _param(rng, 4)

    def build(x, w, b):
        return ad.tensor_sum(ad.affine(x, w, b))

    _check_grads(build, [x, w, b])


def test_relu_grad_away_from_kink():
    rng = np.random.default_rng(6)
    x = ad.parameter(rng.standard_normal((5, 7)) + np.sign(rng.standard_normal((5, 7))) * 0.5)
    # inputs pushed at least 0.5 from zero, so the finite difference never
    # straddles the kink
    assert np.abs(x.data).min() > 1e-3

    def build(x):
        return ad.tensor_sum(ad.relu(x))

    _check_grads(build, [x])


def test_softmax_rows_grad():
    rng = np.random.default_rng(7)
    x = _param(rng, 3, 6)
    v = ad.constant(rng.standard_normal((3, 6)))

    def build(x):
        return ad.tensor_sum(ad.mul(ad.softmax_rows(x), v))

    _check_grads(build, [x])


def test_softmax_rows_are_distributions():
    rng = np.random.default_rng(8)
    y = ad.softmax_rows(ad.constant(rng.standard_normal((4, 2, 9)) * 10)).data
    assert (y > 0).all()
    np.testing.assert_allclose(y.sum(axis=-1), 1.0, rtol=0, atol=1e-12)


def test_softmax_rejects_nonfinite():
    with pytest.raises(ValueError):
        ad.softmax_rows(ad.constant(np.array([[0.0, np.nan]])))


def test_layer_norm_grad():
    rng = np.random.default_rng(9)
    x = _param(rng, 4, 8)
    g = ad.parameter(1.0 + 0.1 * rng.standard_normal(8))
    b = _param(rng, 8)
    v = ad.constant(rng.standard_normal((4, 8)))

    def build(x, g, b):
        return ad.tensor_sum(ad.mul(ad.layer_norm(x, g, b), v))

    _check_grads(build, [x, g, b], rtol=1e-4, atol=1e-7)


def test_layer_norm_output_statistics():
    rng = np.random.default_rng(10)
    x = ad.constant(rng.standard_normal((6, 16)) * 3 + 2)
    ones = ad.constant(np.ones(16))
    zeros = ad.constant(np.zeros(16))
    y = ad.layer_norm(x, ones, zeros).data
    np.testing.assert_allclose(y.mean(axis=-1), 0.0, atol=1e-12)
    np.testing.assert_allclose(y.std(axis=-1), 1.0, atol=1e-4)


def test_layer_norm_validates_shapes():
    x = ad.constant(np.ones((2, 3)))
    with pytest.raises(ValueError):
        ad.layer_norm(x, ad.constant(np.ones(4)), ad.constant(np.zeros(3)))
    with pytest.raises(ValueError):
        ad.layer_norm(ad.constant(np.ones((2, 0))), ad.constant(np.ones(0)), ad.constant(np.zeros(0)))


def test_cross_entropy_matches_manual():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((5, 4))
    labels = rng.integers(0, 4, size=5)
    loss = ad.cross_entropy(ad.constant(x), labels).data
    p = np.exp(x) / np.exp(x).sum(axis=-1, keepdims=True)
    want = -np.log(p[np.arange(5), labels]).mean()
    np.testing.assert_allclose(loss, want, rtol=1e-12)


def test_cross_entropy_grad():
    rng = np.random.default_rng(12)
    x = _param(rng, 6, 5)
    labels = rng.integers(0, 5, size=6)

    def build(x):
        return ad.cross_entropy(x, labels)

    _check_grads(build, [x])


def test_cross_entropy_validates_labels():
    x = ad.constant(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        ad.cross_entropy(x, np.array([0, 3]))
    with pytest.raises(ValueError):
        ad.cross_entropy(x, np.array([0, -1]))
    with pytest.raises(ValueError):
        ad.cross_entropy(x, np.array([0]))


def test_dropout_train_and_eval():
    rng = np.random.default_rng(13)
    x = ad.parameter(np.ones((200, 50)))
    out_eval = ad.dropout(x, 0.4, np.random.default_rng(0), train=False)
    assert out_eval is x
    out = ad.dropout(x, 0.4, np.random.default_rng(0), train=True)
    kept = out.data != 0
    # survivors are scaled by 1/keep, expectation preserved
    np.testing.assert_allclose(out.data[kept], 1.0 / 0.6, rtol=1e-12)
    assert abs(kept.mean() - 0.6) < 0.02
    ad.tensor_sum(out).backward()
    np.testing.assert_allclose(x.grad[kept], 1.0 / 0.6, rtol=1e-12)
    np.testing.assert_allclose(x.grad[~kept], 0.0, atol=0)
    with pytest.raises(ValueError):
        ad.dropout(x, 1.0, np.random.default_rng(0), train=True)


def test_reshape_transpose_grad():
    rng = np.random.default_rng(14)
    x = _param(rng, 2, 3, 4)
    v = ad.constant(rng.standard_normal((4, 2, 3)))

    def build(x):
        return ad.tensor_sum(ad.mul(ad.transpose(ad.reshape(x, (2, 3, 4)), (2, 0, 1)), v))

    _check_grads(build, [x])


def test_broadcast_to_grad():
    rng = np.random.default_rng(15)
    x = _param(rng, 1, 4)
    v = ad.constant(rng.standard_normal((3, 5, 4)))

    def build(x):
        return ad.tensor_sum(ad.mul(ad.broadcast_to(x, (3, 5, 4)), v))

    _check_grads(build, [x])


def test_concat_narrow_grad():
    rng = np.random.default_rng(16)
    a = _param(rng, 2, 3)
    b = _param(rng, 2, 5)
    v = ad.constant(rng.standard_normal((2, 4)))

    def build(a, b):
        joined = ad.concat([a, b], axis=1)
        return ad.tensor_sum(ad.mul(ad.narrow(joined, 1, 2, 4), v))

    _check_grads(build, [a, b])


def test_narrow_bounds_checked():
    x = ad.constant(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        ad.narrow(x, 1, 2, 2)
    with pytest.raises(ValueError):
        ad.narrow(x, 0, -1, 1)


def test_sum_mean_axis_grad():
    rng = np.random.default_rng(17)
    x = _param(rng, 3, 4, 5)
    v = ad.constant(rng.standard_normal((3, 5)))

    def build(x):
        summed = ad.tensor_sum(ad.mul(ad.tensor_sum(x, axis=1), v))
        return ad.add(ad.add(summed, ad.tensor_sum(ad.tensor_mean(x, axis=(0, 2)))), ad.tensor_mean(x))

    _check_grads(build, [x])


def test_diamond_graph_accumulates_once():
    # y = x*x used twice downstream: d/dx (x^2 + x^2) = 4x
    x = ad.parameter(np.array([3.0]))
    y = ad.mul(x, x)
    z = ad.tensor_sum(ad.add(y, y))
    z.backward()
    np.testing.assert_allclose(x.grad, [12.0], rtol=1e-12)


def test_shared_upstream_grad_stays_unaliased():
    # add hands one upstream array to both a and b; a also feeds a mul, so
    # its second contribution must not be added into the array b holds
    a = ad.parameter(np.array([1.0, 2.0]))
    b = ad.parameter(np.array([3.0, 4.0]))
    c = ad.constant(np.array([5.0, 7.0]))
    ad.tensor_sum(ad.add(ad.add(a, b), ad.mul(a, c))).backward()
    np.testing.assert_array_equal(a.grad, [6.0, 8.0])
    np.testing.assert_array_equal(b.grad, [1.0, 1.0])
    assert not np.shares_memory(a.grad, b.grad)


def test_second_backward_sums_onto_the_first():
    x = ad.parameter(np.array([1.0, -2.0]))
    ad.tensor_sum(ad.add(x, 3.0)).backward()
    first = x.grad
    ad.tensor_sum(ad.mul(x, ad.constant(np.array([2.0, 5.0])))).backward()
    np.testing.assert_array_equal(x.grad, [3.0, 6.0])
    # the first pass's array is replaced, never written to
    np.testing.assert_array_equal(first, [1.0, 1.0])


def test_detach_blocks_gradient():
    x = ad.parameter(np.array([2.0]))
    with ad.no_grad():
        y = ad.mul(x, x)
    z = ad.tensor_sum(ad.mul(y, x))
    z.backward()
    # only the direct factor contributes: d/dx (const * x) = const = 4
    np.testing.assert_allclose(x.grad, [4.0], rtol=1e-12)


def test_backward_requires_scalar():
    x = ad.parameter(np.ones((2, 2)))
    with pytest.raises(ValueError):
        ad.mul(x, 2.0).backward()


def test_constants_never_accumulate_grad():
    c = ad.constant(np.ones(3))
    x = ad.parameter(np.ones(3))
    ad.tensor_sum(ad.mul(x, c)).backward()
    assert c.grad is None
    np.testing.assert_allclose(x.grad, np.ones(3), rtol=1e-12)
    # matmul does not even compute the gradient of a constant operand
    m = ad.matmul(ad.reshape(x, (1, 3)), ad.constant(np.ones((3, 2))))
    g_x, g_c = m._grad_fn(np.ones((1, 2)))
    assert g_c is None
    np.testing.assert_array_equal(g_x, [[2.0, 2.0, 2.0]])
    # attend and _mlp compute every gradient, and backward hands a constant
    # none; the other parents get the bits they get when all are parameters
    rng = np.random.default_rng(33)
    q, bank = rng.standard_normal((2, 3, 4)), rng.standard_normal((1, 5, 4))
    mlp = _mlp_arrays(rng, (2, 3, 4), 6)
    cases = [
        (lambda q, k, v: attend(q, k, v, 2)[0], [q, bank, bank], (False, True, True)),  # constant q
        (lambda q, k, v: attend(q, k, v, 2)[0], [q, bank, bank], (True, False, False)),  # constant bank
        (ad._mlp, mlp, (False, True, True, True, True)),  # constant x
    ]
    probe = rng.standard_normal((2, 3, 4))
    for fn, arrays, trainable in cases:
        _, got = _values_and_grads(fn, arrays, trainable, probe)
        _, want = _values_and_grads(fn, arrays, (True,) * len(arrays), probe)
        for g, w, t in zip(got[1:], want[1:], trainable):
            assert (g.shape == w.shape and np.array_equal(g, w)) if t else g is None


def test_deep_chain_no_recursion_limit():
    # toposort is iterative, so graph depth is bounded by memory not stack
    x = ad.parameter(np.array([1.0]))
    y = x
    for _ in range(5000):
        y = ad.add(y, 0.0)
    ad.tensor_sum(y).backward()
    np.testing.assert_allclose(x.grad, [1.0], rtol=0)


def test_randomized_composite_grads():
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        x = _param(rng, 3, 6)
        w1 = _param(rng, 6, 8)
        b1 = _param(rng, 8)
        w2 = _param(rng, 8, 4)
        b2 = _param(rng, 4)
        g = ad.parameter(1.0 + 0.1 * rng.standard_normal(4))
        bb = _param(rng, 4)
        labels = rng.integers(0, 4, size=3)

        def build(x, w1, b1, w2, b2, g, bb):
            h = ad.relu(ad.add(ad.affine(x, w1, b1), 0.7))
            out = ad.layer_norm(ad.affine(h, w2, b2), g, bb)
            return ad.cross_entropy(out, labels)

        _check_grads(build, [x, w1, b1, w2, b2, g, bb], rtol=1e-4, atol=1e-7)



# -- fused nodes --------------------------------------------------------------------
# ``affine``, ``_mlp`` and ``layer_norm`` each record one node whose forward
# and backward repeat the numpy ops of a reference in its order: the chain
# of primitives for the first two, the textbook formula for ``layer_norm``.
# The oracles demand bitwise equality, not a tolerance.


def _chain_affine(x, w, b):
    return ad.add(ad.matmul(x, w), b)


def _chain_mlp(x, w1, b1, w2, b2):
    return _chain_affine(ad.relu(_chain_affine(x, w1, b1)), w2, b2)


def _values_and_grads(fn, arrays, trainable, probe):
    """fn's output and every input's gradient after backprop of sum(out * probe),
    on fresh tensors holding copies of ``arrays``."""
    tensors = [ad.parameter(a.copy()) if t else ad.constant(a.copy()) for a, t in zip(arrays, trainable)]
    out = fn(*tensors)
    ad.tensor_sum(ad.mul(out, ad.constant(probe))).backward()
    return out, [out.data] + [t.grad for t in tensors]


def _assert_bitwise(got, want):
    assert len(got) == len(want)
    for i, (a, b) in enumerate(zip(got, want)):
        if b is None:
            assert a is None, i
        else:
            assert a.shape == b.shape and np.array_equal(a, b), i


# x shape, w shape, whether (x, w, b) are trainable
_AFFINE_CASES = [
    ((6, 3), (3, 4), (True, True, True)),
    ((2, 5, 3), (3, 4), (True, True, True)),
    ((2, 5, 3), (3, 4), (False, True, True)),
]


@pytest.mark.parametrize("x_shape, w_shape, trainable", _AFFINE_CASES)
def test_affine_is_one_node_and_bitwise_the_chain(x_shape, w_shape, trainable):
    rng = np.random.default_rng(30)
    arrays = [rng.standard_normal(x_shape), rng.standard_normal(w_shape), rng.standard_normal(w_shape[-1])]
    probe = rng.standard_normal(x_shape[:-1] + w_shape[-1:])
    out, got = _values_and_grads(ad.affine, arrays, trainable, probe)
    _, want = _values_and_grads(_chain_affine, arrays, trainable, probe)
    assert out._op == "affine" and len(out._parents) == 3
    _assert_bitwise(got, want)


def _mlp_arrays(rng, x_shape, hidden):
    width = x_shape[-1]
    return [
        rng.standard_normal(x_shape),
        rng.standard_normal((width, hidden)),
        rng.standard_normal(hidden),
        rng.standard_normal((hidden, width)),
        rng.standard_normal(width),
    ]


@pytest.mark.parametrize("batch", [2, 1, 7, 16])
@pytest.mark.parametrize("x_trainable", [True, False])
def test_mlp_is_one_node_and_bitwise_the_chain(deadline, x_trainable, batch):
    # the fused node computes rows [0, ceil(B/2)) and the rest of its forward
    # and input-gradient products apart, on two threads
    rng = np.random.default_rng(31)
    arrays = _mlp_arrays(rng, (batch, 5, 4), 6)
    # exact zeros at the kink on top of the random pre-activations
    arrays[2][:2] = -(arrays[0] @ arrays[1])[0, 0, :2]
    trainable = (x_trainable, True, True, True, True)
    probe = rng.standard_normal((batch, 5, 4))
    out, got = deadline(lambda: _values_and_grads(ad._mlp, arrays, trainable, probe))
    _, want = _values_and_grads(_chain_mlp, arrays, trainable, probe)
    assert out._op == "mlp" and len(out._parents) == 5
    _assert_bitwise(got, want)


def test_a_leaf_that_feeds_three_nodes_adds_their_gradients_in_traversal_order(deadline):
    # w's gradient has four terms: the one already held and one per node;
    # float addition is not associative, so only the serial order's sum
    # has the serial bits
    rng = np.random.default_rng(38)
    xs = [ad.constant(rng.standard_normal((4, 5, 6))) for _ in range(3)]
    probe = ad.constant(rng.standard_normal((4, 5, 7)))
    held = rng.standard_normal((6, 7))

    def backward(w, b, run):
        w.grad = held.copy()
        y = ad.add(ad.add(ad.matmul(xs[0], w), ad.affine(xs[1], w, b)), ad.matmul(xs[2], w))
        run(ad.tensor_sum(ad.mul(y, probe)))
        return w.grad

    arrays = rng.standard_normal((6, 7)), rng.standard_normal(7)
    got = deadline(lambda: backward(*map(ad.parameter, arrays), lambda loss: loss.backward()))
    want = backward(*map(ad.parameter, arrays), serial_backward)
    assert got.tobytes() == want.tobytes()
    # each node's term, as the serial replay hands it over
    terms = []
    for x in xs:
        w = ad.parameter(arrays[0].copy())
        serial_backward(ad.tensor_sum(ad.mul(ad.matmul(x, w), probe)))
        terms.append(w.grad)
    sums = {(held + a + b + c).tobytes() for a, b, c in itertools.permutations(terms)}
    assert got.tobytes() in sums and len(sums) > 1


def _deferring_net(rng):
    """Parameters and a loss builder for a net with a leaf gradient of every
    kind the backward hands the worker: a matmul weight, the four of an FFN,
    a LayerNorm's gain and bias, and an affine's weight and bias."""
    shapes = [(6, 6), (6, 16), (16,), (16, 6), (6,), (6,), (6,), (6, 3), (3,)]
    params = [ad.parameter(rng.standard_normal(s)) for s in shapes]
    x = ad.constant(rng.standard_normal((4, 5, 6)))
    probe = ad.constant(rng.standard_normal((4, 5, 3)))

    def loss():
        w0, w1, b1, w2, b2, gain, bias, w3, b3 = params
        z = ad.matmul(x, w0)
        y = ad.layer_norm(ad.add(z, ad._mlp(z, w1, b1, w2, b2)), gain, bias)
        return ad.tensor_sum(ad.mul(ad.affine(y, w3, b3), probe))

    return params, loss


@pytest.mark.parametrize("where", ["mlp forward", "mlp backward", "leaf gradient"])
def test_an_error_on_the_worker_reaches_the_caller_once_no_task_runs(deadline, monkeypatch, where):
    params, loss = _deferring_net(np.random.default_rng(39))

    def step():
        for p in params:
            p.grad = None
        loss().backward()
        return [p.grad for p in params]

    reference = deadline(step)
    planted = ValueError("planted")
    tasks, tail_ran_on = [], []

    class Tracked(ad._Task):
        __slots__ = ()

        def __init__(self, fn):
            super().__init__(fn)
            tasks.append(self)

    leaf_grad, split_rows = ad._leaf_grad, ad._split_rows

    def slow_leaf_grad(t, compute):
        # each deferred gradient takes a while, so a caller that raised
        # without waiting would find some still queued or running
        def slow():
            time.sleep(0.01)
            if where == "leaf gradient" and t is params[1]:
                raise planted
            return compute()

        return leaf_grad(t, slow)

    tail_started = threading.Event()

    def failing_tail(fn, n):
        def rows(part):
            if part.start == 0:
                # the head waits, so the tail is the worker's to run
                assert tail_started.wait(30)
                fn(part)
            else:
                tail_started.set()
                tail_ran_on.append(threading.current_thread().name)
                time.sleep(0.05)
                raise planted

        split_rows(rows, n)

    monkeypatch.setattr(ad, "_Task", Tracked)
    monkeypatch.setattr(ad, "_leaf_grad", slow_leaf_grad)
    if where == "mlp forward":
        monkeypatch.setattr(ad, "_split_rows", failing_tail)

    def fail():
        for p in params:
            p.grad = None
        graph = loss()
        if where == "mlp backward":
            monkeypatch.setattr(ad, "_split_rows", failing_tail)
        graph.backward()

    with pytest.raises(ValueError) as info:
        deadline(fail)
    finished = [t._future.done() for t in tasks]
    assert info.value is planted
    assert tasks and all(finished)
    if where == "leaf gradient":
        assert len(tasks) > 1
    else:
        assert len(tail_ran_on) == 1 and tail_ran_on[0].startswith("memformer-worker")
    # a backward that fails changes no leaf gradient
    assert all(p.grad is None for p in params)
    # the worker serves the next step
    monkeypatch.undo()
    for got, want in zip(deadline(step), reference):
        assert got.tobytes() == want.tobytes()


def test_a_backward_leaves_at_most_max_deferred_leaf_gradients_unfinished(deadline, monkeypatch):
    # with every leaf gradient slow, the bound is reached; the calling
    # thread then computes the next one itself, with the same bits
    params, loss = _deferring_net(np.random.default_rng(40))
    loss().backward()
    reference = [p.grad for p in params]
    deferred, unfinished, computed_here = [], [], []
    leaf_grad = ad._leaf_grad

    def slow_leaf_grad(t, compute):
        def slow():
            time.sleep(0.02)
            return compute()

        before = sum(not task._future.done() for task in deferred)
        g = leaf_grad(t, slow)
        if isinstance(g, ad._Task):
            deferred.append(g)
            unfinished.append(before)
        elif not t._parents:
            computed_here.append(t)
        return g

    monkeypatch.setattr(ad, "_leaf_grad", slow_leaf_grad)

    def step():
        for p in params:
            p.grad = None
        loss().backward()
        return [p.grad for p in params]

    for got, want in zip(deadline(step), reference):
        assert got.tobytes() == want.tobytes()
    assert len(deferred) + len(computed_here) == len(params) and computed_here
    assert max(unfinished) == ad._MAX_DEFERRED - 1


def test_backwards_from_more_threads_than_cores_keep_every_gradient_bit():
    # four callers share the one worker, switching threads as often as the
    # interpreter allows; each backward must wait for and add its own tasks
    nets = [_deferring_net(np.random.default_rng(41)) for _ in range(5)]
    params, loss = nets.pop()
    serial_backward(loss())
    reference = [p.grad.tobytes() for p in params]
    results = [[] for _ in nets]

    def call(i):
        params, loss = nets[i]
        for _ in range(10):
            for p in params:
                p.grad = None
            loss().backward()
            results[i].append([p.grad.tobytes() for p in params])

    threads = [threading.Thread(target=call, args=(i,)) for i in range(len(nets))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [[reference] * 10 for _ in nets]


def test_mlp_in_a_residual_diamond_accumulates_like_the_chain():
    # the FFN sublayer: x feeds the MLP and the residual sum, so its gradient
    # adds two contributions
    rng = np.random.default_rng(32)
    arrays = _mlp_arrays(rng, (3, 4, 5), 7) + [1.0 + 0.1 * rng.standard_normal(5), rng.standard_normal(5)]
    probe = rng.standard_normal((3, 4, 5))

    def sublayer(mlp):
        def fn(x, w1, b1, w2, b2, gain, bias):
            return ad.layer_norm(ad.add(x, mlp(x, w1, b1, w2, b2)), gain, bias)

        return fn

    _, got = _values_and_grads(sublayer(ad._mlp), arrays, (True,) * 7, probe)
    _, want = _values_and_grads(sublayer(_chain_mlp), arrays, (True,) * 7, probe)
    _assert_bitwise(got, want)


def test_mlp_gradients_match_finite_difference():
    rng = np.random.default_rng(33)
    x, w1, b1, w2, b2 = (ad.parameter(a) for a in _mlp_arrays(rng, (3, 4), 6))
    # the finite difference must not straddle the ReLU kink
    assert np.abs(x.data @ w1.data + b1.data).min() > 1e-3
    v = ad.constant(rng.standard_normal((3, 4)))

    def build(x, w1, b1, w2, b2):
        return ad.tensor_sum(ad.mul(ad._mlp(x, w1, b1, w2, b2), v))

    _check_grads(build, [x, w1, b1, w2, b2])


def test_mlp_relu_kink_gets_zero_gradient():
    rng = np.random.default_rng(34)
    x, w1, b1, w2, b2 = (ad.parameter(a) for a in _mlp_arrays(rng, (1, 4), 6))
    pre = x.data @ w1.data
    b1.data[:] = np.abs(rng.standard_normal(6)) + 1.0 - pre
    b1.data[::2] = -pre[0, ::2]
    assert np.array_equal((pre + b1.data)[0, ::2], np.zeros(3))
    ad.tensor_sum(ad._mlp(x, w1, b1, w2, b2)).backward()
    assert np.array_equal(b1.grad[::2], np.zeros(3))
    assert np.array_equal(w1.grad[:, ::2], np.zeros((4, 3)))
    np.testing.assert_allclose(b1.grad[1::2], w2.data[1::2].sum(axis=1), rtol=1e-12)


def test_layer_norm_is_bitwise_the_formula():
    rng = np.random.default_rng(35)
    x = rng.standard_normal((3, 5, 8)) * 2 + 1
    gain = 1.0 + 0.1 * rng.standard_normal(8)
    bias = rng.standard_normal(8)
    probe = rng.standard_normal((3, 5, 8))
    _, got = _values_and_grads(ad.layer_norm, [x, gain, bias], (True, True, True), probe)
    # the textbook spelling, one fresh array per step
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + ad.LAYER_NORM_EPS)
    xhat = xc * inv
    gy = probe * gain
    gx = inv * (gy - gy.mean(axis=-1, keepdims=True) - xhat * (gy * xhat).mean(axis=-1, keepdims=True))
    want = [xhat * gain + bias, gx, (probe * xhat).sum(axis=(0, 1)), probe.sum(axis=(0, 1))]
    _assert_bitwise(got, want)


def test_fused_nodes_write_no_input_and_no_handed_gradient():
    rng = np.random.default_rng(36)
    mlp_in = [ad.parameter(a) for a in _mlp_arrays(rng, (2, 3, 4), 5)]
    ln_in = [ad.parameter(rng.standard_normal(s)) for s in ((2, 3, 4), (4,), (4,))]
    for fn, inputs in ((ad.affine, mlp_in[:3]), (ad._mlp, mlp_in), (ad.layer_norm, ln_in)):
        before = [t.data.copy() for t in inputs]
        out = fn(*inputs)
        g = rng.standard_normal(out.shape)
        g_before = g.copy()
        grads = out._grad_fn(g)
        grads_before = [gr.copy() for gr in grads]
        out._grad_fn(g)
        assert np.array_equal(g, g_before), fn.__name__
        # _layer_norm centres its buffer in place; layer_norm hands it a copy
        for t, b in zip(inputs, before):
            assert t.data.tobytes() == b.tobytes(), fn.__name__
        # a second backward through the node leaves the first one's results as they were
        for gr, gb in zip(grads, grads_before):
            assert np.array_equal(gr, gb), fn.__name__


def test_mlp_under_no_grad_records_nothing():
    rng = np.random.default_rng(37)
    inputs = [ad.parameter(a) for a in _mlp_arrays(rng, (2, 3, 4), 5)]
    recorded = ad._mlp(*inputs)
    with ad.no_grad():
        out = ad._mlp(*inputs)
    assert recorded.requires_grad and recorded._parents == tuple(inputs)
    assert not out.requires_grad and out._parents == () and out._grad_fn is None
    assert out._op == recorded._op == "mlp"
    np.testing.assert_array_equal(out.data, recorded.data)


def _columns(rows):
    """``rows`` (..., m, n) as the softmax kernel's (..., n, m) input."""
    return np.ascontiguousarray(np.swapaxes(rows, -1, -2))


def _same_bits(a, b):
    return a.shape == b.shape and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


def _index_order_sum(rows):
    """Sum over the last axis, kept: +0.0, then each term in index order."""
    s = np.zeros(rows.shape[:-1] + (1,))
    for j in range(rows.shape[-1]):
        s += rows[..., j : j + 1]
    return s


@pytest.mark.parametrize("length", [1, 2, 10, 51])
def test_softmax_row_max_is_bitwise_the_reduction(length):
    rng = np.random.default_rng(length)
    x = rng.standard_normal((3, 4, 6, length))
    # tied maxima: constant rows, a repeated maximum, signed zeros
    x[0, 0] = 1.25
    x[1, :, :, -1] = x[1].max(axis=-1)
    x[2, 0] = 0.0
    x[2, 1, :, ::2] = -0.0
    x[2, 1, :, 1::2] = -1.0
    want_max = x.max(axis=-1, keepdims=True)
    assert np.array_equal(np.swapaxes(_columns(x).max(axis=-2, keepdims=True), -1, -2), want_max)
    e = np.exp(x - want_max)
    want = e / _index_order_sum(e)
    assert np.array_equal(ad.softmax_rows(ad.constant(x)).data, want)
    # in place, as attend runs it in its bank-major score buffer
    buf = _columns(x)
    assert ad._softmax(buf, buf) is buf and np.array_equal(np.swapaxes(buf, -1, -2), want)


# every row length up to 139, and three longer ones
_COLUMN_LENGTHS = [*range(1, 140), 200, 257, 1000]


def _hard_rows(rng, length):
    """(3, 5, length) rows whose max and sum expose any change of order: values
    spread over e^-20..e^20 with both signs, an all-(-0.0) row, an all-(+0.0)
    row, and rows whose maximum is tied."""
    rows = rng.standard_normal((3, 5, length)) * np.exp(rng.uniform(-20.0, 20.0, (3, 5, length)))
    rows[1, 0] = -0.0
    rows[1, 1] = 0.0
    rows[1, 2] = 2.5
    rows[1, 3, ::3] = rows[1, 3].max()
    rows[1, 4] = -rows[1, 4] ** 2
    rows[1, 4, ::2] = 0.0
    return rows


def test_column_max_is_numpy_row_max_and_column_sum_is_index_order():
    # bitwise, sign of zero included: the max against numpy's own reduce of
    # the contiguous rows, the sum against a running sum in index order
    rng = np.random.default_rng(61)
    for length in _COLUMN_LENGTHS:
        rows = _hard_rows(rng, length)
        flat = rows.reshape(-1, length)
        want_max = flat.max(axis=-1)
        want_sum = _index_order_sum(flat)[:, 0]
        # row (1, 0) is all -0.0: from the +0.0 start its sum is +0.0
        assert _same_bits(want_sum[5:6], np.zeros(1)), length
        # a contiguous (..., n, m) input, attend's slot-major memory, and a
        # view whose reduced axis is innermost, where numpy's own sum(axis=-2)
        # goes pairwise
        slot_major = np.empty((length, 3, 5)).transpose(1, 0, 2)
        slot_major[...] = _columns(rows)
        innermost = np.moveaxis(rows, -1, 0).reshape(length, -1)
        for cols in (_columns(rows), slot_major, innermost):
            before = cols.copy()
            assert _same_bits(cols.max(axis=-2, keepdims=True).reshape(-1), want_max), length
            assert _same_bits(ad._col_sum(cols).reshape(-1), want_sum), length
            assert _same_bits(cols, before), length


def test_column_max_of_mixed_signed_zeros_does_not_reach_the_softmax():
    # numpy's vectorised max may return either zero for a row of mixed 0.0
    # and -0.0, so its column and row reductions may keep different ones. The
    # values agree, and x - max then gives the same softmax for either sign.
    rng = np.random.default_rng(62)
    for length in _COLUMN_LENGTHS:
        rows = rng.choice([0.0, -0.0, -1.5], size=(4, length))
        rows[:, 0] = -0.0
        rows[:, -1] = 0.0
        want_max = rows.max(axis=-1, keepdims=True)
        col_max = _columns(rows).max(axis=-2, keepdims=True)
        assert np.array_equal(np.swapaxes(col_max, -1, -2), want_max), length
        e = np.exp(rows - want_max)
        want = e / _index_order_sum(e)
        assert _same_bits(ad.softmax_rows(ad.constant(rows)).data, want), length


# -- no_grad ----------------------------------------------------------------------


def _every_primitive(a, b, w, gain, bias):
    """One result per primitive, each fed trainable inputs."""
    return [
        ad.add(a, b),
        ad.sub(a, b),
        ad.mul(a, b),
        ad.matmul(a, w),
        ad.affine(a, w, bias),
        ad.relu(a),
        ad.softmax_rows(a),
        ad.layer_norm(a, gain, bias),
        ad.dropout(a, 0.5, np.random.default_rng(0), train=True),
        ad.cross_entropy(a, np.array([0, 3, 1])),
        ad.reshape(a, (4, 3)),
        ad.transpose(a, (1, 0)),
        ad.broadcast_to(a, (2, 3, 4)),
        ad.concat([a, b], axis=0),
        ad.narrow(a, 1, 1, 2),
        ad.tensor_sum(a, axis=0),
        ad.tensor_mean(a),
    ]


def _primitive_inputs():
    rng = np.random.default_rng(7)
    return [_param(rng, 3, 4), _param(rng, 3, 4), _param(rng, 4, 4), _param(rng, 4), _param(rng, 4)]


def test_no_grad_results_are_constants_with_recorded_values():
    inputs = _primitive_inputs()
    recorded = _every_primitive(*inputs)
    with ad.no_grad():
        unrecorded = _every_primitive(*inputs)
    assert len(unrecorded) == len(recorded)
    for want, got in zip(recorded, unrecorded):
        assert want.requires_grad and want._parents
        assert got.requires_grad is False
        assert got._parents == ()
        assert got._grad_fn is None
        assert got._op == want._op
        np.testing.assert_array_equal(got.data, want.data)


def test_no_grad_restores_recording_after_raise_and_nesting():
    x = ad.parameter(np.array([2.0]))
    with pytest.raises(RuntimeError, match="inside"):
        with ad.no_grad():
            raise RuntimeError("raised inside the block")
    assert ad.mul(x, x).requires_grad
    with ad.no_grad():
        with ad.no_grad():
            assert not ad.mul(x, x).requires_grad
        # leaving the inner block keeps the outer one in force
        assert not ad.mul(x, x).requires_grad
    y = ad.tensor_sum(ad.mul(x, x))
    assert y.requires_grad
    y.backward()
    np.testing.assert_allclose(x.grad, [4.0], rtol=1e-12)


@pytest.mark.parametrize("shape, fans", [((3, 5), 8), ((4, 2, 2, 3), 16)])
def test_glorot_uniform_bound_is_set_by_the_sum_of_the_fans(shape, fans):
    # a matrix's fans are its extents; an (out, *window) kernel's are out and the window size
    bound = np.sqrt(6.0 / fans)
    want = np.random.default_rng(39).uniform(-bound, bound, shape)
    got = ad.glorot_uniform(np.random.default_rng(39), shape)
    assert got.requires_grad and got.data.tobytes() == want.tobytes()


def test_no_grad_leaves_stay_trainable():
    rng = np.random.default_rng(8)
    with ad.no_grad():
        p = ad.parameter(np.ones(3))
        w = ad.glorot_uniform(rng, (3, 2))
    assert p.requires_grad and w.requires_grad
    loss = ad.tensor_sum(ad.matmul(ad.reshape(p, (1, 3)), w))
    loss.backward()
    np.testing.assert_allclose(p.grad, w.data.sum(axis=1), rtol=1e-12)
    np.testing.assert_allclose(w.grad, np.ones((3, 2)), rtol=1e-12)


def test_backward_twice_over_one_root_names_the_consumed_op():
    x = ad.parameter(np.array([1.0, -2.0]))
    loss = ad.tensor_sum(ad.mul(x, x))
    loss.backward()
    with pytest.raises(ValueError, match="'sum' node"):
        loss.backward()
    np.testing.assert_array_equal(x.grad, [2.0, -4.0])


def test_backward_into_a_subgraph_another_root_consumed_raises():
    x = ad.parameter(np.array([1.0, -2.0]))
    y = ad.mul(x, x)
    ad.tensor_sum(y).backward()
    second = ad.tensor_mean(y)
    with pytest.raises(ValueError, match="'mul' node"):
        second.backward()
    # the guard runs before any gradient is handed out
    np.testing.assert_array_equal(x.grad, [2.0, -4.0])
    assert second.grad is None


def test_no_grad_is_per_thread():
    # thread "early" enters nested blocks and leaves them while thread
    # "late" is still inside its own; with one shared switch, early's exit
    # would turn recording back on inside late's block, and late's exit
    # would leave it off for everyone
    x = ad.parameter(np.array([2.0]))
    early_inside, late_inside, early_left = threading.Event(), threading.Event(), threading.Event()
    seen = {}

    def early():
        with ad.no_grad():
            with ad.no_grad():
                early_inside.set()
                seen["early waited"] = late_inside.wait(10)
                seen["early inside"] = ad.mul(x, x).requires_grad
        early_left.set()
        seen["early after"] = ad.mul(x, x).requires_grad

    def late():
        seen["late waited"] = early_inside.wait(10)
        with ad.no_grad():
            late_inside.set()
            seen["late waited again"] = early_left.wait(10)
            seen["late inside"] = ad.mul(x, x).requires_grad
        seen["late after"] = ad.mul(x, x).requires_grad

    threads = [threading.Thread(target=early), threading.Thread(target=late)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(20)
    assert not any(t.is_alive() for t in threads)
    assert seen == {
        "early waited": True,
        "early inside": False,
        "early after": True,
        "late waited": True,
        "late waited again": True,
        "late inside": False,
        "late after": True,
    }
    assert ad.mul(x, x).requires_grad



_OUTPUT_OPS = {
    "add": lambda x, w, b, rng: ad.add(x, x),
    "matmul": lambda x, w, b, rng: ad.matmul(x, w),
    "affine": lambda x, w, b, rng: ad.affine(x, w, b),
    "mlp": lambda x, w, b, rng: ad._mlp(x, w, b, w, b),
    "relu": lambda x, w, b, rng: ad.relu(x),
    "layer_norm": lambda x, w, b, rng: ad.layer_norm(x, b, b),
    "dropout": lambda x, w, b, rng: ad.dropout(x, 0.5, rng, train=True),
    "concat": lambda x, w, b, rng: ad.concat([x, x], axis=0),
}


@pytest.mark.parametrize("op", list(_OUTPUT_OPS))
def test_a_recording_op_writes_a_new_array_and_leaves_a_held_output_alone(op):
    rng = np.random.default_rng(0)
    inputs = (_param(rng, 3, 4), _param(rng, 4, 4), _param(rng, 4))
    before = [t.data.copy() for t in inputs]
    first = _OUTPUT_OPS[op](*inputs, rng)
    held = first.data.copy()
    second = _OUTPUT_OPS[op](*inputs, rng)
    assert first.requires_grad and second.requires_grad
    # each call writes an array of its own: no input, and no output the
    # caller still holds from an earlier call
    for out in (first, second):
        assert not any(np.may_share_memory(out.data, t.data) for t in inputs)
    assert not np.may_share_memory(first.data, second.data)
    np.testing.assert_array_equal(first.data, held)
    for t, b in zip(inputs, before):
        np.testing.assert_array_equal(t.data, b)
