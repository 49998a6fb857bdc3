"""Gradient checks for the tensor kernel.

Every differentiable primitive is compared against a central finite
difference of the same scalarised computation. float64 with step 1e-5 puts
the truncation error around 1e-10 relative, so the tolerances here are tight.
"""

import numpy as np
import pytest

from memformer import autodiff as ad


def _check_grads(build, tensors, rtol=1e-5, atol=1e-8):
    """Backprop through ``build(*tensors)`` and compare with finite differences."""
    loss = build(*tensors)
    for t in tensors:
        t.zero_grad()
    loss = build(*tensors)
    loss.backward()
    for t in tensors:
        want = ad.finite_diff_grad(lambda _t, i=tensors.index(t): build(*tensors), t).data
        got = np.zeros_like(t.data) if t.grad is None else t.grad
        np.testing.assert_allclose(got, want, rtol=rtol, atol=atol)


def _param(rng, *shape):
    return ad.parameter(rng.standard_normal(shape))


def test_add_broadcast_grad():
    rng = np.random.default_rng(0)
    a = _param(rng, 3, 4)
    b = _param(rng, 4)

    def build(a, b):
        return ((a + b) * (a + b)).sum()

    _check_grads(build, [a, b])


def test_sub_and_scalar_ops():
    rng = np.random.default_rng(1)
    a = _param(rng, 2, 5)
    b = _param(rng, 2, 5)

    def build(a, b):
        return ((a - b) * 3.0 + (-a) + (1.0 - b)).sum()

    _check_grads(build, [a, b])


def test_mul_broadcast_grad():
    rng = np.random.default_rng(2)
    a = _param(rng, 2, 3, 4)
    b = _param(rng, 3, 1)

    def build(a, b):
        return (a * b).sum()

    _check_grads(build, [a, b])


def test_matmul_grad():
    rng = np.random.default_rng(3)
    a = _param(rng, 4, 3)
    b = _param(rng, 3, 5)

    def build(a, b):
        return (a @ b).sum()

    _check_grads(build, [a, b])


def test_matmul_batched_broadcast_grad():
    rng = np.random.default_rng(4)
    a = _param(rng, 2, 3, 4)
    b = _param(rng, 4, 5)

    def build(a, b):
        return ((a @ b) * (a @ b)).sum()

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
        return ad.affine(x, w, b).sum()

    _check_grads(build, [x, w, b])


def test_relu_grad_away_from_kink():
    rng = np.random.default_rng(6)
    x = ad.parameter(rng.standard_normal((5, 7)) + np.sign(rng.standard_normal((5, 7))) * 0.5)
    # inputs pushed at least 0.5 from zero, so the finite difference never
    # straddles the kink
    assert np.abs(x.data).min() > 1e-3

    def build(x):
        return ad.relu(x).sum()

    _check_grads(build, [x])


def test_softmax_rows_grad():
    rng = np.random.default_rng(7)
    x = _param(rng, 3, 6)
    v = ad.constant(rng.standard_normal((3, 6)))

    def build(x):
        return (ad.softmax_rows(x) * v).sum()

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
        return (ad.layer_norm(x, g, b) * v).sum()

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
        ad.layer_norm(x, ad.constant(np.ones(3)), ad.constant(np.zeros(3)), eps=0.0)


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
    out.sum().backward()
    np.testing.assert_allclose(x.grad[kept], 1.0 / 0.6, rtol=1e-12)
    np.testing.assert_allclose(x.grad[~kept], 0.0, atol=0)
    with pytest.raises(ValueError):
        ad.dropout(x, 1.0, np.random.default_rng(0), train=True)


def test_reshape_transpose_grad():
    rng = np.random.default_rng(14)
    x = _param(rng, 2, 3, 4)
    v = ad.constant(rng.standard_normal((4, 2, 3)))

    def build(x):
        return (ad.transpose(ad.reshape(x, (2, 3, 4)), (2, 0, 1)) * v).sum()

    _check_grads(build, [x])


def test_broadcast_to_grad():
    rng = np.random.default_rng(15)
    x = _param(rng, 1, 4)
    v = ad.constant(rng.standard_normal((3, 5, 4)))

    def build(x):
        return (ad.broadcast_to(x, (3, 5, 4)) * v).sum()

    _check_grads(build, [x])


def test_concat_narrow_grad():
    rng = np.random.default_rng(16)
    a = _param(rng, 2, 3)
    b = _param(rng, 2, 5)
    v = ad.constant(rng.standard_normal((2, 4)))

    def build(a, b):
        joined = ad.concat([a, b], axis=1)
        return (ad.narrow(joined, 1, 2, 4) * v).sum()

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
        return (x.sum(axis=1) * v).sum() + x.mean(axis=(0, 2)).sum() + x.mean()

    _check_grads(build, [x])


def test_diamond_graph_accumulates_once():
    # y = x*x used twice downstream: d/dx (x^2 + x^2) = 4x
    x = ad.parameter(np.array([3.0]))
    y = x * x
    z = (y + y).sum()
    z.backward()
    np.testing.assert_allclose(x.grad, [12.0], rtol=1e-12)


def test_detach_blocks_gradient():
    x = ad.parameter(np.array([2.0]))
    y = (x * x).detach()
    z = (y * x).sum()
    z.backward()
    # only the direct factor contributes: d/dx (const * x) = const = 4
    np.testing.assert_allclose(x.grad, [4.0], rtol=1e-12)


def test_backward_requires_scalar():
    x = ad.parameter(np.ones((2, 2)))
    with pytest.raises(ValueError):
        (x * 2.0).backward()


def test_constants_never_accumulate_grad():
    c = ad.constant(np.ones(3))
    x = ad.parameter(np.ones(3))
    (x * c).sum().backward()
    assert c.grad is None
    np.testing.assert_allclose(x.grad, np.ones(3), rtol=1e-12)


def test_deep_chain_no_recursion_limit():
    # toposort is iterative, so graph depth is bounded by memory not stack
    x = ad.parameter(np.array([1.0]))
    y = x
    for _ in range(5000):
        y = y + 0.0
    y.sum().backward()
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
            h = ad.relu(ad.affine(x, w1, b1) + 0.7)
            out = ad.layer_norm(ad.affine(h, w2, b2), g, bb)
            return ad.cross_entropy(out, labels)

        _check_grads(build, [x, w1, b1, w2, b2, g, bb], rtol=1e-4, atol=1e-7)



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
    assert (x * x).requires_grad
    with ad.no_grad():
        with ad.no_grad():
            assert not (x * x).requires_grad
        # leaving the inner block keeps the outer one in force
        assert not (x * x).requires_grad
    y = (x * x).sum()
    assert y.requires_grad
    y.backward()
    np.testing.assert_allclose(x.grad, [4.0], rtol=1e-12)


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
