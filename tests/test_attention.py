"""Memory attention oracles: tiling, FIFO, two-pass recomputation, baselines.

The hand-computed cases replicate each equation step with plain numpy in the
test body, independent of the kernel's graph machinery, and demand 1e-12
absolute agreement.
"""

import numpy as np
import pytest

from memformer import autodiff as ad
from memformer.attention import (
    MemoryAttention,
    StandardAttention,
    attend,
    project_memory,
    residual_norm,
    update_memory,
)


def _softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _layer_norm(x, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps)


# -- project_memory ---------------------------------------------------------


def test_project_memory_zero_buffer():
    rng = np.random.default_rng(0)
    w_q, w_k, w_v = (ad.glorot_uniform(rng, (4, 4)) for _ in range(3))
    bank = np.zeros((3, 4))
    k_m, v_m = project_memory(bank, w_k, w_v)
    np.testing.assert_array_equal(k_m.data, np.zeros((1, 3, 4)))
    np.testing.assert_array_equal(v_m.data, np.zeros((1, 3, 4)))


def test_project_memory_identity_and_tiling():
    rng = np.random.default_rng(1)
    w_q, w_k, w_v = (ad.glorot_uniform(rng, (4, 4)) for _ in range(3))
    w_k.data[:] = np.eye(4)
    bank = rng.standard_normal((3, 4))
    k_m, v_m = project_memory(bank, w_k, w_v)
    assert k_m.shape == v_m.shape == (1, 3, 4)
    np.testing.assert_array_equal(k_m.data[0], bank)
    np.testing.assert_array_equal(v_m.data[0], bank @ w_v.data)
    # one projection serves every query row: the same as tiling it per sample
    q = ad.constant(rng.standard_normal((3, 2, 4)))
    shared, shared_w = attend(q, k_m, v_m, heads=2)
    tiled = [ad.constant(np.repeat(t.data, 3, axis=0)) for t in (k_m, v_m)]
    per_sample, per_sample_w = attend(q, *tiled, heads=2)
    np.testing.assert_array_equal(shared.data, per_sample.data)
    np.testing.assert_array_equal(shared_w.data, per_sample_w.data)


# -- attend -------------------------------------------------------------------


def test_attend_zero_memory_is_uniform_and_zero_output():
    rng = np.random.default_rng(2)
    q = ad.constant(rng.standard_normal((2, 3, 4)))
    k_m = ad.constant(np.zeros((2, 5, 4)))
    v_m = ad.constant(np.zeros((2, 5, 4)))
    out, w = attend(q, k_m, v_m, heads=2)
    np.testing.assert_allclose(w.data, 1.0 / 5.0, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(out.data, np.zeros((2, 3, 4)))


def test_attend_single_entry_ignores_query():
    rng = np.random.default_rng(3)
    q = ad.constant(rng.standard_normal((1, 4, 6)))
    k_m = ad.constant(rng.standard_normal((1, 1, 6)))
    v_m = ad.constant(rng.standard_normal((1, 1, 6)))
    out, w = attend(q, k_m, v_m, heads=3)
    np.testing.assert_array_equal(w.data, np.ones((1, 3, 4, 1)))
    for t in range(4):
        np.testing.assert_allclose(out.data[0, t], v_m.data[0, 0], rtol=0, atol=1e-15)


def test_attend_single_head_hand_oracle():
    q = np.array([[[1.0, 0.5], [-0.3, 2.0]]])
    m = np.array([[0.2, -1.0], [1.5, 0.7]])
    w_k = np.array([[0.5, -0.25], [1.0, 0.75]])
    w_v = np.array([[-0.6, 0.1], [0.2, 0.9]])
    k_m = m @ w_k
    v_m = m @ w_v
    out = attend(
        ad.constant(q), ad.constant(k_m[None]), ad.constant(v_m[None]), heads=1
    )[0].data
    # weight every bank row by softmax(q . k / sqrt(2)) explicitly
    want = np.zeros((1, 2, 2))
    for t in range(2):
        logits = np.array([q[0, t] @ k_m[0] / np.sqrt(2.0), q[0, t] @ k_m[1] / np.sqrt(2.0)])
        w = np.exp(logits - logits.max())
        w = w / w.sum()
        want[0, t] = w[0] * v_m[0] + w[1] * v_m[1]
    np.testing.assert_allclose(out, want, rtol=0, atol=1e-12)


def test_attend_weights_sum_to_one_per_token():
    rng = np.random.default_rng(4)
    q = ad.constant(rng.standard_normal((3, 5, 8)))
    k_m = ad.constant(rng.standard_normal((3, 6, 8)))
    v_m = ad.constant(rng.standard_normal((3, 6, 8)))
    _, w = attend(q, k_m, v_m, heads=4)
    assert w.shape == (3, 4, 5, 6)
    np.testing.assert_allclose(w.data.sum(axis=-1), 1.0, rtol=0, atol=1e-6)


def test_attend_rejects_mismatches():
    q = ad.constant(np.zeros((1, 2, 4)))
    bank = ad.constant(np.zeros((1, 3, 4)))
    with pytest.raises(ValueError):
        attend(q, bank, bank, heads=3)
    with pytest.raises(ValueError):
        attend(q, ad.constant(np.zeros((1, 3, 6))), bank, heads=2)
    # a bank batch is 1 (shared) or the query batch
    pair = ad.constant(np.zeros((2, 3, 4)))
    with pytest.raises(ValueError):
        attend(ad.constant(np.zeros((3, 2, 4))), pair, pair, heads=2)


def test_score_tensor_is_linear_in_bank_length():
    # memory attention scores: (B, h, T, M_len); self-attention: (B, h, T, T)
    q = ad.constant(np.zeros((2, 9, 4)))
    bank = ad.constant(np.zeros((2, 3, 4)))
    _, w_mem = attend(q, bank, bank, heads=2)
    assert w_mem.shape == (2, 2, 9, 3)
    _, w_self = attend(q, q, q, heads=2)
    assert w_self.shape == (2, 2, 9, 9)


def _chain_attend(q, k_mem, v_mem, heads):
    """``attend`` as a chain of autodiff primitives, one node per step: the
    reference the fused node must reproduce bit for bit."""
    b, t, k = q.shape

    def split(x):
        return ad.transpose(ad.reshape(x, x.shape[:2] + (heads, k // heads)), (0, 2, 1, 3))

    qh, kh, vh = split(q), split(k_mem), split(v_mem)
    scores = ad.mul(ad.matmul(qh, ad.transpose(kh, (0, 1, 3, 2))), 1.0 / np.sqrt(k // heads))
    weights = ad.softmax_rows(scores)
    out = ad.reshape(ad.transpose(ad.matmul(weights, vh), (0, 2, 1, 3)), (b, t, k))
    return out, weights


# (query batch, bank batch, heads): a shared (1, L, K) bank and per-sample keys
_ATTEND_CASES = [(3, 1, 1), (3, 1, 2), (2, 2, 1), (2, 2, 4)]


@pytest.mark.parametrize("batch, bank_batch, heads", _ATTEND_CASES)
def test_attend_gradients_match_finite_difference(batch, bank_batch, heads):
    rng = np.random.default_rng(19)
    q = ad.parameter(rng.standard_normal((batch, 3, 4)))
    k_m = ad.parameter(rng.standard_normal((bank_batch, 5, 4)))
    v_m = ad.parameter(rng.standard_normal((bank_batch, 5, 4)))
    probe = ad.constant(rng.standard_normal((batch, 3, 4)))

    def loss():
        return ad.tensor_sum(ad.mul(attend(q, k_m, v_m, heads)[0], probe))

    loss().backward()
    for name, x in (("q", q), ("k_mem", k_m), ("v_mem", v_m)):
        want = ad.finite_diff_grad(lambda _x: loss(), x).data
        np.testing.assert_allclose(x.grad, want, rtol=1e-6, atol=1e-9, err_msg=name)


# the small cases at 6 tokens, a 7-entry bank and width 8, then the default
# model's shapes: B=16, T=50, K=64 against its shared (1, 10, 64) bank and
# against self-attention keys, at d = 8 and d = 64, where BLAS may take
# another kernel or operand orientation
_BITWISE_CASES = [pytest.param(*case, 6, 7, 8, id="-".join(map(str, case))) for case in _ATTEND_CASES] + [
    pytest.param(16, 1, 8, 50, 10, 64, id="model-bank-h8"),
    pytest.param(16, 1, 1, 50, 10, 64, id="model-bank-h1"),
    pytest.param(16, 16, 8, 50, 50, 64, id="model-self-h8"),
    pytest.param(16, 16, 1, 50, 50, 64, id="model-self-h1"),
]


@pytest.mark.parametrize("batch, bank_batch, heads, tokens, length, width", _BITWISE_CASES)
def test_attend_is_bitwise_the_primitive_chain(batch, bank_batch, heads, tokens, length, width):
    rng = np.random.default_rng(20)
    shapes = ((batch, tokens, width), (bank_batch, length, width), (bank_batch, length, width))
    inputs = [rng.standard_normal(s) for s in shapes]
    probe = ad.constant(rng.standard_normal((batch, tokens, width)))
    results = []
    for fn in (attend, _chain_attend):
        q, k_m, v_m = (ad.parameter(x.copy()) for x in inputs)
        out, weights = fn(q, k_m, v_m, heads)
        ad.tensor_sum(ad.mul(out, probe)).backward()
        results.append([out.data, weights.data, q.grad, k_m.grad, v_m.grad])
    for name, got, want in zip(("out", "weights", "q", "k_mem", "v_mem"), *results):
        assert np.array_equal(got, want), name


def test_attend_self_attention_accumulates_like_the_chain():
    # q, k and v share one input, which also feeds the residual, as in
    # StandardAttention: its gradient sums four contributions in a fixed order
    rng = np.random.default_rng(21)
    z0 = rng.standard_normal((2, 5, 8))
    w0 = [rng.standard_normal((8, 8)) for _ in range(3)]
    probe = ad.constant(rng.standard_normal((2, 5, 8)))
    grads = []
    for fn in (attend, _chain_attend):
        z = ad.parameter(z0.copy())
        ws = [ad.parameter(w.copy()) for w in w0]
        q, k, v = (ad.matmul(z, w) for w in ws)
        ad.tensor_sum(ad.mul(ad.add(q, fn(q, k, v, 2)[0]), probe)).backward()
        grads.append([z.grad] + [w.grad for w in ws])
    for got, want in zip(*grads):
        assert np.array_equal(got, want)


def test_attend_under_no_grad_records_nothing():
    rng = np.random.default_rng(22)
    q, k_m, v_m = (ad.parameter(rng.standard_normal(s)) for s in ((2, 3, 4), (1, 5, 4), (1, 5, 4)))
    recorded, recorded_w = attend(q, k_m, v_m, 2)
    with ad.no_grad():
        out, w = attend(q, k_m, v_m, 2)
    assert recorded.requires_grad and recorded._parents == (q, k_m, v_m)
    assert not out.requires_grad and out._parents == () and out._grad_fn is None
    assert not recorded_w.requires_grad and not w.requires_grad
    np.testing.assert_array_equal(out.data, recorded.data)
    np.testing.assert_array_equal(w.data, recorded_w.data)


# -- residual_norm ---------------------------------------------------------------


def test_residual_norm_identity_cases():
    rng = np.random.default_rng(5)
    q = ad.constant(rng.standard_normal((2, 3, 8)))
    zero = ad.constant(np.zeros((2, 3, 8)))
    gain = ad.constant(np.ones(8))
    bias = ad.constant(np.zeros(8))
    out = residual_norm(q, zero, gain, bias)
    np.testing.assert_allclose(out.data, _layer_norm(q.data), rtol=0, atol=1e-12)
    # constant rows normalize to zero before the affine
    const = ad.constant(np.full((1, 2, 8), 3.25))
    zero2 = ad.constant(np.zeros((1, 2, 8)))
    np.testing.assert_allclose(residual_norm(const, zero2, gain, bias).data, 0.0, atol=1e-12)


def test_residual_norm_statistics():
    rng = np.random.default_rng(6)
    q = ad.constant(rng.standard_normal((4, 5, 32)))
    a = ad.constant(rng.standard_normal((4, 5, 32)))
    out = residual_norm(q, a, ad.constant(np.ones(32)), ad.constant(np.zeros(32))).data
    np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-12)
    np.testing.assert_allclose(out.var(axis=-1), 1.0, atol=1e-3)


def _chain_residual_norm(x, y, gain, bias, rate=0.0, rng=None, train=False):
    """``residual_norm`` as the chain of primitives it replaces."""
    if train and rate > 0:
        y = ad.dropout(y, rate, rng, train=True)
    return ad.layer_norm(ad.add(x, y), gain, bias)


def _residual_norm_grads(fn, arrays, sublayer, probe, **kw):
    """Output and gradients of x, y's inputs, gain and bias after backprop of
    sum(fn(x, sublayer(x, ...), gain, bias) * probe)."""
    x, a, b, gain, bias = (ad.parameter(v.copy()) for v in arrays)
    out = fn(x, sublayer(x, a, b), gain, bias, **kw)
    ad.tensor_sum(ad.mul(out, ad.constant(probe))).backward()
    return out, [out.data, x.grad, a.grad, b.grad, gain.grad, bias.grad]


# how y is made: independent of x, or from x as in both blocks
_SUBLAYERS = {
    "independent": lambda x, a, b: ad.add(a, b),
    "attend": lambda x, a, b: attend(x, a, b, 2)[0],
}


@pytest.mark.parametrize("sublayer", sorted(_SUBLAYERS))
@pytest.mark.parametrize("train", [False, True])
def test_residual_norm_is_one_node_and_bitwise_the_chain(sublayer, train):
    rng = np.random.default_rng(40)
    shapes = ((2, 3, 8), (2, 3, 8), (2, 3, 8), (8,), (8,))
    arrays = [rng.standard_normal(s) for s in shapes]
    arrays[3] = 1.0 + 0.1 * arrays[3]
    probe = rng.standard_normal((2, 3, 8))
    results = []
    for fn in (residual_norm, _chain_residual_norm):
        kw = dict(rate=0.3, rng=np.random.default_rng(41), train=True) if train else {}
        results.append(_residual_norm_grads(fn, arrays, _SUBLAYERS[sublayer], probe, **kw))
    (out, got), (_, want) = results
    assert out._op == "residual_norm" and len(out._parents) == 4
    assert (out._parents[1]._op == "dropout") == train
    for i, (a, b) in enumerate(zip(got, want)):
        assert a.shape == b.shape and np.array_equal(a, b), i


def test_residual_norm_summands_share_one_gradient_and_inputs_stay():
    rng = np.random.default_rng(42)
    x, y = (ad.parameter(rng.standard_normal((2, 3, 4))) for _ in range(2))
    gain, bias = ad.parameter(np.ones(4)), ad.parameter(np.zeros(4))
    before = [t.data.copy() for t in (x, y, gain, bias)]
    out = residual_norm(x, y, gain, bias)
    g = rng.standard_normal(out.shape)
    g_before = g.copy()
    gx, gy, _, _ = out._grad_fn(g)
    assert np.shares_memory(gx, gy) and np.array_equal(gx, gy)
    assert np.array_equal(g, g_before)
    for t, b in zip((x, y, gain, bias), before):
        assert np.array_equal(t.data, b)


def test_residual_norm_gradients_match_finite_difference():
    rng = np.random.default_rng(43)
    x, y = (ad.parameter(rng.standard_normal((2, 3, 6))) for _ in range(2))
    gain = ad.parameter(1.0 + 0.1 * rng.standard_normal(6))
    bias = ad.parameter(rng.standard_normal(6))
    probe = ad.constant(rng.standard_normal((2, 3, 6)))

    def loss():
        return ad.tensor_sum(ad.mul(residual_norm(x, y, gain, bias), probe))

    loss().backward()
    for name, t in (("x", x), ("y", y), ("gain", gain), ("bias", bias)):
        want = ad.finite_diff_grad(lambda _t: loss(), t).data
        np.testing.assert_allclose(t.grad, want, rtol=1e-5, atol=1e-8, err_msg=name)


def test_residual_norm_under_no_grad_records_nothing():
    rng = np.random.default_rng(44)
    x, y = (ad.parameter(rng.standard_normal((2, 3, 4))) for _ in range(2))
    gain, bias = ad.parameter(np.ones(4)), ad.parameter(np.zeros(4))
    recorded = residual_norm(x, y, gain, bias)
    with ad.no_grad():
        out = residual_norm(x, y, gain, bias)
    assert recorded.requires_grad and recorded._parents == (x, y, gain, bias)
    assert not out.requires_grad and out._parents == () and out._grad_fn is None
    np.testing.assert_array_equal(out.data, recorded.data)


# -- update_memory ----------------------------------------------------------------


def test_update_memory_fifo_order():
    bank = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    a = ad.constant(np.full((2, 4, 2), 7.0))
    bank = update_memory(bank, a)
    np.testing.assert_array_equal(bank, [[1, 1], [2, 2], [7, 7]])


def test_update_memory_mean_example():
    bank = np.zeros((2, 2))
    a = ad.constant(np.array([[[1.0, 3.0], [3.0, 5.0]]]))
    bank = update_memory(bank, a)
    np.testing.assert_array_equal(bank[-1], [2.0, 4.0])


def test_update_memory_replay_oracle():
    rng = np.random.default_rng(7)
    for _ in range(100):
        cap = int(rng.integers(1, 6))
        width = int(rng.integers(1, 5))
        bank = np.zeros((cap, width))
        history = [row.copy() for row in bank]
        for _ in range(int(rng.integers(1, 3 * cap + 2))):
            a = ad.constant(rng.standard_normal((int(rng.integers(1, 4)), int(rng.integers(1, 5)), width)))
            bank = update_memory(bank, a)
            history.append(a.data.mean(axis=(0, 1)))
            assert bank.shape == (cap, width)
        np.testing.assert_allclose(bank, np.stack(history[-cap:]), rtol=0, atol=1e-15)


# -- memory attention block ---------------------------------------------------------


def test_eval_forward_deterministic_and_frozen():
    rng = np.random.default_rng(8)
    block = MemoryAttention(embed_dim=4, heads=2, capacity=3, rng=rng)
    block.memory = rng.standard_normal((3, 4))
    before = block.memory.copy()
    z = ad.constant(rng.standard_normal((2, 5, 4)))
    a, _ = block.forward(z, train=False)
    b, _ = block.forward(z, train=False)
    np.testing.assert_array_equal(a.data, b.data)
    np.testing.assert_array_equal(block.memory, before)


def test_train_forward_two_pass_hand_oracle():
    rng = np.random.default_rng(9)
    block = MemoryAttention(embed_dim=2, heads=1, capacity=2, rng=rng, dropout_rate=0.0)
    w_q = np.array([[0.8, -0.2], [0.3, 1.1]])
    w_k = np.array([[0.5, 0.4], [-0.7, 0.9]])
    w_v = np.array([[1.2, 0.1], [0.0, -0.5]])
    block.w_q.data[:] = w_q
    block.w_k.data[:] = w_k
    block.w_v.data[:] = w_v
    m0 = np.array([[0.4, -0.6], [1.0, 0.3]])
    block.memory = m0.copy()
    z = np.array([[[0.2, -1.0], [0.9, 0.5]]])

    # replay the block step by step in plain numpy
    q = z @ w_q
    a1 = _softmax(q @ (m0 @ w_k).T / np.sqrt(2.0)) @ (m0 @ w_v)
    m_new = a1.mean(axis=(0, 1))
    m1 = np.stack([m0[1], m_new])
    a2 = _softmax(q @ (m1 @ w_k).T / np.sqrt(2.0)) @ (m1 @ w_v)
    want = _layer_norm(q + a2)

    out, _ = block.forward(ad.constant(z), train=True)
    np.testing.assert_allclose(out.data, want, rtol=0, atol=1e-12)
    np.testing.assert_allclose(block.memory, m1, rtol=0, atol=1e-12)


def test_train_capacity_one_second_pass_uses_fresh_entry():
    rng = np.random.default_rng(10)
    block = MemoryAttention(embed_dim=4, heads=1, capacity=1, rng=rng, dropout_rate=0.0)
    block.memory = rng.standard_normal((1, 4))
    z = ad.constant(rng.standard_normal((1, 3, 4)))
    out, _ = block.forward(z, train=True)
    # with a single entry the second attention output is exactly m_new @ W_V
    q = z.data @ block.w_q.data
    fresh = block.memory[0] @ block.w_v.data
    want = _layer_norm(q + fresh)
    np.testing.assert_allclose(out.data, want, rtol=0, atol=1e-12)


def test_zero_memory_first_pass_weights_uniform():
    rng = np.random.default_rng(11)
    block = MemoryAttention(embed_dim=4, heads=2, capacity=5, rng=rng, dropout_rate=0.0)
    z = ad.constant(rng.standard_normal((2, 3, 4)))
    _, w = block.forward(z, train=False)
    np.testing.assert_allclose(w.data, 0.2, rtol=0, atol=1e-12)


def test_no_gradient_reaches_buffer_but_projections_train():
    rng = np.random.default_rng(12)
    block = MemoryAttention(embed_dim=4, heads=2, capacity=3, rng=rng, dropout_rate=0.0)
    block.memory = rng.standard_normal((3, 4))
    z = ad.constant(rng.standard_normal((2, 5, 4)))
    ad.tensor_sum(block.forward(z, train=True)[0]).backward()
    # the bank lives outside the graph entirely
    assert isinstance(block.memory, np.ndarray)
    assert not isinstance(block.memory, ad.Tensor)
    for name, p in block.parameters("blk").items():
        assert p.grad is not None, name
        assert np.abs(p.grad).max() > 0, name


def test_memory_block_gradients_match_finite_difference():
    rng = np.random.default_rng(13)
    block = MemoryAttention(embed_dim=4, heads=2, capacity=3, rng=rng, dropout_rate=0.0)
    block.memory = rng.standard_normal((3, 4))
    z = ad.constant(rng.standard_normal((1, 3, 4)))
    v = rng.standard_normal((1, 3, 4))

    def loss():
        return ad.tensor_sum(ad.mul(block.forward(z, train=False)[0], ad.constant(v)))

    loss().backward()
    for name, p in block.parameters("blk").items():
        want = ad.finite_diff_grad(lambda _x: loss(), p).data
        np.testing.assert_allclose(p.grad, want, rtol=1e-4, atol=1e-7, err_msg=name)


def test_train_dropout_consumes_rng():
    rng = np.random.default_rng(14)
    block = MemoryAttention(embed_dim=4, heads=2, capacity=3, rng=rng, dropout_rate=0.5)
    block.memory = rng.standard_normal((3, 4))
    z = ad.constant(rng.standard_normal((2, 5, 4)))
    a = block.forward(z, train=True, rng=np.random.default_rng(0))[0].data
    block.memory = block.memory  # state already advanced; compare variance only
    b = block.forward(z, train=True, rng=np.random.default_rng(99))[0].data
    assert not np.array_equal(a, b)


# -- standard attention baseline ---------------------------------------------------


def test_standard_single_token():
    rng = np.random.default_rng(15)
    block = StandardAttention(embed_dim=4, heads=2, rng=rng, dropout_rate=0.0)
    z = ad.constant(rng.standard_normal((2, 1, 4)))
    out, w = block.forward(z)
    np.testing.assert_array_equal(w.data, np.ones((2, 2, 1, 1)))
    q = z.data @ block.w_q.data
    v = z.data @ block.w_v.data
    np.testing.assert_allclose(out.data, _layer_norm(q + v), rtol=0, atol=1e-12)


def test_standard_identical_tokens_uniform_weights():
    rng = np.random.default_rng(16)
    block = StandardAttention(embed_dim=6, heads=3, rng=rng, dropout_rate=0.0)
    z = ad.constant(np.broadcast_to(rng.standard_normal(6), (1, 5, 6)).copy())
    _, w = block.forward(z)
    np.testing.assert_allclose(w.data, 0.2, rtol=0, atol=1e-12)


def test_standard_three_token_hand_oracle():
    rng = np.random.default_rng(17)
    block = StandardAttention(embed_dim=2, heads=1, rng=rng, dropout_rate=0.0)
    w_q = np.array([[1.0, 0.2], [-0.4, 0.9]])
    w_k = np.array([[0.3, -0.8], [0.5, 0.6]])
    w_v = np.array([[0.7, 0.0], [-0.1, 1.3]])
    block.w_q.data[:] = w_q
    block.w_k.data[:] = w_k
    block.w_v.data[:] = w_v
    z = np.array([[[0.5, -0.2], [1.1, 0.8], [-0.9, 0.4]]])
    q, k, v = z @ w_q, z @ w_k, z @ w_v
    want = _layer_norm(q + _softmax(q @ k.transpose(0, 2, 1) / np.sqrt(2.0)) @ v)
    out, _ = block.forward(ad.constant(z))
    np.testing.assert_allclose(out.data, want, rtol=0, atol=1e-12)


def test_standard_has_no_memory_state():
    block = StandardAttention(embed_dim=4, heads=2, rng=np.random.default_rng(18))
    assert not hasattr(block, "memory")
