"""Full-model assembly: forward contract, census, checkpoints, gradients."""

import math
import re
import struct
import weakref
from pathlib import Path

import numpy as np
import pytest

from memformer import autodiff as ad
from memformer.embedding import PE_MODES, tokenize_batch
from memformer.model import (
    CheckpointError,
    MemFormer,
    ModelConfig,
    load_checkpoint,
    save_checkpoint,
)
from oracles import finite_diff_grad, serial_backward


def _tiny_config(**overrides):
    base = dict(
        window=4,
        patch=2,
        bands=3,
        embed=8,
        layers=1,
        heads=2,
        ffn=16,
        memory=2,
        classes=2,
        dropout=0.0,
        pe_mode="sspe",
        attention="memory",
        seed=0,
    )
    base.update(overrides)
    return ModelConfig(**base)


def _batch(cfg, b, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((b, cfg.window, cfg.window, cfg.bands))


def _seed_memory(model, seed=100):
    rng = np.random.default_rng(seed)
    for name, buf in model.buffers().items():
        model.set_buffer(name, rng.standard_normal(buf.shape))


# -- config validation ----------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError, match="heads"):
        _tiny_config(heads=3)
    with pytest.raises(ValueError, match="patch"):
        _tiny_config(patch=3)
    for dropout in (1.0, "0.1", None, False):
        with pytest.raises(ValueError, match="^dropout must be"):
            _tiny_config(dropout=dropout)
    with pytest.raises(ValueError, match="pe_mode"):
        _tiny_config(pe_mode="bogus")
    with pytest.raises(ValueError, match="attention"):
        _tiny_config(attention="flash")
    with pytest.raises(ValueError, match="layers"):
        _tiny_config(layers=-1)
    assert _tiny_config(layers=0).layers == 0
    cfg = _tiny_config()
    assert (cfg.window // cfg.patch) ** 2 == 4
    assert _tiny_config(window=np.int64(4), layers=np.int32(2)).layers == 2


@pytest.mark.parametrize(
    "field, value",
    [("window", 4.0), ("layers", True), ("heads", "2"), ("memory", math.nan), ("seed", 1.5), ("classes", None)],
)
def test_config_rejects_a_size_that_is_not_an_int(field, value):
    # a float window used to build and train, then fail in save_checkpoint
    with pytest.raises(ValueError, match=f"^{field} must be an int"):
        _tiny_config(**{field: value})


def test_config_ints_fit_their_checkpoint_fields(tmp_path):
    # the nine sizes are u32 in the MFCK config block, the seed i64
    assert _tiny_config(seed=2**63 - 1, ffn=2**32 - 1).ffn == 2**32 - 1
    for field, value in (("seed", 2**63), ("ffn", 2**32), ("layers", 2**32)):
        with pytest.raises(ValueError, match=f"^{field} must be an int in"):
            _tiny_config(**{field: value})
    cfg = _tiny_config(seed=2**63 - 1)
    save_checkpoint(MemFormer(cfg), tmp_path / "m.ckpt")
    assert load_checkpoint(tmp_path / "m.ckpt").config == cfg


# -- forward ------------------------------------------------------------------


def test_forward_shape_and_eval_purity():
    cfg = _tiny_config()
    model = MemFormer(cfg)
    _seed_memory(model)
    batch = _batch(cfg, 3)
    doubled = np.concatenate([batch, batch[:1]], axis=0)
    logits = model.forward(doubled).data
    assert logits.shape == (4, 2)
    # the duplicated sample gets an identical row at eval
    np.testing.assert_array_equal(logits[0], logits[3])


def test_forward_rejects_bad_batch():
    cfg = _tiny_config()
    model = MemFormer(cfg)
    with pytest.raises(ValueError, match="batch"):
        model.forward(np.zeros((2, 4, 4, 5)))
    with pytest.raises(ValueError, match="non-finite"):
        model.forward(np.full((1, 4, 4, 3), np.nan))


def test_forward_zero_layers_matches_hand_computation():
    cfg = _tiny_config(layers=0, pe_mode="none")
    model = MemFormer(cfg)
    rng = np.random.default_rng(1)
    model.cls.data[:] = rng.standard_normal(cfg.embed)
    batch = _batch(cfg, 3)
    logits = model.forward(batch).data

    # replay the layer-free path in plain numpy: project sub-patches, prepend
    # the CLS row, pool, classify
    kernel = model.projector.kernel.data.reshape(cfg.embed, -1)
    for i in range(3):
        win = batch[i]
        rows = [model.cls.data]
        for gx in range(2):
            for gy in range(2):
                patch = win[2 * gx : 2 * gx + 2, 2 * gy : 2 * gy + 2].reshape(-1)
                rows.append(np.maximum(kernel @ patch + model.projector.bias.data, 0.0))
        pooled = np.stack(rows).mean(axis=0)
        want = pooled @ model.classifier_w.data + model.classifier_b.data
        np.testing.assert_allclose(logits[i], want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("pe_mode", PE_MODES)
def test_layer0_input_is_cls_then_tokens_plus_positional_rows(pe_mode):
    cfg = _tiny_config(pe_mode=pe_mode)
    model = MemFormer(cfg)
    model.cls.data[:] = np.random.default_rng(1).standard_normal(cfg.embed)
    batch = _batch(cfg, 2)
    layer = model.layers[0]
    original = layer.forward
    seen = []

    def spy(z, train, rng):
        seen.append(z.data.copy())
        return original(z, train, rng)

    layer.forward = spy
    model.forward(batch)
    (z,) = seen
    assert z.shape == (2, (cfg.window // cfg.patch) ** 2 + 1, cfg.embed)
    tokens = tokenize_batch(batch, cfg.patch)
    rows = model.projector.forward(tokens).data + model.positional.forward(tokens).data
    for sample in z:
        # the CLS row carries no positional row
        assert sample[0].tobytes() == model.cls.data.tobytes()
    assert z[:, 1:].tobytes() == rows.tobytes()


def test_forward_diagnostic_names_layer():
    cfg = _tiny_config(layers=2)
    model = MemFormer(cfg)
    _seed_memory(model)
    model.layers[1].attn.w_q.data[0, 0] = np.inf
    with pytest.raises(ValueError, match="layer 1"):
        model.forward(_batch(cfg, 2))


def test_ffn_examples():
    cfg = _tiny_config()
    layer = MemFormer(cfg).layers[0]
    x = np.abs(np.random.default_rng(2).standard_normal((3, 8)))
    layer.ffn_w1.data[:] = 0.0
    layer.ffn_w2.data[:] = 0.0
    layer.ffn_b2.data[:] = 1.5
    np.testing.assert_array_equal(layer.ffn(ad.constant(x)).data, np.full((3, 8), 1.5))

    cfg_sq = _tiny_config(ffn=8)
    layer = MemFormer(cfg_sq).layers[0]
    layer.ffn_w1.data[:] = np.eye(8)
    layer.ffn_b1.data[:] = 0.0
    layer.ffn_w2.data[:] = np.eye(8)
    layer.ffn_b2.data[:] = 0.0
    np.testing.assert_array_equal(layer.ffn(ad.constant(x)).data, x)

    rng = np.random.default_rng(3)
    layer = MemFormer(_tiny_config(seed=5)).layers[0]
    v = rng.standard_normal((4, 8))
    want = np.maximum(v @ layer.ffn_w1.data + layer.ffn_b1.data, 0.0) @ layer.ffn_w2.data + layer.ffn_b2.data
    np.testing.assert_allclose(layer.ffn(ad.constant(v)).data, want, rtol=0, atol=1e-12)


def test_an_empty_batch_raises_that_it_holds_no_windows():
    # numpy's reshape used to fail first, with a message naming no batch
    cfg = _tiny_config()
    model = MemFormer(cfg)
    empty = _batch(cfg, 0)
    with pytest.raises(ValueError, match="^the batch holds no windows$"):
        tokenize_batch(empty, cfg.patch)
    for train in (False, True):
        with pytest.raises(ValueError, match="^the batch holds no windows$"):
            model.forward(empty, train=train)
    with ad.no_grad(), pytest.raises(ValueError, match="^the batch holds no windows$"):
        model.forward(empty)


# -- predictions ----------------------------------------------------------------


def test_predict_argmax_and_ties():
    cfg = _tiny_config()
    model = MemFormer(cfg)
    logits = np.array([[0.1, 0.9, 0.0], [0.5, 0.5, 0.1]])
    assert np.argmax(logits[0]) == 1
    # tie goes to the lower class index
    assert np.argmax(logits[1]) == 0
    with ad.no_grad():
        out = model.forward(_batch(cfg, 4))
        probs = ad.softmax_rows(out).data
    np.testing.assert_array_equal(np.argmax(out.data, axis=1), np.argmax(probs, axis=1))
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)


@pytest.mark.parametrize("attention", ["memory", "standard"])
def test_predict_records_no_graph_and_matches_a_recording_forward(keep_forwards, attention):
    cfg = _tiny_config(attention=attention, dropout=0.3)
    model = MemFormer(cfg)
    _seed_memory(model)
    batch = _batch(cfg, 5)
    reference = model.forward(batch, train=False)
    assert reference.requires_grad
    calls = keep_forwards(model)
    with ad.no_grad():
        labels = np.argmax(model.forward(batch).data, axis=1)
        probs = ad.softmax_rows(model.forward(batch)).data
    assert len(calls) == 2
    for _, is_train, out in calls:
        assert not is_train
        assert not out.requires_grad and out._parents == ()
        np.testing.assert_array_equal(out.data, reference.data)
    np.testing.assert_array_equal(labels, np.argmax(reference.data, axis=1))
    e = np.exp(reference.data - reference.data.max(axis=1, keepdims=True))
    np.testing.assert_array_equal(probs, e / e.sum(axis=1, keepdims=True))


def test_classifier_bias_shift_keeps_predictions():
    cfg = _tiny_config()
    model = MemFormer(cfg)
    _seed_memory(model)
    batch = _batch(cfg, 3)
    before = model.forward(batch).data
    model.classifier_b.data += 7.5
    after = model.forward(batch).data
    np.testing.assert_allclose(after - before, 7.5, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(np.argmax(after, axis=1), np.argmax(before, axis=1))


# -- parameter census ----------------------------------------------------------


def _census_closed_form(cfg):
    k, d, c = cfg.embed, cfg.ffn, cfg.classes
    n = (cfg.window // cfg.patch) ** 2
    total = k  # CLS
    total += k * cfg.patch * cfg.patch * cfg.bands + k  # projector
    if cfg.pe_mode == "learnable":
        total += n * k
    elif cfg.pe_mode == "sspe":
        k_s = 4 * ((k + 3) // 4)
        k_sig = 2 * ((k + 1) // 2)
        total += k_s * k + k_sig * k + (2 * k * k + k) + (k * k + k)
    per_layer = 3 * k * k + 2 * k  # attention projections + its norm
    per_layer += k * d + d + d * k + k  # FFN
    per_layer += 2 * k  # second norm
    total += cfg.layers * per_layer
    total += k * c + c  # classifier
    return total


def test_census_matches_closed_form():
    for pe in ("none", "learnable", "sinusoidal1d", "sspe"):
        for attention in ("memory", "standard"):
            cfg = _tiny_config(pe_mode=pe, attention=attention, layers=2)
            model = MemFormer(cfg)
            trainable, non_trainable = model.count_params()
            assert trainable == _census_closed_form(cfg), (pe, attention)
            want_banks = cfg.layers * cfg.memory * cfg.embed if attention == "memory" else 0
            assert non_trainable == want_banks


def test_census_default_config():
    cfg = ModelConfig(bands=16)
    model = MemFormer(cfg)
    trainable, non_trainable = model.count_params()
    assert trainable == _census_closed_form(cfg)
    assert non_trainable == 4 * 10 * 64


def test_attention_swap_changes_only_bank_census():
    mem = MemFormer(_tiny_config(attention="memory"))
    std = MemFormer(_tiny_config(attention="standard"))
    assert mem.count_params()[0] == std.count_params()[0]
    assert mem.count_params()[1] - std.count_params()[1] == 1 * 2 * 8


# -- gradients -------------------------------------------------------------------


def test_gradients_flow_to_every_parameter():
    cfg = _tiny_config()
    model = MemFormer(cfg)
    _seed_memory(model)
    batch = _batch(cfg, 2)
    labels = np.array([0, 1])
    loss = ad.cross_entropy(model.forward(batch), labels)
    loss.backward()
    for name, p in model.parameters().items():
        assert p.grad is not None, name
        assert np.abs(p.grad).max() > 0, name


def test_spot_gradients_match_finite_difference():
    cfg = _tiny_config()
    model = MemFormer(cfg)
    _seed_memory(model)
    batch = _batch(cfg, 2)
    labels = np.array([0, 1])

    def loss():
        return ad.cross_entropy(model.forward(batch), labels)

    loss().backward()
    params = model.parameters()
    for name in ("cls", "layer0.attn.w_k", "layer0.ffn_w2", "classifier.weight"):
        p = params[name]
        want = finite_diff_grad(lambda _x: loss(), p).data
        np.testing.assert_allclose(p.grad, want, rtol=1e-4, atol=1e-7, err_msg=name)


def _recorded_ops(loss):
    """op label -> number of recorded nodes the loss backpropagates through."""
    counts = {}
    for node in ad._topo_order(loss):
        counts[node._op] = counts.get(node._op, 0) + 1
    return counts


@pytest.mark.parametrize("attention", ["memory", "standard"])
def test_train_step_records_one_node_per_fused_sublayer(attention):
    steps = []
    for layers in (1, 2):
        cfg = ModelConfig(layers=layers, classes=2, attention=attention)
        model = MemFormer(cfg)
        loss = ad.cross_entropy(model.forward(_batch(cfg, 2), train=True), np.array([0, 1]))
        steps.append(_recorded_ops(loss))
    one, two = steps
    # outside the layers: one affine each in the patch projector and the
    # classifier, one MLP in the SSPE fuse, and the token + positional add
    # and the projector ReLU as the only primitive add and relu nodes
    assert (one["affine"], one["mlp"], one["add"], one["relu"]) == (2, 2, 1, 1)
    # each layer: one MLP (the FFN), two residual norms (attention and FFN),
    # and none of the primitives they fuse
    want = {"mlp": 1, "residual_norm": 2, "affine": 0, "add": 0, "relu": 0, "layer_norm": 0}
    assert {op: two.get(op, 0) - one.get(op, 0) for op in want} == want
    assert one["residual_norm"] == 2 and "layer_norm" not in one


def _default_train_step_loss():
    cfg = ModelConfig(classes=2)
    model = MemFormer(cfg)
    batch = _batch(cfg, 4)
    return model, ad.cross_entropy(model.forward(batch, train=True), np.array([0, 1, 1, 0]))


def test_backward_releases_interior_nodes_and_keeps_leaf_gradients():
    oracle_model, oracle_loss = _default_train_step_loss()
    serial_backward(oracle_loss)
    assert all(n.grad is not None for n in ad._topo_order(oracle_loss) if n._op == "mlp")

    model, loss = _default_train_step_loss()
    nodes = ad._topo_order(loss)
    interior = [(n, n.data, n._parents) for n in nodes if n._parents]
    leaves = [n for n in nodes if not n._parents]
    assert interior and leaves
    # the FFN's hidden layer: only the mlp node's grad_fn closure holds it
    ffn = model.layers[0].ffn_w1
    (mlp,) = [n for n, _, _ in interior if n._op == "mlp" and n._parents[1] is ffn]
    cells = dict(zip(mlp._grad_fn.__code__.co_freevars, mlp._grad_fn.__closure__))
    hidden = weakref.ref(cells.pop("h").cell_contents)
    del cells, mlp
    assert hidden() is not None

    loss.backward()
    assert hidden() is None
    for node, data, parents in interior:
        assert node.grad is None and node._grad_fn is None, node._op
        assert node.data is data and node._parents is parents, node._op
    want = oracle_model.parameters()
    got = model.parameters()
    assert want.keys() == got.keys()
    assert {id(p) for p in got.values()} == {id(n) for n in leaves}
    for name, p in got.items():
        assert p.grad.tobytes() == want[name].grad.tobytes(), name


@pytest.mark.parametrize("attention", ["memory", "standard"])
@pytest.mark.parametrize("pe_mode", PE_MODES)
def test_the_two_thread_backward_gives_the_leaf_gradients_of_a_serial_replay(
    deadline, monkeypatch, attention, pe_mode
):
    cfg = ModelConfig(classes=3, attention=attention, pe_mode=pe_mode)
    batch, labels = _batch(cfg, 16), np.arange(16) % 3

    def step():
        model = MemFormer(cfg)
        _seed_memory(model)  # so that the attention path carries signal
        return model, ad.cross_entropy(model.forward(batch, train=True), labels)

    offered, deferred = [], []  # the leaves whose gradient may go, and went, to the worker
    leaf_grad = ad._leaf_grad

    def note_deferred(t, compute):
        g = leaf_grad(t, compute)
        if not t._parents:
            offered.append(t)
        if isinstance(g, ad._Task):
            deferred.append(t)
        return g

    def two_threads():
        model, loss = step()
        monkeypatch.setattr(ad, "_leaf_grad", note_deferred)
        loss.backward()
        return model

    model = deadline(two_threads)
    monkeypatch.undo()
    # the oracle runs every row and every gradient on the calling thread
    monkeypatch.setattr(ad, "_split_rows", lambda fn, n: fn(slice(0, n)))
    oracle, oracle_loss = step()
    serial_backward(oracle_loss)
    want, got = oracle.parameters(), model.parameters()
    for name, p in got.items():
        assert p.grad.tobytes() == want[name].grad.tobytes(), name
    # every weight and bias of a matmul, affine or FFN node and every
    # LayerNorm gain and bias; the CLS row, the projector kernel and the
    # learnable table reach the loss through a reshape, a transpose or an add
    passed_through = {"cls", "projector.kernel", "pos.table"}
    assert {id(t) for t in offered} == {id(p) for name, p in got.items() if name not in passed_through}
    assert deferred


def test_train_forward_updates_each_layer_bank():
    cfg = _tiny_config(layers=2, memory=3)
    model = MemFormer(cfg)
    _seed_memory(model)  # all-zero banks are a fixed point of the update
    before = {name: buf.copy() for name, buf in model.buffers().items()}
    model.forward(_batch(cfg, 2), train=True)
    after = model.buffers()
    for name in before:
        assert not np.array_equal(before[name], after[name]), name
        np.testing.assert_array_equal(before[name][1:], after[name][:-1])


def test_set_buffer_accepts_only_bank_records():
    cfg = _tiny_config(layers=2)
    model = MemFormer(cfg)
    assert list(model.buffers()) == ["layer0.attn.memory", "layer1.attn.memory"]
    before = {name: buf.copy() for name, buf in model.buffers().items()}
    values = np.ones((cfg.memory, cfg.embed))
    for name in ("layer0.ffn_w1", "layer-1.attn.memory", "layer2.attn.memory", "layer0", "cls"):
        with pytest.raises(ValueError, match=re.escape(repr(name))):
            model.set_buffer(name, values)
    for name, buf in model.buffers().items():
        np.testing.assert_array_equal(buf, before[name], err_msg=name)
    model.set_buffer("layer1.attn.memory", values)
    np.testing.assert_array_equal(model.buffers()["layer1.attn.memory"], values)
    np.testing.assert_array_equal(model.buffers()["layer0.attn.memory"], before["layer0.attn.memory"])

    standard = MemFormer(_tiny_config(attention="standard"))
    with pytest.raises(ValueError, match="'layer0.attn.memory'"):
        standard.set_buffer("layer0.attn.memory", values)


# -- checkpoints ------------------------------------------------------------------


def test_checkpoint_round_trip_bitwise(tmp_path):
    cfg = _tiny_config(layers=2, pe_mode="sspe")
    model = MemFormer(cfg)
    _seed_memory(model)
    model.forward(_batch(cfg, 2), train=True)  # move banks off their initial state
    batch = _batch(cfg, 3, seed=9)
    logits = model.forward(batch).data

    path = tmp_path / "model.mfck"
    save_checkpoint(model, path)
    restored = load_checkpoint(path)
    assert restored.config == cfg
    for name, p in model.parameters().items():
        np.testing.assert_array_equal(restored.parameters()[name].data, p.data, err_msg=name)
    for name, b in model.buffers().items():
        np.testing.assert_array_equal(restored.buffers()[name], b, err_msg=name)
    np.testing.assert_array_equal(restored.forward(batch).data, logits)


def test_checkpoint_truncation_rejected(tmp_path):
    cfg = _tiny_config()
    model = MemFormer(cfg)
    path = tmp_path / "model.mfck"
    save_checkpoint(model, path)
    blob = path.read_bytes()
    for cut in (2, 5, 30, len(blob) - 7):
        (tmp_path / "cut.mfck").write_bytes(blob[:cut])
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "cut.mfck")


def test_checkpoint_bad_magic_and_version(tmp_path):
    cfg = _tiny_config()
    model = MemFormer(cfg)
    path = tmp_path / "model.mfck"
    save_checkpoint(model, path)
    blob = bytearray(path.read_bytes())
    bad = tmp_path / "bad.mfck"
    bad.write_bytes(b"XXXX" + bytes(blob[4:]))
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(bad)
    blob[4:6] = (99).to_bytes(2, "little")
    bad.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(bad)


def test_checkpoint_config_mismatch_names_field(tmp_path):
    model = MemFormer(_tiny_config(memory=2))
    path = tmp_path / "model.mfck"
    save_checkpoint(model, path)
    with pytest.raises(CheckpointError, match="memory"):
        load_checkpoint(path, expect=_tiny_config(memory=5))
    # matching expectation loads fine
    load_checkpoint(path, expect=_tiny_config(memory=2))


# byte offsets in a v1 file: magic, version, then the 54-byte config block;
# the first record is "cls": 2-byte name length, the name, rank, one extent, data
_HEADS_AT = 6 + 4 * 5
_SEED_AT = 6 + 4 * 9 + 8 + 2
_RECORDS_AT = 6 + 54
_CLS_NAME_AT = _RECORDS_AT + 2
_CLS_DATA_AT = _CLS_NAME_AT + 3 + 1 + 4


def _duplicate_record(blob):
    cls_record = blob[_RECORDS_AT : _CLS_DATA_AT + 8 * 8]
    return blob + cls_record


def _nan_record(blob):
    blob[_CLS_DATA_AT : _CLS_DATA_AT + 8 * 8] = np.full(8, np.nan).tobytes()
    return blob


def _non_utf8_name(blob):
    blob[_CLS_NAME_AT : _CLS_NAME_AT + 3] = b"\xff\xfe\xfd"
    return blob


def _wrapping_extents(blob):
    # 65536**4 wraps a 64-bit product to 0; the record carries no data
    return blob + struct.pack("<H", 4) + b"huge" + struct.pack("<B4I", 4, *(65536,) * 4)


def _rank_65(blob):
    return blob + struct.pack("<H", 4) + b"deep" + struct.pack("<B65I", 65, *(1,) * 65) + bytes(8)


def _too_big_extents(blob):
    # zero elements, so no data to read, but numpy cannot address the shape
    return blob + struct.pack("<H", 4) + b"huge" + struct.pack("<B4I", 4, 0, *(2**32 - 1,) * 3)


def _record_at(blob, name):
    """(start, end) of the named record, walking the records from the first."""
    at = _RECORDS_AT
    while at < len(blob):
        (name_len,) = struct.unpack_from("<H", blob, at)
        rank = blob[at + 2 + name_len]
        shape = struct.unpack_from(f"<{rank}I", blob, at + 3 + name_len)
        end = at + 3 + name_len + 4 * rank + 8 * int(np.prod(shape))
        if blob[at + 2 : at + 2 + name_len].decode() == name:
            return at, end
        at = end
    raise KeyError(name)


def _missing_record(blob):
    # cut at a record boundary: the bank, the last record, is gone
    start, end = _record_at(blob, "layer0.attn.memory")
    assert end == len(blob)
    return blob[:start]


def _unknown_record(blob):
    blob[_CLS_NAME_AT : _CLS_NAME_AT + 3] = b"clz"
    return blob


def _swapped_extents(blob):
    # (8, 16) stored as (16, 8): the data length still fits the extents
    start, _ = _record_at(blob, "layer0.ffn_w1")
    extents = start + 2 + len("layer0.ffn_w1") + 1
    assert struct.unpack_from("<2I", blob, extents) == (8, 16)
    struct.pack_into("<2I", blob, extents, 16, 8)
    return blob


def _negative_seed(blob):
    blob[_SEED_AT : _SEED_AT + 8] = struct.pack("<q", -1)
    return blob


def _zero_heads(blob):
    blob[_HEADS_AT : _HEADS_AT + 4] = struct.pack("<I", 0)
    return blob


@pytest.mark.parametrize(
    "craft, where",
    [
        (_duplicate_record, "byte"),
        (_nan_record, "byte"),
        (_non_utf8_name, "byte"),
        (_wrapping_extents, "byte"),
        (_rank_65, "'deep' at byte"),
        (_too_big_extents, "'huge' at byte"),
        (_negative_seed, "seed"),
        (_zero_heads, "heads"),
        (_missing_record, "missing ['layer0.attn.memory']"),
        (_unknown_record, "unknown ['clz']"),
        (_swapped_extents, "'layer0.ffn_w1' has shape (16, 8), expected (8, 16)"),
    ],
    ids=[
        "duplicate",
        "nan",
        "non_utf8_name",
        "wrapping_extents",
        "rank_65",
        "too_big_extents",
        "negative_seed",
        "zero_heads",
        "missing_record",
        "unknown_record",
        "swapped_extents",
    ],
)
def test_checkpoint_crafted_fault_rejected(tmp_path, craft, where):
    cfg = _tiny_config()
    path = tmp_path / "model.mfck"
    save_checkpoint(MemFormer(cfg), path)
    bad = tmp_path / "bad.mfck"
    bad.write_bytes(bytes(craft(bytearray(path.read_bytes()))))
    with pytest.raises(CheckpointError) as info:
        load_checkpoint(bad)
    assert str(bad) in str(info.value)
    assert where in str(info.value)


_FIXTURE = Path(__file__).parent / "data" / "mfck_v1_tiny.mfck"


def _fixture_model():
    cfg = ModelConfig(window=4, patch=2, bands=3, embed=8, layers=2, heads=2, ffn=8, memory=2, classes=2, seed=7)
    model = MemFormer(cfg)
    rng = np.random.default_rng(0)
    for name, bank in model.buffers().items():
        model.set_buffer(name, 0.1 * rng.standard_normal(bank.shape))
    return model


def test_checkpoint_v1_fixture_bytes_are_stable(tmp_path):
    """A committed MFCK v1 file re-saves, and its recipe rebuilds, to the same bytes."""
    want = _FIXTURE.read_bytes()
    resaved = tmp_path / "resaved.mfck"
    save_checkpoint(load_checkpoint(_FIXTURE), resaved)
    assert resaved.read_bytes() == want
    rebuilt = tmp_path / "rebuilt.mfck"
    save_checkpoint(_fixture_model(), rebuilt)
    assert rebuilt.read_bytes() == want


def test_checkpoint_standard_mode_has_no_bank_records(tmp_path):
    model = MemFormer(_tiny_config(attention="standard"))
    path = tmp_path / "model.mfck"
    save_checkpoint(model, path)
    restored = load_checkpoint(path)
    assert restored.buffers() == {}
