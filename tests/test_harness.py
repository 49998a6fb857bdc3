"""Training loop, evaluation, ablation drivers, config files, reports."""

import contextlib
import csv
import math
import re
import threading
import tracemalloc
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

from memformer import autodiff as ad
from memformer import harness
from memformer import model as model_module
from memformer.data import SplitManifest, stratified_split, synth_scene
from memformer.harness import (
    DEFAULT_MEMORY_SIZES,
    TrainConfig,
    ablate_attention,
    ablate_pe,
    config_fingerprint,
    evaluate,
    extract_samples,
    parse_config_file,
    sweep_memory,
    train,
    write_report_csv,
    write_report_text,
)
from memformer.model import MemFormer, ModelConfig


def tiny_model_config(**overrides):
    base = dict(
        window=4,
        patch=2,
        bands=6,
        embed=8,
        layers=1,
        heads=2,
        ffn=16,
        memory=2,
        classes=2,
        dropout=0.0,
        pe_mode="learnable",
        attention="memory",
        seed=0,
    )
    base.update(overrides)
    return ModelConfig(**base)


@pytest.fixture(scope="module")
def scene():
    cube, labels = synth_scene(12, 12, 6, 2, noise_sigma=0.02, seed=3)
    manifest = stratified_split(labels, (0.4, 0.15, 0.3), seed=5)
    return cube, labels, manifest


def test_train_config_validation():
    TrainConfig(epochs=1, batch_size=1, lr=0.0)  # lr = 0 is a legal no-op run
    TrainConfig(epochs=np.int64(1), batch_size=np.int32(16), seed=np.uint8(3))
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(lr=-1e-3)
    with pytest.raises(ValueError):
        TrainConfig(weight_decay=-1.0)


@pytest.mark.parametrize(
    "field, value",
    [
        ("lr", math.nan),
        ("lr", math.inf),
        ("weight_decay", math.nan),
        ("weight_decay", math.inf),
        ("lr", True),
        ("weight_decay", False),
        ("lr", "0.1"),
        ("weight_decay", None),
        ("seed", -1),
        ("batch_size", 2.5),
        ("batch_size", math.nan),
        ("batch_size", True),
        ("batch_size", "16"),
        ("epochs", 1.5),
        ("seed", 0.0),
    ],
)
def test_train_config_rejects_values_that_destroy_training(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be"):
        TrainConfig(**{field: value})


@pytest.mark.parametrize(
    "model_overrides, train_overrides",
    [
        ({"window": np.int64(14)}, {}),
        ({"dropout": np.float64(0.1)}, {}),
        ({"pe_mode": np.str_("sspe")}, {}),
        ({}, {"lr": np.float64(1e-3)}),
    ],
)
def test_numpy_spelled_configs_fingerprint_as_python_ones(model_overrides, train_overrides):
    model_cfg = ModelConfig(**model_overrides)
    train_cfg = TrainConfig(**train_overrides)
    assert config_fingerprint(model_cfg, train_cfg) == config_fingerprint(ModelConfig(), TrainConfig())
    for cfg, overrides in ((model_cfg, model_overrides), (train_cfg, train_overrides)):
        for name in overrides:
            assert type(getattr(cfg, name)) in (int, float, str)


def test_extract_samples_shapes_and_labels(scene):
    cube, _, manifest = scene
    x, y = extract_samples(cube, manifest.train, 4)
    assert x.shape == (len(manifest.train), 4, 4, 6)
    assert y.min() >= 0 and y.max() <= 1
    np.testing.assert_array_equal(y, manifest.train[:, 2] - 1)


def test_extract_samples_empty_split(scene):
    cube, _, _ = scene
    x, y = extract_samples(cube, np.zeros((0, 3), dtype=np.int64), 4)
    assert x.shape == (0, 4, 4, 6)
    assert y.shape == (0,)


def test_train_rejects_empty_train_split(scene):
    cube, labels, _ = scene
    manifest = stratified_split(labels, (0.0, 0.1, 0.5), seed=0)
    model = MemFormer(tiny_model_config())
    with pytest.raises(ValueError, match="train split is empty"):
        train(model, cube, manifest, TrainConfig(epochs=1))


def test_train_rejects_a_center_outside_the_scene_before_any_step(scene):
    cube, _, manifest = scene
    val = manifest.val.copy()
    val[-1, 0] = cube.height
    model = MemFormer(tiny_model_config())
    before = {name: p.data.copy() for name, p in model.parameters().items()}
    with pytest.raises(ValueError, match="outside"):
        train(model, cube, SplitManifest(manifest.train, val, manifest.test), TrainConfig(epochs=1))
    for name, p in model.parameters().items():
        np.testing.assert_array_equal(p.data, before[name], err_msg=name)


def test_train_loss_decreases_and_accuracy_rises(scene):
    cube, _, manifest = scene
    model = MemFormer(tiny_model_config())
    result = train(model, cube, manifest, TrainConfig(epochs=12, batch_size=16, lr=1e-2, seed=0))
    assert len(result.history) == 12
    assert result.history[-1].train_loss < result.history[0].train_loss
    assert result.history[-1].train_acc >= 0.8


def test_zero_lr_leaves_parameters_and_trace_flat(scene):
    cube, _, manifest = scene
    model = MemFormer(tiny_model_config())
    before = {name: p.data.copy() for name, p in model.parameters().items()}
    result = train(model, cube, manifest, TrainConfig(epochs=4, batch_size=16, lr=0.0, seed=0))
    for name, p in model.parameters().items():
        np.testing.assert_array_equal(p.data, before[name], err_msg=name)
    losses = [s.train_loss for s in result.history]
    assert losses == [losses[0]] * len(losses)


def test_fixed_seed_gives_bitwise_identical_trace(scene):
    cube, _, manifest = scene
    cfg = TrainConfig(epochs=3, batch_size=16, lr=1e-2, seed=11)
    histories = []
    for _ in range(2):
        model = MemFormer(tiny_model_config(dropout=0.1))
        histories.append(train(model, cube, manifest, cfg).history)
    for a, b in zip(*histories):
        assert a.train_loss == b.train_loss
        assert a.val_loss == b.val_loss
        assert a.train_acc == b.train_acc


def test_best_validation_epoch_parameters_are_restored(scene):
    cube, _, manifest = scene
    cfg_long = TrainConfig(epochs=8, batch_size=8, lr=0.15, seed=2)
    model_a = MemFormer(tiny_model_config(seed=4))
    result = train(model_a, cube, manifest, cfg_long)
    val_accs = [s.val_acc for s in result.history]
    last_best = len(val_accs) - int(np.argmax(val_accs[::-1]))
    assert result.best_epoch == last_best
    # rerunning for exactly best_epoch epochs must land on the same weights
    model_b = MemFormer(tiny_model_config(seed=4))
    train(model_b, cube, manifest, TrainConfig(epochs=last_best, batch_size=8, lr=0.15, seed=2))
    for name, p in model_a.parameters().items():
        np.testing.assert_array_equal(p.data, model_b.parameters()[name].data, err_msg=name)
    for name, bank in model_a.buffers().items():
        np.testing.assert_array_equal(bank, model_b.buffers()[name])


def test_empty_validation_split_keeps_final_epoch(scene):
    cube, labels, _ = scene
    manifest = stratified_split(labels, (0.4, 0.0, 0.3), seed=0)
    model = MemFormer(tiny_model_config())
    result = train(model, cube, manifest, TrainConfig(epochs=3, batch_size=16, lr=1e-2))
    assert result.best_epoch == 3
    assert math.isnan(result.best_val_acc)
    assert all(math.isnan(s.val_loss) and math.isnan(s.val_acc) for s in result.history)


def test_every_pass_over_a_split_cuts_one_batch_of_windows_at_a_time(scene, monkeypatch):
    cube, _, manifest = scene
    cut = []
    extract = harness.extract_samples

    def counting(cube, part, window):
        cut.append(len(part))
        return extract(cube, part, window)

    monkeypatch.setattr(harness, "extract_samples", counting)
    model = MemFormer(tiny_model_config())
    train(model, cube, manifest, TrainConfig(epochs=2, batch_size=8, seed=0))
    evaluate(model, cube, manifest.test, batch_size=8)
    assert max(cut) <= 8 < len(manifest.train)
    # per epoch: the train steps, then the train and val accuracy passes
    assert sum(cut) == 2 * (2 * len(manifest.train) + len(manifest.val)) + len(manifest.test)


def _traced_epoch_peak(dropout):
    """tracemalloc peak of one epoch at B=16 on the benchmark's scene, split and model."""
    cube, labels = synth_scene(32, 32, 16, 3, noise_sigma=0.05, blob_count=2, seed=0)
    manifest = stratified_split(labels, (0.20, 0.05, 0.50), seed=1)
    model = MemFormer(ModelConfig(classes=3, dropout=dropout, seed=1))
    tracemalloc.start()
    try:
        train(model, cube, manifest, TrainConfig(epochs=1, batch_size=16, seed=0))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_train_epoch_numpy_peak_stays_below_the_retained_graph_peak():
    # traced peaks without dropout: 65.2 MB while every node kept its
    # gradient and saved arrays until the next step's forward replaced the
    # graph, 42.9 MB once backward released them, 34.1 MB once the next step
    # refilled the last step's arrays instead of allocating beside them;
    # each limit is a midpoint
    peak = _traced_epoch_peak(0.0)
    assert peak < (65.2e6 + 42.9e6) / 2
    assert peak < (42.9e6 + 34.1e6) / 2
    # with dropout: 43.9 MB while each step offered the pool its whole
    # consumed graph, 40.2 MB now that the pool holds only what it handed out
    assert _traced_epoch_peak(0.1) < (43.9e6 + 40.2e6) / 2


def _pooled_ids():
    """Ids of the arrays in the calling thread's step pool, by trailing shape."""
    return {key: [id(a) for a in bucket] for key, bucket in ad._pool.get().items()}


def _fill_pool(value):
    for bucket in ad._pool.get().values():
        for a in bucket:
            a.fill(value)


def _pooled_arrays_holding(value):
    return sum(bool((a == value).all()) for bucket in ad._pool.get().values() for a in bucket)


def test_train_never_overwrites_an_array_held_outside_the_pool(scene, monkeypatch):
    # the test holds bare arrays, not tensors: a held logits tensor would
    # keep its whole graph, and with it every array, out of the pool
    cube, _, manifest = scene
    model = MemFormer(tiny_model_config(dropout=0.2))
    held = []
    offered = []
    took_pooled = []
    forward = model.forward

    def keep_logits(batch, train=False):
        out = forward(batch, train=train)
        if train:
            held.append((out.data, out.data.copy()))
        return out

    ffn = model_module._EncoderLayer.ffn

    def keep_one_ffn_output(layer, x):
        pooled = ad._pool.get()
        if pooled is not None and ad._recording.get():
            offered[:] = [a.ctypes.data for bucket in pooled.values() for a in bucket]
        out = ffn(layer, x)
        if pooled is not None and ad._recording.get():
            took_pooled.append(out.data.ctypes.data in offered)
            if len(took_pooled) == 3:
                held.append((out.data, out.data.copy()))
        return out

    model.forward = keep_logits
    monkeypatch.setattr(model_module._EncoderLayer, "ffn", keep_one_ffn_output)
    # 8 full batches of 7 and a ragged one per epoch
    assert len(manifest.train) % 7
    train(model, cube, manifest, TrainConfig(epochs=2, batch_size=7, seed=0))
    steps = 2 * -(-len(manifest.train) // 7)
    assert len(held) == steps + 1
    # a live array never received a later step's values...
    for array, copy in held:
        np.testing.assert_array_equal(array, copy)
    # ...while the FFN outputs did refill arrays an earlier step had used
    assert len(took_pooled) == steps and sum(took_pooled) > steps // 2


def test_the_step_pool_is_scoped_to_train(scene, monkeypatch):
    cube, _, manifest = scene
    pools = []
    cross_entropy = ad.cross_entropy

    def note_pool(logits, labels):
        pools.append(ad._pool.get())
        return cross_entropy(logits, labels)

    monkeypatch.setattr(ad, "cross_entropy", note_pool)
    model = MemFormer(tiny_model_config())
    assert ad._pool.get() is None
    train(model, cube, manifest, quick_train_config())
    assert pools and all(p is pools[0] for p in pools)
    assert ad._pool.get() is None and pools[0] == {}

    # a step that raises empties the pool on the way out
    def nan_on_third_step(logits, labels):
        loss = note_pool(logits, labels)
        if len(pools) == 3:
            loss.data = np.array(np.nan)
        return loss

    def note_pool_size(logits, labels):
        sizes.append(len(ad._pool.get()))
        return nan_on_third_step(logits, labels)

    pools.clear()
    sizes = []
    monkeypatch.setattr(ad, "cross_entropy", note_pool_size)
    with pytest.raises(ValueError, match="non-finite training loss"):
        train(MemFormer(tiny_model_config()), cube, manifest, quick_train_config())
    # the first step's forward filled the pool, and steps 2 and 3 found
    # their shapes there
    assert sizes[0] > 0 and sizes[1] == sizes[2] == sizes[0]
    assert len(pools) == 3 and pools[0] == {}
    assert ad._pool.get() is None


def test_read_only_forwards_neither_take_from_nor_add_to_the_step_pool(scene):
    cube, _, manifest = scene
    model = MemFormer(tiny_model_config(dropout=0.2))
    windows, labels = extract_samples(cube, manifest.train[:7], model.config.window)
    with ad._step_pool():
        loss = ad.cross_entropy(model.forward(windows, train=True), labels)
        loss.backward()
        del loss
        pooled = _pooled_ids()
        count = sum(map(len, pooled.values()))
        assert count > 10
        # a pooled array that a forward takes is overwritten, so a marker
        # value left in every pooled array shows each take
        _fill_pool(7.0)
        evaluate(model, cube, manifest.test, batch_size=7)
        model.predict(windows)
        model.predict_proba(windows)
        assert _pooled_ids() == pooled
        assert _pooled_arrays_holding(7.0) == count
        # a recording forward does take from it, and needs nothing new
        logits = model.forward(windows, train=True)
        assert _pooled_ids() == pooled
        assert _pooled_arrays_holding(7.0) < count
        del logits
    assert ad._pool.get() is None


def _pooled_arrays_sharing_memory_with(params):
    arrays = [a for bucket in ad._pool.get().values() for a in bucket]
    return len(arrays), {name for name, p in params.items() if any(np.may_share_memory(a, p.data) for a in arrays)}


def test_train_pools_no_parameter_array_and_the_same_array_count_every_step(monkeypatch):
    # the default model, dropout included, for 2 epochs of 4 steps; the pool
    # holds only arrays that node outputs asked for, never a parameter's
    cube, labels = synth_scene(16, 16, 16, 2, noise_sigma=0.05, seed=0)
    manifest = stratified_split(labels, (0.2, 0.05, 0.5), seed=1)
    model = MemFormer(ModelConfig())
    params = model.parameters()
    counts = []
    pooled_params = set()
    cross_entropy = ad.cross_entropy

    def inspect_pool(logits, labels):
        count, names = _pooled_arrays_sharing_memory_with(params)
        counts.append(count)
        pooled_params.update(names)
        return cross_entropy(logits, labels)

    monkeypatch.setattr(ad, "cross_entropy", inspect_pool)
    train(model, cube, manifest, TrainConfig(epochs=2, batch_size=16, seed=0))
    assert len(counts) == 2 * -(-len(manifest.train) // 16) > 2
    assert pooled_params == set()
    # the first step's forward fills the pool, and every later one,
    # the ragged last step of an epoch included, finds its arrays there
    assert counts[0] > 0 and counts == [counts[0]] * len(counts)


def test_two_threads_training_at_once_reproduce_their_single_thread_runs(scene, monkeypatch):
    cube, _, manifest = scene
    configs = [tiny_model_config(seed=1, dropout=0.2), tiny_model_config(seed=2, attention="standard")]

    def run(cfg):
        model = MemFormer(cfg)
        result = train(model, cube, manifest, TrainConfig(epochs=2, batch_size=7, seed=cfg.seed))
        params = {name: p.data.copy() for name, p in model.parameters().items()}
        return [asdict(e) for e in result.history], params

    def assert_same(a, b):
        assert a[0] == b[0]
        for name in a[1]:
            np.testing.assert_array_equal(a[1][name], b[1][name])

    reference = [run(cfg) for cfg in configs]
    pools = [set(), set()]
    both_inside = threading.Barrier(2, timeout=30)
    cross_entropy = ad.cross_entropy

    def note_pool(logits, labels):
        me = int(threading.current_thread().name)
        if not pools[me]:
            both_inside.wait()
        pools[me].add(id(ad._pool.get()))
        return cross_entropy(logits, labels)

    monkeypatch.setattr(ad, "cross_entropy", note_pool)
    results = [None, None]

    def worker(i):
        results[i] = run(configs[i])

    threads = [threading.Thread(target=worker, args=(i,), name=str(i)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for got, want in zip(results, reference):
        assert_same(got, want)
    # each thread ran inside one pool of its own, both alive at once
    assert len(pools[0]) == len(pools[1]) == 1 and pools[0] != pools[1]


@pytest.mark.parametrize("attention", ["memory", "standard"])
@pytest.mark.parametrize("pe_mode", ["none", "learnable", "sinusoidal1d", "sspe"])
def test_the_step_pool_changes_no_number(scene, monkeypatch, attention, pe_mode):
    cube, _, manifest = scene

    def run():
        traces = []
        for batch_size in (7, 16):
            model = MemFormer(tiny_model_config(attention=attention, pe_mode=pe_mode, dropout=0.2, layers=2))
            rng = np.random.default_rng(4)
            for name, bank in model.buffers().items():
                model.set_buffer(name, 0.5 * rng.standard_normal(bank.shape))
            result = train(model, cube, manifest, TrainConfig(epochs=2, batch_size=batch_size, seed=0))
            report = evaluate(model, cube, manifest.test, batch_size=batch_size)
            state = {name: p.data.copy() for name, p in model.parameters().items()}
            state.update(model.buffers())
            traces.append(([asdict(e) for e in result.history], state, report.confusion))
        return traces

    pooled = run()
    # the reference installs no pool, so every node allocates its output
    monkeypatch.setattr(ad, "_step_pool", contextlib.nullcontext)
    for (history, state, confusion), (ref_history, ref_state, ref_confusion) in zip(pooled, run()):
        assert history == ref_history
        assert state.keys() == ref_state.keys()
        for name in state:
            np.testing.assert_array_equal(state[name], ref_state[name])
        np.testing.assert_array_equal(confusion, ref_confusion)


def test_evaluate_rejects_empty_split(scene):
    cube, _, _ = scene
    model = MemFormer(tiny_model_config())
    with pytest.raises(ValueError, match="empty"):
        evaluate(model, cube, np.zeros((0, 3), dtype=np.int64))


@pytest.mark.parametrize("batch_size", [0, -1, 2.5, True, "64", None])
def test_evaluate_rejects_a_batch_size_that_is_not_a_positive_int(scene, batch_size):
    cube, _, manifest = scene
    model = MemFormer(tiny_model_config())
    with pytest.raises(ValueError, match="batch_size"):
        evaluate(model, cube, manifest.test, batch_size=batch_size)


@pytest.mark.parametrize("attention", ["memory", "standard"])
def test_eval_features_do_not_depend_on_batch_size(scene, monkeypatch, attention):
    # each window's encoder output is a function of that window alone: the
    # attention scores of one sample never meet another's, whatever the batch.
    # The classifier's (B, K) @ (K, C) product is BLAS's, whose kernel for a
    # given row depends on the batch's row count, so the logits agree to
    # rounding and the features feeding them bitwise.
    cube, _, manifest = scene
    model = MemFormer(tiny_model_config(attention=attention, embed=64, heads=8, memory=10))
    rng = np.random.default_rng(13)
    for name, bank in model.buffers().items():
        model.set_buffer(name, 0.5 * rng.standard_normal(bank.shape))
    calls = []
    affine = ad.affine

    def keep_classifier_calls(x, weight, bias):
        out = affine(x, weight, bias)
        if weight is model.classifier_w:
            calls.append((x.data, out.data))
        return out

    monkeypatch.setattr(ad, "affine", keep_classifier_calls)
    pooled, logits, reports = [], [], []
    for batch_size in (1, 7, 64, np.int64(7)):
        calls.clear()
        reports.append(evaluate(model, cube, manifest.test, batch_size=batch_size))
        pooled.append(np.concatenate([x for x, _ in calls]))
        logits.append(np.concatenate([out for _, out in calls]))
    assert len(manifest.test) > 7 and pooled[0].shape == (len(manifest.test), 64)
    for got, got_logits, report in zip(pooled[1:], logits[1:], reports[1:]):
        assert got.tobytes() == pooled[0].tobytes()
        np.testing.assert_allclose(got_logits, logits[0], rtol=0, atol=1e-13)
        np.testing.assert_array_equal(report.confusion, reports[0].confusion)


def test_evaluate_is_pure(scene):
    cube, _, manifest = scene
    model = MemFormer(tiny_model_config(dropout=0.3))
    # all-zero banks are a fixed point of the FIFO update, so seed them
    # non-zero or a bank write would go unseen
    rng = np.random.default_rng(11)
    for name, bank in model.buffers().items():
        model.set_buffer(name, 0.5 * rng.standard_normal(bank.shape))
    rng_before = model.dropout_rng.bit_generator.state
    banks_before = {name: bank.copy() for name, bank in model.buffers().items()}
    first = evaluate(model, cube, manifest.test)
    second = evaluate(model, cube, manifest.test)
    np.testing.assert_array_equal(first.confusion, second.confusion)
    assert first.oa == second.oa
    assert model.dropout_rng.bit_generator.state == rng_before
    for name, bank in model.buffers().items():
        np.testing.assert_array_equal(bank, banks_before[name])


@pytest.mark.parametrize("attention", ["memory", "standard"])
def test_read_only_forwards_record_no_graph(scene, keep_forwards, attention):
    cube, _, manifest = scene
    model = MemFormer(tiny_model_config(attention=attention, dropout=0.3))
    rng = np.random.default_rng(12)
    for name, bank in model.buffers().items():
        model.set_buffer(name, 0.5 * rng.standard_normal(bank.shape))
    calls = keep_forwards(model)
    train(model, cube, manifest, quick_train_config())
    train_steps = [out for _, is_train, out in calls if is_train]
    accuracy_passes = [out for _, is_train, out in calls if not is_train]
    assert train_steps and accuracy_passes
    # the taped steps still record; the per-epoch accuracy passes do not
    assert all(out.requires_grad for out in train_steps)
    assert all(not out.requires_grad and out._parents == () for out in accuracy_passes)

    calls.clear()
    evaluate(model, cube, manifest.test, batch_size=5)
    assert len(calls) == -(-len(manifest.test) // 5)
    for batch, is_train, out in calls:
        assert not is_train
        assert not out.requires_grad and out._parents == ()
        # the same values as an eval forward that records its graph
        reference = MemFormer.forward(model, batch, train=False)
        assert reference.requires_grad
        np.testing.assert_array_equal(out.data, reference.data)


def test_evaluate_report_fields(scene):
    cube, _, manifest = scene
    model = MemFormer(tiny_model_config())
    report = evaluate(model, cube, manifest.test)
    trainable, non_trainable = model.count_params()
    assert report.samples == len(manifest.test)
    assert report.trainable_params == trainable
    assert report.non_trainable_params == non_trainable
    assert report.confusion.sum() == len(manifest.test)
    assert 0.0 <= report.oa <= 1.0


def quick_train_config():
    return TrainConfig(epochs=1, batch_size=16, lr=1e-2, seed=0)


def test_ablate_attention_two_rows_shared_fingerprint(scene):
    cube, _, manifest = scene
    rows = ablate_attention(cube, manifest, tiny_model_config(), quick_train_config())
    assert [row["attention"] for row in rows] == ["memory", "standard"]
    assert len({row["fingerprint"] for row in rows}) == 1
    assert len({row["manifest_sha256"] for row in rows}) == 1
    # swapping attention preserves the trainable census; only banks differ
    assert rows[0]["trainable_params"] == rows[1]["trainable_params"]
    assert rows[0]["non_trainable_params"] > rows[1]["non_trainable_params"]


def test_ablate_pe_four_rows_and_census_delta(scene):
    cube, _, manifest = scene
    rows = ablate_pe(cube, manifest, tiny_model_config(), quick_train_config())
    assert [row["pe_mode"] for row in rows] == ["none", "learnable", "sinusoidal1d", "sspe"]
    assert len({row["fingerprint"] for row in rows}) == 1
    by_mode = {row["pe_mode"]: row for row in rows}
    tokens = tiny_model_config().tokens
    embed = tiny_model_config().embed
    delta = by_mode["learnable"]["trainable_params"] - by_mode["none"]["trainable_params"]
    assert delta == tokens * embed
    assert by_mode["sinusoidal1d"]["trainable_params"] == by_mode["none"]["trainable_params"]
    assert by_mode["sspe"]["trainable_params"] > by_mode["learnable"]["trainable_params"]


def test_sweep_memory_rows_and_validation(scene):
    cube, _, manifest = scene
    rows = sweep_memory(cube, manifest, tiny_model_config(), quick_train_config(), sizes=(1, np.int64(3)))
    # a row reports the size as its config stores it, a Python int
    assert [(row["memory_size"], type(row["memory_size"])) for row in rows] == [(1, int), (3, int)]
    assert rows[1]["non_trainable_params"] > rows[0]["non_trainable_params"]
    assert len({row["fingerprint"] for row in rows}) == 1
    with pytest.raises(ValueError):
        sweep_memory(cube, manifest, tiny_model_config(), quick_train_config(), sizes=())
    with pytest.raises(ValueError):
        sweep_memory(cube, manifest, tiny_model_config(), quick_train_config(), sizes=(0, 5))


@pytest.mark.parametrize("sizes", [[2.7], [5, 0]])
def test_sweep_memory_checks_every_size_before_the_first_trial(scene, monkeypatch, sizes):
    cube, _, manifest = scene
    trials = []
    monkeypatch.setattr(harness, "_run_trial", lambda *args: trials.append(args))
    with pytest.raises(ValueError, match="^memory must be"):
        sweep_memory(cube, manifest, tiny_model_config(), quick_train_config(), sizes=sizes)
    assert trials == []


def test_default_memory_sizes():
    assert DEFAULT_MEMORY_SIZES == (1, 5, 10, 15, 20, 25, 30)


def test_config_fingerprint_excludes_swept_field():
    a = tiny_model_config(attention="memory")
    b = tiny_model_config(attention="standard")
    t = quick_train_config()
    assert config_fingerprint(a, t, exclude=("attention",)) == config_fingerprint(
        b, t, exclude=("attention",)
    )
    assert config_fingerprint(a, t) != config_fingerprint(b, t)
    assert config_fingerprint(a, t) != config_fingerprint(a, TrainConfig(epochs=2))


def test_parse_config_file_round_trip(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# model\n"
        "window = 4\n"
        "patch = 2\n"
        "bands = 6\n"
        "embed = 8\n"
        "layers = 1\n"
        "heads = 2\n"
        "ffn = 16\n"
        "memory = 2\n"
        "classes = 2\n"
        "dropout = 0.0\n"
        "pe_mode = learnable\n"
        "attention = memory\n"
        "\n"
        "# training\n"
        "epochs = 3\n"
        "batch_size = 16\n"
        "lr = 0.01\n"
        "weight_decay = 0.0\n"
        "seed = 7  # shared by init and shuffle\n"
    )
    model_kwargs, train_kwargs = parse_config_file(path)
    model_cfg = ModelConfig(**model_kwargs)
    train_cfg = TrainConfig(**train_kwargs)
    assert model_cfg == tiny_model_config(seed=7)
    assert train_cfg == TrainConfig(epochs=3, batch_size=16, lr=0.01, weight_decay=0.0, seed=7)
    assert model_kwargs["seed"] == 7 and train_kwargs["seed"] == 7


def test_parse_config_file_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    # Adam's moment decays and eps are constants, not config keys
    for line in ("warmup = 5", "beta1 = 0.9", "beta2 = 0.999", "eps = 1e-8"):
        key = line.split()[0]
        path.write_text(f"window = 4\n{line}\n")
        with pytest.raises(ValueError, match=f"line 2: unknown config key '{key}'"):
            parse_config_file(path)


def test_parse_config_file_rejects_bad_syntax_and_type(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("window\n")
    with pytest.raises(ValueError, match="line 1: expected 'key = value'"):
        parse_config_file(path)
    path.write_text("epochs = soon\n")
    with pytest.raises(ValueError, match="epochs expects int"):
        parse_config_file(path)
    path.write_bytes(b"window = 4\nlr = \xff\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line 2: byte 16 is not valid UTF-8"):
        parse_config_file(path)
    path.write_text("lr = 0.1\nwindow = 4\nlr = 0.001\n")
    with pytest.raises(ValueError, match="line 3: 'lr' already set on line 1"):
        parse_config_file(path)


def test_parse_config_file_lines_end_only_at_line_feed(tmp_path):
    path = tmp_path / "bad.cfg"
    # every break str.splitlines knows but a line feed
    breaks = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029\r"
    path.write_text(f"window = 4\n# a comment{breaks}with breaks in it\nwarmup = 1\n", newline="")
    with pytest.raises(ValueError, match="line 3: unknown config key 'warmup'"):
        parse_config_file(path)
    path.write_text(f"window = 4\nlr = 0.1{breaks}warmup = 1\n", newline="")
    with pytest.raises(ValueError, match="line 2: lr expects float"):
        parse_config_file(path)


def test_parse_config_file_reads_crlf_as_lf(tmp_path):
    text = "# model\nwindow = 4\npe_mode = learnable  # table\n\nlr = 0.01\nseed = 7\n"
    lf, crlf = tmp_path / "lf.cfg", tmp_path / "crlf.cfg"
    lf.write_text(text, newline="")
    crlf.write_text(text.replace("\n", "\r\n"), newline="")
    assert parse_config_file(crlf) == parse_config_file(lf) == (
        {"window": 4, "pe_mode": "learnable", "seed": 7},
        {"lr": 0.01, "seed": 7},
    )


def test_readme_config_table_lists_exactly_the_config_fields():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Config files", 1)[1].split("\n#", 1)[0]
    keys = set()
    for row in section.splitlines():
        cells = row.split("|")[1:-1]
        # two key/default column pairs per row, split by an empty column
        for cell in cells[0::3]:
            match = re.fullmatch(r"\s*`(\w+)`\s*", cell)
            if match:
                keys.add(match.group(1))
    assert keys == {f.name for f in fields(ModelConfig)} | {f.name for f in fields(TrainConfig)}


def test_write_report_csv_and_text(tmp_path):
    rows = [
        {"memory_size": 1, "oa": 0.5, "fingerprint": "abc"},
        {"memory_size": 5, "oa": 0.75, "fingerprint": "abc"},
    ]
    csv_path = tmp_path / "report.csv"
    write_report_csv(rows, csv_path)
    with open(csv_path, newline="") as fh:
        parsed = list(csv.DictReader(fh))
    assert len(parsed) == 2
    assert parsed[0]["memory_size"] == "1"
    assert float(parsed[1]["oa"]) == 0.75

    txt_path = tmp_path / "report.txt"
    write_report_text(rows, txt_path, "sweep", notes=("informational only",))
    text = txt_path.read_text()
    assert text.startswith("sweep\n")
    assert "memory_size" in text and "informational only" in text
    with pytest.raises(ValueError):
        write_report_csv([], csv_path)


def test_write_epoch_log_round_trips_floats(tmp_path):
    from memformer.harness import EpochStats

    history = [EpochStats(1, 1.0 / 3.0, 0.5, float("nan"), float("nan"))]
    path = tmp_path / "log.csv"
    write_report_csv([asdict(s) for s in history], path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["epoch", "train_loss", "train_acc", "val_loss", "val_acc"]
    assert float(rows[1][1]) == 1.0 / 3.0
    assert math.isnan(float(rows[1][3]))
