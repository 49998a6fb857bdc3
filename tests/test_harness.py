"""Training loop, evaluation, ablation drivers, config files, reports."""

import csv
import math
import multiprocessing
import os
import pickle
import re
import resource
import signal
import sys
import threading
import time
import traceback
import tracemalloc
import weakref
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
from memformer.optim import Adam


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


def _traced_epoch_peak(dropout, attention="memory"):
    """tracemalloc peak of one epoch at B=16 on the benchmark's scene, split and model."""
    cube, labels = synth_scene(32, 32, 16, 3, noise_sigma=0.05, blob_count=2, seed=0)
    manifest = stratified_split(labels, (0.20, 0.05, 0.50), seed=1)
    model = MemFormer(ModelConfig(classes=3, dropout=dropout, attention=attention, seed=1))
    tracemalloc.start()
    try:
        train(model, cube, manifest, TrainConfig(epochs=1, batch_size=16, seed=0))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_train_epoch_numpy_peak_stays_below_the_retained_graph_peak():
    # traced peaks without dropout: 65.2 MB while every node kept its
    # gradient and saved arrays until the next step's forward replaced the
    # graph, 42.9 MB once backward released them, 34.1 MB (32.2 MB today)
    # once train dropped each step's graph before the next step's forward;
    # each limit is a midpoint
    peak = _traced_epoch_peak(0.0)
    assert peak < (65.2e6 + 42.9e6) / 2
    assert peak < (42.9e6 + 34.1e6) / 2
    # with dropout: 43.9 MB while a pool held each step's whole consumed
    # graph into the next step, 40.2 MB (38.7 MB today) once nothing did
    assert _traced_epoch_peak(0.1) < (43.9e6 + 40.2e6) / 2


def test_a_standard_attention_train_epoch_peak_stays_below_tasks_that_hold_their_inputs():
    # traced peaks with standard attention and no dropout: 48.0-48.1 MB
    # today (44.4 MB on one thread), 58.8 MB while each worker task held
    # its inputs until its result was read instead of until it ran; with
    # dropout, 52.8-54.3 MB (50.6 MB on one thread) and 62.6 MB. Each limit
    # is a midpoint. With _MAX_DEFERRED unbounded the peak read 47.9-49.3 MB,
    # so these bounds do not police that bound
    assert _traced_epoch_peak(0.0, "standard") < (58.8e6 + 48.1e6) / 2
    assert _traced_epoch_peak(0.1, "standard") < (62.6e6 + 54.3e6) / 2


@pytest.mark.parametrize("attention", ["memory", "standard"])
def test_no_array_a_train_step_produced_outlives_the_step(scene, monkeypatch, attention):
    # when a train forward starts, every earlier step's graph is gone: a
    # weakref to the base array of each step's logits and of its first FFN
    # output must be dead, the ragged last step of an epoch included
    cube, _, manifest = scene
    model = MemFormer(tiny_model_config(attention=attention, dropout=0.2, layers=2))
    refs = []
    alive = []  # per train forward after the first: earlier arrays still alive
    training = []
    forward = model.forward
    ffn = model_module._EncoderLayer.ffn

    def note(a):
        refs.append(weakref.ref(a if a.base is None else a.base))

    def note_logits(batch, train=False):
        if train and refs:
            alive.append(sum(r() is not None for r in refs))
        training[:] = [train]
        out = forward(batch, train=train)
        if train:
            note(out.data)
        return out

    def note_first_ffn_output(layer, x):
        out = ffn(layer, x)
        if training == [True]:
            note(out.data)
            training[:] = [False]
        return out

    model.forward = note_logits
    monkeypatch.setattr(model_module._EncoderLayer, "ffn", note_first_ffn_output)
    assert len(manifest.train) % 7
    train(model, cube, manifest, TrainConfig(epochs=2, batch_size=7, seed=0))
    steps = 2 * -(-len(manifest.train) // 7)
    assert len(refs) == 2 * steps
    assert alive == [0] * (steps - 1)


def _unwrap(holder):
    if isinstance(holder, list):
        return holder[0]
    if isinstance(holder, ad.Tensor):
        return holder.data
    return holder


@pytest.mark.parametrize(
    "hold",
    [lambda a: a, lambda a: [a], lambda a: a[1:], ad.constant],
    ids=["local", "list", "view", "tensor"],
)
def test_train_never_overwrites_an_array_a_caller_holds(scene, monkeypatch, hold):
    # the test holds bare arrays, or constants around them, never a tensor
    # of the graph: every step's logits and every recorded FFN output
    cube, _, manifest = scene
    model = MemFormer(tiny_model_config(dropout=0.2, layers=2))
    held = []
    forward = model.forward
    ffn = model_module._EncoderLayer.ffn

    def keep(a):
        holder = hold(a)
        held.append((holder, _unwrap(holder).copy()))

    def keep_logits(batch, train=False):
        out = forward(batch, train=train)
        if train:
            keep(out.data)
        return out

    def keep_ffn_output(layer, x):
        out = ffn(layer, x)
        if ad._recording.get():
            keep(out.data)
        return out

    model.forward = keep_logits
    monkeypatch.setattr(model_module._EncoderLayer, "ffn", keep_ffn_output)
    assert len(manifest.train) % 7
    train(model, cube, manifest, TrainConfig(epochs=2, batch_size=7, seed=0))
    steps = 2 * -(-len(manifest.train) // 7)
    assert len(held) == 3 * steps
    # no later step wrote into an array that was still held
    for holder, copy in held:
        np.testing.assert_array_equal(_unwrap(holder), copy)


def _dirty_the_freed_heap():
    # arrays of every power-of-two size up to 1 MB, filled with NaN and freed,
    # so an op that reads memory it did not write meets NaN
    garbage = [np.full(1 << k, np.nan) for k in range(17) for _ in range(8)]
    del garbage


@pytest.mark.parametrize("attention", ["memory", "standard"])
@pytest.mark.parametrize("pe_mode", ["none", "learnable", "sinusoidal1d", "sspe"])
def test_memory_freed_full_of_nan_changes_no_number(scene, attention, pe_mode):
    # every op allocates its output, several with np.empty; a run on a heap
    # whose free memory holds NaN equals a run on whatever was freed before
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

    reference = run()
    _dirty_the_freed_heap()
    for (history, state, confusion), (ref_history, ref_state, ref_confusion) in zip(run(), reference):
        assert all(math.isfinite(e["train_loss"]) for e in history)
        assert history == ref_history
        assert state.keys() == ref_state.keys()
        for name in state:
            np.testing.assert_array_equal(state[name], ref_state[name])
        np.testing.assert_array_equal(confusion, ref_confusion)


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
    inside = [False, False]
    both_inside = threading.Barrier(2, timeout=30)
    cross_entropy = ad.cross_entropy

    def meet_once(logits, labels):
        # each thread's first step waits for the other's, so both train at once
        me = int(threading.current_thread().name)
        if not inside[me]:
            both_inside.wait()
            inside[me] = True
        return cross_entropy(logits, labels)

    monkeypatch.setattr(ad, "cross_entropy", meet_once)
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
    assert inside == [True, True]


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


def _seeded_model(**overrides):
    model = MemFormer(tiny_model_config(**overrides))
    rng = np.random.default_rng(12)
    for name, bank in model.buffers().items():
        model.set_buffer(name, 0.5 * rng.standard_normal(bank.shape))
    return model


def _on_worker():
    return threading.current_thread().name.startswith("memformer-worker")


@pytest.mark.parametrize("attention", ["memory", "standard"])
@pytest.mark.parametrize("pe_mode", ["none", "learnable", "sinusoidal1d", "sspe"])
def test_a_read_only_forward_splits_its_encoder_rows_and_keeps_every_logit_bit(
    scene, monkeypatch, deadline, attention, pe_mode
):
    cube, _, manifest = scene
    model = _seeded_model(attention=attention, pe_mode=pe_mode, dropout=0.3, layers=2)
    rng_before = model.dropout_rng.bit_generator.state
    banks_before = {name: bank.copy() for name, bank in model.buffers().items()}
    encoded = []  # (on the calling thread, windows) per encoder call
    recording = set()  # the autodiff recording switch seen by each encoder call
    tail_started = threading.Event()
    tokenize = model_module.tokenize_batch

    def note_thread(windows, patch_side):
        encoded.append((not _on_worker(), len(windows)))
        # the worker runs its half in a copy of the caller's context, no_grad included
        recording.add(ad._recording.get())
        if _on_worker():
            tail_started.set()
        elif not ad._recording.get():
            # the calling thread's half waits, so the tail is the worker's to run
            assert tail_started.wait(30)
        return tokenize(windows, patch_side)

    monkeypatch.setattr(model_module, "tokenize_batch", note_thread)
    # rows [0, ceil(B/2)) on the calling thread, the rest on the worker,
    # each half in one pass
    passes = {
        2: [(True, 1), (False, 1)],
        3: [(True, 2), (False, 1)],
        7: [(True, 4), (False, 3)],
        40: [(True, 20), (False, 20)],
    }

    def run():
        for b, want in passes.items():
            windows, _ = extract_samples(cube, manifest.test[:b], model.config.window)
            encoded.clear()
            recording.clear()
            reference = model.forward(windows, train=False)
            assert reference.requires_grad and encoded == [(True, b)] and recording == {True}
            encoded.clear()
            recording.clear()
            tail_started.clear()
            with ad.no_grad():
                out = model.forward(windows)
            assert sorted(encoded, key=lambda e: (not e[0], -e[1])) == want and recording == {False}
            assert out.data.tobytes() == reference.data.tobytes()

    deadline(run)
    assert model.dropout_rng.bit_generator.state == rng_before
    for name, bank in model.buffers().items():
        np.testing.assert_array_equal(bank, banks_before[name])


@pytest.mark.parametrize("failing", ["caller", "worker"])
def test_an_error_in_either_half_reaches_the_caller_once_neither_half_runs(scene, monkeypatch, deadline, failing):
    cube, _, manifest = scene
    model = _seeded_model(layers=2)
    windows, _ = extract_samples(cube, manifest.test[:7], model.config.window)
    with ad.no_grad():
        reference = model.forward(windows)
    planted = ValueError("planted in one half")
    finished = []
    tail_started = threading.Event()
    tokenize = model_module.tokenize_batch

    def half():
        return "worker" if _on_worker() else "caller"

    def fail_or_lag(windows, patch_side):
        if half() == "worker":
            tail_started.set()
        else:
            # the calling thread's half waits, so the tail is the worker's to run
            assert tail_started.wait(30)
        if half() == failing:
            raise planted
        # the other half is still running when the error is raised
        time.sleep(0.2)
        return tokenize(windows, patch_side)

    last = model.layers[-1]
    last_forward = last.forward

    def note_finish(z, train, rng):
        out = last_forward(z, train, rng)
        finished.append(half())
        return out

    def forward():
        with ad.no_grad():
            model.forward(windows)

    monkeypatch.setattr(model_module, "tokenize_batch", fail_or_lag)
    monkeypatch.setattr(last, "forward", note_finish)
    with pytest.raises(ValueError) as info:
        deadline(forward)
    assert info.value is planted
    assert finished == [{"caller": "worker", "worker": "caller"}[failing]]
    # the worker serves the next forward as before
    monkeypatch.setattr(model_module, "tokenize_batch", tokenize)
    with ad.no_grad():
        assert model.forward(windows).data.tobytes() == reference.data.tobytes()


def test_a_read_only_forward_runs_the_half_a_busy_worker_has_not_started(scene, monkeypatch, deadline):
    # the worker is held by an earlier task, so the calling thread takes the
    # tail back and encodes both halves, each in one pass, with the same bits
    cube, _, manifest = scene
    model = _seeded_model(layers=2)
    windows, _ = extract_samples(cube, manifest.test[:7], model.config.window)
    reference = model.forward(windows, train=False)
    encoded = []  # (thread name, windows) per encoder call
    tokenize = model_module.tokenize_batch

    def note_thread(windows, patch_side):
        encoded.append((threading.current_thread().name, len(windows)))
        return tokenize(windows, patch_side)

    def forward():
        with ad.no_grad():
            return model.forward(windows)

    monkeypatch.setattr(model_module, "tokenize_batch", note_thread)
    held, release = threading.Event(), threading.Event()
    blocker = ad._Task(lambda: held.set() or release.wait(60))
    try:
        assert held.wait(30)
        out = deadline(forward)
    finally:
        release.set()
    assert blocker.result() is True
    assert encoded == [("deadline", 4), ("deadline", 3)]
    assert out.data.tobytes() == reference.data.tobytes()


def test_read_only_forwards_from_more_threads_than_cores_keep_every_logit_bit(scene):
    # eight callers share the one worker, switching threads as often as the
    # interpreter allows; each must get its own batch's halves back
    cube, _, manifest = scene
    model = _seeded_model(layers=2)
    batches = [extract_samples(cube, manifest.test[i : 2 * i + 5], model.config.window)[0] for i in range(4)]
    reference = [model.forward(windows, train=False).data.tobytes() for windows in batches]
    results = [[] for _ in range(8)]

    def call(i):
        with ad.no_grad():
            for _ in range(10):
                results[i].append(model.forward(batches[i % 4]).data.tobytes())

    threads = [threading.Thread(target=call, args=(i,)) for i in range(8)]
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
    assert results == [[reference[i % 4]] * 10 for i in range(8)]


def test_read_only_forwards_start_no_thread_per_call(scene, deadline):
    # train steps hand FFN rows and leaf gradients to the same worker that
    # encodes half of each read-only batch
    cube, _, manifest = scene
    model = _seeded_model()
    windows, labels = extract_samples(cube, manifest.test[:8], model.config.window)
    optimizer = Adam(model.parameters(), lr=1e-3, weight_decay=0.0)

    def run():
        before = threading.active_count()
        for _ in range(20):
            optimizer.zero_grad()
            ad.cross_entropy(model.forward(windows, train=True), labels).backward()
            optimizer.step()
        with ad.no_grad():
            for _ in range(20):
                model.forward(windows)
        return before, threading.active_count()

    before, after = deadline(run)
    # the one worker, if no earlier test started it
    assert after <= before + 1


# from Python 3.12 on, os.fork in a process that runs threads warns
_FORK_WITH_THREADS = (
    r"ignore:This process \(pid=\d+\) is multi-threaded, use of fork\(\) may lead to deadlocks"
    ":DeprecationWarning"
)


def _history_and_confusion(cube, manifest):
    """One train and one evaluate of a fresh model, pickled."""
    model = MemFormer(tiny_model_config(seed=6))
    result = train(model, cube, manifest, TrainConfig(epochs=2, batch_size=8, seed=1))
    report = evaluate(model, cube, manifest.test, batch_size=8)
    return pickle.dumps((result.history, report.confusion))


@pytest.mark.filterwarnings(_FORK_WITH_THREADS)
def test_a_forked_child_gets_a_fresh_worker_and_the_parents_results(scene, deadline):
    # the parent's worker thread is running when it forks; the child has
    # none of the parent's threads, so it needs a worker of its own
    cube, _, manifest = scene
    want = deadline(lambda: _history_and_confusion(cube, manifest))
    parent_worker = ad._WORKER
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        # the child reports through the pipe, and leaves without running
        # the parent's cleanups, whatever happens
        try:
            os.close(read)
            try:
                got = _history_and_confusion(cube, manifest)
                # the worker takes every earlier item off its queue first
                ad._WORKER.submit(lambda: None).result(timeout=30)
                threads = [(t.name, t.is_alive()) for t in ad._WORKER._threads]
                report = got, ad._WORKER is not parent_worker, threads, ad._WORKER._work_queue.empty()
            except BaseException:
                report = traceback.format_exc()
            with os.fdopen(write, "wb") as pipe:
                pickle.dump(report, pipe)
        finally:
            os._exit(0)
    os.close(write)
    pipe = os.fdopen(read, "rb")
    try:
        report = pickle.loads(deadline(pipe.read))
    finally:
        # a child still running is killed first, so that a read still
        # waiting on it returns and the pipe can close
        if os.waitpid(pid, os.WNOHANG) == (0, 0):
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        pipe.close()
    assert isinstance(report, tuple), report  # else the child's traceback
    got, fresh, threads, drained = report
    assert got == want
    assert fresh
    assert len(threads) == 1 and threads[0][0].startswith("memformer-worker") and threads[0][1]
    assert drained


def _confusion(model, cube, part):
    return evaluate(model, cube, part, batch_size=8).confusion


@pytest.mark.filterwarnings(_FORK_WITH_THREADS)
def test_a_fork_pool_evaluates_once_the_parent_has(scene, deadline):
    cube, _, manifest = scene
    model = _seeded_model(layers=2)
    # the parent's worker encodes half of each batch, so it runs at the fork
    want = _confusion(model, cube, manifest.test)
    with multiprocessing.get_context("fork").Pool(2) as pool:
        got = deadline(lambda: pool.starmap(_confusion, [(model, cube, manifest.test)] * 2))
    for confusion in got:
        np.testing.assert_array_equal(confusion, want)


def test_warm_read_only_forwards_fault_in_no_pages():
    # in a malloc arena of its own the worker handed each pass's pages back
    # to the kernel and faulted them in again: about 2.2k minor faults per
    # B=64 forward of the default model, where one thread takes none
    model = MemFormer(ModelConfig())
    windows = np.random.default_rng(0).standard_normal((64, 14, 14, 16))
    with ad.no_grad():
        for _ in range(3):
            model.forward(windows)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(5):
            model.forward(windows)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 500


@pytest.mark.parametrize("attention", ["memory", "standard"])
def test_a_warm_train_and_evaluate_fault_in_few_pages(attention):
    # with glibc's trim threshold following the largest block freed, the
    # read-only passes kept it low and each later train gave the heap's top
    # back and faulted it in again: 7-12k minor faults per run, 3-5k at one
    # thread. Every autodiff op allocates its output through malloc, so the
    # malloc settings alone keep a warm step in pages already faulted in
    cube, labels = synth_scene(16, 16, 16, 2, noise_sigma=0.02, seed=3)
    manifest = stratified_split(labels, (0.4, 0.15, 0.3), seed=5)

    def run():
        model = MemFormer(ModelConfig(dropout=0.0, attention=attention))
        train(model, cube, manifest, TrainConfig(epochs=1, batch_size=16))
        evaluate(model, cube, manifest.test)

    run()
    run()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    run()
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 1000


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
    cfg = tiny_model_config()
    tokens, embed = (cfg.window // cfg.patch) ** 2, cfg.embed
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
