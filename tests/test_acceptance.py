"""Acceptance gate: one test per required property, each at its stated
tolerance, each printing a single pass/fail line (visible under -s; under
-v the test name itself is the line)."""

import csv
import time
from contextlib import contextmanager

import numpy as np
import pytest

from memformer import autodiff as ad
from memformer.attention import (
    MemoryAttention,
    attend,
    project_memory,
    update_memory,
)
from memformer.cli import main
from memformer.data import (
    FormatError,
    HSICube,
    LabelMap,
    load_cube,
    load_labels,
    save_cube,
    save_labels,
    stratified_split,
    synth_scene,
)
from memformer.harness import TrainConfig, evaluate, train
from memformer.metrics import (
    average_accuracy,
    cohens_kappa,
    overall_accuracy,
)
from memformer.model import MemFormer, ModelConfig, load_checkpoint, save_checkpoint


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({name}): FAIL")
        raise
    print(f"criterion {number} ({name}): PASS")


def tiny_config(**overrides):
    """W_s=4, w=2, S=3, K=8, h=2, L=1, ffn=16, capacity=2, C=2."""
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


def seeded_model(rng, **overrides):
    """Tiny model with non-zero memory banks so attention carries signal."""
    model = MemFormer(tiny_config(**overrides))
    for name in model.buffers():
        bank = model.buffers()[name]
        model.set_buffer(name, 0.5 * rng.standard_normal(bank.shape))
    return model


def test_criterion_1_gradient_fidelity():
    with criterion(1, "gradient fidelity"):
        started = time.perf_counter()
        rng = np.random.default_rng(7)
        model = seeded_model(rng)
        x = rng.standard_normal((3, 4, 4, 3))
        y = np.array([0, 1, 0])

        def loss():
            return ad.cross_entropy(model.forward(x, train=False), y)

        value = loss()
        value.backward()
        params = model.parameters()
        grads = {name: p.grad.copy() for name, p in params.items()}
        assert len(params) > 0
        worst = 0.0
        worst_name = None
        for name, p in params.items():
            fd = ad.finite_diff_grad(lambda _: loss(), p).data
            rel = np.abs(grads[name] - fd) / np.maximum(np.abs(fd), 1e-6)
            peak = float(rel.max())
            if peak > worst:
                worst, worst_name = peak, name
        elapsed = time.perf_counter() - started
        assert worst <= 1e-4, f"worst relative error {worst:.3e} at {worst_name}"
        assert elapsed < 60.0, f"gradient check took {elapsed:.1f}s"


def _layer_norm_ref(x, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps)


def _softmax_rows_ref(s):
    shifted = np.exp(s - s.max(axis=-1, keepdims=True))
    return shifted / shifted.sum(axis=-1, keepdims=True)


def test_criterion_2_attention_oracle():
    with criterion(2, "attention oracle"):
        rng = np.random.default_rng(11)
        # single-head memory attention, B=1, two tokens, width 2, capacity 2
        module = MemoryAttention(2, 1, 2, rng, dropout_rate=0.0)
        bank = rng.standard_normal((2, 2))
        module.memory = bank.copy()
        z = rng.standard_normal((1, 2, 2))
        out = module.forward(ad.constant(z), train=True)

        wq = module.w_q.data
        wk = module.w_k.data
        wv = module.w_v.data
        q = z @ wq
        # pass 1 on the pre-update bank
        w1 = _softmax_rows_ref(q @ (bank @ wk).T / np.sqrt(2.0))
        a1 = w1 @ (bank @ wv)
        # FIFO: drop the oldest row, append the batch-and-token mean response
        m_new = a1.mean(axis=(0, 1))
        bank2 = np.stack([bank[1], m_new])
        # pass 2 replays the same queries against the updated bank
        w2 = _softmax_rows_ref(q @ (bank2 @ wk).T / np.sqrt(2.0))
        a2 = w2 @ (bank2 @ wv)
        expected = _layer_norm_ref(q + a2)
        assert np.abs(out.data - expected).max() <= 1e-12
        assert np.abs(module.memory - bank2).max() <= 1e-12

        # standard attention on 3 tokens vs naive softmax(QK^T/sqrt(K))V
        q3 = ad.constant(rng.standard_normal((1, 3, 2)))
        k3 = ad.constant(rng.standard_normal((1, 3, 2)))
        v3 = ad.constant(rng.standard_normal((1, 3, 2)))
        got = attend(q3, k3, v3, heads=1).data
        naive = _softmax_rows_ref(q3.data @ k3.data.transpose(0, 2, 1) / np.sqrt(2.0)) @ v3.data
        assert np.abs(got - naive).max() <= 1e-12


def test_criterion_3_fifo_suite():
    with criterion(3, "FIFO memory suite"):
        rng = np.random.default_rng(23)
        for _ in range(1000):
            capacity = int(rng.integers(1, 7))
            width = int(rng.integers(1, 7))
            bank = np.zeros((capacity, width))

            # zero-initialized memory attends uniformly on the first pass
            w_q, w_k, w_v = (ad.glorot_uniform(rng, (width, width)) for _ in range(3))
            q = ad.constant(rng.standard_normal((1, 2, width)))
            k_mem, v_mem = project_memory(bank, w_k, w_v)
            _, first_pass = attend(ad.matmul(q, w_q), k_mem, v_mem, 1, return_weights=True)
            assert np.abs(first_pass.data - 1.0 / capacity).max() <= 1e-12

            reference = [row.copy() for row in bank]
            for _ in range(int(rng.integers(1, 5))):
                attn = ad.Tensor(
                    rng.standard_normal((2, 3, width)), requires_grad=True
                )
                previous = bank.copy()
                bank = update_memory(bank, attn)
                assert bank.shape == (capacity, width)
                # rows shift by exactly one
                np.testing.assert_array_equal(bank[:-1], previous[1:])
                np.testing.assert_array_equal(
                    bank[-1], attn.data.mean(axis=(0, 1))
                )
                reference = reference[1:] + [attn.data.mean(axis=(0, 1))]
                np.testing.assert_array_equal(bank, np.stack(reference))
                # the bank never joins the gradient graph
                assert isinstance(bank, np.ndarray)
                assert not isinstance(bank, ad.Tensor)
                assert not np.shares_memory(bank, attn.data)


def test_criterion_4_metric_oracle():
    with criterion(4, "metric oracle"):
        rng = np.random.default_rng(31)
        for _ in range(1000):
            side = int(rng.integers(2, 7))
            confusion = rng.integers(0, 50, size=(side, side))
            if confusion.sum() == 0:
                confusion[0, 0] = 1
            total = confusion.sum()
            oa_ref = float(np.trace(confusion)) / float(total)
            recalls = []
            for i in range(side):
                row = confusion[i].sum()
                if row > 0:
                    recalls.append(float(confusion[i, i]) / float(row))
            aa_ref = float(np.mean(recalls))
            p_o = oa_ref
            p_e = float(
                sum(confusion[i].sum() * confusion[:, i].sum() for i in range(side))
            ) / float(total) ** 2
            if p_e == 1.0:
                kappa_ref = 1.0 if p_o == 1.0 else 0.0
            else:
                kappa_ref = (p_o - p_e) / (1.0 - p_e)
            assert abs(overall_accuracy(confusion) - oa_ref) <= 1e-12
            assert abs(average_accuracy(confusion) - aa_ref) <= 1e-12
            assert abs(cohens_kappa(confusion) - kappa_ref) <= 1e-12

        worked = np.array([[40, 10], [20, 30]])
        assert overall_accuracy(worked) == 0.7
        assert average_accuracy(worked) == 0.7
        assert cohens_kappa(worked) == 0.4


def test_criterion_5_synthetic_overfit_run():
    with criterion(5, "synthetic overfit run"):
        started = time.perf_counter()
        cube, labels = synth_scene(32, 32, 16, 3, noise_sigma=0.05, blob_count=2, seed=0)
        manifest = stratified_split(labels, (0.20, 0.05, 0.50), seed=0)
        model_cfg = ModelConfig(classes=3, dropout=0.0, seed=1)
        assert (model_cfg.embed, model_cfg.layers, model_cfg.heads) == (64, 4, 8)
        assert (model_cfg.memory, model_cfg.window, model_cfg.patch) == (10, 14, 2)
        train_cfg = TrainConfig(epochs=50, batch_size=16, lr=1e-3, weight_decay=1e-6, seed=0)

        model = MemFormer(model_cfg)
        result = train(model, cube, manifest, train_cfg)
        test_oa = evaluate(model, cube, manifest.test).oa
        train_oa = evaluate(model, cube, manifest.train).oa
        assert test_oa >= 0.95, f"test OA {test_oa:.4f}"
        assert train_oa >= 0.99, f"train OA {train_oa:.4f}"

        rerun = train(MemFormer(model_cfg), cube, manifest, train_cfg)
        assert [s.train_loss for s in rerun.history] == [s.train_loss for s in result.history]
        assert [s.val_loss for s in rerun.history] == [s.val_loss for s in result.history]
        assert [s.train_acc for s in rerun.history] == [s.train_acc for s in result.history]

        elapsed = time.perf_counter() - started
        assert elapsed < 600.0, f"run took {elapsed:.0f}s"
        print(
            f"  test OA {test_oa:.4f}, train OA {train_oa:.4f}, "
            f"both runs in {elapsed:.0f}s, traces bitwise identical"
        )


ABLATION_CFG = """
window = 4
patch = 2
embed = 8
layers = 1
heads = 2
ffn = 16
memory = 2
dropout = 0.0
pe_mode = learnable
attention = memory
epochs = 1
batch_size = 16
lr = 0.01
weight_decay = 0.0
seed = 0
"""


def test_criterion_6_ablation_structure(tmp_path):
    with criterion(6, "ablation report structure"):
        cube_path = str(tmp_path / "scene.hsc")
        labels_path = str(tmp_path / "scene.hsl")
        manifest_path = str(tmp_path / "split.csv")
        assert main(
            ["synth", "--height", "12", "--width", "12", "--bands", "6", "--classes", "2",
             "--noise", "0.02", "--seed", "3", "--out-cube", cube_path,
             "--out-labels", labels_path]
        ) == 0
        assert main(
            ["split", "--labels", labels_path, "--train-frac", "0.4", "--val-frac", "0.15",
             "--test-frac", "0.3", "--seed", "5", "--out", manifest_path]
        ) == 0
        cfg_path = tmp_path / "tiny.cfg"
        cfg_path.write_text(ABLATION_CFG)
        data = ["--cube", cube_path, "--labels", labels_path, "--manifest", manifest_path]

        pe_csv = str(tmp_path / "pe.csv")
        assert main(["ablate-pe", *data, "--config", str(cfg_path), "--report-out", pe_csv]) == 0
        with open(pe_csv, newline="") as fh:
            pe_rows = list(csv.DictReader(fh))
        assert len(pe_rows) == 4

        sweep_csv = str(tmp_path / "sweep.csv")
        assert main(
            ["sweep-memory", *data, "--config", str(cfg_path), "--report-out", sweep_csv]
        ) == 0
        with open(sweep_csv, newline="") as fh:
            sweep_rows = list(csv.DictReader(fh))
        assert len(sweep_rows) == 7
        assert [row["memory_size"] for row in sweep_rows] == ["1", "5", "10", "15", "20", "25", "30"]

        hashes = {row["manifest_sha256"] for row in pe_rows + sweep_rows}
        assert len(hashes) == 1
        assert len({row["fingerprint"] for row in pe_rows}) == 1
        assert len({row["fingerprint"] for row in sweep_rows}) == 1


def test_criterion_7_determinism_and_persistence(tmp_path):
    with criterion(7, "determinism and persistence"):
        rng = np.random.default_rng(41)
        model = seeded_model(rng)
        x = rng.standard_normal((3, 4, 4, 3))

        first = model.forward(x, train=False).data
        rng_state = model.dropout_rng.bit_generator.state
        banks = {name: bank.copy() for name, bank in model.buffers().items()}
        second = model.forward(x, train=False).data
        # eval-mode forward is a pure function and never writes a bank
        np.testing.assert_array_equal(first, second)
        assert model.dropout_rng.bit_generator.state == rng_state
        for name, bank in model.buffers().items():
            np.testing.assert_array_equal(bank, banks[name])

        path = str(tmp_path / "model.ckpt")
        save_checkpoint(model, path)
        reloaded = load_checkpoint(path)
        np.testing.assert_array_equal(reloaded.forward(x, train=False).data, first)


def test_criterion_8_format_round_trips(tmp_path):
    with criterion(8, "format round-trips"):
        rng = np.random.default_rng(53)
        for i in range(100):
            h = int(rng.integers(1, 7))
            w = int(rng.integers(1, 7))
            s = int(rng.integers(2, 6))
            cube = HSICube(rng.standard_normal((h, w, s)).astype(np.float32))
            cube_path = str(tmp_path / f"cube_{i}.hsc")
            save_cube(cube, cube_path)
            back = load_cube(cube_path)
            assert back.values.tobytes() == cube.values.tobytes()
            assert back.values.shape == cube.values.shape

            labels = LabelMap(rng.integers(0, 5, size=(h, w)).astype(np.uint16))
            labels_path = str(tmp_path / f"labels_{i}.hsl")
            save_labels(labels, labels_path)
            back_labels = load_labels(labels_path)
            assert back_labels.labels.tobytes() == labels.labels.tobytes()

        bad = tmp_path / "bad.hsc"
        bad.write_bytes(b"XXXX" + b"\x00" * 12)
        with pytest.raises(FormatError, match=r"bad magic at byte 0"):
            load_cube(str(bad))

        zero_extent = tmp_path / "zero.hsc"
        zero_extent.write_bytes(b"HSC1" + np.array([4, 0, 2], dtype="<u4").tobytes())
        with pytest.raises(FormatError, match=r"zero extent at byte 8"):
            load_cube(str(zero_extent))

        truncated = tmp_path / "short.hsc"
        truncated.write_bytes(
            b"HSC1" + np.array([2, 2, 2], dtype="<u4").tobytes() + b"\x00" * 10
        )
        with pytest.raises(FormatError, match=r"truncated payload at byte 16"):
            load_cube(str(truncated))

        short_labels = tmp_path / "short.hsl"
        short_labels.write_bytes(b"HSL1" + np.array([2, 2], dtype="<u4").tobytes() + b"\x00" * 3)
        with pytest.raises(FormatError, match=r"truncated payload at byte 12"):
            load_labels(str(short_labels))
