"""The benchmark's three workloads: ``train``, ``eval`` and ``ablate``.

Every workload runs on the acceptance criterion-5 scene,
``synth_scene(32, 32, 16, 3, noise_sigma=0.05, blob_count=2, seed=0)``, and
the criterion-5 model and training seeds. The benchmark seed draws the
0.20/0.05/0.50 train/val/test split and, for ``eval``, the initial memory
banks. Split sizes are the same for every seed (204/49/511 pixels), so the
work per operation is too, while the pixels, and so the numbers, change.

A workload has a ``setup(seed)`` and an ``op(state)``. ``op`` returns an
``OpResult``: its wall time, a fingerprint that must repeat exactly for
every operation at one seed (loss trace, confusion matrix or ablation
rows), the figures its end-to-end metrics are made from, and the
correctness checks it failed. An operation is one ``train``, one
``evaluate`` or one pair of ablation tables.
"""

from __future__ import annotations

import hashlib
import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from memformer import data, harness, model
from memformer.harness import TrainConfig
from memformer.model import MemFormer, ModelConfig

SCENE = dict(height=32, width=32, bands=16, classes=3, noise_sigma=0.05, blob_count=2, seed=0)
FRACTIONS = (0.20, 0.05, 0.50)
MODEL_CFG = ModelConfig(classes=3, dropout=0.0, seed=1)
TRAIN_BATCH = 16
EVAL_BATCH = 64
TRAIN_EPOCHS = 2
EVAL_SETUP_EPOCHS = 3
ABLATE_EPOCHS = 2
# initial bank entries for eval: standard normal times this scale
BANK_SCALE = 0.1

# everything the benchmark writes goes here, inside the checkout
OUT_DIR = Path(__file__).resolve().parent.parent / ".perfbench"

# quality floors, below the lowest value seen over seeds 1..10 (test OA
# 0.904, map OA 0.931)
TRAIN_OA_FLOOR = 0.85
EVAL_OA_FLOOR = 0.90


def train_config(epochs):
    return TrainConfig(epochs=epochs, batch_size=TRAIN_BATCH, seed=0)


def scene_inputs(seed):
    cube, labels = data.synth_scene(**SCENE)
    manifest = data.stratified_split(labels, FRACTIONS, seed)
    return cube, labels, manifest


def loss_trace_sha(result):
    """SHA-256 of every per-epoch float of a TrainResult, bit for bit."""
    rows = [(s.train_loss, s.train_acc, s.val_loss, s.val_acc) for s in result.history]
    return hashlib.sha256(np.asarray(rows, dtype=np.float64).tobytes()).hexdigest()


def bank_stats(models):
    """(non-zero bank rows, max |entry|) over every memory bank of ``models``."""
    rows, peak = 0, 0.0
    for m in models:
        for bank in m.buffers().values():
            rows += int(np.count_nonzero(np.abs(bank).max(axis=1)))
            peak = max(peak, float(np.abs(bank).max()))
    return rows, peak


@dataclass
class OpResult:
    wall_s: float
    fingerprint: str
    figures: dict
    failures: list = field(default_factory=list)


@dataclass
class State:
    cube: object
    labels: object
    manifest: object
    model: object = None
    extra: dict = field(default_factory=dict)


class TrainWorkload:
    """Train the default model from scratch, then evaluate the test split."""

    name = "train"
    unit = "harness.step"
    setup_repeats = 5
    trace_ref_ops = 2
    trace_min_units = 100
    trace_min_ops = 1

    def setup(self, seed):
        cube, labels, manifest = scene_inputs(seed)
        return State(cube, labels, manifest, model=MemFormer(MODEL_CFG))

    def op(self, state):
        started = time.perf_counter()
        # the first operation trains the model built in set-up, later ones
        # build their own, so every operation starts from the same weights
        net, state.model = state.model or MemFormer(MODEL_CFG), None
        t0 = time.perf_counter()
        result = harness.train(net, state.cube, state.manifest, train_config(TRAIN_EPOCHS))
        train_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        report = harness.evaluate(net, state.cube, state.manifest.test, batch_size=EVAL_BATCH)
        eval_s = time.perf_counter() - t0
        wall = time.perf_counter() - started

        losses = [s.train_loss for s in result.history]
        failures = []
        if not all(math.isfinite(x) for x in losses):
            failures.append(f"non-finite train loss {losses}")
        if not report.oa >= TRAIN_OA_FLOOR:
            failures.append(f"test OA {report.oa:.4f} below floor {TRAIN_OA_FLOOR}")
        rows, peak = bank_stats([net])
        figures = {
            "train_samples_per_s": len(state.manifest.train) * TRAIN_EPOCHS / train_s,
            "eval_samples_per_s": report.samples / eval_s,
            "final_train_loss": losses[-1],
            "oa": report.oa,
            "bank_nonzero_rows": rows,
            "bank_max_abs": peak,
        }
        confusion = np.ascontiguousarray(report.confusion, dtype=np.int64).tobytes()
        fingerprint = hashlib.sha256(loss_trace_sha(result).encode() + confusion).hexdigest()
        return OpResult(wall, fingerprint, figures, failures)


class EvalWorkload:
    """Classify every pixel of the scene with a trained, reloaded model."""

    name = "eval"
    unit = "model.forward_eval"
    setup_repeats = 3
    trace_ref_ops = 3
    trace_min_units = 0
    trace_min_ops = 3

    def setup(self, seed):
        cube, labels, manifest = scene_inputs(seed)
        net = MemFormer(MODEL_CFG)
        rng = np.random.default_rng(seed)
        for name, bank in net.buffers().items():
            net.set_buffer(name, BANK_SCALE * rng.standard_normal(bank.shape))
        t0 = time.perf_counter()
        result = harness.train(net, cube, manifest, train_config(EVAL_SETUP_EPOCHS))
        train_s = time.perf_counter() - t0

        path = OUT_DIR / f"eval-{os.getpid()}.mfck"
        try:
            model.save_checkpoint(net, path)
            size = os.path.getsize(path)
            loaded = model.load_checkpoint(path, expect=MODEL_CFG)
        finally:
            if os.path.exists(path):
                os.remove(path)

        failures = []
        saved = {**{k: p.data for k, p in net.parameters().items()}, **net.buffers()}
        back = {**{k: p.data for k, p in loaded.parameters().items()}, **loaded.buffers()}
        if saved.keys() != back.keys() or any(
            saved[k].tobytes() != back[k].tobytes() for k in saved
        ):
            failures.append("checkpoint round trip changed a tensor")
        rows, peak = bank_stats([loaded])
        if rows == 0:
            failures.append("memory banks are all zero; eval would not exercise the memory path")

        r, c = np.indices(labels.labels.shape)
        pixels = np.stack([r.ravel(), c.ravel(), labels.labels.ravel()], axis=1).astype(np.int64)
        banks = {k: v.copy() for k, v in loaded.buffers().items()}
        extra = {
            "pixels": pixels,
            "banks": banks,
            "setup_failures": failures,
            "checkpoint_bytes": size,
            # figures of the set-up's own training; the benchmark takes their
            # median over the set-ups instead of over the operations
            "setup_figures": {
                "train_samples_per_s": len(manifest.train) * EVAL_SETUP_EPOCHS / train_s,
                "final_train_loss": result.history[-1].train_loss,
            },
            "loss_trace": loss_trace_sha(result),
        }
        return State(cube, labels, manifest, model=loaded, extra=extra)

    def op(self, state):
        net, pixels = state.model, state.extra["pixels"]
        t0 = time.perf_counter()
        report = harness.evaluate(net, state.cube, pixels, batch_size=EVAL_BATCH)
        wall = time.perf_counter() - t0

        failures = []
        if not report.oa >= EVAL_OA_FLOOR:
            failures.append(f"map OA {report.oa:.4f} below floor {EVAL_OA_FLOOR}")
        if any(net.buffers()[k].tobytes() != v.tobytes() for k, v in state.extra["banks"].items()):
            failures.append("evaluate changed a memory bank")
        rows, peak = bank_stats([net])
        figures = {
            "eval_samples_per_s": report.samples / wall,
            "oa": report.oa,
            "bank_nonzero_rows": rows,
            "bank_max_abs": peak,
        }
        confusion = np.ascontiguousarray(report.confusion, dtype=np.int64).tobytes()
        fingerprint = hashlib.sha256(state.extra["loss_trace"].encode() + confusion).hexdigest()
        return OpResult(wall, fingerprint, figures, failures)


class AblateWorkload:
    """Both ablation tables: attention (2 rows) and positional mode (4 rows).

    Trials run 2 epochs: after 1, the lowest row OA spread 0.18 of its
    median over seeds 11..15, against 0.05 to 0.08 after 2.
    """

    name = "ablate"
    unit = "harness.trial"
    setup_repeats = 5
    trace_ref_ops = 1
    trace_min_units = 0
    trace_min_ops = 1

    def setup(self, seed):
        return State(*scene_inputs(seed))

    def op(self, state):
        # keep what each trial's train and evaluate return; the rows carry
        # OA but not the loss trace, the eval time or the trained model
        trained, reports = [], []
        train_fn, evaluate_fn = harness.train, harness.evaluate

        def capture_train(net, *args, **kwargs):
            result = train_fn(net, *args, **kwargs)
            trained.append((net, result))
            return result

        def capture_evaluate(*args, **kwargs):
            report = evaluate_fn(*args, **kwargs)
            reports.append(report)
            return report

        cfg = train_config(ABLATE_EPOCHS)
        harness.train, harness.evaluate = capture_train, capture_evaluate
        try:
            t0 = time.perf_counter()
            attn_rows = harness.ablate_attention(state.cube, state.manifest, MODEL_CFG, cfg)
            pe_rows = harness.ablate_pe(state.cube, state.manifest, MODEL_CFG, cfg)
            wall = time.perf_counter() - t0
        finally:
            harness.train, harness.evaluate = train_fn, evaluate_fn

        failures = []
        sha = data.manifest_sha256(state.manifest)
        for title, rows, want in (("attention", attn_rows, 2), ("pe", pe_rows, 4)):
            if len(rows) != want:
                failures.append(f"{title} ablation has {len(rows)} rows, expected {want}")
            if {r["manifest_sha256"] for r in rows} != {sha}:
                failures.append(f"{title} ablation rows disagree on the split manifest")
            if len({r["fingerprint"] for r in rows}) != 1:
                failures.append(f"{title} ablation rows disagree on the held-fixed config")
        oas = [r["oa"] for r in attn_rows + pe_rows]
        if not all(math.isfinite(x) and 0.0 <= x <= 1.0 for x in oas):
            failures.append(f"row OA outside [0, 1]: {oas}")
        if len(trained) != 6 or len(reports) != 6:
            failures.append(f"expected 6 trials, saw {len(trained)} trainings and {len(reports)} evaluations")

        memory_models = [net for net, _ in trained if net.config.attention == "memory"]
        rows, peak = bank_stats(memory_models[-1:])
        samples = len(trained) * len(state.manifest.train) * ABLATE_EPOCHS
        figures = {
            "train_samples_per_s": samples / sum(r.seconds for _, r in trained),
            "eval_samples_per_s": sum(r.samples for r in reports) / sum(r.seconds for r in reports),
            "final_train_loss": float(np.mean([r.history[-1].train_loss for _, r in trained])),
            "oa": min(oas),
            "bank_nonzero_rows": rows,
            "bank_max_abs": peak,
        }
        digest = hashlib.sha256()
        for _, result in trained:
            digest.update(loss_trace_sha(result).encode())
        for row in attn_rows + pe_rows:
            digest.update(repr({k: v for k, v in row.items() if k != "train_seconds"}).encode())
        return OpResult(wall, digest.hexdigest(), figures, failures)


WORKLOADS = {w.name: w for w in (TrainWorkload(), EvalWorkload(), AblateWorkload())}
