"""Train a small model end to end on a synthetic scene, look at the epoch
log, save the best checkpoint, and verify the reloaded model evaluates
identically.
"""

import tempfile
from dataclasses import asdict
from pathlib import Path

import numpy as np

from memformer.data import stratified_split, synth_scene
from memformer.harness import TrainConfig, evaluate, train, write_report_csv
from memformer.model import MemFormer, ModelConfig, load_checkpoint, save_checkpoint

print("== data ==")
cube, labels = synth_scene(16, 16, 8, 2, noise_sigma=0.03, seed=2)
manifest = stratified_split(labels, (0.4, 0.15, 0.3), seed=0)
n_train, n_val, n_test = manifest.counts()
print(f"train={n_train} val={n_val} test={n_test}")

print("\n== model ==")
cfg = ModelConfig(
    window=6, patch=2, bands=8, embed=16, layers=2, heads=2, ffn=32,
    memory=4, classes=2, dropout=0.0, pe_mode="sspe", attention="memory", seed=0,
)
model = MemFormer(cfg)
trainable, non_trainable = model.count_params()
print(f"{trainable} trainable parameters, {non_trainable} memory slots")

print("\n== training ==")
result = train(model, cube, manifest, TrainConfig(epochs=10, batch_size=16, lr=5e-3, seed=0))
for s in result.history:
    print(
        f"epoch {s.epoch:2d}: train_loss={s.train_loss:.4f} "
        f"train_acc={s.train_acc:.3f} val_acc={s.val_acc:.3f}"
    )
print(f"kept epoch {result.best_epoch} (best validation accuracy {result.best_val_acc:.3f})")

print("\n== evaluation ==")
report = evaluate(model, cube, manifest.test)
print(report.summary())

print("\n== persistence ==")
with tempfile.TemporaryDirectory() as tmp:
    ckpt = Path(tmp) / "model.ckpt"
    save_checkpoint(model, ckpt)
    log = Path(tmp) / "log.csv"
    write_report_csv([asdict(s) for s in result.history], log)
    print(f"checkpoint: {ckpt.stat().st_size} bytes; log: {len(log.read_text().splitlines())} lines")
    reloaded = load_checkpoint(ckpt)
    again = evaluate(reloaded, cube, manifest.test)
    print(f"reloaded model reproduces the confusion matrix: "
          f"{bool(np.array_equal(report.confusion, again.confusion))}")
