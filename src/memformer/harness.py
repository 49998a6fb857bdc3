"""Training loop, evaluation, ablation drivers, and report writers.

Training is plain mini-batch Adam on cross-entropy with seeded shuffling.
Per epoch it records the mean train-mode batch loss plus eval-mode accuracy
on the train and validation splits, and it keeps a snapshot of the best
validation accuracy to restore at the end. Memory banks mutate only inside
train-mode forwards, in batch order, so a (seed, config, data) triple fixes
the loss trace bitwise. Every pass over a split, train steps and evaluation
alike, cuts its windows one batch at a time, so no split's windows are held
at once. After each step ``train`` drops the graph before the next forward,
so two steps' graphs are never alive at once, and the malloc settings that
``memformer.model`` makes keep the next step in the pages the last one
freed. Evaluation and the per-epoch accuracy passes run their forwards under
``autodiff.no_grad``, where ``MemFormer.forward`` encodes each batch's two
halves on two threads. Train steps use the same two threads: each FFN
splits its rows, and the backward computes weight, bias and gain gradients
on the autodiff worker thread. Logits and loss traces are bitwise those of
one thread.

The ablation drivers retrain fresh models that differ in exactly one config
field and emit one row per variant: metrics, census, the split-manifest
hash, and a fingerprint of everything that was held fixed.
"""

from __future__ import annotations

import csv
import hashlib
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from ._checks import _require_float, _require_int
from .data import _text_lines, extract_window, manifest_sha256
from .embedding import PE_MODES
from .metrics import EvalReport, confusion_matrix
from .model import ATTENTION_MODES, MemFormer, ModelConfig
from .optim import Adam

__all__ = [
    "TrainConfig",
    "EpochStats",
    "TrainResult",
    "extract_samples",
    "train",
    "evaluate",
    "ablate_attention",
    "ablate_pe",
    "sweep_memory",
    "DEFAULT_MEMORY_SIZES",
    "config_fingerprint",
    "parse_config_file",
    "write_report_csv",
    "write_report_text",
]

DEFAULT_MEMORY_SIZES = (1, 5, 10, 15, 20, 25, 30)


@dataclass
class TrainConfig:
    epochs: int = 50
    batch_size: int = 64
    lr: float = 1e-3
    weight_decay: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        self.epochs = _require_int("epochs", self.epochs, 1)
        self.batch_size = _require_int("batch_size", self.batch_size, 1)
        self.lr = _require_float("lr", self.lr, np.inf)
        self.weight_decay = _require_float("weight_decay", self.weight_decay, np.inf)
        self.seed = _require_int("seed", self.seed, 0)


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    train_acc: float
    val_loss: float
    val_acc: float


@dataclass
class TrainResult:
    history: list
    best_epoch: int
    best_val_acc: float
    seconds: float


def extract_samples(cube, part, window):
    """Windows and 0-based labels for one manifest split (possibly empty)."""
    return extract_window(cube, part[:, 0], part[:, 1], window), part[:, 2] - 1


def _split_logits(model, cube, part, batch_size):
    """Eval-mode logits of one manifest split, ``batch_size`` windows at a time."""
    out = []
    with ad.no_grad():
        for start in range(0, len(part), batch_size):
            windows, _ = extract_samples(cube, part[start : start + batch_size], model.config.window)
            out.append(model.forward(windows, train=False).data)
    return np.concatenate(out, axis=0)


def _eval_loss_acc(model, cube, part, batch_size):
    if len(part) == 0:
        return float("nan"), float("nan")
    labels = part[:, 2] - 1
    logits = _split_logits(model, cube, part, batch_size)
    loss = ad._nll(logits, labels)[0].mean()
    acc = float((np.argmax(logits, axis=1) == labels).mean())
    return float(loss), acc


def train(model, cube, manifest, cfg):
    """Fit ``model`` on the manifest's train split; returns the epoch log.

    The model is mutated in place and finishes holding the parameters (and
    memory banks) of the best-validation-accuracy epoch; with an empty
    validation split the final epoch is kept and val columns are NaN.
    """
    started = time.perf_counter()
    if len(manifest.train) == 0:
        raise ValueError("train split is empty")
    window = model.config.window
    y_train = manifest.train[:, 2] - 1
    y_val = manifest.val[:, 2] - 1
    if y_train.max() >= model.config.classes or (len(y_val) and y_val.max() >= model.config.classes):
        raise ValueError("manifest contains a class id beyond the model's class count")
    # windows are cut per batch, so a center outside the scene must fail
    # here, before a step has changed the model
    for part in (manifest.train, manifest.val):
        extract_window(cube, part[:, 0], part[:, 1], 1)

    opt = Adam(model.parameters(), lr=cfg.lr, weight_decay=cfg.weight_decay)
    shuffle_rng = np.random.default_rng(cfg.seed)
    history = []
    best_epoch = -1
    best_val = -np.inf
    best_state = None

    for epoch in range(1, cfg.epochs + 1):
        order = shuffle_rng.permutation(len(y_train))
        # per-sample losses keyed by dataset index, so the epoch mean does
        # not depend on the shuffle's summation order or on a ragged final
        # batch
        sample_losses = np.zeros(len(y_train))
        for start in range(0, len(order), cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            windows, labels = extract_samples(cube, manifest.train[idx], window)
            opt.zero_grad()
            logits = model.forward(windows, train=True)
            loss = ad.cross_entropy(logits, labels)
            if not np.isfinite(loss.data):
                raise ValueError(f"epoch {epoch}: non-finite training loss")
            loss.backward()
            opt.step()
            sample_losses[idx] = ad._nll(logits.data, labels)[0]
            # drop the graph before the next forward, so that forward
            # reuses its memory instead of allocating beside it
            del logits, loss
        train_loss = float(sample_losses.mean())
        _, train_acc = _eval_loss_acc(model, cube, manifest.train, cfg.batch_size)
        val_loss, val_acc = _eval_loss_acc(model, cube, manifest.val, cfg.batch_size)
        history.append(EpochStats(epoch, train_loss, train_acc, val_loss, val_acc))
        # ties go to the later epoch: equal validation, more training
        if len(y_val) and val_acc >= best_val:
            best_val = val_acc
            best_epoch = epoch
            best_state = (
                {name: p.data.copy() for name, p in model.parameters().items()},
                {name: b.copy() for name, b in model.buffers().items()},
            )

    if best_state is not None:
        params, banks = best_state
        for name, p in model.parameters().items():
            p.data = params[name]
        for name, values in banks.items():
            model.set_buffer(name, values)
    else:
        best_epoch = cfg.epochs
        best_val = float("nan")
    return TrainResult(
        history=history,
        best_epoch=best_epoch,
        best_val_acc=best_val,
        seconds=time.perf_counter() - started,
    )


def evaluate(model, cube, part, batch_size=64):
    """EvalReport over one manifest split (typically test).

    Only eval-mode forwards run, recording no graph, so memory banks and the
    dropout stream are left untouched. A window's encoder output does not
    depend on ``batch_size``; its logits may differ in the last bit, because
    BLAS picks the classifier product's kernel by the batch's row count.
    """
    _require_int("batch_size", batch_size, 1)
    if len(part) == 0:
        raise ValueError("evaluation split is empty")
    started = time.perf_counter()
    labels = part[:, 2] - 1
    if labels.max() >= model.config.classes:
        raise ValueError("manifest contains a class id beyond the model's class count")
    logits = _split_logits(model, cube, part, batch_size)
    predicted = np.argmax(logits, axis=1)
    confusion = confusion_matrix(labels, predicted, model.config.classes)
    trainable, non_trainable = model.count_params()
    return EvalReport.from_confusion(
        confusion,
        trainable_params=trainable,
        non_trainable_params=non_trainable,
        seconds=time.perf_counter() - started,
    )


# -- ablation drivers ---------------------------------------------------------


def config_fingerprint(model_cfg, train_cfg, exclude=()):
    """Hash of every config field not being swept; identical across variants."""
    parts = []
    for f in fields(model_cfg):
        if f.name not in exclude:
            parts.append(f"model.{f.name}={getattr(model_cfg, f.name)!r}")
    for f in fields(train_cfg):
        parts.append(f"train.{f.name}={getattr(train_cfg, f.name)!r}")
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()[:16]


def _run_trial(cube, manifest, model_cfg, train_cfg):
    model = MemFormer(model_cfg)
    result = train(model, cube, manifest, train_cfg)
    report = evaluate(model, cube, manifest.test, batch_size=train_cfg.batch_size)
    return result, report


def _sweep(key, field, values, cube, manifest, model_cfg, train_cfg):
    """One row per value of the ModelConfig ``field``, every other field held.
    Every variant's config is built, and so checked, before any trial runs."""
    cfgs = [replace(model_cfg, **{field: value}) for value in values]
    rows = []
    for cfg in cfgs:
        result, report = _run_trial(cube, manifest, cfg, train_cfg)
        rows.append(
            {
                key: getattr(cfg, field),
                "oa": report.oa,
                "aa": report.aa,
                "kappa": report.kappa,
                "trainable_params": report.trainable_params,
                "non_trainable_params": report.non_trainable_params,
                "best_epoch": result.best_epoch,
                "train_seconds": round(result.seconds, 3),
                "manifest_sha256": manifest_sha256(manifest),
                "fingerprint": config_fingerprint(cfg, train_cfg, exclude=(field,)),
            }
        )
    return rows


def ablate_attention(cube, manifest, model_cfg, train_cfg):
    """Two rows: memory vs standard attention, everything else identical."""
    return _sweep("attention", "attention", ATTENTION_MODES, cube, manifest, model_cfg, train_cfg)


def ablate_pe(cube, manifest, model_cfg, train_cfg):
    """Four rows, one per positional-embedding mode."""
    return _sweep("pe_mode", "pe_mode", PE_MODES, cube, manifest, model_cfg, train_cfg)


def sweep_memory(cube, manifest, model_cfg, train_cfg, sizes=DEFAULT_MEMORY_SIZES):
    """One row per memory capacity, shared seed and split."""
    sizes = list(sizes)
    if not sizes:
        raise ValueError("memory size list is empty")
    cfg = replace(model_cfg, attention="memory")
    return _sweep("memory_size", "memory", sizes, cube, manifest, cfg, train_cfg)


# -- config files and reports -------------------------------------------------

_MODEL_FIELDS = {f.name: f.type for f in fields(ModelConfig)}
_TRAIN_FIELDS = {f.name: f.type for f in fields(TrainConfig)}


def parse_config_file(path):
    """Flat UTF-8 ``key = value`` text -> (model overrides, train overrides).

    Keys are ModelConfig / TrainConfig field names; ``seed`` sets both.
    ``#`` starts a comment; an unknown or repeated key fails by its line.
    """
    model_kwargs = {}
    train_kwargs = {}
    first_line = {}  # key -> line that set it
    for lineno, raw in _text_lines(path, ValueError):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}: line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _MODEL_FIELDS and key not in _TRAIN_FIELDS:
            raise ValueError(f"{path}: line {lineno}: unknown config key {key!r}")
        if key in first_line:
            raise ValueError(f"{path}: line {lineno}: {key!r} already set on line {first_line[key]}")
        first_line[key] = lineno
        if key in _MODEL_FIELDS:
            model_kwargs[key] = _coerce(key, value, _MODEL_FIELDS[key], path, lineno)
        if key in _TRAIN_FIELDS:
            train_kwargs[key] = _coerce(key, value, _TRAIN_FIELDS[key], path, lineno)
    return model_kwargs, train_kwargs


def _coerce(key, value, typ, path, lineno):
    # field types are the annotation strings "int", "float" and "str"
    try:
        return {"int": int, "float": float, "str": str}[typ](value)
    except ValueError:
        raise ValueError(f"{path}: line {lineno}: {key} expects {typ}, got {value!r}") from None


def write_report_csv(rows, path):
    """Header plus one metric row per trial."""
    if not rows:
        raise ValueError("no rows to write")
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)


def write_report_text(rows, path, title, notes=()):
    """Aligned human-readable twin of the CSV report."""
    if not rows:
        raise ValueError("no rows to write")
    keys = list(rows[0].keys())
    cells = [[_fmt(row[k]) for k in keys] for row in rows]
    widths = [max(len(k), *(len(r[i]) for r in cells)) for i, k in enumerate(keys)]
    lines = [title, ""]
    lines.append("  ".join(k.ljust(w) for k, w in zip(keys, widths)))
    for r in cells:
        lines.append("  ".join(v.ljust(w) for v, w in zip(r, widths)))
    for note in notes:
        lines.append("")
        lines.append(note)
    Path(path).write_text("\n".join(lines) + "\n")


def _fmt(value):
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)

