"""Command-line front end.

Subcommands cover the whole pipeline: synthesize a labeled scene, split it,
train, evaluate a checkpoint, run the ablation drivers, and print a
parameter census. Every command is deterministic given its flags; errors
from the library surface as one-line ``error: ...`` messages with exit
code 2.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .data import (
    FormatError,
    load_cube,
    load_labels,
    load_manifest,
    manifest_sha256,
    save_cube,
    save_labels,
    save_manifest,
    stratified_split,
    synth_scene,
)
from .harness import (
    DEFAULT_MEMORY_SIZES,
    TrainConfig,
    ablate_attention,
    ablate_pe,
    evaluate,
    parse_config_file,
    sweep_memory,
    train,
    write_report_csv,
    write_report_text,
)
from .model import CheckpointError, MemFormer, ModelConfig, load_checkpoint, save_checkpoint

__all__ = ["main", "build_parser"]


def build_parser():
    parser = argparse.ArgumentParser(
        prog="memformer",
        description="Memory-attention transformer for hyperspectral pixel classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="write a synthetic labeled hyperspectral scene")
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--bands", type=int, required=True)
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--noise", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-cube", required=True)
    p.add_argument("--out-labels", required=True)
    p.set_defaults(handler=_cmd_synth)

    p = sub.add_parser("split", help="stratified train/val/test split of a label map")
    p.add_argument("--labels", required=True)
    p.add_argument("--train-frac", type=float, default=0.20)
    p.add_argument("--val-frac", type=float, default=0.05)
    p.add_argument("--test-frac", type=float, default=0.50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_split)

    p = sub.add_parser("train", help="fit a model and save the best-validation checkpoint")
    _data_flags(p)
    p.add_argument("--config", required=True, help="flat key = value config file")
    p.add_argument("--checkpoint-out", required=True)
    p.add_argument("--log-out", required=True, help="per-epoch CSV log")
    p.set_defaults(handler=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on the test split")
    _data_flags(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--report-out", required=True)
    p.set_defaults(handler=_cmd_eval)

    for name, text, driver, title, notes in (
        ("ablate-attention", "memory vs token self-attention, all else fixed", ablate_attention,
         "attention ablation (memory vs token self-attention)", ()),
        ("ablate-pe", "one trial per positional-embedding mode", ablate_pe,
         "positional-embedding ablation", ()),
        ("sweep-memory", "one trial per memory capacity", sweep_memory, "memory-capacity sweep",
         ("reference: on the Indian Pines benchmark the best reported overall accuracy, "
          "99.23, occurs at memory size 10 (informational, not asserted)",)),
    ):
        p = sub.add_parser(name, help=text)
        _data_flags(p)
        p.add_argument("--config", required=True)
        p.add_argument("--report-out", required=True, help="CSV path; a .txt twin is written too")
        p.set_defaults(handler=_cmd_ablate, driver=driver, title=title, notes=notes)
        if driver is sweep_memory:
            p.add_argument(
                "--sizes",
                type=_sizes,
                default=DEFAULT_MEMORY_SIZES,
                help="comma-separated memory capacities",
            )

    p = sub.add_parser("params", help="print the parameter census for a config")
    p.add_argument("--config", required=True)
    p.set_defaults(handler=_cmd_params)

    return parser


def _data_flags(p):
    p.add_argument("--cube", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--manifest", required=True)


def _sizes(text):
    try:
        return [int(s) for s in text.split(",") if s.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (FormatError, CheckpointError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _cmd_synth(args):
    cube, labels = synth_scene(
        args.height,
        args.width,
        args.bands,
        args.classes,
        noise_sigma=args.noise,
        seed=args.seed,
    )
    save_cube(cube, args.out_cube)
    save_labels(labels, args.out_labels)
    print(f"wrote {args.out_cube} ({cube.height}x{cube.width}x{cube.bands})")
    print(f"wrote {args.out_labels} ({labels.num_classes} classes)")
    return 0


def _cmd_split(args):
    labels = load_labels(args.labels)
    manifest = stratified_split(
        labels, (args.train_frac, args.val_frac, args.test_frac), seed=args.seed
    )
    save_manifest(manifest, args.out)
    n_train, n_val, n_test = manifest.counts()
    print(f"wrote {args.out} (train={n_train} val={n_val} test={n_test})")
    print(f"manifest sha256: {manifest_sha256(manifest)}")
    return 0


def _load_inputs(args):
    cube = load_cube(args.cube)
    labels = load_labels(args.labels)
    manifest = load_manifest(args.manifest)
    _check_agreement(manifest, labels, cube)
    return cube, labels, manifest


def _check_agreement(manifest, labels, cube):
    if (labels.height, labels.width) != (cube.height, cube.width):
        raise ValueError(
            f"label map is {labels.height}x{labels.width} "
            f"but cube is {cube.height}x{cube.width}"
        )
    for split in ("train", "val", "test"):
        part = getattr(manifest, split)
        if len(part) == 0:
            continue
        rows, cols, classes = part[:, 0], part[:, 1], part[:, 2]
        if rows.max() >= labels.height or cols.max() >= labels.width:
            raise ValueError(f"{split} split indexes outside the label map")
        stored = labels.labels[rows, cols].astype(np.int64)
        bad = np.nonzero(stored != classes)[0]
        if len(bad):
            i = int(bad[0])
            raise ValueError(
                f"{split} split row {i}: manifest says class {classes[i]} "
                f"but label map has {stored[i]} at ({rows[i]}, {cols[i]})"
            )


def _build_configs(args, cube=None, labels=None):
    model_kwargs, train_kwargs = parse_config_file(args.config)
    if cube is not None:
        model_kwargs.setdefault("bands", cube.bands)
        if model_kwargs["bands"] != cube.bands:
            raise ValueError(
                f"config says bands = {model_kwargs['bands']} but cube has {cube.bands}"
            )
    if labels is not None:
        model_kwargs.setdefault("classes", labels.num_classes)
        if model_kwargs["classes"] < labels.num_classes:
            raise ValueError(
                f"config says classes = {model_kwargs['classes']} "
                f"but label map has {labels.num_classes}"
            )
    return ModelConfig(**model_kwargs), TrainConfig(**train_kwargs)


def _cmd_train(args):
    cube, labels, manifest = _load_inputs(args)
    model_cfg, train_cfg = _build_configs(args, cube, labels)
    model = MemFormer(model_cfg)
    result = train(model, cube, manifest, train_cfg)
    for s in result.history:
        print(
            f"epoch {s.epoch}: train_loss={s.train_loss:.6f} train_acc={s.train_acc:.4f} "
            f"val_loss={s.val_loss:.6f} val_acc={s.val_acc:.4f}"
        )
    write_report_csv([asdict(s) for s in result.history], args.log_out)
    save_checkpoint(model, args.checkpoint_out)
    print(f"best epoch {result.best_epoch} (val_acc={result.best_val_acc:.4f})")
    print(f"wrote {args.checkpoint_out} and {args.log_out} in {result.seconds:.1f}s")
    return 0


def _cmd_eval(args):
    cube, labels, manifest = _load_inputs(args)
    model = load_checkpoint(args.checkpoint)
    report = evaluate(model, cube, manifest.test)
    text = report.summary() + f"\nmanifest sha256: {manifest_sha256(manifest)}\n"
    Path(args.report_out).write_text(text)
    print(text, end="")
    return 0


def _cmd_ablate(args):
    cube, labels, manifest = _load_inputs(args)
    model_cfg, train_cfg = _build_configs(args, cube, labels)
    sizes = {"sizes": args.sizes} if "sizes" in args else {}
    rows = args.driver(cube, manifest, model_cfg, train_cfg, **sizes)
    write_report_csv(rows, args.report_out)
    text_path = str(Path(args.report_out).with_suffix(".txt"))
    write_report_text(rows, text_path, args.title, notes=args.notes)
    print(f"wrote {args.report_out} and {text_path} ({len(rows)} trials)")
    return 0


def _cmd_params(args):
    model_cfg, _ = _build_configs(args)
    trainable, non_trainable = MemFormer(model_cfg).count_params()
    print(f"trainable parameters:     {trainable}")
    print(f"non-trainable parameters: {non_trainable}")
    print(f"total:                    {trainable + non_trainable}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
