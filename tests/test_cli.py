"""End-to-end command-line pipeline: synth, split, train, eval, ablations."""

import csv
import re
from pathlib import Path

import numpy as np
import pytest

from memformer.cli import build_parser, main
from memformer.data import load_cube, load_labels, load_manifest
from memformer.model import MemFormer, ModelConfig, load_checkpoint, save_checkpoint

TINY_CFG = """
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
epochs = 2
batch_size = 16
lr = 0.01
weight_decay = 0.0
seed = 0
"""


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cube = str(root / "scene.hsc")
    labels = str(root / "scene.hsl")
    manifest = str(root / "split.csv")
    assert (
        main(
            [
                "synth",
                "--height", "12",
                "--width", "12",
                "--bands", "6",
                "--classes", "2",
                "--noise", "0.02",
                "--seed", "3",
                "--out-cube", cube,
                "--out-labels", labels,
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "split",
                "--labels", labels,
                "--train-frac", "0.4",
                "--val-frac", "0.15",
                "--test-frac", "0.3",
                "--seed", "5",
                "--out", manifest,
            ]
        )
        == 0
    )
    cfg = str(root / "tiny.cfg")
    with open(cfg, "w") as fh:
        fh.write(TINY_CFG)
    return {"root": root, "cube": cube, "labels": labels, "manifest": manifest, "cfg": cfg}


def data_flags(workdir):
    return [
        "--cube", workdir["cube"],
        "--labels", workdir["labels"],
        "--manifest", workdir["manifest"],
    ]


def test_synth_and_split_outputs_load(workdir):
    cube = load_cube(workdir["cube"])
    labels = load_labels(workdir["labels"])
    manifest = load_manifest(workdir["manifest"])
    assert (cube.height, cube.width, cube.bands) == (12, 12, 6)
    assert labels.num_classes == 2
    n_train, n_val, n_test = manifest.counts()
    assert n_train > 0 and n_val > 0 and n_test > 0


def test_train_writes_checkpoint_and_log(workdir, capsys):
    ckpt = str(workdir["root"] / "model.ckpt")
    log = str(workdir["root"] / "log.csv")
    code = main(
        ["train", *data_flags(workdir), "--config", workdir["cfg"],
         "--checkpoint-out", ckpt, "--log-out", log]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "epoch 1:" in out and "epoch 2:" in out and "best epoch" in out
    with open(log, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["epoch", "train_loss", "train_acc", "val_loss", "val_acc"]
    assert len(rows) == 3
    model = load_checkpoint(ckpt)
    assert model.config.window == 4
    assert model.config.bands == 6  # inferred from the cube
    assert model.config.classes == 2  # inferred from the label map


def test_train_rerun_is_bitwise_identical(workdir):
    paths = []
    for tag in ("a", "b"):
        ckpt = str(workdir["root"] / f"rerun_{tag}.ckpt")
        log = str(workdir["root"] / f"rerun_{tag}.csv")
        assert (
            main(
                ["train", *data_flags(workdir), "--config", workdir["cfg"],
                 "--checkpoint-out", ckpt, "--log-out", log]
            )
            == 0
        )
        paths.append((ckpt, log))
    with open(paths[0][1], "rb") as fa, open(paths[1][1], "rb") as fb:
        assert fa.read() == fb.read()
    with open(paths[0][0], "rb") as fa, open(paths[1][0], "rb") as fb:
        assert fa.read() == fb.read()


def test_eval_reads_checkpoint_and_writes_report(workdir, capsys):
    ckpt = str(workdir["root"] / "eval_model.ckpt")
    log = str(workdir["root"] / "eval_log.csv")
    main(
        ["train", *data_flags(workdir), "--config", workdir["cfg"],
         "--checkpoint-out", ckpt, "--log-out", log]
    )
    capsys.readouterr()
    report = str(workdir["root"] / "report.txt")
    code = main(
        ["eval", *data_flags(workdir), "--checkpoint", ckpt, "--report-out", report]
    )
    assert code == 0
    text = Path(report).read_text()
    assert "overall accuracy" in text
    assert "kappa" in text
    assert "manifest sha256" in text
    # evaluation is a pure function: a second run emits identical bytes
    report2 = str(workdir["root"] / "report2.txt")
    main(["eval", *data_flags(workdir), "--checkpoint", ckpt, "--report-out", report2])
    assert Path(report2).read_text().split("evaluated in")[0] == text.split("evaluated in")[0]


def test_ablate_pe_emits_four_rows(workdir, capsys):
    report = str(workdir["root"] / "pe.csv")
    code = main(
        ["ablate-pe", *data_flags(workdir), "--config", workdir["cfg"], "--report-out", report]
    )
    assert code == 0
    with open(report, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["pe_mode"] for row in rows] == ["none", "learnable", "sinusoidal1d", "sspe"]
    assert len({row["fingerprint"] for row in rows}) == 1
    assert len({row["manifest_sha256"] for row in rows}) == 1
    assert (workdir["root"] / "pe.txt").exists()


def test_ablate_attention_emits_two_rows(workdir, capsys):
    report = str(workdir["root"] / "attn.csv")
    code = main(
        ["ablate-attention", *data_flags(workdir), "--config", workdir["cfg"],
         "--report-out", report]
    )
    assert code == 0
    with open(report, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["attention"] for row in rows] == ["memory", "standard"]
    assert len({row["fingerprint"] for row in rows}) == 1


def test_sweep_memory_custom_sizes(workdir, capsys):
    report = str(workdir["root"] / "sweep.csv")
    code = main(
        ["sweep-memory", *data_flags(workdir), "--config", workdir["cfg"],
         "--report-out", report, "--sizes", "1,3"]
    )
    assert code == 0
    with open(report, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["memory_size"] for row in rows] == ["1", "3"]
    text = (workdir["root"] / "sweep.txt").read_text()
    assert "99.23" in text and "memory size 10" in text


def test_sweep_memory_rejects_fractional_size_before_loading_inputs(workdir, tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        main(
            ["sweep-memory", "--cube", str(tmp_path / "missing.hsc"), "--labels", workdir["labels"],
             "--manifest", workdir["manifest"], "--config", workdir["cfg"],
             "--report-out", str(tmp_path / "sweep.csv"), "--sizes", "2.7"]
        )
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "argument --sizes:" in err and "missing.hsc" not in err
    assert not (tmp_path / "sweep.csv").exists()


def test_readme_command_block_names_exactly_the_subcommands():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1].split("```", 2)[1]
    documented = set(re.findall(r"^memformer ([\w-]+)", section, re.MULTILINE))
    usage = build_parser().format_usage()
    registered = set(re.search(r"\{([\w,-]+)\}", usage).group(1).split(","))
    assert documented == registered


def test_params_census_matches_library(workdir, capsys):
    code = main(["params", "--config", workdir["cfg"]])
    assert code == 0
    out = capsys.readouterr().out
    cfg = ModelConfig(
        window=4, patch=2, bands=16, embed=8, layers=1, heads=2, ffn=16,
        memory=2, classes=2, dropout=0.0, pe_mode="learnable", attention="memory", seed=0,
    )
    trainable, non_trainable = MemFormer(cfg).count_params()
    assert f"trainable parameters:     {trainable}" in out
    assert f"non-trainable parameters: {non_trainable}" in out
    assert f"total:                    {trainable + non_trainable}" in out


def test_cli_reports_format_errors(workdir, tmp_path, capsys):
    bad_cube = tmp_path / "bad.hsc"
    bad_cube.write_bytes(b"XXXX" + b"\x00" * 16)
    code = main(
        ["eval", "--cube", str(bad_cube), "--labels", workdir["labels"],
         "--manifest", workdir["manifest"], "--checkpoint", "missing.ckpt",
         "--report-out", str(tmp_path / "r.txt")]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "error:" in err and "bad magic at byte 0" in err


def test_cli_rejects_unknown_config_key(workdir, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("window = 4\nmomentum = 0.9\n")
    code = main(
        ["train", *data_flags(workdir), "--config", str(cfg),
         "--checkpoint-out", str(tmp_path / "m.ckpt"), "--log-out", str(tmp_path / "l.csv")]
    )
    assert code == 2
    assert "unknown config key 'momentum'" in capsys.readouterr().err


def test_cli_rejects_nan_lr_before_training(workdir, tmp_path, capsys, monkeypatch):
    def no_training(*args, **kwargs):
        raise AssertionError("training started")

    monkeypatch.setattr("memformer.cli.train", no_training)
    cfg = tmp_path / "bad.cfg"
    ckpt = tmp_path / "m.ckpt"
    # a seed past the checkpoint's i64 field used to fail only in save_checkpoint
    for old, new, message in (
        ("lr = 0.01", "lr = nan", "error: lr must be finite"),
        ("seed = 0", "seed = 18446744073709551616", "error: seed must be "),
    ):
        cfg.write_text(TINY_CFG.replace(old, new))
        code = main(
            ["train", *data_flags(workdir), "--config", str(cfg),
             "--checkpoint-out", str(ckpt), "--log-out", str(tmp_path / "l.csv")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(message)
        assert not ckpt.exists()


@pytest.mark.parametrize(
    "argv, name",
    [
        (["synth", "--height", "12", "--width", "12", "--bands", "6", "--classes", "2", "--noise", "nan",
          "--out-cube", "c.hsc", "--out-labels", "l.hsl"], "noise_sigma"),
        (["split", "--train-frac", "nan", "--out", "m.csv"], "train fraction"),
    ],
    ids=["synth-noise", "split-train-frac"],
)
def test_cli_rejects_a_nan_rate_by_name(workdir, tmp_path, capsys, monkeypatch, argv, name):
    # nan used to pass synth as noise 0, and to reach split's int() of a pixel count
    monkeypatch.chdir(tmp_path)
    if argv[0] == "split":
        argv = [*argv, "--labels", workdir["labels"]]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {name} must be finite and >= 0, got nan\n"
    assert list(tmp_path.iterdir()) == []


def test_cli_rejects_band_mismatch(workdir, tmp_path, capsys):
    cfg = tmp_path / "bands.cfg"
    cfg.write_text(TINY_CFG + "bands = 5\n")
    code = main(
        ["train", *data_flags(workdir), "--config", str(cfg),
         "--checkpoint-out", str(tmp_path / "m.ckpt"), "--log-out", str(tmp_path / "l.csv")]
    )
    assert code == 2
    assert "bands = 5 but cube has 6" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value, message",
    [("bands", 8, "says bands = 8 but cube has 6 ({cube})"),
     ("classes", 1, "says classes = 1 but label map has 2 ({labels})")],
)
def test_eval_names_the_checkpoint_that_does_not_fit_the_inputs(
    workdir, tmp_path, capsys, monkeypatch, field, value, message
):
    def no_eval(*args, **kwargs):
        raise AssertionError("evaluation started")

    monkeypatch.setattr("memformer.cli.evaluate", no_eval)
    cfg = dict(window=4, patch=2, bands=6, embed=8, layers=1, heads=2, ffn=16, memory=2, classes=2)
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(MemFormer(ModelConfig(**{**cfg, field: value})), ckpt)
    report = tmp_path / "r.txt"
    code = main(["eval", *data_flags(workdir), "--checkpoint", str(ckpt), "--report-out", str(report)])
    assert code == 2
    assert capsys.readouterr().err == f"error: {ckpt} {message.format(**workdir)}\n"
    assert not report.exists()


def test_cli_rejects_label_cube_shape_mismatch(workdir, tmp_path, capsys):
    other_labels = str(tmp_path / "other.hsl")
    main(
        ["synth", "--height", "10", "--width", "12", "--bands", "6", "--classes", "2",
         "--seed", "1", "--out-cube", str(tmp_path / "o.hsc"), "--out-labels", other_labels]
    )
    capsys.readouterr()
    code = main(
        ["eval", "--cube", workdir["cube"], "--labels", other_labels,
         "--manifest", workdir["manifest"], "--checkpoint", "x.ckpt",
         "--report-out", str(tmp_path / "r.txt")]
    )
    assert code == 2
    assert "label map is 10x12 but cube is 12x12" in capsys.readouterr().err


def test_cli_detects_manifest_label_disagreement(workdir, tmp_path, capsys):
    manifest_text = Path(workdir["manifest"]).read_text()
    lines = manifest_text.splitlines()
    # flip the class on the first data row
    first = lines[0].split(",")
    first[3] = "2" if first[3] == "1" else "1"
    lines[0] = ",".join(first)
    bad = tmp_path / "bad_manifest.csv"
    bad.write_text("\n".join(lines) + "\n")
    code = main(
        ["eval", "--cube", workdir["cube"], "--labels", workdir["labels"],
         "--manifest", str(bad), "--checkpoint", "x.ckpt",
         "--report-out", str(tmp_path / "r.txt")]
    )
    assert code == 2
    assert "manifest says class" in capsys.readouterr().err
