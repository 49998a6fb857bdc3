"""Every def under ``src/memformer/`` runs in some CLI subcommand or demo.

The whole CLI pipeline on a 12x12 scene, a second split with no validation
pixels and a training on it, and the six demos run in process under
``sys.setprofile``, which notes each code object entered. A def that
none of them enters is code that only tests call; the ones that stay anyway
are listed in ``ALLOWED`` with the reason. A def nested in a def that never
runs (a ``grad_fn``) is covered by its parent's entry.
"""

import ast
import csv
import runpy
import sys
from pathlib import Path

from memformer.cli import main

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "memformer"
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# def never entered -> why it stays
_TRACED = "perfbench/tracer.py wraps it by name until the tracer keys on node ops (ROADMAP item 1)"
ALLOWED = {
    "autodiff.sub": _TRACED + ", which deletes it",
    "autodiff.mul": _TRACED + ", which deletes it",
    "autodiff.narrow": _TRACED + ", which deletes it",
    "autodiff.tensor_sum": _TRACED + ", which deletes it",
    "autodiff.softmax_rows": _TRACED + "; attention softmaxes inside the fused attend node",
    "autodiff.Tensor.__repr__": "Python calls it only to show a Tensor, when debugging",
}

CONFIG = """
window = 4
patch = 2
embed = 8
layers = 1
heads = 2
ffn = 16
memory = 2
dropout = 0.1
epochs = 2
batch_size = 16
"""


def _defs():
    """(file, first line) -> (qualified name, the enclosing def's key or None)
    for every def under src/memformer/; a decorated def's first line is its
    first decorator's, as in its code object."""
    found = {}

    def visit(node, path, prefix, parent):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = child.decorator_list[0].lineno if child.decorator_list else child.lineno
                key = (str(path), first)
                found[key] = (f"{prefix}.{child.name}", parent)
                visit(child, path, f"{prefix}.{child.name}", key)
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}.{child.name}", parent)
            else:
                visit(child, path, prefix, parent)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path.resolve(), path.stem, None)
    return found


def _cli(capsys):
    Path("c.cfg").write_text(CONFIG)
    data = ["--cube", "s.hsc", "--labels", "s.hsl", "--manifest", "m.csv"]
    for argv in (
        ["synth", "--height", "12", "--width", "12", "--bands", "4", "--classes", "3",
         "--out-cube", "s.hsc", "--out-labels", "s.hsl"],
        ["split", "--labels", "s.hsl", "--train-frac", "0.4", "--val-frac", "0.2", "--test-frac", "0.4",
         "--out", "m.csv"],
        ["train", *data, "--config", "c.cfg", "--checkpoint-out", "m.mfck", "--log-out", "log.csv"],
        ["eval", *data, "--checkpoint", "m.mfck", "--report-out", "eval.txt"],
        ["ablate-attention", *data, "--config", "c.cfg", "--report-out", "attn.csv"],
        ["ablate-pe", *data, "--config", "c.cfg", "--report-out", "pe.csv"],
        ["sweep-memory", *data, "--config", "c.cfg", "--report-out", "sweep.csv", "--sizes", "1,2"],
        ["params", "--config", "c.cfg"],
    ):
        assert main(argv) == 0, argv
    # an empty validation split: the last epoch is kept and both val columns are NaN
    assert main(["split", "--labels", "s.hsl", "--train-frac", "0.4", "--val-frac", "0", "--test-frac", "0.4",
                 "--out", "m0.csv"]) == 0
    capsys.readouterr()
    assert main(["train", "--cube", "s.hsc", "--labels", "s.hsl", "--manifest", "m0.csv", "--config", "c.cfg",
                 "--checkpoint-out", "m0.mfck", "--log-out", "log0.csv"]) == 0
    assert "best epoch 2 " in capsys.readouterr().out
    with open("log0.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["epoch"], r["val_loss"], r["val_acc"]) for r in rows] == [("1", "nan", "nan"), ("2", "nan", "nan")]


def test_every_def_runs_in_the_cli_or_a_demo(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    codes = set()

    def note(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(note)
    try:
        _cli(capsys)
        for demo in DEMOS:
            runpy.run_path(str(demo), run_name="__main__")
    finally:
        sys.setprofile(None)

    entered = {(str(Path(c.co_filename).resolve()), c.co_firstlineno) for c in codes}
    defs = _defs()
    never = {name for key, (name, parent) in defs.items()
             if key not in entered and (parent is None or parent in entered)}
    assert never == set(ALLOWED)
