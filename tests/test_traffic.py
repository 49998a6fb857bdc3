"""Every def and every ``if`` side under ``src/memformer/`` runs in some CLI
subcommand or demo.

The whole CLI pipeline on a 12x12 scene, a second split with no validation
pixels and a training on it, and the six demos run once, in process, under
``sys.settrace``. For each frame of a file under ``src/memformer/`` it notes
the code object entered and every line arc taken: from one line to the next
executed, or to minus the def's first line for a return.

A def that none of them enters is code that only tests call; the ones that
stay anyway are listed in ``ALLOWED`` with the reason. A def nested in a def
that never runs (a ``grad_fn``) is covered by its parent's entry.

For each ``if`` statement whose test ran, the arcs out of the test must
enter the body and must reach somewhere else: the ``else``, the next line,
the loop header or the return. A side that no run takes is a branch only
tests take; the ones that stay anyway are listed in ``ALLOWED_BRANCHES``,
keyed by the enclosing def and the test's text, with the reason. A body
that ends in ``raise`` is an error check, and its entry is not required.
Conditional expressions and the operands of ``and``/``or`` make no line
arcs, so this check does not cover them.

``sys.settrace`` traces the thread that calls it only, so the tracer is
also installed on the autodiff worker thread, by a task that calls
``sys.settrace`` there. That thread encodes half of each read-only
``MemFormer.forward`` batch, half the rows of each recording ``_mlp`` and
the leaf gradients of each ``backward``; a def or ``if`` side counts when
it runs on either thread.
"""

import ast
import collections
import contextlib
import csv
import io
import runpy
import sys
from pathlib import Path

import pytest

from memformer import autodiff as ad
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
    "autodiff.softmax_rows": "the README names it as the way to turn logits into probabilities; "
    "attention softmaxes inside the fused attend node",
    "autodiff.Tensor.__repr__": "Python calls it only to show a Tensor, when debugging",
    "autodiff._start_worker": "it runs at import and then only in a forked child, which no CLI run or demo "
    "makes; test_harness.py's test_a_forked_child_gets_a_fresh_worker_and_the_parents_results forks one",
}

# (def, if test) whose body no run enters -> why it stays
ALLOWED_BRANCHES = {
    ("autodiff.Tensor.backward", "not self.requires_grad"):
        "a constant loss, which must not give a constant a gradient",
    ("data.stratified_split", "n == 0"):
        "a class id that the label map skips, which would otherwise fail the three-pixel rule",
    ("metrics.cohens_kappa", "denom == 0"):
        "all mass in one row and one column, where the ratio is undefined",
    ("model.load_checkpoint", "expect is not None"):
        "only the benchmark's eval workload passes expect",
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


def _scan():
    """Every def and every ``if`` under src/memformer/.

    Returns ``defs``: (file, first line) -> (qualified name, the enclosing
    def's key or None), a decorated def's first line being its first
    decorator's, as in its code object; and ``ifs``: a list of (file, the
    ``If`` node, the qualified name of the def it is in, or the module's)."""
    defs, ifs = {}, []

    def visit(node, path, prefix, parent):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = child.decorator_list[0].lineno if child.decorator_list else child.lineno
                key = (str(path), first)
                defs[key] = (f"{prefix}.{child.name}", parent)
                visit(child, path, f"{prefix}.{child.name}", key)
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}.{child.name}", parent)
            else:
                if isinstance(child, ast.If):
                    ifs.append((str(path), child, prefix))
                visit(child, path, prefix, parent)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path.resolve(), path.stem, None)
    return defs, ifs


def _cli():
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
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["train", "--cube", "s.hsc", "--labels", "s.hsl", "--manifest", "m0.csv", "--config", "c.cfg",
                     "--checkpoint-out", "m0.mfck", "--log-out", "log0.csv"]) == 0
    assert "best epoch 2 " in out.getvalue()
    with open("log0.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["epoch"], r["val_loss"], r["val_acc"]) for r in rows] == [("1", "nan", "nan"), ("2", "nan", "nan")]


@pytest.fixture(scope="module")
def traffic(tmp_path_factory):
    """The CLI pipeline and the demos, run once under ``sys.settrace``.

    Returns the code objects entered in files under src/memformer/, and per
    resolved file the set of line arcs (from, to) taken in them; a return
    goes to minus the def's first line. The line after an exception starts
    no arc, so a test that raises takes neither side.
    """
    codes = set()
    arcs = collections.defaultdict(set)
    resolved = {}

    def call(frame, event, arg):
        code = frame.f_code
        if code.co_filename not in resolved:
            path = Path(code.co_filename).resolve()
            resolved[code.co_filename] = str(path) if path.parent == SRC else None
        path = resolved[code.co_filename]
        if path is None:
            return None
        codes.add(code)
        taken = arcs[path]
        prev = -code.co_firstlineno

        def step(frame, event, arg):
            nonlocal prev
            if event == "line":
                if prev is not None:
                    taken.add((prev, frame.f_lineno))
                prev = frame.f_lineno
            elif event == "return" and prev is not None:
                taken.add((prev, -code.co_firstlineno))
            elif event == "exception":
                prev = None
            return step

        return step

    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(tmp_path_factory.mktemp("traffic"))
        sys.settrace(call)
        ad._WORKER.submit(sys.settrace, call).result(timeout=60)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                _cli()
                for demo in DEMOS:
                    runpy.run_path(str(demo), run_name="__main__")
        finally:
            ad._WORKER.submit(sys.settrace, None).result(timeout=60)
            sys.settrace(None)
    return codes, arcs


def test_every_def_runs_in_the_cli_or_a_demo(traffic):
    codes, _ = traffic
    entered = {(str(Path(c.co_filename).resolve()), c.co_firstlineno) for c in codes}
    defs, _ = _scan()
    never = {name for key, (name, parent) in defs.items()
             if key not in entered and (parent is None or parent in entered)}
    assert never == set(ALLOWED)


def _head(stmt):
    """The lines of the first thing ``stmt`` executes: a compound statement's
    header, or the whole of a simple one."""
    body = getattr(stmt, "body", None)
    end = max(stmt.lineno, body[0].lineno - 1) if isinstance(body, list) and body else stmt.end_lineno
    return set(range(stmt.lineno, end + 1))


def test_every_if_side_runs_in_the_cli_or_a_demo(traffic):
    _, arcs = traffic
    _, ifs = _scan()
    missing = {}
    for path, node, owner in ifs:
        test = range(node.lineno, node.test.end_lineno + 1)
        exits = {dst for src, dst in arcs[path] if src in test and dst not in test}
        if not exits:  # the test never ran
            continue
        body = _head(node.body[0])
        side = None
        if not exits & body and not isinstance(node.body[-1], ast.Raise):
            side = "body"
        elif exits <= body:
            side = "else"
        if side:
            missing[(owner, ast.unparse(node.test))] = f"line {node.lineno}: {side}"
    unexpected = {key: side for key, side in missing.items() if key not in ALLOWED_BRANCHES}
    assert not unexpected, f"if sides no run takes: {unexpected}"
    assert set(missing) == set(ALLOWED_BRANCHES), f"allowed sides that a run takes: {set(ALLOWED_BRANCHES) - set(missing)}"
