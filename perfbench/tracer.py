"""Outside-in span tracer for the memformer package.

``Tracer.install`` replaces, for the length of a traced run, the attributes
that memformer's own code looks up at call time: module functions
(``memformer.attention.attend``), class methods (``MemFormer.forward``),
the autodiff primitives, and the ``_grad_fn`` of every node a primitive
returns. Each call records one span ``[name, parent, phase, start, end,
nodes, work]``; ``work`` is a FLOP or byte count computed from shapes.
Spans stay in memory until the run ends, when ``summarize`` turns them into
per-layer metrics and ``write`` dumps them. ``uninstall`` restores every
attribute, so untraced runs never pass through a wrapper. Nothing under
``src/`` knows about any of this.

A span's layer is the first component of its name; ``bench.*`` spans mark
the benchmark's own set-up and operations and belong to no layer.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import time

import numpy as np

from memformer import attention, autodiff, data, embedding, harness, model, optim

LAYERS = ("data", "embedding", "attention", "model", "autodiff", "optim", "harness")

# autodiff primitive (module attribute) -> the node's ``_op`` label
PRIMITIVES = {
    "add": "add",
    "sub": "sub",
    "mul": "mul",
    "matmul": "matmul",
    "relu": "relu",
    "softmax_rows": "softmax",
    "layer_norm": "layer_norm",
    "dropout": "dropout",
    "cross_entropy": "cross_entropy",
    "reshape": "reshape",
    "transpose": "transpose",
    "broadcast_to": "broadcast",
    "concat": "concat",
    "narrow": "narrow",
    "tensor_sum": "sum",
    "tensor_mean": "mean",
}

# the primitives the default model and its ablation variants execute; each
# gets its own forward-time, grad_fn-time and node-count metric
REPORTED_OPS = (
    "add",
    "mul",
    "matmul",
    "relu",
    "softmax",
    "layer_norm",
    "cross_entropy",
    "reshape",
    "transpose",
    "broadcast",
    "concat",
    "mean",
)

PE_MODES = ("none", "learnable", "sinusoidal1d", "sspe")

NAME, PARENT, PHASE, START, END, NODES, WORK = range(7)

# spans whose call count is an exact figure compared across operations and runs
_COUNTED = frozenset({"attention.attend", "data.extract_window", "harness.step", "model.forward_eval"})


def _train_flag(args, kwargs):
    # forward(self, x, train=False, ...) for MemFormer and both attention blocks
    return bool(kwargs.get("train", args[2] if len(args) > 2 else False))


def _matmul_flop(args, out):
    return 2 * out.data.size * args[0].shape[-1]


def _attend_flop(args):
    # scores (B,h,T,L) from (B,h,T,K/h) x (B,h,K/h,L), then (B,h,T,L) x (B,h,L,K/h)
    q, k_mem = args[0], args[1]
    b, t, k = q.shape
    return 4 * b * t * k_mem.shape[1] * k


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.phase = "setup"
        self._saved = []

    # -- recording -----------------------------------------------------------
    def _open(self, name):
        rec = [name, self._stack[-1] if self._stack else -1, self.phase, 0.0, 0.0, 0, 0]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        rec[START] = time.perf_counter()
        return rec

    def _close(self, rec):
        rec[END] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        """Record one span around a block of benchmark code."""
        rec = self._open(name)
        try:
            yield rec
        finally:
            self.unwind(rec)

    def unwind(self, rec):
        """Close ``rec`` and any span an exception left open above it."""
        now = time.perf_counter()
        while self._stack:
            top = self.spans[self._stack.pop()]
            top[END] = now
            if top is rec:
                break

    def count(self, name):
        return sum(1 for rec in self.spans if rec[NAME] == name and rec[PHASE] == "op")

    # -- wrappers ----------------------------------------------------------------
    def _timed(self, name, fn, work=None):
        """Wrap ``fn``; ``name`` may be a function of the call's arguments,
        ``work`` one that computes the call's FLOP or byte count."""
        namer = name if callable(name) else None

        def wrapper(*args, **kwargs):
            rec = self._open(namer(args, kwargs) if namer else name)
            if work is not None:
                rec[WORK] = work(args)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)

        return wrapper

    def _grad(self, op, fn, work):
        name = "autodiff.grad." + op

        def wrapper(g):
            rec = self._open(name)
            rec[WORK] = work
            try:
                return fn(g)
            finally:
                self._close(rec)

        return wrapper

    def _primitive(self, op, fn):
        name = "autodiff.fwd." + op

        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if out is args[0]:  # dropout at rate 0 or in eval mode returns its input
                return out
            rec[NODES] = 1
            if op == "matmul":
                rec[WORK] = _matmul_flop(args, out)
            elif op == "broadcast":
                rec[WORK] = out.data.nbytes
            if out._grad_fn is not None:
                # each matmul grad_fn runs two products of the forward's size
                out._grad_fn = self._grad(op, out._grad_fn, 2 * rec[WORK] if op == "matmul" else 0)
            return out

        return wrapper

    def _step_open(self, fn):
        # a train step has no function of its own inside harness.train: it
        # runs from Adam.zero_grad to the end of Adam.step, so the step span
        # opens here and closes in _step_close
        def wrapper(*args, **kwargs):
            self._open("harness.step")
            rec = self._open("optim.zero_grad")
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)

        return wrapper

    def _step_close(self, fn):
        def wrapper(*args, **kwargs):
            rec = self._open("optim.step")
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)
                if self._stack and self.spans[self._stack[-1]][NAME] == "harness.step":
                    self._close(self.spans[self._stack[-1]])

        return wrapper

    def _targets(self):
        wrap = self._timed
        yield model, "tokenize_batch", wrap("embedding.tokenize_batch", model.tokenize_batch)
        proj = embedding.PatchProjector.forward
        yield embedding.PatchProjector, "forward", wrap("embedding.projector", proj)
        yield embedding.PositionalEmbedding, "forward", wrap(
            lambda a, k: "embedding.positional." + a[0].mode, embedding.PositionalEmbedding.forward
        )
        yield attention, "attend", wrap("attention.attend", attention.attend, _attend_flop)
        yield attention, "project_memory", wrap("attention.project_memory", attention.project_memory)
        yield attention, "update_memory", wrap("attention.update_memory", attention.update_memory)
        yield attention.MemoryAttention, "forward", wrap(
            lambda a, k: "attention.memory_block." + ("train" if _train_flag(a, k) else "eval"),
            attention.MemoryAttention.forward,
        )
        std = attention.StandardAttention.forward
        yield attention.StandardAttention, "forward", wrap("attention.standard_block", std)
        yield model.MemFormer, "forward", wrap(
            lambda a, k: "model.forward_" + ("train" if _train_flag(a, k) else "eval"),
            model.MemFormer.forward,
        )
        yield model._EncoderLayer, "ffn", wrap("model.ffn", model._EncoderLayer.ffn)
        yield model, "save_checkpoint", wrap("model.checkpoint_save", model.save_checkpoint)
        yield model, "load_checkpoint", wrap("model.checkpoint_load", model.load_checkpoint)
        yield autodiff.Tensor, "backward", wrap("autodiff.backward", autodiff.Tensor.backward)
        yield optim.Adam, "zero_grad", self._step_open(optim.Adam.zero_grad)
        yield optim.Adam, "step", self._step_close(optim.Adam.step)
        yield harness, "train", wrap("harness.train", harness.train)
        yield harness, "evaluate", wrap("harness.evaluate", harness.evaluate)
        yield harness, "_run_trial", wrap("harness.trial", harness._run_trial)
        yield harness, "extract_samples", wrap("data.extract_samples", harness.extract_samples)
        yield harness, "extract_window", wrap("data.extract_window", harness.extract_window)
        yield data, "synth_scene", wrap("data.synth_scene", data.synth_scene)
        yield data, "stratified_split", wrap("data.stratified_split", data.stratified_split)
        for attr, op in PRIMITIVES.items():
            yield autodiff, attr, self._primitive(op, getattr(autodiff, attr))

    def install(self):
        for owner, attr, wrapper in self._targets():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- output ----------------------------------------------------------------
    def write(self, path):
        with gzip.open(path, "wt") as fh:
            json.dump({"fields": ["name", "parent", "phase", "start", "end", "nodes", "work"],
                       "spans": self.spans}, fh)

    def summarize(self, unit):
        """Per-layer metrics over the ``op`` phase, per ``unit`` span.

        Returns ``(metrics, checks)``: metrics maps name -> (value, unit),
        checks holds the coverage figures and the exact per-operation
        counts the caller compares across operations and runs.
        """
        spans = self.spans
        n = len(spans)
        dur = [rec[END] - rec[START] for rec in spans]
        child = [0.0] * n
        op_of = [-1] * n  # index of the enclosing bench.op span
        in_train = [False] * n  # inside a harness.train call
        for i, rec in enumerate(spans):
            p = rec[PARENT]
            if p >= 0:
                child[p] += dur[i]
                op_of[i] = op_of[p]
                in_train[i] = in_train[p]
            if rec[NAME] == "bench.op":
                op_of[i] = i
            elif rec[NAME] == "harness.train":
                in_train[i] = True
        self_time = [dur[i] - child[i] for i in range(n)]

        total, self_total, calls, nodes, work = {}, {}, {}, {}, {}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        per_op = {}
        setup_total, setup_calls = {}, {}
        eval_in_train = 0.0
        train_wall = 0.0
        steps, evals = [], []
        for i, rec in enumerate(spans):
            name = rec[NAME]
            if rec[PHASE] != "op":
                setup_total[name] = setup_total.get(name, 0.0) + dur[i]
                setup_calls[name] = setup_calls.get(name, 0) + 1
                continue
            total[name] = total.get(name, 0.0) + dur[i]
            self_total[name] = self_total.get(name, 0.0) + self_time[i]
            calls[name] = calls.get(name, 0) + 1
            nodes[name] = nodes.get(name, 0) + rec[NODES]
            work[name] = work.get(name, 0) + rec[WORK]
            layer = name.split(".", 1)[0]
            if layer in layer_self:
                layer_self[layer] += self_time[i]
            if name == "harness.step":
                steps.append((dur[i], self_time[i]))
            elif name == "harness.evaluate":
                evals.append((dur[i], self_time[i]))
            elif name == "harness.train":
                train_wall += dur[i]
            elif name == "model.forward_eval" and in_train[i]:
                eval_in_train += dur[i]
            if op_of[i] >= 0 and (rec[NODES] or rec[WORK] or name in _COUNTED):
                counts = per_op.setdefault(op_of[i], {})
                key = name + (".nodes" if rec[NODES] else ".calls")
                counts[key] = counts.get(key, 0) + 1
                if rec[WORK]:
                    counts[name + ".work"] = counts.get(name + ".work", 0) + rec[WORK]

        units = calls.get(unit, 0)
        per = 1.0 / units if units else 0.0

        def ms(name, inclusive=True):
            return 1e3 * (total if inclusive else self_total).get(name, 0.0) * per

        def mean_setup_ms(name):
            c = setup_calls.get(name, 0)
            return 1e3 * setup_total.get(name, 0.0) / c if c else 0.0

        m = {}
        for layer in LAYERS:
            m[f"{layer}.self_ms"] = (1e3 * layer_self[layer] * per, "ms")
        m["autodiff.backward_ms"] = (ms("autodiff.backward"), "ms")
        m["autodiff.backward_overhead_ms"] = (ms("autodiff.backward", inclusive=False), "ms")
        for op in REPORTED_OPS:
            m[f"autodiff.grad_fn_ms.{op}"] = (ms("autodiff.grad." + op), "ms")
        for op in REPORTED_OPS:
            m[f"autodiff.op_fwd_ms.{op}"] = (ms("autodiff.fwd." + op, inclusive=False), "ms")
        for op in REPORTED_OPS:
            m[f"autodiff.graph_nodes.{op}"] = (nodes.get("autodiff.fwd." + op, 0) * per, "count")
        m["autodiff.matmul_gflop"] = (work.get("autodiff.fwd.matmul", 0) * per / 1e9, "GFLOP")
        m["autodiff.matmul_grad_gflop"] = (work.get("autodiff.grad.matmul", 0) * per / 1e9, "GFLOP")
        m["autodiff.broadcast_mb"] = (work.get("autodiff.fwd.broadcast", 0) * per / 1e6, "MB")

        m["attention.memory_block_fwd_ms.train"] = (ms("attention.memory_block.train"), "ms")
        m["attention.memory_block_fwd_ms.eval"] = (ms("attention.memory_block.eval"), "ms")
        m["attention.standard_block_fwd_ms"] = (ms("attention.standard_block"), "ms")
        m["attention.attend_ms"] = (ms("attention.attend"), "ms")
        m["attention.attend_calls"] = (calls.get("attention.attend", 0) * per, "count")
        m["attention.attend_mflop"] = (work.get("attention.attend", 0) * per / 1e6, "MFLOP")
        m["attention.project_memory_ms"] = (ms("attention.project_memory"), "ms")
        m["attention.update_memory_ms"] = (ms("attention.update_memory"), "ms")

        m["embedding.tokenize_batch_ms"] = (ms("embedding.tokenize_batch"), "ms")
        m["embedding.projector_fwd_ms"] = (ms("embedding.projector"), "ms")
        for mode in PE_MODES:
            m[f"embedding.positional_fwd_ms.{mode}"] = (ms("embedding.positional." + mode), "ms")

        m["model.forward_train_ms"] = (ms("model.forward_train"), "ms")
        m["model.forward_eval_ms"] = (ms("model.forward_eval"), "ms")
        m["model.ffn_fwd_ms"] = (ms("model.ffn"), "ms")
        m["model.checkpoint_save_ms"] = (mean_setup_ms("model.checkpoint_save"), "ms")
        m["model.checkpoint_load_ms"] = (mean_setup_ms("model.checkpoint_load"), "ms")

        m["optim.step_ms"] = (ms("optim.step"), "ms")
        m["optim.zero_grad_ms"] = (ms("optim.zero_grad"), "ms")

        step_ms = [1e3 * d for d, _ in steps]
        m["harness.step_ms_p50"] = (float(np.percentile(step_ms, 50)) if step_ms else 0.0, "ms")
        m["harness.step_ms_p90"] = (float(np.percentile(step_ms, 90)) if step_ms else 0.0, "ms")
        m["harness.epoch_eval_share"] = (eval_in_train / train_wall if train_wall else 0.0, "fraction")
        trials = calls.get("harness.trial", 0)
        m["harness.trial_s"] = (total.get("harness.trial", 0.0) / trials if trials else 0.0, "s")

        m["data.extract_samples_ms"] = (ms("data.extract_samples"), "ms")
        m["data.extract_window_calls"] = (calls.get("data.extract_window", 0) * per, "count")
        m["data.synth_scene_ms"] = (mean_setup_ms("data.synth_scene"), "ms")
        m["data.stratified_split_ms"] = (mean_setup_ms("data.stratified_split"), "ms")

        # the share of each traced step (and each evaluate call) that lies
        # inside a measured layer rather than in untraced harness code
        coverage = {}
        if steps:
            coverage["step"] = 1.0 - sum(s for _, s in steps) / sum(d for d, _ in steps)
        if evals:
            coverage["evaluate"] = 1.0 - sum(s for _, s in evals) / sum(d for d, _ in evals)
        checks = {
            "units": units,
            "coverage": coverage,
            "per_op_counts": [per_op.get(i, {}) for i, rec in enumerate(spans) if rec[NAME] == "bench.op"],
        }
        return m, checks
