"""Benchmark of the memformer package: ``train``, ``eval`` and ``ablate``.

    python3 perfbench/run.py --workload train --seed 1 --seconds 30 --trace 0

Run from the root of a source tree; the package is imported from ``src/``,
nothing is installed. Each invocation is one workload in one process, a
closed loop with no extra threads and one BLAS thread.

With ``--trace 0`` the workload is set up several times (``setup_s`` is the
median import time of a fresh interpreter plus the median set-up), then
operations run back to back until the next one would end after
``--seconds``. End-to-end metrics are medians over the operations. With
``--trace 1`` untraced reference operations run first, then the outside-in
tracer of ``tracer.py`` is installed and the workload is set up and run
again until it has covered enough units (100 train steps for ``train``);
per-layer metrics come from that traced pass, and its results must equal
the untraced ones bit for bit.

Every operation is checked; one that raises or fails a check counts as
failed. Results, the environment and (traced) the span dump are written
under ``.perfbench/`` in the source tree. The last line of standard output
is the JSON summary ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# one BLAS thread: a second one bought nothing on a 2-core machine
# (104.6 vs 103.9 train samples/s) and adds scheduler noise
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# a traced run whose per-layer self times miss more of a step or an
# evaluate call than this has not accounted for where the time went
MIN_COVERAGE = 0.90
# a traced run stops adding operations after this many, covered or not
MAX_TRACED_OPS = 50


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("train", "eval", "ablate"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def src_sha256():
    digest = hashlib.sha256()
    for path in sorted((SRC / "memformer").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit():
    """HEAD of the source tree's own git checkout, or None outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_commit": git_commit(),
        "src_sha256": src_sha256(),
    }


def cold_import_times(repeats):
    """Wall times of a fresh interpreter importing numpy and memformer."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import numpy, memformer"
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return times


def attempt(wl, state):
    """Run one operation; an exception becomes a failed OpResult."""
    from workloads import OpResult

    t0 = time.perf_counter()
    try:
        return wl.op(state)
    except Exception as e:  # every operation is counted, including ones that raise
        traceback.print_exc(file=sys.stderr)
        return OpResult(time.perf_counter() - t0, "", {}, [f"raised {e!r}"])


def check_repeats(results, label):
    """Every operation's fingerprint must equal the first one produced."""
    ref = next((r.fingerprint for r in results if r.fingerprint), None)
    for i, r in enumerate(results):
        if r.fingerprint and r.fingerprint != ref:
            r.failures.append(f"{label} operation {i}: result differs from the first one")


def compare_record(path, fields, failures):
    """Compare ``fields`` with what an earlier run at this seed and source
    tree stored at ``path``; store the fields it did not have yet."""
    stored = json.loads(path.read_text()) if path.exists() else {}
    for key, value in fields.items():
        if key in stored and stored[key] != value:
            failures.append(f"{key} differs from an earlier run at this seed and source tree")
    merged = {**fields, **stored}
    if merged != stored:
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(merged, sort_keys=True))
        os.replace(tmp, path)


def run_plain(wl, args):
    # an import happens once per process, so its time is taken from fresh
    # interpreters, as often as the set-up runs
    import_times = cold_import_times(wl.setup_repeats)
    setup_times, setup_figures = [], []
    for _ in range(wl.setup_repeats):
        t0 = time.perf_counter()
        state = wl.setup(args.seed)
        setup_times.append(time.perf_counter() - t0)
        setup_figures.append(state.extra.get("setup_figures", {}))

    results = []
    started = time.perf_counter()
    while True:
        results.append(attempt(wl, state))
        elapsed = time.perf_counter() - started
        if elapsed + statistics.median(r.wall_s for r in results) > args.seconds:
            break
    check_repeats(results, "untraced")

    ok = [r for r in results if r.figures]
    if not ok:
        raise SystemExit("no operation produced a result")

    def med(key):
        if key in setup_figures[0]:
            return statistics.median(f[key] for f in setup_figures)
        return statistics.median(r.figures[key] for r in ok)

    metrics = {
        "setup_s": (statistics.median(import_times) + statistics.median(setup_times), "s"),
        "train_samples_per_s": (med("train_samples_per_s"), "1/s"),
        "eval_samples_per_s": (med("eval_samples_per_s"), "1/s"),
        "wall_s": (statistics.median(r.wall_s for r in ok), "s"),
        "oa": (med("oa"), "fraction"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    detail = {
        "import_s": import_times,
        "setup_s": setup_times,
        "op_wall_s": [r.wall_s for r in results],
        "op_figures": [r.figures for r in results],
        # reported beside the metrics but not bounded: the loss is exact per
        # seed yet spreads ~0.3 of its median from seed to seed
        "reported": {
            "final_train_loss": (med("final_train_loss"), "nats"),
            "attention.bank_nonzero_rows": (ok[-1].figures["bank_nonzero_rows"], "count"),
            "attention.bank_max_abs": (ok[-1].figures["bank_max_abs"], "abs"),
        },
    }
    return state, results, metrics, detail


def run_traced(wl, args):
    from tracer import Tracer
    from workloads import OUT_DIR

    state = wl.setup(args.seed)
    reference = [attempt(wl, state) for _ in range(wl.trace_ref_ops)]

    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("bench.setup"):
            state = wl.setup(args.seed)
        tracer.phase = "op"
        traced = []
        while len(traced) < MAX_TRACED_OPS and (
            len(traced) < wl.trace_min_ops or tracer.count(wl.unit) < wl.trace_min_units
        ):
            with tracer.span("bench.op"):
                traced.append(attempt(wl, state))
    finally:
        tracer.uninstall()

    results = reference + traced
    check_repeats(results, "traced")
    metrics, checks = tracer.summarize(wl.unit)
    failures = []
    units = checks["units"]
    if units < max(wl.trace_min_units, 1):
        failures.append(f"traced run covered {units} {wl.unit} spans, need {wl.trace_min_units}")
    for scope, share in checks["coverage"].items():
        if share < MIN_COVERAGE:
            failures.append(f"layer self times cover {share:.3f} of each {scope}, need {MIN_COVERAGE}")
    counts = checks["per_op_counts"]
    if any(c != counts[0] for c in counts[1:]):
        failures.append("exact counts differ between traced operations")

    last = next((r.figures for r in reversed(traced) if r.figures), {})
    last = {**state.extra.get("setup_figures", {}), **last}
    ok_ref = [r.wall_s for r in reference if r.figures]
    ok_traced = [r.wall_s for r in traced if r.figures]
    overhead = statistics.median(ok_traced) - statistics.median(ok_ref) if ok_ref and ok_traced else 0.0
    metrics["attention.bank_nonzero_rows"] = (last.get("bank_nonzero_rows", 0), "count")
    metrics["attention.bank_max_abs"] = (last.get("bank_max_abs", 0.0), "abs")
    metrics["harness.final_train_loss"] = (last.get("final_train_loss", 0.0), "nats")
    metrics["model.checkpoint_bytes"] = (state.extra.get("checkpoint_bytes", 0), "bytes")
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.coverage"] = (min(checks["coverage"].values(), default=0.0), "fraction")

    spans_path = OUT_DIR / f"trace-{wl.name}-seed{args.seed}.json.gz"
    tracer.write(spans_path)
    detail = {
        "reference_wall_s": ok_ref,
        "traced_wall_s": ok_traced,
        "coverage": checks["coverage"],
        "units": units,
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "counts": counts[0] if counts else {},
        "trace_failures": failures,
    }
    return state, results, metrics, detail


def main(argv=None):
    args = parse_args(argv)
    for var in BLAS_THREAD_VARS:  # before numpy is first imported, here or in a child
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import memformer
    import workloads

    if Path(memformer.__file__).resolve().parent != SRC / "memformer":
        raise SystemExit(f"imported memformer from {memformer.__file__}, not from {SRC}")

    wl = workloads.WORKLOADS[args.workload]
    out = workloads.OUT_DIR
    (out / "records").mkdir(parents=True, exist_ok=True)
    (out / "results").mkdir(exist_ok=True)
    env = environment(args.seed)

    if args.trace:
        state, results, metrics, detail = run_traced(wl, args)
    else:
        state, results, metrics, detail = run_plain(wl, args)

    failures = list(state.extra.get("setup_failures", []))
    failures += detail.get("trace_failures", [])
    record = {"fingerprint": next((r.fingerprint for r in results if r.fingerprint), None)}
    if args.trace and detail["counts"]:
        record["counts"] = detail["counts"]
    compare_record(out / "records" / f"{wl.name}-seed{args.seed}-{env['src_sha256'][:16]}.json",
                   record, failures)
    op_failures = [f for r in results for f in r.failures]
    # a failure of the run as a whole (set-up, tracing, cross-run repeat)
    # fails every operation it measured
    failed = len(results) if failures else sum(1 for r in results if r.failures)

    summary = {
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    full = {"workload": wl.name, "trace": args.trace, "env": env, "summary": summary,
            "failures": failures + op_failures, "detail": detail}
    result_path = out / "results" / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(full, indent=1, default=float))

    for msg in failures + op_failures:
        print(f"FAILED: {msg}")
    print(f"env: {json.dumps(env)}")
    print(f"workload {wl.name}: {len(results)} operations, {failed} failed")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    for name, (value, unit) in detail.get("reported", {}).items():
        print(f"  ({name} = {value:.6g} {unit}, not bounded)")
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
