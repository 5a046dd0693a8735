"""Runs one workload in this process and prints its result.

Started by ``run.py`` with the same arguments. The run is split into
``ROUNDS`` rounds of equal length. Each round imports ``cnfgrad`` afresh,
as a new ``cnfgrad`` process pays it, sets the workload up, and repeats
its measured phase until the round's share of ``--seconds`` has passed.
With ``--trace 1`` the rounds alternate untraced and traced, so the
traced repetitions can be checked against the untraced ones and the
tracing overhead measured in the same process.

Prints two lines: a detail object (environment, coverage, the metrics
under their per-workload names, per-span self times) and, last, the
result object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

from tracer import Tracer, optional_span  # noqa: E402
from workloads import WORKLOADS, coverage  # noqa: E402

# Set-ups per run, spread over the run; setup_s is their median. An odd
# count lets a traced run start and end with an untraced round.
ROUNDS = 5
MODULES = ("tensor", "cnf", "closs", "nn", "datasets", "tasks", "verify", "cli")
# Address-space cap, so that running out of memory raises MemoryError here
# instead of waking the kernel's OOM killer.
MEMORY_LIMIT_BYTES = 5 * 2**30

# Self-time metrics of the traced run: name -> (span, kind of run it is timed in).
SELF_TIMES = {
    "tensor.backward_s": ("tensor.backward", "phase"),
    "closs.cnf_loss_s": ("closs.cnf_loss", "phase"),
    "closs.assemble_prediction_s": ("closs.assemble_prediction", "phase"),
    "closs.bound_loss_s": ("closs.bound_loss", "phase"),
    "closs.closed_form_grad_s": ("closs.closed_form_grad", "phase"),
    "closs.cnf_loss_forward_s": ("closs.cnf_loss_forward", "phase"),
    "nn.forward_s": ("nn.forward", "phase"),
    "nn.step_s": ("nn.step", "phase"),
    "nn.train_epoch_self_s": ("nn.train_epoch", "phase"),
    "nn.inference_trick_s": ("nn.inference_trick", "phase"),
    "tasks.instance_loss_self_s": ("tasks.instance_loss", "phase"),
    "tasks.evaluate_s": ("tasks.evaluate", "phase"),
    "tasks.make_task_s": ("tasks.make_task", "setup"),
    "tasks.make_data_s": ("tasks.make_data", "setup"),
    "datasets.gen_grid_puzzles_s": ("datasets.gen_grid_puzzles", "setup"),
    "datasets.solved_boards_s": ("datasets.solved_boards", "setup"),
    "datasets.naked_single_completion_s": ("datasets.naked_single_completion", "setup"),
    "datasets.synthetic_features_s": ("datasets.synthetic_features", "setup"),
    "cnf.build_matrix_s": ("cnf.build_matrix", "setup"),
    "cnf.brute_force_s": ("cnf.brute_force", "phase"),
    "verify.golden_s": ("verify.golden", "phase"),
    "verify.value_suite_s": ("verify.value_suite", "phase"),
    "verify.gradient_suite_s": ("verify.gradient_suite", "phase"),
    "verify.tgf_suite_s": ("verify.tgf_suite", "phase"),
    "verify.finite_difference_suite_s": ("verify.finite_difference_suite", "phase"),
}
ROOT_SPANS = ("bench.train", "bench.eval", "bench.verify")
# Roots of the work counted by throughput_per_s; the training graph per
# instance leaves out evaluation.
WORK_SPANS = ("bench.train", "bench.verify")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Run one cnfgrad benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def fresh_import() -> tuple[dict, float]:
    """Import cnfgrad from scratch; numpy stays loaded, as it is cheap to share."""
    for name in [n for n in sys.modules if n == "cnfgrad" or n.startswith("cnfgrad.")]:
        del sys.modules[name]
    start = time.perf_counter()
    mods = {name: importlib.import_module(f"cnfgrad.{name}") for name in MODULES}
    seconds = time.perf_counter() - start
    origin = os.path.dirname(os.path.abspath(mods["tensor"].__file__))
    if origin != os.path.join(SRC, "cnfgrad"):
        raise RuntimeError(f"cnfgrad imported from {origin}, not from this checkout")
    return mods, seconds


def _blas_library():
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line and ".so" in line})
    except OSError:
        return None
    return ctypes.CDLL(paths[0]) if paths else None


def environment(seed: int) -> dict:
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": "unknown",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": None,
        "seed": seed,
        "cpu": platform.processor() or platform.machine(),
    }
    lib = _blas_library()
    if lib is not None:
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                getter = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if getter is not None and env["blas_threads"] is None:
                    getter.argtypes, getter.restype = [], ctypes.c_int
                    env["blas_threads"] = int(getter())
                if config is not None and env["openblas"] == "unknown":
                    config.argtypes, config.restype = [], ctypes.c_char_p
                    env["openblas"] = config().decode()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = [line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")]
        if models:
            env["cpu"] = models[0]
    except OSError:
        pass
    return env


def steady_rate(reps: list) -> float:
    """Lower quartile of the repetitions' work rates.

    The host alternates between a common speed and bursts, lasting
    seconds, in which the same work runs up to 1.8 times faster. The
    median moves with the share of a run that falls in bursts; the lower
    quartile keeps the common speed while bursts cover up to three
    quarters of the run.
    """
    rates = [r.work / r.seconds for r in reps]
    return statistics.quantiles(rates, n=4)[0] if len(rates) > 1 else rates[0]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def layer_metrics(tracer: Tracer, traced: list, untraced: list) -> tuple[dict, list]:
    """Per-layer metrics, plus every measured-phase span's self time and calls.

    A ``_s`` metric is self time per traced repetition, or per traced
    set-up for set-up spans.
    """
    summary, calls_by_parent = tracer.summarize()
    reps = len(traced)
    runs = {"phase": reps, "setup": tracer.run_kinds.count("setup")}

    def row(name: str, kind: str = "phase") -> dict:
        return summary.get(kind, {}).get(name, {"self_s": 0.0, "calls": 0, "nodes": 0, "bytes": 0})

    def by_parent(name: str, parent: str) -> int:
        return calls_by_parent.get("phase", {}).get(f"{name}<{parent}", 0)

    work = traced[0].work
    out = {name: metric(row(span, kind)["self_s"] / runs[kind], "s") for name, (span, kind) in SELF_TIMES.items()}

    root_nodes = sum(row(name)["nodes"] for name in WORK_SPANS) - row("tasks.evaluate")["nodes"]
    root_bytes = sum(row(name)["bytes"] for name in WORK_SPANS) - row("tasks.evaluate")["bytes"]
    out["tensor.nodes_per_inst"] = metric(root_nodes / reps / work, "count")
    out["tensor.bytes_per_inst"] = metric(root_bytes / reps / work, "B")
    out["tensor.backward_calls"] = metric(row("tensor.backward")["calls"] / reps, "count")
    cnf = row("closs.cnf_loss")
    out["closs.cnf_loss_ms_per_call"] = metric(1e3 * cnf["self_s"] / cnf["calls"] if cnf["calls"] else 0.0, "ms")
    training_forwards = row("nn.forward")["calls"] - by_parent("nn.forward", "nn.predict")
    out["nn.forward_calls_per_inst"] = metric(training_forwards / reps / work, "count")
    boards = row("nn.inference_trick")["calls"]
    out["nn.predict_calls_per_board"] = metric(
        by_parent("nn.predict", "nn.inference_trick") / boards if boards else 0.0, "count"
    )
    tried = row("datasets.naked_single_completion", "setup")["calls"]
    returned = tracer.counts["datasets.gen_grid_puzzles.returned"]
    out["datasets.puzzle_accept_ratio"] = metric(returned / tried if tried else 0.0, "fraction")
    screened = row("cnf.brute_force")["calls"]
    satisfiable = tracer.counts["cnf.brute_force.satisfiable"]
    out["cnf.screen_accept_ratio"] = metric(satisfiable / screened if screened else 0.0, "fraction")
    out["trace.untraced_s"] = metric(sum(row(name)["self_s"] for name in ROOT_SPANS) / reps, "s")
    untraced_rate = steady_rate(untraced)
    traced_rate = steady_rate(traced)
    out["trace.overhead_frac"] = metric(untraced_rate / traced_rate - 1.0, "fraction")
    spans = sorted(summary.get("phase", {}).items(), key=lambda item: -item[1]["self_s"])
    table = [{"span": name, "self_s": r["self_s"] / reps, "calls": r["calls"] / reps} for name, r in spans]
    return out, table


def run(args: argparse.Namespace) -> tuple[dict, dict]:
    workload = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    errors: list = []

    env = environment(args.seed)
    setup_times: list = []  # (traced, seconds)
    reps: list = []  # (traced, Rep)
    started = time.perf_counter()
    for round_no in range(ROUNDS):
        traced = tracer is not None and round_no % 2 == 1
        gc.collect()
        mods, import_s = fresh_import()
        if traced:
            tracer.install(mods)
            tracer.begin_run("setup")
        with optional_span(tracer if traced else None, "bench.setup"):
            start = time.perf_counter()
            state = workload.setup(mods, args.seed)
            setup_times.append((traced, import_s + time.perf_counter() - start))
        round_end = args.seconds * (round_no + 1) / ROUNDS
        while True:
            if traced:
                tracer.begin_run("phase")
            gc.collect()
            reps.append((traced, workload.run(mods, state, tracer if traced else None)))
            if time.perf_counter() - started >= round_end:
                break
        if traced:
            tracer.uninstall()

    first = reps[0][1]
    attempted = sum(r.attempted for _, r in reps)
    failed = sum(r.failed for _, r in reps)
    for k, (traced, rep) in enumerate(reps):
        errors.extend(f"repetition {k}: {e}" for e in rep.errors)
        if rep.fingerprint is not None and rep.fingerprint != first.fingerprint:
            failed += 1
            errors.append(f"repetition {k} ({'traced' if traced else 'untraced'}) differs from repetition 0")
    untraced = [r for t, r in reps if not t]
    traced_reps = [r for t, r in reps if t]

    rate = steady_rate(untraced)
    median_rate = statistics.median(r.work / r.seconds for r in untraced)
    setup_s = statistics.median(t for traced, t in setup_times if not traced)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    named = {"setup_s": metric(setup_s, "s")}
    if workload.task_name is None:
        named["verify_cases_per_s"] = metric(rate, "1/s")
    else:
        named["train_inst_per_s"] = metric(rate, "1/s")
    if "acc_test" in first.extra:
        named["acc_test"] = metric(first.extra["acc_test"], "fraction")
    if "eval_inst_per_s" in first.extra:
        named["eval_inst_per_s"] = metric(statistics.median(r.extra["eval_inst_per_s"] for r in untraced), "boards/s")
        named["violation_rate"] = metric(first.extra["violation_rate"], "fraction")
    named["peak_rss_mb"] = metric(peak_rss_mb, "MB")

    detail = {
        "workload": workload.name,
        "trace": args.trace,
        "environment": env,
        "coverage": coverage(mods["tasks"].TASK_NAMES),
        "repetitions": {"untraced": len(untraced), "traced": len(traced_reps)},
        "setup_times_s": [t for _, t in setup_times],
        "repetition_s": [r.seconds for _, r in reps],
        "median_rate_per_s": median_rate,
        "named_metrics": named,
        "errors": errors,
    }
    if tracer is None:
        metrics = {
            "setup_s": metric(setup_s, "s"),
            "throughput_per_s": metric(rate, "1/s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        }
    else:
        metrics, detail["spans"] = layer_metrics(tracer, traced_reps, untraced)
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.dump(os.path.join(OUT_DIR, f"trace-{workload.name}.jsonl"))
    result = {"correct": failed == 0, "attempted": max(attempted, 1), "failed": failed, "metrics": metrics}
    return detail, result


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, SRC)
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    limit = MEMORY_LIMIT_BYTES if hard == resource.RLIM_INFINITY else min(MEMORY_LIMIT_BYTES, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
    try:
        detail, result = run(args)
    except Exception:
        # Print no result: run.py then reports the run as failed.
        traceback.print_exc()
        return 1
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
