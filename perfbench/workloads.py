"""The three benchmark workloads: set-up, one measured repetition, checks.

Each workload builds its inputs from the seed in ``setup`` (timed as
``setup_s``) and runs one repetition of its measured phase in ``run``;
several repetitions share one set-up. A training repetition starts from
a fresh net built from the seed, outside the timed phase. A repetition
returns the work it did, its wall time, a fingerprint that must be
identical on every repetition of the same seed, and the number of
operations that failed a correctness check.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from tracer import optional_span


# Training set sizes: a repetition lasts one to four seconds, so that a
# 30-second run holds about ten repetitions and their lower quartile
# rides out the seconds in which the host runs faster.
TRAIN_BOARDS = 1000
TRAIN_PAIRS = 8


@dataclass
class Rep:
    """One measured repetition."""

    work: int  # training instances or verify cases
    seconds: float
    attempted: int
    failed: int
    fingerprint: object
    extra: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)


def _rows_key(rows) -> tuple:
    return tuple(tuple(sorted(row.items())) for row in rows)


def _train(mods, state, tracer) -> tuple:
    """``run_training`` as ``cnfgrad train`` pays it, per-epoch eval included."""
    nn = mods["nn"]
    data, config = state["data"], state["config"]
    instances = config.epochs * len(data.train)
    # The first repetition trains the net that set-up built.
    net = state.pop("net", None) or state["task"].build_net(config.seed)
    errors = []
    with optional_span(tracer, "bench.train"):
        start = time.perf_counter()
        try:
            net, rows = nn.run_training(data, config, net)
        except nn.TrainingDiverged as exc:
            net, rows = None, []
            errors.append(f"training diverged: {exc}")
        seconds = time.perf_counter() - start
    return net, rows, instances, seconds, errors


class SudokuUnsup:
    """Unsupervised 4x4 Sudoku at the task defaults, then a checked evaluation."""

    name = "sudoku4-unsup"
    task_name = "sudoku4"

    def setup(self, mods, seed: int) -> dict:
        task = mods["tasks"].make_task(self.task_name)
        data = task.make_data(seed=seed, n_train=TRAIN_BOARDS, n_test=200, tier="easy")
        task.matrix  # built lazily; set-up pays for it
        config = task.default_config(seed=seed, epochs=1, batch_size=16)
        return {"task": task, "data": data, "config": config, "net": task.build_net(seed)}

    def run(self, mods, state, tracer) -> Rep:
        net, rows, instances, seconds, errors = _train(mods, state, tracer)
        if net is None:
            return Rep(instances, seconds, instances, instances, None, errors=errors)
        task, test = state["task"], state["data"].test
        solved = invalid = bad_solved = 0
        with optional_span(tracer, "bench.eval"):
            start = time.perf_counter()
            for inst in test:
                filled = mods["nn"].predict_with_inference_trick(net, inst.q, task)
                valid = task.verify_board(filled)
                match = bool(np.array_equal(filled, inst.solution))
                solved += match
                invalid += not valid
                bad_solved += match and not valid
            eval_seconds = time.perf_counter() - start
        acc = solved / len(test)
        if bad_solved:
            errors.append(f"{bad_solved} boards match their solution but fail clause evaluation")
        failed = bad_solved
        if acc != rows[-1]["acc_test"]:
            errors.append(f"post-training board accuracy {acc} differs from the last epoch's acc_test {rows[-1]['acc_test']}")
            failed += 1
        extra = {
            "acc_test": rows[-1]["acc_test"],
            "eval_inst_per_s": len(test) / eval_seconds,
            "violation_rate": invalid / len(test),
        }
        return Rep(instances, seconds, instances + len(test), failed, (_rows_key(rows), solved, invalid), extra, errors)


class MnistAdd2Weak:
    """Two-digit pair-sum addition learned from sum labels only, batch 4."""

    name = "mnist-add2-weak"
    task_name = "mnist-add2"

    def setup(self, mods, seed: int) -> dict:
        task = mods["tasks"].make_task(self.task_name)
        data = task.make_data(seed=seed, n_train=TRAIN_PAIRS, n_test=2000, noise=0.2)
        task.matrix  # built lazily; set-up pays for it
        # Batch 16 (the CLI default) peaked at 6.8 GB RSS on a 7.7 GB machine.
        config = task.default_config(seed=seed, epochs=1, batch_size=4)
        return {"task": task, "data": data, "config": config, "net": task.build_net(seed)}

    def run(self, mods, state, tracer) -> Rep:
        net, rows, instances, seconds, errors = _train(mods, state, tracer)
        if net is None:
            return Rep(instances, seconds, instances, instances, None, errors=errors)
        return Rep(instances, seconds, instances, 0, _rows_key(rows), {"acc_test": rows[-1]["acc_test"]}, errors)


class GradVerify:
    """``verify.run_all`` at the ``cnfgrad grad-verify`` defaults."""

    name = "grad-verify"
    task_name = None

    def setup(self, mods, seed: int) -> dict:
        return {"seed": seed}

    def run(self, mods, state, tracer) -> Rep:
        with optional_span(tracer, "bench.verify"):
            start = time.perf_counter()
            results = mods["verify"].run_all(seed=state["seed"])
            seconds = time.perf_counter() - start
        cases = sum(r.cases for r in results)
        failed = 0
        errors = []
        for r in results:
            if not r.ok:
                failed += max(1, min(r.cases, len(r.failures)))
                errors.append(r.summary())
        fingerprint = tuple((r.name, r.cases, r.max_dev, tuple(r.failures)) for r in results)
        return Rep(cases, seconds, cases, failed, fingerprint, errors=errors)


WORKLOADS = {w.name: w for w in (SudokuUnsup(), MnistAdd2Weak(), GradVerify())}

# Why each registered task that no workload trains is left out.
NOT_RUN = {
    "mnist-add": "same MnistAddTask code path as mnist-add2-weak, on a 19 x 119 matrix",
    "mnist-add3": "needs a dense 1,999 x 1,001,999 float64 clause matrix, about 16 GB (arithmetic, not run)",
    "add2x2": "per-image forwards, joint products and the dense cnf_loss: the paths mnist-add2-weak runs",
    "member3": "per-image forwards and the dense cnf_loss: the paths mnist-add2-weak runs",
    "member5": "per-image forwards and the dense cnf_loss: the paths mnist-add2-weak runs",
    "apply2x2": "trainable = False: the task has no training recipe",
    "sudoku9": "make_data hangs in datasets.solved_boards(9), which enumerates every 9x9 board",
    "shortest-path": "small per-instance graphs plus a base loss: the per-instance path sudoku4-unsup runs",
    "exactly-one": "small per-instance graphs plus a base loss: the per-instance path sudoku4-unsup runs",
}


def coverage(task_names) -> dict:
    """Registered tasks no workload runs, each with its reason."""
    run = {w.task_name for w in WORKLOADS.values()}
    return {
        "not_run": {name: NOT_RUN.get(name, "no reason recorded") for name in task_names if name not in run},
        "mnist-add2-weak": "batch 4, not the CLI default 16: one batch-16 run peaked at 6.8 GB RSS on a 7.7 GB machine",
    }
