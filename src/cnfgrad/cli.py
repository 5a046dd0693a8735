"""Command-line harness: generate, check, verify, train, evaluate, solve.

Results go to stdout, diagnostics to stderr; every command exits nonzero
on error. Training flags may also come from a ``key = value`` config file
(``#`` comments allowed); explicit flags win over the file, the file wins
over defaults. ``CNFGRAD_DATA_DIR`` sets the default output directory.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
from dataclasses import asdict, fields, replace

import numpy as np

from . import blas
from . import datasets as D
from . import nn as N
from . import tasks as TK
from . import verify as V
from .closs import LossWeights
from .cnf import (
    ENUM_CAP,
    CnfTheory,
    FactVector,
    brute_force,
    deduce_set,
    parse_atom_names,
    parse_dimacs,
    parse_facts,
    serialize_atom_names,
    serialize_dimacs,
    theory_from_clauses,
)
from .nn import TrainConfig
from .tensor import SteMode

# The loss weights' flags and config keys are the fields of ``LossWeights``.
WEIGHT_KEYS = tuple(f.name for f in fields(LossWeights))

# Training flag / config key -> the cast of a config-file value. A config-file STE
# mode is checked and spelt as the flag's "i" or "s".
TRAIN_KEYS = {
    "seed": int, "batch": int, "epochs": int, "lr": float,
    **dict.fromkeys(WEIGHT_KEYS, float),
    "ste": lambda text: SteMode.parse(text).value,
}

# Data flag -> the ``make_data`` keyword it sets.
DATA_FLAGS = {
    "n_train": "n_train", "n_test": "n_test", "noise": "noise", "tier": "tier", "csv": "csv_path",
    "labeled": "n_labeled", "unlabeled": "n_unlabeled", "mnist": "idx",
}


class CliError(Exception):
    pass


def _at_least(low: int, cast=int):
    """An argparse ``type`` that casts a flag's value and refuses one below ``low`` (or NaN), or an infinite one."""
    def parse(text: str):
        value = cast(text)
        if not value >= low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text}")
        if value == np.inf:
            raise argparse.ArgumentTypeError(f"must be finite, got {text}")
        return value
    parse.__name__ = cast.__name__  # argparse names the cast in "invalid int value"
    return parse


def _data_dir() -> str:
    return os.environ.get("CNFGRAD_DATA_DIR", ".")


def _read_config_file(path: str) -> dict:
    """The file's keys and their cast values; a bad line or value raises naming ``path:line``."""
    values: dict = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise CliError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in TRAIN_KEYS:
                raise CliError(f"{path}:{lineno}: unknown config key {key!r}")
            try:
                values[key] = TRAIN_KEYS[key](value)
            except ValueError as exc:
                raise CliError(f"{path}:{lineno}: {key}: {exc}") from None
    return values


def _resolve_train_config(args: argparse.Namespace, task: TK.TaskSpec) -> TrainConfig:
    """Merge flags > config file > task defaults into one TrainConfig.

    Only the keys that a flag or the file sets reach ``task.default_config``.
    The binarizer and the batch reduction of the constraint term have no
    flag: they are the task's own (``TaskSpec.fn``, ``TaskSpec.cnf_batch_sum``).
    """
    file_conf = _read_config_file(args.config) if args.config else {}
    values = {key: value for key, value in file_conf.items() if getattr(args, key) is None}
    values.update((key, getattr(args, key)) for key in TRAIN_KEYS if getattr(args, key) is not None)
    weights = {key: values.pop(key) for key in WEIGHT_KEYS if key in values}
    if "batch" in values:
        values["batch_size"] = values.pop("batch")
    if "ste" in values:
        values["ste"] = SteMode.parse(values["ste"])
    return task.default_config(weights=replace(task.weights, **weights), **values)


def _task_options(args: argparse.Namespace) -> dict:
    """Constructor options from the task flags; ``--include-box`` on a task other than Sudoku is refused."""
    if not args.include_box:
        return {}
    if args.task not in ("sudoku4", "sudoku9"):
        raise CliError(f"--include-box applies to sudoku4 and sudoku9 only, not {args.task}")
    return {"include_box_uec": True}


def _load_theory(cnf_path: str, names_path: str | None) -> CnfTheory:
    with open(cnf_path, encoding="utf-8") as fh:
        theory = parse_dimacs(fh.read())
    if names_path:
        with open(names_path, encoding="utf-8") as fh:
            theory = theory.with_atom_names(parse_atom_names(fh.read(), theory.n))
    return theory


def _fmt_literal(theory: CnfTheory, lit: int) -> str:
    name = theory.atom_names[abs(lit) - 1]
    return f"{lit} ({'-' if lit < 0 else ''}{name})"


# -- commands -------------------------------------------------------------------

def cmd_gen_cnf(args: argparse.Namespace) -> int:
    task = TK.make_task(args.task, **_task_options(args))
    out_dir = args.out or _data_dir()
    os.makedirs(out_dir, exist_ok=True)
    cnf_path = os.path.join(out_dir, f"{task.name}.cnf")
    names_path = os.path.join(out_dir, f"{task.name}.names")
    with open(cnf_path, "w", encoding="utf-8") as fh:
        fh.write(serialize_dimacs(task.theory))
    with open(names_path, "w", encoding="utf-8") as fh:
        fh.write(serialize_atom_names(task.theory))
    print(f"m={task.theory.m} n={task.theory.n}")
    print(f"wrote {cnf_path} and {names_path}", file=sys.stderr)
    return 0


def _check_sample(theory: CnfTheory, facts, cap: int, samples: int, seed: int) -> int:
    """Brute-force random clause subsets that fit under the cap.

    A falsified subset proves the whole theory+facts unsatisfiable; all
    subsets passing only means no contradiction was found.
    """
    rng = np.random.default_rng(seed)
    for k in range(1, samples + 1):
        chosen: list[int] = []
        atoms: set[int] = set()
        for i in rng.permutation(theory.m):
            clause_atoms = {abs(lit) - 1 for lit in theory.clauses[int(i)]}
            if len(atoms | clause_atoms) > cap:
                continue
            atoms |= clause_atoms
            chosen.append(int(i))
        order = sorted(atoms)
        remap = {a: j for j, a in enumerate(order)}
        sub_clauses = [
            tuple((1 if lit > 0 else -1) * (remap[abs(lit) - 1] + 1) for lit in theory.clauses[i]) for i in chosen
        ]
        sub = theory_from_clauses(sub_clauses, len(order))
        sub_facts = FactVector.from_atoms((remap[a] for a in facts.atoms if a in remap), len(order))
        report = brute_force(sub, sub_facts, cap=cap)
        status = "SAT" if report.satisfiable else "UNSAT"
        print(f"sample {k}/{samples}: {status} (clauses={len(chosen)}, atoms={len(order)})")
        if not report.satisfiable:
            print("UNSAT (a clause subset is already contradictory)")
            return 0
    print(f"no contradiction found in {samples} samples")
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    if not 0 <= args.cap <= ENUM_CAP:
        raise CliError(f"--cap {args.cap} is outside 0..{ENUM_CAP} (ENUM_CAP, the most atoms brute_force enumerates)")
    theory = _load_theory(args.cnf, args.names)
    with open(args.facts, encoding="utf-8") as fh:
        facts = parse_facts(fh.read(), theory.n)
    if theory.n > args.cap:
        if args.sample:
            return _check_sample(theory, facts, args.cap, args.sample, args.seed)
        raise CliError(
            f"theory has {theory.n} atoms, above the enumeration cap {args.cap}; "
            "re-run with --sample N to brute-force random sub-problems"
        )
    report = brute_force(theory, facts, cap=args.cap)
    deduced = deduce_set(theory, facts)
    if report.satisfiable:
        print(f"SAT (models={report.model_count})")
        fresh = [lit for lit in report.entailed_literals if not (lit > 0 and (lit - 1) in facts.atoms)]
        print("entails: " + (", ".join(_fmt_literal(theory, lit) for lit in fresh) if fresh else "(nothing beyond the facts)"))
    else:
        print("UNSAT (models=0)")
        print("warning: theory plus facts is unsatisfiable; deduced-gradient signs carry no guarantee", file=sys.stderr)
    print("deduce-set: " + (", ".join(f"clause {i + 1}" for i in deduced) if deduced else "(empty)"))
    return 0


def cmd_grad_verify(args: argparse.Namespace) -> int:
    if args.n_max > ENUM_CAP:
        raise CliError(f"--n-max {args.n_max} is outside 1..{ENUM_CAP} (ENUM_CAP, the most atoms brute_force enumerates)")
    results = V.run_all(seed=args.seed, trials=args.trials, n_max=args.n_max, m_max=args.m_max)
    for result in results:
        print(result.summary())
    return 0 if all(r.ok for r in results) else 1


def _make_dataset(task: TK.TaskSpec, args: argparse.Namespace, seed: int, idx=None) -> TK.TaskDataset:
    """``task.make_data`` with each given data flag as its keyword; a keyword it does not take is refused.

    ``idx`` is the ``--mnist`` pair if the caller has loaded it already.
    """
    accepted = inspect.signature(task.make_data).parameters
    kwargs: dict = {"seed": seed}
    for flag, keyword in DATA_FLAGS.items():
        value = getattr(args, flag)
        if value is None:
            continue
        if keyword not in accepted:
            raise CliError(f"--{flag.replace('_', '-')} does not apply to {task.name}, whose data takes no {keyword}")
        if flag == "mnist":
            value = idx if idx is not None else D.load_idx(*value)
        kwargs[keyword] = value
    return task.make_data(**kwargs)


def cmd_train(args: argparse.Namespace) -> int:
    task_options = _task_options(args)
    idx = None
    if args.mnist and args.task.startswith("mnist-add"):
        idx = D.load_idx(*args.mnist)  # the net's input width is the files' image size
        task_options.update(input_dim=idx[0].shape[1], hidden=[128])
    task = TK.make_task(args.task, **task_options)
    config = _resolve_train_config(args, task)
    dataset = _make_dataset(task, args, config.seed, idx)
    if not len(dataset.train):
        raise CliError(f"the {task.name} training split is empty; train needs at least 1 instance")

    out_dir = args.out or os.path.join(_data_dir(), "runs", task.name)
    os.makedirs(out_dir, exist_ok=True)
    config.metrics_path = os.path.join(out_dir, "metrics.csv")
    net, rows = N.run_training(dataset, config)
    ckpt_path = N.save_checkpoint(
        os.path.join(out_dir, "checkpoint.npz"), net, meta={"task": args.task, "options": task_options}
    )
    echo = {
        "task": args.task,
        "seed": config.seed,
        "batch": config.batch_size,
        "epochs": config.epochs,
        "lr": config.lr,
        **asdict(config.weights),
        "fn": task.fn,
        "ste": config.ste.value,
        "n_train": len(dataset.train),
        "n_test": len(dataset.test),
        "task_options": task_options,
        "blas_threads": blas.threads(),
    }
    with open(os.path.join(out_dir, "run.json"), "w", encoding="utf-8") as fh:
        json.dump(echo, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"metrics: {config.metrics_path}")
    print(f"checkpoint: {ckpt_path}")
    print(f"final acc_test: {rows[-1]['acc_test']:.4f}")
    return 0


def _load_net_for(args: argparse.Namespace) -> tuple[TK.TaskSpec, N.Mlp]:
    net, meta = N.load_checkpoint(args.checkpoint)
    task_name = meta.get("task") or args.task  # --task names the task only of a checkpoint that records none
    if args.task and args.task != task_name:
        raise CliError(f"{args.checkpoint} holds a {task_name} net, not {args.task}; drop --task")
    if not task_name:
        raise CliError("checkpoint carries no task name; pass --task")
    task = TK.make_task(task_name, **meta.get("options", {}))
    return task, net


def cmd_eval(args: argparse.Namespace) -> int:
    task, net = _load_net_for(args)
    dataset = _make_dataset(task, args, args.seed)
    if isinstance(task, TK.SudokuTask):
        acc_wo = task.evaluate(net, dataset.test, inference_trick=False)
        acc_w = task.evaluate(net, dataset.test, inference_trick=True)
        print(f"acc_wo={acc_wo:.4f} acc_w={acc_w:.4f} (n={len(dataset.test)})")
    else:
        acc = task.evaluate(net, dataset.test)
        print(f"acc={acc:.4f} (n={len(dataset.test)})")
        if isinstance(task, TK.ExactlyOneTask):
            print(f"exactly-one violations: {task.violation_fraction(net, dataset.test):.4f}")
    return 0


def cmd_solve(args: argparse.Namespace) -> int:
    task, net = _load_net_for(args)
    if not isinstance(task, TK.SudokuTask):
        raise CliError("solve works on grid tasks (sudoku4, sudoku9)")
    if args.board:
        values = [int(tok) for tok in args.board.replace(",", " ").split()]
        if len(values) != task.cells or not all(0 <= v <= task.side for v in values):
            raise CliError(f"board must list {task.cells} values in 0..{task.side}")
        q = np.array([values], dtype=np.int64)
    else:
        q = D.gen_grid_puzzles(task.side, args.count, tier=args.tier, seed=args.seed).q
    filled_boards = N.predict_with_inference_trick(net, q, task) if args.inference_trick else task.predict_board(net, q)
    bad = 0
    for filled in filled_boards:
        valid = task.verify_board(filled)
        bad += int(not valid)
        print(" ".join(str(int(v)) for v in filled) + ("" if valid else "  # violates the theory"))
    if bad:
        print(f"{bad}/{len(q)} boards violate the theory", file=sys.stderr)
    return 0


# -- parser ---------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cnfgrad", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-cnf", help="write a task's DIMACS file and atom-name sidecar")
    p.add_argument("task", choices=TK.TASK_NAMES)
    p.add_argument("--out", help="output directory (default: data dir)")
    p.add_argument("--include-box", action="store_true", help="add the box exactly-one family (sudoku)")
    p.set_defaults(func=cmd_gen_cnf)

    p = sub.add_parser("check", help="brute-force satisfiability, entailment, and the deduce set")
    p.add_argument("cnf")
    p.add_argument("facts")
    p.add_argument("--names", help="atom-name sidecar file")
    p.add_argument("--cap", type=int, default=ENUM_CAP, help=f"most atoms to enumerate, 0..{ENUM_CAP} (default {ENUM_CAP})")
    p.add_argument("--sample", type=_at_least(1), help="for large theories: brute-force N random sub-problems")
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("grad-verify", help="run the value/gradient/gate verification suites")
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument("--trials", type=_at_least(1), default=1000)
    p.add_argument("--n-max", type=_at_least(1), default=12, help=f"most atoms of a random theory, 1..{ENUM_CAP} (default 12)")
    p.add_argument("--m-max", type=_at_least(0), default=30)
    p.set_defaults(func=cmd_grad_verify)

    def add_train_eval_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=_at_least(0), default=None)
        p.add_argument("--n-train", type=_at_least(0), default=None)
        p.add_argument("--n-test", type=_at_least(0), default=None)
        p.add_argument("--noise", type=_at_least(0, float), default=None)
        p.add_argument("--tier", choices=("easy", "hard"), default=None)
        p.add_argument("--csv", help="shortest-path instances file")
        p.add_argument("--labeled", type=_at_least(0), default=None)
        p.add_argument("--unlabeled", type=_at_least(0), default=None)
        p.add_argument("--mnist", nargs=2, metavar=("IMAGES", "LABELS"), help="IDX image/label files")

    p = sub.add_parser("train", help="train a task's network and write metrics + checkpoint")
    p.add_argument("task", choices=TK.TASK_NAMES)
    add_train_eval_flags(p)
    # The theory variant is fixed at training time; eval and solve read it from the checkpoint.
    p.add_argument("--include-box", action="store_true", help="add the box exactly-one family (sudoku)")
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--out", help="output directory")
    p.add_argument("--batch", type=int, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    for key in WEIGHT_KEYS:
        p.add_argument(f"--{key}", type=float, default=None)
    p.add_argument("--ste", choices=("i", "s"), default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a task's held-out split")
    p.add_argument("checkpoint")
    p.add_argument("--task", choices=TK.TASK_NAMES, help="the task of a checkpoint that records none")
    add_train_eval_flags(p)
    p.set_defaults(func=cmd_eval)
    p.set_defaults(seed=0)

    p = sub.add_parser("solve", help="complete grid puzzles with a trained checkpoint")
    p.add_argument("checkpoint")
    p.add_argument("--task", choices=TK.TASK_NAMES, help="the task of a checkpoint that records none")
    p.add_argument("--board", help="space/comma separated cell values, 0 for empty")
    p.add_argument("--count", type=_at_least(0), default=10, help="number of generated puzzles when no board is given")
    p.add_argument("--tier", choices=("easy", "hard"), default="easy")
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument("--inference-trick", action="store_true", default=True)
    p.add_argument("--no-inference-trick", dest="inference_trick", action="store_false")
    p.set_defaults(func=cmd_solve)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CliError, OSError, ValueError, KeyError, N.TrainingDiverged) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
