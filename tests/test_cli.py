import json
import os
import pickle
import re
import struct
import zipfile

import numpy as np
import pytest

from cnfgrad import blas
from cnfgrad.cli import main
from cnfgrad.tasks import TASK_NAMES

WORKED = "p cnf 3 2\n-1 -2 3 0\n-1 2 0\n"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_idx(tmp_path, labels, rows=28, cols=28):
    """An IDX image/label pair of blank images with these labels; returns the two paths as strings."""
    from cnfgrad import datasets as D

    images, label_file = tmp_path / "img.idx", tmp_path / "lbl.idx"
    count = len(labels)
    images.write_bytes(struct.pack(">IIII", D.IDX_IMAGES_MAGIC, count, rows, cols) + bytes(count * rows * cols))
    label_file.write_bytes(struct.pack(">II", D.IDX_LABELS_MAGIC, count) + bytes(labels))
    return str(images), str(label_file)


class TestGenCnf:
    def test_sudoku9_shape_line(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "gen-cnf", "sudoku9", "--out", str(tmp_path))
        assert code == 0
        assert out.splitlines()[0] == "m=8991 n=729"
        assert (tmp_path / "sudoku9.cnf").exists()
        assert (tmp_path / "sudoku9.names").exists()

    def test_member3(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "gen-cnf", "member3", "--out", str(tmp_path))
        assert code == 0 and out.splitlines()[0] == "m=40 n=50"

    def test_unknown_task_fails(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["gen-cnf", "nosuch", "--out", str(tmp_path)])

    def test_unwritable_path(self, tmp_path, capsys):
        target = tmp_path / "file"
        target.write_text("x")
        code, _, err = run_cli(capsys, "gen-cnf", "member3", "--out", str(target / "sub"))
        assert code != 0 and "error" in err

    def test_generated_file_parses_back(self, tmp_path, capsys):
        from cnfgrad.cnf import parse_dimacs

        run_cli(capsys, "gen-cnf", "exactly-one", "--out", str(tmp_path))
        theory = parse_dimacs((tmp_path / "exactly-one.cnf").read_text())
        assert (theory.m, theory.n) == (46, 10)
        names = (tmp_path / "exactly-one.names").read_text().splitlines()
        assert len(names) == 10


class TestCheck:
    def write_worked(self, tmp_path, facts="1\n"):
        cnf = tmp_path / "t.cnf"
        cnf.write_text(WORKED)
        fpath = tmp_path / "t.facts"
        fpath.write_text(facts)
        return str(cnf), str(fpath)

    def test_worked_example(self, tmp_path, capsys):
        cnf, facts = self.write_worked(tmp_path)
        code, out, _ = run_cli(capsys, "check", cnf, facts)
        assert code == 0
        assert "SAT" in out and "UNSAT" not in out
        assert "2 (2)" in out  # entailed literal with default numeric names
        assert "deduce-set: clause 2" in out

    def test_with_names(self, tmp_path, capsys):
        cnf, facts = self.write_worked(tmp_path)
        names = tmp_path / "t.names"
        names.write_text("a\nb\nc\n")
        code, out, _ = run_cli(capsys, "check", cnf, facts, "--names", str(names))
        assert code == 0 and "2 (b)" in out

    def test_unsat_warns(self, tmp_path, capsys):
        cnf = tmp_path / "u.cnf"
        cnf.write_text("p cnf 1 2\n1 0\n-1 0\n")
        facts = tmp_path / "u.facts"
        facts.write_text("")
        code, out, err = run_cli(capsys, "check", str(cnf), str(facts))
        assert code == 0 and "UNSAT" in out and "warning" in err

    def test_empty_facts_accepted(self, tmp_path, capsys):
        cnf, facts = self.write_worked(tmp_path, facts="")
        code, out, _ = run_cli(capsys, "check", cnf, facts)
        assert code == 0 and "SAT" in out

    def test_cap_exceeded_suggests_sample(self, tmp_path, capsys):
        code, out, err = run_cli(capsys, "gen-cnf", "sudoku4", "--out", str(tmp_path))
        facts = tmp_path / "empty.facts"
        facts.write_text("")
        code, out, err = run_cli(capsys, "check", str(tmp_path / "sudoku4.cnf"), str(facts))
        assert code != 0 and "--sample" in err

    def test_sampled_check_runs(self, tmp_path, capsys):
        run_cli(capsys, "gen-cnf", "sudoku4", "--out", str(tmp_path))
        facts = tmp_path / "empty.facts"
        facts.write_text("")
        code, out, _ = run_cli(capsys, "check", str(tmp_path / "sudoku4.cnf"), str(facts), "--sample", "3", "--cap", "20")
        assert code == 0 and "sample 1/3" in out

    @pytest.mark.parametrize("cap", ["25", "63", "200", "-1"])
    def test_cap_outside_enum_limit_refused_before_any_work(self, tmp_path, capsys, cap):
        run_cli(capsys, "gen-cnf", "mnist-add", "--out", str(tmp_path))
        facts = tmp_path / "empty.facts"
        facts.write_text("")
        for extra in ((), ("--sample", "2")):
            code, out, err = run_cli(capsys, "check", str(tmp_path / "mnist-add.cnf"), str(facts), "--cap", cap, *extra)
            assert code == 1 and out == ""
            assert err.startswith("error: --cap") and "ENUM_CAP" in err and "Traceback" not in err
        # refused before the theory is even read
        code, _, err = run_cli(capsys, "check", str(tmp_path / "missing.cnf"), str(facts), "--cap", cap)
        assert code == 1 and "--cap" in err


class TestGradVerify:
    def test_small_run_passes(self, capsys):
        code, out, _ = run_cli(capsys, "grad-verify", "--trials", "20", "--n-max", "6", "--m-max", "8")
        assert code == 0
        assert "golden: OK" in out
        assert "gradients: OK" in out

    @pytest.mark.parametrize("n_max", ["25", "100"])
    def test_n_max_above_enum_cap_refused_before_any_suite(self, capsys, monkeypatch, n_max):
        from cnfgrad import verify

        def refuse(**_):
            raise AssertionError("a suite ran")

        monkeypatch.setattr(verify, "run_all", refuse)
        code, out, err = run_cli(capsys, "grad-verify", "--n-max", n_max, "--trials", "50")
        assert code == 1 and out == ""
        assert err == f"error: --n-max {n_max} is outside 1..24 (ENUM_CAP, the most atoms brute_force enumerates)\n"


# (command, flag, lower bound, a value below it) for every size flag.
SIZE_FLAG_CASES = [
    *((("train", "mnist-add"), flag, 0, value) for flag, value in (
        ("--n-train", "-4"), ("--n-test", "-3"), ("--labeled", "-5"), ("--unlabeled", "-1"), ("--noise", "-1"),
    )),
    *((("eval", "ckpt.npz"), flag, 0, value) for flag, value in (
        ("--n-train", "-1"), ("--n-test", "-10"), ("--labeled", "-1"), ("--unlabeled", "-2"), ("--noise", "nan"),
    )),
    (("solve", "ckpt.npz"), "--count", 1, "0"),
    (("check", "t.cnf", "t.facts"), "--sample", 1, "0"),
    (("grad-verify",), "--n-max", 1, "0"),
    (("grad-verify",), "--m-max", 0, "-1"),
    (("grad-verify",), "--trials", 1, "0"),
    *((argv, "--seed", 0, "-1") for argv in (
        ("train", "member3"), ("eval", "ckpt.npz"), ("solve", "ckpt.npz"), ("check", "t.cnf", "t.facts"), ("grad-verify",),
    )),
]


# (command, flag, an infinite value) for every flag that takes a float with a lower bound.
INFINITE_FLAG_CASES = [(("train", "member3"), "--noise", "inf"), (("eval", "ckpt.npz"), "--noise", "inf")]


@pytest.fixture(scope="module")
def sudoku4_checkpoint(tmp_path_factory):
    """A briefly trained sudoku4 net, saved once: it completes some boards and misses others."""
    from cnfgrad import tasks as TK
    from cnfgrad.nn import run_training, save_checkpoint

    task = TK.make_task("sudoku4")
    net, _ = run_training(task.make_data(seed=2, n_train=1000, n_test=5), task.default_config(seed=2, epochs=2))
    path = save_checkpoint(str(tmp_path_factory.mktemp("solve") / "fixed"), net, meta={"task": "sudoku4", "options": {}})
    return task, net, path


class TestTrainEvalSolve:
    def test_train_writes_artifacts_and_is_deterministic(self, tmp_path, capsys):
        args = [
            "train", "mnist-add", "--seed", "1",
            "--n-train", "60", "--n-test", "40", "--epochs", "2",
        ]
        code, out, _ = run_cli(capsys, *args, "--out", str(tmp_path / "a"))
        assert code == 0
        metrics_a = (tmp_path / "a" / "metrics.csv").read_bytes()
        rows = metrics_a.decode().splitlines()
        assert rows[0].startswith("epoch,loss_total") and len(rows) == 3
        echo = json.loads((tmp_path / "a" / "run.json").read_text())
        assert echo["seed"] == 1 and echo["task"] == "mnist-add"
        assert echo["blas_threads"] == blas.threads()

        code, _, _ = run_cli(capsys, *args, "--out", str(tmp_path / "b"))
        assert code == 0
        assert metrics_a == (tmp_path / "b" / "metrics.csv").read_bytes()

    def test_config_file_precedence(self, tmp_path, capsys):
        conf = tmp_path / "train.conf"
        conf.write_text("# comment\nepochs = 3\nseed = 9\n")
        code, _, _ = run_cli(
            capsys, "train", "exactly-one", "--labeled", "30", "--unlabeled", "0", "--n-test", "20",
            "--config", str(conf), "--epochs", "1", "--out", str(tmp_path / "run"),
        )
        assert code == 0
        echo = json.loads((tmp_path / "run" / "run.json").read_text())
        assert echo["epochs"] == 1  # flag beats file
        assert echo["seed"] == 9  # file beats default

    def test_bad_config_key(self, tmp_path, capsys):
        conf = tmp_path / "train.conf"
        conf.write_text("nonsense = 1\n")
        code, _, err = run_cli(
            capsys, "train", "exactly-one", "--config", str(conf), "--out", str(tmp_path / "run"),
        )
        assert code != 0 and "unknown config key" in err

    @pytest.mark.parametrize(
        "text,error",
        [
            ("batch = 1.5\n", "1: batch: invalid literal for int() with base 10: '1.5'"),
            ("ste = x\n", "1: ste: unknown STE mode 'x' (use 'i' or 's')"),
            ("epochs = 1\nlr = fast\n", "2: lr: could not convert string to float: 'fast'"),
        ],
    )
    def test_config_value_its_cast_refuses_names_file_line_and_key(self, tmp_path, capsys, text, error):
        conf = tmp_path / "train.conf"
        conf.write_text(text)
        out = tmp_path / "run"
        code, stdout, err = run_cli(capsys, "train", "member3", "--n-train", "8", "--n-test", "4", "--config", str(conf), "--out", str(out))
        assert code == 1 and stdout == ""
        assert err == f"error: {conf}:{error}\n"
        assert not out.exists()

    # sudoku9 is left out: its data generation refuses boards above 4x4 (test_sudoku9_data_fails_fast).
    @pytest.mark.parametrize("task", [name for name in TASK_NAMES if name != "sudoku9"])
    def test_every_task_trains(self, tmp_path, capsys, task):
        sizes = ("--labeled", "4", "--unlabeled", "4") if task == "exactly-one" else ("--n-train", "8")
        code, _, err = run_cli(
            capsys, "train", task, *sizes, "--n-test", "4", "--epochs", "1", "--out", str(tmp_path),
        )
        assert code == 0, err
        rows = (tmp_path / "metrics.csv").read_text().splitlines()
        assert rows[0] == "epoch,loss_total,loss_base,loss_cnf,loss_bound,loss_sum,loss_hint,acc_test"
        assert len(rows) == 2 and rows[1].startswith("1,")

    @pytest.mark.parametrize(
        "flag,value,field",
        [
            ("epochs", "0", "epochs"), ("batch", "-2", "batch_size"),
            ("lr", "nan", "lr"), ("lr", "inf", "lr"), ("lr", "0.0", "lr"), ("lr", "-0.5", "lr"),
            ("alpha", "nan", "alpha"), ("beta", "inf", "beta"), ("gamma", "-1.0", "gamma"),
        ],
    )
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_bad_epochs_or_batch_fails_fast(self, tmp_path, capsys, flag, value, field, source):
        reason = {"epochs": "must be at least 1", "batch_size": "must be at least 1", "lr": "must be finite and positive"}.get(
            field, "must be finite and nonnegative"  # a loss weight
        )
        if source == "flag":
            extra = (f"--{flag}", value)
        else:
            conf = tmp_path / "train.conf"
            conf.write_text(f"{flag} = {value}\n")
            extra = ("--config", str(conf))
        out = tmp_path / "run"
        code, _, err = run_cli(capsys, "train", "member3", "--n-train", "8", "--n-test", "4", *extra, "--out", str(out))
        assert code == 1
        assert err.startswith("error:") and f"{field} {reason}, got {value}" in err
        assert not out.exists()

    def test_negative_seed_in_config_file_fails_fast(self, tmp_path, capsys):
        conf = tmp_path / "train.conf"
        conf.write_text("seed = -1\n")
        out = tmp_path / "run"
        code, stdout, err = run_cli(capsys, "train", "member3", "--n-train", "8", "--n-test", "4", "--config", str(conf), "--out", str(out))
        assert code == 1 and stdout == ""
        assert err == "error: seed must be at least 0, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv,message",
        [
            (
                ("exactly-one", "--n-train", "7", "--labeled", "10", "--unlabeled", "10", "--n-test", "5"),
                "--n-train does not apply to exactly-one, whose data takes no n_train",
            ),
            (
                ("member3", "--labeled", "5", "--csv", "nonexist.csv", "--n-train", "8", "--n-test", "4"),
                "--csv does not apply to member3, whose data takes no csv_path",
            ),
            (("sudoku4", "--noise", "0.1"), "--noise does not apply to sudoku4, whose data takes no noise"),
            (("add2x2", "--tier", "hard"), "--tier does not apply to add2x2, whose data takes no tier"),
            (("shortest-path", "--mnist", "images", "labels"), "--mnist does not apply to shortest-path, whose data takes no idx"),
        ],
        ids=["exactly-one-n-train", "member3-csv", "sudoku4-noise", "add2x2-tier", "shortest-path-mnist"],
    )
    def test_data_flag_the_task_does_not_take_fails_fast(self, tmp_path, capsys, argv, message):
        out = tmp_path / "out"
        code, stdout, err = run_cli(capsys, "train", *argv, "--epochs", "1", "--out", str(out))
        assert code == 1 and stdout == ""
        assert err == f"error: {message}\n"
        assert not out.exists()

    @staticmethod
    def path_csv(tmp_path, count: int) -> str:
        from cnfgrad.datasets import gen_path_instances, save_path_csv

        path = str(tmp_path / "paths.csv")
        save_path_csv(gen_path_instances(count, seed=5), path)
        return path

    @pytest.mark.parametrize(
        "sizes,asked",
        [
            (("--n-train", "300", "--n-test", "0"), "n_train 300 plus n_test 0"),
            (("--n-train", "90", "--n-test", "20"), "n_train 90 plus n_test 20"),
            (("--n-test", "101"), "n_test 101"),
        ],
        ids=["train-300", "train-90-test-20", "test-101"],
    )
    def test_shortest_path_sizes_the_csv_cannot_hold_fail_fast(self, tmp_path, capsys, sizes, asked):
        csv = self.path_csv(tmp_path, 100)
        out = tmp_path / "out"
        code, stdout, err = run_cli(capsys, "train", "shortest-path", "--csv", csv, *sizes, "--epochs", "1", "--out", str(out))
        assert code == 1 and stdout == ""
        assert err == f"error: {csv} holds 100 instances, fewer than {asked}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "sizes,split",
        [((), (80, 20)), (("--n-train", "60", "--n-test", "40"), (60, 40)), (("--n-train", "50"), (50, 50)), (("--n-test", "0"), (100, 0))],
        ids=["none-80-20", "both", "train-only", "test-only"],
    )
    def test_shortest_path_sizes_that_fit_are_used(self, tmp_path, capsys, sizes, split):
        csv = self.path_csv(tmp_path, 100)
        out = tmp_path / "out"
        code, _, _ = run_cli(capsys, "train", "shortest-path", "--csv", csv, *sizes, "--epochs", "1", "--out", str(out))
        run = json.loads((out / "run.json").read_text())
        assert code == 0 and (run["n_train"], run["n_test"]) == split

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("gen-cnf", "member3", "--include-box"), "--include-box applies to sudoku4 and sudoku9 only, not member3"),
            (("train", "member3", "--include-box"), "--include-box applies to sudoku4 and sudoku9 only, not member3"),
        ],
    )
    def test_task_flag_on_another_task_fails_fast(self, tmp_path, capsys, argv, message):
        out = tmp_path / "out"
        code, stdout, err = run_cli(capsys, *argv, "--out", str(out))
        assert code == 1 and stdout == ""
        assert err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ("train", "mnist-add", "--uec"),
            ("train", "mnist-add", "--synthetic"),
            ("train", "sudoku4", "--unsupervised"),
            ("gen-cnf", "mnist-add", "--uec"),
            ("train", "mnist-add", "--fn", "b"),
            ("train", "mnist-add", "--optimizer", "sgd"),
        ],
        ids=["train-uec", "train-synthetic", "train-unsupervised", "gen-cnf-uec", "train-fn", "train-optimizer"],
    )
    def test_retired_flag_is_unrecognized(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(out)])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[2:])}\n" in capsys.readouterr().err
        assert not out.exists()

    def test_fn_config_key_is_unknown(self, tmp_path, capsys):
        # The binarizer is the task's own (TaskSpec.fn), and Adam is the only optimizer,
        # so a config file can set neither.
        for key, value in (("fn", "b"), ("optimizer", "adam")):
            conf = tmp_path / "train.conf"
            conf.write_text(f"{key} = {value}\n")
            out = tmp_path / "run"
            code, stdout, err = run_cli(capsys, "train", "mnist-add", "--config", str(conf), "--out", str(out))
            assert code == 1 and stdout == ""
            assert err == f"error: {conf}:1: unknown config key '{key}'\n"
            assert not out.exists()

    @pytest.mark.parametrize(
        "argv,flag,low,value", SIZE_FLAG_CASES, ids=[f"{argv[0]}{flag}" for argv, flag, _, _ in SIZE_FLAG_CASES]
    )
    def test_size_flag_below_its_bound_is_refused(self, tmp_path, capsys, argv, flag, low, value):
        out = tmp_path / "out"
        extra = ("--out", str(out)) if argv[0] == "train" else ()
        with pytest.raises(SystemExit) as exc:
            main([*argv, flag, value, *extra])
        assert exc.value.code == 2
        assert f"error: argument {flag}: must be at least {low}, got {value}\n" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv,flag,value", INFINITE_FLAG_CASES, ids=[f"{argv[0]}{flag}" for argv, flag, _ in INFINITE_FLAG_CASES])
    def test_infinite_flag_is_refused(self, tmp_path, capsys, argv, flag, value):
        out = tmp_path / "out"
        extra = ("--out", str(out)) if argv[0] == "train" else ()
        with pytest.raises(SystemExit) as exc:
            main([*argv, flag, value, *extra])
        assert exc.value.code == 2
        assert f"error: argument {flag}: must be finite, got {value}\n" in capsys.readouterr().err
        assert not out.exists()

    def test_ste_matters_only_under_the_sign_binarizer(self, tmp_path, capsys):
        # 'bp' columns are probabilities in [0, 1], inside the saturated surrogate's box, so both
        # surrogates pass the same gradient; exactly-one's scaled logits ('b') leave the box, within
        # one epoch at these sizes once the learning rate is raised to 0.1.
        runs = {
            "mnist-add": ("--n-train", "16", "--n-test", "8"),
            "sudoku4": ("--delta", "0.3", "--n-train", "16", "--n-test", "4"),
            "shortest-path": ("--n-train", "16", "--n-test", "4"),
            "exactly-one": ("--labeled", "16", "--unlabeled", "16", "--n-test", "10", "--lr", "0.1"),
        }
        for task, sizes in runs.items():
            metrics = []
            for ste in ("i", "s"):
                out = tmp_path / f"{task}-{ste}"
                code, _, err = run_cli(capsys, "train", task, *sizes, "--epochs", "1", "--seed", "1", "--ste", ste, "--out", str(out))
                assert code == 0, err
                metrics.append((out / "metrics.csv").read_bytes())
            assert (metrics[0] == metrics[1]) == (task != "exactly-one"), task

    @pytest.mark.parametrize(
        "argv",
        [
            ("mnist-add", "--n-train", "0", "--n-test", "8"),
            ("exactly-one", "--labeled", "0", "--unlabeled", "0", "--n-test", "8"),
            ("shortest-path", "--csv", "{empty}"),
        ],
        ids=["mnist-add", "exactly-one", "shortest-path-empty-csv"],
    )
    def test_empty_training_split_fails_fast(self, tmp_path, capsys, argv):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        out = tmp_path / "out"
        argv = [arg.format(empty=empty) for arg in argv]
        code, stdout, err = run_cli(capsys, "train", *argv, "--epochs", "1", "--out", str(out))
        assert code == 1 and stdout == ""
        assert err == f"error: the {argv[0]} training split is empty; train needs at least 1 instance\n"
        assert not out.exists()

    @pytest.mark.parametrize("task", ["member3", "sudoku4", "exactly-one"])
    def test_empty_test_split_fails_fast(self, tmp_path, capsys, task):
        from cnfgrad import tasks as TK
        from cnfgrad.nn import save_checkpoint

        ckpt = save_checkpoint(str(tmp_path / "ckpt"), TK.make_task(task).build_net(0), meta={"task": task, "options": {}})
        code, stdout, err = run_cli(capsys, "eval", ckpt, "--n-test", "0")
        assert code == 1 and stdout == ""
        assert err == f"error: the {task} test split is empty; eval needs at least 1 instance\n"

    @pytest.mark.parametrize(
        "command,meta,message",
        [
            (
                "eval",
                {"task": "mnist-add", "options": {"include_uec": True}},
                "task mnist-add takes options digits, input_dim, hidden only: got an unexpected keyword argument 'include_uec'",
            ),
            (
                "solve",
                {"task": "sudoku4", "options": {"include_bogus": True}},
                "task sudoku4 takes options side, include_box_uec only: got an unexpected keyword argument 'include_bogus'",
            ),
        ],
        ids=["eval-include_uec", "solve-include_bogus"],
    )
    def test_checkpoint_option_the_task_does_not_take_fails(self, tmp_path, capsys, command, meta, message):
        from cnfgrad import tasks as TK
        from cnfgrad.nn import save_checkpoint

        ckpt = save_checkpoint(str(tmp_path / "ckpt"), TK.make_task(meta["task"]).build_net(0), meta=meta)
        code, stdout, err = run_cli(capsys, command, ckpt, "--seed", "1")
        assert code == 1 and stdout == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("command,task", [("eval", "exactly-one"), ("solve", "sudoku4")])
    def test_task_other_than_the_checkpoints_is_refused(self, tmp_path, capsys, monkeypatch, command, task):
        from cnfgrad import cli
        from cnfgrad import tasks as TK
        from cnfgrad.nn import save_checkpoint

        ckpt = save_checkpoint(str(tmp_path / "ckpt"), TK.make_task("member3").build_net(0), meta={"task": "member3", "options": {}})
        monkeypatch.setattr(cli, "_make_dataset", lambda *a: pytest.fail("data was built for a refused task"))
        code, stdout, err = run_cli(capsys, command, ckpt, "--task", task)
        assert code == 1 and stdout == ""
        assert err == f"error: {ckpt} holds a member3 net, not {task}; drop --task\n"

    @pytest.mark.parametrize("meta", [{}, {"task": "member3", "options": {}}], ids=["no-task", "same-task"])
    def test_task_flag_names_a_checkpoint_without_one(self, tmp_path, capsys, meta):
        from cnfgrad import tasks as TK
        from cnfgrad.nn import save_checkpoint

        ckpt = save_checkpoint(str(tmp_path / "ckpt"), TK.make_task("member3").build_net(0), meta=meta)
        code, stdout, _ = run_cli(capsys, "eval", ckpt, "--task", "member3", "--n-test", "20")
        assert code == 0 and stdout.startswith("acc=")

    @pytest.mark.parametrize(
        "damage",
        ["truncated", "text", "pickle", "no-format-version", "empty", "one-array", "compression-99", "npy-header-cut", "central-directory-offset"],
    )
    def test_unreadable_checkpoint_names_its_path(self, tmp_path, capsys, damage):
        from cnfgrad import tasks as TK
        from cnfgrad.nn import save_checkpoint

        ckpt = save_checkpoint(str(tmp_path / "ckpt"), TK.make_task("member3").build_net(0), meta={"task": "member3", "options": {}})
        path = tmp_path / "damaged.npz"
        if damage == "truncated":
            path.write_bytes(open(ckpt, "rb").read()[:300])
        elif damage == "text":
            path.write_text("task = member3\n")
        elif damage == "pickle":
            path.write_bytes(pickle.dumps({"task": "member3"}))
        elif damage == "no-format-version":
            blob = dict(np.load(ckpt))
            del blob["format_version"]
            np.savez(path, **blob)
        elif damage == "empty":
            path.write_bytes(b"")
        elif damage == "compression-99":
            # compression method 99 in every local (offset 8) and central (offset 10) zip header
            data = bytearray(open(ckpt, "rb").read())
            for signature, at in ((b"PK\x03\x04", 8), (b"PK\x01\x02", 10)):
                for k in [hit.start() for hit in re.finditer(re.escape(signature), data)]:
                    data[k + at : k + at + 2] = (99).to_bytes(2, "little")
            path.write_bytes(bytes(data))
        elif damage == "npy-header-cut":
            # format_version.npy's header dict stops inside its shape tuple; the header keeps its length
            with zipfile.ZipFile(ckpt) as src, zipfile.ZipFile(path, "w") as dst:
                for name in src.namelist():
                    raw = src.read(name)
                    if name == "format_version.npy":
                        end = raw.index(b"\n")
                        raw = raw[:10] + b"{'descr': '<i8', 'fortran_order': False, 'shape': (3,".ljust(end - 10) + raw[end:]
                    dst.writestr(name, raw)
        elif damage == "central-directory-offset":
            # 2**31 added to the central directory's offset (bytes 16-19 of the end record): zipfile seeks past any file
            data = bytearray(open(ckpt, "rb").read())
            k = data.rindex(b"PK\x05\x06")
            data[k + 16 : k + 20] = (int.from_bytes(data[k + 16 : k + 20], "little") + 2**31).to_bytes(4, "little")
            path.write_bytes(bytes(data))
        else:
            np.save(open(path, "wb"), np.zeros(3))
        code, stdout, err = run_cli(capsys, "eval", str(path))
        assert code == 1 and stdout == ""
        assert err.startswith(f"error: {path} is not a readable checkpoint: ") and err.count("\n") == 1
        # A file that is not an archive is refused by its first bytes, never offered to pickle.
        assert "allow_pickle" not in err
        if damage in ("text", "pickle", "empty", "one-array"):
            assert err.endswith(": it is not an .npz archive\n")
        if damage == "compression-99":
            assert err.endswith(": That compression method is not supported\n")
        if damage == "central-directory-offset":
            assert err.endswith(": [Errno 22] Invalid argument\n")

    @pytest.mark.parametrize("flag", ["--uec", "--include-box"])
    def test_eval_refuses_theory_variant_flags(self, capsys, flag):
        # eval takes the theory variant from the checkpoint; only train picks one.
        with pytest.raises(SystemExit) as exc:
            main(["eval", "run/checkpoint.npz", flag])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_mnist_idx_files_build_one_task(self, tmp_path, capsys, monkeypatch):
        from cnfgrad import tasks as TK

        images, labels = write_idx(tmp_path, range(10))
        built = []
        init = TK.MnistAddTask.__init__
        monkeypatch.setattr(TK.MnistAddTask, "__init__", lambda task, *a, **k: built.append(k) or init(task, *a, **k))
        code, _, err = run_cli(
            capsys, "train", "mnist-add", "--mnist", images, labels,
            "--n-train", "4", "--n-test", "2", "--epochs", "1", "--out", str(tmp_path / "run"),
        )
        assert code == 0, err
        assert built == [{"digits": 1, "input_dim": 784, "hidden": [128]}]
        echo = json.loads((tmp_path / "run" / "run.json").read_text())
        assert echo["task_options"] == {"hidden": [128], "input_dim": 784}

    def test_mnist_net_width_is_the_idx_image_size(self, tmp_path, capsys):
        images, labels = write_idx(tmp_path, range(10), rows=16, cols=16)
        out = tmp_path / "run"
        code, _, err = run_cli(
            capsys, "train", "mnist-add", "--mnist", images, labels, "--n-train", "4", "--n-test", "2", "--epochs", "1", "--out", str(out)
        )
        assert code == 0, err
        assert json.loads((out / "run.json").read_text())["task_options"] == {"hidden": [128], "input_dim": 256}

    @pytest.mark.parametrize("task", ["mnist-add", "mnist-add2"])
    def test_mnist_label_outside_the_digits_fails_fast(self, tmp_path, capsys, task):
        # the first pair sums to 21, past the largest sum atom (18)
        images, labels = write_idx(tmp_path, [12, 9, *(i % 10 for i in range(62))])
        out = tmp_path / "run"
        code, stdout, err = run_cli(
            capsys, "train", task, "--mnist", images, labels, "--n-train", "8", "--n-test", "8", "--epochs", "1", "--out", str(out)
        )
        assert code == 1 and stdout == ""
        assert err == "error: digit labels must lie in 0..9, found 12\n"
        assert not out.exists()

    @pytest.mark.parametrize("task,weight", [("mnist-add", "delta"), ("member3", "gamma")])
    def test_weight_on_a_missing_term_fails_fast(self, tmp_path, capsys, task, weight):
        code, _, err = run_cli(
            capsys, "train", task, f"--{weight}", "0.5",
            "--n-train", "8", "--n-test", "2", "--epochs", "1", "--out", str(tmp_path),
        )
        assert code != 0
        assert f"task {task} builds no" in err and f"{weight}=0.5" in err
        assert not (tmp_path / "metrics.csv").exists()

    def test_eval_and_solve_sudoku(self, tmp_path, capsys):
        code, _, _ = run_cli(
            capsys, "train", "sudoku4", "--seed", "0",
            "--n-train", "40", "--n-test", "10", "--epochs", "1", "--out", str(tmp_path),
        )
        assert code == 0
        ckpt = str(tmp_path / "checkpoint.npz")

        code, out, _ = run_cli(capsys, "eval", ckpt, "--seed", "0", "--n-train", "40", "--n-test", "10")
        assert code == 0
        assert "acc_wo=" in out and "acc_w=" in out

        code, out, _ = run_cli(capsys, "solve", ckpt, "--count", "2", "--seed", "3")
        assert code == 0
        boards = [line.split("#")[0].split() for line in out.splitlines()]
        assert all(len(b) == 16 for b in boards)

    def test_sudoku9_data_fails_fast(self, tmp_path, capsys, time_limit):
        from cnfgrad import tasks as TK
        from cnfgrad.nn import save_checkpoint

        ckpt = save_checkpoint(str(tmp_path / "s9"), TK.make_task("sudoku9").build_net(0), meta={"task": "sudoku9", "options": {}})
        with time_limit(30, "sudoku9 train/eval/solve"):
            for argv in (
                ("train", "sudoku9", "--n-train", "8", "--n-test", "2", "--out", str(tmp_path / "run")),
                ("eval", ckpt),
                ("solve", ckpt, "--count", "2"),
            ):
                code, out, err = run_cli(capsys, *argv)
                assert code == 1 and out == ""
                assert err.startswith("error: solved_boards(9): enumerating every board is limited to side <= 4")
            assert not (tmp_path / "run").exists()

            # a given board needs no generated data
            board = " ".join(str((3 * (r % 3) + r // 3 + c) % 9 + 1) for r in range(9) for c in range(9))
            code, out, _ = run_cli(capsys, "solve", ckpt, "--board", board)
            assert code == 0 and out.strip() == board

    def test_solve_complete_board_echoes(self, tmp_path, capsys):
        from cnfgrad.datasets import solved_boards

        run_cli(
            capsys, "train", "sudoku4", "--seed", "0", "--n-train", "20", "--n-test", "5",
            "--epochs", "1", "--out", str(tmp_path),
        )
        board = " ".join(str(v) for v in solved_boards(4)[5])
        code, out, _ = run_cli(capsys, "solve", str(tmp_path / "checkpoint.npz"), "--board", board)
        assert code == 0
        assert out.splitlines()[0].split("  #")[0].strip() == board

    @pytest.mark.parametrize("trick", [True, False])
    def test_solve_output_matches_per_board_completion(self, sudoku4_checkpoint, capsys, trick):
        from cnfgrad.datasets import gen_grid_puzzles

        task, net, ckpt = sudoku4_checkpoint
        lines, bad = [], 0
        for inst in gen_grid_puzzles(4, 12, tier="easy", seed=6):
            q = inst.q.copy()
            if trick:  # one board at a time, the most confident empty cell per round
                while (empty := np.flatnonzero(q == 0)).size:
                    probs = task.cell_probs(net, q)
                    cell = int(empty[np.argmax(probs[empty].max(axis=1))])
                    q[cell] = int(np.argmax(probs[cell])) + 1
            else:
                probs = task.cell_probs(net, q)
                q[q == 0] = np.argmax(probs[q == 0], axis=1) + 1
            valid = task.verify_board(q)
            bad += not valid
            lines.append(" ".join(str(int(v)) for v in q) + ("" if valid else "  # violates the theory"))
        assert 0 < bad < len(lines)

        flag = "--inference-trick" if trick else "--no-inference-trick"
        code, out, err = run_cli(capsys, "solve", ckpt, "--count", "12", "--seed", "6", flag)
        assert code == 0
        assert out == "\n".join(lines) + "\n"
        assert err == f"{bad}/12 boards violate the theory\n"

    def test_default_flags_follow_default_config(self, tmp_path, capsys):
        from cnfgrad import tasks as TK
        from cnfgrad.nn import format_metrics, run_training

        code, _, _ = run_cli(
            capsys, "train", "exactly-one", "--labeled", "40", "--unlabeled", "20", "--n-test", "30",
            "--epochs", "2", "--seed", "3", "--out", str(tmp_path),
        )
        assert code == 0
        task = TK.make_task("exactly-one")
        _, rows = run_training(
            task.make_data(seed=3, n_labeled=40, n_unlabeled=20, n_test=30), task.default_config(seed=3, epochs=2)
        )
        assert (tmp_path / "metrics.csv").read_text() == format_metrics(rows)
        echo = json.loads((tmp_path / "run.json").read_text())
        assert (echo["fn"], echo["ste"], echo["alpha"], echo["beta"]) == ("b", "s", 0.5, 0.0)

    def test_eval_exactly_one_reports_violations(self, tmp_path, capsys):
        code, _, _ = run_cli(
            capsys, "train", "exactly-one", "--labeled", "40", "--unlabeled", "20", "--n-test", "30",
            "--epochs", "1", "--seed", "2", "--out", str(tmp_path),
        )
        assert code == 0
        code, out, _ = run_cli(
            capsys, "eval", str(tmp_path / "checkpoint.npz"), "--labeled", "40", "--unlabeled", "20",
            "--n-test", "30", "--seed", "2",
        )
        assert code == 0 and "violations" in out