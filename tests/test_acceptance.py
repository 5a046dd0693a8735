"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them
all); assertions carry the same bounds, so a red test is a failed
criterion.
"""

import time

import numpy as np
import pytest

from cnfgrad import nn as N
from cnfgrad import tasks as TK
from cnfgrad import verify as V
from cnfgrad.closs import LossWeights
from cnfgrad.nn import format_metrics, run_training


def report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


class TestCriterion1GoldenExample:
    def test_golden_gradients(self):
        start = time.perf_counter()
        result = V.golden_example(tol=1e-12)
        elapsed = time.perf_counter() - start
        report(
            1,
            result.ok and elapsed < 1.0,
            f"worked example forward+gradients, max dev {result.max_dev:.1e}, {elapsed:.2f}s (< 1 s)",
        )


class TestCriterion2ValueSuite:
    def test_200_random_theories(self):
        start = time.perf_counter()
        result = V.value_suite(trials=200, seed=0, n_max=10, m_max=20)
        elapsed = time.perf_counter() - start
        report(
            2,
            result.ok and elapsed < 10.0,
            f"value properties on {result.cases} random theories, {elapsed:.1f}s (< 10 s); "
            + ("zero failures" if result.ok else f"failures: {result.failures[:2]}"),
        )


class TestCriterion3GradientSuite:
    def test_1000_random_instances_both_binarizers(self):
        start = time.perf_counter()
        result = V.gradient_suite(trials=1000, seed=0, n_max=12, m_max=30, tol=1e-9)
        elapsed = time.perf_counter() - start
        report(
            3,
            result.ok and elapsed < 60.0,
            f"graph vs counting oracle on {result.cases} satisfiable instances, both binarizers, "
            f"max dev {result.max_dev:.1e} (tol 1e-9), {elapsed:.1f}s (< 60 s)",
        )


class TestCriterion4TgfSuite:
    def test_gate_matches_surrogates(self):
        start = time.perf_counter()
        result = V.tgf_suite(trials=1000, seed=0, ks=(10.0, 1e3, 1e6))
        elapsed = time.perf_counter() - start
        report(
            4,
            result.ok and elapsed < 5.0,
            f"sawtooth gate vs step/surrogates over {result.cases} points, {elapsed:.1f}s (< 5 s)",
        )


class TestCriterion5TheoryShapes:
    def test_stated_shapes(self):
        stated = {
            "mnist-add": (19, 119),
            "mnist-add2": (199, 10199),
            "add2x2": (76, 476),
            "apply2x2": (10597, 10606),
            "member3": (40, 50),
            "sudoku9": (8991, 729),
            "shortest-path": (120, 40),
            "exactly-one": (46, 10),
        }
        got = {name: (TK.make_task(name).theory.m, TK.make_task(name).theory.n) for name in stated}
        ok = got == stated
        report(5, ok, f"generated clause-matrix shapes {got}")


class TestCriterion6MnistAddDeskScale:
    def test_weakly_supervised_digit_accuracy(self):
        start = time.perf_counter()
        task = TK.make_task("mnist-add")
        ds = task.make_data(seed=1, n_train=5000, n_test=2000, noise=0.2)
        cfg = task.default_config(seed=1, epochs=5, batch_size=16, lr=1e-3)
        assert (cfg.weights.alpha, cfg.weights.beta) == (1.0, 0.1)
        net, rows = run_training(ds, cfg)
        elapsed = time.perf_counter() - start
        best = max(row["acc_test"] for row in rows)
        report(
            6,
            best >= 0.95 and elapsed < 120.0,
            f"synthetic pair-sum training: digit accuracy {best:.4f} within 5 epochs "
            f"(>= 0.95), {elapsed:.0f}s (< 120 s)",
        )


class TestCriterion7SudokuUnsupervised:
    def test_inference_trick_board_accuracy(self):
        start = time.perf_counter()
        task = TK.make_task("sudoku4")
        ds = task.make_data(seed=1, n_train=2000, n_test=200, tier="easy")
        cfg = task.default_config(seed=1, epochs=8, batch_size=16, lr=1e-3)
        assert (cfg.weights.alpha, cfg.weights.beta) == (1.0, 0.1)
        net, rows = run_training(ds, cfg)

        correct = 0
        verified = 0
        for inst in ds.test:
            filled = N.predict_with_inference_trick(net, inst.q, task)
            valid = task.verify_board(filled)
            verified += int(valid)
            if np.array_equal(filled, inst.solution):
                correct += 1
                assert valid, "a board matching the solution must satisfy the theory"
        acc = correct / len(ds.test)
        elapsed = time.perf_counter() - start
        report(
            7,
            acc >= 0.90 and elapsed < 600.0,
            f"unsupervised 4x4 training: board accuracy {acc:.3f} with the inference trick "
            f"(>= 0.90), {verified}/{len(ds.test)} emitted boards satisfy the theory by clause "
            f"evaluation, {elapsed:.0f}s (< 600 s)",
        )


class TestCriterion8SemiSupervisedExactlyOne:
    def test_majority_of_seeds(self):
        start = time.perf_counter()
        passes = []
        details = []
        for seed in (1, 2, 3):
            task = TK.make_task("exactly-one")
            labeled_only = task.make_data(seed=seed, n_labeled=100, n_unlabeled=0, n_test=2000, noise=0.25)
            base_cfg = task.default_config(seed=seed, batch_size=16, lr=1e-3, epochs=60)
            base_cfg.weights = LossWeights(alpha=0.0, beta=0.0)
            _, base_rows = run_training(labeled_only, base_cfg)
            baseline = base_rows[-1]["acc_test"]

            full = task.make_data(seed=seed, n_labeled=100, n_unlabeled=5000, n_test=2000, noise=0.25)
            cfg = task.default_config(seed=seed, batch_size=16, lr=1e-3, epochs=6)
            assert task.fn == "b"
            net = task.build_net(seed)
            net.biases[-1].data += 1.0
            net, rows = run_training(full, cfg, net=net)
            acc = rows[-1]["acc_test"]
            violations = task.violation_fraction(net, full.test)
            ok = acc - baseline >= 0.03 and violations < 0.05
            passes.append(ok)
            details.append(f"seed {seed}: baseline {baseline:.3f}, semi {acc:.3f} ({acc - baseline:+.3f}), violations {violations:.3f}")
        elapsed = time.perf_counter() - start
        report(
            8,
            sum(passes) >= 2 and elapsed < 180.0,
            f"{sum(passes)}/3 seeds pass (+3pp over baseline, violations < 5%); "
            + "; ".join(details)
            + f"; {elapsed:.0f}s (< 180 s)",
        )


class TestCriterion9Determinism:
    def test_byte_identical_metrics(self, tmp_path):
        from cnfgrad.cli import main

        outputs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = main(
                [
                    "train", "sudoku4", "--seed", "5", "--n-train", "120", "--n-test", "30",
                    "--epochs", "2", "--out", str(out),
                ]
            )
            assert code == 0
            outputs.append((out / "metrics.csv").read_bytes())
        report(9, outputs[0] == outputs[1], "repeated seeded training produced byte-identical metrics files")


class TestCriterion10FiniteDifferences:
    def test_200_cases_per_op(self):
        result = V.finite_difference_suite(cases=200, seed=0, tol=1e-6)
        report(
            10,
            result.ok,
            f"central differences over {result.cases} cases, max relative deviation {result.max_dev:.1e} (tol 1e-6)",
        )