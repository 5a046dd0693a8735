import hashlib
import os
import platform
import subprocess
import sys

import numpy as np
import pytest

import cnfgrad.tensor as T
from cnfgrad import heap
from cnfgrad import tasks as TK
from cnfgrad.nn import (
    Mlp,
    Optimizer,
    TrainConfig,
    TrainingDiverged,
    format_metrics,
    load_checkpoint,
    predict_with_inference_trick,
    run_training,
    save_checkpoint,
    train_epoch,
)
from cnfgrad.tensor import ShapeError, Tensor


class TestMlp:
    def test_zero_weight_softmax_is_uniform(self):
        net = Mlp((4, 3), head="softmax", seed=0)
        net.weights[0].data[...] = 0.0
        out, raw = net.forward(Tensor(np.ones((5, 4))))
        np.testing.assert_allclose(out.data, 1 / 3)
        assert raw.data.tolist() == np.zeros((5, 3)).tolist()

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        net = Mlp((6, 8, 4), seed=1)
        out, _ = net.forward(Tensor(rng.normal(size=(7, 6))))
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-9)

    def test_sigmoid_head_in_open_interval(self):
        rng = np.random.default_rng(0)
        net = Mlp((6, 8, 4), head="sigmoid", seed=1)
        out, _ = net.forward(Tensor(rng.normal(size=(7, 6))))
        assert np.all((out.data > 0.0) & (out.data < 1.0))

    def test_input_width_checked(self):
        net = Mlp((4, 3), seed=0)
        with pytest.raises(ShapeError, match="width 4"):
            net.forward(Tensor(np.ones((2, 5))))

    @pytest.mark.parametrize("head", ["softmax", "sigmoid", "none"])
    @pytest.mark.parametrize("shape", [(7, 6), (6,)])
    def test_predict_is_forward_bytes(self, head, shape):
        # forward takes rows only, so a 1-D input goes to it as one (1, 6) row
        net = Mlp((6, 8, 5, 4), head=head, seed=1)
        x = np.random.default_rng(2).normal(scale=3.0, size=shape)
        got = net.predict(x)
        assert got.dtype == np.float64 and got.tobytes() == net.forward(Tensor(x.reshape(-1, 6)))[0].data.tobytes()

    @pytest.mark.parametrize(
        "dims,seed,digest",
        [
            ((6, 8, 5, 4), 1, "015f697d98031f2b46bcd67eadf0723ef0765e191f5c5a10b5a08b4763507324"),
            ((20, 16, 10), 7, "d178fb1ec0906a8a348c0c3fdb28fac3b8cdd3110c30e56a3ea6ed1172fc8a30"),
        ],
    )
    def test_initial_parameters_pinned(self, dims, seed, digest):
        """The initial weights and biases, in ``params`` order, hash to the bytes recorded before the net owned its arrays."""
        net = Mlp(dims, seed=seed)
        assert hashlib.sha256(b"".join(p.data.tobytes() for p in net.params())).hexdigest() == digest

    @pytest.mark.parametrize("head", ["softmax", "sigmoid", "none"])
    @pytest.mark.parametrize("dims", [(6, 4), (6, 8, 5, 4)])
    def test_predict_leaves_its_input_and_weights_alone(self, head, dims):
        # predict works in place on the arrays its products make; the caller's batch is never one of them
        net = Mlp(dims, head=head, seed=1)
        x = np.random.default_rng(2).normal(scale=3.0, size=(7, 6))
        before = x.copy()
        params = [p.data.copy() for p in net.params()]
        got = net.predict(x)
        assert x.tobytes() == before.tobytes() and not np.shares_memory(got, x)
        assert all(p.data.tobytes() == q.tobytes() for p, q in zip(net.params(), params))

    def test_predict_builds_no_tensor(self):
        net = Mlp((6, 8, 4), seed=1)
        x = np.ones((3, 6))
        before = repr(T._ids)
        net.predict(x)
        assert repr(T._ids) == before
        net.forward(Tensor(x))
        assert repr(T._ids) != before

    def test_predict_checks_input_width(self):
        with pytest.raises(ShapeError, match="width 4"):
            Mlp((4, 3), seed=0).predict(np.ones((2, 5)))

    def test_cross_entropy_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        net = Mlp((5, 6, 4), seed=2)
        batch = rng.normal(size=(3, 5))
        target = np.zeros((3, 4))
        target[np.arange(3), rng.integers(0, 4, 3)] = 1.0

        out, _ = net.forward(Tensor(batch))
        T.backward(T.cross_entropy(out, target))
        analytic = [p.grad.copy() for p in net.params()]

        h = 1e-5
        for p, got in zip(net.params(), analytic):
            flat = p.data.reshape(-1)
            for i in range(0, flat.size, max(1, flat.size // 5)):
                orig = flat[i]
                flat[i] = orig + h
                up = float(T.cross_entropy(net.forward(Tensor(batch))[0], target).data)
                flat[i] = orig - h
                down = float(T.cross_entropy(net.forward(Tensor(batch))[0], target).data)
                flat[i] = orig
                numeric = (up - down) / (2 * h)
                rel = abs(got.reshape(-1)[i] - numeric) / max(1.0, abs(numeric))
                assert rel <= 1e-5


def _numpy_blas() -> str:
    return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]


class TestThreads:
    @pytest.mark.skipif("openblas" not in _numpy_blas(), reason="numpy's BLAS is not OpenBLAS")
    def test_import_leaves_one_blas_thread(self):
        import cnfgrad

        assert cnfgrad.blas.threads() == 1


# Eight 1 MiB arrays allocated and freed 100 times, after one warm-up round. Under
# glibc's moving thresholds each round trims the heap top and faults its 2,048 pages
# back in (about 200,000 faults in all); with the thresholds fixed, none come back.
_HEAP_CHURN = """
import resource
import numpy as np
import cnfgrad

def churn(rounds):
    for _ in range(rounds):
        blocks = [np.ones(1 << 17) for _ in range(8)]
        del blocks

churn(1)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
churn(100)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


class TestHeap:
    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt is glibc's")
    def test_freed_arrays_cause_no_page_faults(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(heap.__file__)))
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c", _HEAP_CHURN], env=env, capture_output=True, text=True, timeout=120, check=True
        )
        assert int(out.stdout) < 2048  # fewer than one round's pages

    @pytest.mark.parametrize("lib", ["no library", "no mallopt"])
    def test_missing_mallopt_changes_nothing(self, monkeypatch, lib):
        def cdll(name):
            if lib == "no library":
                raise OSError("cannot open the C library")
            return object()

        monkeypatch.setattr(heap.ctypes, "CDLL", cdll)
        assert heap._mallopt() is None
        heap.keep_freed_pages()


class TestOptimizer:
    def test_adam_bias_correction_first_step(self):
        net = Mlp((1, 2), seed=0)
        net.data[...] = 0.0
        net.biases[0].grad[...] = [1.0, -2.0]
        opt = Optimizer(net, lr=0.1)
        opt.step()
        # first Adam step has magnitude lr regardless of gradient scale
        b = net.biases[0].data
        np.testing.assert_allclose(np.abs(b), 0.1, atol=1e-6)
        assert b[0] < 0 < b[1]

    def test_identical_gradients_identical_updates(self):
        rng = np.random.default_rng(4)
        grads = [rng.normal(size=(3, 2)) for _ in range(5)]
        results = []
        for _ in range(2):
            net = Mlp((3, 2), seed=0)
            opt = Optimizer(net, lr=0.01)
            for g in grads:
                net.weights[0].grad[...] = g
                opt.step()
                opt.zero_grad()
            results.append(net.data.copy())
        assert np.array_equal(results[0], results[1])

    def test_adam_matches_textbook_formula(self):
        rng = np.random.default_rng(11)
        lr, b1, b2, eps = 0.003, 0.9, 0.999, 1e-8
        net = Mlp((7, 5), seed=0)
        w, b = net.weights[0], net.biases[0]
        w.data[...], b.data[...] = rng.normal(size=(7, 5)), rng.normal(size=5)
        opt = Optimizer(net, lr=lr)
        want = [w.data.copy(), b.data.copy()]
        m = [np.zeros_like(p) for p in want]
        v = [np.zeros_like(p) for p in want]
        for t in range(1, 51):
            grads = [rng.normal(size=p.shape) * 10.0 ** rng.integers(-3, 3) for p in want]
            w.grad[...], b.grad[...] = grads
            opt.step()
            for i, g in enumerate(grads):
                m[i] = b1 * m[i] + (1.0 - b1) * g
                v[i] = b2 * v[i] + (1.0 - b2) * g * g
                mhat = m[i] / (1.0 - b1**t)
                vhat = v[i] / (1.0 - b2**t)
                want[i] = want[i] - lr * mhat / (np.sqrt(vhat) + eps)
            assert np.array_equal(w.data, want[0]) and np.array_equal(b.data, want[1])


class TestFlatParameters:
    """An ``Mlp``'s parameters and their gradients are views of one array each, which ``Optimizer`` steps as one."""

    def test_params_and_grads_are_views_of_one_array_each(self):
        net = Mlp((6, 8, 5, 4), seed=1)
        params = net.params()
        total = sum(p.size for p in params)
        for attr in ("data", "grad"):
            base = getattr(params[0], attr).base
            assert base.shape == (total,) and all(getattr(p, attr).base is base for p in params)
            base[...] = np.arange(total)  # in params order, back to back
            assert np.concatenate([getattr(p, attr).ravel() for p in params]).tolist() == list(range(total))
        assert net.data is params[0].data.base and net.grad is params[0].grad.base
        opt = Optimizer(net)
        assert opt.data is net.data and opt.grad is net.grad

    def test_step_is_textbook_adam_on_the_net_arrays(self):
        rng = np.random.default_rng(12)
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        net = Mlp((6, 8, 5, 4), seed=1)
        opt = Optimizer(net, lr=lr)
        want, m, v = net.data.copy(), np.zeros(net.data.size), np.zeros(net.data.size)
        for t in range(1, 21):
            g = rng.normal(size=net.grad.size) * 10.0 ** rng.integers(-3, 3)
            net.grad[...] = g
            opt.step()
            opt.zero_grad()
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * g * g
            want = want - lr * (m / (1.0 - b1**t)) / (np.sqrt(v / (1.0 - b2**t)) + eps)
            assert net.data.tobytes() == want.tobytes() and not np.any(net.grad)

    def test_training_step_keeps_each_gradient_array(self):
        task = TK.make_task("exactly-one")
        data = task.make_data(seed=0, n_labeled=20, n_unlabeled=20, n_test=4, noise=0.2)
        net = task.build_net(0)
        opt = Optimizer(net, lr=0.01)
        grads = [p.grad for p in net.params()]
        before = opt.data.copy()
        train_epoch(net, opt, data, task.default_config(seed=0, batch_size=8), 1)
        assert all(p.grad is g for p, g in zip(net.params(), grads))
        assert not np.any(opt.grad) and not np.array_equal(opt.data, before)

    def test_load_checkpoint_restores_into_the_views(self, tmp_path):
        net = Mlp((6, 8, 4), head="sigmoid", seed=3)
        base = net.params()[0].data.base
        base[...] = np.random.default_rng(5).normal(size=base.size)
        path = save_checkpoint(str(tmp_path / "a"), net)
        loaded, _ = load_checkpoint(path)
        restored = loaded.params()[0].data.base
        assert all(p.data.base is restored for p in loaded.params()) and restored.tobytes() == base.tobytes()
        again = save_checkpoint(str(tmp_path / "b"), loaded)
        assert open(again, "rb").read() == open(path, "rb").read()


class TestTraining:
    def make_dataset(self, n_train=60, n_test=40, seed=0):
        task = TK.make_task("exactly-one")
        return task, task.make_data(seed=seed, n_labeled=n_train, n_unlabeled=0, n_test=n_test, noise=0.2)

    def test_supervised_reduction_when_weights_off(self):
        task, ds = self.make_dataset()
        cfg = task.default_config(seed=0, epochs=12, batch_size=16, lr=0.01)
        cfg.weights.alpha = cfg.weights.beta = 0.0
        net, rows = run_training(ds, cfg)
        assert rows[-1]["acc_test"] >= 0.9
        assert rows[-1]["loss_cnf"] >= 0.0 and rows[-1]["loss_total"] == pytest.approx(rows[-1]["loss_base"])

    def test_metrics_row_columns(self):
        task, ds = self.make_dataset(n_train=20, n_test=10)
        cfg = task.default_config(seed=0, epochs=1)
        net, rows = run_training(ds, cfg)
        assert set(rows[0]) == {
            "epoch",
            "loss_total",
            "loss_base",
            "loss_cnf",
            "loss_bound",
            "loss_sum",
            "loss_hint",
            "acc_test",
        }

    def test_determinism_bitwise(self):
        task, ds = self.make_dataset(n_train=30, n_test=20)
        outputs = []
        for _ in range(2):
            cfg = task.default_config(seed=7, epochs=2)
            net, rows = run_training(ds, cfg)
            outputs.append(format_metrics(rows))
        assert outputs[0] == outputs[1]

    def test_metrics_written_after_every_epoch(self, tmp_path, monkeypatch):
        task, ds = self.make_dataset(n_train=40, n_test=10)
        _, clean = run_training(ds, task.default_config(seed=4, epochs=1))
        batches_per_epoch = -(-len(ds.train) // task.default_config(seed=4).batch_size)
        calls = []
        original = task.batch_loss

        def diverge_in_epoch_two(net, batch, config):
            means = original(net, batch, config)
            calls.append(None)
            if len(calls) > batches_per_epoch:
                means["cnf"] = means["cnf"] * float("nan")
            return means

        monkeypatch.setattr(task, "batch_loss", diverge_in_epoch_two)
        cfg = task.default_config(seed=4, epochs=3)
        cfg.metrics_path = str(tmp_path / "metrics.csv")
        with pytest.raises(TrainingDiverged, match="epoch 2"):
            run_training(ds, cfg)
        written = (tmp_path / "metrics.csv").read_text()
        assert written == format_metrics(clean) and len(written.splitlines()) == 2

    def test_nan_aborts_with_term_and_batch(self):
        task, ds = self.make_dataset(n_train=40, n_test=10)
        cfg = task.default_config(seed=0, epochs=2, lr=1e200)
        with np.errstate(all="ignore"), pytest.raises(TrainingDiverged, match=r"(base|cnf|bound|total).*batch \d+"):
            run_training(ds, cfg)


class TestInferenceTrick:
    def test_complete_board_unchanged(self):
        task = TK.make_task("sudoku4")
        net = task.build_net(0)
        board = np.array(TK.D.solved_boards(4)[0])
        assert np.array_equal(predict_with_inference_trick(net, board, task), board)

    def test_single_empty_cell_filled_with_argmax(self):
        task = TK.make_task("sudoku4")
        net = task.build_net(0)
        board = np.array(TK.D.solved_boards(4)[3])
        cell = 7
        digit = board[cell]
        board[cell] = 0
        filled = predict_with_inference_trick(net, board, task)
        probs = task.cell_probs(net, board)
        assert filled[cell] == np.argmax(probs[cell]) + 1
        assert np.count_nonzero(filled == 0) == 0
        board[cell] = digit

    def test_terminates_and_fills_everything(self):
        task = TK.make_task("sudoku4")
        net = task.build_net(1)
        board = np.zeros(16, dtype=np.int64)
        filled = predict_with_inference_trick(net, board, task)
        assert np.all((1 <= filled) & (filled <= 4))

    def test_lowest_index_tie_break(self):
        class Flat:
            side = 2

            def cell_probs(self, net, q):
                return np.full(np.shape(q) + (2,), 0.5)

        filled = predict_with_inference_trick(None, np.zeros(4, dtype=np.int64), Flat())
        # all probabilities equal: cells fill in index order with digit 1
        assert filled.tolist() == [1, 1, 1, 1]

    def test_fill_order_is_lowest_index_first_on_every_board(self):
        class Alternating:
            side = 2

            def cell_probs(self, net, q):
                # every empty cell ties; the favoured digit flips with each filled cell
                flip = np.count_nonzero(q, axis=-1) % 2
                return np.where(np.arange(2) == flip[..., None, None], 0.75, 0.25) * np.ones(np.shape(q) + (1,))

        filled = predict_with_inference_trick(None, np.array([[0, 0, 0, 0], [2, 0, 0, 0], [1, 2, 1, 2]]), Alternating())
        assert filled.tolist() == [[1, 2, 1, 2], [2, 2, 1, 2], [1, 2, 1, 2]]

    def test_stack_fill_equals_per_board_fill(self):
        task = TK.make_task("sudoku4")
        ds = task.make_data(seed=2, n_train=1000, n_test=60)
        net, rows = run_training(ds, task.default_config(seed=2, epochs=2))
        stack = ds.test.q
        before = stack.copy()
        filled = predict_with_inference_trick(net, stack, task)
        singles = [predict_with_inference_trick(net, q, task) for q in stack]
        assert filled.shape == stack.shape
        for board, single in zip(filled, singles):
            assert np.array_equal(board, single)
        # the stack is not modified in place
        assert np.array_equal(stack, before)
        # evaluate scores the same boards the per-board calls produce
        per_board = np.mean([np.array_equal(s, solution) for s, solution in zip(singles, ds.test.solution)])
        assert rows[-1]["acc_test"] == per_board
        assert 0.0 < per_board < 1.0


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        net = Mlp((6, 5, 3), head="sigmoid", seed=3)
        path = save_checkpoint(str(tmp_path / "ck"), net, meta={"task": "exactly-one"})
        loaded, meta = load_checkpoint(path)
        assert meta["task"] == "exactly-one"
        assert loaded.layer_dims == net.layer_dims and loaded.head == net.head
        for a, b in zip(net.params(), loaded.params()):
            assert np.array_equal(a.data, b.data)

    def test_version_checked(self, tmp_path):
        net = Mlp((3, 2), seed=0)
        path = save_checkpoint(str(tmp_path / "ck"), net)
        blob = dict(np.load(path, allow_pickle=False))
        blob["format_version"] = np.array(99)
        np.savez(path, **blob)
        with pytest.raises(ValueError, match="format"):
            load_checkpoint(path)


class TestMetricsFormat:
    def test_header_and_determinism(self):
        rows = [dict(epoch=1.0, loss_total=0.5, loss_base=0.0, loss_cnf=0.5, loss_bound=0.1, loss_sum=0.0, loss_hint=0.0, acc_test=0.25)]
        text = format_metrics(rows)
        assert text.splitlines()[0] == "epoch,loss_total,loss_base,loss_cnf,loss_bound,loss_sum,loss_hint,acc_test"
        assert text == format_metrics(rows)