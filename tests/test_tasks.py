import dataclasses
import hashlib
import struct

import numpy as np
import pytest

from cnfgrad import datasets as D
from cnfgrad import nn as N
from cnfgrad import tasks as TK
from cnfgrad import tensor as T
from cnfgrad import verify as V
from cnfgrad.closs import LossWeights, assemble_prediction, bound_loss, cnf_loss, cnf_loss_forward, cnf_loss_rows, hint_loss, sum_loss
from cnfgrad.closs import closed_form_grad
from cnfgrad.cnf import Assignment, ClauseMatrix, CnfTheory, FactVector, build_matrix, parse_dimacs, serialize_atom_names, serialize_dimacs
from cnfgrad.tensor import Tensor
import tape_reference
from kernel_reference import reference_rows


STATED_SHAPES = {
    "mnist-add": (19, 119),
    "mnist-add2": (199, 10199),
    "add2x2": (76, 476),
    "apply2x2": (10597, 10606),
    "member3": (40, 50),
    "member5": (60, 70),
    "sudoku9": (8991, 729),
    "shortest-path": (120, 40),
    "exactly-one": (46, 10),
}


@pytest.fixture(scope="module")
def mnist_add3_task():
    """Built once and shared by the tests of the largest theory."""
    return TK.make_task("mnist-add3")


class TestTheoryShapes:
    @pytest.mark.parametrize("name,shape", sorted(STATED_SHAPES.items()))
    def test_stated_shape(self, name, shape):
        theory = TK.make_task(name).theory
        assert (theory.m, theory.n) == shape

    def test_mnist_add3(self, mnist_add3_task):
        assert (mnist_add3_task.theory.m, mnist_add3_task.theory.n) == (1999, 1001999)

    def test_dense_reference_refuses_mnist_add3(self, mnist_add3_task, monkeypatch):
        # about 16 GB of float64 per dense node: the guard must raise before any of it exists
        matrix = mnist_add3_task.matrix

        def refuse(self):
            raise AssertionError("the guard let the dense matrix be built")

        monkeypatch.setattr(ClauseMatrix, "dense", refuse)
        n = matrix.shape[1]
        with pytest.raises(ValueError, match="1 x 1999 x 1001999 float64 is 15,282 MiB"):
            cnf_loss(matrix, Tensor(np.zeros(n)), np.zeros(n))

    def test_sudoku4(self):
        assert (TK.sudoku_theory(4).m, TK.sudoku_theory(4).n) == (336, 64)

    def test_sudoku_box_family_counts(self):
        assert TK.sudoku_theory(9, include_box_uec=True).m == 11988
        assert TK.sudoku_theory(4, include_box_uec=True).m == 448

    def test_exactly_one_two_classes(self):
        theory = TK.exactly_one_theory(2)
        assert theory.clauses == ((1, 2), (-1, -2))

    def test_member_clause_structure(self):
        theory = TK.member_theory(3)
        present = next(cl for cl in theory.clauses if len(cl) == 4)
        negs = [lit for lit in present if lit < 0]
        assert len(negs) == 1 and len(present) == 4

    def test_mnist_add_clause_for_sum_one(self):
        theory = TK.mnist_add_theory(1)
        names = theory.atom_names
        clause = theory.clauses[1]
        literals = {names[abs(lit) - 1]: lit > 0 for lit in clause}
        assert literals == {"sum(1)": False, "pred(0,1)": True, "pred(1,0)": True}

    def test_shortest_path_clause_split(self):
        theory = TK.shortest_path_theory()
        # 16 existence clauses (one positive edge disjunction per node) and
        # 104 ordered pairs of distinct incident edges, all-negative
        all_negative = [cl for cl in theory.clauses if all(lit < 0 for lit in cl)]
        assert len(all_negative) == 104 and all(len(cl) == 3 for cl in all_negative)
        assert sum(1 for cl in theory.clauses if any(lit > 0 for lit in cl)) == 16

    def test_dimacs_round_trip(self):
        theory = TK.make_task("member3").theory
        assert parse_dimacs(serialize_dimacs(theory)).clauses == theory.clauses


# Test ids of the flag variants -> (registered task, constructor options).
VARIANTS = {"sudoku4-box": ("sudoku4", {"include_box_uec": True})}


def variant_task(case: str, request) -> TK.TaskSpec:
    if case == "mnist-add3":
        return request.getfixturevalue("mnist_add3_task")
    name, options = VARIANTS.get(case, (case, {}))
    return TK.make_task(name, **options)


class TestGroundTruthAssembly:
    """``check_rows`` feeds the ground truth through the assembly that training uses."""

    @pytest.mark.parametrize(
        "name",
        ["mnist-add", "add2x2", "member3", "member5", "sudoku4", "shortest-path", "apply2x2", "mnist-add3", *VARIANTS],
    )
    def test_truth_satisfies_theory(self, name, request):
        task = variant_task(name, request)
        ds = task.make_data(seed=5, n_train=30, n_test=5)
        assert task.check_rows(ds.train).all()

    def test_sudoku9_truth(self):
        # sudoku9 data generation is refused, so the board is built by pattern
        task = TK.make_task("sudoku9")
        board = np.array([(3 * (r % 3) + r // 3 + c) % 9 + 1 for r in range(9) for c in range(9)])
        q = np.where(np.arange(81) % 7 == 0, 0, board)
        wrong = board.copy()
        wrong[[1, 2]] = wrong[[2, 1]]
        boards = TK.GridSplit(q=np.stack([q, board, q]), solution=np.stack([board, board, wrong]))
        assert task.check_rows(boards).tolist() == [True, True, False]

    def test_exactly_one_truth(self):
        task = TK.make_task("exactly-one")
        ds = task.make_data(seed=5, n_labeled=30, n_unlabeled=5, n_test=5)
        assert task.check_rows(ds.train).all()

    @pytest.mark.parametrize(
        "name,wrong",
        [
            ("mnist-add", lambda rows: {"label_sum": (rows.label_sum + 1) % 19}),
            ("member3", lambda rows: {"label": 1 - rows.label}),
            ("add2x2", lambda rows: {"sums": (rows.sums + [1, 0, 0, 0]) % 19}),
            ("shortest-path", lambda rows: {"labels": np.zeros_like(rows.labels)}),
        ],
        ids=["mnist-add-label_sum", "member3-label", "add2x2-sums", "shortest-path-label"],
    )
    def test_wrong_label_fails_the_check(self, name, wrong, request):
        task = variant_task(name, request)
        train = task.make_data(seed=5, n_train=10, n_test=2).train
        assert not task.check_rows(dataclasses.replace(train, **wrong(train))).any()

    def test_mnist_add2_truth(self):
        task = TK.make_task("mnist-add2")
        ds = task.make_data(seed=5, n_train=10, n_test=2)
        assert task.check_rows(ds.train).all()

    def test_mnist_add_pred_mass_sums_to_one(self):
        # products of two probability vectors fill the joint slots with total mass 1
        task = TK.make_task("mnist-add")
        rng = np.random.default_rng(0)
        p1, p2 = rng.dirichlet(np.ones(10)), rng.dirichlet(np.ones(10))
        joint = np.outer(p1, p2).reshape(-1)
        assert joint.sum() == pytest.approx(1.0)
        assert np.all((0 <= joint) & (joint <= 1))


class TestSudokuTask:
    def test_solved_board_count(self):
        assert len(D.solved_boards(4)) == 288

    def test_facts_from_givens(self):
        task = TK.make_task("sudoku4")
        q = np.zeros(16, dtype=np.int64)
        q[0] = 3
        assert np.flatnonzero(task.board_bits(q)).tolist() == [2]

    def test_solution_zeroes_loss(self):
        task = TK.make_task("sudoku4")
        x, facts = task.truth_rows(task.make_data(seed=2, n_train=10, n_test=2).train)
        for xs, f in zip(x.data, facts):
            v = f + (1 - f) * (xs >= 0.5)
            assert cnf_loss_forward(task.matrix, v.astype(np.int8), f).l_cnf == 0.0

    def test_verify_board(self):
        task = TK.make_task("sudoku4")
        board = np.array(D.solved_boards(4)[10])
        assert task.verify_board(board)
        bad = board.copy()
        bad[0] = bad[1]
        assert not task.verify_board(bad)

    def test_easy_tier_is_deducible(self):
        for inst in D.gen_grid_puzzles(4, 30, tier="easy", seed=3):
            [completed] = D.naked_single_completion(inst.q[None], 4)
            assert completed is not None
            assert np.array_equal(completed, inst.solution)

    def test_hard_tier_is_not_deducible(self):
        for inst in D.gen_grid_puzzles(4, 15, tier="hard", seed=3, holes=(6, 12)):
            assert D.naked_single_completion(inst.q[None], 4) == [None]

    def test_exhausted_pool_raises_in_bounded_time(self, time_limit):
        # only 288 solved 4x4 boards exist, so no 289th distinct zero-hole puzzle exists
        with time_limit(30, "gen_grid_puzzles"):
            with pytest.raises(ValueError, match="288 of 289 distinct easy 4x4 puzzles with 0-0 holes"):
                D.gen_grid_puzzles(4, 289, holes=(0, 0))

    def test_givens_consistent(self):
        for inst in D.gen_grid_puzzles(4, 30, tier="easy", seed=4):
            mask = inst.q != 0
            assert np.array_equal(inst.q[mask], inst.solution[mask])
            solution_bits = task_bits(inst)
            assert Assignment(solution_bits).satisfies(TK.make_task("sudoku4").theory)

    def test_fact_positions_get_no_gradient(self):
        import cnfgrad.tensor as T
        from cnfgrad.closs import assemble_prediction, cnf_loss

        task = TK.make_task("sudoku4")
        inst = task.make_data(seed=6, n_train=1, n_test=1).train[0]
        x = T.Tensor(np.full(64, 0.25), requires_grad=True)
        facts = FactVector(task.board_bits(inst.q))
        T.backward(cnf_loss(task.matrix, assemble_prediction(facts, x, "bp"), facts).l_cnf)
        assert np.all(x.grad[facts.bits == 1] == 0.0)


class TestTheoryPins:
    # sha256 of serialize_dimacs, of serialize_atom_names and of the
    # build_matrix arrays (dtype string, then bytes, for indptr, indices,
    # values) of every registered theory and its box variant, taken
    # from the per-literal builders these array builders replaced.
    DIGESTS = {
        ("mnist-add", ""): (
            "c33d55f9ce21389feffe6d3f2dd0ce845934a73ee7ccdb9375b53606100e36d7",
            "57336ad2ba0f26ee1c51d53f2367c61f2ed1d00db625adfb79ad7740c76c5a6f",
            "1a6f0dea86bea0268b264a0ebbc5ce199dac169ef5b57292450b84a12748f4b7",
        ),
        ("mnist-add2", ""): (
            "7949268e32e786b993b278a95564231fb6e832a2ce1654ef9bd9bd783a394583",
            "7be90b023e10f13d9e0605a7dd890e9fe12c2cac581084784511bcc6a372d08f",
            "47cfb4488e8896216c768c15402d7daa0bb5f8416343ae18c599d989282cb51d",
        ),
        ("mnist-add3", ""): (
            "2d470b82fccd4faedda44ee4c18444ff09719c24a8e39d2790c78b292980d1aa",
            "b9311e386a681c0b6f428e61816787594294c86833fb7ae82a642f2a3da68f5f",
            "e36f258b465aafec9e9bc498c2be07b0f08dbf619f9c0843840402de46122fd3",
        ),
        ("add2x2", ""): (
            "d001c0a4e6dd503d1b39d6d6a431865ce0a42e58a1faf1c48db7b2b9acef11b3",
            "72294da15daebee7c7f97788688e1c475fafb6db076a240abce3551d6f4206e6",
            "ee62a04555cd9dc23ba0f1d0f9ae0b2f8b8a951df5f3746a7c871c981a3403d7",
        ),
        ("apply2x2", ""): (
            "ead77224f23a7c176af551b435c7b99328255eb929353d2eef3acba08bee58a5",
            "7be0410593fe6a9c3cc6745a6efa4cfef2582b6a27f274c7eccd41f69f118602",
            "5d0d9df77f954a7b3f390ba43975f88670c1c085681847e809eccb5954bc99b0",
        ),
        ("member3", ""): (
            "f5080cab12b708cb56d0e40dbc984ffbe944250751a88b0b35ddf4881ecdb444",
            "5d7daa38b5a286cdd828b7f1f355fbd342a810033e3d6a9d76e41237fb52c913",
            "0097c251d752021eba3a36bfbc7435bd5f4a4665d852bbf330430b5a732012bc",
        ),
        ("member5", ""): (
            "8ccb958e68afdb3d9e9a87512e1b9e60c3a9134019fc00ecad720a48c163a086",
            "6f3d3b3ff5f9c3eb8a9d03625a53b72f2232859d4358d45b04e8eac82ccba2d1",
            "a4b1f124c7876f7fad7f949281f41b84d270380a212c8275f4888cf9dfaf51eb",
        ),
        ("sudoku4", ""): (
            "e0611e7d0e73eee1fbb62de5caed7f3400e198ba3dd4e17849bc10abcd8643e5",
            "09e2c0bea6b20e3fff879ae95d79722264ae3171a37730f837510b5f7d9cac00",
            "5d6d1a2a64ca37d6cd96e4dc8a2d61916e867280a2f322085b812e98d5a7b1c3",
        ),
        ("sudoku9", ""): (
            "5284e0e873a36c101302ca3b5e2fdb6a64be624aff878283cb6bc569ff2d5f8e",
            "63de27976008c6d9a66dd7a8b48d1d3927df1cf62c1714f47d719a986a4ba8fa",
            "3172314693cb8a974f7a1554524a35de65aa5f6f979f5cadf5797d2a159eb589",
        ),
        ("shortest-path", ""): (
            "844a32cb518e12053eb172b862b015ed26fb754113469e4c35e0a88dbd009aff",
            "37402f6e8829fa9be732e86c31b80c4a7658c106251355bf79a634015f55aa32",
            "5228ed50ef6d056eee6db803400bb894af44b13e9ac3a96e6020da0aac8aa05c",
        ),
        ("exactly-one", ""): (
            "ed6bc75d6e7f583a0eb75551a699a51a72d3a3dba097a824dec6baa28bb9bc14",
            "d2e7eff1f924cb6329c7284990035f850901d9795b4ebba3e3f1366697afa103",
            "ddd0e7b5cf76f0b570df13fcff5de90fb522b7f2679eea334a8aabc4c48448eb",
        ),
        ("sudoku4", "include_box_uec"): (
            "c677bc9cae4942370afd0a56d2da1bb217f29373d534bd732ec39e7d8b454959",
            "09e2c0bea6b20e3fff879ae95d79722264ae3171a37730f837510b5f7d9cac00",
            "7bfdf5686d50ce897bb124ab628b165e4e77da3ed11d619eba3f4fa61d8ddde7",
        ),
        ("sudoku9", "include_box_uec"): (
            "3b19fed3f801c4e4d9246f3db70313adddab40f63e5da75487bf6f736891e6e9",
            "63de27976008c6d9a66dd7a8b48d1d3927df1cf62c1714f47d719a986a4ba8fa",
            "e0a38113e42492860c991951f894d171faa360a61e40639b93c1503fe177fb3d",
        ),
    }

    @staticmethod
    def matrix_digest(matrix) -> str:
        digest = hashlib.sha256()
        for arr in (matrix.indptr, matrix.indices, matrix.values):
            digest.update(arr.dtype.str.encode())
            digest.update(arr.tobytes())
        return digest.hexdigest()

    @pytest.mark.parametrize("name,option", sorted(DIGESTS))
    def test_theory_bytes_are_pinned(self, name, option):
        # A fresh task, so that the shared mnist-add3 fixture does not keep a million cached names.
        task = TK.make_task(name, **({option: True} if option else {}))
        dimacs, names, matrix = self.DIGESTS[(name, option)]
        assert hashlib.sha256(serialize_dimacs(task.theory).encode()).hexdigest() == dimacs
        assert hashlib.sha256(serialize_atom_names(task.theory).encode()).hexdigest() == names
        assert self.matrix_digest(build_matrix(task.theory)) == matrix

    def test_apply2x2_lookup_is_pinned(self):
        # The per-combination loop that the array builder replaced, in its insertion order.
        lookup = {}
        for d1 in range(11):
            for d2 in range(11):
                for d3 in range(11):
                    reached = {TK._apply_op(TK._apply_op(d1, op1, d2), op2, d3) for op1 in TK.APPLY_OPS for op2 in TK.APPLY_OPS}
                    for r in sorted(reached):
                        lookup[(d1, d2, d3, r)] = 9 + len(lookup)
        _, got = TK.apply2x2_theory()
        assert list(got.items()) == list(lookup.items())


class TestTheoryBuildCost:
    @pytest.mark.parametrize("name", ["mnist-add2", "mnist-add3"])
    def test_training_builds_no_names_or_clause_tuples(self, name, monkeypatch):
        def refuse(self):
            raise AssertionError("a training path built atom names or clause tuples")

        monkeypatch.setattr(CnfTheory, "atom_names", property(refuse))
        monkeypatch.setattr(CnfTheory, "clauses", property(refuse))
        task = TK.make_task(name)
        net = task.build_net(0)
        config = task.default_config(seed=0)
        batch = tiny_data(task).train[:2]
        _, grads = objective_and_grads(task, net, task.batch_loss(net, batch, config), config, len(batch))
        assert all(np.all(np.isfinite(g)) for g in grads)

    def test_mnist_add3_theory_and_matrix_build_fast(self, time_limit):
        with time_limit(2, "mnist_add_theory(3) plus build_matrix"):
            matrix = build_matrix(TK.mnist_add_theory(3))
        assert matrix.shape == (1999, 1001999) and matrix.indptr[-1] == 10**6 + 1999


class TestHeldOutSplit:
    """Evaluation on a task's array split equals the per-pair stacking it replaced, on the same rows."""

    # Task -> (training rows drawn before the test rows, classes, seed tag of its synthetic_features draw).
    DRAWS = {
        "mnist-add": (2 * 8, 10, 11),
        "mnist-add2": (4 * 8, 10, 11),
        "mnist-add3": (6 * 8, 10, 11),
        "add2x2": (4 * 8, 10, 12),
        "apply2x2": (4 * 8, 3, 16),
        "member3": (3 * 8, 10, 14),
        "member5": (5 * 8, 10, 14),
        "exactly-one": (4 + 4, 10, 19),
    }

    @pytest.mark.parametrize("name", sorted(DRAWS))
    def test_classifier_split(self, name):
        task = TK.make_task(name)
        sizes = {"n_labeled": 4, "n_unlabeled": 4} if name == "exactly-one" else {"n_train": 8}
        split = task.make_data(seed=0, n_test=64, **sizes).test
        # The (feature, label) pairs the test split used to be, from the same draw.
        start, classes, tag = self.DRAWS[name]
        feats, labels = D.synthetic_features(start + 64, classes, 0.2, [0, tag], dim=task.input_dim)
        pairs = [(feats[start + i], int(labels[start + i])) for i in range(64)]
        assert len(split) == 64
        assert np.array_equal(split.features, np.stack([feat for feat, _ in pairs]))
        assert np.array_equal(split.labels, [label for _, label in pairs])
        net = task.build_net(3)
        out = net.forward(Tensor(np.stack([feat for feat, _ in pairs])))[0].data
        want = float(np.mean(np.argmax(out, axis=1) == np.array([label for _, label in pairs])))
        assert task.evaluate(net, split) == want
        if name == "exactly-one":
            assert task.violation_fraction(net, split) == float(np.mean((out >= 0.0).sum(axis=1) != 1))

    def test_shortest_path_split(self):
        task = TK.make_task("shortest-path")
        split = task.make_data(seed=0, n_train=8, n_test=64).test
        drawn = D.gen_path_instances(72, seed=[0, 18])[8:]
        feats, labels = drawn.features, drawn.labels
        assert np.array_equal(split.features, feats) and np.array_equal(split.labels, labels)
        net = task.build_net(3)
        # Every row predicts the first instance's path (its edges at logit +4, the rest at -4),
        # so that row at least is an exact match.
        net.weights[-1].data[...] = 0.0
        net.biases[-1].data[...] = np.where(labels[0], 4.0, -4.0)
        want = float(np.mean(np.all((net.forward(Tensor(feats))[0].data >= 0.5) == labels, axis=1)))
        assert want > 0.0 and task.evaluate(net, split) == want


class TestTrainSplit:
    """Row i of every field of a training split is the i-th instance drawn, as the per-instance records had it."""

    # Task -> (images per instance, classes, seed tag of its synthetic_features draw).
    DRAWS = {
        "mnist-add": (2, 10, 11),
        "mnist-add2": (4, 10, 11),
        "mnist-add3": (6, 10, 11),
        "add2x2": (4, 10, 12),
        "apply2x2": (4, 3, 16),
        "member3": (3, 10, 14),
        "member5": (5, 10, 14),
    }

    @staticmethod
    def records(name: str, feats, labels, n: int) -> list[dict]:
        """The fields of each instance, drawn one instance at a time."""
        k, _, _ = TestTrainSplit.DRAWS[name]
        rng = np.random.default_rng([0, 15 if name == "apply2x2" else 13])
        out = []
        for i in range(n):
            digits = [int(d) for d in labels[k * i : k * (i + 1)]]
            fields = {"images": feats[k * i : k * (i + 1)], "digits": digits}
            if name.startswith("mnist-add"):
                half = k // 2
                fields["label_sum"] = int("".join(map(str, digits[:half]))) + int("".join(map(str, digits[half:])))
            elif name == "add2x2":
                fields["sums"] = [digits[a] + digits[b] for a, b in TK.ADD2X2_PAIRS]
            elif name == "apply2x2":
                nums = [int(d) for d in rng.integers(0, 10, size=3)]
                fields.update(ops=digits, digits=nums, results=[
                    TK._apply_op(TK._apply_op(nums[0], TK.APPLY_OPS[digits[a]], nums[1]), TK.APPLY_OPS[digits[b]], nums[2])
                    for a, b in TK.ADD2X2_PAIRS
                ])
            else:
                if rng.random() < 0.5:
                    query = int(rng.choice(digits))
                else:
                    query = int(rng.choice([d for d in range(10) if d not in digits]))
                fields.update(query=query, label=int(query in digits))
            out.append(fields)
        return out

    @pytest.mark.parametrize("name", sorted(DRAWS))
    def test_digit_rows_are_the_draws(self, name, request):
        task = request.getfixturevalue("mnist_add3_task") if name == "mnist-add3" else TK.make_task(name)
        train = task.make_data(seed=0, n_train=40, n_test=3).train
        k, classes, tag = self.DRAWS[name]
        feats, labels = D.synthetic_features(k * 40 + 3, classes, 0.2, [0, tag], dim=task.input_dim)
        assert len(train) == 40
        for i, want in enumerate(self.records(name, feats, labels, 40)):
            for field, value in want.items():
                assert np.array_equal(getattr(train, field)[i], value), (i, field)

    def test_exactly_one_rows_are_the_draws(self):
        task = TK.make_task("exactly-one")
        train = task.make_data(seed=0, n_labeled=4, n_unlabeled=6, n_test=3).train
        feats, labels = D.synthetic_features(13, 10, 0.2, [0, 19], dim=task.input_dim)
        # Three passes over the labelled draws (label_share 2: 2 * 6 - 4 = 8 more rows), then the unlabelled ones.
        order = [0, 1, 2, 3] * 3 + list(range(4, 10))
        assert np.array_equal(train.features, feats[order])
        assert train.labels.tolist() == [int(labels[i]) for i in order[:12]] + [-1] * 6

    def test_sudoku_rows_are_the_draws(self):
        train = TK.make_task("sudoku4").make_data(seed=0, n_train=12, n_test=3).train
        boards = D.gen_grid_puzzles(4, 15, seed=[0, 17])[:12]
        assert np.array_equal(train.q, [b.q for b in boards]) and np.array_equal(train.solution, [b.solution for b in boards])

    def test_shortest_path_rows_are_the_draws(self):
        train = TK.make_task("shortest-path").make_data(seed=0, n_train=12, n_test=3).train
        drawn = D.gen_path_instances(15, seed=[0, 18])[:12]
        assert np.array_equal(train.features, drawn.features) and np.array_equal(train.labels, drawn.labels)

    @pytest.mark.parametrize("name", [n for n in TK.TASK_NAMES if n != "sudoku9"])
    def test_indexing_takes_the_same_rows_of_every_field(self, name, request):
        task = request.getfixturevalue("mnist_add3_task") if name == "mnist-add3" else TK.make_task(name)
        sizes = {"n_labeled": 5, "n_unlabeled": 5} if name == "exactly-one" else {"n_train": 12}
        ds = task.make_data(seed=0, n_test=6, **sizes)
        for split in (ds.train, ds.test):
            names = [f.name for f in dataclasses.fields(split)]
            for index in (np.array([3, 0, 3, 5]), slice(1, 4), 2):
                part = split[index]
                assert type(part) is type(split)
                for field in names:
                    assert np.array_equal(getattr(part, field), getattr(split, field)[index])
                if not isinstance(index, int):
                    assert len(part) == len(getattr(split, names[0])[index])

    def test_sudoku_test_split_iterates_boards(self):
        test = TK.make_task("sudoku4").make_data(seed=0, n_train=4, n_test=5).test
        boards = list(test)
        assert len(boards) == len(test) == 5
        for board, q, solution in zip(boards, test.q, test.solution):
            assert board.q.shape == board.solution.shape == (16,)
            assert board.q.dtype == board.solution.dtype == np.int64
            assert np.array_equal(board.q, q) and np.array_equal(board.solution, solution)


def forward_one(net, x):
    """``net.forward`` on one 1-D input, passed as a (1, d) row; both outputs come back 1-D."""
    return tuple(T.reshape(t, (t.size,)) for t in net.forward(Tensor(x[None])))


def _tensor_sum(terms):
    acc = terms[0]
    for t in terms[1:]:
        acc = acc + t
    return acc


def objective_and_grads(task, net, means, config, batch_size):
    """Each term's value, and the parameter gradients of the batch objective."""
    T.backward(N._batch_total(task, means, config.weights, batch_size))
    grads = [p.grad.copy() for p in net.params()]
    for p in net.params():
        p.grad = None
    return {name: float(t.data) for name, t in means.items()}, grads


def assert_same_objective(got, want):
    (got_terms, got_grads), (want_terms, want_grads) = got, want
    assert got_terms.keys() == want_terms.keys()
    for name in want_terms:
        assert got_terms[name] == pytest.approx(want_terms[name], rel=1e-12)
    for g, w in zip(got_grads, want_grads):
        np.testing.assert_allclose(g, w, rtol=1e-9, atol=1e-12)


def dense_rows(matrix, x, f, fn="bp", ste=T.SteMode.ISTE):
    """A stand-in for ``cnf_loss_rows``: the dense graph ``cnf_loss`` over the zero-padded, assembled rows."""
    padded = T.concat([x, T.constant(np.zeros((x.shape[0], matrix.shape[1] - x.shape[1])))])
    return cnf_loss(matrix, assemble_prediction(f, padded, fn, ste), f).l_cnf


def tiny_data(task, seed=0):
    if isinstance(task, TK.ExactlyOneTask):
        return task.make_data(seed=seed, n_labeled=2, n_unlabeled=2, n_test=1)
    return task.make_data(seed=seed, n_train=4, n_test=1)


class TestSparseTraining:
    # sudoku9 is left out: its data generation refuses boards above 4x4 (tests/test_datasets.py).
    @pytest.mark.parametrize("name", [n for n in TK.TASK_NAMES if n != "sudoku9"])
    def test_no_training_path_densifies(self, name, monkeypatch, request):
        def refuse(self):
            raise AssertionError("a training path densified the clause matrix")

        monkeypatch.setattr(ClauseMatrix, "dense", refuse)
        task = request.getfixturevalue("mnist_add3_task") if name == "mnist-add3" else TK.make_task(name)
        net = task.build_net(0)
        config = task.default_config(seed=0)
        batch = tiny_data(task).train[:2]
        _, grads = objective_and_grads(task, net, task.batch_loss(net, batch, config), config, len(batch))
        assert all(np.all(np.isfinite(g)) for g in grads)

    # sudoku9 is left out: its data generation refuses boards above 4x4 (tests/test_datasets.py).
    @pytest.mark.parametrize("name", [n for n in TK.TASK_NAMES if n != "sudoku9"] + ["sudoku4 gamma delta"])
    def test_batch_objective_gradients_match_zero_filled_tape(self, name, request):
        name, *terms = name.split()
        task = request.getfixturevalue("mnist_add3_task") if name == "mnist-add3" else TK.make_task(name)
        config = task.default_config(seed=4, weights=dataclasses.replace(task.weights, **{t: 0.5 for t in terms}))
        batch = tiny_data(task, seed=4).train
        grads = []
        for backward in (T.backward, tape_reference.backward):
            net = task.build_net(4)
            means = task.batch_loss(net, batch, config)
            assert {{"gamma": "sum", "delta": "hint"}[t] for t in terms} <= means.keys()
            backward(N._batch_total(task, means, config.weights, len(batch)))
            grads.append([p.grad.tobytes() for p in net.params()])
        assert grads[0] == grads[1]

    @pytest.mark.parametrize("name", ["mnist-add", "add2x2", "member3", "sudoku4", "shortest-path"])
    def test_batch_loss_matches_dense_route(self, name, monkeypatch):
        task = TK.make_task(name)
        batch = tiny_data(task, seed=3).train
        net = task.build_net(3)
        config = task.default_config(seed=3)
        sparse = objective_and_grads(task, net, task.batch_loss(net, batch, config), config, len(batch))
        assert sparse[0]["cnf"] > 0.0
        monkeypatch.setattr(TK, "cnf_loss_rows", dense_rows)
        assert_same_objective(sparse, objective_and_grads(task, net, task.batch_loss(net, batch, config), config, len(batch)))

    @pytest.mark.parametrize("name", TK.TASK_NAMES)
    def test_kernel_matches_reference_chain_on_registered_theory(self, name, request):
        task = request.getfixturevalue("mnist_add3_task") if name == "mnist-add3" else TK.make_task(name)
        n = task.theory.n
        rng = np.random.default_rng(len(name))
        for fn, ste in (("bp", T.SteMode.ISTE), ("b", T.SteMode.SSTE)):
            k = int(rng.integers(1, n + 1))
            facts = (rng.random((2, n)) < 0.05).astype(np.int8)
            xs = rng.random((2, k)) if fn == "bp" else rng.uniform(-2.0, 2.0, (2, k))
            weights = Tensor(rng.normal(size=2))
            got, want = Tensor(xs.copy(), requires_grad=True), Tensor(xs.copy(), requires_grad=True)
            fused = cnf_loss_rows(task.matrix, got, facts, fn, ste)
            chain = reference_rows(task.matrix, want, facts, fn, ste)
            assert fused.data.tobytes() == chain.data.tobytes()
            T.backward(T.sum_last(fused * weights))
            T.backward(T.sum_last(chain * weights))
            assert got.grad.tobytes() == want.grad.tobytes()

    # sudoku9 is left out: its data generation refuses boards above 4x4 (tests/test_datasets.py).
    @pytest.mark.parametrize("name", [n for n in TK.TASK_NAMES if n != "sudoku9"])
    def test_training_matches_reference_chain_bytes(self, name, monkeypatch, request):
        """Two small epochs through the fused kernel and through the pre-fusion chain train the same bytes."""
        task = request.getfixturevalue("mnist_add3_task") if name == "mnist-add3" else TK.make_task(name)
        data = tiny_data(task, seed=5)
        config = task.default_config(seed=5, epochs=2, batch_size=2)
        runs, calls = [], []
        for _ in range(2):
            net, rows = N.run_training(data, config)
            runs.append((N.format_metrics(rows), [p.data.tobytes() for p in net.params()]))
            monkeypatch.setattr(TK, "cnf_loss_rows", lambda *args: calls.append(args) or reference_rows(*args))
        assert calls and runs[0] == runs[1]


class TestTrainingBytesPinned:
    """Two seeded epochs of every trainable task write the metrics bytes recorded before the splits became arrays."""

    # Task -> (make_data sizes, sha256 of format_metrics over the two epochs).
    DIGESTS = {
        "mnist-add": ({"n_train": 32}, "0ff75c3827e88799d1f119f62cf5f89f34578a0a043715bdf76110e8a7aca30f"),
        "mnist-add2": ({"n_train": 32}, "45b166eb7baa82f7ef30058351c8800873d8b9232e4d8d50c06da49c9205ee31"),
        # Eight pairs, not 32: each mnist-add3 batch of 16 takes about a second.
        "mnist-add3": ({"n_train": 8}, "a6b7fa615e8e58ff3db42975b4abb58e931fa04825a4954bac0988c69bb8750f"),
        "add2x2": ({"n_train": 32}, "cce5bf49c9ee0d2a3bc16ee949f89aac71072490dd959bc261e16fc2ef98d57d"),
        "apply2x2": ({"n_train": 32}, "2ad952a059bfef82c248ca78313225ffd1bc3c54bd0eff7ca0c305a1eb73260d"),
        "member3": ({"n_train": 32}, "5de6d75411ca7a25130470e40d42130f638150028dce769745ae0aae08e5acba"),
        "member5": ({"n_train": 32}, "12fbcb91fa30d5030ce8639537276901d37df878d0c57a4aec28f2888e09c80e"),
        "sudoku4": ({"n_train": 32}, "5382f09fb359de39f174d9c63332e5204d3475b0504883dd077f9463d27c36bb"),
        "shortest-path": ({"n_train": 32}, "a8b8cbeddce5aad42a0dbc59f6c84326542c5a9d6c660661ba25c12f81ecea03"),
        "exactly-one": ({"n_labeled": 40, "n_unlabeled": 60}, "84a7d92605dfbef71675b08b8ef6207b825cf01a84a4f11d3728db180de41ba1"),
        "sudoku4-sum-hint": ({"n_train": 32}, "a2d50e3a59c5d3f40ab791f99e6bc4f1cef459bee636e6af969c7eedd42d3002"),
    }
    # A run that is not a task at its default weights -> (task, the weights it sets).
    RUNS = {"sudoku4-sum-hint": ("sudoku4", {"gamma": 0.5, "delta": 0.3})}

    @pytest.mark.parametrize("run", sorted(DIGESTS))
    def test_metrics_digest(self, run, request):
        name, weights = self.RUNS.get(run, (run, {}))
        task = request.getfixturevalue("mnist_add3_task") if name == "mnist-add3" else TK.make_task(name)
        sizes, digest = self.DIGESTS[run]
        config = task.default_config(seed=1, epochs=2, weights=dataclasses.replace(task.weights, **weights))
        _, rows = N.run_training(task.make_data(seed=1, n_test=16, **sizes), config)
        assert hashlib.sha256(N.format_metrics(rows).encode()).hexdigest() == digest


class TestNoGradientForConstants:
    """Backward closures skip an operand without a grad buffer before computing its gradient."""

    @staticmethod
    def watch_acc(monkeypatch) -> list[bool]:
        has_buffer = []
        original = T._acc

        def spy(t, g):
            has_buffer.append(t.grad is not None)
            original(t, g)

        monkeypatch.setattr(T, "_acc", spy)
        return has_buffer

    @pytest.mark.parametrize("name", [n for n in TK.TASK_NAMES if n != "sudoku9"])
    def test_training_step(self, name, monkeypatch, request):
        task = request.getfixturevalue("mnist_add3_task") if name == "mnist-add3" else TK.make_task(name)
        net = task.build_net(0)
        config = task.default_config(seed=0)
        batch = tiny_data(task).train[:2]
        has_buffer = self.watch_acc(monkeypatch)
        objective_and_grads(task, net, task.batch_loss(net, batch, config), config, len(batch))
        assert has_buffer and all(has_buffer)

    def test_gradient_suite_case(self, monkeypatch):
        has_buffer = self.watch_acc(monkeypatch)
        assert V.gradient_suite(trials=1, seed=0).ok
        assert has_buffer and all(has_buffer)

    def test_constraint_kernel_on_constant_outputs(self, monkeypatch):
        theory, facts = V.golden_theory()
        scale = Tensor(np.ones(1), requires_grad=True)
        loss = T.sum_last(cnf_loss_rows(build_matrix(theory), Tensor(np.array([V.GOLDEN_X])), facts.bits[None]) * scale)
        has_buffer = self.watch_acc(monkeypatch)

        def refuse(*args, **kwargs):
            raise AssertionError("the kernel computed a gradient for constant outputs")

        monkeypatch.setattr(np, "bincount", refuse)
        T.backward(loss)
        assert has_buffer and all(has_buffer)
        assert scale.grad.tolist() == [V.GOLDEN_FORWARD["cnf"]]


def test_one_batch_recipe_and_one_exception():
    """Every task trains through ``TaskSpec.batch_loss`` but exactly-one, whose unlabelled rows take their facts from its logits."""
    owners = {name for name, cls in vars(TK).items() if isinstance(cls, type) and cls.__module__ == TK.__name__ and "batch_loss" in vars(cls)}
    assert owners == {"TaskSpec", "ExactlyOneTask"}


class TestSudokuBatchLoss:
    def graph_terms(self, task, net, inst, config):
        """The per-board recipe for one board, built on the dense graph route."""
        _, raw = forward_one(net, task.encode_board(inst.q))
        probs = T.softmax(T.reshape(raw, (task.cells, task.side)))
        x = T.reshape(probs, (task.theory.n,))
        facts = FactVector(task.board_bits(inst.q))
        terms = {
            "cnf": cnf_loss(task.matrix, assemble_prediction(facts, x, task.fn, config.ste), facts).l_cnf,
            "bound": bound_loss(raw),
        }
        if config.weights.gamma:
            one_board = T.reshape(probs, (1, task.cells, task.side))
            terms["sum"] = T.reshape(sum_loss(one_board, TK.sudoku_sum_selections(task.side)), ())
        if config.weights.delta:
            terms["hint"] = hint_loss(facts.bits, x, task.fn, config.ste)
        return terms

    @pytest.mark.parametrize("weights", [LossWeights(), LossWeights(beta=0.3, gamma=0.5, delta=0.7)])
    def test_batch_loss_matches_per_board_graph(self, weights):
        task = TK.make_task("sudoku4")
        batch = task.make_data(seed=8, n_train=12, n_test=1).train
        net = task.build_net(8)
        config = task.default_config(seed=8, weights=weights)
        batched = objective_and_grads(task, net, task.batch_loss(net, batch, config), config, len(batch))
        acc: dict = {}
        for inst in batch:
            for name, term in self.graph_terms(task, net, inst, config).items():
                acc.setdefault(name, []).append(term)
        means = {name: (1.0 / len(t)) * _tensor_sum(t) for name, t in acc.items()}
        graph = objective_and_grads(task, net, means, config, len(batch))
        want = {"cnf", "bound"} | ({"sum", "hint"} if weights.gamma else set())
        assert batched[0].keys() == want and batched[0]["cnf"] > 0.0
        assert_same_objective(batched, graph)

    def test_hint_reads_the_task_binarizer(self):
        task = TK.make_task("sudoku4")
        batch = task.make_data(seed=8, n_train=4, n_test=1).train
        net = task.build_net(8)
        config = task.default_config(seed=8, weights=LossWeights(delta=0.5))
        assert float(task.batch_loss(net, batch, config)["hint"].data) > 0.0
        # Under 'b' every probability binarizes to 1, so no fact is missed.
        task.fn = "b"
        assert float(task.batch_loss(net, batch, config)["hint"].data) == 0.0

    def test_sum_loss_batch_axis_matches_per_board(self):
        selections = TK.sudoku_sum_selections(4)
        data = np.random.default_rng(9).dirichlet(np.ones(4), size=(5, 16))
        stacked = Tensor(data.copy(), requires_grad=True)
        per_row = sum_loss(stacked, selections)
        assert per_row.shape == (5,)
        weights = np.arange(1.0, 6.0)
        T.backward(T.sum_last(per_row * weights))
        for b in range(5):
            single = Tensor(data[b : b + 1].copy(), requires_grad=True)
            value = sum_loss(single, selections)
            assert value.shape == (1,) and value.data[0] == pytest.approx(per_row.data[b], rel=1e-12)
            T.backward(T.sum_last(weights[b] * value))
            np.testing.assert_allclose(stacked.grad[b], single.grad[0], rtol=1e-9, atol=1e-12)

    def test_fact_rows_match_board_facts(self):
        task = TK.make_task("sudoku4")
        train = task.make_data(seed=1, n_train=6, n_test=0).train
        rows = task.fact_rows(train)
        assert rows.shape == (6, 64) and rows.dtype == np.int8
        for q, row in zip(train.q, rows):
            want = np.zeros(64, dtype=np.int8)
            for cell, value in enumerate(q):
                if value:
                    want[4 * cell + value - 1] = 1
            assert np.array_equal(row, want)


def outer_chain(probs):
    """The joint atoms of one instance: chained outer products of its 1-D digit probabilities."""
    acc = probs[0]
    for nxt in probs[1:]:
        acc = T.reshape(T.matmul(T.reshape(acc, (acc.size, 1)), T.reshape(nxt, (1, nxt.size))), (acc.size * nxt.size,))
    return acc


def instance_graph_terms(task, net, row, config):
    """The loss terms of the one instance in split ``row``, with one net pass per input and the dense graph ``cnf_loss``."""
    facts = FactVector(task.fact_rows(row)[0])
    if isinstance(task, TK.ShortestPathTask):
        probs, raw = forward_one(net, row.features[0])
        x = T.concat([T.constant(np.zeros(16)), probs])
        label = T.constant(row.labels[0].astype(np.float64))
        safe = T.clip(probs, 1e-12, 1.0 - 1e-12)
        terms = {"base": -1.0 * T.avg_last(label * T.log(safe) + (1.0 - label) * T.log(1.0 - safe)), "bound": bound_loss(raw)}
    else:
        outs = [forward_one(net, img) for img in row.images[0]]
        probs = [p for p, _ in outs]
        if isinstance(task, TK.MnistAddTask):
            parts = [outer_chain(probs)]
        elif isinstance(task, TK.Add2x2Task):
            parts = [outer_chain([probs[a], probs[b]]) for a, b in TK.ADD2X2_PAIRS]
        else:
            parts = probs
        width = sum(p.size for p in parts)
        x = T.concat(parts + [T.constant(np.zeros(task.theory.n - width))])
        terms = {"bound": _tensor_sum([bound_loss(raw) for _, raw in outs])}
    terms["cnf"] = cnf_loss(task.matrix, assemble_prediction(facts, x, task.fn, config.ste), facts).l_cnf
    return terms


def per_instance_objective(task, net, batch, config):
    """The batch objective built one instance graph at a time.

    Each instance adds its share of every term's batch mean, and its
    backward pass adds its share of the parameter gradients, so only one
    dense graph (about 0.5 GB on mnist-add2) is alive at a time.
    """
    values: dict = {}
    for i in range(len(batch)):
        means = {name: (1.0 / len(batch)) * t for name, t in instance_graph_terms(task, net, batch[i : i + 1], config).items()}
        T.backward(N._batch_total(task, means, config.weights, len(batch)))
        for name, t in means.items():
            values[name] = values.get(name, 0.0) + float(t.data)
    grads = [p.grad.copy() for p in net.params()]
    for p in net.params():
        p.grad = None
    return values, grads


class TestDigitAndPathBatchLoss:
    CASES = [("mnist-add", 12), ("mnist-add2", 2), ("add2x2", 8), ("member3", 12), ("member5", 12), ("shortest-path", 12)]

    @pytest.mark.parametrize("name,size", CASES, ids=[f"{n}-default" for n, _ in CASES])
    def test_batch_loss_matches_per_instance_graph(self, name, size):
        task = TK.make_task(name)
        batch = task.make_data(seed=10, n_train=size, n_test=1).train
        net = task.build_net(10)
        config = task.default_config(seed=10)
        batched = objective_and_grads(task, net, task.batch_loss(net, batch, config), config, len(batch))
        assert batched[0]["cnf"] > 0.0
        assert_same_objective(batched, per_instance_objective(task, net, batch, config))


class TestApply2x2BatchLoss:
    """The dense reference refuses apply2x2 (about 0.9 GB per node), so its rows
    are checked against the sparse forward evaluator and the counting oracle."""

    def rows_of_batch(self, task, net, batch, config, monkeypatch):
        """The batch's terms, and the 0/1 prediction rows and fact rows its kernel call reads."""
        captured = {}
        real = TK.cnf_loss_rows

        def spy(matrix, x, f, fn, ste):
            captured["x"], captured["f"] = x.data.copy(), f.copy()
            assert fn == task.fn == "bp"
            return real(matrix, x, f, fn, ste)

        monkeypatch.setattr(TK, "cnf_loss_rows", spy)
        means = task.batch_loss(net, batch, config)
        x, f = captured["x"], captured["f"]
        assert x.shape == (f.shape[0], 9)
        v = f | np.concatenate([x >= 0.5, np.zeros((f.shape[0], task.theory.n - 9), dtype=bool)], axis=1)
        return means, v.astype(np.float64), f

    def test_rows_are_the_truth_pair_layout(self, monkeypatch):
        task = TK.make_task("apply2x2")
        batch = task.make_data(seed=11, n_train=3, n_test=1).train
        net = task.build_net(11)
        config = task.default_config(seed=11)
        means, v, f = self.rows_of_batch(task, net, batch, config, monkeypatch)
        assert v.shape == f.shape == (12, task.theory.n)
        _, lookup = TK.apply2x2_theory()
        probs = [net.predict(batch.images[:, p]) for p in range(4)]
        per_instance = []
        for i, inst in enumerate(batch):
            for p, ((a, b), result) in enumerate(zip(TK.ADD2X2_PAIRS, inst.results)):
                row = 4 * i + p
                assert np.flatnonzero(f[row]).tolist() == [lookup[(*inst.digits, result)]]
                joint = np.outer(probs[a][i], probs[b][i]).reshape(-1)
                assert np.array_equal(v[row], f[row] + np.concatenate([joint >= 0.5, np.zeros(task.theory.n - 9)]))
            per_instance.append(sum(cnf_loss_forward(task.matrix, v[4 * i + p], f[4 * i + p]).l_cnf for p in range(4)))
        assert float(means["cnf"].data) == pytest.approx(np.mean(per_instance), rel=1e-12)
        assert np.mean(per_instance) > 0.0

    def test_row_gradients_match_counting_oracle(self, monkeypatch):
        task = TK.make_task("apply2x2")
        batch = task.make_data(seed=12, n_train=2, n_test=1).train
        net = task.build_net(12)
        _, v, f = self.rows_of_batch(task, net, batch, task.default_config(seed=12), monkeypatch)
        leaf = Tensor(v, requires_grad=True)
        T.backward(T.sum_last(cnf_loss_rows(task.matrix, leaf, f)))
        for row in range(v.shape[0]):
            oracle = closed_form_grad(task.theory, FactVector(f[row]), Assignment(v[row].astype(np.int8)))
            free = f[row] == 0
            np.testing.assert_allclose(leaf.grad[row][free], oracle.g_total[free], rtol=0, atol=1e-9)
            assert np.any(oracle.g_total[free] != 0.0)


def task_bits(inst):
    side = int(round(np.sqrt(inst.q.size)))
    bits = np.zeros(side**3, dtype=np.int8)
    for cell, value in enumerate(inst.solution):
        bits[side * cell + value - 1] = 1
    return bits


class TestExactlyOneRecipe:
    def graph_terms(self, task, net, inst, config):
        """The recipe for one instance, built on the dense graph route."""
        label = int(inst.labels)
        logits, raw = forward_one(net, inst.features)
        fact = int(np.argmax(logits.data)) if label < 0 else label
        facts = FactVector(np.eye(task.classes, dtype=np.int8)[fact])
        x = logits * (1.0 / task.logit_scale)
        v = assemble_prediction(facts, x, task.fn, config.ste)
        cnf = cnf_loss(task.matrix, v, facts).l_cnf + task.hint_weight * hint_loss(facts.bits, x, task.fn, config.ste)
        terms = {"cnf": cnf, "bound": bound_loss(raw)}
        if label >= 0:
            terms["base"] = T.cross_entropy(T.reshape(logits, (1, task.classes)), np.eye(task.classes)[[label]])
        return terms

    def test_batch_loss_matches_per_instance_graph(self):
        task = TK.make_task("exactly-one")
        ds = task.make_data(seed=4, n_labeled=6, n_unlabeled=10, n_test=5)
        batch = ds.train[np.random.default_rng(4).permutation(len(ds.train))[:16]]
        assert (batch.labels < 0).any() and (batch.labels >= 0).any()
        net = task.build_net(4)
        net.biases[-1].data += 0.3
        config = task.default_config(seed=4, weights=LossWeights(alpha=0.5, beta=0.3))
        fused = objective_and_grads(task, net, task.batch_loss(net, batch, config), config, len(batch))
        acc: dict = {}
        for inst in batch:
            for name, term in self.graph_terms(task, net, inst, config).items():
                acc.setdefault(name, []).append(term)
        means = {name: (1.0 / len(t)) * _tensor_sum(t) for name, t in acc.items()}
        graph = objective_and_grads(task, net, means, config, len(batch))
        assert fused[0].keys() == {"base", "cnf", "bound"}
        assert_same_objective(fused, graph)

    def logit_gradient(self, task, logits, recipe):
        """d(constraint term)/d(logits) for one unlabelled row with these logits."""
        net = task.build_net(0)
        for w in net.weights:
            w.data[...] = 0.0
        net.biases[-1].data[...] = logits
        if recipe == "fact":
            unlabelled = TK.LabelledSplit(np.zeros((1, task.input_dim)), np.array([-1]))
            term = task.batch_loss(net, unlabelled, task.default_config())["cnf"]
        else:  # no facts, identity surrogate: the recipe the fact replaces
            out, _ = forward_one(net, np.zeros(task.input_dim))
            term = cnf_loss(task.matrix, assemble_prediction(np.zeros(task.classes), out, "b"), np.zeros(task.classes)).l_cnf
        T.backward(term)
        return net.biases[-1].grad

    def test_two_positive_logits_are_not_a_fixed_point(self):
        task = TK.make_task("exactly-one")
        logits = np.array([1.0, 0.5] + [-1.0] * 8)
        plain = self.logit_gradient(task, logits, "plain")
        assert plain[:2] == pytest.approx([-8 / 46, -8 / 46])  # descent raises both
        fact = self.logit_gradient(task, logits, "fact")
        # deduce +1 and L_unsat +1/46 against the keep term's 9/46, through logits / 2
        assert fact[1] == pytest.approx((1 - 8 / 46) / task.logit_scale)
        assert fact[0] < 0.0 and np.all(fact[2:] > 0.0)

    def test_all_negative_logits_are_not_a_fixed_point(self):
        task = TK.make_task("exactly-one")
        logits = np.array([-0.5] + [-1.0] * 9)
        plain = self.logit_gradient(task, logits, "plain")
        assert plain == pytest.approx([8 / 46] * 10)  # descent lowers every logit
        fact = self.logit_gradient(task, logits, "fact")
        assert fact[0] == pytest.approx(-task.hint_weight / task.classes / task.logit_scale)
        assert np.all(fact[1:] > 0.0)

    def test_saturated_surrogate_gives_the_margin(self):
        task = TK.make_task("exactly-one")
        fact = self.logit_gradient(task, np.array([2.5, -0.5] + [-2.5] * 8), "fact")
        assert fact[0] == 0.0 and np.all(fact[2:] == 0.0) and fact[1] > 0.0

    def test_label_share(self):
        task = TK.make_task("exactly-one")
        ds = task.make_data(seed=1, n_labeled=100, n_unlabeled=5000, n_test=10)
        labels = ds.train.labels
        assert np.count_nonzero(labels >= 0) == 2 * np.count_nonzero(labels == -1) == 10000
        assert len(task.make_data(seed=1, n_labeled=100, n_unlabeled=0, n_test=10).train) == 100


class TestShortestPathData:
    def test_generated_instances_are_unique_paths(self):
        split = D.gen_path_instances(25, seed=1)
        assert split.features.dtype == np.float64 and split.features.shape == (25, 40)
        assert split.labels.dtype == bool and split.labels.shape == (25, 24)
        assert np.all(split.features[:, 24:].sum(axis=1) == 2)
        # path edges all present in the grid
        assert np.all(split.features[:, :24][split.labels] == 1)

    def test_csv_round_trip(self, tmp_path):
        split = D.gen_path_instances(10, seed=2)
        path = tmp_path / "paths.csv"
        D.save_path_csv(split, str(path))
        # sha256 of the file the per-instance writer wrote for the same draws
        assert hashlib.sha256(path.read_bytes()).hexdigest() == "4f36ad91f872835a52361cb2794ffb40cbc37b7698c2ed86df0aa3fd3995363b"
        loaded = D.load_path_csv(str(path))
        assert loaded.features.dtype == np.float64 and loaded.labels.dtype == bool
        assert np.array_equal(loaded.features, split.features) and np.array_equal(loaded.labels, split.labels)

    def test_csv_blank_lines_are_skipped(self, tmp_path):
        split = D.gen_path_instances(2, seed=2)
        path = tmp_path / "paths.csv"
        D.save_path_csv(split, str(path))
        first, second = path.read_text().splitlines()
        path.write_text(f"\n{first}\n  \n\n{second}\n\n")
        loaded = D.load_path_csv(str(path))
        assert np.array_equal(loaded.features, split.features) and np.array_equal(loaded.labels, split.labels)

    def test_csv_validation(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2,3\n")
        with pytest.raises(D.DataFormatError, match="64"):
            D.load_path_csv(str(bad))

    def test_csv_value_other_than_0_or_1_names_its_line(self, tmp_path):
        bad = tmp_path / "bad.csv"
        for line in (",".join(["1"] * 63 + ["2"]), "1,x"):
            bad.write_text("\n" + ",".join(["0"] * 64) + "\n" + line + "\n")
            with pytest.raises(D.DataFormatError, match=r"bad\.csv:3: expected 64 comma-separated 0/1 values"):
                D.load_path_csv(str(bad))


class TestSyntheticDigits:
    def test_zero_noise_is_one_hot(self):
        feats, labels = D.synthetic_features(50, 10, 0.0, 1)
        assert np.array_equal(np.argmax(feats, axis=1), labels)
        assert np.all((feats == 0.0) | (feats == 1.0))

    def test_seeded_reproducibility(self):
        a = D.synthetic_features(100, 10, 0.2, 9)
        b = D.synthetic_features(100, 10, 0.2, 9)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


class TestIdxLoader:
    def make_idx(self, tmp_path, count=4, rows=2, cols=2, image_magic=D.IDX_IMAGES_MAGIC, label_magic=D.IDX_LABELS_MAGIC, label_count=None):
        images = tmp_path / "img.idx"
        labels = tmp_path / "lbl.idx"
        pixels = np.arange(count * rows * cols, dtype=np.uint8)
        images.write_bytes(struct.pack(">IIII", image_magic, count, rows, cols) + pixels.tobytes())
        lcount = count if label_count is None else label_count
        labels.write_bytes(struct.pack(">II", label_magic, lcount) + bytes(range(lcount)))
        return str(images), str(labels)

    def test_load_and_scale(self, tmp_path):
        images, labels = self.make_idx(tmp_path)
        feats, lab = D.load_idx(images, labels)
        assert feats.shape == (4, 4)
        assert feats.max() <= 1.0 and feats.dtype == np.float64
        assert lab.tolist() == [0, 1, 2, 3]

    def test_pixel_255_scales_to_one(self, tmp_path):
        images = tmp_path / "img.idx"
        labels = tmp_path / "lbl.idx"
        images.write_bytes(struct.pack(">IIII", D.IDX_IMAGES_MAGIC, 1, 1, 1) + bytes([255]))
        labels.write_bytes(struct.pack(">II", D.IDX_LABELS_MAGIC, 1) + bytes([7]))
        feats, lab = D.load_idx(str(images), str(labels))
        assert feats[0, 0] == 1.0 and lab[0] == 7

    def test_bad_magic(self, tmp_path):
        images, labels = self.make_idx(tmp_path, image_magic=0x123)
        with pytest.raises(D.DataFormatError, match="magic"):
            D.load_idx(images, labels)

    def test_count_mismatch_names_both(self, tmp_path):
        images, labels = self.make_idx(tmp_path, label_count=3)
        with pytest.raises(D.DataFormatError, match="4 images vs 3 labels"):
            D.load_idx(images, labels)

    def test_truncated(self, tmp_path):
        images = tmp_path / "img.idx"
        images.write_bytes(struct.pack(">IIII", D.IDX_IMAGES_MAGIC, 10, 28, 28) + b"xy")
        labels = tmp_path / "lbl.idx"
        labels.write_bytes(struct.pack(">II", D.IDX_LABELS_MAGIC, 10) + bytes(10))
        with pytest.raises(D.DataFormatError, match="truncated"):
            D.load_idx(str(images), str(labels))


class TestDefaultConfig:
    def test_overrides_win_over_the_recipe(self):
        task = TK.make_task("exactly-one")
        config = task.default_config(ste=T.SteMode.ISTE, weights=LossWeights(alpha=2.0), batch_size=8)
        assert task.ste is T.SteMode.SSTE
        assert (config.ste, config.weights.alpha, config.batch_size) == (T.SteMode.ISTE, 2.0, 8)

    def test_misspelt_key_raises(self):
        # ``fn`` and ``optimizer`` are no options either: the binarizer is the task's own
        # (``TaskSpec.fn``), and Adam is the only optimizer.
        for key, value in (("batchsize", 8), ("fn", "bp"), ("optimizer", "sgd")):
            with pytest.raises(TypeError, match=key):
                TK.make_task("member3").default_config(**{key: value})


class TestRegistry:
    def test_unknown_task(self):
        with pytest.raises(KeyError, match="unknown task"):
            TK.make_task("nosuch")

    def test_all_registered_names_build(self):
        for name in TK.TASK_NAMES:
            if name == "mnist-add3":
                continue  # built above; skipping the multi-second rebuild
            task = TK.make_task(name)
            assert task.theory.n > 0