import sys
import warnings

import numpy as np
import pytest

import cnfgrad.tensor as T
from cnfgrad.closs import (
    BINCOUNT_MEAN_LENGTH,
    DENSE_BYTES_CAP,
    LossWeights,
    assemble_prediction,
    bound_loss,
    closed_form_grad,
    cnf_loss,
    cnf_loss_forward,
    cnf_loss_rows,
    hint_loss,
    sum_loss,
)
from cnfgrad.cnf import SLOTS_KEPT, Assignment, ClauseMatrix, FactVector, build_matrix, theory_from_clauses
from cnfgrad.tensor import ShapeError, SteMode, Tensor
from cnfgrad.verify import (
    GOLDEN_FORWARD,
    GOLDEN_GRADS,
    GOLDEN_X,
    golden_example,
    golden_theory,
    gradient_suite,
    random_facts,
    random_theory,
    value_suite,
)
from kernel_reference import reference_rows


def make_golden():
    theory, facts = golden_theory()
    return theory, build_matrix(theory), facts


class TestAssemblePrediction:
    def test_worked_example(self):
        _, _, facts = make_golden()
        v = assemble_prediction(facts, Tensor(np.array(GOLDEN_X)), "bp")
        assert v.data.tolist() == [1.0, 0.0, 1.0]

    def test_all_facts_blocks_gradient(self):
        facts = FactVector(np.ones(3, dtype=np.int8))
        x = Tensor(np.array([0.9, 0.9, 0.9]), requires_grad=True)
        v = assemble_prediction(facts, x, "bp")
        assert v.data.tolist() == [1.0, 1.0, 1.0]
        T.backward(T.sum_last(v))
        assert np.all(x.grad == 0.0)

    def test_pure_threshold(self):
        facts = FactVector(np.zeros(2, dtype=np.int8))
        v = assemble_prediction(facts, Tensor(np.array([0.6, 0.4])), "bp")
        assert v.data.tolist() == [1.0, 0.0]

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            assemble_prediction(FactVector(np.zeros(3, dtype=np.int8)), Tensor(np.zeros(2)), "bp")


class TestGoldenExample:
    def test_forward_values(self):
        _, matrix, facts = make_golden()
        v = assemble_prediction(facts, Tensor(np.array(GOLDEN_X)), "bp")
        bd = cnf_loss(matrix, v, facts)
        assert float(bd.l_deduce.data) == 1.0
        assert float(bd.l_unsat.data) == 0.5
        assert float(bd.l_sat.data) == 0.0
        assert float(bd.l_cnf.data) == 1.5
        assert bd.deduce.data.tolist() == [0.0, 1.0]
        assert bd.unsat.data.tolist() == [0.0, 1.0]
        assert bd.l_f.data.tolist() == [[-1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]
        assert bd.l_v.data.tolist() == [[0.0, 1.0, 1.0], [0.0, 0.0, 0.0]]
        assert bd.keep.data.tolist() == [0.0, 0.0]

    def test_gradients_exact(self):
        _, matrix, facts = make_golden()
        for term, expected in GOLDEN_GRADS.items():
            x = Tensor(np.array(GOLDEN_X), requires_grad=True)
            bd = cnf_loss(matrix, assemble_prediction(facts, x, "bp"), facts)
            T.backward(getattr(bd, f"l_{term}"))
            assert x.grad.tolist() == list(expected)

    def test_suite_wrapper(self):
        result = golden_example()
        assert result.ok and result.max_dev == 0.0


class TestPropValueSuite:
    def test_satisfying_assignment_zeroes_the_loss(self):
        theory, matrix, facts = make_golden()
        v = Tensor(np.array([1.0, 1.0, 1.0]))
        bd = cnf_loss(matrix, v, facts)
        assert float(bd.l_cnf.data) == 0.0

    def test_empty_theory(self):
        theory = theory_from_clauses([], 3)
        facts = FactVector(np.zeros(3, dtype=np.int8))
        x = Tensor(np.array([0.9, 0.1, 0.9]), requires_grad=True)
        bd = cnf_loss(build_matrix(theory), assemble_prediction(facts, x, "bp"), facts)
        for term in ("l_deduce", "l_unsat", "l_sat", "l_cnf"):
            assert float(getattr(bd, term).data) == 0.0
        T.backward(bd.l_cnf)
        assert np.all(x.grad == 0.0)

    def test_empty_clause_always_unsat(self):
        theory = theory_from_clauses([()], 2)
        facts = FactVector(np.zeros(2, dtype=np.int8))
        bd = cnf_loss(build_matrix(theory), Tensor(np.array([1.0, 1.0])), facts)
        assert bd.unsat.data.tolist() == [1.0]
        assert float(bd.l_unsat.data) == 1.0

    def test_random_suite(self):
        result = value_suite(trials=200, seed=0)
        assert result.ok, result.summary()


class TestPropGradientSuite:
    def test_random_suite_matches_oracle(self):
        result = gradient_suite(trials=300, seed=0, n_max=12, m_max=30)
        assert result.ok, result.summary()
        assert result.max_dev <= 1e-9

    def test_all_facts_zero_gradients(self):
        theory = theory_from_clauses([(1, 2), (-1, 3)], 3)
        facts = FactVector(np.ones(3, dtype=np.int8))
        report = closed_form_grad(theory, facts, Assignment(np.ones(3, dtype=np.int8)))
        assert np.all(report.g_total == 0.0)

    @pytest.mark.parametrize("bit", [0, 1])
    def test_contradiction_counts_silently(self, bit):
        # the counts need no satisfiable premise: the oracle neither screens nor warns, and matches the graph
        theory = theory_from_clauses([(1,), (-1,)], 1)
        facts = FactVector(np.zeros(1, dtype=np.int8))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = closed_form_grad(theory, facts, Assignment(np.array([bit], dtype=np.int8)))
        for term, name in (("deduce", "g_deduce"), ("unsat", "g_unsat"), ("sat", "g_sat"), ("cnf", "g_total")):
            v = Tensor(np.array([float(bit)]), requires_grad=True)
            T.backward(getattr(cnf_loss(build_matrix(theory), v, facts), f"l_{term}"))
            assert v.grad.tolist() == getattr(report, name).tolist(), term

    def test_worked_example_counts(self):
        theory, _, facts = make_golden()
        report = closed_form_grad(theory, facts, Assignment(np.array([1, 0, 1], dtype=np.int8)))
        assert report.g_deduce.tolist() == [0.0, -1.0, 0.0]
        assert report.g_unsat.tolist() == [0.0, -0.5, 0.0]
        assert report.g_sat.tolist() == [0.0, 0.5, -0.5]
        assert report.g_total.tolist() == [0.0, -1.0, -0.5]

    def test_injected_sign_flip_is_caught(self, monkeypatch):
        # mutation canary: corrupt the oracle and assert the suite notices
        import cnfgrad.closs as closs_module

        original = closs_module.closed_form_grad

        def corrupted(*args, **kwargs):
            report = original(*args, **kwargs)
            report.g_sat[...] = -report.g_sat
            return report

        monkeypatch.setattr(closs_module, "closed_form_grad", corrupted)
        result = gradient_suite(trials=40, seed=1)
        assert not result.ok

    def test_dropped_deduce_clause_is_caught(self, monkeypatch):
        # mutation canary: the reference scan of the deduce rule loses its last clause,
        # under every name a cnfgrad module binds it to
        import cnfgrad.cnf as cnf_module

        original = cnf_module.deduce_set

        def dropped(theory, facts):
            return original(theory, facts)[:-1]

        for name, module in list(sys.modules.items()):
            if name.startswith("cnfgrad") and getattr(module, "deduce_set", None) is original:
                monkeypatch.setattr(module, "deduce_set", dropped)
        assert not value_suite(trials=50, seed=0).ok
        assert not gradient_suite(trials=50, seed=0).ok


class TestRandomDraws:
    # sha256 of serialize_dimacs plus the fact bits of the first 300
    # random_theory / random_facts draws at default_rng(0) with (12, 30).
    # Every gradient-suite case comes from this stream; a change to it
    # changes every drawn theory.
    DIGESTS = {
        False: "7e44a2b52aa256a0dd11497a8246902c4baa4396c0437b48329dcac51b9c6764",
        True: "fd6f6dd1880b3855d0e3416165a638b060c27e7a5468926e26a33ecf2c71e128",
    }

    @pytest.mark.parametrize("allow_empty", [False, True])
    def test_draw_stream_is_pinned(self, allow_empty):
        import hashlib

        from cnfgrad.cnf import serialize_dimacs

        rng = np.random.default_rng(0)
        digest = hashlib.sha256()
        for _ in range(300):
            theory = random_theory(rng, 12, 30, allow_empty=allow_empty)
            facts = random_facts(rng, theory.n)
            digest.update(serialize_dimacs(theory).encode())
            digest.update(facts.bits.tobytes())
        assert digest.hexdigest() == self.DIGESTS[allow_empty]


class TestFactMasking:
    def test_perturbing_fact_positions_changes_nothing(self):
        rng = np.random.default_rng(23)
        from cnfgrad.verify import random_facts, random_theory

        for _ in range(50):
            theory = random_theory(rng, n_max=8, m_max=12)
            facts = random_facts(rng, theory.n, p=0.5)
            if not facts.atoms:
                continue
            matrix = build_matrix(theory)
            x = rng.random(theory.n)
            base = cnf_loss(matrix, assemble_prediction(facts, Tensor(x), "bp"), facts)
            x2 = x.copy()
            for j in facts.atoms:
                x2[j] = rng.random()
            bumped = cnf_loss(matrix, assemble_prediction(facts, Tensor(x2), "bp"), facts)
            for term in ("l_deduce", "l_unsat", "l_sat", "l_cnf"):
                assert float(getattr(base, term).data) == float(getattr(bumped, term).data)


class TestBoundLoss:
    def test_values(self):
        assert float(bound_loss(Tensor(np.zeros(3))).data) == 0.0
        assert float(bound_loss(Tensor(np.array([3.0, -4.0]))).data) == 12.5

    def test_gradient(self):
        x = Tensor(np.array([3.0, -4.0]), requires_grad=True)
        T.backward(bound_loss(x))
        assert x.grad.tolist() == [3.0, -4.0]


def selections(families, rows, cols):
    """The ``sum_loss`` selection matrix of each hand-written family of (row, col) groups."""
    out = []
    for family in families:
        sel = np.zeros((rows * cols, len(family)))
        for g, group in enumerate(family):
            for r, c in group:
                sel[r * cols + c, g] = 1.0
        out.append(sel)
    return out


class TestSumLoss:
    def test_softmax_rows_give_zero(self):
        rng = np.random.default_rng(2)
        probs = T.softmax(Tensor(rng.normal(size=(1, 4, 3))))
        families = [[[(r, c) for c in range(3)] for r in range(4)]]
        assert sum_loss(probs, selections(families, 4, 3)).data.tolist() == pytest.approx([0.0], abs=1e-12)

    def test_single_group_deviation(self):
        probs = Tensor(np.array([[[0.75, 0.75], [0.5, 0.5]]]))
        families = [[[(0, 0), (0, 1)]]]
        assert sum_loss(probs, selections(families, 2, 2)).data.tolist() == pytest.approx([0.25])

    def test_family_averaging(self):
        probs = Tensor(np.array([[[0.75, 0.75], [0.5, 0.5]]]))
        families = [[[(0, 0), (0, 1)], [(1, 0), (1, 1)]]]
        # deviations (0.5)^2 and 0, averaged over the family of two groups
        assert sum_loss(probs, selections(families, 2, 2)).data.tolist() == pytest.approx([0.125])

    def test_takes_a_stack_only(self):
        families = [[[(0, 0), (0, 1)]]]
        with pytest.raises(ShapeError, match=r"got shape \(2, 2\)"):
            sum_loss(Tensor(np.full((2, 2), 0.5)), selections(families, 2, 2))

    def test_sudoku9_groups_shape(self):
        from cnfgrad.tasks import sudoku_sum_selections

        families = sudoku_sum_selections(9)
        assert len(families) == 3
        # 81 groups of 9 atoms each, and every atom in exactly one group of a family
        assert all(sel.shape == (729, 81) and not sel.flags.writeable for sel in families)
        assert all(np.all(sel.sum(axis=0) == 9) and np.all(sel.sum(axis=1) == 1) for sel in families)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        data = rng.random((1, 3, 4))
        families = [[[(r, c) for c in range(4)] for r in range(3)], [[(r, c) for r in range(3)] for c in range(4)]]
        sels = selections(families, 3, 4)
        x = Tensor(data, requires_grad=True)
        T.backward(T.sum_last(sum_loss(x, sels)))
        h = 1e-6
        for r in range(3):
            for c in range(4):
                up, down = data.copy(), data.copy()
                up[0, r, c] += h
                down[0, r, c] -= h
                numeric = (sum_loss(Tensor(up), sels).data[0] - sum_loss(Tensor(down), sels).data[0]) / (2 * h)
                assert x.grad[0, r, c] == pytest.approx(numeric, abs=1e-6)


class TestHintLoss:
    def test_fact_predicted(self):
        assert float(hint_loss(np.array([1, 0], dtype=np.int8), Tensor(np.array([0.9, 0.1]))).data) == 0.0

    def test_fact_missed(self):
        assert float(hint_loss(np.array([1, 0], dtype=np.int8), Tensor(np.array([0.2, 0.1]))).data) == 0.5

    def test_no_facts(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.random(5))
        assert float(hint_loss(np.zeros(5, dtype=np.int8), x).data) == 0.0

    def test_gradient_via_iste(self):
        facts = np.array([1, 0], dtype=np.int8)
        x = Tensor(np.array([0.2, 0.1]), requires_grad=True)
        T.backward(hint_loss(facts, x))
        assert x.grad.tolist() == [-0.5, 0.0]

    def test_sign_binarizer_on_logits(self):
        facts = np.array([1, 0], dtype=np.int8)
        assert float(hint_loss(facts, Tensor(np.array([-0.5, 3.0])), fn="b").data) == 0.5
        assert float(hint_loss(facts, Tensor(np.array([0.0, -3.0])), fn="b").data) == 0.0

    def test_saturated_surrogate_stops_outside_box(self):
        facts = np.array([[1, 0], [1, 0]], dtype=np.int8)
        x = Tensor(np.array([[-0.5, 0.0], [-1.5, 0.0]]), requires_grad=True)
        T.backward(T.sum_last(hint_loss(facts, x, "b", SteMode.SSTE)))
        assert x.grad.tolist() == [[-0.5, 0.0], [0.0, 0.0]]

    def test_shape_mismatch(self):
        x = Tensor(np.array([0.2, 0.1]))
        for facts in (FactVector(np.array([1, 0], dtype=np.int8)), np.array([[1, 0]], dtype=np.int8)):
            with pytest.raises(ShapeError, match="hint_loss"):
                hint_loss(facts, x)


class TestSparseForward:
    def test_matches_graph_on_random_instances(self):
        from cnfgrad.verify import random_facts, random_theory

        rng = np.random.default_rng(31)
        for _ in range(200):
            theory = random_theory(rng, n_max=10, m_max=16, allow_empty=True)
            facts = random_facts(rng, theory.n)
            matrix = build_matrix(theory)
            x = rng.random(theory.n)
            v = assemble_prediction(facts, Tensor(x), "bp")
            bd = cnf_loss(matrix, v, facts)
            sparse = cnf_loss_forward(matrix, v.data.astype(np.int8), facts)
            assert sparse.l_deduce == float(bd.l_deduce.data)
            assert sparse.l_unsat == float(bd.l_unsat.data)
            assert sparse.l_cnf == float(bd.l_cnf.data)
            assert np.array_equal(sparse.unsat, bd.unsat.data == 1.0)


TERMS = ("l_f", "l_v", "deduce", "unsat", "keep", "l_deduce", "l_unsat", "l_sat", "l_cnf")


class TestBatchedGraph:
    """``cnf_loss`` over a (rows, n) stack against one single-instance graph per row."""

    @pytest.mark.parametrize("fn", ["bp", "b"])
    def test_rows_equal_single_graphs_bit_for_bit(self, fn):
        rng = np.random.default_rng(43)
        rows = 3
        for _ in range(60):
            theory = random_theory(rng, n_max=10, m_max=16, allow_empty=True)
            matrix = build_matrix(theory)
            facts = np.stack([random_facts(rng, theory.n).bits for _ in range(rows)])
            xs = rng.uniform(-2.0, 2.0, (rows, theory.n)) if fn == "b" else rng.random((rows, theory.n))
            for term in ("l_deduce", "l_unsat", "l_sat", "l_cnf"):
                x = Tensor(xs.copy(), requires_grad=True)
                batched = cnf_loss(matrix, assemble_prediction(facts, x, fn), facts)
                assert getattr(batched, term).shape == (rows,)
                T.backward(T.sum_last(getattr(batched, term)))
                for r in range(rows):
                    x_r = Tensor(xs[r].copy(), requires_grad=True)
                    single = cnf_loss(matrix, assemble_prediction(facts[r], x_r, fn), facts[r])
                    T.backward(getattr(single, term))
                    for name in TERMS:
                        assert np.array_equal(getattr(batched, name).data[r], getattr(single, name).data), name
                    assert np.array_equal(x.grad[r], x_r.grad), term

    def test_one_graph_yields_every_term_gradient(self):
        from cnfgrad.verify import BINARIZERS, GRAPH_TERMS, _graph_term_grads, _rows_grad

        rng = np.random.default_rng(47)
        for _ in range(100):
            theory = random_theory(rng, n_max=10, m_max=16, allow_empty=True)
            matrix = build_matrix(theory)
            facts = random_facts(rng, theory.n)
            xs = (rng.random(theory.n), rng.uniform(-2.0, 2.0, theory.n))
            grads = _graph_term_grads(matrix, facts, xs, BINARIZERS)
            rows = _rows_grad(matrix, facts, xs, BINARIZERS)
            assert grads.shape == (2, len(GRAPH_TERMS), theory.n) and rows.shape == (2, theory.n)
            for b, (fn, x_data) in enumerate(zip(BINARIZERS, xs)):
                for k, term in enumerate(GRAPH_TERMS):
                    x = Tensor(x_data.copy(), requires_grad=True)
                    T.backward(getattr(cnf_loss(matrix, assemble_prediction(facts, x, fn), facts), f"l_{term}"))
                    assert np.array_equal(grads[b, k], x.grad), (fn, term)
                x = Tensor(x_data[None].copy(), requires_grad=True)
                T.backward(T.sum_last(cnf_loss_rows(matrix, x, facts.bits[None], fn)))
                assert np.array_equal(rows[b], x.grad[0]), fn

    def test_one_dimensional_v_keeps_single_instance_shapes(self):
        theory, matrix, facts = make_golden()
        single = cnf_loss(matrix, assemble_prediction(facts, Tensor(np.array(GOLDEN_X)), "bp"), facts)
        batched = cnf_loss(matrix, assemble_prediction(facts.bits[None], Tensor(np.array([GOLDEN_X])), "bp"), facts.bits[None])
        assert single.l_cnf.shape == () and batched.l_cnf.shape == (1,)
        assert single.l_v.shape == (2, 3) and batched.l_v.shape == (1, 2, 3)
        assert single.deduce.shape == (2,) and batched.deduce.shape == (1, 2)
        for name in TERMS:
            assert np.array_equal(getattr(batched, name).data[0], getattr(single, name).data), name

    def test_shape_mismatch(self):
        _, matrix, facts = make_golden()
        with pytest.raises(ShapeError):
            cnf_loss(matrix, Tensor(np.ones((2, 3))), facts.bits)
        with pytest.raises(ShapeError):
            cnf_loss(matrix, Tensor(np.ones((1, 2, 3))), np.ones((1, 2, 3)))
        with pytest.raises(ShapeError):
            cnf_loss(matrix, Tensor(np.ones(4)), np.ones(4))

    def test_memory_guard_scales_with_rows(self, monkeypatch):
        m, n = 100, 1000  # m empty clauses; 0.8 MB of float64 per row
        matrix = ClauseMatrix((m, n), np.zeros(m + 1, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int8))
        assert float(cnf_loss(matrix, Tensor(np.zeros(n)), np.zeros(n)).l_unsat.data) == 1.0
        rows = DENSE_BYTES_CAP // (m * n * 8) + 1

        def refuse(self):
            raise AssertionError("the guard let the dense matrix be built")

        monkeypatch.setattr(ClauseMatrix, "dense", refuse)
        with pytest.raises(ValueError, match=f"{rows} x {m} x {n} float64 is .* MiB"):
            cnf_loss(matrix, Tensor(np.zeros((rows, n))), np.zeros((rows, n)))


class TestFusedRows:
    """``cnf_loss_rows`` against the pre-fusion chain, the dense graph and the counting oracle."""

    def test_matches_reference_chain_bytes(self):
        rng = np.random.default_rng(53)
        kinds = set()
        for case in range(2400):
            theory = random_theory(rng, n_max=10, m_max=16, allow_empty=True)
            matrix = build_matrix(theory)
            rows, n = int(rng.integers(1, 4)), theory.n
            k = n if case % 2 else int(rng.integers(0, n + 1))
            fn = ("bp", "b")[case % 4 // 2]
            ste = (SteMode.ISTE, SteMode.SSTE)[case % 8 // 4]
            facts = (rng.random((rows, n)) < 0.3).astype(np.int8)
            xs = rng.random((rows, k)) if fn == "bp" else rng.uniform(-2.0, 2.0, (rows, k))
            if case % 3 == 0:
                xs = np.round(xs * 4.0) / 4.0  # ties at the threshold and the box edges
            weights = Tensor(rng.normal(size=rows))
            got, want = Tensor(xs.copy(), requires_grad=True), Tensor(xs.copy(), requires_grad=True)
            fused = cnf_loss_rows(matrix, got, facts, fn, ste)
            chain = reference_rows(matrix, want, facts, fn, ste)
            assert fused.data.tobytes() == chain.data.tobytes()
            T.backward(T.sum_last(fused * weights))
            T.backward(T.sum_last(chain * weights))
            assert got.grad.tobytes() == want.grad.tobytes()
            kinds.add((fn, ste, k < n, any(not cl for cl in theory.clauses)))
        assert len(kinds) == 16

    @pytest.mark.parametrize(
        "clauses",
        [
            [(), (1, -2), (2, 3)],
            [(1, -2), (), (), (-3,), (), (2, 3)],
            [(1, -2), (2, 3), ()],
            [(), (-1,), ()],
            [(), ()],
            [],
        ],
        ids=["first", "middle", "last", "both-ends", "only-empty", "m0"],
    )
    @pytest.mark.parametrize("k", [0, 2, 3])
    def test_empty_clauses_match_reference_chain(self, clauses, k):
        # reduceat runs over the non-empty clauses only; every empty clause counts no literal
        matrix = build_matrix(theory_from_clauses(clauses, 3))
        rng = np.random.default_rng(len(clauses) * 4 + k)
        for fn, ste in (("bp", SteMode.ISTE), ("bp", SteMode.SSTE), ("b", SteMode.ISTE), ("b", SteMode.SSTE)):
            facts = (rng.random((5, 3)) < 0.3).astype(np.int8)
            xs = rng.random((5, k)) if fn == "bp" else rng.uniform(-2.0, 2.0, (5, k))
            weights = Tensor(rng.normal(size=5))
            got, want = Tensor(xs.copy(), requires_grad=True), Tensor(xs.copy(), requires_grad=True)
            fused = cnf_loss_rows(matrix, got, facts, fn, ste)
            chain = reference_rows(matrix, want, facts, fn, ste)
            assert fused.data.tobytes() == chain.data.tobytes()
            T.backward(T.sum_last(fused * weights))
            T.backward(T.sum_last(chain * weights))
            assert got.grad.shape == (5, k) and got.grad.tobytes() == want.grad.tobytes()

    def test_matrix_holds_the_clause_structure(self):
        matrix = build_matrix(theory_from_clauses([(1, -2), (), (2, 3), ()], 3))
        assert matrix.lengths.tolist() == [2, 0, 2, 0] and matrix.nonempty.tolist() == [0, 2] and matrix.starts.tolist() == [0, 2]
        assert matrix.clause_of.tolist() == [0, 0, 2, 2] and matrix.positive.tolist() == [True, False, True, True]
        # a chain of 49 clauses over 50 atoms: no array grows with m x n (2,450), only with the 98 literals or the 49 clauses
        chain = build_matrix(theory_from_clauses([(i + 1, -(i + 2)) for i in range(49)], 50))
        arrays = (chain.lengths, chain.nonempty, chain.starts, chain.clause_of, chain.positive)
        assert [a.size for a in arrays] == [49, 49, 49, 98, 98]

    # Clause lengths, 0 for an empty clause: a mean below BINCOUNT_MEAN_LENGTH counts by bincount, else by reduceat.
    COUNTING_SIDES = {
        "bincount": [0, 2, 1, 3, 0, 0, 4, 2, 2, 3, 1, 0],
        "reduceat": [0, 9, 12, 0, 8, 10, 11, 7, 0],
    }

    @pytest.mark.parametrize("side", sorted(COUNTING_SIDES))
    def test_both_counting_rules_reuse_slots_across_row_counts(self, side):
        lengths = self.COUNTING_SIDES[side]
        n = 12
        rng = np.random.default_rng(len(lengths))
        clauses = [tuple(int(a) * int(rng.choice((-1, 1))) for a in rng.choice(np.arange(1, n + 1), k, replace=False)) for k in lengths]
        matrix = build_matrix(theory_from_clauses(clauses, n))
        assert (sum(lengths) < BINCOUNT_MEAN_LENGTH * len(lengths)) == (side == "bincount")
        for case, rows in enumerate([1, 2, 16, 17, 2, 16]):
            fn, ste = (("bp", SteMode.ISTE), ("b", SteMode.SSTE))[case % 2]
            k = n - case % 3
            facts = (rng.random((rows, n)) < 0.2).astype(np.int8)
            xs = rng.random((rows, k)) if fn == "bp" else rng.uniform(-2.0, 2.0, (rows, k))
            weights = Tensor(rng.normal(size=rows))
            got, want = Tensor(xs.copy(), requires_grad=True), Tensor(xs.copy(), requires_grad=True)
            fused = cnf_loss_rows(matrix, got, facts, fn, ste)
            chain = reference_rows(matrix, want, facts, fn, ste)
            assert fused.data.tobytes() == chain.data.tobytes()
            T.backward(T.sum_last(fused * weights))
            T.backward(T.sum_last(chain * weights))
            assert got.grad.tobytes() == want.grad.tobytes()

    def test_slots_for_fewer_rows_are_a_prefix_of_the_kept_ones(self):
        matrix = build_matrix(theory_from_clauses([(1, -2), (), (2, 3), ()], 3))
        (m, n), nnz = matrix.shape, matrix.indices.size
        for rows in (3, 17, 2):
            by_clause, by_atom = matrix.slots(rows, by_clause=True), matrix.slots(rows, by_clause=False)
            assert by_clause.tolist() == (np.arange(rows)[:, None] * m + matrix.clause_of).ravel().tolist()
            assert by_atom.tolist() == (np.arange(rows)[:, None] * n + matrix.indices).ravel().tolist()
        assert np.shares_memory(matrix.slots(2, by_clause=True), matrix.slots(17, by_clause=True))
        assert matrix.slots(17, by_clause=False).size == 17 * nnz
        big = matrix.slots(SLOTS_KEPT // nnz + 1, by_clause=True)  # past the bound: built, not kept
        assert not np.shares_memory(big, matrix.slots(17, by_clause=True))

    @pytest.mark.parametrize("fn", ["b", "bp"])
    def test_matches_graph_and_oracle(self, fn):
        rng = np.random.default_rng(41)
        for _ in range(150):
            theory = random_theory(rng, n_max=10, m_max=16, allow_empty=True)
            matrix = build_matrix(theory)
            facts = np.stack([random_facts(rng, theory.n).bits for _ in range(3)])
            xs = rng.uniform(-1.0, 1.0, (3, theory.n)) if fn == "b" else rng.random((3, theory.n))

            x = Tensor(xs.copy(), requires_grad=True)
            loss = cnf_loss_rows(matrix, x, facts, fn)
            T.backward(T.sum_last(loss))
            for r in range(3):
                x_r = Tensor(xs[r].copy(), requires_grad=True)
                v = assemble_prediction(facts[r], x_r, fn)
                graph = cnf_loss(matrix, v, facts[r]).l_cnf
                T.backward(graph)
                assert loss.data[r] == float(graph.data)
                np.testing.assert_allclose(x.grad[r], x_r.grad, rtol=0.0, atol=1e-12)

                # at free atoms, the gradient with respect to the prediction bits themselves
                bits = v.data
                v_graph = Tensor(bits.copy(), requires_grad=True)
                T.backward(cnf_loss(matrix, v_graph, facts[r]).l_cnf)
                v_rows = Tensor(bits[None].copy(), requires_grad=True)
                T.backward(T.sum_last(cnf_loss_rows(matrix, v_rows, facts[r][None])))
                free = facts[r] == 0
                assert np.all(v_rows.grad[0][~free] == 0.0)
                np.testing.assert_allclose(v_rows.grad[0][free], v_graph.grad[free], rtol=0.0, atol=1e-12)

                oracle = closed_form_grad(theory, FactVector(facts[r]), Assignment(bits.astype(np.int8)))
                np.testing.assert_allclose(v_rows.grad[0][free], oracle.g_total[free], rtol=0.0, atol=1e-12)

    def test_golden_example(self):
        theory, matrix, facts = make_golden()
        x = Tensor(np.array([GOLDEN_X]), requires_grad=True)
        loss = cnf_loss_rows(matrix, x, facts.bits[None], "bp")
        assert loss.data.tolist() == [GOLDEN_FORWARD["cnf"]]
        T.backward(T.sum_last(loss))
        assert x.grad[0].tolist() == list(GOLDEN_GRADS["cnf"])

    def test_upstream_gradient_scales_each_row(self):
        _, matrix, facts = make_golden()
        x = Tensor(np.array([[1.0, 0.0, 1.0], [1.0, 0.0, 1.0]]), requires_grad=True)
        loss = cnf_loss_rows(matrix, x, np.stack([facts.bits, facts.bits]))
        T.backward(T.sum_last(loss * Tensor(np.array([1.0, 3.0]))))
        assert np.array_equal(x.grad[1], 3.0 * x.grad[0])

    @pytest.mark.parametrize("fn,tail", [("bp", 0.0), ("b", 1.0)])
    def test_columns_past_x_are_binarized_zeros_unless_facts(self, fn, tail):
        # (p3) and (-p3 | p2): only the atoms after the k = 1 columns of x decide the loss
        matrix = build_matrix(theory_from_clauses([(3,), (-3, 2)], 3))
        facts = np.array([[0, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=np.int8)
        x = Tensor(np.full((3, 1), 0.25), requires_grad=True)
        loss = cnf_loss_rows(matrix, x, facts, fn)
        v = np.where(facts == 1, 1.0, np.concatenate([np.zeros((3, 1)), np.full((3, 2), tail)], axis=1))
        want = [float(cnf_loss(matrix, Tensor(v[r]), facts[r]).l_cnf.data) for r in range(3)]
        assert loss.data.tolist() == want
        assert want == ([1.5, 1.5, 1.5] if fn == "bp" else [0.0, 0.0, 0.0])
        T.backward(T.sum_last(loss))
        assert x.grad.shape == (3, 1) and np.all(x.grad == 0.0)

    def test_rejects_bp_input_outside_unit_interval(self):
        _, matrix, facts = make_golden()
        with pytest.raises(ValueError, match=r"'bp' input must lie in \[0, 1\]"):
            cnf_loss_rows(matrix, Tensor(np.array([[0.2, 1.5]])), facts.bits[None], "bp")
        assert cnf_loss_rows(matrix, Tensor(np.array([[0.2, 1.5]])), facts.bits[None], "b").shape == (1,)
        with pytest.raises(ValueError, match="unknown fn"):
            cnf_loss_rows(matrix, Tensor(np.array([[0.2]])), facts.bits[None], "sign")

    def test_shape_mismatch(self):
        _, matrix, facts = make_golden()
        with pytest.raises(ShapeError):
            cnf_loss_rows(matrix, Tensor(np.array([1.0, 0.0, 1.0])), facts.bits)
        with pytest.raises(ShapeError):
            cnf_loss_rows(matrix, Tensor(np.ones((2, 3))), facts.bits[None])
        with pytest.raises(ShapeError):
            cnf_loss_rows(matrix, Tensor(np.ones((1, 3))), facts)
        with pytest.raises(ShapeError, match=r"x has shape \(1, 4\)"):
            cnf_loss_rows(matrix, Tensor(np.ones((1, 4))), np.zeros((1, 4)))
        with pytest.raises(ShapeError):
            cnf_loss_rows(matrix, Tensor(np.ones((1, 2))), np.zeros((1, 2)))


@pytest.mark.parametrize("fn", ["b", "bp"])
@pytest.mark.parametrize("route", ["binarize", "cnf_loss_rows"])
def test_binarizer_rule_is_shared(route, fn):
    """A tie at ``THRESHOLDS[fn]`` reads 1, and an out-of-range 'bp' input is refused in the same words, on both routes."""

    def bits(x):
        if route == "binarize":
            return T.binarize(Tensor(x), fn).data == 1.0
        # the unit clause (p1) holds exactly when the row's one column binarizes to 1
        unit = build_matrix(theory_from_clauses([(1,)], 1))
        return cnf_loss_rows(unit, Tensor(x[:, None]), np.zeros((len(x), 1), dtype=np.int8), fn).data == 0.0

    t = T.THRESHOLDS[fn]
    assert bits(np.array([t - 0.25, t, t + 0.25])).tolist() == [False, True, True]
    if fn == "bp":
        with pytest.raises(ValueError, match=r"^binarize: 'bp' input must lie in \[0, 1\]$"):
            bits(np.array([0.5, 1.5]))


class TestLossWeights:
    def test_defaults(self):
        weights = LossWeights()
        assert (weights.alpha, weights.beta, weights.gamma, weights.delta) == (1.0, 0.1, 0.0, 0.0)

    def test_nonnegative(self):
        for value in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match=f"alpha must be finite and nonnegative, got {value}"):
                LossWeights(alpha=value)