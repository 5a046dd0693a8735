import re

import numpy as np
import pytest

import cnfgrad.tensor as T
from cnfgrad.tensor import GraphError, ShapeError, SteMode, Tensor, TgfConfig
from cnfgrad.verify import finite_difference_suite, tgf_suite

import tape_reference


def grad_of(build, *arrays):
    leaves = [Tensor(np.asarray(a, dtype=np.float64), requires_grad=True) for a in arrays]
    T.backward(build(*leaves))
    return [leaf.grad for leaf in leaves]


class TestForwardValues:
    def test_prod_last_with_zeros(self):
        out = T.prod_last(Tensor([[1.0, 0.0, 0.0], [1.0, 1.0, 1.0]]))
        assert out.data.tolist() == [0.0, 1.0]

    def test_avg_last(self):
        assert T.avg_last(Tensor([0.0, 1.0])).data == 0.5

    def test_softmax_uniform(self):
        np.testing.assert_allclose(T.softmax(Tensor([0.0, 0.0, 0.0])).data, [1 / 3] * 3)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        out = T.softmax(Tensor(rng.normal(size=(5, 7))))
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-9)

    def test_reductions_squeeze_last_axis(self):
        x = Tensor(np.ones((4, 3)))
        assert T.sum_last(x).shape == (4,)
        assert T.prod_last(x).shape == (4,)
        assert T.avg_last(x).shape == (4,)
        assert T.sum_last(Tensor(np.ones(3))).shape == ()

    def test_broadcast_vector_over_rows(self):
        mat = Tensor(np.arange(6.0).reshape(2, 3))
        vec = Tensor(np.array([1.0, 2.0, 3.0]))
        assert (mat * vec).data.tolist() == [[0.0, 2.0, 6.0], [3.0, 8.0, 15.0]]

    def test_shape_mismatch_reports_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2,\)"):
            Tensor(np.ones((2, 3))) * Tensor(np.ones(2))

    def test_matmul_shapes(self):
        a, b = np.ones((2, 3)), np.ones((3, 4))
        assert T.matmul(Tensor(a), Tensor(b)).shape == (2, 4)
        for x, y in ((np.ones(3), b), (a, np.ones(3)), (np.ones(3), np.ones(3)), (a, np.ones((2, 2)))):
            with pytest.raises(ShapeError, match="^matmul: incompatible shapes"):
                T.matmul(Tensor(x), Tensor(y))

    def test_cross_entropy_rejects_soft_targets(self):
        with pytest.raises(ValueError, match="one-hot"):
            T.cross_entropy(Tensor(np.zeros((2, 3))), np.full((2, 3), 1 / 3))

    def test_cross_entropy_takes_logit_rows_and_an_array_target(self):
        with pytest.raises(ShapeError, match=r"cross_entropy: shapes \(3,\) and \(3,\)"):
            T.cross_entropy(Tensor(np.zeros(3)), np.eye(3)[0])
        with pytest.raises(TypeError):
            T.cross_entropy(Tensor(np.zeros((2, 3))), Tensor(np.eye(3)[:2]))

    def test_concat_and_reshape(self):
        out = T.concat([Tensor([1.0, 2.0]), Tensor([3.0])])
        assert out.data.tolist() == [1.0, 2.0, 3.0]
        assert T.reshape(out, (3, 1)).shape == (3, 1)
        with pytest.raises(ShapeError):
            T.reshape(out, (2, 2))


def exact_linear_grad(op, a, b, w, which):
    """d sum(w * op(a, b)) / d operand, one unit bump at a time (exact: op is linear in it)."""
    base = np.sum(w * op(a, b))
    target = a if which == 0 else b
    grad = np.zeros_like(target)
    for i in np.ndindex(target.shape):
        bumped = target.copy()
        bumped[i] += 1.0
        grad[i] = np.sum(w * (op(bumped, b) if which == 0 else op(a, bumped))) - base
    return grad


class TestBroadcasting:
    OPS = {"add": (T.add, np.add), "sub": (T.sub, np.subtract), "mul": (T.mul, np.multiply)}

    @pytest.mark.parametrize("op", sorted(OPS))
    @pytest.mark.parametrize("sa,sb", [((2, 3, 1), (2, 1, 4)), ((4,), (2, 3, 4)), ((3, 1), (1, 4)), ((1,), (2, 3)), ((), (2, 2))])
    def test_values_and_gradients(self, op, sa, sb):
        rng = np.random.default_rng(7)
        a, b = rng.normal(size=sa), rng.normal(size=sb)
        t_op, np_op = self.OPS[op]
        out = np_op(a, b)
        w = rng.normal(size=out.shape)
        ga, gb = grad_of(lambda x, y: T.sum_last(T.reshape(t_op(x, y) * Tensor(w), (out.size,))), a, b)
        np.testing.assert_array_equal(t_op(Tensor(a), Tensor(b)).data, out)
        assert ga.shape == sa and gb.shape == sb
        np.testing.assert_allclose(ga, exact_linear_grad(np_op, a, b, w, 0), rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(gb, exact_linear_grad(np_op, a, b, w, 1), rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("sa,sb", [((2, 3, 4), (3, 3)), ((2, 1, 3), (4, 2)), ((3,), (4, 2))])
    def test_incompatible_shapes_name_both(self, sa, sb):
        for op in (T.add, T.sub, T.mul):
            with pytest.raises(ShapeError, match=rf"{op.__name__}: incompatible shapes {re.escape(str(sa))} and {re.escape(str(sb))}"):
                op(Tensor(np.ones(sa)), Tensor(np.ones(sb)))


class TestConcat:
    def test_last_axis_values_and_gradient_slices(self):
        rng = np.random.default_rng(8)
        parts = [rng.normal(size=(4, k)) for k in (3, 1, 5)]
        w = rng.normal(size=(4, 9))
        out = T.concat([Tensor(p) for p in parts])
        np.testing.assert_array_equal(out.data, np.concatenate(parts, axis=1))
        grads = grad_of(lambda *ts: T.sum_last(T.sum_last(T.concat(ts) * Tensor(w))), *parts)
        for g, lo, hi in zip(grads, (0, 3, 4), (3, 4, 9)):
            assert np.array_equal(g, w[:, lo:hi])

    def test_rejects_different_leading_axes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(3, 2\)"):
            T.concat([Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2)))])
        with pytest.raises(ShapeError):
            T.concat([Tensor(np.ones((2, 3))), Tensor(np.ones(3))])
        with pytest.raises(ShapeError):
            T.concat([Tensor(1.0), Tensor(np.ones(2))])


class TestBackward:
    def test_quadratic(self):
        (g,) = grad_of(lambda x: T.sum_last(x * x), [1.0, 2.0])
        assert g.tolist() == [2.0, 4.0]

    def test_fanout_accumulates(self):
        def build(x):
            y = x * 2.0
            return T.sum_last(y + y)

        (g,) = grad_of(build, [1.0, 1.0])
        assert g.tolist() == [4.0, 4.0]

    def test_requires_scalar_loss(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ShapeError, match="scalar"):
            T.backward(x * 2.0)

    def test_consumed_graph_rejected(self):
        x = Tensor(np.ones(2), requires_grad=True)
        loss = T.sum_last(x * x)
        T.backward(loss)
        with pytest.raises(GraphError, match="consumed"):
            T.backward(loss)

    def test_shared_subgraph_rejected_across_losses(self):
        x = Tensor(np.ones(2), requires_grad=True)
        y = x * 3.0
        a, b = T.sum_last(y), T.sum_last(y * y)
        T.backward(a)
        with pytest.raises(GraphError, match="consumed"):
            T.backward(b)

    def test_leaf_grads_accumulate_across_graphs(self):
        x = Tensor(np.ones(2), requires_grad=True)
        T.backward(T.sum_last(x * 1.0))
        T.backward(T.sum_last(x * 1.0))
        assert x.grad.tolist() == [2.0, 2.0]

    def test_prod_last_zero_handling(self):
        (g,) = grad_of(lambda x: T.sum_last(T.prod_last(x)), [[2.0, 0.0, 5.0]])
        # only the zero coordinate has a nonzero partial product
        assert g.tolist() == [[0.0, 10.0, 0.0]]
        (g,) = grad_of(lambda x: T.sum_last(T.prod_last(x)), [[0.0, 0.0, 5.0]])
        assert g.tolist() == [[0.0, 0.0, 0.0]]

    def test_deterministic_bitwise(self):
        rng = np.random.default_rng(3)
        data = rng.normal(size=(4, 5))
        w = rng.normal(size=(5, 2))

        def run():
            x = Tensor(data, requires_grad=True)
            out = T.softmax(T.matmul(x, Tensor(w)))
            T.backward(T.sum_last(T.avg_last(T.square(out))))
            return x.grad.copy()

        first = run()
        for _ in range(3):
            assert np.array_equal(run(), first)


class TestTapeAgainstZeroFill:
    """``backward`` takes an interior node's first gradient as it comes; leaf gradients match the zero-filled pass byte for byte."""

    @staticmethod
    def leaf_grads(build, arrays, run):
        leaves = [Tensor(np.array(a, dtype=np.float64), requires_grad=True) for a in arrays]
        run(build(*leaves))
        return [leaf.grad.tobytes() for leaf in leaves]

    def assert_same(self, build, *arrays):
        got = self.leaf_grads(build, arrays, T.backward)
        want = self.leaf_grads(build, arrays, tape_reference.backward)
        assert got == want

    def test_square_by_product_and_sum_with_itself(self):
        data = np.random.default_rng(4).normal(size=(3, 4))
        self.assert_same(lambda x: T.sum_last(T.sum_last(x * x)), data)
        self.assert_same(lambda a: T.sum_last(T.sum_last(T.relu(a + a) * a)), data)
        y = Tensor(data, requires_grad=True)
        T.backward(T.sum_last(T.sum_last(y + y)))
        assert np.array_equal(y.grad, np.full((3, 4), 2.0))

    def test_concat_of_views(self):
        rng = np.random.default_rng(5)

        def build(x, w):
            h = T.relu(T.matmul(x, w))
            flat = T.reshape(h, (3 * 4,))
            joined = T.concat([h, T.square(h), h])
            return T.sum_last(T.sum_last(T.softmax(joined))) + T.sum_last(flat * flat)

        self.assert_same(build, rng.normal(size=(3, 5)), rng.normal(size=(5, 4)))

    @pytest.mark.parametrize("consumer_first", [False, True])
    def test_add_of_interior_nodes_that_are_consumed_again(self, consumer_first):
        # ``add`` hands one array to both operands; an in-place sum into either would corrupt the other
        rng = np.random.default_rng(6)

        def build(x, w):
            p, q = T.matmul(x, w), T.sigmoid(x)
            if consumer_first:
                other = p * q + T.square(q)
                s = p + q
            else:
                s = p + q
                other = p * q + T.square(q)
            return T.sum_last(T.sum_last(s * x)) + T.sum_last(T.sum_last(other))

        self.assert_same(build, rng.normal(size=(2, 3)), rng.normal(size=(3, 3)))

    def test_interior_node_without_a_contribution_gets_zeros(self):
        # avg_last over an empty axis passes nothing back; the node below it still runs on a zero gradient
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        e = Tensor(np.ones((2, 0)), requires_grad=True)
        mid = e * 2.0
        T.backward(T.sum_last(T.avg_last(mid)) + T.sum_last(T.sum_last(x * x)))
        assert mid.grad.shape == (2, 0) and e.grad.shape == (2, 0)
        assert np.array_equal(x.grad, np.full((2, 3), 2.0))


class TestLinear:
    """``linear`` is ``matmul`` then ``add`` in one node, byte for byte: its value and all three gradients."""

    @pytest.mark.parametrize("run", [T.backward, tape_reference.backward], ids=["backward", "zero-filled"])
    @pytest.mark.parametrize("x_shape", [(5, 4), (1, 4)], ids=["rows", "one-row"])
    def test_is_matmul_then_add(self, run, x_shape):
        rng = np.random.default_rng(8)
        arrays = [rng.normal(size=x_shape), rng.normal(size=(4, 3)), rng.normal(size=3)]
        weights = Tensor(rng.normal(size=x_shape[:-1] + (3,)))
        results = []
        for build in (T.linear, lambda x, w, b: T.matmul(x, w) + b):
            leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
            out = build(*leaves)
            loss = T.relu(out) * weights
            run(T.sum_last(T.reshape(loss, (loss.size,))))
            results.append([out.data.tobytes()] + [leaf.grad.tobytes() for leaf in leaves])
        assert results[0] == results[1]

    def test_is_one_node(self):
        x, w, b = Tensor(np.ones((2, 3))), Tensor(np.ones((3, 4)), requires_grad=True), Tensor(np.zeros(4), requires_grad=True)
        out = T.linear(x, w, b)
        assert out.op == "linear" and out._parents == (x, w, b)

    @pytest.mark.parametrize("shapes", [((2, 3), (4, 2), (2,)), ((2, 3), (3, 2), (3,)), ((1, 2, 3), (3, 2), (2,)), ((2, 3), (3,), ()), ((3,), (3, 2), (2,))])
    def test_shapes_checked(self, shapes):
        with pytest.raises(ShapeError, match="^linear: incompatible shapes"):
            T.linear(*(Tensor(np.ones(s)) for s in shapes))


class TestMaxLast:
    """``max_last`` is ``max(axis=-1)`` byte for byte, on both sides of its column-by-column rule."""

    @pytest.mark.parametrize("shape", [(16, 4), (127, 16), (256, 4), (3200, 16), (200, 16, 4), (256, 17), (300, 1)])
    def test_is_numpy_max(self, shape):
        a = np.random.default_rng(9).normal(size=shape)
        a.reshape(-1)[:3] = (np.nan, np.inf, -np.inf)
        assert T.max_last(a).tobytes() == a.max(axis=-1).tobytes()

    def test_empty_axis_is_refused_as_numpy_refuses_it(self):
        with pytest.raises(ValueError, match="zero-size"):
            T.max_last(np.ones((200, 0)))


class TestIndicator:
    def test_matches_equality(self):
        out = T.indicator(Tensor([1.0, 0.0, 0.0]), 0.0)
        assert out.data.tolist() == [0.0, 1.0, 1.0]

    def test_on_matrix(self):
        out = T.indicator(Tensor([[-1.0, -1.0, 1.0], [-1.0, 1.0, 0.0]]), 1.0)
        assert out.data.tolist() == [[0.0, 0.0, 1.0], [0.0, 1.0, 0.0]]

    def test_no_gradient_flows(self):
        x = Tensor(np.array([0.0, 1.0]), requires_grad=True)
        loss = T.sum_last(T.indicator(x, 1.0) * 5.0)
        T.backward(loss)
        assert x.grad is None or np.all(x.grad == 0.0)


class TestBinarize:
    def test_bp_threshold(self):
        assert T.binarize(Tensor([0.3, 0.1, 0.9]), "bp").data.tolist() == [0.0, 0.0, 1.0]
        assert T.binarize(Tensor([0.5]), "bp").data.tolist() == [1.0]

    def test_b_threshold_tie_goes_high(self):
        assert T.binarize(Tensor([-0.2, 0.0, 5.0]), "b").data.tolist() == [0.0, 1.0, 1.0]

    def test_bp_domain_check(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            T.binarize(Tensor([1.2]), "bp")

    def test_surrogates(self):
        x = [-2.0, 0.5]
        (g,) = grad_of(lambda t: T.sum_last(T.binarize(t, "b", SteMode.SSTE)), x)
        assert g.tolist() == [0.0, 1.0]
        (g,) = grad_of(lambda t: T.sum_last(T.binarize(t, "b", SteMode.ISTE)), x)
        assert g.tolist() == [1.0, 1.0]

    def test_iste_passes_upstream_gradient_exactly(self):
        rng = np.random.default_rng(4)
        x_data = rng.random(6)
        x = Tensor(x_data, requires_grad=True)
        w = rng.normal(size=6)
        T.backward(T.sum_last(T.binarize(x, "bp") * Tensor(w)))
        assert np.array_equal(x.grad, w)

    def test_bp_surrogates_coincide(self):
        rng = np.random.default_rng(5)
        x_data = rng.random(8)
        grads = []
        for mode in (SteMode.ISTE, SteMode.SSTE):
            x = Tensor(x_data, requires_grad=True)
            T.backward(T.sum_last(T.binarize(x, "bp", mode)))
            grads.append(x.grad.copy())
        assert np.array_equal(grads[0], grads[1])


class TestTgf:
    def test_value_close_to_step(self):
        x = np.array([0.37, -1.2, 0.0, 2.0])
        for k in (10.0, 1e3, 1e6):
            gate = T.tgf(Tensor(x), TgfConfig(k=k, g_mode="one"))
            step = (x >= 0).astype(float)
            assert np.max(np.abs(gate.data - step)) <= 1.0 / k

    def test_gradient_matches_surrogates(self):
        (g,) = grad_of(lambda t: T.sum_last(T.tgf(t, TgfConfig(k=10.0, g_mode="one"))), [0.37])
        assert g.tolist() == [1.0]
        (g,) = grad_of(lambda t: T.sum_last(T.tgf(t, TgfConfig(k=10.0, g_mode="box"))), [1.5])
        assert g.tolist() == [0.0]

    def test_grid_points_use_right_limit(self):
        (g,) = grad_of(lambda t: T.sum_last(T.tgf(t, TgfConfig(k=10.0, g_mode="one"))), [0.3])
        assert g.tolist() == [1.0]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TgfConfig(k=0.0)
        with pytest.raises(ValueError):
            TgfConfig(k=10.0, g_mode="triangle")

    def test_suite(self):
        result = tgf_suite(trials=200, seed=0)
        assert result.ok, result.summary()


class TestFiniteDifferences:
    def test_all_smooth_ops(self):
        result = finite_difference_suite(cases=40, seed=1)
        assert result.ok, result.summary()
        assert result.max_dev <= 1e-6