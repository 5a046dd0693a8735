"""Self-contained verification suites for the loss stack.

Each suite derives its expected values outside the routes under test:
clause satisfaction from ``cnf.Assignment`` and deduce-set membership from
the literal scan ``cnf.deduce_set``, gradients from the counting oracle,
smooth ops from central finite differences. The graph and the kernel
compute the deduce rule in forms of their own, so the value and gradient
suites compare three independent forms of it. ``gradient_suite`` is the
one place that screens theory plus facts for satisfiability
(``cnf.brute_force``), the premise of the deduced-sign check; the
counting oracle itself only counts. The command-line ``grad-verify``
subcommand and the acceptance tests both drive these.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import closs
from . import tensor as T
from .closs import assemble_prediction, bound_loss, cnf_loss
from .cnf import Assignment, CnfTheory, FactVector, brute_force, build_matrix, deduce_set, theory_from_clauses
from .tensor import SteMode, Tensor, TgfConfig


@dataclass
class SuiteResult:
    name: str
    cases: int = 0
    max_dev: float = 0.0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def check(self, condition: bool, message: str) -> None:
        if not condition:
            self.failures.append(message)

    def dev(self, value: float) -> float:
        self.max_dev = max(self.max_dev, abs(float(value)))
        return value

    def summary(self) -> str:
        status = "OK" if self.ok else f"FAIL ({len(self.failures)})"
        line = f"{self.name}: {status} (cases={self.cases}, max dev={self.max_dev:.1e})"
        if self.failures:
            line += "\n  " + "\n  ".join(self.failures[:5])
        return line


# -- random problem generators --------------------------------------------------

def random_theory(rng: np.random.Generator, n_max: int, m_max: int, allow_empty: bool = False) -> CnfTheory:
    n = int(rng.integers(1, n_max + 1))
    m = int(rng.integers(0, m_max + 1))
    clauses = []
    for _ in range(m):
        if allow_empty and rng.random() < 0.05:
            clauses.append(())
            continue
        length = int(rng.integers(1, min(n, 5) + 1))
        atoms = rng.choice(n, size=length, replace=False).tolist()
        positive = (rng.random(length) < 0.5).tolist()
        clauses.append(tuple(a + 1 if p else -(a + 1) for a, p in zip(atoms, positive)))
    return theory_from_clauses(clauses, n)


def random_facts(rng: np.random.Generator, n: int, p: float = 0.3) -> FactVector:
    return FactVector((rng.random(n) < p).astype(np.int8))


# -- worked three-atom example ---------------------------------------------------

GOLDEN_X = (0.3, 0.1, 0.9)
GOLDEN_FORWARD = {"deduce": 1.0, "unsat": 0.5, "sat": 0.0, "cnf": 1.5}
GOLDEN_GRADS = {
    "deduce": (0.0, -1.0, 0.0),
    "unsat": (0.0, -0.5, 0.0),
    "sat": (0.0, 0.5, -0.5),
    "cnf": (0.0, -1.0, -0.5),
}


def golden_theory() -> tuple[CnfTheory, FactVector]:
    theory = theory_from_clauses([(-1, -2, 3), (-1, 2)], 3, lambda: ("a", "b", "c"))
    return theory, FactVector.from_atoms([0], 3)


def golden_example(tol: float = 1e-12) -> SuiteResult:
    """The three-atom instance with known forward values and gradients."""
    result = SuiteResult("golden")
    theory, facts = golden_theory()
    matrix = build_matrix(theory)
    for term, expected_grad in GOLDEN_GRADS.items():
        x = Tensor(np.array(GOLDEN_X), requires_grad=True)
        v = assemble_prediction(facts, x, "bp", SteMode.ISTE)
        breakdown = cnf_loss(matrix, v, facts)
        loss = getattr(breakdown, f"l_{term}")
        fwd_dev = result.dev(float(loss.data) - GOLDEN_FORWARD[term])
        result.check(abs(fwd_dev) <= tol, f"forward L_{term} = {float(loss.data)} (expected {GOLDEN_FORWARD[term]})")
        T.backward(loss)
        for j, want in enumerate(expected_grad):
            got = float(x.grad[j])
            result.dev(got - want)
            result.check(abs(got - want) <= tol, f"dL_{term}/dx[{j}] = {got} (expected {want})")
        result.cases += 1
    report = closs.closed_form_grad(theory, facts, Assignment(np.array([1, 0, 1], dtype=np.int8)))
    for name, want in (("g_deduce", GOLDEN_GRADS["deduce"]), ("g_unsat", GOLDEN_GRADS["unsat"]), ("g_sat", GOLDEN_GRADS["sat"])):
        got = getattr(report, name)
        result.check(np.allclose(got, want, atol=tol), f"oracle {name} = {got} (expected {want})")
    return result


# -- loss-value properties -------------------------------------------------------

def value_suite(trials: int = 200, seed: int = 0, n_max: int = 10, m_max: int = 20) -> SuiteResult:
    """Loss values against direct clause evaluation on random instances."""
    result = SuiteResult("values")
    rng = np.random.default_rng(seed)
    for trial in range(trials):
        theory = random_theory(rng, n_max, m_max, allow_empty=True)
        facts = random_facts(rng, theory.n)
        matrix = build_matrix(theory)
        x = Tensor(rng.random(theory.n))
        v = assemble_prediction(facts, x, "bp", SteMode.ISTE)
        bits = v.data.astype(np.int8)
        assignment = Assignment(bits)
        breakdown = cnf_loss(matrix, v, facts)

        falsified = [not assignment.satisfies_clause(cl) for cl in theory.clauses]
        unsat_count = sum(falsified)
        deduce_unsat = sum(falsified[i] for i in deduce_set(theory, facts))

        where = f"trial {trial} (n={theory.n}, m={theory.m})"
        result.check(float(breakdown.l_sat.data) == 0.0, f"{where}: L_sat = {float(breakdown.l_sat.data)}")
        result.check(
            result.dev(float(breakdown.l_deduce.data) - deduce_unsat) == 0.0,
            f"{where}: L_deduce = {float(breakdown.l_deduce.data)} (expected {deduce_unsat})",
        )
        expected_unsat = unsat_count / theory.m if theory.m else 0.0
        result.check(
            result.dev(float(breakdown.l_unsat.data) - expected_unsat) == 0.0,
            f"{where}: L_unsat = {float(breakdown.l_unsat.data)} (expected {expected_unsat})",
        )
        sat = unsat_count == 0
        result.check((float(breakdown.l_unsat.data) == 0.0) == sat, f"{where}: L_unsat zero/sat mismatch")
        result.check((float(breakdown.l_deduce.data) == 0.0) == (deduce_unsat == 0), f"{where}: L_deduce zero mismatch")
        result.check((float(breakdown.l_cnf.data) == 0.0) == sat, f"{where}: L_cnf zero/sat mismatch")
        for term in ("l_deduce", "l_unsat", "l_sat", "l_cnf"):
            result.check(float(getattr(breakdown, term).data) >= 0.0, f"{where}: {term} negative")
        sparse = closs.cnf_loss_forward(matrix, bits, facts)
        result.check(sparse.l_cnf == float(breakdown.l_cnf.data), f"{where}: sparse forward disagrees with graph")
        rows = closs.cnf_loss_rows(matrix, T.reshape(x, (1, theory.n)), facts.bits[None])
        result.check(float(rows.data[0]) == float(breakdown.l_cnf.data), f"{where}: cnf_loss_rows disagrees with graph")
        result.cases += 1
    return result


# -- gradient properties -----------------------------------------------------------

#: The graph terms ``gradient_suite`` checks, in the row order of ``_graph_term_grads``.
GRAPH_TERMS = ("deduce", "unsat", "sat", "cnf")

#: The binarizers ``gradient_suite`` checks, in the order it draws their inputs.
BINARIZERS = ("bp", "b")


def _prediction_stack(facts, xs, fns, copies: int):
    """One leaf per binarizer, tiled ``copies`` times and binarized by its own ``fn``.

    Returns the leaves and the predictions joined into one
    (len(fns) * copies, n) stack, binarizer-major, with its fact rows:
    the input of the dense graph ``_graph_term_grads`` builds.
    """
    n = facts.n
    f_rows = np.tile(facts.bits, (len(fns) * copies, 1))
    leaves = [Tensor(np.tile(x, (copies, 1)), requires_grad=True) for x in xs]
    parts = [T.reshape(assemble_prediction(f_rows[:copies], leaf, fn, SteMode.ISTE), (1, copies * n)) for leaf, fn in zip(leaves, fns)]
    return leaves, T.reshape(T.concat(parts), (len(fns) * copies, n)), f_rows


def _graph_term_grads(matrix, facts, xs, fns) -> np.ndarray:
    """[b, k] is the gradient of graph term ``GRAPH_TERMS[k]`` under binarizer ``fns[b]``.

    The graph runs over one copy of the instance per (binarizer, term);
    one-hot weights let each row backpropagate only its own term, so one
    ``cnf_loss`` and one backward pass yield every gradient.
    """
    k = len(GRAPH_TERMS)
    leaves, v, f_rows = _prediction_stack(facts, xs, fns, k)
    breakdown = cnf_loss(matrix, v, f_rows)
    picked = [getattr(breakdown, f"l_{term}") * T.constant(np.tile(onehot, len(fns))) for term, onehot in zip(GRAPH_TERMS, np.eye(k))]
    T.backward(T.sum_last(sum(picked[1:], picked[0])))
    return np.stack([leaf.grad for leaf in leaves])


def _rows_grad(matrix, facts, xs, fns) -> np.ndarray:
    """Row b is the gradient of ``cnf_loss_rows`` on the instance under binarizer ``fns[b]``, one call each."""
    leaves = [Tensor(x[None], requires_grad=True) for x in xs]
    for leaf, fn in zip(leaves, fns):
        T.backward(T.sum_last(closs.cnf_loss_rows(matrix, leaf, facts.bits[None], fn)))
    return np.concatenate([leaf.grad for leaf in leaves])


def gradient_suite(trials: int = 1000, seed: int = 0, n_max: int = 12, m_max: int = 30, tol: float = 1e-9) -> SuiteResult:
    """Graph and ``cnf_loss_rows`` gradients against the counting oracle, both binarizers.

    Instances are screened so theory plus facts is satisfiable; the
    deduced-sign dominance of the total gradient is asserted as well.
    Each instance draws ``x`` for 'bp', then for 'b'; both binarizers share
    one graph for the four graph terms (``_graph_term_grads``), and each
    makes one ``cnf_loss_rows`` call (``_rows_grad``).
    """
    result = SuiteResult("gradients")
    rng = np.random.default_rng(seed)
    produced = 0
    while produced < trials:
        theory = random_theory(rng, n_max, m_max)
        facts = random_facts(rng, theory.n)
        if not brute_force(theory, facts).satisfiable:
            continue
        produced += 1
        matrix = build_matrix(theory)
        fact_idx = facts.bits == 1
        xs = (rng.random(theory.n), rng.uniform(-2.0, 2.0, theory.n))
        graph = _graph_term_grads(matrix, facts, xs, BINARIZERS)
        rows = _rows_grad(matrix, facts, xs, BINARIZERS)
        for b, (fn, x_data) in enumerate(zip(BINARIZERS, xs)):
            threshold = 0.5 if fn == "bp" else 0.0
            bits = np.where(facts.bits == 1, 1, (x_data >= threshold).astype(np.int8)).astype(np.int8)
            oracle = closs.closed_form_grad(theory, facts, Assignment(bits))
            where = f"trial {produced} fn={fn} (n={theory.n}, m={theory.m})"
            for term, got, want in (
                ("deduce", graph[b, 0], oracle.g_deduce),
                ("unsat", graph[b, 1], oracle.g_unsat),
                ("sat", graph[b, 2], oracle.g_sat),
                ("cnf", graph[b, 3], oracle.g_total),
                ("rows", rows[b], oracle.g_total),
            ):
                dev = result.dev(np.max(np.abs(got - want)) if got.size else 0.0)
                result.check(dev <= tol, f"{where}: dL_{term} deviates by {dev:.3e}")
                result.check(np.all(got[fact_idx] == 0.0), f"{where}: nonzero gradient at a fact position ({term})")
            nz = oracle.g_deduce != 0
            result.check(
                bool(np.all(np.sign(oracle.g_total[nz]) == np.sign(oracle.g_deduce[nz]))),
                f"{where}: total gradient flips the deduced sign",
            )
        result.cases += 1
    return result


# -- sawtooth gate -----------------------------------------------------------------

def tgf_suite(trials: int = 1000, seed: int = 0, ks: tuple[float, ...] = (10.0, 1e3, 1e6)) -> SuiteResult:
    """Gate value within 1/K of the step; analytic gradient equals the surrogate."""
    result = SuiteResult("tgf")
    rng = np.random.default_rng(seed)
    for k in ks:
        x_data = rng.uniform(-2.0, 2.0, trials)
        # keep off the 1/K grid where the sawtooth is non-differentiable
        on_grid = (k * x_data) == np.floor(k * x_data)
        x_data[on_grid] += 0.5 / k
        step = (x_data >= 0.0).astype(np.float64)
        for g_mode, surrogate in (("one", SteMode.ISTE), ("box", SteMode.SSTE)):
            x = Tensor(x_data, requires_grad=True)
            gate = T.tgf(x, TgfConfig(k=k, g_mode=g_mode))
            gap = np.max(np.abs(gate.data - step))
            result.dev(gap)
            result.check(gap <= 1.0 / k, f"K={k} g={g_mode}: |gate - step| = {gap:.3e} > 1/K")
            T.backward(T.sum_last(gate))
            analytic = x.grad.copy()

            x2 = Tensor(x_data, requires_grad=True)
            T.backward(T.sum_last(T.binarize(x2, "b", surrogate)))
            result.check(np.array_equal(analytic, x2.grad), f"K={k} g={g_mode}: gate gradient differs from surrogate")
            expected = np.ones_like(x_data) if g_mode == "one" else ((x_data >= -1.0) & (x_data <= 1.0)).astype(np.float64)
            result.check(np.array_equal(analytic, expected), f"K={k} g={g_mode}: gate gradient not the expected mask")
            result.cases += trials
    return result


# -- finite differences ---------------------------------------------------------------

def _fd_case(result: SuiteResult, name: str, build, arrays: list[np.ndarray], tol: float, h: float) -> None:
    leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    T.backward(build(leaves))
    for which, (leaf, arr) in enumerate(zip(leaves, arrays)):
        numeric = np.zeros_like(arr)
        flat = arr.reshape(-1)
        for i in range(flat.size):
            bumped = flat.copy()
            bumped[i] += h
            up = float(build([Tensor(bumped.reshape(arr.shape) if j == which else arrays[j]) for j in range(len(arrays))]).data)
            bumped[i] -= 2 * h
            down = float(build([Tensor(bumped.reshape(arr.shape) if j == which else arrays[j]) for j in range(len(arrays))]).data)
            numeric.reshape(-1)[i] = (up - down) / (2 * h)
        denom = np.maximum(1.0, np.maximum(np.abs(leaf.grad), np.abs(numeric)))
        rel = np.max(np.abs(leaf.grad - numeric) / denom) if arr.size else 0.0
        result.dev(rel)
        result.check(rel <= tol, f"{name}: relative gradient error {rel:.3e}")


def finite_difference_suite(cases: int = 200, seed: int = 0, tol: float = 1e-6, h: float = 1e-5) -> SuiteResult:
    """Central differences against every smooth op and the bound penalty.

    Each op's output is weighed by a random vector, as long as the output
    of one forward pass on arrays of ones.
    """
    result = SuiteResult("finite-diff")
    rng = np.random.default_rng(seed)

    def dot(tensor: Tensor, weights: np.ndarray) -> Tensor:
        return T.sum_last(T.reshape(tensor, (tensor.size,)) * Tensor(weights))

    def spec(op_name, op, *shapes, low=-1.5, high=1.5):
        return op_name, op, shapes, low, high

    mat, vec = (3, 4), (4,)
    specs = [
        spec("add", lambda ts: ts[0] + ts[1], mat, mat),
        spec("add_broadcast", lambda ts: ts[0] + ts[1], mat, vec),
        spec("sub", lambda ts: ts[0] - ts[1], mat, mat),
        spec("mul", lambda ts: ts[0] * ts[1], mat, mat),
        spec("mul_broadcast", lambda ts: ts[0] * ts[1], mat, vec),
        spec("square", lambda ts: T.square(ts[0]), mat),
        spec("matmul", lambda ts: T.matmul(ts[0], ts[1]), (3, 4), (4, 2)),
        spec("matmul_vec", lambda ts: T.matmul(ts[0], ts[1]), (3, 4), (4,)),
        spec("vec_matmul", lambda ts: T.matmul(ts[0], ts[1]), (4,), (4, 2)),
        spec("clip", lambda ts: T.clip(ts[0], -1.0, 1.0), mat),
        spec("relu", lambda ts: T.relu(ts[0]), mat),
        spec("sigmoid", lambda ts: T.sigmoid(ts[0]), mat),
        spec("softmax", lambda ts: T.softmax(ts[0]), mat),
        spec("log", lambda ts: T.log(ts[0]), mat, low=0.2, high=2.0),
        spec("sum_last", lambda ts: T.sum_last(ts[0]), mat),
        spec("avg_last", lambda ts: T.avg_last(ts[0]), mat),
        spec("prod_last", lambda ts: T.prod_last(ts[0]), mat),
        spec("reshape_concat", lambda ts: T.concat([T.reshape(ts[0], (12,)), ts[1]]), mat, vec),
        spec("bound_loss", lambda ts: bound_loss(ts[0]), (6,)),
        spec("mul_outer", lambda ts: ts[0] * ts[1], (2, 3, 1), (2, 1, 4)),
        spec("concat_rows", lambda ts: T.concat([ts[0], ts[1]]), (3, 4), (3, 2)),
        spec("linear", lambda ts: T.linear(ts[0], ts[1], ts[2]), (3, 4), (4, 2), (2,)),
        spec("linear_vec", lambda ts: T.linear(ts[0], ts[1], ts[2]), (4,), (4, 2), (2,)),
    ]
    for name, op, shapes, low, high in specs:
        out_size = op([Tensor(np.ones(s)) for s in shapes]).size
        for _ in range(cases):
            arrays = [rng.uniform(low, high, size=s) for s in shapes]
            if name == "clip":
                # keep away from the clamp kinks
                arrays[0][np.abs(np.abs(arrays[0]) - 1.0) < 0.05] = 0.5
            if name == "relu":
                arrays[0][np.abs(arrays[0]) < 0.05] = 0.5
            weights = rng.uniform(-1.0, 1.0, size=out_size)
            _fd_case(result, name, lambda ts, w=weights, op=op: dot(op(ts), w), arrays, tol, h)
            result.cases += 1

    def ce_build(ts, target):
        return T.cross_entropy(ts[0], target)

    for _ in range(cases):
        logits = rng.uniform(-2.0, 2.0, size=(3, 5))
        target = np.zeros((3, 5))
        target[np.arange(3), rng.integers(0, 5, 3)] = 1.0
        _fd_case(result, "cross_entropy", lambda ts, t=target: ce_build(ts, t), [logits], tol, h)
        result.cases += 1
    return result


def run_all(seed: int = 0, trials: int = 1000, n_max: int = 12, m_max: int = 30) -> list[SuiteResult]:
    return [
        golden_example(),
        value_suite(trials=min(200, trials), seed=seed, n_max=min(10, n_max), m_max=min(20, m_max)),
        gradient_suite(trials=trials, seed=seed, n_max=n_max, m_max=m_max),
        tgf_suite(trials=min(1000, trials), seed=seed),
        finite_difference_suite(cases=25, seed=seed),
    ]
