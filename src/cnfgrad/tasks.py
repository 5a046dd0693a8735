"""Benchmark tasks: clause families, prediction assembly, and datasets.

Each task bundles a generated theory, a dataset maker and an accuracy
definition. Every split is a ``Split``: a frozen dataclass of arrays
whose row i is instance i, and a batch is ``split[index]``. One recipe,
``TaskSpec.batch_loss``, trains every task but exactly-one: a net pass
per input position, the (rows, k) columns x from the task's ``assemble``
(four rows per instance for apply2x2), the (rows, n) facts from its
``fact_rows`` and one ``cnf_loss_rows`` call, all on whole fields. The
ground-truth check feeds one-hot labels through the same assembly. Atom
orders follow the assembly recipes, so the k network-driven atoms always
come first; the atoms after them read as binarize(0), which under the
default ``bp`` leaves them to the facts.
"""

from __future__ import annotations

import functools
import inspect
import itertools
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import datasets as D
from . import nn as N
from . import tensor as T
from .closs import (
    LossWeights,
    bound_loss,
    cnf_loss_rows,
    hint_loss,
    sum_loss,
)
from .cnf import Assignment, CnfTheory, build_matrix, theory_from_clauses
from .datasets import GridSplit, LabelledSplit, Split
from .nn import Mlp, TrainConfig
from .tensor import SteMode, Tensor


# ---------------------------------------------------------------------------
# clause families
# ---------------------------------------------------------------------------

def mnist_add_theory(digits: int = 1) -> CnfTheory:
    """Sum-label clauses for adding two ``digits``-digit numbers.

    Atoms: one per joint digit tuple (the products of the per-image
    outputs land here, tuple encoded base 10), then one per possible sum.
    Each sum clause lists the tuples reaching that sum. The softmax head
    already gives each image one digit, so no clause says so.
    """
    if digits not in (1, 2, 3):
        raise ValueError(f"digits must be 1, 2, or 3, got {digits}")
    base = 10**digits
    npred = base * base
    nsum = 2 * base - 1
    tuples = np.arange(npred)
    sums = tuples // base + tuples % base
    order = np.argsort(sums, kind="stable")
    bounds = np.searchsorted(sums[order], np.arange(nsum + 1))
    # Sum clause l is -sum(l) followed by the joint atoms that reach l, in atom order.
    indptr = bounds + np.arange(nsum + 1)
    literals = np.insert(order + 1, bounds[:-1], -(npred + 1 + np.arange(nsum)))

    def names() -> list[str]:
        numbers = [",".join(f"{k:0{digits}d}") for k in range(base)]
        return [f"pred({first},{second})" for first in numbers for second in numbers] + [f"sum({l})" for l in range(nsum)]

    return CnfTheory(npred + nsum, indptr, literals, names)


#: The (row 1, row 2, column 1, column 2) position pairs of a 2x2 grid: add2x2
#: sums the digits along them, apply2x2 applies the operators along them.
ADD2X2_PAIRS = ((0, 1), (2, 3), (0, 2), (1, 3))


def add2x2_theory() -> CnfTheory:
    """Four families of sum clauses, one per row/column pair of the grid."""
    names = lambda: [
        f"conj(i{a + 1},{i},i{b + 1},{j})" for a, b in ADD2X2_PAIRS for i in range(10) for j in range(10)
    ] + [f"sum(i{a + 1},i{b + 1},{r})" for a, b in ADD2X2_PAIRS for r in range(19)]
    clauses = []
    for p in range(4):
        for r in range(19):
            body = tuple(100 * p + 10 * i + (r - i) + 1 for i in range(10) if 0 <= r - i <= 9)
            clauses.append((-(400 + 19 * p + r + 1),) + body)
    return theory_from_clauses(clauses, 476, names)


APPLY_OPS = ("+", "-", "*")


def _apply_op(a: int, op: str, b: int) -> int:
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    return a * b


def _pair_results(d1, d2, d3) -> np.ndarray:
    """(..., 9): the digits d1, d2, d3 under operator a, then operator b, at index 3a+b."""
    return np.stack([_apply_op(_apply_op(d1, op1, d2), op2, d3) for op1 in APPLY_OPS for op2 in APPLY_OPS], axis=-1)


def apply2x2_theory() -> tuple[CnfTheory, dict[tuple[int, int, int, int], int]]:
    """Clauses tying an operator pair to the result on three digits.

    Atom order: the 9 operator-pair atoms first (index 3a+b), then one
    atom per reachable (d1, d2, d3, result) combination over digits 0-10,
    digit triples in order and results ascending within each. Its clause
    lists the operator pairs reaching that result, in pair order.
    Returns the theory plus the lookup from that combination to its atom.
    """
    d1, d2, d3 = np.indices((11, 11, 11)).reshape(3, -1)
    results = _pair_results(d1, d2, d3)
    triple, pair = np.divmod(np.arange(results.size), 9)
    order = np.lexsort((pair, results.ravel(), triple))
    triple, result, pair = triple[order], results.ravel()[order], pair[order]
    starts = np.flatnonzero(np.diff(triple, prepend=-1) | np.diff(result, prepend=-1))
    atoms = 9 + np.arange(starts.size)
    indptr = np.append(starts, order.size) + np.arange(starts.size + 1)
    literals = np.insert(pair + 1, starts, -(atoms + 1))
    t = triple[starts]
    lookup = dict(zip(zip(d1[t].tolist(), d2[t].tolist(), d3[t].tolist(), result[starts].tolist()), atoms.tolist()))
    names = lambda: [f"op({s1},{s2})" for s1 in APPLY_OPS for s2 in APPLY_OPS] + [f"apply({d1},{d2},{d3},{r})" for d1, d2, d3, r in lookup]
    return CnfTheory(9 + len(lookup), indptr, literals, names), lookup


def member_theory(k: int = 3) -> CnfTheory:
    """Membership of a digit in k images: presence and absence clauses.

    Atoms: per-image digit atoms first (10 per image), then in(d,0) and
    in(d,1) blocks. in(d,1) forces some image to be d; in(d,0) forbids
    each image from being d.
    """
    if k < 1:
        raise ValueError("member needs at least one image")
    names = lambda: [f"digit(i{i + 1},{d})" for i in range(k) for d in range(10)] + [f"in({d},{b})" for b in (0, 1) for d in range(10)]
    clauses = []
    for d in range(10):
        clauses.append((-(10 * k + 10 + d + 1),) + tuple(10 * i + d + 1 for i in range(k)))
    for d in range(10):
        for i in range(k):
            clauses.append((-(10 * k + d + 1), -(10 * i + d + 1)))
    return theory_from_clauses(clauses, 10 * k + 20, names)


def _digit_groups(side: int) -> np.ndarray:
    """(3, side * side, side): per column, row and box family, group u * side + N holds a(cell, N) for unit u's cells."""
    units = D.grid_units(side)[[1, 0, 2]]
    return (units[:, :, None, :] * side + np.arange(side)[:, None]).reshape(3, side * side, side)


def sudoku_theory(side: int = 9, include_box_uec: bool = False) -> CnfTheory:
    """Exactly-one groups for columns, rows, and cell values; boxes optional.

    The box family is redundant when a per-cell softmax feeds the
    probability binarizer, so it is off by default. Atom a(R,C,N) sits at
    index side*(side*(R-1) + (C-1)) + (N-1), the flattening of the
    (cells, digits) layout.
    """
    cols, rows, boxes = _digit_groups(side)
    groups = [cols, rows, np.arange(side**3).reshape(-1, side)] + ([boxes] if include_box_uec else [])
    names = lambda: [f"a({r + 1},{c + 1},{n + 1})" for r in range(side) for c in range(side) for n in range(side)]
    return CnfTheory(side**3, *_exactly_one(np.concatenate(groups)), names)


def sudoku_sum_selections(side: int = 9) -> list[np.ndarray]:
    """The read-only (side**3, side * side) ``sum_loss`` selection of each ``_digit_groups`` family; column g marks group g."""
    selections = []
    for groups in _digit_groups(side):
        sel = np.zeros((side**3, len(groups)))
        sel[groups, np.arange(len(groups))[:, None]] = 1.0
        sel.setflags(write=False)
        selections.append(sel)
    return selections


def _exactly_one(groups: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR arrays of, per row of atom indices, its existence clause and then its pairwise exclusions."""
    count, size = groups.shape
    pairs = np.array(list(itertools.combinations(range(size), 2)), dtype=np.int64).reshape(-1, 2)
    literals = np.concatenate([groups + 1, -1 - groups[:, pairs].reshape(count, -1)], axis=1)
    lengths = np.tile([size] + [2] * len(pairs), count)
    return np.concatenate([[0], np.cumsum(lengths)]), literals.reshape(-1)


def shortest_path_theory() -> CnfTheory:
    """Each terminal node touches exactly one chosen edge of the 4x4 grid.

    Atoms: 16 terminal atoms (node-major) then 24 edge atoms in the fixed
    lattice order. Existence clauses come first, then for every terminal
    all ordered pairs of distinct incident edges.
    """
    side = D.GRID_SIDE
    names = lambda: [f"terminal({i + 1},{j + 1})" for i in range(side) for j in range(side)] + [
        f"sp({u // side + 1},{u % side + 1},{v // side + 1},{v % side + 1})" for u, v in D.GRID_EDGES
    ]
    incident = [[e for _, e in pairs] for pairs in D.GRID_INCIDENCE]
    clauses = []
    for node in range(side * side):
        clauses.append((-(node + 1),) + tuple(16 + e + 1 for e in incident[node]))
    for node in range(side * side):
        for e1 in incident[node]:
            for e2 in incident[node]:
                if e1 != e2:
                    clauses.append((-(node + 1), -(16 + e1 + 1), -(16 + e2 + 1)))
    return theory_from_clauses(clauses, 40, names)


def exactly_one_theory(classes: int = 10) -> CnfTheory:
    """One existence clause plus pairwise exclusions over class atoms."""
    if classes < 1:
        raise ValueError("need at least one class")
    return CnfTheory(classes, *_exactly_one(np.arange(classes)[None]), lambda: [f"pred({c})" for c in range(classes)])


# ---------------------------------------------------------------------------
# task objects
# ---------------------------------------------------------------------------

@dataclass
class TaskDataset:
    task: "TaskSpec"
    train: Split
    test: Split


class TaskSpec:
    """Common surface: theory, loss recipe, dataset maker, accuracy."""

    name: str = ""
    # The binarizer of the net's columns: 'bp' for probabilities; a head of logits sets 'b'.
    fn: str = "bp"
    ste: SteMode = SteMode.ISTE
    weights: LossWeights = LossWeights()
    # Sum (rather than average) the constraint term over a batch. Right for
    # purely constraint-driven tasks, where averaging dilutes the only
    # learning signal batch-fold; tasks with a baseline loss keep the
    # paper-weighted per-instance balance and average everything.
    cnf_batch_sum: bool = True

    def __init__(self, theory: CnfTheory):
        self.theory = theory
        self.weights = replace(self.weights)
        self.matrix = build_matrix(theory)

    def default_config(self, **overrides) -> TrainConfig:
        """The task's recipe as a ``TrainConfig``; ``overrides`` are constructor keywords and win."""
        return TrainConfig(**{"weights": replace(self.weights), "ste": self.ste, **overrides})

    def build_net(self, seed: int) -> Mlp:
        raise NotImplementedError

    def make_data(self, seed: int = 0, **options) -> TaskDataset:
        """The seeded train and test splits, each one ``Split`` of arrays."""
        raise NotImplementedError

    def assemble(self, outputs: Sequence[Tensor]) -> Tensor:
        """The (rows, k) columns of the first k atoms, from the (B, classes) outputs of each input position."""
        raise NotImplementedError(f"task {self.name} has no output assembly")

    def fact_rows(self, batch: Split) -> np.ndarray:
        """The (rows, n) int8 facts that a batch's labels pin."""
        raise NotImplementedError(f"task {self.name} has no fact rows")

    def net_inputs(self, batch: Split) -> list[np.ndarray]:
        """What the net reads at each input position; by default the (B, d) images at it."""
        return [batch.images[:, p] for p in range(batch.images.shape[1])]

    def extra_rows(self, batch: Split, outputs: Sequence[Tensor], x: Tensor, facts: np.ndarray, config: TrainConfig) -> dict[str, Tensor]:
        """Per-instance terms besides the constraint and the bound; none by default."""
        return {}

    def batch_loss(self, net: Mlp, batch: Split, config: TrainConfig) -> dict[str, Tensor]:
        """The batch mean of each per-instance term, built as one graph; ``nn.train_epoch`` weights them.

        An instance that ``assemble`` lays out as several rows (apply2x2) sums their constraint terms.
        """
        count = len(batch)
        outs = [net.forward(Tensor(inputs)) for inputs in self.net_inputs(batch)]
        outputs = [probs for probs, _ in outs]
        x = self.assemble(outputs)
        facts = self.fact_rows(batch)
        cnf = cnf_loss_rows(self.matrix, x, facts, self.fn, config.ste)
        if x.shape[0] != count:
            cnf = T.sum_last(T.reshape(cnf, (count, x.shape[0] // count)))
        bounds = [bound_loss(raw) for _, raw in outs]
        terms = {"cnf": cnf, "bound": sum(bounds[1:], bounds[0]), **self.extra_rows(batch, outputs, x, facts, config)}
        return {name: (1.0 / count) * T.sum_last(rows) for name, rows in terms.items()}

    def truth_rows(self, batch: Split) -> tuple[Tensor, np.ndarray]:
        """The ground truth's x and fact rows; by default each image's one-hot digit goes through ``assemble``."""
        return self.assemble([T.constant(np.eye(10)[digits]) for digits in batch.digits.T]), self.fact_rows(batch)

    def evaluate(self, net: Mlp, split: Split) -> float:
        """Test accuracy; by default the net classifies the rows of a ``LabelledSplit``."""
        if not len(split):
            return 0.0
        return float(np.mean(np.argmax(net.predict(split.features), axis=1) == split.labels))

    def check_rows(self, split: Split) -> np.ndarray:
        """Per constraint row, whether the ground truth, laid out as training lays out the net's outputs, has zero loss."""
        x, facts = self.truth_rows(split)
        return cnf_loss_rows(self.matrix, x, facts, self.fn).data == 0.0


def _outer_rows(a: Tensor, b: Tensor) -> Tensor:
    """Row-wise outer product of (B, i) and (B, j), flattened to (B, i*j)."""
    rows, i, j = a.shape[0], a.shape[1], b.shape[1]
    return T.reshape(T.reshape(a, (rows, i, 1)) * T.reshape(b, (rows, 1, j)), (rows, i * j))


def _pinned(n: int, atoms: np.ndarray) -> np.ndarray:
    """(rows, n) int8 facts with row r pinning ``atoms[r]`` (an index or a row of indices)."""
    facts = np.zeros((len(atoms), n), dtype=np.int8)
    np.put_along_axis(facts, np.reshape(atoms, (len(atoms), -1)), 1, axis=1)
    return facts


def _image_rows(feats: np.ndarray, labels: np.ndarray, k: int, n_train: int, n_test: int) -> tuple[np.ndarray, np.ndarray, Split]:
    """The first k * n_train draws as (n_train, k, ...) images and labels, then n_test draws as the test split."""
    end = k * n_train
    test = LabelledSplit(feats, labels)[end : end + n_test]
    return feats[:end].reshape(n_train, k, feats.shape[1]), labels[:end].reshape(n_train, k), test


@dataclass(frozen=True)
class AddSplit(Split):
    images: np.ndarray  # (n, 2 * digits, d): the first number's digits, then the second's
    label_sum: np.ndarray  # (n,)
    digits: np.ndarray  # (n, 2 * digits)


class MnistAddTask(TaskSpec):
    """Learn digit classification from pair sums alone."""

    def __init__(self, digits: int = 1, input_dim: int = 16, hidden: tuple[int, ...] = (64,)):
        super().__init__(mnist_add_theory(digits))
        self.digits = digits
        self.input_dim = input_dim
        self.hidden = hidden
        self.name = "mnist-add" if digits == 1 else f"mnist-add{digits}"
        # The sum atoms follow the 100**digits joint atoms.
        self.sum_base = 100**digits
        self.weights = LossWeights(alpha=1.0, beta=0.1 if digits == 1 else 0.01)

    def build_net(self, seed: int) -> Mlp:
        return Mlp((self.input_dim, *self.hidden, 10), head="softmax", seed=seed)

    def assemble(self, outputs: Sequence[Tensor]) -> Tensor:
        """The joint atoms are the row-wise outer product of the per-image digit probabilities."""
        return functools.reduce(_outer_rows, outputs)

    def fact_rows(self, batch: AddSplit) -> np.ndarray:
        return _pinned(self.theory.n, self.sum_base + batch.label_sum)

    def make_data(self, seed: int = 0, n_train: int = 5000, n_test: int = 2000, noise: float = 0.2, idx=None) -> TaskDataset:
        """Pairs of digit features with sum labels; test items are single digits. Labels outside 0..9 are refused."""
        k = 2 * self.digits
        feats, labels = idx if idx is not None else D.synthetic_features(k * n_train + n_test, 10, noise, [seed, 11], dim=self.input_dim)
        outside = (labels < 0) | (labels > 9)
        if outside.any():
            raise ValueError(f"digit labels must lie in 0..9, found {labels[np.argmax(outside)]}")
        if len(feats) < k * n_train + n_test:
            raise ValueError(f"need {k * n_train + n_test} images, file has {len(feats)}")
        images, digits, test = _image_rows(feats, labels, k, n_train, n_test)
        label_sum = (digits.reshape(-1, 2, self.digits) @ 10 ** np.arange(self.digits - 1, -1, -1)).sum(axis=1)
        return TaskDataset(self, AddSplit(images, label_sum, digits), test)


@dataclass(frozen=True)
class Add2x2Split(Split):
    images: np.ndarray  # (n, 4, d)
    sums: np.ndarray  # (n, 4): along ADD2X2_PAIRS
    digits: np.ndarray  # (n, 4)


class Add2x2Task(TaskSpec):
    """Digit classification from the four row/column sums of a 2x2 grid."""

    input_dim = 16

    def __init__(self):
        super().__init__(add2x2_theory())
        self.name = "add2x2"

    def build_net(self, seed: int) -> Mlp:
        return Mlp((self.input_dim, 64, 10), head="softmax", seed=seed)

    def assemble(self, outputs: Sequence[Tensor]) -> Tensor:
        """The four row/column outer products, one 100-atom block per pair."""
        return T.concat([_outer_rows(outputs[a], outputs[b]) for a, b in ADD2X2_PAIRS])

    def fact_rows(self, batch: Add2x2Split) -> np.ndarray:
        return _pinned(self.theory.n, 400 + 19 * np.arange(4) + batch.sums)

    def make_data(self, seed: int = 0, n_train: int = 2000, n_test: int = 1000, noise: float = 0.2) -> TaskDataset:
        feats, labels = D.synthetic_features(4 * n_train + n_test, 10, noise, [seed, 12], dim=self.input_dim)
        images, digits, test = _image_rows(feats, labels, 4, n_train, n_test)
        first, second = np.array(ADD2X2_PAIRS).T
        sums = digits[:, first] + digits[:, second]
        return TaskDataset(self, Add2x2Split(images, sums, digits), test)


@dataclass(frozen=True)
class MemberSplit(Split):
    images: np.ndarray  # (n, k, d)
    query: np.ndarray  # (n,)
    label: np.ndarray  # (n,): 1 if the query digit is among the images
    digits: np.ndarray  # (n, k)


class MemberTask(TaskSpec):
    """Digit classification from set-membership answers."""

    input_dim = 16

    def __init__(self, k: int = 3):
        super().__init__(member_theory(k))
        self.k = k
        self.name = f"member{k}"

    def build_net(self, seed: int) -> Mlp:
        return Mlp((self.input_dim, 64, 10), head="softmax", seed=seed)

    def assemble(self, outputs: Sequence[Tensor]) -> Tensor:
        """The per-image digit probabilities, side by side."""
        return T.concat(outputs)

    def fact_rows(self, batch: MemberSplit) -> np.ndarray:
        return _pinned(self.theory.n, 10 * self.k + 10 * batch.label + batch.query)

    def make_data(self, seed: int = 0, n_train: int = 2000, n_test: int = 1000, noise: float = 0.2) -> TaskDataset:
        """Queries a present or an absent digit at even odds; the draws depend on the digits, so they go per instance."""
        rng = np.random.default_rng([seed, 13])
        feats, labels = D.synthetic_features(self.k * n_train + n_test, 10, noise, [seed, 14], dim=self.input_dim)
        images, digits, test = _image_rows(feats, labels, self.k, n_train, n_test)
        query = np.empty(n_train, dtype=np.int64)
        for i, present in enumerate(digits):
            absent = np.setdiff1d(np.arange(10), present)
            from_present = rng.random() < 0.5 or not absent.size
            query[i] = rng.choice(present if from_present else absent)
        label = (digits == query[:, None]).any(axis=1).astype(np.int64)
        return TaskDataset(self, MemberSplit(images, query, label, digits), test)


@dataclass(frozen=True)
class Apply2x2Split(Split):
    digits: np.ndarray  # (n, 3): the numbers the operators apply to
    images: np.ndarray  # (n, 4, d): the operator images
    ops: np.ndarray  # (n, 4): their operators, indices into APPLY_OPS
    results: np.ndarray  # (n, 4): along ADD2X2_PAIRS


def _apply_key(digits: np.ndarray, results: np.ndarray) -> np.ndarray:
    """One int per (d1, d2, d3, result), digits 0-10 and results -100..1000, ordered as the tuples are."""
    return (digits @ np.array([121, 11, 1])) * 2048 + results + 1024


class Apply2x2Task(TaskSpec):
    """Operator classification from applying row/column operator pairs.

    The operator grid is read along the add2x2 pairs (row 1, row 2,
    column 1, column 2); each pair applied to the instance's three digits
    gives one result, so an instance is four prediction rows.
    """

    input_dim = 16

    def __init__(self):
        theory, lookup = apply2x2_theory()
        super().__init__(theory)
        self.name = "apply2x2"
        # The lookup is in atom order, so these keys ascend.
        combos = np.array(list(lookup), dtype=np.int64)
        self.atom_keys = _apply_key(combos[:, :3], combos[:, 3])

    def build_net(self, seed: int) -> Mlp:
        return Mlp((self.input_dim, 32, 3), head="softmax", seed=seed)

    def assemble(self, outputs: Sequence[Tensor]) -> Tensor:
        """Row 4i+p holds pair p of instance i: the outer product of its two operators' probabilities."""
        pairs = T.concat([_outer_rows(outputs[a], outputs[b]) for a, b in ADD2X2_PAIRS])
        return T.reshape(pairs, (4 * pairs.shape[0], 9))

    def fact_rows(self, batch: Apply2x2Split) -> np.ndarray:
        """Row 4i+p pins the result atom of pair p of instance i."""
        atoms = 9 + np.searchsorted(self.atom_keys, _apply_key(batch.digits[:, None], batch.results))
        return _pinned(self.theory.n, atoms.reshape(-1))

    def truth_rows(self, batch: Apply2x2Split) -> tuple[Tensor, np.ndarray]:
        """Each operator image's one-hot operator through ``assemble``."""
        return self.assemble([T.constant(np.eye(3)[ops]) for ops in batch.ops.T]), self.fact_rows(batch)

    def make_data(self, seed: int = 0, n_train: int = 500, n_test: int = 200, noise: float = 0.2) -> TaskDataset:
        rng = np.random.default_rng([seed, 15])
        feats, labels = D.synthetic_features(4 * n_train + n_test, 3, noise, [seed, 16], dim=self.input_dim)
        images, ops, test = _image_rows(feats, labels, 4, n_train, n_test)
        digits = rng.integers(0, 10, size=(n_train, 3))
        first, second = np.array(ADD2X2_PAIRS).T
        results = np.take_along_axis(_pair_results(*digits.T), 3 * ops[:, first] + ops[:, second], axis=1)
        return TaskDataset(self, Apply2x2Split(digits, images, ops, results), test)


class SudokuTask(TaskSpec):
    """Unsupervised grid completion from the exactly-one constraints, on (B, cells) stacks of boards."""

    hidden = (256, 256)

    def __init__(self, side: int = 4, include_box_uec: bool = False):
        super().__init__(sudoku_theory(side, include_box_uec))
        self.side = side
        self.name = f"sudoku{side}"
        self.cells = side * side
        self.input_dim = self.cells * (side + 1)
        self.sum_selections = sudoku_sum_selections(side)

    def build_net(self, seed: int) -> Mlp:
        return Mlp((self.input_dim, *self.hidden, self.cells * self.side), head="none", seed=seed)

    def encode_board(self, q: np.ndarray) -> np.ndarray:
        """Net input of one board, or one row per board of a (B, cells) stack."""
        q = np.asarray(q, dtype=np.int64)
        return np.eye(self.side + 1)[q].reshape(q.shape[:-1] + (-1,))

    def board_bits(self, q: np.ndarray) -> np.ndarray:
        """The filled cells of one board (n,) or of a (B, cells) stack (B, n), as 0/1 atoms."""
        q = np.asarray(q, dtype=np.int64)
        return np.eye(self.side + 1, dtype=np.int8)[q][..., 1:].reshape(q.shape[:-1] + (-1,))

    def net_inputs(self, batch: GridSplit) -> list[np.ndarray]:
        return [self.encode_board(batch.q)]

    def assemble(self, outputs: Sequence[Tensor]) -> Tensor:
        """A softmax over each cell's digits, the cells side by side."""
        (raw,) = outputs
        probs = T.softmax(T.reshape(raw, (raw.shape[0] * self.cells, self.side)))
        return T.reshape(probs, (raw.shape[0], self.theory.n))

    def fact_rows(self, batch: GridSplit) -> np.ndarray:
        return self.board_bits(batch.q)

    def extra_rows(self, batch: GridSplit, outputs: Sequence[Tensor], x: Tensor, facts: np.ndarray, config: TrainConfig) -> dict[str, Tensor]:
        """The group-sum and hint terms, each only when its weight is nonzero."""
        terms = {}
        if config.weights.gamma:
            terms["sum"] = sum_loss(T.reshape(x, (len(batch), self.cells, self.side)), self.sum_selections)
        if config.weights.delta:
            terms["hint"] = hint_loss(facts, x, self.fn, config.ste)
        return terms

    def cell_probs(self, net: Mlp, q: np.ndarray) -> np.ndarray:
        """(cells, side) digit probabilities of one board, (B, cells, side) of a stack."""
        raw = net.predict(self.encode_board(q))
        return T.softmax_value(raw.reshape(np.shape(q) + (self.side,)))

    def predict_board(self, net: Mlp, q: np.ndarray) -> np.ndarray:
        """One-shot completion of one board or a stack: argmax digit for every empty cell."""
        probs = self.cell_probs(net, q)
        out = np.array(q, dtype=np.int64, copy=True)
        empty = out == 0
        out[empty] = np.argmax(probs[empty], axis=-1) + 1
        return out

    def verify_board(self, board: np.ndarray) -> bool:
        """Direct clause evaluation of a completed board."""
        if np.any(np.asarray(board) == 0):
            return False
        return Assignment(self.board_bits(board)).satisfies(self.theory)

    def evaluate(self, net: Mlp, split: GridSplit, inference_trick: bool = True) -> float:
        """Share of boards completed to their solution, all filled in one call."""
        if not len(split):
            return 0.0
        filled = N.predict_with_inference_trick(net, split.q, self) if inference_trick else self.predict_board(net, split.q)
        return np.count_nonzero(np.all(filled == split.solution, axis=1)) / len(split)

    def truth_rows(self, batch: GridSplit) -> tuple[Tensor, np.ndarray]:
        """The solutions as 0/1 rows, with the givens as facts."""
        return T.constant(self.board_bits(batch.solution)), self.fact_rows(batch)

    def make_data(self, seed: int = 0, n_train: int = 2000, n_test: int = 200, tier: str = "easy") -> TaskDataset:
        grids = D.gen_grid_puzzles(self.side, n_train + n_test, tier=tier, seed=[seed, 17])
        return TaskDataset(self, grids[:n_train], grids[n_train:])


class ShortestPathTask(TaskSpec):
    """Supervised edge prediction with terminal-degree constraints on top."""

    cnf_batch_sum = False

    def __init__(self):
        super().__init__(shortest_path_theory())
        self.name = "shortest-path"
        self.weights = LossWeights(alpha=0.2, beta=1.0)

    def build_net(self, seed: int) -> Mlp:
        return Mlp((40, 128, 24), head="sigmoid", seed=seed)

    def assemble(self, outputs: Sequence[Tensor]) -> Tensor:
        """The 24 edge outputs follow the 16 terminal atoms, which only facts set."""
        (edges,) = outputs
        return T.concat([T.constant(np.zeros((edges.shape[0], 16))), edges])

    def fact_rows(self, batch: LabelledSplit) -> np.ndarray:
        """The two terminal nodes of each instance, from the last 16 features."""
        facts = np.zeros((len(batch), self.theory.n), dtype=np.int8)
        facts[:, :16] = batch.features[:, 24:]
        return facts

    def net_inputs(self, batch: LabelledSplit) -> list[np.ndarray]:
        return [batch.features]

    def extra_rows(self, batch: LabelledSplit, outputs: Sequence[Tensor], x: Tensor, facts: np.ndarray, config: TrainConfig) -> dict[str, Tensor]:
        """The edges' cross-entropy against the labelled path."""
        label = T.constant(batch.labels)
        # Clamp away from the sigmoid's saturated endpoints before taking logs.
        safe = T.clip(outputs[0], 1e-12, 1.0 - 1e-12)
        return {"base": -1.0 * T.avg_last(label * T.log(safe) + (1.0 - label) * T.log(1.0 - safe))}

    def evaluate(self, net: Mlp, split: LabelledSplit) -> float:
        """Exact-match accuracy of the thresholded edge predictions."""
        if not len(split):
            return 0.0
        return float(np.mean(np.all(T.binarize_bits(net.predict(split.features), self.fn) == split.labels, axis=1)))

    def truth_rows(self, batch: LabelledSplit) -> tuple[Tensor, np.ndarray]:
        """The labelled path's edges through ``assemble``."""
        return self.assemble([T.constant(batch.labels)]), self.fact_rows(batch)

    def make_data(self, seed: int = 0, n_train: int | None = None, n_test: int | None = None, csv_path: str | None = None) -> TaskDataset:
        """The first n_train instances (1,288 by default) and the next n_test (322), generated or read from ``csv_path``.

        Sizes given must fit the file. A size not given is capped at what the file holds past the other;
        with neither given, a file too short for both defaults splits 80/20.
        """
        given = {name: size for name, size in (("n_train", n_train), ("n_test", n_test)) if size is not None}
        wanted = given.get("n_train", 1288) + given.get("n_test", 322)
        paths = D.load_path_csv(csv_path) if csv_path else D.gen_path_instances(wanted, seed=[seed, 18])
        if sum(given.values()) > len(paths):
            raise ValueError(f"{csv_path} holds {len(paths)} instances, fewer than {' plus '.join(f'{k} {v}' for k, v in given.items())}")
        if not given and len(paths) < wanted:
            n_train = int(len(paths) * 0.8)
        n_train = min(1288, len(paths) - (n_test or 0)) if n_train is None else n_train
        n_test = min(322, len(paths) - n_train) if n_test is None else n_test
        return TaskDataset(self, paths[:n_train], paths[n_train : n_train + n_test])


class ExactlyOneTask(TaskSpec):
    """Semi-supervised classification with an exactly-one constraint on logits.

    Why the recipe is what it is. With no facts, the counting gradients of
    the 46-clause theory (one existence clause, 45 pairwise exclusions)
    under the identity surrogate hold both kinds of violation in place:
    with two positive bits each positive atom gets -8/46 (the L_sat keep
    term gives -9/46, L_unsat +1/46), so descent raises both logits; with
    no positive bit every atom gets +8/46 and descent lowers them all. A
    squared bound on top pulls every logit toward the threshold at 0,
    where the sign binarizer needs a margin. Trained that way the
    constraint leaves a fifth of the outputs violating it, and accuracy
    ends 1.9 points below to 0.4 points above the labelled baseline.

    So every row carries one fact: its label, or on an unlabelled row the
    class the net currently ranks first (the most-confident-first rule of
    the grid inference trick). The fact pins its atom in the prediction,
    which turns the 9 exclusions that mention it into deduce clauses:
    every other atom gets a gradient of +1 from L_deduce, against at most
    9/46 from L_sat, so a second positive logit is pushed down. The fact's
    own logit is pushed up by the hint term, which sees the all-negative
    rows that the pinned prediction hides from the constraint. The
    saturated surrogate applied to logits / ``logit_scale`` stops both
    pushes once a logit is ``logit_scale`` beyond the threshold, which
    gives the margin the squared bound took away; the bound is therefore
    off (beta = 0) and only reported.
    """

    fn = "b"
    ste = SteMode.SSTE
    cnf_batch_sum = False
    # The saturated surrogate passes gradient for |logit| <= logit_scale.
    logit_scale = 2.0
    # Hint weight inside the constraint term: the fact's logit is pushed
    # up with hint_weight / classes per row, the other atoms down with 1.
    hint_weight = 16.0
    # Labelled draws per unlabelled instance in the training pool.
    label_share = 2
    classes = 10
    input_dim = 16

    def __init__(self):
        super().__init__(exactly_one_theory(self.classes))
        self.name = "exactly-one"
        self.weights = LossWeights(alpha=0.5, beta=0.0)

    def build_net(self, seed: int) -> Mlp:
        return Mlp((self.input_dim, 64, self.classes), head="none", seed=seed)

    def batch_loss(self, net: Mlp, batch: LabelledSplit, config: TrainConfig) -> dict[str, Tensor]:
        """Labelled and unlabelled rows each go through the net as one matrix.

        Not ``TaskSpec.batch_loss``: an unlabelled row's fact comes from the net's own logits, and
        one pass over both row groups would change the matrix products' row counts, and so their rounding.
        Cross-entropy averages over the labelled rows; the constraint (with
        its hint) and the bound average over all rows, as per instance.
        """
        sums: dict[str, Tensor] = {}
        means: dict[str, Tensor] = {}
        labelled = batch.labels >= 0
        for rows in (labelled, ~labelled):
            if not rows.any():
                continue
            logits, raw = net.forward(Tensor(batch.features[rows]))
            if rows is labelled:
                classes = batch.labels[rows]
                means["base"] = T.cross_entropy(logits, np.eye(self.classes)[classes])
            else:
                classes = np.argmax(logits.data, axis=1)
            facts = np.eye(self.classes, dtype=np.int8)[classes]
            x = logits * (1.0 / self.logit_scale)
            cnf = cnf_loss_rows(self.matrix, x, facts, self.fn, config.ste)
            cnf = cnf + self.hint_weight * hint_loss(facts, x, self.fn, config.ste)
            for name, per_row in (("cnf", cnf), ("bound", bound_loss(raw))):
                total = T.sum_last(per_row)
                sums[name] = total if name not in sums else sums[name] + total
        means.update((name, (1.0 / len(batch)) * total) for name, total in sums.items())
        return means

    def violation_fraction(self, net: Mlp, split: LabelledSplit) -> float:
        """Share of inputs whose thresholded logits are not one-hot."""
        bits = T.binarize_bits(net.predict(split.features), self.fn)
        return float(np.mean(bits.sum(axis=1) != 1))

    def truth_rows(self, batch: LabelledSplit) -> tuple[Tensor, np.ndarray]:
        """Logit-style ground truth of the labelled rows, with no facts.

        Positive only at the true class, so the sign binarizer yields a one-hot assignment.
        """
        labels = batch.labels[batch.labels >= 0]
        return T.constant(2.0 * np.eye(self.classes)[labels] - 1.0), np.zeros((len(labels), self.classes), dtype=np.int8)

    def make_data(self, seed: int = 0, n_labeled: int = 100, n_unlabeled: int = 5000, n_test: int = 2000, noise: float = 0.2) -> TaskDataset:
        """Labelled + unlabelled pool, unlabelled rows marked -1; the labelled
        instances are oversampled to ``label_share`` draws per unlabelled instance.

        The unlabelled rows learn from facts the net picks itself, so the
        labels must dominate the stream while those picks are still poor:
        at one labelled draw per unlabelled one, the recipe above leaves
        5-7% of the outputs violating the constraint; at two, 4-6%.
        """
        pool = n_labeled + n_unlabeled
        feats, labels = D.synthetic_features(pool + n_test, self.classes, noise, [seed, 19], dim=self.input_dim)
        reps = max(0, (self.label_share * n_unlabeled - n_labeled) // n_labeled) if n_labeled and n_unlabeled else 0
        order = np.concatenate([np.tile(np.arange(n_labeled), 1 + reps), np.arange(n_labeled, pool)])
        marked = np.where(np.arange(len(labels)) < n_labeled, labels, -1)
        return TaskDataset(self, LabelledSplit(feats, marked)[order], LabelledSplit(feats, labels)[pool : pool + n_test])


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

# CLI name -> task constructor, in the order the CLI lists them.
_CONSTRUCTORS = {
    "mnist-add": functools.partial(MnistAddTask, digits=1),
    "mnist-add2": functools.partial(MnistAddTask, digits=2),
    "mnist-add3": functools.partial(MnistAddTask, digits=3),
    "add2x2": Add2x2Task,
    "apply2x2": Apply2x2Task,
    "member3": functools.partial(MemberTask, k=3),
    "member5": functools.partial(MemberTask, k=5),
    "sudoku4": functools.partial(SudokuTask, side=4),
    "sudoku9": functools.partial(SudokuTask, side=9),
    "shortest-path": ShortestPathTask,
    "exactly-one": ExactlyOneTask,
}

TASK_NAMES = tuple(_CONSTRUCTORS)


def make_task(name: str, **options) -> TaskSpec:
    """Build a task by CLI name; options are forwarded to its constructor, and one it does not take is refused."""
    if name not in _CONSTRUCTORS:
        raise KeyError(f"unknown task {name!r}; choose from {', '.join(sorted(_CONSTRUCTORS))}")
    signature = inspect.signature(_CONSTRUCTORS[name])
    try:
        signature.bind(**options)
    except TypeError as exc:
        raise ValueError(f"task {name} takes options {', '.join(signature.parameters)} only: {exc}") from None
    return _CONSTRUCTORS[name](**options)
