"""Benchmark tasks: clause families, prediction assembly, and datasets.

Each task bundles a generated theory, a dataset maker, an accuracy
definition and a training recipe that takes the batch as the unit of
work: one net pass per input position, the (rows, k) atom-probability
columns x from the task's ``assemble`` (four rows per instance for
apply2x2), the (rows, n) fact rows from its ``fact_rows``, and one
``cnf_loss_rows`` call. The ground-truth check feeds one-hot labels
through the same assembly. Atom orders follow the assembly recipes, so
the k network-driven atoms always come first; the atoms after them read
as binarize(0), which under the default ``bp`` leaves them to the facts.
"""

from __future__ import annotations

import functools
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
from .nn import Mlp, TrainConfig
from .tensor import SteMode, Tensor


# ---------------------------------------------------------------------------
# clause families
# ---------------------------------------------------------------------------

def mnist_add_theory(digits: int = 1, include_uec: bool = False) -> CnfTheory:
    """Sum-label clauses for adding two ``digits``-digit numbers.

    Atoms: one per joint digit tuple (the products of the per-image
    outputs land here, tuple encoded base 10), then one per possible sum.
    Each sum clause lists the tuples reaching that sum. With
    ``include_uec`` (single digits only) the signature instead carries
    joint atoms, per-image digit atoms, and sums, plus existence and
    uniqueness clauses over the digit atoms for use with the sign
    binarizer; the probability binarizer does not need them because the
    softmax head already enforces one digit per image.
    """
    if digits not in (1, 2, 3):
        raise ValueError(f"digits must be 1, 2, or 3, got {digits}")
    if include_uec and digits != 1:
        raise ValueError("the existence/uniqueness variant is defined for single digits only")
    base = 10**digits
    npred = base * base
    nsum = 2 * base - 1
    tuples = np.arange(npred)
    sums = tuples // base + tuples % base
    order = np.argsort(sums, kind="stable")
    bounds = np.searchsorted(sums[order], np.arange(nsum + 1))
    sum_base = npred + (20 if include_uec else 0)
    # Sum clause l is -sum(l) followed by the joint atoms that reach l, in atom order.
    indptr = bounds + np.arange(nsum + 1)
    literals = np.insert(order + 1, bounds[:-1], -(sum_base + 1 + np.arange(nsum)))

    def names() -> list[str]:
        numbers = [",".join(f"{k:0{digits}d}") for k in range(base)]
        preds = [f"pred({first},{second})" for first in numbers for second in numbers]
        if include_uec:
            preds = ["conj(" + name[5:] for name in preds] + [f"digit({i},{n})" for i in (1, 2) for n in range(10)]
        return preds + [f"sum({l})" for l in range(nsum)]

    if not include_uec:
        return CnfTheory(npred + nsum, indptr, literals, names)
    digit_atoms = [range(npred + 10 * i + 1, npred + 10 * i + 11) for i in range(2)]
    exclusions = [(-a, -b) for atoms in digit_atoms for a, b in itertools.combinations(atoms, 2)]
    return theory_from_clauses(np.split(literals, indptr[1:-1]) + digit_atoms + exclusions, npred + 20 + nsum, names)


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


def apply2x2_theory() -> tuple[CnfTheory, dict[tuple[int, int, int, int], int]]:
    """Clauses tying an operator pair to the result on three digits.

    Atom order: the 9 operator-pair atoms first (index 3a+b), then one
    atom per reachable (d1, d2, d3, result) combination over digits 0-10,
    digit triples in order and results ascending within each. Its clause
    lists the operator pairs reaching that result, in pair order.
    Returns the theory plus the lookup from that combination to its atom.
    """
    d1, d2, d3 = np.indices((11, 11, 11)).reshape(3, -1)
    # results[t, 3a+b]: digit triple t under operator a, then operator b.
    results = np.stack([_apply_op(_apply_op(d1, op1, d2), op2, d3) for op1 in APPLY_OPS for op2 in APPLY_OPS], axis=1)
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


def sudoku_theory(side: int = 9, include_box_uec: bool = False) -> CnfTheory:
    """Exactly-one groups for rows, columns, and cell values; boxes optional.

    The box family is redundant when a per-cell softmax feeds the
    probability binarizer, so it is off by default. Atom a(R,C,N) sits at
    index side*(side*(R-1) + (C-1)) + (N-1), the flattening of the
    (cells, digits) layout.
    """
    b = int(round(np.sqrt(side)))
    if b * b != side:
        raise ValueError(f"side must be a perfect square, got {side}")

    cube = np.arange(side**3).reshape(side, side, side)
    groups = [cube.transpose(1, 2, 0), cube.transpose(0, 2, 1), cube]
    if include_box_uec:
        groups.append(cube.reshape(b, b, b, b, side).transpose(0, 2, 4, 1, 3))
    names = lambda: [f"a({r + 1},{c + 1},{n + 1})" for r in range(side) for c in range(side) for n in range(side)]
    return CnfTheory(side**3, *_exactly_one(np.concatenate([g.reshape(-1, side) for g in groups])), names)


def _exactly_one(groups: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR arrays of, per row of atom indices, its existence clause and then its pairwise exclusions."""
    count, size = groups.shape
    pairs = np.array(list(itertools.combinations(range(size), 2)), dtype=np.int64).reshape(-1, 2)
    literals = np.concatenate([groups + 1, -1 - groups[:, pairs].reshape(count, -1)], axis=1)
    lengths = np.tile([size] + [2] * len(pairs), count)
    return np.concatenate([[0], np.cumsum(lengths)]), literals.reshape(-1)


def sudoku_sum_groups(side: int = 9) -> np.ndarray:
    """Row/column/box families of positions into the (cells, digits) matrix.

    A (3, side*side, side, 2) array: per family, per group, the ``side``
    (cell, digit) positions whose probabilities should sum to 1.
    """
    b = int(round(np.sqrt(side)))
    grid = np.arange(side * side).reshape(side, side)
    boxes = grid.reshape(b, b, b, b).transpose(0, 2, 1, 3).reshape(side, side)
    shape = (side, side, side)  # (cell set, digit, position in the set)
    digits = np.broadcast_to(np.arange(side)[None, :, None], shape)
    return np.stack([
        np.stack([np.broadcast_to(cells[:, None, :], shape), digits], axis=-1).reshape(side * side, side, 2)
        for cells in (grid.T, grid, boxes)
    ])


def shortest_path_theory() -> CnfTheory:
    """Each terminal node touches exactly one chosen edge of the 4x4 grid.

    Atoms: 16 terminal atoms (node-major) then 24 edge atoms in the fixed
    lattice order. Existence clauses come first, then for every terminal
    all ordered pairs of distinct incident edges.
    """
    edges = D.grid_edges()
    side = D.GRID_SIDE
    names = lambda: [f"terminal({i + 1},{j + 1})" for i in range(side) for j in range(side)] + [
        f"sp({u // side + 1},{u % side + 1},{v // side + 1},{v % side + 1})" for u, v in edges
    ]
    incident: list[list[int]] = [[] for _ in range(side * side)]
    for e, (u, v) in enumerate(edges):
        incident[u].append(e)
        incident[v].append(e)
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
    train: list
    # A LabelledSplit on the classifier tasks and shortest path, a list of boards on Sudoku.
    test: list | LabelledSplit


@dataclass(frozen=True)
class LabelledSplit:
    """A classifier's held-out split: row i of ``features`` is labelled ``labels[i]``."""

    features: np.ndarray
    labels: np.ndarray

    def __len__(self) -> int:
        return len(self.labels)


def _held_out(feats: np.ndarray, labels: np.ndarray, start: int, count: int) -> LabelledSplit:
    """The ``count`` rows from ``start`` on, as views of the drawn arrays."""
    return LabelledSplit(feats[start : start + count], labels[start : start + count])


class TaskSpec:
    """Common surface: theory, loss recipe, dataset maker, accuracy."""

    name: str = ""
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
        return TrainConfig(**{"weights": replace(self.weights), "fn": self.fn, "ste": self.ste, **overrides})

    def build_net(self, seed: int) -> Mlp:
        raise NotImplementedError

    def make_data(self, seed: int = 0, **options) -> TaskDataset:
        raise NotImplementedError

    def assemble(self, outputs: Sequence[Tensor]) -> Tensor:
        """The (rows, k) columns of the first k atoms, from the (B, classes) outputs of each input position."""
        raise NotImplementedError(f"task {self.name} has no output assembly")

    def fact_rows(self, batch: Sequence) -> np.ndarray:
        """The (rows, n) int8 facts that a batch's labels pin."""
        raise NotImplementedError(f"task {self.name} has no fact rows")

    def batch_loss(self, net: Mlp, batch: Sequence, config: TrainConfig) -> dict[str, Tensor]:
        """The batch mean of each loss term, built as one graph; ``nn.train_epoch`` weights them.

        By default one constraint row per instance, from the assembled digit outputs.
        """
        return _batch_means(_digit_rows(self, net, batch, config))

    def truth_rows(self, batch: Sequence) -> tuple[Tensor, np.ndarray]:
        """The ground truth's x and fact rows; by default each image's one-hot digit goes through ``assemble``."""
        return self.assemble(_truth_outputs([inst.digits for inst in batch], 10)), self.fact_rows(batch)

    def evaluate(self, net: Mlp, instances) -> float:
        """Test accuracy; by default the net classifies the rows of a ``LabelledSplit``."""
        return _classifier_accuracy(net, instances)

    def check_instance(self, inst) -> bool:
        """The ground truth, laid out as training lays out the net's outputs, must satisfy the theory (zero loss)."""
        x, facts = self.truth_rows([inst])
        return not cnf_loss_rows(self.matrix, x, facts, self.fn).data.any()


def _batch_means(per_row: dict[str, Tensor]) -> dict[str, Tensor]:
    """The batch mean of each (B,) per-row term."""
    return {name: (1.0 / rows.shape[0]) * T.sum_last(rows) for name, rows in per_row.items()}


def _truth_outputs(labels: Sequence[Sequence[int]], classes: int) -> list[Tensor]:
    """Per input position, the (B, classes) one-hot rows of the instances' labels at that position."""
    return [T.constant(np.eye(classes)[list(position)]) for position in zip(*labels)]


def _digit_rows(task: TaskSpec, net: Mlp, batch: Sequence, config: TrainConfig) -> dict[str, Tensor]:
    """Per-row constraint and bound terms: one net pass per image position, over the (B, d) stack of its images."""
    outs = [net.forward(Tensor(np.stack(images))) for images in zip(*(inst.images for inst in batch))]
    x = task.assemble([probs for probs, _ in outs])
    facts = task.fact_rows(batch)
    bounds = [bound_loss(raw) for _, raw in outs]
    return {
        "cnf": cnf_loss_rows(task.matrix, x, facts, config.fn, config.ste),
        "bound": sum(bounds[1:], bounds[0]),
    }


def _outer_rows(a: Tensor, b: Tensor) -> Tensor:
    """Row-wise outer product of (B, i) and (B, j), flattened to (B, i*j)."""
    rows, i, j = a.shape[0], a.shape[1], b.shape[1]
    return T.reshape(T.reshape(a, (rows, i, 1)) * T.reshape(b, (rows, 1, j)), (rows, i * j))


def _pinned(rows: int, n: int, atoms) -> np.ndarray:
    """(rows, n) int8 facts with row r pinning ``atoms[r]`` (an index or a row of indices)."""
    facts = np.zeros((rows, n), dtype=np.int8)
    facts[np.arange(rows)[:, None], np.reshape(atoms, (rows, -1))] = 1
    return facts


def _classifier_accuracy(net: Mlp, split: LabelledSplit) -> float:
    if not len(split):
        return 0.0
    return float(np.mean(np.argmax(net.predict(split.features), axis=1) == split.labels))


@dataclass(frozen=True)
class AddInstance:
    images: tuple[np.ndarray, ...]
    label_sum: int
    digits: tuple[int, ...]


class MnistAddTask(TaskSpec):
    """Learn digit classification from pair sums alone."""

    def __init__(self, digits: int = 1, include_uec: bool = False, input_dim: int = 16, hidden: tuple[int, ...] = (64,)):
        super().__init__(mnist_add_theory(digits, include_uec))
        self.digits = digits
        self.include_uec = include_uec
        self.input_dim = input_dim
        self.hidden = hidden
        self.name = "mnist-add" if digits == 1 else f"mnist-add{digits}"
        self.n_images = 2 * digits
        # The 2 * 10**digits - 1 sum atoms come last.
        self.sum_base = self.theory.n - 2 * 10**digits + 1
        self.weights = LossWeights(alpha=1.0, beta=0.1 if digits == 1 else 0.01)

    def build_net(self, seed: int) -> Mlp:
        return Mlp((self.input_dim, *self.hidden, 10), head="softmax", seed=seed)

    def assemble(self, outputs: Sequence[Tensor]) -> Tensor:
        """The joint atoms are the row-wise outer product of the per-image digit probabilities.

        With ``include_uec`` the 20 digit atoms follow them: the two images' probabilities.
        """
        joint = functools.reduce(_outer_rows, outputs)
        return T.concat([joint, *outputs]) if self.include_uec else joint

    def fact_rows(self, batch: Sequence[AddInstance]) -> np.ndarray:
        return _pinned(len(batch), self.theory.n, [self.sum_base + inst.label_sum for inst in batch])

    def make_data(self, seed: int = 0, n_train: int = 5000, n_test: int = 2000, noise: float = 0.2, idx=None) -> TaskDataset:
        """Pairs of digit features with sum labels; test items are single digits."""
        k = self.n_images
        if idx is not None:
            images, labels = idx
            if len(images) < k * n_train + n_test:
                raise ValueError(f"need {k * n_train + n_test} images, file has {len(images)}")
            feats = images
        else:
            feats, labels = D.synthetic_features(k * n_train + n_test, 10, noise, [seed, 11], dim=self.input_dim)
        train = []
        for i in range(n_train):
            chunk = slice(k * i, k * (i + 1))
            digits = tuple(int(d) for d in labels[chunk])
            first = int("".join(map(str, digits[: self.digits])))
            second = int("".join(map(str, digits[self.digits :])))
            train.append(AddInstance(images=tuple(feats[chunk]), label_sum=first + second, digits=digits))
        return TaskDataset(self, train, _held_out(feats, labels, k * n_train, n_test))


@dataclass(frozen=True)
class Add2x2Instance:
    images: tuple[np.ndarray, ...]
    sums: tuple[int, int, int, int]
    digits: tuple[int, int, int, int]


class Add2x2Task(TaskSpec):
    """Digit classification from the four row/column sums of a 2x2 grid."""

    def __init__(self, input_dim: int = 16):
        super().__init__(add2x2_theory())
        self.name = "add2x2"
        self.input_dim = input_dim

    def build_net(self, seed: int) -> Mlp:
        return Mlp((self.input_dim, 64, 10), head="softmax", seed=seed)

    def assemble(self, outputs: Sequence[Tensor]) -> Tensor:
        """The four row/column outer products, one 100-atom block per pair."""
        return T.concat([_outer_rows(outputs[a], outputs[b]) for a, b in ADD2X2_PAIRS])

    def fact_rows(self, batch: Sequence[Add2x2Instance]) -> np.ndarray:
        return _pinned(len(batch), self.theory.n, 400 + 19 * np.arange(4) + np.array([inst.sums for inst in batch]))

    def make_data(self, seed: int = 0, n_train: int = 2000, n_test: int = 1000, noise: float = 0.2) -> TaskDataset:
        feats, labels = D.synthetic_features(4 * n_train + n_test, 10, noise, [seed, 12], dim=self.input_dim)
        train = []
        for i in range(n_train):
            digits = tuple(int(d) for d in labels[4 * i : 4 * i + 4])
            sums = tuple(digits[a] + digits[b] for a, b in ADD2X2_PAIRS)
            train.append(Add2x2Instance(images=tuple(feats[4 * i : 4 * i + 4]), sums=sums, digits=digits))
        return TaskDataset(self, train, _held_out(feats, labels, 4 * n_train, n_test))


@dataclass(frozen=True)
class MemberInstance:
    images: tuple[np.ndarray, ...]
    query: int
    label: int
    digits: tuple[int, ...]


class MemberTask(TaskSpec):
    """Digit classification from set-membership answers."""

    def __init__(self, k: int = 3, input_dim: int = 16):
        super().__init__(member_theory(k))
        self.k = k
        self.name = f"member{k}"
        self.input_dim = input_dim

    def build_net(self, seed: int) -> Mlp:
        return Mlp((self.input_dim, 64, 10), head="softmax", seed=seed)

    def assemble(self, outputs: Sequence[Tensor]) -> Tensor:
        """The per-image digit probabilities, side by side."""
        return T.concat(outputs)

    def fact_rows(self, batch: Sequence[MemberInstance]) -> np.ndarray:
        return _pinned(len(batch), self.theory.n, [10 * self.k + 10 * inst.label + inst.query for inst in batch])

    def make_data(self, seed: int = 0, n_train: int = 2000, n_test: int = 1000, noise: float = 0.2) -> TaskDataset:
        rng = np.random.default_rng([seed, 13])
        feats, labels = D.synthetic_features(self.k * n_train + n_test, 10, noise, [seed, 14], dim=self.input_dim)
        train = []
        for i in range(n_train):
            digits = tuple(int(d) for d in labels[self.k * i : self.k * (i + 1)])
            if rng.random() < 0.5:
                query = int(rng.choice(digits))
            else:
                absent = [d for d in range(10) if d not in digits]
                query = int(rng.choice(absent)) if absent else int(rng.choice(digits))
            label = int(query in digits)
            train.append(MemberInstance(images=tuple(feats[self.k * i : self.k * (i + 1)]), query=query, label=label, digits=digits))
        return TaskDataset(self, train, _held_out(feats, labels, self.k * n_train, n_test))


@dataclass(frozen=True)
class Apply2x2Instance:
    digits: tuple[int, int, int]
    images: tuple[np.ndarray, ...]
    ops: tuple[int, int, int, int]
    results: tuple[int, int, int, int]


class Apply2x2Task(TaskSpec):
    """Operator classification from applying row/column operator pairs.

    The operator grid is read along the add2x2 pairs (row 1, row 2,
    column 1, column 2); each pair applied to the instance's three digits
    gives one result, so an instance is four prediction rows.
    """

    def __init__(self, input_dim: int = 16):
        theory, lookup = apply2x2_theory()
        super().__init__(theory)
        self.name = "apply2x2"
        self.input_dim = input_dim
        self.lookup = lookup

    def build_net(self, seed: int) -> Mlp:
        return Mlp((self.input_dim, 32, 3), head="softmax", seed=seed)

    def assemble(self, outputs: Sequence[Tensor]) -> Tensor:
        """Row 4i+p holds pair p of instance i: the outer product of its two operators' probabilities."""
        pairs = T.concat([_outer_rows(outputs[a], outputs[b]) for a, b in ADD2X2_PAIRS])
        return T.reshape(pairs, (4 * pairs.shape[0], 9))

    def fact_rows(self, batch: Sequence[Apply2x2Instance]) -> np.ndarray:
        """Row 4i+p pins the result atom of pair p of instance i."""
        return _pinned(4 * len(batch), self.theory.n, [self.lookup[(*inst.digits, r)] for inst in batch for r in inst.results])

    def batch_loss(self, net: Mlp, batch: Sequence[Apply2x2Instance], config: TrainConfig) -> dict[str, Tensor]:
        """An instance's constraint term is the sum of its four rows."""
        per_row = _digit_rows(self, net, batch, config)
        per_row["cnf"] = T.sum_last(T.reshape(per_row["cnf"], (len(batch), 4)))
        return _batch_means(per_row)

    def truth_rows(self, batch: Sequence[Apply2x2Instance]) -> tuple[Tensor, np.ndarray]:
        """Each operator image's one-hot operator through ``assemble``."""
        return self.assemble(_truth_outputs([inst.ops for inst in batch], 3)), self.fact_rows(batch)

    def make_data(self, seed: int = 0, n_train: int = 500, n_test: int = 200, noise: float = 0.2) -> TaskDataset:
        rng = np.random.default_rng([seed, 15])
        feats, labels = D.synthetic_features(4 * n_train + n_test, 3, noise, [seed, 16], dim=self.input_dim)
        train = []
        for i in range(n_train):
            ops = tuple(int(o) for o in labels[4 * i : 4 * i + 4])
            digits = tuple(int(d) for d in rng.integers(0, 10, size=3))
            results = tuple(
                _apply_op(_apply_op(digits[0], APPLY_OPS[ops[a]], digits[1]), APPLY_OPS[ops[b]], digits[2]) for a, b in ADD2X2_PAIRS
            )
            train.append(Apply2x2Instance(digits=digits, images=tuple(feats[4 * i : 4 * i + 4]), ops=ops, results=results))
        return TaskDataset(self, train, _held_out(feats, labels, 4 * n_train, n_test))


class SudokuTask(TaskSpec):
    """Unsupervised grid completion from the exactly-one constraints.

    Training and completion take (B, cells) stacks of boards: a batch is
    one net pass and one ``cnf_loss_rows`` call, with the givens as facts.
    """

    def __init__(self, side: int = 4, include_box_uec: bool = False, hidden: tuple[int, ...] = (256, 256)):
        super().__init__(sudoku_theory(side, include_box_uec))
        self.side = side
        self.name = f"sudoku{side}"
        self.hidden = hidden
        self.cells = side * side
        self.input_dim = self.cells * (side + 1)
        self.sum_groups = sudoku_sum_groups(side)

    def build_net(self, seed: int) -> Mlp:
        return Mlp((self.input_dim, *self.hidden, self.cells * self.side), head="none", seed=seed)

    def encode_board(self, q: np.ndarray) -> np.ndarray:
        """Net input of one board, or one row per board of a (B, cells) stack."""
        q = np.asarray(q, dtype=np.int64)
        return np.eye(self.side + 1)[q].reshape(q.shape[:-1] + (-1,))

    def fact_rows(self, q: np.ndarray) -> np.ndarray:
        """The filled cells of one board (n,) or of a (B, cells) stack (B, n), as 0/1 atoms."""
        q = np.asarray(q, dtype=np.int64)
        return np.eye(self.side + 1, dtype=np.int8)[q][..., 1:].reshape(q.shape[:-1] + (-1,))

    def batch_loss(self, net: Mlp, batch: Sequence[D.GridInstance], config: TrainConfig) -> dict[str, Tensor]:
        """One net pass and one ``cnf_loss_rows`` call; each per-board term is averaged."""
        q = np.stack([inst.q for inst in batch])
        rows = len(batch)
        _, raw = net.forward(Tensor(self.encode_board(q)))
        probs = T.softmax(T.reshape(raw, (rows * self.cells, self.side)))
        x = T.reshape(probs, (rows, self.theory.n))
        facts = self.fact_rows(q)
        per_board = {
            "cnf": cnf_loss_rows(self.matrix, x, facts, config.fn, config.ste),
            "bound": bound_loss(raw),
        }
        if config.weights.gamma:
            per_board["sum"] = sum_loss(T.reshape(probs, (rows, self.cells, self.side)), self.sum_groups)
        if config.weights.delta:
            per_board["hint"] = hint_loss(facts, x, config.ste)
        return _batch_means(per_board)

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
        return Assignment(self.fact_rows(board)).satisfies(self.theory)

    def evaluate(self, net: Mlp, instances, inference_trick: bool = True) -> float:
        """Share of boards completed to their solution (or to a model), all filled in one call."""
        if not len(instances):
            return 0.0
        q = np.stack([inst.q for inst in instances])
        filled = N.predict_with_inference_trick(net, q, self) if inference_trick else self.predict_board(net, q)
        good = sum(
            np.array_equal(board, inst.solution) if inst.solution is not None else self.verify_board(board)
            for inst, board in zip(instances, filled)
        )
        return good / len(instances)

    def truth_rows(self, batch: Sequence[D.GridInstance]) -> tuple[Tensor, np.ndarray]:
        """The solutions (a board without one stands for itself) as 0/1 rows, with the givens as facts."""
        solved = np.stack([inst.q if inst.solution is None else inst.solution for inst in batch])
        return T.constant(self.fact_rows(solved)), self.fact_rows(np.stack([inst.q for inst in batch]))

    def make_data(self, seed: int = 0, n_train: int = 2000, n_test: int = 200, tier: str = "easy", holes=(4, 11)) -> TaskDataset:
        boards = D.gen_grid_puzzles(self.side, n_train + n_test, tier=tier, seed=[seed, 17], holes=holes)
        return TaskDataset(self, boards[:n_train], boards[n_train:])


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

    def fact_rows(self, batch: Sequence[D.PathInstance]) -> np.ndarray:
        """The two terminal nodes of each instance, from the last 16 features."""
        facts = np.zeros((len(batch), self.theory.n), dtype=np.int8)
        facts[:, :16] = np.stack([inst.features[24:] for inst in batch])
        return facts

    def batch_loss(self, net: Mlp, batch: Sequence[D.PathInstance], config: TrainConfig) -> dict[str, Tensor]:
        """One net pass over the (B, 40) features."""
        probs, raw = net.forward(Tensor(np.stack([inst.features for inst in batch])))
        x = self.assemble([probs])
        facts = self.fact_rows(batch)
        label = T.constant(np.stack([inst.label for inst in batch]).astype(np.float64))
        # Clamp away from the sigmoid's saturated endpoints before taking logs.
        safe = T.clip(probs, 1e-12, 1.0 - 1e-12)
        return _batch_means({
            "base": -1.0 * T.avg_last(label * T.log(safe) + (1.0 - label) * T.log(1.0 - safe)),
            "cnf": cnf_loss_rows(self.matrix, x, facts, config.fn, config.ste),
            "bound": bound_loss(raw),
        })

    def evaluate(self, net: Mlp, split: LabelledSplit) -> float:
        """Exact-match accuracy of the thresholded edge predictions."""
        if not len(split):
            return 0.0
        return float(np.mean(np.all((net.predict(split.features) >= 0.5) == split.labels, axis=1)))

    def truth_rows(self, batch: Sequence[D.PathInstance]) -> tuple[Tensor, np.ndarray]:
        """The labelled path's edges through ``assemble``."""
        return self.assemble([T.constant(np.stack([inst.label for inst in batch]))]), self.fact_rows(batch)

    def make_data(self, seed: int = 0, n_train: int = 1288, n_test: int = 322, csv_path: str | None = None) -> TaskDataset:
        if csv_path:
            instances = D.load_path_csv(csv_path)
        else:
            instances = D.gen_path_instances(n_train + n_test, seed=[seed, 18])
        if len(instances) < n_train + n_test:
            n_train = int(len(instances) * 0.8)
            n_test = len(instances) - n_train
        feats = np.stack([inst.features for inst in instances])
        labels = np.stack([inst.label for inst in instances]).astype(bool)
        return TaskDataset(self, instances[:n_train], _held_out(feats, labels, n_train, n_test))


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

    def __init__(self, classes: int = 10, input_dim: int = 16):
        super().__init__(exactly_one_theory(classes))
        self.classes = classes
        self.name = "exactly-one"
        self.input_dim = input_dim
        self.weights = LossWeights(alpha=0.5, beta=0.0)

    def build_net(self, seed: int) -> Mlp:
        return Mlp((self.input_dim, 64, self.classes), head="none", seed=seed)

    def batch_loss(self, net: Mlp, batch, config: TrainConfig) -> dict[str, Tensor]:
        """Labelled and unlabelled rows each go through the net as one matrix.

        Cross-entropy averages over the labelled rows; the constraint (with
        its hint) and the bound average over all rows, as per instance.
        """
        sums: dict[str, Tensor] = {}
        means: dict[str, Tensor] = {}
        for rows in ([inst for inst in batch if inst[1] is not None], [inst for inst in batch if inst[1] is None]):
            if not rows:
                continue
            logits, raw = net.forward(Tensor(np.stack([feat for feat, _ in rows])))
            if rows[0][1] is None:
                classes = np.argmax(logits.data, axis=1)
            else:
                classes = np.array([label for _, label in rows])
                means["base"] = T.cross_entropy(logits, np.eye(self.classes)[classes])
            facts = np.eye(self.classes, dtype=np.int8)[classes]
            x = logits * (1.0 / self.logit_scale)
            cnf = cnf_loss_rows(self.matrix, x, facts, config.fn, config.ste)
            cnf = cnf + self.hint_weight * hint_loss(facts, x, config.ste, config.fn)
            for name, per_row in (("cnf", cnf), ("bound", bound_loss(raw))):
                total = T.sum_last(per_row)
                sums[name] = total if name not in sums else sums[name] + total
        for name, total in sums.items():
            means[name] = (1.0 / len(batch)) * total
        return means

    def violation_fraction(self, net: Mlp, split: LabelledSplit) -> float:
        """Share of inputs whose thresholded logits are not one-hot."""
        bits = net.predict(split.features) >= 0.0
        return float(np.mean(bits.sum(axis=1) != 1))

    def truth_rows(self, batch) -> tuple[Tensor, np.ndarray]:
        """Logit-style ground truth of the labelled rows, with no facts.

        Positive only at the true class, so the sign binarizer yields a one-hot assignment.
        """
        labels = [label for _, label in batch if label is not None]
        return T.constant(2.0 * np.eye(self.classes)[labels] - 1.0), np.zeros((len(labels), self.classes), dtype=np.int8)

    def make_data(
        self,
        seed: int = 0,
        n_labeled: int = 100,
        n_unlabeled: int = 5000,
        n_test: int = 2000,
        noise: float = 0.2,
    ) -> TaskDataset:
        """Labelled + unlabelled pool; the labelled instances are oversampled
        to ``label_share`` draws per unlabelled instance.

        The unlabelled rows learn from facts the net picks itself, so the
        labels must dominate the stream while those picks are still poor:
        at one labelled draw per unlabelled one, the recipe above leaves
        5-7% of the outputs violating the constraint; at two, 4-6%.
        """
        total = n_labeled + n_unlabeled + n_test
        feats, labels = D.synthetic_features(total, self.classes, noise, [seed, 19], dim=self.input_dim)
        labeled = [(feats[i], int(labels[i])) for i in range(n_labeled)]
        unlabeled = [(feats[n_labeled + i], None) for i in range(n_unlabeled)]
        train = list(labeled)
        if labeled and unlabeled:
            reps = max(0, (self.label_share * len(unlabeled) - len(labeled)) // len(labeled))
            train += labeled * reps
        train += unlabeled
        return TaskDataset(self, train, _held_out(feats, labels, n_labeled + n_unlabeled, n_test))


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
    """Build a task by CLI name; options are forwarded to its constructor."""
    if name not in _CONSTRUCTORS:
        raise KeyError(f"unknown task {name!r}; choose from {', '.join(sorted(_CONSTRUCTORS))}")
    return _CONSTRUCTORS[name](**options)
