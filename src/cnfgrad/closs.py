"""The constraint-loss stack and its reference routes.

Training uses ``cnf_loss_rows``: it takes a batch of the net's output
columns and fact rows, binarizes the columns (``tensor.binarize_bits``)
and overlays the facts itself, and since the loss of binarized 0/1
predictions and its gradient are clause counts, one node computes both
from the sparse clause matrix. It counts each clause's literals with one
``np.bincount`` when the clauses are short (mean length below
``BINCOUNT_MEAN_LENGTH``), else with ``np.add.reduceat``. Its backward
reads each literal's gradient from one table, ``_literal_terms``, kept
here beside it; the ``ClauseMatrix`` supplies clause structure and the
bincount slots. The training terms take
int8 fact rows, and ``sum_loss`` a (B, rows, cols) stack.
``cnf_loss`` is the reference: on predictions that ``assemble_prediction``
builds as graph nodes, it builds the dense chain (for one instance, or
for each row of a stack of them)

    L_f      = C * f                      (broadcast over clauses)
    L_v      = [C==1] * v + [C==-1] * (1 - v)
    deduce_i = [ #literals_i - #fact-negating-literals_i == 1 ]
    unsat_i  = prod_j (1 - L_v[i, j])
    keep_i   = sum_j ([L_v==1] * (1 - L_v) + [L_v==0] * L_v)
    L_deduce = sum_i deduce_i * unsat_i
    L_unsat  = avg_i [unsat==1] * unsat_i
    L_sat    = avg_i [unsat==0] * keep_i

with every bracketed indicator a constant, so the only differentiable
inputs are the prediction bits ``v``. ``closed_form_grad`` predicts the
same gradients by counting clause memberships, evaluating satisfaction
directly on the clause lists and never through either route above; the
three are compared in the verification suites. It only counts: the
counts hold whether or not theory plus facts is satisfiable, so it
enumerates no assignment.

The deduce rule has three forms, each written once: the literal scan
``cnf.deduce_set`` (the reference, which ``closed_form_grad`` reads),
the kernel's arrays (``_clause_counts``) and the dense graph's
indicators (``deduce_i`` above, in ``cnf_loss``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from . import tensor as T
from .cnf import Assignment, ClauseMatrix, CnfTheory, FactVector, deduce_set
from .tensor import SteMode, Tensor


@dataclass
class LossWeights:
    """The loss-term table: each field scales the term its metadata names, in the order the batch objective adds them."""

    alpha: float = field(default=1.0, metadata={"term": "cnf"})
    beta: float = field(default=0.1, metadata={"term": "bound"})
    gamma: float = field(default=0.0, metadata={"term": "sum"})
    delta: float = field(default=0.0, metadata={"term": "hint"})

    def __post_init__(self) -> None:
        for _, name, value in self.terms():
            if not 0 <= value < np.inf:
                raise ValueError(f"loss weight {name} must be finite and nonnegative, got {value}")

    def terms(self) -> list[tuple[str, str, float]]:
        """(term, weight name, weight) for each field, in field order."""
        return [(term, name, getattr(self, name)) for term, name in _TERMS]


_TERMS = tuple((f.metadata["term"], f.name) for f in fields(LossWeights))


@dataclass
class LossBreakdown:
    """Every intermediate of the constraint loss, as graph nodes."""

    l_f: Tensor
    l_v: Tensor
    deduce: Tensor
    unsat: Tensor
    keep: Tensor
    l_deduce: Tensor
    l_unsat: Tensor
    l_sat: Tensor
    l_cnf: Tensor


@dataclass(frozen=True)
class ForwardBreakdown:
    """Loss values computed sparsely, without a gradient graph."""

    l_deduce: float
    l_unsat: float
    l_sat: float
    l_cnf: float
    deduce: np.ndarray
    unsat: np.ndarray


def _fact_bits(f) -> np.ndarray:
    return f.bits if isinstance(f, FactVector) else np.asarray(f)


def assemble_prediction(f, x: Tensor, fn: str = "bp", ste: SteMode = SteMode.ISTE) -> Tensor:
    """Overlay binarized outputs on the facts: v = f + [f==0] * binarize(x).

    Positions with a fact are pinned to 1 and receive no gradient; all
    others carry the straight-through gradient of the binarizer.
    """
    bits = _fact_bits(f)
    if x.shape != bits.shape:
        raise T.ShapeError(f"assemble_prediction: x has shape {x.shape}, facts have {bits.shape}")
    f_t = T.constant(bits)
    free = T.indicator(f_t, 0.0)
    return f_t + free * T.binarize(x, fn, ste)


#: Largest dense reference ``cnf_loss`` will build: rows x m x n float64 bytes.
#: The graph holds about a dozen arrays of that size, so this caps it near 1.5 GB.
DENSE_BYTES_CAP = 1 << 27


def cnf_loss(matrix: ClauseMatrix, v: Tensor, f) -> LossBreakdown:
    """Constraint loss of prediction ``v`` against the dense clause matrix.

    The reference route: every intermediate is a graph node over the
    m x n matrix, so it suits the verification suites, not training.
    ``v`` and ``f`` are one instance of shape (n,), or a (rows, n) stack
    of instances. Both become (rows, 1, n), so every node gains a leading
    row axis and the terms are (rows,): row r equals the single-instance
    graph of v[r], f[r]. A 1-D ``v`` keeps the single-instance shapes.
    Raises before allocating when rows x m x n float64 exceeds
    ``DENSE_BYTES_CAP``.
    """
    m, n = matrix.shape
    bits = _fact_bits(f)
    if len(v.shape) not in (1, 2) or v.shape[-1] != n or bits.shape != v.shape:
        raise T.ShapeError(f"cnf_loss: matrix is {m}x{n}, v has shape {v.shape}, f has shape {bits.shape}")
    lead = v.shape[:-1]
    rows = lead[0] if lead else 1
    footprint = rows * m * n * 8
    if footprint > DENSE_BYTES_CAP:
        raise ValueError(
            f"cnf_loss: {rows} x {m} x {n} float64 is {footprint / 2**20:,.0f} MiB per dense node, "
            f"above the {DENSE_BYTES_CAP >> 20} MiB budget of the reference route; use cnf_loss_rows"
        )
    dense = matrix.dense()
    c_t = Tensor(dense)
    pos, neg = T.indicator(c_t, 1.0), T.indicator(c_t, -1.0)
    lits = Tensor((dense * dense).sum(axis=-1))
    f_t = T.constant(bits.reshape(lead + (1, n)))
    v = T.reshape(v, lead + (1, n))

    l_f = c_t * f_t
    one_minus_v = 1.0 - v
    l_v = pos * v + neg * one_minus_v
    false_under_f = T.sum_last(T.indicator(l_f, -1.0))
    deduce = T.indicator(lits - false_under_f, 1.0)
    one_minus_lv = 1.0 - l_v
    unsat = T.prod_last(one_minus_lv)
    keep = T.sum_last(T.indicator(l_v, 1.0) * one_minus_lv + T.indicator(l_v, 0.0) * l_v)
    l_deduce = T.sum_last(deduce * unsat)
    l_unsat = T.avg_last(T.indicator(unsat, 1.0) * unsat)
    l_sat = T.avg_last(T.indicator(unsat, 0.0) * keep)
    l_cnf = l_deduce + l_unsat + l_sat
    return LossBreakdown(l_f, l_v, deduce, unsat, keep, l_deduce, l_unsat, l_sat, l_cnf)


#: Below this mean clause length ``_clause_counts`` counts with one ``np.bincount`` over every
#: literal; at or above it with ``np.add.reduceat``, which pays per clause. They cost the same at about 5-6
#: literals: sudoku4 (2.3) counts 2.5x faster by bincount, mnist-add2 (51) 7x faster by reduceat.
BINCOUNT_MEAN_LENGTH = 6


def _per_clause(matrix: ClauseMatrix, flags: np.ndarray) -> np.ndarray:
    """Per-clause counts of (rows, nonzeros) flags; an empty clause counts 0.

    ``reduceat`` runs over the non-empty clauses only: at a repeated start it
    would return that one element, and a trailing empty clause would read past
    the last literal.
    """
    counts = np.add.reduceat(flags, matrix.starts, axis=1, dtype=np.int32)
    if matrix.nonempty.size == matrix.lengths.size:
        return counts
    padded = np.zeros((flags.shape[0], matrix.lengths.size), dtype=np.int32)
    padded[:, matrix.nonempty] = counts
    return padded


def _clause_counts(matrix: ClauseMatrix, v: np.ndarray, fact: np.ndarray):
    """Literal truth (rows, nnz), true-literal counts and deduce membership (rows, m)
    of boolean predictions ``v`` under boolean facts ``fact``, both (rows, n).

    On short clauses one weighted ``bincount`` counts both flags of a literal,
    its truth and whether a fact negates it: the second is scaled past the
    longest clause's length, so the float sums, exact below 2^26 literals a
    clause, unpack into two counts. On long ones ``reduceat`` counts each
    flag, as a bool array an eighth of the memory of the float weights.
    """
    m = matrix.shape[0]
    lit_true = v.take(matrix.indices, axis=1) == matrix.positive
    neg_fact = fact.take(matrix.indices, axis=1) > matrix.positive
    if matrix.indices.size < BINCOUNT_MEAN_LENGTH * m:
        rows, shift = lit_true.shape[0], int(matrix.lengths.max(initial=0)).bit_length()
        weights = np.multiply(neg_fact, float(1 << shift))
        weights += lit_true
        counts = np.bincount(matrix.slots(rows, by_clause=True), weights=weights.ravel(), minlength=rows * m)
        counts = counts.reshape(rows, m).astype(np.int64)
        true_counts, negated = counts & ((1 << shift) - 1), counts >> shift
    else:
        true_counts, negated = _per_clause(matrix, lit_true), _per_clause(matrix, neg_fact)
    return lit_true, true_counts, negated == matrix.lengths - 1


def cnf_loss_forward(matrix: ClauseMatrix, v_bits: np.ndarray, f_bits) -> ForwardBreakdown:
    """Forward loss values from 0/1 bit vectors, in O(nonzeros) memory.

    Matches the graph route exactly; useful where the dense m x n
    intermediates would not fit (the larger generated theories).
    """
    m, n = matrix.shape
    v = np.asarray(v_bits, dtype=np.int8)
    fb = np.asarray(_fact_bits(f_bits), dtype=np.int8)
    if v.shape != (n,) or fb.shape != (n,):
        raise T.ShapeError(f"cnf_loss_forward: matrix is {m}x{n}, v has shape {v.shape}, f has shape {fb.shape}")
    _, true_counts, deduce = _clause_counts(matrix, v[None] == 1, fb[None] == 1)
    unsat = true_counts[0] == 0
    deduce = deduce[0]
    l_deduce = float(np.sum(deduce & unsat))
    l_unsat = float(np.mean(unsat)) if m else 0.0
    l_cnf = l_deduce + l_unsat
    return ForwardBreakdown(l_deduce, l_unsat, 0.0, l_cnf, deduce, unsat)


def _literal_terms() -> tuple[np.ndarray, np.ndarray]:
    """Both terms of a literal's gradient in ``cnf_loss_rows``, per index 32 * positive + 16 * (literal true) + clause key.

    The gradient is -sign * [deduce and alone] + (-sign if unsat or literal
    true, else sign) / m. A true literal is alone when its clause has one true
    literal, a false one when it has none, so a clause's key holds (deduce and
    alone, unsat or true) for its true literals in bits 2-3, for its false ones in bits 0-1.
    """
    key = np.arange(16)
    index = 4 * np.arange(2)[:, None, None] + np.where(np.array([False, True])[:, None], key >> 2, key & 3)
    sign = np.where(index >= 4, 1.0, -1.0)
    return (-sign * (index >> 1 & 1)).ravel(), np.where(index & 1, -sign, sign).ravel()


_DEDUCE_TERM, _SIGNED_TERM = _literal_terms()
# The clause key of ``_literal_terms`` per 3 * deduce + min(true literals, 2).
_KEYS = np.array([4 * (2 * (d and t == 1) + 1) + 2 * (d and t == 0) + (t == 0) for d in (0, 1) for t in (0, 1, 2)], dtype=np.uint8)


def cnf_loss_rows(matrix: ClauseMatrix, x: Tensor, f, fn: str = "bp", ste: SteMode = SteMode.ISTE) -> Tensor:
    """``cnf_loss(matrix, v[r], f[r]).l_cnf`` for every row r of a batch, as one node.

    ``x`` is (rows, k) with k <= n: the net outputs for atoms 0..k-1.
    ``f`` holds the (rows, n) fact rows. The prediction is the one
    ``assemble_prediction`` makes from ``x`` padded with zero columns: 1 at
    a fact, else ``binarize(x, fn)`` (ties go to 1), and ``binarize(0)``
    in the columns from k on. For such 0/1 predictions the loss and its
    gradient are clause counts, so both come from the sparse rows in
    O(rows * nonzeros), without the dense m x n graph or a (rows, n)
    prediction node. For clause i and its literal on atom j, with sign C_ij:

      d L_deduce / d v_j = -C_ij      if i is in the deduce set and no
                                      other literal of i is true
      d L_unsat  / d v_j = -C_ij / m  if i is falsified
      d L_sat    / d v_j = -C_ij / m  if i is satisfied and the literal
                                      true, +C_ij / m if it is false

    Only ``x`` gets a gradient: that sum, zeroed at facts and, under
    SSTE, outside [-1, 1]. At non-fact atoms it is the gradient
    ``closed_form_grad`` predicts.
    """
    m, n = matrix.shape
    bits = np.asarray(f)
    if len(x.shape) != 2 or x.shape[1] > n or bits.shape != (x.shape[0], n):
        raise T.ShapeError(f"cnf_loss_rows: matrix is {m}x{n}, x has shape {x.shape}, f has shape {bits.shape}")
    rows, k = x.shape
    fact = bits != 0
    v = fact.copy()
    v[:, :k] |= T.binarize_bits(x.data, fn)
    v[:, k:] |= 0.0 >= T.THRESHOLDS[fn]  # binarize(0) past the net's columns, as a zero pad gives
    lit_true, true_counts, deduce = _clause_counts(matrix, v, fact)
    unsat = true_counts == 0
    l_unsat = unsat.sum(axis=1) / m if m else np.zeros(rows)
    out = Tensor((deduce & unsat).sum(axis=1) + l_unsat, parents=(x,), op="cnf_loss_rows")

    def back(g: np.ndarray) -> None:
        if x.grad is None:
            return
        # The clause key of ``_literal_terms``, then the literal's truth in bit 4 and its sign in bit 5.
        key = _KEYS.take(np.minimum(true_counts, 2) + 3 * deduce)
        index = key.take(matrix.clause_of, axis=1)
        index |= lit_true.view(np.uint8) << 4
        index |= matrix.positive.view(np.uint8) << 5
        per_literal = (_DEDUCE_TERM + _SIGNED_TERM / max(m, 1)).take(index).ravel()
        grad = np.bincount(matrix.slots(rows, by_clause=False), weights=per_literal, minlength=rows * n).reshape(rows, n)
        del index, per_literal  # free the (rows, nnz) arrays before the products below
        grad = g[:, None] * grad[:, :k]
        grad *= ~fact[:, :k]
        mask = T.surrogate_mask(x.data, ste)
        if mask is not None:
            grad *= mask
        T._acc(x, grad)

    out._backward = back
    return out


def bound_loss(x_raw: Tensor) -> Tensor:
    """Mean squared raw output over the last axis; keeps logits small."""
    return T.avg_last(T.square(x_raw))


def sum_loss(probs: Tensor, selections) -> Tensor:
    """Penalize index groups whose probabilities do not sum to 1, one loss per matrix of a (B, rows, cols) stack.

    ``selections`` holds one read-only 0/1 matrix per family of groups, of
    shape (rows * cols, groups): column g marks group g's positions in the
    row-major flattening of one ``probs`` matrix.
    The squared deviation of each group sum from 1 is averaged within its
    family, and families are summed in the order given.
    """
    if len(probs.shape) != 3:
        raise T.ShapeError(f"sum_loss: probs must be (B, rows, cols), got shape {probs.shape}")
    count, rows, cols = probs.shape
    flat = T.reshape(probs, (count, rows * cols))
    first, *rest = (T.avg_last(T.square(T.matmul(flat, Tensor(sel)) - 1.0)) for sel in selections)
    return sum(rest, first)


def hint_loss(f: np.ndarray, x: Tensor, fn: str = "bp", ste: SteMode = SteMode.ISTE) -> Tensor:
    """Mean over the last axis of f * (1 - binarize(x, fn)): facts the prediction fails to assert.

    ``f`` is an int8 fact array of ``x``'s shape.
    """
    bits = np.asarray(f)
    if x.shape != bits.shape:
        raise T.ShapeError(f"hint_loss: x has shape {x.shape}, facts have {bits.shape}")
    f_t = T.constant(bits)
    return T.avg_last(f_t * (1.0 - T.binarize(x, fn, ste)))


# -- counting oracle ----------------------------------------------------------

@dataclass(frozen=True)
class GradOracleReport:
    """Predicted identity-surrogate gradients, by clause counting.

    Per atom j (all zero where f[j] = 1):
      g_deduce = (deduce-set clauses with ¬p_j) - (deduce-set clauses with p_j)
      g_unsat  = (c2 - c1) / m, counting the clauses falsified by v that
                 hold ¬p_j (c2) and p_j (c1)
      g_sat    = -c3/m if v asserts p_j else +c3/m, c3 counting satisfied
                 clauses that mention the atom.
    """

    g_deduce: np.ndarray
    g_unsat: np.ndarray
    g_sat: np.ndarray
    g_total: np.ndarray


def closed_form_grad(theory: CnfTheory, f: FactVector, v: Assignment) -> GradOracleReport:
    """Predict the loss gradients without touching the graph route.

    Satisfaction is evaluated clause by clause (``Assignment``), and
    deduce-set membership is read from ``cnf.deduce_set``. The counts hold
    whether or not theory plus facts is satisfiable; only the sign
    guarantee on g_deduce needs that premise, and the callers that assert
    it (``verify.gradient_suite``) screen for it themselves.
    """
    n, m = theory.n, theory.m
    if f.n != n or v.bits.shape != (n,):
        raise ValueError("closed_form_grad: facts/assignment length must match the theory")

    deduce_pos = np.zeros(n, dtype=np.int64)
    deduce_neg = np.zeros(n, dtype=np.int64)
    c1 = np.zeros(n, dtype=np.int64)
    c2 = np.zeros(n, dtype=np.int64)
    c3 = np.zeros(n, dtype=np.int64)

    deduce = set(deduce_set(theory, f))
    for i, clause in enumerate(theory.clauses):
        satisfied = v.satisfies_clause(clause)
        for lit in clause:
            j = abs(lit) - 1
            if satisfied:
                c3[j] += 1
            elif lit > 0:
                c1[j] += 1
            else:
                c2[j] += 1
            if i in deduce:
                if lit > 0:
                    deduce_pos[j] += 1
                else:
                    deduce_neg[j] += 1

    free = (f.bits == 0).astype(np.float64)
    g_deduce = (deduce_neg - deduce_pos) * free
    g_unsat = ((c2 - c1) / m) * free if m else np.zeros(n)
    sign = np.where(v.bits == 1, -1.0, 1.0)
    g_sat = (sign * c3 / m) * free if m else np.zeros(n)
    return GradOracleReport(g_deduce=g_deduce, g_unsat=g_unsat, g_sat=g_sat, g_total=g_deduce + g_unsat + g_sat)
