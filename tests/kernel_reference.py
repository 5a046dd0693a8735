"""The constraint path as it was before ``cnf_loss_rows`` took the net's columns.

The net's (rows, k) outputs were widened to (rows, n) by zero columns,
overlaid on the facts by ``assemble_prediction`` and only then handed, as
0/1 rows, to a sparse node that counted with weighted ``bincount`` calls.
The tests hold the fused kernel to this chain byte for byte.
"""

import numpy as np

import cnfgrad.tensor as T
from cnfgrad.closs import assemble_prediction
from cnfgrad.cnf import FactVector
from cnfgrad.tensor import SteMode, Tensor


def _binary_rows(matrix, v: Tensor, f) -> Tensor:
    m, n = matrix.shape
    bits = np.asarray(f.bits if isinstance(f, FactVector) else f, dtype=np.float64)
    if len(v.shape) != 2 or v.shape[1] != n or bits.shape != v.shape:
        raise T.ShapeError(f"matrix is {m}x{n}, v has shape {v.shape}, f has shape {bits.shape}")
    if not np.all((v.data == 0.0) | (v.data == 1.0)):
        raise ValueError("v must be binarized (every entry 0 or 1)")
    rows = v.shape[0]
    clause_of = np.repeat(np.arange(m), np.diff(matrix.indptr))
    slot = (np.arange(rows)[:, None] * m + clause_of).ravel()
    pos = matrix.values > 0
    lit_true = np.where(pos, v.data[:, matrix.indices] == 1, v.data[:, matrix.indices] == 0)
    true_counts = np.bincount(slot, weights=lit_true.ravel().astype(np.float64), minlength=rows * m).reshape(rows, m)
    neg_fact = ~pos & (bits[:, matrix.indices] == 1)
    neg_counts = np.bincount(slot, weights=neg_fact.ravel().astype(np.float64), minlength=rows * m)
    deduce = (np.diff(matrix.indptr) - neg_counts.reshape(rows, m)) == 1
    unsat = true_counts == 0
    l_unsat = np.sum(unsat, axis=1) / m if m else np.zeros(rows)
    out = Tensor(np.sum(deduce & unsat, axis=1) + l_unsat, parents=(v,), op="cnf_loss_rows")

    sign = matrix.values.astype(np.float64)
    alone = true_counts[:, clause_of] == lit_true
    per_literal = -sign * (deduce[:, clause_of] & alone) + np.where(unsat[:, clause_of] | lit_true, -sign, sign) / m
    slot = (np.arange(rows)[:, None] * n + matrix.indices).ravel()
    grad = np.bincount(slot, weights=per_literal.ravel(), minlength=rows * n).reshape(rows, n)

    def back(g: np.ndarray) -> None:
        T._acc(v, g[:, None] * grad)

    out._backward = back
    return out


def reference_rows(matrix, x: Tensor, f, fn: str = "bp", ste: SteMode = SteMode.ISTE) -> Tensor:
    """``cnf_loss_rows(matrix, x, f, fn, ste)`` through the zero pad, ``assemble_prediction`` and the 0/1 node."""
    bits = np.asarray(f.bits if isinstance(f, FactVector) else f)
    padded = T.concat([x, T.constant(np.zeros((x.shape[0], matrix.shape[1] - x.shape[1])))])
    return _binary_rows(matrix, assemble_prediction(bits, padded, fn, ste), bits)
