"""Inject propositional CNF constraints into gradient training.

A CNF theory becomes a differentiable loss over binarized network
outputs; straight-through surrogates carry the gradient through the
thresholds, so minimizing the loss pushes predictions toward satisfying
assignments. Ships with a small reverse-mode tensor engine, brute-force
logical oracles, the benchmark task encodings, and a CLI. Importing the
package sets numpy's OpenBLAS to one thread (see ``cnfgrad.blas``) and
fixes glibc's malloc thresholds so that the arrays a training batch frees
stay in the process (see ``cnfgrad.heap``). Neither has a flag, and
neither changes a result.
"""

from . import blas as _blas
from . import heap as _heap
from .closs import (
    GradOracleReport,
    LossBreakdown,
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
from .cnf import (
    Assignment,
    ClauseMatrix,
    CnfTheory,
    DimacsError,
    FactVector,
    SatReport,
    brute_force,
    build_matrix,
    deduce_set,
    parse_dimacs,
    parse_facts,
    serialize_dimacs,
)
from .nn import Mlp, Optimizer, TrainConfig, predict_with_inference_trick, run_training
from .tensor import GraphError, ShapeError, SteMode, Tensor, TgfConfig, backward

__version__ = "0.1.0"

_blas.use_one_thread()
_heap.keep_freed_pages()
