"""Dense float64 tensors with a reverse-mode gradient tape.

The op set is deliberately small: elementwise arithmetic under numpy
broadcasting (gradients are summed back over the broadcast axes), matrix
products of 2-D operands (``linear`` adds a bias in the same node),
reshape and last-axis concatenation, last-axis reductions that squeeze
the reduced axis, the usual activations, and the threshold nodes whose
backward pass substitutes a straight-through surrogate (identity or
saturated) or the analytic sawtooth-gate gradient.

Gradients accumulate in the reverse of node-creation order, which is a
topological order by construction, so repeated runs are bit-identical.
An interior node takes its first gradient contribution as its ``grad``
and adds later ones into a new array; only leaves that require a
gradient own a buffer that contributions are added into. ``backward``
zero-fills one for a leaf that has none; an ``Mlp`` hands its parameters
views of its gradient array, which the optimizer refills in place.
Indicator outputs are constants: no gradient ever flows through them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operands have incompatible shapes for the requested op."""


class GraphError(RuntimeError):
    """The gradient graph was used in an unsupported way."""


class SteMode(Enum):
    """Surrogate used in the backward pass of a hard threshold.

    ISTE passes the upstream gradient unchanged; SSTE multiplies it by the
    box mask of [-1, 1].
    """

    ISTE = "i"
    SSTE = "s"

    @classmethod
    def parse(cls, text: str) -> "SteMode":
        for mode in cls:
            if text in (mode.value, mode.name.lower(), mode.name):
                return mode
        raise ValueError(f"unknown STE mode {text!r} (use 'i' or 's')")


@dataclass(frozen=True)
class TgfConfig:
    """Sawtooth gate: b(x) + s_K(x) * g(x) with s_K(x) = (Kx - floor(Kx)) / K.

    g_mode 'one' makes the analytic gradient 1 everywhere (identity
    surrogate); 'box' makes it the indicator of [-1, 1] (saturated
    surrogate). At grid points (Kx integral) the right-limit derivative 1
    is used so the gradient is total.
    """

    k: float
    g_mode: str = "one"

    def __post_init__(self) -> None:
        if not self.k > 0:
            raise ValueError(f"tgf scale must be positive, got {self.k}")
        if self.g_mode not in ("one", "box"):
            raise ValueError(f"tgf g_mode must be 'one' or 'box', got {self.g_mode!r}")


_ids = itertools.count()


class Tensor:
    """A dense float64 array plus an optional backward record.

    Leaves carry data only; interior nodes remember their parents and a
    closure that routes the output gradient to them. ``requires_grad``
    marks leaves whose gradient should be retained (model parameters).
    """

    __slots__ = ("data", "grad", "requires_grad", "op", "_parents", "_backward", "_id", "_spent")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        parents: Sequence["Tensor"] = (),
        op: str = "leaf",
    ):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.op = op
        self._parents = tuple(parents)
        self._backward = None
        self._id = next(_ids)
        self._spent = False

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(op={self.op!r}, shape={self.shape}, data={self.data!r})"

    # -- operator sugar (scalars allowed on either side) --

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)


def as_tensor(value) -> Tensor:
    """Wrap scalars/arrays as constant leaves; pass tensors through."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def constant(value) -> Tensor:
    """A constant leaf (copy of the input, no gradient)."""
    return Tensor(np.array(value, dtype=np.float64))


# ``grad`` of an interior node during ``backward`` until its first contribution arrives.
_PENDING = object()


def _acc(t: Tensor, g: np.ndarray) -> None:
    # Constants have no grad; skip them. Ops whose operands are often
    # constants test ``grad`` themselves before they compute the operand's
    # gradient at all. An interior node keeps its first contribution as it
    # is and never adds in place: ``add`` hands one ``g`` to both operands,
    # and ``reshape`` and ``concat`` hand out views of theirs.
    if t.grad is None:
        return
    if t.grad is _PENDING:
        t.grad = g
    elif t.op == "leaf":
        t.grad += g
    else:
        t.grad = t.grad + g


# -- elementwise arithmetic -------------------------------------------------

def _broadcast(op: str, fn: np.ufunc, a: Tensor, b: Tensor) -> np.ndarray:
    """``fn`` on the data of ``a`` and ``b`` under numpy broadcasting."""
    try:
        return fn(a.data, b.data)
    except ValueError:
        raise ShapeError(f"{op}: incompatible shapes {a.shape} and {b.shape}") from None


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``g`` over the axes along which an operand of ``shape`` was broadcast."""
    if g.shape == shape:
        return g
    lead = g.ndim - len(shape)
    axes = tuple(range(lead)) + tuple(lead + i for i, s in enumerate(shape) if s == 1 and g.shape[lead + i] != 1)
    return g.sum(axis=axes).reshape(shape)


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(_broadcast("add", np.add, a, b), parents=(a, b), op="add")

    def back(g: np.ndarray) -> None:
        if a.grad is not None:
            _acc(a, _unbroadcast(g, a.shape))
        if b.grad is not None:
            _acc(b, _unbroadcast(g, b.shape))

    out._backward = back
    return out


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(_broadcast("sub", np.subtract, a, b), parents=(a, b), op="sub")

    def back(g: np.ndarray) -> None:
        if a.grad is not None:
            _acc(a, _unbroadcast(g, a.shape))
        if b.grad is not None:
            _acc(b, _unbroadcast(-g, b.shape))

    out._backward = back
    return out


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(_broadcast("mul", np.multiply, a, b), parents=(a, b), op="mul")

    def back(g: np.ndarray) -> None:
        if a.grad is not None:
            _acc(a, _unbroadcast(g * b.data, a.shape))
        if b.grad is not None:
            _acc(b, _unbroadcast(g * a.data, b.shape))

    out._backward = back
    return out


def square(x) -> Tensor:
    x = as_tensor(x)
    out = Tensor(x.data * x.data, parents=(x,), op="square")

    def back(g: np.ndarray) -> None:
        _acc(x, 2.0 * x.data * g)

    out._backward = back
    return out


# -- matrix products --------------------------------------------------------

def matmul(a, b) -> Tensor:
    """The product of a (rows, k) ``a`` and a (k, cols) ``b``; a 1-D operand is refused."""
    a, b = as_tensor(a), as_tensor(b)
    if len(a.shape) != 2 or len(b.shape) != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    out = Tensor(a.data @ b.data, parents=(a, b), op="matmul")

    def back(g: np.ndarray) -> None:
        if a.grad is not None:
            _acc(a, g @ b.data.T)
        if b.grad is not None:
            _acc(b, a.data.T @ g)

    out._backward = back
    return out


def linear(x, w, b) -> Tensor:
    """``matmul(x, w) + b`` as one node, for a (rows, k) ``x``, a (k, width) ``w`` and a (width,) ``b``.

    Its values and gradients are those of the two nodes, each computed as
    they compute it: the bias gradient first, then the input's, then the weights'.
    """
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    sx, sw = x.shape, w.shape
    if len(sx) != 2 or len(sw) != 2 or sx[1] != sw[0] or b.shape != sw[1:]:
        raise ShapeError(f"linear: incompatible shapes {sx}, {sw} and {b.shape}")
    data = x.data @ w.data
    data += b.data
    out = Tensor(data, parents=(x, w, b), op="linear")

    def back(g: np.ndarray) -> None:
        if b.grad is not None:
            _acc(b, _unbroadcast(g, b.shape))
        if x.grad is not None:
            _acc(x, g @ w.data.T)
        if w.grad is not None:
            _acc(w, x.data.T @ g)

    out._backward = back
    return out


# -- shape plumbing ---------------------------------------------------------

def reshape(x, shape: Sequence[int]) -> Tensor:
    x = as_tensor(x)
    shape = tuple(int(s) for s in shape)
    if math.prod(shape) != x.size:
        raise ShapeError(f"reshape: cannot view {x.shape} as {shape}")
    out = Tensor(x.data.reshape(shape), parents=(x,), op="reshape")

    def back(g: np.ndarray) -> None:
        _acc(x, g.reshape(x.shape))

    out._backward = back
    return out


def concat(parts: Iterable) -> Tensor:
    """Join tensors along the last axis; their leading axes must agree."""
    parts = [as_tensor(p) for p in parts]
    for p in parts:
        if p.shape == () or p.shape[:-1] != parts[0].shape[:-1]:
            raise ShapeError(f"concat: cannot join shapes {[q.shape for q in parts]} along the last axis")
    out = Tensor(np.concatenate([p.data for p in parts], axis=-1) if parts else np.zeros(0), parents=tuple(parts), op="concat")
    offsets = np.cumsum([0] + [p.shape[-1] for p in parts])

    def back(g: np.ndarray) -> None:
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if p.grad is not None:
                _acc(p, g[..., lo:hi])

    out._backward = back
    return out


# -- activations ------------------------------------------------------------

def relu(x) -> Tensor:
    x = as_tensor(x)
    out = Tensor(np.maximum(x.data, 0.0), parents=(x,), op="relu")

    def back(g: np.ndarray) -> None:
        _acc(x, g * (x.data > 0.0))

    out._backward = back
    return out


def clip(x, lo: float, hi: float) -> Tensor:
    """Clamp to [lo, hi]; gradient is the closed-interval box mask."""
    x = as_tensor(x)
    out = Tensor(np.clip(x.data, lo, hi), parents=(x,), op="clip")
    mask = (x.data >= lo) & (x.data <= hi)

    def back(g: np.ndarray) -> None:
        _acc(x, g * mask)

    out._backward = back
    return out


def sigmoid_value(d: np.ndarray) -> np.ndarray:
    """The logistic function on a plain array, in the form that never overflows ``exp``."""
    e = np.exp(-np.abs(d))
    return np.where(d >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid(x) -> Tensor:
    x = as_tensor(x)
    val = sigmoid_value(x.data)
    out = Tensor(val, parents=(x,), op="sigmoid")

    def back(g: np.ndarray) -> None:
        _acc(x, g * val * (1.0 - val))

    out._backward = back
    return out


def max_last(a: np.ndarray) -> np.ndarray:
    """``a.max(axis=-1)`` of a plain array.

    numpy reduces a short last axis row by row, at about 50 ns a row, so
    past 128 rows of at most 16 columns one elementwise maximum per column
    is faster (13 -> 3 us at 256 x 4). A maximum is exact: both give the same values.
    """
    width = a.shape[-1]
    if not 1 <= width <= 16 or a.size < 128 * width:
        return a.max(axis=-1)
    out = a[..., 0].copy()
    for i in range(1, width):
        np.maximum(out, a[..., i], out=out)
    return out


def softmax_value(z: np.ndarray) -> np.ndarray:
    """Softmax over the last axis of a plain array, shifted by the slice maximum; one new array."""
    e = z - max_last(z)[..., None]
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def softmax(x) -> Tensor:
    """Softmax over the last axis; each slice along it sums to 1."""
    x = as_tensor(x)
    if x.shape == ():
        raise ShapeError("softmax: scalar input")
    val = softmax_value(x.data)
    out = Tensor(val, parents=(x,), op="softmax")

    def back(g: np.ndarray) -> None:
        inner = (g * val).sum(axis=-1, keepdims=True)
        _acc(x, val * (g - inner))

    out._backward = back
    return out


def log(x) -> Tensor:
    x = as_tensor(x)
    if np.any(x.data <= 0.0):
        raise ValueError("log: input must be strictly positive")
    out = Tensor(np.log(x.data), parents=(x,), op="log")

    def back(g: np.ndarray) -> None:
        _acc(x, g / x.data)

    out._backward = back
    return out


def cross_entropy(logits, onehot: np.ndarray) -> Tensor:
    """Mean softmax cross-entropy between (rows, classes) logits and one-hot target rows."""
    logits = as_tensor(logits)
    target = np.asarray(onehot, dtype=np.float64)
    if logits.shape != target.shape or len(logits.shape) != 2:
        raise ShapeError(f"cross_entropy: shapes {logits.shape} and {target.shape}")
    if not (np.all((target == 0.0) | (target == 1.0)) and np.all(target.sum(axis=-1) == 1.0)):
        raise ValueError("cross_entropy: target rows must be one-hot")
    rows = target.shape[0]
    z = logits.data
    zmax = z.max(axis=-1, keepdims=True)
    sm = np.exp(z - zmax)
    norm = sm.sum(axis=-1, keepdims=True)
    lse = zmax[:, 0] + np.log(norm[:, 0])
    picked = (z * target).sum(axis=-1)
    out = Tensor((lse - picked).mean(), parents=(logits,), op="cross_entropy")
    sm /= norm

    def back(g: np.ndarray) -> None:
        _acc(logits, g * (sm - target) / rows)

    out._backward = back
    return out


# -- last-axis reductions (the reduced axis is squeezed) ---------------------

def _check_reducible(x: Tensor, op: str) -> None:
    if x.shape == ():
        raise ShapeError(f"{op}: scalar input has no axis to reduce")


def sum_last(x) -> Tensor:
    x = as_tensor(x)
    _check_reducible(x, "sum_last")
    out = Tensor(x.data.sum(axis=-1), parents=(x,), op="sum_last")

    def back(g: np.ndarray) -> None:
        spread = np.empty(x.shape)
        spread[...] = g[..., None]
        _acc(x, spread)

    out._backward = back
    return out


def avg_last(x) -> Tensor:
    """Mean over the last axis; an empty axis averages to 0.

    Computed as sum/n (not sum * (1/n)) so values like k/m are exact.
    """
    x = as_tensor(x)
    _check_reducible(x, "avg_last")
    n = x.shape[-1]
    val = x.data.sum(axis=-1) / n if n else x.data.sum(axis=-1)
    out = Tensor(val, parents=(x,), op="avg_last")

    def back(g: np.ndarray) -> None:
        if n:
            spread = np.empty(x.shape)
            spread[...] = (g / n)[..., None]
            _acc(x, spread)

    out._backward = back
    return out


def prod_last(x) -> Tensor:
    x = as_tensor(x)
    _check_reducible(x, "prod_last")
    out = Tensor(x.data.prod(axis=-1), parents=(x,), op="prod_last")
    # Exclusive left/right cumulative products: exact even with zero factors.
    d = x.data
    left = np.ones_like(d)
    right = np.ones_like(d)
    if d.shape[-1] > 1:
        left[..., 1:] = np.cumprod(d[..., :-1], axis=-1)
        right[..., :-1] = np.cumprod(d[..., :0:-1], axis=-1)[..., ::-1]
    partial = left * right

    def back(g: np.ndarray) -> None:
        _acc(x, np.expand_dims(g, -1) * partial)

    out._backward = back
    return out


# -- threshold nodes ---------------------------------------------------------

def indicator(x, k: float) -> Tensor:
    """1 where x equals k, else 0; a constant in the gradient graph."""
    x = as_tensor(x)
    return Tensor((x.data == k).astype(np.float64))


#: The threshold of each binarizer: 'b' on reals at 0, 'bp' on probabilities at 0.5.
THRESHOLDS = {"b": 0.0, "bp": 0.5}


def binarize_bits(x: np.ndarray, fn: str) -> np.ndarray:
    """The bool bits of a plain array under binarizer ``fn``: ties go to 1, and a 'bp' input must lie in [0, 1]."""
    if fn not in THRESHOLDS:
        raise ValueError(f"binarize: unknown fn {fn!r} (use 'b' or 'bp')")
    if fn == "bp" and np.any((x < 0.0) | (x > 1.0)):
        raise ValueError("binarize: 'bp' input must lie in [0, 1]")
    return x >= THRESHOLDS[fn]


def surrogate_mask(x: np.ndarray, ste: SteMode) -> np.ndarray | None:
    """The box [-1, 1] of a plain array, where SSTE passes gradient; None under ISTE, which passes it everywhere."""
    return (x >= -1.0) & (x <= 1.0) if ste is SteMode.SSTE else None


def binarize(x, fn: str, ste: SteMode = SteMode.ISTE) -> Tensor:
    """Hard threshold at ``THRESHOLDS[fn]`` (``binarize_bits``).

    The backward pass applies the STE surrogate (``surrogate_mask``); for
    'bp' inputs (already inside [-1, 1]) both surrogates coincide.
    """
    x = as_tensor(x)
    out = Tensor(binarize_bits(x.data, fn).astype(np.float64), parents=(x,), op=f"binarize_{fn}")
    mask = surrogate_mask(x.data, ste)

    def back(g: np.ndarray) -> None:
        _acc(x, g if mask is None else g * mask)

    out._backward = back
    return out


def tgf(x, cfg: TgfConfig) -> Tensor:
    """Sawtooth-perturbed step; analytic gradient equals the STE surrogate."""
    x = as_tensor(x)
    k = cfg.k
    saw = (k * x.data - np.floor(k * x.data)) / k
    gvals = np.ones_like(x.data) if cfg.g_mode == "one" else surrogate_mask(x.data, SteMode.SSTE).astype(np.float64)
    out = Tensor(binarize_bits(x.data, "b").astype(np.float64) + saw * gvals, parents=(x,), op="tgf")

    def back(g: np.ndarray) -> None:
        _acc(x, g * gvals)

    out._backward = back
    return out


# -- reverse pass ------------------------------------------------------------

def backward(loss: Tensor) -> None:
    """Run the reverse pass from a scalar loss.

    Populates ``grad`` on every reachable tensor that wants one. Interior
    nodes are single-use: a second backward through them raises.
    """
    if not isinstance(loss, Tensor):
        raise TypeError("backward expects a Tensor")
    if loss.shape != ():
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")

    seen: dict[int, Tensor] = {}
    stack = [loss]
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen[id(t)] = t
        if t.op != "leaf" and t._spent:
            raise GraphError("graph already consumed by a previous backward() call")
        stack.extend(t._parents)

    nodes = sorted(seen.values(), key=lambda t: t._id, reverse=True)
    for t in nodes:
        if t.op != "leaf":
            t.grad = _PENDING
            t._spent = True
        elif t.requires_grad and t.grad is None:
            t.grad = np.zeros_like(t.data)
    loss.grad = np.ones_like(loss.data)
    for t in nodes:
        if t.grad is _PENDING:  # no consumer passed it a gradient
            t.grad = np.zeros_like(t.data)
        if t._backward is not None:
            t._backward(t.grad)
