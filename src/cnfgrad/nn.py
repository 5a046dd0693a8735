"""Small dense networks, the Adam optimizer, and the training loop.

A net's parameters are views of one array and their gradients views of
another, so the optimizer steps them all with one pass of each Adam
operation. Everything is seeded and single-threaded: two runs with the
same config produce bit-identical parameter trajectories and metrics
files. The training loop is plain Python over numpy, and importing
``cnfgrad`` sets numpy's OpenBLAS to one thread (``cnfgrad.blas``), so
the matrix products do not run on a thread pool either.
"""

from __future__ import annotations

import json
import tokenize
import zipfile
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import tensor as T
from .closs import LossWeights
from .tensor import SteMode, Tensor

METRICS_COLUMNS = (
    "epoch",
    "loss_total",
    "loss_base",
    "loss_cnf",
    "loss_bound",
    "loss_sum",
    "loss_hint",
    "acc_test",
)

CHECKPOINT_VERSION = 1


class TrainingDiverged(RuntimeError):
    """A loss term went non-finite; training aborts rather than clamps."""


@dataclass
class TrainConfig:
    seed: int = 0
    batch_size: int = 16
    epochs: int = 5
    lr: float = 1e-3
    weights: LossWeights = field(default_factory=LossWeights)
    ste: SteMode = SteMode.ISTE
    metrics_path: str | None = None

    def __post_init__(self) -> None:
        for name, low in (("seed", 0), ("batch_size", 1), ("epochs", 1)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be at least {low}, got {getattr(self, name)}")
        if not 0 < self.lr < np.inf:
            raise ValueError(f"lr must be finite and positive, got {self.lr}")


def _pack(params: Sequence[Tensor]) -> tuple[np.ndarray, np.ndarray]:
    """The one data and one gradient buffer that ``params`` are views of, each parameter at the same offset in both.

    Parameters that ``_pack`` already laid out so keep their buffers. Others
    are copied in order into new ones (a missing gradient as zeros), and
    their ``data`` and ``grad`` rebound to views of them.
    """
    total = sum(p.size for p in params)
    data = grad = None
    if params and params[0].grad is not None:
        data, grad = params[0].data.base, params[0].grad.base
    laid_out = data is not None and grad is not None and data.size == grad.size == total
    if laid_out and all(p.data.base is data and p.grad is not None and p.grad.base is grad for p in params):
        return data, grad
    data, grad = np.empty(total), np.zeros(total)
    start = 0
    for p in params:
        end = start + p.size
        data[start:end] = p.data.ravel()
        if p.grad is not None:
            grad[start:end] = p.grad.ravel()
        p.data, p.grad = data[start:end].reshape(p.shape), grad[start:end].reshape(p.shape)
        start = end
    return data, grad


class Mlp:
    """Fully connected net with rectifier hiddens and a configurable head.

    ``forward`` returns both the head output and the raw pre-activation,
    in one graph, so the bound penalty can see the raw values. The weights
    and biases, in ``params`` order, are views of one array, and their
    gradients views of a second one.
    """

    def __init__(self, layer_dims: Sequence[int], head: str = "softmax", seed: int = 0):
        if len(layer_dims) < 2:
            raise ValueError("an MLP needs at least input and output dims")
        if head not in ("softmax", "sigmoid", "none"):
            raise ValueError(f"unknown head {head!r}")
        self.layer_dims = tuple(int(d) for d in layer_dims)
        self.head = head
        rng = np.random.default_rng(seed)
        self.weights: list[Tensor] = []
        self.biases: list[Tensor] = []
        for fan_in, fan_out in zip(self.layer_dims[:-1], self.layer_dims[1:]):
            lim = np.sqrt(6.0 / (fan_in + fan_out))
            self.weights.append(Tensor(rng.uniform(-lim, lim, size=(fan_in, fan_out)), requires_grad=True))
            self.biases.append(Tensor(np.zeros(fan_out), requires_grad=True))
        _pack(self.params())

    def params(self) -> list[Tensor]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend((w, b))
        return out

    def forward(self, batch) -> tuple[Tensor, Tensor]:
        x = T.as_tensor(batch)
        if x.shape[-1] != self.layer_dims[0]:
            raise T.ShapeError(f"mlp expects inputs of width {self.layer_dims[0]}, got shape {x.shape}")
        h = x
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = T.linear(h, w, b)
            if i != last:
                h = T.relu(h)
        raw = h
        if self.head == "softmax":
            out = T.softmax(raw)
        elif self.head == "sigmoid":
            out = T.sigmoid(raw)
        else:
            out = raw
        return out, raw

    def predict(self, batch: np.ndarray) -> np.ndarray:
        """Head output values, off the graph: ``forward``'s ops in its order, on plain arrays.

        No ``Tensor`` is built, and the values are bit-identical to ``forward``'s.
        Each layer works in the array its product made, so ``batch`` is never written.
        """
        h = np.asarray(batch, dtype=np.float64)
        if h.shape[-1] != self.layer_dims[0]:
            raise T.ShapeError(f"mlp expects inputs of width {self.layer_dims[0]}, got shape {h.shape}")
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = h @ w.data
            h += b.data
            if i != last:
                np.maximum(h, 0.0, out=h)
        if self.head == "softmax":
            return T.softmax_value(h)
        if self.head == "sigmoid":
            return T.sigmoid_value(h)
        return h


class Optimizer:
    """Adam over a fixed parameter list; it moves only via its bias-corrected moments.

    The parameters and their gradients are views of one buffer each (``_pack``), so a step
    runs each elementwise operation once over all of them. Once read, the gradient buffer
    serves the step as scratch, so it holds no gradient afterwards; ``zero_grad`` refills it
    with zeros in place.
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params: Sequence[Tensor], lr: float = 1e-3):
        self.params = list(params)
        self.lr = lr
        self.t = 0
        self.data, self.grad = _pack(self.params)
        self._views = [p.grad for p in self.params]
        self.m = np.zeros_like(self.data)
        self.v = np.zeros_like(self.data)
        # One scratch plane; the spent gradient buffer is the second, so a step allocates nothing.
        self._scratch = np.empty_like(self.data)

    def step(self) -> None:
        self.t += 1
        c1, c2 = 1.0 - self.beta1**self.t, 1.0 - self.beta2**self.t
        for p, view in zip(self.params, self._views):
            if p.grad is not view:  # assigned, not accumulated into the buffer
                view[...] = 0.0 if p.grad is None else p.grad
        # In place, in the operation order of m = b1*m + (1-b1)*g, v = b2*v + ((1-b2)*g)*g,
        # p -= (lr*(m/c1)) / (sqrt(v/c2) + eps): bit-identical to that formula.
        g, m, v, den = self.grad, self.m, self.v, self._scratch
        m *= self.beta1
        m += np.multiply(g, 1.0 - self.beta1, out=den)
        v *= self.beta2
        v += np.multiply(np.multiply(g, 1.0 - self.beta2, out=den), g, out=den)
        np.add(np.sqrt(np.divide(v, c2, out=den), out=den), self.eps, out=den)
        num = g  # the gradient is spent
        self.data -= np.divide(np.multiply(np.divide(m, c1, out=num), self.lr, out=num), den, out=num)

    def zero_grad(self) -> None:
        self.grad.fill(0.0)
        for p, view in zip(self.params, self._views):
            p.grad = view


def _batch_total(task, means: dict[str, Tensor], weights: LossWeights, batch_size: int) -> Tensor:
    """The base mean plus each weighted term, in ``LossWeights.terms`` order.

    The constraint weight is multiplied by the batch size on a task that
    sums that term (``cnf_batch_sum``). A nonzero weight on a term the task
    does not build is refused, rather than ignored.
    """
    total: Tensor | None = means.get("base")
    for name, weight, value in weights.terms():
        if value and name not in means:
            raise ValueError(f"task {task.name} builds no {name} term, so weight {weight}={value} has nothing to scale; set it to 0")
        if name == "cnf" and task.cnf_batch_sum:
            value *= batch_size
        if value:
            term = value * means[name]
            total = term if total is None else total + term
    return total if total is not None else T.constant(0.0)


def train_epoch(net: Mlp, optimizer: Optimizer, dataset, config: TrainConfig, epoch: int) -> dict[str, float]:
    """One pass over the shuffled training set, a batch per slice of the permutation; returns the metrics row.

    Batch loss: baseline mean plus alpha * summed constraint loss plus the
    weighted means of the bound/group-sum/hint terms. Reported columns are
    per-instance means; ``loss_total`` is the optimized batch objective.
    A non-finite term aborts immediately, naming the term and batch; so
    does a nonzero weight whose term the task does not build.
    """
    task = dataset.task
    order = np.random.default_rng([config.seed, 7919, epoch]).permutation(len(dataset.train))
    sums: dict[str, float] = {}
    total_sum = 0.0
    count = 0
    for batch_no, start in enumerate(range(0, len(order), config.batch_size)):
        batch = dataset.train[order[start : start + config.batch_size]]
        means = task.batch_loss(net, batch, config)
        total = _batch_total(task, means, config.weights, len(batch))
        for name, t in means.items():
            val = float(t.data)
            if not np.isfinite(val):
                raise TrainingDiverged(f"non-finite {name} loss in batch {batch_no} of epoch {epoch}")
            sums[name] = sums.get(name, 0.0) + val * len(batch)
        tval = float(total.data)
        if not np.isfinite(tval):
            raise TrainingDiverged(f"non-finite total loss in batch {batch_no} of epoch {epoch}")
        total_sum += tval * len(batch)
        count += len(batch)
        T.backward(total)
        optimizer.step()
        optimizer.zero_grad()

    row = {c: 0.0 for c in METRICS_COLUMNS}
    row["epoch"] = float(epoch)
    if count:
        row["loss_total"] = total_sum / count
        row.update((f"loss_{name}", value / count) for name, value in sums.items())
    row["acc_test"] = task.evaluate(net, dataset.test)
    return row


def run_training(dataset, config: TrainConfig, net: Mlp | None = None) -> tuple[Mlp, list[dict[str, float]]]:
    """Train a fresh (or given) net for the configured number of epochs.

    With ``config.metrics_path`` set, ``metrics.csv`` is rewritten after
    every epoch, so a run that stops early keeps the epochs it finished.
    """
    task = dataset.task
    if net is None:
        net = task.build_net(config.seed)
    optimizer = Optimizer(net.params(), lr=config.lr)
    rows: list[dict[str, float]] = []
    for epoch in range(1, config.epochs + 1):
        rows.append(train_epoch(net, optimizer, dataset, config, epoch))
        if config.metrics_path:
            write_metrics(config.metrics_path, rows)
    return net, rows


def predict_with_inference_trick(net: Mlp, boards: np.ndarray, task) -> np.ndarray:
    """Fill grids one cell at a time, always the single most confident.

    ``boards`` is one board or a (B, cells) stack. Each round runs the net
    once on the boards that still have empty cells; on each of them it
    fixes the empty cell whose best digit has the highest probability
    (lowest index wins ties), and it repeats until every board is complete.
    """
    q = np.array(boards, dtype=np.int64, copy=True)
    grid = q.reshape(-1, q.shape[-1])  # a view: filling it fills q
    while True:
        active = np.flatnonzero((grid == 0).any(axis=1))
        if active.size == 0:
            return q
        open_boards = grid[active]
        probs = task.cell_probs(net, open_boards)
        confidence = np.where(open_boards == 0, T.max_last(probs), -np.inf)
        cell = np.argmax(confidence, axis=1)
        grid[active, cell] = np.argmax(probs[np.arange(active.size), cell], axis=-1) + 1


# -- metrics and checkpoints ---------------------------------------------------

def format_metrics(rows: Sequence[dict[str, float]]) -> str:
    lines = [",".join(METRICS_COLUMNS)]
    for row in rows:
        cells = [str(int(row["epoch"]))]
        cells += [format(float(row[c]), ".12g") for c in METRICS_COLUMNS[1:]]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def write_metrics(path: str, rows: Sequence[dict[str, float]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_metrics(rows))


def save_checkpoint(path: str, net: Mlp, meta: dict | None = None) -> str:
    if not path.endswith(".npz"):
        path += ".npz"
    payload: dict[str, np.ndarray] = {
        "format_version": np.array(CHECKPOINT_VERSION),
        "layer_dims": np.array(net.layer_dims, dtype=np.int64),
        "head": np.array(net.head),
        "meta": np.array(json.dumps(meta or {})),
    }
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        payload[f"w{i}"] = w.data
        payload[f"b{i}"] = b.data
    np.savez(path, **payload)
    return path


def load_checkpoint(path: str) -> tuple[Mlp, dict]:
    """The net and metadata ``save_checkpoint`` wrote; a file it did not write raises ValueError naming ``path``."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
    try:
        # np.load would read anything else as a pickle and refuse it with advice about allow_pickle.
        if magic not in (b"PK\x03\x04", b"PK\x05\x06"):
            raise ValueError("it is not an .npz archive")
        with np.load(path, allow_pickle=False) as blob:
            version = int(blob["format_version"])
            if version != CHECKPOINT_VERSION:
                raise ValueError(f"format {version} not supported (expected {CHECKPOINT_VERSION})")
            dims = tuple(int(d) for d in blob["layer_dims"])
            net = Mlp(dims, head=str(blob["head"]), seed=0)
            for i in range(len(dims) - 1):
                net.weights[i].data[...] = blob[f"w{i}"]
                net.biases[i].data[...] = blob[f"b{i}"]
            meta = json.loads(str(blob["meta"]))
    # zipfile raises NotImplementedError for a damaged header's compression method or version, and
    # OSError for an offset it cannot seek to; numpy's header parser TokenError for a header dict cut short.
    except (ValueError, KeyError, EOFError, OSError, NotImplementedError, tokenize.TokenError, zipfile.BadZipFile) as exc:
        reason = exc.args[0] if isinstance(exc, (KeyError, tokenize.TokenError)) else exc
        raise ValueError(f"{path} is not a readable checkpoint: {reason}") from None
    return net, meta
