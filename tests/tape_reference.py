"""The reverse pass as it was before interior nodes took their first gradient as it came.

Every interior node was given a zero-filled buffer before any backward
closure ran, and every contribution was added to it. ``tensor._acc`` adds
into such a buffer out of place, which gives the same values. The tests
hold ``tensor.backward`` to this pass byte for byte on the leaves.
"""

import numpy as np

import cnfgrad.tensor as T


def backward(loss: T.Tensor) -> None:
    """``tensor.backward`` with a zero-filled gradient buffer on every interior node."""
    if loss.shape != ():
        raise T.ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
    seen: dict[int, T.Tensor] = {}
    stack = [loss]
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen[id(t)] = t
        if t.op != "leaf" and t._spent:
            raise T.GraphError("graph already consumed by a previous backward() call")
        stack.extend(t._parents)

    nodes = sorted(seen.values(), key=lambda t: t._id, reverse=True)
    for t in nodes:
        if t.op != "leaf":
            t.grad = np.zeros_like(t.data)
            t._spent = True
        elif t.requires_grad and t.grad is None:
            t.grad = np.zeros_like(t.data)
    loss.grad = np.ones_like(loss.data)
    for t in nodes:
        if t._backward is not None:
            t._backward(t.grad)
