"""Dense float64 tensors with reverse-mode automatic differentiation.

Every tensor produced by an op keeps a backward closure and references to its
parents; ``backward()`` on a scalar replays the graph in reverse topological
order and accumulates gradients into every reachable tensor that has
``requires_grad`` set. Gradients accumulate across backward calls; callers
zero them between optimizer steps.
"""

from __future__ import annotations

import numpy as np


class AutodiffError(Exception):
    """Base error for graph construction and execution problems."""


class DimensionError(AutodiffError):
    """Shapes of the operands are incompatible."""


class Tensor:
    """n-d float64 array, optionally tracked by the differentiation graph."""

    __slots__ = ("data", "requires_grad", "grad", "_backward", "_parents", "_consumed")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._backward = None
        self._parents: tuple[Tensor, ...] = ()
        self._consumed = False

    # -- basic introspection -------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    # -- gradient plumbing ---------------------------------------------------
    def _accumulate(self, g: np.ndarray) -> None:
        if not self.requires_grad:
            return
        if self.grad is None:
            # a copy: g may be a view of another node's gradient
            self.grad = np.array(g, dtype=np.float64)
        else:
            self.grad += g

    def zero_grad(self) -> None:
        self.grad = None

    def detach(self) -> "Tensor":
        """Same data, cut off from the graph."""
        return Tensor(self.data, requires_grad=False)

    def backward(self) -> None:
        backward(self)

    # -- operator sugar ------------------------------------------------------
    def __add__(self, other):
        return add(self, _lift(other))

    def __sub__(self, other):
        return sub(self, _lift(other))

    def __mul__(self, other):
        return mul(self, _lift(other))

    def __neg__(self):
        return mul(self, Tensor(-1.0))


def _lift(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data: np.ndarray, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    out = Tensor(data, requires_grad=any(p.requires_grad for p in parents))
    if out.requires_grad:
        out._parents = parents
        out._backward = backward_fn
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum gradient over axes that were broadcast in the forward pass."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g.reshape(shape)


def _broadcast(op, a: Tensor, b: Tensor) -> np.ndarray:
    """op(a.data, b.data), with numpy's broadcast failure as a DimensionError."""
    try:
        return op(a.data, b.data)
    except ValueError:
        raise DimensionError(f"shapes {a.shape} and {b.shape} do not broadcast") from None


# -- elementwise binary ops --------------------------------------------------
# Each backward skips an operand that does not require grad before doing its
# math, e.g. a detached input or a frozen parameter.

def add(a: Tensor, b: Tensor) -> Tensor:
    out_data = _broadcast(np.add, a, b)

    def bw(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.shape))

    return _make(out_data, (a, b), bw)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out_data = _broadcast(np.subtract, a, b)

    def bw(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accumulate(-_unbroadcast(g, b.shape))

    return _make(out_data, (a, b), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out_data = _broadcast(np.multiply, a, b)

    def bw(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.shape))

    return _make(out_data, (a, b), bw)


# -- elementwise unary ops ---------------------------------------------------

def tanh(x: Tensor) -> Tensor:
    out_data = np.tanh(x.data)

    def bw(g):
        x._accumulate(g * (1.0 - out_data * out_data))

    return _make(out_data, (x,), bw)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + e) for x >= 0 and e / (1 + e) below, with e = exp(-|x|) <= 1.
    The numerator max(e, [x >= 0]) picks between 1 and e without a branch,
    which a select on random signs would mispredict."""
    e = np.exp(-np.abs(x))
    return np.maximum(e, x >= 0.0) / (1.0 + e)


def sigmoid(x: Tensor) -> Tensor:
    out_data = _sigmoid(x.data)

    def bw(g):
        x._accumulate(g * out_data * (1.0 - out_data))

    return _make(out_data, (x,), bw)


def leaky_relu(x: Tensor, alpha: float = 0.2) -> Tensor:
    slope = np.where(x.data >= 0.0, 1.0, alpha)
    out_data = x.data * slope

    def bw(g):
        x._accumulate(g * slope)

    return _make(out_data, (x,), bw)


def square(x: Tensor) -> Tensor:
    out_data = x.data * x.data

    def bw(g):
        x._accumulate(2.0 * g * x.data)

    return _make(out_data, (x,), bw)


# -- linear algebra ----------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul shape mismatch: {a.shape} x {b.shape}")
    out_data = a.data @ b.data

    def bw(g):
        if a.requires_grad:
            a._accumulate(g @ b.data.T)
        if b.requires_grad:
            b._accumulate(a.data.T @ g)

    return _make(out_data, (a, b), bw)


def bmm(a: Tensor, b: Tensor) -> Tensor:
    """Batched matmul: (B,m,k) @ (B,k,n) -> (B,m,n)."""
    if a.data.ndim != 3 or b.data.ndim != 3 or a.shape[0] != b.shape[0] or a.shape[2] != b.shape[1]:
        raise DimensionError(f"bmm shape mismatch: {a.shape} x {b.shape}")
    out_data = a.data @ b.data

    def bw(g):
        if a.requires_grad:
            a._accumulate(g @ np.transpose(b.data, (0, 2, 1)))
        if b.requires_grad:
            b._accumulate(np.transpose(a.data, (0, 2, 1)) @ g)

    return _make(out_data, (a, b), bw)


# -- structural ops ----------------------------------------------------------

def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    if not tensors:
        raise DimensionError("concat of an empty list")
    ref = tensors[0].shape
    for t in tensors[1:]:
        if len(t.shape) != len(ref) or any(
            s != r for i, (s, r) in enumerate(zip(t.shape, ref)) if i != axis % len(ref)
        ):
            raise DimensionError(f"concat shape mismatch: {[t.shape for t in tensors]}")
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    bounds = np.cumsum(sizes)[:-1]

    def bw(g):
        for t, piece in zip(tensors, np.split(g, bounds, axis=axis)):
            t._accumulate(piece)

    return _make(out_data, tuple(tensors), bw)


def narrow(x: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice of `length` entries along `axis`."""
    if axis >= x.data.ndim or start + length > x.shape[axis]:
        raise DimensionError(f"narrow({axis},{start},{length}) out of range for {x.shape}")
    idx = [slice(None)] * x.data.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)
    out_data = x.data[idx]

    def bw(g):
        full = np.zeros_like(x.data)
        full[idx] = g
        x._accumulate(full)

    return _make(out_data, (x,), bw)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    out_data = x.data.reshape(shape)

    def bw(g):
        x._accumulate(g.reshape(x.shape))

    return _make(out_data, (x,), bw)


def transpose(x: Tensor, axes: tuple[int, ...]) -> Tensor:
    out_data = np.transpose(x.data, axes)
    inv = np.argsort(axes)

    def bw(g):
        x._accumulate(np.transpose(g, inv))

    return _make(out_data, (x,), bw)


# -- reductions --------------------------------------------------------------

def _check_axis(x: Tensor, axis):
    if axis is not None and not (-x.data.ndim <= axis < x.data.ndim):
        raise DimensionError(f"axis {axis} out of range for rank {x.data.ndim}")


def sum(x: Tensor, axis: int | None = None) -> Tensor:  # noqa: A001 - mirrors np.sum
    _check_axis(x, axis)
    out_data = x.data.sum(axis=axis)

    def bw(g):
        if axis is None:
            x._accumulate(np.broadcast_to(g, x.shape).copy())
        else:
            x._accumulate(np.broadcast_to(np.expand_dims(g, axis), x.shape).copy())

    return _make(out_data, (x,), bw)


def mean(x: Tensor, axis: int | None = None) -> Tensor:
    _check_axis(x, axis)
    out_data = x.data.mean(axis=axis)
    n = x.data.size if axis is None else x.shape[axis]

    def bw(g):
        if axis is None:
            x._accumulate(np.broadcast_to(g / n, x.shape).copy())
        else:
            x._accumulate(np.broadcast_to(np.expand_dims(g, axis) / n, x.shape).copy())

    return _make(out_data, (x,), bw)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along one axis."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def bw(g):
        dot = (g * out_data).sum(axis=axis, keepdims=True)
        x._accumulate(out_data * (g - dot))

    return _make(out_data, (x,), bw)


# -- backward driver ---------------------------------------------------------

def backward(loss: Tensor) -> None:
    """Propagate d(loss)/d(tensor) into every reachable requires_grad tensor.

    The loss must be scalar. A graph can be consumed only once; building a
    fresh forward pass is required between backward calls over shared nodes.
    """
    if loss.data.size != 1:
        raise AutodiffError(f"backward requires a scalar loss, got shape {loss.shape}")
    if loss._consumed:
        raise AutodiffError("backward called twice on a consumed graph")

    topo: list[Tensor] = []
    visited: set[int] = set()
    stack = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited and p.requires_grad:
                stack.append((p, False))

    loss._accumulate(np.ones_like(loss.data))
    for node in reversed(topo):
        if node._backward is not None:
            node._backward(node.grad if node is loss or node.grad is not None
                           else np.zeros_like(node.data))
        node._consumed = True
