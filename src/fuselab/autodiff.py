"""Dense float64 tensors with reverse-mode automatic differentiation.

Every tensor produced by an op on a grad-tracked input keeps a backward
closure and references to its parents; ``backward()`` on a scalar replays
those closures in reverse topological order and accumulates gradients into
every reachable tensor that has ``requires_grad`` set. Leaves (parameters and
inputs) are never visited, only accumulated into. Gradients accumulate across
backward calls; callers zero them between optimizer steps.

Ops: add, sub, mul (broadcasting); tanh, leaky_relu; affine (``x @ W + b``
as one node); concat, reshape; sum, mean, mean_softplus. Layers with
a fused forward (the LSTM sequence, the decoder's attention readout) build
their own node with ``_make``.

Gradients are not copied: a ``.grad`` may be the very array a child's backward
handed over, shared with other tensors' grads, so grads are read-only. An
accumulation rebinds (``grad = grad + g``) instead of adding in place, and no
backward closure changes an array after handing it over.
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
        if self.requires_grad:
            # never in place: the grad may alias another tensor's
            self.grad = g if self.grad is None else self.grad + g

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
    out = Tensor(data)
    for p in parents:
        if p.requires_grad:
            out.requires_grad = True
            out._parents = parents
            out._backward = backward_fn
            break
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum gradient over axes that were broadcast in the forward pass."""
    if g.shape == shape:
        return g
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


def leaky_relu(x: Tensor, alpha: float = 0.2) -> Tensor:
    slope = np.where(x.data >= 0.0, 1.0, alpha)
    out_data = x.data * slope

    def bw(g):
        x._accumulate(g * slope)

    return _make(out_data, (x,), bw)


# -- linear algebra ----------------------------------------------------------

def affine(x: Tensor, W: Tensor, b: Tensor) -> Tensor:
    """x @ W + b as one node: x (n, d_in), W (d_in, d_out), b (d_out,)."""
    xd, wd = x.data, W.data
    if xd.ndim != 2 or wd.ndim != 2 or xd.shape[1] != wd.shape[0] \
            or b.data.shape != wd.shape[1:]:
        raise DimensionError(f"affine shape mismatch: {x.shape} x {W.shape} + {b.shape}")
    out_data = xd @ wd + b.data

    def bw(g):
        if x.requires_grad:
            x._accumulate(g @ wd.T)
        if W.requires_grad:
            W._accumulate(xd.T @ g)
        if b.requires_grad:
            b._accumulate(g.sum(axis=0))

    return _make(out_data, (x, W, b), bw)


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
    lead = (slice(None),) * (axis % len(ref))
    pieces, start = [], 0
    for t in tensors:
        pieces.append(lead + (slice(start, start + t.shape[axis]),))
        start += t.shape[axis]

    def bw(g):
        for t, piece in zip(tensors, pieces):
            t._accumulate(g[piece])

    return _make(out_data, tuple(tensors), bw)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    out_data = x.data.reshape(shape)

    def bw(g):
        x._accumulate(g.reshape(x.shape))

    return _make(out_data, (x,), bw)


# -- reductions --------------------------------------------------------------

def _check_axis(x: Tensor, axis):
    if axis is not None and not (-x.data.ndim <= axis < x.data.ndim):
        raise DimensionError(f"axis {axis} out of range for rank {x.data.ndim}")


def sum(x: Tensor, axis: int | None = None) -> Tensor:  # noqa: A001 - mirrors np.sum
    _check_axis(x, axis)
    out_data = x.data.sum(axis=axis)

    def bw(g):
        full = np.empty(x.shape)
        full[...] = g if axis is None else np.expand_dims(g, axis)
        x._accumulate(full)

    return _make(out_data, (x,), bw)


def mean_softplus(x: Tensor, sign: float = 1.0) -> Tensor:
    """mean log(1 + e^(sign x)) over every entry, exact at any x: the GAN
    loss term -log sigmoid(-sign x), with no floor. sign is 1 or -1; its
    derivative is sign sigmoid(sign x) / n."""
    if sign not in (1.0, -1.0):
        raise ValueError(f"mean_softplus sign must be 1 or -1, got {sign}")
    n = x.data.size
    sx = x.data if sign == 1.0 else -x.data
    out_data = np.logaddexp(0.0, sx).sum() / n

    def bw(g):
        gx = g * _sigmoid(sx) / n
        x._accumulate(gx if sign == 1.0 else -gx)

    return _make(out_data, (x,), bw)


def mean(x: Tensor, axis: int | None = None) -> Tensor:
    _check_axis(x, axis)
    n = x.data.size if axis is None else x.shape[axis]
    out_data = x.data.sum(axis=axis) / n    # np.mean's own sum, then divide

    def bw(g):
        full = np.empty(x.shape)
        full[...] = (g if axis is None else np.expand_dims(g, axis)) / n
        x._accumulate(full)

    return _make(out_data, (x,), bw)


# -- backward driver ---------------------------------------------------------

def backward(loss: Tensor) -> None:
    """Propagate d(loss)/d(tensor) into every reachable requires_grad tensor.

    The loss must be scalar. Only nodes with a backward closure are visited:
    a leaf is accumulated into, never visited. A graph can be consumed only
    once; a backward that reaches a node an earlier call consumed raises
    before any closure runs, as replaying it would count its old gradient
    again.
    """
    if loss.data.size != 1:
        raise AutodiffError(f"backward requires a scalar loss, got shape {loss.shape}")

    topo: list[Tensor] = []
    visited: set[Tensor] = set()
    stack = [(loss, False)] if loss._backward is not None else []
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if node in visited:
            continue
        if node._consumed:
            raise AutodiffError("backward reached a node consumed by an earlier backward call")
        visited.add(node)
        stack.append((node, True))
        for p in node._parents:
            if p._backward is not None and p not in visited:
                stack.append((p, False))

    loss._accumulate(np.ones_like(loss.data))
    for node in reversed(topo):
        node._backward(node.grad if node.grad is not None else np.zeros_like(node.data))
        node._consumed = True
