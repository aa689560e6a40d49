"""Trainable layers and the Adam optimizer built on the autodiff tensors."""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import DimensionError, Tensor


class Module:
    """Minimal container: named parameters, named buffers, child modules."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}
        self._buffers: dict[str, np.ndarray] = {}
        self._children: dict[str, "Module"] = {}

    def add_param(self, name: str, data: np.ndarray) -> Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter name {name!r}")
        t = Tensor(data, requires_grad=True)
        self._params[name] = t
        return t

    def add_buffer(self, name: str, data: np.ndarray) -> np.ndarray:
        self._buffers[name] = np.asarray(data, dtype=np.float64)
        return self._buffers[name]

    def add_child(self, name: str, child: "Module") -> "Module":
        self._children[name] = child
        return child

    def parameters(self, prefix: str = "") -> dict[str, Tensor]:
        """Dotted-path name -> tensor, over this module and all children."""
        out = {prefix + n: t for n, t in self._params.items()}
        for cname, child in self._children.items():
            out.update(child.parameters(prefix + cname + "."))
        return out

    def buffers(self, prefix: str = "") -> dict[str, np.ndarray]:
        out = {prefix + n: b for n, b in self._buffers.items()}
        for cname, child in self._children.items():
            out.update(child.buffers(prefix + cname + "."))
        return out

    def zero_grads(self) -> None:
        for t in self.parameters().values():
            t.zero_grad()


class Affine(Module):
    """x @ W + b with W ~ U(-1/sqrt(fan_in), 1/sqrt(fan_in)), b = 0."""

    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator):
        super().__init__()
        bound = 1.0 / np.sqrt(d_in)
        self.W = self.add_param("W", rng.uniform(-bound, bound, size=(d_in, d_out)))
        self.b = self.add_param("b", np.zeros(d_out))

    def __call__(self, x: Tensor) -> Tensor:
        return ad.affine(x, self.W, self.b)


class MLP(Module):
    """affine -> LeakyReLU(0.2) -> affine: GAN-Fusion's generator and
    discriminator, and the classifier head."""

    def __init__(self, d_in: int, hidden: int, d_out: int, rng: np.random.Generator):
        super().__init__()
        self.fc1 = self.add_child("fc1", Affine(d_in, hidden, rng))
        self.fc2 = self.add_child("fc2", Affine(hidden, d_out, rng))

    def __call__(self, x: Tensor, frozen: bool = False) -> Tensor:
        """The whole network as one graph node, whose backward runs the chain
        rule of fc2, the slope and fc1 in that order. With frozen=True x is
        its only parent, so backward reaches x (and whatever produced it) but
        never this network's parameters."""
        W1, b1, W2, b2 = self.fc1.W, self.fc1.b, self.fc2.W, self.fc2.b
        xd, w1, w2 = x.data, W1.data, W2.data
        if xd.ndim != 2 or xd.shape[1] != w1.shape[0]:
            raise DimensionError(f"MLP expects (n, {w1.shape[0]}) inputs, got {x.shape}")
        pre = xd @ w1 + b1.data
        slope = np.where(pre >= 0.0, 1.0, 0.2)
        h = pre * slope
        out = h @ w2 + b2.data

        def bw(g):
            g_pre = (g @ w2.T) * slope
            if not frozen:
                W2._accumulate(h.T @ g)
                b2._accumulate(g.sum(axis=0))
                W1._accumulate(xd.T @ g_pre)
                b1._accumulate(g_pre.sum(axis=0))
            if x.requires_grad:
                x._accumulate(g_pre @ w1.T)

        return ad._make(out, (x,) if frozen else (x, W1, b1, W2, b2), bw)


class Embedding(Module):
    """Token-id lookup table; backward scatter-adds into the table."""

    def __init__(self, vocab_size: int, dim: int, rng: np.random.Generator):
        super().__init__()
        self.vocab_size = vocab_size
        self.table = self.add_param("table", rng.normal(0.0, 0.1, size=(vocab_size, dim)))

    def __call__(self, ids: np.ndarray) -> Tensor:
        ids = np.asarray(ids, dtype=np.int64)
        if ids.min(initial=0) < 0 or ids.max(initial=0) >= self.vocab_size:
            raise IndexError(f"token id out of vocabulary (size {self.vocab_size})")
        table = self.table
        out_data = table.data[ids]

        def bw(g):
            full = np.zeros_like(table.data)
            np.add.at(full, ids.reshape(-1), g.reshape(-1, table.data.shape[1]))
            table._accumulate(full)

        return ad._make(out_data, (table,), bw)


class LSTMCell(Module):
    """LSTM recurrence. Gate order i, f, o, g; forget-gate bias starts at 1.
    Every path is gate-major: the gates of n rows are one (4, n, h) array, a
    contiguous block per gate, and h and c are separate (n, h) arrays."""

    def __init__(self, d_in: int, d_hidden: int, rng: np.random.Generator):
        super().__init__()
        self.d_in, self.d_hidden = d_in, d_hidden
        bound = 1.0 / np.sqrt(d_in + d_hidden)
        self.W = self.add_param("W", rng.uniform(-bound, bound, size=(d_in, 4 * d_hidden)))
        self.U = self.add_param("U", rng.uniform(-bound, bound, size=(d_hidden, 4 * d_hidden)))
        b = np.zeros(4 * d_hidden)
        b[d_hidden:2 * d_hidden] = 1.0
        self.b = self.add_param("b", b)

    def sequence(self, x: Tensor, h0: Tensor, c0: Tensor) -> Tensor:
        """Every step over x (b, L, d_in) from state (h0, c0), as one graph
        node: returns the hidden states (b, L, h); c stays inside.

        The input projection of all b*L rows, bias included, is one GEMM,
        leaving one h @ U per step; the backward runs backpropagation through
        time in numpy.
        """
        hd = self.d_hidden
        if x.data.ndim != 3 or x.shape[2] != self.d_in or h0.shape != (x.shape[0], hd) \
                or c0.shape != h0.shape:
            raise DimensionError(
                f"lstm got x{x.shape}, h{h0.shape}, c{c0.shape}; expected widths "
                f"({self.d_in}, {hd})")
        b, L, d = x.shape
        W, U, bias = self.W, self.U, self.b
        # time-major buffers, so each step reads and writes contiguous blocks
        x_rows = x.data.transpose(1, 0, 2).reshape(L * b, d)
        neg_w, neg_u = self.neg_weights()
        xw = self.project(x_rows, neg_w).reshape(4, L, b, hd)
        acts = np.empty((L, 4, b, hd))      # i, f, o, g after their nonlinearity
        tanh_c = np.empty((L, b, hd))
        H, C = np.empty((L + 1, b, hd)), np.empty((L + 1, b, hd))  # before step 0, then after each
        H[0], C[0] = h0.data, c0.data
        for t in range(L):
            self.step_into(xw[:, t], neg_u, H[t], C[t], acts[t], tanh_c[t], H[t + 1], C[t + 1])

        def bw(g):
            g = g.transpose(1, 0, 2)
            d_gates = np.empty((L, b, 4 * hd))   # gate columns, as the GEMMs read them
            dh, dc = np.zeros((b, hd)), np.zeros((b, hd))
            for t in reversed(range(L)):
                i, f, o, gg = acts[t]
                tc = tanh_c[t]
                dh = dh + g[t]
                dc = dc + dh * o * (1.0 - tc * tc)
                dg = d_gates[t]
                dg[:, :hd] = dc * gg * i * (1.0 - i)
                dg[:, hd:2 * hd] = dc * C[t] * f * (1.0 - f)
                dg[:, 2 * hd:3 * hd] = dh * tc * o * (1.0 - o)
                dg[:, 3 * hd:] = dc * i * (1.0 - gg * gg)
                dh, dc = dg @ U.data.T, dc * f
            flat = d_gates.reshape(L * b, 4 * hd)
            if x.requires_grad:
                x._accumulate((flat @ W.data.T).reshape(L, b, d).transpose(1, 0, 2))
            W._accumulate(x_rows.T @ flat)
            U._accumulate(H[:-1].reshape(L * b, hd).T @ flat)
            bias._accumulate(flat.sum(axis=0))
            h0._accumulate(dh)
            c0._accumulate(dc)

        return ad._make(H[1:].transpose(1, 0, 2), (x, h0, c0, W, U, bias), bw)

    def neg_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """-W (4, d_in, h) and -U (4, h, h) in gate-major blocks, as ``project``
        and ``step_into`` take them; made once per sequence or decode."""
        return tuple(np.ascontiguousarray(-m.data.reshape(len(m.data), 4, self.d_hidden)
                                          .transpose(1, 0, 2)) for m in (self.W, self.U))

    def project(self, x_rows: np.ndarray, neg_w: np.ndarray) -> np.ndarray:
        """The negated input projection that ``step_into`` takes:
        -(x_rows @ W + b) in gate-major blocks (4, n, h)."""
        xw = np.matmul(x_rows, neg_w)
        xw -= self.b.data.reshape(4, 1, self.d_hidden)
        return xw

    def step_into(self, xw_t: np.ndarray, neg_u: np.ndarray, h: np.ndarray,
                  c: np.ndarray, acts: np.ndarray, tanh_c: np.ndarray,
                  h_new: np.ndarray, c_new: np.ndarray) -> None:
        """One step on arrays, the gate math of every LSTM path.

        From xw_t = ``project(x_t, neg_w)`` (4, n, h), neg_u (both from
        ``neg_weights()``) and the state h, c (n, h), acts (4, n, h) first
        holds the negated pre-activations -(x_t @ W + b + h @ U), written
        gate by gate by one batched matmul. Writes the gates after their
        nonlinearity (i, f, o, g) into acts, tanh(c') into tanh_c and h', c'
        into h_new, c_new (n, h each); h and c are read before those are
        written. Every pass runs in place on contiguous blocks: tanh(g) =
        -tanh(acts[3]), and the sigmoid 1 / (1 + exp(acts[:3])) of the other
        three gates.
        """
        np.matmul(h, neg_u, out=acts)
        acts += xw_t
        i, f, o, g = acts
        np.tanh(g, out=g)
        np.negative(g, out=g)
        sig = acts[:3]
        with np.errstate(over="ignore"):    # exp overflows to inf: the gate is 0
            np.exp(sig, out=sig)
        sig += 1.0
        np.reciprocal(sig, out=sig)
        np.multiply(f, c, out=c_new)
        np.multiply(i, g, out=tanh_c)
        c_new += tanh_c
        np.tanh(c_new, out=tanh_c)
        np.multiply(o, tanh_c, out=h_new)

    def zero_state(self, batch: int) -> tuple[Tensor, Tensor]:
        z = np.zeros((batch, self.d_hidden))
        return Tensor(z.copy()), Tensor(z.copy())


def dropout(x: Tensor, p: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; identity when p == 0."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability {p} out of [0, 1)")
    if p == 0.0:
        return x
    mask = (rng.random(x.shape) >= p) / (1.0 - p)
    return x * Tensor(mask)


def softmax_cross_entropy(logits: Tensor, targets: np.ndarray,
                          ignore_index: int | None = None) -> Tensor:
    """Mean NLL over non-ignored targets, with max-subtraction stabilization."""
    targets = np.asarray(targets, dtype=np.int64)
    b, v = logits.shape
    if targets.shape != (b,):
        raise DimensionError(f"targets shape {targets.shape} != ({b},)")
    valid = np.ones(b, dtype=bool) if ignore_index is None else targets != ignore_index
    if valid.any() and (targets[valid].min() < 0 or targets[valid].max() >= v):
        raise IndexError(f"target class out of range [0, {v})")
    n_valid = int(valid.sum())
    if n_valid == 0:
        return Tensor(0.0)

    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=1))
    safe_t = np.where(valid, targets, 0)
    nll = logsumexp - shifted[np.arange(b), safe_t]
    loss_data = np.array((nll * valid).sum() / n_valid)
    probs = np.exp(shifted - logsumexp[:, None])

    def bw(g):
        grad = probs.copy()
        grad[np.arange(b), safe_t] -= 1.0
        grad *= (valid / n_valid)[:, None]
        logits._accumulate(g * grad)

    return ad._make(loss_data, (logits,), bw)


def multiclass_hinge(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean over batch of sum_j!=y max(0, 1 + s_j - s_y)."""
    targets = np.asarray(targets, dtype=np.int64)
    b, v = logits.shape
    correct = ad.reshape(_gather(logits, targets), (b, 1))
    margins = ad.leaky_relu(logits - correct + 1.0, alpha=0.0)
    # the j == y term contributes a constant 1 per row; subtract it
    return (ad.sum(margins) - Tensor(float(b))) * Tensor(1.0 / b)


def _gather(logits: Tensor, targets: np.ndarray) -> Tensor:
    b = logits.shape[0]
    idx = (np.arange(b), targets)
    out_data = logits.data[idx]

    def bw(g):
        full = np.zeros_like(logits.data)
        np.add.at(full, idx, g)
        logits._accumulate(full)

    return ad._make(out_data, (logits,), bw)


class AdamState:
    """Adam moments of one parameter group, held flat.

    The first ``adam_step`` fixes the layout: the sorted parameter names,
    their shapes and their offsets into one float64 array each for the first
    and second moments. ``m[name]`` and ``v[name]`` are reshaped views into
    those arrays, in sorted name order, so a checkpoint sees one array per
    parameter. A later step with another name set or shape raises.
    """

    def __init__(self, lr: float = 1e-3, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.step_count = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.layout: dict[str, tuple[int, ...]] | None = None  # name -> shape

    def _fix_layout(self, params: dict[str, Tensor]) -> None:
        self.layout = {n: params[n].shape for n in sorted(params)}
        sizes = [params[n].size for n in self.layout]
        # the moments, then scratch for the gathered grads and the update
        self._m, self._v, self._grad, self._update = (np.zeros(sum(sizes))
                                                      for _ in range(4))
        cuts = np.cumsum(sizes)[:-1]

        def views(flat: np.ndarray) -> list[np.ndarray]:
            return [a.reshape(shape)
                    for a, shape in zip(np.split(flat, cuts), self.layout.values())]

        self.m = dict(zip(self.layout, views(self._m)))
        self.v = dict(zip(self.layout, views(self._v)))
        self._update_views = views(self._update)

    def _ordered(self, params: dict[str, Tensor]) -> list[Tensor]:
        """The group's tensors in layout order. A name set or a shape that
        differs from the layout raises, naming the first such parameter."""
        tensors = [params.get(n) for n in self.layout]
        if len(params) == len(tensors) and all(
                t is not None and t.shape == shape
                for t, shape in zip(tensors, self.layout.values())):
            return tensors
        shapes = {n: t.shape for n, t in params.items()}
        name = min(n for n in shapes.keys() | self.layout.keys()
                   if shapes.get(n) != self.layout.get(n))
        raise ValueError(f"adam_step: parameter {name!r} does not match the "
                         f"optimizer's layout: shape {shapes.get(name)}, layout "
                         f"{self.layout.get(name)}")


def adam_step(params: dict[str, Tensor], state: AdamState) -> None:
    """One bias-corrected Adam update over the flat moments; leaves grads
    untouched.

    The grads are gathered in layout order with one concatenate and the
    moments are updated in place, with the per-element association of a
    per-tensor loop, so results are bit-identical to it:
    m = m*b1 + (1-b1)*g, v = v*b2 + ((1-b2)*g)*g and
    p -= (lr*(m/bc1)) / (sqrt(v/bc2) + eps).
    """
    for name, p in params.items():
        if p.grad is None:
            raise ValueError(f"adam_step: parameter {name!r} has no gradient")
    if state.layout is None:
        state._fix_layout(params)
    tensors = state._ordered(params)
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - state.beta1 ** t
    bc2 = 1.0 - state.beta2 ** t
    g, u, m, v = state._grad, state._update, state._m, state._v
    np.concatenate([p.grad.reshape(-1) for p in tensors], out=g)
    m *= state.beta1
    np.multiply(1 - state.beta1, g, out=u)
    m += u
    v *= state.beta2
    np.multiply(1 - state.beta2, g, out=u)
    u *= g
    v += u
    np.divide(m, bc1, out=u)
    u *= state.lr
    np.divide(v, bc2, out=g)
    np.sqrt(g, out=g)
    g += state.eps
    u /= g
    for p, step in zip(tensors, state._update_views):
        p.data -= step
