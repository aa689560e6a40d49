"""Prediction heads: fully-connected classifier and attentive LSTM decoder."""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import DimensionError, Tensor
from .layers import (MLP, Affine, Embedding, LSTMCell, Module, multiclass_hinge,
                     softmax_cross_entropy)
from .vocab import EOS, PAD, SOS


class ClassifierHead(MLP):
    """An MLP producing class logits, trained with cross-entropy or, with
    loss="hinge", the multiclass hinge loss."""

    LOSSES = {"cross_entropy": softmax_cross_entropy, "hinge": multiclass_hinge}

    def __init__(self, d_fuse: int, hidden: int, n_classes: int,
                 rng: np.random.Generator, loss: str = "cross_entropy"):
        if loss not in self.LOSSES:
            raise ValueError(f"unknown classification loss {loss!r}")
        super().__init__(d_fuse, hidden, n_classes, rng)
        self._loss = self.LOSSES[loss]
        self.d_fuse = d_fuse
        self.n_classes = n_classes

    def __call__(self, z_fuse: Tensor) -> Tensor:
        if z_fuse.shape[1] != self.d_fuse:
            raise DimensionError(
                f"classifier expects width {self.d_fuse}, got {z_fuse.shape[1]}")
        return super().__call__(z_fuse)

    def loss(self, logits: Tensor, labels: np.ndarray) -> Tensor:
        return self._loss(logits, labels)


class AttentiveDecoder(Module):
    """LSTM decoder with general (bilinear) attention over text encoder states.

    The fused vector enters through the initial hidden state by default
    (h0 = tanh(bridge(z_fuse))); with condition_every_step=True it is also
    concatenated to the embedded input token at every step.
    """

    def __init__(self, vocab_size: int, embed_dim: int, hidden: int,
                 enc_hidden: int, d_fuse: int, rng: np.random.Generator,
                 condition_every_step: bool = False):
        super().__init__()
        self.vocab_size = vocab_size
        self.hidden = hidden
        self.condition_every_step = condition_every_step
        self.d_fuse = d_fuse
        self.embed = self.add_child("embed", Embedding(vocab_size, embed_dim, rng))
        d_in = embed_dim + (d_fuse if condition_every_step else 0)
        self.cell = self.add_child("lstm", LSTMCell(d_in, hidden, rng))
        self.bridge = self.add_child("bridge", Affine(d_fuse, hidden, rng))
        self.attn_W = self.add_param(
            "attn_W", rng.uniform(-1, 1, size=(hidden, enc_hidden)) / np.sqrt(hidden))
        self.out = self.add_child("out", Affine(hidden + enc_hidden, vocab_size, rng))

    def init_state(self, z_fuse: Tensor) -> tuple[Tensor, Tensor]:
        h0 = ad.tanh(self.bridge(z_fuse))
        c0 = Tensor(np.zeros(h0.shape))
        return h0, c0

    def _inputs(self, ids: np.ndarray, z_fuse: Tensor) -> Tensor:
        """LSTM inputs (b, T, d_in) for token ids (b, T)."""
        x = self.embed(ids)
        if not self.condition_every_step:
            return x
        b, T = ids.shape
        z = ad.reshape(z_fuse, (b, 1, self.d_fuse)) * Tensor(np.ones((1, T, 1)))
        return ad.concat([x, z], axis=2)

    def _attend(self, h_rows: np.ndarray, states: np.ndarray, bias: np.ndarray):
        """Attention of decoder states h_rows (b*T, h), row i*T + j being step
        j of batch row i, over the encoder states (b, L, eh) with score bias
        (b, 1, L), then the output layer. Returns the logits (b*T, V) and what
        ``_readout``'s backward reads: the query (b, T, eh), the attention
        weights (b, T, L) and the output layer's input (b*T, h + eh)."""
        b, L, eh = states.shape
        q = (h_rows @ self.attn_W.data).reshape(b, -1, eh)
        scores = q @ states.transpose(0, 2, 1) + bias
        e = np.exp(scores - scores.max(axis=2, keepdims=True))
        weights = e / e.sum(axis=2, keepdims=True)
        feats = np.concatenate([h_rows, (weights @ states).reshape(-1, eh)], axis=1)
        return feats @ self.out.W.data + self.out.b.data, q, weights, feats

    def _readout(self, hs: Tensor, states: Tensor, mask: np.ndarray) -> Tensor:
        """``_attend`` as one graph node: logits (b*T, V) for the decoder
        states hs (b, T, h); row i*T + j is step j of batch row i. The
        backward runs the chain rule of the output layer, the context sum,
        the softmax, the bilinear score and the query, in that order."""
        b, T, hd = hs.shape
        h_rows, st = hs.data.reshape(b * T, hd), states.data
        logits, q, weights, feats = self._attend(h_rows, st, _mask_bias(mask))
        attn_W, out_W, out_b = self.attn_W, self.out.W, self.out.b

        def bw(g):      # _accumulate ignores a tensor that needs no grad
            out_W._accumulate(feats.T @ g)
            out_b._accumulate(g.sum(axis=0))
            g_feats = (g @ out_W.data.T).reshape(b, T, -1)
            g_context = g_feats[:, :, hd:]
            g_weights = g_context @ st.transpose(0, 2, 1)
            g_scores = weights * (g_weights - (g_weights * weights).sum(axis=2, keepdims=True))
            g_q = (g_scores @ st).reshape(b * T, -1)
            attn_W._accumulate(h_rows.T @ g_q)
            hs._accumulate(g_feats[:, :, :hd] + (g_q @ attn_W.data.T).reshape(b, T, hd))
            states._accumulate(weights.transpose(0, 2, 1) @ g_context
                               + (q.transpose(0, 2, 1) @ g_scores).transpose(0, 2, 1))

        return ad._make(logits, (hs, states, attn_W, out_W, out_b), bw)

    def teacher_forced_loss(self, z_fuse: Tensor, states: Tensor,
                            mask: np.ndarray, targets: np.ndarray) -> Tensor:
        """Mean cross-entropy over non-PAD target positions.

        targets: (b, T) token ids ending in EOS then PAD; the input at step j
        is SOS for j=0 else targets[:, j-1]. The inputs are known up front and
        attention does not feed back into the LSTM, so all T steps run as one
        LSTM sequence node and one readout node.
        """
        targets = np.asarray(targets, dtype=np.int64)
        b = targets.shape[0]
        inputs = np.concatenate([np.full((b, 1), SOS), targets[:, :-1]], axis=1)
        hs = self.cell.sequence(self._inputs(inputs, z_fuse), *self.init_state(z_fuse))
        logits = self._readout(hs, states, mask)
        return softmax_cross_entropy(logits, targets.reshape(-1), ignore_index=PAD)

    def decode_greedy(self, z_fuse: Tensor, states: Tensor, mask: np.ndarray,
                      max_len: int) -> list[list[int]]:
        """Argmax decoding from SOS until EOS or max_len, per batch row.

        Runs on arrays and builds no graph node: the mask bias, the initial
        state, -U and the LSTM input projection of every vocabulary entry
        (4, V, h) are made once per batch, then each step is ``_array_step``,
        which gathers its input rows from that table. Under
        ``condition_every_step`` the input depends on z, so each step
        projects it instead, with results equal to the graph step's bit for
        bit. A row leaves the batch at the step that emits its EOS, so each
        step runs only the live rows.
        """
        bias = _mask_bias(mask)
        z, st = z_fuse.data, states.data
        h = np.tanh(z @ self.bridge.W.data + self.bridge.b.data)
        c = np.zeros(h.shape)
        neg_w, neg_u = self.cell.neg_weights()
        table = (None if self.condition_every_step
                 else self.cell.project(self.embed.table.data, neg_w))
        b = z.shape[0]
        tokens = np.zeros((b, max_len), dtype=np.int64)
        length = np.full(b, max_len)
        rows = np.arange(b)                    # batch row of each live row
        prev = np.full(b, SOS, dtype=np.int64)
        for t in range(max_len):
            logits, h, c = self._array_step(prev, h, c, z, st, bias, table, neg_u, neg_w)
            prev = logits.argmax(axis=1)
            tokens[rows, t] = prev
            ended = prev == EOS
            if ended.any():
                length[rows[ended]] = t
                live = ~ended
                if not live.any():
                    break
                rows, prev, h, c, z, st, bias = (
                    a[live] for a in (rows, prev, h, c, z, st, bias))
        return [tokens[i, :length[i]].tolist() for i in range(b)]

    def _array_step(self, prev, h, c, z, states, bias, table, neg_u, neg_w):
        """One decoder step on arrays: prev (n,), h, c (n, h), z (n, d_fuse),
        states (n, L, eh), bias (n, 1, L) -> (logits (n, V), h', c').
        ``decode_greedy`` passes what it makes once per batch: neg_u, neg_w
        (``cell.neg_weights()``) and ``table``, the gate-major LSTM input
        projection of the vocabulary (4, V, h), whose columns table[:, prev]
        the step gathers. With ``table=None``, the step projects its input,
        and every op and operand layout is that of the graph step
        (``cell.sequence`` of length one, then ``_readout``), so the results
        are bitwise equal."""
        hd = self.hidden
        if table is None:
            x = self.embed.table.data[prev]
            if self.condition_every_step:
                x = np.concatenate([x, z], axis=1)
            xw = self.cell.project(x, neg_w)
        else:
            xw = table[:, prev]
        h_new, c_new, tanh_c = np.empty((3, xw.shape[1], hd))
        self.cell.step_into(xw, neg_u, h, c, np.empty(xw.shape), tanh_c, h_new, c_new)
        return self._attend(h_new, states, bias)[0], h_new, c_new


def _mask_bias(mask: np.ndarray) -> np.ndarray:
    """Attention score bias (b, 1, L): 0 at source positions with mask > 0,
    -1e9 at the others. Every row needs one unmasked position."""
    if np.any(mask.sum(axis=1) == 0):
        raise ValueError("attention has no unmasked source position")
    return np.where(mask > 0.0, 0.0, -1e9)[:, None, :]
