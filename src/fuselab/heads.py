"""Prediction heads: fully-connected classifier and attentive LSTM decoder."""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import DimensionError, Tensor
from .layers import (Affine, Embedding, LSTMCell, Module, multiclass_hinge,
                     softmax_cross_entropy)
from .vocab import EOS, PAD, SOS


class ClassifierHead(Module):
    """affine -> LeakyReLU -> affine producing class logits."""

    def __init__(self, d_fuse: int, hidden: int, n_classes: int,
                 rng: np.random.Generator):
        super().__init__()
        self.d_fuse = d_fuse
        self.n_classes = n_classes
        self.fc1 = self.add_child("fc1", Affine(d_fuse, hidden, rng))
        self.fc2 = self.add_child("fc2", Affine(hidden, n_classes, rng))

    def __call__(self, z_fuse: Tensor) -> Tensor:
        if z_fuse.shape[1] != self.d_fuse:
            raise DimensionError(
                f"classifier expects width {self.d_fuse}, got {z_fuse.shape[1]}")
        return self.fc2(ad.leaky_relu(self.fc1(z_fuse), alpha=0.2))

    def loss(self, logits: Tensor, labels: np.ndarray, kind: str = "cross_entropy") -> Tensor:
        if kind == "cross_entropy":
            return softmax_cross_entropy(logits, labels)
        if kind == "hinge":
            return multiclass_hinge(logits, labels)
        raise ValueError(f"unknown classification loss {kind!r}")


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

    def decode_step(self, prev_tokens: np.ndarray, h: Tensor, c: Tensor,
                    z_fuse: Tensor, states: Tensor, mask: np.ndarray
                    ) -> tuple[Tensor, Tensor, Tensor, Tensor]:
        """One step: returns (logits (b,V), h', c', attention weights (b,L))."""
        if np.any(mask.sum(axis=1) == 0):
            raise ValueError("attention has no unmasked source position")
        x = self.embed(np.asarray(prev_tokens))
        if self.condition_every_step:
            x = ad.concat([x, z_fuse], axis=1)
        h_new, c_new = self.cell(x, h, c)

        b, L, eh = states.shape
        q = ad.matmul(h_new, self.attn_W)                      # (b, eh)
        scores = ad.reshape(ad.bmm(states, ad.reshape(q, (b, eh, 1))), (b, L))
        scores = scores + Tensor(np.where(mask > 0.0, 0.0, -1e9))
        weights = ad.softmax(scores, axis=1)
        context = ad.reshape(
            ad.bmm(ad.transpose(states, (0, 2, 1)), ad.reshape(weights, (b, L, 1))),
            (b, eh))
        logits = self.out(ad.concat([h_new, context], axis=1))
        return logits, h_new, c_new, weights

    def teacher_forced_loss(self, z_fuse: Tensor, states: Tensor,
                            mask: np.ndarray, targets: np.ndarray) -> Tensor:
        """Mean cross-entropy over non-PAD target positions.

        targets: (b, T) token ids ending in EOS then PAD; the input at step j
        is SOS for j=0 else targets[:, j-1].
        """
        targets = np.asarray(targets, dtype=np.int64)
        b = targets.shape[0]
        inputs = np.concatenate([np.full((b, 1), SOS), targets[:, :-1]], axis=1)
        h, c = self.init_state(z_fuse)
        logits = []
        for prev in inputs.T:
            step_logits, h, c, _ = self.decode_step(prev, h, c, z_fuse, states, mask)
            logits.append(step_logits)
        # rows are step-major: row j*b + i scores targets[i, j]
        return softmax_cross_entropy(ad.concat(logits, axis=0),
                                     targets.T.reshape(-1), ignore_index=PAD)

    def decode_greedy(self, z_fuse: Tensor, states: Tensor, mask: np.ndarray,
                      max_len: int) -> list[list[int]]:
        """Argmax decoding from SOS until EOS or max_len, per batch row."""
        b = z_fuse.shape[0]
        h, c = self.init_state(z_fuse)
        prev = np.full(b, SOS, dtype=np.int64)
        done = np.zeros(b, dtype=bool)
        out: list[list[int]] = [[] for _ in range(b)]
        for _ in range(max_len):
            logits, h, c, _ = self.decode_step(prev, h, c, z_fuse, states, mask)
            nxt = logits.data.argmax(axis=1)
            for i in range(b):
                if not done[i]:
                    if nxt[i] == EOS:
                        done[i] = True
                    else:
                        out[i].append(int(nxt[i]))
            if done.all():
                break
            prev = nxt
        return out
