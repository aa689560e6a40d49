"""Per-modality learners mapping raw inputs to unimodal latent vectors."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import DimensionError, Tensor
from .layers import Affine, Embedding, LSTMCell, Module

MODALITIES = ("video", "speech", "text")


@dataclass
class LatentBundle:
    """Unimodal latents per present modality, plus the text state sequence."""

    latents: dict[str, Tensor] = field(default_factory=dict)
    text_states: Tensor | None = None       # (b, L, h), padding rows zeroed
    text_mask: np.ndarray | None = None     # (b, L) float {0,1}

    def __post_init__(self):
        if not self.latents:
            raise ValueError("LatentBundle needs at least one modality")
        if "text" in self.latents and self.text_states is None:
            raise ValueError("text latent requires the encoder state sequence")


class TextEncoder(Module):
    """Embedding lookup + LSTM sequence; summary latent taken at true lengths."""

    def __init__(self, vocab_size: int, embed_dim: int, hidden: int,
                 rng: np.random.Generator):
        super().__init__()
        self.embed = self.add_child("embed", Embedding(vocab_size, embed_dim, rng))
        self.cell = self.add_child("lstm", LSTMCell(embed_dim, hidden, rng))

    def __call__(self, token_ids: np.ndarray, lengths: np.ndarray) -> tuple[Tensor, Tensor, np.ndarray]:
        """Returns (z_t (b,h), states (b,L,h), mask (b,L))."""
        token_ids, lengths, mask = _checked(token_ids, lengths)
        # The LSTM is causal: steps past a row's length never reach its earlier
        # states, so padding runs through the cell and is masked out afterwards.
        hs = self.cell.sequence(self.embed(token_ids), *self.cell.zero_state(token_ids.shape[0]))
        states = hs * Tensor(mask[:, :, None])
        return self._last_states(states, lengths), states, mask

    def infer(self, token_ids: np.ndarray, lengths: np.ndarray) -> tuple[Tensor, Tensor, np.ndarray]:
        """``__call__``'s outputs for inference, computed on arrays without a
        graph node; z and every state inside a sentence have the same bits.

        The rows run longest first, so the rows still inside their sentence
        at step t are a prefix, and step t runs only those, but never fewer
        than two: BLAS multiplies a single row by -U on its matrix-vector
        path, whose bits differ. States past a row's length are +0.0, where
        ``__call__`` has a zero of either sign. Raises what ``__call__``
        raises.
        """
        token_ids, lengths, mask = _checked(token_ids, lengths)
        b, L = token_ids.shape
        cell, hd = self.cell, self.cell.d_hidden
        order = np.argsort(-lengths, kind="stable")
        x = self.embed.lookup(token_ids[order].T)               # (L, b, d), time-major
        neg_w, neg_u = cell.neg_weights()
        xw = cell.project(x.reshape(L * b, -1), neg_w).reshape(4, L, b, hd)
        H = np.zeros((L + 1, b, hd))            # h before step 0, then after each
        c, tanh_c, acts = np.zeros((b, hd)), np.empty((b, hd)), np.empty((4, b, hd))
        for t, n in enumerate((lengths[:, None] > np.arange(L)).sum(axis=0).tolist()):
            k = min(b, max(n, 2))
            cell.step_into(xw[:, t, :k], neg_u, H[t, :k], c[:k], acts[:, :k], tanh_c[:k],
                           H[t + 1, :k], c[:k])
            H[t + 1, n:k] = 0.0                 # a row past its length, run to keep two
        states = np.empty((b, L, hd))
        states[order] = H[1:].transpose(1, 0, 2)
        z = states[np.arange(b), lengths - 1]
        return Tensor(z), Tensor(states), mask

    @staticmethod
    def _last_states(states: Tensor, lengths: np.ndarray) -> Tensor:
        """Each row's state at its true length: (b, L, h) -> (b, h)."""
        rows = (np.arange(len(lengths)), lengths - 1)

        def bw(g):
            full = np.zeros_like(states.data)
            full[rows] = g
            states._accumulate(full)

        return ad._make(states.data[rows], (states,), bw)


def _checked(token_ids, lengths) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Token ids (b, L) and lengths as int64 arrays, and the (b, L) mask of
    the positions inside each sentence; a length outside [1, L] raises."""
    token_ids = np.asarray(token_ids, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    b, L = token_ids.shape
    if np.any(lengths < 1) or np.any(lengths > L):
        raise ValueError("sequence lengths must lie in [1, L]")
    return token_ids, lengths, (np.arange(L)[None, :] < lengths[:, None]).astype(np.float64)


class VectorEncoder(Module):
    """Standardize -> affine -> tanh learner for speech/video feature vectors."""

    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator):
        super().__init__()
        self.d_in = d_in
        self.proj = self.add_child("proj", Affine(d_in, d_out, rng))
        self.norm_mean = self.add_buffer("norm_mean", np.zeros(d_in))
        self.norm_std = self.add_buffer("norm_std", np.ones(d_in))

    def fit_normalization(self, features: np.ndarray) -> None:
        """Freeze per-feature mean/std from the training split."""
        features = np.asarray(features, dtype=np.float64)
        std = features.std(axis=0)
        self.norm_mean[...] = features.mean(axis=0)
        self.norm_std[...] = np.where(std > 1e-12, std, 1.0)

    def __call__(self, features: np.ndarray) -> Tensor:
        """One graph node whose parents are the affine map's weight and bias;
        the standardised features are a constant."""
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2 or features.shape[1] != self.d_in:
            raise DimensionError(
                f"expected (b, {self.d_in}) features, got {features.shape}")
        x = (features - self.norm_mean) / self.norm_std
        W, b = self.proj.W, self.proj.b
        out = np.tanh(x @ W.data + b.data)

        def bw(g):      # the chain rule of tanh, then of the affine map
            g_pre = g * (1.0 - out * out)
            W._accumulate(x.T @ g_pre)
            b._accumulate(g_pre.sum(axis=0))

        return ad._make(out, (W, b), bw)
