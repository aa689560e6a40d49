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
        token_ids = np.asarray(token_ids, dtype=np.int64)
        lengths = np.asarray(lengths, dtype=np.int64)
        b, L = token_ids.shape
        if np.any(lengths < 1) or np.any(lengths > L):
            raise ValueError("sequence lengths must lie in [1, L]")
        mask = (np.arange(L)[None, :] < lengths[:, None]).astype(np.float64)

        # The LSTM is causal: steps past a row's length never reach its earlier
        # states, so padding runs through the cell and is masked out afterwards.
        hs = self.cell.sequence(self.embed(token_ids), *self.cell.zero_state(b))
        states = hs * Tensor(mask[:, :, None])
        return self._last_states(states, lengths), states, mask

    @staticmethod
    def _last_states(states: Tensor, lengths: np.ndarray) -> Tensor:
        """Each row's state at its true length: (b, L, h) -> (b, h)."""
        rows = (np.arange(len(lengths)), lengths - 1)

        def bw(g):
            full = np.zeros_like(states.data)
            full[rows] = g
            states._accumulate(full)

        return ad._make(states.data[rows], (states,), bw)


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
