"""Auto-Fusion: concatenate unimodal latents, compress, reconstruct.

The bottleneck vector is the fused representation; the reconstruction error
(per-sample squared Euclidean distance, averaged over the batch) is the
fusion loss the module contributes to the total objective.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import DimensionError, Tensor
from .layers import Affine, Module


@dataclass
class FusionOutput:
    z_fuse: Tensor
    j_fusion: Tensor


class AutoFusionNet(Module):
    """compress: tanh(affine k->t); reconstruct: affine t->k."""

    def __init__(self, input_dims: list[int], bottleneck: int,
                 rng: np.random.Generator):
        super().__init__()
        self.input_dims = list(input_dims)
        self.k = int(np.sum(input_dims))
        self.t = bottleneck
        self.compress = self.add_child("compress", Affine(self.k, self.t, rng))
        self.reconstruct = self.add_child("reconstruct", Affine(self.t, self.k, rng))

    def __call__(self, latents: list[Tensor]) -> FusionOutput:
        if not latents:
            raise DimensionError("autofuse needs at least one latent")
        batches = {t.shape[0] for t in latents}
        if len(batches) != 1:
            raise DimensionError(f"batch mismatch across latents: {sorted(batches)}")
        widths = [t.shape[1] for t in latents]
        if widths != self.input_dims:
            raise DimensionError(f"latent widths {widths} != configured {self.input_dims}")
        z_k = ad.concat(latents, axis=1) if len(latents) > 1 else latents[0]
        z_t = ad.tanh(self.compress(z_k))
        return FusionOutput(z_fuse=z_t,
                            j_fusion=reconstruction_loss(self.reconstruct(z_t), z_k))


def reconstruction_loss(z_hat: Tensor, z_k: Tensor) -> Tensor:
    """Batch-mean squared Euclidean distance between reconstruction and input."""
    diff = z_hat - z_k
    return ad.mean(ad.sum(diff * diff, axis=1))
