"""GAN-Fusion: one adversarial module per target modality.

Each module pushes its generator output z_g (target latent + noise) toward
z_tr, the autofused complement of the remaining modalities; a per-module
discriminator tells the two apart. The discriminator returns a logit, so each
adversarial loss term is one exact softplus node, at any logit. Generator
outputs are concatenated and projected to the fused representation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .autofusion import AutoFusionNet, FusionOutput
from .encoders import MODALITIES, LatentBundle
from .layers import MLP, Affine, Module


class FusionUnavailableError(Exception):
    """GAN-Fusion needs a complementary modality; caller should fall back."""


@dataclass
class ModuleForward:
    """One gan_forward result, kept around for the discriminator step."""

    name: str
    z_g: Tensor
    z_tr: Tensor
    inner_loss: Tensor
    fake_logits: np.ndarray | None = None   # D(z_g), kept by generator_loss


class GanFusionModule(Module):
    """Adversarial alignment of one target modality against its complement."""

    def __init__(self, target: str, d_target: int, complements: list[tuple[str, int]],
                 d_noise: int, d_r: int, d_disc_hidden: int, noise_sigma: float,
                 rng: np.random.Generator, saturating: bool = False):
        super().__init__()
        if not complements:
            raise FusionUnavailableError(
                f"target {target!r} has no complementary modality")
        self.target = target
        self.d_noise = d_noise
        self.noise_sigma = noise_sigma
        self.saturating = saturating
        self.complement_names = [n for n, _ in complements]
        self.generator = self.add_child("generator", MLP(d_target + d_noise, d_r, d_r, rng))
        # the discriminator scores a logit: > 0 reads as "came from z_tr"
        self.discriminator = self.add_child("discriminator", MLP(d_r, d_disc_hidden, 1, rng))
        comp_dims = [d for _, d in complements]
        self.inner: AutoFusionNet | None = None
        # A lone complement of width d_r is z_tr as it is; any other is autofused,
        # as only a loss that is not detached can train what maps it to d_r.
        if comp_dims != [d_r]:
            self.inner = self.add_child("inner", AutoFusionNet(comp_dims, d_r, rng))

    def generate(self, bundle: LatentBundle,
                 rng: np.random.Generator | None) -> Tensor:
        """Generator output z_g = G([z_target; eps]); eps is 0 without rng."""
        z_m = bundle.latents[self.target]
        b = z_m.shape[0]
        if self.noise_sigma > 0.0 and rng is not None:
            eps = rng.normal(0.0, self.noise_sigma, size=(b, self.d_noise))
        else:
            eps = np.zeros((b, self.d_noise))
        return self.generator(ad.concat([z_m, Tensor(eps)], axis=1))

    def gan_forward(self, bundle: LatentBundle,
                    rng: np.random.Generator | None) -> ModuleForward:
        z_g = self.generate(bundle, rng)
        comp = [bundle.latents[n] for n in self.complement_names]
        if self.inner is not None:
            inner_out = self.inner(comp)
            z_tr, inner_loss = inner_out.z_fuse, inner_out.j_fusion
        else:
            z_tr, inner_loss = comp[0], Tensor(0.0)
        return ModuleForward(self.target, z_g, z_tr, inner_loss)

    def discriminator_loss(self, z_tr: Tensor, z_g: Tensor) -> Tensor:
        """-[mean log D(z_tr) + mean log(1 - D(z_g))] for D = sigmoid(logit),
        written as softplus(-logit) and softplus(logit); inputs are detached."""
        d_real = self.discriminator(z_tr.detach())
        d_fake = self.discriminator(z_g.detach())
        return ad.mean_softplus(d_real, sign=-1.0) + ad.mean_softplus(d_fake)

    def generator_loss(self, forward: ModuleForward) -> Tensor:
        """Non-saturating -mean log D(z_g) of the forward's z_g by default;
        the literal minimax mean log(1 - D(z_g)) when the module was built
        saturating. D's logits on z_g are kept in forward.fake_logits."""
        d_fake = self.discriminator(forward.z_g, frozen=True)
        forward.fake_logits = d_fake.data
        if self.saturating:
            return -ad.mean_softplus(d_fake)
        return ad.mean_softplus(d_fake, sign=-1.0)

    def discriminator_accuracy(self, z_tr: Tensor, z_g: Tensor,
                               fake_logits: np.ndarray | None = None) -> float:
        """Share of z_tr scored real and z_g scored fake; builds no graph.
        Given D's logits on z_g as fake_logits, D runs on z_tr only."""
        d_real = self.discriminator(z_tr.detach(), frozen=True).data
        d_fake = (self.discriminator(z_g.detach(), frozen=True).data
                  if fake_logits is None else fake_logits)
        return float(((d_real > 0.0).sum() + (d_fake <= 0.0).sum())
                     / (d_real.size + d_fake.size))


class GanFusionStack(Module):
    """One GanFusionModule per present modality plus the final fusion layer."""

    def __init__(self, dims: dict[str, int], d_fuse: int, d_noise: int,
                 d_disc_hidden: int, noise_sigma: float, rng: np.random.Generator,
                 saturating: bool = False):
        super().__init__()
        present = [m for m in MODALITIES if m in dims]
        if len(present) < 2:
            raise FusionUnavailableError(
                f"gan fusion needs >= 2 modalities, got {present}")
        self.order = present
        self.modules: dict[str, GanFusionModule] = {}
        for m in present:
            comp = [(n, dims[n]) for n in present if n != m]
            self.modules[m] = self.add_child(
                m, GanFusionModule(m, dims[m], comp, d_noise, d_fuse,
                                   d_disc_hidden, noise_sigma, rng, saturating))
        self.fc = self.add_child(
            "fc", Affine(d_fuse * len(present), d_fuse, rng))

    def _check_bundle(self, bundle: LatentBundle) -> None:
        missing = [m for m in self.order if m not in bundle.latents]
        if missing:
            raise FusionUnavailableError(f"bundle missing modalities {missing}")

    def gan_forwards(self, bundle: LatentBundle,
                     rng: np.random.Generator | None) -> list[ModuleForward]:
        self._check_bundle(bundle)
        return [self.modules[m].gan_forward(bundle, rng) for m in self.order]

    def generate(self, bundle: LatentBundle) -> dict[str, Tensor]:
        """Noise-free z_g of every module: what inference needs, without the
        complements z_tr or any loss."""
        self._check_bundle(bundle)
        return {m: self.modules[m].generate(bundle, None) for m in self.order}

    def project(self, z_g: dict[str, Tensor]) -> Tensor:
        """The fused vector: one affine map of the concatenated z_g."""
        return self.fc(ad.concat(list(z_g.values()), axis=1))

    def compose(self, forwards: list[ModuleForward]) -> FusionOutput:
        """The fused vector of the forwards' z_g, and J_fusion: the sum over
        modules of the generator loss (each forward keeps its D logits) and,
        for a module with an inner Auto-Fusion, its reconstruction loss."""
        z_fuse = self.project({f.name: f.z_g for f in forwards})
        terms = []
        for f in forwards:
            module = self.modules[f.name]
            term = module.generator_loss(f)
            terms.append(term if module.inner is None else term + f.inner_loss)
        return FusionOutput(z_fuse=z_fuse, j_fusion=sum(terms[1:], terms[0]))

    def fuse(self, bundle: LatentBundle, rng: np.random.Generator | None) -> FusionOutput:
        return self.compose(self.gan_forwards(bundle, rng))
