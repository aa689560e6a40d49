import math

import numpy as np
import pytest

from fuselab import autodiff as ad
from fuselab import layers
from fuselab.autodiff import Tensor
from fuselab.encoders import LatentBundle
from fuselab.ganfusion import FusionUnavailableError, GanFusionStack, ModuleForward
from fuselab.gradcheck import check_gradients


@pytest.fixture
def rng():
    return np.random.default_rng(31)


def make_bundle(rng, dims, batch=4):
    latents = {}
    states = mask = None
    for m, d in dims.items():
        latents[m] = Tensor(rng.normal(size=(batch, d)), requires_grad=True)
    if "text" in dims:
        states = Tensor(rng.normal(size=(batch, 3, dims["text"])))
        mask = np.ones((batch, 3))
    return LatentBundle(latents=latents, text_states=states, text_mask=mask)


def forward_of(z_g):
    """A module forward that carries only z_g, for the generator loss."""
    return ModuleForward("text", z_g, None, None)


def make_stack(rng, dims, d_fuse=6, sigma=1.0, saturating=False):
    return GanFusionStack(dims, d_fuse=d_fuse, d_noise=4, d_disc_hidden=8,
                          noise_sigma=sigma, rng=rng, saturating=saturating)


def test_trimodal_text_module_complements_exclude_text(rng):
    stack = make_stack(rng, {"video": 3, "speech": 4, "text": 5})
    assert stack.modules["text"].complement_names == ["video", "speech"]
    assert stack.modules["text"].inner is not None
    assert stack.modules["text"].inner.input_dims == [3, 4]


def test_bimodal_single_complement_is_projected_or_identity(rng):
    stack = make_stack(rng, {"speech": 6, "text": 6}, d_fuse=6)
    mod = stack.modules["text"]
    assert mod.inner is None  # width matches d_r
    bundle = make_bundle(rng, {"speech": 6, "text": 6})
    fwd = mod.gan_forward(bundle, rng)
    np.testing.assert_array_equal(fwd.z_tr.data, bundle.latents["speech"].data)
    assert fwd.inner_loss.item() == 0.0


def test_bimodal_width_mismatch_projects(rng):
    """A single complement narrower than d_r is autofused, and its
    reconstruction loss gives every inner parameter a gradient."""
    stack = make_stack(rng, {"speech": 4, "text": 6}, d_fuse=6)
    mod = stack.modules["text"]
    assert mod.inner.input_dims == [4]
    bundle = make_bundle(rng, {"speech": 4, "text": 6})
    fwd = mod.gan_forward(bundle, rng)
    assert fwd.z_tr.shape == (4, 6)
    assert fwd.inner_loss.item() > 0.0
    fwd.inner_loss.backward()
    assert all(t.grad is not None for t in mod.inner.parameters().values())


def test_unimodal_fusion_unavailable(rng):
    with pytest.raises(FusionUnavailableError):
        make_stack(rng, {"text": 5})


def test_sigma_zero_deterministic(rng):
    stack = make_stack(rng, {"speech": 4, "text": 5}, sigma=0.0)
    bundle = make_bundle(rng, {"speech": 4, "text": 5})
    f1 = stack.fuse(bundle, np.random.default_rng(0))
    f2 = stack.fuse(bundle, np.random.default_rng(99))
    np.testing.assert_array_equal(f1.z_fuse.data, f2.z_fuse.data)


def test_module_count_matches_modalities(rng):
    tri = make_stack(rng, {"video": 3, "speech": 4, "text": 5})
    bi = make_stack(rng, {"speech": 4, "text": 5})
    assert len(tri.modules) == 3 and len(bi.modules) == 2
    bundle = make_bundle(rng, {"speech": 4, "text": 5})
    assert len(bi.gan_forwards(bundle, rng)) == 2


def test_z_fuse_width_contract(rng):
    for dims in ({"video": 3, "speech": 4, "text": 5}, {"speech": 4, "text": 5}):
        stack = make_stack(rng, dims, d_fuse=7)
        out = stack.fuse(make_bundle(rng, dims), rng)
        assert out.z_fuse.shape == (4, 7)


def test_uniform_discriminator_loss_is_2ln2(rng):
    stack = make_stack(rng, {"speech": 4, "text": 5})
    mod = stack.modules["text"]
    for p in mod.discriminator.parameters().values():
        p.data[...] = 0.0
    loss = mod.discriminator_loss(Tensor(rng.normal(size=(8, 6))),
                                  Tensor(rng.normal(size=(8, 6))))
    assert loss.item() == pytest.approx(2 * math.log(2), abs=1e-12)


def test_uniform_discriminator_loss_at_init_over_seeds():
    vals = []
    for seed in range(32):
        rng = np.random.default_rng(seed)
        stack = make_stack(rng, {"speech": 4, "text": 5})
        mod = stack.modules["text"]
        loss = mod.discriminator_loss(Tensor(rng.normal(size=(16, 6))),
                                      Tensor(rng.normal(size=(16, 6))))
        vals.append(loss.item())
    assert abs(np.mean(vals) - 2 * math.log(2)) < 0.15


def test_perfect_discriminator_loss_clamped_near_zero(rng):
    stack = make_stack(rng, {"speech": 4, "text": 5})
    mod = stack.modules["text"]
    d = mod.discriminator
    # drive the output to ~1 on positives and ~0 on negatives via a huge bias
    # on the first input feature
    d.fc1.W.data[...] = 0.0
    d.fc1.b.data[...] = 0.0
    d.fc1.W.data[0, 0] = 1.0
    d.fc2.W.data[...] = 0.0
    d.fc2.W.data[0, 0] = 1e4
    z_real = Tensor(np.full((4, 6), 0.0) + np.eye(6)[0] * 5.0)
    z_fake = Tensor(np.full((4, 6), 0.0) - np.eye(6)[0] * 5.0)
    loss = mod.discriminator_loss(z_real, z_fake)
    assert loss.item() < 1e-6


def test_generator_loss_values(rng):
    z_g = Tensor(rng.normal(size=(8, 6)))
    # D = 1/2 everywhere: -log(1/2) non-saturating, log(1 - 1/2) saturating
    for saturating, want in ((False, math.log(2)), (True, -math.log(2))):
        stack = make_stack(rng, {"speech": 4, "text": 5}, saturating=saturating)
        mod = stack.modules["text"]
        for p in mod.discriminator.parameters().values():
            p.data[...] = 0.0
        assert mod.generator_loss(forward_of(z_g)).item() == pytest.approx(want, abs=1e-12)


def test_mean_softplus_exact_at_extreme_logits():
    """log(1 + e^x) is x at x = 800 and 0 at x = -800, where e^800
    overflows; the gradient sigmoid(x) / n is 1/2 and 0, with no floor."""
    x = Tensor(np.array([800.0, -800.0]), requires_grad=True)
    out = ad.mean_softplus(x)
    assert out.item() == 400.0
    out.backward()
    assert x.grad.tolist() == [0.5, 0.0]


def test_generator_gets_gradient_from_confident_discriminator(rng):
    """A discriminator sure that z_g is fake (logit -39.5, D = 7e-18) is the
    regime the non-saturating loss exists for: -log D(z_g) = log(1 + e^39.5)
    exactly, and each row of z_g gets -sigmoid(39.5) / 4, not a floored 0."""
    stack = make_stack(rng, {"speech": 4, "text": 5})
    d = stack.modules["text"].discriminator
    for p in d.parameters().values():
        p.data[...] = 0.0
    d.fc1.W.data[0, 0] = d.fc2.W.data[0, 0] = 1.0     # logit = z_g[:, 0] - 40
    d.fc2.b.data[...] = -40.0
    z_g = Tensor(np.full((4, 6), 0.5), requires_grad=True)
    loss = stack.modules["text"].generator_loss(forward_of(z_g))
    assert loss.item() == pytest.approx(39.5, rel=1e-15)
    loss.backward()
    np.testing.assert_allclose(z_g.grad[:, 0], -0.25, rtol=1e-15)
    assert not z_g.grad[:, 1:].any()


def test_discriminator_loss_gradient_isolation(rng):
    dims = {"video": 3, "speech": 4, "text": 5}
    stack = make_stack(rng, dims)
    bundle = make_bundle(rng, dims)
    fwd = stack.modules["text"].gan_forward(bundle, rng)
    stack.zero_grads()
    stack.modules["text"].discriminator_loss(fwd.z_tr, fwd.z_g).backward()
    params = stack.parameters()
    for name, p in params.items():
        if name.startswith("text.discriminator."):
            assert p.grad is not None, name
        else:
            assert p.grad is None, name
    for latent in bundle.latents.values():
        assert latent.grad is None
    assert any(n.startswith("text.discriminator.") for n in params)  # sanity


def test_generator_loss_gradient_isolation(rng):
    dims = {"speech": 4, "text": 5}
    stack = make_stack(rng, dims)
    bundle = make_bundle(rng, dims)
    fwd = stack.modules["text"].gan_forward(bundle, rng)
    stack.zero_grads()
    stack.modules["text"].generator_loss(fwd).backward()
    for name, p in stack.parameters().items():
        if name.startswith("text.generator."):
            assert p.grad is not None, name
        else:
            assert p.grad is None, name
    # gradient reaches the upstream (encoder-side) latent
    assert bundle.latents["text"].grad is not None
    assert bundle.latents["speech"].grad is None


def test_fusion_loss_sums_modules_and_inner_losses(rng):
    dims = {"video": 3, "speech": 4, "text": 5}
    stack = make_stack(rng, dims, sigma=0.0)
    bundle = make_bundle(rng, dims)
    forwards = stack.gan_forwards(bundle, None)
    out = stack.compose(forwards)
    expect = 0.0
    for f in forwards:
        expect += stack.modules[f.name].generator_loss(f).item()
        expect += f.inner_loss.item()
    assert out.j_fusion.item() == pytest.approx(expect, rel=1e-12)


def test_gan_module_gradcheck(rng):
    dims = {"speech": 3, "text": 4}
    stack = make_stack(rng, dims, d_fuse=3, sigma=0.0)
    mod = stack.modules["text"]
    z_t = Tensor(rng.uniform(-1, 1, size=(2, 4)), requires_grad=True)
    z_s = Tensor(rng.uniform(-1, 1, size=(2, 3)), requires_grad=True)

    def fn(ts):
        bundle = LatentBundle(latents={"speech": ts[1], "text": ts[0]},
                              text_states=Tensor(np.zeros((2, 1, 4))),
                              text_mask=np.ones((2, 1)))
        fwd = mod.gan_forward(bundle, None)
        return mod.generator_loss(fwd) + ad.sum(fwd.z_tr * fwd.z_tr)

    params = [t for n, t in sorted(mod.parameters().items())
              if not n.startswith("discriminator.")]
    check_gradients(fn, [z_t, z_s] + params)


def test_trained_discriminator_separates_clouds(rng):
    # well separated 2-d gaussians: D should classify nearly perfectly
    stack = GanFusionStack({"speech": 2, "text": 2}, d_fuse=2, d_noise=2,
                           d_disc_hidden=16, noise_sigma=1.0, rng=rng)
    mod = stack.modules["text"]
    d_params = mod.discriminator.parameters()
    state = layers.AdamState(lr=5e-3)
    for _ in range(400):
        real = Tensor(rng.normal(3.0, 0.5, size=(64, 2)))
        fake = Tensor(rng.normal(-3.0, 0.5, size=(64, 2)))
        mod.discriminator.zero_grads()
        mod.discriminator_loss(real, fake).backward()
        layers.adam_step(d_params, state)
    real = Tensor(rng.normal(3.0, 0.5, size=(256, 2)))
    fake = Tensor(rng.normal(-3.0, 0.5, size=(256, 2)))
    assert mod.discriminator_accuracy(real, fake) >= 0.95


def test_discriminator_accuracy_builds_no_graph(rng, monkeypatch):
    """With the logits that compose's generator loss kept, the accuracy runs
    one frozen D forward, on z_tr, builds no graph node and equals the
    share that two fresh D calls give."""
    stack = make_stack(rng, {"speech": 3, "text": 4})
    mod = stack.modules["text"]
    forwards = stack.gan_forwards(make_bundle(rng, {"speech": 3, "text": 4}), rng)
    stack.compose(forwards)
    fwd = forwards[stack.order.index("text")]
    d_real = mod.discriminator(fwd.z_tr).data
    d_fake = mod.discriminator(fwd.z_g).data
    assert fwd.fake_logits.tobytes() == d_fake.tobytes()
    expect = float(((d_real > 0.0).sum() + (d_fake <= 0.0).sum()) / 8)
    tracked, inputs = [], []
    make, call = ad._make, layers.MLP.__call__

    def spy(data, parents, backward_fn):
        out = make(data, parents, backward_fn)
        tracked.append(out.requires_grad)
        return out

    def counted(net, x, frozen=False):
        inputs.append(x.data)
        return call(net, x, frozen)

    monkeypatch.setattr(ad, "_make", spy)
    monkeypatch.setattr(layers.MLP, "__call__", counted)
    assert mod.discriminator_accuracy(fwd.z_tr, fwd.z_g, fwd.fake_logits) == expect
    assert tracked and not any(tracked)
    assert len(inputs) == 1 and inputs[0] is fwd.z_tr.data
    assert mod.discriminator_accuracy(fwd.z_tr, fwd.z_g) == expect
    assert len(inputs) == 3
