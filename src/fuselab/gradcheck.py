"""Central finite-difference gradient verification, and the table of ops and
layers it is run on."""

from __future__ import annotations

import zlib

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .autofusion import AutoFusionNet
from .encoders import LatentBundle, TextEncoder, VectorEncoder
from .ganfusion import GanFusionModule
from .heads import AttentiveDecoder
from .layers import MLP, Affine, LSTMCell
from .vocab import EOS, PAD


def numeric_grad(fn, tensors: list[Tensor], wrt: int, h: float = 1e-5) -> np.ndarray:
    """Central-difference d fn / d tensors[wrt]; fn maps tensors -> scalar Tensor."""
    target = tensors[wrt]
    grad = np.zeros_like(target.data)
    flat = target.data.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        plus = fn(tensors).item()
        flat[i] = orig - h
        minus = fn(tensors).item()
        flat[i] = orig
        gflat[i] = (plus - minus) / (2.0 * h)
    return grad


def check_gradients(fn, tensors: list[Tensor], h: float = 1e-5,
                    rel_tol: float = 1e-4, abs_tol: float = 1e-7) -> float:
    """Run fn forward+backward, compare every input grad to finite differences.

    Returns the worst relative error seen; raises AssertionError on failure.
    """
    for t in tensors:
        t.zero_grad()
    loss = fn(tensors)
    loss.backward()
    worst = 0.0
    for i, t in enumerate(tensors):
        if not t.requires_grad:
            continue
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        numeric = numeric_grad(fn, tensors, i, h=h)
        denom = np.maximum(np.abs(numeric), np.abs(analytic))
        err = np.abs(analytic - numeric)
        rel = np.where(denom > abs_tol / rel_tol, err / np.maximum(denom, 1e-300), 0.0)
        ok = (err <= abs_tol) | (rel <= rel_tol)
        if not ok.all():
            bad = np.unravel_index(int(np.argmax(rel)), t.shape) if t.shape else ()
            raise AssertionError(
                f"gradient mismatch on input {i} at {bad}: "
                f"analytic {analytic[bad] if t.shape else analytic}, "
                f"numeric {numeric[bad] if t.shape else numeric}")
        if rel.size:
            worst = max(worst, float(rel.max()))
    return worst


def gradcheck_cases():
    """(name, builder) pairs, one per differentiable op or composed layer.

    Each builder takes a Generator and returns (fn, tensors) for one random
    case. The acceptance suite (criterion 1) and ``fuselab gradcheck`` both
    run this table.
    """

    def t(rng, *shape, lo=-1.0, hi=1.0):
        return Tensor(rng.uniform(lo, hi, size=shape), requires_grad=True)

    def sq(x):          # most cases sum a squared output into the scalar
        return x * x

    def elementwise(op, **kw):
        def build(rng):
            return (lambda ts: ad.sum(op(ts[0], **kw)), [t(rng, 3, 4)])
        return build

    def build_add(rng):
        return (lambda ts: ad.sum(sq(ts[0] + ts[1])), [t(rng, 3, 4), t(rng, 4)])

    def build_sub(rng):
        return (lambda ts: ad.sum(sq(ts[0] - ts[1])), [t(rng, 3, 4), t(rng, 3, 4)])

    def build_mul(rng):
        return (lambda ts: ad.sum(ts[0] * ts[1]), [t(rng, 3, 4), t(rng, 4)])

    def build_concat(rng):
        return (lambda ts: ad.sum(sq(ad.concat([ts[0], ts[1]], axis=1))),
                [t(rng, 3, 2), t(rng, 3, 3)])

    def build_reshape(rng):
        return (lambda ts: ad.sum(sq(ad.reshape(ts[0], (2, 6)))),
                [t(rng, 3, 4)])

    def build_sum_axis(rng):
        return (lambda ts: ad.sum(sq(ad.sum(ts[0], axis=1))), [t(rng, 3, 4)])

    def build_mean(rng):
        return (lambda ts: ad.mean(sq(ts[0])), [t(rng, 3, 4)])

    def build_mean_softplus(rng):
        return (lambda ts: ad.mean_softplus(ts[0]), [t(rng, 3, 4, lo=-5.0, hi=5.0)])

    def build_mean_softplus_neg(rng):
        return (lambda ts: ad.mean_softplus(ts[0], sign=-1.0),
                [t(rng, 3, 4, lo=-5.0, hi=5.0)])

    def build_affine(rng):
        layer = Affine(3, 2, rng)
        x = t(rng, 4, 3)
        return (lambda ts: ad.sum(sq(ad.affine(ts[0], ts[1], ts[2]))),
                [x, layer.W, layer.b])

    def mlp(frozen):
        def build(rng):
            net = MLP(3, 4, 2, rng)
            x = t(rng, 5, 3)

            def fn(ts):
                return ad.sum(sq(net(ts[0], frozen=frozen)))

            # a frozen call's parameters get no gradient, so only x is checked
            return (fn, [x] if frozen else [x, net.fc1.W, net.fc1.b, net.fc2.W, net.fc2.b])
        return build

    def build_vector_encoder(rng):
        enc = VectorEncoder(3, 2, rng)
        features = rng.normal(1.0, 2.0, size=(4, 3))
        enc.fit_normalization(features)
        return (lambda ts: ad.sum(sq(enc(features))), [enc.proj.W, enc.proj.b])

    def build_text_encoder(rng):
        enc = TextEncoder(6, 2, 2, rng)
        ids = rng.integers(0, 6, size=(2, 3))
        lengths = np.array([3, 1])      # row 1 is padded after its first step
        w = Tensor(rng.normal(size=(2, 3, 2)))

        def fn(ts):
            z, states, _ = enc(ids, lengths)
            return ad.sum(sq(z)) + ad.sum(states * w)

        return (fn, [enc.embed.table, enc.cell.W, enc.cell.U, enc.cell.b])

    def build_lstm_step(rng):
        cell = LSTMCell(2, 2, rng)
        x, h, c = t(rng, 3, 2), t(rng, 3, 2), t(rng, 3, 2)

        def fn(ts):     # one step: a sequence of length one
            return ad.sum(sq(cell.sequence(ad.reshape(ts[0], (3, 1, 2)), ts[1], ts[2])))

        return (fn, [x, h, c, cell.W, cell.U, cell.b])

    def build_lstm_sequence(rng):
        cell = LSTMCell(2, 2, rng)
        x, h0, c0 = t(rng, 2, 3, 2), t(rng, 2, 2), t(rng, 2, 2)
        w = Tensor(rng.normal(size=(2, 3, 2)))  # weighs each hidden state

        def fn(ts):
            return ad.sum(sq(cell.sequence(ts[0], ts[1], ts[2])) * w)

        return (fn, [x, h0, c0, cell.W, cell.U, cell.b])

    def build_attention_readout(rng):
        dec = AttentiveDecoder(5, 2, 2, 3, 2, rng)
        hs = t(rng, 2, 3, 2)        # two rows of three decoder steps
        states = t(rng, 2, 4, 3)
        mask = np.array([[1.0, 1.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0]])

        def fn(ts):
            return ad.sum(sq(dec._readout(ts[0], ts[1], mask)))

        return (fn, [hs, states, dec.attn_W, dec.out.W, dec.out.b])

    def build_teacher_forced_loss(rng):
        dec = AttentiveDecoder(5, 2, 2, 2, 2, rng)
        z = t(rng, 2, 2)
        states = t(rng, 2, 3, 2)
        mask = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0]])
        targets = np.array([[3, 4, EOS], [4, EOS, PAD]])

        def fn(ts):
            return dec.teacher_forced_loss(ts[0], ts[1], mask, targets)

        return (fn, [z, states] + list(dec.parameters().values()))

    def build_autofusion(rng):
        net = AutoFusionNet([2, 3], 2, rng)
        a, b = t(rng, 3, 2), t(rng, 3, 3)

        def fn(ts):
            out = net([ts[0], ts[1]])
            return out.j_fusion + ad.sum(sq(out.z_fuse))

        return (fn, [a, b, net.compress.W, net.reconstruct.W])

    def build_ganfusion(rng):
        mod = GanFusionModule("text", 2, [("speech", 2)], 2, 2, 3, 0.0, rng)
        zt, zs = t(rng, 3, 2), t(rng, 3, 2)

        def fn(ts):
            bundle = LatentBundle(latents={"speech": ts[1], "text": ts[0]},
                                  text_states=Tensor(np.zeros((3, 1, 2))),
                                  text_mask=np.ones((3, 1)))
            fwd = mod.gan_forward(bundle, None)
            return mod.generator_loss(fwd) + ad.sum(sq(fwd.z_g))

        return (fn, [zt, zs, mod.generator.fc1.W, mod.generator.fc2.W])

    def build_discriminator_loss(rng):
        mod = GanFusionModule("text", 2, [("speech", 2)], 2, 2, 3, 0.0, rng)
        z_tr = Tensor(rng.normal(size=(4, 2)))
        z_g = Tensor(rng.normal(size=(4, 2)))

        def fn(ts):
            return mod.discriminator_loss(z_tr, z_g)

        return (fn, [mod.discriminator.fc1.W, mod.discriminator.fc1.b,
                     mod.discriminator.fc2.W, mod.discriminator.fc2.b])

    return [
        ("add", build_add), ("sub", build_sub), ("mul", build_mul),
        ("tanh", elementwise(ad.tanh)), ("leaky_relu", elementwise(ad.leaky_relu, alpha=0.2)),
        ("concat", build_concat), ("reshape", build_reshape),
        ("sum", build_sum_axis), ("mean", build_mean), ("mean_softplus", build_mean_softplus),
        ("mean_softplus_neg", build_mean_softplus_neg),
        ("affine", build_affine), ("mlp", mlp(False)), ("mlp_frozen", mlp(True)),
        ("vector_encoder", build_vector_encoder), ("text_encoder", build_text_encoder),
        ("lstm_step", build_lstm_step),
        ("lstm_sequence", build_lstm_sequence),
        ("attention_readout", build_attention_readout),
        ("teacher_forced_loss", build_teacher_forced_loss),
        ("autofusion", build_autofusion), ("ganfusion", build_ganfusion),
        ("discriminator_loss", build_discriminator_loss),
    ]


def run_gradchecks(repeats: int, seed: int = 0) -> tuple[float, list[str]]:
    """Check `repeats` random cases of every table entry.

    Each entry draws from its own Generator, seeded by the entry name's CRC32
    plus `seed`. Returns the worst relative error over the cases that passed
    and one "name: message" line per case that failed.
    """
    worst = 0.0
    failed: list[str] = []
    for name, build in gradcheck_cases():
        rng = np.random.default_rng(zlib.crc32(name.encode()) + seed)
        for _ in range(repeats):
            fn, tensors = build(rng)
            try:
                worst = max(worst, check_gradients(fn, tensors))
            except AssertionError as exc:
                failed.append(f"{name}: {exc}")
    return worst, failed
