"""Graph-size budgets for the translation path and the GAN-Fusion step.

The encoder and the teacher-forced decoder run each sequence as one LSTM
node and batch the per-step math over all steps, so the graph they build does
not grow with the sequence length; a change that adds per-step work fails
here. Greedy decoding runs on arrays and builds no node at all. An affine
layer is one node, bias add included, and so are each MLP call (affine,
LeakyReLU, affine), each vector encoder call (standardise, affine, tanh), the
decoder's attention and output layer, and each adversarial loss term on a
discriminator logit, whatever its sign; the text encoder reads its states out
in two nodes. So a GAN-Fusion step builds a fixed number of nodes; a layer
split back into several fails here. Every public graph op is built by some
model's training step, so an op no model runs fails here.
"""

import inspect

import numpy as np

from fuselab import autodiff as ad
from fuselab import data as data_mod
from fuselab import harness
from fuselab.autodiff import Tensor
from fuselab.config import ExperimentConfig
from fuselab.encoders import TextEncoder
from fuselab.heads import AttentiveDecoder
from fuselab.vocab import EOS, PAD


def graph(loss: Tensor) -> list[Tensor]:
    """``loss`` and the tensors reachable from it through grad-tracking parents."""
    seen = {id(loss): loss}
    stack = [loss]
    while stack:
        for parent in stack.pop()._parents:
            if parent.requires_grad and id(parent) not in seen:
                seen[id(parent)] = parent
                stack.append(parent)
    return list(seen.values())


def test_text_encoder_nodes_per_source_step():
    enc = TextEncoder(vocab_size=10, embed_dim=4, hidden=5,
                      rng=np.random.default_rng(0))

    def nodes(L):
        ids = np.full((2, L), 4)
        z, states, _ = enc(ids, np.array([L, 2]))
        return len(graph(ad.sum(z) + ad.sum(states)))

    assert nodes(5) == nodes(4)


def test_teacher_forced_loss_nodes_per_target_step():
    rng = np.random.default_rng(0)
    dec = AttentiveDecoder(vocab_size=9, embed_dim=4, hidden=5, enc_hidden=6,
                           d_fuse=3, rng=rng)
    # as in a model, the encoder states and the fused vector carry gradients
    states = Tensor(rng.normal(size=(2, 3, 6)), requires_grad=True)
    z = Tensor(rng.normal(size=(2, 3)), requires_grad=True)

    def nodes(T):
        # row 0 fills all T steps; row 1 ends after two and is PAD after that
        targets = np.full((2, T), PAD)
        targets[0, :-1] = 5
        targets[0, -1] = EOS
        targets[1, :2] = [5, EOS]
        return len(graph(dec.teacher_forced_loss(z, states, np.ones((2, 3)), targets)))

    assert nodes(5) == nodes(4)


def test_greedy_decode_builds_no_node(monkeypatch):
    rng = np.random.default_rng(0)
    dec = AttentiveDecoder(vocab_size=9, embed_dim=4, hidden=5, enc_hidden=6,
                           d_fuse=3, rng=rng, condition_every_step=True)
    states = Tensor(rng.normal(size=(3, 4, 6)), requires_grad=True)
    z = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
    mask = np.ones((3, 4))
    mask[1, 2:] = 0.0
    made = []
    make = ad._make

    def counted(*args):
        made.append(1)
        return make(*args)

    monkeypatch.setattr(ad, "_make", counted)
    out = dec.decode_greedy(z, states, mask, max_len=6)
    assert len(out) == 3 and made == []
    dec.teacher_forced_loss(z, states, mask, np.array([[5, EOS]] * 3))
    assert made                     # the counter does see graph ops


def one_step_losses(tmp_path, monkeypatch, samples, **cfg) -> list[Tensor]:
    """The losses one training step backpropagates, for a run whose whole
    train split (the first 8 samples) is one batch."""
    paths = {}
    for name, part in (("train", samples[:8]), ("val", samples[8:])):
        paths[name] = str(tmp_path / f"{name}.tsv")
        data_mod.write_dataset(paths[name], part)
    losses = []
    backward = ad.backward

    def recorded(loss):
        losses.append(loss)
        backward(loss)

    monkeypatch.setattr(ad, "backward", recorded)
    harness.train(ExperimentConfig(epochs=1, batch_size=8, train_path=paths["train"],
                                   val_path=paths["val"], **cfg))
    monkeypatch.undo()
    return losses


XOR_GAN = dict(task="classification", fusion="gan", modalities=("video", "speech"),
               noise_sigma=1.0, seed=5)


def test_video_speech_gan_step_nodes(tmp_path, monkeypatch):
    losses = one_step_losses(tmp_path, monkeypatch,
                             data_mod.gen_interaction_dataset(12, seed=3, noise=0.3), **XOR_GAN)
    assert [len(graph(loss)) for loss in losses] == [19, 36]   # d_loss, then j_total


def test_translation_gan_step_nodes(tmp_path, monkeypatch):
    """Trimodal translation GAN: each MLP call, each LSTM sequence, the
    decoder's attention and output layer, and each adversarial loss term
    are one node, so the whole step builds 29 + 101 nodes."""
    losses = one_step_losses(tmp_path, monkeypatch, data_mod.gen_toy_translation(12, seed=3),
                             task="translation", fusion="gan")
    assert [len(graph(loss)) for loss in losses] == [29, 101]  # d_loss, then j_total


def test_every_graph_op_runs_in_a_model(tmp_path, monkeypatch):
    """Each public autodiff op that builds a graph node is built by the
    training step of XOR GAN, trimodal translation GAN, XOR Auto-Fusion or
    concat fusion, the last also with the hinge loss; an op no model runs
    fails here. Only the knob paths build ``reshape``: the hinge loss and
    the decoder's ``condition_every_step`` input. Only the hinge loss
    builds ``leaky_relu``."""
    xor = data_mod.gen_interaction_dataset(12, seed=3, noise=0.3)
    runs = [(xor, XOR_GAN),
            (data_mod.gen_toy_translation(12, seed=3), dict(task="translation", fusion="gan")),
            (xor, dict(XOR_GAN, fusion="auto")), (xor, dict(XOR_GAN, fusion="concat")),
            (xor, dict(XOR_GAN, fusion="concat", classification_loss="hinge"))]
    built = set()
    for k, (samples, cfg) in enumerate(runs):
        (tmp_path / str(k)).mkdir()
        for loss in one_step_losses(tmp_path / str(k), monkeypatch, samples, **cfg):
            # an op's node keeps its backward closure, named "<op>.<locals>.bw"
            built.update(t._backward.__qualname__.split(".")[0] for t in graph(loss)
                         if t._backward is not None)
    ops = {name for name, fn in vars(ad).items()
           if inspect.isfunction(fn) and not name.startswith("_")
           and fn.__module__ == ad.__name__ and "_make" in fn.__code__.co_names}
    assert ops >= {"add", "affine", "reshape"}
    assert ops - built == set()
