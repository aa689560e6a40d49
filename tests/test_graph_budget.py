"""Graph-size budgets for the translation path and the GAN-Fusion step.

The encoder and the teacher-forced decoder run each sequence as one LSTM
node and batch the per-step math over all steps, so the graph they build does
not grow with the sequence length; a change that adds per-step work fails
here. Greedy decoding runs on arrays and builds no node at all. An affine
layer is one node, bias add included, so a GAN-Fusion step builds a fixed
number of nodes; a layer split back into two fails here.
"""

import numpy as np

from fuselab import autodiff as ad
from fuselab import data as data_mod
from fuselab import harness
from fuselab.autodiff import Tensor
from fuselab.config import ExperimentConfig
from fuselab.encoders import TextEncoder
from fuselab.heads import AttentiveDecoder
from fuselab.vocab import EOS, PAD


def graph_size(loss: Tensor) -> int:
    """Tensors reachable from ``loss`` through grad-tracking parents."""
    seen = {id(loss)}
    stack = [loss]
    while stack:
        for parent in stack.pop()._parents:
            if parent.requires_grad and id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def test_text_encoder_nodes_per_source_step():
    enc = TextEncoder(vocab_size=10, embed_dim=4, hidden=5,
                      rng=np.random.default_rng(0))

    def nodes(L):
        ids = np.full((2, L), 4)
        z, states, _ = enc(ids, np.array([L, 2]))
        return graph_size(ad.sum(z) + ad.sum(states))

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
        return graph_size(dec.teacher_forced_loss(z, states, np.ones((2, 3)), targets))

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
    dec.decode_step(np.full(3, 2), *dec.init_state(z), z, states, mask)
    assert made                     # the counter does see graph ops


def test_video_speech_gan_step_nodes(tmp_path, monkeypatch):
    samples = data_mod.gen_interaction_dataset(12, seed=3, noise=0.3)
    paths = {}
    for name, part in (("train", samples[:8]), ("val", samples[8:])):
        paths[name] = str(tmp_path / f"{name}.tsv")
        data_mod.write_dataset(paths[name], part)
    sizes = []
    backward = ad.backward

    def counted(loss):
        sizes.append(graph_size(loss))
        backward(loss)

    monkeypatch.setattr(ad, "backward", counted)
    # one step: the whole train split is one batch
    harness.train(ExperimentConfig(
        task="classification", fusion="gan", modalities=("video", "speech"),
        epochs=1, batch_size=8, noise_sigma=1.0, seed=5,
        train_path=paths["train"], val_path=paths["val"]))
    assert sizes == [39, 56]        # d_loss, then j_total
