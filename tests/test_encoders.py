import numpy as np
import pytest

from fuselab import autodiff as ad
from fuselab.autodiff import DimensionError, Tensor
from fuselab.encoders import LatentBundle, TextEncoder, VectorEncoder
from fuselab.gradcheck import check_gradients


@pytest.fixture
def rng():
    return np.random.default_rng(11)


def test_single_step_latent_equals_state(rng):
    enc = TextEncoder(vocab_size=10, embed_dim=4, hidden=5, rng=rng)
    z, states, mask = enc(np.array([[7]]), np.array([1]))
    np.testing.assert_array_equal(z.data, states.data[:, 0, :])
    np.testing.assert_array_equal(mask, [[1.0]])


def test_identical_rows_identical_latents(rng):
    enc = TextEncoder(vocab_size=10, embed_dim=4, hidden=5, rng=rng)
    ids = np.array([[4, 5, 6], [4, 5, 6]])
    z, _, _ = enc(ids, np.array([3, 3]))
    np.testing.assert_array_equal(z.data[0], z.data[1])


def test_padding_invariance(rng):
    enc = TextEncoder(vocab_size=10, embed_dim=4, hidden=5, rng=rng)
    z_short, _, _ = enc(np.array([[4, 5, 6]]), np.array([3]))
    z_padded, states, mask = enc(np.array([[4, 5, 6, 0, 9]]), np.array([3]))
    np.testing.assert_array_equal(z_short.data, z_padded.data)
    np.testing.assert_array_equal(states.data[:, 3:, :], 0.0)
    np.testing.assert_array_equal(mask[0], [1, 1, 1, 0, 0])


def test_padding_gets_no_gradient(rng):
    """Padding steps run through the cell but reach neither the outputs nor
    any parameter gradient."""
    enc = TextEncoder(vocab_size=10, embed_dim=4, hidden=5, rng=rng)

    def grads(ids):
        enc.zero_grads()
        z, states, _ = enc(np.array([ids]), np.array([3]))
        (ad.sum(z * z) + ad.sum(states)).backward()
        return {n: t.grad.copy() for n, t in enc.parameters().items()}

    short, padded = grads([4, 5, 6]), grads([4, 5, 6, 0, 9])
    for name in short:
        np.testing.assert_array_equal(short[name], padded[name], err_msg=name)
    np.testing.assert_array_equal(padded["embed.table"][[0, 9]], 0.0)


def test_out_of_vocab_rejected(rng):
    enc = TextEncoder(vocab_size=10, embed_dim=4, hidden=5, rng=rng)
    with pytest.raises(IndexError):
        enc(np.array([[10]]), np.array([1]))


def test_zero_length_rejected(rng):
    enc = TextEncoder(vocab_size=10, embed_dim=4, hidden=5, rng=rng)
    with pytest.raises(ValueError):
        enc(np.array([[1, 2]]), np.array([0]))


def test_text_encoder_gradcheck_four_steps(rng):
    enc = TextEncoder(vocab_size=6, embed_dim=3, hidden=4, rng=rng)
    ids = np.array([[1, 2, 3, 4], [5, 4, 0, 0]])
    lengths = np.array([4, 2])

    def fn(ts):
        z, states, _ = enc(ids, lengths)
        return ad.sum(z) + ad.mean(states)

    check_gradients(fn, list(enc.parameters().values()))


def test_vector_encoder_zero_input(rng):
    enc = VectorEncoder(4, 3, rng)
    enc.proj.b.data[...] = 0.0
    out = enc(np.zeros((2, 4)))
    np.testing.assert_array_equal(out.data, 0.0)


def test_vector_encoder_output_width_and_bounds(rng):
    enc = VectorEncoder(6, 5, rng)
    out = enc(rng.normal(0, 10, size=(8, 6)))
    assert out.shape == (8, 5)
    assert np.all(np.abs(out.data) <= 1.0)


def test_vector_encoder_width_mismatch(rng):
    with pytest.raises(DimensionError):
        VectorEncoder(6, 5, rng)(np.zeros((2, 4)))


def test_standardizer_roundtrip(rng):
    feats = rng.normal(3.0, 5.0, size=(500, 4))
    feats[:, 3] = 7.0  # a constant feature keeps std 1 instead of dividing by 0
    enc = VectorEncoder(4, 2, rng)
    enc.fit_normalization(feats)
    out = (feats - enc.norm_mean) / enc.norm_std
    np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(out[:, :3].var(axis=0), 1.0, atol=1e-10)
    assert enc.norm_std[3] == 1.0


def test_fit_normalization_frozen(rng):
    enc = VectorEncoder(3, 2, rng)
    train = rng.normal(5.0, 2.0, size=(200, 3))
    enc.fit_normalization(train)
    mean_before = enc.norm_mean.copy()
    enc(rng.normal(-5.0, 1.0, size=(50, 3)))
    np.testing.assert_array_equal(enc.norm_mean, mean_before)


def test_latent_bundle_requires_modality():
    with pytest.raises(ValueError):
        LatentBundle(latents={})


def test_latent_bundle_text_needs_states():
    with pytest.raises(ValueError):
        LatentBundle(latents={"text": Tensor(np.zeros((1, 2)))})


def grads_of(params, loss):
    for p in params:
        p.zero_grad()
    loss.backward()
    return [p.grad.tobytes() for p in params]


def test_text_readout_matches_mask_and_one_hot_sum_bitwise(rng):
    """The readout gives the bytes of the composition it replaced: the
    hidden states times the mask, then a one-hot multiply summed over
    steps."""
    enc = TextEncoder(vocab_size=8, embed_dim=3, hidden=4, rng=rng)
    params = list(enc.parameters().values())
    ids, lengths = rng.integers(0, 8, size=(3, 5)), np.array([5, 2, 1])
    w_z, w_s = Tensor(rng.normal(size=(3, 4))), Tensor(rng.normal(size=(3, 5, 4)))
    z, states, mask = enc(ids, lengths)
    new = [z.data.tobytes(), states.data.tobytes()]
    new += grads_of(params, ad.sum(z * w_z) + ad.sum(states * w_s))

    hs = enc.cell.sequence(enc.embed(ids), *enc.cell.zero_state(3))
    states = hs * Tensor(mask[:, :, None])
    last = (np.arange(5)[None, :] == lengths[:, None] - 1).astype(np.float64)
    z = ad.sum(states * Tensor(last[:, :, None]), axis=1)
    old = [z.data.tobytes(), states.data.tobytes()]
    old += grads_of(params, ad.sum(z * w_z) + ad.sum(states * w_s))
    assert new == old


def test_vector_encoder_matches_affine_then_tanh_bitwise(rng):
    enc = VectorEncoder(4, 3, rng)
    enc.fit_normalization(rng.normal(2.0, 3.0, size=(20, 4)))
    params = [enc.proj.W, enc.proj.b]
    feats, w = rng.normal(2.0, 3.0, size=(6, 4)), Tensor(rng.normal(size=(6, 3)))
    out = enc(feats)
    new = [out.data.tobytes()] + grads_of(params, ad.sum(out * w))
    out = ad.tanh(enc.proj(Tensor((feats - enc.norm_mean) / enc.norm_std)))
    old = [out.data.tobytes()] + grads_of(params, ad.sum(out * w))
    assert new == old


@pytest.mark.parametrize("lengths", [[3, 9, 1, 7, 9, 2, 5, 4], [6], [5, 5, 5], [9, 1]],
                         ids=["unsorted_ragged", "one_row", "equal_lengths", "long_and_one"])
def test_infer_equals_call_bitwise(rng, lengths):
    """At the model's widths, infer gives __call__'s bytes in z, states and
    mask. A state past a row's length is +0.0 from infer and a zero of
    either sign from __call__, so states are compared after adding +0.0.
    With lengths (L, 1), one row is live for L - 1 steps, which the two-row
    floor keeps off the matrix-vector path."""
    enc = TextEncoder(vocab_size=30, embed_dim=16, hidden=64, rng=rng)
    lengths = np.array(lengths)
    ids = rng.integers(0, 30, size=(len(lengths), lengths.max() + 1))
    z, states, mask = enc(ids, lengths)
    z_i, states_i, mask_i = enc.infer(ids, lengths)
    assert not (z_i.requires_grad or states_i.requires_grad)
    assert [z_i.data.tobytes(), states_i.data.tobytes(), mask_i.tobytes()] == \
        [z.data.tobytes(), (states.data + 0.0).tobytes(), mask.tobytes()]


@pytest.mark.parametrize("ids, lengths", [([[4, 5]], [0]), ([[4, 5], [6, 7]], [2, 3]),
                                          ([[4, 5], [6, 10]], [2, 2])],
                         ids=["length_zero", "length_past_L", "id_out_of_vocab"])
def test_infer_raises_what_call_raises(rng, ids, lengths):
    enc = TextEncoder(vocab_size=10, embed_dim=4, hidden=8, rng=rng)
    raised = []
    for forward in (enc, enc.infer):
        with pytest.raises((ValueError, IndexError)) as info:
            forward(np.array(ids), np.array(lengths))
        raised.append((info.type, str(info.value)))
    assert raised[0] == raised[1]
