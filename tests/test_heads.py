import math

import numpy as np
import pytest

from fuselab import autodiff as ad
from fuselab import heads, layers
from fuselab.autodiff import DimensionError, Tensor
from fuselab.gradcheck import check_gradients
from fuselab.heads import AttentiveDecoder, ClassifierHead
from fuselab.vocab import EOS, PAD, SOS


@pytest.fixture
def rng():
    return np.random.default_rng(41)


def test_classifier_uniform_at_zero_weights(rng):
    head = ClassifierHead(5, 8, 4, rng)
    for p in head.parameters().values():
        p.data[...] = 0.0
    logits = head(Tensor(rng.normal(size=(3, 5))))
    loss = head.loss(logits, np.array([0, 1, 2]))
    assert loss.item() == pytest.approx(math.log(4), abs=1e-12)


def test_classifier_shape_contract(rng):
    head = ClassifierHead(5, 8, 4, rng)
    assert head(Tensor(rng.normal(size=(7, 5)))).shape == (7, 4)


def test_classifier_width_mismatch(rng):
    with pytest.raises(DimensionError):
        ClassifierHead(5, 8, 4, rng)(Tensor(np.zeros((2, 3))))


def test_classifier_hinge_flag(rng):
    head = ClassifierHead(3, 4, 3, rng, loss="hinge")
    logits = head(Tensor(rng.normal(size=(4, 3))))
    labels = np.array([0, 1, 2, 0])
    assert head.loss(logits, labels).item() == layers.multiclass_hinge(logits, labels).item()
    with pytest.raises(ValueError, match="unknown classification loss 'nope'"):
        ClassifierHead(3, 4, 3, rng, loss="nope")


def make_decoder(rng, **kw):
    return AttentiveDecoder(vocab_size=9, embed_dim=4, hidden=5, enc_hidden=6,
                            d_fuse=3, rng=rng, **kw)


def decode_step(dec, prev_tokens, h, c, z_fuse, states, mask):
    """One decoder step as a graph: the LSTM sequence at length one, then the
    fused readout. Returns (logits (b, V), h', c', attention weights (b, L)).
    The sequence keeps c' inside, so c' comes from the step it runs:
    ``step_into`` on the projection of the same input rows.
    No model runs it; it is the bitwise oracle of ``_array_step``."""
    b, hd = len(prev_tokens), dec.hidden
    x = dec._inputs(np.asarray(prev_tokens)[:, None], z_fuse)
    c_new = np.empty((b, hd))
    neg_w, neg_u = dec.cell.neg_weights()
    dec.cell.step_into(dec.cell.project(x.data[:, 0], neg_w), neg_u, h.data, c.data,
                       np.empty((4, b, hd)), np.empty((b, hd)), np.empty((b, hd)), c_new)
    h = ad.reshape(dec.cell.sequence(x, h, c), (b, hd))
    logits = dec._readout(ad.reshape(h, (b, 1, hd)), states, mask)
    weights = dec._attend(h.data, states.data, heads._mask_bias(mask))[2]
    return logits, h, Tensor(c_new), weights[:, 0]


def test_single_unmasked_position_gets_full_weight(rng):
    dec = make_decoder(rng)
    states = Tensor(rng.normal(size=(2, 4, 6)))
    mask = np.zeros((2, 4))
    mask[:, 2] = 1.0
    h, c = dec.init_state(Tensor(rng.normal(size=(2, 3))))
    _, _, _, w = decode_step(dec, np.array([SOS, SOS]), h, c,
                             Tensor(rng.normal(size=(2, 3))), states, mask)
    np.testing.assert_allclose(w[:, 2], 1.0, atol=1e-12)
    np.testing.assert_allclose(w[:, [0, 1, 3]], 0.0, atol=1e-12)


def test_uniform_scores_mean_context(rng):
    dec = make_decoder(rng)
    dec.attn_W.data[...] = 0.0  # all scores equal -> uniform attention
    states = Tensor(rng.normal(size=(1, 5, 6)))
    mask = np.ones((1, 5))
    z = Tensor(rng.normal(size=(1, 3)))
    h, c = dec.init_state(z)
    _, _, _, w = decode_step(dec, np.array([SOS]), h, c, z, states, mask)
    np.testing.assert_allclose(w, 0.2, atol=1e-12)


def test_attention_weights_sum_to_one(rng):
    dec = make_decoder(rng)
    states = Tensor(rng.normal(size=(3, 6, 6)))
    mask = (rng.random((3, 6)) > 0.3).astype(float)
    mask[:, 0] = 1.0
    z = Tensor(rng.normal(size=(3, 3)))
    h, c = dec.init_state(z)
    prev = np.array([SOS] * 3)
    for _ in range(4):
        _, h, c, w = decode_step(dec, prev, h, c, z, states, mask)
        np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_array_equal(w[mask == 0.0], 0.0)
        prev = np.array([4, 5, 6])


def test_all_positions_masked_rejected(rng):
    dec = make_decoder(rng)
    states = Tensor(rng.normal(size=(1, 3, 6)))
    z = Tensor(rng.normal(size=(1, 3)))
    h, c = dec.init_state(z)
    with pytest.raises(ValueError):
        decode_step(dec, np.array([SOS]), h, c, z, states, np.zeros((1, 3)))


def test_greedy_respects_max_len_and_determinism(rng):
    dec = make_decoder(rng)
    states = Tensor(rng.normal(size=(2, 4, 6)))
    mask = np.ones((2, 4))
    z = Tensor(rng.normal(size=(2, 3)))
    out1 = dec.decode_greedy(z, states, mask, max_len=7)
    out2 = dec.decode_greedy(z, states, mask, max_len=7)
    assert all(len(s) <= 7 for s in out1)
    assert out1 == out2


def test_teacher_forced_loss_ignores_padding(rng):
    dec = make_decoder(rng)
    states = Tensor(rng.normal(size=(2, 3, 6)))
    mask = np.ones((2, 3))
    z = Tensor(rng.normal(size=(2, 3)))
    t_short = np.array([[4, EOS, PAD], [5, 6, EOS]])
    loss = dec.teacher_forced_loss(z, states, mask, t_short)
    assert np.isfinite(loss.item())


def test_teacher_forced_loss_matches_per_step_reference(rng):
    """One cross-entropy over all steps equals the mean NLL over non-PAD
    positions of a step-by-step decode that holds each row's last token."""
    dec = make_decoder(rng)
    states = Tensor(rng.normal(size=(3, 4, 6)))
    mask = np.array([[1, 1, 1, 1], [1, 1, 0, 0], [1, 1, 1, 0]], dtype=float)
    z = Tensor(rng.normal(size=(3, 3)))
    targets = np.array([[4, 5, 6, 7, EOS], [8, EOS, PAD, PAD, PAD],
                        [6, 4, EOS, PAD, PAD]])

    h, c = dec.init_state(z)
    prev = np.full(3, SOS)
    nll, count = 0.0, 0
    for j in range(targets.shape[1]):
        logits, h, c, _ = decode_step(dec, prev, h, c, z, states, mask)
        log_p = logits.data - logits.data.max(axis=1, keepdims=True)
        log_p -= np.log(np.exp(log_p).sum(axis=1, keepdims=True))
        valid = targets[:, j] != PAD
        nll -= log_p[np.arange(3), targets[:, j]][valid].sum()
        count += int(valid.sum())
        prev = np.where(valid, targets[:, j], prev)

    loss = dec.teacher_forced_loss(z, states, mask, targets)
    assert loss.item() == pytest.approx(nll / count, rel=1e-12)


def test_decoder_gradcheck(rng):
    dec = AttentiveDecoder(vocab_size=5, embed_dim=2, hidden=3, enc_hidden=3,
                           d_fuse=2, rng=rng)
    states = Tensor(rng.uniform(-1, 1, size=(2, 2, 3)), requires_grad=True)
    z = Tensor(rng.uniform(-1, 1, size=(2, 2)), requires_grad=True)
    mask = np.ones((2, 2))
    targets = np.array([[4, EOS], [4, EOS]])

    def fn(ts):
        return dec.teacher_forced_loss(ts[0], ts[1], mask, targets)

    check_gradients(fn, [z, states] + list(dec.parameters().values()))


def test_readout_gradcheck(rng):
    """The fused attention and output layer over T > 1 steps, ragged mask."""
    dec = make_decoder(rng)
    hs = Tensor(rng.uniform(-1, 1, size=(3, 4, 5)), requires_grad=True)
    states = Tensor(rng.uniform(-1, 1, size=(3, 5, 6)), requires_grad=True)
    mask = np.array([[1, 1, 1, 1, 1], [1, 1, 0, 0, 0], [1, 0, 0, 0, 0]], dtype=float)
    weight = Tensor(rng.normal(size=(12, 9)))
    check_gradients(lambda ts: ad.sum(dec._readout(ts[0], ts[1], mask) * weight),
                    [hs, states, dec.attn_W, dec.out.W, dec.out.b])


def test_readout_skips_operand_without_grad(rng):
    """Frozen encoder states get no grad, and every other operand's grad is
    bit-identical to the one it gets when the states require grad."""
    dec = make_decoder(rng)
    hs_data, st_data = rng.normal(size=(2, 3, 5)), rng.normal(size=(2, 4, 6))
    mask = np.array([[1, 1, 0, 0], [1, 1, 1, 1]], dtype=float)
    weight = Tensor(rng.normal(size=(6, 9)))
    params = [dec.attn_W, dec.out.W, dec.out.b]

    def grads(states_grad):
        hs = Tensor(hs_data, requires_grad=True)
        states = Tensor(st_data, requires_grad=states_grad)
        for p in params:
            p.zero_grad()
        ad.sum(dec._readout(hs, states, mask) * weight).backward()
        return states.grad, [t.grad.tobytes() for t in [hs] + params]

    assert grads(False)[0] is None
    assert grads(False)[1] == grads(True)[1]


def test_condition_every_step_changes_input_width(rng):
    dec = make_decoder(rng, condition_every_step=True)
    assert dec.cell.d_in == 4 + 3
    states = Tensor(rng.normal(size=(1, 2, 6)))
    z = Tensor(rng.normal(size=(1, 3)))
    out = dec.decode_greedy(z, states, np.ones((1, 2)), max_len=4)
    assert len(out) == 1


def test_memorization_capacity(rng):
    # 20 fixed sentence pairs; teacher-forced loss should collapse quickly
    vocab = 12
    dec = AttentiveDecoder(vocab_size=vocab, embed_dim=8, hidden=48,
                           enc_hidden=8, d_fuse=4, rng=rng)
    enc = layers.Embedding(vocab, 8, rng)  # stand-in encoder: embedded source
    n, L, T = 20, 5, 6
    src = rng.integers(4, vocab, size=(n, L))
    tgt = np.concatenate([src[:, ::-1][:, :T - 1], np.full((n, 1), EOS)], axis=1)
    mask = np.ones((n, L))
    z = Tensor(np.zeros((n, 4)))
    params = dict(dec.parameters())
    params.update(enc.parameters("enc."))
    state = layers.AdamState(lr=2e-2)
    loss = None
    for epoch in range(500):
        for p in params.values():
            p.zero_grad()
        states = enc(src)
        loss = dec.teacher_forced_loss(z, states, mask, tgt)
        loss.backward()
        layers.adam_step(params, state)
        if loss.item() < 0.05:
            break
    assert loss.item() < 0.05


def reference_greedy(dec, z, states, mask, max_len):
    """Full-batch greedy decode: every row steps until the last row's EOS."""
    b = z.shape[0]
    h, c = dec.init_state(z)
    prev = np.full(b, SOS)
    done = np.zeros(b, dtype=bool)
    out = [[] for _ in range(b)]
    for _ in range(max_len):
        logits, h, c, _ = decode_step(dec, prev, h, c, z, states, mask)
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


@pytest.mark.parametrize("condition_every_step", [False, True])
@pytest.mark.parametrize("max_len", [3, 8])
def test_greedy_drops_finished_rows_without_changing_tokens(condition_every_step, max_len):
    rng = np.random.default_rng(41)
    dec = make_decoder(rng, condition_every_step=condition_every_step)
    for p in dec.parameters().values():
        p.data *= 5.0                     # sharper logits: rows end at varied steps
    dec.out.b.data[EOS] += 1.0
    b = 16
    states = Tensor(rng.normal(size=(b, 5, 6)))
    mask = (rng.random((b, 5)) > 0.3).astype(float)
    mask[:, 0] = 1.0
    z = Tensor(rng.normal(size=(b, 3)))

    out = dec.decode_greedy(z, states, mask, max_len=max_len)
    assert out == reference_greedy(dec, z, states, mask, max_len)
    lengths = {len(s) for s in out}
    assert 0 in lengths and max_len in lengths and len(lengths) >= 3
    assert all(isinstance(t, int) for s in out for t in s)


@pytest.mark.parametrize("condition_every_step", [False, True])
@pytest.mark.parametrize("width", [5, 64])   # a toy decoder, and a model's widths
def test_array_step_bitwise_equals_decode_step(condition_every_step, width):
    rng = np.random.default_rng(43)
    dec = AttentiveDecoder(vocab_size=40, embed_dim=24, hidden=width, enc_hidden=width + 1,
                           d_fuse=32, rng=rng, condition_every_step=condition_every_step)
    b = 64
    states = Tensor(rng.normal(size=(b, 7, width + 1)))
    mask = (rng.random((b, 7)) > 0.4).astype(float)
    mask[:, 0] = 1.0
    z = Tensor(rng.normal(size=(b, 32)))
    h, c = dec.init_state(z)
    h_arr, c_arr = h.data, c.data
    bias, (neg_w, neg_u) = heads._mask_bias(mask), dec.cell.neg_weights()
    prev = np.full(b, SOS)
    for _ in range(5):
        logits, h, c, _ = decode_step(dec, prev, h, c, z, states, mask)
        logits_arr, h_arr, c_arr = dec._array_step(prev, h_arr, c_arr, z.data,
                                                   states.data, bias, None, neg_u, neg_w)
        for graph, arr in ((logits, logits_arr), (h, h_arr), (c, c_arr)):
            assert graph.data.tobytes() == np.ascontiguousarray(arr).tobytes()
        prev = logits_arr.argmax(axis=1)


@pytest.mark.parametrize("b", [1, 64])
def test_array_step_table_rows_match_per_step_projection(b):
    rng = np.random.default_rng(44)
    dec = AttentiveDecoder(vocab_size=40, embed_dim=24, hidden=64, enc_hidden=65,
                           d_fuse=32, rng=rng)
    states = rng.normal(size=(b, 7, 65))
    bias = heads._mask_bias(np.ones((b, 7)))
    z = rng.normal(size=(b, 32))
    neg_w, neg_u = dec.cell.neg_weights()
    table = dec.cell.project(dec.embed.table.data, neg_w)
    h, c = (t.data for t in dec.init_state(Tensor(z)))
    h_tab, c_tab = h, c
    prev = np.full(b, SOS)
    for _ in range(5):
        logits, h, c = dec._array_step(prev, h, c, z, states, bias, None, neg_u, neg_w)
        logits_tab, h_tab, c_tab = dec._array_step(prev, h_tab, c_tab, z, states, bias,
                                                   table, neg_u, neg_w)
        np.testing.assert_allclose(logits_tab, logits, rtol=0, atol=1e-12)
        prev = logits.argmax(axis=1)


def test_greedy_rejects_row_without_unmasked_position(rng):
    dec = make_decoder(rng)
    states = Tensor(rng.normal(size=(2, 3, 6)))
    z = Tensor(rng.normal(size=(2, 3)))
    mask = np.ones((2, 3))
    mask[1] = 0.0
    with pytest.raises(ValueError, match="no unmasked source position"):
        dec.decode_greedy(z, states, mask, max_len=4)
