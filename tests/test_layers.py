import math
import warnings

import numpy as np
import pytest

from fuselab import autodiff as ad
from fuselab import data as data_mod
from fuselab import harness, layers
from fuselab.autodiff import Tensor
from fuselab.config import ExperimentConfig
from fuselab.gradcheck import check_gradients


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def test_affine_identity(rng):
    aff = layers.Affine(3, 3, rng)
    aff.W.data[...] = np.eye(3)
    aff.b.data[...] = 0.0
    x = Tensor(rng.uniform(-1, 1, size=(2, 3)))
    np.testing.assert_allclose(aff(x).data, x.data)


def test_affine_hand(rng):
    aff = layers.Affine(2, 1, rng)
    aff.W.data[...] = [[2.0], [3.0]]
    aff.b.data[...] = [1.0]
    assert aff(Tensor([[1.0, 1.0]])).data.tolist() == [[6.0]]


def test_affine_gradcheck(rng):
    aff = layers.Affine(4, 3, rng)
    x = Tensor(rng.uniform(-2, 2, size=(2, 4)), requires_grad=True)
    check_gradients(lambda ts: ad.sum(ad.tanh(aff(ts[0]) * ts[1])),
                    [x, Tensor(rng.uniform(-1, 1, size=(2, 3))), aff.W, aff.b])


def three_node_mlp(net, x, frozen=False):
    """The MLP as three graph nodes, affine, LeakyReLU(0.2), affine, with
    detached parameters when frozen: the oracle of the one-node MLP."""
    params = (net.fc1.W, net.fc1.b, net.fc2.W, net.fc2.b)
    w1, b1, w2, b2 = (p.detach() for p in params) if frozen else params
    return ad.affine(ad.leaky_relu(ad.affine(x, w1, b1), alpha=0.2), w2, b2)


@pytest.mark.parametrize("frozen", [False, True])
def test_mlp_matches_three_node_composition_bitwise(rng, frozen):
    net = layers.MLP(4, 6, 3, rng)
    params = [net.fc1.W, net.fc1.b, net.fc2.W, net.fc2.b]
    x = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(5, 3)))
    runs = []
    for call in (net.__call__, lambda x, frozen: three_node_mlp(net, x, frozen)):
        for t in [x, *params]:
            t.zero_grad()
        out = call(x, frozen=frozen)
        ad.sum(out * w).backward()
        runs.append([out.data] + [t.grad for t in [x, *params]])
    pre = x.data @ net.fc1.W.data
    assert (pre < 0).any() and (pre > 0).any()      # both slopes act
    for new, old in zip(*runs):
        if old is None:
            assert frozen and new is None
        else:
            assert new.tobytes() == old.tobytes()


def test_mlp_frozen_on_detached_input_builds_no_node(rng):
    net = layers.MLP(2, 3, 1, rng)
    out = net(Tensor(rng.normal(size=(4, 2))), frozen=True)
    assert not out.requires_grad and out._backward is None


def test_mlp_width_mismatch(rng):
    with pytest.raises(ad.DimensionError, match=r"MLP expects \(n, 4\) inputs, got \(2, 3\)"):
        layers.MLP(4, 6, 3, rng)(Tensor(np.zeros((2, 3))))


def test_lstm_zero_weights_zero_state(rng):
    cell = layers.LSTMCell(3, 4, rng)
    for p in cell.parameters().values():
        p.data[...] = 0.0
    h, c = cell.zero_state(2)
    hs = cell.sequence(Tensor(np.zeros((2, 1, 3))), h, c)
    np.testing.assert_array_equal(hs.data, 0.0)


def test_lstm_saturated_forget_keeps_cell(rng):
    cell = layers.LSTMCell(2, 3, rng)
    for p in cell.parameters().values():
        p.data[...] = 0.0
    # bias drives f -> 1 and i -> 0
    cell.b.data[3:6] = 100.0
    cell.b.data[0:3] = -100.0
    c0 = rng.uniform(-1, 1, size=(2, 3))
    c_new = _run_step(cell, np.zeros((2, 2)), np.zeros((2, 3)), c0)[3]
    np.testing.assert_allclose(c_new, c0, atol=1e-12)


def test_lstm_unrolled_gradcheck(rng):
    """Three steps, each a sequence of length one fed the last hidden state
    and a cell state that is checked too."""
    cell = layers.LSTMCell(2, 3, rng)
    xs = [Tensor(rng.uniform(-1, 1, size=(2, 2)), requires_grad=True) for _ in range(3)]
    cs = [Tensor(rng.uniform(-1, 1, size=(2, 3)), requires_grad=True) for _ in range(3)]

    def fn(ts):
        h = cell.zero_state(2)[0]
        for x, c in zip(ts[:3], ts[3:6]):
            h = ad.reshape(cell.sequence(ad.reshape(x, (2, 1, 2)), h, c), (2, 3))
        return ad.sum(h)

    check_gradients(fn, xs + cs + [cell.W, cell.U, cell.b])


def _narrow(x, axis, start, length):
    """A contiguous slice along axis, as a graph node."""
    idx = [slice(None)] * x.data.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)

    def bw(g):
        full = np.zeros_like(x.data)
        full[idx] = g
        x._accumulate(full)

    return ad._make(x.data[idx], (x,), bw)


def _lstm_composite(cell, x, h, c):
    """cell.sequence written step by step with autodiff ops."""
    b, L, d = x.shape
    hd = cell.d_hidden
    out = []
    for t in range(L):
        x_t = ad.reshape(_narrow(x, 1, t, 1), (b, d))
        gates = ad.affine(x_t, cell.W, cell.b) + ad.affine(h, cell.U, Tensor(np.zeros(4 * hd)))
        # sigmoid(a) = (1 + tanh(a/2)) / 2
        i, f, o = ((ad.tanh(_narrow(gates, 1, k * hd, hd) * Tensor(0.5)) + Tensor(1.0))
                   * Tensor(0.5) for k in range(3))
        g = ad.tanh(_narrow(gates, 1, 3 * hd, hd))
        c = f * c + i * g
        h = o * ad.tanh(c)
        out.append(ad.reshape(h, (b, 1, hd)))
    return ad.concat(out, axis=1)


def test_lstm_sequence_matches_step_composite(rng):
    cell = layers.LSTMCell(3, 4, rng)
    x = Tensor(rng.uniform(-2, 2, size=(2, 5, 3)), requires_grad=True)
    h0 = Tensor(rng.uniform(-1, 1, size=(2, 4)), requires_grad=True)
    c0 = Tensor(rng.uniform(-1, 1, size=(2, 4)), requires_grad=True)
    weight = Tensor(rng.normal(size=(2, 5, 4)))  # scores each hidden state
    inputs = [x, h0, c0, cell.W, cell.U, cell.b]
    runs = []
    for forward in (cell.sequence, lambda *a: _lstm_composite(cell, *a)):
        for t in inputs:
            t.zero_grad()
        out = forward(x, h0, c0)
        ad.sum(out * weight).backward()
        runs.append([out.data] + [t.grad for t in inputs])
    for fused, composite in zip(*runs):
        np.testing.assert_allclose(fused, composite, rtol=0, atol=1e-10)


def _reference_step(cell, pre_x, h, c):
    """One LSTM step with the numerically stable sigmoid of the autodiff
    engine: pre_x = x @ W + b. Returns (gates (4, n, h), tanh(c'), h', c')."""
    hd = cell.d_hidden
    gates = pre_x + h @ cell.U.data
    i, f, o = (ad._sigmoid(gates[:, k * hd:(k + 1) * hd]) for k in range(3))
    g = np.tanh(gates[:, 3 * hd:])
    c_new = f * c + i * g
    tanh_c = np.tanh(c_new)
    return np.stack([i, f, o, g]), tanh_c, o * tanh_c, c_new


def _run_step(cell, x, h, c):
    """``step_into`` on inputs x (n, d_in): (acts (4, n, h), tanh(c'), h', c')."""
    n, hd = x.shape[0], cell.d_hidden
    acts, tanh_c, h_new, c_new = (np.empty((4, n, hd)), np.empty((n, hd)),
                                  np.empty((n, hd)), np.empty((n, hd)))
    neg_w, neg_u = cell.neg_weights()
    cell.step_into(cell.project(x, neg_w), neg_u, h, c, acts, tanh_c, h_new, c_new)
    return acts, tanh_c, h_new, c_new


def test_lstm_step_matches_stable_sigmoid_reference(rng):
    cell = layers.LSTMCell(1, 16, rng)
    cell.W.data[...] = rng.uniform(-1.0, 1.0, size=cell.W.shape)
    x = rng.uniform(-30.0, 30.0, size=(400, 1))   # pre-activations over [-30, 30]
    h = rng.uniform(-1.0, 1.0, size=(400, 16))
    c = rng.uniform(-1.0, 1.0, size=(400, 16))
    pre_x = x @ cell.W.data + cell.b.data
    for got, want in zip(_run_step(cell, x, h, c), _reference_step(cell, pre_x, h, c)):
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)


def test_lstm_step_saturates_exactly_without_warning(rng):
    cell = layers.LSTMCell(1, 3, rng)
    cell.U.data[...] = 0.0
    cell.b.data[...] = 0.0
    cell.W.data[...] = 1.0
    x = np.array([[800.0], [-800.0]])
    c = np.array([[0.5] * 3, [0.5] * 3])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        acts, _, _, c_new = _run_step(cell, x, np.zeros((2, 3)), c)
    assert acts[:, 0].ravel().tolist() == [1.0] * 12
    assert acts[:, 1].ravel().tolist() == [0.0] * 9 + [-1.0] * 3
    np.testing.assert_array_equal(c_new, [[1.5] * 3, [0.0] * 3])


# The row-major LSTM that the gate-major layout replaced: every gate in one
# (n, 4h) buffer, [h; c] in one (n, 2h) buffer, and a sequence node that
# returned [h_t; c_t]. Kept as the bitwise oracle of LSTMCell's projection,
# step and backward.

def row_major_project(cell, x_rows):
    """-(x_rows @ W + b), (n, 4h)."""
    return x_rows @ -cell.W.data - cell.b.data


def row_major_step_into(hd, xw_t, neg_u, h, c, acts, tanh_c, hc):
    """From xw_t (n, 4h), neg_u = -U and h, c (n, h): the gates (i, f, o, g)
    into acts (n, 4h), tanh(c') into tanh_c and [h'; c'] into hc (n, 2h)."""
    hd3 = 3 * hd
    np.matmul(h, neg_u, out=acts)
    acts += xw_t
    np.tanh(acts[:, hd3:], out=tanh_c)
    with np.errstate(over="ignore"):
        np.exp(acts, out=acts)
    acts += 1.0
    np.reciprocal(acts, out=acts)
    np.negative(tanh_c, out=acts[:, hd3:])
    c_new = hc[:, hd:]
    np.multiply(acts[:, hd:2 * hd], c, out=c_new)
    np.multiply(acts[:, :hd], acts[:, hd3:], out=tanh_c)
    c_new += tanh_c
    np.tanh(c_new, out=tanh_c)
    np.multiply(acts[:, 2 * hd:hd3], tanh_c, out=hc[:, :hd])


def row_major_step(cell, x, h, c):
    """One step on inputs x (n, d_in): (acts (n, 4h), tanh(c'), h', c')."""
    n, hd = x.shape[0], cell.d_hidden
    acts, tanh_c, hc = np.empty((n, 4 * hd)), np.empty((n, hd)), np.empty((n, 2 * hd))
    row_major_step_into(hd, row_major_project(cell, x), -cell.U.data, h, c, acts, tanh_c, hc)
    return acts, tanh_c, hc[:, :hd], hc[:, hd:]


def row_major_sequence(cell, x, h0, c0, g_h):
    """The sequence over x (b, L, d_in) and its backward for the gradient
    g_h (b, L, h) of the hidden states, the c half's gradient being zero.
    Returns [h states (b, L, h), then the grads of x, h0, c0, W, U, b]."""
    hd = cell.d_hidden
    b, L, d = x.shape
    W, U = cell.W.data, cell.U.data
    x_rows = x.transpose(1, 0, 2).reshape(L * b, d)
    xw = row_major_project(cell, x_rows).reshape(L, b, 4 * hd)
    acts, tanh_c = np.empty((L, b, 4 * hd)), np.empty((L, b, hd))
    hc = np.empty((L + 1, b, 2 * hd))
    hc[0, :, :hd], hc[0, :, hd:] = h0, c0
    for t in range(L):
        row_major_step_into(hd, xw[t], -U, hc[t, :, :hd], hc[t, :, hd:], acts[t], tanh_c[t],
                            hc[t + 1])
    g = np.concatenate([g_h, np.zeros_like(g_h)], axis=2).transpose(1, 0, 2)
    d_gates = np.empty((L, b, 4 * hd))
    dh, dc = np.zeros((b, hd)), np.zeros((b, hd))
    for t in reversed(range(L)):
        i, f, o, gg = (acts[t, :, k * hd:(k + 1) * hd] for k in range(4))
        tc = tanh_c[t]
        dh = dh + g[t, :, :hd]
        dc = dc + g[t, :, hd:] + dh * o * (1.0 - tc * tc)
        dg = d_gates[t]
        dg[:, :hd] = dc * gg * i * (1.0 - i)
        dg[:, hd:2 * hd] = dc * hc[t, :, hd:] * f * (1.0 - f)
        dg[:, 2 * hd:3 * hd] = dh * tc * o * (1.0 - o)
        dg[:, 3 * hd:] = dc * i * (1.0 - gg * gg)
        dh, dc = dg @ U.T, dc * f
    flat = d_gates.reshape(L * b, 4 * hd)
    return [hc[1:, :, :hd].transpose(1, 0, 2),
            (flat @ W.T).reshape(L, b, d).transpose(1, 0, 2), dh, dc,
            x_rows.T @ flat, hc[:-1, :, :hd].reshape(L * b, hd).T @ flat, flat.sum(axis=0)]


def _saturate(x):
    """Rows 1 and 2, where present, at +800 and -800: with |W| up to 1 many
    pre-activations pass the point where exp overflows."""
    x[1:2], x[2:3] = 800.0, -800.0
    return x


@pytest.mark.parametrize("d, hd", [(5, 3), (5, 16), (16, 64), (24, 64), (56, 64)])
def test_gate_major_lstm_bitwise_equals_row_major_oracle(d, hd):
    """For every row count from 1 to 65 (greedy decode's live rows) the
    projection, gates, tanh(c'), h' and c' of one step, and for L in
    {1, 5, 12} the hidden states and all six grads of a sequence, carry the
    row-major oracle's bytes. (16, 24, 56) x 64 are the input and hidden
    widths of the models' LSTMs.

    This also guards the BLAS property the layout relies on: each block of
    a batched matmul has the bits of its columns of the one row-major GEMM.
    With OpenBLAS that holds when the width is a multiple of 8; at width 3
    some blocks run another kernel and agree only to rounding."""
    rng = np.random.default_rng(hd)
    cell = layers.LSTMCell(d, hd, rng)
    cell.W.data[...] = rng.uniform(-1.0, 1.0, size=cell.W.shape)
    params = [cell.W, cell.U, cell.b]

    def same(got, want):
        if hd % 8 == 0:
            assert got.tobytes() == want.tobytes()
        else:
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-15)

    def gate_major(a):      # (n, 4h) -> (4, n, h)
        return a.reshape(len(a), 4, hd).transpose(1, 0, 2)

    for n in range(1, 66):
        x = _saturate(rng.normal(size=(n, d)))
        h, c = rng.uniform(-1.0, 1.0, size=(2, n, hd))
        same(cell.project(x, cell.neg_weights()[0]), gate_major(row_major_project(cell, x)))
        new = _run_step(cell, x, h, c)
        old = row_major_step(cell, x, h, c)
        same(new[0], gate_major(old[0]))
        for got, want in zip(new[1:], old[1:]):
            same(got, want)
        if n >= 3:      # some gates of the saturated rows are exactly 0 and 1
            assert (new[0][:3, 1:3] == 0.0).any() and (new[0][:3, 1:3] == 1.0).any()
    for L in (1, 5, 12):
        for n in range(1, 66):
            x = _saturate(rng.normal(size=(n, L, d)))
            h0, c0 = rng.uniform(-1.0, 1.0, size=(2, n, hd))
            g_h = rng.normal(size=(n, L, hd))
            inputs = [Tensor(a, requires_grad=True) for a in (x, h0, c0)]
            for p in params:
                p.zero_grad()
            out = cell.sequence(*inputs)
            ad.sum(out * Tensor(g_h)).backward()
            new = [out.data] + [t.grad for t in inputs + params]
            for got, want in zip(new, row_major_sequence(cell, x, h0, c0, g_h)):
                same(got, want)


def test_cross_entropy_uniform():
    logits = Tensor(np.zeros((3, 8)), requires_grad=True)
    loss = layers.softmax_cross_entropy(logits, np.array([0, 3, 7]))
    assert loss.item() == pytest.approx(math.log(8), abs=1e-12)


def test_cross_entropy_margin_limit():
    logits = np.zeros((1, 4))
    logits[0, 2] = 50.0
    loss = layers.softmax_cross_entropy(Tensor(logits), np.array([2]))
    assert loss.item() < 1e-12


def test_cross_entropy_target_out_of_range():
    with pytest.raises(IndexError):
        layers.softmax_cross_entropy(Tensor(np.zeros((1, 4))), np.array([4]))


def test_cross_entropy_gradient_formula(rng):
    logits = Tensor(rng.uniform(-2, 2, size=(4, 5)), requires_grad=True)
    targets = np.array([1, 0, 4, 2])
    loss = layers.softmax_cross_entropy(logits, targets)
    loss.backward()
    e = np.exp(logits.data - logits.data.max(axis=1, keepdims=True))
    probs = e / e.sum(axis=1, keepdims=True)
    expect = probs.copy()
    expect[np.arange(4), targets] -= 1.0
    np.testing.assert_allclose(logits.grad, expect / 4, atol=1e-12)


def test_cross_entropy_gradcheck(rng):
    logits = Tensor(rng.uniform(-2, 2, size=(3, 6)), requires_grad=True)
    targets = np.array([0, 5, 2])
    check_gradients(lambda ts: layers.softmax_cross_entropy(ts[0], targets), [logits])


def test_cross_entropy_ignore_index(rng):
    logits = Tensor(rng.uniform(-1, 1, size=(4, 3)), requires_grad=True)
    targets = np.array([0, 1, 0, 0])
    full = layers.softmax_cross_entropy(Tensor(logits.data[:2]), targets[:2])
    padded = layers.softmax_cross_entropy(logits, np.array([0, 1, -1, -1]),
                                          ignore_index=-1)
    assert padded.item() == pytest.approx(full.item(), abs=1e-12)


def test_hinge_loss_gradcheck(rng):
    logits = Tensor(rng.uniform(-2, 2, size=(4, 5)), requires_grad=True)
    targets = np.array([1, 0, 4, 2])
    check_gradients(lambda ts: layers.multiclass_hinge(ts[0], targets), [logits])


def test_adam_first_step_is_signed_lr():
    p = Tensor([0.0], requires_grad=True)
    p.grad = np.array([2.5])
    st = layers.AdamState(lr=0.01)
    layers.adam_step({"p": p}, st)
    assert p.data[0] == pytest.approx(-0.01, rel=1e-6)


def test_adam_zero_grad_no_move():
    p = Tensor([1.5], requires_grad=True)
    p.grad = np.array([0.0])
    layers.adam_step({"p": p}, layers.AdamState(lr=0.1))
    assert p.data[0] == 1.5


def test_adam_missing_grad_names_parameter():
    p = Tensor([1.0], requires_grad=True)
    with pytest.raises(ValueError, match="w_missing"):
        layers.adam_step({"w_missing": p}, layers.AdamState())


def test_adam_converges_quadratic():
    x = Tensor([0.0], requires_grad=True)
    st = layers.AdamState(lr=0.05)
    for _ in range(5000):
        x.zero_grad()
        diff = x - Tensor([3.0])
        ad.sum(diff * diff).backward()
        layers.adam_step({"x": x}, st)
        if abs(x.data[0] - 3.0) < 1e-6:
            break
    assert abs(x.data[0] - 3.0) < 1e-6


def test_adam_registration_order_invariant(rng):
    def run(order):
        tensors = {n: Tensor(np.full(2, 1.0 + i), requires_grad=True)
                   for i, n in enumerate(["a", "b", "c"])}
        st = layers.AdamState(lr=0.01)
        for _ in range(3):
            for n, t in tensors.items():
                t.grad = t.data * 0.5
            layers.adam_step({n: tensors[n] for n in order}, st)
        return {n: t.data.copy() for n, t in tensors.items()}

    r1 = run(["a", "b", "c"])
    r2 = run(["c", "a", "b"])
    for n in r1:
        np.testing.assert_array_equal(r1[n], r2[n])


def test_dropout_identity_cases(rng):
    x = Tensor(rng.uniform(-1, 1, size=(3, 3)))
    assert layers.dropout(x, 0.0, rng) is x
    # a model drops only when task_loss gets a drop RNG, as training gives it
    info = harness.DataInfo(n_classes=3, speech_dim=2, video_dim=2)
    batch = harness.Batch(speech=rng.normal(size=(4, 2)), video=rng.normal(size=(4, 2)),
                          labels=np.array([0, 1, 2, 0]))
    losses = []
    for p, drop_rng in ((0.0, None), (0.7, None), (0.7, np.random.default_rng(1))):
        model = harness.FusionModel(ExperimentConfig(modalities=("video", "speech"),
                                                     dropout_p=p), info,
                                    np.random.default_rng(0))
        bundle = model.encode(batch)
        losses.append(model.task_loss(model.fuse(bundle, None), bundle, batch,
                                      drop_rng).data.tobytes())
    assert losses[1] == losses[0] != losses[2]


def test_dropout_bad_p(rng):
    with pytest.raises(ValueError):
        layers.dropout(Tensor([1.0]), 1.0, rng)


def test_dropout_preserves_expectation(rng):
    x = Tensor(np.full((1, 8), 2.0))
    total = np.zeros((1, 8))
    n = 10_000
    for _ in range(n):
        total += layers.dropout(x, 0.4, rng).data
    np.testing.assert_allclose(total / n, x.data, rtol=0.02)


def test_dropout_gradient_matches_mask(rng):
    x = Tensor(np.ones((2, 5)), requires_grad=True)
    out = layers.dropout(x, 0.5, rng)
    ad.sum(out).backward()
    np.testing.assert_allclose(x.grad, (out.data != 0) * 2.0)


def test_parameter_names_unique_and_dotted(rng):
    m = layers.Module()
    m.add_child("enc", layers.Affine(2, 2, rng))
    m.add_child("dec", layers.Affine(2, 2, rng))
    names = set(m.parameters())
    assert names == {"enc.W", "enc.b", "dec.W", "dec.b"}
    with pytest.raises(ValueError):
        m._children["enc"].add_param("W", np.zeros(1))


def reference_adam_step(params, state):
    """The per-tensor Adam loop that the flat update replaced."""
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - state.beta1 ** t
    bc2 = 1.0 - state.beta2 ** t
    for name, p in sorted(params.items()):
        m = state.m.setdefault(name, np.zeros_like(p.data))
        v = state.v.setdefault(name, np.zeros_like(p.data))
        m *= state.beta1
        m += (1 - state.beta1) * p.grad
        v *= state.beta2
        v += (1 - state.beta2) * p.grad * p.grad
        p.data -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)


def test_flat_adam_matches_per_tensor_loop_bytewise(rng):
    cfg = ExperimentConfig(task="classification", fusion="gan",
                           modalities=("video", "speech"))
    info = harness.DataInfo(n_classes=4, speech_dim=data_mod.INTERACTION_SPEECH_DIM,
                            video_dim=data_mod.INTERACTION_VIDEO_DIM)
    model = harness.FusionModel(cfg, info, np.random.default_rng(3))
    signed = Tensor(rng.normal(size=3), requires_grad=True)
    groups = [dict(model.non_discriminator_parameters(), signed_zero=signed),
              model.discriminator_parameters()]

    def copies(group):
        return {n: Tensor(t.data.copy(), requires_grad=True) for n, t in group.items()}

    flat_groups = [copies(g) for g in groups]
    ref_groups = [copies(g) for g in groups]
    flat_states = [layers.AdamState(lr=1e-3), layers.AdamState(lr=5e-4)]
    ref_states = [layers.AdamState(lr=1e-3), layers.AdamState(lr=5e-4)]
    for _ in range(5):
        for flat, ref, flat_state, ref_state in zip(flat_groups, ref_groups,
                                                    flat_states, ref_states):
            for name in flat:
                g = rng.normal(size=flat[name].shape)
                if name == "signed_zero":
                    g[:2] = [0.0, -0.0]
                flat[name].grad, ref[name].grad = g, g.copy()
            layers.adam_step(flat, flat_state)
            reference_adam_step(ref, ref_state)

    for flat, ref, flat_state, ref_state in zip(flat_groups, ref_groups,
                                                flat_states, ref_states):
        for name in flat:
            assert flat[name].data.tobytes() == ref[name].data.tobytes(), name
            assert flat_state.m[name].tobytes() == ref_state.m[name].tobytes(), name
            assert flat_state.v[name].tobytes() == ref_state.v[name].tobytes(), name
        # every moment is a view into one flat array per state and moment
        m_base, v_base = flat_state.m[name].base, flat_state.v[name].base
        assert m_base is not None and v_base is not None and m_base is not v_base
        assert all(a.base is m_base for a in flat_state.m.values())
        assert all(a.base is v_base for a in flat_state.v.values())
    flat_entries = harness._optimizer_entries(*flat_states)
    ref_entries = harness._optimizer_entries(*ref_states)
    assert list(flat_entries) == list(ref_entries)
    for name, arr in ref_entries.items():
        assert flat_entries[name].tobytes() == arr.tobytes(), name


def test_adam_layout_guard_names_first_mismatch():
    def param(*shape):
        t = Tensor(np.ones(shape), requires_grad=True)
        t.grad = np.ones(shape)
        return t

    st = layers.AdamState()
    layers.adam_step({"b": param(2), "d": param(3, 1)}, st)
    with pytest.raises(ValueError, match=r"'c' .*: shape \(1,\), layout None"):
        layers.adam_step({"b": param(2), "c": param(1), "d": param(3, 1)}, st)
    with pytest.raises(ValueError, match=r"'b' .*: shape None, layout \(2,\)"):
        layers.adam_step({"d": param(3, 1), "e": param(1)}, st)
    with pytest.raises(ValueError, match=r"'d' .*: shape \(3,\), layout \(3, 1\)"):
        layers.adam_step({"b": param(2), "d": param(3)}, st)
    assert st.step_count == 1
    layers.adam_step({"d": param(3, 1), "b": param(2)}, st)
    assert st.step_count == 2
