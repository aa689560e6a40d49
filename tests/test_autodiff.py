import inspect
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuselab import autodiff as ad
from fuselab.autodiff import AutodiffError, DimensionError, Tensor
from fuselab.gradcheck import check_gradients, gradcheck_cases


def rand(rng, *shape, lo=-2.0, hi=2.0, grad=True):
    return Tensor(rng.uniform(lo, hi, size=shape), requires_grad=grad)


def test_affine_shape_error_names_shapes():
    with pytest.raises(DimensionError, match=r"\(2, 3\) x \(2, 3\) \+ \(3,\)"):
        ad.affine(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))), Tensor(np.zeros(3)))


def test_leaky_relu_definition():
    out = ad.leaky_relu(Tensor([-2.0]), alpha=0.2)
    assert out.data[0] == pytest.approx(-0.4)


def test_sigmoid_at_zero():
    assert ad._sigmoid(np.array([0.0]))[0] == 0.5


def test_tanh_gradient_at_zero():
    x = Tensor([0.0], requires_grad=True)
    ad.sum(ad.tanh(x)).backward()
    assert x.grad[0] == 1.0


def test_concat_widths():
    rng = np.random.default_rng(1)
    parts = [rand(rng, n, grad=False) for n in (4, 3, 2)]
    assert ad.concat(parts, axis=0).shape == (9,)


def test_concat_single_is_identity():
    t = Tensor([1.0, 2.0])
    np.testing.assert_array_equal(ad.concat([t], axis=0).data, t.data)


def test_concat_empty_list():
    with pytest.raises(DimensionError):
        ad.concat([], axis=0)


def test_concat_backward_ones():
    a = Tensor([1.0, 2.0], requires_grad=True)
    b = Tensor([3.0], requires_grad=True)
    ad.sum(ad.concat([a, b], axis=0)).backward()
    np.testing.assert_array_equal(a.grad, [1.0, 1.0])
    np.testing.assert_array_equal(b.grad, [1.0])


def test_reduce_sum_and_mean():
    t = Tensor([1.0, 2.0, 3.0])
    assert ad.sum(t).item() == 6.0
    assert ad.mean(Tensor(np.full((4, 2), 7.0))).item() == 7.0


def test_reduce_axis_out_of_range():
    with pytest.raises(DimensionError):
        ad.sum(Tensor(np.zeros((2, 2))), axis=5)


def test_mean_grad_is_inverse_count():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    ad.mean(x).backward()
    np.testing.assert_allclose(x.grad, np.full((2, 3), 1.0 / 6.0))


def test_backward_square():
    x = Tensor([3.0], requires_grad=True)
    ad.sum(x * x).backward()
    assert x.grad[0] == 6.0


def test_backward_linear_map_outer():
    rng = np.random.default_rng(2)
    W = rand(rng, 3, 4)
    v = Tensor(rng.uniform(-1, 1, size=(4, 1)))
    ad.sum(ad.affine(W, v, Tensor(np.zeros(1)))).backward()
    np.testing.assert_allclose(W.grad, np.ones((3, 1)) @ v.data.T)


def test_backward_requires_scalar():
    x = Tensor(np.zeros((2, 2)), requires_grad=True)
    with pytest.raises(AutodiffError):
        (x * x).backward()


def test_backward_twice_rejected():
    x = Tensor([1.0], requires_grad=True)
    loss = ad.sum(x * x)
    loss.backward()
    with pytest.raises(AutodiffError, match="consumed"):
        loss.backward()


def test_backward_into_consumed_node_rejected():
    """A second backward that reaches an intermediate node consumed by an
    earlier one would count that node's old gradient again (x.grad 16, where
    12 is right); it raises before any closure runs."""
    x = Tensor([2.0], requires_grad=True)
    y = x * x
    ad.sum(y).backward()
    x.zero_grad()
    with pytest.raises(AutodiffError, match="consumed"):
        ad.sum(y * Tensor(3.0)).backward()
    assert x.grad is None


def test_grad_accumulates_across_backward_calls():
    x = Tensor([2.0], requires_grad=True)
    ad.sum(x * x).backward()
    ad.sum(x * x).backward()
    assert x.grad[0] == 8.0


def test_first_gradient_is_not_aliased():
    """reshape hands its parent a view of its own gradient; the parent's
    second gradient must not write through that view into the child's."""
    x = rand(np.random.default_rng(0), 3, 4)
    y = ad.reshape(x, (2, 6))
    loss = ad.sum(y * y) + ad.sum(x * Tensor(3.0))
    loss.backward()
    np.testing.assert_array_equal(y.grad, 2.0 * y.data)
    np.testing.assert_array_equal(x.grad, 2.0 * x.data + 3.0)
    first = x.grad.copy()
    ad.sum(ad.reshape(x, (12,))).backward()     # a fresh graph accumulates on top
    np.testing.assert_array_equal(x.grad, first + 1.0)
    np.testing.assert_array_equal(y.grad, 2.0 * y.data)


def test_shared_upstream_grad_is_never_written_through():
    """add hands one upstream grad to two same-shape parents without a copy;
    a second contribution to one parent, in the same backward or a later
    one, leaves the other parent's grad and the upstream array as they were."""
    rng = np.random.default_rng(3)
    a, b = rand(rng, 3, 4), rand(rng, 3, 4)
    w, c = Tensor(rng.normal(size=(3, 4))), Tensor(rng.normal(size=(3, 4)))
    s = a + b
    (ad.sum(s * w) + ad.sum(a * c)).backward()
    upstream = s.grad
    assert b.grad is upstream
    np.testing.assert_array_equal(upstream, w.data)
    np.testing.assert_array_equal(a.grad, w.data + c.data)

    a.zero_grad(), b.zero_grad()
    ad.sum((a + b) * w).backward()
    shared = a.grad
    assert b.grad is shared
    ad.sum(a * c).backward()                    # accumulates into a alone
    assert b.grad is shared
    np.testing.assert_array_equal(shared, w.data)
    np.testing.assert_array_equal(a.grad, w.data + c.data)


def test_affine_is_bytewise_matmul_then_add():
    rng = np.random.default_rng(4)
    data = [rng.normal(size=(5, 4)), rng.normal(size=(4, 3)), rng.normal(size=3)]
    weight = Tensor(rng.normal(size=(5, 3)))

    x, W, b = (Tensor(d.copy(), requires_grad=True) for d in data)
    out = ad.affine(x, W, b)
    ad.sum(ad.tanh(out) * weight).backward()
    ref = data[0] @ data[1] + data[2]
    g = weight.data * (1.0 - np.tanh(ref) * np.tanh(ref))
    assert out.data.tobytes() == ref.tobytes()
    assert x.grad.tobytes() == (g @ data[1].T).tobytes()
    assert W.grad.tobytes() == (data[0].T @ g).tobytes()
    assert b.grad.tobytes() == g.sum(axis=0).tobytes()


@pytest.mark.parametrize("shape", [(3, 4), (2, 3, 4)], ids=["2d", "3d"])
@pytest.mark.parametrize("axis", [None, 0, 1, -1])
def test_sum_and_mean_are_bytewise_numpy(shape, axis):
    """Forward against np.sum and np.mean; backward against broadcasting
    the upstream grad (divided by the count, for mean) and copying it."""
    rng = np.random.default_rng(5)
    data = rng.normal(size=shape)
    n = data.size if axis is None else shape[axis]
    for op, ref, count in ((ad.sum, np.sum, 1), (ad.mean, np.mean, n)):
        x = Tensor(data.copy(), requires_grad=True)
        out = op(x, axis=axis)
        assert np.asarray(out.data).tobytes() == np.asarray(ref(data, axis=axis)).tobytes()
        g = rng.normal(size=out.shape)
        ad.sum(out * Tensor(g)).backward()
        up = g if axis is None else np.expand_dims(g, axis)
        expect = np.broadcast_to(up / count, shape).copy()
        assert x.grad.tobytes() == expect.tobytes()


@pytest.mark.parametrize("axis", [0, 1, -1])
def test_concat_pieces_are_bytewise_split(axis):
    rng = np.random.default_rng(6)
    widths = (1, 3, 2)
    parts = [rand(rng, *[w if k == axis % 2 else 4 for k in range(2)]) for w in widths]
    out = ad.concat(parts, axis=axis)
    g = rng.normal(size=out.shape)
    ad.sum(out * Tensor(g)).backward()
    for t, piece in zip(parts, np.split(g, np.cumsum(widths)[:-1], axis=axis)):
        assert t.grad.tobytes() == piece.tobytes()


@pytest.mark.parametrize("seed", range(20))
def test_random_five_layer_composite_gradcheck(seed):
    rng = np.random.default_rng(seed)
    x = rand(rng, 2, 3)
    W1, W2 = rand(rng, 3, 4), rand(rng, 4, 3)
    b = rand(rng, 4)

    def fn(ts):
        x, W1, W2, b = ts
        h1 = ad.tanh(ad.affine(x, W1, b))
        h2 = ad.tanh(ad.affine(h1, W2, Tensor(np.zeros(3))))
        h3 = ad.leaky_relu(h2 - x, alpha=0.2)
        h4 = ad.tanh(h3 * Tensor(3.0))
        d = h4 - Tensor(0.5)
        return ad.mean(d * d)

    check_gradients(fn, [x, W1, W2, b])


@pytest.mark.parametrize("op", ["add", "sub", "mul", "tanh", "leaky_relu",
                                "concat", "sum", "mean", "mean_softplus", "reshape"])
def test_each_op_gradcheck(op):
    rng = np.random.default_rng(zlib.crc32(op.encode()))
    a, b = rand(rng, 2, 3), rand(rng, 2, 3)

    fns = {
        "add": lambda ts: ad.sum(ts[0] + ts[1]),
        "sub": lambda ts: ad.sum(ts[0] - ts[1]),
        "mul": lambda ts: ad.mean(ts[0] * ts[1]),
        "tanh": lambda ts: ad.sum(ad.tanh(ts[0])),
        "leaky_relu": lambda ts: ad.sum(ad.leaky_relu(ts[0], alpha=0.2)),
        "concat": lambda ts: ad.sum(ad.tanh(ad.concat(list(ts), axis=1))),
        "sum": lambda ts: ad.sum(ad.sum(ts[0] * ts[1], axis=1)),
        "mean": lambda ts: ad.sum(ad.mean(ts[0] * ts[1], axis=0)),
        "mean_softplus": lambda ts: ad.mean_softplus(ts[0] * ts[1] * Tensor(4.0)),
        "reshape": lambda ts: ad.sum(ad.tanh(ad.reshape(ts[0], (3, 2))) * ad.reshape(ts[1], (3, 2))),
    }
    check_gradients(fns[op], [a, b])


def test_every_graph_op_has_a_gradcheck_case():
    """A public autodiff function that builds a graph node (calls _make) has
    a criterion-1 gradcheck entry of the same name."""
    ops = {name for name, fn in vars(ad).items()
           if inspect.isfunction(fn) and not name.startswith("_")
           and fn.__module__ == ad.__name__ and "_make" in fn.__code__.co_names}
    assert ops >= {"add", "affine", "reshape"}
    assert ops - {name for name, _ in gradcheck_cases()} == set()


def test_broadcast_bias_style():
    x = Tensor(np.ones((4, 3)), requires_grad=True)
    b = Tensor(np.arange(3.0), requires_grad=True)
    ad.sum(x + b).backward()
    np.testing.assert_array_equal(b.grad, [4.0, 4.0, 4.0])
    np.testing.assert_array_equal(x.grad, np.ones((4, 3)))


def test_broadcast_incompatible():
    for op in (ad.add, ad.sub, ad.mul):
        with pytest.raises(DimensionError,
                           match=r"^shapes \(2, 3\) and \(2, 4\) do not broadcast$"):
            op(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 4))))


SKIP_CASES = {
    "add": (ad.add, (3, 4), (4,)),
    "sub": (ad.sub, (3, 1), (3, 4)),
    "mul": (ad.mul, (3, 4), (1, 4)),
    "affine": (ad.affine, (3, 4), (4, 2), (2,)),
}


@pytest.mark.parametrize("name,frozen", [
    pytest.param(name, k, id=f"{k}-{name}")
    for k in range(3) for name in sorted(SKIP_CASES) if k < len(SKIP_CASES[name]) - 1])
def test_backward_skips_operand_without_grad(name, frozen):
    """An operand that does not require grad gets none, and every other
    operand's grad is bit-identical to the one it gets when all do."""
    op, *shapes = SKIP_CASES[name]
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    data = [rng.uniform(0.5, 2.0, size=shape) for shape in shapes]

    def grads(requires):
        ts = [Tensor(d.copy(), requires_grad=r) for d, r in zip(data, requires)]
        out = op(*ts)
        weight = Tensor(np.random.default_rng(1).normal(size=out.shape))
        ad.sum(out * weight).backward()
        return [t.grad for t in ts]

    every = grads([True] * len(data))
    some = grads([k != frozen for k in range(len(data))])
    assert some[frozen] is None
    for k in range(len(data)):
        if k != frozen:
            assert some[k].tobytes() == every[k].tobytes()


@settings(max_examples=50, deadline=None)
@given(st.floats(-2, 2), st.floats(-2, 2),
       st.floats(-1.5, 1.5), st.floats(-1.5, 1.5))
def test_backward_linearity(a_coef, b_coef, xv, yv):
    x = Tensor([xv], requires_grad=True)
    y = Tensor([yv], requires_grad=True)

    def grads(coef_f, coef_g):
        x.zero_grad(); y.zero_grad()
        f = ad.tanh(x) * y
        g = ad.leaky_relu(y) * x
        loss = ad.sum(Tensor(coef_f) * f + Tensor(coef_g) * g)
        loss.backward()
        return np.array([x.grad[0], y.grad[0]])

    combined = grads(a_coef, b_coef)
    gf = grads(1.0, 0.0)
    gg = grads(0.0, 1.0)
    np.testing.assert_allclose(combined, a_coef * gf + b_coef * gg,
                               rtol=1e-12, atol=1e-12)


def test_determinism_bit_identical():
    def run():
        rng = np.random.default_rng(123)
        x = rand(rng, 4, 4)
        loss = ad.mean(ad.tanh(ad.affine(x, x, Tensor(np.zeros(4)))) * x)
        loss.backward()
        return loss.data.copy(), x.grad.copy()

    l1, g1 = run()
    l2, g2 = run()
    assert l1.tobytes() == l2.tobytes()
    assert g1.tobytes() == g2.tobytes()


def test_no_grad_tensor_never_accumulates():
    x = Tensor([1.0], requires_grad=False)
    y = Tensor([2.0], requires_grad=True)
    ad.sum(x * y).backward()
    assert x.grad is None
    assert y.grad[0] == 1.0


def test_detach_blocks_gradient():
    x = Tensor([2.0], requires_grad=True)
    ad.sum(x.detach() * x).backward()
    assert x.grad[0] == 2.0
