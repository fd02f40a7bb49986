"""Forward values and gradients of the autodiff operator set."""
import json
import os
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (assert_channel_affine_rows_batch_invariant, check_grads,
                     folded_adam_scalars, reference_adam_step, reference_channel_affine)
from mppn import optim, pool
from mppn import tensor as T
from mppn.errors import ArgumentError, ReceptiveFieldError, ShapeError
from mppn.model import MPPNConfig, parameter_shapes
from mppn.optim import Adam
from mppn.tensor import Tensor


def randn(rng, *shape):
    return rng.standard_normal(shape)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


# ---------------------------------------------------------------------------
# conv1d

def test_conv1d_identity_kernel():
    x = Tensor([[[1.0, 2.0, 3.0, 4.0]]])
    w = Tensor([[[1.0]]])
    b = Tensor([0.0])
    out = T.conv1d(x, w, b)
    np.testing.assert_array_equal(out.data, [[[1.0, 2.0, 3.0, 4.0]]])


def test_conv1d_output_length_arithmetic():
    x = Tensor(np.arange(6.0)[None, None, :])
    w = Tensor(np.ones((1, 1, 2)))
    b = Tensor([0.0])
    assert T.conv1d(x, w, b, stride=2).shape == (1, 1, 3)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_conv1d_gradients_match_finite_differences(seed):
    rng = np.random.default_rng(seed)
    x = Tensor(randn(rng, 2, 20)[None], requires_grad=True)
    w = Tensor(randn(rng, 3, 2, 4), requires_grad=True)
    b = Tensor(randn(rng, 3), requires_grad=True)

    def loss():
        return T.mse_loss(T.conv1d(x, w, b, stride=2, dilation=3), Tensor(np.zeros((1, 3, 6))))

    check_grads(loss, [x, w, b], tol=1e-5)


@pytest.mark.parametrize("lin,k,stride,dilation", [
    (12, 3, 1, 4),   # dilated kernel whose taps tile the input exactly once
    (12, 3, 3, 1),   # kernel marching at its own width, through the gather
    (13, 3, 2, 2),   # strided and dilated, through the gather
    (9, 1, 1, 1),    # unit kernel, stride one
])
def test_conv1d_gradients_every_layout(lin, k, stride, dilation):
    rng = np.random.default_rng(lin * 100 + k)
    x = Tensor(randn(rng, 2, 3, lin), requires_grad=True)
    w = Tensor(randn(rng, 4, 3, k), requires_grad=True)
    b = Tensor(randn(rng, 4), requires_grad=True)
    l_out = (lin - (k - 1) * dilation - 1) // stride + 1
    target = Tensor(np.zeros((2, 4, l_out)))

    def loss():
        return T.mse_loss(T.conv1d(x, w, b, stride=stride, dilation=dilation), target)

    check_grads(loss, [x, w, b], tol=1e-5)


def conv_reference(xd, wd, bd, stride, dilation):
    """Direct triple-loop convolution, independent of the library."""
    n, c_in, lin = xd.shape
    c_out, _, k = wd.shape
    l_out = (lin - (k - 1) * dilation - 1) // stride + 1
    out = np.zeros((n, c_out, l_out))
    for b_i in range(n):
        for o in range(c_out):
            for t in range(l_out):
                acc = bd[o]
                for i in range(c_in):
                    for j in range(k):
                        acc += wd[o, i, j] * xd[b_i, i, t * stride + j * dilation]
                out[b_i, o, t] = acc
    return out


@pytest.mark.parametrize("lin,k,stride,dilation", [
    (12, 3, 1, 4), (12, 3, 3, 1), (13, 3, 2, 2), (10, 2, 1, 1), (8, 4, 2, 1),
])
def test_conv1d_matches_direct_reference(lin, k, stride, dilation):
    rng = np.random.default_rng(lin + 7 * k)
    xd = randn(rng, 2, 3, lin)
    wd = randn(rng, 4, 3, k)
    bd = randn(rng, 4)
    got = T.conv1d(Tensor(xd), Tensor(wd), Tensor(bd), stride=stride, dilation=dilation).data
    want = conv_reference(xd, wd, bd, stride, dilation)
    assert np.max(np.abs(got - want)) <= 1e-12


def test_conv1d_batched_matches_per_sample(rng):
    xb = randn(rng, 4, 2, 11)
    w = Tensor(randn(rng, 3, 2, 3))
    b = Tensor(randn(rng, 3))
    full = T.conv1d(Tensor(xb), w, b, stride=2, dilation=2).data
    for i in range(4):
        single = T.conv1d(Tensor(xb[i:i + 1]), w, b, stride=2, dilation=2).data
        np.testing.assert_array_equal(full[i], single[0])


def test_conv1d_linear_in_input(rng):
    w = Tensor(randn(rng, 3, 2, 4))
    zero_b = Tensor(np.zeros(3))
    x = randn(rng, 2, 15)[None]
    y = randn(rng, 2, 15)[None]
    a, c = 0.7, -1.3
    mixed = T.conv1d(Tensor(a * x + c * y), w, zero_b).data
    parts = a * T.conv1d(Tensor(x), w, zero_b).data + c * T.conv1d(Tensor(y), w, zero_b).data
    assert np.max(np.abs(mixed - parts)) <= 1e-12


def test_conv1d_linear_in_weight(rng):
    x = Tensor(randn(rng, 2, 15)[None])
    zero_b = Tensor(np.zeros(3))
    w1 = randn(rng, 3, 2, 4)
    w2 = randn(rng, 3, 2, 4)
    a, c = 2.5, -0.4
    mixed = T.conv1d(x, Tensor(a * w1 + c * w2), zero_b).data
    parts = a * T.conv1d(x, Tensor(w1), zero_b).data + c * T.conv1d(x, Tensor(w2), zero_b).data
    assert np.max(np.abs(mixed - parts)) <= 1e-12


def test_conv1d_errors():
    w = Tensor(np.ones((1, 2, 3)))
    b = Tensor(np.zeros(1))
    with pytest.raises(ShapeError):
        T.conv1d(Tensor(np.ones((1, 3, 10))), w, b)  # channel mismatch
    with pytest.raises(ReceptiveFieldError):
        T.conv1d(Tensor(np.ones((1, 2, 4))), w, b, dilation=2)  # needs length 5
    with pytest.raises(ArgumentError):
        T.conv1d(Tensor(np.ones((1, 2, 10))), w, b, stride=0)


@pytest.mark.parametrize("shape", [(10,), (2, 10), (1, 1, 2, 10)])
def test_conv1d_rejects_input_rank_other_than_three(shape):
    with pytest.raises(ShapeError, match=r"\[N, Cin, L\]"):
        T.conv1d(Tensor(np.ones(shape)), Tensor(np.ones((1, 2, 3))), Tensor(np.zeros(1)))


# ---------------------------------------------------------------------------
# linear

def test_linear_identity():
    out = T.linear(Tensor([[1.0, 1.0, 1.0]]), Tensor(np.eye(3)), Tensor(np.zeros(3)))
    np.testing.assert_array_equal(out.data, [[1.0, 1.0, 1.0]])


def test_linear_bias_add():
    x = Tensor([[1.0, 2.0], [3.0, 4.0]])
    out = T.linear(x, Tensor(np.eye(2)), Tensor([10.0, 20.0]))
    np.testing.assert_array_equal(out.data, [[11.0, 22.0], [13.0, 24.0]])


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_linear_gradients(seed):
    rng = np.random.default_rng(seed)
    x = Tensor(randn(rng, 4, 7), requires_grad=True)
    w = Tensor(randn(rng, 7, 5), requires_grad=True)
    b = Tensor(randn(rng, 5), requires_grad=True)

    def loss():
        return T.mse_loss(T.linear(x, w, b), Tensor(np.zeros((4, 5))))

    check_grads(loss, [x, w, b], tol=1e-5)


def test_linear_inner_dim_error():
    with pytest.raises(ShapeError):
        T.linear(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 5))), Tensor(np.zeros(5)))


# ---------------------------------------------------------------------------
# channel_affine

def test_channel_affine_matches_per_channel_products(rng):
    x, a, b = randn(rng, 4, 6, 3), randn(rng, 3, 6, 5), randn(rng, 3, 5)
    out = T.channel_affine(Tensor(x), Tensor(a), Tensor(b)).data
    assert out.shape == (4, 5, 3)
    for c in range(3):
        assert np.max(np.abs(out[:, :, c] - (x[:, :, c] @ a[c] + b[c]))) <= 1e-12


# (C, L, H): a small model, ETTh1 geometry, and one, two or all three of
# C, L and H at 1
AFFINE_GEOMETRIES = [(7, 48, 12), (7, 336, 96), (1, 20, 5), (3, 1, 4), (3, 20, 1), (1, 1, 1)]
# sizes around the forward's block edges
AFFINE_BATCHES = (2, 5, T._ROWS - 1, T._ROWS, T._ROWS + 1, 2 * T._ROWS + 5)


def test_channel_affine_rows_do_not_depend_on_the_batch(rng):
    for geometry in AFFINE_GEOMETRIES:
        assert_channel_affine_rows_batch_invariant(rng, *geometry, AFFINE_BATCHES)


@pytest.mark.parametrize("threads", [1, 2])
def test_channel_affine_rows_do_not_depend_on_the_batch_at_blas_threads(threads):
    # the thread count is read when numpy loads BLAS, so the check runs in
    # a fresh interpreter whose environment sets it
    script = textwrap.dedent("""
        import json, sys
        assert "numpy" not in sys.modules
        import numpy as np
        from helpers import assert_channel_affine_rows_batch_invariant
        for geometry in json.loads(sys.argv[1]):
            assert_channel_affine_rows_batch_invariant(
                np.random.default_rng(7), *geometry, json.loads(sys.argv[2]))
        """)
    here = Path(__file__).resolve().parent
    path = os.pathsep.join([str(here.parent / "src"), str(here)])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads),
               MKL_NUM_THREADS=str(threads), PYTHONPATH=path)
    done = subprocess.run([sys.executable, "-c", script, json.dumps(AFFINE_GEOMETRIES),
                           json.dumps(AFFINE_BATCHES)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


@settings(max_examples=80, deadline=None)
@given(batch=st.sampled_from([0, 1, T._ROWS - 1, T._ROWS, T._ROWS + 1, 2 * T._ROWS + 5]),
       channels=st.integers(1, 4), lookback=st.integers(1, 40), horizon=st.integers(1, 12),
       seed=st.integers(0, 2 ** 32 - 1))
@example(batch=T._ROWS + 1, channels=1, lookback=1, horizon=1, seed=0)
@example(batch=3, channels=1, lookback=9, horizon=4, seed=1)
@example(batch=3, channels=2, lookback=1, horizon=4, seed=2)
@example(batch=3, channels=2, lookback=9, horizon=1, seed=3)
def test_channel_affine_matches_reference_einsum(batch, channels, lookback, horizon, seed):
    rng = np.random.default_rng(seed)
    x = randn(rng, batch, lookback, channels)
    a, b = randn(rng, channels, lookback, horizon), randn(rng, channels, horizon)
    got = T.channel_affine(Tensor(x), Tensor(a), Tensor(b)).data
    want = reference_channel_affine(x, a, b)
    assert got.shape == want.shape == (batch, horizon, channels)
    # within 1e-12 of the summed terms' magnitude
    scale = reference_channel_affine(np.abs(x), np.abs(a), np.abs(b))
    assert np.all(np.abs(got - want) <= 1e-12 * scale)


@pytest.mark.parametrize("seed", [12, 13, 14])
def test_channel_affine_gradients(seed):
    rng = np.random.default_rng(seed)
    x = Tensor(randn(rng, 3, 5, 2), requires_grad=True)
    a = Tensor(randn(rng, 2, 5, 4), requires_grad=True)
    b = Tensor(randn(rng, 2, 4), requires_grad=True)
    target = Tensor(randn(rng, 3, 4, 2))
    check_grads(lambda: T.mse_loss(T.channel_affine(x, a, b), target), [x, a, b], tol=1e-5)


@pytest.mark.parametrize("x,a,b", [
    ((2, 5, 3), (3, 4, 6), (3, 6)),  # lookback disagrees
    ((2, 5, 3), (2, 5, 6), (2, 6)),  # channels disagree
    ((2, 5, 3), (3, 5, 6), (6,)),  # bias not per channel
    ((5, 3), (3, 5, 6), (3, 6)),  # unbatched windows
])
def test_channel_affine_shape_errors(x, a, b):
    with pytest.raises(ShapeError, match="channel_affine"):
        T.channel_affine(Tensor(np.zeros(x)), Tensor(np.zeros(a)), Tensor(np.zeros(b)))


# ---------------------------------------------------------------------------
# sigmoid

def test_sigmoid_values_and_gradient_at_zero():
    x = Tensor([0.0], requires_grad=True)
    y = T.sigmoid(x)
    assert y.data[0] == 0.5
    T.backward(T.sum_all(y))
    assert x.grad[0] == 0.25


def test_sigmoid_saturation():
    assert abs(T.sigmoid(Tensor([50.0])).data[0] - 1.0) < 1e-12
    assert T.sigmoid(Tensor([-800.0])).data[0] >= 0.0  # no overflow


@pytest.mark.parametrize("seed", [6, 7, 8])
def test_sigmoid_gradients(seed):
    rng = np.random.default_rng(seed)
    x = Tensor(randn(rng, 3, 3), requires_grad=True)

    def loss():
        return T.mse_loss(T.sigmoid(x), Tensor(np.zeros((3, 3))))

    check_grads(loss, [x], tol=1e-5)


# ---------------------------------------------------------------------------
# concat

def test_concat_values():
    out = T.concat([Tensor([[1.0, 2.0]]), Tensor([[3.0]])], axis=1)
    np.testing.assert_array_equal(out.data, [[1.0, 2.0, 3.0]])
    out2 = T.concat([Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 5)))], axis=1)
    assert out2.shape == (2, 8)


def test_concat_backward_is_ones_through_sum(rng):
    a = Tensor(randn(rng, 2, 3), requires_grad=True)
    b = Tensor(randn(rng, 2, 5), requires_grad=True)
    T.backward(T.sum_all(T.concat([a, b], axis=1)))
    np.testing.assert_array_equal(a.grad, np.ones((2, 3)))
    np.testing.assert_array_equal(b.grad, np.ones((2, 5)))


def test_concat_then_split_reconstructs(rng):
    a = randn(rng, 3, 4)
    b = randn(rng, 3, 2)
    joined = T.concat([Tensor(a), Tensor(b)], axis=1).data
    left, right = np.split(joined, [4], axis=1)
    assert np.array_equal(left, a) and np.array_equal(right, b)


def test_concat_errors():
    with pytest.raises(ArgumentError):
        T.concat([], axis=0)
    with pytest.raises(ShapeError):
        T.concat([Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 3)))], axis=1)


# ---------------------------------------------------------------------------
# broadcast_mul

def test_broadcast_mul_identity_and_half(rng):
    a = Tensor(randn(rng, 2, 3, 4))
    ones = Tensor(np.ones((2, 3, 1)))
    np.testing.assert_array_equal(T.broadcast_mul(a, ones).data, a.data)
    halves = Tensor(np.full((2, 3, 1), 0.5))
    np.testing.assert_array_equal(T.broadcast_mul(a, halves).data, a.data / 2.0)


@pytest.mark.parametrize("seed", [9, 10, 11])
def test_broadcast_mul_gradients(seed):
    rng = np.random.default_rng(seed)
    a = Tensor(randn(rng, 2, 3, 4), requires_grad=True)
    g = Tensor(randn(rng, 2, 3, 1), requires_grad=True)

    def loss():
        return T.mse_loss(T.broadcast_mul(a, g), Tensor(np.zeros((2, 3, 4))))

    check_grads(loss, [a, g], tol=1e-5)


def test_broadcast_mul_shape_errors():
    with pytest.raises(ShapeError):
        T.broadcast_mul(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((2, 3))))
    with pytest.raises(ShapeError):
        T.broadcast_mul(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((5, 3, 1))))


# ---------------------------------------------------------------------------
# mse loss

def test_mse_values():
    p = Tensor([1.0, 2.0])
    assert float(T.mse_loss(p, Tensor([1.0, 2.0])).data) == 0.0
    assert float(T.mse_loss(Tensor([0.0, 0.0]), Tensor([1.0, 3.0])).data) == 5.0
    with pytest.raises(ShapeError):
        T.mse_loss(Tensor(np.zeros(2)), Tensor(np.zeros(3)))


def test_mse_gradient(rng):
    p = Tensor(randn(rng, 5, 4), requires_grad=True)
    t = Tensor(randn(rng, 5, 4))

    def loss():
        return T.mse_loss(p, t)

    check_grads(loss, [p], tol=1e-6)


# ---------------------------------------------------------------------------
# backward semantics

def test_backward_sum_gives_ones(rng):
    x = Tensor(randn(rng, 3, 2), requires_grad=True)
    T.backward(T.sum_all(x))
    np.testing.assert_array_equal(x.grad, np.ones((3, 2)))


def test_backward_fan_out_accumulates():
    x = Tensor([2.0], requires_grad=True)
    T.backward(T.sum_all(T.add(x, x)))
    np.testing.assert_array_equal(x.grad, [2.0])


def test_backward_sum_of_branches_accumulates(rng):
    x = Tensor(randn(rng, 4), requires_grad=True)
    T.backward(T.sum_all(T.add(T.mul(x, x), T.mul(x, Tensor(np.full(4, 3.0))))))
    expected = 2.0 * x.data + 3.0
    assert np.max(np.abs(x.grad - expected)) <= 1e-12


def test_backward_rejects_non_scalar(rng):
    x = Tensor(randn(rng, 3), requires_grad=True)
    with pytest.raises(ArgumentError):
        T.backward(T.add(x, x))
    T.clear_tape()


def _sum_and_product(x, w):
    """One custom node with two outputs, x + w and x * w, and its
    hand-written pullback."""
    def pullback(g_sum, g_prod):
        assert g_sum.shape == g_prod.shape == x.shape  # zeros for an output not reached
        return g_sum + g_prod * w.data, g_sum + g_prod * x.data

    return T.custom_op("sum_and_product", (x, w), (x.data + w.data, x.data * w.data), pullback)


@pytest.mark.parametrize("reach", [("sum", "product"), ("sum",), ("product",)])
def test_custom_op_with_two_outputs(rng, reach):
    # each output alone and both: an output the loss does not read hands
    # the pullback zeros, and finite differences agree
    x = Tensor(randn(rng, 2, 3), requires_grad=True)
    w = Tensor(randn(rng, 2, 3), requires_grad=True)
    c = {"sum": randn(rng, 2, 3), "product": randn(rng, 2, 3)}

    def loss():
        outs = dict(zip(("sum", "product"), _sum_and_product(x, w)))
        terms = [T.mse_loss(outs[name], Tensor(c[name])) for name in reach]
        return terms[0] if len(terms) == 1 else T.add(*terms)

    check_grads(loss, [x, w], tol=1e-7)


def test_custom_op_records_one_node_and_nothing_under_no_grad(rng):
    x = Tensor(randn(rng, 3), requires_grad=True)
    w = Tensor(randn(rng, 3))
    T.clear_tape()
    s, p = _sum_and_product(x, w)
    assert [node.op for node in T._tape()] == ["sum_and_product"]
    assert s.requires_grad and p.requires_grad
    T.clear_tape()
    with T.no_grad():
        s, p = _sum_and_product(x, w)
    assert T._tape() == [] and not s.requires_grad
    np.testing.assert_array_equal(p.data, x.data * w.data)


def _sliced_and_dense_loss(x, w, target, ranges, slices_first):
    """u = x * w used through slices of axis 1 at ``ranges`` and once
    densely.  Backward reaches u in reverse recording order, so with
    ``slices_first`` the dense use is recorded first and its gradient
    arrives last."""
    u = T.mul(x, w)
    terms = [T.mse_loss(T.slice_axis(u, 1, lo, hi), Tensor(target[:, lo:hi]))
             for lo, hi in ranges]
    dense = T.mse_loss(T.sigmoid(u), Tensor(target))
    terms = [dense] + terms if slices_first else terms + [dense]
    loss = terms[0]
    for term in terms[1:]:
        loss = T.add(loss, term)
    return loss


@pytest.mark.parametrize("slices_first", [False, True], ids=["dense-first", "slices-first"])
@pytest.mark.parametrize("ranges", [((0, 3), (3, 5), (6, 8)), ((0, 5), (2, 8), (4, 6))],
                         ids=["disjoint", "overlapping"])
def test_backward_through_several_slices_and_a_dense_use(rng, ranges, slices_first):
    x = Tensor(randn(rng, 3, 8), requires_grad=True)
    w = Tensor(randn(rng, 3, 8), requires_grad=True)
    target = randn(rng, 3, 8)
    check_grads(lambda: _sliced_and_dense_loss(x, w, target, ranges, slices_first), [x, w],
                tol=1e-6)


def test_backward_never_writes_a_gradient_it_handed_out(rng):
    # add hands y's gradient to u twice and reshape hands a view of u's
    # gradient to x; the slice of x, recorded first, reaches x last
    x = Tensor(randn(rng, 3, 4), requires_grad=True)
    c, d = randn(rng, 4, 3), randn(rng, 3, 2)
    s = T.slice_axis(x, 1, 1, 3)
    u = T.reshape(x, (4, 3))
    y = T.add(u, u)
    T.backward(T.add(T.sum_all(T.mul(y, Tensor(c))), T.sum_all(T.mul(s, Tensor(d)))))
    np.testing.assert_array_equal(y.grad, c)
    np.testing.assert_array_equal(u.grad, 2.0 * c)
    np.testing.assert_array_equal(s.grad, d)
    want = (2.0 * c).reshape(3, 4)
    want[:, 1:3] += d
    np.testing.assert_array_equal(x.grad, want)


@pytest.mark.parametrize("sliced_first", [False, True], ids=["dense-first", "sliced-first"])
def test_repeated_backward_accumulates_without_touching_earlier_gradients(rng, sliced_first):
    x = Tensor(randn(rng, 3, 4), requires_grad=True)
    c, d = randn(rng, 4, 3), randn(rng, 3, 2)

    def loss():
        # the node recorded last reaches x first
        def use_slice():
            return T.sum_all(T.mul(T.slice_axis(x, 1, 1, 3), Tensor(d)))

        def use_view():
            return T.sum_all(T.mul(T.reshape(x, (4, 3)), Tensor(c)))

        first, second = (use_view, use_slice) if sliced_first else (use_slice, use_view)
        return T.add(first(), second())

    T.backward(loss())
    once = x.grad.copy()
    T.backward(loss())
    assert np.max(np.abs(x.grad - 2.0 * once)) <= 1e-12

    # a leaf whose gradient is a view of an intermediate's from an earlier call
    x.grad = None
    u = T.reshape(x, (4, 3))
    T.backward(T.sum_all(T.mul(u, Tensor(c))))
    assert np.shares_memory(x.grad, u.grad)
    kept = u.grad.copy()
    T.backward(loss())
    np.testing.assert_array_equal(u.grad, kept)
    assert np.max(np.abs(x.grad - (c.reshape(3, 4) + once))) <= 1e-12


# ---------------------------------------------------------------------------
# structural ops

def test_pad_edge_values_and_gradient(rng):
    x = Tensor([[1.0, 2.0, 3.0]], requires_grad=True)
    out = T.pad_edge(x, 2, 1)
    np.testing.assert_array_equal(out.data, [[1.0, 1.0, 1.0, 2.0, 3.0, 3.0]])

    def loss():
        return T.mse_loss(T.pad_edge(x, 2, 1), Tensor(np.zeros((1, 6))))

    check_grads(loss, [x], tol=1e-6)


def test_slice_axis_values_and_gradient(rng):
    x = Tensor(randn(rng, 3, 6), requires_grad=True)
    out = T.slice_axis(x, 1, 2, 5)
    np.testing.assert_array_equal(out.data, x.data[:, 2:5])

    def loss():
        return T.mse_loss(T.slice_axis(x, 1, 2, 5), Tensor(np.zeros((3, 3))))

    check_grads(loss, [x], tol=1e-6)


def test_transpose_reshape_gradients(rng):
    x = Tensor(randn(rng, 2, 3, 4), requires_grad=True)

    def loss():
        y = T.transpose(x, (1, 0, 2))
        return T.mse_loss(T.reshape(y, (3, 8)), Tensor(np.zeros((3, 8))))

    check_grads(loss, [x], tol=1e-6)


def test_no_grad_suppresses_recording(rng):
    x = Tensor(randn(rng, 3), requires_grad=True)
    with T.no_grad():
        y = T.mul(x, x)
    assert not y.requires_grad
    assert len(T._tape()) == 0


def test_tapes_are_thread_confined():
    # concurrent forward+backward on separate threads must not interleave
    import threading

    results = {}

    def work(tag, scale):
        x = Tensor(np.full(4, scale), requires_grad=True)
        for _ in range(200):
            x.grad = None
            T.backward(T.sum_all(T.mul(x, x)))
        results[tag] = x.grad.copy()

    threads = [threading.Thread(target=work, args=(i, float(i + 1))) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for i in range(4):
        np.testing.assert_allclose(results[i], 2.0 * (i + 1), rtol=0, atol=0)


# ---------------------------------------------------------------------------
# adam

def test_adam_zero_gradient_no_weight_decay_is_identity():
    p = Tensor([1.5, -2.5], requires_grad=True)
    p.grad = np.zeros(2)
    opt = Adam([p], weight_decay=0.0)
    opt.step()
    np.testing.assert_array_equal(p.data, [1.5, -2.5])


def test_adam_first_step_matches_hand_formula():
    # evaluate the bias-corrected update independently at t=1
    lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
    g = 1.0
    m_hat = ((1 - b1) * g) / (1 - b1)
    v_hat = ((1 - b2) * g * g) / (1 - b2)
    expected = 0.0 - lr * m_hat / (np.sqrt(v_hat) + eps)

    p = Tensor([0.0], requires_grad=True)
    p.grad = np.array([1.0])
    opt = Adam([p], lr=lr, beta1=b1, beta2=b2, eps=eps, weight_decay=0.0)
    opt.step()
    assert p.data[0] == expected
    assert abs(p.data[0] - (-1e-3)) < 1e-10


def test_adam_descends_convex_quadratic():
    p = Tensor([3.0], requires_grad=True)
    opt = Adam([p], lr=1e-1, weight_decay=0.0)
    losses = []
    for _ in range(2):
        T.clear_tape()
        p.grad = None
        loss = T.mse_loss(p, Tensor([0.0]))
        losses.append(float(loss.data))
        T.backward(loss)
        opt.step()
    final = float(T.mse_loss(p, Tensor([0.0])).data)
    assert losses[0] > losses[1] > final


def test_adam_bit_deterministic(rng):
    def run():
        p = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        opt = Adam([p])
        for step in range(5):
            p.grad = np.array([0.1, -0.2, 0.3]) * (step + 1)
            opt.step()
        return p.data.copy()

    assert np.array_equal(run(), run())


def _check_adam_against_out_of_place_formula(shapes, weight_decay):
    lr, b1, b2, eps = 1e-2, 0.9, 0.999, 1e-8
    gen = np.random.default_rng(21)
    start = [gen.standard_normal(s) for s in shapes]
    grads = [[gen.standard_normal(s) for s in shapes] for _ in range(5)]

    params = [Tensor(a.copy(), requires_grad=True) for a in start]
    opt = Adam(params, lr=lr, beta1=b1, beta2=b2, eps=eps, weight_decay=weight_decay)
    ref = [a.copy() for a in start]
    m = [np.zeros(s) for s in shapes]
    v = [np.zeros(s) for s in shapes]
    for t, step_grads in enumerate(grads, 1):
        for p, g in zip(params, step_grads):
            p.grad = g.copy(order="F")  # not C-contiguous when 2-d or more
        opt.step()
        alpha, eps_hat = folded_adam_scalars(t, lr, b1, b2, eps)
        for i, g in enumerate(step_grads):
            if weight_decay:
                g = g + weight_decay * ref[i]
            m[i] = b1 * m[i] + g
            v[i] = b2 * v[i] + g * g
            ref[i] = ref[i] - (alpha * m[i]) / (np.sqrt(v[i]) + eps_hat)
        for p, g, r in zip(params, step_grads, ref):
            np.testing.assert_array_equal(p.data, r)
            np.testing.assert_array_equal(p.grad, g)  # the gradient is only read
        for got, want in zip(opt.m + opt.v, m + v):
            np.testing.assert_array_equal(got, want)
    assert opt.t == len(grads)


@pytest.mark.parametrize("weight_decay", [0.0, 1e-2])
def test_adam_in_place_step_matches_out_of_place_formula(weight_decay):
    # the long one spans several Adam scratch blocks and ends mid-block
    shapes = [(4, 3), (5,), (2, 3, 2), (2 * optim._BLOCK + 3,), ()]
    _check_adam_against_out_of_place_formula(shapes, weight_decay)


@pytest.mark.parametrize("weight_decay", [0.0, 1e-2])
def test_adam_folded_step_matches_the_textbook_formula(weight_decay):
    # the textbook update (Kingma & Ba, Algorithm 1) with coupled L2, out of
    # place; the folded step rounds differently, so the two agree to a
    # tolerance relative to each array's largest magnitude, not bit for bit
    lr, b1, b2, eps, tol = 1e-2, 0.9, 0.999, 1e-8, 1e-12
    gen = np.random.default_rng(33)
    shapes = [(40, 3), (7,), ()]
    start = [gen.standard_normal(s) for s in shapes]
    params = [Tensor(a.copy(), requires_grad=True) for a in start]
    opt = Adam(params, lr=lr, beta1=b1, beta2=b2, eps=eps, weight_decay=weight_decay)
    ref = [a.copy() for a in start]
    m, v = [np.zeros(s) for s in shapes], [np.zeros(s) for s in shapes]
    # per-step gradient scales across the regimes: √v̂ far below, near and
    # far above ε
    scales = 10.0 ** gen.uniform(-8, 2, size=200)
    scales[:3] = 1e-8, 1e2, 1e-8
    for t, scale in enumerate(scales, 1):
        grads = [gen.standard_normal(s) * scale for s in shapes]
        for p, g in zip(params, grads):
            p.grad = g
        opt.step()
        for i, g in enumerate(grads):
            g = g + weight_decay * ref[i]
            m[i] = b1 * m[i] + (1.0 - b1) * g
            v[i] = b2 * v[i] + (1.0 - b2) * (g * g)
            m_hat = m[i] / (1.0 - b1 ** t)
            v_hat = v[i] / (1.0 - b2 ** t)
            ref[i] = ref[i] - lr * m_hat / (np.sqrt(v_hat) + eps)
        for got, want in [(p.data, r) for p, r in zip(params, ref)] + \
                [(mm * (1.0 - b1), r) for mm, r in zip(opt.m, m)] + \
                [(vv * (1.0 - b2), r) for vv, r in zip(opt.v, v)]:
            np.testing.assert_allclose(got, want, rtol=0, atol=tol * np.abs(want).max())


@pytest.mark.parametrize("sizes", [(5,), (optim._BLOCK + 3, 5)], ids=["one-block", "two-threads"])
def test_adam_epsilon_dominated_steps_stay_exact_and_finite(sizes):
    # √V is 0 where the gradient has been 0, so ε̂ alone is the denominator:
    # a wrong ε̂ or a 0/0 would show here.  errstate is per thread: one block
    # runs on the calling thread only, so every operation is under it; the
    # worker's blocks are checked by the finiteness and oracle asserts
    params = [Tensor(np.linspace(-2.0, 2.0, n), requires_grad=True) for n in sizes]
    start = [p.data.copy() for p in params]
    opt = Adam(params, weight_decay=0.0)
    with np.errstate(all="raise"):
        for p in params:
            p.grad = np.zeros(p.shape)
        opt.step()
        for p, a in zip(params, start):
            np.testing.assert_array_equal(p.data, a)
        grads = [np.where(np.arange(p.size) % 3 == 0, 0.0, 1e-9 * (np.arange(p.size) + 1.0))
                 for p in params]
        for t in (2, 3):
            for p, g in zip(params, grads):
                p.grad = g
            opt.step()
    ref = [a.copy() for a in start]
    m, v = [np.zeros(p.shape) for p in params], [np.zeros(p.shape) for p in params]
    reference_adam_step(ref, [np.zeros(p.shape) for p in params], m, v, 1, weight_decay=0.0)
    for t in (2, 3):
        reference_adam_step(ref, grads, m, v, t, weight_decay=0.0)
    for p, a, r, g in zip(params, start, ref, grads):
        assert np.all(np.isfinite(p.data))
        np.testing.assert_array_equal(p.data, r)
        np.testing.assert_array_equal(p.data[g == 0], a[g == 0])  # M stays 0 there
        assert np.all(p.data[g > 0] < a[g > 0])


@pytest.mark.parametrize("setting, value", [
    ("lr", 0.0), ("lr", -1e-3), ("lr", float("inf")), ("lr", float("nan")),
    ("beta1", 1.0), ("beta1", -0.1), ("beta1", float("nan")),
    ("beta2", 1.0), ("beta2", 1.5), ("beta2", float("nan")),
    ("eps", 0.0), ("eps", -1e-8), ("eps", float("inf")), ("eps", float("nan")),
    ("weight_decay", -1e-5), ("weight_decay", float("inf")), ("weight_decay", float("nan")),
])
def test_adam_rejects_hyperparameters_outside_their_range(setting, value):
    p = Tensor(np.zeros(3), requires_grad=True)
    with pytest.raises(ArgumentError, match=setting):
        Adam([p], **{setting: value})
    Adam([p], beta1=0.0, beta2=0.0, weight_decay=0.0)  # the closed ends are allowed


# how a step's blocks fall: each parameter is cut into blocks of at most
# _BLOCK elements, and the threads take them in turn
ADAM_BLOCKS = {
    "small-parameters": [(3,), (10,)],
    "one-block-per-parameter": [(optim._BLOCK,), (optim._BLOCK // 2, 2)],
    "block-edges-inside-a-parameter": [(4 * optim._BLOCK,)],
    "a-short-last-block": [(optim._BLOCK + 7,), (optim._BLOCK - 1, 2)],
    "empty-parameters": [(0,), (3,), (0, 4), (5,)],
    "lone-0-d": [()],
    "one-element": [(1,)],
    "no-parameters": [],
}


@pytest.mark.parametrize("shapes", ADAM_BLOCKS.values(), ids=ADAM_BLOCKS.keys())
@pytest.mark.parametrize("weight_decay", [0.0, 1e-2])
def test_adam_split_step_matches_out_of_place_formula(shapes, weight_decay):
    _check_adam_against_out_of_place_formula(shapes, weight_decay)


def test_adam_step_at_bench_geometry_matches_the_single_range_loop():
    config = MPPNConfig(lookback=336, horizon=96, channels=7, hidden=48,
                        resolutions=(1, 3, 4, 6), periods=(24, 168))
    gen = np.random.default_rng(8)
    params = [Tensor(gen.standard_normal(s), requires_grad=True)
              for s in parameter_shapes(config).values()]
    assert sum(p.size for p in params) == 1_699_440
    ref = [p.data.copy() for p in params]
    m, v = [np.zeros_like(a) for a in ref], [np.zeros_like(a) for a in ref]
    opt = Adam(params)
    for t in (1, 2):
        for p in params:
            p.grad = gen.standard_normal(p.shape)
        opt.step()
        reference_adam_step(ref, [p.grad for p in params], m, v, t)
    for i, p in enumerate(params):
        np.testing.assert_array_equal(p.data, ref[i])
        np.testing.assert_array_equal(opt.m[i], m[i])
        np.testing.assert_array_equal(opt.v[i], v[i])


def test_adam_split_step_is_bit_identical_under_frequent_thread_switches():
    gen = np.random.default_rng(4)
    shapes = [(3 * optim._BLOCK + 5,), (17, 9), (optim._BLOCK,)]
    start = [gen.standard_normal(s) for s in shapes]
    grads = [gen.standard_normal(s) for s in shapes]
    ref = [a.copy() for a in start]
    m, v = [np.zeros(s) for s in shapes], [np.zeros(s) for s in shapes]
    for t in (1, 2, 3):
        reference_adam_step(ref, grads, m, v, t)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        params = [Tensor(a.copy(), requires_grad=True) for a in start]
        opt = Adam(params)
        for _ in range(3):
            for p, g in zip(params, grads):
                p.grad = g
            opt.step()
    finally:
        sys.setswitchinterval(interval)
    for p, r in zip(params, ref):
        np.testing.assert_array_equal(p.data, r)


@pytest.mark.parametrize("failing", ["caller", "worker"])
def test_adam_step_raises_an_update_error_from_either_thread(monkeypatch, failing):
    params = [Tensor(np.zeros(optim._BLOCK), requires_grad=True) for _ in range(8)]
    opt = Adam(params)
    for p in params:
        p.grad = np.ones(p.shape)
    update, raised = Adam._update, []

    def flaky(self, *args):
        in_caller = threading.current_thread() is stepping
        if (in_caller == (failing == "caller")) and not raised:
            raised.append(True)
            raise FloatingPointError("update failed")
        if in_caller:
            time.sleep(0.05)  # leaves blocks for the worker
        update(self, *args)

    monkeypatch.setattr(Adam, "_update", flaky)
    result = []

    def step():
        try:
            opt.step()
        except FloatingPointError as exc:
            result.append(exc)

    stepping = threading.Thread(target=step)
    stepping.start()
    stepping.join(timeout=60)
    assert not stepping.is_alive()
    assert raised and len(result) == 1


def test_adam_step_does_not_wait_for_a_worker_that_has_not_started():
    gen = np.random.default_rng(12)
    shapes = [(3 * optim._BLOCK + 5,), (17, 9)]
    start = [gen.standard_normal(s) for s in shapes]
    grads = [[gen.standard_normal(s) for s in shapes] for _ in range(2)]
    params = [Tensor(a.copy(), requires_grad=True) for a in start]
    opt = Adam(params)
    hold = threading.Event()
    held = pool._workers().submit(hold.wait)  # the pool's only worker
    try:
        for p, g in zip(params, grads[0]):
            p.grad = g
        stepping = threading.Thread(target=opt.step)
        stepping.start()
        stepping.join(timeout=30)
        assert not stepping.is_alive() and not hold.is_set()
    finally:
        hold.set()
    assert held.result(timeout=30)
    for p, g in zip(params, grads[1]):
        p.grad = g
    opt.step()
    ref = [a.copy() for a in start]
    m, v = [np.zeros(s) for s in shapes], [np.zeros(s) for s in shapes]
    for t, step_grads in enumerate(grads, 1):
        reference_adam_step(ref, step_grads, m, v, t)
    for p, r in zip(params, ref):
        np.testing.assert_array_equal(p.data, r)


def _adam_state(opt):
    return ([p.data.copy() for p in opt.params], [a.copy() for a in opt.m],
            [a.copy() for a in opt.v], opt.t)


@pytest.mark.parametrize("fault", ["no-gradient", "gradient-shape", "not-contiguous"])
def test_adam_failed_step_changes_nothing(fault):
    gen = np.random.default_rng(6)
    params = [Tensor(gen.standard_normal(s), requires_grad=True)
              for s in [(optim._BLOCK + 3,), (4, 5), (6, 2)]]
    opt = Adam(params)
    for p in params:
        p.grad = gen.standard_normal(p.shape)
    opt.step()
    last = params[-1]
    if fault == "no-gradient":
        last.grad = None
    elif fault == "gradient-shape":
        last.grad = np.zeros(12)
    else:
        last.data = np.ascontiguousarray(last.data.T).T
    before = _adam_state(opt)
    with pytest.raises(ArgumentError):
        opt.step()
    after = _adam_state(opt)
    assert after[3] == before[3] == 1
    for got, want in zip(after[:3], before[:3]):
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)


def test_adam_rejects_a_parameter_whose_shape_changed():
    p = Tensor(np.zeros(6), requires_grad=True)
    opt = Adam([p])
    p.data, p.grad = np.zeros(7), np.zeros(7)
    with pytest.raises(ArgumentError, match="shape"):
        opt.step()


def test_adam_rejects_parameters_that_share_memory():
    p = Tensor(np.zeros(4), requires_grad=True)
    with pytest.raises(ArgumentError, match="share memory"):
        Adam([p, Tensor(np.ones(2), requires_grad=True), p])
    buf = np.zeros(10)
    with pytest.raises(ArgumentError, match="share memory"):
        Adam([Tensor(buf[:6], requires_grad=True), Tensor(buf[4:], requires_grad=True)])
    # disjoint views of one buffer are separate parameters
    Adam([Tensor(buf[:5], requires_grad=True), Tensor(buf[5:], requires_grad=True)])


def test_adam_rejects_a_non_contiguous_parameter():
    p = Tensor(np.zeros((3, 2)), requires_grad=True)
    opt = Adam([p])
    p.data = np.zeros((2, 3)).T
    p.grad = np.zeros((3, 2))
    with pytest.raises(ArgumentError, match="contiguous"):
        opt.step()


def test_adam_shape_mismatch_error():
    p = Tensor([0.0, 0.0], requires_grad=True)
    p.grad = np.zeros(3)
    with pytest.raises(ArgumentError):
        Adam([p]).step()
