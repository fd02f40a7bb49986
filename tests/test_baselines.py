"""Naive, last-value-anchored linear, and decomposition linear baselines."""
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import check_grads, reference_dlinear_kernel, reference_nlinear_kernel
from mppn import tensor as T
from mppn.baselines import (DLinearParams, NLinearParams, dlinear_forward, dlinear_kernel,
                            moving_average_decompose, moving_average_matrix, naive_kernel,
                            nlinear_forward, nlinear_kernel)
from mppn.errors import ArgumentError, ShapeError
from mppn.tensor import Tensor
from mppn.training import RunConfig, build_forecaster, restore_forecaster


# ---------------------------------------------------------------------------
# naive

def test_naive_repeats_last_row():
    x = np.array([[0.0, 9.0], [1.0, 2.0]])
    out = T.channel_affine(Tensor(x[None]), *naive_kernel(2, 3, 2))
    np.testing.assert_array_equal(out.data, [[[1.0, 2.0]] * 3])


def test_naive_perfect_on_constant_target():
    x = np.array([[5.0], [5.0], [5.0]])
    out = T.channel_affine(Tensor(x[None]), *naive_kernel(3, 4, 1))
    target = np.full((1, 4, 1), 5.0)
    assert float(np.mean((out.data - target) ** 2)) == 0.0


def test_naive_tone_mse_matches_closed_form():
    # direct enumeration over one full period of origins vs the closed form
    # 2 * var * (1 - mean_h cos(2*pi*h/p))
    period, horizon, amp = 12, 24, 1.7
    t_axis = np.arange(240)
    x = amp * np.sin(2.0 * np.pi * t_axis / period)
    lookback = 24
    origins = np.arange(lookback, lookback + period)
    sq = []
    for t0 in origins:
        window = Tensor(x[None, t0 - lookback:t0, None])
        pred = T.channel_affine(window, *naive_kernel(lookback, horizon, 1)).data[0]
        target = x[t0:t0 + horizon, None]
        sq.append(np.mean((pred - target) ** 2))
    direct = float(np.mean(sq))
    offsets = np.arange(1, horizon + 1)
    closed = 2.0 * (amp ** 2 / 2.0) * (1.0 - np.mean(np.cos(2.0 * np.pi * offsets / period)))
    assert direct == pytest.approx(closed, rel=1e-9)
    assert closed == pytest.approx(amp ** 2)  # period divides horizon: mean cosine is 0


# ---------------------------------------------------------------------------
# moving-average decomposition

def test_decompose_constant_series():
    x = np.full((1, 20, 2), 3.0)
    trend, seasonal = moving_average_decompose(Tensor(x), 5)
    assert np.max(np.abs(trend.data - x)) <= 1e-12
    assert np.max(np.abs(seasonal.data)) <= 1e-12


def test_decompose_linear_ramp_interior():
    x = np.arange(30.0)[None, :, None]
    trend, _ = moving_average_decompose(Tensor(x), 7)
    inner = slice(3, 27)
    assert np.max(np.abs(trend.data[:, inner] - x[:, inner])) <= 1e-9


def test_decompose_reconstructs_input():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((1, 40, 3))
    trend, seasonal = moving_average_decompose(Tensor(x), 25)
    assert np.max(np.abs(trend.data + seasonal.data - x)) <= 1e-12


@pytest.mark.parametrize("length,window", [(20, 5), (9, 17), (30, 25)])
def test_moving_average_matrix_matches_term_by_term_average(length, window):
    # edge replication by explicit index clipping, one term at a time
    x = np.random.default_rng(length).standard_normal(length)
    half = (window - 1) // 2
    want = np.array([sum(x[min(max(i + d, 0), length - 1)] for d in range(-half, half + 1))
                     for i in range(length)]) / window
    assert np.max(np.abs(moving_average_matrix(length, window) @ x - want)) <= 1e-12


def test_decompose_rejects_even_window():
    with pytest.raises(ArgumentError):
        moving_average_decompose(Tensor(np.zeros((1, 10, 1))), 4)
    with pytest.raises(ArgumentError):
        moving_average_decompose(Tensor(np.zeros((1, 10, 1))), 21)  # > 2L-1


def test_moving_average_matrix_names_itself_in_its_errors():
    with pytest.raises(ArgumentError, match=r"^moving_average_matrix: window must be odd, got 4$"):
        moving_average_matrix(10, 4)
    with pytest.raises(ArgumentError,
                       match=r"^moving_average_matrix: window 21 outside \[3, 19\]$"):
        moving_average_matrix(10, 21)


# ---------------------------------------------------------------------------
# nlinear

def test_nlinear_zero_weights_reduce_to_naive():
    x = np.random.default_rng(1).standard_normal((1, 8, 3))
    params = NLinearParams.from_arrays(NLinearParams.shapes(8, 5),
                                       {"weight": np.zeros((8, 5)), "bias": np.zeros(5)})
    out = nlinear_forward(Tensor(x), params)
    naive = T.channel_affine(Tensor(x), *naive_kernel(8, 5, 3))
    np.testing.assert_array_equal(out.data, naive.data)


@given(st.integers(0, 2**10 - 1), st.integers(-16, 16))
@settings(max_examples=40, deadline=None)
def test_nlinear_shift_equivariance_bitexact(pattern, shift_eighths):
    # with dyadic inputs, shift, and weights every operation is exact, so the
    # structural identity forward(x + c) == forward(x) + c holds bit for bit
    rng = np.random.default_rng(pattern)
    x = rng.integers(-32, 33, size=(1, 6, 2)).astype(np.float64) / 8.0
    c = shift_eighths / 8.0
    params = NLinearParams.from_arrays(NLinearParams.shapes(6, 4), {
        "weight": rng.integers(-32, 33, size=(6, 4)) / 64.0,
        "bias": rng.integers(-32, 33, size=4) / 64.0})
    base = nlinear_forward(Tensor(x), params).data
    shifted = nlinear_forward(Tensor(x + c), params).data
    assert np.array_equal(shifted, base + c)


def test_nlinear_shift_equivariance_arbitrary_weights_to_rounding():
    rng = np.random.default_rng(17)
    x = rng.standard_normal((1, 12, 3))
    params = NLinearParams.init(12, 5, seed=17)
    for c in (0.5, -3.25, 100.0):
        base = nlinear_forward(Tensor(x), params).data
        shifted = nlinear_forward(Tensor(x + c), params).data
        assert np.max(np.abs(shifted - (base + c))) <= 1e-12 * max(1.0, abs(c))


def test_nlinear_gradients():
    rng = np.random.default_rng(2)
    params = NLinearParams.init(7, 3, seed=5)
    x = Tensor(rng.standard_normal((2, 7, 2)))
    target = Tensor(rng.standard_normal((2, 3, 2)))

    def loss():
        return T.mse_loss(nlinear_forward(x, params), target)

    check_grads(loss, [params.tensors["weight"], params.tensors["bias"]], tol=1e-5)


# ---------------------------------------------------------------------------
# dlinear

def test_dlinear_zero_weights_give_zero():
    shapes = DLinearParams.shapes(6, 4)
    params = DLinearParams.from_arrays(shapes, {n: np.zeros(s) for n, s in shapes.items()})
    out = dlinear_forward(Tensor(np.random.default_rng(3).standard_normal((1, 6, 2))), params, 3)
    np.testing.assert_array_equal(out.data, np.zeros((1, 4, 2)))


def test_dlinear_uniform_trend_weights_pass_constant_through():
    lookback, horizon = 6, 4
    params = DLinearParams.from_arrays(DLinearParams.shapes(lookback, horizon), {
        "trend.weight": np.full((lookback, horizon), 1.0 / lookback),
        "trend.bias": np.zeros(horizon),
        "seasonal.weight": np.zeros((lookback, horizon)), "seasonal.bias": np.zeros(horizon)})
    const = 2.75
    out = dlinear_forward(Tensor(np.full((1, lookback, 3), const)), params, 3)
    assert np.max(np.abs(out.data - const)) <= 1e-12


def test_dlinear_gradients():
    rng = np.random.default_rng(4)
    params = DLinearParams.init(9, 3, seed=6)
    x = Tensor(rng.standard_normal((2, 9, 2)))
    target = Tensor(rng.standard_normal((2, 3, 2)))

    def loss():
        return T.mse_loss(dlinear_forward(x, params, 5), target)

    check_grads(loss, [t for _, t in params.named_parameters()], tol=1e-5)


def test_dlinear_kernel_matches_decomposed_projection():
    # W_s + M^T (W_t - W_s) against projecting trend and residual apart
    rng = np.random.default_rng(12)
    params = DLinearParams.init(15, 4, seed=3)
    w = params.tensors
    w["trend.bias"].data = rng.standard_normal(4)
    w["seasonal.bias"].data = rng.standard_normal(4)
    x = rng.standard_normal((3, 15, 2))
    trend, seasonal = moving_average_decompose(Tensor(x), 7)
    want = (np.einsum("blc,lh->bhc", trend.data, w["trend.weight"].data)
            + np.einsum("blc,lh->bhc", seasonal.data, w["seasonal.weight"].data)
            + (w["trend.bias"].data + w["seasonal.bias"].data)[None, :, None])
    assert np.max(np.abs(dlinear_forward(Tensor(x), params, 7).data - want)) <= 1e-12
    a, b = dlinear_kernel(params, 2, 7)
    assert a.shape == (2, 15, 4) and b.shape == (2, 4)
    assert np.array_equal(a.data[0], a.data[1])


def test_nlinear_kernel_columns_sum_to_one():
    # a constant window forecasts itself plus the bias
    params = NLinearParams.init(9, 4, seed=8)
    a, b = nlinear_kernel(params, 3)
    assert a.shape == (3, 9, 4) and b.shape == (3, 4)
    assert np.max(np.abs(a.data.sum(axis=1) - 1.0)) <= 1e-12


def test_dlinear_batch_matches_single():
    rng = np.random.default_rng(5)
    params = DLinearParams.init(10, 4, seed=7)
    xb = rng.standard_normal((3, 10, 2))
    batched = dlinear_forward(Tensor(xb), params, 5).data
    for i in range(3):
        single = dlinear_forward(Tensor(xb[i:i + 1]), params, 5).data
        np.testing.assert_array_equal(batched[i], single[0])


@pytest.mark.parametrize("shape", [(10, 2), (10,), (1, 1, 10, 2)])
@pytest.mark.parametrize("forecast", [
    lambda x: T.channel_affine(x, *naive_kernel(10, 3, 2)),
    lambda x: nlinear_forward(x, NLinearParams.init(10, 3)),
    lambda x: dlinear_forward(x, DLinearParams.init(10, 3), 5),
    lambda x: moving_average_decompose(x, 5),
], ids=["naive_last", "nlinear_forward", "dlinear_forward", "moving_average_decompose"])
def test_baselines_reject_input_rank_other_than_three(forecast, shape):
    with pytest.raises(ShapeError, match=r"\[B, L, C\]"):
        forecast(Tensor(np.zeros(shape)))


# ---------------------------------------------------------------------------
# the one-node kernels against their oracles

def _linear_cases():
    """(params class, L, C, kernel, its tape oracle): NLinear at L 1, 2 and
    9; DLinear at L 2 and 9 with moving-average width 3 and 2L - 1; each
    with one and three channels."""
    for lookback in (1, 2, 9):
        for channels in (1, 3):
            yield pytest.param(NLinearParams, lookback, channels, nlinear_kernel,
                               reference_nlinear_kernel, id=f"nlinear-L{lookback}-C{channels}")
    for lookback in (2, 9):
        for window in sorted({3, 2 * lookback - 1}):
            for channels in (1, 3):
                yield pytest.param(DLinearParams, lookback, channels,
                                   partial(dlinear_kernel, window=window),
                                   partial(reference_dlinear_kernel, window=window),
                                   id=f"dlinear-L{lookback}-w{window}-C{channels}")


def _kernel_and_gradients(compose, params, reach, seed):
    """A, b and every parameter's gradient of the squared error against
    random targets of the outputs named in ``reach``."""
    for t in params.tensors.values():
        t.grad = None
    T.clear_tape()
    a, b = compose()
    rng = np.random.default_rng(seed)
    terms = [T.mse_loss(out, Tensor(rng.standard_normal(out.shape)))
             for name, out in (("kernel", a), ("bias", b)) if name in reach]
    T.backward(terms[0] if len(terms) == 1 else T.add(*terms))
    return a.data, b.data, {name: t.grad for name, t in params.tensors.items()}


@pytest.mark.parametrize("cls,lookback,channels,kernel,reference", _linear_cases())
def test_linear_kernels_and_pullbacks_equal_the_tape_composition(cls, lookback, channels,
                                                                 kernel, reference):
    # bit for bit: the numpy composition does the tape's arithmetic in the
    # tape's order, and sums over channels as the tape's broadcast add does
    for seed in range(4):
        rng = np.random.default_rng(seed)
        shapes = cls.shapes(lookback, 5)
        params = cls.from_arrays(shapes, {n: rng.standard_normal(s) for n, s in shapes.items()})
        for reach in (("kernel", "bias"), ("kernel",), ("bias",)):
            a, b, got = _kernel_and_gradients(lambda: kernel(params, channels), params, reach, seed)
            want_a, want_b, want = _kernel_and_gradients(lambda: reference(params, channels),
                                                         params, reach, seed)
            assert a.shape == (channels, lookback, 5) and b.shape == (channels, 5)
            assert np.array_equal(a, want_a) and np.array_equal(b, want_b)
            for name, g in got.items():
                if want[name] is None:  # no path from the loss: the op hands back zeros
                    assert not np.any(g), (name, reach)
                else:
                    assert g.shape == want[name].shape, (name, reach)
                    assert np.array_equal(g, want[name]), (name, reach, seed)


def _tone_windows(lookback, horizon):
    """Every window [N, L, C] and target [N, H, C] of a small noisy
    two-channel series."""
    t = np.arange(300.0)
    clean = np.stack([np.sin(2 * np.pi * t / 24) + 0.3 * np.sin(2 * np.pi * t / 7),
                      0.5 * np.cos(2 * np.pi * t / 12) + 0.01 * t], axis=1)
    values = clean + 0.1 * np.random.default_rng(7).standard_normal(clean.shape)
    origins = np.arange(lookback, len(t) - horizon + 1)
    return (values[origins[:, None] + np.arange(-lookback, 0)],
            values[origins[:, None] + np.arange(horizon)])


def _rows(v):
    """[N, T, C] -> [N*C, T]: one row per (window, channel)."""
    return v.transpose(0, 2, 1).reshape(-1, v.shape[1])


def _full_batch_gradients(fc, x, y):
    for _, t in fc.named_parameters():
        t.grad = None
    T.backward(T.mse_loss(fc.forward_batch(Tensor(x)), Tensor(y)))
    return {name: t.grad for name, t in fc.named_parameters()}


@pytest.mark.parametrize("kind", ["nlinear", "dlinear"])
def test_least_squares_weights_zero_every_gradient(kind):
    # the full-batch MSE is quadratic in the weights, so at a least-squares
    # solution every gradient vanishes: an end-to-end check of each pullback.
    # NLinear's kernel is constrained (its columns sum to one), so its dA is
    # not zero there and dW = G - G[L-1] must cancel it; DLinear's is not,
    # so this checks its sums over windows and channels, and the tape oracle
    # above checks its map from G.
    lookback, horizon, window = 24, 6, 7
    x, y = _tone_windows(lookback, horizon)
    ones = np.ones((len(x) * x.shape[2], 1))
    if kind == "nlinear":
        last = x[:, -1:]
        coef = np.linalg.lstsq(np.hstack([_rows(x - last), ones]), _rows(y - last), rcond=None)[0]
        arrays = {"weight": coef[:lookback], "bias": coef[lookback]}
    else:
        trend = np.einsum("ij,njc->nic", moving_average_matrix(lookback, window), x)
        # trend and residual span only L directions between them: cut the rest
        coef = np.linalg.lstsq(np.hstack([_rows(trend), _rows(x - trend), ones]), _rows(y),
                               rcond=1e-10)[0]
        arrays = {"trend.weight": coef[:lookback], "trend.bias": coef[-1],
                  "seasonal.weight": coef[lookback:-1], "seasonal.bias": np.zeros(horizon)}
    run = RunConfig(model=kind, lookback=lookback, horizon=horizon, moving_average=window, seed=3)
    extras = {"channels": 2, "channel_names": ["a", "b"], "resolved_periods": []}
    at_init = _full_batch_gradients(build_forecaster(run, 2, ()), x, y)
    solved = _full_batch_gradients(restore_forecaster(run, extras, arrays), x, y)
    for name, g in solved.items():
        assert np.max(np.abs(g)) <= 1e-9 * np.max(np.abs(at_init[name])), name
