"""Reference forecasters: last-value repeat and the two linear models.

Both linear models map the lookback axis straight to the horizon with
weights shared across channels.  One removes the window's final value
before the projection and adds it back afterwards; the other splits the
window into a moving-average trend and a residual and projects each part
separately.  All three are affine in the window, so each composes its
kernel (A [C, L, H], b [C, H]) from its weights, as the pattern
forecaster does, and maps a batch of windows [B, L, C] to [B, H, C] by
applying it.  The kernel is the same for every channel: each linear model
composes it in numpy as one tape node whose pullback, derived by hand,
takes its gradient summed over the channels.  The test suite's
reference_*_kernel compose it op by op on the tape, as the oracles.  The
weights sit in a ``tensor.Params``; DLinear's moving-average width is a
run setting, passed to its kernel as an argument.
"""
from __future__ import annotations

import numpy as np

from . import tensor as T
from .errors import ArgumentError, ShapeError
from .rng import seeded_parameters
from .tensor import Tensor


def _batch(x, fn: str, weight: Tensor | None = None) -> Tensor:
    """``x`` as windows [B, L, C]; given the [L, H] ``weight`` of a kernel
    not yet composed, checked against that kernel's shape."""
    x = x if isinstance(x, Tensor) else Tensor(x)
    if x.ndim != 3:
        raise ShapeError(f"{fn}: expected [B, L, C], got {x.shape}")
    if weight is not None:
        T.check_affine(x.shape, (x.shape[2], *weight.shape))
    return x


def _shared_kernel(op: str, params: T.Params, a: np.ndarray, b: np.ndarray, channels: int,
                   pullback) -> tuple[Tensor, Tensor]:
    """(a [L, H], b [H]) from ``params``, repeated per channel as one tape node;
    ``pullback`` maps their gradients, summed over channels, to the parameters'."""
    return T.custom_op(op, tuple(params.tensors.values()),
                       (np.repeat(a[None], channels, axis=0), np.repeat(b[None], channels, axis=0)),
                       lambda d_a, d_b: pullback(d_a.sum(axis=0), d_b.sum(axis=0)))


def naive_kernel(lookback: int, horizon: int, channels: int) -> tuple[Tensor, Tensor]:
    """Last-value repeat as a kernel: A = e_L 1^T, b = 0."""
    a = np.zeros((channels, lookback, horizon))
    a[:, -1] = 1.0
    return Tensor(a), Tensor(np.zeros((channels, horizon)))


class NLinearParams(T.Params):
    @staticmethod
    def shapes(lookback: int, horizon: int) -> dict[str, tuple[int, ...]]:
        return {"weight": (lookback, horizon), "bias": (horizon,)}

    @classmethod
    def init(cls, lookback: int, horizon: int, seed: int = 0) -> "NLinearParams":
        shapes = cls.shapes(lookback, horizon)
        return cls.from_arrays(shapes, seeded_parameters(shapes, seed, "nlinear-init"))


def nlinear_kernel(params: NLinearParams, channels: int) -> tuple[Tensor, Tensor]:
    """(x - last) @ W + b + last as a kernel: A = W plus 1 - colsum(W) on
    its last row, so a constant shift of the window shifts the forecast by
    the same constant.  With G, g the gradients of A, b summed over the
    channels: dW = G - G[L-1] on every row, d bias = g."""
    weight = params.tensors["weight"].data
    a = weight.copy()
    a[-1] += 1.0 - (np.ones((1, len(weight))) @ weight)[0]
    return _shared_kernel("nlinear_kernel", params, a, params.tensors["bias"].data, channels,
                          lambda g_a, g_b: (g_a - g_a[-1], g_b))


def nlinear_forward(x, params: NLinearParams) -> Tensor:
    """[B, L, C] -> [B, H, C] projection of the last-value-anchored window:
    shifting every input by a constant shifts every output by the same
    constant."""
    xb = _batch(x, "nlinear_forward", params.tensors["weight"])
    return T.channel_affine(xb, *nlinear_kernel(params, xb.shape[2]))


class DLinearParams(T.Params):
    @staticmethod
    def shapes(lookback: int, horizon: int) -> dict[str, tuple[int, ...]]:
        return {"trend.weight": (lookback, horizon), "trend.bias": (horizon,),
                "seasonal.weight": (lookback, horizon), "seasonal.bias": (horizon,)}

    @classmethod
    def init(cls, lookback: int, horizon: int, seed: int = 0) -> "DLinearParams":
        shapes = cls.shapes(lookback, horizon)
        return cls.from_arrays(shapes, seeded_parameters(shapes, seed, "dlinear-init"))


def moving_average_matrix(length: int, window: int) -> np.ndarray:
    """[L, L] centered moving average with edge replication: trend = M x.
    Row i weighs sample clip(i + d, 0, L - 1) by 1/window for each offset
    d in [-(window-1)/2, (window-1)/2]."""
    if window % 2 == 0:
        raise ArgumentError(f"moving_average_matrix: window must be odd, got {window}")
    if not (3 <= window <= 2 * length - 1):
        raise ArgumentError(
            f"moving_average_matrix: window {window} outside [3, {2 * length - 1}]")
    half = (window - 1) // 2
    rows = np.arange(length)
    counts = np.zeros((length, length))
    for d in range(-half, half + 1):
        counts[rows, np.clip(rows + d, 0, length - 1)] += 1.0
    return counts / window


def moving_average_decompose(x, window: int) -> tuple[Tensor, Tensor]:
    """Centered moving-average trend with edge replication, plus residual,
    along the time axis of [B, L, C].

    The two parts sum back to the input by construction.
    """
    xb = _batch(x, "moving_average_decompose")
    length = xb.shape[1]
    m = moving_average_matrix(length, window)
    trend = T.transpose(T.linear(T.transpose(xb, (0, 2, 1)), Tensor(m.T), Tensor(np.zeros(length))),
                        (0, 2, 1))
    return trend, T.sub(xb, trend)


def dlinear_kernel(params: DLinearParams, channels: int, window: int) -> tuple[Tensor, Tensor]:
    """trend @ W_t + (x - trend) @ W_s with trend = M x, M the moving
    average of odd width ``window``, as a kernel: A = W_s + M^T (W_t - W_s),
    b = b_t + b_s.  With G, g the gradients of A, b summed over the
    channels: dW_t = M G, dW_s = G - M G, d trend.bias = d seasonal.bias = g."""
    w = {name: t.data for name, t in params.tensors.items()}
    mt = np.ascontiguousarray(moving_average_matrix(len(w["trend.weight"]), window).T)
    a = w["seasonal.weight"] + mt @ (w["trend.weight"] - w["seasonal.weight"])

    def pullback(g_a, g_b):
        mg = mt.T @ g_a
        return mg, g_b, g_a - mg, g_b

    return _shared_kernel("dlinear_kernel", params, a, w["trend.bias"] + w["seasonal.bias"],
                          channels, pullback)


def dlinear_forward(x, params: DLinearParams, window: int) -> Tensor:
    """[B, L, C] -> [B, H, C]: decompose with a moving average of width
    ``window``, project trend and residual separately, and sum."""
    xb = _batch(x, "dlinear_forward", params.tensors["trend.weight"])
    return T.channel_affine(xb, *dlinear_kernel(params, xb.shape[2], window))
