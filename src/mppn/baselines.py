"""Reference forecasters: last-value repeat and the two linear models.

Both linear models map the lookback axis straight to the horizon with
weights shared across channels.  One removes the window's final value
before the projection and adds it back afterwards; the other splits the
window into a moving-average trend and a residual and projects each part
separately.  All three are affine in the window, so each composes its
kernel (A [C, L, H], b [C, H]) from its weights, as the pattern
forecaster does, and maps a batch of windows [B, L, C] to [B, H, C] by
applying it.  The kernel is the same for every channel.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ArgumentError, ShapeError
from .rng import seeded_parameters
from .tensor import Tensor


def _batch(x, fn: str) -> Tensor:
    x = x if isinstance(x, Tensor) else Tensor(x)
    if x.ndim != 3:
        raise ShapeError(f"{fn}: expected [B, L, C], got {x.shape}")
    return x


def _per_channel(a: Tensor, b: Tensor, channels: int) -> tuple[Tensor, Tensor]:
    """A shared kernel ([L, H], [H]) repeated for every channel:
    ([C, L, H], [C, H])."""
    length, horizon = a.shape
    zeros = Tensor(np.zeros((channels, 1, 1)))
    return (T.add(T.reshape(a, (1, length, horizon)), zeros),
            T.add(T.reshape(b, (1, horizon)), T.reshape(zeros, (channels, 1))))


def naive_kernel(lookback: int, horizon: int, channels: int) -> tuple[Tensor, Tensor]:
    """Last-value repeat as a kernel: A = e_L 1^T, b = 0."""
    a = np.zeros((channels, lookback, horizon))
    a[:, -1] = 1.0
    return Tensor(a), Tensor(np.zeros((channels, horizon)))


@dataclass
class NLinearParams:
    weight: Tensor  # [L, H]
    bias: Tensor  # [H]

    @staticmethod
    def shapes(lookback: int, horizon: int) -> dict[str, tuple[int, ...]]:
        return {"weight": (lookback, horizon), "bias": (horizon,)}

    @classmethod
    def init(cls, lookback: int, horizon: int, seed: int = 0) -> "NLinearParams":
        return cls.from_arrays(seeded_parameters(cls.shapes(lookback, horizon), seed,
                                                 "nlinear-init"))

    @classmethod
    def from_arrays(cls, arrays: dict[str, np.ndarray]) -> "NLinearParams":
        return cls(Tensor(arrays["weight"], requires_grad=True),
                   Tensor(arrays["bias"], requires_grad=True))

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        return [("weight", self.weight), ("bias", self.bias)]


def nlinear_kernel(params: NLinearParams, channels: int) -> tuple[Tensor, Tensor]:
    """(x - last) @ W + b + last as a kernel: A = W plus 1 - colsum(W) on
    its last row, so a constant shift of the window shifts the forecast by
    the same constant."""
    length, horizon = params.weight.shape
    colsum = T.linear(Tensor(np.ones((1, length))), params.weight, Tensor(np.zeros(horizon)))
    last_row = T.concat([Tensor(np.zeros((length - 1, horizon))),
                         T.sub(np.ones((1, horizon)), colsum)], axis=0)
    a = T.add(params.weight, last_row)
    return _per_channel(a, params.bias, channels)


def nlinear_forward(x, params: NLinearParams) -> Tensor:
    """[B, L, C] -> [B, H, C] projection of the last-value-anchored window:
    shifting every input by a constant shifts every output by the same
    constant."""
    xb = _batch(x, "nlinear_forward")
    length = params.weight.shape[0]
    if xb.shape[1] != length:
        raise ShapeError(f"nlinear: lookback axis {xb.shape[1]} != weight rows {length}")
    return T.channel_affine(xb, *nlinear_kernel(params, xb.shape[2]))


@dataclass
class DLinearParams:
    trend_weight: Tensor  # [L, H]
    trend_bias: Tensor  # [H]
    seasonal_weight: Tensor  # [L, H]
    seasonal_bias: Tensor  # [H]
    window: int = 25  # moving-average width, odd

    @staticmethod
    def shapes(lookback: int, horizon: int) -> dict[str, tuple[int, ...]]:
        return {"trend.weight": (lookback, horizon), "trend.bias": (horizon,),
                "seasonal.weight": (lookback, horizon), "seasonal.bias": (horizon,)}

    @classmethod
    def init(cls, lookback: int, horizon: int, seed: int = 0, window: int = 25) -> "DLinearParams":
        return cls.from_arrays(seeded_parameters(cls.shapes(lookback, horizon), seed,
                                                 "dlinear-init"), window)

    @classmethod
    def from_arrays(cls, arrays: dict[str, np.ndarray], window: int = 25) -> "DLinearParams":
        names = ("trend.weight", "trend.bias", "seasonal.weight", "seasonal.bias")
        return cls(*(Tensor(arrays[name], requires_grad=True) for name in names), window)

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        return [("trend.weight", self.trend_weight), ("trend.bias", self.trend_bias),
                ("seasonal.weight", self.seasonal_weight), ("seasonal.bias", self.seasonal_bias)]


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


def dlinear_kernel(params: DLinearParams, channels: int) -> tuple[Tensor, Tensor]:
    """trend @ W_t + (x - trend) @ W_s with trend = M x as a kernel:
    A = W_s + M^T (W_t - W_s), b = b_t + b_s."""
    length, horizon = params.trend_weight.shape
    m = moving_average_matrix(length, params.window)
    a = T.add(params.seasonal_weight,
              T.linear(Tensor(m.T), T.sub(params.trend_weight, params.seasonal_weight),
                       Tensor(np.zeros(horizon))))
    return _per_channel(a, T.add(params.trend_bias, params.seasonal_bias), channels)


def dlinear_forward(x, params: DLinearParams) -> Tensor:
    """[B, L, C] -> [B, H, C]: decompose, project trend and residual
    separately, and sum."""
    xb = _batch(x, "dlinear_forward")
    length = params.trend_weight.shape[0]
    if xb.shape[1] != length:
        raise ShapeError(f"dlinear: lookback axis {xb.shape[1]} != weight rows {length}")
    return T.channel_affine(xb, *dlinear_kernel(params, xb.shape[2]))
