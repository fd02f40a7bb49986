"""Reference forecasters: last-value repeat and the two linear models.

Both linear models map the lookback axis straight to the horizon with
weights shared across channels.  One removes the window's final value
before the projection and adds it back afterwards; the other splits the
window into a moving-average trend and a residual and projects each part
separately.  Each forecaster maps a batch of windows [B, L, C] to
[B, H, C].
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ArgumentError, ShapeError
from .rng import SplitMix64, derive
from .tensor import Tensor


def _batch(x, fn: str) -> Tensor:
    x = x if isinstance(x, Tensor) else Tensor(x)
    if x.ndim != 3:
        raise ShapeError(f"{fn}: expected [B, L, C], got {x.shape}")
    return x


def naive_last(x, horizon: int) -> Tensor:
    """[B, L, C] -> [B, H, C]: repeat each window's most recent observation
    for every horizon step."""
    x = _batch(x, "naive_last")
    return Tensor(np.repeat(x.data[:, -1:, :], horizon, axis=1))


@dataclass
class NLinearParams:
    weight: Tensor  # [L, H]
    bias: Tensor  # [H]

    @classmethod
    def init(cls, lookback: int, horizon: int, seed: int = 0) -> "NLinearParams":
        rng = SplitMix64(derive(seed, "nlinear-init"))
        bound = 1.0 / math.sqrt(lookback)
        return cls(Tensor(rng.uniform(-bound, bound, (lookback, horizon)), requires_grad=True),
                   Tensor(np.zeros(horizon), requires_grad=True))

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        return [("weight", self.weight), ("bias", self.bias)]


def nlinear_forward(x, params: NLinearParams) -> Tensor:
    """[B, L, C] -> [B, H, C] projection of the last-value-anchored window:
    shifting every input by a constant shifts every output by the same
    constant."""
    xb = _batch(x, "nlinear_forward")
    length = params.weight.shape[0]
    if xb.shape[1] != length:
        raise ShapeError(f"nlinear: lookback axis {xb.shape[1]} != weight rows {length}")
    last = T.slice_axis(xb, 1, length - 1, length)  # [B, 1, C]
    centered = T.sub(xb, last)
    y = T.linear(T.transpose(centered, (0, 2, 1)), params.weight, params.bias)  # [B, C, H]
    return T.add(T.transpose(y, (0, 2, 1)), last)


@dataclass
class DLinearParams:
    trend_weight: Tensor  # [L, H]
    trend_bias: Tensor  # [H]
    seasonal_weight: Tensor  # [L, H]
    seasonal_bias: Tensor  # [H]
    window: int = 25  # moving-average width, odd

    @classmethod
    def init(cls, lookback: int, horizon: int, seed: int = 0, window: int = 25) -> "DLinearParams":
        rng = SplitMix64(derive(seed, "dlinear-init"))
        bound = 1.0 / math.sqrt(lookback)
        mk = lambda: Tensor(rng.uniform(-bound, bound, (lookback, horizon)), requires_grad=True)
        zeros = lambda: Tensor(np.zeros(horizon), requires_grad=True)
        return cls(mk(), zeros(), mk(), zeros(), window)

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        return [("trend.weight", self.trend_weight), ("trend.bias", self.trend_bias),
                ("seasonal.weight", self.seasonal_weight), ("seasonal.bias", self.seasonal_bias)]


def moving_average_decompose(x, window: int) -> tuple[Tensor, Tensor]:
    """Centered moving-average trend with edge replication, plus residual,
    along the time axis of [B, L, C].

    The two parts sum back to the input by construction.
    """
    xb = _batch(x, "moving_average_decompose")
    if window % 2 == 0:
        raise ArgumentError(f"moving_average_decompose: window must be odd, got {window}")
    b, length, c = xb.shape
    if not (3 <= window <= 2 * length - 1):
        raise ArgumentError(
            f"moving_average_decompose: window {window} outside [3, {2 * length - 1}]")
    half = (window - 1) // 2
    flat = T.reshape(T.transpose(xb, (0, 2, 1)), (b * c, 1, length))
    padded = T.pad_edge(flat, half, half)
    kernel = Tensor(np.full((1, 1, window), 1.0 / window))
    smooth = T.conv1d(padded, kernel, Tensor(np.zeros(1)), stride=1)
    trend = T.transpose(T.reshape(smooth, (b, c, length)), (0, 2, 1))
    return trend, T.sub(xb, trend)


def dlinear_forward(x, params: DLinearParams) -> Tensor:
    """[B, L, C] -> [B, H, C]: decompose, project trend and residual
    separately, and sum."""
    xb = _batch(x, "dlinear_forward")
    length = params.trend_weight.shape[0]
    if xb.shape[1] != length:
        raise ShapeError(f"dlinear: lookback axis {xb.shape[1]} != weight rows {length}")
    trend, seasonal = moving_average_decompose(xb, params.window)
    yt = T.linear(T.transpose(trend, (0, 2, 1)), params.trend_weight, params.trend_bias)
    ys = T.linear(T.transpose(seasonal, (0, 2, 1)), params.seasonal_weight, params.seasonal_bias)
    return T.transpose(T.add(yt, ys), (0, 2, 1))
