"""Multi-resolution periodic pattern forecaster.

The lookback is cut into patches at several resolutions (one conv kernel of
width r, stride r), each patched view is scanned by a dilated convolution
whose dilation equals the patch-level period and whose kernel covers the
number of period repetitions in the lookback, and the trailing one-period
slice of each scan is kept.  All slices concatenate into a pattern bank of
width P; a learnable per-channel sigmoid gate rescales the bank, and a
single shared affine layer projects the flattened bank to the horizon.

Pattern extraction weights are shared across channels; the gate matrix is
the only channel-specific parameter.  The only nonlinearity in the network
is the gate's sigmoid.

Patching and mining are both linear, so the forward pass folds each patch
kernel into its mining kernels at run time and mines the raw window with
one dilated convolution per pair.  That is the same map from the same
parameters, so checkpoints are unchanged.  Patched units are never
materialised here; the test suite's plain-numpy reference_bank patches
and mines stage by stage and is the oracle of the fold.

Every entry point takes a batch of windows, [B, L, C].
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, ShapeError
from .rng import SplitMix64, derive
from .tensor import Tensor

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class MPPNConfig:
    """Geometry and seed of one model instance.

    A (period, resolution) pair survives only if the lookback holds at
    least one full period and the period holds at least one patch; pairs
    failing either test are dropped with a warning.
    """

    lookback: int
    horizon: int
    channels: int
    hidden: int = 48
    resolutions: tuple[int, ...] = (1, 3, 4, 6)
    periods: tuple[int, ...] = (24,)
    overlap: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.lookback < 1 or self.horizon < 1 or self.channels < 1 or self.hidden < 1:
            raise ConfigError(
                f"config: lookback/horizon/channels/hidden must be positive, got "
                f"{self.lookback}/{self.horizon}/{self.channels}/{self.hidden}")
        object.__setattr__(self, "resolutions", tuple(int(r) for r in self.resolutions))
        object.__setattr__(self, "periods", tuple(int(p) for p in self.periods))
        for r in self.resolutions:
            if r < 1 or r > self.lookback:
                raise ConfigError(f"config: resolution {r} outside [1, lookback={self.lookback}]")
        for p in self.periods:
            if p < 2:
                raise ConfigError(f"config: period {p} must be >= 2")
        dropped = [(p, r) for p in self.periods for r in self.resolutions
                   if self.lookback // p < 1 or p // r < 1]
        for p, r in dropped:
            log.warning("config: dropping (period=%d, resolution=%d): kernel %d, phases %d",
                        p, r, self.lookback // p, p // r)
        if not self.retained_pairs:
            raise ConfigError(
                f"config: no usable (period, resolution) pairs for lookback {self.lookback}, "
                f"periods {self.periods}, resolutions {self.resolutions}")

    @property
    def retained_pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple((p, r) for p in self.periods for r in self.resolutions
                     if self.lookback // p >= 1 and p // r >= 1)

    @property
    def used_resolutions(self) -> tuple[int, ...]:
        used = []
        for r in self.resolutions:
            if r not in used and any(rr == r for _, rr in self.retained_pairs):
                used.append(r)
        return tuple(used)


def pattern_dim(config: MPPNConfig) -> int:
    """Total number of pattern slots: sum of period//resolution over all
    retained pairs."""
    return sum(p // r for p, r in config.retained_pairs)


@dataclass
class MPPNParams:
    """All learnable arrays of one model instance."""

    patch: dict[int, tuple[Tensor, Tensor]]  # r -> (weight [D,1,r], bias [D])
    mine: dict[tuple[int, int], tuple[Tensor, Tensor]]  # (period, r) -> ([D,D,K], [D])
    embed: Tensor  # [C, P] gate logits
    out_weight: Tensor  # [P*D, H]
    out_bias: Tensor  # [H]

    @classmethod
    def init(cls, config: MPPNConfig) -> "MPPNParams":
        """Seeded init: weights uniform +-1/sqrt(fan_in), biases and gate
        logits zero (gate starts at 0.5)."""
        rng = SplitMix64(derive(config.seed, "mppn-init"))
        d = config.hidden
        patch = {}
        for r in config.used_resolutions:
            bound = 1.0 / math.sqrt(1 * r)
            patch[r] = (Tensor(rng.uniform(-bound, bound, (d, 1, r)), requires_grad=True),
                        Tensor(np.zeros(d), requires_grad=True))
        mine = {}
        for p, r in config.retained_pairs:
            k = config.lookback // p
            bound = 1.0 / math.sqrt(d * k)
            mine[(p, r)] = (Tensor(rng.uniform(-bound, bound, (d, d, k)), requires_grad=True),
                            Tensor(np.zeros(d), requires_grad=True))
        p_dim = pattern_dim(config)
        embed = Tensor(np.zeros((config.channels, p_dim)), requires_grad=True)
        bound = 1.0 / math.sqrt(p_dim * d)
        out_w = Tensor(rng.uniform(-bound, bound, (p_dim * d, config.horizon)), requires_grad=True)
        out_b = Tensor(np.zeros(config.horizon), requires_grad=True)
        return cls(patch, mine, embed, out_w, out_b)

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        out = []
        for r, (w, b) in self.patch.items():
            out.append((f"patch.{r}.weight", w))
            out.append((f"patch.{r}.bias", b))
        for (p, r), (w, b) in self.mine.items():
            out.append((f"mine.{p}.{r}.weight", w))
            out.append((f"mine.{p}.{r}.bias", b))
        out.append(("embed", self.embed))
        out.append(("out.weight", self.out_weight))
        out.append(("out.bias", self.out_bias))
        return out

    def tensors(self) -> list[Tensor]:
        return [t for _, t in self.named_parameters()]


def _fold_kernel(period: int, r: int, params: MPPNParams,
                 config: MPPNConfig) -> tuple[Tensor, Tensor]:
    """Compose patch kernel r with mining kernel (period, r) into one
    dilated kernel over raw samples: ([D, r, K], [D]).

    w'[o, j, k] = sum_i mine[o, i, k] * patch[i, j]
    b'[o] = mine_bias[o] + sum_{i, k} mine[o, i, k] * patch_bias[i]
    """
    d, k = config.hidden, config.lookback // period
    wp, bp = params.patch[r]
    wm, bm = params.mine[(period, r)]
    wm_t = T.transpose(wm, (0, 2, 1))  # [D, K, D]: (o, k, i)
    w = T.linear(wm_t, T.reshape(wp, (d, r)), Tensor(np.zeros(r)))  # [D, K, r]
    bp_tiled = T.reshape(T.concat([bp] * k, axis=0), (1, k * d))  # bp[i] at k*D + i
    b = T.linear(bp_tiled, T.transpose(T.reshape(wm_t, (d, k * d))), bm)  # [1, D]
    return T.transpose(w, (0, 2, 1)), T.reshape(b, (d,))


def _unit_view(x3: Tensor, r: int, span: int, config: MPPNConfig) -> Tensor:
    """[N, 1, L] -> [N, r, span]: sample j of each of the last `span`
    semantic units at resolution r, the units reference_bank patches.

    Non-overlap units are consecutive r-sample blocks ending at the most
    recent sample; overlap units start one sample apart and the last one
    starts at L - r.  A mining scan reads span = (L//p)*(p//r) units, and
    span*r <= L, so the units it reads never reach reference_bank's edge
    padding.
    """
    n, _, length = x3.shape
    if config.overlap:
        start = length - r + 1 - span
        return T.concat([T.slice_axis(x3, 2, start + j, start + j + span) for j in range(r)],
                        axis=1)
    tail = T.slice_axis(x3, 2, length - span * r, length) if span * r < length else x3
    return T.transpose(T.reshape(tail, (n, span, r)), (0, 2, 1))


def _assemble_batch(xb: Tensor, params: MPPNParams, config: MPPNConfig) -> Tensor:
    """[B, L, C] -> [B, C, P, D] pattern bank, channels folded into the
    batch axis so extraction weights are shared bit-exactly.

    Patching and mining are both linear, so each pair runs as one dilated
    convolution of the raw window with the patch kernel folded into the
    mining kernel (_fold_kernel): the same map as patching with kernel r
    and then mining, from the same parameters, with D*r*K taps per output
    instead of D*D*K.  The mining scan keeps only its last period//r
    outputs, which read only the last K*(period//r) units, so the conv runs
    on exactly those (_unit_view, shared by pairs of equal geometry).
    """
    if xb.ndim != 3 or xb.shape[1] != config.lookback or xb.shape[2] != config.channels:
        raise ShapeError(
            f"assemble: expected [B, {config.lookback}, {config.channels}], got {xb.shape}")
    b, length, c = xb.shape
    x1 = T.reshape(T.transpose(xb, (0, 2, 1)), (b * c, 1, length))
    views: dict[tuple[int, int], Tensor] = {}
    pieces = []
    for p, r in config.retained_pairs:
        dil = p // r
        span = (length // p) * dil
        if (r, span) not in views:
            views[(r, span)] = _unit_view(x1, r, span, config)
        w, bias = _fold_kernel(p, r, params, config)
        pieces.append(T.conv1d(views[(r, span)], w, bias, stride=1, dilation=dil))
    bank = T.concat(pieces, axis=2)  # [B*C, D, P]
    bank = T.transpose(bank, (0, 2, 1))
    return T.reshape(bank, (b, c, pattern_dim(config), config.hidden))


def channel_adapt(bank: Tensor, embed: Tensor) -> Tensor:
    """Scale pattern slots by per-channel sigmoid gates.

    bank is [..., C, P, D] and embed is [C, P]; the gate broadcasts over
    the feature axis (and any leading batch axis).
    """
    embed = embed if isinstance(embed, Tensor) else Tensor(embed)
    if embed.ndim != 2:
        raise ShapeError(f"channel_adapt: embed must be [C, P], got {embed.shape}")
    c, p = embed.shape
    if bank.shape[-3:] != (c, p, bank.shape[-1]):
        raise ShapeError(f"channel_adapt: bank {bank.shape} incompatible with embed {embed.shape}")
    gate = T.reshape(T.sigmoid(embed), (c, p, 1))
    return T.broadcast_mul(bank, gate)


def forward_batch(xb: Tensor, params: MPPNParams, config: MPPNConfig) -> Tensor:
    """[B, L, C] -> [B, H, C] direct multi-horizon forecast."""
    b = xb.shape[0]
    bank = _assemble_batch(xb, params, config)
    adapted = channel_adapt(bank, params.embed)
    flat = T.reshape(adapted, (b, config.channels, pattern_dim(config) * config.hidden))
    y = T.linear(flat, params.out_weight, params.out_bias)  # [B, C, H]
    return T.transpose(y, (0, 2, 1))


def export_gates(params: MPPNParams) -> np.ndarray:
    """Sigmoid of the gate logits as a plain [C, P] matrix in (0, 1)."""
    with T.no_grad():
        return T.sigmoid(params.embed).data
