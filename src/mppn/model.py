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
is the gate's sigmoid, and it acts on a parameter, not on the input.

So the whole network is one affine map per channel, and that map is what
runs: compose_kernel folds each patch kernel into its mining kernels,
projects the folded taps through the output layer, gates them and places
them on the samples they read, giving (A [C, L, H], b [C, H]) from the
same parameters the staged network has, so checkpoints are unchanged.
forward_batch applies that kernel to a batch of windows [B, L, C].  The
pattern bank is never materialised here; the test suite's plain-numpy
reference_bank and reference_forward run the network stage by stage and
are the oracles of the composition.
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
    dilated kernel over raw samples: ([K, r, D], [D]).

    w'[k, j, o] = sum_i mine[o, i, k] * patch[i, j]
    b'[o] = mine_bias[o] + sum_{i, k} mine[o, i, k] * patch_bias[i]
    """
    d, k = config.hidden, config.lookback // period
    wp, bp = params.patch[r]
    wm, bm = params.mine[(period, r)]
    wm_t = T.transpose(wm, (0, 2, 1))  # [D, K, D]: (o, k, i)
    w = T.linear(wm_t, T.reshape(wp, (d, r)), Tensor(np.zeros(r)))  # [D, K, r]
    bp_tiled = T.reshape(T.concat([bp] * k, axis=0), (1, k * d))  # bp[i] at k*D + i
    b = T.linear(bp_tiled, T.transpose(T.reshape(wm_t, (d, k * d))), bm)  # [1, D]
    return T.transpose(w, (1, 2, 0)), T.reshape(b, (d,))


def _rows_at(block: Tensor, start: int, length: int) -> Tensor:
    """[C, n, H] -> [C, length, H]: the block at rows [start, start + n),
    zeros elsewhere."""
    c, n, h = block.shape
    parts = [Tensor(np.zeros((c, start, h)))] if start else []
    parts.append(block)
    if start + n < length:
        parts.append(Tensor(np.zeros((c, length - start - n, h))))
    return T.concat(parts, axis=1) if len(parts) > 1 else block


def compose_kernel(params: MPPNParams, config: MPPNConfig) -> tuple[Tensor, Tensor]:
    """The model's map as one affine kernel per channel: (A [C, L, H],
    b [C, H]) with forecast[:, c] = window[:, c] @ A[c] + b[c].

    The gate is a sigmoid of a parameter, not of the window, so the whole
    network is affine in its input.  For each pair, slot t's mining output
    feature o reads raw sample j of unit t + k*(period//r) through tap k of
    the folded kernel and reaches the horizon through its out_weight rows,
    so one linear composes the pair's taps M[k, j, t, h] = sum_o w'[k, j, o]
    * W_out[t, o, h].  Each channel's gate row scales its slots, and the
    taps land on the samples they read at the tail of the window: disjoint
    r-sample blocks without overlap (a reshape), r shifted runs of
    consecutive samples with overlap (r slices summed).  The folded biases
    reach b through the same out_weight rows and the same gates.
    """
    c, length, h, d = config.channels, config.lookback, config.horizon, config.hidden
    out_w = T.reshape(params.out_weight, (pattern_dim(config), d, h))
    kernel, slot_bias, off = None, [], 0
    for p, r in config.retained_pairs:
        k, s = length // p, p // r
        span = k * s  # units a mining scan reads
        w, b = _fold_kernel(p, r, params, config)
        w_slots = T.reshape(T.transpose(T.slice_axis(out_w, 0, off, off + s), (1, 0, 2)),
                            (d, s * h))  # [D, S*H]
        zero = Tensor(np.zeros(s * h))
        slot_bias.append(T.reshape(T.linear(T.reshape(b, (1, d)), w_slots, zero), (s, h)))
        taps = T.reshape(T.linear(T.reshape(w, (k * r, d)), w_slots, zero), (k * r, 1, s, h))
        gated = T.reshape(channel_adapt(taps, T.slice_axis(params.embed, 1, off, off + s)),
                          (k, r, c, s, h))
        if config.overlap:  # unit u = t + k*s spans samples L - r + 1 - span + u + [0, r)
            runs = T.reshape(T.transpose(gated, (2, 1, 0, 3, 4)), (c, r, span, h))
            start = length - r + 1 - span
            parts = [_rows_at(T.reshape(T.slice_axis(runs, 1, j, j + 1), (c, span, h)),
                              start + j, length) for j in range(r)]
        else:  # unit u spans samples L - span*r + u*r + [0, r)
            blocks = T.reshape(T.transpose(gated, (2, 0, 3, 1, 4)), (c, span * r, h))
            parts = [_rows_at(blocks, length - span * r, length)]
        for part in parts:
            kernel = part if kernel is None else T.add(kernel, part)
        off += s
    bias = T.linear(T.sigmoid(params.embed), T.concat(slot_bias, axis=0), params.out_bias)
    return kernel, bias


def channel_adapt(bank: Tensor, embed: Tensor) -> Tensor:
    """Scale pattern slots by per-channel sigmoid gates.

    bank is [..., C, P, D], or [..., 1, P, D] or [P, D] to gate one set of
    slots for every channel, and embed is [C, P]; the gate broadcasts over
    the feature axis (and any leading batch axis).
    """
    embed = embed if isinstance(embed, Tensor) else Tensor(embed)
    if embed.ndim != 2:
        raise ShapeError(f"channel_adapt: embed must be [C, P], got {embed.shape}")
    c, p = embed.shape
    if bank.ndim < 2 or bank.shape[-2] != p or (bank.ndim > 2 and bank.shape[-3] not in (1, c)):
        raise ShapeError(f"channel_adapt: bank {bank.shape} incompatible with embed {embed.shape}")
    gate = T.reshape(T.sigmoid(embed), (c, p, 1))
    return T.broadcast_mul(bank, gate)


def forward_batch(xb: Tensor, params: MPPNParams, config: MPPNConfig) -> Tensor:
    """[B, L, C] -> [B, H, C] direct multi-horizon forecast: the composed
    kernel applied to each window."""
    return T.channel_affine(xb, *compose_kernel(params, config))


def export_gates(params: MPPNParams) -> np.ndarray:
    """Sigmoid of the gate logits as a plain [C, P] matrix in (0, 1)."""
    with T.no_grad():
        return T.sigmoid(params.embed).data
