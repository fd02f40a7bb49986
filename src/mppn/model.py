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
runs: compose_kernel folds each patch kernel into its mining kernels and
projects the folded taps through the output layer, giving (A [C, L, H],
b [C, H]) from the same parameters the staged network has, so
checkpoints are unchanged.  Each pair's taps land on the window's tail in
placements (the pair, or one tap of it with overlap: Q placements in
all), so every kernel row is a gate-weighted mix of Q tap rows, and A is
one batched product of a per-row gate matrix [L, C, Q] with the tap rows
[L, Q, H].  It does this in plain numpy and records one tape node with
two outputs, whose pullback, derived by hand, maps (dA, db) to every
parameter's gradient through the same two arrays; it runs once, as
backward runs it.  forward_batch applies that kernel to a batch of
windows [B, L, C].  The pattern bank is never materialised here; the test
suite's plain-numpy reference_bank and reference_forward run the network
stage by stage, and reference_compose_kernel composes the kernel op by op
on the tape: they are the oracles of the composition and its gradients.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, ShapeError
from .rng import seeded_parameters
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


def parameter_shapes(config: MPPNConfig) -> dict[str, tuple[int, ...]]:
    """Name and shape of every parameter, in named_parameters order."""
    d, p_dim = config.hidden, pattern_dim(config)
    shapes = {}
    for r in config.used_resolutions:
        shapes[f"patch.{r}.weight"] = (d, 1, r)
        shapes[f"patch.{r}.bias"] = (d,)
    for p, r in config.retained_pairs:
        shapes[f"mine.{p}.{r}.weight"] = (d, d, config.lookback // p)
        shapes[f"mine.{p}.{r}.bias"] = (d,)
    shapes["embed"] = (config.channels, p_dim)
    shapes["out.weight"] = (p_dim * d, config.horizon)
    shapes["out.bias"] = (config.horizon,)
    return shapes


class MPPNParams(T.Params):
    """MPPN's learnable arrays, in parameter_shapes order:
    patch.{r}.weight [D, 1, r] and .bias [D] per used resolution,
    mine.{p}.{r}.weight [D, D, K] and .bias [D] per retained pair, embed
    [C, P] (gate logits), out.weight [P*D, H] and out.bias [H]."""

    shapes = staticmethod(parameter_shapes)

    @classmethod
    def init(cls, config: MPPNConfig) -> "MPPNParams":
        """Seeded init: weights uniform +-1/sqrt(fan_in), biases and gate
        logits zero (gate starts at 0.5)."""
        shapes = cls.shapes(config)
        return cls.from_arrays(shapes, seeded_parameters(shapes, config.seed, "mppn-init"))


def compose_kernel(params: MPPNParams, config: MPPNConfig) -> tuple[Tensor, Tensor]:
    """The model's map as one affine kernel per channel: (A [C, L, H],
    b [C, H]) with forecast[:, c] = window[:, c] @ A[c] + b[c], recorded
    as one tape node whose pullback is derived by hand.

    The gate is a sigmoid of a parameter, not of the window, so the whole
    network is affine in its input.  For each pair, the patch kernel folds
    into the mining kernel, w'[k, j, o] = sum_i mine[o, i, k] * patch[i, j]
    and b'[o] = mine_bias[o] + sum_{i, k} mine[o, i, k] * patch_bias[i].
    Slot t's mining output feature o reads raw sample j of unit t + k*s
    (s = period//r) through tap k and reaches the horizon through its
    out.weight rows W[t, o, h], so one product per slot composes the
    pair's taps M[t, k, j, h] = sum_o w'[k, j, o] * W[t, o, h], and with
    b' as one more row of w' its slot bias.

    The taps land on the tail of the window in placements.  Without
    overlap a pair is one placement, whose unit u = t + k*s covers samples
    L - K*S*r + u*r + [0, r); with overlap each tap j of a pair is one,
    whose unit u covers sample L - r + 1 - K*S + u + j.  A placement puts
    one slot's taps on each row it covers, so row l of A mixes the Q
    placements (Q is the number of pairs without overlap, the sum of their
    r with it): A[c, l] = sum_q gmix[l, c, q] * tmix[l, q], where tmix
    [L, Q, H] holds the taps on the rows they read, zero off a placement,
    and gmix [L, C, Q] each channel's gate of the slot the row belongs
    to.  The whole kernel is one batched matmul of the two, written
    through a transposed view of A.

    The pullback reads dA through the same view.  e = dA^T tmix^T [L, C, Q]
    summed over each placement's units and taps gives the gate gradient
    dg[c, t], and d_tmix = gmix^T dA^T holds each pair's dM on its rows.
    Then dW = w'^T dM and dw' = sum_t dM[t] W[t]^T, and the fold's pullback
    reaches mine.* and patch.*.  d_tmix is written over tmix, so the
    pullback runs once, as the tape runs it: backward clears the tape.
    Every contraction is a matmul or a tensordot, so each run does the
    same sums in the same order.
    """
    c, length, h, d = config.channels, config.lookback, config.horizon, config.hidden
    data = {name: t.data for name, t in params.tensors.items()}
    gate = export_gates(params)  # [C, P]
    out_w = data["out.weight"].reshape(pattern_dim(config), d, h)
    pairs, q, off = [], 0, 0  # per pair: K, S, first slot and placements (q, rows, taps, n)
    for p, r in config.retained_pairs:
        k, s = length // p, p // r
        placed = []
        for j, n in ([(j, 1) for j in range(r)] if config.overlap else [(0, r)]):
            end = length - (r - j - n)  # the last unit's tap j + n - 1 reads row end - 1
            placed.append((q, slice(end - k * s * n, end), slice(j, j + n), n))
            q += 1
        pairs.append((k, s, off, placed))
        off += s
    tmix, gmix = np.zeros((length, q, h)), np.zeros((length, c, q))
    slot_bias = np.empty((pattern_dim(config), h))
    folds = []
    for (p, r), (k, s, off, placed) in zip(config.retained_pairs, pairs):
        wm, bm = data[f"mine.{p}.{r}.weight"], data[f"mine.{p}.{r}.bias"]  # [D, D, K], [D]
        wp, bp = data[f"patch.{r}.weight"].reshape(d, r), data[f"patch.{r}.bias"]
        w_fold = np.tensordot(wp, wm, axes=([0], [1])).transpose(2, 0, 1)  # [K, r, D]
        folds.append(np.concatenate([w_fold.reshape(k * r, d), (bm + wm.sum(axis=2) @ bp)[None]]))
        prod = np.matmul(folds[-1], out_w[off:off + s])  # [S, K*r + 1, H]
        slot_bias[off:off + s] = prod[:, -1]
        taps = prod[:, :-1].reshape(s, k, r, h).transpose(1, 0, 2, 3)  # [K, S, r, H]
        for qi, rows, j, n in placed:
            tmix[rows, qi].reshape(k, s, n, h)[:] = taps[:, :, j]
            gmix[rows, :, qi].reshape(k, s, n, c)[:] = gate[:, off:off + s].T[:, None]
    del prod, taps  # the last pair's product does not live beside A
    kernel = np.empty((c, length, h))
    np.matmul(gmix, tmix, out=kernel.transpose(1, 0, 2))
    bias = gate @ slot_bias + data["out.bias"]

    def pullback(d_kernel, d_bias):
        grads = {f"patch.{r}.{part}": np.zeros(data[f"patch.{r}.{part}"].shape)
                 for r in config.used_resolutions for part in ("weight", "bias")}
        d_rows = d_kernel.transpose(1, 0, 2)  # [L, C, H], a view
        e = np.matmul(d_rows, tmix.transpose(0, 2, 1))  # [L, C, Q]
        d_tmix = np.matmul(gmix.transpose(0, 2, 1), d_rows, out=tmix)  # tmix is not read again
        d_gate = d_bias @ slot_bias.T  # [C, P]
        d_slot_bias = gate.T @ d_bias  # [P, H]
        d_out_weight = T.grad_buffer(params.tensors["out.weight"])  # every element is written below
        d_out_w = d_out_weight.reshape(out_w.shape)  # a view
        for (p, r), (k, s, off, placed), fold in zip(config.retained_pairs, pairs, folds):
            wm, wp, bp = (data[f"mine.{p}.{r}.weight"], data[f"patch.{r}.weight"].reshape(d, r),
                          data[f"patch.{r}.bias"])
            d_prod = np.empty((s, k * r + 1, h))
            d_taps = d_prod[:, :-1].reshape(s, k, r, h).transpose(1, 0, 2, 3)  # [K, S, r, H]
            for qi, rows, j, n in placed:
                d_taps[:, :, j] = d_tmix[rows, qi].reshape(k, s, n, h)
                d_gate[:, off:off + s] += e[rows, :, qi].reshape(k, s, n, c).sum(axis=(0, 2)).T
            d_prod[:, -1] = d_slot_bias[off:off + s]
            np.matmul(fold.T, d_prod, out=d_out_w[off:off + s])
            d_fold = np.matmul(d_prod, out_w[off:off + s].transpose(0, 2, 1)).sum(axis=0)
            d_w_fold, d_b_fold = d_fold[:-1].reshape(k, r, d), d_fold[-1]  # (k, j, o), (o)
            grads[f"patch.{r}.weight"][:, 0] += np.tensordot(wm, d_w_fold, axes=([0, 2], [2, 0]))
            grads[f"patch.{r}.bias"] += d_b_fold @ wm.sum(axis=2)
            grads[f"mine.{p}.{r}.weight"] = (
                np.tensordot(d_w_fold, wp, axes=([1], [1])).transpose(1, 2, 0)
                + np.multiply.outer(d_b_fold, bp)[:, :, None])
            grads[f"mine.{p}.{r}.bias"] = d_b_fold
        grads["embed"] = d_gate * gate * (1.0 - gate)
        grads["out.weight"] = d_out_weight
        grads["out.bias"] = d_bias.sum(axis=0)
        return tuple(grads[name] for name in data)

    return T.custom_op("compose_kernel", tuple(params.tensors.values()), (kernel, bias), pullback)


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
    kernel applied to each window, once the windows fit its shape."""
    T.check_affine(xb.shape, (config.channels, config.lookback, config.horizon))
    return T.channel_affine(xb, *compose_kernel(params, config))


def export_gates(params: MPPNParams) -> np.ndarray:
    """Sigmoid of the gate logits as a plain [C, P] matrix in (0, 1), by
    ``tensor.sigmoid``'s split formula (``1/(1+e^{−x})`` for x ≥ 0,
    ``eˣ/(1+eˣ)`` otherwise), so that neither branch overflows."""
    x = params.tensors["embed"].data
    e = np.exp(-np.abs(x))  # e^{−x} where x ≥ 0, eˣ elsewhere
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
