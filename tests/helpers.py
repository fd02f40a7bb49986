"""Shared independent oracles for the test suite.

These deliberately avoid the library's own code paths: finite differences
for gradients, cubic-time substring search for match lengths and, for long
series, Kasai's sweep and a linked-list sweep over a lexsort suffix array,
quadratic direct summation for the DFT, a cell-by-cell CSV loader, MPPN's
pattern bank built stage by stage (patch, then mine) with explicit loops
and its forecast gated and projected from that bank, MPPN's, NLinear's
and DLinear's kernels composed op by op on the tape, and a forecaster's
affine kernel read off its forward map through basis windows, the
per-channel kernel applied by one einsum over the whole batch, and Adam's
folded update as one range on one thread.  ``channel_affine`` applies a
kernel of free tensors through the forecasters' own tape node.
It also offers CSV twins that only the csv path parses, and a pipe, for
reading an input from a source that cannot seek.
"""
import contextlib
import csv
import math
import os
import threading

import numpy as np
import pytest

from mppn import tensor as T
from mppn.baselines import moving_average_matrix
from mppn.data import SeriesDataset
from mppn.errors import DataError
from mppn.model import pattern_dim
from mppn.tensor import Tensor


def fd_gradient(loss_fn, tensor, h=1e-6):
    """Central finite differences of a scalar closure wrt one tensor; the
    tape is cleared after each evaluation, so none leaves a node behind."""
    grad = np.zeros_like(tensor.data)
    flat = tensor.data.ravel()
    gf = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        plus = loss_fn()
        T.clear_tape()
        flat[i] = orig - h
        minus = loss_fn()
        T.clear_tape()
        flat[i] = orig
        gf[i] = (plus - minus) / (2.0 * h)
    return grad


def max_rel_err(a, b):
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.abs(a - b) / denom))


def check_grads(loss_fn, tensors, tol=1e-5, h=1e-6):
    """Backprop once, then compare every tensor's gradient against finite
    differences; returns the worst relative error."""
    for t in tensors:
        t.grad = None
    T.clear_tape()
    loss = loss_fn()
    T.backward(loss)
    worst = 0.0
    for t in tensors:
        assert t.grad is not None, "missing gradient"
        fd = fd_gradient(lambda: float(loss_fn().data), t, h=h)
        worst = max(worst, max_rel_err(t.grad, fd))
    assert worst <= tol, f"gradient mismatch: rel err {worst:.3e} > {tol:.0e}"
    return worst


def brute_match_lengths(symbols):
    """O(n^3) shortest-substring-never-seen-earlier lengths."""
    s = list(int(v) for v in symbols)
    n = len(s)
    lam = []
    for i in range(n):
        length = 1
        while True:
            if i + length > n:
                lam.append(n - i + 1)
                break
            sub = s[i:i + length]
            if any(s[j:j + length] == sub for j in range(i)):
                length += 1
            else:
                lam.append(length)
                break
    return np.asarray(lam, dtype=np.int64)


def _suffix_array(s: np.ndarray) -> np.ndarray:
    """Suffix array by prefix doubling on integer symbols."""
    n = len(s)
    rank = np.unique(s, return_inverse=True)[1].astype(np.int64)
    k = 1
    order = np.argsort(rank, kind="stable")
    while rank[order[-1]] != n - 1 and k < n:
        second = np.full(n, -1, dtype=np.int64)
        second[: n - k] = rank[k:]
        order = np.lexsort((second, rank))
        boundary = (rank[order[1:]] != rank[order[:-1]]) | (second[order[1:]] != second[order[:-1]])
        new_rank = np.zeros(n, dtype=np.int64)
        new_rank[order[1:]] = np.cumsum(boundary)
        rank = new_rank
        k *= 2
    return order


def _lcp_array(s: np.ndarray, sa: np.ndarray) -> list[int]:
    """Kasai: lcp[r] = common prefix length of suffixes sa[r-1] and sa[r].

    The sweep runs over Python lists, and returns one: indexing a list is
    several times cheaper than reading a numpy scalar.
    """
    n = len(s)
    rank_arr = np.empty(n, dtype=np.int64)
    rank_arr[sa] = np.arange(n)
    text, order, rank = s.tolist(), sa.tolist(), rank_arr.tolist()
    lcp = [0] * n
    h = 0
    for i in range(n):
        r = rank[i]
        if r == 0:
            h = 0
            continue
        j = order[r - 1]
        while i + h < n and j + h < n and text[i + h] == text[j + h]:
            h += 1
        lcp[r] = h
        if h:
            h -= 1
    return lcp


def _longest_previous_factor(s: np.ndarray) -> np.ndarray:
    """lpf[i] = longest prefix of s[i:] occurring at some start j < i.

    Positions are peeled off a doubly linked list over suffix-array ranks in
    decreasing text order, so the rank neighbors of a position are always
    its best earlier-starting candidates.  Like ``_lcp_array``, the sweep
    runs over Python lists.
    """
    n = len(s)
    sa = _suffix_array(s)
    # left_lcp[r] = current common-prefix length between list node r and its
    # left neighbor; updated as nodes are removed.
    left_lcp = _lcp_array(s, sa)
    rank_arr = np.empty(n, dtype=np.int64)
    rank_arr[sa] = np.arange(n)
    rank = rank_arr.tolist()

    prev = list(range(-1, n - 1))
    nxt = list(range(1, n + 1))
    lpf = [0] * n
    for pos in range(n - 1, -1, -1):
        r = rank[pos]
        left = prev[r]
        right = nxt[r]
        with_left = left_lcp[r] if left >= 0 else 0
        with_right = left_lcp[right] if right < n else 0
        lpf[pos] = max(with_left, with_right)
        # unlink r; the surviving pair's lcp is the min across the removed node
        if right < n:
            left_lcp[right] = min(with_left, with_right) if left >= 0 else 0
            prev[right] = left
        if left >= 0:
            nxt[left] = right
    return np.asarray(lpf, dtype=np.int64)


def reference_match_lengths(symbols):
    """``lz_match_lengths`` by Kasai's LCP sweep and a linked-list sweep
    over suffix-array ranks, both in Python loops.  It is near-linear, so
    it reaches the n where every doubling round and sparse-table row of
    the library's path comes into play."""
    s = np.asarray(symbols, dtype=np.int64)
    return _longest_previous_factor(s) + 1


def direct_dft_amplitude(x):
    """O(T^2) single-channel magnitude spectrum at frequencies 0..T//2,
    computed after mean removal."""
    x = np.asarray(x, dtype=np.float64)
    x = x - x.mean()
    t = len(x)
    n = np.arange(t)
    amps = []
    for f in range(t // 2 + 1):
        re = float(np.sum(x * np.cos(-2.0 * np.pi * f * n / t)))
        im = float(np.sum(x * np.sin(-2.0 * np.pi * f * n / t)))
        amps.append(np.hypot(re, im))
    return np.asarray(amps)


def reference_load_csv(path, strict=True, date_column=True):
    """``data.load_csv`` one cell at a time: each cell goes through
    ``float`` and a finiteness check before the next one is read, so the
    first fault in file order raises in strict mode.  Header-name checks
    are left to the library's own tests."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if not rows:
        raise DataError(f"{path}: empty file")
    if date_column:
        header, body = rows[0], rows[1:]
        if len(header) < 2:
            raise DataError(f"{path}: header must name a date column and at least one variate")
        names = [h.strip() for h in header[1:]]
        timestamps = [r[0] for r in body]
        cells = [r[1:] for r in body]
    else:
        names = [f"v{i}" for i in range(len(rows[0]))]
        timestamps = None
        cells = rows
    if not cells:
        raise DataError(f"{path}: no data rows")

    width = len(names)
    values = np.empty((len(cells), width), dtype=np.float64)
    missing = 0
    for i, row in enumerate(cells):
        if len(row) != width:
            raise DataError(f"{path}: row {i + 1} has {len(row)} cells, expected {width}")
        for j, cell in enumerate(row):
            try:
                v = float(cell)
                if not np.isfinite(v):
                    raise ValueError
            except ValueError:
                if strict:
                    raise DataError(
                        f"{path}: row {i + 1}, column '{names[j]}': unparseable cell {cell!r}")
                v = np.nan
                missing += 1
            values[i, j] = v

    if missing:
        for j in range(width):
            col = values[:, j]
            nan = np.isnan(col)
            if nan.all():
                raise DataError(f"{path}: column '{names[j]}' has no usable values")
            if nan.any():
                idx = np.where(~nan, np.arange(len(col)), -1)
                np.maximum.accumulate(idx, out=idx)
                col[:] = np.where(idx >= 0, col[np.maximum(idx, 0)], col)
                first = np.argmax(~nan)
                col[:first] = col[first]

    return SeriesDataset(names, values, timestamps)


def reference_units(x, r, params, config):
    """[L] -> [D, ceil(L/r)] semantic units of one channel at resolution r.

    Non-overlap units are r-sample blocks of the series left-padded with
    copies of its first value, so the last block ends at the most recent
    sample.  Overlap units start at every sample (stride 1, no padding)
    and the trailing ceil(L/r) of them are kept.
    """
    x = np.asarray(x, dtype=np.float64)
    length = config.lookback
    w = params.tensors[f"patch.{r}.weight"].data[:, 0, :]  # [D, r]
    b = params.tensors[f"patch.{r}.bias"].data
    keep = -(-length // r)
    if config.overlap:
        starts = range(length - r + 1 - keep, length - r + 1)
        series = x
    else:
        pad = keep * r - length
        series = np.concatenate([np.full(pad, x[0]), x])
        starts = range(0, keep * r, r)
    units = np.empty((w.shape[0], keep))
    for u, start in enumerate(starts):
        for d in range(w.shape[0]):
            units[d, u] = b[d] + sum(w[d, j] * series[start + j] for j in range(r))
    return units


def reference_mine(units, period, r, params, config):
    """[D, n] -> [D, period//r]: a dilated scan of the units (kernel
    L//period taps, dilation period//r) of which the trailing period//r
    positions are kept."""
    w = params.tensors[f"mine.{period}.{r}.weight"].data  # [D, D, K]
    b = params.tensors[f"mine.{period}.{r}.bias"].data
    taps, dil = config.lookback // period, period // r
    n = units.shape[1]
    scan = n - (taps - 1) * dil
    out = np.empty((w.shape[0], dil))
    for slot, t in enumerate(range(scan - dil, scan)):
        for o in range(w.shape[0]):
            out[o, slot] = b[o] + sum(w[o, i, k] * units[i, t + k * dil]
                                      for i in range(w.shape[1]) for k in range(taps))
    return out


def reference_bank(x, params, config):
    """[L, C] -> [C, P, D]: MPPN's pattern bank of one window, each channel
    patched at every used resolution and mined for every retained
    (period, resolution) pair, slots concatenated in pair order."""
    x = np.asarray(x, dtype=np.float64)
    bank = []
    for c in range(x.shape[1]):
        units = {r: reference_units(x[:, c], r, params, config) for r in config.used_resolutions}
        pieces = [reference_mine(units[r], p, r, params, config) for p, r in config.retained_pairs]
        bank.append(np.concatenate(pieces, axis=1).T)
    return np.stack(bank)


def reference_forward(x, params, config):
    """[L, C] -> [H, C]: MPPN's forecast of one window from reference_bank,
    scaled by the sigmoid gates and projected by the output layer."""
    bank = reference_bank(x, params, config)  # [C, P, D]
    gate = 1.0 / (1.0 + np.exp(-params.tensors["embed"].data))
    flat = (bank * gate[:, :, None]).reshape(bank.shape[0], -1)
    return (flat @ params.tensors["out.weight"].data + params.tensors["out.bias"].data).T


def _fold_kernel(period, r, params, config):
    """Patch kernel r composed with mining kernel (period, r) on the tape:
    ([K, r, D], [D]) with w'[k, j, o] = sum_i mine[o, i, k] * patch[i, j]
    and b'[o] = mine_bias[o] + sum_{i, k} mine[o, i, k] * patch_bias[i]."""
    d, k = config.hidden, config.lookback // period
    wp, bp = params.tensors[f"patch.{r}.weight"], params.tensors[f"patch.{r}.bias"]
    wm, bm = params.tensors[f"mine.{period}.{r}.weight"], params.tensors[f"mine.{period}.{r}.bias"]
    wm_t = T.transpose(wm, (0, 2, 1))  # [D, K, D]: (o, k, i)
    w = T.linear(wm_t, T.reshape(wp, (d, r)), Tensor(np.zeros(r)))  # [D, K, r]
    bp_tiled = T.reshape(T.concat([bp] * k, axis=0), (1, k * d))  # bp[i] at k*D + i
    b = T.linear(bp_tiled, T.transpose(T.reshape(wm_t, (d, k * d))), bm)  # [1, D]
    return T.transpose(w, (1, 2, 0)), T.reshape(b, (d,))


def _rows_at(block, start, length):
    """[C, n, H] -> [C, length, H]: the block at rows [start, start + n),
    zeros elsewhere."""
    c, n, h = block.shape
    parts = [Tensor(np.zeros((c, start, h)))] if start else []
    parts.append(block)
    if start + n < length:
        parts.append(Tensor(np.zeros((c, length - start - n, h))))
    return T.concat(parts, axis=1) if len(parts) > 1 else block


def reference_compose_kernel(params, config):
    """``model.compose_kernel`` op by op on the tape: (A [C, L, H],
    b [C, H]) from transposes, reshapes, slices, linears, a broadcasting
    gate multiply, zero-padded concats and adds, each with the tape's
    generic pullback.  Per pair, M[k, j, t, h] = sum_o w'[k, j, o] *
    W_out[t, o, h] is gated per channel and placed on the samples it
    reads: disjoint r-sample blocks without overlap, r shifted runs with
    overlap."""
    c, length, h, d = config.channels, config.lookback, config.horizon, config.hidden
    embed = params.tensors["embed"]
    out_w = T.reshape(params.tensors["out.weight"], (pattern_dim(config), d, h))
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
        gate = T.reshape(T.sigmoid(T.slice_axis(embed, 1, off, off + s)), (c, s, 1))
        gated = T.reshape(T.mul(taps, gate), (k, r, c, s, h))
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
    bias = T.linear(T.sigmoid(embed), T.concat(slot_bias, axis=0), params.tensors["out.bias"])
    return kernel, bias


def _per_channel(a, b, channels):
    """A shared kernel ([L, H], [H]) repeated for every channel on the tape:
    ([C, L, H], [C, H])."""
    length, horizon = a.shape
    zeros = Tensor(np.zeros((channels, 1, 1)))
    return (T.add(T.reshape(a, (1, length, horizon)), zeros),
            T.add(T.reshape(b, (1, horizon)), T.reshape(zeros, (channels, 1))))


def reference_nlinear_kernel(params, channels):
    """``baselines.nlinear_kernel`` op by op on the tape: A = W plus
    1 - colsum(W) on its last row, the colsum a linear map of a ones row,
    the last row placed by a concat."""
    weight = params.tensors["weight"]
    length, horizon = weight.shape
    colsum = T.linear(Tensor(np.ones((1, length))), weight, Tensor(np.zeros(horizon)))
    last_row = T.concat([Tensor(np.zeros((length - 1, horizon))),
                         T.sub(np.ones((1, horizon)), colsum)], axis=0)
    return _per_channel(T.add(weight, last_row), params.tensors["bias"], channels)


def reference_dlinear_kernel(params, channels, window):
    """``baselines.dlinear_kernel`` op by op on the tape:
    A = W_s + M^T (W_t - W_s) through a linear map, b = b_t + b_s."""
    w = params.tensors
    length, horizon = w["trend.weight"].shape
    m = moving_average_matrix(length, window)
    a = T.add(w["seasonal.weight"],
              T.linear(Tensor(m.T), T.sub(w["trend.weight"], w["seasonal.weight"]),
                       Tensor(np.zeros(horizon))))
    return _per_channel(a, T.add(w["trend.bias"], w["seasonal.bias"]), channels)


def _targets(a, b, reach, seed):
    """Seeded standard normal targets of the outputs ``reach`` names."""
    rng = np.random.default_rng(seed)
    return {name: rng.standard_normal(out.shape)
            for name, out in (("kernel", a), ("bias", b)) if name in reach}


def pulled_gradients(compose, params, reach, seed):
    """A, b and every parameter's gradient by name, through the pullback of
    ``compose()``'s kernel (A, b, pullback), of the summed mean squared
    errors of the outputs ``reach`` names ("kernel", "bias") against
    seeded random targets.  The pullback gets mse_loss's gradient of each
    reached output, and zeros for the other."""
    a, b, pullback = compose()
    targets = _targets(a, b, reach, seed)
    d = [2.0 / out.size * (out - targets[name]) if name in targets else np.zeros(out.shape)
         for name, out in (("kernel", a), ("bias", b))]
    return a, b, dict(zip(params.tensors, pullback(*d)))


def tape_gradients(compose, params, reach, seed):
    """``pulled_gradients``' loss for a composition ``compose()`` of tensors
    (A, b) on the tape, through backward; a parameter the loss does not
    reach has the gradient None."""
    for t in params.tensors.values():
        t.grad = None
    T.clear_tape()
    a, b = compose()
    targets = _targets(a, b, reach, seed)
    terms = [T.mse_loss(out, Tensor(targets[name]))
             for name, out in (("kernel", a), ("bias", b)) if name in reach]
    T.backward(terms[0] if len(terms) == 1 else T.add(*terms))
    return a.data, b.data, {name: t.grad for name, t in params.tensors.items()}


# the probe forecast must match A.probe + b to this share of the summed
# terms' magnitude; rounding leaves about 1e-15 at ETTh1 geometry
AFFINE_RTOL = 1e-9


def reference_kernel(forward, lookback, channels):
    """(A [C, L, H], b [C, H]) of an affine map ``forward`` from windows
    [N, L, C] to forecasts [N, H, C], with
    forward(x)[:, :, c] = x[:, :, c] @ A[c] + b[c].

    b is the forecast of the zero window, and row i of A[c] is the
    forecast of the unit window at step i minus b.  Each basis window sets
    every channel alike, so one pass serves all channels.  A seeded random
    probe window checks the result: a map that is not affine, or that
    mixes channels, fails the assertion.
    """
    probe = np.random.default_rng(0).standard_normal((lookback, channels))
    windows = np.zeros((lookback + 2, lookback, channels))
    windows[np.arange(1, lookback + 1), np.arange(lookback)] = 1.0
    windows[-1] = probe
    out = np.asarray(forward(windows))  # [L + 2, H, C]
    b = np.ascontiguousarray(out[0].T)
    a = np.ascontiguousarray((out[1:lookback + 1] - out[0]).transpose(2, 0, 1))
    want = np.einsum("lc,clh->hc", probe, a) + b.T
    scale = np.einsum("lc,clh->hc", np.abs(probe), np.abs(a)) + np.abs(b.T)
    err = float(np.max(np.abs(out[-1] - want)))
    assert err <= AFFINE_RTOL * float(np.max(scale)), (
        f"not affine per channel: the probe's forecast differs from its kernel's by {err:.3e}")
    return a, b


def channel_affine(x, a, b):
    """Windows ``x [B, L, C]`` through the kernel ``a [C, L, H]``,
    ``b [C, H]`` (tensors or arrays) to ``[B, H, C]``, as a forecaster's
    forward runs: ``apply_kernel`` with ``a`` and ``b`` as the parameters
    and the identity as the kernel's pullback."""
    a, b = (t if isinstance(t, Tensor) else Tensor(t) for t in (a, b))
    return T.apply_kernel(x, "channel_affine", T.Params({"a": a, "b": b}),
                          (a.data, b.data, lambda d_a, d_b: (d_a, d_b)))


def reference_channel_affine(x, a, b):
    """A forecaster's forward as one einsum over the whole batch:
    out[n, h, c] = sum_l x[n, l, c] * a[c, l, h] + b[c, h]."""
    return np.einsum("blc,clh->bhc", x, a) + b.T


def assert_channel_affine_rows_batch_invariant(rng, channels, lookback, horizon, batch_sizes):
    """Every row of a batch of every size in ``batch_sizes`` must get the
    bits its window gets alone.  The batches draw their windows from one
    random pool in a fresh random order each, so every position of every
    batch is checked and a window recurs at other positions among other
    windows; an empty batch must give ``[0, H, C]``."""
    a = Tensor(rng.standard_normal((channels, lookback, horizon)))
    b = Tensor(rng.standard_normal((channels, horizon)))
    empty = channel_affine(Tensor(np.zeros((0, lookback, channels))), a, b).data
    assert empty.shape == (0, horizon, channels)
    pool = rng.standard_normal((max(batch_sizes) + 3, lookback, channels))
    alone = [channel_affine(Tensor(window[None]), a, b).data[0] for window in pool]
    for n in batch_sizes:
        picks = rng.permutation(len(pool))[:n]
        got = channel_affine(Tensor(pool[picks]), a, b).data
        for pos, k in enumerate(picks):
            assert np.array_equal(got[pos], alone[k]), (
                f"row {pos} of {n} differs from its window alone at "
                f"C={channels}, L={lookback}, H={horizon}")


def folded_adam_scalars(t, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
    """Step ``t``'s folded step size and epsilon, ``(α', ε̂)``:
    ``s = √((1 − β2)/(1 − β2ᵗ))``, ``α' = lr·(1 − β1)/(1 − β1ᵗ)/s`` and
    ``ε̂ = ε/s``."""
    s = math.sqrt((1.0 - beta2) / (1.0 - beta2 ** t))
    return lr * (1.0 - beta1) / (1.0 - beta1 ** t) / s, eps / s


def reference_adam_step(data, grads, m, v, t, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8,
                        weight_decay=1e-5, block=8192):
    """Folded Adam step ``t`` on lists of arrays, in place: each parameter
    in turn, ``block`` elements at a time, on the calling thread, each
    block computed out of place.  ``m`` and ``v`` hold the unscaled
    moments ``M = m/(1 − β1)`` and ``V = v/(1 − β2)``."""
    alpha, eps_hat = folded_adam_scalars(t, lr, beta1, beta2, eps)
    for d, g, mm, vv in zip(data, grads, m, v):
        d, g, mm, vv = (x.reshape(-1) for x in (d, g, mm, vv))
        for lo in range(0, d.size, block):
            s = slice(lo, lo + block)
            gs = g[s] + weight_decay * d[s] if weight_decay else g[s]
            mm[s] = beta1 * mm[s] + gs
            vv[s] = beta2 * vv[s] + gs * gs
            d[s] = d[s] - (alpha * mm[s]) / (np.sqrt(vv[s]) + eps_hat)


def crlf_and_quoted(text: str) -> tuple[str, str]:
    """Two twins of a plain dated CSV that only ``load_csv``'s csv path
    parses: one with CRLF line ends, one with its first timestamp quoted."""
    header, first, rest = text.split("\n", 2)
    stamp, _, cells = first.partition(",")
    return text.replace("\n", "\r\n"), f'{header}\n"{stamp}",{cells}\n{rest}'


@contextlib.contextmanager
def piped(data: bytes):
    """A ``/dev/fd/N`` path that reads ``data`` from a pipe, as a shell's
    ``<(cat file)`` does; a thread feeds the pipe so that any size fits."""
    if not os.path.isdir("/dev/fd"):
        pytest.skip("no /dev/fd on this platform")
    read_end, write_end = os.pipe()

    def feed():
        with contextlib.suppress(BrokenPipeError), os.fdopen(write_end, "wb") as fh:
            fh.write(data)

    feeder = threading.Thread(target=feed)
    feeder.start()
    try:
        yield f"/dev/fd/{read_end}"
    finally:
        os.close(read_end)
        feeder.join(timeout=60)
        assert not feeder.is_alive(), "the pipe's feeder thread did not finish"
