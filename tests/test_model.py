"""Geometry, values, and gradients of the pattern forecaster."""
import numpy as np
import pytest

import csv

from helpers import check_grads, reference_bank, reference_mine, reference_units
from mppn import tensor as T
from mppn.data import load_csv, write_csv
from mppn.errors import ConfigError, ShapeError
from mppn.model import (MPPNConfig, MPPNParams, channel_adapt, compose_kernel, export_gates,
                        forward_batch, parameter_shapes, pattern_dim)
from mppn.tensor import Tensor

TINY = dict(lookback=24, horizon=4, channels=2, hidden=3, resolutions=(1, 2), periods=(6,))


def cfg(**kw):
    base = dict(TINY)
    base.update(kw)
    return MPPNConfig(**base)


def _bank(xb, params, config):
    """[B, L, C] -> [B, C, P, D]: the pattern bank read out through the
    composed kernel.  A copy of the model with zero gate logits (gates of
    exactly 1/2), the identity as its output layer and horizon P*D
    forecasts half the flattened bank; doubling is exact."""
    p_dim, d = pattern_dim(config), config.hidden
    probe = MPPNConfig(**{**config.__dict__, "horizon": p_dim * d})
    readout = MPPNParams({**params.tensors, "embed": Tensor(np.zeros((config.channels, p_dim))),
                          "out.weight": Tensor(np.eye(p_dim * d)),
                          "out.bias": Tensor(np.zeros(p_dim * d))})
    out = forward_batch(Tensor(xb), readout, probe).data  # [B, P*D, C]
    T.clear_tape()
    return 2.0 * out.transpose(0, 2, 1).reshape(len(xb), config.channels, p_dim, d)


# ---------------------------------------------------------------------------
# pattern_dim

def test_pattern_dim_two_periods_four_resolutions():
    c = cfg(lookback=336, horizon=96, channels=7, hidden=48,
            resolutions=(1, 3, 4, 6), periods=(24, 12))
    assert pattern_dim(c) == (24 + 8 + 6 + 4) + (12 + 4 + 3 + 2) == 63


def test_pattern_dim_single_pair():
    assert pattern_dim(cfg(periods=(24,), resolutions=(1,))) == 24


def test_pattern_dim_single_period_all_resolutions_retained():
    c = cfg(lookback=336, periods=(24,), resolutions=(1, 3, 4, 6))
    assert pattern_dim(c) == 42
    assert len(c.retained_pairs) == 4  # floor(336/24) = 14 >= 1 keeps them all


def test_pattern_dim_removing_a_pair_subtracts_its_slots():
    full = cfg(lookback=336, periods=(24,), resolutions=(1, 3, 4, 6))
    less = cfg(lookback=336, periods=(24,), resolutions=(1, 3, 4))
    assert pattern_dim(full) - pattern_dim(less) == 24 // 6


def test_config_rejects_unusable_geometry():
    with pytest.raises(ConfigError):
        cfg(lookback=10, periods=(24,))  # lookback shorter than the period
    with pytest.raises(ConfigError):
        cfg(resolutions=(40,))  # resolution beyond lookback
    with pytest.raises(ConfigError):
        cfg(periods=(1,))


def test_config_drops_only_invalid_pairs():
    c = cfg(lookback=24, periods=(6, 20), resolutions=(1, 8))
    # (6,8) dies: 6//8 = 0; the rest survive
    assert c.retained_pairs == ((6, 1), (20, 1), (20, 8))
    assert pattern_dim(c) == 6 + 20 + 2


# ---------------------------------------------------------------------------
# parameters

@pytest.mark.parametrize("overrides", [{}, {"overlap": True},
                                       {"periods": (6, 30), "resolutions": (1, 2, 8)}],
                         ids=["plain", "overlap", "dropped-pairs"])
def test_parameters_follow_parameter_shapes_and_round_trip(overrides):
    # checkpoint bytes and Adam's state order follow named_parameters; a
    # dropped pair, and a resolution only dropped pairs use, have no arrays
    c = cfg(**overrides)
    shapes = parameter_shapes(c)
    params = MPPNParams.init(c)
    assert [name for name, _ in params.named_parameters()] == list(shapes)
    assert all(t.shape == shapes[name] for name, t in params.named_parameters())
    rng = np.random.default_rng(0)
    arrays = {name: rng.standard_normal(shape) for name, shape in reversed(shapes.items())}
    restored = MPPNParams.from_arrays(shapes, arrays)
    assert [name for name, _ in restored.named_parameters()] == list(shapes)
    for name, t in restored.named_parameters():
        assert t.requires_grad and t.data.tobytes() == arrays[name].tobytes(), name
    if "periods" in overrides:
        assert "patch.8.weight" not in shapes and not any(".30." in name for name in shapes)


# ---------------------------------------------------------------------------
# patching: the reference's patch stage, which the library folds away, is
# checked on the reference itself; what reaches the bank is checked there

def test_patch_lengths():
    c = cfg(lookback=336, horizon=96, channels=7, hidden=48,
            resolutions=(1, 3, 4, 6), periods=(24,))
    params = MPPNParams.init(c)
    x = np.arange(336.0)
    assert reference_units(x, 4, params, c).shape == (48, 84)
    assert reference_units(x, 1, params, c).shape == (48, 336)


def test_patch_resolution_one_is_padding_free():
    c = cfg(resolutions=(1,), periods=(6,))
    params = MPPNParams.init(c)
    x = np.linspace(-1, 1, 24)
    out = reference_units(x, 1, params, c)
    w, b = params.tensors["patch.1.weight"], params.tensors["patch.1.bias"]
    expected = np.outer(w.data[:, 0, 0], x) + b.data[:, None]
    assert np.max(np.abs(out - expected)) <= 1e-15


@pytest.mark.parametrize("r", [1, 2, 3, 5])
def test_patch_constant_input_is_constant_over_time(r):
    # constant units make every slot of a pair's scan equal; L = 31 is not a
    # multiple of r = 2, 3, 5, and period 12 leaves each pair two slots or more
    c = cfg(lookback=31, resolutions=(r,), periods=(12,))
    params = MPPNParams.init(c)
    bank = _bank(np.full((1, 31, 2), 2.5), params, c)
    assert bank.shape[2] == 12 // r >= 2
    assert np.max(np.abs(bank - bank[:, :, :1])) <= 1e-12


def test_patch_overlap_mode_lengths():
    c = cfg(lookback=24, resolutions=(1, 2), periods=(6,), overlap=True)
    params = MPPNParams.init(c)
    x = np.arange(24.0)
    # stride 1 then trailing truncation to ceil(L/r)
    assert reference_units(x, 2, params, c).shape == (3, 12)
    assert reference_units(x, 1, params, c).shape == (3, 24)


# ---------------------------------------------------------------------------
# mining

@pytest.mark.parametrize("r,expected_lr,kernel,dil", [(3, 112, 14, 8), (1, 336, 14, 24)])
def test_mine_length_arithmetic(r, expected_lr, kernel, dil):
    c = cfg(lookback=336, horizon=96, channels=7, hidden=8,
            resolutions=(r,), periods=(24,))
    params = MPPNParams.init(c)
    assert c.lookback // 24 == kernel and 24 // r == dil
    # raw dilated length L_r - (K-1)*d already equals d: truncation is identity
    assert expected_lr - (kernel - 1) * dil == dil
    assert reference_units(np.zeros(336), r, params, c).shape == (8, expected_lr)
    assert _bank(np.zeros((1, 336, 7)), params, c).shape == (1, 7, dil, 8)


def test_mine_phase_average_oracle():
    # unit-sum averaging kernel over a d-periodic input returns one period:
    # with identity patches each channel's bank holds its last period
    c = cfg(lookback=24, channels=3, resolutions=(1,), periods=(6,), hidden=3)
    params = MPPNParams.init(c)
    params.tensors["patch.1.weight"] = Tensor(np.ones((3, 1, 1)))
    params.tensors["patch.1.bias"] = Tensor(np.zeros(3))
    k = 24 // 6
    w = np.zeros((3, 3, k))
    for o in range(3):
        w[o, o, :] = 1.0 / k
    params.tensors["mine.6.1.weight"] = Tensor(w)
    params.tensors["mine.6.1.bias"] = Tensor(np.zeros(3))
    base = np.array([[1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
                     [0.5, -1.0, 2.0, 0.0, 3.0, -2.0],
                     [9.0, 8.0, 7.0, 6.0, 5.0, 4.0]])
    x = np.tile(base, (1, 4)).T  # [24, 3], period 6
    bank = _bank(x[None], params, c)[0]  # [C, 6, D]
    assert np.max(np.abs(bank - base[:, :, None])) <= 1e-12


def test_mine_truncation_keeps_last_positions():
    # L not a multiple of the period: the raw scan is longer than d, and the
    # reference keeps its last d positions
    c = cfg(lookback=30, resolutions=(1,), periods=(7,), hidden=2)
    params = MPPNParams.init(c)
    k, d = 30 // 7, 7 // 1
    xr = np.arange(2 * 30, dtype=float).reshape(2, 30)
    out = reference_mine(xr, 7, 1, params, c)
    w, b = params.tensors["mine.7.1.weight"], params.tensors["mine.7.1.bias"]
    raw = T.conv1d(Tensor(xr[None]), w, b, stride=1, dilation=d).data[0]
    assert raw.shape[-1] == 30 - (k - 1) * d > d
    assert np.max(np.abs(out - raw[:, -d:])) <= 1e-12


# ---------------------------------------------------------------------------
# assembly and gating

def test_assemble_single_pair_shape():
    c = cfg(lookback=48, channels=1, hidden=5, periods=(24,), resolutions=(1,))
    params = MPPNParams.init(c)
    out = _bank(np.random.default_rng(0).standard_normal((1, 48, 1)), params, c)
    assert out.shape == (1, 1, 24, 5)


def _random_valid_config(rng) -> MPPNConfig:
    while True:
        lookback = int(rng.integers(8, 49))
        horizon = int(rng.integers(1, 13))
        channels = int(rng.integers(1, 5))
        hidden = int(rng.integers(2, 7))
        n_res = int(rng.integers(1, 4))
        resolutions = tuple(sorted(rng.choice(range(1, min(7, lookback + 1)),
                                              size=n_res, replace=False).tolist()))
        n_per = int(rng.integers(1, 3))
        periods = tuple(int(p) for p in rng.integers(2, lookback + 1, size=n_per))
        try:
            return MPPNConfig(lookback=lookback, horizon=horizon, channels=channels,
                              hidden=hidden, resolutions=resolutions, periods=periods)
        except ConfigError:
            continue


def test_assemble_shape_property_random_configs():
    rng = np.random.default_rng(7)
    for _ in range(25):
        c = _random_valid_config(rng)
        params = MPPNParams.init(c)
        x = rng.standard_normal((1, c.lookback, c.channels))
        assert _bank(x, params, c).shape == (1, c.channels, pattern_dim(c), c.hidden)
        a, b, _ = compose_kernel(params, c)
        assert a.shape == (c.channels, c.lookback, c.horizon)
        assert b.shape == (c.channels, c.horizon)


def test_assemble_channel_permutation_equivariance_bitexact():
    # extraction weights are shared, so permuting the gate rows permutes
    # the composed kernel's channels bit for bit
    rng = np.random.default_rng(5)
    c = cfg(lookback=24, channels=4, hidden=3, periods=(6, 8), resolutions=(1, 2))
    params = MPPNParams.init(c)
    params.tensors["embed"].data[:] = rng.standard_normal(params.tensors["embed"].shape)
    perm = np.array([2, 0, 3, 1])
    a, b, _ = compose_kernel(params, c)
    params.tensors["embed"].data = params.tensors["embed"].data[perm]
    pa, pb, _ = compose_kernel(params, c)
    assert np.array_equal(pa, a[perm])
    assert np.array_equal(pb, b[perm])


def _randomize(params, rng):
    """Draw every parameter, biases included, from a standard normal."""
    for _, t in params.named_parameters():
        t.data = rng.standard_normal(t.shape)


def test_assemble_matches_patch_then_mine_oracle_random_configs():
    # the bank as the composed kernel maps it against the plain-numpy
    # two-stage reference, window by window
    rng = np.random.default_rng(17)
    seen = set()
    for trial in range(60):
        c = _random_valid_config(rng)
        c = MPPNConfig(**{**c.__dict__, "overlap": bool(trial % 2)})
        params = MPPNParams.init(c)
        _randomize(params, rng)
        xb = rng.standard_normal((2, c.lookback, c.channels))
        bank = _bank(xb, params, c)
        for b in range(2):
            assert np.max(np.abs(bank[b] - reference_bank(xb[b], params, c))) <= 1e-12
        seen.add("overlap" if c.overlap else "plain")
        if not c.overlap and any(c.lookback % r for r in c.used_resolutions):
            seen.add("padding")
        if any(c.lookback % p for p, _ in c.retained_pairs):
            seen.add("truncation")
        if len(c.retained_pairs) < len(c.periods) * len(c.resolutions):
            seen.add("dropped")
    assert seen == {"overlap", "plain", "padding", "truncation", "dropped"}


def test_channel_adapt_zero_logits_halve_the_bank():
    rng = np.random.default_rng(1)
    bank = Tensor(rng.standard_normal((3, 5, 4)))
    out = channel_adapt(bank, Tensor(np.zeros((3, 5))))
    np.testing.assert_array_equal(out.data, 0.5 * bank.data)


def test_channel_adapt_saturated_gate_passes_through():
    bank = Tensor(np.ones((2, 3, 4)))
    out = channel_adapt(bank, Tensor(np.full((2, 3), 50.0)))
    assert np.max(np.abs(out.data - bank.data)) <= 1e-12


def test_channel_adapt_gradient_wrt_logits():
    rng = np.random.default_rng(2)
    bank = Tensor(rng.standard_normal((2, 4, 3)), requires_grad=True)
    logits = Tensor(rng.standard_normal((2, 4)), requires_grad=True)
    target = Tensor(rng.standard_normal((2, 4, 3)))

    def loss():
        return T.mse_loss(channel_adapt(bank, logits), target)

    check_grads(loss, [logits, bank], tol=1e-5)


def test_channel_adapt_gates_shared_slots_per_channel():
    # one set of slot kernels [..., 1, P, D] against the [C, P] gate rows
    rng = np.random.default_rng(3)
    slots = rng.standard_normal((4, 1, 5, 2))
    logits = rng.standard_normal((3, 5))
    out = channel_adapt(Tensor(slots), Tensor(logits)).data
    gate = 1.0 / (1.0 + np.exp(-logits))
    assert out.shape == (4, 3, 5, 2)
    assert np.max(np.abs(out - slots * gate[None, :, :, None])) <= 1e-15
    with pytest.raises(ShapeError):
        channel_adapt(Tensor(np.zeros((4, 2, 5, 2))), Tensor(logits))


def test_channel_adapt_shape_mismatch():
    with pytest.raises(ShapeError):
        channel_adapt(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((2, 5))))


# ---------------------------------------------------------------------------
# full forward

def test_forward_output_shape_property():
    rng = np.random.default_rng(11)
    for _ in range(20):
        c = _random_valid_config(rng)
        params = MPPNParams.init(c)
        out = forward_batch(Tensor(rng.standard_normal((1, c.lookback, c.channels))), params, c)
        assert out.shape == (1, c.horizon, c.channels)


def test_forward_zero_output_layer_gives_zero():
    c = cfg()
    params = MPPNParams.init(c)
    params.tensors["out.weight"].data[:] = 0.0
    params.tensors["out.bias"].data[:] = 0.0
    out = forward_batch(Tensor(np.random.default_rng(3).standard_normal((1, 24, 2))), params, c)
    np.testing.assert_array_equal(out.data, np.zeros((1, 4, 2)))


def test_forward_batch_matches_single_windows():
    rng = np.random.default_rng(4)
    c = cfg()
    params = MPPNParams.init(c)
    xb = rng.standard_normal((5, 24, 2))
    batched = forward_batch(Tensor(xb), params, c).data
    for i in range(5):
        single = forward_batch(Tensor(xb[i:i + 1]), params, c).data
        np.testing.assert_array_equal(batched[i], single[0])


def test_forward_end_to_end_gradients_tiny_config():
    rng = np.random.default_rng(6)
    c = cfg()  # L=24, H=4, C=2, D=3, periods {6}, resolutions (1, 2)
    params = MPPNParams.init(c)
    x = Tensor(rng.standard_normal((1, 24, 2)))
    target = Tensor(rng.standard_normal((1, 4, 2)))
    tensors = [t for _, t in params.named_parameters()]

    def loss():
        return T.mse_loss(forward_batch(x, params, c), target)

    check_grads(loss, tensors, tol=1e-4)


def test_forward_end_to_end_gradients_overlap_mode():
    rng = np.random.default_rng(16)
    c = cfg(overlap=True)
    params = MPPNParams.init(c)
    x = Tensor(rng.standard_normal((1, 24, 2)))
    target = Tensor(rng.standard_normal((1, 4, 2)))

    def loss():
        return T.mse_loss(forward_batch(x, params, c), target)

    check_grads(loss, [t for _, t in params.named_parameters()], tol=1e-4)


@pytest.mark.parametrize("overlap", [False, True])
def test_forward_gradients_with_padding_truncation_and_biases(overlap):
    # L % r != 0 pads the patched view, L % p != 0 truncates the mining scan,
    # and random biases make every patch bias reach the loss
    rng = np.random.default_rng(26)
    c = cfg(lookback=13, horizon=2, channels=2, hidden=2, resolutions=(2, 3), periods=(4, 5),
            overlap=overlap)
    params = MPPNParams.init(c)
    _randomize(params, rng)
    x = Tensor(rng.standard_normal((1, 13, 2)))
    target = Tensor(rng.standard_normal((1, 2, 2)))

    def loss():
        return T.mse_loss(forward_batch(x, params, c), target)

    check_grads(loss, [t for _, t in params.named_parameters()], tol=1e-4)


def test_forward_channel_permutation_with_gate_rows():
    rng = np.random.default_rng(8)
    c = cfg(channels=3)
    params = MPPNParams.init(c)
    params.tensors["embed"].data[:] = rng.standard_normal(params.tensors["embed"].shape)
    x = rng.standard_normal((24, 3))
    perm = np.array([1, 2, 0])

    permuted_params = MPPNParams.init(c)
    for (_, a), (_, b) in zip(permuted_params.named_parameters(), params.named_parameters()):
        a.data = b.data.copy()
    permuted_params.tensors["embed"].data = params.tensors["embed"].data[perm]

    direct = forward_batch(Tensor(x[None][:, :, perm]), permuted_params, c).data
    reference = forward_batch(Tensor(x[None]), params, c).data[:, :, perm]
    assert np.array_equal(direct, reference)


# ---------------------------------------------------------------------------
# gates export

def test_export_gates_untrained_is_half():
    params = MPPNParams.init(cfg())
    gates = export_gates(params)
    np.testing.assert_array_equal(gates, np.full(gates.shape, 0.5))


def test_export_gates_in_unit_interval():
    params = MPPNParams.init(cfg())
    params.tensors["embed"].data[:] = np.random.default_rng(9).standard_normal(params.tensors["embed"].shape) * 10
    gates = export_gates(params)
    assert np.all((gates > 0.0) & (gates < 1.0))


def test_export_gates_is_bit_identical_to_the_tape_sigmoid():
    params = MPPNParams.init(cfg())
    embed = params.tensors["embed"]
    special = [800.0, -800.0, 0.0, -0.0, 1e-300, -1e-300]
    logits = np.random.default_rng(11).standard_normal(embed.size)
    logits[:len(special)] = special
    embed.data[:] = logits.reshape(embed.shape)
    gates = export_gates(params)
    want = T.sigmoid(embed).data
    T.clear_tape()
    np.testing.assert_array_equal(gates, want)
    assert gates.shape == embed.shape


def test_gates_csv_round_trip(tmp_path):
    # the gates CSV layout, written by the shared CSV writer and read back
    # both as CSV rows and by load_csv with the channel column as its dates
    params = MPPNParams.init(cfg(channels=3))
    params.tensors["embed"].data[:] = np.random.default_rng(10).standard_normal(params.tensors["embed"].shape)
    gates = export_gates(params)
    path = tmp_path / "gates.csv"
    names = ["alpha", "beta,gamma", 'delta "d"']
    write_csv(path, ["channel"] + [f"p{i}" for i in range(gates.shape[1])],
              ([n] + [repr(float(v)) for v in row] for n, row in zip(names, gates)))
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert [r[0] for r in rows[1:]] == names
    assert np.max(np.abs(np.array(rows[1:])[:, 1:].astype(float) - gates)) <= 1e-12
    loaded = load_csv(path)
    assert loaded.timestamps == names
    np.testing.assert_array_equal(loaded.values, gates)
