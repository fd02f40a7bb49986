"""The composed affine kernel, the path every forecaster runs through."""
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import (channel_affine, fd_gradient, max_rel_err, pulled_gradients,
                     reference_compose_kernel, reference_forward, reference_kernel, tape_gradients)
from mppn import baselines, model, pool, training
from mppn import tensor as T
from mppn.data import (MetricsAccumulator, Standardizer, gather_windows, iter_batches,
                       window_origins)
from mppn.errors import ArgumentError, DataError, ShapeError
from mppn.model import MPPNConfig, compose_kernel
from mppn.optim import Adam
from mppn.synth import ToneSpec, generate, write_csv
from mppn.tensor import Tensor
from mppn.training import MODEL_KINDS, RunConfig, build_forecaster, split_metrics


@st.composite
def geometries(draw):
    lookback = draw(st.integers(4, 40))
    return dict(
        lookback=lookback, horizon=draw(st.integers(1, 8)), channels=draw(st.integers(1, 3)),
        hidden=draw(st.integers(1, 4)),
        resolutions=tuple(draw(st.lists(st.integers(1, min(6, lookback)), min_size=1,
                                        max_size=3, unique=True))),
        periods=tuple(draw(st.lists(st.integers(2, lookback + 8), min_size=1, max_size=3,
                                    unique=True))),
        overlap=draw(st.booleans()),
        moving_average=2 * draw(st.integers(1, lookback - 1)) + 1,  # odd, in [3, 2L - 1]
        batch_size=draw(st.integers(1, 6)),
    )


def random_forecaster(kind, geom, seed):
    """A forecaster of the given kind with every parameter, biases and gate
    logits included, drawn from a standard normal."""
    fields = {k: v for k, v in geom.items() if k not in ("channels", "periods")}
    run = RunConfig(model=kind, periods=geom["periods"] if kind == "mppn" else None, **fields)
    fc = build_forecaster(run, geom["channels"], geom["periods"] if kind == "mppn" else ())
    rng = np.random.default_rng(seed)
    for _, t in fc.named_parameters():
        t.data = rng.standard_normal(t.shape)
    return fc


def mppn_config(geom):
    return MPPNConfig(**{k: geom[k] for k in ("lookback", "horizon", "channels", "hidden",
                                              "resolutions", "periods", "overlap")})


def moving_average(xb, window):
    """Edge-replicated centered moving average along axis 1, term by term."""
    half = (window - 1) // 2
    padded = np.concatenate([np.repeat(xb[:, :1], half, axis=1), xb,
                             np.repeat(xb[:, -1:], half, axis=1)], axis=1)
    return sum(padded[:, i:i + xb.shape[1]] for i in range(window)) / window


def reference_forecaster(fc, geom):
    """Plain-numpy forward map [N, L, C] -> [N, H, C] of a forecaster, from
    its parameter arrays and none of the library's forward code."""
    p = {name: t.data for name, t in fc.named_parameters()}

    def project(x, weight, bias):
        return np.einsum("nlc,lh->nhc", x, weight) + bias[None, :, None]

    if fc.kind == "mppn":
        cfg = mppn_config(geom)
        return lambda xb: np.stack([reference_forward(x, fc.params, cfg) for x in xb])
    if fc.kind == "nlinear":
        return lambda xb: project(xb - xb[:, -1:], p["weight"], p["bias"]) + xb[:, -1:]
    if fc.kind == "dlinear":
        def dlinear(xb):
            trend = moving_average(xb, geom["moving_average"])
            return (project(trend, p["trend.weight"], p["trend.bias"])
                    + project(xb - trend, p["seasonal.weight"], p["seasonal.bias"]))
        return dlinear
    return lambda xb: np.repeat(xb[:, -1:], geom["horizon"], axis=1)


def usable(geom) -> bool:
    return any(geom["lookback"] // p >= 1 and p // r >= 1
               for p in geom["periods"] for r in geom["resolutions"])


# L = 13 is a multiple of no used resolution but 1; (4, 5) and every pair
# of period 20 are dropped; both patching modes
_PINNED = dict(lookback=13, horizon=5, channels=2, hidden=3, resolutions=(1, 3, 5),
               periods=(4, 6, 20), moving_average=5, batch_size=4)


@given(st.sampled_from(MODEL_KINDS), geometries(), st.integers(0, 2**32 - 1))
@example("mppn", {**_PINNED, "overlap": False}, 1)
@example("mppn", {**_PINNED, "overlap": True}, 2)
@settings(max_examples=120, deadline=None)
def test_kernel_reproduces_forward_batch(kind, geom, seed):
    # the composed kernel against the one read off an independent forward
    if kind == "mppn":
        assume(usable(geom))
    fc = random_forecaster(kind, geom, seed)
    a, b = fc.kernel()[:2]
    assert a.shape == (geom["channels"], geom["lookback"], geom["horizon"])
    assert b.shape == (geom["channels"], geom["horizon"])
    want_a, want_b = reference_kernel(reference_forecaster(fc, geom), geom["lookback"],
                                      geom["channels"])
    scale = max(1.0, float(np.max(np.abs(want_a))), float(np.max(np.abs(want_b))))
    assert np.max(np.abs(a - want_a)) <= 1e-12 * scale
    assert np.max(np.abs(b - want_b)) <= 1e-12 * scale
    x = np.random.default_rng(seed + 1).standard_normal((3, geom["lookback"], geom["channels"]))
    direct = fc.forward_batch(Tensor(x)).data
    T.clear_tape()
    via_kernel = np.einsum("blc,clh->bhc", x, a) + b.T
    assert np.max(np.abs(direct - via_kernel)) <= 1e-12 * max(1.0, float(np.max(np.abs(direct))))


@given(geometries(), st.integers(0, 2**32 - 1))
@example({**_PINNED, "overlap": False}, 3)
@example({**_PINNED, "overlap": True}, 4)
@settings(max_examples=60, deadline=None)
def test_compose_kernel_matches_reference_forward(geom, seed):
    # overlap on and off, dropped pairs (the pinned geometry), L % r != 0
    assume(usable(geom))
    fc = random_forecaster("mppn", geom, seed)
    cfg = mppn_config(geom)
    a, b = compose_kernel(fc.params, cfg)[:2]
    for x in np.random.default_rng(seed + 1).standard_normal((2, cfg.lookback, cfg.channels)):
        want = reference_forward(x, fc.params, cfg)
        got = np.einsum("lc,clh->hc", x, a) + b.T
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, float(np.max(np.abs(want))))


_ETTH1 = dict(lookback=336, horizon=96, channels=7, hidden=48, resolutions=(1, 3, 4, 6),
              periods=(24, 168), moving_average=25, batch_size=2)


def _rel_err(got, want):
    return float(np.max(np.abs(got - want))) / max(1.0, float(np.max(np.abs(want))))


@given(geometries(), st.sampled_from([("kernel", "bias"), ("kernel",), ("bias",)]),
       st.integers(0, 2**32 - 1))
@example({**_PINNED, "overlap": False}, ("kernel", "bias"), 9)
@example({**_PINNED, "overlap": True}, ("kernel", "bias"), 10)
@example({**_PINNED, "overlap": True}, ("bias",), 11)
@example({**_ETTH1, "overlap": False}, ("kernel", "bias"), 12)
@example({**_ETTH1, "overlap": True}, ("kernel", "bias"), 13)
@settings(max_examples=80, deadline=None)
def test_compose_kernel_and_its_pullback_match_the_tape_composition(geom, reach, seed):
    # the one-node op against the op-by-op tape oracle: overlap on and off,
    # dropped pairs and L % r != 0 (the pinned geometry), either output alone
    assume(usable(geom))
    fc = random_forecaster("mppn", geom, seed)
    cfg = mppn_config(geom)
    a, b, got = pulled_gradients(lambda: compose_kernel(fc.params, cfg), fc.params, reach, seed + 1)
    want_a, want_b, want = tape_gradients(lambda: reference_compose_kernel(fc.params, cfg),
                                          fc.params, reach, seed + 1)
    assert _rel_err(a, want_a) <= 1e-12 and _rel_err(b, want_b) <= 1e-12
    for name, g in got.items():
        if want[name] is None:  # no path from the loss: the pullback hands back zeros
            assert not np.any(g), name
        else:
            assert g.shape == want[name].shape and _rel_err(g, want[name]) <= 1e-12, name


@pytest.mark.parametrize("overlap", [False, True])
def test_compose_kernel_gradients_match_finite_differences(overlap):
    geom = {**_PINNED, "overlap": overlap}
    fc = random_forecaster("mppn", geom, 14)
    cfg = mppn_config(geom)
    rng = np.random.default_rng(15)
    ta = rng.standard_normal((cfg.channels, cfg.lookback, cfg.horizon))
    tb = rng.standard_normal((cfg.channels, cfg.horizon))

    def loss():
        a, b = compose_kernel(fc.params, cfg)[:2]
        return float(np.mean((a - ta) * (a - ta)) + np.mean((b - tb) * (b - tb)))

    a, b, pullback = compose_kernel(fc.params, cfg)
    grads = pullback(2.0 / a.size * (a - ta), 2.0 / b.size * (b - tb))
    worst = max(max_rel_err(g, fd_gradient(loss, t)) for g, (_, t) in
                zip(grads, fc.named_parameters()))
    assert worst <= 1e-7, f"gradient mismatch: rel err {worst:.3e}"


def _compose_and_pull(fc, cfg, d_kernel, d_bias):
    """A, b and the pullback's gradients for (d_kernel, d_bias), by name."""
    a, b, pullback = compose_kernel(fc.params, cfg)
    return a, b, dict(zip(fc.params.tensors, pullback(d_kernel, d_bias)))


@pytest.mark.parametrize("overlap", [False, True])
def test_compose_kernel_is_bit_stable_at_etth1_geometry(overlap):
    # channels are the row axis of the mixing products, and C = 7 fills no
    # whole BLAS tile: permuting the gate rows still permutes A's channels
    # bit for bit, and a second compose + pullback repeats every bit
    geom = {**_ETTH1, "overlap": overlap}
    fc = random_forecaster("mppn", geom, 23)
    cfg = mppn_config(geom)
    rng = np.random.default_rng(24)
    d_kernel = rng.standard_normal((cfg.channels, cfg.lookback, cfg.horizon))
    d_bias = rng.standard_normal((cfg.channels, cfg.horizon))
    a, b, grads = _compose_and_pull(fc, cfg, d_kernel, d_bias)
    a2, b2, grads2 = _compose_and_pull(fc, cfg, d_kernel, d_bias)
    assert np.array_equal(a, a2) and np.array_equal(b, b2)
    for name, g in grads.items():
        assert np.array_equal(g, grads2[name]), name
    perm = np.array([3, 6, 0, 5, 1, 4, 2])
    embed = fc.params.tensors["embed"]
    embed.data = embed.data[perm]
    pa, pb, _ = _compose_and_pull(fc, cfg, d_kernel, d_bias)
    assert np.array_equal(pa, a[perm]) and np.array_equal(pb, b[perm])


def test_compose_kernel_memory_peaks_at_etth1_geometry():
    # tracemalloc sees numpy's buffers.  The forward holds A, the taps laid
    # on their rows and the gates beside them; the pullback, as in a step
    # after Adam.zero_grad (out.weight's gradient in its spare), adds the
    # other gradients and its temporaries.  Both bounds are in units of A.
    geom = {**_ETTH1, "overlap": False}
    fc = random_forecaster("mppn", geom, 25)
    cfg = mppn_config(geom)
    kernel_bytes = 8 * cfg.channels * cfg.lookback * cfg.horizon
    rng = np.random.default_rng(26)
    d_kernel = rng.standard_normal((cfg.channels, cfg.lookback, cfg.horizon))
    d_bias = rng.standard_normal((cfg.channels, cfg.horizon))
    out_weight = fc.params.tensors["out.weight"]
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        composed = compose_kernel(fc.params, cfg)
        forward = tracemalloc.get_traced_memory()[1] - start
        spare = out_weight._spare = np.empty(out_weight.shape)
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        grads = composed[2](d_kernel, d_bias)
        pullback = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert any(g is spare for g in grads)
    assert forward <= 3.0 * kernel_bytes, forward / kernel_bytes
    assert pullback <= 1.5 * kernel_bytes, pullback / kernel_bytes


def test_mppn_step_records_a_handful_of_tape_nodes():
    # the forecaster's forward is one node
    fc = random_forecaster("mppn", {**_ETTH1, "overlap": True}, 16)
    rng = np.random.default_rng(17)
    T.clear_tape()
    loss = T.mse_loss(fc.forward_batch(Tensor(rng.standard_normal((2, 336, 7)))),
                      Tensor(rng.standard_normal((2, 96, 7))))
    ops = [node.op for node in T._tape()]
    T.backward(loss)
    assert len(ops) <= 5, ops
    assert ops.count("mppn") == 1


@pytest.mark.parametrize("kind", ["mppn", "nlinear", "dlinear"])
def test_a_step_of_every_trained_kind_records_two_tape_nodes(kind):
    # the forecaster's forward, then the loss: no generic op on the path a
    # step trains through
    fc = random_forecaster(kind, {**_PINNED, "overlap": False}, 18)
    T.clear_tape()
    loss = _step_loss(fc, 19)
    ops = [node.op for node in T._tape()]
    T.backward(loss)
    assert ops == [kind, "mse"]


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_a_window_of_other_length_fails_before_anything_is_recorded(kind):
    # composing records nothing and the windows are checked before the
    # forward is recorded, so a failed forward leaves no node holding the
    # parameters, at each of the seven entry points
    geom = {**_PINNED, "overlap": False}
    fc = random_forecaster(kind, geom, 20)
    short = np.zeros((2, geom["lookback"] - 1, geom["channels"]))
    T.clear_tape()
    with pytest.raises(ShapeError, match=f"{kind}: windows .* do not match kernel"):
        fc.forward_batch(Tensor(short))
    assert T._tape() == []
    direct = {"mppn": lambda: model.forward_batch(Tensor(short), fc.params, mppn_config(geom)),
              "nlinear": lambda: baselines.nlinear_forward(short, fc.params),
              "dlinear": lambda: baselines.dlinear_forward(short, fc.params,
                                                           geom["moving_average"])}
    if kind in direct:
        with pytest.raises(ShapeError, match=f"{kind}: windows .* do not match kernel"):
            direct[kind]()
        assert T._tape() == []


def _step_loss(fc, seed):
    rng = np.random.default_rng(seed)
    xb = rng.standard_normal((3, _PINNED["lookback"], _PINNED["channels"]))
    yb = rng.standard_normal((3, _PINNED["horizon"], _PINNED["channels"]))
    return T.mse_loss(fc.forward_batch(Tensor(xb)), Tensor(yb))


def _grads(fc):
    return {name: t.grad for name, t in fc.named_parameters()}


def test_adam_zero_grad_recycles_the_output_weight_gradient():
    fc = random_forecaster("mppn", {**_PINNED, "overlap": False}, 21)
    opt = Adam([t for _, t in fc.named_parameters()])
    T.backward(_step_loss(fc, 1))
    opt.step()
    last = fc.params.tensors["out.weight"].grad
    opt.zero_grad()
    T.backward(_step_loss(fc, 2))
    assert fc.params.tensors["out.weight"].grad is last
    # the same bits as a fresh model's gradient on the same batch
    fresh = random_forecaster("mppn", {**_PINNED, "overlap": False}, 21)
    for (_, t), (_, u) in zip(fresh.named_parameters(), fc.named_parameters()):
        t.data = u.data.copy()
    T.backward(_step_loss(fresh, 2))
    want = _grads(fresh)
    for name, got in _grads(fc).items():
        np.testing.assert_array_equal(got, want[name])


def test_repeated_backward_through_compose_kernel_leaves_earlier_gradients_alone():
    fc = random_forecaster("mppn", {**_PINNED, "overlap": True}, 22)
    opt = Adam([t for _, t in fc.named_parameters()])
    T.backward(_step_loss(fc, 3))
    opt.step()
    opt.zero_grad()  # leaves spares, which the next backward takes
    T.backward(_step_loss(fc, 4))
    held = _grads(fc)
    once = {name: g.copy() for name, g in held.items()}
    T.backward(_step_loss(fc, 4))
    for name, got in _grads(fc).items():
        np.testing.assert_array_equal(got, 2.0 * once[name])
        np.testing.assert_array_equal(held[name], once[name])


@pytest.mark.parametrize("drop", ["assign-none", "tensor-zero-grad"])
def test_only_adam_zero_grad_gives_a_gradient_up_for_reuse(drop):
    fc = random_forecaster("mppn", {**_PINNED, "overlap": False}, 23)
    opt = Adam([t for _, t in fc.named_parameters()])
    T.backward(_step_loss(fc, 5))
    opt.step()
    held = _grads(fc)
    once = {name: g.copy() for name, g in held.items()}
    for _, t in fc.named_parameters():
        if drop == "assign-none":
            t.grad = None
        else:
            t.zero_grad()
    T.backward(_step_loss(fc, 5))
    for name, got in _grads(fc).items():
        assert not np.shares_memory(got, held[name]), name
        np.testing.assert_array_equal(held[name], once[name])


def test_pinned_geometry_drops_pairs_and_pads():
    cfg = mppn_config({**_PINNED, "overlap": False})
    assert len(cfg.retained_pairs) < len(cfg.periods) * len(cfg.resolutions)
    assert any(cfg.lookback % r for r in cfg.used_resolutions)


def _tanh(xb):
    return np.tanh(xb[:, -2:, :])


def _channel_mixing(xb):
    """Affine, but channel c reads channel C-1-c: no per-channel kernel."""
    return xb[:, -2:, ::-1].copy()


@pytest.mark.parametrize("forward", [_tanh, _channel_mixing], ids=["tanh", "mixing"])
def test_extraction_refuses_a_map_it_cannot_represent(forward):
    # the oracle's own probe: reference_kernel must not accept what no
    # per-channel kernel represents
    with pytest.raises(AssertionError, match="not affine"):
        reference_kernel(forward, lookback=8, channels=3)


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_split_metrics_match_the_direct_forward_loop(kind):
    # the per-window forward loop evaluate ran before the kernel path
    geom = {**_PINNED, "overlap": False, "batch_size": 7}
    fc = random_forecaster(kind, geom, 5)
    values = np.random.default_rng(6).standard_normal((60, geom["channels"]))
    origins = np.arange(geom["lookback"], 60 - geom["horizon"] + 1)
    acc = MetricsAccumulator()
    for inp, tgt, _ in iter_batches(values, origins, geom["lookback"], geom["horizon"], 7):
        acc.add(fc.forward_batch(Tensor(inp)), tgt)
        T.clear_tape()
    want = acc.finalize()
    got = split_metrics(fc, values, origins, geom["lookback"], geom["horizon"], 7)
    assert got.windows == want.windows == len(origins)
    assert got.mse == pytest.approx(want.mse, rel=1e-12)
    assert got.mae == pytest.approx(want.mae, rel=1e-12)


def reference_split_metrics(fc, values, origins, lookback, horizon, batch_size):
    """The loop split_metrics ran before it read windows through a view:
    gather each chunk, apply the kernel, add the chunk to the accumulator."""
    a, b = fc.kernel()[:2]
    acc = MetricsAccumulator()
    for inp, tgt, _ in iter_batches(values, origins, lookback, horizon, batch_size):
        acc.add(channel_affine(Tensor(inp), a, b), tgt)
    return acc.finalize()


def _serial_drain(items, fn, per_thread=((),)):
    # one thread, last chunk first: the sums must still be added in chunk order
    for item in reversed(items):
        fn(item, *per_thread[0])


@pytest.mark.parametrize("span", [slice(3, 4), slice(2, 23), slice(None)],
                         ids=["one-window", "21-windows", "all-43-windows"])
@pytest.mark.parametrize("batch_size", [1, 7, 32])
@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_split_metrics_equal_the_gathered_chunk_loop(monkeypatch, kind, batch_size, span):
    # one chunk, many chunks, an exact multiple and a partial last chunk;
    # == on every field, on both threads and on one
    geom = {**_PINNED, "overlap": False, "batch_size": batch_size}
    fc = random_forecaster(kind, geom, 8)
    values = np.random.default_rng(9).standard_normal((60, geom["channels"]))
    origins = np.arange(geom["lookback"], 60 - geom["horizon"] + 1)[span]
    args = (fc, values, origins, geom["lookback"], geom["horizon"], batch_size)
    want = reference_split_metrics(*args)
    assert want.windows == len(origins)
    assert split_metrics(*args) == want
    monkeypatch.setattr(pool, "drain", _serial_drain)
    assert split_metrics(*args) == want


def test_split_metrics_under_frequent_thread_switches():
    geom = {**_PINNED, "overlap": False}
    fc = random_forecaster("mppn", geom, 10)
    values = np.random.default_rng(11).standard_normal((400, geom["channels"]))
    origins = np.arange(geom["lookback"], 400 - geom["horizon"] + 1)
    args = (fc, values, origins, geom["lookback"], geom["horizon"], 1)
    want = reference_split_metrics(*args)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            assert split_metrics(*args) == want
    finally:
        sys.setswitchinterval(interval)


def test_split_metrics_touch_the_accumulator_on_the_caller_only(monkeypatch):
    # chunks run on the worker too; the bench tracer keeps one span stack,
    # so a wrapped name such as the accumulator's must stay on the caller
    threads = set()

    class Recorder(MetricsAccumulator):
        def add_sums(self, sums):
            threads.add(threading.current_thread())
            super().add_sums(sums)

    monkeypatch.setattr(training, "MetricsAccumulator", Recorder)
    geom = {**_PINNED, "overlap": False}
    fc = random_forecaster("nlinear", geom, 12)
    values = np.random.default_rng(13).standard_normal((200, geom["channels"]))
    origins = np.arange(geom["lookback"], 200 - geom["horizon"] + 1)
    split_metrics(fc, values, origins, geom["lookback"], geom["horizon"], 4)
    assert threads == {threading.current_thread()}


@pytest.mark.parametrize("origins", [[13, 15, 16], [20, 19, 18], [12, 13, 14], [53, 54, 55, 56],
                                     []],
                         ids=["gap", "descending", "before-the-lookback", "past-the-end",
                              "empty"])
def test_split_metrics_reject_origins_that_are_not_one_run(origins):
    geom = {**_PINNED, "overlap": False}
    fc = random_forecaster("nlinear", geom, 14)
    values = np.random.default_rng(15).standard_normal((60, geom["channels"]))
    with pytest.raises(ArgumentError, match="split_metrics: origins"):
        split_metrics(fc, values, np.array(origins, dtype=np.int64), geom["lookback"],
                      geom["horizon"], 4)


def test_split_metrics_reject_a_batch_size_below_one_and_a_kernel_of_other_shape():
    geom = {**_PINNED, "overlap": False}
    fc = random_forecaster("nlinear", geom, 16)
    values = np.random.default_rng(17).standard_normal((60, geom["channels"]))
    origins = np.arange(geom["lookback"], 60 - geom["horizon"] + 1)
    with pytest.raises(ArgumentError, match="batch_size"):
        split_metrics(fc, values, origins, geom["lookback"], geom["horizon"], 0)
    wider = np.random.default_rng(17).standard_normal((60, geom["channels"] + 1))
    with pytest.raises(ShapeError, match="split_metrics"):
        split_metrics(fc, wider, origins, geom["lookback"], geom["horizon"], 4)
    with pytest.raises(ShapeError, match="split_metrics"):
        split_metrics(fc, values, origins[:-1], geom["lookback"], geom["horizon"] + 1, 4)


@pytest.mark.parametrize("failing", ["first", "last", "every"])
def test_split_metrics_raise_a_chunk_error(monkeypatch, failing):
    geom = {**_PINNED, "overlap": False}
    fc = random_forecaster("dlinear", geom, 18)
    values = np.random.default_rng(19).standard_normal((60, geom["channels"]))
    origins = np.arange(geom["lookback"], 60 - geom["horizon"] + 1)
    starts = range(0, len(origins), 4)  # view rows: origins start at the lookback, row 0
    chunk_forecast = training._chunk_forecast

    def failing_forecast(view, lo, hi, *rest):
        if failing == "every" or lo == {"first": starts[0], "last": starts[-1]}[failing]:
            raise DataError(f"chunk {lo}")
        return chunk_forecast(view, lo, hi, *rest)

    monkeypatch.setattr(training, "_chunk_forecast", failing_forecast)
    with pytest.raises(DataError, match="chunk"):
        split_metrics(fc, values, origins, geom["lookback"], geom["horizon"], 4)


def _least_squares_mse(x, y):
    """Mean squared residual of fitting targets y [N, H, C] from windows
    x [N, L, C] by each channel's own unconstrained affine least squares."""
    sq = 0.0
    for c in range(x.shape[2]):
        design = np.hstack([x[:, :, c], np.ones((len(x), 1))])
        coef = np.linalg.lstsq(design, y[:, :, c], rcond=None)[0]
        sq += float(np.sum((design @ coef - y[:, :, c]) ** 2))
    return sq / y.size


@pytest.mark.parametrize("kind", ["mppn", "nlinear", "dlinear"])
def test_trained_models_never_beat_the_least_squares_floor(tmp_path, kind):
    # every kind maps channel c's window through its own affine kernel, so
    # none fits the training windows better than channel c's unconstrained
    # least squares on the same standardized windows.  The evaluation runs
    # windowing, standardization, kernel and apply; two epochs run the
    # pullbacks too.  history's train_mse averages over changing parameters,
    # so the floor does not bound it
    lookback, horizon = 24, 6
    csv = tmp_path / "tones.csv"
    write_csv(csv, generate([[ToneSpec(1.0, 24.0)], [ToneSpec(2.0, 12.0, 0.7)]], 0.002, 0.3,
                            240, 5), ["a", "b"])
    run = RunConfig(model=kind, data=str(csv), lookback=lookback, horizon=horizon, hidden=4,
                    periods=(12, 24), moving_average=7, max_epochs=2)
    training.train(run, tmp_path / "model.ckpt")
    got = training.evaluate(tmp_path / "model.ckpt", split="train").mse
    ds = training.load_dataset(run)
    values = Standardizer.fit(ds.values[:ds.train_end]).apply(ds.values)
    x, y = gather_windows(values, window_origins(ds, lookback, horizon, "train"), lookback,
                          horizon)
    floor = _least_squares_mse(x, y)
    assert 0.0 < floor <= got * (1.0 + 1e-9), (floor, got)
