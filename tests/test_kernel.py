"""The effective affine kernel, the path every split is scored through."""
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mppn import tensor as T
from mppn.data import MetricsAccumulator, iter_batches
from mppn.errors import NonAffineError
from mppn.tensor import Tensor
from mppn.training import (MODEL_KINDS, Forecaster, RunConfig, build_forecaster,
                           effective_kernel, split_metrics)


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
    if kind == "mppn":
        assume(usable(geom))
    fc = random_forecaster(kind, geom, seed)
    a, b = effective_kernel(fc, geom["lookback"], geom["channels"], geom["batch_size"])
    assert a.shape == (geom["channels"], geom["lookback"], geom["horizon"])
    assert b.shape == (geom["channels"], geom["horizon"])
    x = np.random.default_rng(seed + 1).standard_normal((3, geom["lookback"], geom["channels"]))
    with T.no_grad():
        direct = fc.forward_batch(Tensor(x)).data
    via_kernel = np.einsum("blc,clh->bhc", x, a) + b.T
    scale = max(1.0, float(np.max(np.abs(direct))))
    assert np.max(np.abs(direct - via_kernel)) <= 1e-12 * scale


def test_pinned_geometry_drops_pairs_and_pads():
    fc = random_forecaster("mppn", {**_PINNED, "overlap": False}, 0)
    cfg = fc.config
    assert len(cfg.retained_pairs) < len(cfg.periods) * len(cfg.resolutions)
    assert any(cfg.lookback % r for r in cfg.used_resolutions)


class _Tanh(Forecaster):
    kind = "tanh"

    def forward_batch(self, xb):
        return Tensor(np.tanh(xb.data[:, -2:, :]))


class _ChannelMixing(Forecaster):
    """Affine, but channel c reads channel C-1-c: no per-channel kernel."""
    kind = "mixing"

    def forward_batch(self, xb):
        return Tensor(xb.data[:, -2:, ::-1].copy())


@pytest.mark.parametrize("fc", [_Tanh(), _ChannelMixing()], ids=["tanh", "mixing"])
def test_extraction_refuses_a_map_it_cannot_represent(fc):
    with pytest.raises(NonAffineError, match=fc.kind):
        effective_kernel(fc, lookback=8, channels=3, batch_size=4)


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_split_metrics_match_the_direct_forward_loop(kind):
    # the per-window forward loop evaluate ran before the kernel path
    geom = {**_PINNED, "overlap": False, "batch_size": 7}
    fc = random_forecaster(kind, geom, 5)
    values = np.random.default_rng(6).standard_normal((60, geom["channels"]))
    origins = np.arange(geom["lookback"], 60 - geom["horizon"] + 1)
    acc = MetricsAccumulator()
    with T.no_grad():
        for inp, tgt, _ in iter_batches(values, origins, geom["lookback"], geom["horizon"], 7):
            acc.add(fc.forward_batch(Tensor(inp)), tgt)
    want = acc.finalize()
    got = split_metrics(fc, values, origins, geom["lookback"], geom["horizon"], 7)
    assert got.windows == want.windows == len(origins)
    assert got.mse == pytest.approx(want.mse, rel=1e-12)
    assert got.mae == pytest.approx(want.mae, rel=1e-12)
