"""Training loop, early stopping, checkpoints, and the synth generator."""
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from helpers import piped
from mppn import training
from mppn.checkpoint import load_checkpoint, save_checkpoint
from mppn.data import load_csv
from mppn.errors import ConfigError, DivergenceError, FormatError
from mppn.periods import detect_periods
from mppn.rng import SplitMix64
from mppn.synth import ToneSpec, generate, write_csv
from mppn.training import (MODEL_KINDS, EarlyStopper, RunConfig, build_forecaster, config_blob,
                           evaluate, forecast, restore_forecaster, train)


def tone_csv(path, timesteps=400, channels=2, period=24.0, noise=0.05, seed=3):
    tones = [[ToneSpec(1.0, period)] for _ in range(channels)]
    values = generate(tones, trend=0.0, noise_sd=noise, timesteps=timesteps, seed=seed)
    write_csv(path, values)
    return path


def small_run(path, **kw):
    base = dict(model="mppn", data=str(path), split_scheme="standard", lookback=48,
                horizon=12, hidden=6, resolutions=(1, 3), periods=None, top_k=1,
                max_epochs=2, patience=3, batch_size=32, seed=11)
    base.update(kw)
    return RunConfig(**base)


# ---------------------------------------------------------------------------
# run configuration

def test_run_config_round_trips_losslessly():
    run = small_run("somewhere.csv", lr=0.00125, periods=(24, 12), overlap=True)
    text = run.to_text()
    parsed, extras = RunConfig.from_text(text)
    assert parsed == run and extras == {}


def test_run_config_accepts_json_object():
    run, extras = RunConfig.from_text(json.dumps({"model": "nlinear", "lookback": 64}))
    assert run.model == "nlinear" and run.lookback == 64 and extras == {}


def test_run_config_blob_extras_split_out():
    run = small_run("x.csv")
    blob = config_blob(run, {"channels": 2, "resolved_periods": [24]})
    parsed, extras = RunConfig.from_text(blob)
    assert parsed == run
    assert extras == {"channels": 2, "resolved_periods": (24,)} or \
           extras == {"channels": 2, "resolved_periods": [24]}


def test_run_config_rejects_unknown_model():
    with pytest.raises(ConfigError):
        RunConfig(model="transformer")


@pytest.mark.parametrize("field,value", [
    ("lookback", "abc"), ("lookback", 0), ("lookback", 48.0), ("horizon", True),
    ("hidden", -1), ("batch_size", 0), ("patience", 0), ("max_epochs", -1), ("top_k", 0),
    ("seed", 1.5), ("lr", float("nan")), ("lr", float("inf")), ("lr", 0.0), ("lr", "fast"), ("lr", 10 ** 400),
    ("weight_decay", -1e-5), ("weight_decay", float("nan")), ("overlap", 1),
    ("resolutions", 3), ("resolutions", (1, 0)), ("periods", ("24",)), ("periods", (1,)),
    ("data", 7),
])
def test_run_config_rejects_bad_field(field, value):
    with pytest.raises(ConfigError, match=field):
        small_run("x.csv", **{field: value})


@pytest.mark.parametrize("width", [4, 1, 97])
def test_run_config_checks_the_moving_average_only_for_dlinear(width):
    with pytest.raises(ConfigError) as err:
        small_run("x.csv", model="dlinear", moving_average=width)
    assert str(err.value) == (
        f"config: moving_average must be odd and in [3, 95] for dlinear, got {width}")
    for kind in ("mppn", "nlinear", "naive"):  # kinds that never read it
        assert small_run("x.csv", model=kind, moving_average=width).moving_average == width


def test_run_config_accepts_dlinear_moving_average_at_both_ends():
    for width in (3, 95):
        assert small_run("x.csv", model="dlinear", moving_average=width).moving_average == width


# ---------------------------------------------------------------------------
# early stopping

def test_early_stopper_plateau_trace():
    # validation sequence [3, 2, 2, 2, 2]: improvement at epochs 1-2, then a
    # three-epoch plateau triggers the stop after epoch 5, best kept at 2
    stopper = EarlyStopper(patience=3)
    outcomes = [stopper.update(epoch, val)
                for epoch, val in enumerate([3.0, 2.0, 2.0, 2.0, 2.0], start=1)]
    assert outcomes == [(True, False), (True, False), (False, False),
                        (False, False), (False, True)]
    assert stopper.best_epoch == 2 and stopper.best == 2.0


def test_early_stopper_recovery_resets_patience():
    stopper = EarlyStopper(patience=2)
    seq = [5.0, 6.0, 4.0, 4.5, 4.4]
    stops = [stopper.update(e, v)[1] for e, v in enumerate(seq, 1)]
    assert stops == [False, False, False, False, True]
    assert stopper.best_epoch == 3


# ---------------------------------------------------------------------------
# checkpoint container

def test_checkpoint_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    tensors = [("a.weight", rng.standard_normal((3, 4))),
               ("b", rng.standard_normal(7)),
               ("scalarish", rng.standard_normal((1,)))]
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, "model=\"mppn\"\n", tensors)
    text, loaded = load_checkpoint(path)
    assert text == "model=\"mppn\"\n"
    for name, arr in tensors:
        assert np.array_equal(loaded[name], arr)
        assert loaded[name].dtype == np.float64


def test_checkpoint_bytes_follow_the_layout(tmp_path):
    # a 0-d array keeps rank 0, a transposed view is written in C order and
    # integers as float64, each payload streamed after its header
    import struct
    w = np.arange(6.0).reshape(2, 3).T
    tensors = [("s", np.array(2.5)), ("w\u00e9", w), ("i", np.arange(3))]
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, "x=1\n", tensors)
    want = b"MPPN" + struct.pack("<IQ", 1, 4) + b"x=1\n" + struct.pack("<I", 3)
    want += struct.pack("<I", 1) + b"s" + struct.pack("<Id", 0, 2.5)
    want += struct.pack("<I", 3) + "w\u00e9".encode() + struct.pack("<IQQ", 2, 3, 2)
    want += np.ascontiguousarray(w).astype("<f8").tobytes()
    want += struct.pack("<I", 1) + b"i" + struct.pack("<IQ", 1, 3)
    want += np.arange(3.0).astype("<f8").tobytes()
    assert path.read_bytes() == want
    _, loaded = load_checkpoint(path)
    assert loaded["s"].shape == () and np.array_equal(loaded["w\u00e9"], w)


def test_checkpoint_payload_errors_name_their_byte_offsets(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, "x=1\n", [("a", np.ones(2)), ("w", np.ones((2, 3)))])
    blob = path.read_bytes()
    _, loaded = load_checkpoint(path)
    assert loaded["w"].flags.writeable and loaded["w"].flags.c_contiguous
    cut = tmp_path / "cut.ckpt"
    cut.write_bytes(blob[:-8])
    with pytest.raises(FormatError) as err:
        load_checkpoint(cut)
    assert str(err.value) == (f"{cut}: truncated while reading payload of 'w' at byte "
                              f"{len(blob) - 48} (need 48, have 40)")
    start = blob.index(np.ones(2).tobytes())
    bad = tmp_path / "nan.ckpt"
    bad.write_bytes(blob[:start + 8] + np.array([np.nan]).tobytes() + blob[start + 16:])
    with pytest.raises(FormatError) as err:
        load_checkpoint(bad)
    assert str(err.value) == (f"{bad}: tensor 'a' holds a non-finite value in its payload "
                              f"ending at byte {start + 16}")


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(FormatError) as err:
        load_checkpoint(path)
    assert "byte 0" in str(err.value)


def test_checkpoint_truncation_reports_offset(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, "x=1\n", [("w", np.ones((4, 4)))])
    blob = path.read_bytes()
    cut = tmp_path / "cut.ckpt"
    cut.write_bytes(blob[:len(blob) - 40])
    with pytest.raises(FormatError) as err:
        load_checkpoint(cut)
    assert "byte" in str(err.value)


def test_checkpoint_rejects_trailing_garbage(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, "x=1\n", [])
    path.write_bytes(path.read_bytes() + b"junk")
    with pytest.raises(FormatError):
        load_checkpoint(path)


def _two_tensor_checkpoint(path):
    save_checkpoint(path, "x=1\n", [("a", np.arange(2.0)), ("w", np.arange(6.0).reshape(2, 3))])
    return path.read_bytes()


def test_every_prefix_of_a_checkpoint_is_a_format_error(tmp_path):
    blob = _two_tensor_checkpoint(tmp_path / "m.ckpt")
    cut = tmp_path / "cut.ckpt"
    for n in range(len(blob)):
        cut.write_bytes(blob[:n])
        with pytest.raises(FormatError):
            load_checkpoint(cut)


def _raw_checkpoint(version=1, config=b"x=1\n", name=b"w", rank=1, dims=(2,), payload=None):
    """Checkpoint bytes built field by field, so any field can lie."""
    import struct
    head = b"MPPN" + struct.pack("<IQ", version, len(config)) + config + struct.pack("<I", 1)
    head += struct.pack("<I", len(name)) + name + struct.pack(f"<I{len(dims)}Q", rank, *dims)
    return head + (np.ones(dims).tobytes() if payload is None else payload)


def test_checkpoint_declaring_a_huge_payload_fails_before_allocating_it(tmp_path):
    import tracemalloc
    path = tmp_path / "huge.ckpt"
    path.write_bytes(_raw_checkpoint(dims=(2 ** 40,), payload=b"\0" * 16))
    tracemalloc.start()
    try:
        with pytest.raises(FormatError) as err:
            load_checkpoint(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(err.value) == (f"{path}: truncated while reading payload of 'w' at byte 41 "
                              f"(need {8 * 2 ** 40}, have 16)")
    assert peak < 2 ** 20


def test_checkpoint_repeated_tensor_name_is_a_format_error(tmp_path):
    path = tmp_path / "twice.ckpt"
    save_checkpoint(path, "x=1\n", [("w", np.ones(2)), ("w", np.zeros(2)), ("b", np.ones(1))])
    with pytest.raises(FormatError) as err:
        load_checkpoint(path)
    # 24 header bytes, then the first record: name 4 + 1, rank 4, dim 8, payload 16
    assert str(err.value) == f"{path}: tensor 'w' repeated at byte 57"


@pytest.mark.parametrize("fields, message", [
    (dict(version=2), "unsupported version 2 at byte 4"),
    (dict(config=b"x=\xff\n"), "config is not valid UTF-8 at byte 20"),
    (dict(name=b"\xffw"), "tensor name is not valid UTF-8 at byte 30"),
    (dict(rank=17, dims=(1,) * 17), "implausible rank 17 at byte 29"),
    # an empty payload passes every length check, yet numpy cannot take the dims
    (dict(rank=2, dims=(0, 2 ** 63), payload=b""),
     f"tensor 'w' has implausible dims {(0, 2 ** 63)} at byte 33"),
    (dict(rank=3, dims=(0, 2 ** 40, 2 ** 40), payload=b""),
     f"tensor 'w' has implausible dims {(0, 2 ** 40, 2 ** 40)} at byte 33"),
], ids=["version", "config-utf8", "name-utf8", "rank", "empty-dim-past-intp",
        "empty-bytes-past-intp"])
def test_checkpoint_header_faults_name_their_byte_offsets(tmp_path, fields, message):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(_raw_checkpoint(**fields))
    with pytest.raises(FormatError) as err:
        load_checkpoint(path)
    assert str(err.value) == f"{path}: {message}"


def test_checkpoint_loads_from_a_pipe_as_from_its_file(tmp_path):
    path = tmp_path / "m.ckpt"
    blob = _two_tensor_checkpoint(path)
    text, tensors = load_checkpoint(path)
    with piped(blob) as fd:
        piped_text, piped_tensors = load_checkpoint(fd)
    assert piped_text == text and list(piped_tensors) == list(tensors)
    for name, arr in tensors.items():
        assert piped_tensors[name].tobytes() == arr.tobytes()
        assert piped_tensors[name].shape == arr.shape
    with piped(blob[:-8]) as fd:
        with pytest.raises(FormatError) as err:
            load_checkpoint(fd)
    assert str(err.value) == (f"{fd}: truncated while reading payload of 'w' at byte "
                              f"{len(blob) - 48} (need 48, have 40)")


def test_loaded_tensors_own_memory_of_their_own_size(tmp_path):
    # no tensor may be a view that keeps a buffer the size of the file alive
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, "x=1\n", [("s", np.array(2.0)), ("a", np.arange(2.0)),
                                     ("w", np.arange(6.0).reshape(2, 3)), ("e", np.ones((0, 4)))])
    _, tensors = load_checkpoint(path)
    for arr in tensors.values():
        assert arr.dtype == np.float64
        assert arr.flags.aligned and arr.flags.c_contiguous and arr.flags.writeable
        owner = arr
        while owner.base is not None:
            owner = owner.base
        assert isinstance(owner, np.ndarray) and owner.nbytes == arr.nbytes


# ---------------------------------------------------------------------------
# synth generator

def test_synth_same_seed_same_bytes(tmp_path):
    a = tone_csv(tmp_path / "a.csv", seed=5)
    b = tone_csv(tmp_path / "b.csv", seed=5)
    assert a.read_bytes() == b.read_bytes()
    c = tone_csv(tmp_path / "c.csv", seed=6)
    assert a.read_bytes() != c.read_bytes()


def test_synth_csv_bytes_match_plain_layout(tmp_path):
    # plain names and float cells need no quoting, so each line is exactly
    # its cells joined by commas
    values = generate([[ToneSpec(1.0, 24.0)], [ToneSpec(0.5, 7.0, 1.0)]], 0.1, 0.3, 50, seed=2)
    values[3, 1] = -0.0
    path = tmp_path / "s.csv"
    write_csv(path, values, ["HUFL", "OT"])
    lines = ["date,HUFL,OT"] + [
        f"2016-07-{1 + i // 24:02d} {i % 24:02d}:00:00," + ",".join(repr(float(v)) for v in row)
        for i, row in enumerate(values)]
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")


def test_synth_variance_moment_oracle():
    tones = [[ToneSpec(2.0, 24.0), ToneSpec(1.0, 7.0)]]
    values = generate(tones, trend=0.0, noise_sd=0.5, timesteps=10000, seed=9)
    expected = (4.0 + 1.0) / 2.0 + 0.25
    assert np.var(values[:, 0]) == pytest.approx(expected, rel=0.05)


def test_synth_noiseless_tone_peaks_at_requested_frequency():
    values = generate([[ToneSpec(1.0, 24.0)]], 0.0, 0.0, 960, seed=0)
    pset = detect_periods(values, 1)
    assert pset.periods == [24]


def test_synth_rejects_bad_spec():
    from mppn.errors import ArgumentError
    with pytest.raises(ArgumentError):
        generate([], 0.0, 0.0, 100, 0)
    with pytest.raises(ArgumentError):
        generate([[ToneSpec(1.0, 0.0)]], 0.0, 0.0, 100, 0)
    with pytest.raises(ArgumentError):
        generate([[ToneSpec(1.0, 24.0)]], 0.0, 0.0, 4, 0)



def test_synth_value_bound_counts_every_channel(monkeypatch):
    from mppn import synth
    from mppn.errors import ArgumentError
    monkeypatch.setattr(synth, "_MAX_VALUES", 100)  # a bound small enough to allocate past
    assert generate([[ToneSpec(1.0, 24.0)]], 0.0, 0.0, 100, 0).shape == (100, 1)
    with pytest.raises(ArgumentError, match="50 timesteps x 3 channels exceeds 100 values"):
        generate([[ToneSpec(1.0, 24.0)]] * 3, 0.0, 0.0, 50, 0)


# ---------------------------------------------------------------------------
# training end to end

def test_train_detects_tone_period_and_learns(tmp_path):
    path = tone_csv(tmp_path / "tone.csv")
    run = small_run(path, max_epochs=3)
    result = train(run, tmp_path / "m.ckpt")
    assert result.periods == (24,)
    assert result.best_val_mse is not None
    naive = evaluate(tmp_path / "m.ckpt", split="val")  # sanity: metrics exist
    assert naive.windows > 0
    # the trained model should be well under the naive floor on this tone
    run_naive = small_run(path, model="naive")
    train(run_naive, tmp_path / "naive.ckpt")
    naive_val = evaluate(tmp_path / "naive.ckpt", split="val").mse
    assert result.best_val_mse < naive_val


@pytest.mark.parametrize("kind", ["nlinear", "dlinear"])
def test_linear_baselines_beat_naive_within_five_epochs(tmp_path, kind):
    path = tone_csv(tmp_path / "tone.csv", timesteps=500, noise=0.02)
    run = small_run(path, model=kind, max_epochs=5, moving_average=25)
    result = train(run, tmp_path / f"{kind}.ckpt")
    train(small_run(path, model="naive"), tmp_path / "naive.ckpt")
    naive_val = evaluate(tmp_path / "naive.ckpt", split="val").mse
    assert result.best_val_mse < naive_val


def test_train_same_seed_bit_identical_checkpoints(tmp_path):
    path = tone_csv(tmp_path / "tone.csv")
    out1, out2 = tmp_path / "m1.ckpt", tmp_path / "m2.ckpt"
    r1 = train(small_run(path), out1)
    r2 = train(small_run(path), out2)
    assert out1.read_bytes() == out2.read_bytes()
    assert r1.log == r2.log


def test_train_restores_best_epoch_parameters(tmp_path):
    # run long enough for the tone model to overfit/plateau; the reported
    # best epoch's validation MSE must equal a fresh evaluation of the
    # checkpoint (best-state restoration, not last-state)
    path = tone_csv(tmp_path / "tone.csv")
    run = small_run(path, max_epochs=6, patience=2)
    result = train(run, tmp_path / "m.ckpt")
    vals = [e["val_mse"] for e in result.log]
    assert result.best_val_mse == min(vals)
    fresh = evaluate(tmp_path / "m.ckpt", split="val", batch_size=run.batch_size)
    assert fresh.mse == pytest.approx(result.best_val_mse, abs=1e-12)


def test_train_divergence_raises(tmp_path):
    # Adam steps are bounded by lr, so overflow needs lr near the float max:
    # one step puts the weights at ~1e200 and the next squared error is inf
    path = tone_csv(tmp_path / "tone.csv")
    run = small_run(path, lr=1e200, max_epochs=3)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError):
        train(run, tmp_path / "m.ckpt")


def test_training_ignores_test_region(tmp_path):
    # same length, same train/val rows, different test rows: boundaries are
    # a pure function of T, so checkpoints must be byte-identical
    base = tone_csv(tmp_path / "base.csv")
    ds = load_csv(base)
    altered = ds.values.copy()
    altered[int(0.8 * len(altered)):] += 123.0
    other = tmp_path / "altered.csv"
    write_csv(other, altered)
    train(small_run(base), tmp_path / "m1.ckpt")
    train(small_run(other), tmp_path / "m2.ckpt")
    b1 = (tmp_path / "m1.ckpt").read_bytes()
    b2 = (tmp_path / "m2.ckpt").read_bytes()
    # blobs differ only in the data path inside the embedded config
    _, t1 = load_checkpoint(tmp_path / "m1.ckpt")
    _, t2 = load_checkpoint(tmp_path / "m2.ckpt")
    assert set(t1) == set(t2)
    for name in t1:
        assert np.array_equal(t1[name], t2[name]), name


# ---------------------------------------------------------------------------
# evaluation and forecasting

def test_evaluate_is_batching_invariant(tmp_path):
    path = tone_csv(tmp_path / "tone.csv")
    train(small_run(path, max_epochs=1), tmp_path / "m.ckpt")
    m1 = evaluate(tmp_path / "m.ckpt", split="test", batch_size=1)
    m64 = evaluate(tmp_path / "m.ckpt", split="test", batch_size=64)
    assert abs(m1.mse - m64.mse) <= 1e-12
    assert abs(m1.mae - m64.mae) <= 1e-12
    assert m1.windows == m64.windows


def test_evaluate_is_read_only(tmp_path):
    path = tone_csv(tmp_path / "tone.csv")
    ckpt = tmp_path / "m.ckpt"
    train(small_run(path, max_epochs=1), ckpt)
    before = (path.read_bytes(), ckpt.read_bytes())
    evaluate(ckpt, split="test")
    assert (path.read_bytes(), ckpt.read_bytes()) == before


def test_inference_starts_no_thread(tmp_path):
    # a fresh interpreter, so no earlier test's optimizer has started one;
    # evaluate drains its chunks and analyze its passes on the shared
    # worker, and neither starts another
    path = tone_csv(tmp_path / "tone.csv")
    ckpt = tmp_path / "m.ckpt"
    train(small_run(path, max_epochs=1), ckpt)
    script = textwrap.dedent("""
        import sys, threading
        import mppn
        from mppn import training
        before = set(threading.enumerate())
        assert len(before) == 1, before
        training.forecast(sys.argv[1])
        assert set(threading.enumerate()) == before, threading.enumerate()
        assert "concurrent.futures" not in sys.modules
        training.evaluate(sys.argv[1])
        added = set(threading.enumerate()) - before
        assert len(added) <= 1 and all(t.name.startswith("mppn-worker") for t in added), added
        training.evaluate(sys.argv[1])
        assert set(threading.enumerate()) - before == added, threading.enumerate()
        training.analyze(sys.argv[2], [4, 8], "equal-frequency", 1, None, "standard")
        assert set(threading.enumerate()) - before == added, threading.enumerate()
        """)
    src = Path(training.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    done = subprocess.run([sys.executable, "-c", script, str(ckpt), str(path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_evaluate_channel_mismatch_is_config_error(tmp_path):
    path = tone_csv(tmp_path / "tone.csv", channels=2)
    ckpt = tmp_path / "m.ckpt"
    train(small_run(path, max_epochs=1), ckpt)
    wider = tone_csv(tmp_path / "wider.csv", channels=3)
    with pytest.raises(ConfigError):
        evaluate(ckpt, data_path=wider)


def test_forecast_matches_in_memory_forward(tmp_path):
    path = tone_csv(tmp_path / "tone.csv")
    ckpt = tmp_path / "m.ckpt"
    train(small_run(path, max_epochs=1), ckpt)
    pred_std, names, origin = forecast(ckpt, standardized=True)
    assert names == ["v0", "v1"] and pred_std.shape == (12, 2)
    # reload and forecast again: bit-identical (loaded params == memory params)
    pred_again, _, _ = forecast(ckpt, origin=origin, standardized=True)
    assert np.array_equal(pred_std, pred_again)
    # original-scale output is the standardized one mapped back
    pred_raw, _, _ = forecast(ckpt, origin=origin, standardized=False)
    assert not np.array_equal(pred_raw, pred_std)


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_forecast_matches_its_row_in_the_chunked_evaluate(tmp_path, monkeypatch, kind):
    path = tone_csv(tmp_path / "tone.csv")
    ckpt = tmp_path / "m.ckpt"
    train(small_run(path, model=kind, max_epochs=1), ckpt)
    preds = {}  # first origin of a chunk -> the chunk's forecasts
    chunk_forecast = training._chunk_forecast

    def recording_forecast(view, lo, hi, lookback, a, b):
        pred = chunk_forecast(view, lo, hi, lookback, a, b)
        preds[lo + lookback] = pred.copy()
        return pred

    monkeypatch.setattr(training, "_chunk_forecast", recording_forecast)
    evaluate(ckpt, split="test")
    firsts = sorted(preds)
    assert len(firsts) >= 3 and len(preds[firsts[-1]]) < len(preds[firsts[0]])
    # a chunk's first row, a middle row, and rows of the last, partial chunk
    for k, row in [(1, 0), (1, len(preds[firsts[1]]) // 2), (0, 5), (-1, 0),
                   (-1, len(preds[firsts[-1]]) - 1)]:
        pred, _, _ = forecast(ckpt, origin=firsts[k] + row, standardized=True)
        assert np.array_equal(pred, preds[firsts[k]][row]), (kind, k, row)


def test_forecast_origin_validation(tmp_path):
    path = tone_csv(tmp_path / "tone.csv")
    ckpt = tmp_path / "m.ckpt"
    train(small_run(path, max_epochs=1), ckpt)
    with pytest.raises(ConfigError):
        forecast(ckpt, origin=10)  # inside the lookback warmup


def test_restored_forecaster_matches_in_memory_bit_exact(tmp_path):
    # save a freshly built model, reload it, and compare raw forwards
    from mppn.tensor import Tensor, no_grad
    from mppn.training import build_forecaster, restore_forecaster
    run = small_run("unused.csv", periods=(24,))
    fc = build_forecaster(run, channels=2, resolved_periods=(24,))
    extras = {"channels": 2, "channel_names": ["v0", "v1"], "resolved_periods": [24]}
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, config_blob(run, extras), [(n, t.data) for n, t in fc.named_parameters()])
    text, tensors = load_checkpoint(path)
    parsed_run, parsed_extras = RunConfig.from_text(text)
    restored = restore_forecaster(parsed_run, parsed_extras, tensors)
    x = np.random.default_rng(12).standard_normal((3, 48, 2))
    with no_grad():
        a = fc.forward_batch(Tensor(x)).data
        b = restored.forward_batch(Tensor(x)).data
    assert np.array_equal(a, b)


@pytest.mark.parametrize("extras", [
    {}, {"channels": None}, {"channels": "2"}, {"channels": 0}, {"channels": 2.0},
    {"channels": True},
])
def test_restore_rejects_bad_channel_count(extras):
    from mppn.training import build_forecaster, restore_forecaster
    run = small_run("unused.csv", periods=(24,))
    fc = build_forecaster(run, channels=2, resolved_periods=(24,))
    tensors = {n: t.data for n, t in fc.named_parameters()}
    with pytest.raises(FormatError, match="channels"):
        restore_forecaster(run, {"resolved_periods": [24], **extras}, tensors)


def test_restore_names_mismatched_tensors_and_shapes():
    run = small_run("unused.csv", periods=(24,))
    fc = build_forecaster(run, channels=2, resolved_periods=(24,))
    tensors = {n: t.data for n, t in fc.named_parameters()}
    extras = {"channels": 2, "channel_names": ["v0", "v1"], "resolved_periods": [24]}
    missing = {n: a for n, a in tensors.items() if n != "embed"}
    with pytest.raises(FormatError) as err:
        restore_forecaster(run, extras, missing)
    assert str(err.value) == (f"checkpoint tensors {sorted(missing)} do not match model "
                              f"parameters {sorted(tensors)}")
    with pytest.raises(FormatError) as err:
        restore_forecaster(run, extras, {**tensors, "out.bias": np.zeros(3)})
    assert str(err.value) == "checkpoint tensor 'out.bias' has shape (3,), expected (12,)"


@pytest.mark.parametrize("kind", ["mppn", "dlinear", "nlinear"])
def test_build_forecaster_draws_the_params_classes_init(kind):
    # build_forecaster and each params class's init draw the same stream
    from mppn.baselines import DLinearParams, NLinearParams
    from mppn.model import MPPNConfig, MPPNParams
    run = small_run("unused.csv", model=kind, periods=(24,) if kind == "mppn" else None,
                    moving_average=7)
    fc = build_forecaster(run, 2, (24,) if kind == "mppn" else ())
    if kind == "mppn":
        want = MPPNParams.init(MPPNConfig(lookback=48, horizon=12, channels=2, hidden=6,
                                          resolutions=(1, 3), periods=(24,), seed=11))
    elif kind == "dlinear":
        want = DLinearParams.init(48, 12, seed=11)
    else:
        want = NLinearParams.init(48, 12, seed=11)
    got = fc.named_parameters()
    assert [n for n, _ in got] == [n for n, _ in want.named_parameters()]
    for (name, a), (_, b) in zip(got, want.named_parameters()):
        assert a.data.tobytes() == b.data.tobytes(), name


@pytest.mark.parametrize("kind", ["mppn", "dlinear", "nlinear"])
def test_build_forecaster_draws_through_its_kinds_init(monkeypatch, kind):
    # one home per init stream: the forecaster's parameters are the very
    # container its kind's init returns, drawn by one call
    from mppn.baselines import DLinearParams, NLinearParams
    from mppn.model import MPPNParams
    cls = {"mppn": MPPNParams, "dlinear": DLinearParams, "nlinear": NLinearParams}[kind]
    init, made = cls.init, []
    monkeypatch.setattr(cls, "init", lambda *args: made.append(init(*args)) or made[-1])
    run = small_run("unused.csv", model=kind, periods=(24,) if kind == "mppn" else None,
                    moving_average=7)
    fc = build_forecaster(run, 2, (24,) if kind == "mppn" else ())
    assert len(made) == 1 and fc.params is made[0]


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_every_forecaster_holds_one_params_in_shapes_order(kind):
    # built or restored, a forecaster's parameters are one container whose
    # tensors follow its class's shapes and wrap the arrays given, uncopied
    from mppn.baselines import DLinearParams, NLinearParams
    from mppn.model import MPPNConfig, MPPNParams
    from mppn.tensor import Params
    shapes = {
        "mppn": lambda: MPPNParams.shapes(MPPNConfig(lookback=48, horizon=12, channels=2, hidden=6,
                                                     resolutions=(1, 3), periods=(24,))),
        "dlinear": lambda: DLinearParams.shapes(48, 12),
        "nlinear": lambda: NLinearParams.shapes(48, 12),
        "naive": dict,
    }[kind]()
    run = small_run("unused.csv", model=kind, periods=(24,) if kind == "mppn" else None)
    periods = (24,) if kind == "mppn" else ()
    rng = np.random.default_rng(0)
    arrays = {name: rng.standard_normal(shape) for name, shape in shapes.items()}
    extras = {"channels": 2, "channel_names": ["v0", "v1"], "resolved_periods": list(periods)}
    for fc in (build_forecaster(run, 2, periods), restore_forecaster(run, extras, arrays)):
        assert isinstance(fc.params, Params) and list(vars(fc.params)) == ["tensors"]
        assert (type(fc.params) is Params) == (kind == "naive")
        assert [(n, t.shape) for n, t in fc.named_parameters()] == list(shapes.items())
        assert fc.named_parameters() == list(fc.params.tensors.items())
    assert all(fc.params.tensors[name].data is arr for name, arr in arrays.items())


def test_dlinear_kernel_follows_the_runs_moving_average():
    from mppn.baselines import DLinearParams, dlinear_kernel
    rng = np.random.default_rng(1)
    arrays = {name: rng.standard_normal(shape)
              for name, shape in DLinearParams.shapes(48, 12).items()}
    extras = {"channels": 2, "channel_names": ["v0", "v1"], "resolved_periods": []}
    kernels = {}
    for width in (5, 7):
        fc = restore_forecaster(small_run("unused.csv", model="dlinear", moving_average=width),
                                extras, arrays)
        a, b = fc.kernel()
        want_a, want_b = dlinear_kernel(fc.params, 2, width)
        assert np.array_equal(a.data, want_a.data) and np.array_equal(b.data, want_b.data)
        kernels[width] = a.data
    assert not np.array_equal(kernels[5], kernels[7])


def _restore_by_overwriting_a_seeded_init(run, extras, tensors):
    """restore_forecaster as it once was: build a seeded forecaster, then
    overwrite each parameter with its checkpoint array."""
    fc = build_forecaster(run, extras["channels"], tuple(extras["resolved_periods"]))
    for name, t in fc.named_parameters():
        t.data = np.ascontiguousarray(tensors[name])
    return fc


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_restore_draws_no_random_numbers(tmp_path, monkeypatch, kind):
    # every parameter comes straight from the checkpoint, and the metrics
    # equal, bit for bit, those of a restore that draws the init first
    path = tone_csv(tmp_path / "tone.csv")
    periods = (24,) if kind == "mppn" else ()
    run = small_run(path, model=kind, periods=periods or None)
    fc = build_forecaster(run, 2, periods)
    rng = np.random.default_rng(18)
    for _, t in fc.named_parameters():
        t.data = rng.standard_normal(t.shape)
    extras = {"channels": 2, "channel_names": ["v0", "v1"], "resolved_periods": list(periods)}
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(ckpt, config_blob(run, extras), [(n, t.data) for n, t in fc.named_parameters()])

    def refuse(*args, **kwargs):
        raise AssertionError("restoring a checkpoint drew random numbers")

    with monkeypatch.context() as patched:
        patched.setattr(SplitMix64, "uniform", refuse)
        got = evaluate(ckpt)
    monkeypatch.setattr(training, "restore_forecaster", _restore_by_overwriting_a_seeded_init)
    want = evaluate(ckpt)
    assert (got.mse, got.mae, got.windows) == (want.mse, want.mae, want.windows)


def test_overlap_mode_trains_and_differs(tmp_path):
    path = tone_csv(tmp_path / "tone.csv")
    r_plain = train(small_run(path, max_epochs=1), tmp_path / "plain.ckpt")
    r_overlap = train(small_run(path, max_epochs=1, overlap=True), tmp_path / "overlap.ckpt")
    assert r_plain.periods == r_overlap.periods
    m_plain = evaluate(tmp_path / "plain.ckpt", split="val")
    m_overlap = evaluate(tmp_path / "overlap.ckpt", split="val")
    assert m_plain.windows == m_overlap.windows
    assert m_plain.mse != m_overlap.mse  # different patching stride, different fit


def test_naive_on_constant_data_scores_zero(tmp_path):
    values = np.full((200, 2), 5.0)
    path = tmp_path / "flat.csv"
    write_csv(path, values)
    run = small_run(path, model="naive", fill_missing=True)  # lenient stats for flat data
    train(run, tmp_path / "naive.ckpt")
    metrics = evaluate(tmp_path / "naive.ckpt", split="test")
    assert metrics.mse == 0.0 and metrics.mae == 0.0
