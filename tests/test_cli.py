"""Command-line surface: subcommands, JSON reports, exit codes."""
import argparse
import csv
import dataclasses
import json

import numpy as np
import pytest

from helpers import crlf_and_quoted, piped
from mppn import cli
from mppn.cli import main
from mppn.training import RunConfig


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def tone_csv(tmp_path, capsys):
    # T chosen so the training split (floor(0.7 * 480) = 336) holds a whole
    # number of 24-step cycles; a half-integer cycle count would alias the
    # detected frequency to a neighboring bin
    path = tmp_path / "tone.csv"
    code, _, _ = run_cli(capsys, "synth", "--out", str(path), "--timesteps", "480",
                         "--spec", '[[{"amplitude":1,"period":24}],[{"amplitude":2,"period":24,"phase":0.7}]]',
                         "--noise-sd", "0.05", "--seed", "4")
    assert code == 0
    return path


def test_synth_is_byte_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code, out, _ = run_cli(capsys, "synth", "--out", str(path), "--seed", "7",
                               "--timesteps", "100", "--noise-sd", "0.3")
        assert code == 0
        assert json.loads(out)["timesteps"] == 100
    assert a.read_bytes() == b.read_bytes()


def test_analyze_reports_periods_and_predictability(tone_csv, capsys):
    code, out, _ = run_cli(capsys, "analyze", "--data", str(tone_csv), "--top-k", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["periods"]["source"] == "fft"
    assert doc["periods"]["items"][0]["period"] == 24
    assert set(doc["predictability"]) == {"variates", "mean_pi_max", "Q", "mode"}


def test_analyze_q_sweep_and_override(tone_csv, capsys):
    code, out, _ = run_cli(capsys, "analyze", "--data", str(tone_csv),
                           "--q", "5,10", "--periods", "24,12")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["predictability"]["sweep"]) == 2
    assert doc["periods"]["source"] == "override"
    assert [i["period"] for i in doc["periods"]["items"]] == [24, 12]


def test_analyze_missing_file_is_data_error(capsys, tmp_path):
    code, _, err = run_cli(capsys, "analyze", "--data", str(tmp_path / "nope.csv"))
    assert code == 3


def test_train_eval_forecast_gates_pipeline(tone_csv, tmp_path, capsys):
    ckpt = tmp_path / "model.ckpt"
    code, out, _ = run_cli(capsys, "train", "--data", str(tone_csv), "--out", str(ckpt),
                           "--model", "mppn", "--lookback", "48", "--horizon", "12",
                           "--hidden", "6", "--resolutions", "1,3", "--top-k", "1",
                           "--max-epochs", "2", "--seed", "5")
    assert code == 0
    report = json.loads(out)
    assert report["periods"] == [24]
    assert report["best_epoch"] >= 1
    assert ckpt.exists()

    code, out, _ = run_cli(capsys, "eval", "--ckpt", str(ckpt), "--split", "test")
    assert code == 0
    metrics = json.loads(out)
    assert set(metrics) == {"split", "mse", "mae", "windows"}
    assert metrics["split"] == "test" and metrics["windows"] > 0

    fc = tmp_path / "pred.csv"
    code, out, _ = run_cli(capsys, "forecast", "--ckpt", str(ckpt), "--out", str(fc))
    assert code == 0
    lines = fc.read_text().strip().splitlines()
    assert lines[0] == "step,v0,v1"
    assert len(lines) == 1 + 12

    gates = tmp_path / "gates.csv"
    code, out, _ = run_cli(capsys, "gates", "--ckpt", str(ckpt), "--out", str(gates))
    assert code == 0
    with open(gates, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    matrix = np.array([r[1:] for r in rows[1:]], dtype=float)
    assert rows[0] == ["channel"] + [f"p{i}" for i in range(matrix.shape[1])]
    assert [r[0] for r in rows[1:]] == ["v0", "v1"]
    assert np.all((matrix > 0) & (matrix < 1))


def test_train_same_seed_same_checkpoint_bytes(tone_csv, tmp_path, capsys):
    args = ["train", "--data", str(tone_csv), "--model", "nlinear", "--lookback", "48",
            "--horizon", "12", "--max-epochs", "2", "--seed", "9"]
    c1, _, _ = run_cli(capsys, *args, "--out", str(tmp_path / "m1.ckpt"))
    c2, _, _ = run_cli(capsys, *args, "--out", str(tmp_path / "m2.ckpt"))
    assert c1 == c2 == 0
    assert (tmp_path / "m1.ckpt").read_bytes() == (tmp_path / "m2.ckpt").read_bytes()


def test_gates_on_linear_model_is_config_error(tone_csv, tmp_path, capsys):
    ckpt = tmp_path / "lin.ckpt"
    code, _, _ = run_cli(capsys, "train", "--data", str(tone_csv), "--model", "nlinear",
                         "--lookback", "48", "--horizon", "12", "--max-epochs", "1",
                         "--out", str(ckpt))
    assert code == 0
    code, _, err = run_cli(capsys, "gates", "--ckpt", str(ckpt))
    assert code == 2


def test_config_file_plus_cli_override(tone_csv, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text('model="nlinear"\nlookback=48\nhorizon=12\nmax_epochs=1\n')
    ckpt = tmp_path / "m.ckpt"
    code, out, _ = run_cli(capsys, "train", "--config", str(cfg), "--data", str(tone_csv),
                           "--out", str(ckpt), "--max-epochs", "2")
    assert code == 0
    assert len(json.loads(out)["epochs"]) <= 2
    assert ckpt.exists()


def test_unknown_config_key_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("modle=\"mppn\"\n")
    code, _, _ = run_cli(capsys, "train", "--config", str(cfg), "--data", "x.csv")
    assert code == 2


def test_non_integer_lookback_in_config_file_is_config_error(tone_csv, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text('model="nlinear"\nlookback="abc"\n')
    code, _, err = run_cli(capsys, "train", "--config", str(cfg), "--data", str(tone_csv),
                           "--out", str(tmp_path / "m.ckpt"))
    assert code == 2
    assert "configuration error" in err and "lookback" in err


def test_nan_learning_rate_is_config_error(tone_csv, tmp_path, capsys):
    code, _, err = run_cli(capsys, "train", "--data", str(tone_csv), "--model", "nlinear",
                           "--lookback", "48", "--horizon", "12", "--lr", "nan",
                           "--max-epochs", "1", "--out", str(tmp_path / "m.ckpt"))
    assert code == 2
    assert "lr" in err
    assert not (tmp_path / "m.ckpt").exists()


def test_checkpoint_without_channels_is_data_error(tone_csv, tmp_path, capsys):
    from mppn.checkpoint import save_checkpoint
    from mppn.training import RunConfig, build_forecaster, config_blob
    run = RunConfig(model="nlinear", data=str(tone_csv), lookback=48, horizon=12)
    fc = build_forecaster(run, channels=2, resolved_periods=())
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(ckpt, config_blob(run, {"channel_names": ["v0", "v1"]}),
                    [(n, t.data) for n, t in fc.named_parameters()])
    code, _, err = run_cli(capsys, "eval", "--ckpt", str(ckpt))
    assert code == 3
    assert "channels" in err


def _mppn_checkpoint(tone_csv, path, extras=None, config_text=None, poison=None):
    """A freshly initialised 2-channel MPPN checkpoint.  ``extras`` replaces
    its resolved facts, ``config_text`` its whole config, and ``poison`` is
    written into one mining weight."""
    from mppn.checkpoint import save_checkpoint
    from mppn.training import RunConfig, build_forecaster, config_blob
    run = RunConfig(model="mppn", data=str(tone_csv), lookback=48, horizon=12, hidden=4,
                    resolutions=(1, 3), periods=(24,))
    fc = build_forecaster(run, channels=2, resolved_periods=(24,))
    tensors = [(n, t.data.copy()) for n, t in fc.named_parameters()]
    if poison is not None:
        dict(tensors)["mine.24.3.weight"][1, 2, 0] = poison
    if extras is None:
        extras = {"channels": 2, "channel_names": ["v0", "v1"], "resolved_periods": [24]}
    save_checkpoint(path, config_blob(run, extras) if config_text is None else config_text,
                    tensors)
    return path


@pytest.mark.parametrize("extras", [
    {"resolved_periods": [24]},  # no channel_names
    {"channel_names": ["v0"], "resolved_periods": [24]},
    {"channel_names": [0, 1], "resolved_periods": [24]},
    {"channel_names": "v0v1", "resolved_periods": [24]},
    {"channel_names": ["v0", "v1"]},  # no resolved_periods
    {"channel_names": ["v0", "v1"], "resolved_periods": "abc"},
    {"channel_names": ["v0", "v1"], "resolved_periods": []},
    {"channel_names": ["v0", "v1"], "resolved_periods": [1]},
    {"channel_names": ["v0", "v1"], "resolved_periods": [24.0]},
], ids=["names-missing", "names-short", "names-not-strings", "names-string", "periods-missing",
        "periods-string", "periods-empty", "periods-below-two", "periods-float"])
@pytest.mark.parametrize("command", ["eval", "forecast", "gates", "kernel"])
def test_malformed_checkpoint_extras_are_data_errors(tone_csv, tmp_path, capsys, extras, command):
    ckpt = _mppn_checkpoint(tone_csv, tmp_path / "m.ckpt", extras={"channels": 2, **extras})
    out_flag = ["--out", str(tmp_path / "out")] if command != "eval" else []
    code, _, err = run_cli(capsys, command, "--ckpt", str(ckpt), *out_flag)
    assert code == 3
    assert "data error: checkpoint" in err


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("command", ["eval", "forecast", "gates", "kernel"])
def test_non_finite_checkpoint_tensor_is_data_error(tone_csv, tmp_path, capsys, value, command):
    ckpt = _mppn_checkpoint(tone_csv, tmp_path / "m.ckpt", poison=value)
    out_path = tmp_path / "out"
    out_flag = ["--out", str(out_path)] if command != "eval" else []
    code, out, err = run_cli(capsys, command, "--ckpt", str(ckpt), *out_flag)
    assert code == 3 and out == "" and not out_path.exists()
    assert err.startswith(f"data error: {ckpt}: tensor 'mine.24.3.weight' holds a non-finite")
    assert "Traceback" not in err


# JSON nested far past the interpreter's recursion limit
DEEP = "[" * 100_000
TOO_DEEP = "maximum recursion depth exceeded while decoding a JSON array"


@pytest.mark.parametrize("config_text,why", [
    ("{not json", "config: Expecting property name"),
    ("model=mppn\nlookback", "config line 2: expected key=value"),
    (f"model=mppn\nnote={DEEP}\n", f"config line 2: {TOO_DEEP}"),
    ("seed=1\nmodel=mppn\nseed=2\n", "config line 3: key 'seed' repeated"),
    ('{"seed": 1, "model": "mppn", "seed": 2}', "config: key 'seed' repeated"),
], ids=["json", "key-value", "key-value-too-deep", "key-value-repeated-key", "json-repeated-key"])
@pytest.mark.parametrize("command", ["eval", "forecast", "gates", "kernel"])
def test_unparseable_checkpoint_config_is_data_error(tone_csv, tmp_path, capsys, config_text,
                                                     why, command):
    ckpt = _mppn_checkpoint(tone_csv, tmp_path / "m.ckpt", config_text=config_text)
    out_flag = ["--out", str(tmp_path / "o")] if command != "eval" else []
    code, out, err = run_cli(capsys, command, "--ckpt", str(ckpt), *out_flag)
    assert code == 3 and out == ""
    assert err.startswith(f"data error: checkpoint: config text does not parse: {why}")
    assert "Traceback" not in err


@pytest.mark.parametrize("text,why", [
    ('{"model": "nlinear", "lookback": ' + DEEP + "}", f"config: {TOO_DEEP}"),
    ('model="nlinear"\nlookback=' + DEEP + "\n", f"config line 2: {TOO_DEEP}"),
    ('{"model": "nlinear", "seed": 1, "seed": 2}', "config: key 'seed' repeated"),
    ('model="nlinear"\nseed=1\nseed=2\n', "config line 3: key 'seed' repeated"),
], ids=["json-too-deep", "key-value-too-deep", "json-repeated-key", "key-value-repeated-key"])
def test_unparseable_config_file_is_config_error(tone_csv, tmp_path, capsys, text, why):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text, encoding="utf-8")
    ckpt = tmp_path / "m.ckpt"
    code, out, err = run_cli(capsys, "train", "--config", str(cfg), "--data", str(tone_csv),
                             "--out", str(ckpt))
    assert code == 2 and out == "" and not ckpt.exists()
    assert err.startswith(f"configuration error: {why}") and "Traceback" not in err


def test_deeply_nested_synth_spec_is_usage_error(tmp_path, capsys):
    spec, out_path = tmp_path / "deep.json", tmp_path / "s.csv"
    spec.write_text(DEEP, encoding="utf-8")
    code, out, err = run_cli(capsys, "synth", "--spec", f"@{spec}", "--out", str(out_path))
    assert code == 2 and out == "" and not out_path.exists()
    assert err.startswith(f"configuration error: synth: --spec does not parse as JSON: {TOO_DEEP}")
    assert "Traceback" not in err


@pytest.mark.parametrize("spec", ['[[{"amplitude": 1, "amplitude": 2, "period": 4}]]',
                                  '[[{"amplitude": 2, "period": 4, "period": 4}]]'])
def test_synth_spec_with_a_repeated_key_is_usage_error(tmp_path, capsys, spec):
    out_path = tmp_path / "s.csv"
    code, out, err = run_cli(capsys, "synth", "--spec", spec, "--timesteps", "8",
                             "--out", str(out_path))
    assert code == 2 and out == "" and not out_path.exists()
    assert err.startswith("configuration error: synth: --spec does not parse as JSON: key ")
    assert "repeated" in err and "Traceback" not in err


@pytest.mark.parametrize("tone", ['{"amplitude": "abc", "period": 4}',
                                  '{"amplitude": 1, "period": "4x"}',
                                  '{"amplitude": 1, "period": 4, "phase": "pi"}',
                                  '{"amplitude": 1%s, "period": 4}' % ("0" * 400)],
                         ids=["amplitude", "period", "phase", "beyond-float"])
def test_synth_tone_that_is_not_a_number_is_usage_error(tmp_path, capsys, tone):
    # each used to reach the CLI as a bare ValueError or OverflowError
    from mppn.errors import ArgumentError
    from mppn.synth import parse_tone_spec
    out_path = tmp_path / "s.csv"
    code, out, err = run_cli(capsys, "synth", "--spec", f"[[{tone}]]", "--timesteps", "8",
                             "--out", str(out_path))
    assert code == 2 and out == "" and not out_path.exists()
    assert err.startswith("configuration error: synth: bad tone entry {") and "Traceback" not in err
    with pytest.raises(ArgumentError, match=r"^synth: bad tone entry \{"):
        parse_tone_spec(json.loads(f"[[{tone}]]"))


@pytest.mark.parametrize("width", ["4", "1", "97"])
def test_dlinear_moving_average_is_checked_before_the_data_is_read(tmp_path, capsys, width):
    code, out, err = run_cli(capsys, "train", "--model", "dlinear", "--lookback", "48",
                             "--moving-average", width, "--data", str(tmp_path / "nope.csv"),
                             "--out", str(tmp_path / "m.ckpt"))
    assert code == 2 and out == "" and not (tmp_path / "m.ckpt").exists()
    assert err == ("configuration error: config: moving_average must be odd and in [3, 95] "
                   f"for dlinear, got {width}\n")


@pytest.mark.parametrize("command", ["eval", "forecast"])
def test_dlinear_checkpoint_with_an_even_moving_average_is_data_error(tone_csv, tmp_path, capsys,
                                                                     command):
    from mppn.checkpoint import save_checkpoint
    from mppn.training import build_forecaster, config_blob
    run = RunConfig(model="dlinear", data=str(tone_csv), lookback=48, horizon=12)
    fc = build_forecaster(run, channels=2, resolved_periods=())
    text = config_blob(run, {"channels": 2, "channel_names": ["v0", "v1"]})
    assert "\nmoving_average=25\n" in text
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(ckpt, text.replace("\nmoving_average=25\n", "\nmoving_average=4\n"),
                    [(n, t.data) for n, t in fc.named_parameters()])
    out_flag = ["--out", str(tmp_path / "o")] if command != "eval" else []
    code, out, err = run_cli(capsys, command, "--ckpt", str(ckpt), *out_flag)
    assert code == 3 and out == ""
    assert err == ("data error: checkpoint: config text does not parse: config: moving_average "
                   "must be odd and in [3, 95] for dlinear, got 4\n")


@pytest.mark.parametrize("scheme", ['"standrd"', '"ETT"', '""', "7"])
def test_unknown_split_scheme_in_a_config_file_is_usage_error(tone_csv, tmp_path, capsys, scheme):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"model=\"nlinear\"\nsplit_scheme={scheme}\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "train", "--config", str(cfg), "--data", str(tone_csv),
                             "--out", str(tmp_path / "m.ckpt"))
    assert code == 2 and out == "" and not (tmp_path / "m.ckpt").exists()
    assert err.startswith("configuration error: config: split_scheme must be one of "
                          "('ett', 'standard'), got ")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["eval", "forecast", "gates", "kernel"])
def test_checkpoint_with_an_unknown_split_scheme_is_data_error(tone_csv, tmp_path, capsys,
                                                               command):
    # one flipped byte of "standard" used to load, then fail as a usage error
    from mppn.training import config_blob
    run = RunConfig(model="mppn", data=str(tone_csv), lookback=48, horizon=12, hidden=4,
                    resolutions=(1, 3), periods=(24,))
    text = config_blob(run, {"channels": 2, "channel_names": ["v0", "v1"],
                             "resolved_periods": [24]})
    assert '\nsplit_scheme="standard"\n' in text
    ckpt = _mppn_checkpoint(tone_csv, tmp_path / "m.ckpt",
                            config_text=text.replace('"standard"', '"standrd"'))
    out_flag = ["--out", str(tmp_path / "o")] if command != "eval" else []
    code, out, err = run_cli(capsys, command, "--ckpt", str(ckpt), *out_flag)
    assert code == 3 and out == ""
    assert err == ("data error: checkpoint: config text does not parse: config: split_scheme "
                   "must be one of ('ett', 'standard'), got 'standrd'\n")


@pytest.mark.parametrize("names", ["a,a", " ,b"], ids=["duplicate", "blank"])
def test_synth_names_follow_the_loader_rule(tmp_path, capsys, names):
    out_path = tmp_path / "s.csv"
    code, out, err = run_cli(capsys, "synth", "--out", str(out_path), "--names", names,
                             "--spec", '[[{"amplitude":1,"period":24}],[{"amplitude":1,"period":12}]]')
    assert code == 2 and out == "" and not out_path.exists()
    assert err.startswith("configuration error: synth: names ") and "Traceback" not in err


@pytest.mark.parametrize("argv,why", [
    (["--trend", "nan"], "trend must be finite"),
    (["--trend", "inf"], "trend must be finite"),
    (["--noise-sd", "nan"], "noise sd must be a finite number"),
    (["--spec", '[[{"amplitude":1,"period":NaN}]]'], "tone values must be finite"),
    (["--spec", '[[{"amplitude":1e308,"period":24}]]', "--trend", "1e308"], "overflows"),
], ids=["trend-nan", "trend-inf", "noise-nan", "period-nan", "overflow"])
def test_synth_rejects_non_finite_values(tmp_path, capsys, recwarn, argv, why):
    out_path = tmp_path / "s.csv"
    code, out, err = run_cli(capsys, "synth", "--out", str(out_path), "--timesteps", "20", *argv)
    assert code == 2 and out == "" and not out_path.exists()
    assert err.startswith("configuration error: synth: ") and why in err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_synth_rejects_a_series_beyond_the_value_bound(tmp_path, capsys):
    out_path = tmp_path / "s.csv"
    code, out, err = run_cli(capsys, "synth", "--out", str(out_path), "--timesteps", "100000000000")
    assert code == 2 and out == "" and not out_path.exists()
    assert err == ("configuration error: synth: 100000000000 timesteps x 1 channels exceeds "
                   "100000000 values\n")


@pytest.mark.parametrize("argv,why", [
    (["--periods", "0"], "periods must be >= 2"),
    (["--periods", "24,1"], "periods must be >= 2"),
    (["--periods", "24,481"], "period 481 is longer than the series (480 rows)"),
    (["--periods", "10000"], "period 10000 is longer than the series (480 rows)"),
], ids=["period-0", "period-1", "period-481", "period-10000"])
def test_analyze_rejects_empty_q_and_short_periods(tone_csv, capsys, argv, why):
    code, out, err = run_cli(capsys, "analyze", "--data", str(tone_csv), *argv)
    assert code == 2 and out == ""
    assert err.startswith("configuration error: analyze: ") and why in err


def test_analyze_accepts_a_period_as_long_as_the_series(tone_csv, capsys):
    code, out, _ = run_cli(capsys, "analyze", "--data", str(tone_csv), "--periods", "480")
    assert code == 0
    assert json.loads(out)["periods"] == {
        "source": "override", "k": 1,
        "items": [{"period": 480, "frequency": None, "amplitude": None}]}


def test_analyze_library_call_rejects_empty_q(tone_csv):
    from mppn.errors import ConfigError
    from mppn.training import analyze
    with pytest.raises(ConfigError, match="at least one bin count"):
        analyze(tone_csv, [], "equal-frequency", 2, None, "standard")


@pytest.mark.parametrize("command,flag", [("analyze", "--q"), ("analyze", "--periods"),
                                          ("train", "--periods"), ("train", "--resolutions")],
                         ids=["analyze-q", "analyze-periods", "train-periods",
                              "train-resolutions"])
@pytest.mark.parametrize("text", [",", " , ,"], ids=["comma", "blanks"])
def test_empty_int_list_flag_is_usage_error(tone_csv, tmp_path, capsys, command, flag, text):
    ckpt = tmp_path / "m.ckpt"
    extra = ["--out", str(ckpt), "--max-epochs", "1"] if command == "train" else []
    with pytest.raises(SystemExit) as exc:
        main([command, "--data", str(tone_csv), *extra, flag, text])
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == "" and not ckpt.exists()
    assert out.err.startswith("usage: mppn " + command)
    assert f"argument {flag}: expected comma-separated integers, got {text!r}" in out.err
    assert "Traceback" not in out.err


def test_empty_periods_in_config_file_is_config_error(tone_csv, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text('model="mppn"\nlookback=48\nhorizon=12\nperiods=[]\n', encoding="utf-8")
    ckpt = tmp_path / "m.ckpt"
    code, out, err = run_cli(capsys, "train", "--config", str(cfg), "--data", str(tone_csv),
                             "--out", str(ckpt))
    assert code == 2 and out == "" and not ckpt.exists()
    assert err.startswith("configuration error: ") and "periods must name at least one" in err


def test_checkpoint_config_with_empty_periods_still_loads(tone_csv, tmp_path, capsys):
    # a checkpoint's config text goes through from_text, which keeps
    # accepting an empty override list; the periods it runs are the extras'
    from mppn.training import config_blob
    extras = {"channels": 2, "channel_names": ["v0", "v1"], "resolved_periods": [24]}
    reports = []
    for periods in ((24,), ()):
        run = RunConfig(model="mppn", data=str(tone_csv), lookback=48, horizon=12, hidden=4,
                        resolutions=(1, 3), periods=periods)
        ckpt = _mppn_checkpoint(tone_csv, tmp_path / f"m{len(periods)}.ckpt",
                                config_text=config_blob(run, extras))
        code, out, _ = run_cli(capsys, "eval", "--ckpt", str(ckpt))
        assert code == 0
        reports.append(out)
    assert reports[0] == reports[1]


def test_analyze_top_k_beyond_the_spectrum_reports_what_it_found(tone_csv, capsys):
    code, out, _ = run_cli(capsys, "analyze", "--data", str(tone_csv), "--top-k", "1000")
    assert code == 0
    periods = json.loads(out)["periods"]
    assert periods["source"] == "fft"
    assert 1 <= len(periods["items"]) < 1000
    assert periods["k"] == len(periods["items"])


def test_quoted_variate_name_survives_forecast_and_gates(tmp_path, capsys):
    from mppn import synth
    from mppn.data import load_csv
    data = tmp_path / "quoted.csv"
    synth.write_csv(data, synth.generate([[synth.ToneSpec(1.0, 24.0)]] * 2, 0.0, 0.1, 480, 3),
                    ["a,b", "c"])
    assert data.read_text(encoding="utf-8").startswith('date,"a,b",c\n')
    ckpt = tmp_path / "m.ckpt"
    code, _, _ = run_cli(capsys, "train", "--data", str(data), "--out", str(ckpt),
                         "--model", "mppn", "--lookback", "48", "--horizon", "12", "--hidden", "4",
                         "--resolutions", "1,3", "--periods", "24", "--max-epochs", "1")
    assert code == 0
    pred, gates = tmp_path / "pred.csv", tmp_path / "gates.csv"
    assert run_cli(capsys, "forecast", "--ckpt", str(ckpt), "--out", str(pred))[0] == 0
    assert run_cli(capsys, "gates", "--ckpt", str(ckpt), "--out", str(gates))[0] == 0

    with open(pred, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["step", "a,b", "c"] and all(len(r) == 3 for r in rows)
    loaded = load_csv(pred)
    assert loaded.names == ["a,b", "c"] and loaded.values.shape == (12, 2)

    with open(gates, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert [r[0] for r in rows[1:]] == ["a,b", "c"]
    assert len({len(r) for r in rows}) == 1
    loaded = load_csv(gates)
    assert loaded.timestamps == ["a,b", "c"] and loaded.values.shape == (2, len(rows[0]) - 1)


@pytest.mark.parametrize("batch_size", ["0", "-1"])
def test_eval_batch_size_below_one_is_config_error(tone_csv, tmp_path, capsys, batch_size):
    ckpt = tmp_path / "lin.ckpt"
    code, _, _ = run_cli(capsys, "train", "--data", str(tone_csv), "--model", "nlinear",
                         "--lookback", "48", "--horizon", "12", "--max-epochs", "1",
                         "--out", str(ckpt))
    assert code == 0
    code, out, err = run_cli(capsys, "eval", "--ckpt", str(ckpt), "--batch-size", batch_size)
    assert code == 2 and out == ""
    assert "configuration error" in err and "batch_size" in err


def test_kernel_export_matches_standardized_forecast(tone_csv, tmp_path, capsys):
    from mppn.data import Standardizer, chronological_split, load_csv
    ckpt = tmp_path / "model.ckpt"
    code, _, _ = run_cli(capsys, "train", "--data", str(tone_csv), "--out", str(ckpt),
                         "--model", "mppn", "--lookback", "48", "--horizon", "12",
                         "--hidden", "6", "--resolutions", "1,3", "--top-k", "1",
                         "--max-epochs", "1", "--seed", "5")
    assert code == 0
    kernel = tmp_path / "kernel.npz"
    code, out, _ = run_cli(capsys, "kernel", "--ckpt", str(ckpt), "--out", str(kernel))
    assert code == 0
    assert json.loads(out) == {"out": str(kernel), "channels": 2, "lookback": 48, "horizon": 12}
    with np.load(kernel) as archive:
        a, b, names = archive["A"], archive["b"], list(archive["channel_names"])
    assert a.shape == (2, 48, 12) and b.shape == (2, 12) and names == ["v0", "v1"]

    origin = 400
    pred = tmp_path / "pred.csv"
    code, _, _ = run_cli(capsys, "forecast", "--ckpt", str(ckpt), "--origin", str(origin),
                         "--standardized", "--out", str(pred))
    assert code == 0
    forecast = np.loadtxt(pred, delimiter=",", skiprows=1)[:, 1:]  # [H, C]
    ds = chronological_split(load_csv(tone_csv), "standard")
    values = Standardizer.fit(ds.values[:ds.train_end]).apply(ds.values)
    window = values[origin - 48:origin]  # [L, C]
    via_kernel = np.einsum("lc,clh->hc", window, a) + b.T
    assert np.max(np.abs(via_kernel - forecast)) <= 1e-12 * max(1.0, np.max(np.abs(forecast)))


def test_lookback_too_long_is_config_error(tone_csv, capsys, tmp_path):
    code, _, _ = run_cli(capsys, "train", "--data", str(tone_csv), "--lookback", "900",
                         "--horizon", "12", "--out", str(tmp_path / "m.ckpt"))
    assert code == 2


def test_divergence_exit_code(tone_csv, tmp_path, capsys):
    with np.errstate(over="ignore", invalid="ignore"):
        code, _, err = run_cli(capsys, "train", "--data", str(tone_csv), "--model", "nlinear",
                               "--lookback", "48", "--horizon", "12", "--lr", "1e200",
                               "--max-epochs", "2", "--out", str(tmp_path / "m.ckpt"))
    assert code == 4
    assert "runtime error" in err


def test_analyze_constant_dataset_fully_predictable(tmp_path, capsys):
    from mppn.synth import write_csv
    path = tmp_path / "flat.csv"
    write_csv(path, np.full((120, 2), 3.0))
    code, out, _ = run_cli(capsys, "analyze", "--data", str(path), "--periods", "24")
    assert code == 0
    doc = json.loads(out)
    assert doc["predictability"]["mean_pi_max"] == 1.0


@pytest.mark.parametrize("rows,needs", [
    (1, "predictability needs at least 2"),
    (3, "training split of at least 4 rows"),
    (4, "training split of at least 4 rows"),
])
def test_analyze_too_short_series_is_data_error(tmp_path, capsys, rows, needs):
    from mppn.synth import write_csv
    path = tmp_path / "short.csv"
    write_csv(path, np.arange(2.0 * rows).reshape(rows, 2))
    code, out, err = run_cli(capsys, "analyze", "--data", str(path))
    assert code == 3
    assert out == ""
    assert err.startswith(f"data error: analyze: the series has {rows} row")
    assert needs in err
    assert "Traceback" not in err
    if rows > 1:
        assert "--periods" in err


def test_analyze_short_series_with_period_override_reaches_predictability(tmp_path, capsys):
    from mppn.synth import write_csv
    path = tmp_path / "short.csv"
    write_csv(path, np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 2.0]]))
    code, out, err = run_cli(capsys, "analyze", "--data", str(path), "--periods", "2")
    assert code == 0, err
    doc = json.loads(out)
    assert doc["periods"]["source"] == "override"
    assert [v["N"] for v in doc["predictability"]["variates"]] == [2, 3]


def test_console_entry_point():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import mppn
    # the child imports mppn from wherever this process did, even when only
    # pytest's own pythonpath setting put it on sys.path
    src = str(Path(mppn.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    proc = subprocess.run([sys.executable, "-m", "mppn.cli", "--help"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    for name in ("analyze", "train", "eval", "forecast", "synth", "gates", "kernel"):
        assert name in proc.stdout


MALFORMED_CSVS = {
    "bad-bytes": b"date,a,b\n2020,1,2\n2021,\xff,3\n",
    "ragged": b"date,a,b\n2020,1,2\n2021,3\n",
    "duplicate-name": b"date,a,a\n2020,1,2\n2021,3,4\n",
    "blank-name": b"date,a, \n2020,1,2\n2021,3,4\n",
    "nan": b"date,a,b\n2020,1,2\n2021,nan,4\n",
    "inf": b"date,a,b\n2020,1,2\n2021,3,-inf\n",
    "overflow": b"date,a,b\n2020,1,2\n2021,3,1e400\n",
    "huge-field": b"date,a,b\n2020,1,2\n2021,3," + b"9" * 200_000 + b"\n",
}


@pytest.fixture(scope="module")
def linear_ckpt(tmp_path_factory):
    """A 2-channel NLinear checkpoint trained on a small clean CSV."""
    from mppn import synth, training
    root = tmp_path_factory.mktemp("clean")
    csv_path = root / "clean.csv"
    synth.write_csv(csv_path, synth.generate([[synth.ToneSpec(1.0, 24.0)]] * 2, 0.0, 0.1, 240, 3),
                    ["a", "b"])
    ckpt = root / "lin.ckpt"
    training.train(training.RunConfig(model="nlinear", data=str(csv_path), lookback=24,
                                      horizon=6, max_epochs=1), ckpt)
    return ckpt


@pytest.mark.parametrize("case", sorted(MALFORMED_CSVS))
@pytest.mark.parametrize("command", ["analyze", "train", "eval", "forecast"])
def test_malformed_csv_is_data_error_for_every_command(linear_ckpt, tmp_path, capsys, case,
                                                       command):
    bad = tmp_path / f"{case}.csv"
    bad.write_bytes(MALFORMED_CSVS[case])
    argv = [command, "--data", str(bad)]
    if command in ("train", "forecast"):
        argv += ["--out", str(tmp_path / "out")]
    if command in ("eval", "forecast"):
        argv += ["--ckpt", str(linear_ckpt)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 3 and out == ""
    assert err.startswith(f"data error: {bad}: ") and "Traceback" not in err


@pytest.mark.parametrize("dims", [(0, 2 ** 63), (0, 2 ** 40, 2 ** 40)],
                         ids=["dim-past-intp", "bytes-past-intp"])
def test_empty_checkpoint_tensor_with_huge_dims_is_data_error(linear_ckpt, tmp_path, capsys, dims):
    import struct

    from mppn.checkpoint import load_checkpoint
    config, _ = load_checkpoint(linear_ckpt)
    head = (b"MPPN" + struct.pack("<IQ", 1, len(config.encode())) + config.encode()
            + struct.pack("<II", 1, 6) + b"weight" + struct.pack("<I", len(dims)))
    ckpt = tmp_path / "huge.ckpt"
    ckpt.write_bytes(head + struct.pack(f"<{len(dims)}Q", *dims))
    code, out, err = run_cli(capsys, "eval", "--ckpt", str(ckpt))
    assert (code, out) == (3, "")
    assert err == (f"data error: {ckpt}: tensor 'weight' has implausible dims {dims} "
                   f"at byte {len(head)}\n")


def test_checkpoint_naming_a_tensor_twice_is_data_error(linear_ckpt, tmp_path, capsys):
    from mppn.checkpoint import load_checkpoint, save_checkpoint
    config, tensors = load_checkpoint(linear_ckpt)
    ckpt = tmp_path / "twice.ckpt"
    save_checkpoint(ckpt, config, [("weight", tensors["weight"]), ("weight", tensors["weight"]),
                                   ("bias", tensors["bias"])])
    code, out, err = run_cli(capsys, "eval", "--ckpt", str(ckpt))
    assert (code, out) == (3, "")
    assert err.startswith(f"data error: {ckpt}: tensor 'weight' repeated at byte ")


@pytest.mark.parametrize("form", ["plain", "crlf", "quoted"])
def test_eval_reads_checkpoint_and_csv_from_pipes(linear_ckpt, tmp_path, capsys, form):
    text = (linear_ckpt.parent / "clean.csv").read_text(encoding="utf-8")
    twins = dict(zip(("crlf", "quoted"), crlf_and_quoted(text)))
    data = tmp_path / f"{form}.csv"
    data.write_text(twins.get(form, text), encoding="utf-8", newline="")
    want = run_cli(capsys, "eval", "--ckpt", str(linear_ckpt), "--data", str(data))
    assert want[0] == 0 and want[2] == ""
    with piped(linear_ckpt.read_bytes()) as ckpt_fd, piped(data.read_bytes()) as data_fd:
        assert run_cli(capsys, "eval", "--ckpt", ckpt_fd, "--data", data_fd) == want


@pytest.mark.parametrize("command", ["analyze", "train"])
def test_column_without_values_is_data_error_when_filling(tmp_path, capsys, command):
    bad = tmp_path / "dead.csv"
    bad.write_text("date,a,b\n2020,1,nan\n2021,2,\n", encoding="utf-8")
    out_flag = ["--out", str(tmp_path / "out")] if command == "train" else []
    code, out, err = run_cli(capsys, command, "--data", str(bad), "--fill-missing", *out_flag)
    assert code == 3 and out == ""
    assert "column 'b' has no usable values" in err


# ---------------------------------------------------------------------------
# every flag a subcommand declares is read by its handler


class _ReadRecorder(argparse.Namespace):
    """A namespace that notes the name of every attribute read from it."""

    def __init__(self):
        super().__init__()
        self.__dict__["_reads"] = set()

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_reads").add(name)
        return object.__getattribute__(self, name)


def _subparser(command):
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices[command]


def _full_argv(command, tone_csv, tmp_path):
    """An argv for ``command`` that sets every flag it declares."""
    from mppn import training
    dateless = tmp_path / "dateless.csv"  # headerless values, for --no-date-column
    dateless.write_text("".join(line.split(",", 1)[1] for line in
                                tone_csv.read_text(encoding="utf-8").splitlines(True)[1:]),
                        encoding="utf-8")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("patience=2\n", encoding="utf-8")
    nlinear = tmp_path / "nlinear.ckpt"
    training.train(training.RunConfig(model="nlinear", data=str(tone_csv), lookback=48,
                                      horizon=12, max_epochs=1), nlinear)
    mppn = _mppn_checkpoint(tone_csv, tmp_path / "mppn.ckpt")
    return {
        "analyze": ["--data", str(dateless), "--q", "5,10", "--binning", "equal-width",
                    "--top-k", "1", "--periods", "24", "--split-scheme", "ett",
                    "--no-date-column", "--fill-missing"],
        "train": ["--config", str(cfg), "--data", str(dateless), "--seed", "3",
                  "--out", str(tmp_path / "m.ckpt"), "--model", "mppn", "--split-scheme", "ett",
                  "--lookback", "48", "--horizon", "12", "--hidden", "4", "--resolutions", "1,3",
                  "--periods", "24", "--top-k", "1", "--overlap", "--moving-average", "5",
                  "--lr", "0.001", "--weight-decay", "0", "--max-epochs", "1", "--patience", "1",
                  "--batch-size", "16", "--no-date-column", "--fill-missing"],
        "eval": ["--data", str(tone_csv), "--ckpt", str(nlinear), "--split", "val",
                 "--batch-size", "8"],
        "forecast": ["--data", str(tone_csv), "--out", str(tmp_path / "pred.csv"),
                     "--ckpt", str(nlinear), "--origin", "400", "--standardized"],
        "synth": ["--seed", "1", "--out", str(tmp_path / "s.csv"), "--spec",
                  '[[{"amplitude":1,"period":12}]]', "--trend", "0.01", "--noise-sd", "0.1",
                  "--timesteps", "50", "--names", "a"],
        "gates": ["--out", str(tmp_path / "gates.csv"), "--ckpt", str(mppn)],
        "kernel": ["--out", str(tmp_path / "kernel.npz"), "--ckpt", str(nlinear)],
    }[command]


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_handler_reads_every_flag_its_subcommand_declares(tone_csv, tmp_path, capsys, command):
    declared = [a for a in _subparser(command)._actions if a.dest != "help"]
    argv = _full_argv(command, tone_csv, tmp_path)
    assert all(set(a.option_strings) & set(argv) for a in declared)
    args = cli.build_parser().parse_args([command, *argv], namespace=_ReadRecorder())
    args.__dict__["_reads"].clear()  # parsing itself reads attributes
    assert cli._COMMANDS[command](args) == 0
    assert {a.dest for a in declared} <= args.__dict__["_reads"]


def test_every_run_config_field_has_exactly_one_train_flag():
    dests = [a.dest for a in _subparser("train")._actions]
    fields = [f.name for f in dataclasses.fields(RunConfig)]
    assert all(dests.count(name) == 1 for name in fields)
    assert set(dests) - set(fields) == {"help", "config", "out"}


REMOVED_FLAGS = [("analyze", "--seed"), ("analyze", "--config"), ("analyze", "--out"),
                 ("eval", "--seed"), ("eval", "--config"), ("eval", "--out"),
                 ("forecast", "--seed"), ("forecast", "--config"),
                 ("synth", "--data"), ("synth", "--config"),
                 ("gates", "--seed"), ("gates", "--data"), ("gates", "--config"),
                 ("kernel", "--seed"), ("kernel", "--data"), ("kernel", "--config")]


@pytest.mark.parametrize("command,flag", REMOVED_FLAGS)
def test_flag_a_subcommand_does_not_read_is_rejected(linear_ckpt, tmp_path, monkeypatch, capsys,
                                                     command, flag):
    monkeypatch.chdir(tmp_path)  # a default output path would land here
    csv_path = str(linear_ckpt.parent / "clean.csv")
    base = {"analyze": ["--data", csv_path], "eval": ["--ckpt", str(linear_ckpt)],
            "forecast": ["--ckpt", str(linear_ckpt)], "synth": ["--timesteps", "20"],
            "gates": ["--ckpt", str(linear_ckpt)], "kernel": ["--ckpt", str(linear_ckpt)]}
    value = {"--seed": "1", "--data": csv_path, "--config": str(tmp_path / "run.cfg"),
             "--out": str(tmp_path / "out")}[flag]
    with pytest.raises(SystemExit) as exc:
        main([command, *base[command], flag, value])
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == ""
    assert f"unrecognized arguments: {flag} " in out.err and "Traceback" not in out.err
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# the retired run-config keys q and binning


def test_checkpoint_with_retired_q_and_binning_lines_gives_identical_outputs(tone_csv, tmp_path,
                                                                             capsys):
    from mppn.training import config_blob
    run = RunConfig(model="mppn", data=str(tone_csv), lookback=48, horizon=12, hidden=4,
                    resolutions=(1, 3), periods=(24,))
    blob = config_blob(run, {"channels": 2, "channel_names": ["v0", "v1"],
                             "resolved_periods": [24]})
    assert "\nseed=0\n" in blob
    # the lines every checkpoint carried while RunConfig had these fields
    with_retired = blob.replace("\nseed=0\n", '\nseed=0\nq=10\nbinning="equal-frequency"\n')
    outputs = []
    for name, text in (("plain", blob), ("retired", with_retired)):
        ckpt = _mppn_checkpoint(tone_csv, tmp_path / f"{name}.ckpt", config_text=text)
        code, metrics, _ = run_cli(capsys, "eval", "--ckpt", str(ckpt))
        assert code == 0
        files = {}
        for command, suffix in (("forecast", "csv"), ("gates", "csv"), ("kernel", "npz")):
            files[command] = tmp_path / f"{name}.{command}.{suffix}"
            code, _, _ = run_cli(capsys, command, "--ckpt", str(ckpt), "--out", str(files[command]))
            assert code == 0
        with np.load(files["kernel"]) as archive:
            kernel = {key: archive[key] for key in archive.files}
        outputs.append((metrics, files["forecast"].read_bytes(), files["gates"].read_bytes(),
                        kernel))
    (metrics_a, forecast_a, gates_a, kernel_a), (metrics_b, forecast_b, gates_b, kernel_b) = outputs
    assert metrics_a == metrics_b and forecast_a == forecast_b and gates_a == gates_b
    # the archive's zip timestamps follow the clock, so compare what it holds
    assert kernel_a.keys() == kernel_b.keys() == {"A", "b", "channel_names"}
    for key in kernel_a:
        assert kernel_a[key].dtype == kernel_b[key].dtype
        assert kernel_a[key].tobytes() == kernel_b[key].tobytes()


@pytest.mark.parametrize("line,key", [("q=10", "q"), ('binning="equal-frequency"', "binning")],
                         ids=["q", "binning"])
def test_retired_key_in_config_file_is_config_error(tone_csv, tmp_path, capsys, line, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f'model="nlinear"\nlookback=48\nhorizon=12\n{line}\n', encoding="utf-8")
    ckpt = tmp_path / "m.ckpt"
    code, out, err = run_cli(capsys, "train", "--config", str(cfg), "--data", str(tone_csv),
                             "--out", str(ckpt))
    assert code == 2 and out == "" and not ckpt.exists()
    assert f"unknown config keys ['{key}']" in err and "Traceback" not in err
