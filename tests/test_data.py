"""CSV ingestion, splits, standardization, windowing, and metrics."""
import csv
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reference_load_csv
from mppn import synth
from mppn.data import (ForecastMetrics, MetricsAccumulator, SeriesDataset, Standardizer,
                       chronological_split, gather_windows, iter_batches, load_csv,
                       window_origins)
from mppn.errors import ArgumentError, ConfigError, DataError, ShapeError
from mppn.rng import _GAMMA, _MASK, SplitMix64


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# loading

def test_load_csv_basic(tmp_path):
    path = write(tmp_path, "date,a,b\n2020-01-01,1,2\n2020-01-02,3,4\n2020-01-03,5,6\n")
    ds = load_csv(path)
    assert ds.values.shape == (3, 2)
    assert ds.names == ["a", "b"]
    assert ds.timestamps[0] == "2020-01-01"


def test_load_csv_strict_names_the_offending_cell(tmp_path):
    path = write(tmp_path, "date,a,b\n2020-01-01,1,2\n2020-01-02,,4\n")
    with pytest.raises(DataError) as err:
        load_csv(path, strict=True)
    assert "row 2" in str(err.value) and "'a'" in str(err.value)


def test_load_csv_forward_fills_when_lenient(tmp_path):
    path = write(tmp_path, "date,a\n2020-01-01,\n2020-01-02,7\n2020-01-03,\n2020-01-04,9\n")
    ds = load_csv(path, strict=False)
    np.testing.assert_array_equal(ds.values[:, 0], [7.0, 7.0, 7.0, 9.0])


def test_load_csv_empty_file(tmp_path):
    with pytest.raises(DataError):
        load_csv(write(tmp_path, ""))


def test_load_csv_headerless_matrix(tmp_path):
    path = write(tmp_path, "1,2\n3,4\n5,6\n")
    ds = load_csv(path, date_column=False)
    assert ds.values.shape == (3, 2)
    assert ds.names == ["v0", "v1"]
    assert ds.timestamps is None


def test_load_csv_bad_cell_above_a_ragged_row_wins_in_strict_mode(tmp_path):
    path = write(tmp_path, "date,a,b\n1,2,3\n2,x,4\n3,5\n")
    with pytest.raises(DataError, match=r"row 2, column 'a': unparseable cell 'x'"):
        load_csv(path)
    with pytest.raises(DataError, match="row 3 has 1 cells, expected 2"):
        load_csv(path, strict=False)


def test_load_csv_accepts_python_float_syntax(tmp_path):
    path = write(tmp_path, 'date,a\n1, 7 \n2,1_000\n3,"\n-.5e1\t"\n4,١٢\n')
    np.testing.assert_array_equal(load_csv(path).values[:, 0], [7.0, 1000.0, -5.0, 12.0])


@pytest.mark.parametrize("text", ["nan", "inf", "-Infinity", "1e400", "", "0x10"])
def test_load_csv_non_finite_or_unparseable_cell_is_rejected(tmp_path, text):
    path = write(tmp_path, f"date,a\n1,1\n2,{text}\n")
    with pytest.raises(DataError, match=f"row 2, column 'a': unparseable cell '{text}'"):
        load_csv(path)
    np.testing.assert_array_equal(load_csv(path, strict=False).values[:, 0], [1.0, 1.0])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text, strict, message", [
    ("date,a\n1,2,3\n2,4,5\n", True, "row 1 has 2 cells, expected 1"),
    ("date,a\n1,\n2,\n", True, "row 1, column 'a': unparseable cell ''"),
    ("date,a\n1,\n2,\n", False, "column 'a' has no usable values"),
    ("date,a\n1\n", True, "row 1 has 0 cells, expected 1"),
])
def test_load_csv_rows_all_of_one_wrong_width_or_empty_are_data_errors(tmp_path, text, strict,
                                                                        message):
    with pytest.raises(DataError, match=message):
        load_csv(write(tmp_path, text), strict=strict)


def test_load_csv_invalid_utf8_names_the_file(tmp_path):
    path = tmp_path / "bytes.csv"
    path.write_bytes(b"date,a\n2020,1\n2021,\xff\n")
    with pytest.raises(DataError, match=r"bytes\.csv: not valid UTF-8: bytes b'\\xff'"):
        load_csv(path)


def test_load_csv_reader_error_names_file_and_line(tmp_path):
    for row in ("2021," + "9" * 200_000, "2" * 200_000 + ",1"):
        path = write(tmp_path, "date,a\n2020,1\n" + row + "\n")
        with pytest.raises(DataError, match=r"data\.csv: line 3: field larger than field limit"):
            load_csv(path)


@pytest.mark.parametrize("header, message", [
    ("date,a,a", "names variate 'a' in columns 2 and 3"),
    ("date,a, b ,b", "names variate 'b' in columns 3 and 4"),
    ("date,a,", "header column 3 has a blank variate name"),
    ("date, ,a", "header column 2 has a blank variate name"),
])
def test_load_csv_rejects_duplicate_or_blank_names(tmp_path, header, message):
    width = header.count(",")
    path = write(tmp_path, header + "\n2020" + ",1" * width + "\n")
    with pytest.raises(DataError, match=message):
        load_csv(path)


FINITE_TEXTS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["1_000", "+.5", "1.", "-0", "1e-400", "\n4\n", "١٢", "\xa07", "１２"]),
)
CELL_TEXTS = st.one_of(
    FINITE_TEXTS,
    st.sampled_from(["", "nan", "-NaN", "inf", "-Infinity", "1e400", "-1e400", "abc", "_1",
                     "0x10", "1,5", '3"', "1e", "--1", "\x1c7", "7\x1f", "\x007", "#1", "1#"]),
)
BAD_TEXTS = st.sampled_from(["", "nan", "inf", "1e400", "x"])
VARIATE_NAMES = ["a", "b", " c ", "OT", "x y", "p,q", 'say "hi"', "été"]


def _csv_field(text, quote):
    if quote or any(ch in text for ch in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


@st.composite
def csv_documents(draw):
    """(text, date_column): random widths, padded and quoted cells,
    blank lines, ragged rows and, unless every cell is finite text, maybe
    a column with no usable value."""
    date_column = draw(st.booleans())
    width = draw(st.integers(1, 4))
    clean = draw(st.booleans())
    dead = None if clean else draw(st.none() | st.integers(0, width - 1))
    pad = st.sampled_from(["", "", " ", "\t", "  "])
    cell = st.builds(lambda a, t, b: a + t + b, pad, FINITE_TEXTS if clean else CELL_TEXTS, pad)
    rows = []
    if date_column:
        names = draw(st.lists(st.sampled_from(VARIATE_NAMES), min_size=width, max_size=width,
                              unique_by=str.strip))
        rows.append(["date"] + names)
    for i in range(draw(st.integers(0, 8))):
        n = draw(st.integers(0, width + 1)) if draw(st.integers(0, 11)) == 0 else width
        row = [draw(BAD_TEXTS if j == dead else cell) for j in range(n)]
        rows.append([f"2020-01-{i + 1:02d}"] + row if date_column else row)
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    lines = []
    for row in rows:
        lines.extend([""] * draw(st.integers(0, 1)))
        lines.append(",".join(_csv_field(c, draw(st.integers(0, 4)) == 0) for c in row))
    return eol.join(lines) + draw(st.sampled_from(["", eol])), date_column


def _load_outcome(loader, path, strict, date_column):
    try:
        ds = loader(path, strict=strict, date_column=date_column)
    except DataError as exc:
        return "error", str(exc)
    return "ok", ds.values.shape, ds.values.tobytes(), ds.names, ds.timestamps


@pytest.mark.filterwarnings("error")
@given(csv_documents())
@settings(max_examples=300, deadline=None)
def test_load_csv_matches_cell_by_cell_reference(tmp_path_factory, document):
    text, date_column = document
    path = tmp_path_factory.mktemp("csv") / "doc.csv"
    path.write_text(text, encoding="utf-8", newline="")
    for strict in (True, False):
        assert (_load_outcome(load_csv, path, strict, date_column)
                == _load_outcome(reference_load_csv, path, strict, date_column))


@pytest.mark.filterwarnings("error")
def test_load_csv_matches_reference_around_every_edge_character(tmp_path):
    # every white space, control and non-ASCII digit character (862 under
    # Unicode 14): where numpy's float parser and ``float`` could disagree
    edge = [chr(c) for c in range(sys.maxunicode + 1)
            if chr(c).isspace() or c < 0x20 or 0x7F <= c <= 0xA0
            or (c >= 0x80 and chr(c).isdigit())]
    path = tmp_path / "edge.csv"
    for ch in edge:
        for cell in (ch + "7", "7" + ch):
            for date_column, text in ((True, f"date,a\n1,1\n2,{cell}\n"), (False, f"1\n{cell}\n")):
                path.write_text(text, encoding="utf-8", newline="")
                for strict in (True, False):
                    assert (_load_outcome(load_csv, path, strict, date_column)
                            == _load_outcome(reference_load_csv, path, strict, date_column)), \
                        (hex(ord(ch)), cell, date_column, strict)


def test_load_csv_reads_plain_files_without_csv_reader_and_others_with_it(tmp_path, monkeypatch):
    plain = tmp_path / "plain.csv"
    synth.write_csv(plain, SplitMix64(7).normal((40, 3)), ["a", "b", "c"])
    text = plain.read_text(encoding="utf-8")
    expected = _load_outcome(reference_load_csv, plain, True, True)
    crlf = write(tmp_path, text.replace("\n", "\r\n"), "crlf.csv")
    header, first, rest = text.split("\n", 2)
    stamp, _, cells = first.partition(",")
    quoted = write(tmp_path, f'{header}\n"{stamp}",{cells}\n{rest}', "quoted.csv")

    real_reader = csv.reader

    def refuse(*args, **kwargs):
        raise AssertionError("csv.reader called on a plain file")

    monkeypatch.setattr(csv, "reader", refuse)
    assert _load_outcome(load_csv, plain, True, True) == expected

    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real_reader(*args, **kwargs)

    monkeypatch.setattr(csv, "reader", counted)
    for twin in (crlf, quoted):
        calls.clear()
        assert _load_outcome(load_csv, twin, True, True) == expected
        assert len(calls) == 1


def test_load_etth1_shape_when_available():
    from conftest import dataset_path
    path = dataset_path("ETTh1")
    if path is None:
        pytest.skip("ETTh1.csv not available")
    ds = load_csv(path)
    assert ds.values.shape == (17420, 7)


# ---------------------------------------------------------------------------
# splits

def test_split_ratios():
    ds = SeriesDataset(["a"], np.zeros((100, 1)))
    standard = chronological_split(ds, "standard")
    assert (standard.train_end, standard.val_end) == (70, 80)
    ett = chronological_split(ds, "ett")
    assert (ett.train_end, ett.val_end) == (60, 80)
    with pytest.raises(ArgumentError):
        chronological_split(ds, "fifty-fifty")


def test_split_boundaries_are_exact_floors():
    # 0.6 * 17420 rounds to 10451.999... in float; the exact floor is 10452
    ds = SeriesDataset(["a"], np.zeros((17420, 1)))
    ett = chronological_split(ds, "ett")
    assert (ett.train_end, ett.val_end) == (10452, 13936)
    for t in (7, 17420, 26304, 52696, 69680, 17544, 7588, 966):
        sub = chronological_split(SeriesDataset(["a"], np.zeros((t, 1))), "ett")
        assert sub.train_end == (t * 6) // 10 and sub.val_end == (t * 8) // 10


@given(st.integers(30, 300), st.integers(1, 12), st.integers(1, 8),
       st.sampled_from(["train", "val", "test"]), st.sampled_from(["ett", "standard"]))
@settings(max_examples=120, deadline=None)
def test_window_targets_stay_inside_their_split(t, lookback, horizon, split, scheme):
    ds = chronological_split(SeriesDataset(["a"], np.zeros((t, 1))), scheme)
    bounds = {"train": (0, ds.train_end), "val": (ds.train_end, ds.val_end),
              "test": (ds.val_end, t)}[split]
    try:
        origins = window_origins(ds, lookback, horizon, split)
    except ConfigError:
        return  # split too small for any window: allowed outcome
    assert np.all(origins >= bounds[0]) and np.all(origins + horizon <= bounds[1])
    assert np.all(origins - lookback >= 0)


def test_window_count_for_interior_split():
    # lookback may reach back across the split boundary, so the count is
    # S - H + 1 as long as the preceding region covers the lookback
    ds = SeriesDataset(["a"], np.zeros((100, 1))).with_boundaries(70, 80)
    origins = window_origins(ds, 24, 4, "val")
    assert len(origins) == 10 - 4 + 1
    origins = window_origins(ds, 24, 4, "test")
    assert len(origins) == 20 - 4 + 1


def test_windows_tiny_example():
    values = np.array([[1.0], [2.0], [3.0], [4.0]])
    ds = SeriesDataset(["a"], values).with_boundaries(4, 4)
    origins = window_origins(ds, 2, 1, "train")
    inputs, targets = gather_windows(values, origins, 2, 1)
    np.testing.assert_array_equal(inputs[:, :, 0], [[1.0, 2.0], [2.0, 3.0]])
    np.testing.assert_array_equal(targets[:, :, 0], [[3.0], [4.0]])


def test_windows_zero_raises():
    ds = SeriesDataset(["a"], np.zeros((30, 1))).with_boundaries(20, 25)
    with pytest.raises(ConfigError):
        window_origins(ds, 10, 8, "val")


def test_shuffle_is_deterministic_per_seed():
    a = SplitMix64(42).permutation(500)
    b = SplitMix64(42).permutation(500)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, SplitMix64(43).permutation(500))
    assert np.array_equal(np.sort(a), np.arange(500))


def _one_shot_raw(state: int, n: int) -> np.ndarray:
    """splitmix64 outputs n at once: state + k*gamma for k = 1..n, mixed."""
    z = np.uint64(state) + np.arange(1, n + 1, dtype=np.uint64) * np.uint64(_GAMMA)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


@pytest.mark.parametrize("n", [0, 1, 65535, 65536, 65537, 3 * 65536 + 7])
def test_raw_draw_in_blocks_matches_one_shot_formula(n):
    for seed in (12345, _MASK - 3):  # the second wraps within the first block
        rng = SplitMix64(seed)
        out = rng._raw(n)
        assert out.dtype == np.uint64 and out.shape == (n,)
        assert out.tobytes() == _one_shot_raw(seed, n).tobytes()
        assert int(rng._state) == (seed + n * _GAMMA) & _MASK


def test_iter_batches_covers_origins_in_order():
    values = np.arange(40.0)[:, None]
    origins = np.arange(10, 30)
    chunks = list(iter_batches(values, origins, 5, 2, batch_size=7))
    assert [len(c[2]) for c in chunks] == [7, 7, 6]
    np.testing.assert_array_equal(np.concatenate([c[2] for c in chunks]), origins)
    inp, tgt, org = chunks[1]
    assert inp.shape == (7, 5, 1) and tgt.shape == (7, 2, 1)
    np.testing.assert_array_equal(inp[0, :, 0], np.arange(12.0, 17.0))


# ---------------------------------------------------------------------------
# standardization

def test_standardizer_train_stats_and_round_trip():
    rng = SplitMix64(9)
    values = rng.normal((200, 3)) * 4.0 + 2.0
    std = Standardizer.fit(values[:140])
    scaled = std.apply(values)
    assert np.max(np.abs(scaled[:140].mean(axis=0))) <= 1e-10
    assert np.max(np.abs(scaled[:140].std(axis=0) - 1.0)) <= 1e-10
    assert np.max(np.abs(std.invert(scaled) - values)) <= 1e-12


def test_standardizer_uses_train_stats_on_later_splits():
    # crafted shift: validation rows live 10 units above the training rows
    train = np.zeros((50, 1))
    train[::2] = 1.0  # mean 0.5, nonzero variance
    val = np.full((20, 1), 10.0)
    values = np.vstack([train, val])
    std = Standardizer.fit(values[:50])
    scaled = std.apply(values)
    expected = (10.0 - 0.5) / values[:50].std(axis=0)[0]
    assert np.max(np.abs(scaled[50:, 0] - expected)) <= 1e-12


def test_standardizer_zero_variance_channel():
    flat = np.ones((30, 1))
    with pytest.raises(DataError):
        Standardizer.fit(flat, strict=True)
    std = Standardizer.fit(flat, strict=False)
    assert std.std[0] == 1e-8


# ---------------------------------------------------------------------------
# metrics

def test_metrics_perfect_and_unit_error():
    acc = MetricsAccumulator()
    acc.add(np.zeros((2, 3, 1)), np.zeros((2, 3, 1)))
    m = acc.finalize()
    assert (m.mse, m.mae, m.windows) == (0.0, 0.0, 2)

    acc = MetricsAccumulator()
    acc.add(np.zeros((4, 2, 1)), np.ones((4, 2, 1)))
    m = acc.finalize()
    assert (m.mse, m.mae) == (1.0, 1.0)


def test_metrics_agree_with_two_pass_oracle():
    rng = SplitMix64(31)
    preds = [rng.normal((3, 5, 2)) for _ in range(4)]
    targets = [rng.normal((3, 5, 2)) for _ in range(4)]
    acc = MetricsAccumulator()
    for p, t in zip(preds, targets):
        acc.add(p, t)
    m = acc.finalize()
    all_p = np.concatenate(preds)
    all_t = np.concatenate(targets)
    assert abs(m.mse - np.mean((all_p - all_t) ** 2)) <= 1e-12
    assert abs(m.mae - np.mean(np.abs(all_p - all_t))) <= 1e-12
    assert m.windows == 12


def test_metrics_permutation_invariant_over_windows():
    rng = SplitMix64(32)
    p = rng.normal((10, 4, 2))
    t = rng.normal((10, 4, 2))
    order = SplitMix64(1).permutation(10)
    acc1, acc2 = MetricsAccumulator(), MetricsAccumulator()
    acc1.add(p, t)
    acc2.add(p[order], t[order])
    assert abs(acc1.finalize().mse - acc2.finalize().mse) <= 1e-15


def test_metrics_misaligned_shapes():
    acc = MetricsAccumulator()
    with pytest.raises(ShapeError):
        acc.add(np.zeros((2, 3, 1)), np.zeros((2, 4, 1)))


@pytest.mark.parametrize("shape", [(6,), (2, 3), (1, 2, 3, 1)], ids=["rank-1", "rank-2", "rank-4"])
def test_metrics_reject_prediction_rank_other_than_three(shape):
    acc = MetricsAccumulator()
    with pytest.raises(ShapeError, match=r"\[B, H, C\]"):
        acc.add(np.zeros(shape), np.zeros(shape))


def test_metrics_json_line_schema():
    m = ForecastMetrics(0.25, 0.4, 12)
    assert m.to_dict("test") == {"split": "test", "mse": 0.25, "mae": 0.4, "windows": 12}
