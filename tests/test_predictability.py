"""Discretizer, entropy-rate estimator, and accuracy-bound tests."""
import itertools
import logging
import math
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import brute_match_lengths, reference_match_lengths
from mppn.data import SeriesDataset
from mppn import pool
from mppn import predictability as P
from mppn.errors import ArgumentError, DataError
from mppn.predictability import (DiscreteSeries, PredictabilityReport, VariatePredictability,
                                 dataset_predictability, discretize, fano_upper_bound,
                                 lz_entropy_rate, lz_entropy_rate_corrected, lz_match_lengths)
from mppn.rng import SplitMix64


# ---------------------------------------------------------------------------
# discretize

def test_discretize_constant_series_single_symbol():
    for mode in ("equal-frequency", "equal-width"):
        d = discretize(np.full(50, 3.7), 10, mode)
        assert np.all(d.symbols == 0)
        assert d.distinct == 1


def test_discretize_median_split():
    d = discretize([1.0, 2.0, 3.0, 4.0], 2, "equal-frequency")
    np.testing.assert_array_equal(d.symbols, [0, 0, 1, 1])


def test_discretize_equal_frequency_balances_bins():
    rng = SplitMix64(99)
    x = rng.uniform01(1000)
    d = discretize(x, 10, "equal-frequency")
    counts = np.bincount(d.symbols, minlength=10)
    assert np.all(np.abs(counts - 100) <= 5)  # within 5% of 100


def test_discretize_equal_width_ranges():
    d = discretize([0.0, 0.25, 0.5, 0.75, 1.0], 4, "equal-width")
    np.testing.assert_array_equal(d.symbols, [0, 1, 2, 3, 3])


def test_discretize_errors():
    with pytest.raises(ArgumentError):
        discretize([1.0, 2.0], 1, "equal-frequency")
    with pytest.raises(ArgumentError):
        discretize([1.0], 4, "equal-frequency")
    with pytest.raises(DataError):
        discretize([1.0, np.nan, 2.0], 4, "equal-frequency")
    with pytest.raises(ArgumentError):
        discretize([1.0, 2.0], 4, "no-such-mode")


@given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=200), st.integers(2, 12))
@settings(max_examples=60, deadline=None)
def test_discretize_monotone_series_gives_monotone_symbols(values, q):
    values = sorted(values)
    d = discretize(np.asarray(values), q, "equal-frequency")
    assert np.all(np.diff(d.symbols) >= 0)


# ---------------------------------------------------------------------------
# match lengths / entropy rate

def test_match_lengths_all_distinct_are_ones():
    lam = lz_match_lengths(np.arange(16))
    np.testing.assert_array_equal(lam, np.ones(16, dtype=np.int64))
    d = DiscreteSeries(np.arange(16), 16)
    assert lz_entropy_rate(d) == pytest.approx(math.log2(16))


def test_match_lengths_alternating_vs_brute():
    s = np.array([0, 1, 0, 1, 0, 1, 0, 1])
    np.testing.assert_array_equal(lz_match_lengths(s), brute_match_lengths(s))
    # entropy from the oracle's lambda sum
    lam_sum = int(brute_match_lengths(s).sum())
    assert lz_entropy_rate(DiscreteSeries(s, 2)) == pytest.approx(8 * math.log2(8) / lam_sum)


def test_match_lengths_exhaustive_short_binary():
    for n in range(2, 9):
        for bits in itertools.product((0, 1), repeat=n):
            s = np.asarray(bits)
            np.testing.assert_array_equal(lz_match_lengths(s), brute_match_lengths(s),
                                          err_msg=f"sequence {bits}")


def _series_kinds():
    constant = st.tuples(st.integers(-3, 3), st.integers(2, 40)).map(
        lambda c: np.full(c[1], c[0]))
    periodic = st.tuples(st.lists(st.integers(0, 3), min_size=1, max_size=6),
                         st.integers(2, 40)).map(lambda c: np.resize(c[0], c[1]))
    pair = st.lists(st.integers(-2, 2), min_size=2, max_size=2).map(np.asarray)
    random = st.lists(st.integers(0, 4), min_size=2, max_size=40).map(np.asarray)
    return st.one_of(constant, periodic, pair, random)


@given(_series_kinds())
@settings(max_examples=600, deadline=None)
def test_match_lengths_match_brute_on_random_sequences(s):
    np.testing.assert_array_equal(lz_match_lengths(s), brute_match_lengths(s))


@pytest.mark.parametrize("n", sorted({2**k + d for k in range(1, 15) for d in (-1, 0, 1)} - {1}))
def test_match_lengths_match_reference_around_powers_of_two(n):
    # n = 2^k +- 1 puts a doubling round and a sparse-table row right at
    # the end of the series
    for s in (SplitMix64(n).integers(3, n), np.zeros(n, dtype=np.int64)):
        np.testing.assert_array_equal(lz_match_lengths(s), reference_match_lengths(s))


@pytest.mark.parametrize("q", [2, 5, 10, 50])
def test_match_lengths_match_reference_at_twenty_thousand(q):
    s = SplitMix64(1000 + q).integers(q, 20000)
    np.testing.assert_array_equal(lz_match_lengths(s), reference_match_lengths(s))


def _tone_symbols(n):
    t = np.arange(n, dtype=np.float64)
    x = np.sin(2 * np.pi * t / 24) + 0.5 * np.sin(2 * np.pi * t / 168)
    return discretize(x, 10).symbols


@pytest.mark.parametrize("symbols", [
    np.zeros(20000, dtype=np.int64),
    np.resize([0, 1], 20000),
    np.resize(SplitMix64(37).integers(4, 37), 20000),
    _tone_symbols(17420),
    np.append(_tone_symbols(5000), 9),
], ids=["period1", "period2", "period37", "tones-24-168", "tones-then-new"])
def test_match_lengths_match_reference_on_tilings(symbols):
    # long repeats reach every doubling round
    np.testing.assert_array_equal(lz_match_lengths(symbols), reference_match_lengths(symbols))


@pytest.mark.parametrize("alphabet", [[-2**40, -5, 0, 7, 10**12], [-3, -2, -1], [0, 100]],
                         ids=["sparse", "negative", "gap"])
def test_match_lengths_ignore_symbol_values(alphabet):
    idx = SplitMix64(5).integers(len(alphabet), 3000)
    s = np.asarray(alphabet, dtype=np.int64)[idx]
    lam = lz_match_lengths(s)
    np.testing.assert_array_equal(lam, reference_match_lengths(s))
    np.testing.assert_array_equal(lam, lz_match_lengths(idx))


def test_match_lengths_reject_two_to_the_31_symbols():
    # a zero-stride view: the guard must fire before anything that size exists
    with pytest.raises(ArgumentError, match="2\\*\\*31"):
        lz_match_lengths(np.broadcast_to(np.int64(0), (2**31,)))


def test_length_bound_of_the_int32_nearest_smaller_bounds():
    # zero-stride views again: _nearest_smaller's int32 bounds reach 3n, so
    # one symbol past 2**31 // 3 must be refused before any pass starts
    n = 2**31 // 3 + 1
    with pytest.raises(ArgumentError, match="2\\*\\*31 // 3"):
        lz_match_lengths(np.broadcast_to(np.int64(0), (n,)))
    with pytest.raises(ArgumentError, match="2\\*\\*31 // 3"):
        discretize(np.broadcast_to(0.0, (n,)), 5)


def test_entropy_rate_iid_uniform_eight_symbols():
    # The estimator approaches log2(8) from below as n grows; at n=20000 the
    # finite-sample value sits near 2.82 bits (the bias decays like 1/log n).
    rng = SplitMix64(1234)
    s = rng.integers(8, 20000)
    d = DiscreteSeries(s, 8)
    assert d.distinct == 8
    s20k = lz_entropy_rate(d)
    assert abs(s20k - 2.82) <= 0.04
    s2k = lz_entropy_rate(DiscreteSeries(SplitMix64(1234).integers(8, 2000), 8))
    s60k = lz_entropy_rate(DiscreteSeries(SplitMix64(1234).integers(8, 60000), 8))
    assert s2k < s20k < s60k < 3.0


def test_entropy_rate_too_short():
    with pytest.raises(ArgumentError):
        lz_entropy_rate(DiscreteSeries(np.array([1]), 2))


def test_corrected_entropy_rate_binary_markov():
    # symmetric binary Markov chain flipping with probability 0.1: its
    # entropy rate is the binary entropy h(0.1) = 0.469 bits
    flips = (SplitMix64(1234).uniform01(20000) < 0.1).astype(np.int64)
    flips[0] = 0
    d = DiscreteSeries(np.cumsum(flips) % 2, 2)
    rate = -0.1 * math.log2(0.1) - 0.9 * math.log2(0.9)
    assert abs(lz_entropy_rate_corrected(d) - rate) <= 0.15


@pytest.mark.parametrize("symbols", [
    np.zeros(500, dtype=np.int64),
    np.tile(np.arange(5), 400),
    np.tile([0, 1, 1, 0, 2, 1], 50),
    np.array([3, 3]),
    np.array([0, 1]),
    np.arange(16),
    np.append(np.arange(15), 0),
], ids=["constant", "period5", "period6", "pair-same", "pair-distinct", "all-distinct",
        "one-repeat"])
def test_corrected_entropy_rate_stays_in_range(symbols):
    q = 16
    value = lz_entropy_rate_corrected(DiscreteSeries(symbols, q))
    assert math.isfinite(value)
    assert 0.0 <= value <= math.log2(q)


def test_corrected_entropy_rate_repeating_series_reads_zero():
    assert lz_entropy_rate_corrected(DiscreteSeries(np.zeros(500, dtype=np.int64), 4)) == 0.0
    assert lz_entropy_rate_corrected(DiscreteSeries(np.tile(np.arange(5), 400), 8)) == 0.0


def test_corrected_entropy_rate_too_short():
    with pytest.raises(ArgumentError):
        lz_entropy_rate_corrected(DiscreteSeries(np.array([1]), 2))


# ---------------------------------------------------------------------------
# accuracy bound

def test_bound_binary_unit_entropy():
    assert fano_upper_bound(1.0, 2) == pytest.approx(0.5, abs=1e-9)


def test_bound_zero_entropy_limit():
    assert abs(fano_upper_bound(1e-9, 5) - 1.0) <= 1e-6


@pytest.mark.parametrize("n", range(2, 65))
def test_bound_uniform_identity(n):
    assert abs(fano_upper_bound(math.log2(n), n) - 1.0 / n) <= 1e-9


def test_bound_degenerate_alphabet():
    assert fano_upper_bound(0.0, 1) == 1.0
    with pytest.raises(ArgumentError):
        fano_upper_bound(0.5, 0)


def test_bound_monotone_in_entropy():
    n = 12
    grid = np.linspace(0.0, math.log2(n), 100)
    values = [fano_upper_bound(s, n) for s in grid]
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


def test_bound_residual_satisfies_equation():
    for n in (2, 3, 8, 40):
        for s in np.linspace(1e-6, math.log2(n) - 1e-6, 25):
            pi = fano_upper_bound(s, n)
            h = -pi * math.log2(pi) - (1 - pi) * math.log2(1 - pi) if 0 < pi < 1 else 0.0
            rhs = h + (1 - pi) * (math.log2(n - 1) if n > 1 else 0.0)
            assert abs(rhs - s) <= 1e-9


def test_bound_clamps_out_of_range(caplog):
    assert fano_upper_bound(99.0, 4) == pytest.approx(0.25)
    assert fano_upper_bound(-1.0, 4) == 1.0


@pytest.mark.parametrize("n", [10, 48])
def test_bound_clamps_rounding_excess_silently(n, caplog):
    # n log2 n / n rounds an ulp above log2 n at these n
    s = lz_entropy_rate(DiscreteSeries(np.arange(n), n))
    assert s > math.log2(n)
    with caplog.at_level(logging.WARNING, logger="mppn.predictability"):
        assert fano_upper_bound(s, n) == 1.0 / n
    assert not caplog.records


@pytest.mark.parametrize("s", [math.log2(6) + 0.1, -0.1])
def test_bound_warns_when_clamping_a_real_excess(s, caplog):
    with caplog.at_level(logging.WARNING, logger="mppn.predictability"):
        fano_upper_bound(s, 6)
    assert [r.levelno for r in caplog.records] == [logging.WARNING]
    assert "clamping" in caplog.records[0].getMessage()


# ---------------------------------------------------------------------------
# dataset aggregation

def _dataset(columns: dict[str, np.ndarray]) -> SeriesDataset:
    names = list(columns)
    values = np.stack([columns[n] for n in names], axis=1).astype(float)
    return SeriesDataset(names, values)


def test_dataset_predictability_constant_variate():
    ds = _dataset({"flat": np.full(500, 2.0)})
    report = dataset_predictability(ds, [10])[0]
    assert report.variates[0].pi_max == 1.0
    assert report.mean_pi_max == 1.0


def test_dataset_predictability_mixed_constant_and_noise():
    rng = SplitMix64(77)
    noise = rng.integers(8, 20000).astype(float)
    ds = _dataset({"flat": np.full(20000, 1.0), "noise": noise})
    report = dataset_predictability(ds, [8])[0]
    flat, noisy = report.variates
    assert flat.pi_max == 1.0
    # the noisy variate's bound follows from the measured entropy rate
    # (~2.82 bits at n=20000, see the estimator test above)
    assert 0.25 <= noisy.pi_max <= 0.40
    assert report.mean_pi_max == pytest.approx((1.0 + noisy.pi_max) / 2.0)


def test_dataset_predictability_report_schema():
    ds = _dataset({"a": np.sin(np.arange(200.0)), "b": np.cos(np.arange(200.0))})
    doc = dataset_predictability(ds, [5], mode="equal-frequency")[0].to_dict()
    assert set(doc) == {"variates", "mean_pi_max", "Q", "mode"}
    assert set(doc["variates"][0]) == {"name", "S_bits", "pi_max", "N"}
    assert doc["Q"] == 5 and doc["mode"] == "equal-frequency"
    for v in doc["variates"]:
        assert max(1.0 / v["N"], 0.0) <= v["pi_max"] <= 1.0


def test_dataset_predictability_empty_dataset():
    with pytest.raises(DataError):
        dataset_predictability(SeriesDataset([], np.zeros((0, 0))), [5])


# ---------------------------------------------------------------------------
# the Q sweep

def _serial_reports(ds, q_values, mode="equal-frequency"):
    """The sweep's reports, one public function call at a time."""
    reports = []
    for q in q_values:
        entries = []
        for c, name in enumerate(ds.names):
            d = discretize(ds.values[:, c], q, mode)
            s = lz_entropy_rate(d)
            entries.append(VariatePredictability(name, s, fano_upper_bound(s, d.distinct), d.distinct))
        reports.append(PredictabilityReport(entries, float(np.mean([v.pi_max for v in entries])),
                                            q, mode))
    return reports


def _sweep_dataset(n=3000):
    rng = SplitMix64(31)
    walk = np.cumsum(rng.uniform01(n) - 0.5)
    return _dataset({"walk": walk, "flat": np.full(n, 4.0),
                     "tied": rng.integers(3, n).astype(float), "noise": rng.uniform01(n)})


@pytest.mark.parametrize("q_values", [[5], [5, 10, 20, 50], [50, 5, 20, 5]])
@pytest.mark.parametrize("mode", ["equal-frequency", "equal-width"])
def test_sweep_matches_the_serial_pipeline(q_values, mode):
    ds = _sweep_dataset()
    assert dataset_predictability(ds, q_values, mode) == _serial_reports(ds, q_values, mode)


def test_sweep_matches_the_serial_pipeline_under_frequent_thread_switches():
    ds = _sweep_dataset(1500)
    q_values = [5, 10, 20, 50, 3, 7]
    want = _serial_reports(ds, q_values)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = [dataset_predictability(ds, q_values) for _ in range(3)]
    finally:
        sys.setswitchinterval(interval)
    assert got == [want] * 3


@pytest.mark.parametrize("kind", ["random", "tied", "constant"])
def test_sweep_bins_each_variate_like_discretize(monkeypatch, kind):
    rng = SplitMix64(8)
    x = {"random": rng.uniform01(2000), "tied": rng.integers(4, 2000).astype(float),
         "constant": np.full(2000, -1.5)}[kind]
    q_values = [5, 10, 20, 50, 7]
    seen, lock, lpf = [], threading.Lock(), P._longest_previous_factor

    def recording(symbols):
        with lock:
            seen.append(symbols.copy())
        return lpf(symbols)

    monkeypatch.setattr(P, "_longest_previous_factor", recording)
    dataset_predictability(_dataset({"x": x}), q_values)
    # two threads record the passes in either order
    want = [discretize(x, q).symbols for q in q_values]
    assert sorted(a.dtype.str + a.tobytes().hex() for a in seen) == \
        sorted(a.dtype.str + a.tobytes().hex() for a in want)


def test_sweep_does_not_wait_for_a_worker_that_has_not_started():
    ds = _sweep_dataset()
    q_values = [5, 10, 20, 50]
    hold = threading.Event()
    held = pool._workers().submit(hold.wait)  # the pool's only worker
    result = []
    try:
        sweeping = threading.Thread(target=lambda: result.append(dataset_predictability(ds, q_values)))
        sweeping.start()
        sweeping.join(timeout=30)
        assert not sweeping.is_alive() and not hold.is_set()
    finally:
        hold.set()
    assert held.result(timeout=30)
    assert result == [_serial_reports(ds, q_values)]
    assert dataset_predictability(ds, q_values) == result[0]


@pytest.mark.parametrize("failing", ["caller", "worker"])
def test_sweep_raises_a_pass_error_from_either_thread(monkeypatch, failing):
    ds = _sweep_dataset()
    lpf, raised = P._longest_previous_factor, []

    def flaky(symbols):
        in_caller = threading.current_thread() is sweeping
        if (in_caller == (failing == "caller")) and not raised:
            raised.append(True)
            raise DataError("pass failed")
        if in_caller:
            time.sleep(0.05)  # leaves passes for the worker
        return lpf(symbols)

    monkeypatch.setattr(P, "_longest_previous_factor", flaky)
    result = []

    def sweep():
        try:
            dataset_predictability(ds, [5, 10, 20, 50])
        except DataError as exc:
            result.append(exc)

    sweeping = threading.Thread(target=sweep)
    sweeping.start()
    sweeping.join(timeout=60)
    assert not sweeping.is_alive()
    assert raised and len(result) == 1 and str(result[0]) == "pass failed"


@pytest.mark.parametrize("column, q_values, error", [
    (np.array([1.0, np.nan, 2.0, 3.0]), [5], DataError),
    (np.array([1.0, np.inf, 2.0, 3.0]), [5], DataError),
    (np.array([1.0, 2.0, 3.0, 4.0]), [5, 1], ArgumentError),
    (np.array([1.0]), [5], ArgumentError),
], ids=["nan", "infinite", "q-below-2", "one-row"])
def test_sweep_checks_every_input_before_any_pass(monkeypatch, column, q_values, error):
    def no_pass(*args):
        raise AssertionError("a pass ran")

    monkeypatch.setattr(P, "_longest_previous_factor", no_pass)
    monkeypatch.setattr(pool, "drain", no_pass)
    with pytest.raises(error):
        dataset_predictability(_dataset({"ok": np.arange(len(column), dtype=float), "x": column}),
                               q_values)


def test_sweep_rejects_an_unknown_mode_and_runs_an_empty_q_list():
    ds = _sweep_dataset(50)
    with pytest.raises(ArgumentError, match="mode"):
        dataset_predictability(ds, [5], mode="bogus")
    assert dataset_predictability(ds, []) == []
