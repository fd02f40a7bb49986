"""Amplitude spectrum and top-k period selection tests."""
import numpy as np
import pytest

from helpers import direct_dft_amplitude
from mppn.errors import ArgumentError
from mppn.periods import AmplitudeSpectrum, amplitude_spectrum, detect_periods, topk_periods
from mppn.rng import SplitMix64


def tone(t, freq, amp=1.0, phase=0.0):
    n = np.arange(t)
    return amp * np.sin(2.0 * np.pi * freq * n / t + phase)


def test_single_tone_peaks_at_its_frequency():
    x = tone(96, 4)[:, None]
    spec = amplitude_spectrum(x)
    assert int(np.argmax(spec.amplitudes[1:])) + 1 == 4


def test_constant_series_has_empty_spectrum():
    spec = amplitude_spectrum(np.full((64, 2), 7.0))
    assert np.all(spec.amplitudes[1:] <= 1e-9)


def test_two_tone_amplitude_ratio_matches_direct_dft():
    x = tone(96, 4, amp=2.0) + tone(96, 12, amp=1.0)
    spec = amplitude_spectrum(x[:, None])
    oracle = direct_dft_amplitude(x)
    assert spec.amplitudes[4] / spec.amplitudes[12] == pytest.approx(2.0, rel=0.01)
    assert oracle[4] / oracle[12] == pytest.approx(2.0, rel=0.01)


@pytest.mark.parametrize("t", [7, 8, 96, 100])
def test_spectrum_agrees_with_direct_summation(t):
    rng = SplitMix64(t)
    x = rng.normal((t,))
    spec = amplitude_spectrum(x[:, None])
    oracle = direct_dft_amplitude(x)
    scale = max(1.0, float(np.max(oracle)))
    assert np.max(np.abs(spec.amplitudes - oracle)) / scale <= 1e-9


def test_channel_average_equals_average_of_channel_spectra():
    rng = SplitMix64(11)
    x = rng.normal((64, 3))
    joint = amplitude_spectrum(x).amplitudes
    per_channel = np.mean([amplitude_spectrum(x[:, [c]]).amplitudes for c in range(3)], axis=0)
    assert np.max(np.abs(joint - per_channel)) <= 1e-12


def test_spectrum_input_validation():
    with pytest.raises(ArgumentError):
        amplitude_spectrum(np.zeros((3, 1)))
    with pytest.raises(ArgumentError):
        amplitude_spectrum(np.zeros((4, 1, 1)))


def test_topk_single_tone_period():
    pset = topk_periods(amplitude_spectrum(tone(96, 4)[:, None]), 1)
    assert pset.periods == [24]  # ceil(96/4)


def test_topk_two_tones_ordering():
    x = tone(96, 4, amp=2.0) + tone(96, 12, amp=1.0)
    pset = topk_periods(amplitude_spectrum(x[:, None]), 2)
    assert pset.periods == [24, 8]


def test_topk_dedupes_periods_keeping_strongest():
    # frequencies 49 and 50 at T=100 both map to period ceil(100/f)=3
    x = tone(100, 49, amp=1.0) + tone(100, 50, amp=0.8) + tone(100, 10, amp=0.5)
    pset = topk_periods(amplitude_spectrum(x[:, None]), 3)
    assert len(pset.periods) == len(set(pset.periods))
    assert 3 in pset.periods and 10 in pset.periods
    entry = next(item for item in pset.items if item[0] == 3)
    assert entry[1] == 49  # the stronger of the two aliases


def test_topk_tie_breaks_toward_lower_frequency():
    # hand-built spectrum with an exact amplitude tie at f=6 and f=8
    amps = np.zeros(49)
    amps[6] = amps[8] = 5.0
    pset = topk_periods(AmplitudeSpectrum(amps, 96), 1)
    assert pset.items[0][1] == 6


def test_topk_argument_validation():
    spec = amplitude_spectrum(tone(96, 4)[:, None])
    with pytest.raises(ArgumentError):
        topk_periods(spec, 0)


def test_exact_recovery_under_noise_for_all_frequencies():
    # every integer frequency in {2..T/2-1} at T=96, noise sd = 0.1 * amplitude
    t = 96
    for f in range(2, t // 2 - 1 + 1):
        rng = SplitMix64(1000 + f)
        x = tone(t, f) + rng.normal((t,), sd=0.1)
        pset = detect_periods(x[:, None], 1)
        assert pset.periods == [-(-t // f)], f"frequency {f}"


def test_periods_are_distinct_and_at_least_two():
    rng = SplitMix64(3)
    x = rng.normal((200, 4))
    pset = detect_periods(x, 6)
    assert len(pset.periods) == len(set(pset.periods))
    assert all(p >= 2 for p in pset.periods)


def test_detected_period_set_shape_of_json():
    doc = detect_periods(tone(96, 4)[:, None], 2).to_dict()
    assert doc["k"] == len(doc["items"]) == 2
    assert {"period", "frequency", "amplitude"} == set(doc["items"][0])


def test_top_k_beyond_the_spectrum_reports_the_periods_found():
    # T = 96 has 48 nonzero frequencies, and ceil(96 / f) repeats for f > 9
    doc = detect_periods(tone(96, 4)[:, None], 1000).to_dict()
    assert doc["k"] == len(doc["items"]) == len({i["period"] for i in doc["items"]}) < 48
