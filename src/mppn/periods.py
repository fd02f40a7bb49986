"""Dominant-cycle extraction from the channel-averaged amplitude spectrum.

Each channel is mean-removed and transformed, magnitudes are averaged
across channels, and the strongest integer frequencies in {1..T/2} are
converted to periods by ceiling division.  Duplicate periods after the
ceiling keep the higher-amplitude entry.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, DataError

MIN_SPECTRUM_ROWS = 4


@dataclass
class AmplitudeSpectrum:
    """Nonnegative amplitudes indexed by frequency 0..floor(T/2)."""

    amplitudes: np.ndarray
    length: int  # T of the analyzed series


@dataclass
class PeriodSet:
    """Detected periods sorted by amplitude, strongest first."""

    items: list[tuple[int, int, float]]  # (period, frequency, amplitude)

    @property
    def periods(self) -> list[int]:
        return [p for p, _, _ in self.items]

    def to_dict(self) -> dict:
        return {
            "k": len(self.items),
            "items": [
                {"period": p, "frequency": f, "amplitude": a} for p, f, a in self.items
            ],
        }


def amplitude_spectrum(values) -> AmplitudeSpectrum:
    """Average per-channel magnitude spectra of a [T, C] series.

    The per-channel mean is removed first so the DC term cannot leak into
    its neighbors once channels are averaged.
    """
    x = np.asarray(getattr(values, "data", values), dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2:
        raise ArgumentError(f"amplitude_spectrum: expected [T, C], got shape {x.shape}")
    t = x.shape[0]
    if t < MIN_SPECTRUM_ROWS:
        raise ArgumentError(f"amplitude_spectrum: need T >= {MIN_SPECTRUM_ROWS}, got {t}")
    if not np.isfinite(x).all():
        raise DataError("amplitude_spectrum: input contains non-finite values")
    centered = x - x.mean(axis=0, keepdims=True)
    mags = np.abs(np.fft.rfft(centered, axis=0))[: t // 2 + 1]
    return AmplitudeSpectrum(mags.mean(axis=1), t)


def topk_periods(spectrum: AmplitudeSpectrum, k: int) -> PeriodSet:
    """Strongest k distinct periods; amplitude ties resolve to the lower
    frequency, and frequency 0 is never considered."""
    if k < 1:
        raise ArgumentError(f"topk_periods: k must be >= 1, got {k}")
    t = spectrum.length
    amps = spectrum.amplitudes[1:]  # frequencies 1..floor(T/2)
    freqs = np.arange(1, len(amps) + 1)
    order = np.lexsort((freqs, -amps))
    items: list[tuple[int, int, float]] = []
    seen: set[int] = set()
    for idx in order:
        f = int(freqs[idx])
        period = -(-t // f)  # ceil(T / f)
        if period in seen:
            continue
        seen.add(period)
        items.append((period, f, float(amps[idx])))
        if len(items) == k:
            break
    return PeriodSet(items)


def detect_periods(values, k: int) -> PeriodSet:
    return topk_periods(amplitude_spectrum(values), k)
