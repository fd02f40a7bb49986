"""Deterministic synthetic series: sums of sinusoids, linear trend, noise."""
from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime, timedelta

import numpy as np

from . import data
from .errors import ArgumentError
from .rng import SplitMix64, derive

_EPOCH = datetime(2016, 7, 1, 0, 0, 0)
# most values one series may hold, checked before anything is allocated;
# Traffic, the largest standard long-horizon benchmark, holds 17544 x 862
_MAX_VALUES = 10 ** 8


@dataclass
class ToneSpec:
    amplitude: float
    period: float
    phase: float = 0.0


def generate(tones_per_channel: list[list[ToneSpec]], trend: float, noise_sd: float,
             timesteps: int, seed: int) -> np.ndarray:
    """[T, C] matrix: per channel, sum of tones + trend*t + gaussian noise."""
    if timesteps < 8:
        raise ArgumentError(f"synth: need at least 8 timesteps, got {timesteps}")
    if not tones_per_channel:
        raise ArgumentError("synth: need at least one channel")
    if timesteps * len(tones_per_channel) > _MAX_VALUES:
        raise ArgumentError(
            f"synth: {timesteps} timesteps x {len(tones_per_channel)} channels exceeds "
            f"{_MAX_VALUES} values")
    for tones in tones_per_channel:
        for tone in tones:
            if not all(math.isfinite(v) for v in (tone.amplitude, tone.period, tone.phase)):
                raise ArgumentError(f"synth: tone values must be finite, got {tone}")
            if tone.period <= 0:
                raise ArgumentError(f"synth: tone period must be positive, got {tone.period}")
    if not math.isfinite(trend):
        raise ArgumentError(f"synth: trend must be finite, got {trend}")
    if not (math.isfinite(noise_sd) and noise_sd >= 0):
        raise ArgumentError(f"synth: noise sd must be a finite number >= 0, got {noise_sd}")
    t = np.arange(timesteps, dtype=np.float64)
    c = len(tones_per_channel)
    out = np.zeros((timesteps, c))
    with np.errstate(over="ignore", invalid="ignore"):
        for j, tones in enumerate(tones_per_channel):
            for tone in tones:
                out[:, j] += tone.amplitude * np.sin(2.0 * np.pi * t / tone.period + tone.phase)
            out[:, j] += trend * t
        if noise_sd > 0:
            rng = SplitMix64(derive(seed, "synth-noise"))
            out += rng.normal((timesteps, c), sd=noise_sd)
    if not np.isfinite(out).all():
        raise ArgumentError("synth: the series overflows the float range; "
                            "lower the amplitudes, trend or noise sd")
    return out


def write_csv(path, values: np.ndarray, names: list[str] | None = None) -> None:
    """Standard benchmark layout with hourly timestamps; byte-deterministic.
    Names follow load_csv's rule: stripped, non-blank and unique."""
    timesteps, c = values.shape
    if names is None:
        names = [f"v{i}" for i in range(c)]
    elif len(names) != c:
        raise ArgumentError(f"synth: {len(names)} names for {c} channels")
    names = data.variate_names(names, "synth: names", ArgumentError)
    rows = ([(_EPOCH + timedelta(hours=i)).strftime("%Y-%m-%d %H:%M:%S")]
            + [repr(float(v)) for v in values[i]] for i in range(timesteps))
    data.write_csv(path, ["date"] + names, rows)


def parse_tone_spec(raw) -> list[list[ToneSpec]]:
    """Per-channel tone lists from the JSON shape
    ``[[{"amplitude":..,"period":..,"phase":..}, ...], ...]``."""
    if not isinstance(raw, list) or not raw:
        raise ArgumentError("synth: spec must be a non-empty list of channel tone lists")
    channels = []
    for entry in raw:
        if not isinstance(entry, list):
            raise ArgumentError("synth: each channel spec must be a list of tones")
        tones = []
        for tone in entry:
            try:
                tones.append(ToneSpec(float(tone["amplitude"]), float(tone["period"]),
                                      float(tone.get("phase", 0.0))))
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise ArgumentError(f"synth: bad tone entry {tone!r}") from exc
        channels.append(tones)
    return channels
