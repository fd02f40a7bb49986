"""Dataset ingestion, chronological splits, standardization, windowing,
forecast metrics, and the one CSV writer every output goes through.

CSV layout: UTF-8, comma separated, header ``date,<name1>,...`` with one
uniquely named variate per remaining column.  Headerless all-numeric
matrices are supported via ``date_column=False``.
"""
from __future__ import annotations

import csv
import itertools
import logging
import math
from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

from .errors import ArgumentError, ConfigError, DataError, ShapeError

log = logging.getLogger(__name__)


@dataclass
class SeriesDataset:
    """Column-named multivariate series with chronological boundaries."""

    names: list[str]
    values: np.ndarray  # [T, C] float64
    timestamps: list[str] | None = None
    train_end: int = 0
    val_end: int = 0

    @property
    def length(self) -> int:
        return self.values.shape[0]

    @property
    def channels(self) -> int:
        return self.values.shape[1]

    def with_boundaries(self, train_end: int, val_end: int) -> "SeriesDataset":
        if not (0 < train_end <= val_end <= self.length):
            raise ConfigError(
                f"split boundaries ({train_end}, {val_end}) invalid for T={self.length}")
        return replace(self, train_end=train_end, val_end=val_end)


def _cell(text: str) -> float:
    """Python ``float`` syntax; NaN for text it rejects."""
    try:
        return float(text)
    except ValueError:
        return math.nan


def variate_names(raw, where: str, error: type[Exception], first_column: int = 1) -> list[str]:
    """Strip each name; raise ``error`` for a blank or repeated one, naming
    its column (counted from ``first_column``)."""
    names = [name.strip() for name in raw]
    seen: dict[str, int] = {}
    for col, name in enumerate(names, start=first_column):
        if not name:
            raise error(f"{where} column {col} has a blank variate name")
        if name in seen:
            raise error(f"{where} names variate '{name}' in columns {seen[name]} and {col}")
        seen[name] = col
    return names


def write_csv(path, header: list[str], rows) -> None:
    """Write a header and rows of text cells as comma-separated UTF-8 with
    Unix line ends, quoting a cell only where ``load_csv`` needs it to read
    the cell back (a comma, a quote or a line break inside it)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


# The quote, carriage return and NUL are the characters csv.reader treats
# specially in an unquoted file; numpy's float parser strips the four
# separators \x1c-\x1f as white space where ``float`` rejects them.
_NOT_PLAIN = ('"', "\r", "\0", "\x1c", "\x1d", "\x1e", "\x1f")


def _plain_table(path, date_column: bool) -> SeriesDataset | None:
    """A plain file's dataset, parsed by numpy's ``loadtxt``, or None when
    ``load_csv``'s csv path must read the file.

    A file is plain when it is UTF-8 without any ``_NOT_PLAIN`` character
    (so each non-empty line is one row of comma-separated cells), has at
    least one body line and no line longer than the csv field limit, has a
    valid header, and every cell is a finite value on a row of the header's
    width.  Anything else returns None, never raising, warning or logging,
    so the csv path alone reports every fault.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError):
        return None
    if any(ch in text for ch in _NOT_PLAIN):
        return None
    # split("\n"), not splitlines(), which also breaks at \x1c, \x85, \u2028
    lines = [line for line in text.split("\n") if line]
    rows = lines[1:] if date_column else lines
    if not rows or max(map(len, lines)) > csv.field_size_limit():
        return None
    if date_column:
        names = [name.strip() for name in lines[0].split(",")[1:]]
        if not names or not all(names) or len(set(names)) < len(names):
            return None
        split = [line.partition(",") for line in rows]
        timestamps = [part[0] for part in split]
        rows = [part[2] for part in split]
    else:
        names = [f"v{i}" for i in range(lines[0].count(",") + 1)]
        timestamps = None
    if "" in rows:  # loadtxt skips an empty line, and warns when it sees no data
        return None
    try:
        values = np.loadtxt(rows, delimiter=",", comments=None, dtype=np.float64, ndmin=2)
    except ValueError:
        return None
    if values.shape != (len(rows), len(names)) or not np.isfinite(values).all():
        return None
    return SeriesDataset(names, values, timestamps)


def load_csv(path, strict: bool = True, date_column: bool = True) -> SeriesDataset:
    """Parse a benchmark CSV into a [T, C] float matrix.

    The file must be UTF-8 text.  With ``date_column`` the header names the
    date column and then each variate; variate names must be non-blank and
    unique.  A cell is a value when Python's ``float`` accepts it and the
    result is finite.  In strict mode the first other cell in file order
    aborts with its row and column; otherwise such cells are forward-filled
    (leading gaps take the first later value) and the fill count is logged.
    Every failure raises ``DataError``, which the CLI reports with exit 3.

    Two paths give the same result.  A plain file (no quote, carriage
    return, NUL or U+001C-U+001F character, a valid header, and only
    finite cells on rows of the header's width; see ``_plain_table``) is
    parsed by numpy's ``loadtxt``.  Every other file, and so every fault,
    forward fill and log line, goes through ``csv.reader`` and a ``float``
    per cell.
    """
    plain = _plain_table(path, date_column)
    if plain is not None:
        return plain
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            rows = [row for row in reader if row]
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not valid UTF-8: bytes {exc.object[exc.start:exc.end]!r} "
                        f"({exc.reason})") from None
    except csv.Error as exc:
        raise DataError(f"{path}: line {reader.line_num}: {exc}") from None
    if not rows:
        raise DataError(f"{path}: empty file")
    if date_column:
        header, body = rows[0], rows[1:]
        if len(header) < 2:
            raise DataError(f"{path}: header must name a date column and at least one variate")
        names = variate_names(header[1:], f"{path}: header", DataError, first_column=2)
        timestamps = [r[0] for r in body]
        cells = [r[1:] for r in body]
    else:
        names = [f"v{i}" for i in range(len(rows[0]))]
        timestamps = None
        cells = rows
    if not cells:
        raise DataError(f"{path}: no data rows")

    # Rows before the first ragged one are parsed first, so a bad cell
    # above it is still the error reported in strict mode.
    width = len(names)
    good = next((i for i, row in enumerate(cells) if len(row) != width), len(cells))
    flat = itertools.chain.from_iterable(cells[:good])
    values = np.fromiter(map(_cell, flat), np.float64, count=good * width).reshape(good, width)
    bad = ~np.isfinite(values)
    if strict and bad.any():
        i, j = divmod(int(np.argmax(bad)), width)
        raise DataError(
            f"{path}: row {i + 1}, column '{names[j]}': unparseable cell {cells[i][j]!r}")
    if good < len(cells):
        raise DataError(f"{path}: row {good + 1} has {len(cells[good])} cells, expected {width}")

    missing = int(bad.sum())
    if missing:
        values[bad] = np.nan
        for j in range(width):
            col = values[:, j]
            nan = np.isnan(col)
            if nan.all():
                raise DataError(f"{path}: column '{names[j]}' has no usable values")
            if nan.any():
                idx = np.where(~nan, np.arange(len(col)), -1)
                np.maximum.accumulate(idx, out=idx)
                col[:] = np.where(idx >= 0, col[np.maximum(idx, 0)], col)
                first = np.argmax(~nan)
                col[:first] = col[first]
        log.info("%s: forward-filled %d missing cells", path, missing)

    return SeriesDataset(names, values, timestamps)


def chronological_split(dataset: SeriesDataset, scheme: str) -> SeriesDataset:
    """Standard benchmark boundaries: 6:2:2 for 'ett', 7:1:2 otherwise.

    Integer arithmetic: float rounding of 0.6 * T can land one row below
    the exact floor (e.g. T = 17420).
    """
    t = dataset.length
    if scheme == "ett":
        train_end, val_end = (t * 6) // 10, (t * 8) // 10
    elif scheme == "standard":
        train_end, val_end = (t * 7) // 10, (t * 8) // 10
    else:
        raise ArgumentError(f"chronological_split: unknown scheme '{scheme}'")
    return dataset.with_boundaries(train_end, val_end)


@dataclass
class Standardizer:
    """Per-channel zero-mean unit-variance scaling, fitted on training rows."""

    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, train_values: np.ndarray, strict: bool = True) -> "Standardizer":
        if train_values.shape[0] < 2:
            raise DataError("standardize: training split too short to fit statistics")
        mean = train_values.mean(axis=0)
        std = train_values.std(axis=0)
        flat = std <= 0.0
        if flat.any():
            if strict:
                raise DataError(f"standardize: zero-variance channels at {np.where(flat)[0].tolist()}")
            log.warning("standardize: flooring %d zero-variance channels at 1e-8", int(flat.sum()))
            std = np.where(flat, 1e-8, std)
        return cls(mean, std)

    def apply(self, values: np.ndarray) -> np.ndarray:
        return (values - self.mean) / self.std

    def invert(self, values: np.ndarray) -> np.ndarray:
        return values * self.std + self.mean


def window_origins(dataset: SeriesDataset, lookback: int, horizon: int, split: str) -> np.ndarray:
    """Forecast origins whose targets lie wholly inside the split.

    Lookbacks may reach back into the preceding region (but not before the
    series start), so a split of interior length S yields S - H + 1 windows.
    """
    if dataset.train_end == 0:
        raise ConfigError("window_origins: dataset has no split boundaries")
    bounds = {
        "train": (0, dataset.train_end),
        "val": (dataset.train_end, dataset.val_end),
        "test": (dataset.val_end, dataset.length),
    }
    if split not in bounds:
        raise ArgumentError(f"window_origins: unknown split '{split}'")
    start, end = bounds[split]
    lo = max(start, lookback)
    hi = end - horizon
    if hi < lo:
        raise ConfigError(
            f"window_origins: split '{split}' has no room for lookback {lookback} + horizon {horizon}")
    return np.arange(lo, hi + 1, dtype=np.int64)


def gather_windows(values: np.ndarray, origins: np.ndarray, lookback: int,
                   horizon: int) -> tuple[np.ndarray, np.ndarray]:
    inputs = values[origins[:, None] + np.arange(-lookback, 0)[None, :]]
    targets = values[origins[:, None] + np.arange(horizon)[None, :]]
    return inputs, targets


def iter_batches(values: np.ndarray, origins: np.ndarray, lookback: int, horizon: int,
                 batch_size: int) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Yield (inputs [B,L,C], targets [B,H,C], origins [B]) chunks in the
    order the origins were given."""
    if batch_size < 1:
        raise ArgumentError(f"iter_batches: batch_size must be >= 1, got {batch_size}")
    for lo in range(0, len(origins), batch_size):
        chunk = origins[lo:lo + batch_size]
        inp, tgt = gather_windows(values, chunk, lookback, horizon)
        yield inp, tgt, chunk


@dataclass
class ForecastMetrics:
    mse: float
    mae: float
    windows: int

    def to_dict(self, split: str) -> dict:
        return {"split": split, "mse": self.mse, "mae": self.mae, "windows": self.windows}


class MetricsAccumulator:
    """One-pass accumulation of squared and absolute errors over every
    predicted element, independent of batch grouping."""

    def __init__(self):
        self._sq = 0.0
        self._ab = 0.0
        self._count = 0
        self._windows = 0

    def add(self, pred, target) -> None:
        p = np.asarray(getattr(pred, "data", pred), dtype=np.float64)
        t = np.asarray(getattr(target, "data", target), dtype=np.float64)
        if p.ndim != 3:
            raise ShapeError(f"metrics: prediction must be [B, H, C], got shape {p.shape}")
        if p.shape != t.shape:
            raise ShapeError(f"metrics: prediction {p.shape} misaligned with target {t.shape}")
        diff = p - t
        self._sq += float(np.sum(diff * diff))
        self._ab += float(np.sum(np.abs(diff)))
        self._count += diff.size
        self._windows += p.shape[0]

    def finalize(self) -> ForecastMetrics:
        if self._count == 0:
            raise ArgumentError("metrics: nothing accumulated")
        return ForecastMetrics(self._sq / self._count, self._ab / self._count, self._windows)
