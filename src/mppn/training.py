"""Run configuration, model adapters, and the train/evaluate orchestration.

A run is described by a flat key=value text (JSON values per line; a JSON
object file is accepted too) that round-trips losslessly.  Checkpoints
embed that text plus the resolved facts of the run (detected periods,
channel count and names) so evaluation can rebuild the exact model.

Every forecaster is affine in its input window, channel by channel, and
composes that map from its weights as one kernel (A [C, L, H], b [C, H])
that the tape differentiates.  Training, forecast and kernel export run
through it; scoring a split (evaluate, and the per-epoch validation of
train) composes it once and applies it to every chunk of windows.  Those
windows are read through a strided view of the series, with no gather,
and the chunks are scored on both threads of ``pool.drain``; training
batches are shuffled, so they are gathered by ``iter_batches``.
"""
from __future__ import annotations

import dataclasses
import json
import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import baselines, model, pool
from . import tensor as T
from .checkpoint import load_checkpoint, save_checkpoint
from .data import (SPLIT_SCHEMES, ForecastMetrics, MetricsAccumulator, SeriesDataset,
                   Standardizer, chronological_split, error_sums, iter_batches, load_csv,
                   window_origins)
from .errors import (ArgumentError, ConfigError, DataError, DivergenceError, FormatError,
                     ShapeError)
from .optim import Adam
from .periods import MIN_SPECTRUM_ROWS, detect_periods
from .predictability import dataset_predictability
from .rng import SplitMix64, derive
from .tensor import Tensor

log = logging.getLogger(__name__)

MODEL_KINDS = ("mppn", "dlinear", "nlinear", "naive")

# least value of each integer field; the seed may be any integer
_INT_FIELD_MIN = {"lookback": 1, "horizon": 1, "hidden": 1, "top_k": 1, "moving_average": 1,
                  "max_epochs": 0, "patience": 1, "batch_size": 1}


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_finite_real(value) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def unique_pairs(pairs) -> dict:
    """A ``json.loads`` object_pairs_hook that rejects a repeated key."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"key {key!r} repeated")
        obj[key] = value
    return obj


@dataclass
class RunConfig:
    model: str = "mppn"
    data: str = ""
    split_scheme: str = "standard"
    lookback: int = 336
    horizon: int = 96
    hidden: int = 48
    resolutions: tuple[int, ...] = (1, 3, 4, 6)
    periods: tuple[int, ...] | None = None  # explicit override; None = detect
    top_k: int = 2
    overlap: bool = False
    moving_average: int = 25
    lr: float = 1e-3
    weight_decay: float = 1e-5
    max_epochs: int = 30
    patience: int = 3
    batch_size: int = 32
    seed: int = 0
    date_column: bool = True
    fill_missing: bool = False

    def __post_init__(self):
        """Check every field's type and range; a config file or flag that
        fails raises ConfigError."""
        if self.model not in MODEL_KINDS:
            raise ConfigError(f"unknown model kind '{self.model}', expected one of {MODEL_KINDS}")
        if not isinstance(self.data, str):
            raise ConfigError(f"config: data must be a string, got {self.data!r}")
        if self.split_scheme not in SPLIT_SCHEMES:
            raise ConfigError(f"config: split_scheme must be one of {SPLIT_SCHEMES}, "
                              f"got {self.split_scheme!r}")
        for name, least in _INT_FIELD_MIN.items():
            value = getattr(self, name)
            if not _is_int(value) or value < least:
                raise ConfigError(f"config: {name} must be an integer >= {least}, got {value!r}")
        if self.model == "dlinear" and not (
                self.moving_average % 2 and 3 <= self.moving_average <= 2 * self.lookback - 1):
            raise ConfigError(f"config: moving_average must be odd and in "
                              f"[3, {2 * self.lookback - 1}] for dlinear, got {self.moving_average}")
        if not _is_int(self.seed):
            raise ConfigError(f"config: seed must be an integer, got {self.seed!r}")
        if not _is_finite_real(self.lr) or self.lr <= 0:
            raise ConfigError(f"config: lr must be a finite number > 0, got {self.lr!r}")
        if not _is_finite_real(self.weight_decay) or self.weight_decay < 0:
            raise ConfigError(
                f"config: weight_decay must be a finite number >= 0, got {self.weight_decay!r}")
        for name in ("overlap", "date_column", "fill_missing"):
            if not isinstance(getattr(self, name), bool):
                raise ConfigError(f"config: {name} must be true or false, got {getattr(self, name)!r}")
        for name, least in (("resolutions", 1), ("periods", 2)):
            value = getattr(self, name)
            if value is None and name == "periods":
                continue
            if (not isinstance(value, (list, tuple))
                    or not all(_is_int(v) and v >= least for v in value)):
                raise ConfigError(
                    f"config: {name} must be a list of integers >= {least}, got {value!r}")
            setattr(self, name, tuple(value))

    def to_text(self) -> str:
        lines = []
        for f in dataclasses.fields(self):
            v = getattr(self, f.name)
            if isinstance(v, tuple):
                v = list(v)
            lines.append(f"{f.name}={json.dumps(v)}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> tuple["RunConfig", dict]:
        """Parse key=value lines (or one JSON object); unknown keys are
        returned separately, and a line's value that is not JSON is kept
        as a string.  A repeated key, and JSON that fails otherwise
        (nested past the recursion limit, say), is a ConfigError."""
        where = "config"
        try:
            if text.lstrip().startswith("{"):
                raw = json.loads(text, object_pairs_hook=unique_pairs)
            else:
                raw = {}
                for ln, line in enumerate(text.splitlines(), 1):
                    where = f"config line {ln}"
                    line = line.strip()
                    if not line or line.startswith("#"):
                        continue
                    if "=" not in line:
                        raise ConfigError(f"{where}: expected key=value, got {line!r}")
                    key, _, value = (part.strip() for part in line.partition("="))
                    if key in raw:
                        raise ConfigError(f"{where}: key {key!r} repeated")
                    try:
                        raw[key] = json.loads(value, object_pairs_hook=unique_pairs)
                    except json.JSONDecodeError:
                        raw[key] = value
        except (RecursionError, ValueError) as exc:
            raise ConfigError(f"{where}: {exc}") from None
        known = {f.name for f in dataclasses.fields(cls)}
        return (cls(**{k: v for k, v in raw.items() if k in known}),
                {k: v for k, v in raw.items() if k not in known})

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        """A run-config file: unknown keys and an empty ``periods`` list
        (leave the key out to detect periods) are configuration errors.
        Checkpoints parse their config through ``from_text``, which still
        accepts an empty list."""
        cfg, extras = cls.from_text(Path(path).read_text(encoding="utf-8"))
        if extras:
            raise ConfigError(f"{path}: unknown config keys {sorted(extras)}")
        if cfg.periods == ():
            raise ConfigError(f"{path}: periods must name at least one period; "
                              "leave it out to detect periods")
        return cfg


def config_blob(run: RunConfig, extras: dict) -> str:
    lines = [run.to_text().rstrip("\n")]
    for key in sorted(extras):
        lines.append(f"{key}={json.dumps(extras[key])}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# model adapters

@dataclass
class Forecaster:
    """One model of any kind: its parameters, a ``tensor.Params`` (empty
    for naive), and ``kernel()``, which composes from them (A [C, L, H],
    b [C, H]) with forward_batch(x)[:, :, c] = x[:, :, c] @ A[c] + b[c];
    ``kernel_shape`` is (C, L, H)."""

    kind: str
    params: T.Params
    kernel: Callable[[], tuple[Tensor, Tensor]]
    kernel_shape: tuple[int, int, int]

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        return self.params.named_parameters()

    def forward_batch(self, xb: Tensor) -> Tensor:
        """[B, L, C] -> [B, H, C]: check the windows against the kernel's
        shape, then compose the kernel and apply it."""
        T.check_affine(xb.shape, self.kernel_shape)
        return T.channel_affine(xb, *self.kernel())


def _forecaster(run: RunConfig, channels: int, resolved_periods: tuple[int, ...],
                arrays_for: Callable[[dict], dict] | None = None) -> Forecaster:
    """The forecaster of the run's kind, its parameters drawn by the kind's
    seeded ``init`` or, given ``arrays_for``, taken from ``arrays_for(shapes)``:
    shapes maps each parameter's name to its shape, in named_parameters order."""
    if run.model == "mppn":
        cfg = model.MPPNConfig(
            lookback=run.lookback, horizon=run.horizon, channels=channels, hidden=run.hidden,
            resolutions=run.resolutions, periods=resolved_periods, overlap=run.overlap,
            seed=run.seed)
        cls, shapes, init = model.MPPNParams, model.parameter_shapes(cfg), lambda: cls.init(cfg)
        kernel = lambda: model.compose_kernel(params, cfg)
    elif run.model == "nlinear":
        cls, shapes = baselines.NLinearParams, baselines.NLinearParams.shapes(run.lookback, run.horizon)
        init = lambda: cls.init(run.lookback, run.horizon, run.seed)
        kernel = lambda: baselines.nlinear_kernel(params, channels)
    elif run.model == "dlinear":
        cls, shapes = baselines.DLinearParams, baselines.DLinearParams.shapes(run.lookback, run.horizon)
        init = lambda: cls.init(run.lookback, run.horizon, run.seed)
        kernel = lambda: baselines.dlinear_kernel(params, channels, run.moving_average)
    else:
        cls, shapes, init = T.Params, {}, lambda: T.Params({})
        kernel = lambda: baselines.naive_kernel(run.lookback, run.horizon, channels)
    params = init() if arrays_for is None else cls.from_arrays(shapes, arrays_for(shapes))
    return Forecaster(run.model, params, kernel, (channels, run.lookback, run.horizon))


def build_forecaster(run: RunConfig, channels: int, resolved_periods: tuple[int, ...]) -> Forecaster:
    """A forecaster with its kind's seeded initial parameters."""
    return _forecaster(run, channels, resolved_periods)


def restore_forecaster(run: RunConfig, extras: dict, tensors: dict[str, np.ndarray]) -> Forecaster:
    """Rebuild a forecaster from checkpoint contents, bit-exact: each
    parameter holds its checkpoint array, and nothing is drawn."""
    channels = extras.get("channels")
    if not _is_int(channels) or channels < 1:
        raise FormatError(f"checkpoint: 'channels' must be a positive integer, got {channels!r}")
    names = extras.get("channel_names")
    if (not isinstance(names, (list, tuple)) or len(names) != channels
            or not all(isinstance(n, str) for n in names)):
        raise FormatError(
            f"checkpoint: 'channel_names' must be a list of {channels} strings, got {names!r}")
    periods = extras.get("resolved_periods")
    if (not isinstance(periods, (list, tuple)) or not all(_is_int(p) and p >= 2 for p in periods)
            or (run.model == "mppn" and not periods)):
        raise FormatError(
            f"checkpoint: 'resolved_periods' must be a list of integers >= 2"
            f"{', non-empty for mppn' if run.model == 'mppn' else ''}, got {periods!r}")

    def checked(shapes: dict) -> dict:
        if set(shapes) != set(tensors):
            raise FormatError(
                f"checkpoint tensors {sorted(tensors)} do not match model parameters {sorted(shapes)}")
        for name, arr in tensors.items():
            if shapes[name] != arr.shape:
                raise FormatError(
                    f"checkpoint tensor '{name}' has shape {arr.shape}, expected {shapes[name]}")
        return tensors

    return _forecaster(run, channels, tuple(periods), checked)


# ---------------------------------------------------------------------------
# orchestration

def load_dataset(run: RunConfig) -> SeriesDataset:
    if not run.data:
        raise ConfigError("no data path configured")
    ds = load_csv(run.data, strict=not run.fill_missing, date_column=run.date_column)
    ds = chronological_split(ds, run.split_scheme)
    if ds.length < run.lookback + run.horizon:
        raise ConfigError(
            f"dataset length {ds.length} < lookback {run.lookback} + horizon {run.horizon}")
    return ds


def resolve_periods(run: RunConfig, train_std: np.ndarray) -> tuple[int, ...]:
    """Explicit override wins; otherwise mine the standardized training
    split so the test region never influences model geometry."""
    if run.periods:
        return tuple(run.periods)
    detected = detect_periods(train_std, run.top_k)
    usable = tuple(p for p in detected.periods if run.lookback // p >= 1)
    if not usable:
        raise ConfigError(
            f"all detected periods {detected.periods} exceed the lookback {run.lookback}; "
            f"pass an explicit period override")
    if len(usable) < len(detected.periods):
        log.warning("dropping detected periods > lookback: %s",
                    [p for p in detected.periods if p not in usable])
    return usable


def _chunk_forecast(view: np.ndarray, lo: int, hi: int, lookback: int, a: np.ndarray,
                    b: np.ndarray) -> np.ndarray:
    """Forecasts [hi - lo, H, C] of rows lo:hi of ``view``, the windows
    [N, C, L + H] of ``sliding_window_view(values, L + H, axis=0)``: row s
    is the window whose origin is s + L."""
    return T._affine_forward(view[lo:hi, :, :lookback].transpose(1, 0, 2), a, b)


def split_metrics(fc: Forecaster, values: np.ndarray, origins: np.ndarray, lookback: int,
                  horizon: int, batch_size: int) -> ForecastMetrics:
    """Metrics over the windows at ``origins``, which must be consecutive:
    the kernel is composed once and applied to each chunk of batch_size
    windows.

    The windows are read through a strided view of ``values``, so no chunk
    is gathered.  Both threads of ``pool.drain`` score chunks, each to its
    ``error_sums``; the caller adds them in chunk order, so the metrics
    are those of one thread adding chunk after chunk.  Nothing a chunk
    runs touches the tape or ``MetricsAccumulator``."""
    if batch_size < 1:
        raise ArgumentError(f"split_metrics: batch_size must be >= 1, got {batch_size}")
    n = len(origins)
    if not (n and np.array_equal(origins, origins[0] + np.arange(n))
            and lookback <= origins[0] and origins[-1] + horizon <= len(values)):
        raise ArgumentError(f"split_metrics: origins must be a non-empty run of consecutive "
                            f"integers in [{lookback}, {len(values) - horizon}]")
    with T.no_grad():
        a, b = (t.data for t in fc.kernel())
    if values.ndim != 2 or a.shape != (values.shape[1], lookback, horizon):
        raise ShapeError(f"split_metrics: values {values.shape} do not match kernel {a.shape} "
                         f"for lookback {lookback} and horizon {horizon}")
    view = np.lib.stride_tricks.sliding_window_view(values, lookback + horizon, axis=0)
    end = int(origins[-1]) - lookback + 1  # one past the last window's row of view
    starts = list(range(int(origins[0]) - lookback, end, batch_size))
    sums = {}

    def score(lo):
        hi = min(lo + batch_size, end)
        diff = _chunk_forecast(view, lo, hi, lookback, a, b)
        np.subtract(diff, view[lo:hi, :, lookback:].transpose(0, 2, 1), out=diff)
        sums[lo] = error_sums(diff)

    pool.drain(starts, score)
    acc = MetricsAccumulator()
    for lo in starts:
        acc.add_sums(sums[lo])
    return acc.finalize()


class EarlyStopper:
    """Strict-improvement early stopping with best-state restoration."""

    def __init__(self, patience: int):
        self.patience = patience
        self.best = math.inf
        self.best_epoch = 0
        self.bad = 0

    def update(self, epoch: int, val: float) -> tuple[bool, bool]:
        """Returns (improved, stop)."""
        if val < self.best:
            self.best = val
            self.best_epoch = epoch
            self.bad = 0
            return True, False
        self.bad += 1
        return False, self.bad >= self.patience


@dataclass
class TrainResult:
    checkpoint_path: str
    log: list[dict]
    best_epoch: int
    best_val_mse: float | None
    periods: tuple[int, ...]


def train(run: RunConfig, out_path) -> TrainResult:
    """Shuffled mini-batch Adam with early stopping on validation MSE.

    The checkpoint always holds the best-validation parameters, not the
    last ones.  Everything downstream of (seed, config, data) is
    deterministic, including batch order.
    """
    ds = load_dataset(run)
    std = Standardizer.fit(ds.values[:ds.train_end], strict=not run.fill_missing)
    values = std.apply(ds.values)

    resolved: tuple[int, ...] = ()
    if run.model == "mppn":
        resolved = resolve_periods(run, values[:ds.train_end])
    fc = build_forecaster(run, ds.channels, resolved)

    params = [t for _, t in fc.named_parameters()]
    history: list[dict] = []
    best_epoch = 0
    best_val: float | None = None

    if params:
        train_origins = window_origins(ds, run.lookback, run.horizon, "train")
        val_origins = window_origins(ds, run.lookback, run.horizon, "val")
        opt = Adam(params, lr=run.lr, weight_decay=run.weight_decay)
        stopper = EarlyStopper(run.patience)
        snapshot = [p.data.copy() for p in params]
        for epoch in range(1, run.max_epochs + 1):
            perm = SplitMix64(derive(run.seed, "shuffle", epoch)).permutation(len(train_origins))
            shuffled = train_origins[perm]
            sq_sum = 0.0
            n_elem = 0
            for step, (inp, tgt, _) in enumerate(
                    iter_batches(values, shuffled, run.lookback, run.horizon, run.batch_size)):
                opt.zero_grad()
                out = fc.forward_batch(Tensor(inp))
                loss = T.mse_loss(out, Tensor(tgt))
                lv = float(loss.data)
                if not math.isfinite(lv):
                    raise DivergenceError(f"training loss non-finite at epoch {epoch}, step {step}")
                T.backward(loss)
                opt.step()
                sq_sum += lv * out.size
                n_elem += out.size
            val = split_metrics(fc, values, val_origins, run.lookback, run.horizon,
                                run.batch_size).mse
            history.append({"epoch": epoch, "train_mse": sq_sum / n_elem, "val_mse": val})
            log.info("epoch %d: train %.6f val %.6f", epoch, sq_sum / n_elem, val)
            improved, stop = stopper.update(epoch, val)
            if improved:
                snapshot = [p.data.copy() for p in params]
            if stop:
                break
        for p, best_data in zip(params, snapshot):
            p.data = best_data
        best_epoch = stopper.best_epoch
        best_val = stopper.best if history else None

    extras = {
        "channels": ds.channels,
        "channel_names": list(ds.names),
        "resolved_periods": list(resolved),
    }
    save_checkpoint(out_path, config_blob(run, extras),
                    [(name, t.data) for name, t in fc.named_parameters()])
    return TrainResult(str(out_path), history, best_epoch, best_val, resolved)


def _restore_checkpoint(ckpt_path):
    config_text, tensors = load_checkpoint(ckpt_path)
    try:
        run, extras = RunConfig.from_text(config_text)
    except ConfigError as exc:
        raise FormatError(f"checkpoint: config text does not parse: {exc}") from None
    return run, extras, restore_forecaster(run, extras, tensors)


def _open_checkpoint(ckpt_path, data_path=None):
    run, extras, fc = _restore_checkpoint(ckpt_path)
    if data_path:
        run.data = str(data_path)
    ds = load_dataset(run)
    if ds.channels != extras["channels"]:
        raise ConfigError(
            f"dataset has {ds.channels} channels, checkpoint was trained on {extras['channels']}")
    std = Standardizer.fit(ds.values[:ds.train_end], strict=not run.fill_missing)
    return run, extras, ds, std, fc


def evaluate(ckpt_path, data_path=None, split: str = "test", batch_size: int | None = None):
    """Metrics over every window of a split, on the standardized scale;
    batch_size defaults to the run's."""
    run, _, ds, std, fc = _open_checkpoint(ckpt_path, data_path)
    values = std.apply(ds.values)
    origins = window_origins(ds, run.lookback, run.horizon, split)
    return split_metrics(fc, values, origins, run.lookback, run.horizon,
                         run.batch_size if batch_size is None else batch_size)


def forecast(ckpt_path, data_path=None, origin: int | None = None, standardized: bool = False):
    """Predict one window; returns (values [H, C], names, origin index).

    The origin is the index of the first predicted step; it defaults to
    the first test-split origin.  Predictions are mapped back to the
    original scale unless ``standardized`` is set.
    """
    run, extras, ds, std, fc = _open_checkpoint(ckpt_path, data_path)
    values = std.apply(ds.values)
    if origin is None:
        origin = int(window_origins(ds, run.lookback, run.horizon, "test")[0])
    if not (run.lookback <= origin <= ds.length - run.horizon):
        raise ConfigError(
            f"origin {origin} outside [{run.lookback}, {ds.length - run.horizon}]")
    window = values[origin - run.lookback:origin]
    with T.no_grad():
        pred = fc.forward_batch(Tensor(window[None])).data[0]
    if not standardized:
        pred = std.invert(pred)
    return pred, extras["channel_names"], origin


def analyze(data_path, q_values, binning: str, top_k: int, periods_override,
            split_scheme: str, date_column: bool = True, fill_missing: bool = False) -> dict:
    """Predictability of the raw series for each bin count in the list
    q_values (a sweep when it holds more than one) plus detected or
    overridden periods (standardized training split).  An override
    period must be at least 2 and at most the series length, the bounds
    FFT detection keeps to.  A series shorter than 2 rows, or, without an
    override, one whose training split is shorter than MIN_SPECTRUM_ROWS,
    is a DataError raised before any analysis runs."""
    if not q_values:
        raise ConfigError("analyze: need at least one bin count Q")
    if periods_override and min(periods_override) < 2:
        raise ConfigError(f"analyze: periods must be >= 2, got {list(periods_override)}")
    ds = load_csv(data_path, strict=not fill_missing, date_column=date_column)
    if ds.length < 2:
        raise DataError(f"analyze: the series has {ds.length} row(s); predictability needs "
                        "at least 2")
    split_ds = None if periods_override else chronological_split(ds, split_scheme)
    if split_ds is not None and split_ds.train_end < MIN_SPECTRUM_ROWS:
        raise DataError(f"analyze: the series has {ds.length} rows, so its training split has "
                        f"{split_ds.train_end}; FFT period detection needs a training split of "
                        f"at least {MIN_SPECTRUM_ROWS} rows (pass --periods to skip detection)")
    if periods_override and max(periods_override) > ds.length:
        raise ConfigError(f"analyze: period {max(periods_override)} is longer than the series "
                          f"({ds.length} rows)")

    reports = [r.to_dict() for r in dataset_predictability(ds, list(q_values), binning)]
    predict_part = reports[0] if len(reports) == 1 else {"sweep": reports}

    if periods_override:
        period_part = {
            "source": "override",
            "k": len(periods_override),
            "items": [{"period": int(p), "frequency": None, "amplitude": None}
                      for p in periods_override],
        }
    else:
        std = Standardizer.fit(split_ds.values[:split_ds.train_end], strict=False)
        pset = detect_periods(std.apply(split_ds.values[:split_ds.train_end]), top_k)
        period_part = {"source": "fft", **pset.to_dict()}

    return {"predictability": predict_part, "periods": period_part}


def export_gate_matrix(ckpt_path) -> tuple[list[str], np.ndarray]:
    """Channel names and the sigmoid gate matrix from an MPPN checkpoint."""
    run, extras, fc = _restore_checkpoint(ckpt_path)
    if run.model != "mppn":
        raise ConfigError(f"gates: checkpoint holds a '{run.model}' model, not mppn")
    return list(extras["channel_names"]), model.export_gates(fc.params)


def export_kernel(ckpt_path) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Channel names and the composed kernel (A [C, L, H], b [C, H]) of a
    checkpoint."""
    _, extras, fc = _restore_checkpoint(ckpt_path)
    with T.no_grad():
        a, b = fc.kernel()
    return list(extras["channel_names"]), a.data, b.data
