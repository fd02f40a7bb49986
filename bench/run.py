"""Benchmark of the mppn toolkit at ETTh1 geometry.

Run from the repository root:

    python3 bench/run.py --workload train --seed 0 --seconds 30 --trace 0

Workloads are ``train``, ``infer`` and ``analyze`` (see bench/README.md for
why each exists).  The seed picks one of ``VARIANTS`` recorded input sets:
a synthetic 7-channel series with tones at periods 24 and 168 plus noise,
the model initialisation and the batch order all derive from it, and every
operation's output is checked against bench/reference.json.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones.  With ``--trace 1`` rounds alternate
untraced and traced, the spans are written under bench/out/, and the
metrics are the per-layer ones.  The line before the last holds the machine
record, every workload measurement under its own name with unit and sample
count, and the exact counts.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread: on shared vCPUs a two-thread product waits for the slower
# vCPU, which stalled the same matrix products up to 8x on the 2-vCPU VM
# this was built on, while one thread slows only with its own vCPU.
BLAS_THREADS = 1

if __name__ == "__main__":
    # the package is always the checkout's own source, never an installed copy
    if not (REPO_ROOT / "src" / "mppn" / "__init__.py").is_file():
        sys.exit(f"bench: no mppn package under {REPO_ROOT / 'src'}; run from a repository checkout")
    # must precede the first numpy import, which sizes the BLAS thread pool
    for _var in BLAS_THREAD_VARS:
        os.environ[_var] = str(BLAS_THREADS)

_import_start = time.perf_counter()
import numpy as np  # noqa: E402

sys.path.insert(0, str(REPO_ROOT / "src"))
from mppn import (baselines, checkpoint, data, model, optim, periods,  # noqa: E402
                  predictability, rng, synth, training)
from mppn import tensor as T  # noqa: E402

IMPORT_S = time.perf_counter() - _import_start

from tracing import Tracer, root_of, self_times  # noqa: E402

# ---------------------------------------------------------------------------
# reference geometry: ETTh1 shape, the paper's MPPN settings, DLinear window 25

ROWS = 17420
NAMES = ("HUFL", "HULL", "MUFL", "MULL", "LUFL", "LULL", "OT")
CHANNELS = len(NAMES)
TONE_PERIODS = (24, 168)
NOISE_SD = 0.3
LOOKBACK, HORIZON, HIDDEN, BATCH = 336, 96, 48, 32
RESOLUTIONS = (1, 3, 4, 6)
MA_WINDOW = 25
KINDS = ("mppn", "dlinear", "nlinear")
TRAIN_KINDS = ("mppn", "dlinear")
Q_SWEEP = (5, 10, 20, 50)
TOP_K = 2

VARIANTS = 16  # seeds map onto this many recorded input sets
EPISODE_STEPS = 8  # training steps per episode; reference losses cover exactly these
SETUP_REPEATS = 3
# ETT test split is rows [ROWS*8//10, ROWS); forecast at 12 origins spread across it
FORECAST_ORIGINS = tuple(ROWS * 8 // 10 + i * (ROWS - HORIZON - ROWS * 8 // 10) // 11 for i in range(12))

# Float tolerance of every reference check.  It passes when float64
# reductions are reordered (one BLAS thread instead of two) and fails when a
# gradient is wrong: a mutated mul or linear backward fails 7 of every 8
# training steps, all but the first of each episode.
RTOL = 1e-9
ATOL = 1e-10

# Speed calibration.  The machine this benchmark was built on is a shared
# 2-vCPU VM whose speed drifts by up to a third over minutes: the same
# forecast call has a 30-second median anywhere from 0.18 s to 0.34 s.  Each
# run therefore times fixed kernels about twice a second between operations,
# and reports each time or rate scaled to a machine on which the kernel that
# does work like it takes its ``ref_s`` (about what it takes on that VM at
# its usual speed).  Raw values are in the detail line.  See bench/README.md.
CAL_INTERVAL_S = 0.5

REFERENCE_PATH = BENCH_DIR / "reference.json"
OUT_DIR = BENCH_DIR / "out"


# ---------------------------------------------------------------------------
# inputs

def make_series(variant: int) -> np.ndarray:
    """[ROWS, CHANNELS] tones at periods 24 and 168 with per-channel
    amplitude and phase, plus gaussian noise."""
    r = rng.SplitMix64(rng.derive(variant, "bench-series"))
    amp = r.uniform(0.5, 1.5, (CHANNELS, len(TONE_PERIODS)))
    phase = r.uniform(0.0, 2.0 * math.pi, (CHANNELS, len(TONE_PERIODS)))
    tones = [[synth.ToneSpec(float(amp[c, j]), p, float(phase[c, j]))
              for j, p in enumerate(TONE_PERIODS)] for c in range(CHANNELS)]
    return synth.generate(tones, trend=0.0, noise_sd=NOISE_SD, timesteps=ROWS, seed=variant)


def run_config(kind: str, csv_path, variant: int) -> training.RunConfig:
    return training.RunConfig(
        model=kind, data=str(csv_path), split_scheme="ett", lookback=LOOKBACK, horizon=HORIZON,
        hidden=HIDDEN, resolutions=RESOLUTIONS, periods=TONE_PERIODS if kind == "mppn" else None,
        moving_average=MA_WINDOW, batch_size=BATCH, seed=variant)


def resolved_periods(run: training.RunConfig) -> tuple[int, ...]:
    return tuple(run.periods) if run.model == "mppn" else ()


def save_model(fc, run: training.RunConfig, path: Path) -> None:
    """Write a model's checkpoint the way training.train writes it."""
    extras = {"channels": CHANNELS, "channel_names": list(NAMES),
              "resolved_periods": list(resolved_periods(run))}
    checkpoint.save_checkpoint(path, training.config_blob(run, extras),
                               [(name, t.data) for name, t in fc.named_parameters()])


class Inputs:
    """The generated CSV and, for inference, one freshly initialised
    checkpoint per kind."""

    def __init__(self, workdir: Path, variant: int, with_checkpoints: bool):
        self.variant = variant
        self.workdir = workdir
        self.values = make_series(variant)
        self.csv = workdir / "series.csv"
        synth.write_csv(self.csv, self.values, list(NAMES))
        self.ckpt: dict[str, Path] = {}
        if with_checkpoints:
            for kind in KINDS:
                run = run_config(kind, self.csv, variant)
                self.ckpt[kind] = workdir / f"{kind}.ckpt"
                save_model(training.build_forecaster(run, CHANNELS, resolved_periods(run)), run,
                           self.ckpt[kind])


# ---------------------------------------------------------------------------
# the training path, step for step as training.train takes it

def prepare_training(run: training.RunConfig):
    """The data steps training.train takes before its first epoch."""
    ds = training.load_dataset(run)
    std = data.Standardizer.fit(ds.values[:ds.train_end], strict=not run.fill_missing)
    values = std.apply(ds.values)
    origins = data.window_origins(ds, run.lookback, run.horizon, "train")
    return ds, values, origins


def epoch_batches(run: training.RunConfig, values, origins, epoch: int, limit: int | None = None):
    """training.train's batch order for one epoch, optionally only its
    first ``limit`` batches."""
    perm = rng.SplitMix64(rng.derive(run.seed, "shuffle", epoch)).permutation(len(origins))
    shuffled = origins[perm]
    if limit is not None:
        shuffled = shuffled[:limit * run.batch_size]
    return data.iter_batches(values, shuffled, run.lookback, run.horizon, run.batch_size)


class Trainer:
    """One freshly initialised model and its optimizer."""

    def __init__(self, run: training.RunConfig, channels: int):
        self.fc = training.build_forecaster(run, channels, resolved_periods(run))
        self.opt = optim.Adam([t for _, t in self.fc.named_parameters()],
                              lr=run.lr, weight_decay=run.weight_decay)

    def step(self, inp, tgt) -> float:
        """zero_grad, forward, mse, backward, Adam; returns the loss."""
        self.opt.zero_grad()
        out = self.fc.forward_batch(T.Tensor(inp))
        loss = T.mse_loss(out, T.Tensor(tgt))
        value = float(loss.data)
        T.backward(loss)
        self.opt.step()
        return value


def episode_losses(inputs: Inputs, kind: str) -> list[float]:
    """Losses of the first EPISODE_STEPS steps of epoch 1 from a fresh model."""
    run = run_config(kind, inputs.csv, inputs.variant)
    _, values, origins = prepare_training(run)
    trainer = Trainer(run, CHANNELS)
    return [trainer.step(inp, tgt)
            for inp, tgt, _ in epoch_batches(run, values, origins, 1, limit=EPISODE_STEPS)]


def fidelity_check(workdir: Path) -> bool:
    """One epoch of the bench's loop on a tiny series leaves every parameter
    bit-identical to what training.train saves, for each trained kind."""
    values = synth.generate([[synth.ToneSpec(1.0, 12)], [synth.ToneSpec(0.5, 24, 1.0)]],
                            trend=0.0, noise_sd=0.1, timesteps=480, seed=5)
    csv = workdir / "tiny.csv"
    synth.write_csv(csv, values)
    for kind in TRAIN_KINDS:
        run = training.RunConfig(model=kind, data=str(csv), split_scheme="ett", lookback=48,
                                 horizon=12, hidden=8, resolutions=(1, 3),
                                 periods=(12, 24) if kind == "mppn" else None,
                                 moving_average=7, batch_size=16, max_epochs=1, seed=5)
        training.train(run, workdir / "tiny.ckpt")
        _, saved = checkpoint.load_checkpoint(workdir / "tiny.ckpt")
        _, vals, origins = prepare_training(run)
        trainer = Trainer(run, values.shape[1])
        for inp, tgt, _ in epoch_batches(run, vals, origins, 1):
            trainer.step(inp, tgt)
        params = dict(trainer.fc.named_parameters())
        if set(params) != set(saved) or not all(np.array_equal(saved[n], params[n].data) for n in saved):
            return False
    return True


# ---------------------------------------------------------------------------
# output summaries, compared against the recorded reference

def evaluate_summary(m) -> list:
    return [m.mse, m.mae, m.windows]


def forecast_summary(pred: np.ndarray) -> list:
    """L1 norm, squared norm and a position-weighted sum of one forecast."""
    weights = np.cos(np.arange(pred.size, dtype=np.float64)).reshape(pred.shape)
    return [list(pred.shape), float(np.abs(pred).sum()), float((pred * pred).sum()),
            float((pred * weights).sum())]


def analyze_summary(report: dict) -> dict:
    """Periods, and per Q and channel the entropy rate, the integer sum of
    LZ match lengths it was computed from, pi_max and the alphabet size."""
    sweep = []
    for rep in report["predictability"]["sweep"]:
        rows = [[v["S_bits"], round(ROWS * math.log2(ROWS) / v["S_bits"]), v["pi_max"], v["N"]]
                for v in rep["variates"]]
        sweep.append({"Q": rep["Q"], "variates": rows})
    items = [[it["period"], it["frequency"], it["amplitude"]] for it in report["periods"]["items"]]
    return {"periods": items, "sweep": sweep}


def matches(got, ref) -> bool:
    """Integers exactly, floats within RTOL/ATOL, structure exactly."""
    if isinstance(ref, dict):
        return isinstance(got, dict) and got.keys() == ref.keys() and all(
            matches(got[k], ref[k]) for k in ref)
    if isinstance(ref, list):
        return isinstance(got, list) and len(got) == len(ref) and all(
            matches(g, r) for g, r in zip(got, ref))
    if isinstance(ref, int):
        return isinstance(got, int) and got == ref
    return math.isfinite(got) and abs(got - ref) <= RTOL * max(abs(got), abs(ref)) + ATOL


def nlinear_oracle(values: np.ndarray, ckpt_path) -> list:
    """NLinear test-split MSE and MAE in plain numpy from the checkpoint
    arrays: (x - last) @ W + b + last on train-split-standardized data."""
    _, arrays = checkpoint.load_checkpoint(ckpt_path)
    weight, bias = arrays["weight"], arrays["bias"]
    train_end, val_end = ROWS * 6 // 10, ROWS * 8 // 10
    z = (values - values[:train_end].mean(axis=0)) / values[:train_end].std(axis=0)
    origins = np.arange(max(val_end, LOOKBACK), ROWS - HORIZON + 1)
    x = z[origins[:, None] + np.arange(-LOOKBACK, 0)[None, :]]  # [N, L, C]
    y = z[origins[:, None] + np.arange(HORIZON)[None, :]]  # [N, H, C]
    last = x[:, -1:, :]
    pred = np.einsum("nlc,lh->nhc", x - last, weight) + bias[None, :, None] + last
    diff = pred - y
    return [float(np.mean(diff * diff)), float(np.mean(np.abs(diff))), int(len(origins))]


# ---------------------------------------------------------------------------
# run bookkeeping

class ParseCalibration:
    """A fixed kernel whose time tracks the machine's current speed: Python
    float parsing into rows, the work of ``load_csv``, plus BLAS matrix
    products, the work of a forward pass.  Neither touches mppn."""

    ref_s = 0.024

    def __init__(self):
        gen = np.random.default_rng(0)
        self.cells = [repr(float(v)) for v in gen.normal(size=30_000)]
        self.matrix = gen.normal(size=(384, 384))

    def __call__(self) -> float:
        start = time.perf_counter()
        rows = [[float(c) for c in self.cells[i:i + CHANNELS]] for i in range(0, len(self.cells), CHANNELS)]
        for _ in range(4):
            self.matrix @ self.matrix
        del rows
        return time.perf_counter() - start


class ArrayCalibration:
    """A fixed kernel of numpy work at the shapes of an MPPN training step:
    a lookback-to-horizon product over a batch of windows, elementwise
    arithmetic, a sigmoid-like map, a concatenation and a reduction.  It
    touches no mppn code.  Over 10-second windows of training steps its
    median follows the step median with correlation 0.84-0.96 on a shared
    2-vCPU VM, where ParseCalibration's follows with 0.59-0.69."""

    ref_s = 0.0125

    def __init__(self):
        gen = np.random.default_rng(0)
        self.windows = gen.normal(size=(BATCH * CHANNELS, LOOKBACK))
        self.weight = gen.normal(size=(LOOKBACK, HORIZON))
        self.batch = gen.normal(size=(BATCH, CHANNELS, 2 * LOOKBACK))

    def __call__(self) -> float:
        start = time.perf_counter()
        for _ in range(10):
            self.windows @ self.weight
            z = np.tanh(self.batch * 1.5 + 0.5)[:, :, :LOOKBACK]
            np.concatenate([z, z], axis=2).sum()
        return time.perf_counter() - start


KERNELS = {"parse": ParseCalibration, "array": ArrayCalibration}


class Phase:
    """Timing samples, calibration times, windows done and units of work of
    one set of rounds."""

    def __init__(self):
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.calibration: dict[str, list[float]] = defaultdict(list)
        self.windows: dict[str, list[int]] = defaultdict(list)
        self.units = 0

    def speeds(self) -> dict[str, float]:
        """Per kernel, its reference time over this phase's median time."""
        return {name: KERNELS[name].ref_s / statistics.median(times)
                for name, times in self.calibration.items()}


class Run:
    """Counters, the untraced and traced phases, and the tracer while a
    traced round runs."""

    def __init__(self, reference: dict, kernels):
        self.ref = reference
        self.tracer: Tracer | None = None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.untraced = Phase()
        self.traced = Phase()
        self.phase = self.untraced
        self.kernels = {name: KERNELS[name]() for name in kernels}
        self._last_calibration = -math.inf

    def calibrate(self, force: bool = False) -> None:
        """Time the calibration kernels if CAL_INTERVAL_S has passed since the last time."""
        if force or time.perf_counter() - self._last_calibration >= CAL_INTERVAL_S:
            for name, kernel in self.kernels.items():
                self.phase.calibration[name].append(kernel())
            self._last_calibration = time.perf_counter()

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    def op(self, name: str, fn, expected, summarize=lambda r: r, timed: bool = True):
        """Run and time one operation.  It fails if it raises or if its
        summarized output does not match ``expected``.  Returns the
        summary, or None if it raised."""
        self.attempted += 1
        if timed:
            self.calibrate()
        span = self.tracer.span(name) if self.tracer else nullcontext()
        with span:
            start = time.perf_counter()
            try:
                result = fn()
            except Exception as exc:  # a failed operation is counted, not fatal
                self.fail(f"{name}: {type(exc).__name__}: {exc}")
                return None
            elapsed = time.perf_counter() - start
        if timed:
            self.phase.samples[name].append(elapsed)
        got = summarize(result)
        if not matches(got, expected):
            self.fail(f"{name}: output {got!r} != reference {expected!r}")
        return got


# ---------------------------------------------------------------------------
# workloads: setup() runs SETUP_REPEATS times, round() until the time is up,
# after() runs the checks that need the whole run

class TrainWorkload:
    """Shuffled mini-batch steps of epoch 1, MPPN then DLinear on the same
    batches, each model saved after its steps.  Each episode starts from a
    fresh model, so every step's loss has a recorded reference."""

    primary = "train_step.mppn"
    # a step is numpy array work; see ArrayCalibration
    latency_kernel = work_kernel = "array"
    sampled = ("train_step.mppn", "train_step.dlinear")

    def __init__(self, run: Run, inputs: Inputs):
        self.run = run
        self.workdir = inputs.workdir
        self.configs = {k: run_config(k, inputs.csv, inputs.variant) for k in TRAIN_KINDS}

    def setup(self) -> None:
        """Load, standardize, build both models and take one warm-up step each."""
        _, self.values, self.origins = prepare_training(self.configs["mppn"])
        for kind in TRAIN_KINDS:
            trainer = Trainer(self.configs[kind], CHANNELS)
            inp, tgt, _ = next(epoch_batches(self.configs[kind], self.values, self.origins, 1, limit=1))
            self.run.op(f"warmup.{kind}", lambda: trainer.step(inp, tgt),
                        self.run.ref["train"][kind][0], timed=False)

    def round(self) -> None:
        for kind in TRAIN_KINDS:
            trainer = Trainer(self.configs[kind], CHANNELS)
            batches = epoch_batches(self.configs[kind], self.values, self.origins, 1,
                                    limit=EPISODE_STEPS)
            for i in range(EPISODE_STEPS):
                def step():
                    inp, tgt, _ = next(batches)
                    return trainer.step(inp, tgt)
                if self.run.op(f"train_step.{kind}", step, self.run.ref["train"][kind][i]) is not None:
                    self.run.phase.windows[f"train_step.{kind}"].append(BATCH)
            # as training.train ends, between timed steps
            save_model(trainer.fc, self.configs[kind], self.workdir / f"trained-{kind}.ckpt")
        self.run.phase.units += EPISODE_STEPS

    def after(self, workdir: Path) -> None:
        """The fidelity check, counted as one more operation."""
        self.run.attempted += 1
        if not fidelity_check(workdir):
            self.run.fail("fidelity: the bench's training loop diverged from training.train")

    def work_per_s(self, phase: Phase) -> float:
        """MPPN training windows per second of step time."""
        return sum(phase.windows[self.primary]) / sum(phase.samples[self.primary])


class InferWorkload:
    """Evaluate every test window for each kind and forecast at fixed
    origins; each call reloads the CSV and the checkpoint."""

    primary = "forecast"
    # a forecast is mostly CSV parsing, an MPPN evaluate is array work.  Over
    # 10 runs, MPPN evaluate throughput spread 12% raw, 25% scaled by
    # ParseCalibration and 11% by ArrayCalibration.
    latency_kernel, work_kernel = "parse", "array"
    sampled = ("evaluate.mppn", "evaluate.dlinear", "evaluate.nlinear", "forecast")

    def __init__(self, run: Run, inputs: Inputs):
        self.run = run
        self.inputs = inputs
        self.nlinear_results: list[list] = []

    def _forecast(self, kind: str, origin: int, timed: bool = True) -> None:
        self.run.op("forecast", lambda: training.forecast(self.inputs.ckpt[kind], origin=origin)[0],
                    self.run.ref["forecast"][kind][str(origin)], forecast_summary, timed=timed)

    def setup(self) -> None:
        """One forecast per kind, untimed."""
        for kind in KINDS:
            self._forecast(kind, FORECAST_ORIGINS[0], timed=False)

    def _evaluate(self, kind: str) -> None:
        got = self.run.op(f"evaluate.{kind}", lambda: training.evaluate(self.inputs.ckpt[kind]),
                          self.run.ref["evaluate"][kind], evaluate_summary)
        if got is not None:
            self.run.phase.windows[f"evaluate.{kind}"].append(got[2])
            if kind == "nlinear":
                self.nlinear_results.append(got)

    def _forecast_all(self) -> None:
        for origin in FORECAST_ORIGINS:
            for kind in KINDS:
                self._forecast(kind, origin)

    def round(self) -> None:
        # every forecast before and again after the long MPPN evaluate, so
        # the samples span the round rather than one stretch of it
        self._forecast_all()
        self._evaluate("mppn")
        self._forecast_all()
        self._evaluate("dlinear")
        self._evaluate("nlinear")
        self.run.phase.units += 1

    def after(self, workdir: Path) -> None:
        """The independent NLinear oracle, checked against every evaluate."""
        oracle = nlinear_oracle(self.inputs.values, self.inputs.ckpt["nlinear"])
        for got in self.nlinear_results:
            # a result that already failed its reference check is not counted twice
            if matches(got, self.run.ref["evaluate"]["nlinear"]) and not matches(got, oracle):
                self.run.fail(f"evaluate.nlinear: {got!r} != numpy oracle {oracle!r}")
        self.nlinear_results.clear()

    def work_per_s(self, phase: Phase) -> float:
        """MPPN evaluated windows per second of evaluate time."""
        return sum(phase.windows["evaluate.mppn"]) / sum(phase.samples["evaluate.mppn"])


class AnalyzeWorkload:
    """training.analyze on the full series: Q sweep and FFT top-k periods."""

    primary = "analyze"
    # Python loops over numpy scalars: ParseCalibration followed 6-call
    # windows of analyze with correlation 0.93, ArrayCalibration with 0.82
    latency_kernel = work_kernel = "parse"
    sampled = ("analyze",)

    def __init__(self, run: Run, inputs: Inputs):
        self.run = run
        self.inputs = inputs

    def setup(self) -> None:
        """Load the series and mine its periods once, untimed."""
        ds = data.chronological_split(data.load_csv(self.inputs.csv), "ett")
        std = data.Standardizer.fit(ds.values[:ds.train_end])
        periods.detect_periods(std.apply(ds.values[:ds.train_end]), TOP_K)

    def round(self) -> None:
        self.run.op("analyze", lambda: training.analyze(self.inputs.csv, list(Q_SWEEP), "equal-frequency",
                                                        TOP_K, None, "ett"),
                    self.run.ref["analyze"], analyze_summary)
        self.run.phase.units += 1

    def after(self, workdir: Path) -> None:
        """Nothing: every analyze call was checked as it ran."""

    def work_per_s(self, phase: Phase) -> float:
        """Series values analyzed per second: rows x channels x Q values per call."""
        calls = phase.samples[self.primary]
        return ROWS * CHANNELS * len(Q_SWEEP) * len(calls) / sum(calls)


WORKLOADS = {"train": TrainWorkload, "infer": InferWorkload, "analyze": AnalyzeWorkload}


def measure(workload, seconds: float, tracer: Tracer | None = None) -> None:
    """Whole rounds for about ``seconds``: another round starts only if the
    last one's duration says it would end less than half a round late.

    Without a tracer every round is untraced and at least one runs.  With
    one, rounds alternate untraced and traced, at least one of each, so
    that drift in machine speed falls on both phases alike.
    """
    run = workload.run
    deadline = time.perf_counter() + seconds
    rounds = 0
    while True:
        traced = tracer is not None and rounds % 2 == 1
        run.phase = run.traced if traced else run.untraced
        if traced:
            install_tracer(tracer)
            run.tracer = tracer
        start = time.perf_counter()
        try:
            workload.round()
        finally:
            if traced:
                tracer.uninstall()
                run.tracer = None
        rounds += 1
        now = time.perf_counter()
        if now + (now - start) / 2 > deadline and (tracer is None or rounds >= 2):
            break
    run.phase = run.untraced
    phases = (run.untraced, run.traced) if tracer else (run.untraced,)
    missing = {name for phase in phases for name in workload.sampled if not phase.samples[name]}
    if missing:
        # nothing to report a time for: fail the run without a result line
        sys.exit(f"bench: every {', '.join(sorted(missing))} raised; failures: {run.failures}")


# ---------------------------------------------------------------------------
# statistics and metrics

def tail(samples: list[float]) -> tuple[float, float]:
    """Value and percentile of the highest percentile with at least ten
    samples beyond it; below 20 samples that is no higher than the median,
    so the median is returned."""
    q = max(0.5, 1.0 - 10.0 / len(samples))
    return float(np.quantile(samples, q)), 100.0 * q


def op_stats(samples: list[float]) -> dict:
    value, pct = tail(samples)
    return {"p50_ms": 1e3 * statistics.median(samples), "tail_ms": 1e3 * value,
            "tail_percentile": pct, "min_ms": 1e3 * min(samples), "samples": len(samples)}


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_ms.p50": "ms",
    "op_ms.tail": "ms",
    "work_per_s": "1/s",
}


def end_to_end(workload, phase: Phase, setup_s: float, rss: float, speeds: dict | None) -> dict:
    """The end-to-end metrics, set-up and latencies scaled by the speed of
    the workload's latency kernel and throughput by that of its work
    kernel; raw when ``speeds`` is None."""
    lat, work = (speeds[workload.latency_kernel], speeds[workload.work_kernel]) if speeds else (1.0, 1.0)
    stats = op_stats(phase.samples[workload.primary])
    return {"setup_s": setup_s * lat, "peak_rss_mb": rss, "op_ms.p50": stats["p50_ms"] * lat,
            "op_ms.tail": stats["tail_ms"] * lat, "work_per_s": workload.work_per_s(phase) / work}


def named_measurements(name: str, run: Run, setup_s: float, rss: float, speed: float) -> dict:
    """Every measurement of the workload under its own name, with unit and
    sample count, from the untraced rounds; times and rates also scaled by
    ``speed``."""
    s, windows = run.untraced.samples, run.untraced.windows

    def entry(value, unit, samples, **more):
        return {"value": value, "unit": unit, "samples": samples, **more}

    def latency(prefix, key):
        st = op_stats(s[key])
        return {f"{prefix}.p50": entry(st["p50_ms"], "ms", st["samples"], scaled=st["p50_ms"] * speed),
                f"{prefix}.tail": entry(st["tail_ms"], "ms", st["samples"], scaled=st["tail_ms"] * speed,
                                        percentile=st["tail_percentile"])}

    def rate(key):
        return entry(sum(windows[key]) / sum(s[key]), "1/s", len(s[key]))

    out = {"setup_s": entry(setup_s, "s", SETUP_REPEATS, scaled=setup_s * speed),
           "peak_rss_mb": entry(rss, "MB", 1),
           "error_rate": entry(run.failed / run.attempted, "ratio", run.attempted)}
    if name == "train":
        for kind in TRAIN_KINDS:
            out[f"train_windows_per_s.{kind}"] = rate(f"train_step.{kind}")
            out.update(latency(f"train_step_ms.{kind}", f"train_step.{kind}"))
    elif name == "infer":
        for kind in KINDS:
            out[f"eval_windows_per_s.{kind}"] = rate(f"evaluate.{kind}")
        out.update(latency("forecast_ms", "forecast"))
    else:
        value = statistics.median(s["analyze"])
        out["analyze_s"] = entry(value, "s", len(s["analyze"]), scaled=value * speed)
    return out


# ---------------------------------------------------------------------------
# tracing: which functions are wrapped, and the per-layer metrics

TENSOR_OPS = {"conv1d": "conv1d", "linear": "linear", "concat": "concat", "transpose": "transpose",
              "reshape": "reshape", "mul": "mul", "sigmoid": "sigmoid", "slice": "slice_axis",
              "pad_edge": "pad_edge", "mse": "mse_loss", "sub": "sub", "add": "add"}
LAYERS = ("data", "rng", "model", "baselines", "tensor", "optim", "checkpoint", "periods",
          "predictability", "training")


def _tape_count(rec, args, kwargs, result) -> None:
    # an op records a tape node exactly when its output requires grad
    rec["tape"] = bool(result.requires_grad)


def _conv_counts(rec, args, kwargs, result) -> None:
    """Forward FLOPs and bytes touched, computed from shapes."""
    _tape_count(rec, args, kwargs, result)
    x, w = args[0], args[1]
    c_out, c_in, k = w.shape
    out_elems = result.size
    rec["flop"] = 2 * out_elems * c_in * k
    rec["bytes"] = 8 * (x.size + w.size + c_out + out_elems)


def _name_nograd(rec, args, kwargs, result) -> None:
    if not result.requires_grad:
        rec["name"] += "_nograd"


def _name_kind(rec, args, kwargs, result) -> None:
    rec["name"] += "." + Path(args[0]).stem


def _file_bytes(rec, args, kwargs, result) -> None:
    rec["bytes"] = Path(args[0]).stat().st_size


def install_tracer(tracer: Tracer) -> None:
    for op, fn in TENSOR_OPS.items():
        tracer.wrap(T, fn, f"tensor.{op}", _conv_counts if op == "conv1d" else _tape_count)
    tracer.wrap(T, "broadcast_mul", "tensor.broadcast_mul")
    tracer.wrap(T, "backward", "tensor.backward")
    tracer.wrap(optim.Adam, "step", "optim.adam_step")
    tracer.wrap(optim.Adam, "zero_grad", "optim.zero_grad")
    tracer.wrap(model, "forward_batch", "model.forward_batch", _name_nograd)
    tracer.wrap(model, "channel_adapt", "model.channel_adapt")
    tracer.wrap(model.MPPNParams, "init", "model.init")
    tracer.wrap(baselines, "dlinear_forward", "baselines.dlinear_forward")
    tracer.wrap(baselines, "nlinear_forward", "baselines.nlinear_forward")
    tracer.wrap(baselines, "moving_average_decompose", "baselines.moving_average_decompose")
    tracer.wrap(baselines.NLinearParams, "init", "baselines.init")
    tracer.wrap(baselines.DLinearParams, "init", "baselines.init")
    for fn in ("load_csv", "chronological_split", "window_origins", "iter_batches"):
        tracer.wrap(data, fn, f"data.{fn}")
    for meth in ("fit", "apply", "invert"):
        tracer.wrap(data.Standardizer, meth, "data.standardize")
    for meth in ("add", "finalize"):
        tracer.wrap(data.MetricsAccumulator, meth, "data.metrics")
    tracer.wrap(rng.SplitMix64, "permutation", "rng.permutation")
    tracer.wrap(rng.SplitMix64, "uniform", "rng.uniform")
    tracer.wrap(checkpoint, "save_checkpoint", "checkpoint.save", _file_bytes)
    tracer.wrap(checkpoint, "load_checkpoint", "checkpoint.load", _file_bytes)
    tracer.wrap(periods, "detect_periods", "periods.detect")
    for fn in ("discretize", "lz_match_lengths", "lz_entropy_rate", "dataset_predictability"):
        tracer.wrap(predictability, fn, f"predictability.{fn}")
    tracer.wrap(predictability, "fano_upper_bound", "predictability.fano")
    tracer.wrap(training, "evaluate", "training.evaluate", _name_kind)
    for fn in ("forecast", "analyze", "build_forecaster", "restore_forecaster", "load_dataset"):
        tracer.wrap(training, fn, f"training.{fn}")


def per_layer(spans: list[dict], units: int, primary: str, untraced_p50_ms: float,
              traced_p50_ms: float) -> dict:
    """Per-layer metrics of the traced rounds.  Times and counts are per
    unit of the workload (train: one batch, stepped by MPPN and by DLinear;
    infer: one round of evaluates and forecasts; analyze: one call).  The
    medians are raw: traced and untraced rounds alternate, so drift in
    machine speed falls on both alike."""
    own = self_times(spans)
    roots = root_of(spans)
    self_s, total_s, calls = defaultdict(float), defaultdict(float), defaultdict(int)
    extra = defaultdict(float)
    mppn_steps = {s["id"] for s in spans if s["name"] == "train_step.mppn"}
    tape = defaultdict(int)
    for s, t_own, root in zip(spans, own, roots):
        name = s["name"]
        self_s[name] += t_own
        total_s[name] += s["end"] - s["start"]
        calls[name] += 1
        for key in ("flop", "bytes"):
            if key in s:
                extra[f"{name}.{key}"] += s[key]
        if s.get("tape") and root in mppn_steps:
            tape[name.split(".", 1)[1]] += 1

    def ms(table, name):
        return 1e3 * table[name] / units

    m = {}
    for op in TENSOR_OPS:
        m[f"tensor.{op}.fwd_ms"] = ms(self_s, f"tensor.{op}")
        m[f"tensor.{op}.calls"] = calls[f"tensor.{op}"] / units
    m["tensor.backward_ms"] = ms(self_s, "tensor.backward")
    m["tensor.conv1d.gflop"] = extra["tensor.conv1d.flop"] / units / 1e9
    m["tensor.conv1d.mbytes"] = extra["tensor.conv1d.bytes"] / units / 1e6
    m["optim.adam_step_ms"] = ms(self_s, "optim.adam_step")
    m["optim.zero_grad_ms"] = ms(self_s, "optim.zero_grad")
    m["model.forward_batch_ms"] = ms(total_s, "model.forward_batch")
    m["model.forward_batch_nograd_ms"] = ms(total_s, "model.forward_batch_nograd")
    m["baselines.dlinear_forward_ms"] = ms(total_s, "baselines.dlinear_forward")
    m["baselines.nlinear_forward_ms"] = ms(total_s, "baselines.nlinear_forward")
    m["data.load_csv_ms"] = ms(self_s, "data.load_csv")
    m["data.iter_batches_ms"] = ms(self_s, "data.iter_batches")
    m["data.standardize_ms"] = ms(self_s, "data.standardize")
    m["rng.permutation_ms"] = ms(self_s, "rng.permutation")
    m["checkpoint.load_ms"] = ms(self_s, "checkpoint.load")
    m["checkpoint.save_ms"] = ms(self_s, "checkpoint.save")
    m["checkpoint.bytes"] = (extra["checkpoint.load.bytes"] + extra["checkpoint.save.bytes"]) / units
    m["periods.detect_ms"] = ms(self_s, "periods.detect")
    m["predictability.discretize_ms"] = ms(self_s, "predictability.discretize")
    m["predictability.lz_match_lengths_ms"] = ms(self_s, "predictability.lz_match_lengths")
    m["predictability.fano_ms"] = ms(self_s, "predictability.fano")
    for kind in KINDS:
        m[f"training.evaluate_ms.{kind}"] = ms(self_s, f"training.evaluate.{kind}")
    m["training.forecast_ms"] = ms(self_s, "training.forecast")
    for layer in LAYERS:
        m[f"layer.{layer}.self_ms"] = 1e3 * sum(
            v for k, v in self_s.items() if k.startswith(layer + ".")) / units
    n_steps = max(len(mppn_steps), 1)
    for op in TENSOR_OPS:
        m[f"tape.{op}.per_mppn_step"] = tape[op] / n_steps
    m["tape.ops.per_mppn_step"] = sum(tape.values()) / n_steps
    # share of the untraced primary-op median that layer spans explain
    covered = [s["end"] - s["start"] - own[s["id"]] for s in spans if s["name"] == primary]
    m["trace.step_coverage"] = 1e3 * statistics.median(covered) / untraced_p50_ms
    m["trace.overhead_ms"] = traced_p50_ms - untraced_p50_ms
    m["trace.overhead_share"] = (traced_p50_ms - untraced_p50_ms) / untraced_p50_ms
    return m


PER_LAYER_UNITS = {"fwd_ms": "ms", "calls": "count", "gflop": "GFLOP", "mbytes": "MB",
                   "bytes": "bytes", "per_mppn_step": "count", "step_coverage": "ratio",
                   "overhead_share": "ratio"}


def per_layer_unit(name: str) -> str:
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "ms"


# ---------------------------------------------------------------------------
# machine record and entry point

def machine() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS}}


def load_reference(variant: int) -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        ref = json.load(fh)
    if ref["variants"] != VARIANTS or ref["episode_steps"] != EPISODE_STEPS:
        raise SystemExit(f"bench: {REFERENCE_PATH} was recorded for other settings")
    return ref["reference"][str(variant)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    variant = args.seed % VARIANTS
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        inputs = Inputs(workdir, variant, with_checkpoints=args.workload == "infer")
        kernels = {WORKLOADS[args.workload].latency_kernel, WORKLOADS[args.workload].work_kernel}
        run = Run(load_reference(variant), sorted(kernels))
        workload = WORKLOADS[args.workload](run, inputs)

        setup = []
        for _ in range(SETUP_REPEATS):
            run.calibrate(force=True)
            start = time.perf_counter()
            workload.setup()
            setup.append(time.perf_counter() - start)
        setup_s = IMPORT_S + statistics.median(setup)

        tracer = Tracer(f"{args.workload}-seed{args.seed}-{os.getpid()}") if args.trace else None
        measure(workload, args.seconds, tracer)
        rss = peak_rss_mb()
        speeds = run.untraced.speeds()
        untraced = end_to_end(workload, run.untraced, setup_s, rss, speeds)
        detail = {"workload": args.workload, "seed": args.seed, "variant": variant,
                  "machine": machine(), "import_s": IMPORT_S, "setup_repeats_s": setup,
                  "calibration_s": {k: statistics.median(v) for k, v in run.untraced.calibration.items()},
                  "speeds": speeds,
                  "raw_end_to_end": end_to_end(workload, run.untraced, setup_s, rss, None),
                  "primary": op_stats(run.untraced.samples[workload.primary]),
                  "counts": {"units": run.untraced.units,
                             "windows": {k: sum(v) for k, v in run.untraced.windows.items()}}}
        if tracer:
            traced = end_to_end(workload, run.traced, setup_s, rss, None)
            metrics = per_layer(tracer.spans, run.traced.units, workload.primary,
                                detail["raw_end_to_end"]["op_ms.p50"], traced["op_ms.p50"])
            spans_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
            tracer.write(spans_path)
            detail.update(raw_traced_end_to_end=traced,
                          traced_units=run.traced.units, spans=str(spans_path.relative_to(REPO_ROOT)))
            out = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in metrics.items()}
        else:
            out = {k: {"value": untraced[k], "unit": unit} for k, unit in END_TO_END.items()}

        workload.after(workdir)
        detail["measurements"] = named_measurements(args.workload, run, setup_s, rss,
                                                    speeds[workload.latency_kernel])
        detail["failures"] = run.failures
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps(detail))
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
