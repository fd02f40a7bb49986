"""Record the outputs the benchmark checks every operation against.

    python3 bench/record_reference.py

For each of the benchmark's input variants this runs the calls the
workloads time (training steps from a fresh model, evaluate and forecast on
the seeded checkpoints, analyze) and writes their summaries to
bench/reference.json.  Run it only on a commit whose outputs are trusted;
a change that alters outputs on purpose records again and says so.
"""
from __future__ import annotations

import json
import os
import shutil
import sys

if __name__ == "__main__":
    # the same pinning as run.py; it must precede numpy's import
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import run as bench  # noqa: E402


def record_variant(variant: int, workdir) -> dict:
    inputs = bench.Inputs(workdir, variant, with_checkpoints=True)
    evaluate, forecast = bench.training.evaluate, bench.training.forecast
    return {
        "train": {kind: bench.episode_losses(inputs, kind) for kind in bench.TRAIN_KINDS},
        "evaluate": {kind: bench.evaluate_summary(evaluate(inputs.ckpt[kind])) for kind in bench.KINDS},
        "forecast": {kind: {str(o): bench.forecast_summary(forecast(inputs.ckpt[kind], origin=o)[0])
                            for o in bench.FORECAST_ORIGINS} for kind in bench.KINDS},
        "analyze": bench.analyze_summary(bench.training.analyze(
            inputs.csv, list(bench.Q_SWEEP), "equal-frequency", bench.TOP_K, None, "ett")),
    }


def main() -> int:
    bench.OUT_DIR.mkdir(exist_ok=True)
    workdir = bench.OUT_DIR / f"record-{os.getpid()}"
    workdir.mkdir()
    try:
        reference = {}
        for variant in range(bench.VARIANTS):
            reference[str(variant)] = record_variant(variant, workdir)
            print(f"variant {variant} recorded", file=sys.stderr, flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    doc = {"variants": bench.VARIANTS, "episode_steps": bench.EPISODE_STEPS, "rtol": bench.RTOL,
           "atol": bench.ATOL, "reference": reference}
    with open(bench.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
