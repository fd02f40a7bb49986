"""Command-line interface: analyze, train, eval, forecast, synth, gates, kernel.

Reports go to stdout as JSON; file artifacts (checkpoints, CSVs, the
kernel archive) go where --out says.  Each subcommand declares only the
flags its handler reads, so any other flag is rejected; --config (a
run-config file) belongs to train alone, whose flags each override the
run-config field of the same name.  Exit codes: 0 ok, 2 configuration
error, 3 data error, 4 a training run that diverged.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from pathlib import Path

import numpy as np

from . import synth as synthmod
from . import training
from .data import SPLIT_SCHEMES, write_csv
from .errors import ArgumentError, ConfigError, DataError, DivergenceError
from .training import RunConfig


def _int_list(text: str) -> tuple[int, ...]:
    values = tuple(int(v) for v in text.split(",") if v.strip())
    if not values:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    return values


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="mppn", description=__doc__)
    p.add_argument("-v", "--verbose", action="store_true")
    sub = p.add_subparsers(dest="command", required=True)

    a = sub.add_parser("analyze", help="predictability report and detected periods")
    a.add_argument("--data", type=str, default=None, help="dataset CSV path")
    a.add_argument("--q", type=_int_list, default=(10,), help="bin count, or comma list to sweep")
    a.add_argument("--binning", choices=["equal-frequency", "equal-width"], default="equal-frequency")
    a.add_argument("--top-k", type=int, default=2)
    a.add_argument("--periods", type=_int_list, default=None, help="override, skips detection")
    a.add_argument("--split-scheme", choices=SPLIT_SCHEMES, default="standard")
    a.add_argument("--no-date-column", dest="date_column", action="store_false")
    a.add_argument("--fill-missing", action="store_true")

    # every flag but --config and --out sets the RunConfig field of its dest
    t = sub.add_parser("train", help="fit a model and write a checkpoint")
    t.add_argument("--config", type=str, default=None, help="run-config file (key=value or JSON)")
    t.add_argument("--data", type=str, default=None, help="dataset CSV path")
    t.add_argument("--seed", type=int, default=None, help="run seed")
    t.add_argument("--out", type=str, default=None, help="checkpoint path")
    t.add_argument("--model", choices=training.MODEL_KINDS, default=None)
    t.add_argument("--split-scheme", choices=SPLIT_SCHEMES, default=None)
    t.add_argument("--lookback", type=int, default=None)
    t.add_argument("--horizon", type=int, default=None)
    t.add_argument("--hidden", type=int, default=None)
    t.add_argument("--resolutions", type=_int_list, default=None)
    t.add_argument("--periods", type=_int_list, default=None)
    t.add_argument("--top-k", type=int, default=None)
    t.add_argument("--overlap", action="store_true", default=None)
    t.add_argument("--moving-average", type=int, default=None)
    t.add_argument("--lr", type=float, default=None)
    t.add_argument("--weight-decay", type=float, default=None)
    t.add_argument("--max-epochs", type=int, default=None)
    t.add_argument("--patience", type=int, default=None)
    t.add_argument("--batch-size", type=int, default=None)
    t.add_argument("--no-date-column", dest="date_column", action="store_false", default=None)
    t.add_argument("--fill-missing", action="store_true", default=None)

    e = sub.add_parser("eval", help="metrics of a checkpoint on one split")
    e.add_argument("--data", type=str, default=None, help="dataset CSV path")
    e.add_argument("--ckpt", type=str, required=True)
    e.add_argument("--split", choices=["train", "val", "test"], default="test")
    e.add_argument("--batch-size", type=int, default=None)

    f = sub.add_parser("forecast", help="predictions CSV for one origin")
    f.add_argument("--data", type=str, default=None, help="dataset CSV path")
    f.add_argument("--out", type=str, default=None, help="predictions CSV path")
    f.add_argument("--ckpt", type=str, required=True)
    f.add_argument("--origin", type=int, default=None)
    f.add_argument("--standardized", action="store_true")

    s = sub.add_parser("synth", help="generate a synthetic benchmark CSV")
    s.add_argument("--seed", type=int, default=0, help="noise seed")
    s.add_argument("--out", type=str, default=None, help="CSV path")
    s.add_argument("--spec", type=str, default=None,
                   help="JSON tone spec [[{amplitude,period,phase},..] per channel], or @file")
    s.add_argument("--trend", type=float, default=0.0)
    s.add_argument("--noise-sd", type=float, default=0.0)
    s.add_argument("--timesteps", type=int, default=1000)
    s.add_argument("--names", type=str, default=None, help="comma-separated channel names")

    g = sub.add_parser("gates", help="channel adaptation gates as CSV")
    g.add_argument("--out", type=str, default=None, help="CSV path")
    g.add_argument("--ckpt", type=str, required=True)

    k = sub.add_parser("kernel", help="effective per-channel affine kernel as .npz")
    k.add_argument("--out", type=str, default=None, help="archive path")
    k.add_argument("--ckpt", type=str, required=True)

    return p


def _run_config(args) -> RunConfig:
    """The --config file (or the defaults) with every given flag applied."""
    run = RunConfig.from_file(args.config) if args.config else RunConfig()
    flags = {f.name: getattr(args, f.name) for f in dataclasses.fields(run)}
    return dataclasses.replace(run, **{k: v for k, v in flags.items() if v is not None})


def _cmd_analyze(args) -> int:
    if not args.data:
        raise ConfigError("analyze: --data is required")
    report = training.analyze(
        args.data, list(args.q), args.binning, args.top_k,
        args.periods, args.split_scheme, date_column=args.date_column,
        fill_missing=args.fill_missing)
    print(json.dumps(report))
    return 0


def _cmd_train(args) -> int:
    run = _run_config(args)
    out = args.out or "model.ckpt"
    result = training.train(run, out)
    print(json.dumps({
        "checkpoint": result.checkpoint_path,
        "best_epoch": result.best_epoch,
        "best_val_mse": result.best_val_mse,
        "periods": list(result.periods),
        "epochs": result.log,
    }))
    return 0


def _cmd_eval(args) -> int:
    metrics = training.evaluate(args.ckpt, data_path=args.data, split=args.split,
                                batch_size=args.batch_size)
    print(json.dumps(metrics.to_dict(args.split)))
    return 0


def _cmd_forecast(args) -> int:
    pred, names, origin = training.forecast(
        args.ckpt, data_path=args.data, origin=args.origin, standardized=args.standardized)
    out = args.out or "forecast.csv"
    write_csv(out, ["step"] + list(names),
              ([str(i)] + [repr(float(v)) for v in row] for i, row in enumerate(pred)))
    print(json.dumps({"origin": origin, "horizon": len(pred), "out": str(out)}))
    return 0


def _cmd_synth(args) -> int:
    if args.spec:
        raw = args.spec
        if raw.startswith("@"):
            raw = Path(raw[1:]).read_text(encoding="utf-8")
        try:
            spec = json.loads(raw, object_pairs_hook=training.unique_pairs)
        except (RecursionError, ValueError) as exc:
            raise ArgumentError(f"synth: --spec does not parse as JSON: {exc}") from None
        tones = synthmod.parse_tone_spec(spec)
    else:
        tones = [[synthmod.ToneSpec(1.0, 24.0)]]
    values = synthmod.generate(tones, args.trend, args.noise_sd, args.timesteps, args.seed)
    names = args.names.split(",") if args.names else None
    out = args.out or "synth.csv"
    synthmod.write_csv(out, values, names)
    print(json.dumps({"out": str(out), "timesteps": values.shape[0], "channels": values.shape[1]}))
    return 0


def _cmd_gates(args) -> int:
    names, gates = training.export_gate_matrix(args.ckpt)
    out = args.out or "gates.csv"
    write_csv(out, ["channel"] + [f"p{i}" for i in range(gates.shape[1])],
              ([name] + [repr(float(v)) for v in row] for name, row in zip(names, gates)))
    print(json.dumps({"out": str(out), "channels": len(names), "patterns": int(gates.shape[1])}))
    return 0


def _cmd_kernel(args) -> int:
    names, a, b = training.export_kernel(args.ckpt)
    out = args.out or "kernel.npz"
    with open(out, "wb") as fh:  # a path keeps its name; np.savez would append .npz
        np.savez(fh, A=a, b=b, channel_names=np.array(names))
    print(json.dumps({"out": str(out), "channels": a.shape[0], "lookback": a.shape[1],
                      "horizon": a.shape[2]}))
    return 0


_COMMANDS = {
    "analyze": _cmd_analyze,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "forecast": _cmd_forecast,
    "synth": _cmd_synth,
    "gates": _cmd_gates,
    "kernel": _cmd_kernel,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except DivergenceError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
