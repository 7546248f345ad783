"""Command-line entry point.

Usage: ``eigennet <experiment> --config <path> [--out <dir>] [--seed <u64>]
[--trials <n>]``. Exit code 0 on success, 1 on configuration errors, 2 on
runtime errors. A standard output closed by its reader before the summary is
printed (``eigennet ... | head -0``) also exits with 2, without a traceback;
the output files are complete by then.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .errors import ConfigError, EigennetError
from .harness import EXPERIMENTS, emit_report, parse_config_text, run, validate_config


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eigennet",
        description="Decentralized eigenvalue experiments over average consensus",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", required=True, help="path to the key=value config file")
        p.add_argument("--out", default=None, help="output directory (default: config's out)")
        p.add_argument("--seed", type=int, default=None, help="override the master seed")
        p.add_argument("--trials", type=int, default=None, help="override the trial count")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    try:
        raw = parse_config_text(text)
        overrides = {"seed": args.seed, "trials": args.trials, "out": args.out}
        raw.update((key, value) for key, value in overrides.items() if value is not None)
        cfg = validate_config(raw, args.experiment)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    try:
        report = run(cfg)
        paths = emit_report(report, cfg.out)
    except ConfigError as exc:  # a graph_file fault shows only when read
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except EigennetError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # unexpected failures also map to exit 2
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    try:
        print(f"{cfg.experiment}: {len(report.rows)} rows in {report.duration_s:.2f}s")
        for path in paths:
            print(f"wrote {path}")
        sys.stdout.flush()
    except BrokenPipeError:
        # Point stdout at devnull so the interpreter's final flush stays quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
