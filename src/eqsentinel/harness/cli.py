"""Command-line entry point.

    eqsentinel <subcommand> --config <path> [--seed N] [--out DIR] [--assert]

``--seed`` is offered where the config has a seed (every subcommand but
soccer-solve). Every subcommand runs in one process; soccer-scaling and
prey-mixture run their trials one after another. Exit codes: 0 on success,
2 when --assert is given and an acceptance statistic fails or on an argparse
usage error, 1 on errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from ..errors import ConfigError, DomainError, ShapeError
from .config import config_from_mapping, parse_kv_text
from .csvio import format_value, read_utf8
from .experiments import EXPERIMENTS, run_experiment


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eqsentinel",
        description="Sequential equilibrium-deviation monitors: experiment runner",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name, (config_cls, _) in sorted(EXPERIMENTS.items()):
        fields = [f.name for f in dataclasses.fields(config_cls)]
        defaults = ", ".join(
            f"{f}={v}" for f in fields if (v := getattr(config_cls(), f)) is not None
        )
        p = sub.add_parser(name, help=f"defaults: {defaults}")
        p.add_argument("--config", type=Path, help="flat key=value config file")
        if "seed" in fields:
            p.add_argument("--seed", type=int, help="override the master seed")
        p.add_argument("--out", type=Path, help="output directory")
        p.add_argument(
            "--assert",
            dest="assert_checks",
            action="store_true",
            help="exit 2 if any acceptance statistic fails",
        )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    name = args.experiment
    config_cls, _ = EXPERIMENTS[name]
    try:
        mapping = parse_kv_text(read_utf8(args.config, ConfigError)) if args.config else {}
        declared = mapping.pop("experiment", None)
        if declared is not None and declared != name:
            raise ConfigError(
                f"config declares experiment {declared!r}, command was {name!r}"
            )
        # --seed, where registered, overrides the file's key.
        if vars(args).get("seed") is not None:
            mapping["seed"] = str(args.seed)
        config = config_from_mapping(config_cls, mapping)
        result = run_experiment(name, config, args.out or Path("results") / name)
    except (DomainError, ShapeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for key, value in result.summary.items():
        print(f"{key} = {format_value(value)}")
    for key, ok in result.checks.items():
        print(f"check {key}: {'pass' if ok else 'FAIL'}")
    print(f"artifacts: {', '.join(str(p) for p in result.artifacts)}")
    if args.assert_checks and not result.passed:
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
