"""Command-line entry point.

    eqsentinel {all | <subcommand> --config <path> [--seed N] [--assert]} [--out DIR]

``--seed`` is offered where the config has a seed (every subcommand but
soccer-solve). ``all`` runs each ``configs/*.cfg`` under the working directory
with ``--assert`` as the subcommand its ``experiment`` key names, into
``DIR/<file stem>``, then writes episode traces into ``DIR/traces``; it exits
with the largest exit code, or 1 if there is no config. Every subcommand runs
in one process; soccer-scaling and prey-mixture run their trials one after
another. Exit codes: 0 on success, 2 when --assert is given and an acceptance
statistic fails or on an argparse usage error, 1 on errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from ..envs import soccer, trace
from ..errors import ConfigError, DomainError, ShapeError
from ..stochastic import Policy, SolverConfig
from .config import config_from_mapping, parse_kv_text
from .csvio import format_value, read_utf8, write_csv
from .experiments import EXPERIMENTS, _solve_soccer, run_experiment


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eqsentinel",
        description="Sequential equilibrium-deviation monitors: experiment runner",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    sub.add_parser("all", help="every configs/*.cfg, then the episode traces")
    for name, (config_cls, _) in sorted(EXPERIMENTS.items()):
        fields = [f.name for f in dataclasses.fields(config_cls)]
        defaults = ", ".join(
            f"{f}={v}" for f in fields if (v := getattr(config_cls(), f)) is not None
        )
        p = sub.add_parser(name, help=f"defaults: {defaults}")
        p.add_argument("--config", type=Path, help="flat key=value config file")
        if "seed" in fields:
            p.add_argument("--seed", type=int, help="override the master seed")
        p.add_argument(
            "--assert",
            dest="assert_checks",
            action="store_true",
            help="exit 2 if any acceptance statistic fails",
        )
    for p in sub.choices.values():
        p.add_argument("--out", type=Path, help="output directory")
    return parser


def run_all(out: Path) -> int:
    """Run every ``configs/*.cfg`` with ``--assert`` into ``out/<file stem>``,
    keep the largest exit code, then write the episode traces into ``out/traces``."""
    if not (paths := sorted(Path("configs").glob("*.cfg"))):
        print(f"error: no configs/*.cfg under {Path.cwd()}", file=sys.stderr)
        return 1
    rc = 0
    for path in paths:
        print(f"== {path.stem} ==")
        try:
            name = parse_kv_text(read_utf8(path, ConfigError)).get("experiment")
            if name not in EXPERIMENTS:
                raise ConfigError(f"experiment is {name!r}, not one of {sorted(EXPERIMENTS)}")
        except (ConfigError, OSError) as exc:  # read_utf8's message names the path
            print(f"error: {path}: {str(exc).removeprefix(f'{path}: ')}", file=sys.stderr)
            rc = max(rc, 1)
        else:
            flags = ["--config", str(path), "--out", str(out / path.stem), "--assert"]
            rc = max(rc, main([name, *flags]))
    write_traces(out / "traces")
    return rc


def write_traces(out: Path) -> None:
    """Sample episode traces (environment log plus monitor columns) as CSV."""
    rng = np.random.default_rng
    _, _, attacker, defender = _solve_soccer(SolverConfig())
    afraid = Policy(soccer.afraid_transform(attacker.table))
    traces = {
        "soccer_equilibrium": trace.soccer_episode_trace(attacker, defender, attacker, rng(0)),
        "soccer_timid": trace.soccer_episode_trace(afraid, defender, attacker, rng(4)),
        "prey_suspect": trace.prey_episode_trace(0.6, (0.1, 0.3, 0.5, 0.7, 0.9), rng(1)),
    }
    for stem, (cols, rows) in traces.items():
        write_csv(out / f"{stem}_episode.csv", f"{stem.split('_')[0]}-trace", cols, rows)
    print(f"traces written under {out}")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    name = args.experiment
    if name == "all":
        return run_all(args.out or Path("results"))
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
