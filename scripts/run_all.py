#!/usr/bin/env python3
"""Run every registered experiment with its checked-in config and ``--assert``.

Usage: run_all.py [OUT] (default ``results/``). The exit code ORs the
experiments' exit codes.
"""

import argparse
from pathlib import Path

from eqsentinel.harness.cli import main
from eqsentinel.harness.experiments import EXPERIMENTS

ROOT = Path(__file__).resolve().parent.parent

if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", nargs="?", type=Path, default=ROOT / "results", metavar="OUT")
    out = parser.parse_args().out
    rc = 0
    for name in EXPERIMENTS:
        print(f"== {name} ==")
        rc |= main(
            [
                name,
                "--config",
                str(ROOT / "configs" / f"{name}.cfg"),
                "--out",
                str(out / name),
                "--assert",
            ]
        )
    raise SystemExit(rc)
