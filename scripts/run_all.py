#!/usr/bin/env python3
"""Run every checked-in config with ``--assert``.

Usage: run_all.py [OUT] (default ``results/``). Each registered experiment
runs first with ``configs/<name>.cfg`` into ``OUT/<name>``, in registry
order; then every other ``configs/*.cfg`` runs under the experiment its
``experiment`` key names, into ``OUT/<file stem>``. The exit code ORs the
runs' exit codes.
"""

import argparse
from pathlib import Path

from eqsentinel.harness.cli import main
from eqsentinel.harness.config import parse_kv_text
from eqsentinel.harness.experiments import EXPERIMENTS

ROOT = Path(__file__).resolve().parent.parent

if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", nargs="?", type=Path, default=ROOT / "results", metavar="OUT")
    out = parser.parse_args().out
    configs = [ROOT / "configs" / f"{name}.cfg" for name in EXPERIMENTS]
    configs += sorted(set((ROOT / "configs").glob("*.cfg")) - set(configs))
    rc = 0
    for path in configs:
        print(f"== {path.stem} ==")
        name = parse_kv_text(path.read_text())["experiment"]
        rc |= main([name, "--config", str(path), "--out", str(out / path.stem), "--assert"])
    raise SystemExit(rc)
