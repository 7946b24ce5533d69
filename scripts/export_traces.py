#!/usr/bin/env python3
"""Export sample episode traces (environment log + monitor columns) as CSV.

Usage: export_traces.py [OUT] (default ``results/traces`` under the
repository root, wherever it is run from).
"""

import argparse
from pathlib import Path

import numpy as np

from eqsentinel.envs import soccer, trace
from eqsentinel.harness.csvio import write_csv
from eqsentinel.stochastic import (
    Policy,
    SolverConfig,
    shapley_solve_arrays,
    smooth_policy,
)

ROOT = Path(__file__).resolve().parent.parent

if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "out", nargs="?", type=Path, default=ROOT / "results" / "traces", metavar="OUT"
    )
    out = parser.parse_args().out
    tab = soccer.soccer_build_model()
    solution = shapley_solve_arrays(tab.native_reward, tab.model.kernel, SolverConfig())
    attacker = smooth_policy(solution.row_policy, 0.05)
    defender = smooth_policy(solution.col_policy, 0.05)
    afraid = Policy(soccer.afraid_transform(attacker.table))

    cols, rows = trace.soccer_episode_trace(
        attacker, defender, null_attacker=attacker, rng=np.random.default_rng(0)
    )
    write_csv(out / "soccer_equilibrium_episode.csv", "soccer-trace", cols, rows)

    cols, rows = trace.soccer_episode_trace(
        afraid,
        defender,
        null_attacker=attacker,
        rng=np.random.default_rng(4),
        max_steps=12,
    )
    write_csv(out / "soccer_timid_episode.csv", "soccer-trace", cols, rows)

    cols, rows = trace.prey_episode_trace(
        0.6, (0.1, 0.3, 0.5, 0.7, 0.9), np.random.default_rng(1)
    )
    write_csv(out / "prey_suspect_episode.csv", "prey-trace", cols, rows)
    print(f"traces written under {out}")
