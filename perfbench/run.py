"""eqsentinel benchmark: one workload, closed loop, one process.

    python3 perfbench/run.py --workload {nf-batch,online,stochastic}
        [--seed N] [--seconds S] [--trace 0|1]

Run it from the repository root; the package is imported from ``src/`` of
the checkout and nothing is installed. ``--seed`` defaults to the frozen
master seed 20260810, and 20260811 is the hold-out seed for checking a
claim on data not used while writing it. Other seeds work too; their CSV
digests are then checked for repeatability across passes instead of
against ``digests.json``.

``--trace 0`` measures the end-to-end metrics; their timings are given at
the host's reference speed (speed.py), and the unscaled figures are
printed too. ``--trace 1`` alternates
untraced passes with traced ones, for which the package's layer entry
points are wrapped with span recorders, and runs at least two of each. It
reports per-layer self times and call counts and the tracing overhead, and
it checks that the exact counters repeat between traced passes. Human-readable lines come
first; the last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

# Single-threaded BLAS/OpenMP, fixed before numpy is first imported.
BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 20260810
HOLDOUT_SEED = 20260811
SETUP_REPEATS = 3  # before and again after the timed phase

_clock = time.perf_counter


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="eqsentinel benchmark")
    parser.add_argument("--workload", required=True, choices=["nf-batch", "online", "stochastic"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def git_revision() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def fingerprint(args) -> list[str]:
    import numpy
    import scipy

    return [
        f"workload = {args.workload}",
        f"seed = {args.seed} (default {DEFAULT_SEED}, hold-out {HOLDOUT_SEED})",
        f"trace = {args.trace}",
        f"seconds = {args.seconds:g}",
        f"nproc = {os.cpu_count()} (usable {len(os.sched_getaffinity(0))})",
        f"python = {platform.python_implementation()} {platform.python_version()}",
        f"numpy = {numpy.__version__}",
        f"scipy = {scipy.__version__}",
        f"git_revision = {git_revision()}",
        f"blas_threads = {BLAS_THREADS} (OMP/OPENBLAS/MKL/BLIS/NUMEXPR_NUM_THREADS)",
        "load = closed loop, one client process, workers=1",
    ]


def latency_lines(name: str, samples, scale: float, unit: str) -> list[str]:
    """Median and tail: the highest of p99.9/p99/p90 with ten samples beyond."""
    import numpy as np

    if not samples:
        return [f"{name}_p50_{unit} = n/a (no samples)"]
    arr = np.asarray(samples) * scale
    lines = [f"{name}_p50_{unit} = {np.median(arr):.6g} {unit} (n={arr.size})"]
    tail = [p for p in (99.9, 99.0, 90.0) if arr.size * (1.0 - p / 100.0) >= 10.0]
    if tail:
        lines.append(
            f"{name}_tail_{unit} = {np.percentile(arr, tail[0]):.6g} {unit} "
            f"(p{tail[0]:g}, n={arr.size})"
        )
    else:
        lines.append(f"{name}_tail_{unit} = n/a (n={arr.size} < 100)")
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "eqsentinel" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    t0 = _clock()
    import numpy  # noqa: F401  (dependencies are imported once, apart from set-up)
    import scipy.optimize  # noqa: F401

    deps_s = _clock() - t0
    import workloads

    recorded = json.loads((HERE / "digests.json").read_text())
    out_dir = ROOT / ".perfbench" / f"{args.workload}-{os.getpid()}"
    cls = workloads.WORKLOADS[args.workload]
    digests = recorded.get(args.workload, {})
    try:
        return run(args, lambda: cls(args.seed, out_dir, digests), deps_s)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            out_dir.parent.rmdir()
        except OSError:
            pass


def timed_setup(make, spans: list):
    """Set a new workload up on a fresh import of the package, timed.

    Appends the set-up's start and end on the work clock and the package
    import's seconds to ``spans``.
    """
    import workloads
    from speed import PROBE, work_clock

    PROBE(force=True)
    workload = make()
    t0 = work_clock()
    eq = workloads.fresh_import()
    t1 = work_clock()
    workload.setup(eq)
    spans.append((t0, work_clock(), t1 - t0))
    PROBE(force=True)
    return workload, eq


def run_passes(workload, rec, until: float, at_least: int, tracer=None) -> list[float]:
    """Closed loop: whole passes until the deadline; returns pass times."""
    from speed import work_clock

    times = []
    while len(times) < at_least or _clock() < until:
        t0 = work_clock()
        workload.run_pass(rec)
        times.append(work_clock() - t0)
        if tracer is not None:
            tracer.close_pass()
    return times


def run(args, make, deps_s: float) -> int:
    import workloads
    from speed import PROBE, REFERENCE_S
    from tracer import Tracer

    # Set-up is timed before and after the timed phase, so its median is
    # taken over two stretches of the machine's load; only the last set-up
    # before the timed phase is kept, and peak RSS is read before the rest.
    setups: list = []
    for _ in range(SETUP_REPEATS):
        workload = eq = None  # drop the previous set-up before building anew
        workload, eq = timed_setup(make, setups)
    if not Path(eq.experiments.__file__).resolve().is_relative_to(ROOT / "src"):
        print("error: eqsentinel was not imported from this checkout", file=sys.stderr)
        return 2
    workload.prepare()

    rec = workloads.Recorder()
    deadline = _clock() + args.seconds
    if not args.trace:
        passes = run_passes(workload, rec, deadline, 1)
    else:
        # Untraced and traced passes alternate, so the overhead compares
        # passes run under the same load; traced passes keep their own
        # samples and only their op outcomes are merged.
        tracer = Tracer()
        traced_rec = workloads.Recorder()
        passes, traced = [], []
        while len(traced) < 2 or _clock() < deadline:
            passes += run_passes(workload, rec, 0.0, 1)
            install_spans(tracer, eq)
            traced += run_passes(workload, traced_rec, 0.0, 1, tracer)
            tracer.unwrap_all()
        rec.absorb_outcomes(traced_rec)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for _ in range(SETUP_REPEATS):
        timed_setup(make, setups)

    # Every timing at the host's reference speed while it ran (speed.py),
    # and unscaled for comparison.
    def unscaled(_t0, _t1):
        return 1.0

    setup_s, raw_setup_s = (
        statistics.median(f(t0, t1) * (t1 - t0) for t0, t1, _ in setups)
        for f in (PROBE.scale, unscaled)
    )
    import_s = statistics.median(t for _, _, t in setups)
    wall_s, raw_wall_s = rec.wall_s(PROBE.scale), rec.wall_s(unscaled)
    # 0 only when no unit of work was timed
    hyp_rate, raw_hyp_rate = rec.hyp_rate(PROBE.scale), rec.hyp_rate(unscaled)
    lines = fingerprint(args)
    lines += [f"size: {line}" for line in workload.describe()]
    lines += [
        f"deps_import_s = {deps_s:.6g} s (numpy and scipy, once; not in setup_s)",
        f"host_reference_s = {PROBE.reference_s():.6g} s (mean of {len(PROBE.samples)} "
        f"probe samples; setup_s, wall_s and hyp_rounds_per_s are at the speed at "
        f"which it takes {REFERENCE_S:g} s)",
        f"raw setup_s = {raw_setup_s:.6g} s, wall_s = {raw_wall_s:.6g} s, "
        f"hyp_rounds_per_s = {raw_hyp_rate:.6g} 1/s (unscaled)",
        f"setup_s = {setup_s:.6g} s (median of {len(setups)} set-ups; package "
        f"import {import_s:.6g} s of it)",
        f"wall_s = {wall_s:.6g} s (one pass as the sum over its ops of each op's "
        f"median time; {len(passes)} untraced passes, median pass "
        f"{statistics.median(passes):.6g} s; the figures below are untraced too)",
        f"peak_rss_mb = {peak_rss_mb:.6g} MB (this process)",
        f"attempted = {rec.attempted}",
        f"failed = {rec.failed}",
        f"failed_frac = {rec.failed / rec.attempted:.6g} ratio",
    ]
    lines += [f"failed_by_exception {k} = {v}" for k, v in sorted(rec.errors.items())]
    lines += [f"failure x{v}: {k}" for k, v in sorted(rec.reasons.items())]
    lines += workload_lines(args.workload, rec, hyp_rate)
    if workload.digests is not None:
        lines += [
            f"digest {key} sha256={sha} ({workload.digests.status(key)})"
            for key, sha in sorted(workload.digests.seen.items())
        ]

    correct = rec.wrong == 0
    if args.trace:
        overhead = statistics.median(traced) - statistics.median(passes)
        lines.append(
            f"trace.overhead_s = {overhead:.6g} s (median of {len(traced)} traced "
            f"passes minus median of {len(passes)} untraced passes, alternated)"
        )
        layer, metrics, problems = layer_report(tracer, workload, len(traced))
        metrics["trace.overhead_s"] = (overhead, "s")
        lines += layer
        lines += [f"counter repeat FAILED: {p}" for p in problems]
        correct = correct and not problems
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (wall_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "hyp_rounds_per_s": (hyp_rate, "1/s"),
        }
    for line in lines:
        print(line)
    print(json.dumps({
        "correct": bool(correct),
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def workload_lines(name: str, rec, hyp_rate: float) -> list[str]:
    """The named end-to-end figures that apply to this workload."""
    lines = []
    if name != "stochastic":
        unit = "run_experiment call" if name == "nf-batch" else "monitor round"
        lines.append(
            f"hyp_rounds_per_s = {hyp_rate:.6g} 1/s (hypothesis-rounds / the time of "
            f"each {unit}, summed over all untraced passes, m as under size; "
            f"{rec.work['hyp_rounds']:.0f} hypothesis-rounds in all)"
        )
    if name != "online":
        lines += latency_lines("run", rec.samples["run_s"], 1e3, "ms")
    if name == "online":
        lines += latency_lines("step", rec.samples["step_s"], 1e6, "us")
        lines += latency_lines("lr_step", rec.samples["lr_step_s"], 1e6, "us")
    if name == "stochastic":
        solves, games = rec.samples["solve_s"], rec.samples["game_s"]
        if solves:
            lines.append(
                f"solve_s = {statistics.median(solves):.6g} s (n={len(solves)}; "
                f"{rec.work['shapley_iterations'] / len(solves):.0f} sweeps per solve)"
            )
        lines.append(
            f"sim_steps_per_s = {hyp_rate:.6g} 1/s (monitored steps / the time of each "
            f"trial, summed over all untraced passes but each call's last trial; "
            f"{rec.work['hyp_rounds']:.0f} steps in all; reported as hyp_rounds_per_s, "
            "one hypothesis per step)"
        )
        if games:
            lines.append(
                f"lp_games_per_s = {1.0 / statistics.median(games):.6g} 1/s "
                f"(1 / median solve time, n={len(games)})"
            )
    return lines


# -- traced run --------------------------------------------------------------


def install_spans(tracer, eq) -> None:
    """Wrap every layer entry point the benchmark reaches, directly or not."""
    nfs, ex, st = eq.nfstreams, eq.experiments, eq.stochastic

    def gather_bytes(_result, args, _kwargs):
        tracer.counters["nfstreams.gather_bytes"] += args[0].nbytes

    def csv_bytes(path, _args, _kwargs):
        tracer.counters["csvio.bytes_written"] += Path(path).stat().st_size

    def iterations(solution, _args, _kwargs):
        tracer.counters["stochastic.shapley.iterations"] += solution.iterations

    for fn in ("sample_action_stream", "fwer_crossing_times", "ebh_alarm", "increment_tables"):
        tracer.wrap(nfs, fn, f"nfstreams.{fn}")
    tracer.wrap(nfs, "log_wealth_paths", "nfstreams.log_wealth_paths",
                name_of=lambda a, k: (a[1] if len(a) > 1 else k["mixture"]).kind,
                after=gather_bytes)
    tracer.wrap(ex, "run_rng", "seeding.run_rng")
    tracer.wrap(ex, "run_experiment", "experiments.run_experiment")
    # write_summary reaches write_csv through the csvio module itself.
    for owner in (ex, eq.csvio):
        tracer.wrap(owner, "write_csv", "csvio.write_csv", after=csv_bytes)
    tracer.wrap(ex, "write_figure_data", "csvio.write_figure_data", after=csv_bytes)
    tracer.wrap(ex, "write_summary", "csvio.write_summary")
    monitor = eq.monitors.EquilibriumMonitor
    tracer.wrap(monitor, "step_fwer", "monitors.step_fwer")
    tracer.wrap(monitor, "step_fdr", "monitors.step_fdr")
    tracer.wrap(eq.monitors, "ebh_rejection", "monitors.ebh_rejection")
    tracer.wrap(eq.monitors, "increment", "eprocess.increment")
    tracer.wrap(eq.eprocess.EProcessState, "update", "eprocess.EProcessState.update")
    tracer.wrap(eq.eprocess.EProcessState, "value", "eprocess.EProcessState.value")
    tracer.wrap(st, "lr_step", "stochastic.lr_step")
    tracer.wrap(st, "shapley_solve_arrays", "stochastic.shapley_solve_arrays",
                after=iterations)
    tracer.wrap(st, "matrix_game_solve", "stochastic.matrix_game_solve")
    tracer.wrap(st, "linprog", "stochastic.linprog")
    for fn in ("soccer_step", "state_index"):
        tracer.wrap(eq.soccer, fn, f"soccer.{fn}")
    for fn in ("prey_step", "chase_policy"):
        tracer.wrap(eq.prey, fn, f"prey.{fn}")


#: Layer timings of the traced run: span, figure, end-to-end target.
LAYER_TIMES = [
    ("nfstreams.sample_action_stream", "self_s", "run_p50_ms @nf-batch (Dirac cells)"),
    ("nfstreams.log_wealth_paths.dirac", "self_s", "hyp_rounds_per_s @nf-batch"),
    ("nfstreams.log_wealth_paths.grid", "self_s", "hyp_rounds_per_s @nf-batch"),
    ("nfstreams.fwer_crossing_times", "self_s", "run_p50_ms @nf-batch"),
    ("nfstreams.ebh_alarm", "self_s", "run_p50_ms @nf-batch"),
    ("nfstreams.increment_tables", "self_s", "setup_s @nf-batch"),
    ("seeding.run_rng", "self_s", "run_p50_ms @nf-batch and @stochastic"),
    ("csvio.write_csv", "self_s", "wall_s @nf-batch (predicted small share)"),
    ("csvio.write_figure_data", "self_s", "wall_s @nf-batch"),
    ("monitors.step_fwer", "self_us", "step_p50_us @online"),
    ("monitors.step_fdr", "self_us", "step_p50_us @online"),
    ("monitors.ebh_rejection", "self_s", "step_p50_us @online"),
    ("eprocess.increment", "self_s", "step_p50_us @online"),
    ("eprocess.EProcessState.update", "self_s", "step_p50_us @online"),
    ("eprocess.EProcessState.value", "self_s", "step_p50_us @online"),
    ("stochastic.lr_step", "self_us", "step_p50_us @online"),
    ("stochastic.shapley_solve_arrays", "self_s", "solve_s @stochastic"),
    ("stochastic.matrix_game_solve", "self_s", "solve_s and lp_games_per_s @stochastic"),
    ("stochastic.linprog", "self_s", "solve_s and lp_games_per_s @stochastic"),
    ("soccer.soccer_step", "self_us", "sim_steps_per_s @stochastic"),
    ("soccer.state_index", "self_us", "sim_steps_per_s @stochastic"),
    ("prey.prey_step", "self_us", "sim_steps_per_s @stochastic"),
    ("prey.chase_policy", "self_us", "sim_steps_per_s @stochastic"),
]

#: Exact per-pass counters in the traced run's JSON, with their units.
COUNTERS = [
    ("nfstreams.sample_action_stream.calls", "count"),
    ("nfstreams.log_wealth_paths.dirac.calls", "count"),
    ("nfstreams.log_wealth_paths.grid.calls", "count"),
    ("nfstreams.fwer_crossing_times.calls", "count"),
    ("nfstreams.ebh_alarm.calls", "count"),
    ("nfstreams.increment_tables.calls", "count"),
    ("nfstreams.gather_bytes", "B"),
    ("seeding.run_rng.calls", "count"),
    ("csvio.write_csv.calls", "count"),
    ("csvio.bytes_written", "B"),
    ("experiments.run_experiment.calls", "count"),
    ("monitors.step_fwer.calls", "count"),
    ("monitors.step_fdr.calls", "count"),
    ("monitors.ebh_rejection.calls", "count"),
    ("eprocess.increment.calls", "count"),
    ("eprocess.EProcessState.update.calls", "count"),
    ("eprocess.EProcessState.value.calls", "count"),
    ("stochastic.lr_step.calls", "count"),
    ("stochastic.shapley.iterations", "count"),
    ("stochastic.matrix_game_solve.calls", "count"),
    ("stochastic.linprog.calls", "count"),
    ("soccer.soccer_step.calls", "count"),
    ("soccer.state_index.calls", "count"),
    ("prey.prey_step.calls", "count"),
    ("prey.chase_policy.calls", "count"),
]

SWEEP = "stochastic.shapley_solve_arrays"


def ratio(num: float, den: float) -> float:
    """A ratio of exact counts; 0 when the layer is not reached."""
    return num / den if den else 0.0


def layer_report(tracer, workload, n: int):
    """Per-layer lines, the JSON metrics and counter-repeat problems."""
    table = tracer.layer_table()
    lines = [f"per-layer figures are per traced pass (mean of {n} passes)"]
    for span, kind, target in LAYER_TIMES:
        row = table.get(span)
        if row is None:
            lines.append(f"layer {span}: not reached on this workload -> {target}")
        elif kind == "self_us":
            lines.append(
                f"layer {span}.self_us = {1e6 * row['self_s'] / row['calls']:.6g} us/call "
                f"(calls/pass {row['calls'] / n:.0f}) -> {target}"
            )
        else:
            lines.append(
                f"layer {span}.self_s = {row['self_s'] / n:.6g} s "
                f"(calls/pass {row['calls'] / n:.0f}) -> {target}"
            )
    loop = table.get("experiments.run_experiment")
    if loop:
        lines.append(
            f"layer experiments.trial_loop.self_s = {loop['self_s'] / n:.6g} s "
            "(inside run_experiment, outside every child span) -> sim_steps_per_s @stochastic"
        )

    counts = tracer.pass_counts()
    problems = [
        f"traced pass {i} differs from pass 1 in "
        + ", ".join(sorted(k for k in set(c) | set(counts[0]) if c[k] != counts[0][k]))
        for i, c in enumerate(counts[1:], start=2)
        if c != counts[0]
    ]
    c = counts[0]
    rounds = c["monitors.step_fwer.calls"] + c["monitors.step_fdr.calls"]
    runs = c["nfstreams.log_wealth_paths.dirac.calls"] + c["nfstreams.log_wealth_paths.grid.calls"]
    computed = workload.computed()
    metrics = {name: (float(c[name]), unit) for name, unit in COUNTERS}
    metrics.update({
        "eprocess.EProcessState.update.calls_per_round": (
            ratio(c["eprocess.EProcessState.update.calls"], rounds), "ratio"),
        "eprocess.EProcessState.value.calls_per_round": (
            ratio(c["eprocess.EProcessState.value.calls"], rounds), "ratio"),
        "stochastic.saddle_shortcut_frac": (
            1.0 - ratio(c[f"{SWEEP}>stochastic.linprog.calls"],
                        c[f"{SWEEP}>stochastic.matrix_game_solve.calls"])
            if c[f"{SWEEP}>stochastic.matrix_game_solve.calls"] else 0.0,
            "ratio"),
        "nfstreams.gather_bytes_per_run": (ratio(c["nfstreams.gather_bytes"], runs), "B"),
        "soccer.kernel_bytes": (computed.get("soccer.kernel_bytes", 0.0), "B"),
        "soccer.kernel_nnz": (computed.get("soccer.kernel_nnz", 0.0), "count"),
        "trace.spans": (float(sum(v for k, v in c.items() if k.endswith(".calls") and ">" not in k)), "count"),
    })
    lines.append(
        "counters below are exact and per pass; kernel bytes, kernel nonzeros and "
        "gathered bytes are computed from array sizes, not measured"
    )
    lines += [f"counter {k} = {v:.10g} {u}" for k, (v, u) in metrics.items()]
    if c[f"{SWEEP}>stochastic.matrix_game_solve.calls"]:
        lines.append(
            f"counter stochastic.shapley>matrix_game_solve.calls = "
            f"{c[f'{SWEEP}>stochastic.matrix_game_solve.calls']} "
            f"(linprog {c[f'{SWEEP}>stochastic.linprog.calls']}; the other calls are "
            "the certificate sweep and the random games)"
        )
    return lines, metrics, problems


if __name__ == "__main__":
    raise SystemExit(main())
