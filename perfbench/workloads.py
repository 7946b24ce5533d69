"""The three benchmark workloads and their correctness gates.

Each workload is driven only through the package's public entry points.
``setup`` builds everything a pass needs from the workload seed (it runs
several times, on a fresh import of the package each time), ``prepare``
computes reference results for the checks once, outside every timed
region, and ``run_pass`` runs the workload's fixed set of operations once.
A pass at one seed always does the same work, so every op is timed once
per pass and the exact counters must repeat.

An operation ("op") is one monitored stream, one ``run_experiment`` call,
one Shapley solve or one matrix game. An op fails when it raises or when
its output is wrong; the workload then carries on.
"""

from __future__ import annotations

import hashlib
import importlib
import statistics
import sys
from collections import Counter, defaultdict
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from speed import PROBE, work_clock

# Every timing stops while the host speed probe runs (see speed.py).
_clock = work_clock

#: Modules the benchmark calls into, by the short names used below.
PACKAGE_MODULES = {
    "eprocess": "eqsentinel.eprocess",
    "games": "eqsentinel.games",
    "monitors": "eqsentinel.monitors",
    "stochastic": "eqsentinel.stochastic",
    "soccer": "eqsentinel.envs.soccer",
    "prey": "eqsentinel.envs.prey",
    "experiments": "eqsentinel.harness.experiments",
    "nfstreams": "eqsentinel.harness.nfstreams",
    "scenarios": "eqsentinel.harness.scenarios",
    "seeding": "eqsentinel.harness.seeding",
    "csvio": "eqsentinel.harness.csvio",
}


def fresh_import() -> SimpleNamespace:
    """Import the package anew; its dependencies stay loaded."""
    for name in [n for n in sys.modules if n == "eqsentinel" or n.startswith("eqsentinel.")]:
        del sys.modules[name]
    return SimpleNamespace(
        **{short: importlib.import_module(full) for short, full in PACKAGE_MODULES.items()}
    )


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class Recorder:
    """Op outcomes, latency samples and work totals of one benchmark run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.errors: Counter = Counter()
        self.reasons: Counter = Counter()
        self.samples: defaultdict[str, list[float]] = defaultdict(list)
        #: Per op label, one entry per pass: the op's start and end on the
        #: work clock, and the seconds and hypothesis-rounds of the units of
        #: work (monitor rounds, Monte-Carlo runs, trials) it timed inside.
        self.spans: defaultdict[str, list[tuple[float, float, float, float]]] = defaultdict(list)
        self.work: Counter = Counter()
        self._units = [0.0, 0.0]

    def op(self, label: str, fn) -> None:
        """Run one op; ``fn`` returns the list of problems with its output."""
        self.attempted += 1
        self._units = [0.0, 0.0]
        t0 = _clock()
        try:
            problems = fn()
        except Exception as exc:  # one failed op must not end the workload
            self.failed += 1
            self.errors[type(exc).__name__] += 1
            self.reasons[f"{label}: raised {type(exc).__name__}: {exc}"] += 1
            return
        finally:
            self.spans[label].append((t0, _clock(), *self._units))
            PROBE()
        if problems:
            self.failed += 1
            self.wrong += 1
            for problem in problems:
                self.reasons[f"{label}: {problem}"] += 1

    def units(self, seconds, rounds) -> None:
        """Add units of work timed inside the current op."""
        self._units[0] += float(np.sum(seconds))
        self._units[1] += float(np.sum(rounds))
        self.work["hyp_rounds"] += float(np.sum(rounds))

    def wall_s(self, scale) -> float:
        """One pass: the sum over its ops of each op's median time.

        ``scale(t0, t1)`` takes seconds spent between ``t0`` and ``t1`` to
        reference-speed seconds.
        """
        return sum(
            statistics.median(scale(t0, t1) * (t1 - t0) for t0, t1, _, _ in spans)
            for spans in self.spans.values()
        )

    def hyp_rate(self, scale) -> float:
        """Hypothesis-rounds per second of the timed units of work, all passes."""
        entries = [e for spans in self.spans.values() for e in spans]
        seconds = sum(scale(t0, t1) * s for t0, t1, s, _ in entries)
        return sum(r for _, _, _, r in entries) / seconds if seconds else 0.0

    def absorb_outcomes(self, other: "Recorder") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.wrong += other.wrong
        self.errors.update(other.errors)
        self.reasons.update(other.reasons)


class RunClock:
    """Reads the clock as each Monte-Carlo run or trial draws its generator.

    Every run of every experiment starts with one ``run_rng`` call, so the
    gaps between successive stamps inside one ``run_experiment`` call are
    per-run wall times (the last run of a call has no closing stamp and is
    left out).
    """

    def __init__(self, experiments) -> None:
        self.stamps: list[float] = []
        inner = experiments.run_rng
        stamps = self.stamps

        def run_rng(*args, **kwargs):
            stamps.append(_clock())
            return inner(*args, **kwargs)

        experiments.run_rng = run_rng
        PROBE.hook(experiments, "run_rng")

    def durations_since(self, mark: int) -> list[float]:
        return list(np.diff(self.stamps[mark:]))


class DigestBook:
    """sha256 gate on the CSV artifacts of every ``run_experiment`` op.

    Digests recorded for this seed (``digests.json``) are the reference;
    for a seed with no recorded digests the first pass becomes the
    reference, so later passes are still checked for byte-identical output.
    """

    def __init__(self, recorded: dict[str, str]) -> None:
        self.expected = dict(recorded)
        self.recorded = set(recorded)
        self.seen: dict[str, str] = {}

    def check(self, label: str, result_dir: Path) -> list[str]:
        problems = []
        for fname in ("runs.csv", "summary.csv"):
            key = f"{label}/{fname}"
            got = sha256_file(result_dir / fname)
            self.seen[key] = got
            want = self.expected.setdefault(key, got)
            if got != want:
                source = "recorded" if key in self.recorded else "first-pass"
                problems.append(f"{fname} sha256 {got[:16]} != {source} {want[:16]}")
        return problems

    def status(self, key: str) -> str:
        if key not in self.recorded:
            return "unrecorded for this seed; repeat-checked across passes"
        return "matches recorded" if self.seen.get(key) == self.expected[key] else "MISMATCH"


def _experiment_problems(result) -> list[str]:
    return [f"check {name} failed" for name, ok in result.checks.items() if not ok]


def _run_experiment_op(eq, rec, clock, digests, out_dir, label, name, config, **kwargs):
    """One ``run_experiment`` call, timed.

    Returns the gate's problems, the call's wall seconds and the per-run
    durations of all its runs but the last.
    """
    mark = len(clock.stamps)
    t0 = _clock()
    result = eq.experiments.run_experiment(name, config, out_dir / label, **kwargs)
    seconds = _clock() - t0
    runs = clock.durations_since(mark)
    rec.samples["run_s"].extend(runs)
    return _experiment_problems(result) + digests.check(label, out_dir / label), seconds, runs


class Workload:
    """Defaults for the hooks a workload may leave out."""

    digests: DigestBook | None = None

    def prepare(self) -> None:
        """Compute check references once, outside every timed region."""

    def computed(self) -> dict[str, float]:
        """Sizes computed from the workload's arrays, not measured."""
        return {}


# ---------------------------------------------------------------------------
# nf-batch: vectorized Monte-Carlo replay through run_experiment
# ---------------------------------------------------------------------------


class NfBatch(Workload):
    """nf-detect and nf-sensitivity grids with Dirac and 101-node grid cells.

    Dirac cells are bound by sampling and per-run overhead, grid cells by
    the wealth recursion, so a kernel change and a sampler change show on
    different cells. Dirac runs are the majority, so the per-run median is
    a Dirac-cell time. No object monitor, solver or simulator runs here.
    """

    name = "nf-batch"

    def __init__(self, seed: int, out_dir: Path, recorded: dict) -> None:
        self.seed = seed
        self.out_dir = out_dir
        self.digests = DigestBook(recorded.get(str(seed), {}))

    def setup(self, eq) -> None:
        self.eq = eq
        ex = eq.experiments
        self.clock = RunClock(ex)
        game = eq.scenarios.two_signal_game()
        self.m = len(eq.monitors.enumerate_hypotheses(game, eq.games.EquilibriumMode.NASH))
        detect = ex.DetectConfig(seed=self.seed, runs=60, horizon=4000)
        dirac = ex.SensitivityConfig(
            seed=self.seed,
            runs=25,
            horizon=20000,
            alphas=(0.2, 0.05),
            etas=(0.05, 0.1, 0.15),
            lambdas=(0.05, 0.4),
            mixture="dirac",
        )
        grid = ex.SensitivityConfig(
            seed=self.seed,
            runs=10,
            horizon=4000,
            alphas=(0.2,),
            etas=(0.1,),
            mixture="uniform",
            grid_nodes=101,
        )
        dirac_runs = dirac.runs * len(dirac.alphas) * len(dirac.etas) * len(dirac.lambdas)
        grid_runs = grid.runs * len(grid.alphas) * len(grid.etas)
        # (label, experiment, config, monitored runs, horizon)
        self.ops = [
            ("nf-detect", "nf-detect", detect, detect.runs, detect.horizon),
            ("nf-sensitivity-dirac", "nf-sensitivity", dirac, dirac_runs, dirac.horizon),
            ("nf-sensitivity-grid", "nf-sensitivity", grid, grid_runs, grid.horizon),
        ]

    def describe(self) -> list[str]:
        return [
            f"{label}: {runs} runs x horizon {horizon} x m={self.m}"
            for label, _, _, runs, horizon in self.ops
        ]

    def run_pass(self, rec: Recorder) -> None:
        for label, name, config, runs, horizon in self.ops:
            rec.op(label, lambda: self._op(rec, label, name, config, runs, horizon))

    def _op(self, rec, label, name, config, runs, horizon):
        problems, seconds, _ = _run_experiment_op(
            self.eq, rec, self.clock, self.digests, self.out_dir, label, name, config
        )
        rec.units(seconds, runs * horizon * self.m)
        return problems


# ---------------------------------------------------------------------------
# online: object monitors stepped one round at a time
# ---------------------------------------------------------------------------

MONITOR_ROUNDS = 500
OVERFLOW_ROUNDS = 3000
LR_STATES = 20
LR_ROUNDS = 1000
LR_STREAMS = 4
LR_EPS_GRID = (0.1, 0.3, 0.5, 0.7, 0.9)
LR_EPS_TRUE = 0.5
LR_THRESHOLD = 20.0


class Online(Workload):
    """Per-round latency of the object monitors a streaming user steps.

    FWER monitors watch equilibrium play, so they rarely stop; FDR monitors
    watch deviating play on fixed-length streams, because e-BH never stops.
    Both run in Nash and conditional-CE modes with Dirac and grid mixtures.
    One FDR stream is the constant-gap(0.3) game with the default grid run
    past round 2,718, where the wealth readout overflows today; that op is
    expected to fail until the readout stays in log space. The LR streams
    step ``lr_step`` over a mixture of alternatives to a seeded policy.
    """

    name = "online"

    def __init__(self, seed: int, out_dir: Path, recorded: dict) -> None:
        self.seed = seed

    def setup(self, eq) -> None:
        self.eq = eq
        games, sc, nfs = eq.games, eq.scenarios, eq.nfstreams
        BettingMixture = eq.eprocess.BettingMixture
        MonitorConfig = eq.monitors.MonitorConfig
        two_signal = sc.two_signal_game()
        coordination, ce_play = sc.coordination_ce()
        anti = games.JointStrategy.full([[0.0, 0.5], [0.5, 0.0]])
        modes = [
            ("nash", two_signal, games.EquilibriumMode.NASH, False,
             sc.two_signal_nash(), sc.two_signal_alternative()),
            ("ce", coordination, games.EquilibriumMode.CE, True, ce_play, anti),
        ]
        mixtures = [("dirac", BettingMixture.dirac(0.1)), ("grid", BettingMixture.uniform_grid())]
        self.streams = []
        key = 0
        for mode_name, game, mode, conditional, null_play, alt_play in modes:
            for mix_name, mixture in mixtures:
                for procedure, play in (("fwer", null_play), ("fdr", alt_play)):
                    config = MonitorConfig(
                        alpha=0.05,
                        mixture=mixture,
                        mode=mode,
                        procedure=procedure,
                        conditional_ce=conditional,
                    )
                    flat = nfs.sample_action_stream(
                        play, MONITOR_ROUNDS, eq.seeding.run_rng(self.seed, 0, key)
                    )
                    key += 1
                    self.streams.append(
                        SimpleNamespace(
                            label=f"{procedure}-{mode_name}-{mix_name}",
                            game=game,
                            config=config,
                            flat=flat,
                            profiles=_profiles(games, flat, game.action_counts),
                        )
                    )
        gap_game = sc.constant_gap_game(0.3)
        self.streams.append(
            SimpleNamespace(
                label="fdr-constant-gap-0.3-grid",
                game=gap_game,
                config=MonitorConfig(
                    alpha=0.05, mixture=BettingMixture.uniform_grid(), procedure="fdr"
                ),
                flat=np.zeros(OVERFLOW_ROUNDS, dtype=int),
                profiles=[games.ActionProfile((0, 0))] * OVERFLOW_ROUNDS,
            )
        )
        self._setup_lr(eq)

    def _setup_lr(self, eq) -> None:
        st = eq.stochastic
        rng = eq.seeding.run_rng(self.seed, 1)
        null = st.smooth_policy(
            st.Policy(rng.dirichlet(np.ones(5), size=LR_STATES)), 0.2
        )
        target = st.Policy(rng.dirichlet(np.ones(5), size=LR_STATES))
        self.lr_null = null
        self.lr_alternatives = tuple(st.mixture_policy(null, target, e) for e in LR_EPS_GRID)
        played = st.mixture_policy(null, target, LR_EPS_TRUE).table
        self.lr_streams = []
        for k in range(LR_STREAMS):
            srng = eq.seeding.run_rng(self.seed, 2, k)
            states = srng.integers(LR_STATES, size=LR_ROUNDS)
            u = srng.random(LR_ROUNDS)
            actions = np.minimum(
                (np.cumsum(played[states], axis=1) <= u[:, None]).sum(axis=1), 4
            )
            self.lr_streams.append(
                list(zip(states.tolist(), actions.tolist()))
            )

    def prepare(self) -> None:
        """Reference outcomes from the batch replay and a numpy LR recursion."""
        nfs = self.eq.nfstreams
        for s in self.streams:
            monitor = self.eq.monitors.EquilibriumMonitor(s.game, s.config)
            s.m = monitor.m
            incr = nfs.increment_tables(s.game, monitor.hypotheses)[:, s.flat]
            actions = np.array(np.unravel_index(s.flat, s.game.action_counts))
            for j, h in enumerate(monitor.hypotheses):
                if h.condition is not None:
                    # A conditional hypothesis skips rounds off its
                    # recommendation; a zero increment leaves wealth as is.
                    incr[j, actions[h.player] != h.condition] = 0.0
            paths = nfs.log_wealth_paths(incr, s.config.mixture)
            if s.config.procedure == "fwer":
                crossings = nfs.fwer_crossing_times(paths, monitor.threshold)
                hit = crossings[crossings > 0]
                s.expected = int(hit.min()) if hit.size else -1
            else:
                alarm, k, rejected = nfs.ebh_alarm(paths, s.config.alpha, monitor.weights)
                s.expected = (alarm, k, tuple(monitor.hypotheses[j].label() for j in rejected))
        self.lr_expected = [self._lr_reference(stream) for stream in self.lr_streams]

    def _lr_reference(self, stream):
        states, actions = (np.array(v) for v in zip(*stream))
        null = self.lr_null.table[states, actions]
        alts = np.stack([a.table[states, actions] for a in self.lr_alternatives], axis=1)
        log_lr = np.cumsum(np.log(alts) - np.log(null)[:, None], axis=0)
        shift = log_lr.max(axis=1)
        weights = np.full(len(self.lr_alternatives), 1.0 / len(self.lr_alternatives))
        value = np.exp(shift) * (np.exp(log_lr - shift[:, None]) @ weights)
        hits = np.nonzero(value >= LR_THRESHOLD)[0]
        return (int(hits[0]) + 1 if hits.size else None), log_lr[-1]

    def describe(self) -> list[str]:
        lines = [
            f"{s.label}: m={s.m}, {len(s.profiles)} rounds" for s in self.streams
        ]
        lines.append(
            f"lr-mixture: {LR_STREAMS} streams x {LR_ROUNDS} rounds, "
            f"{len(self.lr_alternatives)} alternatives"
        )
        return lines

    def run_pass(self, rec: Recorder) -> None:
        for s in self.streams:
            rec.op(s.label, lambda: self._monitor_op(rec, s))
        for k, stream in enumerate(self.lr_streams):
            rec.op(f"lr-mixture-{k}", lambda: self._lr_op(rec, stream, self.lr_expected[k]))

    def _monitor_op(self, rec, s):
        monitor = self.eq.monitors.EquilibriumMonitor(s.game, s.config)
        steps = rec.samples["step_s"]
        first = len(steps)
        stop, alarm = -1, None
        try:
            if s.config.procedure == "fwer":
                for profile in s.profiles:
                    PROBE()
                    t0 = _clock()
                    decision = monitor.step_fwer(profile)
                    steps.append(_clock() - t0)
                    if decision.stopped:
                        stop = decision.round
                        break
            else:
                for profile in s.profiles:
                    PROBE()
                    t0 = _clock()
                    state = monitor.step_fdr(profile)
                    steps.append(_clock() - t0)
                    if alarm is None and state.k > 0:
                        rejected = sorted(state.rejected, key=monitor.hypotheses.index)
                        alarm = (monitor.round, state.k, tuple(h.label() for h in rejected))
        finally:
            rounds = steps[first:]
            rec.units(rounds, len(rounds) * monitor.m)
        if s.config.procedure == "fwer":
            if stop != s.expected:
                return [f"step_fwer stopped at {stop}, fwer_crossing_times gives {s.expected}"]
            return []
        got = alarm or (-1, 0, ())
        if got != s.expected:
            return [f"step_fdr first (round, k, rejected) {got}, ebh_alarm gives {s.expected}"]
        return []

    def _lr_op(self, rec, stream, expected):
        st = self.eq.stochastic
        state = st.LRMonitorState.fresh(self.lr_alternatives)
        samples = rec.samples["lr_step_s"]
        for s_idx, action in stream:
            PROBE()
            t0 = _clock()
            st.lr_step(state, s_idx, action, self.lr_null, LR_THRESHOLD)
            samples.append(_clock() - t0)
        crossing, log_lr = expected
        problems = []
        if state.crossing_time != crossing:
            problems.append(f"lr crossing {state.crossing_time}, reference {crossing}")
        if not np.allclose(state.log_lr, log_lr, rtol=0.0, atol=1e-9):
            problems.append("lr log wealth differs from the numpy recursion")
        return problems


def _profiles(games, flat: np.ndarray, counts) -> list:
    actions = np.array(np.unravel_index(flat, counts)).T
    return [games.ActionProfile(tuple(row)) for row in actions.tolist()]


# ---------------------------------------------------------------------------
# stochastic: Shapley solve, monitored simulators, random matrix games
# ---------------------------------------------------------------------------

GAMES_PER_PASS = 200
FROZEN_SEED = 20260810
EXPLOITABILITY_TOL = 1e-6


class Stochastic(Workload):
    """The solver and simulators, which do nearly all their work here.

    The Shapley sweep is dominated by pure saddle points that skip the LP,
    while random 5x5 games reach the LP almost every time, so a solver
    change that helps one use and costs the other shows as ``solve_s``
    against ``lp_games_per_s``. The soccer-scaling trials use the policies
    of this pass's solve, at the checked-in sizes and the frozen master
    seed: its slope band is validated there, and at other seeds the slope
    leaves the band by chance (seed 23 gave -1.43 at these sizes and -1.53
    with twice the trials). Prey trials and games follow the workload seed.
    """

    name = "stochastic"

    def __init__(self, seed: int, out_dir: Path, recorded: dict) -> None:
        self.seed = seed
        self.out_dir = out_dir
        # Soccer-scaling always runs at the frozen seed, so its digests hold
        # for every workload seed.
        frozen = recorded.get(str(FROZEN_SEED), {})
        digests = {k: v for k, v in frozen.items() if k.startswith("soccer-scaling/")}
        digests.update(recorded.get(str(seed), {}))
        self.digests = DigestBook(digests)

    def setup(self, eq) -> None:
        self.eq = eq
        ex, st = eq.experiments, eq.stochastic
        self.clock = RunClock(ex)
        # Probe the host during the long Shapley solve too.
        PROBE.hook(st, "matrix_game_solve")
        self.tab = eq.soccer.soccer_build_model()
        solve = ex.SoccerSolveConfig()
        self.solver = st.SolverConfig(
            discount=solve.discount,
            tolerance=solve.tolerance,
            max_iterations=solve.max_iterations,
            smoothing=solve.smoothing,
        )
        self.soccer_config = ex.SoccerScalingConfig(seed=FROZEN_SEED, workers=1)
        self.prey_config = ex.PreyMixtureConfig(
            seed=self.seed, trials=40, eps_true=(0.2, 0.4, 0.8), workers=1
        )
        self.games = [
            eq.seeding.run_rng(self.seed, 3, i).random((5, 5)) for i in range(GAMES_PER_PASS)
        ]

    def computed(self) -> dict[str, float]:
        kernel = self.tab.model.transition
        return {
            "soccer.kernel_bytes": float(kernel.nbytes),
            "soccer.kernel_nnz": float(np.count_nonzero(kernel)),
        }

    def describe(self) -> list[str]:
        sc, pc = self.soccer_config, self.prey_config
        return [
            f"soccer-solve: {self.tab.model.num_states} states, tolerance "
            f"{self.solver.tolerance}, max {self.solver.max_iterations} sweeps",
            f"soccer-scaling: {sc.trials} trials x epsilons {sc.epsilons}, t_max {sc.t_max}, "
            f"seed {sc.seed}",
            f"prey-mixture: {pc.trials} trials x eps_true {pc.eps_true}, horizon {pc.horizon}",
            f"matrix games: {GAMES_PER_PASS} random 5x5 per pass",
        ]

    def run_pass(self, rec: Recorder) -> None:
        self.solution = None
        rec.op("soccer-solve", lambda: self._solve_op(rec))
        for name in ("soccer-scaling", "prey-mixture"):
            rec.op(name, lambda: self._trials_op(rec, name))
        for i, payoff in enumerate(self.games):
            rec.op(f"matrix-game-{i}", lambda: self._game_op(rec, payoff))

    def _solve_op(self, rec):
        st = self.eq.stochastic
        native = self.tab.native_reward
        kernel = self.tab.model.transition
        t0 = _clock()
        solution = st.shapley_solve_arrays(native, kernel, self.solver)
        # One more sweep as a fixed-point certificate, as soccer-solve does.
        q = native + self.solver.discount * np.einsum("sabt,t->sab", kernel, solution.values)
        resolved = np.array([st.matrix_game_solve(q[s]).value for s in range(q.shape[0])])
        rec.samples["solve_s"].append(_clock() - t0)
        rec.work["shapley_iterations"] += solution.iterations
        residual = float(np.max(np.abs(resolved - solution.values)))
        self.solution = solution
        problems = []
        if not solution.converged:
            problems.append(f"no convergence in {solution.iterations} sweeps")
        if not residual < self.solver.tolerance:
            problems.append(f"post-sweep residual {residual:.3g} >= {self.solver.tolerance}")
        return problems

    def _trials_op(self, rec, name):
        if name == "soccer-scaling":
            if self.solution is None:
                return ["no policies: the solve op of this pass failed"]
            config, horizon = self.soccer_config, self.soccer_config.t_max
            kwargs = {"policies": (self.solution.row_policy, self.solution.col_policy)}
        else:
            config, horizon, kwargs = self.prey_config, self.prey_config.horizon, {}
        problems, _, durations = _run_experiment_op(
            self.eq, rec, self.clock, self.digests, self.out_dir, name, name, config, **kwargs
        )
        _, columns, rows = self.eq.csvio.read_csv(self.out_dir / name / "runs.csv")
        # Rows are in trial order, as the trials ran with workers=1; each
        # monitored trial stops at its tau or runs to the horizon.
        steps = [t if t > 0 else horizon for t in (int(row[columns.index("tau")]) for row in rows)]
        if len(durations) != len(steps) - 1:
            return problems + [f"{len(durations) + 1} timed trials for {len(steps)} rows"]
        rec.units(durations, steps[:-1])
        return problems

    def _game_op(self, rec, payoff):
        st = self.eq.stochastic
        t0 = _clock()
        sol = st.matrix_game_solve(payoff)
        rec.samples["game_s"].append(_clock() - t0)
        gap = st.exploitability(payoff, sol.row_strategy, sol.col_strategy, sol.value)
        if not gap <= EXPLOITABILITY_TOL:
            return [f"exploitability {gap:.3g} > {EXPLOITABILITY_TOL}"]
        return []


WORKLOADS = {w.name: w for w in (NfBatch, Online, Stochastic)}
