"""Benchmark harness: seeded runs, campaigns, sweeps, baselines, export.

Everything here is deterministic given (scenario, solver, seed, budget):
each run owns a single seeded generator, and campaigns and sweeps step
their runs in lockstep groups whose stacked evaluations are row-wise, so
a run's results do not depend on which runs share its group.  Worker
processes take contiguous slices of the run list, and results are
collected in run order.  Artifacts therefore compare equal bit for bit
at any worker count once wall-clock fields are stripped.
"""

from __future__ import annotations

import csv
import itertools
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

from . import ga as ga_mod
from . import pso as pso_mod
from .common import (
    Incumbent,
    SolverReport,
    SolverSteps,
    drive,
    drive_lockstep,
)
from .config import SOLVER_CONFIGS, ConfigError, ScenarioConfig
from .encoding import LinkProblem

__all__ = [
    "SOLVER_NAMES",
    "RANDOM_DEFAULT_BUDGET",
    "RunArtifact",
    "convergence_speed",
    "make_solver_config",
    "run_single",
    "run_campaign",
    "campaign_to_dict",
    "random_search",
    "random_steps",
    "SweepSpec",
    "SweepPoint",
    "run_sweep",
    "sweep_rows",
    "sweep_summary",
    "write_csv",
    "write_json",
    "GridResult",
    "grid_oracle",
    "export_solution",
    "read_solution",
]

SOLVER_NAMES = ("ga", "ipso", "pso", "random")

RANDOM_DEFAULT_BUDGET = 10_000

# Random-search draws happen in fixed-size blocks so that the stream of
# candidates for a given seed is a prefix-stable sequence: raising the
# budget never changes the candidates already evaluated.
_RANDOM_CHUNK = 256

GRID_MAX_POINTS = 10_000_000
GRID_MAX_SLOTS = 3
_GRID_CHUNK = 4096


def convergence_speed(report: SolverReport) -> float:
    """Achieved rate per generation actually needed to reach it.

    Infeasible runs contribute a rate of zero.  The divisor is clamped to
    one so a run that never improves past its initial population still
    yields a finite number.
    """
    rate = report.best_objective_bps if report.feasible else 0.0
    return float(max(rate, 0.0)) / float(max(1, report.last_improvement_generation))


@dataclass(eq=False)
class RunArtifact:
    """One solver run plus the provenance needed to reproduce it."""

    scenario_name: str
    scenario_hash: str
    solver: str
    seed: int
    budget: Optional[int]
    report: SolverReport
    wall_clock_s: float

    @property
    def convergence_speed_bps(self) -> float:
        return convergence_speed(self.report)

    def to_dict(self, include_timing: bool = True) -> dict:
        out = {
            "scenario_name": self.scenario_name,
            "scenario_hash": self.scenario_hash,
            "solver": self.solver,
            "seed": int(self.seed),
            "budget": None if self.budget is None else int(self.budget),
            "convergence_speed_bps": float(self.convergence_speed_bps),
            "report": self.report.to_dict(),
        }
        if include_timing:
            out["wall_clock_s"] = float(self.wall_clock_s)
        return out


def make_solver_config(scenario: ScenarioConfig, solver: str, seed: int,
                       budget: Optional[int] = None):
    """Solver config for a scenario: defaults, file overrides, then seed/budget."""
    if solver == "random":
        return None
    if solver not in SOLVER_CONFIGS:
        raise ValueError(f"unknown solver {solver!r}; expected one of {SOLVER_NAMES}")
    return SOLVER_CONFIGS[solver](**scenario.solver_overrides.get(solver, {}),
                                  seed=seed, max_evaluations=budget)


def _solver_steps(scenario: ScenarioConfig, problem: LinkProblem,
                  solver: str, seed: int, budget: Optional[int],
                  callback=None) -> SolverSteps:
    cfg = make_solver_config(scenario, solver, seed, budget)
    if cfg is None:
        return random_steps(
            problem, budget=RANDOM_DEFAULT_BUDGET if budget is None else budget,
            seed=seed, callback=callback)
    steps = ga_mod.steps if isinstance(cfg, ga_mod.GaConfig) else pso_mod.steps
    return steps(cfg, problem, callback=callback)


def _run_group(scenario: ScenarioConfig, solver: str, seeds: Sequence[int],
               budget: Optional[int] = None,
               callback=None) -> List[RunArtifact]:
    """Runs of one solver over ``seeds``, stepped in lockstep.

    Each artifact's ``wall_clock_s`` is the group's wall time divided by
    the group's size, so the sum over artifacts is still the busy time.
    """
    problem = scenario.build_problem()
    started = time.perf_counter()
    reports = drive_lockstep(
        [_solver_steps(scenario, problem, solver, seed, budget, callback)
         for seed in seeds], problem)
    wall = (time.perf_counter() - started) / len(seeds)
    return [
        RunArtifact(
            scenario_name=scenario.name,
            scenario_hash=scenario.scenario_hash(),
            solver=solver,
            seed=int(seed),
            budget=None if budget is None else int(budget),
            report=report,
            wall_clock_s=wall,
        )
        for seed, report in zip(seeds, reports)
    ]


def run_single(scenario: ScenarioConfig, solver: str, seed: int,
               budget: Optional[int] = None, callback=None) -> RunArtifact:
    """Run one solver once on a scenario and package the result."""
    return _run_group(scenario, solver, [seed], budget, callback)[0]


def _as_solver_list(solvers) -> List[str]:
    names = [solvers] if isinstance(solvers, str) else list(solvers)
    if not names:
        raise ValueError("at least one solver is required")
    for name in names:
        if name not in SOLVER_NAMES:
            raise ValueError(
                f"unknown solver {name!r}; expected one of {SOLVER_NAMES}")
    return names


def _run_slice(runs: Sequence[tuple], budget: Optional[int]) -> list:
    """One result per ``(scenario, solver, seed)`` run, in run order.

    Each maximal stretch of runs on the same scenario object and solver
    is one lockstep group.  A group that raises ``ConfigError`` or
    ``ValueError`` gives each of its runs that exception, not an artifact,
    and so do the later groups on that scenario, which are not run: one
    failed run fails its whole campaign or swept value.
    """
    results, failed = [], {}
    for (scenario, solver), stretch in itertools.groupby(
            runs, key=lambda run: run[:2]):
        seeds = [seed for _, _, seed in stretch]
        if scenario not in failed:
            try:
                results += _run_group(scenario, solver, seeds, budget)
                continue
            except (ConfigError, ValueError) as exc:
                failed[scenario] = exc
        results += [failed[scenario]] * len(seeds)
    return results


def _execute(runs: Sequence[tuple], budget: Optional[int],
             workers: int) -> list:
    """Run every ``(scenario, solver, seed)``; see :func:`_run_slice`.

    ``min(workers, len(runs))`` contiguous slices of near-equal size run
    in this process (one slice) or as the tasks of one process pool.
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")
    n_slices = min(workers, len(runs))
    if n_slices <= 1:
        return _run_slice(runs, budget)
    cuts = [len(runs) * k // n_slices for k in range(n_slices + 1)]
    parts = [runs[lo:hi] for lo, hi in zip(cuts, cuts[1:])]
    with ProcessPoolExecutor(max_workers=n_slices) as pool:
        done = pool.map(_run_slice, parts, itertools.repeat(budget))
        return [result for part in done for result in part]


def run_campaign(scenario: ScenarioConfig, solvers, seeds: Sequence[int],
                 budget: Optional[int] = None,
                 workers: int = 1) -> List[RunArtifact]:
    """One run per (solver, seed), in solver-major then seed order.

    ``solvers`` is a name or a list of names; every run gets the same
    evaluation budget, so campaigns compare solvers fairly.  Runs are
    dealt to workers in contiguous slices, and a slice's runs of one
    solver step in lockstep with one stacked evaluation per step (see
    :func:`_execute`).  Every run is seeded independently and evaluation
    is row-wise, so the artifacts are identical whatever the worker
    count.  The first failed run's exception is raised.
    """
    names = _as_solver_list(solvers)
    seeds = [int(seed) for seed in seeds]
    if not seeds:
        raise ValueError("at least one seed is required")
    results = _execute([(scenario, solver, seed)
                        for solver in names for seed in seeds],
                       budget, workers)
    for result in results:
        if isinstance(result, Exception):
            raise result
    return results


def campaign_to_dict(artifacts: Sequence[RunArtifact],
                     include_timing: bool = True) -> dict:
    return {"runs": [a.to_dict(include_timing=include_timing) for a in artifacts]}


# ----------------------------------------------------------------------
# Random-search baseline
# ----------------------------------------------------------------------

def random_search(problem: LinkProblem, budget: int, seed: int = 0,
                  chunk_size: int = _RANDOM_CHUNK,
                  callback=None) -> SolverReport:
    """Uniform random sampling of the unit box, best-so-far kept."""
    return drive(random_steps(problem, budget, seed, chunk_size, callback),
                 problem)


def random_steps(problem: LinkProblem, budget: int, seed: int = 0,
                 chunk_size: int = _RANDOM_CHUNK,
                 callback=None) -> SolverSteps:
    """Random search as a solver loop (see :mod:`uavbsc.common`).

    Candidates are drawn in row-major blocks from one seeded stream, so a
    longer budget evaluates a strict superset of a shorter one.  The trace
    holds one record per block.
    """
    if budget < 1:
        raise ValueError("random search needs a budget of at least 1")
    if chunk_size < 1:
        raise ValueError("chunk_size must be at least 1")
    rng = np.random.default_rng(seed)
    dim = problem.genome_size

    best = Incumbent(callback)
    evaluations = 0
    block = 0
    while evaluations < budget:
        n = min(chunk_size, budget - evaluations)
        genomes = problem.adjust(rng.random((n, dim)))
        ev = yield genomes
        evaluations += n
        block += 1
        best.offer(genomes, ev.fitness, ev.worst_violation, block)
        best.record(block, np.mean(ev.fitness), evaluations)

    return best.report(problem, "random", int(seed), evaluations, int(budget),
                       {"chunk_size": int(chunk_size)})


# ----------------------------------------------------------------------
# Parameter sweeps
# ----------------------------------------------------------------------

@dataclass(eq=False)
class SweepSpec:
    """What to vary, which solvers to run, and with what effort."""

    parameter: str
    values: Sequence
    solvers: Sequence = ("ipso",)
    seeds: Sequence[int] = (0, 1, 2)
    budget: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.parameter:
            raise ValueError("sweep needs a parameter name")
        self.values = list(self.values)
        if not self.values:
            raise ValueError("sweep needs at least one value")
        self.seeds = [int(seed) for seed in self.seeds]
        if not self.seeds:
            raise ValueError("sweep needs at least one seed")
        self.solvers = _as_solver_list(self.solvers)


@dataclass(eq=False)
class SweepPoint:
    """All runs at one swept value, or the reason the point failed."""

    parameter: str
    value: object
    artifacts: List[RunArtifact] = field(default_factory=list)
    error: Optional[str] = None

    def rates_bps(self, solver: Optional[str] = None) -> np.ndarray:
        """Per-seed achieved rates; an infeasible run contributes zero."""
        return np.array([
            a.report.best_objective_bps if a.report.feasible else 0.0
            for a in self.artifacts
            if solver is None or a.solver == solver
        ])

    def median_rate_bps(self, solver: Optional[str] = None) -> float:
        """Median of :meth:`rates_bps`; NaN for a failed point or no runs."""
        rates = self.rates_bps(solver)
        if self.error is not None or rates.size == 0:
            return float("nan")
        return float(np.median(rates))

    def solvers(self) -> List[str]:
        return list(dict.fromkeys(a.solver for a in self.artifacts))


def run_sweep(scenario: ScenarioConfig, spec: SweepSpec,
              workers: int = 1) -> List[SweepPoint]:
    """Every (value, solver, seed) run, dealt like a campaign's.

    One pool serves the whole sweep.  One bad value never kills it: a
    value that fails to load, or whose runs fail, keeps the first error
    and no artifacts.
    """
    points: List[SweepPoint] = []
    runs = []
    for value in spec.values:
        point = SweepPoint(parameter=spec.parameter, value=value)
        try:
            varied = scenario.with_value(spec.parameter, value)
        except (ConfigError, ValueError) as exc:
            point.error = str(exc)
        else:
            runs += [(varied, solver, seed)
                     for solver in spec.solvers for seed in spec.seeds]
        points.append(point)
    results = iter(_execute(runs, spec.budget, workers))
    per_point = len(spec.solvers) * len(spec.seeds)
    for point in points:
        if point.error is not None:
            continue
        point.artifacts = list(itertools.islice(results, per_point))
        failed = [r for r in point.artifacts if isinstance(r, Exception)]
        if failed:
            point.error, point.artifacts = str(failed[0]), []
    return points


def sweep_rows(points: Sequence[SweepPoint],
               include_timing: bool = True) -> List[dict]:
    """One CSV row per (value, solver, seed); failed values yield one error row.

    With ``include_timing`` false the wall-clock column is dropped, which
    makes the rows a pure function of (config, solver, seed, budget).
    """
    rows = []
    for point in points:
        if point.error is not None:
            rows.append({
                "parameter": point.parameter, "value": point.value,
                "seed": "", "solver": "", "feasible": "",
                "rate_bps": "", "fitness": "",
                "evaluations": "", "last_improvement_generation": "",
                "wall_clock_s": "", "error": point.error,
            })
        for art in point.artifacts:
            rows.append({
                "parameter": point.parameter, "value": point.value,
                "seed": art.seed, "solver": art.solver,
                "feasible": art.report.feasible,
                "rate_bps": art.report.best_objective_bps,
                "fitness": art.report.best.fitness,
                "evaluations": art.report.evaluations,
                "last_improvement_generation":
                    art.report.last_improvement_generation,
                "wall_clock_s": art.wall_clock_s,
                "error": "",
            })
    if not include_timing:
        for row in rows:
            del row["wall_clock_s"]
    return rows


def sweep_summary(points: Sequence[SweepPoint]) -> List[dict]:
    """One row per (swept value, solver) with the median over seeds.

    The median counts an infeasible run as zero rate, so a value where
    half the seeds fail to find a feasible mission is penalized rather
    than silently dropped.
    """
    rows = []
    for point in points:
        if point.error is not None:
            rows.append({
                "parameter": point.parameter, "value": point.value,
                "solver": "", "runs": 0, "feasible_runs": 0,
                "median_rate_bps": "", "best_rate_bps": "",
                "error": point.error,
            })
        for solver in point.solvers():
            arts = [a for a in point.artifacts if a.solver == solver]
            rates = point.rates_bps(solver)
            rows.append({
                "parameter": point.parameter, "value": point.value,
                "solver": solver,
                "runs": len(arts),
                "feasible_runs": int(sum(
                    1 for a in arts if a.report.feasible)),
                "median_rate_bps": float(np.median(rates)) if len(rates) else "",
                "best_rate_bps": float(np.max(rates)) if len(rates) else "",
                "error": "",
            })
    return rows


def write_json(path, payload) -> None:
    """Write an artifact as JSON: sorted keys, two-space indent, final newline."""
    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def write_csv(path, rows: Sequence[dict]) -> None:
    """Write homogeneous dict rows; column order follows the first row."""
    path = Path(path)
    if not rows:
        path.write_text("", encoding="utf-8")
        return
    fieldnames = list(rows[0].keys())
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)


# ----------------------------------------------------------------------
# Exhaustive grid oracle (tiny scenarios only)
# ----------------------------------------------------------------------

@dataclass(eq=False)
class GridResult:
    """Best point of an exhaustive grid enumeration."""

    genome: np.ndarray
    fitness: float
    objective_bps: float
    feasible: bool
    worst_violation: float
    points_evaluated: int
    resolution: int
    free_gene_indices: List[int]

    def to_dict(self) -> dict:
        return {
            "genome": [float(g) for g in self.genome],
            "fitness": float(self.fitness),
            "objective_bps": float(self.objective_bps),
            "feasible": bool(self.feasible),
            "worst_violation": float(self.worst_violation),
            "points_evaluated": int(self.points_evaluated),
            "resolution": int(self.resolution),
            "free_gene_indices": [int(i) for i in self.free_gene_indices],
        }


def grid_oracle(problem: LinkProblem, resolution: int,
                max_points: int = GRID_MAX_POINTS,
                chunk_size: int = _GRID_CHUNK) -> GridResult:
    """Enumerate every grid point of the free genes and keep the best.

    Only meant for small instances: refuses problems with more than
    ``GRID_MAX_SLOTS`` slots and grids larger than ``max_points``.  The
    winner is kept by :class:`~uavbsc.common.Incumbent`, so ties on
    (fitness, worst violation) go to the earliest point in lexicographic
    gene order, which makes the result chunk-size independent.
    """
    if resolution < 1:
        raise ValueError("resolution must be at least 1")
    n_slots = problem.params.slot_count
    if n_slots > GRID_MAX_SLOTS:
        raise ValueError(
            f"grid oracle only supports up to {GRID_MAX_SLOTS} slots "
            f"(scenario has {n_slots}); it would be astronomically large otherwise")

    frozen = set(problem.frozen_gene_indices())
    free = [g for g in range(problem.genome_size) if g not in frozen]
    n_free = len(free)
    total = resolution ** n_free
    if total > max_points:
        raise ValueError(
            f"grid of {resolution}^{n_free} = {total} points exceeds the "
            f"{max_points}-point guard")

    if resolution == 1:
        levels = np.array([0.5])
    else:
        levels = np.linspace(0.0, 1.0, resolution)

    best = Incumbent()
    evaluated = 0
    radix = resolution
    weights = radix ** np.arange(n_free - 1, -1, -1, dtype=np.int64)

    start = 0
    base = np.full(problem.genome_size, 0.5)
    while start < total:
        stop = min(start + chunk_size, total)
        idx = np.arange(start, stop, dtype=np.int64)
        digits = (idx[:, None] // weights[None, :]) % radix
        genomes = np.tile(base, (stop - start, 1))
        genomes[:, free] = levels[digits]
        genomes = problem.adjust(genomes)
        ev = problem.evaluate_batch(genomes)
        evaluated += stop - start
        best.offer(genomes, ev.fitness, ev.worst_violation)
        start = stop

    winner = problem.evaluate(best.genome)
    return GridResult(
        genome=best.genome,
        fitness=winner.fitness,
        objective_bps=winner.objective_bps,
        feasible=winner.report.feasible,
        worst_violation=winner.report.worst_violation,
        points_evaluated=evaluated,
        resolution=resolution,
        free_gene_indices=free,
    )


# ----------------------------------------------------------------------
# Solution export / import
# ----------------------------------------------------------------------

def export_solution(problem: LinkProblem, genome, out_dir,
                    meta: Optional[dict] = None) -> "tuple[Path, Path]":
    """Write ``solution.json`` and ``trajectory.csv`` for one mission.

    The CSV has one row per waypoint (slot count + 1 rows).  Row ``i``
    carries the slot that starts at waypoint ``i``; the final waypoint
    starts no slot, so its slot columns are empty.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    evaluated = problem.evaluate(genome)
    table = problem.slot_table(evaluated.trajectory, evaluated.time_split)
    waypoints = evaluated.trajectory.waypoints
    n_slots = evaluated.trajectory.n_slots

    solution_path = out_dir / "solution.json"
    write_json(solution_path, {**evaluated.to_dict(), "meta": meta or {}})

    csv_path = out_dir / "trajectory.csv"
    rows = []
    consumed = table.fly_j + table.backscatter_j + table.cache_j
    for i in range(n_slots + 1):
        row = {
            "waypoint": i,
            "x_m": float(waypoints[i, 0]),
            "y_m": float(waypoints[i, 1]),
            "z_m": float(waypoints[i, 2]),
        }
        if i < n_slots:
            row.update({
                "time_split": float(evaluated.time_split[i]),
                "speed_mps": float(table.speed_mps[i]),
                "station_tag_distance_m": float(table.d_su_m[i]),
                "tag_user_distance_m": float(table.d_du_m[i]),
                "uplink_rate_bps": float(table.rate_up_bps[i]),
                "downlink_rate_bps": float(table.rate_down_bps[i]),
                "harvested_j": float(table.harvested_j[i]),
                "consumed_j": float(consumed[i]),
            })
        else:
            row.update({
                "time_split": "", "speed_mps": "",
                "station_tag_distance_m": "", "tag_user_distance_m": "",
                "uplink_rate_bps": "", "downlink_rate_bps": "",
                "harvested_j": "", "consumed_j": "",
            })
        rows.append(row)
    write_csv(csv_path, rows)
    return solution_path, csv_path


def read_solution(path) -> dict:
    """Load a solution or run artifact and return its genome plus metadata."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(data, dict):
        raise ValueError(f"{path} does not hold a JSON object")
    holder = data
    if "genome" not in data and isinstance(data.get("report"), dict) \
            and "best" in data["report"]:
        holder = data["report"]["best"]
        if not isinstance(holder, dict):
            raise ValueError(f"{path}: report.best is not an object")
    if "genome" not in holder:
        raise ValueError(
            f"{path} holds neither a solution nor a run artifact "
            f"(no genome found)")
    try:
        genome = np.asarray(holder["genome"], dtype=np.float64)
    except (TypeError, ValueError):
        genome = None
    if genome is None or genome.ndim != 1:
        raise ValueError(f"{path}: genome is not a flat list of numbers")
    return {"genome": genome, "data": data}
