"""Benchmark harness: seeded runs, campaigns, sweeps, baselines, export.

Everything here is deterministic given (scenario, solver, seed, budget):
each run owns a single seeded generator.  Campaigns and sweeps step the
seeds of one solver as one stacked loop, and the loops of consecutive
scenarios that share a geometry (one campaign, or the values of a sweep
over a physics scalar) together, with one evaluation per tick; a loop's
error is the result of each of its runs (:func:`_run_slice`).  Evaluation is
row-wise and worker processes take contiguous slices of the run list,
so artifacts compare equal bit for bit at any worker count once
wall-clock fields are stripped.  A run's ``wall_clock_s`` is its loop's
own operator time plus its row share of each evaluation it joined, split
evenly over the loop's seeds; :func:`run_single` reports its own wall time.
"""

from __future__ import annotations

import csv
import itertools
import json
import time
from json.encoder import encode_basestring_ascii
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

from . import ga as ga_mod
from . import pso as pso_mod
from .common import (Incumbent, SolverReport, SolverSteps, draw, drive, run_alone,
                     seed_problems)
from .config import SOLVER_CONFIGS, ConfigError, ScenarioConfig
from .encoding import LinkProblem

__all__ = [
    "SOLVER_NAMES",
    "RANDOM_DEFAULT_BUDGET",
    "RunArtifact",
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
    "export_solution",
    "read_solution",
]

SOLVER_NAMES = ("ga", "ipso", "pso", "random")

RANDOM_DEFAULT_BUDGET = 10_000

# Random-search draws happen in fixed-size blocks so that the stream of
# candidates for a given seed is a prefix-stable sequence: raising the
# budget never changes the candidates already evaluated.
_RANDOM_CHUNK = 256


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

    def to_dict(self, include_timing: bool = True) -> dict:
        out = {
            "scenario_name": self.scenario_name,
            "scenario_hash": self.scenario_hash,
            "solver": self.solver,
            "seed": int(self.seed),
            "budget": None if self.budget is None else int(self.budget),
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


def _run_group(scenario: ScenarioConfig, solver: str, seeds: Sequence[int],
               budget: Optional[int], problems) -> SolverSteps:
    """The stacked loop of one solver over ``seeds`` on their problems, with
    the solver settings of ``scenario``; its solver config is made, and may
    fail, in the loop's first step."""
    cfg = make_solver_config(scenario, solver, seeds[0], budget)
    if cfg is None:
        return (yield from random_steps(
            problems, RANDOM_DEFAULT_BUDGET if budget is None else budget, seeds))
    steps = ga_mod.steps if isinstance(cfg, ga_mod.GaConfig) else pso_mod.steps
    return (yield from steps(cfg, problems, seeds))


def run_single(scenario: ScenarioConfig, solver: str, seed: int,
               budget: Optional[int] = None) -> RunArtifact:
    """Run one solver once on a scenario and package the result.

    The artifact's ``wall_clock_s`` is the run's own wall time.
    """
    started = time.perf_counter()
    (result,) = _run_slice([(scenario, solver, *_as_seed_list([seed]))], budget)
    if isinstance(result, Exception):
        raise result
    result.wall_clock_s = time.perf_counter() - started
    return result


def _as_solver_list(solvers) -> List[str]:
    names = [solvers] if isinstance(solvers, str) else list(solvers)
    if not names:
        raise ValueError("at least one solver is required")
    for name in names:
        if name not in SOLVER_NAMES:
            raise ValueError(
                f"unknown solver {name!r}; expected one of {SOLVER_NAMES}")
    return names


def _as_seed_list(seeds) -> List[int]:
    seeds = [int(seed) for seed in seeds]
    if not seeds:
        raise ValueError("at least one seed is required")
    for seed in seeds:
        if seed < 0:
            raise ValueError(f"seeds must be non-negative (got seed {seed})")
    return seeds


def _run_slice(runs: Sequence[tuple], budget: Optional[int]) -> list:
    """One result per ``(scenario, solver, seed)`` run, in run order.

    Each stretch of runs on one scenario object builds one problem.
    Consecutive scenarios whose problems share a geometry (a sweep over a
    physics scalar, not over the slot count or the altitude) run in one
    :func:`~uavbsc.common.drive`.  Among them, consecutive scenarios with
    equal solver settings (a sweep over a ``system.*`` or ``propulsion.*``
    scalar) share one stacked loop per solver over all their seeds, value
    after value, each seed on its own value's problem.  An artifact's
    ``wall_clock_s`` is its loop's busy time split evenly over all the
    loop's seeds.  Each run of a loop that raised ``ValueError``
    (``ConfigError`` included) gets that error, so a failed loop fails
    its own runs only.
    """
    results: list = [None] * len(runs)
    stretches = [(scenario, scenario.build_problem(), list(stretch))
                 for scenario, stretch in itertools.groupby(
                     enumerate(runs), key=lambda item: item[1][0])]
    for _, fused in itertools.groupby(stretches, key=lambda st: st[1].geometry):
        loops = []  # (solver, [(run index, seed, scenario, problem)]) per loop
        for _, merged in itertools.groupby(fused, lambda st: st[0].solver_overrides):
            members: dict = {}
            for scenario, problem, stretch in merged:
                for index, (_, solver, seed) in stretch:
                    members.setdefault(solver, []).append(
                        (index, seed, scenario, problem))
            loops += members.items()
        problems = [[problem for *_, problem in group] for _, group in loops]
        driven = drive([_run_group(group[0][2], solver, [run[1] for run in group],
                                   budget, own)
                        for (solver, group), own in zip(loops, problems)], problems)
        for (solver, group), (outcome, busy) in zip(loops, driven):
            for k, (index, seed, scenario, _) in enumerate(group):
                results[index] = outcome if isinstance(outcome, ValueError) else \
                    RunArtifact(scenario.name, scenario.scenario_hash(), solver,
                                int(seed), None if budget is None else int(budget),
                                outcome[k], busy / len(group))
    return results


def _execute(runs: Sequence[tuple], budget: Optional[int],
             workers: int) -> list:
    """Run every ``(scenario, solver, seed)``; see :func:`_run_slice`.

    ``min(workers, len(runs))`` contiguous slices of near-equal size run
    in this process (one slice) or as the tasks of one process pool.  A
    worker that ends abruptly raises :class:`ChildProcessError`.
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")
    n_slices = min(workers, len(runs))
    if n_slices <= 1:
        return _run_slice(runs, budget)
    cuts = [len(runs) * k // n_slices for k in range(n_slices + 1)]
    parts = [runs[lo:hi] for lo, hi in zip(cuts, cuts[1:])]
    from concurrent.futures import ProcessPoolExecutor  # only a pool needs it
    from concurrent.futures.process import BrokenProcessPool
    try:
        with ProcessPoolExecutor(max_workers=n_slices) as pool:
            done = pool.map(_run_slice, parts, itertools.repeat(budget))
            return [result for part in done for result in part]
    except BrokenProcessPool as exc:  # a worker was killed or crashed
        raise ChildProcessError(f"a worker process ended abruptly: {exc}") from exc


def run_campaign(scenario: ScenarioConfig, solvers, seeds: Sequence[int],
                 budget: Optional[int] = None,
                 workers: int = 1) -> List[RunArtifact]:
    """One run per (solver, seed), in solver-major then seed order.

    ``solvers`` is a name or a list of names; every run gets the same
    evaluation budget, so campaigns compare solvers fairly.  The artifacts
    are identical whatever the worker count (see :func:`_execute`).  A
    failed loop ends itself only, so every run ends before the first
    failed run's exception is raised.
    """
    names = _as_solver_list(solvers)
    seeds = _as_seed_list(seeds)
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

def random_search(problem: LinkProblem, budget: int,
                  seed: int = 0) -> SolverReport:
    """Uniform random sampling of the unit box, best-so-far kept."""
    return run_alone(random_steps(problem, budget, [seed]), problem)


def random_steps(problem, budget: int,
                 seeds: Sequence[int] = (0,)) -> SolverSteps:
    """Random search over a stack of seeds (see :mod:`uavbsc.common`).

    Each seed draws its candidates in row-major blocks of
    ``_RANDOM_CHUNK`` from its own stream, so a longer budget evaluates
    a strict superset of a shorter one.  The trace holds one record per
    block.
    """
    if budget < 1:
        raise ValueError("random search needs a budget of at least 1")
    seeds = [int(seed) for seed in seeds]
    problems = seed_problems(problem, seeds)
    problem = problems[0]
    rngs = [np.random.default_rng(seed) for seed in seeds]
    dim = problem.genome_size

    best = Incumbent(len(seeds))
    everyone = np.arange(len(seeds))
    evaluations = 0
    block = 0
    while evaluations < budget:
        n = min(_RANDOM_CHUNK, budget - evaluations)
        genomes = problem.adjust(draw(rngs, "random", (len(seeds), n, dim)))
        ev = yield genomes, everyone
        evaluations += n
        block += 1
        best.offer(everyone, genomes, ev.fitness, ev.worst_violation, block)
        best.record(everyone, block, np.mean(ev.fitness, axis=1),
                    [evaluations] * len(seeds))

    return [best.report(k, own, "random", seed, evaluations, int(budget),
                        {"chunk_size": _RANDOM_CHUNK})
            for k, (seed, own) in enumerate(zip(seeds, problems))]


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
        self.seeds = _as_seed_list(self.seeds)
        self.solvers = _as_solver_list(self.solvers)
        if self.budget is not None and self.budget < 1:
            raise ValueError(f"sweep budget must be at least 1 (got {self.budget})")


@dataclass(eq=False)
class SweepPoint:
    """All runs at one swept value, or the reason the point failed."""

    parameter: str
    value: object
    artifacts: List[RunArtifact] = field(default_factory=list)
    error: Optional[str] = None

    def rates_bps(self, solver: Optional[str] = None) -> np.ndarray:
        """Per-seed achieved rates; an infeasible run contributes zero."""
        return np.array([a.report.achieved_rate_bps for a in self.artifacts
                         if solver is None or a.solver == solver])

    def median_rate_bps(self, solver: Optional[str] = None) -> float:
        """Median of :meth:`rates_bps`; NaN for a failed point or no runs."""
        rates = self.rates_bps(solver)
        if self.error is not None or rates.size == 0:
            return float("nan")
        return float(np.median(rates))


def run_sweep(scenario: ScenarioConfig, spec: SweepSpec,
              workers: int = 1) -> List[SweepPoint]:
    """Every (value, solver, seed) run, dealt like a campaign's.

    One pool serves the whole sweep.  An unknown parameter raises
    ``ConfigError`` before any value is built.  One bad value never kills
    the sweep: a value that fails to load, or whose runs fail, keeps the
    first error and no artifacts.
    """
    scenario.parameter_path(spec.parameter)
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


# The run columns of a sweep row; a failed value leaves them empty.
_RUN_COLUMNS = ("seed", "solver", "feasible", "rate_bps", "fitness", "evaluations",
                "last_improvement_generation", "wall_clock_s")


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
                **dict.fromkeys(_RUN_COLUMNS, ""), "error": point.error})
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
        for solver in dict.fromkeys(a.solver for a in point.artifacts):
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


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
# The JSON text of a scalar of each type (bool before its base class int).
_SCALARS = {str: encode_basestring_ascii,
            float: lambda value: _NON_FINITE.get(text := float.__repr__(value), text),
            bool: lambda value: "true" if value else "false", int: int.__repr__,
            type(None): lambda value: "null"}


def _scalar_text(value, refusal: str) -> str:
    """The JSON text of a scalar, of a subclass too; anything else raises
    ``TypeError(refusal)``, the value's type named in it."""
    for kind, text in _SCALARS.items():
        if isinstance(value, kind):
            return text(value)
    raise TypeError(refusal.format(type(value).__name__))


def _json_text(value, indent: str) -> str:
    """``value`` as ``json.dumps(value, indent=2, sort_keys=True)`` writes it,
    nested at ``indent`` (a newline, then two spaces a level)."""
    scalar = _SCALARS.get(type(value))
    if scalar is not None:
        return scalar(value)
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        ends, items = "[]", [_json_text(item, inner) for item in value]
    elif isinstance(value, dict):
        ends, items = "{}", [encode_basestring_ascii(
            key if isinstance(key, str) else _scalar_text(
                key, "keys must be str, int, float, bool or None, not {}"))
            + ": " + _json_text(item, inner) for key, item in sorted(value.items())]
    else:
        return _scalar_text(value, "Object of type {} is not JSON serializable")
    if not items:
        return ends
    return ends[0] + inner + ("," + inner).join(items) + indent + ends[1]


def write_json(path, payload) -> None:
    """Write an artifact as JSON: sorted keys, two-space indent, final newline.

    The text is ``json.dumps(payload, indent=2, sort_keys=True)``'s, built
    level by level rather than by the pure-Python encoder ``json`` falls
    back to whenever it indents.
    """
    Path(path).write_text(_json_text(payload, "\n") + "\n", encoding="utf-8")


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
    slot_columns = {
        "time_split": evaluated.time_split,
        "speed_mps": table.speed_mps,
        "station_tag_distance_m": table.d_su_m,
        "tag_user_distance_m": table.d_du_m,
        "uplink_rate_bps": table.rate_up_bps,
        "downlink_rate_bps": table.rate_down_bps,
        "harvested_j": table.harvested_j,
        "consumed_j": table.fly_j + table.backscatter_j + table.cache_j,
    }
    rows = [{"waypoint": i, "x_m": float(waypoints[i, 0]),
             "y_m": float(waypoints[i, 1]), "z_m": float(waypoints[i, 2]),
             **{name: float(column[i]) if i < n_slots else ""
                for name, column in slot_columns.items()}}
            for i in range(n_slots + 1)]
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
