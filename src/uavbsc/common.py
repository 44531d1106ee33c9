"""Plumbing shared by the population-based solvers.

Both solvers consume a :class:`~uavbsc.encoding.LinkProblem`, draw every
random number from a single seeded generator in a fixed order before
evaluations are dispatched, and report their progress through the same
per-generation record type, so the harness can treat them uniformly.
Every solver, and the grid oracle, keeps its best-so-far mission, trace
and last improvement in an :class:`Incumbent`, which holds the one
ordering rule of the package.

Every solver loop has one shape: a generator that yields each genome
block it needs evaluated, receives the block's
:class:`~uavbsc.encoding.BatchEvaluation` back, and returns its
:class:`SolverReport`.  :func:`drive` runs one such generator;
:func:`drive_lockstep` steps several together with one stacked
evaluation per step.  Evaluation is row-wise, so both give the same
results bit for bit.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Generator, List, Optional, Sequence

import numpy as np

from .encoding import BatchEvaluation, EvaluatedSolution, LinkProblem

__all__ = [
    "STALL_TOL",
    "GenerationRecord",
    "SolverReport",
    "ProgressCallback",
    "Incumbent",
    "SolverSteps",
    "drive",
    "drive_lockstep",
    "initial_population",
    "masked_gaussian_offsets",
    "config_snapshot",
]

# Minimum best-fitness decrease that counts as an improvement when
# tracking stalls and convergence generations.
STALL_TOL = 1.0e-12


@dataclass
class GenerationRecord:
    """One line of a solver's convergence trace."""

    generation: int
    best_fitness: float
    mean_fitness: float
    evaluations: int

    def to_dict(self) -> dict:
        return {
            "generation": int(self.generation),
            "best_fitness": float(self.best_fitness),
            "mean_fitness": float(self.mean_fitness),
            "evaluations": int(self.evaluations),
        }


ProgressCallback = Callable[[GenerationRecord], None]


@dataclass(eq=False)
class SolverReport:
    """Outcome of one seeded solver run."""

    solver: str
    seed: int
    best: EvaluatedSolution
    trace: List[GenerationRecord]
    evaluations: int
    last_improvement_generation: int
    budget: Optional[int] = None
    config: Optional[dict] = None

    @property
    def feasible(self) -> bool:
        return self.best.report.feasible

    @property
    def best_objective_bps(self) -> float:
        return self.best.objective_bps

    def to_dict(self) -> dict:
        return {
            "solver": self.solver,
            "seed": int(self.seed),
            "evaluations": int(self.evaluations),
            "last_improvement_generation": int(self.last_improvement_generation),
            "budget": None if self.budget is None else int(self.budget),
            "config": self.config,
            "best": self.best.to_dict(),
            "trace": [rec.to_dict() for rec in self.trace],
        }


class Incumbent:
    """Best-so-far mission of one search, with its convergence trace.

    One rule orders candidates everywhere: lower fitness wins, then lower
    worst violation, and among equals the earliest offered row wins.
    ``index`` is the block row of the last replacement.
    """

    def __init__(self, callback: Optional[ProgressCallback] = None) -> None:
        self.callback = callback
        self.genome: Optional[np.ndarray] = None
        self.fitness = np.inf
        self.worst = np.inf
        self.index = -1
        self.last_improvement = 0
        self.trace: List[GenerationRecord] = []

    def offer(self, genomes: np.ndarray, fitness: np.ndarray,
              worst: np.ndarray, generation: Optional[int] = None) -> bool:
        """Take the block's best row if it beats the incumbent.

        Returns True when the best fitness drops by more than
        ``STALL_TOL`` (always on the first offer); ``generation``, when
        given, then becomes ``last_improvement``.
        """
        k = int(np.lexsort((worst, fitness))[0])
        fit, wv = float(fitness[k]), float(worst[k])
        first = self.genome is None
        improved = first or fit < self.fitness - STALL_TOL
        if first or fit < self.fitness or (
                fit == self.fitness and wv < self.worst):
            self.genome = genomes[k].copy()
            self.fitness, self.worst, self.index = fit, wv, k
        if improved and generation is not None:
            self.last_improvement = generation
        return improved

    def record(self, generation: int, mean_fitness: float,
               evaluations: int) -> None:
        """Append one trace line at the current best and pass it on."""
        rec = GenerationRecord(generation, self.fitness, float(mean_fitness),
                               evaluations)
        self.trace.append(rec)
        if self.callback is not None:
            self.callback(rec)

    def report(self, problem: LinkProblem, solver: str, seed: int,
               evaluations: int, budget: Optional[int],
               config: Optional[dict]) -> SolverReport:
        """The run's report, built from one evaluation of the incumbent."""
        return SolverReport(
            solver=solver,
            seed=seed,
            best=problem.evaluate(self.genome),
            trace=self.trace,
            evaluations=evaluations,
            last_improvement_generation=self.last_improvement,
            budget=budget,
            config=config,
        )


# A solver loop: yields genome blocks, is sent their evaluations, and
# returns its report.
SolverSteps = Generator[np.ndarray, BatchEvaluation, SolverReport]


def drive(steps: SolverSteps, problem: LinkProblem) -> SolverReport:
    """Run one solver loop to completion."""
    return drive_lockstep([steps], problem)[0]


def drive_lockstep(steps: Sequence[SolverSteps],
                   problem: LinkProblem) -> List[SolverReport]:
    """Run solver loops side by side, one ``evaluate_batch`` call per step.

    Each step stacks the blocks of every loop still running, evaluates
    the stack once and hands each loop its own rows.  Loops drop out as
    they finish; the reports come back in the order of ``steps``.
    """
    reports: List[Optional[SolverReport]] = [None] * len(steps)
    pending = []

    def advance(i: int, evaluation: Optional[BatchEvaluation]) -> None:
        try:
            pending.append((i, steps[i].send(evaluation)))
        except StopIteration as stop:
            reports[i] = stop.value

    for i in range(len(steps)):
        advance(i, None)
    while pending:
        stepped, pending = pending, []
        blocks = [block for _, block in stepped]
        stacked = problem.evaluate_batch(np.vstack(blocks))
        for (i, _), part in zip(stepped,
                                stacked.split([len(b) for b in blocks])):
            advance(i, part)
    return reports  # type: ignore[return-value]


def initial_population(problem: LinkProblem, count: int, init_mean,
                       init_std: float, rng: np.random.Generator) -> np.ndarray:
    """Gaussian genomes around the initialization mean, adjusted into the box.

    ``init_mean`` is a scalar, a genome-length vector, or None for the
    problem's heuristic mean.
    """
    dim = problem.genome_size
    if init_mean is None:
        mean = problem.heuristic_mean()
    else:
        mean = np.asarray(init_mean, dtype=np.float64)
        if mean.ndim == 0:
            mean = np.full(dim, float(mean))
        elif mean.shape != (dim,):
            raise ValueError(
                f"init mean must be scalar or shape ({dim},), got {mean.shape}")
    return problem.adjust(rng.normal(mean, init_std, size=(int(count), dim)))


def masked_gaussian_offsets(
    rng: np.random.Generator, shape, prob: float, std: float
) -> np.ndarray:
    """Per-gene Bernoulli(prob) Gaussian perturbations, zero elsewhere.

    The Bernoulli mask and the full offset matrix are always drawn in the
    same order and quantity regardless of the mask outcome, which keeps
    the consumed random stream independent of the data.
    """
    mask = rng.uniform(size=shape) < prob
    offsets = rng.normal(0.0, std, size=shape)
    return np.where(mask, offsets, 0.0)


def config_snapshot(cfg) -> dict:
    """JSON-friendly dump of a solver config dataclass."""
    out = {}
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(value, np.ndarray):
            value = [float(v) for v in value]
        out[f.name] = value
    return out
