"""Plumbing shared by the population-based solvers.

Both solvers consume a :class:`~uavbsc.encoding.LinkProblem`, draw every
random number from a single seeded generator in a fixed order before
evaluations are dispatched, and report their progress through the same
per-generation record type, so the harness can treat them uniformly.
Every solver, and the grid oracle, keeps its best-so-far mission, trace
and last improvement in an :class:`Incumbent`, which holds the one
ordering rule of the package.

Every solver loop has one shape: a generator that steps several seeds as
one stack, yields the genome block of all its running seeds, seed after
seed, receives the block's :class:`~uavbsc.encoding.BatchEvaluation`
back, and returns one :class:`SolverReport` per seed; :func:`drive` runs
it.  Each seed draws from its own generator (see :func:`draw`) and
evaluation is row-wise, so a seed's report does not depend on the stack.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Generator, List, Optional

import numpy as np

from .encoding import BatchEvaluation, EvaluatedSolution, LinkProblem

__all__ = [
    "STALL_TOL",
    "GenerationRecord",
    "SolverReport",
    "Incumbent",
    "SolverSteps",
    "drive",
    "draw",
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

    @property
    def achieved_rate_bps(self) -> float:
        """The best mission's rate; a run with no feasible mission counts 0."""
        return self.best.objective_bps if self.feasible else 0.0

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

    def __init__(self) -> None:
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
        """Append one trace line at the current best."""
        self.trace.append(GenerationRecord(
            generation, self.fitness, float(mean_fitness), evaluations))

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
# returns one report per seed.
SolverSteps = Generator[np.ndarray, BatchEvaluation, List[SolverReport]]


def drive(steps: SolverSteps, problem: LinkProblem) -> List[SolverReport]:
    """Run one solver loop to completion, one ``evaluate_batch`` per block."""
    try:
        block = next(steps)
        while True:
            block = steps.send(problem.evaluate_batch(block))
    except StopIteration as stop:
        return stop.value


def draw(rng, method: str, shape, *args) -> np.ndarray:
    """``rng.<method>(*args, size=shape)``, or the same for a seed stack.

    Given a sequence of generators, one per seed, ``shape`` leads with
    the seed axis and layer ``k`` is drawn from ``rng[k]``, so each seed
    consumes its own stream exactly as it would alone.  (``random`` gives
    the values of ``uniform()`` bit for bit, with less overhead per call.)
    """
    if isinstance(rng, np.random.Generator):
        return getattr(rng, method)(*args, size=shape)
    return np.stack([getattr(g, method)(*args, size=shape[1:]) for g in rng])


def initial_population(problem: LinkProblem, count: int, init_mean,
                       init_std: float, rng) -> np.ndarray:
    """Gaussian genomes around the initialization mean, adjusted into the box.

    ``init_mean`` is a scalar, a genome-length vector, or None for the
    problem's heuristic mean.  ``rng`` is one generator, or a sequence of
    them for a (seeds, count, dim) stack (see :func:`draw`).
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
    seed_axis = () if isinstance(rng, np.random.Generator) else (len(rng),)
    return problem.adjust(
        draw(rng, "normal", (*seed_axis, int(count), dim), mean, init_std))


def masked_gaussian_offsets(rng, shape, prob: float, std: float) -> np.ndarray:
    """Per-gene Bernoulli(prob) Gaussian perturbations, zero elsewhere.

    The Bernoulli mask and the full offset matrix are always drawn in the
    same order and quantity regardless of the mask outcome, which keeps
    the consumed random stream independent of the data.  A sequence of
    generators draws a seed stack (see :func:`draw`).
    """
    mask = draw(rng, "random", shape) < prob
    offsets = draw(rng, "normal", shape, 0.0, std)
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
