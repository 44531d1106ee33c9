"""Plumbing shared by the population-based solvers.

Every solver draws each random number from its seeds' own generators in
a fixed order and reports its progress through one per-generation record
type.  Every solver loop keeps its seeds' best-so-far missions, traces and
last improvements in one :class:`Incumbent`, which orders candidates
by fitness alone, as GA ranking and the swarm's personal bests do.

Every solver loop has one shape: a generator that steps several seeds as
one stack, yields the (seeds, rows, genes) stack of its running seeds
with those seeds (their positions in the loop's seeds), is sent a
:class:`~uavbsc.encoding.BatchEvaluation` with (seeds, rows) arrays, and
returns one :class:`SolverReport` per seed.  A loop keeps its seeds in
one :class:`SeedStack` and states only its operators, its stop rule and
its evaluation counts.
:func:`drive` runs loops together, with one evaluation per tick, and a
loop's error is its own outcome.  Each seed draws from its own generator
(see :func:`draw`) and evaluation is row-wise, so a seed's report
depends neither on its stack nor on the loops beside it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, Generator, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .encoding import BatchEvaluation, EvaluatedSolution, LinkProblem, RowEvaluator

__all__ = [
    "STALL_TOL",
    "GenerationRecord",
    "SolverReport",
    "Incumbent",
    "SolverSteps",
    "SeedStack",
    "drive",
    "run_alone",
    "draw",
    "initial_population",
    "masked_gaussian_offsets",
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
    """Best-so-far missions of the seeds of one search, with their traces.

    Holds one row per seed: ``genome`` (seeds, dim), ``fitness``,
    ``index`` (the block row of the last replacement, -1 before the first
    offer) and ``last_improvement``, and one trace per seed.  Fitness is
    the one ordering key, as in GA ranking and the swarm's personal
    bests: lower fitness wins, and among equals the earliest row of the
    earliest block wins.
    """

    def __init__(self, seeds: int) -> None:
        self.genome: Optional[np.ndarray] = None  # sized at the first offer
        self.fitness = np.full(seeds, np.inf)
        self.index = np.full(seeds, -1)
        self.last_improvement = np.zeros(seeds, dtype=int)
        self.trace: List[List[GenerationRecord]] = [[] for _ in range(seeds)]

    def offer(self, seeds, genomes: np.ndarray, fitness: np.ndarray,
              generation: Optional[int] = None) -> np.ndarray:
        """Offer layer ``r`` of a (rows, size) block to seed ``seeds[r]``.

        ``seeds`` are distinct.  Each seed takes its layer's first row of
        least fitness if that is below the seed's incumbent.  Returns the
        mask of the seeds whose best fitness dropped by more than
        ``STALL_TOL`` (always at a seed's first offer); ``generation``,
        when given, becomes their ``last_improvement``.
        """
        seeds = np.asarray(seeds)
        picks = fitness.argmin(axis=1)
        fit = fitness[np.arange(len(seeds)), picks]
        old, first = self.fitness[seeds], self.index[seeds] < 0
        improved = first | (fit < old - STALL_TOL)
        take = first | (fit < old)
        if take.any():  # the improved seeds are among those that take
            if self.genome is None:
                self.genome = np.zeros((len(self.fitness), genomes.shape[-1]))
            won, picks = seeds[take], picks[take]
            self.genome[won] = genomes[take, picks]
            self.fitness[won], self.index[won] = fit[take], picks
            if generation is not None:
                self.last_improvement[seeds[improved]] = generation
        return improved

    def record(self, seeds, generation: int, means: np.ndarray,
               evaluations: Sequence[int]) -> None:
        """Append each seed's trace line at its current best; ``means`` and
        ``evaluations`` follow ``seeds``."""
        for k, best, mean, spent in zip(np.asarray(seeds).tolist(),
                                        self.fitness[seeds].tolist(),
                                        means.tolist(), evaluations):
            self.trace[k].append(GenerationRecord(generation, best, mean, spent))


# A solver loop: yields (seeds, rows, genes) stacks with their seeds, is
# sent their (seeds, rows) evaluations, and returns one report per seed.
SolverSteps = Generator[Tuple[np.ndarray, np.ndarray], BatchEvaluation,
                        List[SolverReport]]


class SeedStack:
    """The seeds of one solver loop, with what the loop keeps per seed.

    ``problem`` is every seed's problem, or a sequence of one per seed;
    these share a ``geometry``, so the loop adjusts and starts every seed
    alike through ``problem`` (the first), and each seed's report comes
    from its own.  Each seed has its own generator (``rngs``), a row of
    one :class:`Incumbent` (``best``) and an evaluation count (``spent``,
    from ``size``: the loop's first generation).  ``live`` holds the seed
    of each layer of the loop's stack.  A ``budget`` below ``size`` raises
    ``ValueError``.
    """

    def __init__(self, solver: str, problem, seeds: Sequence[int], size: int,
                 budget: Optional[int], config, unit: str = "population") -> None:
        if budget is not None and budget < size:
            raise ValueError(
                f"evaluation budget {budget} cannot fit one {unit} of {size}")
        self.solver, self.budget, self.config = solver, budget, config
        self.seeds = [int(seed) for seed in seeds]
        self.problems = ([problem] * len(self.seeds)
                         if isinstance(problem, LinkProblem) else list(problem))
        self.problem = self.problems[0]
        self.rngs = [np.random.default_rng(seed) for seed in self.seeds]
        self.best = Incumbent(len(self.seeds))
        self.live = np.arange(len(self.seeds))
        self.spent = np.full(len(self.seeds), size)

    def fits(self, count: int) -> np.ndarray:
        """Mask of the live seeds whose budget holds ``count`` more evaluations."""
        limit = np.inf if self.budget is None else self.budget
        return self.spent[self.live] + count <= limit

    def keep(self, mask: np.ndarray, *arrays: np.ndarray) -> list:
        """Drop the live seeds outside ``mask``; returns ``arrays``, whose
        leading axis follows the stack, cut alike."""
        if mask.all():
            return list(arrays)
        self.live = self.live[mask]
        return [values[mask] for values in arrays]

    def record(self, generation: int, fitness: np.ndarray) -> None:
        """Each live seed's trace line: its best, the mean of its layer of
        the (live, rows) ``fitness`` and its evaluations."""
        self.best.record(self.live, generation, np.mean(fitness, axis=1),
                         self.spent[self.live].tolist())

    def reports(self) -> List[SolverReport]:
        """One report per seed, from one evaluation of its incumbent on its
        own problem.  A config dataclass is recorded with the run's seed
        and budget, a dict as it is."""
        best = self.best
        return [SolverReport(
            solver=self.solver, seed=seed, best=own.evaluate(best.genome[k]),
            trace=best.trace[k], evaluations=int(self.spent[k]),
            last_improvement_generation=int(best.last_improvement[k]),
            budget=self.budget,
            config=dict(self.config) if isinstance(self.config, dict)
            else {**dataclasses.asdict(self.config), "seed": seed,
                  "max_evaluations": self.budget})
            for k, (seed, own) in enumerate(zip(self.seeds, self.problems))]


def drive(loops: Iterable[SolverSteps], problems: Iterable
          ) -> List[Tuple[Union[List[SolverReport], ValueError], float]]:
    """Run solver loops together, with one ``evaluate_batch`` per tick.

    ``problems`` holds each loop's problem, or its problems one per seed
    (see :class:`SeedStack`), all with one geometry.  The parameter
    fields in which they differ are tabulated once per drive
    (:class:`~uavbsc.encoding.RowEvaluator`).  Each tick flattens the
    running loops' pending stacks, in loop order, into one call, each row
    with its own seed's parameters as per-row columns, and sends each loop
    its share in its stack's (seeds, rows) shape.  Returns one
    ``(outcome, busy_s)`` pair per loop: its reports, or the ``ValueError``
    that ended its step, and its own time (inside ``next`` and ``send``)
    plus its row share of each evaluation it joined.  A loop's error ends
    that loop only.  Stacks come out of
    :meth:`~uavbsc.encoding.LinkProblem.adjust`, so an evaluation error (a
    raw invalid stack) propagates at once.
    """
    seats = [[p] if isinstance(p, LinkProblem) else list(p) for p in problems]
    evaluate = RowEvaluator([p for loop_seats in seats for p in loop_seats])
    first_seat = np.cumsum([0] + [len(loop_seats) for loop_seats in seats]).tolist()
    running = dict(enumerate(loops))  # in loop order
    blocks: Dict[int, np.ndarray] = {}
    owners: Dict[int, np.ndarray] = {}  # the seed of each layer of a stack
    outcomes: list = [None] * len(running)
    busy = [0.0] * len(running)

    def advance(j: int, value) -> None:
        started = perf_counter()
        try:
            blocks[j], owners[j] = running[j].send(value)
        except (StopIteration, ValueError) as end:  # the loop's outcome
            outcomes[j] = end.value if isinstance(end, StopIteration) else end
            del running[j]
        busy[j] += perf_counter() - started

    for j in list(running):
        advance(j, None)
    while running:
        started = perf_counter()
        order = list(running)
        genomes = [blocks[j].reshape(-1, blocks[j].shape[-1]) for j in order]
        # Each row's problem, as a seat index; a loop's one problem is one seat.
        which = np.concatenate([
            np.repeat(owners[j] % len(seats[j]) + first_seat[j], blocks[j].shape[1])
            for j in order]) if evaluate.table else None
        ev = evaluate(genomes[0] if len(order) == 1 else np.concatenate(genomes),
                      which)
        cuts = np.cumsum([0] + [len(rows) for rows in genomes]).tolist()
        seconds = perf_counter() - started
        for j, lo, hi in zip(order, cuts, cuts[1:]):
            busy[j] += seconds * (hi - lo) / cuts[-1]
            advance(j, BatchEvaluation(blocks[j], *(
                values[lo:hi].reshape(blocks[j].shape[:2]) for values in (
                    ev.objectives, ev.fitness, ev.feasible, ev.worst_violation))))
    return list(zip(outcomes, busy))


def run_alone(loop: SolverSteps, problem: LinkProblem) -> SolverReport:
    """The report of a one-seed loop driven alone; its error is raised."""
    ((outcome, _),) = drive([loop], [problem])
    if isinstance(outcome, ValueError):
        raise outcome
    return outcome[0]


def draw(rng, method: str, shape, *args) -> np.ndarray:
    """``rng.<method>(*args, size=shape)``, or the same for a seed stack.

    ``method`` is ``"random"`` or ``"normal"`` (with ``loc, scale``).
    Given a sequence of generators, one per seed, ``shape`` leads with
    the seed axis and layer ``k`` is drawn from ``rng[k]``, so each seed
    consumes its own stream exactly as it would alone.  The stack is
    filled in place: a normal layer is drawn standard and then scaled and
    shifted, which is how ``normal`` computes its values.  (``random``
    gives the values of ``uniform()`` bit for bit, with less overhead per
    call.)
    """
    if isinstance(rng, np.random.Generator):
        return getattr(rng, method)(*args, size=shape)
    out = np.empty(shape)
    fill = "random" if method == "random" else "standard_normal"
    for g, layer in zip(rng, out):
        getattr(g, fill)(out=layer)
    if method == "normal":
        loc, scale = args
        with np.errstate(over="ignore"):  # LinkProblem.adjust rejects inf
            out *= scale
            out += loc
    return out


def initial_population(problem: LinkProblem, count: int, init_std: float,
                       rng) -> np.ndarray:
    """Gaussian genomes around the problem's heuristic mean, adjusted into the box.

    ``rng`` is one generator, or a sequence of them for a (seeds, count,
    dim) stack (see :func:`draw`).
    """
    seed_axis = () if isinstance(rng, np.random.Generator) else (len(rng),)
    shape = (*seed_axis, int(count), problem.genome_size)
    return problem.adjust(
        draw(rng, "normal", shape, problem.heuristic_mean(), init_std))


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
