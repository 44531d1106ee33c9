"""Real-coded genetic algorithm over the normalized mission genome.

Selection keeps an elite slice and fills the remaining parent slots by
roulette; crossover blends gene pairs with a fresh uniform blend factor
per gene; mutation adds Gaussian perturbations that ``LinkProblem.adjust``
clamps.  Fitness is minimized.  Every random draw comes from one seeded
generator in a fixed order, so runs are reproducible regardless of how
evaluations are executed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .common import (
    SeedStack,
    SolverReport,
    SolverSteps,
    draw,
    initial_population,
    masked_gaussian_offsets,
    run_alone,
)
from .encoding import LinkProblem
from .model import (
    NONNEGATIVE,
    POSITIVE,
    POSITIVE_OR_NONE,
    UNIT_INTERVAL,
    at_least,
    check_fields,
)

__all__ = [
    "GaConfig",
    "elite_count",
    "selection_weights",
    "roulette",
    "select",
    "crossover",
    "mutate",
    "steps",
    "run",
]


@dataclass
class GaConfig:
    """Hyperparameters of the genetic algorithm."""

    population_size: int = at_least(2, 100)
    generations: int = at_least(1, 6000)
    crossover_rate: float = UNIT_INTERVAL(0.8)  # per-gene blend probability
    mutation_rate: float = UNIT_INTERVAL(0.1)  # per-gene perturbation probability
    mutation_spread: float = POSITIVE(10.0)  # perturbations are Normal(0, 1/spread^2)
    elite_fraction: float = UNIT_INTERVAL(0.05)  # share of the population kept as is
    stall_limit: int = at_least(1, 200)  # generations without improvement to stop
    init_std: float = NONNEGATIVE(0.2)  # initialization spread around the mean genome
    seed: int = 0
    max_evaluations: Optional[int] = POSITIVE_OR_NONE(None)

    def __post_init__(self) -> None:
        spread = self.mutation_spread  # the mutation std is 1 / spread
        tiny = isinstance(spread, float) and 0 < spread and np.isinf(1.0 / spread)
        check_fields(self, "GA config", [
            f"mutation_spread must keep 1 / mutation_spread finite (got {spread})"
        ] if tiny else [])


def elite_count(cfg: GaConfig, population_size: int) -> int:
    """Number of elite individuals copied unchanged (at least one)."""
    return min(population_size, max(1, int(cfg.elite_fraction * population_size)))


def selection_weights(fitness: np.ndarray) -> np.ndarray:
    """Nonnegative roulette weights from raw (minimized) fitness values.

    The worst individual anchors the scale: weight_k = (f_worst - f_k)
    plus a small positive floor so the worst individual keeps a nonzero
    pick probability.  A (seeds, size) stack is weighted row by row.
    """
    fitness = np.asarray(fitness, dtype=np.float64)
    worst = np.max(fitness, axis=-1, keepdims=True)
    return (worst - fitness) + 1.0e-9 * np.abs(worst)


def roulette(weights, n_picks: int, rng) -> np.ndarray:
    """Fitness-proportional sampling with replacement; uniform fallback.

    ``weights`` is one vector with one generator, or a (seeds, size)
    stack with one generator per seed (see :func:`~uavbsc.common.draw`).
    Each row picks as ``rng.choice(size, n_picks, p=weights / total)``
    would, from the same stream: its CDF, normalized by its last entry,
    is searched for ``n_picks`` uniforms.  A row whose total is zero or
    not finite falls back to uniform probabilities.
    """
    w = np.asarray(weights, dtype=np.float64)
    single = isinstance(rng, np.random.Generator)
    if single:
        w, rng = w[None], [rng]
    if w.ndim != 2 or w.shape[1] == 0:
        raise ValueError("weights must be a nonempty vector per generator")
    if np.any(w < 0.0):
        raise ValueError("weights must be nonnegative")
    total = np.sum(w, axis=1, keepdims=True)
    usable = np.isfinite(total) & (total > 0.0)
    cdf = np.where(usable, w / np.where(usable, total, 1.0), 1.0 / w.shape[1])
    np.cumsum(cdf, axis=1, out=cdf)
    cdf /= cdf[:, -1:]
    uniforms = draw(rng, "random", (len(w), int(n_picks)))
    picks = np.array([np.searchsorted(c, u, side="right")
                      for c, u in zip(cdf, uniforms)])
    return picks[0] if single else picks


def select(genomes: np.ndarray, fitness: np.ndarray, cfg: GaConfig,
           rng) -> np.ndarray:
    """Build the parent pool: elites first, roulette picks after.

    Returns a (population_size, dim) array.  With elite_fraction = 1 the
    pool is simply the population sorted by fitness.  A stack of
    populations takes one generator per seed (see :func:`~uavbsc.common.draw`).
    """
    genomes = np.asarray(genomes, dtype=np.float64)
    fitness = np.asarray(fitness, dtype=np.float64)
    if genomes.shape[:-1] != fitness.shape:
        raise ValueError("genomes and fitness must have matching length")
    stacked = not isinstance(rng, np.random.Generator)
    if not stacked:
        genomes, fitness, rng = genomes[None], fitness[None], [rng]
    size = fitness.shape[1]
    picks = np.argsort(fitness, axis=1, kind="stable")
    n_elite = elite_count(cfg, size)
    if n_elite < size:
        picks[:, n_elite:] = roulette(selection_weights(fitness),
                                      size - n_elite, rng)
    pool = genomes[np.arange(len(picks))[:, None], picks]
    return pool if stacked else pool[0]


def crossover(parent_a, parent_b, cfg: GaConfig, rng):
    """Per-gene arithmetic blend of two parents, or of stacks of pairs.

    Each gene crosses with probability ``crossover_rate`` using a fresh
    uniform blend factor; both children share the factor, so crossed gene
    pairs conserve their sum exactly.  Uncrossed genes are copied.  Each
    pair draws its mask then its blend factors, pair after pair, so a
    (pairs, dim) stack consumes the stream exactly as a loop over pairs.
    A (seeds, pairs, dim) stack takes one generator per seed.
    """
    a = np.asarray(parent_a, dtype=np.float64)
    b = np.asarray(parent_b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError("parents must have identical shape")
    draws = draw(rng, "random", a.shape[:-1] + (2, a.shape[-1]))
    mask = draws[..., 0, :] < cfg.crossover_rate
    blend = draws[..., 1, :]
    rest = 1.0 - blend
    child_a = np.where(mask, blend * a + rest * b, a)
    child_b = np.where(mask, blend * b + rest * a, b)
    return child_a, child_b


def mutate(genes, cfg: GaConfig, rng) -> np.ndarray:
    """Unclamped Gaussian mutation of one genome or a stack (``adjust`` clamps)."""
    arr = np.asarray(genes, dtype=np.float64)
    offsets = masked_gaussian_offsets(
        rng, arr.shape, cfg.mutation_rate, 1.0 / cfg.mutation_spread)
    return arr + offsets


def run(cfg: GaConfig, problem: LinkProblem) -> SolverReport:
    """Run the genetic algorithm and report the best mission found."""
    return run_alone(steps(cfg, problem), problem)


def steps(cfg: GaConfig, problem,
          seeds: Optional[Sequence[int]] = None) -> SolverSteps:
    """The GA over a (seeds, size, dim) stack (see :mod:`uavbsc.common`).

    The seeds (default: ``cfg.seed``) form one
    :class:`~uavbsc.common.SeedStack`.  A seed leaves the stack at the
    generation limit, after ``stall_limit`` generations without a
    best-fitness improvement beyond ``STALL_TOL``, or when the next
    generation would exceed ``max_evaluations``.
    """
    size = cfg.population_size
    stack = SeedStack("ga", problem, seeds, size, cfg.max_evaluations, cfg)
    stall = np.zeros(len(stack.seeds), dtype=int)
    n_elite = elite_count(cfg, size)
    paired = size - size % 2  # pairs (0, 1), (2, 3), ... cross; an odd last is copied

    live = stack.live
    pop = initial_population(stack.problem, size, cfg.init_std, stack.rngs)
    ev = yield pop, live
    fit = ev.fitness

    # Generation 0 ranks the initial populations; generation g > 0 ranks
    # the children of generation g together with the elites they keep.
    for gen in range(cfg.generations + 1):
        rows = np.arange(live.size)[:, None]
        order = np.argsort(fit, axis=1, kind="stable")[:, :size]
        pop, fit = pop[rows, order], fit[rows, order]
        improved = stack.best.offer(live, pop, fit, gen)
        if gen > 0:
            stall[live] = np.where(improved, 0, stall[live] + 1)
            stack.record(gen, fit)
        pop, fit = stack.keep(
            (stall[live] < cfg.stall_limit) & stack.fits(size), pop, fit)
        live = stack.live
        if not live.size or gen == cfg.generations:
            break

        rngs = [stack.rngs[k] for k in live]
        pool = select(pop, fit, cfg, rngs)
        children = pool.copy()
        children[:, 0:paired:2], children[:, 1:paired:2] = crossover(
            pool[:, 0:paired:2], pool[:, 1:paired:2], cfg, rngs)
        children = stack.problem.adjust(mutate(children, cfg, rngs))

        cev = yield children, live
        stack.spent[live] += size
        pop = np.concatenate([children, pool[:, :n_elite]], axis=1)
        fit = np.concatenate([cev.fitness, fit[:, :n_elite]], axis=1)

    return stack.reports()
