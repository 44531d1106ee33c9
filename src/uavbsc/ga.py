"""Real-coded genetic algorithm over the normalized mission genome.

Selection keeps an elite slice and fills the remaining parent slots by
roulette; crossover blends gene pairs with a fresh uniform blend factor
per gene; mutation adds clamped Gaussian perturbations.  Fitness is
minimized.  Every random draw comes from one seeded generator in a fixed
order, so runs are reproducible regardless of how evaluations are
executed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .common import (
    Incumbent,
    ProgressCallback,
    SolverReport,
    SolverSteps,
    config_snapshot,
    drive,
    initial_population,
    masked_gaussian_offsets,
)
from .encoding import LinkProblem

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

    population_size: int = 100
    generations: int = 6000
    crossover_rate: float = 0.8     # per-gene blend probability
    mutation_rate: float = 0.1      # per-gene perturbation probability
    mutation_spread: float = 10.0   # perturbations are Normal(0, 1/spread^2)
    elite_fraction: float = 0.05    # share of the population copied unchanged
    stall_limit: int = 200          # generations without improvement before stopping
    init_std: float = 0.2           # initialization spread around the mean genome
    init_mean: Optional[object] = None  # scalar, genome-length vector, or None
    seed: int = 0
    max_evaluations: Optional[int] = None

    def __post_init__(self) -> None:
        problems = []
        if self.population_size < 2:
            problems.append("population_size must be at least 2")
        if self.generations < 1:
            problems.append("generations must be at least 1")
        for name in ("crossover_rate", "mutation_rate", "elite_fraction"):
            val = getattr(self, name)
            if not 0.0 <= val <= 1.0:
                problems.append(f"{name} must lie in [0, 1] (got {val})")
        if not self.mutation_spread > 0.0:
            problems.append("mutation_spread must be positive")
        if self.stall_limit < 1:
            problems.append("stall_limit must be at least 1")
        if self.init_std < 0.0:
            problems.append("init_std must be nonnegative")
        if self.max_evaluations is not None and self.max_evaluations < 1:
            problems.append("max_evaluations must be positive when set")
        if problems:
            raise ValueError("invalid GA config: " + "; ".join(problems))


def elite_count(cfg: GaConfig, population_size: int) -> int:
    """Number of elite individuals copied unchanged (at least one)."""
    return min(population_size, max(1, int(cfg.elite_fraction * population_size)))


def selection_weights(fitness: np.ndarray) -> np.ndarray:
    """Nonnegative roulette weights from raw (minimized) fitness values.

    The worst individual anchors the scale: weight_k = (f_worst - f_k)
    plus a small positive floor so the worst individual keeps a nonzero
    pick probability.
    """
    fitness = np.asarray(fitness, dtype=np.float64)
    worst = float(np.max(fitness))
    return (worst - fitness) + 1.0e-9 * abs(worst)


def roulette(weights, n_picks: int, rng: np.random.Generator) -> np.ndarray:
    """Fitness-proportional sampling with replacement; uniform fallback.

    Degenerate weight vectors (all zero, or non-finite totals) fall back
    to uniform probabilities.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("weights must be a nonempty 1-D vector")
    if np.any(w < 0.0):
        raise ValueError("weights must be nonnegative")
    total = float(np.sum(w))
    if not np.isfinite(total) or total <= 0.0:
        probs = np.full(w.size, 1.0 / w.size)
    else:
        probs = w / total
    return rng.choice(w.size, size=int(n_picks), replace=True, p=probs)


def select(genomes: np.ndarray, fitness: np.ndarray, cfg: GaConfig,
           rng: np.random.Generator) -> np.ndarray:
    """Build the parent pool: elites first, roulette picks after.

    Returns a (population_size, dim) array.  With elite_fraction = 1 the
    pool is simply the population sorted by fitness.
    """
    genomes = np.asarray(genomes, dtype=np.float64)
    fitness = np.asarray(fitness, dtype=np.float64)
    if genomes.shape[0] != fitness.shape[0]:
        raise ValueError("genomes and fitness must have matching length")
    size = genomes.shape[0]
    order = np.argsort(fitness, kind="stable")
    n_elite = elite_count(cfg, size)
    pool = np.empty_like(genomes)
    pool[:n_elite] = genomes[order[:n_elite]]
    n_roulette = size - n_elite
    if n_roulette > 0:
        picks = roulette(selection_weights(fitness), n_roulette, rng)
        pool[n_elite:] = genomes[picks]
    return pool


def crossover(parent_a, parent_b, cfg: GaConfig,
              rng: np.random.Generator):
    """Per-gene arithmetic blend of two parents, or of stacks of pairs.

    Each gene crosses with probability ``crossover_rate`` using a fresh
    uniform blend factor; both children share the factor, so crossed gene
    pairs conserve their sum exactly.  Uncrossed genes are copied.  Each
    pair draws its mask then its blend factors, pair after pair, so a
    (pairs, dim) stack consumes the stream exactly as a loop over pairs.
    """
    a = np.asarray(parent_a, dtype=np.float64)
    b = np.asarray(parent_b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError("parents must have identical shape")
    draws = rng.uniform(size=a.shape[:-1] + (2, a.shape[-1]))
    mask = draws[..., 0, :] < cfg.crossover_rate
    blend = draws[..., 1, :]
    child_a = np.where(mask, blend * a + (1.0 - blend) * b, a)
    child_b = np.where(mask, blend * b + (1.0 - blend) * a, b)
    return child_a, child_b


def mutate(genes, cfg: GaConfig, rng: np.random.Generator) -> np.ndarray:
    """Clamped Gaussian mutation; works on one genome or a stack."""
    arr = np.asarray(genes, dtype=np.float64)
    offsets = masked_gaussian_offsets(
        rng, arr.shape, cfg.mutation_rate, 1.0 / cfg.mutation_spread)
    return np.clip(arr + offsets, 0.0, 1.0)


def run(cfg: GaConfig, problem: LinkProblem,
        callback: Optional[ProgressCallback] = None) -> SolverReport:
    """Run the genetic algorithm and report the best mission found."""
    return drive(steps(cfg, problem, callback), problem)


def steps(cfg: GaConfig, problem: LinkProblem,
          callback: Optional[ProgressCallback] = None) -> SolverSteps:
    """The genetic algorithm as a solver loop (see :mod:`uavbsc.common`).

    Stops at the generation limit, after ``stall_limit`` generations
    without a best-fitness improvement beyond ``STALL_TOL``, or when the
    next generation would exceed ``max_evaluations``.
    """
    size = cfg.population_size
    budget = cfg.max_evaluations
    if budget is not None and budget < size:
        raise ValueError(
            f"evaluation budget {budget} cannot fit one population of {size}")
    rng = np.random.default_rng(cfg.seed)

    pop = initial_population(problem, size, cfg.init_mean, cfg.init_std, rng)
    ev = yield pop
    evaluations = size
    order = np.argsort(ev.fitness, kind="stable")
    pop = pop[order]
    fit = ev.fitness[order]
    worst = ev.worst_violation[order]

    best = Incumbent(callback)
    best.offer(pop, fit, worst, 0)
    stall = 0

    for gen in range(1, cfg.generations + 1):
        if budget is not None and evaluations + size > budget:
            break

        pool = select(pop, fit, cfg, rng)
        n_elite = elite_count(cfg, size)
        elites = pool[:n_elite].copy()
        elite_fit = fit[:n_elite].copy()
        elite_worst = worst[:n_elite].copy()

        # Pairs (0, 1), (2, 3), ... cross; an odd last parent is copied.
        children = pool.copy()
        paired = size - size % 2
        children[0:paired:2], children[1:paired:2] = crossover(
            pool[0:paired:2], pool[1:paired:2], cfg, rng)
        children = problem.adjust(mutate(children, cfg, rng))

        cev = yield children
        evaluations += size

        cand = np.vstack([children, elites])
        cand_fit = np.concatenate([cev.fitness, elite_fit])
        cand_worst = np.concatenate([cev.worst_violation, elite_worst])
        keep = np.argsort(cand_fit, kind="stable")[:size]
        pop = cand[keep]
        fit = cand_fit[keep]
        worst = cand_worst[keep]

        stall = 0 if best.offer(pop, fit, worst, gen) else stall + 1
        best.record(gen, np.mean(fit), evaluations)
        if stall >= cfg.stall_limit:
            break

    return best.report(problem, "ga", cfg.seed, evaluations, budget,
                       config_snapshot(cfg))
