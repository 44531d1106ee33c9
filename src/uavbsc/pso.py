"""Particle swarm optimization with an improved variant over the genome.

The improved variant ("ipso") decays the inertia weight along a square-root
schedule and adds a Gaussian mutation pass that every particle except the
current global-best holder may receive, restoring exploration late in the
run.  The plain variant ("pso") holds the inertia at ``inertia_max``, the
schedule's start, and never mutates.  Fitness is minimized; all draws
come from one seeded generator in a fixed order.
"""

from __future__ import annotations

import math
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
    FINITE,
    NONNEGATIVE,
    POSITIVE,
    POSITIVE_OR_NONE,
    UNIT_INTERVAL,
    at_least,
    check_fields,
)

__all__ = [
    "IPSO_MUTATION_VARIANCE",
    "PsoConfig",
    "inertia_at",
    "update_velocity",
    "update_position",
    "steps",
    "run",
]

# Variance of the improved variant's Gaussian mutation step.
IPSO_MUTATION_VARIANCE = 0.1


@dataclass
class PsoConfig:
    """Hyperparameters of the particle swarm solver."""

    variant: str = "ipso"           # "ipso" (decaying inertia + mutation) or "pso"
    swarm_size: int = at_least(2, 100)
    iterations: int = at_least(1, 500)
    cognitive_coeff: float = NONNEGATIVE(1.5)  # pull toward the particle's own best
    social_coeff: float = NONNEGATIVE(1.5)  # pull toward the global best
    inertia_max: float = FINITE(0.9)  # schedule start; the plain variant's weight
    inertia_min: float = FINITE(0.1)  # schedule end (improved variant)
    inertia_exponent: float = POSITIVE(0.5)  # schedule curvature
    mutation_prob: float = UNIT_INTERVAL(0.1)  # per-gene mutation probability
    # per-gene |velocity| cap, off when None
    velocity_clamp: Optional[float] = POSITIVE_OR_NONE(None)
    init_std: float = NONNEGATIVE(0.2)
    seed: int = 0
    max_evaluations: Optional[int] = POSITIVE_OR_NONE(None)

    def __post_init__(self) -> None:
        problems = []
        if self.variant not in ("ipso", "pso"):
            problems.append(f"variant must be 'ipso' or 'pso' (got {self.variant!r})")
        if not self.inertia_max >= self.inertia_min:
            problems.append("inertia_max must be at least inertia_min "
                            f"(got {self.inertia_max})")
        check_fields(self, "PSO config", problems)

    @property
    def mutation_active(self) -> bool:
        return self.variant == "ipso" and self.mutation_prob > 0.0


def inertia_at(step: int, total: int, cfg: PsoConfig) -> float:
    """Inertia weight used after ``step`` of ``total`` iterations.

    The improved variant decays from ``inertia_max`` at step 0 to
    ``inertia_min`` at the final step along a power-law schedule; the
    plain variant holds ``inertia_max``.
    """
    if total < 1:
        raise ValueError("total iteration count must be at least 1")
    if not 0 <= step <= total:
        raise ValueError(f"step {step} out of range 0..{total}")
    if cfg.variant == "pso":
        return cfg.inertia_max
    if step == total:
        # The subtraction form below lands within rounding error of
        # inertia_min here; return the endpoint itself so both schedule
        # boundaries are exact.
        return cfg.inertia_min
    frac = (step / total) ** cfg.inertia_exponent
    return cfg.inertia_max - (cfg.inertia_max - cfg.inertia_min) * frac


def update_velocity(position, velocity, personal_best, global_best,
                    inertia: float, cfg: PsoConfig, rng) -> np.ndarray:
    """Velocity update with fresh per-gene uniform draws.

    Works on a single particle (dim,), the whole swarm (S, dim), or a
    (seeds, S, dim) stack of swarms with one generator per seed; the
    global best broadcasts.  The optional velocity clamp is applied last.
    A diverging swarm overflows silently; ``LinkProblem.adjust`` rejects it.
    """
    x = np.asarray(position, dtype=np.float64)
    v = np.asarray(velocity, dtype=np.float64)
    pull_own = draw(rng, "random", x.shape)
    pull_global = draw(rng, "random", x.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        new_v = (
            inertia * v
            + cfg.cognitive_coeff * pull_own * (np.asarray(personal_best) - x)
            + cfg.social_coeff * pull_global * (np.asarray(global_best) - x)
        )
    if cfg.velocity_clamp is not None:
        new_v = np.clip(new_v, -cfg.velocity_clamp, cfg.velocity_clamp)
    return new_v


def update_position(problem: LinkProblem, position, velocity) -> np.ndarray:
    """Move particles by ``problem.adjust(position + velocity)``, which
    clamps into the unit box, re-pins frozen genes and rejects a non-finite move."""
    return problem.adjust(position + velocity)


def run(cfg: PsoConfig, problem: LinkProblem) -> SolverReport:
    """Run the swarm and report the best mission found."""
    return run_alone(steps(cfg, problem), problem)


def steps(cfg: PsoConfig, problem,
          seeds: Optional[Sequence[int]] = None) -> SolverSteps:
    """The swarm over a (seeds, size, dim) stack (see :mod:`uavbsc.common`).

    The seeds (default: ``cfg.seed``) form one
    :class:`~uavbsc.common.SeedStack`.  Per iteration: velocities and
    positions update against the previous iteration's global best; the
    swarm, with (improved variant) its mutants ``adjust(swarm + offsets)``
    beside it, is evaluated as one block; personal bests then the global
    best are refreshed from the swarm; and the mutants become the
    positions, all but the global-best holder's, which keeps its own.
    Only the mutants an offset moved count and reach the personal bests,
    and the global best at the next refresh.  A seed leaves the stack
    after the last iteration, or when its next one might exceed its budget.
    """
    size = cfg.swarm_size
    stack = SeedStack(cfg.variant, problem, seeds, size, cfg.max_evaluations, cfg,
                      "swarm")
    problem, best = stack.problem, stack.best
    mutation_std = math.sqrt(IPSO_MUTATION_VARIANCE)
    needed = size + (size - 1 if cfg.mutation_active else 0)

    positions = initial_population(problem, size, cfg.init_std, stack.rngs)
    velocities = np.zeros_like(positions)
    ev = yield positions, stack.live

    personal_x = positions.copy()
    personal_fit = ev.fitness.copy()
    best.offer(stack.live, personal_x, personal_fit, 0)

    for it in range(1, cfg.iterations + 2):
        keep = stack.fits(needed) & (it <= cfg.iterations)
        if not keep.all():
            gone = ~keep  # fold in a last mutation pass
            best.offer(stack.live[gone], personal_x[gone], personal_fit[gone])
        positions, velocities, personal_x, personal_fit = stack.keep(
            keep, positions, velocities, personal_x, personal_fit)
        live = stack.live
        if not live.size:
            break
        rngs = [stack.rngs[k] for k in live]

        inertia = inertia_at(it - 1, cfg.iterations, cfg)
        velocities = update_velocity(positions, velocities, personal_x,
                                     best.genome[live, None], inertia, cfg, rngs)
        positions = update_position(problem, positions, velocities)
        block = positions
        if cfg.mutation_active:
            offsets = masked_gaussian_offsets(
                rngs, positions.shape, cfg.mutation_prob, mutation_std)
            block = np.hstack([positions, problem.adjust(positions + offsets)])
        ev = yield block, live
        stack.spent[live] += size

        fitness = ev.fitness[:, :size]
        improved = fitness < personal_fit
        np.copyto(personal_x, positions, where=improved[..., None])
        np.copyto(personal_fit, fitness, where=improved)
        best.offer(live, personal_x, personal_fit, it)
        stack.record(it, fitness)

        if cfg.mutation_active:
            rows, held = np.arange(live.size), best.index[live]
            offsets[rows, held] = 0.0
            moved = np.any(offsets != 0.0, axis=2)
            stack.spent[live] += np.count_nonzero(moved, axis=1)
            better = moved & (ev.fitness[:, size:] < personal_fit)
            np.copyto(personal_x, block[:, size:], where=better[..., None])
            np.copyto(personal_fit, ev.fitness[:, size:], where=better)
            # The holder's row re-adjusted, as a zero offset leaves it.
            positions, unmoved = block[:, size:], positions[rows, held]
            positions[rows, held] = problem.adjust(unmoved + 0.0)

    return stack.reports()
