"""Particle swarm optimization with an improved variant over the genome.

The improved variant ("ipso") decays the inertia weight along a square-root
schedule and adds a Gaussian mutation pass that every particle except the
current global-best holder may receive, restoring exploration late in the
run.  The plain variant ("pso") keeps a constant inertia weight and never
mutates.  Fitness is minimized; all draws come from one seeded generator
in a fixed order.
"""

from __future__ import annotations

import math
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
    inertia_max: float = FINITE(0.9)  # schedule start (improved variant)
    inertia_min: float = FINITE(0.1)  # schedule end (improved variant)
    inertia_exponent: float = POSITIVE(0.5)  # schedule curvature
    inertia_const: float = FINITE(0.9)  # constant weight (plain variant): the
    # schedule's starting value held fixed, so the improved variant differs
    # from the baseline only by the decay and the mutation pass
    mutation_prob: float = UNIT_INTERVAL(0.1)  # per-gene mutation probability
    # per-gene |velocity| cap, off when None
    velocity_clamp: Optional[float] = POSITIVE_OR_NONE(None)
    init_std: float = NONNEGATIVE(0.2)
    init_mean: Optional[object] = None
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
    plain variant returns the constant weight.
    """
    if total < 1:
        raise ValueError("total iteration count must be at least 1")
    if not 0 <= step <= total:
        raise ValueError(f"step {step} out of range 0..{total}")
    if cfg.variant == "pso":
        return cfg.inertia_const
    if step == total:
        # The subtraction form below lands within rounding error of
        # inertia_min here; return the endpoint itself so both schedule
        # boundaries are exact.
        return cfg.inertia_min
    frac = (step / total) ** cfg.inertia_exponent
    return cfg.inertia_max - (cfg.inertia_max - cfg.inertia_min) * frac


def update_velocity(position, velocity, personal_best, global_best,
                    inertia: float, cfg: PsoConfig,
                    rng: np.random.Generator) -> np.ndarray:
    """Velocity update with fresh per-gene uniform draws.

    Works on a single particle (dim,) or the whole swarm (S, dim); the
    global best broadcasts.  The optional velocity clamp is applied last.
    """
    x = np.asarray(position, dtype=np.float64)
    v = np.asarray(velocity, dtype=np.float64)
    pull_own = rng.uniform(size=x.shape)
    pull_global = rng.uniform(size=x.shape)
    new_v = (
        inertia * v
        + cfg.cognitive_coeff * pull_own * (np.asarray(personal_best) - x)
        + cfg.social_coeff * pull_global * (np.asarray(global_best) - x)
    )
    if cfg.velocity_clamp is not None:
        new_v = np.clip(new_v, -cfg.velocity_clamp, cfg.velocity_clamp)
    return new_v


def update_position(position, velocity) -> np.ndarray:
    """Move a particle and clamp it back into the unit box."""
    x = np.asarray(position, dtype=np.float64)
    v = np.asarray(velocity, dtype=np.float64)
    return np.clip(x + v, 0.0, 1.0)


def run(cfg: PsoConfig, problem: LinkProblem,
        callback: Optional[ProgressCallback] = None) -> SolverReport:
    """Run the swarm and report the best mission found."""
    return drive(steps(cfg, problem, callback), problem)


def steps(cfg: PsoConfig, problem: LinkProblem,
          callback: Optional[ProgressCallback] = None) -> SolverSteps:
    """The swarm as a solver loop (see :mod:`uavbsc.common`).

    Per iteration: velocities and positions update against the previous
    iteration's global best, particles are re-evaluated, personal bests
    then the global best are refreshed, and (improved variant) the
    mutation pass perturbs and re-evaluates everyone except the global
    best holder, whose result is folded into the bests at the next
    iteration's refresh.
    """
    size = cfg.swarm_size
    budget = cfg.max_evaluations
    if budget is not None and budget < size:
        raise ValueError(
            f"evaluation budget {budget} cannot fit one swarm of {size}")
    rng = np.random.default_rng(cfg.seed)

    positions = initial_population(
        problem, size, cfg.init_mean, cfg.init_std, rng)
    velocities = np.zeros_like(positions)
    ev = yield positions
    evaluations = size

    personal_x = positions.copy()
    personal_fit = ev.fitness.copy()
    personal_worst = ev.worst_violation.copy()
    best = Incumbent(callback)
    best.offer(personal_x, personal_fit, personal_worst, 0)
    mutation_std = math.sqrt(IPSO_MUTATION_VARIANCE)

    for it in range(1, cfg.iterations + 1):
        needed = size + (size - 1 if cfg.mutation_active else 0)
        if budget is not None and evaluations + needed > budget:
            break

        inertia = inertia_at(it - 1, cfg.iterations, cfg)
        velocities = update_velocity(
            positions, velocities, personal_x, best.genome, inertia, cfg, rng)
        positions = problem.adjust(update_position(positions, velocities))
        ev = yield positions
        evaluations += size

        improved = ev.fitness < personal_fit
        personal_x[improved] = positions[improved]
        personal_fit[improved] = ev.fitness[improved]
        personal_worst[improved] = ev.worst_violation[improved]
        best.offer(personal_x, personal_fit, personal_worst, it)
        best.record(it, np.mean(ev.fitness), evaluations)

        if cfg.mutation_active:
            offsets = masked_gaussian_offsets(
                rng, positions.shape, cfg.mutation_prob, mutation_std)
            offsets[best.index] = 0.0
            moved = np.any(offsets != 0.0, axis=1)
            if np.any(moved):
                positions = problem.adjust(positions + offsets)
                mev = yield positions[moved]
                evaluations += int(np.count_nonzero(moved))
                rows = np.flatnonzero(moved)
                better = mev.fitness < personal_fit[rows]
                upd = rows[better]
                personal_x[upd] = positions[upd]
                personal_fit[upd] = mev.fitness[better]
                personal_worst[upd] = mev.worst_violation[better]

    # Fold in any personal-best improvement from a trailing mutation pass.
    best.offer(personal_x, personal_fit, personal_worst)
    return best.report(problem, cfg.variant, cfg.seed, evaluations, budget,
                       config_snapshot(cfg))
