"""Optimize the reference mission with both solvers and a random baseline.

Every contender gets the same evaluation budget, so the printed rates
are directly comparable.  Expect both metaheuristics to clear the
baseline by a wide margin and the improved swarm to edge out the
genetic algorithm on this scenario.

Run from the repository root (takes a few seconds):

    python3 demos/solve_reference.py
"""

from uavbsc.config import ScenarioConfig
from uavbsc.ga import GaConfig, run as run_ga
from uavbsc.harness import random_search
from uavbsc.pso import PsoConfig, run as run_pso

BUDGET = 5000
SEED = 0

scenario = ScenarioConfig.load("configs/reference.json")
problem = scenario.build_problem()
print(f"scenario {scenario.name}, budget {BUDGET} evaluations, seed {SEED}\n")

reports = [
    run_ga(GaConfig(population_size=50, generations=300, seed=SEED,
                    max_evaluations=BUDGET), problem),
    run_pso(PsoConfig(variant="ipso", swarm_size=50, iterations=150,
                      seed=SEED, max_evaluations=BUDGET), problem),
    run_pso(PsoConfig(variant="pso", swarm_size=50, iterations=300,
                      seed=SEED, max_evaluations=BUDGET), problem),
    random_search(problem, budget=BUDGET, seed=SEED),
]


def evals_to_best(rep):
    """Evaluations spent when the trace first holds the final best; a best
    that IPSO's closing fold-in took appears in no trace record."""
    return next((rec.evaluations for rec in rep.trace
                 if rec.best_fitness == rep.best.fitness), rep.evaluations)


print("solver  feasible  rate (Mbit/s)  evals  improved@  evals to best")
for rep in reports:
    rate = rep.achieved_rate_bps / 1e6
    print(f"{rep.solver:6s}  {str(rep.feasible):8s}  {rate:13.3f}  "
          f"{rep.evaluations:5d}  {rep.last_improvement_generation:9d}  "
          f"{evals_to_best(rep):13d}")

best = max(reports, key=lambda r: r.achieved_rate_bps)
print(f"\nbest mission ({best.solver}):")
trajectory = best.best.trajectory
for k, point in enumerate(trajectory.waypoints):
    mark = "start" if k == 0 else ("goal" if k == trajectory.n_slots else "")
    print(f"  waypoint {k}: x={point[0]:6.2f}  y={point[1]:6.2f}  "
          f"z={point[2]:5.2f}  {mark}")
print("  per-slot tag-active fraction:",
      " ".join(f"{d:.3f}" for d in best.best.time_split))
