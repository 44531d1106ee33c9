"""Optimize the reference mission with both solvers and a random baseline.

One campaign runs every solver at one seed, each with the settings of the
scenario's ``solvers`` section and the same evaluation budget, so the
printed rates are directly comparable.  Expect both metaheuristics to
clear the baseline by a wide margin and the improved swarm to edge out
the genetic algorithm on this scenario.

Run from the repository root (takes a few seconds):

    python3 demos/solve_reference.py
"""

from uavbsc.config import ScenarioConfig
from uavbsc.harness import SOLVER_NAMES, run_campaign

BUDGET = 5000
SEED = 0

scenario = ScenarioConfig.load("configs/reference.json")
print(f"scenario {scenario.name}, budget {BUDGET} evaluations, seed {SEED}\n")

reports = [artifact.report for artifact in
           run_campaign(scenario, SOLVER_NAMES, [SEED], budget=BUDGET)]


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
