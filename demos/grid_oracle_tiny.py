"""Check the solvers against an exhaustive grid on a tiny scenario.

The tiny two-slot scenario has only four free genes, so a 9-level grid
(6561 points) can be enumerated outright.  Both metaheuristics should
match or beat the best grid point, since they search the continuum the
grid only samples.

Run from the repository root (takes a few seconds):

    python3 demos/grid_oracle_tiny.py
"""

from uavbsc.config import ScenarioConfig
from uavbsc.ga import run as run_ga
from uavbsc.harness import grid_oracle, make_solver_config
from uavbsc.pso import run as run_pso

scenario = ScenarioConfig.load("configs/tiny.json")
problem = scenario.build_problem()

grid = grid_oracle(problem, resolution=9)
print(f"grid: {grid.points_evaluated} points over genes "
      f"{grid.free_gene_indices} -> best {grid.objective_bps / 1e6:.4f} "
      f"Mbit/s (feasible={grid.feasible})")

for solver, runner in (("ga", run_ga), ("ipso", run_pso)):
    best = None
    for seed in range(3):
        report = runner(make_solver_config(scenario, solver, seed), problem)
        rate = report.achieved_rate_bps
        best = max(best, rate) if best is not None else rate
    ratio = best / grid.objective_bps
    print(f"{solver:4s}: best over 3 seeds {best / 1e6:.4f} Mbit/s "
          f"= {ratio:.3f} x grid best")

print("\nratios above 1.0 mean the continuous search out-resolved the grid.")
