"""Sweep the wireless charging power and watch the achievable rate follow.

A compact version of the benchmark sweep: three charging-power levels,
two seeds each, improved swarm only.  More charging power loosens the
energy constraint, so the median achieved rate must not drop as the
sweep ascends.

Run from the repository root (takes about a second):

    python3 demos/sweep_charging_power.py
"""

from uavbsc.config import ScenarioConfig
from uavbsc.harness import SweepSpec, run_sweep, sweep_summary

scenario = ScenarioConfig.load("configs/reference.json")
spec = SweepSpec(
    parameter="system.wpt_power_db",
    values=[27.0, 30.0, 33.0],
    solvers=("ipso",),
    seeds=(0, 1),
    budget=4000,
)

print(f"sweeping {spec.parameter} over {spec.values} "
      f"({len(spec.seeds)} seeds each, budget {spec.budget})\n")
points = run_sweep(scenario, spec, workers=2)

print("value   solver  feasible  median rate   best rate")
for row in sweep_summary(points):
    print(f"{row['value']:5.1f}   {row['solver']:6s}  "
          f"{row['feasible_runs']}/{row['runs']:<7d} "
          f"{row['median_rate_bps'] / 1e6:9.3f} Mb  "
          f"{row['best_rate_bps'] / 1e6:9.3f} Mb")

medians = [p.median_rate_bps("ipso") for p in points]
trend = "non-decreasing" if all(
    b >= a for a, b in zip(medians, medians[1:])) else "NOT monotone"
print(f"\nmedian trend across the sweep: {trend}")
