"""Walk the link model along the reference mission, slot by slot.

Loads the shipped reference scenario, decodes the straight-line heuristic
mission, and prints every per-slot quantity the optimizer trades off:
geometry, channel aging, both link rates, harvested and consumed energy.

Run from the repository root:

    python3 demos/link_model_tour.py
"""

import numpy as np

from uavbsc.config import ScenarioConfig
from uavbsc.model import doppler_factor, flying_power

scenario = ScenarioConfig.load("configs/reference.json")
problem = scenario.build_problem()
params = problem.params

print(f"scenario {scenario.name}: {params.slot_count} slots x "
      f"{params.slot_duration_s:.1f} s, hash {scenario.scenario_hash()[:12]}")
print(f"ground station at {problem.source[:2]}, user at {problem.user[:2]}, "
      f"flight {problem.start[:2]} -> {problem.goal[:2]} "
      f"at {params.altitude_m:.0f} m")

hover = flying_power(0.0, problem.propulsion)
print(f"\nhover power {hover * 1e3:.3f} mW; channel staleness factor at "
      f"{params.max_speed_mps:.0f} m/s: "
      f"{float(doppler_factor(params.max_speed_mps, params)):.6f}")

genome = problem.heuristic_mean()
solution = problem.evaluate(genome)
table = solution.table

print("\nslot  d_station  d_user  corr     uplink      downlink    "
      "harvest     consumed")
consumed = table.fly_j + table.backscatter_j + table.cache_j
for i in range(params.slot_count):
    print(f"{i:4d}  {table.d_su_m[i]:9.2f}  {table.d_du_m[i]:6.2f}  "
          f"{table.correlation[i]:.4f}  "
          f"{table.rate_up_bps[i] / 1e6:7.3f} Mb  "
          f"{table.rate_down_bps[i] / 1e6:7.3f} Mb  "
          f"{table.harvested_j[i] * 1e3:7.4f} mJ  "
          f"{consumed[i] * 1e3:7.4f} mJ")

report = solution.report
print(f"\nmission rate {solution.objective_bps / 1e6:.3f} Mbit/s, "
      f"feasible={report.feasible}")
print("constraint margins (positive = slack):")
for name, margin in report.margins.items():
    print(f"  {name:14s} {margin:+.6g}")

energy_in = float(np.sum(table.harvested_j))
energy_out = float(np.sum(consumed))
print(f"\nenergy ledger: harvested {energy_in * 1e3:.4f} mJ vs "
      f"spent {energy_out * 1e3:.4f} mJ over the whole mission")
