"""Acceptance gate: one test per shipped guarantee of this package.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail
line per criterion.  The solver campaigns, sweeps, and the exhaustive
grid are expensive, so they execute once in module-scoped fixtures and
every criterion that needs them reads the shared results.

Tolerances and budgets are part of the package contract and must not be
loosened: formula agreement at 1e-9 relative on 1000 random draws each,
the hover identity at 1e-12 relative, solver feasibility margins at
-1e-9, equal-budget comparisons at 15,000 evaluations over 10 seeds,
grid-oracle attainment at 95% over 5 seeds, operator distribution checks
at 5% / 1% at 1e5 samples, and bitwise artifact determinism across
worker counts.
"""

import json
import math
import statistics
import time

import numpy as np
import pytest

import oracles
from helpers import (
    TINY_CONFIG,
    downlink_kwargs,
    fly_kwargs,
    harvest_kwargs,
    random_propulsion,
    random_system_params,
    small_system_params,
    uplink_kwargs,
)
from oracles import grid_oracle
from uavbsc import ga as ga_mod
from uavbsc import model
from uavbsc import pso as pso_mod
from uavbsc.cli import main as cli_main
from uavbsc.ga import GaConfig
from uavbsc.harness import (
    SOLVER_NAMES,
    SweepSpec,
    campaign_to_dict,
    make_solver_config,
    random_search,
    run_campaign,
    run_sweep,
)
from uavbsc.pso import IPSO_MUTATION_VARIANCE, PsoConfig

EQUAL_BUDGET = 15_000


def rel_err(a: float, b: float) -> float:
    scale = max(abs(a), abs(b), 1e-300)
    return abs(a - b) / scale


def rate_of(report) -> float:
    """Best achieved rate; an infeasible run scores zero."""
    return report.best_objective_bps if report.feasible else 0.0


def assert_trace_nonincreasing(report) -> None:
    best = [rec.best_fitness for rec in report.trace]
    assert all(b <= a for a, b in zip(best, best[1:])), (
        f"{report.solver} seed {report.seed}: best-fitness trace increased")


# ----------------------------------------------------------------------
# Shared workloads
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def reference_runs(reference_scenario):
    """Criterion 4 workload: 10 GA + 10 IPSO runs, 50x300 each."""
    problem = reference_scenario.build_problem()
    started = time.perf_counter()
    reports = []
    for seed in range(10):
        reports.append(ga_mod.run(
            GaConfig(population_size=50, generations=300, seed=seed),
            problem))
        reports.append(pso_mod.run(
            PsoConfig(variant="ipso", swarm_size=50, iterations=300,
                      seed=seed),
            problem))
    return {"elapsed": time.perf_counter() - started, "reports": reports}


@pytest.fixture(scope="module")
def budget_runs(reference_scenario):
    """Criteria 5/6 workload: every solver at 15,000 evaluations x 10 seeds."""
    problem = reference_scenario.build_problem()
    started = time.perf_counter()
    out = {"ga": [], "ipso": [], "pso": [], "random": []}
    for seed in range(10):
        out["ga"].append(ga_mod.run(
            GaConfig(population_size=50, generations=300, seed=seed,
                     max_evaluations=EQUAL_BUDGET), problem))
        out["ipso"].append(pso_mod.run(
            PsoConfig(variant="ipso", swarm_size=50, iterations=150,
                      seed=seed, max_evaluations=EQUAL_BUDGET), problem))
        out["pso"].append(pso_mod.run(
            PsoConfig(variant="pso", swarm_size=50, iterations=300,
                      seed=seed, max_evaluations=EQUAL_BUDGET), problem))
        out["random"].append(random_search(
            problem, budget=EQUAL_BUDGET, seed=seed))
    out["elapsed"] = time.perf_counter() - started
    return out


@pytest.fixture(scope="module")
def tiny_grid_runs(tiny_scenario):
    """Criterion 7 workload: exhaustive grid plus 5 seeds of GA and IPSO."""
    problem = tiny_scenario.build_problem()
    started = time.perf_counter()
    grid = grid_oracle(problem, resolution=9)
    reports = {"ga": [], "ipso": []}
    for seed in range(5):
        reports["ga"].append(ga_mod.run(
            make_solver_config(tiny_scenario, "ga", seed), problem))
        reports["ipso"].append(pso_mod.run(
            make_solver_config(tiny_scenario, "ipso", seed), problem))
    return {
        "elapsed": time.perf_counter() - started,
        "grid": grid,
        "reports": reports,
    }


@pytest.fixture(scope="module")
def trend_sweeps(reference_scenario):
    """Criterion 8 workload: charging-power and altitude sweeps."""
    started = time.perf_counter()
    charge = run_sweep(
        reference_scenario,
        SweepSpec(parameter="system.wpt_power_db",
                  values=[24.0, 27.0, 30.0, 33.0, 36.0],
                  solvers=("ipso",), seeds=tuple(range(5)),
                  budget=EQUAL_BUDGET),
        workers=4)
    altitude = run_sweep(
        reference_scenario,
        SweepSpec(parameter="geometry.altitude_m",
                  values=[5.0, 10.0, 15.0, 20.0, 25.0],
                  solvers=("ipso",), seeds=tuple(range(5)),
                  budget=EQUAL_BUDGET),
        workers=4)
    return {
        "elapsed": time.perf_counter() - started,
        "charge": charge,
        "altitude": altitude,
    }


# ----------------------------------------------------------------------
# Criteria
# ----------------------------------------------------------------------

def test_criterion_01_link_formulas_match_independent_oracles():
    rng = np.random.default_rng(20240)
    started = time.perf_counter()
    for _ in range(1000):
        p = random_system_params(rng)
        d_su = float(rng.uniform(0.5, 300.0))
        d_du = float(rng.uniform(0.5, 300.0))
        corr = float(rng.uniform(0.0, 1.0))
        split = float(rng.uniform(0.0, 1.0))
        assert rel_err(
            model.rate_uplink(d_su, corr, p),
            oracles.uplink_rate_reference(d_su, corr, **uplink_kwargs(p)),
        ) <= 1e-9
        assert rel_err(
            model.rate_downlink(d_su, d_du, corr, p),
            oracles.downlink_rate_reference(
                d_su, d_du, corr, **downlink_kwargs(p)),
        ) <= 1e-9
        assert rel_err(
            model.harvested_energy_slot(d_su, split, p),
            oracles.harvested_energy_reference(
                d_su, split, **harvest_kwargs(p)),
        ) <= 1e-9
    for _ in range(1000):
        prop = random_propulsion(rng)
        speed = float(rng.uniform(0.0, 60.0))
        assert rel_err(
            model.flying_power(speed, prop),
            oracles.flying_power_reference(speed, **fly_kwargs(prop)),
        ) <= 1e-9
    assert time.perf_counter() - started < 5.0


def test_criterion_02_hover_power_identity():
    rng = np.random.default_rng(20241)
    for _ in range(100):
        prop = random_propulsion(rng)
        hover = prop.profile_power_w + prop.induced_power_w
        assert rel_err(model.flying_power(0.0, prop), hover) <= 1e-12


def test_criterion_03_doppler_factor_and_bessel_oracle():
    params = small_system_params()
    assert model.doppler_factor(0.0, params) == 1.0
    rng = np.random.default_rng(20242)
    speeds = rng.uniform(0.0, 50.0, size=10_000)
    values = model.doppler_factor(speeds, params)
    assert np.all(values >= 0.0) and np.all(values <= 1.0)
    for x in np.linspace(0.0, 20.0, 401):
        assert abs(float(model.bessel_j0(x)) - oracles.j0_reference(x)) <= 1e-9


def test_criterion_04_reference_solver_output_is_feasible_or_flagged(
        reference_runs):
    assert len(reference_runs["reports"]) == 20
    for report in reference_runs["reports"]:
        flagged_infeasible = not report.feasible
        within_margin = report.best.report.worst_violation <= 1e-9
        assert flagged_infeasible or within_margin, (
            f"{report.solver} seed {report.seed}: feasible flag set but "
            f"violation {report.best.report.worst_violation} exceeds 1e-9")
    assert reference_runs["elapsed"] < 120.0


def test_criterion_05_metaheuristics_beat_random_baseline(budget_runs):
    for reports in (budget_runs["ga"], budget_runs["ipso"],
                    budget_runs["pso"], budget_runs["random"]):
        assert len(reports) == 10
        assert all(r.evaluations <= EQUAL_BUDGET for r in reports)
    median = {
        name: statistics.median(rate_of(r) for r in budget_runs[name])
        for name in ("ga", "ipso", "random")
    }
    assert median["ga"] > median["random"], median
    assert median["ipso"] > median["random"], median
    assert budget_runs["elapsed"] < 300.0


def test_criterion_06_improved_swarm_at_least_plain_swarm(budget_runs):
    ipso = statistics.median(rate_of(r) for r in budget_runs["ipso"])
    plain = statistics.median(rate_of(r) for r in budget_runs["pso"])
    assert ipso >= plain, (ipso, plain)


def test_criterion_07_solvers_reach_95_percent_of_grid_best(tiny_grid_runs):
    grid = tiny_grid_runs["grid"]
    assert grid.points_evaluated == 9 ** 4
    assert grid.points_evaluated <= 1_000_000
    assert grid.feasible
    floor = 0.95 * grid.objective_bps
    for solver in ("ga", "ipso"):
        reports = tiny_grid_runs["reports"][solver]
        assert len(reports) == 5
        for report in reports:
            assert rate_of(report) >= floor, (
                f"{solver} seed {report.seed}: {rate_of(report)} < {floor}")
    assert tiny_grid_runs["elapsed"] < 180.0


def test_criterion_08_charging_power_and_altitude_trends(trend_sweeps):
    charge = [p.median_rate_bps("ipso") for p in trend_sweeps["charge"]]
    altitude = [p.median_rate_bps("ipso") for p in trend_sweeps["altitude"]]
    assert len(charge) == len(altitude) == 5
    assert all(p.error is None for p in trend_sweeps["charge"])
    assert all(p.error is None for p in trend_sweeps["altitude"])
    assert all(b >= a for a, b in zip(charge, charge[1:])), charge
    assert all(b <= a for a, b in zip(altitude, altitude[1:])), altitude
    assert trend_sweeps["elapsed"] < 600.0


def test_criterion_09_operator_invariants():
    rng = np.random.default_rng(20243)

    # Crossover conserves every gene-pair sum.
    cfg = GaConfig(crossover_rate=1.0)
    for _ in range(100):
        a, b = rng.uniform(size=16), rng.uniform(size=16)
        child_a, child_b = ga_mod.crossover(a, b, cfg, rng)
        assert np.all(np.abs((child_a + child_b) - (a + b)) <= 1e-15)

    # Pre-clamp mutation variance: 1/spread^2 for the GA operator.
    for spread in (10.0, 4.0):
        offsets = ga_mod.masked_gaussian_offsets(
            rng, (100_000,), 1.0, 1.0 / spread)
        target = 1.0 / spread**2
        assert abs(float(np.var(offsets)) - target) <= 0.05 * target

    # Pre-clamp mutation variance: the improved swarm's fixed 0.1.
    assert IPSO_MUTATION_VARIANCE == 0.1
    offsets = ga_mod.masked_gaussian_offsets(
        rng, (100_000,), 1.0, math.sqrt(IPSO_MUTATION_VARIANCE))
    assert abs(float(np.var(offsets)) - 0.1) <= 0.05 * 0.1

    # Inertia schedule endpoints are exactly the configured bounds.
    for w_max, w_min, total in ((0.9, 0.1, 150), (0.9, 0.1, 300),
                                (0.8, 0.2, 7), (1.1, 0.3, 999)):
        cfg_pso = PsoConfig(inertia_max=w_max, inertia_min=w_min)
        assert pso_mod.inertia_at(0, total, cfg_pso) == w_max
        assert pso_mod.inertia_at(total, total, cfg_pso) == w_min

    # Roulette frequencies track the weights within one percent.
    weights = np.array([0.5, 0.3, 0.15, 0.05])
    picks = ga_mod.roulette(weights, 100_000, rng)
    freq = np.bincount(picks, minlength=4) / picks.size
    assert np.all(np.abs(freq - weights) < 0.01)


def test_criterion_10_artifacts_identical_across_worker_counts(
        tiny_scenario, tmp_path):
    # Library route: a four-solver campaign, serialized without timing.
    def campaign(workers):
        arts = run_campaign(tiny_scenario, list(SOLVER_NAMES), seeds=[0, 1],
                            budget=600, workers=workers)
        return json.dumps(campaign_to_dict(arts, include_timing=False),
                          sort_keys=True)

    first = campaign(workers=1)
    assert campaign(workers=1) == first
    assert campaign(workers=8) == first

    # CLI route: the sweep's CSV and JSON artifacts, byte for byte.
    def sweep(out_dir, workers):
        code = cli_main([
            "sweep", "--config", str(TINY_CONFIG),
            "--param", "system.wpt_power_db", "--values", "30,33",
            "--solver", "ipso,random", "--seeds", "0,1",
            "--budget", "300", "--workers", str(workers),
            "--out", str(out_dir), "--no-timing",
        ])
        assert code == 0

    sweep(tmp_path / "serial_a", workers=1)
    sweep(tmp_path / "serial_b", workers=1)
    sweep(tmp_path / "parallel", workers=8)
    for name in ("sweep_rows.csv", "sweep_summary.csv", "sweep.json"):
        reference = (tmp_path / "serial_a" / name).read_bytes()
        assert (tmp_path / "serial_b" / name).read_bytes() == reference
        assert (tmp_path / "parallel" / name).read_bytes() == reference


def test_criterion_11_best_traces_never_increase(
        reference_runs, budget_runs, tiny_grid_runs, trend_sweeps):
    reports = list(reference_runs["reports"])
    for name in ("ga", "ipso", "pso"):
        reports.extend(budget_runs[name])
    reports.extend(tiny_grid_runs["reports"]["ga"])
    reports.extend(tiny_grid_runs["reports"]["ipso"])
    for points in (trend_sweeps["charge"], trend_sweeps["altitude"]):
        for point in points:
            for artifact in point.artifacts:
                if artifact.solver in ("ga", "ipso", "pso"):
                    reports.append(artifact.report)
    assert len(reports) == 20 + 30 + 10 + 50
    for report in reports:
        assert_trace_nonincreasing(report)
