"""Campaign runner, random baseline, sweeps, grid oracle, and exports."""

import concurrent.futures
import dataclasses
import functools
import itertools
import json
import math
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from helpers import TINY_CONFIG, frozen_gene_indices, small_problem, small_system_params
from oracles import grid_oracle
from uavbsc import common, ga, harness, pso
from uavbsc.cli import main
from uavbsc.config import ScenarioConfig
from uavbsc.encoding import LinkProblem
from uavbsc.ga import GaConfig
from uavbsc.harness import (
    SweepPoint,
    SweepSpec,
    export_solution,
    random_search,
    random_steps,
    read_solution,
    run_campaign,
    run_single,
    run_sweep,
    sweep_rows,
    sweep_summary,
    write_csv,
    write_json,
)
from uavbsc.pso import PsoConfig


# ----------------------------------------------------------------------
# Per-run plumbing
# ----------------------------------------------------------------------

def test_a_run_config_is_the_scenario_overrides_with_its_seed_and_budget(
        tiny_scenario):
    # A config holds the row's defaults under the scenario's overrides;
    # the report records it with the run's seed and budget.
    ga_run, ipso_run, pso_run, random_run = (
        run_single(tiny_scenario, solver, 11, budget=budget).report.config
        for solver, budget in (("ga", 500), ("ipso", 200), ("pso", 200),
                               ("random", 300)))
    assert ga_run == {**dataclasses.asdict(GaConfig(
        population_size=40, generations=300, stall_limit=100)),
        "seed": 11, "max_evaluations": 500}
    assert ipso_run == {**dataclasses.asdict(PsoConfig(
        variant="ipso", swarm_size=40, iterations=150)),
        "seed": 11, "max_evaluations": 200}
    assert (pso_run["variant"], pso_run["max_evaluations"]) == ("pso", 200)
    assert random_run == {"chunk_size": 256}
    (unbounded,) = run_campaign(tiny_scenario, "ipso", [2])
    assert unbounded.budget is unbounded.report.config["max_evaluations"] is None
    with pytest.raises(ValueError, match="unknown solver"):
        run_single(tiny_scenario, "tabu", 0)


def test_run_single_is_replayable(tiny_scenario):
    a = run_single(tiny_scenario, "random", seed=4, budget=128)
    b = run_single(tiny_scenario, "random", seed=4, budget=128)
    assert a.to_dict(include_timing=False) == b.to_dict(include_timing=False)
    assert a.wall_clock_s > 0.0
    assert a.solver == "random"
    assert a.seed == 4
    assert a.budget == 128
    assert a.scenario_name == tiny_scenario.name
    assert a.scenario_hash == tiny_scenario.scenario_hash()
    assert "wall_clock_s" in a.to_dict()
    assert "wall_clock_s" not in a.to_dict(include_timing=False)


def test_run_artifact_dict_has_exactly_its_keys(tiny_scenario):
    art = run_single(tiny_scenario, "random", seed=0, budget=64)
    untimed = ["budget", "report", "scenario_hash", "scenario_name", "seed",
               "solver"]
    assert sorted(art.to_dict()) == sorted(untimed + ["wall_clock_s"])
    assert sorted(art.to_dict(include_timing=False)) == untimed


def test_run_single_trace_is_the_direct_search_trace(tiny_scenario):
    art = run_single(tiny_scenario, "random", seed=0, budget=300)
    rep = random_search(tiny_scenario.build_problem(), budget=300, seed=0)
    assert [r.to_dict() for r in art.report.trace] == \
        [r.to_dict() for r in rep.trace]


# ----------------------------------------------------------------------
# Campaigns
# ----------------------------------------------------------------------

def test_run_campaign_orders_solver_major(tiny_scenario):
    arts = run_campaign(tiny_scenario, ["random", "ipso"], seeds=[3, 1],
                        budget=200)
    assert [(a.solver, a.seed) for a in arts] == \
        [("random", 3), ("random", 1), ("ipso", 3), ("ipso", 1)]
    for art in arts:
        assert art.report.evaluations <= 200


def test_run_campaign_accepts_single_solver_name(tiny_scenario):
    arts = run_campaign(tiny_scenario, "random", seeds=[0], budget=64)
    assert len(arts) == 1
    assert arts[0].solver == "random"


def _run_a_new_row(row, baseline, scenario, config, monkeypatch, tmp_path,
                   capsys) -> list:
    """Run ``row`` under the name ``dummy`` through a campaign, a sweep and
    ``uavbsc run --config config``, and check each report is ``baseline``'s
    under the row's name.  Returns the reports' configs."""
    monkeypatch.setitem(harness.SOLVERS, "dummy", row)
    expected = {**run_single(scenario, baseline, 3, budget=300).report.to_dict(),
                "solver": "dummy"}
    (art,) = run_campaign(scenario, "dummy", [3], budget=300)
    assert art.solver == art.report.solver == "dummy"
    assert art.report.to_dict() == expected
    configs = [art.report.config]
    sweeps = [run_sweep(scenario, SweepSpec(
        "system.wpt_power_db", [30, 33], [name, "ga"], [3, 4], budget=300))
        for name in ("dummy", baseline)]
    for dummy, reference in zip(*sweeps):
        assert dummy.error is None
        assert [(a.solver, a.report.solver, a.seed) for a in dummy.artifacts] == \
            [("dummy", "dummy", 3), ("dummy", "dummy", 4),
             ("ga", "ga", 3), ("ga", "ga", 4)]
        assert [a.report.to_dict() for a in dummy.artifacts] == \
            [{**b.report.to_dict(), "solver": a.solver}
             for a, b in zip(dummy.artifacts, reference.artifacts)]
        configs += [a.report.config for a in dummy.artifacts[:2]]
    out = tmp_path / "dummy.json"
    assert main(["run", "--config", str(config), "--solver", "dummy",
                 "--seed", "3", "--budget", "300", "--no-timing",
                 "--out", str(out)]) == 0
    assert "solver=dummy" in capsys.readouterr().out
    written = json.loads(out.read_text(encoding="utf-8"))
    assert written == {**art.to_dict(include_timing=False), "report": expected}
    return configs + [written["report"]["config"]]


def test_a_new_solver_is_one_row_of_the_table(tiny_scenario, monkeypatch,
                                              tmp_path, capsys):
    # A row that runs random search under a name of its own reaches a
    # campaign, a sweep and the command line with no other edit, and its
    # reports carry the row's name.
    _run_a_new_row((None, random_steps), "random", tiny_scenario, TINY_CONFIG,
                   monkeypatch, tmp_path, capsys)


def test_a_new_solver_with_a_config_is_one_row_of_the_table(monkeypatch, tmp_path,
                                                            capsys):
    # A row whose config holds only its hyperparameters runs as the GA row
    # with the same settings, and each report's config records the run's
    # seed and budget.
    settings = {"population_size": 10, "generations": 5}
    doc = json.loads(TINY_CONFIG.read_text(encoding="utf-8"))
    doc["solvers"]["ga"] = settings
    config = tmp_path / "tiny.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    configs = _run_a_new_row(
        (functools.partial(GaConfig, **settings), ga.steps), "ga",
        ScenarioConfig.load(config), config, monkeypatch, tmp_path, capsys)
    hyperparameters = dataclasses.asdict(GaConfig(**settings))
    assert configs == [{**hyperparameters, "seed": seed, "max_evaluations": 300}
                       for seed in (3, 3, 4, 3, 4, 3)]


def test_a_scenario_builds_its_problem_once(monkeypatch):
    # Loading a scenario and replacing a swept value each build one
    # problem; runs reuse their scenario's problem.
    built = []
    init = LinkProblem.__init__

    def counted_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(LinkProblem, "__init__", counted_init)
    scenario = ScenarioConfig.load(TINY_CONFIG)
    assert len(built) == 1
    swept = scenario.with_value("system.wpt_power_db", 30)
    assert len(built) == 2
    run_campaign(scenario, ["ga", "random"], [0, 1], budget=200)
    assert len(built) == 2
    run_sweep(scenario, SweepSpec("system.wpt_power_db", [30, 33], ["ipso"], [0],
                                  budget=200))
    assert len(built) == 4
    assert built[:2] == [scenario.build_problem(), swept.build_problem()]


def test_wall_clock_shares_add_up_to_the_campaign_wall_time(
        reference_scenario, tiny_scenario):
    # Each artifact's share is its loop's own time plus its row share of
    # every evaluation it joined, split over the loop's seeds.
    started = time.perf_counter()
    arts = run_campaign(reference_scenario, list(harness.SOLVER_NAMES),
                        seeds=[0, 1, 2], budget=2000)
    wall = time.perf_counter() - started
    assert all(a.wall_clock_s > 0.0 for a in arts)
    assert sum(a.wall_clock_s for a in arts) == pytest.approx(wall, rel=0.05)
    spec = SweepSpec("system.wpt_power_db", [30, 33], ["random", "ga"], [0, 1],
                     budget=100)
    for workers in (1, 2):
        assert all(a.wall_clock_s > 0.0 for point in
                   run_sweep(tiny_scenario, spec, workers=workers)
                   for a in point.artifacts)


def test_run_campaign_worker_count_does_not_change_results(tiny_scenario):
    serial = run_campaign(tiny_scenario, ["random", "ipso"], seeds=[0, 1],
                          budget=200, workers=1)
    parallel = run_campaign(tiny_scenario, ["random", "ipso"], seeds=[0, 1],
                            budget=200, workers=3)
    a = [x.to_dict(include_timing=False) for x in serial]
    b = [x.to_dict(include_timing=False) for x in parallel]
    assert a == b


# Budgets that are no integer of at least 1; each raised TypeError or
# OverflowError from inside random search before the one budget check.
BAD_BUDGETS = [2.5, 600.0, True, math.inf, 0, -1]


def test_run_campaign_rejects_bad_arguments(tiny_scenario):
    spec = SweepSpec("system.wpt_power_db", [30], ["random"], [0], budget=8)
    for workers in (0, 2.5, True):
        with pytest.raises(ValueError, match="workers"):
            run_campaign(tiny_scenario, ["random"], seeds=[0], workers=workers)
        with pytest.raises(ValueError, match="workers"):
            run_sweep(tiny_scenario, spec, workers=workers)
    for solver, budget in itertools.product(["random", "ga"], BAD_BUDGETS):
        with pytest.raises(ValueError, match="budget must be"):
            run_campaign(tiny_scenario, solver, seeds=[0], budget=budget)
    # numpy integers are integers.
    (art,) = run_campaign(tiny_scenario, "random", [np.int64(2)], budget=np.int64(8),
                          workers=np.int64(1))
    assert (type(art.seed), art.seed, type(art.budget), art.budget) == (int, 2, int, 8)
    with pytest.raises(ValueError, match="at least one solver"):
        run_campaign(tiny_scenario, [], seeds=[0])
    with pytest.raises(ValueError, match="unknown solver"):
        run_campaign(tiny_scenario, ["simplex"], seeds=[0])
    with pytest.raises(ValueError, match="at least one seed"):
        run_campaign(tiny_scenario, ["random"], seeds=[])


def test_negative_seed_is_rejected_before_any_run(tiny_scenario, monkeypatch):
    started = []
    monkeypatch.setattr(harness, "_run_group",
                        lambda *args: started.append(args) or [])
    with pytest.raises(ValueError, match=r"non-negative \(got seed -1\)"):
        run_campaign(tiny_scenario, ["random", "ga"], seeds=[0, -1])
    with pytest.raises(ValueError, match=r"non-negative \(got seed -2\)"):
        run_single(tiny_scenario, "random", seed=-2)
    with pytest.raises(ValueError, match=r"non-negative \(got seed -1\)"):
        SweepSpec(parameter="system.wpt_power_db", values=[30], seeds=[-1])
    for seed in (2.5, "3", True, np.float64(2.0)):
        with pytest.raises(ValueError, match=r"seed must be an integer"):
            run_campaign(tiny_scenario, ["random"], seeds=[0, seed])
        with pytest.raises(ValueError, match=r"seed must be an integer"):
            SweepSpec(parameter="system.wpt_power_db", values=[30], seeds=[seed])
    assert started == []


# ----------------------------------------------------------------------
# Random-search baseline
# ----------------------------------------------------------------------

def test_random_search_minimal_budget():
    problem = small_problem()
    rep = random_search(problem, budget=1, seed=0)
    assert rep.evaluations == 1
    assert len(rep.trace) == 1
    assert rep.solver == "random"
    assert rep.config == {"chunk_size": 256}


def test_random_search_is_deterministic():
    problem = small_problem()
    a = random_search(problem, budget=300, seed=5)
    b = random_search(problem, budget=300, seed=5)
    assert np.array_equal(a.best.genome, b.best.genome)
    assert [t.to_dict() for t in a.trace] == [t.to_dict() for t in b.trace]


def test_random_search_longer_budget_extends_the_same_stream():
    problem = small_problem()
    short = random_search(problem, budget=256, seed=7)
    long = random_search(problem, budget=512, seed=7)
    assert short.trace[0].to_dict() == long.trace[0].to_dict()
    assert long.best.fitness <= short.best.fitness
    assert len(long.trace) == 2


def test_random_search_partial_final_chunk():
    problem = small_problem()
    rep = random_search(problem, budget=300, seed=2)
    assert rep.evaluations == 300
    assert [t.evaluations for t in rep.trace] == [256, 300]


def test_random_search_trace_is_monotone():
    problem = small_problem()
    rep = random_search(problem, budget=1024, seed=3)
    best = [t.best_fitness for t in rep.trace]
    assert all(b <= a for a, b in zip(best, best[1:]))
    assert 1 <= rep.last_improvement_generation <= len(rep.trace)


def test_paper_mode_with_no_feasible_mission_reports_the_first_candidate():
    # Every infeasible mission scores -1 in "paper" mode; fitness is the
    # one ordering key, so no later candidate displaces the first offered,
    # whatever its worst violation.
    problem = small_problem(small_system_params(demanded_rate_bps=1e15),
                            penalty_mode="paper")
    ga_cfg = GaConfig(population_size=10, generations=5)
    pso_cfg = PsoConfig(swarm_size=10, iterations=5)
    for report, first in (
            (random_search(problem, budget=300, seed=4), problem.adjust(
                np.random.default_rng(4).random((1, problem.genome_size)))),
            (common.run_alone(ga.steps(ga_cfg, problem, [4]), problem),
             common.initial_population(
                 problem, 10, ga_cfg.init_std, np.random.default_rng(4))),
            (common.run_alone(pso.steps(pso_cfg, problem, [4]), problem),
             common.initial_population(
                 problem, 10, pso_cfg.init_std, np.random.default_rng(4)))):
        assert (report.best.fitness, report.feasible) == (-1.0, False)
        np.testing.assert_array_equal(report.best.genome, first[0])


def test_random_search_rejects_bad_arguments():
    problem = small_problem()
    with pytest.raises(ValueError, match="budget"):
        random_search(problem, budget=0)


# ----------------------------------------------------------------------
# Sweeps
# ----------------------------------------------------------------------

def test_sweep_spec_validation():
    with pytest.raises(ValueError, match="parameter"):
        SweepSpec(parameter="", values=[1])
    with pytest.raises(ValueError, match="at least one value"):
        SweepSpec(parameter="x", values=[])
    with pytest.raises(ValueError, match="at least one seed"):
        SweepSpec(parameter="x", values=[1], seeds=[])
    with pytest.raises(ValueError, match="unknown solver"):
        SweepSpec(parameter="x", values=[1], solvers=["nope"])
    for budget in (0, -1):
        with pytest.raises(ValueError, match=r"budget must be at least 1"):
            SweepSpec(parameter="x", values=[1], budget=budget)
    for budget in BAD_BUDGETS:
        with pytest.raises(ValueError, match="budget must be"):
            SweepSpec(parameter="x", values=[1], budget=budget)
    spec = SweepSpec(parameter="x", values=[1], solvers="random", budget=1)
    assert spec.solvers == ["random"]


def test_sweep_spec_keeps_one_shot_iterables(tiny_scenario):
    spec = SweepSpec("system.wpt_power_db", iter([30, 33]), ["random"],
                     iter([0, 1]), 64)
    assert spec.values == [30, 33]
    assert spec.seeds == [0, 1]
    points = run_sweep(tiny_scenario, spec)
    assert [p.error for p in points] == [None, None]
    assert [[a.seed for a in p.artifacts] for p in points] == [[0, 1], [0, 1]]


def test_run_sweep_isolates_bad_values(tiny_scenario):
    spec = SweepSpec(parameter="system.slot_count", values=[2, 0],
                     solvers=["random"], seeds=[0], budget=64)
    points = run_sweep(tiny_scenario, spec)
    assert len(points) == 2
    good, bad = points
    assert good.error is None
    assert len(good.artifacts) == 1
    assert bad.error is not None
    assert "slot_count" in bad.error
    assert bad.artifacts == []


GA_SIZES = [{"population_size": 10},
            {"population_size": 500},   # cannot fit the budget: fails at run time
            {"population_size": 0}]     # out of range: fails at load


def untimed(points):
    return [(p.value, p.error, [a.to_dict(include_timing=False)
                                for a in p.artifacts]) for p in points]


def ga_size_campaigns(scenario, sizes, solvers, seeds):
    """One campaign (budget 200) per GA override, or its error, as
    :func:`untimed` gives sweep points."""
    expected = []
    for value in sizes:
        try:
            varied = scenario.with_value("solvers.ga", value)
            arts = run_campaign(varied, solvers, seeds, budget=200, workers=1)
            expected.append((value, None, [a.to_dict(include_timing=False)
                                           for a in arts]))
        except ValueError as exc:
            expected.append((value, str(exc), []))
    return expected


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_run_sweep_equals_one_campaign_per_value(tiny_scenario, workers):
    solvers, seeds = ["ga", "random"], [0, 1, 2]
    expected = ga_size_campaigns(tiny_scenario, GA_SIZES, solvers, seeds)
    assert [error is None for _, error, _ in expected] == [True, False, False]
    spec = SweepSpec("solvers.ga", GA_SIZES, solvers, seeds, budget=200)
    assert untimed(run_sweep(tiny_scenario, spec, workers=workers)) == expected


def test_a_failed_loop_drives_no_group_twice(tiny_scenario, monkeypatch):
    # Both sizes share one drive; size 500's GA fails in its first step,
    # and the loops beside it keep their own outcomes.
    sizes, solvers, seeds = GA_SIZES[:2], ["ga", "random"], [0, 1, 2]
    expected = ga_size_campaigns(tiny_scenario, sizes, solvers, seeds)
    solvers_run = []
    run_group = harness._run_group
    monkeypatch.setattr(harness, "_run_group", lambda *args: (
        solvers_run.append(args[1]), run_group(*args))[1])
    spec = SweepSpec("solvers.ga", sizes, solvers, seeds, budget=200)
    points = run_sweep(tiny_scenario, spec)
    assert solvers_run == ["ga", "random", "ga", "random"]
    assert untimed(points) == expected


# Charging powers at which the tiny scenario turns from infeasible to
# feasible, so that every value's runs end differently.
WPT_VALUES = [20, 27, 33]


def campaigns_per_value(scenario, parameter, values, solvers, seeds, budget):
    return [(value, None, [a.to_dict(include_timing=False) for a in run_campaign(
        scenario.with_value(parameter, value), solvers, seeds, budget=budget)])
        for value in values]


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_sweep_over_a_physics_scalar_equals_one_campaign_per_value(
        tiny_scenario, workers):
    # The values of a slice share one drive, each row evaluated with its
    # own value's charging power as a per-row column.
    solvers, seeds = ["ipso", "ga"], [0, 1, 2]
    expected = campaigns_per_value(tiny_scenario, "system.wpt_power_db",
                                   WPT_VALUES, solvers, seeds, 300)
    fitness = [[run["report"]["best"]["fitness"] for run in runs]
               for _, _, runs in expected]
    assert len({tuple(f) for f in fitness}) == len(WPT_VALUES)
    spec = SweepSpec("system.wpt_power_db", WPT_VALUES, solvers, seeds, budget=300)
    assert untimed(run_sweep(tiny_scenario, spec, workers=workers)) == expected


def test_a_sweep_slice_makes_one_evaluation_per_tick(tiny_scenario, monkeypatch):
    calls = []
    evaluate_batch = LinkProblem.evaluate_batch

    def counting(self, genomes):
        calls.append(len(genomes))
        return evaluate_batch(self, genomes)

    monkeypatch.setattr(LinkProblem, "evaluate_batch", counting)
    solvers, seeds = ["ipso", "ga"], [0, 1]
    ticks = []
    for value in WPT_VALUES:
        start = len(calls)
        run_campaign(tiny_scenario.with_value("system.wpt_power_db", value),
                     solvers, seeds, budget=300)
        ticks.append(len(calls) - start)
    start = len(calls)
    spec = SweepSpec("system.wpt_power_db", WPT_VALUES, solvers, seeds, budget=300)
    run_sweep(tiny_scenario, spec, workers=1)
    assert len(calls) - start == max(ticks) < sum(ticks)


def test_a_physics_sweep_runs_one_loop_per_solver(tiny_scenario, monkeypatch):
    # The values share their solver settings, so each solver steps the
    # seeds of every value as one loop, value after value.
    calls, groups = [], []
    evaluate_batch = LinkProblem.evaluate_batch
    monkeypatch.setattr(LinkProblem, "evaluate_batch", lambda self, genomes: (
        calls.append(len(genomes)), evaluate_batch(self, genomes))[1])
    solvers, seeds = ["ipso", "ga"], [0, 1]
    ticks = []
    for value in WPT_VALUES:
        start = len(calls)
        run_campaign(tiny_scenario.with_value("system.wpt_power_db", value),
                     solvers, seeds, budget=300)
        ticks.append(len(calls) - start)
    run_group = harness._run_group
    monkeypatch.setattr(harness, "_run_group", lambda *args: (
        groups.append((args[1], list(args[2]))), run_group(*args))[1])
    start = len(calls)
    spec = SweepSpec("system.wpt_power_db", WPT_VALUES, solvers, seeds, budget=300)
    points = run_sweep(tiny_scenario, spec, workers=1)
    assert groups == [(solver, seeds * len(WPT_VALUES)) for solver in solvers]
    assert len(calls) - start == max(ticks)
    # A run's time is its loop's busy time split over all the loop's seeds.
    for solver in solvers:
        assert len({a.wall_clock_s for point in points for a in point.artifacts
                    if a.solver == solver}) == 1


@pytest.mark.parametrize("parameter, values", [
    ("geometry.altitude_m", [5.0, 8.0, 12.0]),   # start and goal move
    ("system.slot_count", [2, 3, 2]),
    ("system.wpt_power_db", WPT_VALUES),
])
def test_only_values_that_share_a_geometry_share_a_drive(
        tiny_scenario, monkeypatch, parameter, values):
    drives = []

    def counting(loops, problems):
        drives.append(problems)
        return common.drive(loops, problems)

    monkeypatch.setattr(harness, "drive", counting)
    spec = SweepSpec(parameter, values, ["ipso"], [0, 1], budget=200)
    points = run_sweep(tiny_scenario, spec)
    shared = parameter == "system.wpt_power_db"
    assert len(drives) == (1 if shared else len(values))
    monkeypatch.undo()
    assert untimed(points) == campaigns_per_value(
        tiny_scenario, parameter, values, ["ipso"], [0, 1], 200)


def test_the_altitude_modes_of_a_sweep_share_no_loop(tiny_scenario):
    # adjust pins the z genes in fixed-altitude mode only, so the two modes
    # have different geometries, and each value's runs equal its own campaign.
    values, solvers, seeds = [True, False], ["ipso", "random"], [0, 1]
    spec = SweepSpec("modes.fixed_altitude", values, solvers, seeds, budget=200)
    assert untimed(run_sweep(tiny_scenario, spec)) == campaigns_per_value(
        tiny_scenario, "modes.fixed_altitude", values, solvers, seeds, 200)


@pytest.fixture
def pools(monkeypatch):
    """Count the process pools the harness creates."""
    created = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            created.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    return created


@pytest.mark.parametrize("workers, most", [(1, 0), (2, 1), (3, 1)])
def test_a_call_creates_at_most_one_pool(tiny_scenario, pools, workers, most):
    spec = SweepSpec("system.wpt_power_db", [30, 33, 36], ["random", "ipso"],
                     [0, 1], budget=100)
    run_sweep(tiny_scenario, spec, workers=workers)
    assert len(pools) == most
    run_campaign(tiny_scenario, ["random", "ipso"], [0, 1, 2], budget=100,
                 workers=workers)
    assert len(pools) == 2 * most


def test_importing_the_cli_leaves_the_process_pool_unloaded():
    # In a fresh interpreter: multiprocessing loads only when a pool is made.
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, uavbsc.cli; print('multiprocessing' in sys.modules)"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_a_failed_campaign_run_raises_its_error(tiny_scenario, monkeypatch):
    varied = tiny_scenario.with_value("solvers.ga", {"population_size": 500})
    for workers in (1, 2):
        with pytest.raises(ValueError, match="cannot fit one population"):
            run_campaign(varied, ["random", "ga"], [0, 1], budget=200,
                         workers=workers)
    # In process too, the groups after the failed one run before it raises.
    solvers_run = []
    run_group = harness._run_group
    monkeypatch.setattr(harness, "_run_group", lambda *args: (
        solvers_run.append(args[1]), run_group(*args))[1])
    with pytest.raises(ValueError, match="cannot fit one population"):
        run_campaign(varied, ["random", "ga", "ipso"], [0, 1], budget=200)
    assert solvers_run == ["random", "ga", "ipso"]


# Legal IPSO settings whose inertia overflows the velocities to infinity
# and then, as the weight passes through zero, to NaN.
DIVERGING_IPSO = {"inertia_max": 1e300, "inertia_min": -1e300,
                  "inertia_exponent": 1.0, "iterations": 8}


def test_a_diverging_swarm_fails_its_own_step(tiny_scenario):
    diverging = tiny_scenario.with_value("solvers.ipso", DIVERGING_IPSO)
    messages = []
    for workers in (1, 2):
        with pytest.raises(ValueError, match="must be finite") as caught:
            run_campaign(diverging, ["ga", "ipso"], [0, 1], workers=workers)
        messages.append(str(caught.value))
    assert messages[0] == messages[1]


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_a_diverging_swarm_fails_every_value_of_its_loop(tiny_scenario, workers):
    # The swept values share the diverging solver config, so the swarm of
    # every value fails, and each point keeps the same error.
    diverging = tiny_scenario.with_value("solvers.ipso", DIVERGING_IPSO)
    spec = SweepSpec("system.wpt_power_db", WPT_VALUES, ["ipso"], [0, 1])
    points = run_sweep(diverging, spec, workers=workers)
    assert [point.artifacts for point in points] == [[]] * len(WPT_VALUES)
    assert len({point.error for point in points}) == 1
    assert "must be finite" in points[0].error


def test_sweep_point_medians_count_infeasible_as_zero(tiny_scenario):
    spec = SweepSpec(parameter="system.demanded_rate_bps",
                     values=[2.0e7, 1.0e15], solvers=["random"],
                     seeds=[0, 1, 2], budget=128)
    points = run_sweep(tiny_scenario, spec)
    assert points[0].median_rate_bps() > 0.0
    # No mission can deliver 1e15 bit/s, so every seed is infeasible and
    # the median must be exactly zero, not missing.
    assert all(not a.report.feasible for a in points[1].artifacts)
    assert points[1].median_rate_bps() == 0.0
    rows = sweep_summary(points)
    assert [r["solver"] for r in rows] == ["random", "random"]
    assert rows[0]["feasible_runs"] == 3
    assert rows[1]["feasible_runs"] == 0
    assert rows[1]["median_rate_bps"] == 0.0


def test_sweep_point_median_of_no_runs_is_nan_without_warning(tiny_scenario):
    spec = SweepSpec(parameter="system.wpt_power_db", values=[33.0],
                     solvers=["random"], seeds=[0], budget=64)
    point = run_sweep(tiny_scenario, spec)[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isnan(point.median_rate_bps("ga"))
        assert not math.isnan(point.median_rate_bps("random"))
        assert math.isnan(SweepPoint("system.wpt_power_db", 33.0)
                          .median_rate_bps())


def test_sweep_rows_shape_and_timing_column(tiny_scenario):
    spec = SweepSpec(parameter="system.slot_count", values=[2, 0],
                     solvers=["random"], seeds=[0, 1], budget=64)
    points = run_sweep(tiny_scenario, spec)
    rows = sweep_rows(points)
    # Two runs for the good value, one error row for the bad one.
    assert len(rows) == 3
    assert all("wall_clock_s" in r for r in rows)
    assert rows[0]["solver"] == "random"
    assert rows[2]["error"] != ""
    assert rows[2]["seed"] == ""
    bare = sweep_rows(points, include_timing=False)
    assert all("wall_clock_s" not in r for r in bare)
    stripped = [{k: v for k, v in r.items() if k != "wall_clock_s"}
                for r in rows]
    assert bare == stripped


def test_sweep_summary_error_rows(tiny_scenario):
    spec = SweepSpec(parameter="system.slot_count", values=[0],
                     solvers=["random"], seeds=[0], budget=16)
    rows = sweep_summary(run_sweep(tiny_scenario, spec))
    assert len(rows) == 1
    assert rows[0]["runs"] == 0
    assert rows[0]["error"] != ""


def test_write_csv_round_trip(tmp_path):
    rows = [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}]
    path = tmp_path / "rows.csv"
    write_csv(path, rows)
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    assert lines == ["a,b", "1,x", "2,y"]
    empty = tmp_path / "empty.csv"
    write_csv(empty, [])
    assert empty.read_text(encoding="utf-8") == ""


def test_write_json_is_sorted_indented_and_newline_terminated(tmp_path):
    path = tmp_path / "artifact.json"
    write_json(path, {"b": [1, 2.5], "a": {"d": None, "c": "x"}})
    assert path.read_text(encoding="utf-8") == (
        '{\n  "a": {\n    "c": "x",\n    "d": null\n  },\n'
        '  "b": [\n    1,\n    2.5\n  ]\n}\n')


# ----------------------------------------------------------------------
# Grid oracle
# ----------------------------------------------------------------------

def test_grid_resolution_one_probes_the_center(tiny_problem):
    result = grid_oracle(tiny_problem, resolution=1)
    assert result.points_evaluated == 1
    free = result.free_gene_indices
    assert free == [0, 1, 3, 4]  # altitude gene 2 is frozen
    assert all(result.genome[g] == 0.5 for g in free)
    direct = tiny_problem.evaluate(tiny_problem.adjust(
        np.full(tiny_problem.genome_size, 0.5)))
    assert result.fitness == direct.fitness


def test_grid_enumerates_single_free_gene():
    problem = small_problem(small_system_params(slot_count=1,
                                                mission_time_s=16.0))
    assert problem.genome_size == 1
    result = grid_oracle(problem, resolution=5)
    assert result.points_evaluated == 5
    levels = np.linspace(0.0, 1.0, 5)
    fits = [problem.evaluate(np.array([v])).fitness for v in levels]
    assert result.fitness == min(fits)
    assert result.genome[0] == levels[int(np.argmin(fits))]


def test_grid_matches_exhaustive_product_enumeration(tiny_problem):
    resolution = 9  # 9^4 = 6,561 points: more than one block of 4,096
    result = grid_oracle(tiny_problem, resolution=resolution)
    frozen = set(frozen_gene_indices(tiny_problem))
    free = [g for g in range(tiny_problem.genome_size) if g not in frozen]
    levels = np.linspace(0.0, 1.0, resolution)
    best_fit = math.inf
    best_genome = None
    count = 0
    for combo in itertools.product(levels, repeat=len(free)):
        genome = np.full(tiny_problem.genome_size, 0.5)
        genome[free] = combo
        genome = tiny_problem.adjust(genome)
        sol = tiny_problem.evaluate(genome)
        if sol.fitness < best_fit:
            best_fit = sol.fitness
            best_genome = genome
        count += 1
    assert result.points_evaluated == count == resolution ** len(free)
    assert result.fitness == best_fit
    assert np.array_equal(result.genome, best_genome)


def test_grid_guards(reference_problem, tiny_problem):
    with pytest.raises(ValueError, match="slots"):
        grid_oracle(reference_problem, resolution=3)
    with pytest.raises(ValueError, match="exceeds"):
        grid_oracle(tiny_problem, resolution=100)   # 100^4 points
    with pytest.raises(ValueError, match="resolution"):
        grid_oracle(tiny_problem, resolution=0)


# ----------------------------------------------------------------------
# Export and import
# ----------------------------------------------------------------------

def test_export_solution_files_and_round_trip(tiny_problem, tmp_path):
    genome = tiny_problem.heuristic_mean()
    sol_path, csv_path = export_solution(
        tiny_problem, genome, tmp_path, meta={"note": "demo"})
    assert sol_path.name == "solution.json"
    assert csv_path.name == "trajectory.csv"

    loaded = read_solution(sol_path)
    assert np.allclose(loaded["genome"], genome, rtol=0, atol=1e-15)
    again = tiny_problem.evaluate(loaded["genome"])
    assert again.fitness == loaded["data"]["fitness"]
    assert loaded["data"]["meta"] == {"note": "demo"}

    lines = csv_path.read_text(encoding="utf-8").strip().splitlines()
    n = tiny_problem.n_slots
    assert len(lines) == 1 + n + 1  # header + one row per waypoint
    header = lines[0].split(",")
    last = lines[-1].split(",")
    # The final waypoint starts no slot, so its slot columns are empty.
    for col in ("time_split", "speed_mps", "uplink_rate_bps",
                "downlink_rate_bps", "harvested_j", "consumed_j"):
        assert last[header.index(col)] == ""


def test_an_export_makes_one_evaluation_pass(tiny_problem, monkeypatch, tmp_path):
    # solution.json and trajectory.csv both come from the pass of evaluate.
    passes = []
    one_pass = LinkProblem._evaluate_stack

    def counted_pass(*args, **kwargs):
        passes.append(1)
        return one_pass(*args, **kwargs)

    monkeypatch.setattr(LinkProblem, "_evaluate_stack", counted_pass)
    export_solution(tiny_problem, tiny_problem.heuristic_mean(), tmp_path)
    assert len(passes) == 1


def test_exported_rates_sum_to_the_objective(tiny_problem, tmp_path):
    genome = tiny_problem.heuristic_mean()
    _, csv_path = export_solution(tiny_problem, genome, tmp_path)
    lines = csv_path.read_text(encoding="utf-8").strip().splitlines()
    header = lines[0].split(",")
    col = header.index("downlink_rate_bps")
    total = sum(float(line.split(",")[col])
                for line in lines[1:-1])
    expected = tiny_problem.evaluate(genome).objective_bps
    assert total == pytest.approx(expected, rel=1e-9)


def test_read_solution_accepts_run_artifacts(tiny_scenario, tmp_path):
    art = run_single(tiny_scenario, "random", seed=0, budget=64)
    path = tmp_path / "artifact.json"
    path.write_text(json.dumps(art.to_dict()), encoding="utf-8")
    loaded = read_solution(path)
    assert np.allclose(loaded["genome"], art.report.best.genome,
                       rtol=0, atol=1e-15)


def test_read_solution_rejects_unrecognized_documents(tmp_path):
    path = tmp_path / "mystery.json"
    path.write_text(json.dumps({"hello": 1}), encoding="utf-8")
    with pytest.raises(ValueError) as err:
        read_solution(path)
    assert "mystery.json" in str(err.value)
