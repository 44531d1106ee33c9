"""One benchmark process: set uavbsc up, run a workload, check its outputs.

``run.py`` starts this script in a fresh interpreter.  It prints ``ready``
as soon as numpy and uavbsc are imported and the scenario is loaded and
built, so the parent can time set-up from outside.  With ``--setup-only``
it stops there.  Otherwise it repeats one pass of the workload until
``--seconds`` have passed, checks every pass's outputs, and prints one
JSON object as its last line.

Workloads (all closed loop: one caller waits for each result):

* ``campaign``: ``harness.run_campaign`` with ga, ipso, pso and random,
  budget 15000, one worker.  Populations of 50 keep ``evaluate_batch`` at
  B~50, where per-call overhead dominates; the only workload with GA
  operators.
* ``sweep``: ``uavbsc.cli.main(["sweep", ...])`` over the charging power
  with ipso and two pool workers; the only workload with the process
  pool, ``with_value`` per point, and CSV/JSON writing.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from uavbsc import cli, harness
from uavbsc.config import ScenarioConfig

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
CONFIG = ROOT / "configs" / "reference.json"
SOLVERS = harness.SOLVER_NAMES
BUDGET = 15_000
CAMPAIGN_SEEDS = 5
SWEEP_PARAM = "system.wpt_power_db"
SWEEP_VALUES = "24,27,30,33,36"
SWEEP_SEEDS = 6
SWEEP_WORKERS = 2
SETUP_REPLICAS = 5


@dataclass
class Outcome:
    """One pass of a workload: its time, checked runs and result digest."""

    wall_s: float
    ops: int
    failed: int
    evaluations: int
    runs: list = field(default_factory=list)   # run dicts, timing included
    digest: str = ""
    budget_total: int = 0
    run_walls: list = field(default_factory=list)  # (solver, wall_clock_s)

    def __post_init__(self) -> None:
        self.run_walls = [(r["solver"], r["wall_clock_s"]) for r in self.runs]


def digest(runs: list) -> str:
    """SHA-256 of the runs as ``to_dict(include_timing=False)`` gives them."""
    untimed = [{k: v for k, v in run.items() if k != "wall_clock_s"}
               for run in runs]
    return hashlib.sha256(json.dumps({"runs": untimed}, sort_keys=True)
                          .encode("utf-8")).hexdigest()


def run_rate(run: dict) -> float:
    best = run["report"]["best"]
    return float(best["objective_bps"]) if best["report"]["feasible"] else 0.0


def check_run(problem, run: dict, solver: str, seed: int) -> list:
    """Problems found in one run artifact; empty when it is correct."""
    problems = []
    rep = run["report"]
    if (run["solver"], run["seed"], run["budget"]) != (solver, seed, BUDGET):
        problems.append("artifact does not match its task")
    if rep["evaluations"] > BUDGET:
        problems.append(f"{rep['evaluations']} evaluations exceed the budget")
    trace = [rec["best_fitness"] for rec in rep["trace"]]
    if any(b > a for a, b in zip(trace, trace[1:])):
        problems.append("best_fitness trace increases")
    best = rep["best"]
    ev = problem.evaluate(np.asarray(best["genome"], dtype=np.float64))
    if ev.objective_bps != best["objective_bps"] or ev.fitness != best["fitness"] \
            or ev.report.feasible != best["report"]["feasible"]:
        problems.append("re-evaluated best genome differs from the report")
    return problems


def report_problems(label: str, problems: list) -> None:
    for text in problems:
        sys.stderr.write(f"check failed: {label}: {text}\n")


class Campaign:
    ops = len(SOLVERS) * CAMPAIGN_SEEDS

    def __init__(self, scenario, problem, rng) -> None:
        self.scenario = scenario
        self.problem = problem
        self.seeds = [int(s) for s in rng.choice(2**31, CAMPAIGN_SEEDS,
                                                 replace=False)]

    def describe(self) -> dict:
        return {"solvers": SOLVERS, "seeds": self.seeds, "budget": BUDGET}

    def run(self):
        started = perf_counter()
        artifacts = harness.run_campaign(
            self.scenario, SOLVERS, self.seeds, budget=BUDGET, workers=1)
        return perf_counter() - started, artifacts

    def check(self, wall: float, artifacts) -> Outcome:
        runs = [a.to_dict(include_timing=True) for a in artifacts]
        tasks = [(s, seed) for s in SOLVERS for seed in self.seeds]
        failed = 0
        for run, (solver, seed) in zip(runs, tasks):
            problems = check_run(self.problem, run, solver, seed)
            if run["scenario_hash"] != self.scenario.scenario_hash():
                problems.append("scenario hash differs")
            report_problems(f"{solver} seed {seed}", problems)
            failed += bool(problems)
        failed += max(0, len(tasks) - len(runs))
        return Outcome(
            wall_s=wall, ops=len(tasks), failed=failed,
            evaluations=sum(r["report"]["evaluations"] for r in runs),
            runs=runs, digest=digest(runs), budget_total=BUDGET * len(runs))


class Sweep:
    ops = len(SWEEP_VALUES.split(",")) * SWEEP_SEEDS

    def __init__(self, scenario, problem, rng) -> None:
        self.scenario = scenario
        self.seeds = [int(s) for s in rng.choice(2**31, SWEEP_SEEDS,
                                                 replace=False)]

    def describe(self) -> dict:
        return {"parameter": SWEEP_PARAM, "values": SWEEP_VALUES,
                "solver": "ipso", "seeds": self.seeds, "budget": BUDGET,
                "workers": SWEEP_WORKERS}

    def run(self):
        OUT_DIR.mkdir(exist_ok=True)
        out = Path(tempfile.mkdtemp(prefix="sweep-", dir=OUT_DIR))
        argv = ["sweep", "--config", str(CONFIG),
                "--param", SWEEP_PARAM, "--values", SWEEP_VALUES,
                "--solver", "ipso", "--seeds", ",".join(map(str, self.seeds)),
                "--budget", str(BUDGET), "--workers", str(SWEEP_WORKERS),
                "--out", str(out)]
        try:
            started = perf_counter()
            with redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            return perf_counter() - started, (code, out)
        except BaseException:
            shutil.rmtree(out, ignore_errors=True)
            raise

    def check(self, wall: float, payload) -> Outcome:
        code, out = payload
        try:
            if code != 0:
                report_problems("sweep", [f"cli exited with code {code}"])
                return Outcome(wall_s=wall, ops=self.ops, failed=self.ops,
                               evaluations=0)
            return self._check(out, wall)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _check(self, out: Path, wall: float) -> Outcome:
        dump = json.loads((out / "sweep.json").read_text(encoding="utf-8"))
        with (out / "sweep_rows.csv").open(encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        checked, bad = [], []
        for point in dump["points"]:
            if point["error"] is not None:
                report_problems(f"value {point['value']}", [point["error"]])
                continue
            problem = self.scenario.with_value(
                SWEEP_PARAM, point["value"]).build_problem()
            for run, seed in zip(point["runs"], self.seeds):
                problems = check_run(problem, run, "ipso", seed)
                report_problems(f"value {point['value']} seed {seed}", problems)
                checked.append((point["value"], run))
                bad.append(bool(problems))
        if len(rows) != len(checked):
            report_problems("sweep_rows.csv",
                          [f"{len(rows)} rows for {len(checked)} runs"])
        for i, (value, run) in enumerate(checked):
            if i >= len(rows) or not _row_matches(rows[i], value, run):
                report_problems(f"sweep_rows.csv row {i}",
                              ["does not agree with sweep.json"])
                bad[i] = True
        runs = [run for _, run in checked]
        # Runs missing from the output (a failed value) count as failed.
        return Outcome(
            wall_s=wall, ops=self.ops,
            failed=sum(bad) + self.ops - len(runs),
            evaluations=sum(r["report"]["evaluations"] for r in runs),
            runs=runs, digest=digest(runs), budget_total=BUDGET * len(runs))


def _row_matches(row: dict, value, run: dict) -> bool:
    rep = run["report"]
    return (
        row["parameter"] == SWEEP_PARAM
        and row["value"] == str(value)
        and int(row["seed"]) == run["seed"]
        and row["solver"] == run["solver"]
        and row["feasible"] == str(rep["best"]["report"]["feasible"])
        and float(row["rate_bps"]) == rep["best"]["objective_bps"]
        and float(row["fitness"]) == rep["best"]["fitness"]
        and int(row["evaluations"]) == rep["evaluations"]
        and int(row["last_improvement_generation"])
        == rep["last_improvement_generation"]
        and float(row["wall_clock_s"]) == run["wall_clock_s"]
        and row["error"] == ""
    )


WORKLOADS = {"campaign": Campaign, "sweep": Sweep}


def measure(workload, seconds: float, tracer=None) -> list:
    """Repeat the workload's pass while another one fits in ``seconds``.

    There is always at least one pass.  Only the pass itself is timed and
    traced; its output check is not.
    """
    outcomes, spent = [], []
    started = perf_counter()
    while not outcomes or (perf_counter() - started
                           + statistics.median(spent) <= seconds):
        pass_started = perf_counter()
        try:
            wall, payload = workload.run()
            if tracer is not None:
                tracer.active = False
            outcome = workload.check(wall, payload)
        except Exception:  # a failing pass is counted, not fatal
            traceback.print_exc()
            outcome = Outcome(wall_s=math.nan, ops=workload.ops,
                              failed=workload.ops, evaluations=0)
        finally:
            if tracer is not None:
                tracer.active = True
        if outcomes and outcome.digest != outcomes[0].digest:
            report_problems("determinism", ["result digest changed between passes"])
            outcome.failed = outcome.ops
        if outcomes:
            # Equal digests mean equal results: keep one pass's run dicts,
            # so that memory does not grow with the number of passes.
            outcome.runs = []
        outcomes.append(outcome)
        spent.append(perf_counter() - pass_started)
    return outcomes


def median_rate_mbps(runs: list, solver=None) -> float:
    rates = [run_rate(r) for r in runs if solver is None or r["solver"] == solver]
    return statistics.median(rates) / 1e6 if rates else 0.0


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def end_to_end(outcomes: list) -> dict:
    timed = [o for o in outcomes if math.isfinite(o.wall_s)]
    runs = outcomes[0].runs
    attempted = sum(o.ops for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    return {
        "wall_s": statistics.median(o.wall_s for o in timed),
        "evals_per_s": statistics.median(o.evaluations / o.wall_s for o in timed),
        "peak_rss_mb": peak_rss_mb(),
        "rate_mbps": median_rate_mbps(runs),
        "feasible_frac": sum(bool(r["report"]["best"]["report"]["feasible"])
                             for r in runs) / max(1, len(runs)),
        "ok_frac": (attempted - failed) / attempted,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    scenario = ScenarioConfig.load(CONFIG)
    problem = scenario.build_problem()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    workload = WORKLOADS[args.workload](
        scenario, problem, np.random.default_rng(args.seed))
    result = {"workload": args.workload, "inputs": workload.describe(),
              "numpy": np.__version__}
    if not args.trace:
        outcomes = measure(workload, args.seconds)
        result["metrics"] = end_to_end(outcomes)
    else:
        import tracing
        untraced = measure(workload, args.seconds / 2)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            for _ in range(SETUP_REPLICAS):
                ScenarioConfig.load(CONFIG).build_problem()
            traced = measure(workload, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        outcomes = untraced + traced
        result["metrics"] = tracing.layer_metrics(
            tracer, traced, untraced,
            workers=SWEEP_WORKERS if args.workload == "sweep" else 1)
        result["metrics"].update(
            {f"harness.rate_mbps.{s}": median_rate_mbps(traced[0].runs, s)
             for s in SOLVERS})
        OUT_DIR.mkdir(exist_ok=True)
        spans = OUT_DIR / f"spans-{args.workload}.csv.gz"
        tracer.write(spans)
        result["spans_file"] = str(spans.relative_to(ROOT))
        result["spans"] = len(tracer.start)
    first = outcomes[0]
    result.update({
        "attempted": sum(o.ops for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "passes": len(outcomes),
        "pass_wall_s": [o.wall_s for o in outcomes],
        "digest": first.digest,
        "evaluations_per_pass": first.evaluations,
        "rates_mbps": {s: median_rate_mbps(first.runs, s) for s in SOLVERS
                       if any(r["solver"] == s for r in first.runs)},
    })
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
