"""Command-line benchmark harness.

Subcommands
-----------
run       one solver on one scenario (artifact JSON via --out)
sweep     a parameter sweep: CSV rows + median summary + artifact JSON
export    solution.json + trajectory.csv for a finished run

Errors are reported as a one-line JSON object on stderr; exit codes are
2 for usage errors, 3 for scenario/config errors, 4 for execution
failures.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import ConfigError, ScenarioConfig
from .harness import (
    SOLVERS,
    SweepSpec,
    _as_solver_list,
    campaign_to_dict,
    export_solution,
    read_solution,
    run_single,
    run_sweep,
    sweep_rows,
    sweep_summary,
    write_csv,
    write_json,
)

__all__ = ["main"]

EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_EXECUTION = 4


class _CliError(Exception):
    def __init__(self, code: int, category: str, message: str) -> None:
        super().__init__(message)
        self.code = code
        self.category = category


class _Parser(argparse.ArgumentParser):
    """Argparse that reports usage problems as JSON instead of exiting."""

    def error(self, message):  # noqa: D102 - argparse hook
        raise _CliError(EXIT_USAGE, "usage", message)


def _emit_error(category: str, message: str) -> None:
    sys.stderr.write(
        json.dumps({"error": {"category": category, "message": message}})
        + "\n")


def _int_at_least(low: int, kind: str):
    """An argparse type: integers of at least ``low``, a ``kind`` integer."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(
                f"expected a {kind} integer (got {text!r})")
        return value
    return parse


_seed = _int_at_least(0, "non-negative")  # --seed
_positive = _int_at_least(1, "positive")  # --budget, --workers


def _seeds(text: str) -> list:
    """argparse type of ``--seeds``: comma-separated non-negative integers."""
    seeds = [_seed(part) for part in text.split(",") if part.strip() != ""]
    if not seeds:
        raise argparse.ArgumentTypeError("must list at least one seed")
    return seeds


def _solvers(text: str, split: bool = True) -> list:
    """argparse type of ``--solver``: comma-separated names, or one if not ``split``."""
    try:
        return _as_solver_list([name.strip() for name in text.split(",")
                                if name.strip()] if split else text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_value_list(text: str) -> list:
    values = []
    for part in text.split(","):
        part = part.strip()
        if part == "":
            continue
        try:
            values.append(json.loads(part))
        except json.JSONDecodeError:
            values.append(part)
    if not values:
        raise _CliError(EXIT_USAGE, "usage", "--values must list at least one value")
    return values


def build_parser() -> _Parser:
    parser = _Parser(prog="uavbsc", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command")
    sub.required = True

    def add_common(p):
        p.add_argument("--config", required=True, help="scenario JSON file")

    p_run = sub.add_parser("run", help="run one solver on one scenario")
    add_common(p_run)
    choices = f"(choices: {', '.join(SOLVERS)})"
    p_run.add_argument("--solver", type=lambda text: _solvers(text, split=False)[0],
                       default="ipso", help=f"solver name {choices}")
    p_run.add_argument("--seed", type=_seed, default=0)
    p_run.add_argument("--budget", type=_positive, default=None,
                       help="cap on objective evaluations")
    p_run.add_argument("--out", default=None, help="artifact JSON path")
    p_run.add_argument("--no-timing", action="store_true",
                       help="omit wall-clock fields from the artifact")

    p_sweep = sub.add_parser("sweep", help="sweep one scenario parameter")
    add_common(p_sweep)
    p_sweep.add_argument("--param", required=True,
                         help="dotted path into the scenario, e.g. system.wpt_power_db")
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated values, e.g. 24,27,30,33,36")
    p_sweep.add_argument("--solver", type=_solvers, default="ipso",
                         help=f"solver name or comma-separated list {choices}")
    p_sweep.add_argument("--seeds", type=_seeds, default="0,1,2",
                         help="comma-separated seeds (default 0,1,2)")
    p_sweep.add_argument("--budget", type=_positive, default=None)
    p_sweep.add_argument("--workers", type=_positive, default=1)
    p_sweep.add_argument("--out", required=True, help="output directory")
    p_sweep.add_argument("--no-timing", action="store_true")

    p_export = sub.add_parser(
        "export", help="write solution.json and trajectory.csv for a run")
    add_common(p_export)
    p_export.add_argument("--solution", required=True, dest="solution",
                          help="run artifact or solution JSON")
    p_export.add_argument("--out", required=True, help="output directory")

    return parser


def _cmd_run(args) -> int:
    scenario = ScenarioConfig.load(args.config)
    artifact = run_single(scenario, args.solver, args.seed, budget=args.budget)
    if args.out:
        write_json(args.out, artifact.to_dict(include_timing=not args.no_timing))
    rep = artifact.report
    print(
        f"run scenario={scenario.name} solver={artifact.solver} "
        f"seed={artifact.seed} feasible={rep.feasible} "
        f"rate_bps={rep.best_objective_bps:.6g} "
        f"evaluations={rep.evaluations} wall_s={artifact.wall_clock_s:.3f}")
    return 0


def _cmd_sweep(args) -> int:
    scenario = ScenarioConfig.load(args.config)
    spec = SweepSpec(
        parameter=args.param,
        values=_parse_value_list(args.values),
        solvers=args.solver,
        seeds=args.seeds,
        budget=args.budget,
    )
    points = run_sweep(scenario, spec, workers=args.workers)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    include_timing = not args.no_timing
    write_csv(out_dir / "sweep_rows.csv",
              sweep_rows(points, include_timing=include_timing))
    summary = sweep_summary(points)
    write_csv(out_dir / "sweep_summary.csv", summary)
    dump = {
        "scenario": scenario.name,
        "scenario_hash": scenario.scenario_hash(),
        "parameter": spec.parameter,
        "solvers": list(spec.solvers),
        "seeds": [int(s) for s in spec.seeds],
        "budget": spec.budget,
        "points": [
            {
                "value": point.value,
                "error": point.error,
                **campaign_to_dict(point.artifacts,
                                   include_timing=include_timing),
            }
            for point in points
        ],
    }
    write_json(out_dir / "sweep.json", dump)

    for row in summary:
        if row["error"]:
            print(f"sweep {spec.parameter}={row['value']} error={row['error']}")
        else:
            print(
                f"sweep {spec.parameter}={row['value']} solver={row['solver']} "
                f"median_rate_bps={row['median_rate_bps']:.6g} "
                f"feasible={row['feasible_runs']}/{row['runs']}")
    return 0


def _cmd_export(args) -> int:
    scenario = ScenarioConfig.load(args.config)
    problem = scenario.build_problem()
    loaded = read_solution(args.solution)
    data = loaded["data"]
    # Run artifacts carry the hash, solver and seed at the top level,
    # exported solutions in their meta block.
    meta_block = data.get("meta") if isinstance(data.get("meta"), dict) else {}
    source = {**meta_block, **data}
    source_hash = source.get("scenario_hash")
    if source_hash is not None and source_hash != scenario.scenario_hash():
        raise ConfigError(
            f"{args.solution} was produced for scenario hash {source_hash}, "
            f"not for {args.config} ({scenario.scenario_hash()})")
    meta = {
        "source_file": str(args.solution),
        "scenario_name": scenario.name,
        "scenario_hash": scenario.scenario_hash(),
    }
    for key in ("solver", "seed"):
        if key in source:
            meta[key] = source[key]
    solution_path, csv_path = export_solution(
        problem, loaded["genome"], args.out, meta=meta)
    print(f"export wrote {solution_path} and {csv_path}")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "export": _cmd_export,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _CliError as exc:
        _emit_error(exc.category, str(exc))
        return exc.code
    except ConfigError as exc:
        _emit_error("config", str(exc))
        return EXIT_CONFIG
    except (ValueError, OSError, MemoryError) as exc:
        _emit_error("execution", str(exc))
        return EXIT_EXECUTION


if __name__ == "__main__":
    sys.exit(main())
