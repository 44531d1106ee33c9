"""Command-line interface: subcommands, artifacts, and error reporting."""

import json
import os
import shutil
import subprocess
import sys

import pytest

from helpers import REFERENCE_CONFIG, TINY_CONFIG
from uavbsc import harness
from uavbsc.cli import main
from uavbsc.config import ScenarioConfig
from uavbsc.harness import read_solution

TINY = str(TINY_CONFIG)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def error_payload(err_text):
    payload = json.loads(err_text.strip())
    assert set(payload) == {"error"}
    assert set(payload["error"]) == {"category", "message"}
    return payload["error"]


# ----------------------------------------------------------------------
# Usage errors
# ----------------------------------------------------------------------

def test_no_command_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys)
    assert code == 2
    assert error_payload(err)["category"] == "usage"


@pytest.mark.parametrize("command", [
    ["oracle", "--resolution", "3"],
    ["baseline", "--budget", "64"],
], ids=["oracle", "baseline"])
def test_removed_subcommand_is_a_usage_error(capsys, tmp_path, command):
    out_file = tmp_path / "out.json"
    code, out, err = run_cli(capsys, *command, "--config", TINY,
                             "--out", str(out_file))
    assert code == 2
    assert len(err.splitlines()) == 1
    assert error_payload(err)["category"] == "usage"
    assert out == "" and not out_file.exists()


def test_unknown_solver_choice_is_a_usage_error(capsys):
    code, _, err = run_cli(capsys, "run", "--config", TINY,
                           "--solver", "simplex")
    assert code == 2
    assert len(err.splitlines()) == 1
    payload = error_payload(err)
    assert payload["category"] == "usage"
    # The message of sweep's list (see the next test).
    assert payload["message"] == (
        "argument --solver: unknown solver 'simplex'; "
        "expected one of ('ga', 'ipso', 'pso', 'random')")


def test_unknown_solver_in_a_sweep_list_is_a_usage_error_naming_the_flag(
        capsys, tmp_path):
    code, out, err = run_cli(
        capsys, "sweep", "--config", TINY, "--param", "system.wpt_power_db",
        "--values", "30", "--solver", "ga,simplex", "--out", str(tmp_path / "out"))
    assert code == 2
    assert len(err.splitlines()) == 1
    payload = error_payload(err)
    assert payload["category"] == "usage"
    assert payload["message"].startswith("argument --solver: unknown solver 'simplex'")
    assert out == "" and not (tmp_path / "out").exists()


def test_bad_seed_list_is_a_usage_error(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "sweep", "--config", TINY, "--param", "system.wpt_power_db",
        "--values", "30", "--seeds", "a,b", "--out", str(tmp_path))
    assert code == 2
    assert "--seeds" in error_payload(err)["message"]


@pytest.mark.parametrize("command, flag", [
    (["run", "--seed", "-1"], "--seed"),
    (["sweep", "--param", "system.wpt_power_db", "--values", "30",
      "--seeds=-1"], "--seeds"),
    (["sweep", "--param", "system.wpt_power_db", "--values", "30",
      "--seeds", "0,-1"], "--seeds"),
], ids=["run", "sweep", "sweep-list"])
def test_negative_seed_is_a_usage_error_naming_the_flag(
        capsys, tmp_path, command, flag):
    code, out, err = run_cli(capsys, *command, "--config", TINY,
                             "--out", str(tmp_path / "out"))
    assert code == 2
    payload = error_payload(err)
    assert payload["category"] == "usage"
    assert payload["message"].startswith(f"argument {flag}: ")
    assert "'-1'" in payload["message"]
    assert out == "" and not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", [
    ["run", "--solver", "random"],
    ["sweep", "--param", "system.wpt_power_db", "--values", "30,33",
     "--solver", "random,ga", "--seeds", "0"],
], ids=["run", "sweep"])
@pytest.mark.parametrize("budget", ["0", "-1", "ten"])
def test_budget_below_one_is_a_usage_error_naming_the_flag(
        capsys, tmp_path, command, budget):
    code, out, err = run_cli(capsys, *command, "--config", TINY,
                             f"--budget={budget}",
                             "--out", str(tmp_path / "out"))
    assert code == 2
    payload = error_payload(err)
    assert payload["category"] == "usage"
    assert payload["message"].startswith("argument --budget: ")
    assert f"'{budget}'" in payload["message"]
    assert out == "" and not (tmp_path / "out").exists()


def test_zero_workers_is_a_usage_error(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "sweep", "--config", TINY, "--param", "system.wpt_power_db",
        "--values", "30", "--workers", "0", "--out", str(tmp_path))
    assert code == 2
    assert "--workers" in error_payload(err)["message"]


def test_empty_value_list_is_a_usage_error(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "sweep", "--config", TINY, "--param", "system.wpt_power_db",
        "--values", ",", "--out", str(tmp_path))
    assert code == 2
    assert "--values" in error_payload(err)["message"]


def test_empty_solver_list_is_a_usage_error(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "sweep", "--config", TINY, "--param", "system.wpt_power_db",
        "--values", "30", "--solver", ",", "--out", str(tmp_path))
    assert code == 2
    assert error_payload(err)["category"] == "usage"
    assert "--solver" in error_payload(err)["message"]


# ----------------------------------------------------------------------
# Config and execution errors
# ----------------------------------------------------------------------

def test_missing_scenario_file_is_a_config_error(capsys, tmp_path):
    code, _, err = run_cli(capsys, "run", "--config",
                           str(tmp_path / "gone.json"), "--solver", "random")
    assert code == 3
    payload = error_payload(err)
    assert payload["category"] == "config"
    assert "gone.json" in payload["message"]


def test_invalid_scenario_content_is_a_config_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema_version": 1}', encoding="utf-8")
    code, _, err = run_cli(capsys, "run", "--config", str(bad),
                           "--solver", "random")
    assert code == 3
    assert "missing section" in error_payload(err)["message"]


def test_huge_db_value_is_a_config_error(capsys, tmp_path):
    doc = json.loads(TINY_CONFIG.read_text(encoding="utf-8"))
    doc["system"]["wpt_power_db"] = 1e30
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run_cli(capsys, "run", "--config", str(huge),
                           "--solver", "random", "--budget", "64")
    assert code == 3
    payload = error_payload(err)
    assert payload["category"] == "config"
    assert "system.wpt_power_db" in payload["message"]


def test_solver_override_too_large_for_a_float_is_a_config_error(capsys,
                                                                  tmp_path):
    doc = json.loads(TINY_CONFIG.read_text(encoding="utf-8"))
    doc["solvers"]["ipso"]["cognitive_coeff"] = 10**400
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run_cli(capsys, "run", "--config", str(huge),
                           "--solver", "ipso", "--budget", "200")
    assert code == 3
    payload = error_payload(err)
    assert payload["category"] == "config"
    assert "solvers.ipso.cognitive_coeff is out of range" in payload["message"]


def test_mutation_spread_with_an_infinite_std_is_a_config_error(capsys,
                                                               tmp_path):
    doc = json.loads(TINY_CONFIG.read_text(encoding="utf-8"))
    doc["solvers"]["ga"] = {"mutation_spread": 5e-324, "generations": 20}
    tiny_spread = tmp_path / "spread.json"
    tiny_spread.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(capsys, "run", "--config", str(tiny_spread),
                             "--solver", "ga")
    assert code == 3 and out == ""
    assert len(err.splitlines()) == 1
    payload = error_payload(err)
    assert payload["category"] == "config"
    assert "solvers.ga.mutation_spread" in payload["message"]


@pytest.mark.parametrize("solver", ["ipso", "pso"])
def test_deleted_inertia_const_is_an_unknown_key(capsys, tmp_path, solver):
    doc = json.loads(TINY_CONFIG.read_text(encoding="utf-8"))
    doc["solvers"][solver] = {"inertia_const": 0.9}
    stale = tmp_path / "stale.json"
    stale.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(capsys, "run", "--config", str(stale),
                             "--solver", solver)
    assert code == 3 and out == ""
    payload = error_payload(err)
    assert payload["category"] == "config"
    assert f"unknown key solvers.{solver}.inertia_const" in payload["message"]


def test_rotor_constants_block_is_an_unknown_key(capsys, tmp_path):
    doc = json.loads(TINY_CONFIG.read_text(encoding="utf-8"))
    doc["propulsion"] = {"rotor": {"rotor_radius_m": 0.4}}
    stale = tmp_path / "rotor.json"
    stale.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(capsys, "run", "--config", str(stale),
                             "--solver", "random", "--budget", "64")
    assert code == 3 and out == ""
    payload = error_payload(err)
    assert payload["category"] == "config"
    assert "unknown key propulsion.rotor" in payload["message"]


def test_scenario_with_an_overlong_integer_is_a_config_error(capsys, tmp_path):
    # json.loads rejects an integer of more digits than Python parses with
    # a plain ValueError; the file is invalid JSON like any other.
    doc = json.loads(TINY_CONFIG.read_text(encoding="utf-8"))
    doc["system"]["slot_count"] = "DIGITS"
    big = tmp_path / "big.json"
    big.write_text(json.dumps(doc).replace('"DIGITS"', "9" * 5001), encoding="utf-8")
    code, _, err = run_cli(capsys, "run", "--config", str(big),
                           "--solver", "random", "--budget", "64")
    assert code == 3
    payload = error_payload(err)
    assert payload["category"] == "config"
    assert payload["message"].startswith(
        f"scenario file {big} is not valid JSON: Exceeds the limit (4300 digits)")


def test_slot_count_too_large_to_allocate_is_a_config_error(capsys, tmp_path):
    doc = json.loads(TINY_CONFIG.read_text(encoding="utf-8"))
    doc["system"]["slot_count"] = 10**15
    huge = tmp_path / "huge.json"
    for fixed_altitude in (True, False):
        doc["modes"]["fixed_altitude"] = fixed_altitude
        huge.write_text(json.dumps(doc), encoding="utf-8")
        code, _, err = run_cli(capsys, "run", "--config", str(huge),
                               "--solver", "random", "--budget", "64")
        assert code == 3
        payload = error_payload(err)
        assert payload["category"] == "config"
        assert "system.slot_count is too large" in payload["message"]


@pytest.mark.parametrize("param, message", [
    ("system.nope", "unknown sweep parameter 'system.nope'"),
    ("nope", "sweep parameter 'nope' matches 0 sections"),
], ids=["dotted", "bare"])
def test_unknown_sweep_parameter_is_a_config_error(capsys, tmp_path, param,
                                                   message):
    code, out, err = run_cli(
        capsys, "sweep", "--config", TINY, "--param", param, "--values", "1,2",
        "--solver", "random", "--seeds", "0", "--budget", "8",
        "--out", str(tmp_path / "out"))
    assert code == 3 and out == ""
    assert len(err.splitlines()) == 1
    payload = error_payload(err)
    assert payload["category"] == "config"
    assert message in payload["message"]
    assert not (tmp_path / "out").exists()


def test_impossible_budget_is_an_execution_error(capsys):
    # A budget below one population (40 in the tiny scenario); a budget
    # below 1 is a usage error instead.
    code, _, err = run_cli(capsys, "run", "--config", TINY,
                           "--solver", "ga", "--budget", "1")
    assert code == 4
    assert error_payload(err)["category"] == "execution"


def test_an_overflowing_mutation_is_an_execution_error(capsys, tmp_path):
    # 1 / spread = 1e308 is finite, so the scenario loads; but an offset
    # of std 1e308 overflows for any normal draw above about 1.8, and
    # adjust, the GA's only clamp, rejects it.
    doc = json.loads(TINY_CONFIG.read_text(encoding="utf-8"))
    doc["solvers"]["ga"] = {"mutation_spread": 1e-308, "mutation_rate": 1.0,
                            "generations": 20}
    overflow = tmp_path / "overflow.json"
    overflow.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(capsys, "run", "--config", str(overflow),
                             "--solver", "ga")
    assert code == 4 and out == ""
    assert len(err.splitlines()) == 1
    assert error_payload(err) == {"category": "execution",
                                  "message": "genome genes must be finite"}


def _end_abruptly(runs, budget):
    os._exit(3)  # a worker killed by the OS, or one that crashed


def test_a_worker_that_ends_abruptly_is_an_execution_error(capsys, tmp_path,
                                                           monkeypatch):
    # Forked workers inherit the patch, so each pool task ends its process.
    monkeypatch.setattr(harness, "_run_slice", _end_abruptly)
    code, out, err = run_cli(
        capsys, "sweep", "--config", TINY, "--param", "system.wpt_power_db",
        "--values", "30,33", "--solver", "ga", "--seeds", "0",
        "--budget", "200", "--workers", "2", "--out", str(tmp_path / "out"))
    assert code == 4 and out == ""
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    payload = error_payload(err)
    assert payload["category"] == "execution"
    assert payload["message"].startswith("a worker process ended abruptly")


# ----------------------------------------------------------------------
# run / random baseline happy paths
# ----------------------------------------------------------------------

def test_run_writes_artifact_without_timing(capsys, tmp_path):
    out = tmp_path / "artifact.json"
    code, stdout, _ = run_cli(
        capsys, "run", "--config", TINY, "--solver", "random",
        "--seed", "0", "--budget", "64", "--out", str(out), "--no-timing")
    assert code == 0
    assert stdout.startswith("run scenario=tiny solver=random seed=0")
    artifact = json.loads(out.read_text(encoding="utf-8"))
    assert artifact["solver"] == "random"
    assert artifact["budget"] == 64
    assert "wall_clock_s" not in artifact
    assert artifact["report"]["best"]["genome"]


def test_run_artifact_includes_timing_by_default(capsys, tmp_path):
    out = tmp_path / "artifact.json"
    code, _, _ = run_cli(capsys, "run", "--config", TINY, "--solver",
                         "random", "--budget", "64", "--out", str(out))
    assert code == 0
    assert "wall_clock_s" in json.loads(out.read_text(encoding="utf-8"))


def test_baseline_runs_random_search(capsys, tmp_path):
    out = tmp_path / "base.json"
    code, stdout, _ = run_cli(
        capsys, "run", "--config", TINY, "--solver", "random", "--seed", "1",
        "--budget", "128", "--out", str(out), "--no-timing")
    assert code == 0
    assert stdout.startswith("run scenario=tiny solver=random seed=1")
    artifact = json.loads(out.read_text(encoding="utf-8"))
    assert artifact["solver"] == "random"
    assert artifact["report"]["evaluations"] == 128


def test_random_search_defaults_to_ten_thousand_evaluations(capsys, tmp_path):
    # With no --budget the run takes 10,000 evaluations, and the artifact
    # records that budget where its report does.
    out = tmp_path / "random.json"
    code, _, _ = run_cli(capsys, "run", "--config", TINY, "--solver", "random",
                         "--out", str(out), "--no-timing")
    assert code == 0
    artifact = json.loads(out.read_text(encoding="utf-8"))
    assert artifact["report"]["evaluations"] == 10_000
    assert artifact["budget"] == artifact["report"]["budget"] == 10_000


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------

def sweep_args(out_dir, workers):
    return [
        "sweep", "--config", TINY, "--param", "system.wpt_power_db",
        "--values", "30,33", "--solver", "ipso,random", "--seeds", "0,1",
        "--budget", "200", "--workers", str(workers),
        "--out", str(out_dir), "--no-timing",
    ]


def test_sweep_writes_rows_summary_and_dump(capsys, tmp_path):
    out = tmp_path / "sweep"
    code, stdout, _ = run_cli(capsys, *sweep_args(out, workers=1))
    assert code == 0
    rows = (out / "sweep_rows.csv").read_text(encoding="utf-8")
    lines = rows.strip().splitlines()
    assert len(lines) == 1 + 2 * 2 * 2  # header + values*solvers*seeds
    assert "wall_clock_s" not in lines[0]
    summary = (out / "sweep_summary.csv").read_text(encoding="utf-8")
    assert len(summary.strip().splitlines()) == 1 + 2 * 2
    dump = json.loads((out / "sweep.json").read_text(encoding="utf-8"))
    assert dump["parameter"] == "system.wpt_power_db"
    assert dump["solvers"] == ["ipso", "random"]
    assert len(dump["points"]) == 2
    assert all(p["error"] is None for p in dump["points"])
    assert stdout.count("sweep system.wpt_power_db=") == 4


def test_sweep_outputs_are_worker_count_invariant(capsys, tmp_path):
    serial = tmp_path / "serial"
    parallel = tmp_path / "parallel"
    assert run_cli(capsys, *sweep_args(serial, workers=1))[0] == 0
    assert run_cli(capsys, *sweep_args(parallel, workers=2))[0] == 0
    for name in ("sweep_rows.csv", "sweep_summary.csv", "sweep.json"):
        assert (serial / name).read_bytes() == (parallel / name).read_bytes()


def test_sweep_survives_a_bad_parameter_value(capsys, tmp_path):
    out = tmp_path / "sweep"
    code, stdout, _ = run_cli(
        capsys, "sweep", "--config", TINY, "--param", "system.slot_count",
        "--values", "2,0", "--solver", "random", "--seeds", "0",
        "--budget", "64", "--out", str(out), "--no-timing")
    assert code == 0
    assert "error=" in stdout
    dump = json.loads((out / "sweep.json").read_text(encoding="utf-8"))
    assert dump["points"][0]["error"] is None
    assert "slot_count" in dump["points"][1]["error"]


def test_sweep_survives_a_huge_db_value(capsys, tmp_path):
    out = tmp_path / "sweep"
    code, stdout, _ = run_cli(
        capsys, "sweep", "--config", TINY, "--param", "system.wpt_power_db",
        "--values", "30,1e30", "--solver", "random", "--seeds", "0,1",
        "--budget", "64", "--out", str(out), "--no-timing")
    assert code == 0
    assert "wpt_power_db=1e+30 error=" in stdout
    dump = json.loads((out / "sweep.json").read_text(encoding="utf-8"))
    kept, failed = dump["points"]
    assert kept["error"] is None and len(kept["runs"]) == 2
    assert "system.wpt_power_db" in failed["error"] and failed["runs"] == []
    rows = (out / "sweep_rows.csv").read_text(encoding="utf-8").splitlines()
    assert len(rows) == 1 + 2 + 1
    assert "system.wpt_power_db" in rows[-1]


def test_sweep_rejects_unknown_solver_name(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "sweep", "--config", TINY, "--param", "system.wpt_power_db",
        "--values", "30", "--solver", "ipso,magic", "--out", str(tmp_path))
    assert code == 2
    assert "magic" in error_payload(err)["message"]


# ----------------------------------------------------------------------
# export
# ----------------------------------------------------------------------

def test_export_from_run_artifact(capsys, tmp_path):
    art = tmp_path / "artifact.json"
    assert run_cli(capsys, "run", "--config", TINY, "--solver", "random",
                   "--seed", "0", "--budget", "64", "--out", str(art))[0] == 0
    out = tmp_path / "export"
    code, stdout, _ = run_cli(capsys, "export", "--config", TINY,
                              "--solution", str(art), "--out", str(out))
    assert code == 0
    assert "solution.json" in stdout and "trajectory.csv" in stdout
    solution = json.loads((out / "solution.json").read_text(encoding="utf-8"))
    assert solution["meta"]["scenario_name"] == "tiny"
    assert solution["meta"]["solver"] == "random"
    assert solution["meta"]["source_file"] == str(art)
    csv_text = (out / "trajectory.csv").read_text(encoding="utf-8")
    assert len(csv_text.strip().splitlines()) == 1 + 2 + 1

    # Artifacts written before the key was dropped still carry
    # ``convergence_speed_bps``; they read and export alike.
    data = json.loads(art.read_text(encoding="utf-8"))
    assert "convergence_speed_bps" not in data
    old = tmp_path / "old_artifact.json"
    old.write_text(json.dumps({**data, "convergence_speed_bps": 1.5e6}),
                   encoding="utf-8")
    assert (read_solution(old)["genome"] == read_solution(art)["genome"]).all()
    old_out = tmp_path / "old_export"
    assert run_cli(capsys, "export", "--config", TINY, "--solution", str(old),
                   "--out", str(old_out))[0] == 0
    old_solution = json.loads(
        (old_out / "solution.json").read_text(encoding="utf-8"))
    assert old_solution["meta"].pop("source_file") == str(old)
    solution["meta"].pop("source_file")
    assert old_solution == solution
    assert (old_out / "trajectory.csv").read_text(encoding="utf-8") == csv_text


def test_export_rejects_missing_and_malformed_solutions(capsys, tmp_path):
    code, _, err = run_cli(capsys, "export", "--config", TINY,
                           "--solution", str(tmp_path / "none.json"),
                           "--out", str(tmp_path / "o"))
    assert code == 4
    assert error_payload(err)["category"] == "execution"

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"x": 1}), encoding="utf-8")
    code, _, err = run_cli(capsys, "export", "--config", TINY,
                           "--solution", str(bad),
                           "--out", str(tmp_path / "o2"))
    assert code == 4
    assert "no genome" in error_payload(err)["message"]

    # Any JSON value: a bare string, a run artifact whose best is a list,
    # or a genome that is not a flat list of numbers.  Text and booleans
    # are no genes, even in a genome of the right length, and an integer
    # no float can hold is an input error.
    genes = ScenarioConfig.load(TINY).build_problem().heuristic_mean().tolist()
    not_flat = "genome is not a flat list of numbers"
    cases = [(json.dumps(doc), message) for doc, message in (
        ("genome", "does not hold a JSON object"),
        ({"report": {"best": [0.5]}}, "report.best is not an object"),
        ({"genome": {"a": 1}}, not_flat),
        ({"genome": ["x", 0.5]}, not_flat),
        ({"genome": [[0.5], [0.5, 0.5]]}, not_flat),
        ({"genome": [[0.5, 0.5]]}, not_flat),
        ({"genome": 0.5}, not_flat),
        ({"report": {"best": {"genome": None}}}, not_flat),
        ({"genome": [str(g) for g in genes]}, not_flat),
        ({"genome": [True] * len(genes)}, not_flat),
        ({"genome": [10**400, *genes[1:]]}, "too large for a float"))]
    # Text that is not JSON, and an integer of more digits than Python
    # parses, are input errors too.
    cases += [('{"genome": [0.5,',
               "is not valid JSON: Expecting value (line 1, column 17)"),
              ('{"genome": [%s]}' % ("9" * 5001),
               "is not valid JSON: Exceeds the limit (4300 digits)")]
    for text, message in cases:
        bad.write_text(text, encoding="utf-8")
        code, _, err = run_cli(capsys, "export", "--config", TINY,
                               "--solution", str(bad),
                               "--out", str(tmp_path / "o3"))
        assert code == 4
        payload = error_payload(err)
        assert payload["category"] == "execution"
        assert message in payload["message"] and str(bad) in payload["message"]


def test_export_rejects_an_artifact_from_another_scenario(capsys, tmp_path):
    art = tmp_path / "artifact.json"
    assert run_cli(capsys, "run", "--config", TINY, "--solver", "random",
                   "--seed", "0", "--budget", "64", "--out", str(art))[0] == 0
    code, _, err = run_cli(capsys, "export", "--config", str(REFERENCE_CONFIG),
                           "--solution", str(art), "--out", str(tmp_path / "a"))
    assert code == 3
    payload = error_payload(err)
    assert payload["category"] == "config"
    assert "scenario hash" in payload["message"]
    assert not (tmp_path / "a").exists()

    # An exported solution keeps its scenario hash in its meta block.
    assert run_cli(capsys, "export", "--config", TINY, "--solution", str(art),
                   "--out", str(tmp_path / "b"))[0] == 0
    code, _, err = run_cli(capsys, "export", "--config", str(REFERENCE_CONFIG),
                           "--solution", str(tmp_path / "b" / "solution.json"),
                           "--out", str(tmp_path / "c"))
    assert code == 3
    assert "scenario hash" in error_payload(err)["message"]


@pytest.mark.parametrize("key", ["demanded_rate_bps", "noise_estimation_dbm",
                                 "tag_tx_power_dbm", "wpt_power_db"])
def test_non_finite_scenario_value_is_a_config_error(capsys, tmp_path, key):
    doc = json.loads(TINY_CONFIG.read_text(encoding="utf-8"))
    doc["system"][key] = float("nan")
    bad = tmp_path / "nan.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")   # writes a bare NaN
    code, _, err = run_cli(capsys, "run", "--config", str(bad),
                           "--solver", "random", "--budget", "32")
    assert code == 3
    payload = error_payload(err)
    assert payload["category"] == "config"
    assert f"system.{key} must be finite" in payload["message"]


# ----------------------------------------------------------------------
# Installed entry point
# ----------------------------------------------------------------------

def test_console_script_is_installed_and_runs(tmp_path):
    exe = shutil.which("uavbsc")
    assert exe is not None, "console script 'uavbsc' not on PATH"
    proc = subprocess.run(
        [exe, "run", "--config", TINY, "--solver", "random",
         "--seed", "3", "--budget", "32"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("run scenario=tiny solver=random seed=3")


@pytest.mark.parametrize("ipso", [
    {"inertia_max": 1e300, "inertia_min": -1e300, "inertia_exponent": 1.0,
     "iterations": 8},
    {"init_std": 1e308, "iterations": 8},
], ids=["velocity", "initial-population"])
def test_a_diverging_swarm_keeps_the_error_contract(tmp_path, ipso):
    # In a subprocess, so that a numpy warning on stderr would show.
    scenario = json.loads(TINY_CONFIG.read_text(encoding="utf-8"))
    scenario["solvers"]["ipso"] = ipso
    config = tmp_path / "diverging.json"
    config.write_text(json.dumps(scenario), encoding="utf-8")

    def cli(*argv):
        return subprocess.run(
            [sys.executable, "-m", "uavbsc.cli", *argv, "--config", str(config)],
            capture_output=True, text=True, timeout=120)

    proc = cli("run", "--solver", "ipso")
    assert proc.returncode == 4
    assert len(proc.stderr.splitlines()) == 1
    assert "finite" in error_payload(proc.stderr)["message"]
    rows = []
    for workers in ("1", "2"):
        out = tmp_path / f"workers{workers}"
        proc = cli("sweep", "--param", "system.wpt_power_db", "--values",
                   "30,33", "--solver", "ipso", "--seeds", "0,1",
                   "--workers", workers, "--out", str(out), "--no-timing")
        assert proc.returncode == 0
        assert proc.stderr == ""
        rows.append((out / "sweep_rows.csv").read_text(encoding="utf-8"))
    assert rows[0] == rows[1]
    assert rows[0].count("genome genes must be finite") == 2


def test_module_invocation_matches_entry_point(capsys, tmp_path):
    args = ["run", "--config", TINY, "--solver", "random", "--budget", "64",
            "--no-timing"]
    via_module, in_process = tmp_path / "module.json", tmp_path / "main.json"
    proc = subprocess.run(
        [sys.executable, "-m", "uavbsc.cli", *args, "--out", str(via_module)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, _, _ = run_cli(capsys, *args, "--out", str(in_process))
    assert code == 0
    assert via_module.read_bytes() == in_process.read_bytes()
