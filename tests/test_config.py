"""Scenario file validation, unit conversions, and canonical output."""

import copy
import json
from dataclasses import fields

import pytest

from helpers import REFERENCE_CONFIG, TINY_CONFIG
from uavbsc.config import ConfigError, ScenarioConfig, db_to_linear, dbm_to_watt
from uavbsc.harness import write_json
from uavbsc.model import PropulsionParams


@pytest.fixture()
def doc():
    """A fresh, valid scenario document to mutate per test."""
    return json.loads(TINY_CONFIG.read_text(encoding="utf-8"))


def load_doc(document):
    return ScenarioConfig.from_dict(document)


# ----------------------------------------------------------------------
# Unit conversions
# ----------------------------------------------------------------------

def test_db_to_linear_known_values():
    assert db_to_linear(30.0) == 1000.0
    assert db_to_linear(0.0) == 1.0
    assert db_to_linear(-20.0) == pytest.approx(0.01, rel=1e-12)
    assert db_to_linear(33.0) == pytest.approx(10.0**3.3, rel=1e-15)


def test_dbm_to_watt_known_values():
    assert dbm_to_watt(30.0) == pytest.approx(1.0, rel=1e-12)
    assert dbm_to_watt(40.0) == pytest.approx(10.0, rel=1e-12)
    assert dbm_to_watt(0.0) == pytest.approx(1.0e-3, rel=1e-12)
    assert dbm_to_watt(-90.0) == pytest.approx(1.0e-12, rel=1e-12)


# ----------------------------------------------------------------------
# Loading the shipped scenarios
# ----------------------------------------------------------------------

def test_reference_scenario_loads_with_converted_units():
    cfg = ScenarioConfig.load(REFERENCE_CONFIG)
    assert cfg.name == "reference"
    s = cfg.problem.params
    assert s.slot_count == 8
    assert s.mission_time_s == 40.0
    assert s.slot_duration_s == 5.0
    assert s.ref_gain == pytest.approx(0.01, rel=1e-12)
    assert s.source_power_w == pytest.approx(10.0, rel=1e-12)
    assert s.wpt_power_w == pytest.approx(10.0**3.3, rel=1e-12)
    assert s.ub_tx_power_w == pytest.approx(0.01, rel=1e-12)
    assert s.backscatter_circuit_power_w == pytest.approx(1.0e-3, rel=1e-12)
    assert s.noise_var_uplink_w == pytest.approx(1.0e-12, rel=1e-12)
    assert s.rician_factor == pytest.approx(10.0**0.7, rel=1e-12)
    assert s.light_speed_mps == 3.0e8
    assert cfg.problem.penalty_mode == "safe"
    assert cfg.problem.rate_weighting == "literal"
    assert cfg.problem.fixed_altitude is True
    assert cfg.solver_overrides["ga"]["population_size"] == 50


def test_tiny_scenario_loads_and_builds_problem():
    cfg = ScenarioConfig.load(TINY_CONFIG)
    problem = cfg.build_problem()
    assert cfg.problem.params.slot_count == 2
    assert problem.genome_size == 3 * 1 + 2
    assert problem.params is cfg.problem.params
    assert cfg.solver_overrides["ga"]["stall_limit"] == 100


def test_build_problem_places_endpoints_in_three_dimensions(doc):
    cfg = load_doc(doc)
    assert cfg.problem.source.tolist() == [0.0, 0.0, 0.0]
    assert cfg.problem.user.tolist() == [60.0, 0.0, 0.0]
    assert cfg.problem.start.tolist() == [5.0, 0.0, 5.0]
    assert cfg.problem.goal.tolist() == [55.0, 0.0, 5.0]


def test_light_speed_default_is_materialized_when_omitted(doc):
    del doc["system"]["light_speed_mps"]
    cfg = load_doc(doc)
    assert cfg.problem.params.light_speed_mps == pytest.approx(2.998e8, rel=1e-3)
    assert "light_speed_mps" in cfg.raw["system"]


def test_name_falls_back_to_file_stem_and_rejects_empty(tmp_path, doc):
    del doc["name"]
    path = tmp_path / "myscenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert ScenarioConfig.load(path).name == "myscenario"
    doc["name"] = ""
    with pytest.raises(ConfigError):
        load_doc(doc)


# ----------------------------------------------------------------------
# Validation failures
# ----------------------------------------------------------------------

def test_rejects_non_object_document():
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict([1, 2, 3])


def test_rejects_wrong_schema_version(doc):
    doc["schema_version"] = 2
    with pytest.raises(ConfigError, match="schema_version"):
        load_doc(doc)


@pytest.mark.parametrize("version", [True, 1.0])
def test_schema_version_must_be_the_integer_one(doc, version):
    # As with slot_count, a bool or a float is not the integer 1.
    doc["schema_version"] = version
    with pytest.raises(ConfigError) as err:
        load_doc(doc)
    assert str(err.value) == (
        f"invalid scenario: schema_version must be 1 (got {version!r})")


def test_rejects_unknown_root_key(doc):
    doc["extras"] = {}
    with pytest.raises(ConfigError, match="unknown key extras"):
        load_doc(doc)


def test_rejects_missing_section(doc):
    del doc["system"]
    with pytest.raises(ConfigError, match="missing section 'system'"):
        load_doc(doc)


@pytest.mark.parametrize("section", ["system", "geometry", "propulsion"])
def test_every_required_section_reads_alike_when_absent_or_not_an_object(
        doc, section):
    del doc[section]
    with pytest.raises(ConfigError) as err:
        load_doc(doc)
    assert str(err.value) == f"invalid scenario: missing section {section!r}"
    doc[section] = 5
    with pytest.raises(ConfigError) as err:
        load_doc(doc)
    assert str(err.value) == (
        f"invalid scenario: section {section!r} must be an object")


def test_propulsion_keys_are_the_dataclass_fields(doc):
    names = {f.name for f in fields(PropulsionParams)}
    assert set(doc["propulsion"]) == names
    doc["propulsion"] = {}
    with pytest.raises(ConfigError) as err:
        load_doc(doc)
    assert str(err.value) == "invalid scenario: " + "; ".join(
        sorted(f"missing key propulsion.{name}" for name in names))


def test_rotor_constants_block_is_an_unknown_key(doc):
    # The power curve is given by its five coefficients only; the README
    # derives each from the rotor's physical constants.
    doc["propulsion"] = {"rotor": {"rotor_radius_m": 0.4}}
    with pytest.raises(ConfigError) as err:
        load_doc(doc)
    assert str(err.value) == "invalid scenario: " + "; ".join(sorted(
        [f"missing key propulsion.{f.name}" for f in fields(PropulsionParams)]
        + ["unknown key propulsion.rotor"]))


def test_rejects_unknown_and_missing_section_keys(doc):
    del doc["system"]["bandwidth_hz"]
    doc["system"]["bandwidth"] = 1e6
    with pytest.raises(ConfigError) as err:
        load_doc(doc)
    msg = str(err.value)
    assert "missing key system.bandwidth_hz" in msg
    assert "unknown key system.bandwidth" in msg


def test_rejects_boolean_posing_as_number(doc):
    doc["system"]["bandwidth_hz"] = True
    with pytest.raises(ConfigError, match="system.bandwidth_hz must be a number"):
        load_doc(doc)


def test_rejects_fractional_slot_count(doc):
    doc["system"]["slot_count"] = 8.0
    with pytest.raises(ConfigError, match="system.slot_count must be an integer"):
        load_doc(doc)


def test_rejects_unordered_arena_interval(doc):
    doc["geometry"]["arena_x_m"] = [70.0, -10.0]
    with pytest.raises(ConfigError, match="lo < hi"):
        load_doc(doc)


def test_rejects_malformed_coordinate_pair(doc):
    doc["geometry"]["user_xy_m"] = [60.0, 0.0, 1.0]
    with pytest.raises(ConfigError, match="list of two numbers"):
        load_doc(doc)
    doc["geometry"]["user_xy_m"] = [60.0, "zero"]
    with pytest.raises(ConfigError, match="list of two numbers"):
        load_doc(doc)


def test_rejects_bad_mode_values(doc):
    doc["modes"]["penalty_mode"] = "lenient"
    with pytest.raises(ConfigError, match="penalty_mode"):
        load_doc(doc)
    doc["modes"]["penalty_mode"] = "safe"
    doc["modes"]["rate_weighting"] = "square"
    with pytest.raises(ConfigError, match="rate_weighting"):
        load_doc(doc)
    doc["modes"]["rate_weighting"] = "literal"
    doc["modes"]["fixed_altitude"] = "yes"
    with pytest.raises(ConfigError, match="fixed_altitude must be a boolean"):
        load_doc(doc)
    del doc["modes"]["fixed_altitude"]
    doc["modes"]["color"] = "red"
    with pytest.raises(ConfigError, match="unknown key modes.color"):
        load_doc(doc)


@pytest.mark.parametrize("section, key, bad, problem", [
    ("geometry", "source_xy_m", 5,
     "geometry.source_xy_m must be a list of two numbers"),
    ("geometry", "arena_x_m", [70.0, -10.0],
     "geometry.arena_x_m must satisfy lo < hi (got [70.0, -10.0])"),
    ("modes", "penalty_mode", 3,
     "modes.penalty_mode must be 'safe' or 'paper' (got 3)"),
    ("modes", "fixed_altitude", "yes", "modes.fixed_altitude must be a boolean"),
    ("modes", "lambda1_literal", 1, "modes.lambda1_literal must be a boolean"),
    ("modes", "color", "red", "unknown key modes.color"),
    (None, "modes", [], "section 'modes' must be an object"),
    (None, "modes", None, "section 'modes' must be an object"),
], ids=["non-list-pair", "unordered-arena", "bad-choice", "non-boolean",
        "non-boolean-lambda1", "unknown-mode", "non-object-modes", "null-modes"])
def test_each_fault_is_reported_once(doc, section, key, bad, problem):
    (doc[section] if section else doc)[key] = bad
    with pytest.raises(ConfigError) as err:
        load_doc(doc)
    assert str(err.value) == f"invalid scenario: {problem}"


def test_literal_profile_scaling_accepts_the_coefficient_form(doc):
    plain = load_doc(doc)
    doc["modes"]["lambda1_literal"] = True
    scaled = load_doc(doc)
    assert scaled.raw["propulsion"] == plain.raw["propulsion"] == doc["propulsion"]
    for name in ("profile_power_w", "induced_power_w", "induced_speed_factor",
                 "parasite_drag_factor"):
        assert getattr(scaled.problem.propulsion, name) == \
            getattr(plain.problem.propulsion, name)


def test_literal_profile_scaling_multiplies_the_given_coefficient(doc):
    given = doc["propulsion"]["profile_speed_factor"]
    plain = load_doc(doc)
    assert plain.problem.propulsion.profile_speed_factor == given
    doc["modes"]["lambda1_literal"] = True
    scaled = load_doc(doc)
    assert scaled.problem.propulsion.profile_speed_factor == (
        given * scaled.problem.params.slot_duration_s)
    assert scaled.problem.propulsion.profile_speed_factor != given


def test_literal_profile_scaling_that_overflows_names_the_key_and_mode(doc):
    doc["propulsion"]["profile_speed_factor"] = 1e308
    assert load_doc(doc).problem.propulsion.profile_speed_factor == 1e308
    doc["modes"]["lambda1_literal"] = True
    with pytest.raises(ConfigError) as err:
        load_doc(doc)
    assert str(err.value) == (
        "invalid scenario: propulsion.profile_speed_factor times the slot "
        "duration (modes.lambda1_literal) overflows a float")


def test_rejects_unknown_solver_sections_and_keys(doc):
    doc["solvers"]["annealer"] = {}
    with pytest.raises(ConfigError, match="unknown key solvers.annealer"):
        load_doc(doc)
    del doc["solvers"]["annealer"]
    # A solver without a config (random search) takes no section.
    doc["solvers"]["random"] = {}
    with pytest.raises(ConfigError, match="unknown key solvers.random"):
        load_doc(doc)
    del doc["solvers"]["random"]
    doc["solvers"]["ga"]["seed"] = 3
    with pytest.raises(ConfigError, match="unknown key solvers.ga.seed"):
        load_doc(doc)
    doc["solvers"]["ga"] = 7
    with pytest.raises(ConfigError, match="solvers.ga must be an object"):
        load_doc(doc)


@pytest.mark.parametrize("section, key, bad, problem, good", [
    ("ga", "population_size", "x", "must be an integer", 40),
    ("ga", "stall_limit", True, "must be an integer", 40),
    ("ga", "generations", 300.0, "must be an integer", 300),
    ("ga", "mutation_rate", None, "must be a number", 0.2),
    ("ipso", "swarm_size", False, "must be an integer", 40),
    ("ipso", "cognitive_coeff", float("nan"), "must be finite (got nan)", 1),
    ("pso", "social_coeff", float("inf"), "must be finite (got inf)", 1.5),
    ("pso", "velocity_clamp", "fast", "must be a number", None),
    # Well-typed but out of range: the rules on the solver configs' fields.
    # The ids leave out the "(got ...)" suffix of the expected message.
    pytest.param("ga", "population_size", 1, "must be at least 2 (got 1)", 40,
                 id="ga-population_size-1-must be at least 2-40"),
    pytest.param("ipso", "mutation_prob", 1.5, "must lie in [0, 1] (got 1.5)", 0.1,
                 id="ipso-mutation_prob-1.5-must lie in [0, 1]-0.1"),
    pytest.param("pso", "velocity_clamp", 0.0,
                 "must be positive when set (got 0.0)", 2.0,
                 id="pso-velocity_clamp-0.0-must be positive when set-2.0"),
    # An integer too large for a float would overflow in the run.
    pytest.param("ipso", "cognitive_coeff", 10**400,
                 f"is out of range (got {10**400})", 2,
                 id="ipso-cognitive_coeff-10**400-is out of range-2"),
    pytest.param("ga", "population_size", 10**400,
                 f"is out of range (got {10**400})", 40,
                 id="ga-population_size-10**400-is out of range-40"),
    # A positive spread whose mutation std 1 / spread is infinite.
    pytest.param("ga", "mutation_spread", 5e-324,
                 "must keep 1 / mutation_spread finite (got 5e-324)", 1e-300,
                 id="ga-mutation_spread-5e-324-must keep 1 / mutation_spread finite"),
])
def test_rejects_bad_solver_override_values(doc, section, key, bad, problem,
                                            good):
    doc["solvers"].setdefault(section, {})[key] = bad
    with pytest.raises(ConfigError) as err:
        load_doc(doc)
    assert str(err.value) == (
        f"invalid scenario: solvers.{section}.{key} {problem}")
    doc["solvers"][section][key] = good
    assert load_doc(doc).solver_overrides[section][key] == good


def test_collects_every_problem_in_one_sorted_message(doc):
    doc["schema_version"] = 3
    del doc["system"]["bandwidth_hz"]
    doc["geometry"]["arena_y_m"] = [20.0, -20.0]
    doc["modes"]["penalty_mode"] = "x"
    with pytest.raises(ConfigError) as err:
        load_doc(doc)
    msg = str(err.value)
    assert msg.startswith("invalid scenario: ")
    for part in ("schema_version", "system.bandwidth_hz",
                 "geometry.arena_y_m", "penalty_mode"):
        assert part in msg
    listed = msg[len("invalid scenario: "):].split("; ")
    assert listed == sorted(listed)


@pytest.mark.parametrize("key", ["demanded_rate_bps", "noise_estimation_dbm",
                                 "tag_tx_power_dbm", "wpt_power_db"])
def test_rejects_non_finite_system_values(doc, key):
    for bad in ("NaN", "Infinity", "-Infinity"):
        doc["system"][key] = json.loads(bad)
        with pytest.raises(ConfigError,
                           match=f"^invalid scenario: system.{key} must be finite"):
            load_doc(doc)


def test_non_finite_values_are_collected_with_other_problems(doc):
    doc["geometry"]["arena_x_m"] = [float("-inf"), 70.0]
    doc["propulsion"]["profile_power_w"] = float("inf")
    doc["system"]["bandwidth_hz"] = float("nan")
    with pytest.raises(ConfigError) as err:
        load_doc(doc)
    listed = str(err.value)[len("invalid scenario: "):].split("; ")
    assert listed == [
        "geometry.arena_x_m must be finite (got -inf)",
        "propulsion.profile_power_w must be finite (got inf)",
        "system.bandwidth_hz must be finite (got nan)",
    ]


def test_parameter_errors_surface_as_config_errors(doc):
    doc["system"]["slot_count"] = 0
    with pytest.raises(ConfigError, match="slot_count"):
        load_doc(doc)
    doc["system"]["slot_count"] = 2
    doc["geometry"]["start_xy_m"] = [-500.0, 0.0]
    with pytest.raises(ConfigError, match="outside the arena"):
        load_doc(doc)


def test_slot_count_too_large_for_a_float_is_rejected_at_load(doc):
    doc["system"]["slot_count"] = 10**400
    with pytest.raises(ConfigError) as err:
        load_doc(doc)
    assert str(err.value).startswith(
        "invalid scenario: system.slot_count is out of range (got ")


@pytest.mark.parametrize("count", [10**300, 10**15], ids=["1e300", "1e15"])
def test_slot_count_too_large_for_the_problem_arrays_is_rejected_at_load(
        doc, count):
    # numpy refuses the first size outright and cannot allocate the second;
    # neither allocates anything, in either altitude mode.
    doc["system"]["slot_count"] = count
    for fixed_altitude in (True, False):
        doc["modes"]["fixed_altitude"] = fixed_altitude
        with pytest.raises(ConfigError) as err:
            load_doc(doc)
        assert str(err.value) == (
            "invalid scenario: system.slot_count is too large for the "
            f"problem's arrays (got {count})")


def test_load_reports_malformed_json_with_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"schema_version": 1,,}', encoding="utf-8")
    with pytest.raises(ConfigError) as err:
        ScenarioConfig.load(path)
    assert "line 1" in str(err.value)
    assert "broken.json" in str(err.value)


def test_load_reports_missing_file_with_path(tmp_path):
    with pytest.raises(ConfigError, match="nowhere.json"):
        ScenarioConfig.load(tmp_path / "nowhere.json")


def test_from_dict_does_not_mutate_the_input(doc):
    frozen = copy.deepcopy(doc)
    load_doc(doc)
    assert doc == frozen


# ----------------------------------------------------------------------
# Canonical output and sweeping
# ----------------------------------------------------------------------

def test_save_load_round_trip_is_byte_stable(tmp_path):
    cfg = ScenarioConfig.load(TINY_CONFIG)
    out, again_out = tmp_path / "copy.json", tmp_path / "again.json"
    write_json(out, cfg.raw)
    again = ScenarioConfig.load(out)
    write_json(again_out, again.raw)
    assert again.raw == cfg.raw
    assert again.scenario_hash() == cfg.scenario_hash()
    assert again_out.read_bytes() == out.read_bytes()


def test_scenario_hash_tracks_content(doc):
    a = load_doc(doc)
    b = load_doc(doc)
    assert a.scenario_hash() == b.scenario_hash()
    doc["system"]["wpt_power_db"] = 30.0
    c = load_doc(doc)
    assert c.scenario_hash() != a.scenario_hash()
    assert len(a.scenario_hash()) == 64
    assert all(ch in "0123456789abcdef" for ch in a.scenario_hash())


def test_with_value_dotted_path(doc):
    cfg = load_doc(doc)
    swept = cfg.with_value("system.wpt_power_db", 27.0)
    assert swept.raw["system"]["wpt_power_db"] == 27.0
    assert swept.problem.params.wpt_power_w == pytest.approx(10.0**2.7, rel=1e-12)
    # The original scenario is untouched.
    assert cfg.raw["system"]["wpt_power_db"] == 33.0
    assert swept.name == cfg.name


def test_with_value_bare_key_resolves_unique_section(doc):
    cfg = load_doc(doc)
    swept = cfg.with_value("altitude_m", 12.0)
    assert swept.raw["geometry"]["altitude_m"] == 12.0
    assert swept.problem.params.altitude_m == 12.0
    assert swept.problem.start[2] == 12.0


def test_with_value_bare_propulsion_key_resolves(doc):
    cfg = load_doc(doc)
    assert cfg.parameter_path("profile_power_w") == ("propulsion", "profile_power_w")
    swept = cfg.with_value("profile_power_w", 80.0)
    assert swept.raw["propulsion"]["profile_power_w"] == 80.0
    assert swept.problem.propulsion.profile_power_w == 80.0


def test_with_value_rejects_unknown_parameter(doc):
    cfg = load_doc(doc)
    with pytest.raises(ConfigError, match="unknown sweep parameter"):
        cfg.with_value("system.warp_factor", 9.0)
    with pytest.raises(ConfigError, match="matches 0 sections"):
        cfg.with_value("warp_factor", 9.0)


def test_with_value_revalidates_the_new_document(doc):
    cfg = load_doc(doc)
    with pytest.raises(ConfigError, match="slot_count"):
        cfg.with_value("system.slot_count", 0)


def test_canonical_text_is_sorted_and_newline_terminated(doc, tmp_path):
    cfg = load_doc(doc)
    write_json(tmp_path / "scenario.json", cfg.raw)
    text = (tmp_path / "scenario.json").read_text(encoding="utf-8")
    assert text.endswith("\n")
    parsed = json.loads(text)
    assert parsed == cfg.raw
    assert list(parsed) == sorted(parsed)
