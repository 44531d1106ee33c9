"""Scenario files: schema, validation, unit conversion, problem building.

Scenarios are JSON documents with explicit units in the key names (dBm
for radio powers, dB for ratios, SI elsewhere).  Loading converts to
linear watts, validates every invariant (reporting all violations at
once, not just the first), rejects unknown keys, and yields a
:class:`ScenarioConfig` that can build the optimization problem.  Saving
emits a canonical form (sorted keys, two-space indent) so save/load
round-trips are byte-stable.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, fields
from functools import partial
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np

from .encoding import PENALTY_MODES, RATE_WEIGHTINGS, LinkProblem
from .ga import GaConfig
from .model import ParameterError, PropulsionParams, RotorConstants, SystemParams
from .pso import PsoConfig

__all__ = [
    "ConfigError",
    "db_to_linear",
    "dbm_to_watt",
    "ScenarioConfig",
]


class ConfigError(ValueError):
    """Raised for scenario files that cannot be parsed or validated."""


def db_to_linear(value_db: float) -> float:
    """Convert a dB ratio (or dB-over-1-W power) to its linear value."""
    return 10.0 ** (value_db / 10.0)


def dbm_to_watt(value_dbm: float) -> float:
    """Convert a dBm power to watts."""
    return 1.0e-3 * 10.0 ** (value_dbm / 10.0)


# Schema: the keys of each section and the type each value takes.
_NUMBER = (int, float)
_NUMBER_OR_NULL = (int, float, type(None))

# Each system key -> (SystemParams field, conversion from the file's unit).
_SYSTEM_FIELDS = {
    "bandwidth_hz": ("bandwidth_hz", float),
    "reference_gain_db": ("ref_gain", db_to_linear),
    "path_loss_exponent": ("path_loss_exp", float),
    "harvest_efficiency": ("harvest_eff", float),
    "source_power_dbm": ("source_power_w", dbm_to_watt),
    "wpt_power_db": ("wpt_power_w", db_to_linear),
    "tag_tx_power_dbm": ("ub_tx_power_w", dbm_to_watt),
    "tag_circuit_power_dbm": ("backscatter_circuit_power_w", dbm_to_watt),
    "backscatter_coefficient": ("backscatter_coeff", float),
    "cached_fraction": ("cached_fraction", float),
    "demanded_rate_bps": ("demanded_rate_bps", float),
    "noise_uplink_dbm": ("noise_var_uplink_w", dbm_to_watt),
    "noise_downlink_dbm": ("noise_var_downlink_w", dbm_to_watt),
    "noise_estimation_dbm": ("noise_var_estimation_w", dbm_to_watt),
    "rician_factor_db": ("rician_factor", db_to_linear),
    "carrier_frequency_hz": ("carrier_freq_hz", float),
    "sampling_time_s": ("sampling_time_s", float),
    "mission_time_s": ("mission_time_s", float),
    "slot_count": ("slot_count", int),
    "max_speed_mps": ("max_speed_mps", float),
}
_SYSTEM_KEYS = {key: int if convert is int else _NUMBER
                for key, (_, convert) in _SYSTEM_FIELDS.items()}
_SYSTEM_OPTIONAL = {
    "light_speed_mps": _NUMBER,
}

_GEOMETRY_KEYS = {
    "altitude_m": _NUMBER,
    "source_xy_m": list,
    "user_xy_m": list,
    "start_xy_m": list,
    "final_xy_m": list,
    "arena_x_m": list,
    "arena_y_m": list,
    "arena_z_m": list,
}

_MODE_DEFAULTS = {
    "penalty_mode": "safe",
    "rate_weighting": "literal",
    "lambda1_literal": False,
    "fixed_altitude": True,
}

# The config each solver section builds; the variant of a swarm comes
# from its section name.
SOLVER_CONFIGS = {
    "ga": GaConfig,
    "ipso": partial(PsoConfig, variant="ipso"),
    "pso": partial(PsoConfig, variant="pso"),
}

# Solver config fields a scenario file cannot override: seed and budget
# come from the harness call, the variant from the section name, and
# runs always start around the problem's heuristic mean.
_NOT_OVERRIDABLE = ("seed", "max_evaluations", "init_mean", "variant")


def _field_types(cls, skip=()) -> dict:
    """Scenario keys of a dataclass's fields -> the type their values take.

    An ``int`` field takes an integer, an ``Optional`` one a number or
    null, and every other field a number.
    """
    hints = get_type_hints(cls)
    return {f.name: int if hints[f.name] is int
            else _NUMBER_OR_NULL if type(None) in get_args(hints[f.name])
            else _NUMBER
            for f in fields(cls) if f.name not in skip}


_PROPULSION_KEYS = _field_types(PropulsionParams, skip=("rotor",))
_ROTOR_KEYS = _field_types(RotorConstants)
_OVERRIDE_KEYS = {name: _field_types(getattr(make, "func", make), _NOT_OVERRIDABLE)
                  for name, make in SOLVER_CONFIGS.items()}


def _check_section(problems, data, label, required, optional=None):
    """Check the object ``data`` holds under the last part of ``label``.

    Records every unknown key, missing key and bad value under the dotted
    ``label``; a key whose type is a dict names a nested object, checked
    the same way.  Returns the block, or {} when it is not an object.
    """
    block = data.get(label.rpartition(".")[2])
    if not isinstance(block, dict):
        if "." in label:
            problems.append(f"{label} must be an object")
        elif block is None:
            problems.append(f"missing section {label!r}")
        else:
            problems.append(f"section {label!r} must be an object")
        return {}
    optional = optional or {}
    for key in block:
        if key not in required and key not in optional:
            problems.append(f"unknown key {label}.{key}")
    for key, typ in {**required, **optional}.items():
        if key not in block:
            if key in required:
                problems.append(f"missing key {label}.{key}")
        elif isinstance(typ, dict):
            _check_section(problems, block, f"{label}.{key}", typ)
        else:
            _check_value(problems, f"{label}.{key}", block[key], typ)
    return block


def _check_value(problems, label, value, typ=_NUMBER) -> bool:
    """Record why ``value`` is not a finite ``typ``; True when it is.

    JSON parsing accepts ``NaN`` and ``Infinity``, so finiteness is checked
    here rather than trusted to the parser.
    """
    if not isinstance(value, typ) or isinstance(value, bool):
        problems.append(f"{label} must be a {_type_name(typ)}")
        return False
    if isinstance(value, float) and not math.isfinite(value):
        problems.append(f"{label} must be finite (got {value})")
        return False
    return True


def _type_name(typ) -> str:
    return {int: "integer", list: "list"}.get(typ, "number")


def _check_pair(problems, block, section, key, ordered=False):
    value = block.get(key)
    if not isinstance(value, list) or len(value) != 2 or not all(
        isinstance(v, _NUMBER) and not isinstance(v, bool) for v in value
    ):
        problems.append(f"{section}.{key} must be a list of two numbers")
        return None
    if not all(_check_value(problems, f"{section}.{key}", v) for v in value):
        return None
    if ordered and not value[0] < value[1]:
        problems.append(f"{section}.{key} must satisfy lo < hi (got {value})")
        return None
    return tuple(_convert(problems, f"{section}.{key}", v) for v in value)


def _convert(problems, label, value, convert=float):
    """``convert(value)``, or None and a problem when a float overflows."""
    try:
        return convert(value)
    except OverflowError:
        problems.append(f"{label} is out of range (got {value})")


@dataclass(eq=False)
class ScenarioConfig:
    """A fully validated scenario, ready to build the link problem."""

    name: str
    raw: dict                    # canonical document with defaults filled in
    system: SystemParams
    propulsion: PropulsionParams
    source: np.ndarray
    user: np.ndarray
    start: np.ndarray
    goal: np.ndarray
    penalty_mode: str
    rate_weighting: str
    fixed_altitude: bool
    solver_overrides: dict = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def load(cls, path) -> "ScenarioConfig":
        path = Path(path)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read scenario file {path}: {exc}") from exc
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"scenario file {path} is not valid JSON: {exc.msg} "
                f"(line {exc.lineno}, column {exc.colno})") from exc
        return cls.from_dict(data, default_name=path.stem)

    @classmethod
    def from_dict(cls, data: dict, default_name: str = "scenario") -> "ScenarioConfig":
        if not isinstance(data, dict):
            raise ConfigError("scenario document must be a JSON object")
        problems = []

        known_root = {"schema_version", "name", "system", "geometry",
                      "propulsion", "modes", "solvers"}
        for key in data:
            if key not in known_root:
                problems.append(f"unknown key {key}")
        version = data.get("schema_version")
        if version != 1:
            problems.append(f"schema_version must be 1 (got {version!r})")
        name = data.get("name", default_name)
        if not isinstance(name, str) or not name:
            problems.append("name must be a nonempty string")
            name = default_name

        system_block = _check_section(
            problems, data, "system", _SYSTEM_KEYS, _SYSTEM_OPTIONAL)
        geometry_block = _check_section(problems, data, "geometry", _GEOMETRY_KEYS)

        # Geometry pairs.
        pairs = {}
        if geometry_block:
            for key in ("source_xy_m", "user_xy_m", "start_xy_m", "final_xy_m"):
                pairs[key] = _check_pair(problems, geometry_block, "geometry", key)
            for key in ("arena_x_m", "arena_y_m", "arena_z_m"):
                pairs[key] = _check_pair(
                    problems, geometry_block, "geometry", key, ordered=True)

        # Propulsion: either the derived coefficients or raw rotor constants.
        propulsion_block = data.get("propulsion")
        rotor_form = isinstance(propulsion_block, dict) and "rotor" in propulsion_block
        _check_section(problems, data, "propulsion",
                       {"rotor": _ROTOR_KEYS} if rotor_form else _PROPULSION_KEYS)

        # Modes.
        modes_block = data.get("modes", {})
        if not isinstance(modes_block, dict):
            problems.append("section 'modes' must be an object")
            modes_block = {}
        modes = dict(_MODE_DEFAULTS)
        for key, value in modes_block.items():
            if key not in _MODE_DEFAULTS:
                problems.append(f"unknown key modes.{key}")
            else:
                modes[key] = value
        for key, choices in (("penalty_mode", PENALTY_MODES),
                             ("rate_weighting", RATE_WEIGHTINGS)):
            if modes[key] not in choices:
                allowed = " or ".join(map(repr, choices))
                problems.append(f"modes.{key} must be {allowed} (got {modes[key]!r})")
        for key in ("lambda1_literal", "fixed_altitude"):
            if not isinstance(modes[key], bool):
                problems.append(f"modes.{key} must be a boolean")
        if modes["lambda1_literal"] and isinstance(propulsion_block, dict) \
                and not rotor_form:
            problems.append(
                "modes.lambda1_literal requires propulsion given as rotor constants")

        # Solver overrides.
        solvers_block = data.get("solvers", {})
        if not isinstance(solvers_block, dict):
            problems.append("section 'solvers' must be an object")
            solvers_block = {}
        overrides = {}
        for section, block in solvers_block.items():
            if section not in SOLVER_CONFIGS:
                problems.append(f"unknown key solvers.{section}")
                continue
            typed = len(problems)
            _check_section(problems, solvers_block, f"solvers.{section}", {},
                           _OVERRIDE_KEYS[section])
            if len(problems) == typed:
                try:  # the range rules live on the solver configs' fields
                    SOLVER_CONFIGS[section](**block)
                except ParameterError as err:
                    problems.extend(f"solvers.{section}.{p}" for p in err.problems)
                overrides[section] = dict(block)

        # Unit conversions; a result no float can hold is one more problem.
        if not problems:
            sys_kwargs = {
                name: _convert(problems, f"system.{key}", system_block[key], to)
                for key, (name, to) in _SYSTEM_FIELDS.items()}
            if "light_speed_mps" in system_block:
                sys_kwargs["light_speed_mps"] = _convert(
                    problems, "system.light_speed_mps", system_block["light_speed_mps"])
            sys_kwargs["altitude_m"] = _convert(
                problems, "geometry.altitude_m", geometry_block["altitude_m"])
            label = "propulsion.rotor" if rotor_form else "propulsion"
            coeff_block = propulsion_block["rotor"] if rotor_form else propulsion_block
            coefficients = {key: _convert(problems, f"{label}.{key}", value)
                            for key, value in coeff_block.items()}
        if problems:
            raise ConfigError(
                "invalid scenario: " + "; ".join(sorted(problems)))

        # Range rules, and geometry problems (start or goal outside the
        # arena), surface at load time rather than on first use.
        try:
            system = SystemParams(**sys_kwargs, bounds_m=(
                pairs["arena_x_m"], pairs["arena_y_m"], pairs["arena_z_m"]))
            propulsion = PropulsionParams.from_rotor(
                RotorConstants(**coefficients),
                slot_duration=system.slot_duration_s,
                literal_profile_scaling=bool(modes["lambda1_literal"]),
            ) if rotor_form else PropulsionParams(**coefficients)
            altitude = system.altitude_m
            cfg = cls(
                name=name,
                raw={
                    "schema_version": 1,
                    "name": name,
                    "system": {**{k: system_block[k] for k in _SYSTEM_KEYS},
                               "light_speed_mps": system.light_speed_mps},
                    "geometry": {k: geometry_block[k] for k in _GEOMETRY_KEYS},
                    "propulsion": ({"rotor": coefficients} if rotor_form
                                   else coefficients),
                    "modes": modes,
                    "solvers": overrides,
                },
                system=system,
                propulsion=propulsion,
                source=np.array([*pairs["source_xy_m"], 0.0]),
                user=np.array([*pairs["user_xy_m"], 0.0]),
                start=np.array([*pairs["start_xy_m"], altitude]),
                goal=np.array([*pairs["final_xy_m"], altitude]),
                penalty_mode=modes["penalty_mode"],
                rate_weighting=modes["rate_weighting"],
                fixed_altitude=bool(modes["fixed_altitude"]),
                solver_overrides=overrides,
            )
            cfg.build_problem()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        except OverflowError as exc:  # float division or powers on huge values
            raise ConfigError("invalid scenario: deriving the slot duration or "
                              "the rotor power curve overflows a float") from exc
        return cfg

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def canonical_text(self) -> str:
        return json.dumps(self.raw, indent=2, sort_keys=True) + "\n"

    def save(self, path) -> None:
        Path(path).write_text(self.canonical_text(), encoding="utf-8")

    def scenario_hash(self) -> str:
        compact = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(compact.encode("utf-8")).hexdigest()

    # ------------------------------------------------------------------
    # Derivations
    # ------------------------------------------------------------------

    def build_problem(self) -> LinkProblem:
        return LinkProblem(
            params=self.system,
            propulsion=self.propulsion,
            source=self.source,
            user=self.user,
            start=self.start,
            goal=self.goal,
            penalty_mode=self.penalty_mode,
            rate_weighting=self.rate_weighting,
            fixed_altitude=self.fixed_altitude,
        )

    def with_value(self, parameter: str, value) -> "ScenarioConfig":
        """A copy of this scenario with one swept parameter replaced.

        ``parameter`` is a dotted path into the document
        (``system.wpt_power_db``) or a bare key that occurs in exactly one
        section (``wpt_power_db``).
        """
        doc = json.loads(json.dumps(self.raw))
        if "." in parameter:
            section, key = parameter.split(".", 1)
            if section not in doc or not isinstance(doc[section], dict) \
                    or key not in doc[section]:
                raise ConfigError(f"unknown sweep parameter {parameter!r}")
            doc[section][key] = value
        else:
            hits = [
                section for section in ("system", "geometry", "modes")
                if parameter in doc.get(section, {})
            ]
            if len(hits) != 1:
                raise ConfigError(
                    f"sweep parameter {parameter!r} matches {len(hits)} sections; "
                    f"use a dotted path")
            doc[hits[0]][parameter] = value
        return ScenarioConfig.from_dict(doc, default_name=self.name)
