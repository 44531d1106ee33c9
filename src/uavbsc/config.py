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
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np

from .encoding import LinkProblem
from .ga import GaConfig
from .model import PropulsionParams, RotorConstants, SystemParams
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


# Schema: required keys per section and their value checkers.
_NUMBER = (int, float)

_SYSTEM_KEYS = {
    "bandwidth_hz": _NUMBER,
    "reference_gain_db": _NUMBER,
    "path_loss_exponent": _NUMBER,
    "harvest_efficiency": _NUMBER,
    "source_power_dbm": _NUMBER,
    "wpt_power_db": _NUMBER,
    "tag_tx_power_dbm": _NUMBER,
    "tag_circuit_power_dbm": _NUMBER,
    "backscatter_coefficient": _NUMBER,
    "cached_fraction": _NUMBER,
    "demanded_rate_bps": _NUMBER,
    "noise_uplink_dbm": _NUMBER,
    "noise_downlink_dbm": _NUMBER,
    "noise_estimation_dbm": _NUMBER,
    "rician_factor_db": _NUMBER,
    "carrier_frequency_hz": _NUMBER,
    "sampling_time_s": _NUMBER,
    "mission_time_s": _NUMBER,
    "slot_count": int,
    "max_speed_mps": _NUMBER,
}
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

_PROPULSION_DERIVED_KEYS = {
    "profile_power_w": _NUMBER,
    "induced_power_w": _NUMBER,
    "profile_speed_factor": _NUMBER,
    "induced_speed_factor": _NUMBER,
    "parasite_drag_factor": _NUMBER,
}

_ROTOR_KEYS = {
    "profile_drag_coeff": _NUMBER,
    "air_density_kgm3": _NUMBER,
    "rotor_solidity": _NUMBER,
    "disc_area_m2": _NUMBER,
    "blade_angular_velocity_rad_s": _NUMBER,
    "rotor_radius_m": _NUMBER,
    "induced_power_factor": _NUMBER,
    "aircraft_weight_n": _NUMBER,
    "fuselage_drag_coeff": _NUMBER,
    "mean_induced_velocity_ms": _NUMBER,
}

_MODE_DEFAULTS = {
    "penalty_mode": "safe",
    "rate_weighting": "literal",
    "lambda1_literal": False,
    "fixed_altitude": True,
}

_SOLVER_SECTIONS = ("ga", "ipso", "pso")

# Solver config fields a scenario file cannot override: seed and budget
# come from the harness call, the variant from the section name, and
# runs always start around the problem's heuristic mean.
_NOT_OVERRIDABLE = ("seed", "max_evaluations", "init_mean", "variant")


def _override_keys(config_cls) -> dict:
    """Overridable fields of a solver config: name -> (type, null allowed)."""
    hints = get_type_hints(config_cls)
    return {f.name: (int if hints[f.name] is int else _NUMBER,
                     type(None) in get_args(hints[f.name]))
            for f in fields(config_cls) if f.name not in _NOT_OVERRIDABLE}


_GA_OVERRIDE_KEYS = _override_keys(GaConfig)
_PSO_OVERRIDE_KEYS = _override_keys(PsoConfig)


def _check_section(problems, data, section, required, optional=None):
    block = data.get(section)
    if block is None:
        problems.append(f"missing section {section!r}")
        return {}
    if not isinstance(block, dict):
        problems.append(f"section {section!r} must be an object")
        return {}
    optional = optional or {}
    for key in block:
        if key not in required and key not in optional:
            problems.append(f"unknown key {section}.{key}")
    for key, typ in {**required, **optional}.items():
        if key in block:
            _check_value(problems, f"{section}.{key}", block[key], typ)
        elif key in required:
            problems.append(f"missing key {section}.{key}")
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
    if typ is _NUMBER:
        return "number"
    if typ is int:
        return "integer"
    if typ is list:
        return "list"
    return getattr(typ, "__name__", str(typ))


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
    return float(value[0]), float(value[1])


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
        rotor = None
        derived = None
        if not isinstance(propulsion_block, dict):
            problems.append("missing section 'propulsion'")
            propulsion_block = {}
        elif "rotor" in propulsion_block:
            for key in propulsion_block:
                if key != "rotor":
                    problems.append(f"unknown key propulsion.{key}")
            rotor_block = propulsion_block["rotor"]
            if not isinstance(rotor_block, dict):
                problems.append("propulsion.rotor must be an object")
            else:
                for key in rotor_block:
                    if key not in _ROTOR_KEYS:
                        problems.append(f"unknown key propulsion.rotor.{key}")
                missing = [k for k in _ROTOR_KEYS if k not in rotor_block]
                for key in missing:
                    problems.append(f"missing key propulsion.rotor.{key}")
                valid = [_check_value(problems, f"propulsion.rotor.{k}",
                                      rotor_block[k])
                         for k in _ROTOR_KEYS if k in rotor_block]
                if not missing and all(valid):
                    rotor = {k: float(rotor_block[k]) for k in _ROTOR_KEYS}
        else:
            for key in propulsion_block:
                if key not in _PROPULSION_DERIVED_KEYS:
                    problems.append(f"unknown key propulsion.{key}")
            missing = [k for k in _PROPULSION_DERIVED_KEYS
                       if k not in propulsion_block]
            for key in missing:
                problems.append(f"missing key propulsion.{key}")
            valid = [_check_value(problems, f"propulsion.{k}",
                                  propulsion_block[k])
                     for k in _PROPULSION_DERIVED_KEYS if k in propulsion_block]
            if not missing and all(valid):
                derived = {
                    k: float(propulsion_block[k])
                    for k in _PROPULSION_DERIVED_KEYS
                }

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
        if modes["penalty_mode"] not in ("safe", "paper"):
            problems.append(
                f"modes.penalty_mode must be 'safe' or 'paper' "
                f"(got {modes['penalty_mode']!r})")
        if modes["rate_weighting"] not in ("literal", "delta"):
            problems.append(
                f"modes.rate_weighting must be 'literal' or 'delta' "
                f"(got {modes['rate_weighting']!r})")
        for key in ("lambda1_literal", "fixed_altitude"):
            if not isinstance(modes[key], bool):
                problems.append(f"modes.{key} must be a boolean")
        if modes["lambda1_literal"] and rotor is None and isinstance(
            data.get("propulsion"), dict
        ) and "rotor" not in data["propulsion"]:
            problems.append(
                "modes.lambda1_literal requires propulsion given as rotor constants")

        # Solver overrides.
        solvers_block = data.get("solvers", {})
        if not isinstance(solvers_block, dict):
            problems.append("section 'solvers' must be an object")
            solvers_block = {}
        overrides = {}
        for section, block in solvers_block.items():
            if section not in _SOLVER_SECTIONS:
                problems.append(f"unknown key solvers.{section}")
                continue
            if not isinstance(block, dict):
                problems.append(f"solvers.{section} must be an object")
                continue
            allowed = (_GA_OVERRIDE_KEYS if section == "ga"
                       else _PSO_OVERRIDE_KEYS)
            typed = len(problems)
            for key, value in block.items():
                if key not in allowed:
                    problems.append(f"unknown key solvers.{section}.{key}")
                elif not (allowed[key][1] and value is None):
                    _check_value(problems, f"solvers.{section}.{key}", value,
                                 allowed[key][0])
            if len(problems) == typed:
                # The range rules live in the solver configs.  Each of their
                # "invalid ... config: a; b" items starts with its key.
                try:
                    if section == "ga":
                        GaConfig(**block)
                    else:
                        PsoConfig(variant=section, **block)
                except ValueError as err:
                    items = str(err).split(": ", 1)[1].split("; ")
                    problems.extend(f"solvers.{section}.{item}" for item in items)
            overrides[section] = dict(block)

        if problems:
            raise ConfigError(
                "invalid scenario: " + "; ".join(sorted(problems)))

        # Unit conversions and typed parameter construction.
        sys_kwargs = dict(
            bandwidth_hz=float(system_block["bandwidth_hz"]),
            ref_gain=db_to_linear(float(system_block["reference_gain_db"])),
            path_loss_exp=float(system_block["path_loss_exponent"]),
            harvest_eff=float(system_block["harvest_efficiency"]),
            source_power_w=dbm_to_watt(float(system_block["source_power_dbm"])),
            wpt_power_w=db_to_linear(float(system_block["wpt_power_db"])),
            ub_tx_power_w=dbm_to_watt(float(system_block["tag_tx_power_dbm"])),
            backscatter_circuit_power_w=dbm_to_watt(
                float(system_block["tag_circuit_power_dbm"])),
            backscatter_coeff=float(system_block["backscatter_coefficient"]),
            cached_fraction=float(system_block["cached_fraction"]),
            demanded_rate_bps=float(system_block["demanded_rate_bps"]),
            noise_var_uplink_w=dbm_to_watt(float(system_block["noise_uplink_dbm"])),
            noise_var_downlink_w=dbm_to_watt(
                float(system_block["noise_downlink_dbm"])),
            noise_var_estimation_w=dbm_to_watt(
                float(system_block["noise_estimation_dbm"])),
            rician_factor=db_to_linear(float(system_block["rician_factor_db"])),
            carrier_freq_hz=float(system_block["carrier_frequency_hz"]),
            sampling_time_s=float(system_block["sampling_time_s"]),
            mission_time_s=float(system_block["mission_time_s"]),
            slot_count=int(system_block["slot_count"]),
            altitude_m=float(geometry_block["altitude_m"]),
            max_speed_mps=float(system_block["max_speed_mps"]),
            bounds_m=(pairs["arena_x_m"], pairs["arena_y_m"], pairs["arena_z_m"]),
        )
        if "light_speed_mps" in system_block:
            sys_kwargs["light_speed_mps"] = float(system_block["light_speed_mps"])
        try:
            system = SystemParams(**sys_kwargs)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

        try:
            if rotor is not None:
                propulsion = PropulsionParams.from_rotor(
                    RotorConstants(**rotor),
                    slot_duration=system.slot_duration_s,
                    literal_profile_scaling=bool(modes["lambda1_literal"]),
                )
            else:
                propulsion = PropulsionParams(**derived)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

        altitude = system.altitude_m
        source = np.array([*pairs["source_xy_m"], 0.0])
        user = np.array([*pairs["user_xy_m"], 0.0])
        start = np.array([*pairs["start_xy_m"], altitude])
        goal = np.array([*pairs["final_xy_m"], altitude])

        canonical = {
            "schema_version": 1,
            "name": name,
            "system": {
                **{k: system_block[k] for k in _SYSTEM_KEYS},
                "light_speed_mps": sys_kwargs.get(
                    "light_speed_mps", SystemParams.light_speed_mps),
            },
            "geometry": {k: geometry_block[k] for k in _GEOMETRY_KEYS},
            "propulsion": (
                {"rotor": rotor} if rotor is not None else dict(derived)),
            "modes": modes,
            "solvers": overrides,
        }

        cfg = cls(
            name=name,
            raw=canonical,
            system=system,
            propulsion=propulsion,
            source=source,
            user=user,
            start=start,
            goal=goal,
            penalty_mode=modes["penalty_mode"],
            rate_weighting=modes["rate_weighting"],
            fixed_altitude=bool(modes["fixed_altitude"]),
            solver_overrides=overrides,
        )
        # Surface geometry problems (start/goal outside the arena) at load
        # time rather than on first use.
        try:
            cfg.build_problem()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
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
