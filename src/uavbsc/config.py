"""Scenario files: schema, validation, unit conversion, problem building.

Scenarios are JSON documents with explicit units in the key names (dBm
for radio powers, dB for ratios, SI elsewhere).  Loading converts to
linear watts, validates every invariant (reporting all violations at
once, not just the first), rejects unknown keys, builds the scenario's
one :class:`~uavbsc.encoding.LinkProblem` and yields a
:class:`ScenarioConfig` that keeps it.  Its ``raw`` document, defaults
filled in, is what the scenario hash covers; written with
:func:`uavbsc.harness.write_json` it loads back to the same hash.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import get_args, get_type_hints

from .encoding import PENALTY_MODES, RATE_WEIGHTINGS, LinkProblem
from .model import ParameterError, PropulsionParams, SystemParams

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

# A list of two numbers, and one whose entries satisfy lo < hi.
_PAIR, _ORDERED_PAIR = "pair", "ordered pair"

_GEOMETRY_KEYS = {
    "altitude_m": _NUMBER,
    "source_xy_m": _PAIR,
    "user_xy_m": _PAIR,
    "start_xy_m": _PAIR,
    "final_xy_m": _PAIR,
    "arena_x_m": _ORDERED_PAIR,
    "arena_y_m": _ORDERED_PAIR,
    "arena_z_m": _ORDERED_PAIR,
}

# Each mode -> (the values it takes, its default); a tuple of strings
# is a choice set.
_MODES = {
    "penalty_mode": (PENALTY_MODES, "safe"),
    "rate_weighting": (RATE_WEIGHTINGS, "literal"),
    "lambda1_literal": (bool, False),
    "fixed_altitude": (bool, True),
}

# Solver config fields a scenario file cannot override: seed and budget
# come from the harness call, the variant from the section name.
_NOT_OVERRIDABLE = ("seed", "max_evaluations", "variant")


@functools.cache  # from_dict types every solver section on each load
def _field_types(cls, skip=()) -> dict:
    """Scenario keys of a dataclass's fields -> the type their values take.

    An ``int`` field takes an integer, an ``Optional`` one a number or
    null, and every other field a number.  The dict is shared: do not
    change it.
    """
    hints = get_type_hints(cls)
    return {f.name: int if hints[f.name] is int
            else _NUMBER_OR_NULL if type(None) in get_args(hints[f.name])
            else _NUMBER
            for f in fields(cls) if f.name not in skip}


_PROPULSION_KEYS = _field_types(PropulsionParams)


def _check_section(problems, data, label, required, optional=None):
    """Check the object ``data`` holds under the last part of ``label``.

    Records every unknown key, missing key and bad value under the dotted
    ``label``.  A section with no required keys may be left out.
    Returns the block, or {} when it is not an object.
    """
    block = data.get(label.rpartition(".")[2], None if required else {})
    if not isinstance(block, dict):
        if "." in label:
            problems.append(f"{label} must be an object")
        elif label not in data:
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
        else:
            _check_value(problems, f"{label}.{key}", block[key], typ)
    return block


def _check_value(problems, label, value, typ=_NUMBER) -> bool:
    """Record why ``value`` is not a valid ``typ``; True when it is.

    ``typ`` is a type or tuple of types, whose numbers must be finite; a
    choice set; or ``_PAIR`` / ``_ORDERED_PAIR``.  JSON parsing accepts
    ``NaN``, ``Infinity`` and integers too large for a float, so they are
    caught here rather than trusted to the parser.
    """
    if typ in (_PAIR, _ORDERED_PAIR):
        if not isinstance(value, list) or len(value) != 2 or not all(
                isinstance(v, _NUMBER) and not isinstance(v, bool) for v in value):
            problems.append(f"{label} must be a list of two numbers")
            return False
        if not all(_check_value(problems, label, v) for v in value):
            return False
        if typ == _ORDERED_PAIR and not value[0] < value[1]:
            problems.append(f"{label} must satisfy lo < hi (got {value})")
            return False
        return True
    if isinstance(typ, tuple) and isinstance(typ[0], str):
        if value in typ:
            return True
        problems.append(
            f"{label} must be {' or '.join(map(repr, typ))} (got {value!r})")
        return False
    if not isinstance(value, typ) or isinstance(value, bool) and typ is not bool:
        name = {int: "an integer", bool: "a boolean"}.get(typ, "a number")
        problems.append(f"{label} must be {name}")
        return False
    if isinstance(value, float) and not math.isfinite(value):
        problems.append(f"{label} must be finite (got {value})")
        return False
    return not isinstance(value, int) or _convert(problems, label, value) is not None


def _convert(problems, label, value, convert=float):
    """``convert(value)``, or None and a problem when a float overflows."""
    try:
        return convert(value)
    except OverflowError:
        problems.append(f"{label} is out of range (got {value})")


def _parse_json(text: str, label: str, error=ConfigError):
    """``json.loads(text)``; raises ``error`` naming ``label`` when the text
    is not valid JSON."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"{label} is not valid JSON: {exc.msg} "
                    f"(line {exc.lineno}, column {exc.colno})") from None
    except ValueError as exc:  # e.g. an integer too long for int() to parse
        raise error(f"{label} is not valid JSON: {exc}") from None


@dataclass(eq=False)
class ScenarioConfig:
    """A fully validated scenario and the link problem it poses."""

    name: str
    raw: dict                    # canonical document with defaults filled in
    problem: LinkProblem
    solver_overrides: dict

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
        return cls.from_dict(_parse_json(text, f"scenario file {path}"),
                             default_name=path.stem)

    @classmethod
    def from_dict(cls, data: dict, default_name: str = "scenario") -> "ScenarioConfig":
        from .harness import SOLVERS  # the solver table; harness imports this module

        if not isinstance(data, dict):
            raise ConfigError("scenario document must be a JSON object")
        problems = []

        known_root = {"schema_version", "name", "system", "geometry",
                      "propulsion", "modes", "solvers"}
        for key in data:
            if key not in known_root:
                problems.append(f"unknown key {key}")
        version = data.get("schema_version")
        if type(version) is not int or version != 1:  # not True or 1.0
            problems.append(f"schema_version must be 1 (got {version!r})")
        name = data.get("name", default_name)
        if not isinstance(name, str) or not name:
            problems.append("name must be a nonempty string")
            name = default_name

        system_block = _check_section(
            problems, data, "system", _SYSTEM_KEYS, {"light_speed_mps": _NUMBER})
        geometry_block = _check_section(problems, data, "geometry", _GEOMETRY_KEYS)

        propulsion_block = _check_section(problems, data, "propulsion",
                                          _PROPULSION_KEYS)

        modes = {key: default for key, (_, default) in _MODES.items()}
        modes.update(_check_section(problems, data, "modes", {},
                                    {key: typ for key, (typ, _) in _MODES.items()}))

        # Solver overrides.
        solvers_block = data.get("solvers", {})
        if not isinstance(solvers_block, dict):
            problems.append("section 'solvers' must be an object")
            solvers_block = {}
        overrides = {}
        for section, block in solvers_block.items():
            make = SOLVERS.get(section, (None,))[0]  # a row with no config: no section
            if make is None:
                problems.append(f"unknown key solvers.{section}")
                continue
            typed = len(problems)
            _check_section(problems, solvers_block, f"solvers.{section}", {},
                           _field_types(getattr(make, "func", make), _NOT_OVERRIDABLE))
            if len(problems) == typed:
                try:  # the range rules live on the solver configs' fields
                    make(**block)
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
            coefficients = {key: _convert(problems, f"propulsion.{key}", value)
                            for key, value in propulsion_block.items()}
        if problems:
            raise ConfigError(
                "invalid scenario: " + "; ".join(sorted(problems)))

        # Range rules, and geometry problems (start or goal outside the
        # arena), surface at load time rather than on first use.
        pairs = {key: tuple(map(float, value))
                 for key, value in geometry_block.items() if key != "altitude_m"}
        try:
            system = SystemParams(**sys_kwargs, bounds_m=(
                pairs["arena_x_m"], pairs["arena_y_m"], pairs["arena_z_m"]))
            # lambda1_literal keeps a dimensionally odd convention available
            scaled = {"profile_speed_factor": coefficients["profile_speed_factor"]
                      * system.slot_duration_s} if modes["lambda1_literal"] else {}
            if math.isinf(scaled.get("profile_speed_factor", 0.0)):
                raise ConfigError(
                    "invalid scenario: propulsion.profile_speed_factor times the "
                    "slot duration (modes.lambda1_literal) overflows a float")
            try:  # the range rules live on the propulsion fields
                propulsion = PropulsionParams(**{**coefficients, **scaled})
            except ParameterError as err:  # each problem starts with its key
                raise ConfigError("invalid scenario: " + "; ".join(sorted(
                    f"propulsion.{item}" for item in err.problems))) from None
            altitude = system.altitude_m
            cfg = cls(
                name=name,
                raw={
                    "schema_version": 1,
                    "name": name,
                    "system": {**{k: system_block[k] for k in _SYSTEM_KEYS},
                               "light_speed_mps": system.light_speed_mps},
                    "geometry": {k: geometry_block[k] for k in _GEOMETRY_KEYS},
                    "propulsion": coefficients,
                    "modes": modes,
                    "solvers": overrides,
                },
                problem=LinkProblem(
                    system, propulsion,
                    source=(*pairs["source_xy_m"], 0.0),
                    user=(*pairs["user_xy_m"], 0.0),
                    start=(*pairs["start_xy_m"], altitude),
                    goal=(*pairs["final_xy_m"], altitude),
                    penalty_mode=modes["penalty_mode"],
                    rate_weighting=modes["rate_weighting"],
                    fixed_altitude=modes["fixed_altitude"]),
                solver_overrides=overrides,
            )
        except MemoryError as exc:  # the problem sizes its arrays by the slot count
            raise ConfigError(
                "invalid scenario: system.slot_count is too large for the "
                f"problem's arrays (got {system.slot_count})") from exc
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        except OverflowError as exc:  # float division on huge values
            raise ConfigError("invalid scenario: deriving the slot duration "
                              "overflows a float") from exc
        return cfg

    def scenario_hash(self) -> str:
        compact = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(compact.encode("utf-8")).hexdigest()

    # ------------------------------------------------------------------
    # Derivations
    # ------------------------------------------------------------------

    def build_problem(self) -> LinkProblem:
        """The scenario's problem, built once at load."""
        return self.problem

    def parameter_path(self, parameter: str) -> "tuple[str, str]":
        """The ``(section, key)`` of a swept parameter: a dotted path into
        the document (``system.wpt_power_db``) or a bare key that occurs in
        exactly one section (``wpt_power_db``)."""
        if "." in parameter:
            section, key = parameter.split(".", 1)
            if not isinstance(block := self.raw.get(section), dict) or key not in block:
                raise ConfigError(f"unknown sweep parameter {parameter!r}")
            return section, key
        hits = [section for section in ("system", "geometry", "modes")
                if parameter in self.raw.get(section, {})]
        if len(hits) != 1:
            raise ConfigError(
                f"sweep parameter {parameter!r} matches {len(hits)} sections; "
                f"use a dotted path")
        return hits[0], parameter

    def with_value(self, parameter: str, value) -> "ScenarioConfig":
        """A copy of this scenario with one swept parameter replaced
        (see :meth:`parameter_path`)."""
        section, key = self.parameter_path(parameter)
        doc = json.loads(json.dumps(self.raw))
        doc[section][key] = value
        return ScenarioConfig.from_dict(doc, default_name=self.name)
