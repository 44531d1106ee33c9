"""Declared range rules of the parameter dataclasses.

Every numeric field of the model's parameter bundles and of the solver
configs declares its range as a rule in its field metadata, unless it is
named in ``EXEMPT``.  Every rule accepts finite values only.
"""

import dataclasses

import pytest

from helpers import small_propulsion, small_system_params
from uavbsc.ga import GaConfig
from uavbsc.model import ParameterError, RotorConstants
from uavbsc.pso import PsoConfig

ROTOR = dict(
    profile_drag_coeff=0.012, air_density_kgm3=1.225,
    rotor_solidity=0.05, disc_area_m2=0.503,
    blade_angular_velocity_rad_s=300.0, rotor_radius_m=0.4,
    induced_power_factor=0.1, aircraft_weight_n=20.0,
    fuselage_drag_coeff=0.6, mean_induced_velocity_ms=4.03)

# A valid instance of each class with rules.
VALID = {
    "SystemParams": small_system_params,
    "RotorConstants": lambda: RotorConstants(**ROTOR),
    "PropulsionParams": small_propulsion,
    "GaConfig": GaConfig,
    "PsoConfig": PsoConfig,
}

# The fields with no single-field range rule: an integer count checked
# with the other system rules, the arena box, seeds, the swarm variant
# and the nested rotor constants.
EXEMPT = {"slot_count", "bounds_m", "seed", "variant", "rotor"}

CASES = [(name, f.name) for name, make in VALID.items()
         for f in dataclasses.fields(make())]


@pytest.mark.parametrize("cls, name", CASES, ids=[".".join(c) for c in CASES])
def test_every_field_has_a_finite_range_rule_or_an_exemption(cls, name):
    valid = VALID[cls]()
    field = next(f for f in dataclasses.fields(valid) if f.name == name)
    assert ("rule" in field.metadata) != (name in EXEMPT)
    if name in EXEMPT:
        return
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ParameterError) as err:
            dataclasses.replace(valid, **{name: bad})
        assert any(p.startswith(f"{name} ") and p.endswith(f"(got {bad})")
                   for p in err.value.problems), err.value.problems
    try:  # a huge int compares exactly, without converting to a float
        dataclasses.replace(valid, **{name: 10**400})
    except ParameterError:
        pass


def test_every_exemption_names_a_checked_field():
    # A stale exemption would silently exempt a field added later.
    assert EXEMPT <= {name for _, name in CASES}
