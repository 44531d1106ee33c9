"""Physics layer: geometry, rates, energy, propulsion.

Expected values come from the scalar second-route implementations in
``oracles.py`` or from hand-derived closed forms.  The norm-based
geometry helpers and the Monte-Carlo channel sampler of ``oracles.py``
are checked here too, and the sampler backs the closed-form rate.
"""

import dataclasses
import math

import numpy as np
import pytest

import oracles
from helpers import (
    downlink_kwargs,
    fly_kwargs,
    harvest_kwargs,
    random_propulsion,
    random_system_params,
    small_propulsion,
    small_system_params,
    uplink_kwargs,
)
from oracles import distance, hop_lengths, sample_channel, slot_speed
from uavbsc.encoding import LinkProblem
from uavbsc.model import (
    EULER_GAMMA,
    ParameterError,
    PropulsionParams,
    RotorConstants,
    Trajectory,
    as_position,
    as_time_split,
    doppler_factor,
    flying_power,
    harvested_energy_slot,
    rate_downlink,
    rate_uplink,
)


# ----------------------------------------------------------------------
# Geometry primitives
# ----------------------------------------------------------------------

def test_euler_gamma_constant_value():
    assert math.isclose(EULER_GAMMA, oracles.EULER_GAMMA_REF,
                        rel_tol=0, abs_tol=1e-9)


def test_as_position_accepts_three_vector():
    p = as_position([1, 2, 3])
    assert p.shape == (3,) and p.dtype == np.float64
    assert list(p) == [1.0, 2.0, 3.0]


def test_as_position_rejects_bad_shapes_and_nonfinite():
    with pytest.raises(ValueError):
        as_position([1.0, 2.0])
    with pytest.raises(ValueError):
        as_position([[1.0, 2.0, 3.0]])
    with pytest.raises(ValueError):
        as_position([1.0, float("nan"), 3.0])


def test_as_time_split_validates_range_shape_and_length():
    out = as_time_split([0.0, 0.5, 1.0])
    assert out.tolist() == [0.0, 0.5, 1.0]
    with pytest.raises(ValueError):
        as_time_split([[0.5]])
    with pytest.raises(ValueError):
        as_time_split([0.5, 0.5], n_slots=3)
    with pytest.raises(ValueError):
        as_time_split([0.5, 1.0001])
    with pytest.raises(ValueError):
        as_time_split([-0.0001])
    with pytest.raises(ValueError):
        as_time_split([float("inf")])


def test_trajectory_validation_and_hop_lengths():
    traj = Trajectory([[0, 0, 5], [3, 4, 5], [3, 4, 10]])
    assert traj.n_slots == 2
    assert hop_lengths(traj).tolist() == [5.0, 5.0]
    with pytest.raises(ValueError):
        Trajectory([[0, 0, 5]])
    with pytest.raises(ValueError):
        Trajectory([[0, 0], [1, 1]])
    with pytest.raises(ValueError):
        Trajectory([[0, 0, 5], [1, 1, float("nan")]])


def test_distance_scalar_and_stack():
    assert distance([0, 0, 0], [3, 4, 0]) == 5.0
    stack = distance(np.array([[0, 0, 0], [1, 1, 1]]), np.zeros(3))
    assert stack.shape == (2,)
    assert stack[0] == 0.0
    assert math.isclose(stack[1], math.sqrt(3.0), rel_tol=1e-15)


def test_slot_speed_values_and_errors():
    traj = Trajectory([[0, 0, 5], [3, 4, 5], [3, 4, 5]])
    assert slot_speed(traj, 1, 2.5) == 2.0
    assert slot_speed(traj, 2, 2.5) == 0.0
    with pytest.raises(IndexError):
        slot_speed(traj, 0, 2.5)
    with pytest.raises(IndexError):
        slot_speed(traj, 3, 2.5)
    with pytest.raises(ValueError):
        slot_speed(traj, 1, 0.0)


# ----------------------------------------------------------------------
# Channel time-selectivity
# ----------------------------------------------------------------------

def test_doppler_factor_is_one_at_standstill():
    params = small_system_params()
    assert doppler_factor(0.0, params) == 1.0


def test_doppler_factor_stays_in_unit_interval():
    params = small_system_params()
    rng = np.random.default_rng(3)
    speeds = rng.uniform(0.0, 200.0, size=1000)
    vals = doppler_factor(speeds, params)
    assert np.all(vals >= 0.0) and np.all(vals <= 1.0)


def test_doppler_factor_matches_series_oracle():
    params = small_system_params()
    for speed in (0.0, 0.7, 1.25, 5.0, 17.3, 60.0, 140.0):
        expected = oracles.correlation_reference(
            speed,
            carrier_freq_hz=params.carrier_freq_hz,
            light_speed_mps=params.light_speed_mps,
            sampling_time_s=params.sampling_time_s,
        )
        got = doppler_factor(speed, params)
        assert abs(got - expected) <= 1e-12


def test_doppler_factor_vectorized_matches_scalar():
    params = small_system_params()
    speeds = np.array([0.0, 1.0, 3.5, 12.0])
    vec = doppler_factor(speeds, params)
    for s, v in zip(speeds, vec):
        assert v == doppler_factor(float(s), params)


# ----------------------------------------------------------------------
# Rates
# ----------------------------------------------------------------------

def test_rate_uplink_matches_reference_formula():
    rng = np.random.default_rng(11)
    for _ in range(50):
        p = random_system_params(rng)
        d = float(rng.uniform(1.0, 200.0))
        corr = float(rng.uniform(0.0, 1.0))
        got = rate_uplink(d, corr, p)
        expected = oracles.uplink_rate_reference(d, corr, **uplink_kwargs(p))
        assert math.isclose(got, expected, rel_tol=1e-12, abs_tol=1e-12)


def test_rate_uplink_decreases_with_distance():
    p = small_system_params()
    assert rate_uplink(10.0, 0.9, p) > rate_uplink(20.0, 0.9, p)


def test_rate_uplink_zero_correlation_gives_zero_rate():
    p = small_system_params()
    assert rate_uplink(10.0, 0.0, p) == 0.0


def test_rate_uplink_rejects_nonpositive_distance():
    p = small_system_params()
    with pytest.raises(ValueError):
        rate_uplink(0.0, 0.5, p)
    with pytest.raises(ValueError):
        rate_uplink(-3.0, 0.5, p)


def test_rate_downlink_matches_reference_formula():
    rng = np.random.default_rng(12)
    for _ in range(50):
        p = random_system_params(rng)
        d_su = float(rng.uniform(1.0, 200.0))
        d_du = float(rng.uniform(1.0, 200.0))
        corr = float(rng.uniform(0.0, 1.0))
        got = rate_downlink(d_su, d_du, corr, p)
        expected = oracles.downlink_rate_reference(
            d_su, d_du, corr, **downlink_kwargs(p))
        assert math.isclose(got, expected, rel_tol=1e-12, abs_tol=1e-12)


def test_rate_downlink_cache_indicator_is_ceiling_of_fraction():
    # Any nonzero cached fraction unlocks the tag's own transmission term;
    # exactly zero removes it.
    without = small_system_params(cached_fraction=0.0)
    tiny_frac = small_system_params(cached_fraction=1e-9)
    full = small_system_params(cached_fraction=1.0)
    assert without.cache_indicator == 0
    assert tiny_frac.cache_indicator == 1
    assert full.cache_indicator == 1
    r_without = rate_downlink(20.0, 30.0, 0.9, without)
    r_tiny = rate_downlink(20.0, 30.0, 0.9, tiny_frac)
    r_full = rate_downlink(20.0, 30.0, 0.9, full)
    assert r_tiny == r_full
    assert r_tiny > r_without


def test_rate_downlink_rejects_nonpositive_distances():
    p = small_system_params()
    with pytest.raises(ValueError):
        rate_downlink(0.0, 10.0, 0.5, p)
    with pytest.raises(ValueError):
        rate_downlink(10.0, 0.0, 0.5, p)


# ----------------------------------------------------------------------
# Energy
# ----------------------------------------------------------------------

def test_harvested_energy_matches_reference_formula():
    rng = np.random.default_rng(13)
    for _ in range(50):
        p = random_system_params(rng)
        d = float(rng.uniform(1.0, 200.0))
        split = float(rng.uniform(0.0, 1.0))
        got = harvested_energy_slot(d, split, p)
        expected = oracles.harvested_energy_reference(
            d, split, **harvest_kwargs(p))
        assert math.isclose(got, expected, rel_tol=1e-12, abs_tol=1e-18)


def test_harvested_energy_zero_when_always_active():
    p = small_system_params()
    assert harvested_energy_slot(12.0, 1.0, p) == 0.0


def test_harvested_energy_linear_in_idle_fraction():
    p = small_system_params()
    quarter = harvested_energy_slot(12.0, 0.75, p)
    half = harvested_energy_slot(12.0, 0.5, p)
    assert math.isclose(2.0 * quarter, half, rel_tol=1e-12)


def test_flying_power_matches_literal_induced_form():
    rng = np.random.default_rng(14)
    for _ in range(200):
        prop = random_propulsion(rng)
        v = float(rng.uniform(0.0, 30.0))
        got = flying_power(v, prop)
        expected = oracles.flying_power_reference(v, **fly_kwargs(prop))
        assert math.isclose(got, expected, rel_tol=1e-11)


def test_flying_power_hover_is_profile_plus_induced():
    rng = np.random.default_rng(15)
    for _ in range(20):
        prop = random_propulsion(rng)
        hover = flying_power(0.0, prop)
        expected = prop.profile_power_w + prop.induced_power_w
        assert math.isclose(hover, expected, rel_tol=1e-15)


def test_flying_power_rejects_negative_speed():
    with pytest.raises(ValueError):
        flying_power(-0.1, small_propulsion())


def test_flying_power_vectorized_matches_scalar():
    prop = small_propulsion()
    speeds = np.array([0.0, 1.0, 5.0, 12.5])
    vec = flying_power(speeds, prop)
    for s, v in zip(speeds, vec):
        assert v == flying_power(float(s), prop)


def test_consumption_energy_matches_reference_formula():
    # The energy an evaluation spends per slot (propulsion for the whole
    # slot, tag circuitry and cached-data transmitter while active).
    rng = np.random.default_rng(16)
    for _ in range(50):
        p = random_system_params(rng)
        prop = random_propulsion(rng)
        n = p.slot_count
        sd = p.slot_duration_s
        alt = p.altitude_m
        problem = LinkProblem(p, prop, source=(0.0, 0.0, 0.0),
                              user=(50.0, 0.0, 0.0), start=(-50.0, 0.0, alt),
                              goal=(50.0, 0.0, alt))
        hops = rng.uniform(0.0, 30.0, size=n) * sd
        waypoints = np.zeros((n + 1, 3))
        waypoints[:, 0] = -50.0 + np.concatenate([[0.0], np.cumsum(hops)])
        waypoints[:, 2] = alt
        split = rng.uniform(0.0, 1.0, size=n)
        table = problem.slot_table(Trajectory(waypoints), split)
        got = table.fly_j + table.backscatter_j + table.cache_j
        for i in range(n):
            expected = oracles.consumption_reference(
                float(table.speed_mps[i]), float(split[i]),
                slot_duration_s=sd,
                backscatter_circuit_power_w=p.backscatter_circuit_power_w,
                tag_tx_power_w=p.ub_tx_power_w,
                fly=fly_kwargs(prop),
            )
            assert math.isclose(got[i], expected, rel_tol=1e-11)


# ----------------------------------------------------------------------
# Parameter bundles
# ----------------------------------------------------------------------

def test_system_params_reports_every_violation_at_once():
    with pytest.raises(ValueError) as err:
        small_system_params(
            bandwidth_hz=0.0,
            harvest_eff=1.5,
            slot_count=0,
            altitude_m=0.2,
        )
    message = str(err.value)
    for fragment in ("bandwidth_hz", "harvest_eff", "slot_count", "altitude_m"):
        assert fragment in message


def test_system_params_altitude_must_sit_inside_z_bounds():
    with pytest.raises(ValueError) as err:
        small_system_params(altitude_m=45.0, bounds_m=((0, 1), (0, 1), (1, 40)))
    assert "z bounds" in str(err.value)


def test_system_params_bounds_must_be_ordered():
    with pytest.raises(ValueError) as err:
        small_system_params(bounds_m=((5.0, 5.0), (0.0, 1.0), (1.0, 40.0)))
    assert "lo < hi" in str(err.value)


def test_system_params_slot_duration():
    p = small_system_params(mission_time_s=40.0, slot_count=8)
    assert p.slot_duration_s == 5.0


def test_propulsion_params_rejects_negative_coefficients():
    with pytest.raises(ValueError) as err:
        PropulsionParams(
            profile_power_w=-1.0, induced_power_w=1.0,
            profile_speed_factor=0.1, induced_speed_factor=0.1,
            parasite_drag_factor=-0.5)
    message = str(err.value)
    assert "profile_power_w" in message and "parasite_drag_factor" in message


def test_rotor_constants_reject_nonpositive_values():
    good = dict(
        profile_drag_coeff=0.012, air_density_kgm3=1.225,
        rotor_solidity=0.05, disc_area_m2=0.503,
        blade_angular_velocity_rad_s=300.0, rotor_radius_m=0.4,
        induced_power_factor=0.1, aircraft_weight_n=20.0,
        fuselage_drag_coeff=0.6, mean_induced_velocity_ms=4.03)
    RotorConstants(**good)
    with pytest.raises(ValueError):
        RotorConstants(**{**good, "air_density_kgm3": 0.0})
    with pytest.raises(ValueError):
        RotorConstants(**{**good, "induced_power_factor": -0.1})


def test_from_rotor_derives_hand_computed_coefficients():
    rotor = RotorConstants(
        profile_drag_coeff=0.012, air_density_kgm3=1.225,
        rotor_solidity=0.05, disc_area_m2=0.503,
        blade_angular_velocity_rad_s=300.0, rotor_radius_m=0.4,
        induced_power_factor=0.1, aircraft_weight_n=20.0,
        fuselage_drag_coeff=0.6, mean_induced_velocity_ms=4.03)
    prop = PropulsionParams.from_rotor(rotor)

    # Blade profile power: (drag/8) * rho * solidity * area * (omega R)^3
    # regrouped as a tip-speed cube to make the check a second route.
    tip_speed = 300.0 * 0.4
    profile = 0.012 / 8.0 * 1.225 * 0.05 * 0.503 * tip_speed ** 3
    assert math.isclose(prop.profile_power_w, profile, rel_tol=1e-12)

    induced = 1.1 * 20.0 ** 1.5 / math.sqrt(2.0 * 1.225 * 0.503)
    assert math.isclose(prop.induced_power_w, induced, rel_tol=1e-12)

    assert math.isclose(prop.profile_speed_factor, 3.0 / tip_speed ** 2,
                        rel_tol=1e-12)
    assert math.isclose(prop.induced_speed_factor, 1.0 / (2.0 * 4.03 ** 2),
                        rel_tol=1e-12)
    assert math.isclose(prop.parasite_drag_factor,
                        0.5 * 0.6 * 1.225 * 0.05 * 0.503, rel_tol=1e-12)
    assert prop.rotor is rotor


def test_from_rotor_literal_profile_scaling_flag():
    rotor = RotorConstants(
        profile_drag_coeff=0.012, air_density_kgm3=1.225,
        rotor_solidity=0.05, disc_area_m2=0.503,
        blade_angular_velocity_rad_s=300.0, rotor_radius_m=0.4,
        induced_power_factor=0.1, aircraft_weight_n=20.0,
        fuselage_drag_coeff=0.6, mean_induced_velocity_ms=4.03)
    plain = PropulsionParams.from_rotor(rotor)
    scaled = PropulsionParams.from_rotor(
        rotor, slot_duration=5.0, literal_profile_scaling=True)
    assert math.isclose(scaled.profile_speed_factor,
                        5.0 * plain.profile_speed_factor, rel_tol=1e-15)
    assert scaled.profile_power_w == plain.profile_power_w
    with pytest.raises(ValueError):
        PropulsionParams.from_rotor(rotor, literal_profile_scaling=True)


@pytest.mark.parametrize("name, value, named", [
    ("blade_angular_velocity_rad_s", 1e300,
     "blade_angular_velocity_rad_s * rotor_radius_m"),
    ("rotor_radius_m", 1e300, "blade_angular_velocity_rad_s * rotor_radius_m"),
    ("blade_angular_velocity_rad_s", 1e103, "blade_angular_velocity_rad_s"),
    ("aircraft_weight_n", 1e300, "aircraft_weight_n"),
    ("mean_induced_velocity_ms", 1e300, "mean_induced_velocity_ms"),
])
def test_from_rotor_names_the_constants_whose_power_overflows(name, value,
                                                              named):
    rotor = RotorConstants(
        profile_drag_coeff=0.012, air_density_kgm3=1.225,
        rotor_solidity=0.05, disc_area_m2=0.503,
        blade_angular_velocity_rad_s=300.0, rotor_radius_m=0.4,
        induced_power_factor=0.1, aircraft_weight_n=20.0,
        fuselage_drag_coeff=0.6, mean_induced_velocity_ms=4.03)
    with pytest.raises(ParameterError) as err:
        PropulsionParams.from_rotor(dataclasses.replace(rotor, **{name: value}))
    [problem] = err.value.problems
    assert problem.startswith(f"{named} is too large: its power ")
    assert str(err.value).startswith("invalid rotor constants: ")


def test_system_params_reject_a_slot_count_whose_duration_overflows():
    # mission_time_s / slot_count raises OverflowError for such a count.
    with pytest.raises(ParameterError) as err:
        small_system_params(slot_count=10**400)
    [problem] = err.value.problems
    assert problem.startswith("slot_count must be a positive integer that "
                              "fits a float (got 1000")


# ----------------------------------------------------------------------
# Channel sampling
# ----------------------------------------------------------------------

def test_sample_channel_is_deterministic_per_seed():
    p = small_system_params()
    a = sample_channel(12.0, 0.8, p, np.random.default_rng(5), size=16)
    b = sample_channel(12.0, 0.8, p, np.random.default_rng(5), size=16)
    assert np.array_equal(a.realized, b.realized)
    assert np.array_equal(a.estimated, b.estimated)


def test_sample_channel_requires_scalar_distance():
    p = small_system_params()
    with pytest.raises(ValueError):
        sample_channel([10.0, 12.0], 0.8, p, np.random.default_rng(0))
    with pytest.raises(ValueError):
        sample_channel(0.0, 0.8, p, np.random.default_rng(0))


def test_sample_channel_line_of_sight_phasor():
    p = small_system_params()
    d = 17.0
    sample = sample_channel(d, 0.9, p, np.random.default_rng(1), size=4)
    assert np.allclose(np.abs(sample.los), 1.0, rtol=0, atol=1e-12)
    wavelength = p.light_speed_mps / p.carrier_freq_hz
    expected = np.exp(-2j * math.pi * d / wavelength)
    assert np.allclose(sample.los, expected, rtol=0, atol=1e-12)


def test_sample_channel_full_correlation_reproduces_estimate():
    p = small_system_params()
    sample = sample_channel(10.0, 1.0, p, np.random.default_rng(2), size=8)
    assert np.allclose(sample.realized, sample.estimated, rtol=0, atol=0)


def test_sample_channel_zero_correlation_is_pure_error():
    p = small_system_params()
    sample = sample_channel(10.0, 0.0, p, np.random.default_rng(2), size=8)
    assert np.allclose(sample.realized, sample.error, rtol=0, atol=0)


def test_sample_channel_small_scale_mixture_power():
    # The LoS/scatter mixture has unit average power; estimate magnitude
    # scales it by the root of the distance-based channel gain.
    p = small_system_params(rician_factor=5.0)
    sample = sample_channel(
        25.0, 0.9, p, np.random.default_rng(9), size=40000)
    mean_power = float(np.mean(np.abs(sample.small_scale) ** 2))
    assert math.isclose(mean_power, 1.0, rel_tol=0.03)
    gain = p.ref_gain * 25.0 ** (-p.path_loss_exp)
    ratio = np.abs(sample.estimated) / np.abs(sample.small_scale)
    assert np.allclose(ratio, math.sqrt(gain), rtol=1e-12)


def test_sample_channel_scalar_size_returns_scalar_arrays():
    p = small_system_params()
    sample = sample_channel(10.0, 0.5, p, np.random.default_rng(3))
    assert np.ndim(sample.realized) == 0
    assert np.ndim(sample.small_scale) == 0


# ----------------------------------------------------------------------
# Closed-form rate against Monte-Carlo channel draws
# ----------------------------------------------------------------------

@pytest.mark.parametrize("d", [5.0, 20.0, 60.0])
def test_closed_form_uplink_rate_lower_bounds_monte_carlo_rate(
        reference_problem, d):
    # Jensen: E[log2(1 + c|h|^2)] >= log2(1 + c exp(E[ln|h|^2])), and for
    # Rician |h|^2 of unit power E[ln|h|^2] >= -gamma, so the e^-gamma
    # closed form sits below the ergodic rate of a perfectly known channel.
    p = reference_problem.params
    sample = sample_channel(d, 1.0, p, np.random.default_rng(11),
                            size=400_000)
    snr = (p.ref_gain * p.source_power_w * np.abs(sample.small_scale) ** 2
           / (d ** p.path_loss_exp * p.noise_var_uplink_w))
    rates = p.bandwidth_hz * np.log2(1.0 + snr)
    se = float(np.std(rates)) / math.sqrt(rates.size)
    assert rate_uplink(d, 1.0, p) < float(np.mean(rates)) - 5.0 * se


@pytest.mark.parametrize("d_su, d_du, cached", [(20.0, 30.0, 0.0),
                                                (20.0, 30.0, 0.5),
                                                (5.0, 5.0, 0.0)])
def test_closed_form_downlink_rate_sits_below_monte_carlo_rate(
        reference_problem, d_su, d_du, cached):
    # The reflected term fades with both hops, |h1|^2 |h2|^2, and the cached
    # term with the tag-to-user hop only, |h2|^2.  A Jensen bound on the
    # product of two hops would carry e^-2gamma, not the closed form's one
    # e^-gamma, so this is no bound in general: it is asserted only at the
    # reference scenario's Rician factor, for perfectly known channels.
    p = dataclasses.replace(reference_problem.params, cached_fraction=cached)
    rng = np.random.default_rng(13)
    h1 = np.abs(sample_channel(d_su, 1.0, p, rng, size=400_000).small_scale) ** 2
    h2 = np.abs(sample_channel(d_du, 1.0, p, rng, size=400_000).small_scale) ** 2
    reflected = (p.backscatter_coeff * p.ref_gain * p.source_power_w
                 / d_su ** p.path_loss_exp)
    cached_power = p.cache_indicator * p.ub_tx_power_w
    snr = (p.ref_gain * (reflected * h1 * h2 + cached_power * h2)
           / (d_du ** p.path_loss_exp * p.noise_var_downlink_w))
    rates = p.bandwidth_hz * np.log2(1.0 + snr)
    se = float(np.std(rates)) / math.sqrt(rates.size)
    assert rate_downlink(d_su, d_du, 1.0, p) < float(np.mean(rates)) - 5.0 * se


def test_rayleigh_channel_log_power_mean_is_minus_euler_gamma(
        reference_problem):
    # With no LoS component |h|^2 is Exp(1), whose log has mean -gamma:
    # the constant the closed-form rates are built on.
    p = dataclasses.replace(reference_problem.params, rician_factor=0.0)
    rng = np.random.default_rng(12)
    log_power = np.concatenate([
        np.log(np.abs(sample_channel(10.0, 1.0, p, rng,
                                     size=250_000).small_scale) ** 2)
        for _ in range(4)])
    se = float(np.std(log_power)) / math.sqrt(log_power.size)
    assert abs(float(np.mean(log_power)) + EULER_GAMMA) < 5.0 * se
