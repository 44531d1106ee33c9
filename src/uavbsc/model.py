"""Physical model of a rotary-wing UAV carrying a backscatter tag.

The aircraft relays data from a powering ground station to a ground user:
during each mission slot it splits time between reflecting fresh uplink
symbols / forwarding cached ones (active fraction) and harvesting RF energy
(the remaining fraction).  This module provides the building blocks:

* mission geometry (validated positions, time splits and waypoints),
* the time-selective channel quality factor derived from Doppler,
* closed-form per-slot achievable rates of both hops,
* per-slot harvested and consumed energy, including a rotary-wing
  propulsion power curve.

All functions are pure, accept scalars or numpy arrays, and use SI units
(meters, seconds, watts, hertz) unless a name says otherwise.
"""

from __future__ import annotations

import math
import sys
from dataclasses import MISSING, dataclass, field, fields
from typing import Optional

import numpy as np

__all__ = [
    "EULER_GAMMA",
    "ParameterError",
    "Trajectory",
    "RotorConstants",
    "PropulsionParams",
    "SystemParams",
    "as_position",
    "as_time_split",
    "bessel_j0",
    "link_terms",
    "doppler_factor",
    "rate_uplink",
    "rate_downlink",
    "harvested_energy_slot",
    "flying_power",
]

# Euler-Mascheroni constant as used by the ergodic-rate closed forms.
EULER_GAMMA = 0.5772156649


# ======================================================================
# Geometry
# ======================================================================

def as_position(p) -> np.ndarray:
    """Validate and return a 3-D position as a float64 array of shape (3,)."""
    arr = np.asarray(p, dtype=np.float64)
    if arr.shape != (3,):
        raise ValueError(f"a position must have shape (3,), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("position coordinates must be finite")
    return arr


def as_time_split(values, n_slots: Optional[int] = None) -> np.ndarray:
    """Validate a per-slot active-time fraction vector (entries in [0, 1])."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"time split must be a 1-D vector, got shape {arr.shape}")
    if n_slots is not None and arr.size != n_slots:
        raise ValueError(f"time split has {arr.size} entries, expected {n_slots}")
    if not np.all((arr >= 0.0) & (arr <= 1.0)):  # false for NaN and +-inf too
        raise ValueError("time split entries must lie in [0, 1]")
    return arr


@dataclass(eq=False)
class Trajectory:
    """Ordered mission waypoints, one per slot boundary (shape (N+1, 3) m)."""

    waypoints: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.waypoints, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != 3:
            raise ValueError(f"waypoints must have shape (M, 3), got {arr.shape}")
        if arr.shape[0] < 2:
            raise ValueError("a trajectory needs at least two waypoints")
        if not np.all(np.isfinite(arr)):
            raise ValueError("waypoint coordinates must be finite")
        self.waypoints = arr

    @property
    def n_slots(self) -> int:
        """Number of mission slots (one fewer than the waypoint count)."""
        return self.waypoints.shape[0] - 1


# ======================================================================
# Zeroth-order Bessel function of the first kind
# ======================================================================
#
# Piecewise evaluation: on [0, 5] a rational approximation anchored at the
# first two zeros of the function, above 5 the Hankel asymptotic form with
# degree-6/6 and 7/7 rational factors.  Absolute error stays below 1e-10
# over the argument range the Doppler model can produce (verified against
# an independent power-series/asymptotic oracle in the test suite).

_J0_DR1 = 5.78318596294678452118e0
_J0_DR2 = 3.04712623436620863991e1
_J0_SQ2OPI = 7.9788456080286535587989e-1  # sqrt(2 / pi)
_J0_PIO4 = 7.85398163397448309616e-1  # pi / 4

_J0_RP = np.array([
    -4.79443220978201773821e9,
    1.95617491946556577543e12,
    -2.49248344360967716204e14,
    9.70862251047306323952e15,
])
_J0_RQ = np.array([  # leading x^8 coefficient is 1 and is handled implicitly
    4.99563147152651017219e2,
    1.73785401676374683123e5,
    4.84409658339962045305e7,
    1.11855537045356834862e10,
    2.11277520115489217587e12,
    3.10518229857422583814e14,
    3.18121955943204943306e16,
    1.71086294081043136091e18,
])
_J0_PP = np.array([
    7.96936729297347051624e-4,
    8.28352392107440799803e-2,
    1.23953371646414299388e0,
    5.44725003058768775090e0,
    8.74716500199817011941e0,
    5.30324038235394892183e0,
    9.99999999999999997821e-1,
])
_J0_PQ = np.array([
    9.24408810558863637013e-4,
    8.56288474354474431428e-2,
    1.25352743901058953537e0,
    5.47097740330417105182e0,
    8.76190883237069594232e0,
    5.30605288235394617618e0,
    1.00000000000000000218e0,
])
_J0_QP = np.array([
    -1.13663838898469149931e-2,
    -1.28252718670509318512e0,
    -1.95539544257735972385e1,
    -9.32060152123768231369e1,
    -1.77681167980488050595e2,
    -1.47077505154951170175e2,
    -5.14105326766599330220e1,
    -6.05014350600728481186e0,
])
_J0_QQ = np.array([  # leading x^7 coefficient is 1 and is handled implicitly
    6.43178256118178023184e1,
    8.56430025976980587198e2,
    3.88240183605401609683e3,
    7.24046774195652478189e3,
    5.93072701187316984827e3,
    2.06209331660327847417e3,
    2.42005740240291393179e2,
])


def _polevl(x: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """Horner evaluation of a polynomial with explicit leading coefficient.

    Every step multiplies, then adds, in place.
    """
    ans = x * coef[0]
    ans += coef[1]
    for c in coef[2:]:
        ans *= x
        ans += c
    return ans


def _p1evl(x: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """Horner evaluation of a monic polynomial (implicit leading 1)."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans *= x
        ans += c
    return ans


def _j0_rational(xx: np.ndarray) -> np.ndarray:
    """J0 on [1e-5, 5] by the rational form anchored at its first two zeros."""
    z = xx ** 2
    p = z - _J0_DR1
    p *= z - _J0_DR2
    p *= _polevl(z, _J0_RP)
    p /= _p1evl(z, _J0_RQ)
    return p


def bessel_j0(x):
    """Zeroth-order Bessel function of the first kind, J0(x).

    Vectorized over numpy inputs; returns a float for scalar input.
    """
    arr = np.abs(np.asarray(x, dtype=np.float64))
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    # Common case: every argument in the rational branch, so skip the masks.
    if arr.size and arr.min() >= 1e-5 and arr.max() <= 5.0:
        out = _j0_rational(arr)
    else:
        out = np.full_like(arr, np.nan)  # NaN matches no branch below
        tiny = arr < 1e-5
        small = (~tiny) & (arr <= 5.0)
        large = arr > 5.0

        if np.any(tiny):
            z = arr[tiny]
            out[tiny] = 1.0 - z * z / 4.0

        if np.any(small):
            out[small] = _j0_rational(arr[small])

        if np.any(large):
            xx = arr[large]
            w = 5.0 / xx
            q = 25.0 / (xx * xx)
            p = _polevl(q, _J0_PP) / _polevl(q, _J0_PQ)
            qq = _polevl(q, _J0_QP) / _p1evl(q, _J0_QQ)
            xn = xx - _J0_PIO4
            out[large] = (_J0_SQ2OPI * (p * np.cos(xn) - w * qq * np.sin(xn))
                          / np.sqrt(xx))

    return float(out[0]) if scalar else out


# ======================================================================
# Parameter bundles
# ======================================================================
#
# A numeric field declares its range once, in its dataclass field metadata:
# ``x: float = POSITIVE()`` is a required positive field, ``POSITIVE(2.0)``
# one defaulting to 2.0.  Each rule is written as the values it accepts, all
# finite, so NaN and +-inf break every rule; :func:`check_fields` checks them.

def _rule(text: str, accepts):
    """A range rule; calling it declares a dataclass field that carries it."""
    def declare(default=MISSING):
        return field(default=default, metadata={"rule": (text, accepts)})
    return declare


POSITIVE = _rule("must be positive", lambda v: 0 < v < math.inf)
NONNEGATIVE = _rule("must be nonnegative", lambda v: 0 <= v < math.inf)
UNIT_INTERVAL = _rule("must lie in [0, 1]", lambda v: 0 <= v <= 1)
POSITIVE_FRACTION = _rule("must lie in (0, 1]", lambda v: 0 < v <= 1)
FINITE = _rule("must be finite", lambda v: -math.inf < v < math.inf)
POSITIVE_OR_NONE = _rule("must be positive when set",
                         lambda v: v is None or 0 < v < math.inf)


def at_least(k, default=MISSING):
    """A dataclass field of finite values of at least ``k``."""
    return _rule(f"must be at least {k}", lambda v: k <= v < math.inf)(default)


class ParameterError(ValueError):
    """Parameters that break their rules; ``problems`` lists each one."""

    def __init__(self, label: str, problems: list) -> None:
        super().__init__(f"invalid {label}: " + "; ".join(problems))
        self.problems = problems


def check_fields(obj, label: str, problems=()) -> None:
    """Raise :class:`ParameterError` unless every rule of ``obj`` holds.

    Lists each field outside its declared rule, then the caller's
    cross-field ``problems``, all as "<field> <rule> (got <value>)".
    """
    found = []
    for f in fields(obj):
        text, accepts = f.metadata.get("rule", (None, None))
        if accepts is not None and not accepts(getattr(obj, f.name)):
            found.append(f"{f.name} {text} (got {getattr(obj, f.name)})")
    found += problems
    if found:
        raise ParameterError(label, found)


@dataclass(frozen=True)
class RotorConstants:
    """Raw rotary-wing constants from which the power curve is derived."""

    profile_drag_coeff: float = POSITIVE()  # blade profile drag coefficient (-)
    air_density_kgm3: float = POSITIVE()  # air density (kg/m^3)
    rotor_solidity: float = POSITIVE()  # rotor solidity (-)
    disc_area_m2: float = POSITIVE()  # rotor disc area (m^2)
    blade_angular_velocity_rad_s: float = POSITIVE()  # blade angular velocity (rad/s)
    rotor_radius_m: float = POSITIVE()  # rotor radius (m)
    induced_power_factor: float = NONNEGATIVE()  # incremental induced-power factor (-)
    aircraft_weight_n: float = POSITIVE()  # aircraft weight (N)
    fuselage_drag_coeff: float = NONNEGATIVE()  # fuselage drag coefficient (-)
    mean_induced_velocity_ms: float = POSITIVE()  # hover mean induced velocity (m/s)

    def __post_init__(self) -> None:
        check_fields(self, "rotor constants")


@dataclass(frozen=True)
class PropulsionParams:
    """Coefficients of the rotary-wing propulsion power curve.

    ``flying_power`` evaluates

        profile_power_w   * (1 + profile_speed_factor * v^2)
      + induced_power_w   * sqrt(sqrt(1 + (induced_speed_factor * v^2)^2)
                                 - induced_speed_factor * v^2)
      + parasite_drag_factor * v^3

    for a cruise speed ``v``.  Instances can be built directly or derived
    from :class:`RotorConstants` via :meth:`from_rotor`.
    """

    profile_power_w: float = NONNEGATIVE()  # blade profile power in hover (W)
    induced_power_w: float = NONNEGATIVE()  # induced power in hover (W)
    profile_speed_factor: float = NONNEGATIVE()  # profile power speed coeff (s^2/m^2)
    induced_speed_factor: float = NONNEGATIVE()  # induced power speed coeff (s^2/m^2)
    parasite_drag_factor: float = NONNEGATIVE()  # fuselage parasite drag coeff (kg/m)
    rotor: Optional[RotorConstants] = None

    def __post_init__(self) -> None:
        check_fields(self, "propulsion parameters")

    @classmethod
    def from_rotor(
        cls,
        rotor: RotorConstants,
        slot_duration: Optional[float] = None,
        literal_profile_scaling: bool = False,
    ) -> "PropulsionParams":
        """Derive the power-curve coefficients from raw rotor constants.

        With ``literal_profile_scaling`` the profile speed coefficient is
        additionally multiplied by the slot duration (an alternative,
        dimensionally odd convention kept available behind this flag).
        """
        def power(*names, exponent):  # of the product of the named constants
            value = math.prod(getattr(rotor, name) for name in names)
            try:
                return value**exponent
            except OverflowError:
                raise ParameterError("rotor constants", [
                    f"{' * '.join(names)} is too large: its power "
                    f"{exponent} overflows a float (got {value})"]) from None

        if literal_profile_scaling and slot_duration is None:
            raise ValueError("literal_profile_scaling requires the slot duration")
        profile_speed = 3.0 / power("blade_angular_velocity_rad_s",
                                    "rotor_radius_m", exponent=2)
        if literal_profile_scaling:
            profile_speed *= slot_duration
        profile_power = (
            rotor.profile_drag_coeff / 8.0
            * rotor.air_density_kgm3
            * rotor.rotor_solidity
            * rotor.disc_area_m2
            * power("blade_angular_velocity_rad_s", exponent=3)
            * power("rotor_radius_m", exponent=3)
        )
        induced_power = (
            (1.0 + rotor.induced_power_factor)
            * power("aircraft_weight_n", exponent=1.5)
            / math.sqrt(2.0 * rotor.air_density_kgm3 * rotor.disc_area_m2)
        )
        induced_speed = 1.0 / (2.0 * power("mean_induced_velocity_ms", exponent=2))
        parasite = (
            0.5
            * rotor.fuselage_drag_coeff
            * rotor.air_density_kgm3
            * rotor.rotor_solidity
            * rotor.disc_area_m2
        )
        return cls(
            profile_power_w=profile_power,
            induced_power_w=induced_power,
            profile_speed_factor=profile_speed,
            induced_speed_factor=induced_speed,
            parasite_drag_factor=parasite,
            rotor=rotor,
        )


@dataclass(frozen=True)
class SystemParams:
    """Link, power and mission parameters, all in linear SI units."""

    bandwidth_hz: float = POSITIVE()  # system bandwidth (Hz)
    ref_gain: float = POSITIVE()  # channel power gain at 1 m (-)
    path_loss_exp: float = POSITIVE()  # path-loss exponent (-)
    harvest_eff: float = POSITIVE_FRACTION()  # RF energy-harvesting efficiency (-)
    source_power_w: float = NONNEGATIVE()  # ground-station transmit power (W)
    wpt_power_w: float = NONNEGATIVE()  # ground-station wireless charging power (W)
    ub_tx_power_w: float = NONNEGATIVE()  # tag transmit power for cached data (W)
    backscatter_circuit_power_w: float = NONNEGATIVE()  # tag circuit power in use (W)
    backscatter_coeff: float = POSITIVE_FRACTION()  # backscatter reflection coeff (-)
    cached_fraction: float = UNIT_INTERVAL()  # share of demanded data in the cache (-)
    demanded_rate_bps: float = NONNEGATIVE()  # user demand on the mission rate sum
    noise_var_uplink_w: float = POSITIVE()  # noise variance at the tag receiver (W)
    noise_var_downlink_w: float = POSITIVE()  # noise variance at the user receiver (W)
    noise_var_estimation_w: float = NONNEGATIVE()  # channel-estimation noise variance
    rician_factor: float = NONNEGATIVE()  # small-scale LoS/NLoS power ratio (-)
    carrier_freq_hz: float = POSITIVE()  # carrier frequency (Hz)
    sampling_time_s: float = POSITIVE()  # symbol sampling interval (s)
    mission_time_s: float = POSITIVE()  # total mission duration (s)
    slot_count: int  # number of mission slots
    altitude_m: float = at_least(1)  # fixed flight altitude (m)
    max_speed_mps: float = POSITIVE()  # maximum cruise speed (m/s)
    bounds_m: tuple  # ((x_lo, x_hi), (y_lo, y_hi), (z_lo, z_hi)) m
    light_speed_mps: float = POSITIVE(299792458.0)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "bounds_m",
            tuple((float(lo), float(hi)) for lo, hi in self.bounds_m))
        problems = []
        # A count beyond the float range would overflow the slot duration.
        if not (1 <= self.slot_count <= sys.float_info.max
                and self.slot_count % 1 == 0):
            problems.append("slot_count must be a positive integer that fits "
                            f"a float (got {self.slot_count})")
        if len(self.bounds_m) != 3:
            problems.append("bounds_m must give (lo, hi) for three axes "
                            f"(got {self.bounds_m})")
        else:
            for axis, (lo, hi) in zip("xyz", self.bounds_m):
                if not -math.inf < lo < hi < math.inf:
                    problems.append(f"bounds_m {axis}-axis must satisfy "
                                    f"lo < hi, both finite (got {lo}, {hi})")
            z_lo, z_hi = self.bounds_m[2]
            if not z_lo >= 1.0:
                problems.append(
                    f"bounds_m z-axis floor must be at least 1 m (got {z_lo})")
            if not z_lo <= self.altitude_m <= z_hi:
                problems.append(f"altitude_m must lie within the z bounds "
                                f"({z_lo}, {z_hi}) (got {self.altitude_m})")
        check_fields(self, "system parameters", problems)
        object.__setattr__(self, "slot_count", int(self.slot_count))

    @property
    def slot_duration_s(self) -> float:
        """Duration of one mission slot (s)."""
        return self.mission_time_s / self.slot_count

    @property
    def cache_indicator(self) -> float:
        """1 when any demanded data is cached on the tag, else 0."""
        return np.ceil(self.cached_fraction)


# ======================================================================
# Channel quality and rates
# ======================================================================

def _check_distance(d) -> np.ndarray:
    arr = np.asarray(d, dtype=np.float64)
    if (arr <= 0.0).any():
        raise ValueError("distances must be strictly positive")
    return arr


def _maybe_float(value):
    return float(value) if np.ndim(value) == 0 else value


def doppler_factor(speed, params: SystemParams):
    """Channel time-selectivity factor in [0, 1] for a cruise speed.

    The squared zeroth-order Bessel value of the Doppler-spread argument:
    1 at standstill, decaying as the aircraft moves faster within a symbol
    sampling interval.
    """
    arg = np.asarray(speed, dtype=np.float64) * params.carrier_freq_hz
    arg /= params.light_speed_mps  # the Doppler spread (Hz)
    arg *= 2.0 * math.pi
    arg *= params.sampling_time_s
    corr = np.asarray(bessel_j0(arg))  # a 0-d array for a scalar speed
    np.square(corr, out=corr)
    return _maybe_float(np.minimum(corr, 1.0, out=corr))


def _rate(bandwidth, snr):
    """``bandwidth * log2(1 + snr)``, in place in an array ``snr``."""
    snr = np.asarray(snr)  # a 0-d array for a scalar
    snr += 1.0
    np.log2(snr, out=snr)
    snr *= bandwidth
    return _maybe_float(snr)


def _power(base, exponent):
    """``np.power``; a per-row (B,) exponent takes each value as a scalar,
    as numpy may special-case a scalar (it squares for 2.0)."""
    if np.ndim(exponent) == 0:
        return np.power(base, exponent)
    out = np.empty_like(base)
    for value in np.unique(exponent).tolist():
        out[..., exponent == value] = np.power(base[..., exponent == value], value)
    return out


def _path_loss(d_su, params: SystemParams):
    return _power(_check_distance(d_su), params.path_loss_exp)


def link_terms(d_su, correlation, params: SystemParams) -> tuple:
    """Terms the rate and harvest formulas share, to compute once for all.

    Returns ``(path_loss, corr_sq, stale, stale_noise)``: ``d_su`` to the
    path-loss exponent, the squared correlation, ``1 - corr_sq``, and
    ``stale`` times the estimation noise; pass it on as ``terms``.
    """
    corr_sq = np.square(np.asarray(correlation, dtype=np.float64))
    stale = 1.0 - corr_sq
    return (_path_loss(d_su, params), corr_sq, stale,
            stale * params.noise_var_estimation_w)


def rate_uplink(d_su, correlation, params: SystemParams, terms=None):
    """Ergodic achievable rate of the station-to-tag hop in one slot (bit/s).

    ``correlation`` is the time-selectivity factor from
    :func:`doppler_factor`; stale estimates both scale down the useful
    signal and add estimation-induced noise.
    """
    path_loss, corr_sq, _, stale_noise = terms or link_terms(
        d_su, correlation, params)
    eff_noise = stale_noise + params.noise_var_uplink_w
    eff_noise *= path_loss
    snr = corr_sq * (math.exp(-EULER_GAMMA) * params.ref_gain)
    snr *= params.source_power_w
    snr /= eff_noise
    return _rate(params.bandwidth_hz, snr)


def rate_downlink(d_su, d_du, correlation, params: SystemParams, terms=None):
    """Ergodic achievable rate of the tag-to-user hop in one slot (bit/s).

    Two signal components reach the user: source symbols reflected off the
    tag (attenuated by both hops) and cached symbols transmitted by the tag
    itself (present only when the cache holds data).
    """
    path_loss, corr_sq, stale, stale_noise = terms or link_terms(
        d_su, correlation, params)
    d_du = _check_distance(d_du)
    eff_noise = stale_noise + params.noise_var_downlink_w
    # libm's pow, as Python's ** takes it, for a scalar or a column alike
    stale_sq = np.square(stale)
    stale_sq *= np.float_power(params.noise_var_estimation_w, 2)
    eff_noise += stale_sq
    cache_power = params.cache_indicator * params.ub_tx_power_w
    snr = np.square(corr_sq)  # the reflected component, then the SNR
    snr *= params.backscatter_coeff
    snr *= params.ref_gain
    snr *= params.source_power_w
    cached = corr_sq * cache_power  # the cached component
    cached *= path_loss
    snr += cached
    snr *= math.exp(-EULER_GAMMA) * params.ref_gain
    two_hop = _power(np.asarray(d_su, dtype=np.float64) * d_du,
                     params.path_loss_exp)
    two_hop *= eff_noise
    snr /= two_hop
    return _rate(params.bandwidth_hz, snr)


# ======================================================================
# Energy bookkeeping
# ======================================================================

def harvested_energy_slot(d_su, split, params: SystemParams, terms=None):
    """RF energy harvested by the tag during one slot (J).

    Harvesting runs only in the inactive fraction ``1 - split`` of the slot
    and decays with the station distance by the path-loss law.
    """
    path_loss = terms[0] if terms else _path_loss(d_su, params)
    energy = 1.0 - np.asarray(split, dtype=np.float64)
    energy *= params.ref_gain * params.harvest_eff
    energy *= params.slot_duration_s
    energy *= params.wpt_power_w
    energy /= path_loss
    return _maybe_float(energy)


def flying_power(speed, propulsion: PropulsionParams):
    """Rotary-wing propulsion power at a cruise speed (W).

    The induced-power factor sqrt(sqrt(1 + a^2) - a) with
    a = induced_speed_factor * v^2 is evaluated in the cancellation-free
    form 1 / sqrt(sqrt(1 + a^2) + a).
    """
    v = np.atleast_1d(np.asarray(speed, dtype=np.float64))
    if (v < 0.0).any():
        raise ValueError("speed must be nonnegative")
    v2 = np.square(v)
    a = v2 * propulsion.induced_speed_factor
    induced = np.square(a)
    induced += 1.0
    np.sqrt(induced, out=induced)
    induced += a
    np.sqrt(induced, out=induced)
    np.divide(1.0, induced, out=induced)
    induced *= propulsion.induced_power_w
    power = v2 * propulsion.profile_speed_factor
    power += 1.0
    power *= propulsion.profile_power_w
    power += induced
    v2 *= propulsion.parasite_drag_factor
    v2 *= v
    power += v2
    return power if np.ndim(speed) else float(power[0])
