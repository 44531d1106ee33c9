"""Independent reference implementations used only by the test suite.

Everything here is written from scratch against the underlying math with
plain Python scalars (``math`` + ``fractions``), deliberately avoiding any
import from the package under test and avoiding its vectorized formula
layout.  Tests compare the package against these second routes.

There are three exceptions, all at the end.  The per-point layout
reference is the package's earlier (B, N+1, 3) waypoint layout of the
batch evaluation, kept to pin that the axis-by-axis layout gives the
same bits.  The best-so-far reference is the package's earlier loop
with one holder per seed, kept to pin that the stacked
``uavbsc.common.Incumbent`` applies the same rule with the same
``STALL_TOL``.  The exhaustive grid oracle enumerates a tiny scenario's
free genes through ``LinkProblem.evaluate_batch`` and keeps its best point by
``uavbsc.common.Incumbent``, the package's one ordering rule, so that
solver runs can be compared with a grid best on the same fitness.

The geometry helpers and the Monte-Carlo channel sampler are numpy-based
but import nothing from the package: they give the tests a norm-based
route to hop lengths and speeds, and channel draws to average the
closed-form rates against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional

import numpy as np

# Only the grid oracle uses the frozen-gene helper and the package's
# best-so-far rule, and only the rule's reference uses its stall tolerance.
from helpers import frozen_gene_indices
from uavbsc.common import STALL_TOL, Incumbent
# Only the per-point layout reference uses the package's formula functions.
from uavbsc.model import (
    doppler_factor,
    flying_power,
    harvested_energy_slot,
    rate_downlink,
    rate_uplink,
)

# Euler-Mascheroni constant, full double precision.
EULER_GAMMA_REF = 0.5772156649015329


# ----------------------------------------------------------------------
# Bessel J0 via the exact power series, evaluated in rational arithmetic
# ----------------------------------------------------------------------

def j0_reference(x, tol_exp: int = 40, max_terms: int = 400) -> float:
    """J0(x) by the alternating power series sum_k (-1)^k (x^2/4)^k / (k!)^2.

    Partial sums are kept as exact rationals, so the only rounding is the
    final conversion to float; the truncation tail is below 10**-tol_exp.
    Practical for |x| up to a few tens.
    """
    q = Fraction(abs(x)) ** 2 / 4
    cutoff = Fraction(1, 10 ** tol_exp)
    term = Fraction(1)
    total = Fraction(1)
    k = 0
    while True:
        k += 1
        term = -term * q / (k * k)
        total += term
        # Terms grow until k ~ sqrt(q); only trust smallness past the hump.
        if k * k > q and abs(term) < cutoff:
            return float(total)
        if k >= max_terms:
            raise RuntimeError(f"J0 series did not converge for x={x!r}")


def correlation_reference(speed: float, *, carrier_freq_hz: float,
                          light_speed_mps: float,
                          sampling_time_s: float) -> float:
    """Channel time-selectivity factor: clip(J0(2 pi f_D T_s)^2, 0, 1)."""
    doppler_shift_hz = speed * carrier_freq_hz / light_speed_mps
    j = j0_reference(2.0 * math.pi * doppler_shift_hz * sampling_time_s)
    return min(max(j * j, 0.0), 1.0)


# ----------------------------------------------------------------------
# Link rates and energy terms, scalar formulas
# ----------------------------------------------------------------------

def uplink_rate_reference(d_su: float, corr: float, *, bandwidth_hz: float,
                          ref_gain: float, path_loss_exp: float,
                          source_power_w: float, noise_up_w: float,
                          noise_est_w: float, euler_gamma: float) -> float:
    """Station-to-tag ergodic rate in bit/s."""
    stale = 1.0 - corr * corr
    noise = noise_up_w + stale * noise_est_w
    snr = (math.exp(-euler_gamma) * ref_gain * corr * corr * source_power_w
           / (d_su ** path_loss_exp * noise))
    return bandwidth_hz * math.log2(1.0 + snr)


def downlink_rate_reference(d_su: float, d_du: float, corr: float, *,
                            bandwidth_hz: float, ref_gain: float,
                            path_loss_exp: float, source_power_w: float,
                            tag_tx_power_w: float, backscatter_coeff: float,
                            cached_fraction: float, noise_down_w: float,
                            noise_est_w: float, euler_gamma: float) -> float:
    """Tag-to-user ergodic rate in bit/s (reflected + cached components)."""
    stale = 1.0 - corr * corr
    noise = noise_down_w + stale * noise_est_w + (stale * noise_est_w) ** 2
    indicator = math.ceil(cached_fraction)
    reflected = corr ** 4 * backscatter_coeff * ref_gain * source_power_w
    cached = corr ** 2 * indicator * tag_tx_power_w * d_su ** path_loss_exp
    snr = (math.exp(-euler_gamma) * ref_gain * (reflected + cached)
           / ((d_su * d_du) ** path_loss_exp * noise))
    return bandwidth_hz * math.log2(1.0 + snr)


def harvested_energy_reference(d_su: float, split: float, *, ref_gain: float,
                               harvest_eff: float, slot_duration_s: float,
                               wpt_power_w: float,
                               path_loss_exp: float) -> float:
    """RF energy harvested by the tag in one slot, joules."""
    return (ref_gain * harvest_eff * (1.0 - split) * slot_duration_s
            * wpt_power_w / d_su ** path_loss_exp)


def flying_power_reference(speed: float, *, profile_power_w: float,
                           induced_power_w: float,
                           profile_speed_factor: float,
                           induced_speed_factor: float,
                           parasite_drag_factor: float) -> float:
    """Rotary-wing power curve, evaluating the induced factor literally.

    Uses sqrt(sqrt(1 + a^2) - a) as written, rather than the reciprocal
    rearrangement, so the two routes only agree if both are right.
    """
    v2 = speed * speed
    a = induced_speed_factor * v2
    induced = math.sqrt(math.sqrt(1.0 + a * a) - a)
    return (profile_power_w * (1.0 + profile_speed_factor * v2)
            + induced_power_w * induced
            + parasite_drag_factor * speed ** 3)


def consumption_reference(speed: float, split: float, *, slot_duration_s: float,
                          backscatter_circuit_power_w: float,
                          tag_tx_power_w: float, fly: dict) -> float:
    """Aircraft + tag energy spent in one slot, joules."""
    return (slot_duration_s * flying_power_reference(speed, **fly)
            + split * slot_duration_s * backscatter_circuit_power_w
            + split * slot_duration_s * tag_tx_power_w)


# ----------------------------------------------------------------------
# Whole-mission audit: decode, per-slot physics, constraint margins
# ----------------------------------------------------------------------

def decode_reference(genome, *, n_slots: int, lo, hi, start, goal):
    """Genome -> waypoint list [(x, y, z), ...] of length n_slots + 1.

    Interior waypoint k (0-based) reads genes 3k..3k+2, each mapped
    affinely from [0, 1] to the arena axis; endpoints are pinned.
    """
    waypoints = [tuple(float(c) for c in start)]
    for k in range(n_slots - 1):
        waypoints.append(tuple(
            lo[axis] + float(genome[3 * k + axis]) * (hi[axis] - lo[axis])
            for axis in range(3)))
    waypoints.append(tuple(float(c) for c in goal))
    return waypoints


def mission_audit(waypoints, splits, env: dict) -> dict:
    """Slot-by-slot physics and the five constraint margins, from scratch.

    ``env`` holds plain floats/tuples describing the scenario (see the
    test helpers for the key list).  Geometry for rates/harvest is taken
    at the slot's starting waypoint; sums use ``math.fsum``.
    """
    n = len(splits)
    assert len(waypoints) == n + 1
    sd = env["slot_duration_s"]

    slots = []
    for i in range(n):
        here = waypoints[i]
        d_su = math.dist(here, env["source"])
        d_du = math.dist(here, env["user"])
        hop = math.dist(here, waypoints[i + 1])
        speed = hop / sd
        corr = correlation_reference(
            speed,
            carrier_freq_hz=env["carrier_freq_hz"],
            light_speed_mps=env["light_speed_mps"],
            sampling_time_s=env["sampling_time_s"],
        )
        r_up = uplink_rate_reference(
            d_su, corr,
            bandwidth_hz=env["bandwidth_hz"], ref_gain=env["ref_gain"],
            path_loss_exp=env["path_loss_exp"],
            source_power_w=env["source_power_w"],
            noise_up_w=env["noise_up_w"], noise_est_w=env["noise_est_w"],
            euler_gamma=env["euler_gamma"],
        )
        r_dn = downlink_rate_reference(
            d_su, d_du, corr,
            bandwidth_hz=env["bandwidth_hz"], ref_gain=env["ref_gain"],
            path_loss_exp=env["path_loss_exp"],
            source_power_w=env["source_power_w"],
            tag_tx_power_w=env["tag_tx_power_w"],
            backscatter_coeff=env["backscatter_coeff"],
            cached_fraction=env["cached_fraction"],
            noise_down_w=env["noise_down_w"], noise_est_w=env["noise_est_w"],
            euler_gamma=env["euler_gamma"],
        )
        if env["rate_weighting"] == "delta":
            w_up = r_up * splits[i]
            w_dn = r_dn * splits[i]
        else:
            w_up = r_up
            w_dn = r_dn
        slots.append({
            "d_su": d_su,
            "d_du": d_du,
            "hop": hop,
            "speed": speed,
            "correlation": corr,
            "rate_up": r_up,
            "rate_down": r_dn,
            "weighted_up": w_up,
            "weighted_down": w_dn,
            "harvest": harvested_energy_reference(
                d_su, splits[i],
                ref_gain=env["ref_gain"], harvest_eff=env["harvest_eff"],
                slot_duration_s=sd, wpt_power_w=env["wpt_power_w"],
                path_loss_exp=env["path_loss_exp"],
            ),
            "fly": sd * flying_power_reference(speed, **env["fly"]),
            "backscatter": splits[i] * sd * env["backscatter_circuit_power_w"],
            "cache": splits[i] * sd * env["tag_tx_power_w"],
        })

    sum_up = math.fsum(s["weighted_up"] for s in slots)
    sum_dn = math.fsum(s["weighted_down"] for s in slots)
    sum_harvest = math.fsum(s["harvest"] for s in slots)
    sum_consume = math.fsum(
        s["fly"] + s["backscatter"] + s["cache"] for s in slots)
    cache_credit = env["cached_fraction"] * env["demanded_rate_bps"]

    m_cache = cache_credit + sum_up - sum_dn
    m_demand = sum_dn - env["demanded_rate_bps"]
    m_energy = sum_harvest - sum_consume
    max_hop = env["max_speed_mps"] * sd
    m_speed = min(max_hop - s["hop"] for s in slots)
    start_dev = math.dist(waypoints[0], env["start"])
    goal_dev = math.dist(waypoints[-1], env["goal"])
    m_bounds = min(
        min(splits),
        min(1.0 - s for s in splits),
        -start_dev,
        -goal_dev,
    )

    scales = {
        "cache_balance": max(1.0, cache_credit + sum_up + abs(sum_dn)),
        "rate_demand": max(1.0, abs(sum_dn) + env["demanded_rate_bps"]),
        "energy": max(1.0, sum_harvest + sum_consume),
        "speed": max(1.0, max_hop),
        "bounds": 1.0,
    }
    margins = {
        "cache_balance": m_cache,
        "rate_demand": m_demand,
        "energy": m_energy,
        "speed": m_speed,
        "bounds": m_bounds,
    }
    feasible = (
        m_cache >= -1e-9 * scales["cache_balance"]
        and m_demand >= -1e-9 * scales["rate_demand"]
        and m_energy >= -1e-9 * scales["energy"]
        and m_speed >= -1e-12
        and m_bounds >= 0.0
    )
    worst = max(
        0.0,
        -m_cache / scales["cache_balance"],
        -m_demand / scales["rate_demand"],
        -m_energy / scales["energy"],
        -m_speed / scales["speed"],
        -m_bounds,
    )
    return {
        "slots": slots,
        "margins": margins,
        "scales": scales,
        "feasible": feasible,
        "worst": worst,
        "objective": sum_dn,
        "sums": {
            "weighted_up": sum_up,
            "weighted_down": sum_dn,
            "harvest": sum_harvest,
            "consume": sum_consume,
        },
    }


# ----------------------------------------------------------------------
# Fitness map
# ----------------------------------------------------------------------

PENALTY_SCALE_REF = 1.0e12


def fitness_reference(objective: float, feasible: bool, worst: float,
                      penalty_mode: str = "safe") -> float:
    """Scalar fitness the solvers minimize.

    Feasible candidates score the negative rate sum.  Infeasible ones score
    PENALTY_SCALE_REF * (1 + worst violation) in "safe" mode and the
    constant -1 in "paper" mode.
    """
    if feasible:
        return -float(objective)
    if penalty_mode == "paper":
        return -1.0
    if penalty_mode == "safe":
        return PENALTY_SCALE_REF * (1.0 + float(worst))
    raise ValueError(f"unknown penalty mode: {penalty_mode!r}")


# ----------------------------------------------------------------------
# Mission geometry through np.linalg.norm
# ----------------------------------------------------------------------
#
# The package computes distances and hop lengths coordinate by coordinate
# inside its batch pass; these take a trajectory (anything with an
# (N+1, 3) ``waypoints`` array) or plain points instead.

def distance(a, b):
    """Euclidean distance between 3-D points, or (..., 3) stacks (m)."""
    d = np.linalg.norm(np.asarray(a, dtype=np.float64)
                       - np.asarray(b, dtype=np.float64), axis=-1)
    return float(d) if d.ndim == 0 else d


def hop_lengths(traj) -> np.ndarray:
    """Straight-line length of each slot's displacement, shape (N,) m."""
    return np.linalg.norm(np.diff(traj.waypoints, axis=0), axis=1)


def slot_speed(traj, i: int, slot_duration: float) -> float:
    """Cruise speed (m/s) over the hop from waypoint ``i - 1`` to ``i``.

    ``i`` counts slots from 1, as the paper does.
    """
    n_slots = traj.waypoints.shape[0] - 1
    if not 1 <= i <= n_slots:
        raise IndexError(f"slot index {i} out of range 1..{n_slots}")
    if slot_duration <= 0.0:
        raise ValueError("slot duration must be positive")
    return distance(traj.waypoints[i], traj.waypoints[i - 1]) / slot_duration


# ----------------------------------------------------------------------
# Monte-Carlo channel sampler
# ----------------------------------------------------------------------
#
# Draws of the station-to-tag channel whose ergodic rate the package's
# closed forms stand in for; the Monte-Carlo tests average over them.

@dataclass(eq=False)
class ChannelSample:
    """One Monte-Carlo draw of the station-to-tag channel coefficient."""

    estimated: np.ndarray    # estimated coefficient (complex)
    error: np.ndarray        # estimation error, unit-variance complex normal
    realized: np.ndarray     # realized coefficient seen by the receiver
    los: np.ndarray          # deterministic unit-modulus LoS component
    nlos: np.ndarray         # scattered component, unit-variance complex normal
    small_scale: np.ndarray  # unit-power small-scale factor (LoS/NLoS mix)


def _complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Circularly-symmetric complex normal draws with unit variance."""
    return (
        rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    ) / math.sqrt(2.0)


def sample_channel(d, correlation, params, rng: np.random.Generator,
                   size: Optional[int] = None) -> ChannelSample:
    """Draw the station-to-tag channel coefficient at distance ``d`` (m).

    The small-scale factor mixes a deterministic line-of-sight phasor
    (phase set by the propagation delay) with a scattered component
    according to the Rician factor; the realized coefficient degrades the
    estimate through the time-selectivity ``correlation``.  ``params`` is
    a :class:`uavbsc.model.SystemParams`.
    """
    d_arr = np.asarray(d, dtype=np.float64)
    if d_arr.ndim != 0:
        raise ValueError("sample_channel expects a scalar distance")
    if not d_arr > 0.0:
        raise ValueError("distances must be strictly positive")
    shape = () if size is None else (int(size),)
    wavelength = params.light_speed_mps / params.carrier_freq_hz
    los_phase = -2.0 * math.pi * float(d_arr) / wavelength
    los = np.full(shape, np.exp(1j * los_phase))
    nlos = _complex_normal(rng, shape)
    k = params.rician_factor
    small_scale = (
        math.sqrt(k / (1.0 + k)) * los + math.sqrt(1.0 / (1.0 + k)) * nlos
    )
    estimated = math.sqrt(
        params.ref_gain * float(d_arr) ** (-params.path_loss_exp)
    ) * small_scale
    error = _complex_normal(rng, shape)
    corr = float(np.asarray(correlation, dtype=np.float64))
    realized = corr * estimated + math.sqrt(max(0.0, 1.0 - corr**2)) * error
    return ChannelSample(
        estimated=estimated,
        error=error,
        realized=realized,
        los=los,
        nlos=nlos,
        small_scale=small_scale,
    )


# ----------------------------------------------------------------------
# Per-point layout reference of the batch evaluation
# ----------------------------------------------------------------------
#
# The package evaluates genome stacks with every waypoint coordinate in its
# own (B, N+1) array.  What follows is the earlier layout, waypoints as one
# (B, N+1, 3) array with distances from ``np.linalg.norm`` over the trailing
# axis and minima from ``np.min`` over the slot axis, with every other float
# expression as in the package.  Results must match it byte for byte.

def per_point_decode(problem, genomes):
    """Waypoints (B, N+1, 3) and splits (B, N) of a pre-validated stack."""
    b = genomes.shape[0]
    n = problem.n_slots
    bounds = np.asarray(problem.params.bounds_m, dtype=np.float64)
    lo = bounds[:, 0]
    span = bounds[:, 1] - bounds[:, 0]
    waypoints = np.empty((b, n + 1, 3))
    waypoints[:, 0] = problem.start
    waypoints[:, n] = problem.goal
    if problem.n_interior:
        interior = genomes[:, : problem.split_offset].reshape(
            b, problem.n_interior, 3)
        waypoints[:, 1:n] = lo + interior * span
    return waypoints, genomes[:, problem.split_offset:]


def per_point_tables(problem, waypoints, split) -> dict:
    """Per-slot quantities, each (B, N), from (B, N+1, 3) waypoints."""
    p = problem.params
    starts = waypoints[:, :-1]
    d_su = np.linalg.norm(starts - problem.source, axis=-1)
    d_du = np.linalg.norm(starts - problem.user, axis=-1)
    hops = np.linalg.norm(waypoints[:, 1:] - starts, axis=-1)
    speeds = hops / p.slot_duration_s
    corr = doppler_factor(speeds, p)
    r_up = rate_uplink(d_su, corr, p)
    r_dn = rate_downlink(d_su, d_du, corr, p)
    if problem.rate_weighting == "delta":
        w_up = r_up * split
        w_dn = r_dn * split
    else:
        w_up = r_up
        w_dn = r_dn
    sigma = p.slot_duration_s
    return {
        "d_su": d_su,
        "d_du": d_du,
        "hops": hops,
        "speeds": speeds,
        "correlation": corr,
        "rate_up": r_up,
        "rate_down": r_dn,
        "weighted_up": w_up,
        "weighted_down": w_dn,
        "harvest": harvested_energy_slot(d_su, split, p),
        "fly": sigma * flying_power(speeds, problem.propulsion),
        "backscatter": split * sigma * p.backscatter_circuit_power_w,
        "cache": split * sigma * p.ub_tx_power_w,
    }


def per_point_margins(problem, waypoints, split, tables) -> dict:
    """Margins, objective, feasibility, worst violation and fitness, (B,)."""
    p = problem.params
    sum_up = np.sum(tables["weighted_up"], axis=1)
    sum_dn = np.sum(tables["weighted_down"], axis=1)
    sum_harvest = np.sum(tables["harvest"], axis=1)
    sum_consume = np.sum(
        tables["fly"] + tables["backscatter"] + tables["cache"], axis=1)
    cache_credit = p.cached_fraction * p.demanded_rate_bps

    m_cache = cache_credit + sum_up - sum_dn
    m_demand = sum_dn - p.demanded_rate_bps
    m_energy = sum_harvest - sum_consume
    max_hop = p.max_speed_mps * p.slot_duration_s
    m_speed = np.min(max_hop - tables["hops"], axis=1)
    start_dev = np.linalg.norm(waypoints[:, 0] - problem.start, axis=-1)
    goal_dev = np.linalg.norm(waypoints[:, -1] - problem.goal, axis=-1)
    m_bounds = np.minimum.reduce([
        np.min(split, axis=1),
        np.min(1.0 - split, axis=1),
        -start_dev,
        -goal_dev,
    ])

    scale_cache = np.maximum(1.0, cache_credit + sum_up + np.abs(sum_dn))
    scale_demand = np.maximum(1.0, np.abs(sum_dn) + p.demanded_rate_bps)
    scale_energy = np.maximum(1.0, sum_harvest + sum_consume)
    scale_speed = max(1.0, max_hop)

    feasible = (
        (m_cache >= -1e-9 * scale_cache)
        & (m_demand >= -1e-9 * scale_demand)
        & (m_energy >= -1e-9 * scale_energy)
        & (m_speed >= -1e-12)
        & (m_bounds >= 0.0)
    )
    worst = np.maximum.reduce([
        -m_cache / scale_cache,
        -m_demand / scale_demand,
        -m_energy / scale_energy,
        -m_speed / scale_speed,
        -m_bounds,
        np.zeros_like(m_cache),
    ])
    if problem.penalty_mode == "paper":
        penalty = -1.0
    else:
        penalty = PENALTY_SCALE_REF * (1.0 + worst)
    return {
        "cache_balance": m_cache,
        "rate_demand": m_demand,
        "energy": m_energy,
        "speed": m_speed,
        "bounds": m_bounds,
        "objective": sum_dn,
        "feasible": feasible,
        "worst": worst,
        "fitness": np.where(feasible, -sum_dn, penalty),
    }


def per_point_evaluate(problem, genomes) -> dict:
    """Per-slot tables and margins of a genome stack, per-point layout."""
    waypoints, split = per_point_decode(problem, genomes)
    tables = per_point_tables(problem, waypoints, split)
    margins = per_point_margins(problem, waypoints, split, tables)
    return {"waypoints": waypoints, "tables": tables, **margins}


# ----------------------------------------------------------------------
# Best-so-far rule, one holder per seed
# ----------------------------------------------------------------------

@dataclass(eq=False)
class ReferenceHolder:
    """One seed's best-so-far row, as :func:`offer_reference` keeps it."""

    genome: Optional[np.ndarray] = None
    fitness: float = math.inf
    index: int = -1
    last_improvement: int = 0


def offer_reference(holders, genomes, fitness,
                    generation: Optional[int] = None) -> List[bool]:
    """Offer layer ``r`` of a (rows, size) block to ``holders[r]``, one by one.

    Each holder takes its layer's best row (lower fitness, then the
    earliest row) if its fitness is lower than the holder's; the returned
    flags say whether its fitness dropped by more than ``STALL_TOL``
    (always at the first offer), and ``generation``, when given, then
    becomes its ``last_improvement``.
    """
    improved = []
    for r, b in enumerate(holders):
        k = min(range(fitness.shape[1]), key=lambda i: (fitness[r, i], i))
        fit = float(fitness[r, k])
        first = b.genome is None
        improved.append(first or fit < b.fitness - STALL_TOL)
        if first or fit < b.fitness:
            b.genome = genomes[r, k].copy()
            b.fitness, b.index = fit, k
        if improved[-1] and generation is not None:
            b.last_improvement = generation
    return improved


# ----------------------------------------------------------------------
# Exhaustive grid oracle (tiny scenarios only)
# ----------------------------------------------------------------------

GRID_MAX_POINTS = 10_000_000
GRID_MAX_SLOTS = 3
_GRID_CHUNK = 4096


@dataclass(eq=False)
class GridResult:
    """Best point of an exhaustive grid enumeration."""

    genome: np.ndarray
    fitness: float
    objective_bps: float
    feasible: bool
    worst_violation: float
    points_evaluated: int
    resolution: int
    free_gene_indices: List[int]


def grid_oracle(problem, resolution: int) -> GridResult:
    """Enumerate every grid point of the free genes and keep the best.

    Only meant for small instances: refuses problems with more than
    ``GRID_MAX_SLOTS`` slots and grids larger than ``GRID_MAX_POINTS``.
    Points are evaluated in blocks of ``_GRID_CHUNK``; the winner is kept
    by :class:`~uavbsc.common.Incumbent`, so ties on fitness go to the
    earliest point in lexicographic gene order.
    """
    if resolution < 1:
        raise ValueError("resolution must be at least 1")
    n_slots = problem.params.slot_count
    if n_slots > GRID_MAX_SLOTS:
        raise ValueError(
            f"grid oracle only supports up to {GRID_MAX_SLOTS} slots "
            f"(scenario has {n_slots}); it would be astronomically large otherwise")

    frozen = set(frozen_gene_indices(problem))
    free = [g for g in range(problem.genome_size) if g not in frozen]
    n_free = len(free)
    total = resolution ** n_free
    if total > GRID_MAX_POINTS:
        raise ValueError(
            f"grid of {resolution}^{n_free} = {total} points exceeds the "
            f"{GRID_MAX_POINTS}-point guard")

    levels = np.linspace(0.0, 1.0, resolution) if resolution > 1 else np.array([0.5])
    weights = resolution ** np.arange(n_free - 1, -1, -1, dtype=np.int64)
    base = np.full(problem.genome_size, 0.5)
    best = Incumbent(1)
    for start in range(0, total, _GRID_CHUNK):
        idx = np.arange(start, min(start + _GRID_CHUNK, total), dtype=np.int64)
        genomes = np.tile(base, (len(idx), 1))
        genomes[:, free] = levels[(idx[:, None] // weights) % resolution]
        genomes = problem.adjust(genomes)
        ev = problem.evaluate_batch(genomes)
        best.offer([0], genomes[None], ev.fitness[None])

    winner = problem.evaluate(best.genome[0])
    return GridResult(
        genome=best.genome[0],
        fitness=winner.fitness,
        objective_bps=winner.objective_bps,
        feasible=winner.report.feasible,
        worst_violation=winner.report.worst_violation,
        points_evaluated=total,
        resolution=resolution,
        free_gene_indices=free,
    )
