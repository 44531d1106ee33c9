"""Shared test utilities: random parameter factories and oracle adapters."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from uavbsc.encoding import LinkProblem, RowEvaluator
from uavbsc.model import EULER_GAMMA, PropulsionParams, SystemParams

REPO_ROOT = Path(__file__).resolve().parents[1]
REFERENCE_CONFIG = REPO_ROOT / "configs" / "reference.json"
TINY_CONFIG = REPO_ROOT / "configs" / "tiny.json"


def random_system_params(rng: np.random.Generator) -> SystemParams:
    """A valid, randomly drawn parameter bundle for formula fuzzing."""
    return SystemParams(
        bandwidth_hz=float(rng.uniform(1e5, 1e7)),
        ref_gain=float(rng.uniform(1e-4, 1e-1)),
        path_loss_exp=float(rng.uniform(2.0, 4.0)),
        harvest_eff=float(rng.uniform(0.05, 1.0)),
        source_power_w=float(rng.uniform(0.1, 100.0)),
        wpt_power_w=float(rng.uniform(1.0, 5e3)),
        ub_tx_power_w=float(rng.uniform(1e-4, 1.0)),
        backscatter_circuit_power_w=float(rng.uniform(0.0, 0.1)),
        backscatter_coeff=float(rng.uniform(0.05, 1.0)),
        cached_fraction=float(rng.uniform(0.0, 1.0)),
        demanded_rate_bps=float(rng.uniform(0.0, 1e9)),
        noise_var_uplink_w=float(rng.uniform(1e-14, 1e-9)),
        noise_var_downlink_w=float(rng.uniform(1e-14, 1e-9)),
        noise_var_estimation_w=float(rng.uniform(1e-14, 1e-9)),
        rician_factor=float(rng.uniform(0.0, 20.0)),
        carrier_freq_hz=float(rng.uniform(1e8, 6e9)),
        sampling_time_s=float(rng.uniform(1e-4, 1e-2)),
        mission_time_s=float(rng.uniform(1.0, 100.0)),
        slot_count=int(rng.integers(1, 20)),
        altitude_m=float(rng.uniform(1.0, 40.0)),
        max_speed_mps=float(rng.uniform(0.5, 30.0)),
        bounds_m=((-100.0, 100.0), (-100.0, 100.0), (1.0, 60.0)),
    )


def random_propulsion(rng: np.random.Generator) -> PropulsionParams:
    return PropulsionParams(
        profile_power_w=float(rng.uniform(1e-4, 500.0)),
        induced_power_w=float(rng.uniform(1e-4, 500.0)),
        profile_speed_factor=float(rng.uniform(1e-6, 0.1)),
        induced_speed_factor=float(rng.uniform(1e-4, 0.1)),
        parasite_drag_factor=float(rng.uniform(0.0, 0.01)),
    )


def small_system_params(**overrides) -> SystemParams:
    """A compact, fast parameter bundle for targeted unit tests."""
    base = dict(
        bandwidth_hz=1e6,
        ref_gain=0.01,
        path_loss_exp=2.2,
        harvest_eff=0.8,
        source_power_w=10.0,
        wpt_power_w=1000.0,
        ub_tx_power_w=0.01,
        backscatter_circuit_power_w=0.001,
        backscatter_coeff=0.6,
        cached_fraction=0.5,
        demanded_rate_bps=1e7,
        noise_var_uplink_w=1e-12,
        noise_var_downlink_w=1e-12,
        noise_var_estimation_w=1e-12,
        rician_factor=5.0,
        carrier_freq_hz=9e8,
        sampling_time_s=5e-3,
        mission_time_s=10.0,
        slot_count=2,
        altitude_m=5.0,
        max_speed_mps=5.0,
        bounds_m=((-10.0, 70.0), (-20.0, 20.0), (1.0, 50.0)),
        light_speed_mps=3e8,
    )
    base.update(overrides)
    return SystemParams(**base)


def small_propulsion(**overrides) -> PropulsionParams:
    base = dict(
        profile_power_w=0.004,
        induced_power_w=0.006,
        profile_speed_factor=0.02,
        induced_speed_factor=0.05,
        parasite_drag_factor=0.0001,
    )
    base.update(overrides)
    return PropulsionParams(**base)


def small_problem(params: SystemParams = None,
                  propulsion: PropulsionParams = None,
                  **problem_kwargs) -> LinkProblem:
    """A small two-slot problem with sane geometry for unit tests."""
    params = params or small_system_params()
    alt = params.altitude_m
    return LinkProblem(
        params=params,
        propulsion=propulsion or small_propulsion(),
        source=(0.0, 0.0, 0.0),
        user=(60.0, 0.0, 0.0),
        start=(5.0, 0.0, alt),
        goal=(55.0, 0.0, alt),
        **problem_kwargs,
    )


def encode(problem: LinkProblem, traj, split) -> np.ndarray:
    """Inverse of ``problem.decode`` for trajectories inside the arena."""
    genome = np.empty(problem.genome_size)
    lo = np.array([b[0] for b in problem.params.bounds_m])
    span = np.array([b[1] - b[0] for b in problem.params.bounds_m])
    genome[:problem.split_offset] = ((traj.waypoints[1:-1] - lo) / span).reshape(-1)
    genome[problem.split_offset:] = split
    return genome


def frozen_gene_indices(problem: LinkProblem) -> np.ndarray:
    """Gene positions ``problem.adjust`` pins: those it moves in an all-zero
    or an all-one genome (a pinned value cannot be both 0 and 1)."""
    dim = problem.genome_size
    return np.flatnonzero((problem.adjust(np.zeros(dim)) != 0.0)
                          | (problem.adjust(np.ones(dim)) != 1.0))


def random_genomes(problem: LinkProblem, rng: np.random.Generator,
                   count: int) -> np.ndarray:
    """Uniform-random genomes (already adjusted), shape (count, dim)."""
    return problem.adjust(rng.uniform(size=(int(count), problem.genome_size)))


# ----------------------------------------------------------------------
# Adapters: package parameter objects -> keyword dicts for the oracles
# ----------------------------------------------------------------------

def uplink_kwargs(p: SystemParams) -> dict:
    return dict(
        bandwidth_hz=p.bandwidth_hz,
        ref_gain=p.ref_gain,
        path_loss_exp=p.path_loss_exp,
        source_power_w=p.source_power_w,
        noise_up_w=p.noise_var_uplink_w,
        noise_est_w=p.noise_var_estimation_w,
        euler_gamma=EULER_GAMMA,
    )


def downlink_kwargs(p: SystemParams) -> dict:
    return dict(
        bandwidth_hz=p.bandwidth_hz,
        ref_gain=p.ref_gain,
        path_loss_exp=p.path_loss_exp,
        source_power_w=p.source_power_w,
        tag_tx_power_w=p.ub_tx_power_w,
        backscatter_coeff=p.backscatter_coeff,
        cached_fraction=p.cached_fraction,
        noise_down_w=p.noise_var_downlink_w,
        noise_est_w=p.noise_var_estimation_w,
        euler_gamma=EULER_GAMMA,
    )


def harvest_kwargs(p: SystemParams) -> dict:
    return dict(
        ref_gain=p.ref_gain,
        harvest_eff=p.harvest_eff,
        slot_duration_s=p.slot_duration_s,
        wpt_power_w=p.wpt_power_w,
        path_loss_exp=p.path_loss_exp,
    )


def fly_kwargs(prop: PropulsionParams) -> dict:
    return dict(
        profile_power_w=prop.profile_power_w,
        induced_power_w=prop.induced_power_w,
        profile_speed_factor=prop.profile_speed_factor,
        induced_speed_factor=prop.induced_speed_factor,
        parasite_drag_factor=prop.parasite_drag_factor,
    )


def audit_env(problem: LinkProblem) -> dict:
    """Everything mission_audit needs, as plain floats and tuples."""
    p = problem.params
    bounds = p.bounds_m
    return {
        "bandwidth_hz": p.bandwidth_hz,
        "ref_gain": p.ref_gain,
        "path_loss_exp": p.path_loss_exp,
        "source_power_w": p.source_power_w,
        "tag_tx_power_w": p.ub_tx_power_w,
        "backscatter_circuit_power_w": p.backscatter_circuit_power_w,
        "backscatter_coeff": p.backscatter_coeff,
        "cached_fraction": p.cached_fraction,
        "demanded_rate_bps": p.demanded_rate_bps,
        "noise_up_w": p.noise_var_uplink_w,
        "noise_down_w": p.noise_var_downlink_w,
        "noise_est_w": p.noise_var_estimation_w,
        "harvest_eff": p.harvest_eff,
        "wpt_power_w": p.wpt_power_w,
        "euler_gamma": EULER_GAMMA,
        "carrier_freq_hz": p.carrier_freq_hz,
        "light_speed_mps": p.light_speed_mps,
        "sampling_time_s": p.sampling_time_s,
        "slot_duration_s": p.slot_duration_s,
        "max_speed_mps": p.max_speed_mps,
        "rate_weighting": problem.rate_weighting,
        "fly": fly_kwargs(problem.propulsion),
        "source": tuple(float(c) for c in problem.source),
        "user": tuple(float(c) for c in problem.user),
        "start": tuple(float(c) for c in problem.start),
        "goal": tuple(float(c) for c in problem.goal),
        "lo": tuple(float(b[0]) for b in bounds),
        "hi": tuple(float(b[1]) for b in bounds),
        "n_slots": p.slot_count,
    }


def audit_genome(problem: LinkProblem, genome) -> dict:
    """Decode + audit one genome entirely through the reference route."""
    import oracles

    env = audit_env(problem)
    waypoints = oracles.decode_reference(
        np.asarray(genome, dtype=np.float64),
        n_slots=env["n_slots"], lo=env["lo"], hi=env["hi"],
        start=env["start"], goal=env["goal"])
    splits = [float(g) for g in np.asarray(genome)[3 * (env["n_slots"] - 1):]]
    return oracles.mission_audit(waypoints, splits, env)


def evaluate_blocks(problems, blocks):
    """One evaluation of the stacked blocks, block k on problem k.

    Each row takes its block's problem through ``RowEvaluator``, as a
    fused ``drive`` gives each row its seed's problem.
    """
    which = np.repeat(np.arange(len(blocks)), [len(block) for block in blocks])
    return RowEvaluator(problems)(np.concatenate(blocks), which)
