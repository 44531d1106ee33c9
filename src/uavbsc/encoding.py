"""Search-space encoding and constrained evaluation of candidate missions.

A candidate solution is a flat genome in [0, 1]^(4N-3) for an N-slot
mission:

    [x_2, y_2, z_2, ..., x_N, y_N, z_N, split_1, ..., split_N]

The first 3(N-1) genes are the interior waypoints, normalized per axis to
the arena bounds; the first and last waypoints are pinned to the mission
start and goal and never appear in the genome.  The trailing N genes are
the per-slot active-time fractions, stored verbatim.  In fixed-altitude
mode the z genes are still present but are frozen to the normalized
altitude by :meth:`LinkProblem.adjust`.

Evaluation decodes a genome, sums the per-slot user rates into the
objective, checks the mission constraints (cache balance, demanded rate,
energy self-sufficiency, per-slot speed, bounds/pinning) and maps the pair
(objective, feasibility) to a scalar fitness that the solvers minimize:
feasible candidates score the negative rate sum; infeasible ones score a
large positive penalty that grows with the worst violation ("safe" mode)
or the legacy constant -1 ("paper" mode, which cannot separate infeasible
candidates from feasible ones with high rates).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import List, Sequence

import numpy as np

from .model import (
    PropulsionParams,
    SystemParams,
    Trajectory,
    as_position,
    as_time_split,
    doppler_factor,
    flying_power,
    harvested_energy_slot,
    rate_downlink,
    rate_uplink,
)

__all__ = [
    "PENALTY_SCALE",
    "PENALTY_MODES",
    "RATE_WEIGHTINGS",
    "normalize",
    "FeasibilityReport",
    "EvaluatedSolution",
    "SlotTable",
    "BatchEvaluation",
    "LinkProblem",
]

# Base fitness assigned to infeasible solutions in "safe" penalty mode;
# large enough that any feasible solution (fitness = -rate sum <= 0) wins.
PENALTY_SCALE = 1.0e12

# The choices of LinkProblem's penalty_mode and rate_weighting.
PENALTY_MODES = ("safe", "paper")
RATE_WEIGHTINGS = ("literal", "delta")

# Relative slack allowed on the three sum constraints (cache balance,
# demanded rate, energy); the speed constraint is checked to 1e-12 m and
# the bounds/pinning constraint exactly.
_REL_TOL = 1.0e-9
_SPEED_TOL = 1.0e-12

_CONSTRAINT_NAMES = ("cache_balance", "rate_demand", "energy", "speed", "bounds")


def _norm3(d: np.ndarray) -> np.ndarray:
    """Euclidean norm over the leading x / y / z axis of ``d``.

    The squares are summed left to right, in the order a norm over a
    trailing length-3 axis adds them, so both give the same bits.
    """
    sq = np.square(d)
    return np.sqrt((sq[0] + sq[1]) + sq[2])


def _row_min(a: np.ndarray) -> np.ndarray:
    """Row minima of a (B, N) array, folded column by column.

    Reducing the outer axis of an (N, B) copy is an elementwise fold,
    much cheaper than a reduction over a short inner axis of length N.
    """
    return np.minimum.reduce(a.T.copy())


def normalize(value, lo: float, hi: float):
    """Map a physical value in [lo, hi] to a unit gene, clamping overshoot."""
    if not lo < hi:
        raise ValueError(f"normalize requires lo < hi (got {lo}, {hi})")
    u = (np.asarray(value, dtype=np.float64) - lo) / (hi - lo)
    u = np.clip(u, 0.0, 1.0)
    return float(u) if u.ndim == 0 else u


@dataclass
class FeasibilityReport:
    """Signed margins of every mission constraint (>= 0 means satisfied)."""

    margins: dict
    feasible: bool
    worst_violation: float

    def to_dict(self) -> dict:
        return {
            "margins": {k: float(v) for k, v in self.margins.items()},
            "feasible": bool(self.feasible),
            "worst_violation": float(self.worst_violation),
        }


@dataclass(eq=False)
class EvaluatedSolution:
    """A decoded candidate together with its objective and feasibility."""

    genome: np.ndarray
    trajectory: Trajectory
    time_split: np.ndarray
    objective_bps: float
    fitness: float
    report: FeasibilityReport

    def to_dict(self) -> dict:
        return {
            "genome": [float(g) for g in self.genome],
            "waypoints_m": self.trajectory.waypoints.tolist(),
            "time_split": [float(d) for d in self.time_split],
            "objective_bps": float(self.objective_bps),
            "fitness": float(self.fitness),
            "report": self.report.to_dict(),
        }


@dataclass(eq=False)
class SlotTable:
    """Per-slot breakdown: length-N arrays for one mission, (B, N) for B."""

    d_su_m: np.ndarray        # station-to-tag distance at slot start
    d_du_m: np.ndarray        # tag-to-user distance at slot start
    hop_m: np.ndarray         # distance flown during the slot
    speed_mps: np.ndarray     # cruise speed during the slot
    correlation: np.ndarray   # channel time-selectivity factor
    rate_up_bps: np.ndarray   # station-to-tag rate (literal formula)
    rate_down_bps: np.ndarray  # tag-to-user rate (literal formula)
    weighted_rate_up_bps: np.ndarray   # rate as counted by the objective
    weighted_rate_down_bps: np.ndarray
    harvested_j: np.ndarray   # RF energy harvested
    fly_j: np.ndarray         # propulsion energy
    backscatter_j: np.ndarray  # circuit energy while active
    cache_j: np.ndarray       # cached-data transmit energy while active


@dataclass(eq=False)
class BatchEvaluation:
    """Vectorized evaluation results for a stack of genomes."""

    genomes: np.ndarray        # (B, dim)
    objectives: np.ndarray     # (B,) mission rate sums (bit/s)
    fitness: np.ndarray        # (B,) scalar fitness, lower is better
    feasible: np.ndarray       # (B,) bool
    worst_violation: np.ndarray  # (B,) normalized worst constraint violation

    def split(self, sizes: Sequence[int]) -> List["BatchEvaluation"]:
        """Consecutive row blocks of ``sizes`` rows each, as views.

        Undoes the stacking of several genome blocks into one call: block
        ``k`` of the result is what evaluating block ``k`` alone gives.
        """
        columns = [getattr(self, f.name) for f in fields(self)]
        bounds = [0, *(int(c) for c in np.cumsum(sizes)[:-1]), None]
        return [BatchEvaluation(*(column[a:b] for column in columns))
                for a, b in zip(bounds[:-1], bounds[1:])]


class LinkProblem:
    """Joint trajectory / time-splitting optimization problem.

    Bundles the link parameters, the propulsion curve and the mission
    geometry, and exposes genome decoding plus scalar and batch evaluation.
    All methods are pure; the instance is safe to share across worker
    processes.
    """

    def __init__(
        self,
        params: SystemParams,
        propulsion: PropulsionParams,
        source,
        user,
        start,
        goal,
        penalty_mode: str = "safe",
        rate_weighting: str = "literal",
        fixed_altitude: bool = True,
    ) -> None:
        if penalty_mode not in PENALTY_MODES:
            raise ValueError(f"unknown penalty mode: {penalty_mode!r}")
        if rate_weighting not in RATE_WEIGHTINGS:
            raise ValueError(f"unknown rate weighting: {rate_weighting!r}")
        self.params = params
        self.propulsion = propulsion
        self.source = as_position(source)
        self.user = as_position(user)
        self.start = as_position(start)
        self.goal = as_position(goal)
        self.penalty_mode = penalty_mode
        self.rate_weighting = rate_weighting
        self.fixed_altitude = bool(fixed_altitude)

        n = params.slot_count
        self.n_slots = n
        self.n_interior = n - 1
        self.genome_size = 3 * (n - 1) + n
        self.split_offset = 3 * (n - 1)

        bounds = np.asarray(params.bounds_m, dtype=np.float64)
        self._lo = bounds[:, 0]
        self._span = bounds[:, 1] - bounds[:, 0]
        for name, point in (("start", self.start), ("goal", self.goal)):
            inside = np.all(point >= bounds[:, 0]) and np.all(point <= bounds[:, 1])
            if not inside:
                raise ValueError(f"{name} waypoint {point} lies outside the arena")

        # Gene indices frozen in fixed-altitude mode (the z coordinate of
        # every interior waypoint) and the value they are pinned to.
        if self.fixed_altitude and self.n_interior > 0:
            self._frozen_idx = np.arange(2, self.split_offset, 3)
        else:
            self._frozen_idx = np.empty(0, dtype=int)
        self._frozen_value = float(
            normalize(params.altitude_m, bounds[2, 0], bounds[2, 1]))

    # ------------------------------------------------------------------
    # Genome handling
    # ------------------------------------------------------------------

    def adjust(self, genes) -> np.ndarray:
        """Clamp genes to [0, 1] and re-pin frozen genes.

        Accepts a single genome (dim,) or a stack (B, dim); returns a new
        array of the same shape.
        """
        arr = np.clip(np.asarray(genes, dtype=np.float64), 0.0, 1.0)
        if self._frozen_idx.size:
            arr[..., self._frozen_idx] = self._frozen_value
        return arr

    def frozen_gene_indices(self) -> np.ndarray:
        """Gene positions pinned by :meth:`adjust` (empty in full-3D mode)."""
        return self._frozen_idx.copy()

    def heuristic_mean(self) -> np.ndarray:
        """Initialization mean: straight start-to-goal path, splits at 0.5."""
        genome = np.full(self.genome_size, 0.5)
        n = self.n_slots
        for k in range(self.n_interior):
            frac = (k + 1) / n
            point = self.start + frac * (self.goal - self.start)
            for axis in range(3):
                genome[3 * k + axis] = normalize(
                    point[axis], self._lo[axis], self._lo[axis] + self._span[axis])
        return self.adjust(genome)

    def _check_genome(self, genome) -> np.ndarray:
        arr = np.asarray(genome, dtype=np.float64)
        if arr.shape != (self.genome_size,):
            raise ValueError(
                f"genome must have shape ({self.genome_size},), got {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("genome genes must be finite")
        if np.any(arr < 0.0) or np.any(arr > 1.0):
            raise ValueError("genome genes must lie in [0, 1]")
        return arr

    def decode(self, genome):
        """Decode a genome into a :class:`Trajectory` and a time-split vector."""
        arr = self._check_genome(genome)
        coords, split = self._decode_stack(arr[None, :])
        return Trajectory(coords[:, 0].T.copy()), split[0].copy()

    def encode(self, traj: Trajectory, time_split) -> np.ndarray:
        """Inverse of :meth:`decode` for trajectories inside the arena."""
        split = as_time_split(time_split, self.n_slots)
        if traj.n_slots != self.n_slots:
            raise ValueError(
                f"trajectory has {traj.n_slots} slots, expected {self.n_slots}")
        genome = np.empty(self.genome_size)
        interior = traj.waypoints[1:-1]
        genome[: self.split_offset] = (
            (interior - self._lo) / self._span).reshape(-1)
        genome[self.split_offset:] = split
        return genome

    def _decode_stack(self, genomes: np.ndarray):
        """Vectorized decode of pre-validated genomes, shape (B, dim).

        Returns the waypoints coordinate-major, shape (3, B, N+1): x, y
        and z each fill one (B, N+1) block.  Also returns the (B, N)
        split block.
        """
        b = genomes.shape[0]
        n = self.n_slots
        coords = np.empty((3, b, n + 1))
        coords[:, :, 0] = self.start[:, None]
        coords[:, :, n] = self.goal[:, None]
        for k in range(3):
            coords[k, :, 1:n] = (self._lo[k]
                                 + genomes[:, k:self.split_offset:3] * self._span[k])
        return coords, genomes[:, self.split_offset:]

    # ------------------------------------------------------------------
    # Physics per slot
    # ------------------------------------------------------------------

    def _tables(self, waypoints: np.ndarray, split: np.ndarray) -> SlotTable:
        """Per-slot physical quantities for stacked missions.

        ``waypoints`` is coordinate-major, shape (3, B, N+1), and
        ``split`` has shape (B, N); every field of the result is a (B, N)
        array.  Rates and energies are evaluated with the slot-start
        geometry.
        """
        p = self.params
        starts = waypoints[:, :, :-1]
        d_su = _norm3(starts - self.source[:, None, None])
        d_du = _norm3(starts - self.user[:, None, None])
        hops = _norm3(waypoints[:, :, 1:] - starts)
        speeds = hops / p.slot_duration_s
        corr = doppler_factor(speeds, p)
        r_up = rate_uplink(d_su, corr, p)
        r_dn = rate_downlink(d_su, d_du, corr, p)
        weight = split if self.rate_weighting == "delta" else 1.0
        sigma = p.slot_duration_s
        return SlotTable(
            d_su_m=d_su, d_du_m=d_du, hop_m=hops, speed_mps=speeds,
            correlation=corr, rate_up_bps=r_up, rate_down_bps=r_dn,
            weighted_rate_up_bps=r_up * weight,
            weighted_rate_down_bps=r_dn * weight,
            harvested_j=harvested_energy_slot(d_su, split, p),
            fly_j=sigma * flying_power(speeds, self.propulsion),
            backscatter_j=split * sigma * p.backscatter_circuit_power_w,
            cache_j=split * sigma * p.ub_tx_power_w,
        )

    def slot_table(self, traj: Trajectory, time_split) -> SlotTable:
        """Per-slot breakdown of one mission (used by exports and demos)."""
        split = as_time_split(time_split, self.n_slots)
        t = self._tables(traj.waypoints.T[:, None], split[None, :])
        return SlotTable(*(getattr(t, f.name)[0] for f in fields(t)))

    # ------------------------------------------------------------------
    # Objective, constraints, fitness
    # ------------------------------------------------------------------

    def _margin_arrays(self, waypoints: np.ndarray, split: np.ndarray,
                       tables: SlotTable) -> dict:
        """Margins, objective and fitness of stacked missions; each is (B,)."""
        p = self.params
        sum_up = np.sum(tables.weighted_rate_up_bps, axis=1)
        sum_dn = np.sum(tables.weighted_rate_down_bps, axis=1)
        sum_harvest = np.sum(tables.harvested_j, axis=1)
        sum_consume = np.sum(
            tables.fly_j + tables.backscatter_j + tables.cache_j, axis=1)
        cache_credit = p.cached_fraction * p.demanded_rate_bps

        m_cache = cache_credit + sum_up - sum_dn
        m_demand = sum_dn - p.demanded_rate_bps
        m_energy = sum_harvest - sum_consume

        max_hop = p.max_speed_mps * p.slot_duration_s
        m_speed = _row_min(max_hop - tables.hop_m)

        start_dev = _norm3(waypoints[:, :, 0] - self.start[:, None])
        goal_dev = _norm3(waypoints[:, :, -1] - self.goal[:, None])
        m_bounds = np.minimum.reduce([
            _row_min(split),
            _row_min(1.0 - split),
            -start_dev,
            -goal_dev,
        ])

        scale_cache = np.maximum(1.0, cache_credit + sum_up + np.abs(sum_dn))
        scale_demand = np.maximum(1.0, np.abs(sum_dn) + p.demanded_rate_bps)
        scale_energy = np.maximum(1.0, sum_harvest + sum_consume)
        scale_speed = max(1.0, max_hop)

        feasible = (
            (m_cache >= -_REL_TOL * scale_cache)
            & (m_demand >= -_REL_TOL * scale_demand)
            & (m_energy >= -_REL_TOL * scale_energy)
            & (m_speed >= -_SPEED_TOL)
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
        worst[np.isnan(worst)] = np.inf  # overflowed margins rank last
        if self.penalty_mode == "paper":
            penalty = -1.0
        else:
            penalty = PENALTY_SCALE * (1.0 + worst)
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

    def _assess(self, traj: Trajectory, time_split):
        """Feasibility report, objective and fitness of one mission, one pass."""
        split = as_time_split(time_split, self.n_slots)
        wp = traj.waypoints.T[:, None]
        sp = split[None, :]
        m = self._margin_arrays(wp, sp, self._tables(wp, sp))
        report = FeasibilityReport(
            margins={name: float(m[name][0]) for name in _CONSTRAINT_NAMES},
            feasible=bool(m["feasible"][0]),
            worst_violation=float(m["worst"][0]),
        )
        return report, float(m["objective"][0]), float(m["fitness"][0])

    def check_constraints(self, traj: Trajectory, time_split) -> FeasibilityReport:
        """Evaluate every mission constraint for one candidate."""
        return self._assess(traj, time_split)[0]

    # ------------------------------------------------------------------
    # Evaluation entry points
    # ------------------------------------------------------------------

    def evaluate(self, genome) -> EvaluatedSolution:
        """Decode and fully evaluate one genome."""
        traj, split = self.decode(genome)
        report, obj, fitness = self._assess(traj, split)
        return EvaluatedSolution(
            genome=np.asarray(genome, dtype=np.float64).copy(),
            trajectory=traj,
            time_split=split,
            objective_bps=obj,
            fitness=fitness,
            report=report,
        )

    def evaluate_batch(self, genomes) -> BatchEvaluation:
        """Evaluate a stack of genomes, shape (B, dim), in one pass."""
        arr = np.asarray(genomes, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != self.genome_size:
            raise ValueError(
                f"expected genome stack of shape (B, {self.genome_size}), "
                f"got {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("genome genes must be finite")
        waypoints, split = self._decode_stack(arr)
        m = self._margin_arrays(waypoints, split, self._tables(waypoints, split))
        return BatchEvaluation(
            genomes=arr,
            objectives=m["objective"],
            fitness=m["fitness"],
            feasible=m["feasible"],
            worst_violation=m["worst"],
        )
