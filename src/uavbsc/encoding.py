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
objective, checks the four mission constraints (cache balance, demanded
rate, energy self-sufficiency, per-slot speed) and maps the pair
(objective, feasibility) to a scalar fitness that the solvers minimize:
feasible candidates score the negative rate sum; infeasible ones score a
large positive penalty that grows with the worst violation ("safe" mode)
or the legacy constant -1 ("paper" mode, which cannot separate infeasible
candidates from feasible ones with high rates).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .model import (
    PropulsionParams,
    SystemParams,
    Trajectory,
    as_position,
    doppler_factor,
    flying_power,
    harvested_energy_slot,
    link_terms,
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
    "RowEvaluator",
]

# Base fitness assigned to infeasible solutions in "safe" penalty mode;
# large enough that any feasible solution (fitness = -rate sum <= 0) wins.
PENALTY_SCALE = 1.0e12

# The choices of LinkProblem's penalty_mode and rate_weighting.
PENALTY_MODES = ("safe", "paper")
RATE_WEIGHTINGS = ("literal", "delta")

# Relative slack allowed on the three sum constraints (cache balance,
# demanded rate, energy); the speed constraint is checked to 1e-12 m.  The
# endpoints and the [0, 1] split box are no constraints: decoding pins the
# endpoints, and every entry point rejects genes outside [0, 1].
_REL_TOL = 1.0e-9
_SPEED_TOL = 1.0e-12

# Most genomes one evaluation pass takes.  A larger stack is evaluated in
# passes of this many rows, so that the pass's two dozen per-slot arrays
# stay small (128 KB each at 8 slots) whatever the stack's size.  On the
# reference mission (2 vCPUs), 2048 rows against 1024 left a campaign pass
# level (median ratio 0.99 over 12 alternating pairs; its ticks of up to
# 2,280 rows stay at two passes) and cut a sweep worker's slice, 151
# calls of about 1,500 rows, by 9% (12 of 12 pairs).
_PASS_ROWS = 2048

# The numeric parameter fields (see RowEvaluator): those with a range rule.
_RULED = {f.name for cls in (SystemParams, PropulsionParams)
          for f in fields(cls) if "rule" in f.metadata}


def _norm3(d: np.ndarray) -> np.ndarray:
    """Euclidean norm over the leading x / y / z axis of a scratch ``d``.

    ``d`` is overwritten.  The squares are summed left to right, in the
    order a norm over a trailing length-3 axis adds them, so both give
    the same bits.
    """
    np.square(d, out=d)
    total = d[0] + d[1]
    total += d[2]
    return np.sqrt(total, out=total)


def _pairwise_sum(rows: np.ndarray) -> np.ndarray:
    """numpy's pairwise summation of a length-n axis, over whole rows."""
    n = len(rows)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _pairwise_sum(rows[:half]) + _pairwise_sum(rows[half:])
    if n < 8:
        return sum(rows, np.zeros(rows.shape[1:]))
    acc = rows[:8]
    for i in range(8, n - n % 8, 8):
        acc = acc + rows[i:i + 8]
    total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + (
        (acc[4] + acc[5]) + (acc[6] + acc[7]))
    return sum(rows[n - n % 8:], total)


def _slot_sum(a: np.ndarray) -> np.ndarray:
    """Per-mission sums of an (N, B) slot-major array.

    Bit for bit ``np.sum`` over the slots of the (B, N) array: numpy adds
    each mission's pairwise sum to an initial zero.
    """
    return 0.0 + _pairwise_sum(a)


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
    """A decoded candidate together with its objective, feasibility and
    per-slot breakdown (``table``, which :meth:`to_dict` leaves out)."""

    genome: np.ndarray
    trajectory: Trajectory
    time_split: np.ndarray
    objective_bps: float
    fitness: float
    report: FeasibilityReport
    table: SlotTable

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
    """Per-slot breakdown of one mission: length-N arrays."""

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
    """Evaluation results: (B,) arrays for ``evaluate_batch``'s (B, dim)
    genomes, (seeds, rows) ones for a solver loop's (seeds, rows, dim)
    stack (see ``drive``)."""

    genomes: np.ndarray        # (B, dim), or a loop's (seeds, rows, dim)
    objectives: np.ndarray     # (B,) mission rate sums (bit/s)
    fitness: np.ndarray        # (B,) scalar fitness, lower is better
    feasible: np.ndarray       # (B,) bool
    worst_violation: np.ndarray  # (B,) normalized worst constraint violation


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
        # What the problems of one pass and of one solver loop share, and the
        # per-row parameter columns of a RowEvaluator's own copy.
        self._columns = {}
        self.geometry = (n, params.bounds_m, penalty_mode, rate_weighting,
                         self.fixed_altitude, *(tuple(p.tolist()) for p in (
                             self.source, self.user, self.start, self.goal)))

        bounds = np.asarray(params.bounds_m, dtype=np.float64)
        self._lo = bounds[:, 0]
        self._span = bounds[:, 1] - bounds[:, 0]
        for name, point in (("start", self.start), ("goal", self.goal)):
            inside = np.all(point >= bounds[:, 0]) and np.all(point <= bounds[:, 1])
            if not inside:
                raise ValueError(f"{name} waypoint {point} lies outside the arena")

        # Gene indices frozen in fixed-altitude mode (the z coordinate of
        # every interior waypoint), the value they are pinned to, and the
        # initialization mean: the straight start-to-goal path, splits at
        # 0.5.  numpy refuses a size past its index range with a
        # ValueError; like any size that memory cannot hold, it is a
        # MemoryError here, in either mode.
        self._frozen_value = float(
            normalize(params.altitude_m, bounds[2, 0], bounds[2, 1]))
        try:
            self._frozen_idx = (np.arange(2, self.split_offset, 3)
                                if self.fixed_altitude else np.empty(0, dtype=int))
            frac = np.arange(1, n) / n
            points = self.start + frac[:, None] * (self.goal - self.start)
            mean = np.full(self.genome_size, 0.5)
        except ValueError as exc:
            raise MemoryError(f"cannot index {n} slots of genes: {exc}") from exc
        # normalize's divisor hi - lo can differ from the span in the last bit
        hi = self._lo + self._span
        mean[: self.split_offset] = np.clip(
            (points - self._lo) / (hi - self._lo), 0.0, 1.0).reshape(-1)
        self._mean = self.adjust(mean)
        # Allocate and free one block the size of a pass's ~32 per-slot
        # arrays (4 MB at 8 slots, capped at 64 slots).  Per mallopt(3),
        # freeing an mmap'd block raises glibc's dynamic mmap and trim
        # thresholds, so the heap keeps what each pass frees rather than
        # returning it to the kernel and faulting it in on the next pass.
        # Without it a `campaign` benchmark pass took 0.641 s, not 0.600 s
        # (medians of 8 alternating pairs on 2 vCPUs; 7 pairs slower).
        np.empty(32 * min(n, 64) * _PASS_ROWS)

    def adjust(self, genes) -> np.ndarray:
        """Clamp genes to [0, 1] and re-pin frozen genes.

        Accepts a single genome (dim,) or any stack of them, such as a
        solver loop's (seeds, rows, dim); returns a new array of the same
        shape.  This is the one gate every solver block passes: a NaN or
        infinite gene raises ``ValueError`` rather than being clamped.
        """
        arr = np.asarray(genes, dtype=np.float64)
        if not np.isfinite(arr).all():
            raise ValueError("genome genes must be finite")
        arr = np.clip(arr, 0.0, 1.0)
        if self._frozen_idx.size:
            arr[..., self._frozen_idx] = self._frozen_value
        return arr

    def heuristic_mean(self) -> np.ndarray:
        """Initialization mean: straight start-to-goal path, splits at 0.5."""
        return self._mean.copy()

    def _check_genome(self, genome, stacked: bool = False) -> np.ndarray:
        """``genome`` as float64 after the checks every entry point shares.

        The shape must be (dim,), or (B, dim) when ``stacked``; then every
        gene must lie in [0, 1], a test that NaN fails too (the minimum
        and maximum of a row with NaN are NaN).  Only when it fails is
        finiteness tested, to pick the message.
        """
        arr = np.asarray(genome, dtype=np.float64)
        if stacked:
            if arr.ndim != 2 or arr.shape[1] != self.genome_size:
                raise ValueError(
                    f"expected genome stack of shape (B, {self.genome_size}), "
                    f"got {arr.shape}")
        elif arr.shape != (self.genome_size,):
            raise ValueError(
                f"genome must have shape ({self.genome_size},), got {arr.shape}")
        if arr.size and not (arr.min() >= 0.0 and arr.max() <= 1.0):
            if not np.isfinite(arr).all():
                raise ValueError("genome genes must be finite")
            raise ValueError("genome genes must lie in [0, 1]")
        return arr

    def decode(self, genome):
        """Decode a genome into a :class:`Trajectory` and a time-split vector."""
        coords, split = self._decode_stack(self._check_genome(genome)[None, :])
        return Trajectory(coords[:, :, 0].T.copy()), split[:, 0].copy()

    def _decode_stack(self, genomes: np.ndarray):
        """Vectorized decode of pre-validated genomes, shape (B, dim).

        Returns the waypoints coordinate- and slot-major, shape
        (3, N+1, B): each coordinate of each waypoint is one length-B
        row.  Also returns the (N, B) split block.
        """
        genes = genomes.T
        n = self.n_slots
        coords = np.empty((3, n + 1, genes.shape[1]))
        coords[:, 0] = self.start[:, None]
        coords[:, n] = self.goal[:, None]
        for k in range(3):
            axis = coords[k, 1:n]
            np.multiply(genes[k:self.split_offset:3], self._span[k], out=axis)
            axis += self._lo[k]
        return coords, np.ascontiguousarray(genes[self.split_offset:])

    def _evaluate_stack(self, waypoints: np.ndarray, split: np.ndarray,
                        with_table: bool = False) -> dict:
        """The one evaluation pass over stacked missions.

        ``waypoints`` (coordinate- and slot-major, shape (3, N+1, B)) and
        ``split`` (shape (N, B)) are as :meth:`_decode_stack` returns them,
        so the endpoints are pinned and every split lies in [0, 1].  Returns
        the four constraint margins by name under "margins", and the (B,)
        arrays "objective", "feasible", "worst" (the normalized worst
        violation) and "fitness"; with ``with_table``, also the
        :class:`SlotTable` of (N, B) arrays under "table".  Rates and
        energies are evaluated with the slot-start geometry.
        """
        p = self.params
        n, rows = split.shape
        # One norm gives the slot-start distances to the source and to the
        # user, and the hop lengths.
        d = np.empty((3, 3 * n, rows))
        starts = waypoints[:, :-1]
        np.subtract(starts, self.source[:, None, None], out=d[:, :n])
        np.subtract(starts, self.user[:, None, None], out=d[:, n:2 * n])
        np.subtract(waypoints[:, 1:], starts, out=d[:, 2 * n:])
        d_su, d_du, hops = _norm3(d).reshape(3, n, rows)
        del d  # hold fewer per-slot arrays at once
        sigma = p.slot_duration_s
        speeds = hops / sigma
        corr = doppler_factor(speeds, p)
        terms = link_terms(d_su, corr, p)
        r_up = rate_uplink(d_su, corr, p, terms)
        r_dn = rate_downlink(d_su, d_du, corr, p, terms)
        harvested = harvested_energy_slot(d_su, split, p, terms)
        del terms  # unused below: hold fewer per-slot arrays at once
        # The four summed slot terms, folded together: weighted up and down
        # rates, harvested and consumed energy.
        slots = np.empty((n, 4, rows))
        slots[:, 0], slots[:, 1], slots[:, 2] = r_up, r_dn, harvested
        if self.rate_weighting == "delta":
            slots[:, :2] *= split[:, None]
        weighted_up, weighted_dn = slots[:, 0], slots[:, 1]
        fly_j = flying_power(speeds, self.propulsion)
        fly_j *= sigma
        active_s = split * sigma
        backscatter_j = active_s * p.backscatter_circuit_power_w
        cache_j = np.multiply(active_s, p.ub_tx_power_w, out=active_s)
        consumed = np.add(fly_j, backscatter_j, out=slots[:, 3])
        consumed += cache_j

        sum_up, sum_dn, sum_harvest, sum_consume = _slot_sum(slots)
        cache_credit = p.cached_fraction * p.demanded_rate_bps
        credit_up = cache_credit + sum_up
        abs_dn = np.abs(sum_dn)
        max_hop = p.max_speed_mps * sigma

        def sum_constraint(margin, magnitude):  # held to _REL_TOL of its scale
            scale = np.maximum(1.0, magnitude)
            return margin, scale, _REL_TOL * scale

        # Each constraint is (margin, scale, slack): it holds when
        # margin >= -slack, and it is violated by -margin / scale.
        constraints = {
            "cache_balance": sum_constraint(credit_up - sum_dn, credit_up + abs_dn),
            "rate_demand": sum_constraint(sum_dn - p.demanded_rate_bps,
                                          abs_dn + p.demanded_rate_bps),
            "energy": sum_constraint(sum_harvest - sum_consume,
                                     sum_harvest + sum_consume),
            "speed": (np.minimum.reduce(max_hop - hops), np.maximum(1.0, max_hop),
                      _SPEED_TOL),
        }
        feasible = np.ones(sum_dn.shape, dtype=bool)
        worst = None  # the largest violation, folded in table order, then 0
        for margin, scale, slack in constraints.values():
            feasible &= margin >= -slack
            violation = -margin / scale
            worst = violation if worst is None else np.maximum(
                worst, violation, out=worst)
        np.maximum(worst, np.zeros_like(worst), out=worst)
        worst[np.isnan(worst)] = np.inf  # overflowed margins rank last
        if self.penalty_mode == "paper":
            fitness = np.full(worst.shape, -1.0)
        else:
            fitness = worst + 1.0
            fitness *= PENALTY_SCALE
        np.negative(sum_dn, out=fitness, where=feasible)
        result = {
            "margins": {name: c[0] for name, c in constraints.items()},
            "objective": sum_dn,
            "feasible": feasible,
            "worst": worst,
            "fitness": fitness,
        }
        if with_table:
            result["table"] = SlotTable(
                d_su_m=d_su, d_du_m=d_du, hop_m=hops, speed_mps=speeds,
                correlation=corr, rate_up_bps=r_up, rate_down_bps=r_dn,
                weighted_rate_up_bps=weighted_up,
                weighted_rate_down_bps=weighted_dn,
                harvested_j=harvested, fly_j=fly_j,
                backscatter_j=backscatter_j, cache_j=cache_j)
        return result

    def evaluate(self, genome) -> EvaluatedSolution:
        """Decode and fully evaluate one genome, its slot table included."""
        traj, split = self.decode(genome)
        result = self._evaluate_stack(traj.waypoints.T[:, :, None],
                                      split[:, None], with_table=True)
        t = result["table"]
        return EvaluatedSolution(
            genome=np.asarray(genome, dtype=np.float64).copy(),
            trajectory=traj,
            time_split=split,
            objective_bps=float(result["objective"][0]),
            fitness=float(result["fitness"][0]),
            report=FeasibilityReport(
                margins={name: float(m[0]) for name, m in result["margins"].items()},
                feasible=bool(result["feasible"][0]),
                worst_violation=float(result["worst"][0])),
            table=SlotTable(*(getattr(t, f.name)[:, 0] for f in fields(t))),
        )

    def _evaluate_pass(self, arr: np.ndarray, lo: int) -> dict:
        """:meth:`_evaluate_stack` of the pass at row ``lo``, with the
        parameter columns (if any) cut to it."""
        for (attr, name), column in self._columns.items():  # rules unchecked
            object.__setattr__(getattr(self, attr), name, column[lo:lo + _PASS_ROWS])
        return self._evaluate_stack(*self._decode_stack(arr[lo:lo + _PASS_ROWS]))

    def evaluate_batch(self, genomes) -> BatchEvaluation:
        """Evaluate a stack of genomes, shape (B, dim), ``_PASS_ROWS`` at a time."""
        arr = self._check_genome(genomes, stacked=True)
        passes = [self._evaluate_pass(arr, lo)
                  for lo in range(0, len(arr), _PASS_ROWS) or [0]]
        join = np.concatenate if len(passes) > 1 else (lambda arrays: arrays[0])
        return BatchEvaluation(arr, *(
            join([result[key] for result in passes])
            for key in ("objective", "fitness", "feasible", "worst")))


class RowEvaluator:
    """Rows that each belong to one of ``problems``, in one ``evaluate_batch``.

    The problems must share a ``geometry``.  The numeric parameter fields
    in which they differ are tabulated once, one value per problem; a call
    hands each row its own problem's values as per-row columns of a copy
    of the first problem.  Evaluation is row-wise, so every row keeps the
    bits of its own problem.
    """

    def __init__(self, problems: Sequence[LinkProblem]) -> None:
        first = self.problem = problems[0]
        self.table = {}  # (attr, field) -> the field's value in each problem
        if all(p is first for p in problems):
            return
        if any(p.geometry != first.geometry for p in problems):
            raise ValueError("problems evaluated together must share a geometry")
        for attr in ("params", "propulsion"):
            bundles = [vars(getattr(p, attr)) for p in problems]
            for name, value in bundles[0].items():
                values = [bundle[name] for bundle in bundles]
                if name in _RULED and values.count(value) < len(values):
                    self.table[attr, name] = np.array(values, dtype=float)
        if self.table:  # a copy whose parameter bundles take the columns
            self.problem = copy.copy(first)
            self.problem.params = copy.copy(first.params)
            self.problem.propulsion = copy.copy(first.propulsion)

    def __call__(self, genomes: np.ndarray, which) -> BatchEvaluation:
        """Row ``i`` evaluated on ``problems[which[i]]``; ``which`` is read
        only when the table is not empty."""
        if self.table:
            self.problem._columns = {key: values[which]
                                     for key, values in self.table.items()}
        return self.problem.evaluate_batch(genomes)

