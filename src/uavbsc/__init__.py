"""Joint UAV trajectory / time-splitting optimization for backscatter relaying.

A ground station powers and addresses a UAV-mounted backscatter tag that
relays cached or freshly received data to a ground user.  This package
models the two-hop link (time-selective channels, backscatter rates, RF
energy harvesting, rotary-wing propulsion power), encodes missions as
normalized genomes, and searches them with a genetic algorithm, a particle
swarm, and an improved particle swarm, under cache, rate, energy, and
mobility constraints.  A benchmark harness adds seeded campaigns,
parameter sweeps, a uniform random baseline, and artifact export.
"""

from .common import STALL_TOL, GenerationRecord, SolverReport
from .config import ConfigError, ScenarioConfig, db_to_linear, dbm_to_watt
from .encoding import (
    PENALTY_SCALE,
    BatchEvaluation,
    EvaluatedSolution,
    FeasibilityReport,
    LinkProblem,
    SlotTable,
)
from .ga import GaConfig
from .ga import run as run_ga
from .harness import (
    RunArtifact,
    SweepPoint,
    SweepSpec,
    export_solution,
    random_search,
    run_campaign,
    run_single,
    run_sweep,
)
from .model import (
    EULER_GAMMA,
    ParameterError,
    PropulsionParams,
    RotorConstants,
    SystemParams,
    Trajectory,
    bessel_j0,
    doppler_factor,
    flying_power,
    harvested_energy_slot,
    rate_downlink,
    rate_uplink,
)
from .pso import IPSO_MUTATION_VARIANCE, PsoConfig
from .pso import run as run_pso

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # model
    "EULER_GAMMA", "ParameterError", "Trajectory", "bessel_j0",
    "RotorConstants", "PropulsionParams", "SystemParams",
    "doppler_factor", "rate_uplink", "rate_downlink",
    "harvested_energy_slot", "flying_power",
    # encoding
    "PENALTY_SCALE", "LinkProblem", "FeasibilityReport",
    "EvaluatedSolution", "SlotTable", "BatchEvaluation",
    # solvers
    "STALL_TOL", "GenerationRecord", "SolverReport",
    "GaConfig", "run_ga", "PsoConfig", "run_pso", "IPSO_MUTATION_VARIANCE",
    # scenarios & harness
    "ConfigError", "ScenarioConfig", "db_to_linear", "dbm_to_watt",
    "RunArtifact", "run_single", "run_campaign", "random_search",
    "SweepSpec", "SweepPoint", "run_sweep", "export_solution",
]
