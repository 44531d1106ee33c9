"""The package's public surface: every exported name resolves, and the
test-only helpers that moved to ``tests/oracles.py`` and ``tests/helpers.py``
are gone from it.  The source also stays within its size limits."""

import dataclasses
import functools
import importlib
import importlib.util
import inspect
import typing
from pathlib import Path

import pytest

import uavbsc
from uavbsc import harness
from uavbsc.config import ScenarioConfig

MODULES = ("cli", "common", "config", "encoding", "ga", "harness", "model",
           "pso")

# (module, attribute path) pairs removed from the package.
REMOVED = [
    ("model", "sample_channel"),
    ("model", "ChannelSample"),
    ("model", "_complex_normal"),
    ("model", "distance"),
    ("model", "slot_speed"),
    ("model", "Trajectory.hop_lengths"),
    ("pso", "ipso_mutate"),
    ("pso", "init_positions"),
    ("ga", "init_population"),
    ("common", "sample_initial_genes"),
    ("common", "resolve_init_mean"),
    ("encoding", "denormalize"),
    ("encoding", "LinkProblem.random_genomes"),
    ("encoding", "LinkProblem.objective"),
    ("encoding", "EvaluatedSolution.eval_index"),
    ("common", "drive_lockstep"),
    ("encoding", "BatchEvaluation.split"),
    ("common", "ProgressCallback"),
    ("config", "ScenarioConfig.save"),
    ("config", "ScenarioConfig.canonical_text"),
    ("model", "SystemParams.euler_gamma"),
    ("encoding", "LinkProblem.encode"),
    ("harness", "grid_oracle"),
    ("harness", "GridResult"),
    ("harness", "GRID_MAX_POINTS"),
    ("harness", "GRID_MAX_SLOTS"),
    ("encoding", "evaluate_blocks"),
    ("common", "Incumbent.offer_rows"),
    ("harness", "convergence_speed"),
    ("harness", "RunArtifact.convergence_speed_bps"),
    ("encoding", "LinkProblem.frozen_gene_indices"),
    ("ga", "GaConfig.init_mean"),
    ("pso", "PsoConfig.init_mean"),
    ("pso", "PsoConfig.inertia_const"),
    ("model", "RotorConstants"),
    ("model", "PropulsionParams.from_rotor"),
    ("model", "PropulsionParams.rotor"),
    ("common", "seed_problems"),
    ("common", "config_snapshot"),
    ("common", "Incumbent.report"),
    ("config", "SOLVER_CONFIGS"),
    *[("config", f"ScenarioConfig.{name}") for name in (
        "system", "propulsion", "source", "user", "start", "goal",
        "penalty_mode", "rate_weighting", "fixed_altitude")],
]

# (module, callable path, parameter) triples removed from the package.
REMOVED_PARAMETERS = [
    *[(module, name, "callback") for module, name in (
        ("common", "Incumbent"), ("ga", "run"), ("ga", "steps"),
        ("pso", "run"), ("pso", "steps"), ("harness", "_run_group"),
        ("harness", "run_single"), ("harness", "random_search"),
        ("harness", "random_steps"))],
    ("harness", "random_search", "chunk_size"),
    ("harness", "random_steps", "chunk_size"),
    ("common", "initial_population", "init_mean"),
    ("common", "Incumbent.offer", "worst"),
]


def _resolves(owner, path: str) -> bool:
    """Whether ``path`` names an attribute, or a dataclass field."""
    for part in path.split("."):
        if dataclasses.is_dataclass(owner) and part in {
                f.name for f in dataclasses.fields(owner)}:
            return True  # a field without a default is no class attribute
        if not hasattr(owner, part):
            return False
        owner = getattr(owner, part)
    return True


@pytest.mark.parametrize("name", MODULES)
def test_every_module_export_resolves(name):
    module = importlib.import_module(f"uavbsc.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


def test_every_package_export_resolves():
    assert [n for n in uavbsc.__all__ if not hasattr(uavbsc, n)] == []
    assert len(set(uavbsc.__all__)) == len(uavbsc.__all__)


@pytest.mark.parametrize("module, path", REMOVED)
def test_moved_and_deleted_names_are_not_importable(module, path):
    owner = importlib.import_module(f"uavbsc.{module}")
    assert not _resolves(owner, path)
    assert not _resolves(uavbsc, path)
    assert path not in owner.__all__
    assert path not in uavbsc.__all__


@pytest.mark.parametrize("module, name, parameter", REMOVED_PARAMETERS)
def test_deleted_parameters_are_not_accepted(module, name, parameter):
    owner = functools.reduce(getattr, name.split("."),
                             importlib.import_module(f"uavbsc.{module}"))
    assert parameter not in inspect.signature(owner).parameters


@pytest.mark.parametrize("name", ["run_campaign", "run_single", "run_sweep",
                                  "make_solver_config"])
def test_harness_annotations_resolve(name):
    hints = typing.get_type_hints(getattr(harness, name))
    assert hints["scenario"] is ScenarioConfig


def test_every_traced_name_is_defined_on_its_owner():
    # The benchmark's tracer replaces each (owner, attr) pair it lists by
    # looking the attribute up in the owner's __dict__.
    path = Path(__file__).parents[1] / "benchmarks" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [span for span, owner, attr, *_ in tracing.TARGETS
               if attr not in owner.__dict__]
    assert missing == []


# Size limits of ``src/uavbsc/*.py``: the longest line allowed, and the
# most lines in total (the count at the start of the current roadmap).
# Together they stop the line count shrinking by packing code into wider
# lines.
MAX_LINE_LENGTH = 88
MAX_SOURCE_LINES = 3348
SOURCES = sorted(Path(uavbsc.__file__).parent.glob("*.py"))


def test_no_source_line_is_longer_than_the_limit():
    long_lines = [
        f"{path.name}:{number} ({len(line)} characters)"
        for path in SOURCES
        for number, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1)
        if len(line) > MAX_LINE_LENGTH
    ]
    assert long_lines == []


def test_source_stays_under_the_line_cap():
    total = sum(len(path.read_text(encoding="utf-8").splitlines())
                for path in SOURCES)
    assert 0 < total <= MAX_SOURCE_LINES
