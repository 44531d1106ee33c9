"""The package's public surface: every exported name resolves, and the
test-only helpers that moved to ``tests/oracles.py`` and ``tests/helpers.py``
are gone from it.  The source also stays within its size limits."""

import importlib
from pathlib import Path

import pytest

import uavbsc

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
]


def _resolves(owner, path: str) -> bool:
    for part in path.split("."):
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
