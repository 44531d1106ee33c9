"""Every script in ``demos/`` runs from the repository root and prints."""

import os
import subprocess
import sys

import pytest

from helpers import REPO_ROOT

DEMOS = sorted((REPO_ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert {path.name for path in DEMOS} == {
        "link_model_tour.py", "solve_reference.py", "sweep_charging_power.py"}


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.name)
def test_demo_runs_and_prints(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(script)], cwd=REPO_ROOT,
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
