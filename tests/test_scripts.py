"""The experiment scripts under ``scripts/`` run to completion at small
sizes, each as its own process with ``alps`` from this source tree."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import alps

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(cwd, name, *args):
    src = str(Path(alps.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, str(SCRIPTS / name), *map(str, args)], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("name, args", [
    ("sensitivity_experiment.py", ["--n", 60]),
    ("fusion_demo.py", []),
    ("gcv_selection_experiment.py", ["--replicates", 2, "--n", 60, "--rules"]),
])
def test_experiment_runs(tmp_path, name, args):
    proc = run_script(tmp_path, name, *args)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_selection_drift_records_and_compares_a_record_with_itself(tmp_path):
    proc = run_script(tmp_path, "selection_drift.py", "--quick", "--out", "drift.json")
    assert proc.returncode == 0, proc.stderr
    proc = run_script(tmp_path, "selection_drift.py", "--compare", "drift.json", "drift.json")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "model documents differing: 0/" in proc.stdout
