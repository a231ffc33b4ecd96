"""Smoke test of the narrative demos: each script runs to completion.

Each demo runs in its own interpreter with a temporary working directory,
because some write their outputs (fit_curve.csv, figures) to the cwd.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import cgnp

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS, "no scripts under demos/"


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    # the child imports the package under test, installed or not
    src = str(Path(cgnp.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
