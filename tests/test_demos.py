"""Smoke test: the demos that write no files run to completion.

A demo in ``PINNED`` must print its ``demos/output/<name>.txt`` byte for byte.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import pathdist

DEMOS = Path(__file__).resolve().parents[1] / "demos"
PINNED = {"05_fscore_baseline"}


@pytest.mark.parametrize("name", ["01_frechet_basics", "02_map_matching", "05_fscore_baseline"])
def test_demo_runs(name, tmp_path):
    src = str(Path(pathdist.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, str(DEMOS / f"{name}.py")],
        env={**os.environ, "PYTHONPATH": src},
        cwd=tmp_path,
        capture_output=True,
    )
    assert done.returncode == 0, done.stderr.decode()
    if name in PINNED:
        assert done.stdout == (DEMOS / "output" / f"{name}.txt").read_bytes()
