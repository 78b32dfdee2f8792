"""Smoke tests: every demo runs to completion.

A demo in ``PINNED`` must print its ``demos/output/<name>.txt`` byte for byte,
and the demos in ``WRITERS`` must write the other files of ``demos/output``.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import pathdist

DEMOS = Path(__file__).resolve().parents[1] / "demos"
PINNED = {"05_fscore_baseline"}
WRITERS = ["03_signatures_heatmap", "04_perturbation_study"]


def run_demo(script: Path, cwd: Path) -> subprocess.CompletedProcess:
    src = str(Path(pathdist.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, str(script)],
        env={**os.environ, "PYTHONPATH": src},
        cwd=cwd,
        capture_output=True,
    )
    assert done.returncode == 0, done.stderr.decode()
    return done


@pytest.mark.parametrize("name", ["01_frechet_basics", "02_map_matching", "05_fscore_baseline"])
def test_demo_runs(name, tmp_path):
    done = run_demo(DEMOS / f"{name}.py", tmp_path)
    if name in PINNED:
        assert done.stdout == (DEMOS / "output" / f"{name}.txt").read_bytes()


def test_writing_demos_reproduce_their_outputs_byte_for_byte(tmp_path):
    # Copies write next to themselves, so the repository's outputs stay untouched.
    demos = tmp_path / "demos"
    demos.mkdir()
    for name in WRITERS:
        shutil.copy(DEMOS / f"{name}.py", demos)
        run_demo(demos / f"{name}.py", tmp_path)
    written = sorted(p.name for p in (demos / "output").iterdir())
    # Every pinned file but the printed ones comes from these demos.
    assert set(written) == {p.name for p in (DEMOS / "output").iterdir()} - {f"{n}.txt" for n in PINNED}
    for name in written:
        assert (demos / "output" / name).read_bytes() == (DEMOS / "output" / name).read_bytes(), name
