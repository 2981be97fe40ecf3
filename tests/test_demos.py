"""Smoke test of the demos: each runs to completion at its smallest setting,
so a signature change under a demo fails here instead of in a reader's hands."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import capsym
from capsym.functionals import SPHERE_NOISE_FLOOR

ROOT = Path(__file__).resolve().parent.parent
SRC = Path(capsym.__file__).resolve().parent.parent

DEMOS = [
    ("ball_equality_walkthrough.py",),
    ("calibrate_noise.py", "--min-level", "0", "--max-level", "2"),
    ("identity_tour.py",),
    ("sphere_vs_spheroid.py",),
    ("stage_times.py", "2"),
]


def test_every_demo_is_listed():
    assert sorted(d[0] for d in DEMOS) == sorted(p.name for p in (ROOT / "demos").glob("*.py"))


def run_demo(argv, cwd) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
    out = subprocess.run([sys.executable, str(ROOT / "demos" / argv[0]), *argv[1:]],
                         env=env, cwd=cwd, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr[-2000:]
    assert out.stdout.strip()
    return out.stdout


@pytest.mark.parametrize("argv", DEMOS, ids=[d[0] for d in DEMOS])
def test_demo_runs(argv, tmp_path):
    run_demo(argv, tmp_path)


def test_calibration_table_pastes_into_the_floors(tmp_path):
    """The table calibrate_noise.py prints has SPHERE_NOISE_FLOOR's levels
    and keys, so pasting it in as its header says keeps default_thresholds
    working."""
    out = run_demo(("calibrate_noise.py", "--min-level", "0", "--max-level", "1"), tmp_path)
    table = ast.literal_eval(out[out.index("SPHERE_NOISE_FLOOR = ") + 21:])
    assert sorted(table) == [0, 1]
    for level, row in table.items():
        assert row.keys() == SPHERE_NOISE_FLOOR[level].keys()
        assert all(isinstance(x, float) and x > 0 for x in row.values())
