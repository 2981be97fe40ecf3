"""Smoke test of the demos: each runs to completion at its smallest setting,
so a signature change under a demo fails here instead of in a reader's hands."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import capsym

ROOT = Path(__file__).resolve().parent.parent
SRC = Path(capsym.__file__).resolve().parent.parent

DEMOS = [
    ("ball_equality_walkthrough.py",),
    ("calibrate_noise.py", "--max-level", "2"),
    ("identity_tour.py",),
    ("sphere_vs_spheroid.py",),
    ("stage_times.py", "2"),
]


def test_every_demo_is_listed():
    assert sorted(d[0] for d in DEMOS) == sorted(p.name for p in (ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("argv", DEMOS, ids=[d[0] for d in DEMOS])
def test_demo_runs(argv, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
    out = subprocess.run([sys.executable, str(ROOT / "demos" / argv[0]), *argv[1:]],
                         env=env, cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr[-2000:]
    assert out.stdout.strip()
