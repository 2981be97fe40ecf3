"""Smoke test of the demos: each runs to completion at its smallest setting,
so a signature change under a demo fails here instead of in a reader's hands."""

import ast
import json
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
    ("bench_matrix.py", "--levels", "2", "--spheroid-levels", "2"),
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


def test_bench_matrix_rows(tmp_path):
    """Each command and shape gives a row with its wall time, peak RSS and
    capacity error, and each shape its stage times; a second label joins
    the first in the same file."""
    out = tmp_path / "bench.json"
    out.write_text(json.dumps({"runs": {"a": {}}}))
    run_demo(("bench_matrix.py", "--levels", "2", "--spheroid-levels", "2",
              "--samples", "8", "--output", str(out), "--label", "b"), tmp_path)
    runs = json.loads(out.read_text())["runs"]
    assert sorted(runs) == ["a", "b"]
    rows = runs["b"]["rows"]
    assert [(r["shape"], r["command"]) for r in rows] == [
        ("sphere", "capacity"), ("sphere", "verify"),
        ("spheroid", "capacity"), ("spheroid", "verify")]
    for row in rows:
        assert row["exit"] == 0 and row["level"] == 2
        assert row["wall_s"] > 0 and row["peak_rss_mb"] > 0
        assert 0 < row["cap_rel_err"] < 0.02
    assert [r["verdict"] for r in rows if r["command"] == "verify"] == [True, False]
    for stages in runs["b"]["stages_s"].values():
        assert {"import", "far", "near", "precondition", "gmres", "eval_fields",
                "scan"} <= stages.keys()
    solver = runs["b"]["solver"]
    assert sorted(solver) == ["sphere L2", "spheroid L2"]
    assert all(0 < s["gmres_iterations"] <= 25 and s["cond_estimate"] > 1
               for s in solver.values())
