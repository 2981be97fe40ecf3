# # The benchmark matrix: capacity and verify, end to end, in fresh processes
#
# Runs `capsym capacity` and `capsym verify` on the unit sphere at each of
# `--levels` and on the 2:1:1 spheroid at each of `--spheroid-levels`, each
# command in a fresh interpreter, as a user would.  Every row records the
# command's wall time (interpreter start-up included), its peak RSS (the
# child's own `ru_maxrss`, from `os.wait4`), its exit code, the capacity it
# printed and that capacity's relative error against the closed-form value
# of `capsym oracle`.  Each shape and level also gets the stage times of
# `demos/stage_times.py` (mesh, validate, far, near and diagonal assembly,
# the preconditioner's setup, GMRES, the residual matvec, `eval_fields`,
# the scan and the import) and its GMRES iteration count and condition
# estimate, run in its own fresh process at the same number of samples;
# it times a sphere of radius 1.3, whose stages cost what the unit
# sphere's do.
#
#     python demos/bench_matrix.py [--levels 2 3 4 5] [--spheroid-levels 4]
#         [--samples N] [--src DIR] [--output FILE --label NAME]
#
# `--src` is the `src` directory of the checkout to measure (by default
# this one's), so two checkouts can be measured by one script on one
# machine.  Without `--output` the result is printed as JSON; with it, the
# result is stored under `runs[NAME]` of FILE, which keeps the runs already
# there, so one file can hold the numbers of two checkouts side by side.
# BLAS runs on one thread unless OPENBLAS_NUM_THREADS is set, as in the
# `capsym` command.  Uses the standard library only.

import argparse
import json
import os
import platform
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
STAGE = re.compile(r"^  (\w+)\s+(-?[0-9.]+) s$")
SOLVER = re.compile(r"^  GMRES iterations (\d+); condition estimate (\S+)$", re.M)
SHAPES = {"sphere": ["sphere", "1"], "spheroid": ["ellipsoid", "2", "1", "1"]}


def child_env(src: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(src),
                OPENBLAS_NUM_THREADS=os.environ.get("OPENBLAS_NUM_THREADS", "1"))


def run_fresh(argv, env) -> dict:
    """Exit code, stdout, wall time and peak RSS of one fresh process."""
    with tempfile.TemporaryFile(mode="w+") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=out, stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        return {"exit": proc.returncode, "stdout": out.read(), "wall_s": wall,
                "peak_rss_mb": usage.ru_maxrss / 1024}


def capsym(args, env) -> dict:
    return run_fresh([sys.executable, "-m", "capsym.cli", *args], env)


def stages(shape: str, level: int, samples: int, env) -> tuple[dict, dict]:
    """Stage times, and the GMRES iteration count and condition estimate."""
    argv = [sys.executable, str(HERE / "stage_times.py"), str(level), "--samples", str(samples)]
    run = run_fresh(argv + (["--spheroid"] if shape == "spheroid" else []), env)
    if run["exit"] != 0:
        raise RuntimeError(f"stage_times.py {level} ({shape}) exited with {run['exit']}")
    out = run["stdout"]
    iterations, cond = SOLVER.search(out).groups()
    return ({m[1]: float(m[2]) for m in map(STAGE.match, out.splitlines()) if m},
            {"gmres_iterations": int(iterations), "cond_estimate": float(cond)})


def measure(args) -> dict:
    env = child_env(args.src)
    cases = [("sphere", L) for L in args.levels] + [("spheroid", L) for L in args.spheroid_levels]
    rows, stage_times, solver = [], {}, {}
    oracles = {shape: json.loads(capsym(["oracle", "--shape", *SHAPES[shape]], env)["stdout"])
               ["capacity"] for shape, _ in cases}
    for shape, level in cases:
        spec = ["--shape", *SHAPES[shape], str(level)]
        for command, extra in (("capacity", []), ("verify", ["--samples", str(args.samples)])):
            run = capsym([command, *spec, *extra], env)
            row = {"shape": shape, "level": level, "command": command, "exit": run["exit"],
                   "wall_s": round(run["wall_s"], 4),
                   "peak_rss_mb": round(run["peak_rss_mb"], 1)}
            if run["exit"] == 0:
                report = json.loads(run["stdout"])
                cap = report["cap_charge" if command == "capacity" else "capacity"]
                row.update(capacity=cap, cap_rel_err=abs(cap - oracles[shape]) / oracles[shape])
                if command == "verify":
                    row.update(verdict=report["verdict"], reasons=report["reasons"])
            rows.append(row)
            print(f"{shape} L{level} {command}: {row['wall_s']:.3f} s, "
                  f"{row['peak_rss_mb']:.1f} MB", file=sys.stderr)
        stage_times[f"{shape} L{level}"], solver[f"{shape} L{level}"] = \
            stages(shape, level, args.samples, env)
    return {"machine": {"platform": platform.platform(), "processor": _cpu(),
                        "cores": len(os.sched_getaffinity(0)),
                        "python": platform.python_version(),
                        "openblas_threads": env["OPENBLAS_NUM_THREADS"]},
            "samples": args.samples, "rows": rows, "stages_s": stage_times, "solver": solver}


def _cpu() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main() -> None:
    ap = argparse.ArgumentParser(description="End-to-end benchmark matrix in fresh processes.")
    ap.add_argument("--levels", type=int, nargs="*", default=[2, 3, 4, 5])
    ap.add_argument("--spheroid-levels", type=int, nargs="*", default=[4])
    ap.add_argument("--samples", type=int, default=64)
    ap.add_argument("--src", type=Path, default=HERE.parent / "src")
    ap.add_argument("--output", type=Path)
    ap.add_argument("--label", default="run")
    args = ap.parse_args()
    args.src = args.src.resolve()

    result = measure(args)
    if args.output is None:
        print(json.dumps(result, indent=1))
        return
    doc = json.loads(args.output.read_text()) if args.output.exists() else {"runs": {}}
    doc["runs"][args.label] = result
    args.output.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote runs[{args.label!r}] of {args.output}")


if __name__ == "__main__":
    main()
