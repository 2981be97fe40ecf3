"""capsym benchmark: run one workload as `capsym` CLI jobs, check every
output, and print the metrics by name with their units.

Run from the repository root:

    python3 perfbench/run.py --workload solve-l4 --seed 1 --seconds 20 --trace 0

Workloads: solve-l4, scan-l3, identity-suite (see perfbench/README.md).
With --trace 0 the result carries the end-to-end metrics, with --trace 1
the per-layer metrics of a traced run.  The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics; the
lines before it are a readable summary and the environment.  The full
record (environment, every job, per-layer values) is also written to
perfbench/work/.

Exit codes: 0 the benchmark ran (a job that failed its output check is
counted in `failed` and makes `correct` false), 2 the benchmark could not
run (no src/capsym in this checkout, a worker crashed or ran out of
time); no result line is printed in that case.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "work"
# the names of workloads.WORKLOADS; run.py itself imports neither capsym nor numpy
WORKLOADS = ("solve-l4", "scan-l3", "identity-suite")
SETUP_PROBES = 3  # fresh processes timed for setup_s, besides the worker itself
BUDGET_S = 170.0  # every run ends within this

PER_LAYER_UNITS = {
    "cli.main_s": "s", "cli.self_s": "s", "cli.cpu_s": "s", "cli.output_bytes": "B",
    "cli.main_s.nproc_threads": "s",
    "geometry.mesh_build_s": "s", "geometry.load_off_s": "s", "geometry.validate_s": "s",
    "geometry.validate_calls": "count", "geometry.panel_curvature_s": "s",
    "setup.geometry_s": "s",
    "bem.solve_equilibrium_s": "s", "bem.assemble_single_layer_s": "s",
    "bem.lu_factor_s": "s", "bem.lu_solve_s": "s", "bem.solve_self_s": "s",
    "bem.self_integral_calls": "count", "bem.self_integral_s": "s",
    "bem.matrix_bytes": "B", "bem.kernel_evals": "count", "bem.assemble_evals_per_s": "1/s",
    "bem.lu_gflops": "GFLOP/s", "bem.lu_gflops.nproc_threads": "GFLOP/s",
    "bem.eval_calls": "count", "bem.eval_s": "s",
    "bem.winding_number_calls": "count", "bem.winding_number_s": "s",
    "bem.panel_quadrature_calls": "count", "bem.panel_quadrature_s": "s",
    "bem.capacity_three_ways_s": "s",
    "functionals.verify_solution_s": "s", "functionals.newton_scan_s": "s",
    "functionals.pbv_scan_s": "s", "functionals.points_per_s": "1/s",
    "functionals.evals_per_point": "ratio",
    "symfun.newton_deficit_calls": "count", "symfun.sym_elementary_calls": "count",
    "symfun.sym_elementary_s": "s", "symfun.s2_tensor_s": "s",
    "identity_lab.check_identity_calls": "count", "identity_lab.check_identity_s": "s",
    "identity_lab.div_free_s": "s", "identity_lab.level_set_s": "s",
    "identity_lab.boundary_limits_s": "s",
    "oracles.reference_s": "s", "oracles.radial_v_fields_calls": "count",
    "trace.job_s": "s", "trace.untraced_job_s": "s", "trace.overhead_s": "s",
    "trace.spans": "count",
    "env.nproc": "count", "env.llc_bytes": "B", "env.blas_threads": "count",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def spawn(mode: str, args, deadline: float, blas_threads: int = 1) -> dict:
    """Run worker.py in a fresh process and return its JSON result.

    Workers run OpenBLAS on one thread unless told otherwise: the jobs'
    output is printed at 17 digits, and with more threads the order of
    BLAS reductions, and with it the last digits, can change between runs."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
           "--trace", str(args.trace), "--workdir", str(WORK)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               OPENBLAS_NUM_THREADS=str(blas_threads))
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"no time left to start the {mode} worker")
    try:
        # on timeout, subprocess.run kills the worker and waits for it
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker did not finish within the time budget") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise BenchError(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def end_to_end(args, deadline: float) -> tuple[dict, list[dict], dict]:
    setups = [spawn("setup", args, deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    run = spawn("run", args, deadline)
    setups.append(run["setup_s"])
    walls = [j["wall_s"] for j in run["jobs"]]
    metrics = {
        "job_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }
    notes = {
        "job_s": f"median of {len(walls)} jobs: " + ", ".join(f"{w:.3f}" for w in walls),
        "setup_s": f"median of {len(setups)} fresh workers: "
                   + ", ".join(f"{s:.3f}" for s in setups),
        "peak_rss_mb": "ru_maxrss of the worker",
    }
    return metrics, run["jobs"], {"notes": notes, "run": run}


def per_layer(args, deadline: float) -> tuple[dict, list[dict], dict]:
    run = spawn("run", args, deadline)
    threaded = spawn("one-job", args, deadline, len(os.sched_getaffinity(0)))
    layer = dict(run["per_layer"])
    layer["bem.lu_gflops.nproc_threads"] = threaded["per_layer"]["bem.lu_gflops"]
    layer["cli.main_s.nproc_threads"] = threaded["per_layer"]["cli.main_s"]
    env = run["env"]
    layer["env.nproc"] = env["nproc"]
    layer["env.llc_bytes"] = env["llc_bytes"]
    layer["env.blas_threads"] = env["blas_threads"]
    metrics = {k: (layer[k], unit) for k, unit in PER_LAYER_UNITS.items()}
    notes = {"trace.overhead_s": "median traced job_s minus median untraced job_s",
             "span files": f"{run['span_file']}, {threaded['span_file']}"}
    return metrics, run["jobs"] + threaded["jobs"], {"notes": notes, "run": run,
                                                     "threaded": threaded}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + BUDGET_S

    if not (ROOT / "src" / "capsym" / "__init__.py").is_file():
        print(f"error: no src/capsym under {ROOT}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    try:
        metrics, jobs, record = (per_layer if args.trace else end_to_end)(args, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    failed = [j for j in jobs if j["problems"]]
    cap_errs = [j["cap_rel_err"] for j in jobs if j["cap_rel_err"] is not None]
    env = record["run"]["env"]
    print(f"capsym benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    for name, (value, unit) in metrics.items():
        note = record["notes"].get(name, "")
        print(f"  {name:36s} {value:16.6g} {unit:8s} {note}")
    print(f"  {'failed_frac':36s} {len(failed) / len(jobs):16.6g} {'ratio':8s} "
          f"{len(failed)} of {len(jobs)} jobs failed their output check")
    if cap_errs:
        print(f"  {'cap_rel_err':36s} {statistics.median(cap_errs):16.6g} {'ratio':8s} "
              "|capacity - oracle| / oracle, median over jobs")
    for j in failed:
        print(f"  FAILED job: {'; '.join(j['problems'][:3])}")
    print("env " + json.dumps(env, sort_keys=True))

    result = {
        "correct": not failed,
        "attempted": len(jobs),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record_file = WORK / f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    record_file.write_text(json.dumps({"args": vars(args), "env": env, "result": result,
                                       **record}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
