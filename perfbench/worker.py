"""One benchmark worker process: import capsym, make the inputs from the
seed, then run `capsym` jobs one after another through `capsym.cli.main`
with stdout captured (a closed loop with one client).  Started by
`run.py`; prints its result as one JSON line on stdout.

Modes:
  setup   import capsym and make, write and validate the inputs; report
          the time and exit (a fresh-process sample of setup_s)
  run     setup, reference values, then jobs until --seconds have passed
          (at least two, so equal-seed outputs can be compared); with
          --trace 1 the jobs alternate untraced and traced
  one-job setup, then one traced job (run.py gives this worker one
          OpenBLAS thread per core, the others one thread in all)
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _read(path: Path) -> str:
    try:
        return path.read_text().strip()
    except OSError:
        return ""


def _blas_threads(lib_dir: Path) -> int:
    """Thread count of the OpenBLAS that `lib_dir` bundles (0 if unknown)."""
    for lib in sorted(lib_dir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads", "openblas_get_num_threads64_"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return 0


def environment() -> dict:
    """nproc, CPU model, cache sizes, and the Python, numpy, scipy and
    OpenBLAS versions with the BLAS thread count scipy's LU runs on."""
    import numpy
    import scipy

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        key = f"L{_read(index / 'level')}{_read(index / 'type').lower()[:1]}"
        caches[key] = _read(index / "size")
    llc = max((k for k in caches if caches[k]), default=None)
    llc_bytes = 0
    if llc:
        size = caches[llc]
        mult = {"K": 1024, "M": 1024**2, "G": 1024**3}.get(size[-1:], 1)
        llc_bytes = int(size.rstrip("KMG")) * mult
    model = ""
    for line in _read(Path("/proc/cpuinfo")).splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break

    def blas_version(mod):
        deps = mod.__config__.CONFIG.get("Build Dependencies", {})
        return deps.get("blas", {}).get("version", "")

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor(),
        "caches": caches,
        "llc_bytes": llc_bytes,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas_version(numpy),
        "openblas_scipy": blas_version(scipy),
        "blas_threads": _blas_threads(Path(scipy.__file__).parent.parent / "scipy.libs"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", ""),
    }


def run_job(cli, workload, argv: list[str]) -> dict:
    """One `capsym` call: wall and CPU time, exit code, output and its check."""
    buf = io.StringIO()
    error = None
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)  # looked up per call, so a traced job goes through the wrapper
    except SystemExit as exc:  # argparse rejects the argv
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        rc, error = None, traceback.format_exc()
    wall = time.perf_counter() - t0
    cpu = _cpu_s() - cpu0
    out = buf.getvalue()
    cap_err = None
    if error is not None:
        problems = ["raised: " + error.strip().splitlines()[-1]]
    else:
        try:
            problems, cap_err = workload.check(rc, out)
        except (ValueError, KeyError, TypeError) as exc:
            problems = [f"unreadable output: {exc!r}"]
    return {"wall_s": wall, "cpu_s": cpu, "rc": rc, "out": out,
            "problems": problems, "cap_rel_err": cap_err, "traceback": error}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--mode", choices=("setup", "run", "one-job"), required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()
    workdir = Path(args.workdir)

    # setup: import capsym, then make, write and validate the inputs
    t0 = time.perf_counter()
    import capsym
    if Path(capsym.__file__).resolve().parent != ROOT / "src" / "capsym":
        print(f"error: imported capsym from {capsym.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    import capsym.cli as cli
    import tracer
    from workloads import WORKLOADS

    tr = None
    if args.trace:
        tr = tracer.Tracer()
        tr.job = "setup"
        tr.install()
    workload = WORKLOADS[args.workload]()
    argv = workload.prepare(args.seed, workdir)
    setup_s = time.perf_counter() - t0
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0
    # geometry calls made by the benchmark itself while it makes the inputs
    setup_geometry_s = sum(s[2] - s[1] for s in tr.job_spans("setup")
                           if s[0].startswith("geometry.") and s[3] < 0) if tr else 0.0

    if tr:
        tr.job = "reference"
    t_ref = time.perf_counter()
    workload.reference()
    reference_s = time.perf_counter() - t_ref
    if tr:
        tr.uninstall()

    jobs = []
    t_loop = time.perf_counter()
    while True:
        traced = args.mode == "one-job" or (args.trace == 1 and len(jobs) % 2 == 1)
        if traced:
            tr.job = len(jobs)
            tr.install()
        try:
            job = run_job(cli, workload, argv)
        finally:
            if traced:
                tr.uninstall()
        job["traced"] = traced
        jobs.append(job)
        if args.mode == "one-job":
            break
        elapsed = time.perf_counter() - t_loop
        if len(jobs) >= 2 and elapsed + job["wall_s"] > args.seconds:
            break

    # equal seeds must give byte-identical stdout
    first = jobs[0]["out"].splitlines()
    for job in jobs[1:]:
        if job["out"] != jobs[0]["out"]:
            diff = [f"{a.strip()} != {b.strip()}"
                    for a, b in zip(first, job["out"].splitlines()) if a != b]
            job["problems"].append("stdout differs from the first job with the same seed: "
                                   + "; ".join(diff[:3] or ["different line count"]))

    result = {
        "setup_s": setup_s,
        "reference_s": reference_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "argv": argv,
        "env": environment(),
        "jobs": [{k: v for k, v in j.items() if k != "out"} for j in jobs],
    }
    if tr:
        per_job = []
        for i, job in enumerate(jobs):
            if job["traced"]:
                m = tracer.job_metrics(tr.job_spans(i))
                m["cli.cpu_s"] = job["cpu_s"]
                m["cli.output_bytes"] = len(job["out"].encode())
                per_job.append(m)
        layer = tracer.median_metrics(per_job)
        layer["oracles.reference_s"] = reference_s
        layer["setup.geometry_s"] = setup_geometry_s
        traced_s = [j["wall_s"] for j in jobs if j["traced"]]
        untraced_s = [j["wall_s"] for j in jobs if not j["traced"]]
        layer["trace.job_s"] = statistics.median(traced_s)
        if untraced_s:
            layer["trace.untraced_job_s"] = statistics.median(untraced_s)
            layer["trace.overhead_s"] = layer["trace.job_s"] - layer["trace.untraced_job_s"]
        result["per_layer"] = layer
        span_file = workdir / f"spans_{args.workload}_seed{args.seed}_{args.mode}.jsonl.gz"
        tr.write(span_file)
        result["span_file"] = str(span_file.relative_to(ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
