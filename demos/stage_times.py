# # Stage times of one equilibrium solve and one batch of evaluations
#
# Times `import capsym.cli` in a fresh interpreter (the start-up every
# `capsym` command pays; `import capsym` alone loads nothing), the stages
# of one `bem.solve_equilibrium` call (far-field, near-field and
# self-integral parts of the assembly, the setup of the near-field
# preconditioner and the GMRES solve, each timed by wrapping its function
# in `bem` for the length of the call, the residual check's matrix-vector
# product after GMRES, and the rest of the call: its validation and the
# condition estimate), one `bem.eval_fields` call on the sample points
# `verify` would scan and one scan of those points as `verify` makes it
# (`bem.eval_fields_at_unit_scale`, the same fields left at the mesh's unit
# scale, then `functionals._scan`: the v-transform, Newton deficit and pbv
# residual, so the difference of the two rows is the scan's own cost), with
# `time.perf_counter`.  The far-field stage includes building the mesh's
# unit-scale copy and its panel rule (`bem._unit_discretisation`), which the
# near field, the diagonal and both evaluations then read without
# rebuilding either.  It also prints the
# number of lanes the assembly's far field, the matrix-vector products and
# the `eval_fields` call ran on (one per usable core, but no more than
# chunks, and for the products only from a matrix size up; read from the
# `bem._each_chunk` calls they make), the GMRES iteration count and
# condition estimate, and how many evaluation points lay within the mesh's
# bounding sphere and so needed the winding-number inside test; the last
# line is the process's peak RSS from `resource`.
#
#     python demos/stage_times.py LEVEL [--spheroid] [--samples N] [--seed S]
#
# `4 --samples 27` is the work of a `capsym verify --shape sphere R 4
# --samples 27` job, `3 --spheroid --samples 512` that of a level-3 2:1:1
# spheroid verify with 512 samples.  BLAS runs on one thread unless
# OPENBLAS_NUM_THREADS is set, as in the `capsym` command; run under
# `taskset -c 0` for one lane.

import argparse
import os
import resource
import subprocess
import sys
import time

# before numpy loads OpenBLAS, which reads it once
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from capsym import bem, functionals as fn, geometry as geo


def main() -> None:
    ap = argparse.ArgumentParser(description="Stage times of one equilibrium solve.")
    ap.add_argument("level", type=int)
    ap.add_argument("--spheroid", action="store_true", help="2:1:1 spheroid instead of a sphere")
    ap.add_argument("--samples", type=int, default=64)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--quad-order", type=int, default=6)
    args = ap.parse_args()

    times = {}
    clock = "import time; t = time.perf_counter(); import capsym.cli; print(time.perf_counter() - t)"
    times["import"] = float(subprocess.run([sys.executable, "-c", clock], capture_output=True,
                                           text=True, check=True).stdout)

    def stage(name, f, *a, **kw):
        t0 = time.perf_counter()
        result = f(*a, **kw)
        times[name] = time.perf_counter() - t0
        return result

    mesh = stage("mesh", geo.make_ellipsoid_mesh, 2.0, 1.0, 1.0, args.level) if args.spheroid \
        else stage("mesh", geo.make_sphere_mesh, 1.3, args.level)
    F, order = mesh.num_panels, args.quad_order
    stage("validate", geo.require_valid, mesh)

    # one real solve, its stages timed through wrappers around their functions;
    # a checkout measured through `bench_matrix.py --src` that lacks one of
    # them gets no line for it
    stages = {"far": "_far_entries", "near": "_near_entries", "diagonal": "_self_entries",
              "precondition": "_near_preconditioner", "gmres": "_gmres"}
    stages = {name: attr for name, attr in stages.items() if hasattr(bem, attr)}
    originals = {name: getattr(bem, attr) for name, attr in stages.items()}
    results, lanes, matvec_times = {}, [], []
    each_chunk, row_block_matvec = bem._each_chunk, bem._row_block_matvec

    def recording(body, starts, count):
        # the far field makes one call, then each matvec one, then
        # eval_fields one
        lanes.append(count)
        each_chunk(body, starts, count)

    def timed_matvec(M):
        matvec = row_block_matvec(M)

        def wrapper(x):
            t0 = time.perf_counter()
            y = matvec(x)
            matvec_times.append(time.perf_counter() - t0)
            return y
        return wrapper

    def timed(name):
        def wrapper(*a, **kw):
            results[name] = stage(name, originals[name], *a, **kw)
            return results[name]
        return wrapper

    X = fn.sample_exterior_points(mesh, args.samples, args.seed)
    for name, attr in stages.items():
        setattr(bem, attr, timed(name))
    bem._each_chunk, bem._row_block_matvec = recording, timed_matvec
    try:
        sol = stage("solve", bem.solve_equilibrium, mesh, order)
        # the residual check is the one matvec after GMRES's
        times["residual"] = matvec_times[-1]
        stage("eval_fields", bem.eval_fields, sol, X)
    finally:
        for name, attr in stages.items():
            setattr(bem, attr, originals[name])
        bem._each_chunk, bem._row_block_matvec = each_chunk, row_block_matvec
    times["rest"] = times.pop("solve") - sum(times[name] for name in stages) \
        - times["residual"]
    times["assembly"] = times["far"] + times["near"] + times["diagonal"]
    hbar = results["gmres"][1]

    stage("scan", lambda: fn._scan(*bem.eval_fields_at_unit_scale(sol, X)))
    tested = int(np.count_nonzero(bem._within_bounding_sphere(mesh, X)))

    shape = "spheroid 2:1:1" if args.spheroid else "sphere R=1.3"
    print(f"{shape}, level {args.level}: {F} panels, quad order {order}, "
          f"{args.samples} evaluation points")
    far_lanes, matvec_lanes, eval_lanes = lanes[0], lanes[1], lanes[-1]
    print(f"  far-field lanes {far_lanes}; matvec lanes {matvec_lanes}; evaluation lanes "
          f"{eval_lanes}; {tested} of {args.samples} evaluation points needed the "
          "inside test")
    print(f"  GMRES iterations {hbar.shape[1]}; condition estimate {sol.cond_estimate:.3g}")
    for name, t in times.items():
        print(f"  {name:<12} {t:8.3f} s")
    print(f"  capacity     {sol.capacity:.17g}")
    print(f"  residual     {sol.residual_inf:.3e}")
    print(f"  peak_rss     {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:8.1f} MB")


if __name__ == "__main__":
    main()
