# # Stage times of one equilibrium solve and one batch of evaluations
#
# Times `import capsym` in a fresh interpreter (the start-up every `capsym`
# command pays), each stage of `bem.solve_equilibrium` (far-field,
# near-field and self-integral parts of the assembly, the GMRES solve and
# the residual matvec) and one `bem.eval_fields` call on the sample points
# `verify` would scan, with `time.perf_counter`.  It also prints the
# number of lanes the assembly's far field ran on (one per usable core, as
# far as its scratch budget allows), the GMRES iteration count and
# condition estimate, and how many evaluation points lay within the mesh's
# bounding sphere and so needed the winding-number inside test; the last
# line is the process's peak RSS from `resource`.
#
#     python demos/stage_times.py LEVEL [--spheroid] [--samples N] [--seed S]
#
# `4 --samples 27` is the work of a `capsym verify --shape sphere R 4
# --samples 27` job, `3 --spheroid --samples 512` that of a level-3 2:1:1
# spheroid verify with 512 samples.  Set OPENBLAS_NUM_THREADS=1 for
# single-thread BLAS, and run under `taskset -c 0` for one far-field lane.

import argparse
import resource
import subprocess
import sys
import time

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
    clock = "import time; t = time.perf_counter(); import capsym; print(time.perf_counter() - t)"
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

    # assemble_single_layer, one part at a time
    rows = np.arange(F)
    M = np.empty((F, F), order="F")
    stage("far", bem._far_entries, M, mesh, rows, order)
    lanes, _ = bem._far_grid(F * len(bem.triangle_rule(order)[1]), F)
    stage("near", bem._near_entries, M, mesh, rows, order)
    stage("diagonal", bem._self_entries, M, mesh, rows)
    times["assembly"] = times["far"] + times["near"] + times["diagonal"]

    # the rest of solve_equilibrium, in its order
    sigma, hbar = stage("gmres", bem._gmres, M, np.ones(F))
    residual = float(np.max(np.abs(stage("residual", np.matmul, M, sigma) - 1.0)))
    del M
    s = np.linalg.svd(hbar, compute_uv=False)
    cond = float(s[0] / s[-1])

    sol = bem.EquilibriumSolution(mesh=mesh, sigma=sigma, capacity=float(sigma @ mesh.areas),
                                  quad_order=order, residual_inf=residual,
                                  cond_estimate=cond, sigma_positive=bool(np.all(sigma > 0)))
    X = fn.sample_exterior_points(mesh, args.samples, args.seed)
    stage("eval_fields", bem.eval_fields, sol, X)
    tested = int(np.count_nonzero(bem._within_bounding_sphere(mesh, X)))

    shape = "spheroid 2:1:1" if args.spheroid else "sphere R=1.3"
    print(f"{shape}, level {args.level}: {F} panels, quad order {order}, "
          f"{args.samples} evaluation points")
    print(f"  far-field lanes {lanes}; {tested} of {args.samples} evaluation points "
          "needed the inside test")
    print(f"  GMRES iterations {hbar.shape[1]}; condition estimate {sol.cond_estimate:.3g}")
    for name, t in times.items():
        print(f"  {name:<12} {t:8.3f} s")
    print(f"  capacity     {sol.capacity:.17g}")
    print(f"  residual     {residual:.3e}")
    print(f"  peak_rss     {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:8.1f} MB")


if __name__ == "__main__":
    main()
