# # Calibrating the sphere noise floors
#
# The theorem's functionals vanish exactly on balls, so on a triangulated
# sphere everything we measure is pure discretization noise.  The verdict
# thresholds shipped in `capsym.functionals.SPHERE_NOISE_FLOOR` are 3x the
# floors printed by this script; rerun it after touching the mesh
# generator, the quadrature rules, or the solver, and paste the new
# numbers into that table: the printed table has its keys, and each row's
# three numbers come from one `verify_solution` report, the one the
# verdict rests on.  The coarse levels 0 and 1 (`--min-level 0`) move
# with `--seed`; their shipped rows take the largest value over seeds 0-3.
#
# Level 5 takes several minutes and ~3.5 GB at any quadrature order, most
# of it the 3.4 GB dense matrix; pass `--max-level 5` only on a machine
# with headroom.

import argparse
import time

from capsym import bem, functionals as fn, geometry as geo

parser = argparse.ArgumentParser(description=__doc__)
parser.add_argument("--min-level", type=int, default=2)
parser.add_argument("--max-level", type=int, default=4)
parser.add_argument("--quad-order", type=int, default=6, choices=(1, 3, 6, 12))
parser.add_argument("--samples", type=int, default=64)
parser.add_argument("--seed", type=int, default=0)
args = parser.parse_args()

print("level  panels   f1_rel      f2_rel      newton       wall_s")
table = {}
for level in range(args.min_level, args.max_level + 1):
    t0 = time.perf_counter()
    sol = bem.solve_equilibrium(geo.make_sphere_mesh(1.0, level), args.quad_order)
    # the three measures the verdict tests, from the report it rests on
    rep = fn.verify_solution(sol, level=level, seed=args.seed, n_samples=args.samples)
    wall = time.perf_counter() - t0
    table[level] = {
        "f1_rel": abs(rep.f1) / rep.f1_scale,
        "f2_rel": abs(rep.f2_lhs - rep.f2_rhs) / rep.f2_rhs,
        "newton": rep.newton_sup_deficit,
    }
    print(f"{level:5d}  {sol.mesh.num_panels:6d}   " + "   ".join(
        f"{x:.3e}" for x in table[level].values()) + f"   {wall:6.1f}")

# The shipped table rounds each floor up slightly so that run-to-run
# jitter (different BLAS, different sample seeds) stays below it.
print("\nSPHERE_NOISE_FLOOR = {")
for level, row in table.items():
    print(f"    {level}: {{" + ", ".join(f'"{k}": {x:.1e}' for k, x in row.items()) + "},")
print("}")
