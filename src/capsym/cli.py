"""Command-line entry point: capacity runs, theorem verification, the
identity suite, convergence studies, and closed-form oracle queries.

Exit codes: 0 success, 2 solver error or non-finite report value, 3 mesh
validation failure, 4 unreadable input file, 5 unsupported oracle shape.
The ball/not-ball verdict is data inside the report, never an exit code.
"""

from __future__ import annotations

import argparse
import math
import sys
import time

from . import bem, functionals, geometry, identity_lab, oracles

EXIT_OK = 0
EXIT_SOLVER = 2
EXIT_MESH = 3
EXIT_FILE = 4
EXIT_SHAPE = 5


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _build_shape(tokens: list[str]) -> tuple[geometry.TriMesh, int | None, dict]:
    """Parse a shape spec: sphere R L | ellipsoid a b c L | bumpy R L."""
    if not tokens:
        raise CliError(EXIT_SHAPE, "empty shape spec")
    name, *params = tokens
    try:
        vals = [float(p) for p in params]
    except ValueError:
        raise CliError(EXIT_SHAPE, f"non-numeric shape parameter in {tokens}") from None
    if name == "sphere" and len(vals) == 2:
        R, level = vals[0], int(vals[1])
        return geometry.make_sphere_mesh(R, level), level, {"shape": ["sphere", R, level]}
    if name == "ellipsoid" and len(vals) == 4:
        a, b, c, level = vals[0], vals[1], vals[2], int(vals[3])
        return (geometry.make_ellipsoid_mesh(a, b, c, level), level,
                {"shape": ["ellipsoid", a, b, c, level]})
    if name == "bumpy" and len(vals) == 2:
        R, level = vals[0], int(vals[1])
        return geometry.make_bumpy_sphere_mesh(R, level), level, {"shape": ["bumpy", R, level]}
    raise CliError(EXIT_SHAPE, f"unsupported shape spec: {' '.join(tokens)}")


def _load_input(args) -> tuple[geometry.TriMesh, int | None, dict]:
    if (args.mesh is None) == (args.shape is None):
        raise CliError(EXIT_FILE, "exactly one of --mesh and --shape is required")
    if args.mesh is not None:
        try:
            mesh = geometry.load_off(args.mesh)
        except OSError as exc:
            raise CliError(EXIT_FILE, f"cannot read mesh file: {exc}") from exc
        except geometry.OffParseError as exc:
            raise CliError(EXIT_FILE, f"OFF parse error: {exc}") from exc
        return mesh, None, {"mesh": args.mesh}
    return _build_shape(args.shape)


def _emit(text: str, path) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _solve(mesh: geometry.TriMesh, quad_order: int) -> bem.EquilibriumSolution:
    try:
        return bem.solve_equilibrium(mesh, quad_order)
    except bem.SolverError as exc:
        raise CliError(EXIT_SOLVER, f"solver error: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands


def cmd_capacity(args) -> int:
    mesh, level, src = _load_input(args)
    sol = _solve(mesh, args.quad_order)
    far = args.far_mult * mesh.diameter
    cap_charge, cap_asympt, cap_energy = bem.capacity_three_ways(sol, far)
    payload = {
        "cap_charge": cap_charge,
        "cap_asymptotic": cap_asympt,
        "cap_energy": cap_energy,
        "panels": mesh.num_panels,
        "residual_inf": sol.residual_inf,
        # good to a small factor; gecon's last digits vary from run to run
        "cond_estimate": float(f"{sol.cond_estimate:.3g}"),
        "sigma_positive": sol.sigma_positive,
        "config": _echo_config(args, src, level),
    }
    if args.format == "json":
        _emit(functionals.json_17g(payload), args.output)
    else:
        keys = ["cap_charge", "cap_asymptotic", "cap_energy", "panels",
                "residual_inf", "cond_estimate", "sigma_positive"]
        lines = [",".join(keys),
                 ",".join(_csv_cell(payload[k]) for k in keys)]
        _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def cmd_verify(args) -> int:
    mesh, level, src = _load_input(args)
    sol = _solve(mesh, args.quad_order)
    thresholds = functionals.default_thresholds(level)
    if args.tol_f1 is not None:
        thresholds["tol_f1"] = args.tol_f1
    if args.tol_f2 is not None:
        thresholds["tol_f2"] = args.tol_f2
    if args.tol_newton is not None:
        thresholds["tol_newton"] = args.tol_newton
    report = functionals.verify_solution(
        sol, level=level, seed=args.seed, n_samples=args.samples,
        thresholds=thresholds,
        use_exact_curvature=not args.discrete_curvature,
    )
    _emit(functionals.report_to_json(report, extra={"config": _echo_config(args, src, level)}),
          args.output)
    return EXIT_OK


def cmd_identity_check(args) -> int:
    result = identity_lab.run_suite(args.dims, args.points, args.seed, args.inject_fault)
    _emit("\n".join(result.lines) + "\n", args.output)
    return EXIT_OK if result.ok else 1


def cmd_convergence(args) -> int:
    if args.shape is None:
        raise CliError(EXIT_FILE, "convergence requires --shape")
    name = args.shape[0]
    levels = list(range(args.min_level, args.max_level + 1))
    rows = []
    oracle_cap = None
    if name == "sphere":
        oracle_cap = oracles.ball_capacity(3, float(args.shape[1]))
    elif name == "ellipsoid":
        a, b, c = (float(v) for v in args.shape[1:4])
        oracle_cap = oracles.ellipsoid_capacity(a, b, c)
    for level in levels:
        tokens = args.shape[:-1] if _shape_has_level(args.shape) else list(args.shape)
        mesh, _, _ = _build_shape(tokens + [str(level)])
        t0 = time.perf_counter()
        sol = _solve(mesh, args.quad_order)
        rep = functionals.verify_solution(sol, level=level, seed=args.seed,
                                          n_samples=args.samples)
        wall = time.perf_counter() - t0
        err = abs(sol.capacity - oracle_cap) / oracle_cap if oracle_cap else None
        rows.append((level, mesh.num_panels, sol.capacity, err, rep.f1,
                     rep.f2_lhs - rep.f2_rhs, rep.newton_sup_deficit, wall))
    lines = ["level,panels,capacity,cap_error,f1,f2_gap,newton_deficit,wall_time_s"]
    for r in rows:
        lines.append(",".join(_csv_cell(v) for v in r))
    _emit("\n".join(lines) + "\n", args.output)
    if name == "sphere":
        errs = [r[3] for r in rows]
        if any(b >= a for a, b in zip(errs, errs[1:])):
            sys.stderr.write("warning: capacity error not strictly decreasing\n")
    return EXIT_OK


def _shape_has_level(tokens: list[str]) -> bool:
    expected = {"sphere": 2, "ellipsoid": 4, "bumpy": 2}.get(tokens[0])
    return expected is not None and len(tokens) - 1 == expected


def cmd_oracle(args) -> int:
    n = args.dim
    tokens = args.shape or []
    if not tokens or tokens[0] not in ("sphere", "ellipsoid"):
        raise CliError(EXIT_SHAPE, f"no analytic oracle for shape: {' '.join(tokens) or '(none)'}")
    name = tokens[0]
    out = {"omega_n": oracles.unit_sphere_area(n), "dim": n}
    if name == "sphere":
        R = float(tokens[1]) if len(tokens) > 1 else 1.0
        cap = oracles.ball_capacity(n, R)
        fields = functionals.ball_boundary_fields(n, R)
        lhs, rhs = functionals.f2(fields, cap, n)
        out.update(
            shape=["sphere", R],
            capacity=cap,
            boundary_du=(n - 2) / R,
            boundary_H=1.0 / R,
            f1=functionals.f1(fields, n),
            f2_lhs=lhs,
            f2_rhs=rhs,
        )
        if n == 3:
            product, lb = functionals.lower_bound_n3(cap, fields)
            out.update(lb_product=product, lb_rhs=lb)
    else:
        if n != 3:
            raise CliError(EXIT_SHAPE, "ellipsoid oracle is n = 3 only")
        if len(tokens) != 4:
            raise CliError(EXIT_SHAPE, "ellipsoid oracle needs: ellipsoid a b c")
        a, b, c = (float(v) for v in tokens[1:])
        out.update(shape=["ellipsoid", a, b, c], capacity=oracles.ellipsoid_capacity(a, b, c))
    _emit(functionals.json_17g(out), args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# plumbing


def _csv_cell(v) -> str:
    """None is an empty cell; NaN and inf raise NonFiniteError, as in JSON."""
    if v is None:
        return ""
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, float):
        if not math.isfinite(v):
            raise functionals.NonFiniteError(f"non-finite value {v} in a CSV cell")
        return format(v, ".17g")
    return str(v)


def _echo_config(args, src: dict, level) -> dict:
    cfg = {"subcommand": args.command, **src, "level": level}
    for key in ("quad_order", "far_mult", "seed", "samples", "format"):
        if hasattr(args, key):
            cfg[key] = getattr(args, key)
    return cfg


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="capsym", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def add_io(p, shape=True, mesh=True):
        if shape:
            p.add_argument("--shape", nargs="+", metavar="TOK",
                           help="sphere R L | ellipsoid a b c L | bumpy R L")
        if mesh:
            p.add_argument("--mesh", help="OFF mesh file")
        p.add_argument("--output", help="write report here instead of stdout")

    p = sub.add_parser("capacity", help="solve and report capacity three ways")
    add_io(p)
    p.add_argument("--quad-order", type=int, default=6, dest="quad_order",
                   choices=(1, 3, 6, 12))
    p.add_argument("--far-mult", type=float, default=15.0, dest="far_mult")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("verify", help="full symmetry diagnostic report")
    add_io(p)
    p.add_argument("--quad-order", type=int, default=6, dest="quad_order",
                   choices=(1, 3, 6, 12))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=64)
    p.add_argument("--tol-f1", type=float, default=None, dest="tol_f1")
    p.add_argument("--tol-f2", type=float, default=None, dest="tol_f2")
    p.add_argument("--tol-newton", type=float, default=None, dest="tol_newton")
    p.add_argument("--discrete-curvature", action="store_true",
                   help="ignore exact curvature tags, use the cotangent estimate")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("identity-check", help="run the differential identity suite")
    p.add_argument("--dims", type=int, nargs="+", default=[3, 4, 5, 6])
    p.add_argument("--points", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--inject-fault", action="store_true",
                   help="test harness: corrupt residuals to exercise failure paths")
    p.add_argument("--output", help="write report here instead of stdout")
    p.set_defaults(func=cmd_identity_check)

    p = sub.add_parser("convergence", help="refinement study, CSV output")
    p.add_argument("--shape", nargs="+", metavar="TOK", required=True,
                   help="sphere R | ellipsoid a b c (level appended per row)")
    p.add_argument("--min-level", type=int, default=2, dest="min_level")
    p.add_argument("--max-level", type=int, default=4, dest="max_level")
    p.add_argument("--quad-order", type=int, default=6, dest="quad_order",
                   choices=(1, 3, 6, 12))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=16)
    p.add_argument("--output", help="write CSV here instead of stdout")
    p.set_defaults(func=cmd_convergence)

    p = sub.add_parser("oracle", help="closed-form oracle values")
    p.add_argument("--shape", nargs="+", metavar="TOK", required=True)
    p.add_argument("--dim", type=int, default=3)
    p.add_argument("--output", help="write report here instead of stdout")
    p.set_defaults(func=cmd_oracle)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exc.code
    except geometry.MeshError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_MESH
    except functionals.NonFiniteError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
