"""Command-line entry point: capacity runs, theorem verification, the
identity suite, convergence studies, and closed-form oracle queries.

Exit codes: 0 success, 1 an identity-check row failed, 2 solver error,
non-finite report value, arithmetic failure or argument usage error, 3
mesh validation failure, 4 unreadable input or unwritable output file, 5
malformed or unsupported shape spec on any subcommand.  The
ball/not-ball verdict is data inside the report, never an exit code.

OpenBLAS runs on one thread unless OPENBLAS_NUM_THREADS is already set:
the solver's matrix-vector products run on one lane per core, and BLAS
threads inside those lanes would compete with them for the same cores.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time

# before numpy loads OpenBLAS, which reads it once
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import bem, functionals, geometry, identity_lab, oracles

EXIT_OK = 0
EXIT_SOLVER = 2
EXIT_MESH = 3
EXIT_FILE = 4
EXIT_SHAPE = 5

# name -> (mesh builder (sizes..., L), number of sizes, closed-form n = 3
# capacity or None); looked up at call time, so wrappers installed on
# `geometry` and `oracles` see each call.
SHAPES = {
    "sphere": (lambda R, L: geometry.make_sphere_mesh(R, L), 1,
               lambda R: oracles.ball_capacity(3, R)),
    "ellipsoid": (lambda a, b, c, L: geometry.make_ellipsoid_mesh(a, b, c, L), 3,
                  lambda a, b, c: oracles.ellipsoid_capacity(a, b, c)),
    "bumpy": (lambda R, L: geometry.make_bumpy_sphere_mesh(R, L), 1, None),
}
SHAPE_HELP = "sphere R L | ellipsoid a b c L | bumpy R L"


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _parse_shape(tokens: list[str], need_level: bool) -> tuple[str, list[float], int | None]:
    """(name, sizes, L) of a spec `name sizes... [L]` with positive sizes and a
    level L >= 0, optional unless `need_level`; else CliError(EXIT_SHAPE)."""
    name, *rest = tokens
    if name not in SHAPES:
        raise CliError(EXIT_SHAPE, f"unsupported shape: {name} (expected {SHAPE_HELP})")
    arity = SHAPES[name][1]
    try:
        sizes = [float(t) for t in rest[:arity]]
        level = int(rest[arity]) if len(rest) > arity else None
        ok = (len(rest) - arity in ((1,) if need_level else (0, 1))
              and all(0 < s < math.inf for s in sizes) and (level is None or level >= 0))
    except ValueError:
        ok = False
    if not ok:
        raise CliError(EXIT_SHAPE, f"malformed shape spec: {' '.join(tokens)} (expected "
                       f"{SHAPE_HELP}, sizes positive, L a non-negative integer)")
    return name, sizes, level


def _build_shape(name: str, sizes: list[float], level: int) -> geometry.TriMesh:
    return SHAPES[name][0](*sizes, level)


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
    name, sizes, level = _parse_shape(args.shape, need_level=True)
    return _build_shape(name, sizes, level), level, {"shape": [name, *sizes, level]}


def _emit(text: str, path) -> None:
    if path:
        try:
            with open(path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliError(EXIT_FILE, f"cannot write output file: {exc}") from exc
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
    cap_charge, cap_asympt, cap_flux = bem.capacity_three_ways(
        sol, args.far_mult * mesh.diameter)
    row = {
        "cap_charge": cap_charge,
        "cap_asymptotic": cap_asympt,
        "cap_flux": cap_flux,
        "panels": mesh.num_panels,
        "residual_inf": sol.residual_inf,
        # a lower bound on the condition number, meaningful to a few digits
        "cond_estimate": float(f"{sol.cond_estimate:.3g}"),
        "sigma_positive": sol.sigma_positive,
    }
    if args.format == "json":
        text = functionals.json_17g({**row, "config": _echo_config(args, src, level)})
    else:
        text = _csv([row.values()], list(row))
    _emit(text, args.output)
    return EXIT_OK


def cmd_verify(args) -> int:
    mesh, level, src = _load_input(args)
    sol = _solve(mesh, args.quad_order)
    thresholds = functionals.default_thresholds(level)
    for key in thresholds:
        if getattr(args, key) is not None:
            thresholds[key] = getattr(args, key)
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
    if args.min_level > args.max_level:
        raise CliError(EXIT_SOLVER, f"empty level range: --min-level {args.min_level} "
                       f"is above --max-level {args.max_level}")
    name, sizes, _ = _parse_shape(args.shape, need_level=False)
    closed_form = SHAPES[name][2]
    oracle_cap = closed_form(*sizes) if closed_form else None
    rows = []
    for level in range(args.min_level, args.max_level + 1):
        mesh = _build_shape(name, sizes, level)
        t0 = time.perf_counter()
        sol = _solve(mesh, args.quad_order)
        rep = functionals.verify_solution(sol, level=level, seed=args.seed,
                                          n_samples=args.samples)
        wall = time.perf_counter() - t0
        err = abs(sol.capacity - oracle_cap) / oracle_cap if oracle_cap else None
        rows.append((level, mesh.num_panels, sol.capacity, err, rep.f1,
                     rep.f2_lhs - rep.f2_rhs, rep.newton_sup_deficit, wall))
    _emit(_csv(rows, ["level", "panels", "capacity", "cap_error", "f1", "f2_gap",
                      "newton_deficit", "wall_time_s"]), args.output)
    if name == "sphere":
        errs = [r[3] for r in rows]
        if any(b >= a for a, b in zip(errs, errs[1:])):
            sys.stderr.write("warning: capacity error not strictly decreasing\n")
    return EXIT_OK


def cmd_oracle(args) -> int:
    n = args.dim
    tokens = ["sphere", "1"] if args.shape == ["sphere"] else args.shape  # the unit ball
    name, sizes, _ = _parse_shape(tokens, need_level=False)
    closed_form = SHAPES[name][2]
    if closed_form is None:
        raise CliError(EXIT_SHAPE, f"no analytic oracle for shape: {name}")
    out = {"omega_n": oracles.unit_sphere_area(n), "dim": n}
    if name == "sphere":
        (R,) = sizes
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
            raise CliError(EXIT_SHAPE, f"{name} oracle is n = 3 only")
        out.update(shape=[name, *sizes], capacity=closed_form(*sizes))
    _emit(functionals.json_17g(out), args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# plumbing


def _csv_cell(v, key: str = "(CSV cell)") -> str:
    """None is an empty cell; NaN and inf raise NonFiniteError, as in JSON."""
    if v is None:
        return ""
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, float):
        return functionals.format_17g(v, key)
    return str(v)


def _csv(rows, header: list[str]) -> str:
    lines = [",".join(header)]
    lines += [",".join(_csv_cell(v, k) for k, v in zip(header, r)) for r in rows]
    return "\n".join(lines) + "\n"


def _echo_config(args, src: dict, level) -> dict:
    cfg = {"subcommand": args.command, **src, "level": level}
    for key in ("quad_order", "far_mult", "seed", "samples", "discrete_curvature", "format"):
        if hasattr(args, key):
            cfg[key] = getattr(args, key)
    return cfg


def _at_least(kind, low):
    """argparse type: a finite `kind` value no smaller than `low`."""
    def parse(text: str):
        value = kind(text)
        if isinstance(value, float) and not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"{text} is not a finite number")
        if not value >= low:
            raise argparse.ArgumentTypeError(f"{text} is below the minimum {low}")
        return value
    parse.__name__ = kind.__name__  # argparse's "invalid int value" message
    return parse


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="capsym", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, func, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--output", help="write the output here instead of stdout")
        p.set_defaults(func=func)
        return p

    def add_io(p):
        p.add_argument("--shape", nargs="+", metavar="TOK", help=SHAPE_HELP)
        p.add_argument("--mesh", help="OFF mesh file")

    def add_quad_order(p):
        p.add_argument("--quad-order", type=int, default=6, choices=(1, 3, 6, 12),
                       help="order q of the triangle rule of every off-surface field; "
                            "the far matrix entries use min(q, 3), the diagonal and "
                            "near-field entries are exact integrals (default %(default)s)")

    p = command("capacity", cmd_capacity, "solve and report capacity three ways")
    add_io(p)
    add_quad_order(p)
    p.add_argument("--far-mult", type=_at_least(float, 10.0), default=15.0)
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = command("verify", cmd_verify, "full symmetry diagnostic report")
    add_io(p)
    add_quad_order(p)
    p.add_argument("--seed", type=_at_least(int, 0), default=0)
    p.add_argument("--samples", type=_at_least(int, 1), default=64)
    p.add_argument("--tol-f1", type=_at_least(float, 0.0), default=None)
    p.add_argument("--tol-f2", type=_at_least(float, 0.0), default=None)
    p.add_argument("--tol-newton", type=_at_least(float, 0.0), default=None)
    p.add_argument("--discrete-curvature", action="store_true",
                   help="ignore exact curvature tags, use the cotangent estimate")

    p = command("identity-check", cmd_identity_check, "run the differential identity suite")
    p.add_argument("--dims", type=_at_least(int, 3), nargs="+", default=[3, 4, 5, 6])
    p.add_argument("--points", type=_at_least(int, 1), default=10)
    p.add_argument("--seed", type=_at_least(int, 0), default=0)
    p.add_argument("--inject-fault", action="store_true",
                   help="test harness: corrupt residuals to exercise failure paths")

    p = command("convergence", cmd_convergence, "refinement study, CSV output")
    p.add_argument("--shape", nargs="+", metavar="TOK", required=True,
                   help="sphere R | ellipsoid a b c | bumpy R (level set per row)")
    p.add_argument("--min-level", type=_at_least(int, 0), default=2)
    p.add_argument("--max-level", type=_at_least(int, 0), default=4)
    add_quad_order(p)
    p.add_argument("--seed", type=_at_least(int, 0), default=0)
    p.add_argument("--samples", type=_at_least(int, 1), default=16)

    p = command("oracle", cmd_oracle, "closed-form oracle values")
    p.add_argument("--shape", nargs="+", metavar="TOK", required=True,
                   help="sphere [R] | ellipsoid a b c")
    p.add_argument("--dim", type=_at_least(int, 3), default=3)
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
    except ArithmeticError as exc:  # sizes or dimensions beyond the float range
        sys.stderr.write(f"error: arithmetic failure ({type(exc).__name__}): {exc}\n")
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
