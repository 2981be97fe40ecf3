"""Span recorder that times capsym from outside the package.

The tracer replaces a fixed list of capsym functions with timing
wrappers at every module binding the program calls through (for example
`bem.eval_potential` and the `eval_potential` that `functionals`
imported from it), records one span per call in memory, and puts the
original bindings back afterwards.  Nothing under `src/` is edited.

A span is `[name, start, end, parent, job, child_time, info]`: `parent`
is the index of the enclosing span (-1 at the top), `job` the job id the
worker assigned, `child_time` the summed duration of the direct child
spans, and `info` a small value a probe extracts from the arguments
(problem sizes, point coordinates) for the computed metrics.
"""

from __future__ import annotations

import gzip
import importlib
import json
import statistics
import time
from pathlib import Path

# capsym module -> functions traced there.  `lu_factor` and `lu_solve`
# are scipy functions, traced at their binding inside `bem`.  Serialisation
# helpers (`json_17g`, `report_to_json`) are deliberately left out, so
# their time counts as `cli.self_s`.
TRACED = {
    "cli": ("main",),
    "geometry": ("make_sphere_mesh", "make_ellipsoid_mesh", "make_bumpy_sphere_mesh",
                 "load_off", "validate", "panel_curvature"),
    "bem": ("solve_equilibrium", "assemble_single_layer", "lu_factor", "lu_solve",
            "self_integral_inv_r", "panel_quadrature", "winding_number",
            "eval_potential", "eval_gradient", "eval_hessian", "capacity_three_ways"),
    "functionals": ("verify_solution", "newton_scan", "pbv_scan"),
    "symfun": ("newton_deficit", "sym_elementary", "s2_tensor"),
    "identity_lab": ("check_identity_A", "check_identity_B", "check_identity_C",
                     "check_div_free_s2", "check_level_set_identity",
                     "check_boundary_limits"),
    "oracles": ("radial_v_fields", "ball_capacity", "ellipsoid_capacity"),
}

MESH_BUILDERS = ("geometry.make_sphere_mesh", "geometry.make_ellipsoid_mesh",
                 "geometry.make_bumpy_sphere_mesh")
EVALS = ("bem.eval_potential", "bem.eval_gradient", "bem.eval_hessian")
IDENTITY_CHECKS = ("identity_lab.check_identity_A", "identity_lab.check_identity_B",
                   "identity_lab.check_identity_C")


def _assembly_size(args, kwargs):
    mesh = args[0] if args else kwargs["mesh"]
    order = args[1] if len(args) > 1 else kwargs.get("quad_order", 6)
    from capsym.bem import triangle_rule
    return mesh.num_panels, len(triangle_rule(order)[1])


def _point_key(args, kwargs):
    x = args[1] if len(args) > 1 else kwargs["x"]
    return tuple(float(c) for c in x)


def _row_count(args, kwargs):
    pts = args[1] if len(args) > 1 else kwargs["sample_points"]
    return len(pts)


PROBES = {
    "bem.assemble_single_layer": _assembly_size,
    "bem.lu_factor": lambda args, kwargs: int((args[0] if args else kwargs["a"]).shape[0]),
    "bem.eval_potential": _point_key,
    "bem.eval_gradient": _point_key,
    "bem.eval_hessian": _point_key,
    "functionals.newton_scan": _row_count,
}


class Tracer:
    """Wraps the TRACED functions while installed; spans stay in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.job = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = {name: importlib.import_module(f"capsym.{name}") for name in TRACED}
        wrappers = {}
        for mod, names in TRACED.items():
            for fname in names:
                fn = getattr(modules[mod], fname)
                wrappers[id(fn)] = (fn, self._wrap(f"{mod}.{fname}", fn))
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def _wrap(self, name, fn):
        spans, stack, probe = self.spans, self._stack, PROBES.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, 0.0, 0.0, parent, self.job, 0.0,
                   probe(args, kwargs) if probe else None]
            stack.append(len(spans))
            spans.append(rec)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                rec[1], rec[2] = t0, t1
                if parent >= 0:
                    spans[parent][5] += t1 - t0

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    def job_spans(self, job) -> list[list]:
        return [s for s in self.spans if s[4] == job]

    def write(self, path: Path) -> None:
        """Spans as gzipped JSON lines: name, start, end, parent, job, self time."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for s in self.spans:
                fh.write(json.dumps([s[0], s[1], s[2], s[3], s[4], s[2] - s[1] - s[5]]) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def job_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one job from its spans (all times in seconds)."""
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    for name, t0, t1, _parent, _job, child, _info in spans:
        total[name] = total.get(name, 0.0) + (t1 - t0)
        own[name] = own.get(name, 0.0) + (t1 - t0 - child)
        calls[name] = calls.get(name, 0) + 1

    def t(*names):
        return sum(total.get(n, 0.0) for n in names)

    def c(*names):
        return sum(calls.get(n, 0) for n in names)

    info = {}
    for s in spans:
        info.setdefault(s[0], []).append(s[6])
    F, Q = (info.get("bem.assemble_single_layer") or [(0, 0)])[0]
    lu_flops = sum(2.0 / 3.0 * n**3 for n in info.get("bem.lu_factor", []))
    distinct = len({p for n in EVALS for p in info.get(n, [])})
    scan_points = sum(info.get("functionals.newton_scan", []))
    scan_s = t("functionals.newton_scan", "functionals.pbv_scan")

    return {
        "cli.main_s": t("cli.main"),
        "cli.self_s": own.get("cli.main", 0.0),
        "geometry.mesh_build_s": t(*MESH_BUILDERS),
        "geometry.load_off_s": t("geometry.load_off"),
        "geometry.validate_s": t("geometry.validate"),
        "geometry.validate_calls": c("geometry.validate"),
        "geometry.panel_curvature_s": t("geometry.panel_curvature"),
        "bem.solve_equilibrium_s": t("bem.solve_equilibrium"),
        "bem.assemble_single_layer_s": t("bem.assemble_single_layer"),
        "bem.lu_factor_s": t("bem.lu_factor"),
        "bem.lu_solve_s": t("bem.lu_solve"),
        "bem.solve_self_s": own.get("bem.solve_equilibrium", 0.0),
        "bem.self_integral_calls": c("bem.self_integral_inv_r"),
        "bem.self_integral_s": t("bem.self_integral_inv_r"),
        # computed from problem sizes, not measured traffic
        "bem.matrix_bytes": 8 * F * F,
        "bem.kernel_evals": F * F * Q,
        "bem.assemble_evals_per_s": _ratio(F * F * Q, t("bem.assemble_single_layer")),
        "bem.lu_gflops": _ratio(lu_flops, t("bem.lu_factor")) / 1e9,
        "bem.eval_calls": c(*EVALS),
        "bem.eval_s": t(*EVALS),
        "bem.winding_number_calls": c("bem.winding_number"),
        "bem.winding_number_s": t("bem.winding_number"),
        "bem.panel_quadrature_calls": c("bem.panel_quadrature"),
        "bem.panel_quadrature_s": t("bem.panel_quadrature"),
        "bem.capacity_three_ways_s": t("bem.capacity_three_ways"),
        "functionals.verify_solution_s": t("functionals.verify_solution"),
        "functionals.newton_scan_s": t("functionals.newton_scan"),
        "functionals.pbv_scan_s": t("functionals.pbv_scan"),
        "functionals.points_per_s": _ratio(scan_points, scan_s),
        "functionals.evals_per_point": _ratio(c(*EVALS), 3 * distinct),
        "symfun.newton_deficit_calls": c("symfun.newton_deficit"),
        "symfun.sym_elementary_calls": c("symfun.sym_elementary"),
        "symfun.sym_elementary_s": t("symfun.sym_elementary"),
        "symfun.s2_tensor_s": t("symfun.s2_tensor"),
        "identity_lab.check_identity_calls": c(*IDENTITY_CHECKS),
        "identity_lab.check_identity_s": t(*IDENTITY_CHECKS),
        "identity_lab.div_free_s": t("identity_lab.check_div_free_s2"),
        "identity_lab.level_set_s": t("identity_lab.check_level_set_identity"),
        "identity_lab.boundary_limits_s": t("identity_lab.check_boundary_limits"),
        "oracles.radial_v_fields_calls": c("oracles.radial_v_fields"),
        "trace.spans": len(spans),
    }


def median_metrics(per_job: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over the traced jobs."""
    return {k: statistics.median(m[k] for m in per_job) for k in per_job[0]}
