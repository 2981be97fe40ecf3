"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Heavy equilibrium solves are shared through module-scoped fixtures.  All
sphere noise floors used for inequality thresholds are measured inside
this suite from the sphere runs themselves, never hard-coded.
"""

import math
import time

import numpy as np
import pytest

from capsym import bem, cli, functionals as fn, geometry as geo, oracles, symfun

FOUR_PI = 4.0 * math.pi
EIGHT_PI2 = 8.0 * math.pi**2


_CAPMAN = None


@pytest.fixture(autouse=True)
def _grab_capture_manager(request):
    global _CAPMAN
    _CAPMAN = request.config.pluginmanager.getplugin("capturemanager")


def _line(num: int, desc: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    msg = f"[criterion {num:2d}] {tag}  {desc}"
    if detail:
        msg += f"  ({detail})"
    # route around pytest's fd-level capture so the line always reaches
    # the real stdout
    if _CAPMAN is not None:
        with _CAPMAN.global_and_fixture_disabled():
            print("\n" + msg, flush=True)
    else:
        print(msg, flush=True)
    assert ok, msg


# ---------------------------------------------------------------------------
# shared solves


@pytest.fixture(scope="module")
def timings():
    return {}


@pytest.fixture(scope="module")
def sphere_sols(timings):
    sols = {}
    for level, order in ((3, 6), (4, 6), (5, 3)):
        t0 = time.perf_counter()
        sols[level] = bem.solve_equilibrium(geo.make_sphere_mesh(1.0, level), order)
        timings[f"sphere{level}"] = time.perf_counter() - t0
    return sols


@pytest.fixture(scope="module")
def spheroid_sols():
    return {
        level: bem.solve_equilibrium(geo.make_ellipsoid_mesh(2.0, 1.0, 1.0, level), 6)
        for level in (3, 4)
    }


@pytest.fixture(scope="module")
def bumpy_sol():
    return bem.solve_equilibrium(geo.make_bumpy_sphere_mesh(1.0, 4), 6)


@pytest.fixture(scope="module")
def sphere_floors(sphere_sols):
    """Measured sphere noise floors per level: relative |F1| and F2 gap."""
    floors = {}
    for level, sol in sphere_sols.items():
        fields = fn.fields_from_solution(sol)
        lhs, rhs = fn.f2(fields, sol.capacity, 3)
        floors[level] = {
            "f1_rel": abs(fn.f1(fields, 3)) / fn.f1_scale(fields),
            "f2_rel": abs(lhs - rhs) / rhs,
        }
    return floors


@pytest.fixture(scope="module")
def convergence_csv(tmp_path_factory):
    out = tmp_path_factory.mktemp("conv") / "sphere.csv"
    rc = cli.main(["convergence", "--shape", "sphere", "1",
                   "--min-level", "2", "--max-level", "5",
                   "--quad-order", "3", "--samples", "16",
                   "--output", str(out)])
    assert rc == 0
    return out.read_text()


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_ball_equality_chain():
    t0 = time.perf_counter()
    worst = 0.0
    rng = np.random.default_rng(0)
    for n in (3, 4, 5, 6):
        omega = oracles.unit_sphere_area(n)
        for R in (0.5, 1.0, 2.0):
            fields = fn.ball_boundary_fields(n, R)
            closed = 0.5 * (n - 2) ** 3 * omega * R ** (n - 4)
            worst = max(worst, abs(fn.f1(fields, n)) / fn.f1_scale(fields))
            lhs, rhs = fn.f2(fields, oracles.ball_capacity(n, R), n)
            worst = max(worst, abs(lhs - closed) / closed, abs(rhs - closed) / closed)
            for _ in range(5):
                x = rng.normal(size=n)
                x *= rng.uniform(1.2, 4.0) * R / np.linalg.norm(x)
                v, Dv, D2v = oracles.radial_v_fields(n, R, x)
                tr = float(np.trace(D2v))
                worst = max(worst, symfun.newton_deficit(D2v) / tr**2)
                worst = max(worst, abs(fn.pbv_residual(v, Dv, D2v, n)) / abs(tr))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-11 and elapsed < 1.0
    _line(1, "ball equality chain (oracle): F1, F2, Newton, pbv all <= 1e-11",
          ok, f"worst rel {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_capacity_three_ways(sphere_sols, timings):
    sol = sphere_sols[4]
    t0 = time.perf_counter()
    cc, ca, cf = bem.capacity_three_ways(sol, 40.0)
    elapsed = timings["sphere4"] + (time.perf_counter() - t0)
    vals = np.array([cc, ca, cf])
    err = np.max(np.abs(vals - FOUR_PI)) / FOUR_PI
    spread = (vals.max() - vals.min()) / vals.min()
    ok = err < 0.015 and spread <= 0.005 and elapsed <= 120.0
    _line(2, "unit sphere level 4: three capacities within 1.5% of 4pi, spread <= 0.5%",
          ok, f"err {err:.2e}, spread {spread:.2e}, {elapsed:.1f}s")


def test_criterion_3_density(sphere_sols, spheroid_sols):
    sigma = sphere_sols[4].sigma
    dev = float(np.max(np.abs(sigma - 1.0)))
    ok = (dev < 0.03 and sphere_sols[4].sigma_positive
          and spheroid_sols[4].sigma_positive)
    _line(3, "equilibrium density: sphere sigma within 3% of 1, positive on sphere and spheroid",
          ok, f"max deviation {dev:.2e}")


def test_criterion_4_inequality_directions(sphere_sols, spheroid_sols, bumpy_sol,
                                           sphere_floors):
    ok = True
    details = []

    def check(sol, level, label, expect_positive):
        nonlocal ok
        tau1 = 3.0 * sphere_floors[level]["f1_rel"]
        tau2 = 3.0 * sphere_floors[level]["f2_rel"]
        fields = fn.fields_from_solution(sol)
        rel_f1 = fn.f1(fields, 3) / fn.f1_scale(fields)
        lhs, rhs = fn.f2(fields, sol.capacity, 3)
        ok &= rel_f1 >= -tau1
        ok &= (lhs - rhs) >= -tau2 * rhs
        if expect_positive:
            ok &= rel_f1 >= 10.0 * sphere_floors[level]["f1_rel"]
        details.append(f"{label}: F1rel {rel_f1:+.2e}")

    for level in (3, 4, 5):
        check(sphere_sols[level], level, f"sphere L{level}", False)
    for level in (3, 4):
        check(spheroid_sols[level], level, f"spheroid L{level}", True)
    check(bumpy_sol, 4, "bumpy L4", True)
    _line(4, "inequality directions: F1 >= -tau, F2 gap >= -tau; non-spheres >= 10x floor",
          ok, "; ".join(details))


def test_criterion_5_lower_bound(sphere_sols, spheroid_sols, bumpy_sol, sphere_floors):
    ok = True
    worst_oracle = 0.0
    for R in (0.5, 1.0, 2.0):
        fields = fn.ball_boundary_fields(3, R)
        product, rhs = fn.lower_bound_n3(oracles.ball_capacity(3, R), fields)
        worst_oracle = max(worst_oracle, abs(product - EIGHT_PI2) / EIGHT_PI2)
    ok &= worst_oracle <= 1e-11

    fields = fn.fields_from_solution(sphere_sols[4])
    product, _ = fn.lower_bound_n3(sphere_sols[4].capacity, fields)
    bem_err = abs(product - EIGHT_PI2) / EIGHT_PI2
    ok &= bem_err < 0.03

    shapes = ([(sphere_sols[lv], lv) for lv in (3, 4, 5)]
              + [(spheroid_sols[lv], lv) for lv in (3, 4)]
              + [(bumpy_sol, 4)])
    for sol, level in shapes:
        tau = 3.0 * sphere_floors[level]["f2_rel"]
        flds = fn.fields_from_solution(sol)
        product, _ = fn.lower_bound_n3(sol.capacity, flds)
        ok &= product >= EIGHT_PI2 * (1.0 - tau)
    _line(5, "n=3 lower bound: Cap*F2_lhs = 8pi^2 (oracle 1e-11, BEM 3%), all shapes above",
          ok, f"oracle {worst_oracle:.2e}, BEM {bem_err:.2e}")


def test_criterion_6_asymptotics(sphere_sols):
    sol = sphere_sols[4]
    cap = sol.capacity
    x = np.array([600.0, -500.0, 624.5])  # |x| = 10^3
    r = float(np.linalg.norm(x))
    u = bem.eval_potential(sol, x)
    Du = bem.eval_gradient(sol, x)
    D2u = bem.eval_hessian(sol, x)
    u0 = cap / (FOUR_PI * r)
    Du0 = -cap / FOUR_PI * x / r**3
    D2u0 = cap / (FOUR_PI * r**3) * (3.0 * np.outer(x, x) / r**2 - np.eye(3))
    e_u = abs(u - u0) / abs(u0)
    e_g = float(np.linalg.norm(Du - Du0) / np.linalg.norm(Du0))
    e_h = float(np.abs(D2u - D2u0).max() / np.abs(D2u0).max())
    ok = max(e_u, e_g, e_h) < 0.02
    _line(6, "asymptotic expansion at |x| = 10^3: u, Du, D2u leading terms within 2%",
          ok, f"errors {e_u:.2e}/{e_g:.2e}/{e_h:.2e}")


def test_criterion_7_identity_suite(tmp_path):
    out = tmp_path / "identities.txt"
    t0 = time.perf_counter()
    rc = cli.main(["identity-check", "--output", str(out)])
    elapsed = time.perf_counter() - t0
    text = out.read_text()
    ok = rc == 0 and "FAIL" not in text and elapsed <= 60.0
    _line(7, "identity suite: FD orders in [1.8, 2.2], level sets, exact gamma, boundary limits",
          ok, f"exit {rc}, {elapsed:.1f}s")


def test_criterion_8_spheroid_capacity(spheroid_sols):
    ref = oracles.ellipsoid_capacity(2.0, 1.0, 1.0)
    err = abs(spheroid_sols[4].capacity - ref) / ref
    ok = err < 0.02
    _line(8, "spheroid 2:1:1 level 4: BEM capacity within 2% of elliptic-integral oracle",
          ok, f"rel err {err:.2e}")


def test_criterion_9_newton_discrimination(sphere_sols, spheroid_sols):
    pts_s = fn.sample_exterior_points(sphere_sols[4].mesh, 64, 0)
    pts_e = fn.sample_exterior_points(spheroid_sols[4].mesh, 64, 0)
    sup_s, _ = fn.newton_scan(sphere_sols[4], pts_s)
    sup_e, _ = fn.newton_scan(spheroid_sols[4], pts_e)
    ok = sup_s <= 5e-3 and sup_e >= 10.0 * sup_s
    _line(9, "Newton discrimination: sphere sup deficit <= 5e-3, spheroid >= 10x sphere",
          ok, f"sphere {sup_s:.2e}, spheroid {sup_e:.2e}")


def test_criterion_10_refinement_convergence(convergence_csv):
    lines = convergence_csv.strip().split("\n")
    header_ok = lines[0] == "level,panels,capacity,cap_error,f1,f2_gap,newton_deficit,wall_time_s"
    rows = [line.split(",") for line in lines[1:]]
    levels = [int(r[0]) for r in rows]
    errs = [float(r[3]) for r in rows]
    ok = (header_ok and levels == [2, 3, 4, 5]
          and all(b < a for a, b in zip(errs, errs[1:])))
    _line(10, "refinement convergence: sphere capacity error strictly decreases, levels 2-5",
          ok, "errors " + "/".join(f"{e:.2e}" for e in errs))
