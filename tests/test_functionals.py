import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capsym import bem, functionals as fn, geometry as geo, oracles, symfun

FOUR_PI = 4.0 * math.pi


@pytest.fixture(scope="module")
def sphere3_sol():
    return bem.solve_equilibrium(geo.make_sphere_mesh(1.0, 3), 6)


@pytest.fixture(scope="module")
def spheroid3_sol():
    return bem.solve_equilibrium(geo.make_ellipsoid_mesh(2.0, 1.0, 1.0, 3), 6)


class TestBallFields:
    def test_exact_values(self):
        f = fn.ball_boundary_fields(3, 2.0)
        assert f.du[0] == pytest.approx(0.5)
        assert f.H[0] == pytest.approx(0.5)
        assert f.area.sum() == pytest.approx(16 * math.pi, rel=1e-14)

    def test_empty_fields_rejected(self):
        with pytest.raises(ValueError):
            fn.BoundaryFields(du=np.array([]), H=np.array([]), area=np.array([]))


class TestF1:
    def test_ball_zero_all_dimensions(self):
        for n in (3, 4, 5, 6):
            for R in (0.5, 1.0, 2.0):
                fields = fn.ball_boundary_fields(n, R)
                assert abs(fn.f1(fields, n)) <= 1e-14 * fn.f1_scale(fields)

    def test_sphere_bem_within_noise(self, sphere3_sol):
        fields = fn.fields_from_solution(sphere3_sol)
        val = fn.f1(fields, 3)
        assert abs(val) / fn.f1_scale(fields) < 5e-3

    def test_spheroid_strictly_positive(self, spheroid3_sol):
        fields = fn.fields_from_solution(spheroid3_sol)
        val = fn.f1(fields, 3)
        assert val > 0
        # at least 10x the sphere noise floor at the same level
        assert val / fn.f1_scale(fields) > 10 * fn.SPHERE_NOISE_FLOOR[3]["f1_rel"]

    def test_scaling_structure(self, spheroid3_sol):
        # scaling the domain by t sends F1 to F1 / t
        fields = fn.fields_from_solution(spheroid3_sol)
        t = 2.0
        sol2 = bem.solve_equilibrium(spheroid3_sol.mesh.scaled(t), 6)
        fields2 = fn.fields_from_solution(sol2)
        assert fn.f1(fields2, 3) == pytest.approx(fn.f1(fields, 3) / t, rel=5e-3)


class TestF2:
    def test_unit_ball_n3_equality(self):
        fields = fn.ball_boundary_fields(3, 1.0)
        lhs, rhs = fn.f2(fields, oracles.ball_capacity(3, 1.0), 3)
        assert lhs == pytest.approx(2 * math.pi, rel=1e-13)
        assert rhs == pytest.approx(2 * math.pi, rel=1e-13)

    def test_ball_equality_general_n(self):
        for n in (3, 4, 5, 6):
            for R in (0.5, 1.0, 2.0):
                fields = fn.ball_boundary_fields(n, R)
                cap = oracles.ball_capacity(n, R)
                lhs, rhs = fn.f2(fields, cap, n)
                omega = oracles.unit_sphere_area(n)
                closed_form = 0.5 * (n - 2) ** 3 * omega * R ** (n - 4)
                assert lhs == pytest.approx(closed_form, rel=1e-12)
                assert rhs == pytest.approx(closed_form, rel=1e-12)

    def test_n4_rhs_capacity_independent(self):
        # exponent (n-4)/(n-2) = 0 at n = 4: rhs = 4 omega_4 = 8 pi^2
        fields = fn.ball_boundary_fields(4, 3.0)
        for cap in (1.0, 10.0, 123.0):
            _, rhs = fn.f2(fields, cap, 4)
            assert rhs == pytest.approx(8 * math.pi**2, rel=1e-13)

    def test_spheroid_inequality_direction(self, spheroid3_sol):
        fields = fn.fields_from_solution(spheroid3_sol)
        lhs, rhs = fn.f2(fields, spheroid3_sol.capacity, 3)
        tau = 3 * fn.SPHERE_NOISE_FLOOR[3]["f2_rel"]
        assert lhs - rhs >= -tau * rhs


class TestLowerBound:
    def test_ball_attains_8pi2(self):
        for R in (0.5, 1.0, 2.0, 5.0):
            fields = fn.ball_boundary_fields(3, R)
            product, rhs = fn.lower_bound_n3(oracles.ball_capacity(3, R), fields)
            assert rhs == pytest.approx(8 * math.pi**2, rel=1e-15)
            assert product == pytest.approx(8 * math.pi**2, rel=1e-12)

    def test_spheroid_exceeds(self, spheroid3_sol):
        fields = fn.fields_from_solution(spheroid3_sol)
        product, rhs = fn.lower_bound_n3(spheroid3_sol.capacity, fields)
        assert product > rhs

    def test_both_constants_reported(self):
        assert fn.LB_RHS_DERIVED == pytest.approx(8 * math.pi**2)
        assert fn.LB_RHS_PRINTED == pytest.approx(2 * math.pi)


class TestVTransform:
    def test_matches_radial_oracle(self):
        rng = np.random.default_rng(3)
        for n in (3, 4, 5, 6):
            for _ in range(25):
                x = rng.normal(size=n)
                x *= rng.uniform(1.1, 5.0) / np.linalg.norm(x)
                u, Du, D2u = oracles.radial_potential(n, 1.0, x)
                v, Dv, D2v = fn.v_transform(u, Du, D2u, n)
                v0, Dv0, D2v0 = oracles.radial_v_fields(n, 1.0, x)
                assert v == pytest.approx(v0, rel=1e-12)
                assert np.allclose(Dv, Dv0, rtol=1e-12, atol=1e-14)
                assert np.allclose(D2v, D2v0, rtol=1e-11, atol=1e-12)

    def test_boundary_value(self):
        v, _, _ = fn.v_transform(1.0, np.zeros(3), np.zeros((3, 3)), 3)
        assert v == 1.0

    def test_finite_difference_hessian(self):
        # central differences of v(u(x)) for the radial ball, n = 3
        n, R = 3, 1.0
        x0 = np.array([1.7, -0.4, 0.9])

        def v_of(x):
            u, _, _ = oracles.radial_potential(n, R, x)
            return u ** (-2.0 / (n - 2))

        u, Du, D2u = oracles.radial_potential(n, R, x0)
        _, _, D2v = fn.v_transform(u, Du, D2u, n)
        h = 1e-4
        for i in range(3):
            for j in range(3):
                ei = np.eye(3)[i] * h
                ej = np.eye(3)[j] * h
                fd = (v_of(x0 + ei + ej) - v_of(x0 + ei - ej)
                      - v_of(x0 - ei + ej) + v_of(x0 - ei - ej)) / (4 * h * h)
                assert fd == pytest.approx(D2v[i, j], abs=5e-6)

    def test_rejects_nonpositive_u(self):
        with pytest.raises(ValueError):
            fn.v_transform(0.0, np.zeros(3), np.zeros((3, 3)), 3)


class TestPbvResidual:
    def test_zero_on_radial_fields(self):
        rng = np.random.default_rng(4)
        for n in range(3, 9):
            for _ in range(20):
                x = rng.normal(size=n)
                x *= rng.uniform(1.0, 8.0) / np.linalg.norm(x)
                v, Dv, D2v = oracles.radial_v_fields(n, 1.0, x)
                res = fn.pbv_residual(v, Dv, D2v, n)
                assert abs(res) <= 1e-12 * abs(np.trace(D2v))

    def test_bem_consistency(self, sphere3_sol):
        x = np.array([3.0, 0.0, 0.0])
        u = bem.eval_potential(sphere3_sol, x)
        Du = bem.eval_gradient(sphere3_sol, x)
        D2u = bem.eval_hessian(sphere3_sol, x)
        v, Dv, D2v = fn.v_transform(u, Du, D2u, 3)
        scale = 1.5 * float(Dv @ Dv) / v
        assert abs(fn.pbv_residual(v, Dv, D2v, 3)) <= 1e-2 * scale

    def test_non_harmonic_negative_control(self):
        # u = exp(-|x|) is not harmonic; residual must be visibly nonzero
        # (avoid r = 2 where the Laplacian e^(-r)(1 - 2/r) happens to vanish)
        x = np.array([3.0, 0.0, 0.0])
        r = np.linalg.norm(x)
        u = math.exp(-r)
        Du = -u * x / r
        D2u = u * (np.outer(x, x) / r**2 - np.eye(3) / r + np.outer(x, x) / r**3)
        v, Dv, D2v = fn.v_transform(u, Du, D2u, 3)
        scale = 1.5 * float(Dv @ Dv) / v
        assert abs(fn.pbv_residual(v, Dv, D2v, 3)) > 0.05 * scale


class TestNewtonScan:
    def test_analytic_ball_fields_zero(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            x = rng.normal(size=3)
            x *= rng.uniform(1.2, 4.0) / np.linalg.norm(x)
            _, _, D2v = oracles.radial_v_fields(3, 1.0, x)
            tr = np.trace(D2v)
            assert symfun.newton_deficit(D2v) / tr**2 <= 1e-14

    def test_sphere_noise_floor(self, sphere3_sol):
        pts = fn.sample_exterior_points(sphere3_sol.mesh, 32, 0)
        sup, per = fn.newton_scan(sphere3_sol, pts)
        assert sup <= 5e-3
        assert per.shape == (32,)
        assert sup == per.max()

    def test_spheroid_discriminates(self, sphere3_sol, spheroid3_sol):
        pts_s = fn.sample_exterior_points(sphere3_sol.mesh, 32, 1)
        pts_e = fn.sample_exterior_points(spheroid3_sol.mesh, 32, 1)
        sup_s, _ = fn.newton_scan(sphere3_sol, pts_s)
        sup_e, _ = fn.newton_scan(spheroid3_sol, pts_e)
        assert sup_e >= 10 * sup_s

    def test_interior_sample_rejected(self, sphere3_sol):
        with pytest.raises(ValueError, match="inside"):
            fn.newton_scan(sphere3_sol, np.array([[0.0, 0.0, 0.0]]))


class TestVerdictAndReport:
    def test_ball_verdict_true(self, sphere3_sol):
        report = fn.verify_solution(sphere3_sol, level=3)
        assert report.verdict_ball
        assert report.reasons == []

    def test_spheroid_verdict_false_with_reasons(self, spheroid3_sol):
        report = fn.verify_solution(spheroid3_sol, level=3)
        assert not report.verdict_ball
        assert any("F1" in r for r in report.reasons)

    def test_threshold_monotonicity(self, sphere3_sol):
        tight = fn.default_thresholds(3)
        tight["tol_newton"] = 1e-12
        report = fn.verify_solution(sphere3_sol, level=3, thresholds=tight)
        assert not report.verdict_ball
        assert any("Newton" in r for r in report.reasons)

    def test_report_json_schema(self, sphere3_sol):
        import json

        report = fn.verify_solution(sphere3_sol, level=3)
        text = fn.report_to_json(report)
        data = json.loads(text)
        for key in ("f1", "f2_lhs", "f2_rhs", "lb_product", "lb_rhs",
                    "newton_sup_deficit", "pbv_max_residual", "verdict",
                    "mesh", "thresholds"):
            assert key in data
        assert data["mesh"]["panels"] == 1280
        assert data["mesh"]["level"] == 3
        # 17-significant-digit floats round-trip exactly
        assert data["f2_lhs"] == report.f2_lhs

    def test_json_determinism(self, sphere3_sol):
        report = fn.verify_solution(sphere3_sol, level=3, seed=7)
        report2 = fn.verify_solution(sphere3_sol, level=3, seed=7)
        assert fn.report_to_json(report) == fn.report_to_json(report2)


def ball_exterior(R, count=64, seed=11):
    """(u, Du, D2u) of the ball's potential, stacked at seeded points on the
    sample shells 1.6-3.0 R out."""
    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(count, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    X = (R * rng.uniform(*fn.SAMPLE_RADIUS_FACTORS, size=count))[:, None] * dirs
    return tuple(np.array(a) for a in zip(*(oracles.radial_potential(3, R, x) for x in X)))


class TestVerifyFields:
    """`verify` takes the fields of any discretisation, here the exact ball."""

    @pytest.mark.parametrize("R", [0.5, 1.0, 3.0])
    def test_ball_oracle_is_a_ball(self, R):
        report = fn.verify(fn.ball_boundary_fields(3, R), oracles.ball_capacity(3, R),
                           ball_exterior(R))
        assert report.verdict_ball and report.reasons == []
        assert abs(report.f1) / report.f1_scale <= 1e-12
        assert abs(report.f2_lhs - report.f2_rhs) / report.f2_rhs <= 1e-12
        assert report.newton_sup_deficit <= 1e-12
        assert report.pbv_max_residual <= 1e-12
        assert report.lb_product == pytest.approx(report.lb_rhs, rel=1e-12)
        assert report.panels == 1

    def test_nan_f1_fails(self):
        fields = fn.BoundaryFields(du=[1.0], H=[np.nan], area=[FOUR_PI])
        report = fn.verify(fields, oracles.ball_capacity(3, 1.0), ball_exterior(1.0))
        assert math.isnan(report.f1)
        assert not report.verdict_ball
        assert "F1 positive beyond threshold" in report.reasons

    def test_nan_f2_side_fails(self):
        report = fn.verify(fn.ball_boundary_fields(3, 1.0), np.nan, ball_exterior(1.0))
        assert math.isnan(report.f2_rhs)
        assert not report.verdict_ball
        assert report.reasons == ["F2 gap beyond threshold"]

    def test_nan_newton_sup_fails(self):
        u, Du, D2u = ball_exterior(1.0)
        D2u[5, 0, 1] = np.nan
        report = fn.verify(fn.ball_boundary_fields(3, 1.0), oracles.ball_capacity(3, 1.0),
                           (u, Du, D2u))
        assert math.isnan(report.newton_sup_deficit)
        assert not report.verdict_ball
        assert report.reasons == ["Newton deficit beyond threshold"]

    def test_verify_solution_is_verify_on_the_bem_fields(self, spheroid3_sol):
        sol = spheroid3_sol
        X = fn.sample_exterior_points(sol.mesh, 16, 2)
        direct = fn.verify(fn.fields_from_solution(sol), sol.capacity,
                           bem.eval_fields_at_unit_scale(sol, X), level=3)
        assert fn.report_to_dict(direct) == fn.report_to_dict(
            fn.verify_solution(sol, level=3, seed=2, n_samples=16))


class TestCoarseLevels:
    """Levels 0 and 1 have rows of their own: their spheres are balls and
    the 2:1:1 spheroid is not."""

    @pytest.fixture(scope="class")
    def coarse(self):
        return {(shape, level): bem.solve_equilibrium(mesh(level), 6)
                for shape, mesh in (("sphere", lambda L: geo.make_sphere_mesh(1.0, L)),
                                    ("spheroid", lambda L: geo.make_ellipsoid_mesh(2.0, 1.0, 1.0, L)))
                for level in (0, 1)}

    @pytest.mark.parametrize("level", [0, 1])
    def test_rows_cover_the_sphere_over_seeds(self, coarse, level):
        floor = fn.SPHERE_NOISE_FLOOR[level]
        for seed in range(4):
            rep = fn.verify_solution(coarse["sphere", level], level=level, seed=seed)
            assert abs(rep.f1) / rep.f1_scale <= floor["f1_rel"]
            assert abs(rep.f2_lhs - rep.f2_rhs) / rep.f2_rhs <= floor["f2_rel"]
            assert rep.newton_sup_deficit <= floor["newton"]
            assert rep.verdict_ball and rep.reasons == []

    @pytest.mark.parametrize("level", [0, 1])
    def test_spheroid_is_not_a_ball(self, coarse, level):
        for seed in range(4):
            rep = fn.verify_solution(coarse["spheroid", level], level=level, seed=seed)
            assert not rep.verdict_ball
            assert "Newton deficit beyond threshold" in rep.reasons


class TestSharedScan:
    def test_verify_evaluates_each_point_once(self, spheroid3_sol, monkeypatch):
        calls = []

        def counting(sol, X):
            calls.append(len(X))
            return bem.eval_fields_at_unit_scale(sol, X)

        monkeypatch.setattr(fn, "eval_fields_at_unit_scale", counting)
        report = fn.verify_solution(spheroid3_sol, level=3, n_samples=24, seed=3)
        assert calls == [24]
        pts = fn.sample_exterior_points(spheroid3_sol.mesh, 24, 3)
        assert report.newton_sup_deficit == fn.newton_scan(spheroid3_sol, pts)[0]
        assert report.pbv_max_residual == fn.pbv_scan(spheroid3_sol, pts)


def scan_point_by_point(sol, pts):
    """The scan as a loop over points in scalar arithmetic: numpy-scalar
    powers, np.outer, a 1-d dot and the sum of a 3 x 3 array per point."""
    n, m = 3, 1  # m = n - 2
    deficits, residuals = [], []
    for u, Du, D2u in zip(*bem.eval_fields(sol, pts)):
        D2u = 0.5 * (D2u + D2u.T)
        v = u ** (-2.0 / m)
        a = -2.0 / m * u ** (-n / m)
        Dv = a * Du
        D2v = a * D2u + (2.0 * n / m**2) * u ** (-(2.0 * n - 2.0) / m) * np.outer(Du, Du)
        dev = D2v - (np.trace(D2v) / n) * np.eye(n)
        tr = float(np.trace(D2v))
        deficits.append(0.5 * float(np.sum(dev * dev)) / (tr * tr))
        q = (n / 2.0) * float(Dv @ Dv) / v
        residuals.append(abs(float(np.trace(D2v) - q)) / q)
    return max(deficits), np.array(deficits), max(residuals)


class TestBatchedAlgebra:
    def test_stack_is_bitwise_a_loop_of_points(self):
        rng = np.random.default_rng(13)
        P = 48
        for n in (3, 4, 5):
            u = rng.uniform(0.05, 1.0, size=P)
            Du = rng.normal(size=(P, n))
            D2u = rng.normal(size=(P, n, n))  # not symmetric: v_transform symmetrizes
            stack = fn.v_transform(u, Du, D2u, n)
            residuals = fn.pbv_residual(*stack, n)
            deficits = symfun.newton_deficit(stack[2])
            assert [x.shape for x in stack] == [(P,), (P, n), (P, n, n)]
            for k in range(P):
                one = fn.v_transform(float(u[k]), Du[k], D2u[k], n)
                for whole, part in zip(stack, one):
                    assert np.array_equal(whole[k], part)
                assert residuals[k] == fn.pbv_residual(*one, n)
                v, Dv, D2v = one  # and |Dv|^2 rounds as the 1-d dot does
                assert residuals[k] == np.trace(D2v) - (n / 2.0) * (Dv @ Dv) / v
                assert deficits[k] == symfun.newton_deficit(one[2])

    def test_stack_rejects_one_nonpositive_u(self):
        u = np.array([0.5, -1e-3, 0.7])
        with pytest.raises(ValueError, match="positive"):
            fn.v_transform(u, np.ones((3, 3)), np.zeros((3, 3, 3)), 3)

    @pytest.mark.parametrize("shape", ["spheroid3", "bumpy2"])
    def test_scan_is_bitwise_the_point_loop(self, shape, spheroid3_sol):
        sol = spheroid3_sol if shape == "spheroid3" else \
            bem.solve_equilibrium(geo.make_bumpy_sphere_mesh(1.0, 2), 6)
        pts = fn.sample_exterior_points(sol.mesh, 512, 7)
        sup, deficits, pbv = fn._scan(*bem.eval_fields_at_unit_scale(sol, pts))
        ref_sup, ref_deficits, ref_pbv = scan_point_by_point(sol, pts)
        assert np.array_equal(deficits, ref_deficits)
        assert (sup, pbv) == (ref_sup, ref_pbv)


class TestJsonNonFinite:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -np.inf, np.float64("nan")])
    def test_rejects_non_finite_naming_key(self, bad):
        with pytest.raises(ValueError, match="f2_gap"):
            fn.json_17g({"f1": 1.0, "f2_gap": bad})

    def test_names_nested_list_entry(self):
        with pytest.raises(fn.NonFiniteError, match=r"shape\[1\]"):
            fn.json_17g({"config": {"shape": ["sphere", float("inf")]}})


class TestFormat17g:
    @pytest.mark.parametrize("x", [0.1, 1 / 3, 4 * np.pi, np.float64(2.5e-300), -7.0])
    def test_round_trips_exactly(self, x):
        assert float(fn.format_17g(x, "k")) == x

    def test_json_and_csv_share_it(self):
        value = 1 / 3
        assert fn.json_17g({"a": value}) == f'{{\n  "a": {fn.format_17g(value, "a")}\n}}\n'

    def test_names_the_key(self):
        with pytest.raises(fn.NonFiniteError, match="cap_error"):
            fn.format_17g(float("nan"), "cap_error")

    def test_numpy_containers_render_as_lists(self):
        text = fn.json_17g({"v": np.array([1.5, 2.0]), "t": (np.int64(3), True, None)})
        assert json.loads(text) == {"v": [1.5, 2.0], "t": [3, True, None]}


class TestUnitScaleScan:
    """`bem.eval_fields_at_unit_scale` forms the scan's fields at the mesh's
    unit scale, so scaling a solution by 2^k (mesh by 2^k, sigma by 2^-k) leaves every deficit and
    residual bitwise unchanged, far beyond the radii where D2u itself
    overflows or Tr(D2v)^2 underflows."""

    @pytest.fixture(scope="class")
    def moved_spheroid(self):
        mesh = geo.make_ellipsoid_mesh(2.0, 1.0, 1.0, 1).transformed(
            np.linalg.qr(np.random.default_rng(5).normal(size=(3, 3)))[0], [0.3, -0.2, 0.1])
        return bem.solve_equilibrium(mesh, 3)

    @settings(max_examples=40, deadline=None)
    @given(k=st.integers(-460, 460))
    def test_power_of_two_scaling_is_bitwise_invariant(self, moved_spheroid, k):
        sol = moved_spheroid
        scaled = replace(sol, mesh=sol.mesh.scaled(2.0**k), sigma=np.ldexp(sol.sigma, -k))
        pts = fn.sample_exterior_points(sol.mesh, 16, 3)
        scaled_pts = fn.sample_exterior_points(scaled.mesh, 16, 3)
        assert np.array_equal(scaled_pts, np.ldexp(pts, k))
        with np.errstate(all="raise"):
            sup, deficits, pbv = fn._scan(*bem.eval_fields_at_unit_scale(scaled, scaled_pts))
        ref_sup, ref_deficits, ref_pbv = fn._scan(*bem.eval_fields_at_unit_scale(sol, pts))
        assert np.array_equal(deficits, ref_deficits) and np.all(np.isfinite(deficits))
        assert (sup, pbv) == (ref_sup, ref_pbv)
