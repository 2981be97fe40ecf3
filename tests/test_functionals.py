import math

import numpy as np
import pytest

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


class TestSharedScan:
    def test_verify_evaluates_each_point_once(self, spheroid3_sol, monkeypatch):
        calls = []

        def counting(sol, X):
            calls.append(len(X))
            return bem.eval_fields(sol, X)

        monkeypatch.setattr(fn, "eval_fields", counting)
        report = fn.verify_solution(spheroid3_sol, level=3, n_samples=24, seed=3)
        assert calls == [24]
        pts = fn.sample_exterior_points(spheroid3_sol.mesh, 24, 3)
        assert report.newton_sup_deficit == fn.newton_scan(spheroid3_sol, pts)[0]
        assert report.pbv_max_residual == fn.pbv_scan(spheroid3_sol, pts)


class TestJsonNonFinite:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -np.inf, np.float64("nan")])
    def test_rejects_non_finite_naming_key(self, bad):
        with pytest.raises(ValueError, match="f2_gap"):
            fn.json_17g({"f1": 1.0, "f2_gap": bad})

    def test_names_nested_list_entry(self):
        with pytest.raises(fn.NonFiniteError, match=r"shape\[1\]"):
            fn.json_17g({"config": {"shape": ["sphere", float("inf")]}})
